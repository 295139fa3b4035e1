"""Shared helpers for the benchmark/reproduction harness.

Each ``bench_*`` module regenerates one table or figure of the paper:
it times the underlying computation with pytest-benchmark, asserts the
qualitative claims (who wins, growth orders, uniformity), and writes the
regenerated artefact to ``results/<name>.txt`` so the numbers survive the
run (pytest captures stdout).

Every report additionally emits a machine-readable twin,
``results/<name>.json``, through the :mod:`repro.obs.bench` telemetry
harness — schema ``repro-bench/1``, carrying an environment fingerprint,
the benchmark's structured ``data`` payload, and iteration statistics
when a pytest-benchmark fixture is handed in.  ``python -m
repro.obs.bench validate results/*.json`` checks them in CI.

Each emitted report is also ingested into the append-only bench-history
ledger (``results/history/<name>.jsonl``, schema
``repro-bench-history/1``) keyed by the current git SHA, so ``python -m
repro.obs.bench regress`` can compare this run against the trailing
window.  Smoke runs (``REPRO_BENCH_SMOKE=1``) are flagged and only ever
compared against other smoke entries.  Ingestion is best-effort: a
ledger failure must not fail the benchmark that produced the numbers.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.obs import bench as obs_bench
from repro.obs import history as obs_history
from repro.robustness import campaign

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"
HISTORY_DIR = RESULTS_DIR / "history"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def write_report(
    results_dir: pathlib.Path,
    name: str,
    text: str,
    *,
    data: dict | None = None,
    timing: dict | None = None,
    benchmark=None,
) -> None:
    path = results_dir / f"{name}.txt"
    path.write_text(text + "\n")
    json_path = obs_bench.emit_report(
        results_dir,
        name,
        data=data,
        timing=timing,
        benchmark=benchmark,
        text_report=f"results/{name}.txt",
    )
    try:
        obs_history.ingest_report(
            json.loads(json_path.read_text()),
            HISTORY_DIR,
            smoke=bool(os.environ.get("REPRO_BENCH_SMOKE")),
        )
    except (OSError, ValueError) as exc:
        print(f"bench-history ingest skipped for {name}: {exc}")


def cold_campaign(spec: campaign.CampaignSpec) -> campaign.CampaignResult:
    """``run_campaign`` from empty netlist and fault-list memos.

    A campaign process builds its circuit once and reuses it; a timed
    campaign that follows another in the same process would skip that
    build.  Clearing the memos first makes every timed campaign pay its
    one build, so ratios between timed campaigns compare like with like.
    """
    campaign._netlist.cache_clear()
    campaign._fault_universe.cache_clear()
    return campaign.run_campaign(spec)
