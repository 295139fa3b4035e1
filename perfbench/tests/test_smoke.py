"""Tiny runs of every workload: the result line, and that checks bite.

Each run is shrunk with ``--seconds 1`` (and ``--scale`` where the
workload allows), so the whole module takes well under a minute.  The
corruption cases prove that a wrong permutation, a changed fault count
and a changed accumulator digest each make the run incorrect.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import harness
import run as bench
import wl_faults
import wl_validate
from layers import PER_LAYER

END_TO_END = ("setup_s", "items_per_s", "latency_ms", "ok_share", "peak_rss_mb")


def _run(capsys, workload, trace=0, seconds="1"):
    code = bench.main(
        ["--workload", workload, "--seed", "3", "--seconds", seconds, "--trace", str(trace)]
    )
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


def _expect_clean(code, out, names):
    assert code == 0
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] > 0
    assert set(out["metrics"]) == set(names)
    for m in out["metrics"].values():
        assert set(m) == {"value", "unit"}


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_each_workload_reports_every_end_to_end_metric(capsys, workload):
    code, out = _run(capsys, workload)
    _expect_clean(code, out, END_TO_END)
    assert all(out["metrics"][k]["value"] > 0 for k in END_TO_END)


@pytest.mark.parametrize("workload", ["serve", "validate"])
def test_traced_run_reports_every_per_layer_metric(capsys, workload):
    code, out = _run(capsys, workload, trace=1)
    _expect_clean(code, out, [name for name, _, _ in PER_LAYER])
    assert out["metrics"]["kernel.s"]["value"] > 0
    assert out["metrics"]["trace.overhead_x"]["value"] > 0


def test_a_corrupted_permutation_fails_the_serve_run(capsys, monkeypatch):
    import dataclasses

    from repro.serve.service import CompletionFuture

    real = CompletionFuture._finish
    state = {"done": False}

    def corrupting(self, value, exc):
        if not state["done"] and value is not None and value.workload == "unrank":
            p = list(value.permutation)
            p[0], p[1] = p[1], p[0]  # still a permutation, of another index
            value = dataclasses.replace(value, permutation=tuple(p))
            state["done"] = True
        real(self, value, exc)

    monkeypatch.setattr(CompletionFuture, "_finish", corrupting)
    code, out = _run(capsys, "serve")
    assert state["done"]
    assert code == 1 and out["correct"] is False and out["failed"] >= 1


def test_a_changed_fault_count_fails_the_faults_run(capsys, monkeypatch, tmp_path):
    with open(wl_faults.REFERENCE) as fh:
        ref = json.load(fh)
    ref["counts"]["converter-9-stuck"][0] += 1
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(ref))
    monkeypatch.setattr(wl_faults, "REFERENCE", str(path))
    code, out = _run(capsys, "faults")
    assert code == 1 and out["correct"] is False
    assert out["failed"] == 1870


def test_a_changed_digest_fails_the_validate_run(capsys, monkeypatch):
    real = wl_validate.reference

    def tampered(cfg):
        res = real(cfg)
        res.stats.accumulators["fixed_points"].hist[0] += 1
        return res

    monkeypatch.setattr(wl_validate, "reference", tampered)
    code, out = _run(capsys, "validate")
    assert code == 1 and out["correct"] is False


def test_without_the_program_the_run_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copytree(harness.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
