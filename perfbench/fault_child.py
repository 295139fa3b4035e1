"""One ``faults`` campaign in a fresh process.

``python3 perfbench/fault_child.py <spec json> <trace 0|1>`` runs
``run_campaign`` on the spec (one worker, so inline) and prints one
``RESULT <json>`` line: the class counts, sweeps, the campaign's wall
time, each shard's time, this process's peak memory and, when traced,
the span summary (the spans themselves go under ``.perfbench/``).
"""

from __future__ import annotations

import json
import sys
import time

import harness


def main() -> int:
    fields, trace = json.loads(sys.argv[1]), sys.argv[2] == "1"
    harness.import_program()
    from spans import Recorder, preload

    preload()
    rec = None
    if trace:
        rec = Recorder()
        rec.install()
    from repro.obs.tracing import Tracer
    from repro.robustness.campaign import CampaignSpec, run_campaign

    tracer = Tracer()
    t0 = time.perf_counter()
    result = run_campaign(CampaignSpec(**fields), workers=1, tracer=tracer)
    wall = time.perf_counter() - t0
    out = {
        "counts": [result.benign, result.detected, result.silent],
        "total": result.total,
        "sweeps": result.sweeps,
        "wall_s": wall,
        "shard_s": [
            span.wall_s
            for root in tracer.roots
            for span in root.walk()
            if span.name.startswith("shard") and span.wall_s is not None
        ],
        "peak_rss_mb": harness.peak_rss_self_mb(),
    }
    if rec is not None:
        from spans import save, summarise

        rec.uninstall()
        label = "-".join(str(fields[k]) for k in sorted(fields))
        save(rec, f"{harness.ROOT}/.perfbench/trace-faults-{label}.npz")
        out["trace"] = summarise(rec)
    print("RESULT " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
