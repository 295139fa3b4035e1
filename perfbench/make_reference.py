"""Regenerate ``reference_faults.json``: exhaustive campaigns on ``interp``.

``python3 perfbench/make_reference.py`` reruns every exhaustive campaign
of the ``faults`` workload on the gate-level interpreter — the engine
that shares no code with the compiled fault-parallel sweeps — and
rewrites the reference counts.  It takes several minutes (the shuffle
and SEU campaigns are sequential and slow on the interpreter).  A change
that moves these counts is a different program, not a faster one.
"""

from __future__ import annotations

import json
import sys

import harness


def main() -> int:
    harness.import_program()
    from repro.robustness.campaign import CampaignSpec, run_campaign

    from wl_faults import REFERENCE, SPECS

    counts = {}
    for label, fields in SPECS:
        if fields["model"] == "bridge":
            continue  # seeded per run; its reference is computed then
        r = run_campaign(CampaignSpec(**fields, engine="interp"))
        counts[label] = [r.benign, r.detected, r.silent]
        print(label, counts[label], flush=True)
    with open(REFERENCE, "w") as fh:
        json.dump({"engine": "interp", "counts": counts}, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
