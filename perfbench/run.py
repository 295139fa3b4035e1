"""The repository benchmark: one workload, one run, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

Workloads: ``serve``, ``wire``, ``validate``, ``faults`` (see LAYERS.md).
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of a traced run.  Every output is checked; a wrong one makes the
run report ``"correct": false`` and exit 1.  Without the program's
sources next to this directory the run exits 2 and prints no result.
"""

from __future__ import annotations

import sys

import harness


def main(argv=None) -> int:
    args = harness.parse_args(argv)
    try:
        harness.import_program()
    except harness.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import importlib

    workload = importlib.import_module(f"wl_{args.workload}")
    result = harness.Result()
    workload.run(args, result)
    return result.emit()


if __name__ == "__main__":
    sys.exit(main())
