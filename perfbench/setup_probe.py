"""Set-up probe: a fresh process that serves one checked unit of work.

``python3 perfbench/setup_probe.py <workload> <seed>`` builds the
workload's program path from scratch and checks one result; the
workload's ``probe`` prints ``READY`` as soon as that result is correct,
then shuts down.  The parent times spawn to ``READY``.
"""

from __future__ import annotations

import importlib
import sys

import harness


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    harness.import_program()
    importlib.import_module(f"wl_{workload}").probe(seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
