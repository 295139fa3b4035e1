"""Shared plumbing of the benchmark: paths, arguments, statistics, oracle.

Everything here is independent of the program under test except
:func:`import_program`, which puts the checkout's ``src`` directory on
``sys.path`` and fails with :class:`MissingProgram` when it is absent.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("serve", "wire", "validate", "faults")

#: Fresh processes started per run to time set-up; the run reports
#: their median as ``setup_s``.
SETUP_PROBES = 3
#: Size of the source :func:`calibrate` compiles, and the time that
#: takes at nominal host speed (about an uncontended 2-vCPU x86-64 VM);
#: timed units are reported scaled to that speed by :func:`at_nominal`.
CALIBRATION_FUNCTIONS = 150
CALIBRATION_NOMINAL_S = 0.005


class MissingProgram(RuntimeError):
    """The checkout holds no program to benchmark."""


def import_program() -> None:
    """Make ``import repro`` resolve to the checkout's ``src/repro``."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise MissingProgram(f"no program at {SRC}/repro")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> dict:
    """Environment for child processes: the program first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="repository benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# --------------------------------------------------------------------- #
# statistics


def median(values) -> float:
    if len(values) == 0:
        raise ValueError("median of no samples")
    return float(np.median(np.asarray(values, dtype=np.float64)))


#: The source :func:`calibrate` compiles: byte-code compilation
#: allocates and branches like the program's own Python does, and it
#: tracked the workloads' slowdowns better than an arithmetic loop, a
#: large-dict walk or a NumPy gather (interquartile range ÷ median of
#: scaled unit times 0.04–0.06 against 0.07–0.22, over 88 paired units).
_CALIBRATION_SOURCE = "\n".join(
    f"def f{i}(x):\n    y = x * {i} + {i}\n    return (y ^ (y >> 3)) & 0xffff"
    for i in range(CALIBRATION_FUNCTIONS)
)


def _compile_once() -> float:
    t0 = time.perf_counter()
    compile(_CALIBRATION_SOURCE, "<calibrate>", "exec")
    return time.perf_counter() - t0


def calibrate() -> float:
    """Seconds this host takes right now to compile a fixed source.

    The benchmark runs it just before and after each unit of work it
    times, in the process that times it, while no other work of the run
    is in flight.  The shared host's vCPUs are contended independently,
    so it runs once on each CPU this process may use and the mean is
    returned; a workload pinned to one CPU (:func:`pin`) measures
    exactly that CPU.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) == 1:
        return _compile_once()
    try:
        times = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(_compile_once())
        return sum(times) / len(times)
    finally:
        os.sched_setaffinity(0, cpus)


def pin() -> None:
    """Keep this process, and the processes it starts, on one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def at_nominal(seconds: float, calibration: float) -> float:
    """``seconds`` scaled to a host on which :func:`calibrate` reads
    ``CALIBRATION_NOMINAL_S``.

    A change to the program moves the timed unit and not the calibration, so it
    shows in full; a contended spell of the shared host slows both.
    """
    return seconds * CALIBRATION_NOMINAL_S / calibration


def calibrated(fn, *args, **kwargs):
    """Call ``fn(*args, **kwargs)`` between two :func:`calibrate` calls.

    Returns ``(its result, its seconds at nominal host speed)``, scaled
    by the mean of the two calibrations.
    """
    before = calibrate()
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    seconds = time.perf_counter() - t0
    return out, at_nominal(seconds, (before + calibrate()) / 2)


def tail(values, want: float = 99.0) -> tuple[float, float, int]:
    """The highest percentile up to ``want`` with ≥ 10 samples beyond it.

    Nearest-rank: the value of rank ``k`` (1-based, ascending) is the
    ``100·k/N`` percentile and has ``N − k`` samples beyond it.  Returns
    ``(percentile, value, N)``.  Fewer than 11 samples leave no rank
    with ten beyond it, which raises :class:`ValueError`.
    """
    xs = np.sort(np.asarray(values, dtype=np.float64))
    n = len(xs)
    if n < 11:
        raise ValueError(f"{n} samples: no percentile has ten beyond it")
    k = min(math.ceil(want / 100.0 * n), n - 10)
    return 100.0 * k / n, float(xs[k - 1]), n


def sliced(offsets, values, width: float, span: float | None = None) -> list[np.ndarray]:
    """Split ``values`` into consecutive slices ``width`` seconds wide.

    ``offsets`` give each value's time from the phase start.  With the
    phase length ``span`` given, only whole slices are kept (a phase
    shorter than one slice keeps everything).  Slices come back in time
    order; empty ones are dropped.
    """
    offsets = np.asarray(offsets, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    keys = np.floor(offsets / width).astype(np.int64)
    whole = int(span // width) if span is not None else None
    if whole is not None and whole >= 1:
        keep = keys < whole
        keys, values = keys[keep], values[keep]
    return [values[keys == k] for k in np.unique(keys)]


def sliced_tail(offsets, values, width: float, span: float,
                want: float = 99.0) -> tuple[float, float, int]:
    """Median over whole ``width``-second slices of each slice's :func:`tail`.

    One slow second then moves the result by one slice's worth, not by
    its share of the pooled tail.  Slices too small for the percentile
    rule are left out.  Returns ``(lowest percentile used, value, slices)``.
    """
    parts = sliced(offsets, values, width, span)
    tails = [tail(s, want) for s in parts if len(s) >= 11]
    if not tails:
        raise ValueError("no slice has enough samples for a tail percentile")
    return min(t[0] for t in tails), median([t[1] for t in tails]), len(tails)


def peak_rss_self_mb() -> float:
    """Peak resident set of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_children_mb() -> float:
    """Largest peak resident set among this process's reaped children."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# --------------------------------------------------------------------- #
# the oracle (independent of the program's own ranker)

_FACT = [math.factorial(i) for i in range(21)]


def ranks(perms: np.ndarray) -> np.ndarray:
    """Lexicographic (Lehmer) rank of every row of a ``(B, n)`` array."""
    p = np.asarray(perms, dtype=np.int64)
    n = p.shape[1]
    later_smaller = (p[:, None, :] < p[:, :, None]) & np.triu(
        np.ones((n, n), dtype=bool), 1
    )
    digits = later_smaller.sum(axis=2, dtype=np.int64)
    weights = np.array([_FACT[n - 1 - i] for i in range(n)], dtype=np.int64)
    return digits @ weights


def valid_rows(perms: np.ndarray) -> np.ndarray:
    """Boolean mask: which rows are permutations of ``0..n−1``."""
    p = np.asarray(perms, dtype=np.int64)
    return (np.sort(p, axis=1) == np.arange(p.shape[1])).all(axis=1)


def correct_rows(perms: np.ndarray, indices: np.ndarray, has_index) -> np.ndarray:
    """Per-row verdict: a permutation, and of its index where it has one."""
    ok = valid_rows(perms)
    has = np.asarray(has_index, dtype=bool)
    if has.any():
        ok[has] &= ranks(perms[has]) == np.asarray(indices, dtype=np.int64)[has]
    return ok


# --------------------------------------------------------------------- #
# set-up probes


def spawn_first_line(argv: list[str], timeout: float = 120.0) -> tuple[str, float]:
    """Run ``python3 <argv>`` from the checkout root until it exits.

    Returns its first line of standard output and the seconds from just
    before the spawn to that line.  A process that fails raises
    :class:`RuntimeError`; one that outlives ``timeout`` is killed.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv],
        stdout=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{os.path.basename(argv[0])} exited {proc.returncode}: {line!r}")
    return line, elapsed


def time_setup_probes(workload: str, seed: int, count: int = SETUP_PROBES) -> list[float]:
    """Seconds from spawning a fresh process to its first correct result,
    each at nominal host speed (:func:`at_nominal`).

    Each probe runs ``setup_probe.py``, which builds the workload's
    program path, serves one checked unit of work, prints ``READY`` and
    exits.  The clock runs from just before the spawn to the ``READY``
    line, so interpreter start and imports are included.
    """
    samples = []
    for i in range(count):
        before = calibrate()
        line, elapsed = spawn_first_line(
            [os.path.join(HERE, "setup_probe.py"), workload, str(seed * 1000 + i)], 60.0
        )
        if not line.startswith("READY"):
            raise RuntimeError(f"setup probe for {workload} failed: {line!r}")
        samples.append(at_nominal(elapsed, (before + calibrate()) / 2))
    return samples


# --------------------------------------------------------------------- #
# the result line


class Result:
    """Counts and metrics of one run; ``emit`` prints the final line."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.metrics: dict[str, tuple[float, str]] = {}

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def note(self, line: str) -> None:
        """A human-readable line ahead of the result line."""
        print(line, flush=True)

    def emit(self) -> int:
        correct = self.incorrect == 0
        payload = {
            "correct": correct,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {
                k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()
            },
        }
        print(json.dumps(payload), flush=True)
        return 0 if correct else 1
