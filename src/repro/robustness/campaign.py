"""Fault-injection campaigns over the paper's circuits.

A campaign enumerates (or samples) fault sites in a gate-level netlist,
simulates the circuit once per fault through a non-invasive
:class:`~repro.robustness.faults.FaultOverlay`, and classifies each
fault by comparing against the golden (fault-free) run:

* **benign** — every output matches the golden run: the fault was never
  excited, or its effect never propagated to an output;
* **detected** — some output is *not a valid permutation*: a cheap O(n)
  bijectivity self-check catches it online;
* **silent** — outputs differ from golden yet every one is still a
  valid permutation.  This is the dangerous class: structural checking
  passes, and only the rank∘unrank oracle (converter) or statistical
  monitoring (shuffle) can expose it.

The campaign is itself sharded over the fault list via
:func:`~repro.parallel.sharding.hardened_map_reduce`, so a slow or
crashed worker costs a resubmitted shard, not the campaign.  Each
process builds a campaign's netlist and fault list once, deterministically
from the spec, into two small private memos: forked workers inherit what
the parent built, a spawned worker builds once, and nothing heavyweight
crosses the pickle boundary.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from repro.analysis.faultcoverage import wilson_interval
from repro.errors import CampaignConfigError
from repro.core.factorial import factorial
from repro.hdl.compile import SWEEP_LANES, PackedFaultPlan
from repro.hdl.engine import BACKENDS, resolve_backend
from repro.hdl.netlist import Netlist
from repro.hdl.simulator import CombinationalSimulator, SequentialSimulator
from repro.obs import metrics as _metrics
from repro.obs.events import EventSink
from repro.parallel.sharding import ShardSpec, hardened_map_reduce, index_shards
from repro.robustness.faults import (
    Fault,
    FaultOverlay,
    SEUFault,
    StuckAtFault,
    bridging_fault_sites,
    seu_fault_sites,
    stuck_fault_sites,
)

__all__ = ["CampaignSpec", "CampaignResult", "fault_list", "run_campaign"]

MODELS = ("stuck", "seu", "bridge")
CIRCUITS = ("converter", "shuffle")

#: Class labels, in report order.
_CLASSES = ("benign", "detected", "silent")

_FAULTS_TOTAL = _metrics.REGISTRY.counter(
    "repro_campaign_faults_total",
    "fault sites evaluated, by classification",
    ("klass",),
)
_CAMPAIGN_COVERAGE = _metrics.REGISTRY.gauge(
    "repro_campaign_bijection_coverage",
    "bijection-check coverage of the last campaign",
    ("circuit", "model"),
)


@dataclass(frozen=True)
class CampaignSpec:
    """Everything needed to reproduce a campaign bit for bit."""

    circuit: str = "converter"  #: "converter" or "shuffle"
    n: int = 6  #: permutation size
    model: str = "stuck"  #: "stuck", "seu" or "bridge"
    samples: int | None = None  #: sample this many sites (None = exhaustive)
    seed: int = 0  #: drives site sampling and test-vector choice
    test_count: int = 64  #: converter test indices (capped at n!)
    stream_length: int = 16  #: shuffle output rows compared per fault
    optimized: bool = False  #: attack the pass-pipeline-optimised netlist
    engine: str = "auto"  #: registered backend name or "auto" (see BACKENDS)

    def __post_init__(self):
        if self.circuit not in CIRCUITS:
            raise CampaignConfigError(f"circuit must be one of {CIRCUITS}")
        if self.model not in MODELS:
            raise CampaignConfigError(f"model must be one of {MODELS}")
        if self.n < 2:
            raise CampaignConfigError("campaigns need n >= 2")
        if self.samples is not None and self.samples < 1:
            raise CampaignConfigError("samples must be >= 1 (or omitted)")
        if self.engine not in BACKENDS:
            raise CampaignConfigError(f"engine must be one of {BACKENDS}")


@dataclass
class CampaignResult:
    """Coverage statistics of one campaign."""

    spec: CampaignSpec
    total: int
    benign: int
    detected: int
    silent: int
    test_vectors: int
    exhaustive: bool
    examples: dict[str, list[str]] = field(default_factory=dict)
    failed_shards: int = 0
    engine: str = "auto"  #: backend that actually ran the campaign
    sweeps: int = 0  #: combinational sweeps executed across all workers
    wall_s: float = 0.0  #: end-to-end campaign wall time

    @property
    def corrupting(self) -> int:
        """Faults whose effect reached an output."""
        return self.detected + self.silent

    @property
    def bijection_coverage(self) -> float:
        """Fraction of corrupting faults a bijectivity self-check catches."""
        return self.detected / self.corrupting if self.corrupting else 1.0

    def render(self) -> str:
        s = self.spec
        head = f"Fault-injection campaign: {s.circuit} n={s.n}, model={s.model}"
        mode = "exhaustive" if self.exhaustive else f"sampled (seed={s.seed})"
        lines = [
            head,
            "=" * len(head),
            f"fault sites: {self.total} ({mode}); "
            f"test vectors per fault: {self.test_vectors}",
        ]
        for name, count in (
            ("benign (output unchanged)", self.benign),
            ("detected (invalid permutation)", self.detected),
            ("silent (valid but WRONG output)", self.silent),
        ):
            pct = 100.0 * count / self.total if self.total else 0.0
            lines.append(f"  {name:<34} {count:>7}  {pct:5.1f}%")
        lines.append(
            f"corrupting faults: {self.corrupting}; "
            f"bijection-check coverage: {100.0 * self.bijection_coverage:.1f}%"
        )
        lines.append(
            "rank oracle coverage: 100.0% of corrupting faults "
            "(any output change breaks rank(unrank(N)) == N)"
            if s.circuit == "converter"
            else "shuffle outputs have no per-sample oracle: silent faults "
            "need statistical monitoring (see analysis.uniformity)"
        )
        if not self.exhaustive and self.corrupting:
            lo, hi = wilson_interval(self.detected, self.corrupting)
            lines.append(
                f"95% Wilson CI on bijection coverage: [{100 * lo:.1f}%, {100 * hi:.1f}%]"
            )
        if self.wall_s > 0 and self.total:
            lines.append(
                f"throughput: {self.total / self.wall_s:,.0f} faults/s, "
                f"{self.sweeps / self.wall_s:,.0f} sweeps/s "
                f"({self.sweeps} sweeps in {self.wall_s:.2f}s, "
                f"engine={self.engine})"
            )
        if self.failed_shards:
            lines.append(
                f"WARNING: {self.failed_shards} shard(s) failed permanently; "
                "counts cover completed shards only"
            )
        for klass in _CLASSES:
            for desc in self.examples.get(klass, [])[:3]:
                lines.append(f"  e.g. {klass}: {desc}")
        return "\n".join(lines)


# --------------------------------------------------------------------- #
# deterministic circuit / fault-list construction (worker-side too)


@functools.lru_cache(maxsize=8)
def _netlist(circuit: str, n: int, optimized: bool, pipelined: bool) -> Netlist:
    """The campaign circuit, built once per process per key.

    Shared by every campaign and shard in the process, so it must never
    be mutated: faults go through overlays, never into the netlist.
    """
    from repro.flow import build_circuit
    from repro.hdl.passes import PassManager

    nl = build_circuit(circuit, n, pipelined=pipelined)
    if optimized:
        # Fault sites on the shipped (optimised) netlist: the same pass
        # pipeline the synthesis flow applies, so coverage numbers match
        # the circuit whose resources Tables III/IV report.
        nl = PassManager().run(nl).netlist
    return nl


def _campaign_netlist(spec: CampaignSpec) -> Netlist:
    # SEUs need registers to hit: use the pipelined converter datapath.
    pipelined = spec.circuit == "converter" and spec.model == "seu"
    return _netlist(spec.circuit, spec.n, spec.optimized, pipelined)


def _test_indices(spec: CampaignSpec) -> list[int]:
    """Converter test vectors: exhaustive for small n!, else seeded sample.

    The corner indices 0 and n!−1 are always included — they exercise
    the all-zeros and all-maximal comparator patterns.
    """
    limit = factorial(spec.n)
    if limit <= spec.test_count:
        return list(range(limit))
    rng = np.random.default_rng(spec.seed)
    picks = rng.integers(0, limit, size=spec.test_count - 2, dtype=np.int64)
    return [0, limit - 1] + [int(x) for x in picks]


def _seu_cycles(spec: CampaignSpec, nl: Netlist) -> tuple[int, ...]:
    """Upset cycles: early, mid-stream and late — the pipeline (or LFSR
    warm-up) behaves differently at each."""
    if spec.circuit == "converter":
        horizon = len(_test_indices(spec)) + max(0, spec.n - 1)
    else:
        horizon = spec.stream_length
    return tuple(sorted({1, horizon // 2, max(1, horizon - 2)}))


@functools.lru_cache(maxsize=8)
def _fault_universe(spec: CampaignSpec) -> tuple[Fault, ...]:
    """:func:`fault_list` for a spec whose engine is normalised away
    (the engine never changes the universe), memoised per process."""
    nl = _campaign_netlist(spec)
    if spec.model == "stuck":
        sites: list[Fault] = list(stuck_fault_sites(nl))
    elif spec.model == "seu":
        sites = list(seu_fault_sites(nl, _seu_cycles(spec, nl)))
    else:
        budget = spec.samples if spec.samples is not None else 256
        sites = list(bridging_fault_sites(nl, budget, seed=spec.seed))
    if spec.samples is not None and len(sites) > spec.samples:
        rng = np.random.default_rng(spec.seed)
        keep = rng.choice(len(sites), size=spec.samples, replace=False)
        sites = [sites[int(i)] for i in sorted(keep)]
    return tuple(sites)


def _campaign_faults(spec: CampaignSpec) -> tuple[Fault, ...]:
    return _fault_universe(replace(spec, engine="auto"))


def fault_list(spec: CampaignSpec) -> list[Fault]:
    """The campaign's fault universe, deterministic in ``spec`` alone.

    A fresh list on every call: the caller may edit it freely.
    """
    return list(_campaign_faults(spec))


#: Lane budget per fault slot in a fault-parallel sweep: the slot count
#: is capped so combinational campaigns with huge test-vector sets do
#: not explode one sweep's memory.  The packed engine's capability sets
#: the slot ceiling — 63 faults + 1 golden slot on the compiled engine,
#: 4096 faults + 1 golden on ``vector`` (the compiled engine at a
#: 4096-lane quantum).
_LANES_PER_SLOT = 64


class _Evaluator:
    """Runs the circuit under a fault overlay and returns ``(B, n)`` rows.

    Two evaluation modes share one classification path:

    * **per-fault** (:meth:`run`) — one simulation per overlay, on
      whichever backend ``spec.engine`` selects;
    * **fault-parallel** (:meth:`run_packed`) — a mask-patching engine
      packs one fault per bit-lane next to a golden lane
      (:class:`~repro.hdl.compile.PackedFaultPlan`), so a single sweep
      evaluates up to ``chunk_faults`` stuck-at/SEU sites at once.  The
      selected engine's capability record sizes the slots: 63 under
      ``auto``/``compiled``, 4096 under ``vector``.

    Both produce bit-identical rows (the engines are equivalence-tested
    property-style), so campaign counts and example lists match exactly
    regardless of mode.
    """

    def __init__(self, spec: CampaignSpec):
        self.spec = spec
        self.netlist = _campaign_netlist(spec)
        self.backend = spec.engine
        if spec.circuit == "converter":
            self.indices = _test_indices(spec)
            self.fill = (spec.n - 1) if spec.model == "seu" else 0
        else:
            self.indices = []
            self.fill = 1  # cycle 0 emits seed-state garbage (see knuth.py)
        self.combinational = spec.circuit == "converter" and spec.model != "seu"
        if spec.circuit == "converter":
            self.stream_len = len(self.indices) + self.fill
        else:
            self.stream_len = spec.stream_length + self.fill
        #: sweeps one per-fault evaluation costs
        self.sweeps_per_run = 1 if self.combinational else self.stream_len
        # Fault-parallel needs per-lane masks: stuck-at and SEU compile,
        # bridging reads aggressor values mid-sweep and cannot.
        self.fault_parallel = spec.engine != "interp" and spec.model in (
            "stuck",
            "seu",
        )
        # The mask-patching engine that carries the packed sweeps, and
        # whose sweep quantum caps the fault slots per sweep.
        packed = resolve_backend(spec.engine)
        self.packed_backend = packed.name
        slots_cap = packed.capabilities.sweep_lanes + 1
        if self.combinational:
            per_fault = max(1, len(self.indices))
            budget = _LANES_PER_SLOT * slots_cap
            slots = max(2, min(slots_cap, budget // per_fault))
        else:
            slots = slots_cap
        self.chunk_faults = slots - 1
        # One simulator for every combinational sweep of this evaluator:
        # an evaluator takes either the per-fault or the packed path.
        self.sim = (
            CombinationalSimulator(
                self.netlist,
                backend=self.packed_backend if self.fault_parallel else spec.engine,
            )
            if self.combinational
            else None
        )

    def run(self, overlay: FaultOverlay | None) -> np.ndarray:
        spec, nl = self.spec, self.netlist
        if self.sim is not None:
            outs = self.sim.run({"index": self.indices}, overlay=overlay)
            rows = np.empty((len(self.indices), spec.n), dtype=np.int64)
            for t in range(spec.n):
                rows[:, t] = [int(v) for v in outs[f"out{t}"]]
            return rows
        # sequential paths: pipelined converter or the shuffle cascade
        seq = SequentialSimulator(nl, batch=1, overlay=overlay, backend=self.backend)
        if spec.circuit == "converter":
            stream = self.indices + [0] * self.fill
        else:
            stream = [None] * (spec.stream_length + self.fill)
        rows = []
        for cycle, value in enumerate(stream):
            outs = seq.step({} if value is None else {"index": value})
            if cycle >= self.fill:
                rows.append([int(outs[f"out{t}"][0]) for t in range(spec.n)])
        return np.asarray(rows, dtype=np.int64)

    def run_packed(
        self, chunk: Sequence[Fault]
    ) -> tuple[list[np.ndarray], np.ndarray, int]:
        """One fault-parallel evaluation of up to ``chunk_faults`` sites.

        Returns ``(per-fault rows, golden rows, sweeps)``: slot 0 of the
        packed batch carries the fault-free circuit, slot ``s`` carries
        ``chunk[s-1]``.
        """
        spec, nl = self.spec, self.netlist
        n, slots = spec.n, len(chunk) + 1
        if self.sim is not None:
            per_fault = len(self.indices)
            lanes = slots * per_fault
            plan = PackedFaultPlan(lanes)
            for s, fault in enumerate(chunk, start=1):
                assert isinstance(fault, StuckAtFault)
                plan.stick(
                    fault.wire, fault.value, slice(s * per_fault, (s + 1) * per_fault)
                )
            outs = self.sim.run({"index": list(self.indices) * slots}, overlay=plan)
            cols = np.empty((lanes, n), dtype=np.int64)
            for t in range(n):
                cols[:, t] = outs[f"out{t}"].astype(np.int64)
            cube = cols.reshape(slots, per_fault, n)
            return [cube[s] for s in range(1, slots)], cube[0], 1
        # sequential: one lane per slot, whole stream in one pass
        plan = PackedFaultPlan(slots)
        for s, fault in enumerate(chunk, start=1):
            if isinstance(fault, StuckAtFault):
                plan.stick(fault.wire, fault.value, [s])
            else:
                assert isinstance(fault, SEUFault)
                plan.upset(fault.register, fault.cycle, [s])
        seq = SequentialSimulator(
            nl, batch=slots, overlay=plan, backend=self.packed_backend
        )
        if spec.circuit == "converter":
            stream = self.indices + [0] * self.fill
        else:
            stream = [None] * (spec.stream_length + self.fill)
        frames = []
        for cycle, value in enumerate(stream):
            outs = seq.step({} if value is None else {"index": value})
            if cycle >= self.fill:
                frame = np.empty((slots, n), dtype=np.int64)
                for t in range(n):
                    frame[:, t] = outs[f"out{t}"].astype(np.int64)
                frames.append(frame)
        cube = np.stack(frames)  # (cycles, slots, n)
        return [cube[:, s, :] for s in range(1, slots)], cube[:, 0, :], len(stream)


def _classify(golden: np.ndarray, faulty: np.ndarray, n: int) -> str:
    if np.array_equal(golden, faulty):
        return "benign"
    expected = np.arange(n, dtype=np.int64)
    valid = np.array_equal(
        np.sort(faulty, axis=1), np.broadcast_to(expected, faulty.shape)
    )
    return "silent" if valid else "detected"


# --------------------------------------------------------------------- #
# the sharded runner


class _CampaignWork:
    """Picklable per-shard worker: takes the netlist and fault list from
    this process's memos (built from the spec on first use)."""

    def __init__(self, spec: CampaignSpec):
        self.spec = spec

    def __call__(self, shard: ShardSpec) -> dict:
        faults = _campaign_faults(self.spec)
        ev = _Evaluator(self.spec)
        counts = {k: 0 for k in _CLASSES}
        examples: dict[str, list[str]] = {k: [] for k in _CLASSES}
        sweeps = 0

        def record(fault: Fault, klass: str) -> None:
            counts[klass] += 1
            if len(examples[klass]) < 3:
                examples[klass].append(fault.describe(ev.netlist))

        shard_faults = [faults[i] for i in shard]
        if ev.fault_parallel:
            size = ev.chunk_faults
            for off in range(0, len(shard_faults), size):
                chunk = shard_faults[off : off + size]
                faulty_rows, golden, cost = ev.run_packed(chunk)
                sweeps += cost
                for fault, rows in zip(chunk, faulty_rows):
                    record(fault, _classify(golden, rows, self.spec.n))
        else:
            golden = ev.run(None)
            sweeps += ev.sweeps_per_run
            for fault in shard_faults:
                overlay = FaultOverlay([fault], ev.netlist)
                klass = _classify(golden, ev.run(overlay), self.spec.n)
                sweeps += ev.sweeps_per_run
                record(fault, klass)
        return {"counts": counts, "examples": examples, "sweeps": sweeps}


def _merge(a: dict, b: dict) -> dict:
    counts = {k: a["counts"][k] + b["counts"][k] for k in _CLASSES}
    examples = {
        k: (a["examples"][k] + b["examples"][k])[:3] for k in _CLASSES
    }
    return {
        "counts": counts,
        "examples": examples,
        "sweeps": a.get("sweeps", 0) + b.get("sweeps", 0),
    }


def run_campaign(
    spec: CampaignSpec,
    workers: int = 1,
    degrade: bool = False,
    timeout: float | None = None,
    events: EventSink | None = None,
    tracer=None,
) -> CampaignResult:
    """Execute a campaign, sharded and hardened.

    ``degrade=True`` keeps partial statistics when shards fail
    permanently (the report then carries a warning); otherwise a failed
    shard aborts with :class:`~repro.errors.WorkerFailedError`.

    Progress is reported through the structured event API: ``events``
    receives ``plan`` / ``shard_*`` / ``done`` events (render them with a
    :class:`~repro.obs.events.StderrSink`, collect them in tests with a
    :class:`~repro.obs.events.CollectingSink`, or pass ``None`` for
    silence).  ``tracer`` threads the caller's trace through the sharded
    runner, so every shard attempt becomes a child span.
    """
    t0 = time.perf_counter()
    # Fill both memos before the pool forks, so workers inherit them.
    faults = _campaign_faults(spec)
    if not faults:
        raise ValueError(f"no {spec.model} fault sites in the {spec.circuit} netlist")
    ev = _Evaluator(spec)
    test_vectors = len(ev.indices) if spec.circuit == "converter" else spec.stream_length
    engine_used = ev.packed_backend if ev.fault_parallel else spec.engine
    # Never cut the fault list finer than one packed chunk per shard
    # when a wide-lane engine could fit the whole campaign in one sweep
    # — dicing it into per-worker slivers would waste its lanes.  The
    # compiled engine keeps the historical 4-shards-per-worker split
    # (its 63-fault chunks already align with it).
    want = max(1, workers) * 4
    if ev.fault_parallel and ev.chunk_faults > SWEEP_LANES:
        want = min(want, -(-len(faults) // ev.chunk_faults))
    shards = index_shards(len(faults), want)
    if events is not None:
        events.emit(
            "plan",
            circuit=spec.circuit,
            model=spec.model,
            engine=engine_used,
            fault_sites=len(faults),
            test_vectors=test_vectors,
            shards=len(shards),
            workers=workers,
        )
    partial = hardened_map_reduce(
        _CampaignWork(spec),
        shards,
        _merge,
        workers=workers,
        timeout=timeout,
        degrade=True,
        events=events,
        tracer=tracer,
    )
    if not degrade and not partial.complete:
        # hardened_map_reduce already retried; surface the first failure.
        f = partial.failed[0]
        from repro.errors import WorkerFailedError

        raise WorkerFailedError(
            f"campaign shard {f.shard_id} failed permanently: {f.error}",
            shard_id=f.shard_id,
            attempts=f.attempts,
        )
    merged = partial.value or {
        "counts": {k: 0 for k in _CLASSES},
        "examples": {k: [] for k in _CLASSES},
        "sweeps": 0,
    }
    counted = sum(merged["counts"].values())
    result_coverage = (
        merged["counts"]["detected"]
        / (merged["counts"]["detected"] + merged["counts"]["silent"])
        if merged["counts"]["detected"] + merged["counts"]["silent"]
        else 1.0
    )
    if _metrics.REGISTRY.enabled:
        for klass in _CLASSES:
            if merged["counts"][klass]:
                _FAULTS_TOTAL.inc(merged["counts"][klass], klass=klass)
        _CAMPAIGN_COVERAGE.set(
            result_coverage, circuit=spec.circuit, model=spec.model
        )
    wall_s = time.perf_counter() - t0
    if events is not None:
        events.emit(
            "done",
            evaluated=counted,
            benign=merged["counts"]["benign"],
            detected=merged["counts"]["detected"],
            silent=merged["counts"]["silent"],
            failed_shards=len(partial.failed),
            sweeps=merged.get("sweeps", 0),
            wall_s=round(wall_s, 3),
        )
    return CampaignResult(
        spec=spec,
        total=counted,
        benign=merged["counts"]["benign"],
        detected=merged["counts"]["detected"],
        silent=merged["counts"]["silent"],
        test_vectors=test_vectors,
        exhaustive=spec.samples is None and spec.model != "bridge",
        examples=merged["examples"],
        failed_shards=len(partial.failed),
        engine=engine_used,
        sweeps=merged.get("sweeps", 0),
        wall_s=wall_s,
    )
