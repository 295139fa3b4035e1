"""The ``vector`` backend: the compiled engine at a 4096-lane quantum.

``vector`` registers a subclass of the compiled engine that changes only
its capability record, so it must agree with ``compiled`` bit for bit
on every circuit, batch width, overlay and SEU schedule — through every
simulator hook.  Hypothesis drives random netlists through both names;
explicit cases pin the wide-sweep behaviour (≥ 1024 lanes in one sweep)
against the interpreter, and the registration itself.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hdl.compile import PackedFaultPlan
from repro.hdl.engine import get_engine
from repro.hdl.gates import Op
from repro.hdl.simulator import (
    BatchEntry,
    CombinationalSimulator,
    CompiledEngine,
    SequentialSimulator,
)
from repro.hdl.vector import VECTOR_SWEEP_LANES, VectorEngine
from repro.robustness.faults import FaultOverlay, SEUFault, StuckAtFault

from .test_compile import _ints, _registered
from .test_fuzz import random_circuit, _build


# --------------------------------------------------------------------- #
# combinational equivalence


@given(random_circuit())
@settings(max_examples=100)
def test_vector_matches_compiled_combinational(case):
    n_inputs, ops, picks, vectors = case
    nl, _ = _build(n_inputs, ops, picks)
    compiled = CombinationalSimulator(nl, backend="compiled").run({"a": vectors})
    vector = CombinationalSimulator(nl, backend="vector").run({"a": vectors})
    assert _ints(compiled) == _ints(vector)


@given(random_circuit(), st.data())
@settings(max_examples=60)
def test_vector_matches_compiled_with_stuck_overlay(case, data):
    n_inputs, ops, picks, vectors = case
    nl, _ = _build(n_inputs, ops, picks)
    logic = [
        w
        for w, g in enumerate(nl.gates)
        if g.op not in (Op.INPUT, Op.REG, Op.CONST0, Op.CONST1)
    ]
    if not logic:
        return
    faults = [
        StuckAtFault(
            wire=data.draw(st.sampled_from(logic)), value=data.draw(st.booleans())
        )
        for _ in range(data.draw(st.integers(1, min(3, len(logic)))))
    ]
    overlay = FaultOverlay(faults, nl)
    compiled = CombinationalSimulator(nl, backend="compiled").run(
        {"a": vectors}, overlay=overlay
    )
    vector = CombinationalSimulator(nl, backend="vector").run(
        {"a": vectors}, overlay=overlay
    )
    assert _ints(compiled) == _ints(vector)


@given(random_circuit(), st.data())
@settings(max_examples=40)
def test_vector_matches_compiled_with_packed_plan(case, data):
    n_inputs, ops, picks, _ = case
    nl, _ = _build(n_inputs, ops, picks)
    logic = [
        w
        for w, g in enumerate(nl.gates)
        if g.op not in (Op.INPUT, Op.REG, Op.CONST0, Op.CONST1)
    ]
    if not logic:
        return
    slots = data.draw(st.integers(2, 5))
    per = data.draw(st.integers(1, 6))
    lanes = slots * per
    plan = PackedFaultPlan(lanes)
    for s in range(1, slots):
        plan.stick(
            data.draw(st.sampled_from(logic)),
            data.draw(st.booleans()),
            slice(s * per, (s + 1) * per),
        )
    vecs = [
        data.draw(st.integers(0, (1 << n_inputs) - 1)) for _ in range(lanes)
    ]
    compiled = CombinationalSimulator(nl, backend="compiled").run(
        {"a": vecs}, overlay=plan
    )
    vector = CombinationalSimulator(nl, backend="vector").run(
        {"a": vecs}, overlay=plan
    )
    assert _ints(compiled) == _ints(vector)


# --------------------------------------------------------------------- #
# sequential equivalence


@given(random_circuit(), st.data())
@settings(max_examples=50)
def test_vector_matches_compiled_sequential(case, data):
    nl, n_inputs = _registered(case)
    batch = data.draw(st.integers(1, 5))
    cycles = data.draw(st.integers(1, 6))
    streams = [
        [data.draw(st.integers(0, (1 << n_inputs) - 1)) for _ in range(batch)]
        for _ in range(cycles)
    ]
    sc = SequentialSimulator(nl, batch=batch, backend="compiled")
    sv = SequentialSimulator(nl, batch=batch, backend="vector")
    for vec in streams:
        assert _ints(sc.step({"a": vec})) == _ints(sv.step({"a": vec}))
    assert {
        q: [bool(b) for b in lanes] for q, lanes in sc.state.items()
    } == {q: [bool(b) for b in lanes] for q, lanes in sv.state.items()}


@given(random_circuit(), st.data())
@settings(max_examples=40)
def test_vector_matches_compiled_sequential_with_faults(case, data):
    nl, n_inputs = _registered(case)
    regs = [r.q for r in nl.registers]
    logic = [
        w
        for w, g in enumerate(nl.gates)
        if g.op not in (Op.INPUT, Op.REG, Op.CONST0, Op.CONST1)
    ]
    faults = []
    if logic and data.draw(st.booleans()):
        faults.append(
            StuckAtFault(
                wire=data.draw(st.sampled_from(logic)),
                value=data.draw(st.booleans()),
            )
        )
    faults.append(
        SEUFault(
            register=data.draw(st.sampled_from(regs)),
            cycle=data.draw(st.integers(0, 3)),
        )
    )
    vectors = [data.draw(st.integers(0, (1 << n_inputs) - 1)) for _ in range(5)]
    outs = []
    for backend in ("compiled", "vector"):
        sim = SequentialSimulator(
            nl, batch=1, overlay=FaultOverlay(faults, nl), backend=backend
        )
        outs.append([_ints(sim.step({"a": v})) for v in vectors])
    assert outs[0] == outs[1]


# --------------------------------------------------------------------- #
# the registration


class TestRegistration:
    def test_overrides_no_hook(self):
        """Every sweep runs the compiled engine's own code."""
        assert get_engine("vector") is VectorEngine
        assert issubclass(VectorEngine, CompiledEngine)
        hooks = (
            "comb_run", "batch_run", "seq_reset", "seq_step",
            "seq_unpack_state", "seq_run_stream",
        )
        assert not set(hooks) & set(VectorEngine.__dict__)

    def test_capabilities_differ_only_in_name_quantum_priority(self):
        vec, comp = VectorEngine.capabilities, CompiledEngine.capabilities
        assert vec.name == "vector" and vec.sweep_lanes == VECTOR_SWEEP_LANES
        assert vec.auto_priority < comp.auto_priority
        same = ("probes", "patch_masks", "general_overlays")
        assert all(getattr(vec, f) == getattr(comp, f) for f in same)


# --------------------------------------------------------------------- #
# wide sweeps: the point of the backend


class TestWideSweeps:
    def test_comb_sweep_beyond_1024_lanes(self):
        from repro.flow import build_circuit

        nl = build_circuit("converter", 5)
        lanes = 1500
        assert lanes > 1024
        idx = [i % 120 for i in range(lanes)]
        a = CombinationalSimulator(nl, backend="interp").run({"index": idx})
        b = CombinationalSimulator(nl, backend="vector").run({"index": idx})
        assert _ints(a) == _ints(b)

    def test_quantum_covers_at_least_1024_lanes(self):
        assert VECTOR_SWEEP_LANES >= 1024

    def test_full_quantum_single_sweep(self):
        """One sweep at the full 4096-lane quantum stays bit-exact."""
        from repro.flow import build_circuit

        nl = build_circuit("converter", 4)
        idx = [i % 24 for i in range(VECTOR_SWEEP_LANES)]
        a = CombinationalSimulator(nl, backend="interp").run({"index": idx})
        b = CombinationalSimulator(nl, backend="vector").run({"index": idx})
        assert _ints(a) == _ints(b)

    def test_batch_entry_lazy_and_materialized(self):
        from repro.flow import build_circuit

        nl = build_circuit("converter", 5)
        idx = np.arange(1200) % 120
        ec = BatchEntry(nl, backend="interp")
        ev = BatchEntry(nl, backend="vector")
        assert ev.engine.name == "vector"
        a = ec.run({"index": idx})
        lazy = ev.run({"index": idx}, materialize=False)
        full = ev.run({"index": idx})
        assert _ints(a) == _ints(dict(lazy)) == _ints(full)

    def test_run_stream_held_input_pipeline(self):
        from repro.flow import build_circuit

        nl = build_circuit("converter", 4, pipelined=True)
        idx = np.arange(1100, dtype=np.int64) % 24
        stream = [{"index": idx}] * 7
        sc = SequentialSimulator(nl, batch=1100, backend="interp")
        sv = SequentialSimulator(nl, batch=1100, backend="vector")
        ref = sc.run_stream(stream)
        lazy = sv.run_stream(stream, materialize=False)
        for a, b in zip(ref, lazy):
            assert _ints(a) == _ints(b)

    def test_wide_packed_plan_one_sweep(self):
        """A whole fault campaign's worth of lanes in one vector sweep."""
        from repro.flow import build_circuit
        from repro.robustness.faults import stuck_fault_sites

        nl = build_circuit("converter", 4)
        idx = list(range(24))
        sites = stuck_fault_sites(nl)[:60]
        T, slots = len(idx), len(sites) + 1
        lanes = slots * T
        assert lanes > 1024
        plan = PackedFaultPlan(lanes)
        for s, f in enumerate(sites, start=1):
            plan.stick(f.wire, f.value, slice(s * T, (s + 1) * T))
        a = CombinationalSimulator(nl, backend="interp").run(
            {"index": idx * slots}, overlay=plan
        )
        b = CombinationalSimulator(nl, backend="vector").run(
            {"index": idx * slots}, overlay=plan
        )
        assert _ints(a) == _ints(b)

    @pytest.mark.parametrize("n", [21, 22])
    def test_stream_block_past_64_bit_indices(self, n):
        """A stream block of indices wider than 64 bits unranks exactly."""
        from repro.core.converter import IndexToPermutationConverter
        from repro.core.factorial import factorial
        from repro.core.lehmer import rank

        limit = factorial(n)
        rng = random.Random(n)
        block = [1 << 64, limit - 1] + [rng.randrange(limit) for _ in range(62)]
        entry = BatchEntry(
            IndexToPermutationConverter(n).build_netlist(), backend="vector"
        )
        (outs,) = entry.run_stream([{"index": block}])
        rows = zip(*(outs[f"out{t}"] for t in range(n)))
        assert [rank([int(v) for v in row]) for row in rows] == block

    def test_plan_lane_mismatch_rejected(self):
        from repro.flow import build_circuit

        nl = build_circuit("converter", 3)
        plan = PackedFaultPlan(12)
        plan.stick(10, True, [1])
        with pytest.raises(ValueError, match="lanes"):
            CombinationalSimulator(nl, backend="vector").run(
                {"index": list(range(6))}, overlay=plan
            )
