"""Engine shoot-out: compiled bigints vs the interpreter.

Two claims the compiled engine makes (DESIGN.md §8), each asserted here
with the bit-identity guarantee that makes the speed worth trusting:

1. a pipelined batch sweep — every index of the n=8 converter pushed
   through the gate-level pipeline in one packed batch — runs ≥ 20×
   faster compiled than interpreted, with bit-identical outputs that
   also match the stage-accurate functional model;
2. an exhaustive stuck-at campaign runs ≥ 10× faster end to end under
   the fault-parallel compiled path than one-fault-per-run
   interpretation, with identical classification counts and examples —
   and identical again at the ``vector`` backend's 4096-lane quantum
   (the same compiled kernel, wider sweeps).

Smoke mode (``REPRO_BENCH_SMOKE=1``, used by CI) shrinks to n=6 and
only requires the compiled engine not to lose: the container running CI
is too noisy for ratio thresholds, but identity must still hold.
"""

import os
import time

import numpy as np

from conftest import cold_campaign, write_report

from repro.core.converter import IndexToPermutationConverter
from repro.hdl import SequentialSimulator
from repro.robustness.campaign import CampaignSpec, fault_list

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
N = 6 if SMOKE else 8
TRIALS = 1 if SMOKE else 3
MIN_SWEEP_SPEEDUP = 1.0 if SMOKE else 20.0
MIN_CAMPAIGN_SPEEDUP = 1.0 if SMOKE else 10.0


def _sweep(nl, stream, batch, backend, materialize):
    """One full pipeline sweep; returns (wall seconds, final-cycle words)."""
    sim = SequentialSimulator(nl, batch=batch, backend=backend)
    t0 = time.perf_counter()
    outs = sim.run_stream(stream, materialize=materialize)
    final = {name: np.asarray(vals) for name, vals in outs[-1].items()}
    return time.perf_counter() - t0, final


def test_engine_speedup_and_identity(benchmark, results_dir):
    conv = IndexToPermutationConverter(N)
    nl = conv.build_netlist(pipelined=True)
    batch = conv.index_limit
    indices = np.arange(batch, dtype=np.int64)
    # fill the pipeline with the held batch, plus one cycle so the last
    # mapping read is genuine steady-state output
    cycles = conv.pipeline_register_stages + 1
    stream = [{"index": indices}] * cycles

    # -- pipelined batch sweep ------------------------------------------ #
    _sweep(nl, stream, batch, "compiled", False)  # warm the kernel cache
    interp_s, interp_out = min(
        (_sweep(nl, stream, batch, "interp", True) for _ in range(TRIALS)),
        key=lambda r: r[0],
    )
    compiled_s, compiled_out = min(
        (_sweep(nl, stream, batch, "compiled", False) for _ in range(TRIALS)),
        key=lambda r: r[0],
    )
    benchmark.pedantic(
        lambda: _sweep(nl, stream, batch, "compiled", False),
        rounds=1,
        iterations=1,
    )

    assert interp_out.keys() == compiled_out.keys()
    for name in interp_out:
        assert np.array_equal(interp_out[name], compiled_out[name]), name
    golden = conv.convert_batch(indices)
    for pos in range(N):
        assert np.array_equal(compiled_out[f"out{pos}"], golden[:, pos])

    sweep_speedup = interp_s / compiled_s
    assert sweep_speedup >= MIN_SWEEP_SPEEDUP, (
        f"sweep speedup {sweep_speedup:.1f}x below {MIN_SWEEP_SPEEDUP}x "
        f"(interp {interp_s * 1e3:.1f}ms, compiled {compiled_s * 1e3:.1f}ms)"
    )

    # -- exhaustive stuck-at campaign ----------------------------------- #
    spec = CampaignSpec(circuit="converter", n=N, model="stuck")
    faults = len(fault_list(spec))
    res_i = cold_campaign(CampaignSpec(circuit="converter", n=N, model="stuck", engine="interp"))
    res_c = cold_campaign(CampaignSpec(circuit="converter", n=N, model="stuck", engine="compiled"))
    res_v = cold_campaign(CampaignSpec(circuit="converter", n=N, model="stuck", engine="vector"))
    counts_i = (res_i.benign, res_i.detected, res_i.silent)
    counts_c = (res_c.benign, res_c.detected, res_c.silent)
    counts_v = (res_v.benign, res_v.detected, res_v.silent)
    assert counts_i == counts_c == counts_v
    assert res_i.examples == res_c.examples == res_v.examples
    assert res_i.total == res_c.total == res_v.total == faults

    campaign_speedup = res_i.wall_s / res_c.wall_s
    assert campaign_speedup >= MIN_CAMPAIGN_SPEEDUP, (
        f"campaign speedup {campaign_speedup:.1f}x below "
        f"{MIN_CAMPAIGN_SPEEDUP}x ({res_i.wall_s:.2f}s vs {res_c.wall_s:.2f}s)"
    )

    write_report(
        results_dir,
        "sim_engines",
        f"Simulation engines: interpreter vs compiled bigints "
        f"(converter n={N}, pipelined)\n"
        f"batch sweep ({batch} lanes x {cycles} cycles):\n"
        f"  interp   : {interp_s * 1e3:9.1f} ms\n"
        f"  compiled : {compiled_s * 1e3:9.1f} ms   "
        f"({sweep_speedup:.1f}x, bit-identical, matches functional model)\n"
        f"exhaustive stuck-at campaign ({faults} faults):\n"
        f"  interp   : {res_i.wall_s:9.2f} s   ({res_i.sweeps} sweeps)\n"
        f"  compiled : {res_c.wall_s:9.2f} s   ({res_c.sweeps} sweeps, "
        f"{campaign_speedup:.1f}x, identical classification)\n"
        f"  vector   : {res_v.wall_s:9.2f} s   ({res_v.sweeps} sweeps, "
        f"identical classification)\n\n"
        + res_c.render(),
        benchmark=benchmark,
        data={
            "n": N,
            "smoke": SMOKE,
            "batch": batch,
            "cycles": cycles,
            "sweep_interp_s": interp_s,
            "sweep_compiled_s": compiled_s,
            "sweep_speedup_x": sweep_speedup,
            "campaign_faults": faults,
            "campaign_interp_s": res_i.wall_s,
            "campaign_compiled_s": res_c.wall_s,
            "campaign_vector_s": res_v.wall_s,
            "campaign_sweeps_compiled": res_c.sweeps,
            "campaign_sweeps_vector": res_v.sweeps,
            "campaign_speedup_x": campaign_speedup,
            "campaign_counts": {
                "benign": res_c.benign,
                "detected": res_c.detected,
                "silent": res_c.silent,
            },
        },
    )
