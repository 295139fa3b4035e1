"""Robustness extension: fault-campaign throughput and checked-mode overhead.

Three questions an operator asks before enabling the robustness layer:

1. how fast do campaigns run (faults simulated per second), i.e. what
   does a nightly exhaustive stuck-at sweep cost?
2. how much denser do sweeps pack at the ``vector`` backend's
   4096-lane quantum (the compiled kernel, wider sweeps) — faults per
   sweep versus the compiled 63-slot quantum, with the classification
   identity that makes the density trustworthy?
3. what does online checking cost per conversion — bijectivity alone,
   and with the rank∘unrank oracle — relative to the bare converter?
"""

import time

from conftest import cold_campaign, write_report

from repro.core.converter import IndexToPermutationConverter
from repro.robustness.campaign import CampaignSpec, fault_list
from repro.robustness.checkers import CheckedConverter

N_CAMPAIGN = 5
N_WIDE = 6
N_CHECKED = 8
BATCH = 2048
MIN_FAULTS_PER_SWEEP_RATIO = 8.0


def test_stuck_campaign_throughput(benchmark, results_dir):
    spec = CampaignSpec(circuit="converter", n=N_CAMPAIGN, model="stuck")
    total = len(fault_list(spec))

    def run():
        return cold_campaign(spec)

    t0 = time.perf_counter()
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    wall = time.perf_counter() - t0
    assert result.total == total
    assert result.benign + result.detected + result.silent == total
    # benchmark.stats is None under --benchmark-disable (smoke mode)
    elapsed = benchmark.stats["mean"] if benchmark.stats else wall
    throughput = total / elapsed
    write_report(
        results_dir,
        "fault_campaign",
        f"Fault-injection campaign throughput (converter n={N_CAMPAIGN}, "
        f"exhaustive stuck-at)\n"
        f"faults: {total}  time: {elapsed:.2f}s  "
        f"throughput: {throughput:.0f} faults/s\n\n" + result.render(),
        benchmark=benchmark,
        data={
            "n": N_CAMPAIGN,
            "model": "stuck",
            "faults": total,
            "elapsed_s": elapsed,
            "faults_per_second": throughput,
            "benign": result.benign,
            "detected": result.detected,
            "silent": result.silent,
        },
    )


def test_vector_campaign_faults_per_sweep(benchmark, results_dir):
    """The 4096-lane compiled quantum packs a campaign into one sweep.

    Sweep counts are deterministic (pure slot arithmetic, no timing), so
    the ≥ 8× density ratio and the classification identity hold on any
    machine, smoke mode included.
    """
    spec_c = CampaignSpec(
        circuit="converter", n=N_WIDE, model="stuck", engine="compiled"
    )
    spec_v = CampaignSpec(
        circuit="converter", n=N_WIDE, model="stuck", engine="vector"
    )
    total = len(fault_list(spec_c))
    res_c = cold_campaign(spec_c)

    def run():
        return cold_campaign(spec_v)

    res_v = benchmark.pedantic(run, rounds=1, iterations=1)

    assert (res_c.benign, res_c.detected, res_c.silent) == (
        res_v.benign,
        res_v.detected,
        res_v.silent,
    )
    assert res_c.examples == res_v.examples
    assert res_c.total == res_v.total == total

    per_sweep_c = total / res_c.sweeps
    per_sweep_v = total / res_v.sweeps
    ratio = per_sweep_v / per_sweep_c
    assert ratio >= MIN_FAULTS_PER_SWEEP_RATIO, (
        f"vector packs {per_sweep_v:.0f} faults/sweep vs compiled "
        f"{per_sweep_c:.0f} — {ratio:.1f}x, need "
        f"{MIN_FAULTS_PER_SWEEP_RATIO}x"
    )

    write_report(
        results_dir,
        "fault_campaign_vector",
        f"Wide-lane fault campaign (converter n={N_WIDE}, exhaustive "
        f"stuck-at, {total} faults)\n"
        f"  compiled : {res_c.sweeps:4d} sweeps  "
        f"({per_sweep_c:7.1f} faults/sweep)  {res_c.wall_s:.2f}s\n"
        f"  vector   : {res_v.sweeps:4d} sweeps  "
        f"({per_sweep_v:7.1f} faults/sweep)  {res_v.wall_s:.2f}s\n"
        f"  density  : {ratio:.1f}x, identical classification\n\n"
        + res_v.render(),
        benchmark=benchmark,
        data={
            "n": N_WIDE,
            "model": "stuck",
            "faults": total,
            "compiled_sweeps": res_c.sweeps,
            "vector_sweeps": res_v.sweeps,
            "compiled_faults_per_sweep": per_sweep_c,
            "vector_faults_per_sweep": per_sweep_v,
            "faults_per_sweep_ratio_x": ratio,
            "compiled_wall_s": res_c.wall_s,
            "vector_wall_s": res_v.wall_s,
            "benign": res_v.benign,
            "detected": res_v.detected,
            "silent": res_v.silent,
        },
    )


def test_checked_mode_overhead(benchmark, results_dir):
    conv = IndexToPermutationConverter(N_CHECKED)
    checked = CheckedConverter(conv)
    dual = CheckedConverter(conv, dual_rail=True)
    indices = list(range(BATCH))

    def timed(fn):
        t0 = time.perf_counter()
        for _ in range(5):
            fn(indices)
        return (time.perf_counter() - t0) / 5

    bare = timed(conv.convert_batch)
    plain = timed(checked.convert_batch)
    railed = timed(dual.convert_batch)

    def run():
        return checked.convert_batch(indices)

    benchmark.pedantic(run, rounds=3, iterations=1)
    overhead = plain / bare
    # checking is pure-python O(n·B) next to the vectorised datapath; keep
    # an alarm threshold so a regression (e.g. per-row netlist sim sneaking
    # in) fails loudly rather than silently eating throughput.
    assert overhead < 60.0
    write_report(
        results_dir,
        "checked_overhead",
        f"Checked-mode overhead (n={N_CHECKED}, batch={BATCH})\n"
        f"bare converter      : {1e6 * bare / BATCH:8.2f} us/perm\n"
        f"checked (oracle)    : {1e6 * plain / BATCH:8.2f} us/perm  "
        f"({plain / bare:.1f}x)\n"
        f"checked + dual rail : {1e6 * railed / BATCH:8.2f} us/perm  "
        f"({railed / bare:.1f}x)\n",
        benchmark=benchmark,
        data={
            "n": N_CHECKED,
            "batch": BATCH,
            "bare_us_per_perm": 1e6 * bare / BATCH,
            "checked_us_per_perm": 1e6 * plain / BATCH,
            "dual_rail_us_per_perm": 1e6 * railed / BATCH,
            "checked_overhead_x": plain / bare,
            "dual_rail_overhead_x": railed / bare,
        },
    )
