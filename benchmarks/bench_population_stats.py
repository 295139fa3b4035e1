"""Population-scale streaming validation throughput (perms/s per engine).

The campaign layer's claim is that statistical validation over 10⁸+
permutations is engine-bound, not analysis-bound: the mergeable
accumulators fold each block in O(block) and the simulation backends
feed them at their native sweep rates.  This bench streams the same
deterministic campaign through ``interp`` and ``compiled``, records
perms/s for each, and asserts that every engine name — ``vector``
included — produces the **bit-identical** accumulator state (the
invariance the checkpoint/resume contract rests on).

Throughput is gated through the bench-history ledger, not here: CI
holds ``data.engines.compiled.perms_per_s`` to a floor with the
``repro.obs.bench`` regression gate.  The full run streams a 2²⁰-lane
block, the width a 10⁸-permutation campaign would configure; smoke
mode (``REPRO_BENCH_SMOKE=1``, used by CI) shrinks the campaign.
"""

import os
import time

from conftest import write_report

from repro.analysis.stream import CampaignConfig, PopulationStats, stream_blocks

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
N = 6 if SMOKE else 8
# Smoke runs still stream enough blocks, best of three, for compiled
# perms/s to hold CI's ledger floor: single 8192-sample runs spread
# 1.1-2.4 M perms/s on a shared 2-core x86-64 host.
SAMPLES = 65_536 if SMOKE else 3_145_728
BLOCK = 2_048 if SMOKE else 1_048_576
TRIALS = 3
ENGINES = ("interp", "compiled")
# interp walks the gate list per cycle — cap its share of the campaign
INTERP_SAMPLES = min(SAMPLES, 8_192)


def _campaign(engine: str, samples: int) -> tuple[float, PopulationStats]:
    cfg = CampaignConfig(
        n=N, samples=samples, block=BLOCK, engine=engine, source="lfsr"
    ).validated()
    stats = PopulationStats.fresh(cfg)
    t0 = time.perf_counter()
    for perms in stream_blocks(cfg, range(cfg.total_blocks)):
        stats.update(perms)
    return time.perf_counter() - t0, stats


def test_population_stats_throughput(benchmark, results_dir):
    # warm each backend's kernel/entry cache out of the timed region
    for engine in ENGINES:
        _campaign(engine, BLOCK)

    wall: dict[str, float] = {}
    states: dict[str, dict] = {}
    rates: dict[str, float] = {}
    for engine in ENGINES:
        samples = INTERP_SAMPLES if engine == "interp" else SAMPLES
        best = None
        for _ in range(TRIALS):
            wall_s, stats = _campaign(engine, samples)
            if best is None or wall_s < best:
                best = wall_s
        wall[engine] = best
        rates[engine] = stats.samples / best
        states[engine] = stats.state_dict()

    # engine invariance on the common prefix: rerun the interp-sized
    # campaign under the packed engine names and require identical state
    for engine in ("compiled", "vector"):
        _, prefix = _campaign(engine, INTERP_SAMPLES)
        assert prefix.state_dict() == states["interp"], engine

    benchmark(lambda: _campaign("compiled", SAMPLES // 4))

    lines = [
        f"Population validation throughput (n={N}, lfsr source, "
        f"block={BLOCK})",
        f"{'engine':<10} {'samples':>10} {'wall s':>9} {'perms/s':>12}",
    ]
    for engine in ENGINES:
        samples = INTERP_SAMPLES if engine == "interp" else SAMPLES
        lines.append(
            f"{engine:<10} {samples:>10,} {wall[engine]:>9.3f} "
            f"{rates[engine]:>12,.0f}"
        )
    lines.append("(accumulator state bit-identical across interp, compiled, vector)")
    text = "\n".join(lines)
    print("\n" + text)

    write_report(
        results_dir,
        "population_stats",
        text,
        data={
            "n": N,
            "block": BLOCK,
            "smoke": SMOKE,
            "engines": {
                engine: {
                    "samples": INTERP_SAMPLES if engine == "interp" else SAMPLES,
                    "wall_s": wall[engine],
                    "perms_per_s": rates[engine],
                }
                for engine in ENGINES
            },
            "state_bit_identical": True,
        },
        benchmark=benchmark,
    )
