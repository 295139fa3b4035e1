"""Workload ``validate``: back-to-back population campaigns on the CLI defaults.

Each campaign is ``run_population_campaign`` with the ``repro validate``
defaults — 10⁶ samples, n = 8, lfsr source, m = 31, engine ``vector``,
block 4096, 4093 buckets, 4096 battery draws — and its own seed, drawn
from the run's seed.  It runs with ``workers=1`` in one shard: the
CLI's default starts a one-worker process pool for a single shard, and
inline execution keeps the campaign on this process, where the traced
run can see it.  Campaigns run one after another until ``--seconds``
have passed; each is preceded by :func:`harness.calibrate`, and its time
at nominal host speed is one latency sample.  Every campaign's
accumulator-state digest and verdict must equal those of the same
config on the ``compiled`` engine, run right after it off the clock;
the run prints how many verdicts passed and a digest of the digests.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import replace

import numpy as np

import harness

#: ``repro validate``'s default sample count.
SAMPLES = 1_000_000
#: Share of ``--seconds`` spent on campaigns; each measured campaign is
#: followed by its reference campaign, which takes about as long.
SHARE = 0.9
#: Share of ``--seconds`` a traced run spends on traced campaigns; the
#: untraced campaigns for ``trace.overhead_x`` and the references follow.
TRACED_SHARE = 0.3


def config(seed: int):
    from repro.analysis.stream import CampaignConfig

    return CampaignConfig(
        n=8, samples=SAMPLES, seed=seed, source="lfsr",
        engine="vector", m=31, block=4096, buckets=4093,
    )


def campaign_seeds(seed: int):
    """The run's campaign seeds; the ``k``-th depends on ``seed`` alone."""
    rng = np.random.default_rng([seed, 6])
    while True:
        yield int(rng.integers(1, 1 << 31))


def digest(result) -> str:
    state = json.dumps(result.stats.state_dict(), sort_keys=True)
    return hashlib.sha256(state.encode()).hexdigest()[:16]


def campaign(cfg):
    """Run one campaign → (result, seconds at nominal host speed)."""
    from repro.analysis.stream import run_population_campaign

    return harness.calibrated(
        run_population_campaign, cfg, shards=1, workers=1, battery_draws=4096
    )


def reference(cfg):
    """The same campaign on the ``compiled`` engine."""
    from repro.analysis.stream import run_population_campaign

    return run_population_campaign(
        replace(cfg, engine="compiled"), shards=1, workers=1, battery_draws=4096
    )


def checked(cfg, res) -> tuple[str, bool, bool]:
    """The campaign's digest, whether its verdict passed, and whether
    digest and verdict equal those of its :func:`reference`.

    A failed verdict is an outcome of the campaign's seed, not a wrong
    result: with per-campaign seeds the battery gate fails about one
    campaign in eighty, on every engine alike.
    """
    got = digest(res)
    ref = reference(cfg)
    ok = got == digest(ref) and res.verdict == ref.verdict
    return got, bool(res.verdict["passed"]), ok


def probe(seed: int) -> None:
    """Set-up probe: the first block of a campaign, streamed and checked.

    The block must hold permutations only, equal to the same block
    streamed through the ``compiled`` engine.
    """
    from repro.analysis.stream import stream_blocks

    cfg = config(seed)
    perms = next(stream_blocks(cfg, [0]))
    ref = next(stream_blocks(replace(cfg, engine="compiled"), [0]))
    if not (harness.valid_rows(perms).all() and (perms == ref).all()):
        raise RuntimeError("set-up probe streamed a wrong block")
    print("READY", flush=True)


def run(args, result: harness.Result) -> None:
    harness.pin()
    seeds = campaign_seeds(args.seed)
    share = TRACED_SHARE if args.trace else SHARE
    until = time.perf_counter() + share * args.seconds
    rec = None
    if args.trace:
        from spans import Recorder

        rec = Recorder()
        rec.install()
    times, checks, traced = [], [], []
    while not times or time.perf_counter() < until:
        cfg = config(next(seeds))
        res, seconds = campaign(cfg)
        times.append(seconds)
        if rec is None:
            checks.append(checked(cfg, res))
        else:
            traced.append((cfg, res))
    if rec is not None:
        rec.uninstall()
        checks = [checked(cfg, res) for cfg, res in traced]
        again = campaign_seeds(args.seed)
        base = [campaign(config(next(again)))[1] for _ in times]

    bad = sum(not ok for _, _, ok in checks)
    result.attempted = SAMPLES * len(checks)
    result.failed = SAMPLES * bad
    result.incorrect = bad
    run_digest = hashlib.sha256(" ".join(d for d, _, _ in checks).encode()).hexdigest()[:16]
    typical = harness.median(times)
    result.note(
        f"validate      {len(checks)} campaigns: {sum(p for _, p, _ in checks)} PASS, "
        f"{len(checks) - bad} with the compiled engine's digest and verdict; "
        f"run digest {run_digest}"
    )
    result.note(
        f"validate      campaign of {SAMPLES} perms at nominal host speed: "
        f"p50 {typical * 1e3:.3f} ms (n={len(times)}) -> {SAMPLES / typical:,.0f} perms/s"
    )
    if len(times) >= 11:
        pct, val, n = harness.tail(times)
        result.note(f"validate      campaign p{pct:.2f} {val * 1e3:.3f} ms (n={n})")

    if rec is None:
        setup = harness.time_setup_probes("validate", args.seed)
        result.note(f"validate setup {[round(s, 3) for s in setup]} s")
        result.metric("setup_s", harness.median(setup), "s")
        result.metric("items_per_s", SAMPLES / typical, "1/s")
        result.metric("latency_ms", typical * 1e3, "ms")
        result.metric("ok_share", 1.0 - result.failed / result.attempted, "ratio")
        result.metric("peak_rss_mb", harness.peak_rss_self_mb(), "MB")
        return

    from layers import layer_metrics
    from spans import save, summarise

    save(rec, f"{harness.ROOT}/.perfbench/trace-validate.npz")
    extra = {
        "trace.overhead_x": harness.median(base) / typical,
        "error_rate": result.failed / result.attempted,
    }
    for name, (value, unit) in layer_metrics(
        summarise(rec), SAMPLES * len(times), extra
    ).items():
        result.metric(name, value, unit)
