"""Workload ``faults``: distinct fault campaigns, each in a fresh process.

The spec list below runs in a seeded order, ``passes`` times per run,
every campaign in its own process (``fault_child.py``) so that no cache
carried across campaigns can flatter the program.  Netlist build, the
pass pipeline, kernel compile and fault-parallel patchable sweeps run
only here; the bridging campaign takes the interpreter-overlay path.
Each launch is timed between two :func:`harness.calibrate` loops, and
the gated metrics take each campaign's median over the passes at
nominal host speed; the raw pooled rate is printed beside them.
Class counts are exact results: the five exhaustive campaigns must match
``reference_faults.json`` (made by ``make_reference.py`` on the
``interp`` engine), and the seeded bridging sample must match the same
campaign rerun here on the ``interp`` engine.
"""

from __future__ import annotations

import json
import os

import numpy as np

import harness

#: (label, CampaignSpec fields); the bridging seed comes from the run seed.
SPECS = (
    ("converter-8-stuck", {"circuit": "converter", "n": 8, "model": "stuck"}),
    ("converter-8-stuck-optimized",
     {"circuit": "converter", "n": 8, "model": "stuck", "optimized": True}),
    ("converter-9-stuck", {"circuit": "converter", "n": 9, "model": "stuck"}),
    ("shuffle-8-stuck", {"circuit": "shuffle", "n": 8, "model": "stuck"}),
    ("converter-8-seu", {"circuit": "converter", "n": 8, "model": "seu"}),
    ("converter-7-bridge", {"circuit": "converter", "n": 7, "model": "bridge",
                            "samples": 300}),
)
#: The campaign whose spawn-to-result time is ``setup_s``.
SETUP_SPEC = "converter-8-stuck"
SECONDS_PER_PASS = 8.0
REFERENCE = os.path.join(harness.HERE, "reference_faults.json")


def spec_fields(label: str, seed: int) -> dict:
    fields = dict(dict(SPECS)[label])
    if fields["model"] == "bridge":
        fields["seed"] = seed
    return fields


def launch(fields: dict, trace: bool) -> tuple[dict, float]:
    """Run one campaign in a fresh process → (its result, spawn-to-result
    seconds at nominal host speed).

    The result also carries the campaign time at nominal host speed,
    ``wall_nominal_s``.
    """
    before = harness.calibrate()
    line, elapsed = harness.spawn_first_line(
        [os.path.join(harness.HERE, "fault_child.py"), json.dumps(fields),
         "1" if trace else "0"]
    )
    cal = (before + harness.calibrate()) / 2
    if not line.startswith("RESULT "):
        raise RuntimeError(f"fault campaign {fields} failed: {line!r}")
    out = json.loads(line[len("RESULT "):])
    out["wall_nominal_s"] = harness.at_nominal(out["wall_s"], cal)
    return out, harness.at_nominal(elapsed, cal)


def reference_counts(seed: int) -> dict[str, list[int]]:
    """Expected class counts: the stored interp results plus a fresh
    interp run of the seeded bridging sample."""
    from repro.robustness.campaign import CampaignSpec, run_campaign

    with open(REFERENCE) as fh:
        counts = dict(json.load(fh)["counts"])
    bridge = run_campaign(
        CampaignSpec(**spec_fields("converter-7-bridge", seed), engine="interp")
    )
    counts["converter-7-bridge"] = [bridge.benign, bridge.detected, bridge.silent]
    return counts


def run_passes(seed: int, passes: int, trace: bool) -> list[tuple[str, dict, float]]:
    """Every spec once per pass, in a seeded order; pass ``p`` is
    ``runs[p * len(SPECS) : (p + 1) * len(SPECS)]``."""
    rng = np.random.default_rng([seed, 5])
    runs = []
    for _ in range(passes):
        for k in rng.permutation(len(SPECS)):
            label = SPECS[int(k)][0]
            out, elapsed = launch(spec_fields(label, seed), trace)
            runs.append((label, out, elapsed))
    return runs


def run(args, result: harness.Result) -> None:
    harness.pin()
    passes = max(1, round(args.seconds / SECONDS_PER_PASS))
    runs = run_passes(args.seed, passes, bool(args.trace))
    if args.trace:
        base = run_passes(args.seed, passes, False)
    want = reference_counts(args.seed)

    sites = wall = 0.0
    shard_s: list[float] = []
    mismatched = 0
    for label, out, elapsed in runs:
        sites += out["total"]
        wall += out["wall_s"]
        shard_s.extend(out["shard_s"])
        if out["counts"] != want[label]:
            mismatched += out["total"]
            result.incorrect += 1
    for label, _ in SPECS:
        seen = sorted({tuple(out["counts"]) for lab, out, _ in runs if lab == label})
        result.note(
            f"faults {label:<28} benign/detected/silent {seen} "
            f"(reference {tuple(want[label])})"
        )
    throughput = sites / wall
    # a pass at nominal host speed: each campaign at its median over passes
    pass_wall = pass_s = 0.0
    for label, _ in SPECS:
        pass_wall += harness.median([o["wall_nominal_s"] for lab, o, _ in runs if lab == label])
        pass_s += harness.median([e for lab, _, e in runs if lab == label])
    nominal_throughput = sites / passes / pass_wall
    p99_pct, p99_val, n = harness.tail(shard_s)
    result.note(
        f"faults        {int(sites)} sites in {wall:.3f}s campaign time "
        f"({len(runs)} campaigns) -> {throughput:,.0f} faults/s; "
        f"at nominal host speed {nominal_throughput:,.0f} faults/s"
    )
    result.note(
        f"faults        pass (six fresh processes) at nominal host speed {pass_s:.3f} s "
        f"(each campaign's median of {passes}); shard p50 "
        f"{harness.median(shard_s) * 1e3:.3f} ms, "
        f"p{p99_pct:.2f} {p99_val * 1e3:.3f} ms (n={n})"
    )
    result.attempted = int(sites)
    result.failed = int(mismatched)
    error_rate = mismatched / sites

    if not args.trace:
        setup = [e for label, _, e in runs if label == SETUP_SPEC]
        while len(setup) < harness.SETUP_PROBES:
            setup.append(launch(spec_fields(SETUP_SPEC, args.seed), False)[1])
        result.note(f"faults setup  {[round(s, 3) for s in setup]} s")
        result.metric("setup_s", harness.median(setup), "s")
        result.metric("items_per_s", nominal_throughput, "1/s")
        result.metric("latency_ms", pass_s * 1e3, "ms")
        result.metric("ok_share", 1.0 - error_rate, "ratio")
        result.metric("peak_rss_mb", max(out["peak_rss_mb"] for _, out, _ in runs), "MB")
        return

    from layers import layer_metrics
    from spans import merge

    summary = runs[0][1]["trace"]
    for _, out, _ in runs[1:]:
        summary = merge(summary, out["trace"])
    sweeps = sum(out["sweeps"] for _, out, _ in runs)
    def nominal_rate(runs):
        return sum(o["total"] for _, o, _ in runs) / sum(o["wall_nominal_s"] for _, o, _ in runs)

    extra = {
        "campaign.sweeps": sweeps,
        "campaign.faults_per_sweep": sites / sweeps,
        "trace.overhead_x": nominal_rate(runs) / nominal_rate(base),
        "error_rate": error_rate,
    }
    for name, (value, unit) in layer_metrics(summary, int(sites), extra).items():
        result.metric(name, value, unit)
