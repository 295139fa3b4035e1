"""Per-layer metrics of a traced run, computed from span summaries.

Times ending ``_s`` are seconds of span time per item the traced phases
delivered (a permutation, or a classified fault site), so they compare
across commits whatever the throughput; ``service.queue_wait_s`` is a
mean per admitted request and ``gc.pause_s`` a total.  Counts are totals
over the traced run.  Which end-to-end metric each layer metric should
move, and on which workload, is in ``LAYERS.md``.
"""

from __future__ import annotations

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("service.submit_s", "s/item", "lower"),
    ("service.queue_wait_s", "s", "lower"),
    ("service.respond_s", "s/item", "lower"),
    ("batcher.lanes_per_sweep", "lanes", "higher"),
    ("batcher.deadline_share", "ratio", "lower"),
    ("cache.lookups", "count", "higher"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("supervisor.execute_s", "s/item", "lower"),
    ("supervisor.handoff_s", "s/item", "lower"),
    ("supervisor.restarts", "count", "lower"),
    ("supervisor.fallbacks", "count", "lower"),
    ("engine.sweeps", "count", "lower"),
    ("engine.run_s", "s/item", "lower"),
    ("engine.unpack_s", "s/item", "lower"),
    ("kernel.s", "s/item", "lower"),
    ("kernel.lanes", "count", "lower"),
    ("check.calls", "count", "lower"),
    ("check.s", "s/item", "lower"),
    ("rng.s", "s/item", "lower"),
    ("lehmer.s", "s/item", "lower"),
    ("net.decode_s", "s/item", "lower"),
    ("net.encode_s", "s/item", "lower"),
    ("net.frames", "count", "higher"),
    ("net.bytes", "count", "higher"),
    ("pool.execute_s", "s/item", "lower"),
    ("pool.sheds", "count", "lower"),
    ("pool.queue_depth_max", "count", "lower"),
    ("pool.restarts", "count", "lower"),
    ("pool.worker_hit_ratio", "ratio", "higher"),
    ("stream.blocks", "count", "higher"),
    ("stream.rank_buckets_s", "s/item", "lower"),
    ("stream.fixed_points_s", "s/item", "lower"),
    ("stream.serial_s", "s/item", "lower"),
    ("stream.first_element_s", "s/item", "lower"),
    ("stream.unpack_s", "s/item", "lower"),
    ("stream.verdict_s", "s/item", "lower"),
    ("netlist.builds", "count", "lower"),
    ("netlist.build_s", "s/item", "lower"),
    ("passes.s", "s/item", "lower"),
    ("compile.kernels", "count", "lower"),
    ("compile.s", "s/item", "lower"),
    ("campaign.sweeps", "count", "lower"),
    ("campaign.faults_per_sweep", "faults/sweep", "higher"),
    ("interp.s", "s/item", "lower"),
    ("gc.pause_s", "s", "lower"),
    ("gc.gen2", "count", "lower"),
    ("loadgen.late_p99_ms", "ms", "lower"),
    ("trace.overhead_x", "ratio", "higher"),
    ("trace.items", "count", "higher"),
    ("error_rate", "ratio", "lower"),
)


def layer_metrics(summary: dict, items: int, extra: dict) -> dict[str, tuple[float, str]]:
    """Every per-layer metric for one traced run.

    ``extra`` supplies what spans cannot: values read from the program's
    ``stats()`` (restarts, fallbacks, pool counters), campaign results,
    generator lateness, the overhead ratio and the error rate.  A layer
    the workload never enters reads 0.
    """
    own, incl, counts = summary["self"], summary["incl"], summary["counts"]
    per = 1.0 / max(1, items)
    batches = sum(counts.get(f"batches.{k}", 0.0) for k in ("full", "deadline", "drain"))
    lookups = counts.get("cache.lookups", 0.0)
    waits = counts.get("queue_wait_n", 0.0)
    values = {
        "service.submit_s": own["service.submit"] * per,
        "service.queue_wait_s": counts.get("queue_wait_sum", 0.0) / waits if waits else 0.0,
        "service.respond_s": own["service.respond"] * per,
        "batcher.lanes_per_sweep": counts.get("batch_lanes", 0.0) / batches if batches else 0.0,
        "batcher.deadline_share": (
            counts.get("batches.deadline", 0.0) / batches if batches else 0.0
        ),
        "cache.lookups": lookups,
        "cache.hit_ratio": counts.get("cache.hits", 0.0) / lookups if lookups else 0.0,
        "supervisor.execute_s": incl["supervisor.execute"] * per,
        "supervisor.handoff_s": own["supervisor.execute"] * per,
        "engine.sweeps": counts.get("engine.sweeps", 0.0),
        "engine.run_s": (incl["engine.converter"] + incl["engine.other"]) * per,
        "engine.unpack_s": own["engine.converter"] * per,
        "kernel.s": incl["kernel"] * per,
        "kernel.lanes": counts.get("kernel.lanes", 0.0),
        "check.calls": counts.get("check.calls", 0.0),
        "check.s": incl["check"] * per,
        "rng.s": own["rng"] * per,
        "lehmer.s": own["lehmer"] * per,
        "net.decode_s": own["net.decode"] * per,
        "net.encode_s": own["net.encode"] * per,
        "net.frames": counts.get("net.frames", 0.0),
        "net.bytes": counts.get("net.bytes", 0.0),
        "pool.execute_s": incl["pool.execute"] * per,
        "pool.sheds": counts.get("pool.sheds", 0.0),
        "pool.queue_depth_max": summary["maxima"].get("pool.in_flight", 0.0),
        "stream.blocks": counts.get("stream.blocks", 0.0),
        "stream.rank_buckets_s": incl["stream.rank_buckets"] * per,
        "stream.fixed_points_s": incl["stream.fixed_points"] * per,
        "stream.serial_s": incl["stream.serial"] * per,
        "stream.first_element_s": incl["stream.first_element"] * per,
        "stream.unpack_s": own["stream.blocks"] * per,
        "stream.verdict_s": incl["stream.verdict"] * per,
        "netlist.builds": counts.get("netlist.builds", 0.0),
        "netlist.build_s": incl["netlist.build"] * per,
        "passes.s": incl["passes"] * per,
        "compile.kernels": counts.get("compile.kernels", 0.0),
        "compile.s": incl["compile"] * per,
        "interp.s": incl["interp"] * per,
        "gc.pause_s": summary["gc_pause_s"],
        "gc.gen2": float(summary["gc_gen2"]),
        "trace.items": float(items),
        "supervisor.restarts": 0.0,
        "supervisor.fallbacks": 0.0,
        "pool.restarts": 0.0,
        "pool.worker_hit_ratio": 0.0,
        "campaign.sweeps": 0.0,
        "campaign.faults_per_sweep": 0.0,
        "loadgen.late_p99_ms": 0.0,
    }
    values.update(extra)
    missing = {name for name, _, _ in PER_LAYER} - set(values)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: (float(values[name]), unit) for name, unit, _ in PER_LAYER}
