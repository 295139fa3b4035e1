"""The traced run: a span recorder and the wrappers that feed it.

Spans are recorded only around calls into the program's public
functions, by wrappers this module installs on the imported program
(:meth:`Recorder.install`) and removes again (:meth:`Recorder.uninstall`).
Each span holds a name, start, end, parent span and request id, in
preallocated arrays; nothing is computed while the workload runs.
At the end, :func:`self_times` turns them into per-name self and
inclusive time, where self time is a span's duration minus the part
of its interval that its children cover (children may nest and may
overlap each other).  Counts are taken at the same boundaries.

The same wrappers serve every process of a workload: the benchmark
process, the ``wire`` server child and each ``faults`` child.
"""

from __future__ import annotations

import gc
import itertools
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np

_now = time.perf_counter

#: Span names, in code order.  A span's name is stored as its index.
NAMES = (
    "service.submit",
    "service.respond",
    "supervisor.execute",
    "pool.execute",
    "engine.converter",  # ConverterEngine.run: kernel + read-back
    "engine.other",  # shuffle model / functional fallback
    "kernel",
    "interp",
    "check",
    "rng",
    "lehmer",
    "net.decode",
    "net.encode",
    "stream.blocks",
    "stream.rank_buckets",
    "stream.fixed_points",
    "stream.serial",
    "stream.first_element",
    "stream.verdict",
    "netlist.build",
    "passes",
    "compile",
)
CODE = {name: i for i, name in enumerate(NAMES)}

DEFAULT_CAPACITY = 1 << 21


class Recorder:
    """Keeps spans in memory; one per benchmark process."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = capacity
        self.code = np.zeros(capacity, dtype=np.int16)
        self.t0 = np.zeros(capacity, dtype=np.float64)
        self.t1 = np.zeros(capacity, dtype=np.float64)
        self.parent = np.full(capacity, -1, dtype=np.int64)
        self.rid = np.full(capacity, -1, dtype=np.int64)
        self.dropped = 0
        self._ids = itertools.count()
        self._tl = threading.local()
        self._lock = threading.Lock()
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.gc_pause_s = 0.0
        self.gc_gen2 = 0
        self._gc_started: float | None = None
        self._engine_parent: dict[int, int] = {}
        self._respond: dict[int, list] = {}
        self._undo: list = []
        self._size = 0

    # ------------------------------------------------------------------ #
    # recording

    def _stack(self) -> list:
        st = getattr(self._tl, "stack", None)
        if st is None:
            st = self._tl.stack = []
        return st

    def set_request(self, rid: int) -> None:
        """Tag spans opened on this thread with request id ``rid``.

        The ``serve`` load generator sets it before every submit; spans
        on threads that never set one (dispatcher, shard workers, the
        ``wire`` server) carry -1.
        """
        self._tl.rid = rid

    def open(self, code: int, parent: int | None = None) -> int:
        i = next(self._ids)
        st = self._stack()
        if i >= self.capacity:
            self.dropped += 1
            st.append(-1)
            return -1
        if parent is None:
            parent = st[-1] if st else -1
        self.code[i] = code
        self.parent[i] = parent
        self.rid[i] = getattr(self._tl, "rid", -1)
        st.append(i)
        self.t0[i] = _now()
        return i

    def close(self, i: int) -> None:
        t = _now()
        self._stack().pop()
        if i >= 0:
            self.t1[i] = t

    def record(self, code: int, t0: float, t1: float, parent: int) -> None:
        """A finished span whose interval was timed elsewhere."""
        i = next(self._ids)
        if i >= self.capacity:
            self.dropped += 1
            return
        self.code[i], self.t0[i], self.t1[i] = code, t0, t1
        self.parent[i] = parent
        self.rid[i] = getattr(self._tl, "rid", -1)

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    @property
    def size(self) -> int:
        """Spans recorded so far (valid once recording threads are idle)."""
        return self._size

    # ------------------------------------------------------------------ #
    # the respond interval: sweep return until the last done-callback

    def _note_sweep_return(self) -> None:
        st = self._stack()
        self._flush_respond()
        self._respond[threading.get_ident()] = [_now(), None, st[-1] if st else -1]

    def _note_callback(self) -> None:
        pending = self._respond.get(threading.get_ident())
        if pending is not None:
            pending[1] = _now()

    def _flush_respond(self, ident: int | None = None) -> None:
        pending = self._respond.pop(
            threading.get_ident() if ident is None else ident, None
        )
        if pending is not None and pending[1] is not None:
            self.record(CODE["service.respond"], pending[0], pending[1], pending[2])

    def finish(self) -> None:
        """Close open respond intervals and fix the span count.

        Call once the load has stopped and no thread records any more.
        """
        for ident in list(self._respond):
            self._flush_respond(ident)
        self._size = min(next(self._ids), self.capacity)

    # ------------------------------------------------------------------ #
    # garbage-collector pauses

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = _now()
        elif self._gc_started is not None:
            self.gc_pause_s += _now() - self._gc_started
            self._gc_started = None
            if info.get("generation") == 2:
                self.gc_gen2 += 1

    # ------------------------------------------------------------------ #
    # wrapper installation

    def install(self) -> None:
        """Wrap the program's layer boundaries (imports them first)."""
        _install(self)
        gc.callbacks.append(self._gc_callback)
        self._undo.append(lambda: gc.callbacks.remove(self._gc_callback))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._undo:
            self._undo.pop()()
        self.finish()

    def _set(self, owner, attr: str, value) -> None:
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, old))

    def _patch_everywhere(self, fn, wrapper) -> None:
        """Replace ``fn`` in every program module that holds a reference."""
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "") or ""
            if not name.startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapper)

    def span_function(self, fn, code: int, after=None):
        rec = self

        def wrapper(*args, **kwargs):
            i = rec.open(code)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(i)
            if after is not None:
                after(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_method(self, cls, attr: str, name: str, after=None) -> None:
        self._set(cls, attr, self.span_function(cls.__dict__[attr], CODE[name], after))

    def wrap_classmethod(self, cls, attr: str, name: str, after=None) -> None:
        fn = cls.__dict__[attr].__func__
        self._set(cls, attr, classmethod(self.span_function(fn, CODE[name], after)))

    def wrap_function(self, module, attr: str, name: str, after=None) -> None:
        fn = getattr(module, attr)
        self._patch_everywhere(fn, self.span_function(fn, CODE[name], after))


# --------------------------------------------------------------------- #
# the layer map: which public function opens which span


def preload() -> None:
    """Import every module the wrappers touch.

    Untraced runs call this too, before their timed work, so that the
    program's lazy imports land in set-up on both sides of the
    traced/untraced comparison.
    """
    import repro.analysis.stream  # noqa: F401
    import repro.flow  # noqa: F401 - loads the circuit builders
    import repro.hdl.passes  # noqa: F401
    import repro.hdl.vector  # noqa: F401 - registers the vector engine
    import repro.robustness.campaign  # noqa: F401
    import repro.serve  # noqa: F401
    import repro.serve.net.protocol  # noqa: F401


def _install(rec: Recorder) -> None:
    preload()
    import repro.analysis.stream as stream
    import repro.core.lehmer as lehmer
    import repro.hdl.compile as hcompile
    import repro.hdl.engine as hengine
    import repro.hdl.passes as passes
    import repro.robustness.checkers as checkers
    import repro.serve.net.protocol as wire
    from repro.core.converter import IndexToPermutationConverter
    from repro.core.knuth import KnuthShuffleCircuit
    from repro.errors import ServiceOverloadedError
    from repro.rng.lfsr import FibonacciLFSR
    from repro.rng.scaled import ScaledRandomInteger
    from repro.serve.batcher import MicroBatcher
    from repro.serve.cache import ResultCache
    from repro.serve.engine import ConverterEngine, ShuffleEngine
    from repro.serve.pool import WorkerPool
    from repro.serve.service import CompletionFuture, PermutationService
    from repro.serve.supervisor import (
        FunctionalConverterEngine,
        ShardWorker,
        SweepSupervisor,
    )

    # serve.service — submit, plus the respond interval and queue wait
    def _submit(fn):
        code = CODE["service.submit"]

        def submit(self, *args, **kwargs):
            i = rec.open(code)
            try:
                return fn(self, *args, **kwargs)
            finally:
                rec._flush_respond()  # a batch run inline has settled
                rec.close(i)

        return submit

    for attr in ("submit", "submit_wide"):
        rec._set(PermutationService, attr, _submit(PermutationService.__dict__[attr]))

    orig_add_cb = CompletionFuture.__dict__["add_done_callback"]

    def add_done_callback(self, fn):
        def timed(fut):
            rec._note_callback()
            try:
                resp = fut.result(timeout=0)
            except Exception:  # noqa: BLE001 - failures are the loadgen's to count
                resp = None
            if resp is not None and not resp.cached:
                rec.count("queue_wait_sum", resp.queued_s)
                rec.count("queue_wait_n")
            fn(fut)

        return orig_add_cb(self, timed)

    rec._set(CompletionFuture, "add_done_callback", add_done_callback)

    # serve.batcher — how sweeps close, and how full they are
    def _batches(kind):
        def after(args, kwargs, batches):
            if batches:
                rec.count(f"batches.{kind}", len(batches))
                rec.count("batch_lanes", sum(b.lanes for b in batches))

        return after

    for attr, kind in (("add", "full"), ("take_due", "deadline"), ("take_all", "drain")):
        fn = MicroBatcher.__dict__[attr]

        def counted(*args, _fn=fn, _after=_batches(kind), **kwargs):
            out = _fn(*args, **kwargs)
            _after(args, kwargs, out)
            return out

        rec._set(MicroBatcher, attr, counted)

    # serve.cache
    orig_get = ResultCache.__dict__["get"]

    def cache_get(self, key):
        value = orig_get(self, key)
        rec.count("cache.lookups")
        if value is not None:
            rec.count("cache.hits")
        return value

    rec._set(ResultCache, "get", cache_get)

    # serve.supervisor — execute on the caller, engine runs on the
    # shard worker thread are parented to the execute waiting on them
    def _sweep_returned(args, kwargs, out):
        rec._note_sweep_return()

    rec.wrap_method(SweepSupervisor, "execute", "supervisor.execute", _sweep_returned)
    orig_worker_run = ShardWorker.__dict__["run"]

    def worker_run(self, *args, **kwargs):
        st = rec._stack()
        rec._engine_parent[id(self.engine)] = st[-1] if st else -1
        return orig_worker_run(self, *args, **kwargs)

    rec._set(ShardWorker, "run", worker_run)

    def _engine_span(cls, name):
        fn = cls.__dict__["run"]
        code = CODE[name]

        def run(self, *args, **kwargs):
            parent = None if rec._stack() else rec._engine_parent.get(id(self))
            i = rec.open(code, parent)
            try:
                return fn(self, *args, **kwargs)
            finally:
                rec.close(i)
                rec.count("engine.sweeps")

        rec._set(cls, "run", run)

    _engine_span(ConverterEngine, "engine.converter")
    _engine_span(ShuffleEngine, "engine.other")
    _engine_span(FunctionalConverterEngine, "engine.other")

    # serve.pool — seen from the front process
    in_flight = [0]

    def pool_execute_wrapper(fn):
        def execute(self, *args, **kwargs):
            with rec._lock:
                in_flight[0] += 1
                if in_flight[0] > rec.maxima["pool.in_flight"]:
                    rec.maxima["pool.in_flight"] = in_flight[0]
            i = rec.open(CODE["pool.execute"])
            try:
                return fn(self, *args, **kwargs)
            finally:
                rec.close(i)
                with rec._lock:
                    in_flight[0] -= 1
                rec._note_sweep_return()

        return execute

    rec._set(WorkerPool, "execute", pool_execute_wrapper(WorkerPool.__dict__["execute"]))
    orig_gate = WorkerPool.__dict__["admission_gate"]

    def admission_gate(self, key):
        try:
            return orig_gate(self, key)
        except ServiceOverloadedError:
            rec.count("pool.sheds")
            raise

    rec._set(WorkerPool, "admission_gate", admission_gate)

    # hdl engines: every packed engine is the kernel, the interpreter
    # is its own layer
    # classmethod wrappers see (cls, sim_or_entry, seqs, batch, ...)
    def _lanes(args, kwargs, out):
        rec.count("kernel.lanes", args[3])

    def _seq_lanes(args, kwargs, out):
        rec.count("kernel.lanes", args[1].batch)

    for engine_name in hengine.engine_names():
        cls = hengine.get_engine(engine_name)
        span = "interp" if engine_name == "interp" else "kernel"
        for attr, after in (
            ("comb_run", _lanes),
            ("batch_run", _lanes),
            ("seq_step", _seq_lanes),
        ):
            if attr in cls.__dict__:
                rec.wrap_classmethod(cls, attr, span, after)

    # robustness.checkers
    def _checked(args, kwargs, out):
        rec.count("check.calls")

    rec.wrap_function(checkers, "check_served_batch", "check", _checked)

    # rng and core.lehmer
    rec.wrap_method(ScaledRandomInteger, "ints", "rng")
    rec.wrap_method(ScaledRandomInteger, "next_int", "rng")
    rec.wrap_method(FibonacciLFSR, "words", "rng")
    rec.wrap_function(lehmer, "lehmer_digit_batch", "lehmer")
    rec.wrap_function(lehmer, "rank_batch", "lehmer")

    # serve.net (server side)
    def _fed(args, kwargs, out):
        rec.count("net.bytes", len(args[1]))

    def _decoded(args, kwargs, out):
        rec.count("net.frames")

    def _encoded(args, kwargs, out):
        rec.count("net.bytes", len(out))

    rec.wrap_method(wire.FrameDecoder, "feed", "net.decode", _fed)
    rec.wrap_function(wire, "decode_request", "net.decode", _decoded)
    rec.wrap_function(wire, "encode_response", "net.encode", _encoded)

    # analysis.stream — stream_blocks is a generator: each step is a span
    blocks_fn = stream.stream_blocks
    code_blocks = CODE["stream.blocks"]

    def stream_blocks(*args, **kwargs):
        it = blocks_fn(*args, **kwargs)
        while True:
            i = rec.open(code_blocks)
            try:
                item = next(it)
            except StopIteration:
                rec.close(i)
                return
            except BaseException:
                rec.close(i)
                raise
            rec.close(i)
            rec.count("stream.blocks")
            yield item

    rec._patch_everywhere(blocks_fn, stream_blocks)
    for cls, name in (
        (stream.RankBucketAccumulator, "stream.rank_buckets"),
        (stream.FixedPointAccumulator, "stream.fixed_points"),
        (stream.SerialCorrelationAccumulator, "stream.serial"),
        (stream.FirstElementBiasAccumulator, "stream.first_element"),
    ):
        rec.wrap_method(cls, "update", name)
    rec.wrap_function(stream, "campaign_verdict", "stream.verdict")
    rec.wrap_function(stream, "battery_report", "stream.verdict")

    # faults path: netlist build, passes, kernel compile
    def _built(args, kwargs, out):
        rec.count("netlist.builds")

    rec.wrap_method(IndexToPermutationConverter, "build_netlist", "netlist.build", _built)
    rec.wrap_method(KnuthShuffleCircuit, "build_netlist", "netlist.build", _built)
    rec.wrap_method(passes.PassManager, "run", "passes")

    compile_fn = hcompile.compile_netlist
    code_compile = CODE["compile"]

    def compile_netlist(*args, **kwargs):
        misses = hcompile.kernel_cache_info()["misses"]
        t0 = _now()
        out = compile_fn(*args, **kwargs)
        t1 = _now()
        if hcompile.kernel_cache_info()["misses"] != misses:
            st = rec._stack()
            rec.record(code_compile, t0, t1, st[-1] if st else -1)
            rec.count("compile.kernels")
        return out

    rec._patch_everywhere(compile_fn, compile_netlist)


# --------------------------------------------------------------------- #
# analysis


def self_times(code, t0, t1, parent) -> tuple[np.ndarray, np.ndarray]:
    """Per-span ``(self, inclusive)`` seconds.

    A span's self time is its duration minus the length of the union
    of its children's intervals, each clipped to the parent's own
    interval — so overlapping children are not subtracted twice and a
    child that outlives its parent only counts inside it.
    """
    t0 = np.asarray(t0, dtype=np.float64)
    t1 = np.asarray(t1, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    incl = np.maximum(t1 - t0, 0.0)
    own = incl.copy()
    kids = np.nonzero(parent >= 0)[0]
    if kids.size:
        order = kids[np.argsort(parent[kids], kind="stable")]
        par = parent[order]
        bounds = np.nonzero(np.diff(par))[0] + 1
        for group in np.split(order, bounds):
            p = int(parent[group[0]])
            lo = np.maximum(t0[group], t0[p])
            hi = np.minimum(t1[group], t1[p])
            keep = hi > lo
            if not keep.any():
                continue
            lo, hi = lo[keep], hi[keep]
            idx = np.argsort(lo, kind="stable")
            lo, hi = lo[idx], hi[idx]
            covered = 0.0
            start, end = lo[0], hi[0]
            for a, b in zip(lo[1:], hi[1:]):
                if a > end:
                    covered += end - start
                    start, end = a, b
                elif b > end:
                    end = b
            covered += end - start
            own[p] = max(0.0, incl[p] - covered)
    return own, incl


def summarise(rec: Recorder) -> dict:
    """Per-name totals plus counts — the JSON a process reports."""
    n = rec.size
    own, incl = self_times(rec.code[:n], rec.t0[:n], rec.t1[:n], rec.parent[:n])
    codes = rec.code[:n]
    self_s = np.bincount(codes, weights=own, minlength=len(NAMES))
    incl_s = np.bincount(codes, weights=incl, minlength=len(NAMES))
    return {
        "self": {name: float(self_s[i]) for i, name in enumerate(NAMES)},
        "incl": {name: float(incl_s[i]) for i, name in enumerate(NAMES)},
        "counts": dict(rec.counts),
        "maxima": dict(rec.maxima),
        "gc_pause_s": rec.gc_pause_s,
        "gc_gen2": rec.gc_gen2,
        "spans": n,
        "dropped": rec.dropped,
    }


def merge(a: dict, b: dict) -> dict:
    """Sum two summaries (maxima take the larger)."""
    out = {
        "self": {k: a["self"][k] + b["self"][k] for k in a["self"]},
        "incl": {k: a["incl"][k] + b["incl"][k] for k in a["incl"]},
        "counts": dict(a["counts"]),
        "maxima": dict(a["maxima"]),
        "gc_pause_s": a["gc_pause_s"] + b["gc_pause_s"],
        "gc_gen2": a["gc_gen2"] + b["gc_gen2"],
        "spans": a["spans"] + b["spans"],
        "dropped": a["dropped"] + b["dropped"],
    }
    for k, v in b["counts"].items():
        out["counts"][k] = out["counts"].get(k, 0.0) + v
    for k, v in b["maxima"].items():
        out["maxima"][k] = max(out["maxima"].get(k, 0.0), v)
    return out


def save(rec: Recorder, path: str) -> None:
    """Write the recorded spans (the in-memory trace) as ``.npz``."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    n = rec.size
    np.savez(
        path,
        names=np.asarray(NAMES),
        code=rec.code[:n],
        start=rec.t0[:n],
        end=rec.t1[:n],
        parent=rec.parent[:n],
        request=rec.rid[:n],
    )
