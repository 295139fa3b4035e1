"""Workload ``wire``: ``repro-serve/1`` over TCP to a pooled server.

The server (``wire_server.py``) runs in a child process: a
``PooledService`` with one worker replica per shard at n = 12, so the
one converter shard makes three processes (client, server, worker).
This process is the client: one thread, two connections,
frames of ``LANES`` lanes of unrank or random_perm with indices uniform
over 12!, so the worker caches stay almost idle.  Phases:

1. closed loop with ``DEPTH`` frames in flight per connection; 2 × 2
   frames can never put more than 4 sweeps in flight, the pool's
   default admission limit (``queue_limit_sweeps`` = 4 × 1 worker), so
   nothing would shed even at that limit;
2. open loop, Poisson frames at ``LIGHT_FPS`` (about a tenth of the
   seed's closed-loop capacity of some 900–1500 frames/s), for the
   median latency;
3. open loop at ``HEAVY_FPS`` (about a fifth of it), for the tail
   latency.  At these rates every frame is its own sweep.

The server's pool (``wire_server.py``) admits up to 64 sweeps rather
than the default 4: a stall of the shared host lets Poisson arrivals
pile up a fifth sweep, which the default limit refuses, so whether a
run shed a frame or two depended on the host, not on the program (one
of two sets of ten runs shed 3 of 89 056 frames).  The closed loop still
never has more than 4 sweeps in flight.

Unlike the other workloads, this one is not pinned to one CPU
(:func:`harness.pin`): with the client, the server and its worker on one
CPU, the closed loop's rate followed that CPU's contention and spread by
0.20 (interquartile range ÷ median) over ten runs, against 0.09 over
ten runs spread across both vCPUs, where :func:`harness.calibrate`
averages the two.

As in ``serve``, throughput is the median of the closed loop's
half-second slice rates at nominal host speed (the loop drains at every
slice boundary for :func:`harness.calibrate`), the light-rate latency
is the median over the whole light phase as measured, and the heavy
phase's tail is printed but not gated.
"""

from __future__ import annotations

import json
import math
import os
import selectors
import socket
import subprocess
import sys
import time

import numpy as np

import harness
from load import Verifier, poisson_schedule

N = 12
LANES = 16
CONNECTIONS = 2
DEPTH = 2
LIGHT_FPS = 100.0
HEAVY_FPS = 200.0
PHASES = (0.3, 0.45, 0.25)
#: Slice width for throughput.
SLICE_S = 0.5
#: Width of the slices the heavy phase's tail is taken over.
TAIL_SLICE_S = 4.0
#: Rows a phase can buffer before checking: checking mid-phase would
#: stall this single client thread and send the frames due meanwhile
#: in a burst, so each phase is checked once it has ended.
VERIFY_ROWS = 1 << 18
SETTLE_S = 10.0
_SPACE = math.factorial(N)


class FrameStream:
    """The seeded frame sequence; frame ``i`` depends on the seed alone."""

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng([seed, 3])

    def next(self) -> tuple[str, list[int] | None]:
        if self._rng.random() < 0.5:
            return "unrank", [int(x) for x in self._rng.integers(0, _SPACE, LANES)]
        return "random_perm", None


class Server:
    """The server child; ``stop`` returns its final statistics."""

    def __init__(self, trace: bool) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(harness.HERE, "wire_server.py"),
             "1" if trace else "0"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=harness.child_env(),
            cwd=harness.ROOT,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("READY"):
            self.kill()
            raise RuntimeError(f"wire server failed to start: {line!r}")
        self.port = int(line.split()[1])

    def _ask(self, command: str, tag: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        for line in self.proc.stdout:
            if line.startswith(tag + " "):
                return json.loads(line[len(tag) + 1 :])
        raise RuntimeError(f"wire server gave no {tag} reply")

    def untrace(self) -> dict:
        return self._ask("untrace", "TRACE")

    def stop(self) -> dict:
        try:
            stats = self._ask("stop", "STATS")
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
            return stats
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


class Client:
    """Two connections multiplexed on one thread with a selector."""

    def __init__(self, port: int) -> None:
        from repro.serve.net import protocol as wire

        self.wire = wire
        self.sel = selectors.DefaultSelector()
        self.conns = []
        for _ in range(CONNECTIONS):
            sock = socket.create_connection(("127.0.0.1", port), timeout=SETTLE_S)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            decoder = wire.FrameDecoder(wire.MAX_RESPONSE_FRAME)
            conn = {"sock": sock, "decoder": decoder}
            self.conns.append(conn)
            self.sel.register(sock, selectors.EVENT_READ, conn)
        self.next_id = 1
        #: request id → (slot, due, sent indices); one entry per frame in flight
        self.pending: dict[int, tuple] = {}

    def send(self, conn, workload: str, indices, slot: int, due: float) -> None:
        rid = self.next_id
        self.next_id += 1
        conn["sock"].sendall(
            self.wire.encode_request(workload, N, LANES, request_id=rid, indices=indices)
        )
        self.pending[rid] = (slot, due, indices)

    def poll(self, timeout: float):
        """Yield ``(conn, response, slot, due, sent indices)`` as they arrive."""
        for key, _ in self.sel.select(timeout):
            conn = key.data
            data = conn["sock"].recv(1 << 16)
            if not data:
                raise ConnectionError("wire server closed a connection")
            for frame in conn["decoder"].feed(data):
                resp = self.wire.decode_response(frame)
                slot, due, sent = self.pending.pop(resp.request_id)
                yield conn, resp, slot, due, sent

    def close(self) -> None:
        for conn in self.conns:
            self.sel.unregister(conn["sock"])
            conn["sock"].close()
        self.sel.close()


class Counts:
    def __init__(self) -> None:
        self.attempted = 0
        self.refused = 0
        self.abandoned = 0
        self.incorrect = 0

    @property
    def failed(self) -> int:
        return self.refused + self.abandoned + self.incorrect


def _check(resp, sent, verifier: Verifier, counts: Counts) -> bool:
    """Queue a response's rows for the oracle; False if refused or malformed."""
    if not resp.ok:
        counts.refused += 1
        return False
    if resp.indices is None or (sent is not None and tuple(sent) != tuple(resp.indices)):
        counts.incorrect += 1
        return False
    verifier.add(resp.permutations, resp.indices, True)
    return True


def closed_phase(client: Client, stream: FrameStream, duration: float,
                 counts: Counts) -> tuple[list[float], int]:
    """Closed loop until ``duration`` passes → (slice rates, correct perms).

    The loop runs in slices of ``SLICE_S`` seconds and drains between
    them, so that :func:`harness.calibrate` runs with no frame in flight;
    each slice's rate is its permutations per second at nominal host
    speed.
    """
    verifier = Verifier(N, VERIFY_ROWS)
    now = time.perf_counter
    end = now() + duration
    rates, delivered = [], 0
    cal = harness.calibrate()
    while now() < end:
        t0 = now()
        stop = min(t0 + SLICE_S, end)
        good = 0
        for conn in client.conns:
            for _ in range(DEPTH):
                counts.attempted += 1
                client.send(conn, *stream.next(), slot=0, due=t0)
        last = t0
        while client.pending:
            got = False
            for conn, resp, _, _, sent in client.poll(SETTLE_S):
                got = True
                last = now()
                if _check(resp, sent, verifier, counts):
                    good += resp.count
                if last < stop:
                    counts.attempted += 1
                    client.send(conn, *stream.next(), slot=0, due=last)
            if not got:
                counts.abandoned += len(client.pending)
                client.pending.clear()
        after = harness.calibrate()
        rates.append(good / harness.at_nominal(max(last - t0, 1e-9), (cal + after) / 2))
        delivered += good
        cal = after
    verifier.flush()
    counts.incorrect += verifier.incorrect
    return rates, delivered - verifier.incorrect


def open_phase(client: Client, stream: FrameStream, schedule: np.ndarray,
               counts: Counts) -> dict:
    """Open-loop frames at ``schedule`` → frame latencies and lateness (s)."""
    verifier = Verifier(N, VERIFY_ROWS)
    size = len(schedule)
    latency = np.full(size, np.nan)
    late = np.zeros(size)
    now = time.perf_counter
    t0 = now() + 0.001
    k = 0
    limit = None
    while k < size or client.pending:
        if k < size:
            timeout = max(0.0, t0 + schedule[k] - now())
        else:
            if limit is None:
                limit = now() + SETTLE_S
            timeout = limit - now()
            if timeout <= 0:
                counts.abandoned += len(client.pending)
                client.pending.clear()
                break
        for _, resp, slot, due, sent in client.poll(timeout):
            if _check(resp, sent, verifier, counts):
                latency[slot] = now() - due
        while k < size and now() >= t0 + schedule[k]:
            due = t0 + schedule[k]
            late[k] = now() - due
            counts.attempted += 1
            client.send(client.conns[k % CONNECTIONS], *stream.next(), slot=k, due=due)
            k += 1
    verifier.flush()
    counts.incorrect += verifier.incorrect
    served = ~np.isnan(latency)
    return {
        "latency": latency[served],
        "offset": schedule[served],
        "late": late,
        "perms": int(served.sum()) * LANES,
    }


def probe(seed: int) -> None:
    """Set-up probe: start the server and get one checked frame back."""
    server = Server(trace=False)
    try:
        client = Client(server.port)
        counts = Counts()
        verifier = Verifier(N)
        indices = [int(x) for x in np.random.default_rng(seed).integers(0, _SPACE, LANES)]
        client.send(client.conns[0], "unrank", indices, slot=0, due=0.0)
        deadline = time.perf_counter() + 60.0
        while client.pending and time.perf_counter() < deadline:
            for _, resp, _, _, sent in client.poll(deadline - time.perf_counter()):
                _check(resp, sent, verifier, counts)
        verifier.flush()
        client.close()
        if counts.failed or verifier.incorrect or verifier.checked != LANES:
            raise RuntimeError("set-up probe got no correct frame")
        print("READY", flush=True)
    finally:
        server.stop()


def run(args, result: harness.Result) -> None:
    closed_s, light_s, heavy_s = (f * args.seconds for f in PHASES)
    rng = np.random.default_rng([args.seed, 4])
    light = poisson_schedule(rng, LIGHT_FPS, light_s)
    heavy = poisson_schedule(rng, HEAVY_FPS, heavy_s)
    stream = FrameStream(args.seed)
    counts = Counts()
    server = Server(trace=bool(args.trace))
    try:
        client = Client(server.port)
        closed_phase(client, stream, 0.2, counts)  # warm-up
        rates, good = closed_phase(client, stream, closed_s, counts)
        refused = counts.refused
        lo = open_phase(client, stream, light, counts)
        refused_light = counts.refused - refused
        hi = open_phase(client, stream, heavy, counts)
        refused_heavy = counts.refused - refused - refused_light
        if args.trace:
            summary = server.untrace()
            base = harness.median(closed_phase(client, stream, closed_s, counts)[0])
        client.close()
        stats = server.stop()
    finally:
        server.kill()

    throughput = harness.median(rates)
    p50_light = harness.median(lo["latency"])
    heavy_tail = harness.tail(hi["latency"])
    p99_pct, p99_heavy, slices = harness.sliced_tail(
        hi["offset"], hi["latency"], TAIL_SLICE_S, heavy_s
    )
    light_tail = harness.tail(lo["latency"])
    result.note(
        f"wire closed   {good} perms; median of {len(rates)} {SLICE_S:g} s slices "
        f"at nominal host speed {throughput:,.0f} perms/s"
    )
    result.note(
        f"wire light    {LIGHT_FPS:.0f} frames/s: p50 {p50_light * 1e3:.3f} ms, "
        f"p{light_tail[0]:.2f} {light_tail[1] * 1e3:.3f} ms (n={light_tail[2]})"
    )
    result.note(
        f"wire heavy    {HEAVY_FPS:.0f} frames/s: p50 {harness.median(hi['latency']) * 1e3:.3f} ms, "
        f"median over {slices} {TAIL_SLICE_S:g} s slices of p{p99_pct:.2f} "
        f"{p99_heavy * 1e3:.3f} ms; pooled p{heavy_tail[0]:.2f} "
        f"{heavy_tail[1] * 1e3:.3f} ms (n={heavy_tail[2]})"
    )
    late_pct, late_val, late_n = harness.tail(np.concatenate([lo["late"], hi["late"]]))
    result.note(f"wire lateness p{late_pct:.2f} {late_val * 1e3:.3f} ms (n={late_n})")
    pool = stats["pool"]
    result.note(
        f"wire counts   frames={counts.attempted} refused={counts.refused} "
        f"(closed {refused}, light {refused_light}, heavy {refused_heavy}) "
        f"abandoned={counts.abandoned} incorrect={counts.incorrect} "
        f"server_shed={stats['shed']} pool_restarts={pool['restarts']} "
        f"pool_fallbacks={pool['served_fallback']}"
    )
    result.attempted = counts.attempted
    result.failed = counts.failed
    result.incorrect = counts.incorrect
    error_rate = counts.failed / max(1, counts.attempted)

    if not args.trace:
        setup = harness.time_setup_probes("wire", args.seed)
        result.note(f"wire setup    {[round(s, 3) for s in setup]} s")
        result.metric("setup_s", harness.median(setup), "s")
        result.metric("items_per_s", throughput, "1/s")
        result.metric("latency_ms", p50_light * 1e3, "ms")
        result.metric("ok_share", 1.0 - error_rate, "ratio")
        result.metric("peak_rss_mb", stats["peak_rss_mb"], "MB")
        return

    from layers import layer_metrics

    lookups = pool["cache_hits"] + pool["cache_misses"]
    extra = {
        "pool.restarts": pool["restarts"],
        "pool.worker_hit_ratio": pool["cache_hits"] / lookups if lookups else 0.0,
        "loadgen.late_p99_ms": late_val * 1e3,
        "trace.overhead_x": throughput / base,
        "error_rate": error_rate,
    }
    items = good + lo["perms"] + hi["perms"]
    for name, (value, unit) in layer_metrics(summary, items, extra).items():
        result.metric(name, value, unit)
