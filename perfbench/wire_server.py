"""The ``wire`` workload's server: a child process the benchmark launches.

``python3 perfbench/wire_server.py <trace 0|1>`` starts a
``PooledService`` with one worker replica per shard (admitting up to
``QUEUE_LIMIT_SWEEPS`` sweeps in flight) behind a
``repro-serve/1`` ``NetServer`` on an ephemeral localhost port, prints
``READY <port>`` and then obeys one-line commands on standard input:

* ``untrace`` — remove the span wrappers, reply ``TRACE <json summary>``
  (the spans themselves are written under ``.perfbench/``);
* ``stop`` — close the server and the pool (joining the worker
  processes), reply ``STATS <json>`` with the service statistics and the
  summed peak memory of this process and its reaped workers, and exit.

With tracing on, the wrappers are installed before the service is
built, so the server's set-up is traced too.  Worker processes are
forked from this process but record nothing: their cost shows as the
front process's ``pool.execute`` spans plus the pool's ``stats()``.
"""

from __future__ import annotations

import json
import os
import sys

import harness

N = 12
#: Pool admission limit in sweeps; ``wl_wire.py`` says why it is raised.
QUEUE_LIMIT_SWEEPS = 64


def _commands():
    """Lines from standard input, read from the raw descriptor.

    Never through ``sys.stdin``: the pool forks its workers while this
    thread waits for a command, and a fork taken while the buffered
    reader's lock is held deadlocks the child when multiprocessing
    closes its inherited ``sys.stdin``.
    """
    buf = b""
    while True:
        chunk = os.read(0, 4096)
        if not chunk:
            return
        buf += chunk
        while b"\n" in buf:
            line, buf = buf.split(b"\n", 1)
            yield line.decode().strip()


def main() -> int:
    trace = sys.argv[1] == "1"
    harness.import_program()
    rec = None
    if trace:
        from spans import Recorder

        rec = Recorder()
        rec.install()
    from repro.serve import NetServer, PoolConfig, PooledService, ServiceConfig

    service = PooledService(
        ServiceConfig(max_n=N),
        PoolConfig(workers=1, queue_limit_sweeps=QUEUE_LIMIT_SWEEPS),
    )
    server = NetServer(service).start()
    print(f"READY {server.address[1]}", flush=True)
    try:
        for command in _commands():
            if command == "untrace" and rec is not None:
                from spans import save, summarise

                rec.uninstall()
                save(rec, f"{harness.ROOT}/.perfbench/trace-wire-server.npz")
                print("TRACE " + json.dumps(summarise(rec)), flush=True)
            elif command == "stop":
                break
    finally:
        server.close()
        stats = service.stats()
        service.close()
    stats["peak_rss_mb"] = harness.peak_rss_self_mb() + harness.peak_rss_children_mb()
    print("STATS " + json.dumps(stats, default=str), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
