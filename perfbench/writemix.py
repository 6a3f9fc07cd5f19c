"""The ``write-mix`` driver: one process hosting the service, a reader and a writer.

Run as ``python3 perfbench/writemix.py JOB.json OUT.json`` by
``workloads.run_write_mix``, once per repetition. The service is
``QueryService.from_snapshot(path, wal=True)`` with the default ``batch``
fsync policy. The first ``live`` writes are applied before timing. Then
one reader thread runs the hot stream closed-loop through the in-process
request path while one writer thread applies the remaining writes
open-loop, every ``interval`` seconds, and compacts after every
``compact_every`` acknowledged writes. Writes have no HTTP route, hence
in-process.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import statistics
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
#: ``from_snapshot(wal=True)`` calls per process; the median is its setup.
SETUPS = 5


def fresh_copy(base: str, workdir: str, name: str) -> str:
    """A private copy of the base snapshot directory; returns its snapshot."""
    target = os.path.join(workdir, name)
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(base, target, symlinks=True)
    return os.path.join(target, "snapshot")


def apply_op(store, op) -> None:
    """One write: drop the oldest live batch, add a new one."""
    remove, add = op
    if remove:
        lookup = store.dictionary.lookup
        store.remove_triples(
            [(lookup(s), lookup(p), lookup(o)) for s, p, o in remove]
        )
    store.add_term_triples(add)


def run_window(service, job, bodies, stream) -> dict:
    from loadgen import _Interner, peak_rss_mb
    from tracing import serve_one

    wal = service.store.write_log.wal
    ops = job["ops"]
    first = job["live"]
    interner = _Interner()
    reads: list = []
    writes: list = []
    compactions: list = []
    progress = {"acked": first, "started": first}
    stop = threading.Event()
    started = time.perf_counter()
    deadline = started + job["seconds"]

    def reader() -> None:
        i = 0
        while time.perf_counter() < deadline and i < len(stream):
            lo = progress["acked"]
            t0 = time.perf_counter()
            try:
                data, result, dt = serve_one(service, bodies[stream[i]])
            except Exception:  # noqa: BLE001 — recorded as a failure
                reads.append({"index": i, "start": t0, "ok": False,
                              "error": traceback.format_exc(limit=-4)})
            else:
                reads.append({
                    "index": i, "start": t0, "latency": dt, "ok": True,
                    "key": interner.key(data), "lo": lo,
                    "hi": progress["started"],
                    "cache_hit": result.stats["service"]["result_cache"]
                    == "hit",
                })
            i += 1
        stop.set()

    def writer() -> None:
        for k in range(first, len(ops)):
            due = started + (k - first) * job["interval"]
            if due >= deadline:
                break
            delay = due - time.perf_counter()
            if delay > 0 and stop.wait(delay):
                break
            start = time.perf_counter()
            progress["started"] = k + 1
            size = wal.size_bytes
            record = {"op": k, "due": due, "start": start, "acked": False}
            try:
                apply_op(service.store, ops[k])
            except Exception:  # noqa: BLE001 — recorded as a failure
                record["error"] = traceback.format_exc(limit=-4)
                record["end"] = time.perf_counter()
                writes.append(record)
                break
            record.update(end=time.perf_counter(), acked=True,
                          wal_bytes=wal.size_bytes - size)
            writes.append(record)
            progress["acked"] = k + 1
            if (k + 1 - first) % job["compact_every"] == 0:
                c0 = time.perf_counter()
                manifest = service.compact()
                compactions.append({
                    "after_op": k, "start": c0, "end": time.perf_counter(),
                    "bytes": sum(f["bytes"] for f in manifest["files"].values()),
                })

    before = service.snapshot()
    cpu0 = time.process_time()
    threads = [threading.Thread(target=reader), threading.Thread(target=writer)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    ended = max([r["start"] + r.get("latency", 0.0) for r in reads]
                + [w["end"] for w in writes] + [started])
    return {
        "reads": reads,
        "writes": writes,
        "compactions": compactions,
        "bodies": [b.decode() for b in interner.bodies],
        "window_seconds": ended - started,
        "cpu_seconds": time.process_time() - cpu0,
        "stats_before": before,
        "stats_after": service.snapshot(),
        "rss_mb": peak_rss_mb(os.getpid()),
    }


def replay(job, bodies, stream, out) -> dict:
    """Replay the whole window, in its original order, in-process."""
    from tracing import Tracer, serve_one
    from workloads import open_service, replay

    timed = [(r["start"], ("read", bodies[stream[r["index"]]], r["index"]))
             for r in out["reads"] if r["ok"]]
    for w in out["writes"]:
        if w["acked"]:
            timed.append((w["start"], (
                "write", lambda service, op=job["ops"][w["op"]]:
                apply_op(service.store, op), f"w{w['op']}",
            )))
    for c in out["compactions"]:
        timed.append((c["start"], (
            "compact", lambda service: service.compact(),
            f"c{c['after_op']}",
        )))
    timed.sort(key=lambda e: e[0])
    copies = iter(range(2))

    def open_fn(tracer):
        snapshot = fresh_copy(job["base"], job["workdir"],
                              f"replay-{next(copies)}")
        service = open_service(snapshot, tracer, wal=True)
        for op in job["ops"][: job["live"]]:
            apply_op(service.store, op)
        for body in bodies:
            serve_one(service, body)
        return service

    tracer = Tracer()
    layers, _ = replay(open_fn, [e for _, e in timed], tracer)
    tracer.dump(os.path.join(job["workdir"], "write-mix-spans.jsonl"))
    layers["server.transport_ms.p50"] = 0.0
    layers["server.transport_ms.p99"] = 0.0
    return layers


def main(job_path: str, out_path: str) -> int:
    with open(job_path) as handle:
        job = json.load(handle)
    sys.path.insert(0, os.path.join(job["root"], "src"))
    from repro.service import QueryService
    from tracing import serve_one

    job["ops"] = [
        (tuple(map(tuple, remove)), tuple(map(tuple, add)))
        for remove, add in job["ops"]
    ]
    bodies = [b.encode() for b in job["pool"]]
    stream = job["stream"]
    setups = []
    for attempt in range(SETUPS):
        if attempt:
            service.close()
        snapshot = fresh_copy(job["base"], job["workdir"], job["name"])
        t0 = time.perf_counter()
        service = QueryService.from_snapshot(snapshot, wal=True)
        setups.append(time.perf_counter() - t0)
    gc.collect()
    gc.freeze()
    try:
        for op in job["ops"][: job["live"]]:
            apply_op(service.store, op)
        for body in bodies:
            serve_one(service, body)
        out = run_window(service, job, bodies, stream)
    finally:
        service.close()
    out["setup"] = statistics.median(setups)
    out["snapshot"] = snapshot
    if job["trace"]:
        out["layers"] = replay(job, bodies, stream, out)
    with open(out_path, "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
