"""The three workloads: ``hot``, ``cold`` and ``write-mix``.

A run is a few repetitions (:data:`REPS`), each a fresh server (or
write-mix driver) process measured untraced for an equal share of
``seconds``; every
end-to-end metric is the median over the repetitions. After the timed
windows every reply is checked against the oracle. With tracing on, the
requests of one window are then replayed through the in-process layers
(:func:`tracing.serve_one`) on two fresh services, one traced and one
not: the traced side gives the per-layer self times, the gap between
the two the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

import inputs
from loadgen import Server, Window, closed_loop, warm
from oracle import Oracle, check_response
from tracing import Tracer, serve_one

#: Each run is REPS repetitions of seconds/REPS, each in a fresh server
#: (or driver) process; every end-to-end metric is the median over them.
#: Hot's p99 (a couple of ms) is the most jitter-sensitive number, so hot
#: takes the median of five; a write-mix repetition must stay long enough
#: for its reader to recover from two writes.
REPS = {"hot": 5, "cold": 3, "write-mix": 3}
CONNECTIONS = 2
#: Requests of the first repetition replayed in-process when tracing
#: (write-mix replays its last repetition whole).
REPLAY_LIMIT = {"hot": 6000, "cold": 500}

#: Per-layer timings: metric name -> span name in the traced replay.
LAYER_SPANS = {
    "wire.decode_ms": "wire.decode",
    "server.serialize_ms": "server.serialize",
    "graph.decode_ms": "graph.decode",
    "service.submit_ms": "service.submit",
    "planner.plan_ms": "planner.plan",
    "planner.edgifier_ms": "planner.edgifier",
    "planner.triangulator_ms": "planner.triangulator",
    "core.generation_ms": "core.generation",
    "core.defactorize_ms": "core.evaluate",
    "stats.catalog_build_ms": "stats.catalog_build",
    "storage.wal_append_ms": "storage.wal_append",
    "storage.compact_ms": "storage.compact",
    "storage.snapshot_open_ms": "storage.snapshot_open",
}
#: Root span kind of a replayed write-side event -> its layer span.
WRITE_LAYERS = {"write": "storage.wal_append", "compact": "storage.compact"}


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    end_to_end: dict
    layers: dict = field(default_factory=dict)
    report: dict = field(default_factory=dict)


def pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def timing(out: dict, name: str, seconds) -> None:
    out[f"{name}.p50"] = pct(seconds, 50) * 1e3
    out[f"{name}.p99"] = pct(seconds, 99) * 1e3


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def result_facts(result) -> tuple:
    """What :func:`engine_counts` needs of one result (rows not kept)."""
    return result.stats, None if result.rows is None else len(result.rows)


def engine_counts(facts) -> dict:
    """AG and row accounting over the replay's evaluated (missed) results."""
    walks = ag = materialized = returned = evaluated = 0
    for stats, rows in facts:
        if stats.get("service", {}).get("result_cache") != "miss":
            continue
        evaluated += 1
        walks += stats.get("edge_walks", 0)
        ag += stats.get("ag_size", 0)
        if rows:
            materialized += rows
            returned += min(rows, inputs.ROW_LIMIT)
    return {
        "core.edge_walks": ratio(walks, evaluated),
        "core.ag_yield": ratio(ag, walks),
        "core.rows_per_returned_row": ratio(materialized, returned),
    }


def open_service(snapshot: str, tracer: Tracer, **kwargs):
    """``QueryService.from_snapshot``, timed as the snapshot-open layer."""
    from repro.service import QueryService

    with tracer.span("storage.snapshot_open"):
        return QueryService.from_snapshot(snapshot, **kwargs)


def replay(open_fn, events, tracer: Tracer) -> tuple:
    """Replay ``events`` on two fresh services, one traced and one not.

    ``open_fn(tracer)`` opens a service in the state the timed window
    started from. Events are ``("read", body, id)`` or ``(kind, fn, id)``
    where ``fn(service)`` is a write-side call timed as the layer
    :data:`WRITE_LAYERS` names. Each event runs on both services back to
    back, alternating which goes first, so drift over the replay affects
    both sides alike; the layer wrappers are installed only around the
    traced side. Returns the per-layer metrics and the untraced replay's
    per-read seconds.
    """
    services = []  # untraced, traced
    times = ([], [])
    facts = []
    try:
        services.append(open_fn(tracer))
        services.append(open_fn(tracer))
        for i, (kind, payload, ref) in enumerate(events):
            for traced in ((0, 1) if i % 2 == 0 else (1, 0)):
                service = services[traced]
                if not traced:
                    if kind == "read":
                        times[0].append(serve_one(service, payload)[2])
                    else:
                        payload(service)
                    continue
                tracer.install()
                try:
                    if kind == "read":
                        _, result, dt = serve_one(service, payload, tracer, ref)
                        times[1].append(dt)
                        facts.append(result_facts(result))
                    else:
                        with tracer.span(kind, ref), \
                                tracer.span(WRITE_LAYERS[kind]):
                            payload(service)
                finally:
                    tracer.uninstall()
    finally:
        for service in services:
            service.close()
    layers: dict = {}
    self_times = tracer.self_times()
    for metric, span in LAYER_SPANS.items():
        timing(layers, metric, self_times.get(span, []))
    layers["stats.catalog_builds"] = float(
        len(self_times.get("stats.catalog_build", []))
    )
    layers["trace.span_coverage"] = tracer.coverage()
    layers["trace.overhead"] = ratio(sum(times[1]), sum(times[0])) - 1.0
    layers.update(engine_counts(facts))
    return layers, times[0]


# ----------------------------------------------------------------------
# hot and cold: HTTP against `repro serve`
# ----------------------------------------------------------------------


def _result(body: bytes) -> tuple:
    """A reply's ``result`` object and whether the row limit cut it."""
    result = json.loads(body).get("result")
    return result, isinstance(result, dict) and result.get("truncated") is True


def run_http(name: str, seed: int, seconds: float, trace: bool, root: str,
             workdir: str) -> Outcome:
    ds = inputs.Dataset(seed, workdir)
    snapshot = ds.save_snapshot()
    if name == "hot":
        pool, stream = ds.hot()
        requests = [pool[i] for i in stream]
        warmup = pool
    else:
        warmup, requests = ds.cold()
    bodies = [r.body for r in requests]
    gc.collect()
    gc.freeze()

    reps = []
    for _ in range(REPS[name]):
        server = Server(root, snapshot, workdir)
        try:
            setup = server.start()
            warm(server.address, [r.body for r in warmup])
            before = server.stats()
            window = closed_loop(server.address, bodies,
                                 seconds / REPS[name], CONNECTIONS)
            after = server.stats()
            reps.append(Rep(setup, server.peak_rss_mb(), window, before,
                            after))
        finally:
            server.stop()

    verdicts: dict = {}
    wrong = errors = truncated = 0
    problems = []
    for rep in reps:
        for s in rep.window.samples:
            if s.status != 200:
                errors += 1
                continue
            request = requests[s.index]
            key = (id(rep), s.key, id(request))
            if key not in verdicts:
                result, cut = _result(rep.window.bodies[s.key])
                verdicts[key] = (check_response(
                    ds.oracle, request, result, request.expected,
                    inputs.ROW_LIMIT), cut)
            why, was_truncated = verdicts[key]
            if why is not None:
                wrong += 1
                problems.append(f"request {s.index}: {why}")
                continue
            truncated += was_truncated
            rep.latencies.append(s.rtt)
    samples = [s for rep in reps for s in rep.window.samples]
    sent = [requests[s.index] for s in samples]
    attempted = len(samples)
    layers = {
        "error_rate": ratio(errors + wrong, attempted),
        "share.result_cache_hit": ratio(
            sum(s.cache_hit for s in samples), attempted),
        "share.acyclic": ratio(sum(r.acyclic for r in sent), attempted),
        "share.count_only": ratio(
            sum(not r.materialize for r in sent), attempted),
        "share.truncated": ratio(truncated, attempted),
        "write_p50_ms": 0.0,
        "write_p99_ms": 0.0,
        "writer.lateness_ms.p50": 0.0,
        "writer.lateness_ms.p99": 0.0,
        "disk_bytes_per_user_byte": 0.0,
        "storage.fsyncs_per_append": 0.0,
        "storage.bytes_rewritten_per_user_byte": 0.0,
        **rep_layers(reps),
    }
    report = {
        "stream_exhausted": any(r.window.exhausted for r in reps),
        "wrong": wrong,
        "transport_errors": errors,
        "problems": problems[:20],
        **rep_report(reps),
    }
    if trace:
        layers.update(_replay_http(snapshot, warmup, requests, reps[0].window,
                                   REPLAY_LIMIT[name], workdir, name))
    return Outcome(wrong == 0, attempted, errors + wrong,
                   rep_end_to_end(reps), layers, report)


@dataclass
class Rep:
    """One repetition: a fresh server or driver process and its window."""

    setup: float
    rss_mb: float
    window: "Window"
    before: dict  # service stats at the start of the window
    after: dict
    latencies: list = field(default_factory=list)  # of correct reads

    @property
    def qps(self) -> float:
        return ratio(len(self.latencies), self.window.seconds)


def rep_end_to_end(reps) -> dict:
    """Each end-to-end metric is the median over the repetitions."""
    return {
        "setup_s": statistics.median(r.setup for r in reps),
        "qps": statistics.median(r.qps for r in reps),
        "latency_p50_ms": statistics.median(
            pct(r.latencies, 50) * 1e3 for r in reps),
        "latency_p99_ms": statistics.median(
            pct(r.latencies, 99) * 1e3 for r in reps),
        "rss_mb": statistics.median(r.rss_mb for r in reps),
    }


def rep_layers(reps) -> dict:
    lookups = {c: 0 for c in ("result_cache", "plan_cache")}
    hits = dict(lookups)
    for r in reps:
        for cache in lookups:
            lookups[cache] += r.after[cache]["lookups"] - r.before[cache]["lookups"]
            hits[cache] += r.after[cache]["hits"] - r.before[cache]["hits"]
    return {
        "latency.samples": float(sum(len(r.latencies) for r in reps)),
        "client.cpu_share": ratio(sum(r.window.cpu_seconds for r in reps),
                                  sum(r.window.seconds for r in reps)),
        "service.result_cache_hit_rate": ratio(hits["result_cache"],
                                               lookups["result_cache"]),
        "service.plan_cache_hit_rate": ratio(hits["plan_cache"],
                                             lookups["plan_cache"]),
    }


def rep_report(reps) -> dict:
    return {
        "window_seconds": [r.window.seconds for r in reps],
        "setup_samples_s": [r.setup for r in reps],
        "latency_samples": [len(r.latencies) for r in reps],
        "qps_samples": [r.qps for r in reps],
    }


def _replay_http(snapshot, warmup, requests, window, limit, workdir,
                 name) -> dict:
    """The window's first ``limit`` requests, replayed in-process."""
    samples = sorted(window.samples, key=lambda s: s.start)[:limit]
    events = [("read", requests[s.index].body, s.index) for s in samples]

    def open_fn(tracer):
        service = open_service(snapshot, tracer)
        for r in warmup:
            serve_one(service, r.body)
        return service

    tracer = Tracer()
    layers, untraced = replay(open_fn, events, tracer)
    tracer.dump(os.path.join(workdir, f"{name}-spans.jsonl"))
    timing(layers, "server.transport_ms",
           [s.rtt - u for s, u in zip(samples, untraced)])
    return layers


# ----------------------------------------------------------------------
# write-mix: in-process service with a WAL, in a driver process
# ----------------------------------------------------------------------


def run_write_mix(seed: int, seconds: float, trace: bool, root: str,
                  workdir: str) -> Outcome:
    ds = inputs.Dataset(seed, workdir)
    snapshot = ds.save_snapshot()
    gc.collect()
    gc.freeze()
    reps, outs, sent, user_bytes = [], [], [], 0
    wrong = failed = 0
    durable = True
    problems: list = []
    for i in range(REPS["write-mix"]):
        # Each repetition reads its own hot pool: the read tail depends on
        # which queries a pool holds, and the median over several pools
        # is steadier than any one pool.
        pool, stream = ds.hot(i)
        ops = ds.writes(pool)
        job = {
            "root": root,
            "base": os.path.dirname(snapshot),
            "workdir": workdir,
            "name": f"write-mix-{i}",
            "trace": trace and i == REPS["write-mix"] - 1,
            "seconds": seconds / REPS["write-mix"],
            "pool": [r.body.decode() for r in pool],
            "stream": stream,
            "ops": [[op.remove, op.add] for op in ops],
            "live": inputs.WRITE_LIVE,
            "interval": inputs.WRITE_INTERVAL_S,
            "compact_every": inputs.COMPACT_EVERY,
        }
        out = _drive(job, os.path.join(workdir, f"write-mix-{i}"))
        rep_wrong, rep_problems = _check_write_mix_reads(ds, pool, stream,
                                                         ops, out)
        durable_problem = _check_durability(ds, ops, out)
        if durable_problem:
            rep_problems.append(durable_problem)
        rep_problems += [f"read {r['index']}: {r['error']}"
                         for r in out["reads"] if not r["ok"]]
        rep_problems += [f"write {w['op']}: {w['error']}"
                         for w in out["writes"] if not w["acked"]]
        wrong += rep_wrong
        failed += rep_wrong + sum(not r["ok"] for r in out["reads"]) + sum(
            not w["acked"] for w in out["writes"])
        problems += rep_problems
        durable = durable and durable_problem is None
        window = SimpleNamespace(seconds=out["window_seconds"],
                                 cpu_seconds=out["cpu_seconds"])
        rep = Rep(out["setup"], out["rss_mb"], window,
                  out["stats_before"], out["stats_after"])
        rep.latencies = [r["latency"] for r in out["reads"]
                         if r["ok"] and not r["wrong"]]
        reps.append(rep)
        outs.append(out)
        sent += [pool[stream[r["index"]]] for r in out["reads"]]
        user_bytes += sum(_ntriples_bytes(ops[w["op"]])
                          for w in out["writes"] if w["acked"])

    reads = [r for out in outs for r in out["reads"]]
    writes = [w for out in outs for w in out["writes"]]
    acked = [w for w in writes if w["acked"]]
    compactions = [c for out in outs for c in out["compactions"]]
    wal_bytes = sum(w["wal_bytes"] for w in acked)
    compact_bytes = sum(c["bytes"] for c in compactions)
    fsyncs = appends = 0
    for rep in reps:
        fsyncs += rep.after["wal"]["fsyncs"] - rep.before["wal"]["fsyncs"]
        appends += rep.after["wal"]["appended"] - rep.before["wal"]["appended"]
    layers = {
        "error_rate": ratio(failed, len(reads) + len(writes)),
        "share.result_cache_hit": ratio(
            sum(r.get("cache_hit", False) for r in reads), len(reads)),
        "share.acyclic": ratio(sum(r.acyclic for r in sent), len(sent)),
        "share.count_only": ratio(
            sum(not r.materialize for r in sent), len(sent)),
        "share.truncated": ratio(sum(r["truncated"] for r in reads),
                                 len(reads)),
        "disk_bytes_per_user_byte": ratio(wal_bytes + compact_bytes,
                                          user_bytes),
        "storage.fsyncs_per_append": ratio(fsyncs, appends),
        "storage.bytes_rewritten_per_user_byte": ratio(compact_bytes,
                                                       user_bytes),
        **rep_layers(reps),
    }
    write_ms = [w["end"] - w["due"] for w in acked]
    layers["write_p50_ms"] = pct(write_ms, 50) * 1e3
    layers["write_p99_ms"] = pct(write_ms, 99) * 1e3
    timing(layers, "writer.lateness_ms",
           [w["start"] - w["due"] for w in writes])
    if trace:
        layers.update(outs[-1]["layers"])
    report = {
        "writes_acked": len(acked),
        "compactions": len(compactions),
        "wrong": wrong,
        "durable": durable,
        "problems": problems[:20],
        **rep_report(reps),
    }
    return Outcome(wrong == 0 and durable, len(reads) + len(writes), failed,
                   rep_end_to_end(reps), layers, report)


def _drive(job: dict, prefix: str) -> dict:
    """Run one repetition in a fresh ``writemix.py`` process."""
    job_path, out_path = f"{prefix}-job.json", f"{prefix}-out.json"
    with open(job_path, "w") as handle:
        json.dump(job, handle)
    child = subprocess.run(
        [sys.executable, os.path.join(os.path.dirname(__file__),
                                      "writemix.py"), job_path, out_path],
        cwd=job["root"], timeout=120,
    )
    if child.returncode != 0:
        raise RuntimeError(f"write-mix driver exited with {child.returncode}")
    with open(out_path) as handle:
        return json.load(handle)


def _ntriples_bytes(op) -> int:
    from repro.graph.ntriples import serialize_ntriples

    return sum(len(line.encode())
               for line in serialize_ntriples(op.remove + op.add))


def _states(ds, ops):
    """Oracle graphs after 0, 1, 2, ... writes (built on demand)."""
    states = [ds.graph]

    def at(j: int):
        while len(states) <= j:
            op = ops[len(states) - 1]
            states.append(states[-1].with_changes(op.add, op.remove))
        return states[j]

    return at


def _check_write_mix_reads(ds, pool, stream, ops, out) -> tuple:
    """Each read must match the oracle at a store state it overlapped.

    A read that began after ``lo`` writes were acknowledged and ended
    before write ``hi + 1`` started saw one of the states after
    ``lo .. hi`` writes.
    """
    state_at = _states(ds, ops)
    oracles: dict = {}
    counts: dict = {}
    verdicts: dict = {}
    wrong = 0
    problems: list = []
    for read in out["reads"]:
        read["wrong"] = False
        read["truncated"] = False
        if not read["ok"]:
            continue
        pool_index = stream[read["index"]]
        request = pool[pool_index]
        key = (read["key"], pool_index, read["lo"], read["hi"])
        if key not in verdicts:
            result, truncated = _result(out["bodies"][read["key"]])
            why = "no candidate state"
            for j in range(read["lo"], read["hi"] + 1):
                if j not in oracles:
                    oracles[j] = Oracle(state_at(j),
                                        work_cap=20 * ds.oracle.work_cap)
                if (pool_index, j) not in counts:
                    counts[pool_index, j] = oracles[j].count(request.edges)
                why = check_response(oracles[j], request, result,
                                     counts[pool_index, j], inputs.ROW_LIMIT)
                if why is None:
                    break
            verdicts[key] = (why, truncated)
        why, read["truncated"] = verdicts[key]
        if why is not None:
            read["wrong"] = True
            wrong += 1
            problems.append(f"read {read['index']}: {why}")
    return wrong, problems


def _check_durability(ds, ops, out) -> "str | None":
    """Reopen the store from disk: every acknowledged write must be there."""
    from repro.storage import close_store, open_store

    acked = [w["op"] for w in out["writes"] if w["acked"]]
    first = inputs.WRITE_LIVE
    if acked != list(range(first, first + len(acked))):
        return "writes were not acknowledged in schedule order"
    graph = _states(ds, ops)(first + len(acked))
    store = open_store(out["snapshot"])
    try:
        lookup = store.dictionary.lookup

        def present(triple) -> bool:
            ids = tuple(lookup(t) for t in triple)
            return None not in ids and ids in store

        expected = graph.num_triples()
        if store.num_triples != expected:
            return (f"reopened store has {store.num_triples} triples, "
                    f"expected {expected}")
        live = [t for op in ops[: first + len(acked)] for t in op.add
                if graph.has(*t)]
        gone = [t for op in ops[: first + len(acked)] for t in op.remove
                if not graph.has(*t)]
        missing = [t for t in live if not present(t)]
        if missing:
            return f"{len(missing)} acknowledged adds missing, e.g. {missing[0]}"
        resurrected = [t for t in gone if present(t)]
        if resurrected:
            return f"{len(resurrected)} acknowledged removes undone"
    finally:
        close_store(store)
    return None
