"""Seeded benchmark inputs: dataset, query pools, request streams, writes.

Everything here is a pure function of ``--seed``. Each part draws from its
own random stream, keyed by the part's name, so building only the parts a
workload needs gives the same bytes as building all of them. The program
under test only ever sees the generated snapshot and request bodies.

Screening rule (applied before any timing, never to a measured time): a
mined query is kept iff the independent oracle counts its answers within
its fixed work cap and ``1 <= count <= MAX_ROWS``; hot queries also need
``count >= ROW_LIMIT``, so every materialized hot reply is a full page.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from oracle import Graph, Oracle, TooCostly, is_acyclic

SCALE = 1.0
#: The server's default per-response row limit (``repro serve --limit``).
ROW_LIMIT = 100
MAX_ROWS = 2000
#: Every 4th query is sent count-only (``materialize: false``).
COUNT_ONLY_EVERY = 4
#: Template of the k-th mined query: 40% snowflake, 30% diamond, 30% chain.
TEMPLATES = ("snowflake", "diamond", "chain3", "snowflake", "chain3",
             "diamond", "snowflake", "chain3", "diamond", "snowflake")
#: Distinct hot queries: well under the service's 256-entry result cache.
HOT_POOL = 128
ZIPF_EXPONENT = 1.1
HOT_STREAM = 400_000
#: Distinct cold queries prepared per run. Each repetition of a run
#: starts a fresh server and sends the same prefix; one that serves all
#: of them before its time is up stops there (see README).
COLD_POOL = 1500
WARMUP = 48
#: Writer: one write every WRITE_INTERVAL_S seconds; a write removes the
#: oldest of WRITE_LIVE live batches of WRITE_BATCH triples and adds a new
#: one, so the store size stays steady. The live batches are added before
#: timing. A write bumps the store epoch: the next read rebuilds the
#: catalog and both caches start empty, which today costs the reader
#: about 2 s. At this interval ~6% of reads miss, so the read p99 lies
#: well inside the misses rather than on the edge between hits and misses.
WRITE_INTERVAL_S = 2.5
WRITE_BATCH = 16
WRITE_LIVE = 3
WRITE_OPS = 40
COMPACT_EVERY = 2


@dataclass(frozen=True)
class Request:
    """One ``POST /v1/query`` request and what the oracle knows about it."""

    sparql: str
    edges: tuple  # ((subject var, predicate, object var), ...)
    columns: tuple  # projected variable names, in response column order
    materialize: bool
    expected: int  # oracle answer size on the unmodified dataset

    @property
    def acyclic(self) -> bool:
        return is_acyclic(self.edges)

    @property
    def body(self) -> bytes:
        doc = {"sparql": self.sparql}
        if not self.materialize:
            doc["materialize"] = False
        return json.dumps(doc).encode()


@dataclass(frozen=True)
class WriteOp:
    """One write: ``remove_triples(remove)`` then ``add_term_triples(add)``."""

    remove: tuple  # ((s, p, o) term strings, ...)
    add: tuple


def rng_for(seed: int, part: str) -> np.random.Generator:
    return np.random.default_rng([seed, *part.encode()])


def _templates():
    from repro.query.templates import (
        chain_template,
        diamond_template,
        snowflake_template,
    )

    return {
        "snowflake": snowflake_template(),
        "diamond": diamond_template(),
        "chain3": chain_template(3),
    }


class Dataset:
    """The generated store, its snapshot on disk and the oracle's graph."""

    def __init__(self, seed: int, workdir: str, scale: float = SCALE):
        from repro.datasets.yago_like import generate_yago_like

        self.seed = seed
        self.store = generate_yago_like(scale=scale, seed=seed)
        self.graph = Graph.from_store(self.store)
        self.oracle = Oracle(self.graph)
        self.workdir = workdir
        self.snapshot = os.path.join(workdir, "base", "snapshot")

    def save_snapshot(self) -> str:
        from repro.storage import save_snapshot

        os.makedirs(os.path.dirname(self.snapshot), exist_ok=True)
        save_snapshot(self.store, self.snapshot)
        return self.snapshot

    def mine(self, part: str, n: int, min_rows: int = 1) -> list:
        """``n`` distinct screened queries, from the random stream ``part``.

        Query ``k`` has template ``TEMPLATES[k % 10]`` and is count-only
        iff ``k % 4 == 0``, so every seed gets the same mix at every rank.
        """
        from repro.query.miner import QueryMiner

        rng = rng_for(self.seed, part)
        miner = QueryMiner(self.store, seed=rng)
        templates = _templates()
        seen: set = set()
        kept: list = []
        attempts = 0
        while len(kept) < n:
            attempts += 1
            if attempts > 100 * n + 1000:
                raise RuntimeError(f"could not mine {n} queries for {part!r}")
            name = TEMPLATES[len(kept) % len(TEMPLATES)]
            labels = miner.sample_assignment(templates[name])
            if labels is None or (name, *labels) in seen:
                continue
            seen.add((name, *labels))
            query = templates[name].instantiate(labels)
            edges = tuple(
                (e.subject.name, e.predicate, e.object.name) for e in query.edges
            )
            try:
                count = self.oracle.count(edges)
            except TooCostly:
                continue
            if not min_rows <= count <= MAX_ROWS:
                continue
            kept.append(Request(
                sparql=query.to_sparql(),
                edges=edges,
                columns=tuple(v.name for v in query.projection),
                materialize=len(kept) % COUNT_ONLY_EVERY != 0,
                expected=count,
            ))
        return kept

    def hot(self, variant: int = 0) -> tuple:
        """``(pool, stream)``: distinct queries and Zipf draws over them.

        Variant 0 is the ``hot`` workload's; others draw independent pools
        (write-mix gives each repetition its own).
        """
        tag = f"-{variant}" if variant else ""
        pool = self.mine(f"hot-pool{tag}", HOT_POOL, min_rows=ROW_LIMIT)
        ranks = np.arange(1, len(pool) + 1, dtype=float)
        p = ranks ** -ZIPF_EXPONENT
        stream = rng_for(self.seed, f"hot-stream{tag}").choice(
            len(pool), size=HOT_STREAM, p=p / p.sum()
        )
        return pool, stream.tolist()

    def cold(self) -> tuple:
        """``(warmup, stream)``: every request in ``stream`` is distinct."""
        return self.mine("cold-warmup", WARMUP), self.mine("cold-pool", COLD_POOL)

    def writes(self, pool) -> list:
        """The writes over the predicates ``pool`` queries use.

        The first WRITE_LIVE only add (they run before timing); every later
        one removes the batch added WRITE_LIVE writes earlier.
        """
        rng = rng_for(self.seed, "writes")
        predicates = sorted({p for r in pool for _, p, _ in r.edges})
        subjects = {p: sorted(self.graph.fwd[p]) for p in predicates}
        objects = {p: sorted(self.graph.bwd[p]) for p in predicates}
        live: set = set()
        added: list = []
        ops: list = []
        for k in range(WRITE_LIVE + WRITE_OPS):
            batch = []
            for i in range(WRITE_BATCH):
                p = predicates[int(rng.integers(len(predicates)))]
                s = subjects[p][int(rng.integers(len(subjects[p])))]
                o = objects[p][int(rng.integers(len(objects[p])))]
                if rng.random() < 0.5 or self.graph.has(s, p, o) or (s, p, o) in live:
                    o = f"perfbench:new_{k}_{i}"
                batch.append((s, p, o))
            gone = added[k - WRITE_LIVE] if k >= WRITE_LIVE else ()
            live.difference_update(gone)
            live.update(batch)
            added.append(tuple(batch))
            ops.append(WriteOp(gone, tuple(batch)))
        return ops


def stream_bytes(requests) -> bytes:
    """The request stream exactly as sent, for determinism checks."""
    return b"\n".join(r.body for r in requests)
