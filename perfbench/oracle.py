"""An answer oracle that shares no code with the Wireframe engine.

Queries are conjunctive queries whose terms are all variables and whose
projection is every variable (the shape :class:`repro.query.miner.QueryMiner`
produces), so the answer set is exactly the set of variable assignments
that satisfy every triple pattern. Hence:

* a returned row belongs to the answer set iff each pattern holds for it,
  which :meth:`Oracle.row_ok` checks with direct adjacency lookups;
* the answer size is a homomorphism count. Acyclic queries are counted by
  message passing over the query tree; cyclic ones by backtracking.
  Both give up, deterministically, once a fixed amount of work is spent,
  so screening a query never depends on a clock.

The graph is held as term strings, built from the store's triples once,
and can be overlaid with added and removed triples to describe the store
after a sequence of writes.
"""

from __future__ import annotations

from collections import defaultdict

#: Partial assignments a cyclic count may visit, or tuples an acyclic
#: message may touch, before the oracle gives up on the query.
WORK_CAP = 150_000


class TooCostly(Exception):
    """The oracle's fixed work budget ran out for this query."""


class Graph:
    """Forward and backward adjacency per predicate, over term strings."""

    def __init__(self, fwd: dict, bwd: dict):
        self.fwd = fwd  # p -> {s -> set(o)}
        self.bwd = bwd  # p -> {o -> set(s)}
        self._degrees: dict = {}

    @classmethod
    def from_triples(cls, triples) -> "Graph":
        fwd: dict = defaultdict(lambda: defaultdict(set))
        bwd: dict = defaultdict(lambda: defaultdict(set))
        for s, p, o in triples:
            fwd[p][s].add(o)
            bwd[p][o].add(s)
        return cls(
            {p: dict(m) for p, m in fwd.items()},
            {p: dict(m) for p, m in bwd.items()},
        )

    @classmethod
    def from_store(cls, store) -> "Graph":
        decode = store.dictionary.decode_many
        ids = list(store.triples())
        flat = decode([t for triple in ids for t in triple])
        return cls.from_triples(
            (flat[i], flat[i + 1], flat[i + 2]) for i in range(0, len(flat), 3)
        )

    def with_changes(self, added, removed) -> "Graph":
        """A new graph: this one plus ``added`` minus ``removed`` triples.

        Only the touched predicates' maps are copied; ``self`` is unchanged.
        """
        fwd = dict(self.fwd)
        bwd = dict(self.bwd)
        copied: set = set()

        def maps(p):
            if p not in copied:
                copied.add(p)
                fwd[p] = dict(fwd.get(p, {}))
                bwd[p] = dict(bwd.get(p, {}))
            return fwd[p], bwd[p]

        for s, p, o in removed:
            f, b = maps(p)
            if o in f.get(s, ()):
                f[s] = f[s] - {o}
                b[o] = b[o] - {s}
                if not f[s]:
                    del f[s]
                if not b[o]:
                    del b[o]
        for s, p, o in added:
            f, b = maps(p)
            f[s] = f.get(s, frozenset()) | {o}
            b[o] = b.get(o, frozenset()) | {s}
        return Graph(fwd, bwd)

    def has(self, s: str, p: str, o: str) -> bool:
        return o in self.fwd.get(p, {}).get(s, ())

    def num_triples(self) -> int:
        return sum(len(objs) for m in self.fwd.values() for objs in m.values())

    def degrees(self, p: str, forward: bool) -> dict:
        """``{node: number of neighbours}`` along ``p`` (memoized)."""
        key = (p, forward)
        cached = self._degrees.get(key)
        if cached is None:
            index = (self.fwd if forward else self.bwd).get(p, {})
            cached = {node: len(nbrs) for node, nbrs in index.items()}
            self._degrees[key] = cached
        return cached


class Oracle:
    """Answer sizes and row membership for all-variable CQs."""

    def __init__(self, graph: Graph, work_cap: int = WORK_CAP):
        self.graph = graph
        self.work_cap = work_cap

    def row_ok(self, edges, columns, row) -> bool:
        """Whether ``row`` (values for ``columns``) satisfies every edge."""
        if len(row) != len(columns):
            return False
        value = dict(zip(columns, row))
        has = self.graph.has
        return all(has(value[s], p, value[o]) for s, p, o in edges)

    def count(self, edges) -> int:
        """The exact answer size; raises :class:`TooCostly` past the cap."""
        if is_acyclic(edges):
            return self._count_tree(edges)
        ring = _ring4(edges)
        if ring is not None:
            return self._count_ring4(*ring)
        return self._count_search(edges)

    # -- acyclic: message passing ---------------------------------------

    def _count_tree(self, edges) -> int:
        adjacency = defaultdict(list)
        for s, p, o in edges:
            adjacency[s].append((p, o, True))
            adjacency[o].append((p, s, False))
        # Root at the busiest variable (first-appearance order breaks
        # ties), so the tree is shallow.
        order = _variables(edges)
        root = max(order, key=lambda v: (len(adjacency[v]), -order.index(v)))
        budget = [self.work_cap]
        weights = self._weights(root, None, adjacency, budget)
        return sum(weights.values())

    def _weights(self, var, parent, adjacency, budget) -> dict:
        """``{node: embeddings of var's subtree with var = node}``."""
        result = None
        for p, child, forward in adjacency[var]:
            if child == parent:
                continue
            message = self._message(p, child, forward, adjacency, var, budget)
            if result is None:
                result = message
            else:
                if len(message) < len(result):
                    result, message = message, result
                result = {
                    node: w * message[node]
                    for node, w in result.items()
                    if node in message
                }
            if not result:
                return {}
        return result

    def _message(self, p, child, forward, adjacency, var, budget) -> dict:
        """Per value of ``var``: weighted neighbours of ``child`` along p."""
        if len(adjacency[child]) == 1:
            return self.graph.degrees(p, forward)
        weights = self._weights(child, var, adjacency, budget)
        back = (self.graph.bwd if forward else self.graph.fwd).get(p, {})
        message: dict = defaultdict(int)
        for node, w in weights.items():
            nbrs = back.get(node, ())
            budget[0] -= len(nbrs) + 1
            if budget[0] < 0:
                raise TooCostly
            for nbr in nbrs:
                message[nbr] += w
        return message

    # -- 4-cycles (the diamond): pair counting -----------------------------

    def _neighbours(self, var, edge):
        """The index mapping a value of ``var`` to its neighbours on ``edge``."""
        s, p, _ = edge
        return (self.graph.fwd if s == var else self.graph.bwd).get(p, {})

    def _pairs(self, var, edge_a, edge_b, budget, keep=None) -> dict:
        """``{(a, b): #values of var adjacent to a on edge_a and b on edge_b}``."""
        index_a = self._neighbours(var, edge_a)
        index_b = self._neighbours(var, edge_b)
        if len(index_b) < len(index_a):
            domain = [v for v in index_b if v in index_a]
        else:
            domain = [v for v in index_a if v in index_b]
        budget[0] -= sum(len(index_a[v]) * len(index_b[v]) for v in domain)
        if budget[0] < 0:
            raise TooCostly
        pairs: dict = defaultdict(int)
        for value in domain:
            nbrs_a, nbrs_b = index_a[value], index_b[value]
            for a in nbrs_a:
                for b in nbrs_b:
                    if keep is None or (a, b) in keep:
                        pairs[a, b] += 1
        return pairs

    def _count_ring4(self, v0, e01, v2, e21, e03, e23) -> int:
        """Ring v0-v1-v2-v3-v0: sum over (v1, v3) of both halves' counts."""
        budget = [self.work_cap]
        left = self._pairs(v0, e01, e03, budget)
        right = self._pairs(v2, e21, e23, budget, keep=left)
        return sum(n * left[key] for key, n in right.items())

    # -- other cyclic shapes: backtracking --------------------------------

    def _count_search(self, edges) -> int:
        graph = self.graph
        first = min(
            range(len(edges)),
            key=lambda i: (len(graph.fwd.get(edges[i][1], {})), i),
        )
        s0, p0, o0 = edges[first]
        remaining = _variables(edges)
        budget = [self.work_cap]
        total = 0
        for s, objs in graph.fwd.get(p0, {}).items():
            for o in objs:
                if s0 == o0 and s != o:
                    continue
                binding = {s0: s, o0: o}
                total += self._extend(edges, binding, remaining, budget)
        return total

    def _extend(self, edges, binding, variables, budget) -> int:
        budget[0] -= 1
        if budget[0] < 0:
            raise TooCostly
        unbound = [v for v in variables if v not in binding]
        if not unbound:
            has = self.graph.has
            return int(all(has(binding[s], p, binding[o]) for s, p, o in edges))
        # Bind next the variable with the most bound neighbours.
        def links(v):
            return sum(
                1 for s, _, o in edges
                if (s == v and o in binding) or (o == v and s in binding)
            )

        var = max(unbound, key=links)
        candidates = None
        for s, p, o in edges:
            if s == var and o in binding:
                nbrs = self.graph.bwd.get(p, {}).get(binding[o], frozenset())
            elif o == var and s in binding:
                nbrs = self.graph.fwd.get(p, {}).get(binding[s], frozenset())
            else:
                continue
            candidates = set(nbrs) if candidates is None else candidates & nbrs
            if not candidates:
                return 0
        total = 0
        for value in candidates:
            binding[var] = value
            total += self._extend(edges, binding, variables, budget)
        del binding[var]
        return total


def _variables(edges) -> list:
    seen: list = []
    for s, _, o in edges:
        for v in (s, o):
            if v not in seen:
                seen.append(v)
    return seen


def _ring4(edges):
    """``(v0, e01, v2, e21, e03, e23)`` if ``edges`` form one 4-cycle."""
    variables = _variables(edges)
    if len(edges) != 4 or len(variables) != 4:
        return None
    incident = {v: [e for e in edges if v in (e[0], e[2])] for v in variables}
    if any(len(es) != 2 or es[0][0] == es[0][2] for es in incident.values()):
        return None
    v0 = variables[0]
    e01, e03 = incident[v0]
    v1 = e01[2] if e01[0] == v0 else e01[0]
    v3 = e03[2] if e03[0] == v0 else e03[0]
    if v1 == v3:
        return None
    (v2,) = [v for v in variables if v not in (v0, v1, v3)]
    e21 = next(e for e in incident[v2] if v1 in (e[0], e[2]))
    e23 = next(e for e in incident[v2] if v3 in (e[0], e[2]))
    return v0, e01, v2, e21, e03, e23


def is_acyclic(edges) -> bool:
    """Whether the undirected query graph (multi-edges count) is a forest."""
    parent: dict = {}

    def find(v):
        while parent.setdefault(v, v) != v:
            v = parent[v]
        return v

    for s, _, o in edges:
        a, b = find(s), find(o)
        if a == b:
            return False
        parent[a] = b
    return True


def check_response(oracle: Oracle, request, doc, expected_count: int,
                   limit: int) -> "str | None":
    """Why a decoded ``/v1/query`` response is wrong, or ``None`` if right.

    ``request`` carries ``edges``, ``columns`` and ``materialize``;
    ``doc`` is the response's ``result`` object.
    """
    if not isinstance(doc, dict):
        return "result is not an object"
    count = doc.get("count")
    if count != expected_count:
        return f"count {count!r} != oracle {expected_count}"
    rows = doc.get("rows")
    if not request.materialize:
        return None if rows is None else "count-only response carries rows"
    if not isinstance(rows, list):
        return "materialized response has no row list"
    want = min(expected_count, limit)
    if len(rows) != want:
        return f"{len(rows)} rows returned, expected {want}"
    seen = set()
    for row in rows:
        key = tuple(row) if isinstance(row, list) else None
        if key is None or key in seen:
            return f"duplicate or malformed row {row!r}"
        seen.add(key)
        if not oracle.row_ok(request.edges, request.columns, key):
            return f"row {row!r} is not an answer"
    return None
