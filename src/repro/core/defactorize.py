"""Phase 2: defactorization — generating embeddings from the AG.

"The embedding tuples are then generated over the answer graph by
joining the answer edges appropriately. Given the ideal answer graph
and an acyclic CQ, the order in which we join is immaterial. No k-ary
tuple is ever eliminated during a join with a next query edge from the
iAG." — §3

The joins run *over the answer graph*, never the data graph: this is
the whole point of factorization. Embeddings are produced by an
iterative backtracking enumerator over the AG's per-edge adjacency
indexes; with an ideal AG and an acyclic query the enumerator never
backtracks off a dead branch, so enumeration is output-linear.

The join order is an :class:`~repro.planner.plan.EmbeddingPlan` (any
connected order is valid; for non-ideal AGs or cyclic queries order
affects the intermediate work, which is why the embedding planner
exists).
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from repro.core.answer_graph import AnswerGraph
from repro.errors import PlanError
from repro.planner.plan import validate_connected_order
from repro.utils.deadline import Deadline

_MISSING = -1  # assignment slots hold node ids (>= 0) or _MISSING


def _compile_steps(
    ag: AnswerGraph, order: Sequence[int]
) -> list[Callable[[list[int]], Iterator[None]]]:
    """One generator-factory per plan step, closed over the AG indexes.

    Each factory takes the (mutable) assignment array and yields once
    per local match, having written any newly-bound variables into the
    array. Variables are "assigned" in plan order, so a step statically
    knows which of its endpoints are already bound.
    """
    bound_query = ag.bound
    steps: list[Callable[[list[int]], Iterator[None]]] = []
    assigned: set[int] = set()

    for eid in order:
        edge = bound_query.edges[eid]
        rel = ("e", eid)
        fwd = ag.src.get(rel)
        bwd = ag.dst.get(rel)
        if fwd is None or bwd is None:
            raise PlanError(f"edge {eid} was never materialized in the AG")
        s_var, o_var = edge.s_var, edge.o_var
        s_known = s_var is None or s_var in assigned  # consts are "known"
        o_known = o_var is None or o_var in assigned
        s_const, o_const = edge.s_const, edge.o_const

        if s_var is not None and s_var == o_var:
            var = s_var
            if s_known:
                steps.append(_make_check_self(fwd, var))
            else:
                steps.append(_make_scan_self(fwd, var))
                assigned.add(var)
            continue

        if s_known and o_known:
            steps.append(_make_check(fwd, s_var, s_const, o_var, o_const))
        elif s_known:
            assert o_var is not None
            steps.append(_make_expand_fwd(fwd, s_var, s_const, o_var))
            assigned.add(o_var)
        elif o_known:
            assert s_var is not None
            steps.append(_make_expand_bwd(bwd, o_var, o_const, s_var))
            assigned.add(s_var)
        else:
            # Neither endpoint bound: only legal as the very first step
            # of a connected order (or an isolated component, which
            # validate_connected_order rejects).
            steps.append(_make_scan(fwd, s_var, o_var))
            if s_var is not None:
                assigned.add(s_var)
            if o_var is not None:
                assigned.add(o_var)
    return steps


# Step factories are module-level functions returning closures so each
# captures only the locals it needs (faster than attribute lookups in
# the enumeration hot loop).


def _make_scan(fwd, s_var, o_var):
    def step(assignment):
        for s, objs in fwd.items():
            if s_var is not None:
                assignment[s_var] = s
            for o in objs:
                if o_var is not None:
                    assignment[o_var] = o
                yield

    return step


def _make_scan_self(fwd, var):
    def step(assignment):
        for s in fwd:  # pairs are (n, n) by construction
            assignment[var] = s
            yield

    return step


def _make_check_self(fwd, var):
    def step(assignment):
        node = assignment[var]
        objs = fwd.get(node)
        if objs is not None and node in objs:
            yield

    return step


def _make_expand_fwd(fwd, s_var, s_const, o_var):
    if s_var is not None:

        def step(assignment):
            objs = fwd.get(assignment[s_var])
            if objs:
                for o in objs:
                    assignment[o_var] = o
                    yield

    else:

        def step(assignment):
            objs = fwd.get(s_const)
            if objs:
                for o in objs:
                    assignment[o_var] = o
                    yield

    return step


def _make_expand_bwd(bwd, o_var, o_const, s_var):
    if o_var is not None:

        def step(assignment):
            subs = bwd.get(assignment[o_var])
            if subs:
                for s in subs:
                    assignment[s_var] = s
                    yield

    else:

        def step(assignment):
            subs = bwd.get(o_const)
            if subs:
                for s in subs:
                    assignment[s_var] = s
                    yield

    return step


def _make_check(fwd, s_var, s_const, o_var, o_const):
    def step(assignment):
        s = assignment[s_var] if s_var is not None else s_const
        o = assignment[o_var] if o_var is not None else o_const
        objs = fwd.get(s)
        if objs is not None and o in objs:
            yield

    return step


def iter_embeddings(
    ag: AnswerGraph,
    order: Sequence[int] | None = None,
    deadline: Deadline | None = None,
) -> Iterator[tuple[int, ...]]:
    """Enumerate full embeddings (one node id per query variable).

    ``order`` is the join order over query-edge indexes (defaults to
    plan-free textual order, which is valid whenever the query is
    connected). Yields tuples aligned with ``bound.var_names``. Raises
    :class:`~repro.errors.PlanError` for any malformed order: one that
    misses, repeats or invents an edge, or has a disconnected prefix.
    """
    bound = ag.bound
    if deadline is None:
        deadline = Deadline.unlimited()
    if ag.empty:
        return
    n = len(bound.edges)
    if order is None:
        order = tuple(range(n))
    if len(order) != n or not all(0 <= eid < n for eid in order):
        raise PlanError(
            f"embedding order {tuple(order)!r} must cover every query edge "
            f"0..{n - 1}"
        )
    try:
        validate_connected_order(order, [e.term_tokens() for e in bound.edges])
    except ValueError as exc:
        raise PlanError(str(exc)) from exc

    steps = _compile_steps(ag, order)
    assignment: list[int] = [_MISSING] * bound.num_vars
    last = len(steps) - 1
    iters: list[Iterator[None] | None] = [None] * len(steps)
    iters[0] = steps[0](assignment)
    depth = 0
    check = deadline.check
    while depth >= 0:
        it = iters[depth]
        assert it is not None
        advanced = False
        for _ in it:
            advanced = True
            break
        if not advanced:
            depth -= 1
            continue
        check()
        if depth == last:
            yield tuple(assignment)
        else:
            depth += 1
            iters[depth] = steps[depth](assignment)


def materialize_embeddings(
    ag: AnswerGraph,
    order: Sequence[int] | None = None,
    deadline: Deadline | None = None,
    limit: int | None = None,
) -> list[tuple[int, ...]]:
    """All projected result rows (respecting projection and DISTINCT)."""
    bound = ag.bound
    projection = bound.projection
    full = len(projection) == bound.num_vars and projection == tuple(
        range(bound.num_vars)
    )
    rows: list[tuple[int, ...]] = []
    if bound.distinct and not full:
        seen: set[tuple[int, ...]] = set()
        for emb in iter_embeddings(ag, order, deadline):
            row = tuple(emb[i] for i in projection)
            if row not in seen:
                seen.add(row)
                rows.append(row)
                if limit is not None and len(rows) >= limit:
                    break
        return rows
    for emb in iter_embeddings(ag, order, deadline):
        rows.append(emb if full else tuple(emb[i] for i in projection))
        if limit is not None and len(rows) >= limit:
            break
    return rows


def count_embeddings(
    ag: AnswerGraph,
    order: Sequence[int] | None = None,
    deadline: Deadline | None = None,
) -> int:
    """Number of projected result rows without materializing them all.

    (With DISTINCT and a proper projection a set of projected rows must
    still be kept; full-projection counts run in constant memory.)
    """
    bound = ag.bound
    projection = bound.projection
    full = len(projection) == bound.num_vars and projection == tuple(
        range(bound.num_vars)
    )
    if bound.distinct and not full:
        seen: set[tuple[int, ...]] = set()
        for emb in iter_embeddings(ag, order, deadline):
            seen.add(tuple(emb[i] for i in projection))
        return len(seen)
    count = 0
    for _ in iter_embeddings(ag, order, deadline):
        count += 1
    return count
