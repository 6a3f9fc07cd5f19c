"""Tests for defactorization (embedding generation from the AG)."""

import itertools

import pytest

from repro.core.defactorize import (
    count_embeddings,
    iter_embeddings,
    materialize_embeddings,
)
from repro.core.generation import generate_answer_graph
from repro.core.ideal import enumerate_embeddings_bruteforce
from repro.datasets.motifs import figure1_graph, figure1_query
from repro.errors import PlanError
from repro.graph.builder import store_from_edges
from repro.planner.plan import AGPlan
from repro.query.algebra import bind_query
from repro.query.model import ConjunctiveQuery
from repro.query.parser import parse_sparql


def make_ag(store, query, order=None):
    bound = bind_query(query, store)
    n = len(bound.edges)
    plan = AGPlan(tuple(order or range(n)), (0.0,) * n, 0.0)
    ag, _ = generate_answer_graph(bound, plan)
    return bound, ag


def test_fig1_embeddings_match_oracle():
    store = figure1_graph()
    bound, ag = make_ag(store, figure1_query())
    rows = sorted(iter_embeddings(ag))
    oracle = sorted(enumerate_embeddings_bruteforce(store, bound))
    assert rows == oracle
    assert len(rows) == 12


def test_join_order_immaterial_on_ideal_ag():
    """§3: with an iAG and an acyclic CQ, any connected order works."""
    store = figure1_graph()
    bound, ag = make_ag(store, figure1_query())
    reference = sorted(iter_embeddings(ag, (0, 1, 2)))
    for perm in itertools.permutations(range(3)):
        try:
            rows = sorted(iter_embeddings(ag, perm))
        except PlanError:
            continue  # disconnected orders rejected
        assert rows == reference, perm


def test_materialize_full_projection():
    store = figure1_graph()
    bound, ag = make_ag(store, figure1_query())
    rows = materialize_embeddings(ag)
    assert len(rows) == 12
    assert all(len(r) == 4 for r in rows)


def test_projection_and_distinct():
    store = figure1_graph()
    for var, node in (("?y", "9"), ("?x", "5")):
        q = parse_sparql(
            f"select distinct {var} where {{ ?w :A ?x . ?x :B ?y . ?y :C ?z }}"
        )
        bound, ag = make_ag(store, q)
        rows = materialize_embeddings(ag)
        assert rows == [(store.dictionary.lookup(node),)]
        assert count_embeddings(ag) == 1


def test_projection_without_distinct_keeps_duplicates():
    store = figure1_graph()
    q = parse_sparql("select ?y where { ?w :A ?x . ?x :B ?y . ?y :C ?z }")
    bound, ag = make_ag(store, q)
    rows = materialize_embeddings(ag)
    assert len(rows) == 12  # one per embedding
    assert count_embeddings(ag) == 12


def test_limit():
    store = figure1_graph()
    bound, ag = make_ag(store, figure1_query())
    assert len(materialize_embeddings(ag, limit=5)) == 5


def test_empty_ag_yields_nothing():
    store = store_from_edges({"A": [("1", "2")], "B": [("8", "9")]})
    bound, ag = make_ag(
        store, parse_sparql("select * where { ?x A ?y . ?y B ?z }")
    )
    assert ag.empty
    assert list(iter_embeddings(ag)) == []
    assert count_embeddings(ag) == 0
    assert materialize_embeddings(ag) == []


def test_constant_endpoints():
    store = store_from_edges({"A": [("1", "2"), ("3", "2")], "B": [("2", "5")]})
    q = parse_sparql("select * where { ?x A 2 . 2 B ?z }")
    bound, ag = make_ag(store, q)
    rows = sorted(iter_embeddings(ag))
    d = store.dictionary.lookup
    assert rows == sorted([(d("1"), d("5")), (d("3"), d("5"))])


def test_self_loop_defactorization():
    store = store_from_edges({"A": [("1", "1"), ("2", "3")], "B": [("1", "4")]})
    q = parse_sparql("select * where { ?x A ?x . ?x B ?y }")
    bound, ag = make_ag(store, q)
    d = store.dictionary.lookup
    assert list(iter_embeddings(ag)) == [(d("1"), d("4"))]


@pytest.mark.parametrize(
    "order",
    [(0, 1), (0, 2, 1), (0, 1, 1), (0, 1, 7)],
    ids=["incomplete", "cross-product", "repeated-edge", "out-of-range"],
)
def test_incomplete_order_rejected(order):
    """Every malformed hand-built order fails with one error type."""
    store = figure1_graph()
    bound, ag = make_ag(store, figure1_query())
    with pytest.raises(PlanError):
        list(iter_embeddings(ag, order))
    with pytest.raises(PlanError):
        materialize_embeddings(ag, order)
    with pytest.raises(PlanError):
        count_embeddings(ag, order)


def test_check_step_on_closing_edge():
    # Parallel edges: second edge acts as a filter step.
    store = store_from_edges(
        {"A": [("1", "2"), ("3", "4")], "B": [("1", "2")]}
    )
    q = ConjunctiveQuery([("?x", "A", "?y"), ("?x", "B", "?y")])
    bound, ag = make_ag(store, q)
    rows = list(iter_embeddings(ag))
    d = store.dictionary.lookup
    assert rows == [(d("1"), d("2"))]


def test_iterator_is_lazy():
    store = figure1_graph()
    bound, ag = make_ag(store, figure1_query())
    it = iter_embeddings(ag)
    first = next(it)
    assert len(first) == 4
