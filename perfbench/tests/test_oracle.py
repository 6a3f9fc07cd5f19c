"""The oracle counts exactly and the checker rejects wrong replies."""

import itertools
from types import SimpleNamespace

import pytest

from oracle import Graph, Oracle, TooCostly, check_response

TRIPLES = [
    ("a", "p", "b"), ("a", "p", "c"), ("d", "p", "b"),
    ("b", "q", "e"), ("c", "q", "e"), ("c", "q", "f"),
    ("a", "r", "e"), ("d", "r", "e"), ("d", "r", "f"),
    ("e", "s", "a"),
]


def brute_force(graph_triples, edges):
    variables = sorted({v for s, _, o in edges for v in (s, o)})
    nodes = sorted({t for s, _, o in graph_triples for t in (s, o)})
    triples = set(graph_triples)
    return sum(
        all((b[s], p, b[o]) in triples for s, p, o in edges)
        for values in itertools.product(nodes, repeat=len(variables))
        for b in [dict(zip(variables, values))]
    )


@pytest.mark.parametrize("edges", [
    [("x", "p", "y"), ("y", "q", "z")],  # chain
    [("x", "p", "y"), ("x", "r", "z"), ("y", "q", "w")],  # tree
    [("x", "p", "e"), ("x", "r", "z"), ("y", "p", "e"), ("y", "r", "z")],
    [("x", "p", "y"), ("y", "q", "z"), ("x", "r", "z")],  # triangle
    [("x", "r", "y"), ("y", "s", "x")],  # 2-cycle
])
def test_count_matches_brute_force(edges):
    oracle = Oracle(Graph.from_triples(TRIPLES))
    assert oracle.count(edges) == brute_force(TRIPLES, edges)


def test_count_follows_overlaid_writes():
    base = Graph.from_triples(TRIPLES)
    added = [("g", "p", "b")]
    removed = [("a", "p", "c")]
    changed = base.with_changes(added, removed)
    after = [t for t in TRIPLES if t not in removed] + added
    edges = [("x", "p", "y"), ("y", "q", "z")]
    assert Oracle(changed).count(edges) == brute_force(after, edges)
    assert Oracle(base).count(edges) == brute_force(TRIPLES, edges)


def test_work_cap_is_deterministic():
    oracle = Oracle(Graph.from_triples(TRIPLES), work_cap=1)
    with pytest.raises(TooCostly):
        oracle.count([("x", "p", "y"), ("y", "q", "z"), ("x", "r", "z")])


EDGES = (("x", "p", "y"), ("y", "q", "z"))
REQUEST = SimpleNamespace(edges=EDGES, columns=("x", "y", "z"),
                          materialize=True)
ANSWERS = [["a", "b", "e"], ["a", "c", "e"], ["a", "c", "f"], ["d", "b", "e"]]


def check(rows, count=4, limit=100, request=REQUEST):
    oracle = Oracle(Graph.from_triples(TRIPLES))
    return check_response(oracle, request, {"count": count, "rows": rows},
                          4, limit)


def test_checker_accepts_the_right_answer():
    assert check(ANSWERS) is None
    assert check(ANSWERS[:2], limit=2) is None


def test_checker_rejects_a_wrong_count():
    assert "count" in check(ANSWERS, count=5)


def test_checker_rejects_a_foreign_row():
    assert "not an answer" in check(ANSWERS[:3] + [["d", "c", "e"]])


def test_checker_rejects_a_duplicate_row():
    assert "duplicate" in check(ANSWERS[:3] + [ANSWERS[0]])


def test_checker_rejects_a_short_or_long_page():
    assert "rows returned" in check(ANSWERS[:3])
    assert "rows returned" in check(ANSWERS[:3], limit=2)


def test_count_only_reply_carries_no_rows():
    request = SimpleNamespace(edges=EDGES, columns=("x", "y", "z"),
                              materialize=False)
    assert check(None, request=request) is None
    assert "carries rows" in check(ANSWERS, request=request)
