"""Traced replays record nested spans that cover each request."""

import json

import pytest

from tracing import LAYER_FUNCTIONS, Tracer, serve_one


@pytest.fixture
def service():
    from repro.graph.builder import GraphBuilder
    from repro.service import QueryService

    builder = GraphBuilder()
    for i in range(30):
        builder.edge(f"a{i}", "p", f"b{i % 7}")
        builder.edge(f"b{i % 7}", "q", f"c{i % 5}")
        builder.edge(f"a{i}", "r", f"c{i % 5}")
    with QueryService(builder.build(freeze=True)) as svc:
        yield svc


CHAIN = b'{"sparql": "select distinct ?x, ?y, ?z where { ?x p ?y . ?y q ?z . }"}'
CYCLE = (b'{"sparql": "select distinct ?x, ?y, ?z where '
         b'{ ?x p ?y . ?y q ?z . ?x r ?z . }", "materialize": false}')


def traced_run(service, bodies):
    tracer = Tracer()
    tracer.install()
    try:
        for i, body in enumerate(bodies):
            serve_one(service, body, tracer, i)
    finally:
        tracer.uninstall()
    return tracer


def test_spans_nest_inside_their_parents(service):
    tracer = traced_run(service, [CHAIN, CYCLE, CHAIN])
    by_id = {s[0]: s for s in tracer.spans}
    for span_id, parent, name, start, end, request in tracer.spans:
        assert start <= end
        if parent is None:
            assert name == "request"
            continue
        _, _, _, p_start, p_end, p_request = by_id[parent]
        assert p_start <= start and end <= p_end, name
        assert request == p_request


def test_spans_cover_the_request(service):
    tracer = traced_run(service, [CHAIN, CYCLE, CHAIN])
    names = {s[2] for s in tracer.spans}
    assert {"wire.decode", "service.submit", "server.serialize",
            "planner.plan", "planner.edgifier", "planner.triangulator",
            "core.evaluate", "core.generation", "graph.decode"} <= names
    assert tracer.coverage() >= 0.9
    assert [s[5] for s in tracer.spans if s[2] == "request"] == [0, 1, 2]


def test_self_time_excludes_children(service):
    tracer = traced_run(service, [CHAIN])
    self_times = tracer.self_times()
    (request,) = [s for s in tracer.spans if s[2] == "request"]
    total = sum(sum(v) for v in self_times.values())
    assert total == pytest.approx(request[4] - request[3], rel=1e-6)


def test_uninstall_restores_the_layer_functions(service):
    import importlib

    def current():
        out = []
        for module, cls, attr, _ in LAYER_FUNCTIONS:
            owner = importlib.import_module(module)
            owner = getattr(owner, cls) if cls else owner
            out.append(owner.__dict__[attr])
        return out

    before = current()
    traced_run(service, [CHAIN])
    assert current() == before


def test_untraced_reply_matches_traced_reply(service, tmp_path):
    plain = json.loads(serve_one(service, CHAIN)[0])
    tracer = traced_run(service, [CHAIN])
    assert plain["result"]["count"] > 0
    tracer.dump(str(tmp_path / "spans.jsonl"))
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert len(lines) == len(tracer.spans)
    assert {"id", "parent", "name", "start", "end", "request"} == set(
        json.loads(lines[0]))


def test_replay_pairs_a_traced_and_an_untraced_service(service):
    from repro.service import QueryService

    from workloads import replay

    store = service.store
    events = [("read", CHAIN, 0), ("read", CYCLE, 1), ("read", CHAIN, 2)]
    layers, untraced = replay(lambda tracer: QueryService(store), events,
                              Tracer())
    assert len(untraced) == 3
    assert layers["trace.span_coverage"] >= 0.9
    assert layers["wire.decode_ms.p50"] > 0
    assert layers["planner.edgifier_ms.p50"] > 0
