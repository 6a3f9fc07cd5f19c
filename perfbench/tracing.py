"""Spans recorded from the benchmark's side of each layer boundary.

The benchmark does not instrument the program. It times calls into each
layer's public functions: the request pipeline below calls the wire,
service and serialization layers itself, and :meth:`Tracer.install`
wraps the planner, engine, catalog and term-decode entry points for the
length of a traced replay. Spans are kept in memory and written out when
the run ends. Replays issue one operation at a time, so one span stack
serves every thread (the service's worker thread runs while the caller
waits on its future).
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time

from inputs import ROW_LIMIT

#: (module, class or None, attribute, span name) wrapped while tracing.
LAYER_FUNCTIONS = (
    ("repro.core.engine", "WireframeEngine", "plan", "planner.plan"),
    ("repro.planner.edgifier", "Edgifier", "plan", "planner.edgifier"),
    ("repro.planner.triangulator", "Triangulator", "plan",
     "planner.triangulator"),
    ("repro.core.engine", "WireframeEngine", "evaluate_detailed",
     "core.evaluate"),
    ("repro.core.engine", None, "generate_answer_graph", "core.generation"),
    ("repro.stats.catalog", None, "build_catalog", "stats.catalog_build"),
    ("repro.engine_api", "EngineResult", "decoded_rows", "graph.decode"),
)

#: Server-side timeout the HTTP front end applies by default.
DEFAULT_TIMEOUT_S = 300.0


class Tracer:
    """An in-memory span recorder: (id, parent, name, start, end, request)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._request = None
        self._patched: list = []

    @contextlib.contextmanager
    def span(self, name: str, request=None):
        if request is not None:
            self._request = request
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, parent, name, start, end,
                                   self._request)

    def wrap(self, fn, name: str):
        span = self.span

        def traced(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every function in :data:`LAYER_FUNCTIONS`."""
        for module_name, class_name, attr, name in LAYER_FUNCTIONS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, self.wrap(original, name))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict:
        """``{name: [self seconds per span]}``: duration minus children."""
        child_time = [0.0] * len(self.spans)
        for _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict = {}
        for span_id, _, name, start, end, _ in self.spans:
            out.setdefault(name, []).append(end - start - child_time[span_id])
        return out

    def coverage(self) -> float:
        """Share of ``request`` spans' time that their direct children cover."""
        roots = {s[0]: s[4] - s[3] for s in self.spans
                 if s[2] == "request" and s[1] is None}
        covered = sum(end - start for _, parent, _, start, end, _ in self.spans
                      if parent in roots)
        total = sum(roots.values())
        return covered / total if total else 0.0

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            for span_id, parent, name, start, end, request in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end, "request": request,
                }) + "\n")


_NO_SPAN = contextlib.nullcontext()


def _untraced(name, request=None):
    return _NO_SPAN


def serve_one(service, body: bytes, tracer: "Tracer | None" = None,
              request=None):
    """One ``POST /v1/query`` through the layers the HTTP handler calls.

    Returns ``(reply bytes, EngineResult, seconds)``. Mirrors
    ``HTTPQueryServer._handle_query``: decode, submit under the server's
    default deadline, render the result with the default row limit.
    """
    from repro.server.wire import (
        API_VERSION,
        parse_json_body,
        parse_query_request,
    )
    from repro.utils.deadline import Deadline

    span = tracer.span if tracer is not None else _untraced
    started = time.perf_counter()
    with span("request", request):
        with span("wire.decode"):
            parsed = parse_query_request(
                parse_json_body(body), default_limit=ROW_LIMIT
            )
        with span("service.submit"):
            result = service.submit(
                parsed.query, Deadline(DEFAULT_TIMEOUT_S), parsed.materialize
            ).result()
        with span("server.serialize"):
            payload = {
                "api_version": API_VERSION,
                "query": parsed.query.name,
                "columns": [v.name for v in parsed.query.projection],
                "result": result.to_dict(
                    service.store.dictionary, limit=parsed.limit
                ),
            }
            data = json.dumps(payload).encode("utf-8")
    return data, result, time.perf_counter() - started
