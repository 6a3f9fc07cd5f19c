"""The generated inputs are a pure function of the seed."""

import pytest

import inputs


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(inputs, "HOT_POOL", 12)
    monkeypatch.setattr(inputs, "HOT_STREAM", 500)
    monkeypatch.setattr(inputs, "COLD_POOL", 20)
    monkeypatch.setattr(inputs, "WARMUP", 4)
    monkeypatch.setattr(inputs, "WRITE_OPS", 30)


def generate(seed, workdir):
    ds = inputs.Dataset(seed, str(workdir), scale=0.2)
    pool, stream = ds.hot()
    warmup, cold = ds.cold()
    ops = ds.writes(pool)
    return (
        inputs.stream_bytes(pool[i] for i in stream),
        inputs.stream_bytes(warmup + cold),
        repr(ops).encode(),
    )


def test_same_seed_gives_byte_identical_streams(small, tmp_path):
    first = generate(7, tmp_path / "a")
    second = generate(7, tmp_path / "b")
    assert first == second


def test_other_seed_gives_other_streams(small, tmp_path):
    assert generate(7, tmp_path / "a")[1] != generate(8, tmp_path / "b")[1]


def test_parts_do_not_depend_on_each_other(small, tmp_path):
    """A workload that builds only its own parts sees the same bytes."""
    ds = inputs.Dataset(7, str(tmp_path), scale=0.2)
    warmup, cold = ds.cold()
    assert inputs.stream_bytes(warmup + cold) == generate(7, tmp_path / "x")[1]


def test_screening_rule_holds(small, tmp_path):
    ds = inputs.Dataset(3, str(tmp_path), scale=0.2)
    warmup, cold = ds.cold()
    requests = warmup + cold
    assert len({r.sparql for r in requests}) == len(requests)
    for r in requests:
        assert 1 <= r.expected <= inputs.MAX_ROWS
        assert r.expected == ds.oracle.count(r.edges)


def test_writes_keep_the_store_size_steady(small, tmp_path):
    ds = inputs.Dataset(3, str(tmp_path), scale=0.2)
    pool, _ = ds.hot()
    ops = ds.writes(pool)
    assert len(ops) == inputs.WRITE_LIVE + inputs.WRITE_OPS
    live = set()
    for k, op in enumerate(ops):
        assert len(op.add) == inputs.WRITE_BATCH
        assert not live & set(op.add)
        assert not any(ds.graph.has(*t) for t in op.add)
        assert set(op.remove) <= live
        assert bool(op.remove) == (k >= inputs.WRITE_LIVE)
        live = (live - set(op.remove)) | set(op.add)
        if k >= inputs.WRITE_LIVE:
            assert len(live) == inputs.WRITE_LIVE * inputs.WRITE_BATCH
