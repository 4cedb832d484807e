"""Span recording, self-time computation and shim installation."""

import threading

import pytest

import layers
from layers import Span, Tracer


def _span(name, start, end, parent=None, request=1, **tags):
    span = Span(name, start, parent, request)
    span.end = end
    for key, value in tags.items():
        span.tag(key, value)
    return span


def test_covered_seconds_merges_and_clips():
    assert layers.covered_seconds([(1, 4), (3, 6)], 0, 10) == pytest.approx(5)
    assert layers.covered_seconds([(-2, 1), (9, 12)], 0, 10) == pytest.approx(2)
    assert layers.covered_seconds([(1, 2), (5, 6)], 0, 10) == pytest.approx(2)
    assert layers.covered_seconds([], 0, 10) == 0


def test_self_time_on_a_hand_built_tree():
    root = _span("query.execute", 0.0, 10.0)
    # two children that ran concurrently on pool threads and overlap
    left = _span("core.block", 1.0, 4.0, parent=root)
    right = _span("core.block", 3.0, 6.0, parent=root)
    leaf = _span("stats.normal_quantile", 2.0, 3.0, parent=left)
    own = layers.self_seconds([root, left, right, leaf])
    assert own[id(root)] == pytest.approx(5.0)  # 10 - union(1..6)
    assert own[id(left)] == pytest.approx(2.0)
    assert own[id(right)] == pytest.approx(3.0)
    assert own[id(leaf)] == pytest.approx(1.0)


def test_wrap_records_parent_and_request():
    tracer = Tracer()
    inner = tracer.wrap(lambda: threading.current_thread().name, "inner")
    outer = tracer.wrap(lambda: inner(), "outer")
    outer()
    outer()
    first_inner, first_outer, second_inner, second_outer = tracer.spans
    assert first_inner.parent is first_outer
    assert first_outer.parent is None
    assert first_inner.request == first_outer.request
    assert second_outer.request != first_outer.request
    assert first_outer.start <= first_inner.start <= first_inner.end <= first_outer.end


def test_wrap_records_a_span_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap(boom, "boom")()
    assert [span.name for span in tracer.spans] == ["boom"]


def test_install_patches_and_restores_every_target():
    import repro.query.engine as engine
    from repro.storage.persist import DurableBlockStore

    original_parse = engine.parse_query
    original_open = DurableBlockStore.__dict__["open"]
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert engine.parse_query is not original_parse
        assert isinstance(DurableBlockStore.__dict__["open"], classmethod)
        engine.parse_query("SELECT AVG(value) FROM t PRECISION 0.5")
    finally:
        tracer.uninstall()
    assert engine.parse_query is original_parse
    assert DurableBlockStore.__dict__["open"] is original_open
    assert [span.name for span in tracer.spans] == ["query.parse"]


def test_missing_targets_are_reported_not_fatal():
    tracer = Tracer()
    tracer.install([("repro.query.engine", "no_such_entry_point", "x", None)])
    tracer.uninstall()
    assert tracer.missing == ["repro.query.engine.no_such_entry_point"]


def test_layer_metrics_from_hand_built_spans():
    hit = _span("serve.request", 0.0, 0.001, request=1, cache_hit=True)
    lookup = _span("serve.cache.lookup", 0.0002, 0.0004, parent=hit, request=1)
    miss = _span("serve.request", 1.0, 1.010, request=2, cache_hit=False)
    execute = _span("engine.execute_plan", 1.001, 1.009, parent=miss, request=2)
    block = _span("core.block", 1.002, 1.006, parent=execute, request=2,
                  case="case2", iterations=7)
    metrics = layers.layer_metrics([hit, lookup, miss, execute, block], queries=2)
    assert metrics["core.cache_hit.self_ms"] == 0.0
    assert metrics["serve.cache.lookup.self_ms"] == pytest.approx(0.1)
    assert metrics["serve.execute.wall_ms"] == pytest.approx(4.0)
    assert metrics["core.block.self_ms"] == pytest.approx(2.0)
    assert metrics["core.block.calls"] == pytest.approx(0.5)
    assert metrics["core.iterations"] == pytest.approx(3.5)
    assert metrics["core.case.2"] == pytest.approx(0.5)
    assert metrics["parallel.scan.wall_ms"] == 0.0
