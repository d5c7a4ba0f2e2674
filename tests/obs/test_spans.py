"""Span nesting, Chrome-trace export, and the disabled fast path."""

import json
import threading

from repro.obs.registry import disable, enable, metrics_snapshot
from repro.obs.spans import (NULL_SPAN, clear_trace, span, trace_events,
                             write_trace)


def _events_named(name):
    return [e for e in trace_events() if e["name"] == name]


def test_span_records_complete_event():
    clear_trace()
    with span("test.outer", bench="gzip"):
        pass
    (event,) = _events_named("test.outer")
    assert event["ph"] == "X"
    assert event["ts"] >= 0
    assert event["dur"] >= 0
    assert event["args"]["bench"] == "gzip"
    assert event["args"]["depth"] == 0
    assert "parent" not in event["args"]


def test_span_nesting_depth_and_parent():
    clear_trace()
    with span("test.parent"):
        with span("test.child"):
            pass
    (child,) = _events_named("test.child")
    (parent,) = _events_named("test.parent")
    assert child["args"]["depth"] == 1
    assert child["args"]["parent"] == "test.parent"
    # The child completes first and fits inside the parent's window.
    assert child["ts"] >= parent["ts"]
    assert child["ts"] + child["dur"] <= parent["ts"] + parent["dur"] + 1e-3


def test_span_feeds_duration_histogram():
    with span("test.timed"):
        pass
    hist = metrics_snapshot()["histograms"]["span.test.timed.seconds"]
    assert hist["count"] >= 1
    assert hist["min"] >= 0


def test_span_records_exceptions():
    clear_trace()
    try:
        with span("test.raises"):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    (event,) = _events_named("test.raises")
    assert event["args"]["error"] == "RuntimeError"
    # The failed span left the stack: the next one is top-level again.
    with span("test.after"):
        pass
    (after,) = _events_named("test.after")
    assert after["args"]["depth"] == 0


def test_write_trace_loads_as_chrome_trace(tmp_path):
    clear_trace()
    with span("test.export"):
        pass
    path = tmp_path / "trace.json"
    write_trace(str(path))
    with open(path) as f:
        payload = json.load(f)
    assert isinstance(payload["traceEvents"], list)
    event = payload["traceEvents"][0]
    assert {"name", "ph", "ts", "dur", "pid", "tid"} <= set(event)


def test_disabled_returns_shared_null_span():
    disable()
    try:
        s = span("test.disabled")
        assert s is NULL_SPAN
        assert span("test.other") is s  # no allocation on the fast path
        clear_trace()
        with s:
            pass
        assert trace_events() == []
    finally:
        enable()


def test_spans_are_thread_local():
    clear_trace()

    def worker():
        with span("test.thread"):
            pass

    with span("test.main"):
        t = threading.Thread(target=worker)
        t.start()
        t.join()
        # The other thread's span never leaked onto this stack.
        with span("test.joined"):
            pass
    (joined,) = _events_named("test.joined")
    assert joined["args"]["parent"] == "test.main"
    (event,) = _events_named("test.thread")
    assert event["args"]["depth"] == 0
    assert "parent" not in event["args"]


def test_extend_trace_appends_foreign_events():
    from repro.obs.spans import extend_trace, trace_events

    clear_trace()
    with span("test.local"):
        pass
    foreign = [{"name": "test.foreign", "cat": "repro", "ph": "X",
                "ts": 1.0, "dur": 2.0, "pid": 999, "tid": 1, "args": {}}]
    extend_trace(foreign)
    names = [e["name"] for e in trace_events()]
    assert "test.local" in names
    assert "test.foreign" in names
