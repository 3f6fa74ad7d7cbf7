"""Span-based tracer: explicit perf_counter_ns start/stop with parent ids.

Spans are process-local (fleet workers trace into their own buffers,
which are not shipped back — metrics are the cross-process signal; traces
are for the coordinating process, which is where lowering, compile,
scheduling, and merge time lives).  The buffer is bounded so a long-lived
service cannot grow without limit; overflow increments
``repro_obs_spans_dropped_total`` and drops the span.

Export formats:

- JSONL, one span per line:
  ``{"id", "parent", "name", "ts_ns", "dur_ns", "pid", "args"}``
- Chrome ``trace_event`` JSON (``repro trace --chrome``): complete events
  (``"ph": "X"``) loadable in chrome://tracing or Perfetto for a
  flamegraph view.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from time import perf_counter_ns

from . import metrics

__all__ = [
    "Tracer",
    "active_tracer",
    "chrome_trace",
    "disable_tracing",
    "enable_tracing",
    "load_jsonl",
    "span",
    "summarize_spans",
]

DEFAULT_MAX_SPANS = 200_000


class Tracer:
    """Collects completed spans; thread-safe, bounded."""

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS):
        self.max_spans = max_spans
        self.spans: list[dict] = []
        self.dropped = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **args):
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = perf_counter_ns()
        try:
            yield span_id
        finally:
            dur = perf_counter_ns() - start
            stack.pop()
            record = {
                "id": span_id,
                "parent": parent,
                "name": name,
                "ts_ns": start,
                "dur_ns": dur,
                "pid": os.getpid(),
            }
            if args:
                record["args"] = args
            with self._lock:
                if len(self.spans) < self.max_spans:
                    self.spans.append(record)
                else:
                    self.dropped += 1
                    metrics.counter("repro_obs_spans_dropped_total").inc()

    def write_jsonl(self, path) -> int:
        """Append-free full dump; returns the number of spans written."""
        with self._lock:
            spans = list(self.spans)
        with open(path, "w") as fh:
            for record in spans:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        return len(spans)


_TRACER: Tracer | None = None


@contextmanager
def _NULL(name=None, **args):
    # Must be a real generator (not a wrapped iterator): __exit__ calls
    # gen.throw() to propagate exceptions raised inside the with-block.
    yield None


def enable_tracing(max_spans: int = DEFAULT_MAX_SPANS) -> Tracer:
    global _TRACER
    if _TRACER is None:
        _TRACER = Tracer(max_spans=max_spans)
    return _TRACER


def disable_tracing() -> None:
    global _TRACER
    _TRACER = None


def active_tracer() -> Tracer | None:
    return _TRACER


def span(name: str, **args):
    """Module-level span helper; a null context when tracing is off."""
    tracer = _TRACER
    if tracer is None:
        return _NULL()
    return tracer.span(name, **args)


# --- export / analysis -------------------------------------------------------


def load_jsonl(path) -> list[dict]:
    spans = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                spans.append(json.loads(line))
    return spans


def chrome_trace(spans: list[dict]) -> dict:
    """Convert JSONL spans to Chrome trace_event complete events."""
    events = []
    for record in spans:
        event = {
            "name": record["name"],
            "ph": "X",
            "ts": record["ts_ns"] / 1000.0,  # trace_event wants microseconds
            "dur": record["dur_ns"] / 1000.0,
            "pid": record.get("pid", 0),
            "tid": record.get("pid", 0),
            "cat": record["name"].split(".", 1)[0],
        }
        if record.get("args"):
            event["args"] = record["args"]
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def summarize_spans(spans: list[dict]) -> list[dict]:
    """Aggregate by name: count, total/self wall time — for `repro trace`."""
    by_id = {record["id"]: record for record in spans}
    child_time: dict[int, int] = {}
    for record in spans:
        parent = record.get("parent")
        if parent is not None and parent in by_id:
            child_time[parent] = child_time.get(parent, 0) + record["dur_ns"]
    agg: dict[str, dict] = {}
    for record in spans:
        row = agg.setdefault(
            record["name"],
            {"name": record["name"], "count": 0, "total_ns": 0, "self_ns": 0},
        )
        row["count"] += 1
        row["total_ns"] += record["dur_ns"]
        row["self_ns"] += record["dur_ns"] - child_time.get(record["id"], 0)
    return sorted(agg.values(), key=lambda row: -row["total_ns"])
