"""Structured event tracing: a bounded ring buffer with span support.

Where the registry answers *how many / how long on average*, the trace
answers *where did this copyback come from*: every GC run, wear-leveling
migration, flusher round and transaction can emit begin/end events with
structured fields, timestamped in simulated time.  The buffer is a fixed
ring (old events fall off; a ``dropped`` counter records how many), so
tracing is always safe to leave enabled on multi-minute simulated runs.

Tracing is opt-in: a component built without a trace gets a disabled one
from :func:`trace_or_quiet`, whose spans still time their histograms but
emit nothing.  Pass an ``EventTrace()`` to a rig (or component) to record.

An optional JSONL sink streams every event to disk as it is emitted —
useful for post-mortem analysis of a single bench.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Callable, Deque, List, Optional, TextIO, Union

__all__ = ["TraceEvent", "EventTrace", "Span", "load_jsonl", "trace_or_quiet"]


class TraceEvent:
    """One structured event: a timestamp, a kind, and free-form fields."""

    __slots__ = ("ts", "kind", "fields")

    def __init__(self, ts: float, kind: str, fields: dict):
        self.ts = ts
        self.kind = kind
        self.fields = fields

    def as_dict(self) -> dict:
        return {"ts": self.ts, "kind": self.kind, **self.fields}

    def __repr__(self) -> str:
        return f"TraceEvent(ts={self.ts}, kind={self.kind!r}, fields={self.fields!r})"


class Span:
    """Context manager measuring one operation (GC run, flusher round,
    transaction) as a begin/end event pair plus an optional histogram
    observation of the duration.

    Works inside DES generators: ``with trace.span("gc.collect", ...):``
    around a ``yield from`` body times the simulated duration, and the
    ``finally`` semantics of ``with`` close the span even on interrupt.
    Extra fields discovered mid-span can be attached via :meth:`note`.

    Spans nest explicitly: pass ``parent=`` (a :class:`Span` or its id)
    and the begin/end events carry ``span``/``parent`` ids from which
    :func:`repro.telemetry.attribution.span_rollup` rebuilds the tree.
    There is deliberately no implicit "current span" — the DES interleaves
    processes, and an ambient stack would mis-parent spans.  A ``ctx=``
    (an :class:`~repro.telemetry.context.OpContext`) merges its identity
    fields (origin, path, txn/writer ids) into the events.

    On a disabled trace a span only times its histogram: no span id, no
    context fields, no events.
    """

    __slots__ = (
        "trace", "kind", "fields", "histogram", "start", "span_id",
        "parent_id",
    )

    def __init__(self, trace: "EventTrace", kind: str, histogram, fields: dict,
                 parent: Union["Span", int, None] = None, ctx=None):
        self.trace = trace
        self.kind = kind
        self.fields = fields
        self.histogram = histogram
        self.start = 0.0
        self.span_id = 0
        self.parent_id = parent.span_id if isinstance(parent, Span) else parent
        if ctx is not None and trace.enabled:
            for key, value in ctx.fields().items():
                self.fields.setdefault(key, value)

    def note(self, **fields) -> None:
        """Attach extra fields reported on the end event."""
        self.fields.update(fields)

    def __enter__(self) -> "Span":
        trace = self.trace
        self.start = trace.now()
        if trace.enabled:
            self.span_id = trace.next_span_id()
            if self.parent_id:
                self.fields.setdefault("parent", self.parent_id)
            trace.emit(self.kind + ":begin", span=self.span_id, **self.fields)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = self.trace.now() - self.start
        if self.span_id:
            fields = dict(self.fields)
            fields["duration_us"] = duration
            if exc_type is not None:
                fields["error"] = exc_type.__name__
            self.trace.emit(self.kind + ":end", span=self.span_id, **fields)
        if self.histogram is not None:
            self.histogram.observe(duration)


class EventTrace:
    """Bounded structured-event ring buffer.

    Parameters
    ----------
    capacity
        Events retained; older events are dropped (and counted).
    clock
        Simulated-time source; when absent, a logical sequence is used.
    sink
        Optional writable text stream receiving one JSON line per event
        as it happens (the ring still retains its window).
    enabled
        Tracing can be switched off wholesale; ``emit`` then costs one
        attribute check.
    """

    def __init__(
        self,
        capacity: int = 4096,
        clock: Optional[Callable[[], float]] = None,
        sink: Optional[TextIO] = None,
        enabled: bool = True,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.events: Deque[TraceEvent] = deque(maxlen=capacity)
        self.emitted = 0
        self.dropped = 0
        self.enabled = enabled
        self.sink = sink
        self._clock = clock
        self._seq = 0
        self._span_seq = 0

    def set_clock(self, clock: Optional[Callable[[], float]]) -> None:
        self._clock = clock

    def next_span_id(self) -> int:
        self._span_seq += 1
        return self._span_seq

    def now(self) -> float:
        if self._clock is not None:
            return self._clock()
        self._seq += 1
        return float(self._seq)

    # -- emission -------------------------------------------------------------

    def emit(self, kind: str, **fields) -> None:
        if not self.enabled:
            return
        event = TraceEvent(self.now(), kind, fields)
        if len(self.events) == self.capacity:
            self.dropped += 1
        self.events.append(event)
        self.emitted += 1
        if self.sink is not None:
            self.sink.write(json.dumps(event.as_dict(), default=str) + "\n")

    def span(self, kind: str, histogram=None, parent=None, ctx=None,
             **fields) -> Span:
        """Begin/end event pair timing one operation; see :class:`Span`."""
        return Span(self, kind, histogram, fields, parent=parent, ctx=ctx)

    # -- inspection / export --------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def summary(self) -> dict:
        return {
            "capacity": self.capacity,
            "retained": len(self.events),
            "emitted": self.emitted,
            "dropped": self.dropped,
        }


def trace_or_quiet(trace: Optional[EventTrace], clock: Callable[[], float]) -> EventTrace:
    """``trace``, or a disabled trace on ``clock`` when none was given.

    Components fall back to this, so a rig records events only when its
    builder hands it an enabled :class:`EventTrace`.
    """
    return trace if trace is not None else EventTrace(clock=clock, enabled=False)


def load_jsonl(path) -> List[dict]:
    """Load a trace written by a JSONL sink.

    ``path`` is a filename or an open text stream.  Returns the raw event
    dicts (``{"ts", "kind", **fields}``) — the form the attribution
    engine consumes, so saved traces replay through the exact same
    analysis code as live runs.
    """

    def _read(handle) -> List[dict]:
        events: List[dict] = []
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
        return events

    if hasattr(path, "read"):
        return _read(path)
    with open(path, "r", encoding="utf-8") as handle:
        return _read(handle)
