"""The structured-event bus and tracing-span recorder.

One :class:`Recorder` instance owns everything a run observes: a stream
of structured events, a stack of nested spans (context managers that
measure wall *and* CPU time), and a :class:`~repro.obs.metrics.MetricsRegistry`.
Sinks subscribe to the event stream; the JSONL sink in
:mod:`repro.obs.sinks` writes each record as one line.

Span nesting is per thread: each thread keeps its own stack of open
spans, so a span opened on one thread never takes its parent from a
span still open on another (the service opens spans on its HTTP and
dispatch threads at once).

Observability is **off by default**.  The module-level API in
:mod:`repro.obs` dispatches to a process-global recorder which starts as
the :data:`NULL_RECORDER` — a shared no-op object whose ``span()``
returns a reusable null context manager and whose metric lookups return
no-op instruments.  Instrumented code therefore costs a dict-free
attribute call per site when disabled, and the hot per-sample loops
additionally guard with ``obs.enabled()`` and aggregate counts locally.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs import tracecontext
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

#: Record kinds emitted on the event bus.
KIND_EVENT = "event"
KIND_SPAN = "span"

#: Label stamped on trace-context-annotated records so the cluster
#: collector can say which process a span ran in ("router", "shard-0",
#: "shard-0.worker1", ...).  Module-global: one process, one label.
_process_label = "main"


def set_process_label(label: str) -> str:
    """Name this process in cross-process traces; returns the old label."""
    global _process_label
    previous = _process_label
    _process_label = str(label)
    return previous


def process_label() -> str:
    """The label cross-process trace records carry for this process."""
    return _process_label


class Span:
    """One live tracing span; used as a context manager.

    Measures wall time (``time.perf_counter``) and process CPU time
    (``time.process_time``); on exit it emits a single ``"span"`` record
    carrying the start timestamp, duration, CPU time, nesting links and
    any fields attached at creation or later via :meth:`set`.
    """

    __slots__ = (
        "recorder", "name", "fields", "span_id", "parent_id",
        "started_at", "_perf0", "_cpu0", "status",
        "trace_id", "span_ref", "parent_ref",
    )

    def __init__(
        self,
        recorder: "Recorder",
        name: str,
        span_id: int,
        parent_id: Optional[int],
        fields: Dict[str, Any],
    ) -> None:
        self.recorder = recorder
        self.name = name
        self.fields = fields
        self.span_id = span_id
        self.parent_id = parent_id
        self.started_at = 0.0
        self._perf0 = 0.0
        self._cpu0 = 0.0
        self.status = "ok"
        self.trace_id: Optional[str] = None
        self.span_ref: Optional[str] = None
        self.parent_ref: Optional[str] = None

    def set(self, **fields: Any) -> "Span":
        """Attach fields discovered mid-span (e.g. result sizes)."""
        self.fields.update(fields)
        return self

    def __enter__(self) -> "Span":
        self.recorder._stack.ids.append(self.span_id)
        # Under an active trace scope (thread-local), claim a globally
        # unique ref so this span stays linkable across process
        # boundaries; single-process traces skip this entirely.
        link = tracecontext.begin_span()
        if link is not None:
            self.trace_id, self.span_ref, self.parent_ref = link
        self.started_at = time.time()
        self._cpu0 = time.process_time()
        self._perf0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        wall = time.perf_counter() - self._perf0
        cpu = time.process_time() - self._cpu0
        stack = self.recorder._stack.ids
        if stack and stack[-1] == self.span_id:
            stack.pop()
        if self.span_ref is not None:
            tracecontext.end_span(self.span_ref)
        if exc_type is not None:
            self.status = "error"
            self.fields.setdefault("error", exc_type.__name__)
        record = {
            "kind": KIND_SPAN,
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "t": self.started_at,
            "duration_s": wall,
            "cpu_s": cpu,
            "status": self.status,
            "fields": self.fields,
        }
        if self.trace_id is not None:
            record["trace_id"] = self.trace_id
            record["span_ref"] = self.span_ref
            record["parent_ref"] = self.parent_ref
            record["process"] = _process_label
        self.recorder._emit(record)


class _NullSpan:
    """Reusable no-op span for the disabled path."""

    __slots__ = ()

    def set(self, **fields: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


class _NullInstrument:
    """No-op stand-in for Counter/Gauge/Histogram when disabled."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        return None

    def dec(self, amount: float = 1.0) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None


_NULL_SPAN = _NullSpan()
_NULL_INSTRUMENT = _NullInstrument()


class NullRecorder:
    """The default, disabled recorder: every operation is a no-op."""

    enabled = False

    def span(self, name: str, **fields: Any) -> _NullSpan:
        return _NULL_SPAN

    def current_span(self) -> Optional[int]:
        return None

    def parent_scope(self, span_id: Optional[int]):
        return contextlib.nullcontext()

    def event(self, name: str, **fields: Any) -> None:
        return None

    def counter(self, name: str, **labels: object) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels: object) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, **labels: object) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def flush(self) -> None:
        return None

    def close(self) -> None:
        return None


NULL_RECORDER = NullRecorder()


class _ThreadStack(threading.local):
    """The calling thread's open span ids, innermost last."""

    def __init__(self) -> None:
        self.ids: List[int] = []


class Recorder:
    """A live recorder: events, nested spans, and a metrics registry.

    Args:
        sinks: Objects with a ``write(record: dict)`` method (and
            optionally ``flush()``/``close()``); each emitted record is
            fanned out to every sink.
        keep_records: Also buffer records in memory (``records``
            attribute) so tests and in-process reporting can read the
            trace without a file round-trip.  On by default; disable for
            very long runs writing to a file sink.
    """

    enabled = True

    def __init__(self, sinks: Tuple = (), keep_records: bool = True) -> None:
        self.metrics = MetricsRegistry()
        self.records: List[Dict[str, Any]] = []
        self._sinks = list(sinks)
        self._keep = keep_records
        self._stack = _ThreadStack()
        self._span_ids = itertools.count(1)

    # Event bus -----------------------------------------------------------

    def add_sink(self, sink) -> None:
        self._sinks.append(sink)

    def remove_sink(self, sink) -> None:
        """Detach a sink added with :meth:`add_sink` (no-op if absent)."""
        try:
            self._sinks.remove(sink)
        except ValueError:
            pass

    def _emit(self, record: Dict[str, Any]) -> None:
        if self._keep:
            self.records.append(record)
        for sink in self._sinks:
            sink.write(record)

    def event(self, name: str, **fields: Any) -> None:
        """Emit one structured event, linked to the enclosing span."""
        stack = self._stack.ids
        record = {
            "kind": KIND_EVENT,
            "name": name,
            "span_id": None,
            "parent_id": stack[-1] if stack else None,
            "t": time.time(),
            "fields": fields,
        }
        context = tracecontext.current()
        if context is not None:
            record["trace_id"] = context.trace_id
            record["parent_ref"] = context.span_ref
            record["process"] = _process_label
        self._emit(record)

    def span(self, name: str, **fields: Any) -> Span:
        """Open a nested span; use as ``with recorder.span("stage"): ...``."""
        stack = self._stack.ids
        parent = stack[-1] if stack else None
        return Span(self, name, next(self._span_ids), parent, fields)

    def current_span(self) -> Optional[int]:
        """Id of the calling thread's innermost open span, if any."""
        stack = self._stack.ids
        return stack[-1] if stack else None

    @contextlib.contextmanager
    def parent_scope(self, span_id: Optional[int]) -> Iterator[None]:
        """Parent this thread's spans in the block to ``span_id``.

        For work handed to another thread: the span open where the work
        was submitted (:meth:`current_span` there) becomes the parent of
        the spans the worker thread opens for it.  ``None`` does nothing.
        """
        stack = self._stack.ids
        if span_id is not None:
            stack.append(span_id)
        try:
            yield
        finally:
            if span_id is not None and stack and stack[-1] == span_id:
                stack.pop()

    # Metrics -------------------------------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        return self.metrics.counter(name, **labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self.metrics.gauge(name, **labels)

    def histogram(self, name: str, **labels: object) -> Histogram:
        return self.metrics.histogram(name, **labels)

    # Lifecycle -----------------------------------------------------------

    def flush(self) -> None:
        for sink in self._sinks:
            flush = getattr(sink, "flush", None)
            if flush is not None:
                flush()

    def close(self) -> None:
        for sink in self._sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()
