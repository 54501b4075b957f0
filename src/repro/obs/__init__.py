"""repro.obs — unified tracing, metrics, and solver diagnostics.

The paper's method is measurement all the way down (instrumented
longevity runs, >3,000 recorded fault injections), and this subsystem
gives the *reproduction pipeline itself* the same treatment: structured
events, nested tracing spans with wall/CPU timing, and a metrics
registry (counters, gauges, histograms), threaded through the solver,
simulation and testbed layers.

Usage — the module-level API dispatches to a process-global recorder,
which defaults to a shared no-op (:data:`~repro.obs.recorder.NULL_RECORDER`)
so instrumented code is effectively free until someone turns tracing on::

    from repro import obs
    from repro.obs import Recorder, JsonlSink

    with obs.observe(Recorder(sinks=(JsonlSink("run.jsonl"),))) as rec:
        run_uncertainty(CONFIG_1, n_samples=1000, seed=7)
    print(obs.render_span_tree(rec.records))

Instrumented code uses the same three verbs everywhere::

    with obs.span("ctmc.batch_solve", model=name, n_samples=k) as sp:
        ...
        sp.set(engine=engine)
    obs.event("ctmc.method_auto", chosen=method)
    obs.counter("ctmc_solves_total", method=method).inc()

See ``docs/observability_guide.md`` for the span/metric inventory and
measured overhead, and ``repro-avail --trace/--metrics`` plus
``repro-avail obs report`` for the CLI integration.
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Iterator, Optional, Tuple, Union

from repro.obs.collect import (
    build_cluster_trace,
    load_trace_dir,
    merge_cluster_traces,
    render_cluster_report,
    render_cluster_trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.recorder import (
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    Span,
    process_label,
    set_process_label,
)
from repro.obs.report import (
    build_span_tree,
    render_span_tree,
    render_trace_report,
    summarize_events,
)
from repro.obs.sinks import (
    InMemorySink,
    JsonlSink,
    load_trace,
    process_trace_sink,
    relabel_prometheus,
    render_prometheus,
    write_metrics,
)
from repro.obs.tracecontext import (
    TRACEPARENT_HEADER,
    TraceContext,
    deterministic_trace_id,
    format_traceparent,
    new_trace_id,
    parse_traceparent,
    trace_scope,
)
from repro.obs.tracecontext import current as current_trace_context

# NOTE: repro.obs.monitor is intentionally NOT imported here — it
# depends on repro.service.client, which imports this package; import
# it directly (``from repro.obs import monitor``) at call sites.

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "InMemorySink",
    "JsonlSink",
    "MetricsRegistry",
    "NullRecorder",
    "Recorder",
    "Span",
    "TRACEPARENT_HEADER",
    "TraceContext",
    "build_cluster_trace",
    "build_span_tree",
    "counter",
    "current_span",
    "current_trace_context",
    "deterministic_trace_id",
    "enabled",
    "event",
    "format_traceparent",
    "gauge",
    "get_recorder",
    "histogram",
    "install_process_recorder",
    "load_trace",
    "load_trace_dir",
    "merge_cluster_traces",
    "new_trace_id",
    "observe",
    "parent_scope",
    "parse_traceparent",
    "process_label",
    "process_trace_sink",
    "relabel_prometheus",
    "render_cluster_report",
    "render_cluster_trace",
    "render_prometheus",
    "render_span_tree",
    "render_trace_report",
    "set_process_label",
    "set_recorder",
    "span",
    "summarize_events",
    "trace_scope",
    "write_metrics",
]

RecorderLike = Union[Recorder, NullRecorder]

_current: RecorderLike = NULL_RECORDER


def get_recorder() -> RecorderLike:
    """The recorder instrumentation currently dispatches to."""
    return _current


def set_recorder(recorder: RecorderLike) -> RecorderLike:
    """Install a recorder globally; returns the previous one."""
    global _current
    previous = _current
    _current = recorder
    return previous


def enabled() -> bool:
    """True when a live recorder is installed (guard for hot loops)."""
    return _current.enabled


def span(name: str, **fields: Any):
    """Open a span on the current recorder (no-op context when disabled)."""
    return _current.span(name, **fields)


def current_span() -> Optional[int]:
    """Id of the calling thread's innermost open span (``None`` if off)."""
    return _current.current_span()


def parent_scope(span_id: Optional[int]):
    """Parent the spans this thread opens in the block to ``span_id``.

    Pairs with :func:`current_span` to link work handed to another
    thread (a batcher's dispatch) to the span that submitted it.
    """
    return _current.parent_scope(span_id)


def event(name: str, **fields: Any) -> None:
    """Emit a structured event on the current recorder."""
    _current.event(name, **fields)


def counter(name: str, **labels: object):
    """The named counter (a no-op instrument when disabled)."""
    return _current.counter(name, **labels)


def gauge(name: str, **labels: object):
    """The named gauge (a no-op instrument when disabled)."""
    return _current.gauge(name, **labels)


def histogram(name: str, **labels: object):
    """The named histogram (a no-op instrument when disabled)."""
    return _current.histogram(name, **labels)


@contextlib.contextmanager
def observe(recorder: Union[Recorder, None] = None) -> Iterator[Recorder]:
    """Install a recorder for the duration of a ``with`` block.

    Creates a fresh in-memory :class:`Recorder` when none is given.
    Restores the previous recorder (and flushes this one) on exit.
    """
    active = recorder if recorder is not None else Recorder()
    previous = set_recorder(active)
    try:
        yield active
    finally:
        set_recorder(previous)
        active.flush()


def install_process_recorder(
    trace_dir: Optional[str], label: str
) -> Tuple[RecorderLike, Optional[Callable[[], None]]]:
    """The live recorder a long-running server process exports.

    Reuses the installed recorder when one is live; otherwise installs a
    fresh one, so ``/metrics`` always has a registry, writing this
    process's span file under ``trace_dir`` when one is given
    (:func:`process_trace_sink`).  Returns ``(recorder, restore)``;
    ``restore`` puts the previous recorder back and closes the new one,
    and is ``None`` when nothing was installed.
    """
    if enabled():
        return _current, None
    sinks = (
        () if trace_dir is None else (process_trace_sink(trace_dir, label),)
    )
    own = Recorder(sinks=sinks, keep_records=False)
    previous = set_recorder(own)

    def restore() -> None:
        set_recorder(previous)
        own.close()

    return own, restore
