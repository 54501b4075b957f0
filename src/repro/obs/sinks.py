"""Trace and metrics sinks: JSONL event logs and Prometheus exposition.

Three output shapes cover the usual consumers:

* :class:`JsonlSink` — one JSON object per line, the machine-readable
  trace (``repro-avail --trace run.jsonl ...`` and the ``obs report``
  subcommand both speak it);
* :func:`render_prometheus` — Prometheus text exposition format for the
  metrics registry, scrapable or diffable;
* the human-readable span-tree report lives in :mod:`repro.obs.report`.
"""

from __future__ import annotations

import io
import json
import math
import os
import pathlib
from typing import Any, Dict, List, Optional, Union

from repro.obs.metrics import MetricsRegistry

#: Format version stamped on every JSONL trace line's first record.
#: v2 added cross-process trace-context fields (``trace_id`` /
#: ``span_ref`` / ``parent_ref`` / ``process`` on span and event
#: records, plus optional process metadata on the header).
TRACE_SCHEMA_VERSION = 2


def _json_default(value: Any) -> Any:
    """Coerce numpy scalars and other stragglers to plain JSON types."""
    for attribute in ("item",):  # numpy scalar protocol
        item = getattr(value, attribute, None)
        if callable(item):
            return item()
    return str(value)


class JsonlSink:
    """Writes each record as one JSON line to a file or stream.

    The first line is a ``trace_header`` record carrying the schema
    version, so readers can detect format drift.  ``header_fields``
    (e.g. ``{"process": "shard-0", "pid": 1234}``) are merged into the
    header so a cluster's per-process files stay attributable.

    File targets are opened **line-buffered**: each record reaches the
    OS as soon as it is written, so a process killed without warning
    (the failover drill SIGKILLs shards) loses at most the record being
    formatted, never its whole buffered tail.
    """

    def __init__(
        self,
        target: Union[str, pathlib.Path, io.TextIOBase],
        header_fields: Optional[Dict[str, Any]] = None,
    ) -> None:
        if isinstance(target, (str, pathlib.Path)):
            self._stream: Any = open(
                target, "w", encoding="utf-8", buffering=1
            )
            self._owns_stream = True
        else:
            self._stream = target
            self._owns_stream = False
        fields: Dict[str, Any] = {"schema_version": TRACE_SCHEMA_VERSION}
        if header_fields:
            fields.update(header_fields)
        self.write(
            {
                "kind": "trace_header",
                "name": "trace_header",
                "fields": fields,
            }
        )

    def write(self, record: Dict[str, Any]) -> None:
        self._stream.write(
            json.dumps(record, default=_json_default, sort_keys=True) + "\n"
        )

    def flush(self) -> None:
        self._stream.flush()

    def close(self) -> None:
        if self._owns_stream:
            self._stream.close()


def process_trace_sink(
    trace_dir: Union[str, pathlib.Path], label: str
) -> JsonlSink:
    """This process's span file in a cluster-wide trace directory.

    Every traced process (router, shard, pre-forked worker) writes
    ``<label>.<pid>.jsonl`` whose header names the process and pid; the
    pid keeps a respawned process from overwriting its predecessor's
    spans.  :func:`repro.obs.collect.load_trace_dir` merges them back.
    """
    directory = pathlib.Path(trace_dir)
    directory.mkdir(parents=True, exist_ok=True)
    pid = os.getpid()
    return JsonlSink(
        directory / f"{label}.{pid}.jsonl",
        header_fields={"process": label, "pid": pid},
    )


class InMemorySink:
    """Collects records in a list (handy for tests and composition)."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []

    def write(self, record: Dict[str, Any]) -> None:
        self.records.append(record)


def _prom_labels(labels) -> str:
    if not labels:
        return ""
    rendered = ",".join(
        f'{key}="{_prom_escape(value)}"' for key, value in labels
    )
    return "{" + rendered + "}"


def _prom_escape(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prom_number(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    return repr(float(value))


def render_prometheus(registry: MetricsRegistry) -> str:
    """Render a metrics registry in Prometheus text exposition format."""
    lines: List[str] = []
    by_name: Dict[str, List] = {}
    for counter in registry.counters:
        by_name.setdefault(counter.name, []).append(("counter", counter))
    for gauge in registry.gauges:
        by_name.setdefault(gauge.name, []).append(("gauge", gauge))
    for histogram in registry.histograms:
        by_name.setdefault(histogram.name, []).append(("histogram", histogram))
    for name in sorted(by_name):
        family = by_name[name]
        kind = family[0][0]
        lines.append(f"# TYPE {name} {kind}")
        for _, instrument in family:
            if kind == "histogram":
                for bound, cumulative in instrument.cumulative_counts():
                    bucket_labels = tuple(instrument.labels) + (
                        ("le", _prom_number(bound)),
                    )
                    lines.append(
                        f"{name}_bucket{_prom_labels(bucket_labels)} "
                        f"{cumulative}"
                    )
                lines.append(
                    f"{name}_sum{_prom_labels(instrument.labels)} "
                    f"{_prom_number(instrument.sum)}"
                )
                lines.append(
                    f"{name}_count{_prom_labels(instrument.labels)} "
                    f"{instrument.count}"
                )
                if instrument.count:
                    for pname, value in instrument.quantiles().items():
                        lines.append(
                            f"{name}_{pname}"
                            f"{_prom_labels(instrument.labels)} "
                            f"{_prom_number(value)}"
                        )
            else:
                lines.append(
                    f"{name}{_prom_labels(instrument.labels)} "
                    f"{_prom_number(instrument.value)}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


def relabel_prometheus(text: str, **labels: str) -> str:
    """Inject extra labels into every sample of a Prometheus exposition.

    The cluster router aggregates its shards' ``/metrics`` scrapes into
    one exposition; each shard's samples get a ``shard="shard-N"``
    label here so per-shard counters stay distinguishable after
    aggregation.  Comment lines (``# TYPE`` ...) pass through untouched;
    sample lines ``name{a="b"} value`` and ``name value`` gain the
    given labels (existing labels keep precedence on key collision).
    """
    if not labels:
        return text
    rendered = ",".join(
        f'{key}="{_prom_escape(value)}"' for key, value in labels.items()
    )
    out: List[str] = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            out.append(line)
            continue
        name_part, _, value_part = line.rpartition(" ")
        if not name_part:
            out.append(line)
            continue
        if name_part.endswith("}"):
            brace = name_part.index("{")
            existing = name_part[brace + 1:-1]
            keys = {
                pair.split("=", 1)[0]
                for pair in existing.split(",") if "=" in pair
            }
            extra = ",".join(
                f'{key}="{_prom_escape(value)}"'
                for key, value in labels.items()
                if key not in keys
            )
            merged = existing + ("," + extra if extra else "")
            out.append(f"{name_part[:brace]}{{{merged}}} {value_part}")
        else:
            out.append(f"{name_part}{{{rendered}}} {value_part}")
    return "\n".join(out) + ("\n" if text.endswith("\n") else "")


def write_metrics(
    registry: MetricsRegistry, path: Union[str, pathlib.Path]
) -> pathlib.Path:
    """Write the registry's Prometheus exposition to ``path``."""
    target = pathlib.Path(path)
    target.write_text(render_prometheus(registry), encoding="utf-8")
    return target


def load_trace(
    source: Union[str, pathlib.Path, io.TextIOBase],
) -> List[Dict[str, Any]]:
    """Read a JSONL trace back into a list of record dicts.

    Raises:
        ValueError: On lines that are not valid JSON objects.
    """
    if isinstance(source, (str, pathlib.Path)):
        text = pathlib.Path(source).read_text(encoding="utf-8")
    else:
        text = source.read()
    records: List[Dict[str, Any]] = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"trace line {line_number} is not valid JSON: {exc}"
            ) from exc
        if not isinstance(record, dict):
            raise ValueError(
                f"trace line {line_number} is not a JSON object"
            )
        records.append(record)
    return records


def trace_schema_version(records: List[Dict[str, Any]]) -> Optional[int]:
    """The schema version from a trace's header record, if present."""
    for record in records:
        if record.get("kind") == "trace_header":
            version = record.get("fields", {}).get("schema_version")
            return int(version) if version is not None else None
    return None
