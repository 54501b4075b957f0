"""Merge per-process JSONL traces into cluster-wide trace trees.

Every process in a traced cluster — router, each shard, each pre-forked
solver worker — writes its spans to its own file under one trace
directory (``router.<pid>.jsonl``, ``shard-0.<pid>.jsonl``,
``shard-0.worker1.<pid>.jsonl``, ... — opened by
:func:`repro.obs.sinks.process_trace_sink`).  This module reads them all
back, groups span records by ``trace_id``, and rebuilds each request's
tree from the cross-process ``span_ref``/``parent_ref`` links (the
in-process integer span ids are meaningless across files — two shards
both emit span id 1).

Tolerance rules, because crashed processes write ragged files:

* a truncated final line (the process died mid-write) is skipped, not
  fatal — :func:`load_trace_dir` counts skipped lines instead;
* a span whose parent was never written (the parent's process was
  SIGKILLed before that span closed) becomes an **orphan**: it is kept
  and rendered under a synthetic marker rather than silently dropped,
  and kept out of the proper roots so "one connected tree per request"
  stays checkable.

``repro-avail obs report --cluster DIR`` renders the result.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

#: File pattern collected from a trace directory.
TRACE_GLOB = "*.jsonl"


def load_trace_dir(
    directory: Union[str, pathlib.Path],
) -> Tuple[List[Dict[str, Any]], int]:
    """Read every per-process trace file under ``directory``.

    Returns ``(records, skipped_lines)``; each record gains a
    ``"source"`` key naming the file it came from.

    Raises:
        ValueError: If the directory holds no ``*.jsonl`` files at all.
    """
    root = pathlib.Path(directory)
    paths = sorted(root.glob(TRACE_GLOB))
    if not paths:
        raise ValueError(f"no {TRACE_GLOB} trace files under {root}")
    records: List[Dict[str, Any]] = []
    skipped = 0
    for path in paths:
        text = path.read_text(encoding="utf-8")
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                skipped += 1
                continue
            if not isinstance(record, dict):
                skipped += 1
                continue
            record["source"] = path.name
            records.append(record)
    return records, skipped


def spans_by_trace(
    records: Sequence[Dict[str, Any]],
) -> Dict[str, List[Dict[str, Any]]]:
    """Span records grouped by trace id (records without one ignored)."""
    traces: Dict[str, List[Dict[str, Any]]] = {}
    for record in records:
        if record.get("kind") != "span":
            continue
        trace_id = record.get("trace_id")
        ref = record.get("span_ref")
        if not trace_id or not ref:
            continue
        traces.setdefault(str(trace_id), []).append(record)
    return traces


class ClusterSpan:
    """One span in a merged cross-process tree."""

    def __init__(self, record: Dict[str, Any]) -> None:
        self.record = record
        self.children: List["ClusterSpan"] = []

    @property
    def name(self) -> str:
        return self.record.get("name", "?")

    @property
    def process(self) -> str:
        return str(self.record.get("process", "?"))

    @property
    def span_ref(self) -> str:
        return str(self.record.get("span_ref"))

    @property
    def parent_ref(self) -> Optional[str]:
        return self.record.get("parent_ref")

    @property
    def started_at(self) -> float:
        return float(self.record.get("t", 0.0))

    @property
    def duration_s(self) -> float:
        return float(self.record.get("duration_s", 0.0))

    @property
    def status(self) -> str:
        return str(self.record.get("status", "ok"))

    def walk(self):
        """This span then every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


def build_cluster_trace(
    spans: Sequence[Dict[str, Any]],
) -> Tuple[List[ClusterSpan], List[ClusterSpan]]:
    """Rebuild one trace's tree(s) from ``span_ref``/``parent_ref`` links.

    Returns ``(roots, orphans)``: *roots* are spans with no parent ref
    (the request's origin); *orphans* have a parent ref that matches no
    collected span (the parent's record was lost — typically a process
    killed before its span closed).  A fully connected request yields
    exactly one root and no orphans.
    """
    nodes: Dict[str, ClusterSpan] = {}
    for record in spans:
        node = ClusterSpan(record)
        nodes[node.span_ref] = node
    roots: List[ClusterSpan] = []
    orphans: List[ClusterSpan] = []
    for node in nodes.values():
        parent_ref = node.parent_ref
        if parent_ref is None:
            roots.append(node)
            continue
        parent = nodes.get(str(parent_ref))
        if parent is None:
            orphans.append(node)
        else:
            parent.children.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda child: child.started_at)
    roots.sort(key=lambda node: node.started_at)
    orphans.sort(key=lambda node: node.started_at)
    return roots, orphans


def merge_cluster_traces(
    records: Sequence[Dict[str, Any]],
) -> Dict[str, Tuple[List[ClusterSpan], List[ClusterSpan]]]:
    """Every trace id in ``records`` mapped to its ``(roots, orphans)``."""
    return {
        trace_id: build_cluster_trace(spans)
        for trace_id, spans in spans_by_trace(records).items()
    }


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.1f} ms"
    return f"{seconds * 1e6:.0f} us"


#: Span fields shown inline in the rendered tree.
_SHOWN_FIELDS = ("endpoint", "shard", "attempt", "failover", "batch_size",
                 "index", "error")


def _render_node(node: ClusterSpan, depth: int, lines: List[str]) -> None:
    indent = "  " * depth
    label = f"{indent}{node.name} [{node.process}]"
    timing = _format_seconds(node.duration_s)
    suffix = "" if node.status == "ok" else f"  [{node.status}]"
    fields = node.record.get("fields", {})
    shown = "  ".join(
        f"{key}={fields[key]}" for key in _SHOWN_FIELDS if key in fields
    )
    line = f"{label:<52}{timing:>10}{suffix}"
    if shown:
        line += f"  {shown}"
    lines.append(line)
    for child in node.children:
        _render_node(child, depth + 1, lines)


def render_cluster_trace(
    trace_id: str,
    roots: Sequence[ClusterSpan],
    orphans: Sequence[ClusterSpan] = (),
) -> str:
    """Render one merged trace as an indented cross-process tree."""
    n_spans = sum(1 for root in roots for _ in root.walk()) + sum(
        1 for orphan in orphans for _ in orphan.walk()
    )
    processes = sorted(
        {
            node.process
            for root in list(roots) + list(orphans)
            for node in root.walk()
        }
    )
    lines = [
        f"trace {trace_id}: {n_spans} spans across "
        f"{len(processes)} process(es) ({', '.join(processes)})"
    ]
    for root in roots:
        _render_node(root, 1, lines)
    if orphans:
        lines.append(
            "  (orphaned spans — parent record lost, e.g. killed process)"
        )
        for orphan in orphans:
            _render_node(orphan, 2, lines)
    return "\n".join(lines)


def render_cluster_report(
    directory: Union[str, pathlib.Path],
    trace_id: Optional[str] = None,
) -> str:
    """The full ``obs report --cluster`` text for a trace directory."""
    records, skipped = load_trace_dir(directory)
    merged = merge_cluster_traces(records)
    sources = sorted({record["source"] for record in records})
    lines = [
        f"cluster trace report: {pathlib.Path(directory)}",
        f"{len(sources)} process file(s), {len(merged)} trace(s), "
        f"{skipped} unparseable line(s) skipped",
        "",
    ]
    if trace_id is not None:
        if trace_id not in merged:
            known = ", ".join(sorted(merged)) or "(none)"
            raise ValueError(
                f"trace id {trace_id!r} not found; traces present: {known}"
            )
        roots, orphans = merged[trace_id]
        lines.append(render_cluster_trace(trace_id, roots, orphans))
        return "\n".join(lines)
    # Whole-directory report: traces ordered by their first span start.
    def first_start(item) -> float:
        roots, orphans = item[1]
        nodes = list(roots) + list(orphans)
        return min((n.started_at for n in nodes), default=0.0)

    for tid, (roots, orphans) in sorted(
        merged.items(), key=first_start
    ):
        lines.append(render_cluster_trace(tid, roots, orphans))
        lines.append("")
    if not merged:
        lines.append("(no trace-context spans found)")
    return "\n".join(lines).rstrip() + "\n"
