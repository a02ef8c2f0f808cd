"""JSONL span/metrics exporters and Prometheus text exposition.

The observability pipeline's persistence layer: what the tracer and
registry hold in memory leaves the process here, in formats stable
enough to diff across runs and re-parse losslessly.

**Span records** (``{"type": "span", ...}``, one JSON object per
line).  Each completed root tree flattens to depth-first preorder, so
rebuilding by ``parent_id`` in file order reproduces child order
exactly.  Schema (``SCHEMA_VERSION`` bumps on any breaking change)::

    {"type": "span", "schema": 1, "trace_id": "t3", "span_id": "s41",
     "parent_id": "s40",          # absent for trace roots
     "name": "execute.fetch", "duration_ms": 41.7,
     "attrs": {"peer": "p7"},     # absent when empty
     "error": true}               # absent when false

:func:`assemble_traces` inverts the flattening: records whose parent
is absent from the stream — a truncated file — become roots of their
own, so partial exports still render.
The round trip ``assemble_traces(read_records(export_spans(roots)))``
equals ``[root.to_dict() for root in roots]`` exactly
(``tests/test_obs_export.py`` pins it property-style).

**Metrics records** (``{"type": "counter" | "gauge" | "histogram"}``)
carry full instrument state — histogram bucket populations included,
not just the quantile summary — so :func:`read_metrics` rebuilds a
:class:`~repro.obs.metrics.MetricsRegistry` whose snapshot *and*
quantiles match the original.  ``min``/``max`` are omitted for empty
histograms (they are infinities, which JSON cannot carry).

**Prometheus exposition** (:func:`prometheus_text`): the registry in
the standard text format — ``repro_``-prefixed sanitized names,
``_total`` counters, cumulative ``_bucket{le="..."}`` histogram series
with ``_sum``/``_count`` — pasteable into any Prometheus-compatible
scraper.

The ``python -m repro.obs`` CLI (:mod:`repro.obs.__main__`) renders
all of these from exported files.
"""

from __future__ import annotations

import json
import re
from math import inf

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import Span, Tracer

#: Bumped on any breaking change to the span/metrics record layout.
SCHEMA_VERSION = 1

_PROM_SANITIZE = re.compile(r"[^a-zA-Z0-9_]")


# -- span export -------------------------------------------------------------
def span_records(roots) -> "list[dict]":
    """Flatten completed root spans to depth-first preorder records.

    Span ids are lazy on the hot path (see
    :meth:`~repro.obs.trace.Span.__enter__`), so exporting assigns any
    still-missing ``span_id``/``trace_id`` here — from the span's own
    tracer, so ids already handed out (message stamping) are never
    reused — and derives parent links from the tree walk.
    """
    records: list[dict] = []

    def _flatten(span: Span, trace_id: "str | None",
                 parent_id: "str | None") -> None:
        if span.span_id is None:
            span.span_id = span._tracer._next_span_id()
        if span.trace_id is None:
            span.trace_id = (
                trace_id if trace_id is not None
                else span._tracer._next_trace_id()
            )
        record: dict = {
            "type": "span",
            "schema": SCHEMA_VERSION,
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "name": span.name,
            "duration_ms": span.duration_ms,
        }
        if parent_id is not None:
            record["parent_id"] = parent_id
        if span.attrs:
            record["attrs"] = dict(span.attrs)
        if span.error:
            record["error"] = True
        records.append(record)
        for child in span.children:
            _flatten(child, span.trace_id, span.span_id)

    for root in roots:
        _flatten(root, None, None)
    return records


def export_spans(source, path) -> int:
    """Write ``source``'s spans as JSONL; returns the record count.

    ``source`` is a :class:`~repro.obs.trace.Tracer` (its retained
    roots are exported) or any iterable of completed root spans.
    """
    roots = source.root_list() if isinstance(source, Tracer) else list(source)
    records = span_records(roots)
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")
    return len(records)


def read_records(path) -> list[dict]:
    """Parse a JSONL export back into its records (blank lines skipped)."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def assemble_traces(records, include_ids: bool = False) -> list[dict]:
    """Rebuild nested trace trees from flat span records.

    Returns root nodes shaped exactly like
    :meth:`~repro.obs.trace.Span.to_dict` (plus the id fields when
    ``include_ids``), in first-appearance order.  Because the exporter
    writes depth-first preorder, file order reproduces child order;
    records whose parent is not in the stream become roots (a truncated
    file's orphans stay visible rather than vanishing).
    """
    nodes: dict[str, dict] = {}
    roots: list[dict] = []
    for record in records:
        if record.get("type") != "span":
            continue
        node: dict = {
            "name": record["name"],
            "duration_ms": record["duration_ms"],
        }
        if record.get("attrs"):
            node["attrs"] = dict(record["attrs"])
        if record.get("error"):
            node["error"] = True
        if include_ids:
            node["trace_id"] = record["trace_id"]
            node["span_id"] = record["span_id"]
            if record.get("parent_id") is not None:
                node["parent_id"] = record["parent_id"]
        nodes[record["span_id"]] = node
        parent = nodes.get(record.get("parent_id"))
        if parent is None:
            roots.append(node)
        else:
            parent.setdefault("children", []).append(node)
    return roots


def render_tree(node: dict, indent: int = 0) -> str:
    """Indented ASCII rendering of an assembled dict tree.

    Mirrors :meth:`~repro.obs.trace.Span.render` so a tree read back
    from a JSONL export prints identically to the live span tree.
    """
    duration = node.get("duration_ms")
    duration_text = f"{duration:.3f} ms" if duration is not None else "open"
    attrs = "".join(
        f" {key}={value}" for key, value in (node.get("attrs") or {}).items()
    )
    flag = " !ERROR" if node.get("error") else ""
    lines = [f"{'  ' * indent}- {node['name']} [{duration_text}]{attrs}{flag}"]
    lines.extend(
        render_tree(child, indent + 1) for child in node.get("children") or ()
    )
    return "\n".join(lines)


# -- metrics export ----------------------------------------------------------
def metrics_records(registry: MetricsRegistry) -> list[dict]:
    """Full-state records for every instrument, names sorted."""
    records: list[dict] = []
    for name in sorted(registry._metrics):
        metric = registry._metrics[name]
        if isinstance(metric, Counter):
            records.append({"type": "counter", "schema": SCHEMA_VERSION,
                            "name": name, "value": metric.value})
        elif isinstance(metric, Gauge):
            records.append({"type": "gauge", "schema": SCHEMA_VERSION,
                            "name": name, "value": metric.value})
        else:
            record = {
                "type": "histogram",
                "schema": SCHEMA_VERSION,
                "name": name,
                "bounds": list(metric.bounds),
                "bucket_counts": list(metric.bucket_counts),
                "overflow": metric.overflow,
                "count": metric.count,
                "total": metric.total,
            }
            if metric.count:
                record["min"] = metric.min
                record["max"] = metric.max
            records.append(record)
    return records


def export_metrics(registry: MetricsRegistry, path) -> int:
    """Write the registry as JSONL; returns the record count."""
    records = metrics_records(registry)
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")
    return len(records)


def registry_from_records(records) -> MetricsRegistry:
    """Rebuild a registry whose state matches the exported one exactly."""
    registry = MetricsRegistry()
    for record in records:
        kind = record.get("type")
        if kind == "counter":
            registry.counter(record["name"]).value = record["value"]
        elif kind == "gauge":
            registry.gauge(record["name"]).value = record["value"]
        elif kind == "histogram":
            histogram = registry.histogram(
                record["name"], tuple(record["bounds"])
            )
            histogram.bucket_counts = list(record["bucket_counts"])
            histogram.overflow = record["overflow"]
            histogram.count = record["count"]
            histogram.total = record["total"]
            histogram.min = record.get("min", inf)
            histogram.max = record.get("max", -inf)
    return registry


def read_metrics(path) -> MetricsRegistry:
    """Read a metrics JSONL export back into a live registry."""
    return registry_from_records(read_records(path))


# -- Prometheus exposition ---------------------------------------------------
def _prom_name(name: str) -> str:
    return "repro_" + _PROM_SANITIZE.sub("_", name)


def _prom_value(value) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in the Prometheus text exposition format."""
    lines: list[str] = []
    for name in sorted(registry._metrics):
        metric = registry._metrics[name]
        prom = _prom_name(name)
        if isinstance(metric, Counter):
            lines.append(f"# TYPE {prom}_total counter")
            lines.append(f"{prom}_total {_prom_value(metric.value)}")
        elif isinstance(metric, Gauge):
            lines.append(f"# TYPE {prom} gauge")
            lines.append(f"{prom} {_prom_value(metric.value)}")
        else:
            lines.append(f"# TYPE {prom} histogram")
            cumulative = 0
            for bound, bucket in zip(metric.bounds, metric.bucket_counts):
                cumulative += bucket
                lines.append(
                    f'{prom}_bucket{{le="{_prom_value(float(bound))}"}} '
                    f"{cumulative}"
                )
            lines.append(f'{prom}_bucket{{le="+Inf"}} {metric.count}')
            lines.append(f"{prom}_sum {_prom_value(metric.total)}")
            lines.append(f"{prom}_count {metric.count}")
    return "\n".join(lines) + "\n" if lines else ""


# -- snapshot rendering ------------------------------------------------------
def render_snapshot(snapshot: dict) -> str:
    """An ``explain()``-style report from a snapshot *dict*.

    Accepts the :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`
    shape (what ``benchmarks/out/*.metrics.json`` and the
    ``BENCH_C*.json`` trajectory files carry), grouped by dotted-name
    prefix like the live report.
    """
    groups: dict[str, list[str]] = {}

    def _add(name: str, line: str) -> None:
        groups.setdefault(name.split(".", 1)[0], []).append(line)

    for name, value in snapshot.get("counters", {}).items():
        _add(name, f"  {name:<44} {value}")
    for name, value in snapshot.get("gauges", {}).items():
        _add(name, f"  {name:<44} {value:g}")
    for name, summary in snapshot.get("histograms", {}).items():
        if not summary.get("count"):
            _add(name, f"  {name:<44} (no samples)")
        else:
            _add(name, (
                f"  {name:<44} n={summary['count']} "
                f"mean={summary['mean']:.3f} p50={summary['p50']:.3f} "
                f"p95={summary['p95']:.3f} p99={summary['p99']:.3f} "
                f"max={summary['max']:.3f}"
            ))
    if not groups:
        return "(no metrics recorded)"
    lines = []
    for prefix in sorted(groups):
        lines.append(f"{prefix}:")
        lines.extend(sorted(groups[prefix]))
    return "\n".join(lines)
