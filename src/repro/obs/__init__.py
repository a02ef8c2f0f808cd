"""Unified tracing + metrics across the PDMS stack (ISSUE 6).

The stack's leverage claims — index-served reformulation, batched
round trips, incremental view maintenance, candidate blocking — are
only credible if the system can report what it is doing.  This package
is that substrate:

* :class:`~repro.obs.trace.Tracer` — hierarchical spans with
  call-stack context propagation; one served continuous query yields
  one tree covering reformulation → per-peer execution round trips →
  view maintenance decisions.  Disabled by default and near-free
  (a shared no-op span); benchmark C15 gates the *enabled* overhead
  at <= 5% on the C11/C14 workloads.
* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges and
  fixed-bucket latency histograms with p50/p95/p99, JSON export and a
  human-readable :meth:`~repro.obs.metrics.MetricsRegistry.explain`
  report.  Metrics are always on: instruments cache direct metric
  references so recording is an attribute add.

* :class:`Observability` — the facade instrumented components accept
  (``obs=`` keyword everywhere: :class:`~repro.piazza.peer.PDMS`,
  :class:`~repro.piazza.execution.DistributedExecutor`,
  :class:`~repro.piazza.network.SimulatedNetwork`,
  :class:`~repro.piazza.serving.ViewServer`,
  :class:`~repro.search.engine.CorpusSearchEngine`,
  :class:`~repro.corpus.match.pipeline.CorpusMatchPipeline`).  When
  none is given they share the process-wide :func:`default` instance,
  so the default registry aggregates a whole run for free and
  ``benchmarks/conftest.py`` can dump it next to every bench's timing
  output.

The storage layer (ISSUE 8) reports here too: durable engines count
``storage.wal.appends`` / ``storage.wal.bytes`` and
``storage.snapshot.writes`` / ``storage.snapshot.bytes``, recovery
records ``storage.replay.records`` plus the ``storage.replay.ms``
histogram, and :class:`~repro.storage.engine.ShardedEngine` exports
per-shard ``storage.shard.rows.<i>`` gauges (namespaced
``storage.shard.rows.<name>.<i>`` when the engine is named, so several
sharded engines can share one registry without colliding).

The pipeline around the core (ISSUE 10):

* span ids — the simulated network stamps each message with the
  emitting span's ``(trace_id, span_id)``
  (:meth:`~repro.obs.trace.Tracer.current_ids`), so a message log
  joins back onto the trace that sent it.
* :mod:`repro.obs.profile` — folds completed span trees by path into
  cumulative/self wall-time, call counts and per-path latency
  quantiles (flame-graph-shaped, rendered as a sorted text report).
* :mod:`repro.obs.export` — JSONL span/metrics exporters with a
  stable schema (lossless round trips, pinned property-style) and
  Prometheus text exposition; ``python -m repro.obs`` renders
  snapshots, traces and profiles from the exported files.

See ``docs/observability.md`` for the runnable walkthrough (trace one
C14-style serve, print the span tree and the ``explain()`` report,
then follow one cross-peer execution end to end).
"""

from __future__ import annotations

from repro.obs.metrics import (
    DEFAULT_BUCKETS_COUNT,
    DEFAULT_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import NOOP_SPAN, Span, Tracer


class Observability:
    """One tracer + one registry, handed around as a unit.

    ``Observability()`` is the cheap default (no-op tracer, live
    registry); ``Observability(tracing=True)`` turns on span
    collection.  Components resolve ``obs or repro.obs.default()`` at
    construction, so a bench or test that wants isolation passes its
    own instance and everything downstream inherits it.
    """

    def __init__(
        self,
        tracing: bool = False,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ):  # noqa: D107
        self.tracer = tracer if tracer is not None else Tracer(enabled=tracing)
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    @property
    def tracing(self) -> bool:
        """Whether spans are being collected."""
        return self.tracer.enabled

    def explain(self) -> str:
        """Human-readable report: the metrics, then the last trace tree."""
        sections = [self.metrics.explain()]
        last = self.tracer.last_root()
        if last is not None:
            sections.append("last trace:")
            sections.append(self.tracer.render(last))
        return "\n".join(sections)

    def snapshot(self) -> dict:
        """Metrics snapshot plus retained trace trees, as plain dicts."""
        return {
            "metrics": self.metrics.snapshot(),
            "traces": [root.to_dict() for root in self.tracer.root_list()],
        }


_DEFAULT = Observability()


def default() -> Observability:
    """The process-wide default (no-op tracer, shared registry)."""
    return _DEFAULT


__all__ = [
    "DEFAULT_BUCKETS_COUNT",
    "DEFAULT_BUCKETS_MS",
    "NOOP_SPAN",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "Span",
    "Tracer",
    "default",
]
