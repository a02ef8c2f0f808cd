"""Counters, gauges and fixed-bucket latency histograms (`repro.obs`).

The chasm is crossed by *measurable* leverage — corpus statistics,
reformulation pruning, view reuse — and until this layer the stack's
only visibility was a scatter of ad-hoc per-object counters
(``ExecutionStats.latency_ms``, ``ServingStats``, engine snapshots)
that never aggregated across a run.  :class:`MetricsRegistry` is the
one place they meet: named counters, gauges and histograms, created
once and *cached by the instrumented hot paths as direct object
references*, so recording an event is an attribute load plus an integer
add — cheap enough to leave on always (benchmark C15 asserts the whole
layer, tracing included, costs <= 5% on the C11/C14 workloads).

Design points:

* **Fixed-bucket histograms.**  :class:`Histogram` keeps one count per
  configured upper bound (default: a geometric millisecond ladder) plus
  running count/total/min/max.  ``observe`` is a bisect + increment;
  quantiles are rank-based over the cumulative bucket counts and
  deterministic: :meth:`Histogram.quantile` returns the *upper bound*
  of the bucket holding the ``ceil(q * count)``-th sample (the max for
  ranks past the last bound), so a sample placed exactly on a boundary
  reports that boundary exactly.  Merging two histograms sums bucket
  counts, which makes ``a.merge(b)`` report the same quantiles as one
  histogram fed both sample streams — ``tests/test_obs.py`` pins this.

* **Reset keeps identity.**  :meth:`MetricsRegistry.reset` zeroes
  values but never discards the metric objects, because instruments
  hold direct references; a registry reset must not silently detach
  them.

* **Thread-safe mutation.**  A caller may record on one registry from
  several threads of its own, and ``value += amount`` / ``bucket += 1``
  are read-modify-write races under preemption.  Every instrument
  therefore guards its mutations (and ``reset``) with a per-instrument
  lock, and the registry's get-or-create is locked so two threads
  asking for the same name always receive the same object.  Reads
  (snapshots, quantiles) stay lockless: they are only meaningful after
  the writers have been joined, which is how every caller uses them
  (``tests/test_runtime.py`` hammers one registry from N threads and
  asserts exact final totals).

* **Export.**  :meth:`MetricsRegistry.snapshot` is a plain dict (what
  ``benchmarks/conftest.py`` dumps next to each bench's timing output),
  :meth:`MetricsRegistry.to_json` the serialized form, and
  :meth:`MetricsRegistry.explain` a human-readable report grouped by
  dotted name prefix.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from math import ceil, inf

#: Default histogram bucket upper bounds — a geometric millisecond
#: ladder wide enough for everything from a cache hit to a brute-force
#: reformulation (values above the last bound land in the overflow
#: bucket and quantiles there report the observed max).
DEFAULT_BUCKETS_MS = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)

#: Bucket ladder for size-like samples (candidate counts, batch sizes,
#: payload rows) — integer-friendly geometric steps from 1 to 10k.
DEFAULT_BUCKETS_COUNT = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000,
)


class Counter:
    """A monotonically increasing named count (thread-safe)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):  # noqa: D107
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (default 1)."""
        with self._lock:
            self.value += amount

    def reset(self) -> None:
        """Zero the count (the object survives — holders keep working)."""
        with self._lock:
            self.value = 0


class Gauge:
    """A named last-written value (sizes, versions, ratios)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):  # noqa: D107
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Record the current value."""
        with self._lock:
            self.value = value

    def reset(self) -> None:
        """Zero the gauge."""
        with self._lock:
            self.value = 0.0


class Histogram:
    """Fixed-bucket histogram with rank-based p50/p95/p99.

    ``bounds`` are the inclusive upper bounds of the buckets, strictly
    increasing; one extra overflow bucket catches everything above the
    last bound.  A sample exactly equal to a bound lands in that
    bound's bucket (``value <= bound`` semantics), which is what makes
    :meth:`quantile` exact at bucket boundaries.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "overflow",
                 "count", "total", "min", "max", "_lock")

    def __init__(self, name: str, bounds: tuple = DEFAULT_BUCKETS_MS):  # noqa: D107
        bounds = tuple(bounds)
        if not bounds or any(b >= a for b, a in zip(bounds, bounds[1:])):
            raise ValueError("histogram bounds must be strictly increasing")
        self.name = name
        self.bounds = bounds
        self.bucket_counts = [0] * len(bounds)
        self.overflow = 0
        self.count = 0
        self.total = 0.0
        self.min = inf
        self.max = -inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one sample."""
        position = bisect_left(self.bounds, value)
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            if position == len(self.bounds):
                self.overflow += 1
            else:
                self.bucket_counts[position] += 1

    def quantile(self, q: float) -> float:
        """The upper bound of the bucket holding the ``ceil(q*count)``-th
        sample; the observed max for overflow ranks; ``0.0`` when empty.

        Rank-based over cumulative bucket counts, so it depends only on
        the bucket populations — which is why merged histograms report
        exactly the quantiles of the concatenated sample streams.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return 0.0
        rank = max(1, ceil(q * self.count))
        cumulative = 0
        for bound, bucket in zip(self.bounds, self.bucket_counts):
            cumulative += bucket
            if rank <= cumulative:
                return bound
        return self.max

    @property
    def p50(self) -> float:
        """Median (see :meth:`quantile` for the estimator)."""
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        """95th percentile."""
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        """99th percentile."""
        return self.quantile(0.99)

    @property
    def mean(self) -> float:
        """Arithmetic mean of the samples (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> "Histogram":
        """A new histogram equal to one fed both sample streams.

        Requires identical bucket bounds (quantile math sums bucket
        populations, which is only meaningful over the same grid).
        """
        if self.bounds != other.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds "
                f"({self.name!r} vs {other.name!r})"
            )
        merged = Histogram(self.name, self.bounds)
        merged.bucket_counts = [
            a + b for a, b in zip(self.bucket_counts, other.bucket_counts)
        ]
        merged.overflow = self.overflow + other.overflow
        merged.count = self.count + other.count
        merged.total = self.total + other.total
        merged.min = min(self.min, other.min)
        merged.max = max(self.max, other.max)
        return merged

    def reset(self) -> None:
        """Zero all samples (the object survives)."""
        with self._lock:
            self.bucket_counts = [0] * len(self.bounds)
            self.overflow = 0
            self.count = 0
            self.total = 0.0
            self.min = inf
            self.max = -inf

    def snapshot(self) -> dict:
        """Summary dict: count/total/min/max/mean and the quantiles."""
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }


class MetricsRegistry:
    """Named metrics with get-or-create access and uniform export.

    One registry aggregates a whole run; instruments call
    ``registry.counter("execute.round_trips")`` once and keep the
    returned object, so the per-event cost is an attribute add.  A name
    identifies exactly one metric kind — re-requesting it as a
    different kind raises.
    """

    def __init__(self):  # noqa: D107
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._create_lock = threading.Lock()

    def _get_or_create(self, name: str, kind, *args):
        existing = self._metrics.get(name)
        if existing is None:
            # Locked double-check so two threads asking for the same
            # name always receive the same instrument object.
            with self._create_lock:
                existing = self._metrics.get(name)
                if existing is None:
                    created = kind(name, *args)
                    self._metrics[name] = created
                    return created
        if not isinstance(existing, kind):
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{type(existing).__name__}, not {kind.__name__}"
            )
        return existing

    def counter(self, name: str) -> Counter:
        """Get-or-create the counter ``name``."""
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get-or-create the gauge ``name``."""
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str, bounds: tuple = DEFAULT_BUCKETS_MS) -> Histogram:
        """Get-or-create the histogram ``name`` (bounds fixed at creation)."""
        return self._get_or_create(name, Histogram, bounds)

    def get(self, name: str):
        """The metric registered under ``name``, or ``None``."""
        return self._metrics.get(name)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def reset(self) -> None:
        """Zero every metric, keeping the objects (holders stay wired)."""
        for metric in self._metrics.values():
            metric.reset()

    # -- export ------------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-dict export: ``{"counters": ..., "gauges": ...,
        "histograms": ...}``, names sorted."""
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                counters[name] = metric.value
            elif isinstance(metric, Gauge):
                gauges[name] = metric.value
            else:
                histograms[name] = metric.snapshot()
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def to_json(self, indent: int | None = None) -> str:
        """The snapshot as JSON (what the bench harness writes to disk)."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def explain(self) -> str:
        """A human-readable report, grouped by dotted-name prefix.

        Counters/gauges print one aligned ``name  value`` line each;
        histograms print count/mean/p50/p95/p99/max.  Empty registry
        prints a single placeholder line.
        """
        if not self._metrics:
            return "(no metrics recorded)"
        groups: dict[str, list[str]] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            prefix = name.split(".", 1)[0]
            if isinstance(metric, Counter):
                line = f"  {name:<44} {metric.value}"
            elif isinstance(metric, Gauge):
                line = f"  {name:<44} {metric.value:g}"
            else:
                snap = metric.snapshot()
                if snap["count"] == 0:
                    line = f"  {name:<44} (no samples)"
                else:
                    line = (
                        f"  {name:<44} n={snap['count']} mean={snap['mean']:.3f} "
                        f"p50={snap['p50']:.3f} p95={snap['p95']:.3f} "
                        f"p99={snap['p99']:.3f} max={snap['max']:.3f}"
                    )
            groups.setdefault(prefix, []).append(line)
        lines = []
        for prefix in sorted(groups):
            lines.append(f"{prefix}:")
            lines.extend(groups[prefix])
        return "\n".join(lines)
