"""The one execution runtime behind the stack's fan-out sites.

The PDMS fan-outs — per-peer fetches in
:meth:`~repro.piazza.execution.DistributedExecutor.execute`, per-subscriber
propagation and per-view maintenance in
:class:`~repro.piazza.serving.ViewServer` — hand their independent tasks
to ``runtime.map`` and apply every shared mutation after the batch
returns, so a task that raises leaves no partial accounting.

:class:`SerialRuntime` runs the batch in item order on the calling
thread.  Concurrency in this reproduction is *modeled*, not run: the
simulated network never sleeps, so a fan-out site takes a plain
``workers`` count and
:meth:`~repro.piazza.network.SimulatedNetwork.concurrent_round_trips`
charges the batch the makespan of that many workers.  Thread and
process pools lost to serial in wall clock on every fan-out site they
were measured on and were removed (``docs/parallelism.md``).

Instrumentation (``repro.obs``): every ``map`` call counts its tasks
(``runtime.tasks``) and batches (``runtime.batches``) and times the
batch (``runtime.batch.ms`` histogram).
"""

from __future__ import annotations

from time import perf_counter

from repro import obs as _obs


class SerialRuntime:
    """Runs each batch in item order, on the calling thread."""

    def __init__(self, obs: "_obs.Observability | None" = None):  # noqa: D107
        self.obs = obs or _obs.default()
        metrics = self.obs.metrics
        self._m_tasks = metrics.counter("runtime.tasks")
        self._m_batches = metrics.counter("runtime.batches")
        self._h_batch = metrics.histogram("runtime.batch.ms")

    def map(self, fn, items) -> list:
        """``[fn(item) for item in items]``, one accounted batch."""
        started = perf_counter()
        results = [fn(item) for item in items]
        self._m_tasks.inc(len(results))
        self._m_batches.inc()
        self._h_batch.observe((perf_counter() - started) * 1000.0)
        return results
