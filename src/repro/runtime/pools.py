"""Pluggable execution runtimes for the stack's fan-out sites.

Every fan-out in the reproduction — per-peer fetches in
:meth:`~repro.piazza.execution.DistributedExecutor.execute`, per-source
and per-learner scoring in :mod:`repro.corpus.match`, per-subscriber
propagation and per-view maintenance in
:class:`~repro.piazza.serving.ViewServer` — has **one** code path: it
hands its independent tasks to ``runtime.map`` and applies every shared
mutation after the batch returns.  Serial execution is a parameter
value (:class:`SerialRuntime`), not a branch at the site.  The contract:

* :meth:`ExecutionRuntime.map` runs ``fn`` over ``items`` and returns
  the results **in item order**, whatever order the workers finished in.
* A task that raises makes ``map`` raise **the exception of the
  earliest-submitted failing item** (deterministic regardless of thread
  scheduling); the pool survives and the runtime is reusable.  Callers
  mutate shared state (stats, network charges) only *after* ``map``
  returns, so a mid-fan-out failure leaves no partial accounting.
* ``map`` called from inside one of the runtime's own workers (a nested
  fan-out, e.g. per-learner scoring inside a per-source batch) runs
  inline instead of re-submitting to the pool — re-entrant submission
  from saturated workers is the classic thread-pool deadlock.

Three implementations:

* :class:`SerialRuntime` — the default: the in-order, one-worker pool
  on the calling thread.  ``tests/test_runtime.py`` pins it equal to
  ``ThreadPoolRuntime(1)`` in results, failure and accounting.
* :class:`ThreadPoolRuntime` — ``concurrent.futures`` thread pool for
  the simulated-I/O-bound work (peer fetches, propagation): tasks are
  closures over live shared state, and the GIL is irrelevant because
  the modeled cost lives in
  :meth:`~repro.piazza.network.SimulatedNetwork.concurrent_round_trips`.
* :class:`ProcessPoolRuntime` — process pool for CPU-bound work
  (learner scoring ships picklable ``(learner, samples)`` work units).
  Its ``supports_closures`` is ``False``, so
  :meth:`ExecutionRuntime.for_closures` hands closure sites (executor,
  view server, ``match_corpus``) a :class:`SerialRuntime` instead.

Pools are created lazily on first ``map`` and torn down by
:meth:`close` (also a context manager), so constructing a runtime is
free and a crashed batch never wedges the next one.

Instrumentation (``repro.obs``): every ``map`` call counts its tasks
(``runtime.tasks``) and batches (``runtime.batches``), records the
configured worker count (``runtime.workers`` gauge) and times the batch
(``runtime.batch.ms`` histogram).

Trace context propagation (ISSUE 10): when the runtime's tracer is
enabled and the caller has a span open, a pooled ``map`` captures it as
a :class:`~repro.obs.context.TraceContext` and activates it on every
worker, wrapping each task in a ``runtime.task`` span — so a parallel
fan-out stays ONE trace.  Thread pools attach to the live parent span;
process pools ship the pickled (id-only) context and re-activate it on
the worker process's default tracer.  The runtime and the fan-out site
must share one :class:`~repro.obs.Observability` (both default to
:func:`repro.obs.default`).
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from time import perf_counter

from repro import obs as _obs


def _run_with_context(fn, context, item):
    """Process-pool work unit: re-activate the shipped trace context.

    Module-level so it pickles; ``context`` arrives in wire (id-only)
    form — :class:`~repro.obs.context.TraceContext` drops its live
    span reference when pickled.  Activation installs the ids on the
    worker process's default tracer: free when that tracer is disabled
    (the default), and producing linkable same-trace fragments when a
    pool initializer enabled it.
    """
    with _obs.default().tracer.activate(context):
        return fn(item)


class ExecutionRuntime:
    """The contract every runtime implements (see the module docstring)."""

    #: Whether tasks may be unpicklable closures over shared state
    #: (false for process pools, whose work units must pickle).
    supports_closures = True
    #: Configured worker count (1 for the serial runtime).
    workers = 1

    def __init__(self, obs: "_obs.Observability | None" = None):  # noqa: D107
        self.obs = obs or _obs.default()
        metrics = self.obs.metrics
        self._m_tasks = metrics.counter("runtime.tasks")
        self._m_batches = metrics.counter("runtime.batches")
        self._g_workers = metrics.gauge("runtime.workers")
        self._h_batch = metrics.histogram("runtime.batch.ms")

    def _account(self, tasks: int, started: float) -> None:
        """Record one completed batch on the ``runtime.*`` instruments."""
        self._m_tasks.inc(tasks)
        self._m_batches.inc()
        self._g_workers.set(self.workers)
        self._h_batch.observe((perf_counter() - started) * 1000.0)

    def _map_inline(self, fn, items: list) -> list:
        """One accounted batch on the calling thread, in item order."""
        started = perf_counter()
        results = [fn(item) for item in items]
        self._account(len(items), started)
        return results

    def map(self, fn, items) -> list:
        """``[fn(item) for item in items]`` with results in item order."""
        raise NotImplementedError

    def for_closures(self) -> "ExecutionRuntime":
        """The runtime a closure-dispatching site should use.

        ``self``, unless work units must pickle — then a
        :class:`SerialRuntime` on the same observability, resolved once
        at the site's construction.
        """
        return self if self.supports_closures else SerialRuntime(obs=self.obs)

    def close(self) -> None:
        """Release worker resources (idempotent; a no-op when poolless)."""

    def __enter__(self) -> "ExecutionRuntime":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class SerialRuntime(ExecutionRuntime):
    """The in-order pool of one worker, on the calling thread."""

    def map(self, fn, items) -> list:
        """Run the batch inline, strictly in item order."""
        return self._map_inline(fn, list(items))


class _PoolRuntime(ExecutionRuntime):
    """Shared submit/collect machinery for the two pooled runtimes."""

    def __init__(self, workers: int, obs: "_obs.Observability | None" = None):  # noqa: D107
        if workers < 1:
            raise ValueError(f"worker count must be >= 1, got {workers}")
        super().__init__(obs=obs)
        self.workers = workers
        self._pool = None
        self._pool_lock = threading.Lock()
        self._local = threading.local()

    def _create_pool(self):
        raise NotImplementedError

    def _submit(self, pool, fn, item, context) -> Future:
        """Submit one task; ``context`` is the caller's trace context."""
        raise NotImplementedError

    def _ensure_pool(self):
        pool = self._pool
        if pool is None:
            with self._pool_lock:
                pool = self._pool
                if pool is None:
                    pool = self._pool = self._create_pool()
        return pool

    def map(self, fn, items) -> list:
        """Submit the whole batch, collect results in submission order.

        Collection walks the futures in item order, so the exception
        that propagates is always the earliest-submitted failure —
        deterministic however the workers were scheduled.  Remaining
        tasks run to completion in the background and the pool stays
        usable.  A nested fan-out (called on one of this runtime's own
        worker threads) or a batch with nothing to overlap runs inline.
        """
        items = list(items)
        if getattr(self._local, "worker", False) or len(items) <= 1:
            return self._map_inline(fn, items)
        pool = self._ensure_pool()
        # None whenever tracing is off or nothing is open — workers
        # then skip activation and spans entirely (the C15 bar).
        context = self.obs.tracer.current_context()
        started = perf_counter()
        futures = [self._submit(pool, fn, item, context) for item in items]
        results = [future.result() for future in futures]
        self._account(len(items), started)
        return results

    def close(self) -> None:
        """Shut the pool down (idempotent); the next map recreates it."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


class ThreadPoolRuntime(_PoolRuntime):
    """Thread-pool fan-out for the simulated-I/O-bound sites.

    Tasks may be closures over live shared state (the executor's peer
    snapshots, the view server's qualified updategram); results come
    back in item order and a failing task propagates deterministically
    (see :class:`_PoolRuntime`).
    """

    def __init__(self, workers: int = 4, obs: "_obs.Observability | None" = None):  # noqa: D107
        super().__init__(workers, obs=obs)

    def _create_pool(self):
        return ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-runtime"
        )

    def _submit(self, pool, fn, item, context) -> Future:
        return pool.submit(self._run, fn, item, context)

    def _run(self, fn, item, context):
        # Marks the thread so a nested map() runs inline instead of
        # deadlocking on its own saturated pool.
        self._local.worker = True
        if context is None:
            return fn(item)
        # Re-parent this worker's spans under the captured caller span
        # and mark the hop with its own runtime.task span — the pool
        # worker shows up in the trace like a network peer does.
        tracer = self.obs.tracer
        with tracer.activate(context):
            with tracer.span(
                "runtime.task", worker=threading.current_thread().name
            ):
                return fn(item)


class ProcessPoolRuntime(_PoolRuntime):
    """Process-pool fan-out for CPU-bound, picklable work units.

    ``fn`` and every item must pickle (the learner-scoring path ships a
    module-level function over ``(learner, samples, labels)`` tuples);
    nested maps cannot occur across the process boundary.  With tracing
    on, the caller's context ships in wire (id-only) form via
    :func:`_run_with_context`.
    """

    supports_closures = False

    def __init__(self, workers: int = 2, obs: "_obs.Observability | None" = None):  # noqa: D107
        super().__init__(workers, obs=obs)

    def _create_pool(self):
        return ProcessPoolExecutor(max_workers=self.workers)

    def _submit(self, pool, fn, item, context) -> Future:
        if context is None:
            return pool.submit(fn, item)
        return pool.submit(_run_with_context, fn, context.wire(), item)
