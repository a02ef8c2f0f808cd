"""Execution runtimes for the PDMS stack's fan-out sites (ISSUE 9).

Halevy et al.'s PDMS peers answer independently, so every fan-out in
the reproduction hands its independent tasks to one pluggable runtime
and has no other way to run them:

* :class:`SerialRuntime` — the default everywhere: one worker, in
  order, on the calling thread;
* :class:`ThreadPoolRuntime` — thread fan-out for the simulated-I/O
  sites: :meth:`DistributedExecutor.execute
  <repro.piazza.execution.DistributedExecutor.execute>` per-peer
  fetches, :class:`~repro.piazza.serving.ViewServer` updategram
  propagation and view maintenance, per-source matching;
* :class:`ProcessPoolRuntime` — process fan-out for CPU-bound
  picklable work (per-learner scoring in
  :meth:`~repro.corpus.match.meta.MetaLearner.predict_batch`).

The modeled-cost half lives in
:meth:`~repro.piazza.network.SimulatedNetwork.concurrent_round_trips`:
a batch of round trips is charged the makespan of a ``workers``-wide
schedule (the serial sum for one worker, the max over the batch with
unlimited workers) while message/byte accounting stays identical —
benchmark C18 reports that modeled parallelism, answers asserted
set-identical.

``tests/test_runtime.py`` is the battery: ``SerialRuntime`` ≡ a pool of
one as a property, worker-count sweeps across all fan-out sites,
hypothesis task-order shuffles, fault injection (a failing task
propagates deterministically and leaves no partially-applied stats) and
the multi-threaded :mod:`repro.obs` stress tests.
"""

from repro.runtime.pools import (
    ExecutionRuntime,
    ProcessPoolRuntime,
    SerialRuntime,
    ThreadPoolRuntime,
)

__all__ = [
    "ExecutionRuntime",
    "ProcessPoolRuntime",
    "SerialRuntime",
    "ThreadPoolRuntime",
]
