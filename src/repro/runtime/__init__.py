"""The execution runtime for the PDMS stack's fan-out sites.

:class:`SerialRuntime` runs a batch of independent tasks in order on
the calling thread and accounts it on ``runtime.*``.  The modeled
fan-out width is a plain ``workers`` integer on
:class:`~repro.piazza.execution.DistributedExecutor`;
:meth:`~repro.piazza.network.SimulatedNetwork.concurrent_round_trips`
charges a batch the makespan of a ``workers``-wide schedule (the serial
sum for one worker) while message/byte accounting stays identical —
benchmark C18 reports that modeled speedup.
"""

from repro.runtime.pools import SerialRuntime

__all__ = ["SerialRuntime"]
