"""A simulated overlay network of peers (Section 3.1.2's substrate).

The paper's Piazza "will be spread across the Internet", with query
processing "distributed among the peers" — so the interesting costs are
round trips and payload volume, not local CPU.  The reproduction
substitutes this latency/message simulation: the executor
(:mod:`repro.piazza.execution`) charges one request message per remote
fetch and a response whose size is the number of tuples shipped;
latency accumulates per round trip.  With the batched executor a remote
peer is charged exactly one round trip per query regardless of how many
of its stored relations the union touches — which is precisely the gap
benchmark C11 reports against the per-relation brute-force path.

Cost-model knobs:

* ``default_latency_ms`` — flat pairwise latency (20 ms default);
  :meth:`SimulatedNetwork.set_latency` /
  :meth:`SimulatedNetwork.randomize_latencies` install heterogeneous
  topologies (seeded, for reproducible experiments);
* ``per_tuple_ms`` — marginal shipping cost per tuple, so big payloads
  are not free even over one round trip;
* local (same-peer) transfers are free and unrecorded.

Accounting: every :meth:`SimulatedNetwork.send` appends a
:class:`Message` and bumps the per-kind message counter, so
``message_count`` / ``bytes_shipped`` / ``total_latency_ms`` /
``kind_counts`` audit a whole run; the same events feed the
:mod:`repro.obs` registry (``network.messages.<kind>`` counters,
``network.tuples_shipped``, the ``network.transfer_ms`` histogram) so
traffic shows up in the unified ``explain()`` report.

Batch accounting (ISSUE 9): every fan-out site bills its round trips
through :meth:`SimulatedNetwork.concurrent_round_trips`, which charges
the batch the **makespan of a ``workers``-wide schedule** — the serial
sum with one worker, the max over the batch with unlimited workers —
while recording every message exactly as :meth:`SimulatedNetwork.send`
would (``messages`` log order, ``kind_counts``, ``bytes_shipped`` and
the per-message ``network.*`` metrics do not depend on ``workers``;
only ``total_latency_ms`` does).  That is what lets
``benchmarks/bench_c18_parallel.py`` measure modeled parallelism.

Reset semantics (:meth:`SimulatedNetwork.reset`): **traffic clears,
topology survives.**  Cleared: the ``messages`` log,
``total_latency_ms``, and the per-kind ``kind_counts``.  Kept: the
pairwise latency matrix (``set_latency`` / ``randomize_latencies``
installs), ``default_latency_ms`` and ``per_tuple_ms`` — the cost
model is configuration, not traffic.  The shared :mod:`repro.obs`
registry is also untouched: it aggregates across resets by design
(``tests/test_obs_integration.py`` pins all of this).
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field

from repro import obs as _obs


def schedule_makespan(costs: list[float], workers: int | None = None) -> float:
    """Modeled wall-clock of running ``costs`` on ``workers`` workers.

    Greedy earliest-available-worker assignment in list order — the
    deterministic model of a pool draining a submission-ordered queue.
    ``workers=None`` (or >= the batch size) degenerates to ``max``:
    everything overlaps.  One worker accumulates exactly the
    left-to-right serial sum.
    """
    if not costs:
        return 0.0
    if workers is None or workers >= len(costs):
        return max(costs)
    free_at = [0.0] * max(workers, 1)
    for cost in costs:
        available = heapq.heappop(free_at)
        heapq.heappush(free_at, available + cost)
    return max(free_at)


@dataclass
class Message:
    """One simulated network message.

    With tracing enabled, ``trace_id``/``span_id`` identify the span
    that emitted the message (ISSUE 10's per-hop attribution: the
    message log joins against a span export by id).  ``None`` when the
    tracer is disabled — stamping must never change *what* is sent, so
    traffic parity checks compare the cost-model fields only.
    """

    sender: str
    receiver: str
    size: int
    kind: str = "data"
    trace_id: str | None = None
    span_id: str | None = None


@dataclass
class SimulatedNetwork:
    """Pairwise latencies plus traffic accounting.

    Latency defaults to ``default_latency_ms`` for every pair; use
    :meth:`set_latency` or :meth:`randomize_latencies` for heterogeneous
    topologies.  Local (same-peer) transfers are free.
    """

    default_latency_ms: float = 20.0
    per_tuple_ms: float = 0.05
    _latency: dict[tuple[str, str], float] = field(default_factory=dict)
    messages: list[Message] = field(default_factory=list)
    total_latency_ms: float = 0.0
    kind_counts: dict[str, int] = field(default_factory=dict)
    obs: object = field(default=None, repr=False)

    def __post_init__(self) -> None:  # noqa: D105
        if self.obs is None:
            self.obs = _obs.default()
        # Per-kind counter handles cached so the send() hot path pays an
        # attribute add, not a registry lookup, per message.
        self._kind_counters: dict[str, object] = {}
        metrics = self.obs.metrics
        self._m_tuples = metrics.counter("network.tuples_shipped")
        self._h_transfer = metrics.histogram("network.transfer_ms")

    def set_latency(self, peer_a: str, peer_b: str, latency_ms: float) -> None:
        """Set the symmetric latency between two peers."""
        self._latency[(peer_a, peer_b)] = latency_ms
        self._latency[(peer_b, peer_a)] = latency_ms

    def randomize_latencies(self, peers: list[str], seed: int = 0,
                            low: float = 5.0, high: float = 120.0) -> None:
        """Draw symmetric pairwise latencies uniformly from [low, high]."""
        rng = random.Random(seed)
        for i, peer_a in enumerate(peers):
            for peer_b in peers[i + 1 :]:
                self.set_latency(peer_a, peer_b, rng.uniform(low, high))

    def latency(self, peer_a: str, peer_b: str) -> float:
        """Latency between two peers (0 locally)."""
        if peer_a == peer_b:
            return 0.0
        return self._latency.get((peer_a, peer_b), self.default_latency_ms)

    def transfer_ms(self, sender: str, receiver: str, size: int) -> float:
        """Modeled cost of one ``size``-tuple message (0 locally)."""
        if sender == receiver:
            return 0.0
        return self.latency(sender, receiver) + size * self.per_tuple_ms

    def _record(self, sender: str, receiver: str, size: int, kind: str) -> float:
        """Record one message's traffic; returns its transfer cost in ms.

        Everything :meth:`send` does *except* charging
        ``total_latency_ms`` — the message log, per-kind counts, and the
        ``network.*`` metrics — so per-message and batch charging share
        one recording path and can never drift in anything but the
        latency total.  Local (same-peer) transfers are free and
        unrecorded, as always.
        """
        if sender == receiver:
            return 0.0
        message = Message(sender, receiver, size, kind)
        tracer = self.obs.tracer
        if tracer.enabled:
            ids = tracer.current_ids()
            if ids is not None:
                message.trace_id, message.span_id = ids
        self.messages.append(message)
        cost = self.transfer_ms(sender, receiver, size)
        self.kind_counts[kind] = self.kind_counts.get(kind, 0) + 1
        counter = self._kind_counters.get(kind)
        if counter is None:
            counter = self.obs.metrics.counter(f"network.messages.{kind}")
            self._kind_counters[kind] = counter
        counter.inc()
        self._m_tuples.inc(size)
        self._h_transfer.observe(cost)
        return cost

    def send(self, sender: str, receiver: str, size: int, kind: str = "data") -> float:
        """Record a message; returns its simulated transfer time in ms."""
        cost = self._record(sender, receiver, size, kind)
        self.total_latency_ms += cost
        return cost

    def round_trip(
        self,
        sender: str,
        receiver: str,
        payload: int,
        kind: str = "data",
        ack_size: int = 1,
    ) -> float:
        """One payload message plus its acknowledgement; total latency.

        The serving layer's propagation unit: a peer pushes one batch of
        view deltas (``payload`` rows) to a subscriber and gets a
        fixed-size ack back — two messages, one round trip, however many
        views at the receiver the batch feeds.
        """
        cost = self.send(sender, receiver, payload, kind=kind)
        cost += self.send(receiver, sender, ack_size, kind=f"{kind}-ack")
        return cost

    def concurrent_round_trips(
        self, trips, workers: int | None = None
    ) -> float:
        """Charge a batch of round trips dispatched concurrently.

        ``trips`` is a sequence of message sequences: each trip is the
        messages one worker sends serially (e.g. request then response,
        or payload then ack), each message a ``(sender, receiver, size,
        kind)`` tuple.  Every message is *recorded* exactly as
        :meth:`send` would — same log order, same ``kind_counts``, same
        ``bytes_shipped``, same ``network.*`` metrics — but the latency
        charged to ``total_latency_ms`` is the
        :func:`schedule_makespan` of the per-trip costs over
        ``workers`` concurrent workers: the max over the batch with
        unlimited workers, the serial sum with one.  Returns the
        charged (overlapped) latency in ms.
        """
        costs = []
        for trip in trips:
            cost = 0.0
            for sender, receiver, size, kind in trip:
                cost += self._record(sender, receiver, size, kind)
            costs.append(cost)
        charged = schedule_makespan(costs, workers)
        self.total_latency_ms += charged
        return charged

    def messages_of_kind(self, kind: str) -> int:
        """How many recorded messages carry the given kind tag.

        Served from the per-kind counters rather than a log scan; the
        two stay consistent because both are written only by ``send``.
        """
        return self.kind_counts.get(kind, 0)

    @property
    def message_count(self) -> int:
        """Total messages sent so far."""
        return len(self.messages)

    @property
    def bytes_shipped(self) -> int:
        """Total tuple volume shipped (request payloads count as 1)."""
        return sum(message.size for message in self.messages)

    def reset(self) -> None:
        """Clear traffic accounting; the cost model survives.

        Clears the message log, ``total_latency_ms`` and the per-kind
        ``kind_counts``.  Keeps the pairwise latency matrix,
        ``default_latency_ms`` and ``per_tuple_ms`` (configuration, not
        traffic), and never touches the shared :mod:`repro.obs`
        registry, which aggregates across resets.
        """
        self.messages.clear()
        self.total_latency_ms = 0.0
        self.kind_counts.clear()
