"""Distributed execution of reformulated queries (Section 3.1.2).

The paper rejects the central-server design in favour of peer-based
processing with materialized views placed at peers ("processing is
distributed among the peers" / "materialized views of data at other
nodes").  The executor here:

* ships stored-relation fetches as request/response message pairs over
  the :class:`~repro.piazza.network.SimulatedNetwork`;
* **batches per peer**: one round trip per remote peer carries every
  stored relation any rewriting in the union needs, so
  :class:`ExecutionStats` records messages, tuples and latency once per
  peer, not once per relation (the pre-scale per-relation path survives
  as :meth:`DistributedExecutor.execute_brute_force`);
* **fans out per peer**: the batched per-peer fetches are one
  :class:`~repro.runtime.SerialRuntime` batch, and the network charges
  it the makespan of the executor's modeled ``workers``
  (:meth:`~repro.piazza.network.SimulatedNetwork.concurrent_round_trips`:
  the serial sum for one).  Tasks only snapshot peer data; every stat,
  metric and network charge is applied *after* the whole batch
  returns, in plan order — so answers and message/byte accounting do
  not depend on ``workers`` (benchmark C18 and ``tests/test_runtime.py``
  assert it) and a task failing mid-fan-out propagates without leaving
  a partially-applied :class:`ExecutionStats` or a half-charged
  network;
* evaluates the union with the shared-table hash join of
  :func:`repro.piazza.datalog.evaluate_union`, fetching only the
  relations the rewritings mention instead of materializing the global
  instance;
* consults *materialized views* — a peer may materialize the result of a
  whole conjunctive query; syntactically equal (up to renaming) CQs are
  then answered from the materialization without touching the sources.
  Views are epoch-guarded: each records the data epochs it was computed
  under and :meth:`DistributedExecutor.view_for` refuses it once any
  peer has mutated past them, so a frozen snapshot is never served;
* serves *continuous queries* — ``execute(..., views=server)`` answers
  queries registered on a :class:`~repro.piazza.serving.ViewServer`
  from its updategram-maintained materializations with zero
  reformulation and zero fetch round trips (benchmark C14).

Knobs: ``reformulation_options`` passes straight through to
:meth:`repro.piazza.peer.PDMS.reformulate` (depth/budget/pruning, and
``indexed=False`` to ablate the mapping index); the network's
``default_latency_ms`` / ``per_tuple_ms`` set the simulated cost model.
Benchmark C11 (``benchmarks/bench_c11_pdms_scale.py``) measures the
batched-vs-brute gap on large generated networks; the parity suite
(``tests/test_pdms_scale.py``) proves both return identical answers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs as _obs
from repro.piazza.datalog import (
    ConjunctiveQuery,
    Instance,
    evaluate_query_brute_force,
    evaluate_union,
)
from repro.piazza.network import SimulatedNetwork
from repro.piazza.peer import PDMS, owner_of
from repro.runtime import SerialRuntime


@dataclass
class ExecutionStats:
    """Accounting for one distributed execution.

    ``peers_contacted`` counts remote peers that served at least one
    stored relation; in the batched executor each costs exactly one
    request/response pair, and ``tuples_shipped`` aggregates its whole
    payload once.
    """

    messages: int = 0
    tuples_shipped: int = 0
    latency_ms: float = 0.0
    view_hits: int = 0
    relations_fetched: int = 0
    peers_contacted: int = 0
    answers: set = field(default_factory=set)


@dataclass(frozen=True)
class MaterializedView:
    """A CQ result materialized at a peer (the data-placement unit).

    ``epochs`` is the :meth:`PDMS.epoch_snapshot` the result was
    computed under; :meth:`DistributedExecutor.view_for` refuses the
    view once any peer has mutated past it.
    """

    peer: str
    query: ConjunctiveQuery
    tuples: frozenset
    epochs: tuple = ()


class DistributedExecutor:
    """Executes unions of CQs over the PDMS's stored relations.

    ``workers`` is the modeled fan-out width: each fetch batch (and any
    :class:`~repro.piazza.serving.ViewServer` propagation built on this
    executor) is charged the makespan of that many concurrent workers.
    """

    def __init__(
        self,
        pdms: PDMS,
        network: SimulatedNetwork | None = None,
        obs: "_obs.Observability | None" = None,
        workers: int = 1,
    ):  # noqa: D107
        if workers < 1:
            raise ValueError(f"worker count must be >= 1, got {workers}")
        self.pdms = pdms
        self.obs = obs or pdms.obs
        self.network = network or SimulatedNetwork(obs=self.obs)
        self.workers = workers
        # Shared with any ViewServer built on this executor.
        self.runtime = SerialRuntime(obs=self.obs)
        self._views: dict[tuple, MaterializedView] = {}
        # Metric handles cached once: the per-query hot path records
        # events with attribute adds, not registry lookups.
        metrics = self.obs.metrics
        self._m_queries = metrics.counter("execute.queries")
        self._m_view_hits = metrics.counter("execute.view_hits")
        self._m_round_trips = metrics.counter("execute.round_trips")
        self._m_tuples = metrics.counter("execute.tuples_shipped")
        self._h_round_trip = metrics.histogram("execute.round_trip_ms")
        self._h_latency = metrics.histogram("execute.simulated_latency_ms")

    # -- view placement ----------------------------------------------------
    def materialize(self, peer: str, query: str | ConjunctiveQuery) -> MaterializedView:
        """Materialize a query's answers at ``peer`` (paid once, here)."""
        if isinstance(query, str):
            query = self.pdms.query(query)
        result = self.pdms.answer(query)
        view = MaterializedView(
            peer, query, frozenset(result), epochs=self.pdms.epoch_snapshot()
        )
        self._views[(peer,) + query.canonical()] = view
        return view

    def view_for(self, peer: str, query: ConjunctiveQuery) -> MaterializedView | None:
        """A *fresh* materialization of ``query`` at ``peer``, if any.

        A view materialized under an older data epoch is stale — some
        peer has mutated since — so it is dropped and ``None`` returned
        rather than ever serving a frozen snapshot.  (The continuously
        maintained alternative is :class:`~repro.piazza.serving.ViewServer`.)
        """
        key = (peer,) + query.canonical()
        view = self._views.get(key)
        if view is None:
            return None
        if view.epochs != self.pdms.epoch_snapshot():
            del self._views[key]
            return None
        return view

    def invalidate_views(self) -> int:
        """Drop all materializations (the naive update strategy)."""
        count = len(self._views)
        self._views.clear()
        return count

    # -- execution -------------------------------------------------------------
    def _charge_fetch(self, stats: ExecutionStats, at_peer: str, owner: str,
                      payload: int, relations: int = 1) -> float:
        """Charge one request/response fetch round trip on its own.

        Two messages (request of size 1, response of ``payload``
        tuples), the simulated latency added to ``stats``, the payload
        to ``tuples_shipped`` — plus a ``execute.fetch`` span and the
        ``execute.*`` round-trip metrics.  The brute-force executor and
        :meth:`ViewServer.register <repro.piazza.serving.ViewServer.register>`'s
        placement charge bill through here; :meth:`_fetch_batch` bills
        the same messages at the same per-message cost as one batch.
        Returns the round trip's simulated ms.
        """
        with self.obs.tracer.span(
            "execute.fetch", peer=owner, payload=payload, relations=relations
        ):
            cost = self.network.send(at_peer, owner, 1, kind="request")
            cost += self.network.send(owner, at_peer, payload, kind="response")
        stats.messages += 2
        stats.tuples_shipped += payload
        stats.latency_ms += cost
        self._m_round_trips.inc()
        self._m_tuples.inc(payload)
        self._h_round_trip.observe(cost)
        return cost

    def _snapshot(self, item) -> tuple[list, int]:
        """One fetch task: copy a remote peer's extents (pure reads)."""
        owner, predicates = item
        with self.obs.tracer.span(
            "execute.fetch", peer=owner, relations=len(predicates)
        ) as span:
            rows = [
                (predicate, set(self._stored_tuples(predicate)))
                for predicate in predicates
            ]
            payload = sum(len(tuples) for _, tuples in rows)
            span.annotate(payload=payload)
        return rows, payload

    def _fetch_batch(
        self, stats: ExecutionStats, at_peer: str, local: list, remote: list
    ) -> Instance:
        """Fetch the plan's relations: one runtime task per remote peer.

        Tasks only *snapshot* each remote peer's relation extents.  All
        shared-state mutation happens after the whole batch has
        returned, in plan order: the fetched instance is merged, every
        stat/metric is applied once, and the network records one
        request/response pair per peer and charges the batch its
        makespan over the modeled ``workers``.  A task raising therefore
        propagates before anything — stats, metrics, network — has been
        touched.
        """
        network = self.network
        with self.obs.tracer.span(
            "execute.fetch_batch", peers=len(remote), workers=self.workers
        ) as span:
            snapshots = self.runtime.map(self._snapshot, remote)
            # Local relations are free and read live.
            fetched: Instance = {
                predicate: self._stored_tuples(predicate) for predicate in local
            }
            stats.relations_fetched += len(local)
            trips = []
            for (owner, predicates), (rows, payload) in zip(remote, snapshots):
                fetched.update(rows)
                stats.relations_fetched += len(predicates)
                stats.peers_contacted += 1
                stats.messages += 2
                stats.tuples_shipped += payload
                self._m_round_trips.inc()
                self._m_tuples.inc(payload)
                self._h_round_trip.observe(
                    network.transfer_ms(at_peer, owner, 1)
                    + network.transfer_ms(owner, at_peer, payload)
                )
                trips.append(
                    (
                        (at_peer, owner, 1, "request"),
                        (owner, at_peer, payload, "response"),
                    )
                )
            cost = network.concurrent_round_trips(trips, workers=self.workers)
            stats.latency_ms += cost
            span.annotate(overlapped_ms=round(cost, 3))
        return fetched

    def _stored_tuples(self, predicate: str) -> set[tuple]:
        """The live tuple set behind a ``peer!relation`` predicate."""
        owner, relation = predicate.split("!", 1)
        peer = self.pdms.peers.get(owner)
        if peer is None:
            return set()
        return peer.data.get(relation, set())

    def execute(
        self,
        query: str | ConjunctiveQuery,
        at_peer: str,
        reformulation_options: dict | None = None,
        views: "object | None" = None,
    ) -> ExecutionStats:
        """Reformulate at ``at_peer``, batch-fetch per peer, hash-join locally.

        The union's rewritings are inspected up front (view-served
        members drop out), the stored relations they mention are grouped
        by owning peer, and each remote peer is charged exactly one
        request/response round trip for its whole relation batch.

        ``views`` may be a :class:`~repro.piazza.serving.ViewServer`: a
        query registered there (up to variable renaming) is answered
        from its continuously maintained materialization — zero
        reformulation, zero fetch round trips — and only unregistered
        queries fall through to the full path.
        """
        if isinstance(query, str):
            query = self.pdms.query(query)
        with self.obs.tracer.span(
            "pdms.execute", peer=at_peer, query=query.head.predicate
        ) as span:
            self._m_queries.inc()
            if views is not None:
                served = views.serve(query, at_peer)
                if served is not None:
                    stats = ExecutionStats()
                    stats.view_hits = 1
                    stats.answers = served
                    self._m_view_hits.inc()
                    span.annotate(served_from="continuous-view")
                    return stats
            stats = ExecutionStats()
            result = self.pdms.reformulate(query, **(reformulation_options or {}))

            pending: list[ConjunctiveQuery] = []
            for rewriting in result.rewritings:
                view = self.view_for(at_peer, rewriting)
                if view is not None:
                    stats.view_hits += 1
                    stats.answers |= set(view.tuples)
                else:
                    pending.append(rewriting)
            self._m_view_hits.inc(stats.view_hits)
            if not pending:
                span.annotate(view_hits=stats.view_hits)
                return stats

            # One fetch plan for the whole union: predicate -> owner, grouped
            # by owner in first-mention order for deterministic messaging.
            by_owner: dict[str, list[str]] = {}
            planned: set[str] = set()
            for rewriting in pending:
                for atom in rewriting.body:
                    if atom.predicate in planned:
                        continue
                    planned.add(atom.predicate)
                    by_owner.setdefault(owner_of(atom.predicate), []).append(
                        atom.predicate
                    )

            remote = [
                (owner, predicates)
                for owner, predicates in by_owner.items()
                if owner != at_peer
            ]
            fetched = self._fetch_batch(
                stats, at_peer, by_owner.get(at_peer, []), remote
            )

            stats.answers |= evaluate_union(pending, fetched)
            span.annotate(
                peers_contacted=stats.peers_contacted, answers=len(stats.answers)
            )
            self._h_latency.observe(stats.latency_ms)
            return stats

    def execute_brute_force(
        self,
        query: str | ConjunctiveQuery,
        at_peer: str,
        reformulation_options: dict | None = None,
    ) -> ExecutionStats:
        """The pre-scale-layer executor, kept as the C11 baseline.

        Unindexed reformulation, a full global-instance materialization,
        one request/response pair per stored relation, and nested-loop
        evaluation per rewriting.  Answers are identical to
        :meth:`execute` (the parity suite asserts it); the stats differ
        exactly where batching saves work.
        """
        if isinstance(query, str):
            query = self.pdms.query(query)
        stats = ExecutionStats()
        result = self.pdms.reformulate_brute_force(
            query, **(reformulation_options or {})
        )
        instance = self.pdms.instance()
        fetched: Instance = {}
        for rewriting in result.rewritings:
            view = self.view_for(at_peer, rewriting)
            if view is not None:
                stats.view_hits += 1
                stats.answers |= set(view.tuples)
                continue
            for atom in rewriting.body:
                if atom.predicate in fetched:
                    continue
                owner = owner_of(atom.predicate)
                tuples = instance.get(atom.predicate, set())
                if owner != at_peer:
                    # One request + response per stored relation — the
                    # same charged helper as the batched path, called
                    # once per relation instead of once per peer.
                    self._charge_fetch(stats, at_peer, owner, len(tuples))
                stats.relations_fetched += 1
                fetched[atom.predicate] = tuples
            stats.answers |= evaluate_query_brute_force(rewriting, fetched)
        stats.peers_contacted = len(
            {owner_of(p) for p in fetched} - {at_peer}
        )
        return stats
