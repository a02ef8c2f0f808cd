"""Continuous-query view serving across the PDMS (Section 3.1.2).

The paper makes materialized views placed at peers the data-placement
unit and insists that "updategrams on base data can be combined to
create updategrams for views" — explicitly rejecting "simply
invalidating views and re-reading data".  This module is that serving
front, composing the four prior scale layers:

* a :class:`ViewServer` registers *continuous queries* at peers,
  reformulates each **once** (PR 2's indexed rule-goal tree), and backs
  every rewriting with a counting-maintained
  :class:`~repro.piazza.updates.IncrementalView` over exactly the
  stored relations its body mentions;
* peer data mutations arrive as first-class
  :class:`~repro.piazza.updates.Updategram`\\ s through
  :meth:`~repro.piazza.peer.PDMS.apply_updategram` and are routed
  through a **relation→view subscription index** — only views whose
  bodies mention a touched ``peer!relation`` do any work, everything
  else is skipped without being looked at;
* each affected view maintains itself via the existing cost-based
  :meth:`~repro.piazza.updates.IncrementalView.maintain` choice
  (incremental delta-join vs recompute), and syntactically shared
  rewritings (up to renaming) are materialized **once** however many
  registrations they back;
* each registration keeps a **support-counted union** of its views'
  extents — per answer row, the number of its views that hold it (the
  counting algorithm of Gupta, Mumick & Subrahmanian, *Maintaining
  Views Incrementally*, SIGMOD 1993, applied one level up) — updated at
  write time from the :class:`~repro.piazza.updates.ViewDelta`\\ s that
  maintenance produces, so no read re-unions the views;
* update propagation is charged to the
  :class:`~repro.piazza.network.SimulatedNetwork` **batched per
  subscriber peer**: one round trip carries all the deltas a peer's
  views need for one updategram, mirroring the PR 2 fetch-batching
  discipline (``benchmarks/bench_c14_view_scale.py`` asserts the
  at-most-one-round-trip-per-subscriber invariant);
* the per-subscriber batches and the affected views — independent
  objects, each owning its shadow instance — are batches on the
  executor's :class:`~repro.runtime.SerialRuntime`, and the propagation
  is charged its makespan over the executor's modeled ``workers``
  (:meth:`~repro.piazza.network.SimulatedNetwork.concurrent_round_trips`:
  the serial sum for one); ``tests/test_runtime.py`` and benchmark C18
  pin answers and traffic equal across worker counts.

Reads go through :meth:`DistributedExecutor.execute(..., views=server)
<repro.piazza.execution.DistributedExecutor.execute>`: a registered
(α-renamed-equal) query is answered with zero reformulation and zero
fetch round trips.  A read is a freshness check plus a copy of the
registration's maintained union; the union itself is updated at write
time from the view deltas.  Freshness is
structural, not hoped-for: the server tracks the data epoch of every
peer it materialized from and the PDMS topology version its plans were
compiled against.  A peer mutated outside the updategram pipeline makes
:meth:`ViewServer.serve` *refuse* (falling back to the full path) until
the next gram for that peer triggers a wholesale re-read
(:meth:`ViewServer._resync` — grams cannot be replayed over unseen
state); a topology change (new peer/mapping/storage) makes ``serve``
re-register the query against the new rule set before answering.

The honest baseline the paper argues against is kept as the parity
oracle: :meth:`ViewServer.serve_brute_force` invalidates every
materialization and re-answers by fresh reformulation + distributed
execution.  ``tests/test_view_serving.py`` asserts set-identical
answers after every updategram of randomized interleaved query/update
streams, including multi-derivation deletes and self-join views.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

from repro.piazza.datalog import ConjunctiveQuery
from repro.piazza.execution import DistributedExecutor, ExecutionStats
from repro.piazza.peer import owner_of
from repro.piazza.updates import IncrementalView, Updategram


@dataclass
class ServingStats:
    """Accounting for one :class:`ViewServer`'s lifetime.

    ``per_gram_round_trips`` records, per updategram, how many
    subscriber peers were sent a delta batch — the benchmark asserts
    each entry is at most the number of distinct subscriber peers (one
    round trip per peer per batch, never per view or per relation).
    """

    registrations: int = 0
    reregistrations: int = 0
    rewritings_materialized: int = 0
    queries_served: int = 0
    misses: int = 0
    stale_refusals: int = 0
    resyncs: int = 0
    views_resynced: int = 0
    updategrams: int = 0
    views_maintained: int = 0
    views_skipped: int = 0
    incremental_choices: int = 0
    recompute_choices: int = 0
    peers_notified: int = 0
    messages: int = 0
    tuples_shipped: int = 0
    rows_propagated: int = 0
    latency_ms: float = 0.0
    per_gram_round_trips: list = field(default_factory=list)


@dataclass(frozen=True)
class ServedQuery:
    """One registered continuous query: a peer, its query, the plan.

    ``view_keys`` name the (shared) per-rewriting materializations;
    ``relations`` is every stored relation the plan reads and
    ``owners`` the peers those relations live at — the freshness-check
    set for :meth:`ViewServer.serve`.  ``topology_version`` pins the
    PDMS topology the one-time reformulation ran against; a mapping or
    peer added later makes the plan itself stale, and ``serve``
    re-registers before answering.
    """

    peer: str
    query: ConjunctiveQuery
    rewritings: tuple
    view_keys: tuple
    relations: frozenset
    owners: frozenset
    topology_version: int


class ViewServer:
    """Registers continuous queries and keeps their answers fresh.

    Subscribes itself to the PDMS's updategram pipeline on
    construction; from then on every
    :meth:`~repro.piazza.peer.PDMS.apply_updategram` maintains exactly
    the affected materializations and charges the network one batched
    round trip per subscriber peer.
    """

    def __init__(
        self,
        executor: DistributedExecutor,
        reformulation_options: dict | None = None,
    ):  # noqa: D107
        self.executor = executor
        self.pdms = executor.pdms
        self.network = executor.network
        self.obs = executor.obs
        # Updategram propagation and per-view maintenance are batches
        # on the executor's runtime, charged over its modeled workers.
        self.runtime = executor.runtime
        self.workers = executor.workers
        self.reformulation_options = dict(reformulation_options or {})
        self.stats = ServingStats()
        # Cached metric handles: serve() is the per-query hot path, so
        # its accounting must be attribute adds, not registry lookups.
        metrics = self.obs.metrics
        self._m_served = metrics.counter("serving.queries_served")
        self._m_misses = metrics.counter("serving.misses")
        self._m_stale = metrics.counter("serving.stale_refusals")
        self._m_registrations = metrics.counter("serving.registrations")
        self._m_reregistrations = metrics.counter("serving.reregistrations")
        self._m_updategrams = metrics.counter("serving.updategrams")
        self._m_maintained = metrics.counter("serving.views_maintained")
        self._m_skipped = metrics.counter("serving.views_skipped")
        self._m_incremental = metrics.counter("serving.incremental_choices")
        self._m_recompute = metrics.counter("serving.recompute_choices")
        self._m_resyncs = metrics.counter("serving.resyncs")
        self._m_rows = metrics.counter("serving.rows_propagated")
        self._h_maintain = metrics.histogram("serving.updategram_ms")
        # rewriting canonical key -> shared counting-maintained view
        self._views: dict[tuple, IncrementalView] = {}
        self._view_relations: dict[tuple, frozenset] = {}
        # creation index per view: maintenance iterates affected views in
        # this order without scanning the whole view table per gram
        self._view_order: dict[tuple, int] = {}
        self._view_counter = 0
        # rewriting key -> registration keys backed by it (refcount)
        self._view_regs: dict[tuple, set] = {}
        # qualified stored relation -> rewriting keys that mention it
        self._subscribers: dict[str, set] = {}
        self._registrations: dict[tuple, ServedQuery] = {}
        # registration key -> {answer row: how many of its views hold the
        # row} — the support-counted union serve() copies, kept current
        # at write time from the views' deltas
        self._unions: dict[tuple, Counter] = {}
        # data epochs of the peers we materialized from, maintained
        # through the updategram pipeline; serve() refuses on mismatch.
        self._epochs: dict[str, int] = {}
        self.pdms.subscribe_updates(self._on_updategram)

    # -- registration ------------------------------------------------------
    def register(self, peer: str, query: str | ConjunctiveQuery) -> ServedQuery:
        """Register a continuous query at ``peer`` (idempotent).

        Reformulates once, materializes each rewriting over its stored
        relations (shared with other registrations of an α-equal
        rewriting), wires the subscription index, and charges the
        network one round trip per remote peer whose relations had to
        be fetched for the *new* materializations.
        """
        if isinstance(query, str):
            query = self.pdms.query(query)
        key = (peer,) + query.canonical()
        existing = self._registrations.get(key)
        if existing is not None:
            return existing
        with self.obs.tracer.span(
            "serving.register", peer=peer, query=query.head.predicate
        ) as span:
            result = self.pdms.reformulate(query, **self.reformulation_options)
            span.annotate(rewritings=len(result.rewritings))
            # insertion-ordered sets: a list `in` test per rewriting would
            # be quadratic in the number of rewritings
            view_keys: dict = {}
            relations: set = set()
            fresh_predicates: dict = {}
            new_vkeys: set = set()
            for rewriting in result.rewritings:
                vkey = rewriting.canonical()
                predicates = frozenset(atom.predicate for atom in rewriting.body)
                if vkey not in self._views:
                    new_vkeys.add(vkey)
                    # IncrementalView copies each live relation it is given.
                    instance = {
                        predicate: self._stored(predicate) for predicate in predicates
                    }
                    self._views[vkey] = IncrementalView(rewriting, instance)
                    self._view_relations[vkey] = predicates
                    self._view_regs[vkey] = set()
                    self._view_order[vkey] = self._view_counter
                    self._view_counter += 1
                    for predicate in predicates:
                        self._subscribers.setdefault(predicate, set()).add(vkey)
                    fresh_predicates.update(dict.fromkeys(predicates))
                    self.stats.rewritings_materialized += 1
                self._view_regs[vkey].add(key)
                view_keys[vkey] = None
                relations |= predicates
            # Pay the placement cost: one round trip per remote peer for the
            # relations fetched fresh here (shared views were already paid
            # for), billed through the executor's charged fetch helper.
            by_owner: dict[str, int] = {}
            for predicate in fresh_predicates:
                payload = len(self._stored(predicate))
                by_owner[owner_of(predicate)] = by_owner.get(owner_of(predicate), 0) + payload
            for owner, payload in sorted(by_owner.items()):
                if owner != peer:
                    self.executor._charge_fetch(self.stats, peer, owner, payload)
            for owner in sorted({owner_of(relation) for relation in relations}):
                tracked = self._epochs.get(owner)
                if tracked is None:
                    self._epochs[owner] = self.pdms.data_epoch(owner)
                elif tracked != self.pdms.data_epoch(owner):
                    # Out-of-band mutations happened since we last looked at
                    # this owner: older views of it are unrepairable from
                    # grams — re-read them now.  The views built in this
                    # very call came from live data and are skipped.
                    self._resync(owner, fresh=new_vkeys)
            # Built after the repairs above, so it counts repaired extents.
            union: Counter = Counter()
            for vkey in view_keys:
                union.update(self._views[vkey].tuples())
            self._unions[key] = union
            registration = ServedQuery(
                peer=peer,
                query=query,
                rewritings=tuple(result.rewritings),
                view_keys=tuple(view_keys),
                relations=frozenset(relations),
                owners=frozenset(owner_of(r) for r in relations),
                topology_version=self.pdms.topology_version,
            )
            self._registrations[key] = registration
            self.stats.registrations += 1
            self._m_registrations.inc()
            return registration

    def register_all(self, queries) -> list:
        """Register many ``(peer, query)`` continuous queries in order.

        The recovery re-attach path: after a crashed peer is restored
        (:meth:`~repro.piazza.peer.PDMS.restore_peer` — log replay
        reproduces its data *and* epoch), a fresh server re-registers
        the same continuous queries and materializes them from the
        recovered state; because the epochs match the original run,
        every subsequent :meth:`serve` is answered fresh, exactly as it
        would have been without the crash.
        """
        return [self.register(peer, query) for peer, query in queries]

    def unregister(self, peer: str, query: str | ConjunctiveQuery) -> bool:
        """Drop a registration; shared views survive while referenced."""
        if isinstance(query, str):
            query = self.pdms.query(query)
        key = (peer,) + query.canonical()
        registration = self._registrations.pop(key, None)
        if registration is None:
            return False
        del self._unions[key]
        for vkey in registration.view_keys:
            backers = self._view_regs.get(vkey)
            if backers is None:
                continue
            backers.discard(key)
            if not backers:
                for predicate in self._view_relations[vkey]:
                    self._subscribers.get(predicate, set()).discard(vkey)
                del self._views[vkey]
                del self._view_relations[vkey]
                del self._view_regs[vkey]
                del self._view_order[vkey]
        return True

    def registered(self, peer: str, query: str | ConjunctiveQuery) -> bool:
        """Whether an α-renamed-equal query is registered at ``peer``."""
        if isinstance(query, str):
            query = self.pdms.query(query)
        return ((peer,) + query.canonical()) in self._registrations

    def registrations(self) -> list:
        """All current registrations (insertion order)."""
        return list(self._registrations.values())

    def subscriber_peers(self) -> set:
        """Peers holding at least one registration."""
        return {registration.peer for registration in self._registrations.values()}

    # -- reads -------------------------------------------------------------
    def serve(self, query: str | ConjunctiveQuery, at_peer: str) -> set | None:
        """Fresh answers for a registered query, or ``None`` to fall back.

        A read is a freshness check — registration, topology version,
        then every backing owner's data epoch — plus a copy of the
        registration's support-counted union.  The union is updated at
        write time from the view deltas, so no view is looked at here.
        ``None`` means "not registered here" *or* "some backing peer
        mutated outside the updategram pipeline" — either way the
        caller's full reformulate-and-fetch path takes over, so a stale
        snapshot is never served.
        """
        if isinstance(query, str):
            query = self.pdms.query(query)
        key = (at_peer,) + query.canonical()
        registration = self._registrations.get(key)
        if registration is None:
            self.stats.misses += 1
            self._m_misses.inc()
            return None
        if registration.topology_version != self.pdms.topology_version:
            # A peer/mapping/storage change made the one-time
            # reformulation stale: re-register (reformulate once against
            # the new topology, rematerialize) before answering.
            self.unregister(at_peer, query)
            registration = self.register(at_peer, query)
            self.stats.reregistrations += 1
            self._m_reregistrations.inc()
        for owner in registration.owners:
            if self.pdms.data_epoch(owner) != self._epochs.get(owner):
                self.stats.stale_refusals += 1
                self._m_stale.inc()
                return None
        self.stats.queries_served += 1
        self._m_served.inc()
        # A copy: a caller that mutates its answers cannot reach the union.
        return set(self._unions[key])

    def serve_brute_force(
        self, query: str | ConjunctiveQuery, at_peer: str
    ) -> ExecutionStats:
        """The rejected baseline, kept as the parity oracle.

        "Simply invalidating views and re-reading data": drop every
        materialization on the executor and answer by a fresh
        reformulation + batched distributed execution.
        """
        self.executor.invalidate_views()
        return self.executor.execute(query, at_peer)

    def close(self) -> None:
        """Detach from the PDMS and drop all serving state.

        Without this a discarded server would stay subscribed forever,
        maintaining its views on every future updategram.
        """
        self.pdms.unsubscribe_updates(self._on_updategram)
        self._registrations.clear()
        self._unions.clear()
        self._views.clear()
        self._view_relations.clear()
        self._view_regs.clear()
        self._view_order.clear()
        self._subscribers.clear()
        self._epochs.clear()

    # -- the updategram pipeline -------------------------------------------
    def _stored(self, predicate: str) -> set:
        return self.executor._stored_tuples(predicate)

    def _resync(self, owner: str, fresh: frozenset | set = frozenset()) -> set:
        """Re-read ``owner``'s relations into every view that uses them.

        The repair path for mutations that bypassed the updategram
        pipeline: they cannot be replayed onto the shadow instances, so
        the affected extents are re-fetched wholesale (one round trip
        per remote subscriber peer, like the initial placement) and the
        derivation counts recomputed.  ``fresh`` names views already
        built from live data (a registration in progress) that need no
        repair.  Returns the refreshed view keys.
        """
        prefix = f"{owner}!"
        refreshed: set = set()
        needed_by_peer: dict[str, set] = {}
        with self.obs.tracer.span("serving.resync", owner=owner) as span:
            for vkey, relations in self._view_relations.items():
                if vkey in fresh:
                    continue
                owned = {r for r in relations if r.startswith(prefix)}
                if not owned:
                    continue
                view = self._views[vkey]
                before = view.tuples()
                for predicate in owned:
                    view.instance[predicate] = set(self._stored(predicate))
                view._recompute_counts()
                after = view.tuples()
                self._fold_into_unions(vkey, after - before, before - after)
                refreshed.add(vkey)
                for reg_key in self._view_regs[vkey]:
                    needed_by_peer.setdefault(reg_key[0], set()).update(owned)
            for peer in sorted(needed_by_peer):
                if peer == owner:
                    continue
                payload = sum(len(self._stored(r)) for r in needed_by_peer[peer])
                self.stats.peers_notified += 1
                self.stats.messages += 2
                self.stats.rows_propagated += payload
                self._m_rows.inc(payload)
                self.stats.latency_ms += self.network.round_trip(
                    owner, peer, payload, kind="resync"
                )
            if refreshed:
                self.stats.resyncs += 1
                self.stats.views_resynced += len(refreshed)
                self._m_resyncs.inc()
            span.annotate(views_resynced=len(refreshed))
            self._epochs[owner] = self.pdms.data_epoch(owner)
            return refreshed

    def _propagate(
        self, owner: str, qualified: Updategram, needed_by_peer: dict,
        remote_peers: list,
    ) -> None:
        """Push one gram's delta batches to the remote subscriber peers.

        Tasks assemble each peer's payload (the union of delta rows its
        affected views need — pure reads of the immutable qualified
        gram); the caller then records one update/update-ack
        pair per peer, in sorted peer order, and charges the batch its
        makespan over the modeled workers.  At most one round trip
        per subscriber peer per gram.
        """

        def _payload(peer):
            with self.obs.tracer.span("serving.propagate", peer=peer) as span:
                payload = sum(
                    len(qualified.inserts.get(r, ()))
                    + len(qualified.deletes.get(r, ()))
                    for r in needed_by_peer[peer]
                )
                span.annotate(payload=payload)
            return payload

        workers = self.workers
        with self.obs.tracer.span(
            "serving.propagate_batch", peers=len(remote_peers), workers=workers
        ) as span:
            payloads = self.runtime.map(_payload, remote_peers)
            trips = []
            for peer, payload in zip(remote_peers, payloads):
                self.stats.peers_notified += 1
                self.stats.messages += 2
                self.stats.rows_propagated += payload
                self._m_rows.inc(payload)
                trips.append(
                    ((owner, peer, payload, "update"), (peer, owner, 1, "update-ack"))
                )
            cost = self.network.concurrent_round_trips(trips, workers=workers)
            self.stats.latency_ms += cost
            span.annotate(overlapped_ms=round(cost, 3))

    def _fold_into_unions(self, vkey: tuple, inserted, deleted) -> None:
        """Fold one view's delta into the unions of its registrations.

        Each union row counts the registration's views that hold it
        (Gupta, Mumick & Subrahmanian's counting, one level up): +1 per
        inserted row, -1 per deleted row, and a row leaves the union
        when its count reaches 0.  Registrations ``register`` has not
        filed yet have no union and are skipped; it builds theirs from
        the repaired extents.
        """
        if not (inserted or deleted):
            return
        for reg_key in self._view_regs[vkey]:
            union = self._unions.get(reg_key)
            if union is None:
                continue
            union.update(inserted)
            for row in deleted:
                if union[row] == 1:
                    del union[row]
                else:
                    union[row] -= 1

    def _maintain(self, ordered: list, qualified: Updategram) -> list:
        """Maintain the affected views, one runtime task per view.

        Each view owns its shadow instance and derivation counts, so
        maintenance tasks are independent; each makes its own
        cost-based incremental-vs-recompute choice.  ``(strategy,
        delta)`` pairs come back in creation order (the runtime's
        order-stable contract); the caller applies all serving stats
        and folds the deltas into the unions afterwards.
        """

        def _maintain_view(vkey):
            view = self._views[vkey]
            restricted = qualified.restrict(self._view_relations[vkey])
            with self.obs.tracer.span(
                "serving.maintain", view=view.query.head.predicate
            ) as span:
                strategy, delta = view.maintain(restricted)
                span.annotate(strategy=strategy)
            return strategy, delta

        with self.obs.tracer.span(
            "serving.maintain_batch",
            views=len(ordered),
            workers=self.workers,
        ):
            return self.runtime.map(_maintain_view, ordered)

    def _on_updategram(self, owner: str, gram: Updategram, epoch_before: int) -> None:
        """Route one base updategram to exactly the views it can affect.

        Qualifies the gram to ``owner!relation`` predicates, looks the
        touched relations up in the subscription index, charges one
        batched round trip per remote subscriber peer, and lets each
        affected view make its own cost-based maintenance choice.

        ``epoch_before`` (the owner's epoch just before this gram) is
        the out-of-band detector: if it disagrees with the epoch we
        tracked, something mutated the peer without an updategram, the
        gram cannot be replayed onto our shadow state, and the owner's
        relations are re-read wholesale instead (:meth:`_resync` — the
        post-gram live state folds this gram in too).
        """
        started = perf_counter()
        self.stats.updategrams += 1
        self._m_updategrams.inc()
        with self.obs.tracer.span(
            "serving.updategram", owner=owner, rows=gram.size()
        ) as span:
            tracked = self._epochs.get(owner)
            if tracked is not None and tracked != epoch_before:
                refreshed = self._resync(owner)
                skipped = len(self._views) - len(refreshed)
                self.stats.views_skipped += skipped
                self._m_skipped.inc(skipped)
                self.stats.per_gram_round_trips.append(
                    len({k[0] for v in refreshed for k in self._view_regs[v]} - {owner})
                )
                self._h_maintain.observe((perf_counter() - started) * 1000.0)
                return
            qualified = gram.qualify(owner)
            touched_relations = qualified.relations()
            affected: set = set()
            for relation in touched_relations:
                affected |= self._subscribers.get(relation, set())
            skipped = len(self._views) - len(affected)
            self.stats.views_skipped += skipped
            self._m_skipped.inc(skipped)

            # One round trip per subscriber peer, carrying every delta row
            # any of its views needs (union over its affected views).
            needed_by_peer: dict[str, set] = {}
            for vkey in affected:
                touched = self._view_relations[vkey] & touched_relations
                for reg_key in self._view_regs[vkey]:
                    needed_by_peer.setdefault(reg_key[0], set()).update(touched)
            remote_peers = [
                peer for peer in sorted(needed_by_peer) if peer != owner
            ]  # local views see the mutation for free
            if remote_peers:
                self._propagate(owner, qualified, needed_by_peer, remote_peers)
            round_trips = len(remote_peers)
            self.stats.per_gram_round_trips.append(round_trips)

            # Maintain each shared view once, in creation order — ordered via
            # the per-view index, without scanning the whole view table.
            ordered = sorted(affected, key=self._view_order.__getitem__)
            results = self._maintain(ordered, qualified) if ordered else []
            for vkey, (strategy, delta) in zip(ordered, results):
                self._fold_into_unions(vkey, delta.inserted, delta.deleted)
                self.stats.views_maintained += 1
                self._m_maintained.inc()
                if strategy == "incremental":
                    self.stats.incremental_choices += 1
                    self._m_incremental.inc()
                else:
                    self.stats.recompute_choices += 1
                    self._m_recompute.inc()
            span.annotate(
                views_maintained=len(affected), round_trips=round_trips
            )
            if owner in self._epochs:
                self._epochs[owner] = self.pdms.data_epoch(owner)
        self._h_maintain.observe((perf_counter() - started) * 1000.0)
