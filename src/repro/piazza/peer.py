"""Peers, mappings, storage descriptions and the PDMS itself.

This is the assembly point for Section 3 of the paper: peers join with
any subset of the three content types of Section 3.1 — data (stored
relations), a peer schema, and mappings — and :class:`PDMS` compiles
everything into the single (inverse) datalog rule set shared by the
reformulation engine (Section 3.1.1), the distributed executor
(Section 3.1.2) and the certain-answer chase it is all measured
against.

Naming convention for predicates:

* ``Peer.relation`` — a *peer relation* (logical schema element),
* ``Peer!relation`` — a *stored relation* (materialized source data).

Mapping formalisms (Section 3.1.1's "mappings are local"):

* :class:`StorageDescription` — LAV-style ``Peer!stored ⊆ view over
  Peer's schema`` (``exact=True`` for closed-world sources);
* :class:`InclusionMapping` — GLAV ``Q_source ⊆ Q_target`` between two
  peers' schemas (``exact=True`` compiles both directions);
* :class:`DefinitionalMapping` — GAV-style view definition.

Caching and scale knobs — rules compile once per mapping, templates
once per rule (``Rule.template``), the index closure once per topology:

* ``rules()`` — the compiled rule set, extended as each description is
  registered (one that cannot compile is refused, changing nothing);
* ``mapping_index()`` — the :class:`~repro.piazza.mapping_index.MappingIndex`
  over those rules, served to every :meth:`reformulate` call unless
  ``indexed=False`` requests the brute-force path (the benchmark C11
  baseline);
* :meth:`answer` evaluates the reformulated union with the hash-join
  batched evaluator; :meth:`answer_brute_force` keeps the pre-scale
  nested-loop path for parity testing.

Reformulation knobs (``max_depth``, ``max_rule_uses``, ``prune``,
``minimize``, ``max_rewritings``) pass through ``**options`` to
:func:`repro.piazza.reformulation.reformulate`; see that module for the
pruning inventory.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from time import perf_counter

from repro import obs as _obs

from repro.piazza.datalog import (
    Atom,
    ConjunctiveQuery,
    Func,
    Instance,
    Rule,
    Var,
    apply_subst_atom,
    certain_answers,
    evaluate_union,
    evaluate_union_brute_force,
    fresh_suffix,
    minimize_union_brute_force,
    unify,
)
from repro.piazza.mapping_index import MappingIndex
from repro.piazza.parse import parse_query
from repro.piazza.reformulation import ReformulationResult, reformulate
from repro.piazza.updates import Updategram


class PdmsError(Exception):
    """Configuration problem in the PDMS (unknown peer, bad mapping)."""


def peer_relation(peer: str, relation: str) -> str:
    """Qualified peer-relation predicate name."""
    return f"{peer}.{relation}"


def stored_relation(peer: str, relation: str) -> str:
    """Qualified stored-relation predicate name."""
    return f"{peer}!{relation}"


def owner_of(predicate: str) -> str:
    """Peer owning a qualified predicate."""
    for separator in ("!", "."):
        if separator in predicate:
            return predicate.split(separator, 1)[0]
    raise PdmsError(f"predicate {predicate!r} is not peer-qualified")


@dataclass
class Peer:
    """One participant: schema (logical), stored relations (data).

    ``schema`` and ``stored`` map relation name to its attribute names;
    attribute names matter to the corpus tools, arity to the queries.
    ``epoch`` counts data mutations: every change to ``data`` (insert,
    delete, updategram) bumps it, and consumers holding snapshots —
    :meth:`~repro.piazza.execution.DistributedExecutor.view_for`, the
    :class:`~repro.piazza.serving.ViewServer` — refuse state captured
    under an older epoch, so stale answers are structurally impossible.

    Durability (ISSUE 8): :meth:`attach_log` wires a
    :class:`~repro.storage.peerlog.PeerLog` under the peer, after which
    every mutation appends its updategram (or stored-schema record) to
    the write-ahead log *before* applying it.  :meth:`restore` is the
    inverse: replay the log's grams through this same apply logic, so
    the recovered peer's data sets *and* epoch counter match the
    original run exactly.  Only stored relations and their data are
    durable — the logical peer schema and the mappings are PDMS
    topology, re-declared by the application at startup.
    """

    name: str
    schema: dict[str, list[str]] = field(default_factory=dict)
    stored: dict[str, list[str]] = field(default_factory=dict)
    data: dict[str, set[tuple]] = field(default_factory=dict)
    epoch: int = 0
    log: object = field(default=None, repr=False, compare=False)

    def add_relation(self, relation: str, attributes: list[str]) -> None:
        """Declare a peer-schema relation."""
        self.schema[relation] = list(attributes)

    def attach_log(self, log) -> None:
        """Make every subsequent mutation durable through ``log``."""
        self.log = log

    def add_stored(self, relation: str, attributes: list[str], rows: Iterable[tuple] = ()) -> None:
        """Declare a stored relation and optionally load rows."""
        rows = [tuple(row) for row in rows]
        if self.log is not None:
            self.log.append_schema(relation, attributes)
            if rows:
                self.log.append_gram(Updategram().insert(relation, rows))
        self.stored[relation] = list(attributes)
        target = self.data.setdefault(relation, set())
        before = len(target)
        target.update(rows)
        if len(target) != before:
            self.epoch += 1
        if self.log is not None:
            self.log.gram_applied(self)

    def insert(self, relation: str, rows: Iterable[tuple]) -> int:
        """Add rows to a stored relation; returns count added."""
        if relation not in self.stored:
            raise PdmsError(f"peer {self.name} has no stored relation {relation!r}")
        rows = [tuple(row) for row in rows]
        if self.log is not None:
            self.log.append_gram(Updategram().insert(relation, rows))
        target = self.data.setdefault(relation, set())
        before = len(target)
        target.update(rows)
        added = len(target) - before
        if added:
            self.epoch += 1
        if self.log is not None:
            self.log.gram_applied(self)
        return added

    def delete(self, relation: str, rows: Iterable[tuple]) -> int:
        """Remove rows from a stored relation; returns count removed."""
        if relation not in self.stored:
            raise PdmsError(f"peer {self.name} has no stored relation {relation!r}")
        rows = [tuple(row) for row in rows]
        if self.log is not None:
            self.log.append_gram(Updategram().delete(relation, rows))
        target = self.data.setdefault(relation, set())
        before = len(target)
        target.difference_update(rows)
        removed = before - len(target)
        if removed:
            self.epoch += 1
        if self.log is not None:
            self.log.gram_applied(self)
        return removed

    def apply_updategram(self, gram) -> int:
        """Apply an :class:`~repro.piazza.updates.Updategram` atomically.

        Deletes first, then inserts (matching ``Updategram.apply_to``,
        so an insert wins over a delete of the same row); the epoch is
        bumped at most once per gram.  Returns the number of rows that
        actually changed.  Raises on relations the peer does not store.

        With a log attached the gram is appended to the WAL *before* it
        is applied (write-ahead: the log is always at least as new as
        the in-memory data — a crash between append and apply replays
        to the post-apply state, never loses an acknowledged change).
        """
        for relation in gram.relations():
            if relation not in self.stored:
                raise PdmsError(
                    f"peer {self.name} has no stored relation {relation!r}"
                )
        if self.log is not None:
            self.log.append_gram(gram)
        changed = 0
        for relation, rows in gram.deletes.items():
            target = self.data.setdefault(relation, set())
            before = len(target)
            target.difference_update(rows)
            changed += before - len(target)
        for relation, rows in gram.inserts.items():
            target = self.data.setdefault(relation, set())
            before = len(target)
            target.update(rows)
            changed += len(target) - before
        if changed:
            self.epoch += 1
        if self.log is not None:
            self.log.gram_applied(self)
        return changed

    @classmethod
    def restore(cls, name: str, log) -> "Peer":
        """Recover a peer from its durable log (snapshot + gram replay).

        The WAL tail is replayed through the peer's *own* mutation
        methods (with the log attached only afterwards, so nothing
        re-logs), which makes the recovered data sets and epoch counter
        bit-equal to the pre-crash peer's — the property the
        kill-and-recover suite in ``tests/test_storage_recovery.py``
        pins against an uninterrupted run.
        """
        state = log.recover()
        peer = cls(name)
        peer.stored = {rel: list(attrs) for rel, attrs in state.stored.items()}
        peer.data = {rel: set(rows) for rel, rows in state.data.items()}
        peer.epoch = state.epoch
        for kind, *payload in state.grams:
            if kind == "schema":
                relation, attributes = payload
                peer.add_stored(relation, attributes)
            else:
                (gram,) = payload
                peer.apply_updategram(gram)
        peer.attach_log(log)
        return peer

    def qualified_schema(self) -> dict[str, list[str]]:
        """Peer relations with qualified names."""
        return {peer_relation(self.name, rel): attrs for rel, attrs in self.schema.items()}


@dataclass(frozen=True)
class StorageDescription:
    """``Peer!stored ⊆ view over Peer's schema`` (LAV-style, open world).

    ``view.head`` must use the qualified stored-relation predicate.
    """

    view: ConjunctiveQuery
    exact: bool = False

    def rules(self) -> list[Rule]:
        """Inverse rules: each view body atom derivable from the stored data."""
        return _inverse_rules(
            source_head=self.view.head,
            source_body=(self.view.head,),
            target=self.view,
            label=f"storage:{self.view.head.predicate}",
        )


@dataclass(frozen=True)
class InclusionMapping:
    """GLAV mapping ``Q_source ⊆ Q_target`` between peer schemas.

    ``source`` and ``target`` are conjunctive queries with heads of equal
    arity (the head predicates are ignored — they only align variables).
    ``exact=True`` makes it an equality mapping, compiled in both
    directions.
    """

    name: str
    source: ConjunctiveQuery
    target: ConjunctiveQuery
    exact: bool = False

    def __post_init__(self) -> None:
        if len(self.source.head.args) != len(self.target.head.args):
            raise PdmsError(
                f"mapping {self.name}: head arities differ "
                f"({len(self.source.head.args)} vs {len(self.target.head.args)})"
            )

    def rules(self) -> list[Rule]:
        """Compile to inverse rules (both directions when exact)."""
        compiled = _inverse_rules(
            source_head=self.source.head,
            source_body=self.source.body,
            target=self.target,
            label=f"map:{self.name}",
        )
        if self.exact:
            compiled += _inverse_rules(
                source_head=self.target.head,
                source_body=self.target.body,
                target=self.source,
                label=f"map:{self.name}:rev",
            )
        return compiled

    def peers(self) -> tuple[set[str], set[str]]:
        """(source peers, target peers) named in the two sides."""
        return (
            {owner_of(a.predicate) for a in self.source.body},
            {owner_of(a.predicate) for a in self.target.body},
        )


@dataclass(frozen=True)
class DefinitionalMapping:
    """GAV-style definition: a peer relation defined as a view.

    ``definition.head`` is the defined (qualified) peer relation; the
    body may reference other peers' relations or stored relations.
    """

    name: str
    definition: ConjunctiveQuery

    def rules(self) -> list[Rule]:
        """A definitional mapping is directly a datalog rule."""
        return [Rule(self.definition.head, self.definition.body, f"def:{self.name}")]


def _inverse_rules(
    source_head: Atom,
    source_body: tuple,
    target: ConjunctiveQuery,
    label: str,
) -> list[Rule]:
    """Inverse-rule construction for ``Q_source(x̄) ⊆ Q_target(x̄)``.

    Head variables of the target are aligned with the source head's
    arguments; each remaining (existential) target variable becomes a
    Skolem term over the head arguments.
    """
    fresh_target = target.rename(fresh_suffix())
    subst = {}
    for target_arg, source_arg in zip(fresh_target.head.args, source_head.args):
        unified = unify(target_arg, source_arg, subst)
        if unified is None:
            raise PdmsError(f"mapping {label}: cannot align head variables")
        subst = unified
    head_vars = set()
    for arg in source_head.args:
        if isinstance(arg, Var):
            head_vars.add(arg)
    skolem_args = tuple(sorted(head_vars, key=lambda v: v.name))
    rules: list[Rule] = []
    for atom in fresh_target.body:
        aligned = apply_subst_atom(atom, subst)
        final_args = []
        for arg in aligned.args:
            if isinstance(arg, Var) and arg not in head_vars:
                final_args.append(Func(f"{label}:{arg.name}", skolem_args))
            else:
                final_args.append(arg)
        rules.append(Rule(Atom(aligned.predicate, tuple(final_args)), source_body, label))
    return rules


class PDMS:
    """The peer data management system: peers + mappings + answering.

    >>> pdms = PDMS()
    >>> uw = pdms.add_peer("uw")
    >>> uw.add_relation("course", ["id", "title"])
    >>> uw.add_stored("c", ["id", "title"], [(1, "DB")])
    >>> pdms.add_storage("uw", "c", "uw.course")
    >>> sorted(pdms.answer(pdms.query("ans(T) :- uw.course(C, T)")))
    [('DB',)]
    """

    def __init__(self, obs: "_obs.Observability | None" = None) -> None:  # noqa: D107
        self.obs = obs or _obs.default()
        self.peers: dict[str, Peer] = {}
        self.mappings: list = []
        self.storage: list[StorageDescription] = []
        self._storage_rules: list[Rule] = []
        self._mapping_rules: list[Rule] = []
        self._index_cache: MappingIndex | None = None
        self._update_listeners: list = []
        self._topology_version = 0

    # -- construction -----------------------------------------------------
    def add_peer(self, name: str) -> Peer:
        """Create and register a new peer."""
        if name in self.peers:
            raise PdmsError(f"peer {name!r} already exists")
        peer = Peer(name)
        self.peers[name] = peer
        self._topology_version += 1
        return peer

    def restore_peer(self, name: str, log) -> Peer:
        """Recover a peer from its :class:`~repro.storage.peerlog.PeerLog`
        and register it.

        The restart path: :meth:`Peer.restore` replays the log
        (snapshot + updategram tail) into a fresh peer whose data and
        epoch match the pre-crash run, the log stays attached for
        subsequent mutations, and the topology version bumps just like
        :meth:`add_peer`.  Continuous queries
        (:class:`~repro.piazza.serving.ViewServer` registrations)
        re-attach by simply re-registering against the recovered data —
        the epoch fidelity is what makes their freshness checks hold.
        """
        if name in self.peers:
            raise PdmsError(f"peer {name!r} already exists")
        peer = Peer.restore(name, log)
        self.peers[name] = peer
        self._topology_version += 1
        return peer

    def add_storage(
        self,
        peer: str,
        stored: str,
        view: str | ConjunctiveQuery,
        exact: bool = False,
    ) -> StorageDescription:
        """Register a storage description.

        ``view`` may be a full conjunctive query string, or just a peer
        relation name for the common identity case (same arity).
        """
        owner = self._peer(peer)
        if stored not in owner.stored:
            raise PdmsError(f"peer {peer} has no stored relation {stored!r}")
        qualified = stored_relation(peer, stored)
        if isinstance(view, str) and ":-" not in view:
            attrs = owner.stored[stored]
            args = ", ".join(f"?a{i}" for i in range(len(attrs)))
            view = f"{qualified}({args}) :- {view}({args})"
        if isinstance(view, str):
            view = parse_query(view)
        if view.head.predicate != qualified:
            view = ConjunctiveQuery(Atom(qualified, view.head.args), view.body)
        description = StorageDescription(view, exact=exact)
        return self._register(description, self.storage, self._storage_rules)

    def add_mapping(
        self,
        name: str,
        source: str | ConjunctiveQuery,
        target: str | ConjunctiveQuery,
        exact: bool = False,
    ) -> InclusionMapping:
        """Register a GLAV inclusion (or equality) mapping."""
        if isinstance(source, str):
            source = parse_query(source)
        if isinstance(target, str):
            target = parse_query(target)
        mapping = InclusionMapping(name, source, target, exact=exact)
        return self._register(mapping, self.mappings, self._mapping_rules)

    def add_definition(self, name: str, definition: str | ConjunctiveQuery) -> DefinitionalMapping:
        """Register a GAV-style definitional mapping."""
        if isinstance(definition, str):
            definition = parse_query(definition)
        mapping = DefinitionalMapping(name, definition)
        return self._register(mapping, self.mappings, self._mapping_rules)

    def _register(self, description, descriptions: list, rules: list[Rule]):
        """Compile ``description`` first, so one that cannot compile
        raises before anything changes; then record it and its rules."""
        compiled = description.rules()
        descriptions.append(description)
        rules.extend(compiled)
        self._index_cache = None
        self._topology_version += 1
        return description

    def _peer(self, name: str) -> Peer:
        try:
            return self.peers[name]
        except KeyError:
            raise PdmsError(f"unknown peer {name!r}") from None

    # -- compiled views ------------------------------------------------------
    def rules(self) -> list[Rule]:
        """All storage rules, then all mapping rules, in registration
        order; each description was compiled once, when it was added."""
        return self._storage_rules + self._mapping_rules

    def edb_predicates(self) -> set[str]:
        """Qualified names of every stored relation."""
        return {
            stored_relation(peer.name, rel)
            for peer in self.peers.values()
            for rel in peer.stored
        }

    def mapping_index(self) -> MappingIndex:
        """The cached rule index + relevance closure for this topology.

        Rebuilt, recompiling nothing, whenever a description adds rules
        or the stored-relation set changes (``Peer.add_stored`` and
        :meth:`restore_peer` can grow the latter without going through
        the PDMS, so the EDB set is re-checked here).
        """
        edb = self.edb_predicates()
        if self._index_cache is None or self._index_cache.edb_predicates != edb:
            self._index_cache = MappingIndex(self.rules(), edb)
        return self._index_cache

    def instance(self) -> Instance:
        """The global instance of stored data."""
        return {
            stored_relation(peer.name, rel): set(rows)
            for peer in self.peers.values()
            for rel, rows in peer.data.items()
        }

    def query(self, text: str) -> ConjunctiveQuery:
        """Parse a query string (convenience passthrough)."""
        return parse_query(text)

    # -- mutation (Section 3.1.2: updates as first-class citizens) --------------
    def apply_updategram(self, peer: str, gram) -> int:
        """Apply an :class:`~repro.piazza.updates.Updategram` at a peer.

        This is the system's mutation entry point — and, for a peer
        with a :class:`~repro.storage.peerlog.PeerLog` attached, the
        WAL write path: the gram is appended to the peer's log, then
        the data changes atomically, the epoch bumps, and every
        subscriber (:meth:`subscribe_updates` — the serving layer's
        hook) is notified with ``(peer_name, gram, epoch_before)``
        after the data is in place, so listeners never observe a
        change the log could lose.  ``epoch_before`` is the peer's
        epoch just before this gram — a listener that tracked a
        different value knows mutations bypassed the pipeline in
        between and can re-read rather than replay.  Returns the
        number of rows that actually changed.
        """
        owner = self._peer(peer)
        epoch_before = owner.epoch
        changed = owner.apply_updategram(gram)
        for callback in list(self._update_listeners):
            callback(peer, gram, epoch_before)
        return changed

    def subscribe_updates(self, callback) -> None:
        """Register a ``callback(peer_name, gram, epoch_before)`` fired
        per updategram."""
        self._update_listeners.append(callback)

    def unsubscribe_updates(self, callback) -> bool:
        """Remove a previously subscribed update listener."""
        try:
            self._update_listeners.remove(callback)
            return True
        except ValueError:
            return False

    @property
    def topology_version(self) -> int:
        """Monotone counter of topology changes (peers/mappings/storage).

        Consumers that compiled plans against the rule set —
        :class:`~repro.piazza.serving.ViewServer` registrations — use
        this to detect that their one-time reformulation is out of date.
        """
        return self._topology_version

    def data_epoch(self, peer: str) -> int:
        """The peer's current data epoch (bumped on every mutation)."""
        return self._peer(peer).epoch

    def epoch_snapshot(self) -> tuple:
        """All peers' data epochs, as a hashable comparison key.

        Materializations record the snapshot they were computed under;
        :meth:`~repro.piazza.execution.DistributedExecutor.view_for`
        refuses (and drops) views whose snapshot no longer matches.
        """
        return tuple(sorted((name, p.epoch) for name, p in self.peers.items()))

    # -- answering -------------------------------------------------------------
    def reformulate(
        self, query: str | ConjunctiveQuery, indexed: bool = True, **options
    ) -> ReformulationResult:
        """Rewrite a query to stored relations via the rule-goal tree.

        ``indexed=True`` (the default) serves the search from the cached
        :meth:`mapping_index`; ``indexed=False`` is the pre-scale-layer
        path that rebuilds the rule lookup per call — same rewritings,
        kept for the C11 baseline and the parity suite.

        Observability: every call opens a ``pdms.reformulate`` span
        (child of whatever execution span is open) and folds the result
        counters — including the former ad-hoc ``index_hits`` /
        ``rules_skipped`` — into the ``reformulate.*`` metrics of the
        shared registry, with latency on the ``reformulate.ms``
        histogram.
        """
        if isinstance(query, str):
            query = parse_query(query)
        with self.obs.tracer.span(
            "pdms.reformulate", query=query.head.predicate, indexed=indexed
        ) as span:
            started = perf_counter()
            if indexed:
                index = self.mapping_index()
                edb = index.edb_predicates  # already computed for the index
            else:
                index = None
                edb = self.edb_predicates()
            result = reformulate(query, self.rules(), edb, index=index, **options)
            elapsed_ms = (perf_counter() - started) * 1000.0
            span.annotate(
                rewritings=len(result.rewritings),
                nodes_expanded=result.nodes_expanded,
                rules_skipped=result.rules_skipped,
            )
        metrics = self.obs.metrics
        metrics.counter("reformulate.calls").inc()
        metrics.counter("reformulate.index_hits").inc(result.index_hits)
        metrics.counter("reformulate.rules_skipped").inc(result.rules_skipped)
        metrics.counter("reformulate.nodes_expanded").inc(result.nodes_expanded)
        metrics.counter("reformulate.nodes_pruned").inc(result.nodes_pruned)
        metrics.histogram("reformulate.ms").observe(elapsed_ms)
        metrics.histogram("reformulate.rewritings").observe(len(result.rewritings))
        return result

    def answer(self, query: str | ConjunctiveQuery, **options) -> set[tuple]:
        """Answer by reformulation + batched hash-join evaluation."""
        result = self.reformulate(query, **options)
        return evaluate_union(result.rewritings, self.instance())

    def reformulate_brute_force(
        self, query: str | ConjunctiveQuery, **options
    ) -> ReformulationResult:
        """The seed's whole reformulation pipeline: unindexed rule lookup
        and quadratic nested-loop UCQ minimization.  Same rewritings as
        :meth:`reformulate` — this is the C11 baseline and parity oracle.
        """
        minimize = options.pop("minimize", True)
        options.pop("indexed", None)  # this path is unindexed by definition
        result = self.reformulate(query, indexed=False, minimize=False, **options)
        if minimize and len(result.rewritings) > 1:
            result.rewritings = minimize_union_brute_force(result.rewritings)
        return result

    def answer_brute_force(self, query: str | ConjunctiveQuery, **options) -> set[tuple]:
        """The pre-scale answering path: unindexed reformulation,
        quadratic minimization and nested-loop union evaluation.  Parity
        oracle for :meth:`answer`."""
        result = self.reformulate_brute_force(query, **options)
        return evaluate_union_brute_force(result.rewritings, self.instance())

    def certain(self, query: str | ConjunctiveQuery, max_skolem_depth: int = 3) -> set[tuple]:
        """Ground-truth certain answers via the chase."""
        if isinstance(query, str):
            query = parse_query(query)
        return certain_answers(
            query, self.instance(), self.rules(), max_skolem_depth=max_skolem_depth
        )

    # -- topology ---------------------------------------------------------------
    def mapping_graph(self) -> dict[str, set[str]]:
        """Undirected peer adjacency induced by the mappings."""
        graph: dict[str, set[str]] = {name: set() for name in self.peers}
        for mapping in self.mappings:
            if isinstance(mapping, InclusionMapping):
                sources, targets = mapping.peers()
            else:
                sources = {owner_of(a.predicate) for a in mapping.definition.body}
                targets = {owner_of(mapping.definition.head.predicate)}
            for a in sources:
                for b in targets:
                    if a != b and a in graph and b in graph:
                        graph[a].add(b)
                        graph[b].add(a)
        return graph

    def reachable_from(self, peer: str) -> set[str]:
        """Peers transitively connected to ``peer`` in the mapping graph."""
        graph = self.mapping_graph()
        seen = {peer}
        frontier = [peer]
        while frontier:
            current = frontier.pop()
            for neighbor in graph.get(current, ()):
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return seen

    def mapping_count(self) -> int:
        """Number of registered peer mappings (excludes storage)."""
        return len(self.mappings)
