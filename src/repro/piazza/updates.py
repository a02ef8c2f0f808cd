"""Updategrams and incremental view maintenance (Section 3.1.2).

"Piazza treats updates as first-class citizens ... in the form of
'updategrams' [36].  Updategrams on base data can be combined to create
updategrams for views."  This module implements that pipeline with the
classic *counting* algorithm: a materialized conjunctive-query view
keeps a derivation count per tuple, and a base updategram is translated
into a view updategram via one delta-join pass per body atom
(Δ-rule: new atoms to the left of the delta position, old to the right).
Deletions decrement counts, so alternative derivations are handled
correctly — the problem that makes naive set-oriented deltas unsound.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.piazza.datalog import ConjunctiveQuery, Instance, Plan


@dataclass
class Updategram:
    """Inserts and deletes per (stored) relation."""

    inserts: dict[str, set[tuple]] = field(default_factory=dict)
    deletes: dict[str, set[tuple]] = field(default_factory=dict)

    def insert(self, relation: str, rows: Iterable[tuple]) -> "Updategram":
        """Add insert rows for a relation (chainable)."""
        self.inserts.setdefault(relation, set()).update(tuple(r) for r in rows)
        return self

    def delete(self, relation: str, rows: Iterable[tuple]) -> "Updategram":
        """Add delete rows for a relation (chainable)."""
        self.deletes.setdefault(relation, set()).update(tuple(r) for r in rows)
        return self

    def relations(self) -> set[str]:
        """All relations touched."""
        return set(self.inserts) | set(self.deletes)

    def qualify(self, owner: str) -> "Updategram":
        """A copy whose relation keys are ``owner!relation`` qualified.

        Peers express mutations in their local stored-relation names;
        the serving layer routes them by the globally qualified
        predicate the view bodies use.
        """
        return Updategram(
            inserts={f"{owner}!{rel}": set(rows) for rel, rows in self.inserts.items()},
            deletes={f"{owner}!{rel}": set(rows) for rel, rows in self.deletes.items()},
        )

    def restrict(self, relations: Iterable[str]) -> "Updategram":
        """A copy keeping only the given relations (shared row sets)."""
        keep = set(relations)
        return Updategram(
            inserts={rel: rows for rel, rows in self.inserts.items() if rel in keep},
            deletes={rel: rows for rel, rows in self.deletes.items() if rel in keep},
        )

    def size(self) -> int:
        """Total number of changed rows."""
        return sum(len(v) for v in self.inserts.values()) + sum(
            len(v) for v in self.deletes.values()
        )

    def apply_to(self, instance: Instance) -> Instance:
        """Apply to an instance (mutates and returns it)."""
        for relation, rows in self.deletes.items():
            instance.setdefault(relation, set()).difference_update(rows)
        for relation, rows in self.inserts.items():
            instance.setdefault(relation, set()).update(rows)
        return instance

    @staticmethod
    def combine(grams: Iterable["Updategram"]) -> "Updategram":
        """Combine several updategrams into one (later wins on conflict)."""
        combined = Updategram()
        for gram in grams:
            for relation, rows in gram.deletes.items():
                combined.delete(relation, rows)
                inserted = combined.inserts.get(relation)
                if inserted:
                    inserted.difference_update(rows)
            for relation, rows in gram.inserts.items():
                combined.insert(relation, rows)
                deleted = combined.deletes.get(relation)
                if deleted:
                    deleted.difference_update(rows)
        return combined


@dataclass
class ViewDelta:
    """The updategram a base updategram induces on a view."""

    inserted: set[tuple] = field(default_factory=set)
    deleted: set[tuple] = field(default_factory=set)


class IncrementalView:
    """A counting-maintained materialized CQ view.

    >>> from repro.piazza.parse import parse_query
    >>> view = IncrementalView(parse_query("v(X) :- r(X, Y)"), {"r": {(1, 2)}})
    >>> view.tuples()
    {(1,)}
    >>> delta = view.apply(Updategram().insert("r", [(1, 3), (4, 4)]))
    >>> sorted(delta.inserted)
    [(4,)]
    >>> view.apply(Updategram().delete("r", [(1, 2)])).deleted
    set()
    >>> view.tuples()  # (1,) survives via (1, 3)
    {(1,), (4,)}
    """

    def __init__(self, query: ConjunctiveQuery, instance: Instance):  # noqa: D107
        self.query = query
        self.instance: Instance = {pred: set(rows) for pred, rows in instance.items()}
        self.counts: Counter[tuple] = Counter()
        self.probed = 0
        # One delta rule per body position, opened on the delta rows.
        self._delta_plans = [
            Plan.compile(query.head, query.body, first=index)
            for index in range(len(query.body))
        ]
        self._recompute_counts()

    def _derivations(self, instance: Instance) -> Counter:
        plan = self.query.plan
        heads, probed = plan.run(plan.sources(instance), {})
        self.probed += probed
        return Counter(heads)

    def _recompute_counts(self) -> None:
        self.counts = self._derivations(self.instance)

    def tuples(self) -> set[tuple]:
        """Current view extent (tuples with a positive count)."""
        return {row for row, count in self.counts.items() if count > 0}

    # -- incremental maintenance -----------------------------------------------
    def apply(self, gram: Updategram) -> ViewDelta:
        """Incrementally fold a base updategram into the view.

        Uses per-atom delta passes: for the i-th body atom, join atoms
        ``< i`` over the *new* instance, the delta at position i, and
        atoms ``> i`` over the *old* instance.  Insert deltas increment
        derivation counts, delete deltas decrement them.

        Only the relations the gram touches are copied into the new
        instance; every other relation's row set is aliased from the old
        one (it is never mutated, so sharing is safe).  The seed's
        copy-everything path survives as :meth:`apply_brute_force`, and
        the parity suite pins the two bitwise.

        Deltas are *effective*: a row both inserted and deleted by one
        gram ends up present (``apply_to`` deletes first, inserts win),
        so it must not decrement the count — only ``deletes - inserts``
        rows actually leave the instance.
        """
        touched = gram.relations()
        return self._fold(gram, {
            pred: set(rows) if pred in touched else rows
            for pred, rows in self.instance.items()
        })

    def apply_brute_force(self, gram: Updategram) -> ViewDelta:
        """The pre-scale :meth:`apply`: copies the *whole* instance per
        updategram.  Kept as the parity oracle for the touched-relations
        copy; the delta passes are shared."""
        return self._fold(gram, {pred: set(rows) for pred, rows in self.instance.items()})

    def _fold(self, gram: Updategram, new: Instance) -> ViewDelta:
        """Apply ``gram`` to ``new`` (a copy of the instance) and fold
        the delta passes into the counts.

        Only the heads the passes reached can change, so the counts are
        updated in place for those heads and the view delta is read off
        their counts before and after: O(delta), not O(extent)."""
        old = self.instance
        gram.apply_to(new)
        delta_counts: Counter[tuple] = Counter()
        tables: dict = {}  # old, new and the deltas stay unchanged from here
        for index, plan in enumerate(self._delta_plans):
            predicate = plan.predicates[index]
            inserts = gram.inserts.get(predicate, set())
            delta_inserts = inserts - old.get(predicate, set())
            delta_deletes = (gram.deletes.get(predicate, set()) - inserts) & old.get(
                predicate, set()
            )
            for delta_rows, sign in ((delta_inserts, +1), (delta_deletes, -1)):
                if not delta_rows:
                    continue
                sources = [
                    delta_rows if j == index else (new if j < index else old).get(p, ())
                    for j, p in enumerate(plan.predicates)
                ]
                heads, probed = plan.run(sources, tables)
                self.probed += probed
                for head in heads:
                    delta_counts[head] += sign

        counts = self.counts
        delta = ViewDelta()
        for head, change in delta_counts.items():
            was = counts.get(head, 0)
            now = was + change
            if now > 0:
                counts[head] = now
                if was <= 0:
                    delta.inserted.add(head)
            else:
                counts.pop(head, None)  # drop zero/negative entries
                if was > 0:
                    delta.deleted.add(head)
        self.instance = new
        return delta

    # -- the baseline the paper argues against -----------------------------------
    def recompute(self, gram: Updategram) -> ViewDelta:
        """Invalidate-and-recompute baseline ("simply invalidating views
        and re-reading data")."""
        before = self.tuples()
        gram.apply_to(self.instance)
        self._recompute_counts()
        after = self.tuples()
        return ViewDelta(inserted=after - before, deleted=before - after)

    def work(self) -> int:
        """Cumulative facts probed (cost metric): the hashed facts each
        pending row tried, summed over every join step of every pass."""
        return self.probed

    def reset_work(self) -> None:
        """Zero the work counter."""
        self.probed = 0

    # -- cost-based maintenance choice ------------------------------------------
    def estimate_incremental_cost(self, gram: Updategram) -> int:
        """Predicted work (:meth:`work`) of :meth:`apply` on this updategram.

        One delta pass per (body position, sign) joins the delta against
        the other relations' extents.
        """
        body = self.query.body
        cost = 0
        for index, atom in enumerate(body):
            delta_size = len(gram.inserts.get(atom.predicate, ())) + len(
                gram.deletes.get(atom.predicate, ())
            )
            if not delta_size:
                continue
            pass_cost = delta_size
            for j, other in enumerate(body):
                if j != index:
                    pass_cost += len(self.instance.get(other.predicate, ()))
            cost += pass_cost
        return cost

    def estimate_recompute_cost(self) -> int:
        """Predicted work of a full recompute (scan everything
        at the first join position, probe the rest)."""
        return sum(
            len(self.instance.get(atom.predicate, ())) for atom in self.query.body
        ) or 1

    def maintain(self, gram: Updategram) -> tuple[str, ViewDelta]:
        """The paper's cost-based decision: "the query optimizer decides
        which updategrams to use in a cost-based fashion."

        Chooses the cheaper of incremental application and full
        recomputation from the cost estimates; returns the chosen
        strategy name and the view delta.
        """
        if self.estimate_incremental_cost(gram) <= self.estimate_recompute_cost():
            return ("incremental", self.apply(gram))
        return ("recompute", self.recompute(gram))
