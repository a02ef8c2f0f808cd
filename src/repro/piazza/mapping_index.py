"""Mapping-rule index with a relevance closure (the PDMS scale layer).

The rule-goal tree (:mod:`repro.piazza.reformulation`) expands a goal
atom by trying every compiled mapping rule whose head predicate matches.
At the hundreds-of-peers scale ``datasets/pdms_gen.py`` generates, that
lookup, and expanding rules that can never contribute, are paid per
call and per goal unless indexed once per rule set:

* **by-head index** — ``head predicate -> [RuleEntry]``, cached on the
  :class:`~repro.piazza.peer.PDMS` (invalidated whenever a peer, mapping
  or storage description is added);

* **productive-predicate closure** — the least fixpoint of "a predicate
  is *productive* iff it is a stored relation or some rule derives it
  from only productive predicates".  A goal over a non-productive
  predicate can never be reduced to stored relations, so rules with a
  non-productive body atom are dead ends; the index drops them from the
  candidate lists up front (``relevant``), and the reformulation
  counters report how many expansions that saved (``rules_skipped``);

* **reachability closure** — per head predicate, the set of predicates
  (and in particular stored relations) any derivation from it can ever
  touch, following rule bodies transitively.  This is the
  "mapping-graph reachability" the executor and the benchmarks use to
  size a query's relevant sub-network without running the search.

* **compiled rule templates** — each entry compiles its rule once, on
  first use, into a :class:`RuleTemplate` of numbered variable slots, so
  a goal expansion fills slots instead of renaming the rule apart.

Parity contract: indexing only ever *removes provably dead* candidate
rules, so the rewriting set of an indexed reformulation is identical to
the unindexed one (``tests/test_pdms_scale.py`` checks this on
randomized networks; ``benchmarks/bench_c11_pdms_scale.py`` measures
the gap).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property

from repro.piazza.datalog import Func, Rule, Var, apply_subst_atom


@dataclass(frozen=True)
class RuleTemplate:
    """A rule compiled for expansion, its variables numbered as *slots*.

    An argument template is a cell index or a Skolem ``(name, argument
    templates)``; ``cells`` holds ``None`` per slot and each constant.
    """

    arity: int
    cells: tuple
    binds: tuple[tuple[int, int], ...]  # (head position, slot) taking the goal's argument
    checks: tuple[tuple[int, object], ...]  # (head position, template) to unify
    fresh: tuple[tuple[int, str], ...]  # (slot, variable name) the head leaves unbound
    body: tuple[tuple[str, tuple], ...]  # (predicate, argument templates)

    @classmethod
    def compile(cls, rule: Rule) -> "RuleTemplate":
        """Number the rule's variables and constants into cells."""
        cells: list = []
        slots: dict[Var, int] = {}

        def template(term):
            if isinstance(term, Func):
                return (term.name, tuple(template(arg) for arg in term.args))
            if isinstance(term, Var):
                if term not in slots:
                    slots[term] = len(cells)
                    cells.append(None)
                return slots[term]
            cells.append(term)
            return len(cells) - 1

        head, body = apply_subst_atom(rule.head, {}), []  # strips Const wrappers
        binds, checks = [], []
        for position, arg in enumerate(head.args):
            plain = isinstance(arg, Var) and arg not in slots  # first, outside a Skolem
            (binds if plain else checks).append((position, template(arg)))
        for atom in rule.body:
            args = apply_subst_atom(atom, {}).args
            body.append((atom.predicate, tuple(template(arg) for arg in args)))
        bound = {slot for _, slot in binds}
        fresh = tuple((slot, var.name) for var, slot in slots.items() if slot not in bound)
        return cls(len(head.args), tuple(cells), tuple(binds), tuple(checks), fresh, tuple(body))


@dataclass(frozen=True)
class RuleEntry:
    """One indexed rule plus everything precomputed about it."""

    position: int  # stable position in the original rule list
    rule: Rule
    body_predicates: frozenset[str]

    @cached_property
    def template(self) -> RuleTemplate:
        """The compiled rule, built on first expansion and kept here."""
        return RuleTemplate.compile(self.rule)


def entries_by_head(rules: list[Rule]) -> dict[str, list[RuleEntry]]:
    """``head predicate -> [RuleEntry]`` in rule-list order."""
    by_head: dict[str, list[RuleEntry]] = {}
    for position, rule in enumerate(rules):
        by_head.setdefault(rule.head.predicate, []).append(
            RuleEntry(position, rule, frozenset(atom.predicate for atom in rule.body))
        )
    return by_head


@dataclass
class IndexStats:
    """Build-time accounting exposed by :meth:`MappingIndex.stats_snapshot`."""

    rules: int = 0
    head_predicates: int = 0
    productive_predicates: int = 0
    dead_rules: int = 0


class MappingIndex:
    """Per-head-predicate rule index with relevance/reachability closures.

    Build once from the compiled rule set and the stored-relation
    (EDB) predicates; reuse across every reformulation over the same
    PDMS state.  :meth:`repro.piazza.peer.PDMS.mapping_index` does the
    caching and invalidation.
    """

    def __init__(self, rules: list[Rule], edb_predicates: set[str]):  # noqa: D107
        self.edb_predicates = frozenset(edb_predicates)
        self._by_head = entries_by_head(rules)
        self._relevant: dict[str, tuple[RuleEntry, ...]] = {}
        self._reachable: dict[str, frozenset[str]] = {}
        self.stats = IndexStats(rules=len(rules))

        self._productive = self._productive_closure()
        for head, entries in self._by_head.items():
            relevant = tuple(
                entry
                for entry in entries
                if entry.body_predicates <= self._productive
            )
            self._relevant[head] = relevant
            self.stats.dead_rules += len(entries) - len(relevant)
        self.stats.head_predicates = len(self._by_head)
        self.stats.productive_predicates = len(self._productive)

    # -- closures -----------------------------------------------------------
    def _productive_closure(self) -> frozenset[str]:
        """Least fixpoint of predicates reducible to stored relations."""
        productive = set(self.edb_predicates)
        # Worklist over rules indexed by body predicate: a rule fires once
        # its whole body is productive, making its head productive.
        waiting: dict[str, list[RuleEntry]] = {}
        missing: dict[int, int] = {}
        ready: list[RuleEntry] = []
        for entries in self._by_head.values():
            for entry in entries:
                unmet = [p for p in entry.body_predicates if p not in productive]
                missing[entry.position] = len(unmet)
                if not unmet:
                    ready.append(entry)
                for predicate in unmet:
                    waiting.setdefault(predicate, []).append(entry)
        while ready:
            entry = ready.pop()
            head = entry.rule.head.predicate
            if head in productive:
                continue
            productive.add(head)
            for waiter in waiting.get(head, ()):
                missing[waiter.position] -= 1
                if missing[waiter.position] == 0:
                    ready.append(waiter)
        return frozenset(productive)

    # -- lookups ------------------------------------------------------------
    def is_productive(self, predicate: str) -> bool:
        """True if goals over ``predicate`` can reach stored relations."""
        return predicate in self._productive

    def rules_for(self, predicate: str) -> tuple[RuleEntry, ...]:
        """Relevant (dead-end-free) rules whose head is ``predicate``."""
        return self._relevant.get(predicate, ())

    def dead_rules_for(self, predicate: str) -> int:
        """How many of ``predicate``'s rules the relevance closure drops."""
        return len(self._by_head.get(predicate, ())) - len(
            self._relevant.get(predicate, ())
        )

    def reachable(self, predicate: str) -> frozenset[str]:
        """All predicates any derivation of ``predicate`` can touch."""
        cached = self._reachable.get(predicate)
        if cached is not None:
            return cached
        seen: set[str] = {predicate}
        frontier = [predicate]
        while frontier:
            current = frontier.pop()
            for entry in self._relevant.get(current, ()):
                for body_predicate in entry.body_predicates:
                    if body_predicate not in seen:
                        seen.add(body_predicate)
                        frontier.append(body_predicate)
        result = frozenset(seen)
        self._reachable[predicate] = result
        return result

    def relevant_edb(self, predicates: set[str] | frozenset[str]) -> frozenset[str]:
        """Stored relations any rewriting of ``predicates`` could mention."""
        reachable: set[str] = set()
        for predicate in predicates:
            reachable |= self.reachable(predicate)
        return frozenset(reachable & self.edb_predicates)

    def stats_snapshot(self) -> dict:
        """Index sizes for dashboards and benchmark tables."""
        return {**asdict(self.stats), "edb_predicates": len(self.edb_predicates)}

    def __len__(self) -> int:
        return self.stats.rules
