"""Mapping-rule index with a relevance closure (the PDMS scale layer).

The rule-goal tree (:mod:`repro.piazza.reformulation`) expands a goal
atom by trying every compiled mapping rule whose head predicate matches.
At the hundreds-of-peers scale ``datasets/pdms_gen.py`` generates, that
lookup, and expanding rules that can never contribute, are paid per
call and per goal unless indexed once per rule set:

* **by-head index** — ``head predicate -> [RuleEntry]``, cached on the
  :class:`~repro.piazza.peer.PDMS`, rebuilt once per topology from rules
  compiled once per mapping, when it was registered;

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

* **compiled rule templates** — each rule compiles once, on first use,
  into a :class:`~repro.piazza.datalog.RuleTemplate` of numbered
  variable slots that outlives index rebuilds (``Rule.template``), so a
  goal expansion fills slots instead of renaming the rule apart.

Parity contract: indexing only ever *removes provably dead* candidate
rules, so the rewriting set of an indexed reformulation is identical to
the unindexed one (``tests/test_pdms_scale.py`` checks this on
randomized networks; ``benchmarks/bench_c11_pdms_scale.py`` measures
the gap).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property

from repro.piazza.datalog import Rule, RuleTemplate


@dataclass(frozen=True)
class RuleEntry:
    """One indexed rule plus everything precomputed about it."""

    position: int  # stable position in the original rule list
    rule: Rule
    body_predicates: frozenset[str]

    @cached_property
    def template(self) -> RuleTemplate:
        """The rule's own compiled template, so expansion reads one attribute."""
        return self.rule.template


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
