"""Rule-goal tree query reformulation (Section 3.1.1 of the paper).

A query posed over a peer schema is rewritten, using the transitive
closure of the mappings, into a union of conjunctive queries that
"ultimately refer only to stored relations on the various peers".  The
engine is an SLD-style unfolding of the query against the compiled
mapping rules (a *rule-goal tree*): goal nodes are query atoms, rule
nodes are mapping applications.  Because mappings are directional GLAV
inclusions compiled to inverse rules, a single mechanism subsumes both
"query unfolding" (GAV) and "reformulation using views" (LAV), exactly
as the paper describes.

A search state is the *resolved* partial rewriting (pending goals and
query head, every binding applied), and a goal is expanded by filling
in its rule's compiled :class:`~repro.piazza.datalog.RuleTemplate`
positionally: nothing is renamed apart and no substitution is threaded.

The paper notes the algorithm "is aided by heuristics that prune
redundant and irrelevant paths through the space of mappings"; here
those are (ablated in benchmark C3):

* **goal memoization** — a state whose canonicalized (head, pending
  goals) was already explored is not re-expanded;
* **per-path rule budget** — each rule may be used at most
  ``max_rule_uses`` times along one root-to-leaf path, bounding cycles;
* **duplicate-goal collapsing** — syntactically identical pending goals
  are deduplicated;
* **UCQ minimization** — rewritings contained in other rewritings are
  dropped from the final union.

At scale a fifth, *structural* pruning layer rides on top: passing a
prebuilt :class:`~repro.piazza.mapping_index.MappingIndex` (``index=``)
serves each goal expansion from the cached by-head-predicate rule lists
and skips rules whose bodies can never reach a stored relation (the
relevance closure).  The result counters then also report ``index_hits``
(expansions served by the index) and ``rules_skipped`` (dead-end rules
never tried).  Indexing never changes the rewriting set —
only the work done to find it (parity: ``tests/test_pdms_scale.py``;
speed: ``benchmarks/bench_c11_pdms_scale.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.piazza.datalog import (
    Atom,
    ConjunctiveQuery,
    Func,
    Rule,
    RuleTemplate,
    Subst,
    Var,
    _build,
    apply_subst,
    apply_subst_atom,
    fresh_suffix,
    minimize_union,
    unify,
)
from repro.piazza.mapping_index import entries_by_head


@dataclass
class ReformulationResult:
    """Outcome of a reformulation run, with search-effort counters.

    ``index_hits`` / ``rules_skipped`` are only non-zero when the run
    was served by a :class:`~repro.piazza.mapping_index.MappingIndex`:
    the former counts goal expansions answered from the index, the
    latter counts candidate rules the relevance closure proved dead and
    never tried.
    """

    rewritings: list[ConjunctiveQuery]
    nodes_expanded: int = 0
    nodes_pruned: int = 0
    depth_limit_hit: bool = False
    index_hits: int = 0
    rules_skipped: int = 0

    def __iter__(self):
        return iter(self.rewritings)

    def __len__(self) -> int:
        return len(self.rewritings)


def _expand(goal: Atom, template: RuleTemplate, rest: tuple, head: Atom):
    """The child state's goals (rule body, then ``rest``) and head, or
    ``None`` if the rule head cannot match ``goal``.  Head slots take the
    goal's arguments; only constants, Skolems and repeated variables are
    unified, and only a binding they make rewrites ``rest`` and ``head``."""
    if len(goal.args) != template.arity:
        return None
    cells = list(template.cells)
    for position, slot in template.binds:
        cells[slot] = goal.args[position]
    suffix = fresh_suffix() if template.fresh else ""
    for slot, name in template.fresh:
        cells[slot] = Var(f"{name}~{suffix}")
    bound: Subst | None = {}
    for position, term in template.checks:
        bound = unify(goal.args[position], _build(term, cells), bound)
        if bound is None:
            return None
    if bound:
        cells = [apply_subst(cell, bound) for cell in cells]
        rest = tuple(apply_subst_atom(atom, bound) for atom in rest)
        head = apply_subst_atom(head, bound)
    body = tuple(
        Atom(predicate, tuple([_build(arg, cells) for arg in args]))
        for predicate, args in template.body
    )
    return body + rest, head


def reformulate(
    query: ConjunctiveQuery,
    rules: list[Rule],
    edb_predicates: set[str],
    max_depth: int = 16,
    max_rule_uses: int = 2,
    prune: bool = True,
    minimize: bool = True,
    max_rewritings: int = 10_000,
    index=None,
) -> ReformulationResult:
    """Rewrite ``query`` into a union of CQs over ``edb_predicates``.

    ``prune=False`` disables goal memoization and duplicate collapsing
    (the C3 ablation); the rule budget and depth bound always apply, or
    cyclic mapping graphs would never terminate.

    ``index`` (a :class:`~repro.piazza.mapping_index.MappingIndex`
    built over the same ``rules``/``edb_predicates``) replaces the
    per-call by-head dictionary build with cached lookups and skips
    relevance-pruned rules; the rewriting set is identical either way.
    """
    by_head = entries_by_head(rules) if index is None else {}
    result = ReformulationResult(rewritings=[])
    seen_states: set[tuple] = set()
    seen_rewritings: set[tuple] = set()

    # A state is (goals, head, depth, rule uses), resolved and Const-free.
    goals = tuple(apply_subst_atom(atom, {}) for atom in query.body)
    stack = [(goals, apply_subst_atom(query.head, {}), 0, {})]
    while stack:
        goals, head, depth, rule_uses = stack.pop()
        if len(result.rewritings) >= max_rewritings:
            break
        # Find the first goal not over a stored relation.
        pending_index = None
        for goal_position, goal in enumerate(goals):
            if goal.predicate not in edb_predicates:
                pending_index = goal_position
                break
        if pending_index is None:
            # Complete rewriting: all goals are stored relations.  A Skolem
            # (a Func: resolved terms carry no Const wrappers) in the answer,
            # or against stored data, can never match.
            if any(isinstance(arg, Func) for arg in head.args) or any(
                isinstance(arg, Func) for atom in goals for arg in atom.args
            ):
                result.nodes_pruned += 1
                continue
            if prune:
                goals = tuple(dict.fromkeys(goals))  # collapse duplicates
            rewriting = ConjunctiveQuery(head, goals)
            fingerprint = rewriting.canonical()
            if fingerprint in seen_rewritings:
                result.nodes_pruned += 1
                continue
            seen_rewritings.add(fingerprint)
            result.rewritings.append(rewriting)
            continue

        if depth >= max_depth:
            result.depth_limit_hit = True
            continue

        goal = goals[pending_index]
        rest = goals[:pending_index] + goals[pending_index + 1 :]

        if prune:
            # Keyed on the head too: alpha-equal goals that bind the
            # answer variables differently are different states.
            fingerprint = (goal.predicate, ConjunctiveQuery(head, (goal,) + rest).canonical())
            if fingerprint in seen_states:
                result.nodes_pruned += 1
                continue
            seen_states.add(fingerprint)

        result.nodes_expanded += 1
        if index is not None:
            result.index_hits += 1
            result.rules_skipped += index.dead_rules_for(goal.predicate)
            candidates = index.rules_for(goal.predicate)
        else:
            candidates = by_head.get(goal.predicate, ())
        for entry in candidates:
            uses = rule_uses.get(entry.position, 0)
            if uses >= max_rule_uses:
                result.nodes_pruned += 1
                continue
            child = _expand(goal, entry.template, rest, head)
            if child is None:
                continue
            new_goals, new_head = child
            if prune:
                new_goals = tuple(dict.fromkeys(new_goals))  # collapse duplicates
            new_uses = {**rule_uses, entry.position: uses + 1}
            stack.append((new_goals, new_head, depth + 1, new_uses))

    if minimize and len(result.rewritings) > 1:
        result.rewritings = minimize_union(result.rewritings)
    return result
