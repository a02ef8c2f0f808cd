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
* **goal tabling** — a goal that waits on the goals before it (the
  second atom of a join) is expanded again under each of their
  completions.  The first expansion records the goal's *completions*
  (the stored-relation atoms that replace it, in the order the search
  emits them), keyed by the goal and which of its variables the rest of
  the state or the head shares; every later context replays the table
  as the product the search would have built.  A table is reused only
  where the context cannot change the goal's subtree: no rule reachable
  from the goal is on the context's path, and no predicate reachable
  from it is among the context's goals (so no generated atom collapses
  with one); the remaining depth covers the subtree and no bound cut
  it; no expansion below binds a shared variable; and every memo hit
  below came from the subtree itself.  Anywhere else the goal expands
  as before.  After the search, a replay whose skipped states could
  share a memo key with a state outside it (equal predicate
  multisets) makes the call search again untabled, so the rewritings,
  their order and ``depth_limit_hit`` are always the untabled search's;
  only the effort counters fall;
* **UCQ minimization** — rewritings contained in other rewritings are
  dropped from the final union.

At scale a further, *structural* pruning layer rides on top: passing a
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

from dataclasses import dataclass, field
from typing import NamedTuple

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

    ``nodes_expanded`` counts the goal expansions the search ran; a goal
    answered from its table (``prune=True``) is not expanded again, so a
    join counts each atom's expansions once rather than once per
    completion of the atoms before it.  ``nodes_pruned`` counts the
    states and candidate rules the heuristics cut among those.

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
    """The child state's goals (rule body, then ``rest``), head and the
    unifier's bindings, or ``None`` if the rule head cannot match
    ``goal``.  Head slots take the goal's arguments; only constants,
    Skolems and repeated variables are unified, and only a binding they
    make rewrites ``rest`` and ``head``."""
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
    return body + rest, head, bound


def _goal_key(goal: Atom, others) -> tuple[tuple, list, frozenset]:
    """A goal's table key, its variables in first-occurrence order, and
    those of them that also occur in ``others`` (the rest of the state
    and the head).  Goals with one key differ only in variable names."""
    numbering: dict[Var, int] = {}

    def shape(term):
        if term.__class__ is Var:
            return numbering.setdefault(term, len(numbering))
        if term.__class__ is Func:
            return (term.name, tuple(map(shape, term.args)))
        return (term.__class__, term)

    args = tuple(map(shape, goal.args))
    variables = list(numbering)
    shared = frozenset(set().union(*(atom.variables() for atom in others)).intersection(variables))
    return (goal.predicate, args, tuple(var in shared for var in variables)), variables, shared


class _Table(NamedTuple):
    """A goal's completions, as templates over the goal's variables.

    ``cells`` holds a ``None`` per variable slot (the goal's own
    variables first, then ``fresh``) and each constant.  A completion is
    ``(goal part, depth offset, rule uses)``: the stored-relation atoms
    that replaced the goal, and how deep and with which rules the search
    found them.  ``span`` is the deepest expansion below the goal;
    ``shapes`` the predicate multisets of the states below it.
    """

    cells: tuple
    fresh: tuple
    completions: tuple
    span: int
    shapes: tuple


@dataclass(eq=False)
class _Recording:
    """A goal's subtree while the search explores it the first time.

    Every state below the goal is its *goal part* followed by the
    ``context`` goals beside it; a state whose goal part holds only
    stored relations is a completion.  ``valid`` drops when the subtree
    did something another context could not repeat.
    """

    key: tuple
    variables: list
    shared: frozenset
    depth: int
    uses: dict
    context: int
    base: int  # the stack height under the goal's children
    deepest: int = 0
    valid: bool = True
    shapes: set = field(default_factory=set)
    completions: list = field(default_factory=list)

    def table(self) -> _Table:
        """The recorded completions, templated over the goal's variables."""
        slots = {var: slot for slot, var in enumerate(self.variables)}
        cells, fresh = [None] * len(slots), []

        def template(term):
            if term.__class__ is Var:
                if term not in slots:
                    slots[term] = len(cells)
                    fresh.append((len(cells), term.name))
                    cells.append(None)
                return slots[term]
            if term.__class__ is Func:
                return (term.name, tuple(map(template, term.args)))
            cells.append(term)
            return len(cells) - 1

        completions = tuple(
            (
                tuple((atom.predicate, tuple(map(template, atom.args))) for atom in part),
                depth - self.depth,
                {rule: n for rule, n in uses.items() if rule not in self.uses},
            )
            for part, depth, uses in self.completions
        )
        return _Table(
            tuple(cells), tuple(fresh), completions, self.deepest - self.depth,
            tuple(self.shapes),
        )


def _replay(table: _Table, variables: list, rest: tuple, head: Atom, depth: int,
            rule_uses: dict, inside: tuple) -> list:
    """The table's completion states in this context, last one first
    (so that the stack pops them in the order the search emitted them).
    Each waits on nothing the goal produced: its next goal, in the
    context, is a join point as it was where the table was recorded."""
    cells = list(table.cells)
    cells[: len(variables)] = variables
    if table.fresh:
        suffix = fresh_suffix()
        for slot, name in table.fresh:
            cells[slot] = Var(f"{name}~{suffix}")
    return [
        (
            tuple(
                Atom(predicate, tuple([_build(arg, cells) for arg in args]))
                for predicate, args in part
            ) + rest,
            head, depth + offset, {**rule_uses, **uses}, 0, inside,
        )
        for part, offset, uses in reversed(table.completions)
    ]


def _replays_agree(seen_states: dict, replays: list) -> bool:
    """True if no state a replay skipped could share a memo key with a
    state outside that replay.  Equal keys need equal predicate
    multisets, so distinct multisets prove the memo saw what the
    untabled search would have."""
    owners: dict[tuple, int | None] = {}
    for (_, (_, body)), (_, replay) in seen_states.items():
        if owners.setdefault(tuple(atom[0] for atom in body), replay) != replay:
            return False
    for number, (table, context) in enumerate(replays):
        for part in table.shapes:
            if owners.setdefault(tuple(sorted(part + context)), number) != number:
                return False
    return True


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

    ``prune=False`` disables goal memoization, duplicate collapsing and
    goal tabling (the C3 ablation); the rule budget and depth bound
    always apply, or cyclic mapping graphs would never terminate.

    ``index`` (a :class:`~repro.piazza.mapping_index.MappingIndex`
    built over the same ``rules``/``edb_predicates``) replaces the
    per-call by-head dictionary build with cached lookups and skips
    relevance-pruned rules; the rewriting set is identical either way.
    """
    options = (
        entries_by_head(rules) if index is None else {}, index, edb_predicates,
        max_depth, max_rule_uses, prune, max_rewritings,
    )
    result = _search(query, *options, tabling=prune)
    if result is None:  # a replay may have hidden a memo hit: search untabled
        result = _search(query, *options, tabling=False)
    if minimize and len(result.rewritings) > 1:
        result.rewritings = minimize_union(result.rewritings)
    return result


def _search(query, by_head, index, edb_predicates, max_depth, max_rule_uses, prune,
            max_rewritings, tabling) -> ReformulationResult | None:
    """The rule-goal tree search; ``None`` if a tabled run cannot prove
    it saw what the untabled one would."""
    result = ReformulationResult(rewritings=[])
    # memo key -> (the recordings its state lay inside, its replay number)
    seen_states: dict[tuple, tuple] = {}
    seen_rewritings: set[tuple] = set()
    tables: dict[tuple, _Table] = {}
    replays: list[tuple[_Table, tuple]] = []  # (table, context predicates)
    recordings: list[_Recording] = []  # open, innermost last
    reach_of: dict[str, tuple[frozenset, frozenset]] = {}

    def candidates_for(predicate: str):
        return index.rules_for(predicate) if index is not None else by_head.get(predicate, ())

    def reach(predicate: str) -> tuple[frozenset, frozenset]:
        """The predicates and rule positions any expansion of ``predicate`` can touch."""
        if predicate not in reach_of:
            predicates, positions, frontier = {predicate}, set(), [predicate]
            while frontier:
                for entry in candidates_for(frontier.pop()):
                    positions.add(entry.position)
                    new = entry.body_predicates - predicates
                    predicates |= new
                    frontier.extend(new)
            reach_of[predicate] = (frozenset(predicates), frozenset(positions))
        return reach_of[predicate]

    # A state is (goals, head, depth, rule uses, how many leading goals its
    # expansion produced, the recordings it lies inside); resolved, Const-free.
    goals = tuple(apply_subst_atom(atom, {}) for atom in query.body)
    stack = [(goals, apply_subst_atom(query.head, {}), 0, {}, len(goals), ())]
    while stack:
        while recordings and len(stack) <= recordings[-1].base:
            recording = recordings.pop()
            if recording.valid:
                tables.setdefault(recording.key, recording.table())
        goals, head, depth, rule_uses, produced, inside = stack.pop()
        if len(result.rewritings) >= max_rewritings:
            break
        # Find the first goal not over a stored relation.
        pending_index = None
        for goal_position, goal in enumerate(goals):
            if goal.predicate not in edb_predicates:
                pending_index = goal_position
                break
        while inside and (
            pending_index is None or pending_index >= len(goals) - inside[0].context
        ):
            cut = len(goals) - inside[0].context
            inside[0].completions.append((goals[:cut], depth, rule_uses))
            inside = inside[1:]
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

        for recording in inside:
            recording.deepest = max(recording.deepest, depth)
        if depth >= max_depth:
            result.depth_limit_hit = True
            for recording in inside:
                recording.valid = False
            continue

        goal = goals[pending_index]
        rest = goals[:pending_index] + goals[pending_index + 1 :]

        if prune:
            # Keyed on the head too: alpha-equal goals that bind the
            # answer variables differently are different states.
            fingerprint = (goal.predicate, ConjunctiveQuery(head, (goal,) + rest).canonical())
            owner = seen_states.get(fingerprint)
            if owner is not None:
                result.nodes_pruned += 1
                for recording in inside:
                    if recording not in owner[0]:  # pruned from outside its subtree
                        recording.valid = False
                continue
            for recording in inside:
                part = goals[: len(goals) - recording.context]
                recording.shapes.add(tuple(sorted(atom.predicate for atom in part)))
            replay = None
            # A goal the last expansion did not produce waits on the goals
            # before it, so each of their completions expands it again.
            if tabling and pending_index >= produced:
                predicates, positions = reach(goal.predicate)
                if positions.isdisjoint(rule_uses) and not any(
                    atom.predicate in predicates for atom in rest
                ):
                    key, variables, shared = _goal_key(goal, rest + (head,))
                    table = tables.get(key)
                    if table is None:
                        recording = _Recording(
                            key, variables, shared, depth, rule_uses, len(rest),
                            len(stack), deepest=depth,
                        )
                        recordings.append(recording)
                        inside = (recording,) + inside
                    elif depth + table.span < max_depth:
                        replay = len(replays)
                        replays.append(
                            (table, tuple(atom.predicate for atom in rest))
                        )
                        for recording in inside:  # its shapes would miss the skipped states
                            recording.valid = False
                        stack += _replay(
                            table, variables, rest, head, depth, rule_uses, inside
                        )
            seen_states[fingerprint] = (inside, replay)
            if replay is not None:
                continue

        result.nodes_expanded += 1
        if index is not None:
            result.index_hits += 1
            result.rules_skipped += index.dead_rules_for(goal.predicate)
        for entry in candidates_for(goal.predicate):
            uses = rule_uses.get(entry.position, 0)
            if uses >= max_rule_uses:
                result.nodes_pruned += 1
                continue
            child = _expand(goal, entry.template, rest, head)
            if child is None:
                continue
            new_goals, new_head, bound = child
            if bound:
                for recording in inside:
                    if not recording.shared.isdisjoint(bound):
                        recording.valid = False
            if prune:
                new_goals = tuple(dict.fromkeys(new_goals))  # collapse duplicates
            new_uses = {**rule_uses, entry.position: uses + 1}
            stack.append(
                (new_goals, new_head, depth + 1, new_uses, len(entry.template.body), inside)
            )

    if replays and not _replays_agree(seen_states, replays):
        return None
    return result
