"""Tests for the rule-goal-tree reformulation engine and its pruning."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datasets.pdms_gen import random_tree_pdms
from repro.piazza import PDMS, MappingIndex
from repro.piazza.datalog import (
    Atom,
    ConjunctiveQuery,
    Const,
    Func,
    Rule,
    Var,
    apply_subst_atom,
    certain_answers,
    evaluate_union,
    fresh_suffix,
    has_skolem,
    minimize_union,
    unify,
)
from repro.piazza.parse import parse_query, parse_rule
from repro.piazza.reformulation import ReformulationResult, reformulate


def chain_pdms(length: int, branching: int = 1) -> PDMS:
    """A chain of peers; each hop has `branching` parallel mappings."""
    pdms = PDMS()
    for i in range(length):
        peer = pdms.add_peer(f"p{i}")
        peer.add_relation("r", ["a", "b"])
        peer.add_stored("s", ["a", "b"])
        pdms.add_storage(f"p{i}", "s", f"p{i}.r")
    pdms.peers["p0"].insert("s", [("x", "y")])
    for i in range(length - 1):
        for j in range(branching):
            pdms.add_mapping(
                f"m{i}_{j}",
                f"m(A, B) :- p{i}.r(A, B)",
                f"m(A, B) :- p{i + 1}.r(A, B)",
            )
    return pdms


class TestBasicReformulation:
    def test_rewrites_to_stored_only(self):
        pdms = chain_pdms(3)
        result = pdms.reformulate("q(A, B) :- p2.r(A, B)")
        edb = pdms.edb_predicates()
        for rewriting in result.rewritings:
            assert all(atom.predicate in edb for atom in rewriting.body)

    def test_rewriting_count_chain(self):
        pdms = chain_pdms(4)
        # p3.r reachable from stored p3!s, p2!s (1 hop), p1!s, p0!s.
        result = pdms.reformulate("q(A, B) :- p3.r(A, B)", max_depth=32)
        assert len(result.rewritings) == 4

    def test_empty_when_no_path(self):
        pdms = chain_pdms(2)
        result = pdms.reformulate("q(X) :- p9.r(X, X)")
        assert result.rewritings == []

    def test_head_constants_preserved(self):
        pdms = chain_pdms(2)
        result = pdms.reformulate("q(B) :- p1.r('x', B)")
        answers = evaluate_union(result.rewritings, pdms.instance())
        assert answers == {("y",)}

    def test_rule_head_of_other_arity_never_matches(self):
        rules = [parse_rule("p.r(X) :- s!a(X)"), parse_rule("p.r(X, Y) :- s!b(X, Y)")]
        result = reformulate(parse_query("q(X) :- p.r(X, Y)"), rules, {"s!a", "s!b"})
        assert [r.body[0].predicate for r in result.rewritings] == ["s!b"]


class TestPruning:
    def test_pruning_preserves_answers(self):
        pdms = chain_pdms(5, branching=2)
        query = "q(A, B) :- p4.r(A, B)"
        pruned = pdms.answer(query, prune=True, max_depth=40)
        unpruned = pdms.answer(query, prune=False, minimize=False, max_depth=40)
        assert pruned == unpruned

    def test_pruning_reduces_search(self):
        pdms = chain_pdms(5, branching=2)
        query = parse_query("q(A, B) :- p4.r(A, B)")
        rules, edb = pdms.rules(), pdms.edb_predicates()
        with_pruning = reformulate(query, rules, edb, prune=True, max_depth=40)
        without = reformulate(query, rules, edb, prune=False, minimize=False, max_depth=40)
        assert with_pruning.nodes_expanded <= without.nodes_expanded
        assert len(with_pruning.rewritings) <= len(without.rewritings)

    def test_minimization_drops_contained_rewritings(self):
        rules = [
            parse_rule("p.r(X) :- src!a(X)"),
            parse_rule("p.r(X) :- src!a(X), src!b(X)"),
        ]
        query = parse_query("q(X) :- p.r(X)")
        result = reformulate(query, rules, {"src!a", "src!b"}, minimize=True)
        assert len(result.rewritings) == 1
        assert result.rewritings[0].body[0].predicate == "src!a"

    def test_depth_limit_reported(self):
        pdms = chain_pdms(6)
        result = pdms.reformulate("q(A, B) :- p5.r(A, B)", max_depth=2)
        assert result.depth_limit_hit

    def test_rule_budget_bounds_cycles(self):
        pdms = PDMS()
        for name in ("a", "b"):
            peer = pdms.add_peer(name)
            peer.add_relation("r", ["x"])
            peer.add_stored("s", ["x"])
            pdms.add_storage(name, "s", f"{name}.r")
        pdms.add_mapping("ab", "m(X) :- a.r(X)", "m(X) :- b.r(X)", exact=True)
        # Cycle a<->b: must terminate regardless of depth budget.
        result = pdms.reformulate("q(X) :- a.r(X)", max_depth=100, max_rule_uses=2)
        assert len(result.rewritings) >= 2  # a!s and b!s


class TestSkolemHandling:
    def test_skolem_in_head_pruned(self):
        # View exposes only X; asking for the existential H can't succeed.
        rules = [
            parse_rule("p.pair(X, sk) :- src!s(X)"),  # placeholder, see below
        ]
        # Build via PDMS to get proper skolems:
        pdms = PDMS()
        a = pdms.add_peer("a")
        a.add_relation("r", ["x"])
        a.add_stored("s", ["x"])
        pdms.add_storage("a", "s", "a.r")
        b = pdms.add_peer("b")
        b.add_relation("pair", ["x", "h"])
        pdms.add_mapping("m", "m(X) :- a.r(X)", "m(X) :- b.pair(X, H)")
        result = pdms.reformulate("q(H) :- b.pair(X, H)")
        assert result.rewritings == []
        assert result.nodes_pruned > 0

    def test_skolem_join_recovers_connection(self):
        """Two atoms sharing an existential must still join correctly."""
        pdms = PDMS()
        a = pdms.add_peer("a")
        a.add_relation("r", ["x", "y"])
        a.add_stored("s", ["x", "y"])
        pdms.add_storage("a", "s", "a.r")
        a.insert("s", [("k1", "v1")])
        b = pdms.add_peer("b")
        b.add_relation("left", ["x", "mid"])
        b.add_relation("right", ["mid", "y"])
        pdms.add_mapping(
            "m",
            "m(X, Y) :- a.r(X, Y)",
            "m(X, Y) :- b.left(X, M), b.right(M, Y)",
        )
        answers = pdms.answer("q(X, Y) :- b.left(X, M), b.right(M, Y)")
        assert answers == {("k1", "v1")}

    def test_mismatched_skolems_do_not_join(self):
        """Existentials from different mappings must not unify."""
        pdms = PDMS()
        a = pdms.add_peer("a")
        a.add_relation("r", ["x"])
        a.add_stored("s", ["x"])
        pdms.add_storage("a", "s", "a.r")
        a.insert("s", [("v",)])
        b = pdms.add_peer("b")
        b.add_relation("left", ["x", "mid"])
        b.add_relation("right", ["mid", "y"])
        pdms.add_mapping("m1", "m(X) :- a.r(X)", "m(X) :- b.left(X, M)")
        pdms.add_mapping("m2", "m(X) :- a.r(X)", "m(X) :- b.right(M, X)")
        # left's M and right's M come from different mappings: no join.
        assert pdms.answer("q(X, Y) :- b.left(X, M), b.right(M, Y)") == set()


class TestSearchCounters:
    def test_counters_populated(self):
        pdms = chain_pdms(4, branching=2)
        result = pdms.reformulate("q(A, B) :- p3.r(A, B)", max_depth=40)
        assert result.nodes_expanded > 0
        assert len(result) == len(result.rewritings)
        assert list(iter(result)) == result.rewritings


class TestMemoKeyedOnHead:
    RULES = [
        parse_rule("r(A, B) :- s(A, B)"),
        parse_rule("r(A, B) :- s(B, A)"),
        parse_rule("s(A, B) :- t(A, B)"),
    ]
    QUERY = parse_query("q(X) :- r(X, Y)")
    INSTANCE = {"t": {(1, 2)}}

    def test_alpha_equal_goals_with_different_heads_both_expand(self):
        # Both r-rules leave the goal s(_, _) pending, but one binds the
        # answer X to s's first argument and the other to its second.
        result = reformulate(self.QUERY, self.RULES, {"t"})
        assert len(result.rewritings) == 2
        unpruned = reformulate(self.QUERY, self.RULES, {"t"}, prune=False)
        assert len(unpruned.rewritings) == 2

    def test_answers_equal_certain_answers(self):
        answers = evaluate_union(
            reformulate(self.QUERY, self.RULES, {"t"}).rewritings, self.INSTANCE
        )
        assert answers == {(1,), (2,)}
        assert answers == certain_answers(self.QUERY, self.INSTANCE, self.RULES)


# -- differential: the substitution-threading search --------------------------


def _unify_args(goal_args, head_args, subst):
    if len(goal_args) != len(head_args):
        return None
    for goal_arg, head_arg in zip(goal_args, head_args):
        subst = unify(goal_arg, head_arg, subst)
        if subst is None:
            return None
    return subst


def _reference_reformulate(
    query, rules, edb_predicates, max_depth=16, max_rule_uses=2, prune=True,
    minimize=True, max_rewritings=10_000, index=None,
):
    """The search before rule templates, as an oracle: every candidate rule
    is renamed apart and unified, the substitution grows down each path,
    goals are resolved lazily, and the memo key is the resolved
    ``(head, goals)``."""
    by_head = {}
    for position, rule in enumerate(rules):
        by_head.setdefault(rule.head.predicate, []).append((position, rule))
    result = ReformulationResult(rewritings=[])
    seen_states, seen_rewritings = set(), set()
    stack = [(tuple(query.body), {}, 0, {})]
    while stack:
        goals, subst, depth, rule_uses = stack.pop()
        if len(result.rewritings) >= max_rewritings:
            break
        pending = next(
            (i for i, goal in enumerate(goals) if goal.predicate not in edb_predicates),
            None,
        )
        head = apply_subst_atom(query.head, subst)
        if pending is None:
            resolved = tuple(apply_subst_atom(goal, subst) for goal in goals)
            if any(has_skolem(arg) for arg in head.args) or any(
                has_skolem(arg) for atom in resolved for arg in atom.args
            ):
                result.nodes_pruned += 1
                continue
            if prune:
                resolved = tuple(dict.fromkeys(resolved))
            rewriting = ConjunctiveQuery(head, resolved)
            if rewriting.canonical() in seen_rewritings:
                result.nodes_pruned += 1
                continue
            seen_rewritings.add(rewriting.canonical())
            result.rewritings.append(rewriting)
            continue
        if depth >= max_depth:
            result.depth_limit_hit = True
            continue
        goal = apply_subst_atom(goals[pending], subst)
        rest = goals[:pending] + goals[pending + 1 :]
        if prune:
            resolved = (goal,) + tuple(apply_subst_atom(atom, subst) for atom in rest)
            fingerprint = (goal.predicate, ConjunctiveQuery(head, resolved).canonical())
            if fingerprint in seen_states:
                result.nodes_pruned += 1
                continue
            seen_states.add(fingerprint)
        result.nodes_expanded += 1
        if index is not None:
            result.index_hits += 1
            result.rules_skipped += index.dead_rules_for(goal.predicate)
            candidates = [(e.position, e.rule) for e in index.rules_for(goal.predicate)]
        else:
            candidates = by_head.get(goal.predicate, ())
        for position, rule in candidates:
            uses = rule_uses.get(position, 0)
            if uses >= max_rule_uses:
                result.nodes_pruned += 1
                continue
            fresh = ConjunctiveQuery(rule.head, rule.body).rename(fresh_suffix())
            unified = _unify_args(goal.args, fresh.head.args, subst)
            if unified is None:
                continue
            new_goals = fresh.body + rest
            if prune:
                kept, seen_atoms = [], set()
                for atom in new_goals:
                    resolved_atom = apply_subst_atom(atom, unified)
                    if resolved_atom not in seen_atoms:
                        seen_atoms.add(resolved_atom)
                        kept.append(atom)
                new_goals = tuple(kept)
            stack.append((new_goals, unified, depth + 1, {**rule_uses, position: uses + 1}))
    if minimize and len(result.rewritings) > 1:
        result.rewritings = minimize_union(result.rewritings)
    return result


_ARITY = {"p.a": 2, "p.b": 3, "s!x": 2, "s!y": 1, "s!z": 3}
_IDB = ["p.a", "p.b"]
_EDB = {"s!x", "s!y", "s!z"}
_variables = st.sampled_from([Var(name) for name in "abcd"])
_constants = st.sampled_from([1, 2, "k", Const("k")])
_skolems = st.builds(
    lambda name, args: Func(name, tuple(args)),
    st.sampled_from(["f", "g"]),
    st.lists(_variables, max_size=2),
)
_plain_terms = st.one_of(_variables, _variables, _variables, _constants)
_terms = st.one_of(_variables, _variables, _variables, _constants, _skolems)


def _atoms(predicates, terms):
    return st.sampled_from(predicates).flatmap(
        lambda predicate: st.tuples(*[terms] * _ARITY[predicate]).map(
            lambda args: Atom(predicate, args)
        )
    )


_body_atoms = st.one_of(
    _atoms(_IDB, _plain_terms), _atoms(sorted(_EDB), _plain_terms),
    _atoms(sorted(_EDB), _plain_terms),
)
_rules = st.lists(
    st.builds(
        Rule, _atoms(_IDB, _terms), st.lists(_body_atoms, min_size=1, max_size=2)
    ),
    min_size=2,
    max_size=7,
)


@st.composite
def _queries(draw):
    """Multi-atom queries, mostly over peer relations."""
    atoms = st.one_of(_atoms(_IDB, _terms), _atoms(_IDB, _terms),
                      _atoms(sorted(_EDB), _terms))
    body = draw(st.lists(atoms, min_size=1, max_size=3))
    variables = sorted({v for atom in body for v in atom.variables()}, key=repr)
    head = draw(st.lists(st.sampled_from(variables), max_size=2)) if variables else []
    return ConjunctiveQuery(Atom("q", tuple(head)), tuple(body))


_ARITY.update({"p.c": 2, "p.d": 3, "s!w": 2})
_FAMILIES = ((["p.a", "p.b"], ["s!x", "s!y"]), (["p.c", "p.d"], ["s!w", "s!z"]))
_FAMILY_EDB = {"s!w", "s!x", "s!y", "s!z"}


@st.composite
def _joins(draw):
    """Rules over two mapping families, which a rare rule links, and a
    query joining an atom of each (and sometimes a third atom of either).
    The first atom has a rule per stored relation of its family, so the
    second atom's goal waits on completions over different relations."""
    heads = st.one_of(*[_variables] * 6, _constants, _skolems)
    body = [draw(_atoms(idb, heads)) for idb, _ in _FAMILIES]
    rules = [
        draw(st.builds(
            Rule, _atoms([body[0].predicate], _variables),
            st.lists(_atoms([relation], _variables), min_size=1, max_size=2),
        ))
        for relation in _FAMILIES[0][1]
    ]
    for (idb, edb), (other, _) in zip(_FAMILIES, reversed(_FAMILIES)):
        atoms = st.one_of(
            *[_atoms(edb, _variables)] * 4, *[_atoms(idb, _variables)] * 2,
            _atoms(edb, _plain_terms), _atoms(other, _variables),
        )
        rules += draw(st.lists(
            st.builds(Rule, _atoms(idb, heads), st.lists(atoms, min_size=1, max_size=2)),
            min_size=1, max_size=4,
        ))
    body += draw(st.lists(_atoms(_FAMILIES[0][0] + _FAMILIES[1][0], heads), max_size=1))
    variables = sorted({v for atom in body for v in atom.variables()}, key=repr)
    head = draw(st.lists(st.sampled_from(variables), max_size=2)) if variables else []
    query = ConjunctiveQuery(Atom("q", tuple(head)), tuple(body))
    return draw(st.permutations(rules)), query


class TestDifferentialAgainstSubstitutionSearch:
    """The search against the substitution-threading oracle.  Without
    pruning every counter is equal.  With it, goal tabling may only save
    expansions: the ordered rewritings and ``depth_limit_hit`` are equal
    and ``nodes_expanded`` is no larger.  Each ``@example`` below is a
    context in which a table may not be replayed."""

    @settings(max_examples=300, deadline=None)
    @given(
        rules=_rules,
        query=_queries(),
        prune=st.booleans(),
        minimize=st.booleans(),
        indexed=st.booleans(),
        max_depth=st.integers(1, 5),
        max_rule_uses=st.integers(1, 2),
        max_rewritings=st.sampled_from([2, 10_000]),
    )
    @example(  # a rule body that repeats an atom: collapsed before expanding
        rules=[
            parse_rule("p.a(A, A) :- p.a(A, A), p.a(A, A)"),
            parse_rule("p.a(A, A) :- s!y(A)"),
        ],
        query=parse_query("q() :- p.a(A, A)"),
        prune=True, minimize=False, indexed=False, max_depth=2, max_rule_uses=1,
        max_rewritings=2,
    )
    @example(  # a rule reachable under both atoms (p.c's empty body): the first used it up
        rules=[
            Rule(Atom("p.c", (Var("x"), Var("y"))), ()),
            parse_rule("p.a(X, Y) :- p.c(X, Y), s!x(X, Y)"),
            parse_rule("p.a(X, Y) :- s!y(X), s!y(Y)"),
            parse_rule("p.b(X, Y, Z) :- p.c(Y, Z), s!z(X, Y, Z)"),
        ],
        query=parse_query("q(A) :- p.a(A, B), p.b(B, C, D)"),
        prune=True, minimize=False, indexed=False, max_depth=5, max_rule_uses=1,
        max_rewritings=10_000,
    )
    @example(  # a rule-head constant binds the shared variable B
        rules=[
            parse_rule("p.a(X, Y) :- s!x(X, Y)"),
            parse_rule("p.a(X, Y) :- s!y(X), s!y(Y)"),
            parse_rule("p.b(X, 1, Z) :- s!z(X, X, Z)"),
            parse_rule("p.b(X, Y, Z) :- s!z(X, Y, Z)"),
        ],
        query=parse_query("q(A, B) :- p.a(A, B), p.b(C, B, D)"),
        prune=True, minimize=False, indexed=True, max_depth=5, max_rule_uses=2,
        max_rewritings=10_000,
    )
    @example(  # under the second context the body atom p.c(A) is the later goal p.c(A)
        rules=[
            parse_rule("p.a(X, X) :- s!y(X)"),
            parse_rule("p.a(X, Y) :- s!x(X, Y)"),
            parse_rule("p.b(X) :- p.c(X), s!z(X, X, X)"),
            parse_rule("p.c(X) :- s!x(X, X)"),
        ],
        query=parse_query("q() :- p.a(A, B), p.b(B), p.c(A)"),
        prune=True, minimize=False, indexed=False, max_depth=3, max_rule_uses=2,
        max_rewritings=10_000,
    )
    @example(  # the depth bound cuts the second atom below the deeper context only
        rules=[
            parse_rule("p.a(X, Y) :- p.c(X, Y)"),
            parse_rule("p.c(X, Y) :- s!y(X), s!y(Y)"),
            parse_rule("p.a(X, Y) :- s!x(X, Y)"),
            parse_rule("p.b(X, Y, Z) :- p.b(X, Z, Y)"),
            parse_rule("p.b(X, Y, Z) :- s!z(X, Y, Z)"),
        ],
        query=parse_query("q(A, B) :- p.a(A, B), p.b(B, C, D)"),
        prune=True, minimize=False, indexed=False, max_depth=3, max_rule_uses=1,
        max_rewritings=10_000,
    )
    @example(  # the depth bound cuts the second atom below the first (deeper) context
        rules=[
            parse_rule("p.a(X, Y) :- s!x(X, Y)"),
            parse_rule("p.a(X, Y) :- p.c(X, Y)"),
            parse_rule("p.c(X, Y) :- s!y(X), s!y(Y)"),
            parse_rule("p.b(X, Y, Z) :- p.b(X, Y, Y)"),
            parse_rule("p.b(X, Y, Z) :- s!z(X, Y, Z)"),
        ],
        query=parse_query("q(A, B) :- p.a(A, B), p.b(B, C, D)"),
        prune=True, minimize=False, indexed=False, max_depth=3, max_rule_uses=1,
        max_rewritings=10_000,
    )
    @example(  # the second context's p.c state is pruned by the first's, the third's is not
        rules=[
            parse_rule("p.a(X, Y) :- s!y(X), s!y(Y)"),
            parse_rule("p.a(X, Y) :- s!x(Y, X)"),
            parse_rule("p.a(X, Y) :- p.e(X, Y)"),
            parse_rule("p.e(X, Y) :- s!x(X, Y)"),
            parse_rule("p.b(X, Y) :- p.c(Z)"),
            parse_rule("p.c(X) :- s!z(X, X, X)"),
            parse_rule("p.b(X, Y) :- p.d(X, Y)"),
            parse_rule("p.d(X, Y) :- p.f(X, Y)"),
            parse_rule("p.f(X, Y) :- s!z(X, Y, Y)"),
        ],
        query=parse_query("q() :- p.a(A, B), p.b(A, B)"),
        prune=True, minimize=False, indexed=False, max_depth=4, max_rule_uses=2,
        max_rewritings=10_000,
    )
    @example(  # a replayed p.c state shares its memo key with a cut one outside the replay
        rules=[
            parse_rule("p.a(X, Y) :- s!x(Y, X)"),
            parse_rule("p.a(X, Y) :- p.e(X, Y)"),
            parse_rule("p.e(X, Y) :- s!x(X, Y)"),
            parse_rule("p.a(X, Y) :- s!y(X), s!y(Y)"),
            parse_rule("p.b(X, Y) :- p.c(Z)"),
            parse_rule("p.c(X) :- p.g(X)"),
            parse_rule("p.g(X) :- s!z(X, X, X)"),
        ],
        query=parse_query("q() :- p.a(A, B), p.b(A, B)"),
        prune=True, minimize=False, indexed=False, max_depth=4, max_rule_uses=2,
        max_rewritings=10_000,
    )
    @example(  # max_rewritings stops inside the replay of the second context
        rules=[
            parse_rule("p.a(X, Y) :- s!x(X, Y)"),
            Rule(  # p.a(X, f(X)) :- s!y(X)
                Atom("p.a", (Var("x"), Func("f", (Var("x"),)))), (Atom("s!y", (Var("x"),)),)
            ),
            parse_rule("p.b(X, Y, Z) :- s!z(X, Y, Z)"),
            parse_rule("p.b(X, Y, Z) :- s!z(X, Z, Y)"),
            parse_rule("p.b(X, Y, Z) :- s!z(Y, X, Z)"),
        ],
        query=parse_query("q(A, E) :- p.a(A, E), p.b(A, C, D)"),
        prune=True, minimize=False, indexed=True, max_depth=5, max_rule_uses=2,
        max_rewritings=2,
    )
    def test_same_rewritings_and_counters(
        self, rules, query, prune, minimize, indexed, max_depth, max_rule_uses,
        max_rewritings,
    ):
        _assert_matches_oracle(
            query, rules, _EDB, prune=prune, minimize=minimize, indexed=indexed,
            max_depth=max_depth, max_rule_uses=max_rule_uses,
            max_rewritings=max_rewritings,
        )

    @settings(max_examples=200, deadline=None)
    @given(
        join=_joins(),
        minimize=st.booleans(),
        indexed=st.booleans(),
        max_depth=st.integers(2, 6),
        max_rule_uses=st.integers(1, 2),
        max_rewritings=st.sampled_from([3, 10_000]),
    )
    def test_tabled_joins_match_the_oracle(
        self, join, minimize, indexed, max_depth, max_rule_uses, max_rewritings
    ):
        # Atoms over two mapping families, which a rare rule links: the
        # later atoms' goals are the ones a table is replayed for.
        rules, query = join
        _assert_matches_oracle(
            query, rules, _FAMILY_EDB, prune=True, minimize=minimize,
            indexed=indexed, max_depth=max_depth, max_rule_uses=max_rule_uses,
            max_rewritings=max_rewritings,
        )


def _assert_matches_oracle(query, rules, edb, prune, indexed, **options):
    options.update(prune=prune, index=MappingIndex(rules, edb) if indexed else None)
    expected = _reference_reformulate(query, rules, edb, **options)
    actual = reformulate(query, rules, edb, **options)
    assert [r.canonical() for r in actual.rewritings] == [
        r.canonical() for r in expected.rewritings
    ]
    assert actual.depth_limit_hit == expected.depth_limit_hit
    if prune:
        assert actual.nodes_expanded <= expected.nodes_expanded
        return
    for counter in ("nodes_expanded", "nodes_pruned", "rules_skipped", "index_hits"):
        assert getattr(actual, counter) == getattr(expected, counter), counter


# -- differential: the chase -----------------------------------------------------


class TestDifferentialAgainstChase:
    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        peers=st.integers(2, 6),
        extra_edges=st.integers(0, 3),
        dataless_peers=st.integers(0, 2),
        join=st.booleans(),
    )
    def test_answers_sound_and_complete_on_trees(
        self, seed, peers, extra_edges, dataless_peers, join
    ):
        pdms = random_tree_pdms(
            peers, seed=seed, courses=2, extra_edges=extra_edges,
            dataless_peers=dataless_peers,
        )
        gold = pdms.generator_info["golds"]["p0"]
        query = f"q(?t, ?n) :- p0.{gold['course']}(?c, ?t, ?n, ?w, ?l, ?en, ?d)"
        if join:
            query = (
                f"q(?t, ?e) :- p0.{gold['course']}(?c, ?t, ?n, ?w, ?l, ?en, ?d), "
                f"p0.{gold['instructor']}(?i, ?n, ?e, ?ph, ?o)"
            )
        answers = pdms.answer(query)
        certain = pdms.certain(query)
        assert answers <= certain
        graph = pdms.mapping_graph()
        tree = sum(map(len, graph.values())) // 2 == len(graph) - 1
        if tree and not pdms.reformulate(query).depth_limit_hit:
            assert answers == certain
