"""Tests for the datalog core: unification, evaluation, chase, containment."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.piazza.datalog import (
    Atom,
    ConjunctiveQuery,
    Func,
    Rule,
    Var,
    apply_subst,
    certain_answers,
    chase,
    evaluate_query,
    evaluate_union,
    freeze,
    has_skolem,
    is_contained_in,
    is_ground,
    minimize_union,
    term_depth,
    unify,
)
from repro.piazza.parse import parse_query, parse_rule

X, Y, Z = Var("x"), Var("y"), Var("z")


class TestTerms:
    def test_ground(self):
        assert is_ground("a")
        assert is_ground(Func("f", ("a",)))
        assert not is_ground(X)
        assert not is_ground(Func("f", (X,)))

    def test_skolem_detection(self):
        assert has_skolem(Func("f", ()))
        assert not has_skolem("a")

    def test_term_depth(self):
        assert term_depth("a") == 0
        assert term_depth(Func("f", ("a",))) == 1
        assert term_depth(Func("f", (Func("g", ("a",)),))) == 2


class TestUnify:
    def test_var_binds_constant(self):
        assert unify(X, "a") == {X: "a"}

    def test_constants_must_match(self):
        assert unify("a", "b") is None
        assert unify("a", "a") == {}

    def test_transitive_binding(self):
        subst = unify(X, Y)
        subst = unify(Y, "c", subst)
        assert apply_subst(X, subst) == "c"

    def test_occurs_check(self):
        assert unify(X, Func("f", (X,))) is None

    def test_func_unification(self):
        subst = unify(Func("f", (X,)), Func("f", ("a",)))
        assert subst == {X: "a"}
        assert unify(Func("f", (X,)), Func("g", ("a",))) is None

    def test_never_mutates_input(self):
        subst = {X: "a"}
        unify(Y, "b", subst)
        assert subst == {X: "a"}


class TestEvaluate:
    INSTANCE = {
        "r": {("a", "b"), ("b", "c"), ("c", "d")},
        "s": {("b",), ("d",)},
    }

    def test_single_atom(self):
        query = parse_query("q(X, Y) :- r(X, Y)")
        assert evaluate_query(query, self.INSTANCE) == self.INSTANCE["r"]

    def test_join(self):
        query = parse_query("q(X) :- r(X, Y), s(Y)")
        assert evaluate_query(query, self.INSTANCE) == {("a",), ("c",)}

    def test_chain_join(self):
        query = parse_query("q(X, Z) :- r(X, Y), r(Y, Z)")
        assert evaluate_query(query, self.INSTANCE) == {("a", "c"), ("b", "d")}

    def test_constant_in_query(self):
        query = parse_query("q(Y) :- r('a', Y)")
        assert evaluate_query(query, self.INSTANCE) == {("b",)}

    def test_repeated_variable(self):
        instance = {"r": {("a", "a"), ("a", "b")}}
        query = parse_query("q(X) :- r(X, X)")
        assert evaluate_query(query, instance) == {("a",)}

    def test_empty_relation(self):
        query = parse_query("q(X) :- missing(X)")
        assert evaluate_query(query, self.INSTANCE) == set()

    def test_union(self):
        q1 = parse_query("q(X) :- s(X)")
        q2 = parse_query("q(X) :- r(X, 'b')")
        assert evaluate_union([q1, q2], self.INSTANCE) == {("b",), ("d",), ("a",)}

    @given(
        st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=25),
        st.sets(st.tuples(st.integers(0, 5)), max_size=6),
    )
    def test_join_matches_python(self, r, s):
        instance = {"r": r, "s": s}
        query = parse_query("q(X) :- r(X, Y), s(Y)")
        expected = {(x,) for (x, y) in r if (y,) in s}
        assert evaluate_query(query, instance) == expected


class TestChase:
    def test_gav_rule_derives(self):
        rules = [parse_rule("p(X) :- e(X, Y)")]
        chased = chase({"e": {("a", "b")}}, rules)
        assert ("a",) in chased["p"]

    def test_skolem_generation(self):
        # e(x) says x has some friend: friend(x, f(x)).
        rule = Rule(
            Atom("friend", (X, Func("f", (X,)))),
            (Atom("e", (X,)),),
        )
        chased = chase({"e": {("a",)}}, [rule])
        assert ("a", Func("f", ("a",))) in chased["friend"]

    def test_skolem_depth_capped(self):
        # friend(x, y) -> friend(y, f(y)): infinite without the cap.
        rule = Rule(
            Atom("friend", (Y, Func("f", (Y,)))),
            (Atom("friend", (X, Y)),),
        )
        chased = chase({"friend": {("a", "b")}}, [rule], max_skolem_depth=2)
        depths = [term_depth(t[1]) for t in chased["friend"]]
        assert max(depths) == 2

    def test_certain_answers_filter_skolems(self):
        rule = Rule(
            Atom("friend", (X, Func("f", (X,)))),
            (Atom("e", (X,)),),
        )
        query = parse_query("q(X, Y) :- friend(X, Y)")
        assert certain_answers(query, {"e": {("a",)}}, [rule]) == set()
        # ...but joining *through* the skolem works:
        rules = [
            rule,
            Rule(Atom("age", (Func("f", (X,)), "young")), (Atom("e", (X,)),)),
        ]
        query2 = parse_query("q(X, A) :- friend(X, Y), age(Y, A)")
        assert certain_answers(query2, {"e": {("a",)}}, rules) == {("a", "young")}


class TestContainment:
    def test_more_restrictive_contained(self):
        q1 = parse_query("q(X) :- r(X, Y), s(Y)")
        q2 = parse_query("q(X) :- r(X, Y)")
        assert is_contained_in(q1, q2)
        assert not is_contained_in(q2, q1)

    def test_equivalent_renamings(self):
        q1 = parse_query("q(A) :- r(A, B)")
        q2 = parse_query("q(X) :- r(X, Y)")
        assert is_contained_in(q1, q2)
        assert is_contained_in(q2, q1)

    def test_constants(self):
        q1 = parse_query("q(X) :- r(X, 'a')")
        q2 = parse_query("q(X) :- r(X, Y)")
        assert is_contained_in(q1, q2)
        assert not is_contained_in(q2, q1)

    def test_arity_mismatch(self):
        q1 = parse_query("q(X) :- r(X, Y)")
        q2 = parse_query("q(X, Y) :- r(X, Y)")
        assert not is_contained_in(q1, q2)

    def test_freeze_produces_canonical_db(self):
        query = parse_query("q(X) :- r(X, Y), s(Y)")
        canonical_db, frozen_head = freeze(query)
        assert len(canonical_db["r"]) == 1
        assert len(frozen_head) == 1

    def test_minimize_union_drops_contained(self):
        q_specific = parse_query("q(X) :- r(X, Y), s(Y)")
        q_general = parse_query("q(X) :- r(X, Y)")
        kept = minimize_union([q_specific, q_general])
        assert kept == [q_general]

    def test_minimize_union_keeps_one_of_equivalent(self):
        q1 = parse_query("q(A) :- r(A, B)")
        q2 = parse_query("q(X) :- r(X, Y)")
        assert len(minimize_union([q1, q2])) == 1


class TestQueryHelpers:
    def test_safety(self):
        with pytest.raises(ValueError):
            parse_query("q(X, Z) :- r(X, Y)")

    def test_rename_preserves_structure(self):
        query = parse_query("q(X) :- r(X, Y)")
        renamed = query.rename("7")
        assert renamed.canonical() == query.canonical()
        assert renamed.variables().isdisjoint(query.variables())

    def test_canonical_invariant_under_renaming(self):
        q1 = parse_query("q(A, B) :- r(A, C), s(C, B)")
        q2 = parse_query("q(X, Y) :- r(X, Z), s(Z, Y)")
        assert q1.canonical() == q2.canonical()

    def test_canonical_distinguishes_constants(self):
        q1 = parse_query("q(X) :- r(X, 'a')")
        q2 = parse_query("q(X) :- r(X, 'b')")
        assert q1.canonical() != q2.canonical()
