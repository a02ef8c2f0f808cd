"""Tests for updategrams and counting-based incremental view maintenance."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.piazza import IncrementalView, Updategram
from repro.piazza.datalog import _eval_body, apply_subst_atom
from repro.piazza.parse import parse_query


class TestUpdategram:
    def test_apply_to_instance(self):
        instance = {"r": {(1,)}}
        gram = Updategram().insert("r", [(2,)]).delete("r", [(1,)])
        gram.apply_to(instance)
        assert instance["r"] == {(2,)}

    def test_size_and_relations(self):
        gram = Updategram().insert("r", [(1,), (2,)]).delete("s", [(3,)])
        assert gram.size() == 3
        assert gram.relations() == {"r", "s"}

    def test_combine_later_wins(self):
        first = Updategram().insert("r", [(1,)])
        second = Updategram().delete("r", [(1,)])
        combined = Updategram.combine([first, second])
        instance = {"r": set()}
        combined.apply_to(instance)
        assert instance["r"] == set()

    def test_combine_delete_then_insert(self):
        first = Updategram().delete("r", [(1,)])
        second = Updategram().insert("r", [(1,)])
        combined = Updategram.combine([first, second])
        instance = {"r": {(1,)}}
        combined.apply_to(instance)
        assert instance["r"] == {(1,)}


class TestIncrementalView:
    def make_view(self):
        query = parse_query("v(X, Z) :- r(X, Y), s(Y, Z)")
        instance = {
            "r": {(1, 10), (2, 20)},
            "s": {(10, "a"), (20, "b")},
        }
        return IncrementalView(query, instance)

    def test_initial_state(self):
        view = self.make_view()
        assert view.tuples() == {(1, "a"), (2, "b")}

    def test_insert_propagates(self):
        view = self.make_view()
        delta = view.apply(Updategram().insert("r", [(3, 10)]))
        assert delta.inserted == {(3, "a")}
        assert view.tuples() == {(1, "a"), (2, "b"), (3, "a")}

    def test_delete_propagates(self):
        view = self.make_view()
        delta = view.apply(Updategram().delete("s", [(20, "b")]))
        assert delta.deleted == {(2, "b")}

    def test_alternative_derivation_survives_delete(self):
        query = parse_query("v(X) :- r(X, Y)")
        view = IncrementalView(query, {"r": {(1, "a"), (1, "b")}})
        delta = view.apply(Updategram().delete("r", [(1, "a")]))
        assert delta.deleted == set()
        assert view.tuples() == {(1,)}

    def test_duplicate_insert_is_noop(self):
        view = self.make_view()
        delta = view.apply(Updategram().insert("r", [(1, 10)]))
        assert delta.inserted == set()
        assert view.counts[(1, "a")] == 1  # count not double-incremented

    def test_delete_of_absent_row_is_noop(self):
        view = self.make_view()
        delta = view.apply(Updategram().delete("r", [(9, 9)]))
        assert delta.inserted == set() and delta.deleted == set()

    def test_overlapping_insert_delete_insert_wins(self):
        # ``apply_to`` deletes first, then inserts — a row in both sets
        # ends up PRESENT.  The counting delta must agree instead of
        # decrementing a derivation the instance keeps.
        query = parse_query("v(X) :- r(X, Y)")
        view = IncrementalView(query, {"r": {(1, 10)}})
        gram = Updategram().insert("r", [(1, 10)]).delete("r", [(1, 10)])
        delta = view.apply(gram)
        assert delta.inserted == set() and delta.deleted == set()
        assert view.tuples() == {(1,)}
        assert view.instance["r"] == {(1, 10)}
        assert view.counts[(1,)] == 1  # count untouched, not dropped to 0

    def test_overlapping_gram_on_absent_row_is_plain_insert(self):
        query = parse_query("v(X) :- r(X, Y)")
        view = IncrementalView(query, {"r": set()})
        delta = view.apply(Updategram().insert("r", [(2, 20)]).delete("r", [(2, 20)]))
        assert delta.inserted == {(2,)}
        assert view.tuples() == {(2,)}

    def test_mixed_updategram(self):
        view = self.make_view()
        gram = Updategram().insert("r", [(3, 20)]).delete("r", [(1, 10)])
        delta = view.apply(gram)
        assert delta.inserted == {(3, "b")}
        assert delta.deleted == {(1, "a")}

    def test_self_join_view(self):
        query = parse_query("v(X, Z) :- e(X, Y), e(Y, Z)")
        view = IncrementalView(query, {"e": {(1, 2), (2, 3)}})
        assert view.tuples() == {(1, 3)}
        delta = view.apply(Updategram().insert("e", [(3, 4)]))
        assert delta.inserted == {(2, 4)}
        delta = view.apply(Updategram().delete("e", [(2, 3)]))
        assert view.tuples() == {(3, 4)} if (3, 4) in view.tuples() else True
        assert (1, 3) not in view.tuples()

    def test_recompute_equals_incremental(self):
        query = parse_query("v(X, Z) :- r(X, Y), s(Y, Z)")
        instance = {"r": {(1, 10), (2, 20)}, "s": {(10, "a"), (20, "b")}}
        incremental = IncrementalView(query, instance)
        recomputed = IncrementalView(query, instance)
        gram = Updategram().insert("r", [(3, 10)]).delete("s", [(20, "b")])
        incremental.apply(gram)
        recomputed.recompute(
            Updategram(inserts=dict(gram.inserts), deletes=dict(gram.deletes))
        )
        assert incremental.tuples() == recomputed.tuples()

    def test_work_counter(self):
        view = self.make_view()
        view.reset_work()
        view.apply(Updategram().insert("r", [(5, 10)]))
        incremental_work = view.work()
        view.reset_work()
        view.recompute(Updategram().insert("r", [(6, 10)]))
        recompute_work = view.work()
        assert incremental_work < recompute_work


ROWS = st.tuples(st.integers(0, 3), st.integers(0, 3))


@st.composite
def updategrams(draw, relations=("r", "s")):
    gram = Updategram()
    for relation in relations:
        inserts = draw(st.sets(ROWS, max_size=4))
        deletes = draw(st.sets(ROWS, max_size=4))
        if inserts:
            gram.insert(relation, inserts)
        if deletes:
            gram.delete(relation, deletes)
    return gram


class TestCombineLaw:
    """``combine`` must equal sequential application — "later wins"."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(updategrams(), min_size=1, max_size=4),
        st.sets(ROWS, max_size=6),
        st.sets(ROWS, max_size=6),
    )
    def test_combine_equals_sequential_application(self, grams, base_r, base_s):
        sequential = {"r": set(base_r), "s": set(base_s)}
        for gram in grams:
            gram.apply_to(sequential)
        combined_instance = Updategram.combine(grams).apply_to(
            {"r": set(base_r), "s": set(base_s)}
        )
        assert combined_instance == sequential

    @settings(max_examples=100, deadline=None)
    @given(updategrams(), updategrams(), st.sets(ROWS, max_size=6))
    def test_pairwise_later_wins(self, first, second, base):
        instance = {"r": set(base), "s": set()}
        second.apply_to(first.apply_to(instance))
        combined = Updategram.combine([first, second]).apply_to(
            {"r": set(base), "s": set()}
        )
        assert combined == instance

    @settings(max_examples=100, deadline=None)
    @given(st.lists(updategrams(), max_size=4))
    def test_size_and_relations_consistency(self, grams):
        combined = Updategram.combine(grams)
        assert combined.relations() == set(combined.inserts) | set(combined.deletes)
        assert combined.size() == sum(
            len(rows) for rows in combined.inserts.values()
        ) + sum(len(rows) for rows in combined.deletes.values())
        assert combined.relations() <= set().union(
            *(gram.relations() for gram in grams), set()
        )
        # Combination resolves conflicts: no row is both inserted and
        # deleted for the same relation.
        for relation in combined.relations():
            assert not (
                combined.inserts.get(relation, set())
                & combined.deletes.get(relation, set())
            )


class TestQualifyRestrict:
    def test_qualify_prefixes_every_relation(self):
        gram = Updategram().insert("c", [(1,)]).delete("d", [(2,)])
        qualified = gram.qualify("uw")
        assert qualified.relations() == {"uw!c", "uw!d"}
        assert qualified.inserts["uw!c"] == {(1,)}
        assert qualified.deletes["uw!d"] == {(2,)}
        assert gram.relations() == {"c", "d"}  # original untouched

    def test_restrict_keeps_only_named_relations(self):
        gram = Updategram().insert("a", [(1,)]).insert("b", [(2,)]).delete("a", [(3,)])
        narrowed = gram.restrict({"a"})
        assert narrowed.relations() == {"a"}
        assert narrowed.inserts["a"] == {(1,)} and narrowed.deletes["a"] == {(3,)}
        assert gram.restrict(()).size() == 0


class TestApplyAliasingParity:
    """The touched-relations copy must match the full-copy seed bitwise."""

    QUERY = "v(X, Z) :- r(X, Y), s(Y, Z)"

    @settings(max_examples=60, deadline=None)
    @given(
        st.sets(ROWS, max_size=8),
        st.sets(ROWS, max_size=8),
        st.lists(updategrams(), max_size=5),
    )
    def test_apply_matches_apply_brute_force(self, base_r, base_s, grams):
        base = {"r": set(base_r), "s": set(base_s), "untouched": {(9, 9)}}
        fast = IncrementalView(parse_query(self.QUERY), base)
        slow = IncrementalView(parse_query(self.QUERY), base)
        oracle = IncrementalView(parse_query(self.QUERY), base)
        for gram in grams:
            copies = [
                Updategram(
                    inserts={k: set(v) for k, v in gram.inserts.items()},
                    deletes={k: set(v) for k, v in gram.deletes.items()},
                )
                for _ in range(2)
            ]
            fast_delta = fast.apply(gram)
            slow_delta = slow.apply_brute_force(copies[0])
            oracle.recompute(copies[1])  # ground truth, incl. overlap grams
            assert fast_delta.inserted == slow_delta.inserted
            assert fast_delta.deleted == slow_delta.deleted
            assert fast.counts == slow.counts
            assert fast.instance == slow.instance
            assert fast.tuples() == slow.tuples() == oracle.tuples()
            assert fast.instance == oracle.instance
            # The counts are the nested-loop oracle's derivation multiplicities.
            assert fast.counts == Counter(
                apply_subst_atom(fast.query.head, subst).args
                for subst in _eval_body(fast.query.body, fast.instance, {})
            )
        # Identical work metric: the delta passes are the same joins.
        assert fast.work() == slow.work()

    def test_untouched_relations_are_aliased_not_copied(self):
        view = IncrementalView(
            parse_query(self.QUERY), {"r": {(1, 2)}, "s": {(2, 3)}}
        )
        s_rows = view.instance["s"]
        view.apply(Updategram().insert("r", [(4, 2)]))
        assert view.instance["s"] is s_rows  # aliased across the gram
        assert view.instance["r"] is not s_rows
        view.apply(Updategram().delete("s", [(2, 3)]))
        assert view.instance["s"] is not s_rows  # copied once touched
        assert s_rows == {(2, 3)}  # ...and the old set never mutated


@st.composite
def update_sequences(draw):
    base = draw(
        st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=12)
    )
    operations = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete"]),
                st.tuples(st.integers(0, 4), st.integers(0, 4)),
            ),
            max_size=12,
        )
    )
    return base, operations


class TestIncrementalMatchesRecompute:
    @settings(max_examples=60, deadline=None)
    @given(update_sequences())
    def test_random_update_sequences(self, data):
        base, operations = data
        query = parse_query("v(X, Z) :- e(X, Y), e(Y, Z)")
        view = IncrementalView(query, {"e": set(base)})
        shadow = set(base)
        for op, row in operations:
            if op == "insert":
                view.apply(Updategram().insert("e", [row]))
                shadow.add(row)
            else:
                view.apply(Updategram().delete("e", [row]))
                shadow.discard(row)
            expected = {(x, z) for (x, y) in shadow for (y2, z) in shadow if y == y2}
            assert view.tuples() == expected
