"""Parity suite for the PDMS scale layer (benchmark C11's correctness leg).

Everything the scale layer accelerates must be *provably identical* to
the brute-force path it replaces:

* compiled-plan evaluation == nested-loop evaluation (answers and
  derivation counts),
* indexed reformulation == unindexed reformulation (rewriting sets),
* the fast UCQ minimizer == the quadratic one (same survivors, same
  deterministic order),
* the batched executor == the per-relation executor (answers + views),
* a long-lived PDMS, which compiles each mapping once as it joins ==
  a fresh PDMS replaying the same registrations,

checked on randomized ``pdms_gen`` networks (with schema-only peers and
cross edges), on random join streams, and on targeted hand-built
topologies for the closure logic.
"""

import itertools
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datasets.pdms_gen import random_tree_pdms
from repro.piazza import (
    Atom,
    ConjunctiveQuery,
    Const,
    DistributedExecutor,
    Func,
    IncrementalView,
    MappingIndex,
    PDMS,
    Var,
    evaluate_query,
    evaluate_query_brute_force,
    evaluate_union,
    evaluate_union_brute_force,
    minimize_union,
)
from repro.piazza import peer as peer_module
from repro.piazza.datalog import (
    RuleTemplate,
    _eval_body,
    apply_subst_atom,
    freeze,
    is_ground,
    minimize_union_brute_force,
)
from repro.piazza.parse import parse_query, parse_rule
from repro.piazza.peer import PdmsError


def _random_networks():
    for seed in (1, 5, 11):
        yield random_tree_pdms(
            9, seed=seed, courses=3, extra_edges=3, dataless_peers=2
        )


def _sample_queries(pdms) -> list[str]:
    gold = pdms.generator_info["golds"]["p0"]
    course, instructor, ta = gold["course"], gold["instructor"], gold["ta"]
    return [
        f"q(?t) :- p0.{course}(?c, ?t, ?n, ?w, ?l, ?en, ?d)",
        f"q(?t, ?e) :- p0.{course}(?c, ?t, ?n, ?w, ?l, ?en, ?d), "
        f"p0.{instructor}(?i, ?n, ?e, ?ph, ?o)",
        f"q(?n, ?ta) :- p0.{course}(?c, ?t, ?n, ?w, ?l, ?en, ?d), "
        f"p0.{ta}(?i, ?c, ?ta, ?e, ?h)",
    ]


# -- generated CQs for the evaluation law -----------------------------------
ARITIES = {"r": 2, "s": 2, "t": 1}
VARIABLES = st.sampled_from([Var(name) for name in "xyzw"])
SMALL = st.integers(0, 1)
SIZES = st.sampled_from([0, 1, 2, 2, 3])


def _skolem(arg):
    return st.builds(Func, st.sampled_from(["f", "g"]), st.tuples(arg) | st.tuples(arg, arg))


# Mostly plain values and variables, so that joins succeed; then Const
# wrappers and Skolem terms (with Consts nested inside).
WRAPPED = st.builds(Const, SMALL)
VALUES = st.one_of(SMALL, SMALL, SMALL, WRAPPED, _skolem(SMALL | WRAPPED))
TERMS = st.one_of(
    VARIABLES, VARIABLES, VARIABLES, SMALL, WRAPPED, _skolem(VARIABLES | SMALL | WRAPPED)
)


@st.composite
def conjunctive_queries(draw):
    """Bodies of 0-3 atoms (self-joins and repeated variables included),
    heads over the body's variables, sometimes a constant, a Skolem term
    or a variable the body leaves unbound."""
    predicates = st.sampled_from(sorted(ARITIES))
    body = tuple(
        Atom(predicate, tuple(draw(TERMS) for _ in range(ARITIES[predicate])))
        for predicate in draw(st.lists(predicates, min_size=draw(SIZES), max_size=3))
    )
    bound = sorted({var for atom in body for var in atom.variables()}, key=repr)
    head_terms = st.sampled_from(bound) if bound else VALUES
    if draw(st.booleans()):
        head_terms |= VALUES | _skolem(head_terms) | st.just(Var("unbound"))
    head = tuple(draw(head_terms) for _ in range(draw(SIZES)))
    return ConjunctiveQuery(Atom("q", head), body)


@st.composite
def instances(draw):
    """Relations, empty or missing, whose facts sometimes have the wrong
    arity; or the frozen canonical database of another query."""
    if not draw(st.integers(0, 3)):
        return freeze(draw(conjunctive_queries()))[0]
    instance = {}
    for predicate, arity in ARITIES.items():
        if draw(st.integers(0, 3)):  # else the relation is missing
            widths = st.sampled_from([arity, arity, arity, arity + 1])
            facts = widths.flatmap(lambda width: st.tuples(*[VALUES] * width))
            instance[predicate] = set(draw(st.lists(facts, min_size=2 * draw(SIZES))))
    return instance


def _flip(term):
    return Const(_flip(term.value)) if term.__class__ is Const else 1 - term


def _wrap(term):
    return term.value if term.__class__ is Const else Const(term)


def _edit_constant(query, chosen: int, edit) -> tuple[ConjunctiveQuery, int]:
    """``query`` with its ``chosen``-th constant (head first, Skolem
    arguments included) replaced by ``edit(constant)``, and how many
    constants it holds."""
    seen = itertools.count()

    def walk(term):
        if term.__class__ is Var:
            return term
        if term.__class__ is Func:
            return Func(term.name, tuple(map(walk, term.args)))
        return edit(term) if next(seen) == chosen else term

    def atom(a):
        return Atom(a.predicate, tuple(map(walk, a.args)))

    edited = ConjunctiveQuery(atom(query.head), tuple(map(atom, query.body)))
    return edited, next(seen)


@st.composite
def sibling_unions(draw):
    """A generated query, then members that differ from it only in
    predicate names, in one constant, or in one ``Const`` wrapper: the
    shapes a plan shared within a union must not be mistaken across."""
    query = draw(conjunctive_queries())
    constants = _edit_constant(query, -1, None)[1]
    members = [query]
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from([None, _flip, _wrap] if constants else [None]))
        if edit is None:  # rename each body predicate to one of its arity
            members.append(ConjunctiveQuery(query.head, tuple(
                Atom(draw(st.sampled_from(
                    [p for p in sorted(ARITIES) if ARITIES[p] == ARITIES[a.predicate]]
                )), a.args)
                for a in query.body
            )))
        else:
            chosen = draw(st.integers(0, constants - 1))
            members.append(_edit_constant(query, chosen, edit)[0])
    return members


def _nested_loop_counts(query, instance) -> Counter:
    """Derivation multiplicities by the nested-loop oracle."""
    heads = (apply_subst_atom(query.head, subst).args
             for subst in _eval_body(query.body, instance, {}))
    return Counter(head for head in heads if all(map(is_ground, head)))


class TestEvaluationParity:
    @settings(max_examples=400, deadline=None)
    @given(sibling_unions(), instances())
    @example(  # one shape, two relations
        queries=[parse_query("q(X) :- r(X, Y)"), parse_query("q(X) :- s(X, Y)")],
        instance={"r": {(1, 2)}, "s": {(3, 4)}},
    )
    def test_hash_join_equals_brute_force_on_random_instances(self, queries, instance):
        # The compiled plan == the nested loop: the same answers, and the
        # same number of derivations per answer (what a view counts).
        query = queries[0]
        assert evaluate_query(query, instance) == evaluate_query_brute_force(query, instance)
        counts = _nested_loop_counts(query, instance)
        assert IncrementalView(query, instance).counts == counts
        # A union's members share one plan per shape, never across shapes.
        assert evaluate_union(queries, instance) == evaluate_union_brute_force(
            queries, instance
        )

    def test_const_wrapped_facts_match_like_brute_force(self):
        # Regression: fact-side hash keys must unconst like probe keys,
        # including Consts nested inside Skolem terms.
        from repro.piazza import Const, Func

        instance = {
            "p": {(Const("a"), "b")},
            "f": {(Func("sk", (Const("a"),)), "c")},
        }
        for text in ("q(X) :- p('a', X)", "q(X) :- p(Y, X)"):
            query = parse_query(text)
            assert evaluate_query(query, instance) == evaluate_query_brute_force(
                query, instance
            ) == {("b",)}
        join = parse_query("q(X, Z) :- f(Y, X), f(Y, Z)")
        assert evaluate_query(join, instance) == evaluate_query_brute_force(
            join, instance
        ) == {("c", "c")}

    def test_union_parity_on_generated_networks(self):
        for pdms in _random_networks():
            instance = pdms.instance()
            for query in _sample_queries(pdms):
                result = pdms.reformulate(query)
                assert evaluate_union(
                    result.rewritings, instance
                ) == evaluate_union_brute_force(result.rewritings, instance)

    def test_answer_parity_and_certain_answers(self):
        pdms = random_tree_pdms(5, seed=7, courses=2)
        for query in _sample_queries(pdms):
            fast = pdms.answer(query)
            brute = pdms.answer_brute_force(query)
            assert fast == brute
            # Equality mappings + identity storage: reformulation is
            # complete, so both must equal the chase's certain answers.
            assert fast == pdms.certain(query)


class TestReformulationParity:
    def test_indexed_equals_unindexed_rewritings(self):
        for pdms in _random_networks():
            for query in _sample_queries(pdms):
                indexed = pdms.reformulate(query)
                unindexed = pdms.reformulate(query, indexed=False)
                assert [r.canonical() for r in indexed.rewritings] == [
                    r.canonical() for r in unindexed.rewritings
                ]
                assert indexed.index_hits > 0
                assert unindexed.index_hits == 0

    def test_brute_force_entry_points_accept_indexed_knob(self):
        # Regression: the documented ablation knob must be harmless on
        # the (by definition unindexed) brute-force paths.
        pdms = random_tree_pdms(4, seed=2, courses=2)
        query = _sample_queries(pdms)[0]
        executor = DistributedExecutor(pdms)
        assert pdms.answer_brute_force(query, indexed=False) == pdms.answer(query)
        brute = executor.execute_brute_force(
            query, "p0", reformulation_options={"indexed": False}
        )
        assert brute.answers == pdms.answer(query)

    def test_scale_pipeline_equals_seed_pipeline(self):
        for pdms in _random_networks():
            for query in _sample_queries(pdms):
                fast = pdms.reformulate(query)
                seed_path = pdms.reformulate_brute_force(query)
                assert [r.canonical() for r in fast.rewritings] == [
                    r.canonical() for r in seed_path.rewritings
                ]

    def test_relevance_closure_skips_dead_rules(self):
        # The schema-only peers of the generated network map themselves
        # one-directionally into data peers, so their relations are dead
        # ends the index proves unreachable-to-storage.
        pdms = random_tree_pdms(6, seed=3, courses=2, dataless_peers=3)
        index = pdms.mapping_index()
        assert index.stats.dead_rules > 0
        result = pdms.reformulate(_sample_queries(pdms)[0], max_depth=30)
        assert result.rules_skipped > 0


class TestGoalTabling:
    """The benchmark's join network: the instructor atom waits on each of
    the course atom's completions, and is expanded only under the first."""

    def test_join_expands_each_atom_once(self):
        from test_piazza_reformulation import _reference_reformulate

        pdms = random_tree_pdms(30, seed=12, courses=4, dataless_peers=6)
        gold = pdms.generator_info["golds"]["p0"]
        course = f"p0.{gold['course']}(?c, ?t, ?n, ?w, ?l, ?en, ?d)"
        instructor = f"p0.{gold['instructor']}(?i, ?n, ?e, ?ph, ?o)"
        query = parse_query(f"q(?t, ?e) :- {course}, {instructor}")
        join = pdms.reformulate(query, max_depth=64)
        singles = [
            pdms.reformulate(f"q(?t) :- {course}", max_depth=64),
            pdms.reformulate(f"q(?e) :- {instructor}", max_depth=64),
        ]
        assert join.nodes_expanded == sum(single.nodes_expanded for single in singles)
        assert len(join) == len(singles[0]) * len(singles[1])
        untabled = _reference_reformulate(
            query, pdms.rules(), pdms.edb_predicates(), max_depth=64
        )
        assert untabled.nodes_expanded > join.nodes_expanded
        assert [r.canonical() for r in join.rewritings] == [
            r.canonical() for r in untabled.rewritings
        ]


class TestMappingIndex:
    def _chain(self, length: int) -> PDMS:
        pdms = PDMS()
        for i in range(length):
            self._join(pdms, i)
        return pdms

    @staticmethod
    def _join(pdms: PDMS, i: int, rows=()) -> None:
        """Peer ``p{i}`` joins with its storage and maps itself to ``p{i-1}``."""
        peer = pdms.add_peer(f"p{i}")
        peer.add_relation("r", ["a"])
        peer.add_stored("s", ["a"], rows)
        pdms.add_storage(f"p{i}", "s", f"p{i}.r")
        if i:
            pdms.add_mapping(
                f"m{i - 1}", f"m(X) :- p{i - 1}.r(X)", f"m(X) :- p{i}.r(X)",
                exact=True,
            )

    def test_productive_closure(self):
        rules = [
            parse_rule("a.r(X) :- src!s(X)"),
            parse_rule("b.r(X) :- a.r(X)"),
            parse_rule("c.r(X) :- dead.r(X)"),  # dead.r has no derivation
            parse_rule("c.r(X) :- b.r(X)"),
        ]
        index = MappingIndex(rules, {"src!s"})
        assert index.is_productive("a.r")
        assert index.is_productive("c.r")
        assert not index.is_productive("dead.r")
        # c.r keeps only its live rule.
        assert len(index.rules_for("c.r")) == 1
        assert index.dead_rules_for("c.r") == 1
        assert index.stats.dead_rules == 1

    def test_reachability_closure(self):
        pdms = self._chain(4)
        index = pdms.mapping_index()
        reachable = index.reachable("p3.r")
        assert {"p0!s", "p1!s", "p2!s", "p3!s"} <= reachable
        assert index.relevant_edb({"p3.r"}) == {
            "p0!s", "p1!s", "p2!s", "p3!s",
        }

    def test_cache_invalidation_on_topology_change(self):
        pdms = self._chain(2)
        first = pdms.mapping_index()
        assert pdms.mapping_index() is first  # cached
        peer = pdms.add_peer("late")
        peer.add_relation("r", ["a"])
        peer.add_stored("s", ["a"], [("fresh",)])
        pdms.add_storage("late", "s", "late.r")
        pdms.add_mapping("late_m", "m(X) :- late.r(X)", "m(X) :- p0.r(X)",
                         exact=True)
        rebuilt = pdms.mapping_index()
        assert rebuilt is not first
        assert pdms.answer("q(X) :- p0.r(X)") >= {("fresh",)}

    def test_snapshot_counts(self):
        pdms = self._chain(3)
        snapshot = pdms.mapping_index().stats_snapshot()
        assert snapshot["rules"] == len(pdms.rules())
        assert snapshot["edb_predicates"] == 3
        assert snapshot["dead_rules"] == 0

    def test_uncompilable_mapping_is_refused_and_changes_nothing(self):
        pdms = PDMS()
        for i in range(2):
            self._join(pdms, i, rows=[(i,)])
        query = "q(X) :- p0.r(X)"
        answers = pdms.answer(query)
        index, version = pdms.mapping_index(), pdms.topology_version
        mappings, rules = list(pdms.mappings), pdms.rules()
        with pytest.raises(PdmsError, match="cannot align head variables"):
            pdms.add_mapping("bad", "m(1) :- p0.r(X)", "m(2) :- p1.r(Y)")
        assert pdms.mappings == mappings
        assert pdms.rules() == rules
        assert pdms.topology_version == version
        assert pdms.mapping_index() is index
        assert pdms.answer(query) == answers == {(0,), (1,)}

    def test_a_join_compiles_only_its_own_rules(self, monkeypatch):
        inverted, templated, builds = Counter(), Counter(), []
        inverse_rules, compile_template = peer_module._inverse_rules, RuleTemplate.compile
        build_index = MappingIndex.__init__

        def counted_inverse_rules(*args, label, **kwargs):
            inverted[label] += 1
            return inverse_rules(*args, label=label, **kwargs)

        def counted_compile(rule):
            templated[id(rule)] += 1
            return compile_template(rule)

        def counted_build(self, *args):
            builds.append(1)
            build_index(self, *args)

        monkeypatch.setattr(peer_module, "_inverse_rules", counted_inverse_rules)
        monkeypatch.setattr(RuleTemplate, "compile", counted_compile)
        monkeypatch.setattr(MappingIndex, "__init__", counted_build)

        pdms, joins = PDMS(), 6
        for i in range(joins):
            self._join(pdms, i, rows=[(i,)])
            assert pdms.answer("q(X) :- p0.r(X)") == {(j,) for j in range(i + 1)}
        # One compile per storage description and per mapping direction.
        assert len(inverted) == len(pdms.storage) + 2 * len(pdms.mappings)
        assert set(inverted.values()) == {1}
        assert set(templated.values()) == {1}
        assert set(templated) <= {id(rule) for rule in pdms.rules()}
        assert len(builds) == joins


_rows = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=3)
_streams = st.lists(
    st.tuples(
        st.sampled_from(["peer", "store", "map", "map", "map", "def", "read", "read"]),
        st.integers(0, 7),
        st.integers(0, 7),
        _rows,
        st.booleans(),
        st.booleans(),
    ),
    min_size=2,
    max_size=30,
)


def _resolve(founders: list, stream) -> list[tuple]:
    """Concrete ops: the founders join (storing their rows, or dataless
    for ``None``), then the stream's picks name peers; a mapping always
    joins two distinct peers, and a peer stores at most once."""
    peers = [f"p{i}" for i in range(len(founders))]
    ops = [("peer", name) for name in peers]
    ops += [("store", name, rows) for name, rows in zip(peers, founders) if rows is not None]
    stored = {op[1] for op in ops if op[0] == "store"}
    for kind, one, other, rows, exact, projected in stream:
        first = peers[one % len(peers)]
        second = peers[(one + 1 + other % (len(peers) - 1)) % len(peers)]
        if kind == "peer":
            peers.append(f"p{len(peers)}")
            ops.append(("peer", peers[-1]))
        elif kind == "store" and first not in stored:
            stored.add(first)
            ops.append(("store", first, rows))
        elif kind == "map":
            ops.append(("map", f"map{len(ops)}", first, second, exact, projected))
        elif kind == "def":
            ops.append(("def", f"def{len(ops)}", first, second))
        elif kind == "read":
            ops.append(("read", first))
    return ops


def _apply(pdms: PDMS, op: tuple) -> None:
    kind, name, *args = op
    if kind == "peer":
        pdms.add_peer(name).add_relation("r", ["a", "b"])
    elif kind == "store":
        pdms.peers[name].add_stored("s", ["a", "b"], args[0])
        pdms.add_storage(name, "s", f"{name}.r")
    elif kind == "map":
        source, target, exact, projected = args
        head = "m(X)" if projected else "m(X, Y)"  # a projection leaves a Skolem
        pdms.add_mapping(
            name, f"{head} :- {source}.r(X, Y)", f"{head} :- {target}.r(X, Y)",
            exact=exact,
        )
    elif kind == "def":
        head, body = args
        pdms.add_definition(name, f"{head}.r(X, Y) :- {body}.r(X, Y)")


def _observe(pdms: PDMS, peer: str) -> tuple:
    query = f"q(X, Y) :- {peer}.r(X, Y)"
    result = pdms.reformulate(query)
    counters = tuple(
        getattr(result, counter)
        for counter in (
            "nodes_expanded", "nodes_pruned", "rules_skipped", "index_hits",
            "depth_limit_hit",
        )
    )
    return (
        [r.canonical() for r in result.rewritings],
        counters,
        pdms.mapping_index().stats_snapshot(),
        pdms.answer(query),
    )


class TestLongLivedPdms:
    @settings(max_examples=200, deadline=None)
    @given(founders=st.lists(st.none() | _rows, min_size=2, max_size=5), stream=_streams)
    def test_matches_a_fresh_rebuild_after_every_read(self, founders, stream):
        ops = _resolve(founders, stream)
        live = PDMS()
        for position, op in enumerate(ops):
            if op[0] != "read":
                _apply(live, op)
                continue
            fresh = PDMS()
            for earlier in ops[:position]:
                if earlier[0] != "read":
                    _apply(fresh, earlier)
            assert _observe(live, op[1]) == _observe(fresh, op[1])


class TestMinimizeUnion:
    QUERIES = [
        "q(X) :- src!a(X), src!b(X)",   # contained in the next member
        "q(X) :- src!a(X)",
        "q(Y) :- src!a(Y)",             # equivalent to the previous one
        "q(X) :- src!c(X)",
        "q(X) :- src!a(X), src!c(X)",   # contained in both singles
    ]

    def test_matches_brute_force_exactly(self):
        queries = [parse_query(text) for text in self.QUERIES]
        assert minimize_union(queries) == minimize_union_brute_force(queries)

    def test_output_order_deterministic(self):
        queries = [parse_query(text) for text in self.QUERIES]
        first = minimize_union(list(queries))
        second = minimize_union(list(queries))
        assert first == second
        # Survivors keep their input order (a subsequence of the input).
        positions = [queries.index(kept) for kept in first]
        assert positions == sorted(positions)
        # Of the equivalent pair, exactly the earlier member survives.
        assert queries[1] in first
        assert queries[2] not in first

    def test_matches_brute_force_on_generated_unions(self):
        for pdms in _random_networks():
            for query in _sample_queries(pdms):
                raw = pdms.reformulate(query, minimize=False).rewritings
                assert minimize_union(raw) == minimize_union_brute_force(raw)


class TestExecutorParity:
    def test_batched_equals_brute_answers_and_views(self):
        for pdms in _random_networks():
            executor = DistributedExecutor(pdms)
            for query in _sample_queries(pdms):
                fast = executor.execute(query, at_peer="p0")
                brute = executor.execute_brute_force(query, at_peer="p0")
                assert fast.answers == brute.answers
                assert fast.peers_contacted == brute.peers_contacted
                assert fast.messages <= brute.messages

    def test_batching_halves_messages_on_two_relation_query(self):
        pdms = random_tree_pdms(6, seed=2, courses=2)
        query = _sample_queries(pdms)[1]
        executor = DistributedExecutor(pdms)
        options = {"minimize": False}
        fast = executor.execute(query, "p0", reformulation_options=options)
        brute = executor.execute_brute_force(
            query, "p0", reformulation_options=options
        )
        assert fast.answers == brute.answers
        assert brute.messages == 2 * fast.messages

    def test_view_hits_short_circuit_fetches(self):
        pdms = random_tree_pdms(4, seed=2, courses=2)
        query = _sample_queries(pdms)[0]
        executor = DistributedExecutor(pdms)
        for rewriting in pdms.reformulate(query).rewritings:
            executor.materialize("p0", rewriting)
        served = executor.execute(query, at_peer="p0")
        assert served.view_hits > 0
        assert served.messages == 0
        assert served.answers == pdms.answer(query)
