"""Tests for the continuous-query view-serving subsystem.

The load-bearing property: after *every* updategram of a randomized
interleaved query/update stream, :meth:`ViewServer.serve` answers are
set-identical to :meth:`ViewServer.serve_brute_force` (invalidate
everything + fresh reformulate/execute — the baseline the paper
rejects), including multi-derivation deletes and self-join views.
``serve`` copies a support-counted union kept at write time, so a
hypothesis law also pins every served answer to a from-scratch union of
its views' extents across register/unregister, out-of-band repairs and
re-registration after a topology change.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.pdms_gen import random_tree_pdms, update_stream
from repro.piazza import (
    DistributedExecutor,
    PDMS,
    SimulatedNetwork,
    Updategram,
    ViewServer,
)
from repro.piazza.peer import PdmsError
from repro.piazza.updates import IncrementalView


def chain_pdms_small() -> PDMS:
    """uw <-> berkeley <-> mit, one stored course relation each."""
    pdms = PDMS()
    for name, rows in [
        ("uw", [(1, "DB")]),
        ("berkeley", [(2, "OS")]),
        ("mit", [(3, "AI")]),
    ]:
        peer = pdms.add_peer(name)
        peer.add_relation("course", ["id", "title"])
        peer.add_stored("c", ["id", "title"])
        pdms.add_storage(name, "c", f"{name}.course")
        peer.insert("c", rows)
    pdms.add_mapping(
        "u_b", "m(I, T) :- uw.course(I, T)", "m(I, T) :- berkeley.course(I, T)",
        exact=True,
    )
    pdms.add_mapping(
        "b_m", "m(I, T) :- berkeley.course(I, T)", "m(I, T) :- mit.course(I, T)",
        exact=True,
    )
    return pdms


def edge_pdms() -> PDMS:
    """One peer with a stored binary edge relation (self-join material)."""
    pdms = PDMS()
    peer = pdms.add_peer("g")
    peer.add_relation("edge", ["src", "dst"])
    peer.add_stored("e", ["src", "dst"])
    pdms.add_storage("g", "e", "g.edge")
    peer.insert("e", [(1, 2), (2, 3)])
    return pdms


class TestRegistration:
    def test_register_is_idempotent_and_alpha_invariant(self):
        pdms = chain_pdms_small()
        server = ViewServer(DistributedExecutor(pdms))
        first = server.register("uw", "q(T) :- uw.course(I, T)")
        again = server.register("uw", "q(Title) :- uw.course(Id, Title)")
        assert first is again  # α-renamed-equal queries share one registration
        assert server.stats.registrations == 1
        assert server.registered("uw", "q(X) :- uw.course(Y, X)")
        assert not server.registered("mit", "q(T) :- uw.course(I, T)")

    def test_rewritings_shared_across_registrations(self):
        pdms = chain_pdms_small()
        server = ViewServer(DistributedExecutor(pdms))
        server.register("uw", "q(T) :- uw.course(I, T)")
        materialized = server.stats.rewritings_materialized
        # berkeley's query reformulates to the same stored relations; the
        # shared rewritings must not be materialized a second time.
        server.register("berkeley", "q(T) :- berkeley.course(I, T)")
        assert server.stats.rewritings_materialized == materialized

    def test_registration_charges_remote_fetch_round_trips(self):
        pdms = chain_pdms_small()
        network = SimulatedNetwork()
        server = ViewServer(DistributedExecutor(pdms, network))
        server.register("uw", "q(T) :- uw.course(I, T)")
        # berkeley!c and mit!c are remote: one request/response pair each.
        assert server.stats.messages == 4
        assert network.messages_of_kind("request") == 2

    def test_unregister_drops_unreferenced_views(self):
        pdms = chain_pdms_small()
        server = ViewServer(DistributedExecutor(pdms))
        server.register("uw", "q(T) :- uw.course(I, T)")
        server.register("berkeley", "q(T) :- berkeley.course(I, T)")
        assert server.unregister("uw", "q(T) :- uw.course(I, T)")
        assert not server.registered("uw", "q(T) :- uw.course(I, T)")
        # berkeley's registration still serves, and still updates.
        pdms.apply_updategram("mit", Updategram().insert("c", [(9, "PL")]))
        served = server.serve("q(T) :- berkeley.course(I, T)", "berkeley")
        assert served == server.serve_brute_force(
            "q(T) :- berkeley.course(I, T)", "berkeley"
        ).answers
        assert server.unregister("berkeley", "q(T) :- berkeley.course(I, T)")
        assert not server._views  # nothing referenced anymore
        assert not server.unregister("berkeley", "q(T) :- berkeley.course(I, T)")


class TestServing:
    def test_executor_views_path_zero_cost(self):
        pdms = chain_pdms_small()
        executor = DistributedExecutor(pdms)
        server = ViewServer(executor)
        query = "q(T) :- uw.course(I, T)"
        server.register("uw", query)
        baseline = server.serve_brute_force(query, "uw")
        stats = executor.execute(query, "uw", views=server)
        assert stats.answers == baseline.answers == {("DB",), ("OS",), ("AI",)}
        assert stats.view_hits == 1
        assert stats.messages == 0 and stats.peers_contacted == 0

    def test_unregistered_query_falls_through(self):
        pdms = chain_pdms_small()
        executor = DistributedExecutor(pdms)
        server = ViewServer(executor)
        server.register("uw", "q(T) :- uw.course(I, T)")
        stats = executor.execute("q(I) :- uw.course(I, T)", "uw", views=server)
        assert stats.answers == {(1,), (2,), (3,)}
        assert stats.view_hits == 0
        assert server.stats.misses == 1

    def test_served_stays_fresh_under_updategrams(self):
        pdms = chain_pdms_small()
        server = ViewServer(DistributedExecutor(pdms))
        query = "q(T) :- uw.course(I, T)"
        server.register("uw", query)
        pdms.apply_updategram(
            "mit", Updategram().insert("c", [(4, "ML")]).delete("c", [(3, "AI")])
        )
        assert server.serve(query, "uw") == {("DB",), ("OS",), ("ML",)}

    def test_out_of_band_mutation_refused_and_fallback_is_fresh(self):
        pdms = chain_pdms_small()
        executor = DistributedExecutor(pdms)
        server = ViewServer(executor)
        query = "q(T) :- uw.course(I, T)"
        server.register("uw", query)
        assert server.serve(query, "uw") is not None
        pdms.peers["mit"].insert("c", [(7, "Crypto")])  # bypasses the pipeline
        assert server.serve(query, "uw") is None
        assert server.stats.stale_refusals == 1
        stats = executor.execute(query, "uw", views=server)
        assert ("Crypto",) in stats.answers  # fell back to the full path

    def test_updategram_to_unknown_relation_raises(self):
        pdms = chain_pdms_small()
        with pytest.raises(PdmsError):
            pdms.apply_updategram("uw", Updategram().insert("nope", [(1,)]))

    def test_overlapping_insert_delete_gram_serves_insert_wins(self):
        # Peer.apply_updategram deletes then inserts (insert wins); the
        # counting view must agree even when maintain() goes incremental.
        pdms = chain_pdms_small()
        pdms.peers["uw"].insert("c", [(i + 10, f"T{i}") for i in range(9)])
        server = ViewServer(DistributedExecutor(pdms))
        query = "q(T) :- uw.course(I, T)"
        server.register("uw", query)
        pdms.apply_updategram(
            "uw", Updategram().insert("c", [(1, "DB")]).delete("c", [(1, "DB")])
        )
        served = server.serve(query, "uw")
        assert ("DB",) in served  # the row survives on the peer...
        assert (1, "DB") in pdms.peers["uw"].data["c"]  # ...and in the data
        assert served == server.serve_brute_force(query, "uw").answers
        assert server.stats.incremental_choices >= 1

    def test_later_gram_does_not_heal_out_of_band_staleness(self):
        # Regression: an updategram arriving AFTER an out-of-band
        # mutation must not quietly mark the owner fresh again — the
        # bypassed rows were never folded into the views.  The server
        # re-reads the owner's relations instead.
        pdms = chain_pdms_small()
        server = ViewServer(DistributedExecutor(pdms))
        query = "q(T) :- uw.course(I, T)"
        server.register("uw", query)
        pdms.peers["mit"].insert("c", [(7, "Crypto")])  # bypasses the pipeline
        pdms.apply_updategram("mit", Updategram().insert("c", [(8, "PL")]))
        served = server.serve(query, "uw")
        assert served is not None
        assert ("Crypto",) in served and ("PL",) in served
        assert served == server.serve_brute_force(query, "uw").answers
        assert server.stats.resyncs == 1 and server.stats.views_resynced >= 1

    def test_no_op_gram_after_out_of_band_still_resyncs(self):
        pdms = chain_pdms_small()
        server = ViewServer(DistributedExecutor(pdms))
        query = "q(T) :- uw.course(I, T)"
        server.register("uw", query)
        pdms.peers["mit"].insert("c", [(7, "Crypto")])
        # The gram changes nothing (row already present), but its
        # epoch_before still betrays the bypassed mutation.
        pdms.apply_updategram("mit", Updategram().insert("c", [(7, "Crypto")]))
        served = server.serve(query, "uw")
        assert served == server.serve_brute_force(query, "uw").answers
        assert ("Crypto",) in served

    def test_registration_after_out_of_band_resyncs_older_views(self):
        pdms = chain_pdms_small()
        server = ViewServer(DistributedExecutor(pdms))
        query = "q(T) :- uw.course(I, T)"
        server.register("uw", query)
        pdms.peers["mit"].insert("c", [(7, "Crypto")])
        # Registering another query over the same owner repairs the
        # older views too (one shared epoch per owner).
        server.register("berkeley", "q(T) :- berkeley.course(I, T)")
        served = server.serve(query, "uw")
        assert served == server.serve_brute_force(query, "uw").answers
        assert ("Crypto",) in served

    def test_topology_change_triggers_reregistration(self):
        pdms = chain_pdms_small()
        executor = DistributedExecutor(pdms)
        server = ViewServer(executor)
        query = "q(T) :- uw.course(I, T)"
        server.register("uw", query)
        assert server.serve(query, "uw") == {("DB",), ("OS",), ("AI",)}
        # A new peer joins the coalition after registration.
        cmu = pdms.add_peer("cmu")
        cmu.add_relation("course", ["id", "title"])
        cmu.add_stored("c", ["id", "title"])
        pdms.add_storage("cmu", "c", "cmu.course")
        cmu.insert("c", [(4, "Robotics")])
        pdms.add_mapping(
            "m_c", "m(I, T) :- mit.course(I, T)", "m(I, T) :- cmu.course(I, T)",
            exact=True,
        )
        served = executor.execute(query, "uw", views=server)
        assert ("Robotics",) in served.answers
        assert served.answers == server.serve_brute_force(query, "uw").answers
        assert server.stats.reregistrations == 1
        # Settled: the next serve is a plain hit, no second re-register.
        assert server.serve(query, "uw") == served.answers
        assert server.stats.reregistrations == 1

    def test_close_detaches_from_the_pipeline(self):
        pdms = chain_pdms_small()
        server = ViewServer(DistributedExecutor(pdms))
        query = "q(T) :- uw.course(I, T)"
        server.register("uw", query)
        server.close()
        pdms.apply_updategram("mit", Updategram().insert("c", [(9, "PL")]))
        assert server.stats.updategrams == 0  # no longer listening
        assert server.serve(query, "uw") is None  # state dropped
        assert not pdms.unsubscribe_updates(server._on_updategram)  # already gone


class TestSubscriptionRouting:
    def build(self):
        pdms = chain_pdms_small()
        # A second stored relation at mit that no registered view mentions.
        pdms.peers["mit"].add_stored("staff", ["name"])
        pdms.add_storage("mit", "staff", "mit.staff")
        network = SimulatedNetwork()
        server = ViewServer(DistributedExecutor(pdms, network))
        server.register("uw", "q(T) :- uw.course(I, T)")
        return pdms, network, server

    def test_untouched_relation_does_no_work(self):
        pdms, network, server = self.build()
        network.reset()
        maintained = server.stats.views_maintained
        pdms.apply_updategram("mit", Updategram().insert("staff", [("ada",)]))
        assert server.stats.views_maintained == maintained
        assert server.stats.views_skipped >= len(server._views)
        assert network.message_count == 0  # nothing propagated
        assert server.stats.per_gram_round_trips[-1] == 0
        # ...and the served answer is still fresh (nothing it reads changed).
        assert server.serve("q(T) :- uw.course(I, T)", "uw") is not None

    def test_one_round_trip_per_subscriber_peer_per_gram(self):
        pdms, network, server = self.build()
        # Two registrations at uw reading mit!c; berkeley reads it too.
        server.register("uw", "q(I, T) :- uw.course(I, T)")
        server.register("berkeley", "q(T) :- berkeley.course(I, T)")
        network.reset()
        pdms.apply_updategram(
            "mit", Updategram().insert("c", [(8, "DBx"), (9, "OSx")])
        )
        # All of uw's affected views share ONE round trip; berkeley gets one.
        assert server.stats.per_gram_round_trips[-1] == 2
        assert network.messages_of_kind("update") == 2
        assert network.messages_of_kind("update-ack") == 2

    def test_local_subscriber_not_charged(self):
        pdms, network, server = self.build()
        network.reset()
        pdms.apply_updategram("uw", Updategram().insert("c", [(5, "HCI")]))
        # uw's own views see the local mutation for free.
        assert network.messages_of_kind("update") == 0
        assert server.serve("q(T) :- uw.course(I, T)", "uw") == {
            ("DB",), ("OS",), ("AI",), ("HCI",),
        }


class TestStaleViewRegression:
    """Satellite: the executor must never serve a frozen snapshot."""

    def test_materialize_mutate_execute_is_fresh(self):
        pdms = chain_pdms_small()
        executor = DistributedExecutor(pdms)
        query = "q(T) :- uw.course(I, T)"
        for rewriting in pdms.reformulate(query).rewritings:
            executor.materialize("uw", rewriting)
        cached = executor.execute(query, "uw")
        assert cached.view_hits > 0  # views served while fresh
        pdms.apply_updategram("mit", Updategram().insert("c", [(6, "Logic")]))
        fresh = executor.execute(query, "uw")
        assert fresh.view_hits == 0  # stale views refused, not served
        assert ("Logic",) in fresh.answers

    def test_direct_peer_insert_also_staleness(self):
        pdms = chain_pdms_small()
        executor = DistributedExecutor(pdms)
        query = pdms.query("q(T) :- uw.course(I, T)")
        executor.materialize("uw", query)
        assert executor.view_for("uw", query) is not None
        pdms.peers["berkeley"].insert("c", [(11, "Graphics")])
        assert executor.view_for("uw", query) is None
        assert ("Graphics",) in executor.execute(query, "uw").answers

    def test_brute_force_executor_also_refuses(self):
        pdms = chain_pdms_small()
        executor = DistributedExecutor(pdms)
        query = "q(T) :- uw.course(I, T)"
        executor.materialize("uw", query)
        pdms.apply_updategram("uw", Updategram().delete("c", [(1, "DB")]))
        stats = executor.execute_brute_force(query, "uw")
        assert ("DB",) not in stats.answers


class TestSelfJoinAndMultiDerivation:
    def test_self_join_view_parity(self):
        pdms = edge_pdms()
        server = ViewServer(DistributedExecutor(pdms))
        query = "q(X, Z) :- g.edge(X, Y), g.edge(Y, Z)"
        server.register("g", query)
        rng = random.Random(5)
        for _ in range(30):
            row = (rng.randrange(5), rng.randrange(5))
            if rng.random() < 0.55:
                gram = Updategram().insert("e", [row])
            else:
                gram = Updategram().delete("e", [row])
            pdms.apply_updategram("g", gram)
            assert server.serve(query, "g") == server.serve_brute_force(
                query, "g"
            ).answers

    def test_multi_derivation_delete(self):
        pdms = edge_pdms()
        server = ViewServer(DistributedExecutor(pdms))
        query = "q(X) :- g.edge(X, Y)"
        server.register("g", query)
        pdms.apply_updategram("g", Updategram().insert("e", [(1, 9)]))
        # (1,) now has two derivations: (1, 2) and (1, 9).
        pdms.apply_updategram("g", Updategram().delete("e", [(1, 2)]))
        assert (1,) in server.serve(query, "g")  # survives via (1, 9)
        pdms.apply_updategram("g", Updategram().delete("e", [(1, 9)]))
        served = server.serve(query, "g")
        assert (1,) not in served
        assert served == server.serve_brute_force(query, "g").answers


class TestInterleavedStreamParity:
    """The acceptance property, on a generated multi-peer network."""

    def test_randomized_interleaved_query_update_stream(self):
        pdms = random_tree_pdms(5, seed=3, courses=3, extra_edges=2)
        golds = pdms.generator_info["golds"]
        executor = DistributedExecutor(pdms)
        server = ViewServer(executor)
        queries = []
        for peer_name, relation in [
            ("p0", "course"), ("p2", "course"), ("p3", "instructor"), ("p4", "ta"),
        ]:
            renamed = golds[peer_name][relation]
            arity = len(pdms.peers[peer_name].schema[renamed])
            head = ", ".join(f"V{i}" for i in range(arity))
            query = f"q({head}) :- {peer_name}.{renamed}({head})"
            server.register(peer_name, query)
            queries.append((peer_name, query))
        stream = update_stream(
            pdms, 12, seed=21, inserts_per_relation=2, deletes_per_relation=2
        )
        rng = random.Random(77)
        for owner, gram in stream:
            pdms.apply_updategram(owner, gram)
            for peer_name, query in rng.sample(queries, 2):
                served = executor.execute(query, peer_name, views=server)
                brute = server.serve_brute_force(query, peer_name)
                assert served.answers == brute.answers
                assert served.view_hits == 1
        # After the whole stream every registration is still exact.
        for peer_name, query in queries:
            assert (
                server.serve(query, peer_name)
                == server.serve_brute_force(query, peer_name).answers
            )
        assert server.stats.stale_refusals == 0


def union_pdms() -> PDMS:
    """The course chain plus the edge peer: projections with several
    derivations per answer, a self-join, and one peer per view group."""
    pdms = chain_pdms_small()
    peer = pdms.add_peer("g")
    peer.add_relation("edge", ["src", "dst"])
    peer.add_stored("e", ["src", "dst"])
    pdms.add_storage("g", "e", "g.edge")
    peer.insert("e", [(1, 2), (2, 3)])
    return pdms


UNION_QUERIES = [
    ("uw", "q(T) :- uw.course(I, T)"),
    ("uw", "q(I) :- uw.course(I, T)"),
    ("berkeley", "q(T) :- berkeley.course(I, T)"),
    ("mit", "q(I, T) :- mit.course(I, T)"),
    ("g", "q(X) :- g.edge(X, Y)"),
    ("g", "q(X, Z) :- g.edge(X, Y), g.edge(Y, Z)"),
]
# Small domains, so grams delete live rows and answers have several
# derivations (several views, or several rows per view).
ROWS = st.lists(st.integers(0, 15), max_size=3)
UNION_STEPS = st.one_of(
    st.tuples(st.just("register"), st.integers(0, len(UNION_QUERIES) - 1)),
    st.tuples(st.just("unregister"), st.integers(0, len(UNION_QUERIES) - 1)),
    st.tuples(st.just("gram"), st.integers(0, 7), ROWS, ROWS),
    st.tuples(st.just("oob_then_gram"), st.integers(0, 7), ROWS, ROWS),
    st.tuples(
        st.just("oob_then_register"), st.integers(0, 7), ROWS,
        st.integers(0, len(UNION_QUERIES) - 1),
    ),
    st.tuples(st.just("add_mapping"), ROWS),
)


def _rows(owner: str, picks: list) -> list:
    """Deterministic rows of ``owner``'s stored relation from small ints."""
    if owner == "g":
        return [(pick % 4, pick // 4 % 4) for pick in picks]
    return [(pick % 5, ("DB", "OS", "AI")[pick % 3]) for pick in picks]


class TestSupportCountedUnion:
    """``serve`` returns a union kept at write time; it must equal a
    from-scratch union of the views and the brute-force re-answer."""

    @staticmethod
    def check(server, stale_owners):
        for registration in server.registrations():
            peer, query = registration.peer, registration.query
            served = server.serve(query, peer)
            if served is None:  # refused: only for a bypassed owner
                assert registration.owners & stale_owners
                continue
            registration = server._registrations[(peer,) + query.canonical()]
            rebuilt = set().union(
                *(server._views[vkey].tuples() for vkey in registration.view_keys)
            )
            assert served == rebuilt
            assert served == server.serve_brute_force(query, peer).answers

    @given(st.lists(UNION_STEPS, max_size=14))
    @settings(max_examples=60, deadline=None)
    def test_union_equals_rebuild_and_brute_force(self, steps):
        pdms = union_pdms()
        server = ViewServer(DistributedExecutor(pdms))
        owners = ["uw", "berkeley", "mit", "g"]
        stale_owners: set = set()  # owners mutated out of band, not yet repaired
        server.register(*UNION_QUERIES[0])
        server.register(*UNION_QUERIES[5])
        self.check(server, stale_owners)
        for step in steps:
            kind = step[0]
            if kind == "register":
                server.register(*UNION_QUERIES[step[1]])
            elif kind == "unregister":
                server.unregister(*UNION_QUERIES[step[1]])
            elif kind in ("gram", "oob_then_gram"):
                owner = owners[step[1] % len(owners)]
                relation = "e" if owner == "g" else "c"
                if kind == "oob_then_gram":
                    pdms.peers[owner].insert(relation, _rows(owner, step[2][:1]))
                pdms.apply_updategram(
                    owner,
                    Updategram()
                    .insert(relation, _rows(owner, step[2]))
                    .delete(relation, _rows(owner, step[3])),
                )
                stale_owners.discard(owner)
            elif kind == "oob_then_register":
                owner = owners[step[1] % len(owners)]
                relation = "e" if owner == "g" else "c"
                pdms.peers[owner].insert(relation, _rows(owner, step[2]))
                stale_owners.add(owner)
                server.register(*UNION_QUERIES[step[3]])
            elif len(owners) < 6:  # add_mapping: a new peer joins the chain
                name = f"x{len(owners)}"
                peer = pdms.add_peer(name)
                peer.add_relation("course", ["id", "title"])
                peer.add_stored("c", ["id", "title"])
                pdms.add_storage(name, "c", f"{name}.course")
                peer.insert("c", _rows(name, step[1]))
                pdms.add_mapping(
                    f"m_{name}", "m(I, T) :- mit.course(I, T)",
                    f"m(I, T) :- {name}.course(I, T)", exact=True,
                )
                owners.append(name)
            self.check(server, stale_owners)
        # A gram to each bypassed owner repairs it: everything serves again.
        for owner in sorted(stale_owners):
            relation = "e" if owner == "g" else "c"
            pdms.apply_updategram(owner, Updategram().insert(relation, _rows(owner, [0])))
        self.check(server, set())

    def test_serve_reads_no_view(self, monkeypatch):
        pdms = union_pdms()
        server = ViewServer(DistributedExecutor(pdms))
        for peer, query in UNION_QUERIES:
            server.register(peer, query)
        pdms.apply_updategram("mit", Updategram().insert("c", [(4, "ML")]))
        calls = []
        tuples = IncrementalView.tuples

        def counted(view):
            calls.append(view)
            return tuples(view)

        monkeypatch.setattr(IncrementalView, "tuples", counted)
        for peer, query in UNION_QUERIES:
            assert server.serve(query, peer) is not None
        assert calls == []

    def test_mutating_served_answers_leaves_the_server_intact(self):
        pdms = chain_pdms_small()
        executor = DistributedExecutor(pdms)
        server = ViewServer(executor)
        query = "q(T) :- uw.course(I, T)"
        server.register("uw", query)
        first = server.serve(query, "uw")
        first.clear()
        executor.execute(query, "uw", views=server).answers.add(("Forged",))
        assert server.serve(query, "uw") == {("DB",), ("OS",), ("AI",)}


class TestUpdateStreamGenerator:
    def test_deterministic_and_valid(self):
        pdms = random_tree_pdms(4, seed=3, courses=3)
        before = {
            name: {rel: set(rows) for rel, rows in peer.data.items()}
            for name, peer in pdms.peers.items()
        }
        first = update_stream(pdms, 10, seed=9)
        second = update_stream(pdms, 10, seed=9)
        assert [(n, g.inserts, g.deletes) for n, g in first] == [
            (n, g.inserts, g.deletes) for n, g in second
        ]
        assert update_stream(pdms, 10, seed=10) != first  # seed matters
        # The generator never mutates the source network.
        after = {
            name: {rel: set(rows) for rel, rows in peer.data.items()}
            for name, peer in pdms.peers.items()
        }
        assert after == before

    def test_deletes_hit_live_rows_when_applied_in_order(self):
        pdms = random_tree_pdms(4, seed=3, courses=3)
        stream = update_stream(
            pdms, 15, seed=4, inserts_per_relation=1, deletes_per_relation=2
        )
        removed_total = 0
        for owner, gram in stream:
            for relation, rows in gram.deletes.items():
                live = pdms.peers[owner].data.get(relation, set())
                assert rows <= live  # every delete targets an existing row
                removed_total += len(rows)
            pdms.apply_updategram(owner, gram)
        assert removed_total > 0

    def test_arity_matches_stored_schema(self):
        pdms = random_tree_pdms(3, seed=6, courses=3)
        for owner, gram in update_stream(pdms, 8, seed=2):
            for relation, rows in list(gram.inserts.items()) + list(
                gram.deletes.items()
            ):
                arity = len(pdms.peers[owner].stored[relation])
                assert all(len(row) == arity for row in rows)
