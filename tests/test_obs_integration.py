"""Integration tests: the observability layer wired through the stack.

The headline guarantee from ISSUE 6: one served continuous query
yields **one** span tree covering reformulation, per-peer execution
round trips, and view maintenance decisions — with the same events
mirrored into the shared metrics registry.  Also pinned here:

* ``SimulatedNetwork.reset()`` clears traffic (message log, latency
  total, per-kind counts) but keeps the cost model (latency matrix,
  per-tuple cost) — and never touches the shared registry;
* ``PDMS.reformulate`` keeps ``index_hits`` / ``rules_skipped`` on the
  result object (existing consumers) while mirroring them into
  ``reformulate.*`` counters;
* the batched and brute-force executors bill the same messages at the
  network's per-message cost, one ``execute.round_trip_ms`` observation
  per round trip, under any runtime;
* cache hit/miss/eviction counters flow from the search layer into the
  same registry.
"""

import pytest

from repro.obs import Observability
from repro.piazza import (
    DistributedExecutor,
    PDMS,
    SimulatedNetwork,
    Updategram,
    ViewServer,
)
from repro.runtime import SerialRuntime, ThreadPoolRuntime
from repro.search.cache import LRUQueryCache


def chain_pdms(obs=None) -> PDMS:
    """uw <-> berkeley <-> mit, one stored course relation each."""
    pdms = PDMS(obs=obs)
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


class TestServedQuerySpanTree:
    def test_one_tree_covers_reformulation_fetches_and_maintenance(self):
        obs = Observability(tracing=True)
        pdms = chain_pdms(obs)
        executor = DistributedExecutor(pdms)
        server = ViewServer(executor)
        query = "q(T) :- uw.course(I, T)"

        with obs.tracer.span("continuous-query.lifecycle") as root:
            server.register("uw", query)
            pdms.apply_updategram("mit", Updategram().insert("c", [(9, "PL")]))
            stats = executor.execute(query, "uw", views=server)

        assert stats.view_hits == 1
        assert frozenset(stats.answers) == frozenset(
            {("DB",), ("OS",), ("AI",), ("PL",)}
        )
        names = root.names()
        # Registration: reformulate once, fetch per remote peer.
        assert "serving.register" in names
        assert "pdms.reformulate" in names
        assert "execute.fetch" in names
        # The updategram: subscription-routed maintenance decisions.
        assert "serving.updategram" in names
        assert "serving.maintain" in names
        # The served read: an execute span annotated as view-served.
        assert "pdms.execute" in names
        served = root.find("pdms.execute")
        assert served.attrs.get("served_from") == "continuous-view"
        # Nesting follows the call stack: the reformulation and fetches
        # are inside the registration, not siblings of it.
        register_span = root.find("serving.register")
        assert register_span.find("pdms.reformulate") is not None
        assert register_span.find("execute.fetch") is not None
        maintain = root.find("serving.maintain")
        assert maintain.attrs.get("strategy") in ("incremental", "recompute")
        # The same run filled the registry's latency distributions.
        assert obs.metrics.histogram("reformulate.ms").count >= 1
        assert obs.metrics.histogram("serving.updategram_ms").count >= 1
        assert obs.metrics.counter("serving.queries_served").value == 1
        # And explain() reports both halves without raising.
        report = obs.explain()
        assert "serving:" in report and "last trace:" in report

    def test_exception_inside_execute_closes_spans(self):
        obs = Observability(tracing=True)
        pdms = chain_pdms(obs)
        executor = DistributedExecutor(pdms)
        with pytest.raises(Exception):
            executor.execute("q(T) :- uw.course(I, T", "uw")  # malformed
        assert obs.tracer.current() is None  # stack fully unwound


class TestReformulateMetrics:
    def test_result_fields_survive_and_registry_mirrors(self):
        obs = Observability()
        pdms = chain_pdms(obs)
        pdms.mapping_index()
        result = pdms.reformulate("q(T) :- uw.course(I, T)")
        # Existing consumers keep reading the result object...
        assert result.index_hits >= 1
        assert result.rules_skipped >= 0
        # ...and the registry aggregates the same signals.
        metrics = obs.metrics
        assert metrics.counter("reformulate.calls").value == 1
        assert metrics.counter("reformulate.index_hits").value == result.index_hits
        assert (
            metrics.counter("reformulate.rules_skipped").value
            == result.rules_skipped
        )
        assert metrics.histogram("reformulate.ms").count == 1
        assert metrics.histogram("reformulate.rewritings").count == 1

    def test_obs_swappable_after_construction(self):
        # reformulate resolves metrics by name per call, so a bench can
        # attach its own Observability to an already-built PDMS.
        pdms = chain_pdms()
        isolated = Observability()
        pdms.obs = isolated
        pdms.reformulate("q(T) :- uw.course(I, T)")
        assert isolated.metrics.counter("reformulate.calls").value == 1


class TestNetworkResetSemantics:
    def test_reset_clears_traffic_keeps_cost_model(self):
        obs = Observability()
        network = SimulatedNetwork(obs=obs)
        network.set_latency("a", "b", 77.0)
        network.send("a", "b", 5, kind="request")
        network.send("b", "a", 3, kind="response")
        network.send("a", "b", 2, kind="request")
        assert network.messages_of_kind("request") == 2
        assert network.messages_of_kind("response") == 1
        assert network.message_count == 3
        assert network.total_latency_ms > 0

        network.reset()

        # Traffic cleared...
        assert network.message_count == 0
        assert network.total_latency_ms == 0.0
        assert network.kind_counts == {}
        assert network.messages_of_kind("request") == 0
        # ...cost model (configuration) kept...
        assert network.latency("a", "b") == 77.0
        assert network.default_latency_ms == 20.0
        # ...and the shared registry aggregates across the reset.
        assert obs.metrics.counter("network.messages.request").value == 2
        network.send("a", "b", 1, kind="request")
        assert network.messages_of_kind("request") == 1
        assert obs.metrics.counter("network.messages.request").value == 3

    def test_kind_counts_match_message_log(self):
        network = SimulatedNetwork(obs=Observability())
        network.send("a", "b", 1, kind="update")
        network.round_trip("a", "b", 4, kind="update")
        from collections import Counter as TallyCounter

        log_tally = TallyCounter(message.kind for message in network.messages)
        assert network.kind_counts == dict(log_tally)


class TestChargeFetchParity:
    @pytest.mark.parametrize(
        "make_runtime",
        [SerialRuntime, lambda obs: ThreadPoolRuntime(4, obs=obs)],
        ids=["SerialRuntime", "ThreadPoolRuntime-4"],
    )
    def test_batched_and_brute_share_the_cost_model(self, make_runtime):
        # Both executors bill the same messages at the network's
        # per-message cost; on a single-relation query they fetch the
        # same payloads, so messages agree exactly and so does latency
        # until a pool overlaps the batch (batching only wins when a
        # peer serves several relations — pinned at scale by C11c).
        obs = Observability()
        pdms = chain_pdms(obs)
        pdms.mapping_index()
        query = "q(T) :- uw.course(I, T)"
        with make_runtime(obs=obs) as runtime:
            executor = DistributedExecutor(pdms, runtime=runtime)
            scaled = executor.execute(query, "uw")
            brute = executor.execute_brute_force(query, "uw")
        assert scaled.answers == brute.answers
        assert scaled.messages == brute.messages
        if runtime.workers == 1:
            assert scaled.latency_ms == brute.latency_ms
        else:
            assert scaled.latency_ms < brute.latency_ms
        assert scaled.tuples_shipped == brute.tuples_shipped
        metrics = obs.metrics
        assert metrics.counter("execute.round_trips").value == (
            scaled.messages + brute.messages
        ) // 2
        # One observation per round trip (its own cost, not the batch's
        # makespan), whichever executor and runtime billed it.
        histogram = metrics.histogram("execute.round_trip_ms")
        assert histogram.count == metrics.counter("execute.round_trips").value
        assert histogram.total == pytest.approx(2 * brute.latency_ms)


class TestCacheCounters:
    def test_hits_misses_evictions_mirror_into_registry(self):
        obs = Observability()
        cache = LRUQueryCache(capacity=2, obs=obs, name="test.cache")
        cache.put("a", 1, "A")
        cache.put("b", 1, "B")
        assert cache.get("a", 1) == "A"  # hit
        assert cache.get("zzz", 1) is None  # miss
        assert cache.get("b", 2) is None  # epoch mismatch -> miss + drop
        cache.put("c", 1, "C")
        cache.put("d", 1, "D")  # capacity 2 -> evicts
        assert cache.hits == 1 and cache.misses == 2
        assert cache.evictions == 1
        metrics = obs.metrics
        assert metrics.counter("test.cache.hits").value == 1
        assert metrics.counter("test.cache.misses").value == 2
        assert metrics.counter("test.cache.evictions").value == 1
