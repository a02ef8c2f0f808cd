"""Battery for the fan-out sites' runtime and modeled concurrency.

Every fan-out site has one code path — tasks through
:class:`~repro.runtime.SerialRuntime`'s ``map``, mutation after the
batch — and concurrency is a modeled ``workers`` count, not threads.
Four layers pin that:

* **Runtime contract** — ``map`` is in item order, the first failing
  item's exception propagates, and a failed batch accounts nothing.
* **Site parity** — the fan-out sites (distributed execution, corpus
  matching, view serving) produce answers, counters and traffic
  identical across modeled worker counts and runs; only the modeled
  latency may differ, it is the serial sum at one worker, and it only
  goes down with more workers.
* **Batch accounting** — ``schedule_makespan`` /
  ``concurrent_round_trips`` charge the makespan over the worker count
  (exactly the serial sum for one) while recording the traffic
  ``send`` would.
* **Obs thread safety** — callers tracing from threads of their own:
  hammered counters/histograms/tracers keep exact totals and
  well-formed per-thread span trees.
"""

import dataclasses
import functools
import operator
import random
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs as _obs
from repro.corpus.match import CorpusMatchPipeline
from repro.corpus.match.learners import samples_of
from repro.corpus.match.lsd import default_learners
from repro.corpus.match.meta import MetaLearner
from repro.corpus.model import Corpus
from repro.datasets.pdms_gen import (
    random_tree_pdms,
    synthetic_matching_workload,
    update_stream,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.piazza import DistributedExecutor, SimulatedNetwork, ViewServer
from repro.piazza.network import schedule_makespan
from repro.runtime import SerialRuntime
from repro.search.cache import LRUQueryCache

WORKER_COUNTS = (1, 2, 4, 8)


def _square(value):
    return value * value


def _fail_on_negative(value):
    if value < 0:
        raise ValueError(f"bad item {value}")
    return value


def _left_to_right(costs):
    # Not sum(): 3.12+ compensates float sums, a serial loop does not.
    return functools.reduce(operator.add, costs, 0.0)


def _log(network):
    return [(m.sender, m.receiver, m.size, m.kind) for m in network.messages]


# -- the runtime contract ----------------------------------------------------


class TestRuntimeContract:
    def test_serial_is_inline_and_ordered(self):
        runtime = SerialRuntime()
        assert runtime.map(_square, range(7)) == [v * v for v in range(7)]

    def test_earliest_submitted_failure_wins(self):
        # Items -3 and -7 both fail: the first failing item's exception
        # propagates, and the failed batch accounts nothing.
        obs = _obs.Observability()
        runtime = SerialRuntime(obs=obs)
        with pytest.raises(ValueError, match="bad item -3"):
            runtime.map(_fail_on_negative, [1, 2, -3, 4, -7, 5])
        assert obs.metrics.get("runtime.tasks").value == 0
        assert obs.metrics.get("runtime.batches").value == 0

    def test_map_accounts_runtime_metrics(self):
        obs = _obs.Observability()
        SerialRuntime(obs=obs).map(_square, range(5))
        assert obs.metrics.get("runtime.tasks").value == 5
        assert obs.metrics.get("runtime.batches").value == 1
        assert obs.metrics.get("runtime.batch.ms").count == 1
        assert "runtime.workers" not in obs.metrics


# -- batch network accounting --------------------------------------------------


class TestOverlappedAccounting:
    def test_makespan_unbounded_workers_is_max(self):
        assert schedule_makespan([3.0, 9.0, 4.0]) == 9.0
        assert schedule_makespan([3.0, 9.0, 4.0], workers=None) == 9.0
        assert schedule_makespan([3.0, 9.0, 4.0], workers=7) == 9.0

    @given(costs=st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_makespan_one_worker_is_serial_sum(self, costs):
        # Exactly (==, not approx) the left-to-right sum a serial loop
        # would have accumulated — the latency half of "serial is
        # workers=1, not a code path".
        assert schedule_makespan(costs, workers=1) == _left_to_right(costs)

    def test_makespan_two_workers_greedy_assignment(self):
        # Arrival order 5,4,3,2: worker A takes 5 then 2 (=7), worker B
        # takes 4 then 3 (=7) — makespan 7 (earliest-free assignment).
        assert schedule_makespan([5.0, 4.0, 3.0, 2.0], workers=2) == 7.0

    def test_makespan_empty_is_zero(self):
        assert schedule_makespan([]) == 0.0
        assert schedule_makespan([], workers=3) == 0.0

    @given(
        costs=st.lists(
            st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=20
        ),
        workers=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_makespan_bounds(self, costs, workers):
        # Any schedule is bounded below by the longest single task and
        # above by the serial sum; more workers never makes it slower.
        makespan = schedule_makespan(costs, workers=workers)
        assert makespan <= sum(costs) + 1e-9
        assert makespan >= max(costs) - 1e-9
        fewer = schedule_makespan(costs, workers=max(1, workers - 1))
        assert makespan <= fewer + 1e-9

    @staticmethod
    def _trips():
        return [
            (("a", "b", 1, "request"), ("b", "a", 5, "response")),
            (("a", "c", 1, "request"), ("c", "a", 9, "response")),
            (("a", "d", 1, "request"), ("d", "a", 2, "response")),
        ]

    @staticmethod
    def _heterogeneous_network():
        network = SimulatedNetwork()
        network.randomize_latencies(["a", "b", "c", "d"], seed=5, low=1.0, high=50.0)
        return network

    def test_concurrent_trips_charge_makespan_not_sum(self):
        overlapped = self._heterogeneous_network()
        serial = self._heterogeneous_network()
        per_trip = []
        for trip in self._trips():
            per_trip.append(sum(serial.send(*message) for message in trip))
        overlapped.concurrent_round_trips(self._trips(), workers=None)
        assert overlapped.total_latency_ms == pytest.approx(max(per_trip))
        assert serial.total_latency_ms == pytest.approx(sum(per_trip))

    @given(
        trips=st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from("abcd"),
                    st.sampled_from("abcd"),
                    st.integers(min_value=0, max_value=50),
                    st.sampled_from(["request", "response", "update"]),
                ),
                min_size=1,
                max_size=3,
            ),
            max_size=6,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_concurrent_trips_with_one_worker_match_serial_sum(self, trips):
        # Any batch (local messages included) billed with workers=1 is
        # the same messages sent one by one: same log, kinds, bytes,
        # and the latency total a per-trip serial loop accumulates.
        batched = self._heterogeneous_network()
        serial = self._heterogeneous_network()
        per_trip = [
            _left_to_right(serial.send(*message) for message in trip)
            for trip in trips
        ]
        charged = batched.concurrent_round_trips(trips, workers=1)
        assert _log(batched) == _log(serial)
        assert batched.kind_counts == serial.kind_counts
        assert batched.bytes_shipped == serial.bytes_shipped
        assert charged == batched.total_latency_ms == _left_to_right(per_trip)
        # Approx only here: send() adds message by message, the batch
        # trip by trip, so float association differs in the last ulp.
        assert batched.total_latency_ms == pytest.approx(
            serial.total_latency_ms, rel=1e-12
        )

    def test_traffic_records_identical_in_both_modes(self):
        overlapped = self._heterogeneous_network()
        serial = self._heterogeneous_network()
        for trip in self._trips():
            for message in trip:
                serial.send(*message)
        overlapped.concurrent_round_trips(self._trips(), workers=4)
        assert overlapped.message_count == serial.message_count
        assert overlapped.bytes_shipped == serial.bytes_shipped
        assert overlapped.kind_counts == serial.kind_counts
        assert _log(overlapped) == _log(serial)

    def test_local_messages_stay_free_and_unrecorded(self):
        network = SimulatedNetwork()
        charged = network.concurrent_round_trips(
            [(("a", "a", 10, "request"),)], workers=4
        )
        assert charged == 0.0
        assert network.message_count == 0

    def test_serial_send_unchanged(self):
        network = SimulatedNetwork(default_latency_ms=7.0, per_tuple_ms=0.5)
        cost = network.send("a", "b", 4, "response")
        assert cost == pytest.approx(7.0 + 4 * 0.5)
        assert network.total_latency_ms == pytest.approx(cost)
        assert network.kind_counts == {"response": 1}


# -- distributed execution parity --------------------------------------------


def _executor_workload(peers=24, seed=3):
    pdms = random_tree_pdms(peers, seed=seed, courses=3, dataless_peers=peers // 5)
    gold = pdms.generator_info["golds"]["p0"]
    queries = [
        f"q(?t) :- p0.{gold['course']}(?c, ?t, ?n, ?w, ?l, ?en, ?d)",
        f"q(?t, ?e) :- p0.{gold['course']}(?c, ?t, ?n, ?w, ?l, ?en, ?d), "
        f"p0.{gold['instructor']}(?i, ?n, ?e, ?ph, ?o)",
    ]
    return pdms, queries


def _run_executor(pdms, queries, workers, latency_seed=7):
    network = SimulatedNetwork()
    network.randomize_latencies(sorted(pdms.peers), seed=latency_seed,
                                low=1.0, high=40.0)
    executor = DistributedExecutor(pdms, network, workers=workers)
    stats = [
        executor.execute(query, "p0", {"max_depth": 40}) for query in queries
    ]
    return stats, network


def _stats_sans_latency(stats):
    record = dataclasses.asdict(stats)
    record.pop("latency_ms")
    return record


class TestExecutorParity:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_modeled_workers_match_serial(self, workers):
        pdms, queries = _executor_workload()
        serial_stats, serial_net = _run_executor(pdms, queries, 1)
        modeled_stats, modeled_net = _run_executor(pdms, queries, workers)
        for serial, modeled in zip(serial_stats, modeled_stats):
            assert modeled.answers == serial.answers
            assert _stats_sans_latency(modeled) == _stats_sans_latency(serial)
            # Overlap can only reduce the modeled latency.
            assert modeled.latency_ms <= serial.latency_ms + 1e-6
        assert _log(modeled_net) == _log(serial_net)
        assert modeled_net.bytes_shipped == serial_net.bytes_shipped
        assert modeled_net.kind_counts == serial_net.kind_counts
        if workers == 1:
            # One worker is the serial sum of the round trips.
            assert modeled_net.total_latency_ms == serial_net.total_latency_ms

    def test_seeded_randomized_parity(self):
        rng = random.Random(99)
        for trial in range(3):
            peers = rng.choice([12, 18, 26])
            pdms, queries = _executor_workload(peers=peers, seed=rng.randint(1, 50))
            serial_stats, _ = _run_executor(pdms, queries, 1, latency_seed=trial)
            modeled_stats, _ = _run_executor(pdms, queries, 4, latency_seed=trial)
            for serial, modeled in zip(serial_stats, modeled_stats):
                assert modeled.answers == serial.answers
                assert _stats_sans_latency(modeled) == _stats_sans_latency(serial)

    def test_run_to_run_determinism(self):
        pdms, queries = _executor_workload()
        runs = []
        for _ in range(3):
            stats, network = _run_executor(pdms, queries, 4)
            runs.append(
                (
                    [frozenset(s.answers) for s in stats],
                    [dataclasses.asdict(s) for s in stats],
                    network.kind_counts,
                )
            )
        assert runs[0] == runs[1] == runs[2]

    def test_worker_count_validation(self):
        pdms, _ = _executor_workload(peers=6)
        for workers in (0, -1):
            with pytest.raises(ValueError, match="worker count"):
                DistributedExecutor(pdms, workers=workers)

    def test_worker_fault_leaves_no_partial_accounting(self, monkeypatch):
        pdms, queries = _executor_workload(peers=12)
        serial_stats, _ = _run_executor(pdms, queries, 1)
        real = DistributedExecutor._stored_tuples

        def broken(self, predicate):
            if predicate.startswith("p3!"):
                raise RuntimeError("peer p3 is down")
            return real(self, predicate)

        # The fetches before p3 are not billed when p3 fails.
        for workers in (1, 4):
            network = SimulatedNetwork()
            executor = DistributedExecutor(pdms, network, workers=workers)
            monkeypatch.setattr(DistributedExecutor, "_stored_tuples", broken)
            with pytest.raises(RuntimeError, match="peer p3 is down"):
                executor.execute(queries[0], "p0", {"max_depth": 40})
            # The failure surfaced before any mutation: the network
            # saw nothing and no half-filled stats escaped.
            assert (network.message_count, network.total_latency_ms) == (0, 0.0)
            # The same executor completes the same query once the peer
            # heals, identically to serial.
            monkeypatch.setattr(DistributedExecutor, "_stored_tuples", real)
            recovered = executor.execute(queries[0], "p0", {"max_depth": 40})
            assert recovered.answers == serial_stats[0].answers


# -- corpus matching parity ---------------------------------------------------


def _rows(result):
    return [(c.source, c.target, c.score) for c in result]


def _trained_pipeline(workload, obs=None):
    pipeline = CorpusMatchPipeline(workload.mediated, obs=obs)
    for schema, mapping in workload.training:
        pipeline.add_training_source(schema, mapping)
    return pipeline


def _run_pipeline(workload, blocking=True):
    pipeline = _trained_pipeline(workload)
    results = pipeline.match_corpus(workload.corpus, blocking=blocking)
    return {name: _rows(result) for name, result in results.items()}, pipeline


class TestPipelineParity:
    @pytest.fixture(scope="class")
    def workload(self):
        return synthetic_matching_workload(count=8, seed=3, domains=3)

    def test_match_corpus_is_match_source_per_schema(self, workload):
        corpus_rows, corpus_pipeline = _run_pipeline(workload)
        pipeline = _trained_pipeline(workload)
        per_source = {
            name: _rows(pipeline.match_source(schema))
            for name, schema in workload.corpus.schemas.items()
        }
        assert corpus_rows == per_source
        assert list(corpus_rows) == list(workload.corpus.schemas)
        assert corpus_pipeline.counters == pipeline.counters

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_thread_pool_matches_serial(self, workload, workers):
        # The pipeline runs no threads of its own, but a caller may match
        # sources from a pool of its own threads: the counters lock keeps
        # the totals exact and the rows equal the serial match_corpus.
        serial, serial_pipeline = _run_pipeline(workload)
        pipeline = _trained_pipeline(workload)
        names = list(workload.corpus.schemas)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = pool.map(
                pipeline.match_source,
                [workload.corpus.schemas[name] for name in names],
            )
            pooled = {name: _rows(result) for name, result in zip(names, results)}
        assert pooled == serial
        assert pipeline.counters == serial_pipeline.counters

    def test_blocking_off_parity(self, workload):
        # Unblocked, match_corpus is bitwise the seed per-sample path.
        unblocked, pipeline = _run_pipeline(workload, blocking=False)
        for name, schema in workload.corpus.schemas.items():
            assert unblocked[name] == _rows(pipeline.match_source_brute_force(schema))

    def test_run_to_run_determinism(self, workload):
        runs = []
        for _ in range(3):
            rows, pipeline = _run_pipeline(workload)
            runs.append((rows, pipeline.counters))
        assert runs[0] == runs[1] == runs[2]

    def test_empty_corpus_needs_no_training(self, workload):
        pipeline = CorpusMatchPipeline(workload.mediated)
        assert pipeline.match_corpus(Corpus()) == {}
        # A non-empty one still refuses, with the first source's error.
        with pytest.raises(ValueError, match="no training sources"):
            pipeline.match_corpus(workload.corpus)

    def test_meta_learner_books_only_on_its_own_observability(self, workload):
        # MetaLearner(obs=...) used to score through a SerialRuntime on
        # the process default, booking runtime.tasks there (one per
        # learner) and none on its own registry.
        samples, labels = [], []
        for schema, mapping in workload.training:
            for sample in samples_of(schema):
                if sample.path in mapping:
                    samples.append(sample)
                    labels.append(mapping[sample.path])
        default = _obs.default().metrics
        before = default.snapshot()
        isolated = _obs.Observability()
        meta = MetaLearner(default_learners(), obs=isolated)
        meta.fit(samples, labels)
        meta.predict_batch(samples[:10])
        assert default.snapshot() == before
        assert isolated.metrics.histogram("match.learner.NameLearner.ms").count == 1


# -- view serving parity ------------------------------------------------------


def _run_view_stream(workers, peers=14, seed=5, steps=8, subscribers=6,
                     latency_seed=9):
    pdms = random_tree_pdms(peers, seed=seed, courses=3,
                            dataless_peers=peers // 5)
    gold = pdms.generator_info["golds"]["p0"]
    query = f"q(?t) :- p0.{gold['course']}(?c, ?t, ?n, ?w, ?l, ?en, ?d)"
    network = SimulatedNetwork()
    network.randomize_latencies(sorted(pdms.peers), seed=latency_seed,
                                low=1.0, high=40.0)
    executor = DistributedExecutor(pdms, network, workers=workers)
    server = ViewServer(executor)
    subs = sorted(pdms.peers)[:subscribers]
    for peer in subs:
        server.register(peer, query)
    answers = []
    for owner, gram in update_stream(
        pdms, steps, seed=seed + 1, inserts_per_relation=2,
        deletes_per_relation=1, relations_per_step=2,
    ):
        pdms.apply_updategram(owner, gram)
        for peer in subs:
            served = server.serve(query, peer)
            answers.append(None if served is None else frozenset(served))
    return answers, server, network


class TestViewServerParity:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_modeled_workers_match_serial(self, workers):
        serial_answers, serial_server, serial_net = _run_view_stream(1)
        modeled_answers, modeled_server, modeled_net = _run_view_stream(workers)
        assert modeled_answers == serial_answers
        assert _log(modeled_net) == _log(serial_net)
        assert modeled_net.bytes_shipped == serial_net.bytes_shipped
        assert modeled_net.kind_counts == serial_net.kind_counts
        serial_stats = dataclasses.asdict(serial_server.stats)
        modeled_stats = dataclasses.asdict(modeled_server.stats)
        serial_latency = serial_stats.pop("latency_ms")
        modeled_latency = modeled_stats.pop("latency_ms")
        assert modeled_stats == serial_stats
        # Overlapped propagation can only reduce the modeled latency.
        assert modeled_latency <= serial_latency + 1e-6
        if workers == 1:
            assert modeled_net.total_latency_ms == serial_net.total_latency_ms

    def test_seeded_randomized_parity(self):
        rng = random.Random(17)
        for _ in range(2):
            seed = rng.randint(1, 60)
            serial_answers, _, _ = _run_view_stream(1, seed=seed)
            modeled_answers, _, _ = _run_view_stream(4, seed=seed)
            assert modeled_answers == serial_answers

    def test_run_to_run_determinism(self):
        runs = []
        for _ in range(3):
            answers, server, network = _run_view_stream(4)
            runs.append(
                (answers, dataclasses.asdict(server.stats), network.kind_counts)
            )
        assert runs[0] == runs[1] == runs[2]


# -- obs thread safety --------------------------------------------------------


def _hammer(threads, worker):
    started = threading.Barrier(threads)
    errors = []

    def run(index):
        started.wait()
        try:
            worker(index)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    pool = [threading.Thread(target=run, args=(i,)) for i in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    assert not errors


class TestObsThreadSafety:
    THREADS = 8
    ITERATIONS = 2000

    def test_counter_totals_exact_under_contention(self):
        registry = MetricsRegistry()
        counter = registry.counter("stress.count")

        def worker(_index):
            for _ in range(self.ITERATIONS):
                counter.inc()
                counter.inc(2)

        _hammer(self.THREADS, worker)
        assert counter.value == self.THREADS * self.ITERATIONS * 3

    def test_histogram_totals_exact_under_contention(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("stress.ms")

        def worker(index):
            for step in range(self.ITERATIONS):
                histogram.observe(float(index * self.ITERATIONS + step))

        _hammer(self.THREADS, worker)
        expected = self.THREADS * self.ITERATIONS
        assert histogram.count == expected
        assert sum(histogram.bucket_counts) + histogram.overflow == expected
        assert histogram.total == pytest.approx(sum(range(expected)))

    def test_get_or_create_races_yield_one_instrument(self):
        registry = MetricsRegistry()
        seen = []

        def worker(_index):
            for name in ("race.a", "race.b", "race.c"):
                seen.append(registry.counter(name))

        _hammer(self.THREADS, worker)
        for name in ("race.a", "race.b", "race.c"):
            instances = {id(c) for c in seen if c.name == name}
            assert len(instances) == 1
        assert len(registry) == 3

    def test_gauge_last_write_wins_without_corruption(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("stress.gauge")

        def worker(index):
            for _ in range(self.ITERATIONS):
                gauge.set(float(index))

        _hammer(self.THREADS, worker)
        assert gauge.value in {float(i) for i in range(self.THREADS)}

    def test_tracer_span_trees_stay_per_thread(self):
        tracer = Tracer(enabled=True, max_roots=256)
        depth = 4
        spans_each = 5

        def worker(index):
            for step in range(spans_each):
                with tracer.span(f"outer.{index}.{step}") as outer:
                    for level in range(depth):
                        with tracer.span(f"inner.{index}.{step}.{level}"):
                            pass
                    assert tracer.current() is outer

        _hammer(self.THREADS, worker)
        roots = tracer.root_list()
        # Every worker span closed with nothing above it on *its own*
        # thread (no activated context), so each outer span is its own
        # root — no cross-thread nesting, no lost trees.
        assert len(roots) == self.THREADS * spans_each
        for root in roots:
            _, index, step = root.name.split(".")
            assert root.names() == [f"outer.{index}.{step}"] + [
                f"inner.{index}.{step}.{level}" for level in range(depth)
            ]
            assert root.closed

    def test_root_retention_safe_under_concurrent_filing(self):
        # ISSUE 10's small fix: the bounded roots deque is filed from
        # many threads while others render/export/clear — without the
        # tracer's lock, iterating during an append raises and evicted
        # roots can be observed mid-mutation.
        tracer = Tracer(enabled=True, max_roots=8)
        stop = threading.Event()
        reader_errors = []

        def reader():
            while not stop.is_set():
                try:
                    tracer.to_json()
                    tracer.render()
                    tracer.root_list()
                    tracer.clear()
                except Exception as exc:  # pragma: no cover - failure path
                    reader_errors.append(exc)
                    return

        reader_thread = threading.Thread(target=reader)
        reader_thread.start()
        try:
            def worker(index):
                for step in range(500):
                    with tracer.span(f"root.{index}.{step}"):
                        pass

            _hammer(self.THREADS, worker)
        finally:
            stop.set()
            reader_thread.join()
        assert not reader_errors
        assert len(tracer.root_list()) <= 8

    def test_query_cache_consistent_under_contention(self):
        cache = LRUQueryCache(capacity=32)

        def worker(index):
            for step in range(self.ITERATIONS // 2):
                key = ("k", (index + step) % 64)
                if cache.get(key, epoch=0) is None:
                    cache.put(key, 0, step)

        _hammer(self.THREADS, worker)
        assert len(cache) <= 32
        assert cache.hits + cache.misses == self.THREADS * (self.ITERATIONS // 2)


# -- the sites share one runtime ----------------------------------------------


class TestPluggability:
    def test_sites_default_to_serial(self):
        pdms, _ = _executor_workload(peers=6)
        executor = DistributedExecutor(pdms)
        assert isinstance(executor.runtime, SerialRuntime)
        assert executor.workers == 1
        server = ViewServer(executor)
        assert server.runtime is executor.runtime
        assert server.workers == 1

    def test_view_server_inherits_executor_runtime(self):
        pdms, _ = _executor_workload(peers=6)
        executor = DistributedExecutor(pdms, workers=2)
        server = ViewServer(executor)
        assert server.runtime is executor.runtime
        assert server.workers == 2


# -- one trace tree per request -----------------------------------------------


class TestTracePropagation:
    """A fan-out stays inside its caller's tree, whatever the modeled
    worker count."""

    def test_execute_yields_one_tree_per_query(self):
        obs = _obs.Observability(tracing=True)
        pdms, queries = _executor_workload()
        pdms.obs = obs
        network = SimulatedNetwork(obs=obs)
        executor = DistributedExecutor(pdms, network, obs=obs, workers=4)
        for query in queries:
            executor.execute(query, "p0", {"max_depth": 40})
        roots = obs.tracer.root_list()
        assert len(roots) == len(queries)
        for root in roots:
            assert root.name == "pdms.execute"
            batch = root.find("execute.fetch_batch")
            assert batch.attrs["workers"] == 4
            # Per-peer fetch spans nest under the batch span.
            fetches = [c for c in batch.children if c.name == "execute.fetch"]
            assert len(fetches) >= 2

    def test_tree_shape_does_not_depend_on_workers(self):
        pdms, queries = _executor_workload()

        def names_under(workers):
            obs = _obs.Observability(tracing=True)
            pdms.obs = obs
            executor = DistributedExecutor(
                pdms, SimulatedNetwork(obs=obs), obs=obs, workers=workers
            )
            executor.execute(queries[0], "p0", {"max_depth": 40})
            return obs.tracer.last_root().names()

        assert names_under(4) == names_under(1)

    def test_network_messages_stamped_with_trace_ids(self):
        obs = _obs.Observability(tracing=True)
        pdms, queries = _executor_workload(peers=8)
        pdms.obs = obs
        network = SimulatedNetwork(obs=obs)
        executor = DistributedExecutor(pdms, network, obs=obs, workers=4)
        executor.execute(queries[0], "p0", {"max_depth": 40})
        root = obs.tracer.last_root()
        assert network.messages, "workload sends traffic"
        assert {m.trace_id for m in network.messages} == {root.trace_id}
        assert all(m.span_id is not None for m in network.messages)

    def test_untraced_messages_stay_unstamped(self):
        pdms, queries = _executor_workload(peers=8)
        network = SimulatedNetwork()
        executor = DistributedExecutor(pdms, network)
        executor.execute(queries[0], "p0", {"max_depth": 40})
        assert network.messages
        assert all(m.trace_id is None and m.span_id is None
                   for m in network.messages)

    def test_match_corpus_is_one_tree(self):
        obs = _obs.Observability(tracing=True)
        workload = synthetic_matching_workload(count=6, seed=11, domains=3)
        pipeline = _trained_pipeline(workload, obs=obs)
        obs.tracer.clear()  # training traces aren't under test
        pipeline.match_corpus(workload.corpus)
        roots = obs.tracer.root_list()
        assert len(roots) == 1
        names = roots[0].names()
        assert roots[0].name == "match.corpus"
        assert names.count("match.source") == len(workload.corpus.schemas)

    def test_view_server_updategram_is_one_tree(self):
        obs = _obs.Observability(tracing=True)
        pdms = random_tree_pdms(20, seed=5, courses=3, dataless_peers=4)
        pdms.obs = obs
        network = SimulatedNetwork(obs=obs)
        executor = DistributedExecutor(pdms, network, obs=obs, workers=4)
        server = ViewServer(executor, reformulation_options={"max_depth": 40})
        golds = pdms.generator_info["golds"]
        data_peers = sorted(
            name for name, peer in pdms.peers.items() if peer.data
        )[:4]
        for name in data_peers:
            server.register(
                name,
                f"q(?t) :- {name}.{golds[name]['course']}"
                "(?c, ?t, ?n, ?w, ?l, ?en, ?d)",
            )
        obs.tracer.clear()
        for owner, gram in update_stream(pdms, 3, seed=6,
                                         inserts_per_relation=2):
            pdms.apply_updategram(owner, gram)
        roots = obs.tracer.root_list()
        # Exactly one tree per updategram: propagation and maintenance
        # spans nest under it.
        assert len(roots) == 3
        for root in roots:
            assert root.name == "serving.updategram"
