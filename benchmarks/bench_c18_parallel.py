"""Experiment C18 — modeled fan-out on the C11/C14 workloads.

A PDMS's fan-outs are independent: the per-peer relation fetches
behind one distributed execution are independent reads of independent
peers, and one updategram's per-subscriber delta batches are
independent sends.  Charged in sequence, a single query at the C11
headline scale pays hundreds of back-to-back round trips that a real
deployment overlaps.  This experiment measures the *modeled* overlap:
the same workloads run on a :class:`~repro.piazza.DistributedExecutor`
with ``workers=N``, and the network charges each batch its
**makespan** over ``N`` workers
(:meth:`~repro.piazza.network.SimulatedNetwork.concurrent_round_trips`)
instead of its sum.  Nothing runs on threads; the speedup is simulated
milliseconds, not wall clock.

Two workloads, each run at 1 worker (the serial sum) and at
``N in (2, 4)`` modeled workers over identical networks and seeds:

* **C11-style distributed execution** — single-relation and join
  queries against a 500-peer network (120 in quick mode): one
  execution fans out to every data peer;
* **C14-style view serving** — continuous queries registered across a
  200-peer network (60 in quick mode) with a seeded updategram stream:
  registration fan-out plus one delta batch per subscriber peer per
  gram.

Asserted per workload:

* **parity** — answers (and the served answer after every updategram)
  are set-identical at every worker count, and the traffic accounting
  (message count, bytes shipped, per-kind counts) is *exactly* the
  1-worker run's — the modeled width changes when trips are charged,
  never what is sent;
* **speedup** — modeled latency (the network's summed
  ``total_latency_ms``) improves by at least ``0.6 x N`` at each
  worker count, and 4 workers beat 2 (the makespan model scales with
  the width, it doesn't just take a one-off max).

CI runs this in the ``gates`` matrix with ``BENCH_C18_QUICK=1``.
"""

import os

from repro.bench import ResultTable
from repro.datasets.pdms_gen import random_tree_pdms, update_stream
from repro.piazza import DistributedExecutor, SimulatedNetwork, ViewServer

QUICK = os.environ.get("BENCH_C18_QUICK", "") not in ("", "0")
EXEC_PEERS = 120 if QUICK else 500
VIEW_PEERS = 60 if QUICK else 200
VIEW_QUERIES = 6 if QUICK else 10
VIEW_UPDATES = 6 if QUICK else 10
WORKER_COUNTS = (2, 4)
EFFICIENCY_BAR = 0.6  # speedup(N) >= EFFICIENCY_BAR * N
DATALESS_SHARE = 5
OPTIONS = {"max_depth": 40}
SEED = 18


def _exec_network(peers: int):
    return random_tree_pdms(
        peers, seed=3, courses=4, dataless_peers=peers // DATALESS_SHARE
    )


def _exec_queries(pdms) -> list[str]:
    gold = pdms.generator_info["golds"]["p0"]
    course, instructor = gold["course"], gold["instructor"]
    return [
        f"q(?t) :- p0.{course}(?c, ?t, ?n, ?w, ?l, ?en, ?d)",
        f"q(?t, ?e) :- p0.{course}(?c, ?t, ?n, ?w, ?l, ?en, ?d), "
        f"p0.{instructor}(?i, ?n, ?e, ?ph, ?o)",
    ]


def _execute_run(pdms, queries, workers):
    """All queries at one modeled width; returns answers + the network."""
    network = SimulatedNetwork()
    network.randomize_latencies(sorted(pdms.peers), seed=SEED,
                                low=2.0, high=40.0)
    executor = DistributedExecutor(pdms, network, workers=workers)
    answers = [
        frozenset(executor.execute(query, "p0", dict(OPTIONS)).answers)
        for query in queries
    ]
    return answers, network


def _view_queries(pdms, count: int) -> list[tuple[str, str]]:
    """``count`` single-relation course queries, spread across peers."""
    golds = pdms.generator_info["golds"]
    data_peers = sorted(
        (name for name, peer in pdms.peers.items() if peer.data),
        key=lambda name: int(name[1:]),
    )
    chosen = [data_peers[(i * len(data_peers)) // count] for i in range(count)]
    return [
        (name, f"q(?t) :- {name}.{golds[name]['course']}"
               "(?c, ?t, ?n, ?w, ?l, ?en, ?d)")
        for name in chosen
    ]


def _view_run(workers):
    """Register + stream updategrams + serve, at one modeled width.

    Returns the modeled latency of the *stream* phase separately:
    registration is a one-time serial placement cost (charged through
    the executor's per-owner fetch helper either way), so the
    propagation speedup is measured on the updategram stream it
    overlaps, not diluted by setup traffic.
    """
    pdms = random_tree_pdms(
        VIEW_PEERS, seed=SEED, courses=4,
        dataless_peers=VIEW_PEERS // DATALESS_SHARE,
    )
    network = SimulatedNetwork()
    network.randomize_latencies(sorted(pdms.peers), seed=SEED + 1,
                                low=2.0, high=40.0)
    executor = DistributedExecutor(pdms, network, workers=workers)
    server = ViewServer(executor, reformulation_options=dict(OPTIONS))
    queries = _view_queries(pdms, VIEW_QUERIES)
    for name, query in queries:
        server.register(name, query)
    registration_ms = network.total_latency_ms
    stream = update_stream(
        pdms, VIEW_UPDATES, seed=SEED + 2, inserts_per_relation=2,
        deletes_per_relation=1, relations_per_step=2,
    )
    history = []
    for owner, gram in stream:
        pdms.apply_updategram(owner, gram)
        for name, query in queries:
            served = server.serve(query, name)
            history.append(None if served is None else frozenset(served))
    stream_ms = network.total_latency_ms - registration_ms
    return history, network, server, stream_ms


def _traffic(network):
    return (network.message_count, network.bytes_shipped,
            dict(network.kind_counts))


class TestC18Parallel:
    def test_distributed_execution_overlap(self):
        table = ResultTable(
            "C18a: C11-style distributed execution, modeled fan-out",
            ["peers", "workers", "messages", "1 worker (modeled ms)",
             "N workers (modeled ms)", "modeled speedup", "bar"],
        )
        pdms = _exec_network(EXEC_PEERS)
        queries = _exec_queries(pdms)
        serial_answers, serial_net = _execute_run(pdms, queries, 1)
        speedups: dict[int, float] = {}
        for workers in WORKER_COUNTS:
            answers, network = _execute_run(pdms, queries, workers)
            # Parity: identical answers, identical traffic — the modeled
            # width changes the charged latency and nothing else.
            assert answers == serial_answers
            assert _traffic(network) == _traffic(serial_net)
            speedup = serial_net.total_latency_ms / network.total_latency_ms
            speedups[workers] = speedup
            assert speedup >= EFFICIENCY_BAR * workers, (
                f"{workers}-worker modeled speedup {speedup:.2f}x below "
                f"{EFFICIENCY_BAR * workers:.1f}x"
            )
            table.add_row(
                EXEC_PEERS, workers, network.message_count,
                serial_net.total_latency_ms, network.total_latency_ms,
                speedup, EFFICIENCY_BAR * workers,
            )
        # The makespan model scales with the width: more workers, more
        # overlap, strictly faster on a many-peer fan-out.
        assert speedups[4] > speedups[2]
        table.note(
            "answers + message/byte/kind accounting asserted identical to "
            "the 1-worker run at every modeled worker count"
            + (" (quick mode)" if QUICK else "")
        )
        table.show()

    def test_view_serving_overlap(self):
        table = ResultTable(
            "C18b: C14-style view serving, modeled propagation",
            ["peers", "queries", "grams", "workers", "1 worker (modeled ms)",
             "N workers (modeled ms)", "modeled speedup", "bar"],
        )
        serial_history, serial_net, serial_server, serial_ms = _view_run(1)
        speedups: dict[int, float] = {}
        for workers in WORKER_COUNTS:
            history, network, server, stream_ms = _view_run(workers)
            # Parity: every post-updategram served answer identical,
            # propagation traffic identical, same views maintained.
            assert history == serial_history
            assert _traffic(network) == _traffic(serial_net)
            assert server.stats.views_maintained == (
                serial_server.stats.views_maintained
            )
            assert server.stats.peers_notified == (
                serial_server.stats.peers_notified
            )
            speedup = serial_ms / stream_ms
            speedups[workers] = speedup
            assert speedup >= EFFICIENCY_BAR * workers, (
                f"{workers}-worker modeled speedup {speedup:.2f}x below "
                f"{EFFICIENCY_BAR * workers:.1f}x"
            )
            table.add_row(
                VIEW_PEERS, VIEW_QUERIES, VIEW_UPDATES, workers,
                serial_ms, stream_ms, speedup, EFFICIENCY_BAR * workers,
            )
        assert speedups[4] > speedups[2]
        table.note(
            "served history + traffic accounting asserted identical to the "
            "1-worker run at every modeled worker count"
            + (" (quick mode)" if QUICK else "")
        )
        table.show()
