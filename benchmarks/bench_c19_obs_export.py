"""Experiment C19 — end-to-end traces and the export pipeline (ISSUE 10).

The ROADMAP's north star needs per-request visibility at PDMS scale:
one executed query that fans out across hundreds of peers must come
back as ONE trace — per-peer network-hop spans included — and that
trace (plus the metrics registry) must survive a round trip through
the JSONL export layer and render from the ``python -m repro.obs`` CLI.

Workload: a 200-peer PDMS (the acceptance-criterion scale, kept in
quick mode too — only the stream length shrinks), executed serially.

Asserted:

* **one tree per request** — one executed query yields exactly one
  root spanning ``execute.fetch_batch`` → ``execute.fetch`` (one per
  contacted peer), and one served query (continuous-view hit) yields
  exactly one root; updategrams yield one ``serving.updategram`` tree
  each with the propagation spans inside;
* **per-hop attribution** — every simulated message carries the
  executing trace's id;
* **lossless export** — spans and metrics written to JSONL re-parse
  into exactly the in-memory trees/registry state;
* **CLI** — ``python -m repro.obs`` ``profile``/``traces``/
  ``snapshot``/``prom`` all render the exported files (subprocess, so
  the module entry point itself is covered).

CI runs this as the blocking ``obs-export-gate`` job with
``BENCH_C19_QUICK=1``.
"""

import os
import subprocess
import sys

from repro import obs
from repro.bench import ResultTable
from repro.datasets.pdms_gen import random_tree_pdms, update_stream
from repro.obs.export import (
    assemble_traces,
    export_metrics,
    export_spans,
    read_metrics,
    read_records,
)
from repro.obs.profile import profile_spans, render_profile
from repro.piazza import DistributedExecutor, SimulatedNetwork, ViewServer

QUICK = os.environ.get("BENCH_C19_QUICK", "") not in ("", "0")
PEERS = 200  # the acceptance-criterion scale, quick mode included
UPDATES = 2 if QUICK else 5
OPTIONS = {"max_depth": 40}
SEED = 19
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _stack():
    """One isolated traced stack: pdms + network + executor + server."""
    isolated = obs.Observability(tracing=True, tracer=obs.Tracer(
        enabled=True, max_roots=256
    ))
    pdms = random_tree_pdms(
        PEERS, seed=SEED, courses=4, dataless_peers=PEERS // 5
    )
    pdms.obs = isolated
    network = SimulatedNetwork(obs=isolated)
    executor = DistributedExecutor(pdms, network, obs=isolated)
    server = ViewServer(executor, reformulation_options=dict(OPTIONS))
    return isolated, pdms, network, executor, server


def _course_query(pdms, peer="p0"):
    gold = pdms.generator_info["golds"][peer]
    return (f"q(?t) :- {peer}.{gold['course']}"
            "(?c, ?t, ?n, ?w, ?l, ?en, ?d)")


class TestC19ObsExport:
    def test_one_trace_per_request_and_lossless_export(self, tmp_path):
        table = ResultTable(
            "C19: end-to-end traces + export round trip at the 200-peer scale",
            ["peers", "request", "trace roots", "spans", "peer-hop spans",
             "messages stamped"],
        )
        isolated, pdms, network, executor, server = _stack()
        tracer = isolated.tracer
        query = _course_query(pdms)

        # One executed query -> exactly ONE tree with per-peer hops.
        stats = executor.execute(query, "p0", dict(OPTIONS))
        roots = tracer.root_list()
        assert len(roots) == 1, [root.name for root in roots]
        executed = roots[0]
        names = executed.names()
        assert executed.name == "pdms.execute"
        assert "execute.fetch_batch" in names
        fetch_spans = names.count("execute.fetch")
        # One network-hop span per contacted peer, all inside the one
        # tree; the fan-out is wider than C18's widest modeled width.
        assert fetch_spans == stats.peers_contacted > 4
        stamped = {m.trace_id for m in network.messages}
        assert stamped == {executed.trace_id}
        table.add_row(PEERS, "executed", 1, len(names), fetch_spans,
                      len(network.messages))

        # One served query (continuous-view hit) -> exactly one tree.
        tracer.clear()
        server.register("p0", query)
        tracer.clear()  # registration is setup, not the request under test
        served = executor.execute(query, "p0", dict(OPTIONS), views=server)
        assert served.view_hits == 1
        roots = tracer.root_list()
        assert len(roots) == 1
        assert roots[0].name == "pdms.execute"
        assert roots[0].attrs.get("served_from") == "continuous-view"
        table.add_row(PEERS, "served", 1, len(roots[0].names()), 0, "-")

        # Updategrams: one serving.updategram tree each, with the
        # propagation/maintenance spans inside.
        tracer.clear()
        stream = list(update_stream(pdms, UPDATES, seed=SEED + 1,
                                    inserts_per_relation=2))
        for owner, gram in stream:
            pdms.apply_updategram(owner, gram)
        gram_roots = tracer.root_list()
        assert len(gram_roots) == len(stream)
        assert {root.name for root in gram_roots} == {"serving.updategram"}

        # Lossless export round trip: the file reproduces the trees
        # and the registry exactly.
        all_roots = [executed] + gram_roots
        span_path = tmp_path / "spans.jsonl"
        metrics_path = tmp_path / "metrics.jsonl"
        record_count = export_spans(all_roots, span_path)
        assert assemble_traces(read_records(span_path)) == [
            root.to_dict() for root in all_roots
        ]
        export_metrics(isolated.metrics, metrics_path)
        assert read_metrics(metrics_path).snapshot() == (
            isolated.metrics.snapshot()
        )

        # The profile folds the exported trees; the hot path is there.
        report = render_profile(
            profile_spans(assemble_traces(read_records(span_path)))
        )
        assert "pdms.execute;execute.fetch_batch" in report
        table.note(
            f"export: {record_count} span records; profile paths rendered "
            f"from the re-parsed file"
            + (" (quick mode)" if QUICK else "")
        )
        table.show()

    def test_cli_renders_exports(self, tmp_path):
        isolated, pdms, network, executor, server = _stack()
        executor.execute(_course_query(pdms), "p0", dict(OPTIONS))
        span_path = tmp_path / "spans.jsonl"
        metrics_path = tmp_path / "metrics.jsonl"
        export_spans(isolated.tracer, span_path)
        export_metrics(isolated.metrics, metrics_path)

        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")

        def cli(*args):
            done = subprocess.run(
                [sys.executable, "-m", "repro.obs", *args],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            return done.stdout

        profile_out = cli("profile", str(span_path), "--sort", "cum")
        assert "span profile" in profile_out
        assert "pdms.execute;execute.fetch_batch;execute.fetch" \
            in profile_out
        traces_out = cli("traces", str(span_path), "--limit", "1")
        assert "- pdms.execute" in traces_out
        snapshot_out = cli("snapshot", str(metrics_path))
        assert "execute.round_trips" in snapshot_out
        prom_out = cli("prom", str(metrics_path))
        assert "repro_execute_round_trips_total" in prom_out

        table = ResultTable(
            "C19-CLI: python -m repro.obs renders the exported files",
            ["command", "exit", "output lines"],
        )
        for command, output in (
            ("profile", profile_out), ("traces", traces_out),
            ("snapshot", snapshot_out), ("prom", prom_out),
        ):
            table.add_row(command, 0, len(output.splitlines()))
        table.note("all subcommands exercised via subprocess"
                   + (" (quick mode)" if QUICK else ""))
        table.show()
