"""The one run protocol every workload follows.

1. generate the inputs from the seed (untimed) and run one discarded
   miniature pass so imports, regex caches and lazy module state are warm;
2. run ``passes`` passes with no wrapper installed; a pass is
   ``gc.collect()``, build (timed: one ``setup_s`` sample, the mean of the
   workload's ``builds`` back-to-back builds), an untimed warm round, the
   replay of the fixed op list (each op timed with ``perf_counter_ns``),
   then fingerprinting of the outputs after the timed region;
3. end-to-end metrics are medians of in-process repeats: ``setup_s`` is the
   median of the passes' build samples, ``ops_per_s`` the median of the pass
   throughputs, and the latency percentiles are taken over the samples of
   all passes pooled;
4. optionally one more pass with the layer wrappers installed gives the
   per-layer metrics; the wrappers come off before anything else runs.

Outputs are checked last, against the committed golden fingerprints when
the seed and op count have them and against the workload's oracle
otherwise, so neither costs memory or time inside the measurement.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
from pathlib import Path
from time import perf_counter_ns

from e2ebench.trace import LAYERS, LayerTracer, installed_wrappers
from e2ebench.workloads import WORKLOADS, Inputs, Workload, fingerprint

BENCH_DIR = Path(__file__).resolve().parent.parent
GOLDEN_DIR = BENCH_DIR / "golden"
OUT_DIR = BENCH_DIR / "out"

PASSES = 5
RUN_SECONDS = 20  # the --seconds at which the op counts in workloads.py apply
DEFAULT_SEED = 12
GOLDEN_SEEDS = (12, 13)


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Pass:
    """One build + replay of a workload's op list.

    The client is a closed loop with no think time, so the replay time is
    the sum of the op latencies and the pass throughput is ops over that.
    """

    def __init__(self, workload: Workload, inputs: Inputs, root: Path, tracer=None):
        self.workload, self.inputs, self.tracer = workload, inputs, tracer
        self.root = root
        self.setup_s = 0.0
        self.latencies_ns: list[int] = []
        self.fingerprints: list[str] = []

    @property
    def replay_ns(self) -> int:
        return sum(self.latencies_ns)

    def run(self) -> "Pass":
        workload, inputs, tracer = self.workload, self.inputs, self.tracer
        workdir = Path(tempfile.mkdtemp(dir=self.root))
        world = None
        try:
            builds = 1 if tracer else workload.builds
            for index in range(builds):
                workload.prepare(inputs, workdir / f"b{index}")
            gc.collect()
            build_ns = 0
            for index in range(builds):
                if world is not None:
                    # Closing and freeing the previous build is the
                    # harness's doing: off the clock.
                    workload.close(world)
                    world = None
                started = perf_counter_ns()
                world = workload.build(inputs, workdir / f"b{index}")
                build_ns += perf_counter_ns() - started
            self.setup_s = build_ns / builds / 1e9
            workload.warm(world, inputs)
            calls = workload.bind(world, inputs)
            if tracer:
                calls = [_rooted(tracer, call) for call in calls]
            latencies = [0] * len(calls)
            fingerprints = [""] * len(calls)
            for index, call in enumerate(calls):
                op_started = perf_counter_ns()
                try:
                    output = call()
                except Exception as error:  # a raised op is a failed op
                    output = error
                latencies[index] = perf_counter_ns() - op_started
                # Reduced to a fingerprint between ops, outside every timed
                # region, so answers are not hoarded into peak_rss_mb.
                fingerprints[index] = fingerprint(output)
            self.latencies_ns = latencies
            self.fingerprints = fingerprints
        finally:
            if world is not None:
                workload.close(world)
            shutil.rmtree(workdir, ignore_errors=True)
        return self


def _rooted(tracer: LayerTracer, call):
    def rooted():
        with tracer.op():
            return call()

    return rooted


def load_golden(workload: str, seed: int) -> dict | None:
    path = GOLDEN_DIR / f"{workload}.seed{seed}.json"
    if not path.exists():
        return None
    with open(path, encoding="utf-8") as handle:
        golden = json.load(handle)
    golden["fingerprints"] = [  # stored run-length encoded
        value for value, count in golden["fingerprints"] for _ in range(count)
    ]
    return golden


def expected_fingerprints(workload: Workload, inputs: Inputs, seed: int) -> tuple[list, str]:
    """Golden fingerprints when committed for this op list, else the oracle."""
    golden = load_golden(workload.name, seed)
    if golden is not None and golden["ops"] == len(inputs.ops):
        if golden["ops_digest"] != inputs.ops_digest():
            # Same seed and size, different ops: the generators drifted, so
            # runs are no longer comparable with the committed baseline.
            return ["stale-golden"] * len(inputs.ops), "golden (stale)"
        return golden["fingerprints"], "golden"
    return workload.expected(inputs), "oracle"


def layer_metrics(
    tracer: LayerTracer, traced: Pass, untraced_replay_ns: float
) -> tuple[dict, dict]:
    """Fold the traced pass into the PER_LAYER metrics, plus each layer's
    share of the op wall time (what a change to that layer can save)."""
    ops = len(traced.latencies_ns)
    replay, counts, other = tracer.fold(), tracer.op_counts, tracer.other_counts

    def per_op(value: float) -> float:
        return value / ops

    # every index built in the traced pass, the one from set-up included
    rules = counts["index.rules"] + other["index.rules"]
    dead = counts["index.dead_rules"] + other["index.dead_rules"]
    reformulations = counts["reformulate.calls"]
    executions = replay.count("piazza.execution", "execute")
    maintained = replay.count("piazza.updates", "maintain")
    expanded = counts["reformulate.nodes_expanded"]
    pruned = counts["reformulate.nodes_pruned"]
    values = {
        "piazza.mapping_index.builds": per_op(replay.count("piazza.mapping_index", "build")),
        "piazza.mapping_index.build_ms": per_op(replay.ms("piazza.mapping_index", "build")),
        "piazza.mapping_index.lookup_ms": per_op(replay.ms("piazza.mapping_index", "lookup")),
        "piazza.mapping_index.dead_rule_ratio": _ratio(dead, rules),
        "piazza.reformulation.calls": per_op(reformulations),
        "piazza.reformulation.self_ms": per_op(replay.ms("piazza.reformulation")),
        "piazza.reformulation.nodes_expanded": _ratio(expanded, reformulations),
        "piazza.reformulation.pruned_ratio": _ratio(pruned, expanded + pruned),
        "piazza.reformulation.rewritings_per_call": _ratio(
            counts["reformulate.rewritings"], reformulations
        ),
        "piazza.datalog.minimize_ms": per_op(replay.ms("piazza.datalog", "minimize")),
        "piazza.datalog.minimize_kept_ratio": _ratio(
            counts["minimize.kept"], counts["minimize.in"]
        ),
        "piazza.datalog.evaluate_ms": per_op(replay.ms("piazza.datalog", "evaluate")),
        "piazza.datalog.evaluate_calls": per_op(replay.count("piazza.datalog", "evaluate")),
        "piazza.execution.calls": per_op(executions),
        "piazza.execution.self_ms": per_op(replay.ms("piazza.execution")),
        "piazza.execution.view_hit_ratio": _ratio(counts["execute.view_hits"], executions),
        "piazza.execution.tuples_shipped": per_op(counts["execute.tuples_shipped"]),
        "piazza.network.messages": per_op(counts["network.messages"]),
        "piazza.network.self_ms": per_op(replay.ms("piazza.network")),
        "piazza.network.modeled_ms": per_op(counts["network.modeled_ms"]),
        "piazza.peer.topology_ops": per_op(replay.count("piazza.peer", "topology")),
        "piazza.peer.self_ms": per_op(replay.ms("piazza.peer")),
        "piazza.serving.register_ms": per_op(replay.ms("piazza.serving", "register")),
        "piazza.serving.serve_ms": per_op(replay.ms("piazza.serving", "serve")),
        "piazza.serving.stale_refusals": counts["serving.stale_refusals"],
        "piazza.updates.maintain_ms": per_op(replay.ms("piazza.updates", "maintain")),
        "piazza.updates.incremental_ratio": _ratio(
            counts["maintain.incremental"], maintained
        ),
        "runtime.map_calls": per_op(replay.count("runtime", "map")),
        "runtime.self_ms": per_op(replay.ms("runtime")),
        "mangrove.publish.publish_ms": per_op(replay.ms("mangrove.publish")),
        "mangrove.apps.refresh_ms": per_op(replay.ms("mangrove.apps", "refresh")),
        "mangrove.apps.search_ms": per_op(replay.ms("mangrove.apps", "search")),
        "mangrove.integrity.self_ms": per_op(replay.ms("mangrove.integrity")),
        "rdf.store.replace_ms": per_op(replay.ms("rdf.store", "replace")),
        "rdf.store.delta_triples_per_publish": _ratio(
            counts["replace.delta_triples"], replay.count("rdf.store", "replace")
        ),
        "text.tfidf.fit_calls": per_op(replay.count("text.tfidf", "fit")),
        "text.tfidf.fit_ms": per_op(replay.ms("text.tfidf", "fit")),
        "text.tfidf.search_ms": per_op(replay.ms("text.tfidf", "search")),
        "storage.wal_appends": per_op(replay.count("storage", "wal")),
        "storage.wal_bytes": per_op(counts["wal.bytes"]),
        "storage.self_ms": per_op(replay.ms("storage")),
        "trace.unattributed_ratio": replay.unattributed_ratio,
        "trace.overhead_ratio": traced.replay_ns / untraced_replay_ns - 1.0,
    }
    shares = {
        layer: _ratio(replay.ms(layer) * 1e6, replay.root_ns) for layer in LAYERS
    }
    return values, shares


def environment() -> dict:
    """Where and on what a record was measured."""
    checkout = BENCH_DIR.parent.parent
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
            text=True, timeout=10, check=True,
            # never look for a repository above the checkout itself
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(checkout.parent)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # the checkout under test is not always a repository
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def run_workload(
    name: str,
    seed: int = DEFAULT_SEED,
    seconds: float = RUN_SECONDS,
    trace: bool = False,
    passes: int = PASSES,
    scale: float = 1.0,
) -> dict:
    """Run one workload through the protocol; returns its record."""
    workload = WORKLOADS[name]
    op_scale = scale * seconds / RUN_SECONDS
    inputs = workload.generate(seed, scale, op_scale)
    OUT_DIR.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    tracer = LayerTracer()
    try:
        Pass(workload, workload.generate(seed, scale / 10, op_scale / 10), root).run()
        # The inputs and the imported modules are the harness's objects: keep
        # the collector from re-walking them on the program's clock.
        gc.collect()
        gc.freeze()
        measured = [Pass(workload, inputs, root).run() for _ in range(passes)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced = None
        if trace:
            try:
                tracer.install()
                traced = Pass(workload, inputs, root, tracer).run()
            finally:
                tracer.uninstall()
    finally:
        gc.unfreeze()
        shutil.rmtree(root, ignore_errors=True)

    expected, source = expected_fingerprints(workload, inputs, seed)
    checked = measured + ([traced] if traced else [])
    attempted = len(inputs.ops) * len(checked)
    failed = sum(
        got != want
        for one in checked
        for got, want in zip(one.fingerprints, expected)
    )
    reads, writes = [], []
    for one in measured:
        for op, latency in zip(inputs.ops, one.latencies_ns):
            (reads if op[0] == "read" else writes).append(latency / 1e6)
    reads.sort()
    writes.sort()
    replay_ns = [one.replay_ns for one in measured]
    throughputs = [len(inputs.ops) / (ns / 1e9) for ns in replay_ns]
    end_to_end = {
        "setup_s": statistics.median(one.setup_s for one in measured),
        "ops_per_s": statistics.median(throughputs),
        "read_p50_ms": percentile(reads, 0.50),
        "read_p90_ms": percentile(reads, 0.90),
        "peak_rss_mb": peak_rss_mb,
        "fail_ratio": failed / attempted,
    }
    if writes:
        end_to_end["write_p50_ms"] = percentile(writes, 0.50)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "passes": passes,
        "builds_per_setup_sample": workload.builds,
        "ops_per_pass": len(inputs.ops),
        "ops_digest": inputs.ops_digest(),
        "fingerprints_digest": fingerprint(measured[0].fingerprints),
        "checked_against": source,
        "samples": {
            "setup_s": passes, "ops_per_s": passes,
            "read": len(reads), "write": len(writes),  # pooled over the passes
        },
        "per_pass": {
            "setup_s": [one.setup_s for one in measured],
            "ops_per_s": throughputs,
        },
        "attempted": attempted,
        "failed": failed,
        "wrappers_left_installed": installed_wrappers(),
        "end_to_end": end_to_end,
        **environment(),
    }
    record["correct"] = failed == 0 and not record["wrappers_left_installed"]
    if traced:
        layers, shares = layer_metrics(tracer, traced, statistics.median(replay_ns))
        record["per_layer"] = layers
        record["layer_shares"] = shares
    return record
