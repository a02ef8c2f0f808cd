"""Smoke test of the end-to-end benchmark: all five workloads at 1/20 scale.

Asserts what must hold at any scale — the metric and workload names the
later issues cite, correct outputs, a trace that accounts for the op wall
time, the layer separation the workloads were chosen for, and inputs that
are a pure function of the seed — and nothing about speed.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
from e2ebench import metrics, protocol  # noqa: E402
from e2ebench.trace import installed_wrappers  # noqa: E402
from e2ebench.workloads import WORKLOADS  # noqa: E402

NAMES = [
    "adhoc_single_500", "adhoc_join_30", "arc_growth_200",
    "serve_mixed_200", "publish_edit_1000",
]
READ_ONLY = {"adhoc_single_500", "adhoc_join_30"}
SCALE = 0.05


def run(name):
    return protocol.run_workload(name, seed=12, trace=True, passes=2, scale=SCALE)


@pytest.fixture(scope="module")
def records():
    return {name: run(name) for name in NAMES}


def test_names_match_the_contract_file():
    assert list(WORKLOADS) == NAMES
    assert list(metrics.END_TO_END) == [
        "setup_s", "ops_per_s", "read_p50_ms", "read_p90_ms", "write_p50_ms",
        "peak_rss_mb", "fail_ratio",
    ]
    with open(HERE.parent.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        contract = json.load(handle)
    assert [w["name"] for w in contract["workloads"]] == NAMES
    assert contract["run_seconds"] == protocol.RUN_SECONDS
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in contract["end_to_end"]
    ] == [(name, *metrics.END_TO_END[name]) for name in metrics.DRIVER_END_TO_END]
    assert [
        (m["name"], m["unit"], m["better"]) for m in contract["per_layer"]
    ] == [(name, *spec) for name, spec in metrics.PER_LAYER.items()] + [
        (name, *metrics.END_TO_END[name][:2]) for name in metrics.DRIVER_UNBOUNDED
    ]


def test_every_workload_reports_every_metric_and_no_failed_op(records):
    for name, record in records.items():
        wanted = set(metrics.END_TO_END) - ({"write_p50_ms"} if name in READ_ONLY else set())
        assert set(record["end_to_end"]) == wanted, name
        assert set(record["per_layer"]) == set(metrics.PER_LAYER), name
        assert record["end_to_end"]["fail_ratio"] == 0 and record["correct"], name
        assert record["attempted"] == 3 * record["ops_per_pass"], name  # 2 passes + traced


def test_trace_accounts_for_the_op_wall_time(records):
    for name, record in records.items():
        ratio = record["per_layer"]["trace.unattributed_ratio"]
        # At this scale a traced replay lasts a few milliseconds, so one
        # scheduler hiccup between two wrapped calls is several percent of
        # it.  Such noise only adds to the roots' own time: best of three.
        for _ in range(2):
            if ratio > 0.05:
                ratio = min(ratio, run(name)["per_layer"]["trace.unattributed_ratio"])
        assert ratio <= 0.05, name


def test_workloads_separate_the_layers(records):
    layers = {name: record["per_layer"] for name, record in records.items()}
    for name in READ_ONLY:
        assert layers[name]["piazza.mapping_index.builds"] == 0
        assert layers[name]["piazza.reformulation.calls"] == 1
    # one rewriting per data peer and atom: a cross product on the join
    assert layers["adhoc_single_500"]["piazza.reformulation.rewritings_per_call"] == 25
    assert layers["adhoc_join_30"]["piazza.reformulation.rewritings_per_call"] == 5 * 5
    # two messages per remote data peer
    assert layers["adhoc_single_500"]["piazza.network.messages"] == 2 * 24
    # every join forces at least one index rebuild (one join per four ops)
    assert layers["arc_growth_200"]["piazza.mapping_index.builds"] >= 0.25
    assert layers["arc_growth_200"]["mangrove.publish.publish_ms"] > 0
    assert layers["arc_growth_200"]["piazza.execution.self_ms"] > 0
    # served reads never reformulate
    assert layers["serve_mixed_200"]["piazza.reformulation.calls"] == 0
    assert layers["serve_mixed_200"]["piazza.execution.view_hit_ratio"] == 1
    assert layers["serve_mixed_200"]["piazza.serving.stale_refusals"] == 0
    assert layers["serve_mixed_200"]["piazza.updates.maintain_ms"] > 0
    # no piazza layer under MANGROVE
    piazza = [k for k in metrics.PER_LAYER if k.split(".")[0] in ("piazza", "runtime")]
    assert all(layers["publish_edit_1000"][k] == 0 for k in piazza)
    assert layers["publish_edit_1000"]["text.tfidf.fit_calls"] == 0.25


def test_no_wrapper_is_left_installed(records):
    assert installed_wrappers() == []
    assert all(record["wrappers_left_installed"] == [] for record in records.values())


def test_inputs_are_a_function_of_the_seed(records):
    for name, workload in WORKLOADS.items():
        first = workload.generate(12, SCALE, SCALE)
        again = workload.generate(12, SCALE, SCALE)
        other = workload.generate(13, SCALE, SCALE)
        assert repr(first.ops) == repr(again.ops), name
        assert workload.expected(first) == workload.expected(again), name
        assert first.ops_digest() == records[name]["ops_digest"], name
        assert first.ops_digest() != other.ops_digest(), name
        assert protocol.fingerprint(workload.expected(first)) == records[name][
            "fingerprints_digest"
        ], name


def test_wrong_output_is_a_failed_op(monkeypatch):
    workload = WORKLOADS["adhoc_join_30"]
    monkeypatch.setattr(workload, "expected", lambda inputs: ["?"] * len(inputs.ops))
    record = protocol.run_workload("adhoc_join_30", seed=7, passes=2, scale=SCALE)
    assert record["failed"] == record["attempted"] and not record["correct"]
    assert record["end_to_end"]["fail_ratio"] == 1.0


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict("read_p50_ms", steady, [v * 1.02 for v in steady])[0] == "within"
    assert compare.verdict("read_p50_ms", steady, [v * 1.30 for v in steady])[0] == "worse"
    assert compare.verdict("read_p50_ms", steady, [v * 0.70 for v in steady])[0] == "better"
    assert compare.verdict("ops_per_s", steady, [v * 0.70 for v in steady])[0] == "worse"
    noisy = [100.0, 140.0, 70.0, 120.0, 85.0]
    assert compare.verdict("read_p50_ms", noisy, [v * 1.02 for v in noisy])[0] == "unresolved"
    assert compare.verdict("fail_ratio", [0.0] * 5, [0.0] * 5)[0] == "within"
    assert compare.verdict("fail_ratio", [0.0] * 5, [0.01] * 5)[0] == "worse"
