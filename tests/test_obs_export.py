"""The export pipeline's contracts (ISSUE 10).

Property-style pins, per the repo's fast-path-with-oracle discipline:

* **Span round trip** — exporting any tracer-built span forest to
  JSONL and reassembling it reproduces ``Span.to_dict()`` exactly
  (names, durations, attrs, error flags, child order).
* **Metrics round trip** — an exported registry re-parses into one
  whose snapshot *and* histogram internals (bucket populations,
  quantiles) match the original exactly.
* **Profile permutation invariance** — folding the same span trees in
  any completion order yields identical per-path aggregates.  Trees
  use dyadic-rational durations so float summation is exact and the
  property holds with ``==``, not approx.
* **Fragment stitching** — records whose parent is absent (a truncated
  file) become roots.
* **CLI** — every ``python -m repro.obs`` subcommand renders the
  exported files in-process (``main()`` returns 0) and fails cleanly
  on garbage input.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry, Observability
from repro.obs.__main__ import main
from repro.obs.export import (
    assemble_traces,
    export_metrics,
    export_spans,
    metrics_records,
    prometheus_text,
    read_metrics,
    read_records,
    registry_from_records,
    render_tree,
    span_records,
)
from repro.obs.profile import folded_stacks, profile_spans, render_profile

# -- strategies ---------------------------------------------------------------

_NAMES = st.sampled_from(
    ["pdms.execute", "execute.fetch", "serving.maintain", "runtime.task", "x"]
)
_ATTR_VALUES = st.one_of(
    st.integers(-1000, 1000), st.text(max_size=8), st.booleans()
)
_ATTRS = st.dictionaries(
    st.text(st.characters(categories=("Ll",)), min_size=1, max_size=6),
    _ATTR_VALUES,
    max_size=3,
)

# name, attrs, error, children — bounded recursion keeps trees small.
_TREES = st.recursive(
    st.tuples(_NAMES, _ATTRS, st.booleans(), st.just(())),
    lambda children: st.tuples(
        _NAMES, _ATTRS, st.booleans(), st.lists(children, max_size=3)
    ),
    max_leaves=10,
)

#: Durations as multiples of 1/4 ms: dyadic rationals sum exactly in
#: binary floating point, so permutation invariance is exact equality.
_DYADIC_MS = st.integers(0, 4000).map(lambda quarters: quarters / 4.0)


def _build_span(tracer, spec):
    name, attrs, error, children = spec
    try:
        with tracer.span(name, **{f"k_{k}": v for k, v in attrs.items()}):
            for child in children:
                _build_span(tracer, child)
            if error:
                raise RuntimeError("boom")
    except RuntimeError:
        pass


def _dict_tree(spec, durations):
    """A to_dict-shaped tree with controlled dyadic durations."""
    name, attrs, error, children = spec
    node = {"name": name, "duration_ms": next(durations)}
    if attrs:
        node["attrs"] = dict(attrs)
    if error:
        node["error"] = True
    if children:
        node["children"] = [_dict_tree(child, durations) for child in children]
    return node


# -- span export --------------------------------------------------------------


class TestSpanExport:
    @settings(max_examples=60, deadline=None)
    @given(specs=st.lists(_TREES, min_size=1, max_size=4))
    def test_jsonl_round_trip_is_lossless(self, tmp_path_factory, specs):
        obs = Observability(tracing=True)
        for spec in specs:
            _build_span(obs.tracer, spec)
        roots = obs.tracer.root_list()
        path = tmp_path_factory.mktemp("spans") / "spans.jsonl"
        count = export_spans(obs.tracer, path)
        records = read_records(path)
        assert len(records) == count
        assert assemble_traces(records) == [root.to_dict() for root in roots]

    def test_records_carry_ids_and_schema(self):
        obs = Observability(tracing=True)
        with obs.tracer.span("outer"):
            with obs.tracer.span("inner"):
                pass
        records = span_records(obs.tracer.root_list())
        outer, inner = records
        assert outer["schema"] == 1 and inner["schema"] == 1
        assert "parent_id" not in outer
        assert inner["parent_id"] == outer["span_id"]
        assert inner["trace_id"] == outer["trace_id"]
        # The wire format is line-oriented JSON with sorted keys.
        assert json.loads(json.dumps(outer, sort_keys=True)) == outer

    def test_orphan_records_become_fragment_roots(self):
        records = [
            {"type": "span", "trace_id": "t9", "span_id": "s2",
             "parent_id": "s1", "name": "fragment", "duration_ms": 1.0},
            {"type": "span", "trace_id": "t9", "span_id": "s3",
             "parent_id": "s2", "name": "leaf", "duration_ms": 0.5},
        ]
        roots = assemble_traces(records)
        assert len(roots) == 1
        assert roots[0]["name"] == "fragment"
        assert roots[0]["children"][0]["name"] == "leaf"

    def test_render_tree_matches_live_render(self):
        obs = Observability(tracing=True)
        with obs.tracer.span("outer", peer="p1"):
            with obs.tracer.span("inner"):
                pass
        root = obs.tracer.last_root()
        [assembled] = assemble_traces(span_records([root]))
        assert render_tree(assembled) == root.render()


# -- metrics export -----------------------------------------------------------


class TestMetricsExport:
    @settings(max_examples=60, deadline=None)
    @given(
        counters=st.dictionaries(
            st.sampled_from(["a.one", "a.two", "b.three"]),
            st.integers(0, 10**6), max_size=3,
        ),
        gauges=st.dictionaries(
            st.sampled_from(["g.x", "g.y"]), st.floats(-1e6, 1e6), max_size=2,
        ),
        samples=st.lists(st.floats(0.0, 20000.0), max_size=40),
    )
    def test_jsonl_round_trip_is_lossless(self, counters, gauges, samples,
                                          tmp_path_factory):
        registry = MetricsRegistry()
        for name, value in counters.items():
            registry.counter(name).inc(value)
        for name, value in gauges.items():
            registry.gauge(name).set(value)
        histogram = registry.histogram("h.ms")
        for sample in samples:
            histogram.observe(sample)
        path = tmp_path_factory.mktemp("metrics") / "metrics.jsonl"
        export_metrics(registry, path)
        rebuilt = read_metrics(path)
        assert rebuilt.snapshot() == registry.snapshot()
        back = rebuilt.get("h.ms")
        assert back.bounds == histogram.bounds
        assert back.bucket_counts == histogram.bucket_counts
        assert back.overflow == histogram.overflow
        for q in (0.5, 0.9, 0.95, 0.99):
            assert back.quantile(q) == histogram.quantile(q)

    def test_empty_histogram_round_trips(self):
        registry = MetricsRegistry()
        registry.histogram("empty.ms")
        [record] = metrics_records(registry)
        assert "min" not in record and "max" not in record
        rebuilt = registry_from_records([record])
        assert rebuilt.get("empty.ms").snapshot() == {"count": 0}

    def test_prometheus_exposition_shape(self):
        registry = MetricsRegistry()
        registry.counter("execute.round_trips").inc(7)
        registry.gauge("runtime.workers").set(4)
        histogram = registry.histogram("net.ms", bounds=(1.0, 10.0))
        for value in (0.5, 2.0, 99.0):
            histogram.observe(value)
        text = prometheus_text(registry)
        lines = text.splitlines()
        assert "repro_execute_round_trips_total 7" in lines
        assert "repro_runtime_workers 4" in lines
        # Cumulative buckets, +Inf equal to the total count.
        assert 'repro_net_ms_bucket{le="1"} 1' in lines
        assert 'repro_net_ms_bucket{le="10"} 2' in lines
        assert 'repro_net_ms_bucket{le="+Inf"} 3' in lines
        assert "repro_net_ms_count 3" in lines
        assert text.endswith("\n")


# -- profile ------------------------------------------------------------------


class TestProfile:
    @settings(max_examples=60, deadline=None)
    @given(
        specs=st.lists(_TREES, min_size=1, max_size=5),
        durations=st.lists(_DYADIC_MS, min_size=64, max_size=64),
        seed=st.integers(0, 2**16),
    )
    def test_permutation_invariant(self, specs, durations, seed):
        import random

        feed = iter(durations * 4)
        trees = [_dict_tree(spec, feed) for spec in specs]
        baseline = profile_spans(trees)
        shuffled = list(trees)
        random.Random(seed).shuffle(shuffled)
        permuted = profile_spans(shuffled)
        assert set(baseline) == set(permuted)
        for path, stats in baseline.items():
            other = permuted[path]
            assert stats.calls == other.calls
            assert stats.cum_ms == other.cum_ms
            assert stats.self_ms == other.self_ms
            assert stats.errors == other.errors
            assert stats.latency.bucket_counts == other.latency.bucket_counts
            assert stats.latency.overflow == other.latency.overflow

    def test_self_time_subtracts_children_and_clamps(self):
        tree = {
            "name": "root", "duration_ms": 10.0,
            "children": [
                {"name": "child", "duration_ms": 4.0},
                # Overlapped children can sum past the parent: clamp.
                {"name": "child", "duration_ms": 8.0},
            ],
        }
        table = profile_spans([tree])
        assert table[("root",)].self_ms == 0.0
        assert table[("root", "child")].calls == 2
        assert table[("root", "child")].cum_ms == 12.0

    def test_render_sorts_and_limits(self):
        trees = [
            {"name": "slow", "duration_ms": 100.0},
            {"name": "fast", "duration_ms": 1.0},
            {"name": "fast", "duration_ms": 1.0},
        ]
        table = profile_spans(trees)
        by_cum = render_profile(table, sort="cum")
        assert by_cum.index("slow") < by_cum.index("fast")
        by_calls = render_profile(table, sort="calls")
        assert by_calls.index("fast") < by_calls.index("slow")
        limited = render_profile(table, sort="cum", limit=1)
        assert "fast" not in limited
        with pytest.raises(ValueError):
            render_profile(table, sort="nope")

    def test_folded_stacks_format(self):
        tree = {"name": "a", "duration_ms": 2.0,
                "children": [{"name": "b", "duration_ms": 0.5}]}
        stacks = folded_stacks(profile_spans([tree]))
        assert stacks == ["a 1500", "a;b 500"]

    def test_profiles_live_spans_and_dicts_identically(self):
        obs = Observability(tracing=True)
        with obs.tracer.span("outer"):
            with obs.tracer.span("inner"):
                pass
        roots = obs.tracer.root_list()
        live = profile_spans(roots)
        exported = profile_spans(assemble_traces(span_records(roots)))
        assert {p: live[p].cum_ms for p in live} == {
            p: exported[p].cum_ms for p in exported
        }


# -- CLI ----------------------------------------------------------------------


class TestCli:
    @pytest.fixture()
    def exports(self, tmp_path):
        obs = Observability(tracing=True)
        with obs.tracer.span("pdms.execute", peer="p0"):
            with obs.tracer.span("execute.fetch", peer="p1"):
                pass
        obs.metrics.counter("execute.queries").inc(3)
        obs.metrics.histogram("execute.ms").observe(12.5)
        spans = tmp_path / "spans.jsonl"
        metrics = tmp_path / "metrics.jsonl"
        export_spans(obs.tracer, spans)
        export_metrics(obs.metrics, metrics)
        return spans, metrics

    def test_profile_renders_report(self, exports, capsys):
        spans, _ = exports
        assert main(["profile", str(spans), "--sort", "self"]) == 0
        out = capsys.readouterr().out
        assert "span profile" in out
        assert "pdms.execute;execute.fetch" in out

    def test_traces_renders_trees(self, exports, capsys):
        spans, _ = exports
        assert main(["traces", str(spans)]) == 0
        out = capsys.readouterr().out
        assert "trace t1:" in out
        assert "- pdms.execute" in out
        assert "  - execute.fetch" in out

    def test_snapshot_renders_all_accepted_formats(self, exports, tmp_path,
                                                   capsys):
        _, metrics = exports
        assert main(["snapshot", str(metrics)]) == 0
        from_jsonl = capsys.readouterr().out
        assert "execute.queries" in from_jsonl
        # A plain snapshot dict and a BENCH_C*.json shape render too.
        snapshot = read_metrics(metrics).snapshot()
        plain = tmp_path / "snap.json"
        plain.write_text(json.dumps(snapshot))
        bench = tmp_path / "BENCH_C99.json"
        bench.write_text(json.dumps({"bench": "x", "metrics": snapshot}))
        for path in (plain, bench):
            assert main(["snapshot", str(path)]) == 0
            assert "execute.queries" in capsys.readouterr().out

    def test_prom_outputs_exposition(self, exports, capsys):
        _, metrics = exports
        assert main(["prom", str(metrics)]) == 0
        assert "repro_execute_queries_total 3" in capsys.readouterr().out

    def test_bad_input_fails_cleanly(self, tmp_path, capsys):
        garbage = tmp_path / "garbage.jsonl"
        garbage.write_text("not json\n")
        assert main(["profile", str(garbage)]) == 1
        assert "error:" in capsys.readouterr().err
        assert main(["traces", str(tmp_path / "missing.jsonl")]) == 1
