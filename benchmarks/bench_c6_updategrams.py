"""Experiment C6 — updategrams: incremental maintenance vs recompute.

Section 3.1.2: "we would prefer to make incremental updates versus
simply invalidating views and re-reading data ... When a view is
recomputed on a Piazza node, the query optimizer decides which
updategrams to use in a cost-based fashion."

The harness maintains a join view over growing base data and applies
small updategrams.  Work = facts probed: the hashed facts each pending
row of each join step tried (:meth:`IncrementalView.work`).  Expected
shape: incremental cost scales with the delta, recompute with the base;
the crossover sits where the delta approaches the base size.
"""

import random

import pytest

from repro.bench import ResultTable
from repro.piazza import IncrementalView, Updategram
from repro.piazza.parse import parse_query


def make_instance(base_size: int, seed: int = 0):
    rng = random.Random(seed)
    r = {(rng.randrange(base_size), rng.randrange(base_size)) for _ in range(base_size)}
    s = {(rng.randrange(base_size), rng.randrange(base_size)) for _ in range(base_size)}
    return {"r": r, "s": s}


def delta_gram(delta_size: int, base_size: int, seed: int = 1) -> Updategram:
    rng = random.Random(seed)
    gram = Updategram()
    gram.insert(
        "r",
        [(base_size + i, rng.randrange(base_size)) for i in range(delta_size)],
    )
    return gram


QUERY = "v(X, Z) :- r(X, Y), s(Y, Z)"


def incremental_work(base_size: int, delta_size: int) -> int:
    view = IncrementalView(parse_query(QUERY), make_instance(base_size))
    view.reset_work()
    view.apply(delta_gram(delta_size, base_size))
    return view.work()


def recompute_work(base_size: int, delta_size: int) -> int:
    view = IncrementalView(parse_query(QUERY), make_instance(base_size))
    view.reset_work()
    view.recompute(delta_gram(delta_size, base_size))
    return view.work()


class TestC6Updategrams:
    def test_incremental_vs_recompute(self, benchmark):
        table = ResultTable(
            "C6: view-maintenance work (facts probed), updategram vs recompute",
            ["base size", "delta size", "incremental", "recompute", "ratio"],
        )
        base_size = 400
        for delta_size in (1, 10, 50, 200, 400):
            incremental = incremental_work(base_size, delta_size)
            recompute = recompute_work(base_size, delta_size)
            table.add_row(
                base_size,
                delta_size,
                incremental,
                recompute,
                recompute / max(incremental, 1),
            )
        table.note(
            "incremental cost scales with the delta, recompute with the base; "
            "small updategrams win by orders of magnitude, as Section 3.1.2 "
            "argues, and the advantage vanishes as delta approaches base."
        )
        table.show()
        # Shape: tiny deltas hugely favour updategrams...
        assert incremental_work(base_size, 1) * 10 < recompute_work(base_size, 1)
        # ...and the advantage shrinks monotonically as deltas grow.
        small = recompute_work(base_size, 10) / max(incremental_work(base_size, 10), 1)
        large = recompute_work(base_size, 400) / max(incremental_work(base_size, 400), 1)
        assert small > large
        benchmark(incremental_work, 200, 10)

    def test_correctness_along_the_sweep(self):
        for delta_size in (1, 25, 100):
            incremental = IncrementalView(parse_query(QUERY), make_instance(200))
            recomputed = IncrementalView(parse_query(QUERY), make_instance(200))
            gram = delta_gram(delta_size, 200)
            mirror = Updategram(
                inserts={k: set(v) for k, v in gram.inserts.items()},
                deletes={k: set(v) for k, v in gram.deletes.items()},
            )
            incremental.apply(gram)
            recomputed.recompute(mirror)
            assert incremental.tuples() == recomputed.tuples()

    def test_combined_updategrams_equal_sequential(self):
        instance = make_instance(100)
        view_sequential = IncrementalView(parse_query(QUERY), instance)
        view_combined = IncrementalView(parse_query(QUERY), instance)
        grams = [delta_gram(5, 100, seed=s) for s in range(4)]
        for gram in grams:
            view_sequential.apply(
                Updategram(
                    inserts={k: set(v) for k, v in gram.inserts.items()},
                    deletes={k: set(v) for k, v in gram.deletes.items()},
                )
            )
        view_combined.apply(Updategram.combine(grams))
        assert view_sequential.tuples() == view_combined.tuples()
