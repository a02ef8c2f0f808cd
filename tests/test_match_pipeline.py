"""Parity and regression tests for the corpus-scale matching pipeline.

The scale contract (PR 3, mirroring the C10/C11 pattern): every fast
path must be pinned to the seed per-sample implementation it replaces.

* ``predict_batch`` / ``predict`` == ``predict_brute_force`` bitwise,
  per learner and for the ensemble;
* ``CorpusMatchPipeline.match_source(blocking=False)`` ==
  ``match_source_brute_force`` bitwise across a generated ground-truthed
  workload, including tie and empty-schema edge cases;
* the blocking retrieval (``BasicStatistics.similar_schemas``) ==
  its brute-force scan;
* regression coverage for the PR's learner bugfixes
  (``format_features(None)``, the stratified stacking holdout).
"""

import pytest

from repro.corpus.match import CorpusMatchPipeline, MetaLearner, samples_of
from repro.corpus.match.learners import ElementSample, format_features
from repro.corpus.match.lsd import default_learners
from repro.corpus.match.meta import stratified_holdout_indices
from repro.corpus.model import CorpusSchema
from repro.corpus.stats import BasicStatistics
from repro.datasets.pdms_gen import synthetic_matching_workload
from repro.text import default_synonyms


@pytest.fixture(scope="module")
def workload():
    """A small multi-domain ground-truthed matching workload."""
    return synthetic_matching_workload(count=6, seed=3, domains=3)


@pytest.fixture(scope="module")
def trained_pipeline(workload):
    pipeline = CorpusMatchPipeline(workload.mediated)
    for schema, mapping in workload.training:
        pipeline.add_training_source(schema, mapping)
    return pipeline


def _rows(result):
    """Correspondences as comparable (source, target, score) rows, in order."""
    return [(c.source, c.target, c.score) for c in result]


class TestFormatFeaturesMissing:
    def test_none_gets_dedicated_feature(self):
        # Regression: str(None) classified missing values as a
        # capitalized word (['word', 'capitalized', 'len-0']).
        assert format_features(None) == ["missing"]

    def test_none_does_not_look_like_a_capitalized_word(self):
        for feature in ("word", "capitalized"):
            assert feature not in format_features(None)
        assert "capitalized" in format_features("None")  # the string is one

    def test_format_learner_statistics_not_polluted(self):
        # A NULL-riddled column must not be mistaken for a name column.
        from repro.corpus.match.learners import FormatLearner

        samples = [
            ElementSample("r.note", "note", [None, None, None, None], []),
            ElementSample("r.name", "name", ["Alice", "Bob", "Carol", "Dan"], []),
        ]
        learner = FormatLearner()
        learner.fit(samples, ["m.note", "m.name"])
        nulls = learner.predict(ElementSample("s.x", "x", [None, None], []))
        words = learner.predict(ElementSample("s.y", "y", ["Erin", "Frank"], []))
        assert nulls["m.note"] > nulls["m.name"]
        assert words["m.name"] > words["m.note"]


class TestStratifiedHoldout:
    def test_no_trailing_source_domination(self):
        # Regression: the seed took the trailing stack_fraction of
        # samples in insertion order, so with two training sources the
        # holdout came entirely from the second one.
        labels = ["A", "A", "B", "B"] + ["A", "A", "B", "B"]  # two sources
        holdout = stratified_holdout_indices(labels, 0.5)
        first_source = [index for index in holdout if index < 4]
        second_source = [index for index in holdout if index >= 4]
        assert first_source and second_source

    def test_every_multi_sample_label_represented(self):
        labels = ["A"] * 6 + ["B"] * 3 + ["C"] * 2
        holdout = stratified_holdout_indices(labels, 0.33)
        held_labels = {labels[index] for index in holdout}
        assert held_labels == {"A", "B", "C"}

    def test_singleton_labels_stay_in_training(self):
        holdout = stratified_holdout_indices(["A", "B", "B", "B"], 0.5)
        assert 0 not in holdout

    def test_deterministic_and_sorted(self):
        labels = ["A", "B"] * 10
        first = stratified_holdout_indices(labels, 0.25)
        assert first == stratified_holdout_indices(labels, 0.25)
        assert first == sorted(first)

    def test_fraction_scales_holdout_size(self):
        labels = ["A"] * 20 + ["B"] * 20
        small = stratified_holdout_indices(labels, 0.1)
        large = stratified_holdout_indices(labels, 0.5)
        assert len(small) == 4 and len(large) == 20


def _training_samples(workload):
    samples, labels = [], []
    for schema, mapping in workload.training:
        for sample in samples_of(schema):
            label = mapping.get(sample.path)
            if label is not None:
                samples.append(sample)
                labels.append(label)
    return samples, labels


class TestLearnerBatchParity:
    def test_fast_paths_bitwise_equal_brute_force(self, workload):
        samples, labels = _training_samples(workload)
        probes = [s for schema in workload.corpus.schemas.values() for s in samples_of(schema)]
        for learner in default_learners(default_synonyms()):
            learner.fit(samples, labels)
            per_sample = [learner.predict(probe) for probe in probes]
            brute = [learner.predict_brute_force(probe) for probe in probes]
            batch = learner.predict_batch(probes)
            assert per_sample == brute, learner.name
            assert batch == per_sample, learner.name

    def test_restricted_batch_covers_only_candidates(self, workload):
        samples, labels = _training_samples(workload)
        allowed = set(sorted(set(labels))[:5])
        probes = [ElementSample("s.x", "x", ["alpha", "beta"], ["y"])]
        for learner in default_learners():
            learner.fit(samples, labels)
            (restricted,) = learner.predict_batch(probes, allowed)
            assert set(restricted) <= allowed
            if restricted:
                assert sum(restricted.values()) == pytest.approx(1.0)


class TestMetaBatchParity:
    def test_ensemble_bitwise_parity(self, workload):
        samples, labels = _training_samples(workload)
        meta = MetaLearner(default_learners())
        meta.fit(samples, labels)
        probes = [s for schema in workload.corpus.schemas.values() for s in samples_of(schema)][:40]
        per_sample = [meta.predict(probe) for probe in probes]
        assert [meta.predict_brute_force(probe) for probe in probes] == per_sample
        assert meta.predict_batch(probes) == per_sample

    def test_partial_fit_matches_single_fit_learner_state(self, workload):
        samples, labels = _training_samples(workload)
        split = len(samples) // 2
        probes = [ElementSample("s.probe", "probe", ["gamma"], ["delta"])]
        for one_shot, incremental in zip(default_learners(), default_learners()):
            one_shot.fit(samples, labels)
            incremental.fit(samples[:split], labels[:split])
            incremental.partial_fit(samples[split:], labels[split:])
            assert one_shot.predict_batch(probes) == incremental.predict_batch(probes)


class TestPipelineParity:
    def test_blocking_off_bitwise_equals_brute_force(self, workload, trained_pipeline):
        for schema in workload.corpus.schemas.values():
            fast = trained_pipeline.match_source(schema, blocking=False)
            brute = trained_pipeline.match_source_brute_force(schema)
            assert _rows(fast) == _rows(brute)

    def test_blocked_run_covers_the_same_sources(self, workload, trained_pipeline):
        results = trained_pipeline.match_corpus(workload.corpus)
        assert set(results) == set(workload.corpus.schemas)
        for schema in workload.corpus.schemas.values():
            blocked = results[schema.name]
            assert {c.source for c in blocked} == {s.path for s in samples_of(schema)}

    def test_empty_schema(self, trained_pipeline):
        empty = CorpusSchema("empty")
        assert len(trained_pipeline.match_source(empty)) == 0
        assert len(trained_pipeline.match_source_brute_force(empty)) == 0

    def test_attributeless_relation(self, trained_pipeline):
        bare = CorpusSchema("bare")
        bare.add_relation("r", [])
        assert len(trained_pipeline.match_source(bare)) == 0

    def test_untrained_pipeline_raises(self, workload):
        pipeline = CorpusMatchPipeline(workload.mediated)
        schema = next(iter(workload.corpus.schemas.values()))
        with pytest.raises(ValueError):
            pipeline.match_source(schema)
        with pytest.raises(ValueError):
            pipeline.candidate_sources(schema)

    def test_no_overlap_schema_falls_back_to_full_scoring(self, trained_pipeline):
        # A schema sharing no term with any training source must get
        # the full label space, not an empty result.
        alien = CorpusSchema("alien")
        alien.add_relation("zzqqj", ["xxkkw", "vvrrt"], [("qqq", "www")])
        assert trained_pipeline.candidate_labels(alien) is None
        blocked = trained_pipeline.match_source(alien, blocking=True)
        unblocked = trained_pipeline.match_source(alien, blocking=False)
        assert _rows(blocked) == _rows(unblocked)
        assert len(blocked) == 2

    def test_tied_labels_resolve_identically(self):
        # Two mediated labels with byte-identical training evidence tie
        # exactly; the fast and brute paths must break the tie the same
        # way (same winner, same score).
        mediated = CorpusSchema("mediated")
        mediated.add_relation("m1", ["code"])
        mediated.add_relation("m2", ["code"])
        pipeline = CorpusMatchPipeline(mediated)
        values = [("A1",), ("B2",), ("C3",)]
        for index, label in enumerate(("m1.code", "m2.code")):
            training = CorpusSchema(f"t{index}")
            training.add_relation(f"r{index}", ["code"], values)
            pipeline.add_training_source(training, {f"r{index}.code": label})
        probe = CorpusSchema("probe")
        probe.add_relation("r9", ["code"], values)
        fast = pipeline.match_source(probe, blocking=False)
        brute = pipeline.match_source_brute_force(probe)
        assert _rows(fast) == _rows(brute)
        assert len(fast) == 1

    def test_stats_snapshot_counts_blocking(self, workload):
        pipeline = CorpusMatchPipeline(workload.mediated)
        for schema, mapping in workload.training:
            pipeline.add_training_source(schema, mapping)
        pipeline.match_corpus(workload.corpus)
        snapshot = pipeline.stats_snapshot()
        assert snapshot["sources_matched"] == len(workload.corpus.schemas)
        assert snapshot["training_sources"] == len(workload.training)
        # The ciphered domains share no vocabulary, so blocking engages
        # everywhere and prunes the label space.
        assert snapshot["blocked_sources"] == snapshot["sources_matched"]
        assert snapshot["label_fraction_scored"] < 1.0


class TestIncrementalTraining:
    def test_add_training_source_is_incremental(self, workload):
        pipeline = CorpusMatchPipeline(workload.mediated)
        added = [
            pipeline.add_training_source(schema, mapping)
            for schema, mapping in workload.training
        ]
        assert all(count > 0 for count in added)
        assert pipeline.label_count == len(
            {label for _, mapping in workload.training for label in mapping.values()}
        )

    def test_weights_refresh_lazily(self, workload):
        pipeline = CorpusMatchPipeline(workload.mediated)
        for schema, mapping in workload.training:
            pipeline.add_training_source(schema, mapping)
        assert pipeline.meta._weights_stale
        schema = next(iter(workload.corpus.schemas.values()))
        pipeline.match_source(schema)
        assert not pipeline.meta._weights_stale

    def test_new_domain_learned_incrementally(self, workload):
        # Fold a mapped source from a brand-new domain in; a sibling
        # source must then match to the new labels.
        pipeline = CorpusMatchPipeline(workload.mediated)
        for schema, mapping in workload.training:
            pipeline.add_training_source(schema, mapping)
        before = pipeline.label_count
        extra = CorpusSchema("extra-train")
        extra.add_relation(
            "archive", ["box", "shelf"], [("bx-1", "s-low"), ("bx-2", "s-high")]
        )
        pipeline.add_training_source(
            extra, {"archive.box": "storage.box", "archive.shelf": "storage.shelf"}
        )
        assert pipeline.label_count == before + 2
        sibling = CorpusSchema("extra-probe")
        sibling.add_relation(
            "archive", ["box", "shelf"], [("bx-7", "s-mid"), ("bx-9", "s-low")]
        )
        predicted = pipeline.match_source(sibling).mapping()
        assert predicted["archive.box"] == "storage.box"
        assert predicted["archive.shelf"] == "storage.shelf"


class TestBlockingRetrieval:
    def test_similar_schemas_engine_matches_brute_force(self, workload, trained_pipeline):
        stats: BasicStatistics = trained_pipeline.stats
        for schema in list(workload.corpus.schemas.values())[:4]:
            profile = stats.schema_profile(schema)
            assert stats.similar_schemas(profile, 5) == stats.similar_schemas_brute_force(
                profile, 5
            )

    def test_corpus_member_retrieves_itself_first(self, workload, trained_pipeline):
        stats = trained_pipeline.stats
        schema, _ = workload.training[0]
        ranked = stats.similar_schemas(stats.schema_profile(schema), 3)
        assert ranked[0][0] == schema.name
        assert ranked[0][1] == pytest.approx(1.0)

    def test_candidate_sources_stay_in_domain(self, workload, trained_pipeline):
        # Ciphered domains share no vocabulary: every retrieved
        # candidate source belongs to the incoming schema's domain.
        for name, schema in workload.corpus.schemas.items():
            domain = workload.domain_of[name]
            for source, _score in trained_pipeline.candidate_sources(schema):
                assert workload.domain_of[source] == domain
