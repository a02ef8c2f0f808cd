"""CorpusMatchPipeline: schema matching against a corpus, at scale.

The LSD workflow (Section 4.3.2) says "the first few data sources be
manually mapped ... the system should be able to predict mappings for
subsequent data sources".  The seed reproduced that at toy scale: every
element of every incoming schema scored against *every* mediated label
with per-sample Python loops.  This module is the chasm-crossing
version — match whole corpora of incoming schemas against a mediated
schema whose label space is itself corpus-sized — built from three
pieces:

1. **Candidate blocking.**  Training sources live in a little corpus
   of their own; its :class:`~repro.corpus.stats.BasicStatistics` /
   :class:`~repro.search.engine.CorpusSearchEngine` index each source's
   normalized name/instance term profile.  An incoming schema retrieves
   its ``block_k`` most similar training sources (posting-pruned top-k
   cosine) and only the labels those sources were mapped to are scored.
   In a multi-domain mediated schema this cuts the label space by
   roughly the number of domains.

2. **Batched prediction.**  ``MetaLearner.predict_batch`` featurizes
   each element once (shared across learners via the
   :class:`~repro.corpus.match.learners.ElementSample` feature memo)
   and scores tokens-then-labels over precomputed count arrays.  With
   blocking off the output is bitwise identical to the seed per-sample
   path, which survives as :meth:`match_source_brute_force`.

3. **Incremental training.**  :meth:`add_training_source` folds a new
   mapped source into the learners and the blocking index without a
   full refit; the stacking weights are refreshed lazily on the next
   prediction.

``benchmarks/bench_c12_match_scale.py`` asserts the speedup (>= 10x at
a 1k-schema corpus) and precision/recall/F1 parity with brute force on
the ground-truthed workload; ``tests/test_match_pipeline.py`` pins the
bitwise parity guarantees.
"""

from __future__ import annotations

import threading

from repro import obs as _obs
from repro.corpus.match.base import MatchResult
from repro.corpus.match.learners import samples_of
from repro.corpus.match.lsd import default_learners
from repro.corpus.match.meta import MetaLearner
from repro.corpus.model import Corpus, CorpusSchema
from repro.corpus.stats import BasicStatistics, StatisticsOptions
from repro.text import SynonymTable


class CorpusMatchPipeline:
    """Match incoming schemas against a mediated schema, corpus-scale.

    ``mediated`` is the mediated schema (possibly the union of many
    domain fragments); training examples arrive through
    :meth:`add_training_source` as (schema, source-path -> mediated-
    path) pairs, exactly the "first few sources mapped manually" setup.
    """

    def __init__(
        self,
        mediated: CorpusSchema,
        learners: list | None = None,
        synonyms: SynonymTable | None = None,
        options: StatisticsOptions | None = None,
        block_k: int = 4,
        threshold: float = 0.0,
        one_to_one: bool = False,
        obs: "_obs.Observability | None" = None,
    ):  # noqa: D107
        self.mediated = mediated
        self.obs = obs or _obs.default()
        self.meta = MetaLearner(learners or default_learners(synonyms), obs=self.obs)
        self.block_k = block_k
        self.threshold = threshold
        self.one_to_one = one_to_one
        # The training sources form a corpus of their own; its search
        # engine serves the blocking retrieval.
        self.training = Corpus()
        self.stats = BasicStatistics(
            self.training, options or StatisticsOptions(synonyms=synonyms)
        )
        self.stats.configure_engine(obs=self.obs)
        self._labels_by_source: dict[str, frozenset[str]] = {}
        self._sample_count = 0
        self.counters = {
            "sources_matched": 0,
            "blocked_sources": 0,
            "labels_scored": 0,
            "labels_available": 0,
        }
        # Dict += is read-modify-write: callers matching from several
        # threads must not lose counts (registry instruments lock
        # themselves).
        self._counter_lock = threading.Lock()
        # The per-object counters above stay the stats_snapshot() source
        # of truth; the registry mirrors them under ``match.*`` so they
        # aggregate with the rest of the stack in one explain() report.
        metrics = self.obs.metrics
        self._m_sources = metrics.counter("match.sources_matched")
        self._m_blocked = metrics.counter("match.blocked_sources")
        self._m_labels_scored = metrics.counter("match.labels_scored")
        self._m_labels_available = metrics.counter("match.labels_available")
        self._h_candidates = metrics.histogram(
            "match.blocking_candidates", _obs.DEFAULT_BUCKETS_COUNT
        )
        self._h_batch = metrics.histogram(
            "match.batch_size", _obs.DEFAULT_BUCKETS_COUNT
        )

    # -- training -------------------------------------------------------------
    def add_training_source(self, schema: CorpusSchema, mapping: dict[str, str]) -> int:
        """Fold one manually mapped source in; returns samples added.

        Incremental: base learners update additively (state identical
        to a full refit), the blocking index ingests just this schema,
        and the stacking weights are refreshed lazily on the next
        prediction — no full refit per source.
        """
        samples = []
        labels = []
        for sample in samples_of(schema):
            label = mapping.get(sample.path)
            if label is None:
                continue
            samples.append(sample)
            labels.append(label)
        if not samples:
            return 0
        self.meta.partial_fit(samples, labels)
        self.stats.add_schema(schema)
        self._labels_by_source[schema.name] = frozenset(labels)
        self._sample_count += len(samples)
        return len(samples)

    @property
    def label_count(self) -> int:
        """Distinct mediated labels seen in training."""
        return len(self.meta.labels)

    def _require_training(self) -> None:
        if self._sample_count == 0:
            raise ValueError("no training sources added")

    # -- candidate blocking ----------------------------------------------------
    def candidate_sources(
        self, schema: CorpusSchema, limit: int | None = None
    ) -> list[tuple[str, float]]:
        """The ``limit`` training sources most similar to ``schema``
        (engine-served top-k over name/instance posting overlap)."""
        self._require_training()
        profile = self.stats.schema_profile(schema)
        return self.stats.similar_schemas(profile, limit or self.block_k)

    def candidate_labels(self, schema: CorpusSchema) -> set[str] | None:
        """Union of the labels the blocked training sources map to.

        ``None`` means "no overlap at all — score every label" (an
        incoming schema sharing no term with any training source gets
        the full, correct-but-slow treatment rather than an empty
        result).
        """
        ranked = self.candidate_sources(schema)
        if not ranked:
            return None
        allowed: set[str] = set()
        for name, _score in ranked:
            allowed |= self._labels_by_source[name]
        return allowed

    # -- matching -------------------------------------------------------------
    def _assemble(self, samples, distributions, threshold, one_to_one) -> MatchResult:
        result = MatchResult()
        for sample, scores in zip(samples, distributions):
            for label, score in scores.items():
                if score >= threshold:
                    result.add(sample.path, label, score)
        return result.one_to_one() if one_to_one else result.best_per_source()

    def match_source(
        self,
        schema: CorpusSchema,
        blocking: bool = True,
        threshold: float | None = None,
        one_to_one: bool | None = None,
    ) -> MatchResult:
        """Predict the mediated element for every attribute of ``schema``.

        With ``blocking=False`` every trained label is scored and the
        result is bitwise identical to :meth:`match_source_brute_force`.
        """
        self._require_training()
        with self.obs.tracer.span(
            "match.source", schema=schema.name, blocking=blocking
        ) as span:
            samples = samples_of(schema)
            labels = self.candidate_labels(schema) if blocking else None
            with self._counter_lock:
                self.counters["sources_matched"] += 1
                self.counters["labels_available"] += self.label_count
                if labels is None:
                    self.counters["labels_scored"] += self.label_count
                else:
                    self.counters["blocked_sources"] += 1
                    self.counters["labels_scored"] += len(labels)
            self._m_sources.inc()
            self._m_labels_available.inc(self.label_count)
            if labels is None:
                self._m_labels_scored.inc(self.label_count)
                self._h_candidates.observe(self.label_count)
            else:
                self._m_blocked.inc()
                self._m_labels_scored.inc(len(labels))
                self._h_candidates.observe(len(labels))
            self._h_batch.observe(len(samples))
            span.annotate(
                samples=len(samples),
                labels_scored=self.label_count if labels is None else len(labels),
            )
            distributions = self.meta.predict_batch(samples, labels)
        return self._assemble(
            samples,
            distributions,
            self.threshold if threshold is None else threshold,
            self.one_to_one if one_to_one is None else one_to_one,
        )

    def match_source_brute_force(
        self,
        schema: CorpusSchema,
        threshold: float | None = None,
        one_to_one: bool | None = None,
    ) -> MatchResult:
        """The seed path: per-sample scoring of every label, features
        recomputed per learner (parity oracle, benchmark baseline)."""
        self._require_training()
        samples = samples_of(schema)
        distributions = [self.meta.predict_brute_force(sample) for sample in samples]
        return self._assemble(
            samples,
            distributions,
            self.threshold if threshold is None else threshold,
            self.one_to_one if one_to_one is None else one_to_one,
        )

    def match_corpus(
        self, corpus: Corpus, blocking: bool = True
    ) -> dict[str, MatchResult]:
        """Predict mappings for every schema in ``corpus`` — the
        paper's "predict mappings for subsequent data sources", plural.

        Each source takes the full :meth:`match_source` path, in corpus
        order.  An empty corpus is ``{}``, trained or not.
        """
        with self.obs.tracer.span("match.corpus", sources=len(corpus.schemas)):
            return {
                name: self.match_source(schema, blocking=blocking)
                for name, schema in corpus.schemas.items()
            }

    # -- introspection ---------------------------------------------------------
    def stats_snapshot(self) -> dict:
        """Blocking effectiveness counters + engine index sizes."""
        snapshot = dict(self.counters)
        snapshot["training_sources"] = len(self._labels_by_source)
        snapshot["training_samples"] = self._sample_count
        snapshot["labels"] = self.label_count
        if self.counters["labels_available"]:
            snapshot["label_fraction_scored"] = (
                self.counters["labels_scored"] / self.counters["labels_available"]
            )
        snapshot["engine"] = self.stats.engine.stats_snapshot()
        return snapshot
