"""The LSD workflow: learn from manually mapped sources, predict new ones.

"The idea in LSD was that the first few data sources be manually mapped
to the mediated schema.  Based on this training, the system should be
able to predict mappings for subsequent data sources." (Section 4.3.2.)
"""

from __future__ import annotations

from repro.corpus.match.base import MatchResult
from repro.corpus.match.learners import (
    ElementSample,
    FormatLearner,
    NaiveBayesLearner,
    NameLearner,
    StructureLearner,
    samples_of,
)
from repro.corpus.match.meta import MetaLearner
from repro.corpus.model import CorpusSchema
from repro.text import SynonymTable


def default_learners(synonyms: SynonymTable | None = None) -> list:
    """The standard four-learner ensemble."""
    return [
        NameLearner(synonyms=synonyms),
        NaiveBayesLearner(),
        FormatLearner(),
        StructureLearner(),
    ]


class LSDMatcher:
    """Train per-mediated-element classifiers; match unseen sources.

    ``mediated`` is the mediated schema; training examples are provided
    via :meth:`add_training_source` as (schema, source-path -> mediated-
    path) pairs, exactly the "first few sources mapped manually" setup.
    """

    def __init__(
        self,
        mediated: CorpusSchema,
        learners: list | None = None,
        synonyms: SynonymTable | None = None,
    ):  # noqa: D107
        self.mediated = mediated
        self.meta = MetaLearner(learners or default_learners(synonyms))
        self._samples: list[ElementSample] = []
        self._labels: list[str] = []
        self._trained = False

    def add_training_source(self, schema: CorpusSchema, mapping: dict[str, str]) -> int:
        """Add a manually mapped source; returns samples contributed.

        ``mapping`` sends source attribute paths to mediated attribute
        paths; unmapped attributes are skipped (partial mappings are
        normal).
        """
        added = 0
        for sample in samples_of(schema):
            label = mapping.get(sample.path)
            if label is None:
                continue
            self._samples.append(sample)
            self._labels.append(label)
            added += 1
        self._trained = False
        return added

    def train(self) -> None:
        """Fit the ensemble on all training sources."""
        if not self._samples:
            raise ValueError("no training sources added")
        self.meta.fit(self._samples, self._labels)
        self._trained = True

    def match_source(
        self, schema: CorpusSchema, threshold: float = 0.0, one_to_one: bool = False
    ) -> MatchResult:
        """Predict the mediated element for every attribute of ``schema``.

        Served by the ensemble's batched fast path (features computed
        once per element, precomputed learner tables) — output is
        bitwise identical to :meth:`match_source_brute_force`.
        """
        if not self._trained:
            self.train()
        samples = samples_of(schema)
        result = MatchResult()
        for sample, scores in zip(samples, self.meta.predict_batch(samples)):
            for label, score in scores.items():
                if score >= threshold:
                    result.add(sample.path, label, score)
        result = result.best_per_source() if not one_to_one else result.one_to_one()
        return result

    def match_source_brute_force(
        self, schema: CorpusSchema, threshold: float = 0.0, one_to_one: bool = False
    ) -> MatchResult:
        """The seed per-sample path (parity oracle, benchmark baseline)."""
        if not self._trained:
            self.train()
        result = MatchResult()
        for sample in samples_of(schema):
            scores = self.meta.predict_brute_force(sample)
            for label, score in scores.items():
                if score >= threshold:
                    result.add(sample.path, label, score)
        result = result.best_per_source() if not one_to_one else result.one_to_one()
        return result
