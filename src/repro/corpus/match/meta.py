"""The multi-strategy meta-learner (LSD's stacking combiner).

LSD combines its base learners with regression-trained weights; here the
weights are fit by non-negative least squares on a held-out fraction of
the training data (numpy ``lstsq`` + clipping, which is ample at this
scale).  If training data is too small to stack, weights fall back to
uniform.

The holdout is a **deterministic interleaved per-label split**
(:func:`stratified_holdout_indices`): the seed took the trailing
``stack_fraction`` of samples in insertion order, so the holdout was
dominated by the last-added training source and the stacking weights
were fit on an unrepresentative slice (a learner that happened to ace
that one source's vocabulary could grab all the weight).

Scale (PR 3): :meth:`MetaLearner.partial_fit` folds new training
sources in without a full refit — base learners update incrementally
(their state is additive, identical to a refit) and the stacking
weights are only marked stale; the first prediction afterwards
refreshes them in one pass over the accumulated data
(:meth:`_refresh_weights`).  ``predict_batch`` serves many samples with
features computed once and an optional candidate-label restriction;
``predict_brute_force`` combines the learners' seed per-sample paths
and is the parity oracle for the whole ensemble.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro import obs as _obs
from repro.corpus.match.learners import BaseLearner, ElementSample
from repro.runtime import ExecutionRuntime, SerialRuntime

_RRF_K = 1.0


def _score_learner(task):
    """One learner's batched scoring — the fan-out work unit.

    Module-level (not a closure) so a :class:`~repro.runtime.
    ProcessPoolRuntime` can pickle it for CPU-bound fan-out; in-process
    runtimes call it on the shared learner objects directly.  Returns
    the distributions plus the scoring time so the per-learner timing
    histograms can be recorded by the coordinating thread.
    """
    learner, samples, labels = task
    started = perf_counter()
    distributions = learner.predict_batch(samples, labels)
    return distributions, (perf_counter() - started) * 1000.0


def stratified_holdout_indices(labels: list[str], fraction: float) -> list[int]:
    """Deterministic interleaved per-label holdout split.

    For each label (in sorted order), its samples — in insertion order,
    i.e. in training-source order — contribute ``max(1, n * fraction)``
    holdout slots at evenly spaced positions, so every label is
    represented and no single training source dominates the holdout.
    Labels with a single sample stay in the training split.
    """
    by_label: dict[str, list[int]] = {}
    for index, label in enumerate(labels):
        by_label.setdefault(label, []).append(index)
    holdout: list[int] = []
    for label in sorted(by_label):
        indices = by_label[label]
        if len(indices) < 2:
            continue
        count = max(1, int(len(indices) * fraction))
        step = len(indices) / count
        chosen = {min(int((slot + 0.5) * step), len(indices) - 1) for slot in range(count)}
        holdout.extend(indices[position] for position in sorted(chosen))
    return sorted(holdout)


def _combine(weights, predictions, labels) -> dict[str, float]:
    """Weighted reciprocal-rank fusion of the learners' score lists.

    Base learners emit distributions on wildly different scales (naive
    Bayes is near-one-hot, name similarity is diffuse), so combining raw
    scores lets one overconfident learner veto the rest.  Rank fusion
    (``1 / (k + rank)`` per learner, weighted) is scale-free: each
    learner contributes its *ordering*, with influence set by its weight.
    """
    label_set = set(labels)
    for scores in predictions:
        label_set.update(scores)
    combined: dict[str, float] = dict.fromkeys(label_set, 0.0)
    for weight, scores in zip(weights, predictions):
        if weight == 0.0 or not scores:
            continue
        ranked = sorted(scores.items(), key=lambda item: -item[1])
        for rank, (label, _score) in enumerate(ranked, start=1):
            combined[label] += float(weight) / (_RRF_K + rank)
    total = sum(combined.values())
    if total > 0:
        combined = {label: score / total for label, score in combined.items()}
    return combined


class MetaLearner:
    """Weighted combination of base learners."""

    def __init__(
        self,
        learners: list[BaseLearner],
        stack_fraction: float = 0.33,
        obs: "_obs.Observability | None" = None,
        runtime: "ExecutionRuntime | None" = None,
    ):  # noqa: D107
        if not learners:
            raise ValueError("MetaLearner needs at least one base learner")
        self.learners = learners
        # Fan-out runtime for per-learner batched scoring (ISSUE 9):
        # learners are independent given frozen weights, and the work
        # unit is a picklable module-level function, so thread AND
        # process pools both apply here.
        self.runtime = runtime or SerialRuntime()
        self.stack_fraction = stack_fraction
        self.weights = np.ones(len(learners)) / len(learners)
        self.labels: list[str] = []
        self._samples: list[ElementSample] = []
        self._sample_labels: list[str] = []
        self._weights_stale = False
        # One latency histogram per base learner, keyed by class name —
        # where batched prediction time actually goes, learner by learner.
        metrics = (obs or _obs.default()).metrics
        self._learner_timers = [
            metrics.histogram(f"match.learner.{type(learner).__name__}.ms")
            for learner in learners
        ]

    # -- training -------------------------------------------------------------
    def _fit_learners(self, samples, labels) -> None:
        for learner in self.learners:
            learner.fit(samples, labels)

    def _fold_in(self, samples, labels) -> None:
        """Incrementally extend trained learners (fallback: full refit)."""
        for learner in self.learners:
            try:
                learner.partial_fit(samples, labels)
            except NotImplementedError:
                learner.fit(self._samples, self._sample_labels)

    def _stack_predictions(self, samples) -> list[list[dict[str, float]]]:
        """Per-sample lists of per-learner distributions (batched)."""
        per_learner = [learner.predict_batch(samples) for learner in self.learners]
        return [
            [predictions[index] for predictions in per_learner]
            for index in range(len(samples))
        ]

    def fit(self, samples: list[ElementSample], labels: list[str]) -> None:
        """Train base learners, then fit combination weights by stacking.

        Two weighting candidates are fit on the held-out fraction —
        non-negative least squares over the score matrix (LSD's
        regression) and per-learner holdout accuracy (robust when some
        learners emit peaked and others diffuse distributions) — and the
        one with the higher holdout accuracy wins.
        """
        self._samples = list(samples)
        self._sample_labels = list(labels)
        self.labels = sorted(set(labels))
        self._weights_stale = False
        holdout = stratified_holdout_indices(labels, self.stack_fraction)
        if (
            len(samples) <= len(self.learners)
            or not holdout
            or len(samples) - len(holdout) < 1
        ):
            self._fit_learners(samples, labels)
            self.weights = np.ones(len(self.learners)) / len(self.learners)
            return
        holdout_set = set(holdout)
        train_samples = [s for i, s in enumerate(samples) if i not in holdout_set]
        train_labels = [l for i, l in enumerate(labels) if i not in holdout_set]
        stack_samples = [samples[i] for i in holdout]
        stack_labels = [labels[i] for i in holdout]
        self._fit_learners(train_samples, train_labels)
        predictions_per_sample = self._stack_predictions(stack_samples)
        self.weights = self._select_weights(predictions_per_sample, stack_labels)
        # Complete training on the full set: the built-in learners are
        # additive, so folding the holdout in equals a full refit
        # without paying for one.
        self._fold_in(stack_samples, stack_labels)

    def partial_fit(self, samples: list[ElementSample], labels: list[str]) -> None:
        """Fold additional labeled samples in without a full refit.

        Base learners update incrementally; the stacking weights are
        only marked stale and refreshed lazily on the next prediction,
        so adding N training sources costs N incremental updates plus
        one weight fit instead of N full refits.
        """
        self._samples.extend(samples)
        self._sample_labels.extend(labels)
        self.labels = sorted(set(self.labels) | set(labels))
        self._fold_in(samples, labels)
        self._weights_stale = True

    def _refresh_weights(self) -> None:
        if not self._weights_stale:
            return
        self._weights_stale = False
        samples, labels = self._samples, self._sample_labels
        holdout = stratified_holdout_indices(labels, self.stack_fraction)
        if (
            len(samples) <= len(self.learners)
            or not holdout
            or len(samples) - len(holdout) < 1
        ):
            self.weights = np.ones(len(self.learners)) / len(self.learners)
            return
        # The learners are already trained on everything (incremental
        # adds), so the holdout was seen in training — a slightly
        # optimistic evaluation, traded for never refitting; the
        # candidate comparison is still apples-to-apples.
        stack_samples = [samples[i] for i in holdout]
        stack_labels = [labels[i] for i in holdout]
        predictions_per_sample = self._stack_predictions(stack_samples)
        self.weights = self._select_weights(predictions_per_sample, stack_labels)

    def _select_weights(self, predictions_per_sample, stack_labels) -> np.ndarray:
        """Pick the best weighting candidate on the holdout predictions."""
        # Candidate 1: least-squares regression weights.
        rows: list[list[float]] = []
        targets: list[float] = []
        for predictions, true_label in zip(predictions_per_sample, stack_labels):
            for label in self.labels:
                rows.append([p.get(label, 0.0) for p in predictions])
                targets.append(1.0 if label == true_label else 0.0)
        candidates: list[np.ndarray] = []
        matrix = np.asarray(rows)
        vector = np.asarray(targets)
        if matrix.size and np.linalg.matrix_rank(matrix) > 0:
            solution, *_ = np.linalg.lstsq(matrix, vector, rcond=None)
            solution = np.clip(solution, 0.0, None)
            if solution.sum() > 0:
                candidates.append(solution / solution.sum())

        # Candidate 2: per-learner holdout accuracy (squared to sharpen).
        accuracies = np.zeros(len(self.learners))
        for index in range(len(self.learners)):
            correct = 0
            for predictions, true_label in zip(predictions_per_sample, stack_labels):
                scores = predictions[index]
                if scores and max(scores, key=scores.get) == true_label:
                    correct += 1
            accuracies[index] = correct / max(len(stack_labels), 1)
        if accuracies.sum() > 0:
            sharpened = accuracies**2
            candidates.append(sharpened / sharpened.sum())
        candidates.append(np.ones(len(self.learners)) / len(self.learners))

        def holdout_quality(weights: np.ndarray) -> tuple[float, float]:
            """(accuracy, MRR of the true label) — MRR breaks ties."""
            correct = 0
            reciprocal_ranks = 0.0
            for predictions, true_label in zip(predictions_per_sample, stack_labels):
                combined = _combine(weights, predictions, self.labels)
                if not combined:
                    continue
                ranked = sorted(combined.items(), key=lambda item: -item[1])
                if ranked[0][0] == true_label:
                    correct += 1
                for rank, (label, _score) in enumerate(ranked, start=1):
                    if label == true_label:
                        reciprocal_ranks += 1.0 / rank
                        break
            count = max(len(stack_labels), 1)
            return (correct / count, reciprocal_ranks / count)

        return max(candidates, key=holdout_quality)

    def freeze_weights(self) -> None:
        """Refresh stale stacking weights now, on the calling thread.

        Fan-out call sites (``match_corpus``) invoke this before
        handing samples to worker threads so every worker predicts
        against identical, already-refreshed learner state instead of
        racing the lazy refresh.
        """
        self._refresh_weights()

    # -- prediction -----------------------------------------------------------
    def predict(self, sample: ElementSample) -> dict[str, float]:
        """Rank-fused combination of the base learners (fast paths)."""
        self._refresh_weights()
        predictions = [learner.predict(sample) for learner in self.learners]
        return _combine(self.weights, predictions, self.labels)

    def predict_batch(
        self, samples: list[ElementSample], labels: set | None = None
    ) -> list[dict[str, float]]:
        """Distributions for many samples at once.

        Element features are computed once per sample and shared across
        learners (the :class:`ElementSample` feature memo); ``labels``
        restricts scoring to a candidate subset (the pipeline's
        blocking).  With ``labels=None`` the output is bitwise
        identical to per-sample :meth:`predict`.

        One runtime task per learner — each learner's output depends
        only on its own trained state, so the combined distributions
        do not depend on the runtime (``tests/test_runtime.py`` pins it
        bitwise).  Weights are refreshed *before* the fan-out, on the
        calling thread, so tasks see frozen learner state.
        """
        self._refresh_weights()
        tasks = [(learner, samples, labels) for learner in self.learners]
        per_learner = []
        for (distributions, ms), timer in zip(
            self.runtime.map(_score_learner, tasks), self._learner_timers
        ):
            per_learner.append(distributions)
            timer.observe(ms)
        if labels is None:
            combine_labels = self.labels
        else:
            combine_labels = [label for label in self.labels if label in labels]
        return [
            _combine(
                self.weights,
                [predictions[index] for predictions in per_learner],
                combine_labels,
            )
            for index in range(len(samples))
        ]

    def predict_brute_force(self, sample: ElementSample) -> dict[str, float]:
        """The seed per-sample path: every learner's unmemoized,
        per-label-loop scoring (parity oracle and benchmark baseline)."""
        self._refresh_weights()
        predictions = [learner.predict_brute_force(sample) for learner in self.learners]
        return _combine(self.weights, predictions, self.labels)

    def predict_vector(self, sample: ElementSample) -> np.ndarray:
        """Prediction as a dense vector over ``self.labels`` (for the
        MATCHINGADVISOR correlation method)."""
        scores = self.predict(sample)
        return np.asarray([scores.get(label, 0.0) for label in self.labels])

    def predict_vector_batch(self, samples: list[ElementSample]) -> list[np.ndarray]:
        """Dense prediction vectors for many samples (batched)."""
        return [
            np.asarray([scores.get(label, 0.0) for label in self.labels])
            for scores in self.predict_batch(samples)
        ]
