"""The MARLINE model: concept pools per stream, drift-triggered ensemble
creation, incremental sub-classifier performance tracking on the current
target concept, and weighted-majority prediction across all concepts.

Each example is checked and converted to one list of floats. The current
target concept's pass from a prediction is kept and reused by the drift
check, which hands it to training; a boosting ensemble keeps the pass its
training computed, which the weight update then reuses. Any other concept
sees its projection of the example, unless all its trees are single leaves
answering by majority: then its kept fixed pass is the (k, 2) array the
vote multiplies. The target concept's frame is built only when a concept
projects.

The voting weights are state, written wherever the performance stats are,
and snapshots store them. The kept passes, the fixed passes and the
concept frames stay lazy caches that snapshots drop, because most steps
skip them: no frame is built unless a concept projects, and a kept or fixed
pass holds only until its ensemble learns.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .core import (
    NEG,
    ConfigurationError,
    DataError,
    Example,
    argmax_label,
    check_features,
)
from .drift import DriftStatus, make_detector
from .learners import ENSEMBLES, HoeffdingTreeParams, Pair, make_ensemble, mean_pair
from .mapping import CentroidTracker, Reflections

# A snapshot loads only at the version it was saved at; a layout change bumps it.
SNAPSHOT_VERSION = 6
# The first line of a snapshot, checked before anything in it is unpickled.
SNAPSHOT_HEADER = b"marline-model %d\n" % SNAPSHOT_VERSION

DEFAULT_TARGET_ID = "T"

# Floor on the weighted-performance sums SC and SW, so that SW/SC stays finite.
EPS_CLAMP = 1e-10


@dataclass(frozen=True)
class MarlineConfig:
    """Hyperparameters shared by a model and the experiment runner."""

    n_features: int
    ensemble_size: int = 20
    base_ensemble: str = "bagging"
    detector: str = "hddm_a"
    forgetting_factor: float = 0.9
    performance_index: float = 0.4
    tree: HoeffdingTreeParams = field(default_factory=HoeffdingTreeParams)
    detector_params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_features < 1:
            raise ConfigurationError("n_features must be >= 1")
        if self.ensemble_size < 1:
            raise ConfigurationError("ensemble_size must be >= 1")
        if self.base_ensemble not in ENSEMBLES:
            raise ConfigurationError(
                f"base_ensemble must be one of {tuple(ENSEMBLES)}, got {self.base_ensemble!r}"
            )
        # Build one detector now, so that an unknown kind or a parameter it
        # does not take is rejected even where no model is ever made.
        make_detector(self.detector, **self.detector_params)
        if not 0.0 < self.forgetting_factor <= 1.0:
            raise ConfigurationError("forgetting_factor must be in (0, 1]")
        if not 0.0 <= self.performance_index <= 1.0:
            raise ConfigurationError("performance_index must be in [0, 1]")


@dataclass
class Prediction:
    label: int
    scores: np.ndarray
    cold_start: bool = False


class ConceptState:
    """One concept of one stream: its ensemble and centroid tracker. The
    performance stats of its sub-classifiers live in the owning model."""

    def __init__(self, config: MarlineConfig) -> None:
        self.ensemble = make_ensemble(
            config.base_ensemble,
            config.n_features,
            config.ensemble_size,
            config.tree,
        )
        self.tracker = CentroidTracker(config.n_features, config.forgetting_factor)


class StreamPool:
    """Ordered concepts observed on one stream, plus its drift detector.

    Only the last concept is ever trained; earlier ones are frozen history.
    """

    def __init__(self, config: MarlineConfig) -> None:
        self.concepts: list[ConceptState] = []
        self.detector = make_detector(config.detector, **dict(config.detector_params))

    @property
    def concept_count(self) -> int:
        return len(self.concepts)

    @property
    def current(self) -> ConceptState:
        return self.concepts[-1]


def update_performance_stats(
    lambda_correct: np.ndarray,
    lambda_wrong: np.ndarray,
    performance: np.ndarray,
    p_correct: np.ndarray,
    forgetting_factor: float,
    eps_clamp: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float]:
    """One incremental performance update for a flat collection of
    sub-classifiers, given each one's probability for the true label.

    Returns the new (lambda_correct, lambda_wrong, performance) arrays plus
    the ensemble confidence sums (SC, SW) used for the example weight SW/SC.
    All contributions use the pre-update performance values.
    """
    # Each step works in place on a temporary where it can, with the
    # operands of every product and sum in the order of the formula
    # performance * p, performance * (1 - p), theta * lambda + w * term / s.
    p = np.maximum(p_correct, 0.0)
    np.minimum(p, 1.0, out=p)
    confident = performance * p
    np.subtract(1.0, p, out=p)
    doubtful = np.multiply(performance, p, out=p)
    sc = max(float(np.add.reduce(confident)), eps_clamp)
    sw = max(float(np.add.reduce(doubtful)), eps_clamp)
    example_weight = sw / sc
    new_correct = forgetting_factor * lambda_correct
    np.multiply(example_weight, confident, out=confident)
    confident /= sc
    new_correct += confident
    new_wrong = forgetting_factor * lambda_wrong
    np.multiply(example_weight, doubtful, out=doubtful)
    doubtful /= sw
    new_wrong += doubtful
    totals = new_correct + new_wrong
    # One reduction decides the fast path; an empty array takes it too.
    if np.minimum.reduce(totals, initial=np.inf) > 0.0:
        new_performance = np.divide(new_correct, totals, out=totals)
    else:
        positive = totals > 0.0
        new_performance = np.where(positive, new_correct / np.where(positive, totals, 1.0), 1.0)
    return new_correct, new_wrong, new_performance, sc, sw


def sub_classifier_weights(
    performances: np.ndarray, performance_index: float
) -> np.ndarray:
    """Normalised voting weights: performances above the index share weight
    proportionally, everything else gets zero. All-below yields all zeros."""
    performances = np.asarray(performances, dtype=float)
    mask = performances > performance_index
    above = performances[mask]
    if not above.size:
        return np.zeros_like(performances)
    weights = performances / float(np.add.reduce(above))
    # Performances are non-negative, so every weight below the index is +0.0.
    weights *= mask
    return weights


class MarlineModel:
    """Multi-stream transfer learner over interleaved source/target examples.

    Feed every arriving example through :meth:`observe`; query target-side
    predictions with :meth:`predict`. One instance is single-writer: training
    mutates shared statistics.

    The voting weights are state that the model writes wherever it writes
    ``performance``: on each weight update and on each new concept (a target
    drift resets the stats first). Snapshots store them. ``performance`` is
    for reading only, since writing it does not re-derive the weights.
    """

    def __init__(self, config: MarlineConfig, target_id: str = DEFAULT_TARGET_ID) -> None:
        self.config = config
        self.target_id = target_id
        self.pools: dict[str, StreamPool] = {}
        # Every concept in pool-major order (pools first seen first, each
        # pool's concepts oldest first), and one ensemble_size block of
        # stats per concept in the same order. The order fixes the summation
        # order of the performance update and the vote.
        self.concepts: list[ConceptState] = []
        self.lambda_correct = np.zeros(0)
        self.lambda_wrong = np.zeros(0)
        self.performance = np.ones(0)
        self._weights = np.zeros(0)  # sub_classifier_weights of performance

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------

    def observe(self, stream_id: str, example: Example, rng: np.random.Generator) -> bool:
        """Process one example from ``stream_id``; returns True if this
        example triggered a drift on its stream."""
        values = check_features(example.features, self.config.n_features, "MarlineModel.observe")
        pool = self.pools.get(stream_id)
        if pool is None:
            pool = self._new_concept(stream_id)

        # Drift monitoring uses the newest ensemble's pass on the example before
        # anything trains on it; a target example reuses any pass its prediction kept.
        is_target = stream_id == self.target_id
        ensemble = pool.current.ensemble
        pairs = ensemble.memo_pairs(values) if is_target else ensemble.member_pairs(values)
        status = pool.detector.update(argmax_label(mean_pair(pairs)) == example.label)
        drift = status is DriftStatus.DRIFT
        if drift:
            # The reset comes before the new concept's block, which then
            # derives the voting weights from the reset stats.
            if is_target:
                self.lambda_correct.fill(0.0)
                self.lambda_wrong.fill(0.0)
                self.performance.fill(1.0)
            self._new_concept(stream_id)
            pool.detector.reset()
            pairs = None

        concept = pool.current
        concept.ensemble.learn(values, example.label, rng, pairs)
        concept.tracker.update(example)

        if is_target:
            self._update_weights(values, example.label)
        return drift

    def update_weights(self, example: Example) -> None:
        """Refresh every sub-classifier's performance from its prediction on
        the projection of a labelled target example.

        Skipped until the current target concept has seen both classes, since
        no concept vector exists to map through before that.
        """
        values = check_features(
            example.features, self.config.n_features, "MarlineModel.update_weights"
        )
        self._update_weights(values, example.label)

    def _update_weights(self, values: list[float], label: int) -> None:
        """:meth:`update_weights` on a checked list of ``n_features`` floats."""
        target_pool = self.pools.get(self.target_id)
        if target_pool is None:
            return
        current = target_pool.current
        if not current.tracker.both_classes_seen:
            return

        p_correct = []
        for concept in self.concepts:
            pairs = _concept_pairs(concept, values, current)
            if isinstance(pairs, np.ndarray):
                p_correct += pairs[:, label].tolist()
            else:
                p_correct += [pair[label] for pair in pairs]
        self.lambda_correct, self.lambda_wrong, self.performance, _, _ = update_performance_stats(
            self.lambda_correct,
            self.lambda_wrong,
            self.performance,
            np.array(p_correct),
            self.config.forgetting_factor,
            EPS_CLAMP,
        )
        self._weights = sub_classifier_weights(self.performance, self.config.performance_index)

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------

    def predict(self, features: np.ndarray) -> Prediction:
        """Weighted vote of every sub-classifier of every concept on its own
        projection of ``features``.

        Falls back to the current target ensemble's unweighted mean while the
        target concept is warming up, when no performance clears the index,
        or on an exact score tie; remaining ties resolve to NEG.
        """
        features = np.asarray(features, dtype=float)
        values = check_features(features, self.config.n_features, "MarlineModel.predict")
        target_pool = self.pools.get(self.target_id)
        if target_pool is None:
            return Prediction(NEG, np.array([0.5, 0.5]), cold_start=True)

        k = self.config.ensemble_size
        weights = self._weights
        weighted_concepts = weights.reshape(-1, k).any(axis=1).tolist()
        current = target_pool.current
        if not current.tracker.both_classes_seen or not any(weighted_concepts):
            return self._fallback(current, values)

        neg = pos = 0.0
        for i, (concept, weighted) in enumerate(zip(self.concepts, weighted_concepts)):
            if not weighted:
                continue
            pairs = _concept_pairs(concept, values, current)
            # A fixed pass is already the C-contiguous (k, 2) array. np.dot
            # gives the bits of ``@`` with less call overhead.
            p_neg, p_pos = np.dot(weights[i * k : (i + 1) * k], np.asarray(pairs)).tolist()
            neg += p_neg
            pos += p_pos
        if neg == pos:
            return self._fallback(current, values)
        scores = np.array([neg, pos])
        return Prediction(argmax_label(scores), scores)

    def source_weight_ratio(self) -> float:
        """Share of the current voting weight held by source and past target
        sub-classifiers, i.e. everything but the current target concept."""
        target_pool = self.pools.get(self.target_id)
        if target_pool is None:
            return 0.0
        weights = self._weights
        if not weights.any():
            return 0.0
        per_concept = weights.reshape(-1, self.config.ensemble_size).sum(axis=1).tolist()
        current = target_pool.current
        ratio = 0.0
        for concept, weight in zip(self.concepts, per_concept):
            if concept is not current:
                ratio += weight
        return min(max(ratio, 0.0), 1.0)

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------

    def save(self, path: str) -> None:
        """Write a snapshot of the full model state: the header line, then
        the pickled model."""
        with open(path, "wb") as fh:
            fh.write(SNAPSHOT_HEADER)
            pickle.dump(self, fh)

    @classmethod
    def load(cls, path: str) -> "MarlineModel":
        """Read a snapshot that :meth:`save` wrote at this version; raises
        :class:`DataError`, before unpickling anything, for a file without
        this version's header line, and for a truncated file."""
        with open(path, "rb") as fh:
            header = fh.read(len(SNAPSHOT_HEADER))
            if header != SNAPSHOT_HEADER:
                raise DataError(
                    f"{path}: not a model snapshot of version {SNAPSHOT_VERSION}"
                    f" (starts {header!r})"
                )
            try:
                model = pickle.load(fh)
            except (pickle.UnpicklingError, EOFError) as exc:
                raise DataError(f"{path}: not a model snapshot ({exc})") from exc
        if not isinstance(model, cls):
            raise DataError(f"{path}: snapshot does not contain a model")
        return model

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _new_concept(self, stream_id: str) -> StreamPool:
        """Start a fresh concept on ``stream_id``, creating its pool on first
        sight, with fresh stats after the pool's earlier concepts."""
        pool = self.pools.get(stream_id)
        if pool is None:
            pool = self.pools[stream_id] = StreamPool(self.config)
        pool.concepts.append(ConceptState(self.config))
        self.concepts = [c for p in self.pools.values() for c in p.concepts]
        k = self.config.ensemble_size
        at = self.concepts.index(pool.current) * k
        self.lambda_correct = np.insert(self.lambda_correct, at, np.zeros(k))
        self.lambda_wrong = np.insert(self.lambda_wrong, at, np.zeros(k))
        self.performance = np.insert(self.performance, at, np.ones(k))
        self._weights = sub_classifier_weights(self.performance, self.config.performance_index)
        return pool

    def _fallback(self, concept: ConceptState, values: list[float]) -> Prediction:
        scores = np.array(mean_pair(concept.ensemble.memo_pairs(values)))
        return Prediction(argmax_label(scores), scores)


def _concept_pairs(
    concept: ConceptState, values: list[float], current: ConceptState
) -> list[Pair] | np.ndarray:
    """The member pass of ``concept`` at its projection of ``values``. The
    current target concept ``current``, which has seen both classes, sees
    ``values`` as is and keeps its pass, which the drift check and the
    weight update after a prediction at equal values reuse. Any other
    concept takes its fixed pass, the kept (k, 2) array, with no projection,
    where no member reads its input; one that has not seen both classes has
    no frame and sees ``values`` as is. Only a concept that projects reads
    the frame of ``current``."""
    ensemble = concept.ensemble
    if concept is current:
        return ensemble.memo_pairs(values)
    fixed = ensemble.fixed_pairs()
    if fixed is not None:
        return fixed
    source = concept.tracker.frame()
    return ensemble.member_pairs(
        values if source is None else Reflections(source, current.tracker.frame()).apply(values)
    )
