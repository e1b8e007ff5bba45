"""The MARLINE model: concept pools per stream, drift-triggered ensemble
creation, incremental sub-classifier performance tracking on the current
target concept, and weighted-majority prediction across all concepts.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .core import (
    NEG,
    POS,
    ConfigurationError,
    DataError,
    Example,
    argmax_label,
    check_features,
)
from .drift import DETECTOR_KINDS, DriftStatus, make_detector
from .learners import ENSEMBLE_KINDS, HoeffdingTreeParams, make_ensemble
from .mapping import CentroidTracker, build_align_map, project_example

SNAPSHOT_FORMAT = "marline-model"
SNAPSHOT_VERSION = 2

DEFAULT_TARGET_ID = "T"


@dataclass(frozen=True)
class MarlineConfig:
    """Hyperparameters shared by a model and the experiment runner."""

    n_features: int
    ensemble_size: int = 20
    base_ensemble: str = "bagging"
    detector: str = "hddm_a"
    forgetting_factor: float = 0.9
    performance_index: float = 0.4
    eps_clamp: float = 1e-10
    tree: HoeffdingTreeParams = field(default_factory=HoeffdingTreeParams)
    detector_params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_features < 1:
            raise ConfigurationError("n_features must be >= 1")
        if self.ensemble_size < 1:
            raise ConfigurationError("ensemble_size must be >= 1")
        if self.base_ensemble not in ENSEMBLE_KINDS:
            raise ConfigurationError(
                f"base_ensemble must be one of {ENSEMBLE_KINDS}, got {self.base_ensemble!r}"
            )
        if self.detector not in DETECTOR_KINDS:
            raise ConfigurationError(
                f"detector must be one of {DETECTOR_KINDS}, got {self.detector!r}"
            )
        if not 0.0 < self.forgetting_factor <= 1.0:
            raise ConfigurationError("forgetting_factor must be in (0, 1]")
        if not 0.0 <= self.performance_index <= 1.0:
            raise ConfigurationError("performance_index must be in [0, 1]")
        if self.eps_clamp <= 0.0:
            raise ConfigurationError("eps_clamp must be positive")


@dataclass
class Prediction:
    label: int
    scores: np.ndarray
    cold_start: bool = False


class ConceptState:
    """One concept of one stream: its ensemble, centroid tracker, and the
    per-sub-classifier performance stats on the current target concept."""

    def __init__(self, config: MarlineConfig) -> None:
        self.ensemble = make_ensemble(
            config.base_ensemble,
            config.n_features,
            config.ensemble_size,
            config.tree,
        )
        self.tracker = CentroidTracker(config.n_features, config.forgetting_factor)
        k = config.ensemble_size
        self.lambda_correct = np.zeros(k)
        self.lambda_wrong = np.zeros(k)
        self.performance = np.ones(k)

    def reset_stats(self) -> None:
        self.lambda_correct[:] = 0.0
        self.lambda_wrong[:] = 0.0
        self.performance[:] = 1.0


class StreamPool:
    """Ordered concepts observed on one stream, plus its drift detector.

    Only the last concept is ever trained; earlier ones are frozen history.
    """

    def __init__(self, stream_id: str, config: MarlineConfig) -> None:
        self.stream_id = stream_id
        self.concepts = [ConceptState(config)]
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
    p_correct = np.clip(p_correct, 0.0, 1.0)
    p_wrong = 1.0 - p_correct
    sc = max(float(np.sum(performance * p_correct)), eps_clamp)
    sw = max(float(np.sum(performance * p_wrong)), eps_clamp)
    example_weight = sw / sc
    new_correct = forgetting_factor * lambda_correct + example_weight * (
        performance * p_correct
    ) / sc
    new_wrong = forgetting_factor * lambda_wrong + example_weight * (
        performance * p_wrong
    ) / sw
    totals = new_correct + new_wrong
    new_performance = np.where(
        totals > 0.0, new_correct / np.where(totals > 0.0, totals, 1.0), 1.0
    )
    return new_correct, new_wrong, new_performance, sc, sw


def sub_classifier_weights(
    performances: np.ndarray, performance_index: float
) -> np.ndarray:
    """Normalised voting weights: performances above the index share weight
    proportionally, everything else gets zero. All-below yields all zeros."""
    performances = np.asarray(performances, dtype=float)
    mask = performances > performance_index
    if not mask.any():
        return np.zeros_like(performances)
    total = float(performances[mask].sum())
    return np.where(mask, performances / total, 0.0)


class MarlineModel:
    """Multi-stream transfer learner over interleaved source/target examples.

    Feed every arriving example through :meth:`observe`; query target-side
    predictions with :meth:`predict`. One instance is single-writer: training
    mutates shared statistics.
    """

    def __init__(self, config: MarlineConfig, target_id: str = DEFAULT_TARGET_ID) -> None:
        self.config = config
        self.target_id = target_id
        self.pools: dict[str, StreamPool] = {}

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------

    def observe(self, stream_id: str, example: Example, rng: np.random.Generator) -> bool:
        """Process one example from ``stream_id``; returns True if this
        example triggered a drift on its stream."""
        check_features(example.features, self.config.n_features, "MarlineModel.observe")
        pool = self.pools.get(stream_id)
        if pool is None:
            pool = StreamPool(stream_id, self.config)
            self.pools[stream_id] = pool

        # Drift monitoring uses the newest ensemble's prediction on the
        # example before anything trains on it.
        predicted = argmax_label(pool.current.ensemble.predict(example.features))
        status = pool.detector.update(predicted == example.label)
        drift = status is DriftStatus.DRIFT
        if drift:
            pool.concepts.append(ConceptState(self.config))
            pool.detector.reset()
            if stream_id == self.target_id:
                for other in self.pools.values():
                    for concept in other.concepts:
                        concept.reset_stats()

        pool.current.ensemble.train(example, rng)
        pool.current.tracker.update(example)

        if stream_id == self.target_id:
            self.update_weights(example)
        return drift

    def update_weights(self, example: Example) -> None:
        """Refresh every sub-classifier's performance from its prediction on
        the projection of a labelled target example.

        Skipped until the current target concept has seen both classes, since
        no concept vector exists to map through before that.
        """
        target_pool = self.pools.get(self.target_id)
        if target_pool is None or not target_pool.current.tracker.both_classes_seen:
            return
        v_tgt = target_pool.current.tracker.concept_vector()
        c_tgt_pos = target_pool.current.tracker.centroid(POS)

        concepts = self._all_concepts()
        probs = [
            concept.ensemble.member_distributions(
                self._projected(example.features, concept, is_current_target, v_tgt, c_tgt_pos)
            )[:, example.label]
            for concept, is_current_target in concepts
        ]
        flat_p = np.concatenate(probs)
        flat_lc = np.concatenate([c.lambda_correct for c, _ in concepts])
        flat_lw = np.concatenate([c.lambda_wrong for c, _ in concepts])
        flat_a = np.concatenate([c.performance for c, _ in concepts])
        new_lc, new_lw, new_a, _, _ = update_performance_stats(
            flat_lc, flat_lw, flat_a, flat_p, self.config.forgetting_factor, self.config.eps_clamp
        )
        k = self.config.ensemble_size
        for i, (concept, _) in enumerate(concepts):
            sl = slice(i * k, (i + 1) * k)
            concept.lambda_correct[:] = new_lc[sl]
            concept.lambda_wrong[:] = new_lw[sl]
            concept.performance[:] = new_a[sl]

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
        check_features(features, self.config.n_features, "MarlineModel.predict")
        target_pool = self.pools.get(self.target_id)
        if target_pool is None:
            return Prediction(NEG, np.array([0.5, 0.5]), cold_start=True)

        weights = self._flat_weights()
        if not target_pool.current.tracker.both_classes_seen or not weights.any():
            return self._fallback(target_pool, features)

        v_tgt = target_pool.current.tracker.concept_vector()
        c_tgt_pos = target_pool.current.tracker.centroid(POS)
        concepts = self._all_concepts()
        k = self.config.ensemble_size
        scores = np.zeros(2)
        for i, (concept, is_current_target) in enumerate(concepts):
            w = weights[i * k : (i + 1) * k]
            if not w.any():
                continue
            projected = self._projected(features, concept, is_current_target, v_tgt, c_tgt_pos)
            scores += w @ concept.ensemble.member_distributions(projected)
        if scores[NEG] == scores[POS]:
            return self._fallback(target_pool, features)
        return Prediction(argmax_label(scores), scores)

    def source_weight_ratio(self) -> float:
        """Share of the current voting weight held by source and past target
        sub-classifiers, i.e. everything but the current target concept."""
        target_pool = self.pools.get(self.target_id)
        if target_pool is None:
            return 0.0
        weights = self._flat_weights()
        if not weights.any():
            return 0.0
        k = self.config.ensemble_size
        concepts = self._all_concepts()
        ratio = 0.0
        for i, (_, is_current_target) in enumerate(concepts):
            if not is_current_target:
                ratio += float(weights[i * k : (i + 1) * k].sum())
        return min(max(ratio, 0.0), 1.0)

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------

    def save(self, path: str) -> None:
        """Write a versioned snapshot of the full model state."""
        payload = {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "model": self,
        }
        with open(path, "wb") as fh:
            pickle.dump(payload, fh)

    @classmethod
    def load(cls, path: str) -> "MarlineModel":
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        if not isinstance(payload, dict) or payload.get("format") != SNAPSHOT_FORMAT:
            raise DataError(f"{path}: not a model snapshot")
        if payload.get("version") != SNAPSHOT_VERSION:
            raise DataError(
                f"{path}: unsupported snapshot version {payload.get('version')!r}"
            )
        model = payload["model"]
        if not isinstance(model, cls):
            raise DataError(f"{path}: snapshot does not contain a model")
        return model

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _all_concepts(self) -> list[tuple[ConceptState, bool]]:
        """Every concept of every pool in deterministic order, flagged with
        whether it is the current target concept."""
        out: list[tuple[ConceptState, bool]] = []
        for stream_id, pool in self.pools.items():
            last = len(pool.concepts) - 1
            for j, concept in enumerate(pool.concepts):
                out.append((concept, stream_id == self.target_id and j == last))
        return out

    def _flat_weights(self) -> np.ndarray:
        alphas = np.concatenate([c.performance for c, _ in self._all_concepts()])
        return sub_classifier_weights(alphas, self.config.performance_index)

    def _projected(
        self,
        features: np.ndarray,
        concept: ConceptState,
        is_current_target: bool,
        v_tgt: np.ndarray,
        c_tgt_pos: np.ndarray,
    ) -> np.ndarray:
        if is_current_target:
            return features
        v_src = concept.tracker.concept_vector()
        if v_src is None:
            return features
        align = build_align_map(v_src, v_tgt)
        return project_example(features, align, c_tgt_pos, concept.tracker.centroid(POS))

    def _fallback(self, target_pool: StreamPool, features: np.ndarray) -> Prediction:
        scores = target_pool.current.ensemble.predict(features)
        return Prediction(argmax_label(scores), scores)
