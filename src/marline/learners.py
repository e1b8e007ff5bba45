"""Online base learners: incremental Hoeffding trees and the two online
ensemble algorithms (bagging and boosting) built on top of them.

Trees handle numeric attributes with per-leaf, per-class Gaussian estimators
and support real-valued example weights as multipliers on the sufficient
statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    NEG,
    POS,
    ConfigurationError,
    Example,
    argmax_label,
    check_dims,
)

_MIN_VARIANCE = 1e-12
_MIN_SPLIT_GAIN = 1e-10
_N_SPLIT_CANDIDATES = 10


def hoeffding_bound(range_r: float, delta: float, n: float) -> float:
    """Confidence radius sqrt(R^2 ln(1/delta) / (2n)) for n observations."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    return math.sqrt(range_r * range_r * math.log(1.0 / delta) / (2.0 * n))


@dataclass(frozen=True)
class HoeffdingTreeParams:
    """Split-control knobs for a Hoeffding tree."""

    grace_period: int = 200
    split_confidence: float = 1e-7
    tie_threshold: float = 0.05
    leaf_prediction: str = "nb_adaptive"  # or "majority"

    def __post_init__(self) -> None:
        if self.grace_period < 1:
            raise ConfigurationError("grace_period must be >= 1")
        if not 0.0 < self.split_confidence < 1.0:
            raise ConfigurationError("split_confidence must be in (0, 1)")
        if not 0.0 <= self.tie_threshold < 1.0:
            raise ConfigurationError("tie_threshold must be in [0, 1)")
        if self.leaf_prediction not in ("majority", "nb_adaptive"):
            raise ConfigurationError(
                f"unknown leaf_prediction {self.leaf_prediction!r}"
            )


class GaussianEstimator:
    """Weighted incremental estimate of a single attribute's distribution."""

    __slots__ = ("weight_sum", "mean", "_m2", "min_value", "max_value")

    def __init__(self) -> None:
        self.weight_sum = 0.0
        self.mean = 0.0
        self._m2 = 0.0
        self.min_value = math.inf
        self.max_value = -math.inf

    def add(self, value: float, weight: float) -> None:
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value
        self.weight_sum += weight
        delta = value - self.mean
        self.mean += weight * delta / self.weight_sum
        self._m2 += weight * delta * (value - self.mean)

    @property
    def variance(self) -> float:
        if self.weight_sum <= 1.0:
            return 0.0
        return max(self._m2 / (self.weight_sum - 1.0), 0.0)

    def cdf(self, value: float) -> float:
        var = self.variance
        if var <= 0.0:
            return 1.0 if self.mean <= value else 0.0
        return 0.5 * (1.0 + math.erf((value - self.mean) / math.sqrt(2.0 * var)))


def _entropy(weights: list[float]) -> float:
    total = sum(weights)
    if total <= 0.0:
        return 0.0
    h = 0.0
    for w in weights:
        if w > 0.0:
            p = w / total
            h -= p * math.log2(p)
    return h


class _LeafNode:
    """Growing leaf holding class counts and per-attribute Gaussian stats; its
    naive-Bayes terms are cached until it learns again."""

    __slots__ = (
        "class_weights",
        "estimators",
        "weight_at_last_attempt",
        "mc_correct_weight",
        "nb_correct_weight",
        "_nb_terms",
    )

    def __init__(self, n_features: int) -> None:
        self.class_weights = [0.0, 0.0]
        self.estimators = [
            [GaussianEstimator(), GaussianEstimator()] for _ in range(n_features)
        ]
        self.weight_at_last_attempt = 0.0
        self.mc_correct_weight = 0.0
        self.nb_correct_weight = 0.0
        self._nb_terms: list | None = None

    @property
    def total_weight(self) -> float:
        return self.class_weights[NEG] + self.class_weights[POS]

    def majority_distribution(self) -> tuple[float, float]:
        total = self.total_weight
        if total <= 0.0:
            return (0.5, 0.5)
        return (self.class_weights[NEG] / total, self.class_weights[POS] / total)

    def _naive_bayes_terms(self) -> list[tuple[float, list]]:
        """Per class, its log prior and, per attribute, (mean, -log(2*pi*var)/2,
        2*var). A class without weight, which then has none in any attribute
        either, gets (-inf, [])."""
        total = self.total_weight
        terms = []
        for label, prior in enumerate(self.class_weights):
            if prior <= 0.0:
                terms.append((-math.inf, []))
                continue
            attributes = []
            for per_class in self.estimators:
                var = max(per_class[label].variance, _MIN_VARIANCE)
                log_norm = -0.5 * math.log(2.0 * math.pi * var)
                attributes.append((per_class[label].mean, log_norm, 2.0 * var))
            terms.append((math.log(prior / total), attributes))
        return terms

    def naive_bayes_distribution(self, values: list[float]) -> tuple[float, float]:
        if self._nb_terms is None:
            self._nb_terms = self._naive_bayes_terms()
        logits = []
        for logit, attributes in self._nb_terms:
            for value, (mean, log_norm, two_var) in zip(values, attributes):
                diff = value - mean
                logit += log_norm - diff * diff / two_var
            logits.append(logit)
        top = max(logits)
        if top == -math.inf:
            return (0.5, 0.5)
        r0 = math.exp(logits[NEG] - top)
        r1 = math.exp(logits[POS] - top)
        return (r0 / (r0 + r1), r1 / (r0 + r1))

    def learn(self, values: list[float], label: int, weight: float, nb_adaptive: bool) -> None:
        # Track which leaf predictor is doing better, judged before absorbing
        # the example it is judged on. Only nb_adaptive leaves read the result.
        if nb_adaptive:
            if argmax_label(self.majority_distribution()) == label:
                self.mc_correct_weight += weight
            if argmax_label(self.naive_bayes_distribution(values)) == label:
                self.nb_correct_weight += weight
        self.class_weights[label] += weight
        for j, value in enumerate(values):
            self.estimators[j][label].add(value, weight)
        self._nb_terms = None

    def best_split_per_attribute(self) -> list[tuple[float, float]]:
        """For each attribute, (best info gain, threshold achieving it)."""
        pre_entropy = _entropy(self.class_weights)
        total = self.total_weight
        results: list[tuple[float, float]] = []
        for per_class in self.estimators:
            lo = min(est.min_value for est in per_class if est.weight_sum > 0.0)
            hi = max(est.max_value for est in per_class if est.weight_sum > 0.0)
            best_gain, best_threshold = 0.0, math.nan
            if hi > lo:
                step = (hi - lo) / (_N_SPLIT_CANDIDATES + 1)
                for i in range(1, _N_SPLIT_CANDIDATES + 1):
                    threshold = lo + i * step
                    left = [0.0, 0.0]
                    for label in (NEG, POS):
                        est = per_class[label]
                        if est.weight_sum > 0.0:
                            left[label] = est.weight_sum * est.cdf(threshold)
                    right = [
                        self.class_weights[NEG] - left[NEG],
                        self.class_weights[POS] - left[POS],
                    ]
                    w_left, w_right = sum(left), sum(right)
                    gain = pre_entropy - (
                        w_left / total * _entropy(left)
                        + w_right / total * _entropy(right)
                    )
                    if gain > best_gain:
                        best_gain, best_threshold = gain, threshold
            results.append((best_gain, best_threshold))
        return results


class _SplitNode:
    __slots__ = ("attribute", "threshold", "left", "right")

    def __init__(self, attribute: int, threshold: float, n_features: int) -> None:
        self.attribute = attribute
        self.threshold = threshold
        self.left: _LeafNode | _SplitNode = _LeafNode(n_features)
        self.right: _LeafNode | _SplitNode = _LeafNode(n_features)


class HoeffdingTree:
    """Incremental decision tree for binary classification on numeric data.

    Leaves accumulate class-conditional Gaussian statistics; a leaf is split
    when the best attribute's information-gain advantage over the runner-up
    exceeds the Hoeffding bound, or when the bound itself drops below the tie
    threshold, re-evaluated every ``grace_period`` units of example weight.
    """

    def __init__(self, n_features: int, params: HoeffdingTreeParams | None = None) -> None:
        if n_features < 1:
            raise ConfigurationError("n_features must be >= 1")
        self.n_features = n_features
        self.params = params or HoeffdingTreeParams()
        self._root: _LeafNode | _SplitNode = _LeafNode(n_features)
        self.n_splits = 0

    def _sort_to_leaf(self, values: list[float]) -> tuple[_LeafNode, _SplitNode | None, bool]:
        parent: _SplitNode | None = None
        went_left = False
        node = self._root
        while isinstance(node, _SplitNode):
            parent = node
            went_left = values[node.attribute] <= node.threshold
            node = node.left if went_left else node.right
        return node, parent, went_left

    def train(self, example: Example, weight: float = 1.0) -> None:
        """Absorb one weighted example; may grow the tree."""
        check_dims(example.features, self.n_features, "HoeffdingTree.train")
        if weight <= 0.0:
            return
        values = example.features.tolist()
        leaf, parent, went_left = self._sort_to_leaf(values)
        leaf.learn(values, example.label, weight, self.params.leaf_prediction == "nb_adaptive")
        if leaf.total_weight - leaf.weight_at_last_attempt >= self.params.grace_period:
            leaf.weight_at_last_attempt = leaf.total_weight
            self._attempt_split(leaf, parent, went_left)

    def _attempt_split(
        self, leaf: _LeafNode, parent: _SplitNode | None, went_left: bool
    ) -> None:
        candidates = leaf.best_split_per_attribute()
        order = sorted(range(len(candidates)), key=lambda j: candidates[j][0], reverse=True)
        best_gain, best_threshold = candidates[order[0]]
        second_gain = candidates[order[1]][0] if len(order) > 1 else 0.0
        if best_gain <= _MIN_SPLIT_GAIN or math.isnan(best_threshold):
            return
        bound = hoeffding_bound(1.0, self.params.split_confidence, leaf.total_weight)
        if best_gain - second_gain > bound or bound < self.params.tie_threshold:
            split = _SplitNode(order[0], best_threshold, self.n_features)
            if parent is None:
                self._root = split
            elif went_left:
                parent.left = split
            else:
                parent.right = split
            self.n_splits += 1

    def predict_pair(self, values: list[float]) -> tuple[float, float]:
        """``(p_neg, p_pos)`` at the leaf a list of ``n_features`` floats routes to."""
        leaf = self._sort_to_leaf(values)[0]
        majority = self.params.leaf_prediction == "majority"
        if majority or leaf.mc_correct_weight > leaf.nb_correct_weight:
            return leaf.majority_distribution()
        return leaf.naive_bayes_distribution(values)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Class distribution at the leaf ``features`` routes to."""
        features = np.asarray(features, dtype=float)
        check_dims(features, self.n_features, "HoeffdingTree.predict")
        return np.array(self.predict_pair(features.tolist()))


class _EnsembleBase:
    """Shared plumbing for the fixed-size online ensembles."""

    def __init__(
        self,
        n_features: int,
        ensemble_size: int,
        tree_params: HoeffdingTreeParams | None = None,
        sub_classifiers: list | None = None,
    ) -> None:
        if ensemble_size < 1:
            raise ConfigurationError("ensemble_size must be >= 1")
        self.n_features = n_features
        if sub_classifiers is not None:
            if len(sub_classifiers) != ensemble_size:
                raise ConfigurationError(
                    "sub_classifiers length must equal ensemble_size"
                )
            self.sub_classifiers = list(sub_classifiers)
        else:
            self.sub_classifiers = [
                HoeffdingTree(n_features, tree_params) for _ in range(ensemble_size)
            ]
        self.trained_count = 0

    @property
    def ensemble_size(self) -> int:
        return len(self.sub_classifiers)

    def member_distributions(self, values: list[float]) -> np.ndarray:
        """``(k, 2)`` class distributions of the k members, in member order,
        at a list of ``n_features`` floats."""
        return np.array([tree.predict_pair(values) for tree in self.sub_classifiers])

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Unweighted mean of the members' class distributions."""
        features = np.asarray(features, dtype=float)
        check_dims(features, self.n_features, f"{type(self).__name__}.predict")
        neg = pos = 0.0
        for p_neg, p_pos in self.member_distributions(features.tolist()).tolist():
            neg += p_neg
            pos += p_pos
        k = len(self.sub_classifiers)
        return np.array([neg / k, pos / k])


class OnlineBagging(_EnsembleBase):
    """Online bagging: each member trains with an independent Poisson(1) weight."""

    def train(self, example: Example, rng: np.random.Generator) -> None:
        check_dims(example.features, self.n_features, "OnlineBagging.train")
        self.trained_count += 1
        for tree in self.sub_classifiers:
            k = float(rng.poisson(1.0))
            if k > 0.0:
                tree.train(example, k)


class OnlineBoosting(_EnsembleBase):
    """Online boosting: members train sequentially with Poisson(lam) weights,
    where lam is amplified by the mistakes of the members before them."""

    _EPS = 1e-10

    def __init__(
        self,
        n_features: int,
        ensemble_size: int,
        tree_params: HoeffdingTreeParams | None = None,
        sub_classifiers: list | None = None,
    ) -> None:
        super().__init__(n_features, ensemble_size, tree_params, sub_classifiers)
        self.lambda_correct = np.zeros(self.ensemble_size)
        self.lambda_wrong = np.zeros(self.ensemble_size)

    def train(self, example: Example, rng: np.random.Generator) -> None:
        check_dims(example.features, self.n_features, "OnlineBoosting.train")
        self.trained_count += 1
        values = example.features.tolist()
        lam = 1.0
        for m, tree in enumerate(self.sub_classifiers):
            k = float(rng.poisson(lam))
            if k > 0.0:
                tree.train(example, k)
            correct = argmax_label(tree.predict_pair(values)) == example.label
            if correct:
                self.lambda_correct[m] += lam
            else:
                self.lambda_wrong[m] += lam
            total = self.lambda_correct[m] + self.lambda_wrong[m]
            error = self.lambda_wrong[m] / total if total > 0.0 else 0.0
            error = min(max(error, self._EPS), 1.0 - self._EPS)
            lam = lam / (2.0 * (1.0 - error)) if correct else lam / (2.0 * error)


ENSEMBLES = {"bagging": OnlineBagging, "boosting": OnlineBoosting}


def make_ensemble(
    kind: str,
    n_features: int,
    ensemble_size: int,
    tree_params: HoeffdingTreeParams | None = None,
):
    if kind not in ENSEMBLES:
        raise ConfigurationError(
            f"unknown ensemble kind {kind!r}; choose from {tuple(ENSEMBLES)}"
        )
    return ENSEMBLES[kind](n_features, ensemble_size, tree_params)
