"""Online base learners: incremental Hoeffding trees and the two online
ensemble algorithms (bagging and boosting) built on top of them.

Trees handle numeric attributes with per-leaf, per-class Gaussian estimators
and support real-valued example weights as multipliers on the sufficient
statistics. Trees and ensembles take lists of ``n_features`` floats that the
caller has checked; the model converts each example to one list.

A leaf's answer, and in an nb-adaptive tree its naive-Bayes terms, are
state that only ``_LeafNode.learn`` writes: a leaf holds them from birth,
a member pass evaluates naive Bayes only at leaves that answer by it, and
snapshots store both. An ensemble's last pass and fixed pass stay lazy
caches that snapshots drop: each holds only until the ensemble learns, and
most concepts never ask for one (the current target concept asks for its
last pass, and a concept whose members are all one-leaf majority trees for
its fixed pass). The drift check's pass is handed to ``learn``, and
boosting's ``learn`` keeps the pass it computes after training. Each of
these keeps every float operation and its order, so results are
bit-identical to rebuilding everything on every call, as
``tests/reference.py`` does.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .core import NEG, POS, ConfigurationError

_MIN_VARIANCE = 1e-12
_MIN_SPLIT_GAIN = 1e-10
_N_SPLIT_CANDIDATES = 10
_TWO_PI = 2.0 * math.pi

Pair = tuple[float, float]  # (p_neg, p_pos)


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
    """Weighted incremental estimate of a single attribute's distribution
    for one class at one leaf. ``_LeafNode.learn`` updates its fields."""

    __slots__ = ("weight_sum", "mean", "_m2", "min_value", "max_value")

    def __init__(self) -> None:
        self.weight_sum = 0.0
        self.mean = 0.0
        self._m2 = 0.0
        self.min_value = math.inf
        self.max_value = -math.inf

    @property
    def variance(self) -> float:
        if self.weight_sum <= 1.0:
            return 0.0
        return max(self._m2 / (self.weight_sum - 1.0), 0.0)


def _entropy(neg: float, pos: float) -> float:
    """Entropy in bits of two class weights."""
    total = neg + pos
    if total <= 0.0:
        return 0.0
    h = 0.0
    if neg > 0.0:
        p = neg / total
        h -= p * math.log2(p)
    if pos > 0.0:
        p = pos / total
        h -= p * math.log2(p)
    return h


class _LeafNode:
    """Growing leaf holding class counts and per-attribute Gaussian stats.

    Its answer is its majority pair where it answers by majority, False
    where it answers by naive Bayes. A leaf of an nb-adaptive tree holds its
    naive-Bayes terms from birth, and a majority-rule leaf holds None. Only
    ``learn`` writes the answer and the terms, and snapshots store both.
    """

    __slots__ = (
        "class_weights",
        "estimators",
        "weight_at_last_attempt",
        "mc_correct_weight",
        "nb_correct_weight",
        "_nb_terms",
        "_answer",
    )

    def __init__(self, n_features: int, nb_adaptive: bool) -> None:
        self.class_weights = [0.0, 0.0]
        self.estimators = [
            [GaussianEstimator(), GaussianEstimator()] for _ in range(n_features)
        ]
        self.weight_at_last_attempt = 0.0
        self.mc_correct_weight = 0.0
        self.nb_correct_weight = 0.0
        # Per class, its log prior and per attribute (mean,
        # -log(2*pi*var)/2, 2*var) of its estimator, the variance floored at
        # _MIN_VARIANCE. A class without weight has prior -inf and no
        # attribute terms.
        self._nb_terms: list | None = (
            [(-math.inf, []), (-math.inf, [])] if nb_adaptive else None
        )
        # An empty leaf's answer under either rule: the majority of no
        # weight, and naive Bayes with both logits at -inf at any input.
        self._answer: Pair | bool = (0.5, 0.5)

    @property
    def total_weight(self) -> float:
        return self.class_weights[NEG] + self.class_weights[POS]

    def majority_distribution(self) -> Pair:
        neg, pos = self.class_weights
        total = neg + pos
        return (0.5, 0.5) if total <= 0.0 else (neg / total, pos / total)

    def naive_bayes_distribution(self, values: list[float]) -> tuple[float, float]:
        (neg, neg_attributes), (pos, pos_attributes) = self._nb_terms
        if neg_attributes and pos_attributes:
            # Both logits in one sweep, each with its own operations in order.
            for value, (neg_mean, neg_norm, neg_two_var), (pos_mean, pos_norm, pos_two_var) in zip(
                values, neg_attributes, pos_attributes
            ):
                diff = value - neg_mean
                neg += neg_norm - diff * diff / neg_two_var
                diff = value - pos_mean
                pos += pos_norm - diff * diff / pos_two_var
        else:
            # A class without weight has no terms; the other still sums its own.
            for value, (mean, log_norm, two_var) in zip(values, neg_attributes):
                diff = value - mean
                neg += log_norm - diff * diff / two_var
            for value, (mean, log_norm, two_var) in zip(values, pos_attributes):
                diff = value - mean
                pos += log_norm - diff * diff / two_var
        # Normalised by the larger logit, whose exp(0.0) is exactly 1.0, so
        # only the other side takes an exp. The rest are the pairs of the
        # two-exp form: equal logits (both -inf included) and a NaN logit
        # after a -inf one give (0.5, 0.5), any other NaN gives NaNs.
        if pos > neg:
            r = math.exp(neg - pos)
            return (r / (r + 1.0), 1.0 / (r + 1.0))
        if neg > pos:
            r = math.exp(pos - neg)
            return (1.0 / (1.0 + r), r / (1.0 + r))
        if neg == pos or neg == -math.inf:
            return (0.5, 0.5)
        return (math.nan, math.nan)

    def learn(
        self, values: list[float], label: int, weight: float, nb_adaptive: bool, pair=None
    ) -> None:
        """Absorb one weighted example. A ``pair`` that the tree predicted at
        ``values`` in this state stands in for naive Bayes where it was that."""
        weights = self.class_weights
        # Track which leaf predictor is doing better, judged before absorbing
        # the example it is judged on. Only nb_adaptive leaves read the result.
        if nb_adaptive:
            if pair is None or self.mc_correct_weight > self.nb_correct_weight:
                pair = self.naive_bayes_distribution(values)
            p_neg, p_pos = self.majority_distribution()
            if (POS if p_pos > p_neg else NEG) == label:
                self.mc_correct_weight += weight
            p_neg, p_pos = pair
            if (POS if p_pos > p_neg else NEG) == label:
                self.nb_correct_weight += weight
        weights[label] += weight
        # One pass updates the label's estimators and, at a leaf that holds
        # terms, rebuilds the label's attribute terms from them.
        terms = self._nb_terms
        attributes = None if terms is None else []
        for value, per_class in zip(values, self.estimators):
            est = per_class[label]
            if value < est.min_value:
                est.min_value = value
            if value > est.max_value:
                est.max_value = value
            n = est.weight_sum = est.weight_sum + weight
            delta = value - est.mean
            mean = est.mean = est.mean + weight * delta / n
            m2 = est._m2 = est._m2 + weight * delta * (value - mean)
            if attributes is not None:
                var = m2 / (n - 1.0) if n > 1.0 else 0.0
                if var < _MIN_VARIANCE:
                    var = _MIN_VARIANCE
                attributes.append((mean, -0.5 * math.log(_TWO_PI * var), 2.0 * var))
        if terms is not None:
            # The label's prior is positive now; the other class keeps its
            # attribute terms, and both priors move.
            total = weights[NEG] + weights[POS]
            terms[label] = (math.log(weights[label] / total), attributes)
            other = POS if label == NEG else NEG
            prior = weights[other]
            terms[other] = (math.log(prior / total) if prior > 0.0 else -math.inf, terms[other][1])
        # The adaptive leaf rule of Holmes, Kirkby & Pfahringer (2005), written
        # only here: an nb-adaptive leaf answers by majority while its majority
        # tally is above its naive-Bayes tally.
        if not nb_adaptive or self.mc_correct_weight > self.nb_correct_weight:
            self._answer = self.majority_distribution()
        else:
            self._answer = False

    def best_split_per_attribute(self) -> list[tuple[float, float]]:
        """For each attribute, (best info gain, threshold achieving it)."""
        weight_neg, weight_pos = self.class_weights
        pre_entropy = _entropy(weight_neg, weight_pos)
        total = weight_neg + weight_pos
        results: list[tuple[float, float]] = []
        for per_class in self.estimators:
            # Per class with weight: its weight, mean and sqrt(2 var), or
            # None where its variance is not positive and its cdf a step.
            classes = []
            for est in per_class:
                if est.weight_sum > 0.0:
                    var = est.variance
                    classes.append(
                        (est.weight_sum, est.mean, None if var <= 0.0 else math.sqrt(2.0 * var))
                    )
                else:
                    classes.append(None)
            lo = min(est.min_value for est in per_class if est.weight_sum > 0.0)
            hi = max(est.max_value for est in per_class if est.weight_sum > 0.0)
            best_gain, best_threshold = 0.0, math.nan
            if hi > lo:
                step = (hi - lo) / (_N_SPLIT_CANDIDATES + 1)
                for i in range(1, _N_SPLIT_CANDIDATES + 1):
                    threshold = lo + i * step
                    left = [0.0, 0.0]
                    for label, stats in enumerate(classes):
                        if stats is not None:
                            weight, mean, scale = stats
                            if scale is None:
                                cdf = 1.0 if mean <= threshold else 0.0
                            else:
                                cdf = 0.5 * (1.0 + math.erf((threshold - mean) / scale))
                            left[label] = weight * cdf
                    left_neg, left_pos = left
                    right_neg, right_pos = weight_neg - left_neg, weight_pos - left_pos
                    gain = pre_entropy - (
                        (left_neg + left_pos) / total * _entropy(left_neg, left_pos)
                        + (right_neg + right_pos) / total * _entropy(right_neg, right_pos)
                    )
                    if gain > best_gain:
                        best_gain, best_threshold = gain, threshold
            results.append((best_gain, best_threshold))
        return results


class _SplitNode:
    __slots__ = ("attribute", "threshold", "left", "right")

    def __init__(
        self, attribute: int, threshold: float, n_features: int, nb_adaptive: bool
    ) -> None:
        self.attribute = attribute
        self.threshold = threshold
        self.left: _LeafNode | _SplitNode = _LeafNode(n_features, nb_adaptive)
        self.right: _LeafNode | _SplitNode = _LeafNode(n_features, nb_adaptive)


class HoeffdingTree:
    """Incremental decision tree for binary classification on numeric data.

    Leaves accumulate class-conditional Gaussian statistics; a leaf is split
    when the best attribute's information-gain advantage over the runner-up
    exceeds the Hoeffding bound, or when the bound itself drops below the tie
    threshold, re-evaluated every ``grace_period`` units of example weight.

    Trees take lists of ``n_features`` floats both ways, through
    :meth:`predict_pair` and :meth:`learn`. An ensemble's member pass routes
    its trees itself, and :meth:`predict_pair` is that pass over one tree.
    """

    def __init__(self, n_features: int, params: HoeffdingTreeParams | None = None) -> None:
        if n_features < 1:
            raise ConfigurationError("n_features must be >= 1")
        self.n_features = n_features
        self.params = params or HoeffdingTreeParams()
        self._root: _LeafNode | _SplitNode = _LeafNode(
            n_features, self.params.leaf_prediction == "nb_adaptive"
        )
        self.n_splits = 0

    def learn(
        self, values: list[float], label: int, weight: float, pair: Pair | None = None
    ) -> _LeafNode | None:
        """Absorb a list of ``n_features`` floats with a positive weight, given
        :meth:`predict_pair` at it if known; may grow the tree. Returns the
        leaf that learned, or None where that leaf split. Unchecked."""
        parent: _SplitNode | None = None
        went_left = False
        node = self._root
        while node.__class__ is _SplitNode:
            parent = node
            went_left = values[node.attribute] <= node.threshold
            node = node.left if went_left else node.right
        params = self.params
        node.learn(values, label, weight, params.leaf_prediction == "nb_adaptive", pair)
        total = node.class_weights[NEG] + node.class_weights[POS]
        if total - node.weight_at_last_attempt >= params.grace_period:
            node.weight_at_last_attempt = total
            if self._attempt_split(node, parent, went_left):
                return None
        return node

    def _attempt_split(
        self, leaf: _LeafNode, parent: _SplitNode | None, went_left: bool
    ) -> bool:
        """Split ``leaf`` where the Hoeffding test allows; True if it split."""
        candidates = leaf.best_split_per_attribute()
        order = sorted(range(len(candidates)), key=lambda j: candidates[j][0], reverse=True)
        best_gain, best_threshold = candidates[order[0]]
        second_gain = candidates[order[1]][0] if len(order) > 1 else 0.0
        if best_gain <= _MIN_SPLIT_GAIN or math.isnan(best_threshold):
            return False
        bound = hoeffding_bound(1.0, self.params.split_confidence, leaf.total_weight)
        if best_gain - second_gain > bound or bound < self.params.tie_threshold:
            nb_adaptive = self.params.leaf_prediction == "nb_adaptive"
            split = _SplitNode(order[0], best_threshold, self.n_features, nb_adaptive)
            if parent is None:
                self._root = split
            elif went_left:
                parent.left = split
            else:
                parent.right = split
            self.n_splits += 1
            return True
        return False

    def predict_pair(self, values: list[float]) -> Pair:
        """``(p_neg, p_pos)`` at the leaf a list of ``n_features`` floats routes to."""
        return _member_pairs((self,), values)[0]

    def fixed_pair(self) -> Pair | None:
        """The pair :meth:`predict_pair` gives at any input while the tree is
        one leaf that answers by majority; None where it reads its input."""
        root = self._root
        return None if root.__class__ is _SplitNode else root._answer or None


def _member_pairs(trees: Iterable[HoeffdingTree], values: list[float]) -> list[Pair]:
    """``(p_neg, p_pos)`` of each tree at the leaf a list of ``n_features``
    floats routes to: the leaf's majority answer, or its naive Bayes. Every
    tree is routed here, and only the leaves that answer by naive Bayes are
    evaluated."""
    pairs = []
    append = pairs.append
    for tree in trees:
        node = tree._root
        while node.__class__ is _SplitNode:
            node = node.left if values[node.attribute] <= node.threshold else node.right
        append(node._answer or node.naive_bayes_distribution(values))
    return pairs


class _EnsembleBase:
    """Shared plumbing for the fixed-size online ensembles.

    An ensemble takes a list of floats both ways and hands it to every
    member: :meth:`member_pairs` and each ensemble's ``learn(values, label,
    rng, pairs)``. Its members are :class:`HoeffdingTree` objects of its
    ``n_features``. A member pass is :meth:`member_pairs`, a list of the
    members' float pairs, and :func:`mean_pair` of it is the ensemble's
    unweighted vote. :meth:`memo_pairs` keeps its last pass
    until the ensemble learns, so that a target's drift check reuses the
    pass of the prediction before it and hands those pairs to ``learn``.
    :meth:`fixed_pairs` is the pass at any input where no member reads its
    input, kept as the (k, 2) array that a vote multiplies until the
    ensemble learns. Members train only through ``learn``, which drops both;
    boosting's ``learn`` then keeps the pass it computed after training, so
    that the weight update at the same values routes no tree. Snapshots
    store neither.
    """

    _memo: tuple[list[float], list[Pair]] | None = None
    # The members' fixed pairs as a (k, 2) float64 array, False where some
    # member reads its input, or None until asked.
    _fixed: np.ndarray | bool | None = None

    def __init__(
        self,
        n_features: int,
        ensemble_size: int,
        tree_params: HoeffdingTreeParams | None = None,
    ) -> None:
        if ensemble_size < 1:
            raise ConfigurationError("ensemble_size must be >= 1")
        self.n_features = n_features
        self.sub_classifiers = [
            HoeffdingTree(n_features, tree_params) for _ in range(ensemble_size)
        ]
        self.trained_count = 0

    @property
    def ensemble_size(self) -> int:
        return len(self.sub_classifiers)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_memo", None)
        state.pop("_fixed", None)
        return state

    def member_pairs(self, values: list[float]) -> list[Pair]:
        """``(p_neg, p_pos)`` of each of the k members, in member order, at a
        list of ``n_features`` floats."""
        return _member_pairs(self.sub_classifiers, values)

    def memo_pairs(self, values: list[float]) -> list[Pair]:
        """:meth:`member_pairs`, kept and reused at equal values (+0.0 and
        -0.0 alike) until the ensemble learns."""
        memo = self._memo
        if memo is not None and memo[0] == values:
            return memo[1]
        pairs = self.member_pairs(values)
        self._memo = (values, pairs)
        return pairs

    def fixed_pairs(self) -> np.ndarray | None:
        """``np.array(member_pairs(values))`` at any ``values``, where every
        member has a ``fixed_pair``; None where some member reads its input."""
        fixed = self._fixed
        if fixed is None:
            pairs = []
            for tree in self.sub_classifiers:
                pair = tree.fixed_pair()
                if pair is None:
                    fixed = False
                    break
                pairs.append(pair)
            else:
                fixed = np.array(pairs)
            self._fixed = fixed
        return None if fixed is False else fixed


def mean_pair(pairs: list[Pair]) -> Pair:
    """Unweighted mean of a member pass."""
    neg = pos = 0.0
    for p_neg, p_pos in pairs:
        neg += p_neg
        pos += p_pos
    k = len(pairs)
    return neg / k, pos / k


class OnlineBagging(_EnsembleBase):
    """Online bagging: each member trains with an independent Poisson(1) weight."""

    def learn(
        self, values: list[float], label: int, rng: np.random.Generator, pairs: list | None = None
    ) -> None:
        """Train the members on a list of ``n_features`` floats, drawing
        their weights from ``rng``, with ``pairs``, if given,
        :meth:`member_pairs` at it since the last learn. Unchecked."""
        self.trained_count += 1
        self._memo = self._fixed = None
        members = self.sub_classifiers
        # One batch of k draws: the same weights, in member order, as k
        # scalar draws, and the generator is left in the same state.
        draws = rng.poisson(1.0, len(members)).tolist()
        for tree, k, pair in zip(members, draws, pairs or [None] * len(draws)):
            if k > 0:
                tree.learn(values, label, float(k), pair)


class OnlineBoosting(_EnsembleBase):
    """Online boosting: members train sequentially with Poisson(lam) weights,
    where lam is amplified by the mistakes of the members before them."""

    _EPS = 1e-10

    def __init__(
        self,
        n_features: int,
        ensemble_size: int,
        tree_params: HoeffdingTreeParams | None = None,
    ) -> None:
        super().__init__(n_features, ensemble_size, tree_params)
        self.lambda_correct = np.zeros(self.ensemble_size)
        self.lambda_wrong = np.zeros(self.ensemble_size)

    def learn(
        self, values: list[float], label: int, rng: np.random.Generator, pairs: list | None = None
    ) -> None:
        """Train the members on a list of ``n_features`` floats, drawing
        their weights from ``rng``, with ``pairs``, if given,
        :meth:`member_pairs` at it since the last learn, and keep the
        members' pairs after training as the pass at it. Unchecked."""
        self.trained_count += 1
        self._fixed = None
        # The sums are worked on as floats and written back as arrays.
        correct_sums = self.lambda_correct.tolist()
        wrong_sums = self.lambda_wrong.tolist()
        low, high = self._EPS, 1.0 - self._EPS
        poisson = rng.poisson
        lam = 1.0
        after = []
        for m, tree in enumerate(self.sub_classifiers):
            k = poisson(lam)
            pair = pairs[m] if pairs else None
            if k > 0:
                # The leaf that learned answers as predict_pair would; None
                # where it split.
                leaf = tree.learn(values, label, float(k), pair)
                pair = leaf and (leaf._answer or leaf.naive_bayes_distribution(values))
            # A member with no pair, handed or read from its leaf, is routed.
            pair = pair or tree.predict_pair(values)
            after.append(pair)
            p_neg, p_pos = pair
            correct = (POS if p_pos > p_neg else NEG) == label
            if correct:
                correct_sums[m] += lam
            else:
                wrong_sums[m] += lam
            total = correct_sums[m] + wrong_sums[m]
            error = wrong_sums[m] / total if total > 0.0 else 0.0
            if error < low:
                error = low
            elif error > high:
                error = high
            lam = lam / (2.0 * (1.0 - error)) if correct else lam / (2.0 * error)
        self.lambda_correct = np.array(correct_sums)
        self.lambda_wrong = np.array(wrong_sums)
        # Every member's pair at values after training: the pass member_pairs
        # would route, kept for the weight update.
        self._memo = (values, after)


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
