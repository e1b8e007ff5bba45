"""A cache-free reference of the whole MARLINE model, for the tests.

It reads a model's trees and centroid trackers, which the model trains, but
keeps none of the values the model derives from them. Every call routes each
tree from its root, picks majority or naive Bayes from the leaf's tallies,
builds naive-Bayes terms from the estimators, takes each concept vector as
``centroid(POS) - centroid(NEG)`` and projects through fresh frames and
reflections, and recomputes the voting weights. The sub-classifier stats are
kept per concept. It keeps the model's order of float operations, so its
outputs equal the model's bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from marline.core import NEG, POS, argmax_label
from marline.learners import _SplitNode, mean_pair
from marline.mapping import ConceptFrame, Reflections
from marline.model import EPS_CLAMP, sub_classifier_weights, update_performance_stats


def fresh_majority(leaf):
    """The majority pair of ``leaf``, computed from its class weights."""
    neg, pos = leaf.class_weights
    total = neg + pos
    if total <= 0.0:
        return (0.5, 0.5)
    return (neg / total, pos / total)


def reference_terms(leaf):
    """The naive-Bayes terms of ``leaf``, built from its class weights and
    estimators: per class, its log prior and, per attribute, (mean,
    -log(2*pi*var)/2, 2*var) with the variance m2 / (n - 1), 0 for n <= 1,
    floored at 1e-12. A class without weight has prior -inf and no
    attribute terms."""
    weights = leaf.class_weights
    total = weights[NEG] + weights[POS]
    terms = []
    for label in (NEG, POS):
        if weights[label] <= 0.0:
            terms.append((-math.inf, []))
            continue
        attributes = []
        for per_class in leaf.estimators:
            est = per_class[label]
            n = est.weight_sum
            var = max(est._m2 / (n - 1.0) if n > 1.0 else 0.0, 1e-12)
            attributes.append((est.mean, -0.5 * math.log(2.0 * math.pi * var), 2.0 * var))
        terms.append((math.log(weights[label] / total), attributes))
    return terms


def per_tree_pair(tree, values):
    """A tree's pair as it was evaluated one tree at a time: the route to a
    leaf, the leaf-choice rule with a majority pair fresh from the class
    weights, and naive Bayes on terms built from the estimators, one loop
    per class, normalised by the larger logit."""
    node = tree._root
    while node.__class__ is _SplitNode:
        node = node.left if values[node.attribute] <= node.threshold else node.right
    if tree.params.leaf_prediction == "majority" or node.mc_correct_weight > node.nb_correct_weight:
        return fresh_majority(node)
    (neg, neg_attributes), (pos, pos_attributes) = reference_terms(node)
    for value, (mean, log_norm, two_var) in zip(values, neg_attributes):
        diff = value - mean
        neg += log_norm - diff * diff / two_var
    for value, (mean, log_norm, two_var) in zip(values, pos_attributes):
        diff = value - mean
        pos += log_norm - diff * diff / two_var
    if pos > neg:
        r = math.exp(neg - pos)
        return (r / (r + 1.0), 1.0 / (r + 1.0))
    if neg > pos:
        r = math.exp(pos - neg)
        return (1.0 / (1.0 + r), r / (1.0 + r))
    if neg == pos or neg == -math.inf:
        return (0.5, 0.5)
    return (math.nan, math.nan)


def reference_pass(ensemble, values):
    return [per_tree_pair(tree, values) for tree in ensemble.sub_classifiers]


def reference_frame(tracker):
    c_pos = tracker.centroid(POS)
    return ConceptFrame((c_pos - tracker.centroid(NEG)).tolist(), c_pos.tolist())


def reference_projection(values, concept, target_tracker):
    """``values`` in the space of ``concept``, which is not the current
    target concept, through reflections rebuilt from the centroids."""
    if not concept.tracker.both_classes_seen:
        return values
    return Reflections(
        reference_frame(concept.tracker), reference_frame(target_tracker)
    ).apply(values)


class ReferenceModel:
    """The weighting, vote and source weight share of ``model``, with stats
    kept per concept: gathered into flat arrays in pool order to update, and
    scattered back."""

    def __init__(self, model):
        self.model = model
        self.stats = {}  # id(concept) -> [lambda_correct, lambda_wrong, performance]

    def concepts(self):
        """Every concept in pool order, flagged if it is the current target."""
        model = self.model
        out = []
        for stream_id, pool in model.pools.items():
            for j, concept in enumerate(pool.concepts):
                is_current = stream_id == model.target_id and j == len(pool.concepts) - 1
                out.append((concept, is_current))
                if id(concept) not in self.stats:
                    k = model.config.ensemble_size
                    self.stats[id(concept)] = [np.zeros(k), np.zeros(k), np.ones(k)]
        return out

    def pass_of(self, concept, current, values, target):
        if not current:
            values = reference_projection(values, concept, target.tracker)
        return reference_pass(concept.ensemble, values)

    def observed(self, stream_id, example, drift):
        """Mirror ``model.observe`` after it returned ``drift``."""
        model = self.model
        concepts = self.concepts()
        if stream_id != model.target_id:
            return
        if drift:
            for stats in self.stats.values():
                stats[0][:] = 0.0
                stats[1][:] = 0.0
                stats[2][:] = 1.0
        target = model.pools[model.target_id].current
        if not target.tracker.both_classes_seen:
            return
        values = example.features.tolist()
        p_correct = [
            pair[example.label]
            for concept, current in concepts
            for pair in self.pass_of(concept, current, values, target)
        ]
        flat = [self.flat(i) for i in range(3)]
        new = update_performance_stats(
            *flat, np.array(p_correct), model.config.forgetting_factor, EPS_CLAMP
        )
        k = model.config.ensemble_size
        for n, (concept, _) in enumerate(concepts):
            for i in range(3):
                self.stats[id(concept)][i][:] = new[i][n * k : (n + 1) * k]

    def flat(self, i):
        return np.concatenate([self.stats[id(c)][i] for c, _ in self.concepts()])

    def weights(self):
        return sub_classifier_weights(self.flat(2), self.model.config.performance_index)

    def predict(self, features):
        """The label and scores of ``model.predict(features)``."""
        model = self.model
        if model.target_id not in model.pools:
            return NEG, np.array([0.5, 0.5])
        values = features.tolist()
        target = model.pools[model.target_id].current
        fallback = np.array(mean_pair(reference_pass(target.ensemble, values)))
        weights = self.weights()
        if not target.tracker.both_classes_seen or not weights.any():
            return argmax_label(fallback), fallback
        k = model.config.ensemble_size
        neg = pos = 0.0
        for n, (concept, current) in enumerate(self.concepts()):
            w = weights[n * k : (n + 1) * k]
            if w.any():
                pairs = self.pass_of(concept, current, values, target)
                p_neg, p_pos = (w @ np.array(pairs)).tolist()
                neg += p_neg
                pos += p_pos
        if neg == pos:
            return argmax_label(fallback), fallback
        scores = np.array([neg, pos])
        return argmax_label(scores), scores

    def ratio(self):
        if self.model.target_id not in self.model.pools:
            return 0.0
        weights = self.weights()
        if not weights.any():
            return 0.0
        k = self.model.config.ensemble_size
        ratio = 0.0
        for n, (_, current) in enumerate(self.concepts()):
            if not current:
                ratio += float(weights[n * k : (n + 1) * k].sum())
        return min(max(ratio, 0.0), 1.0)
