"""Tests for the MARLINE orchestrator: training loop, weighting, voting."""

from __future__ import annotations

import copy
import copyreg
import os
import pickle
import tempfile
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from marline.core import (
    NEG,
    POS,
    ConfigurationError,
    DataError,
    DimensionMismatchError,
    Example,
)
from marline.drift import DriftStatus
from marline.evaluation import BaselineApproach
from marline.learners import HoeffdingTree, HoeffdingTreeParams, _LeafNode
from marline.mapping import CentroidTracker, ConceptFrame, Reflections
from marline.model import (
    EPS_CLAMP,
    MarlineConfig,
    MarlineModel,
    sub_classifier_weights,
    update_performance_stats,
)


class StubTree:
    """Sub-classifier returning a fixed distribution, recording its inputs."""

    n_learned = 0

    def __init__(self, distribution):
        self.distribution = np.asarray(distribution, dtype=float)
        self.seen_features = []

    def learn(self, values, label, weight, pair=None):
        pass

    def predict_pair(self, values):
        self.seen_features.append(np.asarray(values, dtype=float))
        return tuple(self.distribution.tolist())


class StubDetector:
    """Fires drift at chosen update counts (counted since last reset)."""

    def __init__(self, fire_at=()):
        self.fire_at = set(fire_at)
        self.observed_count = 0
        self.status = DriftStatus.STABLE

    def update(self, prediction_correct):
        self.observed_count += 1
        self.status = (
            DriftStatus.DRIFT
            if self.observed_count in self.fire_at
            else DriftStatus.STABLE
        )
        return self.status

    def reset(self):
        self.observed_count = 0
        self.status = DriftStatus.STABLE


def small_config(**overrides):
    defaults = dict(
        n_features=2,
        ensemble_size=2,
        base_ensemble="bagging",
        detector="hddm_a",
        forgetting_factor=0.9,
        performance_index=0.0,
    )
    defaults.update(overrides)
    return MarlineConfig(**defaults)


def seed_tracker(tracker, c_neg=(0.0, 0.0), c_pos=(1.0, 1.0)):
    tracker.update(Example(np.array(c_neg, dtype=float), NEG))
    tracker.update(Example(np.array(c_pos, dtype=float), POS))


def install_stub_concept(model, stream_id, dists, c_neg=(0.0, 0.0), c_pos=(1.0, 1.0)):
    """Give ``stream_id`` a single concept with stubbed sub-classifiers."""
    assert len(dists) == model.config.ensemble_size
    pool = model.pools.get(stream_id)
    if pool is None:
        pool = model._new_concept(stream_id)
    concept = pool.current
    concept.ensemble.sub_classifiers = [StubTree(d) for d in dists]
    seed_tracker(concept.tracker, c_neg, c_pos)
    return concept


def alternating_stream(rng, n, mean_neg, mean_pos, std=1.0):
    out = []
    for t in range(n):
        mean = mean_pos if t % 2 else mean_neg
        out.append(Example(np.asarray(mean) + rng.standard_normal(2) * std, t % 2))
    return out


# ----------------------------------------------------------------------
# Performance-stats update
# ----------------------------------------------------------------------


def test_config_rejects_unknown_component_kinds_naming_the_choices():
    with pytest.raises(
        ConfigurationError, match=r"unknown detector kind 'x'; choose from \('ddm', 'hddm_a'\)"
    ):
        small_config(detector="x")
    with pytest.raises(
        ConfigurationError,
        match=r"base_ensemble must be one of \('bagging', 'boosting'\), got 'x'",
    ):
        small_config(base_ensemble="x")


def test_worked_update_example_against_exact_fractions():
    # Two fresh sub-classifiers, P(correct) = 0.8 and 0.4. Independent
    # oracle: the same recurrence evaluated in exact rational arithmetic.
    lam_c, lam_w, alpha, sc, sw = update_performance_stats(
        np.zeros(2),
        np.zeros(2),
        np.ones(2),
        np.array([0.8, 0.4]),
        forgetting_factor=0.9,
        eps_clamp=1e-10,
    )[:5]
    assert sc == pytest.approx(1.2, abs=1e-12)
    assert sw == pytest.approx(0.8, abs=1e-12)
    assert lam_c[0] == pytest.approx(float(Fraction(4, 9)), abs=1e-12)
    assert lam_w[0] == pytest.approx(float(Fraction(1, 6)), abs=1e-12)
    assert alpha[0] == pytest.approx(float(Fraction(8, 11)), abs=1e-12)
    assert lam_c[1] == pytest.approx(float(Fraction(2, 9)), abs=1e-12)
    assert lam_w[1] == pytest.approx(float(Fraction(1, 2)), abs=1e-12)
    assert alpha[1] == pytest.approx(float(Fraction(4, 13)), abs=1e-12)


def test_worked_update_example_through_the_model():
    model = MarlineModel(small_config())
    install_stub_concept(model, "T", [[0.2, 0.8], [0.6, 0.4]])
    model.update_weights(Example(np.array([0.5, 0.5]), POS))
    assert model.lambda_correct == pytest.approx([4 / 9, 2 / 9], abs=1e-12)
    assert model.lambda_wrong == pytest.approx([1 / 6, 1 / 2], abs=1e-12)
    assert model.performance == pytest.approx([8 / 11, 4 / 13], abs=1e-12)


def test_fully_confident_ensemble_barely_moves_the_stats():
    # All P(correct) = 1: SW clamps to eps, the example weight collapses,
    # and performances stay at their prior values.
    lam_c, lam_w, alpha, _, sw = update_performance_stats(
        np.zeros(3),
        np.zeros(3),
        np.ones(3),
        np.ones(3),
        forgetting_factor=1.0,
        eps_clamp=1e-10,
    )
    assert sw == pytest.approx(1e-10)
    assert np.all(lam_c < 1e-9)
    assert np.all(lam_w == 0.0)
    assert alpha == pytest.approx([1.0, 1.0, 1.0])


def test_consistently_better_classifier_ends_with_higher_alpha():
    for theta in (0.9, 1.0):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            lam_c = np.zeros(2)
            lam_w = np.zeros(2)
            alpha = np.ones(2)
            for _ in range(100):
                p_low = rng.uniform(0.0, 0.9)
                p_high = rng.uniform(p_low, 1.0)
                lam_c, lam_w, alpha, _, _ = update_performance_stats(
                    lam_c,
                    lam_w,
                    alpha,
                    np.array([p_high, p_low]),
                    forgetting_factor=theta,
                    eps_clamp=1e-10,
                )
            assert alpha[0] >= alpha[1] - 1e-12, f"theta={theta} seed={seed}"


def test_always_correct_beats_always_wrong_after_100_updates():
    lam_c = np.zeros(2)
    lam_w = np.zeros(2)
    alpha = np.ones(2)
    for _ in range(100):
        lam_c, lam_w, alpha, _, _ = update_performance_stats(
            lam_c, lam_w, alpha, np.array([1.0, 0.0]), 1.0, 1e-10
        )
    assert alpha[0] > alpha[1]
    assert alpha[0] > 0.9 and alpha[1] < 0.1


def reference_performance_stats(
    lambda_correct, lambda_wrong, performance, p_correct, forgetting_factor, eps_clamp
):
    """``update_performance_stats`` as first written, one numpy call per term."""
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


@pytest.mark.parametrize("n", [5, 30, 110])
def test_performance_stats_equal_the_reference_formula_bit_for_bit(n):
    rng = np.random.default_rng(n)

    def uniform(high=1.0):
        return rng.uniform(0.0, high, n)

    cases = [
        (uniform(3.0), uniform(3.0), uniform(), uniform(), float(rng.uniform(0.5, 1.0)))
        for _ in range(200)
    ]
    # p outside [0, 1], and exact 0 and 1.
    outside = rng.uniform(-0.5, 1.5, n)
    outside[:2] = (0.0, 1.0)
    cases.append((uniform(), uniform(), uniform(), outside, 0.9))
    # All-zero performance: SC and SW fall to the EPS_CLAMP floor.
    cases.append((uniform(), uniform(), np.zeros(n), uniform(), 0.9))
    # Zero totals, everywhere or in every other member; all-confident members.
    cases.append((np.zeros(n), np.zeros(n), np.zeros(n), uniform(), 1.0))
    mixed = np.ones(n)
    mixed[::2] = 0.0
    cases.append((np.zeros(n), np.zeros(n), mixed, uniform(), 0.9))
    cases.append((np.zeros(n), np.zeros(n), np.ones(n), np.ones(n), 0.9))
    for lambda_c, lambda_w, performance, p, theta in cases:
        got = update_performance_stats(lambda_c, lambda_w, performance, p, theta, EPS_CLAMP)
        expected = reference_performance_stats(
            lambda_c, lambda_w, performance, p, theta, EPS_CLAMP
        )
        for g, e in zip(got[:3], expected[:3]):
            assert np.array_equal(g, e)
        assert got[3:] == expected[3:]


@st.composite
def performance_updates(draw):
    """Inputs of one update of 1 to 110 members: p outside [0, 1] and
    exactly 0 and 1, and either drawn stats or the stats just after a
    target drift's reset (zero lambdas, unit performance)."""
    n = draw(st.integers(1, 110))

    def array(elements):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)))

    if draw(st.booleans()):
        lambda_c, lambda_w, performance = np.zeros(n), np.zeros(n), np.ones(n)
    else:
        lambda_c = array(st.floats(0.0, 3.0))
        lambda_w = array(st.floats(0.0, 3.0))
        performance = array(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])))
    p = array(st.one_of(st.floats(-0.5, 1.5), st.sampled_from([0.0, 1.0])))
    return lambda_c, lambda_w, performance, p, draw(st.floats(0.5, 1.0))


@settings(max_examples=300, deadline=None)
@given(performance_updates())
def test_performance_stats_equal_the_reference_formula_on_any_inputs(case):
    got = update_performance_stats(*case, EPS_CLAMP)
    expected = reference_performance_stats(*case, EPS_CLAMP)
    assert [g.tobytes() for g in got[:3]] == [e.tobytes() for e in expected[:3]]
    assert got[3:] == expected[3:]


# ----------------------------------------------------------------------
# Voting weights
# ----------------------------------------------------------------------


def test_weights_threshold_and_normalise():
    w = sub_classifier_weights(np.array([0.8, 0.5, 0.3]), 0.4)
    assert w == pytest.approx([0.8 / 1.3, 0.5 / 1.3, 0.0])


def test_weights_uniform_for_fresh_model():
    w = sub_classifier_weights(np.ones(8), 0.0)
    assert w == pytest.approx(np.full(8, 1 / 8))


def test_weights_all_zero_when_nothing_clears_the_index():
    assert sub_classifier_weights(np.array([0.2, 0.3]), 0.5) == pytest.approx([0.0, 0.0])


def test_weights_normalise_whenever_any_alpha_clears_the_index():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        alphas = rng.uniform(0.0, 1.0, n)
        sigma = float(rng.uniform(0.0, 1.0))
        w = sub_classifier_weights(alphas, sigma)
        assert np.all(w >= 0.0)
        assert np.all(w[alphas <= sigma] == 0.0)
        if (alphas > sigma).any():
            assert w.sum() == pytest.approx(1.0, abs=1e-9)
        else:
            assert w.sum() == 0.0


def where_weights(performances, performance_index):
    """``sub_classifier_weights`` as first written, with ``np.where``."""
    mask = performances > performance_index
    if not mask.any():
        return np.zeros_like(performances)
    total = float(performances[mask].sum())
    return np.where(mask, performances / total, 0.0)


@st.composite
def performances_and_index(draw):
    """1 to 110 performances in [0, 1], some equal to the index."""
    index = draw(st.floats(0.0, 1.0))
    value = st.one_of(st.floats(0.0, 1.0), st.just(index), st.sampled_from([0.0, 1.0]))
    n = draw(st.integers(1, 110))
    return np.array(draw(st.lists(value, min_size=n, max_size=n))), index


@settings(max_examples=300, deadline=None)
@given(performances_and_index())
def test_weights_sum_to_one_or_are_all_zero_and_equal_the_where_form(case):
    performances, index = case
    w = sub_classifier_weights(performances, index)
    assert w.tobytes() == where_weights(performances, index).tobytes()
    if (performances > index).any():
        assert abs(float(w.sum()) - 1.0) <= 1e-12
    else:
        assert not w.any()


# ----------------------------------------------------------------------
# observe: pools, drift, resets, provenance
# ----------------------------------------------------------------------


def test_first_example_creates_a_fresh_pool():
    model = MarlineModel(small_config(ensemble_size=3))
    rng = np.random.default_rng(0)
    model.observe("S1", Example(np.zeros(2), NEG), rng)
    assert set(model.pools) == {"S1"}
    pool = model.pools["S1"]
    assert pool.concept_count == 1
    assert len(pool.current.ensemble.sub_classifiers) == 3
    assert model.performance == pytest.approx([1.0, 1.0, 1.0])
    assert model.lambda_correct == pytest.approx([0.0, 0.0, 0.0])


def test_target_drift_resets_every_stat_in_every_pool():
    model = MarlineModel(small_config())
    rng = np.random.default_rng(1)
    for ex in alternating_stream(rng, 40, (0.0, 0.0), (3.0, 3.0)):
        model.observe("S1", ex, rng)
        model.observe("T", ex, rng)
    # Stats have moved away from initialisation by now.
    assert model.lambda_correct.sum() > 0
    model.pools["T"].detector = StubDetector(fire_at={1})
    drift = model.observe("T", Example(np.array([9.0, 9.0]), POS), rng)
    assert drift
    assert model.pools["T"].concept_count == 2
    assert np.max(model.lambda_correct) == 0.0
    assert np.max(model.lambda_wrong) == 0.0
    assert np.min(model.performance) == 1.0


def test_source_drift_does_not_touch_other_pools():
    model = MarlineModel(small_config())
    rng = np.random.default_rng(2)
    for ex in alternating_stream(rng, 40, (0.0, 0.0), (3.0, 3.0)):
        model.observe("S1", ex, rng)
        model.observe("T", ex, rng)
    target_stats = model.lambda_correct[2:].copy()  # pools S1, T
    model.pools["S1"].detector = StubDetector(fire_at={1})
    model.observe("S1", Example(np.array([9.0, 9.0]), POS), rng)
    assert model.pools["S1"].concept_count == 2
    assert model.pools["T"].concept_count == 1
    assert np.array_equal(model.lambda_correct[4:], target_stats)


def test_streams_train_only_their_own_pools():
    model = MarlineModel(small_config())
    rng = np.random.default_rng(3)
    stream = alternating_stream(rng, 20, (0.0, 0.0), (3.0, 3.0))
    for ex in stream[:10]:
        model.observe("S1", ex, rng)
    for ex in stream[:7]:
        model.observe("T", ex, rng)
    assert model.pools["S1"].current.ensemble.trained_count == 10
    assert model.pools["T"].current.ensemble.trained_count == 7


def test_observe_rejects_dimension_mismatch():
    model = MarlineModel(small_config())
    with pytest.raises(DimensionMismatchError):
        model.observe("T", Example(np.zeros(5), NEG), np.random.default_rng(0))


def test_update_weights_rejects_dimension_mismatch():
    model = MarlineModel(small_config())
    install_stub_concept(model, "S1", [[0.2, 0.8], [0.6, 0.4]])
    install_stub_concept(model, "T", [[0.9, 0.1], [0.5, 0.5]])
    for features in (np.zeros(3), np.zeros(1)):
        with pytest.raises(DimensionMismatchError):
            model.update_weights(Example(features, POS))


def test_abrupt_target_stream_reaches_two_concepts():
    # Desk-scale version of the drift pipeline: clear abrupt drift must
    # produce a second target concept for most seeds.
    hits = 0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        model = MarlineModel(small_config(ensemble_size=5))
        first = alternating_stream(rng, 400, (2.0, 3.0), (7.0, 8.0))
        second = alternating_stream(rng, 400, (2.0, 9.0), (5.0, 4.0))
        for ex in first + second:
            model.observe("T", ex, rng)
        if model.pools["T"].concept_count == 2:
            hits += 1
    assert hits >= 4


# ----------------------------------------------------------------------
# predict
# ----------------------------------------------------------------------


def test_cold_start_prediction():
    model = MarlineModel(small_config())
    prediction = model.predict(np.zeros(2))
    assert prediction.cold_start
    assert prediction.label == NEG
    assert prediction.scores == pytest.approx([0.5, 0.5])


def test_uniform_weights_collapse_to_base_ensemble_mean():
    model = MarlineModel(small_config())
    install_stub_concept(model, "T", [[0.2, 0.8], [0.6, 0.4]])
    prediction = model.predict(np.array([0.3, 0.3]))
    assert prediction.scores == pytest.approx([0.4, 0.6])
    assert prediction.label == POS


def test_single_dominant_sub_classifier_decides_alone():
    model = MarlineModel(small_config(performance_index=0.5))
    install_stub_concept(model, "T", [[0.9, 0.1], [0.3, 0.7]])
    model.performance[:] = [0.9, 0.2]  # only the first clears the index
    prediction = model.predict(np.array([0.3, 0.3]))
    assert prediction.label == NEG
    assert prediction.scores == pytest.approx([0.9, 0.1])


def test_scores_equal_explicit_double_sum_over_concepts():
    model = MarlineModel(small_config())
    install_stub_concept(model, "T", [[0.2, 0.8], [0.6, 0.4]])
    install_stub_concept(model, "S1", [[0.9, 0.1], [0.5, 0.5]])
    install_stub_concept(model, "S2", [[0.1, 0.9], [0.7, 0.3]])
    model.performance[:] = [0.8, 0.6, 0.4, 0.2, 0.9, 0.1]  # pools T, S1, S2
    alphas = np.array([0.4, 0.2, 0.9, 0.1, 0.8, 0.6])  # pool insertion order
    dists = np.array(
        [[0.9, 0.1], [0.5, 0.5], [0.1, 0.9], [0.7, 0.3], [0.2, 0.8], [0.6, 0.4]]
    )
    weights = alphas / alphas.sum()  # sigma = 0, all clear the index
    expected = weights @ dists
    prediction = model.predict(np.array([0.5, 0.5]))
    assert prediction.scores == pytest.approx(expected, abs=1e-12)


def test_warmup_falls_back_to_target_ensemble():
    model = MarlineModel(small_config())
    pool = model._new_concept("T")
    pool.current.ensemble.sub_classifiers = [StubTree([0.7, 0.3]), StubTree([0.9, 0.1])]
    pool.current.tracker.update(Example(np.zeros(2), NEG))  # one class only
    prediction = model.predict(np.array([0.3, 0.3]))
    assert prediction.scores == pytest.approx([0.8, 0.2])
    assert prediction.label == NEG


def test_all_weights_zero_falls_back_to_target_ensemble():
    model = MarlineModel(small_config(performance_index=0.99))
    install_stub_concept(model, "T", [[0.1, 0.9], [0.3, 0.7]])
    model.performance[:] = [0.5, 0.5]  # nothing clears the index
    prediction = model.predict(np.array([0.3, 0.3]))
    assert prediction.scores == pytest.approx([0.2, 0.8])
    assert prediction.label == POS


def test_exact_tie_falls_back_then_breaks_to_neg():
    model = MarlineModel(small_config())
    install_stub_concept(model, "T", [[0.5, 0.5], [0.5, 0.5]])
    prediction = model.predict(np.array([0.3, 0.3]))
    assert prediction.label == NEG


def test_duplicate_clone_concept_leaves_argmax_unchanged():
    # A source pool that is an exact clone of the target concept (same
    # centroids, same members) must not change any argmax decision.
    rng = np.random.default_rng(7)
    base = MarlineModel(small_config(ensemble_size=4))
    for ex in alternating_stream(rng, 300, (0.0, 0.0), (3.0, 3.0)):
        base.observe("T", ex, rng)
    cloned = copy.deepcopy(base)
    dup_pool = copy.deepcopy(cloned.pools["T"])
    cloned.pools["S_dup"] = dup_pool
    # Register the clone's concepts and a copy of the target's stats, as
    # MarlineModel._new_concept would for a pool seen after "T".
    cloned.concepts.extend(dup_pool.concepts)
    cloned.lambda_correct = np.tile(cloned.lambda_correct, 2)
    cloned.lambda_wrong = np.tile(cloned.lambda_wrong, 2)
    cloned.performance = np.tile(cloned.performance, 2)
    probes = np.random.default_rng(8).standard_normal((100, 2)) * 2 + 1.5
    for p in probes:
        assert base.predict(p).label == cloned.predict(p).label


def test_non_finite_features_are_rejected_before_touching_state():
    rng = np.random.default_rng(12)
    model = MarlineModel(small_config())
    for ex in alternating_stream(rng, 20, (0.0, 0.0), (3.0, 3.0)):
        model.observe("T", ex, rng)
        model.observe("S1", ex, rng)
    before = model.predict(np.array([7.0, 8.0]))
    with pytest.raises(DataError):
        model.observe("S1", Example(np.array([np.nan, 2.0]), POS), rng)
    after = model.predict(np.array([7.0, 8.0]))
    assert np.all(np.isfinite(after.scores))
    assert np.array_equal(before.scores, after.scores)
    for bad in ([np.inf, 0.0], [0.0, np.nan]):
        with pytest.raises(DataError):
            model.predict(np.array(bad))


@pytest.mark.parametrize(
    "features, error", [([np.nan, 2.0], DataError), ([1.0, 2.0, 3.0], DimensionMismatchError)]
)
@pytest.mark.parametrize("stream_id", ["S1", "S2"])
def test_bad_source_example_is_rejected_before_any_state_changes(features, error, stream_id):
    # S1 has a pool already; S2 would get its first one.
    rng = np.random.default_rng(12)
    model = MarlineModel(small_config())
    for ex in alternating_stream(rng, 20, (0.0, 0.0), (3.0, 3.0)):
        model.observe("T", ex, rng)
        model.observe("S1", ex, rng)
    snapshot, rng_state = pickle.dumps(model), rng.bit_generator.state
    with pytest.raises(error):
        model.observe(stream_id, Example(np.array(features), POS), rng)
    assert pickle.dumps(model) == snapshot
    assert rng.bit_generator.state == rng_state


def test_update_weights_rejects_non_finite_features_before_any_state_changes():
    # A NaN would turn every lambda into NaN and pin every performance at 1.
    rng = np.random.default_rng(13)
    model = MarlineModel(small_config(ensemble_size=3))
    for ex in alternating_stream(rng, 200, (0.0, 0.0), (3.0, 3.0)):
        model.observe("T", ex, rng)
    snapshot = pickle.dumps(model)
    for bad in ([np.nan, 1.0], [1.0, -np.inf]):
        with pytest.raises(DataError):
            model.update_weights(Example(np.array(bad), POS))
    assert pickle.dumps(model) == snapshot
    assert np.all(np.isfinite(model.lambda_correct))


# ----------------------------------------------------------------------
# source weight ratio
# ----------------------------------------------------------------------


def test_ratio_zero_with_only_the_current_target_concept():
    model = MarlineModel(small_config())
    install_stub_concept(model, "T", [[0.2, 0.8], [0.6, 0.4]])
    assert model.source_weight_ratio() == 0.0


def test_ratio_one_when_all_weight_sits_on_a_source():
    model = MarlineModel(small_config(performance_index=0.5))
    install_stub_concept(model, "T", [[0.2, 0.8], [0.6, 0.4]])
    install_stub_concept(model, "S1", [[0.9, 0.1], [0.5, 0.5]])
    model.performance[:] = [0.1, 0.2, 0.9, 0.3]  # pools T, S1
    assert model.source_weight_ratio() == pytest.approx(1.0)


def test_ratio_is_the_sum_over_non_current_concepts():
    model = MarlineModel(small_config())
    install_stub_concept(model, "T", [[0.2, 0.8], [0.6, 0.4]])
    install_stub_concept(model, "S1", [[0.9, 0.1], [0.5, 0.5]])
    install_stub_concept(model, "S2", [[0.1, 0.9], [0.7, 0.3]])
    model.performance[:] = [0.5, 0.3, 0.25, 0.15, 0.2, 0.1]  # pools T, S1, S2
    total = 0.5 + 0.3 + 0.25 + 0.15 + 0.2 + 0.1
    expected = (0.25 + 0.15 + 0.2 + 0.1) / total
    assert model.source_weight_ratio() == pytest.approx(expected, abs=1e-12)
    assert 0.0 <= model.source_weight_ratio() <= 1.0


def uncached_ratio(model):
    """The source weight ratio from freshly computed weights, summed per
    concept slice."""
    weights = sub_classifier_weights(model.performance, model.config.performance_index)
    if not weights.any():
        return 0.0
    k = model.config.ensemble_size
    current = model.pools[model.target_id].current
    ratio = 0.0
    for i, concept in enumerate(model.concepts):
        if concept is not current:
            ratio += float(weights[i * k : (i + 1) * k].sum())
    return min(max(ratio, 0.0), 1.0)


@pytest.mark.parametrize("k", [1, 3, 7])
def test_cached_voting_weights_give_the_uncached_ratio_and_vote(k):
    # The weights are kept from one query to the next. Every change of
    # performance must drop them: the update, a new concept's block and a
    # target drift's reset (drifts are forced on every stream).
    rng = np.random.default_rng(30 + k)
    model = MarlineModel(small_config(ensemble_size=k, performance_index=0.3))
    means = {
        "T": ((0.5, 0.0), (3.0, 2.5)),
        "S1": ((0.0, 0.0), (3.0, 3.0)),
        "S2": ((1.0, 1.0), (4.0, 4.0)),
    }
    streams = {sid: alternating_stream(rng, 120, *m) for sid, m in means.items()}
    forced = {30: "S1", 50: "T", 70: "S2", 90: "T"}
    probe = np.array([1.7, 1.4])
    for t in range(120):
        for sid in ("T", "S1", "S2"):
            if sid in model.pools:
                model.pools[sid].detector = StubDetector({1} if forced.get(t) == sid else ())
            model.observe(sid, streams[sid][t], rng)
            # A shallow copy leaves the weights out, as a snapshot does.
            fresh = copy.copy(model)
            if t % 2:
                ratio, scores = model.source_weight_ratio(), model.predict(probe).scores
            else:
                scores, ratio = model.predict(probe).scores, model.source_weight_ratio()
            assert ratio == uncached_ratio(model)
            assert np.array_equal(scores, fresh.predict(probe).scores)
    assert [model.pools[sid].concept_count for sid in ("T", "S1", "S2")] == [3, 2, 2]


# ----------------------------------------------------------------------
# flat stats against a per-concept reference
# ----------------------------------------------------------------------


def reference_projection(features, concept, is_current_target, target_tracker):
    """Projection through uncached reflections, rebuilt from the trackers'
    centroids on every call."""
    values = features.tolist()
    if is_current_target:
        return values
    v_src = concept.tracker.concept_vector()
    if v_src is None:
        return values
    source = ConceptFrame(v_src.tolist(), concept.tracker.centroid(POS).tolist())
    target = ConceptFrame(
        target_tracker.concept_vector().tolist(), target_tracker.centroid(POS).tolist()
    )
    return Reflections(source, target).apply(values)


class PerConceptReference:
    """The weighting and vote with stats kept per concept: gather them into
    flat arrays in pool order, update, and scatter them back."""

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
        probs = [
            concept.ensemble.member_distributions(
                reference_projection(example.features, concept, current, target.tracker)
            )[:, example.label]
            for concept, current in concepts
        ]
        flat = [np.concatenate([self.stats[id(c)][i] for c, _ in concepts]) for i in range(3)]
        new = update_performance_stats(
            *flat, np.concatenate(probs), model.config.forgetting_factor, EPS_CLAMP
        )
        k = model.config.ensemble_size
        for n, (concept, _) in enumerate(concepts):
            for i in range(3):
                self.stats[id(concept)][i][:] = new[i][n * k : (n + 1) * k]

    def flat(self, i):
        return np.concatenate([self.stats[id(c)][i] for c, _ in self.concepts()])

    def weights(self):
        return sub_classifier_weights(self.flat(2), self.model.config.performance_index)

    def scores(self, features):
        model = self.model
        if model.target_id not in model.pools:
            return np.array([0.5, 0.5])
        target = model.pools[model.target_id].current
        weights = self.weights()
        if not target.tracker.both_classes_seen or not weights.any():
            return target.ensemble.predict(features)
        k = model.config.ensemble_size
        scores = np.zeros(2)
        for n, (concept, current) in enumerate(self.concepts()):
            w = weights[n * k : (n + 1) * k]
            if w.any():
                projected = reference_projection(features, concept, current, target.tracker)
                scores += w @ concept.ensemble.member_distributions(projected)
        if scores[NEG] == scores[POS]:
            return target.ensemble.predict(features)
        return scores

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


def test_flat_stats_match_the_per_concept_reference_bit_for_bit():
    # Pools are first seen in the order S1, T, S2, so a drift on S1 puts its
    # new block between older blocks. Block order fixes the order of every
    # sum, so any other order shows up in the last bits.
    rng = np.random.default_rng(21)
    model = MarlineModel(small_config(ensemble_size=5, performance_index=0.3))
    reference = PerConceptReference(model)
    means = {
        "S1": ((0.0, 0.0), (3.0, 3.0)),
        "T": ((0.5, 0.0), (3.0, 2.5)),
        "S2": ((1.0, 1.0), (4.0, 4.0)),
    }
    streams = {sid: alternating_stream(rng, 240, *m) for sid, m in means.items()}
    forced = {60: "S1", 100: "S2", 140: "T", 180: "S1"}
    probe = np.array([1.7, 1.4])
    for t in range(240):
        for sid in ("S1", "T", "S2"):
            if sid in model.pools:  # only forced drifts
                fire_at = {1} if forced.get(t) == sid else ()
                model.pools[sid].detector = StubDetector(fire_at)
            example = streams[sid][t]
            drift = model.observe(sid, example, rng)
            assert drift == (t in forced and forced[t] == sid)
            reference.observed(sid, example, drift)
            assert np.array_equal(model.lambda_correct, reference.flat(0))
            assert np.array_equal(model.lambda_wrong, reference.flat(1))
            assert np.array_equal(model.performance, reference.flat(2))
            assert np.array_equal(model.predict(probe).scores, reference.scores(probe))
            assert model.source_weight_ratio() == reference.ratio()
    assert [model.pools[sid].concept_count for sid in ("S1", "T", "S2")] == [3, 2, 2]


# ----------------------------------------------------------------------
# snapshots
# ----------------------------------------------------------------------


def test_snapshot_round_trip_preserves_predictions(tmp_path):
    rng = np.random.default_rng(9)
    model = MarlineModel(small_config(ensemble_size=3))
    stream = alternating_stream(rng, 300, (0.0, 0.0), (3.0, 3.0))
    for ex in stream[:200]:
        model.observe("S1", ex, rng)
        model.observe("T", ex, rng)
    path = str(tmp_path / "model.bin")
    model.save(path)
    restored = MarlineModel.load(path)
    probes = np.random.default_rng(10).standard_normal((50, 2)) * 2 + 1.5
    for p in probes:
        a, b = model.predict(p), restored.predict(p)
        assert a.label == b.label
        assert np.array_equal(a.scores, b.scores)
    assert restored.source_weight_ratio() == model.source_weight_ratio()


def leaves(model):
    """Every leaf of every tree of every concept of ``model``."""
    found = []
    for concept in model.concepts:
        for tree in concept.ensemble.sub_classifiers:
            nodes = [tree._root]
            while nodes:
                node = nodes.pop()
                if isinstance(node, _LeafNode):
                    found.append(node)
                else:
                    nodes += [node.left, node.right]
    return found


def test_snapshot_stores_no_concept_frames(tmp_path):
    import io
    import pickle

    rng = np.random.default_rng(12)
    model = MarlineModel(small_config(ensemble_size=3))
    stream = alternating_stream(rng, 120, (0.0, 0.0), (3.0, 3.0))
    for ex in stream:
        model.observe("S1", ex, rng)
        model.observe("T", ex, rng)
    probes = np.random.default_rng(13).standard_normal((20, 2)) * 2 + 1.5
    before = [model.predict(p) for p in probes]
    assert all(c.tracker._frame is not None for c in model.concepts)
    assert model.pools["T"].current.ensemble._memo is not None
    assert any(leaf._nb_terms is not None for leaf in leaves(model))
    for leaf in leaves(model):
        leaf.majority_distribution()

    found = []

    class Spy(pickle.Pickler):
        def persistent_id(self, obj):
            if isinstance(obj, ConceptFrame):
                found.append(obj)
            return None

    frames = [c.tracker.frame() for c in model.concepts]
    memos = [c.ensemble._memo for c in model.concepts]
    terms = [leaf._nb_terms for leaf in leaves(model)]
    majorities = [leaf._majority for leaf in leaves(model)]
    path = tmp_path / "model.bin"
    model.save(str(path))
    Spy(io.BytesIO()).dump(model)
    assert found == []
    assert [c.tracker.frame() for c in model.concepts] == frames
    assert [c.ensemble._memo for c in model.concepts] == memos
    assert [leaf._nb_terms for leaf in leaves(model)] == terms
    assert [leaf._majority for leaf in leaves(model)] == majorities
    restored = MarlineModel.load(str(path))
    assert all(c.tracker._frame is None for c in restored.concepts)
    assert all("_memo" not in vars(c.ensemble) for c in restored.concepts)
    assert all(
        leaf._nb_terms is None and leaf._majority is None for leaf in leaves(restored)
    )
    for p, a in zip(probes, before):
        b = restored.predict(p)
        assert a.label == b.label
        assert np.array_equal(a.scores, b.scores)


class EarlierLayout(pickle.Pickler):
    """Pickles leaves as they used to be: the default slots state (None,
    slots), with their naive-Bayes terms and without a majority slot, and
    trees without their count of learnt examples."""

    def reducer_override(self, obj):
        if isinstance(obj, HoeffdingTree):
            state = {k: v for k, v in vars(obj).items() if k != "n_learned"}
            return copyreg.__newobj__, (HoeffdingTree,), state
        if not isinstance(obj, _LeafNode):
            return NotImplemented
        slots = {name: getattr(obj, name) for name in obj.__slots__ if name != "_majority"}
        return copyreg.__newobj__, (_LeafNode,), (None, slots)


def test_snapshot_restores_leaves_pickled_with_their_terms(tmp_path):
    # Such a version-3 snapshot still loads, predicts the same, and goes on
    # learning as the model it was saved from.
    rng = np.random.default_rng(14)
    model = MarlineModel(small_config(ensemble_size=3))
    for ex in alternating_stream(rng, 200, (0.0, 0.0), (3.0, 3.0)):
        model.observe("S1", ex, rng)
        model.observe("T", ex, rng)
    probes = np.random.default_rng(15).standard_normal((30, 2)) * 2 + 1.5
    before = [model.predict(p) for p in probes]
    assert any(leaf._nb_terms is not None for leaf in leaves(model))
    path = tmp_path / "model.bin"
    with open(path, "wb") as fh:
        EarlierLayout(fh).dump({"format": "marline-model", "version": 3, "model": model})
    restored = MarlineModel.load(str(path))
    assert all(leaf._nb_terms is None for leaf in leaves(restored))
    trees = [tree for c in restored.concepts for tree in c.ensemble.sub_classifiers]
    assert all("n_learned" not in vars(tree) for tree in trees)
    for p, a in zip(probes, before):
        b = restored.predict(p)
        assert a.label == b.label
        assert np.array_equal(a.scores, b.scores)
    restored_rng = copy.deepcopy(rng)
    for ex in alternating_stream(np.random.default_rng(16), 40, (0.0, 0.0), (3.0, 3.0)):
        for m, r in ((model, rng), (restored, restored_rng)):
            m.observe("S1", ex, r)
            m.observe("T", ex, r)
        for p in probes[:5]:
            assert np.array_equal(model.predict(p).scores, restored.predict(p).scores)


@settings(max_examples=25, deadline=None)
@given(
    base_ensemble=st.sampled_from(["bagging", "boosting"]),
    leaf_prediction=st.sampled_from(["nb_adaptive", "majority"]),
    earlier=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 150),
)
def test_version_3_snapshots_load_and_continue_identically(
    base_ensemble, leaf_prediction, earlier, seed, n
):
    # A snapshot holds no caches: no leaf terms or majority pairs and no
    # ensemble memo, so the restored model rebuilds them and hands the same
    # pairs to learn. Saved in the current layout or the earlier one, it
    # predicts and learns as the model it was saved from.
    tree = HoeffdingTreeParams(grace_period=20, tie_threshold=0.5, leaf_prediction=leaf_prediction)
    model = MarlineModel(small_config(ensemble_size=3, base_ensemble=base_ensemble, tree=tree))
    rng = np.random.default_rng(seed)
    for ex in alternating_stream(rng, n, (0.0, 0.0), (2.0, 2.0)):
        model.observe("S1", ex, rng)
        model.predict(ex.features)
        model.observe("T", ex, rng)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.bin")
        if earlier:
            with open(path, "wb") as fh:
                EarlierLayout(fh).dump({"format": "marline-model", "version": 3, "model": model})
        else:
            model.save(path)
        restored = MarlineModel.load(path)
    restored_rng = copy.deepcopy(rng)
    for ex in alternating_stream(np.random.default_rng(seed + 1), 60, (0.0, 0.0), (2.0, 2.0)):
        for stream_id in ("S1", "T"):
            scores = [m.predict(ex.features).scores.tobytes() for m in (model, restored)]
            assert scores[0] == scores[1]
            model.observe(stream_id, ex, rng)
            restored.observe(stream_id, ex, restored_rng)
        for name in ("lambda_correct", "lambda_wrong", "performance"):
            assert getattr(model, name).tobytes() == getattr(restored, name).tobytes()
    assert rng.bit_generator.state == restored_rng.bit_generator.state


def test_snapshot_restores_trackers_pickled_with_array_sums(tmp_path):
    # Trackers used to keep each decayed feature sum as a numpy array. Such
    # a version-3 snapshot still loads with list sums, predicts the same, and
    # goes on learning as the model it was saved from.
    import copyreg
    import pickle

    rng = np.random.default_rng(24)
    model = MarlineModel(small_config(ensemble_size=3))
    for ex in alternating_stream(rng, 150, (0.0, 0.0), (3.0, 3.0)):
        model.observe("S1", ex, rng)
        model.observe("T", ex, rng)
    probes = np.random.default_rng(25).standard_normal((30, 2)) * 2 + 1.5
    before = [model.predict(p) for p in probes]

    reduced = []

    class ArraySums(pickle.Pickler):
        def reducer_override(self, obj):
            if not isinstance(obj, CentroidTracker):
                return NotImplemented
            state = {k: v for k, v in vars(obj).items() if k != "_frame"}
            state["sum_c"] = [np.array(s) for s in obj.sum_c]
            reduced.append(obj)
            return copyreg.__newobj__, (CentroidTracker,), state

    path = tmp_path / "model.bin"
    with open(path, "wb") as fh:
        ArraySums(fh).dump({"format": "marline-model", "version": 3, "model": model})
    assert len(reduced) == len(model.concepts) == 2
    restored = MarlineModel.load(str(path))
    for original, concept in zip(model.concepts, restored.concepts):
        sums = concept.tracker.sum_c
        assert all(type(s) is list and all(type(x) is float for x in s) for s in sums)
        assert sums == original.tracker.sum_c
    for p, a in zip(probes, before):
        b = restored.predict(p)
        assert a.label == b.label
        assert np.array_equal(a.scores, b.scores)
    restored_rng = copy.deepcopy(rng)
    for ex in alternating_stream(np.random.default_rng(26), 40, (0.0, 0.0), (3.0, 3.0)):
        for m, r in ((model, rng), (restored, restored_rng)):
            m.observe("S1", ex, r)
            m.observe("T", ex, r)
        for p in probes[:5]:
            assert np.array_equal(model.predict(p).scores, restored.predict(p).scores)
    for original, concept in zip(model.concepts, restored.concepts):
        assert concept.tracker.sum_c == original.tracker.sum_c
    assert np.array_equal(model.performance, restored.performance)


def test_snapshot_rejects_version_one(tmp_path):
    import pickle

    for version in (1, 2):
        path = str(tmp_path / f"v{version}.bin")
        with open(path, "wb") as fh:
            pickle.dump(
                {
                    "format": "marline-model",
                    "version": version,
                    "model": MarlineModel(small_config()),
                },
                fh,
            )
        with pytest.raises(DataError, match=f"unsupported snapshot version {version}"):
            MarlineModel.load(path)


def test_snapshot_rejects_garbage(tmp_path):
    import pickle

    path = str(tmp_path / "bad.bin")
    with open(path, "wb") as fh:
        pickle.dump({"format": "something-else"}, fh)
    with pytest.raises(Exception):
        MarlineModel.load(path)


# ----------------------------------------------------------------------
# member evaluations per step
# ----------------------------------------------------------------------


def count_tree_evaluations(monkeypatch):
    """Record the tree of every ``HoeffdingTree.predict_pair`` call."""
    calls = []
    predict_pair = HoeffdingTree.predict_pair

    def counted(tree, values):
        calls.append(tree)
        return predict_pair(tree, values)

    monkeypatch.setattr(HoeffdingTree, "predict_pair", counted)
    return calls


def calls_until_detector_update(monkeypatch, detector, calls):
    """The number of calls made when ``detector`` is first updated, which
    is after the drift check's prediction and before any training."""
    marks = []
    update = detector.update

    def marked(correct):
        marks.append(len(calls))
        return update(correct)

    monkeypatch.setattr(detector, "update", marked)
    return marks


@pytest.mark.parametrize("path", ["weighted", "below_index", "tie"])
def test_target_step_evaluates_each_target_member_once(monkeypatch, path):
    rng = np.random.default_rng(16)
    index = 0.99 if path == "below_index" else 0.0
    model = MarlineModel(small_config(ensemble_size=3, performance_index=index))
    if path == "tie":
        # Untrained members all give (0.5, 0.5): the vote ties and falls back.
        seed_tracker(model._new_concept("T").current.tracker)
    else:
        for ex in alternating_stream(rng, 200, (0.0, 0.0), (3.0, 3.0)):
            model.observe("S1", ex, rng)
            model.observe("T", ex, rng)
    pool = model.pools["T"]
    members = pool.current.ensemble.sub_classifiers
    calls = count_tree_evaluations(monkeypatch)
    marks = calls_until_detector_update(monkeypatch, pool.detector, calls)

    x = np.array([1.2, 1.7])
    model.predict(x)
    voted = len(calls)
    model.observe("T", Example(x, POS), rng)
    expected = len(model.concepts) if path == "weighted" else 1
    assert voted == expected * len(members)
    target_calls = [tree for tree in calls[: marks[0]] if tree in members]
    assert sorted(map(id, target_calls)) == sorted(map(id, members))


def test_baseline_reset_step_evaluates_members_once(monkeypatch):
    rng = np.random.default_rng(17)
    approach = BaselineApproach(small_config(ensemble_size=3), "T", True, rng)
    for ex in alternating_stream(rng, 100, (0.0, 0.0), (3.0, 3.0)):
        approach.observe("T", ex)
    calls = count_tree_evaluations(monkeypatch)
    marks = calls_until_detector_update(monkeypatch, approach.detector, calls)
    x = np.array([1.2, 1.7])
    approach.predict(x)
    approach.observe("T", Example(x, POS))
    assert marks == [3]
    assert len(calls) == 3


def test_baseline_reset_observe_evaluates_each_member_once(monkeypatch):
    rng = np.random.default_rng(17)
    approach = BaselineApproach(small_config(ensemble_size=3), "T", True, rng)
    for ex in alternating_stream(rng, 100, (0.0, 0.0), (3.0, 3.0)):
        approach.observe("T", ex)
    members = approach.ensemble.sub_classifiers
    calls = count_tree_evaluations(monkeypatch)
    approach.observe("T", Example(np.array([1.2, 1.7]), POS))
    assert approach.ensemble.sub_classifiers is members
    assert sorted(map(id, calls)) == sorted(map(id, members))


# ----------------------------------------------------------------------
# cost scaling
# ----------------------------------------------------------------------


def test_target_example_cost_scales_roughly_linearly_with_concepts():
    # Doubling the total concept count must not much more than double the
    # per-target-example processing time.
    def timed_model(n_sources):
        rng = np.random.default_rng(11)
        model = MarlineModel(small_config(ensemble_size=5))
        stream = alternating_stream(rng, 60, (0.0, 0.0), (3.0, 3.0))
        for ex in stream:
            for s in range(n_sources):
                model.observe(f"S{s}", ex, rng)
            model.observe("T", ex, rng)
        work = alternating_stream(rng, 400, (0.0, 0.0), (3.0, 3.0))
        start = time.perf_counter()
        for ex in work:
            model.observe("T", ex, rng)
        return time.perf_counter() - start

    timed_model(2)  # warm caches
    baseline = min(timed_model(2) for _ in range(3))  # 3 concepts
    doubled = min(timed_model(5) for _ in range(3))  # 6 concepts
    assert doubled / baseline <= 2.5


# ----------------------------------------------------------------------
# properties over random streams
# ----------------------------------------------------------------------


@st.composite
def interleaved_streams(draw):
    """A config, and a stream of (stream id, features, label) entries over a
    target and one to three sources, each entry flagged if its stream's
    detector is to fire on it. Features are any finite floats, drawn mostly
    from a few values so that trees split and centroids coincide."""
    sources = [f"S{i}" for i in range(draw(st.integers(1, 3)))]
    config = small_config(
        ensemble_size=draw(st.integers(1, 3)),
        base_ensemble=draw(st.sampled_from(["bagging", "boosting"])),
        forgetting_factor=draw(st.floats(0.05, 1.0)),
        performance_index=draw(st.floats(0.0, 1.0)),
    )
    value = st.one_of(
        st.integers(-3, 3).map(float), st.floats(allow_nan=False, allow_infinity=False)
    )
    entries = [
        (
            draw(st.sampled_from(["T", *sources])),
            draw(st.lists(value, min_size=2, max_size=2)),
            draw(st.sampled_from([NEG, POS])),
            draw(st.integers(0, 9)) == 0,
        )
        for _ in range(draw(st.integers(1, 60)))
    ]
    return config, entries


# Centroid sums that overflow give a concept vector of NaN norm, which the
# projection once took for a regular one and crashed on.
OVERFLOWING_CENTROIDS = (
    small_config(ensemble_size=1),
    [("S0", [1e308, 1e308], t % 2, False) for t in range(4)]
    + [("T", [1e308, 1e308], t % 2, False) for t in range(2)],
)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(interleaved_streams())
@example(OVERFLOWING_CENTROIDS)
def test_source_weight_ratio_stays_in_the_unit_interval(case):
    config, entries = case
    model = MarlineModel(config)
    rng = np.random.default_rng(0)
    for stream_id, features, label, fire in entries:
        if stream_id in model.pools:
            model.pools[stream_id].detector = StubDetector({1} if fire else ())
        model.observe(stream_id, Example(np.array(features), label), rng)
        assert 0.0 <= model.source_weight_ratio() <= 1.0
        model.predict(np.array(features))
