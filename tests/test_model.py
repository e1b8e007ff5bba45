"""Tests for the MARLINE orchestrator: training loop, weighting, voting."""

from __future__ import annotations

import copy
import time
from fractions import Fraction

import numpy as np
import pytest

from marline.core import NEG, POS, DataError, DimensionMismatchError, Example
from marline.drift import DriftStatus
from marline.model import (
    MarlineConfig,
    MarlineModel,
    StreamPool,
    sub_classifier_weights,
    update_performance_stats,
)


class StubTree:
    """Sub-classifier returning a fixed distribution, recording its inputs."""

    def __init__(self, distribution):
        self.distribution = np.asarray(distribution, dtype=float)
        self.seen_features = []

    def train(self, example, weight=1.0):
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
        pool = StreamPool(stream_id, model.config)
        model.pools[stream_id] = pool
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
    concept = install_stub_concept(model, "T", [[0.2, 0.8], [0.6, 0.4]])
    model.update_weights(Example(np.array([0.5, 0.5]), POS))
    assert concept.lambda_correct == pytest.approx([4 / 9, 2 / 9], abs=1e-12)
    assert concept.lambda_wrong == pytest.approx([1 / 6, 1 / 2], abs=1e-12)
    assert concept.performance == pytest.approx([8 / 11, 4 / 13], abs=1e-12)


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
    assert pool.current.performance == pytest.approx([1.0, 1.0, 1.0])
    assert pool.current.lambda_correct == pytest.approx([0.0, 0.0, 0.0])


def test_target_drift_resets_every_stat_in_every_pool():
    model = MarlineModel(small_config())
    rng = np.random.default_rng(1)
    for ex in alternating_stream(rng, 40, (0.0, 0.0), (3.0, 3.0)):
        model.observe("S1", ex, rng)
        model.observe("T", ex, rng)
    # Stats have moved away from initialisation by now.
    assert any(
        concept.lambda_correct.sum() > 0
        for pool in model.pools.values()
        for concept in pool.concepts
    )
    model.pools["T"].detector = StubDetector(fire_at={1})
    drift = model.observe("T", Example(np.array([9.0, 9.0]), POS), rng)
    assert drift
    assert model.pools["T"].concept_count == 2
    for pool in model.pools.values():
        for concept in pool.concepts:
            assert np.max(concept.lambda_correct) == 0.0
            assert np.max(concept.lambda_wrong) == 0.0
            assert np.min(concept.performance) == 1.0


def test_source_drift_does_not_touch_other_pools():
    model = MarlineModel(small_config())
    rng = np.random.default_rng(2)
    for ex in alternating_stream(rng, 40, (0.0, 0.0), (3.0, 3.0)):
        model.observe("S1", ex, rng)
        model.observe("T", ex, rng)
    target_stats = model.pools["T"].current.lambda_correct.copy()
    model.pools["S1"].detector = StubDetector(fire_at={1})
    model.observe("S1", Example(np.array([9.0, 9.0]), POS), rng)
    assert model.pools["S1"].concept_count == 2
    assert model.pools["T"].concept_count == 1
    assert np.array_equal(model.pools["T"].current.lambda_correct, target_stats)


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
    concept = install_stub_concept(model, "T", [[0.9, 0.1], [0.3, 0.7]])
    concept.performance[:] = [0.9, 0.2]  # only the first clears the index
    prediction = model.predict(np.array([0.3, 0.3]))
    assert prediction.label == NEG
    assert prediction.scores == pytest.approx([0.9, 0.1])


def test_scores_equal_explicit_double_sum_over_concepts():
    model = MarlineModel(small_config())
    target = install_stub_concept(model, "T", [[0.2, 0.8], [0.6, 0.4]])
    s1 = install_stub_concept(model, "S1", [[0.9, 0.1], [0.5, 0.5]])
    s2 = install_stub_concept(model, "S2", [[0.1, 0.9], [0.7, 0.3]])
    target.performance[:] = [0.8, 0.6]
    s1.performance[:] = [0.4, 0.2]
    s2.performance[:] = [0.9, 0.1]
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
    pool = StreamPool("T", model.config)
    model.pools["T"] = pool
    pool.current.ensemble.sub_classifiers = [StubTree([0.7, 0.3]), StubTree([0.9, 0.1])]
    pool.current.tracker.update(Example(np.zeros(2), NEG))  # one class only
    prediction = model.predict(np.array([0.3, 0.3]))
    assert prediction.scores == pytest.approx([0.8, 0.2])
    assert prediction.label == NEG


def test_all_weights_zero_falls_back_to_target_ensemble():
    model = MarlineModel(small_config(performance_index=0.99))
    concept = install_stub_concept(model, "T", [[0.1, 0.9], [0.3, 0.7]])
    concept.performance[:] = [0.5, 0.5]  # nothing clears the index
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
    dup_pool.stream_id = "S_dup"
    cloned.pools["S_dup"] = dup_pool
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


# ----------------------------------------------------------------------
# source weight ratio
# ----------------------------------------------------------------------


def test_ratio_zero_with_only_the_current_target_concept():
    model = MarlineModel(small_config())
    install_stub_concept(model, "T", [[0.2, 0.8], [0.6, 0.4]])
    assert model.source_weight_ratio() == 0.0


def test_ratio_one_when_all_weight_sits_on_a_source():
    model = MarlineModel(small_config(performance_index=0.5))
    target = install_stub_concept(model, "T", [[0.2, 0.8], [0.6, 0.4]])
    source = install_stub_concept(model, "S1", [[0.9, 0.1], [0.5, 0.5]])
    target.performance[:] = [0.1, 0.2]
    source.performance[:] = [0.9, 0.3]
    assert model.source_weight_ratio() == pytest.approx(1.0)


def test_ratio_is_the_sum_over_non_current_concepts():
    model = MarlineModel(small_config())
    target = install_stub_concept(model, "T", [[0.2, 0.8], [0.6, 0.4]])
    s1 = install_stub_concept(model, "S1", [[0.9, 0.1], [0.5, 0.5]])
    s2 = install_stub_concept(model, "S2", [[0.1, 0.9], [0.7, 0.3]])
    target.performance[:] = [0.5, 0.3]
    s1.performance[:] = [0.25, 0.15]
    s2.performance[:] = [0.2, 0.1]
    total = 0.5 + 0.3 + 0.25 + 0.15 + 0.2 + 0.1
    expected = (0.25 + 0.15 + 0.2 + 0.1) / total
    assert model.source_weight_ratio() == pytest.approx(expected, abs=1e-12)
    assert 0.0 <= model.source_weight_ratio() <= 1.0


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


def test_snapshot_rejects_version_one(tmp_path):
    import pickle

    path = str(tmp_path / "v1.bin")
    with open(path, "wb") as fh:
        pickle.dump(
            {"format": "marline-model", "version": 1, "model": MarlineModel(small_config())},
            fh,
        )
    with pytest.raises(DataError, match="unsupported snapshot version 1"):
        MarlineModel.load(path)


def test_snapshot_rejects_garbage(tmp_path):
    import pickle

    path = str(tmp_path / "bad.bin")
    with open(path, "wb") as fh:
        pickle.dump({"format": "something-else"}, fh)
    with pytest.raises(Exception):
        MarlineModel.load(path)


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
