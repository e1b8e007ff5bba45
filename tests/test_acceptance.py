"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np
import pytest

from marline.cli import EXIT_OK, main
from marline.core import NEG, POS, Example
from marline.drift import DriftStatus
from marline.evaluation import ExperimentSpec, run_experiment, run_schedule
from marline.mapping import CentroidTracker, build_align_map
from marline.model import (
    MarlineConfig,
    MarlineModel,
    sub_classifier_weights,
    update_performance_stats,
)
from marline.streams import benchmark_dataset, generate_synthetic, reseed_dataset


def report(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


# ----------------------------------------------------------------------
# 1. Mapping contract
# ----------------------------------------------------------------------


def test_acceptance_1_mapping_contract():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    ok = True
    for d in (2, 3, 5, 10):
        for _ in range(1000):
            v_src = rng.standard_normal(d) * rng.uniform(0.05, 20)
            v_tgt = rng.standard_normal(d) * rng.uniform(0.05, 20)
            amap = build_align_map(v_src, v_tgt)
            mapped = amap.matrix @ v_tgt
            ok &= bool(
                np.linalg.norm(mapped - v_src) <= 1e-9 * (1 + np.linalg.norm(v_src))
            )
            x = rng.standard_normal(d)
            ok &= bool(
                abs(np.linalg.norm(amap.matrix @ x) - amap.scale * np.linalg.norm(x))
                <= 1e-9 * (1 + amap.scale * np.linalg.norm(x))
            )
            rotation = amap.matrix / amap.scale
            ok &= bool(np.abs(rotation.T @ rotation - np.eye(d)).max() < 1e-8)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    report(1, "mapping contract", ok)


# ----------------------------------------------------------------------
# 2. Centroid oracle
# ----------------------------------------------------------------------


def test_acceptance_2_centroid_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    ok = True
    thetas = (0.9, 0.95, 1.0)
    for i in range(10_000):
        theta = thetas[i % 3]
        length = int(rng.integers(1, 101))
        values = rng.standard_normal((length, 2)) * 10
        tracker = CentroidTracker(n_features=2, forgetting_factor=theta)
        for row in values:
            tracker.update(Example(row, POS))
        weights = theta ** np.arange(length - 1, -1, -1, dtype=float)
        expected = (weights[:, None] * values).sum(axis=0) / weights.sum()
        ok &= bool(np.abs(tracker.centroid(POS) - expected).max() <= 1e-10)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    report(2, "centroid oracle", ok)


# ----------------------------------------------------------------------
# 3. Weighting algebra
# ----------------------------------------------------------------------


def weighting_step_oracle(alphas, lam_c, lam_w, p_correct, theta):
    """Exact rational re-derivation of one performance update, written as an
    explicit per-classifier loop independent of the vectorised code."""
    sc = sum(a * p for a, p in zip(alphas, p_correct))
    sw = sum(a * (1 - p) for a, p in zip(alphas, p_correct))
    weight = sw / sc
    out = []
    for a, lc, lw, p in zip(alphas, lam_c, lam_w, p_correct):
        new_lc = theta * lc + weight * (a * p) / sc
        new_lw = theta * lw + weight * (a * (1 - p)) / sw
        out.append((new_lc, new_lw, new_lc / (new_lc + new_lw)))
    return sc, sw, out


def test_acceptance_3_weighting_algebra():
    ok = True
    # Worked two-classifier example, exact in rational arithmetic.
    sc, sw, rows = weighting_step_oracle(
        [Fraction(1), Fraction(1)],
        [Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(0)],
        [Fraction(4, 5), Fraction(2, 5)],
        Fraction(9, 10),
    )
    ok &= sc == Fraction(6, 5) and sw == Fraction(4, 5)
    ok &= rows[0] == (Fraction(4, 9), Fraction(1, 6), Fraction(8, 11))
    lam_c, lam_w, alpha, sc_f, sw_f = update_performance_stats(
        np.zeros(2), np.zeros(2), np.ones(2), np.array([0.8, 0.4]), 0.9, 1e-10
    )
    ok &= abs(sc_f - 1.2) < 1e-12 and abs(sw_f - 0.8) < 1e-12
    ok &= abs(lam_c[0] - float(Fraction(4, 9))) < 1e-12
    ok &= abs(lam_w[0] - float(Fraction(1, 6))) < 1e-12
    ok &= abs(alpha[0] - float(Fraction(8, 11))) < 1e-12

    # Implementation matches the exact oracle on random updates.
    rng = np.random.default_rng(103)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        alphas = rng.uniform(0.05, 1.0, n)
        probs = rng.uniform(0.05, 0.95, n)
        lc0 = rng.uniform(0.0, 2.0, n)
        lw0 = rng.uniform(0.0, 2.0, n)
        got = update_performance_stats(lc0, lw0, alphas, probs, 0.9, 1e-10)
        _, _, expected = weighting_step_oracle(
            [Fraction(a) for a in alphas],
            [Fraction(v) for v in lc0],
            [Fraction(v) for v in lw0],
            [Fraction(p) for p in probs],
            Fraction(0.9),
        )
        for k, (elc, elw, ea) in enumerate(expected):
            ok &= abs(got[0][k] - float(elc)) < 1e-9
            ok &= abs(got[1][k] - float(elw)) < 1e-9
            ok &= abs(got[2][k] - float(ea)) < 1e-9

    # Normalisation property over 10 000 random stats collections.
    for _ in range(10_000):
        n = int(rng.integers(1, 60))
        alphas = rng.uniform(0.0, 1.0, n)
        sigma = float(rng.uniform(0.0, 1.0))
        weights = sub_classifier_weights(alphas, sigma)
        if (alphas > sigma).any():
            ok &= abs(weights.sum() - 1.0) <= 1e-9
        else:
            ok &= weights.sum() == 0.0
    report(3, "weighting algebra", ok)


# ----------------------------------------------------------------------
# 4. Drift machinery
# ----------------------------------------------------------------------


def test_acceptance_4_drift_machinery():
    start = time.perf_counter()
    # Abrupt benchmark target, 500 per class per concept, HDDM_A.
    reached = 0
    delays = []
    for seed in range(30):
        dataset = reseed_dataset(
            benchmark_dataset("abrupt_non_similar", 500), np.random.SeedSequence([seed, 0])
        )
        generated = generate_synthetic(dataset.target)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        model = MarlineModel(
            MarlineConfig(n_features=2, ensemble_size=10, detector="hddm_a")
        )
        detect = None
        for i, ex in enumerate(generated.examples):
            if model.observe("T", ex, rng) and detect is None and i >= 1000:
                detect = i - 1000
        if model.pools["T"].concept_count >= 2:
            reached += 1
        delays.append(detect if detect is not None else np.inf)
    ok = reached >= 27
    ok &= np.median(delays) <= 100

    # DDM raises no spurious drift on the stationary benchmark target.
    false_alarms = 0
    for seed in range(30):
        dataset = reseed_dataset(
            benchmark_dataset("no_drift_non_similar", 500),
            np.random.SeedSequence([seed, 0]),
        )
        generated = generate_synthetic(dataset.target)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        model = MarlineModel(
            MarlineConfig(n_features=2, ensemble_size=10, detector="ddm")
        )
        if any(model.observe("T", ex, rng) for ex in generated.examples):
            false_alarms += 1
    ok &= false_alarms <= 3
    elapsed = time.perf_counter() - start
    ok &= elapsed < 120.0
    print(
        f"  [4] J=2 in {reached}/30, median delay {np.median(delays)}, "
        f"DDM false alarms {false_alarms}/30, {elapsed:.0f}s"
    )
    report(4, "drift machinery", ok)


# ----------------------------------------------------------------------
# 5. Directional post-drift accuracy vs reset baseline
# ----------------------------------------------------------------------


def test_acceptance_5_post_drift_advantage():
    start = time.perf_counter()
    dataset = benchmark_dataset("abrupt_non_similar", 50)
    config = MarlineConfig(
        n_features=2,
        ensemble_size=20,
        base_ensemble="bagging",
        detector="hddm_a",
        forgetting_factor=0.9,
        performance_index=0.4,
    )
    with_source = run_experiment(
        ExperimentSpec("marline_with_source", config, dataset, runs=30, seed_base=42)
    )
    baseline = run_experiment(
        ExperimentSpec("base_detector_reset", config, dataset, runs=30, seed_base=42)
    )
    post = slice(100, 150)  # first 50 target examples after the true drift
    wins = sum(
        np.mean(a.correct[post]) > np.mean(b.correct[post])
        for a, b in zip(with_source.traces, baseline.traces)
    )
    elapsed = time.perf_counter() - start
    ok = wins >= 20 and elapsed < 300.0
    print(f"  [5] post-drift wins {wins}/30, {elapsed:.0f}s")
    report(5, "post-drift advantage over reset baseline", ok)


# ----------------------------------------------------------------------
# 6. Source contribution direction
# ----------------------------------------------------------------------


def test_acceptance_6_source_weight_ratio_direction():
    start = time.perf_counter()
    dataset = benchmark_dataset("abrupt_non_similar", 5000)
    config = MarlineConfig(n_features=2, ensemble_size=10)
    result = run_experiment(
        ExperimentSpec("marline_with_source", config, dataset, runs=3, seed_base=3)
    )
    ratios = np.array([t.weight_ratio for t in result.traces])
    pre = float(np.nanmean(ratios[:, :10_000]))
    post = float(np.nanmean(ratios[:, 10_000:]))
    elapsed = time.perf_counter() - start
    ok = post > pre and elapsed < 600.0
    print(f"  [6] weight ratio pre {pre:.4f} -> post {post:.4f}, {elapsed:.0f}s")
    report(6, "source weight ratio rises after drift", ok)


# ----------------------------------------------------------------------
# 7. Complexity sanity
# ----------------------------------------------------------------------


def test_acceptance_7_weighting_cost_scales_with_sources():
    def build_model(n_sources):
        rng = np.random.default_rng(7)
        model = MarlineModel(MarlineConfig(n_features=2, ensemble_size=10))
        for t in range(300):
            label = t % 2
            mean = np.array([3.0, 3.0]) if label else np.zeros(2)
            ex = Example(mean + rng.standard_normal(2), label)
            for s in range(n_sources):
                model.observe(f"S{s}", ex, rng)
            model.observe("T", ex, rng)
        return model, rng

    def draw_examples(rng, n):
        examples = []
        for t in range(n):
            label = t % 2
            mean = np.array([3.0, 3.0]) if label else np.zeros(2)
            examples.append(Example(mean + rng.standard_normal(2), label))
        return examples

    def weighting_prediction_time(model, examples):
        begin = time.perf_counter()
        for ex in examples:
            model.predict(ex.features)
            model.update_weights(ex)
        return time.perf_counter() - begin

    two, rng2 = build_model(2)
    four, rng4 = build_model(4)
    weighting_prediction_time(two, draw_examples(rng2, 500))  # warm up
    # The two models take turns in blocks of 50 steps, so that a change in
    # host speed during the run falls on both alike.
    examples_two, examples_four = draw_examples(rng2, 10_000), draw_examples(rng4, 10_000)
    t_two = t_four = 0.0
    for start in range(0, 10_000, 50):
        t_two += weighting_prediction_time(two, examples_two[start : start + 50])
        t_four += weighting_prediction_time(four, examples_four[start : start + 50])
    ratio = t_four / t_two
    ok = 1.5 <= ratio <= 2.8
    print(f"  [7] 2->4 source weighting+prediction time ratio {ratio:.2f}")
    report(7, "weighting cost scales with source count", ok)


# ----------------------------------------------------------------------
# 8. Determinism and protocol
# ----------------------------------------------------------------------


RUN_CONFIG = """
[experiment]
approach = marline_with_source
runs = 2
seed = 20
evaluation = prequential_reset

[model]
base_ensemble = bagging
detector = hddm_a
ensemble_size = 3
forgetting_factor = 0.9
performance_index = 0.4

[dataset]
kind = synthetic
family = abrupt_non_similar
class_size = 10
"""


class _SpyApproach:
    def __init__(self):
        self.log = []

    def predict(self, features):
        self.log.append(("score", float(features[1])))
        return NEG

    def observe(self, stream_id, example):
        self.log.append(("train", float(example.features[1])))


class _FiringDetector:
    def __init__(self, fire_at):
        self.fire_at = fire_at
        self.observed_count = 0
        self.status = DriftStatus.STABLE

    def update(self, prediction_correct):
        self.observed_count += 1
        self.status = (
            DriftStatus.DRIFT
            if self.observed_count == self.fire_at
            else DriftStatus.STABLE
        )
        return self.status

    def reset(self):
        self.observed_count = 0
        self.status = DriftStatus.STABLE


def test_acceptance_8_determinism_and_protocol(tmp_path):
    ok = True
    # (a) identical config + seed produce byte-identical result files.
    config_path = tmp_path / "exp.ini"
    config_path.write_text(RUN_CONFIG, encoding="utf-8")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    ok &= main(["run", "--config", str(config_path), "--out", str(out_a)]) == EXIT_OK
    ok &= main(["run", "--config", str(config_path), "--out", str(out_b)]) == EXIT_OK
    for name in ("results.csv", "summary.csv", "segments.csv"):
        ok &= (out_a / name).read_bytes() == (out_b / name).read_bytes()

    # (b) strict test-then-train over the prequential runner.
    from marline.streams import StreamData, interleave

    target = StreamData(
        "T", tuple(Example(np.array([0.0, float(i)]), i % 2) for i in range(20))
    )
    schedule = interleave(target, ())
    spy = _SpyApproach()
    run_schedule(spy, schedule, True, 1.0)
    scored, trained = set(), set()
    for kind, uid in spy.log:
        if kind == "score":
            ok &= uid not in trained
            scored.add(uid)
        else:
            ok &= uid in scored
            trained.add(uid)
    ok &= len(scored) == len(trained) == 20

    # (c) a target drift resets every stat of every pool.
    rng = np.random.default_rng(8)
    model = MarlineModel(MarlineConfig(n_features=2, ensemble_size=2))
    for t in range(60):
        label = t % 2
        mean = np.array([3.0, 3.0]) if label else np.zeros(2)
        ex = Example(mean + rng.standard_normal(2), label)
        model.observe("S1", ex, rng)
        model.observe("T", ex, rng)
    ok &= model.lambda_correct.sum() > 0
    model.pools["T"].detector = _FiringDetector(fire_at=1)
    drift = model.observe("T", Example(np.array([9.0, 9.0]), POS), rng)
    ok &= drift
    ok &= model.pools["T"].concept_count == 2
    ok &= float(np.max(model.lambda_correct)) == 0.0
    ok &= float(np.max(model.lambda_wrong)) == 0.0
    ok &= float(np.min(model.performance)) == 1.0
    report(8, "determinism and protocol", ok)
