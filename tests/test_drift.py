"""Tests for the DDM and HDDM_A drift detectors."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from marline.core import ConfigurationError
from marline.drift import DDM, DriftStatus, HddmA, make_detector


def bernoulli_error_stream(rng, probabilities):
    """Correctness bits for the given per-step error probabilities."""
    return [rng.random() >= p for p in probabilities]


def test_constant_correct_stream_stays_stable():
    for detector in (DDM(), HddmA()):
        for _ in range(5000):
            assert detector.update(True) is DriftStatus.STABLE


def test_ddm_never_signals_before_30_observations():
    detector = DDM()
    for _ in range(29):
        assert detector.update(False) is DriftStatus.STABLE


def test_ddm_detects_abrupt_error_jump_within_100_examples():
    # Error rate 0.1 for 2000 steps then 0.8; the detector is reset after
    # each alarm, as the training loop does. Oracle: Monte-Carlo simulation.
    for seed in range(30):
        rng = np.random.default_rng(seed)
        detector = DDM()
        delay = None
        for t in range(2400):
            p = 0.1 if t < 2000 else 0.8
            status = detector.update(rng.random() >= p)
            if status is DriftStatus.DRIFT:
                if t >= 2000:
                    delay = t - 2000
                    break
                detector.reset()
        assert delay is not None and delay < 100, f"seed {seed}: delay {delay}"


def test_ddm_warning_level_precedes_drift_level():
    # A moderate error increase should pass through WARNING before DRIFT.
    rng = np.random.default_rng(42)
    detector = DDM()
    seen = []
    for t in range(4000):
        p = 0.05 if t < 1000 else 0.05 + min((t - 1000) * 2e-4, 0.4)
        status = detector.update(rng.random() >= p)
        if status is not DriftStatus.STABLE and status not in seen:
            seen.append(status)
        if status is DriftStatus.DRIFT:
            break
    assert seen == [DriftStatus.WARNING, DriftStatus.DRIFT]


def test_detector_reset_clears_state():
    for detector in (DDM(), HddmA()):
        rng = np.random.default_rng(0)
        for bit in bernoulli_error_stream(rng, [0.3] * 200):
            detector.update(bit)
        detector.reset()
        assert detector.observed_count == 0
        assert detector.status is DriftStatus.STABLE
        detector.update(True)
        assert detector.observed_count == 1


def test_detectors_are_deterministic():
    rng = np.random.default_rng(1)
    bits = bernoulli_error_stream(rng, [0.2] * 1000 + [0.7] * 500)
    for make in (DDM, HddmA):
        fresh = make()
        statuses_a = [fresh.update(b) for b in bits]
        d1, d2 = make(), make()
        statuses_b = []
        for b in bits:
            s1, s2 = d1.update(b), d2.update(b)
            assert s1 is s2
            statuses_b.append(s1)
        assert statuses_a == statuses_b


def test_ddm_minimum_band_is_non_increasing():
    rng = np.random.default_rng(2)
    detector = DDM()
    previous = float("inf")
    for bit in bernoulli_error_stream(rng, [0.25] * 3000):
        detector.update(bit)
        if detector.observed_count >= detector.min_observations:
            band = detector.p_min + detector.s_min
            assert band <= previous + 1e-12
            previous = band


def test_hddm_false_alarm_rate_on_stationary_stream():
    # Bernoulli(0.2) errors for 5000 steps: at most 3 of 30 seeded runs may
    # raise a drift at drift confidence 0.001.
    alarms = 0
    for seed in range(30):
        rng = np.random.default_rng(1000 + seed)
        detector = HddmA(drift_confidence=0.001)
        for bit in bernoulli_error_stream(rng, [0.2] * 5000):
            if detector.update(bit) is DriftStatus.DRIFT:
                alarms += 1
                break
    assert alarms <= 3


def test_hddm_detects_abrupt_error_jump():
    delays = []
    for seed in range(30):
        rng = np.random.default_rng(seed)
        detector = HddmA()
        delay = None
        for t in range(2400):
            p = 0.1 if t < 2000 else 0.8
            if detector.update(rng.random() >= p) is DriftStatus.DRIFT and t >= 2000:
                delay = t - 2000
                break
        delays.append(delay)
    assert all(d is not None for d in delays)
    assert np.median(delays) < 100


@pytest.mark.parametrize("make", [DDM, HddmA])
def test_detection_delay_monotone_in_jump_size(make):
    # Median delay for a 0.1 -> 0.8 jump must not exceed the 0.1 -> 0.3 one.
    def median_delay(post_error):
        horizon = 4000
        out = []
        for seed in range(30):
            rng = np.random.default_rng(7000 + seed)
            detector = make()
            fired = horizon
            for t in range(500 + horizon):
                p = 0.1 if t < 500 else post_error
                status = detector.update(rng.random() >= p)
                if status is DriftStatus.DRIFT:
                    if t >= 500:
                        fired = t - 500
                        break
                    detector.reset()
            out.append(fired)
        return float(np.median(out))

    assert median_delay(0.8) <= median_delay(0.3)


def test_hddm_warning_uses_looser_confidence():
    rng = np.random.default_rng(3)
    bits = bernoulli_error_stream(rng, [0.1] * 800 + [0.45] * 400)
    statuses = []
    detector = HddmA()
    for b in bits:
        statuses.append(detector.update(b))
        if statuses[-1] is DriftStatus.DRIFT:
            break
    assert DriftStatus.WARNING in statuses
    assert statuses.index(DriftStatus.WARNING) < len(statuses) - 1


def test_make_detector_dispatch():
    assert isinstance(make_detector("ddm"), DDM)
    assert isinstance(make_detector("hddm_a", drift_confidence=0.01), HddmA)
    with pytest.raises(
        ConfigurationError,
        match=r"unknown detector kind 'adwin'; choose from \('ddm', 'hddm_a'\)",
    ):
        make_detector("adwin")
    with pytest.raises(ConfigurationError, match="detector 'ddm' does not take drift_confidence"):
        make_detector("ddm", drift_confidence=0.01)
    with pytest.raises(ConfigurationError, match="detector 'hddm_a' does not take warning_level"):
        make_detector("hddm_a", drift_confidence=0.01, warning_level=2.0)


def test_a_drift_keeps_the_detector_state_until_reset():
    # The caller resets a detector after every alarm; the alarm itself
    # clears nothing, for either detector.
    for make in (DDM, HddmA):
        detector = make()
        rng = np.random.default_rng(4)
        steps = 0
        for bit in bernoulli_error_stream(rng, [0.05] * 1000 + [0.9] * 1000):
            steps += 1
            if detector.update(bit) is DriftStatus.DRIFT:
                break
        assert detector.status is DriftStatus.DRIFT
        assert detector.observed_count == steps
        if make is HddmA:
            assert 0 < detector.n_min < steps
        else:
            assert detector.error_sum > 0
        detector.reset()
        assert vars(detector) == vars(make())


def test_hddm_a_snapshot_continues_identically():
    # The detector pickles its confidences and counts; the logs of its
    # bounds are computed from the confidences on each update.
    rng = np.random.default_rng(6)
    bits = bernoulli_error_stream(rng, [0.1] * 300 + [0.6] * 300)
    detector = HddmA(drift_confidence=0.002, warning_confidence=0.01)
    for bit in bits[:300]:
        detector.update(bit)
    restored = pickle.loads(pickle.dumps(detector))
    assert vars(restored) == vars(detector)
    assert [restored.update(bit) for bit in bits[300:]] == [
        detector.update(bit) for bit in bits[300:]
    ]
