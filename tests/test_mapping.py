"""Tests for decayed centroids, alignment maps, and example projection."""

from __future__ import annotations

import numpy as np
import pytest

from marline.core import NEG, POS, DimensionMismatchError, Example
from marline.mapping import (
    AlignMap,
    CentroidTracker,
    align_frames,
    build_align_map,
    project_example,
)


def decayed_mean_oracle(values, theta):
    """Closed-form weighted mean: sum(theta^(L-t) x_t) / sum(theta^(L-t))."""
    values = np.asarray(values, dtype=float)
    length = values.shape[0]
    weights = theta ** np.arange(length - 1, -1, -1, dtype=float)
    return (weights[:, None] * values).sum(axis=0) / weights.sum()


# ----------------------------------------------------------------------
# Centroid tracker
# ----------------------------------------------------------------------


def test_centroid_with_no_forgetting_is_arithmetic_mean():
    tracker = CentroidTracker(n_features=2, forgetting_factor=1.0)
    tracker.update(Example(np.array([1.0, 1.0]), POS))
    tracker.update(Example(np.array([3.0, 3.0]), POS))
    assert tracker.centroid(POS) == pytest.approx([2.0, 2.0])


def test_centroid_decay_hand_example():
    # theta=0.5, 1-D POS values 1 then 3: sum = 0.5*1 + 3 = 3.5,
    # normaliser = 0.5*1 + 1 = 1.5, centroid = 7/3. Cross-checked against the
    # closed-form decayed mean.
    tracker = CentroidTracker(n_features=1, forgetting_factor=0.5)
    tracker.update(Example(np.array([1.0]), POS))
    tracker.update(Example(np.array([3.0]), POS))
    assert tracker.sum_c[POS] == pytest.approx([3.5])
    assert tracker.normalizer[POS] == pytest.approx(1.5)
    assert tracker.centroid(POS) == pytest.approx([7.0 / 3.0])
    assert tracker.centroid(POS) == pytest.approx(
        decayed_mean_oracle([[1.0], [3.0]], 0.5)
    )


def test_first_example_sets_centroid_directly():
    for theta in (0.3, 0.9, 1.0):
        tracker = CentroidTracker(n_features=2, forgetting_factor=theta)
        tracker.update(Example(np.array([5.0, 7.0]), POS))
        assert tracker.centroid(POS) == pytest.approx([5.0, 7.0])
        assert tracker.centroid(NEG) is None


def test_centroid_matches_closed_form_oracle_over_random_sequences():
    rng = np.random.default_rng(0)
    for theta in (0.9, 0.95, 1.0):
        for _ in range(200):
            length = int(rng.integers(1, 101))
            values = rng.standard_normal((length, 3)) * 5
            tracker = CentroidTracker(n_features=3, forgetting_factor=theta)
            for row in values:
                tracker.update(Example(row, POS))
            expected = decayed_mean_oracle(values, theta)
            assert tracker.centroid(POS) == pytest.approx(expected, abs=1e-10)


def test_normalizer_bounds():
    theta = 0.9
    tracker = CentroidTracker(n_features=1, forgetting_factor=theta)
    for i in range(500):
        tracker.update(Example(np.array([float(i)]), NEG))
    assert tracker.normalizer[NEG] <= 1.0 / (1.0 - theta) + 1e-12
    exact = CentroidTracker(n_features=1, forgetting_factor=1.0)
    for i in range(500):
        exact.update(Example(np.array([float(i)]), NEG))
    assert exact.normalizer[NEG] == pytest.approx(500.0)


def test_tracker_updates_only_the_example_class():
    tracker = CentroidTracker(n_features=2, forgetting_factor=0.8)
    tracker.update(Example(np.array([1.0, 2.0]), NEG))
    before = tracker.sum_c[NEG].copy()
    tracker.update(Example(np.array([9.0, 9.0]), POS))
    assert np.array_equal(tracker.sum_c[NEG], before)


def test_tracker_rejects_dimension_mismatch():
    tracker = CentroidTracker(n_features=2, forgetting_factor=1.0)
    with pytest.raises(DimensionMismatchError):
        tracker.update(Example(np.array([1.0, 2.0, 3.0]), NEG))


# ----------------------------------------------------------------------
# Concept vector
# ----------------------------------------------------------------------


def test_concept_vector_between_benchmark_centres():
    tracker = CentroidTracker(n_features=2, forgetting_factor=1.0)
    tracker.update(Example(np.array([2.0, 3.0]), NEG))
    tracker.update(Example(np.array([7.0, 8.0]), POS))
    assert tracker.concept_vector() == pytest.approx([5.0, 5.0])


def test_concept_vector_zero_when_centroids_coincide():
    tracker = CentroidTracker(n_features=2, forgetting_factor=1.0)
    tracker.update(Example(np.array([4.0, 4.0]), NEG))
    tracker.update(Example(np.array([4.0, 4.0]), POS))
    assert tracker.concept_vector() == pytest.approx([0.0, 0.0])


def test_concept_vector_unavailable_with_one_class():
    tracker = CentroidTracker(n_features=2, forgetting_factor=1.0)
    tracker.update(Example(np.array([1.0, 1.0]), POS))
    assert tracker.concept_vector() is None


# ----------------------------------------------------------------------
# Alignment map
# ----------------------------------------------------------------------


def test_equal_vectors_give_identity_map():
    v = np.array([3.0, -1.0, 2.0])
    amap = build_align_map(v, v)
    assert not amap.degenerate
    assert amap.scale == pytest.approx(1.0)
    assert np.abs(amap.matrix - np.eye(3)).max() < 1e-12


def test_two_reflection_hand_example():
    # src (0, 2), tgt (1, 0): u=(0,1), v=(1,0), scale 2, R = [[0,-2],[2,0]].
    amap = build_align_map(np.array([0.0, 2.0]), np.array([1.0, 0.0]))
    assert amap.matrix == pytest.approx(np.array([[0.0, -2.0], [2.0, 0.0]]), abs=1e-12)
    assert amap.matrix @ np.array([1.0, 0.0]) == pytest.approx([0.0, 2.0])
    rotation = amap.matrix / amap.scale
    assert rotation.T @ rotation == pytest.approx(np.eye(2), abs=1e-12)
    assert np.linalg.det(rotation) == pytest.approx(1.0, abs=1e-12)


def test_antiparallel_vectors_use_single_reflection():
    amap = build_align_map(np.array([-3.0, 0.0]), np.array([3.0, 0.0]))
    assert not amap.degenerate
    assert amap.matrix @ np.array([3.0, 0.0]) == pytest.approx([-3.0, 0.0])
    rotation = amap.matrix / amap.scale
    assert rotation.T @ rotation == pytest.approx(np.eye(2), abs=1e-12)


def test_degenerate_inputs_fall_back_to_identity():
    for src, tgt in (
        (np.zeros(2), np.array([1.0, 0.0])),
        (np.array([1.0, 0.0]), np.zeros(2)),
        (np.full(2, 1e-15), np.array([1.0, 0.0])),
    ):
        amap = build_align_map(src, tgt)
        assert amap.degenerate
        assert amap.scale == 1.0
        assert np.array_equal(amap.matrix, np.eye(2))


def test_alignment_contract_on_random_pairs():
    rng = np.random.default_rng(1)
    for d in (2, 3, 5, 10):
        for _ in range(100):
            v_src = rng.standard_normal(d) * rng.uniform(0.1, 10)
            v_tgt = rng.standard_normal(d) * rng.uniform(0.1, 10)
            amap = build_align_map(v_src, v_tgt)
            mapped = amap.matrix @ v_tgt
            assert np.linalg.norm(mapped - v_src) <= 1e-9 * (1 + np.linalg.norm(v_src))


def test_scaled_isometry_property():
    rng = np.random.default_rng(2)
    amap = build_align_map(rng.standard_normal(5), rng.standard_normal(5))
    for _ in range(100):
        x = rng.standard_normal(5) * 10
        assert np.linalg.norm(amap.matrix @ x) == pytest.approx(
            amap.scale * np.linalg.norm(x), rel=1e-9
        )


def test_rotation_orthogonality_and_determinant():
    rng = np.random.default_rng(3)
    for d in (2, 3, 5, 10):
        for _ in range(50):
            amap = build_align_map(rng.standard_normal(d), rng.standard_normal(d))
            rotation = amap.matrix / amap.scale
            assert np.abs(rotation.T @ rotation - np.eye(d)).max() < 1e-8
            assert np.linalg.det(rotation) == pytest.approx(1.0, abs=1e-8)


def test_round_trip_maps_vector_to_itself():
    rng = np.random.default_rng(4)
    for _ in range(200):
        v_src = rng.standard_normal(4) * 3
        v_tgt = rng.standard_normal(4) * 3
        forward = build_align_map(v_src, v_tgt)
        backward = build_align_map(v_tgt, v_src)
        round_trip = backward.matrix @ (forward.matrix @ v_tgt)
        assert np.linalg.norm(round_trip - v_tgt) < 1e-8 * (1 + np.linalg.norm(v_tgt))


# ----------------------------------------------------------------------
# Concept frames
# ----------------------------------------------------------------------


def tracker_with(neg, pos, theta=1.0):
    tracker = CentroidTracker(n_features=len(neg), forgetting_factor=theta)
    tracker.update(Example(np.array(neg, dtype=float), NEG))
    tracker.update(Example(np.array(pos, dtype=float), POS))
    return tracker


def assert_same_map(got, expected):
    assert got.degenerate == expected.degenerate
    assert got.scale == expected.scale
    assert np.array_equal(got.matrix, expected.matrix)


def test_frame_is_built_once_per_centroid_change():
    tracker = CentroidTracker(n_features=2, forgetting_factor=0.9)
    assert tracker.frame() is None
    tracker.update(Example(np.array([1.0, 2.0]), POS))
    assert tracker.frame() is None
    tracker.update(Example(np.array([-1.0, 0.5]), NEG))
    frame = tracker.frame()
    assert frame is not None
    assert tracker.frame() is frame
    assert np.array_equal(frame.vector, tracker.concept_vector())
    assert np.array_equal(frame.c_pos, tracker.centroid(POS))
    assert frame.norm == float(np.linalg.norm(tracker.concept_vector()))
    tracker.update(Example(np.array([3.0, 1.0]), POS))
    moved = tracker.frame()
    assert moved is not frame
    assert tracker.frame() is moved
    assert np.array_equal(moved.vector, tracker.concept_vector())
    assert np.array_equal(moved.c_pos, tracker.centroid(POS))


def test_frame_maps_equal_build_align_map_bit_for_bit():
    rng = np.random.default_rng(11)
    for d in (1, 2, 3, 7):
        for _ in range(50):
            src = tracker_with(rng.standard_normal(d), rng.standard_normal(d) * 3)
            tgt = tracker_with(rng.standard_normal(d), rng.standard_normal(d) * 3)
            assert_same_map(
                src.frame().align_to(tgt.frame()),
                build_align_map(src.concept_vector(), tgt.concept_vector()),
            )


def test_coincident_centroids_give_the_degenerate_map():
    coincident = tracker_with([4.0, 4.0], [4.0, 4.0])
    regular = tracker_with([0.0, 1.0], [2.0, 3.0])
    assert coincident.frame().unit is None
    for src, tgt in ((coincident, regular), (regular, coincident)):
        amap = src.frame().align_to(tgt.frame())
        assert amap.degenerate
        assert amap.scale == 1.0
        assert np.array_equal(amap.matrix, np.eye(2))
        assert_same_map(amap, build_align_map(src.concept_vector(), tgt.concept_vector()))


def test_antiparallel_frames_use_the_target_reflection():
    src = tracker_with([3.0, 0.0], [0.0, 0.0])
    tgt = tracker_with([0.0, 0.0], [3.0, 0.0])
    amap = src.frame().align_to(tgt.frame())
    assert np.array_equal(amap.matrix, tgt.frame().householder * amap.scale)
    assert_same_map(amap, build_align_map(src.concept_vector(), tgt.concept_vector()))
    assert amap.matrix @ tgt.concept_vector() == pytest.approx(src.concept_vector())


def test_align_to_reuses_the_map_until_the_target_moves():
    src = tracker_with([0.0, 0.0], [3.0, 1.0])
    tgt = tracker_with([1.0, 0.0], [2.0, 4.0])
    first = src.frame().align_to(tgt.frame())
    assert src.frame().align_to(tgt.frame()) is first
    # An equal frame that is another object is not taken for the same one.
    other = tracker_with([1.0, 0.0], [2.0, 4.0])
    rebuilt = src.frame().align_to(other.frame())
    assert rebuilt is not first
    assert_same_map(rebuilt, first)
    tgt.update(Example(np.array([5.0, 5.0]), POS))
    moved = src.frame().align_to(tgt.frame())
    assert moved is not first
    assert_same_map(moved, build_align_map(src.concept_vector(), tgt.concept_vector()))
    assert_same_map(moved, align_frames(src.frame(), tgt.frame()))


# ----------------------------------------------------------------------
# Projection
# ----------------------------------------------------------------------


def test_identical_concepts_project_to_identity():
    c_neg = np.array([2.0, 3.0])
    c_pos = np.array([7.0, 8.0])
    amap = build_align_map(c_pos - c_neg, c_pos - c_neg)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.standard_normal(2) * 5
        assert project_example(x, amap, c_pos, c_pos) == pytest.approx(x, abs=1e-12)


def test_target_pos_centroid_projects_to_source_pos_centroid():
    c_tgt_pos = np.array([7.0, 8.0])
    c_src_pos = np.array([5.0, 4.0])
    amap = build_align_map(np.array([3.0, -5.0]), np.array([5.0, 5.0]))
    assert project_example(c_tgt_pos, amap, c_tgt_pos, c_src_pos) == pytest.approx(
        c_src_pos
    )


def test_projection_maps_both_centroids_of_benchmark_concepts():
    # Abrupt benchmark geometry: target before-drift (2,3)/(7,8) mapped onto
    # the after-drift concept (2,9)/(5,4). Oracle: explicit matrix-vector
    # arithmetic through the two anchor points.
    c_tgt_neg, c_tgt_pos = np.array([2.0, 3.0]), np.array([7.0, 8.0])
    c_src_neg, c_src_pos = np.array([2.0, 9.0]), np.array([5.0, 4.0])
    v_tgt = c_tgt_pos - c_tgt_neg
    v_src = c_src_pos - c_src_neg
    amap = build_align_map(v_src, v_tgt)
    assert not amap.degenerate
    # x = c_tgt_pos + v_tgt lands at c_src_pos + v_src
    image = project_example(c_tgt_pos + v_tgt, amap, c_tgt_pos, c_src_pos)
    assert image == pytest.approx(c_src_pos + v_src, abs=1e-9)
    # the NEG centroid lands on the source NEG centroid
    image_neg = project_example(c_tgt_neg, amap, c_tgt_pos, c_src_pos)
    assert image_neg == pytest.approx(c_src_neg, abs=1e-9)


def test_degenerate_projection_returns_input():
    amap = AlignMap(matrix=np.eye(2), scale=1.0, degenerate=True)
    x = np.array([4.0, -2.0])
    assert project_example(x, amap, np.zeros(2), np.full(2, 100.0)) == pytest.approx(x)
