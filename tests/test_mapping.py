"""Tests for decayed centroids, alignment maps, and example projection."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marline.core import NEG, POS, DimensionMismatchError, Example
from marline.mapping import (
    DEGENERACY_TOL,
    AlignMap,
    CentroidTracker,
    ConceptFrame,
    Reflections,
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


class ArrayTracker:
    """``CentroidTracker`` as it was, with each decayed sum a numpy array."""

    def __init__(self, n_features, theta):
        self.theta = theta
        self.sum_c = [np.zeros(n_features), np.zeros(n_features)]
        self.normalizer = [0.0, 0.0]
        self.seen = [False, False]

    def update(self, features, label):
        if not self.seen[label]:
            self.sum_c[label] = features.copy()
            self.normalizer[label] = 1.0
            self.seen[label] = True
        else:
            self.sum_c[label] = self.theta * self.sum_c[label] + features
            self.normalizer[label] = self.theta * self.normalizer[label] + 1.0

    def centroid(self, label):
        return self.sum_c[label] / self.normalizer[label]

    def frame_terms(self):
        """The vector, norm, unit vector and POS centroid of the frame, as
        the frame was built from arrays."""
        c_pos = self.sum_c[POS] / self.normalizer[POS]
        vector = c_pos - self.sum_c[NEG] / self.normalizer[NEG]
        norm = math.sqrt(vector.dot(vector))
        unit = [x / norm for x in vector.tolist()] if norm > 0.0 else None
        return vector.tolist(), norm, unit, c_pos.tolist()


def hexed(values):
    return None if values is None else [float(x).hex() for x in values]


@st.composite
def tracker_sequences(draw):
    d = draw(st.integers(1, 4))
    theta = draw(st.one_of(st.just(1.0), st.floats(0.01, 1.0)))
    value = st.one_of(st.floats(-1e3, 1e3), st.floats(-1e-300, 1e-300), st.just(-0.0))
    examples = draw(
        st.lists(
            st.tuples(st.lists(value, min_size=d, max_size=d), st.sampled_from([NEG, POS])),
            min_size=1,
            max_size=30,
        )
    )
    return d, theta, examples


@settings(max_examples=200, deadline=None)
@given(tracker_sequences())
def test_tracker_in_floats_equals_the_array_form(case):
    d, theta, examples = case
    tracker, reference = CentroidTracker(d, theta), ArrayTracker(d, theta)
    for values, label in examples:
        features = np.array(values)
        tracker.update(Example(features, label))
        reference.update(features, label)
        for c in (NEG, POS):
            assert hexed(tracker.sum_c[c]) == hexed(reference.sum_c[c])
            assert tracker.normalizer[c] == reference.normalizer[c]
            if tracker.seen[c]:
                assert tracker.centroid(c).tobytes() == reference.centroid(c).tobytes()
        frame = tracker.frame()
        if frame is None:
            assert not all(reference.seen)
            continue
        vector, norm, unit, c_pos = reference.frame_terms()
        assert hexed(frame.vector) == hexed(vector)
        assert norm.hex() == frame.norm.hex()
        assert hexed(frame.unit) == hexed(unit)
        assert hexed(frame.c_pos) == hexed(c_pos)
        assert tracker.concept_vector().tobytes() == np.array(vector).tobytes()


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


def householder(w):
    return np.eye(w.shape[0]) - 2.0 * np.outer(w, w) / float(w @ w)


def householder_map(v_src, v_tgt):
    """The align map formed as a matrix: the scaled rotation H_u @ H_{u+v}
    for the unit vectors u of ``v_src`` and v of ``v_tgt``, or H_v where
    u + v is shorter than ``DEGENERACY_TOL``; the identity, flagged
    degenerate, where either vector is shorter than ``DEGENERACY_TOL``
    scaled by 1 + the larger norm. The reference for ``build_align_map``
    and ``Reflections``."""
    v_src, v_tgt = np.asarray(v_src, dtype=float), np.asarray(v_tgt, dtype=float)
    n_src, n_tgt = float(np.linalg.norm(v_src)), float(np.linalg.norm(v_tgt))
    eps = DEGENERACY_TOL * (1.0 + max(n_src, n_tgt))
    if n_src <= eps or n_tgt <= eps:
        return AlignMap(matrix=np.eye(v_src.shape[0]), scale=1.0, degenerate=True)
    u, v = v_src / n_src, v_tgt / n_tgt
    w = u + v
    if float(np.linalg.norm(w)) > DEGENERACY_TOL:
        rotation = householder(u) @ householder(w)
    else:
        rotation = householder(v)
    scale = n_src / n_tgt
    return AlignMap(matrix=rotation * scale, scale=scale, degenerate=False)


def assert_close_map(got, expected):
    """Equal flags and scale; matrices equal to 1e-12 of 1 + the scale."""
    assert got.degenerate == expected.degenerate
    assert got.scale == expected.scale
    assert np.abs(got.matrix - expected.matrix).max() <= 1e-12 * (1.0 + expected.scale)


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


def matrix_projection(x, src, tgt):
    """``c_s + R (x - c_t)`` through the matrix of the trackers' vectors."""
    amap = build_align_map(src.concept_vector(), tgt.concept_vector())
    return project_example(x, amap, tgt.centroid(POS), src.centroid(POS))


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
    assert frame.c_pos == tracker.centroid(POS).tolist()
    assert frame.norm == float(np.linalg.norm(tracker.concept_vector()))
    tracker.update(Example(np.array([3.0, 1.0]), POS))
    moved = tracker.frame()
    assert moved is not frame
    assert tracker.frame() is moved
    assert np.array_equal(moved.vector, tracker.concept_vector())
    assert moved.c_pos == tracker.centroid(POS).tolist()


def frame_map(src, tgt):
    """The map of ``Reflections(src, tgt)``, with zero centroids, applied to
    the unit basis, as a matrix."""
    reflections = Reflections(src, tgt)
    if reflections.steps is None:
        return AlignMap(matrix=np.eye(len(src.vector)), scale=1.0, degenerate=True)
    reflections.c_tgt = reflections.c_src = [0.0] * len(src.vector)
    columns = [reflections.apply(e) for e in np.eye(len(src.vector)).tolist()]
    return AlignMap(matrix=np.array(columns).T, scale=reflections.scale)


def test_frame_maps_equal_build_align_map_bit_for_bit():
    rng = np.random.default_rng(11)
    for d in (1, 2, 3, 7):
        for _ in range(50):
            src = tracker_with(rng.standard_normal(d), rng.standard_normal(d) * 3)
            tgt = tracker_with(rng.standard_normal(d), rng.standard_normal(d) * 3)
            amap = build_align_map(src.concept_vector(), tgt.concept_vector())
            assert_same_map(frame_map(src.frame(), tgt.frame()), amap)
            assert_close_map(
                amap, householder_map(src.concept_vector(), tgt.concept_vector())
            )
            x = rng.standard_normal(d) * 3
            assert Reflections(src.frame(), tgt.frame()).apply(x.tolist()) == pytest.approx(
                matrix_projection(x, src, tgt), rel=1e-12, abs=1e-12
            )


def test_coincident_centroids_give_the_degenerate_map():
    coincident = tracker_with([4.0, 4.0], [4.0, 4.0])
    regular = tracker_with([0.0, 1.0], [2.0, 3.0])
    assert coincident.frame().unit is None
    x = [1.5, -2.0]
    for src, tgt in ((coincident, regular), (regular, coincident)):
        amap = build_align_map(src.concept_vector(), tgt.concept_vector())
        assert amap.degenerate
        assert_same_map(amap, householder_map(src.concept_vector(), tgt.concept_vector()))
        reflections = Reflections(src.frame(), tgt.frame())
        assert reflections.steps is None
        assert reflections.scale == 1.0
        assert reflections.apply(x) is x


@pytest.mark.parametrize("vector", [[math.nan, 1.0], [math.inf, 1.0], [math.inf, -math.inf]])
def test_frames_of_no_finite_norm_give_the_degenerate_map(vector):
    regular = ConceptFrame([1.0, 2.0], [0.0, 0.0])
    odd = ConceptFrame(vector, [0.0, 0.0])
    x = [1.5, -2.0]
    for src, tgt in ((odd, regular), (regular, odd)):
        reflections = Reflections(src, tgt)
        assert reflections.steps is None
        assert reflections.apply(x) is x


def test_antiparallel_frames_use_the_target_reflection():
    src = tracker_with([3.0, 0.0], [0.0, 0.0])
    tgt = tracker_with([0.0, 0.0], [3.0, 0.0])
    reflections = Reflections(src.frame(), tgt.frame())
    assert reflections.steps == [(tgt.frame().unit, 2.0)]
    amap = build_align_map(src.concept_vector(), tgt.concept_vector())
    assert_same_map(frame_map(src.frame(), tgt.frame()), amap)
    assert_close_map(amap, householder_map(src.concept_vector(), tgt.concept_vector()))
    assert amap.matrix @ tgt.concept_vector() == pytest.approx(src.concept_vector())
    c_tgt, c_src = tgt.centroid(POS), src.centroid(POS)
    image = reflections.apply((c_tgt + tgt.concept_vector()).tolist())
    assert image == pytest.approx(c_src + src.concept_vector())
    x = np.array([1.0, 2.0])
    assert reflections.apply(x.tolist()) == pytest.approx(
        matrix_projection(x, src, tgt), abs=1e-12
    )


@st.composite
def alignment_cases(draw):
    """A dimension, two concept vectors, two POS centroids and a point. Each
    has components in steps of 1e-3 of [-1, 1], zero included, scaled by a
    magnitude in [1e-3, 1e3]; some concept vectors are antiparallel and some
    pairs of centroids coincide."""
    d = draw(st.integers(1, 8))

    def magnitude():
        return 10.0 ** draw(st.floats(-3.0, 3.0))

    def vector():
        steps = draw(st.lists(st.integers(-1000, 1000), min_size=d, max_size=d))
        return np.array(steps) / 1000.0 * magnitude()

    v_src, v_tgt = vector(), vector()
    if draw(st.booleans()):
        v_src = -v_tgt * magnitude()
    c_tgt = vector()
    c_src = c_tgt.copy() if draw(st.booleans()) else vector()
    return v_src, v_tgt, c_src, c_tgt, vector()


@settings(max_examples=300, deadline=None)
@given(alignment_cases())
def test_reflections_match_the_matrix_form(case):
    v_src, v_tgt, c_src, c_tgt, x = case
    src = ConceptFrame(v_src.tolist(), c_src.tolist())
    tgt = ConceptFrame(v_tgt.tolist(), c_tgt.tolist())
    amap = householder_map(v_src, v_tgt)
    assert_close_map(build_align_map(v_src, v_tgt), amap)
    project = Reflections(src, tgt).apply
    if amap.degenerate:
        assert project(x.tolist()) == x.tolist()
        return
    # Relative to the size of the terms summed, not of the result, which
    # can cancel to near zero.
    for point in (x, c_tgt + v_tgt):
        expected = c_src + amap.matrix @ (point - c_tgt)
        size = np.linalg.norm(c_src) + amap.scale * np.linalg.norm(point - c_tgt)
        assert np.linalg.norm(np.array(project(point.tolist())) - expected) <= 1e-12 * size
    assert project(c_tgt.tolist()) == c_src.tolist()
    # The matrix form meets this to 1e-9 only (acceptance 1): the rounding of
    # u + v turns the image of v by about 1e-16 / |u + v|.
    image = np.array(project((c_tgt + v_tgt).tolist()))
    size = np.linalg.norm(c_src) + np.linalg.norm(v_src)
    assert np.linalg.norm(image - (c_src + v_src)) <= 1e-9 * size


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
