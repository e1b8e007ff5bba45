"""Concept geometry: decayed per-class centroids, the scaled-rotation map
aligning one concept's class-separation vector with another's, and the
projection of examples through that map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LABELS, NEG, POS, ConfigurationError, Example, check_dims

# Norm tolerance of an align map: a concept vector shorter than it (scaled by
# 1 + the larger input norm) is degenerate, and so is u + v of antiparallel units.
DEGENERACY_TOL = 1e-9


class CentroidTracker:
    """Per-class feature centroids with exponential forgetting.

    Each class keeps a decayed feature sum and a decayed normaliser; the first
    example of a class sets the centroid directly. With forgetting factor 1
    the centroid reduces to the arithmetic mean.
    """

    # Unset until first built; a class default, so that a tracker restored
    # from a snapshot (which stores no frame) reads it too.
    _frame: ConceptFrame | None = None

    def __init__(self, n_features: int, forgetting_factor: float) -> None:
        if n_features < 1:
            raise ConfigurationError("n_features must be >= 1")
        if not 0.0 < forgetting_factor <= 1.0:
            raise ConfigurationError("forgetting_factor must be in (0, 1]")
        self.n_features = n_features
        self.forgetting_factor = forgetting_factor
        self.sum_c = [np.zeros(n_features), np.zeros(n_features)]
        self.normalizer = [0.0, 0.0]
        self.seen = [False, False]

    def update(self, example: Example) -> None:
        check_dims(example.features, self.n_features, "CentroidTracker.update")
        label = example.label
        if not self.seen[label]:
            self.sum_c[label] = example.features.copy()
            self.normalizer[label] = 1.0
            self.seen[label] = True
        else:
            theta = self.forgetting_factor
            self.sum_c[label] = theta * self.sum_c[label] + example.features
            self.normalizer[label] = theta * self.normalizer[label] + 1.0
        self._frame = None

    def centroid(self, label: int) -> np.ndarray | None:
        if label not in LABELS:
            raise ValueError(f"unknown label {label!r}")
        if not self.seen[label]:
            return None
        return self.sum_c[label] / self.normalizer[label]

    @property
    def both_classes_seen(self) -> bool:
        return self.seen[NEG] and self.seen[POS]

    def concept_vector(self) -> np.ndarray | None:
        """Vector from the NEG centroid to the POS centroid, or None until
        both classes have been observed."""
        if not self.both_classes_seen:
            return None
        return self.centroid(POS) - self.centroid(NEG)

    def frame(self) -> ConceptFrame | None:
        """The alignment terms of the current centroids, or None until both
        classes have been observed. Built on first use and dropped by
        :meth:`update`, so the same object is returned until then."""
        if self._frame is None and self.both_classes_seen:
            c_pos = self.centroid(POS)
            self._frame = ConceptFrame(c_pos - self.centroid(NEG), c_pos)
        return self._frame

    def __getstate__(self) -> dict:
        # The frame is derived from the centroids; snapshots do not store it.
        state = self.__dict__.copy()
        state.pop("_frame", None)
        return state


@dataclass(frozen=True)
class AlignMap:
    """Scaled rotation carrying one concept vector onto another.

    ``matrix / scale`` is orthogonal; ``degenerate`` marks maps built from a
    vanishing input vector, for which projection falls back to the identity.
    """

    matrix: np.ndarray
    scale: float
    degenerate: bool = False


def _householder(w: np.ndarray) -> np.ndarray:
    return np.eye(w.shape[0]) - 2.0 * np.outer(w, w) / float(w @ w)


def _dot(a: list[float], b: list[float]) -> float:
    # An explicit loop, not sum(): Python 3.12 sums floats with compensation
    # and 3.11 does not, so sum() would make the result depend on the version.
    total = 0.0
    for x, y in zip(a, b):
        total += x * y
    return total


def _degenerate(src: ConceptFrame, tgt: ConceptFrame) -> bool:
    """Whether either concept vector is shorter than ``DEGENERACY_TOL``
    scaled by 1 + the larger norm."""
    eps = DEGENERACY_TOL * (1.0 + max(src.norm, tgt.norm))
    return src.norm <= eps or tgt.norm <= eps


class ConceptFrame:
    """Alignment terms of one concept: its concept vector, the vector's norm,
    its unit vector and POS centroid as lists of floats. The terms never
    change once built; a frame also remembers its reflections against the
    last target frame it projected from."""

    __slots__ = ("vector", "norm", "unit", "c_pos", "_memo")

    def __init__(self, vector: np.ndarray, c_pos: np.ndarray | None = None) -> None:
        self.vector = vector
        self.norm = float(np.linalg.norm(vector))
        self.unit = [x / self.norm for x in vector.tolist()] if self.norm > 0.0 else None
        self.c_pos = None if c_pos is None else c_pos.tolist()
        self._memo: tuple[ConceptFrame | None, Reflections | None] = (None, None)

    def project(self, values: list[float], target: ConceptFrame) -> list[float]:
        """``Reflections(self, target).apply(values)``, with the reflections
        reused while ``target`` is the same frame object. Sound because frames
        are never mutated and the memo keeps ``target`` alive, so its identity
        cannot be reused."""
        memo_target, reflections = self._memo
        if memo_target is not target:
            reflections = Reflections(self, target)
            self._memo = (target, reflections)
        return reflections.apply(values)


class Reflections:
    """The map of :func:`align_frames` from ``tgt`` to ``src``, kept as the
    reflections it is the product of and applied to lists of floats, so that
    no matrix is formed. Both frames need a POS centroid.

    Each reflection is a vector w with its factor 2/(w·w): H_w y =
    y - factor (w·y) w. The rotation H_u H_{u+v} applies H_{u+v} first; an
    antiparallel pair has the single H_v and a degenerate pair none, in which
    case :meth:`apply` returns its input, as :func:`project_example` does.
    """

    __slots__ = ("c_tgt", "c_src", "scale", "steps")

    def __init__(self, src: ConceptFrame, tgt: ConceptFrame) -> None:
        self.c_tgt = tgt.c_pos
        self.c_src = src.c_pos
        self.scale = 1.0
        self.steps: list[tuple[list[float], float]] | None = None
        if _degenerate(src, tgt):
            return
        self.scale = src.norm / tgt.norm
        u, v = src.unit, tgt.unit
        w = [a + b for a, b in zip(u, v)]
        ww = _dot(w, w)
        if math.sqrt(ww) > DEGENERACY_TOL:
            self.steps = [(w, 2.0 / ww), (u, 2.0 / _dot(u, u))]
        else:
            self.steps = [(v, 2.0 / _dot(v, v))]

    def apply(self, values: list[float]) -> list[float]:
        """Image of a target-space point in the source concept's space."""
        if self.steps is None:
            return values
        y = [x - c for x, c in zip(values, self.c_tgt)]
        for w, factor in self.steps:
            k = factor * _dot(w, y)
            y = [b - k * a for a, b in zip(w, y)]
        scale = self.scale
        return [c + scale * b for c, b in zip(self.c_src, y)]


def align_frames(src: ConceptFrame, tgt: ConceptFrame) -> AlignMap:
    """Matrix R with R @ tgt.vector == src.vector, as a scaled two-reflection
    rotation.

    The rotation part is H_u @ H_{u+v} for the unit vectors u, v of the
    inputs; antiparallel inputs use the single reflection H_v instead. Either
    input with norm below the (relative) ``DEGENERACY_TOL`` yields an
    identity fallback map flagged degenerate. :class:`Reflections` applies
    the same map without forming it.
    """
    if _degenerate(src, tgt):
        return AlignMap(matrix=np.eye(src.vector.shape[0]), scale=1.0, degenerate=True)
    scale = src.norm / tgt.norm
    u, v = np.array(src.unit), np.array(tgt.unit)
    w = u + v
    if float(np.linalg.norm(w)) > DEGENERACY_TOL:
        rotation = _householder(u) @ _householder(w)
    else:
        rotation = _householder(v)
    return AlignMap(matrix=rotation * scale, scale=scale, degenerate=False)


def build_align_map(v_src: np.ndarray, v_tgt: np.ndarray) -> AlignMap:
    """Matrix R with R @ v_tgt == v_src: :func:`align_frames` on the frames
    of the two vectors."""
    v_src = np.asarray(v_src, dtype=float)
    v_tgt = np.asarray(v_tgt, dtype=float)
    if v_src.shape != v_tgt.shape or v_src.ndim != 1:
        raise ValueError(
            f"vector shapes must match and be 1-D, got {v_src.shape} and {v_tgt.shape}"
        )
    return align_frames(ConceptFrame(v_src), ConceptFrame(v_tgt))


def project_example(
    features: np.ndarray,
    align_map: AlignMap,
    c_tgt_pos: np.ndarray,
    c_src_pos: np.ndarray,
) -> np.ndarray:
    """Image of a target-space point in the source concept's space.

    The displacement from the target POS centroid is rotated/scaled by the
    map and re-anchored at the source POS centroid. Degenerate maps return
    the input unchanged.
    """
    features = np.asarray(features, dtype=float)
    if align_map.degenerate:
        return features
    return c_src_pos + align_map.matrix @ (features - c_tgt_pos)
