"""Concept geometry: decayed per-class centroids, the scaled-rotation map
aligning one concept's class-separation vector with another's, and the
projection of examples through that map.
"""

from __future__ import annotations

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


class ConceptFrame:
    """Alignment terms of one concept: its concept vector, the vector's norm
    and unit vector, the reflection H_unit (built on first use) and the POS
    centroid. The terms never change once built; a frame also remembers the
    last map built from it as the source, keyed by the target frame."""

    __slots__ = ("vector", "norm", "unit", "c_pos", "_householder", "_memo")

    def __init__(self, vector: np.ndarray, c_pos: np.ndarray | None = None) -> None:
        self.vector = vector
        self.norm = float(np.linalg.norm(vector))
        self.unit = vector / self.norm if self.norm > 0.0 else None
        self.c_pos = c_pos
        self._householder: np.ndarray | None = None
        self._memo: tuple[ConceptFrame | None, AlignMap | None] = (None, None)

    @property
    def householder(self) -> np.ndarray:
        if self._householder is None:
            self._householder = _householder(self.unit)
        return self._householder

    def align_to(self, target: ConceptFrame) -> AlignMap:
        """``align_frames(self, target)``, reused while ``target`` is the
        same frame object. Sound because frames are never mutated and the
        memo keeps ``target`` alive, so its identity cannot be reused."""
        memo_target, memo_map = self._memo
        if memo_target is not target:
            memo_map = align_frames(self, target)
            self._memo = (target, memo_map)
        return memo_map


def align_frames(src: ConceptFrame, tgt: ConceptFrame) -> AlignMap:
    """Matrix R with R @ tgt.vector == src.vector, as a scaled two-reflection
    rotation.

    The rotation part is H_u @ H_{u+v} for the unit vectors u, v of the
    inputs; antiparallel inputs use the single reflection H_v instead. Either
    input with norm below the (relative) ``DEGENERACY_TOL`` yields an
    identity fallback map flagged degenerate.
    """
    d = src.vector.shape[0]
    eps = DEGENERACY_TOL * (1.0 + max(src.norm, tgt.norm))
    if src.norm <= eps or tgt.norm <= eps:
        return AlignMap(matrix=np.eye(d), scale=1.0, degenerate=True)
    scale = src.norm / tgt.norm
    w = src.unit + tgt.unit
    if float(np.linalg.norm(w)) > DEGENERACY_TOL:
        rotation = src.householder @ _householder(w)
    else:
        rotation = tgt.householder
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
