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

    Each class keeps a decayed feature sum, a list of floats, and a decayed
    normaliser; the first example of a class sets the centroid directly. With
    forgetting factor 1 the centroid reduces to the arithmetic mean.
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
        self.sum_c = [[0.0] * n_features, [0.0] * n_features]
        self.normalizer = [0.0, 0.0]
        self.seen = [False, False]

    def update(self, example: Example) -> None:
        check_dims(example.features, self.n_features, "CentroidTracker.update")
        label = example.label
        values = example.features.tolist()
        if not self.seen[label]:
            self.sum_c[label] = values
            self.normalizer[label] = 1.0
            self.seen[label] = True
        else:
            theta = self.forgetting_factor
            self.sum_c[label] = [theta * s + x for s, x in zip(self.sum_c[label], values)]
            self.normalizer[label] = theta * self.normalizer[label] + 1.0
        self._frame = None

    def centroid(self, label: int) -> np.ndarray | None:
        if label not in LABELS:
            raise ValueError(f"unknown label {label!r}")
        if not self.seen[label]:
            return None
        return np.array(self.sum_c[label]) / self.normalizer[label]

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
            n_neg, n_pos = self.normalizer
            c_pos = [s / n_pos for s in self.sum_c[POS]]
            vector = [c - s / n_neg for c, s in zip(c_pos, self.sum_c[NEG])]
            self._frame = ConceptFrame(vector, c_pos)
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


def _dot(a: list[float], b: list[float]) -> float:
    # An explicit loop, not sum(): Python 3.12 sums floats with compensation
    # and 3.11 does not, so sum() would make the result depend on the version.
    total = 0.0
    for x, y in zip(a, b):
        total += x * y
    return total


class ConceptFrame:
    """Alignment terms of one concept, from its concept vector and POS
    centroid given as lists of floats: the vector's norm, its unit vector and
    the centroid. The terms never change once built."""

    __slots__ = ("vector", "norm", "unit", "c_pos")

    def __init__(self, vector: list[float], c_pos: list[float]) -> None:
        self.vector = vector
        # The arithmetic of np.linalg.norm on a 1-D float vector, without
        # its dispatch: a sum of squares in Python rounds otherwise.
        array = np.array(vector)
        self.norm = math.sqrt(array.dot(array))
        self.unit = [x / self.norm for x in vector] if self.norm > 0.0 else None
        self.c_pos = c_pos


class Reflections:
    """The scaled rotation carrying ``tgt``'s concept vector onto ``src``'s,
    kept as the reflections it is the product of and applied to lists of
    floats, so that no matrix is formed.

    Each reflection is a vector w with its factor 2/(w·w): H_w y =
    y - factor (w·y) w. The rotation H_u H_{u+v}, for the unit vectors u of
    ``src`` and v of ``tgt``, applies H_{u+v} first; an antiparallel pair
    has the single H_v and a degenerate pair none, in which case
    :meth:`apply` returns its input, as :func:`project_example` does.
    """

    __slots__ = ("c_tgt", "c_src", "scale", "steps")

    def __init__(self, src: ConceptFrame, tgt: ConceptFrame) -> None:
        self.c_tgt = tgt.c_pos
        self.c_src = src.c_pos
        self.scale = 1.0
        self.steps: list[tuple[list[float], float]] | None = None
        eps = DEGENERACY_TOL * (1.0 + max(src.norm, tgt.norm))
        if not (src.norm > eps and tgt.norm > eps):  # so is a NaN or infinite norm
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
            dot = 0.0  # _dot(w, y), inlined
            for a, b in zip(w, y):
                dot += a * b
            k = factor * dot
            y = [b - k * a for a, b in zip(w, y)]
        scale = self.scale
        return [c + scale * b for c, b in zip(self.c_src, y)]


def build_align_map(v_src: np.ndarray, v_tgt: np.ndarray) -> AlignMap:
    """Matrix R with R @ v_tgt == v_src: the :class:`Reflections` of the
    frames of the two vectors, with zero centroids, applied to the unit
    basis. A degenerate pair gives the identity, flagged degenerate."""
    v_src = np.asarray(v_src, dtype=float)
    v_tgt = np.asarray(v_tgt, dtype=float)
    if v_src.shape != v_tgt.shape or v_src.ndim != 1:
        raise ValueError(
            f"vector shapes must match and be 1-D, got {v_src.shape} and {v_tgt.shape}"
        )
    origin = [0.0] * v_src.shape[0]
    reflections = Reflections(
        ConceptFrame(v_src.tolist(), origin), ConceptFrame(v_tgt.tolist(), origin)
    )
    basis = np.eye(v_src.shape[0])
    if reflections.steps is None:
        return AlignMap(matrix=basis, scale=1.0, degenerate=True)
    columns = [reflections.apply(e) for e in basis.tolist()]
    return AlignMap(matrix=np.array(columns).T, scale=reflections.scale, degenerate=False)


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
