"""Shared domain types: streaming examples, label conventions, error classes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Binary class labels. NEG is also the deterministic tie-break everywhere a
# two-way argmax can tie.
NEG = 0
POS = 1
LABELS = (NEG, POS)
# The types a label may have. 1.0 == 1, so a float label would pass a test
# of membership in LABELS alone.
_LABEL_TYPES = (int, np.integer)


class MarlineError(Exception):
    """Base class for errors raised by this package."""


class ConfigurationError(MarlineError):
    """A spec, config file, or parameter value is invalid."""


class DataError(MarlineError):
    """An input data file is malformed or inconsistent."""


class DimensionMismatchError(MarlineError, ValueError):
    """A feature vector does not match the configured dimensionality."""


@dataclass(frozen=True, eq=False)
class Example:
    """One streaming observation: a feature vector and its binary label."""

    features: np.ndarray
    label: int

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "features", np.asarray(self.features, dtype=float)
        )
        if not isinstance(self.label, _LABEL_TYPES) or self.label not in LABELS:
            raise ValueError(f"label must be {NEG} or {POS}, got {self.label!r}")

    @property
    def n_features(self) -> int:
        return int(self.features.shape[0])


def check_dims(features: np.ndarray, expected: int, context: str) -> None:
    """Raise DimensionMismatchError unless ``features`` has length ``expected``."""
    if features.shape != (expected,):
        raise DimensionMismatchError(
            f"{context}: expected {expected} features, got shape {features.shape}"
        )


# The largest accepted |feature|. Squared differences of such features stay
# near 1e200, so leaf statistics and centroid sums stay finite for any
# example weight and stream length.
MAX_ABS_FEATURE = 1e100


def check_features(features: np.ndarray, expected: int, context: str) -> list[float]:
    """``check_dims``, then raise DataError unless every feature is finite
    and at most ``MAX_ABS_FEATURE`` in size. Returns the features as a list
    of floats."""
    check_dims(features, expected, context)
    values = features.tolist()
    # NaN fails both comparisons. A plain loop, not all() over a generator,
    # which costs a frame per call.
    for v in values:
        if not -MAX_ABS_FEATURE <= v <= MAX_ABS_FEATURE:
            raise DataError(
                f"{context}: features must be finite and within +-{MAX_ABS_FEATURE:g},"
                f" got {values}"
            )
    return values


def argmax_label(scores: np.ndarray) -> int:
    """Class with the higher score; ties resolve to NEG."""
    return POS if scores[POS] > scores[NEG] else NEG
