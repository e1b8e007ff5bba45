"""Online drift detection over a stream of prediction-correctness bits.

Two detectors behind one interface: DDM (error rate plus deviation against
its running minimum) and the one-sided HDDM A-test (Hoeffding bound on the
increase of the error mean). Both are deterministic functions of the input
bit sequence.
"""

from __future__ import annotations

import inspect
import math
from enum import Enum

from .core import ConfigurationError


class DriftStatus(Enum):
    STABLE = "stable"
    WARNING = "warning"
    DRIFT = "drift"


class DDM:
    """Error-rate drift detector with 2-sigma warning and 3-sigma drift levels.

    Tracks the running error rate p and its deviation s = sqrt(p(1-p)/n),
    remembers the minimum of p + s, and signals when the current p + s climbs
    past that minimum by the configured number of deviations. Silent for the
    first ``min_observations`` updates.
    """

    def __init__(
        self,
        min_observations: int = 30,
        warning_level: float = 2.0,
        drift_level: float = 3.0,
    ) -> None:
        if min_observations < 1:
            raise ConfigurationError("min_observations must be >= 1")
        # A drift is tested first, so a warning level at or above the drift
        # level could never fire.
        if not 0.0 < warning_level < drift_level:
            raise ConfigurationError("need 0 < warning_level < drift_level")
        self.min_observations = min_observations
        self.warning_level = warning_level
        self.drift_level = drift_level
        self.reset()

    def reset(self) -> None:
        self.observed_count = 0
        self.error_sum = 0.0
        self.p_min = math.inf
        self.s_min = math.inf
        self.status = DriftStatus.STABLE

    def update(self, prediction_correct: bool) -> DriftStatus:
        self.observed_count += 1
        self.error_sum += 0.0 if prediction_correct else 1.0
        n = self.observed_count
        p = self.error_sum / n
        s = math.sqrt(p * (1.0 - p) / n)
        if n < self.min_observations:
            self.status = DriftStatus.STABLE
            return self.status
        if p + s <= self.p_min + self.s_min:
            self.p_min = p
            self.s_min = s
        if p + s > self.p_min + self.drift_level * self.s_min:
            self.status = DriftStatus.DRIFT
        elif p + s > self.p_min + self.warning_level * self.s_min:
            self.status = DriftStatus.WARNING
        else:
            self.status = DriftStatus.STABLE
        return self.status


class HddmA:
    """One-sided Hoeffding-bound drift detector on the error-mean increase.

    Keeps the cumulative error mean and the prefix ("minimum") mean with the
    strongest evidence of low error, and signals when the overall mean exceeds
    the prefix mean by more than the Hoeffding deviation for the two sample
    sizes. As with DDM, the caller restarts it with ``reset`` after a drift.
    """

    def __init__(
        self,
        drift_confidence: float = 0.001,
        warning_confidence: float = 0.005,
    ) -> None:
        if not 0.0 < drift_confidence < 1.0:
            raise ConfigurationError("drift_confidence must be in (0, 1)")
        if not 0.0 < warning_confidence < 1.0:
            raise ConfigurationError("warning_confidence must be in (0, 1)")
        # A drift is tested first, and a warning confidence at or below the
        # drift confidence has a bound at least as large, so WARNING could
        # never fire.
        if warning_confidence <= drift_confidence:
            raise ConfigurationError("need drift_confidence < warning_confidence")
        self.drift_confidence = drift_confidence
        self.warning_confidence = warning_confidence
        self.reset()

    def reset(self) -> None:
        self.observed_count = 0
        self.total_c = 0.0
        self.n_min = 0
        self.c_min = 0.0
        self.status = DriftStatus.STABLE

    def update(self, prediction_correct: bool) -> DriftStatus:
        self.observed_count += 1
        n = self.observed_count
        self.total_c += 0.0 if prediction_correct else 1.0
        if self.n_min == 0:
            self.n_min = n
            self.c_min = self.total_c
        else:
            # Move the reference prefix forward while it is not credibly
            # lower-error than the stream as a whole.
            log_drift = math.log(1.0 / self.drift_confidence)
            deviation_min = math.sqrt(log_drift / (2.0 * self.n_min))
            deviation_all = math.sqrt(log_drift / (2.0 * n))
            if (
                self.c_min / self.n_min + deviation_min
                >= self.total_c / n + deviation_all
            ):
                self.n_min = n
                self.c_min = self.total_c
        status = DriftStatus.STABLE
        if self.n_min != n:
            # The error mean rose past its prefix mean by at least the
            # Hoeffding deviation of the two sample sizes at a confidence.
            m = (n - self.n_min) / (self.n_min * n)
            increase = self.total_c / n - self.c_min / self.n_min
            if increase >= math.sqrt(
                m / 2.0 * math.log(2.0 / self.drift_confidence)
            ):
                status = DriftStatus.DRIFT
            elif increase >= math.sqrt(
                m / 2.0 * math.log(2.0 / self.warning_confidence)
            ):
                status = DriftStatus.WARNING
        self.status = status
        return status


DETECTORS = {"ddm": DDM, "hddm_a": HddmA}


def make_detector(kind: str, **params):
    if kind not in DETECTORS:
        raise ConfigurationError(
            f"unknown detector kind {kind!r}; choose from {tuple(DETECTORS)}"
        )
    detector = DETECTORS[kind]
    accepted = inspect.signature(detector).parameters
    unknown = [key for key in params if key not in accepted]
    if unknown:
        raise ConfigurationError(
            f"detector {kind!r} does not take {', '.join(unknown)}; "
            f"it takes {', '.join(accepted)}"
        )
    return detector(**params)
