"""Page–Hinkley test for change detection (extension baseline).

The Page–Hinkley (PH) test is a sequential analysis technique that accumulates
the difference between the observed values and their running mean, minus a
tolerance ``delta``, and flags a change when the accumulated sum drifts more
than ``threshold`` away from its minimum.  It is a common additional baseline
in the drift-detection literature (and available in MOA/River), so it is
included here as an extension beyond the paper's baseline set.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from repro.core.base import (
    BatchResult,
    DetectionResult,
    DriftDetector,
    DriftType,
    as_value_array,
)
from repro.exceptions import ConfigurationError
from repro.stats.incremental import seeded_segment_means

__all__ = ["PageHinkley"]


class PageHinkley(DriftDetector):
    """Page–Hinkley change detector for increases in the monitored value.

    Parameters
    ----------
    delta:
        Tolerance subtracted from each deviation; small values make the test
        more sensitive.
    threshold:
        Detection threshold ``lambda`` on the accumulated statistic.
    alpha:
        Forgetting factor applied to the cumulative sum (1.0 disables
        forgetting).
    min_num_instances:
        Number of observations before a drift can be flagged.
    """

    def __init__(
        self,
        delta: float = 0.005,
        threshold: float = 50.0,
        alpha: float = 0.9999,
        min_num_instances: int = 30,
    ) -> None:
        super().__init__()
        if delta < 0:
            raise ConfigurationError(f"delta must be >= 0, got {delta}")
        if threshold <= 0:
            raise ConfigurationError(f"threshold must be > 0, got {threshold}")
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1], got {alpha}")
        if min_num_instances < 1:
            raise ConfigurationError(
                f"min_num_instances must be >= 1, got {min_num_instances}"
            )
        self._delta = delta
        self._threshold = threshold
        self._alpha = alpha
        self._min_num_instances = min_num_instances
        self._init_state()

    def _init_state(self) -> None:
        self._n = 0
        self._sum = 0.0
        self._mean = 0.0
        self._cumulative = 0.0
        self._minimum = 0.0

    # ------------------------------------------------------------- updates

    def _update_one(self, value: float) -> DetectionResult:
        self._n += 1
        # Sum-based mean: ``np.add.accumulate`` performs the same left-to-right
        # additions, so the batched path reproduces this value bit for bit.
        self._sum += value
        self._mean = self._sum / self._n
        self._cumulative = self._alpha * self._cumulative + (
            value - self._mean - self._delta
        )
        self._minimum = min(self._minimum, self._cumulative)
        statistic = self._cumulative - self._minimum

        statistics = {
            "n": float(self._n),
            "mean": self._mean,
            "statistic": statistic,
            "threshold": self._threshold,
        }

        if self._n < self._min_num_instances:
            return DetectionResult(statistics=statistics)

        if statistic > self._threshold:
            self._init_state()
            return DetectionResult(
                drift_detected=True,
                warning_detected=True,
                drift_type=DriftType.MEAN,
                statistics=statistics,
            )
        return DetectionResult(statistics=statistics)

    # ------------------------------------------------------- batched updates

    def update_batch(
        self, values: Iterable[float], collect_stats: bool = False
    ) -> BatchResult:
        """Batched update, bit-identical to the scalar loop.

        The running means of a whole between-drift segment are produced by one
        exact cumulative sum; the forgetting recurrence of the PH statistic is
        sequential, so it runs in a tight local-variable loop over the
        pre-computed deviations without any per-element allocations.
        """
        if collect_stats or type(self)._update_one is not PageHinkley._update_one:
            return super().update_batch(values, collect_stats=collect_stats)
        arr = as_value_array(values)
        n = arr.shape[0]
        if n == 0:
            return BatchResult(0)
        drift_indices: List[int] = []
        alpha = self._alpha
        threshold = self._threshold
        min_n = self._min_num_instances
        position = 0
        limit = self._BATCH_CHUNK
        # Non-finite values make inf - inf and the like; the scalar loop
        # computes the same NaNs silently, in Python floats.
        with np.errstate(all="ignore"):
            while position < n:
                # Bounded segments keep the whole call O(n) even on streams where
                # drifts (which restart the closed form) are frequent.
                segment = arr[position : position + limit]
                count = segment.shape[0]
                sums, _, means = seeded_segment_means(self._sum, self._n, segment)
                deviations = ((segment - means) - self._delta).tolist()

                cumulative = self._cumulative
                minimum = self._minimum
                n_before = self._n
                drift_rel = -1
                for rel, deviation in enumerate(deviations):
                    cumulative = alpha * cumulative + deviation
                    minimum = min(minimum, cumulative)
                    if n_before + rel + 1 < min_n:
                        continue
                    if cumulative - minimum > threshold:
                        drift_rel = rel
                        break
                if drift_rel < 0:
                    self._n += count
                    self._sum = float(sums[-1])
                    self._mean = float(means[-1])
                    self._cumulative = cumulative
                    self._minimum = minimum
                    position += count
                    limit = min(limit * 4, self._BATCH_CHUNK)
                    continue
                drift_indices.append(position + drift_rel)
                self._init_state()
                position += drift_rel + 1
                limit = self._BATCH_RESTART

        return self._finish_batch(
            n, drift_indices, list(drift_indices), DriftType.MEAN
        )

    def reset(self) -> None:
        """Forget all statistics."""
        self._init_state()
        self._reset_counters()

    # ---------------------------------------------------- snapshot / restore

    def _config_dict(self) -> dict:
        return {
            "delta": self._delta,
            "threshold": self._threshold,
            "alpha": self._alpha,
            "min_num_instances": self._min_num_instances,
        }

    def _state_dict(self) -> dict:
        return {
            "n": self._n,
            "sum": self._sum,
            "mean": self._mean,
            "cumulative": self._cumulative,
            "minimum": self._minimum,
        }

    def _load_state(self, state: dict) -> None:
        self._n = int(state["n"])
        self._sum = float(state["sum"])
        self._mean = float(state["mean"])
        self._cumulative = float(state["cumulative"])
        self._minimum = float(state["minimum"])
