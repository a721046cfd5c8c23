"""KSWIN — Kolmogorov–Smirnov windowing drift detector (extension baseline).

KSWIN keeps a sliding window of the last ``window_size`` values and compares
the most recent ``stat_size`` of them against a uniform random sample of the
older part using the two-sample Kolmogorov–Smirnov test.  Because the KS test
is distribution-free it reacts to changes in *any* aspect of the value
distribution, which makes it a useful extra point of comparison for OPTWIN's
variance-sensitive behaviour.
"""

from __future__ import annotations

import math
import random
from collections import deque
from itertools import chain
from typing import Deque, Iterable, List, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.core.base import (
    BatchResult,
    DetectionResult,
    DriftDetector,
    DriftType,
    as_value_array,
)
from repro.exceptions import ConfigurationError

__all__ = ["Kswin"]

#: Consecutive tests evaluated by one vectorised block of ``update_batch``.
#: A drift inside a block costs a redraw of the index sets up to the drift
#: element, so larger blocks trade vector width for redraw work.
_TEST_BLOCK = 64


def _ks_statistic(sample_a: Sequence[float], sample_b: Sequence[float]) -> float:
    """Two-sample Kolmogorov–Smirnov statistic (maximum ECDF distance).

    Ties are handled by evaluating both empirical CDFs at every distinct value
    (using right-continuous counts), so heavily discrete inputs such as 0/1
    error indicators are measured correctly.  Implemented as a sorted-merge:
    both samples are sorted once and the two ECDFs are evaluated at every
    distinct value with vectorised ``np.searchsorted`` rank lookups — the
    counts and divisions are exactly those of a per-value ``bisect`` loop, so
    the statistic is bit-identical to the naive formulation.
    """
    sorted_a = np.sort(np.asarray(sample_a, dtype=np.float64))
    sorted_b = np.sort(np.asarray(sample_b, dtype=np.float64))
    # Evaluating at every sample value (duplicates included) reaches the same
    # maximum as evaluating at the distinct values only, and skips a
    # uniquifying pass.
    points = np.concatenate((sorted_a, sorted_b))
    cdf_a = np.searchsorted(sorted_a, points, side="right") / sorted_a.shape[0]
    cdf_b = np.searchsorted(sorted_b, points, side="right") / sorted_b.shape[0]
    return float(np.max(np.abs(cdf_a - cdf_b)))


def _ks_statistics(recent: np.ndarray, older: np.ndarray) -> np.ndarray:
    """Row-wise :func:`_ks_statistic` of two ``(tests, size)`` sample arrays.

    Each row is merged and sorted once; the right-continuous ECDF counts of
    both samples at every sorted position are integer cumulative sums of the
    sample labels.  ``np.searchsorted(side="right")`` evaluates a tied value
    at the end of its tie group, so only group ends are candidates.  NaN
    sorts last and counts the whole of both samples, so NaN positions (and
    the final position) contribute 0.  Each candidate is formed as
    ``count_a / n_a - count_b / n_b`` exactly as in the scalar statistic,
    so every row is bit-identical to :func:`_ks_statistic`.
    """
    n_a = recent.shape[1]
    n_b = older.shape[1]
    merged = np.concatenate((recent, older), axis=1)
    # Ties may land in any order: only the counts at a group's end are used.
    count_a = np.add.accumulate(np.argsort(merged, axis=1) < n_a, axis=1, dtype=np.intp)
    count_b = np.arange(1, n_a + n_b + 1) - count_a
    distance = np.abs(count_a[:, :-1] / n_a - count_b[:, :-1] / n_b)
    ordered = np.sort(merged, axis=1)
    head = ordered[:, :-1]
    group_end = (head != ordered[:, 1:]) & (head == head)
    return np.max(distance, axis=1, where=group_end, initial=0.0)


class Kswin(DriftDetector):
    """Kolmogorov–Smirnov windowing drift detector.

    Parameters
    ----------
    alpha:
        Significance level of the KS test.
    window_size:
        Total number of recent values retained.
    stat_size:
        Size of the "recent" sample compared against the older data.
    seed:
        Seed of the internal random sampler (KSWIN subsamples the older part
        of its window).
    """

    def __init__(
        self,
        alpha: float = 0.005,
        window_size: int = 100,
        stat_size: int = 30,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if not 0.0 < alpha < 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1), got {alpha}")
        if stat_size >= window_size:
            raise ConfigurationError(
                f"stat_size ({stat_size}) must be smaller than window_size "
                f"({window_size})"
            )
        if window_size < 2 * stat_size:
            # The older part of a full window holds window_size - stat_size
            # values and is subsampled down to stat_size of them, so anything
            # between stat_size and 2 * stat_size would pass construction and
            # then crash in random.Random.sample at element window_size.
            raise ConfigurationError(
                f"window_size ({window_size}) must be at least 2 * stat_size "
                f"({2 * stat_size}) so the older window segment can supply a "
                f"sample of {stat_size} values"
            )
        if stat_size < 2:
            raise ConfigurationError(f"stat_size must be >= 2, got {stat_size}")
        self._alpha = alpha
        self._window_size = window_size
        self._stat_size = stat_size
        self._seed = seed
        self._rng = random.Random(seed)
        self._window: Deque[float] = deque(maxlen=window_size)
        # Two-sample KS critical value at significance alpha; constant in the
        # configuration, shared by the scalar and batched paths.
        self._critical = math.sqrt(-0.5 * math.log(alpha / 2.0)) * math.sqrt(
            2.0 / stat_size
        )

    # ------------------------------------------------------------- updates

    def _update_one(self, value: float) -> DetectionResult:
        self._window.append(value)
        statistics = {"window_size": float(len(self._window))}

        if len(self._window) < self._window_size:
            return DetectionResult(statistics=statistics)

        values: List[float] = list(self._window)
        recent = values[-self._stat_size:]
        older = values[: -self._stat_size]
        sample_older = self._rng.sample(older, self._stat_size)

        d_stat = _ks_statistic(recent, sample_older)
        critical = self._critical
        statistics.update({"ks_statistic": d_stat, "critical": critical})

        if d_stat > critical:
            # Keep only the recent sample as the new history.
            self._window = deque(recent, maxlen=self._window_size)
            return DetectionResult(
                drift_detected=True,
                warning_detected=True,
                drift_type=DriftType.DISTRIBUTION,
                statistics=statistics,
            )
        return DetectionResult(statistics=statistics)

    # ------------------------------------------------------- batched updates

    def update_batch(
        self, values: Iterable[float], collect_stats: bool = False
    ) -> BatchResult:
        """Block-vectorised update, bit-identical to the scalar loop.

        Partially filled windows (after construction and after every drift,
        when the window shrank to the recent sample) are bulk-extended without
        a test.  Full windows are tested ``_TEST_BLOCK`` elements at a time:
        ``random.Random.sample`` picks positions independently of the
        population's contents, so the block draws its index sets up front
        from ``range(window_size - stat_size)`` (consuming the generator
        exactly like sampling the older segment itself), gathers every
        test's older sample and recent slice from one buffer, and evaluates
        all KS statistics with :func:`_ks_statistics`.  When a test in the
        block fires, the generator is rewound to the block start and the
        index sets are redrawn only through the drift element, so the random
        state matches scalar mode again.
        """
        if collect_stats or type(self)._update_one is not Kswin._update_one:
            return super().update_batch(values, collect_stats=collect_stats)
        arr = as_value_array(values)
        n = arr.shape[0]
        if n == 0:
            return BatchResult(0)
        drift_indices: List[int] = []
        window_size = self._window_size
        stat_size = self._stat_size
        older_size = window_size - stat_size
        positions = range(older_size)
        rng = self._rng
        rng_sample = rng.sample
        critical = self._critical
        window = np.asarray(self._window, dtype=np.float64)

        index = 0
        while index < n:
            if window.shape[0] < window_size - 1:
                # Elements that leave the window still short of full never
                # run a test; append them in one slice.
                take = min(window_size - 1 - window.shape[0], n - index)
                window = np.concatenate((window, arr[index : index + take]))
                index += take
                if index >= n:
                    break
            block = min(_TEST_BLOCK, n - index)
            # Test ``t`` of the block sees the window buffer[t : t + window_size].
            buffer = np.concatenate(
                (window[window.shape[0] - (window_size - 1) :], arr[index : index + block])
            )
            start_state = rng.getstate()
            picks = np.fromiter(
                chain.from_iterable(rng_sample(positions, stat_size) for _ in range(block)),
                np.intp,
                block * stat_size,
            ).reshape(block, stat_size)
            picks += np.arange(block)[:, None]
            recent = sliding_window_view(buffer, stat_size)[older_size : older_size + block]
            fired = np.flatnonzero(_ks_statistics(recent, buffer[picks]) > critical)
            if fired.size == 0:
                window = buffer[block - 1 :]
                index += block
                continue
            first = int(fired[0])
            rng.setstate(start_state)
            for _ in range(first + 1):
                rng_sample(positions, stat_size)
            drift_indices.append(index + first)
            # Keep only the recent sample as the new history.
            window = buffer[first + older_size : first + window_size]
            index += first + 1

        self._window = deque(window.tolist(), maxlen=window_size)
        return self._finish_batch(
            n, drift_indices, list(drift_indices), DriftType.DISTRIBUTION
        )

    def reset(self) -> None:
        """Forget all retained values."""
        self._window = deque(maxlen=self._window_size)
        self._rng = random.Random(self._seed)
        self._reset_counters()

    # ---------------------------------------------------- snapshot / restore

    def _config_dict(self) -> dict:
        return {
            "alpha": self._alpha,
            "window_size": self._window_size,
            "stat_size": self._stat_size,
            "seed": self._seed,
        }

    def _state_dict(self) -> dict:
        # random.Random.getstate() is (version, 625-int internal state,
        # gauss_next); the tuple layers are flattened to lists for JSON.
        version, internal, gauss_next = self._rng.getstate()
        return {
            "window": list(self._window),
            "rng": {
                "version": version,
                "internal": list(internal),
                "gauss_next": gauss_next,
            },
        }

    def _load_state(self, state: dict) -> None:
        self._window = deque(
            (float(value) for value in state["window"]), maxlen=self._window_size
        )
        rng_state = state["rng"]
        self._rng.setstate(
            (
                int(rng_state["version"]),
                tuple(int(word) for word in rng_state["internal"]),
                rng_state["gauss_next"],
            )
        )
