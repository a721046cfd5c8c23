"""Incremental (online) mean and variance estimators.

The OPTWIN paper (Section 3.4) points out that the means and standard
deviations of the two sub-windows do not need to be recomputed from scratch at
every step: they can be maintained incrementally.  This module provides three
flavours of incremental statistics:

``RunningStats``
    Classic Welford accumulator; supports only additions.  Used by detectors
    such as DDM/EDDM that never remove observations between resets.

``WindowedStats``
    Sum/sum-of-squares accumulator that supports both additions and removals,
    which is what a sliding window needs.

``PrefixStats``
    Prefix sums over a sliding window so that the mean/variance of *any*
    contiguous sub-window can be answered in O(1).  OPTWIN uses this to get the
    statistics of ``W_hist`` and ``W_new`` at the optimal cut without scanning.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Tuple

import numpy as np

from repro.exceptions import NotEnoughDataError, SnapshotError

__all__ = [
    "RunningStats",
    "WindowedStats",
    "PrefixStats",
    "seeded_segment_means",
]


def seeded_segment_means(
    base_sum: float, base_count: int, segment: "np.ndarray"
) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """Cumulative ``(sums, counts, means)`` of a segment seeded by prior state.

    ``np.add.accumulate`` seeded with ``base_sum`` performs the same
    left-to-right additions as a scalar ``total += value`` loop continuing
    from that state, so the returned running means are bit-identical to the
    scalar path — the property the detectors' batched fast paths (DDM,
    Page-Hinkley) rely on for their golden-equivalence contract.
    """
    count = segment.shape[0]
    accumulator = np.empty(count + 1, dtype=np.float64)
    accumulator[0] = base_sum
    accumulator[1:] = segment
    np.add.accumulate(accumulator, out=accumulator)
    sums = accumulator[1:]
    counts = (base_count + np.arange(1, count + 1)).astype(np.float64)
    return sums, counts, sums / counts


class RunningStats:
    """Welford's online algorithm for mean and variance (additions only).

    Numerically stable even for long streams of nearly identical values.

    Examples
    --------
    >>> rs = RunningStats()
    >>> for x in [1.0, 2.0, 3.0]:
    ...     rs.update(x)
    >>> rs.mean
    2.0
    >>> round(rs.variance, 6)
    1.0
    """

    __slots__ = ("_count", "_mean", "_m2")

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0

    def update(self, value: float) -> None:
        """Fold ``value`` into the running statistics."""
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)

    def update_many(self, values: Iterable[float]) -> None:
        """Fold every value from ``values`` into the running statistics."""
        for value in values:
            self.update(value)

    def reset(self) -> None:
        """Forget all observations."""
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0

    @property
    def count(self) -> int:
        """Number of observations folded in so far."""
        return self._count

    @property
    def mean(self) -> float:
        """Sample mean (0.0 when no observations were seen)."""
        return self._mean if self._count else 0.0

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0.0 with fewer than two observations)."""
        if self._count < 2:
            return 0.0
        return self._m2 / (self._count - 1)

    @property
    def population_variance(self) -> float:
        """Population (biased) variance."""
        if self._count < 1:
            return 0.0
        return self._m2 / self._count

    @property
    def std(self) -> float:
        """Unbiased sample standard deviation."""
        return math.sqrt(max(self.variance, 0.0))

    @property
    def population_std(self) -> float:
        """Population standard deviation."""
        return math.sqrt(max(self.population_variance, 0.0))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RunningStats(count={self._count}, mean={self.mean:.6g}, "
            f"std={self.std:.6g})"
        )


class WindowedStats:
    """Mean/variance over a multiset supporting additions *and* removals.

    Maintains the sum and sum of squares; removal is exact because the value
    being removed is supplied by the caller (sliding windows always know which
    element leaves).  A periodic exact recomputation is unnecessary for the
    magnitudes handled here (error rates in ``[0, 1]`` or bounded losses), but
    the accumulator clamps tiny negative variances caused by rounding.
    """

    __slots__ = ("_count", "_sum", "_sum_sq")

    def __init__(self) -> None:
        self._count = 0
        self._sum = 0.0
        self._sum_sq = 0.0

    def add(self, value: float) -> None:
        """Add one observation."""
        self._count += 1
        self._sum += value
        self._sum_sq += value * value

    def remove(self, value: float) -> None:
        """Remove one previously added observation."""
        if self._count == 0:
            raise NotEnoughDataError("remove from an empty WindowedStats")
        self._count -= 1
        self._sum -= value
        self._sum_sq -= value * value
        if self._count == 0:
            self._sum = 0.0
            self._sum_sq = 0.0

    def reset(self) -> None:
        """Forget all observations."""
        self._count = 0
        self._sum = 0.0
        self._sum_sq = 0.0

    @property
    def count(self) -> int:
        """Number of observations currently accounted for."""
        return self._count

    @property
    def total(self) -> float:
        """Sum of the observations currently accounted for."""
        return self._sum

    @property
    def mean(self) -> float:
        """Sample mean (0.0 when empty)."""
        return self._sum / self._count if self._count else 0.0

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0.0 with fewer than two observations)."""
        if self._count < 2:
            return 0.0
        mean = self._sum / self._count
        raw = (self._sum_sq - self._count * mean * mean) / (self._count - 1)
        return max(raw, 0.0)

    @property
    def std(self) -> float:
        """Unbiased sample standard deviation."""
        return math.sqrt(self.variance)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WindowedStats(count={self._count}, mean={self.mean:.6g}, "
            f"std={self.std:.6g})"
        )


class PrefixStats:
    """Prefix sums over an ordered window for O(1) sub-window statistics.

    The window follows the pre-allocated numpy storage idiom of
    :class:`repro.stats.circular_buffer.CircularBuffer`: values and their two
    prefix-sum arrays (values and squared values) live in flat ``float64``
    arrays anchored at a dead-prefix offset, so appends write in place,
    dropping elements from the front just moves the offset, and memory is
    compacted only occasionally by slicing-and-rebasing the existing prefix
    arrays (no per-element recomputation, no list churn).

    ``mean(i, j)`` and ``variance(i, j)`` answer queries over the *logical*
    half-open range ``[i, j)`` of the current window.  :meth:`append_many`
    folds a whole chunk in with one vectorised cumulative sum whose result is
    bit-identical to element-by-element :meth:`append` calls, which is what
    lets the detectors' batched fast paths reproduce the scalar paths exactly.
    """

    __slots__ = ("_values", "_prefix", "_prefix_sq", "_offset", "_end")

    # Compact the arrays once the dead prefix reaches this many items.  The
    # compaction point is deterministic (always exactly at the threshold) so
    # scalar and batched updates drive the storage through identical states.
    _COMPACT_THRESHOLD = 8192

    #: Initial physical capacity of the value array.
    _INITIAL_CAPACITY = 64

    def __init__(self, capacity: int = _INITIAL_CAPACITY) -> None:
        capacity = max(int(capacity), 1)
        self._values = np.zeros(capacity, dtype=np.float64)
        self._prefix = np.zeros(capacity + 1, dtype=np.float64)
        self._prefix_sq = np.zeros(capacity + 1, dtype=np.float64)
        self._offset = 0
        self._end = 0

    def __len__(self) -> int:
        return self._end - self._offset

    def _ensure_capacity(self, extra: int) -> None:
        needed = self._end + extra
        capacity = self._values.shape[0]
        if needed <= capacity:
            return
        # Pure copy, never a rebase: growth must not change any stored prefix
        # value, so that queries are independent of *when* the growth happened
        # (scalar and batched modes grow at different moments).
        new_capacity = max(needed, 2 * capacity)
        values = np.zeros(new_capacity, dtype=np.float64)
        prefix = np.zeros(new_capacity + 1, dtype=np.float64)
        prefix_sq = np.zeros(new_capacity + 1, dtype=np.float64)
        values[: self._end] = self._values[: self._end]
        prefix[: self._end + 1] = self._prefix[: self._end + 1]
        prefix_sq[: self._end + 1] = self._prefix_sq[: self._end + 1]
        self._values = values
        self._prefix = prefix
        self._prefix_sq = prefix_sq

    def append(self, value: float) -> None:
        """Append ``value`` at the end of the window."""
        self._ensure_capacity(1)
        end = self._end
        self._values[end] = value
        self._prefix[end + 1] = self._prefix[end] + value
        self._prefix_sq[end + 1] = self._prefix_sq[end] + value * value
        self._end = end + 1

    def append_many(self, values: "np.ndarray") -> None:
        """Append a chunk of values with one vectorised cumulative sum.

        The prefix arrays are extended by ``np.add.accumulate`` seeded with the
        current running totals, which performs the same left-to-right sequence
        of additions as repeated :meth:`append` calls and therefore produces
        bit-identical prefix sums.
        """
        chunk = np.asarray(values, dtype=np.float64)
        count = chunk.shape[0]
        if count == 0:
            return
        self._ensure_capacity(count)
        end = self._end
        self._values[end : end + count] = chunk
        prefix = self._prefix
        prefix_sq = self._prefix_sq
        prefix[end + 1 : end + count + 1] = chunk
        np.add.accumulate(
            prefix[end : end + count + 1], out=prefix[end : end + count + 1]
        )
        prefix_sq[end + 1 : end + count + 1] = chunk * chunk
        np.add.accumulate(
            prefix_sq[end : end + count + 1], out=prefix_sq[end : end + count + 1]
        )
        self._end = end + count

    def popleft(self) -> float:
        """Drop and return the oldest element of the window."""
        if len(self) == 0:
            raise NotEnoughDataError("popleft from an empty PrefixStats")
        value = float(self._values[self._offset])
        self._offset += 1
        if self._offset >= self._COMPACT_THRESHOLD:
            self._compact()
        return value

    def popleft_many(self, count: int) -> None:
        """Drop the ``count`` oldest elements (no values returned).

        Compaction fires at exactly the same dead-prefix sizes as ``count``
        individual :meth:`popleft` calls would trigger, keeping the storage
        state identical between scalar and batched execution.
        """
        if count < 0 or count > len(self):
            raise NotEnoughDataError(
                f"cannot popleft {count} elements from a window of {len(self)}"
            )
        remaining = count
        while remaining > 0:
            step = min(remaining, self._COMPACT_THRESHOLD - self._offset)
            self._offset += step
            remaining -= step
            if self._offset >= self._COMPACT_THRESHOLD:
                self._compact()

    def truncate_last(self, count: int) -> None:
        """Drop the ``count`` most recently appended elements."""
        if count < 0 or count > len(self):
            raise NotEnoughDataError(
                f"cannot truncate {count} elements from a window of {len(self)}"
            )
        self._end -= count

    def clear(self) -> None:
        """Remove every element (capacity is kept)."""
        self._offset = 0
        self._end = 0
        self._prefix[0] = 0.0
        self._prefix_sq[0] = 0.0

    def _compact(self) -> None:
        # Slice-and-rebase: move the live region to the front and subtract the
        # dead prefix's running totals instead of recomputing every prefix sum
        # from scratch — O(window) vectorised instead of O(window) Python ops.
        offset = self._offset
        size = self._end - offset
        self._values[:size] = self._values[offset : offset + size].copy()
        base = self._prefix[offset]
        base_sq = self._prefix_sq[offset]
        self._prefix[: size + 1] = self._prefix[offset : offset + size + 1] - base
        self._prefix_sq[: size + 1] = (
            self._prefix_sq[offset : offset + size + 1] - base_sq
        )
        self._offset = 0
        self._end = size

    def state_dict(self) -> dict:
        """Serialize the storage state for bit-exact resumption.

        The prefix arrays are *not* recomputable from the values: after a
        slice-and-rebase compaction each stored prefix is ``cumsum - base``,
        which differs from a fresh ``cumsum`` of the live values by rounding
        ulps.  The snapshot therefore captures the live physical region of all
        three arrays verbatim, plus the dead-prefix offset (which determines
        the next compaction point), so a restored window walks through exactly
        the same storage states as one that never stopped.
        """
        offset, end = self._offset, self._end
        return {
            "offset": offset,
            "values": self._values[offset:end].tolist(),
            "prefix": self._prefix[offset : end + 1].tolist(),
            "prefix_sq": self._prefix_sq[offset : end + 1].tolist(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        offset = int(state["offset"])
        live = np.asarray(state["values"], dtype=np.float64)
        prefix_live = np.asarray(state["prefix"], dtype=np.float64)
        prefix_sq_live = np.asarray(state["prefix_sq"], dtype=np.float64)
        size = live.shape[0]
        if offset < 0 or prefix_live.shape[0] != size + 1 or (
            prefix_sq_live.shape[0] != size + 1
        ):
            raise SnapshotError("corrupt PrefixStats snapshot")
        end = offset + size
        capacity = max(end, self._INITIAL_CAPACITY)
        # The dead region [0, offset) is never read (compaction copies from
        # the offset onward), so zeros are as good as the original contents.
        self._values = np.zeros(capacity, dtype=np.float64)
        self._prefix = np.zeros(capacity + 1, dtype=np.float64)
        self._prefix_sq = np.zeros(capacity + 1, dtype=np.float64)
        self._values[offset:end] = live
        self._prefix[offset : end + 1] = prefix_live
        self._prefix_sq[offset : end + 1] = prefix_sq_live
        self._offset = offset
        self._end = end

    def raw_arrays(self) -> Tuple["np.ndarray", "np.ndarray", int, int]:
        """Return ``(prefix, prefix_sq, offset, end)`` for batched math.

        ``prefix[k]`` is the running sum of the first ``k`` stored values since
        the last rebase; the live window spans physical indices
        ``[offset, end)``.  The arrays are the live internal buffers — callers
        must treat them as read-only and must not hold them across mutations.
        """
        return self._prefix, self._prefix_sq, self._offset, self._end

    @property
    def dead_prefix(self) -> int:
        """Number of already-dropped elements still occupying the arrays."""
        return self._offset

    def _bounds(self, start: int, stop: int) -> Tuple[int, int]:
        size = len(self)
        if start < 0 or stop > size or start > stop:
            raise IndexError(f"invalid range [{start}, {stop}) for size {size}")
        return self._offset + start, self._offset + stop

    def value_at(self, index: int) -> float:
        """Return the element at logical position ``index``."""
        if not 0 <= index < len(self):
            raise IndexError(f"index {index} out of range for size {len(self)}")
        return float(self._values[self._offset + index])

    def range_sum(self, start: int, stop: int) -> float:
        """Sum of elements in the logical range ``[start, stop)``."""
        lo, hi = self._bounds(start, stop)
        # Python floats: ``inf - inf`` is NaN without a numpy RuntimeWarning.
        return float(self._prefix[hi]) - float(self._prefix[lo])

    def range_sum_sq(self, start: int, stop: int) -> float:
        """Sum of squared elements in the logical range ``[start, stop)``."""
        lo, hi = self._bounds(start, stop)
        return float(self._prefix_sq[hi]) - float(self._prefix_sq[lo])

    def mean(self, start: int, stop: int) -> float:
        """Mean of elements in ``[start, stop)`` (0.0 for an empty range)."""
        count = stop - start
        if count == 0:
            return 0.0
        return self.range_sum(start, stop) / count

    def variance(self, start: int, stop: int) -> float:
        """Unbiased variance of elements in ``[start, stop)``."""
        count = stop - start
        if count < 2:
            return 0.0
        total = self.range_sum(start, stop)
        total_sq = self.range_sum_sq(start, stop)
        mean = total / count
        raw = (total_sq - count * mean * mean) / (count - 1)
        return max(raw, 0.0)

    def std(self, start: int, stop: int) -> float:
        """Unbiased standard deviation of elements in ``[start, stop)``."""
        return math.sqrt(self.variance(start, stop))

    def to_array(self) -> "np.ndarray":
        """Return the current window, oldest first, as a fresh numpy array."""
        return self._values[self._offset : self._end].copy()

    def to_list(self) -> List[float]:
        """Return the current window, oldest first."""
        return self._values[self._offset : self._end].tolist()
