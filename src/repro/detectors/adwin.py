"""ADWIN — ADaptive WINdowing drift detector (Bifet & Gavaldà 2007).

ADWIN keeps a variable-length window ``W`` of the most recent values and flags
a drift whenever two adjacent sub-windows have means whose difference exceeds
a threshold ``epsilon_cut`` derived from the Hoeffding/normal bound at
confidence ``delta``.  To stay sub-linear in memory it stores the window as an
exponential histogram: buckets of exponentially growing size, at most
``max_buckets`` per size level, so memory is O(``max_buckets`` * log |W|) and
the cut check is O(log |W|) per element.

This is a from-scratch re-implementation following the original paper and the
behaviour of the MOA/River versions (normal-approximation ``epsilon_cut``,
check clock, bucket compression), which is what the OPTWIN paper used as its
main baseline.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Iterable, Iterator, List, Tuple

import numpy as np

from repro.core.base import (
    BatchResult,
    DetectionResult,
    DriftDetector,
    DriftType,
    as_value_array,
)
from repro.exceptions import ConfigurationError, SnapshotError

__all__ = ["Adwin"]

#: Check-clock ticks whose cut tests one block of ``update_batch`` evaluates
#: together; caps the ``(ticks x buckets)`` work arrays.
_TICK_BLOCK = 256
#: Cut tests one pass of :meth:`Adwin._shrink_while_cut` evaluates together:
#: the window as it is and after each of the next ``_DROP_ROWS - 1`` drops.
_DROP_ROWS = 8


class Adwin(DriftDetector):
    """Adaptive-windowing drift detector.

    Parameters
    ----------
    delta:
        Confidence parameter of the cut test; smaller values make the detector
        more conservative.  The MOA default (used by the OPTWIN paper's
        baselines) is ``0.002``.
    clock:
        The cut check runs every ``clock`` elements (32 in MOA); set to 1 to
        check at every element.
    max_buckets:
        Maximum number of buckets per size level before compression.
    min_window_length:
        Minimum number of elements in each sub-window for a cut to be allowed.
    min_n_for_check:
        Minimum total window size before any cut check runs.
    """

    def __init__(
        self,
        delta: float = 0.002,
        clock: int = 32,
        max_buckets: int = 5,
        min_window_length: int = 5,
        min_n_for_check: int = 10,
    ) -> None:
        super().__init__()
        if not 0.0 < delta < 1.0:
            raise ConfigurationError(f"delta must be in (0, 1), got {delta}")
        if clock < 1:
            raise ConfigurationError(f"clock must be >= 1, got {clock}")
        if max_buckets < 1:
            raise ConfigurationError(f"max_buckets must be >= 1, got {max_buckets}")
        self._delta = delta
        self._clock = clock
        self._max_buckets = max_buckets
        self._min_window_length = min_window_length
        self._min_n_for_check = min_n_for_check
        self._init_state()

    def _init_state(self) -> None:
        # The exponential histogram: per size level (bucket size 2**level),
        # the bucket totals and variances, oldest bucket first.  Levels are
        # never removed; an emptied top level stays in ``state_dict()``.
        self._totals: List[List[float]] = [[]]
        self._variances: List[List[float]] = [[]]
        self._width = 0
        self._total = 0.0
        self._variance = 0.0
        self._ticks = 0

    # ----------------------------------------------------------- properties

    @property
    def delta(self) -> float:
        """Confidence parameter of the cut test."""
        return self._delta

    @property
    def width(self) -> int:
        """Current number of elements summarised by the window."""
        return self._width

    @property
    def estimation(self) -> float:
        """Current estimate of the stream mean (mean of the window)."""
        return self._total / self._width if self._width else 0.0

    @property
    def variance_estimate(self) -> float:
        """Current estimate of the stream variance."""
        return self._variance / self._width if self._width else 0.0

    # ------------------------------------------------------------- updates

    def _update_one(self, value: float) -> DetectionResult:
        self._insert_element(value)
        self._compress_buckets()
        self._ticks += 1

        drift = False
        if self._ticks % self._clock == 0 and self._width >= self._min_n_for_check:
            drift = self._detect_and_shrink()

        statistics = {
            "window_size": float(self._width),
            "estimation": self.estimation,
        }
        if drift:
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
        """Block-vectorised update, bit-identical to the scalar loop.

        A block of values is advanced in one go by :meth:`_advance_block`:
        running aggregates from seeded cumulative sums, the histogram's
        buckets level by level, and the cut tests of every check-clock tick
        in the block as one ``(ticks x buckets)`` array.  The first tick
        whose test cuts ends the block; the window is shrunk there exactly
        as in scalar mode and the next block starts after it.
        """
        if collect_stats or type(self)._update_one is not Adwin._update_one:
            return super().update_batch(values, collect_stats=collect_stats)
        arr = as_value_array(values)
        n = arr.shape[0]
        if n == 0:
            return BatchResult(0)
        drift_indices: List[int] = []
        clock = self._clock
        position = 0
        block_ticks = _TICK_BLOCK
        with np.errstate(all="ignore"):
            while position < n:
                # A block ends on a tick, or with the input, or after
                # _BATCH_CHUNK values (which bounds its memory for long clocks).
                length = min(
                    clock - self._ticks % clock + (block_ticks - 1) * clock,
                    self._BATCH_CHUNK,
                )
                block = arr[position : position + length]
                consumed, drift = self._advance_block(block)
                position += consumed
                if drift:
                    drift_indices.append(position - 1)
                    # Cuts come in bursts at consecutive ticks: test the next
                    # tick on its own before returning to long blocks.
                    block_ticks = 1
                else:
                    block_ticks = _TICK_BLOCK

        return self._finish_batch(
            n, drift_indices, list(drift_indices), DriftType.MEAN
        )

    def reset(self) -> None:
        """Drop the whole window and restart."""
        self._init_state()
        self._reset_counters()

    # ---------------------------------------------------- snapshot / restore

    def _config_dict(self) -> dict:
        return {
            "delta": self._delta,
            "clock": self._clock,
            "max_buckets": self._max_buckets,
            "min_window_length": self._min_window_length,
            "min_n_for_check": self._min_n_for_check,
        }

    def _state_dict(self) -> dict:
        # The exponential histogram, level by level, newest bucket first
        # within a level.
        return {
            "rows": [
                [[total, variance] for total, variance in zip(reversed(totals), reversed(variances))]
                for totals, variances in zip(self._totals, self._variances)
            ],
            "width": self._width,
            "total": self._total,
            "variance": self._variance,
            "ticks": self._ticks,
        }

    def _load_state(self, state: dict) -> None:
        rows = [row[::-1] for row in state["rows"]] or [[]]
        for level, row in enumerate(rows):
            # Compression keeps every level at max_buckets + 1 or fewer, and
            # the batched update relies on it.
            if len(row) > self._max_buckets + 1:
                raise SnapshotError(
                    f"ADWIN level {level} holds {len(row)} buckets; at most "
                    f"max_buckets + 1 = {self._max_buckets + 1} are possible"
                )
        self._totals = [[float(total) for total, _ in row] for row in rows]
        self._variances = [[float(variance) for _, variance in row] for row in rows]
        self._width = int(state["width"])
        self._total = float(state["total"])
        self._variance = float(state["variance"])
        self._ticks = int(state["ticks"])

    # ----------------------------------------------------------- internals

    def _insert_element(self, value: float) -> None:
        self._totals[0].append(value)
        self._variances[0].append(0.0)
        if self._width > 0:
            mean = self._total / self._width
            self._variance += (self._width * (value - mean) ** 2) / (self._width + 1)
        self._width += 1
        self._total += value

    def _compress_buckets(self) -> None:
        level = 0
        while level < len(self._totals):
            totals = self._totals[level]
            if len(totals) <= self._max_buckets + 1:
                break
            if level + 1 >= len(self._totals):
                self._totals.append([])
                self._variances.append([])
            variances = self._variances[level]
            # Merge the two oldest buckets of this level into one of the next.
            size = float(2 ** level)
            older, newer = totals[0], totals[1]
            mean_older = older / size
            mean_newer = newer / size
            merged_variance = (
                variances[0]
                + variances[1]
                + size * size / (2.0 * size) * (mean_older - mean_newer) ** 2
            )
            del totals[:2], variances[:2]
            self._totals[level + 1].append(older + newer)
            self._variances[level + 1].append(merged_variance)
            level += 1

    def _running_aggregates(self, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Window ``total`` and ``variance`` after each insert of ``values``.

        Bit-identical to repeated :meth:`_insert_element` calls: both
        recurrences are cumulative sums seeded with the running value, so the
        additions happen in the scalar order.  The squares go through
        Python's float ``**`` because ``libm`` ``pow`` is not always the
        correctly rounded ``x * x`` numpy would use.
        """
        count = values.shape[0]
        width = self._width
        totals = np.empty(count + 1)
        totals[0] = self._total
        totals[1:] = values
        np.add.accumulate(totals, out=totals)
        widths = np.arange(width, width + count, dtype=np.float64)
        deviations = values - totals[:-1] / widths
        squares = np.fromiter(map(pow, deviations.tolist(), repeat(2)), np.float64, count)
        variances = np.empty(count + 1)
        variances[0] = self._variance
        variances[1:] = widths * squares / (widths + 1.0)
        if width == 0:
            # The first insert into an empty window leaves the variance alone.
            variances[1] = self._variance
            np.add.accumulate(variances[1:], out=variances[1:])
        else:
            np.add.accumulate(variances, out=variances)
        return totals[1:], variances[1:]

    def _iter_buckets_oldest_first(self) -> Iterator[Tuple[int, float]]:
        """Yield ``(size, total)`` pairs from the oldest to the newest bucket."""
        for level in range(len(self._totals) - 1, -1, -1):
            size = 2 ** level
            for total in self._totals[level]:
                yield size, total

    def _detect_and_shrink(self) -> bool:
        """Run the adjacent-sub-window cut test; shrink the window on drift."""
        drift_detected = False
        keep_checking = True
        while keep_checking:
            keep_checking = False
            n0 = 0.0
            sum0 = 0.0
            n1 = float(self._width)
            sum1 = self._total
            buckets = list(self._iter_buckets_oldest_first())
            # The newest bucket can never be the whole right-hand window.
            for size, total in buckets[:-1]:
                n0 += size
                sum0 += total
                n1 -= size
                sum1 -= total
                if n0 < self._min_window_length or n1 < self._min_window_length:
                    continue
                mean0 = sum0 / n0
                mean1 = sum1 / n1
                if abs(mean0 - mean1) > self._epsilon_cut(n0, n1):
                    drift_detected = True
                    keep_checking = True
                    self._drop_oldest_bucket()
                    break
        return drift_detected

    def _advance_block(self, values: np.ndarray) -> Tuple[int, bool]:
        """Feed ``values`` up to and including the first tick that cuts.

        Returns how many values were consumed and whether the last of them
        was a drift (the window is then already shrunk).  The ticks before
        the block's last value are tested together on their bucket layouts;
        the first one that cuts, or else a tick on the last value, is tested
        again by :meth:`_shrink_while_cut` in the histogram state of that
        tick, which also does the shrinking.
        """
        count = values.shape[0]
        clock = self._clock
        ticks = np.arange(clock - 1 - self._ticks % clock, count, clock)
        ticks = ticks[self._width + ticks + 1 >= self._min_n_for_check]
        # Histogram states are taken at every checked tick and at block end.
        positions = np.append(ticks, count - 1)
        levels = self._bucket_schedule(values, positions + 1)
        window_totals, window_variances = self._running_aggregates(values)

        rows = ticks.shape[0] - (ticks.shape[0] > 0 and ticks[-1] == count - 1)
        row = -1
        if rows:
            cuts = self._cut_rows(
                *self._layouts(levels, rows),
                self._width + ticks[:rows] + 1,
                window_totals[ticks[:rows]],
                window_variances[ticks[:rows]],
            )
            if cuts.any():
                row = int(np.argmax(cuts))

        end = int(positions[row])
        self._set_buckets(levels, row)
        self._width += end + 1
        self._total = float(window_totals[end])
        self._variance = float(window_variances[end])
        self._ticks += end + 1
        drift = (row >= 0 or rows < ticks.shape[0]) and self._shrink_while_cut() > 0
        return end + 1, drift

    def _bucket_schedule(self, values: np.ndarray, inserted: np.ndarray) -> list:
        """Every histogram state of a block, for the levels the block reaches.

        ``inserted`` holds how many of ``values`` have been inserted at each
        state of interest.  A level that receives buckets merges its two
        oldest whenever it holds ``max_buckets + 2``; so the buckets it ever
        holds in the block form one history (its buckets at block start, then
        the arrivals in order), it always merges that history's front pairs,
        and after ``a`` arrivals it has merged
        ``max(0, (start + a - max_buckets) // 2)`` pairs.  Each state of a
        level is therefore a slice of its history, and the merged pairs are
        the next level's arrivals.  Levels above the last one that receives
        buckets keep their state through the block.

        Returns, per level from 0, ``(history of bucket totals, buckets at
        block start, merged pairs, arrivals)``, the last two with one entry
        per state: the state's slice of the history is
        ``[2 * merged, start + arrivals)``.  Bucket variances
        are only needed for the state the block stops at, so
        :meth:`_set_buckets` computes them then.
        """
        max_buckets = self._max_buckets
        levels = []
        incoming = values
        arrived = inserted
        level = 0
        while incoming.shape[0]:
            start = len(self._totals[level]) if level < len(self._totals) else 0
            history = np.concatenate((self._totals[level], incoming)) if start else incoming
            merged = arrived + (start - max_buckets)
            np.maximum(merged, 0, out=merged)
            merged //= 2
            levels.append((history, start, merged, arrived))
            pairs = 2 * int(merged[-1])
            incoming = history[0:pairs:2] + history[1:pairs:2]
            arrived = merged
            level += 1
        return levels

    def _set_buckets(self, levels: list, row: int) -> None:
        """Move the histogram to state ``row`` of :meth:`_bucket_schedule`,
        merging the bucket variances on the way exactly as
        :meth:`_compress_buckets` does."""
        incoming: List[float] = [0.0] * int(levels[0][3][row])
        for level, (history, start, merged, arrived) in enumerate(levels):
            if level == len(self._totals):
                if not arrived[row]:
                    return
                self._totals.append([])
                self._variances.append([])
            begin = 2 * int(merged[row])
            totals = history[: start + int(arrived[row])].tolist()
            variances = self._variances[level] + incoming
            size = float(2 ** level)
            factor = size * size / (2.0 * size)
            incoming = [
                older_variance
                + newer_variance
                + factor * (older / size - newer / size) ** 2
                for older, newer, older_variance, newer_variance in zip(
                    totals[0:begin:2],
                    totals[1:begin:2],
                    variances[0:begin:2],
                    variances[1:begin:2],
                )
            ]
            self._totals[level] = totals[begin:]
            self._variances[level] = variances[begin:]

    def _layouts(self, levels: list, rows: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The first ``rows`` states of :meth:`_bucket_schedule` as padded
        ``(rows x buckets)`` arrays of bucket totals and sizes, oldest bucket
        first, plus each row's bucket count."""
        histories = [history for history, _, _, _ in levels]
        begins = [2 * merged[:rows] for _, _, merged, _ in levels]
        ends = [start + arrived[:rows] for _, start, _, arrived in levels]
        for static in self._totals[len(levels) :]:
            histories.append(np.asarray(static, dtype=np.float64))
            begins.append(np.zeros(rows, dtype=np.intp))
            ends.append(np.full(rows, len(static)))
        # Oldest first: from the top level down.
        histories.reverse()
        lengths = np.asarray([history.shape[0] for history in histories])
        offsets = np.cumsum(lengths) - lengths
        starts = np.stack(begins[::-1], axis=1) + offsets
        counts = (np.stack(ends[::-1], axis=1) + offsets - starts).ravel()
        gather = np.arange(int(counts.sum())) + np.repeat(
            starts.ravel() - (np.cumsum(counts) - counts), counts
        )
        buckets = counts.reshape(rows, -1).sum(axis=1)
        filled = np.arange(int(buckets.max())) < buckets[:, None]
        totals = np.zeros(filled.shape)
        totals[filled] = np.concatenate(histories)[gather]
        sizes = np.zeros(filled.shape)
        sizes[filled] = np.repeat(2.0 ** np.arange(len(histories) - 1, -1, -1), lengths)[gather]
        return totals, sizes, buckets

    def _shrink_while_cut(self) -> int:
        """:meth:`_detect_and_shrink` on the current window: drop the oldest
        bucket while the cut test cuts; returns the number of drops.

        The tests after zero, one, ... drops are the rows of one
        :meth:`_cut_rows` call (up to ``_DROP_ROWS`` of them): the remaining
        buckets are suffixes of the current ones, and the window aggregates
        after each drop follow from :func:`_without_bucket`.
        """
        dropped = 0
        while True:
            totals = [total for level in reversed(self._totals) for total in level]
            count = len(totals)
            if count < 2:
                return dropped
            rows = min(count, _DROP_ROWS)
            variances = [variance for level in reversed(self._variances) for variance in level]
            sizes = [
                2 ** level
                for level in range(len(self._totals) - 1, -1, -1)
                for _ in self._totals[level]
            ]
            state = (self._width, self._total, self._variance)
            states = [state]
            for drop in range(rows - 1):
                state = _without_bucket(*state, sizes[drop], totals[drop], variances[drop])
                states.append(state)
            widths, window_totals, window_variances = (np.asarray(column) for column in zip(*states))
            # Row ``d`` holds the buckets left after ``d`` drops.
            suffix = np.arange(rows)[:, None] + np.arange(count)
            cuts = self._cut_rows(
                np.asarray(totals + [0.0] * rows)[suffix],
                np.asarray(sizes + [0] * rows, dtype=np.float64)[suffix],
                count - np.arange(rows),
                widths,
                window_totals,
                window_variances,
            )
            drops = rows if cuts.all() else int(np.argmin(cuts))
            for _ in range(drops):
                self._drop_oldest_bucket()
            dropped += drops
            if drops < rows:
                return dropped

    def _cut_rows(
        self,
        totals: np.ndarray,
        sizes: np.ndarray,
        lengths: np.ndarray,
        widths: np.ndarray,
        window_totals: np.ndarray,
        window_variances: np.ndarray,
    ) -> np.ndarray:
        """Whether :meth:`_detect_and_shrink`'s first pass would cut, for
        each row of bucket totals and sizes (oldest bucket first, ``lengths``
        buckets, zero-padded).

        All split points are tested at once.  The left/right sums are
        cumulative sums (the right one seeded with the window total; adding
        the negated totals subtracts exactly), the counts are exact integers,
        and every formula keeps the scalar operation order.  The scalar left
        sum starts from ``0.0``; skipping that seed can only flip the sign of
        a zero sum, which ``abs(mean0 - mean1)`` does not see.  ``width``,
        ``delta'`` and the variance estimate are fixed within a pass, so the
        logarithms are taken once per row, in ``math.log``.
        """
        columns = totals.shape[1] - 1
        if columns < 1:
            return np.zeros(totals.shape[0], dtype=bool)
        left = np.add.accumulate(totals[:, :-1], axis=1)
        right = np.empty_like(totals)
        right[:, 0] = window_totals
        np.negative(totals[:, :-1], out=right[:, 1:])
        np.add.accumulate(right, axis=1, out=right)
        n0 = np.add.accumulate(sizes[:, :-1], axis=1)
        n1 = widths[:, None] - n0
        mean_gap = np.abs(left / n0 - right[:, 1:] / n1)
        harmonic = 1.0 / (1.0 / n0 + 1.0 / n1)
        variance = (window_variances / widths)[:, None]
        delta = self._delta
        log_term = np.asarray(
            [math.log(2.0 / (delta / math.log(max(width, 2)))) for width in widths.tolist()]
        )[:, None]
        epsilon = np.sqrt((2.0 / harmonic) * variance * log_term) + (
            2.0 / (3.0 * harmonic)
        ) * log_term
        min_length = self._min_window_length
        # The newest bucket can never be the whole right-hand window.
        cuts = (np.arange(columns) < (lengths - 1)[:, None]) & (mean_gap > epsilon)
        cuts &= (n0 >= min_length) & (n1 >= min_length)
        return cuts.any(axis=1)

    def _epsilon_cut(self, n0: float, n1: float) -> float:
        """Normal-approximation threshold from the ADWIN paper (Section 4)."""
        harmonic = 1.0 / (1.0 / n0 + 1.0 / n1)
        delta_prime = self._delta / math.log(max(self._width, 2))
        log_term = math.log(2.0 / delta_prime)
        variance = self.variance_estimate
        return math.sqrt((2.0 / harmonic) * variance * log_term) + (
            2.0 / (3.0 * harmonic)
        ) * log_term

    def _drop_oldest_bucket(self) -> None:
        """Remove the oldest bucket (the window's left edge) after a cut."""
        for level in range(len(self._totals) - 1, -1, -1):
            totals = self._totals[level]
            if totals:
                self._width, self._total, self._variance = _without_bucket(
                    self._width,
                    self._total,
                    self._variance,
                    2 ** level,
                    totals.pop(0),
                    self._variances[level].pop(0),
                )
                return


def _without_bucket(
    width: int,
    total: float,
    variance: float,
    size: int,
    bucket_total: float,
    bucket_variance: float,
) -> Tuple[int, float, float]:
    """Window ``(width, total, variance)`` after dropping its oldest bucket."""
    if width > size:
        mean_bucket = bucket_total / size
        mean_rest = (total - bucket_total) / (width - size)
        variance -= bucket_variance + (size * (width - size) / width) * (
            mean_bucket - mean_rest
        ) ** 2
        variance = max(variance, 0.0)
    else:
        variance = 0.0
    width -= size
    total -= bucket_total
    if width <= 0:
        return 0, 0.0, 0.0
    return width, total, variance
