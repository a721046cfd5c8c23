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
from itertools import accumulate, repeat
from typing import Iterable, Iterator, List, Optional, Tuple

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

#: Check-clock ticks one run of :meth:`Adwin._advance_block` tests together;
#: caps the ``(ticks x buckets)`` work arrays.
_RUN_TICKS = 256
#: Cut tests one pass of :meth:`Adwin._shrink` evaluates together: the
#: window after each of the next ``_DROP_ROWS`` drops (a quarter as many in
#: a probe's first pass, where a cut is the exception).
_DROP_ROWS = 16


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
        the histogram's states at every check-clock tick come from one
        :class:`_Schedule`, the running aggregates from seeded cumulative
        sums, and the cut tests of consecutive ticks are evaluated together
        as one ``(ticks x buckets)`` array.  A tick whose test cuts is shrunk
        exactly as in scalar mode and the block continues after it.
        """
        if collect_stats or type(self)._update_one is not Adwin._update_one:
            return super().update_batch(values, collect_stats=collect_stats)
        arr = as_value_array(values)
        n = arr.shape[0]
        if n == 0:
            return BatchResult(0)
        drift_indices: List[int] = []
        with np.errstate(all="ignore"):
            for low in range(0, n, self._BATCH_CHUNK):
                drift_indices.extend(
                    low + position
                    for position in self._advance_block(arr[low : low + self._BATCH_CHUNK])
                )
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

    def _advance_block(self, values: np.ndarray) -> List[int]:
        """Feed ``values``; returns the positions that were drifts.

        Cuts come in bursts at consecutive ticks, so the block alternates
        two kinds of steps.  A *probe* tests one tick together with the
        shrinking that follows a cut (:meth:`_shrink`), in one
        :meth:`_cut_rows` call.  The block starts with probes, and probes
        again after every cut, until two probes in a row do not cut; then a
        *run* tests the remaining ticks together, and a tick of the run that
        cuts is shrunk and probing resumes after it.  After a cut the
        schedule drops the buckets (:meth:`_Schedule.drop`) and the
        aggregates restart from the shrunk window.
        """
        count = values.shape[0]
        clock = self._clock
        ticks = np.arange(clock - 1 - self._ticks % clock, count, clock)
        # One state per tick, and the block end.
        schedule = _Schedule(
            self._max_buckets, self._totals, self._variances, values, np.append(ticks, count - 1) + 1
        )
        # Window aggregates after each value, known for values[:filled];
        # ``window`` is (width, total, variance) after values[:filled].
        window_totals = np.empty(count)
        window_variances = np.empty(count)
        filled = 0
        window = (self._width, self._total, self._variance)
        drifts: List[int] = []
        first = 0
        probe = True
        quiet = 0
        while first < ticks.shape[0]:
            last = min(first + (1 if probe else _RUN_TICKS), ticks.shape[0])
            stop = int(ticks[last - 1]) + 1
            if stop > filled:
                totals, variances = _running_aggregates(values[filled:stop], *window)
                window_totals[filled:stop] = totals
                window_variances[filled:stop] = variances
                window = (window[0] + stop - filled, float(totals[-1]), float(variances[-1]))
                filled = stop
            # The window's width after the value at a tick is the tick + offset.
            offset = window[0] + 1 - filled
            if probe:
                state = first
                position = stop - 1
                width = position + offset
                first += 1
                if width < self._min_n_for_check:
                    continue
            else:
                states = np.arange(first, last)
                widths = ticks[first:last] + offset
                checked = widths >= self._min_n_for_check
                states, widths = states[checked], widths[checked]
                first = last
                if not states.shape[0]:
                    continue
                positions = ticks[states]
                cuts = self._cut_rows(
                    *schedule.layout(states),
                    widths,
                    window_totals[positions],
                    window_variances[positions],
                )
                if not cuts.any():
                    continue
                row = int(np.argmax(cuts))
                state = int(states[row])
                position = int(positions[row])
                width = int(widths[row])
            drops, width, total, variance = self._shrink(
                *schedule.buckets(state),
                width,
                float(window_totals[position]),
                float(window_variances[position]),
                cut=not probe,
            )
            if not drops:
                quiet += 1
                probe = quiet < 2
                continue
            schedule.drop(state, drops)
            drifts.append(position)
            window = (width, total, variance)
            filled = position + 1
            first = state + 1
            probe = True
            quiet = 0

        if filled < count:
            totals, variances = _running_aggregates(values[filled:], *window)
            window = (window[0] + count - filled, float(totals[-1]), float(variances[-1]))
        self._totals, self._variances = schedule.histogram(schedule.states - 1)
        self._width, self._total, self._variance = window
        self._ticks += count
        return drifts

    def _shrink(
        self,
        bucket_totals: List[float],
        bucket_sizes: List[int],
        bucket_variances: List[float],
        width: int,
        total: float,
        variance: float,
        cut: bool,
    ) -> Tuple[int, int, float, float]:
        """:meth:`_detect_and_shrink` at one tick, on that tick's buckets
        (oldest first) and window aggregates; ``cut`` says the test is
        already known to cut there.

        Drops the oldest bucket while the test cuts; returns the number of
        drops and the window's ``(width, total, variance)`` after them.  The
        tests after zero, one, ... drops are the rows of one
        :meth:`_cut_rows` call (up to ``_DROP_ROWS`` of them): the remaining
        buckets are suffixes of the row, and the window aggregates after
        each drop follow from :func:`_without_bucket`.
        """
        count = len(bucket_totals)
        if count < 2:
            return (0, width, total, variance)
        window = (width, total, variance)
        dropped = 0
        if cut:
            window = _without_bucket(
                *window, bucket_sizes[0], bucket_totals[0], bucket_variances[0]
            )
            dropped = 1
        padded_totals = np.asarray(bucket_totals + [0.0] * _DROP_ROWS)
        padded_sizes = np.asarray(bucket_sizes + [0] * _DROP_ROWS, dtype=np.float64)
        rows = _DROP_ROWS if cut else _DROP_ROWS // 4
        while True:
            rows = min(count - dropped, rows)
            windows = [window]
            for drop in range(dropped, dropped + rows - 1):
                window = _without_bucket(
                    *window, bucket_sizes[drop], bucket_totals[drop], bucket_variances[drop]
                )
                windows.append(window)
            widths, window_totals, window_variances = (
                np.asarray(column) for column in zip(*windows)
            )
            # Row ``j`` holds the buckets left after ``dropped + j`` drops.
            suffix = np.arange(dropped, dropped + rows)[:, None] + np.arange(count - dropped)
            cuts = self._cut_rows(
                padded_totals[suffix],
                padded_sizes[suffix],
                widths,
                window_totals,
                window_variances,
            )
            if not np.logical_and.reduce(cuts):
                kept = int(np.argmin(cuts))
                return (dropped + kept, *windows[kept])
            dropped += rows
            rows = _DROP_ROWS
            drop = dropped - 1
            window = _without_bucket(
                *window, bucket_sizes[drop], bucket_totals[drop], bucket_variances[drop]
            )

    def _cut_rows(
        self,
        totals: np.ndarray,
        sizes: np.ndarray,
        widths: np.ndarray,
        window_totals: np.ndarray,
        window_variances: np.ndarray,
    ) -> np.ndarray:
        """Whether :meth:`_detect_and_shrink`'s first pass would cut, for
        each row of bucket totals and sizes (oldest bucket first; entries of
        size 0 are gaps, as in :meth:`_Schedule.layout`).

        All split points are tested at once.  The left/right sums are
        cumulative sums (the right one seeded with the window total; adding
        the negated totals subtracts exactly), the counts are exact integers,
        and every formula keeps the scalar operation order.  A gap adds
        ``0.0`` to both sums, so the split after it repeats the split before
        it, and splits before the first bucket have ``n0 = 0``: neither
        changes whether a row cuts.  The scalar left sum starts from
        ``0.0``; skipping that seed can only flip the sign of a zero sum,
        which ``abs(mean0 - mean1)`` does not see.  ``width``, ``delta'`` and
        the variance estimate are fixed within a pass, so the logarithms are
        taken once per row, in ``math.log``.
        """
        if totals.shape[1] < 2:
            return np.zeros(totals.shape[0], dtype=bool)
        n0 = np.add.accumulate(sizes[:, :-1], axis=1)
        mean_gap = np.add.accumulate(totals[:, :-1], axis=1)
        right = np.empty_like(totals)
        right[:, 0] = window_totals
        np.negative(totals[:, :-1], out=right[:, 1:])
        np.add.accumulate(right, axis=1, out=right)
        n1 = widths[:, None] - n0
        mean_gap /= n0
        right = right[:, 1:]
        right /= n1
        mean_gap -= right
        np.abs(mean_gap, out=mean_gap)
        harmonic = 1.0 / n0
        harmonic += 1.0 / n1
        np.divide(1.0, harmonic, out=harmonic)
        delta = self._delta
        log_term = np.asarray(
            [math.log(2.0 / (delta / math.log(max(width, 2)))) for width in widths.tolist()]
        )[:, None]
        epsilon = 2.0 / harmonic
        epsilon *= (window_variances / widths)[:, None]
        epsilon *= log_term
        np.sqrt(epsilon, out=epsilon)
        harmonic *= 3.0
        np.divide(2.0, harmonic, out=harmonic)
        harmonic *= log_term
        epsilon += harmonic
        cuts = mean_gap > epsilon
        min_length = self._min_window_length
        cuts &= np.minimum(n0, n1) >= min_length
        if not min_length > 0:
            # The newest bucket can never be the whole right-hand window.
            cuts &= n1 > 0
        return np.logical_or.reduce(cuts, axis=1)

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


def _running_aggregates(
    values: np.ndarray, width: int, total: float, variance: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Window ``total`` and ``variance`` after each insert of ``values`` into
    a window of ``width`` values with that ``total`` and ``variance``.

    Bit-identical to repeated :meth:`Adwin._insert_element` calls: both
    recurrences are cumulative sums seeded with the running value, so the
    additions happen in the scalar order.  The squares go through Python's
    float ``**`` because ``libm`` ``pow`` is not always the correctly rounded
    ``x * x`` numpy would use.
    """
    count = values.shape[0]
    totals = np.empty(count + 1)
    totals[0] = total
    totals[1:] = values
    np.add.accumulate(totals, out=totals)
    widths = np.arange(width, width + count, dtype=np.float64)
    deviations = values - totals[:-1] / widths
    variances = np.empty(count + 1)
    variances[0] = variance
    variances[1:] = widths * _squares(deviations) / (widths + 1.0)
    if width == 0:
        # The first insert into an empty window leaves the variance alone.
        variances[1] = variance
        np.add.accumulate(variances[1:], out=variances[1:])
    else:
        np.add.accumulate(variances, out=variances)
    return totals[1:], variances[1:]


def _squares(values: np.ndarray) -> np.ndarray:
    """``value ** 2`` of every value, in Python's float ``**`` (which turns
    the exponent 2 into 2.0 before calling ``pow``, so passing 2.0 is the
    same call without the conversion)."""
    return np.fromiter(map(pow, values.tolist(), repeat(2.0)), np.float64, values.shape[0])


class _Schedule:
    """Every histogram state of one ``update_batch`` block.

    A level that receives buckets merges its two oldest whenever it holds
    ``max_buckets + 2``; so the buckets it ever holds in the block form one
    history (its buckets at block start, then the arrivals in order), it
    always merges that history's front pairs, and after ``a`` arrivals it
    has merged ``max(0, (start + a - max_buckets) // 2)`` pairs.  Each state
    of a level is therefore a slice of its history, and the merged pairs are
    the next level's arrivals; their variances are merged with them, as
    :meth:`Adwin._compress_buckets` merges them.  Levels above the last one
    that receives buckets keep their state through the block.

    ``inserted`` holds how many values have been inserted at each state.
    The histories of all levels sit in :attr:`totals` and :attr:`variances`
    (level 0 first, then a 0.0 sentinel), and each state of a level is the
    slice ``[begin, end)`` of them.  A cut drops the oldest buckets of a
    state (:meth:`drop`); the levels that lost buckets then re-run their
    schedule from that state, and the levels below keep theirs.
    """

    def __init__(
        self,
        max_buckets: int,
        totals: List[List[float]],
        variances: List[List[float]],
        values: np.ndarray,
        inserted: np.ndarray,
    ) -> None:
        self._max_buckets = max_buckets
        self._slots = np.arange(max_buckets + 1)
        self.states = inserted.shape[0]
        # A drop's re-run that has not happened yet: its lowest level and
        # state, and the last state whose slices are right without it.
        self._pending: Optional[int] = None
        self._base = self._valid = 0
        self._sizes = np.zeros(0)
        self.totals = self.variances = np.zeros(1)
        # ``(levels x states)`` slots of each state's first and past-the-last
        # bucket in ``totals``; per level, where its history starts and ends
        # there and the first state it exists at (-1: before the block).
        self._begin = self._end = np.zeros((0, self.states), dtype=np.intp)
        self._offsets: List[int] = []
        self._ends: List[int] = []
        self._first: List[int] = []
        self._run(
            0,
            [
                (np.asarray(level_totals, dtype=np.float64), np.asarray(level_variances, dtype=np.float64))
                for level_totals, level_variances in zip(totals, variances)
            ],
            values,
            np.zeros(values.shape[0]),
            inserted,
        )

    def _run(
        self,
        level: int,
        contents: List[Tuple[np.ndarray, np.ndarray]],
        incoming: np.ndarray,
        incoming_variances: np.ndarray,
        arrived: np.ndarray,
    ) -> None:
        """Schedule the levels from ``level`` up, given the buckets each of
        them holds when the schedule starts (``contents``, for the levels
        that exist then) and the buckets that arrive at ``level`` afterwards,
        ``arrived[state]`` of them by each state."""
        max_buckets = self._max_buckets
        empty = np.zeros(0)
        # Bucket totals level by level, then every merged pair's variance
        # term in one pass, then the variances level by level.
        histories = []
        starts = []
        arrivals = [arrived]
        firsts = []
        olders = []
        newers = []
        while incoming.shape[0] or len(histories) < len(contents):
            if len(histories) < len(contents):
                history = contents[len(histories)][0]
                firsts.append(-1)
            else:
                history = empty
                firsts.append(int(np.argmax(arrived > 0)))
            start = history.shape[0]
            if start and incoming.shape[0]:
                history = np.concatenate((history, incoming))
            elif incoming.shape[0]:
                history = incoming
            merged = arrived + (start - max_buckets)
            np.maximum(merged, 0, out=merged)
            merged //= 2
            pairs = 2 * int(merged[-1])
            olders.append(history[0:pairs:2])
            newers.append(history[1:pairs:2])
            histories.append(history)
            starts.append(start)
            incoming = olders[-1] + newers[-1]
            arrived = merged
            arrivals.append(merged)
        pairs_per_level = [older.shape[0] for older in olders]
        sizes = 2.0 ** np.arange(level, level + len(histories))
        pair_sizes = np.repeat(sizes, pairs_per_level)
        terms = np.repeat(sizes * sizes / (2.0 * sizes), pairs_per_level) * _squares(
            np.concatenate(olders) / pair_sizes - np.concatenate(newers) / pair_sizes
        )
        variances = []
        low = 0
        for index, history in enumerate(histories):
            start = starts[index]
            level_variances = contents[index][1] if start else empty
            if incoming_variances.shape[0]:
                level_variances = (
                    np.concatenate((level_variances, incoming_variances))
                    if start else incoming_variances
                )
            variances.append(level_variances)
            high = low + pairs_per_level[index]
            incoming_variances = (
                level_variances[0 : 2 * (high - low) : 2] + level_variances[1 : 2 * (high - low) : 2]
            ) + terms[low:high]
            low = high
        base = self._offsets[level] if level < len(self._offsets) else self.totals.shape[0] - 1
        ends = list(accumulate((history.shape[0] for history in histories), initial=base))
        offsets = ends[:-1]
        self._offsets[level:] = offsets
        self._ends[level:] = ends[1:]
        self._first[level:] = firsts
        self.totals = np.concatenate([self.totals[:base]] + histories + [np.zeros(1)])
        self.variances = np.concatenate([self.variances[:base]] + variances + [np.zeros(1)])
        self._sentinel = self.totals.shape[0] - 1
        stacked = np.asarray(arrivals)
        column = np.asarray(offsets)[:, None]
        self._begin = np.concatenate((self._begin[:level], 2 * stacked[1:] + column))
        self._end = np.concatenate(
            (self._end[:level], stacked[:-1] + (np.asarray(starts)[:, None] + column))
        )
        if self._sizes.shape[0] != self._begin.shape[0] * self._slots.shape[0]:
            # Bucket size of every layout column, oldest (top) level first.
            self._sizes = np.repeat(
                2.0 ** np.arange(self._begin.shape[0] - 1, -1, -1), self._slots.shape[0]
            )

    def layout(self, states: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The buckets of ``states`` as ``(states x columns)`` arrays of
        totals and sizes, oldest first.

        Every level has ``max_buckets + 1`` columns, the most it holds at a
        state; unused columns are gaps of size 0 and total 0.0.
        """
        self._settle(int(states[-1]))
        slots = self._begin[::-1, states].T[:, :, None] + self._slots
        used = slots < self._end[::-1, states].T[:, :, None]
        slots = np.where(used, slots, self._sentinel).reshape(states.shape[0], -1)
        sizes = np.where(used.reshape(states.shape[0], -1), self._sizes, 0.0)
        return self.totals[slots], sizes

    def buckets(self, state: int) -> Tuple[List[float], List[int], List[float]]:
        """The bucket totals, sizes and variances of ``state``, oldest
        first."""
        self._settle(state)
        begin = self._begin[:, state].tolist()
        end = self._end[:, state].tolist()
        totals: List[float] = []
        sizes: List[int] = []
        variances: List[float] = []
        for level in range(len(begin) - 1, -1, -1):
            low, high = begin[level], end[level]
            if high > low:
                totals += self.totals[low:high].tolist()
                sizes += [1 << level] * (high - low)
                variances += self.variances[low:high].tolist()
        return totals, sizes, variances

    def drop(self, state: int, drops: int) -> None:
        """Drop the ``drops`` oldest buckets of ``state``.

        The levels that lose buckets must re-run their schedule from there,
        with the arrivals the level below still sends them.  Until the
        lowest of them holds ``max_buckets + 2`` buckets again it merges
        nothing, so the levels above receive nothing either: their later
        states are their buckets after the drop, and the lowest one's are
        those plus its arrivals.  The slices say so directly, and the re-run
        waits until a later state is needed (:meth:`_settle`); further cuts
        before then move its start to their state and, if they drop lower,
        its lowest level down.
        """
        begin = self._begin[:, state].tolist()
        end = self._end[:, state].tolist()
        level = len(begin)
        while drops:
            level -= 1
            lost = min(drops, end[level] - begin[level])
            begin[level] += lost
            drops -= lost
        if self._pending is not None:
            level = min(level, self._pending)
        self._pending = level
        self._base = state
        later = slice(state, None)
        self._begin[level:, later] = np.asarray(begin[level:])[:, None]
        self._end[level + 1 :, later] = np.asarray(end[level + 1 :])[:, None]
        for above in range(level + 1, len(begin)):
            if self._first[above] > state:
                self._first[above] = self.states
        # The lowest level merges once it holds max_buckets + 2.
        self._valid = state - 1 + int(
            np.searchsorted(self._end[level, state:], begin[level] + self._max_buckets + 1, "right")
        )

    def _settle(self, state: int) -> None:
        """Re-run the levels a drop left pending if ``state`` needs it."""
        if self._pending is None or state <= self._valid:
            return
        level, base = self._pending, self._base
        begin = self._begin[:, base].tolist()
        end = self._end[:, base].tolist()
        contents = [
            (self.totals[begin[above] : end[above]], self.variances[begin[above] : end[above]])
            for above in range(level, len(begin))
            if self._first[above] <= base
        ]
        arrivals = slice(end[level], self._ends[level])
        self._pending = None
        self._run(
            level,
            contents,
            self.totals[arrivals],
            self.variances[arrivals],
            self._end[level] - end[level],
        )

    def histogram(self, state: int) -> Tuple[List[List[float]], List[List[float]]]:
        """The histogram at ``state``: bucket totals and variances per
        level, oldest first."""
        self._settle(state)
        levels = sum(first <= state for first in self._first)
        begin = self._begin[:levels, state].tolist()
        end = self._end[:levels, state].tolist()
        return (
            [self.totals[low:high].tolist() for low, high in zip(begin, end)],
            [self.variances[low:high].tolist() for low, high in zip(begin, end)],
        )
