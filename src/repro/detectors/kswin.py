"""KSWIN — Kolmogorov–Smirnov windowing drift detector (extension baseline).

KSWIN keeps a sliding window of the last ``window_size`` values and compares
the most recent ``stat_size`` of them against a uniform random sample of the
older part using the two-sample Kolmogorov–Smirnov test.  Because the KS test
is distribution-free it reacts to changes in *any* aspect of the value
distribution, which makes it a useful extra point of comparison for OPTWIN's
variance-sensitive behaviour.
"""

from __future__ import annotations

import functools
import math
import random
import re
from collections import deque
from typing import Deque, Iterable, List, Sequence, Tuple

import numpy as np

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
#: A drift inside a block wastes the tests after it, so larger blocks trade
#: vector width for wasted work.
_TEST_BLOCK = 128
#: Cap on the generator words one block draws ahead (4 bytes each); large
#: ``stat_size`` configurations get fewer tests per block instead.
_BLOCK_WORDS = 1 << 16
#: Largest value width the pool-branch pattern matches as code points:
#: values of more than 8 bits are shifted past the Basic Multilingual Plane
#: (``re`` compiles such classes as ranges instead of 64K-entry bitmaps, in
#: time linear in ``stat_size``), and ``chr`` stops at 0x10FFFF.
_MAX_POOL_BITS = 20
_WIDE_OFFSET = 0x10000


class _IndexSampler:
    """Bulk, exact ``random.Random.sample(range(n), k)``.

    ``sample`` draws every index with ``_randbelow(m)``: take the top
    ``m.bit_length()`` bits of one 32-bit Mersenne Twister word and reject
    values ``>= m``.  ``getrandbits(32 * words)`` returns the same words,
    least significant first, so a block of sample calls can be decided from
    one bulk draw; the generator is then set back and advanced by exactly
    the words the calls consume.  The two branches of ``sample`` are
    emulated as CPython implements them:

    * *pool* (``n <= setsize``): draw ``i`` is ``randbelow(n - i)`` into a
      pool whose chosen slot is refilled from its end.  Each word is encoded
      as a character of its top ``n.bit_length()`` bits; draw ``i`` accepts
      the characters below a draw-specific limit, so the accept/reject chain
      of a whole block is one regular language, and one ``re`` split
      captures every accepted word.  The pool refills run vectorised across
      the block's calls.
    * *set* (``n > setsize``): every draw is ``randbelow(n)``, redrawn while
      it repeats an index of the same call.

    ``tests/unit/test_kswin_sampler.py`` pins the emulation against
    ``Random.sample`` on every supported Python.
    """

    def __init__(self, n: int, k: int) -> None:
        self.n = n
        self.k = k
        setsize = 21
        if k > 5:
            setsize += 4 ** math.ceil(math.log(k * 3, 4))
        self.pool = n <= setsize
        self.bits = n.bit_length()
        #: Whether the words can be encoded for the pool-branch pattern.
        self.exact = not self.pool or self.bits <= _MAX_POOL_BITS
        bounds = [n - i for i in range(k)] if self.pool else [n] * k
        widths = [bound.bit_length() for bound in bounds]
        # Draw ``i`` reads the top ``widths[i]`` bits, i.e. the top ``bits``
        # shifted right by ``down[i]``; it accepts a top-``bits`` value below
        # ``bound << down``.
        self.down = np.asarray([self.bits - width for width in widths], dtype=np.uint32)
        self.expected_words = sum((1 << width) / bound for bound, width in zip(bounds, widths))
        if not self.pool:
            # Repeats are redrawn too: about k * k / (2 n) extra draws.
            self.expected_words *= 1.0 + k / (2.0 * n)
        self.block = max(1, min(_TEST_BLOCK, int(_BLOCK_WORDS // self.expected_words)))
        if self.pool and self.exact:
            self.offset = 0 if self.bits <= 8 else _WIDE_OFFSET
            top = (1 << self.bits) - 1
            self.pattern = re.compile(
                "".join(
                    f"[{self._code(bound << shift)}-{self._code(top)}]*+"
                    f"([{self._code(0)}-{self._code((bound << shift) - 1)}])"
                    for bound, shift in zip(bounds, self.down.tolist())
                )
            )
            # Slot ``n - 1 - i`` refills the chosen slot of draw ``i``.
            self.refill = n - 1 - np.arange(k)

    def _code(self, value: int) -> str:
        """The pattern escape of the character that encodes ``value``."""
        return f"\\U{value + self.offset:08x}"

    def draw(self, rng: random.Random, count: int) -> np.ndarray:
        """The ``(count, k)`` results of the next ``count`` calls of
        ``rng.sample(range(n), k)``; ``rng`` is left where they leave it."""
        draws = self.skip(rng, count)
        return self._pool_picks(draws) if self.pool else draws

    def skip(self, rng: random.Random, count: int) -> np.ndarray:
        """Advance ``rng`` past ``count`` sample calls; returns their
        ``randbelow`` draws (the results themselves in the set branch)."""
        start = rng.getstate()
        words = _words(rng, int(count * self.expected_words * 1.15) + 32)
        if self.pool:
            draws, used = self._pool_draws(rng, words, count)
        else:
            draws, used = self._set_draws(rng, words, count)
        rng.setstate(start)
        rng.getrandbits(32 * used)
        return draws

    def _pool_draws(
        self, rng: random.Random, words: np.ndarray, count: int
    ) -> Tuple[np.ndarray, int]:
        k = self.k
        while True:
            text = ((words >> (32 - self.bits)) + self.offset).tobytes().decode("utf-32-le")
            # ``count`` back-to-back matches, each a group of k one-word
            # captures, and the unconsumed rest; a shortfall shows as fewer
            # pieces or as a non-empty piece between two matches.
            pieces = self.pattern.split(text, count)
            accepted = "".join(pieces[:-1])
            if len(pieces) == count * (k + 1) + 1 and len(accepted) == count * k:
                break
            words = np.concatenate((words, _words(rng, words.shape[0] // 2 + 32)))
        draws = np.frombuffer(accepted.encode("utf-32-le"), "<u4") - self.offset
        draws = (draws.reshape(count, k) >> self.down).astype(np.intp)
        return draws, len(text) - len(pieces[-1])

    def _pool_picks(self, draws: np.ndarray) -> np.ndarray:
        """Run the pool of every sample call through its draws at once."""
        count = draws.shape[0]
        n = self.n
        # Slot ``j`` of call ``c`` is ``pool[c * n + j]``.
        base = np.arange(count) * n
        chosen = (draws + base[:, None]).T.copy()
        refill = self.refill[:, None] + base
        pool = np.tile(np.arange(n), count)
        picks = np.empty((self.k, count), dtype=np.intp)
        take, put = pool.take, pool.put
        for slots, refills, out in zip(chosen, refill, picks):
            take(slots, out=out)
            put(slots, take(refills))
        return picks.T

    def _set_draws(
        self, rng: random.Random, words: np.ndarray, count: int
    ) -> Tuple[np.ndarray, int]:
        n, k = self.n, self.k
        values = words >> (32 - self.bits)
        valid = values < n
        accepted = values[valid].tolist()
        # Word index of every accepted draw, to count the words consumed.
        positions = np.flatnonzero(valid)
        picks: List[int] = []
        cursor = 0
        for _ in range(count):
            chosen = dict.fromkeys(accepted[cursor : cursor + k])
            cursor = min(cursor + k, len(accepted))
            while len(chosen) < k:
                if cursor == len(accepted):
                    more = _words(rng, words.shape[0] // 2 + 32)
                    more_values = more >> (32 - self.bits)
                    more_valid = more_values < n
                    accepted.extend(more_values[more_valid].tolist())
                    positions = np.concatenate(
                        (positions, words.shape[0] + np.flatnonzero(more_valid))
                    )
                    words = np.concatenate((words, more))
                    continue
                chosen[accepted[cursor]] = None
                cursor += 1
            picks.extend(chosen)
        return np.asarray(picks, dtype=np.intp).reshape(count, k), int(positions[cursor - 1]) + 1


def _words(rng: random.Random, count: int) -> np.ndarray:
    """The generator's next ``count`` 32-bit words, in draw order."""
    return np.frombuffer(rng.getrandbits(32 * count).to_bytes(4 * count, "little"), "<u4")


@functools.lru_cache(maxsize=16)
def _index_sampler(n: int, k: int) -> _IndexSampler:
    """The shared sampler of every detector sampling ``k`` of ``n``."""
    return _IndexSampler(n, k)


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


def _ks_statistics(samples: np.ndarray, n_a: int) -> np.ndarray:
    """Row-wise :func:`_ks_statistic` of ``samples[:, :n_a]`` against
    ``samples[:, n_a:]``.

    Each row is sorted once; the right-continuous ECDF counts of both
    samples at every sorted position are integer cumulative sums of the
    sample labels.  ``np.searchsorted(side="right")`` evaluates a tied value
    at the end of its tie group, so only group ends are candidates.  NaN
    sorts last and counts the whole of both samples, so NaN positions (and
    the final position) contribute 0.  Each candidate is formed as
    ``count_a / n_a - count_b / n_b`` exactly as in the scalar statistic,
    so every row is bit-identical to :func:`_ks_statistic`.
    """
    size = samples.shape[1]
    n_b = size - n_a
    # Ties may land in any order: only the counts at a group's end are used.
    count_a = np.add.accumulate(np.argsort(samples, axis=1) < n_a, axis=1, dtype=np.intp)
    count_b = np.arange(1, size + 1) - count_a
    distance = np.abs(count_a[:, :-1] / n_a - count_b[:, :-1] / n_b)
    ordered = np.sort(samples, axis=1)
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
        a test.  Full windows are tested a block of elements at a time:
        ``random.Random.sample`` picks positions independently of the
        population's contents, so the block draws its index sets up front
        from ``range(window_size - stat_size)`` with :class:`_IndexSampler`
        (consuming the generator exactly like sampling the older segment
        itself), gathers every test's older sample and recent slice from one
        buffer, and evaluates all KS statistics with :func:`_ks_statistics`.
        When a test in the block fires, the generator is set back to the block
        start and advanced past the sample calls through the drift element
        only, so the random state matches scalar mode again.
        """
        if collect_stats or type(self)._update_one is not Kswin._update_one:
            return super().update_batch(values, collect_stats=collect_stats)
        sampler = _index_sampler(self._window_size - self._stat_size, self._stat_size)
        if not sampler.exact:
            return super().update_batch(values)
        arr = as_value_array(values)
        n = arr.shape[0]
        if n == 0:
            return BatchResult(0)
        drift_indices: List[int] = []
        window_size = self._window_size
        stat_size = self._stat_size
        older_size = window_size - stat_size
        rng = self._rng
        critical = self._critical
        window = np.asarray(self._window, dtype=np.float64)
        recent_offsets = np.arange(older_size, window_size)

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
            block = min(sampler.block, n - index)
            # Test ``t`` of the block sees the window buffer[t : t + window_size].
            buffer = np.concatenate(
                (window[window.shape[0] - (window_size - 1) :], arr[index : index + block])
            )
            start_state = rng.getstate()
            # Row ``t``: the recent slice, then the older sample, of test ``t``.
            picks = np.empty((block, 2 * stat_size), dtype=np.intp)
            picks[:, :stat_size] = recent_offsets
            picks[:, stat_size:] = sampler.draw(rng, block)
            picks += np.arange(block)[:, None]
            fired = np.flatnonzero(_ks_statistics(buffer[picks], stat_size) > critical)
            if fired.size == 0:
                window = buffer[block - 1 :]
                index += block
                continue
            first = int(fired[0])
            rng.setstate(start_state)
            sampler.skip(rng, first + 1)
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
