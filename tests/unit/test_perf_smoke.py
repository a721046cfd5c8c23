"""Tier-1 perf smoke tests for the batched detector execution engine.

Not benchmarks: the budgets are deliberately generous so the tests are stable
on slow CI machines, but tight enough that a regression that silently drops
a vectorised fast path (falling back to a per-element loop) fails
immediately.
"""

import time

import numpy as np
import pytest

from repro.core.optwin import Optwin
from repro.detectors.adwin import Adwin
from repro.detectors.kswin import Kswin

_N_ELEMENTS = 50_000
_W_MAX = 25_000

#: Absolute ceiling for the batched pass over the 50k stream (hot path only;
#: the one-time dense-table build happens before the clock starts).  The
#: vectorised engine needs ~0.01 s here, the scalar loop ~1 s.
_BATCH_BUDGET_SECONDS = 2.0

#: The batched pass must also beat a scalar pass measured on the same machine
#: by a wide margin — this catches fast-path regressions independently of how
#: slow the machine is.  Typical speedup is far above 50x.
_MIN_SPEEDUP = 5.0


def test_batched_optwin_perf_smoke():
    rng = np.random.default_rng(7)
    values = (rng.random(_N_ELEMENTS) < 0.3).astype(np.float64)

    scalar_detector = Optwin(rho=0.5, w_max=_W_MAX)
    scalar_start = time.perf_counter()
    scalar_drifts = []
    for index, value in enumerate(values):
        if scalar_detector.update(value).drift_detected:
            scalar_drifts.append(index)
    scalar_seconds = time.perf_counter() - scalar_start

    batch_detector = Optwin(rho=0.5, w_max=_W_MAX)
    batch_detector.precompute_tables(_N_ELEMENTS)  # the paper's offline step
    batch_start = time.perf_counter()
    batch_drifts = batch_detector.update_many(values)
    batch_seconds = time.perf_counter() - batch_start

    # Identical detections, first and foremost.
    assert batch_drifts == scalar_drifts

    assert batch_seconds < _BATCH_BUDGET_SECONDS, (
        f"batched OPTWIN took {batch_seconds:.2f}s for {_N_ELEMENTS} elements "
        f"(budget {_BATCH_BUDGET_SECONDS}s) — did the fast path regress to "
        "the scalar loop?"
    )
    assert batch_seconds * _MIN_SPEEDUP < scalar_seconds, (
        f"batched OPTWIN ({batch_seconds:.3f}s) is less than "
        f"{_MIN_SPEEDUP}x faster than the scalar loop ({scalar_seconds:.3f}s)"
    )


#: Block-vectorised ADWIN and KSWIN must beat their own scalar loop by this
#: factor, measured back to back in one process.  KSWIN has the least margin
#: (about 2x on this stream); a per-element batch loop stays below the bar.
_MIN_KERNEL_SPEEDUP = 1.5


def _best_of(repeats, run):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        outcome = run()
        best = min(best, time.perf_counter() - start)
    return best, outcome


@pytest.mark.parametrize(
    "factory, n_elements", [(Adwin, 20_000), (Kswin, 6_000)], ids=["adwin", "kswin"]
)
def test_block_kernels_beat_scalar_loop(factory, n_elements):
    values = (np.random.default_rng(11).random(n_elements) < 0.3).astype(np.float64)

    def scalar():
        detector = factory()
        return [i for i, value in enumerate(values) if detector.update(value).drift_detected]

    def batched():
        detector = factory()
        drifts = []
        for low in range(0, n_elements, 1024):
            outcome = detector.update_batch(values[low : low + 1024])
            drifts.extend(low + k for k in outcome.drift_indices)
        return drifts

    scalar_seconds, scalar_drifts = _best_of(2, scalar)
    batch_seconds, batch_drifts = _best_of(3, batched)
    assert batch_drifts == scalar_drifts
    assert batch_seconds * _MIN_KERNEL_SPEEDUP < scalar_seconds, (
        f"batched {factory.__name__} ({batch_seconds:.3f}s) is less than "
        f"{_MIN_KERNEL_SPEEDUP}x faster than its scalar loop ({scalar_seconds:.3f}s)"
    )
