"""Pin KSWIN's bulk emulation of ``random.Random.sample`` to the real thing.

``update_batch`` draws a block of KSWIN's index sets from one bulk
``getrandbits`` call (:class:`repro.detectors.kswin._IndexSampler`).  That is
only sound while it reproduces CPython's ``Random.sample(range(n), k)``
exactly — the results *and* the generator state afterwards — so this runs on
every Python the project supports.  It covers both branches of ``sample``
(pool and set), both sides of the set-size boundary, ``k == n``, pool-branch
populations wider than one byte, and blocks of 1, 3 and 64 calls.
"""

import math
import random

import pytest

from repro.detectors.kswin import _IndexSampler


def _setsize(k: int) -> int:
    """CPython's switch point between the pool and the set branch."""
    size = 21
    if k > 5:
        size += 4 ** math.ceil(math.log(k * 3, 4))
    return size


CASES = [
    # KSWIN's defaults and the golden-suite configurations.
    (70, 30),
    (160, 40),
    (30, 30),
    # k <= 5: the set branch starts right above n = 21.
    (21, 2),
    (22, 2),
    (5, 5),
    # Both sides of the boundary for k = 30 (setsize 277) and k = 100 (1045).
    (277, 30),
    (278, 30),
    (1045, 100),
    (1046, 100),
    # Pool branch with values wider than a byte.
    (900, 100),
    (300, 290),
    # Set branch with a wide population and repeated draws.
    (370, 30),
    (100_000, 50),
]


@pytest.mark.parametrize("n, k", CASES)
def test_branch_is_the_one_cpython_takes(n, k):
    assert _IndexSampler(n, k).pool == (n <= _setsize(k))


@pytest.mark.parametrize("count", [1, 3, 64])
@pytest.mark.parametrize("n, k", CASES)
def test_bulk_draws_match_random_sample(n, k, count):
    sampler = _IndexSampler(n, k)
    for seed in range(12):
        bulk = random.Random(seed)
        reference = random.Random(seed)
        for _ in range(2):
            picks = sampler.draw(bulk, count).tolist()
            assert picks == [reference.sample(range(n), k) for _ in range(count)]
            assert bulk.getstate() == reference.getstate()


@pytest.mark.parametrize("n, k", [(70, 30), (370, 30)])
def test_skip_advances_like_sample(n, k):
    sampler = _IndexSampler(n, k)
    for seed in range(8):
        bulk = random.Random(seed)
        reference = random.Random(seed)
        sampler.skip(bulk, 5)
        for _ in range(5):
            reference.sample(range(n), k)
        assert bulk.getstate() == reference.getstate()
