"""Property tests for the block-vectorised ADWIN and KSWIN batch kernels.

The golden suite feeds fixed streams in fixed chunk sizes; here hypothesis
draws short streams full of ties and non-finite values and cuts them at
arbitrary points, so block ends, drift rollbacks and post-cut restarts land
anywhere.  Drift indices and the final ``state_dict()`` must equal the scalar
``update`` loop's.  The row-wise KS kernel is also checked directly against the
scalar statistic, since a wrong NaN or tie rule rarely moves a statistic
across the critical value.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detectors.adwin import Adwin
from repro.detectors.kswin import Kswin, _ks_statistic, _ks_statistics

# Mostly 0/1 so the detectors fire, with ties, signed zeros and non-finite
# values mixed in.
_VALUES = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.sampled_from([0.5, -0.0, 0.25, float("nan"), float("inf"), float("-inf")]),
    st.floats(min_value=-2.0, max_value=2.0),
)

_STREAMS = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=60),
        st.floats(0.0, 1.0),
        _VALUES,
        st.integers(min_value=1, max_value=4),
    ),
    min_size=1,
    max_size=12,
)

_CUTS = st.lists(st.integers(min_value=0, max_value=400), max_size=8)


def _stream(segments) -> np.ndarray:
    """Segments of Bernoulli(p) values, each ending with a run of ``repeat``
    copies of ``extra``."""
    rng = np.random.default_rng(len(segments))
    parts = []
    for length, p, extra, repeat in segments:
        parts.append((rng.random(length) < p).astype(np.float64))
        parts.append(np.full(repeat, extra))
    return np.concatenate(parts)


def _assert_batch_matches_scalar(factory, values: np.ndarray, cuts) -> None:
    scalar = factory()
    expected = [i for i, value in enumerate(values) if scalar.update(value).drift_detected]
    batched = factory()
    drifts = []
    bounds = sorted({0, values.shape[0], *(c for c in cuts if c < values.shape[0])})
    for low, high in zip(bounds, bounds[1:]):
        drifts.extend(low + k for k in batched.update_batch(values[low:high]).drift_indices)
    assert drifts == expected
    # Canonical JSON: NaN-safe and sign-of-zero-exact.
    assert json.dumps(batched.state_dict(), sort_keys=True) == json.dumps(
        scalar.state_dict(), sort_keys=True
    )


@given(segments=_STREAMS, cuts=_CUTS, clock=st.integers(1, 5), max_buckets=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_adwin_batch_matches_scalar(segments, cuts, clock, max_buckets):
    _assert_batch_matches_scalar(
        lambda: Adwin(delta=0.2, clock=clock, max_buckets=max_buckets, min_window_length=2),
        _stream(segments),
        cuts,
    )


@given(segments=_STREAMS, cuts=_CUTS, seed=st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_kswin_batch_matches_scalar(segments, cuts, seed):
    _assert_batch_matches_scalar(
        lambda: Kswin(alpha=0.2, window_size=16, stat_size=6, seed=seed),
        _stream(segments),
        cuts,
    )


@given(
    samples=st.lists(
        st.lists(_VALUES, min_size=8, max_size=8), min_size=1, max_size=6
    )
)
@settings(max_examples=60, deadline=None)
def test_ks_kernel_matches_scalar_statistic(samples):
    rows = np.asarray(samples)
    recent, older = rows[:, :3], rows[:, 3:]
    expected = [_ks_statistic(a, b) for a, b in zip(recent, older)]
    assert _ks_statistics(recent, older).tolist() == expected
