"""Golden equivalence tests for the batched detector execution engine.

Every exported detector must report *exactly* the same drift and warning
indices through ``update_batch`` as through the element-by-element ``update``
loop — over binary, real-valued, drift-dense and non-finite streams, across
multiple drifts/resets, for any chunking of the input, and leaving the
detector in an indistinguishable internal state (the same ``state_dict()``)
afterwards.  The detector line-up is checked
against :func:`repro.detectors.exported_detector_classes`, so adding a
detector without covering it here fails the registry test.
"""

import json

import numpy as np
import pytest

from repro.core.base import DriftDetector
from repro.core.optwin import Optwin
from repro.detectors import exported_detector_classes
from repro.detectors.adwin import Adwin
from repro.detectors.ddm import Ddm
from repro.detectors.ecdd import Ecdd
from repro.detectors.eddm import Eddm
from repro.detectors.hddm import HddmA
from repro.detectors.kswin import Kswin
from repro.detectors.no_detector import NoDriftDetector
from repro.detectors.page_hinkley import PageHinkley
from repro.detectors.rddm import Rddm
from repro.detectors.stepd import Stepd


def _multi_drift_binary(seed: int = 3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    parts = [
        (rng.random(2_500) < p).astype(np.float64)
        for p in (0.2, 0.6, 0.15, 0.5, 0.3)
    ]
    return np.concatenate(parts)


def _multi_drift_gaussian(seed: int = 5) -> np.ndarray:
    rng = np.random.default_rng(seed)
    parts = [
        rng.normal(mean, std, 2_500)
        for mean, std in ((0.2, 0.05), (0.7, 0.05), (0.3, 0.3), (0.9, 0.1))
    ]
    return np.concatenate(parts)


def _drift_dense_binary(seed: int = 9) -> np.ndarray:
    """Short alternating segments: every detector resets many times."""
    rng = np.random.default_rng(seed)
    parts = [
        (rng.random(400) < p).astype(np.float64)
        for p in (0.05, 0.9) * 8
    ]
    return np.concatenate(parts)


def _non_finite_binary(seed: int = 13) -> np.ndarray:
    """A binary drift stream with NaN, +inf and -inf sprinkled in, as the
    wire accepts them: pins the NaN/tie semantics of the vectorised kernels
    (KSWIN's KS statistic, ADWIN's running aggregates)."""
    rng = np.random.default_rng(seed)
    values = np.concatenate(
        [(rng.random(1_500) < p).astype(np.float64) for p in (0.2, 0.6, 0.1)]
    )
    # Dense enough that a KSWIN sample often holds several NaNs.
    positions = rng.choice(values.shape[0], 240, replace=False)
    values[positions[:150]] = np.nan
    values[positions[150:195]] = np.inf
    values[positions[195:]] = -np.inf
    return values


STREAMS = {
    "binary_multi_drift": _multi_drift_binary(),
    "non_finite_binary": _non_finite_binary(),
    "gaussian_multi_drift": _multi_drift_gaussian(),
    "drift_dense": _drift_dense_binary(),
    "constant": np.full(500, 0.25),
    "tiny": np.asarray([0.0, 1.0, 0.0]),
}

DETECTORS = {
    "optwin": lambda: Optwin(rho=0.5, w_max=5_000),
    "optwin_keep_new": lambda: Optwin(rho=0.5, w_max=5_000, reset_mode="keep_new"),
    "optwin_two_sided": lambda: Optwin(rho=0.5, w_max=5_000, one_sided=False),
    "optwin_no_warning": lambda: Optwin(rho=0.5, w_max=5_000, warning_delta=0.0),
    "optwin_small_window": lambda: Optwin(rho=0.5, w_max=300),
    "optwin_literal": lambda: Optwin(
        rho=0.5, w_max=5_000, skip_variance_on_binary=False, require_magnitude=False
    ),
    "adwin": Adwin,
    "adwin_every_element": lambda: Adwin(clock=1, delta=0.05),
    # A cascade at every other insert, and a check every fourth.
    "adwin_cascade": lambda: Adwin(max_buckets=1, clock=4),
    "ddm": Ddm,
    "eddm": Eddm,
    "stepd": Stepd,
    "stepd_wide": lambda: Stepd(window_size=100, alpha_drift=0.01, alpha_warning=0.2),
    "ecdd": Ecdd,
    "ecdd_arl100": lambda: Ecdd(arl0=100),
    "page_hinkley": PageHinkley,
    "kswin": Kswin,
    "kswin_sensitive": lambda: Kswin(alpha=0.01, window_size=200, stat_size=40, seed=3),
    # The older segment is exactly stat_size long: every sample is a full
    # permutation of it.
    "kswin_full_permutation": lambda: Kswin(window_size=60, stat_size=30, seed=1),
    "rddm": Rddm,
    "rddm_reactive": lambda: Rddm(
        max_concept_size=3_000, min_stable_size=1_000, warning_limit=200
    ),
    "hddm_a": HddmA,
    "no_detector": NoDriftDetector,
}


def test_registry_every_exported_detector_is_covered():
    """The golden suite must exercise every exported detector class."""
    covered = {type(factory()) for factory in DETECTORS.values()}
    missing = [
        cls.__name__
        for cls in exported_detector_classes()
        if cls not in covered
    ]
    assert not missing, f"exported detectors missing golden coverage: {missing}"


def _scalar_reference(detector: DriftDetector, values: np.ndarray):
    drifts, warnings = [], []
    for index, value in enumerate(values):
        outcome = detector.update(value)
        if outcome.drift_detected:
            drifts.append(index)
        if outcome.warning_detected:
            warnings.append(index)
    return drifts, warnings


_TAIL = (np.random.default_rng(42).random(400) < 0.4).astype(np.float64)
_SCALAR_CACHE = {}


def _scalar_fingerprint(detector_name: str, stream_name: str):
    """Scalar-mode reference, memoised across the chunk-size parametrisation.

    Returns drift/warning indices, the counter triple, the last-result flags,
    the post-run ``state_dict()`` (see :func:`_state_text`), and the outcomes
    of continuing the detector on a fixed tail stream.
    """
    key = (detector_name, stream_name)
    cached = _SCALAR_CACHE.get(key)
    if cached is None:
        detector = DETECTORS[detector_name]()
        drifts, warnings = _scalar_reference(detector, STREAMS[stream_name])
        counters = (detector.n_seen, detector.n_drifts, detector.n_warnings)
        flags = (detector.drift_detected, detector.warning_detected)
        state = _state_text(detector)
        tail = [detector.update(v).drift_detected for v in _TAIL]
        cached = (drifts, warnings, counters, flags, state, tail)
        _SCALAR_CACHE[key] = cached
    return cached


def _state_text(detector: DriftDetector) -> str:
    """``state_dict()`` as canonical JSON text.

    Comparing the text is bit-exact where ``==`` on the dicts is not: NaN
    never equals itself, and ``-0.0 == 0.0``.
    """
    return json.dumps(detector.state_dict(), sort_keys=True)


def _batched(detector: DriftDetector, values: np.ndarray, chunk: int):
    drifts, warnings = [], []
    for low in range(0, values.shape[0], chunk):
        outcome = detector.update_batch(values[low : low + chunk])
        drifts.extend(low + k for k in outcome.drift_indices)
        warnings.extend(low + k for k in outcome.warning_indices)
    return drifts, warnings


@pytest.mark.parametrize("chunk", [1, 7, 64, 10**9])
@pytest.mark.parametrize("stream_name", sorted(STREAMS))
@pytest.mark.parametrize("detector_name", sorted(DETECTORS))
def test_batch_matches_scalar(detector_name, stream_name, chunk):
    values = STREAMS[stream_name]
    scalar_drifts, scalar_warnings, counters, flags, scalar_state, scalar_tail = (
        _scalar_fingerprint(detector_name, stream_name)
    )
    batch_detector = DETECTORS[detector_name]()
    batch_drifts, batch_warnings = _batched(batch_detector, values, chunk)

    assert batch_drifts == scalar_drifts
    assert batch_warnings == scalar_warnings
    assert (
        batch_detector.n_seen,
        batch_detector.n_drifts,
        batch_detector.n_warnings,
    ) == counters
    assert (
        batch_detector.drift_detected,
        batch_detector.warning_detected,
    ) == flags

    # The post-batch internal state must be indistinguishable: the snapshot
    # is the same, and continuing the detector element-by-element yields the
    # scalar-mode outcomes.
    assert _state_text(batch_detector) == scalar_state
    batch_tail = [batch_detector.update(v).drift_detected for v in _TAIL]
    assert batch_tail == scalar_tail


def test_optwin_batch_survives_compaction():
    """Long stream + small window: the dead-prefix compaction of PrefixStats
    fires repeatedly in both modes and must not perturb the indices."""
    rng = np.random.default_rng(11)
    parts = [
        (rng.random(9_000) < p).astype(np.float64) for p in (0.2, 0.5, 0.25)
    ]
    values = np.concatenate(parts)
    scalar_detector = Optwin(rho=0.5, w_max=400)
    batch_detector = Optwin(rho=0.5, w_max=400)
    scalar_drifts, scalar_warnings = _scalar_reference(scalar_detector, values)
    result = batch_detector.update_batch(values)
    assert result.drift_indices == scalar_drifts
    assert result.warning_indices == scalar_warnings
    assert batch_detector.window_size == scalar_detector.window_size


def test_optwin_batch_compaction_with_real_values_is_bit_identical():
    """Regression test for the compaction boundary: 0/1 streams have integer
    prefix sums, so their slice-and-rebase compaction is exact — only
    real-valued streams can expose an ulp drift between rebased and
    un-rebased range queries.  A large-magnitude stationary stream with
    ~14,700 evictions forces the rebase mid-stream while warnings fire, and
    the batched indices must still match scalar mode exactly."""
    rng = np.random.default_rng(23)
    values = rng.normal(1e6, 3.0, 15_000) + rng.random(15_000)
    scalar_detector = Optwin(rho=0.5, w_max=300, one_sided=False)
    batch_detector = Optwin(rho=0.5, w_max=300, one_sided=False)
    scalar_drifts, scalar_warnings = _scalar_reference(scalar_detector, values)
    result = batch_detector.update_batch(values)
    assert scalar_warnings  # the stream must actually exercise the tests
    assert result.drift_indices == scalar_drifts
    assert result.warning_indices == scalar_warnings
    assert batch_detector.window_mean == scalar_detector.window_mean
    assert batch_detector.window_std == scalar_detector.window_std


def test_update_many_routes_through_batch():
    values = _multi_drift_binary()
    via_many = Optwin(rho=0.5, w_max=5_000).update_many(values)
    via_batch = Optwin(rho=0.5, w_max=5_000).update_batch(values).drift_indices
    assert via_many == via_batch
    assert via_many  # the stream contains real drifts


def test_collect_stats_matches_scalar_statistics():
    values = _multi_drift_binary()[:2_000]
    scalar_detector = Optwin(rho=0.5, w_max=5_000)
    batch_detector = Optwin(rho=0.5, w_max=5_000)
    scalar_results = [scalar_detector.update(v) for v in values]
    outcome = batch_detector.update_batch(values, collect_stats=True)
    assert outcome.results is not None
    assert len(outcome.results) == len(scalar_results)
    for got, expected in zip(outcome.results, scalar_results):
        assert got.drift_detected == expected.drift_detected
        assert got.warning_detected == expected.warning_detected
        assert got.statistics == expected.statistics


def test_batch_empty_input_is_a_noop():
    for factory in DETECTORS.values():
        detector = factory()
        outcome = detector.update_batch(np.empty(0))
        assert outcome.n_processed == 0
        assert outcome.drift_indices == []
        assert detector.n_seen == 0


def test_batch_accepts_plain_iterables():
    detector = Optwin(rho=0.5, w_max=5_000)
    values = _multi_drift_binary()
    from_list = detector.update_many(values.tolist())
    detector.reset()
    from_generator = detector.update_many(float(v) for v in values)
    detector.reset()
    from_array = detector.update_many(values)
    assert from_list == from_generator == from_array


def test_subclass_overriding_update_one_falls_back_to_scalar():
    class SilencedOptwin(Optwin):
        def _update_one(self, value):
            result = super()._update_one(value)
            if result.drift_detected:
                from repro.core.base import DetectionResult

                return DetectionResult(statistics=result.statistics)
            return result

    values = _multi_drift_binary()
    detector = SilencedOptwin(rho=0.5, w_max=5_000)
    assert detector.update_many(values) == []
    assert Optwin(rho=0.5, w_max=5_000).update_many(values) != []
