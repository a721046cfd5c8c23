"""Unit tests for the ADWIN baseline."""

import numpy as np
import pytest

from repro.detectors.adwin import Adwin
from repro.exceptions import ConfigurationError


def test_invalid_parameters_raise():
    with pytest.raises(ConfigurationError):
        Adwin(delta=0.0)
    with pytest.raises(ConfigurationError):
        Adwin(delta=1.5)
    with pytest.raises(ConfigurationError):
        Adwin(clock=0)
    with pytest.raises(ConfigurationError):
        Adwin(max_buckets=0)


def test_width_and_estimation_track_stream():
    detector = Adwin()
    for _ in range(100):
        detector.update(1.0)
    assert detector.width == 100
    assert detector.estimation == pytest.approx(1.0)
    assert detector.variance_estimate == pytest.approx(0.0, abs=1e-9)


def test_estimation_matches_mean_of_mixed_stream(rng):
    values = rng.random(500)
    detector = Adwin()
    detector.update_many(values)
    assert detector.estimation == pytest.approx(np.mean(values), abs=0.05)


def test_detects_sudden_binary_drift(sudden_binary_stream):
    detector = Adwin()
    detections = detector.update_many(sudden_binary_stream.values)
    post = [d for d in detections if d >= 2_000]
    assert post
    assert post[0] - 2_000 < 500


def test_detects_mean_shift_in_real_values(sudden_gaussian_stream):
    detector = Adwin()
    detections = detector.update_many(sudden_gaussian_stream.values)
    assert any(d >= 2_000 for d in detections)


def test_window_shrinks_after_drift(sudden_binary_stream):
    detector = Adwin()
    width_before_drift = None
    for index, value in enumerate(sudden_binary_stream.values):
        result = detector.update(value)
        if result.drift_detected and index >= 2_000:
            assert detector.width < index + 1
            width_before_drift = index + 1
            break
    assert width_before_drift is not None


def test_no_drift_on_stationary_stream(rng):
    detector = Adwin(delta=0.002)
    values = (rng.random(5_000) < 0.3).astype(float)
    detections = detector.update_many(values)
    assert len(detections) <= 2


def test_memory_is_logarithmic_in_window():
    detector = Adwin(max_buckets=5)
    for _ in range(10_000):
        detector.update(0.5)
    n_buckets = sum(len(row) for row in detector.state_dict()["state"]["rows"])
    # 5 buckets per level, ~log2(10000 / 5) levels.
    assert n_buckets < 100


def test_reset():
    detector = Adwin()
    detector.update_many([1.0] * 50)
    detector.reset()
    assert detector.width == 0
    assert detector.estimation == 0.0
    assert detector.n_seen == 0


def test_smaller_delta_is_more_conservative(rng):
    values = np.concatenate(
        [
            (rng.random(2_000) < 0.3).astype(float),
            (rng.random(2_000) < 0.45).astype(float),
        ]
    )
    sensitive = Adwin(delta=0.5)
    conservative = Adwin(delta=1e-5)
    n_sensitive = len(sensitive.update_many(values))
    n_conservative = len(conservative.update_many(values))
    assert n_sensitive >= n_conservative
