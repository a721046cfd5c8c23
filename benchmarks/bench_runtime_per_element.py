"""Section 3.4 — per-element update cost of OPTWIN vs the baselines (E14).

Extended beyond the paper: every detector with a vectorised ``update_batch``
fast path is measured twice — once in the classic scalar ``update`` loop and
once fed in chunks through the batch API — and the speedup between the two
modes is reported alongside the paper's O(1)-per-element comparison.
"""

from conftest import run_once

from repro.core.optwin import Optwin
from repro.evaluation.reporting import format_table
from repro.experiments.runtime import run_runtime_comparison


def test_runtime_per_element(benchmark, scale, report):
    lengths = (2_000, 8_000, 20_000) if scale["n_repetitions"] < 30 else (
        5_000,
        25_000,
        100_000,
    )
    measurements = run_once(benchmark, run_runtime_comparison, stream_lengths=lengths)
    rows = [
        [m.detector_name, m.mode, m.n_elements, f"{m.seconds_per_element * 1e6:.2f}"]
        for m in measurements
    ]
    report(
        "runtime_per_element",
        format_table(
            ["Detector", "Mode", "Stream length", "Microseconds per element"],
            rows,
            title="Per-element update cost (steady state, pre-computed cut tables)",
        ),
    )

    # Batch-vs-scalar speedup at the longest stream for each batch-capable
    # detector (the headline number of the vectorised execution engine).
    longest = max(lengths)
    by_key = {
        (m.detector_name, m.mode): m.seconds_per_element
        for m in measurements
        if m.n_elements == longest
    }
    speedup_rows = []
    for (name, mode), cost in sorted(by_key.items()):
        if mode != "batch":
            continue
        scalar_cost = by_key.get((name, "scalar"))
        if scalar_cost and cost > 0:
            speedup_rows.append([name, f"{scalar_cost / cost:.1f}x"])
    if speedup_rows:
        report(
            "batch_speedup",
            format_table(
                ["Detector", "Batch speedup vs scalar"],
                speedup_rows,
                title=f"update_batch speedup at {longest} elements",
            ),
        )

    # The six detectors batched after the original engine (ADWIN, EDDM,
    # STEPD, KSWIN, RDDM, HDDM-A) must not be second-class citizens: at
    # least four of them have closed-form/segment-vectorised paths that beat
    # the scalar loop by 3x or more.
    newly_batched = ("ADWIN", "EDDM", "STEPD", "KSWIN", "RDDM", "HDDM-A")
    fast = 0
    for name in newly_batched:
        scalar_cost = by_key.get((name, "scalar"))
        batch_cost = by_key.get((name, "batch"))
        if scalar_cost and batch_cost and scalar_cost / batch_cost >= 3.0:
            fast += 1
    assert fast >= 4, (
        f"only {fast} of {newly_batched} reached a 3x batch speedup at "
        f"{longest} elements"
    )
    # ADWIN and KSWIN keep a sequential core (bucket cascades, RNG
    # subsampling) but run it in blocks: ADWIN tests the cuts of many
    # check-clock ticks at once, KSWIN the KS statistics of many consecutive
    # windows.  Each must reach at least 2x.
    for name in ("ADWIN", "KSWIN"):
        speedup = by_key[(name, "scalar")] / by_key[(name, "batch")]
        assert speedup >= 2.0, (
            f"{name} batch speedup {speedup:.1f}x at {longest} elements is "
            "below 2x"
        )

    # Paper shape: OPTWIN's amortised cost stays flat (O(1)) as the stream and
    # window grow — the cost at the longest stream is within a small factor of
    # the cost at the shortest one.
    optwin_costs = {
        m.n_elements: m.seconds_per_element
        for m in measurements
        if m.detector_name.startswith("OPTWIN") and m.mode == "scalar"
    }
    shortest, longest = min(optwin_costs), max(optwin_costs)
    assert optwin_costs[longest] < optwin_costs[shortest] * 5

    # The vectorised engine must beat the scalar loop substantially.
    optwin_batch = [
        m.seconds_per_element
        for m in measurements
        if m.detector_name.startswith("OPTWIN") and m.mode == "batch"
        and m.n_elements == longest
    ]
    optwin_scalar = optwin_costs[longest]
    if optwin_batch:
        assert optwin_batch[0] * 5 < optwin_scalar

    memory = Optwin(w_max=25_000).memory_bytes()
    report(
        "memory_footprint",
        f"OPTWIN estimated memory at w_max=25000: {memory / 1024:.0f} KiB "
        "(paper quotes ~390 KB)",
    )
    assert memory < 2 * 1024 * 1024


def test_optwin_update_throughput(benchmark):
    """Micro-benchmark: single update call in steady state (warm tables)."""
    import numpy as np

    detector = Optwin(rho=0.5, w_max=25_000)
    values = (np.random.default_rng(1).random(5_000) < 0.3).astype(float)
    detector.update_many(values)  # warm the window and the cut table
    index = {"value": 0}

    def one_update():
        index["value"] = (index["value"] + 1) % len(values)
        detector.update(values[index["value"]])

    benchmark(one_update)


def test_optwin_batch_throughput(benchmark):
    """Micro-benchmark: one 4096-element update_batch call in steady state."""
    import numpy as np

    detector = Optwin(rho=0.5, w_max=25_000)
    detector.precompute_tables()
    values = (np.random.default_rng(1).random(25_000) < 0.3).astype(float)
    detector.update_many(values)  # warm the window
    chunk = (np.random.default_rng(2).random(4_096) < 0.3).astype(float)

    def one_batch():
        detector.update_batch(chunk)

    benchmark(one_batch)
