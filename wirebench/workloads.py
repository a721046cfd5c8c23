"""Workload definitions of the socket-to-sink serving benchmark.

A workload fixes the server's command line, the monitor fleet registered over
the wire, and the traffic the load generator sends.  Every monitor consumes
one infinite, periodic error stream derived from the run's ``--seed``: the
first ``n`` values monitor ``i`` received over the wire are always
``Streams(workload, seed).values(i, 0, n)``, which is what lets the
correctness gate rebuild the exact input of every monitor after the run.

Why each workload exists is recorded next to its definition (``why``), and
``BENCHMARK.json`` repeats it in one line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serving.snapshot import build_detector
from repro.streams.error_streams import BinarySegment, binary_error_stream

#: Error rate alternates 0.1 <-> 0.55 every 1024 values (period 2048).
SEGMENT = 1024
RATES = (0.1, 0.55)
#: Distinct base streams per run; monitor ``m`` reads base ``m % N_BASE``
#: rotated by a monitor-specific offset, so neighbours drift out of phase.
N_BASE = 16

FleetEntry = Tuple[str, Optional[Dict[str, Any]]]
Fleet = List[Tuple[str, str, str, Optional[Dict[str, Any]]]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Detector mix, cycled over the fleet in registration order.
    mix: Tuple[FleetEntry, ...]
    n_monitors: int
    #: ``"closed"``: one ``ingest`` in flight at a time; ``"open"``: ``observe``
    #: slots on a fixed schedule regardless of how fast answers come back.
    loop: str
    #: Values per monitor per request (closed) or per ``observe`` (open).
    block: int
    #: Length of each monitor's stream period, a multiple of 2 * SEGMENT and
    #: of ``block``; closed loops cycle ``period / block`` pre-encoded lines.
    period: int
    server_args: Tuple[str, ...] = ()
    shards: int = 0
    #: Closed loop: the timed phase ends on a multiple of this many requests
    #: (one checkpoint period), so every run holds whole checkpoint cycles.
    cycle: int = 1
    params: Dict[str, Any] = field(default_factory=dict)

    def fleet(self) -> Fleet:
        """``(tenant, monitor_id, detector, params)`` in registration order."""
        return [
            (f"t{i % 10}", f"m{i:04d}", *self.mix[i % len(self.mix)])
            for i in range(self.n_monitors)
        ]

    def record(self) -> Dict[str, Any]:
        """Workload parameters as recorded in every run record."""
        return {
            "mix": [[name, params] for name, params in self.mix],
            "n_monitors": self.n_monitors,
            "loop": self.loop,
            "block": self.block,
            "period": self.period,
            "server_args": list(self.server_args),
            "shards": self.shards,
            **self.params,
        }


_CLOSED_FORM_MIX: Tuple[FleetEntry, ...] = (
    ("DDM", None),
    ("HddmA", None),
    ("STEPD", None),
    ("EDDM", None),
    ("OPTWIN", {"w_max": 5000}),
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="wire-ingest-bulk",
            why=(
                "Headline throughput path: ~0.5 MB ingest lines (wire decode), "
                "hub routing/coalescing, the batched closed-form detectors and "
                "periodic checkpoints carry the load; the WAL commits once per "
                "128k values, so it does little here."
            ),
            mix=_CLOSED_FORM_MIX,
            n_monitors=1000,
            loop="closed",
            block=128,
            period=4096,
            server_args=("--checkpoint-every", "4096000"),
            # 1000 monitors x 128 values = 128 000 values per request, so one
            # checkpoint fires every 32 requests (the warm-up counts).
            cycle=32,
        ),
        Workload(
            name="wire-observe-open",
            why=(
                "Independent producers sending small requests: per-request cost "
                "decides (event-loop/executor hop, tiny-line JSON, dispatch, one "
                "WAL commit per request); reads share the dispatch thread; the "
                "detectors do almost nothing."
            ),
            mix=_CLOSED_FORM_MIX[:4],
            n_monitors=200,
            loop="open",
            block=8,
            period=4096,
            params={
                "start_rate": 250,
                "max_steps": 5,
                "refine_steps": 3,
                "tail_windows": 5,
                "read_every": 20,
                "reads": ["stats", "alerts", "metrics"],
                "limit_ms": 100.0,
            },
        ),
        Workload(
            name="sharded-detector-heavy",
            why=(
                "Sequential detectors dominate: ADWIN and KSWIN update_batch take "
                "about half the detector time each, behind the 2-shard fan-out "
                "and shm transport; wire codec cost is negligible."
            ),
            mix=(("ADWIN", None),) * 6 + (("KSWIN", None), ("OPTWIN", {"w_max": 25000})),
            n_monitors=64,
            loop="closed",
            block=1024,
            period=16384,
            server_args=("--transport", "shm"),
            shards=2,
        ),
    )
}


def base_streams(seed: int, n_base: int, period: int) -> np.ndarray:
    """``n_base`` Bernoulli error streams of ``period`` values each."""
    segments = [
        BinarySegment(SEGMENT, RATES[k % 2]) for k in range(period // SEGMENT)
    ]
    return np.stack(
        [
            binary_error_stream(segments, seed=seed * 1000 + b).values
            for b in range(n_base)
        ]
    )


class Streams:
    """The periodic per-monitor value streams of one workload and seed."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self._period = workload.period
        self._base = base_streams(seed, N_BASE, workload.period)

    def values(self, monitor: int, start: int, n: int) -> np.ndarray:
        """Values ``[start, start + n)`` of monitor ``monitor``'s stream.

        The period is a multiple of the 2048-value rate cycle, so rotating a
        base stream by any offset keeps the 1024-value alternation intact.
        """
        offset = (monitor * 1031) % self._period
        index = (offset + start + np.arange(n)) % self._period
        return self._base[monitor % N_BASE][index]


def tail_index(n: int) -> int:
    """Index into ``n`` sorted samples of the highest percentile with at least
    ten samples beyond it (never below the median, for small samples)."""
    return max(n - 11, n // 2)


def encode(request: Dict[str, Any]) -> bytes:
    return (json.dumps(request, separators=(",", ":")) + "\n").encode()


def register_lines(workload: Workload) -> List[bytes]:
    return [
        encode(
            {
                "op": "register",
                "tenant": tenant,
                "monitor": monitor,
                "detector": detector,
                "params": params,
            }
        )
        for tenant, monitor, detector, params in workload.fleet()
    ]


def ingest_line(workload: Workload, streams: Streams, fleet: Fleet, k: int) -> bytes:
    """The closed-loop request that carries block ``k`` of every monitor."""
    events = [
        [tenant, monitor, streams.values(i, k * workload.block, workload.block).tolist()]
        for i, (tenant, monitor, _, _) in enumerate(fleet)
    ]
    return encode({"op": "ingest", "events": events})


def observe_line(
    workload: Workload, streams: Streams, fleet: Fleet, monitor: int, start: int
) -> bytes:
    tenant, monitor_id, _, _ = fleet[monitor]
    values = streams.values(monitor, start, workload.block).tolist()
    return encode(
        {"op": "observe", "tenant": tenant, "monitor": monitor_id, "values": values}
    )


def read_line(fleet: Fleet, kind: str, monitor: int) -> bytes:
    """A read op: ``stats`` of one monitor, or hub-wide ``alerts``/``metrics``."""
    if kind == "stats":
        tenant, monitor_id, _, _ = fleet[monitor]
        return encode({"op": "stats", "tenant": tenant, "monitor": monitor_id})
    return encode({"op": kind})


def reference_detections(
    workload: Workload, seed: int, n_values: Sequence[int], first: int = 0, stride: int = 1
) -> Dict[int, Tuple[List[int], List[int]]]:
    """Drift and warning positions of fresh detectors fed each monitor's input.

    Monitors ``first, first + stride, ...`` only, so the check can be split
    across processes.
    """
    streams = Streams(workload, seed)
    fleet = workload.fleet()
    out: Dict[int, Tuple[List[int], List[int]]] = {}
    for i in range(first, len(fleet), stride):
        _, _, detector, params = fleet[i]
        batch = build_detector(detector, params).update_batch(
            streams.values(i, 0, n_values[i])
        )
        out[i] = ([int(x) for x in batch.drift_indices], [int(x) for x in batch.warning_indices])
    return out
