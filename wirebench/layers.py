"""Per-layer metrics of a traced run.

Inputs are the load generator's per-request timestamps, the spans
``traced_server.py`` recorded around each layer's public entry points, and, on
a sharded server, the ``metrics`` op read right before and after the timed
phase (forked shard workers cannot hand wrapper spans back, so the
worker-side split comes from the per-shard ``detector_update`` histograms and
WAL counters the program already exports).

A metric whose layer is not on a workload's path reads 0: no checkpoints on
``wire-observe-open``, no ``sharded.*`` on the single-process workloads, and
no worker-side ``hub.self_s`` / ``wal.append_s`` / ``sink.emit_s`` on
``sharded-detector-heavy``.
"""

from __future__ import annotations

from statistics import median
from typing import Any, Dict, List, Tuple

from workloads import Workload

DETECTORS = ("Ddm", "HddmA", "Stepd", "Eddm", "Optwin", "Adwin", "Kswin")
N_SHARDS = 2

#: Every per-layer metric, in print order: name -> unit.
PER_LAYER: Dict[str, str] = {
    "server.pre_ms": "ms",
    "server.post_ms": "ms",
    "server.self_share": "ratio",
    "hub.self_s": "s",
    "hub.read_ms": "ms",
    "hub.calls.ingest": "count",
    "hub.calls.observe": "count",
    "hub.calls.read": "count",
    **{f"detector.{d}.us_per_value": "us/value" for d in DETECTORS},
    "detector.busy_s": "s",
    "wal.commit_s": "s",
    "wal.commits": "count",
    "wal.append_s": "s",
    "wal.records": "count",
    "wal.bytes": "bytes",
    "sink.emit_s": "s",
    "sink.alerts": "count",
    "sink.alerts_per_mvalue": "1/Mvalue",
    "snapshot.checkpoint_s": "s",
    "snapshot.checkpoints": "count",
    "sharded.ingest_s": "s",
    **{f"sharded.worker_update_s.shard{i}": "s" for i in range(N_SHARDS)},
    "sharded.skew": "ratio",
    "sharded.wait_s": "s",
    "sharded.transport_fallbacks": "count",
    "trace.overhead_share": "ratio",
}

TOP_OPS = {
    "hub.ingest": "ingest",
    "sharded.ingest": "ingest",
    "hub.observe": "observe",
    "hub.stats": "read",
    "hub.metrics": "read",
    "hub.alerts": "read",
}
#: Children subtracted from a hub op to get the hub's self time.
CHILD_LAYERS = ("detector.", "wal.", "sink.", "snapshot.")

Span = List[Any]  # [name, start, end, parent, seq, n]


def per_layer(
    workload: Workload,
    result: Dict[str, Any],
    spans: List[Span],
    overhead_share: float,
) -> Dict[str, float]:
    """Every metric of :data:`PER_LAYER` for one traced run."""
    m = {name: 0.0 for name in PER_LAYER}
    m["trace.overhead_share"] = overhead_share
    first, last = result["window"]
    top = sorted(
        (i for i, s in enumerate(spans) if s[3] < 0 and s[0] in TOP_OPS and first <= s[1] <= last),
        key=lambda i: spans[i][1],
    )
    sent, read = result["sent"], result["read"]
    if len(top) != len(sent):
        raise ValueError(
            f"{len(top)} top-level hub ops in the timed window for {len(sent)} requests"
        )
    pre, post, lat, inside = [], [], 0.0, 0.0
    for i, t_sent, t_read in zip(top, sent, read):
        name, start, end = spans[i][:3]
        if not t_sent <= start <= end <= t_read:
            raise ValueError(f"span {name} does not nest in its request's wire time")
        pre.append(start - t_sent)
        post.append(t_read - end)
        lat += t_read - t_sent
        inside += end - start
    m["server.pre_ms"] = 1e3 * median(pre)
    m["server.post_ms"] = 1e3 * median(post)
    m["server.self_share"] = (lat - inside) / lat

    top_set = set(top)
    in_window = [s for s in spans if first <= s[1] <= last]
    child_time: Dict[int, float] = {}
    for s in in_window:
        if s[3] in top_set and s[0].startswith(CHILD_LAYERS):
            child_time[s[3]] = child_time.get(s[3], 0.0) + s[2] - s[1]
    reads = []
    for i in top:
        name, start, end = spans[i][:3]
        kind = TOP_OPS[name]
        m[f"hub.calls.{kind}"] += 1
        if kind == "read":
            reads.append(end - start)
        if name != "sharded.ingest":
            m["hub.self_s"] += end - start - child_time.get(i, 0.0)
    m["hub.read_ms"] = 1e3 * median(reads) if reads else 0.0

    busy: Dict[str, List[float]] = {}
    for name, start, end, _, _, n in in_window:
        elapsed = end - start
        if name.startswith("detector."):
            acc = busy.setdefault(name.split(".")[1], [0.0, 0])
            acc[0] += elapsed
            acc[1] += n
        elif name == "wal.commit":
            m["wal.commit_s"] += elapsed
            m["wal.commits"] += 1
        elif name.startswith("wal.append"):
            m["wal.append_s"] += elapsed
            m["wal.records"] += 1
        elif name == "sink.emit":
            m["sink.emit_s"] += elapsed
            m["sink.alerts"] += 1
        elif name == "snapshot.checkpoint":
            m["snapshot.checkpoint_s"] += elapsed
            m["snapshot.checkpoints"] += 1
        elif name == "sharded.ingest":
            m["sharded.ingest_s"] += elapsed
    for cls, (seconds, n) in busy.items():
        m[f"detector.{cls}.us_per_value"] = 1e6 * seconds / n
        m["detector.busy_s"] += seconds

    before, after = result["metrics_before"], result["metrics_after"]
    if workload.shards:
        _sharded(workload, m, before, after, len(sent))
    else:
        m["wal.bytes"] = after["wal"]["bytes_written"] - before["wal"]["bytes_written"]
    n_values = sum(result["n_values"]) - workload.block * workload.n_monitors
    m["sink.alerts_per_mvalue"] = m["sink.alerts"] / (n_values / 1e6)
    return m


def _sharded(
    workload: Workload,
    m: Dict[str, float],
    before: Dict[str, Any],
    after: Dict[str, Any],
    n_requests: int,
) -> None:
    """Worker-side split from the per-shard ``metrics`` the workers export."""
    from repro.serving.sharded import default_slot_assignment, route_slot

    assignment = default_slot_assignment(workload.shards)
    per_shard: Dict[Tuple[int, str], int] = {}
    for tenant, monitor, detector, _ in workload.fleet():
        key = (assignment[route_slot(tenant, monitor)], detector.lower())
        per_shard[key] = per_shard.get(key, 0) + 1
    class_time: Dict[str, List[float]] = {}
    shard_seconds = []
    wal_seconds = 0.0
    for shard, (b, a) in enumerate(zip(before["shards"], after["shards"])):
        seconds = 0.0
        for cls, hist in a["detector_update"]["classes"].items():
            old = b["detector_update"]["classes"].get(cls, {"sum": 0.0, "count": 0})
            d_sum, d_count = hist["sum"] - old["sum"], hist["count"] - old["count"]
            if d_count <= 0:
                continue
            # The hub times one update in eight per monitor; scale the mean
            # sampled call to every call this shard made in the window.
            calls = per_shard.get((shard, cls.lower()), 0) * n_requests
            seconds += d_sum / d_count * calls
            acc = class_time.setdefault(cls, [0.0, 0.0])
            acc[0] += d_sum
            acc[1] += d_count * workload.block
        shard_seconds.append(seconds)
        m[f"sharded.worker_update_s.shard{shard}"] = seconds
        wa, wb = a["wal"], b["wal"]
        m["wal.records"] += wa["n_appends"] - wb["n_appends"]
        m["wal.bytes"] += wa["bytes_written"] - wb["bytes_written"]
        m["sink.alerts"] += wa["n_alerts"] - wb["n_alerts"]
        # The WAL keeps fsync latency as a windowed summary: its mean times
        # the commits made in the window estimates the commit time.
        commits = wa["fsync_latency_ms"]["n_total"] - wb["fsync_latency_ms"]["n_total"]
        m["wal.commits"] += commits
        wal_seconds += commits * wa["fsync_latency_ms"]["mean"] / 1e3
    for cls, (seconds, values) in class_time.items():
        m[f"detector.{cls}.us_per_value"] = 1e6 * seconds / values
    m["detector.busy_s"] = sum(shard_seconds)
    m["wal.commit_s"] = wal_seconds
    slowest = max(shard_seconds)
    m["sharded.skew"] = slowest / (sum(shard_seconds) / len(shard_seconds))
    m["sharded.wait_s"] = m["sharded.ingest_s"] - slowest
    m["sharded.transport_fallbacks"] = (
        after["n_transport_fallbacks"] - before["n_transport_fallbacks"]
    )


def overhead(workload: Workload, untraced: Dict[str, float], traced: Dict[str, float]) -> float:
    """Tracing cost: throughput lost (closed loop) or p50 latency added (open)."""
    if workload.loop == "closed":
        return untraced["events_per_s"] / traced["events_per_s"] - 1.0
    return traced["request_p50_ms"] / untraced["request_p50_ms"] - 1.0
