"""Load generator process of the wire benchmark.

One process, one thread, at most one connection.  Every request line is
encoded from ``--seed`` before the first command arrives; the timed phase only
writes pre-built bytes and timestamps.  The orchestrator (``run.py``) drives
this process over stdin, one command per line:

``setup PORT``
    connect, register the fleet, send one warm-up round (both pipelined);
    answer ``SETUP_DONE``.
``close``
    drop the connection (the orchestrator discards that server).
``run``
    run the timed phase, write the result JSON to ``--result``, answer
    ``DONE`` and exit.

Closed loop: one ``ingest`` in flight, latency = write start -> response read.
Open loop: a selector loop sends each slot when it is due, whatever the backlog,
and latency = due time -> response read; how late the generator itself ran
(send time - due time) is reported beside it.  Timestamps are
``time.perf_counter`` (CLOCK_MONOTONIC on Linux), the clock the traced
server's spans use.
"""

from __future__ import annotations

import argparse
import gc
import json
import selectors
import socket
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from workloads import (
    WORKLOADS,
    Streams,
    Workload,
    ingest_line,
    observe_line,
    read_line,
    register_lines,
    tail_index,
)

#: Seconds an open-loop step waits for its backlog after the last due slot.
DRAIN_TIMEOUT = 30.0
#: Socket timeout of a blocking request; a server that stays silent this
#: long fails the run.
REQUEST_TIMEOUT = 120.0


def say(message: str) -> None:
    sys.stdout.write(message + "\n")
    sys.stdout.flush()


class Plan:
    """Every request line of one run, encoded before the timed phase."""

    def __init__(self, workload: Workload, seed: int, seconds: float) -> None:
        self.workload = workload
        fleet = workload.fleet()
        self.index = {(t, m): i for i, (t, m, _, _) in enumerate(fleet)}
        streams = Streams(workload, seed)
        self.register = register_lines(workload)
        block = workload.block
        if workload.loop == "closed":
            self.ring = [
                ingest_line(workload, streams, fleet, k)
                for k in range(workload.period // block)
            ]
            self.warmup = [self.ring[0]]
            return
        params = workload.params
        self.warmup = [
            observe_line(workload, streams, fleet, i, 0) for i in range(len(fleet))
        ]
        # One long slot sequence; each rate step consumes the next
        # rate * duration slots of it, whatever rates the search picks.
        top = params["start_rate"] * 2 ** (params["max_steps"] - 1)
        n_slots = int(
            step_seconds(seconds, 0) * params["start_rate"]
            + sum(step_seconds(seconds, 1) * params["start_rate"] * 2**k for k in range(1, params["max_steps"]))
            + params["refine_steps"] * step_seconds(seconds, 1) * top
        )
        rng = np.random.default_rng(seed)
        cursor = [block] * len(fleet)
        self.lines: List[bytes] = []
        self.meta: List[Tuple[str, int]] = []
        for slot in range(n_slots):
            monitor = int(rng.integers(len(fleet)))
            if slot % params["read_every"] == params["read_every"] - 1:
                reads = params["reads"]
                kind = reads[(slot // params["read_every"]) % len(reads)]
                self.lines.append(read_line(fleet, kind, monitor))
            else:
                kind = "observe"
                self.lines.append(observe_line(workload, streams, fleet, monitor, cursor[monitor]))
                cursor[monitor] += block
            self.meta.append((kind, monitor))


def step_seconds(seconds: float, step: int) -> float:
    """Open loop: the first step, whose latencies are the reported ones, gets
    40% of ``--seconds``; every later step 20%."""
    return seconds * (0.4 if step == 0 else 0.2)


class Client:
    """One TCP connection: blocking calls, plus an open-loop selector pump."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=REQUEST_TIMEOUT)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def call(self, line: bytes) -> Tuple[float, float, bytes]:
        """Send one line, wait for its answer; ``(write start, read end, raw)``."""
        started = time.perf_counter()
        self.sock.sendall(line)
        raw = self.reader.readline()
        finished = time.perf_counter()
        if not raw.endswith(b"\n"):
            raise ConnectionError("server closed the connection")
        return started, finished, raw

    def pump(
        self, lines: List[bytes], due: List[float]
    ) -> Tuple[List[float], List[float], List[Optional[bytes]]]:
        """Send ``lines[j]`` at ``due[j]`` regardless of answers; collect them.

        Returns per slot the send time, the answer time (0.0 if none came
        within the drain timeout) and the raw answer.
        """
        n = len(lines)
        sent = [0.0] * n
        answered = [0.0] * n
        raw: List[Optional[bytes]] = [None] * n
        self.sock.setblocking(False)
        selector = selectors.DefaultSelector()
        selector.register(self.sock, selectors.EVENT_READ)
        out = bytearray()
        pending = b""
        nxt = got = 0
        writing = False
        deadline = due[-1] + DRAIN_TIMEOUT
        try:
            while got < n:
                now = time.perf_counter()
                if now > deadline:
                    break
                while nxt < n and due[nxt] <= now:
                    out += lines[nxt]
                    sent[nxt] = now
                    nxt += 1
                if out:
                    try:
                        del out[: self.sock.send(out)]
                    except BlockingIOError:
                        pass
                if bool(out) != writing:
                    writing = bool(out)
                    mask = selectors.EVENT_READ | (selectors.EVENT_WRITE if writing else 0)
                    selector.modify(self.sock, mask)
                timeout = due[nxt] - time.perf_counter() if nxt < n else 0.05
                for _, mask in selector.select(max(timeout, 0.0)):
                    if not mask & selectors.EVENT_READ:
                        continue
                    data = self.sock.recv(1 << 20)
                    stamp = time.perf_counter()
                    if not data:
                        raise ConnectionError("server closed the connection")
                    *complete, pending = (pending + data).split(b"\n")
                    for line in complete:
                        raw[got] = line
                        answered[got] = stamp
                        got += 1
        finally:
            selector.close()
            self.sock.setblocking(True)
            self.sock.settimeout(REQUEST_TIMEOUT)
        return sent, answered, raw

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class Detections:
    """Drift/warning positions per monitor, parsed from the server's answers."""

    def __init__(self, plan: Plan) -> None:
        self.index = plan.index
        n = len(plan.index)
        self.drifts: List[List[int]] = [[] for _ in range(n)]
        self.warnings: List[List[int]] = [[] for _ in range(n)]
        self.n_values = [0] * n
        self.errors: List[str] = []

    def add(self, raw: Optional[bytes]) -> bool:
        """Record one answer; False when it is missing or not ``ok``."""
        if raw is None:
            return False
        answer = json.loads(raw)
        if not answer.get("ok"):
            if len(self.errors) < 5:
                self.errors.append(str(answer.get("error")))
            return False
        outcomes = answer.get("results")
        if outcomes is None and "drifts" in answer:
            outcomes = [answer]
        for outcome in outcomes or ():
            i = self.index[(outcome["tenant"], outcome["monitor"])]
            self.drifts[i].extend(outcome["drifts"])
            self.warnings[i].extend(outcome["warnings"])
            self.n_values[i] += outcome["n"]
        return True


def setup(client: Client, plan: Plan) -> Detections:
    """Register the fleet and send the warm-up round, each pipelined."""
    detections = Detections(plan)
    for lines in (plan.register, plan.warmup):
        _, _, raws = client.pump(lines, [time.perf_counter()] * len(lines))
        for raw in raws:
            if not detections.add(raw):
                raise RuntimeError(f"set-up request failed: {detections.errors}")
    return detections


def closed_phase(client: Client, plan: Plan, seconds: float) -> Dict[str, Any]:
    ring, cycle = plan.ring, plan.workload.cycle
    stamps: List[Tuple[float, float]] = []
    raws: List[bytes] = []
    started = time.perf_counter()
    give_up = started + 3 * seconds + 60
    k = 0
    while True:
        k += 1  # block 0 was the warm-up
        t_write, t_read, raw = client.call(ring[k % len(ring)])
        stamps.append((t_write, t_read))
        raws.append(raw)
        now = time.perf_counter()
        if (now - started >= seconds and k % cycle == 0) or now > give_up:
            break
    return {
        "kinds": ["ingest"] * len(raws),
        "start": [s[0] for s in stamps],
        "sent": [s[0] for s in stamps],
        "read": [s[1] for s in stamps],
        "raw": raws,
        "window": [stamps[0][0], stamps[-1][1]],
    }


def open_step(client: Client, plan: Plan, first: int, rate: float, duration: float) -> Dict[str, Any]:
    """Offer ``rate`` req/s for ``duration`` s from slot ``first`` on; judge the limit."""
    params = plan.workload.params
    lines = plan.lines[first : first + int(round(rate * duration))]
    start = time.perf_counter() + 0.05
    due = [start + j / rate for j in range(len(lines))]
    sent, answered, raw = client.pump(lines, due)
    ok = [r is not None and r.startswith(b'{"ok":true') for r in raw]
    latency = [a - d for a, d in zip(answered, due)]
    good = sorted(x for x, g in zip(latency, ok) if g)
    lag = sorted(s - d for s, d in zip(sent, due))
    quarter = max(len(lines) // 4, 1)
    first_q = float(np.median(latency[:quarter]))
    last_q = float(np.median(latency[-quarter:]))
    tail = good[tail_index(len(good))] if good else float("inf")
    # Limit: the tail percentile within limit_ms, and no growing backlog
    # (the last quarter's median wait not above twice the first's + 5 ms).
    met = all(ok) and tail <= params["limit_ms"] / 1e3 and last_q <= 2 * first_q + 0.005
    return {
        "rate": rate,
        "n": len(lines),
        "n_failed": ok.count(False),
        "p50_ms": 1e3 * good[len(good) // 2] if good else float("inf"),
        "tail_ms": 1e3 * tail,
        "tail_pct": round(100.0 * (tail_index(len(good)) + 1) / max(len(good), 1), 2),
        "backlog_first_ms": 1e3 * first_q,
        "backlog_last_ms": 1e3 * last_q,
        "lag_p50_ms": 1e3 * lag[len(lag) // 2],
        "lag_max_ms": 1e3 * lag[-1],
        "completed_rps": len(lines) / (max(answered) - due[0]) if all(ok) else 0.0,
        "met": met,
        "_timing": (due, sent, answered, raw),
    }


def open_phase(client: Client, plan: Plan, seconds: float) -> Dict[str, Any]:
    """Rates double from ``start_rate`` until a step misses the limit, then
    ``refine_steps`` bisection steps narrow the highest rate that meets it."""
    params = plan.workload.params
    steps: List[Dict[str, Any]] = []
    slot = 0

    def offer(rate: float) -> bool:
        nonlocal slot
        step = open_step(client, plan, slot, rate, step_seconds(seconds, len(steps)))
        slot += step["n"]
        steps.append(step)
        return step["met"]

    met_rate, missed_rate = 0.0, None
    for k in range(params["max_steps"]):
        rate = float(params["start_rate"] * 2**k)
        if not offer(rate):
            missed_rate = rate
            break
        met_rate = rate
    if met_rate and missed_rate:
        for _ in range(params["refine_steps"]):
            rate = (met_rate + missed_rate) / 2
            if offer(rate):
                met_rate = rate
            else:
                missed_rate = rate
    timing = [step.pop("_timing") for step in steps]
    return {
        "kinds": [kind for kind, _ in plan.meta[:slot]],
        "start": [t for due, _, _, _ in timing for t in due],
        "sent": [t for _, sent, _, _ in timing for t in sent],
        "read": [t for _, _, answered, _ in timing for t in answered],
        "raw": [r for _, _, _, raw in timing for r in raw],
        "steps": steps,
        "window": [timing[0][0][0], max(t for _, _, answered, _ in timing for t in answered)],
    }


def run(
    client: Client, plan: Plan, detections: Detections, args: argparse.Namespace
) -> Dict[str, Any]:
    """The timed phase, then the post-phase ``stats`` read and answer parsing."""
    metrics_before = metrics_after = None
    if args.metrics:
        metrics_before = json.loads(client.call(b'{"op":"metrics"}\n')[2])["metrics"]
    if plan.workload.loop == "closed":
        phase = closed_phase(client, plan, args.seconds)
    else:
        phase = open_phase(client, plan, args.seconds)
    if args.metrics:
        metrics_after = json.loads(client.call(b'{"op":"metrics"}\n')[2])["metrics"]
    stats = json.loads(client.call(b'{"op":"stats"}\n')[2])["stats"]
    raws = phase.pop("raw")
    phase["ok"] = [detections.add(raw) for raw in raws]
    block = plan.workload.block
    if plan.workload.loop == "closed":
        sent_values = [block * (1 + len(raws))] * len(plan.index)
    else:
        sent_values = [block] * len(plan.index)
        for kind, monitor in plan.meta[: len(raws)]:
            if kind == "observe":
                sent_values[monitor] += block
    return {
        **phase,
        "sent_values": sent_values,
        "n_values": detections.n_values,
        "drifts": detections.drifts,
        "warnings": detections.warnings,
        "errors": detections.errors,
        "stats_n_events": stats["n_events"],
        "metrics_before": metrics_before,
        "metrics_after": metrics_after,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument(
        "--metrics", action="store_true",
        help="query the metrics op right before and after the timed phase",
    )
    args = parser.parse_args()
    plan = Plan(WORKLOADS[args.workload], args.seed, args.seconds)
    # The plan is immutable from here on; keep the collector from rescanning
    # it in the middle of a timed step.
    gc.collect()
    gc.freeze()
    say("ENCODED")
    client: Optional[Client] = None
    detections: Optional[Detections] = None
    for command in sys.stdin:
        verb, *rest = command.split()
        if verb == "setup":
            client = Client(int(rest[0]))
            detections = setup(client, plan)
            say("SETUP_DONE")
        elif verb == "close" and client is not None:
            client.close()
            client = None
        elif verb == "run" and client is not None and detections is not None:
            result = run(client, plan, detections, args)
            client.close()
            Path(args.result).write_text(json.dumps(result))
            say("DONE")
            return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
