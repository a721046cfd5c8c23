"""Socket-to-sink serving benchmark.

Spawns the real server (``python -m repro.serving``) and drives it over TCP
from a separate load-generator process (``loadgen.py``), on one of the
workloads defined in ``workloads.py``.  Run from the repository root::

    python3 wirebench/run.py --workload wire-ingest-bulk --seed 1 --seconds 15 --trace 0
    python3 wirebench/run.py --workload all --seed 1 --seconds 15 --trace 1

``--trace 0`` measures the end-to-end metrics (median of several set-ups,
then one timed phase).  ``--trace 1`` runs the workload twice, untraced and
under ``traced_server.py``, and reports the per-layer metrics of the traced
run plus the tracing overhead.  Every run gets a fresh server and a fresh
generator process, and checks what came back over the wire against fresh
in-process detectors fed the same values; a mismatch fails the run (exit 1).

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it (``RECORD ...``) carries the
run's host, git and workload metadata.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import select
import shutil
import signal
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional, Sequence

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".wirebench_work"

#: Server set-ups per untraced run; ``setup_s`` is their median.
N_SETUPS = 5
#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "events_per_s": "values/s",
    "request_p50_ms": "ms",
    "request_tail_ms": "ms",
    "max_rate_rps": "req/s",
    "peak_rss_mb": "MiB",
}


class Child:
    """A child process whose stdout is read line by line with deadlines."""

    def __init__(self, argv: Sequence[str], stderr: Any = None, stdin: bool = False) -> None:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
        self.proc = subprocess.Popen(
            list(argv),
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=stderr,
        )
        self.name = " ".join(Path(arg).name for arg in argv[1:3])
        self._buffer = b""

    def expect(self, prefix: str, timeout: float) -> str:
        """Wait for the next stdout line starting with ``prefix``."""
        deadline = time.monotonic() + timeout
        assert self.proc.stdout is not None
        fd = self.proc.stdout.fileno()
        while True:
            while b"\n" in self._buffer:
                line, self._buffer = self._buffer.split(b"\n", 1)
                text = line.decode(errors="replace")
                if text.startswith(prefix):
                    return text
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"no {prefix!r} line from {self.name}")
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise RuntimeError(
                        f"{self.name} exited ({self.proc.wait()}) before {prefix!r}"
                    )
                self._buffer += chunk

    def send(self, command: str) -> None:
        assert self.proc.stdin is not None
        self.proc.stdin.write(command.encode() + b"\n")
        self.proc.stdin.flush()

    def stop(self, timeout: float = 120.0) -> None:
        """SIGTERM, wait; SIGKILL if it does not end in time."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                stream.close()


def descendants(pid: int) -> List[int]:
    found: List[int] = []
    stack = [pid]
    while stack:
        parent = stack.pop()
        for task in Path(f"/proc/{parent}/task").glob("*"):
            try:
                children = (task / "children").read_text().split()
            except OSError:
                continue
            for child in map(int, children):
                found.append(child)
                stack.append(child)
    return found


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Sum of each process's peak resident set (``VmHWM``), in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def become_subreaper() -> None:
    """Have orphaned descendants (e.g. a server's helper processes) reparented
    to this process, so ``end_descendants`` can wait for them (Linux only)."""
    pr_set_child_subreaper = 36
    with contextlib.suppress(OSError, AttributeError):
        ctypes.CDLL(None, use_errno=True).prctl(pr_set_child_subreaper, 1, 0, 0, 0)


def end_descendants() -> None:
    """Stop every process this one started, directly or not, and reap it."""
    for _ in range(3):
        live = [pid for pid in descendants(os.getpid()) if running(pid)]
        if not live:
            break
        for pid in live:
            with contextlib.suppress(OSError):
                os.kill(pid, signal.SIGTERM)
        wait_gone(live, timeout=10.0)
    while True:
        try:
            if os.waitpid(-1, os.WNOHANG)[0] == 0:
                break
        except ChildProcessError:
            break


def on_sigterm(signum: int, frame: Any) -> None:
    # Unwind through every ``finally`` so the children are stopped.
    raise SystemExit(128 + signum)


def running(pid: int) -> bool:
    """Whether ``pid`` exists and has not exited (zombies count as ended)."""
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")


def wait_gone(pids: Sequence[int], timeout: float = 30.0) -> None:
    """Wait until processes that outlived their parent have ended."""
    deadline = time.monotonic() + timeout
    for pid in pids:
        while running(pid):
            if time.monotonic() > deadline:
                with contextlib.suppress(OSError):
                    os.kill(pid, signal.SIGKILL)
                deadline += 5.0
            time.sleep(0.05)


def server_argv(workload: Any, directory: Path, spans: Optional[Path]) -> List[str]:
    args = ["--port", "0", "--wal-dir", str(directory / "wal"), *workload.server_args]
    if "--checkpoint-every" in workload.server_args:
        args += ["--checkpoint-dir", str(directory / "checkpoints")]
    if workload.shards:
        args += ["--shards", str(workload.shards)]
    if spans is None:
        return [sys.executable, "-m", "repro.serving", *args]
    return [sys.executable, str(BENCH / "traced_server.py"), "--spans-out", str(spans), "--", *args]


def phase(
    workload: Any, seed: int, seconds: float, work: Path, traced: bool, n_setups: int
) -> Dict[str, Any]:
    """Fresh generator; ``n_setups`` fresh servers, the last one timed."""
    work.mkdir(parents=True)
    result_path = work / "loadgen.json"
    spans_path = work / "spans.json" if traced else None
    gen_argv = [
        sys.executable, str(BENCH / "loadgen.py"),
        "--workload", workload.name, "--seed", str(seed), "--seconds", str(seconds),
        "--result", str(result_path),
    ] + (["--metrics"] if traced else [])
    gen = Child(gen_argv, stdin=True)
    server: Optional[Child] = None
    workers: List[int] = []
    setups: List[float] = []
    try:
        gen.expect("ENCODED", 300)
        for rep in range(n_setups):
            directory = work / f"server{rep}"
            log = open(work / f"server{rep}.log", "wb")
            started = time.perf_counter()
            server = Child(server_argv(workload, directory, spans_path), stderr=log)
            log.close()
            port = server.expect("READY", 120).split("port=")[1].split()[0]
            gen.send(f"setup {port}")
            gen.expect("SETUP_DONE", 300)
            setups.append(time.perf_counter() - started)
            if rep < n_setups - 1:
                gen.send("close")
                workers = descendants(server.proc.pid)
                server.stop()
                wait_gone(workers)
                shutil.rmtree(directory)
        gen.send("run")
        gen.expect("DONE", 4 * seconds + 300)
        assert server is not None
        workers = descendants(server.proc.pid)
        rss = peak_rss_mb([server.proc.pid, *workers])
        server.stop()
        wait_gone(workers)
        gen.proc.wait(60)
        result = json.loads(result_path.read_text())
        spans = json.loads(spans_path.read_text()) if spans_path else None
    finally:
        for child in (gen, server):
            if child is not None:
                child.stop()
        wait_gone(workers)
    return {"result": result, "spans": spans, "setups": setups, "rss_mb": rss}


def end_to_end(workload: Any, run: Dict[str, Any]) -> Dict[str, Any]:
    """The end-to-end metrics of one timed phase, plus what explains them."""
    from workloads import tail_index

    result = run["result"]
    out: Dict[str, Any] = {"setup_s": median(run["setups"]), "peak_rss_mb": run["rss_mb"]}
    if workload.loop == "closed":
        latency = sorted(r - s for r, s in zip(result["read"], result["start"]))
        first, last = result["window"]
        n = len(latency)
        out["events_per_s"] = n * workload.n_monitors * workload.block / (last - first)
        out["max_rate_rps"] = n / (last - first)
        out["request_p50_ms"] = 1e3 * median(latency)
        out["request_tail_ms"] = 1e3 * latency[tail_index(n)]
        out["tail_pct"] = round(100.0 * (tail_index(n) + 1) / n, 2)
        out["n_latency"] = n
        return out
    # The reported latencies are those of the first step (start_rate).  Its
    # tail is the median over consecutive windows of each window's tail, so
    # one scheduler or fsync stall moves one window, not the metric.
    steps = result["steps"]
    n = steps[0]["n"]
    latency = [r - s for r, s in zip(result["read"][:n], result["start"][:n])]
    k = workload.params["tail_windows"]
    size = n // k
    tails = [sorted(latency[i * size : (i + 1) * size])[tail_index(size)] for i in range(k)]
    met = [step for step in steps if step["met"]]
    best = max(met, key=lambda step: step["rate"]) if met else None
    observe_share = 1.0 - 1.0 / workload.params["read_every"]
    out["max_rate_rps"] = best["completed_rps"] if best else 0.0
    out["events_per_s"] = out["max_rate_rps"] * observe_share * workload.block
    out["request_p50_ms"] = 1e3 * median(latency)
    out["request_tail_ms"] = 1e3 * median(tails)
    out["tail_pct"] = f"{round(100.0 * (tail_index(size) + 1) / size, 2)} (median of {k} windows)"
    out["n_latency"] = n
    out["steps"] = steps
    return out


def check(workload: Any, seed: int, run: Dict[str, Any], pool: ProcessPoolExecutor) -> List[str]:
    """Correctness gate: every way the wire answers can disagree with a reference."""
    from workloads import reference_detections

    result = run["result"]
    problems = [f"server error: {e}" for e in result["errors"]]
    n_failed = result["ok"].count(False)
    if n_failed:
        problems.append(f"{n_failed} requests failed or went unanswered")
    sent = result["sent_values"]
    if result["n_values"] != sent:
        problems.append("values acknowledged per monitor differ from values sent")
    if result["stats_n_events"] != sum(sent):
        problems.append(
            f"stats n_events {result['stats_n_events']} != values sent {sum(sent)}"
        )
    futures = [
        pool.submit(reference_detections, workload, seed, sent, first, 2)
        for first in range(2)
    ]
    reference: Dict[int, Any] = {}
    for future in futures:
        reference.update(future.result())
    fleet = workload.fleet()
    wrong = [
        i for i in range(len(fleet))
        if reference[i] != (result["drifts"][i], result["warnings"][i])
    ]
    if wrong:
        tenant, monitor, detector, _ = fleet[wrong[0]]
        problems.append(
            f"{len(wrong)} monitors' detections differ from the in-process "
            f"reference, first {tenant}/{monitor} ({detector})"
        )
    return problems


def git_info() -> Dict[str, Any]:
    if not (ROOT / ".git").exists():
        return {"rev": None, "dirty": None}
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip() != ""
    except (OSError, subprocess.CalledProcessError):
        return {"rev": None, "dirty": None}
    return {"rev": rev, "dirty": dirty}


def cpu_times() -> List[int]:
    """The aggregate CPU counters of /proc/stat (empty if unreadable)."""
    try:
        return [int(x) for x in Path("/proc/stat").read_text().split("\n")[0].split()[1:]]
    except (OSError, ValueError):
        return []


def steal_share(before: List[int], after: List[int]) -> Optional[float]:
    """Share of CPU time the hypervisor gave to other guests (noisy neighbours)."""
    delta = [b - a for a, b in zip(before, after)]
    if len(delta) < 8 or sum(delta) <= 0:
        return None
    return round(delta[7] / sum(delta), 4)


def filesystem(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (from /proc/mounts)."""
    best, kind = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return kind
    target = str(path.resolve())
    for line in mounts:
        fields = line.split()
        if len(fields) > 2 and target.startswith(fields[1]) and len(fields[1]) > len(best):
            best, kind = fields[1], fields[2]
    return kind


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, pool: ProcessPoolExecutor
) -> Dict[str, Any]:
    from layers import PER_LAYER, overhead, per_layer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    work = WORK / f"{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        runs = [phase(workload, seed, seconds, work / "untraced", False, 1 if trace else N_SETUPS)]
        if trace:
            runs.append(phase(workload, seed, seconds, work / "traced", True, 1))
        fs = filesystem(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    problems = [p for run in runs for p in check(workload, seed, run, pool)]
    e2e = [end_to_end(workload, run) for run in runs]
    attempted = sum(len(run["result"]["ok"]) for run in runs)
    failed = sum(run["result"]["ok"].count(False) for run in runs)
    if trace:
        layer = per_layer(workload, runs[1]["result"], runs[1]["spans"], overhead(workload, e2e[0], e2e[1]))
        metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in layer.items()}
    else:
        metrics = {k: {"value": e2e[0][k], "unit": u} for k, u in END_TO_END.items()}
    return {
        "workload": workload,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": e2e[-1],
        "wal_fs": fs,
    }


def report(out: Dict[str, Any]) -> None:
    workload = out["workload"]
    detail = out["detail"]
    print(f"== {workload.name} ({workload.loop} loop) — {workload.why}")
    print(
        f"   failed_share = {out['failed'] / max(out['attempted'], 1):.6f} ratio "
        f"({out['failed']}/{out['attempted']} requests)"
    )
    for name, metric in out["metrics"].items():
        print(f"   {name:<34} {metric['value']:>16.6g} {metric['unit']}")
    print(
        f"   tail percentile p{detail['tail_pct']} over {detail['n_latency']} requests; "
        f"WAL on {out['wal_fs']}"
    )
    for step in detail.get("steps", []):
        print(
            f"   step {step['rate']:>7.0f} req/s: p50 {step['p50_ms']:.3f} ms, "
            f"p{step['tail_pct']} {step['tail_ms']:.3f} ms, "
            f"backlog {step['backlog_first_ms']:.2f}->{step['backlog_last_ms']:.2f} ms, "
            f"generator lag p50 {step['lag_p50_ms']:.3f} / max {step['lag_max_ms']:.3f} ms, "
            f"{'met' if step['met'] else 'MISSED'}"
        )
    for problem in out["problems"]:
        print(f"   CORRECTNESS: {problem}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Socket-to-sink serving benchmark.")
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "serving" / "__main__.py").is_file():
        print(f"no repro sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, on_sigterm)
    become_subreaper()
    try:
        return measure(args)
    finally:
        end_descendants()


def measure(args: argparse.Namespace) -> int:
    sys.path[:0] = [str(SRC), str(BENCH)]
    import numpy

    from workloads import WORKLOADS

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        print(f"--workload must be one of {sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    times_before = cpu_times()
    outs = []
    # Forked reference workers: a spawn context would start a multiprocessing
    # resource-tracker process that outlives this one.
    with ProcessPoolExecutor(2, mp_context=get_context("fork")) as pool:
        for name in names:
            out = run_workload(name, args.seed, args.seconds, bool(args.trace), pool)
            report(out)
            outs.append(out)
    record = {
        "git": git_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": {out["workload"].name: out["workload"].record() for out in outs},
        "wal_fs": outs[0]["wal_fs"],
        "cpu_steal_share": steal_share(times_before, cpu_times()),
    }
    print("RECORD " + json.dumps(record))
    if len(outs) == 1:
        metrics = outs[0]["metrics"]
    else:
        metrics = {
            f"{out['workload'].name}/{k}": v for out in outs for k, v in out["metrics"].items()
        }
    correct = not any(out["problems"] for out in outs)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(out["attempted"] for out in outs),
                "failed": sum(out["failed"] for out in outs),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
