"""Run ``python -m repro.serving`` with spans recorded around its layers.

Usage::

    python wirebench/traced_server.py --spans-out spans.json -- <server args>

The launcher wraps public entry points of each layer, then calls
``repro.serving.__main__.main`` with the server arguments.  Each span is
``[name, start, end, parent, seq, n]``: ``parent`` is the index of the
enclosing span (-1 for a top-level hub op), ``seq`` numbers the top-level hub
ops in the order the single dispatch thread ran them (one per request), and
``n`` is the value count of a detector call.  Spans stay in memory and are
written when the server exits.  Shard workers fork from this process and
record into their own copies, which they cannot hand back; the benchmark
reads their split from the ``metrics`` op instead.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from pathlib import Path
from typing import Any, List

from repro.detectors import Adwin, Ddm, Eddm, HddmA, Kswin, Stepd
from repro.core.optwin import Optwin
from repro.serving import __main__ as serving_main
from repro.serving.hub import MonitorHub
from repro.serving.sharded import ShardedHub
from repro.serving.sinks import AlertSink, QueueSink
from repro.serving.wal import AlertWal

DETECTOR_CLASSES = (Ddm, HddmA, Stepd, Eddm, Optwin, Adwin, Kswin)


class SpanRecorder:
    """Replaces methods with wrappers that append spans to one in-memory list."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self._local = threading.local()
        self._seq = 0

    def wrap(self, owner: type, method: str, name: str, detector: bool = False) -> None:
        original = getattr(owner, method)
        recorder = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = recorder._stack()
            # A detector whose update_batch defers to a wrapped base class
            # records one span, not two.
            if detector and stack and recorder.spans[stack[-1]][0].startswith("detector."):
                return original(*args, **kwargs)
            parent = stack[-1] if stack else -1
            if parent < 0:
                recorder._seq += 1
            index = len(recorder.spans)
            n = len(args[1]) if detector and hasattr(args[1], "__len__") else 0
            span = [name, time.perf_counter(), 0.0, parent, recorder._seq, n]
            recorder.spans.append(span)
            stack.append(index)
            try:
                return original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        setattr(owner, method, traced)

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack


def install(recorder: SpanRecorder) -> None:
    for method, name in (
        ("ingest", "hub.ingest"),
        ("observe_with_stats", "hub.observe"),
        ("stats", "hub.stats"),
        ("metrics", "hub.metrics"),
        ("checkpoint", "snapshot.checkpoint"),
    ):
        recorder.wrap(MonitorHub, method, name)
    recorder.wrap(QueueSink, "drain", "hub.alerts")
    for cls in DETECTOR_CLASSES:
        recorder.wrap(cls, "update_batch", f"detector.{cls.__name__}", detector=True)
    for method in ("append_alert", "append_watermark", "commit"):
        recorder.wrap(AlertWal, method, f"wal.{method}")
    for cls in AlertSink.__subclasses__():
        if "emit" in vars(cls):
            recorder.wrap(cls, "emit", "sink.emit")
    recorder.wrap(ShardedHub, "ingest", "sharded.ingest")


def main(argv: List[str]) -> int:
    if len(argv) < 2 or argv[0] != "--spans-out":
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[1])
    server_args = argv[3:] if argv[2:3] == ["--"] else argv[2:]
    recorder = SpanRecorder()
    install(recorder)
    try:
        return serving_main.main(server_args)
    finally:
        out.write_text(json.dumps(recorder.spans))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
