"""Spans around the calls into each layer's public functions.

The traced run wraps methods of the program's classes from the
benchmark's own files (nothing under ``src/`` changes).  Each call
records a span ``(name, start, end, parent)``; spans are kept in memory
and written out once at the end.  Self time (span minus the part its
child spans cover) and call counts are folded in as spans close, so the
per-layer figures stay exact even when the raw span list is capped.

Only the main thread is traced: helper threads (the one
``call_with_pump`` starts for a deterministic REQ/REP request) pass
through untouched.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from typing import Callable

#: Raw spans kept for the output file; later spans still count.
MAX_SPANS = 200_000


class SpanTracer:
    def __init__(self) -> None:
        self.self_time: dict[str, float] = defaultdict(float)
        self.total_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.spans: list[tuple[str, float, float, int]] = []
        self.dropped = 0
        # Open spans: [name, span id, child seconds].
        self._stack: list[list] = []
        self._main = threading.get_ident()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def wrap(self, fn: Callable, name, count_only: bool = False) -> Callable:
        """*name* is a string or ``callable(parent_name) -> str``.

        A count-only wrapper records no span; it counts calls under
        *name* and calls that returned 0 under ``name + ".zero"``.
        """
        tracer = self
        namer = name if callable(name) else (lambda _parent: name)

        if count_only:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                label = namer(None)
                tracer.calls[label] += 1
                result = fn(*args, **kwargs)
                if result == 0:
                    tracer.calls[label + ".zero"] += 1
                return result

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._main:
                return fn(*args, **kwargs)
            stack = tracer._stack
            label = namer(stack[-1][0] if stack else None)
            parent = stack[-1][1] if stack else -1
            span_id = len(tracer.spans) + tracer.dropped
            frame = [label, span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                elapsed = end - start
                tracer.self_time[label] += elapsed - frame[2]
                tracer.total_time[label] += elapsed
                tracer.calls[label] += 1
                if stack:
                    stack[-1][2] += elapsed
                if len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append((label, start, end, parent))
                else:
                    tracer.dropped += 1

        return traced

    def patch(self, owner, attr: str, name, count_only: bool = False) -> None:
        original = vars(owner)[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, count_only))

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- read-out -------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "self": dict(self.self_time),
            "total": dict(self.total_time),
            "calls": dict(self.calls),
        }

    def write(self, path: str, extra: dict) -> None:
        """Write the kept spans and the folded totals once, at the end."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    **extra,
                    "totals": self.snapshot(),
                    "dropped_spans": self.dropped,
                    "spans": self.spans,
                },
                fh,
            )


def install_layer_spans(tracer: SpanTracer) -> None:
    """Wrap the public entry points of every layer the workloads use."""
    from repro.cloudq.serverless import ServerlessExecutor
    from repro.cluster.client import ClusterClient
    from repro.cluster.monitor import ClusterMonitor
    from repro.core.aggregator import Aggregator
    from repro.core.client import MonitorClient
    from repro.core.collector import Collector
    from repro.core.consumer import Consumer
    from repro.core.monitor import PushSink
    from repro.core.processor import EventProcessor, PathCache
    from repro.core.store import EventStore
    from repro.gateway.hub import StreamHub
    from repro.lustre.fid2path import FidResolver
    from repro.lustre.filesystem import LustreFilesystem
    from repro.msgq.multiproc import ProcessShardBridge
    from repro.perf import pipeline
    from repro.ripple.agent import RippleAgent
    from repro.ripple.index import RuleIndex
    from repro.ripple.service import RippleService
    from repro.sim.engine import Process

    patch = tracer.patch
    patch(Collector, "poll_once", "collector")
    patch(EventProcessor, "process", "processor")
    patch(FidResolver, "resolve", "fid2path")
    patch(FidResolver, "resolve_many", "fid2path")
    patch(PathCache, "invalidate_prefix", "path_cache.scan")
    patch(PushSink, "send", "transport")
    patch(PushSink, "send_many", "transport")
    patch(ProcessShardBridge, "pump_once", "transport")
    patch(Aggregator, "pump_once", "aggregator")
    patch(EventStore, "extend", "store")
    patch(Consumer, "poll_once", "consumer")
    # A drain ends on one quiet pump; every other quiet pump is
    # followed by a settle sleep while a batch crosses the process
    # boundary.
    patch(ClusterMonitor, "pump", "cluster.pump", count_only=True)
    patch(ClusterMonitor, "drain", "cluster.drain", count_only=True)
    patch(ClusterClient, "page", "client")
    patch(MonitorClient, "events_since", "client.request")
    patch(RippleAgent, "ingest_batch", "agent")
    patch(
        RuleIndex,
        "matching_batch",
        lambda parent: "hub.match" if parent == "hub" else "rules",
    )
    patch(RuleIndex, "__init__", "setup.index_build", count_only=True)
    patch(RippleService, "report_event", "report")
    patch(RippleService, "add_rule", "setup.rule_install")
    patch(ServerlessExecutor, "poll_once", "service")
    patch(RippleAgent, "execute_pending", "actions")
    patch(StreamHub, "publish_entries", "hub")
    patch(pipeline, "run_pipeline", "sim")
    patch(Process, "_resume", "sim.step", count_only=True)
    # Namespace operations of the load generator are "lustre"; the ones
    # an action performs are charged to the action.
    for op in ("create", "setattr", "unlink", "rename", "write", "mkdir"):
        patch(
            LustreFilesystem,
            op,
            lambda parent: "lustre" if parent in (None, "lustre") else "lustre.action",
        )
