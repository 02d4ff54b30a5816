"""``durable``: reads beside writes on the durable store.

A ``ClusterMonitor`` on the ``multiproc`` transport, with as many
shards as leave the parent one core, stores into a ``segments://`` log
in a temporary directory inside the checkout.  Writes are creates
only.  After each write round a reader pages ``ClusterClient.page``
from its cursor up to the head, and every few rounds it runs a filtered
``query``.  At the end the cluster is shut down and a store reopened
on each shard's segment directory must recover an unbroken tail of the
delivered events, at least the store's retention window.  The store
and transport layers are used differently from ``ingest`` (appends
plus cursor reads across a process boundary), and the collector
converts records without any rename cost.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time
from collections import defaultdict

from repro import LustreFilesystem
from repro.cluster import ClusterConfig, ClusterMonitor
from repro.cluster.client import ClusterClient
from repro.core.aggregator import AggregatorConfig
from repro.core.collector import CollectorConfig
from repro.core.events import EventType
from repro.core.storage import open_store, shard_store_url
from repro.lustre.mds import DnePolicy

import oracles
from harness import percentile
from ingest import collector_counters, processor_config

#: Shards leave the parent process one core of those this process may
#: run on (what ``nproc`` counts).
SHARDS = max(1, len(os.sched_getaffinity(0)) - 1)
DIRS = 16
CREATES_PER_ROUND = 500
PAGE_LIMIT = 100
QUERY_EVERY = 4
#: The aggregator store's retention at its shipped default; older
#: segments may be compacted away, so recovery keeps at least this many.
RETENTION = AggregatorConfig().store_max_events
TMP_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".bench_tmp"
)


class DurableWorkload:
    name = "durable"
    cycle = QUERY_EVERY
    #: Printed in the run's report: runs with other shard counts differ.
    settings = {"shards": SHARDS}

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.cluster = None
        self.tmp = None

    def setup(self) -> None:
        self.rng = random.Random(self.seed)
        self._names = 0
        self._round = 0
        os.makedirs(TMP_ROOT, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="durable-", dir=TMP_ROOT)
        self.url = f"segments://{self.tmp}"
        self.fs = LustreFilesystem(
            num_mds=SHARDS, dne_policy=DnePolicy.ROUND_ROBIN
        )
        self.cluster = ClusterMonitor(
            self.fs,
            ClusterConfig(
                num_shards=SHARDS,
                transport="multiproc",
                collector=CollectorConfig(processor=processor_config()),
                aggregator=AggregatorConfig(store_url=self.url),
            ),
        )
        self.delivered: dict[str, list] = defaultdict(list)
        self.cluster.subscribe(
            lambda _s, _e: None, name="recorder", batch_callback=self._record
        )
        self.client = ClusterClient.for_cluster(self.cluster)
        self.dirs = [f"/data/d{i:02d}" for i in range(DIRS)]
        for directory in self.dirs:
            self.fs.makedirs(directory)
        self.cluster.drain()
        self.cursor = self.client.head_cursor()
        self.written: list[str] = []
        self.paged: list = []
        self.page_count = 0
        self.query_errors: list = []

    def _record(self, entries, source) -> None:
        self.delivered[source].extend((seq, ev.path) for seq, ev in entries)

    def teardown(self) -> None:
        if self.cluster is not None:
            self.cluster.shutdown()
            self.cluster = None
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None
            try:
                os.rmdir(TMP_ROOT)
            except OSError:
                pass  # another run's directory is still there

    # -- rounds -------------------------------------------------------------

    def prepare_round(self) -> int:
        self._round_start = self.fs.clock.now()
        for _ in range(CREATES_PER_ROUND):
            self._names += 1
            directory = self.dirs[self.rng.randrange(DIRS)]
            path = f"{directory}/f{self._names:07d}"
            self.fs.create(path)
            self.written.append(path)
        return CREATES_PER_ROUND

    def run_round(self) -> int:
        self.cluster.drain()
        return CREATES_PER_ROUND

    def read_round(self) -> list[float]:
        """Page from the cursor to the head; every few rounds, query."""
        timings = []
        while True:
            start = time.perf_counter()
            page = self.client.page(self.cursor, limit=PAGE_LIMIT)
            timings.append(time.perf_counter() - start)
            self.paged.extend((s, q, ev.path) for s, q, ev in page.entries)
            self.cursor = page.cursor
            if page.exhausted:
                break
        self.page_count += len(timings)
        self._round += 1
        if self._round % QUERY_EVERY == 0:
            directory = self.dirs[self.rng.randrange(DIRS)]
            got = self.client.query(
                path_prefix=directory,
                event_type=EventType.CREATED,
                since_time=self._round_start,
            )
            want = [p for p in self.written if p.startswith(directory + "/")]
            self.query_errors += oracles.check_query(
                want, [ev.path for _s, _q, ev in got]
            )
        return timings

    def check_round(self, log) -> list:
        errors = oracles.check_pages(self.written, self.paged) + self.query_errors
        log.count("records", len(self.written))
        log.count("pages", self.page_count)
        if self._round % QUERY_EVERY == 0:
            log.count("queries", 1)
        self.written, self.paged, self.query_errors = [], [], []
        self.page_count = 0
        return errors

    def finish(self) -> list:
        """Shut down, reopen each shard's log, compare with the tail of
        delivery that retention keeps."""
        self.cluster.shutdown()
        self.cluster = None
        errors = []
        for shard in sorted(self.delivered):
            store = open_store(
                shard_store_url(self.url, shard), max_events=10**7
            )
            try:
                recovered = [(seq, ev.path) for seq, ev in store.since(0)]
            finally:
                store.close()
            errors += oracles.check_recovery(
                self.delivered[shard], recovered, RETENTION
            )
        return errors

    def layer_counters(self) -> dict:
        """Collector counters plus the shard processes' store figures,
        relayed to the parent registry on request."""
        counters = collector_counters(self.cluster.collectors)
        merged = {b: b.relay_merges for b in self.cluster.bridges.values()}
        for bridge in merged:
            bridge.request_metrics()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and any(
            b.relay_merges == n for b, n in merged.items()
        ):
            for bridge in merged:
                bridge.pump_once()
            time.sleep(0.005)
        snapshot = self.cluster.registry.snapshot()
        for shard in self.cluster.shard_ids:
            for name, stat in (
                ("log_bytes", "log_bytes"),
                ("records_stored", "records_appended"),
                ("store_appends", "appends"),
                ("fsyncs", "fsyncs"),
            ):
                counters[name] = counters.get(name, 0) + snapshot.get(
                    f"{shard}.store_backend_{stat}", 0
                )
        return counters

    def report(self, log) -> dict:
        pages_ms = [p * 1000.0 for p in log.pages]
        return {
            "page_p50_ms": (percentile(pages_ms, 50), "ms"),
            "page_p90_ms": (percentile(pages_ms, 90), "ms"),
        }
