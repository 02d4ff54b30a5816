"""``ingest``: site-wide metadata churn, bound by the collector.

Four MDS with DNE hash placement over a few hundred directories, more
directories than the path cache holds.  The processor runs with
batching and the path cache on (the paper's proposed fix).  The op mix
is create, setattr, unlink and the atomic write-to-temp-then-rename
pattern of HPC checkpointing and rsync.  One plain consumer, no rules:
the collector, processor, fid2path and path cache do the work while
the rule engine, hub and actions stay idle.  Directories are never
renamed or removed, so every record's true path is known exactly when
its operation runs.
"""

from __future__ import annotations

import random

from repro import LustreFilesystem, LustreMonitor, MonitorConfig
from repro.core.collector import CollectorConfig
from repro.core.processor import ProcessorConfig
from repro.lustre.mds import DnePolicy

import oracles

NUM_MDS = 4
GROUPS = 32
DIRS_PER_GROUP = 16  # 512 leaf directories, about 128 per MDT
#: Each collector has its own cache; 96 entries hold three quarters of
#: the ~128 directories one MDT serves, so the working set is larger
#: than the cache and some lookups miss.
INGEST_CACHE_SIZE = 96
CACHE_SIZE = 256  # rules and durable: the hot namespace fits
BATCH_SIZE = 64
INITIAL_FILES = 6
MAX_FILES = 24
#: Sized so one round's drain takes tens of milliseconds: long against
#: the timer and the reference, short enough for 100+ rounds per run.
OPS_PER_ROUND = 400
#: Cumulative op mix.  Create, modify (setattr) and unlink in equal
#: shares, as in the paper's generation script (§5.1), which creates,
#: modifies and deletes every file once.  The paper's traffic has no
#: renames; the 10% write-to-temp-then-rename share (half over an
#: existing file) is an assumption, the share of the profiled prototype
#: behind the ``_maintain_cache`` cost in README.md.
MIX = ((0.30, "create"), (0.60, "setattr"), (0.90, "unlink"), (1.0, "rename"))
#: Share of temp-then-rename operations that replace an existing file.
RENAME_OVER_EXISTING = 0.5


def processor_config(cache_size: int = CACHE_SIZE) -> ProcessorConfig:
    """Batching and the path cache on: the paper's proposed fix."""
    return ProcessorConfig(batch_size=BATCH_SIZE, cache_size=cache_size)


def collector_counters(collectors) -> dict:
    """Records read and path-cache lookups summed over *collectors*."""
    counters = {"records_read": 0, "cache_hits": 0, "cache_misses": 0}
    for collector in collectors:
        counters["records_read"] += collector.records_read
        cache = collector.processor.cache
        counters["cache_hits"] += cache.hits
        counters["cache_misses"] += cache.misses
    return counters


class IngestWorkload:
    name = "ingest"
    #: Rounds per indivisible cycle (every run measures whole cycles).
    cycle = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.monitor = None

    # -- set-up -------------------------------------------------------------

    def setup(self) -> None:
        self.rng = random.Random(self.seed)
        self._names = 0
        self.fs = LustreFilesystem(num_mds=NUM_MDS, dne_policy=DnePolicy.HASH)
        self.monitor = LustreMonitor(
            self.fs,
            MonitorConfig(
                collector=CollectorConfig(
                    processor=processor_config(INGEST_CACHE_SIZE)
                )
            ),
        )
        self.delivered: list = []
        append = self.delivered.append
        self.monitor.subscribe(
            lambda seq, ev: append(
                (seq, ev.mdt_index, ev.event_type.value, ev.path, ev.old_path)
            ),
            name="plain",
        )
        self.dirs: list[str] = []
        self.files: dict[str, list[str]] = {}
        self.fs.mkdir("/site")
        for g in range(GROUPS):
            group = f"/site/g{g:02d}"
            self.fs.mkdir(group)
            for d in range(DIRS_PER_GROUP):
                directory = f"{group}/d{d:02d}"
                self.fs.mkdir(directory)
                self.dirs.append(directory)
                self.files[directory] = []
                for _ in range(INITIAL_FILES):
                    name = self._new_name()
                    self.fs.create(f"{directory}/{name}")
                    self.files[directory].append(name)
        self.monitor.drain()
        self.delivered.clear()
        self.expected: list = []

    def teardown(self) -> None:
        if self.monitor is not None:
            self.monitor.shutdown()
            self.monitor = None

    def _new_name(self) -> str:
        self._names += 1
        return f"f{self._names:07d}.dat"

    # -- rounds -------------------------------------------------------------

    def prepare_round(self) -> int:
        """Run one burst of namespace operations; returns the op count."""
        rng, fs, log = self.rng, self.fs, self.expected
        for _ in range(OPS_PER_ROUND):
            directory = rng.choice(self.dirs)
            names = self.files[directory]
            draw = rng.random()
            op = next(kind for bound, kind in MIX if draw < bound)
            if op == "create" and len(names) >= MAX_FILES:
                op = "unlink"
            if op != "create" and not names:
                op = "create"
            if op == "create":
                name = self._new_name()
                path = f"{directory}/{name}"
                fs.create(path)
                names.append(name)
                log.append((directory, "created", path, None))
            elif op == "setattr":
                path = f"{directory}/{rng.choice(names)}"
                fs.setattr(path, mode=0o600)
                log.append((directory, "attrib", path, None))
            elif op == "unlink":
                index = rng.randrange(len(names))
                names[index], names[-1] = names[-1], names[index]
                path = f"{directory}/{names.pop()}"
                fs.unlink(path)
                log.append((directory, "deleted", path, None))
            else:
                # Write to a temp name, then rename over the final name
                # (an existing file half of the time).
                if rng.random() < RENAME_OVER_EXISTING:
                    name = rng.choice(names)
                else:
                    name = self._new_name()
                    names.append(name)
                temp = f"{directory}/.{name}.tmp"
                final = f"{directory}/{name}"
                fs.create(temp)
                fs.rename(temp, final)
                log.append((directory, "created", temp, None))
                log.append((directory, "moved", final, temp))
        return OPS_PER_ROUND

    def run_round(self) -> int:
        """The timed part: drain the burst through the whole pipeline."""
        self.monitor.drain()
        return len(self.expected)

    def check_round(self, log) -> list:
        errors = oracles.check_ingest(self.expected, self.delivered)
        log.count("records", len(self.expected))
        self.expected = []
        self.delivered.clear()
        return errors

    def finish(self) -> list:
        return []

    def layer_counters(self) -> dict:
        return collector_counters(self.monitor.collectors)

    def report(self, log) -> dict:
        return {}
