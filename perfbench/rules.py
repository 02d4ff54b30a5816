"""``rules``: the rule-dense service path.

One MDS over a small hot namespace that fits the path cache, creates
only, so the collector is cheap.  Several hundred rules installed
through ``RippleService.add_rule`` mix nested and disjoint prefixes,
globs and literal names, email and ``checksum`` actions.  A
``StreamHub`` carries about two hundred subscriptions across three
tenants, with a quota that never sheds, fed by a batch consumer; the
subscriber queues are drained every round.  A round runs until the
action cascade settles: checksum files are new events themselves (and
match the tenants' catch-all email rules).  The rule index, the
agent -> service report path (``cloudq``), the actions and the hub do
the work.
"""

from __future__ import annotations

import random
from collections import Counter

from repro import LustreFilesystem, LustreMonitor, MonitorConfig, RippleAgent
from repro import RippleService
from repro.core.collector import CollectorConfig
from repro.core.events import EventType
from repro.gateway.auth import Quota
from repro.gateway.filters import SubscriptionFilter
from repro.gateway.hub import StreamHub
from repro.metrics.registry import MetricsRegistry
from repro.ripple.rules import Action, Trigger

import oracles
from ingest import collector_counters, processor_config

TENANTS = ("t0", "t1", "t2")
PROJECTS = 4
SUBDIRS = 3
DISJOINT_RULES = 150
DISJOINT_SUBSCRIPTIONS = 60
CREATES_PER_ROUND = 24
MAX_SIZE = 16384
PREFIXES = ("run", "img", "scan")
EXTENSIONS = (".dat", ".h5", ".tif", ".log")
CREATED = frozenset({"created"})
ALL_KINDS = frozenset(kind.value for kind in EventType)
#: Never sheds: far above any rate or depth a round reaches.
UNLIMITED = Quota(
    stream_events_per_sec=1e12, stream_burst=1e12, stream_queue=10**9
)


def leaf_dirs() -> list[tuple[str, str]]:
    return [
        (tenant, f"/lab/{tenant}/p{p}/s{s}")
        for tenant in TENANTS
        for p in range(PROJECTS)
        for s in range(SUBDIRS)
    ]


def rule_plan() -> list[tuple[tuple[str, frozenset, str, bool], str, str]]:
    """(trigger spec, action kind, target) for every rule, in order.

    The target is the recipient of an email or the tenant whose sums
    directory a checksum writes to.
    """
    plan = []
    for tenant in TENANTS:
        plan.append((("/lab/" + tenant, CREATED, "*", False), "email", tenant))
        for p in range(PROJECTS):
            project = f"/lab/{tenant}/p{p}"
            plan.append(((project, CREATED, "*.h5", False), "checksum", tenant))
            plan.append(((project, CREATED, "img_*.tif", False), "email", tenant))
            for s in range(SUBDIRS):
                leaf = f"{project}/s{s}"
                plan.append(((leaf, CREATED, "*.dat", False), "email", tenant))
                plan.append(((leaf, CREATED, "scan_*", False), "email", tenant))
                plan.append(((leaf, CREATED, "*.log", False), "checksum", tenant))
                literal = f"run_{(p * SUBDIRS + s) * 7:06d}.dat"
                plan.append(((leaf, CREATED, literal, False), "email", tenant))
    for i in range(DISJOINT_RULES):
        plan.append(((f"/archive/a{i:03d}", CREATED, "*", False), "email", "ops"))
    return plan


def subscription_plan() -> list[tuple[str, tuple[str, frozenset, str, bool]]]:
    """(tenant, filter spec) for every stream subscription."""
    plan = []
    for tenant, leaf in leaf_dirs():
        plan.append((tenant, (leaf, ALL_KINDS, "*", True)))
        plan.append((tenant, (leaf, CREATED, "*.dat", True)))
        plan.append((tenant, (leaf, ALL_KINDS, "*.h5", True)))
    for tenant in TENANTS:
        for p in range(PROJECTS):
            project = f"/lab/{tenant}/p{p}"
            plan.append((tenant, (project, CREATED, "*", True)))
            plan.append((tenant, (project, ALL_KINDS, "img_*", True)))
        plan.append((tenant, (f"/lab/{tenant}/sums", ALL_KINDS, "*.sha256", True)))
        plan.append((tenant, (f"/lab/{tenant}", CREATED, "*.log", True)))
    for i in range(DISJOINT_SUBSCRIPTIONS):
        tenant = TENANTS[i % len(TENANTS)]
        plan.append((tenant, (f"/archive/a{i:03d}", ALL_KINDS, "*", True)))
    return plan


def checksum_dst(tenant: str, index: int) -> str:
    return f"/lab/{tenant}/sums/{{stem}}.r{index}.sha256"


class RulesWorkload:
    name = "rules"
    cycle = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.monitor = None

    # -- set-up -------------------------------------------------------------

    def setup(self) -> None:
        self.rng = random.Random(self.seed)
        self._names = 0
        self.fs = LustreFilesystem(num_mds=1)
        self.monitor = LustreMonitor(
            self.fs,
            MonitorConfig(collector=CollectorConfig(processor=processor_config())),
        )
        self.service = RippleService()
        self.agent = RippleAgent("lustre", filesystem=self.fs)
        self.service.register_agent(self.agent)
        self.agent.attach_lustre_monitor(self.monitor)
        self.hub = StreamHub(MetricsRegistry().scoped("gateway"))
        self.monitor.subscribe(lambda _s, _e: None, name="hub",
                               batch_callback=self._feed_hub)
        self.leaves = leaf_dirs()
        for tenant, leaf in self.leaves:
            self.fs.makedirs(leaf)
        for tenant in TENANTS:
            self.fs.makedirs(f"/lab/{tenant}/sums")
        self.email_rules = []  # (spec, recipient)
        self.checksum_rules = []  # (spec, rule id, tenant, plan index)
        for index, (spec, kind, target) in enumerate(rule_plan()):
            prefix, kinds, pattern, include_dirs = spec
            trigger = Trigger(
                agent_id="lustre",
                path_prefix=prefix,
                event_types=frozenset(EventType(k) for k in kinds),
                name_pattern=pattern,
                include_directories=include_dirs,
            )
            if kind == "email":
                recipient = f"{target}-{index}@lab"
                action = Action("email", "lustre",
                                {"to": recipient, "subject": "{path}"})
                self.service.add_rule(trigger, action)
                self.email_rules.append((spec, recipient))
            else:
                action = Action("command", "lustre", {
                    "command": "checksum", "dst": checksum_dst(target, index),
                })
                rule = self.service.add_rule(trigger, action)
                self.checksum_rules.append((spec, rule.rule_id, target, index))
        self.filters = []
        self.subscribers = []
        for tenant, spec in subscription_plan():
            prefix, kinds, pattern, include_dirs = spec
            filt = SubscriptionFilter(
                path_prefix=prefix,
                event_types=None if kinds == ALL_KINDS else frozenset(
                    EventType(k) for k in kinds),
                name_pattern=pattern,
                include_directories=include_dirs,
            )
            self.subscribers.append(self.hub.subscribe(tenant, filt, UNLIMITED))
            self.filters.append(spec)
        self.tap: list = []
        self.expected: Counter = Counter()
        self.sizes: dict[str, int] = {}
        self.depth_peak = 0
        self._settle()
        self._reset_round()
        self.frame_bytes = 0
        self.frames = 0

    def _feed_hub(self, entries, source) -> None:
        """The hub's batch consumer; also taps the stream for the oracle."""
        self.tap.extend(
            (seq, ev.event_type.value, ev.path, ev.is_dir) for seq, ev in entries
        )
        self.hub.publish_entries(entries, source)

    def teardown(self) -> None:
        if self.monitor is not None:
            self.monitor.shutdown()
            self.service.shutdown()
            self.hub.close()
            self.monitor = None

    def _new_name(self) -> str:
        self._names += 1
        prefix = PREFIXES[self.rng.randrange(len(PREFIXES))]
        ext = EXTENSIONS[self.rng.randrange(len(EXTENSIONS))]
        return f"{prefix}_{self._names:06d}{ext}"

    # -- rounds -------------------------------------------------------------

    def prepare_round(self) -> int:
        for _ in range(CREATES_PER_ROUND):
            _tenant, leaf = self.leaves[self.rng.randrange(len(self.leaves))]
            path = f"{leaf}/{self._new_name()}"
            size = self.rng.randint(1, MAX_SIZE)
            self.fs.create(path, size=size)
            self.sizes[path] = size
            self.expected[("created", path)] += 1
            self.expected[("modified", path)] += 1
        return CREATES_PER_ROUND

    def _settle(self) -> int:
        """Drain the monitor and run the service until nothing moves;
        then take every subscriber's queued frames."""
        total = 0
        while True:
            moved = self.monitor.drain()
            total += moved
            self.depth_peak = max(
                self.depth_peak, self.service.event_queue.visible_depth
            )
            self.service.run_until_quiet()
            if moved == 0:
                break
        self.queued = [sub.drain() for sub in self.subscribers]
        return total

    def run_round(self) -> int:
        return self._settle()

    def check_round(self, log) -> list:
        tap = self.tap
        checksums_due: Counter = Counter()
        for _seq, kind, path, is_dir in tap:
            for spec, rule_id, tenant, index in self.checksum_rules:
                if oracles.linear_match(spec, kind, path, is_dir):
                    checksums_due[(rule_id, path)] += 1
                    stem = path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
                    dst = checksum_dst(tenant, index).format(stem=stem)
                    self.expected[("created", dst)] += 1
                    self.expected[("modified", dst)] += 1
        errors = oracles.check_stream(self.expected, tap)
        frame_errors, nbytes = oracles.check_frames(self.filters, tap, self.queued)
        errors += frame_errors
        frames = sum(len(q) for q in self.queued)
        errors += oracles.check_emails(
            oracles.predict_emails(self.email_rules, tap),
            [(mail["to"], mail["subject"]) for mail in self.service.outbox],
        )
        results = self.service.results
        sums = [
            (r.rule_id, r.detail[len("sha256("):-1], r.output)
            for r in results
            if r.detail.startswith("sha256(")
        ]
        errors += oracles.check_checksums(checksums_due, sums, self.sizes)
        log.count("records", len(tap))
        log.count("actions", len(results))
        log.count("frames", frames)
        self.frames += frames
        self.frame_bytes += nbytes
        self._reset_round()
        return errors

    def _reset_round(self) -> None:
        self.tap.clear()
        self.expected.clear()
        self.sizes.clear()
        self.service.outbox.clear()
        self.service.results.clear()
        self.queued = []

    def finish(self) -> list:
        return []

    def layer_counters(self) -> dict:
        index = self.agent.rule_index
        hub = self.hub.metrics.snapshot()
        return {
            **collector_counters(self.monitor.collectors),
            "agent_events": self.agent.events_seen,
            "candidates": index.candidates_considered,
            "evaluated": index.rules_evaluated,
            "entries": self.service.events_processed,
            "actions": self.agent.actions_executed,
            "hub_events": hub["stream_published"],
            "frames": self.frames,
            "frame_bytes": self.frame_bytes,
            "depth_peak": self.depth_peak,
        }

    def report(self, log) -> dict:
        return {
            "actions_per_s": (log.rate(log.counts.get("actions", 0)), "actions/s"),
            "frames_per_s": (log.rate(log.counts.get("frames", 0)), "frames/s"),
        }
