"""Per-layer metrics of the traced run, each with its base.

Times are self times (span minus its children) from the tracer, taken
over the traced measurement phase only; the ``setup.*`` figures come
from the traced set-up.  Counts come from the tracer or from the
workload's ``layer_counters()`` (program counters read before and
after the phase).  A layer a workload does not exercise reads 0.
Names and units are declared in ``BENCHMARK.json``'s ``per_layer``;
this module computes the values.
"""

from __future__ import annotations


def layer_metrics(tracer_phases, counters, log, plain_log):
    """Return ({name: value}, {name: base description})."""
    before_setup, after_setup, after = tracer_phases
    c0, c1 = counters

    def span(kind: str, name: str, start=after_setup, end=after) -> float:
        return end[kind].get(name, 0) - start[kind].get(name, 0)

    def count(name: str) -> float:
        return c1.get(name, 0) - c0.get(name, 0)

    values: dict[str, float] = {}
    bases: dict[str, str] = {}

    def ratio(metric, numerator, denominator, base, scale=1.0):
        values[metric] = scale * numerator / denominator if denominator else 0.0
        bases[metric] = f"{numerator * scale:.6g} over {denominator:.6g} {base}"

    us = 1e6
    events = log.events
    rounds = len(log.durations)
    ratio("collector.us_per_event", span("self", "collector"), events, "events", us)
    ratio("collector.records_per_poll", count("records_read"),
          span("calls", "collector"), "polls")
    ratio("processor.us_per_event", span("self", "processor"), events, "events", us)
    hits, misses = count("cache_hits"), count("cache_misses")
    ratio("path_cache.hit_ratio", hits, hits + misses, "lookups")
    ratio("path_cache.prefix_scans_per_event", span("calls", "path_cache.scan"),
          events, "events")
    scan_s = span("total", "path_cache.scan")
    ratio("path_cache.scan_us_per_event", scan_s, events,
          f"events; {100.0 * scan_s / sum(log.raw_durations):.3g}% of the "
          "traced drain time", us)
    ratio("fid2path.calls_per_event", span("calls", "fid2path"), events, "events")
    ratio("fid2path.us_per_event", span("self", "fid2path"), events, "events", us)
    ratio("aggregator.us_per_event", span("self", "aggregator"), events, "events", us)
    stored = count("records_stored") or events
    batches = span("calls", "store") or count("store_appends")
    ratio("aggregator.events_per_batch", stored, batches, "stored batches")
    ratio("store.us_per_event", span("self", "store"), events, "events", us)
    ratio("segments.bytes_per_event", count("log_bytes"), count("records_stored"),
          "logged events")
    values["segments.fsyncs"] = count("fsyncs")
    bases["segments.fsyncs"] = "fsyncs in the traced phase"
    ratio("transport.us_per_event", span("self", "transport"), events, "events", us)
    settle = span("calls", "cluster.pump.zero") - span("calls", "cluster.drain")
    ratio("transport.settle_waits_per_round", max(settle, 0), rounds, "rounds")
    pages = span("calls", "client")
    ratio("client.us_per_page", span("total", "client"), pages, "pages", us)
    ratio("client.requests_per_page", span("calls", "client.request"), pages,
          "pages")
    ratio("consumer.us_per_event", span("self", "consumer"), events, "events", us)
    seen = count("agent_events")
    ratio("rules.us_per_event", span("self", "rules"), seen, "agent events", us)
    ratio("rules.candidates_per_event", count("candidates"), seen, "agent events")
    ratio("rules.evaluated_per_event", count("evaluated"), seen, "agent events")
    ratio("report.us_per_event", span("self", "report"), span("calls", "report"),
          "reports", us)
    ratio("service.us_per_entry", span("self", "service"), count("entries"),
          "queue entries", us)
    values["cloudq.depth_peak"] = c1.get("depth_peak", 0)
    bases["cloudq.depth_peak"] = "visible queue depth after a drain"
    ratio("actions.us_per_action",
          span("self", "actions") + span("self", "lustre.action"),
          count("actions"), "actions", us)
    hub_events = count("hub_events")
    ratio("hub.us_per_event", span("self", "hub") + span("self", "hub.match"),
          hub_events, "hub events", us)
    ratio("hub.frames_per_event", count("frames"), hub_events, "hub events")
    ratio("hub.bytes_per_frame", count("frame_bytes"), count("frames"), "frames")
    values["setup.rule_install_s"] = span(
        "total", "setup.rule_install", before_setup, after_setup)
    bases["setup.rule_install_s"] = (
        f"{span('calls', 'setup.rule_install', before_setup, after_setup):.0f}"
        " add_rule calls"
    )
    values["setup.index_builds"] = span(
        "calls", "setup.index_build", before_setup, after_setup)
    bases["setup.index_builds"] = "RuleIndex constructions in one set-up"
    ratio("sim.us_per_event", span("self", "sim"), events, "simulated events", us)
    ratio("sim.steps_per_event", span("calls", "sim.step"), events,
          "simulated events")
    ratio("lustre.us_per_op", span("self", "lustre"), log.ops, "generator ops", us)
    untraced = plain_log.rate(plain_log.events)
    traced = log.rate(log.events)
    ratio("tracing.overhead_pct", untraced - traced, untraced,
          f"events/s untraced (traced {traced:.6g})", 100.0)
    return values, bases
