"""``table4_warm`` — the paper's Figure 6: one client calls
``Dataspace.query`` over Q1-Q8 round-robin on a warm, read-only,
in-memory dataspace at twice the other workloads' scale.

The query path (parse -> optimize -> compile -> index scan -> dictionary
handoff -> merge/expand -> materialize) does all the work; durability,
service and supervise do none. Q1 is materialization-bound, Q4-Q6/Q8
expansion-bound, Q2 fixed-overhead-bound, so the one mix separates the
query-path fixes.
"""

from __future__ import annotations

import gc
import random

import harness
import layers
import wl_ingest

#: post-window writes on the window's own dataspace (refresh_p50_ms)
REFRESH_PROBES = 100
#: set-ups per run; each is ~4 s at reference speed, the costliest part
SETUPS = 2


def set_up(config, recorder, mix):
    """generate + sync + one warm pass; the warm pass's answers are
    checked later, against the oracle."""
    clock = config.clock
    with recorder.span("dataset.generate"):
        generate, dataspace, _ = clock.measure(
            "generate", lambda: harness.generate(config.scale * 2))
    with recorder.span("rvm.sync"):
        sync, report, factor = clock.measure("sync", dataspace.sync)
    warm_pass, warm, _ = clock.measure(
        "warm pass",
        lambda: {qid: dataspace.query(iql).uris() for qid, iql in mix})
    return dataspace, warm, {
        "setup": harness.total(generate, sync, warm_pass),
        "generate": generate, "sync": sync,
        "report": report, "sync_factor": factor,
    }


def run(config, recorder: harness.Recorder):
    harness.pin()
    tally = harness.Tally()
    clock = config.clock
    rng = random.Random(config.seed)
    mix = harness.paper_mix()
    before = layers.program_counters()
    setups = []
    dataspace = None
    for _ in range(harness.set_ups(config, SETUPS)):
        dataspace = None
        gc.collect()
        dataspace, warm, timing = set_up(config, recorder, mix)
        setups.append(timing)
    answers = harness.expected_answers(dataspace, mix)
    tally.check(warm == answers, "warm pass disagrees with the oracle")
    gc.collect()

    if config.trace:
        samples = harness.MixSamples()
        metrics = layers.unmeasured(config)
        metrics.update(layers.sync_layers(
            timing["report"], timing["generate"].seconds,
            timing["sync_factor"]))
        metrics.update(layers.index_layers(dataspace.index_sizes(),
                                           dataspace.view_count))
        metrics.update(layers.query_layers(
            dataspace, mix, recorder, clock, config.notes, answers, tally,
            samples, seconds=config.seconds))
        metrics.update(samples.diagnostics())
        metrics.update(layers.process_layers(clock))
        # durability, service, supervise and refresh: what the program
        # itself counted over this whole process, set-ups included
        layers.fill_idle(metrics, before, layers.program_counters(),
                         dataspace.view_count, config.notes)
        return metrics, None, tally

    samples = harness.run_mix(
        lambda iql: dataspace.query(iql).uris(),
        harness.mix_requests(mix, rng), answers, tally, clock,
        seconds=config.seconds)

    # after the window, so the window itself stays read-only
    mutator = harness.Mutator(dataspace, rng, f"s{config.seed}")
    refresh_ms = [mutator.timed(lambda iql: dataspace.query(iql).uris(),
                                tally, clock)[0]
                  for _ in range(REFRESH_PROBES)]
    refresh_ms = [ms for ms in refresh_ms if ms is not None]
    # the probe starts from an empty heap
    dataspace = mutator = None
    with harness.work_directory("table4") as work:
        filled = wl_ingest.probe(config, rng, tally, work)

    config.audit["samples"] = {**samples.counts(), "set-ups": len(setups),
                               "refresh": len(refresh_ms), "probe rounds": 1}

    def report(pick):
        metrics = {
            "setup_s": harness.median(pick(s["setup"]) for s in setups),
            "sync_views_per_s": harness.median(
                s["report"].views_total / pick(s["sync"]) for s in setups),
            "refresh_p50_ms": harness.median(map(pick, refresh_ms)),
        }
        metrics.update(samples.end_to_end(pick))
        metrics.update(samples.per_query(mix, pick))
        probe = filled(pick)
        metrics["recover_s"] = probe["recover_s"]
        metrics["wal_replay_s"] = probe["wal_replay_s"]
        return metrics

    return *harness.both(report), tally
