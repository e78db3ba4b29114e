"""``ingest_recover`` — the write side: Figure 5 indexing with the WAL
on, change propagation, checkpoint, and both recovery paths.

One *round* is: fresh durable dataspace -> ``sync()`` -> N x (write or
delete a file + ``refresh()``) -> copy the directory (WAL-only) ->
``checkpoint()`` -> M more mutations -> ``close()`` ->
``Dataspace.open`` + first query on the checkpointed directory, then on
the WAL-only copy. Rounds interleave the phases, so drift during a run
hits every phase alike; medians are taken over rounds.

The same round, once and at :data:`harness.PROBE_SCALE`, is the
*fill-in probe* the other workloads use for the end-to-end metrics
their own facade cannot produce (see README.md).
"""

from __future__ import annotations

import gc
import random
import shutil
import time
from pathlib import Path

import harness
import layers

#: Q1-Q8 passes timed on each recovered dataspace
RECOVERED_PASSES = 8
FIRST_QUERY = "q1"


def _directory_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _wal_counters(dataspace) -> dict[str, float]:
    snapshot = dataspace.telemetry()
    return {name: snapshot.get(f"wal.{name}", 0)
            for name in ("appends", "bytes", "fsyncs")}


def _reopen(directory: Path, mix, answers, tally, samples, passes, rng,
            recorder, clock, span_name) -> dict:
    """``Dataspace.open`` through the first correct answer, then the
    Q1-Q8 comparison with the pre-close answers and the timed passes."""
    from repro.facade import Dataspace
    iql = dict(mix)[FIRST_QUERY]

    def open_and_ask():
        dataspace = Dataspace.open(directory)
        opened = time.perf_counter()
        return (dataspace, opened, dataspace.query(iql).uris(),
                time.perf_counter())

    with recorder.span(span_name):
        span, (dataspace, opened, first, ended), factor = clock.measure(
            span_name, open_and_ask)
    try:
        correct = tally.check(first == answers[FIRST_QUERY],
                              f"{span_name}: wrong first answer")
        with recorder.span("client.recovered_mix"):
            harness.run_mix(lambda q: dataspace.query(q).uris(),
                            harness.mix_requests(mix, rng), answers, tally,
                            clock, seconds=0.0, min_passes=passes,
                            samples=samples)
        report = dataspace.last_recovery
    finally:
        dataspace.close()
    return {"span": span if correct else None,
            "open_s": report.seconds * factor,
            "first_query_ms": (ended - opened) * factor * 1000.0,
            "records_replayed": report.records_replayed}


def ingest_round(*, scale: float, rng: random.Random, label: str,
                 directory: Path, mutations, passes: int,
                 tally: harness.Tally, samples: harness.MixSamples,
                 recorder: harness.Recorder, clock: harness.ReferenceClock,
                 traced: bool = False) -> dict:
    """One round; returns its measurements, durations as
    :class:`harness.Timed` (None where a step failed)."""
    from repro.durability import DurabilityConfig

    mix = harness.paper_mix()
    live = directory / "live"
    wal_only = directory / "wal-only"
    out: dict = {}

    with recorder.span("dataset.generate"):
        out["setup"], dataspace, _ = clock.measure(
            "generate (durable)", lambda: harness.generate(
                scale, durability=DurabilityConfig(directory=live,
                                                   fsync="interval")))
    try:
        before = _wal_counters(dataspace) if traced else None
        with recorder.span("rvm.sync"):
            out["sync"], report, out["sync_factor"] = clock.measure(
                "sync (WAL on)", dataspace.sync)
        out["sync_report"] = report
        out["views"] = report.views_total
        if traced:
            after = _wal_counters(dataspace)
            out["wal"] = {k: after[k] - before[k] for k in after}
            out["index_sizes"] = dataspace.index_sizes()

        def query(iql):
            return dataspace.query(iql).uris()

        # the first refresh() polls the feeds, which re-versions their
        # views once; the oracle runs after it
        mutator = harness.Mutator(dataspace, rng, label)
        answers = harness.expected_answers(dataspace, mix)
        refresh_ms: list[harness.Timed] = []
        processed: list[int] = []

        def mutate(count):
            for _ in range(count):
                with recorder.span("rvm.refresh"):
                    ms, views = mutator.timed(query, tally, clock)
                if ms is not None:
                    refresh_ms.append(ms)
                    processed.append(views)

        mutate(mutations[0])
        dataspace.durability.sync()
        shutil.copytree(live, wal_only)
        with recorder.span("durability.checkpoint"):
            out["checkpoint"], info, _ = clock.measure(
                "checkpoint", dataspace.checkpoint)
        out["checkpoint_bytes"] = _directory_bytes(info.path)
        mutate(mutations[1])
        out["refresh_ms"] = refresh_ms
        out["refresh_views"] = processed
        pre_close = {qid: query(iql) for qid, iql in mix}
        tally.check(pre_close == answers,
                    "engine and oracle disagree before close")
    finally:
        dataspace.close()

    out["recovery"] = _reopen(live, mix, pre_close, tally, samples, passes,
                              rng, recorder, clock,
                              "durability.recovery.checkpoint")
    out["wal_recovery"] = _reopen(wal_only, mix, pre_close, tally, samples,
                                  passes, rng, recorder, clock,
                                  "durability.recovery.wal_only")
    out["recover"] = out["recovery"]["span"]
    out["wal_replay"] = out["wal_recovery"]["span"]
    shutil.rmtree(directory, ignore_errors=True)
    return out


def _over_rounds(rounds, key, pick) -> float:
    return harness.median(pick(r[key]) for r in rounds
                          if r[key] is not None)


def _write_side(rounds, pick) -> dict[str, float]:
    """The four write-side metrics, medians over ``rounds``."""
    return {
        "sync_views_per_s": harness.median(
            r["views"] / pick(r["sync"]) for r in rounds),
        "refresh_p50_ms": harness.median(
            pick(ms) for r in rounds for ms in r["refresh_ms"]),
        "recover_s": _over_rounds(rounds, "recover", pick),
        "wal_replay_s": _over_rounds(rounds, "wal_replay", pick),
    }


def probe(config, rng: random.Random, tally: harness.Tally, work: Path):
    """The fill-in probe: one small round; see the module docstring.
    Returns ``filled(pick) -> metrics``. The caller has let go of its
    own dataspace: the probe's numbers should not depend on whose heap
    it runs in."""
    gc.collect()
    result = ingest_round(
        scale=config.probe_scale, rng=rng, label=f"p{config.seed}",
        directory=work / "probe", mutations=config.probe_mutations,
        passes=0, tally=tally, samples=harness.MixSamples(),
        recorder=harness.Recorder(False), clock=config.clock)
    return lambda pick: _write_side([result], pick)


def run(config, recorder: harness.Recorder):
    harness.pin()
    tally = harness.Tally()
    rng = random.Random(config.seed)
    samples = harness.MixSamples()
    rounds: list[dict] = []
    started = time.perf_counter()
    with harness.work_directory("ingest") as work:
        if config.trace:
            return _traced(config, recorder, tally, rng, samples, work)
        while (len(rounds) < config.rounds
               or time.perf_counter() - started < config.seconds):
            rounds.append(ingest_round(
                scale=config.scale, rng=rng,
                label=f"s{config.seed}r{len(rounds)}",
                directory=work / f"round-{len(rounds)}",
                mutations=config.mutations, passes=RECOVERED_PASSES,
                tally=tally, samples=samples, recorder=recorder,
                clock=config.clock))

    mix = harness.paper_mix()
    config.audit["samples"] = {
        **samples.counts(), "rounds": len(rounds),
        "refresh": sum(len(r["refresh_ms"]) for r in rounds)}

    def report(pick):
        metrics = {"setup_s": _over_rounds(rounds, "setup", pick)}
        metrics.update(_write_side(rounds, pick))
        metrics.update(samples.end_to_end(pick))
        metrics.update(samples.per_query(mix, pick))
        return metrics

    return *harness.both(report), tally


def _traced(config, recorder, tally, rng, samples, work):
    """A durability-off ``sync()`` before and after one traced round
    (their mean is the base the WAL's share of indexing is taken from:
    the first runs cold, the last warm), then the query-layer probes on
    the plain dataspace."""
    clock = config.clock
    before = layers.program_counters()

    def plain_sync():
        with recorder.span("dataset.generate"):
            generate, dataspace, _ = clock.measure(
                "generate", lambda: harness.generate(config.scale))
        with recorder.span("rvm.sync.durability_off"):
            sync, _, _ = clock.measure("sync (WAL off)", dataspace.sync)
        return dataspace, generate.seconds, sync.seconds

    _, _, cold_sync_s = plain_sync()
    result = ingest_round(
        scale=config.scale, rng=rng, label=f"s{config.seed}t",
        directory=work / "traced", mutations=config.mutations,
        passes=RECOVERED_PASSES, tally=tally, samples=samples,
        recorder=recorder, clock=clock, traced=True)
    plain, generate_s, warm_sync_s = plain_sync()
    plain_sync_s = (cold_sync_s + warm_sync_s) / 2.0

    metrics = layers.unmeasured(config)
    metrics.update(layers.sync_layers(result["sync_report"], generate_s,
                                      result["sync_factor"]))
    metrics.update(layers.index_layers(result["index_sizes"],
                                       result["views"]))
    wal = result["wal"]
    recovery = result["recovery"]
    refresh_ms = [ms.seconds for ms in result["refresh_ms"]]
    metrics.update({
        "durability.wal.bytes_per_view": wal["bytes"] / result["views"],
        "durability.wal.appends": wal["appends"],
        "durability.wal.fsyncs": wal["fsyncs"],
        "durability.wal.sync_overhead_pct":
            (result["sync"].seconds - plain_sync_s) / plain_sync_s * 100.0,
        "durability.checkpoint.seconds": result["checkpoint"].seconds,
        "durability.checkpoint.bytes": result["checkpoint_bytes"],
        "durability.recovery.open_s": recovery["open_s"],
        "durability.recovery.records_replayed":
            result["wal_recovery"]["records_replayed"],
        "durability.recovery.first_query_ms": recovery["first_query_ms"],
        "rvm.refresh.views_per_call": harness.median(result["refresh_views"]),
        "rvm.refresh.p95_ms": harness.percentile(refresh_ms, 0.95),
    })
    mix = harness.paper_mix()
    metrics.update(layers.query_layers(
        plain, mix, recorder, clock, config.notes,
        harness.expected_answers(plain, mix), tally, harness.MixSamples(),
        seconds=config.seconds / 2))
    metrics.update(samples.diagnostics())
    metrics.update(layers.process_layers(clock))
    layers.fill_idle(metrics, before, layers.program_counters(),
                     result["views"], config.notes)
    return metrics, None, tally
