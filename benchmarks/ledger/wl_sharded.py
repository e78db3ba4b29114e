"""``sharded_roundtrip`` — the ``--shards`` round trip: one client calls
``supervisor.query`` with the Q1-Q8 mix over two shard worker processes,
keys rotating so every (query, shard) pair is hit equally; no kills.

Ring lookup, frame encode, pipe, worker queue, execute, JSON-encode the
reply, pipe, decode. Large replies (Q1) make ``supervise/wire.py`` the
dominant extra cost; ``table4_warm`` bypasses all of it.

Each shard generates its own corpus (generator seed + shard index)
inside its worker, so answers are compared with the first acknowledged
answer per (query, shard), and the workers run the program's own
engine-vs-oracle verification once.

Every span here crosses processes, so nothing is put on the reference
clock and nothing is pinned: spawn, warm-up and round trips are wall
clock on whatever processors the supervisor and its workers get. Only
what runs inside this process after the fleet is closed (the fill-in
probe; in the traced pass, the layer probes on a copy of shard 0's
corpus) is pinned and scaled like the other workloads.
"""

from __future__ import annotations

import io
import json
import random
import time
from pathlib import Path

import harness
import layers
import wl_ingest

SHARDS = 2
REPLY_TIMEOUT = 60.0
VERIFY_QUERIES = 10
#: set-ups per run; each spawns and warms a fleet, ~4 s
SETUPS = 2


def shard_keys(supervisor, rng: random.Random) -> list[str]:
    """One routing key per shard, drawn from the seed."""
    keys: dict[int, str] = {}
    while len(keys) < supervisor.shards:
        key = f"tenant-{rng.randrange(1 << 30)}"
        keys.setdefault(supervisor.shard_for(key), key)
    return [keys[shard] for shard in range(supervisor.shards)]


def start(directory, config):
    from repro.supervise import ShardSupervisor
    return ShardSupervisor(directory, shards=SHARDS, scale=config.scale,
                           seed=harness.CORPUS_SEED).start()


def requests_for(mix, keys) -> list[tuple[str, tuple, tuple]]:
    return [(qid, (qid, shard), (iql, key))
            for qid, iql in mix for shard, key in enumerate(keys)]


def _wall(call):
    begun = time.perf_counter()
    value = call()
    seconds = time.perf_counter() - begun
    return harness.Timed(seconds, seconds), value


def set_up(config, recorder, mix, rng, directory):
    """Spawn (each worker generates, syncs and checkpoints its shard)
    and take the first acknowledged answer per (query, shard) as the
    warm-up."""
    with recorder.span("supervise.spawn"):
        spawn, supervisor = _wall(lambda: start(directory, config))
    try:
        requests = requests_for(mix, shard_keys(supervisor, rng))
        warm, answers = _wall(lambda: {
            key: supervisor.query(iql, key=route, timeout=REPLY_TIMEOUT).uris
            for _, key, (iql, route) in requests})
    except BaseException:
        supervisor.close()
        raise
    return supervisor, requests, answers, {
        "setup": harness.total(spawn, warm), "spawn": spawn}


def run(config, recorder: harness.Recorder):
    tally = harness.Tally()
    rng = random.Random(config.seed)
    mix = harness.paper_mix()
    before = layers.program_counters()
    setups = []
    supervisor = None
    with harness.work_directory("sharded") as work:
        try:
            for index in range(harness.set_ups(config, SETUPS)):
                if supervisor is not None:
                    supervisor.close()
                supervisor, requests, answers, timing = set_up(
                    config, recorder, mix, rng, work / f"fleet-{index}")
                setups.append(timing)
            for shard in range(SHARDS):
                verdict = supervisor.verify_shard(shard,
                                                  count=VERIFY_QUERIES)
                tally.check(bool(verdict.get("verify_ok")),
                            f"shard {shard}: engine and oracle disagree")

            def call(argument):
                iql, route = argument
                return supervisor.query(iql, key=route,
                                        timeout=REPLY_TIMEOUT).uris

            if config.trace:
                metrics, worker_sync_s = _traced(
                    config, recorder, tally, supervisor, requests, answers,
                    timing, before, work / f"fleet-{len(setups) - 1}")
            else:
                samples = harness.run_mix(call, requests, answers, tally,
                                          None, seconds=config.seconds)
        finally:
            if supervisor is not None:
                supervisor.close()
        # the fleet is gone: one interpreter runs everything from here
        harness.pin()
        if config.trace:
            _copy_layers(config, recorder, tally, mix, answers, metrics,
                         worker_sync_s)
            return metrics, None, tally
        filled = wl_ingest.probe(config, rng, tally, work)
    config.audit["samples"] = {**samples.counts(), "set-ups": len(setups),
                               "probe rounds": 1}

    def report(pick):
        metrics = {"setup_s": harness.median(pick(s["setup"])
                                             for s in setups)}
        metrics.update(filled(pick))
        metrics.update(samples.end_to_end(pick))
        metrics.update(samples.per_query(mix, pick))
        return metrics

    return *harness.both(report), tally


def reply_frame(uris) -> dict:
    """A query reply as the worker frames it (``ShardWorker._reply_ok``);
    the frame itself never reaches the caller, so sizes and codec costs
    are taken from this reconstruction."""
    return {"op": "reply", "id": 1, "ok": True, "uris": list(uris),
            "count": len(uris), "elapsed": 0.001234, "degraded": False,
            "epoch": 1}


def wire_layers(answers, recorder, repeats: int = 30) -> dict[str, float]:
    """``write_frame`` / ``read_frame`` over ``BytesIO`` with the
    largest recorded reply (Q1's), and the replies' sizes."""
    from repro.supervise import read_frame, write_frame
    sizes = sorted(len(json.dumps(reply_frame(uris), separators=(",", ":")))
                   for uris in answers.values())
    frame = reply_frame(max(answers.values(), key=len))
    encode, decode = [], []
    for _ in range(repeats):
        stream = io.BytesIO()
        with recorder.span("supervise.wire.encode"):
            begun = time.perf_counter()
            write_frame(stream, frame)
            encode.append(time.perf_counter() - begun)
        stream.seek(0)
        with recorder.span("supervise.wire.decode"):
            begun = time.perf_counter()
            read_frame(stream)
            decode.append(time.perf_counter() - begun)
    kilobytes = sizes[-1] / 1024.0
    return {
        "supervise.wire.encode_us_per_kb":
            harness.median(encode) * 1e6 / kilobytes,
        "supervise.wire.decode_us_per_kb":
            harness.median(decode) * 1e6 / kilobytes,
        "supervise.wire.reply_bytes_p50": harness.median(sizes),
        "supervise.wire.reply_bytes_max": sizes[-1],
    }


def _traced(config, recorder, tally, supervisor, requests, answers, timing,
            before, directory: Path):
    """Alternate plain and stitched-trace round trips over every
    (query, shard) pair. The stitched spans (ring lookup, dispatch,
    worker queue, the worker's operators) and ``ShardResult`` carry the
    per-layer times; the plain calls give the client's view. All wall
    clock."""
    plain = harness.MixSamples()
    exec_ms: list[float] = []
    overhead_ms: list[float] = []
    stitched: dict[str, list[float]] = {}
    passes: list[dict[str, float]] = []
    plain_s = traced_s = 0.0
    deadline = time.perf_counter() + config.seconds
    while not passes or time.perf_counter() < deadline:
        self_ms: dict[str, float] = {}
        rows: dict[str, int] = {}
        counters: dict[str, int] = {}
        for qid, key, (iql, route) in requests:
            with recorder.span("client.request", request=len(passes)):
                begun = time.perf_counter()
                result = supervisor.query(iql, key=route,
                                          timeout=REPLY_TIMEOUT)
                seconds = time.perf_counter() - begun
            plain_s += seconds
            if tally.check(result.uris == answers[key],
                           f"{qid}: wrong answer"):
                plain.add(qid, harness.Timed(seconds * 1e3, seconds * 1e3))
                exec_ms.append(result.elapsed_seconds * 1e3)
                overhead_ms.append((seconds - result.elapsed_seconds) * 1e3)
            with recorder.span("supervisor.explain_analyze",
                               request=len(passes)):
                begun = time.perf_counter()
                report = supervisor.explain_analyze(iql, key=route,
                                                    timeout=REPLY_TIMEOUT)
                traced_s += time.perf_counter() - begun
            tally.check(report.result.uris == answers[key],
                        f"{qid}: wrong answer (traced)")
            for span in report.trace.spans():
                if span.operator in ("RingLookup", "Dispatch",
                                     "WorkerQueue"):
                    stitched.setdefault(span.operator, []).append(
                        span.elapsed_seconds or 0.0)
            layers.fold_spans(report.trace.roots, self_ms, rows, 1.0)
            for name, value in report.trace.counters.items():
                counters[name] = counters.get(name, 0) + value
        passes.append({**layers.operator_metrics(self_ms, rows),
                       **layers.counter_metrics(counters)})

    stats = supervisor.stats()
    views = sum(stats[f"shard.{shard}.views"] for shard in range(SHARDS))
    metrics = layers.unmeasured(config)
    metrics.update({name: harness.median(p[name] for p in passes)
                    for name in passes[0]})
    metrics.update(wire_layers(answers, recorder))
    metrics.update({
        "supervise.spawn_s": timing["spawn"].raw,
        "supervise.worker.exec_ms": harness.median(exec_ms),
        "supervise.roundtrip_overhead_ms": harness.median(overhead_ms),
        "supervise.ring_lookup_us":
            harness.median(stitched.get("RingLookup", ())) * 1e6,
        "supervise.dispatch_ms":
            harness.median(stitched.get("Dispatch", ())) * 1e3,
        "supervise.worker_queue_ms":
            harness.median(stitched.get("WorkerQueue", ())) * 1e3,
        "supervise.shard.restarts": sum(
            stats[f"shard.{shard}.restarts"] for shard in range(SHARDS)),
        "rvm.sync.views": views,
        "durability.checkpoint.bytes": sum(
            f.stat().st_size for f in directory.glob("shard-*/checkpoint-*/*")),
        "trace.overhead_pct": (traced_s - plain_s) / plain_s * 100.0,
    })
    metrics.update(plain.diagnostics())
    # what the workers counted reaches the supervisor's registry with
    # their replies; a ping each brings in the rest
    supervisor.flush_telemetry()
    after = layers.program_counters()
    layers.fill_idle(metrics, before, after, views, config.notes)
    # the workers' own timers round their sync(), WAL on, per shard (the
    # traced pass spawns one fleet)
    worker_sync_s = (after.get("sync.scan_seconds.total", 0.0)
                     - before.get("sync.scan_seconds.total", 0.0)) / SHARDS
    return metrics, worker_sync_s


def _copy_layers(config, recorder, tally, mix, answers, metrics,
                 worker_sync_s: float) -> None:
    """The layers below the wire, on a copy of shard 0's corpus in this
    process (generator seed + 0: the corpus of the other workloads).
    Through the wire only the worker's operator spans arrive; the query
    path by stage, the substrate probes, Table 3 and Figure 5's split
    need calls into the layers. Shard 0's acknowledged answers are also
    checked against the oracle here."""
    clock = config.clock
    with recorder.span("dataset.generate"):
        generate, dataspace, _ = clock.measure(
            "generate (copy of shard 0)",
            lambda: harness.generate(config.scale))
    with recorder.span("rvm.sync.durability_off"):
        sync, report, factor = clock.measure("sync (copy, WAL off)",
                                             dataspace.sync)
    expected = harness.expected_answers(dataspace, mix)
    tally.check(all(answers[qid, 0] == expected[qid] for qid, _ in mix),
                "shard 0 disagrees with the oracle on its corpus")
    views = metrics["rvm.sync.views"]
    metrics.update(layers.sync_layers(report, generate.seconds, factor))
    metrics["rvm.sync.views"] = views
    metrics.update(layers.index_layers(dataspace.index_sizes(),
                                       dataspace.view_count))
    queries = layers.query_layers(
        dataspace, mix, recorder, clock, config.notes, expected, tally,
        harness.MixSamples(), seconds=config.seconds / 2)
    # operators, counters and the overhead came through the wire
    metrics.update({name: value for name, value in queries.items()
                    if metrics[name] is None})
    # a shard's sync() (WAL on, fsync always, beside the other shard's)
    # against this one (WAL off, alone): both wall clock
    metrics["durability.wal.sync_overhead_pct"] = (
        (worker_sync_s - sync.raw) / sync.raw * 100.0)
    metrics.update(layers.process_layers(clock))
