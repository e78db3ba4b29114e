"""``serve_mixed_rw`` — writes beside reads through
``Dataspace.serve(workers=2)``.

Two client threads (closed loop) draw from a pool of 64 query texts —
keyword, attribute and path templates filled from the corpus's own
words, folder names and extensions — with Zipf-1.0 popularity. Client 0
replaces every 25th request with a write or delete + ``refresh()`` and a
read-your-write probe through the service (about 2 % writes overall),
while client 1 keeps querying: writes run beside executing reads. The
same index, dictionary and KeySet layers as ``table4_warm``, used
differently: plan cache, result cache and its epoch invalidation,
admission queue, copy-on-write KeySets, dictionary overlay and remap. A
read gain bought with slower writes or more invalidation shows here as
``refresh_p50_ms`` / ``query_qps``.
"""

from __future__ import annotations

import gc
import random
import re
import threading
import time

import harness
import layers
import wl_ingest

POOL_SIZE = 64
WRITE_EVERY = 25
CLIENTS = 2
REPLY_TIMEOUT = 60.0
#: Q1-Q8 passes through the service, result cache bypassed (q*_ms)
PAPER_PASSES = 40
SLICE_SECONDS = 2.0
SETUPS = 3
_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_TEXT_EXTENSIONS = ("txt", "md", "log", "csv", "tex")
#: every write is far smaller, so no pooled answer ever contains one
_SIZES = (2000, 5000, 10000, 50000)


def build_pool(dataspace, rng: random.Random) -> list[str]:
    """64 distinct query texts over the corpus's own vocabulary."""
    vfs = dataspace.vfs
    folders: set[str] = set()
    extensions: set[str] = set()
    text_files: list[str] = []
    for path, directories, files in vfs.walk("/"):
        folders.update(d for d in directories if _NAME.match(d))
        for name in files:
            extension = name.rsplit(".", 1)[-1]
            if _NAME.match(extension):
                extensions.add(extension)
            if extension in _TEXT_EXTENSIONS:
                text_files.append(path.rstrip("/") + "/" + name)
    words: set[str] = set()
    for path in rng.sample(sorted(text_files), min(40, len(text_files))):
        words.update(re.findall(r"\b[a-z]{5,12}\b", vfs.read(path)))
    folders_, extensions_, words_ = (sorted(folders), sorted(extensions),
                                     sorted(words))
    templates = (
        lambda: f'"{rng.choice(words_)}"',
        lambda: f'"{rng.choice(words_)}" and "{rng.choice(words_)}"',
        lambda: f'[size > {rng.choice(_SIZES)}]',
        lambda: f'[size > {rng.choice(_SIZES)} and "{rng.choice(words_)}"]',
        lambda: f'//{rng.choice(folders_)}//*.{rng.choice(extensions_)}',
        lambda: f'//{rng.choice(folders_)}/*',
        lambda: f'//{rng.choice(folders_)}//*["{rng.choice(words_)}"]',
    )
    pool: list[str] = []
    while len(pool) < POOL_SIZE:
        text = rng.choice(templates)()
        if text not in pool:
            pool.append(text)
    return pool


class Served:
    """One set-up: dataspace, its write schedule, the pool and the
    service. ``setup_s`` is generate + sync + watch and first refresh +
    serve + one warm request per pooled text."""

    def __init__(self, config, recorder):
        clock = config.clock
        with recorder.span("dataset.generate"):
            self.generate, self.dataspace, _ = clock.measure(
                "generate", lambda: harness.generate(config.scale))
        with recorder.span("rvm.sync"):
            self.sync, self.report, self.sync_factor = clock.measure(
                "sync", self.dataspace.sync)
        watch, self.mutator, _ = clock.measure(
            "watch + first refresh", lambda: harness.Mutator(
                self.dataspace, random.Random(config.seed),
                f"s{config.seed}"))
        # from the corpus, not from --seed: see harness.CORPUS_SEED
        self.pool = build_pool(self.dataspace,
                               random.Random(harness.CORPUS_SEED))
        self.service = None
        serve, self.warm, _ = clock.measure(
            "serve + 64 warm requests", lambda: self.serve(False),
            sample=False)
        self.setup = harness.total(self.generate, self.sync, watch, serve)
        self.answers: dict[str, list[str]] = {}

    def serve(self, trace_queries: bool) -> dict[str, list[str]]:
        """(Re)start the service and warm its caches with one request
        per pooled text; returns those answers."""
        if self.service is not None:
            self.service.close()
        self.service = self.dataspace.serve(workers=CLIENTS,
                                            trace_queries=trace_queries)
        return {text: self.service.execute(
            text, timeout=REPLY_TIMEOUT).uris() for text in self.pool}

    def close(self) -> None:
        self.service.close()


class Window:
    """The two-client closed loop, run in slices.

    A reference-clock loop inside a client thread would fight the other
    client for the interpreter, so the clock runs between slices, with
    the clients parked: each slice's times are scaled by the mean of
    the factors before and after it.

    A query in flight while ``refresh()`` mutates the indexes fails
    about once per 10k requests (``NameScan.next_batch``: "dictionary
    changed size during iteration"; an IndexError in a range scan) —
    races in the program. The benchmark must pick load on which no
    operation fails, and this workload exists for writes beside reads,
    so a request whose *execution* raised is sent once more, as a
    caller would; its sample covers both attempts, and ``retried``
    counts them (``client.retried``), so the fix shows as that count
    going to 0. A refusal by the service (``Overloaded``, a timeout), a
    second failure or a wrong answer is a failed operation.
    """

    def __init__(self, served: Served, config, tally, recorder):
        self.served = served
        self.tally = tally
        self.recorder = recorder
        self.clock = config.clock
        self.weights = [1.0 / rank
                        for rank in range(1, len(served.pool) + 1)]
        self.rngs = [random.Random(config.seed * CLIENTS + index)
                     for index in range(CLIENTS)]
        self.sent = [0] * CLIENTS
        self.retried = [0] * CLIENTS
        self.samples = harness.MixSamples()
        self.refresh_ms: list[harness.Timed] = []
        self.refresh_views: list[int] = []

    def run(self, seconds: float) -> "Window":
        slices = max(1, round(seconds / SLICE_SECONDS))
        before = self.clock.block()
        for _ in range(slices):
            raw = [[] for _ in range(CLIENTS)]
            refresh: list[float] = []
            started = time.perf_counter()
            threads = [
                threading.Thread(target=self._client,
                                 name=f"ledger-client-{i}",
                                 args=(i, started + seconds / slices,
                                       raw[i], refresh))
                for i in range(CLIENTS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - started
            after = self.clock.block()
            factor = (before + after) / 2.0
            before = after
            self.samples.all_ms.extend(
                harness.Timed(ms * factor, ms)
                for client in raw for ms in client)
            self.samples.waited(harness.Timed(wall * factor, wall))
            self.refresh_ms.extend(harness.Timed(ms * factor, ms)
                                   for ms in refresh)
        self.samples.retried = sum(self.retried)
        return self

    def _ask(self, iql: str) -> list[str]:
        return self.served.service.execute(iql,
                                           timeout=REPLY_TIMEOUT).uris()

    def _client(self, index: int, deadline: float, raw: list[float],
                refresh: list[float]) -> None:
        from repro.core.errors import ServiceError
        served, tally, rng = self.served, self.tally, self.rngs[index]
        pool = served.pool
        while time.perf_counter() < deadline:
            for draw in rng.choices(range(len(pool)), self.weights, k=64):
                if time.perf_counter() >= deadline:
                    return
                self.sent[index] += 1
                request = self.sent[index]
                if index == 0 and request % WRITE_EVERY == 0:
                    with self.recorder.span("rvm.refresh", request=request):
                        ms, views = served.mutator.timed(self._ask, tally,
                                                         None)
                    if ms is not None:
                        refresh.append(ms.raw)
                        self.refresh_views.append(views)
                    continue
                text = pool[draw]
                begun = time.perf_counter()
                try:
                    with self.recorder.span("client.request",
                                            request=request):
                        try:
                            uris = self._ask(text)
                        except ServiceError:
                            raise
                        except Exception:  # noqa: BLE001 - see the class
                            self.retried[index] += 1
                            uris = self._ask(text)
                except Exception as error:  # noqa: BLE001 - counted
                    tally.fail(f"{text}: {type(error).__name__}: {error}")
                    continue
                ms = (time.perf_counter() - begun) * 1000.0
                if tally.check(uris == served.answers[text],
                               f"{text}: wrong answer"):
                    raw.append(ms)


def _set_up(config, recorder, count):
    """``count`` set-ups, one after the other; the last one is kept,
    of the others only their timings."""
    served = None
    timings = []
    for _ in range(count):
        if served is not None:
            served.close()
        served = None
        gc.collect()
        served = Served(config, recorder)
        timings.append((served.setup, served.sync,
                        served.report.views_total))
    return served, timings


def run(config, recorder: harness.Recorder):
    harness.pin()
    tally = harness.Tally()
    mix = harness.paper_mix()
    before = layers.program_counters()
    served, setups = _set_up(config, recorder,
                             harness.set_ups(config, SETUPS))
    try:
        served.answers = {text: harness.oracle_uris(served.dataspace, text)
                          for text in served.pool}
        tally.check(served.warm == served.answers,
                    "warm pass disagrees with the oracle")
        paper_answers = harness.expected_answers(served.dataspace, mix)
        gc.collect()
        if config.trace:
            return _traced(config, recorder, tally, served, mix,
                           paper_answers, before)

        window = Window(served, config, tally, recorder).run(config.seconds)
        paper = harness.run_mix(
            lambda iql: served.service.execute(
                iql, use_cache=False, timeout=REPLY_TIMEOUT).uris(),
            harness.mix_requests(mix, random.Random(config.seed)),
            paper_answers, tally, config.clock, seconds=0.0,
            min_passes=PAPER_PASSES)
    finally:
        served.close()
    # the probe starts from an empty heap, as it does in the other
    # workloads: full collections over a dead dataspace landed inside
    # its WAL replay in some runs and not in others
    served = window.served = None
    config.audit["retried"] = window.samples.retried
    config.audit["samples"] = {
        **paper.counts(), "query": len(window.samples.all_ms),
        "set-ups": len(setups), "refresh": len(window.refresh_ms),
        "probe rounds": 1}
    with harness.work_directory("serve") as work:
        filled = wl_ingest.probe(config, random.Random(config.seed), tally,
                                 work)

    def report(pick):
        metrics = {
            "setup_s": harness.median(pick(setup) for setup, _, _ in setups),
            "sync_views_per_s": harness.median(
                views / pick(sync) for _, sync, views in setups),
            "refresh_p50_ms": harness.median(map(pick, window.refresh_ms)),
        }
        metrics.update(window.samples.end_to_end(pick))
        metrics.update(paper.per_query(mix, pick))
        probe = filled(pick)
        metrics["recover_s"] = probe["recover_s"]
        metrics["wal_replay_s"] = probe["wal_replay_s"]
        return metrics

    return *harness.both(report), tally


def _ratio(stats: dict, prefix: str) -> float:
    hits = stats.get(f"{prefix}.hits", 0)
    total = hits + stats.get(f"{prefix}.misses", 0)
    return hits / total if total else 0.0


def _traced(config, recorder, tally, served, mix, paper_answers, before):
    """An untraced and a traced window of the same length (their
    throughput ratio is the tracing overhead), the service's own
    counters from the traced one, then the query-layer probes on the
    served dataspace."""
    from repro.rvm.uridict import global_uri_dictionary

    clock = config.clock
    share = config.seconds * 0.35
    plain = Window(served, config, tally, harness.Recorder(False)).run(share)
    served.serve(trace_queries=True)
    dictionary = global_uri_dictionary()
    dictionary_before = dictionary.stats()
    traced = Window(served, config, tally, recorder).run(share)
    dictionary_after = dictionary.stats()
    stats = served.service.stats(include_global=False)
    invalidations = served.service.result_cache.invalidations
    served.close()

    metrics = layers.unmeasured(config)
    metrics.update(layers.sync_layers(served.report, served.generate.seconds,
                                      served.sync_factor))
    metrics.update(layers.index_layers(served.dataspace.index_sizes(),
                                       served.dataspace.view_count))
    metrics.update(layers.query_layers(
        served.dataspace, mix, recorder, clock, config.notes, paper_answers,
        tally, harness.MixSamples(), seconds=config.seconds * 0.3))
    queue = stats.get("latency.queue_seconds")
    plain_qps = plain.samples.end_to_end()["query_qps"]
    refresh_ms = [ms.seconds for ms in traced.refresh_ms]
    metrics.update({
        # per run here, not per pass: remaps and string lookups come
        # from the writes racing the reads, which a quiet pass never has
        **{f"rvm.uridict.{key}": dictionary_after[key] - dictionary_before[key]
           for key in ("handoffs", "lookups", "remaps")},
        "rvm.refresh.views_per_call":
            harness.median(traced.refresh_views),
        "rvm.refresh.p95_ms": harness.percentile(refresh_ms, 0.95),
        "service.cache.result.hit_ratio": _ratio(stats, "cache.result"),
        "service.cache.plan.hit_ratio": _ratio(stats, "cache.plan"),
        "service.queue_wait_p95_us":
            clock.scale(queue.p95) * 1e6 if queue else 0.0,
        "service.admission.rejected": stats.get("admission.rejected", 0),
        "service.invalidations": invalidations,
        "trace.overhead_pct":
            (plain_qps - traced.samples.end_to_end()["query_qps"])
            / plain_qps * 100.0 if plain_qps else 0.0,
    })
    metrics.update(traced.samples.diagnostics())
    metrics.update(layers.process_layers(clock))
    layers.fill_idle(metrics, before, layers.program_counters(),
                     served.dataspace.view_count, config.notes)
    return metrics, None, tally
