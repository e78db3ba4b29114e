"""The perf ledger's one command.

Driver form (one workload, one pass)::

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S \
        --trace 0|1

builds the workload from the seed, measures for ``S`` seconds, checks
every answer and prints every metric by name with its unit; the last
line of standard output is the result object. ``--trace 0`` gives the
end-to-end metrics (tracing off), ``--trace 1`` the per-layer metrics
from a separate traced pass, whose spans go to ``.work/trace.<W>.jsonl``.

Ledger form (no ``--trace``)::

    PYTHONPATH=src python benchmarks/ledger/run.py [--workload W] [--seed N]
        [--quick] [--runs K] [--json OUT]

runs both passes of each workload, each in a fresh process, and writes
one environment-stamped ledger that ``compare.py`` reads.

The corpus size and generator seed are constants in ``harness.py``, not
flags: every checked-in number is measured at them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field

import harness
import layers


@dataclass
class Config:
    workload: str
    seed: int
    seconds: float
    trace: bool
    declared: dict
    scale: float = harness.BASE_SCALE
    probe_scale: float = harness.PROBE_SCALE
    #: one set-up per run where a workload would make several
    quick: bool = False
    #: ingest_recover: rounds at least
    rounds: int = 3
    mutations: tuple = (50, 20)
    probe_mutations: tuple = (60, 20)
    #: why a per-layer metric is null, by metric or entry point
    notes: dict = field(default_factory=dict)
    #: what goes on the audit line beside the wall-clock readings
    audit: dict = field(default_factory=dict)
    clock: harness.ReferenceClock = field(
        default_factory=harness.ReferenceClock)


def quick(config: Config) -> None:
    """The tiny profile: one set-up, one round, fewer writes."""
    config.quick = True
    config.scale = config.probe_scale
    config.rounds = 1
    config.mutations = config.probe_mutations = (10, 4)


NOT_MEASURED = "not measured on this workload"


def run_workload(config: Config) -> tuple[dict, dict]:
    """One pass of one workload; returns the result object and the
    audit record: each end-to-end metric as the wall clock read it, the
    long calls the reference clock measured, requests sent twice."""
    module = __import__({
        "table4_warm": "wl_table4", "ingest_recover": "wl_ingest",
        "serve_mixed_rw": "wl_serve", "sharded_roundtrip": "wl_sharded",
    }[config.workload])
    recorder = harness.Recorder(enabled=config.trace)
    metrics, raw, tally = module.run(config, recorder)
    recorder.write(harness.WORK_DIR / f"trace.{config.workload}.jsonl")

    kind = "per_layer" if config.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in config.declared[kind]}
    if set(metrics) != set(units):
        raise SystemExit(
            f"{config.workload}: measured and declared {kind} metrics "
            f"differ: missing {sorted(set(units) - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - set(units))}")
    for name in units:
        value = metrics[name]
        shown = "null" if value is None else f"{value:.6g}"
        beside = ""
        if raw is not None and raw[name] != value:
            beside = (f"  (wall clock {raw[name]:.6g}, "
                      f"x{value / raw[name]:.3f})")
        print(f"{config.workload}  {name} = {shown} {units[name]}{beside}")
    clock = config.clock
    if clock.spins:
        print(f"{config.workload}  processor time of this process is at "
              f"reference speed: the reference loop took "
              f"{clock.median_spin_ms():.3f} ms (median), "
              f"{clock.REFERENCE_SECONDS * 1000:g} ms nominal; factors "
              f"{layers.factor_range(clock)}")
    if "samples" in config.audit:
        print(f"{config.workload}  samples: " + ", ".join(
            f"{what}={count}"
            for what, count in config.audit["samples"].items()))
    for name in units:
        if metrics[name] is None:
            config.notes.setdefault(name, NOT_MEASURED)
    for name, reason in sorted(config.notes.items()):
        if metrics.get(name) is None:
            print(f"{config.workload}  note: {name}: {reason}")
    for reason in tally.reasons:
        print(f"{config.workload}  failed: {reason}")
    print(f"{config.workload}  operations attempted={tally.attempted} "
          f"failed={tally.failed}")
    result = {
        "correct": tally.failed == 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    audit = {"wall_clock": raw, "measured_calls": clock.audit,
             **config.audit}
    return result, audit


# -- the ledger form ----------------------------------------------------------

def environment() -> dict:
    def git(*argv):
        try:
            return subprocess.run(
                ("git",) + argv, cwd=harness.ROOT, capture_output=True,
                text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--", "src")),
        "stamped": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


AUDIT = "audit "


def child_pass(args, workload: str, trace: int) -> dict:
    """One driver-form run in a fresh process: its last line (the
    result object) with the audit line before it folded in."""
    argv = [sys.executable, __file__, "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(trace)]
    if args.quick:
        argv.append("--quick")
    done = subprocess.run(argv, cwd=harness.ROOT, capture_output=True,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} --trace {trace} exited "
                         f"{done.returncode}")
    print("\n".join(lines[:-2]))
    return {**json.loads(lines[-1]),
            "audit": json.loads(lines[-2][len(AUDIT):])}


def layer_shares(workload: str, layer: dict) -> dict[str, float]:
    """Each workload's time budget: the share of its end-to-end unit
    (one Q1-Q8 pass, one ingest round's sync, one round trip) that each
    layer's time covers, in percent."""
    def value(name):
        return (layer.get(name) or {}).get("value") or 0.0

    if workload == "sharded_roundtrip":
        total = value("supervise.worker.exec_ms") + value(
            "supervise.roundtrip_overhead_ms")
        parts = {
            "supervise.router (ring lookup)":
                value("supervise.ring_lookup_us") / 1000.0,
            "supervise.worker (queue)": value("supervise.worker_queue_ms"),
            "supervise.worker (execute)": value("supervise.worker.exec_ms"),
            "supervise.wire + pipes": max(
                0.0, value("supervise.roundtrip_overhead_ms")
                - value("supervise.worker_queue_ms")),
        }
    elif workload == "ingest_recover":
        total = (value("rvm.sync.access_s") + value("rvm.sync.catalog_s")
                 + value("rvm.sync.indexing_s"))
        wal = total * value("durability.wal.sync_overhead_pct") / (
            100.0 + value("durability.wal.sync_overhead_pct"))
        parts = {
            "rvm.sync (access)": value("rvm.sync.access_s"),
            "rvm.sync (catalog)": value("rvm.sync.catalog_s"),
            "rvm.sync (indexing, WAL capture included)":
                value("rvm.sync.indexing_s"),
            "durability.wal (share of the three above)": wal,
        }
    else:
        # Dataspace.query = drain + the rest; the rest holds parse, plan
        # and compile. Operator self times come from traced executions,
        # which run slower, so they split the drain by their proportions.
        drain = value("query.engine.drain_ms")
        rest = value("query.executor.materialize_ms")
        total = drain + rest
        front = {
            "query.parser": value("query.parser.parse_us") / 1000.0,
            "query.optimizer": value("query.optimizer.plan_us") / 1000.0,
            "query.engine (compile)":
                value("query.engine.compile_us") / 1000.0,
        }
        parts = dict(front)
        parts["query.executor (materialize)"] = max(
            0.0, rest - sum(front.values()))
        operators = {name[:-len(".self_ms")]: value(name) for name in layer
                     if name.startswith("query.op.")
                     and name.endswith(".self_ms")}
        traced = sum(operators.values())
        for name, self_ms in operators.items():
            parts[name] = drain * self_ms / traced if traced else 0.0
    return {name: round(part / total * 100.0, 2) if total else 0.0
            for name, part in parts.items()}


def operator_table(workload: str) -> dict[str, dict[str, float]]:
    """From the traced pass's span file: per query, each operator's
    self time in ms (raw, median over passes) — which operator a query's
    time sits in."""
    path = harness.WORK_DIR / f"trace.{workload}.jsonl"
    if not path.is_file():
        return {}
    with open(path) as lines:
        spans = [json.loads(line) for line in lines]
    sums: dict[tuple, float] = {}
    for span in spans:
        if not span["name"].startswith("query.op."):
            continue
        query = spans[spans[span["parent"]]["parent"]]["name"]
        key = (query.split(".", 1)[1], span["name"][len("query.op."):],
               span["request"])
        sums[key] = sums.get(key, 0.0) + (span["end"] - span["start"])
    table: dict[str, dict[str, float]] = {}
    for query, operator in sorted({key[:2] for key in sums}):
        table.setdefault(query, {})[operator] = round(harness.median(
            value for key, value in sums.items()
            if key[:2] == (query, operator)) * 1000.0, 4)
    return table


def ledger(args) -> int:
    workloads = [args.workload] if args.workload else harness.WORKLOADS
    out = {"schema": 1, "environment": environment(),
           "config": {"seed": args.seed, "corpus_seed": harness.CORPUS_SEED,
                      "seconds": args.seconds, "scale": harness.BASE_SCALE,
                      "quick": args.quick, "runs": args.runs},
           "workloads": {}}
    failed = 0
    for workload in workloads:
        runs = [child_pass(args, workload, 0) for _ in range(args.runs)]
        traced = child_pass(args, workload, 1)
        out["workloads"][workload] = {
            "end_to_end_runs": runs,
            "per_layer": traced,
            "layer_share_pct": layer_shares(workload, traced["metrics"]),
            "operator_self_ms_by_query": operator_table(workload),
        }
        failed += sum(r["failed"] for r in runs) + traced["failed"]
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(out, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed window per pass (default: "
                             "BENCHMARK.json run_seconds; 1.5 with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver form: 0 end-to-end, 1 per-layer")
    parser.add_argument("--quick", action="store_true",
                        help="tiny profile, all workloads in under a minute")
    parser.add_argument("--runs", type=int, default=1,
                        help="ledger form: end-to-end runs per workload")
    parser.add_argument("--json", help="ledger form: write the ledger here")
    args = parser.parse_args(argv)

    harness.bootstrap()
    declared = harness.load_declaration()
    if args.seconds is None:
        args.seconds = 1.5 if args.quick else float(declared["run_seconds"])
    if args.trace is None:
        return ledger(args)
    if args.workload is None:
        parser.error("--trace needs --workload")
    config = Config(workload=args.workload, seed=args.seed,
                    seconds=args.seconds, trace=bool(args.trace),
                    declared=declared)
    if args.quick:
        quick(config)
    result, audit = run_workload(config)
    print(AUDIT + json.dumps(audit))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
