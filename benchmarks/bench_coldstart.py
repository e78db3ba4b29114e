"""Cold-start: snapshot + WAL recovery vs full re-sync.

The point of ``repro.durability``: a process that inherits a durability
directory should reach its first query answer much faster than one that
re-scans and re-indexes every data source. This script measures
*time-to-first-query* three ways over the same generated dataspace —

* **full re-sync** — fresh RVM, scan every source, then query;
* **recover (checkpoint)** — ``Dataspace.open`` on a checkpointed
  directory (snapshot load, empty WAL tail), then query;
* **recover (WAL only)** — ``Dataspace.open`` on an uncheckpointed
  directory (pure WAL replay), then query —

and **asserts recovery from a checkpoint beats the full re-sync**, the
acceptance bound for the durability layer. It also reports the sync
overhead the WAL adds (durability off vs ``fsync="off"``/``"interval"``
/``"always"``), which is bounded separately in CI.

Run as a script (CI smokes ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_coldstart.py --quick
"""

from __future__ import annotations

import argparse
import shutil
import statistics
import tempfile
import time
from pathlib import Path

from repro.bench import format_table
from repro.dataset import TINY_PROFILE
from repro.durability import DurabilityConfig
from repro.facade import Dataspace
from repro.imapsim.latency import no_latency

#: The first query a waking process answers (content search touches the
#: fulltext index, the URI dictionary and the catalog).
FIRST_QUERY = '"database"'


def _generate(args, **kwargs) -> Dataspace:
    if args.quick:
        return Dataspace.generate(profile=TINY_PROFILE, seed=args.seed,
                                  imap_latency=no_latency(), **kwargs)
    return Dataspace.generate(scale=args.scale, seed=args.seed,
                              imap_latency=no_latency(), **kwargs)


def time_full_resync(args) -> tuple[float, int]:
    """Fresh process, no durable state: scan everything, then query."""
    dataspace = _generate(args)
    start = time.perf_counter()
    dataspace.sync()
    rows = len(dataspace.query(FIRST_QUERY))
    return time.perf_counter() - start, rows


def time_recovery(directory: Path) -> tuple[float, int]:
    """Fresh process, durable directory: recover, then query."""
    start = time.perf_counter()
    dataspace = Dataspace.open(directory, durable=False)
    rows = len(dataspace.query(FIRST_QUERY))
    return time.perf_counter() - start, rows


def prepare_directories(args, base: Path) -> tuple[Path, Path]:
    """One checkpointed and one WAL-only durability directory."""
    checkpointed = base / "checkpointed"
    wal_only = base / "wal-only"
    for directory, with_checkpoint in ((checkpointed, True),
                                       (wal_only, False)):
        dataspace = _generate(args, durability=DurabilityConfig(
            directory=directory, fsync="off"))
        dataspace.sync()
        if with_checkpoint:
            dataspace.checkpoint()
        dataspace.close()
    return checkpointed, wal_only


def time_sync_overhead(args) -> list[tuple[str, float]]:
    """One sync per durability mode (off plus each fsync policy)."""
    rows = []
    for label, make_config in (
        ("durability off", lambda d: None),
        ('fsync="off"', lambda d: DurabilityConfig(directory=d,
                                                   fsync="off")),
        ('fsync="interval"', lambda d: DurabilityConfig(
            directory=d, fsync="interval")),
        ('fsync="always"', lambda d: DurabilityConfig(directory=d,
                                                      fsync="always")),
    ):
        with tempfile.TemporaryDirectory() as scratch:
            config = make_config(Path(scratch) / "space")
            dataspace = _generate(args, durability=config)
            start = time.perf_counter()
            dataspace.sync()
            rows.append((label, time.perf_counter() - start))
            dataspace.close()
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="tiny profile, fewer rounds (CI smoke)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="measurement rounds (default 5 quick, 3 full)")
    parser.add_argument("--scale", type=float, default=0.02,
                        help="dataset scale for the full run")
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    rounds = args.rounds if args.rounds else (5 if args.quick else 3)

    base = Path(tempfile.mkdtemp(prefix="coldstart-"))
    try:
        checkpointed, wal_only = prepare_directories(args, base)

        resync_times, checkpoint_times, wal_times = [], [], []
        rows_seen = set()
        for _ in range(rounds):
            seconds, rows = time_full_resync(args)
            resync_times.append(seconds)
            rows_seen.add(rows)
            seconds, rows = time_recovery(checkpointed)
            checkpoint_times.append(seconds)
            rows_seen.add(rows)
            seconds, rows = time_recovery(wal_only)
            wal_times.append(seconds)
            rows_seen.add(rows)
        # all three paths must answer the first query identically
        assert len(rows_seen) == 1, f"result drift: {rows_seen}"

        resync = statistics.median(resync_times)
        from_checkpoint = statistics.median(checkpoint_times)
        from_wal = statistics.median(wal_times)
        print(format_table(
            ["cold-start path", f"median of {rounds} [ms]", "vs re-sync"],
            [["full re-sync", resync * 1000, "1.0x"],
             ["recover (checkpoint)", from_checkpoint * 1000,
              f"{resync / from_checkpoint:.1f}x faster"],
             ["recover (WAL only)", from_wal * 1000,
              f"{resync / from_wal:.1f}x faster"]],
            title=(f"time to first query "
                   f"({'tiny profile' if args.quick else f'scale {args.scale}'}"
                   f", {rows_seen.pop()} rows)"),
        ))
        print()

        overhead_rows = time_sync_overhead(args)
        baseline = overhead_rows[0][1]
        print(format_table(
            ["sync mode", "seconds", "vs off"],
            [[label, seconds,
              "--" if label == "durability off"
              else f"{(seconds - baseline) / baseline:+.1%}"]
             for label, seconds in overhead_rows],
            title="sync-time durability overhead (one round, indicative)",
        ))

        if from_checkpoint >= resync:
            print(f"FAIL: checkpoint recovery ({from_checkpoint * 1000:.1f} "
                  f"ms) is not faster than a full re-sync "
                  f"({resync * 1000:.1f} ms)")
            return 1
        print(f"ok: checkpoint recovery is "
              f"{resync / from_checkpoint:.1f}x faster than re-sync")
        return 0
    finally:
        shutil.rmtree(base, ignore_errors=True)


if __name__ == "__main__":
    import sys
    sys.exit(main())
