"""Checkpoints: snapshot the RVM and truncate the applied WAL prefix.

A checkpoint is a :func:`repro.rvm.persistence.save_state` snapshot
(a crash-safe directory of JSON-lines files, the one persisted form of
the indexed state) taken at a known WAL position, plus a tiny
atomically-updated pointer file naming the checkpoint recovery should
start from.

The protocol, in crash-safe order:

1. fsync the WAL — every record at or below the checkpoint LSN is on
   stable storage before the snapshot claims to cover it;
2. write the snapshot to ``checkpoint-<lsn>/`` (staged + atomic rename
   inside ``save_state``), recording ``wal_lsn`` in its manifest;
3. atomically rewrite the ``CHECKPOINT`` pointer file;
4. truncate WAL segments fully covered by the snapshot and
   garbage-collect superseded checkpoint directories.

A crash between any two steps recovers from the *previous* checkpoint
plus the still-untruncated WAL — never from a half-written one.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path

from .. import obs
from ..core.errors import DurabilityError
from ..rvm.persistence import save_state
from .wal import WriteAheadLog

#: The pointer file naming the live checkpoint's LSN.
POINTER_NAME = "CHECKPOINT"

CHECKPOINT_PREFIX = "checkpoint-"


def checkpoint_path(directory: Path, lsn: int) -> Path:
    return Path(directory) / f"{CHECKPOINT_PREFIX}{lsn:020d}"


def latest_checkpoint(directory: str | Path) -> tuple[int, Path] | None:
    """The (lsn, path) of the checkpoint recovery should load, if any.

    The pointer file is authoritative; when it is missing (or names a
    checkpoint that no longer exists), fall back to the newest complete
    checkpoint directory on disk — a crash between snapshot and pointer
    update leaves exactly that state.
    """
    base = Path(directory)
    pointer = base / POINTER_NAME
    if pointer.exists():
        try:
            lsn = int(pointer.read_text().strip())
        except ValueError:
            raise DurabilityError(
                f"unreadable checkpoint pointer at {pointer}"
            ) from None
        path = checkpoint_path(base, lsn)
        if (path / "manifest.json").exists():
            return lsn, path
    best: tuple[int, Path] | None = None
    for entry in base.glob(f"{CHECKPOINT_PREFIX}*"):
        suffix = entry.name[len(CHECKPOINT_PREFIX):]
        if not suffix.isdigit() or not (entry / "manifest.json").exists():
            continue
        lsn = int(suffix)
        if best is None or lsn > best[0]:
            best = (lsn, entry)
    return best


def replace_durably(path: Path, text: str) -> None:
    """Replace a small file (the pointer, ``config.json``) atomically:
    the staging file is on stable storage before it is renamed over
    ``path``, so a crash leaves the old file or the new one, never an
    empty one."""
    staging = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    with staging.open("w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(staging, path)


@dataclass(frozen=True)
class CheckpointInfo:
    """What one checkpoint pass did."""

    lsn: int
    path: Path
    seconds: float
    segments_truncated: int
    manifest: dict


class Checkpointer:
    """Takes checkpoints of one RVM into one durability directory."""

    def __init__(self, directory: str | Path, *, keep: int = 2):
        self.directory = Path(directory)
        #: completed checkpoints retained (≥ 1; older ones are GC'd)
        self.keep = max(1, keep)

    def checkpoint(self, rvm, wal: WriteAheadLog) -> CheckpointInfo:
        """One full checkpoint pass (see the module protocol)."""
        started = time.perf_counter()
        lsn = wal.last_lsn
        wal.sync()                                    # step 1
        target = checkpoint_path(self.directory, lsn)
        manifest = save_state(rvm, target, extra={"wal_lsn": lsn})  # step 2
        replace_durably(self.directory / POINTER_NAME,
                        f"{lsn}\n")                   # step 3
        truncated = wal.truncate_through(lsn)         # step 4
        self._collect_garbage(live_lsn=lsn)
        seconds = time.perf_counter() - started
        if obs.enabled():
            obs.increment("wal.checkpoints")
            obs.observe("wal.checkpoint_seconds", seconds)
            obs.emit_event(
                obs.INFO, "durability", "wal.checkpoint",
                f"checkpoint at lsn {lsn}: "
                f"{manifest['counts']['catalog']} catalog rows, "
                f"{truncated} segment(s) truncated",
                lsn=lsn, seconds=round(seconds, 6), truncated=truncated,
            )
        return CheckpointInfo(lsn=lsn, path=target, seconds=seconds,
                              segments_truncated=truncated,
                              manifest=manifest)

    def _collect_garbage(self, *, live_lsn: int) -> None:
        import shutil
        checkpoints = []
        for entry in self.directory.glob(f"{CHECKPOINT_PREFIX}*"):
            suffix = entry.name[len(CHECKPOINT_PREFIX):]
            if suffix.isdigit():
                checkpoints.append((int(suffix), entry))
        checkpoints.sort(reverse=True)
        for lsn, entry in checkpoints[self.keep:]:
            if lsn != live_lsn:
                shutil.rmtree(entry, ignore_errors=True)
