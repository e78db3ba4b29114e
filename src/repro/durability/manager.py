"""The durability manager: one dataspace's WAL + checkpoint lifecycle.

:class:`DurabilityManager` owns a durability *directory*::

    <directory>/
        config.json                # format version, indexing flags
        wal/00000000000000000001.wal ...
        checkpoint-<lsn>/          # save_state snapshots
        CHECKPOINT                 # pointer: which checkpoint is live

and plugs into the RVM as the synchronization manager's durability
sink: every view the sync path indexes or unregisters is captured as
typed records (:mod:`.records`) and appended to the WAL as one commit
unit *after* the in-memory mutation completed — the structures are the
source of truth, the log is their replayable history.

``config.json`` pins the prototype's four structures (§7.2) the log
was written under: WAL replay re-runs the indexing dispatch, so a
directory that records any other indexing policy — one written under
query shipping — is refused by :func:`load_config` rather than replayed
into structures it never fed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from ..core.errors import DurabilityError
from ..core.resource_view import ResourceView
from .checkpoint import Checkpointer, CheckpointInfo, replace_durably
from .records import capture_view_delete, capture_view_upsert
from .recovery import WAL_DIRNAME, RecoveryReport, recover_state
from .wal import WriteAheadLog

CONFIG_NAME = "config.json"
CONFIG_VERSION = 1

#: The indexing flags every directory records: the prototype's four
#: structures, all kept, and no media index.
PROTOTYPE_POLICY = {"index_names": True, "index_content": True,
                    "index_tuples": True, "replicate_groups": True,
                    "index_media": False}


@dataclass(frozen=True)
class DurabilityConfig:
    """How a dataspace's mutations are made durable."""

    #: the durability directory (created on first use)
    directory: str | Path = ""
    #: fsync policy: "always" | "interval" | "off"
    fsync: str = "interval"
    #: max staleness of the durable tail under the "interval" policy
    fsync_interval_seconds: float = 0.25
    #: WAL segment rotation threshold
    segment_max_bytes: int = 4 * 1024 * 1024
    #: completed checkpoints retained
    checkpoint_keep: int = 2

    def with_directory(self, directory: str | Path) -> "DurabilityConfig":
        from dataclasses import replace
        return replace(self, directory=directory)


def load_config(directory: str | Path) -> dict | None:
    """The persisted ``config.json`` of a durability directory, if any.

    The file comes from outside the program: anything but a JSON object
    recording :data:`CONFIG_VERSION` and :data:`PROTOTYPE_POLICY` raises
    :class:`DurabilityError` naming it.
    """
    path = Path(directory) / CONFIG_NAME
    if not path.exists():
        return None
    try:
        config = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        raise DurabilityError(f"unreadable {path}: {error}") from None
    if not isinstance(config, dict):
        raise DurabilityError(f"{path} is not a JSON object")
    version = config.get("config_version")
    if version != CONFIG_VERSION:
        raise DurabilityError(
            f"{path} records config_version {version!r}; this build "
            f"reads version {CONFIG_VERSION}"
        )
    policy = config.get("policy")
    if policy != PROTOTYPE_POLICY:
        raise DurabilityError(
            f"{path} records indexing policy {policy!r}, but this build "
            f"keeps exactly {PROTOTYPE_POLICY}; a log written under "
            f"another policy cannot be replayed"
        )
    return config


class DurabilityManager:
    """Wires one RVM's mutation stream into a WAL + checkpoints."""

    def __init__(self, rvm, config: DurabilityConfig):
        if not config.directory:
            raise DurabilityError(
                "DurabilityConfig.directory must name the durability "
                "directory"
            )
        self.rvm = rvm
        self.config = config
        self.directory = Path(config.directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._check_or_write_config()
        self.wal = WriteAheadLog(
            self.directory / WAL_DIRNAME,
            segment_max_bytes=config.segment_max_bytes,
            fsync=config.fsync,
            fsync_interval_seconds=config.fsync_interval_seconds,
        )
        self.checkpointer = Checkpointer(self.directory,
                                         keep=config.checkpoint_keep)
        rvm.attach_durability(self)

    def _check_or_write_config(self) -> None:
        if load_config(self.directory) is None:
            replace_durably(self.directory / CONFIG_NAME, json.dumps(
                {"config_version": CONFIG_VERSION,
                 "policy": PROTOTYPE_POLICY},
                indent=2,
            ))

    # -- the sync manager's durability sink --------------------------------

    def record_upsert(self, view: ResourceView, raw_content: str) -> None:
        """Log one just-indexed view (called after the mutation)."""
        self.wal.append(capture_view_upsert(view, self.rvm, raw_content))

    def record_remove(self, uri: str) -> None:
        """Log one just-unregistered view."""
        self.wal.append(capture_view_delete(uri))

    # -- checkpoints & recovery --------------------------------------------

    def checkpoint(self) -> CheckpointInfo:
        """Snapshot the RVM and truncate the applied WAL prefix."""
        return self.checkpointer.checkpoint(self.rvm, self.wal)

    def recover_into(self, rvm) -> RecoveryReport:
        """Replay this directory's state into a fresh RVM.

        Uses the manager's own open WAL, so subsequent mutations append
        at the recovered tail.
        """
        return recover_state(self.directory, rvm, wal=self.wal)

    # -- lifecycle ----------------------------------------------------------

    def sync(self) -> None:
        """Force the WAL tail to stable storage now."""
        self.wal.sync()

    def close(self) -> None:
        self.wal.close()

    def __enter__(self) -> "DurabilityManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
