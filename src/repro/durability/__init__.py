"""``repro.durability`` — WAL, checkpoints, and crash recovery.

The original iMeMex prototype kept its catalog in Derby and its
full-text indexes in Lucene, both durable; this reproduction was
"WAL-free" — every process rebuilt the catalog and all four
index/replica structures from scratch. This subsystem closes that gap
with the classic recipe:

* a segmented, CRC-framed **write-ahead log** (:mod:`.wal`) with a
  configurable fsync policy and torn-tail truncation on open;
* **typed log records** (:mod:`.records`) for every catalog /
  name-index / fulltext / tuple-index / group-replica mutation,
  captured at the synchronization manager's mutation points;
* a **checkpointer** (:mod:`.checkpoint`) reusing
  :func:`repro.rvm.persistence.save_state` as its snapshot format and
  truncating the applied WAL prefix;
* a **recovery path** (:mod:`.recovery`) loading the latest snapshot
  and replaying the WAL tail into a fresh RVM;
* a **verification harness** (:mod:`.verify`) pinning recovered state
  by checking the batched engine against the reference oracle.

The facade surfaces it as ``Dataspace(durability=...)`` /
``Dataspace.open(path)``; the CLI as ``repro checkpoint`` and
``repro recover --verify``; telemetry as the ``wal.*`` metric family.
"""

from .checkpoint import Checkpointer, CheckpointInfo, latest_checkpoint
from .manager import DurabilityConfig, DurabilityManager, load_config
from .records import (
    CatalogUpsert,
    ContentIndexPut,
    GroupReplicaPut,
    NameIndexPut,
    TupleIndexPut,
    ViewDelete,
    apply_frame,
    capture_view_delete,
    capture_view_upsert,
    decode_record,
)
from .recovery import WAL_DIRNAME, RecoveryReport, recover_state
from .verify import (
    VerifyReport,
    standard_queries,
    verify_engine_matches_oracle,
)
from .wal import FSYNC_POLICIES, WriteAheadLog

__all__ = [
    "CatalogUpsert", "Checkpointer", "CheckpointInfo", "ContentIndexPut",
    "DurabilityConfig", "DurabilityManager", "FSYNC_POLICIES",
    "GroupReplicaPut", "NameIndexPut", "RecoveryReport", "TupleIndexPut",
    "VerifyReport", "ViewDelete", "WAL_DIRNAME", "WriteAheadLog",
    "apply_frame", "capture_view_delete", "capture_view_upsert",
    "decode_record", "latest_checkpoint", "load_config",
    "recover_state", "standard_queries", "verify_engine_matches_oracle",
]
