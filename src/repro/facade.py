"""The top-level facade: one object for the whole PDSMS.

:class:`Dataspace` wires the subsystems together the way the iMeMex
architecture diagram (Figure 4) does: data sources behind plugins, the
Resource View Manager with its catalog/replicas/indexes, and the iQL
query processor on top.
"""

from __future__ import annotations

from datetime import datetime

from .dataset import (
    DatasetProfile,
    GeneratedDataspace,
    PersonalDataspaceGenerator,
    TINY_PROFILE,
    scaled_profile,
)
from .imapsim import ImapServer, LatencyModel
from .query import QueryProcessor, QueryResult
from .rss import FeedServer
from .rvm import ResourceViewManager, default_content_converter
from .rvm.manager import SyncReport
from .rvm.plugins import FilesystemPlugin, ImapPlugin, RssPlugin
from .vfs import VirtualFileSystem


class Dataspace:
    """A personal dataspace: sources + RVM + query processor.

    Create one from existing subsystems, or use :meth:`demo` /
    :meth:`generate` for a synthetic personal dataspace. Call
    :meth:`sync` once to index everything, then :meth:`query`.
    """

    def __init__(self, *, vfs: VirtualFileSystem | None = None,
                 imap: ImapServer | None = None,
                 feeds: FeedServer | None = None,
                 reference_datetime: datetime | None = None,
                 durability=None):
        self.vfs = vfs
        self.imap = imap
        self.feeds = feeds
        self.rvm = ResourceViewManager()
        # durability: a directory path → default config over it; a
        # DurabilityConfig → a manager with it; None → off (in-memory).
        # Attached before any sync so the WAL covers the initial scan.
        from pathlib import Path
        from .durability import DurabilityConfig, DurabilityManager
        if isinstance(durability, (str, Path)):
            durability = DurabilityConfig(directory=durability)
        self.durability = (DurabilityManager(self.rvm, durability)
                           if isinstance(durability, DurabilityConfig)
                           else durability)
        self.converter = default_content_converter()
        if vfs is not None:
            self.rvm.register_plugin(FilesystemPlugin(
                vfs, content_converter=self.converter
            ))
        if imap is not None:
            self.rvm.register_plugin(ImapPlugin(
                imap, content_converter=self.converter
            ))
        if feeds is not None:
            self.rvm.register_plugin(RssPlugin(feeds))
        self.processor = QueryProcessor(
            self.rvm, reference_datetime=reference_datetime)
        self._synced = False
        self.last_sync_report: SyncReport | None = None
        self.last_recovery = None
        self.generated: GeneratedDataspace | None = None

    # -- constructors -----------------------------------------------------------

    @classmethod
    def demo(cls, *, seed: int = 42) -> "Dataspace":
        """A small synthetic dataspace (fast; for examples and tests)."""
        return cls.generate(profile=TINY_PROFILE, seed=seed)

    @classmethod
    def generate(cls, *, scale: float | None = None,
                 profile: DatasetProfile | None = None,
                 seed: int = 42,
                 imap_latency: LatencyModel | None = None,
                 **kwargs) -> "Dataspace":
        """A synthetic dataspace from a profile (or a paper-scale factor).

        Extra keyword arguments (``durability``, ``reference_datetime``)
        pass through to the constructor.
        """
        if profile is None:
            profile = scaled_profile(scale if scale is not None else 0.02)
        generated = PersonalDataspaceGenerator(
            profile, seed=seed, imap_latency=imap_latency
        ).generate()
        dataspace = cls(vfs=generated.vfs, imap=generated.imap,
                        feeds=generated.feeds, **kwargs)
        dataspace.generated = generated
        return dataspace

    @classmethod
    def open(cls, path, *, durable: bool = True, **kwargs) -> "Dataspace":
        """Reopen a dataspace from its durability directory.

        Loads the latest checkpoint and replays the WAL tail into a
        fresh RVM — no data sources needed, no re-sync: the recovered
        structures answer queries immediately. A directory whose
        ``config.json`` is malformed, or records an indexing policy
        other than the prototype's, raises :class:`DurabilityError`.

        With ``durable=True`` (the default) the directory stays
        attached: further mutations append at the recovered WAL tail
        and :meth:`checkpoint` keeps working. ``durable=False`` gives a
        read-only-ish in-memory copy. The recovery statistics are left
        on ``last_recovery``.
        """
        from .durability import (
            DurabilityConfig,
            DurabilityManager,
            load_config,
            recover_state,
        )
        load_config(path)  # refuses a hostile config.json up front
        dataspace = cls(**kwargs)
        if durable:
            manager = DurabilityManager(
                dataspace.rvm, DurabilityConfig(directory=path))
            dataspace.durability = manager
            # detach while replaying: recovery must not re-log itself
            dataspace.rvm.attach_durability(None)
            try:
                dataspace.last_recovery = manager.recover_into(dataspace.rvm)
            finally:
                dataspace.rvm.attach_durability(manager)
        else:
            dataspace.last_recovery = recover_state(path, dataspace.rvm)
        dataspace._synced = True
        return dataspace

    # -- lifecycle ------------------------------------------------------------------

    def sync(self) -> SyncReport:
        """Scan and index all data sources (idempotent re-sync)."""
        report = self.rvm.sync_all()
        self.last_sync_report = report
        self._synced = True
        if self.durability is not None:
            # a finished scan is durable regardless of the fsync policy
            self.durability.sync()
        return report

    def watch(self) -> dict[str, bool]:
        """Subscribe to change notifications where sources support them."""
        return self.rvm.subscribe_all()

    def refresh(self) -> int:
        """Process queued notifications and poll the rest."""
        processed = self.rvm.process_notifications()
        processed += self.rvm.poll_and_process()
        return processed

    # -- persistence --------------------------------------------------------------------

    def checkpoint(self):
        """Checkpoint the durable dataspace: snapshot + truncate the WAL.

        Requires the dataspace to have been built with ``durability=``
        (or reopened via :meth:`open`).
        """
        from .core.errors import DurabilityError
        if self.durability is None:
            raise DurabilityError(
                "this dataspace has no durability manager; build it with "
                "Dataspace(durability=...) or Dataspace.open(path)"
            )
        if not self._synced:
            self.sync()
        return self.durability.checkpoint()

    def close(self) -> None:
        """Release durable resources (flushes and closes the WAL)."""
        if self.durability is not None:
            self.durability.close()

    def __enter__(self) -> "Dataspace":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- queries ------------------------------------------------------------------------

    def query(self, iql: str, *, limit: int | None = None) -> QueryResult:
        """Execute one iQL query (auto-syncs on first use).

        ``limit`` caps the result *with early termination*: the limit is
        planned into the query (pushed through unions) and the engine
        stops pulling from its scans once satisfied, so a small limit
        costs a small amount of work regardless of corpus size.
        """
        if not self._synced:
            self.sync()
        return self.processor.execute(iql, limit=limit)

    def query_iter(self, iql: str, *, limit: int | None = None):
        """Execute one iQL query as a lazy batch stream.

        Returns a :class:`~repro.query.executor.StreamingResult`:
        iterate it for URIs (or call ``.batches()`` for the raw
        :class:`~repro.query.engine.Batch` stream) — rows arrive as the
        engine pulls them, and abandoning the iteration (``close()``, or
        leaving the ``with`` block) stops the execution early. Joins
        have no streaming plan shape; use :meth:`query` for those.
        """
        if not self._synced:
            self.sync()
        return self.processor.execute_iter(iql, limit=limit)

    def explain(self, iql: str) -> str:
        return self.processor.explain(iql)

    def explain_analyze(self, iql: str):
        """Execute ``iql`` under a trace and return the
        :class:`~repro.trace.ExplainAnalyzeReport`: the annotated plan
        tree (estimate vs. actual rows, per-operator wall time), the
        optimizer's rewrite log and the substrate counters."""
        if not self._synced:
            self.sync()
        return self.processor.explain_analyze(iql)

    # -- serving ----------------------------------------------------------------------

    def serve(self, *, workers: int = 4, max_queue_depth: int = 32,
              **kwargs):
        """A concurrent query service over this dataspace.

        Returns a started :class:`repro.service.DataspaceService`
        (worker pool, admission control, plan/result caches, metrics);
        extra keyword arguments pass through to its constructor. Use it
        as a context manager for a drained shutdown.
        """
        from .service import DataspaceService
        return DataspaceService(self, workers=workers,
                                max_queue_depth=max_queue_depth, **kwargs)

    # -- introspection ----------------------------------------------------------------------

    @property
    def view_count(self) -> int:
        return self.rvm.registered_count

    def index_sizes(self) -> dict[str, int]:
        return self.rvm.index_size_report()

    def telemetry(self) -> dict[str, object]:
        """Flat snapshot of the process-global telemetry registry
        (:mod:`repro.obs`): every ``query.*``/``sync.*``/``index.*``/
        ``service.*`` series this process recorded."""
        from . import obs
        return obs.global_metrics().snapshot()

    def slow_queries(self):
        """Captured :class:`~repro.obs.SlowQuery` entries (newest last)
        from the process-global slow-query log."""
        from . import obs
        return obs.global_slowlog().entries()

    def events(self, *, subsystem: str | None = None,
               min_severity: int | None = None,
               limit: int | None = None):
        """Recent structured :class:`~repro.obs.Event` records."""
        from . import obs
        return obs.global_events().snapshot(
            subsystem=subsystem, min_severity=min_severity, limit=limit,
        )
