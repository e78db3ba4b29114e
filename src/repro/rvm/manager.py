"""The Resource View Manager facade.

Ties together the Data Source Proxy, the Content2iDM converters, the
Replica&Indexes module (with the Resource View Catalog) and the
Synchronization Manager, exactly as drawn in the paper's Figure 4. The
iQL query processor runs on top of this class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import obs
from ..core.errors import DataSourceError
from ..core.identity import ViewId
from ..core.resource_view import ResourceView
from ..pushops import PushBus
from .catalog import ResourceViewCatalog
from .indexes import IndexSet
from .proxy import DataSourcePlugin, DataSourceProxy
from .sync import SourceReport, SynchronizationManager


@dataclass
class SyncReport:
    """The combined report of one full synchronization pass.

    A pass over flaky sources is *reportable*, not all-or-nothing:
    sources that could not be reached appear with ``skipped=True`` and
    their error, sources that lost individual views carry them in
    ``errors``, and everything reachable was indexed normally.
    """

    sources: dict[str, SourceReport] = field(default_factory=dict)

    @property
    def views_total(self) -> int:
        return sum(r.views_total for r in self.sources.values())

    @property
    def total_seconds(self) -> float:
        return sum(r.total_seconds for r in self.sources.values())

    @property
    def sources_skipped(self) -> list[str]:
        """Authorities that could not be scanned at all, sorted."""
        return sorted(a for a, r in self.sources.items() if r.skipped)

    @property
    def errors(self) -> dict[str, list[str]]:
        """Authority → survived errors (skipped sources included)."""
        return {a: list(r.errors)
                for a, r in self.sources.items() if r.errors}

    @property
    def is_degraded(self) -> bool:
        return any(r.is_degraded for r in self.sources.values())

    def __getitem__(self, authority: str) -> SourceReport:
        return self.sources[authority]


class ResourceViewManager:
    """The RVM: register plugins, synchronize, and serve views.

    The typical life cycle::

        rvm = ResourceViewManager()
        rvm.register_plugin(FilesystemPlugin(vfs, content_converter=conv))
        rvm.register_plugin(ImapPlugin(server, content_converter=conv))
        report = rvm.sync_all()          # scan + index everything
        rvm.subscribe_all()              # notifications where supported
        ...
        rvm.poll_and_process()           # periodic polling for the rest
    """

    def __init__(self, *, infinite_group_window: int = 256):
        self.proxy = DataSourceProxy()
        self.catalog = ResourceViewCatalog()
        self.indexes = IndexSet(infinite_group_window=infinite_group_window)
        self.bus = PushBus()
        self.sync = SynchronizationManager(
            self.proxy, self.catalog, self.indexes, bus=self.bus,
            infinite_group_window=infinite_group_window,
        )
        self._register_index_gauges()

    def _register_index_gauges(self) -> None:
        """Expose every structure's size as ``index.*`` gauges.

        Callback gauges evaluate only when telemetry is snapshotted and
        hold this RVM weakly, so indexing pays nothing and a discarded
        dataspace's series vanish on their own. Each structure's
        existing ``stats()``/size accessors are the single source of
        truth — the gauges just read them.
        """
        def _entry_counters(rvm: "ResourceViewManager"):
            indexes = rvm.indexes
            return {
                "name": lambda: indexes.name_index.stats(),
                "tuple": lambda: indexes.tuple_index.stats(),
                "content": lambda: indexes.content_index.stats(),
            }

        for key in ("name", "tuple", "content"):
            obs.gauge_callback(
                "index.entries",
                lambda rvm, k=key: _entry_counters(rvm)[k]().entries,
                owner=self, labels={"index": key},
            )
            obs.gauge_callback(
                "index.bytes",
                lambda rvm, k=key: _entry_counters(rvm)[k]().bytes_estimate,
                owner=self, labels={"index": key},
            )
        obs.gauge_callback(
            "index.entries", lambda rvm: len(rvm.indexes.group_replica),
            owner=self, labels={"index": "group"},
        )
        obs.gauge_callback(
            "index.bytes",
            lambda rvm: rvm.indexes.group_replica.size_bytes(),
            owner=self, labels={"index": "group"},
        )
        obs.gauge_callback(
            "index.entries", lambda rvm: len(rvm.catalog),
            owner=self, labels={"index": "catalog"},
        )
        obs.gauge_callback(
            "index.bytes", lambda rvm: rvm.catalog.size_bytes(),
            owner=self, labels={"index": "catalog"},
        )

    # -- setup ------------------------------------------------------------------

    def register_plugin(self, plugin: DataSourcePlugin) -> None:
        self.proxy.register(plugin)

    def attach_durability(self, sink) -> None:
        """Attach a durability sink (WAL capture) to the mutation path.

        ``sink`` is any object with ``record_upsert(view, raw_content)``
        and ``record_remove(uri)`` — in practice a
        :class:`repro.durability.DurabilityManager`. Attach it *before*
        the first sync so the log covers the initial scan.
        """
        self.sync.durability = sink

    @property
    def durability(self):
        """The attached durability sink (None when not durable)."""
        return self.sync.durability

    # -- synchronization ----------------------------------------------------------

    def sync_all(self) -> SyncReport:
        """Scan every registered data source (initial indexing pass).

        An unreachable source does not abort the pass: its report is
        marked ``skipped`` with the error, and the remaining sources
        are indexed normally (``SyncReport.is_degraded`` flags it).
        """
        report = SyncReport()
        for authority in self.proxy.authorities():
            try:
                report.sources[authority] = self.sync.scan_source(authority)
            except DataSourceError as error:
                source = SourceReport(authority=authority, skipped=True)
                source.errors.append(str(error))
                report.sources[authority] = source
        return report

    def sync_source(self, authority: str) -> SourceReport:
        return self.sync.scan_source(authority)

    def subscribe_all(self) -> dict[str, bool]:
        return self.sync.subscribe_all()

    def poll_and_process(self) -> int:
        """One polling round: poll all sources, apply queued changes."""
        self.sync.poll_all()
        return self.sync.process_pending()

    def process_notifications(self) -> int:
        """Apply changes queued by notification events."""
        return self.sync.process_pending()

    # -- view access -----------------------------------------------------------------

    def view(self, view_id: ViewId | str) -> ResourceView | None:
        """The live view for an id: from the registry, else the plugin."""
        uri = view_id if isinstance(view_id, str) else view_id.uri
        view = self.sync.live_views.get(uri)
        if view is not None:
            return view
        return self.proxy.resolve(ViewId.parse(uri))

    def views(self, uris: list[str]) -> list[ResourceView]:
        out = []
        for uri in uris:
            view = self.view(uri)
            if view is not None:
                out.append(view)
        return out

    @property
    def registered_count(self) -> int:
        return len(self.catalog)

    # -- statistics ---------------------------------------------------------------------

    def index_size_report(self) -> dict[str, int]:
        """Table 3's columns: four structures plus the RV catalog."""
        report = dict(self.indexes.size_report())
        report["catalog"] = self.catalog.size_bytes()
        report["total"] = sum(report.values())
        report["net_input"] = self.indexes.net_input_bytes
        return report
