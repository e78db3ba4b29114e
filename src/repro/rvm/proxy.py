"""The Data Source Proxy.

"The Data Source Proxy provides connectivity to the different types of
subsystems. It contains a set of Data Source Plugins that represents
the data from the different subsystems as an initial iDM graph."

A plugin exposes root views, a way to re-resolve a view by id after a
change, and optional change subscriptions. The proxy is just the
registry the Synchronization Manager iterates over.
"""

from __future__ import annotations

from typing import Callable, Iterator, Protocol, runtime_checkable

from ..core.errors import DataSourceError
from ..core.identity import ViewId
from ..core.resource_view import ResourceView


@runtime_checkable
class DataSourcePlugin(Protocol):
    """The contract every data source plugin fulfills."""

    #: URI authority of all views this plugin exposes ("fs", "imap", ...).
    authority: str

    def root_views(self) -> list[ResourceView]:
        """The subsystem's entry points into the iDM graph."""
        ...

    def resolve(self, view_id: ViewId) -> ResourceView | None:
        """Re-resolve a view after a change (None when it is gone)."""
        ...

    def subscribe_changes(self,
                          callback: Callable[[ViewId], None]) -> bool:
        """Subscribe to change notifications for this source.

        Returns True when the source supports notifications; sources
        returning False are synchronized by polling only.
        """
        ...

    def poll_changes(self) -> list[ViewId]:
        """Poll for changes since the last poll (ids of changed roots)."""
        ...

    def data_source_seconds(self) -> float:
        """Cumulative simulated data-source access time (0 for local)."""
        ...


class DataSourceProxy:
    """The plugin registry."""

    def __init__(self) -> None:
        self._plugins: dict[str, DataSourcePlugin] = {}

    def register(self, plugin: DataSourcePlugin) -> None:
        if plugin.authority in self._plugins:
            raise DataSourceError(
                f"a plugin for authority {plugin.authority!r} is registered"
            )
        self._plugins[plugin.authority] = plugin

    def unregister(self, authority: str) -> None:
        if authority not in self._plugins:
            raise DataSourceError(f"no plugin for authority {authority!r}")
        del self._plugins[authority]

    def plugin_for(self, authority: str) -> DataSourcePlugin:
        try:
            return self._plugins[authority]
        except KeyError:
            raise DataSourceError(
                f"no plugin for authority {authority!r}"
            ) from None

    def __contains__(self, authority: object) -> bool:
        return authority in self._plugins

    def plugins(self) -> Iterator[DataSourcePlugin]:
        return iter(self._plugins.values())

    def authorities(self) -> list[str]:
        return sorted(self._plugins)

    def resolve(self, view_id: ViewId) -> ResourceView | None:
        """Route a resolve to the owning plugin."""
        plugin = self._plugins.get(view_id.authority)
        if plugin is None:
            return None
        return plugin.resolve(view_id)
