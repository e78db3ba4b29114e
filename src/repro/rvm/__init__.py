"""The Resource View Manager (Section 5.2 of the paper).

The RVM is "the central instance to managing resource views". It
consists of the four components the paper names:

1. **Data Source Proxy** (:mod:`proxy`, :mod:`plugins`) — connectivity
   to subsystems (filesystem, IMAP, RSS) exposing initial iDM graphs;
2. **Content2iDM Converters** (:mod:`converters`) — enrich the graph by
   converting content components (XML, LaTeX) into subgraphs;
3. **Replica & Indexes Module** (:mod:`indexes`, :mod:`replicas`,
   :mod:`catalog`) — the Resource View Catalog plus one index/replica
   per component kind;
4. **Synchronization Manager** (:mod:`sync`) — initial scans, polling
   and event-driven synchronization.

:class:`~repro.rvm.manager.ResourceViewManager` ties them together.
"""

from .catalog import CatalogRecord, ResourceViewCatalog
from .converters import default_content_converter
from .indexes import IndexSet
from .manager import ResourceViewManager, SyncReport
from .proxy import DataSourcePlugin, DataSourceProxy
from .replicas import GroupReplica
from .uridict import DictionaryView, UriDictionary, global_uri_dictionary

__all__ = [
    "CatalogRecord", "ResourceViewCatalog", "default_content_converter",
    "IndexSet", "ResourceViewManager", "SyncReport",
    "DataSourcePlugin", "DataSourceProxy", "GroupReplica",
    "DictionaryView", "UriDictionary", "global_uri_dictionary",
]
