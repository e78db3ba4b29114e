"""repro — a from-scratch reproduction of "iDM: A Unified and Versatile
Data Model for Personal Dataspace Management" (Dittrich & Vaz Salles,
VLDB 2006).

The package mirrors the iMeMex PDSMS architecture:

* :mod:`repro.core` — the iMeMex Data Model itself (resource views,
  components, classes, graphs, lazy/intensional/infinite data).
* :mod:`repro.datamodel` — instantiations of specialized data models
  (files&folders, relational, XML, LaTeX, streams, email, ActiveXML).
* substrates — :mod:`repro.xmlp`, :mod:`repro.latexp`, :mod:`repro.vfs`,
  :mod:`repro.imapsim`, :mod:`repro.rss`, :mod:`repro.fulltext`,
  :mod:`repro.tupleindex`, :mod:`repro.pushops`.
* :mod:`repro.rvm` — the Resource View Manager (plugins, converters,
  catalog, replicas & indexes, synchronization, the checkpoint format).
* :mod:`repro.query` — the iQL query language and its processor.
* :mod:`repro.dataset` — the synthetic personal-dataspace generator used
  by the evaluation harness.
* :mod:`repro.bench` — helpers that regenerate the paper's tables and
  figures.
* beyond the paper — :mod:`repro.cli` (``python -m repro``); the
  serving stack
  (:mod:`repro.service`, :mod:`repro.durability`,
  :mod:`repro.supervise`, :mod:`repro.obs`,
  :mod:`repro.trace`) is listed in DESIGN.md.

Quickstart::

    from repro import Dataspace
    ds = Dataspace.demo()            # small built-in personal dataspace
    for hit in ds.query('//PIM//Introduction["Mike Franklin"]'):
        print(hit.name, hit.view_id)
"""

from .core import (
    ContentComponent,
    GroupComponent,
    ResourceView,
    Schema,
    TupleComponent,
    ViewId,
    view,
)

__version__ = "1.0.0"

__all__ = [
    "ContentComponent",
    "GroupComponent",
    "ResourceView",
    "Schema",
    "TupleComponent",
    "ViewId",
    "view",
    "__version__",
]


def __getattr__(name: str):
    # Dataspace pulls in the whole stack (rvm, query, dataset); import it
    # lazily so `import repro` stays cheap for users of the core model only.
    if name == "Dataspace":
        from .facade import Dataspace
        return Dataspace
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
