"""The Replica & Indexes module (Section 7.2's four structures).

The paper's initial implementation uses exactly these:

1. **Name Index & Replica** — a full-text index that *also stores* the
   name component values (``store_text=True``);
2. **Tuple Index & Replica** — an in-memory replica of all tuple
   components with a vertically partitioned sorted index;
3. **Content Index** — a full-text index over text extracted from
   content components; *not* a replica;
4. **Group Replica** — an in-memory replica of group components.

:class:`IndexSet` bundles them behind one ``add_view``/``remove_view``
API and produces the per-structure size report of Table 3. Since the
keyset refactor (DESIGN.md §4j) every structure here keys its entries by
the URI dictionary's dense catalog ids and stores its id sets as
compressed :class:`~repro.rvm.keyset.KeySet` s, so the size report
reflects the compressed layouts and query results flow to the engine as
id sets with no per-URI string work.
"""

from __future__ import annotations

from ..core.identity import ViewId
from ..core.resource_view import ResourceView
from ..fulltext import InvertedIndex
from ..tupleindex import TupleIndex
from .replicas import GroupReplica


def _looks_like_text(sample: str, *, window: int = 512,
                     threshold: float = 0.7) -> bool:
    """Heuristic binary sniffing over a prefix of the content: the share
    of printable characters, counting newline, carriage return and tab
    (none of which is printable) as printable too."""
    prefix = sample[:window]
    printable = (sum(map(str.isprintable, prefix)) + prefix.count("\n")
                 + prefix.count("\r") + prefix.count("\t"))
    return printable / len(prefix) >= threshold


class IndexSet:
    """The four component index/replica structures of the prototype."""

    def __init__(self, *, infinite_content_window: int = 4096,
                 infinite_group_window: int = 256):
        self.name_index = InvertedIndex(store_text=True)
        self.tuple_index = TupleIndex()
        self.content_index = InvertedIndex(store_text=False)
        self.group_replica = GroupReplica(
            infinite_window=infinite_group_window
        )
        self.infinite_content_window = infinite_content_window
        self._net_input_bytes = 0

    # -- writes ------------------------------------------------------------------

    def add_view(self, view: ResourceView) -> str:
        """Index every component of one view.

        Returns the raw content text the content branch examined — the
        durability layer logs it, since the content index stores
        postings only and the raw text cannot be read back.
        """
        uri = view.view_id.uri
        name = view.name
        if name:
            self.name_index.add(uri, name)
        else:
            self.name_index.remove(uri)
        self.tuple_index.add(uri, view.tuple_component)
        content = view.content
        raw = (content.text() if content.is_finite
               else content.take(self.infinite_content_window))
        self.index_content_raw(uri, raw)
        self.group_replica.add(view)
        return raw

    def index_content_raw(self, uri: str, raw: str) -> None:
        """Index one view's already-extracted content text.

        The single content dispatch point: text goes to the full-text
        index (and into the net-input accounting); anything else drops
        the view's earlier postings, so rewriting a file to empty or
        binary content leaves no stale match. WAL replay re-applies
        logged content through here, so replayed state matches live
        indexing exactly.
        """
        if raw and _looks_like_text(raw):
            self.content_index.add(uri, raw)
            self._net_input_bytes += len(raw.encode("utf-8", "replace"))
        else:
            self.content_index.remove(uri)

    def remove_view(self, view_id: ViewId | str) -> None:
        uri = view_id if isinstance(view_id, str) else view_id.uri
        self.name_index.remove(uri)
        self.tuple_index.remove(uri)
        self.content_index.remove(uri)
        self.group_replica.remove(uri)

    # The content path stands in for the prototype's text/PDF extractors:
    # content that does not look like text (images, archives — here: a
    # high ratio of non-printable characters) contributes nothing to the
    # full-text index or the *net input data size* of Table 3, matching
    # how the paper excludes unconvertible content.

    # -- reads ---------------------------------------------------------------------

    def name_of(self, view_id: ViewId | str) -> str:
        """Serve a name from the name *replica*."""
        uri = view_id if isinstance(view_id, str) else view_id.uri
        if uri in self.name_index:
            return self.name_index.stored_text(uri)
        return ""

    # -- statistics -----------------------------------------------------------------

    @property
    def net_input_bytes(self) -> int:
        """Bytes of text handed to the content index (the paper's "net
        input data size": content that could be converted to text)."""
        return self._net_input_bytes

    def size_report(self) -> dict[str, int]:
        """Per-structure sizes in bytes (Table 3's columns, sans catalog)."""
        return {
            "name": self.name_index.size_bytes(),
            "tuple": self.tuple_index.size_bytes(),
            "content": self.content_index.size_bytes(),
            "group": self.group_replica.size_bytes(),
        }

    def total_size_bytes(self) -> int:
        return sum(self.size_report().values())
