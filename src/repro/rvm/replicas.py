"""Component replicas.

"A Replica creates a copy of a component inside the RVM. For instance,
one strategy could be to replicate the group components of all resource
views ... queries referring to the group component can then be executed
exploiting the replicas only", avoiding lookups at the data source.

:class:`GroupReplica` replicates group components as adjacency lists.
URIs are dictionary-encoded through the process-wide URI dictionary, so
a node here carries the same dense **catalog id** as the same view in
the catalog keysets and the inverted index (the keyset refactor,
DESIGN.md §4j — the replica's private OID space is gone). Only forward
edges are kept — the prototype's forward expansion reads nothing else —
so a node costs 16 bytes and an edge 8.

Beside the adjacency lists the replica keeps :class:`Labels`, an
interval-label snapshot of the same graph (Savinov's nested ordered
sets, PAPERS.md arXiv:0806.4749): containment read as pre-order, a
descendant set read as a rank interval. Descendant steps answer from
it with bisects instead of a walk (:class:`Closure`, DESIGN.md §4e).
Its 16 bytes a labelled view and 8 an edge outside the spanning forest
keep the replica, as in the paper (3.5 of 172.5 MB), the smallest
structure of Table 3.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from itertools import chain, repeat
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from .. import obs
from ..core.components import GroupComponent
from ..core.identity import ViewId
from ..core.resource_view import ResourceView
from .uridict import global_uri_dictionary

#: How many late edges plus detached leaves a snapshot absorbs before a
#: write drops it for a rebuild (a constant, measured, not an option).
OVERLAY_MAX = 64


class Labels:
    """An immutable interval-label snapshot of a forward-edge graph.

    The *base* is a depth-first spanning forest in pre-order: ``rank``
    maps a catalog id to its rank, ``order`` a rank back to the id,
    ``end[r]`` is the exclusive end of rank ``r``'s subtree and
    ``parent[r]`` its tree parent's rank (-1 for a root). The strict
    tree descendants of rank ``r`` are exactly ranks ``r + 1 ..
    end[r] - 1``.

    Every edge outside the forest is an ``(id, id)`` pair: ``residual``
    edges were found by the build, ``late`` edges were added by writes
    since. ``detached`` holds labelled leaves whose tree edge a write
    removed. Those three are the *overlay*; a write never mutates a
    snapshot, :meth:`rewired` returns a new one that shares the base
    (or ``None`` for a change the overlay cannot express), so a reader
    sees each container before or after a write, never during one.
    """

    __slots__ = ("rank", "order", "end", "parent",
                 "residual", "late", "detached", "extra")

    def __init__(self, rank: dict[int, int], order: list[int],
                 end: list[int], parent: list[int],
                 residual: tuple[tuple[int, int], ...],
                 late: tuple[tuple[int, int], ...] = (),
                 detached: frozenset[int] = frozenset()):
        self.rank = rank
        self.order = order
        self.end = end
        self.parent = parent
        self.residual = residual
        self.late = late
        self.detached = detached
        #: residual and late edges as (tail, head, tail rank, head rank)
        #: for the closure's fixpoint; rank -1 marks a loose endpoint
        #: (unlabelled or detached)
        self.extra = tuple(
            (tail, head, self._rank_of(tail), self._rank_of(head))
            for tail, head in residual + late)

    def _rank_of(self, node: int) -> int:
        return -1 if node in self.detached else self.rank.get(node, -1)

    @classmethod
    def build(cls, children: Mapping[int, Sequence[int]]) -> "Labels":
        """One iterative DFS from the nodes with no in-edge, then from
        any node still unvisited (those sit on cycles); an edge to a
        node already ranked is residual, unless it repeats the tree
        edge."""
        targets: set[int] = set()
        for kids in children.values():
            targets.update(kids)
        rank: dict[int, int] = {}
        order: list[int] = []
        end: list[int] = []
        parent: list[int] = []
        residual: list[tuple[int, int]] = []
        get = children.get
        roots = [node for node in children if node not in targets]
        for root in chain(roots, children):
            if root in rank:
                continue
            rank[root] = len(order)
            order.append(root)
            parent.append(-1)
            end.append(0)
            stack = [(rank[root], iter(get(root, ())))]
            while stack:
                here, kids = stack[-1]
                for child in kids:
                    seen = rank.get(child)
                    if seen is None:
                        seen = rank[child] = len(order)
                        order.append(child)
                        parent.append(here)
                        end.append(0)
                        stack.append((seen, iter(get(child, ()))))
                        break
                    if parent[seen] != here:
                        residual.append((order[here], child))
                else:
                    stack.pop()
                    end[here] = len(order)
        return cls(rank, order, end, parent, tuple(residual))

    def __len__(self) -> int:
        return len(self.order)

    def rewired(self, node: int, old: Sequence[int],
                new: Sequence[int]) -> "Labels | None":
        """This snapshot after ``node``'s children went from ``old`` to
        ``new``, or ``None`` when only a rebuild can express it.

        An added edge joins ``late``; a removed late or residual edge is
        dropped; a removed tree edge to a labelled leaf detaches that
        leaf. A removed tree edge above a subtree, or an overlay past
        :data:`OVERLAY_MAX`, drops the snapshot.
        """
        old_set = set(old)
        new_kids = [kid for kid in dict.fromkeys(new) if kid not in old_set]
        gone = old_set.difference(new)
        if not new_kids and not gone:
            return self
        residual, late, detached = self.residual, self.late, self.detached
        for kid in gone:
            edge = (node, kid)
            if edge in late:
                late = tuple(e for e in late if e != edge)
            elif edge in residual:
                residual = tuple(e for e in residual if e != edge)
            else:
                at = self.rank.get(kid)
                if (at is None or self.parent[at] != self.rank.get(node)
                        or self.end[at] != at + 1):
                    return None  # a tree edge above a subtree
                detached = detached | {kid}
        late += tuple((node, kid) for kid in new_kids)
        if len(late) + len(detached) > OVERLAY_MAX:
            return None
        return Labels(self.rank, self.order, self.end, self.parent,
                      residual, late, detached)

    def split(self, ids: Iterable[int]) -> tuple[list[int], set[int]]:
        """``ids`` as the sorted ranks of the labelled ones, plus the set
        of those only reachable as loose points (unlabelled, detached)."""
        rank, detached = self.rank, self.detached
        ranks: list[int] = []
        loose: set[int] = set()
        for node in ids:
            at = rank.get(node)
            if at is None or node in detached:
                loose.add(node)
            else:
                ranks.append(at)
        ranks.sort()
        return ranks, loose

    def closure(self) -> "Closure":
        return Closure(self)


class Closure:
    """The descendant closure of a growing source set over one
    :class:`Labels` snapshot — the reached set of the forward BFS.

    Reached views are *covered* rank intervals (sorted, disjoint) plus
    *loose* ids that have no usable label. :meth:`extend` unions each
    new source's interval — ranks after its own, up to its subtree's
    end, so a source is not its own descendant — then closes the union
    over the residual and late edges by a fixpoint, which does nothing
    on a pure tree. It reports only what became reached, so an
    expansion shares one closure across its input batches and counts
    every view once. An edge leaves the fixpoint for good once its head
    is reached; one whose tail is a source fires in that source's own
    :meth:`extend`, so no source set is kept.
    """

    __slots__ = ("labels", "_starts", "_ends", "_loose", "_pending")

    def __init__(self, labels: Labels):
        self.labels = labels
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._loose: set[int] = set()
        self._pending = labels.extra

    def extend(self, sources: Collection[int]
               ) -> tuple[list[tuple[int, int]], list[int]]:
        """Reach from ``sources`` too. Returns what became reached: the
        newly covered rank spans, sorted and disjoint, and the newly
        reached loose ids."""
        end = self.labels.end
        spans: list[tuple[int, int]] = []
        loose: list[int] = []
        for at in sorted(map(self.labels.rank.get, sources, repeat(-1))):
            if at >= 0 and at + 1 < end[at]:  # labelled, not a leaf
                self._cover(at + 1, end[at], spans)
        if self._pending:
            self._close(set(sources), spans, loose)
        spans.sort()
        return spans, loose

    def _close(self, sources: set[int], spans: list, loose: list) -> None:
        """The fixpoint over the edges outside the forest."""
        end = self.labels.end
        starts, ends, reached = self._starts, self._ends, self._loose
        pending = self._pending
        fired = True
        while fired:
            fired = False
            waiting = []
            for edge in pending:
                tail, head, tail_at, head_at = edge
                if head_at < 0:
                    if head in reached:
                        continue
                else:
                    i = bisect_right(starts, head_at) - 1
                    if i >= 0 and head_at < ends[i]:
                        continue
                if tail not in sources:
                    if tail_at < 0:
                        live = tail in reached
                    else:
                        i = bisect_right(starts, tail_at) - 1
                        live = i >= 0 and tail_at < ends[i]
                    if not live:
                        waiting.append(edge)
                        continue
                if head_at < 0:
                    reached.add(head)
                    loose.append(head)
                else:
                    self._cover(head_at, end[head_at], spans)
                fired = True
            pending = waiting
        self._pending = pending

    def _cover(self, lo: int, hi: int, spans: list) -> None:
        """Union ``[lo, hi)`` into the covered intervals, appending the
        parts that were not covered yet to ``spans``."""
        starts, ends = self._starts, self._ends
        i = bisect_right(starts, lo)
        if i and ends[i - 1] >= lo:
            if ends[i - 1] >= hi:
                return
            i -= 1
            lo, cursor = starts[i], ends[i]
        else:
            cursor = lo
        j = i
        while j < len(starts) and starts[j] <= hi:
            if starts[j] > cursor:
                spans.append((cursor, starts[j]))
            cursor = max(cursor, ends[j])
            j += 1
        if cursor < hi:
            spans.append((cursor, hi))
        starts[i:j] = [lo]
        ends[i:j] = [max(hi, cursor)]

    def count(self, spans: list[tuple[int, int]], loose: list[int]) -> int:
        """How many views an :meth:`extend` result reached."""
        total = sum(hi - lo for lo, hi in spans) + len(loose)
        detached = self.labels.detached
        if detached:
            total -= len(self._detached_in(spans))
        return total

    def members(self, spans: list[tuple[int, int]],
                loose: list[int]) -> list[int]:
        """Every id an :meth:`extend` result reached (pre-order, then
        the loose ids)."""
        order = self.labels.order
        out = [*chain.from_iterable(order[lo:hi] for lo, hi in spans)]
        if self.labels.detached:
            skip = self._detached_in(spans)
            out = [node for node in out if node not in skip]
        return out + loose

    def select(self, spans: list[tuple[int, int]], loose: list[int],
               candidates: tuple[list[int], set[int]]) -> list[int]:
        """The reached ids among ``candidates`` (a :meth:`Labels.split`).
        Each candidate rank is bisected into the spans, or each span
        into the candidate ranks — whichever side is smaller."""
        ranks, others = candidates
        order = self.labels.order
        hits: list[int] = []
        if spans and ranks:
            if len(ranks) <= len(spans):
                starts = [lo for lo, _ in spans]
                for at in ranks:
                    i = bisect_right(starts, at) - 1
                    if i >= 0 and at < spans[i][1]:
                        hits.append(order[at])
            else:
                for lo, hi in spans:
                    first = bisect_left(ranks, lo)
                    hits += (order[at] for at in
                             ranks[first:bisect_left(ranks, hi, first)])
        if others and loose:
            hits += (node for node in loose if node in others)
        return hits

    def _detached_in(self, spans: list[tuple[int, int]]) -> set[int]:
        rank = self.labels.rank
        starts = [lo for lo, _ in spans]
        out = set()
        for node in self.labels.detached:
            at = rank[node]
            i = bisect_right(starts, at) - 1
            if i >= 0 and at < spans[i][1]:
                out.add(node)
        return out


class GroupReplica:
    """In-memory adjacency replica of group components, with its
    interval labels (built lazily, kept current by an overlay)."""

    def __init__(self, *, infinite_window: int = 256):
        #: how many members of an infinite group part are replicated
        self.infinite_window = infinite_window
        self._dictionary = global_uri_dictionary()
        self._set_children: dict[int, tuple[int, ...]] = {}
        self._seq_children: dict[int, tuple[int, ...]] = {}
        #: the current snapshot, or None until the next reader builds
        self._labels: Labels | None = None
        #: bumped by every write, so a build that raced one is not kept
        self._epoch = 0
        self._lock = threading.Lock()

    # -- interning ---------------------------------------------------------------

    def _oid(self, view_id: ViewId | str) -> int | None:
        uri = view_id if isinstance(view_id, str) else view_id.uri
        return self._dictionary.id_of(uri)

    # -- writes -----------------------------------------------------------------

    def add(self, view: ResourceView) -> None:
        self.add_group(view.view_id, view.group)

    def add_group(self, view_id: ViewId, group: GroupComponent) -> None:
        intern = self._dictionary.intern
        oid = intern(view_id.uri)
        set_part = (group.set_part.items() if group.set_part.is_finite
                    else group.set_part.take(self.infinite_window))
        seq_part = (group.seq_part.items() if group.seq_part.is_finite
                    else group.seq_part.take(self.infinite_window))
        set_ids = tuple(intern(v.view_id.uri) for v in set_part)
        seq_ids = tuple(intern(v.view_id.uri) for v in seq_part)
        with self._lock:
            labels = self._labels
            if labels is not None:
                labels = self._labels = labels.rewired(
                    oid, self.children_ids(oid), set_ids + seq_ids)
            self._set_children[oid] = set_ids
            self._seq_children[oid] = seq_ids
            self._epoch += 1

    def remove(self, view_id: ViewId | str) -> bool:
        """Drop a node's out-edges. A parent that still lists the node
        still reaches it, so the node keeps its place in every interval;
        only the edges it leaves by go through the overlay."""
        oid = self._oid(view_id)
        if oid is None or oid not in self._set_children:
            return False
        with self._lock:
            labels = self._labels
            if labels is not None:
                self._labels = labels.rewired(oid, self.children_ids(oid),
                                              ())
            del self._set_children[oid]
            del self._seq_children[oid]
            self._epoch += 1
        return True

    # -- reads --------------------------------------------------------------------

    def __contains__(self, view_id: object) -> bool:
        uri = view_id.uri if isinstance(view_id, ViewId) else view_id
        if not isinstance(uri, str):
            return False
        oid = self._dictionary.id_of(uri)
        return oid is not None and oid in self._set_children

    def __len__(self) -> int:
        return len(self._set_children)

    def labels(self) -> Labels:
        """The interval-label snapshot, built here by the first reader
        after a write dropped it. A build that raced a write is handed
        to its reader but not kept (the epoch moved), so a stale
        snapshot never outlives the read that made it."""
        labels = self._labels
        if labels is not None:
            return labels
        with self._lock:
            epoch = self._epoch
            sets = self._set_children.copy()
            seqs = self._seq_children.copy()
        labels = Labels.build({node: kids + seqs[node]
                               for node, kids in sets.items()})
        with self._lock:
            if self._epoch == epoch:
                self._labels = labels
        obs.increment("rvm.replica.relabels")
        return labels

    # id-space reads (the engine's expansion path) ------------------------------

    def children_ids(self, oid: int) -> tuple[int, ...]:
        """Directly related catalog ids (set part then sequence part)."""
        return (self._set_children.get(oid, ())
                + self._seq_children.get(oid, ()))

    def children_ids_of_many(self, oids: Collection[int]) -> list[int]:
        """The children of a whole frontier gathered into one list
        (duplicates kept, no per-node grouping) — the bulk read the
        engine's frontier-at-a-time child step dedupes with set
        algebra."""
        nothing = repeat(())
        return [
            *chain.from_iterable(map(self._set_children.get, oids, nothing)),
            *chain.from_iterable(map(self._seq_children.get, oids, nothing)),
        ]

    def descendant_ids(self, oid: int, *,
                       max_depth: int | None = None) -> set[int]:
        """Forward expansion entirely in id space: the write path's
        walk. Its visited-set has one owner and lives for one call, so
        it is a plain ``set[int]`` (DESIGN.md §4j)."""
        seen: set[int] = set()
        if oid not in self._set_children and oid not in self._seq_children:
            return seen
        frontier = [(oid, 0)]
        while frontier:
            node, depth = frontier.pop()
            if max_depth is not None and depth >= max_depth:
                continue
            for child in (self._set_children.get(node, ())
                          + self._seq_children.get(node, ())):
                if child not in seen:
                    seen.add(child)
                    frontier.append((child, depth + 1))
        return seen

    # URI-space reads (sync, durability records, external callers) --------------

    def children(self, view_id: ViewId | str) -> tuple[str, ...]:
        """All directly related URIs (set part then sequence part)."""
        oid = self._oid(view_id)
        if oid is None:
            return ()
        uri_of = self._dictionary.uri_of
        return tuple(uri_of(o) for o in self.children_ids(oid))

    def sequence_children(self, view_id: ViewId | str) -> tuple[str, ...]:
        oid = self._oid(view_id)
        if oid is None:
            return ()
        uri_of = self._dictionary.uri_of
        return tuple(uri_of(o) for o in self._seq_children.get(oid, ()))

    def descendants(self, view_id: ViewId | str, *,
                    max_depth: int | None = None) -> set[str]:
        """Forward expansion over the replica (no data-source access)."""
        start = self._oid(view_id)
        if start is None:
            return set()
        # `start` stays in the result only when an edge leads back to it
        # (a view on a cycle is indirectly related to itself).
        seen = self.descendant_ids(start, max_depth=max_depth)
        uri_of = self._dictionary.uri_of
        return {uri_of(o) for o in seen}

    def uris(self) -> Iterator[str]:
        uri_of = self._dictionary.uri_of
        return (uri_of(o) for o in self._set_children)

    # -- statistics -----------------------------------------------------------------

    def edge_count(self) -> int:
        return sum(len(s) + len(q) for s, q in
                   zip(self._set_children.values(),
                       self._seq_children.values()))

    def size_bytes(self) -> int:
        """Replica footprint: node headers and 8-byte ids per edge, plus
        the labels — 16 bytes a labelled view (rank and subtree end) and
        8 an edge outside the spanning forest (the snapshot is built if
        none is current).

        The URI↔id dictionary is the catalog's (every URI here is also
        registered there), so it is not double-counted; this mirrors how
        the prototype's group replica stays the smallest structure in
        the paper's Table 3.
        """
        labels = self.labels()
        return (16 * len(self._set_children) + 8 * self.edge_count()
                + 16 * len(labels) + 8 * (len(labels.residual)
                                          + len(labels.late)))
