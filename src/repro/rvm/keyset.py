"""Compressed sets of catalog ids (the roaring-bitmap discipline).

The URI dictionary (DESIGN.md §4h) gives every registered view a dense
``int64`` catalog id. This module gives the *sets* of those ids —
postings lists, catalog secondary sets, replica reached-sets — one
compressed representation with word-parallel algebra, so the index →
engine handoff moves ids, not strings.

A :class:`KeySet` partitions its members by ``id >> 16`` into chunks of
the 65 536-wide id ranges, and stores each chunk in whichever container
is smaller (the classic roaring layout [Chambi et al.]):

* **sparse** — a sorted ``array('q')`` of the members' low 16 bits
  (≤ :data:`SPARSE_MAX` entries, 8 bytes each);
* **dense** — one Python arbitrary-precision int used as a 65 536-bit
  bitmap (a fixed 8 KiB, bit *i* set ⇔ low value *i* present).

The promotion threshold is symmetric: a sparse chunk growing past
``SPARSE_MAX`` members becomes a bitmap, a bitmap shrinking to
``SPARSE_MAX`` members becomes an array — the container invariant is
``dense ⇔ count > SPARSE_MAX``, which every constructor and operator
re-establishes (binary operations therefore normalize their result
chunks too, keeping equality structural).

Word-parallel algebra falls out of the representation: AND/OR/ANDNOT of
two dense chunks is one big-int ``&``/``|``/``&~`` (CPython processes
30-bit digits per machine word), and the bitmap's population count is
``int.bit_count``. Sparse/sparse falls back to small sorted-set merges,
bounded by ``SPARSE_MAX`` elements per side.

Concurrency: a KeySet supports **one writer, many readers** with no
lock. Every mutation is copy-on-write at chunk granularity — a bitmap
is an immutable int by nature, and sparse mutation builds a *new*
array before a single atomic dict assignment — so a reader iterating
(or intersecting) mid-mutation sees each chunk either entirely before
or entirely after a given update, never a half-edited container. The
catalog and indexes mutate under the sync lock; query threads only
read.

Ids are derived state (never persisted): durability recovery re-interns
URIs through ``catalog.register`` and rebuilds every KeySet from the
re-assigned ids, so the on-disk formats stay id-free.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Iterable, Iterator

#: Members per chunk above which the container switches to a bitmap.
#: 4096 entries × 8 bytes = 32 KiB of sparse array ≥ the 8 KiB bitmap —
#: the break-even point of the roaring layout (scaled to 64-bit slots).
SPARSE_MAX = 4096

#: Width of one chunk's id range (the low 16 bits index the container).
CHUNK_BITS = 16
CHUNK_MASK = (1 << CHUNK_BITS) - 1
_BITMAP_BYTES = 1 << (CHUNK_BITS - 3)  # 8 KiB

#: ``_BYTE_BITS[b]`` lists the set-bit positions of byte value ``b`` —
#: bitmap iteration walks bytes, not bits, avoiding 65 536 bigint shifts.
_BYTE_BITS = tuple(
    tuple(bit for bit in range(8) if value >> bit & 1)
    for value in range(256)
)


def _array_to_bitmap(values: array, extra: int | None = None) -> int:
    """Pack sorted low values (plus ``extra``) into one bitmap int."""
    buffer = bytearray(_BITMAP_BYTES)
    for low in values:
        buffer[low >> 3] |= 1 << (low & 7)
    if extra is not None:
        buffer[extra >> 3] |= 1 << (extra & 7)
    return int.from_bytes(buffer, "little")


def _bitmap_to_array(bits: int) -> array:
    """Unpack a bitmap into the sorted low-value array."""
    out = array("q")
    extend = out.extend
    for byte_index, byte in enumerate(bits.to_bytes(_BITMAP_BYTES, "little")):
        if byte:
            base = byte_index << 3
            extend(base + bit for bit in _BYTE_BITS[byte])
    return out


def _iter_bitmap(bits: int) -> Iterator[int]:
    for byte_index, byte in enumerate(bits.to_bytes(_BITMAP_BYTES, "little")):
        if byte:
            base = byte_index << 3
            for bit in _BYTE_BITS[byte]:
                yield base + bit


def _normalize(bits: int):
    """Re-establish the container invariant for an op's bitmap result."""
    count = bits.bit_count()
    if count == 0:
        return None
    if count > SPARSE_MAX:
        return bits
    return _bitmap_to_array(bits)


def _chunk_count(container) -> int:
    return container.bit_count() if isinstance(container, int) \
        else len(container)


class KeySet:
    """A compressed, sorted set of int64 ids (one writer, many readers)."""

    __slots__ = ("_chunks", "_len")

    def __init__(self) -> None:
        #: chunk base (id >> 16) -> container (array('q') | int bitmap)
        self._chunks: dict[int, object] = {}
        self._len = 0

    # -- construction -------------------------------------------------------

    @classmethod
    def from_iterable(cls, ids: Iterable[int]) -> "KeySet":
        """Bulk build from ids in any order (duplicates tolerated): one
        C-level sort, then one container per chunk — the index → engine
        handoff never pays a copy-on-write :meth:`add` per member."""
        return cls._from_distinct(sorted(set(ids)))

    @classmethod
    def from_sorted(cls, ids: Iterable[int]) -> "KeySet":
        """Bulk build from non-decreasing ids (duplicates tolerated)."""
        return cls._from_distinct(list(dict.fromkeys(ids)))

    @classmethod
    def _from_distinct(cls, ids: list[int]) -> "KeySet":
        """One container per 65 536-wide run of a strictly increasing
        id list, each cut out by bisection and packed in one call."""
        out = cls()
        chunks = out._chunks
        start, end = 0, len(ids)
        while start < end:
            base = ids[start] >> CHUNK_BITS
            stop = bisect_left(ids, (base + 1) << CHUNK_BITS, start, end)
            lows = array("q", ids[start:stop] if not base else
                         [i & CHUNK_MASK for i in ids[start:stop]])
            chunks[base] = (lows if len(lows) <= SPARSE_MAX
                            else _array_to_bitmap(lows))
            start = stop
        out._len = end
        return out

    def copy(self) -> "KeySet":
        """O(chunks): containers are shared (they are never mutated in
        place — copy-on-write makes sharing safe)."""
        out = KeySet()
        out._chunks = dict(self._chunks)
        out._len = self._len
        return out

    # -- point operations ---------------------------------------------------

    def add(self, member: int) -> bool:
        """Insert; True when the member was new."""
        base = member >> CHUNK_BITS
        low = member & CHUNK_MASK
        chunk = self._chunks.get(base)
        if chunk is None:
            self._chunks[base] = array("q", (low,))
        elif isinstance(chunk, int):
            if chunk >> low & 1:
                return False
            self._chunks[base] = chunk | (1 << low)
        else:
            index = bisect_left(chunk, low)
            if index < len(chunk) and chunk[index] == low:
                return False
            if len(chunk) >= SPARSE_MAX:  # promote: array -> bitmap
                self._chunks[base] = _array_to_bitmap(chunk, low)
            else:  # copy-on-write insert
                fresh = chunk[:index]
                fresh.append(low)
                fresh.extend(chunk[index:])
                self._chunks[base] = fresh
        self._len += 1
        return True

    def discard(self, member: int) -> bool:
        """Remove; True when the member was present."""
        base = member >> CHUNK_BITS
        low = member & CHUNK_MASK
        chunk = self._chunks.get(base)
        if chunk is None:
            return False
        if isinstance(chunk, int):
            if not chunk >> low & 1:
                return False
            bits = chunk & ~(1 << low)
            if bits.bit_count() <= SPARSE_MAX:  # demote: bitmap -> array
                self._chunks[base] = _bitmap_to_array(bits)
            else:
                self._chunks[base] = bits
        else:
            index = bisect_left(chunk, low)
            if index >= len(chunk) or chunk[index] != low:
                return False
            if len(chunk) == 1:
                del self._chunks[base]
            else:
                self._chunks[base] = chunk[:index] + chunk[index + 1:]
        self._len -= 1
        return True

    def update(self, ids: Iterable[int]) -> None:
        for i in ids:
            self.add(i)

    # -- membership / iteration --------------------------------------------

    def __contains__(self, member: object) -> bool:
        if not isinstance(member, int):
            return False
        chunk = self._chunks.get(member >> CHUNK_BITS)
        if chunk is None:
            return False
        low = member & CHUNK_MASK
        if isinstance(chunk, int):
            return bool(chunk >> low & 1)
        index = bisect_left(chunk, low)
        return index < len(chunk) and chunk[index] == low

    def __len__(self) -> int:
        return self._len

    def cardinality(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    def iter_sorted(self) -> Iterator[int]:
        """Members in ascending order. Safe under concurrent mutation:
        the chunk list is snapshotted and each container is read whole."""
        chunks = self._chunks
        for base in sorted(chunks):
            chunk = chunks.get(base)
            if chunk is None:  # writer removed the chunk meanwhile
                continue
            high = base << CHUNK_BITS
            if isinstance(chunk, int):
                for low in _iter_bitmap(chunk):
                    yield high + low
            else:
                for low in chunk:
                    yield high + low

    __iter__ = iter_sorted

    def to_list(self) -> list[int]:
        """Materialize ascending (the zero-copy handoff's unboxed form)."""
        chunks = self._chunks
        out: list[int] = []
        extend = out.extend
        for base in sorted(chunks):
            chunk = chunks.get(base)
            if chunk is None:
                continue
            high = base << CHUNK_BITS
            if isinstance(chunk, int):
                extend(high + low for low in _iter_bitmap(chunk))
            elif high:
                extend(high + low for low in chunk.tolist())
            else:
                extend(chunk.tolist())
        return out

    def rank(self, member: int) -> int:
        """Members strictly below ``member`` (bisect_left semantics)."""
        base = member >> CHUNK_BITS
        low = member & CHUNK_MASK
        chunks = self._chunks
        total = 0
        for b in sorted(chunks):
            if b > base:
                break
            chunk = chunks.get(b)
            if chunk is None:
                continue
            if b < base:
                total += _chunk_count(chunk)
            elif isinstance(chunk, int):
                total += (chunk & ((1 << low) - 1)).bit_count()
            else:
                total += bisect_left(chunk, low)
        return total

    # -- set algebra --------------------------------------------------------

    def and_(self, other: "KeySet") -> "KeySet":
        out = KeySet()
        total = 0
        mine, theirs = self._chunks, other._chunks
        if len(theirs) < len(mine):
            mine, theirs = theirs, mine
        for base, a in mine.items():
            b = theirs.get(base)
            if b is None:
                continue
            merged = _and_chunks(a, b)
            if merged is not None:
                out._chunks[base] = merged
                total += _chunk_count(merged)
        out._len = total
        return out

    def or_(self, other: "KeySet") -> "KeySet":
        out = KeySet()
        total = 0
        mine, theirs = self._chunks, other._chunks
        for base, a in mine.items():
            b = theirs.get(base)
            merged = a if b is None else _or_chunks(a, b)
            out._chunks[base] = merged
            total += _chunk_count(merged)
        for base, b in theirs.items():
            if base not in mine:
                out._chunks[base] = b
                total += _chunk_count(b)
        out._len = total
        return out

    def andnot(self, other: "KeySet") -> "KeySet":
        out = KeySet()
        total = 0
        theirs = other._chunks
        for base, a in self._chunks.items():
            b = theirs.get(base)
            merged = a if b is None else _andnot_chunks(a, b)
            if merged is not None:
                out._chunks[base] = merged
                total += _chunk_count(merged)
        out._len = total
        return out

    __and__ = and_
    __or__ = or_
    __sub__ = andnot

    def isdisjoint(self, other: "KeySet") -> bool:
        mine, theirs = self._chunks, other._chunks
        if len(theirs) < len(mine):
            mine, theirs = theirs, mine
        for base, a in mine.items():
            b = theirs.get(base)
            if b is not None and _and_chunks(a, b) is not None:
                return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KeySet):
            return NotImplemented
        if self._len != other._len:
            return False
        # the container invariant makes representation canonical, but
        # array('q') == array('q') compares elementwise either way
        mine, theirs = self._chunks, other._chunks
        if len(mine) != len(theirs):
            return False
        for base, a in mine.items():
            b = theirs.get(base)
            if b is None or isinstance(a, int) != isinstance(b, int):
                return False
            if isinstance(a, int):
                if a != b:
                    return False
            elif a != b:
                return False
        return True

    __hash__ = None  # type: ignore[assignment]

    # -- accounting ---------------------------------------------------------

    def size_bytes(self) -> int:
        """Compressed footprint: 8 KiB per dense chunk, 8 bytes per
        sparse member, plus a fixed per-chunk header."""
        total = 0
        for chunk in self._chunks.values():
            if isinstance(chunk, int):
                total += _BITMAP_BYTES + 32
            else:
                total += 8 * len(chunk) + 32
        return total

    def chunk_layout(self) -> dict[str, int]:
        """Container census (for tests, stats and the bench report)."""
        dense = sum(1 for c in self._chunks.values() if isinstance(c, int))
        return {
            "chunks": len(self._chunks),
            "dense": dense,
            "sparse": len(self._chunks) - dense,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        layout = self.chunk_layout()
        return (f"KeySet(len={self._len}, chunks={layout['chunks']}, "
                f"dense={layout['dense']})")


# -- chunk-level kernels -----------------------------------------------------

def _and_chunks(a, b):
    a_dense, b_dense = isinstance(a, int), isinstance(b, int)
    if a_dense and b_dense:
        return _normalize(a & b)
    if a_dense:
        a, b = b, a  # a sparse, b dense
        b_dense = True
    if b_dense:
        out = array("q", (low for low in a if b >> low & 1))
        return out if len(out) else None
    # sparse ∩ sparse: bounded by SPARSE_MAX per side
    members = frozenset(a) & frozenset(b)
    if not members:
        return None
    return array("q", sorted(members))


def _or_chunks(a, b):
    a_dense, b_dense = isinstance(a, int), isinstance(b, int)
    if a_dense and b_dense:
        return a | b  # counts only grow: stays dense
    if a_dense or b_dense:
        bits, sparse = (a, b) if a_dense else (b, a)
        buffer = bytearray(bits.to_bytes(_BITMAP_BYTES, "little"))
        for low in sparse:
            buffer[low >> 3] |= 1 << (low & 7)
        return int.from_bytes(buffer, "little")
    merged = sorted(frozenset(a) | frozenset(b))
    if len(merged) > SPARSE_MAX:
        return _array_to_bitmap(merged)  # type: ignore[arg-type]
    return array("q", merged)


def _andnot_chunks(a, b):
    a_dense, b_dense = isinstance(a, int), isinstance(b, int)
    if a_dense and b_dense:
        return _normalize(a & ~b)
    if a_dense:  # dense minus sparse
        buffer = bytearray(a.to_bytes(_BITMAP_BYTES, "little"))
        for low in b:
            buffer[low >> 3] &= ~(1 << (low & 7)) & 0xFF
        return _normalize(int.from_bytes(buffer, "little"))
    if b_dense:  # sparse minus dense
        out = array("q", (low for low in a if not b >> low & 1))
        return out if len(out) else None
    members = frozenset(a) - frozenset(b)
    if not members:
        return None
    return array("q", sorted(members))
