"""Active-vertex bitmaps and per-tile source summaries (GraphMP port).

GraphH's follow-up engine GraphMP ("I/O-Efficient Big Graph Analytics on
a Single Commodity Machine") adds *selective scheduling*: before a
superstep touches disk it consults an active-vertex bitmap — the exact
set of vertices updated in the previous superstep — and skips every tile
whose source vertices are all inactive.  Where the §III-C.4 bloom probe
answers "might any updated vertex be a source of this tile?" with a
tunable false-positive rate, the bitmap answers it *exactly*: the skip
set under selective scheduling is a superset of the bloom skip set, and
the two differ only on bloom false positives.

With selective scheduling on, the engine therefore never builds or
probes a bloom filter.  A bloom has no false negatives, so it cannot
skip a tile whose summary intersects the frontier; the one verdict the
bitmap does not repeat — skip an *empty* tile when every vertex updated
(the dense frontier the bitmap bypasses) — is read off the summary's
emptiness.  Filters are built lazily, at run start, only for runs with
selective scheduling off.

Both prunes are conservative in the same direction — a skipped tile is
one the full gather would have produced zero messages from — so turning
either (or both) on never changes values, Counters, CacheStats, or fault
schedules; that invariant is pinned in ``tests/test_selective.py``.

Two pieces:

* :class:`ActiveBitmap` — the previous superstep's updated-vertex set as
  a dense :class:`~repro.utils.bitset.Bitset` plus the sorted id array
  it was built from (for O(log n) range rejection).
* :class:`TileSourceSummary` — a tile's source-vertex footprint: the
  ``[src_lo, src_hi]`` range plus the exact sorted source array.  Built
  once at setup from decoded tiles; ~8 B/distinct-source resident, the
  same order as the bloom filters it stands in for.

The membership test is two-stage: a searchsorted range rejection on the
sorted updated array (cheap, catches the common case where a tile's
source range lies wholly outside the frontier), then an exact bitset
probe over the tile's sources.
"""

from __future__ import annotations

import numpy as np

from repro.utils.bitset import Bitset

__all__ = ["ActiveBitmap", "TileSourceSummary"]


class ActiveBitmap:
    """The frontier: vertices updated in the previous superstep.

    ``dense`` is True when *every* vertex updated — the common first few
    supersteps of PageRank-style programs — in which case only an empty
    tile can be skipped and callers should bypass per-tile probes
    entirely (mirrors the ``ALL_KEYS`` fast path on the bloom side).
    """

    __slots__ = ("num_vertices", "updated", "dense", "_bits")

    def __init__(self, updated: np.ndarray, num_vertices: int) -> None:
        self.num_vertices = int(num_vertices)
        self.updated = np.asarray(updated, dtype=np.int64)
        self.dense = self.updated.size >= self.num_vertices
        self._bits: Bitset | None = None
        if not self.dense and self.updated.size:
            bits = Bitset(self.num_vertices)
            bits.set_many(self.updated)
            self._bits = bits

    @classmethod
    def seed_from_ids(cls, vertex_ids, num_vertices: int) -> "ActiveBitmap":
        """Build a frontier directly from a set of vertex ids.

        The public seeding path for dirty-set consumers (``repro.delta``
        seeds a mutation batch's dirty vertices as "updated last
        superstep").  Ids are validated, deduplicated, and sorted, so
        the bitmap is identical however the caller ordered them.
        """
        ids = np.unique(np.asarray(vertex_ids, dtype=np.int64))
        if ids.size and (ids[0] < 0 or ids[-1] >= int(num_vertices)):
            raise ValueError(
                f"vertex ids must lie in [0, {num_vertices}); "
                f"got range [{int(ids[0])}, {int(ids[-1])}]"
            )
        return cls(ids, num_vertices)

    def union(self, other: "ActiveBitmap") -> "ActiveBitmap":
        """A new bitmap active wherever either input is."""
        if self.num_vertices != other.num_vertices:
            raise ValueError(
                f"bitmap sizes differ: {self.num_vertices} vs "
                f"{other.num_vertices}"
            )
        merged = np.union1d(self.updated, other.updated)
        return ActiveBitmap(merged, self.num_vertices)

    @property
    def count(self) -> int:
        """Number of active vertices."""
        return int(self.updated.size)

    def any_in_range(self, lo: int, hi: int) -> bool:
        """Whether any active vertex lies in ``[lo, hi]`` (inclusive)."""
        if self.dense:
            return self.num_vertices > 0
        left = int(np.searchsorted(self.updated, lo, side="left"))
        return left < self.updated.size and int(self.updated[left]) <= hi

    def any_of(self, vertex_ids: np.ndarray) -> bool:
        """Exact probe: is any of ``vertex_ids`` active?"""
        if self.dense:
            return vertex_ids.size > 0
        if self._bits is None:
            return False
        return self._bits.any_of(vertex_ids)


class TileSourceSummary:
    """A tile's source-vertex footprint for schedule-time pruning.

    Unlike the bloom filter (approximate, sized for a false-positive
    budget) this is the *exact* sorted distinct-source array, so
    :meth:`intersects` never wastes a tile load — at the cost of holding
    the ids themselves in memory.
    """

    __slots__ = ("tile_id", "src_lo", "src_hi", "sources")

    def __init__(self, tile_id: int, sources: np.ndarray) -> None:
        self.tile_id = int(tile_id)
        self.sources = np.asarray(sources, dtype=np.int64)
        if self.sources.size:
            self.src_lo = int(self.sources[0])
            self.src_hi = int(self.sources[-1])
        else:  # empty tile: impossible range so every probe rejects
            self.src_lo = 0
            self.src_hi = -1

    @classmethod
    def from_tile(cls, tile) -> "TileSourceSummary":
        """Summarise a decoded :class:`~repro.partition.tiles.Tile`
        (``source_vertices`` is already sorted-unique)."""
        return cls(tile.tile_id, tile.source_vertices)

    @property
    def nbytes(self) -> int:
        """Resident footprint of the summary."""
        return int(self.sources.nbytes)

    def intersects(self, bitmap: ActiveBitmap) -> bool:
        """Exact schedule predicate: does this tile have an active
        source?  ``False`` proves the tile's gather is empty this
        superstep and its load/decode can be skipped."""
        if self.sources.size == 0:
            return False
        if not bitmap.any_in_range(self.src_lo, self.src_hi):
            return False
        return bitmap.any_of(self.sources)

    def __repr__(self) -> str:
        return (
            f"TileSourceSummary(tile={self.tile_id}, "
            f"range=[{self.src_lo},{self.src_hi}], n={self.sources.size})"
        )
