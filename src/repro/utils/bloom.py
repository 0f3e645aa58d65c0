"""Bloom filter used to skip inactive tiles (paper §III-C.4).

GraphH "makes each tile leave a bloom filter in memory to record its
source vertex information.  When processing a tile, GraphH would first
check whether its source vertex list contains any updated vertices" —
and skips loading the tile from disk if not.

The filter must never report a false negative (that would drop a vertex
update and corrupt the computation), which is the core property our
hypothesis tests pin down.  False positives only cost a wasted tile load.

Hashing is vectorised: two independent 64-bit mixers give ``h1, h2`` and
the classic Kirsch–Mitzenmacher scheme derives ``k`` probe positions as
``h1 + i * h2``.  The ``(h1, h2)`` pair depends only on the keys — not
on any filter's geometry — so a caller probing *many* filters with the
same key batch (the engine checks every tile's filter against one
updated-vertex set each superstep) can hash once via :func:`hash_keys`
and pass the result to :meth:`BloomFilter.might_intersect`.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)

# Keys probed per block in might_intersect's early-exit loop.  Dense
# updated sets hit in the first block, so a tile check touches ~2k keys
# instead of the whole set; sparse sets still scan everything.
_PROBE_BLOCK = 2048


class HashedKeys:
    """Kirsch–Mitzenmacher base hashes for a key batch.

    Filter-independent: the same instance can probe any number of
    :class:`BloomFilter` objects without re-running the mixers.  Arrays
    are read-only so the instance can be shared across threads.
    """

    __slots__ = ("size", "h1", "h2")

    def __init__(self, keys: np.ndarray) -> None:
        keys = np.asarray(keys, dtype=np.int64).astype(np.uint64)
        self.size = int(keys.size)
        self.h1 = _splitmix64(keys, 0x9E3779B97F4A7C15)
        self.h2 = _splitmix64(keys, 0xC2B2AE3D27D4EB4F) | np.uint64(1)
        self.h1.setflags(write=False)
        self.h2.setflags(write=False)


def hash_keys(keys: np.ndarray) -> HashedKeys:
    """Precompute the probe hashes for ``keys`` (see :class:`HashedKeys`)."""
    return HashedKeys(keys)


class _UniversalKeys:
    """Sentinel key batch: a superset of every key ever inserted.

    Passing :data:`ALL_KEYS` to :meth:`BloomFilter.might_intersect`
    asserts the probe set contains (at least) all inserted keys.  The
    filter then answers from its insert count alone: no false negatives
    means any inserted key must report present, so the result is True
    exactly when something was inserted — identical to probing the full
    batch, with zero hashing.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "ALL_KEYS"


ALL_KEYS = _UniversalKeys()


def _splitmix64(values: np.ndarray, seed: int) -> np.ndarray:
    """Vectorised splitmix64 finaliser over ``uint64`` values."""
    with np.errstate(over="ignore"):
        z = (values + np.uint64(seed)) & _MASK64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9) & _MASK64
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB) & _MASK64
        return z ^ (z >> np.uint64(31))


class BloomFilter:
    """Approximate membership over non-negative integer keys.

    Parameters
    ----------
    expected_items:
        Sizing hint; the bit array and hash count are chosen for roughly
        ``false_positive_rate`` at this load.
    false_positive_rate:
        Target false-positive probability at ``expected_items`` inserts.
    """

    __slots__ = ("_bits", "_num_bits", "_num_hashes", "_num_items")

    def __init__(
        self, expected_items: int, false_positive_rate: float = 0.01
    ) -> None:
        if expected_items < 1:
            expected_items = 1
        if not 0.0 < false_positive_rate < 1.0:
            raise ValueError("false_positive_rate must be in (0, 1)")
        ln2 = math.log(2.0)
        num_bits = max(
            64, int(-expected_items * math.log(false_positive_rate) / (ln2 * ln2))
        )
        self._num_bits = num_bits
        self._num_hashes = max(1, round(num_bits / expected_items * ln2))
        self._bits = np.zeros((num_bits + 63) // 64, dtype=np.uint64)
        self._num_items = 0

    @property
    def num_bits(self) -> int:
        """Size of the bit array."""
        return self._num_bits

    @property
    def num_hashes(self) -> int:
        """Number of probe positions per key."""
        return self._num_hashes

    @property
    def nbytes(self) -> int:
        """Memory footprint in bytes."""
        return int(self._bits.nbytes)

    @property
    def approx_items(self) -> int:
        """Number of ``add`` calls observed (duplicates counted)."""
        return self._num_items

    def _positions_from(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        """Probe positions from precomputed base hashes."""
        steps = np.arange(self._num_hashes, dtype=np.uint64)
        with np.errstate(over="ignore"):
            combined = (h1[:, None] + steps[None, :] * h2[:, None]) & _MASK64
        return (combined % np.uint64(self._num_bits)).astype(np.int64)

    def _positions(self, keys: np.ndarray) -> np.ndarray:
        """Probe positions, shape ``(len(keys), num_hashes)``."""
        hashed = HashedKeys(keys)
        return self._positions_from(hashed.h1, hashed.h2)

    def add(self, key: int) -> None:
        """Insert one key."""
        self.add_many(np.asarray([key], dtype=np.int64))

    def add_many(self, keys: np.ndarray) -> None:
        """Insert a batch of keys (vectorised)."""
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size == 0:
            return
        pos = self._positions(keys).ravel()
        np.bitwise_or.at(
            self._bits, pos >> 6, np.uint64(1) << (pos & 63).astype(np.uint64)
        )
        self._num_items += int(keys.size)

    def contains(self, key: int) -> bool:
        """Membership test for one key (no false negatives)."""
        return bool(self.contains_many(np.asarray([key], dtype=np.int64))[0])

    __contains__ = contains

    def contains_many(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised membership test; boolean array per key."""
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size == 0:
            return np.zeros(0, dtype=bool)
        pos = self._positions(keys)
        words = self._bits[pos >> 6]
        hit = (words >> (pos & 63).astype(np.uint64) & np.uint64(1)).astype(bool)
        return hit.all(axis=1)

    def might_intersect(
        self, keys: "np.ndarray | HashedKeys | _UniversalKeys"
    ) -> bool:
        """True if any key *may* be in the filter.

        This is the tile-skipping predicate: ``keys`` is the set of
        vertices updated in the previous superstep; the filter holds the
        tile's source vertices.  ``False`` guarantees the tile has no
        updated source and can safely be skipped.

        Accepts raw keys, a :class:`HashedKeys` batch hashed once via
        :func:`hash_keys`, or the :data:`ALL_KEYS` sentinel (caller
        guarantees the batch covers every inserted key).  The probe runs
        in blocks and exits on the first possible member, which changes
        nothing about the result (``any`` over blocks equals ``any``
        over the whole set) but makes the common dense-update case
        O(block) per filter.
        """
        if keys is ALL_KEYS:
            return self._num_items > 0
        hashed = keys if isinstance(keys, HashedKeys) else HashedKeys(keys)
        if hashed.size == 0 or self._num_items == 0:
            return False
        one = np.uint64(1)
        for start in range(0, hashed.size, _PROBE_BLOCK):
            stop = start + _PROBE_BLOCK
            pos = self._positions_from(hashed.h1[start:stop], hashed.h2[start:stop])
            words = self._bits[pos >> 6]
            hit = (words >> (pos & 63).astype(np.uint64) & one).astype(bool)
            if bool(hit.all(axis=1).any()):
                return True
        return False

    def __repr__(self) -> str:
        return (
            f"BloomFilter(bits={self._num_bits}, hashes={self._num_hashes}, "
            f"items~{self._num_items})"
        )
