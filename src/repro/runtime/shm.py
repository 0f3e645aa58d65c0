"""Shared-memory substrate for the process executor.

The process runtime keeps every large array — vertex values, degree
arrays, tile blobs — in POSIX shared memory
(:mod:`multiprocessing.shared_memory`) created *before* the worker pool
forks.  Workers inherit the mappings and operate on them zero-copy;
per-superstep dispatch ships only small handles and compact results,
never pickled megabyte payloads.

Every segment created through :class:`SharedArray` is tracked in a
process-local registry so tests can assert nothing leaked
(:func:`outstanding_segments`).  Segments are named
``repro-<pid>-<seq>`` which also makes stale ``/dev/shm`` entries
attributable.
"""

from __future__ import annotations

import itertools
import os
import sys
from typing import Iterable

import numpy as np

from repro.storage.disk import LocalDisk

__all__ = [
    "SharedArray",
    "SharedBlobArena",
    "ArenaDisk",
    "outstanding_segments",
    "process_runtime_available",
    "segment_prefix",
]

_SEQ = itertools.count()
# Leak registry: name -> SharedMemory for every segment this process
# created and has not yet released.  Forked children inherit a frozen
# copy; only the creating (parent) process releases segments.
_LIVE: dict[str, object] = {}


def segment_prefix() -> str:
    """Name prefix of segments created by this process."""
    return f"repro-{os.getpid()}-"


def outstanding_segments() -> list[str]:
    """Names of shared segments created here and not yet released.

    The leak-check fixture in ``tests/conftest.py`` asserts this is
    empty after every test.
    """
    return sorted(_LIVE)


def process_runtime_available() -> bool:
    """Whether this platform supports the process executor.

    Requires the ``fork`` start method (workers inherit engine state and
    closures without pickling) and POSIX shared memory.  On platforms
    without either (e.g. Windows, some sandboxes) the engine falls back
    to the thread executor.
    """
    if sys.platform == "win32":
        return False
    try:
        import multiprocessing
        import multiprocessing.shared_memory  # noqa: F401

        return "fork" in multiprocessing.get_all_start_methods()
    except (ImportError, OSError):  # pragma: no cover - exotic platforms
        return False


class SharedArray:
    """A numpy array backed by a named shared-memory segment.

    Created once in the parent (before fork); workers inherit the
    mapping, so reads and writes on ``.array`` are zero-copy on both
    sides.  The creating process must call :meth:`release` (idempotent)
    to close and unlink the segment.
    """

    def __init__(self, shape, dtype) -> None:
        from multiprocessing import shared_memory

        self._template = np.empty(0, dtype=dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * self._template.itemsize
        self.name = f"{segment_prefix()}{next(_SEQ)}"
        self._shm = shared_memory.SharedMemory(
            create=True, name=self.name, size=max(1, nbytes)
        )
        self.array = np.ndarray(shape, dtype=dtype, buffer=self._shm.buf)
        _LIVE[self.name] = self._shm

    @classmethod
    def from_array(cls, source: np.ndarray) -> "SharedArray":
        """Allocate a segment and copy ``source`` into it."""
        sh = cls(source.shape, source.dtype)
        sh.array[...] = source
        return sh

    def release(self) -> None:
        """Close and unlink the segment (idempotent; parent only)."""
        shm = _LIVE.pop(self.name, None)
        if shm is None:
            return
        # Drop the exported view first: SharedMemory.close() refuses
        # while ndarrays still reference the buffer.
        self.array = None
        shm.close()
        shm.unlink()

    def __repr__(self) -> str:
        state = "released" if self.name not in _LIVE else "live"
        return f"SharedArray({self.name}, {state})"


class SharedBlobArena:
    """Read-only blob bytes concatenated into one shared segment.

    Tile blobs are immutable after setup; placing them all in a single
    shared mapping means worker tile loads touch the same physical pages
    as the parent instead of each process paging its own file reads.
    The arena is a *host-side* placement detail: metered disk traffic is
    unchanged (see :class:`ArenaDisk`).
    """

    def __init__(self, blobs: Iterable[tuple[str, bytes]]) -> None:
        items = list(blobs)
        total = sum(len(data) for _, data in items)
        self._sh = SharedArray((max(1, total),), np.uint8)
        self._offsets: dict[str, tuple[int, int]] = {}
        view = self._sh.array
        cursor = 0
        for name, data in items:
            n = len(data)
            view[cursor : cursor + n] = np.frombuffer(data, dtype=np.uint8)
            self._offsets[name] = (cursor, n)
            cursor += n
        view.setflags(write=False)

    def __contains__(self, name: str) -> bool:
        return name in self._offsets

    def get(self, name: str) -> bytes | None:
        """Blob bytes (a private copy, like a disk read into a buffer),
        or None if the arena does not hold this name."""
        span = self._offsets.get(name)
        if span is None:
            return None
        off, n = span
        return bytes(self._sh.array[off : off + n])

    @property
    def nbytes(self) -> int:
        return int(self._sh.array.nbytes)

    def release(self) -> None:
        self._sh.release()


class ArenaDisk(LocalDisk):
    """A server's local disk with reads served from a shared arena.

    Byte-for-byte the same accounting as :class:`LocalDisk` — the meters
    advance identically and misses (blobs written after the arena was
    built, e.g. by a respawn) fall through to the real files.  Installed
    on each server for the duration of one process-executor run.
    """

    def __init__(self, inner: LocalDisk, arena: SharedBlobArena) -> None:
        super().__init__(inner.root)
        self._inner = inner
        self._arena = arena
        # Continue the wrapped disk's meters so deltas span the swap.
        self.bytes_read = inner.bytes_read
        self.bytes_written = inner.bytes_written
        self.read_ops = inner.read_ops
        self.write_ops = inner.write_ops

    def read(self, name: str) -> bytes:
        data = self._arena.get(name)
        if data is None:
            return super().read(name)
        self.bytes_read += len(data)
        self.read_ops += 1
        return data

    def peek(self, name: str) -> bytes:
        """Unmetered read served from the shared arena when possible —
        the prefetch pipeline's speculation path inside forked workers."""
        data = self._arena.get(name)
        if data is None:
            return super().peek(name)
        return data

    def restore(self) -> LocalDisk:
        """Hand the meters back to the wrapped disk and return it."""
        self._inner.bytes_read = self.bytes_read
        self._inner.bytes_written = self.bytes_written
        self._inner.read_ops = self.read_ops
        self._inner.write_ops = self.write_ops
        return self._inner
