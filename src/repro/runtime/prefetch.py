"""Pipelined tile I/O: a bounded per-server prefetch stage.

GraphH's workers "stream tiles through memory" (§III-B); its sibling
engine GraphMP pipelines selective scheduling so disk time hides behind
compute.  The seed sweep was strictly sequential per server — read,
decompress, decode, gather, apply, then request the next blob — so I/O
and compute *added*.  :class:`TilePrefetcher` overlaps them: while the
compute thread gathers tile *k*, background I/O threads perform tile
*k+1*'s disk read + cache probe + codec decompress + CSR decode.

Determinism by construction
---------------------------
The simulation's contract is that values, ``Counters``, ``CacheStats``,
and modeled costs are bitwise identical whatever the host runtime does.
The pipeline keeps that contract with a strict speculate/commit split:

* **Background threads never mutate anything.**  Speculation
  (:func:`speculate_load`) uses only non-mutating probes —
  ``LocalDisk.peek``, ``EdgeCache.peek_stored``,
  ``DecodedTileCache.peek`` — and computes codec/parse *products*
  (decompressed bytes, compressed bytes, decoded tiles) that are pure
  functions of immutable blob bytes.  No stats, no counters, no cache
  contents, no recency order are touched off-thread.
* **All metering happens at dequeue, on the compute thread, in the
  serial sweep order.**  The sweep pulls ``(item, hint)`` pairs from
  the pipeline and drives the *unchanged* metered path
  (``Server.load_tile``) exactly as the sequential sweep would; the
  hint only lets the metered path *skip recomputing* a deterministic
  product, validated by object identity (``stored is entry``,
  ``raw is data``, ``decoded_from is data``).  A hint can therefore
  never change a branch decision or a byte count — at worst it is
  discarded and the metered path recomputes inline (a stall, not a
  divergence).
* **Faults stay in serial sweep order.**  The fault injector fires
  inside the metered load at dequeue — the same per-tile instant, in
  the same order, as the sequential sweep.  Background threads never
  consult it; a speculation raced against an injected fault is simply
  dropped.

Speculation failures (eviction between enqueue and dequeue, a blob
vanishing mid-flight, codec errors) all degrade to "no hint": the
compute thread reruns the real path and surfaces any real error
deterministically.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Iterable, Iterator

__all__ = [
    "PrefetchedLoad",
    "TilePrefetcher",
    "recommend_depth",
    "speculate_load",
]


def recommend_depth(
    io_s: float,
    compute_s: float,
    total_s: float,
    min_overlap: float = 0.02,
    max_depth: int = 2,
) -> tuple[int, int]:
    """Pick ``(prefetch_depth, io_threads)`` from a phase-time estimate.

    The pipeline can hide at most ``min(io_s, compute_s)`` per superstep
    — I/O behind compute or vice versa.  When that overlap is worth less
    than ``min_overlap`` of the superstep, the pipeline's host-side
    thread overhead is not worth paying and the sweep stays sequential
    (depth 0).  Otherwise depth ``max_depth`` keeps the next tile in
    flight, with a second I/O thread only when I/O is the long pole and
    a single thread would itself become the bottleneck.

    Pure arithmetic on its inputs — callers feeding deterministic
    (modeled) phase times get a deterministic recommendation.
    """
    hidden = min(max(io_s, 0.0), max(compute_s, 0.0))
    if max_depth <= 0 or hidden <= min_overlap * max(total_s, 1e-12):
        return 0, 1
    return max_depth, 2 if io_s > compute_s else 1


class PrefetchedLoad:
    """Products of one background speculation for one blob.

    Every field is either ``None`` (not speculated / not applicable) or
    the exact object the metered path would have produced, tagged with
    the source object it was derived from so consumers can validate by
    identity:

    * ``stored`` / ``decompressed`` — the cache entry observed at
      speculation time and its decompression (hit path).
    * ``raw`` / ``compressed`` — the peeked disk bytes and their
      speculative compression for cache admission (miss path).
    * ``decoded`` / ``decoded_from`` — the parsed tile and the bytes
      object it was parsed from.
    """

    __slots__ = (
        "name",
        "raw",
        "compressed",
        "decompressed",
        "stored",
        "decoded",
        "decoded_from",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.raw: bytes | None = None
        self.compressed: bytes | None = None
        self.decompressed: bytes | None = None
        self.stored: bytes | None = None
        self.decoded: Any | None = None
        self.decoded_from: bytes | None = None


def _peek(disk, name: str) -> bytes | None:
    try:
        return disk.peek(name)
    except OSError:
        return None


def speculate_load(server, name: str, parser: Callable[[bytes], Any]):
    """Speculatively perform tile ``name``'s I/O work, mutating nothing.

    Mirrors the four shapes of ``Server._load_tile``:

    1. decoded-cache hit + edge-cache resident → the metered path does
       no codec/parse work, so there is nothing to stage;
    2. decoded-cache hit + edge-cache miss (thrashing) → stage the raw
       bytes and their compression for the metered re-read/admission;
    3. decoded-cache miss + edge-cache hit → stage the decompression
       and the parse;
    4. both miss (cache-cold) → stage raw bytes, compression, and parse.
    """
    out = PrefetchedLoad(name)
    cache = server.cache
    dcache = server.decoded_cache
    decoded_present = dcache is not None and dcache.peek(name) is not None
    data: bytes | None = None
    if cache is not None:
        stored = cache.peek_stored(name)
        if stored is not None:
            if decoded_present:
                return out
            out.stored = stored
            data = out.decompressed = cache.codec.decompress(stored)
        else:
            data = out.raw = _peek(server.disk, name)
            if data is not None:
                out.compressed = cache.codec.compress(data)
    else:
        data = out.raw = _peek(server.disk, name)
    if data is not None and not decoded_present:
        out.decoded = parser(data)
        out.decoded_from = data
    return out


class TilePrefetcher:
    """Bounded double-buffered pipeline over an explicit tile schedule.

    ``schedule`` is the exact ordered list of tiles the sweep will
    process (skipped tiles already pruned, so skips cost zero
    I/O).  Up to ``depth`` speculations are in flight at once on a pool
    of ``io_threads`` background threads; :meth:`__iter__` yields
    ``(item, hint, ready)`` in schedule order, where ``hint`` is the
    speculation result (or ``None`` if it failed) and ``ready`` records
    whether it had finished before the compute thread asked — the
    pipeline-occupancy signal.

    Tracing: background threads record ``tile_prefetch`` complete-events
    on ``io_trace`` (a multi-writer-safe buffer; one atomic append per
    event).  The compute thread records one ``prefetch_wait`` span per
    dequeue on ``wait_trace`` (the server's single-writer buffer), so
    trace trees stay deterministic.  With ``io_threads > 1`` the *order*
    of ``tile_prefetch`` events is scheduling-dependent; comparisons
    that pin event order should use one I/O thread.
    """

    def __init__(
        self,
        server,
        schedule: Iterable[Any],
        parser: Callable[[bytes], Any],
        depth: int,
        io_threads: int = 1,
        name_of: Callable[[Any], str] = lambda item: item,
        io_trace=None,
        wait_trace=None,
    ) -> None:
        if depth < 1:
            raise ValueError("prefetch depth must be >= 1")
        if io_threads < 1:
            raise ValueError("io_threads must be >= 1")
        self._server = server
        self._schedule = list(schedule)
        self._parser = parser
        self._depth = depth
        self._name_of = name_of
        self._io_trace = io_trace
        self._wait_trace = wait_trace
        self.served_ready = 0
        self.dequeues = 0
        self._pool = ThreadPoolExecutor(
            max_workers=io_threads,
            thread_name_prefix=f"repro-prefetch-{server.server_id}",
        )

    def _speculate(self, name: str):
        """Pool task: speculate, swallowing *every* error.

        A failed speculation must not surface from a background thread —
        the compute thread reruns the real metered path and any genuine
        error reproduces there, deterministically.
        """
        t0 = time.perf_counter()
        try:
            return speculate_load(self._server, name, self._parser)
        except Exception:
            return None
        finally:
            if self._io_trace is not None:
                self._io_trace.complete(
                    "tile_prefetch", "prefetch", t0, time.perf_counter(),
                    blob=name,
                )

    def __iter__(self) -> Iterator[tuple[Any, Any, bool]]:
        pending: list[tuple[Any, Any]] = []  # (item, future), schedule order
        cursor = 0
        while cursor < len(self._schedule) or pending:
            while cursor < len(self._schedule) and len(pending) < self._depth:
                item = self._schedule[cursor]
                cursor += 1
                fut = self._pool.submit(self._speculate, self._name_of(item))
                pending.append((item, fut))
            item, fut = pending.pop(0)
            ready = fut.done()
            if self._wait_trace is not None:
                self._wait_trace.begin(
                    "prefetch_wait", "prefetch",
                    blob=self._name_of(item), ready=ready,
                )
                try:
                    hint = fut.result()
                finally:
                    self._wait_trace.end()
            else:
                hint = fut.result()
            self.dequeues += 1
            if ready:
                self.served_ready += 1
            yield item, hint, ready

    def close(self) -> None:
        """Shut the I/O pool down (idempotent); cancels queued work."""
        self._pool.shutdown(wait=True, cancel_futures=True)
