"""One simulated server."""

from __future__ import annotations

from typing import Any, Callable

from repro.cluster.counters import Counters
from repro.storage.cache import DecodedTileCache, EdgeCache
from repro.storage.disk import LocalDisk


class Server:
    """A compute server: local disk, optional edge cache, counters, state.

    Engines attach whatever per-server state they need (vertex replica
    arrays, partition indices, message buffers) to :attr:`state`; the
    server object itself only owns the metered resources.
    """

    def __init__(self, server_id: int, disk_root: str) -> None:
        self.server_id = int(server_id)
        self.disk = LocalDisk(disk_root)
        self.cache: EdgeCache | None = None
        self.decoded_cache: DecodedTileCache | None = None
        self.counters = Counters()
        self.state: dict[str, Any] = {}
        # Installed by repro.faults.FaultInjector.attach(); None in
        # normal runs.  Consulted on the tile-load path only.
        self.fault_injector: Any | None = None
        # This server's repro.obs.trace.TraceBuffer, installed by the
        # engine when tracing is on; None in normal runs.  Single-writer:
        # only this server's executor thread / sticky worker records.
        self.trace: Any | None = None

    def attach_cache(self, capacity_bytes: int, mode: int) -> EdgeCache:
        """Install an edge cache (replaces any existing one)."""
        self.cache = EdgeCache(capacity_bytes=capacity_bytes, mode=mode)
        self.cache.trace = self.trace
        return self.cache

    def attach_decoded_cache(
        self, max_entries: int | None = None
    ) -> DecodedTileCache:
        """Install a decoded-tile cache (replaces any existing one)."""
        self.decoded_cache = DecodedTileCache(max_entries=max_entries)
        self.decoded_cache.trace = self.trace
        return self.decoded_cache

    def load_blob(self, name: str) -> bytes:
        """Read a blob through the cache if present, metering everything.

        This is the §IV-B lookup path wired into the server's counters:
        disk traffic on a miss, decompression work on a compressed hit,
        and the cache's live size mirrored into the memory accounting.
        """
        before_read = self.disk.bytes_read
        if self.cache is not None:
            before_decomp = self.cache.stats.bytes_decompressed
            data = self.cache.load(name, self.disk)
            decomp = self.cache.stats.bytes_decompressed - before_decomp
            if decomp and self.cache.mode != 1:
                self.counters.add_decompressed(self.cache.codec.name, decomp)
            self.counters.set_memory("cache", self.cache.used_bytes)
            # Cache misses are concurrent per-tile fetches — seek-bound.
            self.counters.disk_read_random += self.disk.bytes_read - before_read
        else:
            data = self.disk.read(name)
            self.counters.disk_read += self.disk.bytes_read - before_read
        return data

    def load_tile(self, name: str, parser: Callable[[bytes], Any]) -> Any:
        """Load a blob and return it *decoded*, parsing at most once.

        The decoded-tile cache sits in front of :meth:`load_blob`, but
        never in front of its *metering*: every access still drives the
        §IV-B edge-cache / disk accounting, byte-identically to the
        undecoded path —

        * decoded hit + edge-cache resident: a metering-equivalent hit
          (:meth:`EdgeCache.touch` recency/stats + the decompression
          charge a real hit would incur), skipping both the codec and
          the parse;
        * decoded hit + edge-cache miss (tiny or thrashing cache): the
          real blob load runs for its disk/admission side effects and
          only the re-parse is skipped — the physical re-read happens,
          exactly what the simulation must meter;
        * decoded miss: the real blob load runs, the blob is parsed,
          and the decoded object is cached for the next superstep.

        The fault injector (when attached) is consulted first: transient
        injected read errors re-read the blob through the metered disk
        and charge retry costs here, before the cache lookup; fatal ones
        raise :class:`repro.faults.errors.DiskReadFault`.
        """
        if self.trace is None:
            return self._load_tile(name, parser)
        self.trace.begin("load", "io", blob=name)
        try:
            return self._load_tile(name, parser)
        finally:
            self.trace.end()

    def _load_tile(self, name: str, parser: Callable[[bytes], Any]) -> Any:
        """:meth:`load_tile` body (split so the traced path can wrap it
        in a span with exception-safe closing)."""
        if self.fault_injector is not None:
            self.fault_injector.on_tile_load(self, name)
        dcache = self.decoded_cache
        if dcache is None:
            return parser(self.load_blob(name))
        entry = dcache.get(name)
        if entry is not None:
            obj, orig_len = entry
            if self.cache is not None and self.cache.touch(name, orig_len):
                if orig_len and self.cache.mode != 1:
                    self.counters.add_decompressed(
                        self.cache.codec.name, orig_len
                    )
                self.counters.set_memory("cache", self.cache.used_bytes)
                return obj
            self.load_blob(name)
            return obj
        data = self.load_blob(name)
        obj = parser(data)
        dcache.put(name, obj, len(data))
        return obj

    def store_blob(self, name: str, data: bytes) -> None:
        """Write a blob to local disk, metering the transfer."""
        self.disk.write(name, data)
        self.counters.disk_write += len(data)
        if self.decoded_cache is not None:
            self.decoded_cache.invalidate(name)

    def __repr__(self) -> str:
        return f"Server(id={self.server_id}, cache={self.cache is not None})"
