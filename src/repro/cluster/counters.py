"""Per-server resource counters.

Every engine charges its activity here; the Table III property tests and
the cost model both consume these numbers.  Memory is tracked by
category (vertex state / edge storage / message buffers / cache) with a
running peak, mirroring how the paper decomposes each system's RAM row.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Counters:
    """Mutable counters for one server (or one aggregate view)."""

    # --- memory, current bytes by category -------------------------------
    mem_vertex: int = 0
    mem_edges: int = 0
    mem_messages: int = 0
    mem_cache: int = 0
    mem_scratch: int = 0
    mem_peak: int = 0

    # --- I/O volumes ------------------------------------------------------
    disk_read: int = 0
    # Seek-bound reads (concurrent per-tile cache-miss fetches), charged
    # at the spec's lower random-read bandwidth.
    disk_read_random: int = 0
    disk_write: int = 0
    net_sent: int = 0
    net_recv: int = 0

    # --- work volumes -----------------------------------------------------
    edges_processed: int = 0
    # Every Channel.send counts one message here, *including* local
    # (src == dst) sends — message count is per-send work, while the
    # byte meters (net_sent / net_recv) stay network-only.
    # Channel.total_messages follows the same semantics.
    messages_sent: int = 0
    # Per-message handling work (serialise/route/combine) in
    # message-passing engines; GraphH's dense-array broadcast application
    # is bandwidth-bound and deliberately charges nothing here.
    messages_processed: int = 0
    # Tiles pruned from the schedule before any disk/decompress work
    # (bitmap or bloom — see selective scheduling, GraphMP §III).  The
    # cost model charges each one a small schedule-probe time instead
    # of a load.
    tiles_skipped: int = 0
    decompressed: dict[str, int] = field(default_factory=dict)
    compressed: dict[str, int] = field(default_factory=dict)

    # --- delta overlays (repro.delta) -------------------------------------
    # Overlay bytes decoded on top of base tiles at load time: each
    # scheduled tile with a pending overlay charges the overlay blob
    # size (priced at random-read bandwidth — overlays are small
    # seek-bound reads next to the streamed base tile).
    delta_bytes: int = 0
    # Overlay edge edits applied while composing (insert + delete rows);
    # priced per edit by the spec's delta_edge_apply_s.
    delta_edges: int = 0

    # --- fault injection & recovery (repro.faults) ------------------------
    # Injected faults that hit this server.
    faults_injected: int = 0
    # Retried I/O attempts absorbed in place (transient disk/DFS errors).
    fault_retries: int = 0
    # Modeled seconds lost to stragglers / retry backoff / restarts; the
    # cost model adds this straight into the server's superstep time.
    fault_delay_s: float = 0.0
    # DFS bytes read purely to recover (checkpoint restore, tile
    # re-fetch after a crash) — not part of the algorithm's own I/O.
    recovery_read: int = 0

    @property
    def mem_current(self) -> int:
        """Sum of all live memory categories."""
        return (
            self.mem_vertex
            + self.mem_edges
            + self.mem_messages
            + self.mem_cache
            + self.mem_scratch
        )

    def _bump_peak(self) -> None:
        if self.mem_current > self.mem_peak:
            self.mem_peak = self.mem_current

    def add_memory(self, category: str, nbytes: int) -> None:
        """Adjust a memory category (negative to release) and track peak."""
        attr = f"mem_{category}"
        if not hasattr(self, attr):
            raise ValueError(f"unknown memory category {category!r}")
        new = getattr(self, attr) + int(nbytes)
        if new < 0:
            raise ValueError(f"memory category {category} went negative")
        setattr(self, attr, new)
        self._bump_peak()

    def set_memory(self, category: str, nbytes: int) -> None:
        """Set a memory category to an absolute value."""
        attr = f"mem_{category}"
        if not hasattr(self, attr):
            raise ValueError(f"unknown memory category {category!r}")
        if nbytes < 0:
            raise ValueError("memory cannot be negative")
        setattr(self, attr, int(nbytes))
        self._bump_peak()

    def add_decompressed(self, codec: str, nbytes: int) -> None:
        """Meter decompression work for a codec."""
        self.decompressed[codec] = self.decompressed.get(codec, 0) + int(nbytes)

    def add_compressed(self, codec: str, nbytes: int) -> None:
        """Meter compression work for a codec."""
        self.compressed[codec] = self.compressed.get(codec, 0) + int(nbytes)

    def add_volumes(self, other: "Counters") -> None:
        """Accumulate another counter set's I/O / work / fault *volumes*.

        Memory gauges and peaks are deliberately excluded: they are
        absolute mirrors, not additive quantities.  This is how the
        process executor folds worker-side superstep deltas (shipped as
        volumes-only :class:`Counters`, see
        :meth:`CounterSnapshot.delta`) back into the parent's
        authoritative per-server counters.
        """
        self.disk_read += other.disk_read
        self.disk_read_random += other.disk_read_random
        self.disk_write += other.disk_write
        self.net_sent += other.net_sent
        self.net_recv += other.net_recv
        self.edges_processed += other.edges_processed
        self.messages_sent += other.messages_sent
        self.messages_processed += other.messages_processed
        self.tiles_skipped += other.tiles_skipped
        self.delta_bytes += other.delta_bytes
        self.delta_edges += other.delta_edges
        self.faults_injected += other.faults_injected
        self.fault_retries += other.fault_retries
        self.fault_delay_s += other.fault_delay_s
        self.recovery_read += other.recovery_read
        for codec, n in other.decompressed.items():
            self.add_decompressed(codec, n)
        for codec, n in other.compressed.items():
            self.add_compressed(codec, n)

    def merge(self, other: "Counters") -> None:
        """Accumulate another counter set into this one.

        Peaks add (an aggregate view over servers holds all their data
        at once); volumes add.
        """
        self.mem_vertex += other.mem_vertex
        self.mem_edges += other.mem_edges
        self.mem_messages += other.mem_messages
        self.mem_cache += other.mem_cache
        self.mem_scratch += other.mem_scratch
        self.mem_peak += other.mem_peak
        self.disk_read += other.disk_read
        self.disk_read_random += other.disk_read_random
        self.disk_write += other.disk_write
        self.net_sent += other.net_sent
        self.net_recv += other.net_recv
        self.edges_processed += other.edges_processed
        self.messages_sent += other.messages_sent
        self.messages_processed += other.messages_processed
        self.tiles_skipped += other.tiles_skipped
        self.delta_bytes += other.delta_bytes
        self.delta_edges += other.delta_edges
        self.faults_injected += other.faults_injected
        self.fault_retries += other.fault_retries
        self.fault_delay_s += other.fault_delay_s
        self.recovery_read += other.recovery_read
        for codec, n in other.decompressed.items():
            self.add_decompressed(codec, n)
        for codec, n in other.compressed.items():
            self.add_compressed(codec, n)

    def snapshot(self) -> dict[str, int]:
        """Flat dict view (for reports and diffing)."""
        out = {
            "mem_vertex": self.mem_vertex,
            "mem_edges": self.mem_edges,
            "mem_messages": self.mem_messages,
            "mem_cache": self.mem_cache,
            "mem_scratch": self.mem_scratch,
            "mem_peak": self.mem_peak,
            "disk_read": self.disk_read,
            "disk_read_random": self.disk_read_random,
            "disk_write": self.disk_write,
            "net_sent": self.net_sent,
            "net_recv": self.net_recv,
            "edges_processed": self.edges_processed,
            "messages_sent": self.messages_sent,
            "messages_processed": self.messages_processed,
            "tiles_skipped": self.tiles_skipped,
            "delta_bytes": self.delta_bytes,
            "delta_edges": self.delta_edges,
            "faults_injected": self.faults_injected,
            "fault_retries": self.fault_retries,
            "fault_delay_s": self.fault_delay_s,
            "recovery_read": self.recovery_read,
        }
        for codec, n in self.decompressed.items():
            out[f"decompressed_{codec}"] = n
        for codec, n in self.compressed.items():
            out[f"compressed_{codec}"] = n
        return out


@dataclass(frozen=True)
class CounterSnapshot:
    """Frozen view of the counter fields that accumulate inside one
    superstep.

    Replaces the positional snapshot tuples the engines used to carry
    (``before[server_id][9]`` magic indices); :meth:`delta` rebuilds the
    superstep's volumes-only :class:`Counters` for the cost model, and
    the process executor ships exactly that delta from worker to parent.
    Cache hit/lookup totals ride along so per-superstep hit ratios need
    no second bookkeeping structure.
    """

    net_sent: int
    net_recv: int
    disk_read: int
    disk_read_random: int
    disk_write: int
    edges_processed: int
    messages_processed: int
    tiles_skipped: int
    fault_delay_s: float
    decompressed: dict[str, int]
    compressed: dict[str, int]
    cache_hits: int
    cache_lookups: int
    # Delta-overlay volumes (0 on non-evolving graphs; defaulted so
    # snapshots pickled by older worker code still unpickle).
    delta_bytes: int = 0
    delta_edges: int = 0

    @classmethod
    def capture(cls, server) -> "CounterSnapshot":
        """Snapshot one server's in-superstep counters (and cache
        totals, when a cache is attached)."""
        c = server.counters
        cache = getattr(server, "cache", None)
        return cls(
            net_sent=c.net_sent,
            net_recv=c.net_recv,
            disk_read=c.disk_read,
            disk_read_random=c.disk_read_random,
            disk_write=c.disk_write,
            edges_processed=c.edges_processed,
            messages_processed=c.messages_processed,
            tiles_skipped=c.tiles_skipped,
            fault_delay_s=c.fault_delay_s,
            delta_bytes=c.delta_bytes,
            delta_edges=c.delta_edges,
            decompressed=dict(c.decompressed),
            compressed=dict(c.compressed),
            cache_hits=cache.stats.hits if cache is not None else 0,
            cache_lookups=cache.stats.lookups if cache is not None else 0,
        )

    def delta(self, server) -> Counters:
        """Volumes accumulated on ``server`` since this snapshot, as a
        :class:`Counters` holding only those volumes (what the cost
        model prices for one superstep)."""
        c = server.counters
        d = Counters()
        d.net_sent = c.net_sent - self.net_sent
        d.net_recv = c.net_recv - self.net_recv
        d.disk_read = c.disk_read - self.disk_read
        d.disk_read_random = c.disk_read_random - self.disk_read_random
        d.disk_write = c.disk_write - self.disk_write
        d.edges_processed = c.edges_processed - self.edges_processed
        d.messages_processed = c.messages_processed - self.messages_processed
        d.tiles_skipped = c.tiles_skipped - self.tiles_skipped
        d.fault_delay_s = c.fault_delay_s - self.fault_delay_s
        d.delta_bytes = c.delta_bytes - self.delta_bytes
        d.delta_edges = c.delta_edges - self.delta_edges
        for codec, n in c.decompressed.items():
            prev = self.decompressed.get(codec, 0)
            if n > prev:
                d.add_decompressed(codec, n - prev)
        for codec, n in c.compressed.items():
            prev = self.compressed.get(codec, 0)
            if n > prev:
                d.add_compressed(codec, n - prev)
        return d
