"""Span tracing from outside the program: wrappers around layer entry points.

The benchmark attributes time to layers without changing any code under
``src/``.  While a :class:`Tracing` context is active, the public
functions listed in :data:`PROBES` are replaced by thin wrappers that
record one span per call (name, start, end, parent) into an in-memory
:class:`SpanRecorder`.  Leaving the context restores every original.

Self time is a span's duration minus the time covered by its wrapped
children; the per-layer ``*_s`` metrics are sums of self times, so they
add up to the job's wall time with nothing counted twice.

Spans are recorded from one thread.  The workloads run the serial
executor with prefetch off, or the process executor, whose workers are
separate processes: their spans stay in the forked copy of the recorder
and are discarded, so inside a worker only the parent-side waits
(``runtime.*``) are seen.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass

__all__ = ["SpanRecorder", "Tracing", "PROBES", "self_times"]


class SpanRecorder:
    """Nested spans kept in memory as parallel lists."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        # An exception may unwind several wrapped frames at once; each
        # closes its own span, so pop down to (and including) this one.
        while self._stack and self._stack.pop() != idx:
            pass

    def current(self) -> str | None:
        return self.names[self._stack[-1]] if self._stack else None

    def count(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1

    def spans(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p}
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]


def self_times(rec: SpanRecorder) -> dict[str, float]:
    """Sum of self time per span name."""
    child_time = [0.0] * len(rec.names)
    for idx, parent in enumerate(rec.parents):
        if parent >= 0:
            child_time[parent] += rec.ends[idx] - rec.starts[idx]
    out: dict[str, float] = {}
    for idx, name in enumerate(rec.names):
        own = rec.ends[idx] - rec.starts[idx] - child_time[idx]
        out[name] = out.get(name, 0.0) + own
    return out


@dataclass(frozen=True)
class Probe:
    """One wrapped entry point: ``module:Class.attr`` or ``module:func``.

    ``span`` names the recorded span; ``"runtime.{tag}_phase"`` style
    names are formatted from the call's first positional argument after
    ``self``.  ``skip_under`` lists parent spans under which the call is
    not recorded (its time stays in the parent's self time).
    ``count_false`` counts calls that returned a false value under that
    counter name.
    """

    target: str
    span: str
    skip_under: tuple[str, ...] = ()
    count_false: str | None = None


# Every layer boundary the benchmark times, grouped as in README.md.
PROBES: tuple[Probe, ...] = (
    # SPE / map-reduce / DFS (set-up)
    Probe("repro.core.spe:SPE.preprocess", "spe.preprocess"),
    Probe("repro.mapreduce.engine:Dataset.collect", "mapreduce"),
    Probe("repro.mapreduce.engine:Dataset.reduce_by_key", "mapreduce"),
    Probe("repro.mapreduce.engine:Dataset.group_by_key", "mapreduce"),
    Probe("repro.dfs.filesystem:DistributedFileSystem.write", "dfs.write"),
    Probe("repro.dfs.filesystem:DistributedFileSystem.read", "dfs.read"),
    # MPE set-up
    Probe("repro.core.mpe:MPE.setup", "mpe.setup"),
    Probe("repro.partition.tiles:Tile.build_bloom_filter", "bloom.build"),
    Probe("repro.runtime.active:TileSourceSummary.from_tile", "active.summary"),
    # Superstep loop; the run span's self time is the residual
    Probe("repro.core.mpe:MPE.run", "mpe.run"),
    # Schedule and skip
    Probe(
        "repro.utils.bloom:BloomFilter.might_intersect",
        "bloom.probe",
        count_false="bloom.probe_skips",
    ),
    Probe("repro.core.mpe:hash_keys", "bloom.hash"),
    Probe("repro.runtime.active:ActiveBitmap.seed_from_ids", "schedule.prune"),
    Probe("repro.runtime.active:TileSourceSummary.intersects", "schedule.prune"),
    # Tile load
    Probe("repro.cluster.server:Server.load_tile", "server.load_tile"),
    Probe("repro.storage.cache:EdgeCache.load", "cache.load"),
    Probe("repro.storage.disk:LocalDisk.read", "disk.read", ("dfs.read",)),
    Probe("repro.storage.codecs:RawCodec.decompress", "codec.decompress", ("comm.decode",)),
    Probe(
        "repro.storage.codecs:SnappyLikeCodec.decompress",
        "codec.decompress",
        ("comm.decode",),
    ),
    Probe("repro.storage.codecs:ZlibCodec.decompress", "codec.decompress", ("comm.decode",)),
    # Gather-apply
    Probe("repro.apps.pagerank:PageRank.edge_message", "ga.edge_message"),
    Probe("repro.apps.sssp:SSSP.edge_message", "ga.edge_message"),
    Probe("repro.core.mpe:segment_reduce", "ga.segment_reduce"),
    Probe("repro.apps.pagerank:PageRank.apply", "ga.apply"),
    Probe("repro.apps.sssp:SSSP.apply", "ga.apply"),
    Probe("repro.core.vertexstore:AllInAllStore.gather_values", "store.gather"),
    Probe("repro.core.vertexstore:OnDemandStore.gather_values", "store.gather"),
    # Comm
    Probe("repro.core.mpe:encode_update", "comm.encode"),
    Probe("repro.core.mpe:decode_update", "comm.decode"),
    Probe("repro.comm.channel:Channel.send", "comm.send"),
    # Apply
    Probe("repro.core.vertexstore:AllInAllStore.write", "store.write"),
    Probe("repro.core.vertexstore:OnDemandStore.write", "store.write"),
    # Process runtime (parent-side waits)
    Probe("repro.runtime.process:ProcessExecutor.start", "runtime.pool_start"),
    Probe("repro.runtime.process:ProcessExecutor.run_phase", "runtime.{}_phase"),
    # Delta
    Probe("repro.delta.mutlog:MutationLog.extend", "delta.log"),
    Probe("repro.delta.deltatiles:DeltaStore.compact", "delta.compact"),
    Probe("repro.delta.deltatiles:TileOverlay.compose", "delta.compose"),
    Probe("repro.core.mpe:build_plan", "delta.plan"),
)


def _resolve(target: str):
    """(owner object, attribute name) for a probe target."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr


def _wrap(fn, probe: Probe, rec: SpanRecorder):
    span = probe.span
    dynamic = "{}" in span
    skip_under = probe.skip_under
    count_false = probe.count_false

    def wrapper(*args, **kwargs):
        if skip_under and rec.current() in skip_under:
            return fn(*args, **kwargs)
        idx = rec.open(span.format(args[1]) if dynamic else span)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if count_false is not None and not result:
            rec.count(count_false)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


class Tracing:
    """Context manager installing every probe around one recorder."""

    def __init__(self, rec: SpanRecorder) -> None:
        self.rec = rec
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracing":
        for probe in PROBES:
            owner, attr = _resolve(probe.target)
            # Read the raw class attribute so a classmethod is rewrapped
            # as a classmethod.
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                new = classmethod(_wrap(raw.__func__, probe, self.rec))
            else:
                new = _wrap(raw, probe, self.rec)
            setattr(owner, attr, new)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()
