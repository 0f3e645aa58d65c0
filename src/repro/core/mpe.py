"""MPE: the MPI-based graph processing engine running GAB (§III-C, Alg. 5).

Execution model
---------------
* Stage-two partitioning: tile ``i`` goes to server ``i mod N``; each
  server fetches its tiles from DFS onto local disk once, at setup.
* All-in-All replication: every server holds the full ``float64[|V|]``
  value array, a ``float64[|V|]`` incoming-update buffer, and (when the
  program needs it) the ``int32[|V|]`` out-degree array — 20 bytes per
  vertex, §IV-A's accounting.
* Superstep (Algorithm 5): every server streams its tiles through
  memory one at a time — skipping tiles with no source vertex updated
  last superstep (proven by the exact active bitmap, or by the bloom
  filter with selective scheduling off) — runs the vectorised
  gather/apply over each tile's target range, buffers changed values,
  then broadcasts them with the hybrid dense/sparse codec-compressed
  message.  A BSP barrier applies all updates to every replica.
* The edge cache (§IV-B) sits between tile loads and the local disk;
  its mode is auto-selected from the capacity constraint unless forced.

The per-tile inner kernel is pure numpy (gather by ``uint32`` index,
:func:`repro.utils.segments.segment_reduce`, vectorised apply), so the
Python interpreter only appears at tile granularity — the same place the
paper's OpenMP worker boundary sits.
"""

from __future__ import annotations

import os
import threading
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from repro.apps.base import VertexProgram
from repro.cluster.cluster import Cluster
from repro.cluster.counters import CounterSnapshot, Counters
from repro.comm import Channel, decode_update, encode_update
from repro.comm.messages import DENSE, SPARSE, SPARSITY_THRESHOLD
from repro.core.spe import SPE, TileManifest
from repro.core.vertexstore import (
    AllInAllStore,
    MmapOnDemandStore,
    MmapVertexStore,
    OnDemandStore,
    SharedOnDemandStore,
    SharedVertexStore,
)
from repro.delta.deltatiles import DeltaStore
from repro.delta.incremental import build_plan
from repro.delta.mutlog import MutationLog
from repro.metrics.cost import CostModel, CostSample, SuperstepCost
from repro.metrics.schedule import effective_parallel_volume
from repro.partition.tiles import (
    Tile,
    assign_tiles_balanced,
    assign_tiles_round_robin,
)
from repro.runtime import (
    default_num_workers,
    make_executor,
    process_runtime_available,
)
from repro.runtime.active import ActiveBitmap, TileSourceSummary
from repro.storage.backing import BackingStore
from repro.storage.cache import cache_plan
from repro.tuning import KnobSettings, Tuner, TuningSample
from repro.utils.bloom import ALL_KEYS, BloomFilter, HashedKeys, hash_keys
from repro.utils.segments import merge_sorted_unique, segment_reduce


@dataclass(frozen=True)
class MPEConfig:
    """Tunables for one MPE instance (defaults = the paper's)."""

    cache_capacity_bytes: int | None = None  # None → unlimited (all idle RAM)
    cache_mode: int | None = None  # None → auto-select (§IV-B)
    message_codec: str = "snappylike"  # Figure 8d's winner
    comm_mode: str = "hybrid"  # "hybrid" | "dense" | "sparse"
    sparsity_threshold: float = SPARSITY_THRESHOLD
    use_bloom_filters: bool = True
    bloom_false_positive_rate: float = 0.01
    # GraphMP-style selective scheduling: prune tiles from the schedule
    # with an *exact* active-vertex bitmap instead of the (approximate)
    # bloom probe.  Strictly more skips than bloom alone (differing only
    # on bloom false positives), and no bloom filter is built or probed:
    # the bloom's one verdict the bitmap does not repeat — an empty tile
    # under a dense frontier — is read off the tile's source summary.
    # The REPRO_SELECTIVE environment variable overrides this at run
    # time.
    selective_scheduling: bool = True
    replication_policy: str = "aa"  # "aa" (paper default, §IV-A) | "od"
    # Stage-two tile placement: "round_robin" (paper §III-C.1) or
    # "balanced" (LPT over tile sizes — better stragglers on skew).
    tile_assignment: str = "round_robin"
    max_supersteps: int = 200
    # Snapshot values+update-set into DFS every k supersteps; None
    # disables.  See repro.core.checkpoint.
    checkpoint_every: int | None = None
    # --- host-runtime knobs (repro.runtime) ---------------------------
    # How the per-server superstep loop executes on the host: "serial"
    # (reference order), "parallel" (one OS thread per simulated
    # server), or "process" (forked worker pool over shared-memory
    # vertex state — GIL-free).  All three are bitwise-identical in
    # results and metering.  The REPRO_EXECUTOR environment variable
    # (CI's forcing flag) overrides this at run time.
    executor: str = "serial"
    # Thread count for the parallel executor (None → one per core).
    num_threads: int | None = None
    # Worker-process count for the process executor (None → one per
    # core); also used as the thread count if the platform lacks
    # fork/shared-memory and the run degrades to the thread executor.
    num_workers: int | None = None
    # Keep decoded Tile objects live between supersteps instead of
    # re-running Tile.from_bytes per blob per superstep.  Metering is
    # byte-identical either way (Server.load_tile), so this defaults on.
    decoded_cache: bool = True
    # LRU bound on live decoded tiles per server (None → all of them).
    decoded_cache_entries: int | None = None
    # Tile prefetch pipeline (repro.runtime.prefetch): how many tiles
    # ahead background I/O threads speculate while compute gathers the
    # current one.  0 (default) disables the pipeline entirely; results
    # and metering are bitwise identical at every depth.  The
    # REPRO_PREFETCH environment variable overrides the depth at run
    # time (CI's forcing flag).
    prefetch_depth: int = 0
    # Background I/O threads per server feeding the pipeline.
    io_threads: int = 1
    # Where the per-server vertex replica arrays live: "mem" (dense
    # in-RAM arrays, the default) or "mmap" (GraphMP's semi-external-
    # memory mode — file-backed memmaps from repro.storage.backing, so
    # the N×|V| replicas stop being the memory ceiling).  mmap segments
    # are MAP_SHARED and therefore fork-shareable: the process executor
    # works unchanged, as do checkpoint/restore.  Results and metering
    # are bitwise identical in both modes.
    vertex_store: str = "mem"
    # --- evolving graphs (repro.delta) --------------------------------
    # Accept mutation batches (:meth:`MPE.apply_mutations`) and overlay
    # the pending edits on the immutable base tiles at load time.  None
    # (the default) keeps the engine frozen-graph and is a bitwise
    # no-op: no delta store exists, the tile parser is the plain
    # ``Tile.from_bytes``, and no delta counters ever move.
    mutations: bool | None = None
    # Restart a program from its previous fixed point with a dirty set
    # derived from the pending mutation batch, instead of from scratch.
    # Requires mutations=True and a prior completed run of the same
    # program on this engine (ValueError otherwise).  SSSP/WCC repair
    # is bitwise-equal to from-scratch on the mutated graph; PageRank
    # agrees to its convergence tolerance (DESIGN.md §5i).
    incremental: bool = False
    # Online autotuner (repro.tuning): record per-phase volumes over the
    # first supersteps, fit the cost-model constants, then re-evaluate
    # codec / comm / bloom / cache / prefetch at every superstep
    # boundary.  Off (the default) is bitwise identical to an engine
    # without the tuner.  The REPRO_TUNE environment variable overrides
    # this at run time (CI's forcing flag).
    tune: bool = False
    # Communication fast path (decode-once broadcast fan-out): decode
    # each broadcast payload once per superstep and share the immutable
    # result across receivers, and scatter all senders' updates in one
    # batched ``store.write`` per receiver.  The lowest-id receiver of a
    # payload records the decode miss, so hit/miss counts are the same
    # under every executor.  Values, Counters, CacheStats, and modeled
    # costs are bitwise identical either way — every receiver still
    # charges its own decompress bytes — so "off" exists only for A/B
    # benchmarking (benchmarks/bench_comm.py).  The REPRO_COMM_FASTPATH
    # environment variable overrides this at run time.
    comm_fastpath: bool = True

    def __post_init__(self) -> None:
        if self.comm_mode not in ("hybrid", "dense", "sparse"):
            raise ValueError("comm_mode must be hybrid, dense, or sparse")
        if self.replication_policy not in ("aa", "od"):
            raise ValueError('replication_policy must be "aa" or "od"')
        if self.tile_assignment not in ("round_robin", "balanced"):
            raise ValueError(
                'tile_assignment must be "round_robin" or "balanced"'
            )
        if self.max_supersteps < 1:
            raise ValueError("max_supersteps must be >= 1")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1 or None")
        if self.executor not in ("serial", "parallel", "process"):
            raise ValueError(
                'executor must be "serial", "parallel", or "process"'
            )
        if self.num_threads is not None and self.num_threads < 1:
            raise ValueError("num_threads must be >= 1 or None")
        if self.num_workers is not None and self.num_workers < 1:
            raise ValueError("num_workers must be >= 1 or None")
        if self.decoded_cache_entries is not None and self.decoded_cache_entries < 1:
            raise ValueError("decoded_cache_entries must be >= 1 or None")
        if self.prefetch_depth < 0:
            raise ValueError("prefetch_depth must be >= 0")
        if self.io_threads < 1:
            raise ValueError("io_threads must be >= 1")
        if self.vertex_store not in ("mem", "mmap"):
            raise ValueError('vertex_store must be "mem" or "mmap"')
        if self.incremental and not self.mutations:
            raise ValueError("incremental=True requires mutations=True")


@dataclass
class SuperstepReport:
    """Per-superstep measurements."""

    superstep: int
    updated_vertices: int
    tiles_processed: int
    tiles_skipped: int
    net_bytes: int
    disk_read_bytes: int
    cache_hit_ratio: float
    message_modes: list[int] = field(default_factory=list)
    modeled: SuperstepCost | None = None
    wall_s: float = 0.0


@dataclass
class RunResult:
    """Outcome of one vertex program execution."""

    values: np.ndarray
    supersteps: list[SuperstepReport]
    converged: bool
    # --- host-runtime telemetry (PR-1 knobs) --------------------------
    executor: str = "serial"
    sort_fallbacks: int = 0
    decoded_cache_hits: int = 0
    decoded_cache_misses: int = 0
    # Communication fast path (decode-once fan-out): whether it ran,
    # plus its payload-decode cache telemetry.  With the fast path off,
    # every decode counts as a miss, so hits + misses is the total
    # decode-call count in both modes.  scatter_fallbacks counts apply
    # phases that fell back to per-sender writes because the static
    # target-disjointness check failed (never, under AA/OD assignment).
    comm_fastpath: bool = True
    payload_decode_hits: int = 0
    payload_decode_misses: int = 0
    scatter_fallbacks: int = 0
    # Effective tile-prefetch pipeline depth this run executed with
    # (0 = pipeline off; REPRO_PREFETCH overrides already applied).
    prefetch_depth: int = 0
    # Whether bitmap selective scheduling was active (REPRO_SELECTIVE
    # override already applied) and which vertex-store backing ran.
    selective: bool = False
    vertex_store: str = "mem"
    # Autotuner summary (fitted constants, residuals, decision trace)
    # when the run was tuned or consumed a scripted plan; None otherwise.
    tuning: dict | None = None
    # Evolving-graph summary (repro.delta): the delta store's state plus
    # — on incremental runs — the plan stats (dirty/reset/forced sizes).
    # None when the mutation subsystem is off.
    delta: dict | None = None

    @property
    def num_supersteps(self) -> int:
        return len(self.supersteps)

    def runtime(self) -> dict:
        """Host-runtime telemetry (JSON-serialisable)."""
        return {
            "executor": self.executor,
            "sort_fallbacks": self.sort_fallbacks,
            "decoded_cache_hits": self.decoded_cache_hits,
            "decoded_cache_misses": self.decoded_cache_misses,
            "comm_fastpath": self.comm_fastpath,
            "payload_decode_hits": self.payload_decode_hits,
            "payload_decode_misses": self.payload_decode_misses,
            "scatter_fallbacks": self.scatter_fallbacks,
            "prefetch_depth": self.prefetch_depth,
            "selective": self.selective,
            "vertex_store": self.vertex_store,
        }

    def trace(self) -> list[dict]:
        """Per-superstep telemetry as plain dicts (JSON-serialisable)."""
        out = []
        for s in self.supersteps:
            row = {
                "superstep": s.superstep,
                "updated_vertices": s.updated_vertices,
                "tiles_processed": s.tiles_processed,
                "tiles_skipped": s.tiles_skipped,
                "net_bytes": s.net_bytes,
                "disk_read_bytes": s.disk_read_bytes,
                "cache_hit_ratio": round(s.cache_hit_ratio, 4),
                "message_modes": list(s.message_modes),
                "wall_s": round(s.wall_s, 6),
            }
            if s.modeled is not None:
                row["modeled_s"] = {
                    "disk": s.modeled.disk_s,
                    "network": s.modeled.network_s,
                    "decompress": s.modeled.decompress_s,
                    "compute": s.modeled.compute_s,
                    "sync": s.modeled.sync_s,
                    "fault": s.modeled.fault_s,
                    "probe": s.modeled.probe_s,
                    "delta": s.modeled.delta_s,
                    "total": s.modeled.total_s,
                    "overlap": s.modeled.overlap_s,
                }
            out.append(row)
        return out

    def save_trace(self, path: str) -> None:
        """Write the telemetry trace as JSON (per-superstep rows plus
        the host-runtime summary from :meth:`runtime`)."""
        import json

        out = {
            "converged": self.converged,
            "runtime": self.runtime(),
            "supersteps": self.trace(),
        }
        if self.tuning is not None:
            out["tuning"] = self.tuning
        if self.delta is not None:
            out["delta"] = self.delta
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1)

    def total_net_bytes(self) -> int:
        return sum(s.net_bytes for s in self.supersteps)

    def total_disk_read(self) -> int:
        return sum(s.disk_read_bytes for s in self.supersteps)

    def avg_superstep_modeled_s(self, skip_first: bool = True) -> float:
        """The paper's metric: mean modeled time, first superstep excluded."""
        steps = self.supersteps[1:] if skip_first and len(self.supersteps) > 1 else self.supersteps
        vals = [s.modeled.total_s for s in steps if s.modeled]
        if not vals:  # zero supersteps, or none carried modeled costs
            return 0.0
        return float(np.mean(vals))

    def avg_superstep_overlap_s(self, skip_first: bool = True) -> float:
        """Overlap-aware sibling of :meth:`avg_superstep_modeled_s`:
        mean modeled time under the max(io, compute) pipelining rule."""
        steps = self.supersteps[1:] if skip_first and len(self.supersteps) > 1 else self.supersteps
        vals = [
            s.modeled.overlap_s
            for s in steps
            if s.modeled is not None and s.modeled.overlap_s is not None
        ]
        if not vals:
            return 0.0
        return float(np.mean(vals))


class MPE:
    """GAB executor over a simulated cluster."""

    def __init__(
        self,
        cluster: Cluster,
        manifest: TileManifest,
        config: MPEConfig | None = None,
        tracer=None,
    ) -> None:
        self.cluster = cluster
        self.manifest = manifest
        self.config = config or MPEConfig()
        self.channel = Channel(cluster.servers)
        # Optional repro.obs.trace.Tracer.  None (the default) is the
        # zero-cost path: no buffers exist and every instrumentation
        # site reduces to one is-None check.
        self.tracer = tracer
        self._obs_wall = None
        self._obs_prefetch = None
        self._obs_skipped = None
        self._obs_scheduled = None
        # Effective prefetch knobs for the current run; re-resolved at
        # the top of run() (REPRO_PREFETCH override) *before* tracer
        # wiring and before the process pool forks, so workers inherit
        # the resolved values.
        self._prefetch_depth = self.config.prefetch_depth
        self._io_threads = self.config.io_threads
        # Effective selective-scheduling flag; re-resolved at the top of
        # run() (REPRO_SELECTIVE override) before setup builds summaries.
        self._selective = self.config.selective_scheduling
        # Effective autotuning flag (REPRO_TUNE override applied at the
        # top of run()), the tuner carrying fitted constants across runs
        # (a warm service engine reuses them job to job), an externally
        # installed scripted TuningPlan (tests/ablations — consulted
        # even with tuning off; never written by the tuner), and the
        # knobs currently in force.  ``_knobs`` is always concrete: an
        # untuned run holds the config's values for the whole run, so
        # every knob read below is tune-agnostic.
        self._tune = self.config.tune
        self.tuner: Tuner | None = None
        self.tuning_plan = None
        self._knobs = self._base_knobs()
        # Per-tile exact source summaries (tile_id -> TileSourceSummary)
        # backing the bitmap prune; built at setup when selective
        # scheduling is on, lazily backfilled if the env override turns
        # it on after setup already ran.
        self._summaries: dict[int, TileSourceSummary] = {}
        # --- evolving-graph state (repro.delta) ------------------------
        # The delta store (pending per-tile overlays + degree deltas)
        # and the engine-owned mutation log — both created at setup when
        # config.mutations is on, None otherwise.  ``_tile_parser`` is
        # the decode callback every metered tile load funnels through:
        # the plain Tile.from_bytes on frozen graphs, swapped for a
        # compose-overlay-on-parse closure when the mutation subsystem
        # is on (same object everywhere in one engine, so prefetch
        # speculation identity checks keep holding; forked workers
        # inherit the closure and the live overlay dict by address).
        self._delta: DeltaStore | None = None
        self.mutation_log: MutationLog | None = None
        # program name -> (converged values, delta-store watermark at
        # run end): what an incremental run restarts from.
        self._fixed_points: dict[str, tuple[np.ndarray, int]] = {}
        self._tile_parser = self._TILE_PARSER
        # Tiles force-scheduled (exempt from bitmap + bloom pruning) at
        # exactly one superstep of the current run — the incremental
        # seed superstep, where deletion/reset targets must re-gather
        # even though no "updated" vertex sources them.  Frozen before
        # the process pool forks, so every executor and the fault
        # replay see identical schedules.
        self._forced_tiles: frozenset = frozenset()
        self._forced_superstep: int = -1
        self.spe = SPE(cluster.dfs)
        self._tiles_fetched = False
        # Per-server: list of (tile_id, blob_name, nbytes).
        self._assignments: list[list[tuple[int, str, int]]] = []
        # Per-tile bloom filters (tile_id -> BloomFilter): built at the
        # top of a run only when ``_bloom_probing`` holds for it, and
        # dropped for tiles a mutation batch touches.
        self._blooms: dict[int, BloomFilter] = {}
        self._bloom_probing = False
        self._tile_nbytes_total = 0
        # Per-server sorted global ids of the targets its tiles own —
        # the shared static index behind range-dense broadcasts.
        self._server_target_ids: list[np.ndarray] = []
        # Diagnostics: how often the pre-sorted-parts invariant failed
        # and the concatenated update buffer needed a real argsort
        # (expected to stay 0 for both assignment modes).
        self.sort_fallbacks = 0
        # Installed by repro.faults.FaultInjector.attach(); None in
        # normal runs.
        self.injector = None
        # --- process-runtime state (see repro.runtime.process) --------
        # The program of the active run and the workers' last-reported
        # cache content fingerprints (parent side).
        self._run_program: VertexProgram | None = None
        self._worker_content: dict[int, tuple] = {}
        # --- communication fast path (decode-once fan-out) ------------
        # Per-superstep content-keyed decode cache: payload bytes →
        # immutable UpdatePayload, shared by every receiver (each still
        # charges its own decompress bytes).  ``_decode_owner`` names
        # the (receiver, sender) that records each payload's miss — the
        # first in server-id order, fixed before the apply fan-out so
        # hit/miss attribution never depends on thread arrival order.
        self._comm_fastpath = self.config.comm_fastpath
        self._decode_cache: dict[bytes, object] = {}
        self._decode_owner: dict[bytes, tuple[int, int]] = {}
        self._decode_lock = threading.Lock()
        self.payload_decode_hits = 0
        self.payload_decode_misses = 0
        # Batched apply: True when every server's target ids are
        # globally disjoint (checked once in setup; holds under both AA
        # and OD assignment).  scatter_fallbacks counts apply phases
        # that had to fall back to per-sender writes.
        self._targets_disjoint = False
        self.scatter_fallbacks = 0

    # ------------------------------------------------------------------
    # Observability wiring (repro.obs)
    # ------------------------------------------------------------------
    def _wire_tracer(self) -> None:
        """Install (or remove) trace buffers and live instruments.

        Called at the top of every :meth:`run`, before :meth:`setup`, so
        caches attached during setup inherit their server's buffer and
        setup's DFS reads land in the engine buffer.  With no tracer the
        same pass resets every hook to ``None`` — a cluster previously
        traced runs clean again.
        """
        tracer = self.tracer
        # A tuned (or scripted) run may switch the pipeline on mid-run;
        # its buffers must exist before the process pool forks.
        prefetch_on = (
            self._prefetch_depth > 0
            or self._tune
            or self.tuning_plan is not None
        )
        for server in self.cluster.servers:
            buf = tracer.server(server.server_id) if tracer is not None else None
            server.trace = buf
            # The prefetch pipeline's I/O threads get their own buffer
            # (complete-events only, multi-writer safe) — created only
            # when the pipeline is on, so depth-0 traces are unchanged.
            server.prefetch_trace = (
                tracer.prefetch(server.server_id)
                if tracer is not None and prefetch_on
                else None
            )
            if server.cache is not None:
                server.cache.trace = buf
            if server.decoded_cache is not None:
                server.decoded_cache.trace = buf
        self.cluster.dfs.trace = (
            tracer.engine() if tracer is not None else None
        )
        if tracer is not None:
            from repro.obs.metrics import (
                DEFAULT_SECONDS_BUCKETS,
            )

            self.channel.obs_bytes = tracer.metrics.histogram(
                "repro_channel_message_bytes",
                "broadcast payload sizes",
            ).labels()
            self._obs_wall = tracer.metrics.histogram(
                "repro_superstep_wall_seconds",
                "host wall time per superstep",
                buckets=DEFAULT_SECONDS_BUCKETS,
            ).labels()
            self._obs_prefetch = (
                tracer.metrics.gauge(
                    "repro_prefetch_occupancy",
                    "fraction of tile dequeues served without stalling",
                    ("server",),
                )
                if prefetch_on
                else None
            )
            self._obs_skipped = tracer.metrics.counter(
                "repro_tiles_skipped",
                "tiles pruned from the schedule (bitmap or bloom)",
            ).labels()
            self._obs_scheduled = tracer.metrics.counter(
                "repro_tiles_scheduled",
                "tiles that survived schedule pruning and were processed",
            ).labels()
            self._obs_decode_hits = tracer.metrics.counter(
                "repro_decode_cache_hits",
                "broadcast payloads served from the decode-once cache",
            ).labels()
            self._obs_decode_misses = tracer.metrics.counter(
                "repro_decode_cache_misses",
                "broadcast payloads actually decoded",
            ).labels()
        else:
            self.channel.obs_bytes = None
            self._obs_wall = None
            self._obs_prefetch = None
            self._obs_skipped = None
            self._obs_scheduled = None
            self._obs_decode_hits = None
            self._obs_decode_misses = None

    # ------------------------------------------------------------------
    # Setup: fetch tiles, build source summaries, size caches
    # ------------------------------------------------------------------
    def setup(self) -> None:
        """Stage-two assignment + local fetch (idempotent)."""
        if self.config.mutations and self._delta is None:
            # Evolving-graph plumbing exists from the first setup on:
            # the overlay store starts empty (composition is a no-op
            # until a batch lands) and the engine owns the append-only
            # mutation log batches are appended to.
            self._delta = DeltaStore(self.manifest)
            self.mutation_log = MutationLog(
                num_vertices=self.manifest.num_vertices
            )
            self._tile_parser = self._make_delta_parser()
        if self._tiles_fetched:
            return
        n = self.cluster.num_servers
        self._assignments = [[] for _ in range(n)]
        self._server_sources: list[list[np.ndarray]] = [[] for _ in range(n)]
        per_server_bytes = [0] * n
        # Stage-two placement: the paper's round-robin, or LPT over the
        # serialised tile sizes (known to the namenode without reads).
        if self.config.tile_assignment == "balanced":
            sizes = [
                self.cluster.dfs.size(self.manifest.tile_path(t))
                for t in range(self.manifest.num_tiles)
            ]
            placement = assign_tiles_balanced(sizes, n)
        else:
            placement = assign_tiles_round_robin(self.manifest.num_tiles, n)
        tile_owner = {
            tile_id: server_id
            for server_id, tiles in enumerate(placement)
            for tile_id in tiles
        }
        for tile_id in range(self.manifest.num_tiles):
            server_id = tile_owner[tile_id]
            server = self.cluster.servers[server_id]
            blob = self.cluster.dfs.read(
                self.manifest.tile_path(tile_id), prefer_datanode=server_id
            )
            name = f"tile-{tile_id}"
            server.store_blob(name, blob)
            self._assignments[server_id].append((tile_id, name, len(blob)))
            per_server_bytes[server_id] += len(blob)
            if self._selective or self.config.replication_policy == "od":
                tile = self._tile_parser(blob)
                if self._selective:
                    self._summaries[tile_id] = TileSourceSummary.from_tile(tile)
                if self.config.replication_policy == "od":
                    self._server_sources[server_id].append(tile.source_vertices)
        self._tile_nbytes_total = sum(per_server_bytes)
        # Targets owned per server: the concatenation of its tiles'
        # (ascending) target ranges.  Known statically on every server,
        # so broadcasts address vertices by *local* index (§IV-C's dense
        # array covers only the sender's updated-value buffer, keeping
        # traffic O(N|V|) cluster-wide, Table III).
        splitter = self.manifest.splitter
        self._server_target_ids = []
        for server_id in range(n):
            ranges = [
                np.arange(splitter[tid], splitter[tid + 1], dtype=np.int64)
                for tid, _, _ in self._assignments[server_id]
            ]
            self._server_target_ids.append(
                np.concatenate(ranges) if ranges else np.zeros(0, dtype=np.int64)
            )
        # Static disjointness check for the batched apply scatter: every
        # vertex has exactly one owning server under both assignment
        # modes, so the concatenation of all servers' targets has no
        # duplicates.  Checked once here — if it ever failed, the apply
        # phase would fall back to per-sender writes (scatter_fallbacks).
        all_targets = np.concatenate(self._server_target_ids)
        self._targets_disjoint = (
            np.unique(all_targets).size == all_targets.size
        )
        # Edge cache per server (§IV-B): capacity = configured budget,
        # mode auto-selected from the server's own tile volume.
        for server_id, server in enumerate(self.cluster.servers):
            capacity, mode = cache_plan(
                per_server_bytes[server_id],
                self.config.cache_capacity_bytes,
                mode=self.config.cache_mode,
            )
            server.attach_cache(capacity_bytes=capacity, mode=mode)
            if self.config.decoded_cache:
                server.attach_decoded_cache(
                    max_entries=self.config.decoded_cache_entries
                )
        self._tiles_fetched = True

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        program: VertexProgram,
        graph_for_init=None,
        resume: bool = False,
    ) -> RunResult:
        """Execute one vertex program to convergence (Algorithm 5).

        ``graph_for_init`` is only consulted by programs whose
        ``init_values`` needs graph metadata beyond what the manifest
        holds; the degree arrays always come from DFS like the paper's.
        ``resume=True`` restarts from the newest DFS checkpoint for this
        (dataset, program) pair, if one exists.
        """
        from repro.core.checkpoint import (
            checkpoint_path,
            latest_checkpoint,
            write_checkpoint,
        )

        # Resolve the pipeline knobs first: tracer wiring keys off the
        # effective depth, and the process pool's forked workers inherit
        # these fields by value.
        self._prefetch_depth, self._io_threads = self._resolve_prefetch()
        self._selective = self._resolve_selective()
        self._tune = self._resolve_tune()
        self._comm_fastpath = self._resolve_comm_fastpath()
        self.payload_decode_hits = 0
        self.payload_decode_misses = 0
        self.scatter_fallbacks = 0
        self._knobs = self._base_knobs()
        self._wire_tracer()
        ebuf = self.tracer.engine() if self.tracer is not None else None
        if ebuf is not None:
            # A previous attempt that aborted mid-superstep (supervised
            # recovery) may have left engine spans open; close them so
            # this attempt's run span is a sibling, not a child.
            ebuf.close_to(0)
            ebuf.begin("run", "run", program=program.name)
        self.setup()
        # setup() may have run before REPRO_SELECTIVE flipped selective
        # on (it is idempotent); backfill the source summaries from the
        # already-fetched blobs, unmetered (host-side schedule state).
        self._ensure_summaries()
        # --- autotuning (repro.tuning) --------------------------------
        # An externally scripted plan wins (tests/ablations force known
        # switches); otherwise a tuned run builds/continues the tuner's
        # recorded plan.  Both are consulted only at superstep
        # boundaries, parent-side, so every executor and fault replay
        # consumes the identical decision trace.
        tuner: Tuner | None = None
        plan = self.tuning_plan
        if plan is None and self._tune:
            if self.tuner is None:
                self.tuner = Tuner()
            tuner = self.tuner
            plan = tuner.begin_run(
                self._tuning_signature(program), self._base_knobs()
            )
        tbuf = (
            self.tracer.tuning()
            if self.tracer is not None and plan is not None
            else None
        )
        if tbuf is not None:
            tbuf.instant(
                "tuning_start",
                "tuning",
                mode="tuner" if tuner is not None else "scripted",
            )
        # The one predicate deciding whether this run may probe bloom
        # filters: selective scheduling off (the exact bitmap otherwise
        # decides every skip) and filtering possible — configured on,
        # or switchable by the tuner or a scripted plan.  Only then are
        # the filters built, here in the parent, before any pool forks.
        self._bloom_probing = not self._selective and (
            self.config.use_bloom_filters or plan is not None
        )
        if self._bloom_probing:
            self._ensure_blooms()
        # A supervised retry may leave half-delivered broadcasts from an
        # aborted superstep behind; every run starts with clean mailboxes.
        self.channel.clear_all()
        cfg = self.config
        num_vertices = self.manifest.num_vertices
        in_degrees, out_degrees = self.spe.load_degrees(self.manifest)
        num_edges_now = self.manifest.num_edges
        if self._delta is not None:
            # Applied mutations shift degrees and |E|; every program
            # must see the mutated graph's metadata (PageRank divides
            # contributions by out-degree), for scratch runs over
            # overlaid tiles exactly as for incremental ones.
            in_degrees = (in_degrees + self._delta.in_deg_delta).astype(
                in_degrees.dtype
            )
            out_degrees = (out_degrees + self._delta.out_deg_delta).astype(
                out_degrees.dtype
            )
            num_edges_now += self._delta.edge_delta

        init_graph = graph_for_init or _ManifestGraphView(
            num_vertices, num_edges_now, in_degrees, out_degrees
        )
        init_values = program.init_values(init_graph).astype(np.float64, copy=True)
        if init_values.size != num_vertices:
            raise ValueError("program init_values size mismatch with manifest")

        # --- incremental restart (repro.delta) ------------------------
        # Derived deterministically from (previous fixed point, pending
        # mutations): a supervised fault retry recomputes the identical
        # plan because the fixed-point memory only advances at
        # successful run end.
        incremental_plan = None
        if cfg.incremental:
            if self._delta is None:  # config validation makes this dead
                raise ValueError("incremental=True requires mutations=True")
            fixed = self._fixed_points.get(program.name)
            if fixed is None:
                raise ValueError(
                    f"incremental run of {program.name!r} needs a previous "
                    "completed run of the same program on this engine"
                )
            prev_fp, fp_watermark = fixed
            composed_memo: dict[int, Tile] = {}

            def _load_composed(tile_id: int) -> Tile:
                if tile_id not in composed_memo:
                    composed_memo[tile_id] = self._composed_tile(tile_id)
                return composed_memo[tile_id]

            incremental_plan = build_plan(
                program,
                prev_fp,
                self._delta.since(fp_watermark),
                init_values=init_values,
                num_vertices=num_vertices,
                num_tiles=self.manifest.num_tiles,
                tile_of=self._delta.tile_of,
                load_tile=_load_composed,
            )
            del composed_memo
            init_values = incremental_plan.start_values.astype(
                np.float64, copy=True
            )
            if self.tracer is not None:
                stats = incremental_plan.stats
                self.tracer.delta().instant(
                    "incremental_plan",
                    "delta",
                    program=program.name,
                    num_mutations=stats["num_mutations"],
                    dirty_vertices=stats["dirty_vertices"],
                    reset_vertices=stats["reset_vertices"],
                    forced_tiles=stats["forced_tiles"],
                )
                self.tracer.metrics.gauge(
                    "repro_delta_dirty_vertices",
                    "dirty vertices seeding the incremental frontier",
                ).labels().set(stats["dirty_vertices"])

        start_superstep = 0
        resumed_updated: np.ndarray | None = None
        if resume:
            snapshot = latest_checkpoint(
                self.cluster.dfs, self.manifest.name, program.name
            )
            if snapshot is not None:
                if snapshot.values.size != num_vertices:
                    raise ValueError("checkpoint does not match this dataset")
                init_values = snapshot.values.copy()
                start_superstep = snapshot.superstep + 1
                resumed_updated = snapshot.prev_updated
                # Restoring is DFS traffic: under AA every replica pulls
                # the snapshot down (recovery I/O, not algorithm I/O).
                ckpt_bytes = self.cluster.dfs.size(
                    checkpoint_path(
                        self.manifest.name, program.name, snapshot.superstep
                    )
                )
                for server in self.cluster.servers:
                    server.counters.recovery_read += ckpt_bytes

        # Forced tiles fire at the incremental seed superstep only; a
        # checkpointed resume (start_superstep > 0) is past the seed, so
        # nothing is forced.  Set before any executor forks.
        if incremental_plan is not None and start_superstep == 0:
            self._forced_tiles = incremental_plan.forced_tiles
            self._forced_superstep = 0
        else:
            self._forced_tiles = frozenset()
            self._forced_superstep = -1

        servers = self.cluster.servers
        degrees = out_degrees if program.uses_out_degree else None
        runtime_name, num_workers = self._resolve_runtime()
        use_process = runtime_name == "process"
        # Run-scoped shared-memory state (stores, scratch, bloom bits,
        # blob arena) is torn down LIFO in the finally below — on every
        # path, including injected faults and KeyboardInterrupt, so no
        # SharedMemory segment outlives the run.
        cleanup: list = []
        executor = None
        try:
            # Semi-external-memory mode: one run-scoped BackingStore
            # under the cluster tempdir holds every replica's files.
            # Appended to cleanup *before* the stores, so LIFO teardown
            # drops the stores' map views first, files last.
            use_mmap = cfg.vertex_store == "mmap"
            backing = None
            if use_mmap:
                backing = BackingStore(root=self.cluster.root)
                cleanup.append(backing.release)
            deg_shared = None
            if (
                use_process
                and not use_mmap
                and cfg.replication_policy == "aa"
                and degrees is not None
            ):
                # AA replicas share one read-only degree segment — a
                # host-side dedup; each store still *accounts* a full
                # per-replica copy (§IV-A).
                from repro.runtime.shm import SharedArray

                deg_shared = SharedArray.from_array(degrees.astype(np.int32))
                cleanup.append(deg_shared.release)
            for server in servers:
                if cfg.replication_policy == "aa":
                    # All-in-All: full dense arrays on every server.
                    # mmap maps are MAP_SHARED and fork-shareable, so
                    # they serve every executor, process included.
                    if use_mmap:
                        store = MmapVertexStore(init_values, degrees, backing)
                        cleanup.append(store.release)
                    elif use_process:
                        store = SharedVertexStore(
                            init_values, degrees, degrees_shared=deg_shared
                        )
                        cleanup.append(store.release)
                    else:
                        store = AllInAllStore(init_values, degrees)
                else:
                    # On-Demand: only this server's tile sources ∪ targets.
                    pieces = self._server_sources[server.server_id] + [
                        self._server_target_ids[server.server_id]
                    ]
                    local = (
                        np.unique(np.concatenate(pieces))
                        if pieces
                        else np.zeros(0, dtype=np.int64)
                    )
                    if use_mmap:
                        store = MmapOnDemandStore(
                            init_values, degrees, local, backing
                        )
                        cleanup.append(store.release)
                    elif use_process:
                        store = SharedOnDemandStore(init_values, degrees, local)
                        cleanup.append(store.release)
                    else:
                        store = OnDemandStore(init_values, degrees, local)
                server.state["store"] = store
                vertex_bytes, message_bytes = store.memory_bytes()
                server.counters.set_memory("vertex", vertex_bytes)
                # Incoming-update buffer (the message array of §III-C.1).
                server.counters.set_memory("messages", message_bytes)

            # Vertices "updated" in the previous superstep — drives tile
            # skipping.  Superstep 0 processes everything (initial load); a
            # resumed run continues with the checkpointed update set; an
            # incremental run seeds the mutation batch's dirty set so the
            # seed superstep prunes down to dirty-sourced + forced tiles.
            prev_updated: np.ndarray | None = resumed_updated
            if (
                prev_updated is None
                and incremental_plan is not None
                and start_superstep == 0
            ):
                prev_updated = incremental_plan.dirty_ids
            reports: list[SuperstepReport] = []
            cost_model = CostModel(self.cluster.spec)
            converged = False

            if use_process:
                # Fork point: every shared structure above must exist
                # first, so workers inherit it by address, not by pickle.
                executor = self._start_process_pool(
                    program, num_workers, cleanup
                )
            elif runtime_name == "parallel":
                executor = make_executor(
                    "parallel", cfg.num_threads or cfg.num_workers
                )
            else:
                # Forced serial (e.g. REPRO_EXECUTOR): thread knobs
                # configured for another executor don't apply here.
                executor = make_executor("serial")
            apply_executor = make_executor("serial") if use_process else executor

            for superstep in range(start_superstep, cfg.max_supersteps):
                t0 = time.perf_counter()
                if ebuf is not None:
                    ebuf.begin("superstep", "superstep", superstep=superstep)
                if self.injector is not None:
                    self.injector.begin_superstep(superstep)
                before = {
                    s.server_id: CounterSnapshot.capture(s) for s in servers
                }
                # Consult the plan *after* the snapshots: a serial/thread
                # cache-mode switch is charged on the parent's counters
                # and must land inside this superstep's deltas, exactly
                # where a worker-side switch lands in process mode.
                if plan is not None:
                    self._apply_knobs(
                        self._superstep_knobs(superstep, tuner, plan),
                        servers,
                        use_process,
                        superstep,
                        tbuf,
                    )
                tiles_processed = 0
                tiles_skipped = 0
                message_modes: list[int] = []
                all_updates: list[tuple[np.ndarray, np.ndarray]] = []

                # ---- compute: each server streams its tiles ------------
                # Fanned out by the executor; each call touches only its
                # own server's state (+ read-only shared structures), so
                # parallel execution is race-free and bitwise identical
                # to serial.  Cross-server effects (broadcast delivery)
                # are staged in the results and flushed below in
                # server-id order, exactly like the serial schedule.
                if ebuf is not None:
                    ebuf.begin("compute", "phase")
                # The superstep's tile schedules, derived once, parent-side:
                # every executor's sweep, the fault replay and the tuner's
                # byte estimate all read these same lists.
                bitmap = self._frontier(prev_updated, num_vertices)
                prev_hashed = self._hashed_updates(prev_updated, num_vertices)
                schedules = [
                    self._tile_schedule(
                        s.server_id, superstep, bitmap, prev_hashed
                    )
                    for s in servers
                ]
                if use_process:
                    steps = self._process_compute_phase(
                        executor, servers, superstep, schedules
                    )
                else:
                    steps = executor.map(
                        lambda server: self._compute_server_step(
                            program,
                            server,
                            superstep,
                            schedules[server.server_id],
                        ),
                        servers,
                    )
                if ebuf is not None:
                    ebuf.end()  # compute
                    ebuf.begin("broadcast", "phase")
                for server, step in zip(servers, steps):
                    tiles_processed += step.tiles_processed
                    tiles_skipped += step.tiles_skipped
                    self.sort_fallbacks += step.sort_fallbacks
                    if (
                        self._obs_prefetch is not None
                        and step.prefetch_total > 0
                    ):
                        self._obs_prefetch.labels(
                            server=server.server_id
                        ).set(step.prefetch_ready / step.prefetch_total)
                    all_updates.append((step.ids, step.vals))
                    if step.payload is not None:
                        message_modes.append(step.payload[0])
                        self.channel.broadcast(server.server_id, step.payload)
                if self._obs_skipped is not None:
                    self._obs_skipped.inc(tiles_skipped)
                    self._obs_scheduled.inc(tiles_processed)
                if ebuf is not None:
                    ebuf.end()  # broadcast
                    ebuf.begin("sync", "phase")

                # ---- BSP barrier: detect lost broadcasts ---------------
                # Every server expects N-1 envelopes; a dropped delivery
                # fails the superstep *here*, before any store write, so
                # vertex state is still the previous barrier's and the
                # supervisor can retry or restore deterministically.
                if self.injector is not None:
                    self.injector.barrier_check()
                if ebuf is not None:
                    ebuf.end()  # sync
                    ebuf.begin("apply", "phase")

                # ---- BSP barrier: apply all updates everywhere ---------
                # Also per-server-independent (own store, own mailbox,
                # own counters).  Process runs apply here in the parent:
                # their vertex stores are shared memory (``Shared*`` or
                # MAP_SHARED mmap), so the workers see every write.
                inboxes = [
                    [
                        (env.src, env.payload)
                        for env in self.channel.receive_all(s.server_id)
                    ]
                    for s in servers
                ]
                self._plan_decodes(servers, inboxes)
                apply_executor.map(
                    lambda server: self._apply_server_step(
                        server,
                        all_updates[server.server_id],
                        inboxes[server.server_id],
                    ),
                    servers,
                )
                if ebuf is not None:
                    ebuf.end()  # apply
                    ebuf.begin("account", "phase")
                updated_count = sum(ids.size for ids, _ in all_updates)
                # Per-server update sets are sorted and disjoint (each
                # server owns disjoint target ranges): a k-way merge
                # replaces the seed's np.unique-over-concatenation.
                prev_updated = merge_sorted_unique(
                    [ids for ids, _ in all_updates]
                )

                # ---- per-superstep accounting --------------------------
                step_deltas = [
                    before[server.server_id].delta(server)
                    for server in servers
                ]
                step_cost = cost_model.superstep_time(step_deltas)
                # Per-superstep hit ratio: delta hits over delta lookups.
                hits = []
                for server in servers:
                    if server.cache is None:
                        continue
                    snap = before[server.server_id]
                    dl = server.cache.stats.lookups - snap.cache_lookups
                    dh = server.cache.stats.hits - snap.cache_hits
                    if dl:
                        hits.append(dh / dl)
                reports.append(
                    SuperstepReport(
                        superstep=superstep,
                        updated_vertices=updated_count,
                        tiles_processed=tiles_processed,
                        tiles_skipped=tiles_skipped,
                        net_bytes=sum(d.net_sent for d in step_deltas),
                        disk_read_bytes=sum(
                            d.disk_read + d.disk_read_random
                            for d in step_deltas
                        ),
                        cache_hit_ratio=float(np.mean(hits)) if hits else 0.0,
                        message_modes=message_modes,
                        modeled=step_cost,
                        wall_s=time.perf_counter() - t0,
                    )
                )
                if self._obs_wall is not None:
                    self._obs_wall.observe(reports[-1].wall_s)
                if self._obs_decode_hits is not None:
                    self._obs_decode_hits.set(self.payload_decode_hits)
                    self._obs_decode_misses.set(self.payload_decode_misses)
                if tuner is not None:
                    self._observe_tuning(
                        tuner,
                        superstep,
                        step_deltas,
                        before,
                        step_cost,
                        reports[-1],
                        cost_model,
                        num_vertices,
                        servers,
                        [
                            sum(nbytes for _tid, _name, nbytes in loads)
                            for loads, _skips in schedules
                        ],
                        tbuf,
                    )
                if ebuf is not None:
                    ebuf.end()  # account
                if (
                    cfg.checkpoint_every is not None
                    and updated_count > 0
                    and (superstep + 1) % cfg.checkpoint_every == 0
                ):
                    if ebuf is not None:
                        ebuf.begin("checkpoint", "io", superstep=superstep)
                    write_checkpoint(
                        self.cluster.dfs,
                        self.manifest.name,
                        program.name,
                        superstep,
                        self._collect_values(cfg, servers, init_values),
                        prev_updated,
                    )
                    if ebuf is not None:
                        ebuf.end()
                if ebuf is not None:
                    if updated_count == 0:
                        ebuf.instant("converged", "run", superstep=superstep)
                    ebuf.end()  # superstep
                if updated_count == 0:
                    converged = True
                    break

            # Collect results while run-scoped shared stores are still
            # mapped; the finally unlinks their segments.
            values = self._collect_values(cfg, servers, init_values)
            # Remember the fixed point incremental restarts repair from.
            # Converged runs only: a max_supersteps cutoff is not a
            # fixed point and repairing from it would freeze un-settled
            # vertices behind the selective prune.
            if self._delta is not None and converged:
                self._fixed_points[program.name] = (
                    values.copy(),
                    self._delta.watermark,
                )
        finally:
            if executor is not None:
                executor.close()
            for fn in reversed(cleanup):
                fn()
            if ebuf is not None:
                # Close the run span — and, when a fault aborted a
                # superstep mid-phase, every span still open above it.
                ebuf.close_to(0)

        decoded_hits = sum(
            s.decoded_cache.stats.hits
            for s in servers
            if s.decoded_cache is not None
        )
        decoded_misses = sum(
            s.decoded_cache.stats.misses
            for s in servers
            if s.decoded_cache is not None
        )
        return RunResult(
            values=values,
            supersteps=reports,
            converged=converged,
            executor=runtime_name,
            sort_fallbacks=self.sort_fallbacks,
            decoded_cache_hits=decoded_hits,
            decoded_cache_misses=decoded_misses,
            comm_fastpath=self._comm_fastpath,
            payload_decode_hits=self.payload_decode_hits,
            payload_decode_misses=self.payload_decode_misses,
            scatter_fallbacks=self.scatter_fallbacks,
            prefetch_depth=self._prefetch_depth,
            selective=self._selective,
            vertex_store=cfg.vertex_store,
            tuning=(
                tuner.report()
                if tuner is not None
                else {"plan": plan.to_dict()} if plan is not None else None
            ),
            delta=(
                {
                    "incremental": incremental_plan is not None,
                    **(
                        incremental_plan.stats
                        if incremental_plan is not None
                        else {}
                    ),
                    **self._delta.summary(),
                }
                if self._delta is not None
                else None
            ),
        )

    def respawn_server(self, server_id: int) -> int:
        """Rebuild a crashed server's local tile store from DFS.

        A crash loses the server's memory *and* local disk.  The
        in-memory vertex store is rebuilt by the next :meth:`run` (from
        init values or a checkpoint); this re-fetches the server's
        assigned tile blobs out of the DFS onto its local disk, charges
        the traffic as ``recovery_read``, and cold-starts its caches.
        Returns the bytes re-fetched.
        """
        if not self._tiles_fetched:
            return 0  # nothing assigned yet; setup() will fetch
        server = self.cluster.servers[server_id]
        refetched = 0
        for tile_id, name, _ in self._assignments[server_id]:
            blob = self.cluster.dfs.read(
                self.manifest.tile_path(tile_id), prefer_datanode=server_id
            )
            server.store_blob(name, blob)
            refetched += len(blob)
        server.counters.recovery_read += refetched
        # Memory contents died with the server: caches restart cold.
        if server.cache is not None:
            server.attach_cache(
                capacity_bytes=server.cache.capacity_bytes,
                mode=server.cache.mode,
            )
        if server.decoded_cache is not None:
            server.attach_decoded_cache(
                max_entries=server.decoded_cache.max_entries
            )
        return refetched

    # ------------------------------------------------------------------
    # Evolving graphs (repro.delta)
    # ------------------------------------------------------------------
    def _make_delta_parser(self):
        """The overlay-composing tile parser.

        Keyed by the *parsed* tile's id — no blob-name plumbing — so
        every decode site (sweep, prefetch speculation, cache resync,
        summary/bloom backfill) composes identically.  The closure
        holds the live DeltaStore: forked workers inherit the overlay
        dict by address, and tiles without a pending overlay parse at
        exactly the base cost.
        """
        delta = self._delta
        base_parser = Tile.from_bytes

        def parse(data: bytes) -> Tile:
            tile = base_parser(data)
            overlay = delta.overlays.get(tile.tile_id)
            if overlay is None or overlay.is_empty:
                return tile
            return overlay.compose(tile)

        return parse

    def _tile_location(self, tile_id: int):
        """(server, index-in-assignment, blob_name) for a tile."""
        for server in self.cluster.servers:
            for idx, (tid, name, _nbytes) in enumerate(
                self._assignments[server.server_id]
            ):
                if tid == tile_id:
                    return server, idx, name
        raise KeyError(f"tile {tile_id} not assigned")

    def _base_tile(self, tile_id: int) -> Tile:
        """Decode a tile's current *base* blob (no overlay), unmetered."""
        server, _idx, name = self._tile_location(tile_id)
        return Tile.from_bytes(server.disk.peek(name))

    def _composed_tile(self, tile_id: int) -> Tile:
        """Decode a tile with its pending overlay applied, unmetered
        (host-side planning, like skip-set computation)."""
        server, _idx, name = self._tile_location(tile_id)
        return self._tile_parser(server.disk.peek(name))

    def apply_mutations(self, ops=None, *, log: MutationLog | None = None) -> dict:
        """Append a mutation batch and compact it into per-tile overlays.

        ``ops`` is an iterable of mutation dicts (``{"op", "src",
        "dst", "weight"?}``) appended to the engine's own log;
        alternatively ``log=`` adopts a complete external
        :class:`~repro.delta.mutlog.MutationLog` (the service's restart
        replay path).  Compaction is atomic — a batch that fails
        validation (e.g. deleting a non-existent edge) raises and
        leaves every overlay, degree delta, and the watermark
        untouched — and idempotent: rows at or below the store's
        watermark are skipped, so replaying a persisted log after
        restart re-applies only what is missing.

        Tiles whose pending overlay grows past ``merge_ratio`` × base
        edges are *merged*: the composed tile is rewritten as a new
        versioned blob (locally and in DFS, so crash respawns refetch
        the merged bytes) and the overlay is emptied.

        Must be called between runs (the overlay dict is frozen during
        a run: forked workers share it by address).  Returns a report
        dict with applied counts, overlay state, merges, and modeled
        compact/merge seconds.
        """
        if not self.config.mutations:
            raise ValueError(
                "mutations are disabled; construct the engine with "
                "MPEConfig(mutations=True)"
            )
        self.setup()
        if log is not None:
            if ops:
                raise ValueError("pass ops= or log=, not both")
            if log.last_id < self._delta.watermark:
                raise ValueError(
                    f"adopted log ends at id {log.last_id} but "
                    f"{self._delta.watermark} mutations are already applied"
                )
            self.mutation_log = log
        elif ops:
            self.mutation_log.extend(ops)
        pending = self.mutation_log.since(self._delta.watermark)
        num_inserts = sum(1 for m in pending if m.op == "insert")
        num_deletes = len(pending) - num_inserts

        result = self._delta.compact(pending, self._base_tile)

        if pending:
            # Every checkpoint written so far snapshots the *pre-batch*
            # graph; resuming any program from one after this point
            # would converge against stale values (observably wrong for
            # min-programs).  Mutations invalidate them all.
            for path in list(
                self.cluster.dfs.list_files(f"{self.manifest.name}/ckpt-")
            ):
                self.cluster.dfs.delete(path)

        spec = self.cluster.spec
        compact_bytes = 0
        for tile_id in result.affected:
            server, _idx, name = self._tile_location(tile_id)
            composed = result.composed[tile_id]
            # Refresh parent-side schedule state from the composed tile
            # so the next run's pruning sees the mutated source sets
            # (an inserted edge's source must be probe-visible).  A
            # stale bloom filter is dropped; the next run that probes
            # rebuilds it (_ensure_blooms).
            if tile_id in self._summaries or self._selective:
                self._summaries[tile_id] = TileSourceSummary.from_tile(
                    composed
                )
            self._blooms.pop(tile_id, None)
            if server.decoded_cache is not None:
                server.decoded_cache.invalidate(name)
            overlay = self._delta.overlays.get(tile_id)
            if overlay is not None and not overlay.is_empty:
                # Persisting the delta blob next to its base tile is
                # the batch's durable write.
                nb = overlay.nbytes()
                server.counters.disk_write += nb
                compact_bytes += nb

        merged_bytes = 0
        merges: list[dict] = []
        for tile_id in result.merged:
            server, idx, old_name = self._tile_location(tile_id)
            composed = result.composed[tile_id]
            generation = self._delta.finish_merge(tile_id)
            blob = composed.to_bytes()
            new_name = f"tile-{tile_id}-v{generation}"
            # DFS is the system of record: a crash respawn refetches
            # manifest.tile_path(tile_id), which must now hold the
            # merged bytes.  The local blob gets a *versioned* name so
            # stale cached/arena entries under the old name can never
            # serve the pre-merge tile.
            self.cluster.dfs.write(self.manifest.tile_path(tile_id), blob)
            server.store_blob(new_name, blob)
            if server.decoded_cache is not None:
                server.decoded_cache.invalidate(old_name)
            self._assignments[server.server_id][idx] = (
                tile_id,
                new_name,
                len(blob),
            )
            merged_bytes += len(blob)
            merges.append(
                {
                    "tile": tile_id,
                    "generation": generation,
                    "nbytes": len(blob),
                }
            )
        if result.merged:
            self._tile_nbytes_total = sum(
                nbytes
                for per_server in self._assignments
                for _tid, _name, nbytes in per_server
            )

        modeled_compact_s = (
            compact_bytes / spec.disk_write_bps
            + result.overlay_edges * spec.delta_edge_apply_s
        )
        modeled_merge_s = merged_bytes / spec.disk_write_bps
        report = {
            "applied": len(pending),
            "inserts": num_inserts,
            "deletes": num_deletes,
            "affected_tiles": len(result.affected),
            "merged": merges,
            "overlay_bytes": self._delta.total_overlay_bytes(),
            "overlay_edges": self._delta.total_overlay_edges,
            "watermark": self._delta.watermark,
            "modeled_compact_s": modeled_compact_s,
            "modeled_merge_s": modeled_merge_s,
        }
        if self.tracer is not None and result.affected:
            dbuf = self.tracer.delta()
            dbuf.instant(
                "mutate",
                "delta",
                applied=len(pending),
                inserts=num_inserts,
                deletes=num_deletes,
            )
            dbuf.instant(
                "compact",
                "delta",
                tiles=len(result.affected),
                overlay_bytes=result.overlay_bytes,
                overlay_edges=result.overlay_edges,
            )
            for m in merges:
                dbuf.instant(
                    "merge",
                    "delta",
                    tile=m["tile"],
                    generation=m["generation"],
                    nbytes=m["nbytes"],
                )
            self.tracer.metrics.gauge(
                "repro_delta_overlay_bytes",
                "pending overlay bytes across all tiles",
            ).labels().set(report["overlay_bytes"])
        return report

    # ------------------------------------------------------------------
    # Process runtime (repro.runtime.process + repro.runtime.shm)
    # ------------------------------------------------------------------
    def _resolve_runtime(self) -> tuple[str, int]:
        """Resolve this run's executor and process worker count.

        ``REPRO_EXECUTOR`` (CI's forcing flag) overrides the config; a
        ``process`` request degrades to the thread executor — with a
        warning — when the platform lacks fork or POSIX shared memory.
        """
        cfg = self.config
        name = os.environ.get("REPRO_EXECUTOR", "").strip() or cfg.executor
        if name not in ("serial", "parallel", "process"):
            raise ValueError(
                f"unknown executor {name!r} (from REPRO_EXECUTOR or config)"
            )
        num_workers = cfg.num_workers or default_num_workers()
        if name == "process" and not process_runtime_available():
            warnings.warn(
                "process executor unavailable on this platform (needs fork "
                "+ POSIX shared memory); falling back to the thread executor",
                RuntimeWarning,
                stacklevel=3,
            )
            name = "parallel"
        return name, num_workers

    def _resolve_prefetch(self) -> tuple[int, int]:
        """Resolve this run's prefetch depth and I/O thread count.

        ``REPRO_PREFETCH`` (CI's forcing flag) overrides the configured
        depth; the I/O thread count always comes from the config.
        """
        cfg = self.config
        raw = os.environ.get("REPRO_PREFETCH", "").strip()
        if not raw:
            return cfg.prefetch_depth, cfg.io_threads
        try:
            depth = int(raw)
        except ValueError:
            raise ValueError(
                f"REPRO_PREFETCH must be an integer depth, got {raw!r}"
            ) from None
        if depth < 0:
            raise ValueError("REPRO_PREFETCH must be >= 0")
        return depth, cfg.io_threads

    def _resolve_selective(self) -> bool:
        """Resolve this run's selective-scheduling flag.

        ``REPRO_SELECTIVE`` (CI's forcing flag, mirroring
        ``REPRO_PREFETCH``/``REPRO_EXECUTOR``) overrides the config.
        """
        raw = os.environ.get("REPRO_SELECTIVE", "").strip().lower()
        if not raw:
            return self.config.selective_scheduling
        if raw in ("1", "true", "on", "yes"):
            return True
        if raw in ("0", "false", "off", "no"):
            return False
        raise ValueError(
            f"REPRO_SELECTIVE must be a boolean flag, got {raw!r}"
        )

    def _resolve_tune(self) -> bool:
        """Resolve this run's autotuning flag.

        ``REPRO_TUNE`` (CI's forcing flag, mirroring
        ``REPRO_SELECTIVE``/``REPRO_EXECUTOR``) overrides the config.
        """
        raw = os.environ.get("REPRO_TUNE", "").strip().lower()
        if not raw:
            return self.config.tune
        if raw in ("1", "true", "on", "yes"):
            return True
        if raw in ("0", "false", "off", "no"):
            return False
        raise ValueError(f"REPRO_TUNE must be a boolean flag, got {raw!r}")

    def _resolve_comm_fastpath(self) -> bool:
        """Resolve this run's communication-fast-path flag.

        ``REPRO_COMM_FASTPATH`` (mirroring ``REPRO_TUNE`` /
        ``REPRO_SELECTIVE``) overrides the config.  Both settings are
        bitwise identical in results and metering; off exists only for
        the A/B comparison in ``benchmarks/bench_comm.py``.
        """
        raw = os.environ.get("REPRO_COMM_FASTPATH", "").strip().lower()
        if not raw:
            return self.config.comm_fastpath
        if raw in ("1", "true", "on", "yes"):
            return True
        if raw in ("0", "false", "off", "no"):
            return False
        raise ValueError(
            f"REPRO_COMM_FASTPATH must be a boolean flag, got {raw!r}"
        )

    # ------------------------------------------------------------------
    # Autotuning (repro.tuning)
    # ------------------------------------------------------------------
    def _base_knobs(self) -> KnobSettings:
        """The configured knob values as one concrete settings object —
        what every superstep of an untuned run executes, and the
        tuner's starting point."""
        cfg = self.config
        return KnobSettings(
            message_codec=cfg.message_codec,
            comm_mode=cfg.comm_mode,
            use_bloom=cfg.use_bloom_filters,
            prefetch_depth=self._prefetch_depth,
            io_threads=self._io_threads,
            cache_mode=None,
        )

    def _tuning_signature(self, program) -> tuple:
        """What makes two runs "the same run" to the tuner: identical
        signature → the recorded plan replays (fault retry, identical
        resubmission); different → new plan, constants kept."""
        return (
            self.manifest.name,
            program.name,
            self.config,
            self._selective,
            self._prefetch_depth,
            self._io_threads,
        )

    def _superstep_knobs(self, superstep, tuner, plan) -> KnobSettings:
        """Resolve the knobs governing ``superstep`` (parent-side, the
        single decision point).  The tuner records as it decides;
        scripted plans answer from their sticky map.  A forced
        ``REPRO_PREFETCH`` depth pins the pipeline knobs — CI forces a
        depth precisely to exercise it, so decisions must not un-force
        it."""
        if tuner is not None:
            knobs = tuner.knobs_for(superstep)
        else:
            knobs = plan.knobs_for(superstep) or self._knobs.replace(
                cache_mode=None
            )
        if os.environ.get("REPRO_PREFETCH", "").strip():
            knobs = knobs.replace(
                prefetch_depth=self._prefetch_depth,
                io_threads=self._io_threads,
            )
        return knobs

    def _apply_knobs(
        self, knobs: KnobSettings, servers, use_process: bool, superstep, tbuf
    ) -> None:
        """Put ``knobs`` into force for this superstep.

        Cache-mode switches are executor-split: serial/thread runs
        switch the parent's (authoritative) caches with metering; in
        process mode the workers own the live contents and meter their
        own switch inside the compute handler, so the parent only
        re-aligns its mirror's *mode* silently (stats are mirrored back
        absolutely every superstep, and the end-of-run content resync
        must recompress with the worker's final codec).
        """
        switched = knobs != self._knobs
        if knobs.cache_mode is not None:
            for server in servers:
                if server.cache is None:
                    continue
                if server.cache.mode != knobs.cache_mode:
                    switched = True
                if use_process:
                    server.cache.switch_mode(knobs.cache_mode)
                else:
                    server.switch_cache_mode(knobs.cache_mode)
        if tbuf is not None and switched:
            tbuf.instant(
                "knob_switch",
                "tuning",
                superstep=superstep,
                message_codec=knobs.message_codec,
                comm_mode=knobs.comm_mode,
                use_bloom=knobs.use_bloom,
                prefetch_depth=knobs.prefetch_depth,
                io_threads=knobs.io_threads,
                cache_mode=knobs.cache_mode,
            )
        self._knobs = knobs

    def _ensure_blooms(self) -> None:
        """Build every missing bloom filter from the fetched blobs (host
        plumbing: ``disk.peek`` is unmetered).

        Called once at the top of a run whose schedule may probe the
        filters, parent-side and before the process pool forks; workers
        never probe (schedules are derived in the parent).  Filters
        dropped by :meth:`apply_mutations` are rebuilt here from the
        composed tile.
        """
        if len(self._blooms) >= self.manifest.num_tiles:
            return
        for server in self.cluster.servers:
            for tile_id, name, _nbytes in self._assignments[server.server_id]:
                if tile_id not in self._blooms:
                    tile = self._tile_parser(server.disk.peek(name))
                    self._blooms[tile_id] = tile.build_bloom_filter(
                        self.config.bloom_false_positive_rate
                    )

    def _observe_tuning(
        self,
        tuner,
        superstep,
        step_deltas,
        before,
        step_cost,
        report,
        cost_model,
        num_vertices,
        servers,
        sched_bytes,
        tbuf,
    ) -> None:
        """Feed one finished superstep to the tuner.

        The fit row follows the cost model's straggler attribution;
        the default (deterministic) observation is the modeled superstep
        seconds minus injected fault delay, so faults perturb neither
        the fit nor the decision trace.
        """
        knobs = self._knobs
        straggler = cost_model.straggler_index(step_deltas)
        observed = (
            report.wall_s
            if tuner.config.time_source == "wall"
            else step_cost.total_s - step_cost.fault_s
        )
        cost = CostSample.from_deltas(step_deltas, observed, straggler)
        # Message-path codec bytes on the straggler: its total codec
        # volume minus the edge cache's share when cache and message
        # path share a codec.
        d = step_deltas[straggler]
        sserver = servers[straggler]
        mc = knobs.message_codec
        msg_bytes = d.decompressed.get(mc, 0) + d.compressed.get(mc, 0)
        cache = sserver.cache
        if cache is not None and cache.mode != 1 and cache.codec.name == mc:
            snap = before[sserver.server_id]
            msg_bytes -= (
                cache.stats.bytes_decompressed - snap.cache_bytes_decompressed
            )
        tuner.observe(
            TuningSample(
                superstep=superstep,
                knobs=knobs,
                cost=cost,
                msg_codec_bytes=max(0, int(msg_bytes)),
                updated=report.updated_vertices,
                num_vertices=num_vertices,
                tiles_processed=report.tiles_processed,
                tiles_skipped=report.tiles_skipped,
                scheduled_bytes=sched_bytes[straggler],
                miss_bytes=int(d.disk_read_random),
                cache_mode=cache.mode if cache is not None else 1,
                cache_capacity=(
                    cache.capacity_bytes if cache is not None else 0
                ),
                cache_used=int(sserver.counters.mem_cache),
                hit_ratio=report.cache_hit_ratio,
            )
        )
        if tbuf is not None and tuner.fit_superstep == superstep:
            tbuf.instant(
                "fit",
                "tuning",
                superstep=superstep,
                num_samples=len(tuner.samples),
            )

    # ------------------------------------------------------------------
    # Selective scheduling (repro.runtime.active; GraphMP port)
    # ------------------------------------------------------------------
    def _ensure_summaries(self) -> None:
        """Build any missing per-tile source summaries from the fetched
        blobs (host plumbing: ``disk.peek`` is unmetered).

        Normally a no-op — :meth:`setup` builds them while it already
        holds each decoded tile — this covers selective scheduling
        switched on via ``REPRO_SELECTIVE`` after setup ran.
        """
        if not self._selective:
            return
        for server in self.cluster.servers:
            for tile_id, name, _nbytes in self._assignments[server.server_id]:
                if tile_id not in self._summaries:
                    tile = self._tile_parser(server.disk.peek(name))
                    self._summaries[tile_id] = TileSourceSummary.from_tile(tile)

    def _frontier(
        self, prev_updated, num_vertices: int
    ) -> ActiveBitmap | None:
        """The active bitmap the selective prune tests tiles against, or
        ``None`` when the prune cannot fire: selective off, no previous
        update set (scratch superstep 0, resume-with-no-set), or a dense
        frontier (every vertex updated), where only an empty tile could
        go — the ``ALL_KEYS`` case of :meth:`_hashed_updates`.  An
        incremental run *does* carry an update set at superstep 0 (the
        mutation batch's dirty ids), which is what makes its seed
        superstep prune.
        """
        if not self._selective or prev_updated is None:
            return None
        bitmap = ActiveBitmap.seed_from_ids(prev_updated, num_vertices)
        return None if bitmap.dense else bitmap

    def _hashed_updates(self, prev_updated, num_vertices: int):
        """The previous update set as a bloom-skip key batch, or ``None``
        when no bloom skip can fire this superstep (filtering off, or no
        previous update set).

        When every vertex updated (PageRank's dense phase) this is
        :data:`ALL_KEYS`: a filter answers from its insert count alone,
        zero hashing.  Otherwise the set is hashed once per superstep
        (the hashes are filter-independent) — but only when this run
        probes filters at all: under selective scheduling every bitmap
        survivor has an updated source, so the bloom could never skip it.
        """
        if not self._knobs.use_bloom or prev_updated is None:
            return None
        if prev_updated.size == num_vertices:
            return ALL_KEYS
        return hash_keys(prev_updated) if self._bloom_probing else None

    def _tile_schedule(
        self,
        server_id: int,
        superstep: int,
        bitmap: ActiveBitmap | None,
        prev_hashed: "HashedKeys | None",
    ) -> "tuple[list[tuple[int, str, int]], list[tuple[int, str]]]":
        """One server's tile schedule for ``superstep`` — the single place
        skip decisions are made.

        Returns ``(loads, skips)``: the ``(tile_id, blob_name, nbytes)``
        entries the sweep loads, in sweep order, and the ``(tile_id,
        reason)`` entries it skips, reason ``"bitmap"`` (the exact prune
        against ``bitmap``, see :meth:`_frontier`) or ``"bloom"`` (no
        source in ``prev_hashed``, see :meth:`_hashed_updates`).  Tiles
        forced by an incremental seed superstep are exempt from both.

        Derived parent-side, so the sweep's counters and ``tile_skip``
        instants, the fault replay's first load and the tuner's byte
        estimate agree under every executor.
        """
        forced = (
            self._forced_tiles
            if superstep == self._forced_superstep
            else frozenset()
        )
        loads: list[tuple[int, str, int]] = []
        skips: list[tuple[int, str]] = []
        for entry in self._assignments[server_id]:
            tile_id = entry[0]
            if tile_id not in forced:
                if bitmap is not None and not self._summaries[
                    tile_id
                ].intersects(bitmap):
                    skips.append((tile_id, "bitmap"))
                    continue
                if prev_hashed is None:
                    live = True
                elif self._bloom_probing:
                    live = self._blooms[tile_id].might_intersect(prev_hashed)
                else:
                    # Selective scheduling passes only ALL_KEYS here (a
                    # dense frontier), where a bloom answers from its
                    # insert count: "skip" exactly for an empty tile.
                    live = self._summaries[tile_id].sources.size > 0
                if not live:
                    skips.append((tile_id, "bloom"))
                    continue
            loads.append(entry)
        return loads, skips

    def _start_process_pool(self, program, num_workers: int, cleanup: list):
        """Stage shared-memory state and fork the worker pool.

        Everything big becomes shared *before* the fork — the vertex
        stores already are (built as ``Shared*`` variants), and here all
        tile blobs join them (one read-only arena fronting each server's
        disk with unchanged metering).  Per-superstep dispatch then
        ships only ``(superstep, schedule, knobs)`` down and compact
        :class:`_ProcessStep` results back.  Teardown actions are pushed
        onto ``cleanup`` (run LIFO by ``run``'s finally).
        """
        from repro.runtime.process import ProcessExecutor
        from repro.runtime.shm import ArenaDisk, SharedBlobArena

        servers = self.cluster.servers
        self._run_program = program
        self._worker_content = {}

        # Tile blobs: one shared read-only arena; every server's disk is
        # fronted by an arena view with byte-identical metering, so
        # worker tile loads touch shared pages instead of per-process
        # file reads.  When a long-lived owner (the service engine) has
        # already fronted every disk with an ArenaDisk, its warm arena
        # is inherited as-is: no per-run blob copy, and the segments —
        # owned by the engine, not this run — survive the teardown.
        if not all(isinstance(s.disk, ArenaDisk) for s in servers):

            def _blob_items():
                for server in servers:
                    for _tid, name, _nbytes in self._assignments[
                        server.server_id
                    ]:
                        if server.disk.exists(name):
                            yield name, server.disk.peek(name)

            arena = SharedBlobArena(_blob_items())
            swapped = []
            for server in servers:
                swapped.append((server, server.disk))
                server.disk = ArenaDisk(server.disk, arena)

            def _restore_disks() -> None:
                for server, original in swapped:
                    disk = server.disk
                    if isinstance(disk, ArenaDisk):
                        disk.restore()
                    server.disk = original
                arena.release()

            cleanup.append(_restore_disks)

        # Cache contents live in the workers while the pool runs; the
        # parent's mirrors are resynchronised at teardown (runs first —
        # LIFO — while key lists are fresh).
        cleanup.append(self._resync_parent_caches)

        pool = ProcessExecutor(num_workers)
        pool.start(
            self._process_phase_handler,
            len(servers),
            child_init=self._process_child_init,
        )
        return pool

    def _process_child_init(self) -> None:
        """Runs once in each forked worker: detach parent-only machinery.

        All fault decisions are resolved in the parent (the injector's
        one-shot fired-set must stay authoritative across pool
        lifetimes), and mailboxes / DFS belong to the parent; a worker
        touching either would double-fire or double-meter.
        """
        self.injector = None
        for server in self.cluster.servers:
            server.fault_injector = None
        self.channel.fault_injector = None
        self.cluster.dfs.fault_injector = None
        if self.tracer is not None:
            # The fork copied whatever the parent had already recorded;
            # without this clear the first per-phase drain would ship
            # those pre-fork events back as duplicates.
            self.tracer.clear_events()

    def _process_phase_handler(self, tag: str, server_id: int, payload):
        """Worker-side phase dispatch (runs in the forked pool; only the
        compute phase — apply runs parent-side)."""
        server = self.cluster.servers[server_id]
        snap = CounterSnapshot.capture(server)
        if tag == "compute":
            superstep, schedule, knob_tuple = payload
            # The parent's per-superstep knob decision, applied *after*
            # the snapshot so a cache-mode switch's metering lands in
            # this superstep's delta — same instant as serial.  The
            # switch itself is idempotent per server (sticky workers see
            # the same directive again next superstep, a no-op).
            self._knobs = KnobSettings.from_tuple(knob_tuple)
            if self._knobs.cache_mode is not None:
                server.switch_cache_mode(self._knobs.cache_mode)
            step = self._compute_server_step(
                self._run_program, server, superstep, schedule
            )
            c = server.counters
            cache = server.cache
            decoded = server.decoded_cache
            return _ProcessStep(
                ids=step.ids,
                vals=step.vals,
                payload=step.payload,
                tiles_processed=step.tiles_processed,
                tiles_skipped=step.tiles_skipped,
                sort_fallbacks=step.sort_fallbacks,
                delta=snap.delta(server),
                mem_cache=c.mem_cache,
                mem_scratch=c.mem_scratch,
                mem_peak=c.mem_peak,
                cache_stats=(
                    (
                        cache.stats.hits,
                        cache.stats.misses,
                        cache.stats.evictions,
                        cache.stats.insertions,
                        cache.stats.rejected,
                        cache.stats.bytes_decompressed,
                        cache.stats.bytes_compressed_in,
                    )
                    if cache is not None
                    else None
                ),
                decoded_stats=(
                    (
                        decoded.stats.hits,
                        decoded.stats.misses,
                        decoded.stats.evictions,
                        decoded.stats.insertions,
                        decoded.stats.invalidations,
                    )
                    if decoded is not None
                    else None
                ),
                cache_keys=(
                    tuple(cache.content_keys()) if cache is not None else None
                ),
                decoded_keys=(
                    tuple(decoded.content_keys())
                    if decoded is not None
                    else None
                ),
                trace=(
                    tuple(server.trace.drain())
                    if server.trace is not None
                    else None
                ),
                prefetch_trace=(
                    tuple(server.prefetch_trace.drain())
                    if server.prefetch_trace is not None
                    else None
                ),
                prefetch_ready=step.prefetch_ready,
                prefetch_total=step.prefetch_total,
            )
        raise ValueError(f"unknown phase {tag!r}")

    def _process_compute_phase(
        self, executor, servers, superstep: int, schedules
    ) -> "list[_ProcessStep]":
        """Parent-side compute dispatch for the process executor."""
        if self.injector is not None:
            self._resolve_compute_faults(servers, superstep, schedules)
        knobs = self._knobs.as_tuple()
        steps = executor.run_phase(
            "compute",
            [(superstep, schedules[s.server_id], knobs) for s in servers],
        )
        for server, step in zip(servers, steps):
            self._merge_worker_step(server, step)
        if self.injector is not None:
            # Straggler charges: serial fires these at the end of each
            # server's sweep; the volumes come back in the deltas.
            for server, step in zip(servers, steps):
                self.injector.after_compute(
                    server, step.delta.edges_processed
                )
        return steps

    def _resolve_compute_faults(self, servers, superstep, schedules) -> None:
        """Fire compute-phase fault decisions in the parent, in serial
        sweep order, before dispatching to workers.

        Crash and disk-error points are replayed against the same
        (superstep, server, first-loaded-blob) coordinates the serial
        sweep would present — the first entry of the server's schedule;
        a crash therefore aborts the superstep before any worker
        computes, with vertex state untouched — the same post-abort
        state as every other executor ("fail before mutate").
        """
        from repro.faults.schedule import DISK_ERROR

        injector = self.injector
        disk_events = [
            e for e in injector.schedule.events if e.kind == DISK_ERROR
        ]
        for server in servers:
            injector.on_compute(server)
            if not disk_events:
                continue
            if not any(
                e.matches(superstep, server.server_id) for e in disk_events
            ):
                continue
            loads, _skips = schedules[server.server_id]
            if loads:
                injector.on_tile_load(server, loads[0][1])

    def _merge_worker_step(self, server, step: "_ProcessStep") -> None:
        """Fold a worker's compute result into the parent's mirrors:
        additive volumes via the shipped delta; worker-authoritative
        gauges, peaks, and cache stats as absolutes."""
        c = server.counters
        c.add_volumes(step.delta)
        c.mem_cache = step.mem_cache
        c.mem_scratch = step.mem_scratch
        if step.mem_peak > c.mem_peak:
            c.mem_peak = step.mem_peak
        if step.cache_stats is not None and server.cache is not None:
            st = server.cache.stats
            (
                st.hits,
                st.misses,
                st.evictions,
                st.insertions,
                st.rejected,
                st.bytes_decompressed,
                st.bytes_compressed_in,
            ) = step.cache_stats
        if step.decoded_stats is not None and server.decoded_cache is not None:
            st = server.decoded_cache.stats
            (
                st.hits,
                st.misses,
                st.evictions,
                st.insertions,
                st.invalidations,
            ) = step.decoded_stats
        self._worker_content[server.server_id] = (
            step.cache_keys,
            step.decoded_keys,
        )
        if step.trace and self.tracer is not None:
            # Parent mirror of the worker's single-writer buffer; merged
            # here in server-id order, so the per-buffer sequence is the
            # one a serial run would have recorded.
            self.tracer.server(server.server_id).extend(step.trace)
        if step.prefetch_trace and self.tracer is not None:
            self.tracer.prefetch(server.server_id).extend(step.prefetch_trace)

    def _resync_parent_caches(self) -> None:
        """Rebuild parent-side cache *contents* from the workers' final
        key lists as the pool winds down.

        Stats and gauges were mirrored every superstep; contents are
        reconstructed from the immutable blobs (deterministic
        compression ⇒ identical bytes and recency order), so a later
        run — a supervised retry, or the next program on this cluster —
        starts from exactly the cache state a single-process run would
        have.  Keeps cross-run metering executor-independent.
        """
        for server in self.cluster.servers:
            content = self._worker_content.get(server.server_id)
            if content is None:
                continue
            cache_keys, decoded_keys = content
            if server.cache is not None and cache_keys is not None:
                server.cache.rebuild_content(
                    (name, server.disk.peek(name)) for name in cache_keys
                )
            if server.decoded_cache is not None and decoded_keys is not None:
                items = []
                for name in decoded_keys:
                    data = server.disk.peek(name)
                    items.append((name, self._tile_parser(data), len(data)))
                server.decoded_cache.rebuild_content(items)
        self._worker_content = {}
        self._run_program = None

    # ------------------------------------------------------------------
    # Per-server superstep work (executor-mapped; see repro.runtime)
    # ------------------------------------------------------------------
    def _compute_server_step(
        self,
        program: VertexProgram,
        server,
        superstep: int,
        schedule: "tuple[list[tuple[int, str, int]], list[tuple[int, str]]]",
    ) -> "_ServerStep":
        """One server's tile sweep: gather/apply + staged broadcast.

        Touches only this server's counters / cache / disk / store plus
        read-only shared structures, so executor threads never contend.
        The encoded broadcast payload is returned (not delivered) — the
        caller flushes all payloads after the join, in server-id order.

        ``schedule`` is this server's ``(loads, skips)`` pair from
        :meth:`_tile_schedule`, derived parent-side.
        """
        trace = server.trace
        if trace is None:
            return self._compute_server_sweep(
                program, server, superstep, schedule
            )
        d0 = trace.depth
        trace.begin("compute", "phase", superstep=superstep)
        try:
            return self._compute_server_sweep(
                program, server, superstep, schedule
            )
        finally:
            # close_to, not end: an injected fault aborting the sweep
            # mid-tile must not leave spans open for the next attempt.
            trace.close_to(d0)

    def _compute_server_sweep(
        self,
        program: VertexProgram,
        server,
        superstep: int,
        schedule: "tuple[list[tuple[int, str, int]], list[tuple[int, str]]]",
    ) -> "_ServerStep":
        """:meth:`_compute_server_step` body (split so the traced path
        can wrap it in an exception-safe span)."""
        cfg = self.config
        knobs = self._knobs
        trace = server.trace
        if self.injector is not None:
            self.injector.on_compute(server)
        store = server.state["store"]
        changed_ids_parts: list[np.ndarray] = []
        changed_vals_parts: list[np.ndarray] = []
        tile_edge_counts: list[int] = []
        tiles_processed = 0
        sort_fallbacks = 0
        # Explicit schedule: all skips were resolved before anything is
        # enqueued, so a skipped tile costs the pipeline zero I/O.
        loads, skips = schedule
        tiles_skipped = len(skips)
        server.counters.tiles_skipped += tiles_skipped
        if trace is not None:
            for tile_id, reason in skips:
                trace.instant(
                    "tile_skip", "schedule", tile=tile_id, reason=reason
                )

        def run_tile(
            tile_id: int, blob_name: str, nbytes: int, prefetched=None
        ) -> None:
            nonlocal tiles_processed
            if trace is not None:
                trace.begin("tile", "compute", tile=tile_id)
            tile = self._load_decoded_tile(server, blob_name, prefetched)
            if self._delta is not None:
                # Overlay composition work: charged per *scheduled*
                # overlaid tile, whether or not the decoded cache
                # served the composed object — like the edge-cache
                # metering, the simulated cost is schedule-driven and
                # therefore executor-invariant.
                overlay = self._delta.overlays.get(tile_id)
                if overlay is not None and not overlay.is_empty:
                    server.counters.delta_bytes += overlay.nbytes()
                    server.counters.delta_edges += overlay.num_ops
            server.counters.add_memory("scratch", nbytes)
            if trace is not None:
                trace.begin("gather-apply", "compute", tile=tile_id)
            ids, vals = _process_tile(program, tile, store)
            if trace is not None:
                trace.end()  # gather-apply
            server.counters.add_memory("scratch", -nbytes)
            tile_edge_counts.append(tile.num_edges)
            tiles_processed += 1
            if trace is not None:
                trace.end()  # tile
            if ids.size:
                changed_ids_parts.append(ids)
                changed_vals_parts.append(vals)

        prefetch_ready = 0
        prefetch_total = 0
        if knobs.prefetch_depth > 0 and loads:
            from repro.runtime.prefetch import TilePrefetcher

            # Background threads speculate ahead (read-only, unmetered);
            # run_tile commits each dequeue through the same metered
            # path as the sequential loop below, in the same order —
            # the fault injector keeps firing inside the metered load,
            # i.e. in deterministic serial sweep order.
            prefetcher = TilePrefetcher(
                server,
                loads,
                self._tile_parser,
                depth=knobs.prefetch_depth,
                io_threads=knobs.io_threads,
                name_of=lambda item: item[1],
                io_trace=server.prefetch_trace,
                wait_trace=trace,
            )
            try:
                for item, hint, _ready in prefetcher:
                    run_tile(*item, prefetched=hint)
            finally:
                prefetcher.close()
            prefetch_ready = prefetcher.served_ready
            prefetch_total = prefetcher.dequeues
        else:
            for item in loads:
                run_tile(*item)

        # Charge compute as the LPT makespan of this server's
        # indivisible tiles over its T workers (§III-C.3's
        # OpenMP parallelism, honestly accounting stragglers).
        edges_charged = int(
            round(
                effective_parallel_volume(
                    tile_edge_counts,
                    self.cluster.spec.workers_per_server,
                )
            )
        )
        server.counters.edges_processed += edges_charged
        if self.injector is not None:
            self.injector.after_compute(server, edges_charged)

        if changed_ids_parts:
            ids = np.concatenate(changed_ids_parts)
            vals = np.concatenate(changed_vals_parts)
            # Per-tile parts cover ascending disjoint target ranges (in
            # both assignment modes a server's tile list is ascending),
            # so the concatenation is already sorted — the seed's
            # per-superstep argsort was pure overhead.  The boundary
            # check is O(#tiles); the argsort fallback is kept for the
            # should-never-happen case and surfaced via sort_fallbacks.
            if not _parts_ascending(changed_ids_parts):
                sort_fallbacks += 1
                order = np.argsort(ids)
                ids, vals = ids[order], vals[order]
        else:
            ids = np.zeros(0, dtype=np.int64)
            vals = np.zeros(0, dtype=np.float64)

        # Stage this server's updated-value broadcast: dense form
        # covers only the targets its tiles own (receivers share the
        # static target index), sparse form ships local (index, value)
        # pairs.
        payload = None
        if len(self.cluster.servers) > 1:
            if trace is not None:
                trace.begin("encode", "comm", updated=int(ids.size))
            own_targets = self._server_target_ids[server.server_id]
            # gather_values fancy-indexes into a fresh array — safe to
            # scatter into directly (the seed's extra .copy() doubled
            # the allocation for nothing).
            staged = store.gather_values(own_targets)
            local_ids = np.searchsorted(own_targets, ids)
            staged[local_ids] = vals
            forced = {
                "dense": DENSE,
                "sparse": SPARSE,
                "hybrid": None,
            }[knobs.comm_mode]
            payload = encode_update(
                staged,
                local_ids,
                codec_name=knobs.message_codec,
                mode=forced,
                threshold=cfg.sparsity_threshold,
            )
            if knobs.message_codec != "raw":
                server.counters.add_compressed(
                    knobs.message_codec, len(payload)
                )
            if trace is not None:
                trace.end()  # encode
        return _ServerStep(
            ids=ids,
            vals=vals,
            payload=payload,
            tiles_processed=tiles_processed,
            tiles_skipped=tiles_skipped,
            sort_fallbacks=sort_fallbacks,
            prefetch_ready=prefetch_ready,
            prefetch_total=prefetch_total,
        )

    # The one decode callback every metered tile load shares — the
    # sequential sweep, the pipeline's speculation, and its dequeue
    # commit all parse through this.
    _TILE_PARSER = staticmethod(Tile.from_bytes)

    def _load_decoded_tile(self, server, blob_name: str, prefetched=None):
        """The single metered tile-load path (satellite of the prefetch
        PR): cache/disk accounting, fault injection, and decode all
        funnel through ``Server.load_tile`` with the shared parser."""
        return server.load_tile(blob_name, self._tile_parser, prefetched)

    def _apply_server_step(
        self,
        server,
        own_update: tuple[np.ndarray, np.ndarray],
        inbox: list[tuple[int, bytes]],
    ) -> None:
        """One server's barrier work: apply own + received updates.

        ``inbox`` is the drained mailbox as ``(sender id, payload
        bytes)`` pairs.  Runs in the parent (serial, process) or on the
        thread pool (parallel).
        """
        trace = server.trace
        if trace is None:
            return self._apply_server_body(server, own_update, inbox)
        d0 = trace.depth
        trace.begin("apply", "phase", inbox=len(inbox))
        try:
            return self._apply_server_body(server, own_update, inbox)
        finally:
            trace.close_to(d0)

    def _apply_server_body(
        self,
        server,
        own_update: tuple[np.ndarray, np.ndarray],
        inbox: list[tuple[int, bytes]],
    ) -> None:
        """:meth:`_apply_server_step` body (traced-path split)."""
        # The superstep's effective knobs: all senders encoded with the
        # same per-superstep codec (parent-resolved).
        codec = self._knobs.message_codec
        store = server.state["store"]
        own_ids, own_vals = own_update
        if not self._comm_fastpath:
            # Cold path (A/B reference): every envelope decodes.  Each
            # decode counts as a miss so hits+misses is the decode-call
            # total in both modes.
            store.write(own_ids, own_vals)
            for src, payload_bytes in inbox:
                payload = decode_update(payload_bytes)
                with self._decode_lock:
                    self.payload_decode_misses += 1
                sender_targets = self._server_target_ids[src]
                store.write(sender_targets[payload.ids], payload.values)
                if codec != "raw":
                    server.counters.add_decompressed(codec, len(payload_bytes))
            return
        # Fast path: decode each distinct payload once per superstep,
        # charge every receiver's decompress bytes regardless (the
        # modeled cost is per-receiver, §IV-C), and land everything in
        # one batched scatter — sender target sets are disjoint, so the
        # write order cannot matter.
        id_parts = [own_ids]
        val_parts = [own_vals]
        for src, payload_bytes in inbox:
            payload = self._decode_payload(server, src, payload_bytes)
            sender_targets = self._server_target_ids[src]
            id_parts.append(sender_targets[payload.ids])
            val_parts.append(payload.values)
            if codec != "raw":
                server.counters.add_decompressed(codec, len(payload_bytes))
        if not self._targets_disjoint:
            self.scatter_fallbacks += 1
            for ids, vals in zip(id_parts, val_parts):
                store.write(ids, vals)
        elif len(id_parts) == 1:
            store.write(own_ids, own_vals)
        else:
            store.write(np.concatenate(id_parts), np.concatenate(val_parts))

    def _plan_decodes(self, servers, inboxes) -> None:
        """Open this superstep's decode-once cache generation.

        Retries re-decode (payload content may differ) and the cache
        never outlives the broadcast it serves.  Each distinct payload's
        miss is assigned to the first (receiver, sender) pair in
        server-id, then mailbox order — the one a serial apply meets
        first — before any receiver runs.
        """
        self._decode_cache.clear()
        self._decode_owner.clear()
        if self._comm_fastpath:
            for server, inbox in zip(servers, inboxes):
                for src, data in inbox:
                    self._decode_owner.setdefault(data, (server.server_id, src))

    def _decode_payload(self, server, src: int, payload_bytes: bytes):
        """Decode-once lookup for one received broadcast payload.

        Content-keyed (bytes hash by value): whichever receiver gets here
        first decodes the payload and caches the immutable result for
        the rest of the superstep; every other receiver reuses it.  The
        miss is recorded by the receiver :meth:`_plan_decodes` named, so
        hit/miss counts and the ``payload_decode`` span (miss) or
        instant (hit) on each server's trace buffer are the same under
        every executor, whatever order threads arrive in.
        """
        miss = self._decode_owner.get(payload_bytes) == (server.server_id, src)
        trace = server.trace
        if trace is not None:
            d0 = trace.depth
            if miss:
                trace.begin(
                    "payload_decode",
                    "comm",
                    src=src,
                    nbytes=len(payload_bytes),
                    cache="miss",
                )
            else:
                trace.instant(
                    "payload_decode",
                    "comm",
                    src=src,
                    nbytes=len(payload_bytes),
                    cache="hit",
                )
        try:
            with self._decode_lock:
                payload = self._decode_cache.get(payload_bytes)
                if payload is None:
                    payload = decode_update(payload_bytes)
                    self._decode_cache[payload_bytes] = payload
                if miss:
                    self.payload_decode_misses += 1
                else:
                    self.payload_decode_hits += 1
        finally:
            if trace is not None:
                trace.close_to(d0)
        return payload

    def _collect_values(self, cfg, servers, init_values) -> np.ndarray:
        """Globally consistent value array after a barrier.

        Under AA any server holds everything; under OD each target
        vertex lives on exactly the server whose tiles own it, so the
        owned ranges are stitched together.
        """
        if cfg.replication_policy == "aa":
            return servers[0].state["store"].full_values().copy()
        final = init_values.copy()
        for server in servers:
            targets = self._server_target_ids[server.server_id]
            if targets.size:
                final[targets] = server.state["store"].gather_values(targets)
        return final

@dataclass
class _ServerStep:
    """One server's staged compute-phase output (pre-barrier)."""

    ids: np.ndarray
    vals: np.ndarray
    payload: bytes | None
    tiles_processed: int
    tiles_skipped: int
    sort_fallbacks: int
    # Pipeline occupancy: dequeues served without stalling / total
    # dequeues (both 0 when the pipeline is off).  Host-side telemetry
    # only — never part of the bitwise-compared results.
    prefetch_ready: int = 0
    prefetch_total: int = 0


@dataclass
class _ProcessStep:
    """A worker's compute-phase result, shaped for cheap pickling.

    Carries the :class:`_ServerStep` fields plus everything the parent
    needs to keep its counter and cache mirrors exact: a volumes-only
    :class:`~repro.cluster.counters.Counters` delta, the
    worker-authoritative memory gauges, absolute cache stat tuples, and
    the caches' content-key lists (recency order) for end-of-run
    resynchronisation.  No tile data, no store arrays — those stay in
    shared memory.
    """

    ids: np.ndarray
    vals: np.ndarray
    payload: bytes | None
    tiles_processed: int
    tiles_skipped: int
    sort_fallbacks: int
    delta: "Counters"
    mem_cache: int
    mem_scratch: int
    mem_peak: int
    cache_stats: tuple | None
    decoded_stats: tuple | None
    cache_keys: tuple | None
    decoded_keys: tuple | None
    # Drained trace events from the worker's per-server buffer (None
    # when tracing is off); extended onto the parent's mirror buffer.
    trace: tuple | None = None
    # Same for the worker's prefetch-pipeline buffer.
    prefetch_trace: tuple | None = None
    prefetch_ready: int = 0
    prefetch_total: int = 0


def _parts_ascending(parts: list[np.ndarray]) -> bool:
    """Whether consecutive (internally sorted) id parts are strictly
    ascending and disjoint — i.e. their concatenation is sorted."""
    for prev, part in zip(parts, parts[1:]):
        if part[0] <= prev[-1]:
            return False
    return True


def _snapshot(server) -> CounterSnapshot:
    """Freeze the counter fields that accumulate inside one superstep.

    Kept as a function (now returning :class:`CounterSnapshot`) because
    the baseline engines import it; new code should use
    ``CounterSnapshot.capture`` directly.
    """
    return CounterSnapshot.capture(server)


def _delta(server, snap: CounterSnapshot) -> Counters:
    """Counters object holding only this superstep's volumes."""
    return snap.delta(server)


def _process_tile(
    program: VertexProgram,
    tile: Tile,
    store,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised Gather + Apply over one tile's target range.

    ``store`` is either replica policy's vertex store (see
    :mod:`repro.core.vertexstore`).  Returns (changed global ids, their
    new values).
    """
    col = tile.col_int64
    src_values = store.gather_values(col)
    out_deg = store.gather_out_degrees(col) if program.uses_out_degree else None
    weights = tile.edge_values() if program.uses_edge_weight else None
    contributions = program.edge_message(src_values, out_deg, weights)
    accum = segment_reduce(contributions, tile.row_int64, program.reduce_op)
    old = store.read_range(tile.target_lo, tile.target_hi)
    new = program.apply(accum, old, tile.target_ids)
    changed = program.value_changed(new, old)
    local_ids = np.flatnonzero(changed)
    return (local_ids + tile.target_lo).astype(np.int64), new[local_ids]


class _ManifestGraphView:
    """Graph-shaped metadata view for ``init_values`` (no edge access)."""

    def __init__(self, num_vertices, num_edges, in_degrees, out_degrees) -> None:
        self.num_vertices = num_vertices
        self.num_edges = num_edges
        self.in_degrees = in_degrees
        self.out_degrees = out_degrees
