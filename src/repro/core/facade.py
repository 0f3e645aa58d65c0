"""The one-object public API: ``GraphH``.

Mirrors Figure 3's end-to-end pipeline::

    Raw Graph → SPE → Tiles (DFS) → MPE → PageRank / SSSP / WCC …

Typical use::

    from repro.core import GraphH
    from repro.apps import PageRank

    with GraphH(num_servers=4) as gh:
        gh.load_graph(graph, avg_tile_edges=20_000)
        result = gh.run(PageRank())
        print(result.values[:10], result.num_supersteps)

Pre-processing happens once per loaded graph; ``run`` can be called for
any number of vertex programs against the persisted tiles, exactly as
SPE "can be called one time for each input graph … reused by MPE to run
many vertex-centric programs."
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.apps.base import VertexProgram
from repro.cluster.cluster import Cluster
from repro.cluster.spec import ClusterSpec
from repro.core.mpe import MPE, MPEConfig, RunResult
from repro.core.spe import SPE, TileManifest
from repro.graph.graph import Graph


class ClusterBuild:
    """A built cluster plus its per-dataset preprocessing state.

    Extracted from :class:`GraphH` so the expensive cold-start work —
    cluster construction, SPE pre-processing, and the MPE's stage-two
    tile fetch — can outlive a single facade call.  A one-shot
    ``GraphH`` owns a private build (and tears it down on ``close``);
    the service layer (:mod:`repro.service`) keeps one build alive per
    registered graph and hands it to every job, so repeated runs reuse
    the warm cluster instead of rebuilding it.

    ``mpe(name)`` returns one cached engine per dataset: its setup
    (tile placement, source summaries, caches) runs once
    and stays warm.  ``mpe(name, fresh=True)`` preserves the historical
    facade behaviour of a brand-new engine per ``load_graph`` call.
    """

    def __init__(
        self,
        num_servers: int = 1,
        spec: ClusterSpec | None = None,
        root: str | None = None,
    ) -> None:
        self.spec = spec or ClusterSpec(num_servers=num_servers)
        self.cluster = Cluster(self.spec, root=root)
        self.spe = SPE(self.cluster.dfs)
        self._manifests: dict[str, TileManifest] = {}
        self._mpes: dict[str, MPE] = {}

    # ------------------------------------------------------------------
    def load(
        self,
        graph: Graph,
        avg_tile_edges: int | None = None,
        name: str | None = None,
        reuse: bool = False,
    ) -> TileManifest:
        """Pre-process ``graph`` into tiles (SPE stage); see
        :meth:`GraphH.load_graph` for the knob semantics."""
        name = name or graph.name
        if reuse and self.cluster.dfs.exists(f"{name}/meta"):
            manifest = self.spe.load_manifest(name)
        else:
            if avg_tile_edges is None:
                avg_tile_edges = max(
                    1, graph.num_edges // (48 * self.spec.num_servers) or 1
                )
            manifest = self.spe.preprocess(graph, avg_tile_edges, name)
            # Tiles were rewritten: any cached engine for this dataset
            # holds stale blobs/blooms and must be rebuilt.
            self._mpes.pop(name, None)
        self._manifests[name] = manifest
        return manifest

    def manifest(self, name: str) -> TileManifest:
        try:
            return self._manifests[name]
        except KeyError:
            raise KeyError(f"dataset {name!r} not loaded in this build") from None

    def mpe(
        self,
        name: str,
        config: MPEConfig | None = None,
        tracer=None,
        fresh: bool = False,
    ) -> MPE:
        """The engine for a loaded dataset.

        Cached per dataset by default (warm setup state survives);
        ``fresh=True`` always builds a new engine — the one-shot facade
        path, behaviourally identical to the pre-extraction ``GraphH``.
        """
        manifest = self.manifest(name)
        if fresh:
            engine = MPE(self.cluster, manifest, config, tracer=tracer)
            self._mpes[name] = engine
            return engine
        engine = self._mpes.get(name)
        if engine is None:
            engine = MPE(self.cluster, manifest, config, tracer=tracer)
            self._mpes[name] = engine
        else:
            if config is not None:
                engine.config = config
            if tracer is not None:
                engine.tracer = tracer
        return engine

    def datasets(self) -> list[str]:
        return sorted(self._manifests)

    def close(self) -> None:
        """Tear down the cluster's on-disk state."""
        self._mpes.clear()
        self._manifests.clear()
        self.cluster.close()

    def __enter__(self) -> "ClusterBuild":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class GraphH:
    """High-level GraphH system handle.

    Parameters
    ----------
    num_servers:
        Simulated cluster width (defaults to a single node — GraphH's
        headline claim is that big graphs run "even on a single
        commodity server").
    spec:
        Full hardware spec; overrides ``num_servers`` when given.
    config:
        Engine tunables (cache, codec, comm mode, bloom filters).
    root:
        Directory for cluster state; a private temp dir by default.
    executor:
        Shortcut for the host executor (``"serial"`` / ``"parallel"`` /
        ``"process"``); overlays ``config`` when given.
    num_workers:
        Process-pool width for ``executor="process"``; overlays
        ``config`` when given.
    prefetch_depth:
        Tile prefetch pipeline depth (0 = off); overlays ``config``
        when given.  See :mod:`repro.runtime.prefetch`.
    io_threads:
        Background I/O threads per server feeding the pipeline;
        overlays ``config`` when given.
    selective:
        GraphMP-style selective scheduling (exact active-vertex bitmap
        tile pruning); overlays ``config.selective_scheduling`` when
        given.  See :mod:`repro.runtime.active`.
    vertex_store:
        ``"mem"`` or ``"mmap"`` (semi-external-memory replica arrays);
        overlays ``config`` when given.
    tune:
        Online autotuner (:mod:`repro.tuning`): fit the cost model from
        the first supersteps, then switch codec / comm / bloom / cache /
        prefetch knobs at superstep boundaries.  Overlays
        ``config.tune`` when given.
    comm_fastpath:
        Communication fast path (decode-once broadcast fan-out with
        batched apply).  On by default;
        bitwise identical either way, so ``False`` exists only for A/B
        benchmarking.  Overlays ``config.comm_fastpath`` when given.
    mutations:
        Evolving-graph support (:mod:`repro.delta`): attach a mutation
        log + delta-overlay store to the engine so :meth:`mutate` can
        apply edge inserts/deletes without re-running the SPE.  Overlays
        ``config.mutations`` when given.
    incremental:
        Restart vertex programs from the previous fixed point, repairing
        only vertices the latest mutation batch disturbed (requires
        ``mutations=True``).  Overlays ``config.incremental`` when
        given.
    trace:
        ``True`` enables the observability subsystem (:mod:`repro.obs`):
        every run records spans/instants into :attr:`tracer` and bridges
        the cluster's counters into its metrics registry.  Off (the
        default) nothing is recorded and the hot paths stay guard-only.
        An existing :class:`repro.obs.trace.Tracer` may be passed
        instead of ``True`` to share one collector across systems.
    trace_out:
        Path of a Chrome-trace-event JSON file (Perfetto /
        ``chrome://tracing`` loadable) written after every :meth:`run`;
        implies ``trace=True``.
    build:
        An existing :class:`ClusterBuild` to run against instead of
        constructing (and owning) a private one.  The facade then skips
        cluster construction, reuses the build's per-dataset warm
        engines, and leaves teardown to the build's owner —
        ``num_servers``/``spec``/``root`` are taken from the build.
    """

    def __init__(
        self,
        num_servers: int = 1,
        spec: ClusterSpec | None = None,
        config: MPEConfig | None = None,
        root: str | None = None,
        executor: str | None = None,
        num_workers: int | None = None,
        prefetch_depth: int | None = None,
        io_threads: int | None = None,
        selective: bool | None = None,
        vertex_store: str | None = None,
        tune: bool | None = None,
        comm_fastpath: bool | None = None,
        mutations: bool | None = None,
        incremental: bool | None = None,
        trace=False,
        trace_out: str | None = None,
        build: ClusterBuild | None = None,
    ) -> None:
        self._owns_build = build is None
        self._build = build or ClusterBuild(
            num_servers=num_servers, spec=spec, root=root
        )
        self.spec = self._build.spec
        self.cluster = self._build.cluster
        self.config = config or MPEConfig()
        overrides = {}
        if executor is not None:
            overrides["executor"] = executor
        if num_workers is not None:
            overrides["num_workers"] = num_workers
        if prefetch_depth is not None:
            overrides["prefetch_depth"] = prefetch_depth
        if io_threads is not None:
            overrides["io_threads"] = io_threads
        if selective is not None:
            overrides["selective_scheduling"] = selective
        if vertex_store is not None:
            overrides["vertex_store"] = vertex_store
        if tune is not None:
            overrides["tune"] = tune
        if comm_fastpath is not None:
            overrides["comm_fastpath"] = comm_fastpath
        if mutations is not None:
            overrides["mutations"] = mutations
        if incremental is not None:
            overrides["incremental"] = incremental
        if overrides:
            self.config = dataclasses.replace(self.config, **overrides)
        self.tracer = None
        self.trace_out = trace_out
        if trace or trace_out is not None:
            from repro.obs.trace import Tracer

            self.tracer = trace if isinstance(trace, Tracer) else Tracer()
        self.spe = self._build.spe
        self._manifest: TileManifest | None = None
        self._mpe: MPE | None = None
        self._graph: Graph | None = None

    # ------------------------------------------------------------------
    def load_graph(
        self,
        graph: Graph,
        avg_tile_edges: int | None = None,
        name: str | None = None,
        reuse: bool = False,
    ) -> TileManifest:
        """Pre-process a graph into tiles (SPE stage).

        ``avg_tile_edges`` defaults to ``|E| / (48 N)`` clamped to at
        least 1 — dozens of tiles per server so every worker has work,
        the regime §III-B.3 recommends (the paper's 15–25M edge tiles
        give hundreds of tiles per server at its scale).

        ``reuse=True`` skips pre-processing when the dataset's tiles
        are already in the DFS (a persistent ``root`` from a previous
        run) and loads the existing manifest instead — which also keeps
        that run's checkpoints resumable.
        """
        name = name or graph.name
        self._manifest = self._build.load(
            graph, avg_tile_edges=avg_tile_edges, name=name, reuse=reuse
        )
        self._graph = graph
        # An owned (one-shot) build keeps the historical fresh-engine-
        # per-load behaviour; a shared build hands back its warm engine.
        self._mpe = self._build.mpe(
            name, config=self.config, tracer=self.tracer, fresh=self._owns_build
        )
        return self._manifest

    @property
    def manifest(self) -> TileManifest:
        """The active dataset's manifest."""
        if self._manifest is None:
            raise RuntimeError("no graph loaded; call load_graph() first")
        return self._manifest

    @property
    def mpe(self) -> MPE:
        """The underlying engine (for counters and reports)."""
        if self._mpe is None:
            raise RuntimeError("no graph loaded; call load_graph() first")
        return self._mpe

    def run(self, program: VertexProgram, resume: bool = False) -> RunResult:
        """Execute a vertex program over the loaded graph.

        ``resume=True`` restarts from the newest DFS checkpoint for
        this (dataset, program) pair, when one exists (requires a
        config with ``checkpoint_every`` for snapshots to be written).
        """
        result = self.mpe.run(program, resume=resume)
        self._finish_trace(program)
        return result

    def mutate(self, ops) -> dict:
        """Apply a batch of edge mutations to the loaded graph.

        ``ops`` is a list of ``{"op": "insert"|"delete", "src", "dst"
        [, "weight"]}`` dicts (see :func:`repro.delta.random_mutations`
        and :meth:`repro.delta.MutationLog.add`).  Requires
        ``mutations=True``.  Mutations land in per-tile delta overlays
        composed over the immutable base tiles at load time; subsequent
        :meth:`run` calls see the mutated graph, and with
        ``incremental=True`` restart from the previous fixed point.

        Note: :meth:`wcc` symmetrises into a separate ``-sym`` dataset
        whose engine does not see these mutations — for evolving
        undirected graphs, load a symmetrised graph and feed
        ``mirrored()`` batches instead.
        """
        return self.mpe.apply_mutations(ops)

    def _finish_trace(self, program: VertexProgram) -> None:
        """Post-run observability: bridge counters, export Chrome JSON."""
        if self.tracer is None:
            return
        from repro.obs.export import write_chrome_trace
        from repro.obs.metrics import bridge_cluster

        bridge_cluster(self.tracer.metrics, self.cluster, self.mpe.channel)
        if self.trace_out is not None:
            write_chrome_trace(
                self.tracer,
                self.trace_out,
                metadata={
                    "program": program.name,
                    "dataset": self.manifest.name,
                    "num_servers": self.spec.num_servers,
                },
            )

    # ------------------------------------------------------------------
    def pagerank(self, damping: float = 0.85, tolerance: float = 1e-9) -> np.ndarray:
        """Convenience: PageRank values."""
        from repro.apps import PageRank

        return self.run(PageRank(damping=damping, tolerance=tolerance)).values

    def sssp(self, source: int = 0) -> np.ndarray:
        """Convenience: shortest-path distances from ``source``."""
        from repro.apps import SSSP

        return self.run(SSSP(source=source)).values

    def wcc(self, resume: bool = False) -> np.ndarray:
        """Convenience: weakly-connected-component labels.

        Symmetrises the loaded graph into a side dataset on first use
        (WCC's label propagation needs both edge directions).
        """
        from repro.apps import WCC

        if self._graph is None:
            raise RuntimeError("no graph loaded; call load_graph() first")
        sym_name = f"{self.manifest.name}-sym"
        if not self.cluster.dfs.exists(f"{sym_name}/meta"):
            sym = self._graph.to_undirected_edges()
            manifest = self.spe.preprocess(
                sym, self.manifest.avg_tile_edges, sym_name
            )
        else:
            manifest = self.spe.load_manifest(sym_name)
        mpe = MPE(self.cluster, manifest, self.config, tracer=self.tracer)
        result = mpe.run(WCC(), resume=resume)
        if self.tracer is not None:
            from repro.obs.export import write_chrome_trace
            from repro.obs.metrics import bridge_cluster

            bridge_cluster(self.tracer.metrics, self.cluster, mpe.channel)
            if self.trace_out is not None:
                write_chrome_trace(
                    self.tracer,
                    self.trace_out,
                    metadata={
                        "program": "wcc",
                        "dataset": sym_name,
                        "num_servers": self.spec.num_servers,
                    },
                )
        return result.values

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Tear down the simulated cluster's on-disk state.

        No-op when running against a shared :class:`ClusterBuild` —
        its owner decides when the warm cluster dies.
        """
        if self._owns_build:
            self._build.close()

    def __enter__(self) -> "GraphH":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
