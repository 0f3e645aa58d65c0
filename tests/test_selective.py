"""Tests for selective scheduling + semi-external-memory vertex stores.

The GraphMP-port invariants:

* **Bitwise identity** — selective scheduling and the mmap vertex store
  are pure I/O optimisations: values, counters, modeled costs, and
  per-superstep skip counts must be bit-for-bit identical with the
  features on or off, under every executor and vertex store.  (The
  sweeps pin the bloom filter at a near-zero false-positive rate so the
  approximate prune makes the same decisions as the exact one — with
  the default rate the bitmap legitimately skips *more* tiles, which is
  the point of the feature, but then skip counters differ by design.)
* **No double accounting** — with selective scheduling on, no tile is
  probed against its bloom filter; the bitmap decides every skip.
* **Fault-schedule stability** — skip decisions are frozen parent-side
  before dispatch, so chaos schedules replay identically whether the
  prune is on or off.
* **SEM durability** — mmap-backed replica arrays survive
  checkpoint/resume and fork-sharing into the process executor.
"""

import os

import numpy as np
import pytest

from repro.analysis.experiments import run_graphh
from repro.apps import SSSP, PageRank
from repro.cluster import Cluster, ClusterSpec
from repro.core import MPE, MPEConfig, SPE
from repro.graph import chung_lu_graph
from repro.runtime import process_runtime_available
from repro.runtime.active import ActiveBitmap, TileSourceSummary
from repro.storage.backing import BackingStore

needs_process = pytest.mark.skipif(
    not process_runtime_available(),
    reason="platform lacks fork + POSIX shared memory",
)

# Near-zero false-positive rate: the bloom prune becomes effectively
# exact, so bitmap and bloom agree on every skip and the tiles_skipped
# counters stay comparable across the on/off sweep.
EXACT_BLOOM = 1e-6


@pytest.fixture(scope="module")
def skewed():
    return chung_lu_graph(250, 2500, seed=95, name="selective-g")


def _run(graph, cfg, program=None, **kw):
    result, cluster = run_graphh(
        graph, program or SSSP(source=1), 3, config=cfg, **kw
    )
    telemetry = {
        "counters": [s.counters.snapshot() for s in cluster.servers],
        "modeled": [s.modeled for s in result.supersteps],
        "net": [s.net_bytes for s in result.supersteps],
        "disk": [s.disk_read_bytes for s in result.supersteps],
        "skipped": [s.tiles_skipped for s in result.supersteps],
        "processed": [s.tiles_processed for s in result.supersteps],
    }
    cluster.close()
    return result, telemetry


def _assert_identical(a, b):
    ra, ta = a
    rb, tb = b
    assert np.array_equal(ra.values, rb.values)
    assert len(ra.supersteps) == len(rb.supersteps)
    for key in ("modeled", "net", "disk", "skipped", "processed"):
        assert ta[key] == tb[key], key
    assert ta["counters"] == tb["counters"]


# ----------------------------------------------------------------------
# The core invariant: bitwise identity across every axis
# ----------------------------------------------------------------------
class TestBitwiseIdentity:
    @pytest.fixture(scope="class")
    def baseline(self, skewed):
        cfg = MPEConfig(
            selective_scheduling=False,
            bloom_false_positive_rate=EXACT_BLOOM,
        )
        return _run(skewed, cfg, max_supersteps=14)

    @pytest.mark.parametrize("store", ["mem", "mmap"])
    @pytest.mark.parametrize("executor", ["serial", "parallel", "process"])
    def test_sweep(self, skewed, baseline, executor, store):
        if executor == "process" and not process_runtime_available():
            pytest.skip("platform lacks fork + POSIX shared memory")
        cfg = MPEConfig(
            selective_scheduling=True,
            vertex_store=store,
            executor=executor,
            bloom_false_positive_rate=EXACT_BLOOM,
        )
        run = _run(skewed, cfg, max_supersteps=14)
        _assert_identical(baseline, run)
        assert run[0].runtime()["selective"] is True
        assert run[0].runtime()["vertex_store"] == store

    def test_off_and_on_skip_the_same_tiles_at_exact_bloom(
        self, skewed, baseline
    ):
        """With an effectively exact bloom, the bitmap changes nothing —
        including the per-superstep skip counts themselves."""
        assert sum(baseline[1]["skipped"]) > 0  # the sweep is non-trivial

    def test_bitmap_skips_at_least_as_much_as_bloom(self, skewed):
        """At the default (approximate) rate the exact prune is a
        superset of the bloom prune: false positives get skipped too."""
        bloom_only = _run(
            skewed,
            MPEConfig(selective_scheduling=False),
            max_supersteps=14,
        )
        both = _run(
            skewed,
            MPEConfig(selective_scheduling=True),
            max_supersteps=14,
        )
        assert np.array_equal(bloom_only[0].values, both[0].values)
        assert sum(both[1]["skipped"]) >= sum(bloom_only[1]["skipped"])


# ----------------------------------------------------------------------
# No double accounting: bitmap-pruned tiles never reach the bloom probe
# ----------------------------------------------------------------------
class TestNoDoubleProbe:
    def _count_probes(self, graph, selective, monkeypatch):
        from repro.utils.bloom import BloomFilter

        calls = {"n": 0}
        original = BloomFilter.might_intersect

        def counting(self, *args, **kwargs):
            calls["n"] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(BloomFilter, "might_intersect", counting)
        run = _run(
            graph,
            MPEConfig(
                selective_scheduling=selective,
                bloom_false_positive_rate=EXACT_BLOOM,
            ),
            max_supersteps=14,
        )
        return calls["n"], run

    def test_pruned_tile_is_never_probed(self, skewed, monkeypatch):
        probes_off, run_off = self._count_probes(skewed, False, monkeypatch)
        probes_on, run_on = self._count_probes(skewed, True, monkeypatch)
        skipped = sum(run_on[1]["skipped"])
        assert skipped > 0
        assert sum(run_off[1]["skipped"]) == skipped
        # With an exact bloom the bitmap prunes exactly the tiles the
        # bloom would have skipped — and with the bitmap deciding every
        # skip, no bloom filter is probed at all.
        assert probes_on == 0


# ----------------------------------------------------------------------
# Bloom lifecycle: filters exist only for runs that probe them
# ----------------------------------------------------------------------
@pytest.fixture
def bloom_calls(monkeypatch):
    """Count ``Tile.build_bloom_filter`` and ``BloomFilter.might_intersect``
    calls in shared memory, so calls inside forked workers count too;
    ``order`` records parent-side builds and pool forks in call order."""
    import multiprocessing
    from types import SimpleNamespace

    from repro.partition.tiles import Tile
    from repro.runtime.process import ProcessExecutor
    from repro.utils.bloom import BloomFilter

    monkeypatch.delenv("REPRO_SELECTIVE", raising=False)
    counts = {"build": multiprocessing.Value("i", 0),
              "probe": multiprocessing.Value("i", 0)}
    order: list[str] = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            with counts[name].get_lock():
                counts[name].value += 1
            if name == "build":
                order.append("build")
            return fn(*args, **kwargs)

        return wrapper

    start = ProcessExecutor.start

    def recording_start(self, *args, **kwargs):
        order.append("fork")
        return start(self, *args, **kwargs)

    monkeypatch.setattr(
        Tile, "build_bloom_filter", counted("build", Tile.build_bloom_filter)
    )
    monkeypatch.setattr(
        BloomFilter,
        "might_intersect",
        counted("probe", BloomFilter.might_intersect),
    )
    monkeypatch.setattr(ProcessExecutor, "start", recording_start)

    return SimpleNamespace(
        builds=lambda: counts["build"].value,
        probes=lambda: counts["probe"].value,
        order=order,
    )


class TestBloomLifecycle:
    @pytest.mark.parametrize("executor", ["serial", "parallel"])
    def test_default_config_never_builds_or_probes(
        self, skewed, bloom_calls, executor
    ):
        from repro.core import GraphH
        from repro.delta import random_mutations

        graphh = GraphH(num_servers=3, executor=executor, mutations=True)
        try:
            graphh.load_graph(skewed)
            graphh.run(SSSP(source=1))
            graphh.mutate(random_mutations(skewed, 20, 5, seed=4))
            graphh.run(SSSP(source=1))
            graphh.run(PageRank())  # dense frontiers
        finally:
            graphh.close()
        assert bloom_calls.builds() == 0
        assert bloom_calls.probes() == 0

    @pytest.mark.parametrize(
        "executor",
        ["serial", "parallel", pytest.param("process", marks=needs_process)],
    )
    def test_selective_off_builds_each_filter_once_before_fork(
        self, skewed, bloom_calls, executor
    ):
        cluster = Cluster(ClusterSpec(num_servers=3))
        try:
            manifest = SPE(cluster.dfs).preprocess(
                skewed, max(1, skewed.num_edges // 144), name=skewed.name
            )
            mpe = MPE(
                cluster,
                manifest,
                MPEConfig(
                    selective_scheduling=False,
                    executor=executor,
                    max_supersteps=14,
                ),
            )
            mpe.run(SSSP(source=1))
            mpe.run(SSSP(source=2))
        finally:
            cluster.close()
        assert bloom_calls.builds() == manifest.num_tiles
        assert bloom_calls.probes() > 0
        builds = [i for i, e in enumerate(bloom_calls.order) if e == "build"]
        assert len(builds) == manifest.num_tiles  # all in the parent
        if executor == "process":
            assert "fork" in bloom_calls.order
        if "fork" in bloom_calls.order:
            assert builds[-1] < bloom_calls.order.index("fork")

    def test_empty_tile_under_dense_frontier(self, bloom_calls):
        """The bloom's one verdict the bitmap does not repeat: an empty
        tile under a dense frontier is skipped exactly when filtering
        is on — with selective scheduling deriving it without a filter."""
        from repro.graph import Graph

        rng = np.random.default_rng(12)
        # Vertices 40..59 have no in-edges: the last tile is empty.
        edges = np.stack(
            [rng.integers(0, 60, 300), rng.integers(0, 40, 300)], axis=1
        )
        graph = Graph.from_edges(edges, num_vertices=60, name="empty-tile")
        runs = {}
        for selective in (True, False):
            for bloom in (False, True):
                runs[selective, bloom] = _run(
                    graph,
                    MPEConfig(
                        selective_scheduling=selective,
                        use_bloom_filters=bloom,
                    ),
                    program=PageRank(),
                    max_supersteps=6,
                )
            if selective:
                # Derived from the source summaries, not from a filter.
                assert bloom_calls.builds() == bloom_calls.probes() == 0
        assert bloom_calls.probes() > 0  # the selective-off bloom run
        reference = runs[False, False][0].values
        for (_selective, bloom), (result, telemetry) in runs.items():
            # Superstep 0 updates every vertex, so superstep 1 runs
            # under a dense frontier and only the empty tile can go.
            assert result.supersteps[0].updated_vertices == 60
            assert telemetry["skipped"][1] == (1 if bloom else 0)
            assert np.array_equal(result.values, reference)


# ----------------------------------------------------------------------
# Chaos determinism: faults at skipped-tile supersteps
# ----------------------------------------------------------------------
class TestChaosWithSkips:
    def _supervised(self, graph, selective, store="mem"):
        from repro.faults import DISK_ERROR, FaultEvent, FaultSchedule, Supervisor

        cluster = Cluster(ClusterSpec(num_servers=3))
        spe = SPE(cluster.dfs)
        manifest = spe.preprocess(
            graph, max(1, graph.num_edges // 9), name=graph.name
        )
        cfg = MPEConfig(
            selective_scheduling=selective,
            vertex_store=store,
            checkpoint_every=2,
            max_supersteps=60,
            bloom_false_positive_rate=EXACT_BLOOM,
        )
        mpe = MPE(cluster, manifest, cfg)
        # SSSP's late supersteps have sparse frontiers, so superstep 6
        # skips tiles on this graph; the injected read error must land
        # on a *surviving* tile at the same instant either way.
        schedule = FaultSchedule(
            [FaultEvent(DISK_ERROR, superstep=6, server=0, retries=2)]
        )
        result, report = Supervisor(mpe, schedule=schedule).run(SSSP(source=1))
        skipped = [s.tiles_skipped for s in result.supersteps]
        values = result.values.copy()
        cluster.close()
        return values, report, skipped

    def test_fault_replay_identical_with_selective(self, skewed):
        off_values, off_report, off_skips = self._supervised(skewed, False)
        on_values, on_report, on_skips = self._supervised(skewed, True)
        assert np.array_equal(off_values, on_values)
        assert off_report.to_dict() == on_report.to_dict()
        assert off_skips == on_skips
        assert sum(on_skips[6:]) > 0  # the fault landed amid real skips

    def test_fault_replay_identical_with_mmap(self, skewed):
        mem = self._supervised(skewed, True, store="mem")
        mmap = self._supervised(skewed, True, store="mmap")
        assert np.array_equal(mem[0], mmap[0])
        assert mem[1].to_dict() == mmap[1].to_dict()


# ----------------------------------------------------------------------
# SEM durability: mmap stores across checkpoint/resume and fork
# ----------------------------------------------------------------------
class TestMmapStore:
    def _mpe(self, cluster, graph, **cfg):
        spe = SPE(cluster.dfs)
        if not cluster.dfs.exists(f"{graph.name}/meta"):
            spe.preprocess(graph, max(1, graph.num_edges // 9), name=graph.name)
        manifest = spe.load_manifest(graph.name)
        return MPE(cluster, manifest, MPEConfig(vertex_store="mmap", **cfg))

    def test_checkpoint_resume_under_mmap(self, skewed):
        with Cluster(ClusterSpec(num_servers=3)) as cluster:
            full = self._mpe(
                cluster, skewed, checkpoint_every=2, max_supersteps=300
            ).run(PageRank())
            assert full.converged
        with Cluster(ClusterSpec(num_servers=3)) as cluster:
            self._mpe(
                cluster, skewed, checkpoint_every=2, max_supersteps=6
            ).run(PageRank())
            resumed = self._mpe(
                cluster, skewed, checkpoint_every=2, max_supersteps=300
            ).run(PageRank(), resume=True)
        assert resumed.converged
        assert np.array_equal(full.values, resumed.values)

    @needs_process
    def test_mmap_shared_across_fork(self, skewed):
        """MAP_SHARED file backing makes the replica arrays visible to
        forked workers without the shm copy path."""
        serial = _run(
            skewed,
            MPEConfig(vertex_store="mmap", executor="serial"),
            program=PageRank(),
        )
        process = _run(
            skewed,
            MPEConfig(vertex_store="mmap", executor="process", num_workers=2),
            program=PageRank(),
        )
        _assert_identical(serial, process)

    def test_backing_files_cleaned_up(self, skewed):
        cluster = Cluster(ClusterSpec(num_servers=2))
        spe = SPE(cluster.dfs)
        manifest = spe.preprocess(
            skewed, max(1, skewed.num_edges // 6), name=skewed.name
        )
        mpe = MPE(cluster, manifest, MPEConfig(vertex_store="mmap"))
        mpe.run(SSSP(source=1))
        # The run tears its BackingStore down on exit; nothing mmap-ish
        # may survive under the cluster root.
        leftovers = [
            name
            for root, _dirs, files in os.walk(cluster.root)
            for name in files
            if name.startswith("vstore-")
        ]
        assert leftovers == []
        cluster.close()

    def test_backing_store_lifecycle(self, tmp_path):
        store = BackingStore(root=str(tmp_path))
        arr = store.create(np.arange(5, dtype=np.float64))
        assert np.array_equal(np.asarray(arr), np.arange(5, dtype=np.float64))
        arr[2] = 99.0
        assert store.used_bytes() == 5 * 8
        store.release()
        store.release()  # idempotent
        with pytest.raises(RuntimeError):
            store.create(np.zeros(3))

    def test_config_rejects_unknown_store(self):
        with pytest.raises(ValueError, match="vertex_store"):
            MPEConfig(vertex_store="tape")


# ----------------------------------------------------------------------
# Knobs: env override and facade/CLI plumbing
# ----------------------------------------------------------------------
class TestSelectiveKnobs:
    def test_env_override_forces_off(self, skewed, monkeypatch):
        monkeypatch.setenv("REPRO_SELECTIVE", "0")
        result, _ = _run(skewed, MPEConfig(selective_scheduling=True))
        assert result.runtime()["selective"] is False

    def test_env_override_forces_on(self, skewed, monkeypatch):
        """Flipping selective on via env after a selective-off setup
        must still work: summaries are backfilled on demand."""
        monkeypatch.setenv("REPRO_SELECTIVE", "1")
        result, telemetry = _run(
            skewed, MPEConfig(selective_scheduling=False, use_bloom_filters=False)
        )
        assert result.runtime()["selective"] is True
        assert sum(telemetry["skipped"]) > 0

    def test_env_override_rejects_garbage(self, skewed, monkeypatch):
        monkeypatch.setenv("REPRO_SELECTIVE", "maybe")
        with pytest.raises(ValueError, match="REPRO_SELECTIVE"):
            _run(skewed, MPEConfig())

    def test_facade_kwargs(self, skewed):
        from repro.core import GraphH

        with GraphH(num_servers=2, selective=False, vertex_store="mmap") as gh:
            gh.load_graph(skewed, name="facade-sel")
            result = gh.run(SSSP(source=1))
        assert result.runtime()["selective"] is False
        assert result.runtime()["vertex_store"] == "mmap"


# ----------------------------------------------------------------------
# The primitives: ActiveBitmap and TileSourceSummary
# ----------------------------------------------------------------------
class TestActivePrimitives:
    def test_bitmap_range_and_membership(self):
        bm = ActiveBitmap(np.array([3, 17, 40], dtype=np.int64), 64)
        assert not bm.dense
        assert bm.count == 3
        assert bm.any_in_range(0, 3)
        assert bm.any_in_range(18, 40)
        assert not bm.any_in_range(4, 16)
        assert not bm.any_in_range(41, 63)
        assert bm.any_of(np.array([2, 17], dtype=np.int64))
        assert not bm.any_of(np.array([2, 16], dtype=np.int64))

    def test_dense_bitmap(self):
        bm = ActiveBitmap(np.arange(8, dtype=np.int64), 8)
        assert bm.dense

    def test_summary_intersects(self):
        summary = TileSourceSummary(0, np.array([10, 15, 20], dtype=np.int64))
        assert (summary.src_lo, summary.src_hi) == (10, 20)
        hit = ActiveBitmap(np.array([15], dtype=np.int64), 32)
        in_range_miss = ActiveBitmap(np.array([12], dtype=np.int64), 32)
        out_of_range = ActiveBitmap(np.array([25], dtype=np.int64), 32)
        assert summary.intersects(hit)
        assert not summary.intersects(in_range_miss)  # range hits, set misses
        assert not summary.intersects(out_of_range)

    def test_empty_summary_never_intersects(self):
        summary = TileSourceSummary(1, np.zeros(0, dtype=np.int64))
        assert (summary.src_lo, summary.src_hi) == (0, -1)
        assert not summary.intersects(
            ActiveBitmap(np.array([0], dtype=np.int64), 4)
        )

    def test_seed_from_ids_sorts_and_dedups(self):
        bm = ActiveBitmap.seed_from_ids([9, 2, 2, 40, 9], 64)
        assert np.array_equal(bm.updated, np.array([2, 9, 40], dtype=np.int64))
        assert bm.num_vertices == 64
        assert bm.count == 3
        assert bm.any_of(np.array([9], dtype=np.int64))
        assert not bm.any_of(np.array([10], dtype=np.int64))

    def test_seed_from_ids_accepts_empty_and_arrays(self):
        empty = ActiveBitmap.seed_from_ids([], 16)
        assert empty.count == 0
        assert not empty.any_in_range(0, 15)
        from_arr = ActiveBitmap.seed_from_ids(
            np.array([5, 1], dtype=np.int64), 16
        )
        assert np.array_equal(from_arr.updated, np.array([1, 5], dtype=np.int64))

    def test_seed_from_ids_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ActiveBitmap.seed_from_ids([3, 64], 64)
        with pytest.raises(ValueError):
            ActiveBitmap.seed_from_ids([-1], 64)

    def test_union(self):
        a = ActiveBitmap.seed_from_ids([1, 5], 32)
        b = ActiveBitmap.seed_from_ids([5, 9], 32)
        u = a.union(b)
        assert np.array_equal(u.updated, np.array([1, 5, 9], dtype=np.int64))
        assert u.num_vertices == 32
        # union with an empty bitmap is the identity set
        e = ActiveBitmap.seed_from_ids([], 32)
        assert np.array_equal(a.union(e).updated, a.updated)

    def test_union_rejects_mismatched_domains(self):
        a = ActiveBitmap.seed_from_ids([1], 32)
        b = ActiveBitmap.seed_from_ids([1], 16)
        with pytest.raises(ValueError):
            a.union(b)


# ----------------------------------------------------------------------
# Scale: the 10⁷-edge convergence smoke (slow; run explicitly or in CI)
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestScaleSmoke:
    def test_ten_million_edges_converge_under_mmap_selective(self):
        from repro.graph import rmat_graph_streamed

        graph = rmat_graph_streamed(
            scale=19, edge_factor=20, seed=42, weighted=True
        )
        assert graph.num_edges >= 10_000_000
        source = int(np.argmax(graph.out_degrees))
        cfg = MPEConfig(
            selective_scheduling=True,
            vertex_store="mmap",
            cache_capacity_bytes=1 << 20,
        )
        result, cluster = run_graphh(
            graph, SSSP(source=source), 4, config=cfg, max_supersteps=60
        )
        skips = [s.tiles_skipped for s in result.supersteps]
        total = skips[-1] + result.supersteps[-1].tiles_processed
        cluster.close()
        assert result.converged
        assert result.runtime()["vertex_store"] == "mmap"
        # The sparse late frontier prunes at least half the schedule.
        assert skips[-1] >= 0.5 * total
