"""Tests for the superstep runtime: executors + parallel determinism.

The parallel executor's whole contract is "bitwise identical to serial,
just faster on the host": same vertex values, same counters, same
modeled costs, same message modes.  These tests pin that contract for
all three reference apps, plus the executor primitives themselves.
"""

import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from repro.analysis.experiments import run_graphh
from repro.apps import PageRank, SSSP, WCC
from repro.core import MPEConfig
from repro.graph import chung_lu_graph
from repro.runtime import (
    ParallelExecutor,
    ProcessExecutor,
    SerialExecutor,
    default_num_threads,
    default_num_workers,
    make_executor,
    outstanding_segments,
    process_runtime_available,
)

needs_process = pytest.mark.skipif(
    not process_runtime_available(),
    reason="platform lacks fork + POSIX shared memory",
)


def _expected_executor(configured: str) -> str:
    """What RunResult.executor should report: the configured executor,
    unless the REPRO_EXECUTOR forcing flag (CI's knob) overrides it."""
    return os.environ.get("REPRO_EXECUTOR", "").strip() or configured


class TestExecutorPrimitives:
    def test_serial_preserves_order(self):
        ex = SerialExecutor()
        assert ex.map(lambda x: x * 2, [3, 1, 2]) == [6, 2, 4]

    def test_parallel_preserves_order(self):
        # Reverse-staggered sleeps: later items finish first unless the
        # executor re-orders results back to input order.
        def slow_identity(x):
            time.sleep(0.002 * (5 - x))
            return x

        with ParallelExecutor(num_threads=4) as ex:
            assert ex.map(slow_identity, list(range(5))) == [0, 1, 2, 3, 4]

    def test_parallel_actually_uses_threads(self):
        seen = set()

        def record(_):
            seen.add(threading.get_ident())
            time.sleep(0.01)

        with ParallelExecutor(num_threads=4) as ex:
            ex.map(record, range(4))
        assert len(seen) > 1

    def test_exceptions_propagate(self):
        def boom(x):
            if x == 2:
                raise RuntimeError("tile exploded")
            return x

        with pytest.raises(RuntimeError, match="tile exploded"):
            SerialExecutor().map(boom, [1, 2, 3])
        with ParallelExecutor(num_threads=2) as ex:
            with pytest.raises(RuntimeError, match="tile exploded"):
                ex.map(boom, [1, 2, 3])

    def test_single_item_shortcut(self):
        with ParallelExecutor(num_threads=2) as ex:
            assert ex.map(lambda x: x + 1, [41]) == [42]
            assert ex.map(lambda x: x, []) == []

    def test_close_is_idempotent_and_final(self):
        ex = ParallelExecutor(num_threads=2)
        ex.close()
        ex.close()
        with pytest.raises(RuntimeError):
            ex.map(lambda x: x, [1, 2])

    def test_make_executor(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        par = make_executor("parallel", 3)
        assert isinstance(par, ParallelExecutor) and par.num_threads == 3
        par.close()
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor("gpu")
        with pytest.raises(ValueError, match="only applies"):
            make_executor("serial", 8)
        with pytest.raises(ValueError):
            ParallelExecutor(num_threads=0)

    def test_default_num_threads(self):
        assert default_num_threads() >= 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MPEConfig(executor="fiber")
        with pytest.raises(ValueError):
            MPEConfig(num_threads=0)
        with pytest.raises(ValueError):
            MPEConfig(decoded_cache_entries=0)


@pytest.fixture(scope="module")
def skewed():
    return chung_lu_graph(250, 2500, seed=91, name="runtime-g")


def _run(graph, program, cfg, **kw):
    result, cluster = run_graphh(graph, program, 3, config=cfg, **kw)
    telemetry = {
        "counters": [s.counters.snapshot() for s in cluster.servers],
        "modeled": [s.modeled for s in result.supersteps],
        "modes": [s.message_modes for s in result.supersteps],
        "net": [s.net_bytes for s in result.supersteps],
        "disk": [s.disk_read_bytes for s in result.supersteps],
        "skipped": [s.tiles_skipped for s in result.supersteps],
    }
    cluster.close()
    return result, telemetry


def _assert_identical(a, b):
    ra, ta = a
    rb, tb = b
    assert np.array_equal(ra.values, rb.values)
    assert len(ra.supersteps) == len(rb.supersteps)
    for key in ("modeled", "modes", "net", "disk", "skipped"):
        assert ta[key] == tb[key], key
    assert ta["counters"] == tb["counters"]


class TestParallelBitwiseIdentity:
    """Parallel vs serial: values AND all telemetry must match exactly."""

    @pytest.mark.parametrize(
        "make_program",
        [
            lambda: PageRank(),
            lambda: SSSP(source=1),
        ],
        ids=["pagerank", "sssp"],
    )
    def test_directed_apps(self, skewed, make_program):
        serial = _run(
            skewed, make_program(), MPEConfig(executor="serial"), max_supersteps=12
        )
        parallel = _run(
            skewed,
            make_program(),
            MPEConfig(executor="parallel", num_threads=4),
            max_supersteps=12,
        )
        _assert_identical(serial, parallel)

    def test_wcc(self, skewed):
        und = skewed.to_undirected_edges()
        serial = _run(und, WCC(), MPEConfig(executor="serial"), max_supersteps=12)
        parallel = _run(
            und, WCC(), MPEConfig(executor="parallel"), max_supersteps=12
        )
        _assert_identical(serial, parallel)

    def test_parallel_with_balanced_assignment_and_od(self, skewed):
        cfg_s = MPEConfig(
            executor="serial", tile_assignment="balanced", replication_policy="od"
        )
        cfg_p = MPEConfig(
            executor="parallel", tile_assignment="balanced", replication_policy="od"
        )
        _assert_identical(
            _run(skewed, PageRank(), cfg_s, max_supersteps=10),
            _run(skewed, PageRank(), cfg_p, max_supersteps=10),
        )


class TestDecodedCacheMeteringInvariance:
    """The decoded-tile cache is a host-speed artifact: switching it off
    must not move a single metered byte."""

    @pytest.mark.parametrize("cache_mode", [None, 3, 1])
    def test_decoded_cache_does_not_perturb_metering(self, skewed, cache_mode):
        on = _run(
            skewed,
            PageRank(),
            MPEConfig(decoded_cache=True, cache_mode=cache_mode),
            max_supersteps=10,
        )
        off = _run(
            skewed,
            PageRank(),
            MPEConfig(decoded_cache=False, cache_mode=cache_mode),
            max_supersteps=10,
        )
        _assert_identical(on, off)

    def test_decoded_cache_with_tiny_edge_cache(self, skewed):
        """Thrashing edge cache: decoded hits must still do the real
        blob load for its disk-side metering."""
        base = dict(cache_capacity_bytes=4096, cache_mode=1)
        on = _run(
            skewed,
            PageRank(),
            MPEConfig(decoded_cache=True, **base),
            max_supersteps=8,
        )
        off = _run(
            skewed,
            PageRank(),
            MPEConfig(decoded_cache=False, **base),
            max_supersteps=8,
        )
        _assert_identical(on, off)

    def test_decoded_cache_capped_entries(self, skewed):
        capped = _run(
            skewed,
            PageRank(),
            MPEConfig(decoded_cache=True, decoded_cache_entries=2),
            max_supersteps=8,
        )
        off = _run(
            skewed, PageRank(), MPEConfig(decoded_cache=False), max_supersteps=8
        )
        _assert_identical(capped, off)


class TestResumeUnderParallel:
    """Checkpoint resume composes with the parallel executor: a run cut
    short and resumed in parallel must land on the same bitwise values
    as an uninterrupted serial run, with counters identical to the same
    interrupted run resumed serially."""

    def _interrupted_then_resumed(self, graph, executor):
        from repro.apps import PageRank
        from repro.cluster import Cluster, ClusterSpec
        from repro.core import MPE, SPE

        cluster = Cluster(ClusterSpec(num_servers=3))
        spe = SPE(cluster.dfs)
        manifest = spe.preprocess(
            graph, max(1, graph.num_edges // 9), name=graph.name
        )
        # Phase 1 (always serial, so both variants share an identical
        # pre-interruption history): 5 supersteps with k=2 snapshots.
        MPE(
            cluster, manifest, MPEConfig(checkpoint_every=2, max_supersteps=5)
        ).run(PageRank())
        # Phase 2: resume to convergence under the executor under test.
        result = MPE(
            cluster,
            manifest,
            MPEConfig(executor=executor, checkpoint_every=2, max_supersteps=80),
        ).run(PageRank(), resume=True)
        counters = [s.counters.snapshot() for s in cluster.servers]
        cluster.close()
        return result, counters

    def test_parallel_resume_bitwise_vs_serial_fresh(self, skewed):
        from repro.apps import PageRank
        from repro.cluster import Cluster, ClusterSpec
        from repro.core import MPE, SPE

        # Uninterrupted serial reference.
        cluster = Cluster(ClusterSpec(num_servers=3))
        manifest = SPE(cluster.dfs).preprocess(
            skewed, max(1, skewed.num_edges // 9), name=skewed.name
        )
        fresh = MPE(cluster, manifest, MPEConfig(max_supersteps=80)).run(
            PageRank()
        )
        fresh_values = fresh.values.copy()
        cluster.close()
        assert fresh.converged

        serial_res, serial_counters = self._interrupted_then_resumed(
            skewed, "serial"
        )
        parallel_res, parallel_counters = self._interrupted_then_resumed(
            skewed, "parallel"
        )
        # Values: both resumed variants land exactly on the fresh run.
        assert np.array_equal(serial_res.values, fresh_values)
        assert np.array_equal(parallel_res.values, fresh_values)
        # The resumed tail starts after the newest snapshot (superstep 3),
        # and the resume read is metered as recovery traffic.
        for res, counters in (
            (serial_res, serial_counters),
            (parallel_res, parallel_counters),
        ):
            assert res.supersteps[0].superstep == 4
            assert sum(c["recovery_read"] for c in counters) > 0
        # Counters: parallel resume meters exactly like serial resume.
        assert serial_counters == parallel_counters


class TestRuntimeTelemetry:
    """RunResult exposes the PR-1 host-runtime knobs (executor mode,
    sort fallbacks, decoded-cache hits/misses) in trace output."""

    def test_runtime_block_and_save_trace(self, skewed, tmp_path):
        import json

        result, _ = _run(
            skewed,
            PageRank(),
            MPEConfig(executor="parallel", num_threads=2),
            max_supersteps=8,
        )
        rt = result.runtime()
        assert rt["executor"] == _expected_executor("parallel")
        assert rt["sort_fallbacks"] == 0
        # First superstep decodes every blob (misses); later supersteps
        # hit the decoded cache.
        assert rt["decoded_cache_misses"] > 0
        assert rt["decoded_cache_hits"] > 0

        out = tmp_path / "trace.json"
        result.save_trace(str(out))
        doc = json.loads(out.read_text())
        assert doc["runtime"] == rt
        assert doc["supersteps"][0]["superstep"] == 0
        assert "fault" in doc["supersteps"][0]["modeled_s"]

    def test_decoded_cache_off_counts_nothing(self, skewed):
        result, _ = _run(
            skewed,
            PageRank(),
            MPEConfig(decoded_cache=False),
            max_supersteps=6,
        )
        assert result.runtime()["decoded_cache_hits"] == 0
        assert result.runtime()["decoded_cache_misses"] == 0
        assert result.runtime()["executor"] == _expected_executor("serial")


def _phase_handler(tag, server_id, payload):
    """Trivial phase handler for the primitive tests (fork-inherited)."""
    if payload == "boom":
        raise RuntimeError("tile exploded")
    return (tag, server_id, payload * 2)


@needs_process
class TestProcessExecutorPrimitives:
    def test_run_phase_routes_and_orders(self):
        ex = ProcessExecutor(num_workers=2)
        assert not ex.started
        ex.start(_phase_handler, 5)
        assert ex.started
        try:
            out = ex.run_phase("compute", [1, 2, 3, 4, 5])
            assert out == [
                ("compute", 0, 2),
                ("compute", 1, 4),
                ("compute", 2, 6),
                ("compute", 3, 8),
                ("compute", 4, 10),
            ]
            # The pool is persistent: a second phase reuses the workers.
            assert ex.run_phase("apply", [0, 0, 0, 0, 0]) == [
                ("apply", i, 0) for i in range(5)
            ]
        finally:
            ex.close()

    def test_worker_exception_propagates_and_pool_survives(self):
        ex = ProcessExecutor(num_workers=2)
        ex.start(_phase_handler, 3)
        try:
            with pytest.raises(RuntimeError, match="tile exploded"):
                ex.run_phase("compute", [1, "boom", 3])
            # The failing worker kept serving; the pool is still usable.
            assert ex.run_phase("compute", [1, 1, 1]) == [
                ("compute", 0, 2),
                ("compute", 1, 2),
                ("compute", 2, 2),
            ]
        finally:
            ex.close()

    def test_close_is_idempotent_and_reaps_children(self):
        ex = ProcessExecutor(num_workers=2)
        ex.start(_phase_handler, 2)
        ex.close()
        ex.close()
        assert not ex.started
        assert not any(
            p.name.startswith("repro-superstep")
            for p in multiprocessing.active_children()
        )
        with pytest.raises(RuntimeError, match="not started"):
            ex.run_phase("compute", [])

    def test_map_unsupported_and_validation(self):
        ex = ProcessExecutor(num_workers=1)
        with pytest.raises(RuntimeError, match="run_phase"):
            ex.map(lambda x: x, [1])
        with pytest.raises(ValueError):
            ProcessExecutor(num_workers=0)
        assert default_num_workers() >= 1
        made = make_executor("process", 3)
        assert isinstance(made, ProcessExecutor) and made.num_workers == 3

    def test_payload_count_must_match(self):
        ex = ProcessExecutor(num_workers=1)
        ex.start(_phase_handler, 2)
        try:
            with pytest.raises(ValueError, match="payload count"):
                ex.run_phase("compute", [1])
        finally:
            ex.close()


@needs_process
class TestProcessBitwiseIdentity:
    """Satellite 3: the process executor must be bitwise identical to
    serial — values, per-superstep update counts (the prev_updated sets
    driving bloom skips), and every counter — across both replication
    policies and all three comm modes."""

    @pytest.mark.parametrize("policy", ["aa", "od"])
    @pytest.mark.parametrize("comm", ["dense", "sparse", "hybrid"])
    def test_sweep(self, skewed, policy, comm):
        def cfg(executor):
            return MPEConfig(
                executor=executor,
                num_workers=2,
                replication_policy=policy,
                comm_mode=comm,
                use_bloom_filters=True,
            )

        serial = _run(skewed, PageRank(), cfg("serial"), max_supersteps=10)
        process = _run(skewed, PageRank(), cfg("process"), max_supersteps=10)
        _assert_identical(serial, process)
        # prev_updated is pinned by the per-superstep update counts plus
        # the bloom-skip counts already compared in _assert_identical.
        assert [s.updated_vertices for s in serial[0].supersteps] == [
            s.updated_vertices for s in process[0].supersteps
        ]
        assert process[0].executor == _expected_executor("process")

    def test_wcc_and_sssp_under_process(self, skewed):
        und = skewed.to_undirected_edges()
        _assert_identical(
            _run(und, WCC(), MPEConfig(executor="serial"), max_supersteps=10),
            _run(
                und,
                WCC(),
                MPEConfig(executor="process", num_workers=2),
                max_supersteps=10,
            ),
        )
        _assert_identical(
            _run(
                skewed, SSSP(source=1), MPEConfig(executor="serial"),
                max_supersteps=12,
            ),
            _run(
                skewed,
                SSSP(source=1),
                MPEConfig(executor="process", num_workers=2),
                max_supersteps=12,
            ),
        )

    def test_no_shared_memory_leaks(self, skewed):
        _run(
            skewed,
            PageRank(),
            MPEConfig(executor="process", num_workers=2),
            max_supersteps=6,
        )
        assert outstanding_segments() == []
        assert not any(
            p.name.startswith("repro-superstep")
            for p in multiprocessing.active_children()
        )


class TestExecutorResolution:
    """REPRO_EXECUTOR forcing and the no-fork fallback path."""

    def test_env_override_wins(self, skewed, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "serial")
        result, _ = _run(
            skewed,
            PageRank(),
            MPEConfig(executor="parallel", num_threads=2),
            max_supersteps=4,
        )
        assert result.executor == "serial"

    def test_env_override_rejects_unknown(self, skewed, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "quantum")
        with pytest.raises(ValueError, match="unknown executor"):
            _run(skewed, PageRank(), MPEConfig(), max_supersteps=2)

    def test_process_falls_back_without_fork(self, skewed, monkeypatch):
        import repro.core.mpe as mpe_mod

        monkeypatch.setattr(
            mpe_mod, "process_runtime_available", lambda: False
        )
        with pytest.warns(RuntimeWarning, match="falling back"):
            result, _ = _run(
                skewed,
                PageRank(),
                MPEConfig(executor="process"),
                max_supersteps=4,
            )
        assert result.executor == "parallel"

    def test_num_workers_validation(self):
        with pytest.raises(ValueError):
            MPEConfig(num_workers=0)
        assert MPEConfig(num_workers=None).num_workers is None


class TestPrefetchBitwiseIdentity:
    """Tentpole acceptance: with the tile prefetch pipeline on at any
    depth, values, Counters, CacheStats, and modeled costs are bitwise
    identical to the sequential sweep — across executors, comm modes,
    and cache configurations."""

    @pytest.mark.parametrize("depth", [1, 4])
    @pytest.mark.parametrize("comm", ["dense", "sparse", "hybrid"])
    def test_depth_sweep_serial(self, skewed, depth, comm):
        def cfg(d):
            return MPEConfig(
                comm_mode=comm, prefetch_depth=d, use_bloom_filters=True
            )

        _assert_identical(
            _run(skewed, PageRank(), cfg(0), max_supersteps=10),
            _run(skewed, PageRank(), cfg(depth), max_supersteps=10),
        )

    @pytest.mark.parametrize("depth", [1, 4])
    def test_depth_sweep_parallel(self, skewed, depth):
        _assert_identical(
            _run(skewed, PageRank(), MPEConfig(), max_supersteps=10),
            _run(
                skewed,
                PageRank(),
                MPEConfig(
                    executor="parallel",
                    num_threads=2,
                    prefetch_depth=depth,
                    io_threads=2,
                ),
                max_supersteps=10,
            ),
        )

    @needs_process
    @pytest.mark.parametrize("depth", [1, 4])
    def test_depth_sweep_process(self, skewed, depth):
        _assert_identical(
            _run(skewed, PageRank(), MPEConfig(), max_supersteps=10),
            _run(
                skewed,
                PageRank(),
                MPEConfig(
                    executor="process",
                    num_workers=2,
                    prefetch_depth=depth,
                    io_threads=2,
                ),
                max_supersteps=10,
            ),
        )

    def test_thrashing_cache_with_io_threads(self, skewed):
        """A thrashing edge cache maximises speculation failures (the
        entry observed at enqueue is evicted by dequeue): every hint
        must degrade to the inline path, never to different metering."""
        base = dict(cache_capacity_bytes=4096, cache_mode=1)
        _assert_identical(
            _run(skewed, PageRank(), MPEConfig(**base), max_supersteps=8),
            _run(
                skewed,
                PageRank(),
                MPEConfig(prefetch_depth=3, io_threads=2, **base),
                max_supersteps=8,
            ),
        )

    def test_no_cache_and_wcc(self, skewed):
        und = skewed.to_undirected_edges()
        _assert_identical(
            _run(und, WCC(), MPEConfig(cache_mode=None), max_supersteps=10),
            _run(
                und,
                WCC(),
                MPEConfig(cache_mode=None, prefetch_depth=2),
                max_supersteps=10,
            ),
        )

    def test_result_reports_depth_and_occupancy(self, skewed):
        result, _ = _run(
            skewed, PageRank(), MPEConfig(prefetch_depth=2), max_supersteps=6
        )
        assert result.prefetch_depth == 2
        assert result.runtime()["prefetch_depth"] == 2
        # Overlap estimate exists and can never exceed the serial sum.
        for s in result.supersteps:
            assert s.modeled.overlap_s is not None
            assert s.modeled.overlap_s <= s.modeled.total_s + 1e-12


class TestPrefetchConfig:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            MPEConfig(prefetch_depth=-1)
        with pytest.raises(ValueError):
            MPEConfig(io_threads=0)
        assert MPEConfig(prefetch_depth=0).io_threads == 1

    def test_env_override_wins(self, skewed, monkeypatch):
        baseline = _run(skewed, PageRank(), MPEConfig(), max_supersteps=6)
        monkeypatch.setenv("REPRO_PREFETCH", "2")
        result, telemetry = _run(
            skewed, PageRank(), MPEConfig(prefetch_depth=0), max_supersteps=6
        )
        assert result.prefetch_depth == 2
        _assert_identical(baseline, (result, telemetry))

    def test_env_override_rejects_junk(self, skewed, monkeypatch):
        monkeypatch.setenv("REPRO_PREFETCH", "lots")
        with pytest.raises(ValueError, match="REPRO_PREFETCH"):
            _run(skewed, PageRank(), MPEConfig(), max_supersteps=2)
        monkeypatch.setenv("REPRO_PREFETCH", "-3")
        with pytest.raises(ValueError, match="REPRO_PREFETCH"):
            _run(skewed, PageRank(), MPEConfig(), max_supersteps=2)


class TestTilePrefetcherPrimitives:
    def test_validation(self):
        from repro.runtime import TilePrefetcher

        class _Stub:
            server_id = 0

        with pytest.raises(ValueError, match="depth"):
            TilePrefetcher(_Stub(), [], lambda b: b, depth=0)
        with pytest.raises(ValueError, match="io_threads"):
            TilePrefetcher(_Stub(), [], lambda b: b, depth=1, io_threads=0)

    def test_yields_schedule_order_with_hints(self, tmp_path):
        from repro.cluster import Cluster, ClusterSpec
        from repro.runtime import TilePrefetcher

        with Cluster(ClusterSpec(num_servers=1)) as cluster:
            server = cluster.servers[0]
            names = [f"t{i}" for i in range(6)]
            for name in names:
                server.disk.write(name, name.encode() * 10)
            pre = TilePrefetcher(
                server, names, lambda b: b.decode(), depth=2, io_threads=2
            )
            try:
                out = list(pre)
            finally:
                pre.close()
            assert [item for item, _, _ in out] == names
            # Every hint carries the parse product of the right bytes.
            for name, hint, _ready in out:
                assert hint is not None
                assert hint.decoded == name * 10
            assert pre.dequeues == len(names)
            assert 0 <= pre.served_ready <= pre.dequeues

    def test_failed_speculation_degrades_to_no_hint(self):
        from repro.cluster import Cluster, ClusterSpec
        from repro.runtime import TilePrefetcher

        def explosive_parser(_data):
            raise RuntimeError("decode exploded")

        with Cluster(ClusterSpec(num_servers=1)) as cluster:
            server = cluster.servers[0]
            server.disk.write("t0", b"x" * 10)
            pre = TilePrefetcher(
                server, ["t0", "missing"], explosive_parser, depth=2
            )
            try:
                hints = [hint for _item, hint, _ready in pre]
            finally:
                pre.close()
            # Parser blew up on t0 -> swallowed; "missing" peeked None ->
            # an empty (but present) speculation.
            assert hints[0] is None
            assert hints[1] is not None and hints[1].raw is None


class TestSortSkip:
    """MPE.run must never need the argsort fallback: per-tile changed-id
    parts arrive in ascending disjoint target ranges in both assignment
    modes (the redundant-argsort satellite)."""

    @pytest.mark.parametrize("assignment", ["round_robin", "balanced"])
    def test_no_sort_fallbacks(self, skewed, assignment):
        from repro.cluster import Cluster, ClusterSpec
        from repro.core import MPE, SPE

        cluster = Cluster(ClusterSpec(num_servers=3))
        spe = SPE(cluster.dfs)
        manifest = spe.preprocess(
            skewed, max(1, skewed.num_edges // 9), name=skewed.name
        )
        mpe = MPE(
            cluster,
            manifest,
            MPEConfig(tile_assignment=assignment, max_supersteps=10),
        )
        result = mpe.run(PageRank())
        assert mpe.sort_fallbacks == 0
        assert len(result.supersteps) > 1
        cluster.close()


class TestCommFastpath:
    """Decode-once broadcast fan-out (comm_fastpath).

    The knob must be bitwise invisible: on/off runs agree on values AND
    every counter/modeled metric, across executors, comm modes, codecs,
    env forcing, and fault schedules — while the decode-call telemetry
    shows the O(N·(N−1)) → O(N) drop in actual decode work.
    """

    @pytest.mark.parametrize(
        "executor",
        ["serial", "parallel", pytest.param("process", marks=needs_process)],
    )
    @pytest.mark.parametrize(
        "comm,codec",
        [("dense", "raw"), ("sparse", "zlib1"), ("hybrid", "snappylike")],
        ids=["dense-raw", "sparse-zlib1", "hybrid-snappylike"],
    )
    def test_on_off_identity_sweep(self, skewed, executor, comm, codec):
        def cfg(fastpath):
            return MPEConfig(
                executor=executor,
                comm_mode=comm,
                message_codec=codec,
                comm_fastpath=fastpath,
            )

        off = _run(skewed, PageRank(), cfg(False), max_supersteps=8)
        on = _run(skewed, PageRank(), cfg(True), max_supersteps=8)
        _assert_identical(off, on)
        assert on[0].comm_fastpath is True
        assert off[0].comm_fastpath is False
        # Off is a true cold path: the decode-once machinery never runs.
        assert off[0].payload_decode_hits == 0

    def test_decode_counts_exact(self, skewed):
        """Serial executor, N=3 servers: the fast path decodes each of
        the S·N broadcast payloads exactly once; the cold path decodes
        each at all N−1 receivers."""
        n = 3
        on, _ = _run(
            skewed,
            PageRank(),
            MPEConfig(executor="serial", comm_fastpath=True),
            max_supersteps=8,
        )
        off, _ = _run(
            skewed,
            PageRank(),
            MPEConfig(executor="serial", comm_fastpath=False),
            max_supersteps=8,
        )
        steps = on.num_supersteps
        assert steps == off.num_supersteps
        assert on.payload_decode_misses == steps * n
        assert on.payload_decode_hits == steps * n * (n - 2)
        assert off.payload_decode_misses == steps * n * (n - 1)
        assert off.payload_decode_hits == 0
        # Same total decode *attempts* either way — only where the work
        # lands differs.
        assert (
            on.payload_decode_hits + on.payload_decode_misses
            == off.payload_decode_misses
        )
        assert on.scatter_fallbacks == 0 == off.scatter_fallbacks
        runtime = on.runtime()
        assert runtime["comm_fastpath"] is True
        assert runtime["payload_decode_misses"] == steps * n
        assert runtime["payload_decode_hits"] == on.payload_decode_hits
        assert runtime["scatter_fallbacks"] == 0

    def test_decode_telemetry_identical_across_executors(self, skewed):
        """Hit/miss counts and the ``payload_decode`` spans are a function
        of the run, not of the executor: the lowest-id receiver of each
        payload records its miss under serial, thread and process alike,
        however the threads or workers arrive."""
        from repro.obs.trace import Tracer

        executors = ["serial", "parallel"]
        if process_runtime_available():
            executors.append("process")
        n = 3
        counts, decode_events, apply_trees = {}, {}, {}
        for executor in executors:
            tracer = Tracer()
            result, _ = _run(
                skewed,
                PageRank(),
                MPEConfig(executor=executor),
                max_supersteps=8,
                tracer=tracer,
            )
            counts[executor] = (
                result.num_supersteps,
                result.payload_decode_hits,
                result.payload_decode_misses,
            )
            decode_events[executor] = [
                (buf.label, kind, args)
                for buf in tracer.buffers()
                for kind, name, _cat, _ts, args in buf.events()
                if name == "payload_decode"
            ]
            apply_trees[executor] = {
                label: [n.as_tuple() for n in nodes if n.name == "apply"]
                for label, nodes in tracer.span_trees().items()
            }
        steps = counts["serial"][0]
        assert counts["serial"] == (steps, steps * n * (n - 2), steps * n)
        misses = [e for e in decode_events["serial"] if e[1] == "B"]
        assert len(misses) == steps * n
        for executor in executors[1:]:
            assert counts[executor] == counts["serial"], executor
            assert decode_events[executor] == decode_events["serial"], executor
            assert apply_trees[executor] == apply_trees["serial"], executor

    def test_decode_attribution_under_thread_contention(self, skewed):
        """More threads than cores and a tiny switch interval: however the
        apply threads interleave, each payload's miss stays with its
        lowest-id receiver, in the counts and in every server's trace."""
        import sys

        from repro.obs.trace import Tracer

        def decode_telemetry(executor):
            tracer = Tracer()
            result, cluster = run_graphh(
                skewed,
                PageRank(),
                6,
                config=MPEConfig(executor=executor, num_threads=8),
                max_supersteps=6,
                tracer=tracer,
            )
            cluster.close()
            events = [
                (buf.label, kind, args)
                for buf in tracer.buffers()
                for kind, name, _cat, _ts, args in buf.events()
                if name == "payload_decode"
            ]
            hits, misses = result.payload_decode_hits, result.payload_decode_misses
            return hits, misses, events

        serial = decode_telemetry("serial")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert decode_telemetry("parallel") == serial
        finally:
            sys.setswitchinterval(interval)

    def test_env_override_wins(self, skewed, monkeypatch):
        baseline = _run(
            skewed,
            PageRank(),
            MPEConfig(comm_fastpath=False),
            max_supersteps=6,
        )
        monkeypatch.setenv("REPRO_COMM_FASTPATH", "0")
        result, telemetry = _run(
            skewed,
            PageRank(),
            MPEConfig(comm_fastpath=True),
            max_supersteps=6,
        )
        assert result.comm_fastpath is False
        assert result.payload_decode_hits == 0
        _assert_identical(baseline, (result, telemetry))

    def test_env_override_rejects_junk(self, skewed, monkeypatch):
        monkeypatch.setenv("REPRO_COMM_FASTPATH", "sometimes")
        with pytest.raises(ValueError, match="REPRO_COMM_FASTPATH"):
            _run(skewed, PageRank(), MPEConfig(), max_supersteps=2)

    @staticmethod
    def _supervised(graph, schedule, fastpath):
        from repro.cluster import Cluster, ClusterSpec
        from repro.core import MPE, SPE
        from repro.faults import Supervisor

        cluster = Cluster(ClusterSpec(num_servers=3))
        spe = SPE(cluster.dfs)
        manifest = spe.preprocess(
            graph, max(1, graph.num_edges // 9), name=graph.name
        )
        mpe = MPE(
            cluster,
            manifest,
            MPEConfig(
                checkpoint_every=2,
                max_supersteps=20,
                comm_fastpath=fastpath,
            ),
        )
        sup = Supervisor(mpe, schedule=schedule)
        result, report = sup.run(PageRank())
        values = result.values.copy()
        cluster.close()
        return values, report

    def test_lost_broadcast_not_masked_by_cache(self, skewed):
        """A dropped broadcast envelope must still be *lost* under the
        fast path — the decode cache shares decoded payloads, never
        delivery — so the supervisor detects the divergence, restarts,
        and the retry is byte-identical to the clean run."""
        from repro.faults import MSG_DROP, FaultEvent, FaultSchedule

        clean, _ = _run(
            skewed,
            PageRank(),
            MPEConfig(executor="serial", comm_fastpath=False),
            max_supersteps=20,
        )
        schedule = FaultSchedule(
            [FaultEvent(MSG_DROP, superstep=2, server=0)]
        )
        for fastpath in (False, True):
            values, report = self._supervised(skewed, schedule, fastpath)
            assert report.restarts == 1, f"fastpath={fastpath}"
            assert np.array_equal(values, clean.values), f"fastpath={fastpath}"
