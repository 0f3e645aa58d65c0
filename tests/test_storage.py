"""Tests for codecs, local disk, and the edge cache."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import (
    CODECS,
    EdgeCache,
    LocalDisk,
    get_codec,
    select_cache_mode,
)
from repro.storage.cache import cache_plan


class TestCodecs:
    @pytest.mark.parametrize("name", sorted(CODECS))
    def test_roundtrip_typical_tile_bytes(self, name):
        codec = get_codec(name)
        # int64 ids → long zero runs in the high bytes, like real tiles.
        data = np.arange(0, 5000, 3, dtype=np.int64).tobytes()
        assert codec.decompress(codec.compress(data)) == data

    @pytest.mark.parametrize("name", sorted(CODECS))
    def test_roundtrip_empty(self, name):
        codec = get_codec(name)
        assert codec.decompress(codec.compress(b"")) == b""

    @pytest.mark.parametrize("name", sorted(CODECS))
    def test_roundtrip_incompressible(self, name):
        rng = np.random.default_rng(0)
        data = rng.integers(0, 256, 4096, dtype=np.uint8).tobytes()
        codec = get_codec(name)
        out = codec.compress(data)
        assert codec.decompress(out) == data
        # Bounded expansion on incompressible input.
        assert len(out) <= len(data) + 64

    def test_tile_ratio_ordering(self):
        """On real tile bytes (the cache's workload), ratio(zlib3) >=
        ratio(zlib1) > ratio(snappylike) > 1 — Table V's ordering."""
        from repro.graph import chung_lu_graph
        from repro.partition import build_tiles

        g = chung_lu_graph(3000, 120_000, seed=99)
        blobs = [t.to_bytes() for t in build_tiles(g, 8000).tiles]
        sizes = {
            n: sum(len(get_codec(n).compress(b)) for b in blobs) for n in CODECS
        }
        # zlib-3 may tie zlib-1 within noise on small analogs.
        assert sizes["zlib3"] <= sizes["zlib1"] * 1.01
        assert sizes["zlib1"] < sizes["snappylike"] < sizes["raw"]
        # snappy-like lands near its Table V ~1.9x profile.
        assert 1.5 < sizes["raw"] / sizes["snappylike"] < 3.0

    def test_snappylike_speed_profile_is_modeled_not_measured(self):
        """The snappy/zlib speed asymmetry enters results through the
        cost model's Table V throughput constants, not through Python
        wall-clock (a numpy RLE cannot out-run C zlib — the repro band's
        'slow without native extensions' caveat).  Pin the contract:
        modeled snappy decompress must dwarf zlib's, and the cost model
        must consume exactly these constants."""
        from repro.cluster import ClusterSpec, Counters
        from repro.metrics import CostModel

        snappy, z3 = get_codec("snappylike"), get_codec("zlib3")
        assert snappy.model_decompress_mbps >= 10 * z3.model_decompress_mbps
        spec = ClusterSpec(num_servers=1, workers_per_server=1)
        nbytes = 100 * 1024 * 1024
        times = {}
        for name in ("snappylike", "zlib3"):
            c = Counters()
            c.add_decompressed(name, nbytes)
            times[name] = CostModel(spec).server_time(c).decompress_s
        assert times["snappylike"] < times["zlib3"] / 10

    def test_model_constants_match_table5_profile(self):
        snappy = get_codec("snappylike")
        z1, z3 = get_codec("zlib1"), get_codec("zlib3")
        assert snappy.model_decompress_mbps > 10 * z1.model_decompress_mbps
        assert z3.model_ratio > z1.model_ratio > snappy.model_ratio > 1.0

    def test_unknown_codec(self):
        with pytest.raises(KeyError):
            get_codec("lz4")

    def test_snappylike_rejects_garbage(self):
        codec = get_codec("snappylike")
        with pytest.raises(ValueError):
            codec.decompress(b"")
        with pytest.raises(ValueError):
            codec.decompress(b"X123")
        with pytest.raises(ValueError):
            codec.decompress(b"R\x05")

    @settings(max_examples=50)
    @given(st.binary(max_size=5000))
    def test_all_codecs_roundtrip_property(self, data):
        for name in CODECS:
            codec = get_codec(name)
            assert codec.decompress(codec.compress(data)) == data


class TestLocalDisk:
    def test_write_read_roundtrip(self, tmp_path):
        disk = LocalDisk(tmp_path / "d0")
        disk.write("tile-0", b"hello")
        assert disk.read("tile-0") == b"hello"
        assert disk.bytes_written == 5
        assert disk.bytes_read == 5
        assert disk.read_ops == 1 and disk.write_ops == 1

    def test_exists_and_size(self, tmp_path):
        disk = LocalDisk(tmp_path)
        assert not disk.exists("x")
        disk.write("x", b"abc")
        assert disk.exists("x")
        assert disk.size("x") == 3

    def test_delete_idempotent(self, tmp_path):
        disk = LocalDisk(tmp_path)
        disk.write("x", b"abc")
        disk.delete("x")
        disk.delete("x")
        assert not disk.exists("x")

    def test_list_and_used(self, tmp_path):
        disk = LocalDisk(tmp_path)
        disk.write("b", b"22")
        disk.write("a", b"1")
        assert disk.list_blobs() == ["a", "b"]
        assert disk.used_bytes() == 3

    def test_invalid_names(self, tmp_path):
        disk = LocalDisk(tmp_path)
        for bad in ("../x", "a/b", ".."):
            with pytest.raises(ValueError):
                disk.write(bad, b"")

    def test_reset_counters(self, tmp_path):
        disk = LocalDisk(tmp_path)
        disk.write("x", b"abc")
        disk.reset_counters()
        assert disk.bytes_written == 0
        assert disk.exists("x")


class TestModeSelection:
    def test_everything_fits_raw(self):
        assert select_cache_mode(100, 100) == 1

    def test_snappy_when_half_fits(self):
        assert select_cache_mode(100, 60) == 2

    def test_zlib1_when_quarter_fits(self):
        assert select_cache_mode(100, 30) == 3

    def test_zlib3_when_fifth_fits(self):
        assert select_cache_mode(100, 21) == 4

    def test_fallback_to_mode3(self):
        # Paper: "If no mode can satisfy this constraint, GraphH would
        # use mode-3."
        assert select_cache_mode(100, 5) == 3

    def test_zero_capacity(self):
        assert select_cache_mode(100, 0) == 3

    def test_zero_tiles(self):
        assert select_cache_mode(0, 0) == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            select_cache_mode(10, -1)

    @given(st.integers(0, 10**12), st.integers(0, 10**12))
    def test_mode_always_valid(self, total, capacity):
        assert 1 <= select_cache_mode(total, capacity) <= 4


class TestCachePlan:
    def test_none_capacity_means_everything_fits_raw(self):
        assert cache_plan(5000, None) == (5000, 1)
        # Degenerate empty server still gets a positive capacity.
        assert cache_plan(0, None) == (1, 1)

    def test_explicit_mode_is_passed_through(self):
        assert cache_plan(5000, 10, mode=4) == (10, 4)

    def test_matches_selection_rule(self):
        for total in (1000, 10_000, 100_000):
            for capacity in (100, 1000, 5000, 100_000):
                capacity_out, mode = cache_plan(total, capacity)
                assert capacity_out == capacity
                assert mode == select_cache_mode(total, capacity)


class TestEdgeCache:
    def test_miss_then_hit(self, tmp_path):
        disk = LocalDisk(tmp_path)
        disk.write("t0", b"x" * 100)
        cache = EdgeCache(capacity_bytes=1000, mode=1)
        assert cache.load("t0", disk) == b"x" * 100
        assert cache.stats.misses == 1
        assert cache.load("t0", disk) == b"x" * 100
        assert cache.stats.hits == 1
        assert disk.read_ops == 1  # second load served from memory

    def test_get_returns_none_on_miss(self):
        cache = EdgeCache(capacity_bytes=10, mode=1)
        assert cache.get("nope") is None

    def test_lru_eviction_order(self):
        cache = EdgeCache(capacity_bytes=250, mode=1, eviction="lru")
        cache.put("a", b"x" * 100)
        cache.put("b", b"y" * 100)
        cache.get("a")  # a becomes most-recent
        cache.put("c", b"z" * 100)  # evicts b
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats.evictions == 1

    def test_default_policy_admits_until_full(self):
        """§IV-B: a full cache rejects new tiles instead of evicting —
        the behaviour behind Figure 7b's stable partial hit ratios."""
        cache = EdgeCache(capacity_bytes=250, mode=1)
        assert cache.put("a", b"x" * 100)
        assert cache.put("b", b"y" * 100)
        assert not cache.put("c", b"z" * 100)  # no room, no eviction
        assert "a" in cache and "b" in cache and "c" not in cache
        assert cache.stats.evictions == 0
        assert cache.stats.rejected == 1

    def test_admit_policy_beats_lru_on_cyclic_scan(self):
        """Cyclic tile scans: LRU thrashes to ~0%, admit-until-full
        pins a stable subset."""
        def run(eviction):
            cache = EdgeCache(capacity_bytes=250, mode=1, eviction=eviction)
            for _ in range(5):  # 5 supersteps over 4 tiles of 100B
                for k in ("t0", "t1", "t2", "t3"):
                    if cache.get(k) is None:
                        cache.put(k, b"v" * 100)
            return cache.stats.hit_ratio

        assert run("none") > run("lru")
        assert run("lru") == 0.0

    def test_invalid_eviction(self):
        with pytest.raises(ValueError):
            EdgeCache(capacity_bytes=10, mode=1, eviction="fifo")

    def test_oversized_rejected(self):
        cache = EdgeCache(capacity_bytes=10, mode=1)
        rng = np.random.default_rng(3)
        blob = rng.integers(0, 256, 100, dtype=np.uint8).tobytes()
        assert not cache.put("big", blob)
        assert cache.stats.rejected == 1
        assert len(cache) == 0

    def test_compressed_mode_fits_more(self):
        # 3 tiles of very compressible data fit in a capacity sized for
        # one raw tile once zlib mode is on.
        data = b"\x00" * 1000
        raw = EdgeCache(capacity_bytes=1500, mode=1)
        zl = EdgeCache(capacity_bytes=1500, mode=3)
        for k in ("a", "b", "c"):
            raw.put(k, data)
            zl.put(k, data)
        assert len(raw) == 1
        assert len(zl) == 3

    def test_compressed_roundtrip_through_cache(self, tmp_path):
        disk = LocalDisk(tmp_path)
        payload = np.arange(500, dtype=np.int64).tobytes()
        disk.write("t", payload)
        for mode in range(1, 5):
            cache = EdgeCache(capacity_bytes=100_000, mode=mode)
            assert cache.load("t", disk) == payload
            assert cache.load("t", disk) == payload

    def test_put_replaces_existing(self):
        cache = EdgeCache(capacity_bytes=1000, mode=1)
        cache.put("k", b"a" * 100)
        cache.put("k", b"b" * 50)
        assert cache.get("k") == b"b" * 50
        assert cache.used_bytes == 50

    def test_hit_ratio(self):
        cache = EdgeCache(capacity_bytes=1000, mode=1)
        # An untouched cache has served no lookups: idle reads as 0.0,
        # not a perfect 1.0.
        assert cache.stats.hit_ratio == 0.0
        cache.put("k", b"v")
        cache.get("k")
        cache.get("missing")
        assert cache.stats.hit_ratio == 0.5

    def test_clear(self):
        cache = EdgeCache(capacity_bytes=100, mode=1)
        cache.put("k", b"v")
        cache.clear()
        assert len(cache) == 0
        assert cache.used_bytes == 0

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            EdgeCache(capacity_bytes=10, mode=0)
        with pytest.raises(ValueError):
            EdgeCache(capacity_bytes=10, mode=5)
        with pytest.raises(ValueError):
            EdgeCache(capacity_bytes=-1, mode=1)

    def test_used_never_exceeds_capacity(self):
        cache = EdgeCache(capacity_bytes=500, mode=1)
        rng = np.random.default_rng(7)
        for i in range(50):
            size = int(rng.integers(1, 200))
            cache.put(f"k{i}", rng.integers(0, 256, size, dtype=np.uint8).tobytes())
            assert cache.used_bytes <= cache.capacity_bytes
