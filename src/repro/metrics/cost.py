"""Calibrated volumes → time model.

Why a model: the paper's numbers come from a C++/MPI/OpenMP system on a
9-node 10 GbE cluster; a pure-Python single-host reproduction cannot
match absolute wall-clock (repro band 3/5).  What *is* faithful here is
every byte the engines move — tiles read from disk, payloads crossing
the network, blobs decompressed — and every edge they process, because
the simulation executes the real data movement.  The cost model turns
those metered volumes into seconds with the testbed constants, which is
precisely the first-principles analysis the paper itself performs in
Table III.

Per-superstep time for one server, BSP semantics::

    t_server = disk_read/disk_bw + disk_write/disk_bw_w
             + Σ_codec decompress_bytes/(codec_mbps · T)
             + edges/(edge_rate · T)
    t_step   = max_server(t_server) + max_server(net)/net_bw + sync

Compute and (de)compression parallelise over the ``T`` workers of a
server (OpenMP in the paper); disk and NIC are shared per server.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.counters import Counters
from repro.cluster.spec import ClusterSpec
from repro.storage.codecs import get_codec


@dataclass(frozen=True)
class SuperstepCost:
    """Decomposed modeled time for one superstep (seconds)."""

    disk_s: float
    network_s: float
    decompress_s: float
    compute_s: float
    sync_s: float
    # Injected-fault delay (straggler slowdown, retry backoff, restart
    # waits) charged via ``Counters.fault_delay_s``; 0 in clean runs.
    fault_s: float = 0.0
    # Schedule-probe time for tiles *skipped* by selective scheduling /
    # bloom pruning: each skipped tile contributes zero disk/decompress
    # but one in-memory summary check (``ClusterSpec.tile_probe_s``).
    probe_s: float = 0.0
    # Delta-overlay time (repro.delta): decoding overlay blobs next to
    # their base tiles (seek-bound reads) plus applying the pending edge
    # edits while composing.  0 on frozen graphs.
    delta_s: float = 0.0

    @property
    def total_s(self) -> float:
        """End-to-end modeled superstep time."""
        return (
            self.disk_s
            + self.network_s
            + self.decompress_s
            + self.compute_s
            + self.sync_s
            + self.fault_s
            + self.probe_s
            + self.delta_s
        )

    def scaled_total(self, volume_factor: float) -> float:
        """Total with volume-derived components scaled by ``factor``.

        Used to report paper-scale estimates from scaled-analog runs:
        disk/network/decompress/compute volumes are linear in |V| and
        |E| (and skipped-tile probes in the tile count), while the
        synchronisation overhead is a per-superstep constant and must
        not scale.
        """
        return (
            (
                self.disk_s
                + self.network_s
                + self.decompress_s
                + self.compute_s
                + self.probe_s
                + self.delta_s
            )
            * volume_factor
            + self.sync_s
            + self.fault_s
        )


class CostModel:
    """Volumes → seconds under a :class:`ClusterSpec`.

    ``scale_factor`` linearly scales all volumes before conversion; the
    benchmark harness uses it to report paper-scale estimates from
    scaled-analog runs (volumes are linear in ``|E|`` and ``|V|`` for
    every engine, per Table III).
    """

    def __init__(self, spec: ClusterSpec, scale_factor: float = 1.0) -> None:
        if scale_factor <= 0:
            raise ValueError("scale_factor must be positive")
        self.spec = spec
        self.scale_factor = float(scale_factor)

    def server_time(self, counters: Counters) -> SuperstepCost:
        """Modeled local time for one server's superstep volumes."""
        k = self.scale_factor
        spec = self.spec
        workers = spec.workers_per_server
        disk_s = (
            counters.disk_read * k / spec.disk_read_bps
            + counters.disk_read_random * k / spec.disk_random_read_bps
            + counters.disk_write * k / spec.disk_write_bps
        )
        decompress_s = 0.0
        for codec_name, nbytes in counters.decompressed.items():
            mbps = get_codec(codec_name).model_decompress_mbps
            if mbps != float("inf"):
                decompress_s += nbytes * k / (mbps * 1024 * 1024) / workers
        for codec_name, nbytes in counters.compressed.items():
            mbps = get_codec(codec_name).model_compress_mbps
            if mbps != float("inf"):
                decompress_s += nbytes * k / (mbps * 1024 * 1024) / workers
        compute_s = (
            counters.edges_processed
            * k
            / (spec.compute_edges_per_sec_per_worker * workers)
        ) + (
            counters.messages_processed
            * k
            / (spec.messages_per_sec_per_worker * workers)
        )
        net_s = (
            max(counters.net_sent, counters.net_recv) * k / spec.network_bps
        )
        probe_s = counters.tiles_skipped * k * spec.tile_probe_s
        # Overlays are small seek-bound reads beside the streamed base
        # tile, so their bytes price at random-read bandwidth; the edit
        # application is per-edge array surgery.
        delta_s = (
            counters.delta_bytes * k / spec.disk_random_read_bps
            + counters.delta_edges * k * spec.delta_edge_apply_s
        )
        return SuperstepCost(
            disk_s=disk_s,
            network_s=net_s,
            decompress_s=decompress_s,
            compute_s=compute_s,
            sync_s=0.0,
            fault_s=counters.fault_delay_s,
            probe_s=probe_s,
            delta_s=delta_s,
        )

    def superstep_time(self, per_server: list[Counters]) -> SuperstepCost:
        """BSP superstep time: the slowest server gates the barrier."""
        if not per_server:
            raise ValueError("need at least one server's counters")
        costs = [self.server_time(c) for c in per_server]
        # The straggler server gates the barrier; report its breakdown.
        slowest = max(
            costs,
            key=lambda c: (
                c.disk_s
                + c.decompress_s
                + c.compute_s
                + c.fault_s
                + c.probe_s
                + c.delta_s
            ),
        )
        return SuperstepCost(
            disk_s=slowest.disk_s,
            network_s=max(c.network_s for c in costs),
            decompress_s=slowest.decompress_s,
            compute_s=slowest.compute_s,
            sync_s=self.spec.superstep_sync_overhead_s,
            fault_s=slowest.fault_s,
            probe_s=slowest.probe_s,
            delta_s=slowest.delta_s,
        )
