"""The four workloads: seeded inputs, the timed job, and reference checks.

A *job* is what a user waits for: raw edge list in, answers out.  It
loads the graph (SPE pre-processing plus DFS writes), sets the engine up
(stage-two fetch, source summaries, bloom filters, cache plan), then
runs a fixed list of steps, each a query (``GraphH.run``) or a mutation
batch (``GraphH.mutate``).  Every query's values are checked against
``reference_solution`` on the host-side graph, mutated where needed.

Inputs — the graph, SSSP sources, mutation batches and the reference
answers — are built once per benchmark run from the seed and are not
timed.  Each job rebuilds the cluster from scratch.  Where the steps
themselves vary with the seed (SSSP sources, mutation batches), a run
draws several *variants* and job ``k`` runs variant ``k mod n``, so a
run's median averages over inputs instead of resting on one draw.
"""

from __future__ import annotations

import dataclasses
import gc
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.apps import SSSP, PageRank
from repro.apps.reference import reference_solution
from repro.core import GraphH, MPEConfig
from repro.delta import random_mutations
from repro.graph.datasets import DATASETS
from repro.graph.graph import Graph

from jobbench import memory

NUM_SERVERS = 4
PAGERANK_SUPERSTEPS = 10
# PageRank sums in the same per-target order as the reference, so the
# values agree to rounding; SSSP hop counts must agree exactly.
PAGERANK_RTOL = 1e-9


def pinned_config(**overrides) -> MPEConfig:
    """An ``MPEConfig`` with every field spelled out.

    A workload must not drift when a default changes, so each field is
    named here with the value the workloads measure.
    """
    fields = dict(
        cache_capacity_bytes=None,
        cache_mode=None,
        message_codec="snappylike",
        comm_mode="hybrid",
        sparsity_threshold=0.8,
        use_bloom_filters=True,
        bloom_false_positive_rate=0.01,
        selective_scheduling=True,
        replication_policy="aa",
        tile_assignment="round_robin",
        max_supersteps=200,
        checkpoint_every=None,
        executor="serial",
        num_threads=None,
        num_workers=None,
        decoded_cache=True,
        decoded_cache_entries=None,
        prefetch_depth=0,
        io_threads=1,
        vertex_store="mem",
        mutations=None,
        incremental=False,
        tune=False,
        comm_fastpath=True,
    )
    unknown = set(overrides) - set(fields)
    if unknown:
        raise ValueError(f"unknown MPEConfig fields {sorted(unknown)}")
    fields.update(overrides)
    missing = {f.name for f in dataclasses.fields(MPEConfig)} - set(fields)
    if missing:
        raise ValueError(f"MPEConfig fields not pinned: {sorted(missing)}")
    return MPEConfig(**fields)


@dataclass(frozen=True)
class Step:
    """One operation of a job: a query or a mutation batch."""

    kind: str  # "query" | "mutate"
    make_program: Callable[[], object] | None = None
    expected: np.ndarray | None = None
    exact: bool = True
    incremental: bool = False
    ops: list[dict] | None = None


@dataclass
class Inputs:
    graph: Graph
    variants: list[list[Step]]

    def steps(self, job_index: int) -> list[Step]:
        return self.variants[job_index % len(self.variants)]


@dataclass
class JobRecord:
    """Timings and outcome of one job."""

    setup_s: float = 0.0
    run_s: float = 0.0
    mutate_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    results: list = field(default_factory=list)  # RunResult per query
    # Cache statistics summed over servers at the end of the job.
    edge_hits: int = 0
    edge_lookups: int = 0
    decoded_hits: int = 0
    decoded_lookups: int = 0
    dfs_bytes_written: int = 0  # physical, replicas included

    @property
    def job_s(self) -> float:
        return self.setup_s + self.run_s + self.mutate_s


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dataset: str
    config: MPEConfig
    make_steps: Callable[[Graph, int, int], list[Step]]
    variants: int = 1

    def make_inputs(self, seed: int, tier: str) -> Inputs:
        spec = dataclasses.replace(DATASETS[self.dataset], seed=seed)
        graph = spec.generate(tier)
        return Inputs(
            graph=graph,
            variants=[self.make_steps(graph, seed, v) for v in range(self.variants)],
        )


# ----------------------------------------------------------------------
# Steps of each workload
# ----------------------------------------------------------------------
def _pagerank_steps(graph: Graph, seed: int, variant: int) -> list[Step]:
    expected, _ = reference_solution(
        PageRank(tolerance=0.0), graph, max_supersteps=PAGERANK_SUPERSTEPS
    )
    return [
        Step(
            "query",
            make_program=lambda: PageRank(tolerance=0.0),
            expected=expected,
            exact=False,
        )
    ]


def _pick_sources(graph: Graph, seed: int, variant: int, count: int) -> list[int]:
    """Seeded SSSP sources among vertices with out-edges."""
    rng = np.random.default_rng([seed, variant])
    candidates = np.flatnonzero(graph.out_degrees > 0)
    return [int(v) for v in rng.choice(candidates, size=count, replace=False)]


def _sssp_query(graph: Graph, source: int, incremental: bool = False) -> Step:
    expected, _ = reference_solution(SSSP(source=source), graph)
    return Step(
        "query",
        make_program=lambda: SSSP(source=source),
        expected=expected,
        incremental=incremental,
    )


def _frontier_steps(graph: Graph, seed: int, variant: int) -> list[Step]:
    return [_sssp_query(graph, s) for s in _pick_sources(graph, seed, variant, 3)]


EVOLVE_ROUNDS = 3
INSERT_FRACTION = 0.001
DELETE_FRACTION = 0.0001


def apply_ops(graph: Graph, ops: list[dict]) -> Graph:
    """The host-side graph after a mutation batch.

    A delete removes one instance of its ``(src, dst)`` pair (the
    workloads' graphs are unweighted, so which instance is immaterial);
    inserts append.
    """
    n = graph.num_vertices
    keys = graph.src * n + graph.dst
    keep = np.ones(keys.size, dtype=bool)
    for op in ops:
        if op["op"] == "delete":
            hits = np.flatnonzero(keep & (keys == op["src"] * n + op["dst"]))
            if hits.size == 0:
                raise ValueError(f"no edge ({op['src']}, {op['dst']}) to delete")
            keep[hits[0]] = False
    inserts = [op for op in ops if op["op"] == "insert"]
    src = np.concatenate([graph.src[keep], [op["src"] for op in inserts]])
    dst = np.concatenate([graph.dst[keep], [op["dst"] for op in inserts]])
    return Graph(n, src.astype(np.int64), dst.astype(np.int64), name=graph.name)


def _evolve_steps(graph: Graph, seed: int, variant: int) -> list[Step]:
    source = _pick_sources(graph, seed, variant, 1)[0]
    steps = [_sssp_query(graph, source)]
    num_inserts = max(1, round(INSERT_FRACTION * graph.num_edges))
    num_deletes = max(1, round(DELETE_FRACTION * graph.num_edges))
    current = graph
    for rnd in range(EVOLVE_ROUNDS):
        # Deletes are sampled from the current mutated edge list, so a
        # later batch never deletes an edge an earlier one removed.
        batch_seed = np.random.SeedSequence([seed, variant, rnd]).generate_state(1)[0]
        ops = random_mutations(current, num_inserts, num_deletes, seed=int(batch_seed))
        current = apply_ops(current, ops)
        steps.append(Step("mutate", ops=ops))
        steps.append(_sssp_query(current, source, incremental=True))
    return steps


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="pagerank-dense",
            why="every vertex active each superstep and every tile cached: "
            "gather-apply, dense broadcasts and the bloom probe do the work",
            dataset="uk2014-s",
            config=pinned_config(max_supersteps=PAGERANK_SUPERSTEPS),
            make_steps=_pagerank_steps,
        ),
        Workload(
            name="pagerank-outofcore",
            why="the same job with a 2 MB edge cache per server: tile loads "
            "miss, hit disk and decompress, the paper's small-memory regime",
            dataset="uk2014-s",
            config=pinned_config(
                max_supersteps=PAGERANK_SUPERSTEPS,
                cache_capacity_bytes=2_000_000,
            ),
            make_steps=_pagerank_steps,
        ),
        Workload(
            name="sssp-frontier",
            why="sparse SSSP frontiers from 3 sources on a process pool of 2: "
            "tile skipping, sparse broadcasts and worker dispatch dominate",
            dataset="uk2014-s",
            config=pinned_config(executor="process", num_workers=2),
            make_steps=_frontier_steps,
            variants=2,
        ),
        Workload(
            name="evolve-sssp",
            why="SSSP, then 3 rounds of mutate plus incremental SSSP: "
            "mutation log, compaction, overlay composition and planning",
            dataset="uk2007-s",
            config=pinned_config(mutations=True),
            make_steps=_evolve_steps,
            variants=6,
        ),
    )
}


# ----------------------------------------------------------------------
# One job
# ----------------------------------------------------------------------
def _matches(step: Step, values: np.ndarray) -> bool:
    if values.shape != step.expected.shape:
        return False
    if step.exact:
        return bool(np.array_equal(values, step.expected))
    return bool(np.allclose(values, step.expected, rtol=PAGERANK_RTOL, atol=0.0))


def run_job(
    workload: Workload, inputs: Inputs, workdir: str, job_index: int = 0
) -> JobRecord:
    """Run job ``job_index`` of a run in a fresh cluster under ``workdir``.

    Stops at the first failed operation: the engine's state after a
    failure is not a sound base for the next step.
    """
    rec = JobRecord()
    root = tempfile.mkdtemp(prefix="job-", dir=workdir)
    gc.collect()
    tracker = memory.PeakTracker()
    gh = None
    try:
        with tracker:
            gh = GraphH(num_servers=NUM_SERVERS, config=workload.config, root=root)
            t0 = time.perf_counter()
            gh.load_graph(inputs.graph)
            gh.mpe.setup()
            rec.setup_s = time.perf_counter() - t0
            for step in inputs.steps(job_index):
                rec.attempted += 1
                try:
                    if step.kind == "mutate":
                        t0 = time.perf_counter()
                        gh.mutate(step.ops)
                        rec.mutate_s += time.perf_counter() - t0
                        continue
                    gh.mpe.config = dataclasses.replace(
                        workload.config, incremental=step.incremental
                    )
                    t0 = time.perf_counter()
                    result = gh.run(step.make_program())
                    rec.run_s += time.perf_counter() - t0
                    rec.results.append(result)
                    ok = _matches(step, result.values)
                except Exception as exc:  # counted as a failed operation
                    rec.failed += 1
                    rec.errors.append(f"{type(exc).__name__}: {exc}")
                    break
                if not ok:
                    rec.failed += 1
                    rec.errors.append(f"step {rec.attempted}: values differ from reference")
                    break
        rec.peak_rss_mb = tracker.peak_mb
        for server in gh.cluster.servers:
            rec.edge_hits += server.cache.stats.hits
            rec.edge_lookups += server.cache.stats.lookups
            rec.decoded_hits += server.decoded_cache.stats.hits
            rec.decoded_lookups += server.decoded_cache.stats.lookups
        rec.dfs_bytes_written = sum(d.bytes_written for d in gh.cluster.dfs.datanodes)
    finally:
        if gh is not None:
            gh.close()
        shutil.rmtree(root, ignore_errors=True)
    return rec
