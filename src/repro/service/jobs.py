"""Job model for the service layer: specs, results, lifecycle states.

A *job* is one vertex-program run against a graph already registered
with a warm :class:`repro.service.engine.Engine` — algorithm name plus
parameters, an optional source vertex, the run-scoped engine knobs
(executor / prefetch / selective / …), and scheduling metadata
(priority class, tenant).  Specs are plain data: they round-trip
through JSON so the socket front end, the persisted queue file, and
the in-process client all speak the same shape.

Job IDs are stable and monotonic (``job-00000001`` …); the engine
persists the sequence counter with its queue so IDs never collide
across a restart.  Results persist in the checkpoint wire format
(:func:`repro.core.checkpoint.pack_snapshot`) next to a JSON metadata
sidecar, so a restarted service can still serve ``result`` requests
for jobs finished before the restart.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "JobStatus",
    "JobSpec",
    "JobResult",
    "JobRecord",
    "PRIORITIES",
    "ALGORITHMS",
    "build_program",
]


class JobStatus:
    """Lifecycle states (plain strings so they serialise as-is)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    REJECTED = "rejected"

    TERMINAL = frozenset({DONE, FAILED, REJECTED})


# Priority classes in pop order: every queued "high" job runs before
# any "normal" job, which runs before any "low" job.
PRIORITIES = ("high", "normal", "low")


def _make_pagerank(params: dict):
    from repro.apps import PageRank

    return PageRank(
        damping=float(params.get("damping", 0.85)),
        tolerance=float(params.get("tolerance", 1e-9)),
    )


def _make_sssp(params: dict):
    from repro.apps import SSSP

    return SSSP(source=int(params.get("source", 0)))


def _make_bfs(params: dict):
    from repro.apps import BFS

    return BFS(source=int(params.get("source", 0)))


def _make_wcc(params: dict):
    from repro.apps import WCC

    return WCC()


def _make_katz(params: dict):
    from repro.apps import KatzCentrality

    return KatzCentrality(
        alpha=float(params.get("alpha", 0.005)),
        beta=float(params.get("beta", 1.0)),
        tolerance=float(params.get("tolerance", 1e-10)),
    )


def _make_ppr(params: dict):
    from repro.apps import PersonalizedPageRank

    return PersonalizedPageRank(
        seeds=[int(s) for s in params.get("seeds", [0])],
        damping=float(params.get("damping", 0.85)),
        tolerance=float(params.get("tolerance", 1e-9)),
    )


def _make_degree(params: dict):
    from repro.apps import InDegreeCentrality

    return InDegreeCentrality()


# algorithm name → (factory, needs symmetrised dataset?)
ALGORITHMS = {
    "pagerank": (_make_pagerank, False),
    "sssp": (_make_sssp, False),
    "bfs": (_make_bfs, False),
    "wcc": (_make_wcc, True),
    "katz": (_make_katz, False),
    "ppr": (_make_ppr, False),
    "degree": (_make_degree, False),
}


def build_program(algorithm: str, params: dict | None = None):
    """Instantiate the vertex program for an algorithm name."""
    try:
        factory, _needs_sym = ALGORITHMS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {algorithm!r} "
            f"(supported: {', '.join(sorted(ALGORITHMS))})"
        ) from None
    return factory(params or {})


@dataclass(frozen=True)
class JobSpec:
    """One job request.

    Only *run-scoped* engine knobs are exposed: everything here can be
    swapped on a warm engine between jobs without invalidating its
    setup state (tile placement, source summaries, caches).  Setup-scoped
    knobs — replication policy, bloom on/off, cache capacity/mode, tile
    assignment — are fixed when the graph is registered; a job that
    needs different ones needs a different registration.
    """

    graph: str
    algorithm: str = "pagerank"
    params: dict = field(default_factory=dict)
    priority: str = "normal"
    tenant: str = "default"
    # Run-scoped engine knobs; None → the registration's base config.
    executor: str | None = None
    num_threads: int | None = None
    num_workers: int | None = None
    prefetch_depth: int | None = None
    io_threads: int | None = None
    selective: bool | None = None
    vertex_store: str | None = None
    # Online autotuner (repro.tuning).  Run-scoped: the fitted constants
    # live on the warm engine, so a later tuned job against the same
    # registration skips the exploration window.
    tune: bool | None = None
    # Incremental computation (repro.delta): restart from this graph's
    # previous fixed point for the same algorithm, repairing only the
    # vertices disturbed by mutations applied since.  Run-scoped: the
    # fixed-point memory lives on the warm engine.  Requires a prior
    # completed run of the same algorithm on this registration.
    incremental: bool | None = None
    max_supersteps: int | None = None
    checkpoint_every: int | None = None
    # Fault-injection schedule (list of FaultEvent dicts) + retry budget:
    # when present the engine runs the job under a Supervisor.
    fault_events: tuple = ()
    max_restarts: int = 2

    def __post_init__(self) -> None:
        if self.priority not in PRIORITIES:
            raise ValueError(
                f"priority must be one of {PRIORITIES}, got {self.priority!r}"
            )

    def build_program(self):
        return build_program(self.algorithm, self.params)

    def config_overrides(self) -> dict:
        """The non-None run-scoped knobs, keyed by MPEConfig field."""
        overrides = {}
        for spec_field, cfg_field in (
            ("executor", "executor"),
            ("num_threads", "num_threads"),
            ("num_workers", "num_workers"),
            ("prefetch_depth", "prefetch_depth"),
            ("io_threads", "io_threads"),
            ("selective", "selective_scheduling"),
            ("vertex_store", "vertex_store"),
            ("tune", "tune"),
            ("incremental", "incremental"),
            ("max_supersteps", "max_supersteps"),
            ("checkpoint_every", "checkpoint_every"),
        ):
            value = getattr(self, spec_field)
            if value is not None:
                overrides[cfg_field] = value
        return overrides

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["fault_events"] = [dict(e) for e in self.fault_events]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "JobSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        kwargs = {k: v for k, v in d.items() if k in known}
        kwargs["fault_events"] = tuple(
            dict(e) for e in kwargs.get("fault_events", ())
        )
        return cls(**kwargs)


@dataclass
class JobResult:
    """What a finished job produced (values + the full metered story)."""

    job_id: str
    values: np.ndarray | None = None
    converged: bool = False
    num_supersteps: int = 0
    executor: str = ""
    # Modeled costs: the per-superstep trace rows plus the paper metric.
    supersteps: list = field(default_factory=list)
    avg_superstep_modeled_s: float = 0.0
    modeled_job_s: float = 0.0
    # Metered story, per server id.
    counters: dict = field(default_factory=dict)
    cache_stats: dict = field(default_factory=dict)
    decoded_cache_hits: int = 0
    decoded_cache_misses: int = 0
    net_bytes: int = 0
    disk_read_bytes: int = 0
    # Supervised-recovery summary when the job ran under fault injection.
    recovery: dict | None = None
    # Autotuner summary (fitted constants, residuals, decision trace)
    # when the job ran tuned; None otherwise.
    tuning: dict | None = None
    # Evolving-graph summary (repro.delta): incremental-plan stats plus
    # the overlay-store state; None on non-evolving registrations.
    delta: dict | None = None

    def to_dict(self, include_values: bool = True) -> dict:
        d = {
            "job_id": self.job_id,
            "converged": self.converged,
            "num_supersteps": self.num_supersteps,
            "executor": self.executor,
            "supersteps": self.supersteps,
            "avg_superstep_modeled_s": self.avg_superstep_modeled_s,
            "modeled_job_s": self.modeled_job_s,
            "counters": self.counters,
            "cache_stats": self.cache_stats,
            "decoded_cache_hits": self.decoded_cache_hits,
            "decoded_cache_misses": self.decoded_cache_misses,
            "net_bytes": self.net_bytes,
            "disk_read_bytes": self.disk_read_bytes,
            "recovery": self.recovery,
            "tuning": self.tuning,
            "delta": self.delta,
        }
        if include_values and self.values is not None:
            d["values"] = [float(v) for v in self.values]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "JobResult":
        values = d.get("values")
        return cls(
            job_id=d["job_id"],
            values=np.asarray(values, dtype=np.float64)
            if values is not None
            else None,
            converged=bool(d.get("converged", False)),
            num_supersteps=int(d.get("num_supersteps", 0)),
            executor=d.get("executor", ""),
            supersteps=d.get("supersteps", []),
            avg_superstep_modeled_s=float(d.get("avg_superstep_modeled_s", 0.0)),
            modeled_job_s=float(d.get("modeled_job_s", 0.0)),
            counters=d.get("counters", {}),
            cache_stats=d.get("cache_stats", {}),
            decoded_cache_hits=int(d.get("decoded_cache_hits", 0)),
            decoded_cache_misses=int(d.get("decoded_cache_misses", 0)),
            net_bytes=int(d.get("net_bytes", 0)),
            disk_read_bytes=int(d.get("disk_read_bytes", 0)),
            recovery=d.get("recovery"),
            tuning=d.get("tuning"),
            delta=d.get("delta"),
        )


@dataclass
class JobRecord:
    """A job's full lifecycle as the engine tracks it."""

    job_id: str
    spec: JobSpec
    status: str = JobStatus.QUEUED
    reason: str = ""  # rejection reason / failure message
    submitted_unix: float = field(default_factory=time.time)
    started_unix: float | None = None
    finished_unix: float | None = None
    wait_s: float = 0.0
    run_s: float = 0.0
    result: JobResult | None = None

    @property
    def done(self) -> bool:
        return self.status in JobStatus.TERMINAL

    def to_dict(self, include_result: bool = False) -> dict:
        d = {
            "job_id": self.job_id,
            "spec": self.spec.to_dict(),
            "status": self.status,
            "reason": self.reason,
            "submitted_unix": self.submitted_unix,
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
            "wait_s": self.wait_s,
            "run_s": self.run_s,
        }
        if include_result and self.result is not None:
            d["result"] = self.result.to_dict(include_values=False)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "JobRecord":
        return cls(
            job_id=d["job_id"],
            spec=JobSpec.from_dict(d["spec"]),
            status=d.get("status", JobStatus.QUEUED),
            reason=d.get("reason", ""),
            submitted_unix=float(d.get("submitted_unix", 0.0)),
            started_unix=d.get("started_unix"),
            finished_unix=d.get("finished_unix"),
            wait_s=float(d.get("wait_s", 0.0)),
            run_s=float(d.get("run_s", 0.0)),
        )
