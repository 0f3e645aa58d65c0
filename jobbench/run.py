"""Whole-job wall-clock benchmark for the GraphH reproduction.

Run from the repository root::

    python3 jobbench/run.py --workload pagerank-dense --seed 1 --seconds 20 --trace 0
    python3 jobbench/run.py --workload all --seed 1 --seconds 20

One run generates the workload's inputs from ``--seed`` (untimed), then
repeats the whole job — load, set-up, queries, mutation batches — until
``--seconds`` are used, and reports the median over jobs.  Every answer
is checked against the reference solution.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced jobs
and prints the per-layer metrics, with tracing overhead.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
the effective settings and the host.  ``--workload all`` runs every
workload in turn and prints a table instead.  See README.md.

The exit code is 0 when every operation succeeded, 1 when any failed,
and 2 when the benchmark refuses to run or cannot import the program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Each name is a JobRecord attribute; a run reports its median over jobs.
END_TO_END = {"setup_s": "s", "run_s": "s", "job_s": "s", "peak_rss_mb": "MB"}

# name -> (unit, kind); kind "time" metrics are medians over traced
# jobs, "count" metrics come from the first traced job and repeat
# exactly for a given seed.
PER_LAYER = {
    "mutate_s": ("s", "time"),
    "spe.preprocess_s": ("s", "time"),
    "mapreduce.s": ("s", "time"),
    "dfs.write_s": ("s", "time"),
    "dfs.read_s": ("s", "time"),
    "dfs.bytes_written": ("bytes", "count"),
    "mpe.setup_s": ("s", "time"),
    "bloom.build_s": ("s", "time"),
    "active.summary_s": ("s", "time"),
    "bloom.probe_s": ("s", "time"),
    "bloom.probes": ("count", "count"),
    "bloom.probe_skip_ratio": ("ratio", "count"),
    "schedule.prune_s": ("s", "time"),
    "schedule.tiles_run": ("count", "count"),
    "schedule.skip_ratio": ("ratio", "count"),
    "server.load_tile_s": ("s", "time"),
    "cache.load_s": ("s", "time"),
    "disk.read_s": ("s", "time"),
    "codec.decompress_s": ("s", "time"),
    "cache.edge_hit_ratio": ("ratio", "count"),
    "cache.decoded_hit_ratio": ("ratio", "count"),
    "disk.read_bytes": ("bytes", "count"),
    "ga.edge_message_s": ("s", "time"),
    "ga.segment_reduce_s": ("s", "time"),
    "ga.apply_s": ("s", "time"),
    "store.gather_s": ("s", "time"),
    "comm.encode_s": ("s", "time"),
    "comm.decode_s": ("s", "time"),
    "comm.send_s": ("s", "time"),
    "comm.net_bytes": ("bytes", "count"),
    "comm.decode_hit_ratio": ("ratio", "count"),
    "store.write_s": ("s", "time"),
    "runtime.pool_start_s": ("s", "time"),
    "runtime.compute_phase_s": ("s", "time"),
    "runtime.apply_phase_s": ("s", "time"),
    "delta.log_s": ("s", "time"),
    "delta.compact_s": ("s", "time"),
    "delta.compose_s": ("s", "time"),
    "delta.plan_s": ("s", "time"),
    "delta.reset_vertices": ("count", "count"),
    "delta.forced_tiles": ("count", "count"),
    "mpe.other_s": ("s", "time"),
    "mpe.modeled_s": ("s", "count"),
    "mpe.supersteps": ("count", "count"),
    "trace.overhead_s": ("s", "time"),
}

# Span name behind each self-time metric (README.md lists the wrapped
# functions per span).
SELF_TIME_SPANS = {
    "spe.preprocess_s": ("spe.preprocess",),
    "mapreduce.s": ("mapreduce",),
    "dfs.write_s": ("dfs.write",),
    "dfs.read_s": ("dfs.read",),
    "mpe.setup_s": ("mpe.setup",),
    "bloom.build_s": ("bloom.build",),
    "active.summary_s": ("active.summary",),
    "bloom.probe_s": ("bloom.probe", "bloom.hash"),
    "schedule.prune_s": ("schedule.prune",),
    "server.load_tile_s": ("server.load_tile",),
    "cache.load_s": ("cache.load",),
    "disk.read_s": ("disk.read",),
    "codec.decompress_s": ("codec.decompress",),
    "ga.edge_message_s": ("ga.edge_message",),
    "ga.segment_reduce_s": ("ga.segment_reduce",),
    "ga.apply_s": ("ga.apply",),
    "store.gather_s": ("store.gather",),
    "comm.encode_s": ("comm.encode",),
    "comm.decode_s": ("comm.decode",),
    "comm.send_s": ("comm.send",),
    "store.write_s": ("store.write",),
    "runtime.pool_start_s": ("runtime.pool_start",),
    "runtime.compute_phase_s": ("runtime.compute_phase",),
    "runtime.apply_phase_s": ("runtime.apply_phase",),
    "delta.log_s": ("delta.log",),
    "delta.compact_s": ("delta.compact",),
    "delta.compose_s": ("delta.compose",),
    "delta.plan_s": ("delta.plan",),
    "mpe.other_s": ("mpe.run",),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(job, rec) -> dict[str, float]:
    """Per-layer metrics of one traced job (``trace.overhead_s`` aside)."""
    from jobbench.tracing import self_times

    own = self_times(rec)
    out = {
        name: sum(own.get(span, 0.0) for span in spans)
        for name, spans in SELF_TIME_SPANS.items()
    }
    steps = [s for result in job.results for s in result.supersteps]
    tiles_run = sum(s.tiles_processed for s in steps)
    tiles_skipped = sum(s.tiles_skipped for s in steps)
    probes = rec.names.count("bloom.probe")
    decode_hits = sum(r.payload_decode_hits for r in job.results)
    decode_misses = sum(r.payload_decode_misses for r in job.results)
    plans = [r.delta for r in job.results if r.delta and r.delta.get("incremental")]
    out.update(
        {
            "mutate_s": job.mutate_s,
            "dfs.bytes_written": job.dfs_bytes_written,
            "bloom.probes": probes,
            "bloom.probe_skip_ratio": _ratio(rec.counts.get("bloom.probe_skips", 0), probes),
            "schedule.tiles_run": tiles_run,
            "schedule.skip_ratio": _ratio(tiles_skipped, tiles_run + tiles_skipped),
            "cache.edge_hit_ratio": _ratio(job.edge_hits, job.edge_lookups),
            "cache.decoded_hit_ratio": _ratio(job.decoded_hits, job.decoded_lookups),
            "disk.read_bytes": sum(s.disk_read_bytes for s in steps),
            "comm.net_bytes": sum(s.net_bytes for s in steps),
            "comm.decode_hit_ratio": _ratio(decode_hits, decode_hits + decode_misses),
            "delta.reset_vertices": sum(p["reset_vertices"] for p in plans),
            "delta.forced_tiles": sum(p["forced_tiles"] for p in plans),
            "mpe.modeled_s": sum(s.modeled.total_s for s in steps if s.modeled),
            "mpe.supersteps": len(steps),
        }
    )
    return out


def measure(workload, inputs, seconds: float, workdir: str, traced: bool) -> dict:
    """Repeat the job until ``seconds`` are used; return the raw records.

    A new job starts only when the mean iteration so far still fits in
    the time left, so a run ends close to ``seconds``; at least one
    iteration always runs.  With ``traced``, an iteration is one
    untraced job followed by one traced job of the same input variant.
    """
    from jobbench.tracing import SpanRecorder, Tracing
    from jobbench.workloads import run_job

    plain, traced_jobs = [], []
    start = time.perf_counter()
    while True:
        index = len(plain)
        job = run_job(workload, inputs, workdir, index)
        plain.append(job)
        if job.failed:
            break
        if traced:
            rec = SpanRecorder()
            with Tracing(rec):
                job = run_job(workload, inputs, workdir, index)
            traced_jobs.append((job, rec))
            if job.failed:
                break
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(plain) > seconds:
            break
    return {"plain": plain, "traced": traced_jobs}


def summarize(records: dict, traced: bool) -> dict:
    """The printed metrics: medians over jobs; counts from the first
    traced job, which runs input variant 0 in every run."""
    plain = records["plain"]
    med = statistics.median
    if not traced:
        return {
            name: {"value": med(getattr(j, name) for j in plain), "unit": unit}
            for name, unit in END_TO_END.items()
        }
    per_job = [layer_metrics(job, rec) for job, rec in records["traced"]]
    values = {}
    for name, (_unit, kind) in PER_LAYER.items():
        if name == "trace.overhead_s":
            continue
        column = [m[name] for m in per_job]
        values[name] = column[0] if kind == "count" else med(column)
    values["trace.overhead_s"] = med(
        j.run_s for j, _ in records["traced"]
    ) - med(j.run_s for j in plain)
    return {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in values.items()}


def _git_hash() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(records: dict) -> dict:
    """Effective settings of the measured program, plus the host."""
    import numpy

    runtimes = [r.runtime() for j in records["plain"] for r in j.results]
    return {
        "runtime": runtimes[0] if runtimes else None,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git": _git_hash(),
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool, tier: str) -> dict:
    from jobbench.workloads import WORKLOADS

    workload = WORKLOADS[name]
    inputs = workload.make_inputs(seed, tier)
    workdir_root = ROOT / "jobbench" / "_work"
    workdir_root.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workdir_root) as workdir:
        records = measure(workload, inputs, seconds, workdir, traced)
    metrics = summarize(records, traced)
    jobs = records["plain"] + [j for j, _ in records["traced"]]
    result = {
        "correct": all(j.failed == 0 for j in jobs),
        "attempted": sum(j.attempted for j in jobs),
        "failed": sum(j.failed for j in jobs),
        "metrics": metrics,
    }
    info = {
        "workload": name,
        "seed": seed,
        "tier": tier,
        "jobs": len(records["plain"]),
        "traced_jobs": len(records["traced"]),
        "env": environment(records),
        # mutate_s is end-to-end on the workloads that mutate; it is
        # reported here because every run must print the same metrics.
        "extra": (
            {"mutate_s": {"value": statistics.median(j.mutate_s for j in records["plain"]),
                          "unit": "s"}}
            if any(step.kind == "mutate" for step in inputs.steps(0))
            else {}
        ),
        "errors": sorted({e for j in jobs for e in j.errors}),
    }
    if traced and records["traced"]:
        spans_path = ROOT / "jobbench" / "_out" / f"{name}-seed{seed}.spans.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        _, rec = records["traced"][-1]
        spans_path.write_text(json.dumps({"workload": name, "seed": seed, "spans": rec.spans()}))
        info["spans"] = str(spans_path.relative_to(ROOT))
    return {"result": result, "info": info}


def _table(outcomes: dict) -> str:
    names = list(END_TO_END) + ["mutate_s"]
    lines = [f"{'workload':<20}" + "".join(f"{n:>14}" for n in names) + "  ok"]
    for workload, out in outcomes.items():
        metrics = out["result"]["metrics"]
        cells = []
        for n in names:
            m = metrics.get(n) or out["info"]["extra"].get(n)
            cells.append(f"{m['value']:>11.3f} {m['unit']:<2}" if m else f"{'-':>14}")
        ok = "yes" if out["result"]["correct"] else "NO"
        lines.append(f"{workload:<20}" + "".join(cells) + f"  {ok}")
    return "\n".join(lines)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tier",
        choices=("bench", "test"),
        default="bench",
        help="dataset size tier; 'test' is the smoke size used by the tests",
    )
    return parser.parse_args(argv)


def stop_helper_processes() -> None:
    """Stop every process this run started and wait for each to end.

    The process executor joins its workers when the cluster closes, but
    the shared-memory resource tracker that Python starts on first use
    would otherwise outlive this process until it notices the exit.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        stop_helper_processes()


def _main(argv) -> int:
    args = parse_args(argv)
    overrides = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if overrides:
        print(
            f"refusing to run: {', '.join(overrides)} would change the measured "
            "program; unset them",
            file=sys.stderr,
        )
        return 2
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        from jobbench.workloads import WORKLOADS
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    if args.workload == "all":
        outcomes = {}
        for name in WORKLOADS:
            out = run_workload(name, args.seed, args.seconds, False, args.tier)
            outcomes[name] = out
            print(json.dumps({"info": out["info"], **out["result"]}))
        print(_table(outcomes))
        return 0 if all(o["result"]["correct"] for o in outcomes.values()) else 1

    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tier)
    print(json.dumps(out["info"]))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
