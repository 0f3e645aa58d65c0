"""Tests of the benchmark itself, on the small "test" dataset tier.

Run with ``python -m pytest jobbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from jobbench import run  # noqa: E402
from jobbench.workloads import WORKLOADS, apply_ops, pinned_config  # noqa: E402

from repro.core import MPEConfig  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _once(name: str, traced: bool, seed: int = 3) -> dict:
    # seconds=0: exactly one iteration (one job, plus one traced job).
    return run.run_workload(name, seed, 0.0, traced, "test")


@pytest.fixture(scope="module")
def traced_twice():
    return {name: (_once(name, True), _once(name, True)) for name in WORKLOADS}


def test_declared_workloads_match():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_every_workload(name):
    out = _once(name, False)
    result = out["result"]
    assert result["correct"], out["info"]["errors"]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    if name == "evolve-sssp":
        assert out["info"]["extra"]["mutate_s"]["value"] > 0


def test_every_layer_metric_printed(traced_twice):
    expected = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    for first, _ in traced_twice.values():
        assert first["result"]["correct"], first["info"]["errors"]
        metrics = first["result"]["metrics"]
        assert {k: v["unit"] for k, v in metrics.items()} == expected


def test_count_metrics_repeat_exactly(traced_twice):
    counts = [name for name, (_, kind) in run.PER_LAYER.items() if kind == "count"]
    for first, second in traced_twice.values():
        a, b = first["result"]["metrics"], second["result"]["metrics"]
        assert {k: a[k]["value"] for k in counts} == {k: b[k]["value"] for k in counts}


def test_other_time_is_not_negative(traced_twice):
    for first, second in traced_twice.values():
        for out in (first, second):
            assert out["result"]["metrics"]["mpe.other_s"]["value"] >= 0


def test_layers_seen_where_expected(traced_twice):
    def metric(name, key):
        return traced_twice[name][0]["result"]["metrics"][key]["value"]

    assert metric("pagerank-dense", "ga.segment_reduce_s") > 0
    assert metric("pagerank-dense", "bloom.probes") > 0
    assert metric("sssp-frontier", "runtime.compute_phase_s") > 0
    assert metric("pagerank-dense", "runtime.compute_phase_s") == 0
    assert metric("evolve-sssp", "delta.compact_s") > 0
    assert metric("evolve-sssp", "mutate_s") > 0
    assert metric("pagerank-dense", "mutate_s") == 0


def test_pinned_config_is_the_default():
    assert pinned_config() == MPEConfig()


def test_later_batches_delete_only_live_edges():
    inputs = WORKLOADS["evolve-sssp"].make_inputs(5, "test")
    for steps in inputs.variants:
        batches = [step.ops for step in steps if step.kind == "mutate"]
        assert len(batches) == 3
        graph = inputs.graph
        for ops in batches:
            # apply_ops raises when a delete names no live edge.
            graph = apply_ops(graph, ops)


def _cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "jobbench/run.py", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_cli_prints_result_last():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    proc = _cli("--workload", "evolve-sssp", "--seed", "2", "--seconds", "0",
                "--trace", "0", "--tier", "test", env=env)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True


def test_cli_refuses_overrides():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_EXECUTOR"] = "serial"
    proc = _cli("--workload", "evolve-sssp", "--seed", "2", "--seconds", "0",
                "--tier", "test", env=env)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "REPRO_EXECUTOR" in proc.stderr
