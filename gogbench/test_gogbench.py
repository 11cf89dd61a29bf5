"""Tests of the benchmark itself: run them with ``python3 -m pytest gogbench``."""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from spans import Tracer

run.use_source_tree()
import workloads  # noqa: E402  (needs gogkit on the path)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("gogbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _assert_metrics(result: dict, declared: list[dict]):
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_end_to_end_metric(workload):
    result = _result(_run("--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "0"))
    _assert_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_run_emits_every_per_layer_metric():
    done = _run("--workload", "surgery", "--seed", "1", "--seconds", "0", "--trace", "1")
    _assert_metrics(_result(done), SPEC["per_layer"])


def _first_round_counts(name: str, seed: int) -> tuple[str, dict]:
    tracer = Tracer()
    wl = workloads.setup(name, seed, tracer)
    run.run_round(wl, run.Phase(), tracer)
    return wl.digest, {k: tracer.counts[k] for k in ("setup", 0) if k in tracer.counts}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_same_ops_and_counts_other_seed_other_ops(name):
    digest, counts = _first_round_counts(name, 11)
    again, counts_again = _first_round_counts(name, 11)
    assert digest == again
    assert counts == counts_again and counts[0]
    assert workloads.setup(name, 12, Tracer()).digest != digest


def test_exact_counts_match_the_recorded_invariants():
    _, counts = _first_round_counts("reads", 3)
    ball_sizes = workloads.BALL_SIZES
    assert counts[0]["gog.ball.elements"] == sum(ball_sizes[k] for k in workloads.BALL_PROBES)
    assert counts[0]["structure_tree.tree_ball.vertices"] == 937 + 19 + 9 + 9
    assert counts[0]["derivation.kernel_scan.elements"] == sum(
        ball_sizes[(n, r)] for n, _, r in workloads.KERNEL_SCANS
    )
    assert counts[0]["derivation.kernel_scan.mismatches"] == 0


def test_hom_count_checks_pass_and_catch_a_wrong_count(monkeypatch):
    wl = workloads.setup("quotients", 5, Tracer())
    assert [op.args[1:3] for op in wl.checks] == list(workloads.EXHAUSTS)
    phase = run.Phase()
    run.run_checks(wl.checks, phase, Tracer())
    assert (phase.attempted, phase.failed) == (len(workloads.EXHAUSTS), 0)
    monkeypatch.setitem(workloads.HOM_COUNTS, ("c2c2", "symmetric 4"), 99)
    phase = run.Phase()
    run.run_checks(wl.checks, phase, Tracer())
    assert phase.failed == 1


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "gogbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("--workload", "reads", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
