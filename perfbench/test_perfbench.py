"""The benchmark's own tests: tiny smoke runs of every workload.

    python3 -m pytest perfbench/test_perfbench.py -q

Each run starts its own single-CPU Ray instance in a subprocess, so the
whole file takes a couple of minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _result(p: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert p.returncode == 0, p.stderr[-3000:]
    lines = p.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["report"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_metric(workload, trace):
    res, report = _result(_run("--workload", workload, "--seed", "3",
                               "--seconds", "1", "--trace", str(trace),
                               "--size", "tiny"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0, report["failures"]
    assert res["attempted"] >= 1
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == \
        {k: v["unit"] for k, v in res["metrics"].items()}
    for k, v in res["metrics"].items():
        assert isinstance(v["value"], (int, float)), k
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())
    meta = report["meta"]
    assert meta["ray_num_cpus"] == 1 and meta["index_bytes"] > 0
    if trace:
        assert meta["shard_actors"] == 1
        assert set(report["layer_sum"]) >= {"layer_self_s", "wall_s",
                                            "residual_s"}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_injected_wrong_answer_fails(workload):
    res, report = _result(_run("--workload", workload, "--seed", "3",
                               "--seconds", "1", "--size", "tiny",
                               "--inject-wrong"))
    assert not res["correct"]
    assert res["failed"] >= 1
    assert report["failed_frac"] > 0


def test_negative_seed_runs():
    res, _ = _result(_run("--workload", "build", "--seed", "-3", "--seconds",
                          "1", "--size", "tiny"))
    assert res["correct"]


def test_refuses_without_engine(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _run("--workload", "build", "--seed", "1", "--seconds", "1",
             cwd=str(tmp_path))
    assert p.returncode != 0
    assert p.stdout.strip() == ""
