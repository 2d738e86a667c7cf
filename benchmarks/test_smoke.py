"""Smoke test of the pipeline benchmark at tiny sizes.

    python3 -m pytest benchmarks/test_smoke.py -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "narrow-families": dict(families=(("quparity", 4), ("eqprime", 2)), sizes=(4, 9)),
    "default-order": dict(families=(("quparity", 4), ("eqprime", 2)), sizes=(4, 9)),
    "ipg-rect": dict(families=(("ipg", 1),), sizes=(6, 8)),
}


@pytest.fixture(scope="module", autouse=True)
def sources():
    assert run.use_checkout_sources()


def tiny(name):
    return dataclasses.replace(wl.WORKLOADS[name], **TINY[name])


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_prints_every_end_to_end_metric(name):
    report = run.run_workload(tiny(name), seed=3, seconds=0, trace=False)
    result = report["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0, m["name"]
    text = "\n".join(run.summary(report))
    assert all(m["name"] in text for m in SPEC["end_to_end"])
    again = run.run_workload(tiny(name), seed=3, seconds=0, trace=False)
    assert again["digest"] == report["digest"]


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_layers_add_up_to_stages(name):
    report = run.run_workload(tiny(name), seed=3, seconds=0, trace=True)
    result = report["result"]
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    layers = report["layers"]
    stage_s = {}
    for row in report["instances"]:
        for stage, ms in row["stages_ms"].items():
            stage_s[f"stage.{stage}"] = stage_s.get(f"stage.{stage}", 0.0) + ms / 1e3
    for stage, seconds in stage_s.items():
        assert layers["stage_total_s"][stage] == pytest.approx(seconds, rel=1e-9)
        parts = sum(layers["by_stage"][stage].values())
        assert parts == pytest.approx(seconds, rel=1e-9)
        assert all(v >= 0 for v in layers["by_stage"][stage].values())
    assert metrics["obdd.complete.self_ms"]["value"] > 0
    assert metrics["solver.self_ms"]["value"] > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = SPEC["command"] + ["--workload", "ipg-rect", "--seed", "1",
                             "--seconds", "1", "--trace", "0"]
    cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
