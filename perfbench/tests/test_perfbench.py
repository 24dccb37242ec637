"""The benchmark's own tests, at the tiny smoke size.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


def _smoke(workload, trace, seed=3):
    proc = _bench(ROOT, "--workload", workload, "--seed", str(seed),
                  "--seconds", "1", "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload):
    detail, result = _smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == E2E
    quality = detail["quality"]
    assert quality["failed_frac"] == {"value": 0.0, "unit": "ratio"}
    if workload == "generate":
        assert quality["subject_similarity"]["unit"] == "cosine"
        assert quality["motion_fidelity"]["unit"] == "cosine"
    else:
        assert quality["loss_tail"]["unit"] == "loss"
    assert {"samples", "percentile", "beyond"} <= set(detail["tail"])
    env = detail["environment"]
    for key in ("nproc", "cpu_model", "python", "numpy", "blas",
                "OPENBLAS_NUM_THREADS", "commit", "src_sha256"):
        assert key in env
    assert env["OPENBLAS_NUM_THREADS"] == "1"

    traced_detail, traced = _smoke(workload, 1)
    assert traced["correct"], traced_detail["problems"]
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == PER_LAYER
    assert traced_detail["digests_compared"] >= 1
    assert traced_detail["absent_layers"] == []
    # same seed, same outputs, traced or not
    assert traced_detail["digest"] == detail["digest"]


def test_forced_loss_check_failure_counts_in_failed_frac(monkeypatch, tmp_path):
    _, workloads = run._load_modules()
    monkeypatch.setattr(workloads, "check_loss", lambda val: False)
    result, detail = run.run_benchmark("subject_stage", 1, 0.2, 0, "tiny", tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert detail["quality"]["failed_frac"]["value"] == 1.0


def test_forced_video_check_failure_counts_in_failed_frac(monkeypatch, tmp_path):
    _, workloads = run._load_modules()
    monkeypatch.setattr(workloads, "check_video", lambda video, n: False)
    result, detail = run.run_benchmark("generate", 1, 0.2, 0, "tiny", tmp_path)
    assert not result["correct"]
    assert detail["quality"]["failed_frac"]["value"] == 1.0


def test_missing_entry_point_is_reported_absent(monkeypatch, tmp_path):
    run._load_modules()
    from smrabooth import mora
    # the subject stage never calls it, so the run itself is unaffected
    monkeypatch.delattr(mora, "denoised_flow_stack")
    result, detail = run.run_benchmark("subject_stage", 1, 0.4, 1, "tiny", tmp_path)
    assert result["correct"], detail["problems"]
    assert detail["absent_layers"] == ["mora.denoised_flow_stack"]
    assert detail["missing_entry_points"] == ["mora.denoised_flow_stack"]
    assert set(detail["end_to_end"]) == set(E2E)
    assert set(result["metrics"]) == set(PER_LAYER)
    assert result["metrics"]["mora.denoised_flow_stack.ms"]["value"] == 0.0


def test_traced_spans_account_for_op_time(tmp_path):
    result, detail = run.run_benchmark("motion_mora", 2, 0.4, 1, "tiny", tmp_path)
    acc = detail["accounting"]
    assert acc["op_s"] > 0
    assert acc["residual_frac"] < 1e-9
    assert result["metrics"]["numerics.tape_nodes"]["value"] > 0
    assert result["metrics"]["mora.flow_pairs"]["value"] == 8


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "subject_stage", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
