import json
import os
import shutil
import subprocess
import sys

from conftest import BENCH, ROOT


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "checkbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_refuses_to_run_without_the_checker_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "checkbench")
    done = run_bench(tmp_path, "--workload", "paper", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""


def test_untraced_run_reports_every_end_to_end_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    done = run_bench(ROOT, "--workload", "edit-recheck", "--seed", "9", "--seconds", "0.1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 4, 0)
    expected = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "check_ms.p90 withheld" in done.stderr


def test_traced_edit_recheck_run_reports_every_per_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    done = run_bench(ROOT, "--workload", "edit-recheck", "--seed", "9", "--seconds", "0.1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 8  # one untraced and one traced round
    expected = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["wellformed.calls"]["value"] == 3
    assert result["metrics"]["cache.hit_ratio"]["value"] > 0.9


def test_setup_only_prints_the_seconds_to_the_first_timed_check():
    done = run_bench(ROOT, "--workload", "paper", "--seed", "1", "--seconds", "0", "--setup-only")
    assert done.returncode == 0, done.stderr
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    assert probe["integrity"] == []
    assert probe["setup_s"] > 0
