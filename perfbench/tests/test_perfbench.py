"""The benchmark's own tests: smoke runs of every workload, seed determinism,
output-check failures, and BENCHMARK.json against the code.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads

WORKLOADS = tuple(workloads.WORKLOADS)
DETERMINISTIC = {
    "train": ("holdout_mean_rank_t2i", "autodiff.tape_nodes_per_step"),
    "compress": ("codec_relative_error", "linalg.lloyd_iters"),
    "query": ("holdout_mean_rank_t2i", "model.encode_rows_per_search"),
}


def _traced(name, seed):
    result, record = run.run_workload(name, seed, 0, trace=True, smoke=True)
    assert result["correct"], record["failures"]
    return result, record


def _value(result, record, key):
    if key in record["figures"]:
        return record["figures"][key]
    return result["metrics"][key]["value"]


def test_benchmark_json_matches_the_code():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == workloads.E2E_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (name, m["unit"], m["better"]) for name, m in tracing.LAYER_MOVES.items()
    ]
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(name):
    result, record = run.run_workload(name, 5, 0, trace=False, smoke=True)
    assert result["correct"], record["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(workloads.E2E_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["env"]["blas_threads"] <= record["env"]["nproc"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_repeats_and_another_seed_differs(name):
    first, first_record = _traced(name, 3)
    again, again_record = _traced(name, 3)
    other, other_record = _traced(name, 4)
    assert set(first["metrics"]) == set(tracing.PER_LAYER)
    assert first_record["inputs_sha256"] == again_record["inputs_sha256"]
    assert first_record["inputs_sha256"] != other_record["inputs_sha256"]
    assert first_record["operations"] == again_record["operations"]
    assert first_record["span_sequence_sha256"] == again_record["span_sequence_sha256"]
    for key in DETERMINISTIC[name]:
        assert _value(first, first_record, key) == _value(again, again_record, key), key
    assert os.path.isfile(os.path.join(run.ROOT, first_record["spans"]))


def test_layer_metrics_take_self_time_and_shares():
    # a train stage holding one optimizer step: forward with a matmul, then Adam
    spans = [
        ["cli.train", 0, 100, -1, "train#0", None],
        ["align.train", 5, 95, 0, "train#0", None],
        ["model.forward_batch", 10, 40, 1, "train#0", None],
        ["autodiff.matmul", 15, 35, 2, "train#0", 2000],
        ["align.adam_step", 50, 60, 1, "train#0", None],
    ]
    m = tracing.layer_metrics(spans, 200, {})
    assert m["autodiff.matmul.calls_per_step"] == 1.0
    assert m["autodiff.matmul.gflop_per_s"] == 100.0
    assert m["model.forward_batch_ms"] == 10 / 1e6
    assert m["cli.train.self_ms"] == 10 / 1e6
    assert m["align.step_ms"] == 50 / 1e6
    assert m["share.align"] == 0.3 and m["share.autodiff"] == 0.1
    assert m["share.bench"] == pytest.approx(0.5)


def test_failed_check_counts_and_exits_nonzero(monkeypatch, capsys):
    monkeypatch.setitem(workloads.TRAIN_RANK_GATE, "smoke", 0.0)
    code = run.main(["--workload", "train", "--seed", "5", "--seconds", "0", "--smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] == 1 == result["attempted"]


def test_one_command_runs_every_workload():
    proc = subprocess.run(
        [sys.executable, os.path.join(run.ROOT, "perfbench", "run.py"), "--workload", "all",
         "--seed", "2", "--seconds", "0", "--smoke"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for name in WORKLOADS:
        assert f"== {name}:" in proc.stdout
    for metric, unit in workloads.E2E_UNITS.items():
        assert proc.stdout.count(f" {unit}\n") >= 3
        assert proc.stdout.count(metric) >= 3


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(run.ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
