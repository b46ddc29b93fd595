"""Tests of the benchmark itself: run with `python3 -m pytest bench/test_bench.py`."""

import json
import pickle
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def deck_bytes(name, seed):
    deck = run.WORKLOADS[name].generate(run.seeded_rng(seed, name))
    return pickle.dumps([(item.kind, item.n, item.data) for item in deck])


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_same_seed_same_inputs(name):
    assert deck_bytes(name, 7) == deck_bytes(name, 7)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_other_seed_other_inputs_same_sizes(name):
    assert deck_bytes(name, 7) != deck_bytes(name, 8)
    sizes = [sorted((item.kind, item.n) for item in
                    run.WORKLOADS[name].generate(run.seeded_rng(seed, name)))
             for seed in (7, 8)]
    assert sizes[0] == sizes[1]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    assert declared == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    for name, _ in run.END_TO_END + run.PER_LAYER:
        assert NAME.fullmatch(name), name


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc


def result_line(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_smoke_run_has_no_failures(name):
    result = result_line(bench("--workload", name, "--seed", "3", "--seconds", "0", "--trace", "0"))
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m for m, _ in run.END_TO_END}
    assert result["failed"] == 0 and result["correct"]


# Each known defect's probe must still find it. Once the library is fixed the
# test passes unexpectedly and fails as strict; then drop the defect from
# KNOWN_DEFECTS and give the workloads back the inputs it kept them from.
@pytest.mark.parametrize("defect", sorted(run.wl.KNOWN_DEFECTS))
@pytest.mark.xfail(strict=True, reason="known library defect")
def test_known_defect_is_fixed(defect):
    tv = run.load_prodtv()
    assert run.wl.KNOWN_DEFECTS[defect](tv) is None


def test_traced_smoke_run_reports_every_layer():
    result = result_line(bench("--workload", "mc_sampling", "--seed", "3", "--seconds", "0",
                               "--trace", "1"))
    assert set(result["metrics"]) == {m for m, _ in run.PER_LAYER}
    assert result["metrics"]["core.mc.samples"]["value"] > 0
    assert result["failed"] == 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "mc_sampling",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
