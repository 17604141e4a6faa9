"""Live checks of the instrumentation on the program at this checkout.

Each test starts the benchmark's child process, as run.py does, and reads
the counts the traced run recorded.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
from workloads import WORKLOADS


def traced_child(tmp_path, workload):
    result = tmp_path / "child.json"
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "child.py"), "--workload", workload,
         "--out-dir", str(tmp_path / "out"), "--result", str(result), "--trace", "1"],
        cwd=run.ROOT, env=run.child_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(result.read_text())
    assert record["cli_rc"] == 0, record["cli_stdout"] + str(record["error"])
    return record


@pytest.fixture(scope="module")
def lake(tmp_path_factory):
    return traced_child(tmp_path_factory.mktemp("lake"), "sk_lake_at_rest")


@pytest.fixture(scope="module")
def soliton(tmp_path_factory):
    return traced_child(tmp_path_factory.mktemp("soliton"), "bbm_soliton_relaxed")


def test_relaxation_makes_about_eight_functional_calls_per_step(soliton, lake):
    assert 7 <= soliton["layers"]["timestepping.relax_evals_per_step"] <= 9
    assert lake["layers"]["timestepping.relax_evals_per_step"] == 0


def test_sk_factors_once_per_rhs(lake):
    layers = lake["layers"]
    rhs_calls = lake["hook_calls"]["dispersive_sw.svaerd_kalisch.SkDiscretization.rhs"]
    assert layers["linsolve.factor_calls"] == rhs_calls
    assert rhs_calls == round(layers["timestepping.rhs_per_step"] * layers["timestepping.steps"])
    assert layers["timestepping.steps"] == 500


def test_no_dense_fallback(lake, soliton):
    assert lake["layers"]["linsolve.dense_paths"] == 0
    assert soliton["layers"]["linsolve.dense_paths"] == 0


def test_predicted_layers_all_record_work(lake, soliton):
    for record, name in ((lake, "sk_lake_at_rest"), (soliton, "bbm_soliton_relaxed")):
        for hook in WORKLOADS[name].busy_hooks:
            assert record["hook_calls"].get(hook, 0) > 0, (name, hook)


def _bench_copy(tmp_path, with_src):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    if with_src:
        shutil.copytree(run.ROOT / "src", tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def _bench(checkout):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sk_lake_at_rest",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=300,
    )


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    proc = _bench(_bench_copy(tmp_path, with_src=False))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "no dispersive_sw sources" in proc.stderr


def test_a_renamed_hook_fails_the_benchmark_by_name(tmp_path):
    checkout = _bench_copy(tmp_path, with_src=True)
    linsolve = checkout / "src" / "dispersive_sw" / "linsolve.py"
    linsolve.write_text(linsolve.read_text() + "\nShiftedSolver.refactor = ShiftedSolver.factor"
                        "\ndel ShiftedSolver.factor\n")
    proc = _bench(checkout)
    assert proc.returncode == 2
    assert proc.stdout.strip() == ""
    assert "dispersive_sw.linsolve.ShiftedSolver.factor is missing" in proc.stderr
