"""The benchmark's statistics, derived metrics, output checks and hook table."""

import json
import statistics

import pytest

import calibrate
import run
import spans
from spans import Hook, HookError, Tracer, layer_metrics, self_times
from workloads import WORKLOADS, Workload


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    q1, median, q3 = run.quartiles(values)
    assert [q1, median, q3] == statistics.quantiles(values, n=4)
    assert run.spread(values) == pytest.approx((q3 - q1) / median)


def test_quartiles_of_one_sample_collapse_to_it():
    assert run.quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert run.spread([2.5]) == 0.0
    assert run.summary([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1}


def test_end_to_end_values_are_scaled_to_the_reference_speed():
    sample = {"slowdown": 1.25, "wall_s": 2.5, "setup_s": 0.5, "steps_per_s": 200.0,
              "peak_rss_mb": 100.0, "import_s": 1.0}
    at_reference = {name: run.normalised(sample, name) for name in run.END_TO_END}
    assert at_reference == pytest.approx({"wall_s": 2.0, "setup_s": 0.4, "steps_per_s": 250.0,
                                          "peak_rss_mb": 100.0, "import_s": 0.8})


def test_calibration_runs_at_least_one_chunk():
    times = calibrate.chunk_times(0.0)
    assert len(times) == 1
    assert calibrate.slowdown(times) == pytest.approx(times[0] / calibrate.REFERENCE_CHUNK_S)


def test_self_time_subtracts_direct_children_and_nested_calls_count_once():
    recorded = [
        ("rhs", 0.0, 10.0, -1),
        ("apply", 1.0, 4.0, 0),
        ("apply", 2.0, 3.0, 1),  # nested inside the same layer
        ("solve", 5.0, 6.0, 0),
        ("apply", 11.0, 12.0, -1),
    ]
    seconds, calls = self_times(recorded)
    assert seconds["rhs"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert seconds["apply"] == pytest.approx(2.0 + 1.0 + 1.0)
    assert seconds["solve"] == pytest.approx(1.0)
    assert calls == {"rhs": 1, "apply": 2, "solve": 1}


def _integration(steps, rhs, relaxed=0, rejected=0, fallbacks=0):
    return {"n_steps": steps, "n_rejected": rejected, "n_rhs": rhs,
            "relaxed_steps": relaxed, "relaxation_fallbacks": fallbacks}


def test_layer_metrics_ratios():
    recorded = [("timestepping.integrate", 0.0, 10.0, -1)]
    recorded += [("sbp.apply", 1.0 + i, 1.5 + i, 0) for i in range(4)]
    recorded += [("timestepping.relax", 6.0, 6.25, 0), ("timestepping.relax", 7.0, 7.25, 0)]
    m = layer_metrics(recorded, {"scenarios.csv_bytes": 2 * spans.MIB},
                      [_integration(2, 14, relaxed=1), _integration(3, 4, rejected=1)])
    assert m["sbp.apply_calls"] == 4
    assert m["sbp.apply_us"] == pytest.approx(0.5e6)
    assert m["timestepping.steps"] == 5
    assert m["timestepping.rejected"] == 1
    assert m["timestepping.rhs_per_step"] == pytest.approx(18 / 5)
    assert m["timestepping.relax_evals_per_step"] == pytest.approx(2.0)
    assert m["timestepping.relax_s"] == pytest.approx(0.5)
    assert m["timestepping.integrate_self_s"] == pytest.approx(10.0 - 2.0 - 0.5)
    assert m["scenarios.csv_mb"] == pytest.approx(2.0)


def test_layer_metrics_without_work_are_zero_not_errors():
    m = layer_metrics([], {}, [])
    assert m["sbp.apply_us"] == 0.0
    assert m["timestepping.rhs_per_step"] == 0.0
    assert m["timestepping.relax_evals_per_step"] == 0.0


def test_wrapped_calls_record_nested_spans():
    tracer = Tracer()

    def inner(x):
        return x + 1

    traced_inner = tracer.wrap("inner", "toy.inner", inner)
    outer = tracer.wrap("outer", "toy.outer", lambda x: traced_inner(x) * 2)
    assert outer(1) == 4
    assert [s[0] for s in tracer.spans] == ["outer", "inner"]
    assert tracer.spans[1][3] == 0  # inner's parent is the outer span
    assert tracer.hook_calls == {"toy.outer": 1, "toy.inner": 1}


def test_missing_hook_is_named():
    with pytest.raises(HookError, match="dispersive_sw.timestepping.no_such_step"):
        spans.resolve(Hook("timestepping.stage", "dispersive_sw.timestepping",
                           "no_such_step"))


def test_install_fails_before_patching_when_a_hook_is_gone(monkeypatch):
    from dispersive_sw import scenarios, timestepping

    monkeypatch.delattr(timestepping, "rk_step")
    with pytest.raises(HookError, match="dispersive_sw.timestepping.rk_step"):
        Tracer().install(traced=True)
    assert not hasattr(scenarios.integrate, "__wrapped__")


def test_idle_predicted_hook_is_named():
    tracer = Tracer()
    tracer.hook_calls["a.b"] += 1
    with pytest.raises(HookError, match="workload w: .*zero calls recorded by c.d"):
        tracer.check_busy(["a.b", "c.d"], "w")
    tracer.check_busy(["a.b"], "w")


def test_every_predicted_hook_exists_in_the_hook_table():
    known = {h.id for h in spans.HOOKS} | {spans.SOLVE_HOOK_ID}
    for workload in WORKLOADS.values():
        assert set(workload.busy_hooks) <= known, workload.name


def test_benchmark_json_matches_the_harness():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in declared["per_layer"]] == list(layer_metrics([], {}, []))


def _lake(tables=("errors",)):
    return Workload("lake", (), frozenset(tables), (), exact_rest=True)


def test_output_checks_demand_exact_rest_and_the_expected_tables(tmp_path):
    header = "model,order,n_nodes,t_end,l2_error_eta,l2_error_v\n"
    (tmp_path / "errors.csv").write_text(header + "svaerd_kalisch,4,200,0.1,0,0\n")
    assert run.output_problems(_lake(), tmp_path) == []
    (tmp_path / "errors.csv").write_text(header + "svaerd_kalisch,4,200,0.1,0,9.7e-15\n")
    assert run.output_problems(_lake(), tmp_path) == ["lake at rest moved: l2_error_v = 9.7e-15"]
    problems = run.output_problems(_lake(("errors", "snapshot")), tmp_path)
    assert any("expected ['errors', 'snapshot']" in p for p in problems)


def test_output_digest_sees_every_byte(tmp_path):
    (tmp_path / "a.csv").write_text("t,x\n0,1\n")
    first = run.output_digest(tmp_path)
    (tmp_path / "a.csv").write_text("t,x\n0,2\n")
    assert run.output_digest(tmp_path) != first


def test_digest_history_flags_disagreement(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run.check_digest_history("w", "src1", "aaa")
    assert run.check_digest_history("w", "src1", "aaa")
    assert not run.check_digest_history("w", "src1", "bbb")
    assert run.check_digest_history("w", "src2", "bbb")  # other sources, own record
