"""The --check gate table: how a row is applied, which rows the runs emit,
the variant declarations that scope them, and the gamma < 1 of the first
relaxed soliton step."""

import math
from fractions import Fraction

import numpy as np
import pytest

from dispersive_sw import bbm_bbm, scenarios, timestepping
from dispersive_sw import svaerd_kalisch as sk
from dispersive_sw.cli import run_cli
from dispersive_sw.config import ScenarioConfig
from dispersive_sw.grid import make_uniform_grid
from dispersive_sw.scenarios import GATES, ScenarioResult, apply_gates

from .oracles import energy_rate_scale, modified_entropy_rate_scale

# -- applying one row ---------------------------------------------------------


def _one(scenario, key, value, declared):
    applied, reported = apply_gates(scenario, {key: value}, set(declared))
    assert reported == []
    [check] = applied
    return check


@pytest.mark.parametrize("bound, key, name", [
    (0.0, "l2_error_eta", "lake_at_rest_eta"),
    (1e-13, "mass_drift", "soliton_mass_drift"),
])
def test_at_most_passes_at_and_under_its_bound_and_fails_over_it(bound, key, name):
    scenario = "lake_at_rest" if name.startswith("lake") else "soliton"
    assert GATES[scenario][name][:3] == (key, "at_most", bound)
    for value, passed in ((bound, True), (np.nextafter(bound, -1.0), True),
                          (np.nextafter(bound, 1.0), False), (math.nan, False)):
        check = _one(scenario, key, value, ())
        assert (check.name, check.threshold, check.target) == (name, bound, None)
        assert check.passed is passed, value


@pytest.mark.parametrize("side", [1.0, -1.0])
def test_within_passes_at_and_under_its_width_and_fails_over_it(side):
    # the farthest float from the design order 4 that |EOC - 4| <= 0.3 admits
    at = 4.0 + side * 0.3
    while abs(np.nextafter(at, side * np.inf) - 4.0) <= 0.3:
        at = np.nextafter(at, side * np.inf)
    while abs(at - 4.0) > 0.3:
        at = np.nextafter(at, 4.0)
    for value, passed in ((at, True), (np.nextafter(at, 4.0), True),
                          (np.nextafter(at, side * np.inf), False), (math.nan, False)):
        check = _one("manufactured", "eoc_eta", {4: value}, ["periodic"])
        assert (check.name, check.threshold, check.target) == ("manufactured_eoc_eta_p4",
                                                               0.3, 4)
        assert check.passed is passed, value


def test_out_of_scope_rows_are_reported_with_the_tags_the_run_lacks():
    measured = {"gamma_max_excess": 1.0, "gamma_min_deficit": math.nan, "mass_drift": 0.0}
    applied, reported = apply_gates("soliton", measured, {"relaxed", "neither"})
    assert [c.name for c in applied] == ["soliton_mass_drift"]
    assert [(c.name, c.missing) for c in reported] == [
        ("soliton_gamma_max", ["conserves"]), ("soliton_gamma_min", ["conserves"])]


def test_eoc_gates_come_order_by_order():
    measured = {"eoc_eta": {2: 2.0, 4: 4.0}, "eoc_v": {2: 2.0, 4: 4.0}}
    applied, _ = apply_gates("soliton", measured, {"periodic"})
    assert [c.name for c in applied] == [
        "soliton_eoc_eta_p2", "soliton_eoc_v_p2", "soliton_eoc_eta_p4", "soliton_eoc_v_p4"]


def _fake_soliton(monkeypatch, declared):
    def fake_run(cfg):
        result = ScenarioResult("soliton")
        result.measured.update(mass_drift=0.0, gamma_max_excess=1.0,
                               gamma_min_deficit=math.nan)
        result.declared |= declared
        return result

    monkeypatch.setattr("dispersive_sw.cli.run_scenario", fake_run)
    return run_cli(["run", "--scenario", "soliton", "--check"])


def test_a_failing_out_of_scope_row_never_changes_the_exit_code(monkeypatch, capsys):
    assert _fake_soliton(monkeypatch, {"relaxed", "neither"}) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if ": soliton_" in line]
    assert lines == [
        "PASS: soliton_mass_drift value=0.000000e+00 threshold=1.000000e-13",
        "REPORTED: soliton_gamma_max value=1.000000e+00 threshold=1.000000e-06"
        " needs=conserves",
        "REPORTED: soliton_gamma_min value=nan threshold=0.000000e+00 needs=conserves",
    ]
    # the same values in scope fail the run
    assert _fake_soliton(monkeypatch, {"relaxed", "conserves"}) == 3


def test_within_lines_print_their_target(monkeypatch, capsys):
    def fake_run(cfg):
        result = ScenarioResult("manufactured")
        result.measured["eoc_v"] = {3: 2.5}
        result.declared.add("periodic")
        return result

    monkeypatch.setattr("dispersive_sw.cli.run_scenario", fake_run)
    assert run_cli(["run", "--scenario", "manufactured", "--check"]) == 3
    assert ("FAIL: manufactured_eoc_v_p3 value=2.500000e+00 target=3 width=3.000000e-01"
            in capsys.readouterr().out.splitlines())


# -- which rows the runs emit -------------------------------------------------

# one short run per scenario (two for dingemans: each model measures its own
# functional's drift), enough to emit every row
EMITTING_RUNS = [
    dict(scenario="soliton", order=2, n_nodes=64, t_end=0.2, relaxation=True),
    dict(scenario="soliton", eoc=True, orders=[2], resolutions=[32, 64], t_end=0.05),
    dict(scenario="manufactured", orders=[2], resolutions=[16, 32], t_end=0.01),
    dict(scenario="lake_at_rest", order=2, n_nodes=32, t_end=1.0),
    dict(scenario="reflecting_bump", n_nodes=64, t_end=0.01),
    dict(scenario="traveling_wave", n_nodes=64, t_end=0.5),
    dict(scenario="dingemans", model="svaerd_kalisch", n_nodes=128, t_end=0.05),
    dict(scenario="dingemans", n_nodes=128, t_end=0.05),
]


def test_every_emitted_gate_is_a_row_and_every_row_is_emitted():
    emitted = set()
    for values in EMITTING_RUNS:
        result = scenarios.run_scenario(ScenarioConfig(**values))
        applied, reported = apply_gates(result.scenario, result.measured, result.declared)
        for check in applied + reported:
            name = check.name if check.target is None else check.name.rsplit("_p", 1)[0]
            assert name in GATES[result.scenario], check.name
            emitted.add(name)
    assert emitted == {name for rows in GATES.values() for name in rows}


def test_every_row_names_a_known_kind_and_scope_tag():
    tags = {"relaxed", "unrelaxed", "periodic", "bounded", "conserves", "dissipates",
            "neither", "long_wave"}
    for rows in GATES.values():
        for key, kind, bound, scope, reason in rows.values():
            assert kind in ("at_most", "within") and bound >= 0.0 and reason
            assert set(scope.split()) <= tags


# -- the declarations that scope the rows ------------------------------------

PERIODIC_VARIANTS = [(model, variant) for model in (bbm_bbm, sk)
                     for variant, row in model.VARIANTS.items() if row[0] == "periodic"]


@pytest.mark.parametrize("model, variant", PERIODIC_VARIANTS, ids=[
    f"{model.__name__.rsplit('.', 1)[-1]}-{variant}" for model, variant in PERIODIC_VARIANTS])
def test_each_periodic_variant_declares_what_its_rhs_does_to_its_functional(model, variant):
    # dJ/dt = J'(y) rhs(y), relative to the size of its terms, at a smooth
    # state and at its mirror image (v negated): a variant that neither
    # conserves nor dissipates changes sign between the two
    grid = make_uniform_grid(-1.0, 1.0, 128, "periodic")
    ops = scenarios._operators(grid, model.VARIANTS[variant][1], 4)
    x = grid.nodes
    eta, v = 0.1 * np.exp(-10.0 * x**2), 0.1 * np.sin(np.pi * x)
    if model is bbm_bbm:
        disc = bbm_bbm.BbmBbmDiscretization(grid, ops, lambda x: np.full_like(x, -1.0),
                                            9.81, variant)
        scale = energy_rate_scale
    else:
        disc = sk.SkDiscretization(grid, ops, np.zeros_like, 9.81, 1.0, "set2", variant)
        eta, scale = 1.0 + eta, modified_entropy_rate_scale
    rates = []
    for y in (np.concatenate([eta, v]), np.concatenate([eta, -v])):
        ydot = disc.rhs(0.0, y)
        rates.append(disc.functional().delta_coefficients(y, ydot)[0] / scale(disc, y, ydot))
    # conserving variants read up to 2.1e-14 here, the others 5.1e-10 and more
    assert {"conserves": max(map(abs, rates)) <= 1e-12,
            "dissipates": max(rates) <= 1e-12 and min(rates) <= -1e-10,
            "neither": max(rates) >= 1e-10 and min(rates) <= -1e-10}[disc.balance]


# -- soliton_gamma_min on the first step of an order-8 run --------------------


def test_gamma_below_one_is_the_root_of_the_first_steps_computed_cubic(monkeypatch):
    # soliton --order 8 --n-nodes 512 --t-end 0.3 --relaxation fails
    # soliton_gamma_min on its first step: evaluated exactly, the cubic of
    # that step's coefficients has its root within 2 ulp of the gamma found,
    # and that gamma is below 1
    seen = []

    def recording(y, du, functional, _real=timestepping._relax_increment):
        gamma, fallback = _real(y, du, functional)
        seen.append((gamma, functional.delta_coefficients(y, du)))
        return gamma, fallback

    monkeypatch.setattr(timestepping, "_relax_increment", recording)
    cfg = ScenarioConfig("soliton", order=8, n_nodes=512, t_end=0.3, relaxation=True)
    result = scenarios.scenario_soliton(cfg)
    gamma, coefficients = seen[0]
    assert 1.0 - gamma == result.measured["gamma_min_deficit"] > 0.0
    c1, c2, c3 = map(Fraction, coefficients)

    def q(g):  # r(g) / g, exactly
        g = Fraction(g)
        return c1 + g * (c2 + g * c3)

    ulp = np.spacing(gamma)
    assert q(gamma - 2 * ulp) > 0 > q(gamma + 2 * ulp) and gamma + 2 * ulp < 1.0
    assert [c.name for c in result.checks if not c.passed] == ["soliton_gamma_min"]
