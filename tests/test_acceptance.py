"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Shared expensive runs (the long solitary-wave integrations) live in
module-scoped fixtures.  Thresholds are fixed here, not configurable.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dispersive_sw import bbm_bbm, scenarios, svaerd_kalisch
from dispersive_sw.bbm_bbm import build_bbm_discretization
from dispersive_sw.config import ScenarioConfig
from dispersive_sw.grid import make_uniform_grid, split_flat
from dispersive_sw.sbp import (
    BOUNDED_ORDERS,
    PERIODIC_CENTRAL_ORDERS,
    UPWIND_ORDERS,
    build_bounded_central_d1,
    build_periodic_central_d1,
    build_periodic_d2,
    build_periodic_upwind,
    periodic_operators,
    verify_sbp_identity,
)
from dispersive_sw.scenarios import (
    scenario_dingemans,
    scenario_lake_at_rest,
    scenario_manufactured,
    scenario_reflecting_bump,
    scenario_soliton,
)
from dispersive_sw.svaerd_kalisch import (
    build_sk_discretization,
    euler_phase_speed,
    sk_dispersion_omega,
)
from dispersive_sw.bbm_bbm import bbm_phase_speed

from .oracles import (
    dense_operator,
    fitted_phase_speed,
    modified_entropy_rate_scale,
    sk_central_nonsplit_rhs,
)

G = 9.81


def _report(name, passed, detail=""):
    print(f"{'PASS' if passed else 'FAIL'}: {name} {detail}")
    assert passed, f"{name}: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_01_sbp_identity_suite():
    grid_p = make_uniform_grid(0.0, 1.0, 64, "periodic")
    grid_b = make_uniform_grid(-1.0, 1.0, 64, "bounded")
    rng = np.random.default_rng(123)
    worst = 0.0
    checked = []
    for order in (2, 4, 6, 8):
        checked.append(build_periodic_central_d1(grid_p, order))
        checked.append(build_periodic_d2(grid_p, order))
    pairs = [build_periodic_upwind(grid_p, order) for order in (1, 2, 3, 4)]
    bounded = [build_bounded_central_d1(grid_b, order) for order in (2, 4, 6)]
    ok = True
    for op in checked + pairs + bounded:
        report = verify_sbp_identity(op)
        ok &= report.passed
        worst = max(worst, max(report.residuals.values()) / report.threshold)
    # Lemma items 1-3 on 100 random vectors
    for op in checked:
        d = dense_operator(op)
        lhs = op.mass.diagonal @ d
        ok &= np.max(np.abs(lhs)) <= 1e-13 * np.max(np.abs(d))
    for _ in range(100):
        u = rng.normal(size=64)
        m = checked[0].mass.diagonal
        norm2 = float(np.sum(m * u * u))
        for order in (2, 4, 6, 8):
            d1 = next(
                op for op in checked
                if op.kind == "periodic_central_d1" and op.accuracy_order == order
            )
            ok &= abs(np.sum(m * u * d1.apply(u))) <= 1e-12 * norm2
        for pair in pairs:
            ok &= np.sum(m * u * pair.d_minus.apply(u)) >= -1e-12 * norm2
            ok &= np.sum(m * u * pair.d_plus.apply(u)) <= 1e-12 * norm2
    _report("criterion-1 SBP identity suite", ok,
            f"(worst residual/threshold = {worst:.2e})")


def test_criterion_02_soliton_eoc():
    cfg = ScenarioConfig(scenario="soliton", model="bbm_bbm", eoc=True,
                         orders=[2, 4, 6], resolutions=[128, 256, 512], t_end=1.0)
    res = scenario_soliton(cfg)
    detail = {c.name: round(c.value, 3) for c in res.checks}
    _report("criterion-2 soliton EOC", all(c.passed for c in res.checks), str(detail))


@pytest.fixture(scope="module")
def soliton_runs():
    runs = {}
    for relax in (True, False):
        cfg = ScenarioConfig(
            scenario="soliton", model="bbm_bbm", order=8, n_nodes=512,
            relaxation=relax,
        )
        runs[relax] = scenario_soliton(cfg)
    return runs


def test_criterion_03_fully_discrete_energy_conservation(soliton_runs):
    relaxed, baseline = soliton_runs[True], soliton_runs[False]
    drift_relaxed = relaxed.info["energy_drift"]
    drift_baseline = baseline.info["energy_drift"]
    ok = drift_relaxed <= 1e-12
    ok &= drift_baseline > drift_relaxed
    # monotone trend of the baseline drift: growing magnitude, fixed sign
    header, rows = baseline.tables["invariants"]
    energy = np.array([r[header.index("energy")] for r in rows])
    drift = energy - energy[0]
    quarters = [drift[len(drift) * q // 4 - 1] for q in (1, 2, 3, 4)]
    ok &= all(
        abs(a) < abs(b) and np.sign(a) == np.sign(b)
        for a, b in zip(quarters, quarters[1:])
    )
    mass_ok = all(
        next(c for c in runs.checks if c.name == "soliton_mass_drift").passed
        for runs in soliton_runs.values()
    )
    ok &= mass_ok
    _report(
        "criterion-3 fully discrete energy conservation", ok,
        f"(relaxed {drift_relaxed:.2e}, baseline {drift_baseline:.2e})",
    )


def test_criterion_04_relaxation_parameter_range(soliton_runs):
    header, rows = soliton_runs[True].tables["invariants"]
    gammas = np.array([r[-1] for r in rows[1:]])
    ok = bool(np.all(gammas >= 1.0) and np.all(gammas <= 1.0 + 1e-6))
    _report(
        "criterion-4 relaxation parameter range", ok,
        f"(gamma in [{gammas.min():.12f}, {gammas.max():.12f}])",
    )


def test_criterion_05_well_balancedness():
    ok = True
    details = []
    for model in ("bbm_bbm", "svaerd_kalisch"):
        for order in (2, 4, 6):
            cfg = ScenarioConfig(scenario="lake_at_rest", model=model, order=order)
            res = scenario_lake_at_rest(cfg)
            ok &= all(c.passed for c in res.checks)
            details.append(f"{model[:3]}-p{order}:{res.info['l2_error_eta']:.1e}")
    _report("criterion-5 well-balancedness", ok, "(" + " ".join(details) + ")")


@pytest.mark.parametrize(
    "model, variant",
    [("bbm_bbm", v) for v in bbm_bbm.VARIANTS]
    + [("svaerd_kalisch", v) for v in svaerd_kalisch.VARIANTS],
)
@given(st.data())
@settings(max_examples=50, deadline=None)
def test_every_variant_is_exactly_at_rest(model, variant, data):
    # v = 0 under a constant surface over random bathymetry: the right-hand
    # side of every variant of both models, periodic and reflecting, is 0.0
    if variant.startswith("reflecting"):
        orders, bc = BOUNDED_ORDERS, "bounded"
    else:
        upwind = variant.endswith("upwind")
        orders, bc = UPWIND_ORDERS if upwind else PERIODIC_CENTRAL_ORDERS, "periodic"
    order = data.draw(st.sampled_from(orders))
    n = data.draw(st.integers(24, 80))
    grid = make_uniform_grid(-1.0, 1.0, n, bc)
    ops = scenarios._operators(grid, variant, order)
    if variant == "periodic_const_narrow":
        depth = np.full(n, data.draw(st.floats(0.05, 3.0)))
    else:
        depth = data.draw(arrays(np.float64, n, elements=st.floats(0.05, 3.0)))
    level = data.draw(st.floats(-2.0, 2.0))
    if model == "bbm_bbm":
        # the still level is 0 inside this model; any constant surface rests
        disc = build_bbm_discretization(grid, ops, lambda x: -depth, G, variant)
    else:
        # reflecting boundaries take set5 only (no alpha or gamma terms)
        params = data.draw(st.sampled_from(["set5"] if bc == "bounded"
                                           else ["set2", "set3", "set5"]))
        disc = build_sk_discretization(grid, ops, lambda x: level - depth, G, level,
                                       params, variant)
    y = np.concatenate([np.full(n, level), np.zeros(n)])
    rhs = disc.rhs(0.0, y)
    assert np.max(np.abs(rhs)) == 0.0, (model, variant, order, n)


def test_criterion_06_manufactured_eoc():
    # per-model default spans: t = 1 (BBM-BBM), t = 0.5 (Svärd-Kalisch,
    # whose coarsest grids run dry at t = 1 under the steepening fields)
    ok = True
    details = []
    for model in ("bbm_bbm", "svaerd_kalisch"):
        cfg = ScenarioConfig(
            scenario="manufactured", model=model, orders=[2, 3, 4],
            resolutions=[64, 128, 256],
        )
        res = scenario_manufactured(cfg)
        ok &= all(c.passed for c in res.checks)
        details += [
            f"{model[:3]}-{'v' if '_v_' in c.name else 'eta'}"
            f"{c.name.rsplit('p', 1)[-1]}:{c.value:.2f}"
            for c in res.checks
        ]
    _report("criterion-6 manufactured EOC", ok, "(" + " ".join(details) + ")")


def test_criterion_07_sk_semidiscrete_invariants():
    grid = make_uniform_grid(-1.0, 1.0, 64, "periodic")
    bathy = lambda x: 1.0 + 0.3 * np.sin(np.pi * x)
    ops_c = periodic_operators(grid, 4)
    ops_u = periodic_operators(grid, 3, upwind=True)
    central = build_sk_discretization(
        grid, ops_c, bathy, G, 2.0, "set2", "periodic_central_split"
    )
    upwind = build_sk_discretization(
        grid, ops_u, bathy, G, 2.0, "set2", "periodic_upwind"
    )
    func = central.functional()
    func_up = upwind.functional()
    rng = np.random.default_rng(99)
    ok = True
    worst_central = 0.0
    min_break = np.inf
    x = grid.nodes
    for _ in range(50):
        eta = 2.0 + sum(
            0.05 * rng.normal() * np.cos((m + 1) * np.pi * (x + rng.uniform()))
            for m in range(4)
        )
        v = sum(
            0.1 * rng.normal() * np.sin((m + 1) * np.pi * x + rng.uniform())
            for m in range(4)
        )
        y = np.concatenate([eta, v])
        rate_c = func.delta_coefficients(y, central.rhs(0.0, y))[0]
        scale_c = modified_entropy_rate_scale(central, y, central.rhs(0.0, y))
        ok &= abs(rate_c) / scale_c <= 1e-10
        worst_central = max(worst_central, abs(rate_c) / scale_c)
        rate_u = func_up.delta_coefficients(y, upwind.rhs(0.0, y))[0]
        scale_u = modified_entropy_rate_scale(upwind, y, upwind.rhs(0.0, y))
        ok &= rate_u / scale_u <= 1e-12
        # the non-split form of the oracle, on the same velocity system
        rate_n = abs(func.delta_coefficients(y, sk_central_nonsplit_rhs(central, y))[0])
        min_break = min(min_break, rate_n / max(abs(rate_c), 1e-300))
    ok &= min_break >= 1e3
    _report(
        "criterion-7 SK semidiscrete invariants", ok,
        f"(central worst {worst_central:.1e}, naive break factor {min_break:.1e})",
    )


def test_criterion_08_reflecting_bump_invariants():
    ok = True
    details = []
    for model in ("bbm_bbm", "svaerd_kalisch"):
        cfg = ScenarioConfig(scenario="reflecting_bump", model=model, n_nodes=512)
        res = scenario_reflecting_bump(cfg)
        ok &= all(c.passed for c in res.checks)
        details.append(f"{model[:3]}:relaxedE{res.info['energy_drift_relaxed']:.1e}")
    _report("criterion-8 reflecting bump invariants", ok, "(" + " ".join(details) + ")")


def test_criterion_09_dispersion_cross_check():
    ok = abs(euler_phase_speed(0.8, 0.8, G) - 2.6319) <= 5e-4
    ok &= abs(bbm_phase_speed(0.8, 0.8, G) - 2.6224) <= 5e-4
    ok &= abs(sk_dispersion_omega(0.8, "set2", 0.8, G) / 0.8 - 2.6316) <= 5e-4
    worst = 0.0
    for name in ("set2", "set3", "set4", "set5"):
        for k in (0.8, 5.0, 15.0):
            formula = sk_dispersion_omega(k, name, 0.8, G) / k
            oracle = fitted_phase_speed(k, name, 0.8)
            rel = abs(formula - oracle) / formula
            worst = max(worst, rel)
            ok &= rel <= 5e-3
    _report("criterion-9 dispersion cross-check", ok,
            f"(worst oracle deviation {worst:.1e})")


def test_criterion_10_dingemans_reduced_resolution():
    ok = True
    details = []
    for variant, relax in (
        ("periodic_central_split", False),
        ("periodic_central_split", True),
        ("periodic_upwind", False),
    ):
        cfg = ScenarioConfig(
            scenario="dingemans", model="svaerd_kalisch", variant=variant,
            relaxation=relax, n_nodes=512, order=4, t_end=70.0,
        )
        res = scenario_dingemans(cfg)
        ok &= all(c.passed for c in res.checks)
        details.append(
            f"{variant.rsplit('_', 1)[-1]}{'+relax' if relax else ''}:"
            f"ME{res.info['modified_entropy_drift']:.1e}"
        )
    # upwind monotone non-increasing is asserted inside the scenario checks
    _report("criterion-10 Dingemans reduced resolution", ok,
            "(" + " ".join(details) + ")")
