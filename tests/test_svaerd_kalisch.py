import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dispersive_sw.errors import ConfigurationError, DimensionError, DomainError
from dispersive_sw.grid import make_uniform_grid, split_flat
from dispersive_sw.manufactured import sk_manufactured
from dispersive_sw.sbp import bounded_operators, periodic_operators
from dispersive_sw.svaerd_kalisch import (
    PARAMETER_SETS,
    build_sk_discretization,
    euler_phase_speed,
    sk_dispersion_omega,
    sk_parameter_set,
)

from .oracles import (
    fitted_phase_speed,
    modified_entropy_rate_scale,
    sk_central_nonsplit_rhs,
    sk_central_split_rhs,
)

G = 9.81
ETA0 = 2.0


def _bathymetry(x):
    return 1.0 + 0.3 * np.sin(np.pi * x)


def _positive_state(grid, seed=0, eta0=ETA0):
    rng = np.random.default_rng(seed)
    x = grid.nodes
    eta = eta0 + sum(
        0.05 * rng.normal() * np.cos((m + 1) * np.pi * (x + rng.uniform()))
        for m in range(3)
    )
    v = sum(
        0.1 * rng.normal() * np.sin((m + 1) * np.pi * x + rng.uniform())
        for m in range(3)
    )
    return np.concatenate([eta, v])


def _build(variant, params="set2", order=4, n=80, bc="periodic"):
    grid = make_uniform_grid(-1.0, 1.0, n, bc)
    if bc == "periodic":
        ops = periodic_operators(grid, order, upwind=variant == "periodic_upwind")
    else:
        ops = bounded_operators(grid, order)
    disc = build_sk_discretization(
        grid, ops, _bathymetry, G, ETA0, params, variant
    )
    return grid, ops, disc


# -- parameter sets ------------------------------------------------------------


def test_parameter_set_values():
    s2 = sk_parameter_set("set2")
    assert s2.alpha_tilde == 0.0004040404040404049
    assert s2.beta_tilde == 0.49292929292929294
    assert s2.gamma_tilde == 0.15707070707070708
    s5 = sk_parameter_set("set5")
    assert (s5.alpha_tilde, s5.beta_tilde, s5.gamma_tilde) == (0.0, 1.0 / 3.0, 0.0)
    s1 = sk_parameter_set("set1")
    assert s1.alpha_tilde == -1.0 / 3.0


def test_unknown_parameter_set():
    with pytest.raises(ConfigurationError):
        sk_parameter_set("set9")


def test_set1_rejected_for_variable_bathymetry():
    # ahat^2 = atilde sqrt(g D) D^2 needs atilde >= 0: set1 (atilde = -1/3)
    # is rejected, every other set builds
    grid = make_uniform_grid(-1.0, 1.0, 64, "periodic")
    ops = periodic_operators(grid, 4)
    with pytest.raises(ConfigurationError, match="alpha_tilde < 0"):
        build_sk_discretization(
            grid, ops, _bathymetry, G, ETA0, "set1", "periodic_central_split"
        )
    for name in sorted(set(PARAMETER_SETS) - {"set1"}):
        build_sk_discretization(
            grid, ops, _bathymetry, G, ETA0, name, "periodic_central_split"
        )


# -- coefficient law ------------------------------------------------------------


def test_coefficient_fields_follow_power_law():
    grid, ops, disc = _build("periodic_central_split", params="set2")
    depth = disc.still_depth
    np.testing.assert_allclose(
        disc.alpha_hat**2,
        0.0004040404040404049 * np.sqrt(G * depth) * depth**2,
        rtol=1e-13,
    )
    np.testing.assert_allclose(
        disc.beta_hat, 0.49292929292929294 * depth**3, rtol=1e-14
    )
    np.testing.assert_allclose(
        disc.gamma_hat, 0.15707070707070708 * np.sqrt(G * depth) * depth**3,
        rtol=1e-13,
    )


def test_coefficients_vanish_with_depth():
    # scaling D by epsilon sends the three fields to zero like
    # eps^(5/2), eps^3, eps^(7/2)
    grid = make_uniform_grid(-1.0, 1.0, 16, "periodic")
    ops = periodic_operators(grid, 2)
    hats = []
    for eps in (1.0, 0.01):
        # constant still depth D = eps
        disc = build_sk_discretization(
            grid, ops, lambda x, e=eps: np.full_like(x, ETA0 - e),
            G, ETA0, "set2", "periodic_central_split",
        )
        hats.append((disc.alpha_hat[0] ** 2, disc.beta_hat[0], disc.gamma_hat[0]))
    ratios = [hats[1][i] / hats[0][i] for i in range(3)]
    assert ratios[0] == pytest.approx(0.01 ** 2.5, rel=1e-10)
    assert ratios[1] == pytest.approx(0.01**3, rel=1e-10)
    assert ratios[2] == pytest.approx(0.01 ** 3.5, rel=1e-10)


def test_discontinuous_bathymetry_accepted():
    from dispersive_sw.scenarios import lake_bathymetry

    grid = make_uniform_grid(-1.0, 1.0, 100, "periodic")
    ops = periodic_operators(grid, 2)
    disc = build_sk_discretization(
        grid, ops, lake_bathymetry, G, 2.0, "set2", "periodic_central_split"
    )
    assert np.min(disc.still_depth) > 0.0


# -- semidiscrete structure ------------------------------------------------------


@pytest.mark.parametrize(
    "variant,params,bc",
    [
        ("periodic_central_split", "set2", "periodic"),
        ("periodic_upwind", "set2", "periodic"),
        ("reflecting_beta_only", "set5", "bounded"),
    ],
)
def test_lake_at_rest_rhs_vanishes(variant, params, bc):
    grid, ops, disc = _build(variant, params=params, bc=bc)
    y = np.concatenate([ETA0 * np.ones(grid.n_nodes), np.zeros(grid.n_nodes)])
    assert np.max(np.abs(disc.rhs(0.0, y))) <= 1e-13


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_central_lake_at_rest_rhs_is_exactly_zero(data):
    # v = 0 and a flat surface over random bathymetry: every term of the flux
    # form is an exact +0.0
    n = data.draw(st.integers(20, 80))
    depth = data.draw(arrays(np.float64, n, elements=st.floats(0.05, 3.0)))
    eta0 = data.draw(st.floats(-2.0, 2.0))
    grid = make_uniform_grid(-1.0, 1.0, n, "periodic")
    ops = periodic_operators(grid, data.draw(st.sampled_from([2, 4, 6, 8])))
    disc = build_sk_discretization(
        grid, ops, lambda x: eta0 - depth, G, eta0,
        data.draw(st.sampled_from(["set2", "set3", "set5"])),
        "periodic_central_split",
    )
    y = np.concatenate([np.full(n, eta0), np.zeros(n)])
    assert disc.rhs(0.0, y).tobytes() == np.zeros(2 * n).tobytes()


class _NoSolve:
    """Velocity solver stand-in that hands back the right-hand side."""

    def factor(self, diagonal):
        return self

    def solve(self, rhs):
        return rhs


@pytest.mark.parametrize("sourced", [False, True])
@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("params", ["set2", "set3", "set5"])
def test_central_flux_form_equals_term_by_term_split_form(params, order, sourced):
    # D(v q) - v D q + q D v with q = y - h v against D(h v) and D(h v^2)
    # taken apart from D(v y) and D y: equal in exact arithmetic
    n = 41
    grid = make_uniform_grid(-1.0, 1.0, n, "periodic")
    source = sk_manufactured("periodic", G, params).source if sourced else None
    disc = build_sk_discretization(
        grid, periodic_operators(grid, order),
        lambda x: -2.0 - 0.3 * np.cos(np.pi * x),
        G, 0.0, params, "periodic_central_split", source_terms=source,
    )
    disc._velocity_solver = _NoSolve()
    rng = np.random.default_rng(11)
    for _ in range(5):
        eta, v = 0.1 * rng.normal(size=n), rng.normal(size=n)
        eta[::5], eta[1::7] = 0.0, -0.0
        v[::4], v[2::6] = -0.0, 0.0
        deta, rhs_v = disc.rhs_fields(np.array([eta, v]), 0.3)
        deta_ref, rhs_v_ref, scale = sk_central_split_rhs(disc, eta, v, 0.3)
        assert np.max(np.abs(deta - deta_ref)) <= 1e-13 * scale
        assert np.max(np.abs(rhs_v - rhs_v_ref)) <= 1e-13 * scale


def test_central_split_conserves_modified_entropy():
    grid, ops, disc = _build("periodic_central_split", params="set2")
    func = disc.functional()
    for seed in range(10):
        y = _positive_state(grid, seed)
        ydot = disc.rhs(0.0, y)
        rate = func.delta_coefficients(y, ydot)[0]
        scale = modified_entropy_rate_scale(disc, y, ydot)
        assert abs(rate) / scale <= 1e-10, seed


def test_upwind_dissipates_modified_entropy():
    grid, ops, disc = _build("periodic_upwind", params="set2")
    func = disc.functional()
    for seed in range(10):
        y = _positive_state(grid, seed)
        ydot = disc.rhs(0.0, y)
        rate = func.delta_coefficients(y, ydot)[0]
        scale = modified_entropy_rate_scale(disc, y, ydot)
        assert rate / scale <= 1e-12, seed


def test_upwind_with_alpha_zero_conserves():
    grid, ops, disc = _build("periodic_upwind", params="set3")
    func = disc.functional()
    y = _positive_state(grid, 3)
    ydot = disc.rhs(0.0, y)
    scale = modified_entropy_rate_scale(disc, y, ydot)
    assert abs(func.delta_coefficients(y, ydot)[0]) / scale <= 1e-11


def test_naive_split_breaks_conservation_by_orders_of_magnitude():
    grid, ops, split = _build("periodic_central_split", params="set2")
    func = split.functional()
    worst_ratio = np.inf
    for seed in range(5):
        y = _positive_state(grid, seed)
        r_split = abs(func.delta_coefficients(y, split.rhs(0.0, y))[0])
        r_naive = abs(func.delta_coefficients(y, sk_central_nonsplit_rhs(split, y))[0])
        worst_ratio = min(worst_ratio, r_naive / max(r_split, 1e-300))
    assert worst_ratio >= 1e3


def test_reflecting_conserves_modified_entropy_and_mass():
    grid, ops, disc = _build("reflecting_beta_only", params="set5", bc="bounded")
    func = disc.functional()
    n = grid.n_nodes
    for seed in range(5):
        y = _positive_state(grid, seed)
        y[n] = y[-1] = 0.0
        ydot = disc.rhs(0.0, y)
        scale = modified_entropy_rate_scale(disc, y, ydot)
        assert abs(func.delta_coefficients(y, ydot)[0]) / scale <= 1e-11
        h_dot = split_flat(ydot)[0]
        assert abs(ops.mass.diagonal @ h_dot) <= 1e-12
        assert ydot[n] == 0.0 and ydot[-1] == 0.0


def test_mass_rate_vanishes_all_variants():
    for variant, params, bc in (
        ("periodic_central_split", "set2", "periodic"),
        ("periodic_upwind", "set3", "periodic"),
    ):
        grid, ops, disc = _build(variant, params=params, bc=bc)
        y = _positive_state(grid, 7)
        deta = split_flat(disc.rhs(0.0, y))[0]
        assert abs(ops.mass.diagonal @ deta) <= 1e-12


def test_discharge_conserved_only_for_constant_bathymetry():
    grid = make_uniform_grid(-1.0, 1.0, 80, "periodic")
    ops = periodic_operators(grid, 4)
    flat = build_sk_discretization(
        grid, ops, lambda x: np.ones_like(x), G, ETA0, "set2",
        "periodic_central_split",
    )
    y = _positive_state(grid, 8)
    eta, v = split_flat(y)
    for disc, conserved in ((flat, True),):
        h = disc.water_height(eta)
        ydot = disc.rhs(0.0, y)
        deta, dv = split_flat(ydot)
        discharge_rate = ops.mass.diagonal @ (deta * v + h * dv)
        assert (abs(discharge_rate) <= 1e-11) == conserved
    varying = build_sk_discretization(
        grid, ops, _bathymetry, G, ETA0, "set2", "periodic_central_split"
    )
    h = varying.water_height(eta)
    deta, dv = split_flat(varying.rhs(0.0, y))
    assert abs(ops.mass.diagonal @ (deta * v + h * dv)) > 1e-6


def test_gamma_block_alone_conserves_entropy():
    # alpha = beta = 0, gamma > 0 over flat bottom: the gamma terms cancel
    # in the entropy balance
    grid = make_uniform_grid(-1.0, 1.0, 64, "periodic")
    ops = periodic_operators(grid, 4)
    from dispersive_sw.svaerd_kalisch import SkParameterSet

    gamma_only = SkParameterSet("custom", 0.0, 0.0, 0.05)
    disc = build_sk_discretization(
        grid, ops, lambda x: np.ones_like(x), G, ETA0, gamma_only,
        "periodic_central_split",
    )
    func = disc.functional()
    y = _positive_state(grid, 9)
    ydot = disc.rhs(0.0, y)
    scale = modified_entropy_rate_scale(disc, y, ydot)
    assert abs(func.delta_coefficients(y, ydot)[0]) / scale <= 1e-12


def test_invariant_values():
    grid = make_uniform_grid(0.0, 1.0, 40, "periodic")
    ops = periodic_operators(grid, 2)
    disc = build_sk_discretization(
        grid, ops, lambda x: np.zeros_like(x), G, 1.0, "set5",
        "periodic_central_split",
    )
    # h = 1, P = 0, b = 0: entropy density g/2
    y = np.concatenate([np.ones(40), np.zeros(40)])
    inv = disc.invariants(y)
    assert inv["mass"] == pytest.approx(1.0, abs=1e-14)
    assert inv["discharge"] == 0.0
    assert inv["entropy"] == pytest.approx(0.5 * G, rel=1e-14)
    assert inv["modified_entropy"] == inv["entropy"]  # v = 0 exactly


def test_modified_entropy_delta_matches_direct_difference():
    grid, ops, disc = _build("periodic_central_split")
    func = disc.functional()
    rng = np.random.default_rng(10)
    y = _positive_state(grid, 11)
    dy = 1e-3 * rng.normal(size=y.size)
    coefficients = func.delta_coefficients(y, dy)
    for gamma in (0.4, 1.0, 1.5):
        direct = func.value(y + gamma * dy) - func.value(y)
        assert func.delta(coefficients, gamma) == pytest.approx(direct, abs=1e-11)


# -- dispersion ------------------------------------------------------------------


def test_dispersion_long_wave_limit_all_sets():
    for name in ("set1", "set2", "set3", "set4", "set5"):
        omega = sk_dispersion_omega(1e-8, name, 0.8, G)
        assert omega / 1e-8 == pytest.approx(np.sqrt(G * 0.8), rel=1e-8)


def test_dispersion_swe_limit_without_coefficients():
    from dispersive_sw.svaerd_kalisch import SkParameterSet

    swe = SkParameterSet("custom", 0.0, 0.0, 0.0)
    for k in (0.5, 3.0, 12.0):
        assert sk_dispersion_omega(k, swe, 0.8, G) == pytest.approx(
            k * np.sqrt(G * 0.8), rel=1e-14
        )


def test_dispersion_printed_set2_value():
    assert sk_dispersion_omega(0.8, "set2", 0.8, G) / 0.8 == pytest.approx(
        2.6316, abs=5e-4
    )


def test_euler_phase_speed_values():
    assert euler_phase_speed(0.8, 0.8, G) == pytest.approx(2.6319, abs=5e-4)
    assert euler_phase_speed(1e-9, 0.8, G) == pytest.approx(
        np.sqrt(G * 0.8), rel=1e-8
    )
    k = np.linspace(0.5, 50.0, 300)
    c = euler_phase_speed(k, 0.8, G)
    assert np.all(np.diff(c) < 0.0)


@pytest.mark.parametrize("name", ["set2", "set3", "set4", "set5"])
@pytest.mark.parametrize("k", [0.8, 5.0, 15.0])
def test_dispersion_against_linearized_evolution_oracle(name, k):
    formula = sk_dispersion_omega(k, name, 0.8, G) / k
    oracle = fitted_phase_speed(k, name, 0.8)
    assert abs(formula - oracle) / formula <= 5e-3


def test_dispersion_rejects_bad_arguments():
    with pytest.raises(DomainError):
        sk_dispersion_omega(-1.0, "set2", 0.8, G)
    with pytest.raises(DomainError):
        sk_dispersion_omega(0.8, "set2", -0.8, G)


# -- validation -------------------------------------------------------------------


def test_reflecting_requires_beta_only():
    grid = make_uniform_grid(-1.0, 1.0, 64, "bounded")
    ops = bounded_operators(grid, 4)
    with pytest.raises(ConfigurationError):
        build_sk_discretization(
            grid, ops, _bathymetry, G, ETA0, "set2", "reflecting_beta_only"
        )


@pytest.mark.parametrize("bathymetry", [
    lambda x: 1.0,
    lambda x: np.ones(x.size - 1),
    lambda x: np.ones((x.size, 1)),
])
def test_bathymetry_of_the_wrong_shape_rejected(bathymetry):
    # a bathymetry is sampled on the nodes: a scalar is not broadcast
    grid = make_uniform_grid(-1.0, 1.0, 64, "periodic")
    ops = periodic_operators(grid, 4)
    with pytest.raises(DimensionError, match="bathymetry shape"):
        build_sk_discretization(
            grid, ops, bathymetry, G, ETA0, "set2", "periodic_central_split"
        )


def test_dry_state_rhs_rejected():
    grid, ops, disc = _build("periodic_central_split")
    y = np.concatenate([np.full(80, -5.0), np.zeros(80)])
    with pytest.raises(DomainError):
        disc.rhs(0.0, y)


def test_variant_grid_mismatch():
    grid = make_uniform_grid(-1.0, 1.0, 64, "periodic")
    ops = periodic_operators(grid, 4)
    with pytest.raises(ConfigurationError):
        build_sk_discretization(
            grid, ops, _bathymetry, G, ETA0, "set5", "reflecting_beta_only"
        )
