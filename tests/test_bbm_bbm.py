import numpy as np
import pytest

from dispersive_sw.bbm_bbm import (
    VARIANTS,
    bbm_phase_speed,
    bbm_soliton,
    bbm_soliton_speed,
    build_bbm_discretization,
)
from dispersive_sw.errors import (
    ConfigurationError,
    DimensionError,
    DomainError,
    NumericsError,
)
from dispersive_sw.grid import make_uniform_grid, split_flat
from dispersive_sw.sbp import bounded_operators, periodic_operators
from dispersive_sw.timestepping import RK4, integrate

from .oracles import dense_operator, energy_rate_scale

G = 9.81

#: variants whose semidiscrete energy derivative vanishes identically
ENERGY_CONSERVATIVE_VARIANTS = (
    "periodic_central_wide",
    "periodic_const_narrow",
    "periodic_upwind",
    "reflecting_central",
    "reflecting_upwind",
)


def _variable_bathymetry(x):
    return -(1.0 + 0.3 * np.cos(np.pi * x))


def _smooth_state(grid, seed=0):
    rng = np.random.default_rng(seed)
    x = grid.nodes
    modes = rng.normal(size=(2, 3)) * 0.1
    eta = sum(modes[0, m] * np.cos((m + 1) * np.pi * (x + 0.1)) for m in range(3))
    v = sum(modes[1, m] * np.sin((m + 1) * np.pi * x + 0.3) for m in range(3))
    return np.concatenate([eta, v])


def _build(variant, order=4, n=80, bc="periodic"):
    grid = make_uniform_grid(-1.0, 1.0, n, bc)
    if bc == "periodic":
        ops = periodic_operators(grid, order, upwind=variant == "periodic_upwind")
    else:
        ops = bounded_operators(grid, order, upwind=variant == "reflecting_upwind")
    disc = build_bbm_discretization(grid, ops, _variable_bathymetry, G, variant)
    return grid, ops, disc


# -- exact solution and dispersion -------------------------------------------


def test_soliton_crest_values():
    # theta = 0: eta = -(15/4) D, v = (15/2) sqrt(g D)
    eta, v = bbm_soliton(0.0, np.array([0.0]), G, 2.0)
    assert eta[0] == pytest.approx(-7.5, abs=1e-14)
    assert v[0] == pytest.approx(7.5 * np.sqrt(G * 2.0), rel=1e-15)


def test_soliton_decays_to_still_water():
    eta, v = bbm_soliton(0.0, np.array([-80.0, 80.0]), G, 2.0)
    assert np.max(np.abs(eta)) < 1e-12
    assert np.max(np.abs(v)) < 1e-12


def test_soliton_translation_property():
    x = np.linspace(-10.0, 10.0, 41)
    c = bbm_soliton_speed(G, 2.0)
    t = 0.73
    direct = bbm_soliton(t, x, G, 2.0)
    shifted = bbm_soliton(0.0, x - c * t, G, 2.0)
    for a, b in zip(direct, shifted):
        np.testing.assert_array_equal(a, b)


def test_soliton_requires_positive_depth():
    with pytest.raises(DomainError):
        bbm_soliton(0.0, np.zeros(3), G, -1.0)


def test_phase_speed_long_wave_limit():
    assert bbm_phase_speed(1e-9, 0.8, G) == pytest.approx(np.sqrt(G * 0.8), rel=1e-9)
    assert np.sqrt(G * 0.8) == pytest.approx(2.801428, abs=1e-6)


def test_phase_speed_printed_value():
    # k = 0.8, h0 = 0.8: c approximately 2.6224
    assert bbm_phase_speed(0.8, 0.8, G) == pytest.approx(2.6224, abs=5e-4)


def test_phase_speed_monotone_decreasing():
    k = np.linspace(0.1, 20.0, 200)
    c = bbm_phase_speed(k, 0.8, G)
    assert np.all(np.diff(c) < 0.0)


# -- semidiscrete structure ---------------------------------------------------


@pytest.mark.parametrize(
    "variant,bc",
    [
        ("periodic_central_wide", "periodic"),
        ("periodic_central_narrow", "periodic"),
        ("periodic_upwind", "periodic"),
        ("reflecting_central", "bounded"),
        ("reflecting_upwind", "bounded"),
    ],
)
def test_lake_at_rest_rhs_vanishes(variant, bc):
    grid, ops, disc = _build(variant, bc=bc)
    y = np.concatenate([0.7 * np.ones(grid.n_nodes), np.zeros(grid.n_nodes)])
    rhs = disc.rhs(0.0, y)
    assert np.max(np.abs(rhs)) <= 1e-13


@pytest.mark.parametrize(
    "variant,bc",
    [
        ("periodic_central_wide", "periodic"),
        ("periodic_upwind", "periodic"),
        ("reflecting_central", "bounded"),
        ("reflecting_upwind", "bounded"),
    ],
)
def test_energy_conservative_variants_have_zero_energy_rate(variant, bc):
    grid, ops, disc = _build(variant, bc=bc)
    assert disc.variant in ENERGY_CONSERVATIVE_VARIANTS
    func = disc.functional()
    for seed in range(5):
        y = _smooth_state(grid, seed)
        if bc == "bounded":
            n = grid.n_nodes
            y[n] = y[-1] = 0.0  # wall condition on v
        ydot = disc.rhs(0.0, y)
        rate = func.delta_coefficients(y, ydot)[0]
        scale = max(energy_rate_scale(disc, y, ydot), 1e-30)
        assert abs(rate) / scale <= 1e-11, (variant, seed)


def test_central_narrow_violates_energy_measurably():
    # negative control: narrow D2 in the velocity equation only
    grid, ops, disc = _build("periodic_central_narrow")
    assert disc.variant not in ENERGY_CONSERVATIVE_VARIANTS
    func = disc.functional()
    y = _smooth_state(grid, 1)
    ydot = disc.rhs(0.0, y)
    rate = abs(func.delta_coefficients(y, ydot)[0]) / energy_rate_scale(disc, y, ydot)
    assert rate > 1e-9


def test_linear_invariant_rates_vanish():
    for variant, bc in (
        ("periodic_central_wide", "periodic"),
        ("periodic_upwind", "periodic"),
    ):
        grid, ops, disc = _build(variant, bc=bc)
        y = _smooth_state(grid, 3)
        ydot = disc.rhs(0.0, y)
        deta, dv = split_flat(ydot)
        w = ops.mass.diagonal
        assert abs(w @ deta) <= 1e-12
        assert abs(w @ dv) <= 1e-12


def test_reflecting_conserves_mass_not_velocity():
    grid, ops, disc = _build("reflecting_central", bc="bounded")
    y = _smooth_state(grid, 4)
    n = grid.n_nodes
    y[n] = y[-1] = 0.0
    ydot = disc.rhs(0.0, y)
    deta, _ = split_flat(ydot)
    assert abs(ops.mass.diagonal @ deta) <= 1e-12


def test_constant_bathymetry_wide_matches_const_scheme_formula():
    # with D constant the general scheme reduces to the constant-depth
    # formula using the squared first-derivative operator
    depth = 2.0
    grid = make_uniform_grid(-1.0, 1.0, 64, "periodic")
    ops = periodic_operators(grid, 4)
    disc = build_bbm_discretization(
        grid, ops, lambda x: np.full_like(x, -depth), G, "periodic_central_wide"
    )
    y = _smooth_state(grid, 6)
    eta, v = split_flat(y)
    d1 = dense_operator(ops.d1)
    ell = np.eye(64) - depth**2 / 6.0 * d1 @ d1
    deta_ref = np.linalg.solve(ell, -d1 @ ((depth + eta) * v))
    dv_ref = np.linalg.solve(ell, -d1 @ (G * eta + 0.5 * v**2))
    ydot = disc.rhs(0.0, y)
    np.testing.assert_allclose(ydot[:64], deta_ref, atol=1e-13)
    np.testing.assert_allclose(ydot[64:], dv_ref, atol=1e-13)


def test_reflecting_dirichlet_rows_return_exact_zeros():
    grid, ops, disc = _build("reflecting_central", bc="bounded")
    y = _smooth_state(grid, 7)
    n = grid.n_nodes
    y[n] = y[-1] = 0.0
    ydot = disc.rhs(0.0, y)
    assert ydot[n] == 0.0 and ydot[-1] == 0.0


def test_invariant_values_for_constant_state():
    grid = make_uniform_grid(-1.0, 1.0, 50, "periodic")
    ops = periodic_operators(grid, 2)
    disc = build_bbm_discretization(
        grid, ops, lambda x: np.full_like(x, -1.0), G, "periodic_central_wide"
    )
    zero = np.zeros(100)
    inv = disc.invariants(zero)
    assert inv["mass"] == 0.0 and inv["velocity"] == 0.0 and inv["energy"] == 0.0
    y = np.concatenate([2.0 * np.ones(50), np.zeros(50)])
    inv = disc.invariants(y)
    assert inv["mass"] == pytest.approx(4.0, abs=1e-13)
    assert inv["velocity"] == 0.0
    assert inv["energy"] == pytest.approx(0.5 * G * 4.0 * 2.0, rel=1e-13)


def test_energy_functional_delta_matches_direct_difference():
    grid, ops, disc = _build("periodic_central_wide")
    func = disc.functional()
    rng = np.random.default_rng(8)
    y = _smooth_state(grid, 9)
    dy = 1e-3 * rng.normal(size=y.size)
    coefficients = func.delta_coefficients(y, dy)
    for gamma in (0.5, 1.0, 1.7):
        direct = func.value(y + gamma * dy) - func.value(y)
        assert func.delta(coefficients, gamma) == pytest.approx(direct, abs=1e-12)


def test_energy_rate_matches_finite_difference_of_flow():
    # independent oracle: central difference of E along the exact flow,
    # approximated by accurate short RK4 runs forward and backward in time
    grid, ops, disc = _build("periodic_central_narrow")
    func = disc.functional()
    y = _smooth_state(grid, 10)
    eps = 5e-3
    forward = integrate(disc.rhs, y, (0.0, eps), RK4, dt=eps / 8).y
    backward = integrate(lambda t, u: -disc.rhs(t, u), y, (0.0, eps), RK4, dt=eps / 8).y
    fd_rate = (func.value(forward) - func.value(backward)) / (2 * eps)
    rate = func.delta_coefficients(y, disc.rhs(0.0, y))[0]
    assert rate == pytest.approx(fd_rate, rel=1e-3, abs=1e-12)


# -- configuration and validation ---------------------------------------------


def test_variant_grid_mismatch_rejected():
    grid = make_uniform_grid(-1.0, 1.0, 64, "bounded")
    ops = bounded_operators(grid, 4)
    with pytest.raises(ConfigurationError):
        build_bbm_discretization(
            grid, ops, _variable_bathymetry, G, "periodic_central_wide"
        )


def test_unknown_variant_rejected():
    grid, ops, _ = _build("periodic_central_wide")
    with pytest.raises(ConfigurationError):
        build_bbm_discretization(grid, ops, _variable_bathymetry, G, "magic")


def test_dry_bathymetry_rejected():
    grid = make_uniform_grid(-1.0, 1.0, 64, "periodic")
    ops = periodic_operators(grid, 4)
    with pytest.raises(DomainError):
        build_bbm_discretization(
            grid, ops, lambda x: 0.3 * np.cos(np.pi * x), G, "periodic_central_wide"
        )


@pytest.mark.parametrize("bathymetry", [
    lambda x: -2.0,
    lambda x: np.full(x.size + 1, -2.0),
    lambda x: np.full((1, x.size), -2.0),
])
def test_bathymetry_of_the_wrong_shape_rejected(bathymetry):
    # a bathymetry is sampled on the nodes: a scalar is not broadcast
    grid = make_uniform_grid(-1.0, 1.0, 64, "periodic")
    ops = periodic_operators(grid, 4)
    with pytest.raises(DimensionError, match="bathymetry shape"):
        build_bbm_discretization(grid, ops, bathymetry, G, "periodic_central_wide")


def test_const_narrow_requires_constant_bathymetry():
    grid = make_uniform_grid(-1.0, 1.0, 64, "periodic")
    ops = periodic_operators(grid, 4)
    with pytest.raises(ConfigurationError):
        build_bbm_discretization(
            grid, ops, _variable_bathymetry, G, "periodic_const_narrow"
        )


def test_non_finite_state_raises():
    grid, ops, disc = _build("periodic_central_wide")
    y = _smooth_state(grid, 11)
    y[3] = np.inf
    with pytest.raises(NumericsError):
        disc.rhs(0.0, y)


def test_variant_list_matches_conservative_tags():
    assert "periodic_central_narrow" not in ENERGY_CONSERVATIVE_VARIANTS
    assert "periodic_central_wide" in ENERGY_CONSERVATIVE_VARIANTS
    # every model variant but the narrow negative control is listed
    assert set(VARIANTS) - set(ENERGY_CONSERVATIVE_VARIANTS) == {"periodic_central_narrow"}
