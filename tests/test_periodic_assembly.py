"""Elliptic systems: stencil-assembled bands and banded Cholesky.

The models assemble their systems as upper offset diagonals from the
operator stencils (and, with reflecting walls, closure rows).  These
tests check the periodic bands against the dense products of
dense operator matrices, the folded Cholesky and the shifted solver
against a dense inverse, the BBM-BBM solves against dense solves of the
unscaled systems, the reflecting right-hand sides against dense solves
of the wall-row systems, and that no discretization holds an array of
N x N size.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dispersive_sw import linsolve
from dispersive_sw.bbm_bbm import build_bbm_discretization
from dispersive_sw.grid import make_uniform_grid
from dispersive_sw.sbp import bounded_operators, periodic_operators
from dispersive_sw.svaerd_kalisch import build_sk_discretization

from .oracles import (
    dense_band,
    dense_bounded_central_d1,
    dense_bounded_upwind,
    dense_inverse_solve,
    dense_operator,
)

G = 9.81


def _bathymetry(x):
    return -2.0 - 0.3 * np.cos(np.pi * x)


def _capture(monkeypatch, name):
    """Record the first argument of every call of linsolve.<name>."""
    captured, real = [], getattr(linsolve, name)

    def recording(a, *args, **kwargs):
        captured.append(a)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(linsolve, name, recording)
    return captured


def _assert_band_equals(band, dense, scale):
    assert isinstance(band, linsolve.PeriodicBand)
    assert np.max(np.abs(dense_band(band) - dense)) <= 1e-14 * scale


# (variant, order); n = 10 and 11 let the product stencils of half-width 8
# (order 8) and 4 (upwind order 4) wrap onto themselves
BBM_CASES = [
    ("periodic_central_wide", 8),
    ("periodic_central_wide", 4),
    ("periodic_central_narrow", 8),
    ("periodic_const_narrow", 8),
    ("periodic_upwind", 4),
    ("periodic_upwind", 1),
]


def _dense_bbm_products(ops, variant, k):
    """Dense L K R (mass) and S K (velocity) with their absolute-value
    scales, and the outer derivatives of the mass and velocity fluxes."""
    if variant == "periodic_upwind":
        dp, dm = dense_operator(ops.upwind.d_plus), dense_operator(ops.upwind.d_minus)
        a_mass, a_vel = (dm * k) @ dp, dp @ dm * k
        scale_mass, scale_vel = (np.abs(dm) * k) @ np.abs(dp), np.abs(dp) @ np.abs(dm) * k
        return a_mass, scale_mass, a_vel, scale_vel, dm, dp
    d1 = dense_operator(ops.d1)
    a_mass = (d1 * k) @ d1
    scale_mass = (np.abs(d1) * k) @ np.abs(d1)
    if variant == "periodic_central_wide":
        a_vel, scale_vel = d1 @ d1 * k, np.abs(d1) @ np.abs(d1) * k
    else:
        d2 = dense_operator(ops.d2)
        a_vel, scale_vel = d2 * k, np.abs(d2) * k
        if variant == "periodic_const_narrow":
            a_mass, scale_mass = a_vel, scale_vel
    return a_mass, scale_mass, a_vel, scale_vel, d1, d1


@pytest.mark.parametrize("n", [10, 11, 64])
@pytest.mark.parametrize("variant, order", BBM_CASES)
def test_bbm_bands_equal_dense_products(monkeypatch, variant, order, n):
    captured = _capture(monkeypatch, "factor")
    grid = make_uniform_grid(-1.0, 1.0, n, "periodic")
    ops = periodic_operators(grid, order, upwind=variant == "periodic_upwind")
    bathymetry = (lambda x: np.full_like(x, -2.0)) if "const" in variant else _bathymetry
    build_bbm_discretization(grid, ops, bathymetry, G, variant)
    k = bathymetry(grid.nodes) ** 2
    eye = np.eye(n)
    a_mass, scale_mass, a_vel, scale_vel, _, _ = _dense_bbm_products(ops, variant, k)
    band_mass, *rest = captured
    _assert_band_equals(band_mass, eye - a_mass / 6.0, 1.0 + np.max(scale_mass))
    if variant == "periodic_const_narrow":
        assert rest == []  # one system, factored once, serves both solves
    else:
        # the velocity system I - S K / 6 arrives rescaled: diag(1/K) - S / 6
        (band_vel,) = rest
        _assert_band_equals(band_vel, (eye - a_vel / 6.0) / k, 1.0 + np.max(scale_vel))


@pytest.mark.parametrize("n", [10, 11, 64])
@pytest.mark.parametrize("variant, order", [
    ("periodic_central_split", 8),
    ("periodic_central_split", 4),
    ("periodic_upwind", 4),
    ("periodic_upwind", 2),
])
def test_sk_beta_bands_equal_dense_products(monkeypatch, variant, order, n):
    captured = _capture(monkeypatch, "ShiftedSolver")
    grid = make_uniform_grid(-1.0, 1.0, n, "periodic")
    ops = periodic_operators(grid, order, upwind=variant == "periodic_upwind")
    disc = build_sk_discretization(grid, ops, _bathymetry, G, 0.0, "set2", variant)
    beta = disc.beta_hat
    if variant == "periodic_upwind":
        left, right = dense_operator(ops.upwind.d_plus), dense_operator(ops.upwind.d_minus)
    else:
        left = right = dense_operator(ops.d1)
    (band,) = captured
    scale = np.max((np.abs(left) * beta) @ np.abs(right))
    _assert_band_equals(band, -(left * beta) @ right, scale)


@pytest.mark.parametrize("n", [10, 11, 64])
@pytest.mark.parametrize(
    "variant, order", [case for case in BBM_CASES if "const" not in case[0]]
)
def test_bbm_solves_equal_dense_solves_of_unscaled_systems(variant, order, n):
    # the rescaled velocity system must solve I - S K / 6, not diag(1/K) - S / 6
    grid = make_uniform_grid(-1.0, 1.0, n, "periodic")
    ops = periodic_operators(grid, order, upwind=variant == "periodic_upwind")
    disc = build_bbm_discretization(grid, ops, _bathymetry, G, variant)
    depth = disc.still_depth
    a_mass, _, a_vel, _, d_mass, d_vel = _dense_bbm_products(ops, variant, depth**2)
    rng = np.random.default_rng(n)
    eta, v = 0.1 * rng.normal(size=n), rng.normal(size=n)
    deta, dv = disc.rhs_fields(np.array([eta, v]))
    eye = np.eye(n)
    expected_eta = dense_inverse_solve(eye - a_mass / 6.0, -d_mass @ ((depth + eta) * v))
    expected_v = dense_inverse_solve(eye - a_vel / 6.0, -d_vel @ (G * eta + 0.5 * v * v))
    for got, expected in ((deta, expected_eta), (dv, expected_v)):
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def _largest_array(root):
    """Element count of the largest numpy array reachable from a model object."""
    seen, largest, todo = set(), 0, [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            largest = max(largest, obj.size)
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif hasattr(obj, "__self__"):  # bound methods stored as callables
            todo.append(obj.__self__)
        elif type(obj).__module__.startswith("dispersive_sw") and hasattr(obj, "__dict__"):
            todo.extend(vars(obj).values())
    return largest


def test_periodic_discretizations_hold_no_dense_array():
    # (the reflecting discretizations too)
    n = 4096
    grid = make_uniform_grid(-35.0, 35.0, n, "periodic")
    for variant, order in BBM_CASES:
        ops = periodic_operators(grid, order, upwind=variant == "periodic_upwind")
        bathymetry = (
            (lambda x: np.full_like(x, -2.0)) if "const" in variant
            else lambda x: -2.0 - 0.3 * np.cos(2 * np.pi * x / 70.0)
        )
        disc = build_bbm_discretization(grid, ops, bathymetry, G, variant)
        assert _largest_array(disc) <= 64 * n, variant
    for variant, order in (("periodic_central_split", 8), ("periodic_upwind", 4)):
        ops = periodic_operators(grid, order, upwind=variant == "periodic_upwind")
        disc = build_sk_discretization(
            grid, ops, lambda x: np.full_like(x, -2.0), G, 0.0, "set2", variant
        )
        fact = disc._velocity_solver.factor(np.full(n, 2.0))
        assert _largest_array(disc) <= 64 * n, variant
        assert _largest_array(fact) <= 64 * n, variant
    grid = make_uniform_grid(-1.0, 1.0, n, "bounded")
    for order in (2, 4, 6):
        for variant in ("reflecting_central", "reflecting_upwind"):
            ops = bounded_operators(grid, order, upwind=variant == "reflecting_upwind")
            disc = build_bbm_discretization(grid, ops, _bathymetry, G, variant)
            assert _largest_array(disc) <= 64 * n, (variant, order)
        disc = build_sk_discretization(grid, bounded_operators(grid, order), _bathymetry,
                                       G, 0.0, "set5", "reflecting_beta_only")
        fact = disc._velocity_solver.factor(np.full(n - 2, 2.0))
        assert _largest_array(disc) <= 64 * n, order
        assert _largest_array(fact) <= 64 * n, order


@st.composite
def periodic_systems(draw):
    """(w, n, rng): half-width, size (odd, even, just above 4w, or wrapping)."""
    w = draw(st.integers(1, 4))
    n = draw(st.one_of(st.integers(4 * w + 1, 4 * w + 3), st.integers(2, 40)))
    return w, n, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


def _random_symmetric_band(w, n, rng):
    band = linsolve.PeriodicBand(rng.normal(size=(w + 1, n)))
    return band, np.linalg.eigvalsh(dense_band(band))[0]


@settings(max_examples=60, deadline=None)
@given(periodic_systems())
def test_folded_cholesky_matches_dense_inverse(system):
    w, n, rng = system
    band, lowest = _random_symmetric_band(w, n, rng)
    # shifted just past its lowest eigenvalue: SPD, at times barely
    band = band.shifted(rng.uniform(0.05, 2.0) - lowest)
    a = dense_band(band)
    assume(np.linalg.cond(a) < 1e6)
    fact = linsolve.factor(band)
    assert isinstance(fact, linsolve.BandCholesky)
    assert fact.half_width == min(2 * w, n - 1)
    rhs = rng.normal(size=(2, n))  # a stack: one right-hand side per row
    expected = dense_inverse_solve(a, rhs.T).T
    np.testing.assert_allclose(fact.solve(rhs), expected,
                               atol=1e-9 * np.max(np.abs(expected)))


@settings(max_examples=60, deadline=None)
@given(periodic_systems())
def test_shifted_solver_matches_dense_inverse(system):
    w, n, rng = system
    static, lowest = _random_symmetric_band(w, n, rng)
    solver = linsolve.ShiftedSolver(static)
    dense_static = dense_band(static)
    rhs = rng.normal(size=n)
    for _ in range(2):
        # every entry past the lowest eigenvalue of the static part: SPD
        diagonal = rng.uniform(0.1, 4.0, size=n) - lowest
        a = dense_static + np.diag(diagonal)
        if np.linalg.cond(a) > 1e6:
            continue
        first = solver.factor(diagonal).solve(rhs)
        expected = dense_inverse_solve(a, rhs)
        np.testing.assert_allclose(first, expected, atol=1e-9 * np.max(np.abs(expected)))
        # the packed static band is reused, never overwritten
        assert np.array_equal(solver.factor(diagonal).solve(rhs), first)


@pytest.mark.parametrize("order", [2, 4, 6])
@pytest.mark.parametrize("variant", ["reflecting_central", "reflecting_upwind"])
def test_reflecting_bbm_rhs_equals_dense_wall_row_systems(variant, order):
    # I - D- P_D K D+ / 6 and I - D+ D- K / 6 with identity wall rows, built
    # densely; the M-scaled SPD forms must give the same solutions
    n = 97
    grid = make_uniform_grid(-1.0, 1.0, n, "bounded")
    ops = bounded_operators(grid, order, upwind=variant == "reflecting_upwind")
    disc = build_bbm_discretization(grid, ops, _bathymetry, G, variant)
    if variant == "reflecting_upwind":
        dp, dm, _ = dense_bounded_upwind(grid, order)
    else:
        dp = dm = dense_bounded_central_d1(grid, order)[0]
    k = disc.still_depth**2
    p_d = np.ones(n)
    p_d[0] = p_d[-1] = 0.0
    eye = np.eye(n)
    a_mass = eye - (dm * (p_d * k)) @ dp / 6.0
    a_vel = eye - dp @ (dm * k) / 6.0
    a_vel[[0, -1]] = eye[[0, -1]]
    x = grid.nodes
    eta, v = 0.1 * np.cos(3 * x), np.sin(np.pi * x) * (1 + 0.2 * x)
    deta, dv = disc.rhs_fields(np.array([eta, v]))
    expected_eta = dense_inverse_solve(a_mass, -dm @ ((disc.still_depth + eta) * v))
    expected_v = dense_inverse_solve(a_vel, p_d * -(dp @ (G * eta + 0.5 * v * v)))
    # equal up to roundoff times the condition number (about 1e7 for upwind)
    for got, expected, a in ((deta, expected_eta, a_mass), (dv, expected_v, a_vel)):
        tol = 1e-15 * np.linalg.cond(a) * np.max(np.abs(expected))
        assert np.max(np.abs(got - expected)) <= tol
    assert dv[0] == 0.0 and dv[-1] == 0.0


@pytest.mark.parametrize("order", [2, 4, 6])
def test_reflecting_sk_velocity_equals_dense_wall_row_system(order):
    n = 97
    grid = make_uniform_grid(-1.0, 1.0, n, "bounded")
    disc = build_sk_discretization(grid, bounded_operators(grid, order), _bathymetry, G,
                                   0.0, "set5", "reflecting_beta_only")
    d1 = dense_bounded_central_d1(grid, order)[0]
    x = grid.nodes
    eta, v = 0.1 * np.cos(3 * x), np.sin(np.pi * x)
    h = disc.water_height(eta)
    a = np.diag(h) - (d1 * disc.beta_hat) @ d1
    a[[0, -1]] = np.eye(n)[[0, -1]]
    deta, dv = disc.rhs_fields(np.array([eta, v]))
    d1_v, d1_hv, d1_hvv, d1_eta = (d1 @ f for f in (v, h * v, h * v * v, eta))
    rhs_v = -0.5 * (d1_hvv + h * v * d1_v - v * d1_hv) - G * h * d1_eta
    rhs_v[[0, -1]] = 0.0
    expected = dense_inverse_solve(a, rhs_v)
    tol = 1e-15 * np.linalg.cond(a) * np.max(np.abs(expected))
    assert np.max(np.abs(dv - expected)) <= tol
    assert dv[0] == 0.0 and dv[-1] == 0.0
    assert np.max(np.abs(deta + d1_hv)) <= 1e-12 * np.max(np.abs(d1_hv))
