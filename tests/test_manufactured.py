"""Source-term correctness: the discrete right-hand side applied to the
exact manufactured fields must match their exact time derivative at the
order of the operators."""

import numpy as np
import pytest
import sympy as sp

from dispersive_sw.bbm_bbm import build_bbm_discretization
from dispersive_sw.grid import make_uniform_grid
from dispersive_sw.manufactured import (
    _T,
    _X,
    _solution_exprs,
    bbm_manufactured,
    sk_manufactured,
)
from dispersive_sw.sbp import bounded_operators, periodic_operators
from dispersive_sw.svaerd_kalisch import build_sk_discretization

G = 9.81


def _exact_dt(bc_kind, t, x):
    """Time derivatives of the exact (eta, v), from their expressions."""
    return tuple(
        np.broadcast_to(sp.lambdify((_T, _X), sp.diff(e, _T), "numpy")(t, x), x.shape)
        for e in _solution_exprs(bc_kind)
    )


def _residual(disc, case, ops, t):
    grid = disc.grid
    n = grid.n_nodes
    eta, v = case.exact(t, grid.nodes)
    deta_e, dv_e = _exact_dt(case.bc_kind, t, grid.nodes)
    ydot = disc.rhs(t, np.concatenate([eta, v]))
    w = ops.mass.diagonal
    return float(
        np.sqrt(w @ (ydot[:n] - deta_e) ** 2 + w @ (ydot[n:] - dv_e) ** 2)
    )


def _eoc(residuals):
    return [np.log2(residuals[i] / residuals[i + 1]) for i in range(len(residuals) - 1)]


@pytest.mark.parametrize("order", [2, 3, 4])
def test_bbm_periodic_sources_converge_at_order(order):
    case = bbm_manufactured("periodic", G)
    residuals = []
    for n in (64, 128, 256):
        grid = make_uniform_grid(0.0, 1.0, n, "periodic")
        ops = periodic_operators(grid, order, upwind=True)
        disc = build_bbm_discretization(
            grid, ops, lambda x: case.bathymetry(0.0, x), G, "periodic_upwind",
            source_terms=case.source,
        )
        residuals.append(_residual(disc, case, ops, 0.37))
    for e in _eoc(residuals):
        assert abs(e - order) <= 0.5, residuals


@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("params", ["set3", "set2"])
def test_sk_periodic_sources_converge_at_order(order, params):
    case = sk_manufactured("periodic", G, params)
    residuals = []
    for n in (64, 128, 256):
        grid = make_uniform_grid(0.0, 1.0, n, "periodic")
        ops = periodic_operators(grid, order, upwind=True)
        disc = build_sk_discretization(
            grid, ops, lambda x: case.bathymetry(0.0, x), G, 0.0, params,
            "periodic_upwind", source_terms=case.source,
        )
        residuals.append(_residual(disc, case, ops, 0.37))
    for e in _eoc(residuals):
        assert abs(e - order) <= 0.5, residuals


def test_bbm_reflecting_sources_consistent():
    case = bbm_manufactured("bounded", G)
    residuals = []
    for n in (65, 129, 257):
        grid = make_uniform_grid(0.0, 1.0, n, "bounded")
        ops = bounded_operators(grid, 4)
        disc = build_bbm_discretization(
            grid, ops, lambda x: case.bathymetry(0.0, x), G, "reflecting_central",
            source_terms=case.source,
        )
        residuals.append(_residual(disc, case, ops, 0.2))
    # boundary closures have order p/2, so expect at least second order
    for e in _eoc(residuals):
        assert e >= 1.5, residuals


def test_sk_reflecting_sources_consistent():
    case = sk_manufactured("bounded", G, "set5")
    residuals = []
    for n in (65, 129, 257):
        grid = make_uniform_grid(0.0, 1.0, n, "bounded")
        ops = bounded_operators(grid, 4)
        disc = build_sk_discretization(
            grid, ops, lambda x: case.bathymetry(0.0, x), G, 0.0, "set5",
            "reflecting_beta_only", source_terms=case.source,
        )
        residuals.append(_residual(disc, case, ops, 0.2))
    for e in _eoc(residuals):
        assert e >= 1.5, residuals


def test_exact_solutions_satisfy_wall_conditions():
    case = bbm_manufactured("bounded", G)
    x = np.array([0.0, 1.0])
    for t in (0.0, 0.5, 1.0):
        eta, v = case.exact(t, x)
        assert np.max(np.abs(v)) <= 1e-14


def test_periodic_solution_wraps():
    case = bbm_manufactured("periodic", G)
    for t in (0.0, 0.3):
        left = case.exact(t, np.array([0.0]))
        right = case.exact(t, np.array([1.0]))
        for a, b in zip(left, right):
            assert a[0] == pytest.approx(b[0], abs=1e-13)


def test_set1_sources_rejected():
    from dispersive_sw.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        sk_manufactured("periodic", G, "set1")
