import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispersive_sw.errors import ConfigurationError
from dispersive_sw.grid import MassMatrix, l2_norm, make_uniform_grid
from dispersive_sw.sbp import build_bounded_central_d1, build_periodic_central_d1


def test_periodic_grid_excludes_right_endpoint():
    grid = make_uniform_grid(0.0, 1.0, 4, "periodic")
    np.testing.assert_allclose(grid.nodes, [0.0, 0.25, 0.5, 0.75])
    assert grid.spacing == 0.25


def test_bounded_grid_includes_both_endpoints():
    grid = make_uniform_grid(-1.0, 1.0, 3, "bounded")
    np.testing.assert_allclose(grid.nodes, [-1.0, 0.0, 1.0])
    assert grid.spacing == 1.0


def test_dingemans_domain_spacing():
    # periodic domain [-138, 46] with 512 nodes
    grid = make_uniform_grid(-138.0, 46.0, 512, "periodic")
    assert grid.spacing == 184.0 / 512
    assert grid.spacing == 0.359375


@pytest.mark.parametrize(
    "args",
    [
        (1.0, 1.0, 16),
        (1.0, 0.0, 16),
        (0.0, 1.0, 2),
    ],
)
def test_degenerate_grid_rejected(args):
    with pytest.raises(ConfigurationError):
        make_uniform_grid(*args)


def test_unknown_bc_kind_rejected():
    with pytest.raises(ConfigurationError):
        make_uniform_grid(0.0, 1.0, 8, "outflow")


def test_integral_of_constants_is_exact():
    grid = make_uniform_grid(0.0, 1.0, 33, "bounded")
    op = build_bounded_central_d1(grid, 2)
    assert abs(op.mass.diagonal @ np.ones(33) - 1.0) <= 1e-14
    grid2 = make_uniform_grid(-1.0, 1.0, 40, "periodic")
    op2 = build_periodic_central_d1(grid2, 2)
    assert abs(op2.mass.diagonal @ (2.0 * np.ones(40)) - 4.0) <= 1e-14


def test_integral_of_sine_vanishes():
    grid = make_uniform_grid(0.0, 1.0, 64, "periodic")
    op = build_periodic_central_d1(grid, 2)
    val = op.mass.diagonal @ np.sin(2 * np.pi * grid.nodes)
    assert abs(val) <= 1e-13


def test_bounded_quadrature_exact_up_to_order():
    # diagonal-norm quadrature of order p: exact for degree <= p - 1
    grid = make_uniform_grid(-1.0, 1.0, 48, "bounded")
    for order in (2, 4, 6):
        op = build_bounded_central_d1(grid, order)
        for k in range(order):
            exact = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
            val = op.mass.diagonal @ grid.nodes**k
            assert abs(val - exact) <= 1e-12, (order, k)


def test_l2_norm_is_the_weighted_sum_of_squares():
    rng = np.random.default_rng(11)
    mass = MassMatrix(rng.uniform(0.1, 2.0, size=17))
    u = rng.normal(size=17)
    assert l2_norm(u, mass) == np.sqrt(np.sum(u * u * mass.diagonal))
    assert l2_norm(np.zeros(17), mass) == 0.0


def test_constant_l2_norm_on_unit_interval():
    grid = make_uniform_grid(0.0, 1.0, 21, "bounded")
    op = build_bounded_central_d1(grid, 2)
    c = -1.7
    assert abs(l2_norm(np.full(21, c), op.mass) - abs(c)) <= 1e-14


@given(st.floats(-1e3, 1e3), st.integers(3, 200))
@settings(max_examples=40, deadline=None)
def test_grid_node_invariants(x_min, n_nodes):
    grid = make_uniform_grid(x_min, x_min + 2.5, n_nodes, "bounded")
    assert grid.nodes.size == n_nodes
    assert abs(grid.nodes[-1] - grid.x_max) <= 4 * np.finfo(float).eps * max(
        1.0, abs(grid.x_max)
    )
    diffs = np.diff(grid.nodes)
    np.testing.assert_allclose(
        diffs, grid.spacing, atol=8 * np.finfo(float).eps * max(1.0, abs(x_min))
    )


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_norm_positivity_random_vectors(seed):
    rng = np.random.default_rng(seed)
    mass = MassMatrix(rng.uniform(0.1, 2.0, size=25))
    u = rng.normal(size=25)
    norm = l2_norm(u, mass)
    assert norm >= 0.0
    assert (norm == 0.0) == bool(np.all(u == 0.0))
