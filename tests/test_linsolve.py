import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dispersive_sw
from dispersive_sw import bbm_bbm, linsolve, scenarios, svaerd_kalisch
from dispersive_sw.bbm_bbm import build_bbm_discretization
from dispersive_sw.errors import DimensionError, FactorizationError
from dispersive_sw.grid import make_uniform_grid
from dispersive_sw.sbp import (
    BOUNDED_ORDERS,
    PERIODIC_CENTRAL_ORDERS,
    UPWIND_ORDERS,
    bounded_band,
    build_bounded_central_d1,
    build_periodic_central_d1,
    build_periodic_d2,
    periodic_band,
)
from dispersive_sw.svaerd_kalisch import build_sk_discretization

from .oracles import (
    dense_band,
    dense_inverse_solve,
    dense_operator,
    upper_cholesky,
    upper_cholesky_solve,
)


def _spd_band(n, w, rng, margin=1.0):
    """A random SPD (bounded) band: symmetric, shifted past its lowest eigenvalue."""
    band = linsolve.Band(rng.normal(size=(w + 1, n)))
    return band.shifted(margin - np.linalg.eigvalsh(dense_band(band))[0])


def test_identity_solve_returns_rhs():
    f = linsolve.factor(linsolve.Band(np.ones((1, 6))))
    rhs = np.arange(6.0)
    np.testing.assert_allclose(f.solve(rhs), rhs, atol=1e-15)


def test_zero_rhs_gives_zero():
    f = linsolve.factor(_spd_band(8, 3, np.random.default_rng(0)))
    np.testing.assert_allclose(f.solve(np.zeros(8)), np.zeros(8), atol=0)


def test_consistency_rhs_a_times_one():
    band = _spd_band(12, 4, np.random.default_rng(1))
    f = linsolve.factor(band)
    np.testing.assert_allclose(f.solve(dense_band(band) @ np.ones(12)), np.ones(12),
                               atol=1e-11)


def test_bbm_elliptic_matrix_against_dense_inverse():
    # I - (1/6) Dc^2 D2 at N = 32 versus explicit inverse multiplication
    grid = make_uniform_grid(0.0, 1.0, 32, "periodic")
    d2 = build_periodic_d2(grid, 2)
    band = periodic_band(d2, inner=np.full(32, -(2.0**2) / 6.0)).shifted(1.0)
    a = np.eye(32) - (2.0**2 / 6.0) * dense_operator(d2)
    np.testing.assert_allclose(dense_band(band), a, atol=1e-12)
    rng = np.random.default_rng(2)
    rhs = rng.normal(size=32)
    f = linsolve.factor(band)
    np.testing.assert_allclose(
        f.solve(rhs), dense_inverse_solve(a, rhs), atol=1e-11
    )


def test_random_spd_residual():
    rng = np.random.default_rng(3)
    b = rng.normal(size=(64, 64))
    a = b @ b.T + 64 * np.eye(64)
    x = rng.normal(size=64)
    # every upper diagonal: the band spans the whole matrix
    f = linsolve.factor(linsolve.Band(np.array(
        [np.append(np.diagonal(a, k), np.zeros(k)) for k in range(64)])))
    sol = f.solve(a @ x)
    resid = np.max(np.abs(a @ sol - a @ x))
    assert resid <= 1e-10 * (
        np.max(np.abs(a)) * np.max(np.abs(sol)) + np.max(np.abs(a @ x))
    )


def test_singular_matrix_raises_with_pivot():
    diagonals = np.zeros((2, 5))
    diagonals[0] = 1.0
    diagonals[0, 2] = 0.0
    with pytest.raises(FactorizationError) as err:
        linsolve.factor(linsolve.Band(diagonals))
    assert err.value.pivot is not None and err.value.pivot <= 1e-12


def test_dimension_mismatch():
    f = linsolve.factor(linsolve.Band(np.ones((1, 4))))
    with pytest.raises(DimensionError):
        f.solve(np.ones(5))
    with pytest.raises(DimensionError):
        linsolve.ShiftedSolver(linsolve.Band(np.zeros((2, 4)))).factor(np.ones(3))


def test_banded_path_used_for_bounded_operators():
    # the M-scaled BBM-BBM velocity system M / K + D1^T M D1 / 6 without the
    # wall unknowns, against the interior block of the dense product
    grid = make_uniform_grid(0.0, 1.0, 80, "bounded")
    op = build_bounded_central_d1(grid, 4)
    m = op.mass.diagonal
    k = 1.0 + 0.1 * np.sin(grid.nodes)
    band = bounded_band(op, m).shifted(m / k, 6.0).interior()
    d1 = dense_operator(op)
    a = (np.diag(m / k) + d1.T @ (m[:, None] * d1) / 6.0)[1:-1, 1:-1]
    np.testing.assert_allclose(dense_band(band), a, rtol=0, atol=1e-13 * np.max(np.abs(a)))
    f = linsolve.factor(band)
    assert isinstance(f, linsolve.BandCholesky)
    assert f.half_width == band.w
    rng = np.random.default_rng(4)
    x = rng.normal(size=78)
    np.testing.assert_allclose(f.solve(a @ x), x, atol=1e-9)


@pytest.mark.parametrize("n", [3, 5, 16])  # 3 and 5: offsets alias (2w + 1 > n)
def test_periodic_band_shifted_matches_dense(n):
    rng = np.random.default_rng(n)
    band = linsolve.PeriodicBand(rng.normal(size=(5, n)))
    shift = rng.normal(size=n)
    # aliased entries add up in another order, hence the roundoff tolerance
    np.testing.assert_allclose(dense_band(band.shifted(shift, -6.0)),
                               np.diag(shift) + dense_band(band) / -6.0, rtol=0, atol=1e-14)
    np.testing.assert_allclose(dense_band(band.shifted(1.0)), np.eye(n) + dense_band(band),
                               rtol=0, atol=1e-14)


def test_periodic_banded_path_matches_dense():
    grid = make_uniform_grid(0.0, 1.0, 96, "periodic")
    op = build_periodic_central_d1(grid, 4)
    beta = 1.0 + 0.2 * np.cos(2 * np.pi * grid.nodes)
    band = periodic_band(op, op, inner=-beta).shifted(
        2.0 + 0.1 * np.sin(2 * np.pi * grid.nodes))
    f = linsolve.factor(band)
    assert isinstance(f, linsolve.BandCholesky)
    assert f.half_width == 2 * band.w
    rng = np.random.default_rng(5)
    rhs = rng.normal(size=96)
    np.testing.assert_allclose(f.solve(rhs), np.linalg.solve(dense_band(band), rhs),
                               atol=1e-11)


def test_shifted_solver_modes_and_agreement():
    rng = np.random.default_rng(6)
    band = _periodic_static_part()
    solver = linsolve.ShiftedSolver(band)
    static = dense_band(band)
    diag = 1.0 + rng.uniform(0.0, 1.0, size=64)
    full = static.copy()
    np.fill_diagonal(full, np.diagonal(full) + diag)
    rhs = rng.normal(size=64)
    fact = solver.factor(diag)
    assert isinstance(fact, linsolve.BandCholesky)
    np.testing.assert_allclose(fact.solve(rhs), np.linalg.solve(full, rhs), atol=1e-11)


def test_factor_once_solve_many_bitwise_identical():
    rng = np.random.default_rng(7)
    rhs = rng.normal(size=20)
    f = linsolve.factor(_spd_band(20, 3, rng))
    first = f.solve(rhs)
    for _ in range(3):
        assert np.array_equal(f.solve(rhs), first)


def test_mass_weighted_elliptic_matrices_are_spd():
    # BBM mass-equation operator: M (I - D1 K D1 / 6) symmetric positive definite
    grid = make_uniform_grid(-1.0, 1.0, 48, "periodic")
    op = build_periodic_central_d1(grid, 4)
    d1 = dense_operator(op)
    kdiag = (1.0 + 0.3 * np.cos(np.pi * grid.nodes)) ** 2
    a = np.eye(48) - (d1 * kdiag) @ d1 / 6.0
    ma = np.diag(op.mass.diagonal) @ a
    np.testing.assert_allclose(ma, ma.T, atol=1e-13)
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = rng.normal(size=48)
        assert x @ ma @ x > 0.0
    # velocity operator: M (I - D1^2 K / 6) K^-1 symmetric positive definite
    a_vel = np.eye(48) - d1 @ d1 * kdiag / 6.0
    weighted = np.diag(op.mass.diagonal) @ a_vel @ np.diag(1.0 / kdiag)
    np.testing.assert_allclose(weighted, weighted.T, atol=1e-12)
    for _ in range(20):
        x = rng.normal(size=48)
        assert x @ weighted @ x > 0.0


def _periodic_static_part(n=64):
    """-(D 0.3 D) for the periodic fourth-order D1, as a periodic band."""
    grid = make_uniform_grid(0.0, 1.0, n, "periodic")
    d1 = build_periodic_central_d1(grid, 4)
    return periodic_band(d1, d1, inner=np.full(n, -0.3))


def test_shifted_solver_matches_direct_periodic_factorization_bitwise():
    # the prebuilt folded static band must not change a single bit of the solve
    rng = np.random.default_rng(8)
    static = _periodic_static_part()
    solver = linsolve.ShiftedSolver(static)
    rhs = rng.normal(size=64)
    for _ in range(3):
        diag = 1.0 + rng.uniform(0.0, 1.0, size=64)
        direct = linsolve.factor(static.shifted(diag))
        assert np.array_equal(solver.factor(diag).solve(rhs), direct.solve(rhs))


def test_indefinite_band_raises_in_factor_and_shifted_solver():
    # -(D 0.3 D) is semidefinite with the constants in its kernel, so a
    # shift by -1 makes the band indefinite (and leaves it nonsingular):
    # both factorizations raise with the pivot
    static = _periodic_static_part()
    with pytest.raises(FactorizationError) as err:
        linsolve.factor(static.shifted(-1.0))
    assert "not positive definite" in str(err.value) and err.value.pivot <= 0.0
    solver = linsolve.ShiftedSolver(static)
    with pytest.raises(FactorizationError) as err:
        solver.factor(np.full(64, -1.0))
    assert "not positive definite" in str(err.value) and err.value.pivot <= 0.0
    # the packed static band is untouched: a positive diagonal still factors
    assert isinstance(solver.factor(np.full(64, 2.0)), linsolve.BandCholesky)


@pytest.mark.parametrize("n, w", [(1, 0), (2, 3), (9, 2), (40, 5)])  # w >= n: clipped
def test_bounded_band_cholesky_and_shifted_solver_match_dense_inverse(n, w):
    rng = np.random.default_rng(10 * n + w)
    band = _spd_band(n, w, rng, margin=0.5)
    a = dense_band(band)
    assert np.array_equal(a, a.T)
    rhs = rng.normal(size=n)
    expected = dense_inverse_solve(a, rhs)
    fact = linsolve.factor(band)
    assert fact.half_width == min(w, n - 1)
    np.testing.assert_allclose(fact.solve(rhs), expected, atol=1e-10 * np.max(np.abs(expected)))
    # the solve leaves its right-hand side alone
    before = rhs.copy()
    fact.solve(rhs)
    assert np.array_equal(rhs, before)
    diag = rng.uniform(0.0, 1.0, size=n)
    solver = linsolve.ShiftedSolver(band)
    shifted = solver.factor(diag)
    assert isinstance(shifted, linsolve.BandCholesky)
    np.testing.assert_array_equal(shifted.solve(rhs),
                                  linsolve.factor(band.shifted(diag)).solve(rhs))


def test_band_interior_drops_first_and_last_row_and_column():
    band = linsolve.Band(np.random.default_rng(11).normal(size=(3, 7)))
    np.testing.assert_array_equal(dense_band(band.interior()), dense_band(band)[1:-1, 1:-1])


def test_scipy_without_the_lapack_extension_is_an_import_error(tmp_path):
    # a stub scipy package whose linalg directory holds no _flapack extension
    linalg = tmp_path / "scipy" / "linalg"
    linalg.mkdir(parents=True)
    (tmp_path / "scipy" / "__init__.py").write_text('__version__ = "0.0.stub"\n')
    (linalg / "__init__.py").write_text("")
    src = str(Path(dispersive_sw.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), src]))
    proc = subprocess.run(
        [sys.executable, "-c", "import dispersive_sw.linsolve"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode != 0
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError")
    assert "scipy.linalg._flapack" in last and "0.0.stub" in last


_BLOCKED_SCIPY = """
import sys
sys.modules["scipy"] = None  # as if scipy were not installed
try:
    import dispersive_sw.linsolve
except ImportError as exc:
    print(type(exc).__name__, exc.name)
"""


def test_missing_scipy_is_a_module_not_found_error_naming_scipy():
    # scipy is located without its package __init__; a missing one still fails
    # the import, as `import scipy` does
    src = str(Path(dispersive_sw.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    proc = subprocess.run(
        [sys.executable, "-c", _BLOCKED_SCIPY],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ModuleNotFoundError", "scipy"]


# -- lower storage: the bits of the upper-storage factor -----------------------


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _model_bands(monkeypatch, model, variant, order, n):
    """Every band the discretization of (model, variant) hands to ``linsolve`` on n
    nodes, each as (band, whether a ``ShiftedSolver`` re-factors it)."""
    bands = []
    factor = linsolve.factor

    def recording_factor(band):
        bands.append((band, False))
        return factor(band)

    class RecordingShiftedSolver(linsolve.ShiftedSolver):
        def __init__(self, static_part):
            bands.append((static_part, True))
            super().__init__(static_part)

    monkeypatch.setattr(linsolve, "factor", recording_factor)
    monkeypatch.setattr(linsolve, "ShiftedSolver", RecordingShiftedSolver)
    bc = "bounded" if variant.startswith("reflecting") else "periodic"
    grid = make_uniform_grid(-1.0, 1.0, n, bc)
    ops = scenarios._operators(grid, variant, order)
    if variant == "periodic_const_narrow":
        depth = np.full(n, 0.7)
    else:
        depth = 1.0 + 0.3 * np.sin(np.pi * grid.nodes) + 0.1 * np.cos(5.0 * grid.nodes)
    if model == "bbm_bbm":
        build_bbm_discretization(grid, ops, lambda x: -depth, 9.81, variant)
    else:
        # reflecting boundaries take set5 only (no alpha or gamma terms)
        params = "set5" if bc == "bounded" else "set2"
        build_sk_discretization(grid, ops, lambda x: 0.5 - depth, 9.81, 0.5, params, variant)
    monkeypatch.undo()
    assert bands
    return bands


def _variant_cases():
    for model, variants in (("bbm_bbm", bbm_bbm.VARIANTS),
                            ("svaerd_kalisch", svaerd_kalisch.VARIANTS)):
        for variant in variants:
            if variant.startswith("reflecting"):
                # the smallest grids the p = 6 closures take, and a larger one
                orders, sizes = BOUNDED_ORDERS, (24, 41)
            else:
                # n = 10: offsets of the wider bands wrap (2w + 1 > n)
                orders = UPWIND_ORDERS if variant.endswith("upwind") else PERIODIC_CENTRAL_ORDERS
                sizes = (10, 41)
            for order in orders:
                for n in sizes:
                    yield model, variant, order, n


@pytest.mark.parametrize("model, variant, order, n", list(_variant_cases()))
def test_every_model_band_factors_to_the_bits_of_the_upper_storage_factor(
        monkeypatch, model, variant, order, n):
    rng = np.random.default_rng(order * 100 + n)
    for band, shifted in _model_bands(monkeypatch, model, variant, order, n):
        rhs = rng.normal(size=band.n)
        if shifted:
            solver = linsolve.ShiftedSolver(band)
            for _ in range(3):
                # water heights: random positive shifts of the static part
                diagonal = rng.uniform(0.05, 3.0, size=band.n)
                fact = solver.factor(diagonal)
                u, info, fold_order = upper_cholesky(band, diagonal)
                assert info == 0
                assert _bits(fact.u) == _bits(u)
                assert _bits(fact.solve(rhs)) == _bits(upper_cholesky_solve(u, fold_order, rhs))
        else:
            fact = linsolve.factor(band)
            u, info, fold_order = upper_cholesky(band)
            assert info == 0
            assert _bits(fact.u) == _bits(u)
            assert _bits(fact.solve(rhs)) == _bits(upper_cholesky_solve(u, fold_order, rhs))


@pytest.mark.parametrize("n, w", [(3, 2), (5, 2), (7, 4), (16, 2), (16, 8)])
def test_wrapping_periodic_bands_factor_to_the_bits_of_the_upper_storage_factor(n, w):
    # (3, 2), (5, 2), (7, 4) and (16, 8): offsets wrap (2w + 1 > n) and add up
    rng = np.random.default_rng(100 * n + w)
    band = linsolve.PeriodicBand(rng.normal(size=(w + 1, n)))
    band = band.shifted(1.0 - np.linalg.eigvalsh(dense_band(band))[0])
    u, info, order = upper_cholesky(band)
    assert info == 0
    fact = linsolve.factor(band)
    assert _bits(fact.u) == _bits(u)
    rhs = rng.normal(size=n)
    assert _bits(fact.solve(rhs)) == _bits(upper_cholesky_solve(u, order, rhs))


@pytest.mark.parametrize("periodic", [False, True])
def test_indefinite_band_reports_the_pivot_of_the_upper_storage_factor(periodic):
    static = _periodic_static_part() if periodic else _spd_band(40, 4, np.random.default_rng(12))
    diagonal = np.full(static.n, -3.0)
    diagonal[: static.n // 2] = 1.0  # the first pivots are positive
    u, info, order = upper_cholesky(static, diagonal)
    assert info > 0
    expected = u[-1, info - 1]
    with pytest.raises(FactorizationError) as err:
        linsolve.factor(static.shifted(diagonal))
    assert err.value.pivot == expected
    solver = linsolve.ShiftedSolver(static)
    with pytest.raises(FactorizationError) as err:
        solver.factor(diagonal)
    assert err.value.pivot == expected


def test_factoring_never_writes_the_band_or_the_packed_static_band():
    rng = np.random.default_rng(13)
    # one diagonal: its packed storage may be the band's own array
    for band in (linsolve.Band(np.full((1, 6), 2.0)), _spd_band(20, 3, rng),
                 _periodic_static_part().shifted(1.0)):
        before = band.diagonals.copy()
        linsolve.factor(band)
        assert _bits(band.diagonals) == _bits(before)
    static = _periodic_static_part()
    before = static.diagonals.copy()
    solver = linsolve.ShiftedSolver(static)
    diagonal = rng.uniform(0.5, 1.5, size=static.n)
    first = solver.factor(diagonal).u.copy()
    with pytest.raises(FactorizationError):
        solver.factor(np.full(static.n, -1.0))
    for _ in range(2):
        assert _bits(solver.factor(diagonal).u) == _bits(first)
    assert _bits(linsolve.ShiftedSolver(static).factor(diagonal).u) == _bits(first)
    assert _bits(static.diagonals) == _bits(before)


# -- stacks: one pbtrs call, the bits of one solve per row -----------------------


def _stack(rng, n):
    """Three right-hand sides: random, signed zeros among random, and all -0.0."""
    stack = rng.normal(size=(3, n))
    stack[1, ::2] = 0.0
    stack[1, 1::4] = -0.0
    stack[2] = -0.0
    return stack


@pytest.mark.parametrize("model, variant, order, n", list(_variant_cases()))
def test_every_model_band_solves_a_stack_to_the_bits_of_its_rows(
        monkeypatch, model, variant, order, n):
    rng = np.random.default_rng(order * 100 + n + 1)
    for band, shifted in _model_bands(monkeypatch, model, variant, order, n):
        fact = (linsolve.ShiftedSolver(band).factor(rng.uniform(0.05, 3.0, size=band.n))
                if shifted else linsolve.factor(band))
        stack = _stack(rng, band.n)
        before = stack.copy()
        x = fact.solve(stack)
        assert x.shape == stack.shape and x.flags.c_contiguous
        assert not np.shares_memory(x, stack) and _bits(stack) == _bits(before)
        for i in range(stack.shape[0]):
            assert _bits(x[i]) == _bits(fact.solve(stack[i])), i


@pytest.mark.parametrize("periodic", [False, True])
def test_stack_of_the_wrong_length_raises(periodic):
    band = _periodic_static_part().shifted(1.0) if periodic else _spd_band(
        16, 3, np.random.default_rng(14))
    fact = linsolve.factor(band)
    for shape in ((2, band.n + 1), (2, band.n - 1), (band.n, 2)):
        with pytest.raises(DimensionError):
            fact.solve(np.ones(shape))
