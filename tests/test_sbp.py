from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dispersive_sw import sbp
from dispersive_sw.errors import ConfigurationError
from dispersive_sw.grid import make_uniform_grid
from dispersive_sw.sbp import (
    _BOUNDED_CORNER,
    _BOUNDED_NORM,
    BOUNDED_ORDERS,
    PERIODIC_CENTRAL_ORDERS,
    UPWIND_ORDERS,
    DerivativeOperator,
    UpwindOperatorPair,
    build_bounded_central_d1,
    build_bounded_upwind,
    build_periodic_central_d1,
    build_periodic_d2,
    build_periodic_upwind,
    bounded_operators,
    periodic_operators,
    verify_sbp_identity,
)

from .oracles import (
    bounded_closure_rational,
    dense_bounded_central_d1,
    dense_bounded_upwind,
    dense_operator,
    dense_sbp_residuals,
    roll_apply,
)

PGRID = make_uniform_grid(0.0, 1.0, 64, "periodic")
BGRID = make_uniform_grid(-1.0, 1.0, 64, "bounded")


def test_periodic_p2_is_the_classical_stencil():
    op = build_periodic_central_d1(PGRID, 2)
    dx = PGRID.spacing
    assert np.allclose(op.mass.diagonal, dx)
    dense = dense_operator(op)
    row = dense[3]
    assert row[2] == -0.5 / dx and row[4] == 0.5 / dx and row[3] == 0.0
    # wrap-around rows of the displayed circulant
    assert dense[0, -1] == -0.5 / dx and dense[-1, 0] == 0.5 / dx


@pytest.mark.parametrize("order", PERIODIC_CENTRAL_ORDERS)
def test_periodic_central_identities(order):
    op = build_periodic_central_d1(PGRID, order)
    report = verify_sbp_identity(op)
    assert report.passed
    assert np.max(np.abs(op.apply(np.ones(64)))) == 0.0


@pytest.mark.parametrize("order", PERIODIC_CENTRAL_ORDERS)
def test_periodic_central_accuracy_eoc(order):
    errs = []
    for n in (64, 128):
        grid = make_uniform_grid(0.0, 1.0, n, "periodic")
        op = build_periodic_central_d1(grid, order)
        u = np.sin(2 * np.pi * grid.nodes)
        exact = 2 * np.pi * np.cos(2 * np.pi * grid.nodes)
        errs.append(np.max(np.abs(op.apply(u) - exact)))
    eoc = np.log2(errs[0] / errs[1])
    assert abs(eoc - order) <= 0.25


@pytest.mark.parametrize("order", UPWIND_ORDERS)
def test_upwind_pair_identities_and_dissipation(order):
    pair = build_periodic_upwind(PGRID, order)
    report = verify_sbp_identity(pair)
    assert report.passed
    m = np.diag(pair.mass.diagonal)
    dp, dm = dense_operator(pair.d_plus), dense_operator(pair.d_minus)
    residual = m @ dp + dm.T @ m
    assert np.max(np.abs(residual)) == 0.0  # exact by the transpose construction
    rng = np.random.default_rng(5)
    for _ in range(100):
        u = rng.normal(size=64)
        quad = float(u @ (m @ (dm @ u)))
        tol = 1e-12 * float(u @ (m @ u))
        assert quad >= -tol
        assert float(u @ (m @ (dp @ u))) <= tol


def test_upwind_p1_is_forward_backward():
    pair = build_periodic_upwind(PGRID, 1)
    dx = PGRID.spacing
    row = dense_operator(pair.d_plus)[5]
    assert row[5] == -1.0 / dx and row[6] == 1.0 / dx
    row = dense_operator(pair.d_minus)[5]
    assert row[5] == 1.0 / dx and row[4] == -1.0 / dx
    # dissipation matrix is dx/2 times the periodic second difference
    s = 0.5 * np.diag(pair.mass.diagonal) @ (
        dense_operator(pair.d_plus) - dense_operator(pair.d_minus)
    )
    d2 = dense_operator(build_periodic_d2(PGRID, 2))
    np.testing.assert_allclose(s, 0.5 * dx**2 * d2, atol=1e-14)


def test_upwind_p1_average_is_central_p2():
    pair = build_periodic_upwind(PGRID, 1)
    avg = pair.central_average()
    expect = build_periodic_central_d1(PGRID, 2)
    np.testing.assert_allclose(dense_operator(avg), dense_operator(expect), atol=1e-15)
    assert avg.accuracy_order == 2


@pytest.mark.parametrize("order", UPWIND_ORDERS)
def test_upwind_average_is_valid_central_operator(order):
    pair = build_periodic_upwind(PGRID, order)
    avg = pair.central_average()
    assert verify_sbp_identity(avg).passed


@pytest.mark.parametrize("op", [
    build_periodic_d2(PGRID, 4),
    build_periodic_upwind(PGRID, 4).second_derivative(),
], ids=["narrow", "upwind_composite"])
def test_periodic_d2_symmetry(op):
    assert verify_sbp_identity(op).passed
    m = np.diag(op.mass.diagonal)
    d = dense_operator(op)
    assert np.max(np.abs(m @ d - d.T @ m)) <= 1e-12 * np.max(np.abs(d))


def test_narrow_d2_p2_stencil():
    op = build_periodic_d2(PGRID, 2)
    dx2 = PGRID.spacing**2
    row = dense_operator(op)[7]
    assert row[6] == 1.0 / dx2 and row[7] == -2.0 / dx2 and row[8] == 1.0 / dx2


@pytest.mark.parametrize("order", PERIODIC_CENTRAL_ORDERS)
def test_periodic_d2_accuracy(order):
    # resolutions kept coarse enough that the error sits above the
    # eps / dx^2 roundoff floor of second-derivative stencils
    errs = []
    for n in (16, 32):
        grid = make_uniform_grid(0.0, 1.0, n, "periodic")
        op = build_periodic_d2(grid, order)
        u = np.sin(2 * np.pi * grid.nodes)
        exact = -(2 * np.pi) ** 2 * u
        errs.append(np.max(np.abs(op.apply(u) - exact)))
    eoc = np.log2(errs[0] / errs[1])
    assert abs(eoc - order) <= 0.25


@pytest.mark.parametrize("order", BOUNDED_ORDERS)
def test_bounded_identities_and_orders(order):
    op = build_bounded_central_d1(BGRID, order)
    assert verify_sbp_identity(op).passed
    x = BGRID.nodes
    d = dense_operator(op)
    c = op.closure[0].shape[0]
    # boundary rows exact through p/2, interior rows through p
    for k in range(order // 2 + 1):
        expect = k * x ** (k - 1) if k >= 1 else np.zeros_like(x)
        assert np.max(np.abs(d @ x**k - expect)) <= 1e-10
    for k in range(order // 2 + 1, order + 1):
        res = (d @ x**k - k * x ** (k - 1))[c:-c]
        assert np.max(np.abs(res)) <= 1e-10


def test_bounded_p2_matches_displayed_example():
    grid = make_uniform_grid(0.0, 4.0, 5, "bounded")
    op = build_bounded_central_d1(grid, 2)
    expect = np.array(
        [
            [-1, 1, 0, 0, 0],
            [-0.5, 0, 0.5, 0, 0],
            [0, -0.5, 0, 0.5, 0],
            [0, 0, -0.5, 0, 0.5],
            [0, 0, 0, -1, 1],
        ]
    )
    np.testing.assert_allclose(dense_operator(op), expect, atol=1e-15)
    np.testing.assert_allclose(op.mass.diagonal, [0.5, 1, 1, 1, 0.5], atol=1e-15)


def test_bounded_p4_matches_classical_coefficients():
    grid = make_uniform_grid(0.0, 14.0, 15, "bounded")
    op = build_bounded_central_d1(grid, 4)
    d = dense_operator(op)
    np.testing.assert_allclose(
        d[0, :6] * grid.spacing,
        [-24 / 17, 59 / 34, -4 / 17, -3 / 34, 0, 0],
        atol=1e-14,
    )
    np.testing.assert_allclose(
        d[3, :6] * grid.spacing,
        [3 / 98, 0, -59 / 98, 0, 32 / 49, -4 / 49],
        atol=1e-14,
    )
    np.testing.assert_allclose(
        op.mass.diagonal[:5] / grid.spacing,
        [17 / 48, 59 / 48, 43 / 48, 49 / 48, 1.0],
        atol=1e-14,
    )


def test_bounded_telescoping():
    rng = np.random.default_rng(2)
    for order in BOUNDED_ORDERS:
        op = build_bounded_central_d1(BGRID, order)
        u = rng.normal(size=64)
        total = float(op.mass.diagonal @ op.apply(u))
        assert abs(total - (u[-1] - u[0])) <= 1e-12


@pytest.mark.parametrize("order", BOUNDED_ORDERS)
def test_bounded_upwind_pair(order):
    pair = build_bounded_upwind(build_bounded_central_d1(BGRID, order))
    assert verify_sbp_identity(pair).passed
    m = np.diag(pair.mass.diagonal)
    s = 0.5 * m @ (dense_operator(pair.d_plus) - dense_operator(pair.d_minus))
    np.testing.assert_allclose(s, s.T, atol=1e-12)
    eigs = np.linalg.eigvalsh(s)
    assert np.max(eigs) <= 1e-10 * max(1.0, np.max(np.abs(s)))


@pytest.mark.parametrize("order", BOUNDED_ORDERS)
def test_bounded_upwind_dissipation_scales_like_d1(order):
    # dx (D+ - D1) = M^-1 dx S: closure rows and stencil independent of N
    blocks = []
    for n in (64, 4096):
        grid = make_uniform_grid(-1.0, 1.0, n, "bounded")
        d1 = build_bounded_central_d1(grid, order)
        pair = build_bounded_upwind(d1)
        width = pair.d_plus.closure[0].shape[1]
        columns = np.eye(n)[: 3 * width]  # row j: e_j, so apply(e_j)[i] = D[i, j]
        difference = pair.d_plus.apply(columns) - d1.apply(columns)
        blocks.append(grid.spacing * difference[:, : 2 * width].T)
    scale = np.max(np.abs(blocks[0]))
    assert np.max(np.abs(blocks[1] - blocks[0])) <= 1e-12 * scale


def test_lemma_one_vector_annihilation():
    # 1^T M D = 0 for every periodic operator
    ops = [build_periodic_central_d1(PGRID, p) for p in PERIODIC_CENTRAL_ORDERS]
    ops += [build_periodic_d2(PGRID, p) for p in PERIODIC_CENTRAL_ORDERS]
    for pair_order in UPWIND_ORDERS:
        pair = build_periodic_upwind(PGRID, pair_order)
        ops += [pair.d_plus, pair.d_minus]
    for op in ops:
        d = dense_operator(op)
        lhs = op.mass.diagonal @ d
        assert np.max(np.abs(lhs)) <= 1e-13 * np.max(np.abs(d)), op.kind


def test_lemma_central_quadratic_form_vanishes():
    rng = np.random.default_rng(9)
    op = build_periodic_central_d1(PGRID, 6)
    m = op.mass.diagonal
    for _ in range(100):
        u = rng.normal(size=64)
        norm2 = float(np.sum(m * u * u))
        assert abs(np.sum(m * u * op.apply(u))) <= 1e-12 * norm2


def test_verify_flags_perturbed_operator():
    # perturbing c_+1 breaks c_+1 + c_-1 = 0 by 1e-6, so M D + D^T M has
    # entries of size 1e-6 * dx, as a perturbed dense entry would
    op = build_periodic_central_d1(PGRID, 4)
    bad = op.coefficients.copy()
    bad[list(op.offsets).index(1)] += 1e-6
    tampered = DerivativeOperator(
        op.kind, op.accuracy_order, op.grid, op.mass,
        offsets=op.offsets, coefficients=bad,
    )
    report = verify_sbp_identity(tampered)
    assert not report.passed
    expected = 1e-6 * op.mass.diagonal[3]
    assert report.residuals["periodic_sbp"] == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("order", UPWIND_ORDERS)
def test_verify_flags_swapped_upwind_pair(order):
    # D- in the role of D+ keeps M D+ + D-^T M = 0 (its transpose) and the
    # consistency, but S = M (D+ - D-) / 2 turns positive semidefinite
    pair = build_periodic_upwind(PGRID, order)
    swapped = UpwindOperatorPair(pair.d_minus, pair.d_plus, pair.mass, order, PGRID)
    report = verify_sbp_identity(swapped)
    assert not report.passed
    assert report.residuals["dissipation"] > report.threshold
    others = {k: v for k, v in report.residuals.items() if k != "dissipation"}
    assert max(others.values()) <= report.threshold, others


@pytest.mark.parametrize("order", BOUNDED_ORDERS)
def test_bounded_identity_residuals_equal_dense_form(order):
    # stencil and corner blocks form the same products as np.diag(M) @ D on
    # the dense matrices of the oracle; consistency sums in another order
    central = build_bounded_central_d1(BGRID, order)
    pair = build_bounded_upwind(central)
    d1, _ = dense_bounded_central_d1(BGRID, order)
    dp, dm, _ = dense_bounded_upwind(BGRID, order)
    for op, dense in ((central, d1), (pair, (dp, dm))):
        report = verify_sbp_identity(op)
        for key, value in dense_sbp_residuals(op, dense).items():
            if key.startswith("consistency"):
                assert abs(report.residuals[key] - value) <= 1e-2 * report.threshold
            else:
                assert report.residuals[key] == value, (op, key)


@pytest.mark.parametrize("order", BOUNDED_ORDERS)
def test_bounded_closure_table_matches_exact_derivation(order):
    hw, c, corner = bounded_closure_rational(order)
    assert hw == _BOUNDED_NORM[order]
    assert c == len(_BOUNDED_NORM[order])
    assert corner == _BOUNDED_CORNER[order]


@pytest.mark.parametrize("n", [24, 41, 97])
@pytest.mark.parametrize("order", BOUNDED_ORDERS)
def test_bounded_apply_matches_dense_oracle(order, n):
    grid = make_uniform_grid(-1.0, 1.0, n, "bounded")
    central = build_bounded_central_d1(grid, order)
    pair = build_bounded_upwind(central)
    d1, mass = dense_bounded_central_d1(grid, order)
    dp, dm, _ = dense_bounded_upwind(grid, order)
    rng = np.random.default_rng(n)
    u = rng.normal(size=n)
    for op, dense in ((central, d1),
                      (pair.d_plus, dp), (pair.d_minus, dm)):
        assert np.array_equal(op.mass.diagonal, mass)
        got = dense_operator(op)
        off_diagonal = ~np.eye(n, dtype=bool)
        # the apply forms the diagonal as minus the sum of its row's others
        assert np.array_equal(got[off_diagonal], dense[off_diagonal]), op.kind
        scale = np.max(np.sum(np.abs(dense), axis=1))
        assert np.max(np.abs(np.diagonal(got) - np.diagonal(dense))) <= 1e-14 * scale
        assert np.max(np.abs(op.apply(u) - dense @ u)) <= 1e-14 * scale * np.max(np.abs(u))


def _periodic_operators_and_pairs(grid):
    ops = [build_periodic_central_d1(grid, p) for p in PERIODIC_CENTRAL_ORDERS]
    ops += [build_periodic_d2(grid, p) for p in PERIODIC_CENTRAL_ORDERS]
    ops += [build_periodic_upwind(grid, p).second_derivative() for p in UPWIND_ORDERS]
    ops += [build_periodic_upwind(grid, p) for p in UPWIND_ORDERS]
    ops += [pair.central_average() for pair in ops[-len(UPWIND_ORDERS):]]
    return ops


@pytest.mark.parametrize("n", [40, 41])
def test_periodic_stencil_residuals_match_dense_form(n):
    # adjoint and symmetry residuals are the same floating-point products
    # as the dense entries; consistency sums the stencil in another order
    grid = make_uniform_grid(0.0, 3.0, n, "periodic")
    for op in _periodic_operators_and_pairs(grid):
        report = verify_sbp_identity(op)
        dense = dense_sbp_residuals(op)
        for key, value in dense.items():
            if key.startswith("consistency"):
                # threshold = 1e-12 * scale: agree within 1e-14 * scale
                assert abs(report.residuals[key] - value) <= 1e-2 * report.threshold
            else:
                assert report.residuals[key] == value, (op, key)


def _every_operator(length, n):
    """Every operator and pair of every order at spacing dx = length / n:
    n periodic nodes and n + 1 bounded ones on [0, length]."""
    ops = _periodic_operators_and_pairs(make_uniform_grid(0.0, length, n, "periodic"))
    bounded = make_uniform_grid(0.0, length, n + 1, "bounded")
    for order in BOUNDED_ORDERS:
        d1 = build_bounded_central_d1(bounded, order)
        ops += [d1, build_bounded_upwind(d1)]
    return ops


FINE = (1e-4, 1000)  # dx = 1e-7, the spacing of 2e7 nodes on [-1, 1]


def test_every_operator_passes_its_identity_check_on_a_fine_grid():
    # consistency and the D2 moment carry M as the adjoint residuals do, so
    # their roundoff does not grow like 1/dx (1/dx^2) past the threshold
    for op in _every_operator(*FINE):
        report = verify_sbp_identity(op)
        assert report.passed, (report.kind, report.residuals, report.threshold)


def _perturbed(op, closure):
    """op with one coefficient scaled by 1 + 1e-6: its largest off-centre
    stencil one, or entry (0, 1) of its left closure rows; a pair's D+."""
    if isinstance(op, UpwindOperatorPair):
        return UpwindOperatorPair(_perturbed(op.d_plus, closure), op.d_minus, op.mass,
                                  op.accuracy_order, op.grid)
    coefficients, rows = op.coefficients.copy(), op.closure
    if closure:
        left = rows[0].copy()
        left[0, 1] *= 1 + 1e-6
        rows = (left, rows[1])
    else:
        coefficients[np.argmax(np.abs(coefficients) * (op.offsets != 0))] *= 1 + 1e-6
    return DerivativeOperator(op.kind, op.accuracy_order, op.grid, op.mass, op.offsets,
                              coefficients, rows)


@pytest.mark.parametrize("length, n", [(2.0, 200), FINE], ids=["dx_1e-2", "dx_1e-7"])
def test_verify_refuses_one_coefficient_perturbed_by_1e_6(length, n):
    for op in _every_operator(length, n):
        for closure in (False, True) if op.grid.bc_kind == "bounded" else (False,):
            report = verify_sbp_identity(_perturbed(op, closure))
            assert not report.passed, (report.kind, closure, report.residuals)


def test_unsupported_orders_rejected():
    with pytest.raises(ConfigurationError):
        build_periodic_central_d1(PGRID, 3)
    with pytest.raises(ConfigurationError):
        build_periodic_upwind(PGRID, 5)
    with pytest.raises(ConfigurationError):
        build_bounded_central_d1(BGRID, 8)
    with pytest.raises(ConfigurationError):
        build_periodic_d2(PGRID, 3)


def test_grid_too_small_for_stencil():
    tiny = make_uniform_grid(0.0, 1.0, 6, "periodic")
    with pytest.raises(ConfigurationError):
        build_periodic_central_d1(tiny, 8)
    tinyb = make_uniform_grid(0.0, 1.0, 8, "bounded")
    with pytest.raises(ConfigurationError):
        build_bounded_central_d1(tinyb, 6)


@pytest.mark.parametrize("bundle, builder, grid", [
    (periodic_operators, "build_periodic_upwind", PGRID),
    (bounded_operators, "build_bounded_central_d1", BGRID),
], ids=["periodic", "bounded"])
def test_upwind_bundle_builds_each_operator_once(bundle, builder, grid, monkeypatch):
    # the periodic bundle takes D1 and D2 from its one pair; the bounded pair
    # extends the bundle's one central D1
    calls = []
    original = getattr(sbp, builder)
    monkeypatch.setattr(sbp, builder, lambda *args: calls.append(args) or original(*args))
    bundle(grid, 4, upwind=True)
    assert len(calls) == 1


def test_bounded_on_periodic_grid_rejected():
    with pytest.raises(ConfigurationError):
        build_bounded_central_d1(PGRID, 2)
    with pytest.raises(ConfigurationError):
        build_periodic_central_d1(BGRID, 2)


# every periodic operator family: (family, order)
PERIODIC_STENCILS = (
    [("central", p) for p in PERIODIC_CENTRAL_ORDERS]
    + [("narrow", p) for p in PERIODIC_CENTRAL_ORDERS]
    + [("upwind_composite", p) for p in UPWIND_ORDERS]
    + [(side, p) for side in ("plus", "minus", "average") for p in UPWIND_ORDERS]
)


def _periodic_operator(family, order, n):
    """The operator of a family on n nodes; rejects n below the stencil width."""
    grid = make_uniform_grid(0.0, 1.0, n, "periodic")
    try:
        if family == "central":
            return build_periodic_central_d1(grid, order)
        if family == "narrow":
            return build_periodic_d2(grid, order)
        pair = build_periodic_upwind(grid, order)
        if family == "upwind_composite":
            return pair.second_derivative()
    except ConfigurationError:
        reject()
    if family == "plus":
        return pair.d_plus
    if family == "minus":
        return pair.d_minus
    return pair.central_average()


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_padded_slice_apply_matches_roll_oracle(data):
    family, order = data.draw(st.sampled_from(PERIODIC_STENCILS))
    n = data.draw(st.integers(3, 80))
    op = _periodic_operator(family, order, n)
    # signed zeros often, so that pair sums of -0.0 occur
    elements = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6))
    u = data.draw(arrays(np.float64, n, elements=elements))
    before = u.copy()
    out = op.apply(u)
    ref = roll_apply(u, op.offsets, op.coefficients)
    assert np.array_equal(out, ref)
    assert out.tobytes() == ref.tobytes()  # signed zeros included
    assert np.array_equal(u, before)  # the input is not modified


# every bounded operator: (family, order); sizes from the smallest that the
# order-6 upwind pair accepts (twice its closure width of 12)
BOUNDED_FAMILIES = [
    (family, p) for family in ("central", "plus", "minus") for p in BOUNDED_ORDERS
]
BOUNDED_SIZES = (24, 40, 41)


@lru_cache(maxsize=None)
def _bounded_operator(family, order, n):
    grid = make_uniform_grid(-1.0, 1.0, n, "bounded")
    if family == "central":
        return build_bounded_central_d1(grid, order)
    pair = build_bounded_upwind(build_bounded_central_d1(grid, order))
    return pair.d_plus if family == "plus" else pair.d_minus


@pytest.mark.parametrize("boundary", ["periodic", "bounded"])
@given(st.data())
@settings(max_examples=300, deadline=None)
def test_every_operator_maps_constants_to_exact_zeros(boundary, data):
    # c_0 is never multiplied: every term is a difference of u values, so a
    # constant gives 0.0 (or -0.0) in every row, for every family; an
    # antisymmetric stencil gives +0.0 bytes, its first term c_1 (u - u)
    # with c_1 > 0
    if boundary == "bounded":
        family, order = data.draw(st.sampled_from(BOUNDED_FAMILIES))
        op = _bounded_operator(family, order, data.draw(st.sampled_from(BOUNDED_SIZES)))
    else:
        family, order = data.draw(st.sampled_from(PERIODIC_STENCILS))
        op = _periodic_operator(family, order, data.draw(st.integers(3, 80)))
    if family in ("central", "average"):
        table = dict(zip(op.offsets.tolist(), op.coefficients))
        assert all(table.get(-k, 0.0) == -c for k, c in table.items())
    value = data.draw(st.floats(-1e6, 1e6))
    m = data.draw(st.integers(1, 3))
    out = op.apply(np.full((m, op.n), value))
    assert out.shape == (m, op.n)
    if family in ("central", "average"):
        assert out.tobytes() == np.zeros((m, op.n)).tobytes(), (family, order, op.n, value)
    else:
        assert not np.any(out), (family, order, op.n, value)


@pytest.mark.parametrize("boundary", ["periodic", "bounded"])
@pytest.mark.parametrize("dtype", [np.int64, np.float32])
@given(st.data())
@settings(max_examples=50, deadline=None)
def test_apply_returns_float64_of_any_real_input(boundary, dtype, data):
    # the input is converted to float64 first, so integer and float32
    # vectors give the bits of their float64 copy
    if boundary == "bounded":
        family, order = data.draw(st.sampled_from(BOUNDED_FAMILIES))
        op = _bounded_operator(family, order, data.draw(st.sampled_from(BOUNDED_SIZES)))
    else:
        family, order = data.draw(st.sampled_from(PERIODIC_STENCILS))
        op = _periodic_operator(family, order, data.draw(st.integers(3, 80)))
    if dtype is np.int64:
        elements = st.integers(-1000, 1000)
    else:
        elements = st.floats(-1e3, 1e3, width=32)
    u = data.draw(arrays(dtype, op.n, elements=elements))
    out = op.apply(u)
    assert out.dtype == np.float64
    assert out.tobytes() == op.apply(u.astype(np.float64)).tobytes()


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_stacked_apply_rows_equal_single_applies(data):
    if data.draw(st.booleans()):
        family, order = data.draw(st.sampled_from(BOUNDED_FAMILIES))
        n = data.draw(st.sampled_from(BOUNDED_SIZES))
        op = _bounded_operator(family, order, n)
    else:
        family, order = data.draw(st.sampled_from(PERIODIC_STENCILS))
        n = data.draw(st.integers(3, 80))
        op = _periodic_operator(family, order, n)
    m = data.draw(st.integers(1, 5))
    # signed zeros often, so that pair sums of -0.0 occur
    elements = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6))
    stack = data.draw(arrays(np.float64, (m, n), elements=elements))
    before = stack.tobytes()
    out = op.apply(stack)
    assert out.shape == (m, n)
    for row, u in zip(out, stack):
        assert row.tobytes() == op.apply(u).tobytes()
        if op.closure is None:
            ref = roll_apply(u, op.offsets, op.coefficients)
            assert row.tobytes() == ref.tobytes()
    assert stack.tobytes() == before  # the input is not modified


@pytest.mark.parametrize("layout", ["transposed", "row_strided", "three_d"])
@pytest.mark.parametrize("boundary", ["periodic", "bounded"])
@given(st.data())
@settings(max_examples=100, deadline=None)
def test_strided_and_3d_stacks_give_the_bits_of_row_applies(boundary, layout, data):
    # the pad gathers along the last axis of whatever layout it is given
    if boundary == "bounded":
        family, order = data.draw(st.sampled_from(BOUNDED_FAMILIES))
        op = _bounded_operator(family, order, data.draw(st.sampled_from(BOUNDED_SIZES)))
    else:
        family, order = data.draw(st.sampled_from(PERIODIC_STENCILS))
        op = _periodic_operator(family, order, data.draw(st.integers(3, 80)))
    m = data.draw(st.integers(2, 4))  # a single row would count as contiguous
    elements = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6))
    if layout == "transposed":
        u = data.draw(arrays(np.float64, (op.n, m), elements=elements)).T
    elif layout == "row_strided":
        u = data.draw(arrays(np.float64, (2 * m, op.n), elements=elements))[::2]
    else:
        u = data.draw(arrays(np.float64, (data.draw(st.integers(1, 3)), m, op.n),
                             elements=elements))
    assert layout == "three_d" or not u.flags.c_contiguous
    before = u.tobytes()
    out = op.apply(u)
    assert out.shape == u.shape
    for index in np.ndindex(u.shape[:-1]):
        assert out[index].tobytes() == op.apply(u[index].copy()).tobytes()
    assert u.tobytes() == before


@pytest.mark.parametrize("op", [
    build_periodic_central_d1(PGRID, 4),
    build_periodic_upwind(PGRID, 4).second_derivative(),
    build_bounded_upwind(build_bounded_central_d1(BGRID, 4)).d_plus,
], ids=["periodic_central", "periodic_upwind_composite_d2", "bounded_plus"])
def test_to_dense_is_c_contiguous_and_maps_columns(op):
    dense = dense_operator(op)
    assert dense.flags.c_contiguous
    rng = np.random.default_rng(3)
    u = rng.normal(size=op.n)
    np.testing.assert_allclose(dense @ u, op.apply(u), rtol=0, atol=1e-10 * np.max(np.abs(dense)))


# every family whose identities verify_sbp_identity checks: (family, order)
SBP_FAMILIES = (
    [("central", p) for p in PERIODIC_CENTRAL_ORDERS]
    + [("narrow", p) for p in PERIODIC_CENTRAL_ORDERS]
    + [(family, p) for family in ("upwind_composite", "upwind_pair", "average")
       for p in UPWIND_ORDERS]
    + [(family, p) for family in ("bounded_central", "bounded_pair")
       for p in BOUNDED_ORDERS]
)


def _sbp_operator(family, order, n, length):
    """The operator (or upwind pair) of a family; ConfigurationError when n is
    below what the family accepts."""
    bc = "bounded" if family.startswith("bounded") else "periodic"
    grid = make_uniform_grid(0.0, length, n, bc)
    if family == "central":
        return build_periodic_central_d1(grid, order)
    if family == "narrow":
        return build_periodic_d2(grid, order)
    if family == "bounded_central":
        return build_bounded_central_d1(grid, order)
    if family == "bounded_pair":
        return build_bounded_upwind(build_bounded_central_d1(grid, order))
    pair = build_periodic_upwind(grid, order)
    if family == "upwind_composite":
        return pair.second_derivative()
    return pair if family == "upwind_pair" else pair.central_average()


@lru_cache(maxsize=None)
def _smallest_n(family, order):
    for n in range(3, 100):
        try:
            _sbp_operator(family, order, n, 1.0)
            return n
        except ConfigurationError:
            continue
    raise AssertionError(f"no grid below 100 nodes accepts {family} order {order}")


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_sbp_identities_hold_from_each_familys_smallest_grid(data):
    family, order = data.draw(st.sampled_from(SBP_FAMILIES))
    smallest = _smallest_n(family, order)
    n = data.draw(st.integers(smallest, smallest + 60))
    op = _sbp_operator(family, order, n, data.draw(st.floats(0.1, 50.0)))
    report = verify_sbp_identity(op)
    assert report.passed, (family, order, n, report.residuals)
    # the dense O(N^3) form of every identity meets the same threshold
    for key, value in dense_sbp_residuals(op).items():
        assert value <= report.threshold, (family, order, n, key, value)
