"""Batched right-hand sides against the same right-hand sides applied row by row.

Each model's ``rhs_fields`` stacks the independent derivatives of one
dependency layer into a single ``DerivativeOperator.apply``.  With
``apply`` replaced by a loop over the rows of a stack, every variant of
both models must give the same bytes, signed zeros included; the counts
pin how many applies one right-hand side makes.  ``rhs`` hands
``rhs_fields`` a (2, N) view of its flat state, which is checked for NaN
and inf in one pass and never written.
"""

import numpy as np
import pytest

from dispersive_sw import scenarios
from dispersive_sw.bbm_bbm import VARIANTS as BBM_VARIANTS
from dispersive_sw.bbm_bbm import build_bbm_discretization
from dispersive_sw.errors import NumericsError
from dispersive_sw.grid import make_uniform_grid
from dispersive_sw.manufactured import bbm_manufactured, sk_manufactured
from dispersive_sw.sbp import DerivativeOperator
from dispersive_sw.svaerd_kalisch import VARIANTS as SK_VARIANTS
from dispersive_sw.svaerd_kalisch import build_sk_discretization

G = 9.81
N = 41


def _bathymetry(x):
    return -2.0 - 0.3 * np.cos(np.pi * x)


def _flat(x):
    return np.full_like(x, -2.0)


def _bbm(variant, sourced):
    bc, upwind, _ = BBM_VARIANTS[variant]
    grid = make_uniform_grid(-1.0, 1.0, N, bc)
    ops = scenarios._operators(grid, upwind, 4)
    source = bbm_manufactured(bc, G).source if sourced else None
    bathymetry = _flat if variant == "periodic_const_narrow" else _bathymetry
    return build_bbm_discretization(grid, ops, bathymetry, G, variant,
                                    source_terms=source)


def _sk(variant, params, sourced, order=4):
    bc, upwind, _ = SK_VARIANTS[variant]
    grid = make_uniform_grid(-1.0, 1.0, N, bc)
    ops = scenarios._operators(grid, upwind, order)
    source = sk_manufactured(bc, G, params).source if sourced else None
    return build_sk_discretization(grid, ops, _bathymetry, G, 0.0, params, variant,
                                   source_terms=source)


BBM_CASES = [
    (variant, sourced)
    for variant in [
        "periodic_central_wide",
        "periodic_central_narrow",
        "periodic_const_narrow",
        "periodic_upwind",
        "reflecting_central",
        "reflecting_upwind",
    ]
    for sourced in (False, True)
]

# set2: alpha and gamma terms; set3: gamma only; set5: neither; orders 2
# and 4 exist for every operator family and give stencils of two widths
SK_CASES = [
    (variant, params, order, sourced)
    for variant, params in [
        ("periodic_central_split", "set2"),
        ("periodic_central_split", "set3"),
        ("periodic_central_split", "set5"),
        ("periodic_upwind", "set2"),
        ("periodic_upwind", "set3"),
        ("periodic_upwind", "set5"),
        ("reflecting_beta_only", "set5"),
    ]
    for order in (2, 4)
    for sourced in (False, True)
]


def _state(disc):
    """A wet state with exact zeros of both signs in eta and v."""
    rng = np.random.default_rng(7)
    eta, v = 0.1 * rng.normal(size=N), rng.normal(size=N)
    eta[::5], eta[1::7] = 0.0, -0.0
    v[::4], v[2::6] = -0.0, 0.0
    if not disc.grid.is_periodic:
        v[0] = v[-1] = 0.0
    return np.concatenate([eta, v])


def _rhs_bytes_batched_and_row_by_row(monkeypatch, disc):
    y = _state(disc)
    batched = disc.rhs(0.3, y)
    single = DerivativeOperator.apply

    def row_by_row(self, u):
        u = np.asarray(u)
        if u.ndim == 1:
            return single(self, u)
        return np.array([single(self, row) for row in u])

    monkeypatch.setattr(DerivativeOperator, "apply", row_by_row)
    return batched.tobytes(), disc.rhs(0.3, y).tobytes()


@pytest.mark.parametrize("variant, sourced", BBM_CASES)
def test_bbm_batched_rhs_equals_row_by_row(monkeypatch, variant, sourced):
    batched, looped = _rhs_bytes_batched_and_row_by_row(
        monkeypatch, _bbm(variant, sourced))
    assert batched == looped


@pytest.mark.parametrize("variant, params, order, sourced", SK_CASES)
def test_sk_batched_rhs_equals_row_by_row(monkeypatch, variant, params, order,
                                          sourced):
    batched, looped = _rhs_bytes_batched_and_row_by_row(
        monkeypatch, _sk(variant, params, sourced, order))
    assert batched == looped


def _apply_calls_per_rhs(monkeypatch, disc):
    calls, single = [0], DerivativeOperator.apply

    def counting(self, u):
        calls[0] += 1
        return single(self, u)

    monkeypatch.setattr(DerivativeOperator, "apply", counting)
    disc.rhs(0.0, _state(disc))
    return calls[0]


@pytest.mark.parametrize("disc, calls", [
    # D1 [eta, v] | D1 (ahat D1 eta), D2 [v, ghat D1 v]
    # | D1 [q, v q, ghat D2 v] with the flux q = y - hv
    (lambda: _sk("periodic_central_split", "set2", False), 4),
    # layer 1 adds D+ [eta, v]; layer 2 D- (ahat D+ eta), D2 [v, ghat D1 v];
    # layer 3 D- [y, v y] and D1 (ghat D2 v) apart
    (lambda: _sk("periodic_upwind", "set2", False), 6),
    (lambda: _sk("reflecting_beta_only", "set5", False), 1),
    (lambda: _bbm("periodic_const_narrow", False), 1),
    # reflecting: D1 [mass flux, velocity flux] | D1 of the solution | D1 of
    # the full mass flux (eta_t as a flux divergence, see bbm_bbm)
    (lambda: _bbm("reflecting_central", False), 3),
    (lambda: _bbm("periodic_upwind", False), 2),
    (lambda: _bbm("reflecting_upwind", False), 4),
], ids=["sk_central", "sk_upwind", "sk_reflecting", "bbm_const_narrow",
        "bbm_reflecting_central", "bbm_upwind", "bbm_reflecting_upwind"])
def test_one_apply_per_operator_and_layer(monkeypatch, disc, calls):
    assert _apply_calls_per_rhs(monkeypatch, disc()) == calls


# every variant of both models, periodic and reflecting
EVERY_VARIANT = [("bbm_bbm", variant) for variant in BBM_VARIANTS] + [
    ("svaerd_kalisch", variant) for variant in SK_VARIANTS]


def _discretization(model, variant):
    if model == "bbm_bbm":
        return _bbm(variant, False)
    return _sk(variant, "set5" if SK_VARIANTS[variant][0] == "bounded" else "set2", False)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("model, variant", EVERY_VARIANT)
def test_any_non_finite_entry_raises(model, variant, bad):
    # one finiteness check on the whole stack covers every entry of both fields
    disc = _discretization(model, variant)
    y = _state(disc)
    for i in range(y.size):
        bad_y = y.copy()
        bad_y[i] = bad
        with pytest.raises(NumericsError):
            disc.rhs(0.3, bad_y)
        with pytest.raises(NumericsError):
            disc.rhs_fields(bad_y.reshape(2, -1), 0.3)


@pytest.mark.parametrize("model, variant", EVERY_VARIANT)
def test_rhs_reads_a_view_of_its_state_and_writes_nothing(model, variant):
    disc = _discretization(model, variant)
    y = _state(disc)
    before = y.tobytes()
    seen, fields = [], disc.rhs_fields

    def spy(state, t):
        seen.append(np.shares_memory(state, y))
        return fields(state, t)

    disc.rhs_fields = spy
    disc.rhs(0.3, y)
    assert seen == [True]  # the state is passed as a view, not copied
    assert y.tobytes() == before


@pytest.mark.parametrize("model, variant", EVERY_VARIANT)
def test_rhs_returns_a_fresh_c_contiguous_array(model, variant):
    disc = _discretization(model, variant)
    y = _state(disc)
    out = disc.rhs(0.3, y)
    assert out.shape == y.shape and out.flags.c_contiguous
    assert not np.shares_memory(out, y)


def test_const_narrow_solves_both_fields_in_one_call_with_the_bits_of_two():
    disc = _bbm("periodic_const_narrow", False)
    y = _state(disc)
    eta, v = y.reshape(2, -1)
    d1, solver = disc.operators.d1, disc._solver_mass
    deta = solver.solve(-d1.apply((disc.still_depth + eta) * v))
    dv = solver.solve(-d1.apply(disc.gravity * eta + 0.5 * v * v))
    calls = []
    solve = solver.solve

    def counting_solve(rhs):
        calls.append(np.shape(rhs))
        return solve(rhs)

    solver.solve = counting_solve
    assert disc.rhs(0.3, y).tobytes() == np.concatenate([deta, dv]).tobytes()
    assert calls == [(2, disc.grid.n_nodes)]
