from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dispersive_sw import timestepping
from dispersive_sw.bbm_bbm import build_bbm_discretization
from dispersive_sw.errors import ConfigurationError, DomainError, NumericsError
from dispersive_sw.grid import make_uniform_grid
from dispersive_sw.sbp import periodic_operators
from dispersive_sw.timestepping import (
    DOPRI5,
    RK4,
    ButcherTableau,
    _solve_gamma,
    adaptive_controller,
    integrate,
    rk_step,
)

from .oracles import FunctionalFromCallable, matrix_exponential_reference


def test_zero_rhs_is_identity():
    y = np.array([1.0, -2.0])
    du, err, *_ = rk_step(lambda t, u: np.zeros_like(u), y, 0.0, 0.3, RK4)
    assert np.all(du == 0.0)
    assert err is None


def test_rk4_exponential_closed_form():
    # u' = u, one step dt = 0.1: u1 = sum_{k=0..4} 0.1^k / k!
    du, *_ = rk_step(lambda t, u: u, np.array([1.0]), 0.0, 0.1, RK4)
    assert 1.0 + du[0] == pytest.approx(1.1051708333333333, abs=1e-16)


def test_rk4_matrix_exponential_convergence():
    # oracle: expm on a small random linear system; expect 4th order in dt
    rng = np.random.default_rng(12)
    a = rng.normal(size=(4, 4))
    y0 = rng.normal(size=4)
    ref = matrix_exponential_reference(a, y0, 1.0)
    errs = []
    for n_steps in (16, 32, 64):
        res = integrate(lambda t, y: a @ y, y0, (0.0, 1.0), RK4, dt=1.0 / n_steps)
        errs.append(np.max(np.abs(res.y - ref)))
    eocs = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(abs(e - 4.0) <= 0.3 for e in eocs)


def test_dopri5_embedded_convergence_order():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(3, 3))
    y0 = rng.normal(size=3)
    ref = matrix_exponential_reference(a, y0, 1.0)
    errs = []
    for n_steps in (8, 16):
        res = integrate(lambda t, y: a @ y, y0, (0.0, 1.0), DOPRI5, dt=1.0 / n_steps)
        errs.append(np.max(np.abs(res.y - ref)))
    assert abs(np.log2(errs[0] / errs[1]) - 5.0) <= 0.4


def test_nan_rhs_signals_step_failure_for_retry():
    calls = []

    def rhs(t, y):
        calls.append(t)
        if len(calls) < 3:
            return np.array([np.nan])
        return -y

    res = integrate(rhs, np.array([1.0]), (0.0, 0.5), DOPRI5, atol=1e-6, rtol=1e-6)
    assert res.n_rejected >= 1
    assert np.isfinite(res.y).all()


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_stage_sums_have_the_bits_of_generator_sums(data):
    # rk_step accumulates its stage sums in place; the bits must equal
    # y + dt * sum(a_ij k_j ...) as Python's sum forms it, signed zeros included
    # a stage with an all-zero row of a: y + dt * sum(()) = y + 0.0
    zero_row = ButcherTableau("zero_row", np.zeros((2, 2)), np.array([0.5, 0.5]),
                              np.zeros(2), order=1)
    tab = data.draw(st.sampled_from([RK4, DOPRI5, zero_row]))
    n = data.draw(st.integers(1, 12))
    elements = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3))
    stages = [data.draw(arrays(np.float64, n, elements=elements))
              for _ in range(tab.stages)]
    y = data.draw(arrays(np.float64, n, elements=elements))
    dt = data.draw(st.floats(1e-3, 1.0))
    seen = []

    def rhs(t, u):
        seen.append(u.copy())
        return stages[len(seen) - 1]

    du, err, *_ = rk_step(rhs, y, 0.0, dt, tab)

    def generator_sum(weights, upto):
        return dt * sum(weights[j] * stages[j] for j in range(upto) if weights[j] != 0.0)

    for i in range(1, tab.stages):
        assert seen[i].tobytes() == (y + generator_sum(tab.a[i], i)).tobytes()
    assert du.tobytes() == generator_sum(tab.b, tab.stages).tobytes()
    if tab.is_embedded:
        db = tab.b - tab.b_embedded
        assert err.tobytes() == generator_sum(db, tab.stages).tobytes()


# a tableau with an all-zero row of a and zero weights in b and b - b_embedded
ZERO_WEIGHTS = ButcherTableau(
    "zero_weights", np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, -1.0, 0.0]]),
    np.array([0.0, 1.0, 0.0]), np.zeros(3), order=1,
    b_embedded=np.array([0.5, 1.0, -0.5]), embedded_order=0,
)


@pytest.mark.parametrize("tab", [RK4, DOPRI5, ZERO_WEIGHTS], ids=lambda tab: tab.name)
def test_tableau_pairs_list_exactly_the_nonzero_weights_in_order(tab):
    def nonzero(weights):
        return [(int(j), float(weights[j])) for j in np.flatnonzero(weights)]

    assert [list(row) for row in tab.a_pairs] == [nonzero(row) for row in tab.a]
    assert list(tab.b_pairs) == nonzero(tab.b)
    if tab.is_embedded:
        assert list(tab.error_pairs) == nonzero(tab.b - tab.b_embedded)
    else:
        assert tab.error_pairs is None
    every = [*tab.b_pairs, *(tab.error_pairs or ())]
    every += [pair for row in tab.a_pairs for pair in row]
    assert all(type(j) is int and type(w) is float for j, w in every)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_error_norm_has_the_bits_of_the_mean(data):
    n = data.draw(st.integers(1, 64))
    wide = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e300, 1e300))
    err, y_old, y_new = (data.draw(arrays(np.float64, n, elements=wide)) for _ in range(3))
    atol = data.draw(st.floats(1e-300, 1.0))
    rtol = data.draw(st.floats(0.0, 1.0))
    scale = atol + rtol * np.maximum(np.abs(y_old), np.abs(y_new))
    with np.errstate(over="ignore"):  # both sides overflow to the same inf
        expected = float(np.sqrt(np.mean((err / scale) ** 2)))
        got = timestepping._error_norm(err, y_old, y_new, atol, rtol)
    assert np.float64(got).tobytes() == np.float64(expected).tobytes()


def test_controller_zero_error_grows_capped():
    accept, dt_next = adaptive_controller(0.0, 0.1)
    assert accept and dt_next == pytest.approx(0.5)


def test_controller_unit_error_keeps_dt():
    accept, dt_next = adaptive_controller(1.0, 0.1)
    assert accept
    assert dt_next == pytest.approx(0.09, rel=1e-12)


def test_controller_rejects_large_error():
    accept, dt_next = adaptive_controller(16.0, 0.1)
    assert not accept and dt_next < 0.1


def test_step_size_underflow_aborts():
    def rhs(t, y):
        return np.array([np.nan])

    with pytest.raises(NumericsError):
        integrate(rhs, np.array([1.0]), (0.0, 1.0), DOPRI5)


def test_tableau_validation():
    with pytest.raises(ConfigurationError):
        ButcherTableau(
            "bad",
            np.array([[0.0, 1.0], [0.0, 0.0]]),
            np.array([0.5, 0.5]),
            np.array([0.0, 1.0]),
            order=2,
        )
    with pytest.raises(ConfigurationError):
        ButcherTableau(
            "bad-weights",
            np.zeros((2, 2)),
            np.array([0.5, 0.6]),
            np.array([0.0, 1.0]),
            order=2,
        )


def test_dopri5_is_fsal():
    assert DOPRI5.is_fsal
    assert not RK4.is_fsal


@pytest.mark.parametrize("where", ["a", "c"])
def test_fsal_needs_the_exact_last_row(where):
    # rk_step evaluates an FSAL last stage at y + du: a last row of a or a
    # c[-1] one ulp away from b or 1 is not FSAL
    a, c = DOPRI5.a.copy(), DOPRI5.c.copy()
    if where == "a":
        a[-1, 0] = np.nextafter(a[-1, 0], 1.0)
    else:
        c[-1] = np.nextafter(1.0, 0.0)
    tab = ButcherTableau("near_dopri5", a, DOPRI5.b, c, order=5,
                         b_embedded=DOPRI5.b_embedded, embedded_order=4)
    assert not tab.is_fsal


@given(st.floats(0.01, 0.2), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
@settings(max_examples=25, deadline=None)
def test_relaxation_gamma_one_for_linear_functional(dt, a, b):
    # a zero increment conserves any J, here a linear one: the residual
    # vanishes identically and gamma = 1 exactly
    functional = FunctionalFromCallable(lambda y: a * y[0] + b * y[1] + 3.0)
    y = np.array([0.7, -0.2])
    res = integrate(lambda t, y: np.zeros_like(y), y, (0.0, dt), RK4, dt=dt,
                    functional=functional)
    assert res.gammas == [1.0] and res.relaxation_fallbacks == 0
    np.testing.assert_array_equal(res.y, y)


def test_relaxation_harmonic_oscillator_conserves_quadratic():
    # J = u^2 + w^2; frozen oracle: the exact radius stays 1
    def rhs(t, y):
        return np.array([y[1], -y[0]])

    functional = FunctionalFromCallable(lambda y: float(y[0] ** 2 + y[1] ** 2))
    res = integrate(rhs, np.array([1.0, 0.0]), (0.0, 20.0), RK4, dt=0.1,
                    functional=functional)
    assert abs(functional.value(res.y) - 1.0) <= 1e-13
    assert all(abs(g - 1.0) < 1e-2 for g in res.gammas)
    assert res.relaxation_fallbacks == 0


def test_relaxation_preserves_temporal_order():
    # observed EOC with relaxation within 0.3 of the baseline order 4
    def rhs(t, y):
        return np.array([y[1], -y[0]])

    functional = FunctionalFromCallable(lambda y: float(y[0] ** 2 + y[1] ** 2))
    errs = {}
    for relax in (False, True):
        errs[relax] = []
        for dt in (0.2, 0.1, 0.05):
            res = integrate(
                rhs, np.array([1.0, 0.0]), (0.0, 5.0), RK4, dt=dt,
                functional=functional if relax else None,
            )
            exact = np.array([np.cos(res.t), -np.sin(res.t)])
            errs[relax].append(np.max(np.abs(res.y - exact)))
    eoc_base = np.log2(errs[False][1] / errs[False][2])
    eoc_relax = np.log2(errs[True][1] / errs[True][2])
    assert abs(eoc_relax - eoc_base) <= 0.3


def _fallback_warnings(caplog):
    return [r for r in caplog.records
            if r.levelname == "WARNING" and "relaxation root not found" in r.message]


def test_relaxation_fallback_warns_and_counts(caplog):
    # J strictly convex with minimum on the trajectory: r(gamma) > 0 on the
    # whole bracket, so no conservative root exists
    def rhs(t, y):
        return np.ones_like(y)

    functional = FunctionalFromCallable(lambda y: float(y[0] ** 2))
    with caplog.at_level("WARNING", logger="dispersive_sw.timestepping"):
        res = integrate(
            rhs, np.array([0.0]), (0.0, 0.5), RK4, dt=0.5, functional=functional
        )
    assert res.relaxation_fallbacks == 1
    assert res.gammas == [1.0]
    [warning] = _fallback_warnings(caplog)
    assert "r(1) = 2.500e-01" in warning.message


class _FirstCallFallsBack(FunctionalFromCallable):
    """The oscillator energy, but the first increment has no conservative root."""

    def __init__(self):
        super().__init__(lambda y: float(y[0] ** 2 + y[1] ** 2))
        self.coefficient_calls = 0

    def delta_coefficients(self, y, dy):
        self.coefficient_calls += 1
        if self.coefficient_calls == 1:
            return 1.0, 0.0, 0.0  # r(gamma) = gamma > 0 on the whole bracket
        return super().delta_coefficients(y, dy)


@pytest.mark.parametrize("reject_by", ["error", "domain"])
def test_rejected_attempt_neither_counts_nor_warns_a_fallback(reject_by, caplog):
    # every attempt finds gamma; the first one falls back and is then rejected
    # at its last stage (the seventh call), which only the error estimate
    # reads: a wild derivative fails the estimate, a DomainError the attempt
    calls = []

    def rhs(t, y):
        calls.append(t)
        f = np.array([y[1], -y[0]])
        if len(calls) == 7:
            if reject_by == "domain":
                raise DomainError("inadmissible end state")
            f *= 1e6
        return f

    functional = _FirstCallFallsBack()
    with caplog.at_level("WARNING", logger="dispersive_sw.timestepping"):
        res = integrate(rhs, np.array([1.0, 0.0]), (0.0, 2.0), DOPRI5, atol=1e-6,
                        rtol=1e-6, functional=functional)
    assert res.n_rejected == 1
    assert functional.coefficient_calls == res.n_steps + res.n_rejected
    assert res.relaxation_fallbacks == 0
    assert _fallback_warnings(caplog) == []
    assert abs(functional.value(res.y) - 1.0) <= 1e-12


@pytest.mark.parametrize("root, found", [(1.005, True), (1.02, False)])
def test_relaxation_searches_gamma_within_one_percent_of_one(root, found):
    # J(y) = (y - c)^2 along the exact increment du = dt: r(gamma) =
    # gamma dt (gamma dt - 2c) has its root at 2c/dt; the bracket is 1 +- 1e-2
    def rhs(t, y):
        return np.ones_like(y)

    dt = 0.5
    c = 0.5 * root * dt
    functional = FunctionalFromCallable(lambda y: float((y[0] - c) ** 2))
    res = integrate(rhs, np.array([0.0]), (0.0, dt), RK4, dt=dt, functional=functional)
    assert res.relaxation_fallbacks == (0 if found else 1)
    assert res.gammas == [pytest.approx(root if found else 1.0, abs=1e-12)]


class _CountingFunctional:
    """Delegates to a relaxation functional and counts its calls."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = Counter()

    def value(self, y):
        return self._inner.value(y)

    def delta_coefficients(self, y, dy):
        self.calls["delta_coefficients"] += 1
        return self._inner.delta_coefficients(y, dy)

    def delta(self, coefficients, gamma):
        self.calls["delta"] += 1
        return self._inner.delta(coefficients, gamma)


def _oscillator_problem():
    functional = FunctionalFromCallable(lambda y: float(y[0] ** 2 + y[1] ** 2))
    return (lambda t, y: np.array([y[1], -y[0]])), np.array([1.0, 0.0]), 3.0, functional


def _bbm_problem():
    grid = make_uniform_grid(-1.0, 1.0, 64, "periodic")
    ops = periodic_operators(grid, 4)
    disc = build_bbm_discretization(grid, ops, lambda x: -np.ones_like(x), 9.81,
                                    "periodic_const_narrow")
    x = grid.nodes
    y0 = np.concatenate([0.1 * np.cos(np.pi * x), 0.2 * np.sin(np.pi * x)])
    return disc.rhs, y0, 0.2, disc.functional()


@pytest.mark.parametrize("problem", [_oscillator_problem, _bbm_problem])
def test_relaxation_builds_the_cubic_once_per_step(problem, monkeypatch):
    # coefficients once per relaxed step; one cheap delta per residual the
    # root search evaluates
    residuals = []
    solve_gamma = timestepping._solve_gamma

    def counting_solve_gamma(residual, *args, **kwargs):
        def counted(gamma):
            residuals.append(gamma)
            return residual(gamma)

        return solve_gamma(counted, *args, **kwargs)

    monkeypatch.setattr(timestepping, "_solve_gamma", counting_solve_gamma)
    rhs, y0, t_end, inner = problem()
    functional = _CountingFunctional(inner)
    res = integrate(rhs, y0, (0.0, t_end), DOPRI5, functional=functional)
    assert res.relaxation_fallbacks == 0 and res.n_steps >= 5
    assert functional.calls["delta_coefficients"] == len(res.gammas) == res.n_steps
    assert functional.calls["delta"] == len(residuals) > res.n_steps


def test_solve_gamma_reports_exhausted_iterations_as_not_converged():
    # a steep residual whose root 1.004 lies inside the bracket: three
    # false-position iterations do not reach it, the default budget does
    def residual(gamma):
        return np.tanh(200.0 * (gamma - 1.004))

    gamma, converged = _solve_gamma(residual, 1e-2, 1e-14, max_iter=3)
    assert not converged
    assert abs(residual(gamma)) > 1e-14
    gamma, converged = _solve_gamma(residual, 1e-2, 1e-14)
    assert converged
    assert abs(residual(gamma)) <= 1e-14


def test_solve_gamma_stops_once_the_secant_step_cannot_move():
    # energy-like cubics r(g) = g (c1 + g (c2 + g c3)) with r(1) small and
    # |c_i| large, so r carries roundoff of about eps |c1| near its root.
    # Bisecting that noise down to a 16-ulp bracket took up to 22 calls;
    # stopping when the secant step rounds onto the best end takes <= 10
    # and leaves gamma at the roundoff level of r.
    rng = np.random.default_rng(11)
    for _ in range(300):
        r1, slope, c3 = rng.uniform(1e-6, 1e-5), -rng.uniform(20, 60), rng.uniform(-1, 1)
        c2 = slope - r1 - 2 * c3
        c1 = r1 - c2 - c3
        calls = []

        def residual(gamma):
            calls.append(gamma)
            return gamma * (c1 + gamma * (c2 + gamma * c3))

        gamma, converged = _solve_gamma(residual, 1e-2, 1e-11)
        assert converged
        assert len(calls) <= 10
        assert abs(residual(gamma)) <= 16 * np.finfo(float).eps * abs(c1)


_SIGNED = [2.5, -1e-300, 0.0, -0.0, np.inf, -np.inf, np.nan,
           np.float64(-3.0), np.float64(0.0), np.float64(np.nan)]


@pytest.mark.parametrize("x", _SIGNED)
def test_scalar_sign_compares_as_np_sign_does(x):
    # the root iteration only compares signs; a NaN residual equals no sign
    for y in _SIGNED:
        assert (timestepping._sign(x) == timestepping._sign(y)) == (np.sign(x) == np.sign(y))


def test_fsal_reevaluated_after_relaxed_step():
    # record every evaluated (t, y): the first stage of each step is the
    # previous step's last stage, evaluated once and exactly at the relaxed
    # state (t_old + gamma dt, y_old + gamma du), not at y_old + du
    evaluations = []

    def rhs(t, y):
        evaluations.append((t, y.tobytes()))
        return np.array([y[1], -y[0]])

    functional = FunctionalFromCallable(lambda y: float(y[0] ** 2 + y[1] ** 2))
    y0 = np.array([1.0, 0.0])
    records = []
    res = integrate(rhs, y0, (0.0, 1.0), DOPRI5, dt=0.25, functional=functional,
                    on_step=records.append)
    assert res.n_steps == len(records) >= 3
    assert all(record.gamma != 1.0 for record in records)
    states = [(0.0, y0.tobytes())]
    states += [(record.t_new, record.y_new.tobytes()) for record in records]
    # one evaluation at the initial state, then six per step, the last at its end
    assert evaluations[::6] == states
    assert all(evaluations.count(state) == 1 for state in states)
    assert abs(functional.value(res.y) - 1.0) <= 1e-12


@pytest.mark.parametrize("tab, dt, dense_output, per_step", [
    (DOPRI5, 0.25, False, 6), (DOPRI5, None, False, 6), (DOPRI5, None, True, 6),
    (RK4, 0.25, True, 4),
])
def test_relaxed_run_evaluates_each_end_state_once(tab, dt, dense_output, per_step):
    # one evaluation at the initial state, then per accepted step its stages
    # after the first and its end derivative, which is the next first stage
    # (for DOPRI5 the last stage is that derivative)
    calls = []

    def rhs(t, y):
        calls.append(t)
        return np.array([y[1], -y[0]])

    functional = FunctionalFromCallable(lambda y: float(y[0] ** 2 + y[1] ** 2))
    res = integrate(rhs, np.array([1.0, 0.0]), (0.0, 3.0), tab, dt=dt,
                    functional=functional, dense_output=dense_output)
    assert res.n_rejected == 0 and res.n_steps >= 5
    assert res.n_rhs == len(calls) == per_step * res.n_steps + 1


def test_fixed_step_count_and_final_time():
    res = integrate(lambda t, y: np.zeros_like(y), np.array([2.0]), (0.0, 10.0), RK4,
                    dt=0.5)
    assert res.n_steps == 20
    assert res.t == pytest.approx(10.0, abs=1e-12)
    assert res.y[0] == 2.0


def test_dense_output_hermite_accuracy():
    # cubic Hermite between accepted steps: third-order accurate samples
    samples = []

    def on_step(record):
        tq = 0.5 * (record.t_old + record.t_new)
        samples.append((tq, record.interpolate(tq)[0]))

    integrate(
        lambda t, y: np.array([np.cos(t)]), np.array([0.0]), (0.0, 2.0), RK4, dt=0.1,
        on_step=on_step, dense_output=True,
    )
    errs = [abs(val - np.sin(tq)) for tq, val in samples]
    assert max(errs) <= 1e-6


def test_empty_time_span_rejected():
    with pytest.raises(ConfigurationError):
        integrate(lambda t, y: y, np.array([1.0]), (1.0, 1.0), RK4, dt=0.1)


def test_adaptive_needs_embedded_weights():
    with pytest.raises(ConfigurationError):
        integrate(lambda t, y: y, np.array([1.0]), (0.0, 1.0), RK4, dt=None)


def test_relaxed_run_ends_at_t_end_plus_gamma_overshoot():
    # a relaxed step advances t by gamma * dt, so the run ends at
    # t_end + (gamma_last - 1) * dt_last, and IntegrationResult.t says so
    def rhs(t, y):
        return np.array([y[1], -y[0]])

    functional = FunctionalFromCallable(lambda y: float(y[0] ** 2 + y[1] ** 2))
    records = []
    t_end = 2.05
    res = integrate(rhs, np.array([1.0, 0.0]), (0.0, t_end), RK4, dt=0.1,
                    functional=functional, on_step=records.append)
    last = records[-1]
    assert last.gamma != 1.0
    assert res.t == last.t_new
    dt_last = t_end - last.t_old
    assert res.t - t_end == pytest.approx((last.gamma - 1.0) * dt_last, abs=1e-15)
    assert res.t != t_end


def test_relaxed_run_takes_no_step_for_the_remainder_of_gammas_below_one():
    # Heun's method gains oscillator energy, so every relaxed gamma < 1 and
    # the 25 planned steps end short of t_end by less than
    # GAMMA_HALF_WIDTH * dt, the most a relaxed run may overshoot: that
    # shortfall is left, not paid for with a 26th step
    heun = ButcherTableau("heun", np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.5, 0.5]),
                          np.array([0.0, 1.0]), 2)

    def rhs(t, y):
        return np.array([y[1], -y[0]])

    functional = FunctionalFromCallable(lambda y: float(y[0] ** 2 + y[1] ** 2))
    dt = 0.02
    res = integrate(rhs, np.array([1.0, 0.0]), (0.0, 0.5), heun, dt=dt,
                    functional=functional)
    assert max(res.gammas) < 1.0 and res.relaxation_fallbacks == 0
    assert (res.n_steps, res.n_rhs) == (25, 50)
    assert 1e-12 < 0.5 - res.t <= timestepping.GAMMA_HALF_WIDTH * dt
    assert abs(functional.value(res.y) - 1.0) <= 1e-14
