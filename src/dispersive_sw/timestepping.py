"""Explicit Runge-Kutta time stepping with an optional relaxation wrapper.

A run relaxes exactly when it is given a functional J.  Relaxation
rescales the update increment, u_new = u + gamma * du with gamma near 1
chosen so that J is exactly conserved across the step; the step then
advances time by gamma * dt.  For the energy functionals of both models
the increment J(u + gamma du) - J(u) is an exact cubic polynomial in
gamma, so a functional answers in two steps: ``delta_coefficients(u, du)``
returns its coefficients (c1, c2, c3), assembled once per relaxed step
from products of state and increment (no large-value cancellation), and
``delta(coefficients, gamma)`` evaluates gamma (c1 + gamma (c2 + gamma c3))
for each trial gamma of the root search.  ``value(u)`` is J(u) itself,
read once per step to scale the root tolerance.

``rk_step`` finds gamma inside each step attempt, from the increment and
before the last stage of an FSAL tableau (b_s = 0), then evaluates that
stage once, at the relaxed end state (t + gamma dt, u + gamma du): the
embedded error estimate of a relaxed step uses it as its last stage.

Adaptive runs start from dt = span / 1000 and fail with NumericsError
when a rejected step would go below ``DT_MIN`` = 1e-12; any run fails
once ``MAX_STEPS`` = 10,000,000 steps (accepted plus rejected) are spent.

A relaxed step whose root search fails keeps gamma = 1; ``integrate``
counts it and logs a warning on the ``dispersive_sw.timestepping``
logger.  ``logging`` is imported there, on the first such step, so that
a run without fallbacks never loads it.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import ConfigurationError, DomainError, NumericsError


# ---------------------------------------------------------------------------
# tableaus


class ButcherTableau:
    """Explicit Runge-Kutta coefficients, with an optional embedded pair."""

    def __init__(self, name, a, b, c, order, b_embedded=None, embedded_order=None):
        s = b.size
        if a.shape != (s, s) or c.size != s:
            raise ConfigurationError("inconsistent tableau dimensions")
        if np.any(np.abs(np.triu(a)) > 0):
            raise ConfigurationError("tableau must be explicit")
        if abs(b.sum() - 1.0) > 1e-13:
            raise ConfigurationError("tableau weights must sum to one")
        self.name = name
        self.a = a  # s x s, strictly lower triangular
        self.b = b
        self.c = c
        self.order = order
        self.b_embedded = b_embedded
        self.embedded_order = embedded_order
        # first stage of a step equals the last stage of the previous one;
        # decided once here because integrate reads it on every step.  Exact:
        # rk_step evaluates an FSAL last stage at y + du, not at its row of a
        self.is_fsal = bool(np.array_equal(a[-1], b) and c[-1] == 1.0)

        def pairs(weights):
            return tuple((j, w) for j, w in enumerate(weights.tolist()) if w != 0.0)
        # nonzero (j, w_j) of each row of a, of b and of b - b_embedded (or None)
        self.a_pairs = tuple(pairs(row) for row in a)
        self.b_pairs = pairs(b)
        self.error_pairs = None if b_embedded is None else pairs(b - b_embedded)

    @property
    def stages(self) -> int:
        return self.b.size

    @property
    def is_embedded(self) -> bool:
        return self.b_embedded is not None


def _tab(name, a, b, c, order, b_emb=None, emb_order=None):
    return ButcherTableau(
        name,
        np.array(a, dtype=float),
        np.array(b, dtype=float),
        np.array(c, dtype=float),
        order,
        None if b_emb is None else np.array(b_emb, dtype=float),
        emb_order,
    )


RK4 = _tab(
    "rk4",
    [[0, 0, 0, 0], [0.5, 0, 0, 0], [0, 0.5, 0, 0], [0, 0, 1, 0]],
    [1 / 6, 1 / 3, 1 / 3, 1 / 6],
    [0, 0.5, 0.5, 1],
    order=4,
)

# Dormand-Prince 5(4) pair, first-same-as-last
DOPRI5 = _tab(
    "dopri5",
    [
        [0, 0, 0, 0, 0, 0, 0],
        [1 / 5, 0, 0, 0, 0, 0, 0],
        [3 / 40, 9 / 40, 0, 0, 0, 0, 0],
        [44 / 45, -56 / 15, 32 / 9, 0, 0, 0, 0],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0, 0],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0, 0],
        [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0],
    ],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0],
    [0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1, 1],
    order=5,
    b_emb=[5179 / 57600, 0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40],
    emb_order=4,
)


# ---------------------------------------------------------------------------
# single steps


class _StepFailure(Exception):
    pass


def rk_step(rhs, y, t, dt, tableau: ButcherTableau, k1=None, functional=None):
    """One explicit RK step, relaxed when a functional is given.

    Returns (du, err, k_stages, gamma, fallback): the update increment
    dt * sum(b_i k_i), the embedded error estimate (or None), the stage
    derivatives, the relaxation factor (1.0 without a functional) and, when
    the root search fell back to gamma = 1, its residual r(1) (else None).

    gamma is found from du before the last stage of an FSAL tableau: its
    b_s = 0, so du does not need that stage.  The last stage is then
    evaluated once, at the step's end state (t + gamma dt, y + gamma du),
    and serves as the embedded estimate's last stage, the Hermite end
    derivative and the next step's first stage; with gamma = 1 its inputs
    are exactly the tableau's (a[-1] == b, c[-1] == 1).  Non-finite stage
    values, and a DomainError at any stage, fail the attempt so that an
    adaptive driver can retry with a smaller step.
    """
    if dt <= 0.0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    s = tableau.stages
    k = [None] * s
    k[0] = rhs(t, y) if k1 is None else k1
    if not np.isfinite(k[0]).all():
        raise _StepFailure("non-finite right-hand side at first stage")
    fsal = tableau.is_fsal
    for i in range(1, s - 1 if fsal else s):
        yi = _scaled_stage_sum(dt, tableau.a_pairs[i], k)
        yi += y
        k[i] = rhs(t + tableau.c[i] * dt, yi)
        if not np.isfinite(k[i]).all():
            raise _StepFailure(f"non-finite right-hand side at stage {i}")
    du = _scaled_stage_sum(dt, tableau.b_pairs, k)
    gamma, fallback = 1.0, None
    if functional is not None:
        gamma, fallback = _relax_increment(y, du, functional)
    if fsal:
        k[-1] = rhs(t + gamma * dt, y + gamma * du)
        if not np.isfinite(k[-1]).all():
            raise _StepFailure(f"non-finite right-hand side at stage {s - 1}")
    err = None
    if tableau.is_embedded:
        err = _scaled_stage_sum(dt, tableau.error_pairs, k)
    return du, err, k, gamma, fallback


def _scaled_stage_sum(dt, pairs, k):
    """dt * sum(w_j k_j) over the nonzero (j, w_j) a tableau lists once, in place.

    The bits equal those of ``dt * sum(generator)``: ``sum`` starts from
    0, and 0 + x turns a -0.0 into 0.0, hence the ``+= 0.0``.
    """
    if not pairs:
        return np.zeros_like(k[0])
    (j, w), *rest = pairs
    acc = w * k[j]
    acc += 0.0
    for j, w in rest:
        acc += w * k[j]
    acc *= dt
    return acc


# relaxation root: gamma is searched on [1 - h, 1 + h]; a functional whose
# residuals stay within tol * max(1, |J(u)|) does not respond to the increment
GAMMA_HALF_WIDTH = 1e-2
ROOT_TOLERANCE = 1e-14
_EPS = sys.float_info.epsilon


def _sign(x):
    """np.sign of a scalar without a NumPy call: -1.0, 1.0, the zero itself,
    or NaN, which equals no sign."""
    return 1.0 if x > 0 else -1.0 if x < 0 else x


def _solve_gamma(residual, half_width, tol, max_iter=50):
    """Safeguarded root of r(gamma) on [1-h, 1+h] (Illinois false position).

    The root is refined essentially to machine precision: per-step residual
    tolerances looser than roundoff would accumulate into a visible drift
    of the conserved functional over long runs.  The iteration stops when
    r(gamma) == 0.0, when the bracket is 16 ulp wide, or when the secant
    step rounds onto the bracket end with the smallest residual: the
    estimate can no longer move, and bisecting on would only chase the
    roundoff of r.  ``tol`` only classifies
    the degenerate case where the functional does not respond to the
    increment at all (then gamma = 1 conserves it already).

    Returns (gamma, converged); converged=False means no sign change was
    found, or the iteration ran out of ``max_iter`` with the best residual
    still above ``tol``.  Callers then fall back to gamma = 1 with a logged
    warning.
    """
    r1 = residual(1.0)
    if r1 == 0.0:
        return 1.0, True
    lo, hi = 1.0 - half_width, 1.0 + half_width
    r_lo, r_hi = residual(lo), residual(hi)
    if not (math.isfinite(r_lo) and math.isfinite(r_hi) and math.isfinite(r1)):
        return 1.0, False
    if max(abs(r1), abs(r_lo), abs(r_hi)) <= tol:
        return 1.0, True
    if _sign(r_lo) != _sign(r1):
        a, b, ra, rb = lo, 1.0, r_lo, r1
    elif _sign(r1) != _sign(r_hi):
        a, b, ra, rb = 1.0, hi, r1, r_hi
    else:
        return 1.0, abs(r1) <= tol
    best, r_best = (a, ra) if abs(ra) <= abs(rb) else (b, rb)
    side = 0
    for _ in range(max_iter):
        if rb != ra:
            cand = (a * rb - b * ra) / (rb - ra)
        else:
            cand = 0.5 * (a + b)
        if not math.isfinite(cand):
            cand = 0.5 * (a + b)
        elif not a < cand < b:
            if best == (a if cand <= a else b):
                break
            cand = 0.5 * (a + b)
        rc = residual(cand)
        if abs(rc) <= abs(r_best):
            best, r_best = cand, rc
        if rc == 0.0 or (b - a) <= 16 * _EPS:
            break
        if _sign(rc) == _sign(ra):
            a, ra = cand, rc
            if side == -1:
                rb *= 0.5
            side = -1
        else:
            b, rb = cand, rc
            if side == 1:
                ra *= 0.5
            side = 1
    else:
        return best, abs(r_best) <= tol
    return best, True


class CubicIncrementFunctional:
    """Relaxation functional whose increment is an exact cubic in gamma.

    Subclasses provide ``value(y)`` and ``delta_coefficients(y, dy)``;
    ``delta`` evaluates the cubic at one gamma without touching the state.
    """

    def delta(self, coefficients, gamma):
        c1, c2, c3 = coefficients
        return gamma * (c1 + gamma * (c2 + gamma * c3))


def _relax_increment(y, du, functional):
    """(gamma, None) for the conservative relaxation root, else (1.0, r(1))."""
    tol = ROOT_TOLERANCE * max(1.0, abs(functional.value(y)))
    coefficients = functional.delta_coefficients(y, du)

    def residual(gamma):
        return functional.delta(coefficients, gamma)

    gamma, converged = _solve_gamma(residual, GAMMA_HALF_WIDTH, tol)
    if not converged:
        return 1.0, residual(1.0)
    return gamma, None


# ---------------------------------------------------------------------------
# step-size controller


def adaptive_controller(err_norm, dt, err_norm_prev=1.0, *, order=5):
    """PI step-size law with safety factor 0.9 and dt_new / dt in [0.2, 5];
    accept iff the weighted error norm is at most 1."""
    accept = err_norm <= 1.0
    if err_norm == 0.0:
        return accept, dt * 5.0
    k = order
    factor = 0.9 * err_norm ** (-0.7 / k) * max(err_norm_prev, 1e-16) ** (0.4 / k)
    if not accept:
        factor = min(1.0, 0.9 * err_norm ** (-1.0 / k))
    return accept, dt * min(5.0, max(0.2, factor))


def _error_norm(err, y_old, y_new, atol, rtol):
    scale = atol + rtol * np.maximum(np.abs(y_old), np.abs(y_new))
    return float(np.sqrt(np.add.reduce((err / scale) ** 2) / err.size))  # bits of np.mean


# ---------------------------------------------------------------------------
# driver


DT_MIN = 1e-12  # see the module docstring
MAX_STEPS = 10_000_000


class StepRecord:
    """One accepted step, enough for cubic Hermite dense output."""

    def __init__(self, t_old, t_new, y_old, y_new, f_old, f_new, gamma):
        self.t_old = t_old
        self.t_new = t_new
        self.y_old = y_old
        self.y_new = y_new
        self.f_old = f_old  # f_old and f_new: None without dense output
        self.f_new = f_new
        self.gamma = gamma

    def interpolate(self, t):
        """Cubic Hermite evaluation inside [t_old, t_new]."""
        h = self.t_new - self.t_old
        theta = (t - self.t_old) / h
        h00 = (1 + 2 * theta) * (1 - theta) ** 2
        h10 = theta * (1 - theta) ** 2
        h01 = theta**2 * (3 - 2 * theta)
        h11 = theta**2 * (theta - 1)
        return (
            h00 * self.y_old
            + h01 * self.y_new
            + h * (h10 * self.f_old + h11 * self.f_new)
        )


class IntegrationResult:
    """End time and state of an ``integrate`` call, with its counters and
    the gamma of every accepted step."""

    def __init__(self, t, y, n_steps=0, n_rejected=0, n_rhs=0, relaxation_fallbacks=0,
                 gammas=None):
        self.t = t
        self.y = y
        self.n_steps = n_steps
        self.n_rejected = n_rejected
        self.n_rhs = n_rhs
        self.relaxation_fallbacks = relaxation_fallbacks
        self.gammas = [] if gammas is None else gammas


def integrate(rhs, y0, t_span, tableau: ButcherTableau, *, dt=None, atol=1e-7,
              rtol=1e-7, dt_max=np.inf, functional=None, on_step=None,
              dense_output=False) -> IntegrationResult:
    """Drive steps of ``tableau`` from t_span[0] to t_span[1].

    A given ``dt`` selects fixed steps of that size; dt=None selects
    adaptive steps, where the embedded estimate, weighted by
    ``atol + rtol * |y|``, feeds the PI controller.  No step is longer
    than ``dt_max``.  on_step(record) is invoked after every accepted step;
    with dense_output=True the record carries endpoint derivatives so
    callers can sample gauges by Hermite interpolation.

    Relaxation is on exactly when ``functional`` is given, and conserves
    it: ``rk_step`` finds gamma in every attempt, rejected ones
    too; only an accepted step counts a fallback to gamma = 1 and logs its
    warning.  The derivative at the accepted end state, when known (the
    FSAL last stage, or the end derivative dense output evaluates), is the
    next step's first stage, so a relaxed DOPRI5 step costs the six RHS
    calls of an unrelaxed one.

    End time: the last step is cut to t_end - t, but a relaxed step
    advances t by gamma * dt, so a relaxed run ends at
    t_end + (gamma_last - 1) * dt_last rather than exactly at t_end (the
    state is not interpolated back).  A relaxed run also stops once
    t_end - t <= GAMMA_HALF_WIDTH * dt_last, the most its overshoot can
    be, instead of paying a full step for the remainder that a gamma < 1
    leaves.  ``IntegrationResult.t`` is that true end time; scenarios
    report the difference as ``end_time_overshoot``.
    """
    t0, t_end = float(t_span[0]), float(t_span[-1])
    if not t_end > t0:
        raise ConfigurationError("empty time span")
    adaptive = dt is None
    if adaptive and not tableau.is_embedded:
        raise ConfigurationError(f"tableau {tableau.name} has no embedded error estimate")

    result = IntegrationResult(t=t0, y=np.array(y0, dtype=float))
    y, t = result.y, t0
    span = t_end - t0
    dt = min(span / 1000.0 if adaptive else dt, span, dt_max)
    err_prev = 1.0
    k1 = None  # f(t, y) of the current state, when known

    def call_rhs(ti, yi):
        result.n_rhs += 1
        return rhs(ti, yi)

    while t < t_end - 1e-12 * max(1.0, abs(t_end)):
        if result.n_steps + result.n_rejected >= MAX_STEPS:
            raise NumericsError(f"exceeded {MAX_STEPS} steps at t={t}")
        dt_step = min(dt, t_end - t)
        try:
            du, err, k, gamma, fallback = rk_step(call_rhs, y, t, dt_step, tableau,
                                                  k1=k1, functional=functional)
        except (_StepFailure, DomainError) as exc:
            # an inadmissible trial state is recoverable under step control
            if not adaptive:
                if isinstance(exc, DomainError):
                    raise
                raise NumericsError(f"non-finite state in fixed-step run at t={t}")
            result.n_rejected += 1
            k1 = None
            dt = dt_step / 2.0
            if dt < DT_MIN:
                raise NumericsError(
                    f"step size underflow at t={t}: dt={dt:.3e} ({exc})"
                )
            continue

        if adaptive:
            err_norm = _error_norm(err, y, y + du, atol, rtol)
            accept, dt_next = adaptive_controller(
                err_norm, dt_step, err_prev,
                order=(tableau.embedded_order or tableau.order) + 1,
            )
            if not accept:
                result.n_rejected += 1
                dt = dt_next
                if dt < DT_MIN:
                    raise NumericsError(
                        f"step size underflow at t={t}: dt={dt:.3e} (error too large)"
                    )
                continue
            err_prev = max(err_norm, 1e-16)
            dt = min(dt_next, dt_max)
        if fallback is not None:
            result.relaxation_fallbacks += 1
            import logging

            logging.getLogger(__name__).warning(
                "relaxation root not found at t=%g (r(1) = %.3e); falling back to gamma = 1",
                t, fallback,
            )
        y_new = y + gamma * du
        t_new = t + gamma * dt_step

        # f(t_new, y_new), when known, is the next step's first stage; an FSAL
        # rk_step evaluated it as its last stage already
        if tableau.is_fsal:
            f_new = k[-1]
        else:
            f_new = call_rhs(t_new, y_new) if dense_output else None
        k1 = f_new

        if on_step is not None:
            record = StepRecord(t, t_new, y, y_new, k[0] if dense_output else None,
                                f_new, gamma)
            on_step(record)
        if functional is not None:
            result.gammas.append(gamma)
        y, t = y_new, t_new
        result.n_steps += 1
        if functional is not None and t_end - t <= GAMMA_HALF_WIDTH * dt_step:
            break  # see the end-time paragraph of the docstring

    result.t, result.y = t, y
    return result
