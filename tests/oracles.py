"""Independent reference computations used by several test modules.

These stay deliberately separate from the library code paths they check:
dense matrix algebra, the dense views of operators and bands, matrix
exponentials, direct Fourier fits, the np.roll form of the
difference-form stencil apply, the exact derivation
of the bounded closures and the dense bounded operators built from it, the
central Svärd-Kalisch right-hand side in its term-by-term split form,
the magnitude scales of the energy and entropy rates, and relaxation
functionals given as plain J(y) callables.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np
import scipy.linalg as sla

from dispersive_sw.grid import make_uniform_grid, split_flat
from dispersive_sw.linsolve import Fold, PeriodicBand
from dispersive_sw.sbp import periodic_operators
from dispersive_sw.svaerd_kalisch import sk_parameter_set
from dispersive_sw.timestepping import CubicIncrementFunctional

GRAVITY = 9.81


def linearized_sk_matrix(k, params, h0, gravity=GRAVITY, n_nodes=128, order=4):
    """Dense evolution matrix of the SK system linearized about (h0, 0).

    Flat bottom, one wavelength of the mode k as periodic domain.  The
    block structure mirrors the central split-form semidiscretization with
    constant coefficients; all nonlinear terms drop out.
    """
    params = sk_parameter_set(params)
    length = 2 * np.pi / k
    grid = make_uniform_grid(0.0, length, n_nodes, "periodic")
    ops = periodic_operators(grid, order)
    d1 = dense_operator(ops.d1)
    d2 = dense_operator(ops.d2)
    root_gh = np.sqrt(gravity * h0)
    alpha = params.alpha_tilde * root_gh * h0**2
    beta = params.beta_tilde * h0**3
    gamma = params.gamma_tilde * root_gh * h0**3
    n = grid.n_nodes
    eye = np.eye(n)
    top_left = alpha * d1 @ d1 @ d1
    top_right = -h0 * d1
    a_vel = h0 * eye - beta * d1 @ d1
    bottom_left = sla.solve(a_vel, -gravity * h0 * d1)
    bottom_right = sla.solve(a_vel, 0.5 * gamma * (d2 @ d1 + d1 @ d2))
    evo = np.block([[top_left, top_right], [bottom_left, bottom_right]])
    return grid, evo


def fitted_phase_speed(k, params, h0, gravity=GRAVITY, n_nodes=128, order=4):
    """Phase speed of mode k from evolving the linearized system by expm.

    The initial data is a unit-amplitude eta mode with the velocity
    amplitude of the analytically expected eigenvector; the phase drift of
    the Fourier coefficient over several short exponential-propagator
    steps is fitted linearly.
    """
    from dispersive_sw.svaerd_kalisch import sk_dispersion_omega

    grid, evo = linearized_sk_matrix(k, params, h0, gravity, n_nodes, order)
    n = grid.n_nodes
    omega_guess = sk_dispersion_omega(k, params, h0, gravity)
    params = sk_parameter_set(params)
    alpha = params.alpha_tilde * np.sqrt(gravity * h0) * h0**2
    v_amp = (omega_guess - alpha * k**3) / (k * h0)
    eta = np.cos(k * grid.nodes)
    vel = v_amp * np.cos(k * grid.nodes)
    y = np.concatenate([eta, vel])

    n_samples = 8
    t_step = 0.25 * (2 * np.pi / omega_guess) / n_samples
    propagator = sla.expm(t_step * evo)
    phases = []
    for _ in range(n_samples + 1):
        phases.append(np.angle(np.fft.rfft(y[:n])[1]))
        y = propagator @ y
    phases = np.unwrap(np.array(phases))
    times = t_step * np.arange(n_samples + 1)
    slope = np.polyfit(times, phases, 1)[0]
    return -slope / k


def roll_apply(u, offsets, coefficients):
    """Apply a circulant stencil via rolls, in difference form.

    This is the reference for ``DerivativeOperator.apply`` on periodic
    operators: for each |k| > 0 in ascending order one term,
    c_k (u_(i+k) - u_(i-k)) when c_-k = -c_k,
    c_k ((u_(i+k) - u_i) + (u_(i-k) - u_i)) when c_-k = c_k, and
    c_k (u_(i+k) - u_i) + c_-k (u_(i-k) - u_i) otherwise (one half for a
    lone offset); the sum starts from the first term.  c_0 is not used.
    """
    u = np.asarray(u)
    table = {int(k): c for k, c in zip(offsets, coefficients) if k != 0 and c != 0.0}
    out = None
    for k in sorted({abs(k) for k in table}):
        ahead, behind = np.roll(u, -k), np.roll(u, k)
        if k in table and table.get(-k) == -table[k]:
            term = table[k] * (ahead - behind)
        elif k in table and table.get(-k) == table[k]:
            term = table[k] * ((ahead - u) + (behind - u))
        elif k in table and -k in table:
            term = table[k] * (ahead - u) + table[-k] * (behind - u)
        elif k in table:
            term = table[k] * (ahead - u)
        else:
            term = table[-k] * (behind - u)
        out = term if out is None else out + term
    return np.zeros(u.shape) if out is None else out


def sk_central_split_rhs(disc, eta, v, t=0.0, *, split=True):
    """The central Svärd-Kalisch right-hand side spelled term by term.

    Dense D1 and D2 products of the split form with D(h v) and D(h v^2)
    apart from D(v y) and D y, y = ahat D(ahat D eta): eta_t = D(y - h v)
    and, before the velocity solve,

        -(D(h v^2) + h v Dv - v D(h v))/2 + (D(v y) - v Dy + y Dv)/2
            - g h D eta + (D2(ghat Dv) + D(ghat D2 v))/2

    plus the manufactured sources.  With split=False the first two groups
    are -(D(h v^2) - v D(h v)) + D(v y) - v Dy instead: the non-split form,
    which does not conserve the modified entropy.  Returns eta_t, that
    velocity right-hand side and the largest magnitude among its terms.
    """
    d1 = dense_operator(disc.operators.d1)
    d2 = dense_operator(disc.operators.d2)
    h = disc.water_height(eta)
    hv = h * v
    y = disc.alpha_hat * (d1 @ (disc.alpha_hat * (d1 @ eta)))
    dv = d1 @ v
    if split:
        terms = [-0.5 * (d1 @ (hv * v)), -0.5 * hv * dv, 0.5 * v * (d1 @ hv),
                 0.5 * (d1 @ (v * y)), -0.5 * v * (d1 @ y), 0.5 * y * dv]
    else:
        terms = [-(d1 @ (hv * v)), v * (d1 @ hv), d1 @ (v * y), -v * (d1 @ y)]
    terms += [-disc.gravity * h * (d1 @ eta), 0.5 * (d2 @ (disc.gamma_hat * dv)),
              0.5 * (d1 @ (disc.gamma_hat * (d2 @ v)))]
    deta = d1 @ (y - hv)
    if disc._source is not None:
        s_h, s_hv = disc._source(t, disc.grid.nodes)
        deta = deta + s_h
        terms += [s_hv, -v * s_h]
    return deta, sum(terms), max(float(np.max(np.abs(term))) for term in terms)


def sk_central_nonsplit_rhs(disc, y, t=0.0):
    """Flat right-hand side of the non-split central form: the terms of
    ``sk_central_split_rhs(..., split=False)``, solved with the
    discretization's own velocity system diag(h) - D beta D."""
    eta, v = split_flat(np.asarray(y))
    deta, rhs_v, _ = sk_central_split_rhs(disc, eta, v, t, split=False)
    dv = disc._velocity_solver.factor(disc.water_height(eta)).solve(rhs_v)
    return np.concatenate([deta, dv])


def energy_rate_scale(disc, y, ydot):
    """Sum of the magnitudes of the BBM-BBM energy rate's terms, the scale
    of a relative tolerance on that rate."""
    eta, v = split_flat(np.asarray(y))
    de, dv = split_flat(np.asarray(ydot))
    g = disc.gravity
    tot = eta + disc.still_depth
    w = disc.operators.mass.diagonal
    return float(
        w @ (np.abs(g * eta * de) + np.abs(tot * v * dv) + np.abs(0.5 * v * v * de))
    )


def modified_entropy_rate_scale(disc, y, ydot):
    """The same for the Svärd-Kalisch modified entropy rate."""
    eta, v = split_flat(np.asarray(y))
    de, dv = split_flat(np.asarray(ydot))
    h = disc.water_height(eta)
    g = disc.gravity
    w = disc.operators.mass.diagonal
    dvx = disc._entropy_deriv(v)
    ddvx = disc._entropy_deriv(dv)
    return float(
        w @ (np.abs(0.5 * de * v**2) + np.abs(h * v * dv) + np.abs(g * h * de)
             + np.abs(g * de * disc.bathymetry) + np.abs(disc.beta_hat * dvx * ddvx))
    )


def dense_operator(op):
    """A ``DerivativeOperator`` as a C-contiguous N x N matrix: the
    operator applied to every unit vector."""
    return np.ascontiguousarray(op.apply(np.eye(op.n)).T)


def dense_band(band):
    """Both halves of a ``Band`` as an N x N matrix; a ``PeriodicBand``
    wraps its offsets mod N, and entries that meet add up."""
    n = band.n
    periodic = isinstance(band, PeriodicBand)
    a = np.zeros((n, n))
    for k, diagonal in enumerate(band.diagonals):
        rows = np.arange(n if periodic else max(n - k, 0))
        cols = (rows + k) % n
        a[rows, cols] += diagonal[rows]
        if k:
            a[cols, rows] += diagonal[rows]
    return a


def upper_cholesky(band, diagonal=None):
    """The banded Cholesky of ``band`` plus diag(``diagonal``) in pbtrf
    upper storage, as ``linsolve`` factored before it took the lower one:
    (u, info, order) from dpbtrf(lower=0), ``order`` the fold of a
    ``PeriodicBand`` (half-width min(2w, n - 1)) or None."""
    n, w = band.n, band.w
    if isinstance(band, PeriodicBand):
        fold = Fold(n)
        order, position = fold.order, fold.position
        b = min(2 * w, n - 1)
        offsets = np.arange(w + 1)[:, None]
        rows = position[None, :]
        cols = position[(np.arange(n) + offsets) % n]
        values = np.where((offsets > 0) & (offsets % n == 0), 2.0, 1.0) * band.diagonals
        flat = (b - np.abs(rows - cols)) * n + np.maximum(rows, cols)
        ab = np.bincount(flat.ravel(), values.ravel(), (b + 1) * n).reshape(b + 1, n)
    else:
        order = None
        b = min(w, n - 1)
        ab = np.zeros((b + 1, n))
        for k in range(b + 1):
            ab[b - k, k:] = band.diagonals[k, : n - k]
    ab = np.asfortranarray(ab)
    if diagonal is not None:
        ab[-1] += diagonal if order is None else diagonal[order]
    u, info = sla.lapack.dpbtrf(ab, lower=0)
    return u, info, order


def upper_cholesky_solve(u, order, rhs):
    """pbtrs with the upper-storage factor of ``upper_cholesky``."""
    if order is None:
        return sla.lapack.dpbtrs(u, rhs, lower=0)[0]
    x = sla.lapack.dpbtrs(u, rhs[order], lower=0)[0]
    return x[np.argsort(order)]


def dense_inverse_solve(a, rhs):
    """Reference solve through an explicitly formed inverse."""
    return np.linalg.inv(a) @ rhs


def matrix_exponential_reference(a, y0, t):
    return sla.expm(t * a) @ y0


class FunctionalFromCallable(CubicIncrementFunctional):
    """A relaxation functional from a plain J(y) callable of degree <= 3.

    The increment J(y + gamma dy) - J(y) of such a J is a cubic in gamma
    without constant term, so its three coefficients follow exactly from
    the direct differences at gamma = 1, -1 and 2.
    """

    def __init__(self, func):
        self._func = func

    def value(self, y):
        return float(self._func(y))

    def delta_coefficients(self, y, dy):
        base = self.value(y)
        d_plus, d_minus, d_two = (self.value(y + g * dy) - base for g in (1.0, -1.0, 2.0))
        c2 = 0.5 * (d_plus + d_minus)
        c1_c3 = 0.5 * (d_plus - d_minus)  # c1 + c3
        c3 = (0.5 * d_two - 2.0 * c2 - c1_c3) / 3.0  # (c1 + 4 c3) - (c1 + c3)
        return c1_c3 - c3, c2, c3


def dense_sbp_residuals(op, dense=None):
    """Residual dict of ``sbp.verify_sbp_identity`` in its dense O(N^3) form.

    Forms np.diag(M) @ D and D^T @ M explicitly, as the identity check did
    before it moved to the stencil and corner blocks, from ``dense``
    (D, or (D+, D-) for an upwind pair) or else from ``dense_operator``.
    """
    from dispersive_sw.sbp import UpwindOperatorPair

    m = np.diag(op.mass.diagonal)
    n = m.shape[0]
    ones = np.ones(n)

    def boundary_corrected(res):
        if not op.grid.is_periodic:
            res[n - 1, n - 1] -= 1.0
            res[0, 0] += 1.0
        return res

    if isinstance(op, UpwindOperatorPair):
        dp, dm = dense or (dense_operator(op.d_plus), dense_operator(op.d_minus))
        return {
            "adjoint": float(np.max(np.abs(boundary_corrected(m @ dp + dm.T @ m)))),
            "consistency_plus": float(np.max(np.abs(m @ (dp @ ones)))),
            "consistency_minus": float(np.max(np.abs(m @ (dm @ ones)))),
        }
    d = dense_operator(op) if dense is None else dense
    residuals = {}
    if op.kind == "periodic_central_d1":
        residuals["periodic_sbp"] = float(np.max(np.abs(m @ d + d.T @ m)))
    elif op.kind == "bounded_central_d1":
        residuals["bounded_sbp"] = float(
            np.max(np.abs(boundary_corrected(m @ d + d.T @ m)))
        )
    elif op.kind.startswith("periodic_d2"):
        residuals["symmetry"] = float(np.max(np.abs(m @ d - d.T @ m)))
    residuals["consistency"] = float(np.max(np.abs(m @ (d @ ones))))
    return residuals


# interior central stencils as fractions (unit spacing, offsets -p/2..p/2)
_CENTRAL_D1_RATIONAL = {
    2: [Fraction(-1, 2), Fraction(0), Fraction(1, 2)],
    4: [Fraction(1, 12), Fraction(-2, 3), Fraction(0), Fraction(2, 3),
        Fraction(-1, 12)],
    6: [Fraction(-1, 60), Fraction(3, 20), Fraction(-3, 4), Fraction(0),
        Fraction(3, 4), Fraction(-3, 20), Fraction(1, 60)],
}


@lru_cache(maxsize=None)
def bounded_closure_rational(order):
    """(norm weights, c, {(i, j): Q[i, j]}) of the bounded central operator.

    With the classical norm weights fixed, Q = M D1 (unit spacing) is the
    interior antisymmetric band everywhere except an antisymmetric corner
    block (plus Q[0,0] = -1/2); the strictly upper block entries follow
    from the boundary accuracy conditions D1 x^k = k x^(k-1), k <= p/2,
    solved exactly with sympy.  The corner size c starts at the number of
    modified norm weights and grows until the linear system is consistent.
    Only nonzero entries are returned.
    """
    import sympy

    from dispersive_sw.sbp import _BOUNDED_NORM

    hw = _BOUNDED_NORM[order]
    r = len(hw)
    tau = half = order // 2
    interior = _CENTRAL_D1_RATIONAL[order]

    def stencil_value(offset):
        return interior[offset + half] if abs(offset) <= half else Fraction(0)

    for c in range(r, r + tau + half + 1):
        pairs = [(i, j) for i in range(c) for j in range(i + 1, c)]
        h_full = list(hw) + [Fraction(1)] * (c - r)
        rows, rhs = [], []
        for i in range(c):
            for k in range(tau + 1):
                # sum_j Q[i, j] j^k = h_i * k * i^(k-1); the fixed diagonal
                # (Q[0,0] = -1/2) and the interior-tail columns j >= c go
                # to the right-hand side
                target = Fraction(0) if k == 0 else h_full[i] * k * Fraction(i) ** (k - 1)
                if i == 0 and k == 0:
                    target += Fraction(1, 2)
                for j in range(c, i + half + 1):
                    target -= stencil_value(j - i) * Fraction(j) ** k
                rows.append([Fraction(b) ** k if a == i else -Fraction(a) ** k if b == i
                             else Fraction(0) for a, b in pairs])
                rhs.append(target)
        if not pairs:
            if all(f == 0 for f in rhs):
                return hw, c, {}
            continue
        mat = sympy.Matrix([[sympy.Rational(f) for f in row] for row in rows])
        vec = sympy.Matrix([sympy.Rational(f) for f in rhs])
        try:
            sol, _params = mat.gauss_jordan_solve(vec)
        except ValueError:
            continue
        sol = sol.subs({p: 0 for p in sol.free_symbols})
        entries = {pq: Fraction(int(v.p), int(v.q)) for pq, v in zip(pairs, sol)}
        return hw, c, {pq: f for pq, f in entries.items() if f != 0}
    raise ValueError(f"no consistent boundary closure for order {order}")


def dense_bounded_central_d1(grid, order):
    """(D1, M diagonal) of the bounded central operator as a dense matrix,
    assembled from ``bounded_closure_rational``."""
    hw, c, corner = bounded_closure_rational(order)
    hw = np.array([float(f) for f in hw])
    n, half = grid.n_nodes, order // 2
    interior = [float(f) for f in _CENTRAL_D1_RATIONAL[order]]
    q = np.zeros((n, n))
    for k in range(-half, half + 1):
        if interior[k + half] != 0.0:
            idx = np.arange(max(0, -k), min(n, n - k))
            q[idx, idx + k] = interior[k + half]
    block = np.zeros((c, c))
    block[0, 0] = -0.5
    for (i, j), f in corner.items():
        block[i, j], block[j, i] = float(f), -float(f)
    q[:c, :c] = block
    q[n - c:, n - c:] = -block[::-1, ::-1]
    weights = np.ones(n)
    weights[:hw.size] = hw
    weights[n - hw.size:] = hw[::-1]
    return q / weights[:, None] / grid.spacing, weights * grid.spacing


def dense_bounded_upwind(grid, order):
    """(D+, D-, M diagonal) of the bounded upwind pair as dense matrices:
    D+/- = D1 -/+ M^-1 4^-p Delta^T Delta, Delta the p-th undivided
    difference."""
    d1, mass = dense_bounded_central_d1(grid, order)
    n = grid.n_nodes
    diff = np.zeros((n - order, n))
    binom = np.array([(-1) ** j * comb(order, j) for j in range(order + 1)])
    for i in range(n - order):
        diff[i, i : i + order + 1] = binom
    s = -(4.0 ** (-order)) * (diff.T @ diff)
    minv = 1.0 / mass
    return d1 + minv[:, None] * s, d1 - minv[:, None] * s, mass
