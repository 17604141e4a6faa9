"""Independent reference computations used by several test modules.

These stay deliberately separate from the library code paths they check:
dense matrix algebra, matrix exponentials, direct Fourier fits, and the
np.roll form of the circulant stencil apply.
"""

import numpy as np
import scipy.linalg as sla

from dispersive_sw.grid import make_uniform_grid
from dispersive_sw.sbp import periodic_operators
from dispersive_sw.svaerd_kalisch import sk_parameter_set

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
    ops = periodic_operators(grid, order, d2_flavor="narrow")
    d1 = ops.d1.to_dense()
    d2 = ops.d2.to_dense()
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
    """Apply a circulant stencil via rolls, pairing +/- offsets.

    This is the reference for ``DerivativeOperator.apply`` on periodic
    operators: the same products, each offset pair summed before it is
    added to an accumulator that starts from c_0 u or from zeros.
    """
    u = np.asarray(u)
    table = {int(k): c for k, c in zip(offsets, coefficients) if c != 0.0}
    out = table[0] * u if 0 in table else np.zeros_like(u, dtype=float)
    for k in sorted({abs(k) for k in table if k != 0}):
        if k in table and -k in table:
            out = out + (table[k] * np.roll(u, -k) + table[-k] * np.roll(u, k))
        elif k in table:
            out = out + table[k] * np.roll(u, -k)
        else:
            out = out + table[-k] * np.roll(u, k)
    return out


def dense_inverse_solve(a, rhs):
    """Reference solve through an explicitly formed inverse."""
    return np.linalg.inv(a) @ rhs


def matrix_exponential_reference(a, y0, t):
    return sla.expm(t * a) @ y0


def dense_sbp_residuals(op):
    """Residual dict of ``sbp.verify_sbp_identity`` in its dense O(N^3) form.

    Forms np.diag(M) @ D and D^T @ M explicitly, from ``to_dense()``, as
    the identity check did before it moved to the stencil (periodic) and
    to row and column scaling (bounded).
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
        dp, dm = op.d_plus.to_dense(), op.d_minus.to_dense()
        return {
            "adjoint": float(np.max(np.abs(boundary_corrected(m @ dp + dm.T @ m)))),
            "consistency_plus": float(np.max(np.abs(dp @ ones))),
            "consistency_minus": float(np.max(np.abs(dm @ ones))),
        }
    d = op.to_dense()
    residuals = {}
    if op.kind == "periodic_central_d1":
        residuals["periodic_sbp"] = float(np.max(np.abs(m @ d + d.T @ m)))
    elif op.kind == "bounded_central_d1":
        residuals["bounded_sbp"] = float(
            np.max(np.abs(boundary_corrected(m @ d + d.T @ m)))
        )
    elif op.kind.startswith("periodic_d2"):
        residuals["symmetry"] = float(np.max(np.abs(m @ d - d.T @ m)))
    residuals["consistency"] = float(np.max(np.abs(d @ ones)))
    return residuals
