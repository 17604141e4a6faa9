"""Svärd-Kalisch dispersive shallow water system.

Conservative form (h water height, P = h v discharge, b bathymetry):

    h_t + (h v)_x = (ahat (ahat (h+b)_x)_x)_x,
    P_t + (h v^2)_x + g h (h+b)_x
        = (ahat v (ahat (h+b)_x)_x)_x + (bhat v_x)_{xt}
          + ((ghat v_x)_{xx} + (ghat v_{xx})_x) / 2,

with spatially varying coefficients tied to the still water depth
D = eta0 - b:

    ahat^2 = atilde sqrt(g D) D^2,  bhat = btilde D^3,
    ghat = gtilde sqrt(g D) D^3.

The semidiscretizations are split-form so that the shallow-water flux
terms cancel in the entropy balance; they conserve (or, with upwind
biasing of the alpha terms, dissipate) the total modified entropy

    Ehat = sum_i M_ii [ (h v^2 + g h^2)/2 + g h b + bhat (Dv)^2 / 2 ]_i,

where Dv uses the scheme's matching derivative (central D1, or D1minus
for the upwind variant).  The right-hand side is evaluated in primitive
variables (eta, v); the velocity equation solves a symmetric positive
definite (SPD) system that is re-factored at every call because it
depends on the water height: diag(h) - D beta D when periodic.  With
reflecting walls, v_t = 0 there and diag(h) - D1 beta D1 holds in the
interior rows; times M these read M diag(h) + D1^T (M beta) D1, because
M D1 = B - D1^T M and B vanishes off the walls, and the wall unknowns
drop out of that SPD form.
``SkDiscretization(grid, operators, bathymetry_fn, gravity, eta0, params,
variant)`` validates its inputs, builds the coefficient fields and packs
the static part of that system once per run; ``build_sk_discretization``
is the same call by the name that ``scenarios`` uses.

The right-hand side applies its derivative operators in three dependency
layers, with one batched ``apply`` per operator and layer (row i of a
stack has the bits of a single apply, see ``sbp``).  The central split
form uses the flux q = y_disp - h v, y_disp = ahat D1(ahat D1 eta), with
eta_t = D1 q.  D1 is linear, so its advective and alpha terms
-(D1(h v^2) + h v D1 v - v D1(h v))/2 + (D1(v y_disp) - v D1 y_disp
+ y_disp D1 v)/2 are (D1(v q) - v D1 q + q D1 v)/2 in exact arithmetic,
and its layers are

1. D1 of [eta, v];
2. D1 (ahat D1 eta), and D2 of [v, ghat D1 v];
3. D1 of [q, v q, ghat D2 v].

Each derivative sits in the latest layer that can take it, and a layer
applies each operator at most once.  The upwind variant applies D1 to
[eta, v, h v, h v^2] and D+ to [eta, v] in layer 1, takes
y_disp = ahat D-(ahat D+ eta) and D2 of [v, ghat D1 v] in layer 2, and
applies D- to [y_disp, v y_disp] and D1 to ghat D2 v in layer 3; the
reflecting variant needs the D1 stack of layer 1 only.  The gamma rows
are left out when ghat vanishes.
``rhs_fields(state, t)`` reads, never writes, the (2, N) view [eta, v] of
the flat state, checked for NaN and inf at once; layer 1 differentiates it.
"""

from __future__ import annotations

import numpy as np

from . import linsolve
from .errors import ConfigurationError, DimensionError, DomainError, NumericsError
from .grid import split_flat
from .sbp import bounded_band, periodic_band
from .timestepping import CubicIncrementFunctional

VARIANTS = ("periodic_central_split", "periodic_upwind", "reflecting_beta_only")


class SkParameterSet:
    """Dimensionless dispersion coefficients (alpha, beta, gamma tilde)."""

    def __init__(self, name, alpha_tilde, beta_tilde, gamma_tilde):
        self.name = name
        self.alpha_tilde = alpha_tilde
        self.beta_tilde = beta_tilde
        self.gamma_tilde = gamma_tilde


PARAMETER_SETS = {
    "set1": SkParameterSet("set1", -1.0 / 3.0, 0.0, 0.0),
    "set2": SkParameterSet(
        "set2", 0.0004040404040404049, 0.49292929292929294, 0.15707070707070708
    ),
    "set3": SkParameterSet("set3", 0.0, 0.27946992481203003, 0.0521077694235589),
    "set4": SkParameterSet("set4", 0.0, 0.2308939393939394, 0.04034343434343434),
    "set5": SkParameterSet("set5", 0.0, 1.0 / 3.0, 0.0),
}


def sk_parameter_set(name) -> SkParameterSet:
    if isinstance(name, SkParameterSet):
        return name
    try:
        return PARAMETER_SETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown parameter set {name!r}; available: {sorted(PARAMETER_SETS)}"
        ) from None


def euler_phase_speed(k, h0, gravity):
    """Full water-wave phase velocity sqrt(g tanh(k h0) / k)."""
    k = np.asarray(k, dtype=float)
    return np.sqrt(gravity * np.tanh(k * h0) / k)


def sk_dispersion_omega(k, params, h0, gravity):
    """Positive frequency branch of the linearized flat-bottom system.

    Linearizing about (h, v) = (h0, 0) and inserting plane waves turns the
    system into a quadratic in omega,

        (h0 + beta k^2) w^2 - k^3 (gamma + alpha (h0 + beta k^2)) w
            + alpha gamma k^6 - g h0^2 k^2 = 0,

    with the dimensional coefficients alpha = atilde sqrt(g h0) h0^2,
    beta = btilde h0^3, gamma = gtilde sqrt(g h0) h0^3.  The branch
    continuous with omega = sqrt(g h0) k as k -> 0 is returned.
    """
    params = sk_parameter_set(params)
    k = float(k)
    if k <= 0 or h0 <= 0:
        raise DomainError("dispersion relation requires k > 0 and h0 > 0")
    root_gh = np.sqrt(gravity * h0)
    alpha = params.alpha_tilde * root_gh * h0**2
    beta = params.beta_tilde * h0**3
    gamma = params.gamma_tilde * root_gh * h0**3
    a = h0 + beta * k**2
    b = k**3 * (gamma + alpha * a)
    c = alpha * gamma * k**6 - gravity * h0**2 * k**2
    disc = b * b - 4.0 * a * c
    if disc < 0:
        raise DomainError(
            f"no real dispersion branch for k={k}, h0={h0}, set={params.name}"
        )
    omega = (b + np.sqrt(disc)) / (2.0 * a)
    if omega <= 0:
        raise DomainError(
            f"no positive dispersion branch for k={k}, h0={h0}, set={params.name}"
        )
    return float(omega)


class SkDiscretization:
    """The Svärd-Kalisch semidiscretization of one variant: its operators,
    coefficient fields, right-hand side and invariants, all built by the
    constructor."""

    #: keys of invariants(), and the one relaxation keeps
    invariant_names = ("mass", "discharge", "entropy", "modified_entropy")
    conserved = "modified_entropy"

    def __init__(self, grid, operators, bathymetry_fn, gravity, eta0, params, variant, *,
                 source_terms=None):
        """Coefficient fields, static matrix blocks, and variant validation.

        ``source_terms(t, x) -> (s_h, s_hv)`` supplies manufactured sources
        in the conservative form; the velocity equation receives
        s_hv - v s_h after the product-rule rewrite.
        """
        params = sk_parameter_set(params)
        if variant not in VARIANTS:
            raise ConfigurationError(f"unknown SK variant {variant!r}")
        if variant.startswith("periodic") != grid.is_periodic:
            raise ConfigurationError(
                f"variant {variant} incompatible with bc_kind {grid.bc_kind}"
            )
        if variant == "reflecting_beta_only" and (
            params.alpha_tilde != 0.0 or params.gamma_tilde != 0.0
        ):
            raise ConfigurationError(
                "reflecting boundaries require alpha_tilde = gamma_tilde = 0 "
                f"(got set {params.name})"
            )
        b = np.asarray(bathymetry_fn(grid.nodes), dtype=float)
        if b.shape != grid.nodes.shape:
            raise DimensionError(f"bathymetry shape {b.shape} is not {grid.nodes.shape}")
        depth = eta0 - b
        if np.min(depth) <= 0.0:
            raise DomainError(
                f"still water depth must be positive everywhere, min={np.min(depth):.3e}"
            )
        if params.alpha_tilde < 0.0:
            raise ConfigurationError(
                f"parameter set {params.name} has alpha_tilde < 0 and cannot be "
                "used with the variable-bathymetry coefficient law"
            )
        self.grid = grid
        self.gravity = float(gravity)
        self.eta0 = float(eta0)
        self.bathymetry = b
        self.still_depth = depth
        root_gd = np.sqrt(gravity * depth)
        self.alpha_hat = np.sqrt(params.alpha_tilde * root_gd) * depth
        self.beta_hat = beta_hat = params.beta_tilde * depth**3
        self.gamma_hat = params.gamma_tilde * root_gd * depth**3
        self.params = params
        self.variant = variant
        self.operators = operators
        self._source = source_terms  # source(t, x), or None
        # whether the alpha / gamma dispersion terms are present; the coefficient
        # fields are fixed, so this is decided once instead of on every RHS call
        self._has_alpha = bool(np.any(self.alpha_hat))
        self._has_gamma = bool(np.any(self.gamma_hat))

        d1 = operators.d1
        self._entropy_deriv = d1.apply  # derivative entering the modified entropy
        # static block -(D beta D), or -(D+ beta D-) = D+ beta D+^T for upwind,
        # or D1^T (M beta) D1 without the wall unknowns: symmetric positive
        # semidefinite, so diag(h) (or M diag(h)) plus it is SPD for h > 0
        if variant == "periodic_central_split":
            beta_block = periodic_band(d1, d1, inner=-beta_hat)
        elif variant == "periodic_upwind":
            pair = operators.upwind
            beta_block = periodic_band(pair.d_plus, pair.d_minus, inner=-beta_hat)
            self._entropy_deriv = pair.d_minus.apply
        else:  # reflecting_beta_only
            beta_block = bounded_band(d1, operators.mass.diagonal * beta_hat).interior()
        # the static part, packed once; each right-hand side adds diag(h) and factors
        self._velocity_solver = linsolve.ShiftedSolver(beta_block)

    @property
    def n(self) -> int:
        return self.grid.n_nodes

    def water_height(self, eta):
        return eta + self.still_depth - self.eta0

    # -- right-hand side -----------------------------------------------------

    def rhs_fields(self, state, t=0.0):
        if not np.isfinite(state).all():
            raise NumericsError("non-finite state passed to SK right-hand side")
        eta, v = state
        h = self.water_height(eta)
        h_min = np.minimum.reduce(h)
        if h_min <= 0.0:
            raise DomainError(f"water height must stay positive, min={h_min:.3e}")
        ops = self.operators
        d1 = ops.d1.apply
        upwind = self.variant == "periodic_upwind"
        reflecting = self.variant == "reflecting_beta_only"
        central = not (upwind or reflecting)
        gamma_terms = not reflecting and self._has_gamma
        hv = h * v

        # layer 1: derivatives of the state
        if central:
            d1_eta, d1_v = d1(state)
        else:
            d1_eta, d1_v, d1_hv, d1_hvv = d1(np.array([eta, v, hv, hv * v]))
        if upwind:
            dp, dm = ops.upwind.d_plus.apply, ops.upwind.d_minus.apply
            dp_eta, dp_v = dp(state)

        # layer 2: the inner derivative of the displacement
        # y_disp = ahat D(ahat D eta), and D2 of [v, ghat D1 v]
        if upwind:
            y_disp = self.alpha_hat * dm(self.alpha_hat * dp_eta)
        elif central:
            y_disp = self.alpha_hat * d1(self.alpha_hat * d1_eta)
        if gamma_terms:
            d2_v, d2_gamma = ops.d2.apply(np.array([v, self.gamma_hat * d1_v]))

        # layer 3 and the split form: centrally in the flux q (see the module
        # docstring), with D1 (ghat D2 v) in the same stack; otherwise the
        # shallow water terms apart (after the time product rule moved
        # v * h_t to the left), plus the upwind alpha terms
        if central:
            q = y_disp - hv
            if gamma_terms:
                deta, d_vq, d1_gamma = d1(np.array([q, v * q, self.gamma_hat * d2_v]))
            else:
                deta, d_vq = d1(np.array([q, v * q]))
            rhs_v = 0.5 * (d_vq - v * deta + q * d1_v)
        else:
            rhs_v = -0.5 * (d1_hvv + hv * d1_v - v * d1_hv)
        rhs_v = rhs_v - self.gravity * h * d1_eta

        if reflecting:
            deta = -d1_hv
        elif upwind:
            d_y, d_vy = dm(np.array([y_disp, v * y_disp]))
            deta = -d1_hv + d_y
            if self._has_alpha:
                rhs_v = rhs_v + 0.5 * (d_vy - v * d_y + y_disp * dp_v)
            if gamma_terms:
                d1_gamma = d1(self.gamma_hat * d2_v)

        if gamma_terms:
            rhs_v = rhs_v + 0.5 * (d2_gamma + d1_gamma)

        if self._source is not None:
            s_h, s_hv = self._source(t, self.grid.nodes)
            deta = deta + s_h
            rhs_v = rhs_v + s_hv - v * s_h

        if not reflecting:
            return deta, self._velocity_solver.factor(h).solve(rhs_v)
        # the M-scaled interior system; v_t is zero at the walls exactly
        m = self.operators.mass.diagonal
        dv = np.zeros(self.n)
        dv[1:-1] = self._velocity_solver.factor((m * h)[1:-1]).solve((m * rhs_v)[1:-1])
        return deta, dv

    def rhs(self, t, y):
        deta, dv = self.rhs_fields(y.reshape(2, -1), t)
        return np.concatenate([deta, dv])

    # -- invariants ------------------------------------------------------------

    def invariants(self, y) -> dict:
        h, v, entropy_density, modified_density = self._entropy_densities(y)
        w = self.operators.mass.diagonal
        return {
            "mass": float(w @ h),
            "discharge": float(w @ (h * v)),
            "entropy": float(w @ entropy_density),
            "modified_entropy": float(w @ modified_density),
        }

    def modified_entropy(self, y) -> float:
        return float(self.operators.mass.diagonal @ self._entropy_densities(y)[3])

    def _entropy_densities(self, y):
        """(h, v, entropy density, modified entropy density); DomainError
        unless the water height is positive."""
        eta, v = split_flat(np.asarray(y))
        h = self.water_height(eta)
        if h.min() <= 0.0:
            raise DomainError("invariants need a positive water height")
        g = self.gravity
        entropy_density = 0.5 * (h * v**2 + g * h**2) + g * h * self.bathymetry
        modified = entropy_density + 0.5 * self.beta_hat * self._entropy_deriv(v) ** 2
        return h, v, entropy_density, modified

    def functional(self):
        return SkModifiedEntropyFunctional(self)


class SkModifiedEntropyFunctional(CubicIncrementFunctional):
    """Total modified entropy with exact cubic increments in gamma.

    In primitive variables the density (h v^2 + g h^2)/2 + g h b
    + bhat (Dv)^2 / 2 is a cubic polynomial of (eta, v), so the increment
    J(y + gamma dy) - J(y) has exact polynomial coefficients.
    """

    def __init__(self, disc: SkDiscretization):
        self._disc = disc

    def value(self, y):
        return self._disc.modified_entropy(y)

    def delta_coefficients(self, y, dy):
        d = self._disc
        eta, v = split_flat(np.asarray(y))
        de, dv = split_flat(np.asarray(dy))
        h = d.water_height(eta)
        g = d.gravity
        w = d.operators.mass.diagonal
        # one stacked apply; each row has the bits of a single apply
        dvx, ddvx = d._entropy_deriv(np.array([v, dv]))
        c1 = float(
            w @ (0.5 * de * v**2 + h * v * dv + g * h * de
                 + g * de * d.bathymetry + d.beta_hat * dvx * ddvx)
        )
        c2 = float(
            w @ (de * v * dv + 0.5 * h * dv**2 + 0.5 * g * de**2
                 + 0.5 * d.beta_hat * ddvx**2)
        )
        c3 = float(w @ (0.5 * de * dv**2))
        return c1, c2, c3


def build_sk_discretization(grid, operators, bathymetry_fn, gravity, eta0,
                            params, variant, *, source_terms=None):
    """``SkDiscretization`` by the name that ``scenarios`` calls."""
    return SkDiscretization(grid, operators, bathymetry_fn, gravity, eta0, params,
                            variant, source_terms=source_terms)
