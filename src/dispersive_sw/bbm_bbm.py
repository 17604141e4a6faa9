"""Coupled BBM equations with variable bathymetry.

The system evolves the total water height eta and the velocity v,

    eta_t + ((eta + D) v)_x - (D^2 eta_{xt})_x / 6 = 0,
    v_t + g eta_x + v v_x - (D^2 v_t)_{xx} / 6 = 0,

with still water depth D(x) = -b(x).  The reference level is fixed at
eta0 = 0: for another level, ``scenarios._discretize`` builds the model on
b - eta0 and shifts its eta and b outputs back by eta0.
``BbmBbmDiscretization(grid, operators, bathymetry_fn, gravity, variant)``
validates its inputs and assembles and factors the two elliptic operators,
once per run; ``build_bbm_discretization`` is the same call by the name
that ``scenarios`` uses.  Semidiscretizations conserve the total mass, the
total velocity, and (every variant but periodic_central_narrow) the
quadratic energy

    E = sum_i M_ii (g eta_i^2 + (eta_i + D_i) v_i^2) / 2.

With K = D^2, the SBP property makes every elliptic system symmetric
positive definite (SPD).  Periodic: the mass systems I - L K R / 6
(L K R = D1 K D1 or D- K D+, that is -R^T K R) as assembled, the
velocity systems I - S K / 6 (S = D1 D1, D2 or D+ D-, symmetric negative
semidefinite) once scaled to diag(1/K) - S / 6.

Reflecting walls (D+ = D- = D1 for the central variant): the mass system
I - D- P_D K D+ / 6, P_D = diag(0, 1, ..., 1, 0) (weak-strong Neumann),
times M is M + D+^T (M P_D K) D+ / 6, because M D- = B - D+^T M and
B P_D = 0 (B = e_R e_R^T - e_L e_L^T).  The velocity system
I - D+ D- K / 6 holds in the interior rows, with v_t = 0 at the walls
(strong Dirichlet); for z = K v_t its interior rows times M read
(M / K + D-^T M D- / 6) z, and the wall unknowns drop out.  Both are
assembled in these M-scaled forms.  The solve gives y = eta_t; the
right-hand side then returns the same value as the divergence of the
full flux, eta_t = -D-(F - P_D K D+ y / 6), F = (eta + D) v, so that the
mass changes only by the roundoff of that one derivative, whatever the
roundoff of the solve.  ``rhs_fields(state, t)`` reads, never writes,
the (2, N) view [eta, v] of the flat state, checked for NaN and inf at once.
It returns a new (2, N) array [eta_t, v_t].  For periodic_const_narrow
without sources, whose two systems are one, that array comes straight
from one stacked solve of both negated flux derivatives; the other
periodic variants solve two different systems, so they keep two solves.
"""

from __future__ import annotations

import numpy as np

from . import linsolve
from .errors import ConfigurationError, DimensionError, DomainError, NumericsError
from .grid import split_flat
from .sbp import bounded_band, periodic_band
from .timestepping import CubicIncrementFunctional

VARIANTS = (
    "periodic_central_wide",
    "periodic_central_narrow",
    "periodic_const_narrow",
    "periodic_upwind",
    "reflecting_central",
    "reflecting_upwind",
)


def bbm_soliton(t, x, gravity, depth):
    """Exact solitary wave over constant depth.

    Speed c = (5/2) sqrt(g D); with theta = sqrt(18/5) (x - c t) / (2 D),

        eta = (15/4) D (2 sech^2 theta - 3 sech^4 theta),
        v   = (15/2) sqrt(g D) sech^2 theta.
    """
    if depth <= 0:
        raise DomainError(f"soliton requires positive depth, got {depth}")
    c = 2.5 * np.sqrt(gravity * depth)
    theta = 0.5 * np.sqrt(18.0 / 5.0) * (np.asarray(x) - c * t) / depth
    sech2 = 1.0 / np.cosh(theta) ** 2
    eta = 3.75 * depth * (2.0 * sech2 - 3.0 * sech2**2)
    v = 7.5 * np.sqrt(gravity * depth) * sech2
    return eta, v


def bbm_soliton_speed(gravity, depth):
    return 2.5 * np.sqrt(gravity * depth)


def bbm_phase_speed(k, h0, gravity):
    """Linear phase velocity sqrt(g h0) / (1 + (h0 k)^2 / 6)."""
    k = np.asarray(k, dtype=float)
    return np.sqrt(gravity * h0) / (1.0 + (h0 * k) ** 2 / 6.0)


class BbmBbmDiscretization:
    """The BBM-BBM semidiscretization of one variant: its operators,
    factored elliptic systems, right-hand side and invariants, all built
    by the constructor."""

    def __init__(self, grid, operators, bathymetry_fn, gravity, variant, *,
                 source_terms=None):
        """Assemble and factor one of the BBM-BBM semidiscretizations.

        The outer pair (L, R) differentiates the (mass, velocity) fluxes:
        (D-, D+) for the *_upwind variants, (D1, D1) otherwise.  The
        periodic mass system is built from L K R, the velocity system from
        R L, or from the narrow D2 for periodic_central_narrow; the
        reflecting ones from R and L (module docstring).  The elliptic
        operators are time independent, so they are factored here, once
        each (once in all for ``periodic_const_narrow``, whose two systems
        coincide and whose right-hand side solves both fields in one call).
        ``source_terms(t, x) -> (s_eta, s_v)`` adds manufactured sources.
        """
        if variant not in VARIANTS:
            raise ConfigurationError(f"unknown BBM-BBM variant {variant!r}")
        if variant.startswith("periodic") != grid.is_periodic:
            raise ConfigurationError(
                f"variant {variant} incompatible with bc_kind {grid.bc_kind}"
            )
        b = np.asarray(bathymetry_fn(grid.nodes), dtype=float)
        if b.shape != grid.nodes.shape:
            raise DimensionError(f"bathymetry shape {b.shape} is not {grid.nodes.shape}")
        depth = -b  # eta0 = 0 inside this model
        if np.min(depth) <= 0.0:
            raise DomainError(
                f"still water depth must be positive everywhere, min={np.min(depth):.3e}"
            )
        kdiag = depth**2
        if variant == "periodic_const_narrow" and np.ptp(depth) > 1e-13 * np.max(depth):
            raise ConfigurationError("periodic_const_narrow requires constant bathymetry")
        self.grid = grid
        self.gravity = float(gravity)
        self.bathymetry = b
        self.still_depth = depth
        self.variant = variant
        self.operators = operators
        self._source = source_terms  # source(t, x), or None

        # derivatives applied outside the fluxes; one batched apply when they coincide
        if variant.endswith("upwind"):
            pair = operators.upwind
            d_outer_mass, d_outer_vel = pair.d_minus, pair.d_plus
        else:
            d_outer_mass = d_outer_vel = operators.d1
        self._d_outer_mass, self._d_outer_vel = d_outer_mass, d_outer_vel

        self._vel_divisor = None  # K of a rescaled velocity system
        # reflecting only: P_D K / 6 (module docstring); D+ is _d_outer_vel
        self._wall_flux_weight = None
        # periodic: a_mass = L K R and a_vel = S, factored as I - L K R / 6 and
        # diag(1/K) - S / 6 (x = z / K solves I - S K / 6); reflecting: the
        # M-scaled SPD forms of the module docstring
        if grid.is_periodic:
            if variant == "periodic_const_narrow":
                # K is constant, so I - D2 K / 6 is symmetric: one system for both
                a_mass = a_vel = periodic_band(operators.d2, inner=kdiag)
            else:
                a_mass = periodic_band(d_outer_mass, d_outer_vel, inner=kdiag)
                a_vel = (periodic_band(operators.d2) if variant == "periodic_central_narrow"
                         else periodic_band(d_outer_vel, d_outer_mass))
            solver_mass = solver_vel = linsolve.factor(a_mass.shifted(1.0, -6.0))
            if a_vel is not a_mass:
                self._vel_divisor = kdiag
                solver_vel = linsolve.factor(a_vel.shifted(1.0 / kdiag, -6.0))
        else:
            m = operators.mass.diagonal
            wall_flux_weight = kdiag / 6.0
            wall_flux_weight[0] = wall_flux_weight[-1] = 0.0
            self._wall_flux_weight = wall_flux_weight
            solver_mass = linsolve.factor(
                bounded_band(d_outer_vel, m * wall_flux_weight).shifted(m)
            )
            solver_vel = linsolve.factor(
                bounded_band(d_outer_mass, m).shifted(m / kdiag, 6.0).interior()
            )
            self._vel_divisor = kdiag[1:-1]
        self._solver_mass, self._solver_vel = solver_mass, solver_vel

    #: keys of invariants(), and the one relaxation keeps
    invariant_names = ("mass", "velocity", "energy")
    conserved = "energy"

    @property
    def n(self) -> int:
        return self.grid.n_nodes

    # -- right-hand side -----------------------------------------------------

    def rhs_fields(self, state, t=0.0):
        if not np.isfinite(state).all():
            raise NumericsError("non-finite state passed to BBM-BBM right-hand side")
        eta, v = state
        mass_flux = (self.still_depth + eta) * v
        vel_flux = self.gravity * eta + 0.5 * v * v
        d_mass, d_vel = self._d_outer_mass, self._d_outer_vel
        if d_mass is d_vel:
            d_fluxes = d_mass.apply(np.array([mass_flux, vel_flux]))
            if self._solver_vel is self._solver_mass and self._source is None:
                # periodic_const_narrow: both fields in one stacked solve
                return self._solver_mass.solve(np.negative(d_fluxes, out=d_fluxes))
            d_mass_flux, d_vel_flux = d_fluxes
        else:
            d_mass_flux, d_vel_flux = d_mass.apply(mass_flux), d_vel.apply(vel_flux)
        rhs_v = -d_vel_flux
        s_eta = None
        if self._source is not None:
            s_eta, s_v = self._source(t, self.grid.nodes)
            rhs_v = rhs_v + s_v
        if self._wall_flux_weight is None:
            deta = self._solver_mass.solve(-d_mass_flux)
            if s_eta is not None:
                deta = deta + self._solver_mass.solve(s_eta)
            dv = self._solver_vel.solve(rhs_v)
            if self._vel_divisor is not None:
                dv /= self._vel_divisor
            return np.array([deta, dv])
        # reflecting: the M-scaled systems, eta_t as a flux divergence; v_t
        # is zero at the walls exactly
        m = self.operators.mass.diagonal
        rhs_eta = -d_mass_flux if s_eta is None else s_eta - d_mass_flux
        y = self._solver_mass.solve(m * rhs_eta)
        flux = mass_flux - self._wall_flux_weight * d_vel.apply(y)
        deta = -d_mass.apply(flux)
        if s_eta is not None:
            deta = deta + s_eta
        dv = np.zeros(self.n)
        dv[1:-1] = self._solver_vel.solve((m * rhs_v)[1:-1]) / self._vel_divisor
        return np.array([deta, dv])

    def rhs(self, t, y):
        return self.rhs_fields(y.reshape(2, -1), t).reshape(-1)

    # -- invariants ----------------------------------------------------------

    def invariants(self, y) -> dict:
        eta, v = split_flat(np.asarray(y))
        w = self.operators.mass.diagonal
        return {
            "mass": float(w @ eta),
            "velocity": float(w @ v),
            "energy": self.energy(y),
        }

    def energy(self, y) -> float:
        eta, v = split_flat(np.asarray(y))
        w = self.operators.mass.diagonal
        dens = 0.5 * self.gravity * eta**2 + 0.5 * (eta + self.still_depth) * v**2
        return float(w @ dens)

    def functional(self):
        return BbmEnergyFunctional(self)


class BbmEnergyFunctional(CubicIncrementFunctional):
    """Total energy with a cancellation-free increment evaluation.

    E(y + gamma dy) - E(y) is an exact cubic in gamma because the energy
    density is cubic in (eta, v); the coefficients are assembled from
    products of state and increment, so no large-value cancellation occurs.
    """

    def __init__(self, disc: BbmBbmDiscretization):
        self._disc = disc

    def value(self, y):
        return self._disc.energy(y)

    def delta_coefficients(self, y, dy):
        eta, v = split_flat(np.asarray(y))
        de, dv = split_flat(np.asarray(dy))
        g = self._disc.gravity
        tot = eta + self._disc.still_depth
        w = self._disc.operators.mass.diagonal
        c1 = float(w @ (g * eta * de + tot * v * dv + 0.5 * v * v * de))
        c2 = float(w @ (0.5 * g * de * de + de * v * dv + 0.5 * tot * dv * dv))
        c3 = float(w @ (0.5 * de * dv * dv))
        return c1, c2, c3


def build_bbm_discretization(grid, operators, bathymetry_fn, gravity, variant,
                             *, source_terms=None):
    """``BbmBbmDiscretization`` by the name that ``scenarios`` calls."""
    return BbmBbmDiscretization(grid, operators, bathymetry_fn, gravity, variant,
                                source_terms=source_terms)
