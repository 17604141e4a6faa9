"""Manufactured solutions and their source terms for both models.

The exact fields are substituted into the governing equations with a
computer-algebra derivation (sympy); the residual becomes the source
term.  Periodic case on x in [0, 1]:

    eta = exp(t) cos(2 pi (x - 2 t)),   v = exp(t/2) sin(2 pi (x - t/2)),

reflecting case (wall conditions eta_x = 0, v = 0 at x in {0, 1}):

    eta = exp(2 t) cos(pi x),           v = exp(t) x sin(pi x),

both over the bathymetry b(x) = -5 - 2 cos(2 pi x).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import sympy as sp

from .errors import ConfigurationError
from .svaerd_kalisch import sk_parameter_set

_X, _T = sp.symbols("x t", real=True)


def bathymetry_expr():
    return -5 - 2 * sp.cos(2 * sp.pi * _X)


def _solution_exprs(bc_kind):
    if bc_kind == "periodic":
        eta = sp.exp(_T) * sp.cos(2 * sp.pi * (_X - 2 * _T))
        v = sp.exp(_T / 2) * sp.sin(2 * sp.pi * (_X - _T / 2))
    elif bc_kind == "bounded":
        eta = sp.exp(2 * _T) * sp.cos(sp.pi * _X)
        v = sp.exp(_T) * _X * sp.sin(sp.pi * _X)
    else:
        raise ConfigurationError(f"unknown bc_kind {bc_kind!r}")
    return eta, v


class ManufacturedCase:
    """Exact solution, source terms and bathymetry of one manufactured
    test, as numpy callables of (t, x)."""

    def __init__(self, bc_kind, exact, source, bathymetry):
        self.bc_kind = bc_kind
        self.exact = exact  # exact(t, x) -> (eta, v)
        self.source = source  # source(t, x) -> model-specific source pair
        self.bathymetry = bathymetry


def _lambdify(expr):
    fn = sp.lambdify((_T, _X), expr, modules="numpy", cse=True)

    def wrapped(t, x):
        out = fn(t, x)
        return np.broadcast_to(np.asarray(out, dtype=float), np.shape(x)).copy()

    return wrapped


def _pack(pair_exprs, bc_kind):
    # cancel/cse happens inside lambdify; full simplify is far too slow here
    f1 = _lambdify(pair_exprs[0].doit())
    f2 = _lambdify(pair_exprs[1].doit())

    def source(t, x):
        return f1(t, x), f2(t, x)

    eta_e, v_e = _solution_exprs(bc_kind)
    ex1, ex2 = _lambdify(eta_e), _lambdify(v_e)

    def exact(t, x):
        return ex1(t, x), ex2(t, x)

    return ManufacturedCase(bc_kind, exact, source, _lambdify(bathymetry_expr()))


@lru_cache(maxsize=None)
def bbm_manufactured(bc_kind, gravity) -> ManufacturedCase:
    """Sources for the BBM-BBM equations (eta0 = 0, D = -b)."""
    eta, v = _solution_exprs(bc_kind)
    b = bathymetry_expr()
    depth = -b
    g = sp.Float(gravity, 17)
    s_eta = (
        sp.diff(eta, _T)
        + sp.diff((eta + depth) * v, _X)
        - sp.Rational(1, 6) * sp.diff(depth**2 * sp.diff(eta, _X, _T), _X)
    )
    s_v = (
        sp.diff(v, _T)
        + g * sp.diff(eta, _X)
        + v * sp.diff(v, _X)
        - sp.Rational(1, 6) * sp.diff(depth**2 * sp.diff(v, _T), _X, 2)
    )
    return _pack((s_eta, s_v), bc_kind)


@lru_cache(maxsize=None)
def sk_manufactured(bc_kind, gravity, params) -> ManufacturedCase:
    """Sources (s_h, s_hv) for the Svärd-Kalisch system in conservative
    form, at still-water level eta0 = 0 (D = -b, h = eta + D)."""
    params = sk_parameter_set(params)
    eta, v = _solution_exprs(bc_kind)
    b = bathymetry_expr()
    g = sp.Float(gravity, 17)
    depth = -b
    h = eta + depth
    if params.alpha_tilde < 0:
        raise ConfigurationError(
            f"set {params.name} invalid for variable bathymetry (alpha_tilde < 0)"
        )
    alpha_hat = sp.sqrt(sp.Float(params.alpha_tilde, 17) * sp.sqrt(g * depth)) * depth
    beta_hat = sp.Float(params.beta_tilde, 17) * depth**3
    gamma_hat = sp.Float(params.gamma_tilde, 17) * sp.sqrt(g * depth) * depth**3

    eta_x = sp.diff(h + b, _X)
    y = alpha_hat * sp.diff(alpha_hat * eta_x, _X)
    s_h = sp.diff(h, _T) + sp.diff(h * v, _X) - sp.diff(y, _X)
    s_hv = (
        sp.diff(h * v, _T)
        + sp.diff(h * v**2, _X)
        + g * h * eta_x
        - sp.diff(v * y, _X)
        - sp.diff(beta_hat * sp.diff(v, _X), _X, _T)
        - sp.Rational(1, 2)
        * (
            sp.diff(gamma_hat * sp.diff(v, _X), _X, 2)
            + sp.diff(gamma_hat * sp.diff(v, _X, 2), _X)
        )
    )
    return _pack((s_h, s_hv), bc_kind)
