"""Uniform 1-D grids, diagonal-norm quadrature, and the flat two-field state.

Conventions: bounded grids contain both interval endpoints with
``dx = (x_max - x_min) / (N - 1)``.  Periodic grids identify ``x_max``
with ``x_min`` and therefore exclude it, ``dx = (x_max - x_min) / N``;
all periodic derivative operators are circulant on those N nodes.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError


class Grid:
    """Uniform nodes on [x_min, x_max]; a periodic grid omits x_max."""

    def __init__(self, x_min, x_max, n_nodes, spacing, bc_kind, nodes):
        self.x_min = x_min
        self.x_max = x_max
        self.n_nodes = n_nodes
        self.spacing = spacing
        self.bc_kind = bc_kind  # "periodic" or "bounded"
        self.nodes = nodes

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @property
    def is_periodic(self) -> bool:
        return self.bc_kind == "periodic"


def make_uniform_grid(x_min, x_max, n_nodes, bc_kind="periodic") -> Grid:
    """Build a uniform grid on [x_min, x_max] with the stated boundary kind."""
    if bc_kind not in ("periodic", "bounded"):
        raise ConfigurationError(f"unknown bc_kind {bc_kind!r}")
    if not x_max > x_min:
        raise ConfigurationError(
            f"degenerate interval [{x_min}, {x_max}]: x_max must exceed x_min"
        )
    n_nodes = int(n_nodes)
    if n_nodes < 3:
        raise ConfigurationError(f"n_nodes must be at least 3, got {n_nodes}")

    if bc_kind == "periodic":
        dx = (x_max - x_min) / n_nodes
        nodes = x_min + dx * np.arange(n_nodes)
    else:
        dx = (x_max - x_min) / (n_nodes - 1)
        nodes = np.linspace(x_min, x_max, n_nodes)
    return Grid(float(x_min), float(x_max), n_nodes, float(dx), bc_kind, nodes)


class MassMatrix:
    """Diagonal quadrature weights inducing the discrete inner product."""

    def __init__(self, diagonal):
        if np.any(diagonal <= 0.0):
            raise ConfigurationError("mass matrix weights must be positive")
        self.diagonal = diagonal


def l2_norm(u, mass: MassMatrix) -> float:
    """sqrt(u^T M u) of an array u."""
    return float(np.sqrt(np.sum(u * u * mass.diagonal)))


def split_flat(y):
    """Split a flat 2N vector into its two length-N fields (views)."""
    y = np.asarray(y)
    n = y.size // 2
    return y[:n], y[n:]
