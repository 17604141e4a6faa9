"""Finite difference summation-by-parts (SBP) operators on uniform grids.

Every operator is stored as its interior stencil (offset / coefficient
pair); a bounded one adds its boundary closure rows.  No N x N matrix is
formed.  Each operator plans its application once, when it is built:
one term per offset pair +/-k, in ascending |k|.  ``apply`` pads u once
to length N + 2h, h = max |k|, by a ``take`` gather along the last
axis, and sums the terms in difference form, with up_k = up[h+k : h+k+N]:

    antisymmetric pair (c_-k = -c_k):  c_k (up_k - up_-k)
    symmetric pair (c_-k = c_k):       c_k ((up_k - u) + (up_-k - u))
    any other pair:                    c_k (up_k - u) + c_-k (up_-k - u)

(a lone offset keeps its one half of the last form), each term summed
before it is added to the accumulator.  c_0 is never multiplied: it
enters as minus the sum of the other coefficients, equal to the stored
one up to roundoff.  So every stencil maps constants to exactly 0.0,
which keeps the lake at rest exactly at rest for every variant; a
matrix-vector product that sums the same entries in another order leaves
roundoff-sized velocities.  Summing each pair first also keeps
D- = -D+^T exact on the diagonal of the dense form.

A periodic operator pads by the wrap-around gather.  A bounded one pads
by repeating its end values and then overwrites its first and last c
rows, the only ones the padding reaches (c >= h), with its closure rows:
dense c x w blocks, w = c + h, applied as sum_j L_ij (u_j - u_i), so
that constants map to exactly 0.0 there too.

The bounded central operators are the classical diagonal-norm ones
(Strand 1994): Q = M D1 repeats the interior stencil and replaces an
antisymmetric corner block (Q[0,0] = -1/2), which keeps
M D1 + D1^T M = diag(-1, 0, ..., 0, 1) exact by construction.  Their
norm weights and corner blocks are tabulated below as fractions;
``tests/oracles.py`` re-derives them from the boundary accuracy
conditions.  All norm matrices are diagonal.

``apply`` maps along the last axis.  A (m, N) stack holds m independent
rows; it is padded once, and each row is summed over the same slices
(and closure products) in the same order as a single apply, so
row i of the result has the same bits as ``apply(u[i])``, signed zeros
included.  The models batch the independent derivatives of each
right-hand side into such stacks.

The defining identities are

* periodic first derivative:   M D1 + D1^T M = 0
* bounded first derivative:    M D1 + D1^T M = e_R e_R^T - e_L e_L^T
* upwind pair:                 M D+ + D-^T M = 0 (periodic) or
                               e_R e_R^T - e_L e_L^T (bounded),
                               S = M (D+ - D-) / 2 negative semidefinite
* periodic second derivative:  M D2 = D2^T M

and every builder verifies its identity (and, for periodic upwind pairs,
the dissipation sign via the circulant symbol) before returning, in
O(width^2).  With M = dx I away from the boundary, the identities read
c_+k + c_-k = 0 (D1), c_+k = c_-k (D2), c+_k + c-_-k = 0 (upwind pair)
and sum_k c_k = 0 (consistency) on the stencils; a bounded operator is
checked, in addition, on its two dense w x w corner blocks.

The bundles build and verify each operator once: the periodic upwind
bundle takes D1 and the composite D2 = D+ D- from its one pair, and the
bounded upwind pair extends the bundle's one bounded central D1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from .errors import ConfigurationError
from .grid import Grid, MassMatrix
from .linsolve import Band, PeriodicBand

# interior central first-derivative stencils (unit spacing, offsets -p/2..p/2)
_CENTRAL_D1 = {
    2: [-1 / 2, 0.0, 1 / 2],
    4: [1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12],
    6: [-1 / 60, 3 / 20, -3 / 4, 0.0, 3 / 4, -3 / 20, 1 / 60],
    8: [1 / 280, -4 / 105, 1 / 5, -4 / 5, 0.0, 4 / 5, -1 / 5, 4 / 105, -1 / 280],
}

# interior narrow second-derivative stencils (unit spacing)
_NARROW_D2 = {
    2: [1.0, -2.0, 1.0],
    4: [-1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12],
    6: [1 / 90, -3 / 20, 3 / 2, -49 / 18, 3 / 2, -3 / 20, 1 / 90],
    8: [-1 / 560, 8 / 315, -1 / 5, 8 / 5, -205 / 72, 8 / 5, -1 / 5, 8 / 315, -1 / 560],
}

# closures of the classical diagonal-norm bounded operators (interior order
# p, boundary order p/2), unit spacing: the boundary-modified norm weights,
# and the strictly upper entries (i, j) of the antisymmetric c x c corner
# block of Q = M D1, c = the number of weights, Q[0, 0] = -1/2
_BOUNDED_NORM = {
    2: [Fraction(1, 2)],
    4: [Fraction(17, 48), Fraction(59, 48), Fraction(43, 48), Fraction(49, 48)],
    6: [
        Fraction(13649, 43200),
        Fraction(12013, 8640),
        Fraction(2711, 4320),
        Fraction(5359, 4320),
        Fraction(7877, 8640),
        Fraction(43801, 43200),
    ],
}
_BOUNDED_CORNER = {
    2: {},
    4: {
        (0, 1): Fraction(59, 96), (0, 2): Fraction(-1, 12), (0, 3): Fraction(-1, 32),
        (1, 2): Fraction(59, 96), (2, 3): Fraction(59, 96),
    },
    6: {
        (0, 1): Fraction(-953, 16200), (0, 2): Fraction(715489, 259200),
        (0, 3): Fraction(-62639, 14400), (0, 4): Fraction(147127, 51840),
        (0, 5): Fraction(-89387, 129600), (1, 2): Fraction(-57139, 8640),
        (1, 3): Fraction(745733, 51840), (1, 4): Fraction(-18343, 1728),
        (1, 5): Fraction(240569, 86400), (2, 3): Fraction(-176839, 12960),
        (2, 4): Fraction(242111, 17280), (2, 5): Fraction(-182261, 43200),
        (3, 4): Fraction(-165041, 25920), (3, 5): Fraction(710473, 259200),
    },
}

BOUNDED_ORDERS = (2, 4, 6)
PERIODIC_CENTRAL_ORDERS = (2, 4, 6, 8)
UPWIND_ORDERS = (1, 2, 3, 4)


class DerivativeOperator:
    """Derivative operator (interior stencil, plus closure rows when bounded)
    together with the norm it satisfies SBP against."""

    def __init__(self, kind, accuracy_order, grid, mass, offsets, coefficients,
                 closure=None):
        self.kind = kind
        self.accuracy_order = accuracy_order
        self.grid = grid
        self.mass = mass
        self.offsets = offsets
        self.coefficients = coefficients
        # bounded only: (left, right), the dense first and last c rows over the
        # first and last w columns, w = c + halo
        self.closure = closure
        self._plan = _StencilPlan(offsets, coefficients, grid.n_nodes, closure is None)

    @property
    def n(self) -> int:
        return self.grid.n_nodes

    def apply(self, u: np.ndarray) -> np.ndarray:
        """D u, mapped along the last axis: a (m, N) stack gives m rows D u_i.

        Every product is elementwise and u is read as C-contiguous float64
        (copied if need be, as closure sums follow the layout), so row i of
        a stack of any layout and dtype has the bits of ``apply(u[i])``; a
        matrix product would sum a stack in another order than a row.
        """
        u = np.ascontiguousarray(u, dtype=float)
        up = u.take(self._plan.gather, axis=-1)
        out = None
        for form, c, first, c_second, second in self._plan.terms:
            term = up[..., first] - (up[..., second] if form == "antisymmetric" else u)
            if form == "symmetric":
                term += up[..., second] - u
            term *= c
            if c_second is not None:
                term += c_second * (up[..., second] - u)
            if out is None:
                out = term
            else:
                out += term
        if out is None:
            return np.zeros(u.shape)
        if self.closure is not None:
            n = self.n
            left, right = self.closure
            c, width = left.shape
            out[..., :c] = ((u[..., None, :width] - u[..., :c, None]) * left).sum(axis=-1)
            out[..., n - c :] = (
                (u[..., None, n - width :] - u[..., n - c :, None]) * right
            ).sum(axis=-1)
        return out


class UpwindOperatorPair:
    """Biased derivative pair; M D+ + D-^T M = 0 (periodic) or
    e_R e_R^T - e_L e_L^T (bounded), and M (D+ - D-)/2 <= 0."""

    def __init__(self, d_plus, d_minus, mass, accuracy_order, grid):
        self.d_plus = d_plus
        self.d_minus = d_minus
        self.mass = mass
        self.accuracy_order = accuracy_order
        self.grid = grid

    def central_average(self) -> DerivativeOperator:
        """(D+ + D-)/2 of a periodic pair, a central first-derivative SBP operator."""
        off, coef = _add_stencils(
            (self.d_plus.offsets, 0.5 * self.d_plus.coefficients),
            (self.d_minus.offsets, 0.5 * self.d_minus.coefficients),
        )
        order = self.accuracy_order + (self.accuracy_order % 2)
        return DerivativeOperator(
            "periodic_central_d1", order, self.grid, self.mass,
            offsets=off, coefficients=coef,
        )

    def second_derivative(self) -> DerivativeOperator:
        """D+ D- of a periodic pair, a second-derivative operator symmetric
        against M; refused on a grid no wider than its stencil."""
        offsets, coef = _convolve_stencils(
            self.d_plus.offsets, self.d_plus.coefficients,
            self.d_minus.offsets, self.d_minus.coefficients,
        )
        _require_periodic(self.grid, offsets.size)
        op = DerivativeOperator("periodic_d2_upwind_composite", self.accuracy_order,
                                self.grid, self.mass, offsets=offsets, coefficients=coef)
        _assert_report(verify_sbp_identity(op))
        return op


# ---------------------------------------------------------------------------
# stencil helpers


class _StencilPlan:
    """What a stencil apply needs, derived once from the stencil.

    ``gather`` maps u (length n) to the padded vector of length n + 2h:
    wrap-around for a periodic operator, end values repeated for a bounded
    one.  ``terms`` holds, for each |k| > 0 in ascending order,
    (form, c, first, c_second, second): the form of the pair (see the
    module docstring), the slices at +k and -k into the padded vector and
    their coefficients, c_second set only for a "pair" of two unrelated
    ones.  A lone offset is a "pair" with its one side first.
    """

    def __init__(self, offsets, coefficients, n, periodic):
        table = {int(k): c for k, c in zip(offsets, coefficients) if k != 0 and c != 0.0}
        distances = sorted({abs(k) for k in table})
        halo = distances[-1] if distances else 0
        padded = np.arange(-halo, n + halo)
        self.gather = padded % n if periodic else np.clip(padded, 0, n - 1)
        self.terms = []
        for k in distances:
            (c, first), *other = [(table[j], slice(halo + j, halo + j + n))
                                  for j in (k, -k) if j in table]
            c_second, second = other[0] if other else (None, None)
            if c_second == -c:
                self.terms.append(("antisymmetric", c, first, None, second))
            elif c_second == c:
                self.terms.append(("symmetric", c, first, None, second))
            else:
                self.terms.append(("pair", c, first, c_second, second))


def _trim_stencil(offsets, coefficients):
    keep = np.abs(coefficients) > 0.0
    if not np.any(keep):
        return np.array([0]), np.array([0.0])
    return offsets[keep], coefficients[keep]


def _add_stencils(*stencils):
    lo = min(int(off.min()) for off, _ in stencils)
    hi = max(int(off.max()) for off, _ in stencils)
    acc = np.zeros(hi - lo + 1)
    for off, coef in stencils:
        for k, c in zip(off, coef):
            acc[int(k) - lo] += c
    offsets = np.arange(lo, hi + 1)
    return _trim_stencil(offsets, acc)


def _convolve_stencils(off1, coef1, off2, coef2):
    """Stencil of the product of two circulant operators."""
    lo = int(off1.min() + off2.min())
    hi = int(off1.max() + off2.max())
    acc = np.zeros(hi - lo + 1)
    for ka, ca in zip(off1, coef1):
        for kb, cb in zip(off2, coef2):
            acc[int(ka + kb) - lo] += ca * cb
    return _trim_stencil(np.arange(lo, hi + 1), acc)


def periodic_band(left, right=None, *, inner=None) -> PeriodicBand:
    """Upper offset diagonals of the symmetric L diag(inner) R, L, R circulant.

    Only offsets k >= 0 are assembled.  The SBP property (M = dx I) makes
    every product the models form symmetric: D1 K D1 = -D1^T K D1,
    D- K D+ = -D+^T K D+, D+ beta D- = -D+ beta D+^T, D1 D1, D+ D- and D2.
    Assembled in O(N * width^2): entry (i, i+a+b) gains (l_a inner_(i+a))
    r_b.  ``right`` defaults to the identity, ``inner`` to ones.
    """
    n = left.n
    idx = np.arange(n)
    inner = np.ones(n) if inner is None else inner
    r_offsets, r_coefficients = ((0,), (1.0,)) if right is None else (
        right.offsets, right.coefficients)
    terms = [
        (int(a + b), cb, ca * inner[(idx + a) % n])
        for a, ca in zip(left.offsets, left.coefficients)
        for b, cb in zip(r_offsets, r_coefficients)
        if a + b >= 0
    ]
    diagonals = np.zeros((max(k for k, _, _ in terms) + 1, n))
    for k, c, row in terms:
        diagonals[k] += row * c
    return PeriodicBand(diagonals)


def bounded_band(op, inner) -> Band:
    """Upper offset diagonals of the symmetric D^T diag(inner) D, D bounded.

    Row i of D adds inner_i D[i, a] D[i, b] to entry (a, b): a stencil row
    adds c_a inner_i c_b at offset b - a, a closure row a dense corner
    block.  The reflecting systems of both models are of this form plus a
    diagonal.  Assembled in O(N * width^2).
    """
    n = op.n
    left, right = op.closure
    c, width = left.shape
    stencil = list(zip(op.offsets.tolist(), op.coefficients))
    diagonals = np.zeros((max(int(np.ptp(op.offsets)), width - 1) + 1, n))
    for a, ca in stencil:
        for b, cb in stencil:
            if b >= a:
                diagonals[b - a, c + a : n - c + a] += ca * inner[c : n - c] * cb
    for rows, weights, start in ((left, inner[:c], 0), (right, inner[n - c:], n - width)):
        block = rows.T @ (weights[:, None] * rows)
        for k in range(width):
            diagonals[k, start : start + width - k] += np.diagonal(block, k)
    return Band(diagonals)


def _stencil_moments(offsets, coefficients, up_to):
    return [float(np.sum(coefficients * np.asarray(offsets, float) ** m))
            for m in range(up_to + 1)]


# ---------------------------------------------------------------------------
# interior stencil construction


@lru_cache(maxsize=None)
def _biased_stencil(order):
    """Minimal-width biased first-derivative stencil of the given order.

    Offsets run from -floor((p-1)/2) to p - floor((p-1)/2); the p+1 order
    conditions determine the coefficients uniquely (unit spacing).
    """
    lo = -((order - 1) // 2)
    offsets = np.arange(lo, lo + order + 1)
    vander = np.vander(offsets.astype(float), increasing=True).T  # row m: k^m
    rhs = np.zeros(order + 1)
    rhs[1] = 1.0
    coef = np.linalg.solve(vander, rhs)
    moments = _stencil_moments(offsets, coef, order)
    target = [1.0 if m == 1 else 0.0 for m in range(order + 1)]
    if max(abs(a - b) for a, b in zip(moments, target)) > 1e-12:
        raise ConfigurationError(f"biased stencil order conditions failed, p={order}")
    return offsets, coef


# ---------------------------------------------------------------------------
# periodic builders


def _require_periodic(grid, width):
    if not grid.is_periodic:
        raise ConfigurationError("operator requires a periodic grid")
    if grid.n_nodes <= width:
        raise ConfigurationError(
            f"grid with {grid.n_nodes} nodes too small for stencil width {width}"
        )


def _periodic_mass(grid):
    return MassMatrix(np.full(grid.n_nodes, grid.spacing))


def build_periodic_central_d1(grid: Grid, order: int) -> DerivativeOperator:
    """Central circulant first-derivative operator, M = dx * I."""
    if order not in _CENTRAL_D1:
        raise ConfigurationError(
            f"periodic central order must be one of {PERIODIC_CENTRAL_ORDERS}, got {order}"
        )
    coef = np.array(_CENTRAL_D1[order]) / grid.spacing
    half = order // 2
    offsets = np.arange(-half, half + 1)
    _require_periodic(grid, offsets.size)
    offsets, coef = _trim_stencil(offsets, coef)
    op = DerivativeOperator(
        "periodic_central_d1", order, grid, _periodic_mass(grid),
        offsets=offsets, coefficients=coef,
    )
    _assert_report(verify_sbp_identity(op))
    return op


def build_periodic_upwind(grid: Grid, order: int) -> UpwindOperatorPair:
    """Biased pair D+/D- with D- = -D+^T (circulant reversal), M = dx * I."""
    if order not in UPWIND_ORDERS:
        raise ConfigurationError(
            f"upwind order must be one of {UPWIND_ORDERS}, got {order}"
        )
    off_p, coef_p = _biased_stencil(order)
    coef_p = coef_p / grid.spacing
    _require_periodic(grid, off_p.size + 1)
    off_m, coef_m = -off_p[::-1], -coef_p[::-1]  # -D+^T as a stencil
    mass = _periodic_mass(grid)
    dp = DerivativeOperator(
        "periodic_upwind_d1_plus", order, grid, mass,
        offsets=off_p, coefficients=coef_p,
    )
    dm = DerivativeOperator(
        "periodic_upwind_d1_minus", order, grid, mass,
        offsets=off_m, coefficients=coef_m,
    )
    pair = UpwindOperatorPair(dp, dm, mass, order, grid)
    _assert_report(verify_sbp_identity(pair))
    return pair


def build_periodic_d2(grid: Grid, order: int) -> DerivativeOperator:
    """Periodic narrow second-derivative operator, symmetric against M."""
    if order not in _NARROW_D2:
        raise ConfigurationError(f"no narrow D2 of order {order}")
    coef = np.array(_NARROW_D2[order]) / grid.spacing**2
    half = order // 2
    offsets, coef = _trim_stencil(np.arange(-half, half + 1), coef)
    _require_periodic(grid, offsets.size)
    op = DerivativeOperator("periodic_d2_narrow", order, grid, _periodic_mass(grid),
                            offsets=offsets, coefficients=coef)
    _assert_report(verify_sbp_identity(op))
    return op


# ---------------------------------------------------------------------------
# bounded builders


def _require_bounded(grid, width):
    if grid.is_periodic:
        raise ConfigurationError("bounded operator requires a bounded grid")
    if grid.n_nodes < 2 * width:
        raise ConfigurationError(
            f"grid with {grid.n_nodes} nodes below twice the closure width {width}"
        )


def _corner(offsets, coefficients, closure_rows, size):
    """Upper-left size x size block of a bounded operator: its closure rows,
    then stencil rows."""
    c, width = closure_rows.shape
    block = np.zeros((size, size))
    block[:c, :width] = closure_rows
    for i in range(c, size):
        for k, coef in zip(offsets.tolist(), coefficients):
            if 0 <= i + k < size:
                block[i, i + k] = coef
    return block


def build_bounded_central_d1(grid: Grid, order: int) -> DerivativeOperator:
    """Diagonal-norm bounded SBP operator: interior order p, boundary order p/2."""
    if order not in _BOUNDED_NORM:
        raise ConfigurationError(
            f"bounded central order must be one of {BOUNDED_ORDERS}, got {order}"
        )
    hw = np.array([float(f) for f in _BOUNDED_NORM[order]])
    c, half = hw.size, order // 2
    _require_bounded(grid, c + half)
    n = grid.n_nodes
    interior = np.array(_CENTRAL_D1[order])
    offsets = np.arange(-half, half + 1)
    # the first c rows of Q: the corner block, then the interior stencil tails
    q = _corner(offsets, interior, np.zeros((0, 0)), c + half)[:c]
    q[:, :c] = 0.0
    q[0, 0] = -0.5
    for (i, j), f in _BOUNDED_CORNER[order].items():
        q[i, j], q[j, i] = float(f), -float(f)
    left = q / hw[:, None] / grid.spacing
    weights = np.ones(n)
    weights[:c] = hw
    weights[n - c:] = hw[::-1]
    offsets, coef = _trim_stencil(offsets, interior / grid.spacing)
    op = DerivativeOperator(
        "bounded_central_d1", order, grid, MassMatrix(weights * grid.spacing),
        offsets=offsets, coefficients=coef, closure=(left, -left[::-1, ::-1]),
    )
    _assert_report(verify_sbp_identity(op))
    return op


def build_bounded_upwind(central: DerivativeOperator) -> UpwindOperatorPair:
    """Bounded upwind pair D+/- = D1 -/+ M^-1 S with S = -4^-p Delta^T Delta,
    D1 the bounded central operator ``central`` of order p.

    Delta is the p-th undivided difference, so S is symmetric negative
    semidefinite and annihilates polynomials below degree p; the pair
    satisfies M D+ + D-^T M = e_R e_R^T - e_L e_L^T exactly.  S carries
    no 1/dx: like Q = M D1 it is O(1), so M^-1 S and D+/- scale like D1,
    as the periodic biased stencils and the upwind SBP operators of
    Mattsson (2017) do; with a 1/dx in S, D+/- would grow like 1/dx^2.
    Delta^T Delta is the stencil (-1)^k C(2p, p+k), |k| <= p, except in
    its first and last p rows, so the pair has max(c, p) closure rows
    over max(c, p) + p columns; the right ones mirror the left ones of the
    partner, D+[N-1-i, N-1-j] = -D-[i, j].
    """
    grid, order = central.grid, central.accuracy_order
    rows = max(central.closure[0].shape[0], order)
    width = rows + order
    _require_bounded(grid, width)
    strength = 4.0 ** (-order)
    binom = np.array([(-1) ** j * comb(order, j) for j in range(order + 1)], float)
    diff = np.zeros((rows, width))
    for i in range(rows):
        diff[i, i : i + order + 1] = binom
    s_left = -strength * (diff.T @ diff)[:rows]
    s_stencil = -strength * np.convolve(binom, binom[::-1])
    offsets = np.arange(-order, order + 1)
    d1_left = _corner(central.offsets, central.coefficients, central.closure[0],
                      width)[:rows]
    d1_stencil = np.zeros(2 * order + 1)
    d1_stencil[central.offsets + order] = central.coefficients
    minv = 1.0 / central.mass.diagonal
    plus_left = d1_left + minv[:rows, None] * s_left
    minus_left = d1_left - minv[:rows, None] * s_left
    plus_coef = d1_stencil + (1.0 / grid.spacing) * s_stencil
    minus_coef = d1_stencil - (1.0 / grid.spacing) * s_stencil
    dp = DerivativeOperator(
        "bounded_upwind_d1_plus", order, grid, central.mass,
        *_trim_stencil(offsets, plus_coef),
        closure=(plus_left, -minus_left[::-1, ::-1]),
    )
    dm = DerivativeOperator(
        "bounded_upwind_d1_minus", order, grid, central.mass,
        *_trim_stencil(offsets, minus_coef),
        closure=(minus_left, -plus_left[::-1, ::-1]),
    )
    pair = UpwindOperatorPair(dp, dm, central.mass, order, grid)
    _assert_report(verify_sbp_identity(pair))
    return pair


# ---------------------------------------------------------------------------
# identity verification


class IdentityReport:
    """Residuals of one operator's SBP identities against its threshold."""

    def __init__(self, kind, residuals, threshold, passed):
        self.kind = kind
        self.residuals = residuals
        self.threshold = threshold
        self.passed = passed


def _assert_report(report: IdentityReport):
    if not report.passed:
        raise ConfigurationError(
            f"SBP identity violated for {report.kind}: {report.residuals}"
        )


def _adjoint_residual(h, left, right, sign):
    """max_k |h l_k + sign (r_-k h)|: entries of M L + sign R^T M, M = h I."""
    lt = dict(zip(left.offsets.tolist(), left.coefficients))
    rt = dict(zip(right.offsets.tolist(), right.coefficients))
    keys = set(lt) | {-k for k in rt}
    return float(max(
        abs(h * lt.get(k, 0.0) + sign * (rt.get(-k, 0.0) * h)) for k in keys
    ))


def _closure_adjoint_residual(left, right):
    """max |M L + R^T M - diag(-1, 0, ..., 0, 1)| of two bounded operators.

    Entries between stencil rows are those of the stencil check; every
    entry that involves a closure row lies in one of the two w x w corner
    blocks, which are formed densely.  The bottom-right block, reversed in
    rows and columns, is the top-left block of the reflected operator:
    closure rows reversed, stencil offsets negated.
    """
    m = left.mass.diagonal
    size = left.closure[0].shape[1]
    residual = _adjoint_residual(m[size], left, right, 1.0)
    for side, step, boundary in ((0, 1, 1.0), (1, -1, -1.0)):
        weights = m[::step][:size]
        corner_left, corner_right = (
            _corner(step * op.offsets, op.coefficients,
                    op.closure[side][::step, ::step], size)
            for op in (left, right)
        )
        res = weights[:, None] * corner_left + corner_right.T * weights
        res[0, 0] += boundary
        residual = max(residual, float(np.max(np.abs(res))))
    return residual


def _row_sum_and_consistency(op):
    """(max row sum of |D|, max |M D 1|), from the stencil and closure rows;
    a stencil row has the interior weight, a closure row its own."""
    m = op.mass.diagonal
    row_sum = np.sum(np.abs(op.coefficients))
    consistency = m[op.n // 2] * abs(float(np.sum(op.coefficients)))
    if op.closure is not None:
        rows = np.vstack(op.closure)
        c = op.closure[0].shape[0]
        weights = np.concatenate([m[:c], m[op.n - c:]])
        row_sum = max(row_sum, np.max(np.sum(np.abs(rows), axis=1)))
        consistency = max(consistency, float(np.max(weights * np.abs(np.sum(rows, axis=1)))))
    return row_sum, consistency


def verify_sbp_identity(op) -> IdentityReport:
    """Residuals of the defining SBP identities, with a PASS flag.

    The threshold is 1e-12 * scale with scale = max|M| * max-row-sum|D|.
    Every residual carries M, as the adjoint ones do: consistency is
    max |M D 1| and the D2 moment sum_k k c_k is weighted by dx, so their
    roundoff does not grow with N against the threshold.  Periodic
    operators are checked on their stencils in O(width) (their norm is
    dx I), bounded ones on their stencils and corner blocks in O(width^2).
    """
    m = op.mass.diagonal
    if isinstance(op, UpwindOperatorPair):
        kind, dp, dm = "upwind_pair", op.d_plus, op.d_minus
        row_sum, consistency_plus = _row_sum_and_consistency(dp)
        residuals = {
            "adjoint": _adjoint_residual(m[0], dp, dm, 1.0) if dp.closure is None
            else _closure_adjoint_residual(dp, dm),
            "consistency_plus": consistency_plus,
            "consistency_minus": _row_sum_and_consistency(dm)[1],
        }
        if dp.closure is None:
            # S eigenvalues are dx * Re(sum_k c_k exp(i k theta)), the symbol
            # of D+ on 720 angles; must be <= 0
            thetas = np.linspace(0, 2 * np.pi, 720, endpoint=False)
            sym = np.sum(dp.coefficients * np.exp(1j * np.outer(thetas, dp.offsets)),
                         axis=1).real
            residuals["dissipation"] = float(max(np.max(sym) * np.max(m), 0.0))
    else:
        kind, residuals = op.kind, {}
        row_sum, consistency = _row_sum_and_consistency(op)
        if kind == "periodic_central_d1":
            residuals["periodic_sbp"] = _adjoint_residual(m[0], op, op, 1.0)
        elif kind == "bounded_central_d1":
            residuals["bounded_sbp"] = _closure_adjoint_residual(op, op)
        elif kind.startswith("periodic_d2"):
            residuals["symmetry"] = _adjoint_residual(m[0], op, op, -1.0)
        elif not kind.startswith("bounded_upwind"):  # those: see the pair report
            raise ConfigurationError(f"cannot verify operator kind {kind!r}")
        residuals["consistency"] = consistency
        if kind.startswith("periodic_d2"):
            moments = _stencil_moments(op.offsets, op.coefficients, 1)
            residuals["annihilates_linears"] = float(m[0] * abs(moments[1]))
    threshold = 1e-12 * (np.max(m) * max(row_sum, 1.0))
    passed = all(v <= threshold for v in residuals.values())
    return IdentityReport(kind, residuals, threshold, passed)


# ---------------------------------------------------------------------------
# operator bundles


class SbpOperatorSet:
    """Operators sharing one grid and norm, as required by a model variant."""

    def __init__(self, mass, d1, d2=None, upwind=None):
        self.mass = mass
        self.d1 = d1
        self.d2 = d2
        self.upwind = upwind


def periodic_operators(grid, order, *, upwind=False):
    """Bundle for periodic semidiscretizations: D1 and D2, plus the pair.
    With upwind=True, D1 is the pair average and D2 = D+ D-, so all
    stencils stay narrow."""
    if upwind:
        pair = build_periodic_upwind(grid, order)
        return SbpOperatorSet(pair.mass, pair.central_average(),
                              pair.second_derivative(), pair)
    d1 = build_periodic_central_d1(grid, order)
    return SbpOperatorSet(d1.mass, d1, build_periodic_d2(grid, order))


def bounded_operators(grid, order, *, upwind=False):
    """Bundle for reflecting semidiscretizations: D1, plus the pair built on it."""
    d1 = build_bounded_central_d1(grid, order)
    return SbpOperatorSet(d1.mass, d1, upwind=build_bounded_upwind(d1) if upwind else None)
