"""Finite difference summation-by-parts (SBP) operators on uniform grids.

Periodic operators are circulant and stored only as a stencil (offset /
coefficient pair); no N x N matrix is formed (``to_dense`` makes one for
tests).  Each one plans its application once, when it is built: the
centre coefficient, the (k, c_+k, c_-k) offset pairs in ascending |k|,
and the halo width h = max |k|.  ``apply`` then pads u once with a
wrap-around halo and sums paired slices,

    out = c_0 u + sum_k (c_+k up[h+k : h+k+N] + c_-k up[h-k : h-k+N]),

in O(N * width).  The pairing is part of the result, not an
implementation detail: each pair is summed before it is added to the
accumulator, so the two halves of an antisymmetric stencil cancel
elementwise and constants map to exactly 0.0.  That is what keeps the
lake at rest exactly at rest; a matrix-vector product that sums the
same terms in another order leaves roundoff-sized velocities.  Bounded
operators are dense matrices that repeat the interior stencil and
replace an antisymmetric corner block of Q = M D1, which keeps
M D1 + D1^T M = diag(-1, 0, ..., 0, 1) exact by construction.  All norm
matrices are diagonal.

``apply`` maps along the last axis.  A (m, N) stack holds m independent
rows; it is gathered once, and each row is summed over the same paired
slices in the same order as a single apply, so row i of the result has
the same bits as ``apply(u[i])``, signed zeros included.  A bounded
operator forms one matrix-vector product per row, since a matrix-matrix
product sums in another order.  The models batch the independent
derivatives of each right-hand side into such stacks.

The defining identities are

* periodic first derivative:   M D1 + D1^T M = 0
* bounded first derivative:    M D1 + D1^T M = e_R e_R^T - e_L e_L^T
* periodic upwind pair:        M D+ + D-^T M = 0,
                               S = M (D+ - D-) / 2 negative semidefinite
* periodic second derivative:  M D2 = D2^T M

and every builder verifies its identity (and, for upwind pairs, the
dissipation sign via the circulant symbol) before returning.  Periodic
identities are checked on the stencil in O(width): with M = dx I they
read c_+k + c_-k = 0 (D1), c_+k = c_-k (D2), c+_k + c-_-k = 0 (upwind
pair) and sum_k c_k = 0 (consistency).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from .errors import ConfigurationError
from .grid import Grid, MassMatrix
from .linsolve import PeriodicBand

# interior central first-derivative stencils (unit spacing, offsets -p/2..p/2)
_CENTRAL_D1 = {
    2: [-1 / 2, 0.0, 1 / 2],
    4: [1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12],
    6: [-1 / 60, 3 / 20, -3 / 4, 0.0, 3 / 4, -3 / 20, 1 / 60],
    8: [1 / 280, -4 / 105, 1 / 5, -4 / 5, 0.0, 4 / 5, -1 / 5, 4 / 105, -1 / 280],
}

# rational central stencils used for the exact bounded-closure solve
_CENTRAL_D1_RATIONAL = {
    2: [Fraction(-1, 2), Fraction(0), Fraction(1, 2)],
    4: [Fraction(1, 12), Fraction(-2, 3), Fraction(0), Fraction(2, 3),
        Fraction(-1, 12)],
    6: [Fraction(-1, 60), Fraction(3, 20), Fraction(-3, 4), Fraction(0),
        Fraction(3, 4), Fraction(-3, 20), Fraction(1, 60)],
}

# interior narrow second-derivative stencils (unit spacing)
_NARROW_D2 = {
    2: [1.0, -2.0, 1.0],
    4: [-1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12],
    6: [1 / 90, -3 / 20, 3 / 2, -49 / 18, 3 / 2, -3 / 20, 1 / 90],
    8: [-1 / 560, 8 / 315, -1 / 5, 8 / 5, -205 / 72, 8 / 5, -1 / 5, 8 / 315, -1 / 560],
}

# boundary-modified norm weights of the classical diagonal-norm operators
# (interior order p, boundary order p/2)
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

BOUNDED_ORDERS = (2, 4, 6)
PERIODIC_CENTRAL_ORDERS = (2, 4, 6, 8)
UPWIND_ORDERS = (1, 2, 3, 4)


@dataclass(frozen=True, eq=False)
class DerivativeOperator:
    """Derivative operator (periodic: a stencil; bounded: a dense matrix)
    together with the norm it satisfies SBP against."""

    kind: str
    accuracy_order: int
    grid: Grid
    mass: MassMatrix
    matrix: np.ndarray | None = None  # set for bounded operators
    offsets: np.ndarray | None = None  # set for circulant (periodic) operators
    coefficients: np.ndarray | None = None
    closure_rows: int = 0  # boundary rows with reduced order (bounded only)
    # stencil plan of a circulant operator, see _StencilPlan
    _plan: _StencilPlan | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if self.offsets is not None:
            plan = _StencilPlan(self.offsets, self.coefficients, self.grid.n_nodes)
            object.__setattr__(self, "_plan", plan)

    @property
    def n(self) -> int:
        return self.grid.n_nodes

    def apply(self, u: np.ndarray) -> np.ndarray:
        """D u, mapped along the last axis: a (m, N) stack gives m rows D u_i."""
        u = np.asarray(u)
        if self._plan is None:
            if u.ndim == 1:
                return self.matrix @ u
            # one matrix-vector product per row: a matrix-matrix product
            # would sum each row in another order
            out = np.empty(u.shape)
            for i, row in enumerate(u):
                out[i] = self.matrix @ row
            return out
        plan = self._plan
        n = plan.n
        up = u[..., plan.wrap]
        out = None if plan.centre is None else plan.centre * u
        for start_plus, c_plus, start_minus, c_minus in plan.pairs:
            if c_minus is None:
                term = c_plus * up[..., start_plus : start_plus + n]
            elif c_plus is None:
                term = c_minus * up[..., start_minus : start_minus + n]
            else:
                term = c_plus * up[..., start_plus : start_plus + n]
                term += c_minus * up[..., start_minus : start_minus + n]
            if out is None:
                # the sum starts from zeros: 0.0 + x turns a -0.0 into 0.0
                term += 0.0
                out = term
            else:
                out += term
        return np.zeros_like(u, dtype=float) if out is None else out

    def to_dense(self) -> np.ndarray:
        """The operator as an N x N matrix, for tests and reference checks."""
        return np.ascontiguousarray(self.apply(np.eye(self.n)).T)


@dataclass(frozen=True, eq=False)
class UpwindOperatorPair:
    """Biased derivative pair; M D+ + D-^T M = 0 and M (D+ - D-)/2 <= 0."""

    d_plus: DerivativeOperator
    d_minus: DerivativeOperator
    mass: MassMatrix
    accuracy_order: int
    grid: Grid

    def central_average(self) -> DerivativeOperator:
        """(D+ + D-)/2, a valid central first-derivative SBP operator."""
        if self.d_plus.offsets is None:
            mat = 0.5 * (self.d_plus.matrix + self.d_minus.matrix)
            return DerivativeOperator(
                "bounded_central_d1", self.accuracy_order, self.grid, self.mass,
                mat, closure_rows=self.d_plus.closure_rows,
            )
        off, coef = _add_stencils(
            (self.d_plus.offsets, 0.5 * self.d_plus.coefficients),
            (self.d_minus.offsets, 0.5 * self.d_minus.coefficients),
        )
        order = self.accuracy_order + (self.accuracy_order % 2)
        return DerivativeOperator(
            "periodic_central_d1", order, self.grid, self.mass,
            offsets=off, coefficients=coef,
        )


# ---------------------------------------------------------------------------
# circulant helpers


class _StencilPlan:
    """What a circulant apply needs, derived once from the stencil.

    ``centre`` is c_0 (None when zero); ``pairs`` holds, for each |k| > 0
    in ascending order, the slice starts h+k and h-k into the padded
    vector with their coefficients (None where that side is zero);
    ``wrap`` gathers u (length ``n``) into the padded vector of length
    n + 2h.  Coefficients stay NumPy float64 scalars, so products keep the
    dtype promotion of the stencil arrays.
    """

    def __init__(self, offsets, coefficients, n):
        table = {int(k): c for k, c in zip(offsets, coefficients) if c != 0.0}
        distances = sorted({abs(k) for k in table if k != 0})
        halo = distances[-1] if distances else 0
        self.n = n
        self.centre = table.get(0)
        self.pairs = tuple(
            (halo + k, table.get(k), halo - k, table.get(-k)) for k in distances
        )
        self.wrap = np.arange(-halo, n + halo) % n


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


def _symbol(offsets, coefficients, thetas):
    """Fourier symbol sum_k c_k exp(i k theta) of a circulant stencil."""
    return np.sum(
        coefficients[None, :] * np.exp(1j * np.outer(thetas, offsets)), axis=1
    )


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


def _check_upwind_symbol(off_p, coef_p, n_theta=720):
    """Verify Re(symbol of D+) <= 0, i.e. the dissipation matrix S <= 0."""
    thetas = np.linspace(0.0, 2 * np.pi, n_theta, endpoint=False)
    re = _symbol(off_p, coef_p, thetas).real
    scale = np.sum(np.abs(coef_p))
    if np.max(re) > 1e-12 * scale:
        raise ConfigurationError(
            f"upwind stencil is not dissipative (max Re symbol {np.max(re):.2e})"
        )


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
    _check_upwind_symbol(off_p, coef_p)
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


def build_periodic_d2(grid: Grid, order: int, flavor="narrow") -> DerivativeOperator:
    """Periodic second-derivative operator, symmetric against M.

    flavor "narrow" uses the classical compact stencil, "wide" squares the
    central first-derivative operator, "upwind_composite" forms D+ D-.
    """
    if flavor == "narrow":
        if order not in _NARROW_D2:
            raise ConfigurationError(f"no narrow D2 of order {order}")
        coef = np.array(_NARROW_D2[order]) / grid.spacing**2
        half = order // 2
        offsets, coef = _trim_stencil(np.arange(-half, half + 1), coef)
        kind = "periodic_d2_narrow"
    elif flavor == "wide":
        d1 = build_periodic_central_d1(grid, order)
        offsets, coef = _convolve_stencils(
            d1.offsets, d1.coefficients, d1.offsets, d1.coefficients
        )
        kind = "periodic_d2_wide"
    elif flavor == "upwind_composite":
        pair = build_periodic_upwind(grid, order)
        offsets, coef = _convolve_stencils(
            pair.d_plus.offsets, pair.d_plus.coefficients,
            pair.d_minus.offsets, pair.d_minus.coefficients,
        )
        kind = "periodic_d2_upwind_composite"
    else:
        raise ConfigurationError(f"unknown D2 flavor {flavor!r}")
    _require_periodic(grid, offsets.size)
    op = DerivativeOperator(
        kind, order, grid, _periodic_mass(grid), offsets=offsets, coefficients=coef
    )
    _assert_report(verify_sbp_identity(op))
    return op


# ---------------------------------------------------------------------------
# bounded builders


@lru_cache(maxsize=None)
def _bounded_closure(order):
    """Boundary closure of the diagonal-norm bounded operator (unit spacing).

    With the classical norm weights fixed, Q = M D1 is the interior
    antisymmetric band everywhere except an antisymmetric corner block
    (plus Q[0,0] = -1/2); the block entries follow from the boundary
    accuracy conditions D1 x^k = k x^(k-1), k <= p/2.  The corner size
    starts at the number of modified norm weights and grows until the
    linear system is consistent.

    Returns (norm_weights, corner_block) where corner_block is the
    upper-left c x c block of Q.
    """
    if order not in _BOUNDED_NORM:
        raise ConfigurationError(
            f"bounded central order must be one of {BOUNDED_ORDERS}, got {order}"
        )
    hw = _BOUNDED_NORM[order]
    r = len(hw)
    tau = order // 2
    half = order // 2
    interior = _CENTRAL_D1_RATIONAL[order]

    def stencil_value(offset):
        return interior[offset + half] if abs(offset) <= half else Fraction(0)

    for c in range(r, r + tau + half + 1):
        pairs = [(i, j) for i in range(c) for j in range(i + 1, c)]
        index = {pq: m for m, pq in enumerate(pairs)}
        h_full = list(hw) + [Fraction(1)] * (c - r)
        rows, rhs = [], []
        for i in range(c):
            for k in range(tau + 1):
                # sum_j Q[i, j] j^k = h_i * k * i^(k-1); move the fixed
                # diagonal (Q[0,0] = -1/2) and the interior-tail columns
                # j >= c to the right-hand side
                if k == 0:
                    target = Fraction(0)
                elif k == 1:
                    target = h_full[i]
                else:
                    target = h_full[i] * k * Fraction(i) ** (k - 1)
                if i == 0 and k == 0:
                    target += Fraction(1, 2)  # Q[0,0] = -1/2
                for j in range(c, i + half + 1):
                    target -= stencil_value(j - i) * Fraction(j) ** k
                row = [Fraction(0)] * len(pairs)
                for (a, b), m in index.items():
                    if a == i:
                        row[m] += Fraction(b) ** k
                    elif b == i:
                        row[m] -= Fraction(a) ** k
                rows.append(row)
                rhs.append(target)
        sol = _solve_rational(rows, rhs)
        if sol is not None:
            block = np.zeros((c, c))
            block[0, 0] = -0.5
            for (a, b), m in index.items():
                block[a, b] = float(sol[m])
                block[b, a] = -float(sol[m])
            return np.array([float(f) for f in hw]), block
    raise ConfigurationError(
        f"no consistent boundary closure found for bounded order {order}"
    )


def _solve_rational(rows, rhs):
    """Exact particular solution of a rational linear system, or None."""
    import sympy

    if not rows or not rows[0]:
        return [] if all(f == 0 for f in rhs) else None
    mat = sympy.Matrix([[sympy.Rational(f) for f in row] for row in rows])
    vec = sympy.Matrix([sympy.Rational(f) for f in rhs])
    try:
        sol, _params = mat.gauss_jordan_solve(vec)
    except ValueError:
        return None
    sol = sol.subs({p: 0 for p in sol.free_symbols})
    return [Fraction(int(v.p), int(v.q)) for v in sol]


def build_bounded_central_d1(grid: Grid, order: int) -> DerivativeOperator:
    """Diagonal-norm bounded SBP operator: interior order p, boundary order p/2."""
    if grid.is_periodic:
        raise ConfigurationError("bounded operator requires a bounded grid")
    hw, block = _bounded_closure(order)
    c = block.shape[0]
    n = grid.n_nodes
    if n < 2 * c + 1:
        raise ConfigurationError(
            f"grid with {n} nodes below closure size {2 * c + 1} for order {order}"
        )
    half = order // 2
    interior = np.array(_CENTRAL_D1[order])

    q = np.zeros((n, n))
    for k in range(-half, half + 1):
        val = interior[k + half]
        if val != 0.0:
            idx = np.arange(max(0, -k), min(n, n - k))
            q[idx, idx + k] = val
    q[:c, :c] = block
    q[n - c:, n - c:] = -block[::-1, ::-1]

    weights = np.ones(n)
    weights[: hw.size] = hw
    weights[n - hw.size:] = hw[::-1]
    mass = MassMatrix(weights * grid.spacing)
    mat = q / weights[:, None] / grid.spacing
    op = DerivativeOperator(
        "bounded_central_d1", order, grid, mass, mat, closure_rows=c
    )
    _assert_report(verify_sbp_identity(op))
    return op


def build_bounded_upwind(grid: Grid, order: int) -> UpwindOperatorPair:
    """Bounded upwind pair D+/- = D1 -/+ M^-1 S with S = -c Delta^T Delta.

    Delta is the p-th undivided difference, so S is symmetric negative
    semidefinite and annihilates polynomials below degree p; the pair
    satisfies M D+ + D-^T M = e_R e_R^T - e_L e_L^T exactly.
    """
    central = build_bounded_central_d1(grid, order)
    n = grid.n_nodes
    diff = np.zeros((n - order, n))
    binom = np.array([(-1) ** j * comb(order, j) for j in range(order + 1)])
    for i in range(n - order):
        diff[i, i : i + order + 1] = binom
    strength = 4.0 ** (-order) / grid.spacing
    s = -strength * (diff.T @ diff)
    minv = 1.0 / central.mass.diagonal
    dp = DerivativeOperator(
        "bounded_upwind_d1_plus", order, grid, central.mass,
        central.matrix + minv[:, None] * s, closure_rows=central.closure_rows,
    )
    dm = DerivativeOperator(
        "bounded_upwind_d1_minus", order, grid, central.mass,
        central.matrix - minv[:, None] * s, closure_rows=central.closure_rows,
    )
    pair = UpwindOperatorPair(dp, dm, central.mass, order, grid)
    _assert_report(verify_sbp_identity(pair))
    return pair


# ---------------------------------------------------------------------------
# identity verification


@dataclass(frozen=True)
class IdentityReport:
    kind: str
    residuals: dict
    threshold: float
    passed: bool


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


def _bounded_adjoint_residual(m, left, right):
    """max |M L + R^T M - diag(-1, 0, ..., 0, 1)| by row and column scaling."""
    res = m[:, None] * left + right.T * m
    res[-1, -1] -= 1.0
    res[0, 0] += 1.0
    return float(np.max(np.abs(res)))


def _row_sum_and_consistency(op):
    """(max row sum of |D|, max |D 1|), from the stencil where there is one."""
    if op.offsets is not None:
        return np.sum(np.abs(op.coefficients)), abs(float(np.sum(op.coefficients)))
    d = op.matrix
    return np.max(np.sum(np.abs(d), axis=1)), float(np.max(np.abs(d @ np.ones(op.n))))


def verify_sbp_identity(op) -> IdentityReport:
    """Residuals of the defining SBP identities, with a PASS flag.

    The threshold is 1e-12 * scale with scale = max|M| * max-row-sum|D|.
    Periodic operators are checked on their stencils in O(width) (their
    norm is dx I), bounded ones on their matrices in O(N^2).
    """
    m = op.mass.diagonal
    if isinstance(op, UpwindOperatorPair):
        kind, dp, dm = "upwind_pair", op.d_plus, op.d_minus
        row_sum, consistency_plus = _row_sum_and_consistency(dp)
        residuals = {
            "adjoint": _adjoint_residual(m[0], dp, dm, 1.0) if dp.offsets is not None
            else _bounded_adjoint_residual(m, dp.matrix, dm.matrix),
            "consistency_plus": consistency_plus,
            "consistency_minus": _row_sum_and_consistency(dm)[1],
        }
        if dp.offsets is not None:
            thetas = np.linspace(0, 2 * np.pi, 720, endpoint=False)
            sym = _symbol(dp.offsets, dp.coefficients, thetas).real
            # S eigenvalues are dx * Re(symbol of D+); must be <= 0
            residuals["dissipation"] = float(max(np.max(sym) * np.max(m), 0.0))
    else:
        kind, residuals = op.kind, {}
        row_sum, consistency = _row_sum_and_consistency(op)
        if kind == "periodic_central_d1":
            residuals["periodic_sbp"] = _adjoint_residual(m[0], op, op, 1.0)
        elif kind == "bounded_central_d1":
            residuals["bounded_sbp"] = _bounded_adjoint_residual(m, op.matrix, op.matrix)
        elif kind.startswith("periodic_d2"):
            residuals["symmetry"] = _adjoint_residual(m[0], op, op, -1.0)
        elif not kind.startswith("bounded_upwind"):  # those: see the pair report
            raise ConfigurationError(f"cannot verify operator kind {kind!r}")
        residuals["consistency"] = consistency
        if kind.startswith("periodic_d2"):
            moments = _stencil_moments(op.offsets, op.coefficients, 1)
            residuals["annihilates_linears"] = float(abs(moments[1]))
    threshold = 1e-12 * (np.max(m) * max(row_sum, 1.0))
    passed = all(v <= threshold for v in residuals.values())
    return IdentityReport(kind, residuals, threshold, passed)


# ---------------------------------------------------------------------------
# operator bundles


@dataclass(frozen=True, eq=False)
class SbpOperatorSet:
    """Operators sharing one grid and norm, as required by a model variant."""

    grid: Grid
    accuracy_order: int
    mass: MassMatrix
    d1: DerivativeOperator | None = None
    d2: DerivativeOperator | None = None
    upwind: UpwindOperatorPair | None = None

    def require(self, *names):
        for name in names:
            if getattr(self, name) is None:
                raise ConfigurationError(
                    f"operator set lacks {name!r} required by the chosen variant"
                )


def periodic_operators(grid, order, *, upwind=False, d2_flavor="narrow"):
    """Convenience bundle for periodic semidiscretizations.

    With upwind=True the central first derivative is the pair average and
    the second derivative the upwind composite, so all stencils stay narrow.
    """
    if upwind:
        pair = build_periodic_upwind(grid, order)
        d1 = pair.central_average()
        d2 = build_periodic_d2(grid, order, "upwind_composite")
        return SbpOperatorSet(grid, order, pair.mass, d1=d1, d2=d2, upwind=pair)
    d1 = build_periodic_central_d1(grid, order)
    d2 = build_periodic_d2(grid, order, d2_flavor) if d2_flavor else None
    return SbpOperatorSet(grid, order, d1.mass, d1=d1, d2=d2)


def bounded_operators(grid, order, *, upwind=False):
    d1 = build_bounded_central_d1(grid, order)
    pair = build_bounded_upwind(grid, order) if upwind else None
    return SbpOperatorSet(grid, order, d1.mass, d1=d1, upwind=pair)
