"""Reusable factorizations for the elliptic systems of both models.

Periodic systems are symmetric positive definite (SPD) by the SBP
property (see ``sbp.periodic_band``): BBM-BBM's I - L K R / 6 and its
K-scaled diag(1/K) - S / 6 (see ``bbm_bbm``), and the Svärd-Kalisch
diag(h) - D beta D.  They arrive as a ``PeriodicBand`` of upper offset
diagonals, so the storage itself states the symmetry, and take one
banded Cholesky, LAPACK's pbtrf/pbtrs.  The fold permutation 0, N-1, 1,
N-2, ... places the wrap-around neighbours of every node within 2w
folded positions, so a periodic band of half-width w factors as an
ordinary band of half-width 2w in O(N w^2); no N x N array is formed.
Dense matrices (assembled from bounded operators, not symmetric because
of their identity wall rows) have their bandwidth measured and take the
banded LU, LAPACK's gbtrf/gbtrs, when the band is narrow.  Dense LU is
the last resort, for dense matrices without a narrow band or when the
banded path fails inside ``ShiftedSolver``, which logs and counts that
fallback.
"""

from __future__ import annotations

import logging

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from .errors import DimensionError, FactorizationError

log = logging.getLogger(__name__)

#: use the banded path when the total band width stays below this fraction of N
BANDED_FRACTION = 0.5


def measure_bandwidth(a: np.ndarray, tol: float = 0.0):
    """(lower, upper) bandwidth of a; entries with |a_ij| <= tol count as zero."""
    nz = np.argwhere(np.abs(a) > tol)
    if nz.size == 0:
        return 0, 0
    diff = nz[:, 0] - nz[:, 1]
    return int(max(diff.max(), 0)), int(max((-diff).max(), 0))


def _pack_banded(a: np.ndarray, lower: int, upper: int) -> np.ndarray:
    """LAPACK gbtrf storage (2*lower + upper + 1, n) of a banded matrix."""
    n = a.shape[0]
    ab = np.zeros((2 * lower + upper + 1, n), order="F")
    for off in range(-lower, upper + 1):
        d = np.diagonal(a, off)
        if off >= 0:
            ab[lower + upper - off, off : off + d.size] = d
        else:
            ab[lower + upper - off, : d.size] = d
    return ab


class Fold:
    """The fold permutation of n nodes and its inverse.

    ``order`` lists the nodes in folded sequence 0, n-1, 1, n-2, ...;
    ``position[i]`` is the folded position of node i.
    """

    def __init__(self, n: int):
        self.order = np.empty(n, dtype=np.intp)
        self.order[0::2] = np.arange((n + 1) // 2)
        self.order[1::2] = np.arange(n - 1, (n - 1) // 2, -1)
        self.position = np.empty(n, dtype=np.intp)
        self.position[self.order] = np.arange(n)


class PeriodicBand:
    """Symmetric periodic band matrix stored by its upper offset diagonals.

    A[i, (i + k) % n] = A[(i + k) % n, i] = diagonals[k, i] for 0 <= k <= w,
    so no lower half can disagree with the upper one.  When offsets wrap
    (2w + 1 > n), entries that meet in the same position add up.
    """

    def __init__(self, diagonals: np.ndarray):
        self.diagonals = diagonals
        self.w = diagonals.shape[0] - 1
        self.n = diagonals.shape[1]

    def shifted(self, shift, divisor=1.0) -> "PeriodicBand":
        """diag(shift) + A / divisor as a new band; ``shift`` is a scalar or
        a length-n vector."""
        diagonals = self.diagonals / divisor
        diagonals[0] += shift
        return PeriodicBand(diagonals)

    def _columns(self):
        """Column index of every stored entry, shaped like ``diagonals``."""
        return (np.arange(self.n) + np.arange(self.w + 1)[:, None]) % self.n

    def pack(self):
        """(ab, fold): pbtrf upper storage (b + 1, n) of the folded matrix,
        half-width b = min(2w, n - 1)."""
        n = self.n
        fold = Fold(n)
        b = min(2 * self.w, n - 1)
        rows = fold.position[None, :]
        cols = fold.position[self._columns()]
        # an offset k > 0 with k % n == 0 lands on the diagonal with its mirror
        k = np.arange(self.w + 1)[:, None]
        values = np.where((k > 0) & (k % n == 0), 2.0, 1.0) * self.diagonals
        flat = (b - np.abs(rows - cols)) * n + np.maximum(rows, cols)
        ab = np.bincount(flat.ravel(), values.ravel(), (b + 1) * n)
        return np.asfortranarray(ab.reshape(b + 1, n)), fold

    def to_dense(self) -> np.ndarray:
        """Both halves as an N x N matrix, for tests and reference checks."""
        a = np.zeros((self.n, self.n))
        rows = np.arange(self.n)
        for k, (cols, diagonal) in enumerate(zip(self._columns(), self.diagonals)):
            a[rows, cols] += diagonal
            if k:
                a[cols, rows] += diagonal
        return a


def _check_length(n, rhs):
    if rhs.shape[0] != n:
        raise DimensionError(
            f"rhs of length {rhs.shape[0]} does not match system size {n}"
        )


def _check_pivots(pivots, scale):
    """Raise unless the smallest pivot exceeds n eps max|A| (a NaN fails)."""
    floor = pivots.size * np.finfo(float).eps * max(scale, 1e-300)
    smallest = float(pivots.min()) if pivots.size else 0.0
    if not smallest > floor:
        raise FactorizationError(
            f"matrix singular to working precision (pivot {smallest:.3e})",
            pivot=smallest,
        )


class DenseFactorization:
    """Pivoted dense LU, reusable across right-hand sides."""

    def __init__(self, a: np.ndarray):
        self.n = a.shape[0]
        lu, piv = sla.lu_factor(a, check_finite=False)
        _check_pivots(np.abs(np.diag(lu)), np.max(np.abs(a)))
        self.lu, self.piv = lu, piv

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        _check_length(self.n, rhs)
        x, info = lapack.dgetrs(self.lu, self.piv, rhs)
        if info != 0:
            raise FactorizationError(f"getrs failed with info={info}")
        return x


class BandedFactorization:
    """Banded LU via LAPACK gbtrf/gbtrs, for the bounded systems.

    ``ab`` is gbtrf storage (2*lower + upper + 1, n) and is factored in
    place.
    """

    def __init__(self, ab: np.ndarray, lower: int, upper: int):
        self.lower, self.upper = lower, upper
        self.n = ab.shape[1]
        scale = np.max(np.abs(ab))
        lu, piv, info = lapack.dgbtrf(ab, kl=lower, ku=upper, overwrite_ab=True)
        if info < 0:
            raise FactorizationError(f"gbtrf failed with info={info}")
        _check_pivots(np.abs(lu[lower + upper, :]), scale)  # info > 0: a zero pivot
        self.lu, self.piv = lu, piv

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        _check_length(self.n, rhs)
        x, info = lapack.dgbtrs(self.lu, self.lower, self.upper, rhs, self.piv)
        if info != 0:
            raise FactorizationError(f"gbtrs failed with info={info}")
        return x


class FoldedCholesky:
    """Banded Cholesky A = U^T U of a folded SPD periodic band (pbtrf/pbtrs).

    ``ab`` is pbtrf upper storage (b + 1, n) of A[order][:, order], factored
    in place; ``solve`` folds the right-hand side and unfolds the solution.
    ``FactorizationError`` when A is not positive definite or a pivot
    u_ii^2 is at or below n eps max|A|.
    """

    def __init__(self, ab: np.ndarray, fold: Fold):
        self.half_width = ab.shape[0] - 1
        self.n = ab.shape[1]
        self._fold = fold
        scale = ab[-1].max()  # |a_ij| <= sqrt(a_ii a_jj) when A is SPD
        u, info = lapack.dpbtrf(ab, lower=0, overwrite_ab=True)
        if info > 0:  # pbtrf leaves the non-positive pivot in place of U[info - 1]
            raise FactorizationError("band not positive definite",
                                     pivot=float(u[-1, info - 1]))
        if info < 0:
            raise FactorizationError(f"pbtrf failed with info={info}")
        _check_pivots(u[-1] ** 2, scale)
        self.u = u

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        _check_length(self.n, rhs)
        fold = self._fold
        x, info = lapack.dpbtrs(self.u, rhs[fold.order], lower=0, overwrite_b=True)
        if info != 0:
            raise FactorizationError(f"pbtrs failed with info={info}")
        return x[fold.position]


class ShiftedSolver:
    """Repeatedly factor (static + diag(d)) for changing diagonals d.

    The static part is packed once (folded, for a periodic band); per call
    only the diagonal moves, so a re-factor adds the (folded) diagonal to
    a copy of the packed band and runs one pbtrf (periodic) or gbtrf
    (bounded).  Used by the velocity equation of the Svärd-Kalisch model,
    whose system matrix diag(h) - D beta D depends on the water height;
    ``path`` is the factorization type its calls return.

    When that path fails for some diagonal, the call falls back to dense
    LU; the fallback is logged as a warning and counted in
    ``dense_fallbacks``.
    """

    def __init__(self, static_part):
        self.dense_fallbacks = 0
        self._static, self._fold = static_part, None
        if isinstance(static_part, PeriodicBand):
            self.n = static_part.n
            self._ab0, self._fold = static_part.pack()
            self.path = FoldedCholesky
        else:
            self._static = np.asarray(static_part, dtype=float)
            self.n = self._static.shape[0]
            self.path = DenseFactorization
            lower, upper = measure_bandwidth(self._static)
            if lower + upper + 1 <= BANDED_FRACTION * self.n:
                self.path, self._lower, self._upper = BandedFactorization, lower, upper
                self._ab0 = _pack_banded(self._static, lower, upper)

    def factor(self, diagonal: np.ndarray):
        diagonal = np.asarray(diagonal, dtype=float)
        if diagonal.shape[0] != self.n:
            raise DimensionError("diagonal length does not match system size")
        try:
            if self.path is not DenseFactorization:
                ab = self._ab0.copy(order="F")
                if self._fold is None:
                    ab[self._lower + self._upper] += diagonal
                    return BandedFactorization(ab, self._lower, self._upper)
                ab[-1] += diagonal[self._fold.order]
                return FoldedCholesky(ab, self._fold)
        except FactorizationError as exc:
            self.dense_fallbacks += 1
            log.warning(
                "%s failed (%s; pivot %s); falling back to dense LU",
                self.path.__name__, exc, exc.pivot,
            )
        static = self._static
        full = static.to_dense() if isinstance(static, PeriodicBand) else static.copy()
        np.fill_diagonal(full, np.diagonal(full) + diagonal)
        return DenseFactorization(full)


def factor(a):
    """Factor a periodic band, or a dense square matrix.

    A ``PeriodicBand`` takes the folded banded Cholesky.  A dense matrix
    takes the banded LU when its measured band is narrow, dense LU
    otherwise.
    """
    if isinstance(a, PeriodicBand):
        return FoldedCholesky(*a.pack())
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    lower, upper = measure_bandwidth(a)
    if lower + upper + 1 <= BANDED_FRACTION * a.shape[0]:
        return BandedFactorization(_pack_banded(a, lower, upper), lower, upper)
    return DenseFactorization(a)
