"""Reusable factorizations for the elliptic systems of both models.

Every system goes through one banded LU, LAPACK's gbtrf/gbtrs.  Periodic
systems arrive as a ``PeriodicBand``, their offset diagonals assembled
from the operator stencils; no N x N array is formed.  A periodic band
of half-width w is reordered by the fold permutation 0, N-1, 1, N-2, ...,
which places the wrap-around neighbours of every node within 2w folded
positions, so it factors as an ordinary band of half-width 2w in
O(N w^2).  Dense matrices (assembled from bounded operators) have their
bandwidth measured and are packed when the band is narrow.  Dense LU is
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
    """Periodic band matrix stored by its offset diagonals.

    A[i, (i + k) % n] = diagonals[k + w, i] for |k| <= w.  When 2w + 1 > n
    some offsets meet in the same column; their entries add up.
    """

    def __init__(self, diagonals: np.ndarray):
        self.diagonals = diagonals
        self.w = (diagonals.shape[0] - 1) // 2
        self.n = diagonals.shape[1]

    def shifted(self, shift, divisor=1.0) -> "PeriodicBand":
        """diag(shift) + A / divisor as a new band; ``shift`` is a scalar or
        a length-n vector."""
        diagonals = self.diagonals / divisor
        diagonals[self.w] += shift
        return PeriodicBand(diagonals)

    def _columns(self):
        """Column index of every stored entry, shaped like ``diagonals``."""
        k = np.arange(-self.w, self.w + 1)[:, None]
        return (np.arange(self.n) + k) % self.n

    def pack(self):
        """(ab, b, fold): gbtrf storage of the folded matrix, half-width b."""
        n = self.n
        fold = Fold(n)
        b = min(2 * self.w, n - 1)
        rows = fold.position[None, :]
        cols = fold.position[self._columns()]
        flat = (2 * b + rows - cols) * n + cols
        ab = np.bincount(flat.ravel(), self.diagonals.ravel(), (3 * b + 1) * n)
        return np.asfortranarray(ab.reshape(3 * b + 1, n)), b, fold

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        rows = np.arange(self.n)
        for cols, diagonal in zip(self._columns(), self.diagonals):
            a[rows, cols] += diagonal
        return a


def _check_length(n, rhs):
    if rhs.shape[0] != n:
        raise DimensionError(
            f"rhs of length {rhs.shape[0]} does not match system size {n}"
        )


class DenseFactorization:
    """Pivoted dense LU, reusable across right-hand sides."""

    def __init__(self, a: np.ndarray):
        self.n = a.shape[0]
        self._scale = np.max(np.abs(a))
        lu, piv = sla.lu_factor(a, check_finite=False)
        self._check_pivots(np.abs(np.diag(lu)))
        self.lu, self.piv = lu, piv

    def _check_pivots(self, pivots):
        floor = self.n * np.finfo(float).eps * max(self._scale, 1e-300)
        smallest = float(pivots.min()) if pivots.size else 0.0
        if smallest <= floor:
            raise FactorizationError(
                f"matrix singular to working precision (pivot {smallest:.3e})",
                pivot=smallest,
            )

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        _check_length(self.n, rhs)
        x, info = lapack.dgetrs(self.lu, self.piv, rhs)
        if info != 0:
            raise FactorizationError(f"getrs failed with info={info}")
        return x


class BandedFactorization:
    """Banded LU via LAPACK gbtrf/gbtrs.

    ``ab`` is gbtrf storage (2*lower + upper + 1, n) and is factored in
    place.  With a ``fold`` it stores the folded matrix A[order][:, order];
    ``solve`` then folds the right-hand side and unfolds the solution.
    """

    def __init__(self, ab: np.ndarray, lower: int, upper: int, fold: Fold | None = None):
        self.lower, self.upper, self._fold = lower, upper, fold
        self.n = ab.shape[1]
        self._scale = np.max(np.abs(ab))
        lu, piv, info = lapack.dgbtrf(ab, kl=lower, ku=upper, overwrite_ab=True)
        if info > 0:
            raise FactorizationError(
                f"banded matrix singular to working precision (U[{info - 1}] = 0)",
                pivot=0.0,
            )
        if info < 0:
            raise FactorizationError(f"gbtrf failed with info={info}")
        diag = np.abs(lu[lower + upper, :])
        floor = self.n * np.finfo(float).eps * max(self._scale, 1e-300)
        if diag.size and float(diag.min()) <= floor:
            raise FactorizationError(
                f"banded matrix singular to working precision (pivot {diag.min():.3e})",
                pivot=float(diag.min()),
            )
        self.lu, self.piv = lu, piv

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        _check_length(self.n, rhs)
        fold = self._fold
        if fold is not None:
            rhs = rhs[fold.order]
        x, info = lapack.dgbtrs(
            self.lu, self.lower, self.upper, rhs, self.piv,
            overwrite_b=fold is not None,
        )
        if info != 0:
            raise FactorizationError(f"gbtrs failed with info={info}")
        return x if fold is None else x[fold.position]


class ShiftedSolver:
    """Repeatedly factor (static + diag(d)) for changing diagonals d.

    The static part is packed once (folded, for a periodic band); per call
    only the diagonal moves, so a re-factor adds the (folded) diagonal to
    a copy of the packed band and runs one gbtrf.  Used by the velocity
    equation of the Svärd-Kalisch model, whose system matrix depends on
    the water height.

    When the banded path fails for some diagonal, that call falls back to
    dense LU; the fallback is logged as a warning and counted in
    ``dense_fallbacks``.
    """

    def __init__(self, static_part):
        self.dense_fallbacks = 0
        self._static, self._fold = static_part, None
        if isinstance(static_part, PeriodicBand):
            self.n = static_part.n
            self._ab0, b, self._fold = static_part.pack()
            self._mode, self._lower, self._upper = "periodic banded", b, b
        else:
            self._static = np.asarray(static_part, dtype=float)
            self.n = self._static.shape[0]
            self._mode = "dense"
            lower, upper = measure_bandwidth(self._static)
            if lower + upper + 1 <= BANDED_FRACTION * self.n:
                self._mode, self._lower, self._upper = "banded", lower, upper
                self._ab0 = _pack_banded(self._static, lower, upper)

    def factor(self, diagonal: np.ndarray):
        diagonal = np.asarray(diagonal, dtype=float)
        if diagonal.shape[0] != self.n:
            raise DimensionError("diagonal length does not match system size")
        try:
            if self._mode != "dense":
                ab = self._ab0.copy(order="F")
                fold = self._fold
                ab[self._lower + self._upper] += (
                    diagonal if fold is None else diagonal[fold.order]
                )
                return BandedFactorization(ab, self._lower, self._upper, fold)
        except FactorizationError as exc:
            self.dense_fallbacks += 1
            log.warning(
                "%s factorization failed (%s; pivot %s); falling back to dense LU",
                self._mode, exc, exc.pivot,
            )
        static = self._static
        full = static.to_dense() if isinstance(static, PeriodicBand) else static.copy()
        np.fill_diagonal(full, np.diagonal(full) + diagonal)
        return DenseFactorization(full)


def factor(a):
    """Factor a periodic band, or a dense square matrix.

    A ``PeriodicBand`` takes the folded banded LU.  A dense matrix takes
    the banded LU when its measured band is narrow, dense LU otherwise.
    """
    if isinstance(a, PeriodicBand):
        ab, b, fold = a.pack()
        return BandedFactorization(ab, b, b, fold)
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    lower, upper = measure_bandwidth(a)
    if lower + upper + 1 <= BANDED_FRACTION * a.shape[0]:
        return BandedFactorization(_pack_banded(a, lower, upper), lower, upper)
    return DenseFactorization(a)
