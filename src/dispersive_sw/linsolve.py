"""Reusable factorizations for the elliptic systems of both models.

Every elliptic system is symmetric positive definite (SPD) by the SBP
property, the reflecting ones once scaled by the norm M (see ``bbm_bbm``
and ``svaerd_kalisch``).  They arrive as a ``Band`` of upper offset
diagonals, so the storage itself states the symmetry, and take one
banded Cholesky, LAPACK's pbtrf/pbtrs, in O(N w^2); no N x N array is
formed.  pbtrf factors them as its lower storage, and pbtrs solves in
upper storage (see ``BandCholesky``).  A ``PeriodicBand`` wraps around:
the fold permutation 0, N-1, 1, N-2, ... places the wrap-around
neighbours of every node within 2w folded positions, so a periodic band
of half-width w factors as an ordinary band of half-width 2w.  A solve
maps along the last axis: an (m, N) stack is folded by one gather,
solved by one pbtrs call with m right-hand sides and unfolded by one
gather, and each row keeps the bits of its own solve.

There is no second path: a band that is not positive definite to working
precision raises ``FactorizationError``.  For A = diag(h) + D^T beta D
with h > 0 and beta >= 0, every Cholesky pivot satisfies l_ii^2 >=
lambda_min(A) >= min h, so the pivot check (n eps max|A|) fails only on
a state that is dry to working precision.

LAPACK comes from scipy's compiled extension ``scipy.linalg._flapack``,
loaded from its file under its own name and registered in
``sys.modules``.  Neither ``scipy.linalg`` nor ``scipy`` itself is
imported: scipy's directory comes from ``importlib.util.find_spec``,
which executes nothing for a top-level package.  No run uses what their
package ``__init__`` pulls in: array-API, f2py and testing modules for
``scipy.linalg``; ``subprocess``, the build config and version parsing
for ``scipy``.  There is one module either way: a later
``import scipy.linalg`` reuses the registered one, and one registered
before is reused here, so ``scipy.linalg.lapack`` hands out the very
same functions.  A missing scipy raises the ``ModuleNotFoundError`` of
``import scipy``, and a scipy without the file an ``ImportError`` naming
its version; there is no second path.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from pathlib import Path

import numpy as np

from .errors import DimensionError, FactorizationError


def _load_flapack():
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    package = importlib.util.find_spec("scipy")
    if package is None:  # not installed, or blocked: the import says which
        import scipy  # noqa: F401
    linalg = [str(Path(path, "linalg")) for path in package.submodule_search_locations]
    found = importlib.machinery.PathFinder.find_spec("_flapack", linalg)
    if found is None:
        import scipy

        raise ImportError(f"{name} not found in scipy {scipy.__version__}", name=name)
    spec = importlib.util.spec_from_file_location(name, found.origin)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


lapack = _load_flapack()


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


class Band:
    """Symmetric band matrix stored by its upper offset diagonals.

    A[i, i + k] = A[i + k, i] = diagonals[k, i] for 0 <= k <= w and
    i + k < n, so no lower half can disagree with the upper one; the
    entries of a diagonal past the last column are not read.
    """

    def __init__(self, diagonals: np.ndarray):
        self.diagonals = diagonals
        self.w = diagonals.shape[0] - 1
        self.n = diagonals.shape[1]

    def shifted(self, shift, divisor=1.0) -> "Band":
        """diag(shift) + A / divisor as a new band; ``shift`` is a scalar or
        a length-n vector."""
        diagonals = self.diagonals / divisor
        diagonals[0] += shift
        return type(self)(diagonals)

    def interior(self) -> "Band":
        """The block without the first and last row and column."""
        return Band(self.diagonals[:, 1:-1])

    def pack(self):
        """(flat, b, None): pbtrf lower storage (b + 1, n), b = min(w, n - 1),
        which is the diagonals themselves, flat in F order behind b * b
        zeros (see ``BandCholesky``)."""
        b = min(self.w, self.n - 1)
        return np.concatenate((np.zeros(b * b), self.diagonals[: b + 1].ravel("F"))), b, None


class PeriodicBand(Band):
    """Symmetric periodic band: A[i, (i + k) % n] = A[(i + k) % n, i] =
    diagonals[k, i] for 0 <= k <= w.  When offsets wrap (2w + 1 > n),
    entries that meet in the same position add up.
    """

    def pack(self):
        """(flat, b, fold): pbtrf lower storage (b + 1, n) of the folded
        matrix, half-width b = min(2w, n - 1), flat in F order behind b * b
        zeros (see ``BandCholesky``)."""
        n = self.n
        fold = Fold(n)
        b = min(2 * self.w, n - 1)
        k = np.arange(self.w + 1)[:, None]
        rows = fold.position[None, :]
        cols = fold.position[(np.arange(n) + k) % n]
        # an offset k > 0 with k % n == 0 lands on the diagonal with its mirror
        values = np.where((k > 0) & (k % n == 0), 2.0, 1.0) * self.diagonals
        # entry (|r - c|, min(r, c)) of the lower storage
        flat = b * b + np.abs(rows - cols) + (b + 1) * np.minimum(rows, cols)
        return np.bincount(flat.ravel(), values.ravel(), b * b + (b + 1) * n), b, fold


_EPS = np.finfo(float).eps


class BandCholesky:
    """Banded Cholesky A = L L^T = U^T U of an SPD band (pbtrf/pbtrs).

    ``flat`` is the lower storage of A as ``pack`` gives it, factored in
    place; for a periodic band A is the folded A[order][:, order], and
    ``solve`` folds the right-hand side and unfolds the solution.
    ``FactorizationError`` when A is not positive definite or a pivot
    l_ii^2 is at or below n eps max|A|.  Why lower storage: for kd <= 64
    pbtrf runs an unblocked column loop whose BLAS calls scale and update
    unit-stride columns of L, but rows of U with stride kd in upper
    storage; the arithmetic and bits are the same, in less time.  The
    solves take U = L^T in upper storage, where pbtrs is faster and has
    the bits it always had: the b * b leading zeros make U[b - k, j] =
    L[j, j - k] the view of ``flat`` with element strides (b, b + 1), and
    ``u`` is one copy of it.
    """

    def __init__(self, flat: np.ndarray, half_width: int, fold: Fold | None):
        b = self.half_width = half_width
        n = self.n = (flat.size - b * b) // (b + 1)
        self._fold = fold
        step = flat.itemsize
        lower = np.ndarray((b + 1, n), float, flat, b * b * step, None, "F")
        scale = np.maximum.reduce(lower[0])  # |a_ij| <= sqrt(a_ii a_jj) when A is SPD
        lower, info = lapack.dpbtrf(lower, lower=1, overwrite_ab=True)
        if info > 0:  # pbtrf leaves the non-positive pivot in place of L[info - 1]
            raise FactorizationError("band not positive definite",
                                     pivot=float(lower[0, info - 1]))
        if info < 0:
            raise FactorizationError(f"pbtrf failed with info={info}")
        smallest = np.minimum.reduce(lower[0])
        pivot = smallest * smallest
        if not pivot > n * _EPS * max(scale, 1e-300):  # a NaN fails too
            raise FactorizationError(
                f"matrix singular to working precision (pivot {pivot:.3e})", pivot=pivot
            )
        self.u = np.asfortranarray(
            np.ndarray((b + 1, n), float, flat, 0, (b * step, (b + 1) * step)))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """A^-1 rhs along the last axis, as ``DerivativeOperator.apply`` maps:
        a length-n vector, or an (m, n) stack of m right-hand sides in one
        pbtrs call on the F-ordered (n, m) view ``.T``.  pbtrs solves column
        by column, so row i of the result has the bits of solving row i
        alone.  The result is a new array; ``rhs`` is not written."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[-1] != self.n:
            raise DimensionError(
                f"rhs of length {rhs.shape[-1]} does not match system size {self.n}")
        fold = self._fold
        if fold is None:
            x, info = lapack.dpbtrs(self.u, rhs.T, lower=0)
        else:  # the gathered copy is pbtrs's to overwrite
            x, info = lapack.dpbtrs(self.u, rhs.take(fold.order, axis=-1).T,
                                    lower=0, overwrite_b=True)
        if info != 0:
            raise FactorizationError(f"pbtrs failed with info={info}")
        return x.T if fold is None else x.T.take(fold.position, axis=-1)


class ShiftedSolver:
    """Repeatedly factor (static + diag(d)) for changing diagonals d.

    The static band is packed once (folded, when periodic); per call only
    the diagonal moves, so a re-factor adds the (folded) diagonal to row 0
    of a copy of the packed lower storage and factors that copy in place
    (see ``BandCholesky``).  Used by the velocity equation of the
    Svärd-Kalisch model, whose system matrix depends on the water height.
    """

    def __init__(self, static_part: Band):
        self.n = static_part.n
        self._flat0, self._half_width, self._fold = static_part.pack()

    def factor(self, diagonal: np.ndarray) -> BandCholesky:
        diagonal = np.asarray(diagonal, dtype=float)
        if diagonal.shape[0] != self.n:
            raise DimensionError("diagonal length does not match system size")
        fold, b = self._fold, self._half_width
        flat = self._flat0.copy()
        row = flat[b * b :: b + 1]  # the diagonal, row 0 of the lower storage
        row += diagonal if fold is None else diagonal[fold.order]
        return BandCholesky(flat, b, fold)


def factor(band: Band) -> BandCholesky:
    """Banded Cholesky of an SPD band; a ``PeriodicBand`` is folded first."""
    return BandCholesky(*band.pack())
