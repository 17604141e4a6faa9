"""Reusable factorizations for the elliptic systems of both models.

Matrices assembled from bounded operators are banded and go through
LAPACK's banded LU (gbtrf/gbtrs).  Periodic operators produce a
circulant band with wrap-around corners; those go through
``PeriodicBandedFactorization``: a banded LU of the core plus a
Woodbury correction for the two corner blocks, whose small capacitance
matrix is factored with LAPACK getrf/getrs.  Dense LU is the last
resort, for matrices without a narrow band or when the banded path
fails; ``ShiftedSolver`` logs and counts that fallback.  The bandwidth
is measured from the assembled matrix, never assumed.
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


def circulant_band_width(a: np.ndarray, tol: float = 0.0) -> int:
    """Bandwidth counted modulo n, so wrap-around corners stay narrow."""
    n = a.shape[0]
    nz = np.argwhere(np.abs(a) > tol)
    if nz.size == 0:
        return 0
    offsets = (nz[:, 1] - nz[:, 0] + n // 2) % n - n // 2
    return int(np.max(np.abs(offsets)))


def _pack_banded(a: np.ndarray, lower: int, upper: int) -> np.ndarray:
    """LAPACK gbtrf storage (2*lower + upper + 1, n) of a banded matrix."""
    n = a.shape[0]
    ab = np.zeros((2 * lower + upper + 1, n))
    for off in range(-lower, upper + 1):
        d = np.diagonal(a, off)
        if off >= 0:
            ab[lower + upper - off, off : off + d.size] = d
        else:
            ab[lower + upper - off, : d.size] = d
    return ab


def _getrs(lu, piv, rhs):
    """Solve with a getrf LU through LAPACK getrs directly."""
    x, info = lapack.dgetrs(lu, piv, rhs)
    if info != 0:
        raise FactorizationError(f"getrs failed with info={info}")
    return x


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
        if rhs.shape[0] != self.n:
            raise DimensionError(
                f"rhs of length {rhs.shape[0]} does not match system size {self.n}"
            )
        return _getrs(self.lu, self.piv, rhs)


class BandedFactorization:
    """Banded LU via LAPACK gbtrf/gbtrs."""

    def __init__(self, a: np.ndarray, lower: int, upper: int, *, packed=False):
        self.lower, self.upper = lower, upper
        if packed:
            ab = a
            self.n = a.shape[1]
            self._scale = np.max(np.abs(ab))
        else:
            self.n = a.shape[0]
            self._scale = np.max(np.abs(a))
            ab = _pack_banded(a, lower, upper)
        lu, piv, info = lapack.dgbtrf(ab, kl=lower, ku=upper)
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
        if rhs.shape[0] != self.n:
            raise DimensionError(
                f"rhs of length {rhs.shape[0]} does not match system size {self.n}"
            )
        x, info = lapack.dgbtrs(self.lu, self.lower, self.upper, rhs, self.piv)
        if info != 0:
            raise FactorizationError(f"gbtrs failed with info={info}")
        return x


class _WoodburyCorners:
    """The static Woodbury pieces of a circulant band of half-width w.

    A = B + U V, with B the banded core, U = [e_0..e_{w-1}, e_{n-w}..e_{n-1}]
    and V holding the top-right and bottom-left corner blocks.  They depend
    only on the corners, so a solver that re-factors the same corners
    with a changing diagonal builds them once.
    """

    def __init__(self, a: np.ndarray, w: int):
        n = a.shape[0]
        self.w = w
        self.u = np.zeros((n, 2 * w))
        self.u[:w, :w] = np.eye(w)
        self.u[n - w :, w:] = np.eye(w)
        self.v = np.zeros((2 * w, n))
        self.v[:w, n - w :] = a[:w, n - w :]
        self.v[w:, :w] = a[n - w :, :w]
        self.eye = np.eye(2 * w)


def _banded_core(a: np.ndarray, w: int) -> np.ndarray:
    """a without its two wrap-around corner blocks."""
    n = a.shape[0]
    core = a.copy()
    core[:w, n - w :] = 0.0
    core[n - w :, :w] = 0.0
    return core


class PeriodicBandedFactorization:
    """Circulant-banded matrix with wrap-around corners (Woodbury).

    A = B + U V with B the banded core and U V the two corner blocks of
    rank at most 2w; solves cost O(n w^2) instead of the dense O(n^3)
    factorization the wrap-around would otherwise force.
    """

    def __init__(self, a: np.ndarray, width: int | None = None):
        n = a.shape[0]
        w = circulant_band_width(a) if width is None else width
        if w == 0 or 4 * w >= n:
            raise FactorizationError(
                f"circulant width {w} too large for the periodic-banded path"
            )
        core = BandedFactorization(_banded_core(a, w), w, w)
        self._finish(core, _WoodburyCorners(a, w))

    @classmethod
    def from_core(cls, core: BandedFactorization, corners: _WoodburyCorners):
        """Factorization from an already factored core and prebuilt corners."""
        fact = cls.__new__(cls)
        fact._finish(core, corners)
        return fact

    def _finish(self, core: BandedFactorization, corners: _WoodburyCorners):
        self.n, self.w = core.n, corners.w
        self._core = core
        bu = core.solve(corners.u)
        capacitance = corners.eye + corners.v @ bu
        lu, piv, info = lapack.dgetrf(capacitance, overwrite_a=True)
        if info != 0:
            raise FactorizationError(
                f"singular capacitance block (getrf info={info})",
                pivot=0.0 if info > 0 else None,
            )
        self._cap_lu, self._cap_piv = lu, piv
        self._bu, self._v = bu, corners.v

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.n:
            raise DimensionError(
                f"rhs of length {rhs.shape[0]} does not match system size {self.n}"
            )
        z = self._core.solve(rhs)
        small = _getrs(self._cap_lu, self._cap_piv, self._v @ z)
        return z - self._bu @ small


class ShiftedSolver:
    """Repeatedly factor (static + diag(d)) for changing diagonals d.

    The static part is analyzed once, and for periodic systems the
    Woodbury corner pieces are built once too; per call only the diagonal
    moves, so a re-factor is one gbtrf, one banded solve for B^-1 U and
    the LU of the small capacitance matrix.  Used by the velocity
    equation of the Svärd-Kalisch model, whose system matrix depends on
    the water height.

    When the banded path fails for some diagonal, that call falls back to
    dense LU; the fallback is logged as a warning and counted in
    ``dense_fallbacks``.
    """

    def __init__(self, static_part: np.ndarray):
        self.n = static_part.shape[0]
        self._mode = "dense"
        self.dense_fallbacks = 0
        self._static = np.asarray(static_part, dtype=float)
        cw = circulant_band_width(self._static)
        lower, upper = measure_bandwidth(self._static)
        if 0 < cw and 4 * cw < self.n and lower + upper > 2 * cw:
            self._mode = "periodic"
            self.w = cw
            self._corners = _WoodburyCorners(self._static, cw)
            self._ab0 = _pack_banded(_banded_core(self._static, cw), cw, cw)
        elif lower + upper + 1 <= BANDED_FRACTION * self.n:
            self._mode = "banded"
            self._lower, self._upper = lower, upper
            self._ab0 = _pack_banded(self._static, lower, upper)

    def factor(self, diagonal: np.ndarray):
        diagonal = np.asarray(diagonal, dtype=float)
        if diagonal.shape[0] != self.n:
            raise DimensionError("diagonal length does not match system size")
        try:
            if self._mode == "periodic":
                ab = self._ab0.copy()
                ab[2 * self.w, :] += diagonal
                core = BandedFactorization(ab, self.w, self.w, packed=True)
                return PeriodicBandedFactorization.from_core(core, self._corners)
            if self._mode == "banded":
                ab = self._ab0.copy()
                ab[self._lower + self._upper, :] += diagonal
                return BandedFactorization(ab, self._lower, self._upper, packed=True)
        except FactorizationError as exc:
            self.dense_fallbacks += 1
            log.warning(
                "%s factorization failed (%s; pivot %s); falling back to dense LU",
                self._mode, exc, exc.pivot,
            )
        full = self._static.copy()
        np.fill_diagonal(full, np.diagonal(full) + diagonal)
        return DenseFactorization(full)


def factor(a: np.ndarray, structure=None):
    """Factor a square matrix; banded storage when the band is narrow enough.

    structure: None (measure the bandwidth), "dense", or ("banded", l, u).
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if structure == "dense":
        return DenseFactorization(a)
    if structure is None:
        lower, upper = measure_bandwidth(a)
        cw = circulant_band_width(a)
        if 0 < cw and 4 * cw < a.shape[0] and lower + upper > 2 * cw:
            try:
                return PeriodicBandedFactorization(a, cw)
            except FactorizationError:
                pass
    else:
        tag, lower, upper = structure
        if tag != "banded":
            raise DimensionError(f"unknown structure tag {tag!r}")
    if lower + upper + 1 <= BANDED_FRACTION * a.shape[0]:
        return BandedFactorization(a, lower, upper)
    return DenseFactorization(a)


def solve(factorization, rhs: np.ndarray) -> np.ndarray:
    return factorization.solve(rhs)
