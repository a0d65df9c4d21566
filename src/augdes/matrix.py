"""Dense symmetric-matrix arithmetic for intrablock computations.

Every matrix this package inverts is symmetric positive definite: an
information matrix shifted by a projector onto its null space. The
inverse is therefore taken from a LAPACK Cholesky factorization, whose
failure or tiny diagonal is also the singularity test. Its factor is
inverted by np.linalg.inv up to order BLOCK_ORDER and by blocks, with
about a quarter of the work, above it.

The symmetrization rule and the checked Cholesky inverse are written
once, for a matrix or a stack of them, and `mp_inverse_centered` takes
either: a member that fails a check comes back all NaN.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotSymmetric, SingularMatrix

# Squared Cholesky pivots below this signal a numerically singular matrix.
PIVOT_TOL = 1e-12
# Row sums of a centered matrix must vanish to within this tolerance.
CENTERED_TOL = 1e-9
# Cholesky factors up to this order are inverted by np.linalg.inv, larger
# ones by blocks. Median ms of `_cholesky_inverse` at cut-off 48/64/96/128
# (np.linalg.inv in brackets), one core of a shared host, one BLAS thread,
# at order 121, .65/.80/.81/1.22 (1.21); 182, .89/.88/1.16/1.12 (1.98);
# 351, 6.0/5.8/6.6/6.7 (15.6). 48 saves from order 49 on, but every bit a test
# pins comes from orders <= 64 (lattice q = 7 at 49 and 56, the (60, 2, 2)
# minima), and at 64 those keep np.linalg.inv's bits. `criteria` reads the
# same cut-off on the number of blocks: above it, Q = C_dual+ comes from
# P = C+ by the dual identity, and C_dual is not inverted at all.
BLOCK_ORDER = 64


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Real symmetric matrix, stored densely and exactly symmetric.

    Construction symmetrizes the input as 0.5 * (A + A^T) after rejecting
    anything whose asymmetry exceeds a small relative tolerance, with
    NotSymmetric, so the stored entries always satisfy a[i, j] == a[j, i]
    exactly. An input that is already bitwise symmetric is stored as it is.
    """

    a: np.ndarray

    def __post_init__(self):
        arr = np.array(self.a, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise DimensionMismatch(f"expected a square matrix of order at least 1, got shape {arr.shape}")
        arr = _symmetric(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "a", arr)

    @property
    def order(self) -> int:
        return self.a.shape[0]


def _symmetric(a: np.ndarray) -> np.ndarray:
    """SymMatrix's rule on a plain array, without building a SymMatrix:
    the symmetrized matrix, or NotSymmetric as SymMatrix raises it."""
    a, ok = _symmetrized(a)
    if not ok:
        raise NotSymmetric("matrix is not symmetric within tolerance")
    return a


def _symmetrized(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SymMatrix's rule on a matrix or on each member of a stack: 0.5 *
    (A + A^T), and whether the asymmetry of each member is within 1e-8
    max(1, max |A|). A bitwise-symmetric input is returned as it is, since
    0.5 * (A + A^T) would give the same bits."""
    bits = a.view(np.uint64)
    if (bits == bits.swapaxes(-1, -2)).all():
        return a, np.True_
    at = a.swapaxes(-1, -2)
    scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))
    ok = (a - at).max(axis=(-2, -1)) <= 1e-8 * scale  # A - A^T is antisymmetric: its max is its max |.|
    return 0.5 * (a + at), ok


def _triangular_inverse(factor: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular L, or of each member of a stack: np.linalg.inv
    up to BLOCK_ORDER; above it, L = [[A, 0], [B, C]] split at h = n // 2 has
    L^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]], about 2n^3/3 flops in all
    against about 8n^3/3 for np.linalg.inv's LU solve."""
    n = factor.shape[-1]
    if n <= BLOCK_ORDER:
        return np.linalg.inv(factor)
    h = n // 2
    a_inv = _triangular_inverse(factor[..., :h, :h])
    c_inv = _triangular_inverse(factor[..., h:, h:])
    inverse = np.zeros_like(factor)
    inverse[..., :h, :h] = a_inv
    inverse[..., h:, h:] = c_inv
    inverse[..., h:, :h] = -(c_inv @ (factor[..., h:, :h] @ a_inv))
    return inverse


def _cholesky_inverse(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """L^-T L^-1 from the Cholesky factor L of a symmetric matrix, or of
    each member of a stack, with L^-1 by `_triangular_inverse` and the
    smallest squared diagonal entry of each L. np.linalg.LinAlgError
    propagates when a factorization fails."""
    factor = np.linalg.cholesky(a)
    pivot = factor.diagonal(axis1=-2, axis2=-1).min(axis=-1) ** 2
    factor_inv = _triangular_inverse(factor)
    return factor_inv.swapaxes(-1, -2) @ factor_inv, pivot


def _checked_inverse(a: np.ndarray) -> np.ndarray:
    """`_cholesky_inverse` of a symmetric matrix, or of each member of a
    stack, under SymMatrix's rule. A member whose smallest squared
    diagonal entry of L is below PIVOT_TOL, or whose inverse the rule
    rejects, is all NaN, and so is the whole input when a factorization
    fails."""
    try:
        inverse, pivot = _cholesky_inverse(a)
    except np.linalg.LinAlgError:
        return np.full(a.shape, np.nan)
    inverse, ok = _symmetrized(inverse)
    ok = ok & (pivot >= PIVOT_TOL)
    if not ok.all():
        inverse[~ok] = np.nan
    return inverse


def _spd_inverse(a: np.ndarray) -> np.ndarray:
    """`invert` on a plain symmetric array, without building a SymMatrix:
    the same bits, or SingularMatrix as `invert` raises it."""
    inverse = _checked_inverse(a)
    if np.isnan(inverse).any():
        raise SingularMatrix(f"Cholesky factorization failed or a squared pivot fell below {PIVOT_TOL:g}")
    return inverse


def invert(m: SymMatrix) -> SymMatrix:
    """Inverse of a symmetric positive definite matrix, built as
    L^-T L^-1 from its Cholesky factor L.

    The input must be SPD. Raises SingularMatrix when the factorization
    fails, which includes every indefinite input, when the smallest
    squared diagonal entry of L drops below PIVOT_TOL, or when the inverse
    fails SymMatrix's rule.
    """
    return SymMatrix(_spd_inverse(m.a))


def mp_inverse_centered(a: np.ndarray) -> np.ndarray:
    """Moore-Penrose inverse of a square matrix with zero row sums and
    rank n - 1, or of each member of an (m, n, n) stack of them.

    Uses M+ = (M + J/n)^(-1) - J/n with J the all-ones matrix; the shifted
    matrix is invertible exactly when M has full rank on the contrast
    space, i.e. when the design behind M is connected. The steps are
    SymMatrix's rule, the J/n shift, `_checked_inverse`, the shift taken
    off again in place and the centered check on M, so a member of a stack
    gets the bits it gets alone. A member that fails a check is all NaN,
    written only when some member fails, and so is the whole input when a
    factorization fails. Raises DimensionMismatch
    unless the input is a square matrix, or a stack of them, of order at
    least 1.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise DimensionMismatch(f"expected a square matrix or a stack of them, got shape {a.shape}")
    a, ok = _symmetrized(a)
    shift = 1.0 / a.shape[-1]
    inverse = _checked_inverse(a + shift)
    inverse -= shift
    ok = ok & (np.abs(a.sum(axis=-1)).max(axis=-1) <= CENTERED_TOL)
    if not ok.all():
        inverse[~ok] = np.nan
    return inverse
