"""Dense symmetric-matrix arithmetic for intrablock computations.

Every matrix this package inverts is symmetric positive definite: an
information matrix shifted by a projector onto its null space. The
inverse is therefore taken from a LAPACK Cholesky factorization, whose
failure or tiny diagonal is also the singularity test.

The symmetrization rule and the Cholesky inverse are written once, for a
matrix or a stack of them: `stacked_mp_inverse_centered` runs the steps
of `mp_inverse_centered` on a stack and marks a failed member with NaN.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, Disconnected, NotCentered, NotSymmetric, SingularMatrix

# Squared Cholesky pivots below this signal a numerically singular matrix.
PIVOT_TOL = 1e-12
# Row sums of a centered matrix must vanish to within this tolerance.
CENTERED_TOL = 1e-9


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
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise DimensionMismatch("matrix order must be at least 1")
        arr, ok = _symmetrized(arr)
        if not ok:
            raise NotSymmetric("matrix is not symmetric within tolerance")
        arr.setflags(write=False)
        object.__setattr__(self, "a", arr)

    @property
    def order(self) -> int:
        return self.a.shape[0]


def _symmetrized(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SymMatrix's rule on a matrix or on each member of a stack: 0.5 *
    (A + A^T), and whether the asymmetry of each member is within 1e-8
    max(1, max |A|). A bitwise-symmetric input is returned as it is, since
    0.5 * (A + A^T) would give the same bits."""
    bits = a.view(np.uint64)
    if np.array_equal(bits, bits.swapaxes(-1, -2)):
        return a, np.True_
    at = a.swapaxes(-1, -2)
    scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))
    ok = np.abs(a - at).max(axis=(-2, -1)) <= 1e-8 * scale
    return 0.5 * (a + at), ok


def _cholesky_inverse(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """L^-T L^-1 from the Cholesky factor L of a symmetric matrix, or of
    each member of a stack, with the smallest squared diagonal entry of
    each L. np.linalg.LinAlgError propagates when a factorization fails."""
    factor = np.linalg.cholesky(a)
    pivot = factor.diagonal(axis1=-2, axis2=-1).min(axis=-1) ** 2
    factor_inv = np.linalg.inv(factor)
    return factor_inv.swapaxes(-1, -2) @ factor_inv, pivot


def _checked_inverse(a: np.ndarray) -> np.ndarray:
    """`_cholesky_inverse` of one symmetric matrix under SymMatrix's rule.
    Raises SingularMatrix when the factorization fails or the smallest
    squared diagonal entry of L drops below PIVOT_TOL, and NotSymmetric
    when the rule rejects the result."""
    try:
        inverse, pivot = _cholesky_inverse(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"Cholesky factorization failed: {exc}") from exc
    if not pivot >= PIVOT_TOL:
        raise SingularMatrix(f"squared Cholesky pivot {float(pivot):.3e} below {PIVOT_TOL:g}")
    inverse, ok = _symmetrized(inverse)
    if not ok:
        raise NotSymmetric("matrix is not symmetric within tolerance")
    return inverse


def invert(m: SymMatrix) -> SymMatrix:
    """Inverse of a symmetric positive definite matrix, built as
    L^-T L^-1 from its Cholesky factor L.

    The input must be SPD. Raises SingularMatrix when the factorization
    fails, which includes every indefinite input, or when the smallest
    squared diagonal entry of L drops below PIVOT_TOL.
    """
    return SymMatrix(_checked_inverse(m.a))


def _row_sum_residual(a: np.ndarray) -> np.ndarray:
    """The largest absolute row sum of a matrix or of each stack member."""
    return np.abs(a.sum(axis=-1)).max(axis=-1)


def mp_inverse_centered(m: SymMatrix, n: int) -> SymMatrix:
    """Moore-Penrose inverse of an order-n matrix with zero row sums and
    rank n - 1.

    Uses M+ = (M + J/n)^(-1) - J/n with J the all-ones matrix; the shifted
    matrix is invertible exactly when M has full rank on the contrast
    space, i.e. when the design behind M is connected. M + J/n is exactly
    symmetric, as M is, so it is factored as it stands, and the only
    SymMatrix built is the result.
    """
    if m.order != n:
        raise DimensionMismatch(f"expected order {n}, got {m.order}")
    worst = float(_row_sum_residual(m.a))
    if not worst <= CENTERED_TOL:
        raise NotCentered(f"row sums reach {worst:.3e}; matrix is not centered")
    try:
        shifted_inv = _checked_inverse(m.a + 1.0 / n)
    except SingularMatrix as exc:
        raise Disconnected("shifted matrix is singular; the underlying design is disconnected") from exc
    return SymMatrix(shifted_inv - 1.0 / n)


def stacked_mp_inverse_centered(a: np.ndarray) -> np.ndarray:
    """`mp_inverse_centered(SymMatrix(a), n)` of every member a of an
    (m, n, n) stack, by the same steps: SymMatrix's rule, the centered
    check, the J/n shift, Cholesky and the pivot test, L^-T L^-1 under
    SymMatrix's rule, and the shift taken off again. Each member gets the
    bits the single-matrix path gives it, and a member that fails a check
    is all NaN. np.linalg.LinAlgError propagates when a factorization
    fails."""
    a, ok = _symmetrized(a)
    shift = 1.0 / a.shape[-1]
    inverse, pivot = _cholesky_inverse(a + shift)
    inverse, ok_inverse = _symmetrized(inverse)
    inverse = inverse - shift
    inverse[~(ok & ok_inverse & (_row_sum_residual(a) <= CENTERED_TOL) & (pivot >= PIVOT_TOL))] = np.nan
    return inverse
