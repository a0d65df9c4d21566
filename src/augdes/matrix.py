"""Dense symmetric-matrix arithmetic for intrablock computations.

Every matrix this package inverts is symmetric positive definite: an
information matrix shifted by a projector onto its null space. The
inverse is therefore taken from a LAPACK Cholesky factorization, whose
failure or tiny diagonal is also the singularity test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, Disconnected, NotCentered, SingularMatrix

# Squared Cholesky pivots below this signal a numerically singular matrix.
PIVOT_TOL = 1e-12
# Row sums of a centered matrix must vanish to within this tolerance.
CENTERED_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Real symmetric matrix, stored densely and exactly symmetric.

    Construction symmetrizes the input as 0.5 * (A + A^T) after rejecting
    anything whose asymmetry exceeds a small relative tolerance, so the
    stored entries always satisfy a[i, j] == a[j, i] exactly. An input
    that is already bitwise symmetric is stored as it is.
    """

    a: np.ndarray

    def __post_init__(self):
        arr = np.array(self.a, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise DimensionMismatch("matrix order must be at least 1")
        bits = arr.view(np.uint64)
        if not np.array_equal(bits, bits.T):  # else 0.5 * (A + A^T) would be A, bit for bit
            scale = max(1.0, float(np.max(np.abs(arr))))
            if float(np.max(np.abs(arr - arr.T))) > 1e-8 * scale:
                raise ValueError("matrix is not symmetric within tolerance")
            arr = 0.5 * (arr + arr.T)
        arr.setflags(write=False)
        object.__setattr__(self, "a", arr)

    @property
    def order(self) -> int:
        return self.a.shape[0]

    def allclose(self, other: "SymMatrix", tol: float = 1e-9) -> bool:
        return self.order == other.order and float(np.max(np.abs(self.a - other.a))) <= tol


def identity(order: int) -> SymMatrix:
    return SymMatrix(np.eye(order))


def invert(m: SymMatrix) -> SymMatrix:
    """Inverse of a symmetric positive definite matrix, built as
    L^-T L^-1 from its Cholesky factor L.

    The input must be SPD. Raises SingularMatrix when the factorization
    fails, which includes every indefinite input, or when the smallest
    squared diagonal entry of L drops below PIVOT_TOL.
    """
    try:
        factor = np.linalg.cholesky(m.a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"Cholesky factorization failed: {exc}") from exc
    pivot = float(np.min(np.diag(factor))) ** 2
    if pivot < PIVOT_TOL:
        raise SingularMatrix(f"squared Cholesky pivot {pivot:.3e} below {PIVOT_TOL:g}")
    factor_inv = np.linalg.inv(factor)
    return SymMatrix(factor_inv.T @ factor_inv)


def mp_inverse_centered(m: SymMatrix, n: int) -> SymMatrix:
    """Moore-Penrose inverse of an order-n matrix with zero row sums and
    rank n - 1.

    Uses M+ = (M + J/n)^(-1) - J/n with J the all-ones matrix; the shifted
    matrix is invertible exactly when M has full rank on the contrast
    space, i.e. when the design behind M is connected.
    """
    if m.order != n:
        raise DimensionMismatch(f"expected order {n}, got {m.order}")
    worst = float(np.max(np.abs(m.a.sum(axis=1))))
    if worst > CENTERED_TOL:
        raise NotCentered(f"row sums reach {worst:.3e}; matrix is not centered")
    shift = np.full((n, n), 1.0 / n)
    try:
        shifted_inv = invert(SymMatrix(m.a + shift))
    except SingularMatrix as exc:
        raise Disconnected("shifted matrix is singular; the underlying design is disconnected") from exc
    return SymMatrix(shifted_inv.a - shift)


def trace(m: SymMatrix) -> float:
    return float(np.trace(m.a))


def quad_form(m: SymMatrix, x) -> float:
    """x^T M x for a vector x of matching length."""
    vec = np.asarray(x, dtype=float)
    if vec.shape != (m.order,):
        raise DimensionMismatch(f"vector of shape {vec.shape} against order {m.order}")
    return float(vec @ m.a @ vec)
