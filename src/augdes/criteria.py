"""Contrast variances and the A-/MV-criteria of an augmented design.

Everything is driven by the primal, the control subdesign: with incidence
N, replication diagonal R and common block size k, the information
matrices

    C      = R - (1/k) N N^T        (order v, control contrasts)
    C_dual = k I - N^T R^-1 N       (order b, block contrasts of the dual)

and their Moore-Penrose inverses P = C+ and Q = C_dual+ give, per unit of
the plot variance sigma^2,

    V_cc(i, i') = (e_i - e_i')^T P (e_i - e_i')
    V_tt(j, j') = (f_j - f_j')^T Q (f_j - f_j')
    V_ct(i, j)  = 1 + 1/r_i + xi^T Q xi,   xi = f_j - N^T R^-1 e_i.

A test-vs-test comparison across blocks j != j' carries total variance
2 + V_tt(j, j'); within a single block it is exactly 2. `v_cc_matrix`,
`v_tt_matrix` and `v_ct_matrix` hold these for all pairs at once. The
A-criteria average the multipliers over all pairs of the given type, the
MV-criteria take the maximum; none of this ever touches observed yields.

Every criterion depends on the primal only through P and Q, and neither
depends on the test-treatment counts, so `intrablock` computes them once
per design object and stores them on it: scoring one design at several
counts, or reading P again in a search, inverts its matrices once. C and
C_dual are not kept. The memo is keyed by the object's identity, never by
its value, and a failed call stores nothing. A primal with more than
MAX_ORDER treatments or blocks is rejected before anything of order v or
b is built.

P is the centered inverse of C. Q is the centered inverse of C_dual up to
`matrix.BLOCK_ORDER` blocks, the orders every pinned bit comes from; above
it, Q comes from P by the dual identity

    Q = Pi_b (I/k + N^T P N / k^2) Pi_b,   Pi_b = I - J/b,

in `_dual_from_primal`, so such a design takes one Moore-Penrose inverse:
C_dual is neither built nor inverted. `intrablock`, `stacked_exact_criteria`
and the search's stacked exact scores all take Q this way, so a member of a
stack keeps the bits it gets alone. Q then lies within 7e-15 of the
inverse of C_dual, relative to max |Q|, on the lattices q = 11 and 13,
their duals and the v = b = 300 cycle. Q alone takes 0.50 against 1.4-2.0
ms for lattice q = 13 and 0.21 against 0.6-0.95 ms for q = 11, and
`intrablock` of a two-treatment design with 2,000 blocks 57-63 against
410 ms (one core of a shared host, one BLAS thread).

The same `Intrablock` also holds what does not depend on the counts,
each computed the first time it is asked for and never again for that
object:
- A_cc, tr Q and A_ct at a common count, on the first `a_criteria` call
  with a common count; A_tt at any common s is then
  2 (1 + s/(bs - 1) tr Q), from the stored tr Q;
- the count-free matrices, read-only: the pairwise-Q entries above the
  diagonal (b(b - 1)/2 floats) and the v x b control-test multipliers,
  on the first `mv_criteria` call or per-block `a_criteria` call;
- the MV triple, read off those matrices on the first `mv_criteria` call.
Every per-block `a_criteria` call reads A_tt and A_ct off the stored
matrices. A common-count search reads only the scalars, so it never
builds the matrices or pays for MV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import AugmentationSpec, BlockDesign, is_connected
from .errors import Disconnected, InvalidParameters, NonUniformBlockSize, SingularMatrix
from .matrix import BLOCK_ORDER, mp_inverse_centered

# The largest v or b scored. At v = b = 2,000 (a cycle of two-plot blocks),
# scoring at s=1 and then per block peaks at 199 MiB by tracemalloc, about
# 3.25 x 8 (v^2 + b^2) bytes, and leaves 107 MiB in the memo; at v = b =
# 1,000 one report at s=1 peaks at 49.7 MiB. Q of such a design comes from
# P (see above), whose inverse holds the peak.
MAX_ORDER = 2_000


@dataclass(frozen=True, eq=False)
class Intrablock:
    """P = C+ and Q = C_dual+, the Moore-Penrose inverses of the
    information matrices of a primal and of its dual: all that any
    criterion reads of the primal besides its incidence, as read-only
    arrays. The count-free criteria and matrices of the primal are added
    to its `__dict__` when they are first computed (see `_memo`)."""

    c_plus: np.ndarray
    c_dual_plus: np.ndarray


@dataclass(frozen=True)
class CriteriaReport:
    """Average and maximum contrast-variance multipliers, in sigma^2 units."""

    a_cc: float
    a_tt: float
    a_ct: float
    mv_cc: float
    mv_tt: float
    mv_ct: float


def intrablock(d: BlockDesign) -> Intrablock:
    """The Moore-Penrose inverses of both information matrices: P of C,
    and Q of C_dual up to `matrix.BLOCK_ORDER` blocks and from P by the
    dual identity above (`_dual_plus`).

    Requires a connected design with constant block size, and at most
    MAX_ORDER treatments and blocks, which is checked before connectivity
    or the incidence; InvalidParameters is raised otherwise. The result is
    computed once per design object and stored on it, in `d.__dict__` as
    `functools.cached_property` stores `incidence`; later calls on the
    same object return that same immutable `Intrablock`. The memo is keyed
    by identity: an equal but distinct design computes again. A call that
    raises stores nothing, so it raises again on every call.
    """
    if "_intrablock" in d.__dict__:
        return d.__dict__["_intrablock"]
    k = d.uniform_block_size()
    if k is None:
        raise NonUniformBlockSize(f"block sizes {sorted(set(d.block_sizes))} are not constant")
    check_order(d.v, d.b)
    if not is_connected(d):
        raise Disconnected("criteria are defined only for connected primals")
    n = d.incidence.astype(float)
    r = np.asarray(d.replications, dtype=float)
    c_plus = mp_inverse_centered(_primal_information(n, r, k))
    c_dual_plus = _dual_plus(c_plus, n, r, k)
    if np.isnan(c_plus[0, 0]) or np.isnan(c_dual_plus[0, 0]):
        # a failed inverse is all NaN; the design is connected, so the failure is numerical
        raise SingularMatrix("an information matrix of a connected design is numerically singular")
    c_plus.setflags(write=False)
    c_dual_plus.setflags(write=False)
    ib = Intrablock(c_plus=c_plus, c_dual_plus=c_dual_plus)
    d.__dict__["_intrablock"] = ib
    return ib


def check_order(v: int, b: int, why: str = "are not scored") -> None:
    """Raise InvalidParameters, saying `why`, when v or b exceeds MAX_ORDER."""
    if max(v, b) > MAX_ORDER:
        raise InvalidParameters(f"{v} treatments and {b} blocks: orders above {MAX_ORDER} {why}")


def _primal_information(n: np.ndarray, r: np.ndarray, k: int) -> np.ndarray:
    """C = diag(r) - N N^T / k of a float incidence N with replications r
    and block size k, or of a stack of them (shapes (..., v, b) and
    (..., v)). The diagonal is added through a view with the last two axes
    flattened, so an off-diagonal zero is -0.0."""
    v = n.shape[-2]
    c = -(n @ n.swapaxes(-1, -2)) / k
    c.reshape(*c.shape[:-2], v * v)[..., :: v + 1] += r
    return c


def _dual_information(n: np.ndarray, r: np.ndarray, k: int) -> np.ndarray:
    """C_dual = k I - N^T (N / r) of the operands of `_primal_information`,
    with the diagonal added as there."""
    b = n.shape[-1]
    c_dual = -(n.swapaxes(-1, -2) @ (n / r[..., :, None]))
    c_dual.reshape(*c_dual.shape[:-2], b * b)[..., :: b + 1] += k
    return c_dual


def _dual_plus(p: np.ndarray, n: np.ndarray, r: np.ndarray, k: int) -> np.ndarray:
    """Q = C_dual+ of one primal or of a stack, given its P = C+, float
    incidence N, replications r and block size k: up to
    `matrix.BLOCK_ORDER` blocks `mp_inverse_centered` of C_dual, above it
    `_dual_from_primal`, which builds and inverts nothing of order b."""
    if n.shape[-1] <= BLOCK_ORDER:
        return mp_inverse_centered(_dual_information(n, r, k))
    return _dual_from_primal(p, n, k)


def _dual_from_primal(p: np.ndarray, n: np.ndarray, k: int) -> np.ndarray:
    """Q = C_dual+ from P = C+ of one primal, or of each in a stack
    (shapes (..., v, v) and (..., v, b)), by the identity

        Q = Pi_b (I/k + N^T P N / k^2) Pi_b,   Pi_b = I - J/b.

    With H the symmetrized N^T P N / k^2 and h its row means,
    Q = H - (h 1^T + 1 h^T) + mean(h) - 1/(b k) + I/k, every step
    elementwise on a bitwise-symmetric matrix, so Q is bitwise symmetric;
    its rows sum to zero up to rounding. Each member of a stack gets the
    bits it gets alone. Every block holds a plot, so each entry of Q
    reads a nonzero multiple of some entry of P: Q is all NaN when P is."""
    b = n.shape[-1]
    q = n.swapaxes(-1, -2) @ (p @ n)
    q = q + q.swapaxes(-1, -2)
    q *= 0.5 / k**2
    rows = q.mean(axis=-1)
    q -= rows[..., :, None] + rows[..., None, :]
    q += (rows.mean(axis=-1) - 1.0 / (b * k))[..., None, None]
    q.reshape(*q.shape[:-2], b * b)[..., :: b + 1] += 1.0 / k
    return q


def _pairwise(m: np.ndarray) -> np.ndarray:
    """(e_a - e_b)^T M (e_a - e_b) for every pair (a, b) of a symmetric M,
    or of each matrix in a stack of them (shape (..., n, n))."""
    dg = np.diagonal(m, axis1=-2, axis2=-1)
    return dg[..., :, None] + dg[..., None, :] - 2.0 * m


def v_cc_matrix(ib: Intrablock) -> np.ndarray:
    """All pairwise control-control multipliers (zero diagonal)."""
    return _pairwise(ib.c_plus)


def v_tt_matrix(ib: Intrablock) -> np.ndarray:
    """All pairwise block-contrast parts of test-test comparisons."""
    return _pairwise(ib.c_dual_plus)


def _ct_matrix(q: np.ndarray, n: np.ndarray, r: np.ndarray, gq: np.ndarray | None = None) -> np.ndarray:
    """v x b control-vs-test multipliers from Q, the incidence N and the
    replications r, or a stack of them (shapes (..., b, b), (..., v, b)
    and (..., v)), reading G Q, G = N / r, from gq when it is given."""
    g = n / r[..., :, None]
    if gq is None:
        gq = g @ q
    own = np.einsum("...ij,...ij->...i", gq, g)
    dq = np.diagonal(q, axis1=-2, axis2=-1)
    return 1.0 + (1.0 / r)[..., :, None] + dq[..., None, :] - 2.0 * gq + own[..., :, None]


def v_ct_matrix(ib: Intrablock, d: BlockDesign) -> np.ndarray:
    """v x b matrix of control-vs-test multipliers."""
    return _ct_matrix(ib.c_dual_plus, d.incidence, np.asarray(d.replications, dtype=float))


def _upper(m: np.ndarray) -> np.ndarray:
    """The entries above the diagonal of a square matrix, or of each
    matrix in a stack, row by row, selected by a boolean triangle that is
    built on each call and dropped with it. numpy selects with a mask of
    the array's own shape several times faster than through an ellipsis,
    so one matrix takes that path."""
    index = np.arange(m.shape[-1])
    above = index[:, None] < index
    return m[above] if m.ndim == 2 else m[..., above]


def _sum(x: np.ndarray, axes: int = 1) -> np.ndarray:
    """Sum over the last `axes` axes of a C-contiguous copy of x, so that
    each member of a stack is summed in the order its single-matrix form
    is; numpy sums a strided stack, such as an `_upper` gather, member by
    member in a different order. A 1-D x is summed as it is, in the same
    order."""
    if x.ndim == 1:
        return x.sum()
    x = np.ascontiguousarray(x)
    split = x.ndim - axes
    return x.reshape(*x.shape[:split], math.prod(x.shape[split:])).sum(axis=-1)


def _a_cc(p):
    """A_cc = 2 tr P/(v - 1) of one P or of a stack of them."""
    return 2.0 * _sum(p.diagonal(axis1=-2, axis2=-1)) / (p.shape[-1] - 1)


def _common_a_values(p, q, n, r, gq=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A_cc, tr Q and A_ct at any common count, the part of `_a_values`
    that is free of the count, on P = C+, Q = C_dual+, the incidence N and
    the replications r of one primal, or of a stack of them, reading
    G Q, G = N / r, from gq when it is given."""
    v, b = n.shape[-2:]
    t_dual = _sum(q.diagonal(axis1=-2, axis2=-1))
    g = n / r[..., :, None]
    if gq is None:
        gq = g @ q
    return _a_cc(p), t_dual, 1.0 + (1.0 / r).sum(axis=-1) / v + t_dual / b + _sum(gq * g, 2) / v


def _common_a_tt(t_dual, b: int, s: int):
    """A_tt = 2 (1 + s/(bs - 1) tr Q) at a common count s per block."""
    return 2.0 * (1.0 + s / (b * s - 1.0) * t_dual)


def _a_values(p, q, n, r, aug: AugmentationSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The arithmetic of `a_criteria` on P = C+, Q = C_dual+, the incidence
    N and the replications r of one primal, or of a stack of them."""
    v, b = n.shape[-2:]
    if aug.is_common:
        a_cc, t_dual, a_ct = _common_a_values(p, q, n, r)
        return a_cc, _common_a_tt(t_dual, b, aug.s), a_ct
    return _a_cc(p), *_per_block_a(*_count_free(q, n, r), v, b, aug)


def _count_free(q, n, r, gq=None) -> tuple[np.ndarray, np.ndarray]:
    """The count-free matrices of one primal, or of each in a stack, from
    Q = C_dual+, the incidence N and the replications r: the pairwise-Q
    entries above the diagonal, row by row, and the v x b control-test
    multipliers (`_ct_matrix`, given gq)."""
    return _upper(_pairwise(q)), _ct_matrix(q, n, r, gq)


def _per_block_a(tt, ct, v: int, b: int, aug: AugmentationSpec) -> tuple[np.ndarray, np.ndarray]:
    """A_tt and A_ct at per-block counts, from the `_count_free` matrices
    tt and ct of one primal or of a stack of them."""
    counts = aug.counts(b)
    total = sum(counts)
    svec = np.asarray(counts, dtype=float)
    a_tt = 2.0 + 2.0 * _sum(_upper(np.outer(svec, svec)) * tt) / (total * (total - 1.0))
    return a_tt, _sum(ct * svec, 2) / (v * total)


def _operands(ib: Intrablock, d: BlockDesign) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """P, Q, the incidence and the float replications of a primal."""
    return ib.c_plus, ib.c_dual_plus, d.incidence, np.asarray(d.replications, dtype=float)


def _memo(ib: Intrablock, d: BlockDesign, key: str, compute):
    """`compute()`, a count-free value of d, stored on ib under `key` the
    first time and read back after that. Only d's own memo, the object
    `intrablock(d)` returned, stores it; any other ib computes it again on
    each call, so a value never leaks from one design to another."""
    if d.__dict__.get("_intrablock") is not ib:
        return compute()
    memo = ib.__dict__
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def _read_only(matrices: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """matrices, each made read-only."""
    for m in matrices:
        m.setflags(write=False)
    return matrices


def _stored_count_free(ib: Intrablock, d: BlockDesign) -> tuple[np.ndarray, np.ndarray]:
    """`_count_free` of d as read-only arrays, from d's intrablock memo."""
    return _memo(ib, d, "count_free", lambda: _read_only(_count_free(*_operands(ib, d)[1:])))


def _check_counts(v: int, b: int, aug: AugmentationSpec) -> None:
    """Raise InvalidParameters unless v controls and the test treatments of
    aug over b blocks are each at least two, as the A-criteria need."""
    if v < 2:
        raise InvalidParameters("control comparisons need at least two controls")
    if aug.total(b) < 2:
        raise InvalidParameters("test comparisons need at least two test treatments")


def a_criteria(ib: Intrablock, d: BlockDesign, aug: AugmentationSpec) -> tuple[float, float, float]:
    """Average variance multipliers (cc, tt, ct) under an augmentation.

    With a common per-block count the closed trace forms apply; the cc and
    ct averages are then free of the count while the tt average is not, so
    A_cc, tr Q and A_ct are computed once per design object and kept in
    its intrablock memo. With genuinely per-block counts the pairwise
    definitions weight block pairs by the counts they carry: A_tt and A_ct
    are read off the count-free pairwise-Q and control-test matrices,
    which are built once per design object and kept in the same memo, and
    A_cc off the diagonal of P.
    """
    _check_counts(d.v, d.b, aug)
    if aug.is_common:
        a_cc, t_dual, a_ct = _memo(ib, d, "common_a", lambda: _common_a_values(*_operands(ib, d)))
        return float(a_cc), float(_common_a_tt(t_dual, d.b, aug.s)), float(a_ct)
    a_tt, a_ct = _per_block_a(*_stored_count_free(ib, d), d.v, d.b, aug)
    return float(_a_cc(ib.c_plus)), float(a_tt), float(a_ct)


def exchange_objective(p: np.ndarray, n: np.ndarray, k: int, counts, weights, j, a, t) -> np.ndarray:
    """w_cc A_cc + w_tt A_tt + w_ct A_ct, for weights (w_cc, w_tt, w_ct),
    of the designs that replace treatment a by t in block j of one
    connected primal with P = C+ and v x b float incidence n, for
    equal-length 0-based index arrays j, a, t.

    The move changes C by u y^T + y u^T, with u = e_t - e_a and
    y = (e_t + e_a)/2 - (n_j + u/2)/k. Both sum to zero, so Woodbury on
    C + J/v gives P' = P - Z D Z^T, Z = P [u, y], D = (S + W)^-1,
    W = [u, y]^T Z, S = [[0, 1], [1, 0]]. With s the per-block counts, T
    their sum and M' = I/k + N'^T P' N'/k^2, the pairwise definitions in
    `_a_values` give A_cc = 2 tr P'/(v - 1), A_ct = 1 + 1/k + tr P'/v +
    s^T diag(N'^T P' N')/(T k^2) and A_tt = 2 + 2 (T s^T diag(M') -
    s^T M' s)/(T (T - 1)). Column j of N' is n_j + u, and for vectors
    f' = f + f_j u and g' = g + g_j u Woodbury gives

        f'^T P' g' = f^T P g - (z_f^T adj z_g + f_j beta(z_g) + g_j beta(z_f) + f_j g_j w_uu)/det,

    with z_f = Z^T f, adj and det the adjugate and determinant of S + W,
    and beta(z) = (1 + w_uy) z_u - w_uu z_y. So the objective is
    V - (tr(adj [u, y]^T X [u, y]) + kappa_j w_uu + 2 beta([u, y]^T P w_j))/det,
    with A = 2 w_cc/(v - 1) + w_ct/v, c_s = (2 w_tt/(T - 1) + w_ct/T)/k^2,
    c_f = 2 w_tt/(T (T - 1) k^2), W = (c_s N - c_f N s 1^T) diag(s) with
    columns w_j, X = A P^2 + P W N^T P, kappa = c_s s - c_f s^2 and
    V = 2 w_tt + w_ct + (c_s T - c_f s^T s) k + A tr P + tr(N^T P W).

    A 2 x 2 form [u, y]^T Y [u, y] of a symmetric Y is a table over
    (t, a), from Y_tt, Y_aa and Y_ta, plus terms in Y n_j at t and at a
    and in n_j^T Y n_j. So each call builds those tables for Y = P and
    Y = X, folds the beta and kappa terms into the X row, and gathers each
    move's entries on the flat indices t v + a, t b + j and a b + j.
    Each move's value is computed elementwise from those products, so it
    does not depend on which other moves share the call. A disconnecting
    move has no meaningful value.
    """
    v, b = n.shape
    w_cc, w_tt, w_ct = weights
    s = np.asarray(counts, dtype=float)
    total = float(s.sum())
    coef_p = 2.0 * w_cc / (v - 1) + w_ct / v
    coef_s = (2.0 * w_tt / (total - 1.0) + w_ct / total) / k**2
    coef_f = 2.0 * w_tt / (total * (total - 1.0) * k**2)
    ct, ca = (k - 1) / (2 * k), (k + 1) / (2 * k)  # y = ct e_t + ca e_a - n_j / k
    pn = p @ n
    pw = (coef_s * pn - coef_f * (pn @ s)[:, None]) * s
    nw = (n * pw).sum(axis=0)
    value = 2.0 * w_tt + w_ct + (coef_s * total - coef_f * (s @ s)) * k + coef_p * p.trace() + nw.sum()
    ys = np.array((p, coef_p * (p @ p) + pw @ pn.T))  # Y = P and Y = X
    yn = ys @ n / k  # Y N / k; the X row also takes P W, for the beta terms
    gamma = (n * yn).sum(axis=1) / k  # n_j^T Y n_j / k^2; the X row also takes kappa and beta
    yn[1] += pw
    gamma[1] += (coef_s - coef_f * s) * s + 2.0 * nw / k
    # u^T Y u and the parts of u^T Y y and y^T Y y free of n_j, as tables over (t, a)
    dy = np.diagonal(ys, axis1=1, axis2=2)
    coef = np.array([[1.0, 1.0, -2.0], [ct, -ca, 1.0 / k], [ct * ct, ca * ca, 2.0 * ct * ca]])
    tables = coef[:, 2, None, None, None] * ys
    tables += (coef[:, 0, None, None] * dy)[..., None]
    tables += (coef[:, 1, None, None] * dy)[..., None, :]
    uu, uy, yy = np.take(tables.reshape(3, 2, -1), t * v + a, axis=2)
    at_t, at_a = (np.take(yn.reshape(2, -1), i * b + j, axis=1) for i in (t, a))
    uy -= at_t - at_a
    yy += np.take(gamma, j, axis=1) - 2.0 * (ct * at_t + ca * at_a)
    # row 0 holds W = [u, y]^T P [u, y]; row 1 the forms of X with the beta and kappa terms
    w_uu, w_yy, m1 = uu[0], yy[0], 1.0 + uy[0]
    return value - (w_yy * uu[1] - 2.0 * m1 * uy[1] + w_uu * yy[1]) / (w_uu * w_yy - m1 * m1)


def _gauss_jordan_inverse(a: np.ndarray) -> np.ndarray:
    """The inverse of each member of a stack-last (n, n, m) stack of SPD
    matrices, in place, by Gauss-Jordan without pivoting: every pivot of
    an SPD matrix is positive."""
    for t in range(len(a)):
        pivot = a[t, t].copy()
        a[t] /= pivot
        column = a[:, t].copy()
        column[t] = 0.0
        a -= column[:, None] * a[t]
        a[:, t] = -column / pivot
        a[t, t] = 1.0 / pivot
    return a


def stacked_criteria(n: np.ndarray, k: int, aug: AugmentationSpec) -> np.ndarray:
    """All six criteria (a_cc, a_tt, a_ct, mv_cc, mv_tt, mv_ct) of an
    (m, v, b) stack of connected primals as an (m, 6) array, to screen
    them; the values agree with `stacked_exact_criteria` to rounding only.

    It computes with the design axis last, on the (v, b, m) stack, which
    is free when n is a `np.moveaxis` view of one, and forms no inverse of
    order b. P = (C + J/v)^-1 - J/v comes from `_gauss_jordan_inverse`.
    Q = Pi_b M Pi_b with M = I/k + N^T P N / k^2 and Pi_b = I - J/b, and
    the pairwise forms and the ct forms xi = f_j - N^T R^-1 e_i of
    `_ct_matrix` all sum to zero, so they read M without Pi_b. With
    g_i = N^T R^-1 e_i, PC = I - J/v gives M g_i = (PN)_i / k +
    1/(v r_i), so the ct multipliers are 1 + (1 - 1/v)/r_i +
    g_i . (PN)_i / k + M_jj - 2 (PN)_ij / k. With s the counts and T
    their sum, A_tt = 2 + 2 (T s^T diag(M) - s^T M s)/(T (T - 1)), the
    common-count form at a common s. Only mv_tt reads all of M, of shape
    (b, b, m).
    """
    v, b = n.shape[1:]
    s = np.asarray(aug.counts(b), dtype=float)
    total = s.sum()
    nl = np.ascontiguousarray(np.moveaxis(n, 0, -1), dtype=float)
    r = nl.sum(axis=1)
    c = np.einsum("ijm,ljm->ilm", nl, nl) / -k
    c[range(v), range(v)] += r
    p = _gauss_jordan_inverse(c + 1.0 / v) - 1.0 / v
    dp = p[range(v), range(v)]
    pn = np.einsum("ilm,ljm->ijm", p, nl)
    dm = 1.0 / k + np.einsum("ijm,ijm->jm", nl, pn) / k**2
    own = (1.0 - 1.0 / v) / r + np.einsum("ijm,ijm->im", nl, pn) / (k * r)
    ct = 1.0 + own[:, None] + dm - (2.0 / k) * pn
    ns = np.einsum("ijm,j->im", nl, s)
    sms = s @ s / k + np.einsum("ilm,im,lm->m", p, ns, ns) / k**2
    tt = np.einsum("ijm,ilm->jlm", nl, pn)
    tt *= -2.0 / k**2
    tt += dm[:, None]
    tt += dm
    tt[range(b), range(b)] = 0.0
    return np.column_stack(
        (
            2.0 * dp.sum(axis=0) / (v - 1),
            2.0 + 2.0 * (total * (s @ dm) - sms) / (total * (total - 1.0)),
            np.einsum("ijm,j->m", ct, s) / (v * total),
            (dp[:, None] + dp - 2.0 * p).max(axis=(0, 1)),
            2.0 + tt.max(axis=(0, 1)),
            ct.max(axis=(0, 1)),
        )
    )


def stacked_exact_criteria(n: np.ndarray, k: int, aug: AugmentationSpec) -> np.ndarray:
    """The six values of `evaluate(d, aug)` for each member d of a stack of
    connected primals, given as an (m, v, b) float incidence with block
    size k, bit for bit, as an (m, 6) array.

    It runs the arithmetic of the single-design path on the whole stack:
    `_information`, `matrix.mp_inverse_centered` for P and Q, and
    `_a_values` and `_mv_values`. A member that fails one of that path's
    checks gets NaN values, and so does every member when a Cholesky
    factorization of the stack fails.
    """
    r = n.sum(axis=2)
    p = mp_inverse_centered(_primal_information(n, r, k))
    q = _dual_plus(p, n, r, k)
    return np.column_stack((*_a_values(p, q, n, r, aug), *_mv_values(p, q, n, r)))


def _mv_values(p, q, n, r, count_free=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The largest off-diagonal pairwise multipliers of P and Q and the
    largest control-test multiplier, of one primal or of a stack of them.
    The maxima run over whole pairwise matrices: their diagonal is exactly
    zero, below every multiplier of a connected primal, and a single
    block gives mv_tt = 2. Given the `_count_free` matrices of one primal,
    the tt maximum runs over the entries above the diagonal and zero,
    which is the same value, since Q from `intrablock` is bitwise
    symmetric."""
    if count_free is None:
        mv_tt = 2.0 + _pairwise(q).max(axis=(-2, -1))
        return _pairwise(p).max(axis=(-2, -1)), mv_tt, _ct_matrix(q, n, r).max(axis=(-2, -1))
    tt, ct = count_free
    return _pairwise(p).max(), 2.0 + tt.max(initial=0.0), ct.max()


def mv_criteria(ib: Intrablock, d: BlockDesign) -> tuple[float, float, float]:
    """Maximum variance multipliers (cc, tt, ct); these do not depend on
    how many test treatments each block receives, so they are computed
    once per design object and kept in its intrablock memo, the tt and ct
    maxima from the count-free matrices stored there."""
    if d.v < 2:
        raise InvalidParameters("control comparisons need at least two controls")
    return _memo(
        ib, d, "mv", lambda: tuple(float(x) for x in _mv_values(*_operands(ib, d), _stored_count_free(ib, d)))
    )


def evaluate(d: BlockDesign, aug: AugmentationSpec) -> CriteriaReport:
    """Full report of the A- and MV-criteria for a primal. At a common
    count, on a memo that holds neither the common-count values nor the
    count-free matrices, both are stored from one product G Q, G = N / r,
    which each would otherwise form; they are the same bits either way."""
    ib = intrablock(d)
    memo = ib.__dict__
    if aug.is_common and "common_a" not in memo and "count_free" not in memo:
        _check_counts(d.v, d.b, aug)  # before anything is stored, as in a_criteria
        p, q, n, r = _operands(ib, d)
        gq = (n / r[:, None]) @ q
        _memo(ib, d, "common_a", lambda: _common_a_values(p, q, n, r, gq))
        _memo(ib, d, "count_free", lambda: _read_only(_count_free(q, n, r, gq)))
    return CriteriaReport(*a_criteria(ib, d, aug), *mv_criteria(ib, d))
