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
2 + V_tt(j, j'); within a single block it is exactly 2. The A-criteria
average these multipliers over all pairs of the given type, the
MV-criteria take the maximum; none of this ever touches observed yields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import AugmentationSpec, BlockDesign, is_connected
from .errors import (
    Disconnected,
    IndexOutOfRange,
    InvalidParameters,
    NonUniformBlockSize,
    NotEquireplicate,
    SameIndex,
)
from .matrix import SymMatrix, mp_inverse_centered, quad_form, trace


@dataclass(frozen=True, eq=False)
class Intrablock:
    """Information matrices of a primal and of its dual, together with
    their Moore-Penrose inverses and the common block size."""

    c: SymMatrix
    c_dual: SymMatrix
    c_plus: SymMatrix
    c_dual_plus: SymMatrix
    k: int


@dataclass(frozen=True)
class CriteriaReport:
    """Average and maximum contrast-variance multipliers, in sigma^2 units."""

    a_cc: float
    a_tt: float
    a_ct: float
    mv_cc: float
    mv_tt: float
    mv_ct: float


@dataclass(frozen=True)
class PartialReplicationReport:
    """Criteria for the no-controls variant in which some test treatments
    receive two plots: the twice-replicated subdesign plays the primal's
    role, so rr/rt replace cc/ct while tt keeps its meaning."""

    a_rr: float
    a_tt: float
    a_rt: float
    mv_rr: float
    mv_tt: float
    mv_rt: float


def intrablock(d: BlockDesign) -> Intrablock:
    """Build both information matrices and their Moore-Penrose inverses.

    Requires a connected design with constant block size.
    """
    k = d.uniform_block_size()
    if k is None:
        raise NonUniformBlockSize(f"block sizes {sorted(set(d.block_sizes))} are not constant")
    if not is_connected(d):
        raise Disconnected("criteria are defined only for connected primals")
    n = d.incidence.astype(float)
    r = np.asarray(d.replications, dtype=float)
    c = SymMatrix(np.diag(r) - (n @ n.T) / k)
    c_dual = SymMatrix(k * np.eye(d.b) - n.T @ (n / r[:, None]))
    return Intrablock(
        c=c,
        c_dual=c_dual,
        c_plus=mp_inverse_centered(c, d.v),
        c_dual_plus=mp_inverse_centered(c_dual, d.b),
        k=k,
    )


def _check_index(value: int, limit: int, what: str) -> None:
    if not 1 <= value <= limit:
        raise IndexOutOfRange(f"{what} index {value} outside 1..{limit}")


def _check_pair(a: int, b: int, limit: int, what: str) -> None:
    _check_index(a, limit, what)
    _check_index(b, limit, what)
    if a == b:
        raise SameIndex(f"{what} indices must differ, both are {a}")


def _pair_value(p: SymMatrix, a: int, b: int) -> float:
    m = p.a
    return float(m[a, a] + m[b, b] - 2.0 * m[a, b])


def v_cc(ib: Intrablock, i: int, i_star: int) -> float:
    """Variance multiplier of a control-vs-control comparison."""
    _check_pair(i, i_star, ib.c_plus.order, "control")
    return _pair_value(ib.c_plus, i - 1, i_star - 1)


def v_tt(ib: Intrablock, j: int, j_star: int) -> float:
    """Block-contrast part of a cross-block test-vs-test comparison; the
    total variance multiplier is 2 + v_tt."""
    _check_pair(j, j_star, ib.c_dual_plus.order, "block")
    return _pair_value(ib.c_dual_plus, j - 1, j_star - 1)


def v_ct(ib: Intrablock, d: BlockDesign, i: int, j: int) -> float:
    """Variance multiplier of comparing control i against a test treatment
    placed in block j."""
    _check_index(i, d.v, "control")
    _check_index(j, d.b, "block")
    r_i = d.replications[i - 1]
    xi = -d.incidence[i - 1].astype(float) / r_i
    xi[j - 1] += 1.0
    return 1.0 + 1.0 / r_i + quad_form(ib.c_dual_plus, xi)


def _pairwise(m: np.ndarray) -> np.ndarray:
    """(e_a - e_b)^T M (e_a - e_b) for every pair (a, b) of a symmetric M."""
    dg = np.diag(m)
    return dg[:, None] + dg[None, :] - 2.0 * m


def v_cc_matrix(ib: Intrablock) -> np.ndarray:
    """All pairwise control-control multipliers (zero diagonal)."""
    return _pairwise(ib.c_plus.a)


def v_tt_matrix(ib: Intrablock) -> np.ndarray:
    """All pairwise block-contrast parts of test-test comparisons."""
    return _pairwise(ib.c_dual_plus.a)


def v_ct_matrix(ib: Intrablock, d: BlockDesign) -> np.ndarray:
    """v x b matrix of control-vs-test multipliers."""
    q = ib.c_dual_plus.a
    r = np.asarray(d.replications, dtype=float)
    g = d.incidence / r[:, None]
    gq = g @ q
    own = np.einsum("ij,ij->i", gq, g)
    return 1.0 + (1.0 / r)[:, None] + np.diag(q)[None, :] - 2.0 * gq + own[:, None]


def a_criteria(ib: Intrablock, d: BlockDesign, aug: AugmentationSpec) -> tuple[float, float, float]:
    """Average variance multipliers (cc, tt, ct) under an augmentation.

    With a common per-block count the closed trace forms apply; the cc and
    ct averages are then free of the count while the tt average is not.
    With genuinely per-block counts the pairwise definitions are evaluated
    directly, weighting block pairs by the counts they carry.
    """
    v, b = d.v, d.b
    if v < 2:
        raise InvalidParameters("control comparisons need at least two controls")
    counts = aug.counts(b)
    total = sum(counts)
    if total < 2:
        raise InvalidParameters("test comparisons need at least two test treatments")
    a_cc = 2.0 * trace(ib.c_plus) / (v - 1)
    if aug.is_common:
        s = aug.s
        t_dual = trace(ib.c_dual_plus)
        a_tt = 2.0 * (1.0 + s / (b * s - 1.0) * t_dual)
        r = np.asarray(d.replications, dtype=float)
        g = d.incidence / r[:, None]
        sandwich = float(np.sum((g @ ib.c_dual_plus.a) * g))
        a_ct = 1.0 + float(np.mean(1.0 / r)) + t_dual / b + sandwich / v
    else:
        svec = np.asarray(counts, dtype=float)
        iu = np.triu_indices(b, k=1)
        weighted = np.outer(svec, svec)[iu] * v_tt_matrix(ib)[iu]
        a_tt = 2.0 + 2.0 * float(np.sum(weighted)) / (total * (total - 1.0))
        a_ct = float(np.sum(v_ct_matrix(ib, d) * svec[None, :])) / (v * total)
    return a_cc, a_tt, a_ct


def dual_inverse(p: np.ndarray, n: np.ndarray, k: int) -> np.ndarray:
    """Q = C_dual+ from P = C+ through the identity

        Q = Pi_b (I/k + N^T P N / k^2) Pi_b,   Pi_b = I - J/b,

    for one v x b incidence N with block size k, or for a stack of them
    (shape (m, v, b), with P of shape (m, v, v)).
    """
    b = n.shape[-1]
    q = np.swapaxes(n, -1, -2) @ p @ n / k**2
    q[..., range(b), range(b)] += 1.0 / k
    q -= q.mean(axis=-1, keepdims=True)
    q -= q.mean(axis=-2, keepdims=True)
    return q


def stacked_a_criteria(n: np.ndarray, k: int, counts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A-criteria (cc, tt, ct) of a stack of connected primals, given as
    an (m, v, b) float incidence with block size k, under the per-block
    test-treatment counts `counts`.

    One stacked inverse of C + J/v gives every P; Q follows from
    `dual_inverse`. With s the count vector, T its sum and G = R^-1 N,

        A_tt = 2 + 2 (T s^T diag(Q) - s^T Q s) / (T (T - 1))
        A_ct = 1 + mean(1/r) + s^T diag(Q) / T - 2 (1^T G Q s) / (v T) + tr(G Q G^T) / v

    which is the pairwise definition for per-block counts and reduces to
    the trace forms of `a_criteria` when the counts are equal. The stack
    is not checked for connectivity; a disconnected member has no
    meaningful value.
    """
    _, v, b = n.shape
    r = n.sum(axis=2)
    c = -(n @ np.swapaxes(n, 1, 2)) / k
    c[:, range(v), range(v)] += r
    p = np.linalg.inv(c + 1.0 / v) - 1.0 / v
    q = dual_inverse(p, n, k)
    s = np.asarray(counts, dtype=float)
    total = float(s.sum())
    s_diag = np.diagonal(q, axis1=1, axis2=2) @ s
    a_cc = 2.0 * np.trace(p, axis1=1, axis2=2) / (v - 1)
    a_tt = 2.0 + 2.0 * (total * s_diag - (q @ s) @ s) / (total * (total - 1.0))
    g = n / r[:, :, None]
    gq = g @ q
    a_ct = (
        1.0
        + np.mean(1.0 / r, axis=1)
        + s_diag / total
        - 2.0 * (gq.sum(axis=1) @ s) / (v * total)
        + np.sum(gq * g, axis=(1, 2)) / v
    )
    return a_cc, a_tt, a_ct


def mv_criteria(ib: Intrablock, d: BlockDesign) -> tuple[float, float, float]:
    """Maximum variance multipliers (cc, tt, ct); these do not depend on
    how many test treatments each block receives."""
    if d.v < 2:
        raise InvalidParameters("control comparisons need at least two controls")
    iu_v = np.triu_indices(d.v, k=1)
    mv_cc = float(np.max(v_cc_matrix(ib)[iu_v]))
    if d.b >= 2:
        iu_b = np.triu_indices(d.b, k=1)
        mv_tt = 2.0 + float(np.max(v_tt_matrix(ib)[iu_b]))
    else:
        mv_tt = 2.0
    mv_ct = float(np.max(v_ct_matrix(ib, d)))
    return mv_cc, mv_tt, mv_ct


def equireplicate_identities(
    ib: Intrablock, d: BlockDesign
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Both sides of the two trace identities available when every
    replication count equals a common r:

        tr(C_dual+)               = (r/k) tr(C+) + (b - v)/k
        tr(R^-1 N C_dual+ N^T R^-1) = (v/b) tr(C_dual+) - (b - 1)/r

    Returns ((lhs1, rhs1), (lhs2, rhs2)) for assertion by the caller.
    """
    reps = set(d.replications)
    if len(reps) != 1:
        raise NotEquireplicate(f"replication counts {sorted(reps)} differ")
    r = reps.pop()
    t_c = trace(ib.c_plus)
    t_dual = trace(ib.c_dual_plus)
    first = (t_dual, (r / ib.k) * t_c + (d.b - d.v) / ib.k)
    g = d.incidence / float(r)
    sandwich = float(np.sum((g @ ib.c_dual_plus.a) * g))
    second = (sandwich, (d.v / d.b) * t_dual - (d.b - 1) / r)
    return first, second


def criteria_report(ib: Intrablock, d: BlockDesign, aug: AugmentationSpec) -> CriteriaReport:
    """The A- and MV-criteria of a primal whose intrablock matrices are `ib`."""
    return CriteriaReport(*a_criteria(ib, d, aug), *mv_criteria(ib, d))


def evaluate(d: BlockDesign, aug: AugmentationSpec) -> CriteriaReport:
    """Full report of the A- and MV-criteria for a primal."""
    return criteria_report(intrablock(d), d, aug)


def partial_replication_eval(d_rep: BlockDesign, aug: AugmentationSpec) -> PartialReplicationReport:
    """Evaluate the twice-replicated subdesign exactly like a primal and
    relabel the report: rr for cc, rt for ct."""
    rep = evaluate(d_rep, aug)
    return PartialReplicationReport(
        a_rr=rep.a_cc,
        a_tt=rep.a_tt,
        a_rt=rep.a_ct,
        mv_rr=rep.mv_cc,
        mv_tt=rep.mv_tt,
        mv_rt=rep.mv_ct,
    )
