"""Ground truth for the closed-form criteria.

`build_model` lays out the fixed-effects model of an augmented design as
one (block column, effect column) pair per plot: a control plot in block
j carries block effect j and its control effect, a test plot block
effect j and its own (unreplicated) effect. The n_plots x p model matrix
X is never built. `gls_variance` computes the exact GLS variance of one
treatment contrast, given as one coefficient per control and then per
test, from a Moore-Penrose inverse of X^T X; no command calls it, nor
`enumerate_class`, and both stay for the benchmark's tracer.

Each test has one plot, so the test block of X^T X is the identity, and
eliminating the tests (Federer 1956) leaves S, the information of the
control plots alone, of order b + v: blocks, then controls. With B the
(b + v) x T map of each test to its block,

    X^T X = [[S + B B^T, B], [B^T, I]],

and G = [[S+, -S+ B], [-B^T S+, I + B^T S+ B]] is a g-inverse of it.
`build_model` pseudo-inverts S, which is singular exactly because block
and control effects are aliased within each connected component of the
plot structure, without any eigensolver: label each parameter with its
component, take the columns of +1 on a component's blocks and -1 on its
controls, normalized, as the orthonormal null basis, add its rank-one
pieces, invert with the dense routine, and subtract the same pieces
again. X^T X and its Moore-Penrose inverse P G P, P the projector off
the order-p null basis, are formed only when read.

`verify_design` checks all pairs at once from S+ alone. Two controls
differ by the pairwise form of its control block, two tests in blocks
j != j' by 2 plus that of its block block at (j, j'), two tests of one
block by 2 exactly, and control i and a test of block j by
1 + S+_ii + S+_jj + 2 S+_ij. A contrast is estimable when X^T X G maps it
to itself; X^T X G - I is zero but for [E, -E B] in its first b + v rows,
E = S S+ - I, so the largest row range of E over the control columns and
the negated block columns is the largest residual of any pair; every
block holds a test, so every block column is among them.

One walk enumerates a small class, so that bounds and criterion minima
can be checked exhaustively: a design is a multiset of b blocks from the
pool of k-multisets over 1..v, walked as non-decreasing tuples of pool
indices WALK_SLICE designs at a time. The enumeration cap bounds the
pool's blocks and plots and the number of designs, and a class of more
than `criteria.MAX_ORDER` blocks is rejected, all before the pool or a
slice is built. Each slice's links are a gather of pool columns with the
design axis last, shape (v, b, m), and `design.stacked_connected`
decides the connectivity of the whole slice at once. `enumerate_class`
builds a design object per yielded design, `class_counts` builds none,
and `class_minima` screens the connected designs in stack-last chunks
with `criteria.stacked_criteria`, admits by one running floor per
criterion only those that could move a minimum, scores them exactly in
one stacked call per chunk of admitted designs, usually one per class,
and builds a design object only for an argmin, so its minima and
argmins are those of one exact score per design.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from . import criteria
from .design import AugmentationSpec, BlockDesign, _comb_within, can_connect, components, stacked_connected
from .errors import (
    ClassTooLarge,
    DimensionMismatch,
    Disconnected,
    InvalidParameters,
    NotEstimable,
)
from .matrix import SymMatrix, invert
from .search import MOVE_TOL, SCREEN_TOL

DEFAULT_ENUM_CAP = 10_000_000
# The default plot cap covers every lattice q <= 13 and its dual at s <= 3.
DEFAULT_PLOT_CAP = 2_950
# The largest order p = b + v + T of X^T X that build_model accepts. A
# model's `info` and `info_pinv`, and so `gls_variance`, are of order p;
# q = 13 at s = 5 has p = 1,261.
MAX_PARAMETERS = 1_300
ESTIMABLE_TOL = 1e-8
# Designs per slice of the index walk over a class.
WALK_SLICE = 4096
# Connected designs per stacked screen, and per stacked exact call, in
# class_minima, at most; a chunk holds at most CHUNK_BUDGET // (v + b)^2
# designs, so that its (v + b)^2 floats per design stay near
# CHUNK_BUDGET floats.
CHUNK = 512
CHUNK_BUDGET = 2**21

CRITERION_NAMES = ("a_cc", "a_tt", "a_ct", "mv_cc", "mv_tt", "mv_ct")


@dataclass(frozen=True, eq=False)
class AugmentedModel:
    """Plot layout of an augmented design and the pseudo-inverse of its
    control-plot information.

    Parameter layout: b block effects, then v control effects, then one
    effect per test treatment, blockwise. `plots` holds the (block column,
    effect column) pair of every control plot and then of every test
    plot, block by block. A contrast for `gls_variance` has one
    coefficient per control and then one per test, in that same blockwise
    order.

    `control_info` is S, X^T X of the control plots alone, of order b + v,
    and `control_pinv` its Moore-Penrose inverse S+; `null_basis` is the
    orthonormal basis of the null space of X^T X, one column per
    component. `info` (X^T X, accumulated from `plots`) and `info_pinv`
    (its Moore-Penrose inverse, P G P with G the g-inverse built from S+
    and P = I - `null_basis` `null_basis`^T) are of order p = b + v + T
    and are computed when first read.
    """

    design: BlockDesign
    aug: AugmentationSpec
    plots: np.ndarray
    control_info: np.ndarray
    control_pinv: np.ndarray
    null_basis: np.ndarray

    @property
    def n_tests(self) -> int:
        return self.aug.total(self.design.b)

    @cached_property
    def info(self) -> np.ndarray:
        return _information(self.plots, len(self.null_basis))

    @cached_property
    def info_pinv(self) -> np.ndarray:
        sp = self.control_pinv
        slot = self.plots[len(self.plots) - self.n_tests :, 0]
        cross = sp[:, slot]
        g = np.block([[sp, -cross], [-cross.T, np.eye(len(slot)) + sp[np.ix_(slot, slot)]]])
        proj = np.eye(len(g)) - self.null_basis @ self.null_basis.T
        return proj @ g @ proj


def _information(plots: np.ndarray, order: int) -> np.ndarray:
    """X^T X of the plots, given as (block column, effect column) pairs:
    M + M^T + diag(plots per column), M counting the pairs."""
    info = np.zeros((order, order))
    np.add.at(info, (plots[:, 0], plots[:, 1]), 1.0)
    info += info.T
    info[np.diag_indices(order)] = np.bincount(plots.ravel(), minlength=order)
    return info


def _null_basis(label: np.ndarray, b: int, n_comp: int) -> np.ndarray:
    """The orthonormal null basis of an information matrix whose first b
    parameters are blocks: per component, +1 on its blocks and -1 on its
    other parameters, normalized, from each parameter's component label."""
    basis = np.zeros((len(label), n_comp))
    basis[np.arange(len(label)), label] = np.where(np.arange(len(label)) < b, 1.0, -1.0)
    basis /= np.sqrt(np.bincount(label))
    return basis


def build_model(
    d: BlockDesign, aug: AugmentationSpec, max_plots: int = DEFAULT_PLOT_CAP
) -> AugmentedModel:
    """Lay out the plots and pseudo-invert the control-plot information S,
    of order b + v, without forming X or anything of order p.

    The plot cap is checked first, then a design with more treatments
    than control plots is rejected as disconnected, and then a model
    whose order p = b + v + T exceeds MAX_PARAMETERS, before anything of
    order b + v is built.
    """
    counts = aug.counts(d.b)
    n_controls = sum(d.block_sizes)
    n_plots = n_controls + sum(counts)
    if n_plots > max_plots:
        raise InvalidParameters(f"model would need {n_plots} plots, cap is {max_plots}")
    if d.v > n_controls:
        raise Disconnected(f"{d.v} treatments cannot all occur in {n_controls} control plots")
    b, v = d.b, d.v
    p = b + v + sum(counts)
    if p > MAX_PARAMETERS:
        raise InvalidParameters(f"model would have {p} parameters, more than {MAX_PARAMETERS}")
    test_block = np.repeat(np.arange(b), counts)
    block_col = np.concatenate((np.repeat(np.arange(b), d.block_sizes), test_block))
    effect_col = np.concatenate((np.concatenate(d.blocks) + (b - 1), np.arange(b + v, p)))
    plots = np.column_stack((block_col, effect_col))
    comp_block, comp_control, n_comp = components(d)
    label = np.concatenate((comp_block, comp_control))
    basis = _null_basis(label, b, n_comp)
    shift = basis @ basis.T
    control_info = _information(plots[:n_controls], b + v)
    control_pinv = invert(SymMatrix(control_info + shift)).a - shift
    null_basis = _null_basis(np.concatenate((label, label[test_block])), b, n_comp)
    return AugmentedModel(d, aug, plots, control_info, control_pinv, null_basis)


def gls_variance(m: AugmentedModel, contrast) -> float:
    """Exact variance multiplier of a treatment contrast, in sigma^2 units.

    `contrast` holds one coefficient per control followed by one per test
    treatment (blockwise); block effects are nuisance and implicitly carry
    zero. Raises NotEstimable when the contrast is outside the row space
    of the model matrix.
    """
    c = np.asarray(contrast, dtype=float)
    b = m.design.b
    expected = len(m.info) - b
    if c.shape != (expected,):
        raise DimensionMismatch(f"expected {expected} coefficients, got shape {c.shape}")
    full = np.concatenate([np.zeros(b), c])
    solved = m.info_pinv @ full
    residual = float(np.max(np.abs(m.info @ solved - full)))
    if residual > ESTIMABLE_TOL:
        raise NotEstimable(f"contrast not estimable (projection residual {residual:.3e})")
    return float(full @ solved)


@dataclass(frozen=True)
class VerificationReport:
    """Worst absolute gaps between closed-form and GLS variances."""

    max_dev_cc: float
    max_dev_tt_same: float
    max_dev_tt_cross: float
    max_dev_ct: float
    n_contrasts: int

    @property
    def max_deviation(self) -> float:
        return max(self.max_dev_cc, self.max_dev_tt_same, self.max_dev_tt_cross, self.max_dev_ct)


def verify_design(
    d: BlockDesign, aug: AugmentationSpec, max_plots: int = DEFAULT_PLOT_CAP
) -> VerificationReport:
    """Compare every cc, tt and ct contrast variance of the closed forms
    against the plot-level GLS value, all pairs at once from the model's
    S+: controls against `criteria.v_cc_matrix`, tests in different
    blocks against 2 + `criteria.v_tt_matrix` per block pair, control-test
    pairs against `criteria.v_ct_matrix` per control and block. Two tests
    of one block differ only in their own effects, so their GLS variance
    is 2 exactly, as the closed form says. Estimability is read off
    S S+ - I, and nothing of order p is formed. `build_model` runs first,
    so its guards precede anything of order v or b."""
    model = build_model(d, aug, max_plots=max_plots)
    ib = criteria.intrablock(d)
    b, v = d.b, d.v
    sp = model.control_pinv
    residual = model.control_info @ sp
    residual[np.diag_indices(b + v)] -= 1.0
    residual[:, :b] *= -1.0  # a test of block j has the negated column j
    worst = float(np.max(np.ptp(residual, axis=1)))
    if worst > ESTIMABLE_TOL:
        raise NotEstimable(f"some contrast is not estimable (projection residual {worst:.3e})")
    # the 2 of both sides of a test pair cancels
    dev_tt = np.abs(criteria._pairwise(sp[:b, :b]) - criteria.v_tt_matrix(ib))
    np.fill_diagonal(dev_tt, 0.0)
    dg = np.diagonal(sp)
    gls_ct = 1.0 + dg[b:, None] + dg[:b] + 2.0 * sp[b:, :b]
    tests = model.n_tests
    return VerificationReport(
        max_dev_cc=float(np.max(np.abs(criteria._pairwise(sp[b:, b:]) - criteria.v_cc_matrix(ib)))),
        max_dev_tt_same=0.0,
        max_dev_tt_cross=float(np.max(dev_tt)),
        max_dev_ct=float(np.max(np.abs(gls_ct - criteria.v_ct_matrix(ib, d)))),
        n_contrasts=math.comb(v, 2) + math.comb(tests, 2) + v * tests,
    )


def _class_size(b: int, v: int, k: int, cap: int) -> int:
    """Number of designs with b blocks of size k on v treatments, after
    checking the parameters. The cap bounds the candidate blocks, their
    plots and the designs; a design of more than `criteria.MAX_ORDER`
    blocks could not be scored, so such a class is not walked either."""
    if b < 1 or v < 1 or k < 1:
        raise InvalidParameters(f"need b, v, k >= 1; got ({b}, {v}, {k})")
    n_blocks = _comb_within(v + k - 1, k, cap, "candidate blocks")
    if n_blocks * k > cap:
        raise ClassTooLarge(f"{n_blocks} candidate blocks of {k} plots: more pool plots than the cap {cap}")
    n_designs = _comb_within(n_blocks + b - 1, b, cap, "designs")
    if b > criteria.MAX_ORDER:
        raise ClassTooLarge(f"{b} blocks: classes of more than {criteria.MAX_ORDER} blocks are not walked")
    return n_designs


class _ClassWalk:
    """The designs of a class, walked by index in enumeration order.

    The pool holds the k-multisets over 1..v in lexicographic order. A
    design is a non-decreasing b-tuple of pool indices, so the designs are
    `itertools.combinations_with_replacement(range(n_pool), b)` and the
    incidence of a stack of them is a gather of pool columns; no design
    object is built until one is asked for.
    """

    def __init__(self, b: int, v: int, k: int, cap: int):
        self.n_designs = _class_size(b, v, k, cap)
        self.b, self.v, self.k = b, v, k
        self.pool = list(itertools.combinations_with_replacement(range(1, v + 1), k))

    @cached_property
    def pool_counts(self) -> np.ndarray:
        """The (v, n_pool) float incidence counts of the pool, built when
        first read; a class without connected designs never reads them."""
        labels = np.fromiter(itertools.chain.from_iterable(self.pool), dtype=np.intp)
        counts = np.zeros((self.v, len(self.pool)))
        np.add.at(counts, (labels - 1, np.arange(len(self.pool)).repeat(self.k)), 1.0)
        return counts

    @cached_property
    def pool_links(self) -> np.ndarray:
        """`pool_counts` as booleans: whether each treatment is in each
        pool block."""
        return self.pool_counts > 0

    def slices(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The designs WALK_SLICE at a time: an (m, b) array of pool indices
        and the (m,) mask of the connected ones. When the class fails
        `can_connect`, the mask is all False without any reachability run."""
        b = self.b
        flat = itertools.chain.from_iterable(itertools.combinations_with_replacement(range(len(self.pool)), b))
        possible = can_connect(self.v, b, b * self.k)
        while (idx := np.fromiter(itertools.islice(flat, WALK_SLICE * b), dtype=np.intp)).size:
            idx = idx.reshape(-1, b)
            if possible:
                yield idx, stacked_connected(np.moveaxis(self.stack(self.pool_links, idx), -1, 0))
            else:
                yield idx, np.zeros(len(idx), bool)

    @staticmethod
    def stack(pool: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """The columns of a (v, n_pool) pool array for the designs with
        pool indices idx, shape (m, b): a contiguous (v, b, m) stack, the
        design axis last."""
        return np.take(pool, idx.T, axis=1)

    def incidence(self, idx: np.ndarray) -> np.ndarray:
        """The contiguous (m, v, b) float incidence of the designs with
        pool indices idx."""
        return np.ascontiguousarray(np.moveaxis(self.stack(self.pool_counts, idx), -1, 0))

    def design(self, row) -> BlockDesign:
        return BlockDesign(self.v, tuple(self.pool[i] for i in row))


def enumerate_class(
    b: int, v: int, k: int, connected_only: bool = False, cap: int = DEFAULT_ENUM_CAP
) -> Iterator[BlockDesign]:
    """Yield every design with b blocks of size k on v treatments, or only
    the connected ones.

    Blocks are k-multisets over 1..v and a design is a multiset of such
    blocks, so non-binary and non-equireplicate designs are included and
    each design appears exactly once. Connectivity is decided per slice of
    the index walk by `stacked_connected`.
    """
    walk = _ClassWalk(b, v, k, cap)
    for idx, connected in walk.slices():
        for row, ok in zip(idx.tolist(), connected.tolist()):
            if ok or not connected_only:
                yield walk.design(row)


def class_counts(b: int, v: int, k: int, cap: int = DEFAULT_ENUM_CAP) -> tuple[int, int]:
    """Number of designs of a class and number of connected ones."""
    walk = _ClassWalk(b, v, k, cap)
    return walk.n_designs, sum(int(connected.sum()) for _, connected in walk.slices())


@dataclass(frozen=True)
class ClassMinima:
    """Exact criterion minima over the connected designs of one class."""

    b: int
    v: int
    k: int
    n_designs: int
    n_connected: int
    minima: dict[str, float]
    argmin: dict[str, BlockDesign]


def class_minima(
    b: int, v: int, k: int, aug: AugmentationSpec, cap: int = DEFAULT_ENUM_CAP
) -> ClassMinima:
    """Minimize all six criteria over the connected designs of a class,
    recording per criterion the first minimizing design in enumeration
    order, with values within MOVE_TOL counted as ties.

    Connected designs are screened with `criteria.stacked_criteria` in
    chunks of at most CHUNK designs, fewer when (v + b)^2 floats per
    design would pass CHUNK_BUDGET. One running floor per criterion, the
    smallest screened value of every earlier connected design, admits a
    design when some screened value is NaN or lies below floor +
    2 SCREEN_TOL max(1, |floor|). After the walk, the admitted designs are
    scored by `criteria.stacked_exact_criteria`, one chunk at a time,
    which gives each the bits of its per-design `criteria.evaluate(d,
    aug)`, and folded into the minima in enumeration order from exact
    values only. This is exact: a design d updates only if exact(d) <
    best_t - MOVE_TOL, best_t being the running best before it, and best_t
    - MOVE_TOL <= exact(e) for every earlier design e, since the running
    best is at most exact(e) + MOVE_TOL once e is scored and never rises.
    So exact(d) < exact(e), and with the screen's drift below SCREEN_TOL
    max(1, |value|), screened(d) < screened(e) + 2 SCREEN_TOL max(1,
    |screened(e)|): the floor admits every design that would update, and
    skipping the rest moves no running best. A design whose exact row
    holds NaN (a failed check), or every design of a stack whose Cholesky
    factorization fails, is scored alone by `evaluate` instead, which
    raises the check's error. A design object is built only for a new
    argmin.
    """
    walk = _ClassWalk(b, v, k, cap)
    if can_connect(v, b, b * k):  # a connected design exists, so a_criteria's checks apply
        criteria._check_counts(v, b, aug)
    chunk = max(1, min(CHUNK, CHUNK_BUDGET // (v + b) ** 2))
    floor = np.full(len(CRITERION_NAMES), np.inf)
    pending = np.empty((0, b), dtype=np.intp)
    admitted = [pending]
    n_connected = 0
    for idx, connected in walk.slices():
        n_connected += int(connected.sum())
        pending = np.concatenate((pending, idx[connected]))
        while len(pending) >= chunk:
            admitted.append(_admit(walk, pending[:chunk], aug, floor))
            pending = pending[chunk:]
    if len(pending):
        admitted.append(_admit(walk, pending, aug, floor))
    rows = np.concatenate(admitted)
    best: dict[str, float] = {}
    arg: dict[str, BlockDesign] = {}
    for start in range(0, len(rows), chunk):
        _fold(walk, rows[start : start + chunk], aug, best, arg)
    return ClassMinima(b, v, k, walk.n_designs, n_connected, best, arg)


def _admit(walk: _ClassWalk, rows: np.ndarray, aug: AugmentationSpec, floor: np.ndarray) -> np.ndarray:
    """The pool index rows, of a chunk of connected designs, that the
    running floor of `class_minima` admits; the floor is lowered in place
    to cover the chunk."""
    screened = criteria.stacked_criteria(np.moveaxis(walk.stack(walk.pool_counts, rows), -1, 0), walk.k, aug)
    earlier = np.fmin.accumulate(np.vstack((floor, screened)))
    floor[:] = earlier[-1]
    earlier = earlier[:-1]
    admit = np.isnan(screened) | (screened < earlier + 2.0 * SCREEN_TOL * np.maximum(1.0, np.abs(earlier)))
    return rows[admit.any(axis=1)]


def _fold(
    walk: _ClassWalk,
    rows: np.ndarray,
    aug: AugmentationSpec,
    best: dict[str, float],
    arg: dict[str, BlockDesign],
) -> None:
    """Score admitted designs, given by their pool index rows, exactly in
    one stacked call and fold them into the running minima in order."""
    exact = criteria.stacked_exact_criteria(walk.incidence(rows), walk.k, aug)
    for row, values, failed in zip(rows, exact.tolist(), np.isnan(exact).any(axis=1).tolist()):
        d = None
        if failed:
            d = walk.design(row)
            report = criteria.evaluate(d, aug)
            values = [getattr(report, name) for name in CRITERION_NAMES]
        for name, value in zip(CRITERION_NAMES, values):
            if name not in best or value < best[name] - MOVE_TOL:
                d = d or walk.design(row)
                best[name] = value
                arg[name] = d
