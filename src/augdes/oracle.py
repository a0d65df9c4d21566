"""Ground truth for the closed-form criteria.

`build_model` lays out the fixed-effects model of an augmented design as
one (block column, effect column) pair per plot: a control plot in block
j carries block effect j and its control effect, a test plot block
effect j and its own (unreplicated) effect. X^T X is accumulated from
those pairs; the n_plots x p model matrix X is built only when
`AugmentedModel.x` is read. `gls_variance` computes the exact GLS
variance of one treatment contrast from a Moore-Penrose inverse of X^T X.

X^T X is singular exactly because block and treatment effects are
aliased within each connected component of the plot structure. Its
pseudo-inverse is therefore obtained without any eigensolver: label each
parameter with its component, take the columns of +1 on a component's
blocks and -1 on its controls and tests, normalized, as the orthonormal
null basis, add its rank-one pieces, invert with the dense routine, and
subtract the same pieces again.

`verify_design` checks all pairs at once: with G the treatment block of
that pseudo-inverse, diag(G) 1^T + 1 diag(G)^T - 2G holds every pairwise
GLS variance, and the largest row range of X^T X G' - I' over the
treatment columns is the largest projection residual of any pair.

`enumerate_class` walks every design of a small class, blockwise and as a
multiset of blocks, so that bounds and criterion minima can be checked
exhaustively. `class_minima` scores the connected designs of the walk in
stacked chunks and scores exactly only those that could move a minimum,
so its minima and argmins are those of one exact score per design.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from . import criteria
from .design import AugmentationSpec, BlockDesign, components, is_connected
from .errors import (
    ClassTooLarge,
    DimensionMismatch,
    Disconnected,
    IndexOutOfRange,
    InvalidParameters,
    NotEstimable,
)
from .matrix import SymMatrix, invert
from .search import MOVE_TOL, SCREEN_TOL

DEFAULT_ENUM_CAP = 10_000_000
DEFAULT_PLOT_CAP = 200
ESTIMABLE_TOL = 1e-8
# Connected designs scored per stacked evaluation in class_minima.
CHUNK = 512

CRITERION_NAMES = ("a_cc", "a_tt", "a_ct", "mv_cc", "mv_tt", "mv_ct")


@dataclass(frozen=True, eq=False)
class AugmentedModel:
    """Plot layout of an augmented design, its information matrix X^T X
    and the pseudo-inverse of that matrix.

    Parameter layout: b block effects, then v control effects, then one
    effect per test treatment, blockwise. `plots` holds the (block column,
    effect column) pair of every control plot and then of every test
    plot, block by block; `info` is accumulated from it and `x` is built
    from it when read. `test_offsets[j]` is the position of block j+1's
    first test effect among the (control, test) coefficients, counted
    after the v controls.
    """

    design: BlockDesign
    aug: AugmentationSpec
    plots: np.ndarray
    info: np.ndarray
    info_pinv: np.ndarray
    test_offsets: tuple[int, ...]

    @cached_property
    def x(self) -> np.ndarray:
        """The n_plots x p model matrix: a one in each plot's two columns."""
        x = np.zeros((len(self.plots), len(self.info)))
        x[np.arange(len(self.plots))[:, None], self.plots] = 1.0
        return x

    @property
    def n_tests(self) -> int:
        return self.aug.total(self.design.b)

    def _test_pos(self, j: int, w: int) -> int:
        counts = self.aug.counts(self.design.b)
        if not 1 <= j <= self.design.b:
            raise IndexOutOfRange(f"block index {j} outside 1..{self.design.b}")
        if not 1 <= w <= counts[j - 1]:
            raise IndexOutOfRange(f"test slot {w} outside 1..{counts[j - 1]} in block {j}")
        return self.design.v + self.test_offsets[j - 1] + (w - 1)

    def _contrast(self, plus: int, minus: int) -> np.ndarray:
        c = np.zeros(self.design.v + self.n_tests)
        c[plus] = 1.0
        c[minus] -= 1.0
        return c

    def cc_contrast(self, i: int, i_star: int) -> np.ndarray:
        """Coefficients of control i minus control i* over (controls, tests)."""
        return self._contrast(i - 1, i_star - 1)

    def tt_contrast(self, j: int, w: int, j_star: int, w_star: int) -> np.ndarray:
        """Coefficients of test (j, w) minus test (j*, w*)."""
        return self._contrast(self._test_pos(j, w), self._test_pos(j_star, w_star))

    def ct_contrast(self, i: int, j: int, w: int) -> np.ndarray:
        """Coefficients of control i minus test (j, w)."""
        return self._contrast(i - 1, self._test_pos(j, w))


def build_model(
    d: BlockDesign, aug: AugmentationSpec, max_plots: int = DEFAULT_PLOT_CAP
) -> AugmentedModel:
    """Lay out the plots and pseudo-invert X^T X without forming X.

    The plot cap is checked first, then a design with more treatments
    than control plots is rejected as disconnected, so p = b + v + T is
    at most twice the plot count before anything of order p is built.
    """
    counts = aug.counts(d.b)
    n_controls = sum(d.block_sizes)
    n_plots = n_controls + sum(counts)
    if n_plots > max_plots:
        raise InvalidParameters(f"model would need {n_plots} plots, cap is {max_plots}")
    if d.v > n_controls:
        raise Disconnected(f"{d.v} treatments cannot all occur in {n_controls} control plots")
    b, v = d.b, d.v
    test_block = np.repeat(np.arange(b), counts)
    p = b + v + test_block.size
    block_col = np.concatenate((np.repeat(np.arange(b), d.block_sizes), test_block))
    effect_col = np.concatenate((np.concatenate(d.blocks) + (b - 1), np.arange(b + v, p)))
    plots = np.column_stack((block_col, effect_col))
    # X^T X = M + M^T + diag(plots per column), M counting (block, effect) pairs
    info = np.zeros((p, p))
    np.add.at(info, (plots[:, 0], plots[:, 1]), 1.0)
    info += info.T
    info[np.diag_indices(p)] = np.bincount(plots.ravel(), minlength=p)
    comp_block, comp_control, n_comp = components(d)
    label = np.concatenate((comp_block, comp_control, np.asarray(comp_block)[test_block]))
    basis = np.zeros((p, n_comp))
    basis[np.arange(p), label] = np.where(np.arange(p) < b, 1.0, -1.0)
    basis /= np.sqrt(np.bincount(label))
    shift = basis @ basis.T
    pinv = invert(SymMatrix(info + shift)).a - shift
    return AugmentedModel(d, aug, plots, info, pinv, (0, *itertools.accumulate(counts[:-1])))


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
    against the plot-level GLS value, all pairs in one matrix: controls
    against `criteria.v_cc_matrix`, tests in different blocks against
    2 + `criteria.v_tt_matrix`, tests sharing a block against the constant
    2, control-test pairs against `criteria.v_ct_matrix`. `build_model`
    runs first, so its guards precede anything of order v or b."""
    model = build_model(d, aug, max_plots=max_plots)
    ib = criteria.intrablock(d)
    b, v = d.b, d.v
    residual = model.info @ model.info_pinv[:, b:]
    residual[b:, :][np.diag_indices(len(residual) - b)] -= 1.0
    worst = float(np.max(np.ptp(residual, axis=1)))
    if worst > ESTIMABLE_TOL:
        raise NotEstimable(f"some contrast is not estimable (projection residual {worst:.3e})")
    gls = criteria._pairwise(model.info_pinv[b:, b:])
    slot = model.plots[-model.n_tests :, 0]
    iu = np.triu_indices(slot.size, k=1)
    first, second = slot[iu[0]], slot[iu[1]]
    same = first == second
    want_tt = np.where(same, 2.0, 2.0 + criteria.v_tt_matrix(ib)[first, second])
    dev_tt = np.abs(gls[v:, v:][iu] - want_tt)
    return VerificationReport(
        max_dev_cc=float(np.max(np.abs(gls[:v, :v] - criteria.v_cc_matrix(ib)))),
        max_dev_tt_same=float(np.max(dev_tt[same], initial=0.0)),
        max_dev_tt_cross=float(np.max(dev_tt[~same], initial=0.0)),
        max_dev_ct=float(np.max(np.abs(gls[:v, v:] - criteria.v_ct_matrix(ib, d)[:, slot]))),
        n_contrasts=math.comb(v, 2) + math.comb(slot.size, 2) + v * slot.size,
    )


def _class_size(b: int, v: int, k: int, cap: int) -> int:
    """Number of designs with b blocks of size k on v treatments, after
    checking the parameters and the cap."""
    if b < 1 or v < 1 or k < 1:
        raise InvalidParameters(f"need b, v, k >= 1; got ({b}, {v}, {k})")
    n_blocks = math.comb(v + k - 1, k)
    if n_blocks > cap:
        raise ClassTooLarge(f"{n_blocks} candidate blocks exceed the cap {cap}")
    n_designs = math.comb(n_blocks + b - 1, b)
    if n_designs > cap:
        raise ClassTooLarge(f"{n_designs} designs exceed the cap {cap}")
    return n_designs


def enumerate_class(
    b: int, v: int, k: int, connected_only: bool = False, cap: int = DEFAULT_ENUM_CAP
) -> Iterator[BlockDesign]:
    """Yield every design with b blocks of size k on v treatments.

    Blocks are k-multisets over 1..v and a design is a multiset of such
    blocks, so non-binary and non-equireplicate designs are included and
    each design appears exactly once.
    """
    _class_size(b, v, k, cap)
    pool = list(itertools.combinations_with_replacement(range(1, v + 1), k))
    for chosen in itertools.combinations_with_replacement(pool, b):
        d = BlockDesign(v, chosen)
        if connected_only and not is_connected(d):
            continue
        yield d


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


def _check_scorable(b: int, v: int, k: int, aug: AugmentationSpec) -> None:
    """Make up front the checks `criteria.a_criteria` makes on every
    design. They apply only when the class has a connected design, which
    needs a spanning tree of v + b - 1 treatment-block links among its
    b k plots."""
    if b * k < v + b - 1:
        return
    if v < 2:
        raise InvalidParameters("control comparisons need at least two controls")
    if aug.total(b) < 2:
        raise InvalidParameters("test comparisons need at least two test treatments")


def class_minima(
    b: int, v: int, k: int, aug: AugmentationSpec, cap: int = DEFAULT_ENUM_CAP
) -> ClassMinima:
    """Minimize all six criteria over the connected designs of a class,
    recording per criterion the first minimizing design in enumeration
    order, with values within MOVE_TOL counted as ties.

    Connected designs are screened CHUNK at a time and only those that
    `_confirm_chunk` admits are scored exactly; the update uses exact
    values only. This is exact: a design updates only if its exact value
    is below best_t - MOVE_TOL, best_t being the running best before it.
    best_t is at most the chunk-start best, and at most exact(e) + MOVE_TOL
    for every earlier design e. So, with every criterion positive and the
    screen's drift below SCREEN_TOL, both confirm limits admit every
    design that would update, and skipping the rest moves no running best.
    """
    n_designs = _class_size(b, v, k, cap)
    _check_scorable(b, v, k, aug)
    best: dict[str, float] = {}
    arg: dict[str, BlockDesign] = {}
    n_connected = 0
    chunk: list[BlockDesign] = []
    for d in enumerate_class(b, v, k, cap=cap):
        if not is_connected(d):
            continue
        n_connected += 1
        chunk.append(d)
        if len(chunk) == CHUNK:
            _confirm_chunk(chunk, k, aug, best, arg)
            chunk = []
    if chunk:
        _confirm_chunk(chunk, k, aug, best, arg)
    return ClassMinima(b, v, k, n_designs, n_connected, best, arg)


def _confirm_chunk(
    chunk: list[BlockDesign],
    k: int,
    aug: AugmentationSpec,
    best: dict[str, float],
    arg: dict[str, BlockDesign],
) -> None:
    """Score exactly, in order, each design of the chunk whose screened
    value of some criterion is NaN or lies below both (a) the chunk-start
    best - MOVE_TOL + SCREEN_TOL max(1, |best|) and (b) the smallest
    screened value earlier in the chunk + 2 SCREEN_TOL max(1, |that|)."""
    m, v, b = len(chunk), chunk[0].v, chunk[0].b
    n = np.zeros((m, v, b))
    labels = np.array([d.blocks for d in chunk]) - 1
    np.add.at(n, (np.arange(m)[:, None, None], labels, np.arange(b)[:, None]), 1.0)
    screened = criteria.stacked_criteria(n, k, aug.counts(b))
    start = np.array([best.get(name, np.inf) for name in CRITERION_NAMES])
    below_best = screened < start - MOVE_TOL + SCREEN_TOL * np.maximum(1.0, np.abs(start))
    earlier = np.fmin.accumulate(np.vstack((np.full(len(start), np.inf), screened[:-1])))
    below_earlier = screened < earlier + 2.0 * SCREEN_TOL * np.maximum(1.0, np.abs(earlier))
    confirm = np.isnan(screened) | (below_best & below_earlier)
    for i in np.flatnonzero(confirm.any(axis=1)):
        d = chunk[i]
        report = criteria.criteria_report(criteria.intrablock(d), d, aug)
        for name in CRITERION_NAMES:
            value = getattr(report, name)
            if name not in best or value < best[name] - MOVE_TOL:
                best[name] = value
                arg[name] = d
