"""Ground truth for the closed-form criteria.

The fixed-effects model of an augmented design has one (block column,
effect column) pair per plot: a control plot in block j carries block
effect j and its control effect, a test plot block effect j and its own
(unreplicated) effect. The n_plots x p model matrix X is never built,
nor anything else of order p = b + v + T. Each test has one plot, so the
test block of X^T X is the identity, and eliminating the tests (Federer
1956) leaves S, the information of the control plots alone, of order
b + v: blocks, then controls. With B the (b + v) x T map of each test to
its block,

    X^T X = [[S + B B^T, B], [B^T, I]],

and G = [[S+, -S+ B], [-B^T S+, I + B^T S+ B]] is a g-inverse of it.
`_control_model` builds S straight from the incidence N (v x b),

    S = [[diag(block sizes), N^T], [N, diag(r)]],

and pseudo-inverts it. S is singular exactly because block and control
effects are aliased within each connected component of the plot
structure, and it is inverted without any eigensolver: label each
parameter with its component, take the columns of +1 on a component's
blocks and -1 on its controls, normalized, as the orthonormal null basis,
add its rank-one pieces, invert with the checked Cholesky inverse of
`matrix`, and subtract the same pieces again. A design with more
treatments than control plots is rejected as disconnected, and one of
b + v > `criteria.MAX_ORDER` as too large, before anything of order
b + v exists; these two guards are all that bound `verify`.
`build_model` wraps S and S+ in an `AugmentedModel`.

A contrast is estimable when X^T X G maps it to itself; X^T X G - I is
zero but for [E, -E B] in its first b + v rows, E = S S+ - I.
`gls_variance` computes the exact GLS variance of one treatment
contrast, c per control and y per test, from S+ alone: with z = (-(the
per-block sums of y), c), it is z^T S+ z + y^T y, estimable when
E z = 0. No command calls it, nor `enumerate_class`, and both stay for
the benchmark's tracer. `verify_design` calls only `_control_model` and
checks all pairs at once from S+. Two controls differ by the pairwise
form of its control block, two tests in blocks j != j' by 2 plus that of
its block block at (j, j'), two tests of one block by 2 exactly, and
control i and a test of block j by 1 + S+_ii + S+_jj + 2 S+_ij. The
largest row range of E over the control columns and the negated block
columns is the largest residual of any pair; every block holds a test,
so every block column is among them.

One walk enumerates a small class, so that bounds and criterion minima
can be checked exhaustively: a design is a multiset of b blocks from the
pool of k-multisets over 1..v, walked as non-decreasing tuples of pool
indices at most WALK_SLICE designs at a time. `_walk` generates them in
numpy, with no Python object per design: one table of every
non-decreasing s-tuple, unranked in the combinatorial number system,
supplies the last s indices, and each prefix is joined to the tail of
the table that may follow it. `_ClassWalk`'s constructor is the one
gate of a class, before the pool or a slice is built: DEFAULT_ENUM_CAP
bounds the pool's blocks and plots and the number of designs, a class
of more than `criteria.MAX_ORDER` blocks is rejected, `connects` records
whether the class passes `can_connect`, and a walk that names its work
per design, v x b to count and (v + b)^2 to minimize, rejects a class
that connects when designs x that work exceeds WALK_BUDGET. A class that
cannot connect is answered from its size alone, with no walk. Each
slice's links are a gather of pool columns with the design axis last,
shape (v, b, m), and `design.stacked_connected` decides the connectivity
of the whole slice at once. `enumerate_class` reads no connectivity and
builds a design object per design, `class_counts` builds none, and
`class_minima` screens the connected designs in stack-last chunks with
`criteria.stacked_criteria`, admits by one running floor per criterion
only those that could move a minimum, scores them exactly in one stacked
call per chunk of admitted designs, usually one per class, and builds a
design object only for an argmin, so its minima and argmins are those of
one exact score per design.

At a common count every criterion is invariant under relabelling the v
controls (Read 1978, Ann. Discrete Math. 2:107-120; McKay 1998, J.
Algorithms 26:306-324), so `class_minima` screens about one
design per relabelling orbit. `_ClassWalk.swaps` holds, for each
adjacent swap of labels (i, i + 1), the pool index of every pool block's
image: (v - 1) x n_pool integers, built once per walk. `earliest` drops
each connected design that some swap maps to an earlier design of the
walk once the image is sorted. The earliest member of an orbit is never
dropped, so every criterion's first minimizer is kept, with its argmin.
A dropped design has an earlier kept twin that scores the same up to
rounding; it could lower a running minimum only if that minimum sat
within that rounding of MOVE_TOL above the twin, the tie MOVE_TOL exists
to keep from deciding a result. Per-block counts attach to sorted block
positions, so relabelling is no symmetry there, and every connected
design is screened.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from . import criteria, matrix
from .design import AugmentationSpec, BlockDesign, _comb_within, can_connect, components, stacked_connected
from .errors import (
    ClassTooLarge,
    DimensionMismatch,
    Disconnected,
    InvalidParameters,
    NotEstimable,
)
from .search import MOVE_TOL, SCREEN_TOL

# The most candidate blocks, pool plots and designs of a class that the
# walk accepts; read when a walk starts.
DEFAULT_ENUM_CAP = 10_000_000
# No model is bounded by it: it is kept, with the max_plots keyword of
# build_model and verify_design, only because perfbench/workloads.py
# passes max_plots=max(plots, DEFAULT_PLOT_CAP).
DEFAULT_PLOT_CAP = 2_950
ESTIMABLE_TOL = 1e-8
# Designs per slice of the index walk over a class.
WALK_SLICE = 4096
# Connected designs per stacked screen, and per stacked exact call, in
# class_minima, at most; a chunk holds at most CHUNK_BUDGET // (v + b)^2
# designs, so that its (v + b)^2 floats per design stay near
# CHUNK_BUDGET floats.
CHUNK = 512
CHUNK_BUDGET = 2**21
# The most work, designs x the work per design, that a budgeted walk of
# a class that can connect accepts: v x b per design to count, (v + b)^2
# to minimize. On one core of a shared 2-core x86 host, counting took
# 2.3-9.3 ns per unit ((8,6,2), 1.5e8, 0.74 s; (583,2,2), 2.0e8, 1.6 s at
# 111 MB maxrss; (1000,2,2), 1.0e9, 9.3 s at 174 MB) and minimizing 7-13
# ns ((120,2,2), 1.1e8, 0.7 s; (7,4,3), 8.0e7, 1.0 s), so a class at the
# budget takes about 0.5-2.6 s. The first two-treatment classes of pairs
# rejected are (584,2,2) to count and (140,2,2), 2.02e8, to minimize. The
# orbit filter of class_minima leaves the budget as it was: per-block
# walks still screen every connected design.
WALK_BUDGET = 200_000_000

CRITERION_NAMES = ("a_cc", "a_tt", "a_ct", "mv_cc", "mv_tt", "mv_ct")


@dataclass(frozen=True, eq=False)
class AugmentedModel:
    """The information of the control plots of an augmented design and its
    pseudo-inverse.

    Parameter layout: b block effects, then v control effects, then one
    effect per test treatment, blockwise. A contrast for `gls_variance`
    has one coefficient per control and then one per test, in that same
    blockwise order. `control_info` is S, X^T X of the control plots
    alone, of order b + v: [[diag(block sizes), N^T], [N, diag(r)]] for
    the incidence N. `control_pinv` is its Moore-Penrose inverse S+. The
    test plots are implied by `aug`.
    """

    design: BlockDesign
    aug: AugmentationSpec
    control_info: np.ndarray
    control_pinv: np.ndarray


def _control_model(d: BlockDesign, aug: AugmentationSpec, max_plots: int | None = None) -> tuple[np.ndarray, ...]:
    """S and S+ of `build_model`, without a SymMatrix or anything of order p.

    A design with more treatments than control plots is rejected as
    disconnected, and then one of b + v > `criteria.MAX_ORDER` with
    InvalidParameters, before anything of order b + v is built. A given
    `max_plots` is checked first; nothing in the package passes one. S is
    read off the incidence. S + shift goes through SymMatrix's rule and
    the checked Cholesky inverse as plain arrays, which gives the bits and
    the errors of `invert(SymMatrix(S + shift)).a - shift`.
    """
    n_controls = sum(d.block_sizes)
    n_plots = n_controls + aug.total(d.b)
    if max_plots is not None and n_plots > max_plots:
        raise InvalidParameters(f"model would need {n_plots} plots, cap is {max_plots}")
    if d.v > n_controls:
        raise Disconnected(f"{d.v} treatments cannot all occur in {n_controls} control plots")
    b, v = d.b, d.v
    if b + v > criteria.MAX_ORDER:
        raise InvalidParameters(
            f"{b} blocks and {v} treatments: the control information would be of order {b + v}, "
            f"more than {criteria.MAX_ORDER}"
        )
    comp_block, comp_control, n_comp = components(d)
    label = np.concatenate((comp_block, comp_control))
    basis = np.zeros((b + v, n_comp))
    basis[np.arange(b + v), label] = np.where(np.arange(b + v) < b, 1.0, -1.0)
    basis /= np.sqrt(np.bincount(label))
    shift = basis @ basis.T
    control_info = np.diag(np.concatenate((d.block_sizes, d.replications)).astype(float))
    control_info[:b, b:] = d.incidence.T
    control_info[b:, :b] = d.incidence
    control_pinv = matrix._spd_inverse(matrix._symmetric(control_info + shift)) - shift
    return control_info, control_pinv


def build_model(d: BlockDesign, aug: AugmentationSpec, max_plots: int | None = None) -> AugmentedModel:
    """Pseudo-invert the control information S, of order b + v, through
    `_control_model`, without forming X or anything of order p.
    `max_plots`, no cap by default, is kept for perfbench/workloads.py."""
    return AugmentedModel(d, aug, *_control_model(d, aug, max_plots))


def gls_variance(m: AugmentedModel, contrast) -> float:
    """Exact variance multiplier of a treatment contrast, in sigma^2 units.

    `contrast` holds one coefficient per control, c, followed by one per
    test treatment (blockwise), y; block effects are nuisance and
    implicitly carry zero. With z = (-(the per-block sums of y), c), the
    variance is z^T S+ z + y^T y. Raises NotEstimable when the contrast is
    outside the row space of the model matrix: max |S S+ z - z| above
    ESTIMABLE_TOL.
    """
    c = np.asarray(contrast, dtype=float)
    b, v = m.design.b, m.design.v
    counts = m.aug.counts(b)
    expected = v + sum(counts)
    if c.shape != (expected,):
        raise DimensionMismatch(f"expected {expected} coefficients, got shape {c.shape}")
    y = c[v:]
    z = np.concatenate((-np.bincount(np.repeat(np.arange(b), counts), weights=y, minlength=b), c[:v]))
    solved = m.control_pinv @ z
    residual = float(np.max(np.abs(m.control_info @ solved - z)))
    if residual > ESTIMABLE_TOL:
        raise NotEstimable(f"contrast not estimable (projection residual {residual:.3e})")
    return float(z @ solved + y @ y)


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


def verify_design(d: BlockDesign, aug: AugmentationSpec, max_plots: int | None = None) -> VerificationReport:
    """Compare every cc, tt and ct contrast variance of the closed forms
    against the plot-level GLS value, all pairs at once from the model's
    S+: controls against `criteria.v_cc_matrix`, tests in different
    blocks against 2 + `criteria.v_tt_matrix` per block pair, control-test
    pairs against `criteria.v_ct_matrix` per control and block. Two tests
    of one block differ only in their own effects, so their GLS variance
    is 2 exactly, as the closed form says. Estimability is read off
    S S+ - I. Only `_control_model` is called, not `build_model`, so no
    test plot, nothing of order p and no SymMatrix is formed, and its
    guards, v <= control plots and b + v <= `criteria.MAX_ORDER`, precede
    anything of order v or b. `max_plots`, no cap by default, is kept for
    perfbench/workloads.py."""
    control_info, sp = _control_model(d, aug, max_plots)
    ib = criteria.intrablock(d)
    b, v = d.b, d.v
    residual = control_info @ sp
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
    tests = aug.total(b)
    return VerificationReport(
        max_dev_cc=float(np.max(np.abs(criteria._pairwise(sp[b:, b:]) - criteria.v_cc_matrix(ib)))),
        max_dev_tt_same=0.0,
        max_dev_tt_cross=float(np.max(dev_tt)),
        max_dev_ct=float(np.max(np.abs(gls_ct - criteria.v_ct_matrix(ib, d)))),
        n_contrasts=math.comb(v, 2) + math.comb(tests, 2) + v * tests,
    )


def _combinations(ranks: np.ndarray, n: int, k: int) -> np.ndarray:
    """The k-subsets of range(n) with the given lexicographic ranks, as a
    (k, len(ranks)) array whose column j holds the increasing members of
    subset j, by the combinatorial number system (Knuth, TAOCP 4A,
    7.2.1.3): {a_1 < ... < a_k} has rank C(n, k) - 1 - sum_i
    C(n - 1 - a_i, k + 1 - i), and each a_i follows greedily from the
    largest binomial that fits. For k <= n / 2 every binomial used is at
    most C(n, k), so int64 holds them."""
    binomials = [np.ones(n, dtype=np.int64)]  # binomials[j][c] = C(c, j)
    for _ in range(k):
        binomials.append(np.concatenate(([0], np.cumsum(binomials[-1][:-1]))))
    rest = math.comb(n, k) - 1 - ranks
    out = np.empty((k, len(ranks)), dtype=np.intp)
    for i in range(k):
        row = binomials[k - i]
        c = np.searchsorted(row, rest, side="right") - 1
        rest = rest - row[c]
        out[i] = n - 1 - c
    return out


def _tuples(n: int, s: int, ranks: np.ndarray) -> np.ndarray:
    """The non-decreasing s-tuples over range(n) with the given
    lexicographic ranks, one per column of an (s, len(ranks)) array,
    unranked in one pass of at most min(s, n - 1) rows. Adding i to the
    i-th entry maps the tuples, in order, onto the s-subsets of
    range(n + s - 1). When s > n - 1, the complementary n - 1 "bars" of
    each subset are unranked instead: the gaps between them are the
    copies of each index, and the tuples rise as their bars fall in
    lexicographic order."""
    if s <= n - 1:
        return _combinations(ranks, n + s - 1, s) - np.arange(s)[:, None]
    bars = _combinations(math.comb(n + s - 1, s) - 1 - ranks, n + s - 1, n - 1)
    edges = np.vstack((np.full(len(ranks), -1), bars, np.full(len(ranks), n + s - 1)))
    copies = np.diff(edges, axis=0) - 1
    return np.repeat(np.tile(np.arange(n), len(ranks)), copies.T.ravel()).reshape(-1, s).T


def _walk(n: int, b: int) -> Iterator[np.ndarray]:
    """Every non-decreasing b-tuple over range(n), in lexicographic order,
    as (m, b) arrays of m <= WALK_SLICE rows, each column contiguous.

    The last s columns come from one table of every non-decreasing
    s-tuple, s as large as keeps it within WALK_SLICE tuples, or 1. The
    first b - s columns, the prefixes, are unranked WALK_SLICE at a time,
    and each prefix is joined to the tail of the table whose first index
    is at least the prefix's last; consecutive prefixes share a slice
    while their tails fit, and a tail longer than a slice is cut into
    slices. So at most one table, one block of prefixes and one slice
    are held at a time.
    """
    s = 1
    while s < b and math.comb(n + s, s + 1) <= WALK_SLICE:
        s += 1
    count = math.comb(n + s - 1, s)
    table = np.ascontiguousarray(_tuples(n, s, np.arange(count)))
    if s == b:
        for start in range(0, count, WALK_SLICE):
            yield table[:, start : start + WALK_SLICE].T
        return
    # tuples of the table whose first index is at least j
    tail = np.array([math.comb(n - j + s - 1, s) for j in range(n)])
    n_prefixes = math.comb(n + b - s - 1, b - s)
    for block in range(0, n_prefixes, WALK_SLICE):
        prefixes = _tuples(n, b - s, np.arange(block, min(block + WALK_SLICE, n_prefixes))).T
        lengths = tail[prefixes[:, -1]]
        ends = np.cumsum(lengths)
        first = 0
        while first < len(prefixes):
            last = int(np.searchsorted(ends, ends[first] - lengths[first] + WALK_SLICE, side="right"))
            if last > first:
                yield _join(prefixes[first:last], lengths[first:last], table)
                first = last
                continue
            for start in range(count - lengths[first], count, WALK_SLICE):
                piece = table[:, start : start + WALK_SLICE]
                yield _join(prefixes[first : first + 1], np.array([piece.shape[1]]), piece)
            first += 1


def _rank_weights(rows: int, cols: int) -> np.ndarray:
    """The (rows + 1, cols + 1) int64 table of C(r - 1 + d, r), r and d
    from 0. Row r is the running sum of row r - 1, by Pascal's rule, so
    its largest entry, C(rows - 1 + cols, rows), bounds every entry; both
    callers keep that within a count the cap has already checked.

    The lexicographic rank of a non-decreasing s-tuple t over range(n),
    among all of them, is C(n + s - 1, s) - 1 - sum_j w[s - j, n - 1 -
    t_j] with w = _rank_weights(s, n - 1): the combinatorial number
    system of `_combinations` for the s-subset t_j + j. The rank of a
    k-multiset over range(v) is read off its "bars" instead, as in
    `_tuples`: with d_j the plots of labels above j, it is sum_j
    w[v - 1 - j, d_j] over j < v - 1, w = _rank_weights(v - 1, k)."""
    table = np.zeros((rows + 1, cols + 1), dtype=np.int64)
    table[0, 1:] = 1
    for r in range(1, rows + 1):
        table[r] = np.cumsum(table[r - 1])
    return table


def _join(prefixes: np.ndarray, lengths: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Each prefix row followed by each of the last `lengths` tuples of
    the table, prefix by prefix, as an (m, b) array with contiguous
    columns."""
    total = int(lengths.sum())
    width = prefixes.shape[1]
    out = np.empty((width + len(table), total), dtype=np.intp)
    out[:width] = np.repeat(prefixes.T, lengths, axis=1)
    # output row t of a prefix whose rows end at e takes tuple t + count - e
    out[width:] = np.take(table, np.arange(total) + np.repeat(table.shape[1] - np.cumsum(lengths), lengths), axis=1)
    return out.T


class _ClassWalk:
    """The designs of a class, walked by index in enumeration order.

    The pool holds the k-multisets over 1..v in lexicographic order. A
    design is a non-decreasing b-tuple of pool indices, so the designs are
    `itertools.combinations_with_replacement(range(n_pool), b)`, generated
    in numpy by `_walk`, and the incidence of a stack of them is a gather
    of pool columns; no Python object is built per design, and no design
    object until one is asked for.

    The constructor accepts or rejects the class before the pool or a
    slice is built. DEFAULT_ENUM_CAP, read here, bounds the candidate
    blocks, their plots and the designs; a design of more than
    `criteria.MAX_ORDER` blocks could not be scored, so such a class is
    rejected too. `connects` says whether any design of the class can be
    connected (`can_connect`). A walk given a `budget`, (its name, how its
    work per design is written, that work), rejects a class that connects
    when designs x work exceeds WALK_BUDGET; a class that cannot connect
    is left to its caller to answer without a walk.
    """

    def __init__(self, b: int, v: int, k: int, budget: tuple[str, str, int] | None = None):
        if b < 1 or v < 1 or k < 1:
            raise InvalidParameters(f"need b, v, k >= 1; got ({b}, {v}, {k})")
        cap = DEFAULT_ENUM_CAP
        self.n_pool = _comb_within(v + k - 1, k, cap, "candidate blocks")
        if self.n_pool * k > cap:
            raise ClassTooLarge(f"{self.n_pool} candidate blocks of {k} plots: more pool plots than the cap {cap}")
        self.n_designs = _comb_within(self.n_pool + b - 1, b, cap, "designs")
        if b > criteria.MAX_ORDER:
            raise ClassTooLarge(f"{b} blocks: classes of more than {criteria.MAX_ORDER} blocks are not walked")
        self.b, self.v, self.k = b, v, k
        self.connects = can_connect(v, b, b * k)
        if budget is not None and self.connects:
            name, per_design, unit = budget
            work = self.n_designs * unit
            if work > WALK_BUDGET:
                raise ClassTooLarge(
                    f"{self.n_designs} designs x {per_design} = {work}: above the {name} budget {WALK_BUDGET}"
                )

    @cached_property
    def pool(self) -> list[tuple[int, ...]]:
        return list(itertools.combinations_with_replacement(range(1, self.v + 1), self.k))

    @cached_property
    def pool_counts(self) -> np.ndarray:
        """The (v, n_pool) float incidence counts of the pool, built when
        first read; a class without connected designs never reads them."""
        labels = np.fromiter(itertools.chain.from_iterable(self.pool), dtype=np.intp)
        counts = np.zeros((self.v, self.n_pool))
        np.add.at(counts, (labels - 1, np.arange(self.n_pool).repeat(self.k)), 1.0)
        return counts

    @cached_property
    def swaps(self) -> np.ndarray:
        """The (v - 1, n_pool) pool index of each pool block with labels i
        and i + 1 swapped, one row per adjacent swap. The swap moves only
        the bar between the two labels, so each row is the pool's own
        index plus the change of one `_rank_weights` term."""
        v, k = self.v, self.k
        weights = _rank_weights(v - 1, k)
        counts = self.pool_counts.astype(np.intp)
        out = np.empty((v - 1, self.n_pool), dtype=np.intp)
        above = np.full(self.n_pool, k, dtype=np.intp)  # plots of labels > i
        for i in range(v - 1):
            above -= counts[i]
            row = weights[v - 1 - i]
            out[i] = np.arange(self.n_pool) + row[above + counts[i] - counts[i + 1]] - row[above]
        return out

    @cached_property
    def codes(self) -> np.ndarray | None:
        """(b + 1)^(n_pool - 1 - p) for each pool index p, or None when a
        design's sum of them could pass int64. That sum reads the design's
        multiplicity of each pool index as a digit in base b + 1, so it
        falls as the design's rank in walk order rises, with no sort."""
        if self.n_pool * self.b.bit_length() > 62:
            return None
        return (self.b + 1) ** np.arange(self.n_pool - 1, -1, -1, dtype=np.int64)

    @cached_property
    def order_weights(self) -> np.ndarray:
        """The flat (b x n_pool) weights w[j, t] whose sum over a sorted
        design's positions, w[j, t_j], falls as its rank in walk order
        rises (`_rank_weights`)."""
        return _rank_weights(self.b, self.n_pool - 1)[self.b - np.arange(self.b), ::-1].ravel()

    def earliest(self, rows: np.ndarray) -> np.ndarray:
        """The mask of the (m, b) pool index rows that no adjacent swap of
        labels maps to an earlier design of the walk, the image sorted. The
        earliest design of each relabelling orbit is among them. Each image
        is compared by its sum of `codes` or, where those could overflow,
        sorted and compared by its sum of `order_weights`; either way no
        array it makes holds more than (v - 1) x b x m integers."""
        cols = rows.T
        if self.codes is not None:
            swapped = self.codes[self.swaps]
            return (np.take(swapped, cols, axis=1).sum(axis=1) <= self.codes[cols].sum(axis=0)).all(axis=0)
        images = np.take(self.swaps, cols, axis=1)
        images.sort(axis=1)
        offsets = np.arange(self.b)[:, None] * self.n_pool
        images += offsets
        keys = np.take(self.order_weights, images).sum(axis=1)
        return (keys <= np.take(self.order_weights, cols + offsets).sum(axis=0)).all(axis=0)

    def slices(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The designs at most WALK_SLICE at a time: an (m, b) array of
        pool indices and the (m,) mask of the connected ones, decided for
        the whole slice by `stacked_connected`."""
        links = self.pool_counts > 0
        for idx in _walk(self.n_pool, self.b):
            yield idx, stacked_connected(np.moveaxis(self.stack(links, idx), -1, 0))

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


def enumerate_class(b: int, v: int, k: int) -> Iterator[BlockDesign]:
    """Yield every design with b blocks of size k on v treatments.

    Blocks are k-multisets over 1..v and a design is a multiset of such
    blocks, so non-binary, non-equireplicate and disconnected designs are
    included and each design appears exactly once. The designs come
    straight from the index walk, with no connectivity check; filter with
    `is_connected` for the connected ones.
    """
    walk = _ClassWalk(b, v, k)
    for idx in _walk(walk.n_pool, b):
        for row in idx.tolist():
            yield walk.design(row)


def class_counts(b: int, v: int, k: int) -> tuple[int, int]:
    """Number of designs of a class and number of connected ones. A class
    that cannot connect is not walked; one that can, and whose designs x
    v x b exceeds WALK_BUDGET, is rejected by the walk with ClassTooLarge
    before the pool or a slice is built."""
    walk = _ClassWalk(b, v, k, ("count", "v x b", v * b))
    if not walk.connects:
        return walk.n_designs, 0
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


def class_minima(b: int, v: int, k: int, aug: AugmentationSpec) -> ClassMinima:
    """Minimize all six criteria over the connected designs of a class,
    recording per criterion the first minimizing design in enumeration
    order, with values within MOVE_TOL counted as ties.

    The walk accepts or rejects the class first, with (v + b)^2 as its
    work per design. A class that cannot connect is then answered at
    once, with no connected design and no minima.

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

    At a common count, each slice's connected designs pass through
    `_ClassWalk.earliest` first, which drops those that an adjacent swap
    of labels maps to an earlier design; relabelling the controls moves
    no criterion but by rounding. The earliest design of every orbit is
    kept, so every first minimizer and its argmin are. A dropped design
    has an earlier kept twin e, and could update only if exact(d) <
    best - MOVE_TOL <= exact(e), which needs a running best within the
    twins' rounding of exact(e) + MOVE_TOL: the tie MOVE_TOL keeps from
    deciding a result, as SCREEN_TOL bounds the screen's drift. Per-block
    counts are no symmetry, and there every connected design is screened.
    The swap table holds (v - 1) x n_pool integers, and each array of a
    slice's filter at most (v - 1) x b x WALK_SLICE. `n_designs` and
    `n_connected` count every design of the walk.
    """
    walk = _ClassWalk(b, v, k, ("minima", f"(v + b)^2 {(v + b) ** 2}", (v + b) ** 2))
    if not walk.connects:
        return ClassMinima(b, v, k, walk.n_designs, 0, {}, {})
    criteria._check_counts(v, b, aug)  # a connected design exists, so a_criteria's checks apply
    chunk = max(1, min(CHUNK, CHUNK_BUDGET // (v + b) ** 2))
    floor = np.full(len(CRITERION_NAMES), np.inf)
    pending = np.empty((0, b), dtype=np.intp)
    admitted = [pending]
    n_connected = 0
    for idx, connected in walk.slices():
        n_connected += int(connected.sum())
        rows = idx[connected]
        if aug.is_common:
            rows = rows[walk.earliest(rows)]
        pending = np.concatenate((pending, rows))
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
