"""Design-independent lower bounds on the A-criteria and the efficiency
measures they induce, for both the A- and MV-criteria.

Over the class of all connected primals with b blocks of size k on v
controls (binary or not, equireplicate or not),

    L  = (v-1)^2 / (b(k-1))  <=  tr(C+)
    Lt = (b-1)^2 / (bk-v)    <=  tr(C_dual+)
    H  = h/(f+1) + (v-h)/f   <=  sum_i 1/r_i,   f = floor(bk/v), h = bk - vf

turn the trace forms of the A-criteria into lower bounds. Each efficiency
is a bound divided by the achieved criterion, so values are at most 1 and
an efficiency of 1 certifies optimality over the whole class. The maximum
variance can never undercut the average, so the same bounds also serve
the MV-criteria (with the tt bound taken at a single test treatment per
block, its largest value).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from . import criteria
from .design import AugmentationSpec, BlockDesign
from .errors import InvalidParameters

# Efficiency thresholds (tt, ct, cc) for the two quality classes.
HIGH_THRESHOLDS = (0.99, 0.97, 0.95)
GOOD_THRESHOLDS = (0.97, 0.95, 0.93)
# One test treatment per block: the count of the conservative tt bound.
SINGLE = AugmentationSpec.common(1)
Triple = tuple[float, float, float]


class ThresholdClass(enum.Enum):
    HIGH = "HIGH"
    GOOD = "GOOD"
    NEITHER = "NEITHER"


@dataclass(frozen=True)
class BoundQuantities:
    """The three scalars behind every bound, plus the integers f and h."""

    L: float
    Ltilde: float
    H: float
    f: int
    h: int


@dataclass(frozen=True)
class EfficiencyReport:
    """Efficiency ratios of one primal: A-criteria at the requested
    augmentation, the conservative tt value at a single test treatment
    per block (valid for every count), and the three MV ratios."""

    eff_cc: float
    eff_tt_at_s: float
    eff_tt_conservative: float
    eff_ct: float
    mv_eff_cc: float
    mv_eff_tt: float
    mv_eff_ct: float


def bound_quantities(b: int, v: int, k: int) -> BoundQuantities:
    """Compute L, Ltilde, H, f and h for a parameter triple."""
    if b < 2 or v < 2 or k < 2:
        raise InvalidParameters(f"need b >= 2, v >= 2 and k >= 2; got ({b}, {v}, {k})")
    if b * k <= v:
        raise InvalidParameters(f"need bk > v; got bk = {b * k} and v = {v}")
    f = (b * k) // v
    h = b * k - v * f
    return BoundQuantities(
        L=(v - 1) ** 2 / (b * (k - 1)),
        Ltilde=(b - 1) ** 2 / (b * k - v),
        H=h / (f + 1) + (v - h) / f,
        f=f,
        h=h,
    )


def a_bounds(
    b: int, v: int, k: int, aug: AugmentationSpec, quantities: BoundQuantities | None = None
) -> tuple[float, float, float]:
    """Lower bounds on (A_cc, A_tt, A_ct) over every connected primal.

    With per-block counts s_1..s_b the tt bound uses the pairwise excess
    phi(j, j') = s_j s_j' - s0^2 over the minimum count s0, and the ct
    bound mixes s0 with the mean count; both collapse to the common-count
    forms when all counts are equal. `quantities`, when given, must be
    `bound_quantities(b, v, k)`, which is then not computed again.
    """
    q = bound_quantities(b, v, k) if quantities is None else quantities
    acc = 2.0 * q.L / (v - 1)
    if aug.is_common:
        s = aug.s
        att = 2.0 * (1.0 + s / (b * s - 1.0) * q.Ltilde)
        act = 1.0 + (k + 1) / (v * k) * q.H + q.Ltilde / b - 1.0 / (b * k)
    else:
        counts = np.asarray(aug.counts(b), dtype=float)
        s0 = float(counts.min())
        total = float(counts.sum())
        s_bar = total / b
        # sum of phi(j, j') over j < j' in O(b) memory, each term an exact integer in float
        phi_sum = (total * total - float(counts @ counts)) / 2.0 - b * (b - 1) / 2.0 * s0 * s0
        att = 2.0 + ((4.0 / k) * phi_sum + 2.0 * s0 * s0 * b * q.Ltilde) / (total * (total - 1.0))
        act = (
            1.0
            + (k * s_bar + s0) * q.H / (v * k * s_bar)
            + s0 * q.Ltilde / (b * s_bar)
            - s0 / (b * k * s_bar)
        )
    return acc, att, act


def efficiencies(d: BlockDesign, aug: AugmentationSpec) -> EfficiencyReport:
    """All efficiency ratios of a primal for the given augmentation."""
    return assess(d, aug, criteria.evaluate(d, aug))[3]


def assess(
    d: BlockDesign, aug: AugmentationSpec, crit: criteria.CriteriaReport
) -> tuple[BoundQuantities, Triple, Triple, EfficiencyReport, ThresholdClass]:
    """The bound quantities, the (cc, tt, ct) bounds at `aug` and at one
    test per block, the efficiencies and the class of a primal with
    criteria `crit` at `aug`. The quantities are computed once, for both
    bound triples.

    The one home of the single-count rule: the conservative tt and the MV
    tt and ct efficiencies take their bounds at one test per block, where
    they are largest, and the class reads the tt, ct and cc efficiencies
    there. MV-criteria and the cc bound do not depend on the counts, and
    the A-criteria at one test per block come from the intrablock memo.
    """
    k = d.uniform_block_size()
    q = bound_quantities(d.b, d.v, k)
    at_s = a_bounds(d.b, d.v, k, aug, q)
    if aug == SINGLE:
        at_1, a_1 = at_s, (crit.a_cc, crit.a_tt, crit.a_ct)
    else:
        at_1, a_1 = a_bounds(d.b, d.v, k, SINGLE, q), criteria.a_criteria(criteria.intrablock(d), d, SINGLE)
    (acc_b, att_b_s, act_b_s), (_, att_b_1, act_b_1) = at_s, at_1
    eff = EfficiencyReport(
        eff_cc=acc_b / crit.a_cc,
        eff_tt_at_s=att_b_s / crit.a_tt,
        eff_tt_conservative=att_b_1 / a_1[1],
        eff_ct=act_b_s / crit.a_ct,
        mv_eff_cc=acc_b / crit.mv_cc,
        mv_eff_tt=att_b_1 / crit.mv_tt,
        mv_eff_ct=act_b_1 / crit.mv_ct,
    )
    # the class reads the efficiencies restated at one test per block
    return q, at_s, at_1, eff, threshold_class(replace(eff, eff_ct=act_b_1 / a_1[2], eff_cc=acc_b / a_1[0]))


def threshold_class(report: EfficiencyReport) -> ThresholdClass:
    """Classify a primal by its (tt, ct, cc) efficiencies, using the
    conservative tt value and unrounded numbers: HIGH needs at least
    (0.99, 0.97, 0.95), GOOD at least (0.97, 0.95, 0.93)."""
    triple = (report.eff_tt_conservative, report.eff_ct, report.eff_cc)
    if all(x >= t for x, t in zip(triple, HIGH_THRESHOLDS)):
        return ThresholdClass.HIGH
    if all(x >= t for x, t in zip(triple, GOOD_THRESHOLDS)):
        return ThresholdClass.GOOD
    return ThresholdClass.NEITHER
