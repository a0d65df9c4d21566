"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
Golden efficiency triples are printed 3-decimal values, so they are checked
pre-rounding with tolerance 0.0015 unless a tighter or looser tolerance is
stated inline.
"""

import numpy as np
import pytest

from augdes.bounds import (
    EfficiencyReport,
    ThresholdClass,
    a_bounds,
    efficiencies,
    threshold_class,
)
from augdes.cli import round3
from augdes.criteria import a_criteria, intrablock, mv_criteria, v_tt_matrix
from augdes.design import (
    AugmentationSpec,
    all_k_subsets,
    delete_blocks,
    dual,
    format_design,
    is_connected,
    lattice_bib,
    repeat_blocks,
)
from augdes.oracle import class_minima, enumerate_class, verify_design
from augdes.search import MOVE_TOL, SearchConfig, exchange_search
from references import trace_identities

ONE = AugmentationSpec.common(1)
TOL = 0.0015

# Exact criterion minima over the connected designs of each class at one
# test treatment per block, frozen from an exhaustive run.
FROZEN_MINIMA = {
    (4, 3, 2): {
        "a_cc": 1.0666666666666669, "a_tt": 3.233333333333333, "a_ct": 1.9499999999999997,
        "mv_cc": 1.2, "mv_tt": 3.3, "mv_ct": 2.5,
    },
    (3, 4, 2): {
        "a_cc": 2.9999999999999996, "a_tt": 4.0, "a_ct": 3.0,
        "mv_cc": 4.0, "mv_tt": 4.0, "mv_ct": 4.0,
    },
    (4, 4, 2): {
        "a_cc": 1.666666666666667, "a_tt": 3.6666666666666665, "a_ct": 2.375,
        "mv_cc": 2.0, "mv_tt": 4.0, "mv_ct": 2.875,
    },
    (5, 4, 2): {
        "a_cc": 1.3333333333333333, "a_tt": 3.425, "a_ct": 2.175,
        "mv_cc": 1.7142857142857142, "mv_tt": 3.75, "mv_ct": 2.8125,
    },
}
FROZEN_CONNECTED = {(4, 3, 2): 51, (3, 4, 2): 16, (4, 4, 2): 127, (5, 4, 2): 574}


def _report(name, failures):
    status = "FAIL" if failures else "PASS"
    detail = f": {'; '.join(failures)}" if failures else ""
    print(f"[{status}] {name}{detail}")
    assert not failures, f"{name}{detail}"


def _check_triple(failures, label, got, want, tol=TOL):
    for part, g, w in zip(("cc", "tt", "ct"), got, want):
        if abs(g - w) > tol:
            failures.append(f"{label} {part}: got {g:.6f}, want {w} (tol {tol})")


def a_triple(d, s=1):
    rep = efficiencies(d, AugmentationSpec.common(s))
    return rep.eff_cc, rep.eff_tt_conservative, rep.eff_ct


def mv_efficiencies(d):
    """The MV ratios (cc, tt, ct); they do not depend on the test counts."""
    rep = efficiencies(d, ONE)
    return rep.mv_eff_cc, rep.mv_eff_tt, rep.mv_eff_ct


def test_criterion_01_lattice_bib_a_efficiencies():
    failures = []
    _check_triple(failures, "lattice q=5", a_triple(lattice_bib(5)), (1.000, 0.999, 0.996))
    _report("criterion 1: lattice BIB (30,25,5) A-efficiencies", failures)


def test_criterion_02_dual_lattice_a_efficiencies():
    failures = []
    d = dual(lattice_bib(5))
    got = a_triple(d)
    _check_triple(failures, "dual of lattice q=5", got, (0.995, 1.000, 0.996))
    if abs(got[1] - 1.0) > 1e-9:
        failures.append(f"tt efficiency of a dual of a BIB must be 1.0 exactly, got {got[1]!r}")
    _report("criterion 2: dual (25,30,6) A-efficiencies and exact tt optimality", failures)


def test_criterion_03_mv_efficiencies_for_lattice_and_dual():
    failures = []
    _check_triple(failures, "lattice q=5", mv_efficiencies(lattice_bib(5)), (1.000, 0.994, 0.984))
    _check_triple(failures, "dual", mv_efficiencies(dual(lattice_bib(5))), (0.967, 1.000, 0.985))
    _report("criterion 3: MV efficiencies of the lattice BIB and its dual", failures)


def test_criterion_04_block_deletion_repetition_suite():
    failures = []
    base = all_k_subsets(5, 3)
    got = a_triple(base)
    if abs(got[0] - 1.0) > 1e-9:
        failures.append(f"base cc efficiency must be exactly 1, got {got[0]!r}")
    if abs(got[1] - 0.998) > TOL:
        failures.append(f"base tt: got {got[1]:.6f}, want 0.998")
    # the golden ct value 0.994 disagrees slightly with direct recomputation
    # (0.99532); both are recorded here and the tolerance is widened to 0.002
    if abs(got[2] - 0.994) > 0.002:
        failures.append(f"base ct: got {got[2]:.6f}, want 0.994 (tol 0.002)")
    variants = [
        ("delete first+last", delete_blocks(base, [1, 10]), (0.986, 0.997, 0.994)),
        ("delete first", delete_blocks(base, [1]), (0.988, 0.997, 0.994)),
        ("repeat first", repeat_blocks(base, [1]), (0.992, 0.998, 0.995)),
        ("repeat first+last", repeat_blocks(base, [1, 10]), (0.994, 0.998, 0.995)),
    ]
    for label, d, want in variants:
        _check_triple(failures, label, a_triple(d), want)
    _report("criterion 4: all-triples base design and its four derived designs", failures)


def test_criterion_05_mv_suite_for_non_integer_replication():
    failures = []
    base = all_k_subsets(5, 3)
    variants = [
        ("b=8", delete_blocks(base, [1, 10]), (0.903, 0.983, 0.903)),
        ("b=9", delete_blocks(base, [1]), (0.889, 0.984, 0.925)),
        ("b=11", repeat_blocks(base, [1]), (0.909, 0.986, 0.936)),
        ("b=12", repeat_blocks(base, [1, 10]), (0.941, 0.985, 0.946)),
    ]
    for label, d, want in variants:
        _check_triple(failures, label, mv_efficiencies(d), want)
    _report("criterion 5: MV efficiencies of the four derived designs", failures)


def test_criterion_06_oracle_equivalence_on_random_corpus(corpus, equireplicate_corpus):
    failures = []
    if len(corpus) < 50:
        failures.append(f"corpus has {len(corpus)} designs, need >= 50")
    n_common = sum(1 for _, a in corpus if a.is_common)
    n_nonbinary = sum(1 for d, _ in corpus if (d.incidence > 1).any())
    n_equirep = sum(1 for d, _ in corpus if len(set(d.replications)) == 1)
    n_multi = sum(1 for d, a in corpus if any(c >= 2 for c in a.counts(d.b)))
    for label, count in [
        ("common counts", n_common),
        ("per-block counts", len(corpus) - n_common),
        ("non-binary designs", n_nonbinary),
        ("binary designs", len(corpus) - n_nonbinary),
        ("equireplicate designs", n_equirep),
        ("non-equireplicate designs", len(corpus) - n_equirep),
        ("same-block test pairs", n_multi),
    ]:
        if count < 1:
            failures.append(f"corpus contains no {label}")
    cases = list(corpus) + [
        (equireplicate_corpus[1], AugmentationSpec.common(2)),
        (equireplicate_corpus[2], AugmentationSpec.per_block([1, 2, 1, 2, 1, 2])),
    ]
    worst = 0.0
    for d, aug in cases:
        rep = verify_design(d, aug)
        worst = max(worst, rep.max_deviation)
        if rep.max_deviation > 1e-8:
            failures.append(
                f"deviation {rep.max_deviation:.2e} on b={d.b} v={d.v} blocks={d.blocks}"
            )
    print(f"  (checked {len(cases)} designs, worst GLS deviation {worst:.2e})")
    _report("criterion 6: closed forms match the GLS oracle to 1e-8", failures)


def test_criterion_07_bound_validity_by_exhaustion():
    failures = []
    for (b, v, k), frozen in FROZEN_MINIMA.items():
        augs = {s: AugmentationSpec.common(s) for s in (1, 2, 5)}
        bounds_by_s = {s: a_bounds(b, v, k, augs[s]) for s in (1, 2, 5)}
        acc_b, att_b_1, act_b = bounds_by_s[1]
        n_connected = 0
        minima = {name: np.inf for name in frozen}
        for d in filter(is_connected, enumerate_class(b, v, k)):
            n_connected += 1
            ib = intrablock(d)
            mv = mv_criteria(ib, d)
            for s in (1, 2, 5):
                a = a_criteria(ib, d, augs[s])
                for got, bound, label in zip(a, bounds_by_s[s], ("a_cc", "a_tt", "a_ct")):
                    if got < bound - 1e-9:
                        failures.append(f"({b},{v},{k}) s={s} {label} {got} < bound {bound}")
                if s == 1:
                    for name, value in zip(("a_cc", "a_tt", "a_ct"), a):
                        minima[name] = min(minima[name], value)
            for got, bound, name in zip(mv, (acc_b, att_b_1, act_b), ("mv_cc", "mv_tt", "mv_ct")):
                if got < bound - 1e-9:
                    failures.append(f"({b},{v},{k}) {name} {got} < bound {bound}")
                minima[name] = min(minima[name], got)
        if n_connected != FROZEN_CONNECTED[(b, v, k)]:
            failures.append(
                f"({b},{v},{k}) connected count {n_connected} != frozen {FROZEN_CONNECTED[(b, v, k)]}"
            )
        for name, want in frozen.items():
            if abs(minima[name] - want) > 1e-9:
                failures.append(f"({b},{v},{k}) min {name} {minima[name]!r} != frozen {want!r}")
    _report("criterion 7: exhaustive bound validity and frozen class minima", failures)


def test_criterion_08_identity_suite(corpus, equireplicate_corpus):
    failures = []
    equireplicate_cases = [d for d, _ in corpus if len(set(d.replications)) == 1]
    equireplicate_cases += equireplicate_corpus
    for d in equireplicate_cases:
        ib = intrablock(d)
        (l1, r1), (l2, r2) = trace_identities(ib, d)
        if abs(l1 - r1) > 1e-9 or abs(l2 - r2) > 1e-9:
            failures.append(f"trace identities fail on b={d.b} v={d.v}")
    for d, _ in corpus:
        ib = intrablock(d)
        for s in (1, 2, 5):
            common = a_criteria(ib, d, AugmentationSpec.common(s))
            per = a_criteria(ib, d, AugmentationSpec.per_block([s] * d.b))
            if any(abs(c - p) > 1e-10 for c, p in zip(common, per)):
                failures.append(f"per-block criteria at equal counts differ on b={d.b} v={d.v} s={s}")
    for b, v, k, s in [(10, 5, 3, 1), (12, 12, 6, 19), (8, 5, 3, 2), (25, 30, 6, 3)]:
        common = a_bounds(b, v, k, AugmentationSpec.common(s))
        per = a_bounds(b, v, k, AugmentationSpec.per_block([s] * b))
        if any(abs(c - p) > 1e-10 for c, p in zip(common, per)):
            failures.append(f"per-block bounds at equal counts differ for ({b},{v},{k}) s={s}")
    for d, _ in corpus:
        ib = intrablock(d)
        iu = np.triu_indices(d.b, k=1)
        if float(np.min(v_tt_matrix(ib)[iu])) < 2.0 / d.uniform_block_size() - 1e-9:
            failures.append(f"tt multiplier below 2/k on b={d.b} v={d.v}")
    for d, _ in corpus:
        base = efficiencies(d, ONE).eff_tt_conservative
        for s in (2, 3, 5, 19):
            if efficiencies(d, AugmentationSpec.common(s)).eff_tt_at_s < base - 1e-9:
                failures.append(f"tt efficiency at s={s} below conservative value on b={d.b} v={d.v}")
    _report("criterion 8: trace identities, count reductions, tt floor, monotone tt efficiency", failures)


def test_criterion_09_threshold_classification():
    failures = []
    for label, d in [("lattice q=5", lattice_bib(5)), ("dual", dual(lattice_bib(5)))]:
        cls = threshold_class(efficiencies(d, ONE))
        if cls is not ThresholdClass.HIGH:
            failures.append(f"{label} classified {cls.value}, want HIGH")
    literal = EfficiencyReport(
        eff_cc=0.930, eff_tt_at_s=0.995, eff_tt_conservative=0.995, eff_ct=0.978,
        mv_eff_cc=0.930, mv_eff_tt=0.995, mv_eff_ct=0.978,
    )
    cls = threshold_class(literal)
    if cls is not ThresholdClass.GOOD:
        failures.append(f"literal (0.930, 0.995, 0.978) classified {cls.value}, want GOOD")
    _report("criterion 9: threshold classification HIGH / GOOD", failures)


def test_criterion_10_search_determinism_and_exhaustive_match():
    failures = []
    cfg = SearchConfig(w_cc=1.0, w_tt=0.0, w_ct=0.0, restarts=5, rng_seed=42)
    first = exchange_search(4, 3, 2, cfg)
    second = exchange_search(4, 3, 2, cfg)
    if format_design(first.design).encode() != format_design(second.design).encode():
        failures.append("design file bytes differ between identically seeded runs")
    if first.traces != second.traces or first.objective != second.objective:
        failures.append("objective or traces differ between identically seeded runs")
    for trace in first.traces:
        if any(later > earlier for earlier, later in zip(trace, trace[1:])):
            failures.append("objective trace increased within a restart")
    minimum = class_minima(4, 3, 2, ONE).minima["a_cc"]
    if abs(first.objective - minimum) > 1e-9:
        failures.append(f"search objective {first.objective!r} != exhaustive minimum {minimum!r}")
    _report("criterion 10: deterministic search matching the exhaustive minimum", failures)


def test_search_reaches_bib_benchmark():
    # supporting check for the search subsystem at the flagship size: with
    # 20 restarts the exchange search must do at least as well as the
    # all-triples BIB design and land on high efficiencies across the board
    failures = []
    bib = all_k_subsets(5, 3)
    ib = intrablock(bib)
    bib_objective = sum(a_criteria(ib, bib, ONE))
    cfg = SearchConfig(w_cc=1.0, w_tt=1.0, w_ct=1.0, restarts=20, rng_seed=7)
    result = exchange_search(10, 5, 3, cfg)
    if result.objective > bib_objective + 1e-9:
        failures.append(f"objective {result.objective!r} above BIB benchmark {bib_objective!r}")
    # several restarts end at the BIB objective, a few ulps apart; the
    # earliest of those ties must win, not the one rounding made smallest
    ends = [trace[-1] for trace in result.traces]
    earliest = next(end for end in ends if end <= min(ends) + MOVE_TOL)
    if result.objective != earliest:
        failures.append(f"objective {result.objective!r} is not the earliest tied end {earliest!r}")
    rep = efficiencies(result.design, ONE)
    for label, value in [
        ("cc", rep.eff_cc),
        ("tt", rep.eff_tt_conservative),
        ("ct", rep.eff_ct),
    ]:
        if value < 0.97:
            failures.append(f"search result {label} efficiency {value:.4f} < 0.97")
    _report("supporting: exchange search reaches the BIB benchmark at (10,5,3)", failures)


# Partial lattices: the first m parallel classes of lattice_bib(q), a
# PBIB(2) design, and its dual at s=1, as (q, m, rounded (cc, tt, ct)
# efficiencies and class of the partial lattice, the same of its dual).
PARTIAL_LATTICES = (
    (3, 2, (0.889, 0.972, 0.933), "NEITHER", (0.926, 0.952, 0.917), "NEITHER"),
    (3, 3, (0.970, 0.990, 0.973), "HIGH", (0.970, 0.990, 0.973), "HIGH"),
    (5, 2, (0.900, 0.987, 0.952), "NEITHER", (0.953, 0.960, 0.928), "NEITHER"),
    (5, 3, (0.960, 0.996, 0.981), "HIGH", (0.980, 0.988, 0.975), "GOOD"),
    (5, 4, (0.982, 0.998, 0.990), "HIGH", (0.989, 0.996, 0.988), "HIGH"),
    (5, 5, (0.993, 0.999, 0.993), "HIGH", (0.993, 0.999, 0.993), "HIGH"),
    (7, 2, (0.914, 0.993, 0.963), "NEITHER", (0.966, 0.967, 0.939), "NEITHER"),
    (7, 3, (0.962, 0.997, 0.985), "HIGH", (0.985, 0.989, 0.978), "GOOD"),
    (7, 4, (0.980, 0.999, 0.992), "HIGH", (0.992, 0.995, 0.989), "HIGH"),
    (7, 5, (0.988, 0.999, 0.995), "HIGH", (0.995, 0.998, 0.994), "HIGH"),
    (7, 6, (0.994, 0.999, 0.997), "HIGH", (0.996, 0.999, 0.996), "HIGH"),
    (7, 7, (0.997, 1.000, 0.997), "HIGH", (0.997, 1.000, 0.997), "HIGH"),
)


@pytest.mark.parametrize("case", PARTIAL_LATTICES, ids=lambda c: f"q{c[0]}-m{c[1]}")
def test_partial_lattice_golden(case):
    q, m, primal_eff, primal_class, dual_eff, dual_class = case
    primal = delete_blocks(lattice_bib(q), range(m * q + 1, q * (q + 1) + 1))
    assert primal.b == m * q and primal.replications == (m,) * q * q
    for d, want_eff, want_class in [(primal, primal_eff, primal_class), (dual(primal), dual_eff, dual_class)]:
        rep = efficiencies(d, ONE)
        assert tuple(round3(e) for e in (rep.eff_cc, rep.eff_tt_conservative, rep.eff_ct)) == want_eff
        assert threshold_class(rep).value == want_class
