import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augdes.bounds import (
    EfficiencyReport,
    ThresholdClass,
    a_bounds,
    bound_quantities,
    efficiencies,
    threshold_class,
)
from augdes.criteria import a_criteria, intrablock, mv_criteria
from augdes.design import AugmentationSpec, all_k_subsets, delete_blocks, dual, is_connected, lattice_bib
from augdes.errors import InvalidParameters
from augdes.oracle import enumerate_class

from references import per_block_tt_bound_reference

ONE = AugmentationSpec.common(1)


def literal_report(cc, tt, ct):
    return EfficiencyReport(
        eff_cc=cc,
        eff_tt_at_s=tt,
        eff_tt_conservative=tt,
        eff_ct=ct,
        mv_eff_cc=cc,
        mv_eff_tt=tt,
        mv_eff_ct=ct,
    )


class TestBoundQuantities:
    def test_ten_five_three(self):
        q = bound_quantities(10, 5, 3)
        assert q.L == 0.8
        assert abs(q.Ltilde - 3.24) <= 1e-12
        assert (q.f, q.h) == (6, 0)
        assert abs(q.H - 5.0 / 6.0) <= 1e-12

    def test_eight_five_three(self):
        q = bound_quantities(8, 5, 3)
        assert q.L == 1.0
        assert abs(q.Ltilde - 49.0 / 19.0) <= 1e-12
        assert (q.f, q.h) == (4, 4)
        assert abs(q.H - 1.05) <= 1e-12

    def test_unit_block_size_rejected(self):
        with pytest.raises(InvalidParameters):
            bound_quantities(4, 6, 1)

    def test_bk_not_above_v_rejected(self):
        with pytest.raises(InvalidParameters):
            bound_quantities(2, 4, 2)

    def test_h_bounds_reciprocal_sum(self):
        # H is a floor for sum(1/r_i) over integer replications adding to bk
        for b, v, k in [(4, 3, 2), (3, 4, 2), (8, 5, 3)]:
            q = bound_quantities(b, v, k)
            total = b * k
            for cuts in itertools.combinations(range(1, total), v - 1):
                parts = [e - s for s, e in zip((0,) + cuts, cuts + (total,))]
                assert sum(1.0 / p for p in parts) >= q.H - 1e-9


class TestABounds:
    def test_common_one(self):
        acc, att, act = a_bounds(10, 5, 3, ONE)
        assert abs(acc - 0.4) <= 1e-12
        assert abs(att - 2.72) <= 1e-12
        assert abs(act - (1.0 + (4.0 / 15.0) * (5.0 / 6.0) + 0.324 - 1.0 / 30.0)) <= 1e-12

    def test_equal_per_block_counts_reduce(self):
        for b, v, k, s in [(12, 12, 6, 19), (10, 5, 3, 1), (8, 5, 3, 2), (25, 30, 6, 3)]:
            common = a_bounds(b, v, k, AugmentationSpec.common(s))
            per = a_bounds(b, v, k, AugmentationSpec.per_block([s] * b))
            for c, p in zip(common, per):
                assert abs(c - p) <= 1e-12

    def test_unequal_counts_have_larger_tt_bound(self):
        # spreading counts unevenly can only raise the bound terms phi >= 0
        common = a_bounds(4, 5, 3, AugmentationSpec.common(2))
        per = a_bounds(4, 5, 3, AugmentationSpec.per_block([1, 2, 2, 3]))
        assert per[1] >= 2.0

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_per_block_tt_matches_pairwise_sum(self, data):
        # the closed-form sum of phi equals the upper-triangle sum bit for bit
        b = data.draw(st.integers(2, 400))
        k = data.draw(st.integers(2, 6))
        v = data.draw(st.integers(2, b * k - 1))
        counts = data.draw(st.lists(st.integers(1, 1000), min_size=b, max_size=b))
        att = a_bounds(b, v, k, AugmentationSpec.per_block(counts))[1]
        assert att.hex() == per_block_tt_bound_reference(b, v, k, counts).hex()

    def test_per_block_memory_linear_in_b(self):
        # no b x b array: 3,000 blocks stay under 1 MiB, where one b x b float array is 69 MiB
        b = 3000
        aug = AugmentationSpec.per_block(1 + j % 7 for j in range(b))
        tracemalloc.start()
        try:
            a_bounds(b, 5, 3, aug)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestEfficiencies:
    def test_eight_block_example(self):
        d = delete_blocks(all_k_subsets(5, 3), [1, 10])
        rep = efficiencies(d, ONE)
        assert abs(rep.eff_cc - 0.986) <= 0.0015
        assert abs(rep.eff_tt_conservative - 0.997) <= 0.0015
        assert abs(rep.eff_ct - 0.994) <= 0.0015

    def test_bib_primal_cc_optimal(self, equireplicate_corpus):
        # every all-subsets or lattice BIB has tr(C+) = L
        for d in [all_k_subsets(5, 3), lattice_bib(3), lattice_bib(5)]:
            assert abs(efficiencies(d, ONE).eff_cc - 1.0) <= 1e-9

    def test_dual_of_bib_tt_optimal(self):
        for d in [dual(all_k_subsets(5, 3)), dual(lattice_bib(5))]:
            assert abs(efficiencies(d, ONE).eff_tt_conservative - 1.0) <= 1e-9

    def test_all_ratios_at_most_one(self, corpus):
        for d, aug in corpus:
            rep = efficiencies(d, aug)
            for value in (
                rep.eff_cc,
                rep.eff_tt_at_s,
                rep.eff_tt_conservative,
                rep.eff_ct,
                rep.mv_eff_cc,
                rep.mv_eff_tt,
                rep.mv_eff_ct,
            ):
                assert 0.0 < value <= 1.0 + 1e-9

    def test_tt_efficiency_at_s_never_below_conservative(self, corpus):
        for d, _ in corpus[:20]:
            base = efficiencies(d, ONE).eff_tt_conservative
            for s in (2, 3, 5, 19):
                rep = efficiencies(d, AugmentationSpec.common(s))
                assert rep.eff_tt_at_s >= base - 1e-9

    def test_mv_never_above_a_at_one(self, corpus):
        for d, _ in corpus[:20]:
            rep = efficiencies(d, ONE)
            assert rep.mv_eff_cc <= rep.eff_cc + 1e-9
            assert rep.mv_eff_tt <= rep.eff_tt_conservative + 1e-9
            assert rep.mv_eff_ct <= rep.eff_ct + 1e-9


class TestBoundValidity:
    def test_traces_dominate_bound_scalars(self, corpus):
        for d, _ in corpus:
            ib = intrablock(d)
            q = bound_quantities(d.b, d.v, d.uniform_block_size())
            assert np.trace(ib.c_plus) >= q.L - 1e-9
            assert np.trace(ib.c_dual_plus) >= q.Ltilde - 1e-9

    def test_small_class_exhaustive(self):
        acc_b, att_b, act_b = a_bounds(4, 3, 2, ONE)
        for d in filter(is_connected, enumerate_class(4, 3, 2)):
            ib = intrablock(d)
            a_cc, a_tt, a_ct = a_criteria(ib, d, ONE)
            mv_cc, mv_tt, mv_ct = mv_criteria(ib, d)
            assert a_cc >= acc_b - 1e-9
            assert a_tt >= att_b - 1e-9
            assert a_ct >= act_b - 1e-9
            assert mv_cc >= acc_b - 1e-9
            assert mv_tt >= att_b - 1e-9
            assert mv_ct >= act_b - 1e-9


class TestThresholds:
    def test_high_for_lattice_and_dual(self):
        assert threshold_class(efficiencies(lattice_bib(5), ONE)) is ThresholdClass.HIGH
        assert threshold_class(efficiencies(dual(lattice_bib(5)), ONE)) is ThresholdClass.HIGH

    def test_good_but_not_high(self):
        assert threshold_class(literal_report(0.930, 0.995, 0.978)) is ThresholdClass.GOOD

    def test_neither(self):
        assert threshold_class(literal_report(0.5, 0.5, 0.5)) is ThresholdClass.NEITHER

    def test_boundaries_inclusive(self):
        assert threshold_class(literal_report(0.95, 0.99, 0.97)) is ThresholdClass.HIGH
        assert threshold_class(literal_report(0.93, 0.97, 0.95)) is ThresholdClass.GOOD
