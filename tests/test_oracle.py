import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from augdes import criteria, matrix, oracle
from augdes import design as design_module
from augdes.design import (
    AugmentationSpec,
    BlockDesign,
    all_k_subsets,
    can_connect,
    components,
    delete_blocks,
    dual,
    from_blocks,
    is_connected,
    lattice_bib,
    read_design,
    stacked_connected,
)
from augdes.errors import (
    ClassTooLarge,
    Disconnected,
    InvalidParameters,
    NotEstimable,
)
from augdes.oracle import (
    CRITERION_NAMES,
    ESTIMABLE_TOL,
    build_model,
    class_counts,
    class_minima,
    enumerate_class,
    gls_variance,
    verify_design,
)
from augdes.cli import VERIFY_TOL
from augdes.search import MOVE_TOL
from references import (
    contrast,
    model_matrix,
    reference_control_pinv,
    reference_deviations,
    reference_info,
    reference_info_pinv,
    reference_plots,
)

ONE = AugmentationSpec.common(1)
SLIST_542 = AugmentationSpec.per_block([1, 2, 3, 1, 4])
RCBD2 = from_blocks(2, [[1, 2], [1, 2]])
DESIGNS = Path(__file__).resolve().parent.parent / "designs"


@st.composite
def designs_with_counts(draw):
    """A design whose control plots can hold its treatments, and a
    per-block list of test counts: blocks may differ in size and repeat a
    label, a treatment may occur nowhere, and the design may be
    disconnected."""
    b = draw(st.integers(1, 6))
    v = draw(st.integers(1, 8))
    blocks = draw(st.lists(st.lists(st.integers(1, v), min_size=1, max_size=5), min_size=b, max_size=b))
    assume(v <= sum(map(len, blocks)))
    d = from_blocks(v, blocks)
    return d, AugmentationSpec.per_block(draw(st.lists(st.integers(1, 3), min_size=b, max_size=b)))


def _catalogue():
    """Every lattice and its dual at s=1, every shipped design file at s=1
    and s=3, and one per-block count list."""
    cases = []
    for q in (2, 3, 5, 7, 11, 13):
        cases += [(f"lattice_q{q}", lattice_bib(q), ONE), (f"dual_q{q}", dual(lattice_bib(q)), ONE)]
    for path in sorted(DESIGNS.glob("*.design")):
        d = read_design(path)
        cases += [(f"{path.stem}-s1", d, ONE), (f"{path.stem}-s3", d, AugmentationSpec.common(3))]
    d = read_design(DESIGNS / "lattice_q5.design")
    cases.append(("lattice_q5-s_list", d, AugmentationSpec.per_block([1 + j % 3 for j in range(d.b)])))
    return cases


CATALOGUE = _catalogue()


class TestModel:
    def test_row_structure(self):
        x = model_matrix(RCBD2, ONE)
        # 4 control plots + 2 test plots; every row has exactly two ones
        assert x.shape == (6, 6)
        assert (x.sum(axis=1) == 2).all()
        assert set(np.unique(x)) == {0.0, 1.0}
        # the control plots come first, block by block, then the tests
        assert reference_plots(RCBD2, ONE).tolist() == [[0, 2], [0, 3], [1, 2], [1, 3], [0, 4], [1, 5]]

    def test_plot_cap(self):
        with pytest.raises(InvalidParameters):
            build_model(all_k_subsets(5, 3), AugmentationSpec.common(50), max_plots=200)

    def test_pseudo_inverse_conditions(self):
        m = build_model(RCBD2, AugmentationSpec.common(2))
        a, g = m.control_info, m.control_pinv
        assert np.max(np.abs(a @ g @ a - a)) <= 1e-9
        assert np.max(np.abs(g @ a @ g - g)) <= 1e-9


class TestPlotLayout:
    @pytest.mark.parametrize("d, aug", [c[1:] for c in CATALOGUE], ids=[c[0] for c in CATALOGUE])
    def test_info_is_x_transpose_x(self, d, aug):
        # X^T X = [[S + B B^T, B], [B^T, I]]: S is its leading b + v block
        # less the test count of each block on the block diagonal
        m = build_model(d, aug)
        x = model_matrix(d, aug)
        info = reference_info(d, aug)
        assert np.array_equal(info, x.T @ x)
        order = d.b + d.v
        want = info[:order, :order] - np.diag(np.concatenate((aug.counts(d.b), np.zeros(d.v))))
        assert np.array_equal(m.control_info, want)

    @settings(max_examples=300, deadline=None)
    @given(designs_with_counts())
    def test_control_info_is_the_reference_block_bit_for_bit(self, case):
        # S read off the incidence against X^T X accumulated plot by plot
        d, aug = case
        control_info, _ = oracle._control_model(d, aug)
        order = d.b + d.v
        want = reference_info(d, aug)[:order, :order] - np.diag(np.concatenate((aug.counts(d.b), np.zeros(d.v))))
        assert control_info.dtype == want.dtype and control_info.shape == want.shape
        assert control_info.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "d",
        [from_blocks(4, [[1, 2], [3, 4]]), from_blocks(3, [[1, 1], [2, 2]]), lattice_bib(3)],
        ids=["two-components", "unused-treatment", "lattice_q3"],
    )
    def test_moore_penrose_conditions(self, d):
        # the component labels must give the orthonormal null basis of S, one
        # column per component, so that the shifted inverse is the MP inverse
        m = build_model(d, AugmentationSpec.common(2))
        a, g = m.control_info, m.control_pinv
        tol = 1e-12 * len(a) * np.max(np.abs(a))
        assert np.max(np.abs(a @ g @ a - a)) <= tol
        assert np.max(np.abs(g @ a @ g - g)) <= tol
        assert np.max(np.abs(a @ g - (a @ g).T)) <= tol
        assert np.max(np.abs(g @ a - (g @ a).T)) <= tol

    def test_long_blocks_build_no_model_matrix(self):
        # (b, v, k) = (10, 10, 300) at s=1: 3,010 plots but only 30
        # parameters, so nothing of order n_plots x p may be allocated
        d = from_blocks(10, [[1 + i % 10 for i in range(300)]] * 10)
        tracemalloc.start()
        try:
            m = build_model(d, ONE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024
        assert m.control_info.shape == (20, 20)
        assert model_matrix(d, ONE).shape == (3010, 30)

    def test_unused_treatments_rejected_before_order_v(self):
        # one block of two plots cannot reach 1,000 treatments
        d = from_blocks(1000, [[1, 2]])
        tracemalloc.start()
        try:
            with pytest.raises(Disconnected):
                verify_design(d, ONE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestGlsVariance:
    def test_rcbd_values(self):
        m = build_model(RCBD2, ONE)
        assert abs(gls_variance(m, contrast(m, 1, 2)) - 1.0) <= 1e-10
        assert abs(gls_variance(m, contrast(m, (1, 1), (2, 1))) - 3.0) <= 1e-10
        assert abs(gls_variance(m, contrast(m, 1, (1, 1))) - 1.75) <= 1e-10

    def test_same_block_tests(self):
        m = build_model(RCBD2, AugmentationSpec.common(2))
        assert abs(gls_variance(m, contrast(m, (1, 1), (1, 2))) - 2.0) <= 1e-10

    def test_not_estimable_across_components(self):
        d = from_blocks(4, [[1, 2], [3, 4]])
        m = build_model(d, ONE)
        with pytest.raises(NotEstimable):
            gls_variance(m, contrast(m, 1, 3))
        # within one component the contrast is still fine
        assert gls_variance(m, contrast(m, 1, 2)) > 0.0

    def test_estimability_matches_connectivity_on_small_class(self):
        for d in enumerate_class(4, 3, 2):
            m = build_model(d, ONE)
            failures = 0
            for i in range(1, d.v + 1):
                for j in range(i + 1, d.v + 1):
                    try:
                        gls_variance(m, contrast(m, i, j))
                    except NotEstimable:
                        failures += 1
            if is_connected(d):
                assert failures == 0
            else:
                assert failures > 0


class TestVerifyDesign:
    def test_eight_block_design(self):
        d = delete_blocks(all_k_subsets(5, 3), [1, 10])
        rep = verify_design(d, ONE)
        assert rep.max_deviation <= 1e-8

    def test_bib_with_two_tests_per_block(self):
        rep = verify_design(all_k_subsets(5, 3), AugmentationSpec.common(2))
        assert rep.max_deviation <= 1e-8
        assert rep.max_dev_tt_same <= 1e-8

    def test_disconnected_rejected_before_comparison(self):
        with pytest.raises(Disconnected):
            verify_design(from_blocks(4, [[1, 2], [3, 4]]), ONE)

    def test_corpus(self, corpus):
        for d, aug in corpus:
            assert verify_design(d, aug).max_deviation <= 1e-8


class TestVerifyBatched:
    @pytest.mark.parametrize("d, aug", [c[1:] for c in CATALOGUE], ids=[c[0] for c in CATALOGUE])
    def test_full_catalogue(self, d, aug):
        tests = aug.total(d.b)
        rep = verify_design(d, aug, max_plots=sum(d.block_sizes) + tests)
        assert rep.max_deviation <= 1e-9
        assert rep.n_contrasts == math.comb(d.v, 2) + math.comb(tests, 2) + d.v * tests

    @pytest.mark.slow
    def test_cycle_at_the_order_limit(self):
        # 1,000 treatments on a cycle of 1,000 pairs: S is of order
        # b + v = 2,000 = MAX_ORDER, the largest that verify inverts
        d = from_blocks(1000, [[i, i % 1000 + 1] for i in range(1, 1001)])
        assert d.b + d.v == criteria.MAX_ORDER
        tracemalloc.start()
        try:
            rep = verify_design(d, ONE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.max_deviation <= VERIFY_TOL
        assert peak < 256 * 2**20

    @pytest.mark.parametrize(
        "name, field",
        [("v_cc_matrix", "max_dev_cc"), ("v_tt_matrix", "max_dev_tt_cross"), ("v_ct_matrix", "max_dev_ct")],
    )
    def test_compares_the_reported_matrices(self, monkeypatch, name, field):
        # a bias on the matrices the criteria read must show in its own field
        original = getattr(criteria, name)
        monkeypatch.setattr(criteria, name, lambda *args: original(*args) + 1e-3)
        rep = verify_design(all_k_subsets(5, 3), AugmentationSpec.common(2))
        for other in ("max_dev_cc", "max_dev_tt_same", "max_dev_tt_cross", "max_dev_ct"):
            if other == field:
                assert getattr(rep, other) == pytest.approx(1e-3, abs=1e-12)
            else:
                assert getattr(rep, other) <= 1e-12

    def test_no_per_contrast_gls_call(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("verify_design reached the per-contrast oracle")

        monkeypatch.setattr(oracle, "gls_variance", refuse)
        assert verify_design(all_k_subsets(5, 3), AugmentationSpec.common(2)).max_deviation <= 1e-9

    def test_unestimable_pair_raises(self, monkeypatch):
        # with the connectivity check out of the way, the batched residual
        # alone must catch the contrasts that cross the two components
        monkeypatch.setattr(criteria, "intrablock", lambda d: None)
        with pytest.raises(NotEstimable):
            verify_design(from_blocks(4, [[1, 2], [3, 4]]), ONE)

    def test_order_checked_before_intrablock(self):
        # a 1,001-treatment path has b + v = 2,001 > MAX_ORDER; the guard
        # rejects it before any dense order-v or order-b matrix exists
        d = from_blocks(1001, [[i, i + 1] for i in range(1, 1001)])
        tracemalloc.start()
        try:
            with pytest.raises(InvalidParameters, match="of order 2001"):
                verify_design(d, ONE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**21


MOORE_PENROSE_DESIGNS = [from_blocks(4, [[1, 2], [3, 4]]), from_blocks(3, [[1, 1], [2, 2]]), lattice_bib(3)]


@st.composite
def connected_with_counts(draw):
    """A connected design with constant block size, possibly non-binary
    and non-equireplicate, and a per-block list of test counts."""
    v = draw(st.integers(2, 6))
    b = draw(st.integers(2, 6))
    k = draw(st.integers(2, 4))
    assume(b * k >= v + b - 1)
    blocks = draw(st.lists(st.lists(st.integers(1, v), min_size=k, max_size=k), min_size=b, max_size=b))
    d = BlockDesign(v, tuple(tuple(sorted(block)) for block in blocks))
    assume(is_connected(d))
    return d, AugmentationSpec.per_block(draw(st.lists(st.integers(1, 3), min_size=b, max_size=b)))


def pair_contrasts(n):
    """Every pairwise difference of n treatment slots."""
    eye = np.eye(n)
    return [eye[i] - eye[j] for i, j in itertools.combinations(range(n), 2)]


def random_contrasts(n, count, seed):
    """Seeded zero-sum contrasts of n treatment slots."""
    c = np.random.default_rng(seed).normal(size=(count, n))
    return list(c - c.mean(axis=1, keepdims=True))


def assert_gls_matches_reference(d, aug, contrasts):
    # gls_variance against full^T A full at order p, A the reference
    # pseudo-inverse and full the contrast with zero block coefficients;
    # NotEstimable exactly where X^T X A misses full
    m = build_model(d, aug, max_plots=sum(d.block_sizes) + aug.total(d.b))
    info, pinv = reference_info(d, aug), reference_info_pinv(d, aug)
    tol = 1e-14 * len(info) * np.max(np.abs(info))
    for c in contrasts:
        full = np.concatenate((np.zeros(d.b), c))
        solved = pinv @ full
        if np.max(np.abs(info @ solved - full)) > ESTIMABLE_TOL:
            with pytest.raises(NotEstimable):
                gls_variance(m, c)
        else:
            want = float(full @ solved)
            assert abs(gls_variance(m, c) - want) <= tol * abs(want)


def assert_matches_order_p_reference(d, aug, contrasts, deviations=True):
    # gls_variance and verify's deviations against the order-p
    # shift-and-invert and the order-p matrix comparison
    assert_gls_matches_reference(d, aug, contrasts)
    if deviations:
        rep = verify_design(d, aug, max_plots=sum(d.block_sizes) + aug.total(d.b))
        got = (rep.max_dev_cc, rep.max_dev_tt_same, rep.max_dev_tt_cross, rep.max_dev_ct)
        assert np.max(np.abs(np.subtract(got, reference_deviations(d, aug)))) <= 1e-12


def sampled_contrasts(d, aug, seed=0):
    """Forty seeded pairwise contrasts and ten zero-sum ones."""
    n = d.v + aug.total(d.b)
    eye, rng = np.eye(n), np.random.default_rng(seed)
    pairs = [rng.choice(n, 2, replace=False) for _ in range(40)]
    return [eye[i] - eye[j] for i, j in pairs] + random_contrasts(n, 10, seed)


class TestAgainstOrderPReference:
    @pytest.mark.parametrize("d, aug", [c[1:] for c in CATALOGUE], ids=[c[0] for c in CATALOGUE])
    def test_catalogue(self, d, aug):
        assert_matches_order_p_reference(d, aug, sampled_contrasts(d, aug))

    @pytest.mark.parametrize("d", MOORE_PENROSE_DESIGNS, ids=["two-components", "unused-treatment", "lattice_q3"])
    def test_moore_penrose_designs(self, d):
        aug = AugmentationSpec.common(2)
        n = d.v + aug.total(d.b)
        contrasts = pair_contrasts(n) + random_contrasts(n, 20, 1)
        assert_matches_order_p_reference(d, aug, contrasts, deviations=is_connected(d))

    @settings(max_examples=60, deadline=None)
    @given(connected_with_counts(), st.data())
    def test_random_connected_designs(self, case, data):
        # random zero-sum contrasts, not only pairs: n c - sum(c) for
        # integer c, so the sum is exactly zero
        d, aug = case
        n = d.v + aug.total(d.b)
        drawn = data.draw(st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=1, max_size=5))
        assert_matches_order_p_reference(d, aug, [n * np.array(c, dtype=float) - sum(c) for c in drawn])

    def test_lattice13_at_s5_stays_at_order_b_plus_v(self):
        # p = 1,261 and 3,276 plots: verify reads S+ of order b + v = 351
        # and forms neither X^T X nor its pseudo-inverse
        d = lattice_bib(13)
        criteria.intrablock(d)
        tracemalloc.start()
        try:
            rep = verify_design(d, AugmentationSpec.common(5), max_plots=10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.max_deviation <= 1e-9
        assert peak < 16 * 2**20

    def test_lattice13_at_s5_gls_variance_stays_at_order_b_plus_v(self):
        # p = 1,261: one contrast reads S+, of order b + v = 351, and forms
        # nothing of order p; the value is the closed form's
        d = lattice_bib(13)
        m = build_model(d, AugmentationSpec.common(5), max_plots=10**6)
        c = contrast(m, 1, (d.b, 5))
        tracemalloc.start()
        try:
            value = gls_variance(m, c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert value == pytest.approx(criteria.v_ct_matrix(criteria.intrablock(d), d)[0, d.b - 1], rel=1e-12)


class TestControlInverse:
    def test_verify_builds_no_symmatrix_and_calls_no_invert(self, monkeypatch):
        # verify takes S+ through the checked inverse of plain arrays: no
        # SymMatrix, no `invert`, no `build_model` and nothing of order p
        d = lattice_bib(13)

        def refuse(*args, **kwargs):
            raise AssertionError("verify_design left the order b + v array path")

        monkeypatch.setattr(matrix.SymMatrix, "__post_init__", refuse)
        monkeypatch.setattr(matrix, "invert", refuse)
        monkeypatch.setattr(oracle, "build_model", refuse)
        rep = verify_design(d, AugmentationSpec.common(5), max_plots=10**6)
        assert rep.max_deviation <= 1e-9

    @pytest.mark.parametrize(
        "d, aug",
        [c[1:] for c in CATALOGUE] + [(d, AugmentationSpec.common(2)) for d in MOORE_PENROSE_DESIGNS],
        ids=[c[0] for c in CATALOGUE] + ["two-components", "unused-treatment", "lattice_q3"],
    )
    def test_control_pinv_is_the_old_inverse_bit_for_bit(self, d, aug):
        m = build_model(d, aug, max_plots=sum(d.block_sizes) + aug.total(d.b))
        want = reference_control_pinv(m)
        assert m.control_pinv.dtype == want.dtype and m.control_pinv.shape == want.shape
        assert m.control_pinv.tobytes() == want.tobytes()


class TestCriteriaAgainstModelMeans:
    def test_averages_and_maxima_match_plot_level_definitions(self):
        # the A-criteria are literally the means (and the MV-criteria the
        # maxima) of the GLS variances over all contrasts of each type, so
        # recompute them that way straight from the model
        from augdes.criteria import a_criteria, intrablock, mv_criteria

        d = from_blocks(4, [[1, 2, 3], [2, 3, 4], [1, 1, 4], [1, 2, 4]])
        aug = AugmentationSpec.per_block([1, 3, 2, 2])
        ib = intrablock(d)
        model = build_model(d, aug)
        counts = aug.counts(d.b)
        tests = [(j, w) for j in range(1, d.b + 1) for w in range(1, counts[j - 1] + 1)]
        cc = [
            gls_variance(model, contrast(model, i, i2))
            for i in range(1, d.v + 1)
            for i2 in range(i + 1, d.v + 1)
        ]
        tt = [
            gls_variance(model, contrast(model, tests[a], tests[b]))
            for a in range(len(tests))
            for b in range(a + 1, len(tests))
        ]
        ct = [
            gls_variance(model, contrast(model, i, (j, w)))
            for i in range(1, d.v + 1)
            for (j, w) in tests
        ]
        a_cc, a_tt, a_ct = a_criteria(ib, d, aug)
        assert a_cc == pytest.approx(np.mean(cc), abs=1e-10)
        assert a_tt == pytest.approx(np.mean(tt), abs=1e-10)
        assert a_ct == pytest.approx(np.mean(ct), abs=1e-10)
        mv_cc, mv_tt, mv_ct = mv_criteria(ib, d)
        assert mv_cc == pytest.approx(np.max(cc), abs=1e-10)
        assert mv_tt == pytest.approx(np.max(tt), abs=1e-10)
        assert mv_ct == pytest.approx(np.max(ct), abs=1e-10)


class TestEnumerateClass:
    def test_counts_4_3_2(self):
        designs = list(enumerate_class(4, 3, 2))
        assert len(designs) == 126
        assert sum(1 for d in designs if is_connected(d)) == 51

    def test_counts_2_2_2_with_hand_list(self):
        pool = [(1, 1), (1, 2), (2, 2)]
        expected = [tuple(sorted(c)) for c in itertools.combinations_with_replacement(pool, 2)]
        got = [d.blocks for d in enumerate_class(2, 2, 2)]
        assert got == [tuple(e) for e in expected]
        assert sum(1 for d in enumerate_class(2, 2, 2) if is_connected(d)) == 3

    def test_single_small_block_cannot_connect(self):
        assert list(filter(is_connected, enumerate_class(1, 3, 2))) == []

    def test_listing_runs_no_connectivity(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("enumerate_class decided connectivity")

        monkeypatch.setattr(oracle, "stacked_connected", refuse)
        assert len(list(enumerate_class(6, 4, 2))) == 5005

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(oracle, "DEFAULT_ENUM_CAP", 1000)
        with pytest.raises(ClassTooLarge, match="cap 1000"):
            list(enumerate_class(10, 10, 5))

    @pytest.mark.parametrize("bvk", [(criteria.MAX_ORDER + 1, 1, 1), (1, 2, 20_000)], ids=["blocks", "pool-plots"])
    def test_hostile_sizes_rejected_before_the_pool(self, bvk):
        tracemalloc.start()
        try:
            with pytest.raises(ClassTooLarge):
                class_counts(*bvk)
            with pytest.raises(ClassTooLarge):
                class_minima(*bvk, ONE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_size_limits_are_inclusive(self, monkeypatch):
        # one design of MAX_ORDER single-plot blocks on one treatment
        assert class_counts(criteria.MAX_ORDER, 1, 1) == (1, 1)
        # 4 candidate blocks of 3 plots on 2 treatments: 12 pool plots
        monkeypatch.setattr(oracle, "DEFAULT_ENUM_CAP", 12)
        assert class_counts(1, 2, 3) == (4, 2)
        monkeypatch.setattr(oracle, "DEFAULT_ENUM_CAP", 11)
        with pytest.raises(ClassTooLarge, match="more pool plots than the cap 11"):
            class_counts(1, 2, 3)

    def test_count_budget_rejects_before_the_pool(self):
        # (583,2,2) is the last class of pairs on two treatments inside the
        # budget; (2000,2,2) has 2,003,001 designs, inside the cap, and 8.0e9
        assert math.comb(585, 2) * 2 * 583 <= oracle.WALK_BUDGET < math.comb(586, 2) * 2 * 584
        tracemalloc.start()
        try:
            for b in (584, 2000):
                with pytest.raises(ClassTooLarge, match="count budget"):
                    class_counts(b, 2, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_count_classes_in_use_are_within_the_budget(self):
        # classes whose counts the tests, CI and README compute
        for b, v, k in ((2, 2, 2), (4, 3, 2), (3, 4, 2), (4, 4, 2), (5, 4, 2), (2, 3, 2), (140, 2, 2), (6, 4, 3), (2, 3, 90)):
            assert oracle._ClassWalk(b, v, k).n_designs * v * b <= oracle.WALK_BUDGET

    def test_class_that_cannot_connect_is_not_walked(self, monkeypatch):
        # 9,541,896 designs of two blocks of five plots on 12 treatments,
        # over the budget, but none can connect
        monkeypatch.setattr(oracle, "_walk", None)
        assert class_counts(2, 12, 5) == (9541896, 0)

    def test_capped_binomial_is_math_comb(self):
        for n in range(40):
            for r in range(n + 1):
                assert design_module._comb_within(n, r, 10**12, "designs") == math.comb(n, r)
        assert design_module._comb_within(10, 5, 252, "designs") == 252
        with pytest.raises(ClassTooLarge, match="cap 251"):
            design_module._comb_within(10, 5, 251, "designs")

    def test_bad_parameters(self):
        with pytest.raises(InvalidParameters):
            list(enumerate_class(0, 3, 2))

    @pytest.mark.parametrize("cls", [(4, 3, 2), (3, 4, 2), (4, 4, 2), (5, 4, 2), (2, 3, 2), (1, 3, 2)])
    def test_stacked_connectivity_matches_is_connected(self, cls):
        designs = list(enumerate_class(*cls))
        want = [is_connected(d) for d in designs]
        stack = np.array([d.incidence for d in designs])
        assert stacked_connected(stack).tolist() == want
        assert np.concatenate([mask for _, mask in oracle._ClassWalk(*cls).slices()]).tolist() == want
        assert class_counts(*cls) == (len(designs), sum(want))

    def test_walk_slices_span_the_class(self, monkeypatch):
        designs = list(enumerate_class(5, 4, 2))
        monkeypatch.setattr(oracle, "WALK_SLICE", 7)
        assert list(enumerate_class(5, 4, 2)) == designs
        assert class_counts(5, 4, 2) == (len(designs), 574)

    def test_plot_rule_is_exact_on_small_classes(self):
        # a class of b blocks of size k has a connected design exactly when
        # its b k plots can hold a spanning tree; class_counts skips its
        # walk by this rule, so a single-component count over the
        # enumerated class checks it independently
        for b, v, k in itertools.product(range(1, 5), range(1, 5), range(1, 4)):
            any_connected = any(components(d)[2] == 1 for d in enumerate_class(b, v, k))
            assert can_connect(v, b, b * k) == (class_counts(b, v, k)[1] > 0) == any_connected, (b, v, k)


class TestWalk:
    @pytest.mark.parametrize(
        "cls",
        [(1, 3, 2), (1, 2, 2), (2, 4, 2), (1, 12, 5), (6, 4, 2), (120, 2, 2), (2000, 2, 1)],
        ids=["b1", "b1-connects", "cannot-connect", "pool-over-slice", "6-4-2", "120-2-2", "2000-2-1"],
    )
    def test_slices_match_combinations_with_replacement(self, cls):
        b = cls[0]
        walk = oracle._ClassWalk(*cls)
        slices = list(walk.slices())
        assert all(0 < len(idx) <= oracle.WALK_SLICE and len(mask) == len(idx) for idx, mask in slices)
        idx = np.concatenate([idx for idx, _ in slices])
        want = np.array(list(itertools.combinations_with_replacement(range(walk.n_pool), b)), dtype=np.intp)
        assert idx.dtype == np.intp and np.array_equal(idx, want.reshape(-1, b))
        mask = np.concatenate([mask for _, mask in slices])
        assert mask.tolist() == [is_connected(walk.design(row)) for row in idx.tolist()]

    def test_tables_and_joins_against_combinations(self, monkeypatch):
        # every pool size and design length to 6, with slices so small
        # that tables fall back to one column and long tails are cut
        for size in (1, 2, 3, 7, 50, 4096):
            monkeypatch.setattr(oracle, "WALK_SLICE", size)
            for n, b in itertools.product(range(1, 7), range(1, 7)):
                got = list(oracle._walk(n, b))
                assert all(len(rows) <= size for rows in got)
                want = list(itertools.combinations_with_replacement(range(n), b))
                assert np.concatenate(got).tolist() == [list(row) for row in want], (size, n, b)


class TestClassMinima:
    def test_4_3_2_minimum_respects_bound(self):
        result = class_minima(4, 3, 2, ONE)
        assert result.n_designs == 126
        assert result.n_connected == 51
        # bound on the cc average is 2L/(v-1) = 1.0 here
        assert result.minima["a_cc"] >= 1.0 - 1e-9
        for name, d in result.argmin.items():
            assert is_connected(d)

    def test_argmin_is_earliest_tied_design(self):
        from augdes.criteria import a_criteria, intrablock, mv_criteria

        result = class_minima(4, 3, 2, ONE)
        designs = list(filter(is_connected, enumerate_class(4, 3, 2)))
        values = [a_criteria(intrablock(d), d, ONE) + mv_criteria(intrablock(d), d) for d in designs]
        for pos, name in enumerate(CRITERION_NAMES):
            low = min(row[pos] for row in values)
            first = next(d for d, row in zip(designs, values) if row[pos] <= low + MOVE_TOL)
            assert result.argmin[name] == first, name

    def test_connectivity_checked_once_per_design(self, monkeypatch):
        # the index walk decides connectivity on the stacked slice; the only
        # union-finds left are those of the exact confirms
        connectivity = []
        union_finds = []
        exact = []
        original_union_find = design_module._union_find
        original_intrablock = criteria.intrablock

        def counting_union_find(d):
            union_finds.append(d)
            return original_union_find(d)

        def counting_intrablock(d):
            exact.append(d)
            return original_intrablock(d)

        monkeypatch.setattr(oracle, "is_connected", connectivity.append, raising=False)
        monkeypatch.setattr(design_module, "_union_find", counting_union_find)
        monkeypatch.setattr(criteria, "intrablock", counting_intrablock)
        result = class_minima(4, 3, 2, ONE)
        assert (result.n_designs, result.n_connected) == (126, 51)
        assert connectivity == []
        assert exact == [] and union_finds == []  # no exact value is NaN, so no design is scored alone
        assert union_finds == exact
        assert all(is_connected(d) for d in exact)

    def test_minima_are_attained_values(self):
        from augdes.criteria import a_criteria, intrablock

        result = class_minima(3, 4, 2, ONE)
        d = result.argmin["a_cc"]
        ib = intrablock(d)
        assert abs(a_criteria(ib, d, ONE)[0] - result.minima["a_cc"]) <= 1e-12


def reference_class_minima(b, v, k, aug):
    """The unchunked loop: one exact intrablock and criteria report per
    enumerated design, in enumeration order, with the same update rule."""
    best, arg = {}, {}
    n_raw = n_connected = 0
    for d in enumerate_class(b, v, k):
        n_raw += 1
        try:
            report = criteria.evaluate(d, aug)
        except Disconnected:
            continue
        n_connected += 1
        for name in CRITERION_NAMES:
            value = getattr(report, name)
            if name not in best or value < best[name] - MOVE_TOL:
                best[name] = value
                arg[name] = d
    return n_raw, n_connected, best, arg


def record_screens(monkeypatch):
    """Patch `criteria.stacked_criteria` to append the size of each screen
    to the returned list."""
    original = criteria.stacked_criteria
    sizes = []

    def recording(n, k, aug):
        sizes.append(len(n))
        return original(n, k, aug)

    monkeypatch.setattr(criteria, "stacked_criteria", recording)
    return sizes


def relabelled(walk, row, perm):
    """The sorted pool index row of a design of the walk with each label x
    replaced by perm[x - 1]."""
    index = {block: i for i, block in enumerate(walk.pool)}
    return sorted(index[tuple(sorted(perm[x - 1] for x in walk.pool[i]))] for i in row)


def adjacent_swaps(v):
    """The permutations of 1..v that swap labels i and i + 1, as tuples."""
    return [tuple(range(1, i + 1)) + (i + 2, i + 1) + tuple(range(i + 3, v + 1)) for i in range(v - 1)]


class TestOrbitFilter:
    def test_swaps_relabel_the_pool(self):
        # k below, at and above v - 1, where the pool's ranks are read off its bars
        for v, k in itertools.product(range(1, 7), range(1, 6)):
            walk = oracle._ClassWalk(1, v, k)
            want = [[relabelled(walk, [p], perm)[0] for p in range(walk.n_pool)] for perm in adjacent_swaps(v)]
            assert walk.swaps.shape == (v - 1, walk.n_pool) and walk.swaps.tolist() == want, (v, k)

    def test_keys_fall_in_walk_order(self):
        # the sums of codes and of order_weights both fall strictly along the walk
        for n, b in itertools.product(range(1, 7), range(1, 7)):
            walk = oracle._ClassWalk(b, 2, n - 1) if n > 1 else oracle._ClassWalk(b, 1, 1)
            assert walk.n_pool == n
            rows = np.concatenate(list(oracle._walk(n, b)))
            offsets = np.arange(b) * n
            ranks = math.comb(n + b - 1, b) - 1 - walk.order_weights[rows + offsets].sum(axis=1)
            assert ranks.tolist() == list(range(len(rows))), (n, b)
            assert np.all(np.diff(walk.codes[rows].sum(axis=1)) < 0), (n, b)
        assert oracle._ClassWalk(7, 4, 3).codes is not None
        assert oracle._ClassWalk(5, 5, 3).codes is None and oracle._ClassWalk(3, 5, 3).codes is None

    @pytest.mark.parametrize("compare", ["codes", "ranks"])
    @pytest.mark.parametrize("cls", [(5, 4, 2), (4, 3, 3)], ids=lambda c: "-".join(map(str, c)))
    def test_keeps_the_earliest_of_every_orbit(self, monkeypatch, cls, compare):
        # brute force over all v! relabellings: every orbit's earliest
        # connected design is kept, and a design is dropped exactly when an
        # adjacent swap maps it to an earlier one
        if compare == "ranks":
            monkeypatch.setattr(oracle._ClassWalk, "codes", None)
        walk = oracle._ClassWalk(*cls)
        rows = np.concatenate([idx[connected] for idx, connected in walk.slices()])
        kept = walk.earliest(rows)
        connected = set(map(tuple, rows.tolist()))
        for row, keep in zip(rows.tolist(), kept.tolist()):
            earliest = min(relabelled(walk, row, perm) for perm in itertools.permutations(range(1, walk.v + 1)))
            assert tuple(earliest) in connected
            if earliest == row:
                assert keep, row
            assert keep == all(relabelled(walk, row, perm) >= row for perm in adjacent_swaps(walk.v)), row
        assert 0 < kept.sum() < len(rows)

    @pytest.mark.parametrize("cls", [(5, 4, 2), (4, 3, 3)], ids=lambda c: "-".join(map(str, c)))
    def test_per_block_counts_screen_every_connected_design(self, monkeypatch, cls):
        sizes = record_screens(monkeypatch)
        result = class_minima(*cls, AugmentationSpec.per_block([1 + j % 3 for j in range(cls[0])]))
        assert sum(sizes) == result.n_connected == class_counts(*cls)[1]


class TestStackedClassMinima:
    @pytest.mark.parametrize(
        "cls, aug",
        [
            ((4, 3, 2), ONE),
            ((3, 4, 2), ONE),
            ((5, 4, 2), ONE),
            ((5, 4, 2), AugmentationSpec.common(3)),
            ((5, 4, 2), SLIST_542),
            ((6, 4, 2), ONE),
            ((6, 4, 2), AugmentationSpec.common(3)),
            ((10, 3, 2), ONE),
            ((10, 3, 2), AugmentationSpec.common(3)),
            ((5, 3, 3), ONE),
            ((5, 3, 3), AugmentationSpec.common(3)),
            ((3, 5, 3), ONE),
        ],
        ids=["4-3-2", "3-4-2", "5-4-2", "5-4-2-s3", "5-4-2-s_list", "6-4-2", "6-4-2-s3", "10-3-2", "10-3-2-s3",
             "5-3-3", "5-3-3-s3", "3-5-3-ranks"],
    )
    def test_matches_one_exact_score_per_design(self, cls, aug):
        n_raw, n_connected, best, arg = reference_class_minima(*cls, aug)
        result = class_minima(*cls, aug)
        assert (result.n_designs, result.n_connected) == (n_raw, n_connected)
        assert {n: x.hex() for n, x in result.minima.items()} == {n: x.hex() for n, x in best.items()}
        assert result.argmin == arg

    def test_6_5_2_pinned_bit_for_bit(self):
        # 38,760 designs, 8,050 connected; minima as float.hex, argmins as blocks
        result = class_minima(6, 5, 2, ONE)
        assert (result.n_designs, result.n_connected) == (38760, 8050)
        spread = ((1, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5))
        got = {name: (result.minima[name].hex(), result.argmin[name].blocks) for name in CRITERION_NAMES}
        assert got == {
            "a_cc": ("0x1.8888888888889p+0", spread),
            "a_tt": ("0x1.ccccccccccccep+1", ((1, 2), (1, 2), (1, 2), (1, 3), (1, 4), (1, 5))),
            "a_ct": ("0x1.2eeeeeeeeeeeep+1", spread),
            "mv_cc": ("0x1.0000000000000p+1", spread),
            "mv_tt": ("0x1.eaaaaaaaaaaaap+1", spread),
            "mv_ct": ("0x1.6aaaaaaaaaaabp+1", spread),
        }

    def test_chunks_span_the_class(self, monkeypatch):
        # chunks of 7: at s=1 the 47 designs the orbit filter keeps cross 7
        # chunk starts of the running floor and the exact folds; per block
        # all 574 connected designs are screened and cross 82
        monkeypatch.setattr(oracle, "CHUNK", 7)
        sizes = record_screens(monkeypatch)
        for aug, screens in ((ONE, 7), (SLIST_542, 82)):
            _, _, best, arg = reference_class_minima(5, 4, 2, aug)
            sizes.clear()
            result = class_minima(5, 4, 2, aug)
            assert len(sizes) == screens and max(sizes) == 7
            assert result.minima == best and result.argmin == arg

    @pytest.mark.parametrize("cls, most", [((5, 4, 2), 15), ((6, 4, 2), 29)], ids=["5-4-2", "6-4-2"])
    def test_one_exact_call_per_class(self, monkeypatch, cls, most):
        # the running floor admits few designs, and they are scored in one stacked call
        original = criteria.stacked_exact_criteria
        calls = []

        def counting(n, k, aug):
            calls.append(len(n))
            return original(n, k, aug)

        monkeypatch.setattr(criteria, "stacked_exact_criteria", counting)
        class_minima(*cls, ONE)
        assert len(calls) == 1 and calls[0] <= most

    def test_chunks_capped_by_budget(self, monkeypatch):
        # a budget of 7 designs' (v + b)^2 = 81 floats gives screens of at
        # most 7 designs; at s=1 they hold the 47 designs the orbit filter
        # keeps, per block all 574 connected ones
        monkeypatch.setattr(oracle, "CHUNK_BUDGET", 7 * 81 + 80)
        sizes = record_screens(monkeypatch)
        for aug, screened in ((ONE, 47), (SLIST_542, 574)):
            _, _, best, arg = reference_class_minima(5, 4, 2, aug)
            sizes.clear()
            result = class_minima(5, 4, 2, aug)
            assert max(sizes) == 7 and sum(sizes) == screened
            assert result.minima == best and result.argmin == arg

    def test_many_blocks_bounded_memory(self):
        # at b = 60 the screen keeps one (b, b, m) array and the exact
        # call few rows; the minima are recorded as hex, the argmins as
        # counts of (1,1), (1,2) and (2,2) blocks
        tracemalloc.start()
        try:
            result = class_minima(60, 2, 2, ONE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20
        assert (result.n_designs, result.n_connected) == (1891, 1830)
        assert {n: x.hex() for n, x in result.minima.items()} == {
            "a_cc": "0x1.11111111112e0p-5",
            "a_tt": "0x1.8000000000000p+1",
            "a_ct": "0x1.8222222222222p+0",
            "mv_cc": "0x1.1111111111110p-5",
            "mv_tt": "0x1.8000000000001p+1",
            "mv_ct": "0x1.8222222222223p+0",
        }
        for d in result.argmin.values():
            assert [d.blocks.count(block) for block in ((1, 1), (1, 2), (2, 2))] == [0, 60, 0]

    def test_classes_in_use_are_within_the_budget(self):
        # classes whose minima the tests, CI, benchmark or README compute
        for b, v, k in ((7, 4, 3), (5, 5, 3), (60, 2, 2), (120, 2, 2), (6, 4, 3), (6, 4, 2)):
            assert oracle._ClassWalk(b, v, k).n_designs * (v + b) ** 2 <= oracle.WALK_BUDGET

    def test_class_just_over_the_budget_raises_in_bounded_memory(self):
        # (139,2,2) is 1.96e8 and (140,2,2) 2.02e8, one percent over
        assert math.comb(141, 2) * 141**2 <= oracle.WALK_BUDGET < math.comb(142, 2) * 142**2
        tracemalloc.start()
        try:
            with pytest.raises(ClassTooLarge, match="minima budget"):
                class_minima(140, 2, 2, ONE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert class_counts(140, 2, 2) == (10011, 9870)

    def test_nan_screen_is_confirmed(self, monkeypatch):
        def nan_screen(n, k, counts):
            return np.full((len(n), len(CRITERION_NAMES)), np.nan)

        monkeypatch.setattr(criteria, "stacked_criteria", nan_screen)
        _, _, best, arg = reference_class_minima(4, 3, 2, ONE)
        result = class_minima(4, 3, 2, ONE)
        assert result.minima == best and result.argmin == arg

    @pytest.mark.parametrize("failure", ["nan_row", "cholesky"])
    def test_failed_exact_rows_are_scored_alone(self, monkeypatch, failure):
        # a NaN row, or a stack whose factorization fails, goes through the
        # per-design path; the minima and argmins do not change
        original, original_intrablock = criteria.stacked_exact_criteria, criteria.intrablock
        original_cholesky = matrix._cholesky_inverse
        exact = []

        def failing(n, k, aug):
            values = original(n, k, aug)
            values[::2, 1] = np.nan
            return values

        def failing_cholesky(a):
            if a.ndim == 3:  # a stack; a design scored alone factors as usual
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return original_cholesky(a)

        def counting_intrablock(d):
            exact.append(d)
            return original_intrablock(d)

        _, _, best, arg = reference_class_minima(5, 4, 2, ONE)
        if failure == "cholesky":
            monkeypatch.setattr(matrix, "_cholesky_inverse", failing_cholesky)
        else:
            monkeypatch.setattr(criteria, "stacked_exact_criteria", failing)
        monkeypatch.setattr(criteria, "intrablock", counting_intrablock)
        result = class_minima(5, 4, 2, ONE)
        assert {n: x.hex() for n, x in result.minima.items()} == {n: x.hex() for n, x in best.items()}
        assert result.argmin == arg
        assert 0 < len(exact) < result.n_connected

    @pytest.mark.parametrize(
        "args, cap, error",
        [
            ((3, 1, 2, ONE), None, InvalidParameters),
            ((1, 2, 2, ONE), None, InvalidParameters),
            ((5, 4, 2, AugmentationSpec.per_block([1, 2])), None, InvalidParameters),
            ((0, 2, 2, ONE), None, InvalidParameters),
            ((5, 4, 2, ONE), 100, ClassTooLarge),
        ],
        ids=["v1", "one-test", "s_list-length", "b0", "cap"],
    )
    def test_bad_parameters_raise_as_before(self, monkeypatch, args, cap, error):
        if cap is not None:
            monkeypatch.setattr(oracle, "DEFAULT_ENUM_CAP", cap)
        with pytest.raises(error) as got:
            class_minima(*args)
        with pytest.raises(error) as want:
            reference_class_minima(*args)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize(
        "args",
        [
            (1, 2, 2, AugmentationSpec.common(2)),
            (1, 3, 2, ONE),
            (1, 3, 2, AugmentationSpec.per_block([1, 2])),
            (2, 3, 2, AugmentationSpec.per_block([1, 1])),
        ],
        ids=["b1-s2", "no-connected", "no-connected-s_list", "2-3-2-s_list"],
    )
    def test_small_classes_keep_results(self, args):
        n_raw, n_connected, best, arg = reference_class_minima(*args)
        result = class_minima(*args)
        assert (result.n_designs, result.n_connected) == (n_raw, n_connected)
        assert result.minima == best and result.argmin == arg

    def test_single_block_minima(self):
        result = class_minima(1, 2, 2, AugmentationSpec.common(2))
        assert result.minima == dict.fromkeys(CRITERION_NAMES, 2.0)
        empty = class_minima(1, 3, 2, ONE)
        assert (empty.n_connected, empty.minima, empty.argmin) == (0, {}, {})
