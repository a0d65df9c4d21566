import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from augdes import criteria, oracle
from augdes.design import (
    AugmentationSpec,
    all_k_subsets,
    delete_blocks,
    dual,
    from_blocks,
    is_connected,
    lattice_bib,
    read_design,
)
from augdes.errors import (
    ClassTooLarge,
    Disconnected,
    InvalidParameters,
    NotEstimable,
)
from augdes.oracle import (
    CRITERION_NAMES,
    build_model,
    class_minima,
    enumerate_class,
    gls_variance,
    verify_design,
)
from augdes.search import MOVE_TOL

ONE = AugmentationSpec.common(1)
RCBD2 = from_blocks(2, [[1, 2], [1, 2]])
DESIGNS = Path(__file__).resolve().parent.parent / "designs"


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
        m = build_model(RCBD2, ONE)
        # 4 control plots + 2 test plots; every row has exactly two ones
        assert m.x.shape == (6, 6)
        assert (m.x.sum(axis=1) == 2).all()
        assert set(np.unique(m.x)) == {0.0, 1.0}

    def test_plot_cap(self):
        with pytest.raises(InvalidParameters):
            build_model(all_k_subsets(5, 3), AugmentationSpec.common(50), max_plots=200)

    def test_pseudo_inverse_conditions(self):
        m = build_model(RCBD2, AugmentationSpec.common(2))
        a, g = m.info, m.info_pinv
        assert np.max(np.abs(a @ g @ a - a)) <= 1e-9
        assert np.max(np.abs(g @ a @ g - g)) <= 1e-9


class TestPlotLayout:
    @pytest.mark.parametrize("d, aug", [c[1:] for c in CATALOGUE], ids=[c[0] for c in CATALOGUE])
    def test_info_is_x_transpose_x(self, d, aug):
        m = build_model(d, aug, max_plots=sum(d.block_sizes) + aug.total(d.b))
        assert "x" not in vars(m)
        assert np.array_equal(m.info, m.x.T @ m.x)

    @pytest.mark.parametrize(
        "d",
        [from_blocks(4, [[1, 2], [3, 4]]), from_blocks(3, [[1, 1], [2, 2]]), lattice_bib(3)],
        ids=["two-components", "unused-treatment", "lattice_q3"],
    )
    def test_moore_penrose_conditions(self, d):
        # the component labels must give the orthonormal null basis, one
        # column per component, so that the shifted inverse is the MP inverse
        m = build_model(d, AugmentationSpec.common(2))
        a, g = m.info, m.info_pinv
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
            m = build_model(d, ONE, max_plots=3010)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024
        assert "x" not in vars(m)
        assert m.x.shape == (3010, 30)

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
        assert abs(gls_variance(m, m.cc_contrast(1, 2)) - 1.0) <= 1e-10
        assert abs(gls_variance(m, m.tt_contrast(1, 1, 2, 1)) - 3.0) <= 1e-10
        assert abs(gls_variance(m, m.ct_contrast(1, 1, 1)) - 1.75) <= 1e-10

    def test_same_block_tests(self):
        m = build_model(RCBD2, AugmentationSpec.common(2))
        assert abs(gls_variance(m, m.tt_contrast(1, 1, 1, 2)) - 2.0) <= 1e-10

    def test_not_estimable_across_components(self):
        d = from_blocks(4, [[1, 2], [3, 4]])
        m = build_model(d, ONE)
        with pytest.raises(NotEstimable):
            gls_variance(m, m.cc_contrast(1, 3))
        # within one component the contrast is still fine
        assert gls_variance(m, m.cc_contrast(1, 2)) > 0.0

    def test_estimability_matches_connectivity_on_small_class(self):
        for d in enumerate_class(4, 3, 2):
            m = build_model(d, ONE)
            failures = 0
            for i in range(1, d.v + 1):
                for j in range(i + 1, d.v + 1):
                    try:
                        gls_variance(m, m.cc_contrast(i, j))
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

    def test_plot_cap_checked_before_intrablock(self):
        # a 1,001-treatment path needs 3,000 plots; the cap rejects it
        # before any dense order-v or order-b matrix exists
        d = from_blocks(1001, [[i, i + 1] for i in range(1, 1001)])
        tracemalloc.start()
        try:
            with pytest.raises(InvalidParameters):
                verify_design(d, ONE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**21


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
            gls_variance(model, model.cc_contrast(i, i2))
            for i in range(1, d.v + 1)
            for i2 in range(i + 1, d.v + 1)
        ]
        tt = [
            gls_variance(model, model.tt_contrast(*tests[a], *tests[b]))
            for a in range(len(tests))
            for b in range(a + 1, len(tests))
        ]
        ct = [
            gls_variance(model, model.ct_contrast(i, j, w))
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
        assert list(enumerate_class(1, 3, 2, connected_only=True)) == []

    def test_connected_only_filter(self):
        assert all(is_connected(d) for d in enumerate_class(3, 3, 2, connected_only=True))

    def test_cap(self):
        with pytest.raises(ClassTooLarge):
            list(enumerate_class(10, 10, 5, cap=1000))

    def test_bad_parameters(self):
        with pytest.raises(InvalidParameters):
            list(enumerate_class(0, 3, 2))


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
        designs = list(enumerate_class(4, 3, 2, connected_only=True))
        values = [a_criteria(intrablock(d), d, ONE) + mv_criteria(intrablock(d), d) for d in designs]
        for pos, name in enumerate(CRITERION_NAMES):
            low = min(row[pos] for row in values)
            first = next(d for d, row in zip(designs, values) if row[pos] <= low + MOVE_TOL)
            assert result.argmin[name] == first, name

    def test_connectivity_checked_once_per_design(self, monkeypatch):
        connectivity = []
        exact = []
        original_connected = oracle.is_connected
        original_intrablock = criteria.intrablock

        def counting_connected(d):
            connectivity.append(d)
            return original_connected(d)

        def counting_intrablock(d):
            exact.append(d)
            return original_intrablock(d)

        monkeypatch.setattr(oracle, "is_connected", counting_connected)
        monkeypatch.setattr(criteria, "intrablock", counting_intrablock)
        result = class_minima(4, 3, 2, ONE)
        assert len(connectivity) == result.n_designs == 126
        assert len(set(connectivity)) == 126
        assert 0 < len(exact) < result.n_connected == 51
        assert all(is_connected(d) for d in exact)

    def test_minima_are_attained_values(self):
        from augdes.criteria import a_criteria, intrablock

        result = class_minima(3, 4, 2, ONE)
        d = result.argmin["a_cc"]
        ib = intrablock(d)
        assert abs(a_criteria(ib, d, ONE)[0] - result.minima["a_cc"]) <= 1e-12


def reference_class_minima(b, v, k, aug, cap=oracle.DEFAULT_ENUM_CAP):
    """The unchunked loop: one exact intrablock and criteria report per
    enumerated design, in enumeration order, with the same update rule."""
    best, arg = {}, {}
    n_raw = n_connected = 0
    for d in enumerate_class(b, v, k, cap=cap):
        n_raw += 1
        try:
            ib = criteria.intrablock(d)
        except Disconnected:
            continue
        n_connected += 1
        report = criteria.criteria_report(ib, d, aug)
        for name in CRITERION_NAMES:
            value = getattr(report, name)
            if name not in best or value < best[name] - MOVE_TOL:
                best[name] = value
                arg[name] = d
    return n_raw, n_connected, best, arg


class TestStackedClassMinima:
    @pytest.mark.parametrize(
        "cls, aug",
        [
            ((4, 3, 2), ONE),
            ((3, 4, 2), ONE),
            ((5, 4, 2), ONE),
            ((5, 4, 2), AugmentationSpec.common(3)),
            ((5, 4, 2), AugmentationSpec.per_block([1, 2, 3, 1, 4])),
        ],
        ids=["4-3-2", "3-4-2", "5-4-2", "5-4-2-s3", "5-4-2-s_list"],
    )
    def test_matches_one_exact_score_per_design(self, cls, aug):
        n_raw, n_connected, best, arg = reference_class_minima(*cls, aug)
        result = class_minima(*cls, aug)
        assert (result.n_designs, result.n_connected) == (n_raw, n_connected)
        assert {n: x.hex() for n, x in result.minima.items()} == {n: x.hex() for n, x in best.items()}
        assert result.argmin == arg

    def test_chunks_span_the_class(self, monkeypatch):
        # 574 connected designs in chunks of 7: the running best crosses 82 chunk starts
        _, _, best, arg = reference_class_minima(5, 4, 2, ONE)
        monkeypatch.setattr(oracle, "CHUNK", 7)
        result = class_minima(5, 4, 2, ONE)
        assert result.minima == best and result.argmin == arg

    def test_nan_screen_is_confirmed(self, monkeypatch):
        def nan_screen(n, k, counts):
            return np.full((len(n), len(CRITERION_NAMES)), np.nan)

        monkeypatch.setattr(criteria, "stacked_criteria", nan_screen)
        _, _, best, arg = reference_class_minima(4, 3, 2, ONE)
        result = class_minima(4, 3, 2, ONE)
        assert result.minima == best and result.argmin == arg

    @pytest.mark.parametrize(
        "args, kwargs, error",
        [
            ((3, 1, 2, ONE), {}, InvalidParameters),
            ((1, 2, 2, ONE), {}, InvalidParameters),
            ((5, 4, 2, AugmentationSpec.per_block([1, 2])), {}, InvalidParameters),
            ((0, 2, 2, ONE), {}, InvalidParameters),
            ((5, 4, 2, ONE), {"cap": 100}, ClassTooLarge),
        ],
        ids=["v1", "one-test", "s_list-length", "b0", "cap"],
    )
    def test_bad_parameters_raise_as_before(self, args, kwargs, error):
        with pytest.raises(error) as got:
            class_minima(*args, **kwargs)
        with pytest.raises(error) as want:
            reference_class_minima(*args, **kwargs)
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
