import dataclasses
import gc
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from augdes import criteria, search
from augdes.criteria import (
    Intrablock,
    a_criteria,
    evaluate,
    intrablock,
    mv_criteria,
    stacked_criteria,
    stacked_exact_criteria,
    v_cc_matrix,
    v_ct_matrix,
    v_tt_matrix,
)
from augdes.design import (
    AugmentationSpec,
    BlockDesign,
    all_k_subsets,
    dual,
    from_blocks,
    is_connected,
    lattice_bib,
    read_design,
)
from augdes.errors import Disconnected, InvalidParameters, NonUniformBlockSize, SingularMatrix
from augdes.matrix import BLOCK_ORDER, CENTERED_TOL, SymMatrix, mp_inverse_centered
from augdes.oracle import CRITERION_NAMES, enumerate_class
from references import dual_inverse, reference_intrablock, trace_identities

RCBD2 = from_blocks(2, [[1, 2], [1, 2]])
DESIGNS = Path(__file__).resolve().parent.parent / "designs"
ONE = AugmentationSpec.common(1)


def information(d):
    """C and C_dual of a primal, as `intrablock` builds them, C_dual only up
    to BLOCK_ORDER blocks, before it inverts them."""
    r = np.asarray(d.replications, dtype=float)
    n, k = d.incidence.astype(float), d.uniform_block_size()
    return criteria._primal_information(n, r, k), criteria._dual_information(n, r, k)


def _difference(m, a, b):
    """(e_a - e_b)^T M (e_a - e_b) for 1-based a and b, as a quadratic form."""
    x = np.zeros(len(m))
    x[a - 1], x[b - 1] = 1.0, -1.0
    return float(x @ m @ x)


def v_cc(ib, i, i_star):
    """Control-vs-control multiplier: e_i - e_i* in P."""
    return _difference(ib.c_plus, i, i_star)


def v_tt(ib, j, j_star):
    """Block-contrast part of a cross-block test-vs-test multiplier: f_j - f_j* in Q."""
    return _difference(ib.c_dual_plus, j, j_star)


def v_ct(ib, d, i, j):
    """Control i against a test in block j: 1 + 1/r_i + xi^T Q xi, xi = f_j - N^T R^-1 e_i."""
    r_i = d.replications[i - 1]
    xi = -d.incidence[i - 1].astype(float) / r_i
    xi[j - 1] += 1.0
    return 1.0 + 1.0 / r_i + float(xi @ ib.c_dual_plus @ xi)


def pairwise_a_criteria(ib, d, aug):
    """The defining pair averages, as an independent route to a_criteria."""
    v, b = d.v, d.b
    counts = aug.counts(b)
    total = sum(counts)
    cc = 2.0 * sum(v_cc(ib, i, j) for i in range(1, v + 1) for j in range(i + 1, v + 1))
    cc /= v * (v - 1)
    tt_sum = sum(
        counts[i - 1] * counts[j - 1] * v_tt(ib, i, j)
        for i in range(1, b + 1)
        for j in range(i + 1, b + 1)
    )
    tt = 2.0 + 2.0 * tt_sum / (total * (total - 1))
    ct = sum(
        counts[j - 1] * v_ct(ib, d, i, j) for i in range(1, v + 1) for j in range(1, b + 1)
    ) / (v * total)
    return cc, tt, ct


class TestIntrablock:
    def test_two_block_matrices(self):
        c, c_dual = information(RCBD2)
        expected = [[1.0, -1.0], [-1.0, 1.0]]
        assert np.allclose(c, expected, atol=1e-12)
        assert np.allclose(c_dual, expected, atol=1e-12)

    def test_bib_information_matrix(self):
        c, _ = information(all_k_subsets(5, 3))
        assert np.allclose(c, 5.0 * np.eye(5) - np.ones((5, 5)), atol=1e-12)

    def test_non_uniform_block_size(self):
        with pytest.raises(NonUniformBlockSize):
            intrablock(from_blocks(3, [[1, 2], [1, 2, 3]]))

    def test_disconnected(self):
        with pytest.raises(Disconnected):
            intrablock(from_blocks(4, [[1, 2], [3, 4]]))

    def test_singular_inverse_of_connected_design(self, monkeypatch):
        # only the connectivity check raises Disconnected; an inverse that
        # fails on a connected design is a numerical failure
        def failing(a):
            return np.full(a.shape, np.nan)

        monkeypatch.setattr(criteria, "mp_inverse_centered", failing)
        with pytest.raises(SingularMatrix):
            intrablock(BlockDesign(RCBD2.v, RCBD2.blocks))

    def test_computed_once_per_design_object(self, monkeypatch):
        calls = []

        def counting(a):
            calls.append(len(a))
            return mp_inverse_centered(a)

        monkeypatch.setattr(criteria, "mp_inverse_centered", counting)
        d, twin = lattice_bib(3), lattice_bib(3)
        ib = intrablock(d)
        assert len(calls) == 2
        assert intrablock(d) is ib
        assert len(calls) == 2
        # the memo is keyed by identity: an equal design computes again
        assert d == twin
        twin_ib = intrablock(twin)
        assert twin_ib is not ib
        assert len(calls) == 4
        assert np.array_equal(twin_ib.c_plus, ib.c_plus)
        assert np.array_equal(twin_ib.c_dual_plus, ib.c_dual_plus)

    @pytest.mark.parametrize(
        "blocks, error",
        [([[1, 2], [3, 4]], Disconnected), ([[1, 2], [1, 2, 3], [3, 4, 1]], NonUniformBlockSize)],
        ids=["disconnected", "non_uniform"],
    )
    def test_failure_is_not_stored(self, blocks, error):
        d = from_blocks(4, blocks)
        for _ in range(3):
            with pytest.raises(error):
                intrablock(d)
            assert not any(isinstance(x, Intrablock) for x in vars(d).values())

    def test_order_above_max_rejected_first(self, monkeypatch):
        # a path design on MAX_ORDER + 1 treatments: rejected before the
        # connectivity check and before the dense incidence is built
        v = criteria.MAX_ORDER + 1
        d = from_blocks(v, [[i, i + 1] for i in range(1, v)])

        def refuse(d):
            raise AssertionError("connectivity was checked")

        monkeypatch.setattr(criteria, "is_connected", refuse)
        with pytest.raises(InvalidParameters):
            intrablock(d)
        assert "incidence" not in vars(d)
        criteria.check_order(criteria.MAX_ORDER, criteria.MAX_ORDER)

    def test_stored_value_is_immutable(self):
        ib = intrablock(lattice_bib(3))
        with pytest.raises(dataclasses.FrozenInstanceError):
            ib.c_plus = ib.c_dual_plus
        for m in (ib.c_plus, ib.c_dual_plus):
            assert not m.flags.writeable

    def test_memo_holds_only_the_inverses(self):
        # P and Q, of orders v and b; C and C_dual are not kept
        d = dual(lattice_bib(13))
        ib = intrablock(d)
        held = sum(x.nbytes for x in vars(ib).values() if isinstance(x, np.ndarray))
        assert held == 8 * (d.v**2 + d.b**2)

    def test_no_symmatrix_builds_per_intrablock(self, monkeypatch):
        # C, C_dual, P and Q all stay arrays
        built = []
        original = SymMatrix.__post_init__

        def counting(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(SymMatrix, "__post_init__", counting)
        intrablock(lattice_bib(3))
        assert built == []

    def test_memo_keeps_the_count_checks(self):
        # a warm memo still rejects a per-block list of the wrong length,
        # and a design with one control, whose P and Q exist
        d = lattice_bib(3)
        ib = intrablock(d)
        evaluate(d, ONE)
        with pytest.raises(InvalidParameters):
            a_criteria(ib, d, AugmentationSpec.per_block([1] * (d.b - 1)))
        single = from_blocks(1, [[1, 1], [1, 1]])
        single_ib = intrablock(single)
        for _ in range(2):
            for call in (lambda: a_criteria(single_ib, single, ONE), lambda: mv_criteria(single_ib, single)):
                with pytest.raises(InvalidParameters):
                    call()
        assert set(vars(single_ib)) == {"c_plus", "c_dual_plus"}

    def test_only_the_designs_own_memo_stores(self):
        # an intrablock of another object, even an equal one, is read but
        # never written, so no value passes from one design to another
        d = lattice_bib(3)
        twin = BlockDesign(d.v, d.blocks)
        ib = intrablock(d)
        assert mv_criteria(ib, twin) == mv_criteria(intrablock(twin), twin)
        assert a_criteria(ib, twin, ONE) == a_criteria(intrablock(twin), twin, ONE)
        assert set(vars(ib)) == {"c_plus", "c_dual_plus"}
        evaluate(d, ONE)
        assert set(vars(ib)) > {"c_plus", "c_dual_plus"}

    def test_matrices_match_definition(self, corpus):
        for d, _ in corpus[:20]:
            c, c_dual = information(d)
            n = d.incidence.astype(float)
            r = np.asarray(d.replications, dtype=float)
            k = d.uniform_block_size()
            assert np.max(np.abs(c - (np.diag(r) - n @ n.T / k))) <= 1e-12
            assert np.max(np.abs(c_dual - (k * np.eye(d.b) - n.T @ np.diag(1 / r) @ n))) <= 1e-12
            assert np.max(np.abs(c.sum(axis=1))) <= 1e-9
            assert np.max(np.abs(c_dual.sum(axis=1))) <= 1e-9

    def test_dual_information_eigenvalues_capped_by_k(self, corpus):
        # x^T C_dual x <= k x^T x for centered x
        rng = np.random.default_rng(5)
        for d, _ in corpus[:20]:
            _, c_dual = information(d)
            for _ in range(5):
                x = rng.normal(size=d.b)
                x -= x.mean()
                assert float(x @ c_dual @ x) <= d.uniform_block_size() * float(x @ x) + 1e-9

    def test_penrose_conditions_on_corpus(self, corpus):
        for d, _ in corpus[:20]:
            ib = intrablock(d)
            c, c_dual = information(d)
            for m, g in [(c, ib.c_plus), (c_dual, ib.c_dual_plus)]:
                assert np.max(np.abs(m @ g @ m - m)) <= 1e-8
                assert np.max(np.abs(g @ m @ g - g)) <= 1e-8
                assert np.max(np.abs(m @ g - (m @ g).T)) <= 1e-8
                assert np.max(np.abs(g @ m - (g @ m).T)) <= 1e-8


class TestCountFreeMatrices:
    """The pairwise-Q triangle and the control-test matrix, which the
    MV-criteria and the per-block A-criteria read from the intrablock memo."""

    @staticmethod
    def counting(monkeypatch):
        calls = []
        original = criteria._count_free

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(criteria, "_count_free", counting)
        return calls

    @pytest.mark.parametrize("first", ["common", "per_block"])
    def test_built_once_per_design_object_and_read_only(self, monkeypatch, first):
        # s=1, s=3 and two different per-block lists on one object, in
        # either order, build them once; the memo then holds P, Q, the
        # triangle of b(b - 1)/2 entries and the v x b matrix
        calls = self.counting(monkeypatch)
        d = dual(lattice_bib(5))
        lists = [AugmentationSpec.per_block(1 + j % 3 for j in range(d.b)), AugmentationSpec.per_block([2] * d.b)]
        commons = [ONE, AugmentationSpec.common(3)]
        for aug in commons + lists if first == "common" else lists + commons:
            evaluate(d, aug)
        assert len(calls) == 1
        ib = intrablock(d)
        tt, ct = vars(ib)["count_free"]
        assert tt.shape == (d.b * (d.b - 1) // 2,) and ct.shape == (d.v, d.b)
        for m in (tt, ct):
            assert not m.flags.writeable
            with pytest.raises(ValueError):
                m[0] = 0.0
        held = sum(x.nbytes for m in vars(ib).values() for x in (m if isinstance(m, tuple) else (m,))
                   if isinstance(x, np.ndarray))
        assert held == 8 * (d.v**2 + d.b**2 + d.b * (d.b - 1) // 2 + d.v * d.b)

    def test_equal_design_never_reads_them(self, monkeypatch):
        # a twin scored with d's intrablock, or with its own, builds its own
        # matrices: d's memo, poisoned with NaN, changes none of its values
        d = lattice_bib(3)
        aug = AugmentationSpec.per_block(1 + j % 3 for j in range(d.b))
        evaluate(d, aug)
        ib = intrablock(d)
        stored = vars(ib)["count_free"]
        vars(ib)["count_free"] = tuple(np.full_like(m, np.nan) for m in stored)
        calls = self.counting(monkeypatch)
        twin = BlockDesign(d.v, d.blocks)
        want = [float(x).hex() for x in dataclasses.astuple(evaluate(BlockDesign(d.v, d.blocks), aug))]
        assert len(calls) == 1
        with_d_memo = (*a_criteria(ib, twin, aug), *mv_criteria(ib, twin))
        assert [float(x).hex() for x in with_d_memo] == want
        assert len(calls) == 3
        assert [float(x).hex() for x in dataclasses.astuple(evaluate(twin, aug))] == want
        assert len(calls) == 4
        own = vars(intrablock(twin))["count_free"]
        assert all(mine is not theirs for mine in own for theirs in stored)
        assert all(np.array_equal(mine, theirs) for mine, theirs in zip(own, stored))

    def test_common_count_search_objective_stores_none(self):
        # the exact confirm of a common-count search reads only the
        # common-count memo, so it builds no matrix of order b^2 or v b
        d = lattice_bib(3)
        cfg = search.SearchConfig(w_cc=1.0, w_tt=1.0, w_ct=1.0, aug=AugmentationSpec.common(2))
        search._objective(cfg, d)
        assert set(vars(intrablock(d))) == {"c_plus", "c_dual_plus", "common_a"}

    def test_per_block_scoring_keeps_nothing_of_order_b_squared_once_the_design_goes(self):
        # a cycle of 1,000 two-plot blocks over 10 treatments, scored per
        # block and then dropped: its memo goes with it, and no index
        # arrays of the upper triangle stay behind
        v, b = 10, 1_000
        aug = AugmentationSpec.per_block(1 + j % 3 for j in range(b))
        gc.collect()
        tracemalloc.start()
        try:
            d = BlockDesign(v, tuple(tuple(sorted((j % v + 1, (j + 1) % v + 1))) for j in range(b)))
            evaluate(d, aug)
            assert "count_free" in vars(intrablock(d))
            del d
            gc.collect()
            left, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert left < 2**20  # a b x b float matrix is 7.6 MiB


class TestContrastVariances:
    def test_rcbd_values(self):
        ib = intrablock(RCBD2)
        assert abs(v_cc_matrix(ib)[0, 1] - 1.0) <= 1e-12
        assert abs(v_tt_matrix(ib)[0, 1] - 1.0) <= 1e-12
        assert abs(v_ct_matrix(ib, RCBD2)[0, 0] - 1.75) <= 1e-12

    def test_matrix_forms_match_scalars(self, corpus):
        # against the quadratic forms of the test-side references above
        for d, _ in corpus[:10]:
            ib = intrablock(d)
            ccm, ttm, ctm = v_cc_matrix(ib), v_tt_matrix(ib), v_ct_matrix(ib, d)
            for i in range(1, d.v + 1):
                for j in range(1, d.b + 1):
                    assert abs(ctm[i - 1, j - 1] - v_ct(ib, d, i, j)) <= 1e-10
            for i in range(1, d.v + 1):
                for i2 in range(i + 1, d.v + 1):
                    assert abs(ccm[i - 1, i2 - 1] - v_cc(ib, i, i2)) <= 1e-10
            for j in range(1, d.b + 1):
                for j2 in range(j + 1, d.b + 1):
                    assert abs(ttm[j - 1, j2 - 1] - v_tt(ib, j, j2)) <= 1e-10

    def test_tt_floor(self, corpus):
        # the dual information matrix has no eigenvalue above k, hence
        # every cross-block tt part is at least 2/k
        for d, _ in corpus:
            ib = intrablock(d)
            ttm = v_tt_matrix(ib)
            iu = np.triu_indices(d.b, k=1)
            assert float(np.min(ttm[iu])) >= 2.0 / d.uniform_block_size() - 1e-9


class TestACriteria:
    def test_bib_values(self):
        bib = all_k_subsets(5, 3)
        ib = intrablock(bib)
        assert abs(np.trace(ib.c_plus) - 0.8) <= 1e-12
        assert abs(np.trace(ib.c_dual_plus) - 49.0 / 15.0) <= 1e-12
        a_cc, a_tt, a_ct = a_criteria(ib, bib, ONE)
        assert abs(a_cc - 0.4) <= 1e-12
        assert abs(a_tt - 2.0 * (1.0 + (49.0 / 15.0) / 9.0)) <= 1e-12
        assert abs(a_ct - 1.52) <= 1e-12

    def test_trace_and_pairwise_forms_agree(self, corpus):
        for d, aug in corpus[:20]:
            ib = intrablock(d)
            got = a_criteria(ib, d, aug)
            want = pairwise_a_criteria(ib, d, aug)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-10

    def test_equal_per_block_counts_reduce_to_common(self, corpus):
        for d, _ in corpus[:20]:
            ib = intrablock(d)
            for s in (1, 2, 5):
                common = a_criteria(ib, d, AugmentationSpec.common(s))
                per = a_criteria(ib, d, AugmentationSpec.per_block([s] * d.b))
                for c, p in zip(common, per):
                    assert abs(c - p) <= 1e-10

    def test_cc_and_ct_free_of_common_count(self):
        bib = all_k_subsets(5, 3)
        ib = intrablock(bib)
        base = a_criteria(ib, bib, ONE)
        for s in (2, 3, 19):
            other = a_criteria(ib, bib, AugmentationSpec.common(s))
            assert other[0] == base[0]
            assert abs(other[2] - base[2]) <= 1e-12
            assert other[1] != base[1]


class TestStackedExactCriteria:
    @pytest.mark.parametrize(
        "aug", [ONE, AugmentationSpec.per_block([1, 2, 3, 1, 2, 3])], ids=["s1", "s_list"]
    )
    def test_every_connected_6_4_2_design_bit_for_bit(self, aug):
        designs = list(filter(is_connected, enumerate_class(6, 4, 2)))
        assert len(designs) == 1939
        n = np.array([d.incidence for d in designs], dtype=float)
        exact = stacked_exact_criteria(n, 2, aug)
        for d, row in zip(designs, exact.tolist()):
            report = evaluate(d, aug)
            assert [x.hex() for x in row] == [getattr(report, name).hex() for name in CRITERION_NAMES]
        assert np.all(np.abs(stacked_criteria(n, 2, aug) - exact) <= 1e-12 * np.abs(exact))

    @pytest.mark.parametrize("score", [stacked_exact_criteria, stacked_criteria], ids=["exact", "screen"])
    @pytest.mark.parametrize("aug", [ONE, AugmentationSpec.per_block([1, 2, 3])], ids=["s1", "s_list"])
    def test_empty_stack(self, score, aug):
        assert score(np.empty((0, 4, 3)), 2, aug).shape == (0, 6)

    def test_disconnected_member_fails_the_stack(self):
        designs = [from_blocks(4, [[1, 2], [1, 3], [2, 4]]), from_blocks(4, [[1, 2], [1, 2], [3, 4]])]
        assert np.isnan(stacked_exact_criteria(np.array([d.incidence for d in designs], dtype=float), 2, ONE)).all()


class TestDualInverse:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_dual_inverse_from_primal(self, data):
        v = data.draw(st.integers(2, 7))
        b = data.draw(st.integers(2, 7))
        k = data.draw(st.integers(2, 4))
        assume(b * k >= v + b - 1)
        blocks = data.draw(
            st.lists(st.lists(st.integers(1, v), min_size=k, max_size=k), min_size=b, max_size=b)
        )
        d = BlockDesign(v, tuple(tuple(sorted(block)) for block in blocks))
        assume(is_connected(d))
        ib = intrablock(d)
        q = dual_inverse(ib.c_plus, d.incidence.astype(float), k)
        want = ib.c_dual_plus
        assert np.max(np.abs(q - want)) <= 1e-12 * np.max(np.abs(want))

    def test_lattice_and_its_dual(self):
        for d in (lattice_bib(5), dual(lattice_bib(3))):
            ib = intrablock(d)
            q = dual_inverse(ib.c_plus, d.incidence.astype(float), d.uniform_block_size())
            assert np.max(np.abs(q - ib.c_dual_plus)) <= 1e-12 * np.max(np.abs(ib.c_dual_plus))


def _linked_blocks(v, b):
    """b two-plot blocks linking v treatments in turn: (1, 2), (2, 3), ...,
    (v, 1), (1, 2), ..., a connected design for any v >= 2."""
    return BlockDesign(v, tuple(tuple(sorted((j % v + 1, (j + 1) % v + 1))) for j in range(b)))


def _seeded_design(seed, b, v, k):
    """A connected design of (b, v, k) drawn from a seeded generator."""
    rng = np.random.default_rng(seed)
    while True:
        d = BlockDesign(v, tuple(tuple(sorted(int(x) for x in rng.integers(1, v + 1, k))) for _ in range(b)))
        if is_connected(d):
            return d


LARGE_DUALS = {
    "lattice-q11": lambda: lattice_bib(11),
    "lattice-q11-dual": lambda: dual(lattice_bib(11)),
    "lattice-q13": lambda: lattice_bib(13),
    "lattice-q13-dual": lambda: dual(lattice_bib(13)),
    "120-2-2": lambda: _seeded_design(3, 120, 2, 2),
    "cycle-300": lambda: _linked_blocks(300, 300),
}


class TestDualFromPrimal:
    """Above matrix.BLOCK_ORDER blocks, Q = C_dual+ comes from P by the
    dual identity, with no C_dual built or inverted."""

    @pytest.mark.parametrize("name", LARGE_DUALS)
    def test_within_1e_13_of_the_cholesky_q(self, name):
        d = LARGE_DUALS[name]()
        assert d.b > BLOCK_ORDER
        ib = intrablock(d)
        cholesky = mp_inverse_centered(information(d)[1])
        reference = dual_inverse(ib.c_plus, d.incidence.astype(float), d.uniform_block_size())
        for want in (cholesky, reference):
            assert np.abs(ib.c_dual_plus - want).max() <= 1e-13 * np.abs(want).max()

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_symmetric_centered_and_inverse_on_the_contrasts(self, data):
        b = data.draw(st.integers(BLOCK_ORDER + 1, 160))
        v = data.draw(st.integers(2, 6))
        k = data.draw(st.integers(2, 4))
        blocks = data.draw(
            st.lists(st.lists(st.integers(1, v), min_size=k, max_size=k), min_size=b, max_size=b)
        )
        d = BlockDesign(v, tuple(tuple(sorted(block)) for block in blocks))
        assume(is_connected(d))
        q = intrablock(d).c_dual_plus
        c_dual = information(d)[1]
        assert np.array_equal(q.view(np.uint64), q.T.view(np.uint64))
        assert np.abs(q.sum(axis=1)).max() <= CENTERED_TOL
        # Q C_dual is the projector onto the block contrasts, to rounding
        # in a product of order b
        bound = 16 * b * np.finfo(float).eps * np.abs(q).max() * np.abs(c_dual).max()
        assert np.abs(q @ c_dual - (np.eye(b) - 1.0 / b)).max() <= bound

    @pytest.mark.parametrize("counts", ["common", "per_block"])
    def test_stacked_members_keep_the_single_bits(self, counts):
        designs = [_seeded_design(seed, 70, 3, 2) for seed in range(6)]
        aug = ONE if counts == "common" else AugmentationSpec.per_block(1 + j % 3 for j in range(70))
        n = np.array([d.incidence for d in designs], dtype=float)
        exact = stacked_exact_criteria(n, 2, aug)
        p = mp_inverse_centered(criteria._primal_information(n, n.sum(axis=2), 2))
        q = criteria._dual_from_primal(p, n, 2)
        for i, d in enumerate(designs):
            report = evaluate(d, aug)
            assert [x.hex() for x in exact[i].tolist()] == [getattr(report, name).hex() for name in CRITERION_NAMES]
            assert q[i].tobytes() == intrablock(d).c_dual_plus.tobytes()

    def test_nan_p_gives_nan_q_and_raises_singular_matrix(self, monkeypatch):
        d = _linked_blocks(3, BLOCK_ORDER + 1)
        nan_p = np.full((d.v, d.v), np.nan)
        assert np.isnan(criteria._dual_from_primal(nan_p, d.incidence.astype(float), 2)).all()
        monkeypatch.setattr(criteria, "mp_inverse_centered", lambda a: np.full(a.shape, np.nan))
        with pytest.raises(SingularMatrix):
            intrablock(d)

    @pytest.mark.parametrize("b", [BLOCK_ORDER, BLOCK_ORDER + 1])
    def test_route_changes_above_block_order(self, monkeypatch, b):
        # up to BLOCK_ORDER blocks C and C_dual are both inverted, and Q
        # keeps the bits of its Cholesky inverse; above, only C is
        inverted = []
        real = criteria.mp_inverse_centered

        def counting(a):
            inverted.append(a.shape)
            return real(a)

        monkeypatch.setattr(criteria, "mp_inverse_centered", counting)
        d = _linked_blocks(3, b)
        ib = intrablock(d)
        cholesky = real(information(d)[1])
        if b <= BLOCK_ORDER:
            assert inverted == [(3, 3), (b, b)]
            assert ib.c_dual_plus.tobytes() == cholesky.tobytes()
        else:
            assert inverted == [(3, 3)]
            identity = criteria._dual_from_primal(ib.c_plus, d.incidence.astype(float), 2)
            assert ib.c_dual_plus.tobytes() == identity.tobytes()
            assert np.abs(ib.c_dual_plus - cholesky).max() <= 1e-13 * np.abs(cholesky).max()

    @pytest.mark.parametrize("name", ["lattice-q11", "120-2-2"])
    def test_report_forms_g_q_once_with_the_same_bits(self, monkeypatch, name):
        # evaluate hands one G Q to the common-count values and to the
        # count-free matrices; scoring them apart gives the same bits
        shared = []
        real_common, real_ct = criteria._common_a_values, criteria._ct_matrix

        def common(p, q, n, r, gq=None):
            shared.append(gq)
            return real_common(p, q, n, r, gq)

        def ct(q, n, r, gq=None):
            shared.append(gq)
            return real_ct(q, n, r, gq)

        d, twin = LARGE_DUALS[name](), LARGE_DUALS[name]()
        with monkeypatch.context() as m:
            m.setattr(criteria, "_common_a_values", common)
            m.setattr(criteria, "_ct_matrix", ct)
            report = evaluate(d, ONE)
        assert len(shared) == 2 and shared[0] is shared[1] is not None
        ib = intrablock(twin)
        apart = (*a_criteria(ib, twin, ONE), *mv_criteria(ib, twin))
        assert [float(x).hex() for x in apart] == [float(x).hex() for x in dataclasses.astuple(report)]
        for got, want in zip(vars(intrablock(d))["count_free"], vars(ib)["count_free"]):
            assert got.tobytes() == want.tobytes()


class TestMVCriteria:
    def test_lattice_mv_cc_equals_a_cc(self):
        lat = lattice_bib(5)
        ib = intrablock(lat)
        mv_cc, _, _ = mv_criteria(ib, lat)
        a_cc, _, _ = a_criteria(ib, lat, ONE)
        assert abs(mv_cc - 0.4) <= 1e-12
        assert abs(mv_cc - a_cc) <= 1e-12

    def test_rcbd_mv_tt(self):
        ib = intrablock(RCBD2)
        assert abs(mv_criteria(ib, RCBD2)[1] - 3.0) <= 1e-12

    def test_max_at_least_average(self, corpus):
        for d, _ in corpus:
            rep = evaluate(d, ONE)
            assert rep.mv_cc >= rep.a_cc - 1e-9
            assert rep.mv_tt >= rep.a_tt - 1e-9
            assert rep.mv_ct >= rep.a_ct - 1e-9


class TestEquireplicateIdentities:
    def test_identities_hold(self, equireplicate_corpus):
        for d in equireplicate_corpus:
            ib = intrablock(d)
            (l1, r1), (l2, r2) = trace_identities(ib, d)
            assert abs(l1 - r1) <= 1e-9
            assert abs(l2 - r2) <= 1e-9


class TestConnectivityRankEquivalence:
    def test_centered_inverse_exists_iff_connected(self):
        # rank(C) = v - 1 exactly for connected designs; probe the shifted
        # inversion directly, bypassing the connectivity guard.
        for d in enumerate_class(4, 3, 2):
            n = d.incidence.astype(float)
            r = n.sum(axis=1)
            if (r == 0).any():
                assert not is_connected(d)
                continue
            invertible = not np.isnan(mp_inverse_centered(np.diag(r) - n @ n.T / 2.0)).any()
            assert invertible == is_connected(d)


@st.composite
def connected_primals(draw):
    """A connected design with constant block size over few labels, so
    that blocks often repeat a label."""
    v = draw(st.integers(2, 7))
    b = draw(st.integers(2, 7))
    k = draw(st.integers(2, 5))
    assume(b * k >= v + b - 1)
    blocks = draw(st.lists(st.lists(st.integers(1, v), min_size=k, max_size=k), min_size=b, max_size=b))
    d = BlockDesign(v, tuple(tuple(sorted(block)) for block in blocks))
    assume(is_connected(d))
    return d


def _assert_reference_bits(d):
    ib = intrablock(BlockDesign(d.v, d.blocks))
    p, q = reference_intrablock(d)
    assert ib.c_plus.tobytes() == p.tobytes()
    assert ib.c_dual_plus.tobytes() == q.tobytes()


class TestIntrablockReferenceBits:
    # P and Q keep the bits of the arithmetic the search fixtures were
    # recorded with: identity products for C and C_dual, the rule on each,
    # and the Cholesky inverse. C itself may differ in the sign of a zero.
    def test_lattices_duals_and_shipped_designs(self):
        designs = [lattice_bib(q) for q in (2, 3, 5, 7)]
        designs += [dual(d) for d in designs] + [read_design(path) for path in sorted(DESIGNS.glob("*.design"))]
        for d in designs:
            _assert_reference_bits(d)

    @settings(max_examples=50, deadline=None)
    @given(connected_primals())
    def test_random_connected_designs(self, d):
        _assert_reference_bits(d)

    @pytest.mark.parametrize("q", [11, 13])
    @pytest.mark.parametrize("side", [lambda d: d, dual], ids=["primal", "dual"])
    def test_large_lattices_within_1e_13_of_the_reference(self, q, side):
        # P and Q of order 121-182 come from the blocked inverse above
        # matrix.BLOCK_ORDER, the reference's from np.linalg.inv
        d = side(lattice_bib(q))
        ib = intrablock(d)
        for got, want in zip((ib.c_plus, ib.c_dual_plus), reference_intrablock(d)):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
