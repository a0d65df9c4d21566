import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from augdes.errors import AugdesError, DimensionMismatch, NotSymmetric, SingularMatrix
from augdes.matrix import BLOCK_ORDER, SymMatrix, _triangular_inverse, invert, mp_inverse_centered


def sym(rows):
    return SymMatrix(np.array(rows, dtype=float))


class TestSymMatrix:
    def test_rejects_rectangular(self):
        with pytest.raises(DimensionMismatch):
            SymMatrix(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            sym([[0.0, 1.0], [2.0, 0.0]])

    def test_asymmetry_is_a_package_error(self):
        with pytest.raises(NotSymmetric) as info:
            sym([[0.0, 1.0], [2.0, 0.0]])
        assert isinstance(info.value, AugdesError)

    def test_rejects_asymmetry_next_to_nan(self):
        with pytest.raises(ValueError):
            sym([[np.nan, 1.0], [2.0, 0.0]])

    def test_symmetrizes_tiny_asymmetry(self):
        m = SymMatrix(np.array([[1.0, 2.0 + 1e-14], [2.0, 1.0]]))
        assert m.a[0, 1] == m.a[1, 0]

    def test_exactly_symmetric_input_is_stored_as_is(self):
        base = np.random.default_rng(3).uniform(-1.0, 1.0, size=(6, 6)) / 3.0
        x = base + base.T
        assert np.array_equal(x, x.T)
        assert SymMatrix(x).a.tobytes() == x.tobytes()

    def test_slightly_asymmetric_input_is_symmetrized(self):
        base = np.random.default_rng(4).uniform(-1.0, 1.0, size=(6, 6))
        x = base + base.T
        x[1, 4] += 1e-12
        assert SymMatrix(x).a.tobytes() == (0.5 * (x + x.T)).tobytes()

    def test_rejects_asymmetry_beyond_relative_tolerance(self):
        x = np.full((3, 3), 1e3)
        x[0, 2] += 1e-4  # 1e-7 relative to the largest entry, above 1e-8
        with pytest.raises(ValueError):
            SymMatrix(x)

    def test_entries_read_only(self):
        m = sym(np.eye(2))
        with pytest.raises(ValueError):
            m.a[0, 0] = 5.0


class TestInvert:
    def test_identity(self):
        assert np.max(np.abs(invert(sym(np.eye(3))).a - np.eye(3))) <= 1e-12

    def test_diagonal(self):
        inv = invert(sym([[2.0, 0.0], [0.0, 4.0]]))
        assert np.allclose(inv.a, np.diag([0.5, 0.25]), atol=1e-12)

    @pytest.mark.parametrize(
        "rows",
        [[[1.0, 1.0], [1.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]],
        ids=["rank_deficient", "indefinite"],
    )
    def test_rank_deficient_raises(self, rows):
        with pytest.raises(SingularMatrix):
            invert(sym(rows))

    def test_nan_raises(self):
        with pytest.raises(SingularMatrix):
            invert(sym([[np.nan]]))

    def test_product_is_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            base = rng.uniform(-1.0, 1.0, size=(5, 5))
            m = SymMatrix(base @ base.T + np.eye(5))
            residual = m.a @ invert(m).a - np.eye(5)
            assert np.max(np.sum(np.abs(residual), axis=1)) <= 1e-9

    @settings(max_examples=50, deadline=None)
    @given(
        arrays(
            np.float64,
            (4, 4),
            elements=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        )
    )
    def test_invert_roundtrip(self, base):
        m = SymMatrix(base @ base.T + np.eye(4))
        again = invert(invert(m))
        assert np.max(np.abs(again.a - m.a)) <= 1e-7


def _spd(rng, n):
    """A well-conditioned symmetric positive definite matrix of order n."""
    base = rng.uniform(-1.0, 1.0, size=(n, n))
    return base @ base.T / n + np.eye(n)


def _inf_norm(a):
    return np.abs(a).sum(axis=-1).max()


def _centered(rng, n):
    """A random symmetric matrix of order n with zero row sums and rank n - 1."""
    m = _spd(rng, n)
    m -= m.mean(axis=1, keepdims=True)
    m -= m.mean(axis=0, keepdims=True)
    return m


class TestTriangularInverse:
    def test_up_to_the_block_order_it_is_np_linalg_inv_bit_for_bit(self):
        # the pinned bits of lattice q = 7 (orders 49 and 56) and of the
        # (60, 2, 2) minima need np.linalg.inv up to order 64
        assert BLOCK_ORDER == 64
        rng = np.random.default_rng(5)
        for n in range(1, BLOCK_ORDER + 1):
            factor = np.linalg.cholesky(_spd(rng, n))
            assert _triangular_inverse(factor).tobytes() == np.linalg.inv(factor).tobytes()
        stack = np.linalg.cholesky(np.array([_spd(rng, BLOCK_ORDER) for _ in range(3)]))
        assert _triangular_inverse(stack).tobytes() == np.linalg.inv(stack).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(BLOCK_ORDER + 1, 200),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1e-3, 1.0, 1e3]),
    )
    def test_above_the_block_order_it_is_a_backward_stable_inverse(self, n, seed, scale):
        # ||X L - I|| within n eps ||L|| ||X|| in the infinity norm; both
        # np.linalg.inv and the blocked inverse stay below 1% of it here
        factor = np.linalg.cholesky(scale * _spd(np.random.default_rng(seed), n))
        x = _triangular_inverse(factor)
        residual, bound = _inf_norm(x @ factor - np.eye(n)), _inf_norm(factor) * _inf_norm(x)
        assert residual <= n * np.finfo(float).eps * bound


class TestMoorePenroseCentered:
    def test_two_by_two_contrast(self):
        out = mp_inverse_centered(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert np.allclose(out, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-12)

    def test_complete_symmetric_order_five(self):
        # 5 I - J has Moore-Penrose inverse (1/5)(I - J/5); check the four
        # Penrose conditions rather than trusting that closed form.
        a = 5.0 * np.eye(5) - np.ones((5, 5))
        g = mp_inverse_centered(a)
        assert np.allclose(g, (np.eye(5) - np.ones((5, 5)) / 5.0) / 5.0, atol=1e-12)
        assert np.max(np.abs(a @ g @ a - a)) <= 1e-8
        assert np.max(np.abs(g @ a @ g - g)) <= 1e-8
        assert np.max(np.abs((a @ g) - (a @ g).T)) <= 1e-8
        assert np.max(np.abs((g @ a) - (g @ a).T)) <= 1e-8

    def test_zero_matrix_is_disconnected(self):
        assert np.isnan(mp_inverse_centered(np.zeros((2, 2)))).all()

    def test_nan_matrix_is_not_centered(self):
        assert np.isnan(mp_inverse_centered(np.full((3, 3), np.nan))).all()

    def test_not_centered(self):
        assert np.isnan(mp_inverse_centered(np.eye(3))).all()

    def test_order_mismatch(self):
        # non-square, 1-D, a stack of non-square members, and order zero
        for shape in [(2, 3), (4,), (3, 2, 3), (0, 0)]:
            with pytest.raises(DimensionMismatch):
                mp_inverse_centered(np.zeros(shape))

    def test_output_row_sums_vanish(self):
        out = mp_inverse_centered(5.0 * np.eye(5) - np.ones((5, 5)))
        assert np.max(np.abs(out.sum(axis=0))) <= 1e-9
        assert np.max(np.abs(out.sum(axis=1))) <= 1e-9


class TestStackedMoorePenroseCentered:
    @settings(max_examples=30, deadline=None)
    @given(arrays(np.float64, (6, 5, 5), elements=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)))
    def test_members_match_the_single_path_bit_for_bit(self, bases):
        # each member of a stack gets the bits of the same matrix passed alone;
        # the identity keeps every member of rank 4 once centered
        stack = bases @ bases.swapaxes(1, 2) + np.eye(5)
        stack -= stack.mean(axis=2, keepdims=True)
        stack -= stack.mean(axis=1, keepdims=True)
        stack[:, 1, 3] += 1e-13  # asymmetric within tolerance: symmetrized first
        got = mp_inverse_centered(stack)
        for m, row in zip(stack, got):
            assert row.tobytes() == mp_inverse_centered(m).tobytes()

    def test_member_failing_a_check_is_nan(self):
        good = 5.0 * np.eye(5) - np.ones((5, 5))
        asymmetric = good.copy()
        asymmetric[0, 1] += 1e-3
        got = mp_inverse_centered(np.array([good, np.eye(5), asymmetric]))
        assert got[0].tobytes() == mp_inverse_centered(good).tobytes()
        assert np.isnan(got[1]).all() and np.isnan(got[2]).all()
        assert np.isnan(mp_inverse_centered(np.eye(5))).all()
        with pytest.raises(ValueError):
            SymMatrix(asymmetric)

    def test_members_above_the_block_order_match_the_single_path_bit_for_bit(self):
        rng = np.random.default_rng(6)
        stack = np.array([_centered(rng, 80) for _ in range(4)])
        stack[2, 1, 3] += 1e-13  # asymmetric within tolerance: symmetrized first
        got = mp_inverse_centered(stack)
        for m, row in zip(stack, got):
            assert not np.isnan(row).any()
            assert row.tobytes() == mp_inverse_centered(m).tobytes()

    def test_member_above_the_block_order_failing_a_check_is_nan(self):
        rng = np.random.default_rng(7)
        good = _centered(rng, 80)
        asymmetric = _centered(rng, 80)
        asymmetric[0, 1] += 1e-3
        got = mp_inverse_centered(np.array([good, np.eye(80), asymmetric]))
        assert got[0].tobytes() == mp_inverse_centered(good).tobytes()
        assert np.isnan(got[1]).all() and np.isnan(got[2]).all()

    def test_failed_factorization_fails_the_whole_stack(self):
        got = mp_inverse_centered(np.array([5.0 * np.eye(5) - np.ones((5, 5)), np.zeros((5, 5))]))
        assert np.isnan(got).all()
