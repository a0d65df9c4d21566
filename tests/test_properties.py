"""Property-based checks of the algebraic identities behind the criteria.

Every tolerance is relative to the size of the quantities compared.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from augdes.bounds import a_bounds
from augdes.criteria import a_criteria, criteria_report, equireplicate_identities, intrablock, stacked_criteria
from augdes.design import AugmentationSpec, BlockDesign, is_connected

REL = 1e-12


@st.composite
def connected_designs(draw):
    """A connected design with constant block size, possibly non-binary
    and non-equireplicate."""
    v = draw(st.integers(2, 7))
    b = draw(st.integers(2, 7))
    k = draw(st.integers(2, 4))
    assume(b * k >= v + b - 1)
    blocks = draw(st.lists(st.lists(st.integers(1, v), min_size=k, max_size=k), min_size=b, max_size=b))
    d = BlockDesign(v, tuple(tuple(sorted(block)) for block in blocks))
    assume(is_connected(d))
    return d


@st.composite
def resolvable_designs(draw):
    """r random parallel classes, each a partition of v = k m treatments
    into m blocks of size k; filtered to the connected ones."""
    k = draw(st.integers(2, 4))
    m = draw(st.integers(2, 4))
    r = draw(st.integers(2, 4))
    blocks = []
    for _ in range(r):
        order = draw(st.permutations(range(1, k * m + 1)))
        blocks += [tuple(sorted(order[i * k : (i + 1) * k])) for i in range(m)]
    d = BlockDesign(k * m, tuple(blocks))
    assume(is_connected(d))
    return d


@settings(max_examples=80, deadline=None)
@given(connected_designs())
def test_primal_inverse_from_dual(d):
    # P = Pi_v (R^-1 + R^-1 N Q N^T R^-1) Pi_v,   Pi_v = I - J/v
    ib = intrablock(d)
    g = d.incidence / np.asarray(d.replications, dtype=float)[:, None]
    inner = g @ ib.c_dual_plus.a @ g.T
    inner[np.diag_indices(d.v)] += 1.0 / np.asarray(d.replications, dtype=float)
    centre = np.eye(d.v) - 1.0 / d.v
    p = centre @ inner @ centre
    want = ib.c_plus.a
    assert np.max(np.abs(p - want)) <= REL * np.max(np.abs(want))


@settings(max_examples=80, deadline=None)
@given(resolvable_designs())
def test_equireplicate_identities_on_resolvable_designs(d):
    for lhs, rhs in equireplicate_identities(intrablock(d), d):
        assert abs(lhs - rhs) <= REL * max(abs(lhs), abs(rhs))


@settings(max_examples=80, deadline=None)
@given(connected_designs(), st.data())
def test_a_bounds_below_a_criteria(d, data):
    k = d.uniform_block_size()
    if data.draw(st.booleans()):
        aug = AugmentationSpec.common(data.draw(st.integers(1, 5)))
    else:
        aug = AugmentationSpec.per_block(data.draw(st.lists(st.integers(1, 5), min_size=d.b, max_size=d.b)))
    achieved = a_criteria(intrablock(d), d, aug)
    for got, bound in zip(achieved, a_bounds(d.b, d.v, k, aug)):
        assert got >= bound - REL * bound


@settings(max_examples=80, deadline=None)
@given(connected_designs(), st.data())
def test_stacked_criteria_match_exact_report(d, data):
    # the premise of the screen-then-confirm rule in oracle.class_minima
    if data.draw(st.booleans()):
        aug = AugmentationSpec.common(data.draw(st.integers(1, 5)))
    else:
        aug = AugmentationSpec.per_block(data.draw(st.lists(st.integers(1, 5), min_size=d.b, max_size=d.b)))
    n = d.incidence[None, :, :].astype(float)
    screened = stacked_criteria(n, d.uniform_block_size(), aug.counts(d.b))[0]
    exact = criteria_report(intrablock(d), d, aug)
    for got, want in zip(screened, (exact.a_cc, exact.a_tt, exact.a_ct, exact.mv_cc, exact.mv_tt, exact.mv_ct)):
        assert abs(got - want) <= REL * abs(want)
