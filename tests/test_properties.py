"""Property-based checks of the algebraic identities behind the criteria.

Every tolerance is relative to the size of the quantities compared.
"""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from augdes import criteria
from augdes.cli import build_report
from augdes.bounds import a_bounds
from augdes.criteria import (
    a_criteria,
    evaluate,
    intrablock,
    mv_criteria,
    stacked_criteria,
    stacked_exact_criteria,
)
from augdes.design import (
    AugmentationSpec,
    BlockDesign,
    can_connect,
    dual,
    is_connected,
    lattice_bib,
    stacked_connected,
)
from augdes.oracle import CRITERION_NAMES
from references import trace_identities

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
    inner = g @ ib.c_dual_plus @ g.T
    inner[np.diag_indices(d.v)] += 1.0 / np.asarray(d.replications, dtype=float)
    centre = np.eye(d.v) - 1.0 / d.v
    p = centre @ inner @ centre
    want = ib.c_plus
    assert np.max(np.abs(p - want)) <= REL * np.max(np.abs(want))


@settings(max_examples=80, deadline=None)
@given(connected_designs(), st.integers(1, 6), st.integers(1, 6))
@example(lattice_bib(13), 1, 3)
@example(dual(lattice_bib(13)), 3, 2)
def test_warm_memo_equals_cold(d, s_warm, s):
    # criteria read back from a memo warmed at another count have the bits
    # of a fresh object's, and of the arithmetic with no memo at all
    evaluate(d, AugmentationSpec.common(s_warm))
    aug = AugmentationSpec.common(s)
    fresh = BlockDesign(d.v, d.blocks)
    warm_values = (*a_criteria(intrablock(d), d, aug), *mv_criteria(intrablock(d), d))
    cold_values = (*a_criteria(intrablock(fresh), fresh, aug), *mv_criteria(intrablock(fresh), fresh))
    ib = intrablock(fresh)
    operands = (ib.c_plus, ib.c_dual_plus, d.incidence, np.asarray(d.replications, dtype=float))
    direct = (*criteria._a_values(*operands, aug), *criteria._mv_values(*operands))
    hexes = [[float(x).hex() for x in values] for values in (warm_values, cold_values, direct)]
    assert hexes[0] == hexes[1] == hexes[2]


@settings(max_examples=80, deadline=None)
@given(resolvable_designs())
def test_equireplicate_identities_on_resolvable_designs(d):
    for lhs, rhs in trace_identities(intrablock(d), d):
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
    screened = stacked_criteria(n, d.uniform_block_size(), aug)[0]
    exact = evaluate(d, aug)
    for got, want in zip(screened, (exact.a_cc, exact.a_tt, exact.a_ct, exact.mv_cc, exact.mv_tt, exact.mv_ct)):
        assert abs(got - want) <= REL * abs(want)


@settings(max_examples=80, deadline=None)
@given(connected_designs(), st.data())
def test_relabelled_design_scores_within_rel(d, data):
    # the premise of the orbit filter in oracle.class_minima: at a common
    # count, relabelling the controls (blocks sorted again, as the class
    # walk holds them) moves no criterion by more than rounding
    perm = data.draw(st.permutations(range(1, d.v + 1)))
    twin = BlockDesign(d.v, tuple(sorted(tuple(sorted(perm[x - 1] for x in block)) for block in d.blocks)))
    aug = AugmentationSpec.common(data.draw(st.integers(1, 5)))
    want, got = evaluate(d, aug), evaluate(twin, aug)
    for name in CRITERION_NAMES:
        assert abs(getattr(got, name) - getattr(want, name)) <= REL * abs(getattr(want, name)), name


@st.composite
def design_stacks(draw):
    """Up to six designs on the same v <= 8 treatments and b blocks; blocks
    may repeat a treatment and may differ in size, and a treatment may
    occur nowhere."""
    v = draw(st.integers(1, 8))
    b = draw(st.integers(1, 6))
    block = st.lists(st.integers(1, v), min_size=1, max_size=5).map(lambda x: tuple(sorted(x)))
    stack = draw(st.lists(st.lists(block, min_size=b, max_size=b), min_size=1, max_size=6))
    return [BlockDesign(v, tuple(blocks)) for blocks in stack]


@settings(max_examples=200, deadline=None)
@given(design_stacks())
def test_stacked_connected_matches_is_connected(designs):
    stack = np.array([d.incidence for d in designs])
    assert stacked_connected(stack).tolist() == [is_connected(d) for d in designs]


@st.composite
def connected_stacks(draw):
    """Up to eight connected designs of one (b, v, k), b = 1 included, with
    blocks that may repeat a treatment, and an augmentation with a common
    or per-block count."""
    v = draw(st.integers(2, 7))
    b = draw(st.integers(1, 7))
    k = draw(st.integers(2, 5))
    assume(can_connect(v, b, b * k))
    block = st.lists(st.integers(1, v), min_size=k, max_size=k).map(lambda x: tuple(sorted(x)))
    stack = draw(st.lists(st.lists(block, min_size=b, max_size=b), min_size=1, max_size=8))
    designs = [d for d in (BlockDesign(v, tuple(blocks)) for blocks in stack) if is_connected(d)]
    assume(designs)
    if draw(st.booleans()):
        aug = AugmentationSpec.common(draw(st.integers(1, 5)))
    else:
        aug = AugmentationSpec.per_block(draw(st.lists(st.integers(1, 5), min_size=b, max_size=b)))
    assume(aug.total(b) >= 2)
    return designs, k, aug


@settings(max_examples=150, deadline=None)
@given(connected_stacks())
@example(([BlockDesign(3, ((1, 2, 3, 3),)), BlockDesign(3, ((1, 1, 2, 3),))], 4, AugmentationSpec.common(2)))
@example(([BlockDesign(2, ((1, 2),))], 2, AugmentationSpec.per_block([3])))
def test_stacked_exact_criteria_match_report_bit_for_bit(case):
    designs, k, aug = case
    exact = stacked_exact_criteria(np.array([d.incidence for d in designs], dtype=float), k, aug)
    for d, row in zip(designs, exact.tolist()):
        report = evaluate(d, aug)
        assert [x.hex() for x in row] == [getattr(report, name).hex() for name in CRITERION_NAMES]


@settings(max_examples=150, deadline=None)
@given(connected_stacks())
@example(([BlockDesign(2, ((1, 1, 2),)), BlockDesign(2, ((1, 2, 2),))], 3, AugmentationSpec.per_block([2])))
@example(([BlockDesign(2, ((1, 1), (1, 2), (2, 2)))], 2, AugmentationSpec.per_block([1, 3, 2])))
def test_stack_last_screen_within_rel_of_exact(case):
    # the premise of the running floor in oracle.class_minima, at s=1, s=3
    # and the drawn counts, on a stack given as a np.moveaxis view of a
    # stack-last array and as it is
    designs, k, drawn = case
    b = designs[0].b
    n = np.array([d.incidence for d in designs], dtype=float)
    last = np.moveaxis(np.ascontiguousarray(np.moveaxis(n, 0, -1)), -1, 0)
    for aug in (AugmentationSpec.common(1), AugmentationSpec.common(3), drawn):
        if aug.total(b) < 2:
            continue
        exact = stacked_exact_criteria(n, k, aug)
        for stack in (last, n):
            assert np.all(np.abs(stacked_criteria(stack, k, aug) - exact) <= REL * np.abs(exact))


@settings(max_examples=100, deadline=None)
@given(design_stacks())
def test_stacked_connected_on_strided_views(designs):
    # (m, v, b) views that are not contiguous: every other member, the
    # members reversed, a transposed (m, b, v) stack and a stack-last one
    n = np.array([d.incidence for d in designs])
    want = [is_connected(d) for d in designs]
    assert stacked_connected(np.repeat(n, 2, axis=0)[::2]).tolist() == want
    assert stacked_connected(n[::-1]).tolist() == want[::-1]
    assert stacked_connected(np.swapaxes(np.ascontiguousarray(np.swapaxes(n, 1, 2)), 1, 2)).tolist() == want
    assert stacked_connected(np.moveaxis(np.ascontiguousarray(np.moveaxis(n, 0, -1)), -1, 0)).tolist() == want


def loop_incidence(d):
    """The v x b incidence counted one label at a time."""
    n = np.zeros((d.v, d.b), dtype=int)
    for j, block in enumerate(d.blocks):
        for label in block:
            n[label - 1, j] += 1
    return n


@settings(max_examples=200, deadline=None)
@given(design_stacks())
def test_incidence_matches_label_loop(designs):
    # non-binary blocks of mixed sizes, with treatments that occur nowhere
    for d in designs:
        n = d.incidence
        assert n.dtype == loop_incidence(d).dtype and not n.flags.writeable
        assert np.array_equal(n, loop_incidence(d))


@settings(max_examples=60, deadline=None)
@given(connected_designs(), st.data())
def test_warm_per_block_reports_equal_cold(d, data):
    # per-block reports on an object already scored at s=1 and s=3 read
    # the count-free matrices from its memo; by repr, they and their JSON
    # equal those of a fresh equal design
    for s in (1, 3):
        build_report(d, AugmentationSpec.common(s), "warm")
    for _ in range(2):
        aug = AugmentationSpec.per_block(data.draw(st.lists(st.integers(1, 4), min_size=d.b, max_size=d.b)))
        assert repr(evaluate(d, aug)) == repr(evaluate(BlockDesign(d.v, d.blocks), aug))
        warm = build_report(d, aug, "warm").to_json_dict()
        assert repr(warm) == repr(build_report(BlockDesign(d.v, d.blocks), aug, "warm").to_json_dict())
