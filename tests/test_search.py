import hashlib
import random
import zlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from augdes import criteria, design, search
from augdes.design import AugmentationSpec, BlockDesign, format_design, is_connected
from augdes.errors import Disconnected, InvalidParameters, NoConnectedStart, SingularMatrix
from augdes.oracle import class_minima, enumerate_class
from augdes.search import SearchConfig, exchange_search

import references

ONE = AugmentationSpec.common(1)


@st.composite
def connected_designs(draw):
    """A connected design with constant block size and a count spec."""
    v = draw(st.integers(2, 6))
    b = draw(st.integers(2, 6))
    k = draw(st.integers(2, 4))
    assume(b * k >= v + b - 1)
    blocks = draw(st.lists(st.lists(st.integers(1, v), min_size=k, max_size=k), min_size=b, max_size=b))
    d = BlockDesign(v, tuple(tuple(sorted(block)) for block in blocks))
    assume(is_connected(d))
    if draw(st.booleans()):
        aug = AugmentationSpec.common(draw(st.integers(1, 4)))
    else:
        aug = AugmentationSpec.per_block(draw(st.lists(st.integers(1, 4), min_size=b, max_size=b)))
    return d, aug


def information(d):
    """C of a primal, as `criteria.intrablock` builds it before inverting it."""
    r = np.asarray(d.replications, dtype=float)
    return criteria._primal_information(d.incidence.astype(float), r, d.uniform_block_size())


def _replaced(d, j, pos, t):
    block = d.blocks[j][:pos] + (t,) + d.blocks[j][pos + 1 :]
    return BlockDesign(d.v, d.blocks[:j] + (tuple(sorted(block)),) + d.blocks[j + 1 :])


def test_invalid_weights():
    with pytest.raises(InvalidParameters):
        SearchConfig(w_cc=0.0, w_tt=0.0, w_ct=0.0)
    with pytest.raises(InvalidParameters):
        SearchConfig(w_cc=-1.0, w_tt=1.0, w_ct=1.0)
    with pytest.raises(InvalidParameters):
        SearchConfig(w_cc=float("nan"), w_tt=1.0, w_ct=1.0)


def test_restarts_validated():
    with pytest.raises(InvalidParameters):
        SearchConfig(w_cc=1.0, w_tt=0.0, w_ct=0.0, restarts=0)


def test_no_connected_start():
    # two singleton blocks can never touch five treatments
    cfg = SearchConfig(w_cc=1.0, w_tt=1.0, w_ct=1.0, restarts=1)
    with pytest.raises(NoConnectedStart):
        exchange_search(2, 5, 1, cfg)


@pytest.mark.parametrize("bvk", [(2, 5, 1), (3, 6, 2)], ids=["2-5-1", "3-6-2"])
def test_no_connected_design_raises_before_any_draw(bvk, monkeypatch):
    # bk < v + b - 1 edges cannot span the treatment-block graph
    def no_design(*args):
        raise AssertionError("a design was built")

    monkeypatch.setattr(search, "BlockDesign", no_design)
    cfg = SearchConfig(w_cc=1.0, w_tt=1.0, w_ct=1.0, restarts=1)
    with pytest.raises(NoConnectedStart):
        exchange_search(*bvk, cfg)


@pytest.mark.parametrize("bvk", [(2, criteria.MAX_ORDER + 1, criteria.MAX_ORDER), (criteria.MAX_ORDER + 1, 3, 2),
                                 (2, 2, criteria.MAX_ORDER + 1)], ids=["v", "b", "k"])
def test_order_above_max_raises_before_any_draw(bvk, monkeypatch):
    def no_design(*args):
        raise AssertionError("a design was built")

    monkeypatch.setattr(search, "BlockDesign", no_design)
    cfg = SearchConfig(w_cc=1.0, w_tt=1.0, w_ct=1.0, restarts=1)
    with pytest.raises(InvalidParameters):
        exchange_search(*bvk, cfg)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 7])
def test_sparse_class_gets_a_connected_start(seed):
    # restart 0 of these seeds: 98 uniform draws over 49 labels leave some
    # label unused in all 1,000 attempts, yet the 2-class lattice q=7 is in
    # the class, so the start is built on a spanning tree
    d = search._random_connected(14, 49, 7, random.Random(seed * 1_000_003))
    assert is_connected(d)
    assert d.b == 14 and d.uniform_block_size() == 7


@pytest.mark.parametrize("bvk", [(4, 9, 3), (6, 7, 2), (1, 4, 4), (7, 43, 7), (3, 5, 3)])
def test_spanning_start_fits_tight_classes(bvk):
    # b k = v + b - 1 leaves no plot beyond the spanning tree, except (3,5,3)
    b, v, k = bvk
    for seed in range(50):
        d = search._spanning_start(b, v, k, random.Random(seed))
        assert is_connected(d)
        assert d.b == b and d.uniform_block_size() == k


@st.composite
def pass_points(draw):
    """A connected design with constant block size, a count spec and a
    point (o_from, t_from) of a pass: occurrence index j k + pos and first
    label. Half the classes are tight (b k = v + b - 1), where the design
    is a spanning tree and every move disconnects it or keeps it a tree;
    the rest are drawn freely over few labels, so blocks repeat labels."""
    b = draw(st.integers(2, 6))
    k = draw(st.integers(2, 4))
    if draw(st.booleans()):
        v = b * (k - 1) + 1
        d = search._spanning_start(b, v, k, random.Random(draw(st.integers(0, 2**32))))
    else:
        v = draw(st.integers(2, 5))
        blocks = draw(st.lists(st.lists(st.integers(1, v), min_size=k, max_size=k), min_size=b, max_size=b))
        d = BlockDesign(v, tuple(tuple(sorted(block)) for block in blocks))
        assume(is_connected(d))
    if draw(st.booleans()):
        aug = AugmentationSpec.common(draw(st.integers(1, 4)))
    else:
        aug = AugmentationSpec.per_block(draw(st.lists(st.integers(1, 4), min_size=b, max_size=b)))
    return d, aug, draw(st.integers(0, b * k - 1)), draw(st.integers(1, v + 1))


def _rest_of_pass(d, o_from, t_from):
    """Every move (o, t) from (o_from, t_from) to the end of the pass, in scan order."""
    k = len(d.blocks[0])
    return [
        (o, t)
        for o in range(o_from, d.b * k)
        for t in range(t_from if o == o_from else 1, d.v + 1)
        if t != d.blocks[o // k][o % k]
    ]


def _reference_pass(cfg, d, obj, trace):
    """One pass that scores every connected replacement exactly, in scan
    order, going on from t + 1 on the new design after each accepted move."""
    improved = False
    for j in range(d.b):
        for pos in range(len(d.blocks[j])):
            for t in range(1, d.v + 1):
                cand = _replaced(d, j, pos, t)
                if t == d.blocks[j][pos] or not is_connected(cand):
                    continue
                cand_obj = search._objective(cfg, cand)
                if cand_obj < obj - search.MOVE_TOL:
                    d, obj, improved = cand, cand_obj, True
                    trace.append(obj)
    return d, obj, improved


@settings(max_examples=60, deadline=None)
@given(pass_points())
def test_screen_matches_exact_objective(case):
    # every connected move of the batch, at common and per-block counts
    d, aug, o_from, t_from = case
    cfg = SearchConfig(w_cc=1.0, w_tt=2.0, w_ct=0.5, aug=aug)
    k = len(d.blocks[0])
    moves, labels, screened = search._batch(cfg, d, o_from, t_from)
    for o, t, value in zip(moves.tolist(), labels.tolist(), screened):
        cand = _replaced(d, o // k, o % k, t)
        if is_connected(cand):
            exact = search._objective(cfg, cand)
            assert abs(value - exact) <= 1e-12 * abs(exact)


@settings(max_examples=80, deadline=None)
@given(pass_points(), st.data())
def test_chunks_concatenate_to_one_batch(case, data):
    # each move's screened value is computed elementwise from products made
    # once per call, so splitting the rest of a pass moves no bit
    d, aug, o_from, t_from = case
    o_mid = data.draw(st.integers(o_from + 1, d.b * len(d.blocks[0])))
    cfg = SearchConfig(w_cc=1.0, w_tt=2.0, w_ct=0.5, aug=aug)
    whole = search._batch(cfg, d, o_from, t_from)
    first = search._batch(cfg, d, o_from, t_from, o_mid)
    second = search._batch(cfg, d, o_mid, 1)
    for head, tail, want in zip(first, second, whole):
        assert np.concatenate((head, tail)).tobytes() == want.tobytes()


def test_move_cap_changes_no_result(monkeypatch):
    # a cap of two or three occurrences splits every pass into many
    # batches, in a dense class and in a sparse one where many confirmed
    # moves disconnect; results and traces stay the same
    cases = [((20, 10, 4), SearchConfig(1.0, 1.0, 1.0, restarts=2)),
             ((4, 7, 3), SearchConfig(1.0, 2.0, 0.5, restarts=3, rng_seed=1))]
    want = [exchange_search(*bvk, cfg) for bvk, cfg in cases]
    cap, sizes, real_batch = 24, [], search._batch

    def batch(*args):
        moves, labels, screened = real_batch(*args)
        sizes.append(len(moves))
        return moves, labels, screened

    monkeypatch.setattr(search, "MAX_BATCH_MOVES", cap)
    monkeypatch.setattr(search, "_batch", batch)
    assert [exchange_search(*bvk, cfg) for bvk, cfg in cases] == want
    assert 0 < max(sizes) <= cap


def test_component_rule_matches_is_connected():
    # the screen lists every replacement; the exact step raises Disconnected
    # on exactly the ones is_connected rejects, which the walk then skips
    cfg = SearchConfig(w_cc=1.0, w_tt=1.0, w_ct=1.0)
    for d in filter(is_connected, enumerate_class(4, 3, 2)):
        moves, labels, _ = search._batch(cfg, d, 0, 1)
        assert list(zip(moves.tolist(), labels.tolist())) == _rest_of_pass(d, 0, 1)
        for o, t in zip(moves.tolist(), labels.tolist()):
            cand = _replaced(d, o // 2, o % 2, t)
            if is_connected(cand):
                search._objective(cfg, cand)
            else:
                with pytest.raises(Disconnected):
                    search._objective(cfg, cand)


@settings(max_examples=80, deadline=None)
@given(pass_points())
def test_screen_keeps_exactly_the_connected_replacements(case):
    # with a screen of NaN every move is confirmed, so the walk meets every
    # disconnecting move in its exact step, and must skip exactly those
    d, aug, o_from, t_from = case
    cfg = SearchConfig(w_cc=1.0, w_tt=1.0, w_ct=1.0, aug=aug)
    obj = search._objective(cfg, d)
    moves, labels, _ = search._batch(cfg, d, o_from, t_from)
    assert list(zip(moves.tolist(), labels.tolist())) == _rest_of_pass(d, o_from, t_from)
    real_batch = search._batch

    def nan_batch(*args):
        moves, labels, screened = real_batch(*args)
        return moves, labels, np.full_like(screened, np.nan)

    want_trace, got_trace = [obj], [obj]
    want = _reference_pass(cfg, d, obj, want_trace)
    search._batch = nan_batch
    try:
        got_d, got_obj, got_improved = search._improvement_pass(cfg, d, obj, got_trace)
    finally:
        search._batch = real_batch
    assert (got_d, got_obj, got_improved) == want
    assert got_trace == want_trace


@pytest.mark.parametrize("weights", [(1.0, 1.0, 1.0), (1.0, 2.0, 0.5)], ids=["w111", "w1-2-0.5"])
def test_pass_matches_exact_reference_pass(weights):
    # the batch walk against a pass that scores every connected replacement
    # exactly, from every connected design of the class
    cfg = SearchConfig(*weights)
    for d in filter(is_connected, enumerate_class(4, 3, 2)):
        obj = search._objective(cfg, d)
        want_trace, got_trace = [obj], [obj]
        want = _reference_pass(cfg, d, obj, want_trace)
        got_d, got_obj, got_improved = search._improvement_pass(cfg, d, obj, got_trace)
        assert (got_d, got_obj, got_improved) == want
        assert got_trace == want_trace
        # the P the next batch reads is the final design's own
        fresh = criteria.intrablock(BlockDesign(got_d.v, got_d.blocks))
        assert np.array_equal(criteria.intrablock(got_d).c_plus, fresh.c_plus)


@settings(max_examples=100, deadline=None)
@given(connected_designs(), st.data())
def test_move_changes_c_by_a_rank_two_term(design_aug, data):
    # C(d') - C(d) = u y^T + y u^T, u = e_t - e_a, y = (e_t + e_a)/2 - (n_j + u/2)/k
    d, _ = design_aug
    j = data.draw(st.integers(0, d.b - 1))
    pos = data.draw(st.integers(0, len(d.blocks[j]) - 1))
    a, t = d.blocks[j][pos], data.draw(st.integers(1, d.v))
    assume(t != a)
    moved = _replaced(d, j, pos, t)
    assume(is_connected(moved))
    k = len(d.blocks[j])
    u = np.zeros(d.v)
    u[t - 1], u[a - 1] = 1.0, -1.0
    y = -(d.incidence[:, j] + u / 2.0) / k
    y[t - 1] += 0.5
    y[a - 1] += 0.5
    change = information(moved) - information(d)
    assert np.allclose(change, np.outer(u, y) + np.outer(y, u), rtol=0.0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(pass_points(), st.data())
def test_candidate_incidence_is_derived_from_its_parent(case, data):
    # the exact step builds a move's design from its parent's incidence and
    # replications; they, and the exact objective, must be those of the
    # same design built fresh, and a disconnecting move must still raise
    d, aug, _, _ = case
    k = len(d.blocks[0])
    o = data.draw(st.integers(0, d.b * k - 1))
    t = data.draw(st.integers(1, d.v))
    assume(t != d.blocks[o // k][o % k])
    cand = search._candidate(d, o, t)
    fresh = BlockDesign(d.v, cand.blocks)
    assert cand == _replaced(d, o // k, o % k, t)
    assert cand.incidence.dtype == fresh.incidence.dtype and not cand.incidence.flags.writeable
    assert np.array_equal(cand.incidence, fresh.incidence)
    assert cand.replications == fresh.replications
    assert cand.block_sizes == fresh.block_sizes
    cfg = SearchConfig(w_cc=1.0, w_tt=2.0, w_ct=0.5, aug=aug)
    if is_connected(fresh):
        assert search._objective(cfg, cand).hex() == search._objective(cfg, fresh).hex()
    else:
        with pytest.raises(Disconnected):
            search._objective(cfg, cand)


def test_result_is_connected_with_constant_block_size():
    cfg = SearchConfig(w_cc=1.0, w_tt=1.0, w_ct=1.0, restarts=3, rng_seed=11)
    result = exchange_search(5, 4, 3, cfg)
    assert is_connected(result.design)
    assert result.design.uniform_block_size() == 3
    assert result.design.b == 5


def test_traces_non_increasing():
    cfg = SearchConfig(w_cc=1.0, w_tt=1.0, w_ct=1.0, restarts=4, rng_seed=3)
    result = exchange_search(5, 4, 2, cfg)
    assert len(result.traces) == 4
    for trace in result.traces:
        assert all(later <= earlier for earlier, later in zip(trace, trace[1:]))
    assert result.objective == min(trace[-1] for trace in result.traces)


def test_deterministic_given_seed():
    cfg = SearchConfig(w_cc=1.0, w_tt=2.0, w_ct=0.5, restarts=3, rng_seed=99)
    first = exchange_search(4, 4, 2, cfg)
    second = exchange_search(4, 4, 2, cfg)
    assert first.design == second.design
    assert first.objective == second.objective
    assert first.traces == second.traces
    assert format_design(first.design) == format_design(second.design)


def test_matches_enumerated_minimum_for_cc_only():
    cfg = SearchConfig(w_cc=1.0, w_tt=0.0, w_ct=0.0, restarts=5, rng_seed=42)
    result = exchange_search(4, 3, 2, cfg)
    minimum = class_minima(4, 3, 2, ONE).minima["a_cc"]
    assert abs(result.objective - minimum) <= 1e-9


def test_per_block_objective_supported():
    cfg = SearchConfig(
        w_cc=1.0, w_tt=1.0, w_ct=1.0,
        aug=AugmentationSpec.per_block([1, 2, 1, 2]),
        restarts=2, rng_seed=5,
    )
    result = exchange_search(4, 3, 2, cfg)
    assert is_connected(result.design)


# Whole searches recorded when every candidate was scored exactly by
# building its design: (b, v, k, seed, weights, counts), blocks,
# repr(objective), traces, with restarts=2. Counts "1" and "3" are common,
# "per" is the per-block list of _golden_aug.
GOLDEN = (
    (
        (10, 5, 3, 3, (1.0, 1.0, 1.0), "1"),
        (
            (1, 2, 3), (2, 4, 5), (1, 2, 3), (2, 4, 5), (1, 2, 5), (1, 4, 5), (1, 3, 5), (3, 4, 5),
            (1, 3, 4), (2, 3, 4),
        ),
        "4.655659460365342",
        (
            (
                5.104053202660133, 4.911028673004095, 4.887573928003375, 4.86604012345679,
                4.817546869520649, 4.798484371344197, 4.741014076042751, 4.736841301420791,
                4.691692386831275, 4.663837827078836, 4.655659460365342,
            ),
            (
                4.7982397003745305, 4.7374587893721465, 4.719665471923537, 4.713498250941715,
                4.702933163048105, 4.696140523765684, 4.667902803334529, 4.663837827078836,
                4.660548941798941,
            ),
        ),
    ),
    (
        (10, 5, 3, 3, (1.0, 1.0, 1.0), "3"),
        (
            (1, 2, 3), (2, 4, 5), (1, 2, 3), (2, 4, 5), (1, 2, 5), (1, 4, 5), (1, 3, 5), (3, 4, 5),
            (1, 3, 4), (2, 3, 4),
        ),
        "4.605373693243875",
        (
            (
                5.049334604661268, 4.857598119558352, 4.834350690561818, 4.8126293103448265,
                4.765435869101138, 4.746305570110625, 4.689491754332653, 4.685024790914364,
                4.640723180076628, 4.613560462431042, 4.605373693243875,
            ),
            (
                4.745624434973523, 4.685829168963739, 4.668107998786531, 4.662080308255595,
                4.651894569956401, 4.645065090281326, 4.617528633870753, 4.613560462431042,
                4.610151701746529,
            ),
        ),
    ),
    (
        (10, 5, 3, 3, (1.0, 1.0, 1.0), "per"),
        (
            (1, 2, 4), (1, 4, 5), (2, 3, 4), (2, 4, 5), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 3, 5),
            (1, 3, 4), (1, 2, 5),
        ),
        "4.60379384862357",
        (
            (
                5.043122974862193, 4.859746475703131, 4.8352201225627125, 4.8153583495776475,
                4.760097196134303, 4.746171206476914, 4.692682982693363, 4.688289603250907,
                4.645755902100931, 4.645625947585012, 4.6197884395936795, 4.617165832334271,
                4.615553198278823, 4.604053757655409,
            ),
            (
                4.735690766658635, 4.683648049124013, 4.665958204950848, 4.661422297092619,
                4.660797491320917, 4.644439439777592, 4.60379384862357,
            ),
        ),
    ),
    (
        (10, 5, 3, 3, (1.0, 2.0, 0.5), "1"),
        (
            (1, 3, 4), (1, 2, 5), (1, 2, 3), (2, 4, 5), (2, 3, 5), (1, 4, 5), (1, 3, 5), (3, 4, 5),
            (1, 2, 4), (2, 3, 4),
        ),
        "6.611851851851851",
        (
            (
                7.063367168358417, 6.883754540536362, 6.861033044437952, 6.8601616251482795,
                6.830337564385577, 6.782474860799468, 6.7787584541062795, 6.721010638297872,
                6.7089707011226, 6.664566037569722, 6.663801440329218, 6.624120157023383,
                6.611851851851851,
            ),
            (
                6.7777715355805235, 6.712225469409584, 6.696163788421853, 6.688887903503939,
                6.674271498510003, 6.669125486789158, 6.6349431965034515, 6.634213124718153,
                6.624120157023382, 6.611851851851851,
            ),
        ),
    ),
    (
        (10, 5, 3, 3, (1.0, 2.0, 0.5), "3"),
        (
            (1, 3, 4), (1, 2, 5), (1, 2, 3), (2, 4, 5), (2, 3, 5), (1, 4, 5), (1, 3, 5), (3, 4, 5),
            (1, 2, 4), (2, 3, 4),
        ),
        "6.511724137931035",
        (
            (
                6.953929972360687, 6.776893433644874, 6.754586569554836, 6.753960455270585,
                6.724321477506279, 6.678810512470017, 6.67483708145927, 6.618296038151136,
                6.6060628066826235, 6.563005037360079, 6.561863026819923, 6.5237946925154935,
                6.511724137931035,
            ),
            (
                6.672541004778509, 6.608966228592769, 6.593048842147841, 6.5860520181317,
                6.5721943123265945, 6.566974619820442, 6.5341948575758995, 6.533765429619758,
                6.5237946925154935, 6.511724137931035,
            ),
        ),
    ),
    (
        (10, 5, 3, 3, (1.0, 2.0, 0.5), "per"),
        (
            (1, 2, 4), (1, 4, 5), (2, 4, 5), (2, 3, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (3, 4, 5),
            (1, 2, 3), (1, 2, 5),
        ),
        "6.511526965562053",
        (
            (
                6.941968735863694, 6.775741502298912, 6.751034368470598, 6.739063190383366,
                6.668831644539852, 6.664591543548797, 6.656116411887418, 6.608759662178283,
                6.601187920574995, 6.562260392982271, 6.561831817197315, 6.519168747738623,
                6.518638711745006,
            ),
            (
                6.657303735827292, 6.605036659036278, 6.58918090545142, 6.585192870244839,
                6.584647042418935, 6.572697526341057, 6.566325280141914, 6.521957550151564,
                6.5196418764952995, 6.511526965562053,
            ),
        ),
    ),
    (
        (10, 5, 3, 8, (1.0, 1.0, 1.0), "1"),
        (
            (1, 2, 5), (1, 2, 4), (1, 2, 3), (1, 3, 5), (1, 2, 5), (2, 4, 5), (2, 3, 4), (3, 4, 5),
            (3, 4, 5), (1, 3, 4),
        ),
        "4.655659460365342",
        (
            (
                5.1936148081684195, 5.125732439110482, 4.99900339799103, 4.949588487570138,
                4.942062537371179, 4.846980418151186, 4.84457561728395, 4.840756501182033,
                4.836371721265337, 4.7840416141235815, 4.748318318318318, 4.710214190093708,
                4.700892619237942, 4.675074818298418, 4.663837827078836, 4.660548941798941,
            ),
            (
                4.9444748026715235, 4.905981942796888, 4.853084543510075, 4.85267521149874,
                4.789480686494574, 4.7439180756843795, 4.731701893865942, 4.696050996913947,
                4.691828703703703, 4.667398388085244, 4.655659460365342,
            ),
        ),
    ),
    (
        (10, 5, 3, 8, (1.0, 1.0, 1.0), "3"),
        (
            (1, 2, 5), (1, 2, 4), (1, 2, 3), (1, 3, 5), (1, 2, 5), (2, 4, 5), (2, 3, 4), (3, 4, 5),
            (3, 4, 5), (1, 3, 4),
        ),
        "4.605373693243876",
        (
            (
                5.133411302424157, 5.067278503353336, 4.94201382483909, 4.893766768983472,
                4.885982905982906, 4.792510478541489, 4.790161124794745, 4.786907032805785,
                4.782751283932502, 4.731099926077315, 4.6964802733768245, 4.659491760144024,
                4.6499999999999995, 4.624732054665271, 4.613560462431042, 4.610151701746529,
            ),
            (
                4.888366641173145, 4.850263222481285, 4.798558851273452, 4.798311424883432,
                4.7362802594914655, 4.6917531859070465, 4.679953152702746, 4.645270496809125,
                4.640854885057471, 4.617035322488615, 4.605373693243876,
            ),
        ),
    ),
    (
        (10, 5, 3, 8, (1.0, 1.0, 1.0), "per"),
        (
            (1, 2, 5), (1, 2, 3), (1, 3, 5), (1, 2, 4), (1, 4, 5), (2, 4, 5), (2, 3, 4), (2, 3, 5),
            (3, 4, 5), (1, 3, 4),
        ),
        "4.594723846653672",
        (
            (
                5.13676234852122, 5.082418915469242, 4.95604364184356, 4.9127241195807105,
                4.905210398582718, 4.807924318211221, 4.806897451963241, 4.79915746813843,
                4.7898345153664295, 4.731891870632164, 4.70343633106791, 4.664555003640292,
                4.656259740745416, 4.623673001324269, 4.612293998051488, 4.610611756664388,
                4.60763807399037, 4.60611121591314, 4.603339889862077,
            ),
            (
                4.881768897761386, 4.838977336579883, 4.783325927110921, 4.723970701163683,
                4.717424734676197, 4.714797093744462, 4.712309621556697, 4.672850156895349,
                4.640393811767688, 4.639911684066408, 4.633287037037037, 4.607820387288412,
                4.6071736090525, 4.607154445252918, 4.594723846653672,
            ),
        ),
    ),
    (
        (10, 5, 3, 8, (1.0, 2.0, 0.5), "1"),
        (
            (1, 2, 5), (2, 3, 4), (2, 3, 5), (1, 3, 4), (1, 4, 5), (1, 2, 3), (1, 2, 4), (3, 4, 5),
            (2, 3, 5), (1, 4, 5),
        ),
        "6.623355119825708",
        (
            (
                7.222249804762141, 7.139216378397458, 7.011673750252984, 6.952616102340872,
                6.950307410924694, 6.846578285966801, 6.844608976100419, 6.8318488678588425,
                6.820865059887146, 6.77486110351782, 6.770866960907944, 6.76256944805176,
                6.71035136129507, 6.6755639223560905, 6.670945040095304, 6.664566037569722,
                6.6300816070307595, 6.623355119825708,
            ),
            (
                6.953390299653559, 6.915095558191643, 6.852749634132612, 6.8499646323175725,
                6.779406448746726, 6.778196503533662, 6.777456109409325, 6.730264058363999,
                6.725171607027218, 6.709026018903854, 6.664566037569722, 6.663969907407407,
                6.634340953504238, 6.623355119825707,
            ),
        ),
    ),
    (
        (10, 5, 3, 8, (1.0, 2.0, 0.5), "3"),
        (
            (1, 2, 5), (2, 3, 4), (2, 3, 5), (1, 3, 4), (1, 4, 5), (1, 2, 3), (1, 2, 4), (3, 4, 5),
            (2, 3, 5), (1, 4, 5),
        ),
        "6.522783585582775",
        (
            (
                7.101842793273619, 7.022308506883163, 6.897694603949104, 6.84097266516754,
                6.838148148148148, 6.737638406747408, 6.735930554564734, 6.724327907022894,
                6.713803519233397, 6.669509707996584, 6.66498358481541, 6.657003433766987,
                6.60721264367816, 6.574119062456724, 6.569138344893803, 6.563005037360079,
                6.529526877735171, 6.522783585582775,
            ),
            (
                6.841173976656801, 6.8036581175604365, 6.7436982496593645, 6.741237059086957,
                6.673005594740508, 6.672044064051187, 6.620873506386486, 6.605528536577461,
                6.563005037360079, 6.562022270114942, 6.53361482231098, 6.522783585582774,
            ),
        ),
    ),
    (
        (10, 5, 3, 8, (1.0, 2.0, 0.5), "per"),
        (
            (1, 2, 5), (1, 2, 3), (2, 3, 4), (3, 4, 5), (1, 3, 4), (1, 2, 4), (1, 3, 5), (2, 4, 5),
            (2, 3, 5), (1, 4, 5),
        ),
        "6.508408057179986",
        (
            (
                7.111082251763699, 7.049048357254275, 6.920352121796198, 6.871113605155131,
                6.868203073368766, 6.761821790784858, 6.761766117652611, 6.760224828441706,
                6.757627690943867, 6.757489902045256, 6.721126745466266, 6.716251766712758,
                6.666227628826535, 6.662385274528915, 6.6253765523319545, 6.625193268749026,
                6.5950101781719574, 6.576795242877115, 6.534830340966753, 6.525826165793269,
                6.519939691219689, 6.517989487061091, 6.513578330533622, 6.512808185337896,
                6.508408057179986,
            ),
            (
                6.830466689599816, 6.785065087094961, 6.718651534273034, 6.654794472502806,
                6.6434768616968904, 6.639597177919546, 6.635514378679583, 6.594157542242414,
                6.555962009041516, 6.554882643564946, 6.550762670565302, 6.522630830361447,
                6.521337273889623, 6.520878540437115, 6.509447693307342,
            ),
        ),
    ),
    (
        (12, 6, 3, 3, (1.0, 1.0, 1.0), "1"),
        (
            (1, 2, 6), (2, 4, 5), (2, 3, 6), (1, 2, 4), (3, 5, 6), (1, 2, 5), (4, 5, 6), (1, 5, 6),
            (3, 4, 6), (1, 3, 5), (1, 3, 4), (2, 3, 4),
        ),
        "4.7088442113442115",
        (
            (
                5.141138399212933, 4.953722495613963, 4.933361347755974, 4.927253375944575,
                4.897476517535062, 4.890143602234883, 4.859572001337496, 4.820762835552912,
                4.797961649921447, 4.794621004403613, 4.753217074566672, 4.747487575213946,
                4.747261290843139, 4.747258747465393, 4.741844280121793, 4.715275955599452,
                4.7088442113442115,
            ),
            (
                4.913951628830026, 4.884894941530947, 4.867323465699007, 4.848457932939551,
                4.8336099950878975, 4.828485441045924, 4.8274836756050625, 4.824539679071478,
                4.821576464790468, 4.818985394489664, 4.794741274319687, 4.757015671132227,
                4.733196782842992, 4.729226682658118, 4.728493224219473, 4.723850978429783,
                4.720812714641027, 4.712839757685119,
            ),
        ),
    ),
    (
        (12, 6, 3, 3, (1.0, 1.0, 1.0), "3"),
        (
            (1, 2, 6), (2, 4, 5), (2, 3, 6), (1, 2, 4), (3, 5, 6), (1, 2, 5), (4, 5, 6), (1, 5, 6),
            (3, 4, 6), (1, 3, 5), (1, 3, 4), (2, 3, 4),
        ),
        "4.666266788766789",
        (
            (
                5.093851170026857, 4.908222195193426, 4.887702631809613, 4.881965319427383,
                4.852541680179181, 4.8448859622565354, 4.814526229407121, 4.776633677219827,
                4.754084748106056, 4.7507083170126645, 4.710024943472408, 4.704471076820241,
                4.704051312583381, 4.704048932917305, 4.698731677679046, 4.672707717214772,
                4.666266788766789,
            ),
            (
                4.868327391360295, 4.839446321673654, 4.822337672158569, 4.803372858444268,
                4.788669211176735, 4.783731162684232, 4.782851108429144, 4.779952819178334,
                4.7771444914625665, 4.774504889675169, 4.750631280434906, 4.713659806362567,
                4.690514387756325, 4.686537099793475, 4.685816330840406, 4.6812598376864685,
                4.678145396473842, 4.670186649936282,
            ),
        ),
    ),
    (
        (12, 6, 3, 3, (1.0, 1.0, 1.0), "per"),
        (
            (1, 2, 6), (1, 5, 6), (2, 4, 6), (2, 4, 5), (2, 3, 4), (3, 4, 6), (1, 4, 5), (1, 5, 6),
            (1, 2, 3), (3, 5, 6), (1, 3, 4), (2, 3, 5),
        ),
        "4.666900161030596",
        (
            (
                5.125460191832053, 4.92723784163439, 4.904125232776342, 4.901560388611545,
                4.8682377491143445, 4.859978343688434, 4.826348139280422, 4.793842917463479,
                4.767719482541069, 4.765844888907271, 4.714755848371873, 4.708059812428472,
                4.707733134571095, 4.6770011760709735, 4.676589692161363, 4.673961807019161,
                4.673452119747374, 4.669968167245173,
            ),
            (
                4.875328396443965, 4.845164294586536, 4.825087085267768, 4.803681227137467,
                4.789985433783979, 4.784355696323011, 4.7776558061538585, 4.77489141721974,
                4.771183507650956, 4.748028720808505, 4.705303743516247, 4.6908754143224645,
                4.686140162956916, 4.684945214638825, 4.681312219273585, 4.679386787578806,
                4.678984035372547, 4.673805179718766, 4.667154567512624, 4.666900161030596,
            ),
        ),
    ),
    (
        (12, 6, 3, 3, (1.0, 2.0, 0.5), "1"),
        (
            (1, 4, 6), (2, 4, 5), (2, 3, 6), (1, 2, 6), (3, 5, 6), (1, 2, 5), (2, 4, 6), (1, 5, 6),
            (3, 4, 5), (1, 3, 4), (1, 3, 4), (2, 3, 5),
        ),
        "6.681887140637141",
        (
            (
                7.128482404414081, 6.939670375107953, 6.925314277698272, 6.913566143222821,
                6.882284270881984, 6.881943842374701, 6.85260223145136, 6.803572805481203,
                6.779898904639655, 6.7777576206924035, 6.730085978793091, 6.722089366901,
                6.6942762191258085, 6.688877882193822, 6.687094125133285, 6.68306663924311,
                6.681887140637141,
            ),
            (
                6.908641614042186, 6.881219471322954, 6.858053517588031, 6.844084824708337,
                6.8426592708452265, 6.839980414673778, 6.827192616249276, 6.820359606054846,
                6.8189938208560745, 6.818037257379743, 6.811441312380619, 6.7646406609541465,
                6.727985083183736, 6.725548270386196, 6.688877882193821, 6.687094125133285,
                6.68306663924311, 6.681887140637141,
            ),
        ),
    ),
    (
        (12, 6, 3, 3, (1.0, 2.0, 0.5), "3"),
        (
            (1, 4, 6), (2, 4, 5), (2, 3, 6), (1, 2, 6), (3, 5, 6), (1, 2, 5), (2, 4, 6), (1, 5, 6),
            (3, 4, 5), (1, 3, 4), (1, 3, 4), (2, 3, 5),
        ),
        "6.596732295482294",
        (
            (
                7.03390794604193, 6.848669774266879, 6.833996845805549, 6.822990030188437,
                6.792414596170222, 6.7914285624180035, 6.762510687590609, 6.715314488815034,
                6.692145101008872, 6.689932245910507, 6.643701716604563, 6.636056370113589,
                6.609104021325397, 6.603692768375144, 6.601957648363924, 6.598063276592689,
                6.596732295482294,
            ),
            (
                6.817393139102724, 6.790322231608369, 6.768081930507155, 6.75391467571777,
                6.752656445081672, 6.750538766893642, 6.738098171901159, 6.737669356847622,
                6.736021678688795, 6.729783255645462, 6.720818630741805, 6.682765402909131,
                6.68103063800633, 6.6530628951429005, 6.6512219660208105, 6.650003054665393,
                6.645158142133136, 6.603692768375143, 6.601957648363924, 6.596732295482294,
            ),
        ),
    ),
    (
        (12, 6, 3, 3, (1.0, 2.0, 0.5), "per"),
        (
            (1, 2, 6), (2, 4, 5), (2, 3, 6), (1, 2, 4), (3, 5, 6), (2, 3, 5), (2, 4, 6), (1, 5, 6),
            (4, 5, 6), (1, 3, 5), (1, 3, 4), (3, 4, 6),
        ),
        "6.590836630452999",
        (
            (
                7.087886006033454, 6.87998456702931, 6.861007409424769, 6.855179083158008,
                6.818504020538088, 6.816267806056857, 6.781393584715096, 6.742343610887215,
                6.713378719475071, 6.713296500997352, 6.650411309174494, 6.6410366141245625,
                6.639338650479956, 6.60610179127608, 6.605121398594216, 6.599892420595021,
                6.593110497748261, 6.590836630452999,
            ),
            (
                6.829219422040689, 6.799832713862809, 6.772983002668884, 6.754644368230678,
                6.753653137003903, 6.744607533151356, 6.734370738077501, 6.725707750383346,
                6.679098005745663, 6.634831275359553, 6.6344823423180435, 6.605666713502052,
                6.598380248978074, 6.592949519458471, 6.592908351002981, 6.592656239753427,
            ),
        ),
    ),
    (
        (12, 6, 3, 8, (1.0, 1.0, 1.0), "1"),
        (
            (1, 2, 5), (1, 3, 5), (1, 2, 4), (1, 3, 4), (2, 3, 6), (4, 5, 6), (2, 4, 5), (2, 3, 6),
            (2, 3, 6), (3, 4, 5), (1, 5, 6), (1, 4, 6),
        ),
        "4.709898989898989",
        (
            (
                5.256108244977117, 5.231046206150518, 5.159277593825015, 5.1137238304836075,
                5.1131899566304195, 5.094574399832893, 5.072561996848824, 5.060051855828167,
                5.058392775643007, 4.9920395443799706, 4.980691669721407, 4.980673926767676,
                4.959349322868306, 4.950484431438571, 4.935108804452039, 4.934309796277516,
                4.897982862405624, 4.895090156377085, 4.894734044267547, 4.890267393843079,
                4.8796950267439465, 4.837266943155667, 4.835328423268704, 4.835023188715831,
                4.834671306961756, 4.818853899333864, 4.787405507633935, 4.780905549365465,
                4.777687453738115, 4.7754502804472425, 4.77363742094448, 4.772567275616703,
                4.770887598263522, 4.753033811832694, 4.732324522527614, 4.726564691941292,
                4.725489982954114, 4.7222527275840065, 4.716866542500676, 4.715275955599452,
                4.713816738816739,
            ),
            (
                4.907141464726662, 4.902511425405057, 4.871915721246377, 4.834208019676,
                4.831000481000481, 4.784757267443835, 4.7818477706356495, 4.751416153972025,
                4.729137165447757, 4.716951673824184, 4.716866542500676, 4.711899081310846,
                4.709898989898989,
            ),
        ),
    ),
    (
        (12, 6, 3, 8, (1.0, 1.0, 1.0), "3"),
        (
            (1, 3, 6), (1, 2, 6), (2, 5, 6), (2, 3, 6), (3, 4, 5), (1, 4, 5), (1, 2, 4), (1, 4, 6),
            (2, 3, 4), (2, 3, 5), (1, 3, 5), (4, 5, 6),
        ),
        "4.666266788766789",
        (
            (
                5.204681017948294, 5.180343069077423, 5.11021413974894, 5.064511838254855,
                5.0228502772164365, 5.010316382416223, 4.944715373935232, 4.933451380888377,
                4.931029205963373, 4.912818914651376, 4.901148593532089, 4.898698955365622,
                4.888285520675458, 4.8554607329051365, 4.850961561264699, 4.848904811622949,
                4.826895269224493, 4.812299716634621, 4.80933834732264, 4.79392635870694,
                4.7795350391865385, 4.7523828851885614, 4.729498070151884, 4.726180921195324,
                4.719244949258771, 4.716895132448942, 4.711881846115651, 4.691202832430378,
                4.68810520235541, 4.68012541318933, 4.677538133246976, 4.672707717214772,
                4.669397399985636, 4.666266788766789,
            ),
            (
                4.861226470149154, 4.856840279599266, 4.826344177415128, 4.789347988785005,
                4.786208616780045, 4.7408314924732835, 4.738071188071188, 4.708264582171997,
                4.686530429047741, 4.674357671355395, 4.674273985591337, 4.669397399985636,
                4.667301587301587,
            ),
        ),
    ),
    (
        (12, 6, 3, 8, (1.0, 1.0, 1.0), "per"),
        (
            (1, 2, 5), (1, 2, 4), (2, 3, 5), (1, 3, 4), (3, 5, 6), (2, 4, 6), (2, 4, 5), (2, 3, 6),
            (1, 3, 6), (3, 4, 5), (1, 5, 6), (1, 4, 6),
        ),
        "4.666452062430323",
        (
            (
                5.2097264728207255, 5.192881052085223, 5.117834604868198, 5.07889449178654,
                5.073690249353991, 5.053629735476919, 5.038122265464142, 5.021484026424902,
                4.9292660129590296, 4.922620468914067, 4.917999319801926, 4.909973912804146,
                4.900373533146071, 4.897076698107709, 4.855040550101733, 4.845971034843775,
                4.806163850557443, 4.783320145482814, 4.782153040468667, 4.7554784728878845,
                4.753138045380721, 4.747204113344774, 4.741673281972532, 4.7393978760101945,
                4.724142167231811, 4.715341770716087, 4.714324532835539, 4.702053981788144,
                4.676602249308814, 4.671600265233602, 4.669841231383141,
            ),
            (
                4.865313661519471, 4.8597244421501085, 4.825838519132892, 4.786536315948396,
                4.7816312974465145, 4.733560109230939, 4.731853213116824, 4.6992695837089435,
                4.6726967999771265, 4.672450852637029, 4.666452062430323,
            ),
        ),
    ),
    (
        (12, 6, 3, 8, (1.0, 2.0, 0.5), "1"),
        (
            (2, 3, 6), (1, 4, 6), (2, 5, 6), (1, 3, 6), (3, 4, 5), (1, 2, 4), (1, 2, 4), (1, 2, 5),
            (3, 4, 6), (2, 3, 5), (1, 3, 5), (4, 5, 6),
        ),
        "6.681887140637141",
        (
            (
                7.299245186389698, 7.265256529129965, 7.17588479457394, 7.1406692624569725,
                7.125744629156115, 7.1016266430926684, 7.090937281406011, 7.061955048926219,
                6.969966128505356, 6.965228374784329, 6.959857593456467, 6.955715390975934,
                6.943124643717164, 6.906766339032706, 6.903368688741325, 6.8954564501144535,
                6.8645481894688425, 6.857765631671402, 6.851968811598758, 6.829418123825972,
                6.826575108510817, 6.824693409605738, 6.782982411584739, 6.772784938736315,
                6.7717848367158275, 6.767486473022057, 6.75599184385611, 6.749415880207239,
                6.732607454331036, 6.70669432631701, 6.704386051214333, 6.702887825704787,
                6.700369597081954, 6.698587071217653, 6.694107555862275, 6.69391452991453,
                6.692852478574227, 6.681887140637141,
            ),
            (
                6.908277473649405, 6.899886642342476, 6.8724830861042365, 6.8280446086480575,
                6.824143819143818, 6.769758584907839, 6.76460463218039, 6.727862164867309,
                6.699401329271167, 6.688975914523723, 6.688877882193821, 6.68306663924311,
                6.681887140637141,
            ),
        ),
    ),
    (
        (12, 6, 3, 8, (1.0, 2.0, 0.5), "3"),
        (
            (2, 3, 6), (1, 4, 6), (2, 5, 6), (1, 3, 6), (3, 4, 5), (1, 2, 4), (1, 2, 4), (1, 2, 5),
            (3, 4, 6), (2, 3, 5), (1, 3, 5), (4, 5, 6),
        ),
        "6.596732295482296",
        (
            (
                7.196390732332053, 7.163850254983774, 7.0777578864217885, 7.042245277999468,
                7.028897441687221, 7.005729584300484, 6.994201409727735, 6.967253014439537,
                6.876790944021563, 6.872012965889024, 6.866928690625186, 6.862914094997822,
                6.85092572567817, 6.81585552119475, 6.811880043081378, 6.804945916676586,
                6.77532458485791, 6.768071937589818, 6.762949271186937, 6.741332961326721,
                6.738131023820351, 6.735855596566104, 6.695935435561039, 6.685609506946337,
                6.684645242373097, 6.680944687783914, 6.669479657764825, 6.662706546968911,
                6.646337473047332, 6.621424123341599, 6.619013042890186, 6.617556762204117,
                6.6151278202732415, 6.61327332477501, 6.6087540382724015, 6.6085665445665445,
                6.607535691444621, 6.596732295482296,
            ),
            (
                6.816447484494389, 6.8085443507308945, 6.781339998441738, 6.7383245468660675,
                6.734560090702947, 6.681907034966737, 6.6770514670514665, 6.641559021267252,
                6.614187856471133, 6.603787909586145, 6.603692768375143, 6.598063276592689,
                6.597936507936508,
            ),
        ),
    ),
    (
        (12, 6, 3, 8, (1.0, 2.0, 0.5), "per"),
        (
            (1, 2, 5), (1, 2, 4), (1, 2, 3), (3, 4, 5), (3, 5, 6), (2, 4, 6), (2, 4, 5), (2, 3, 6),
            (1, 3, 6), (3, 4, 5), (1, 5, 6), (1, 4, 6),
        ),
        "6.590988325281804",
        (
            (
                7.203347661036294, 7.181978154626325, 7.087936046195107, 7.064024920103186,
                7.041202099043018, 7.01481209281499, 6.978633793268933, 6.891003097598396,
                6.88549814050401, 6.877798910776152, 6.867236653946166, 6.8658453538615705,
                6.813713253525278, 6.797595343281234, 6.754600528051213, 6.734914449455366,
                6.731881631837087, 6.720508221533526, 6.673785453958474, 6.672873044097957,
                6.663720806517108, 6.662177092564081, 6.661082429898769, 6.657161005966262,
                6.638385569025231, 6.614632656597159, 6.612693253904588, 6.610159424496228,
                6.609029627262956, 6.606811284060891, 6.60603858540815, 6.5944900697799245,
                6.593481430476316, 6.59277241009125,
            ),
            (
                6.822853311394463, 6.8135748516319445, 6.780304278709039, 6.733592192385563,
                6.727201086956522, 6.670053893076814, 6.667992878252148, 6.633786376349305,
                6.601570124196185, 6.601253051147254, 6.596675492382014, 6.592189906806276,
                6.590988325281804,
            ),
        ),
    ),
    (
        (7, 7, 3, 3, (1.0, 1.0, 1.0), "1"),
        (
            (1, 3, 6), (3, 4, 7), (5, 6, 7), (2, 4, 5), (1, 2, 7), (1, 4, 6), (2, 3, 5),
        ),
        "5.569160997732427",
        (
            (
                6.849049331018497, 6.417351984693362, 6.311900449963728, 6.266304206778087,
                6.008312611401524, 5.925873139415911, 5.906801723622, 5.8543549163513795,
                5.7483033147484965, 5.690358486525733, 5.644444444444444, 5.603076013013902,
            ),
            (
                8.63553775940756, 6.859665543991019, 6.684636772835927, 6.515499291974555,
                6.1812651653921495, 6.046276160737518, 5.940066282923426, 5.907954409834108,
                5.737484622502044, 5.60400420330734, 5.569160997732427,
            ),
        ),
    ),
    (
        (7, 7, 3, 3, (1.0, 1.0, 1.0), "3"),
        (
            (1, 3, 6), (3, 4, 7), (5, 6, 7), (2, 4, 5), (1, 2, 7), (1, 4, 6), (2, 3, 5),
        ),
        "5.480907029478458",
        (
            (
                6.743336074587315, 6.316535987692079, 6.204732052862445, 6.168049776651689,
                5.9108776853545795, 5.829218344098412, 5.810802561493806, 5.760425380606163,
                5.657760567229006, 5.599872369210348, 5.555561224489796, 5.513635019225082,
            ),
            (
                8.489305089124258, 6.746600639471783, 6.575933667509693, 6.409909076286983,
                6.0776351862066145, 5.9469917475186795, 5.841800104657247, 5.810810508413891,
                5.644810066412854, 5.516509042641447, 5.480907029478458,
            ),
        ),
    ),
    (
        (7, 7, 3, 3, (1.0, 1.0, 1.0), "per"),
        (
            (1, 3, 6), (3, 4, 7), (5, 6, 7), (2, 4, 5), (1, 2, 7), (1, 4, 6), (2, 3, 5),
        ),
        "5.471829757544043",
        (
            (
                6.716642885702637, 6.288527800789382, 6.121267210580582, 6.118766357088394,
                5.803143913628968, 5.800242394582018, 5.759840057299642, 5.714768193798338,
                5.652747975233181, 5.633913026757942, 5.550544528908488, 5.523856321765729,
                5.481109366823652,
            ),
            (
                8.531552835350304, 6.741608189275771, 6.591079728384603, 6.392565647920307,
                6.043956532845422, 5.944897315798954, 5.849597695751542, 5.806917132575027,
                5.615847995638936, 5.5060475722496625, 5.471829757544043,
            ),
        ),
    ),
    (
        (7, 7, 3, 3, (1.0, 2.0, 0.5), "1"),
        (
            (3, 5, 6), (2, 5, 7), (3, 4, 7), (1, 2, 3), (2, 4, 6), (1, 4, 5), (1, 6, 7),
        ),
        "7.462585034013606",
        (
            (
                8.800668823960029, 8.389074764026107, 8.367109684463472, 8.23642677892366,
                8.011191937114855, 7.934303818935532, 7.909838656946953, 7.898274098274097,
                7.765554887792251, 7.695299160258728, 7.642081393961093, 7.611696822574119,
                7.570875504673413, 7.462585034013606,
            ),
            (
                10.686967191940068, 8.879908372600314, 8.687514763790194, 8.517899324773953,
                8.21962824502507, 8.061584606520203, 7.9630734345020056, 7.924450262561164,
                7.735930056487547, 7.570875504673414, 7.549659863945578,
            ),
        ),
    ),
    (
        (7, 7, 3, 3, (1.0, 2.0, 0.5), "3"),
        (
            (3, 5, 6), (2, 5, 7), (3, 4, 7), (1, 2, 3), (2, 4, 6), (1, 4, 5), (1, 6, 7),
        ),
        "7.291156462585034",
        (
            (
                8.589242311097667, 8.18744277002354, 8.152772890260906, 8.039917918670863,
                7.816322085020967, 7.740994228300533, 7.722626301254665, 7.7116919116919105,
                7.5858059856045275, 7.515848589864762, 7.465741994738399, 7.4343142236147575,
                7.395885183341629, 7.291156462585034,
            ),
            (
                10.39450185137346, 8.653778563561842, 8.470108553137726, 8.306718893398806,
                8.012368286654, 7.863015780082525, 7.766541077969649, 7.730162459720729,
                7.550580944309167, 7.39588518334163, 7.373151927437642,
            ),
        ),
    ),
    (
        (7, 7, 3, 3, (1.0, 2.0, 0.5), "per"),
        (
            (1, 3, 6), (3, 4, 7), (5, 6, 7), (2, 4, 5), (1, 2, 7), (1, 4, 6), (2, 3, 5),
        ),
        "7.358137100994244",
        (
            (
                8.557045753896148, 8.150739864636321, 8.023298829700483, 8.010370101931692,
                7.789940781700976, 7.699543288696335, 7.676290107741719, 7.608073163781555,
                7.503635468751747, 7.45184623936969, 7.411925838711553, 7.410558383194828,
                7.391497736218233,
            ),
            (
                10.460228589975426, 8.637962847292522, 8.48366235018035, 8.270457374490753,
                7.948974126751905, 7.851914820152524, 7.7782317397702005, 7.778181647412416,
                7.721133763896922, 7.50731744111535, 7.378906033958298, 7.358137100994244,
            ),
        ),
    ),
    (
        (7, 7, 3, 8, (1.0, 1.0, 1.0), "1"),
        (
            (4, 5, 6), (1, 2, 6), (3, 6, 7), (2, 5, 7), (3, 4, 7), (1, 3, 5), (1, 2, 4),
        ),
        "5.569160997732427",
        (
            (
                6.612158303980521, 6.517335112173639, 6.452845574709375, 6.354339846599908,
                6.189304724911112, 6.164580635879729, 5.9322624416178344, 5.894016079999908,
                5.858493397358943, 5.847698198776365, 5.8340211742492825, 5.79282650850498,
                5.773432875786461, 5.659175167474736, 5.630259511211891, 5.60400420330734,
                5.569160997732427,
            ),
            (
                7.0792311216724135, 7.0481878692520095, 6.825640313217953, 6.573161439160446,
                6.51407245765864, 6.3264423688470774, 6.2076592532601556, 6.139598767301184,
                6.072692401136278, 6.052380339108823, 6.033503056394972, 6.0153508207123725,
                6.003379667484328, 5.961707792684975, 5.96098960116146, 5.9472163555721504,
                5.766314080666786, 5.666321567089357, 5.603076013013901,
            ),
        ),
    ),
    (
        (7, 7, 3, 8, (1.0, 1.0, 1.0), "3"),
        (
            (4, 5, 6), (1, 2, 6), (3, 6, 7), (2, 5, 7), (3, 4, 7), (1, 3, 5), (1, 2, 4),
        ),
        "5.480907029478458",
        (
            (
                6.49668879906886, 6.404602749293201, 6.340467656596688, 6.24555052790347,
                6.083758760301703, 6.060782621205582, 5.836775938513765, 5.800552265781376,
                5.764437024809924, 5.7542420741881655, 5.740684690655694, 5.698207416671403,
                5.679500612505539, 5.569686502231267, 5.5418115394305865, 5.516509042641447,
                5.480907029478458,
            ),
            (
                6.949107725281894, 6.919214216298766, 6.696042053184911, 6.4530415178817755,
                6.398889908332713, 6.216600836153132, 6.101198437379189, 6.037163648842326,
                5.971619664349256, 5.951982172179217, 5.934555891322047, 5.9172244897959185,
                5.905602928006854, 5.862692507558578, 5.861959057770014, 5.84860853432282,
                5.672608081919755, 5.576613410065399, 5.513635019225081,
            ),
        ),
    ),
    (
        (7, 7, 3, 8, (1.0, 1.0, 1.0), "per"),
        (
            (4, 6, 7), (1, 2, 6), (3, 6, 7), (2, 5, 7), (1, 3, 4), (1, 3, 5), (2, 4, 5),
        ),
        "5.507314631538234",
        (
            (
                6.398989005503419, 6.299920327560999, 6.2857872248553255, 6.179298460794055,
                6.065519073071943, 6.033113663778317, 5.794208382626572, 5.775316473429681,
                5.740014274940745, 5.663451881716902, 5.660497845584789, 5.653715345138864,
                5.541264159669613, 5.507314631538234,
            ),
            (
                7.150527079465435, 7.1373096857790745, 6.756732800211061, 6.503428141319219,
                6.498653634741119, 6.316344457309061, 6.154827000521472, 6.080990967489484,
                5.999384887090931, 5.997362909764484, 5.904717183405707, 5.889520787013088,
                5.880016376461874, 5.732183662750303, 5.635616337264689, 5.562091525321739,
                5.535895047454028, 5.511614679316542,
            ),
        ),
    ),
    (
        (7, 7, 3, 8, (1.0, 2.0, 0.5), "1"),
        (
            (2, 4, 7), (1, 2, 6), (3, 6, 7), (2, 5, 7), (1, 3, 4), (3, 4, 5), (1, 5, 6),
        ),
        "7.590357882283348",
        (
            (
                8.702345932757229, 8.594366955952063, 8.53617416699854, 8.4164672616685,
                8.246141356844852, 8.207560063300244, 7.927827468163929, 7.874535297715891,
                7.851384303721488, 7.836472639370212, 7.823147150906672, 7.802567916674562,
                7.7790624911588235, 7.767098237144321, 7.65436999953909, 7.6532324280508295,
                7.6191609977324255, 7.590357882283348,
            ),
            (
                9.24794889416954, 9.210034977709906, 9.02910725115694, 8.719483660594403,
                8.619212934262404, 8.406964469359123, 8.272363077382755, 8.173727601822133,
                8.103359544367198, 8.078912407875027, 8.04770873866788, 8.024708528130045,
                8.011034536463809, 7.988983305513562, 7.988591966572633, 7.973022809276178,
                7.770882900509429, 7.645864550936784, 7.590357882283348,
            ),
        ),
    ),
    (
        (7, 7, 3, 8, (1.0, 2.0, 0.5), "3"),
        (
            (2, 4, 7), (1, 2, 6), (3, 6, 7), (2, 5, 7), (1, 3, 4), (3, 4, 5), (1, 5, 6),
        ),
        "7.411475894705708",
        (
            (
                8.471406922933905, 8.368902230191187, 8.311418330773169, 8.198888624275622,
                8.035049427626033, 7.999964033951949, 7.736854461955788, 7.687607669278828,
                7.66327155862345, 7.6495603901938125, 7.636474183719496, 7.613329733007409,
                7.591197964596979, 7.5837085802062765, 7.474498391983735, 7.473370858358751,
                7.441394557823129, 7.411475894705708,
            ),
            (
                8.9877021013885, 8.952087671803415, 8.769910731090855, 8.479243818037064,
                8.38884783561055, 8.187281403971234, 8.059441445620822, 7.968857364904419,
                7.901214070793152, 7.8781160740158125, 7.84981440852203, 7.828455866297136,
                7.815481057508858, 7.7909527352607695, 7.790530879789742, 7.7758071667775175,
                7.5834709030153675, 7.4664482368888665, 7.411475894705708,
            ),
        ),
    ),
    (
        (7, 7, 3, 8, (1.0, 2.0, 0.5), "per"),
        (
            (1, 6, 7), (2, 3, 6), (3, 4, 7), (2, 5, 7), (4, 5, 6), (1, 3, 5), (1, 2, 4),
        ),
        "7.28676085818943",
        (
            (
                8.290121958410989, 8.178049218523059, 8.106787354864826, 7.869435162538611,
                7.679447476322476, 7.654247985581745, 7.624448088933325, 7.5867898158721365,
                7.570438533326522, 7.548805159357385, 7.506817611347228, 7.38757216457565,
                7.385666211450183, 7.3719671733609005, 7.28676085818943,
            ),
            (
                9.311154076136951, 9.29796625248874, 8.96959367792701, 8.872450818102992,
                8.57787642288191, 8.342133762198486, 8.08959339774557, 8.033843844548162,
                8.029037870386682, 7.947261821545551, 7.9235908337694045, 7.898980682016396,
                7.868620268620268, 7.702999933283015, 7.676854752966193, 7.57081706527188,
                7.4721950342436765, 7.445886485850697, 7.372056514913658, 7.3592508923519375,
                7.28676085818943,
            ),
        ),
    ),
    (
        (6, 4, 2, 3, (1.0, 1.0, 1.0), "1"),
        (
            (2, 3), (1, 2), (3, 4), (2, 4), (1, 4), (1, 3),
        ),
        "6.3",
        (
            (
                9.15, 7.85, 7.78888888888889, 7.273809523809524, 7.149999999999999, 6.6, 6.3,
            ),
            (
                11.483333333333334, 8.988888888888887, 8.0, 7.149999999999999, 6.6, 6.3,
            ),
        ),
    ),
    (
        (6, 4, 2, 3, (1.0, 1.0, 1.0), "3"),
        (
            (2, 3), (1, 2), (3, 4), (2, 4), (1, 4), (1, 3),
        ),
        "6.147058823529411",
        (
            (
                8.946078431372548, 7.673529411764705, 7.5849673202614385, 7.091736694677871,
                6.965686274509803, 6.440422322775263, 6.147058823529411,
            ),
            (
                11.18137254901961, 8.741830065359476, 7.784313725490196, 6.965686274509803,
                6.440422322775263, 6.147058823529411,
            ),
        ),
    ),
    (
        (6, 4, 2, 3, (1.0, 1.0, 1.0), "per"),
        (
            (2, 3), (1, 2), (3, 4), (2, 4), (1, 4), (1, 3),
        ),
        "6.140151515151515",
        (
            (
                9.056818181818182, 7.80530303030303, 7.63510101010101, 7.10064935064935,
                7.0606060606060606, 6.476398601398601, 6.456002331002331, 6.453088578088577,
                6.140151515151515,
            ),
            (
                11.155303030303031, 8.921717171717171, 7.8210227272727275, 7.0658143939393945,
                6.460081585081586, 6.140151515151515,
            ),
        ),
    ),
    (
        (6, 4, 2, 3, (1.0, 2.0, 0.5), "1"),
        (
            (1, 2), (2, 3), (3, 4), (2, 4), (1, 4), (1, 3),
        ),
        "8.6",
        (
            (
                11.425, 10.108333333333334, 9.672619047619047, 9.591666666666667,
                8.911538461538461, 8.6,
            ),
            (
                14.258333333333333, 11.7, 10.583333333333332, 9.591666666666667, 8.911538461538461,
                8.6,
            ),
        ),
    ),
    (
        (6, 4, 2, 3, (1.0, 2.0, 0.5), "3"),
        (
            (1, 2), (2, 3), (3, 4), (2, 4), (1, 4), (1, 3),
        ),
        "8.294117647058822",
        (
            (
                11.017156862745098, 9.755392156862744, 9.308473389355742, 9.223039215686274,
                8.592383107088988, 8.294117647058822,
            ),
            (
                13.654411764705882, 11.205882352941178, 10.151960784313726, 9.223039215686274,
                8.592383107088988, 8.294117647058822,
            ),
        ),
    ),
    (
        (6, 4, 2, 3, (1.0, 2.0, 0.5), "per"),
        (
            (1, 4), (1, 3), (2, 4), (1, 2), (2, 3), (3, 4),
        ),
        "8.28030303030303",
        (
            (
                11.238636363636365, 9.981439393939393, 9.950757575757574, 9.308441558441558,
                9.06155303030303, 8.665064102564102, 8.633886946386946, 8.576486013986013,
                8.56672494172494, 8.531881313131313, 8.52651515151515, 8.303030303030303,
            ),
            (
                13.539772727272728, 11.440656565656566, 10.178503787878787, 9.368607954545455,
                9.2637987012987, 9.004024621212121, 8.639714452214452, 8.555082070707071,
                8.487762237762238, 8.480332167832167, 8.28030303030303,
            ),
        ),
    ),
    (
        (6, 4, 2, 8, (1.0, 1.0, 1.0), "1"),
        (
            (3, 4), (1, 2), (2, 4), (2, 3), (1, 4), (1, 3),
        ),
        "6.3",
        (
            (
                11.05, 9.316666666666666, 8.522222222222222, 7.85, 7.738888888888889,
                6.991666666666666, 6.6, 6.3,
            ),
            (
                6.599999999999999, 6.3,
            ),
        ),
    ),
    (
        (6, 4, 2, 8, (1.0, 1.0, 1.0), "3"),
        (
            (3, 4), (1, 2), (2, 4), (2, 3), (1, 4), (1, 3),
        ),
        "6.147058823529411",
        (
            (
                10.77941176470588, 9.112745098039216, 8.316993464052286, 7.673529411764705,
                7.537581699346406, 6.821078431372548, 6.440422322775264, 6.147058823529411,
            ),
            (
                6.440422322775263, 6.147058823529411,
            ),
        ),
    ),
    (
        (6, 4, 2, 8, (1.0, 1.0, 1.0), "per"),
        (
            (3, 4), (1, 2), (2, 4), (2, 3), (1, 4), (1, 3),
        ),
        "6.1477272727272725",
        (
            (
                10.632575757575756, 9.045454545454545, 8.277777777777777, 7.584848484848484,
                7.546717171717171, 6.7793560606060606, 6.398892773892775, 6.1477272727272725,
            ),
            (
                6.460081585081584, 6.438228438228439, 6.1477272727272725,
            ),
        ),
    ),
    (
        (6, 4, 2, 8, (1.0, 2.0, 0.5), "1"),
        (
            (3, 4), (1, 2), (2, 4), (2, 3), (1, 4), (1, 3),
        ),
        "8.6",
        (
            (
                13.641666666666666, 11.591666666666667, 10.933333333333334, 10.108333333333334,
                9.3375, 8.911538461538463, 8.6,
            ),
            (
                8.91153846153846, 8.6,
            ),
        ),
    ),
    (
        (6, 4, 2, 8, (1.0, 2.0, 0.5), "3"),
        (
            (3, 4), (1, 2), (2, 4), (2, 3), (1, 4), (1, 3),
        ),
        "8.294117647058822",
        (
            (
                13.10049019607843, 11.183823529411766, 10.522875816993464, 9.755392156862746,
                8.996323529411764, 8.59238310708899, 8.294117647058822,
            ),
            (
                8.592383107088988, 8.294117647058822,
            ),
        ),
    ),
    (
        (6, 4, 2, 8, (1.0, 2.0, 0.5), "per"),
        (
            (3, 4), (1, 2), (2, 4), (2, 3), (1, 4), (1, 3),
        ),
        "8.295454545454545",
        (
            (
                12.86931818181818, 11.049242424242426, 10.402777777777777, 9.553030303030301,
                8.897253787878789, 8.514131701631703, 8.295454545454545,
            ),
            (
                8.62689393939394, 8.597610722610723, 8.295454545454545,
            ),
        ),
    ),
)


def _golden_aug(name: str, b: int) -> AugmentationSpec:
    if name == "per":
        return AugmentationSpec.per_block([1 + j % 3 for j in range(b)])
    return AugmentationSpec.common(int(name))


def _golden_id(case) -> str:
    b, v, k, seed, weights, aug_name = case[0]
    return f"{b}-{v}-{k}-seed{seed}-w{','.join(f'{w:g}' for w in weights)}-s{aug_name}"


@pytest.mark.parametrize("case", GOLDEN, ids=_golden_id)
def test_golden_search_bitwise(case):
    (b, v, k, seed, weights, aug_name), blocks, objective, traces = case
    cfg = SearchConfig(*weights, aug=_golden_aug(aug_name, b), restarts=2, rng_seed=seed)
    result = exchange_search(b, v, k, cfg)
    assert result.design.blocks == blocks
    assert repr(result.objective) == objective
    assert result.traces == traces


# Single-restart searches at seed 1, weights (1,1,1), s=1, on two large
# classes, recorded when each occurrence was screened on its own:
# repr(objective) and the sha256 of repr(blocks) and of repr(traces). Like
# the fixture above, these are the bits of one numpy/OpenBLAS build; a
# LAPACK that rounds differently can move the last bits of every
# objective, and then this test fails on that build while the search is
# still correct.
LARGE_GOLDEN = (
    (
        (30, 25, 5),
        "4.310815538791206",
        "561ee85249ffd26076fce5293a366885611414f3977db5e6030c3d31190bc4c8",
        "a7a410416303f0f7fcfb03402ebd0aa53e94988b067d2fddc22c7f053898850c",
    ),
    (
        (14, 49, 7),
        "5.735728229721578",
        "d6437f2766847af405b8259703259849959f800ade6e533a8a8bb7ca36390fa6",
        "f1bedea188434c054ad156f1020d7c8802d1a240381e391e507372d1e9d176e1",
    ),
)


@pytest.mark.parametrize("case", LARGE_GOLDEN, ids=lambda case: "-".join(map(str, case[0])))
def test_golden_large_search(case):
    bvk, objective, blocks_sha, traces_sha = case
    result = exchange_search(*bvk, SearchConfig(1.0, 1.0, 1.0, restarts=1, rng_seed=1))
    assert repr(result.objective) == objective
    assert hashlib.sha256(repr(result.design.blocks).encode()).hexdigest() == blocks_sha
    assert hashlib.sha256(repr(result.traces).encode()).hexdigest() == traces_sha


@pytest.mark.slow
def test_golden_search_56_49_7():
    # the class of lattice q=7, recorded when every batch screened the rest
    # of its pass; the bits of one numpy/OpenBLAS build, like LARGE_GOLDEN
    result = exchange_search(56, 49, 7, SearchConfig(1.0, 1.0, 1.0, restarts=1, rng_seed=1))
    assert repr(result.objective) == "3.917254223406291"
    assert (hashlib.sha256(repr(result.design.blocks).encode()).hexdigest()
            == "9f37e3c95db1d01a5b2aebe493dc84512e29f08958585d634f42eb19955ea03f")
    assert (hashlib.sha256(repr(result.traces).encode()).hexdigest()
            == "fa07be0122ebd18cfa2e135a14c1e73da541d8946478907bb8739cac3512c2dc")


REFERENCE_CASES = (
    ((4, 7, 3), SearchConfig(1.0, 1.0, 1.0, restarts=3, rng_seed=1)),
    ((20, 2, 20), SearchConfig(1.0, 1.0, 1.0, restarts=2, rng_seed=0)),
    ((2, 3, 5), SearchConfig(1.0, 2.0, 0.5, restarts=3, rng_seed=2)),
    ((12, 6, 3), SearchConfig(1.0, 2.0, 0.5, aug=AugmentationSpec.per_block([1, 2, 3] * 4), restarts=2, rng_seed=5)),
    ((12, 6, 3), SearchConfig(1.0, 0.0, 0.0, restarts=2, rng_seed=3)),
    ((10, 5, 3), SearchConfig(0.0, 1.0, 2.0, restarts=2, rng_seed=4)),
)


def _fingerprint(result):
    return result.design.blocks, result.objective.hex(), [[x.hex() for x in trace] for trace in result.traces]


@pytest.mark.parametrize("chain", [1, 2, search.CHAIN])
def test_search_matches_the_sequential_reference_pass(monkeypatch, chain):
    # links, stacked flushes, rollbacks and skipped repeats move no bit:
    # the same designs, objectives and traces as scoring one candidate at
    # a time; a chain of one flushes every candidate alone
    with monkeypatch.context() as m:
        m.setattr(search, "_improvement_pass", references.sequential_improvement_pass)
        want = [_fingerprint(exchange_search(*bvk, cfg)) for bvk, cfg in REFERENCE_CASES]
    monkeypatch.setattr(search, "CHAIN", chain)
    assert [_fingerprint(exchange_search(*bvk, cfg)) for bvk, cfg in REFERENCE_CASES] == want


class _Flushes:
    """Wraps `search._exact_objectives`: records each flush's members in
    order, and lets a test rewrite the values a flush returns."""

    def __init__(self, monkeypatch, rewrite=None):
        self.members, self.real, self.rewrite = [], search._exact_objectives, rewrite
        monkeypatch.setattr(search, "_exact_objectives", self)

    def __call__(self, cfg, members):
        values, q = self.real(cfg, members)
        self.members.append(list(members))
        if self.rewrite is not None:
            values = self.rewrite(values.copy())
        return values, q


def test_one_connectivity_answer_per_candidate(monkeypatch):
    # in a sparse class many candidates disconnect the design; each built
    # candidate is asked once, by at most one union-find, and the exact
    # scores ask nothing: outside the start draws, every union-find is an
    # answer or the start objective's intrablock
    built, answers, calls = [], [], {"union_finds": 0, "answering": 0, "start": 0, "restarts": 0}
    real_union_find, real_candidate = design._union_find, search._candidate
    real_connected, real_start = search._connected, search._random_connected

    def union_find(d):
        calls["union_finds"] += 1
        return real_union_find(d)

    def candidate(d, o, t):
        built.append(real_candidate(d, o, t))
        return built[-1]

    def connected(d, cand, o):
        before = calls["union_finds"]
        answers.append((cand, real_connected(d, cand, o)))
        assert calls["union_finds"] - before in (0, 1)
        calls["answering"] += calls["union_finds"] - before
        return answers[-1][1]

    def start(*args):
        before = calls["union_finds"]
        d = real_start(*args)
        calls["start"] += calls["union_finds"] - before
        calls["restarts"] += 1
        return d

    monkeypatch.setattr(design, "_union_find", union_find)
    monkeypatch.setattr(search, "_candidate", candidate)
    monkeypatch.setattr(search, "_connected", connected)
    monkeypatch.setattr(search, "_random_connected", start)
    exchange_search(4, 7, 3, SearchConfig(w_cc=1.0, w_tt=1.0, w_ct=1.0, restarts=2, rng_seed=3))
    assert [id(cand) for cand, _ in answers] == [id(cand) for cand in built]
    assert any(not answer for _, answer in answers) and any(answer for _, answer in answers)
    assert calls["union_finds"] == calls["start"] + calls["restarts"] + calls["answering"]
    assert calls["answering"] < len(answers)  # some answered without a union-find


@pytest.mark.parametrize("bvk, seed", [((12, 6, 3), 1), ((4, 7, 3), 3)], ids=["12-6-3", "4-7-3-sparse"])
def test_one_p_inverse_per_member_and_one_c_dual_stack_per_flush(monkeypatch, bvk, seed):
    # each batch reads the P of its design, inverted alone when the design
    # joined a flush or, for a start, scored by `_objective`; a flush
    # inverts its members' C_dual as one stack, or alone for one member
    singles, stacks, starts = [], [], []
    real_inverse, real_criteria_inverse = search.mp_inverse_centered, criteria.mp_inverse_centered

    def inverse(a):
        (singles if a.ndim == 2 else stacks).append(len(a))
        return real_inverse(a)

    def criteria_inverse(a):
        starts.append(len(a))
        return real_criteria_inverse(a)

    flushes = _Flushes(monkeypatch)
    monkeypatch.setattr(search, "mp_inverse_centered", inverse)
    monkeypatch.setattr(criteria, "mp_inverse_centered", criteria_inverse)
    exchange_search(*bvk, SearchConfig(w_cc=1.0, w_tt=1.0, w_ct=1.0, restarts=2, rng_seed=seed))
    sizes = [len(members) for members in flushes.members]
    assert max(sizes) > 1 and 1 in sizes
    assert stacks == [size for size in sizes if size > 1]
    assert len(singles) == sum(sizes) + sizes.count(1)
    assert len(starts) == 2 * 2  # P and Q of each restart's start design


ABOVE_BLOCK_ORDER_CASES = (
    ((70, 3, 2), SearchConfig(1.0, 1.0, 1.0, restarts=1, rng_seed=0)),
    ((66, 2, 3), SearchConfig(1.0, 2.0, 0.5, aug=AugmentationSpec.per_block([1, 2, 3] * 22), restarts=2, rng_seed=1)),
)


def test_search_above_block_order_matches_the_sequential_reference_pass(monkeypatch):
    # above matrix.BLOCK_ORDER blocks no C_dual is built, and each Q comes
    # from P by the dual identity, alone and in stacks: (70,3,2) chains
    # three links; the bits are those of scoring one at a time
    with monkeypatch.context() as m:
        m.setattr(search, "_improvement_pass", references.sequential_improvement_pass)
        want = [_fingerprint(exchange_search(*bvk, cfg)) for bvk, cfg in ABOVE_BLOCK_ORDER_CASES]

    def no_dual_information(*args):
        raise AssertionError("C_dual was built")

    flushes = _Flushes(monkeypatch)
    monkeypatch.setattr(criteria, "_dual_information", no_dual_information)
    assert [_fingerprint(exchange_search(*bvk, cfg)) for bvk, cfg in ABOVE_BLOCK_ORDER_CASES] == want
    assert max(len(members) for members in flushes.members) > 1


def test_no_move_is_built_twice_in_a_pass_on_one_design(monkeypatch):
    # in (20,3,20) each block holds several copies of each label, so a move
    # comes at several occurrences; the sequential pass builds and scores
    # the rejected ones again, the search builds each move once per design
    # and pass, with the same result
    cfg = SearchConfig(w_cc=1.0, w_tt=1.0, w_ct=1.0, restarts=2, rng_seed=0)
    real_candidate = search._candidate

    def moves_built(improvement_pass):
        built, passes = [], [0]

        def candidate(d, o, t):
            built.append((passes[0], d.blocks, search._move(d, o, t)))
            return real_candidate(d, o, t)

        def counted_pass(*args):
            passes[0] += 1
            return improvement_pass(*args)

        with monkeypatch.context() as m:
            m.setattr(search, "_candidate", candidate)
            m.setattr(search, "_improvement_pass", counted_pass)
            result = exchange_search(20, 3, 20, cfg)
        return built, result

    again, want = moves_built(references.sequential_improvement_pass)
    once, got = moves_built(search._improvement_pass)
    assert len(set(again)) < len(again) / 2
    assert len(set(once)) == len(once) == len(set(again))
    assert _fingerprint(got) == _fingerprint(want)


def test_stacked_nan_is_rescored_alone_when_reached(monkeypatch):
    # with every stacked value NaN, each member is scored again alone, by
    # `_objective`, only once the scan reaches it: in each flush the
    # rescored members are a prefix, in scan order, and the result keeps
    # its bits
    cfg = SearchConfig(w_cc=1.0, w_tt=2.0, w_ct=0.5, restarts=2, rng_seed=1)
    want = _fingerprint(exchange_search(12, 6, 3, cfg))
    rescored, real_objective = [], search._objective

    def objective(cfg, d):
        rescored.append((len(flushes.members), d))
        return real_objective(cfg, d)

    flushes = _Flushes(monkeypatch, lambda values: np.full_like(values, np.nan))
    monkeypatch.setattr(search, "_objective", objective)
    assert _fingerprint(exchange_search(12, 6, 3, cfg)) == want
    scored = set()
    for index, members in enumerate(flushes.members, start=1):
        designs = [m.design for m in members]
        reached = [d for flush, d in rescored if flush == index and any(d is m for m in designs)]
        assert 1 <= len(reached) and all(d is m for d, m in zip(reached, designs))
        scored.update(map(id, reached))
    assert len(rescored) == len(scored) + cfg.restarts  # and the start designs


def test_member_behind_a_rejected_link_is_never_scored(monkeypatch):
    # a first link forced to be rejected rolls the pass back: the members
    # behind it, forced to NaN, are never scored alone
    rescored, real_objective = [], search._objective

    def objective(cfg, d):
        rescored.append(d)
        return real_objective(cfg, d)

    def reject_first(values):
        if len(values) > 1:
            values[0], values[1:] = np.inf, np.nan
        return values

    flushes = _Flushes(monkeypatch, reject_first)
    monkeypatch.setattr(search, "_objective", objective)
    result = exchange_search(12, 6, 3, SearchConfig(w_cc=1.0, w_tt=1.0, w_ct=1.0, restarts=2, rng_seed=1))
    assert is_connected(result.design)
    behind = {id(m.design) for members in flushes.members if len(members) > 1 for m in members[1:]}
    assert behind
    assert not behind & {id(d) for d in rescored}


def _penalty(d):
    """1 for about a third of all designs, picked by their blocks, else 0."""
    return float(zlib.crc32(repr(d.blocks).encode()) % 3 == 0)


@pytest.mark.parametrize("chain", [2, search.CHAIN])
def test_rejected_links_roll_back_to_the_sequential_result(monkeypatch, chain):
    # the exact scores, not the screen, add 1 to a third of all designs, so
    # many clear links fail their flush and roll the pass back; the result
    # is the sequential pass's under the same scores, bit for bit
    real_objective = search._objective
    cases = [((12, 6, 3), SearchConfig(1.0, 1.0, 1.0, restarts=2, rng_seed=4)),
             ((10, 5, 3), SearchConfig(1.0, 2.0, 0.5, restarts=2, rng_seed=1))]
    monkeypatch.setattr(search, "_objective", lambda cfg, d: real_objective(cfg, d) + _penalty(d))
    with monkeypatch.context() as m:
        m.setattr(search, "_improvement_pass", references.sequential_improvement_pass)
        want = [_fingerprint(exchange_search(*bvk, cfg)) for bvk, cfg in cases]
    monkeypatch.setattr(search, "CHAIN", chain)
    flushes = _Flushes(monkeypatch, lambda values: values + [_penalty(m.design) for m in flushes.members[-1]])
    assert [_fingerprint(exchange_search(*bvk, cfg)) for bvk, cfg in cases] == want
    assert any(_penalty(m.design) for members in flushes.members for m in members[:-1])


def test_singular_member_raises_as_scored_alone(monkeypatch):
    # a member whose stacked score is NaN because its inverse failed raises
    # SingularMatrix when the scan reaches it, as scoring it alone does in
    # the sequential pass
    cfg = SearchConfig(w_cc=1.0, w_tt=1.0, w_ct=1.0, restarts=1, max_passes=1, rng_seed=2)
    target = exchange_search(12, 6, 3, cfg).design.blocks
    real_objective = search._objective

    def objective(cfg, d):
        if d.blocks == target:
            raise SingularMatrix("an information matrix of a connected design is numerically singular")
        return real_objective(cfg, d)

    def nan_target(values):
        for i, m in enumerate(flushes.members[-1]):
            if m.design.blocks == target:
                values[i] = np.nan
        return values

    monkeypatch.setattr(search, "_objective", objective)
    with monkeypatch.context() as m:
        m.setattr(search, "_improvement_pass", references.sequential_improvement_pass)
        with pytest.raises(SingularMatrix):
            exchange_search(12, 6, 3, cfg)
    flushes = _Flushes(monkeypatch, nan_target)
    with pytest.raises(SingularMatrix):
        exchange_search(12, 6, 3, cfg)
