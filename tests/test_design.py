import itertools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augdes import design as design_module
from augdes.design import (
    AugmentationSpec,
    BlockDesign,
    all_k_subsets,
    components,
    delete_blocks,
    dual,
    format_design,
    from_blocks,
    is_connected,
    lattice_bib,
    low_overlap_indices,
    parse_design,
    read_design,
    repeat_blocks,
    write_design,
)
from augdes.errors import (
    DesignFormatError,
    EmptyBlock,
    IndexOutOfRange,
    InvalidParameters,
    InvalidSize,
    LabelOutOfRange,
    NotSupportedOrder,
    TooFewBlocksRemain,
)
from references import low_overlap_reference, reference_components

EIGHT_BLOCKS = [
    (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5),
    (1, 4, 5), (2, 3, 4), (2, 3, 5), (2, 4, 5),
]


class TestFromBlocks:
    def test_eight_block_replications(self):
        d = from_blocks(5, EIGHT_BLOCKS)
        assert d.replications == (5, 5, 4, 5, 5)

    def test_two_block_complete(self):
        d = from_blocks(2, [[1, 2], [1, 2]])
        assert d.incidence.tolist() == [[1, 1], [1, 1]]

    def test_non_binary_block(self):
        d = from_blocks(3, [[1, 1]])
        assert d.incidence[:, 0].tolist() == [2, 0, 0]

    def test_blocks_sorted(self):
        d = from_blocks(4, [[3, 1, 2]])
        assert d.blocks == ((1, 2, 3),)

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            from_blocks(3, [[1, 4]])

    def test_empty_block(self):
        with pytest.raises(EmptyBlock):
            from_blocks(3, [[1, 2], []])


class TestConnectivity:
    def test_bib_connected(self):
        assert is_connected(all_k_subsets(5, 3))

    def test_two_components(self):
        assert not is_connected(from_blocks(4, [[1, 2], [3, 4]]))

    def test_no_block_mixes_treatments(self):
        assert not is_connected(from_blocks(2, [[1, 1], [2, 2]]))

    def test_missing_treatment(self):
        assert not is_connected(from_blocks(3, [[1, 2], [1, 2]]))

    def test_single_block_touching_all(self):
        assert is_connected(all_k_subsets(4, 4))

    def test_no_blocks(self):
        # a lone treatment is one component of the incidence graph
        assert not is_connected(from_blocks(1, []))

    def test_long_path_is_connected_within_a_second(self):
        # a path design needs one reachability round per hop, about 11 s at
        # v = 2,000; the union-find takes a few milliseconds
        d = from_blocks(2000, [[i, i + 1] for i in range(1, 2000)])
        start = time.perf_counter()
        assert is_connected(d)
        assert time.perf_counter() - start < 1.0

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 9).flatmap(
            lambda v: st.tuples(
                st.just(v),
                st.lists(st.lists(st.integers(1, v), min_size=1, max_size=4), max_size=7),
            )
        )
    )
    def test_components_match_breadth_first_search(self, case):
        # few labels over few blocks: unused treatments, repeated labels
        # within a block and several components are all common
        v, blocks = case
        d = BlockDesign(v, tuple(tuple(sorted(block)) for block in blocks))
        assert components(d) == reference_components(d)

    def test_long_path_components_match_breadth_first_search(self):
        d = from_blocks(2000, [[i, i + 1] for i in range(1, 2000)])
        assert components(d) == reference_components(d)
        assert components(d)[2] == 1

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 8).flatmap(
            lambda v: st.tuples(
                st.just(v),
                st.lists(st.lists(st.integers(1, v), min_size=1, max_size=4), min_size=1, max_size=6),
                st.booleans(),
            )
        )
    )
    def test_labels_equal_the_full_labelling_pass(self, case):
        # a chain of blocks (i, i + 1) makes the design connected, where
        # components skips the pass; without it several components are common
        v, blocks, chain = case
        if chain:
            blocks = blocks + [[i, i + 1] for i in range(1, v)]
        d = BlockDesign(v, tuple(tuple(sorted(block)) for block in blocks))
        find, count = design_module._union_find(d)
        roots = {}
        full = [roots.setdefault(find(node), len(roots)) for node in range(d.b + d.v)]
        assert components(d) == (full[: d.b], full[d.b :], count)
        assert count == 1 or not chain

    def test_huge_v_rejected_without_allocation(self):
        # fewer plots than treatments: rejected before any order-v storage
        d = BlockDesign(10**6, ((1, 2), (1, 2)))
        tracemalloc.start()
        try:
            assert not is_connected(d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestDual:
    def test_dual_of_lattice_parameters(self):
        d = dual(lattice_bib(5))
        assert (d.b, d.v, d.uniform_block_size()) == (25, 30, 6)
        assert set(d.replications) == {5}

    def test_involution(self):
        d = from_blocks(5, EIGHT_BLOCKS)
        assert dual(dual(d)) == d

    def test_blocks_list_each_treatments_blocks(self, corpus):
        # the loop over incidence entries that `dual` replaced, as reference:
        # block i of the dual holds j once per occurrence of i in block j
        for d in [lattice_bib(3)] + [d for d, _ in corpus]:
            n = d.incidence
            want = tuple(
                tuple(j + 1 for j in range(d.b) for _ in range(int(n[i, j]))) for i in range(d.v)
            )
            got = dual(d).blocks
            assert got == want
            assert all(type(label) is int for block in got for label in block)

    def test_path_design_without_dense_incidence(self):
        # a path design (blocks i, i+1) on 20,000 treatments, built before
        # tracing: its dense incidence alone would take 3.2 GB
        v = 20_000
        d = from_blocks(v, [[i, i + 1] for i in range(1, v)])
        tracemalloc.start()
        try:
            got = dual(d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert got.blocks == ((1,),) + tuple((i, i + 1) for i in range(1, v - 1)) + ((v - 1,),)

    def test_self_dual_complete_two_blocks(self):
        d = from_blocks(2, [[1, 2], [1, 2]])
        assert dual(d) == d

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_involution_random(self, data):
        v = data.draw(st.integers(2, 5))
        b = data.draw(st.integers(1, 5))
        blocks = data.draw(
            st.lists(
                st.lists(st.integers(1, v), min_size=1, max_size=4),
                min_size=b,
                max_size=b,
            )
        )
        d = from_blocks(v, blocks)
        assert np.array_equal(dual(dual(d)).incidence, d.incidence)


class TestDeleteRepeat:
    def test_delete_first_and_last_gives_eight_block_design(self):
        d = delete_blocks(all_k_subsets(5, 3), [1, 10])
        assert d.blocks == tuple(EIGHT_BLOCKS)

    def test_repeat_first_block(self):
        d = repeat_blocks(all_k_subsets(5, 3), [1])
        assert d.b == 11
        assert d.blocks[-1] == (1, 2, 3)

    def test_repeat_preserves_order(self):
        d = repeat_blocks(all_k_subsets(5, 3), [10, 1])
        assert d.blocks[10] == (1, 2, 3)
        assert d.blocks[11] == (3, 4, 5)

    def test_delete_then_repeat_keeps_size_not_design(self):
        d = all_k_subsets(5, 3)
        out = repeat_blocks(delete_blocks(d, [1]), [1])
        assert out.b == d.b
        assert out != d

    def test_never_changes_v(self):
        d = all_k_subsets(5, 3)
        assert delete_blocks(d, [2]).v == 5
        assert repeat_blocks(d, [2]).v == 5

    def test_repeat_preserves_connectivity(self):
        d = from_blocks(3, [[1, 2], [2, 3]])
        assert is_connected(repeat_blocks(d, [1, 2]))

    def test_delete_may_disconnect(self):
        d = from_blocks(4, [[1, 2], [3, 4], [2, 3], [2, 3]])
        assert is_connected(d)
        assert not is_connected(delete_blocks(d, [3, 4]))

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            delete_blocks(all_k_subsets(5, 3), [0])
        with pytest.raises(IndexOutOfRange):
            repeat_blocks(all_k_subsets(5, 3), [11])

    def test_too_few_blocks_remain(self):
        with pytest.raises(TooFewBlocksRemain):
            delete_blocks(from_blocks(3, [[1, 2], [2, 3], [1, 3]]), [1, 2])


class TestAllKSubsets:
    def test_example_block_list(self):
        d = all_k_subsets(5, 3)
        assert d.blocks[0] == (1, 2, 3)
        assert d.blocks[-1] == (3, 4, 5)
        assert d.b == 10

    def test_pairs_of_three(self):
        assert all_k_subsets(3, 2).blocks == ((1, 2), (1, 3), (2, 3))

    def test_degenerate_full_block(self):
        d = all_k_subsets(4, 4)
        assert d.blocks == ((1, 2, 3, 4),)
        assert is_connected(d)

    def test_invalid_size(self):
        with pytest.raises(InvalidSize):
            all_k_subsets(3, 4)

    @pytest.mark.parametrize("v,k", [(5, 3), (6, 2), (5, 4)])
    def test_concurrence_counts(self, v, k):
        import math

        d = all_k_subsets(v, k)
        n = d.incidence
        lam = math.comb(v - 2, k - 2)
        for i in range(v):
            assert d.replications[i] == math.comb(v - 1, k - 1)
            for j in range(i + 1, v):
                assert int(n[i] @ n[j]) == lam


class TestLattice:
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_parameters_and_unit_concurrence(self, q):
        d = lattice_bib(q)
        assert (d.v, d.b, d.uniform_block_size()) == (q * q, q * (q + 1), q)
        assert set(d.replications) == {q + 1}
        n = d.incidence
        for i in range(d.v):
            for j in range(i + 1, d.v):
                assert int(n[i] @ n[j]) == 1

    def test_q2_is_all_pairs_of_four(self):
        d = lattice_bib(2)
        assert sorted(d.blocks) == list(itertools.combinations(range(1, 5), 2))

    @pytest.mark.parametrize("q", [1, 4, 6, 17])
    def test_unsupported_orders(self, q):
        with pytest.raises(NotSupportedOrder):
            lattice_bib(q)


class TestLowOverlap:
    def test_single_pick(self):
        assert low_overlap_indices(all_k_subsets(5, 3), 1) == (1,)

    def test_first_minimal_pair(self):
        # blocks 1 and 6 are {1,2,3} and {1,4,5}: the first pair meeting in
        # a single treatment, which is the minimum for 3-subsets of 5.
        assert low_overlap_indices(all_k_subsets(5, 3), 2) == (1, 6)

    def test_multiset_overlap(self):
        # blocks 1 and 2 share {1, 1}, blocks 1 and 3 share {1, 2} and
        # blocks 2 and 3 share {1}: counted as sets, blocks 1 and 2 would
        # also share a single treatment and come first
        d = from_blocks(3, [(1, 1, 2), (1, 1, 3), (1, 2, 2)])
        assert low_overlap_indices(d, 2) == (2, 3)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_counter_reference(self, data):
        # random multiset designs of unequal block sizes, and every n
        v = data.draw(st.integers(1, 5))
        blocks = data.draw(st.lists(st.lists(st.integers(1, v), min_size=1, max_size=5), min_size=1, max_size=9))
        d = from_blocks(v, blocks)
        n = data.draw(st.integers(1, d.b))
        assert low_overlap_indices(d, n) == low_overlap_reference(d, n)

    def test_bad_count(self):
        with pytest.raises(IndexOutOfRange):
            low_overlap_indices(all_k_subsets(5, 3), 11)


class TestAugmentationSpec:
    def test_common(self):
        aug = AugmentationSpec.common(2)
        assert aug.is_common
        assert aug.counts(4) == (2, 2, 2, 2)
        assert aug.total(4) == 8
        assert aug.describe() == "2"

    def test_per_block(self):
        aug = AugmentationSpec.per_block([1, 2, 3])
        assert not aug.is_common
        assert aug.counts(3) == (1, 2, 3)
        assert aug.describe() == "1,2,3"

    def test_per_block_length_checked(self):
        with pytest.raises(InvalidParameters):
            AugmentationSpec.per_block([1, 2, 3]).counts(4)

    def test_counts_must_be_positive(self):
        with pytest.raises(InvalidParameters):
            AugmentationSpec.common(0)
        with pytest.raises(InvalidParameters):
            AugmentationSpec.per_block([1, 0, 2])

    def test_counts_normalized_to_int(self):
        assert AugmentationSpec(s=2.0).counts(2) == (2, 2)

    def test_exactly_one_mode(self):
        with pytest.raises(InvalidParameters):
            AugmentationSpec()
        with pytest.raises(InvalidParameters):
            AugmentationSpec(s=1, s_list=(1, 2))


class TestTextFormat:
    def test_round_trip(self, tmp_path):
        d = from_blocks(5, EIGHT_BLOCKS)
        path = tmp_path / "d.design"
        write_design(d, path)
        assert read_design(path) == d

    def test_comments_and_blanks(self):
        text = "# header\n\nv 3\nblock 1 2  # inline\n\nblock 2 3\n"
        d = parse_design(text)
        assert d.blocks == ((1, 2), (2, 3))

    def test_format_output(self):
        d = from_blocks(2, [[1, 2], [1, 1]])
        assert format_design(d) == "v 2\nblock 1 2\nblock 1 1\n"

    def test_repeated_labels_allowed(self):
        assert parse_design("v 2\nblock 1 1\nblock 1 2\n").incidence[0, 0] == 2

    @pytest.mark.parametrize(
        "text",
        [
            "block 1 2\n",           # block before v
            "v 2\nv 3\n",            # duplicate v
            "v two\n",               # bad count
            "v 0\n",                 # no treatments
            "v -3\nblock 1 2\n",     # negative count
            "v 2\nblock 1 x\n",      # bad label
            "v 2\nblock\n",          # empty block line
            "v 2\nrow 1 2\n",        # unknown directive
            "",                      # missing v
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(DesignFormatError):
            parse_design(text)

    def test_from_blocks_keeps_invalid_parameters(self):
        for v in (0, -3):
            with pytest.raises(InvalidParameters):
                from_blocks(v, [])

    def test_out_of_range_label_propagates(self):
        with pytest.raises(LabelOutOfRange):
            parse_design("v 2\nblock 1 3\n")
