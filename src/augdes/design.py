"""Block-design data model: blocks, incidence, duals, constructions.

Treatment labels are 1-based in every public interface. Blocks are
multisets stored as sorted tuples, so two designs compare equal exactly
when their incidence matrices agree with blocks in the same order; block
order never influences any criterion, only display.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    ClassTooLarge,
    DesignFormatError,
    EmptyBlock,
    IndexOutOfRange,
    InvalidParameters,
    InvalidSize,
    LabelOutOfRange,
    NotSupportedOrder,
    TooFewBlocksRemain,
)

_LATTICE_PRIMES = (2, 3, 5, 7, 11, 13)


@dataclass(frozen=True)
class BlockDesign:
    """A block design on treatments 1..v with an ordered list of blocks."""

    v: int
    blocks: tuple[tuple[int, ...], ...]

    @property
    def b(self) -> int:
        """Number of blocks."""
        return len(self.blocks)

    @cached_property
    def labels(self) -> np.ndarray:
        """The labels of every block in order, as one read-only array."""
        labels = np.fromiter(itertools.chain.from_iterable(self.blocks), dtype=int)
        labels.setflags(write=False)
        return labels

    @cached_property
    def incidence(self) -> np.ndarray:
        """v x b matrix whose (i, j) entry counts the occurrences of
        treatment i+1 in block j+1; entries may exceed one for non-binary
        designs."""
        labels = np.fromiter(itertools.chain.from_iterable(self.blocks), dtype=int)
        cells = (labels - 1) * self.b + np.repeat(np.arange(self.b), self.block_sizes)
        n = np.bincount(cells, minlength=self.v * self.b).astype(int, copy=False).reshape(self.v, self.b)
        n.setflags(write=False)
        return n

    @cached_property
    def replications(self) -> tuple[int, ...]:
        """Replication count of each treatment (row sums of incidence)."""
        return tuple(int(x) for x in self.incidence.sum(axis=1))

    @cached_property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(len(block) for block in self.blocks)

    def uniform_block_size(self) -> int | None:
        """The common block size, or None when the sizes differ."""
        sizes = set(self.block_sizes)
        return sizes.pop() if len(sizes) == 1 else None


@dataclass(frozen=True)
class AugmentationSpec:
    """Number of unreplicated test treatments added to each block.

    Either one count shared by every block (`s`) or one count per block
    (`s_list`); every block must receive at least one test treatment.
    """

    s: int | None = None
    s_list: tuple[int, ...] | None = None

    def __post_init__(self):
        if (self.s is None) == (self.s_list is None):
            raise InvalidParameters("give exactly one of a common count or a per-block list")
        if self.s is not None:
            object.__setattr__(self, "s", int(self.s))
            if self.s < 1:
                raise InvalidParameters("the common test-treatment count must be >= 1")
        if self.s_list is not None:
            counts = tuple(int(x) for x in self.s_list)
            if not counts or any(c < 1 for c in counts):
                raise InvalidParameters("every block must receive at least one test treatment")
            object.__setattr__(self, "s_list", counts)

    @classmethod
    def common(cls, s: int) -> "AugmentationSpec":
        return cls(s=int(s))

    @classmethod
    def per_block(cls, counts: Iterable[int]) -> "AugmentationSpec":
        return cls(s_list=tuple(int(c) for c in counts))

    @property
    def is_common(self) -> bool:
        return self.s is not None

    def counts(self, b: int) -> tuple[int, ...]:
        """Per-block counts resolved for a design with b blocks."""
        if self.s is not None:
            return (self.s,) * b
        if len(self.s_list) != b:
            raise InvalidParameters(f"{len(self.s_list)} per-block counts for {b} blocks")
        return self.s_list

    def total(self, b: int) -> int:
        return sum(self.counts(b))

    def describe(self) -> str:
        return str(self.s) if self.is_common else ",".join(map(str, self.s_list))


def from_blocks(v: int, blocks: Iterable[Sequence[int]]) -> BlockDesign:
    """Validate labels and build a design; blocks are sorted internally."""
    if v < 1:
        raise InvalidParameters("need at least one treatment")
    cleaned = []
    for pos, block in enumerate(blocks, start=1):
        members = tuple(sorted(int(x) for x in block))
        if not members:
            raise EmptyBlock(f"block {pos} is empty")
        for label in members:
            if not 1 <= label <= v:
                raise LabelOutOfRange(f"label {label} in block {pos} outside 1..{v}")
        cleaned.append(members)
    return BlockDesign(v, tuple(cleaned))


def _union_find(d: BlockDesign) -> tuple[Callable[[int], int], int]:
    """The union-find of the treatment-block incidence graph, nodes 0..b-1
    the blocks and b..b+v-1 the treatments: its `find` and the number of
    components. Each block's root is found once and every treatment of the
    block joined to it, so the root stays a root for the rest of the
    block; each join lowers the count by one, so it needs no labelling."""
    b = d.b
    parent = list(range(b + d.v))
    count = len(parent)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for j, block in enumerate(d.blocks):
        root = find(j)
        for label in block:
            x = find(b + label - 1)
            if x != root:
                parent[x] = root
                count -= 1
    return find, count


def components(d: BlockDesign) -> tuple[list[int], list[int], int]:
    """Component labels for the blocks and the treatments of the
    treatment-block incidence graph, and the number of components; a
    treatment that appears nowhere forms its own component. A connected
    design skips the labelling pass: every label is then 0."""
    find, count = _union_find(d)
    if count == 1:
        return [0] * d.b, [0] * d.v, 1
    roots: dict[int, int] = {}
    comp = [roots.setdefault(find(node), len(roots)) for node in range(d.b + d.v)]
    return comp[: d.b], comp[d.b :], count


def can_connect(v: int, b: int, n_plots: int) -> bool:
    """Whether n_plots plots can connect v treatments and b blocks.

    A connected treatment-block graph has a spanning tree of v + b - 1
    edges, and each plot is at most one edge, so a connected design needs
    n_plots >= v + b - 1. For a class of b blocks of size k this is exact:
    when b k >= v + b - 1, `search._spanning_start` builds a member.
    """
    return n_plots >= v + b - 1


def is_connected(d: BlockDesign) -> bool:
    """True when the design has a block, every treatment occurs somewhere
    and the treatment-block incidence graph has a single component.

    A design with too few plots for a spanning tree (`can_connect`) is
    rejected before the union-find allocates anything of order v.
    """
    return 0 < d.b and can_connect(d.v, d.b, sum(d.block_sizes)) and _union_find(d)[1] == 1


def stacked_connected(n: np.ndarray) -> np.ndarray:
    """`is_connected` for every member of an (m, v, b) incidence stack, as
    an (m,) boolean array.

    It works on the links with the design axis last, shape (v, b, m), a
    copy unless n is a `np.moveaxis` view of a contiguous boolean stack
    of that shape. Starting from treatment 1, each round hops from the
    reached treatments to their blocks and back, each hop a `logical_and`
    with the links and a max-reduce over the treatment or the block axis,
    until no member reaches anything new. A member is connected when it
    reaches every treatment and every block. The rounds grow with the
    longest hop count, so `is_connected` keeps its union-find: on a path
    design (blocks i, i+1) at v = 2,000 the rounds take about 2.6 s, the
    union-find about 1 ms.
    """
    links = np.ascontiguousarray(np.moveaxis(n, 0, -1), dtype=bool)
    v, b, m = links.shape
    reach = np.zeros((v, m), dtype=bool)
    reach[0] = True
    while True:
        blocks = (links & reach[:, None]).max(axis=0, initial=False)
        grown = (links & blocks).max(axis=1, initial=False)
        if np.array_equal(grown, reach):
            return (b > 0) & reach.all(axis=0) & blocks.all(axis=0)
        reach = grown


def dual(d: BlockDesign) -> BlockDesign:
    """Interchange the roles of treatments and blocks (the incidence
    matrix transposes); applying it twice restores the design."""
    # block i of the dual lists j once per occurrence of i in block j; one
    # walk over the blocks in order keeps each list ascending
    rows: list[list[int]] = [[] for _ in range(d.v)]
    for j, block in enumerate(d.blocks, start=1):
        for label in block:
            rows[label - 1].append(j)
    return BlockDesign(v=d.b, blocks=tuple(map(tuple, rows)))


def _check_indices(d: BlockDesign, indices: Iterable[int]) -> list[int]:
    idx = [int(i) for i in indices]
    for i in idx:
        if not 1 <= i <= d.b:
            raise IndexOutOfRange(f"block index {i} outside 1..{d.b}")
    return idx


def delete_blocks(d: BlockDesign, indices: Iterable[int]) -> BlockDesign:
    """Remove the 1-based blocks listed in `indices`, keeping the rest in
    their original order. At least two blocks must remain."""
    drop = set(_check_indices(d, indices))
    if d.b - len(drop) < 2:
        raise TooFewBlocksRemain(f"deleting {len(drop)} of {d.b} blocks leaves fewer than 2")
    kept = tuple(block for j, block in enumerate(d.blocks, start=1) if j not in drop)
    return BlockDesign(d.v, kept)


def repeat_blocks(d: BlockDesign, indices: Iterable[int]) -> BlockDesign:
    """Append one copy of each listed block, in ascending index order."""
    idx = sorted(_check_indices(d, indices))
    extra = tuple(d.blocks[i - 1] for i in idx)
    return BlockDesign(d.v, d.blocks + extra)


def _comb_within(n: int, r: int, cap: int, what: str) -> int:
    """math.comb(n, r) for 0 <= r <= n, when it is at most cap.

    It is built by the exact recurrence C(m + i, i) = C(m + i - 1, i - 1)
    (m + i) / i, m = n - r', over i up to r' = min(r, n - r). Since
    m >= r' >= i, each step at least doubles the value, so ClassTooLarge,
    naming `what` and the cap, is raised as soon as a partial value passes
    the cap, after at most log2(cap) + 1 steps.
    """
    r = min(r, n - r)
    value = 1
    for i in range(1, r + 1):
        if value > cap:
            break
        value = value * (n - r + i) // i
    if value > cap:
        raise ClassTooLarge(f"more {what} than the cap {cap}")
    return value


def all_k_subsets(v: int, k: int) -> BlockDesign:
    """All C(v, k) k-subsets of {1..v} as blocks, in lexicographic order.

    The result is a BIB design with replication C(v-1, k-1) and pairwise
    concurrence C(v-2, k-2).
    """
    if not 1 <= k <= v:
        raise InvalidSize(f"need 1 <= k <= v, got k={k}, v={v}")
    return BlockDesign(v, tuple(itertools.combinations(range(1, v + 1), k)))


def lattice_bib(q: int) -> BlockDesign:
    """Lattice BIB design on q^2 treatments built from the lines of the
    affine plane over the integers mod q: q(q+1) blocks of size q,
    replication q+1, every treatment pair together in exactly one block.
    Only prime q up to 13 is supported.
    """
    if q not in _LATTICE_PRIMES:
        raise NotSupportedOrder(f"q must be one of {_LATTICE_PRIMES}, got {q}")

    def label(x: int, y: int) -> int:
        return q * x + y + 1

    blocks = []
    for slope in range(q):
        for intercept in range(q):
            blocks.append(tuple(sorted(label(x, (slope * x + intercept) % q) for x in range(q))))
    for column in range(q):
        blocks.append(tuple(label(column, y) for y in range(q)))
    return BlockDesign(q * q, tuple(blocks))


def low_overlap_indices(d: BlockDesign, n: int) -> tuple[int, ...]:
    """Greedy choice of n block indices with small pairwise overlap, the
    size of the multiset intersection of two blocks.

    Starts from the lexicographically first pair attaining the minimum
    overlap, then repeatedly adds the block whose worst overlap with the
    chosen set is smallest, ties broken by lowest index. Asking for a
    single block returns block 1.
    """
    if not 1 <= n <= d.b:
        raise IndexOutOfRange(f"cannot pick {n} blocks from {d.b}")
    if n == 1:
        return (1,)
    # min(x, y) is the number of c >= 1 with x >= c and y >= c, so the
    # overlaps of all block pairs are exact sums of float products
    inc = d.incidence
    overlap = np.zeros((d.b, d.b))
    for c in range(1, int(inc.max()) + 1):
        at_least = (inc >= c).astype(float)
        overlap += at_least.T @ at_least
    pairs = np.where(np.triu(np.ones((d.b, d.b), dtype=bool), 1), overlap, np.inf)
    chosen = list(divmod(int(np.argmin(pairs)), d.b))
    worst = np.maximum(overlap[chosen[0]], overlap[chosen[1]])
    worst[chosen] = np.inf
    while len(chosen) < n:
        pick = int(np.argmin(worst))
        chosen.append(pick)
        worst = np.maximum(worst, overlap[pick])
        worst[pick] = np.inf
    return tuple(sorted(j + 1 for j in chosen))


def parse_design(text: str) -> BlockDesign:
    """Parse the design text format: one `v N` line, then one `block ...`
    line per block; `#` starts a comment and blank lines are skipped."""
    v = None
    blocks: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "v":
            if v is not None:
                raise DesignFormatError(f"line {lineno}: duplicate `v` line")
            if len(fields) != 2:
                raise DesignFormatError(f"line {lineno}: expected `v <count>`")
            try:
                v = int(fields[1])
            except ValueError:
                raise DesignFormatError(f"line {lineno}: bad treatment count {fields[1]!r}") from None
            if v < 1:
                raise DesignFormatError(f"line {lineno}: need at least one treatment, got {v}")
        elif fields[0] == "block":
            if v is None:
                raise DesignFormatError(f"line {lineno}: `block` before `v`")
            try:
                labels = [int(x) for x in fields[1:]]
            except ValueError:
                raise DesignFormatError(f"line {lineno}: non-integer label in block") from None
            if not labels:
                raise DesignFormatError(f"line {lineno}: block line with no labels")
            blocks.append(labels)
        else:
            raise DesignFormatError(f"line {lineno}: unknown directive {fields[0]!r}")
    if v is None:
        raise DesignFormatError("missing `v` line")
    return from_blocks(v, blocks)


def format_design(d: BlockDesign) -> str:
    lines = [f"v {d.v}"]
    lines.extend("block " + " ".join(str(x) for x in block) for block in d.blocks)
    return "\n".join(lines) + "\n"


def read_design(path) -> BlockDesign:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DesignFormatError(f"byte {exc.start}: not UTF-8 text") from None
    return parse_design(text)


def write_design(d: BlockDesign, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(format_design(d))
