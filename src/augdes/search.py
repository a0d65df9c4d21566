"""Exchange-search heuristic over a design class.

Minimizes a weighted sum of the three average-variance criteria by
repeatedly replacing a single treatment occurrence in a single block,
accepting the first strict improvement found in a fixed scan order, from
random connected restarts. Fully deterministic for a fixed seed.

A pass is screened in batches from the current design's exact P = C+,
which scoring the design left in its `criteria.intrablock` memo: a move
changes C by a symmetric rank-2 term, so `criteria.exchange_objective`
scores each move of a batch by a Woodbury update, with the weights
folded into the products it makes once per batch, and with no inverse
and no design object per move. The screen only filters: walking the
batch in scan order, a move whose screened objective is NaN or below the
acceptance limit plus SCREEN_TOL is built, from its parent's incidence
and replications, and scored exactly, and only that value decides
acceptance. A move whose exact step raises
`Disconnected`, which only the connectivity check of
`criteria.intrablock` raises, is skipped. An accepted design starts a new
batch at the next label of the same occurrence.

A batch covers a chunk of whole occurrences, about FIRST_CHUNK_MOVES
moves at first and after each accepted move, twice the last chunk after
a chunk with none, and never more than MAX_BATCH_MOVES moves, so a pass
that improves often does not screen its whole rest after every move. The
chunks move no bit: each move's screened value is computed elementwise
from products of the same P, incidence and counts, so it is the same
whichever chunk holds it. The screen agrees with the exact objective far
more closely than SCREEN_TOL, so designs, objectives and traces are the
same, bit for bit, as when every move is scored exactly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from . import criteria
from .design import AugmentationSpec, BlockDesign, can_connect, is_connected
from .errors import Disconnected, InvalidParameters, NoConnectedStart

# Objective values closer than this are ties. A move must improve by more,
# which prevents cycling through numerically equal designs; across restarts,
# and in oracle.class_minima, the earliest of tied designs wins, so rounding
# noise in the criteria never picks the result.
MOVE_TOL = 1e-12
# A screened objective is confirmed exactly when it lies below the
# acceptance limit plus this margin, relative to the objective's scale; the
# screen agrees with the exact objective to about 1e-14 relative.
SCREEN_TOL = 1e-9
# A pass is screened in chunks of whole occurrences: about this many moves
# at first and after each accepted move, twice as many after each chunk
# with none, and at most MAX_BATCH_MOVES (at least one occurrence), which
# bounds the kernel's arrays.
FIRST_CHUNK_MOVES = 256
MAX_BATCH_MOVES = 2**20
START_ATTEMPTS = 1000


@dataclass(frozen=True)
class SearchConfig:
    """Weights, augmentation and run controls for the exchange search."""

    w_cc: float
    w_tt: float
    w_ct: float
    aug: AugmentationSpec = field(default_factory=lambda: AugmentationSpec.common(1))
    restarts: int = 10
    max_passes: int = 50
    rng_seed: int = 0

    def __post_init__(self):
        weights = (self.w_cc, self.w_tt, self.w_ct)
        if any(not math.isfinite(w) or w < 0.0 for w in weights):
            raise InvalidParameters(f"weights must be finite and nonnegative, got {weights}")
        if all(w == 0.0 for w in weights):
            raise InvalidParameters("at least one weight must be positive")
        if self.restarts < 1:
            raise InvalidParameters("need at least one restart")
        if self.max_passes < 1:
            raise InvalidParameters("need at least one pass")


@dataclass(frozen=True)
class SearchResult:
    """Best design found, its objective, and one objective trace per restart."""

    design: BlockDesign
    objective: float
    traces: tuple[tuple[float, ...], ...]


def _objective(cfg: SearchConfig, d: BlockDesign) -> float:
    """The exact objective of d."""
    a_cc, a_tt, a_ct = criteria.a_criteria(criteria.intrablock(d), d, cfg.aug)
    return cfg.w_cc * a_cc + cfg.w_tt * a_tt + cfg.w_ct * a_ct


def _random_connected(b: int, v: int, k: int, rng: random.Random) -> BlockDesign:
    """A uniform draw of the class that is connected, or, when
    START_ATTEMPTS draws all fail, `_spanning_start` from the same rng."""
    for _ in range(START_ATTEMPTS):
        blocks = tuple(
            tuple(sorted(rng.randrange(1, v + 1) for _ in range(k))) for _ in range(b)
        )
        d = BlockDesign(v, blocks)
        if is_connected(d):
            return d
    return _spanning_start(b, v, k, rng)


def _spanning_start(b: int, v: int, k: int, rng: random.Random) -> BlockDesign:
    """A connected design built on a random spanning tree of the
    treatment-block graph, with the remaining plots filled uniformly.

    The blocks join the tree in random order. Each block after the first
    links to a random treatment already in the tree, and every block then
    takes treatments not yet in the tree, in random order, while it has
    room. That places k + (b - 1)(k - 1) treatments at most, which is at
    least v whenever the b k plots pass `can_connect`.
    """
    fresh = rng.sample(range(1, v + 1), v)
    placed: list[int] = []
    blocks: list[list[int]] = [[] for _ in range(b)]
    for j in rng.sample(range(b), b):
        if placed:
            blocks[j].append(rng.choice(placed))
        while fresh and len(blocks[j]) < k:
            placed.append(fresh.pop())
            blocks[j].append(placed[-1])
    for block in blocks:
        block += [rng.randrange(1, v + 1) for _ in range(k - len(block))]
    return BlockDesign(v, tuple(tuple(sorted(block)) for block in blocks))


def _batch(
    cfg: SearchConfig, d: BlockDesign, o_from: int, t_from: int, o_to: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The moves of a pass on d from occurrence o_from (index j k + pos)
    and label t_from on, up to occurrence o_to (the end of the pass by
    default), in scan order: each move's occurrence index, label and
    screened objective from d's memoized P = C+, for every t != a,
    connected or not."""
    k = len(d.blocks[0])
    labels = np.asarray(d.blocks).reshape(-1)[o_from:o_to]
    keep = labels[:, None] != np.arange(1, d.v + 1)  # every t != a of each occurrence
    keep[:1, : t_from - 1] = False
    o, t = np.nonzero(keep)
    a = labels[o] - 1
    o += o_from
    weights = (cfg.w_cc, cfg.w_tt, cfg.w_ct)
    with np.errstate(all="ignore"):  # a disconnecting move may divide by zero
        screened = criteria.exchange_objective(
            criteria.intrablock(d).c_plus, d.incidence.astype(float), k, cfg.aug.counts(d.b), weights, o // k, a, t
        )
    return o, t + 1, screened


def _candidate(d: BlockDesign, o: int, t: int) -> BlockDesign:
    """d with occurrence o (index j k + pos) replaced by label t. Its
    incidence and replications are d's with one count moved from a to t,
    stored as the cached properties would store them."""
    j, pos = divmod(o, len(d.blocks[0]))
    block = d.blocks[j]
    a = block[pos]
    cand = BlockDesign(d.v, d.blocks[:j] + (tuple(sorted(block[:pos] + block[pos + 1 :] + (t,))),) + d.blocks[j + 1 :])
    n = d.incidence.copy()
    n[a - 1, j] -= 1
    n[t - 1, j] += 1
    n.setflags(write=False)
    r = list(d.replications)
    r[a - 1] -= 1
    r[t - 1] += 1
    cand.__dict__.update(incidence=n, replications=tuple(r), block_sizes=d.block_sizes)
    return cand


def _improvement_pass(
    cfg: SearchConfig, d: BlockDesign, obj: float, trace: list[float]
) -> tuple[BlockDesign, float, bool]:
    """One full first-improvement scan over the occurrences (j, pos) and
    labels t; the design may change mid-scan, after which the scan of the
    same occurrence goes on from t + 1, in a new batch on the new design.
    Each batch screens the chunk of occurrences the module docstring
    describes."""
    k = len(d.blocks[0])
    widest = max(1, MAX_BATCH_MOVES // d.v)
    first = min(-(-FIRST_CHUNK_MOVES // d.v), widest)
    improved = False
    o_from, t_from, width = 0, 1, first
    while o_from < d.b * k:
        limit = obj - MOVE_TOL + SCREEN_TOL * max(1.0, abs(obj))
        o_to = min(d.b * k, o_from + width)
        moves, labels, screened = _batch(cfg, d, o_from, t_from, o_to)
        for i in np.flatnonzero(~(screened >= limit)):  # NaN is confirmed too
            o, t = int(moves[i]), int(labels[i])
            cand = _candidate(d, o, t)
            try:
                cand_obj = _objective(cfg, cand)
            except Disconnected:
                continue
            if cand_obj < obj - MOVE_TOL:
                d, obj = cand, cand_obj
                trace.append(obj)
                improved = True
                o_from, t_from, width = o, t + 1, first
                break
        else:
            o_from, t_from, width = o_to, 1, min(2 * width, widest)
    return d, obj, improved


def exchange_search(b: int, v: int, k: int, cfg: SearchConfig) -> SearchResult:
    """Search the class of b blocks of size k on v treatments for a
    connected design with small weighted A-criteria. A class with v, b or
    k above `criteria.MAX_ORDER` is rejected before the first draw."""
    if b < 2 or v < 2 or k < 1:
        raise InvalidParameters(f"need b >= 2, v >= 2 and k >= 1; got ({b}, {v}, {k})")
    if not can_connect(v, b, b * k):
        raise NoConnectedStart(
            f"no design in ({b}, {v}, {k}) is connected: linking {v} treatments and "
            f"{b} blocks takes at least {v + b - 1} plots, the class has {b * k}"
        )
    criteria.check_order(v, b)
    if k > criteria.MAX_ORDER:
        raise InvalidParameters(f"blocks of {k} plots: sizes above {criteria.MAX_ORDER} are not searched")
    best_design: BlockDesign | None = None
    best_obj = math.inf
    traces: list[tuple[float, ...]] = []
    for restart in range(cfg.restarts):
        rng = random.Random(cfg.rng_seed * 1_000_003 + restart)
        d = _random_connected(b, v, k, rng)
        obj = _objective(cfg, d)
        trace = [obj]
        for _ in range(cfg.max_passes):
            d, obj, improved = _improvement_pass(cfg, d, obj, trace)
            if not improved:
                break
        traces.append(tuple(trace))
        if obj < best_obj - MOVE_TOL:
            best_design, best_obj = d, obj
    assert best_design is not None
    return SearchResult(design=best_design, objective=best_obj, traces=tuple(traces))
