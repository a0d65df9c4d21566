"""Exchange-search heuristic over a design class.

Minimizes a weighted sum of the three average-variance criteria by
repeatedly replacing a single treatment occurrence in a single block,
accepting the first strict improvement found in a fixed scan order, from
random connected restarts. Fully deterministic for a fixed seed.

A pass is screened in batches from the exact P = C+ of the design its
scan is on: a move changes C by a symmetric rank-2 term, so
`criteria.exchange_objective` scores each move of a batch by a Woodbury
update, with no inverse and no design object per move. With est the
objective of that design, a move screened at or above est - MOVE_TOL +
SCREEN_TOL max(1, |est|) is passed over. Any other move, NaN included,
is a candidate: it is built from its parent's incidence and
replications, and skipped if it disconnects the design.

Exact scores run in stacks. A candidate screened below est - MOVE_TOL -
SCREEN_TOL max(1, |est|) becomes a link: its P is inverted alone and the
scan goes on at once on its design, from the next label, with its
screened value as est. At CHAIN links, at the end of the pass, and at a
doubtful candidate (NaN, or within the band below the limit) the pending
links and the doubtful one are flushed: scored exactly in one stacked
call and accepted in scan order while they improve on the last accepted
design by more than MOVE_TOL. At the first one rejected the pass rolls
back to the last accepted design and goes on from that move's next
label; when it is the last of the flush, its batch was screened on that
design and goes on. A move is the triple (block, label out, label in),
so the copies of a label in a block give one move, and a move rejected
on a design is not built again on it in that pass.

A batch covers a chunk of whole occurrences, about FIRST_CHUNK_MOVES
moves at first and after each link or accepted move, twice the last
chunk after a chunk with none, and never more than MAX_BATCH_MOVES
moves, so a pass that improves often does not screen its whole rest
after every move.

Each move's screened value is computed elementwise from products of its
design's P, incidence and counts, so it is the same whichever chunk,
batch or chain holds it. Every P is the one `criteria.intrablock`
computes alone, each member of a stacked score gets the bits `_objective`
gives it alone, and one that scores NaN is scored again alone when the
scan reaches it, so it raises what scoring it alone raises. So designs,
objectives and traces are those of scoring one candidate at a time, bit
for bit (`tests/references.py`), but for a move screened within the
screen's error of a limit taken from a link's screened value in place of
its exact one. The screen agrees with the exact objective to about 1e-14
relative, far more closely than SCREEN_TOL, so such a move fails either
way, and the result is also that of scoring every move exactly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from . import criteria
from .design import AugmentationSpec, BlockDesign, can_connect, is_connected
from .errors import InvalidParameters, NoConnectedStart
from .matrix import BLOCK_ORDER, mp_inverse_centered

# Objective values closer than this are ties. A move must improve by more,
# which prevents cycling through numerically equal designs; across restarts,
# and in oracle.class_minima, the earliest of tied designs wins, so rounding
# noise in the criteria never picks the result.
MOVE_TOL = 1e-12
# A screened objective is confirmed exactly when it lies below the
# acceptance limit plus this margin, relative to the objective's scale, and
# the scan goes on past it before its exact score when it lies below the
# limit less this margin; the screen agrees with the exact objective to
# about 1e-14 relative.
SCREEN_TOL = 1e-9
# A pass is screened in chunks of whole occurrences: about this many moves
# at first and after each link or accepted move, twice as many after each chunk
# with none, and at most MAX_BATCH_MOVES (at least one occurrence), which
# bounds the kernel's arrays.
FIRST_CHUNK_MOVES = 256
MAX_BATCH_MOVES = 2**20
# A flush scores at most CHAIN candidates, and at most STACK_FLOATS //
# (v^2 + b^2): a stack saves numpy's per-call cost, but large stacks lose.
# Up to BLOCK_ORDER blocks numpy's product L^-T L^-1 of the C_dual stack is
# symmetric only on one matrix; above it Q comes from P with no inverse,
# and the stacked products of that identity still lose to single ones.
# Exact score per member alone / in stacks of 4 / of 16, one shared core:
# (30,25,5) 85/57/61 us, (56,49,7) 170/204/217, (132,121,11) 351/758/781.
# Whole searches were fastest at 2^14 of 2^13..2^15: (30,25,5), (48,40,5)
# and (56,49,7) chain 10, 4 and 2 candidates, and classes from order 90 on
# one. On the benchmark's search classes, all of chain 16, CHAIN = 16 and
# 32 measured alike, and both faster than 8.
CHAIN = 16
STACK_FLOATS = 2**14
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
    cfg: SearchConfig,
    d: BlockDesign,
    o_from: int,
    t_from: int,
    o_to: int | None = None,
    p: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The moves of a pass on d from occurrence o_from (index j k + pos)
    and label t_from on, up to occurrence o_to (the end of the pass by
    default), in scan order: each move's occurrence index, label and
    screened objective from d's P = C+ (its memoized one by default), for
    every t != a, connected or not."""
    k = len(d.blocks[0])
    labels = d.labels[o_from:o_to]
    keep = labels[:, None] != np.arange(1, d.v + 1)  # every t != a of each occurrence
    keep[:1, : t_from - 1] = False
    o, t = np.nonzero(keep)
    a = labels[o] - 1
    o += o_from
    weights = (cfg.w_cc, cfg.w_tt, cfg.w_ct)
    if p is None:
        p = criteria.intrablock(d).c_plus
    with np.errstate(all="ignore"):  # a disconnecting move may divide by zero
        screened = criteria.exchange_objective(
            p, d.incidence.astype(float), k, cfg.aug.counts(d.b), weights, o // k, a, t
        )
    return o, t + 1, screened


def _candidate(d: BlockDesign, o: int, t: int) -> BlockDesign:
    """d with occurrence o (index j k + pos) replaced by label t. Its
    labels, incidence and replications are d's with block j's labels
    replaced and one count moved from a to t, stored as the cached
    properties would store them."""
    k = len(d.blocks[0])
    j, pos = divmod(o, k)
    block = d.blocks[j]
    a = block[pos]
    new_block = tuple(sorted(block[:pos] + block[pos + 1 :] + (t,)))
    cand = BlockDesign(d.v, d.blocks[:j] + (new_block,) + d.blocks[j + 1 :])
    labels = d.labels.copy()
    labels[j * k : (j + 1) * k] = new_block
    labels.setflags(write=False)
    n = d.incidence.copy()
    n[a - 1, j] -= 1
    n[t - 1, j] += 1
    n.setflags(write=False)
    r = list(d.replications)
    r[a - 1] -= 1
    r[t - 1] += 1
    cand.__dict__.update(labels=labels, incidence=n, replications=tuple(r), block_sizes=d.block_sizes)
    return cand


def _connected(d: BlockDesign, cand: BlockDesign, o: int) -> bool:
    """Whether cand, the connected d with occurrence o replaced, is
    connected: at once when the label replaced occurs again in its block,
    since then every link of d's treatment-block graph stays, and by
    `is_connected` otherwise."""
    j, pos = divmod(o, len(d.blocks[0]))
    return d.incidence[d.blocks[j][pos] - 1, j] >= 2 or is_connected(cand)


@dataclass(eq=False)
class _Step:
    """A design of a pass with what its scan and its exact score read: its
    P = C+, inverted alone; est, the objective the screen's limits start
    from, its exact objective once accepted and its screened one while a
    link; the move (o, t) that made it from its parent; and the (block, a,
    t) moves rejected on it."""

    design: BlockDesign
    p: np.ndarray
    est: float
    o: int = -1
    t: int = 0
    rejected: set[tuple[int, int, int]] = field(default_factory=set)


def _step(cand: BlockDesign, o: int, t: int, est: float) -> _Step:
    """The connected candidate cand, made by move (o, t), with P = C+
    inverted alone from C as `criteria.intrablock` builds it."""
    r = np.asarray(cand.replications, dtype=float)
    c = criteria._primal_information(cand.incidence.astype(float), r, len(cand.blocks[0]))
    return _Step(cand, mp_inverse_centered(c), est, o, t)


def _exact_objectives(cfg: SearchConfig, members: list[_Step]) -> tuple[np.ndarray, np.ndarray]:
    """The exact objectives of connected steps, from their P, their
    Q = C_dual+ taken as `criteria._dual_plus` takes it (one inverse of
    the stack of their C_dual up to BLOCK_ORDER blocks,
    `criteria._dual_from_primal` of their P above) and `criteria._a_values`
    on the stack, and their Q, as a stack. Each member gets the bits
    `_objective` gives it alone; one that fails a check of an inverse
    scores NaN, and so does every member when the stack's factorization
    fails. A single step is scored as one design, not as a stack of one,
    which costs about 30 us more at every order."""
    parts = [(m.p, m.design.incidence, m.design.replications) for m in members]
    p, n, r = parts[0] if len(parts) == 1 else map(np.stack, zip(*parts))
    n_float, r, k = n.astype(float), np.asarray(r, dtype=float), len(members[0].design.blocks[0])
    if n.shape[-1] > BLOCK_ORDER:
        q = criteria._dual_from_primal(p, n_float, k)
    else:
        q = mp_inverse_centered(criteria._dual_information(n_float, r, k))
    a_cc, a_tt, a_ct = criteria._a_values(p, q, n, r, cfg.aug)
    values = cfg.w_cc * a_cc + cfg.w_tt * a_tt + cfg.w_ct * a_ct
    return np.reshape(values, -1), q.reshape(len(members), *q.shape[-2:])


def _move(d: BlockDesign, o: int, t: int) -> tuple[int, int, int]:
    """The move (block, label taken out, label put in) of occurrence o and label t on d."""
    j, pos = divmod(o, len(d.blocks[0]))
    return j, d.blocks[j][pos], t


def _improvement_pass(
    cfg: SearchConfig, d: BlockDesign, obj: float, trace: list[float]
) -> tuple[BlockDesign, float, bool]:
    """One full first-improvement scan over the occurrences (j, pos) and
    labels t; the design may change mid-scan, after which the scan of the
    same occurrence goes on from t + 1, in a new batch on the new design.
    The module docstring describes the batches, links, flushes and
    repeats."""
    end = d.b * len(d.blocks[0])
    widest = max(1, MAX_BATCH_MOVES // d.v)
    first = min(-(-FIRST_CHUNK_MOVES // d.v), widest)
    chain = max(1, min(CHAIN, STACK_FLOATS // (d.v**2 + d.b**2)))
    base = _Step(d, criteria.intrablock(d).c_plus, obj)  # the last accepted design
    links: list[_Step] = []
    improved = False

    def flush(members: list[_Step]) -> int:
        """Score members exactly and accept them in scan order; the index
        of the first one rejected, or len(members)."""
        nonlocal base, improved
        values, q = _exact_objectives(cfg, members)
        for i, m in enumerate(members):
            value = float(values[i])
            if math.isnan(value):
                value = _objective(cfg, m.design)  # alone, it raises or fills the memo
            if not value < base.est - MOVE_TOL:
                base.rejected.add(_move(base.design, m.o, m.t))
                return i
            if "_intrablock" not in m.design.__dict__:  # the memo `criteria.intrablock` would fill
                q_i = q[i].copy()
                m.p.setflags(write=False)
                q_i.setflags(write=False)
                m.design.__dict__["_intrablock"] = criteria.Intrablock(c_plus=m.p, c_dual_plus=q_i)
            m.est, base, improved = value, m, True
            trace.append(value)
        return len(members)

    o_from, t_from, width, batch = 0, 1, first, None
    while True:
        if o_from == end:
            if not links:
                break
            members, links = links, []
            rejected = flush(members)
            if rejected == len(members):
                break
            o_from, t_from, width = members[rejected].o, members[rejected].t + 1, first
            continue
        top = links[-1] if links else base
        if batch is None:
            o_to = min(end, o_from + width)
            batch = _batch(cfg, top.design, o_from, t_from, o_to, top.p)
        moves, labels, screened = batch
        batch = None
        limit, band = top.est - MOVE_TOL, SCREEN_TOL * max(1.0, abs(top.est))
        for i in np.flatnonzero(~(screened >= limit + band)):  # NaN is a candidate too
            o, t = int(moves[i]), int(labels[i])
            move = _move(top.design, o, t)
            if move in top.rejected:
                continue
            cand = _candidate(top.design, o, t)
            if not _connected(top.design, cand, o):
                top.rejected.add(move)
                continue
            step = _step(cand, o, t, float(screened[i]))
            if step.est < limit - band and len(links) + 1 < chain and not math.isnan(step.p[0, 0]):
                links.append(step)
                o_from, t_from, width = o, t + 1, first
                break
            members, links = links + [step], []
            rejected = flush(members)
            if rejected == len(members) - 1:  # only the last: the batch was screened on base
                if len(members) == 1:
                    continue  # and its limits stay
                batch = moves[i + 1 :], labels[i + 1 :], screened[i + 1 :]
                o_from, t_from = o, t + 1
            elif rejected < len(members):  # a link: roll back to base
                o_from, t_from, width = members[rejected].o, members[rejected].t + 1, first
            else:
                o_from, t_from, width = o, t + 1, first
            break
        else:
            o_from, t_from, width = o_to, 1, min(2 * width, widest)
    return base.design, base.est, improved


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
