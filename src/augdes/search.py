"""Exchange-search heuristic over a design class.

Minimizes a weighted sum of the three average-variance criteria by
repeatedly replacing a single treatment occurrence in a single block,
accepting the first strict improvement found in a fixed scan order, from
random connected restarts. Fully deterministic for a fixed seed.

The replacements of one occurrence are screened together, as one
integer stack of their incidences. `design.stacked_connected` masks out
the members that would leave the design disconnected, and the rest are
scored by `criteria.stacked_a_criteria`, which takes one stacked inverse
of order v and gets the dual inverse from the identity
Q = Pi_b (I/k + N^T P N / k^2) Pi_b, with no design object per candidate.
The screen only filters. Walking the batch in scan order, a candidate
whose screened objective lies below the acceptance limit plus SCREEN_TOL
is built and scored by the same exact objective as a start design, and
the acceptance rule sees only that exact value; after an accepted move
the scan goes on from the next label on the new design. Since the screen
agrees with the exact objective far more closely than SCREEN_TOL, no
candidate that the exact objective would accept is ever filtered out, so
designs, objectives and traces are the same, bit for bit, as when every
candidate is scored exactly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from . import criteria
from .design import AugmentationSpec, BlockDesign, can_connect, is_connected, stacked_connected
from .errors import InvalidParameters, NoConnectedStart

# Objective values closer than this are ties. A move must improve by more,
# which prevents cycling through numerically equal designs; across restarts,
# and in oracle.class_minima, the earliest of tied designs wins, so rounding
# noise in the criteria never picks the result.
MOVE_TOL = 1e-12
# A screened objective is confirmed exactly when it lies below the
# acceptance limit plus this margin, relative to the objective's scale; the
# screen agrees with the exact objective to about 1e-15 relative.
SCREEN_TOL = 1e-9
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
    ib = criteria.intrablock(d)
    a_cc, a_tt, a_ct = criteria.a_criteria(ib, d, cfg.aug)
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


def _screen(
    cfg: SearchConfig, d: BlockDesign, j: int, pos: int, t_from: int
) -> tuple[list[int], np.ndarray]:
    """The labels t >= t_from, other than the one at `pos` of block j, whose
    replacement of that occurrence leaves d connected, in label order, and
    the screened objectives of those replacements."""
    a = d.blocks[j][pos]
    ts = np.arange(t_from, d.v + 1)
    ts = ts[ts != a]
    n = np.repeat(d.incidence[None, :, :], len(ts), axis=0)
    n[:, a - 1, j] -= 1
    n[np.arange(len(ts)), ts - 1, j] += 1
    keep = stacked_connected(n)
    if not keep.any():
        return [], np.empty(0)
    n = n[keep].astype(float)
    a_cc, a_tt, a_ct = criteria.stacked_a_criteria(n, len(d.blocks[j]), cfg.aug.counts(d.b))
    return ts[keep].tolist(), cfg.w_cc * a_cc + cfg.w_tt * a_tt + cfg.w_ct * a_ct


def _first_improvement(
    cfg: SearchConfig, d: BlockDesign, obj: float, j: int, pos: int, t_from: int
) -> tuple[int, BlockDesign, float] | None:
    """The first t >= t_from, in label order, whose replacement of the
    occurrence at `pos` of block j improves on obj by more than MOVE_TOL,
    with the new design and its exact objective; None when there is none."""
    rest = d.blocks[j][:pos] + d.blocks[j][pos + 1 :]
    limit = obj - MOVE_TOL + SCREEN_TOL * max(1.0, abs(obj))
    for t, screened in zip(*_screen(cfg, d, j, pos, t_from)):
        if screened >= limit:  # False for NaN, which is confirmed too
            continue
        cand = BlockDesign(d.v, d.blocks[:j] + (tuple(sorted(rest + (t,))),) + d.blocks[j + 1 :])
        cand_obj = _objective(cfg, cand)
        if cand_obj < obj - MOVE_TOL:
            return t, cand, cand_obj
    return None


def _improvement_pass(
    cfg: SearchConfig, d: BlockDesign, obj: float, trace: list[float]
) -> tuple[BlockDesign, float, bool]:
    """One full first-improvement scan; the design may change mid-scan,
    after which the scan of the same block position goes on from t + 1."""
    improved = False
    for j in range(d.b):
        for pos in range(len(d.blocks[j])):
            t_from = 1
            while (move := _first_improvement(cfg, d, obj, j, pos, t_from)) is not None:
                t, d, obj = move
                trace.append(obj)
                improved = True
                t_from = t + 1
    return d, obj, improved


def exchange_search(b: int, v: int, k: int, cfg: SearchConfig) -> SearchResult:
    """Search the class of b blocks of size k on v treatments for a
    connected design with small weighted A-criteria."""
    if b < 2 or v < 2 or k < 1:
        raise InvalidParameters(f"need b >= 2, v >= 2 and k >= 1; got ({b}, {v}, {k})")
    if not can_connect(v, b, b * k):
        raise NoConnectedStart(
            f"no design in ({b}, {v}, {k}) is connected: linking {v} treatments and "
            f"{b} blocks takes at least {v + b - 1} plots, the class has {b * k}"
        )
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
