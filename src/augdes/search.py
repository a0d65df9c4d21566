"""Exchange-search heuristic over a design class.

Minimizes a weighted sum of the three average-variance criteria by
repeatedly replacing a single treatment occurrence in a single block,
accepting the first strict improvement found in a fixed scan order, from
random connected restarts. Fully deterministic for a fixed seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from . import criteria
from .design import AugmentationSpec, BlockDesign, is_connected
from .errors import InvalidParameters, NoConnectedStart

# Objective values closer than this are ties. A move must improve by more,
# which prevents cycling through numerically equal designs; across restarts,
# and in oracle.class_minima, the earliest of tied designs wins, so rounding
# noise in the criteria never picks the result.
MOVE_TOL = 1e-12
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
    for _ in range(START_ATTEMPTS):
        blocks = tuple(
            tuple(sorted(rng.randrange(1, v + 1) for _ in range(k))) for _ in range(b)
        )
        d = BlockDesign(v, blocks)
        if is_connected(d):
            return d
    raise NoConnectedStart(f"no connected start in {START_ATTEMPTS} draws for ({b}, {v}, {k})")


def _improvement_pass(
    cfg: SearchConfig, d: BlockDesign, obj: float, trace: list[float]
) -> tuple[BlockDesign, float, bool]:
    """One full first-improvement scan; the design may change mid-scan."""
    improved = False
    for j in range(d.b):
        for pos in range(len(d.blocks[j])):
            for t in range(1, d.v + 1):
                block = d.blocks[j]
                if block[pos] == t:
                    continue
                new_block = tuple(sorted(block[:pos] + (t,) + block[pos + 1 :]))
                cand = BlockDesign(d.v, d.blocks[:j] + (new_block,) + d.blocks[j + 1 :])
                if not is_connected(cand):
                    continue
                cand_obj = _objective(cfg, cand)
                if cand_obj < obj - MOVE_TOL:
                    d, obj = cand, cand_obj
                    trace.append(obj)
                    improved = True
    return d, obj, improved


def exchange_search(b: int, v: int, k: int, cfg: SearchConfig) -> SearchResult:
    """Search the class of b blocks of size k on v treatments for a
    connected design with small weighted A-criteria."""
    if b < 2 or v < 2 or k < 1:
        raise InvalidParameters(f"need b >= 2, v >= 2 and k >= 1; got ({b}, {v}, {k})")
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
