"""The benchmark's workloads: inputs made from the workload seed, one round
of timed closed-loop calls into augdes, and a check on every result.

Each workload builds its inputs once (`build`), then runs rounds. A round
is a fixed schedule of operations; every operation is timed on its own
and checked afterwards, outside the timed region. Only the inputs that the
seed generates reach the package. `augdes` must be importable before this
module is imported.
"""

from __future__ import annotations

import json
import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from augdes import bounds, cli, criteria, design, oracle, search
from augdes.design import AugmentationSpec, BlockDesign

ONE = AugmentationSpec.common(1)
REL_TOL = 1e-9

# Golden A-efficiency triples (cc, tt conservative, ct) of the acceptance
# suite, checked to 0.0015 on every common-count report.
GOLDEN = {
    "lattice_bib(5)": (1.000, 0.999, 0.996), "lattice_q5": (1.000, 0.999, 0.996),
    "dual(lattice_bib(5))": (0.995, 1.000, 0.996), "lattice_q5_dual": (0.995, 1.000, 0.996),
}
GOLDEN_TOL = 0.0015

# Frozen minima of the (5,4,2) class at s=1, as pinned by tests/test_acceptance.py.
FROZEN_542 = {
    "a_cc": 1.3333333333333333, "a_tt": 3.425, "a_ct": 2.175,
    "mv_cc": 1.7142857142857142, "mv_tt": 3.75, "mv_ct": 2.8125,
}
FROZEN_542_CONNECTED = 574


@dataclass
class Sample:
    """One timed operation: its schedule slot, latency, work and check failures.

    `gated` is False for a slot whose few long repeats per run are too
    noisy for the gated metrics; it is still timed, checked and printed.
    """

    kind: str
    seconds: float
    failures: list[str]
    work: dict[str, float] = field(default_factory=dict)
    gated: bool = True
    slow: float = 1.0  # host slowdown probed around the call


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def timed(fn, *args, **kwargs):
    """Call fn once; return (result, seconds, error text or None)."""
    start = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # a raising operation is counted as failed
        return None, time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    return result, time.perf_counter() - start, None


def connected(v: int, blocks) -> bool:
    """Independent check that a design's treatment-block graph is connected."""
    parent = list(range(v + len(blocks)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for j, block in enumerate(blocks):
        for label in block:
            parent[find(v + j)] = find(label - 1)
    return len({find(x) for x in range(v + len(blocks))}) == 1


def equal_json(got, want, path="") -> list[str]:
    """Differences between two JSON values, numbers compared relatively."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        return [d for key in want for d in equal_json(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: lists differ"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in equal_json(g, w, f"{path}[{i}]")]
    if isinstance(want, float) or isinstance(got, float):
        return [] if close(float(got), float(want)) else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


class Workload:
    """Base: subclasses set the schedule and implement build, run_round and the CLI probe."""

    name = ""
    unit_label = "operation"

    def __init__(self, seed: int, root: Path, tiny: bool):
        self.seed = seed
        self.root = root
        self.tiny = tiny
        self.eff_values: list[float] = []  # quality of the first round's results
        self.counters: Counter = Counter()  # layer counts read from the results

    def rng(self, round_index: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{round_index}")

    def build(self) -> None:
        raise NotImplementedError

    def run_round(self, r: int, on_op) -> list[Sample]:
        raise NotImplementedError

    def cli_args(self) -> list[str] | None:
        """Arguments of the CLI probe; None when there is no in-process result to compare with."""
        raise NotImplementedError

    def check_cli(self, stdout: str) -> list[str]:
        raise NotImplementedError


class Catalogue(Workload):
    """Full `cli.build_report` for each fixed design at s=1, s=3 and a seeded per-block list."""

    name = "catalogue"
    unit_label = "report"
    LATTICES = (2, 3, 5, 7, 11, 13)
    S_LIST_MAX = 4

    def build(self) -> None:
        lattices = (2, 3) if self.tiny else self.LATTICES
        files = sorted((self.root / "designs").glob("*.design"))
        if self.tiny:
            files = [f for f in files if f.stem == "lattice_q5"]
        self.designs: list[tuple[str, BlockDesign]] = []
        for q in lattices:
            d = design.lattice_bib(q)
            self.designs.append((f"lattice_bib({q})", d))
            self.designs.append((f"dual(lattice_bib({q}))", design.dual(d)))
        for path in files:
            self.designs.append((path.stem, design.read_design(path)))
        self.cli_reference: dict | None = None

    def run_round(self, r: int, on_op) -> list[Sample]:
        rng = self.rng(r)
        samples = []
        for name, built in self.designs:
            # a fresh object per round, so nothing cached on the object survives a round
            d = BlockDesign(built.v, built.blocks)
            s_list = tuple(rng.randint(1, self.S_LIST_MAX) for _ in range(d.b))
            for label, aug in (("s=1", ONE), ("s=3", AugmentationSpec.common(3)),
                               ("s_list", AugmentationSpec.per_block(s_list))):
                with on_op():
                    doc, seconds, error = timed(cli.build_report, d, aug, name)
                failures = [error] if error else self.check_report(name, d, aug, doc)
                samples.append(Sample(f"{name}/{label}", seconds, failures))
                if doc is not None and r == 0:
                    eff = doc.eff
                    self.eff_values.append(min(eff.eff_cc, eff.eff_tt_conservative, eff.eff_ct))
                if doc is not None and name == "lattice_q5" and label == "s=1":
                    self.cli_reference = doc.to_json_dict()
        return samples

    @staticmethod
    def check_report(name: str, d: BlockDesign, aug: AugmentationSpec, doc) -> list[str]:
        failures = []
        crit, eff = doc.criteria, doc.eff
        values = (crit.a_cc, crit.a_tt, crit.a_ct, crit.mv_cc, crit.mv_tt, crit.mv_ct)
        if not all(math.isfinite(x) and x > 0 for x in values):
            return [f"{name}: criteria not finite and positive: {values}"]
        _, att_1, act_1 = bounds.a_bounds(d.b, d.v, doc.k, ONE)
        pairs = (
            ("a_cc", crit.a_cc, doc.acc_bound), ("a_tt", crit.a_tt, doc.att_bound),
            ("a_ct", crit.a_ct, doc.act_bound), ("mv_cc", crit.mv_cc, doc.acc_bound),
            ("mv_tt", crit.mv_tt, att_1), ("mv_ct", crit.mv_ct, act_1),
        )
        for label, value, bound in pairs:
            if bound > value and not close(bound, value):
                failures.append(f"{name} s={aug.describe()}: {label} bound {bound!r} above {value!r}")
        if aug.is_common and name in GOLDEN:
            got = (eff.eff_cc, eff.eff_tt_conservative, eff.eff_ct)
            if any(abs(g - w) > GOLDEN_TOL for g, w in zip(got, GOLDEN[name])):
                failures.append(f"{name}: efficiencies {got} differ from golden {GOLDEN[name]}")
        reps = set(d.replications)
        if aug.is_common and len(reps) == 1:
            failures += Catalogue.check_identities(name, d, reps.pop(), doc.k, aug.s, crit)
        return failures

    @staticmethod
    def check_identities(name, d, r, k, s, crit) -> list[str]:
        """The equireplicate trace identities, recovered from the reported
        A-criteria through their closed trace forms:
            tr(C_dual+) = (r/k) tr(C+) + (b - v)/k
            sandwich    = (v/b) tr(C_dual+) - (b - 1)/r
        """
        b, v = d.b, d.v
        t_c = crit.a_cc * (v - 1) / 2.0
        t_dual = (crit.a_tt / 2.0 - 1.0) * (b * s - 1.0) / s
        sandwich = v * (crit.a_ct - 1.0 - 1.0 / r - t_dual / b)
        failures = []
        if not close(t_dual, (r / k) * t_c + (b - v) / k):
            failures.append(f"{name} s={s}: first trace identity fails")
        if not close(sandwich, (v / b) * t_dual - (b - 1) / r, rel=1e-7):
            failures.append(f"{name} s={s}: second trace identity fails")
        return failures

    def cli_args(self) -> list[str]:
        return ["eval", "designs/lattice_q5.design", "--format", "json"]

    def check_cli(self, stdout: str) -> list[str]:
        if self.cli_reference is None:
            return ["no in-process report of designs/lattice_q5.design to compare with"]
        got = json.loads(stdout)
        want = dict(self.cli_reference)
        got.pop("provenance", None)
        want.pop("provenance", None)
        return equal_json(got, want)


class Search(Workload):
    """`search.exchange_search` with weights (1,1,1), s=1, one restart, on seeded rng seeds."""

    name = "search"
    unit_label = "search"
    # Capping the passes keeps the candidates per search nearly constant, so
    # the wall time measures the cost per candidate; with the default cap of
    # 50 the number of passes varies with the start design and the spread
    # between workload seeds is wider than the bounds.
    MAX_PASSES = 2
    # 2 small and 5 medium searches per round, so the median call is a
    # (12,6,3) one rather than the edge between two classes. The one large
    # search takes several seconds, so a run holds only a few of it: it is
    # timed, checked and printed, but left out of the gated metrics.
    A, B, LARGE = (10, 5, 3), (12, 6, 3), (20, 10, 4)
    SCHEDULE = (A, B, B, A, B, B, B, LARGE)

    def build(self) -> None:
        self.schedule = (self.A, self.B, self.LARGE) if self.tiny else self.SCHEDULE
        self.first_small: tuple[int, object] | None = None

    def run_round(self, r: int, on_op) -> list[Sample]:
        rng = self.rng(r)
        samples = []
        for b, v, k in self.schedule:
            cfg = search.SearchConfig(
                w_cc=1.0, w_tt=1.0, w_ct=1.0, aug=ONE, restarts=1,
                max_passes=self.MAX_PASSES, rng_seed=rng.randrange(2**31),
            )
            with on_op():
                result, seconds, error = timed(search.exchange_search, b, v, k, cfg)
            failures = [error] if error else self.check_result(b, v, k, cfg, result)
            samples.append(Sample(f"({b},{v},{k})", seconds, failures, gated=(b, v, k) != self.LARGE))
            if result is None:
                continue
            self.counters["search.accepted_moves"] += sum(len(t) - 1 for t in result.traces)
            if r == 0:
                eff = bounds.efficiencies(result.design, ONE)
                self.eff_values.append(min(eff.eff_cc, eff.eff_tt_conservative, eff.eff_ct))
                if self.first_small is None and (b, v, k) == self.A:
                    self.first_small = (cfg.rng_seed, result)
        return samples

    @staticmethod
    def check_result(b, v, k, cfg, result) -> list[str]:
        d = result.design
        label = f"({b},{v},{k}) seed {cfg.rng_seed}"
        if d.v != v or d.b != b or any(len(blk) != k for blk in d.blocks):
            return [f"{label}: design outside the class"]
        if any(not 1 <= x <= v for blk in d.blocks for x in blk):
            return [f"{label}: label outside 1..{v}"]
        if not connected(v, d.blocks):
            return [f"{label}: design is disconnected"]
        failures = []
        ib = criteria.intrablock(d)
        objective = sum(w * a for w, a in zip((cfg.w_cc, cfg.w_tt, cfg.w_ct), criteria.a_criteria(ib, d, cfg.aug)))
        if not close(objective, result.objective):
            failures.append(f"{label}: objective {result.objective!r}, recomputed {objective!r}")
        for trace in result.traces:
            if any(later >= earlier for earlier, later in zip(trace, trace[1:])):
                failures.append(f"{label}: objective trace does not strictly decrease")
        if not close(min(t[-1] for t in result.traces), result.objective):
            failures.append(f"{label}: objective is not the best trace end")
        return failures

    def cli_args(self) -> list[str] | None:
        if self.first_small is None:
            return None
        seed, _ = self.first_small
        return ["search", "--b", "10", "--v", "5", "--k", "3", "--weights", "1,1,1",
                "--seed", str(seed), "--restarts", "1", "--max-passes", str(self.MAX_PASSES)]

    def check_cli(self, stdout: str) -> list[str]:
        _, result = self.first_small
        head, _, rest = stdout.partition("\n")
        if not head.startswith("objective: "):
            return [f"unexpected search output {head!r}"]
        failures = []
        if not close(float(head.split()[1]), result.objective, rel=1e-8):
            failures.append(f"CLI objective {head} differs from {result.objective!r}")
        design_text = rest.partition("\n")[2]
        if design_text != design.format_design(result.design):
            failures.append("CLI design differs from the in-process search")
        return failures


class Oracle(Workload):
    """`oracle.verify_design` and `oracle.class_minima` in a seeded order."""

    name = "oracle"
    unit_label = "oracle call"

    def build(self) -> None:
        self.q5 = q5 = design.lattice_bib(5)
        self.ops: list[tuple[str, str, tuple]] = [
            ("verify lattice_bib(5) s=1", "verify", (q5, ONE)),
        ]
        if not self.tiny:
            q7 = design.lattice_bib(7)
            self.ops += [
                ("verify dual(lattice_bib(5)) s=1", "verify", (design.dual(q5), ONE)),
                ("verify lattice_bib(7) s=1", "verify", (q7, ONE)),
            ]
        for path in sorted((self.root / "designs").glob("derived_*.design")):
            self.ops.append((f"verify {path.stem} s=2", "verify", (design.read_design(path), AugmentationSpec.common(2))))
            if self.tiny:
                break
        for cls in ((5, 4, 2),) if self.tiny else ((5, 4, 2), (6, 4, 2)):
            self.ops.append((f"class_minima{cls}", "minima", cls))

    def run_round(self, r: int, on_op) -> list[Sample]:
        order = list(self.ops)
        self.rng(r).shuffle(order)
        samples = []
        for label, kind, args in order:
            if kind == "verify":
                d, aug = args
                plots = sum(d.block_sizes) + aug.total(d.b)
                with on_op():
                    rep, seconds, error = timed(oracle.verify_design, d, aug, max_plots=max(plots, oracle.DEFAULT_PLOT_CAP))
                failures = [error] if error else self.check_verify(label, d, aug, rep)
                work = {"contrasts": rep.n_contrasts} if rep else {}
            else:
                with on_op():
                    res, seconds, error = timed(oracle.class_minima, *args, ONE)
                failures = [error] if error else self.check_minima(args, res)
                work = {"designs": res.n_designs} if res else {}
                if res is not None:
                    self.counters["oracle.class_minima.connected"] += res.n_connected
                    self.counters["oracle.class_minima.designs"] += res.n_designs
                    if r == 0:
                        acc, att, act = bounds.a_bounds(*args, ONE)
                        m = res.minima
                        self.eff_values.append(min(acc / m["a_cc"], att / m["a_tt"], act / m["a_ct"]))
            samples.append(Sample(label, seconds, failures, work))
        return samples

    @staticmethod
    def closed_count(d: BlockDesign, aug: AugmentationSpec) -> int:
        tests = aug.total(d.b)
        return math.comb(d.v, 2) + math.comb(tests, 2) + d.v * tests

    def check_verify(self, label, d, aug, rep) -> list[str]:
        failures = []
        if not rep.max_deviation <= 1e-6:
            failures.append(f"{label}: max deviation {rep.max_deviation:.3e} above 1e-6")
        if rep.n_contrasts != self.closed_count(d, aug):
            failures.append(f"{label}: {rep.n_contrasts} contrasts, expected {self.closed_count(d, aug)}")
        return failures

    @staticmethod
    def check_minima(cls, res) -> list[str]:
        b, v, k = cls
        failures = []
        expected = math.comb(math.comb(v + k - 1, k) + b - 1, b)
        if res.n_designs != expected:
            failures.append(f"{cls}: {res.n_designs} designs enumerated, expected {expected}")
        if set(res.minima) != set(FROZEN_542):
            return failures + [f"{cls}: minima for {sorted(res.minima)}"]
        if cls == (5, 4, 2):
            if res.n_connected != FROZEN_542_CONNECTED:
                failures.append(f"{cls}: {res.n_connected} connected, frozen {FROZEN_542_CONNECTED}")
            for name, want in FROZEN_542.items():
                if not close(res.minima[name], want):
                    failures.append(f"{cls}: min {name} {res.minima[name]!r} != frozen {want!r}")
        acc, att, act = bounds.a_bounds(b, v, k, ONE)
        for name, bound in zip(oracle.CRITERION_NAMES, (acc, att, act, acc, att, act)):
            if bound > res.minima[name] and not close(bound, res.minima[name]):
                failures.append(f"{cls}: min {name} {res.minima[name]!r} below bound {bound!r}")
        for name, d in res.argmin.items():
            if d.b != b or d.v != v or any(len(blk) != k for blk in d.blocks) or not connected(v, d.blocks):
                failures.append(f"{cls}: argmin of {name} is not a connected design of the class")
        return failures

    def cli_args(self) -> list[str]:
        return ["verify", "designs/lattice_q5.design", "--s", "1", "--format", "json"]

    def check_cli(self, stdout: str) -> list[str]:
        got = json.loads(stdout)
        failures = []
        if not got["max_deviation"] <= 1e-6:
            failures.append(f"CLI verify max deviation {got['max_deviation']!r}")
        if got["n_contrasts"] != self.closed_count(self.q5, ONE):
            failures.append(f"CLI verify checked {got['n_contrasts']} contrasts")
        return failures


WORKLOADS = {w.name: w for w in (Catalogue, Search, Oracle)}
