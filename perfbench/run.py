"""Benchmark for augdes: closed-loop workloads, checked results, traced layers.

    python3 perfbench/run.py --workload catalogue --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seconds 35            # every workload
    python3 perfbench/run.py --workload oracle --seed 1 --trace 1   # per-layer pass

Runs from any directory; the package is imported from `src/` next to this
directory. One client calls the package from this one process and starts
the next call only when the previous one returns. A round is one pass over
the workload's fixed schedule; rounds repeat until the next one would end
after `--seconds`. Every result is checked outside the timed region.

With `--trace 0` the last line of standard output is a JSON object whose
`metrics` are the end-to-end metrics of BENCHMARK.json. With `--trace 1` the
rounds alternate untraced and traced over the same inputs; the metrics are
the per-layer ones, the span dump and the per-layer table go to
`perfbench/out/`, and the tracing overhead is the traced time minus the
untraced time. See perfbench/README.md for every metric.
"""

from __future__ import annotations

import os

# BLAS threads are pinned to one (never more than nproc) before numpy is
# first imported, here and in every child process, so matrix kernels do not
# compete with the single client.
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SRC = ROOT / "src"

SETUP_PROBES = 7
CLI_PER_ROUND = {"catalogue": 3, "search": 3, "oracle": 1}
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s", "op_p50_ms": "ms", "eff_mean": "ratio",
}
PER_LAYER_UNITS = {
    "matrix.invert.calls": "count", "matrix.invert.self_s": "s",
    "matrix.invert.max_order": "count", "matrix.invert.computed_flop": "flop",
    "matrix.mp_inverse_centered.calls": "count", "matrix.mp_inverse_centered.self_s": "s",
    "matrix.SymMatrix.calls": "count", "matrix.SymMatrix.self_s": "s",
    "design.is_connected.calls": "count", "design.is_connected.self_s": "s",
    "design.is_connected.true_ratio": "ratio", "design.construct.self_s": "s",
    "criteria.intrablock.calls": "count", "criteria.intrablock.self_s": "s",
    "criteria.intrablock.calls_per_report": "count",
    "criteria.a_criteria.calls": "count", "criteria.a_criteria.self_s": "s",
    "criteria.mv_criteria.calls": "count", "criteria.mv_criteria.self_s": "s",
    "bounds.efficiencies.calls": "count", "bounds.efficiencies.self_s": "s",
    "bounds.a_bounds.self_s": "s",
    "oracle.build_model.calls": "count", "oracle.build_model.self_s": "s",
    "oracle.gls_variance.calls": "count", "oracle.gls_variance.self_s": "s",
    "oracle.verify_design.self_s": "s",
    "oracle.enumerate_class.designs": "count", "oracle.enumerate_class.self_s": "s",
    "oracle.class_minima.connected_ratio": "ratio", "oracle.class_minima.self_s": "s",
    "search.candidates": "count", "search.accepted_moves": "count",
    "search.accept_ratio": "ratio", "search.exchange_search.self_s": "s",
    "cli.build_report.self_s": "s", "cli.import_s": "s",
    "fail_ratio": "ratio", "trace.overhead_s": "s", "trace.overhead_ratio": "ratio",
    "trace.rounds": "count",
}
CONSTRUCTORS = ("design.lattice_bib", "design.dual", "design.read_design")


def import_augdes() -> float:
    """Import the package from this checkout's src/ and return the seconds taken."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import augdes  # noqa: F401
    import augdes.cli  # noqa: F401
    seconds = time.perf_counter() - start
    if Path(augdes.__file__).resolve().parent != SRC / "augdes":
        raise SystemExit(f"augdes was imported from {augdes.__file__}, not from {SRC}")
    return seconds


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS}, "nproc": nproc, "cpu": cpu,
    }


def child(cmd: list[str]) -> tuple[float, subprocess.CompletedProcess | None, str | None]:
    """Run one child process to completion; return (seconds, process, error)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, None, f"timed out after {CHILD_TIMEOUT_S} s"
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        return seconds, proc, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    return seconds, proc, None


def setup_probe(args) -> dict:
    """Import and input build in a fresh interpreter, timed from inside it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    _, proc, error = child(cmd)
    if error:
        raise RuntimeError(f"setup probe failed: {error}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_cli(w) -> tuple[float, list[str]]:
    args = w.cli_args()
    if args is None:
        return 0.0, ["no in-process result to compare the CLI with"]
    seconds, proc, error = child([sys.executable, "-m", "augdes.cli", *args])
    if error:
        return seconds, [f"CLI {error}"]
    try:
        return seconds, w.check_cli(proc.stdout)
    except (ValueError, KeyError, IndexError) as exc:
        return seconds, [f"CLI output unreadable: {exc}"]


def quantile(values: list[float], pct: float) -> float:
    """Linear-interpolation percentile of a non-empty list."""
    xs = sorted(values)
    pos = pct / 100 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def per_kind(samples, rounds: int) -> dict:
    """For each kind of call: (median host-scaled seconds, calls per round, work).

    A kind is one schedule slot repeated every round (a report, an oracle
    call) or one search class.
    """
    by_kind = defaultdict(list)
    work = {}
    for s in samples:
        by_kind[s.kind].append(s.seconds / s.slow)
        work[s.kind] = s.work
    return {k: (statistics.median(v), len(v) // rounds, work[k]) for k, v in by_kind.items()}


def round_seconds(samples, rounds: int) -> float:
    """One round's time from the median time of each kind of call."""
    return sum(t * n for t, n, _ in per_kind(samples, rounds).values())


def summarize(samples, rounds: int) -> dict:
    """Latency and throughput figures of the timed calls, in reference-host
    time: each call's measured time divided by the host slowdown probed
    around it, then the median over the call's repeats in the run."""
    kinds = per_kind([s for s in samples if s.gated], rounds)

    def rate(unit: str | None) -> float:
        done = spent = 0.0
        for t, n, work in kinds.values():
            if unit is None or unit in work:
                done += n * (1 if unit is None else work[unit])
                spent += n * t
        return done / spent if spent > 0 else 0.0

    times = [t for t, n, _ in kinds.values() for _ in range(n)]
    ungated = per_kind([s for s in samples if not s.gated], rounds)
    lat = [s.seconds for s in samples]
    return {
        "slots": len(times), "p50_s": quantile(times, 50),
        "tail": tail([s.seconds / s.slow for s in samples if s.gated]),
        "ops_per_s": rate(None), "contrasts_per_s": rate("contrasts"), "designs_per_s": rate("designs"),
        "ungated": {kind: t for kind, (t, _, _) in ungated.items()},
        "n": len(lat), "raw_p50_s": quantile(lat, 50), "raw_tail": tail(lat),
    }


def tail(values: list[float]) -> tuple[float, float, int, int]:
    """(percentile, value, samples, samples beyond it) at the highest
    percentile, in steps of 0.1 up to 99.9, with at least ten samples
    beyond it; p50 when there are fewer than 20 samples."""
    pct = min(99.9, max(50.0, math.floor(1000 * (1 - 10 / len(values))) / 10))
    value = quantile(values, pct)
    return pct, value, len(values), sum(x > value for x in values)


class HostSpeed:
    """Speed of the shared host, probed around every timed call.

    The host runs in slower and faster regimes, lasting from seconds to
    minutes, that move every timing by up to a factor of two. A probe times
    a fixed kernel three times: a Gauss-Jordan inverse of an order-16
    matrix, written here in the style of the package's own kernels, so it
    does not change when the package does. The best of the three over
    REFERENCE_S is the slowdown at that moment. A call's slowdown is the
    mean of the probes just before and just after it.
    """

    REFERENCE_S = 5.0e-4  # best of three units on the development host, fast regime
    UNITS = 3

    def __init__(self):
        import numpy as np

        n = 16
        self.np = np
        self.a = np.fromfunction(lambda i, j: 1.0 / (1.0 + abs(i - j)), (n, n)) + n * np.eye(n)
        self.factors: list[float] = []  # one per call, in call order

    def _unit(self) -> float:
        np, n = self.np, self.a.shape[0]
        start = time.perf_counter()
        aug = np.hstack([self.a, np.eye(n)])
        for col in range(n):
            pivot = col + int(np.argmax(np.abs(aug[col:, col])))
            aug[[col, pivot]] = aug[[pivot, col]]
            aug[col] = aug[col] / aug[col, col]
            for row in range(n):
                if row != col:
                    aug[row] = aug[row] - aug[row, col] * aug[col]
        return time.perf_counter() - start

    def probe(self) -> float:
        return min(self._unit() for _ in range(self.UNITS)) / self.REFERENCE_S

    @contextlib.contextmanager
    def around(self):
        """Context for one timed call; records the call's slowdown."""
        before = self.probe()
        yield
        self.factors.append((before + self.probe()) / 2)

    def slowdown(self) -> float:
        """The run's median slowdown."""
        return statistics.median(self.factors)


def measure(args, w, tracer, host=None):
    """Run rounds until the next would overrun; return samples, CLI runs and trace figures."""
    samples, cli_runs, durations, plain, traced = [], [], [], [], []
    layer_counts = Counter()
    start = time.perf_counter()
    r = 0
    while True:
        began = time.perf_counter()
        if tracer is None:
            first = len(host.factors)
            done = w.run_round(r, host.around)
            for sample, factor in zip(done, host.factors[first:], strict=True):
                sample.slow = factor
            samples += done
            for _ in range(1 if args.tiny else CLI_PER_ROUND[w.name]):
                with host.around():
                    seconds, failures = run_cli(w)
                cli_runs.append((seconds, failures, host.factors[-1]))
        else:
            plain += w.run_round(r, contextlib.nullcontext)
            before = Counter(w.counters)
            tracer.install()
            traced += w.run_round(r, lambda: tracer.recording("bench.op"))
            tracer.uninstall()
            layer_counts += Counter(w.counters) - before
            samples = plain + traced
        durations.append(time.perf_counter() - began)
        r += 1
        if time.perf_counter() - start + durations[-1] > args.seconds:
            if tracer is None:
                return samples, cli_runs, r, None
            traced_s = round_seconds(traced, r)
            untraced_s = round_seconds(plain, r)
            return samples, cli_runs, r, (traced_s, untraced_s, layer_counts)


def layer_metrics(tracer, rounds, construct_s, import_s, fail_ratio, traced_s, untraced_s, counts):
    """Per-layer figures per traced round (construction and import: the set-up).

    traced_s and untraced_s are the seconds of one round with and without
    tracing, each from the median time of each kind of call; their
    difference is the tracing overhead.
    """
    calls, own = tracer.calls, tracer.self_time

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in ("matrix.invert", "matrix.mp_inverse_centered", "matrix.SymMatrix",
                 "design.is_connected", "criteria.intrablock", "criteria.a_criteria",
                 "criteria.mv_criteria", "bounds.efficiencies", "oracle.build_model",
                 "oracle.gls_variance"):
        m[f"{name}.calls"] = calls[name] / rounds
        m[f"{name}.self_s"] = own[name] / rounds
    for name in ("bounds.a_bounds", "oracle.verify_design", "oracle.enumerate_class",
                 "oracle.class_minima", "search.exchange_search", "cli.build_report"):
        m[f"{name}.self_s"] = own[name] / rounds
    candidates = tracer.nested[("search.exchange_search", "criteria.intrablock")]
    accepted = counts["search.accepted_moves"]
    m.update({
        "matrix.invert.max_order": tracer.counts["matrix.invert.max_order"],
        "matrix.invert.computed_flop": tracer.counts["matrix.invert.computed_flop"] / rounds,
        "design.is_connected.true_ratio": ratio(tracer.counts["design.is_connected.true"],
                                                calls["design.is_connected"]),
        "design.construct.self_s": construct_s,
        "criteria.intrablock.calls_per_report": ratio(
            tracer.nested[("cli.build_report", "criteria.intrablock")], calls["cli.build_report"]),
        "oracle.enumerate_class.designs": tracer.counts["oracle.enumerate_class.items"] / rounds,
        "oracle.class_minima.connected_ratio": ratio(counts["oracle.class_minima.connected"],
                                                     counts["oracle.class_minima.designs"]),
        "search.candidates": candidates / rounds,
        "search.accepted_moves": accepted / rounds,
        "search.accept_ratio": ratio(accepted, candidates),
        "cli.import_s": import_s,
        "fail_ratio": fail_ratio,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_ratio": ratio(traced_s - untraced_s, untraced_s),
        "trace.rounds": rounds,
    })
    return {name: m[name] for name in PER_LAYER_UNITS}


def print_table(title: str, rows: list[tuple[str, float, str, str]]) -> None:
    print(title)
    for name, value, unit, note in rows:
        print(f"  {name:<38} {value:>16.6g} {unit:<6} {note}")


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    code = 0
    for name in ("catalogue", "search", "oracle"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd + (["--tiny"] if args.tiny else []), check=False)
        code = code or proc.returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("catalogue", "search", "oracle", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest schedule, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        return run_all(args)

    if args.setup_probe:
        import_s = import_augdes()
        from workloads import WORKLOADS

        w = WORKLOADS[args.workload](args.seed, ROOT, args.tiny)
        start = time.perf_counter()
        w.build()
        build_s = time.perf_counter() - start
        slow = HostSpeed().probe()
        print(json.dumps({"import_s": import_s, "build_s": build_s, "slow": slow}))
        return 0

    import_augdes()
    from tracer import Tracer
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload](args.seed, ROOT, args.tiny)
    tracer = Tracer() if args.trace else None
    if tracer is None:
        w.build()
        construct_s = 0.0
    else:
        origin = time.perf_counter()
        tracer.install()
        with tracer.recording("bench.setup"):
            w.build()
        tracer.uninstall()
        construct_s = sum(tracer.self_time[name] for name in CONSTRUCTORS)
    probes = [setup_probe(args) for _ in range(1 if args.tiny else SETUP_PROBES)]
    setup_s = statistics.median((p["import_s"] + p["build_s"]) / p["slow"] for p in probes)
    import_s = statistics.median(p["import_s"] for p in probes)

    host = HostSpeed() if tracer is None else None
    samples, cli_runs, rounds, trace_figures = measure(args, w, tracer, host)
    failures = [f for s in samples for f in s.failures] + [f for _, fs, _ in cli_runs for f in fs]
    attempted = len(samples) + len(cli_runs)
    failed = sum(bool(s.failures) for s in samples) + sum(bool(fs) for _, fs, _ in cli_runs)
    fail_ratio = failed / attempted
    env = environment()
    OUT.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"

    print(f"perfbench {w.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace} rounds={rounds}")
    print("env: " + json.dumps(env))
    for text in failures[:10]:
        print(f"check failed: {text}", file=sys.stderr)

    if tracer is not None:
        metrics = layer_metrics(tracer, rounds, construct_s, import_s, fail_ratio, *trace_figures)
        units = PER_LAYER_UNITS
        print_table(f"per-layer metrics (per traced round, {rounds} rounds; construct and import: set-up)",
                    [(k, v, units[k], "") for k, v in metrics.items()])
        tracer.dump(OUT / f"{stem}-spans.json", origin)
        report = {"env": env, "per_layer": metrics, "units": units, "failures": failures[:50]}
    else:
        slow = host.slowdown()
        stats = summarize(samples, rounds)
        cli_times = [t for t, _, _ in cli_runs]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        eff_mean = statistics.fmean(w.eff_values) if w.eff_values else 0.0  # 0: nothing succeeded
        metrics = {
            "setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "ops_per_s": stats["ops_per_s"],
            "op_p50_ms": stats["p50_s"] * 1e3, "eff_mean": eff_mean,
        }
        units = END_TO_END_UNITS
        per = f"{rounds} rounds of {stats['slots']} calls, median per kind of call"
        print(f"host slowdown, median over the run: {slow:.4f}. Times below are reference-host "
              "time (measured / slowdown), except the raw samples.")
        named = [
            ("setup_s", setup_s, "s", f"median of {len(probes)} fresh-interpreter set-ups"),
            ("peak_rss_mb", peak_rss_mb, "MB", "this process"),
            ("fail_ratio", fail_ratio, "ratio", f"{failed} of {attempted} operations"),
        ]
        pct, tail_s, n_tail, beyond = stats["tail"]
        tail_ms = (tail_s * 1e3, "ms", f"p{pct:g}, {n_tail} calls, {beyond} beyond")
        cli_p50 = (statistics.median(t / f for t, _, f in cli_runs) * 1e3, "ms", f"median of {len(cli_runs)} runs")
        if w.name == "catalogue":
            named += [
                ("reports_per_s", stats["ops_per_s"], "1/s", f"one round / its time; {per}"),
                ("report_p50_ms", stats["p50_s"] * 1e3, "ms", f"p50; {per}"),
                ("report_tail_ms", *tail_ms),
                ("cli_eval_p50_ms", *cli_p50),
            ]
        elif w.name == "search":
            named += [
                ("search_p50_s", stats["p50_s"], "s", f"p50 of the (10,5,3) and (12,6,3) searches; {per}"),
                ("search_tail_s", tail_s, "s", tail_ms[2]),
                ("search_eff_mean", eff_mean, "ratio", f"{len(w.eff_values)} searches of round 0"),
                ("search_20_10_4_s", stats["ungated"]["(20,10,4)"], "s", f"median of {rounds} searches"),
                ("cli_search_p50_ms", *cli_p50),
            ]
        else:
            named += [
                ("contrasts_per_s", stats["contrasts_per_s"], "1/s", f"verify_design calls; {per}"),
                ("enum_designs_per_s", stats["designs_per_s"], "1/s", f"class_minima calls; {per}"),
                ("oracle_p50_ms", stats["p50_s"] * 1e3, "ms", f"p50; {per}"),
                ("oracle_tail_ms", *tail_ms),
                ("cli_verify_p50_ms", *cli_p50),
            ]
        print_table("named metrics", named)
        pct, raw_tail_s, n_raw, beyond = stats["raw_tail"]
        raw = [
            (f"{w.unit_label} p50_ms", stats["raw_p50_s"] * 1e3, "ms", f"{stats['n']} samples"),
            (f"{w.unit_label} tail_ms", raw_tail_s * 1e3, "ms", f"p{pct:g}, {n_raw} samples, {beyond} beyond"),
            ("cli p50_ms", statistics.median(cli_times) * 1e3, "ms", f"{len(cli_times)} samples"),
        ]
        print_table("raw samples (every timed call, measured time)", raw)
        print_table("gated metrics (BENCHMARK.json)", [(k, v, units[k], "") for k, v in metrics.items()])
        report = {"host_slowdown": slow, "env": env,
                  "named": {k: {"value": v, "unit": u, "note": note} for k, v, u, note in named},
                  "raw": {k: {"value": v, "unit": u, "note": note} for k, v, u, note in raw},
                  "metrics": metrics, "failures": failures[:50],
                  "samples": [[x.kind, x.seconds, x.slow, x.gated] for x in samples]}
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
