"""Command-line interface.

Subcommands cover design construction (`make`), transformation (`dual`,
`modify`), evaluation against the design-independent bounds (`eval`,
`bounds`), exhaustive small-class enumeration (`enumerate`), verification
of the closed forms against the plot-level GLS oracle (`verify`), and an
exchange search for good primals (`search`).

Exit codes: 1 for malformed input, 2 for infeasible parameters, 3 for a
verification failure; `_Group.invoke` maps package errors to 1 and 2 for
every subcommand. The options several subcommands share are declared once,
in `_OPTIONS`, and every `--format` command prints through `_emit`. Tables
round to 3 decimals, half away from zero; JSON output is unrounded.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict, dataclass
from decimal import ROUND_HALF_UP, Decimal
from itertools import chain

import click

from . import __version__, bounds, criteria, oracle, search
from .design import (
    AugmentationSpec,
    BlockDesign,
    _comb_within,
    all_k_subsets,
    delete_blocks,
    dual,
    format_design,
    lattice_bib,
    low_overlap_indices,
    read_design,
    repeat_blocks,
    write_design,
)
from .errors import AugdesError, DesignFormatError, EmptyBlock, LabelOutOfRange

VERIFY_TOL = 1e-6
ENUM_CAP_ENV = "AUGDES_ENUM_CAP"

# malformed input, and any failed read or write of a file or stream
_INPUT_ERRORS = (DesignFormatError, LabelOutOfRange, EmptyBlock, OSError)


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def round3(x: float) -> float:
    """Round to 3 decimals with ties going away from zero."""
    return float(Decimal(repr(float(x))).quantize(Decimal("0.001"), rounding=ROUND_HALF_UP))


def fmt3(x: float) -> str:
    return f"{round3(x):.3f}"


def _int_list(raw: str, message: str) -> list[int]:
    """The integers of a comma-separated list; exits 1 with `message` and
    the raw text when an item is empty or not an integer, so an empty list
    is malformed too."""
    try:
        return [int(part) for part in raw.split(",")]
    except ValueError:
        _fail(1, f"{message}, got {raw!r}")


def _parse_aug(s_common: int | None, s_list: str | None) -> AugmentationSpec:
    if s_common is not None and s_list is not None:
        _fail(1, "give either --s or --s-list, not both")
    if s_list is not None:
        return AugmentationSpec.per_block(_int_list(s_list, "--s-list must be comma-separated integers"))
    return AugmentationSpec.common(1 if s_common is None else s_common)


def _enum_cap() -> int:
    raw = os.environ.get(ENUM_CAP_ENV)
    if raw is None:
        return oracle.DEFAULT_ENUM_CAP
    try:
        return int(raw)
    except ValueError:
        _fail(1, f"{ENUM_CAP_ENV} must be an integer, got {raw!r}")


def _emit(fmt: str, payload: dict, lines: list[str]) -> None:
    """Print a command's result: its payload as JSON, or its table lines."""
    click.echo(json.dumps(payload, indent=2) if fmt == "json" else "\n".join(lines))


def _write_or_echo(d: BlockDesign, out: str | None) -> None:
    if out is None:
        click.echo(format_design(d), nl=False)
    else:
        write_design(d, out)


def _params_json(b: int, v: int, k: int, aug: AugmentationSpec) -> dict:
    return {"b": b, "v": v, "k": k, "s": aug.s if aug.is_common else list(aug.s_list)}


def _bounds_json(q: bounds.BoundQuantities, acc: float, att: float, act: float) -> dict:
    return {**asdict(q), "acc": acc, "att": att, "act": act}


@dataclass(frozen=True)
class ReportDocument:
    """Everything `eval` reports for one design and augmentation."""

    design: BlockDesign
    aug: AugmentationSpec
    k: int
    criteria: criteria.CriteriaReport
    quantities: bounds.BoundQuantities
    acc_bound: float
    att_bound: float
    act_bound: float
    single_bounds: bounds.Triple  # at one test per block, where they also bound the MV-criteria
    eff: bounds.EfficiencyReport
    classification: bounds.ThresholdClass
    provenance: dict

    def to_json_dict(self) -> dict:
        return {
            "params": _params_json(self.design.b, self.design.v, self.k, self.aug),
            "criteria": asdict(self.criteria),
            "bounds": _bounds_json(self.quantities, self.acc_bound, self.att_bound, self.act_bound),
            "eff": {
                "cc": self.eff.eff_cc,
                "tt_s": self.eff.eff_tt_at_s,
                "tt_conservative": self.eff.eff_tt_conservative,
                "ct": self.eff.eff_ct,
                "mv_cc": self.eff.mv_eff_cc,
                "mv_tt": self.eff.mv_eff_tt,
                "mv_ct": self.eff.mv_eff_ct,
            },
            "class": self.classification.value,
            "provenance": self.provenance,
        }


def build_report(d: BlockDesign, aug: AugmentationSpec, source: str) -> ReportDocument:
    report = criteria.evaluate(d, aug)
    k = d.uniform_block_size()
    quantities, (acc_b, att_b, act_b), single_bounds, eff, classification = bounds.assess(d, aug, report)
    return ReportDocument(
        design=d,
        aug=aug,
        k=k,
        criteria=report,
        quantities=quantities,
        acc_bound=acc_b,
        att_bound=att_b,
        act_bound=act_b,
        single_bounds=single_bounds,
        eff=eff,
        classification=classification,
        provenance={
            "input": source,
            "command": " ".join(sys.argv),
            "version": __version__,
        },
    )


def render_table(doc: ReportDocument) -> list[str]:
    """The lines of the `eval` table of a report."""
    d, eff, rep = doc.design, doc.eff, doc.criteria
    s_label = doc.aug.describe()
    _, att_b_1, act_b_1 = doc.single_bounds
    lines = [
        f"design: {doc.provenance['input']}",
        f"parameters: b={d.b} v={d.v} k={doc.k} s={s_label}",
        "",
        f"{'criterion':<14}{'value':>10}{'bound':>10}{'efficiency':>12}",
    ]
    tt_label = f"A_tt(s={s_label})" if doc.aug.is_common else "A_tt(s#)"
    ct_label = "A_ct" if doc.aug.is_common else "A_ct(s#)"
    rows = [
        ("A_cc", rep.a_cc, doc.acc_bound, eff.eff_cc),
        (tt_label, rep.a_tt, doc.att_bound, eff.eff_tt_at_s),
        (ct_label, rep.a_ct, doc.act_bound, eff.eff_ct),
        ("MV_cc", rep.mv_cc, doc.acc_bound, eff.mv_eff_cc),
        ("MV_tt", rep.mv_tt, att_b_1, eff.mv_eff_tt),
        ("MV_ct", rep.mv_ct, act_b_1, eff.mv_eff_ct),
    ]
    for name, value, bound_value, ratio in rows:
        lines.append(f"{name:<14}{fmt3(value):>10}{fmt3(bound_value):>10}{fmt3(ratio):>12}")
    lines.append("")
    lines.append(f"conservative A_tt efficiency (s=1): {fmt3(eff.eff_tt_conservative)}")
    lines.append(f"classification: {doc.classification.value}")
    return lines


class _Group(click.Group):
    """The command group. Its `invoke` is the one place where errors
    become exit codes: 1 for malformed input or a failed read or write,
    2 for every other package error."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            # downstream consumer closed the pipe (e.g. `| head`); park
            # stdout on devnull so interpreter shutdown stays quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(1)
        except _INPUT_ERRORS as exc:
            _fail(1, str(exc))
        except AugdesError as exc:
            _fail(2, str(exc))


# The options several subcommands share, each declared once for `_options`.
_OPTIONS = {
    "b": click.option("--b", "b", type=int, required=True),
    "v": click.option("--v", "v", type=int, required=True),
    "k": click.option("--k", "k", type=int, required=True),
    "s": click.option("--s", "s_common", type=int, default=None, help="Common per-block test-treatment count (default 1)."),
    "s-list": click.option("--s-list", "s_list", default=None, help="Comma-separated per-block counts, one per block."),
    "format": click.option("--format", "fmt", type=click.Choice(["table", "json"]), default="table"),
    "output": click.option("-o", "--output", "out", default=None, help="Output design file (default stdout)."),
}


def _options(*names: str):
    """Apply the shared options `names`, which --help lists in that order."""

    def apply(fn):
        for name in reversed(names):
            fn = _OPTIONS[name](fn)
        return fn

    return apply


@click.group(cls=_Group)
@click.version_option(__version__, prog_name="augdes")
def cli():
    """Evaluate and construct primals for augmented block designs."""


@cli.command(name="eval")
@click.argument("design_file")
@_options("s", "s-list", "format")
@click.option("--partial-rep", is_flag=True, help="Treat the input as the twice-replicated subdesign and report rr/tt/rt.")
def eval_cmd(design_file, s_common, s_list, fmt, partial_rep):
    """Report criteria, bounds and efficiencies for a design file."""
    d = read_design(design_file)
    aug = _parse_aug(s_common, s_list)
    if not partial_rep:
        doc = build_report(d, aug, source=design_file)
        _emit(fmt, doc.to_json_dict(), render_table(doc))
        return
    # the twice-replicated subdesign is scored as a primal: rr for cc, rt for ct
    report = asdict(criteria.evaluate(d, aug))
    values = {key.replace("_cc", "_rr").replace("_ct", "_rt"): x for key, x in report.items()}
    payload = {
        "params": _params_json(d.b, d.v, d.uniform_block_size(), aug),
        "criteria": values,
        "mode": "partial_replication",
    }
    lines = [
        f"design: {design_file} (twice-replicated subdesign)",
        f"parameters: b={d.b} v={d.v} s={aug.describe()}",
        "",
        f"{'criterion':<8}{'value':>10}",
    ]
    for key, value in values.items():
        kind, _, pair = key.partition("_")
        name = f"{kind.upper()}_{pair}"
        lines.append(f"{name:<8}{fmt3(value):>10}")
    _emit(fmt, payload, lines)


@cli.command(name="bounds")
@_options("b", "v", "k", "s", "s-list", "format")
def bounds_cmd(b, v, k, s_common, s_list, fmt):
    """Design-independent lower bounds for a parameter triple."""
    aug = _parse_aug(s_common, s_list)
    q = bounds.bound_quantities(b, v, k)
    acc, att, act = bounds.a_bounds(b, v, k, aug, q)
    payload = {"params": _params_json(b, v, k, aug), "bounds": _bounds_json(q, acc, att, act)}
    lines = [
        f"parameters: b={b} v={v} k={k} s={aug.describe()}",
        f"L={fmt3(q.L)} Ltilde={fmt3(q.Ltilde)} H={fmt3(q.H)} f={q.f} h={q.h}",
        f"A_cc bound  {fmt3(acc)}",
        f"A_tt bound  {fmt3(att)}",
        f"A_ct bound  {fmt3(act)}",
    ]
    _emit(fmt, payload, lines)


@cli.command(name="dual")
@click.argument("design_file")
@_options("output")
def dual_cmd(design_file, out):
    """Write the dual of a design (treatments and blocks interchange)."""
    d = read_design(design_file)
    # a treatment that occurs nowhere would become an empty block, which
    # the design format cannot express
    unused = d.v - len(set(chain.from_iterable(d.blocks)))
    if unused:
        raise EmptyBlock(f"{unused} of {d.v} treatments occur in no block; the dual would have an empty block")
    _write_or_echo(dual(d), out)


@cli.command(name="modify")
@click.argument("design_file")
@click.option("--delete", "delete_raw", default=None, help="Comma-separated block indices to delete.")
@click.option("--repeat", "repeat_raw", default=None, help="Comma-separated block indices to repeat.")
@click.option("--auto-delete", type=int, default=None, help="Delete n automatically chosen low-overlap blocks.")
@click.option("--auto-repeat", type=int, default=None, help="Repeat n automatically chosen low-overlap blocks.")
@_options("output")
def modify_cmd(design_file, delete_raw, repeat_raw, auto_delete, auto_repeat, out):
    """Delete or repeat blocks, explicitly or by the low-overlap rule."""
    modes = [m for m in (delete_raw, repeat_raw, auto_delete, auto_repeat) if m is not None]
    if len(modes) != 1:
        _fail(1, "give exactly one of --delete, --repeat, --auto-delete, --auto-repeat")
    d = read_design(design_file)
    delete = delete_raw is not None or auto_delete is not None
    raw = delete_raw if delete else repeat_raw
    if raw is not None:
        indices = _int_list(raw, "expected comma-separated block indices")
    else:
        criteria.check_order(d.v, d.b, "are too large for the low-overlap rule, "
                             "which compares the overlaps of all block pairs")
        indices = low_overlap_indices(d, auto_delete if delete else auto_repeat)
        click.echo(f"{'deleting' if delete else 'repeating'} blocks {','.join(map(str, indices))}", err=True)
    result = (delete_blocks if delete else repeat_blocks)(d, indices)
    _write_or_echo(result, out)


@cli.command(name="make")
@click.option("--bib-all-subsets", "subsets", nargs=2, type=int, default=None,
              help="V K: all k-subsets of 1..V as blocks.")
@click.option("--lattice", "lattice_q", type=int, default=None,
              help="Q: lattice BIB design on Q^2 treatments (prime Q <= 13).")
@_options("output")
def make_cmd(subsets, lattice_q, out):
    """Construct a standard primal."""
    if (subsets is None) == (lattice_q is None):
        _fail(1, "give exactly one of --bib-all-subsets or --lattice")
    if subsets is not None:
        v, k = subsets
        if 1 <= k <= v:  # C(v, k) blocks, counted before any is built
            _comb_within(v, k, criteria.MAX_ORDER, f"{k}-subsets of 1..{v}")
        d = all_k_subsets(v, k)
    else:
        d = lattice_bib(lattice_q)
    _write_or_echo(d, out)


@cli.command(name="verify")
@click.argument("design_file")
@_options("s", "s-list")
@click.option("--max-plots", type=int, default=oracle.DEFAULT_PLOT_CAP, show_default=True)
@_options("format")
def verify_cmd(design_file, s_common, s_list, max_plots, fmt):
    """Check the closed-form variances against the plot-level GLS oracle."""
    d = read_design(design_file)
    aug = _parse_aug(s_common, s_list)
    report = oracle.verify_design(d, aug, max_plots=max_plots)
    # the JSON key, table label and largest deviation of each contrast type
    rows = (
        ("cc", "cc", report.max_dev_cc),
        ("tt_same_block", "tt (same block)", report.max_dev_tt_same),
        ("tt_cross_block", "tt (cross block)", report.max_dev_tt_cross),
        ("ct", "ct", report.max_dev_ct),
    )
    payload = {
        "max_deviation": report.max_deviation,
        **{key: dev for key, _, dev in rows},
        "n_contrasts": report.n_contrasts,
    }
    lines = [f"checked {report.n_contrasts} contrasts"]
    lines += [f"max deviation {label}: {dev:.3e}" for _, label, dev in rows]
    lines.append(f"max deviation overall: {report.max_deviation:.3e}")
    _emit(fmt, payload, lines)
    if report.max_deviation > VERIFY_TOL:
        _fail(3, f"max deviation {report.max_deviation:.3e} exceeds {VERIFY_TOL:g}")


@cli.command(name="enumerate")
@_options("b", "v", "k", "s")
@click.option("--minima", is_flag=True, help="Also minimize all six criteria over the class.")
@_options("format")
def enumerate_cmd(b, v, k, s_common, minima, fmt):
    """Count (and optionally minimize over) all designs of a class."""
    cap = _enum_cap()
    aug = _parse_aug(s_common, None)
    if minima:
        result = oracle.class_minima(b, v, k, aug, cap=cap)
        n_raw, n_connected = result.n_designs, result.n_connected
    else:
        n_raw, n_connected = oracle.class_counts(b, v, k, cap=cap)
    payload = {"params": _params_json(b, v, k, aug), "designs": n_raw, "connected": n_connected}
    lines = [f"class (b={b}, v={v}, k={k}): {n_raw} designs, {n_connected} connected"]
    if minima:
        names = [name for name in oracle.CRITERION_NAMES if name in result.minima]
        payload["minima"] = {
            name: {"value": result.minima[name], "blocks": list(result.argmin[name].blocks)} for name in names
        }
        for name in names:
            blocks = " ".join("{" + ",".join(map(str, blk)) + "}" for blk in result.argmin[name].blocks)
            lines.append(f"min {name:<6} {result.minima[name]:.6f}  at  {blocks}")
    _emit(fmt, payload, lines)


@cli.command(name="search")
@_options("b", "v", "k")
@click.option("--weights", "weights_raw", required=True, help="wcc,wtt,wct (nonnegative, not all zero).")
@_options("s", "s-list")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--restarts", type=int, default=10, show_default=True)
@click.option("--max-passes", type=int, default=50, show_default=True)
@_options("output")
def search_cmd(b, v, k, weights_raw, s_common, s_list, seed, restarts, max_passes, out):
    """Exchange search for a primal with small weighted A-criteria."""
    parts = weights_raw.split(",")
    if len(parts) != 3:
        _fail(1, f"--weights needs three comma-separated values, got {weights_raw!r}")
    try:
        w_cc, w_tt, w_ct = (float(p) for p in parts)
    except ValueError:
        _fail(1, f"--weights must be numeric, got {weights_raw!r}")
    aug = _parse_aug(s_common, s_list)
    cfg = search.SearchConfig(
        w_cc=w_cc, w_tt=w_tt, w_ct=w_ct, aug=aug,
        restarts=restarts, max_passes=max_passes, rng_seed=seed,
    )
    result = search.exchange_search(b, v, k, cfg)
    click.echo(f"objective: {result.objective:.9f}")
    eff = bounds.efficiencies(result.design, aug)
    click.echo(
        "efficiencies: "
        f"cc={fmt3(eff.eff_cc)} tt={fmt3(eff.eff_tt_conservative)} ct={fmt3(eff.eff_ct)}"
    )
    _write_or_echo(result.design, out)


def main():
    cli()


if __name__ == "__main__":
    main()
