"""Command-line interface.

Subcommands cover design construction (`make`), transformation (`dual`,
`modify`), evaluation against the design-independent bounds (`eval`,
`bounds`), exhaustive small-class enumeration (`enumerate`), verification
of the closed forms against the plot-level GLS oracle (`verify`), and an
exchange search for good primals (`search`).

Exit codes: 1 for malformed input, 2 for infeasible parameters, 3 for a
verification failure. Tables round to 3 decimals, half away from zero;
JSON output is unrounded.
"""

from __future__ import annotations

import functools
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
    all_k_subsets,
    delete_blocks,
    dual,
    format_design,
    lattice_bib,
    low_overlap_indices,
    read_design,
    repeat_blocks,
)
from .errors import AugdesError, DesignFormatError, EmptyBlock, LabelOutOfRange

VERIFY_TOL = 1e-6
ENUM_CAP_ENV = "AUGDES_ENUM_CAP"

_INPUT_ERRORS = (DesignFormatError, LabelOutOfRange, EmptyBlock)


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except _INPUT_ERRORS as exc:
            _fail(1, str(exc))
        except BrokenPipeError:
            # downstream consumer closed the pipe (e.g. `| head`); park
            # stdout on devnull so interpreter shutdown stays quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(1)
        except OSError as exc:
            _fail(1, str(exc))
        except AugdesError as exc:
            _fail(2, str(exc))

    return wrapper


def round3(x: float) -> float:
    """Round to 3 decimals with ties going away from zero."""
    return float(Decimal(repr(float(x))).quantize(Decimal("0.001"), rounding=ROUND_HALF_UP))


def fmt3(x: float) -> str:
    return f"{round3(x):.3f}"


def _parse_aug(s_common: int | None, s_list: str | None) -> AugmentationSpec:
    if s_common is not None and s_list is not None:
        _fail(1, "give either --s or --s-list, not both")
    if s_list is not None:
        try:
            counts = [int(part) for part in s_list.split(",") if part != ""]
        except ValueError:
            _fail(1, f"--s-list must be comma-separated integers, got {s_list!r}")
        return AugmentationSpec.per_block(counts)
    return AugmentationSpec.common(1 if s_common is None else s_common)


def _enum_cap() -> int:
    raw = os.environ.get(ENUM_CAP_ENV)
    if raw is None:
        return oracle.DEFAULT_ENUM_CAP
    try:
        return int(raw)
    except ValueError:
        _fail(1, f"{ENUM_CAP_ENV} must be an integer, got {raw!r}")


def _write_or_echo(text: str, out: str | None) -> None:
    if out is None:
        click.echo(text, nl=False)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


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
    ib = criteria.intrablock(d)
    k = ib.k
    report = criteria.criteria_report(ib, d, aug)
    single = bounds.single_count_criteria(ib, d, aug, report)
    quantities = bounds.bound_quantities(d.b, d.v, k)
    acc_b, att_b, act_b = bounds.a_bounds(d.b, d.v, k, aug)
    eff = bounds.efficiency_report(d, k, aug, report, single)
    # classification is a property of the design alone: it uses the
    # conservative tt efficiency and the count-free ct efficiency
    class_eff = eff if aug.is_common else bounds.efficiency_report(d, k, bounds.SINGLE, single, single)
    return ReportDocument(
        design=d,
        aug=aug,
        k=k,
        criteria=report,
        quantities=quantities,
        acc_bound=acc_b,
        att_bound=att_b,
        act_bound=act_b,
        eff=eff,
        classification=bounds.threshold_class(class_eff),
        provenance={
            "input": source,
            "command": " ".join(sys.argv),
            "version": __version__,
        },
    )


def render_table(doc: ReportDocument) -> str:
    d, eff, rep = doc.design, doc.eff, doc.criteria
    s_label = doc.aug.describe()
    # MV bounds are the common-count bounds at a single test treatment per block.
    _, att_b_1, act_b_1 = bounds.a_bounds(d.b, d.v, doc.k, bounds.SINGLE)
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
    return "\n".join(lines) + "\n"


@click.group()
@click.version_option(__version__, prog_name="augdes")
def cli():
    """Evaluate and construct primals for augmented block designs."""


@cli.command(name="eval")
@click.argument("design_file")
@click.option("--s", "s_common", type=int, default=None, help="Common per-block test-treatment count (default 1).")
@click.option("--s-list", "s_list", default=None, help="Comma-separated per-block counts, one per block.")
@click.option("--format", "fmt", type=click.Choice(["table", "json"]), default="table")
@click.option("--partial-rep", is_flag=True, help="Treat the input as the twice-replicated subdesign and report rr/tt/rt.")
@_handle_errors
def eval_cmd(design_file, s_common, s_list, fmt, partial_rep):
    """Report criteria, bounds and efficiencies for a design file."""
    d = read_design(design_file)
    aug = _parse_aug(s_common, s_list)
    if partial_rep:
        # the twice-replicated subdesign is scored as a primal: rr for cc, rt for ct
        report = asdict(criteria.evaluate(d, aug))
        values = {key.replace("_cc", "_rr").replace("_ct", "_rt"): x for key, x in report.items()}
        if fmt == "json":
            payload = {
                "params": _params_json(d.b, d.v, d.uniform_block_size(), aug),
                "criteria": values,
                "mode": "partial_replication",
            }
            click.echo(json.dumps(payload, indent=2))
        else:
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
            click.echo("\n".join(lines))
        return
    doc = build_report(d, aug, source=design_file)
    if fmt == "json":
        click.echo(json.dumps(doc.to_json_dict(), indent=2))
    else:
        click.echo(render_table(doc), nl=False)


@cli.command(name="bounds")
@click.option("--b", "b", type=int, required=True)
@click.option("--v", "v", type=int, required=True)
@click.option("--k", "k", type=int, required=True)
@click.option("--s", "s_common", type=int, default=None)
@click.option("--s-list", "s_list", default=None)
@click.option("--format", "fmt", type=click.Choice(["table", "json"]), default="table")
@_handle_errors
def bounds_cmd(b, v, k, s_common, s_list, fmt):
    """Design-independent lower bounds for a parameter triple."""
    aug = _parse_aug(s_common, s_list)
    q = bounds.bound_quantities(b, v, k)
    acc, att, act = bounds.a_bounds(b, v, k, aug)
    if fmt == "json":
        payload = {"params": _params_json(b, v, k, aug), "bounds": _bounds_json(q, acc, att, act)}
        click.echo(json.dumps(payload, indent=2))
        return
    lines = [
        f"parameters: b={b} v={v} k={k} s={aug.describe()}",
        f"L={fmt3(q.L)} Ltilde={fmt3(q.Ltilde)} H={fmt3(q.H)} f={q.f} h={q.h}",
        f"A_cc bound  {fmt3(acc)}",
        f"A_tt bound  {fmt3(att)}",
        f"A_ct bound  {fmt3(act)}",
    ]
    click.echo("\n".join(lines))


@cli.command(name="dual")
@click.argument("design_file")
@click.option("-o", "--output", "out", default=None, help="Output design file (default stdout).")
@_handle_errors
def dual_cmd(design_file, out):
    """Write the dual of a design (treatments and blocks interchange)."""
    d = read_design(design_file)
    # a treatment that occurs nowhere would become an empty block, which
    # the design format cannot express
    unused = d.v - len(set(chain.from_iterable(d.blocks)))
    if unused:
        raise EmptyBlock(f"{unused} of {d.v} treatments occur in no block; the dual would have an empty block")
    _write_or_echo(format_design(dual(d)), out)


def _parse_index_list(raw: str) -> list[int]:
    try:
        return [int(part) for part in raw.split(",") if part != ""]
    except ValueError:
        _fail(1, f"expected comma-separated block indices, got {raw!r}")


@cli.command(name="modify")
@click.argument("design_file")
@click.option("--delete", "delete_raw", default=None, help="Comma-separated block indices to delete.")
@click.option("--repeat", "repeat_raw", default=None, help="Comma-separated block indices to repeat.")
@click.option("--auto-delete", type=int, default=None, help="Delete n automatically chosen low-overlap blocks.")
@click.option("--auto-repeat", type=int, default=None, help="Repeat n automatically chosen low-overlap blocks.")
@click.option("-o", "--output", "out", default=None, help="Output design file (default stdout).")
@_handle_errors
def modify_cmd(design_file, delete_raw, repeat_raw, auto_delete, auto_repeat, out):
    """Delete or repeat blocks, explicitly or by the low-overlap rule."""
    modes = [m for m in (delete_raw, repeat_raw, auto_delete, auto_repeat) if m is not None]
    if len(modes) != 1:
        _fail(1, "give exactly one of --delete, --repeat, --auto-delete, --auto-repeat")
    d = read_design(design_file)
    if delete_raw is not None:
        result = delete_blocks(d, _parse_index_list(delete_raw))
    elif repeat_raw is not None:
        result = repeat_blocks(d, _parse_index_list(repeat_raw))
    elif auto_delete is not None:
        indices = low_overlap_indices(d, auto_delete)
        click.echo(f"deleting blocks {','.join(map(str, indices))}", err=True)
        result = delete_blocks(d, indices)
    else:
        indices = low_overlap_indices(d, auto_repeat)
        click.echo(f"repeating blocks {','.join(map(str, indices))}", err=True)
        result = repeat_blocks(d, indices)
    _write_or_echo(format_design(result), out)


@cli.command(name="make")
@click.option("--bib-all-subsets", "subsets", nargs=2, type=int, default=None,
              help="V K: all k-subsets of 1..V as blocks.")
@click.option("--lattice", "lattice_q", type=int, default=None,
              help="Q: lattice BIB design on Q^2 treatments (prime Q <= 13).")
@click.option("-o", "--output", "out", default=None, help="Output design file (default stdout).")
@_handle_errors
def make_cmd(subsets, lattice_q, out):
    """Construct a standard primal."""
    if (subsets is None) == (lattice_q is None):
        _fail(1, "give exactly one of --bib-all-subsets or --lattice")
    if subsets is not None:
        v, k = subsets
        d = all_k_subsets(v, k)
    else:
        d = lattice_bib(lattice_q)
    _write_or_echo(format_design(d), out)


@cli.command(name="verify")
@click.argument("design_file")
@click.option("--s", "s_common", type=int, default=None)
@click.option("--s-list", "s_list", default=None)
@click.option("--max-plots", type=int, default=oracle.DEFAULT_PLOT_CAP, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["table", "json"]), default="table")
@_handle_errors
def verify_cmd(design_file, s_common, s_list, max_plots, fmt):
    """Check the closed-form variances against the plot-level GLS oracle."""
    d = read_design(design_file)
    aug = _parse_aug(s_common, s_list)
    report = oracle.verify_design(d, aug, max_plots=max_plots)
    if fmt == "json":
        payload = {
            "max_deviation": report.max_deviation,
            "cc": report.max_dev_cc,
            "tt_same_block": report.max_dev_tt_same,
            "tt_cross_block": report.max_dev_tt_cross,
            "ct": report.max_dev_ct,
            "n_contrasts": report.n_contrasts,
        }
        click.echo(json.dumps(payload, indent=2))
    else:
        click.echo(f"checked {report.n_contrasts} contrasts")
        click.echo(f"max deviation cc: {report.max_dev_cc:.3e}")
        click.echo(f"max deviation tt (same block): {report.max_dev_tt_same:.3e}")
        click.echo(f"max deviation tt (cross block): {report.max_dev_tt_cross:.3e}")
        click.echo(f"max deviation ct: {report.max_dev_ct:.3e}")
        click.echo(f"max deviation overall: {report.max_deviation:.3e}")
    if report.max_deviation > VERIFY_TOL:
        _fail(3, f"max deviation {report.max_deviation:.3e} exceeds {VERIFY_TOL:g}")


@cli.command(name="enumerate")
@click.option("--b", "b", type=int, required=True)
@click.option("--v", "v", type=int, required=True)
@click.option("--k", "k", type=int, required=True)
@click.option("--s", "s_common", type=int, default=None)
@click.option("--minima", is_flag=True, help="Also minimize all six criteria over the class.")
@click.option("--format", "fmt", type=click.Choice(["table", "json"]), default="table")
@_handle_errors
def enumerate_cmd(b, v, k, s_common, minima, fmt):
    """Count (and optionally minimize over) all designs of a class."""
    cap = _enum_cap()
    aug = AugmentationSpec.common(1 if s_common is None else s_common)
    if minima:
        result = oracle.class_minima(b, v, k, aug, cap=cap)
        n_raw, n_connected = result.n_designs, result.n_connected
    else:
        n_raw, n_connected = oracle.class_counts(b, v, k, cap=cap)
        result = None
    if fmt == "json":
        payload = {
            "params": _params_json(b, v, k, aug),
            "designs": n_raw,
            "connected": n_connected,
        }
        if result is not None:
            payload["minima"] = {
                name: {"value": result.minima[name], "blocks": list(result.argmin[name].blocks)}
                for name in oracle.CRITERION_NAMES
                if name in result.minima
            }
        click.echo(json.dumps(payload, indent=2))
        return
    click.echo(f"class (b={b}, v={v}, k={k}): {n_raw} designs, {n_connected} connected")
    if result is not None:
        for name in oracle.CRITERION_NAMES:
            if name not in result.minima:
                continue
            blocks = " ".join("{" + ",".join(map(str, blk)) + "}" for blk in result.argmin[name].blocks)
            click.echo(f"min {name:<6} {result.minima[name]:.6f}  at  {blocks}")


@cli.command(name="search")
@click.option("--b", "b", type=int, required=True)
@click.option("--v", "v", type=int, required=True)
@click.option("--k", "k", type=int, required=True)
@click.option("--weights", "weights_raw", required=True, help="wcc,wtt,wct (nonnegative, not all zero).")
@click.option("--s", "s_common", type=int, default=None)
@click.option("--s-list", "s_list", default=None)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--restarts", type=int, default=10, show_default=True)
@click.option("--max-passes", type=int, default=50, show_default=True)
@click.option("-o", "--output", "out", default=None, help="Design file for the best design found.")
@_handle_errors
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
    _write_or_echo(format_design(result.design), out)


def main():
    cli()


if __name__ == "__main__":
    main()
