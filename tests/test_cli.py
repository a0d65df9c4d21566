import ast
import functools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import augdes
from augdes import AugmentationSpec, bounds, criteria, oracle
from augdes.bounds import efficiencies, threshold_class
from augdes.cli import VERIFY_TOL, build_report, cli, render_table, round3
from augdes.errors import InvalidParameters
from augdes.matrix import SymMatrix
from augdes.design import (
    BlockDesign,
    all_k_subsets,
    delete_blocks,
    dual,
    format_design,
    from_blocks,
    lattice_bib,
    read_design,
)

RCBD2_TEXT = "v 2\nblock 1 2\nblock 1 2\n"
DATA = Path(__file__).resolve().parent / "data"
DESIGNS = Path(__file__).resolve().parent.parent / "designs"


@pytest.fixture()
def runner():
    return CliRunner()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def eight_block_file(tmp_path):
    d = delete_blocks(all_k_subsets(5, 3), [1, 10])
    return write(tmp_path, "example_b8.design", format_design(d))


def count_args(path, counts):
    """The count options of a golden: a common count of 1 or 3, or the
    per-block counts 1, 2, 3, 1, ... of the design at path."""
    return {
        "s1": ["--s", "1"],
        "s3": ["--s", "3"],
        "slist": ["--s-list", ",".join(str(1 + j % 3) for j in range(read_design(path).b))],
    }[counts]


# factories of fresh design objects: every designs/ file, and the lattices
# of every supported order with their duals
FRESH_DESIGNS = {
    **{path.stem: functools.partial(read_design, path) for path in sorted(DESIGNS.glob("*.design"))},
    **{f"lattice_bib({q})": functools.partial(lattice_bib, q) for q in (2, 3, 5, 7, 11, 13)},
    **{f"dual(lattice_bib({q}))": (lambda q=q: dual(lattice_bib(q))) for q in (2, 3, 5, 7, 11, 13)},
}


def _assert_numbers_close(got, want, rel):
    """got equals the parsed JSON want, except that each float may differ
    from its recorded value by rel relative."""
    if isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            _assert_numbers_close(got[key], want[key], rel)
    elif isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= rel * abs(want)
    else:
        assert got == want


class TestRounding:
    def test_half_away_from_zero(self):
        assert round3(0.9935) == 0.994
        assert round3(0.0005) == 0.001
        assert round3(1.0004) == 1.0


class TestEval:
    def test_asymmetric_matrix_exits_2(self, runner, tmp_path, monkeypatch):
        def asymmetric(d, aug):
            return SymMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))

        monkeypatch.setattr(criteria, "evaluate", asymmetric)
        result = runner.invoke(cli, ["eval", write(tmp_path, "d.design", RCBD2_TEXT)])
        assert result.exit_code == 2
        assert "not symmetric" in result.output

    def test_table_shows_paper_style_efficiencies(self, runner, tmp_path):
        result = runner.invoke(cli, ["eval", eight_block_file(tmp_path), "--s", "1", "--format", "table"])
        assert result.exit_code == 0
        lines = {line.split()[0]: line.split() for line in result.output.splitlines() if line.startswith(("A_", "MV_"))}
        assert lines["A_cc"][-1] == "0.986"
        assert lines["A_tt(s=1)"][-1] == "0.997"
        assert lines["A_ct"][-1] == "0.994"
        assert "classification: HIGH" in result.output

    @pytest.mark.parametrize("path", sorted(DESIGNS.glob("*.design")), ids=lambda p: p.stem)
    @pytest.mark.parametrize("counts", ["s1", "s3", "slist"])
    def test_json_golden(self, runner, path, counts):
        # every shipped design at a common count of 1 and 3 and at the
        # per-block counts 1, 2, 3, 1, ...; provenance names the run, so it
        # is left out of the comparison
        result = runner.invoke(cli, ["eval", str(path), *count_args(path, counts), "--format", "json"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        del doc["provenance"]
        golden = DATA / f"eval_{path.stem}_{counts}.json"
        assert json.dumps(doc, indent=2) + "\n" == golden.read_text(encoding="utf-8")

    @pytest.mark.parametrize("path", sorted(DESIGNS.glob("*.design")), ids=lambda p: p.stem)
    @pytest.mark.parametrize("counts", ["s1", "s3", "slist"])
    def test_table_golden(self, runner, path, counts):
        # the runs of test_json_golden as tables, from the second line on,
        # since the first names the input path
        result = runner.invoke(cli, ["eval", str(path), *count_args(path, counts), "--format", "table"])
        assert result.exit_code == 0
        golden = DATA / f"eval_{path.stem}_{counts}.txt"
        assert result.output.split("\n", 1)[1] == golden.read_text(encoding="utf-8")

    @pytest.mark.parametrize("q", [11, 13])
    @pytest.mark.parametrize("side", ["", "_dual"], ids=["primal", "dual"])
    @pytest.mark.parametrize("counts", ["s1", "s3"])
    def test_large_lattice_goldens(self, runner, tmp_path, q, side, counts):
        # lattices q = 11 and 13 and their duals invert matrices of order
        # 121-182, above matrix.BLOCK_ORDER: every JSON number within 1e-12
        # relative of the recorded report, the table byte for byte
        d = lattice_bib(q)
        path = write(tmp_path, "d.design", format_design(dual(d) if side else d))
        stem = f"eval_lattice_q{q}{side}_{counts}"
        result = runner.invoke(cli, ["eval", path, *count_args(path, counts), "--format", "json"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        del doc["provenance"]
        _assert_numbers_close(doc, json.loads((DATA / f"{stem}.json").read_text(encoding="utf-8")), 1e-12)
        result = runner.invoke(cli, ["eval", path, *count_args(path, counts), "--format", "table"])
        assert result.exit_code == 0
        assert result.output.split("\n", 1)[1] == (DATA / f"{stem}.txt").read_text(encoding="utf-8")

    def test_json_schema(self, runner, tmp_path):
        result = runner.invoke(cli, ["eval", eight_block_file(tmp_path), "--format", "json"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert set(doc) == {"params", "criteria", "bounds", "eff", "class", "provenance"}
        assert set(doc["criteria"]) == {"a_cc", "a_tt", "a_ct", "mv_cc", "mv_tt", "mv_ct"}
        assert set(doc["bounds"]) == {"L", "Ltilde", "H", "f", "h", "acc", "att", "act"}
        assert set(doc["eff"]) == {"cc", "tt_s", "tt_conservative", "ct", "mv_cc", "mv_tt", "mv_ct"}
        assert doc["class"] in {"HIGH", "GOOD", "NEITHER"}
        assert doc["params"] == {"b": 8, "v": 5, "k": 3, "s": 1}
        # JSON round-trips losslessly
        assert json.loads(json.dumps(doc)) == doc

    def test_s_list_path(self, runner, tmp_path):
        path = write(tmp_path, "d.design", RCBD2_TEXT)
        result = runner.invoke(cli, ["eval", path, "--s-list", "1,2", "--format", "json"])
        assert result.exit_code == 0
        assert json.loads(result.output)["params"]["s"] == [1, 2]

    @pytest.mark.parametrize("path", sorted(DESIGNS.glob("*.design")), ids=lambda p: p.stem)
    @pytest.mark.parametrize("counts", ["s1", "slist"])
    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_partial_rep_golden(self, runner, path, counts, fmt):
        # the whole JSON (partial mode has no provenance), and the table
        # from its second line on, since the first names the input path
        result = runner.invoke(cli, ["eval", str(path), "--partial-rep", *count_args(path, counts), "--format", fmt])
        assert result.exit_code == 0
        output = result.output if fmt == "json" else result.output.split("\n", 1)[1]
        suffix = "json" if fmt == "json" else "txt"
        assert output == (DATA / f"partial_{path.stem}_{counts}.{suffix}").read_text(encoding="utf-8")

    def test_partial_rep_table(self, runner, tmp_path):
        path = write(tmp_path, "d.design", RCBD2_TEXT)
        result = runner.invoke(cli, ["eval", path, "--partial-rep"])
        assert result.exit_code == 0
        assert "A_rr" in result.output
        assert "MV_rt" in result.output

    def test_partial_rep_matches_relabeled_eval(self, runner, tmp_path):
        path = write(tmp_path, "d.design", RCBD2_TEXT)
        plain = json.loads(runner.invoke(cli, ["eval", path, "--format", "json"]).output)
        part = json.loads(runner.invoke(cli, ["eval", path, "--partial-rep", "--format", "json"]).output)
        assert part["mode"] == "partial_replication"
        assert part["criteria"]["a_rr"] == plain["criteria"]["a_cc"]
        assert part["criteria"]["a_rt"] == plain["criteria"]["a_ct"]
        assert part["criteria"]["mv_tt"] == plain["criteria"]["mv_tt"]

    def test_classification_ignores_count_distribution(self, runner, tmp_path):
        # the HIGH/GOOD classes use the conservative tt and count-free ct
        # efficiencies, so an unequal distribution cannot change them
        result = runner.invoke(cli, ["eval", eight_block_file(tmp_path), "--s-list", "1,2,1,2,1,2,1,2"])
        assert result.exit_code == 0
        assert "classification: HIGH" in result.output

    def test_missing_file_exits_1(self, runner):
        result = runner.invoke(cli, ["eval", "no-such-file.design"])
        assert result.exit_code == 1

    def test_malformed_file_exits_1(self, runner, tmp_path):
        path = write(tmp_path, "bad.design", "nonsense\n")
        result = runner.invoke(cli, ["eval", path])
        assert result.exit_code == 1

    def test_conflicting_count_flags_exit_1(self, runner, tmp_path):
        path = write(tmp_path, "d.design", RCBD2_TEXT)
        result = runner.invoke(cli, ["eval", path, "--s", "1", "--s-list", "1,1"])
        assert result.exit_code == 1

    def test_disconnected_design_exits_2(self, runner, tmp_path):
        path = write(tmp_path, "disc.design", "v 4\nblock 1 2\nblock 3 4\n")
        result = runner.invoke(cli, ["eval", path])
        assert result.exit_code == 2

    def test_wrong_s_list_length_exits_2(self, runner, tmp_path):
        path = write(tmp_path, "d.design", RCBD2_TEXT)
        result = runner.invoke(cli, ["eval", path, "--s-list", "1,1,1"])
        assert result.exit_code == 2


class TestBuildReport:
    def test_matches_library_entry_points(self, corpus):
        one = AugmentationSpec.common(1)
        for d, aug in corpus:
            doc = build_report(d, aug, "corpus")
            assert doc.criteria == criteria.evaluate(d, aug)
            assert doc.eff == efficiencies(d, aug)
            assert doc.classification is threshold_class(efficiencies(d, one))

    def test_one_intrablock_per_report(self, corpus, monkeypatch):
        # one intrablock computation, two inverses, per report on a fresh design
        calls = []
        original = criteria.mp_inverse_centered

        def counting(a):
            calls.append(len(a))
            return original(a)

        monkeypatch.setattr(criteria, "mp_inverse_centered", counting)
        for d, aug in corpus:
            calls.clear()
            build_report(BlockDesign(d.v, d.blocks), aug, "corpus")
            assert len(calls) == 2

    def test_bound_calls_per_report(self, monkeypatch):
        # a report finds the bounds at its count and, unless that is one
        # test per block, at one test per block; its table reads them back
        calls = []
        original = bounds.a_bounds

        def counting(b, v, k, aug, *quantities):
            calls.append(aug)
            return original(b, v, k, aug, *quantities)

        monkeypatch.setattr(bounds, "a_bounds", counting)
        d = lattice_bib(3)
        per_block = AugmentationSpec.per_block(1 + j % 3 for j in range(d.b))
        for aug, expected in ((AugmentationSpec.common(1), 1), (AugmentationSpec.common(3), 2), (per_block, 2)):
            calls.clear()
            doc = build_report(d, aug, "lattice")
            assert len(calls) == expected
            calls.clear()
            render_table(doc)
            assert calls == []

    def test_one_bound_quantities_per_report(self, monkeypatch):
        # L, Ltilde and H are found once per report, by `bounds.assess`, and
        # serve both bound triples and the report's `quantities`
        calls = []
        original = bounds.bound_quantities

        def counting(b, v, k):
            calls.append((b, v, k))
            return original(b, v, k)

        monkeypatch.setattr(bounds, "bound_quantities", counting)
        d = lattice_bib(3)
        per_block = AugmentationSpec.per_block(1 + j % 3 for j in range(d.b))
        for aug in (AugmentationSpec.common(1), AugmentationSpec.common(3), per_block):
            calls.clear()
            doc = build_report(d, aug, "lattice")
            assert calls == [(d.b, d.v, 3)]
            assert doc.quantities == original(d.b, d.v, 3)
            calls.clear()
            render_table(doc)
            assert calls == []

    def test_count_free_criteria_once_per_design_object(self, monkeypatch):
        # reports at s=1, s=3 and a per-block list on one object run the MV
        # arithmetic and the count-free A arithmetic once each
        calls = []
        for name in ("_mv_values", "_common_a_values"):

            def counting(*args, _name=name, _original=getattr(criteria, name)):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(criteria, name, counting)
        d = lattice_bib(3)
        per_block = AugmentationSpec.per_block(1 + j % 3 for j in range(d.b))
        augs = (AugmentationSpec.common(1), AugmentationSpec.common(3), per_block)
        reports = [build_report(d, aug, "lattice").criteria for aug in augs]
        assert sorted(calls) == ["_common_a_values", "_mv_values"]
        assert reports == [build_report(BlockDesign(d.v, d.blocks), aug, "lattice").criteria for aug in augs]

    def test_order_above_max_fails_fast(self, runner, tmp_path):
        # a connected path design (blocks i, i+1) on 20,000 treatments, built
        # before tracing: rejected before anything of order v or b
        v = 20_000
        d = from_blocks(v, [[i, i + 1] for i in range(1, v)])
        tracemalloc.start()
        try:
            with pytest.raises(InvalidParameters):
                build_report(d, AugmentationSpec.common(1), "path")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        assert runner.invoke(cli, ["eval", write(tmp_path, "path.design", format_design(d))]).exit_code == 2

    def test_path_design_dual_and_auto_modify(self, runner, tmp_path):
        # `dual` needs no order-v storage, so it writes the 20,000-treatment
        # path design's dual; the low-overlap rule compares all block pairs
        # and is rejected before any of them
        v = 20_000
        d = from_blocks(v, [[i, i + 1] for i in range(1, v)])
        path = write(tmp_path, "path.design", format_design(d))
        result = runner.invoke(cli, ["dual", path])
        assert result.exit_code == 0
        assert result.output == format_design(dual(d))
        for mode in ("--auto-delete", "--auto-repeat"):
            result = runner.invoke(cli, ["modify", path, mode, "3"])
            assert result.exit_code == 2
            assert "orders above" in result.output
            assert "overlaps of all block pairs" in result.output
            assert "scored" not in result.output

    @pytest.mark.parametrize("name", sorted(FRESH_DESIGNS))
    def test_reports_on_one_object_match_fresh_objects(self, name):
        # three reports on one design object share its stored intrablock;
        # each must equal, bit for bit, a report on a fresh object
        def bits(x):
            if isinstance(x, float):
                return x.hex()
            if isinstance(x, dict):
                return {key: bits(val) for key, val in x.items() if key != "provenance"}
            if isinstance(x, list):
                return [bits(val) for val in x]
            return x

        make = FRESH_DESIGNS[name]
        b = make().b
        augs = [AugmentationSpec.common(1), AugmentationSpec.common(3),
                AugmentationSpec.per_block(1 + j % 3 for j in range(b))]
        shared = make()
        for aug in augs:
            assert bits(build_report(shared, aug, "x").to_json_dict()) == bits(
                build_report(make(), aug, "x").to_json_dict()
            )


class TestBounds:
    def test_table_values(self, runner):
        result = runner.invoke(cli, ["bounds", "--b", "10", "--v", "5", "--k", "3", "--s", "1"])
        assert result.exit_code == 0
        assert "A_cc bound  0.400" in result.output
        assert "A_tt bound  2.720" in result.output
        assert "A_ct bound  1.513" in result.output

    def test_json(self, runner):
        result = runner.invoke(cli, ["bounds", "--b", "10", "--v", "5", "--k", "3", "--format", "json"])
        doc = json.loads(result.output)
        assert doc["bounds"]["acc"] == pytest.approx(0.4)
        assert doc["bounds"]["att"] == pytest.approx(2.72)
        assert doc["bounds"]["f"] == 6

    def test_infeasible_exits_2(self, runner):
        result = runner.invoke(cli, ["bounds", "--b", "4", "--v", "6", "--k", "1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("cls", [(10, 5, 3), (30, 25, 5)], ids=lambda c: "-".join(map(str, c)))
    @pytest.mark.parametrize("counts", ["s1", "s3", "slist"])
    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_golden(self, runner, cls, counts, fmt):
        # a common count of 1 and 3 and the per-block counts 1, 2, 3, 1, ...
        b, v, k = cls
        count_opts = {
            "s1": ["--s", "1"],
            "s3": ["--s", "3"],
            "slist": ["--s-list", ",".join(str(1 + j % 3) for j in range(b))],
        }[counts]
        result = runner.invoke(
            cli, ["bounds", "--b", str(b), "--v", str(v), "--k", str(k), *count_opts, "--format", fmt]
        )
        assert result.exit_code == 0
        golden = DATA / f"bounds_b{b}_v{v}_k{k}_{counts}.{'json' if fmt == 'json' else 'txt'}"
        assert result.output == golden.read_text(encoding="utf-8")


class TestMakeDualModify:
    def test_make_bib_and_eval_round_trip(self, runner, tmp_path):
        out = str(tmp_path / "bib.design")
        result = runner.invoke(cli, ["make", "--bib-all-subsets", "5", "3", "-o", out])
        assert result.exit_code == 0
        assert open(out).read().startswith("v 5\nblock 1 2 3\n")

    def test_make_lattice_stdout(self, runner):
        result = runner.invoke(cli, ["make", "--lattice", "2"])
        assert result.exit_code == 0
        assert result.output.startswith("v 4\n")

    def test_make_requires_one_mode(self, runner):
        assert runner.invoke(cli, ["make"]).exit_code == 1
        assert runner.invoke(cli, ["make", "--lattice", "2", "--bib-all-subsets", "4", "2"]).exit_code == 1

    def test_make_nonprime_lattice_exits_2(self, runner):
        assert runner.invoke(cli, ["make", "--lattice", "4"]).exit_code == 2

    def test_make_bib_block_limit(self, runner):
        # C(v, 1) = v blocks: MAX_ORDER of them are built, one more is refused
        limit = criteria.MAX_ORDER
        assert runner.invoke(cli, ["make", "--bib-all-subsets", str(limit), "1"]).output.count("block") == limit
        result = runner.invoke(cli, ["make", "--bib-all-subsets", str(limit + 1), "1"])
        assert result.exit_code == 2
        assert f"1-subsets of 1..{limit + 1} than the cap {limit}" in result.output
        assert runner.invoke(cli, ["make", "--bib-all-subsets", "3", "4"]).exit_code == 2

    def test_make_lattice_then_eval_reproduces_flagship_triple(self, runner, tmp_path):
        out = str(tmp_path / "lattice5.design")
        assert runner.invoke(cli, ["make", "--lattice", "5", "-o", out]).exit_code == 0
        doc = json.loads(runner.invoke(cli, ["eval", out, "--s", "1", "--format", "json"]).output)
        assert doc["eff"]["cc"] == pytest.approx(1.000, abs=0.0015)
        assert doc["eff"]["tt_conservative"] == pytest.approx(0.999, abs=0.0015)
        assert doc["eff"]["ct"] == pytest.approx(0.996, abs=0.0015)

    def test_dual_then_eval_tt_optimal(self, runner, tmp_path):
        bib = str(tmp_path / "bib.design")
        dl = str(tmp_path / "dual.design")
        runner.invoke(cli, ["make", "--lattice", "3", "-o", bib])
        result = runner.invoke(cli, ["dual", bib, "-o", dl])
        assert result.exit_code == 0
        doc = json.loads(runner.invoke(cli, ["eval", dl, "--format", "json"]).output)
        assert abs(doc["eff"]["tt_conservative"] - 1.0) <= 1e-9

    def test_dual_is_involution_via_files(self, runner, tmp_path):
        src = write(tmp_path, "d.design", "v 3\nblock 1 2\nblock 2 3\n")
        once = str(tmp_path / "once.design")
        twice = str(tmp_path / "twice.design")
        runner.invoke(cli, ["dual", src, "-o", once])
        runner.invoke(cli, ["dual", once, "-o", twice])
        assert open(twice).read() == open(src).read()

    def test_dual_rejects_unused_treatment(self, runner, tmp_path):
        # treatment 3 occurs nowhere, so its dual block would be empty and
        # the written file could not be read back
        src = write(tmp_path, "d.design", "v 3\nblock 1 2\nblock 1 2\n")
        out = tmp_path / "dual.design"
        result = runner.invoke(cli, ["dual", src, "-o", str(out)])
        assert result.exit_code == 1
        assert "occur in no block" in result.output
        assert not out.exists()

    def test_modify_delete(self, runner, tmp_path):
        bib = str(tmp_path / "bib.design")
        out = str(tmp_path / "d8.design")
        runner.invoke(cli, ["make", "--bib-all-subsets", "5", "3", "-o", bib])
        result = runner.invoke(cli, ["modify", bib, "--delete", "1,10", "-o", out])
        assert result.exit_code == 0
        d = delete_blocks(all_k_subsets(5, 3), [1, 10])
        assert open(out).read() == format_design(d)

    def test_modify_auto_repeat_reports_choice(self, runner, tmp_path):
        bib = str(tmp_path / "bib.design")
        runner.invoke(cli, ["make", "--bib-all-subsets", "5", "3", "-o", bib])
        result = runner.invoke(cli, ["modify", bib, "--auto-repeat", "2"])
        assert result.exit_code == 0
        assert "repeating blocks 1,6" in result.output

    def test_modify_requires_one_mode(self, runner, tmp_path):
        bib = str(tmp_path / "bib.design")
        runner.invoke(cli, ["make", "--bib-all-subsets", "4", "2", "-o", bib])
        assert runner.invoke(cli, ["modify", bib]).exit_code == 1
        assert runner.invoke(cli, ["modify", bib, "--delete", "1", "--repeat", "2"]).exit_code == 1


def test_broken_pipe_is_quiet():
    # `search` emits a line, computes, then emits more, so a `head -n 1`
    # consumer usually closes the pipe mid-command; the handler must keep
    # the shutdown silent whether or not the race fires
    proc = subprocess.run(
        f"{sys.executable} -m augdes.cli search --b 4 --v 3 --k 2"
        " --weights 1,0,0 --seed 7 --restarts 3 | head -n 1",
        shell=True,
        capture_output=True,
        text=True,
    )
    assert proc.stdout.startswith("objective:")
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


def run_console(args):
    return subprocess.run([sys.executable, "-m", "augdes.cli", *args], capture_output=True, text=True)


# the subcommands that read a design file, with the options each needs
FILE_COMMANDS = [["eval"], ["verify"], ["dual"], ["modify", "--delete", "1"]]


@pytest.mark.parametrize("command", FILE_COMMANDS, ids=lambda c: c[0])
def test_non_utf8_design_is_an_input_error(tmp_path, command):
    path = tmp_path / "latin1.design"
    path.write_bytes(b"v 3\nblock 1 2 \xff\n")
    proc = run_console([command[0], str(path), *command[1:]])
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: byte 14:")
    assert "Traceback" not in proc.stderr


# one infeasible request per subcommand that can meet one: "{disconnected}"
# names a well-formed disconnected design. `dual` has none, since any
# readable design has a dual or is malformed input (exit 1).
INFEASIBLE = {
    "eval": ["eval", "{disconnected}"],
    "bounds": ["bounds", "--b", "4", "--v", "6", "--k", "1"],
    "modify": ["modify", "{disconnected}", "--delete", "9"],
    "make": ["make", "--lattice", "4"],
    "verify": ["verify", "{disconnected}"],
    "enumerate": ["enumerate", "--b", "8", "--v", "8", "--k", "4"],
    "search": ["search", "--b", "4", "--v", "3", "--k", "2", "--weights", "0,0,0"],
}


@pytest.mark.parametrize("command", sorted(INFEASIBLE))
def test_package_error_exits_2(tmp_path, command):
    # every subcommand maps a package error to exit 2 in the one place
    # that assigns exit codes, with a one-line message and no traceback
    disconnected = write(tmp_path, "disc.design", "v 4\nblock 1 2\nblock 3 4\n")
    args = [arg.format(disconnected=disconnected) for arg in INFEASIBLE[command]]
    proc = run_console(args)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "bvk", [["2", "1000000", "1000000"], ["5000000", "10", "12"]], ids=["block_pool", "design_count"]
)
def test_huge_class_fails_fast(bvk):
    # the exact count of either class takes seconds to hours, and has too
    # many digits to print; the cap must stop it after a few steps
    b, v, k = bvk
    proc = subprocess.run(
        [sys.executable, "-m", "augdes.cli", "enumerate", "--b", b, "--v", v, "--k", k],
        capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "cap 10000000" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["make", "--bib-all-subsets", "40", "20"],
        ["enumerate", "--b", "1000000000", "--v", "1", "--k", "1"],
        ["enumerate", "--b", "1", "--v", "2", "--k", "20000"],
        ["search", "--b", "2", "--v", "2", "--k", "300000000", "--weights", "1,1,1", "--restarts", "1"],
    ],
    ids=["make_blocks", "enumerate_blocks", "enumerate_pool_plots", "search_block_size"],
)
def test_hostile_size_exits_2_in_bounded_memory(runner, args):
    # each of these would build or draw far more than fits in memory
    tracemalloc.start()
    try:
        result = runner.invoke(cli, args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.exit_code == 2, result.output
    assert result.output.startswith("error: ")
    assert peak < 2**20


@pytest.mark.parametrize("command", FILE_COMMANDS, ids=lambda c: c[0])
def test_malformed_design_exits_1(tmp_path, command):
    path = write(tmp_path, "bad.design", "nonsense\n")
    proc = run_console([command[0], path, *command[1:]])
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: line 1: unknown directive")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("count", ["0", "-3"])
@pytest.mark.parametrize("command", FILE_COMMANDS, ids=lambda c: c[0])
def test_nonpositive_treatment_count_exits_1(tmp_path, command, count):
    # a file that declares no treatments is malformed input, like any other
    # bad `v` line; `from_blocks` keeps InvalidParameters for library callers
    path = write(tmp_path, "none.design", f"# no treatments\nv {count}\n")
    proc = run_console([command[0], path, *command[1:]])
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(f"error: line 2: need at least one treatment, got {count}")
    assert "Traceback" not in proc.stderr


# the comma-list options, each on a command that would otherwise succeed;
# "{design}" names a 3-block design and "{out}" an output path
LIST_OPTIONS = {
    "eval-s-list": ["eval", "{design}", "--s-list"],
    "search-s-list": ["search", "--b", "3", "--v", "2", "--k", "2", "--weights", "1,1,1", "-o", "{out}", "--s-list"],
    "modify-delete": ["modify", "{design}", "-o", "{out}", "--delete"],
    "modify-repeat": ["modify", "{design}", "-o", "{out}", "--repeat"],
}


@pytest.mark.parametrize("raw", ["", ",", "1,,2", "1,", " "], ids=["empty", "comma", "inner", "trailing", "blank"])
@pytest.mark.parametrize("option", sorted(LIST_OPTIONS))
def test_empty_list_item_exits_1(runner, tmp_path, option, raw):
    # an empty list or an empty item is malformed, not skipped
    design = write(tmp_path, "d.design", "v 2\nblock 1 2\nblock 1 2\nblock 1 2\n")
    out = tmp_path / "out.design"
    args = [arg.format(design=design, out=out) for arg in LIST_OPTIONS[option]]
    result = runner.invoke(cli, [*args, raw])
    assert result.exit_code == 1
    assert result.output.startswith("error: ")
    assert result.output.rstrip("\n").endswith(f"got {raw!r}")
    assert not out.exists()


def test_runtime_needs_only_numpy_and_click():
    # a fresh interpreter running `eval` must not pull in test-only or
    # undeclared packages
    design = Path(__file__).resolve().parent.parent / "designs" / "lattice_q5.design"
    script = (
        "import sys\n"
        "import augdes.cli\n"
        f"sys.argv = ['augdes', 'eval', {str(design)!r}, '--format', 'json']\n"
        "try:\n"
        "    augdes.cli.main()\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
        "print(sorted({m.split('.')[0] for m in sys.modules}), file=sys.stderr)\n"
    )
    src = str(Path(augdes.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["eff"]["cc"] > 0.99
    loaded = set(ast.literal_eval(proc.stderr.strip().splitlines()[-1]))
    assert not loaded & {"scipy", "pytest", "_pytest", "hypothesis"}


class TestVerify:
    def test_passes_on_good_design(self, runner, tmp_path):
        path = write(tmp_path, "d.design", RCBD2_TEXT)
        result = runner.invoke(cli, ["verify", path, "--s", "2"])
        assert result.exit_code == 0
        assert "max deviation overall" in result.output

    def test_json_output(self, runner, tmp_path):
        path = write(tmp_path, "d.design", RCBD2_TEXT)
        result = runner.invoke(cli, ["verify", path, "--format", "json"])
        doc = json.loads(result.output)
        assert doc["max_deviation"] <= 1e-8
        assert doc["n_contrasts"] > 0

    def test_verification_failure_exits_3(self, runner, tmp_path, monkeypatch):
        path = write(tmp_path, "d.design", RCBD2_TEXT)

        def fake(*args, **kwargs):
            return oracle.VerificationReport(0.5, 0.0, 0.0, 0.0, 1)

        monkeypatch.setattr(oracle, "verify_design", fake)
        result = runner.invoke(cli, ["verify", path])
        assert result.exit_code == 3

    def test_path_of_500_treatments_verifies(self, runner, tmp_path):
        # p = 1,498 parameters and 1,497 plots, but S is of order
        # b + v = 999, inside criteria.MAX_ORDER
        d = from_blocks(500, [[i, i + 1] for i in range(1, 500)])
        path = write(tmp_path, "path.design", format_design(d))
        result = runner.invoke(cli, ["verify", path, "--s", "1", "--format", "json"])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["max_deviation"] <= VERIFY_TOL
        assert doc["n_contrasts"] == 500 * 499 // 2 + 499 * 498 // 2 + 500 * 499

    def test_order_over_the_limit_exits_2_before_order_b_plus_v(self, runner, tmp_path):
        # a 1,001-treatment path design has b + v = 2,001 > MAX_ORDER, and
        # is rejected before anything of that order is built
        d = from_blocks(1001, [[i, i + 1] for i in range(1, 1001)])
        path = write(tmp_path, "path.design", format_design(d))
        tracemalloc.start()
        try:
            result = runner.invoke(cli, ["verify", path])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.exit_code == 2
        assert "of order 2001" in result.output
        assert peak < 2**20

    @pytest.mark.slow
    @pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
    def test_every_lattice_and_dual_verifies(self, runner, tmp_path, q):
        for name, d in (("lattice", lattice_bib(q)), ("dual", dual(lattice_bib(q)))):
            path = write(tmp_path, f"{name}.design", format_design(d))
            for s in ("1", "3"):
                result = runner.invoke(cli, ["verify", path, "--s", s])
                assert result.exit_code == 0, (name, s, result.output)

    def test_huge_v_in_tiny_file_exits_2(self, runner, tmp_path):
        # three plots cannot hold a billion treatments: rejected as
        # disconnected before anything of order v is allocated
        path = write(tmp_path, "d.design", "v 1000000000\nblock 1 2\n")
        result = runner.invoke(cli, ["verify", path])
        assert result.exit_code == 2
        assert "treatments cannot all occur" in result.output


class TestEnumerate:
    def test_counts(self, runner):
        result = runner.invoke(cli, ["enumerate", "--b", "2", "--v", "2", "--k", "2"])
        assert result.exit_code == 0
        assert "6 designs, 3 connected" in result.output

    def test_minima_json(self, runner):
        result = runner.invoke(
            cli, ["enumerate", "--b", "4", "--v", "3", "--k", "2", "--minima", "--format", "json"]
        )
        doc = json.loads(result.output)
        assert doc["designs"] == 126
        assert doc["connected"] == 51
        assert doc["minima"]["a_cc"]["value"] >= 1.0 - 1e-9
        assert doc["minima"]["a_cc"]["blocks"]

    def test_minima_json_golden(self, runner):
        # (5,4,2) and (6,4,2), whose 1,939 connected designs the orbit filter
        # cuts to 158, and (7,4,3) and (5,5,3), golden before the filter, which
        # compares their relabelled designs by codes and by sorted ranks
        for b, v, k in ((5, 4, 2), (6, 4, 2), (7, 4, 3), (5, 5, 3)):
            args = ["enumerate", "--b", str(b), "--v", str(v), "--k", str(k), "--minima", "--format", "json"]
            result = runner.invoke(cli, args)
            assert result.exit_code == 0
            assert result.output == (DATA / f"enumerate_b{b}_v{v}_k{k}_minima.json").read_text(encoding="utf-8")

    @pytest.mark.parametrize("cls", [(4, 3, 2), (5, 4, 2), (1, 3, 2)], ids=lambda c: "-".join(map(str, c)))
    def test_counts_json_golden(self, runner, cls):
        b, v, k = map(str, cls)
        result = runner.invoke(cli, ["enumerate", "--b", b, "--v", v, "--k", k, "--format", "json"])
        assert result.exit_code == 0
        assert result.output == (DATA / f"enumerate_b{b}_v{v}_k{k}.json").read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "args", [["--b", "5", "--v", "4", "--k", "2", "--minima"], ["--b", "4", "--v", "3", "--k", "2"],
                 ["--b", "5", "--v", "4", "--k", "2"], ["--b", "1", "--v", "3", "--k", "2"]],
        ids=lambda a: "-".join(a[1::2]) + ("-minima" if "--minima" in a else ""),
    )
    def test_table_golden(self, runner, args):
        # the runs of the JSON goldens above, as tables
        result = runner.invoke(cli, ["enumerate", *args, "--format", "table"])
        assert result.exit_code == 0
        name = "enumerate_b{}_v{}_k{}".format(*args[1:6:2]) + ("_minima" if "--minima" in args else "")
        assert result.output == (DATA / f"{name}.txt").read_text(encoding="utf-8")

    def test_minima_over_the_work_budget_exit_2(self, runner):
        # (200,2,2): 20,301 designs of order 202, 8.3e8 against the budget
        result = runner.invoke(cli, ["enumerate", "--b", "200", "--v", "2", "--k", "2", "--minima"])
        assert result.exit_code == 2, result.output
        assert "minima budget" in result.output

    def test_counts_over_the_work_budget_exit_2(self, runner):
        # (2000,2,2): 2,003,001 designs inside the cap, 8.0e9 against the budget
        result = runner.invoke(cli, ["enumerate", "--b", "2000", "--v", "2", "--k", "2"])
        assert result.exit_code == 2, result.output
        assert "count budget" in result.output

    def test_minima_of_a_class_that_cannot_connect(self, runner):
        # (2,12,5): 9,541,896 designs, over the minima budget, but ten
        # plots cannot connect 12 treatments and 2 blocks, so no walk runs
        tracemalloc.start()
        try:
            result = runner.invoke(
                cli, ["enumerate", "--b", "2", "--v", "12", "--k", "5", "--minima", "--format", "json"]
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert (doc["designs"], doc["connected"], doc["minima"]) == (9541896, 0, {})
        assert peak < 2**20


class TestSearch:
    def test_deterministic_output_file(self, runner, tmp_path):
        args = ["search", "--b", "4", "--v", "3", "--k", "2", "--weights", "1,0,0",
                "--seed", "7", "--restarts", "3"]
        first = str(tmp_path / "a.design")
        second = str(tmp_path / "b.design")
        r1 = runner.invoke(cli, args + ["-o", first])
        r2 = runner.invoke(cli, args + ["-o", second])
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert open(first, "rb").read() == open(second, "rb").read()
        assert "objective:" in r1.output
        assert r1.output == r2.output

    def test_bad_weights_exit_1(self, runner):
        result = runner.invoke(cli, ["search", "--b", "4", "--v", "3", "--k", "2", "--weights", "1,2"])
        assert result.exit_code == 1

    def test_zero_weights_exit_2(self, runner):
        result = runner.invoke(cli, ["search", "--b", "4", "--v", "3", "--k", "2", "--weights", "0,0,0"])
        assert result.exit_code == 2
