import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import augdes
from augdes import AugmentationSpec, criteria, oracle
from augdes.bounds import efficiencies, threshold_class
from augdes.cli import build_report, cli, round3
from augdes.design import format_design, from_blocks, all_k_subsets, delete_blocks

RCBD2_TEXT = "v 2\nblock 1 2\nblock 1 2\n"
DATA = Path(__file__).resolve().parent / "data"


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


class TestRounding:
    def test_half_away_from_zero(self):
        assert round3(0.9935) == 0.994
        assert round3(0.0005) == 0.001
        assert round3(1.0004) == 1.0


class TestEval:
    def test_table_shows_paper_style_efficiencies(self, runner, tmp_path):
        result = runner.invoke(cli, ["eval", eight_block_file(tmp_path), "--s", "1", "--format", "table"])
        assert result.exit_code == 0
        lines = {line.split()[0]: line.split() for line in result.output.splitlines() if line.startswith(("A_", "MV_"))}
        assert lines["A_cc"][-1] == "0.986"
        assert lines["A_tt(s=1)"][-1] == "0.997"
        assert lines["A_ct"][-1] == "0.994"
        assert "classification: HIGH" in result.output

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
        calls = []
        original = criteria.intrablock

        def counting(d):
            calls.append(d)
            return original(d)

        monkeypatch.setattr(criteria, "intrablock", counting)
        for d, aug in corpus:
            calls.clear()
            build_report(d, aug, "corpus")
            assert len(calls) == 1


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

    def test_plot_cap_exits_2(self, runner, tmp_path):
        path = write(tmp_path, "d.design", RCBD2_TEXT)
        result = runner.invoke(cli, ["verify", path, "--max-plots", "3"])
        assert result.exit_code == 2

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
        result = runner.invoke(
            cli, ["enumerate", "--b", "5", "--v", "4", "--k", "2", "--minima", "--format", "json"]
        )
        assert result.exit_code == 0
        assert result.output == (DATA / "enumerate_b5_v4_k2_minima.json").read_text(encoding="utf-8")

    def test_env_cap(self, runner):
        result = runner.invoke(
            cli,
            ["enumerate", "--b", "8", "--v", "8", "--k", "4"],
            env={"AUGDES_ENUM_CAP": "100"},
        )
        assert result.exit_code == 2


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
