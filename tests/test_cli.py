import json
import math
from fractions import Fraction

import pytest

import affeq.cli as cli
from affeq.cli import EXIT_INPUT, EXIT_INTERNAL, EXIT_NO, EXIT_UNKNOWN, EXIT_YES, main
from affeq.instance_io import parse_document

K3_TEXT = """\
dim 2
vertices 3
edge 0 1 3 6
edge 0 2 4 8
edge 1 2 5 10
"""

BAD_K3_TEXT = """\
dim 2
vertices 3
edge 0 1 3 1
edge 0 2 4 2
edge 1 2 5 4
"""

# quadrilateral with one side longer than the other three combined
OPEN_CYCLE_TEXT = """\
dim 2
vertices 4
edge 0 1 1 1
edge 1 2 1 1
edge 2 3 1 1
edge 0 3 10 10
"""


@pytest.fixture
def runner(capsys, tmp_path):
    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    run.write = write
    run.tmp_path = tmp_path
    return run


class TestSolveCommand:
    def test_yes_schema_and_exit(self, runner):
        code, out, err = runner(["solve", runner.write("k3.txt", K3_TEXT)])
        assert code == EXIT_YES
        report = json.loads(out)
        assert set(report) == {"command", "dim", "verdict", "certificate",
                               "witness", "diagnostics"}
        assert report["verdict"] == "YES"
        assert report["witness"] is None
        cert = report["certificate"]
        assert set(cert) == {"alpha", "points", "points_prime", "map",
                             "z", "z_prime"}
        assert Fraction(cert["alpha"]) == 16

    def test_no_exit_and_witness(self, runner):
        code, out, err = runner(["solve", runner.write("bad.txt", BAD_K3_TEXT)])
        assert code == EXIT_NO
        report = json.loads(out)
        assert report["verdict"] == "NO"
        assert report["certificate"] is None
        failing = [c for c in report["witness"]["report"]["conditions"]
                   if not c["passed"]]
        assert failing[0]["condition"] == "8"
        assert Fraction(failing[0]["residual"]) == 105

    def test_unknown_exit(self, runner):
        path = runner.write("open.txt", OPEN_CYCLE_TEXT)
        code, out, err = runner(["solve", path, "--restarts", "4"])
        assert code == EXIT_UNKNOWN
        assert json.loads(out)["verdict"] == "UNKNOWN"

    def test_structure_no_is_strict_json(self, runner):
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        path = runner.write("pair.txt", "dim 3\nvertices 2\nedge 0 1 1 2\n")
        code, out, err = runner(["solve", path])
        assert code == EXIT_NO
        report = json.loads(out, parse_constant=reject)
        failing = report["witness"]["report"]["conditions"][0]
        assert (failing["condition"], failing["residual"]) == ("9", 2.0)

    def test_check_accepts_emitted_certificate(self, runner):
        cert_path = str(runner.tmp_path / "cert.txt")
        code, out, err = runner(["solve", runner.write("k3.txt", K3_TEXT),
                                 "--emit-certificate", cert_path])
        assert code == EXIT_YES
        code, out, err = runner(["check", cert_path])
        assert code == EXIT_YES
        assert json.loads(out)["passed"] is True

    def test_verify_accepts_emitted_certificate(self, runner):
        cert_path = str(runner.tmp_path / "cert.txt")
        runner(["solve", runner.write("k3.txt", K3_TEXT),
                "--emit-certificate", cert_path])
        code, out, err = runner(["verify", cert_path])
        assert code == EXIT_YES

    def test_numeric_certificate_roundtrip(self, runner):
        # square with one diagonal, second side stretched vertically; the
        # missing pair keeps it off the pinned path, so the certificate
        # comes from the float search and must survive serialization
        text = "\n".join([
            "dim 2", "vertices 4",
            "edge 0 1 1 1", "edge 1 2 1 2", "edge 2 3 1 1", "edge 0 3 1 2",
            "edge 0 2 1.4142135623730951 2.23606797749979", ""])
        path = runner.write("diag.txt", text)
        cert_path = str(runner.tmp_path / "cert.txt")
        code, out, err = runner(["solve", path, "--seed", "7",
                                 "--emit-certificate", cert_path])
        assert code == EXIT_YES
        assert json.loads(out)["diagnostics"]["stage"] == "numeric"
        code, out, err = runner(["check", cert_path])
        assert code == EXIT_YES
        code, out, err = runner(["verify", cert_path])
        assert code == EXIT_YES

    def test_seed_determinism(self, runner):
        path = runner.write("k3.txt", K3_TEXT)
        _, out1, _ = runner(["solve", path, "--seed", "9"])
        _, out2, _ = runner(["solve", path, "--seed", "9"])
        assert out1 == out2

    def test_dim_override(self, runner):
        code, out, err = runner(["solve", runner.write("k3.txt", K3_TEXT),
                                 "--dim", "1"])
        assert code == EXIT_NO

    def test_exact_guard(self, runner):
        path = runner.write("float.txt", K3_TEXT.replace("3 6", "3.0 6"))
        code, out, err = runner(["solve", path, "--exact"])
        assert code == EXIT_INPUT
        assert "rational" in err

    def test_exact_passes_on_rational_input(self, runner):
        code, out, err = runner(["solve", runner.write("k3.txt", K3_TEXT),
                                 "--exact"])
        assert code == EXIT_YES


class TestAllDims:
    def test_sweep_matches_single_runs(self, runner):
        path = runner.write("k3.txt", K3_TEXT)
        code, out, err = runner(["solve", path, "--all-dims"])
        assert code == EXIT_YES
        report = json.loads(out)
        assert set(report) == {"command", "all_dims", "overall"}
        sweep = {entry["dim"]: entry["verdict"] for entry in report["all_dims"]}
        assert sweep == {1: "NO", 2: "YES"}
        assert report["overall"] == "YES"
        for m in (1, 2):
            code_m, out_m, _ = runner(["solve", path, "--dim", str(m)])
            assert json.loads(out_m)["verdict"] == sweep[m]

    def test_overall_no(self, runner):
        # degenerate side lengths fail in both dimensions
        text = K3_TEXT.replace("5 10", "9 4")
        code, out, err = runner(["solve", runner.write("bad.txt", text),
                                 "--all-dims"])
        assert code == EXIT_NO
        assert json.loads(out)["overall"] == "NO"

    def test_rejects_fixed_left(self, runner):
        path = runner.write("k3.txt", K3_TEXT)
        code, out, err = runner(["solve", path, "--all-dims",
                                 "--fixed-left", path])
        assert code == EXIT_INPUT


class TestFixedLeft:
    SQUARE = "\n".join([
        "dim 2", "vertices 4",
        "edge 0 1 1 2", "edge 1 2 1 2", "edge 2 3 1 2", "edge 0 3 1 2", ""])
    CONFIG = "\n".join([
        "dim 2", "vertices 4",
        "edge 0 1 1 2", "edge 1 2 1 2", "edge 2 3 1 2", "edge 0 3 1 2",
        "point 0 0", "point 1 0", "point 1 1", "point 0 1", ""])

    def test_pinned_search_succeeds(self, runner):
        inst = runner.write("sq.txt", self.SQUARE)
        cfg = runner.write("cfg.txt", self.CONFIG)
        code, out, err = runner(["solve", inst, "--fixed-left", cfg])
        assert code == EXIT_YES
        report = json.loads(out)
        # the returned first framework is exactly the pinned one
        assert report["certificate"]["points"] == [[0.0, 0.0], [1.0, 0.0],
                                                   [1.0, 1.0], [0.0, 1.0]]

    def test_length_mismatch_is_input_error(self, runner):
        inst = runner.write("sq.txt", self.SQUARE)
        cfg = runner.write("cfg.txt", self.CONFIG.replace("point 1 0",
                                                          "point 2 0"))
        code, out, err = runner(["solve", inst, "--fixed-left", cfg])
        assert code == EXIT_INPUT
        assert "pinned length" in err

    def test_config_without_points(self, runner):
        inst = runner.write("sq.txt", self.SQUARE)
        cfg = runner.write("cfg.txt", self.SQUARE)
        code, out, err = runner(["solve", inst, "--fixed-left", cfg])
        assert code == EXIT_INPUT
        assert "point records" in err


class TestCheckCommand:
    ASSIGNED = K3_TEXT + "alpha 16\n"

    def test_passing_assignment(self, runner):
        code, out, err = runner(["check", runner.write("a.txt", self.ASSIGNED)])
        assert code == EXIT_YES
        report = json.loads(out)
        assert set(report) == {"command", "passed", "report"}
        inner = report["report"]
        assert set(inner) == {"passed", "base_simplex", "conditions"}
        assert {c["condition"] for c in inner["conditions"]} >= {"6", "7", "8"}
        for entry in inner["conditions"]:
            assert set(entry) == {"condition", "label", "passed", "witness",
                                  "residual", "note"}

    def test_failing_assignment(self, runner):
        code, out, err = runner(["check",
                                 runner.write("a.txt", K3_TEXT + "alpha 9\n")])
        assert code == EXIT_NO
        assert json.loads(out)["passed"] is False

    def test_document_without_assignment(self, runner):
        code, out, err = runner(["check", runner.write("k3.txt", K3_TEXT)])
        assert code == EXIT_INPUT
        assert "alpha" in err


class TestVerifyCommand:
    DOC = K3_TEXT + "\n".join([
        "point 0 0", "point 3 0", "point 0 4",
        "point_prime 0 0", "point_prime 6 0", "point_prime 0 8", ""])

    def test_equivalent_pair_passes(self, runner):
        code, out, err = runner(["verify", runner.write("v.txt", self.DOC)])
        assert code == EXIT_YES
        report = json.loads(out)
        assert set(report) == {"command", "passed", "map", "report"}
        assert set(report["report"]) == {
            "passed", "edge_residual", "edge_residual_prime", "map_residual",
            "full_hull", "tolerance", "witness_edge", "witness_edge_prime",
            "witness_vertex"}
        assert report["report"]["full_hull"] is True

    def test_wrong_lengths_fail(self, runner):
        doc = self.DOC.replace("point_prime 6 0", "point_prime 7 0")
        code, out, err = runner(["verify", runner.write("v.txt", doc)])
        assert code == EXIT_NO
        report = json.loads(out)
        assert report["report"]["witness_edge_prime"] is not None

    def test_degenerate_first_framework_fails_hull(self, runner):
        doc = K3_TEXT + "\n".join([
            "point 0 0", "point 1 0", "point 2 0",
            "point_prime 0 0", "point_prime 6 0", "point_prime 0 8", ""])
        code, out, err = runner(["verify", runner.write("v.txt", doc)])
        assert code == EXIT_NO
        report = json.loads(out)
        assert report["report"]["full_hull"] is False
        assert "note" in report

    def test_missing_points(self, runner):
        code, out, err = runner(["verify", runner.write("k3.txt", K3_TEXT)])
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("tol", ["inf", "-1", "nan", "0"])
    def test_tolerance_outside_the_open_range_is_an_input_error(self, runner, tol):
        # The second framework misses its prescribed lengths, so any finite
        # tolerance fails it; an infinite one would pass it.
        doc = self.DOC.replace("point_prime 6 0", "point_prime 7 0")
        code, out, err = runner(["verify", runner.write("v.txt", doc), "--tol-rel", tol])
        assert code == EXIT_INPUT and out == ""
        assert "positive and finite" in err


class TestEmbedCommand:
    def test_complete_graph_embeds(self, runner):
        code, out, err = runner(["embed", runner.write("k3.txt", K3_TEXT)])
        assert code == EXIT_YES
        report = json.loads(out)
        assert set(report) == {"command", "dim", "side", "passed", "points"}
        assert report["points"] == [[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]]

    def test_prime_side(self, runner):
        code, out, err = runner(["embed", runner.write("k3.txt", K3_TEXT),
                                 "--side", "z_prime"])
        assert code == EXIT_YES
        assert json.loads(out)["points"][1] == [6.0, 0.0]

    def test_unembeddable_reports_condition(self, runner):
        code, out, err = runner(["embed", runner.write("bad.txt", BAD_K3_TEXT),
                                 "--side", "z_prime", "--dim", "2"])
        assert code == EXIT_NO
        report = json.loads(out)
        assert report["passed"] is False
        assert set(report["error"]) == {"condition", "witness_subset",
                                        "residual"}

    def test_incomplete_graph_needs_assignment(self, runner):
        text = "dim 2\nvertices 3\nedge 0 1 3 6\nedge 1 2 4 8\n"
        code, out, err = runner(["embed", runner.write("p.txt", text)])
        assert code == EXIT_INPUT
        code, out, err = runner([
            "embed",
            runner.write("p2.txt", text + "z 0 2 25\nz_prime 0 2 100\nalpha 16\n"),
        ])
        assert code == EXIT_YES


class TestCmdCommand:
    def test_triangle_determinant(self, runner):
        code, out, err = runner(["cmd", runner.write("k3.txt", K3_TEXT),
                                 "--subset", "0,1,2"])
        assert code == EXIT_YES
        report = json.loads(out)
        assert set(report) == {"command", "side", "subset", "determinant",
                               "volume_sq"}
        assert Fraction(report["determinant"]) == -576
        assert Fraction(report["volume_sq"]) == 36

    def test_prime_side_scales(self, runner):
        code, out, err = runner(["cmd", runner.write("k3.txt", K3_TEXT),
                                 "--side", "z_prime", "--subset", "0,1"])
        assert Fraction(json.loads(out)["determinant"]) == 72

    def test_bad_subset(self, runner):
        path = runner.write("k3.txt", K3_TEXT)
        assert runner(["cmd", path, "--subset", "0,9"])[0] == EXIT_INPUT
        assert runner(["cmd", path, "--subset", "0,x"])[0] == EXIT_INPUT
        assert runner(["cmd", path, "--subset", "0,0"])[0] == EXIT_INPUT


class TestExportCommand:
    def test_text_parses_back(self, runner):
        text = "dim 2\nvertices 3\nedge 0 1 3 6\nedge 1 2 4 8\n"
        code, out, err = runner(["export-smt", runner.write("p.txt", text)])
        assert code == EXIT_YES
        assert out.splitlines()[0] == "(set-logic QF_NRA)"
        assert "(declare-const z_0_2 Real)" in out
        assert out.rstrip().endswith("(get-model)")


class TestInputErrors:
    def test_malformed_file_line_diagnostic(self, runner):
        path = runner.write("bad.txt", "dim 2\nvertices 3\nedge 0 1 3\n")
        code, out, err = runner(["solve", path])
        assert code == EXIT_INPUT
        assert "line 3" in err and "edge" in err

    def test_missing_file(self, runner):
        code, out, err = runner(["solve", str(runner.tmp_path / "absent.txt")])
        assert code == EXIT_INPUT
        assert "cannot read" in err

    def test_unknown_flag(self, runner):
        path = runner.write("k3.txt", K3_TEXT)
        assert runner(["solve", path, "--bogus"])[0] == EXIT_INPUT

    def test_missing_subcommand(self, runner):
        assert runner([])[0] == EXIT_INPUT

    def test_unknown_subcommand(self, runner):
        assert runner(["frobnicate", "x.txt"])[0] == EXIT_INPUT

    def test_nonpositive_tolerance(self, runner):
        path = runner.write("k3.txt", TestCheckCommand.ASSIGNED)
        code, out, err = runner(["check", path, "--tol-rel", "-1"])
        assert code == EXIT_INPUT and "positive and finite" in err

    @pytest.mark.parametrize("command", ["solve", "embed"])
    def test_infinite_tolerance(self, runner, command):
        path = runner.write("k3.txt", K3_TEXT)
        code, out, err = runner([command, path, "--tol-rel", "inf"])
        assert code == EXIT_INPUT and "finite" in err

    def test_bad_restarts(self, runner):
        path = runner.write("k3.txt", K3_TEXT)
        code, out, err = runner(["solve", path, "--restarts", "0"])
        assert code == EXIT_INPUT


class TestInternalErrors:
    # A crash must not read as a NO (exit 1) to a calling script.
    def test_overflowing_embed_exits_internal(self, runner):
        # K5 in d = 3 with lengths near 1e40: the comparison scale
        # M**(|I|-1) of a 5-point subset overflows a float.
        pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
        lines = ["dim 3", "vertices 5"]
        for i in range(5):
            for j in range(i + 1, 5):
                length = math.dist(pts[i], pts[j]) * 1e40
                lines.append(f"edge {i} {j} {length!r} {length!r}")
        path = runner.write("k5.txt", "\n".join(lines) + "\n")
        code, out, err = runner(["embed", path])
        assert code == EXIT_INTERNAL and out == ""
        assert err.startswith("error: internal: OverflowError: ")

    def test_handler_exception_is_one_line(self, runner, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("first line\nsecond line")

        monkeypatch.setattr(cli, "solve", broken)
        code, out, err = runner(["solve", runner.write("k3.txt", K3_TEXT)])
        assert code == EXIT_INTERNAL == 70 and out == ""
        assert err == "error: internal: RuntimeError: first line second line\n"


def test_main_builds_its_parser_once(runner, monkeypatch):
    builds, build_parser = [], cli.build_parser

    def counted():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    path = runner.write("k3.txt", K3_TEXT)
    assert runner(["solve", path])[0] == runner(["solve", path])[0] == EXIT_YES
    assert builds == [1]
    cli._parser.cache_clear()
    # build_parser itself still returns a fresh parser on each call
    assert cli.build_parser() is not cli.build_parser()
