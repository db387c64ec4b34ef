"""Command-line behaviour: outputs, exit codes, and the JSON report file."""

import json

import pytest

from fibrekit import PowerSeriesRing, SemigroupRing, FiltrationSpec, analyze
from fibrekit.cli import _SELFTEST_FIXTURES, main
from fibrekit.reporting import as_dict
from conftest import write_fixture

X3 = "x3_x2y_y3.fk"
X4 = "x4_x3y_xy3_y4.fk"
SG = "semigroup_4567.fk"
# J has x^2 y^2 besides x^4, y^4, and xy lies below its Newton polyhedron
# x + y >= 4: the reduction rule certifies that J is not a reduction
NON_REDUCTION_I = "ring powerseries x y\nI [4,0] [1,1] [0,4]\n"
NON_REDUCTION_J = "J [4,0] [2,2] [0,4]\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyzeCommand:
    def test_text_output(self, tmp_path, capsys):
        path = write_fixture(tmp_path, X3)
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 0
        assert err == ""
        assert "e               (9, 3, 1)  exact from n = 1" in out
        assert "criteria:" in out
        assert out.endswith("\n")

    def test_tree_output_matches_library(self, tmp_path, capsys, x3_report):
        path = write_fixture(tmp_path, X3)
        code, out, err = run(capsys, "analyze", str(path), "--format", "tree")
        assert code == 0
        assert json.loads(out) == as_dict(x3_report)

    def test_report_file(self, tmp_path, capsys):
        path = write_fixture(tmp_path, X3)
        report_path = tmp_path / "out.json"
        code, out, _ = run(
            capsys, "analyze", str(path), "--format", "tree", "--report", str(report_path)
        )
        assert code == 0
        written = report_path.read_text()
        assert written == out
        assert written.endswith("\n")
        # byte-for-byte deterministic across runs
        second = tmp_path / "again.json"
        run(capsys, "analyze", str(path), "--report", str(second))
        assert second.read_text() == written

    @pytest.mark.parametrize("name", _SELFTEST_FIXTURES)
    def test_report_file_equals_tree_stdout(self, tmp_path, capsys, name):
        path = write_fixture(tmp_path, name)
        report_path = tmp_path / "out.json"
        code, out, _ = run(
            capsys, "analyze", str(path), "--format", "tree", "--report", str(report_path)
        )
        assert code == 0
        assert report_path.read_bytes() == out.encode("utf-8")

    def test_report_round_trips_through_input_block(self, tmp_path, capsys):
        path = write_fixture(tmp_path, SG)
        report_path = tmp_path / "sg.json"
        code, _, _ = run(capsys, "analyze", str(path), "--report", str(report_path))
        assert code == 0
        data = json.loads(report_path.read_text())
        inp = data["input"]
        assert inp["ring"]["model"] == "semigroup"
        ring = SemigroupRing(*inp["ring"]["generators"])
        spec = FiltrationSpec(ring.ideal(inp["I"]), J=ring.ideal(inp["J"]))
        assert inp["K"] == "maximal"  # the default, so nothing to pass
        rebuilt = analyze(spec, n_max=data["table"]["n_max"])
        assert as_dict(rebuilt) == data

    def test_n_max_below_zero_is_an_input_error(self, tmp_path, capsys):
        path = write_fixture(tmp_path, SG)
        code, out, err = run(
            capsys, "analyze", str(path), "--n-max", "-1", "--format", "tree"
        )
        assert (code, out) == (3, "")
        assert "--n-max: expected an integer >= 0, got -1" in err

    def test_n_max_too_small_fails_cleanly(self, tmp_path, capsys):
        path = write_fixture(tmp_path, X3)
        code, out, err = run(capsys, "analyze", str(path), "--n-max", "3")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "raise n_max" in err

    def test_huge_semigroup_fails_fast(self, tmp_path, capsys):
        path = tmp_path / "huge.fk"
        path.write_text("ring semigroup 4097 4099\nI 4097 4099\nJ 4097\n")
        code, out, err = run(capsys, "analyze", str(path))
        assert (code, out) == (1, "")
        assert "conductor bound (a1-1)(b-1) = 16785408 with b = 4099" in err


class TestSmallCommands:
    def test_coeffs(self, tmp_path, capsys):
        path = write_fixture(tmp_path, X3)
        code, out, _ = run(capsys, "coeffs", str(path))
        assert code == 0
        assert out.splitlines() == [
            "e = (9, 3, 1)  exact from n = 1  (table through n = 8)",
            "g = (9, 0, 1)  exact from n = 0  (table through n = 8)",
            "f = (3, 0)  exact from n = 1  (table through n = 8)",
        ]

    def test_fundamental_lemma_rows(self, tmp_path, capsys):
        path = write_fixture(tmp_path, X3)
        code, out, _ = run(capsys, "fundamental-lemma", str(path))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "e_0 = 9; identity rows for n = 2..8:"
        assert len(lines) == 8
        assert lines[1] == "  n = 2   lhs = 0      rhs = 0      equal"
        assert all(line.endswith("equal") for line in lines[1:])

    def test_fundamental_lemma_rows_match_the_report(self, tmp_path, capsys):
        # r = 1 and the table stops at N + d = 4, but the rows run through
        # r + 4 = 5, as they do in analyze's report
        path = tmp_path / "m2.fk"
        path.write_text(
            "ring powerseries x y\nI [2,0] [1,1] [0,2]\nJ [2,0] [0,2]\nK maximal\n"
        )
        code, out, _ = run(capsys, "fundamental-lemma", str(path))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "e_0 = 4; identity rows for n = 2..5:"
        code, tree, _ = run(capsys, "analyze", str(path), "--format", "tree")
        assert code == 0
        rows = json.loads(tree)["fundamental_lemma"]
        assert [row["n"] for row in rows] == [2, 3, 4, 5]
        assert lines[1:] == [
            f"  n = {row['n']:<3} lhs = {row['lhs']:<6} rhs = {row['rhs']:<6} equal"
            for row in rows
        ]

    @pytest.mark.parametrize("command", [("fundamental-lemma",), ("check", "depth-g")])
    def test_needs_a_minimal_reduction(self, tmp_path, capsys, command):
        # J = (y^9, x^5 y, x^7) reduces I but has three generators: neither
        # the identity nor the depth bounds are theorems for it, and both
        # used to fail as if they were violated (exit 2)
        path = tmp_path / "mu3.fk"
        path.write_text(
            "ring powerseries x y\nI [0,9] [1,8] [5,1] [7,0]\n"
            "J [0,9] [5,1] [7,0]\nK maximal\n"
        )
        code, out, err = run(capsys, *command, str(path))
        assert code == 3
        assert out == ""
        assert "needs a minimal reduction: J has 3 minimal generators" in err

    def test_fundamental_lemma_needs_dimension_two(self, tmp_path, capsys):
        path = write_fixture(tmp_path, SG)
        code, out, err = run(capsys, "fundamental-lemma", str(path))
        assert code == 3
        assert out == ""
        assert "needs dimension 2" in err

    def test_series(self, tmp_path, capsys):
        path = write_fixture(tmp_path, X3)
        code, out, _ = run(capsys, "series", str(path))
        assert code == 0
        assert out == "fiber series: (1 + t + t^2) / (1-t)^2\n"

    def test_series_flags_negative_numerator(self, tmp_path, capsys):
        path = write_fixture(tmp_path, X4)
        code, out, _ = run(capsys, "series", str(path))
        assert code == 0
        assert out.splitlines() == [
            "fiber series: (1 + 2*t + 2*t^2 - t^3) / (1-t)^2",
            "NEGATIVE COEFFICIENT: fiber cone is not Cohen-Macaulay",
        ]

    def test_auto_table_starts_past_the_reduction_number(self, tmp_path, capsys):
        # r = 22 here, so the certified start is N = r = 22 (d = 1): the table
        # runs to N + d = 23, past the reduction number
        path = tmp_path / "ab.fk"
        path.write_text("ring semigroup 23 24\nI 23 24\nJ 23\nK maximal\n")
        code, out, err = run(capsys, "analyze", str(path), "--format", "tree")
        assert (code, err) == (0, "")
        fitted = json.loads(out)["coefficients"]
        code, out, err = run(capsys, "coeffs", str(path))
        assert (code, err) == (0, "")
        postulation = fitted["postulation"]
        assert out.splitlines() == [
            f"{label} = ({', '.join(map(str, fitted[label]))})  "
            f"exact from n = {postulation[label]}  (table through n = 23)"
            for label in "egf"
        ]
        code, out, err = run(capsys, "series", str(path))
        assert (code, err) == (0, "")
        assert out.startswith("fiber series: (1 + t + t^2")
        code, out, err = run(capsys, "check", "depth-g", str(path))
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "graded depth: cohen-macaulay"

    def test_fits_without_j_are_certified(self, tmp_path, capsys):
        # the least valuation t^23 stands in for the missing J
        with_j = tmp_path / "ab.fk"
        with_j.write_text("ring semigroup 23 24\nI 23 24\nJ 23\nK maximal\n")
        without_j = tmp_path / "ab_no_j.fk"
        without_j.write_text("ring semigroup 23 24\nI 23 24\nK maximal\n")
        for command in ("coeffs", "series"):
            code, out, err = run(capsys, command, str(without_j))
            assert (code, err) == (0, "")
            assert out == run(capsys, command, str(with_j))[1]
            if command == "coeffs":
                assert out.splitlines()[0].endswith("(table through n = 23)")
        code, out, err = run(capsys, "coeffs", str(without_j), "--n-max", "22")
        assert (code, out) == (1, "")
        assert "certified from n = 22" in err and "raise n_max" in err

    def test_uncertified_fits_are_labelled(self, tmp_path, capsys):
        # (x^4, y^4) does not reduce (x^4, xy, y^4), so no certificate covers
        # the fit: nothing is called exact
        path = tmp_path / "open.fk"
        path.write_text("ring powerseries x y\nI [4,0] [1,1] [0,4]\n")
        label = "(window-validated through n = 9, not certified)"
        code, out, err = run(capsys, "coeffs", str(path))
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            f"e = (8, 1, 0)  agrees from n = 0  {label}",
            f"g = (8, -1, 1)  agrees from n = 0  {label}",
            f"f = (2, -1)  agrees from n = 0  {label}",
        ]
        code, out, err = run(capsys, "series", str(path))
        assert (code, err) == (0, "")
        assert out == f"fiber series: (1 + t) / (1-t)^2  {label}\n"

    def test_reduction(self, tmp_path, capsys):
        path = write_fixture(tmp_path, X3)
        code, out, _ = run(capsys, "reduction", str(path))
        assert code == 0
        assert out.splitlines() == [
            "r = 2",
            "mu(J) = 2  (minimal reduction)",
            "steps J I_n = I_(n+1) verified for 2 <= n <= 2",
        ]


    def test_reduction_past_fifty(self, tmp_path, capsys):
        path = tmp_path / "ab.fk"
        path.write_text("ring semigroup 53 59\nI 53 59\nJ 53\n")
        code, out, err = run(capsys, "reduction", str(path))
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "r = 52"

    def test_reduction_certified_non_reduction(self, tmp_path, capsys):
        path = tmp_path / "no.fk"
        path.write_text("ring powerseries x y\nI [3,0] [2,1] [0,3]\nJ [3,0] [2,1]\n")
        code, out, err = run(capsys, "reduction", str(path))
        assert (code, out) == (1, "")
        assert "not a reduction" in err

    def test_reduction_decided_by_the_newton_polyhedron(self, tmp_path, capsys):
        path = tmp_path / "no_hull.fk"
        path.write_text(NON_REDUCTION_I + NON_REDUCTION_J)
        code, out, err = run(capsys, "reduction", str(path))
        assert (code, out) == (1, "")
        assert "not a reduction" in err

    def test_coeffs_ignore_a_j_that_is_not_a_reduction(self, tmp_path, capsys):
        # the table starts from r = 0, as without a J
        with_j = tmp_path / "open.fk"
        with_j.write_text(NON_REDUCTION_I + NON_REDUCTION_J)
        without_j = tmp_path / "plain.fk"
        without_j.write_text(NON_REDUCTION_I)
        code, out, err = run(capsys, "coeffs", str(with_j))
        assert (code, err) == (0, "")
        assert run(capsys, "coeffs", str(without_j)) == (0, out, "")


class TestCheckCommand:
    def test_cm_fiber_pass(self, tmp_path, capsys):
        path = write_fixture(tmp_path, X3)
        code, out, _ = run(capsys, "check", "cm-fiber", str(path))
        assert code == 0
        assert out == "fiber-cohen-macaulay: PASS 0 vs 0 (fiber cone is Cohen-Macaulay)\n"

    def test_min_mult_fail_still_exits_zero(self, tmp_path, capsys):
        path = write_fixture(tmp_path, X3)
        code, out, _ = run(capsys, "check", "min-mult", str(path))
        assert code == 0
        assert out.startswith("minimal-multiplicity: FAIL 0 vs -1")

    def test_depth_fiber_gated(self, tmp_path, capsys):
        path = write_fixture(tmp_path, X4)
        code, out, _ = run(capsys, "check", "depth-fiber", str(path))
        assert code == 0
        assert out.startswith("fiber-depth: PRECONDITION_NOT_ESTABLISHED 2 vs 2")

    def test_depth_g(self, tmp_path, capsys):
        path = write_fixture(tmp_path, X3)
        code, out, _ = run(capsys, "check", "depth-g", str(path))
        assert code == 0
        assert out.splitlines() == [
            "graded depth: depth >= dim - 1",
            "e_1 = 3, cm sum = 2, depth sum = 3",
        ]

    def test_check_writes_report_file(self, tmp_path, capsys):
        path = write_fixture(tmp_path, X3)
        report_path = tmp_path / "check.json"
        code, _, _ = run(
            capsys, "check", "cm-fiber", str(path), "--report", str(report_path)
        )
        assert code == 0
        data = json.loads(report_path.read_text())
        assert data["coefficients"]["e"] == [9, 3, 1]

    def test_depth_g_writes_the_analyze_report(self, tmp_path, capsys):
        path = write_fixture(tmp_path, X3)
        analyze_path = tmp_path / "analyze.json"
        depth_path = tmp_path / "depth.json"
        code, _, _ = run(capsys, "analyze", str(path), "--report", str(analyze_path))
        assert code == 0
        code, _, _ = run(
            capsys, "check", "depth-g", str(path), "--report", str(depth_path)
        )
        assert code == 0
        assert depth_path.read_text() == analyze_path.read_text()

    def test_unknown_target_is_usage_error(self, tmp_path, capsys):
        path = write_fixture(tmp_path, X3)
        code, out, err = run(capsys, "check", "wrong-target", str(path))
        assert code == 3
        assert out == ""
        assert "invalid choice" in err


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ("coeffs", X3, "--report", "out.json"),
            ("series", X3, "--report", "out.json"),
            ("fundamental-lemma", X3, "--format", "tree"),
            ("check", "cm-fiber", X3, "--format", "tree"),
            ("reduction", X3, "--n-max", "9"),
            ("selftest", "--n-max", "1"),
            ("selftest", "--format", "tree"),
            ("selftest", "--report", "out.json"),
            ("analyze", X3, "--n-check", "9"),
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_flag_the_command_would_ignore_is_a_usage_error(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        # a flag is registered only on the commands whose handler reads it
        write_fixture(tmp_path, X3)
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert "unrecognized arguments" in err
        assert not (tmp_path / "out.json").exists()


class TestSelftest:
    def test_selftest_passes(self, capsys):
        code, out, err = run(capsys, "selftest")
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines == [f"{name}: ok" for name in _SELFTEST_FIXTURES]


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "analyze", "/no/such/file.fk")
        assert code == 3
        assert out == ""
        assert "cannot read" in err

    def test_parse_error_carries_position(self, tmp_path, capsys):
        path = tmp_path / "bad.fk"
        path.write_text("ring powerseries x y\nI [3,0 [0,3]\nJ [3,0]\n")
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 3
        assert out == ""
        assert "line 2" in err

    def test_semantic_error_j_not_inside_i(self, tmp_path, capsys):
        path = tmp_path / "bad.fk"
        path.write_text(
            "ring powerseries x y\nI [3,0] [2,1] [0,3]\nJ [2,0]\nK maximal\n"
        )
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 3
        assert out == ""
        assert "J must be contained" in err

    def test_unknown_command(self, capsys):
        code, out, err = run(capsys, "bogus")
        assert code == 3
        assert out == ""
        assert "invalid choice" in err

    def test_no_command(self, capsys):
        code, out, err = run(capsys)
        assert code == 3
        assert out == ""

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "analyze" in out and "selftest" in out
