"""Input-file parser: grammar, positions, defaults, spec building."""

import pytest

from fibrekit import (
    CriterionStatus,
    InputError,
    ParseError,
    analyze,
    load_spec,
    parse_input,
)

X3_TEXT = """\
# power-series example
ring powerseries x y
I [3,0] [2,1] [0,3]
J [3,0] [0,3]
n_max 8
"""

SG_TEXT = """\
ring semigroup 4 5 6 7
I 4 5 6
J 4
"""


def err(text):
    with pytest.raises(ParseError) as excinfo:
        parse_input(text)
    return excinfo.value


class TestHappyPaths:
    def test_powerseries_document(self):
        doc = parse_input(X3_TEXT)
        assert doc.ring.variables == ("x", "y")
        assert doc.i_gens == [(3, 0), (2, 1), (0, 3)]
        assert doc.j_gens == [(3, 0), (0, 3)]
        assert doc.k_gens == "maximal"
        assert doc.n_max == 8
        assert doc.fmt == "text"

    def test_semigroup_document(self):
        doc = parse_input(SG_TEXT)
        assert doc.ring.generators == (4, 5, 6, 7)
        assert doc.i_gens == [4, 5, 6]
        assert doc.j_gens == [4]

    def test_spec_building(self):
        doc, spec = load_spec(X3_TEXT)
        assert spec.I == doc.ring.ideal([(3, 0), (2, 1), (0, 3)])
        assert spec.K == doc.ring.maximal_ideal()
        assert spec.n_max == 8

    def test_explicit_k_and_format(self):
        text = (
            "ring powerseries x y\n"
            "I [2,0] [0,2]\n"
            "K [1,0] [0,1]\n"
            "format tree\n"
        )
        doc, spec = load_spec(text)
        assert doc.fmt == "tree"
        assert spec.K == doc.ring.maximal_ideal()

    def test_k_maximal_keyword(self):
        text = "ring powerseries x y\nI [2,0] [0,2]\nK maximal\n"
        doc, spec = load_spec(text)
        assert spec.K == doc.ring.maximal_ideal()

    def test_comments_blanks_and_separators(self):
        text = (
            "\n"
            "# leading comment\n"
            "ring powerseries x y   # trailing comment\n"
            "\n"
            "I [3 0], [2 1], [0 3]\n"
        )
        doc = parse_input(text)
        assert doc.i_gens == [(3, 0), (2, 1), (0, 3)]

    def test_one_variable_power_series_end_to_end(self):
        text = "ring powerseries x\nI [3]\nJ [3]\nK maximal\n"
        doc, spec = load_spec(text)
        assert spec.I.gens == ((3,),) and spec.K == doc.ring.maximal_ideal()
        report = analyze(spec)
        assert report.e0 == 3 and report.reduction.r == 0
        # d = 1 and r = 0: the polynomials are certified from n = 0 and the
        # table stops at n = 1; H(2), H(3), H_K(2), H_K(3) come off the fit
        assert report.coefficients.certified_from == 0
        assert report.table.h == (0, 3) and report.table.hk == (1, 4)
        e, g = report.coefficients.e, report.coefficients.g
        assert [e.value(n) for n in (2, 3)] == [6, 9]
        assert [g.value(n) for n in (2, 3)] == [7, 10]
        assert report.coefficients.g.coefficients == (3, -1)
        assert all(c.status is CriterionStatus.PASS for c in report.criteria)


class TestPositions:
    def test_semigroup_gcd_position(self):
        e = err("ring semigroup 4 6\nI 4\n")
        assert (e.line, e.column) == (1, 16)
        assert "gcd" in e.bare_message
        assert str(e).startswith("line 1, column 16: ")

    def test_unclosed_bracket_position(self):
        e = err("ring powerseries x y\nI [3,0\n")
        assert (e.line, e.column) == (2, 3)
        assert "unclosed" in e.bare_message
        # a '[' left open after a comma
        e = err("ring powerseries x y\nI [2,0],[0,2\n")
        assert (e.line, e.column) == (2, 9)
        assert e.bare_message == "unclosed '['"
        e = err("ring powerseries x y\nI [2,0], [\n")
        assert (e.line, e.column) == (2, 10)

    def test_adjacent_groups_are_two_generators(self):
        assert parse_input("ring powerseries x y\nI [3,0][0,3]\n").i_gens == [(3, 0), (0, 3)]
        # each group keeps its own column
        e = err("ring powerseries x y\nI [3,0][0,a]\n")
        assert (e.line, e.column) == (2, 8)
        e = err("ring powerseries x y\nI [3,0][1,2,3]\n")
        assert (e.line, e.column) == (2, 8)
        assert "3 entries" in e.bare_message

    def test_stray_closing_bracket_is_a_token(self):
        e = err("ring powerseries x y\nI [2,0] ]\n")
        assert (e.line, e.column) == (2, 9)
        assert e.bare_message == "expected a bracketed exponent vector, got ']'"
        e = err("ring semigroup 4 5 6 7\nI 4]\n")
        assert (e.line, e.column) == (2, 3)
        assert e.bare_message == "expected an integer, got '4]'"

    def test_tab_separators(self):
        doc = parse_input("ring\tpowerseries\tx\ty\nI\t[2,0]\t[0\t2]\n")
        assert doc.i_gens == [(2, 0), (0, 2)]
        e = err("ring\tpowerseries x y\nI\t[2,0]\t3\n")
        assert (e.line, e.column) == (2, 9)

    def test_duplicate_directive(self):
        e = err("ring powerseries x y\nI [2,0]\nI [0,2]\n")
        assert e.line == 3
        assert "duplicate directive 'I'" in e.bare_message
        assert "first on line 2" in e.bare_message

    def test_missing_ring(self):
        e = err("I [2,0] [0,2]\n")
        assert "before the ring line" in e.bare_message
        e = err("n_max 3\n")
        assert (e.line, e.column) == (1, 1)
        assert "no ring line" in e.bare_message

    def test_comma_only_line_position(self):
        e = err("ring powerseries x y\n  ,\nI [2,0] [0,2]\n")
        assert (e.line, e.column) == (2, 3)
        assert "found only commas" in e.bare_message
        e = err("ring powerseries x y\n,\nI [2,0] [0,2]\n")
        assert (e.line, e.column) == (2, 1)

    def test_missing_i(self):
        e = err("ring powerseries x y\n")
        assert (e.line, e.column) == (1, 1)
        assert "no I line" in e.bare_message


class TestDirectiveValidation:
    def test_unknown_directive(self):
        assert "unknown directive 'foo'" in err(
            "ring powerseries x y\nI [2,0] [0,2]\nfoo 1\n"
        ).bare_message

    def test_n_check_is_an_unknown_directive(self):
        # the Valabrega-Valla certificate stops at the reduction number by
        # proof, so there is no probe depth to set
        for value in ("9", "0"):
            e = err(f"ring powerseries x y\nI [2,0] [0,2]\nn_check {value}\n")
            assert (e.line, e.column) == (3, 1)
            assert "unknown directive 'n_check'" in e.bare_message

    def test_unknown_ring_model(self):
        assert "unknown ring model" in err("ring widget 3\nI 3\n").bare_message

    def test_ring_needs_model_and_args(self):
        assert "ring needs a model" in err("ring\nI 3\n").bare_message
        assert "variable names" in err("ring powerseries\nI 3\n").bare_message
        assert "semigroup needs generators" in err("ring semigroup\nI 3\n").bare_message

    def test_duplicate_variable_names(self):
        e = err("ring powerseries x x\nI [2,0]\n")
        assert "distinct" in e.bare_message

    def test_generator_shape_mismatches(self):
        assert "bracketed exponent vector" in err(
            "ring powerseries x y\nI 3\n"
        ).bare_message
        assert "bare integers" in err(
            "ring semigroup 4 5 6 7\nI [4]\n"
        ).bare_message
        assert "exponent vector has 3 entries" in err(
            "ring powerseries x y\nI [1,2,3]\n"
        ).bare_message
        assert "empty exponent vector" in err(
            "ring powerseries x y\nI []\n"
        ).bare_message
        assert "at least one generator" in err(
            "ring powerseries x y\nI\n"
        ).bare_message

    def test_semigroup_membership_enforced(self):
        e = err("ring semigroup 4 5 6 7\nI 3\n")
        assert "not a member" in e.bare_message

    def test_integer_validation(self):
        assert "expected an integer" in err(
            "ring powerseries x y\nI [2,a]\n"
        ).bare_message
        assert "integer >= 0" in err(
            "ring powerseries x y\nI [2,-1]\n"
        ).bare_message
        assert "n_max takes one integer" in err(
            "ring powerseries x y\nI [2,0] [0,2]\nn_max 3 4\n"
        ).bare_message
        assert "integer >= 0" in err(
            "ring powerseries x y\nI [2,0] [0,2]\nn_max -1\n"
        ).bare_message

    def test_format_validation(self):
        assert "format is 'text' or 'tree'" in err(
            "ring powerseries x y\nI [2,0] [0,2]\nformat json\n"
        ).bare_message


class TestSemanticErrorsFromSpec:
    def test_j_not_inside_i(self):
        text = "ring powerseries x y\nI [2,0] [0,2]\nJ [1,0]\n"
        with pytest.raises(InputError) as excinfo:
            load_spec(text)
        assert "J must be contained" in str(excinfo.value)

    def test_parse_errors_are_input_errors(self):
        # the exit-code contract groups parse errors with input errors
        assert issubclass(ParseError, InputError)
        assert ParseError("x").exit_code == 3
