"""Report rendering: JSON tree shape, determinism, and the text layout."""

import json
from pathlib import Path

import pytest

from fibrekit import FiltrationSpec, PowerSeriesRing, analyze, load_spec
from fibrekit.cli import _SELFTEST_FIXTURES
from fibrekit.reporting import as_dict, render_text, render_tree, spec_as_dict
from conftest import fixture_text, make_sg_spec, make_x3_spec, plane_ring
from test_certified_tail import semigroup_corpus_specs
from test_space_corpus import SPACE_CORPUS, space_corpus_spec

GOLDEN = Path(__file__).resolve().parent / "golden"
SCHEMA_DOC = Path(__file__).resolve().parent.parent / "docs" / "report-schema.md"


def schema_doc_keys() -> tuple:
    """(always-present keys, conditional keys): the first cell of each row
    of the two key tables in docs/report-schema.md."""
    tables = {}
    heading = None
    for line in SCHEMA_DOC.read_text(encoding="utf-8").splitlines():
        if line.startswith("## "):
            heading = line[3:]
        elif line.startswith("| `"):
            tables.setdefault(heading, set()).add(line.split("`")[1])
    return tables["Top-level keys (always present)"], tables["Conditional keys"]


class TestAsDict:
    def test_x3_top_level_keys(self, x3_report):
        d = as_dict(x3_report)
        assert sorted(d.keys()) == [
            "coefficients",
            "criteria",
            "dimension",
            "fundamental_lemma",
            "graded_depth",
            "input",
            "minimal_multiplicity",
            "reduction",
            "series",
            "table",
            "v_sequence",
        ]

    def test_x3_values(self, x3_report):
        d = as_dict(x3_report)
        assert d["input"] == {
            "ring": {"model": "powerseries", "variables": ["x", "y"]},
            "I": [[0, 3], [2, 1], [3, 0]],
            "K": "maximal",
            "mode": "adic",
            "J": [[0, 3], [3, 0]],
        }
        assert d["dimension"] == 2
        assert d["reduction"] == {
            "r": 2,
            "mu": 2,
            "is_minimal": True,
            "checked_through": 2,
        }
        assert d["table"]["n_max"] == 8
        assert d["table"]["H"] == [0, 7, 22, 46, 79, 121, 172, 232, 301]
        assert d["table"]["H_K"][:4] == [1, 10, 28, 55]
        assert d["table"]["H_F"] == [1, 3, 6, 9, 12, 15, 18, 21, 24]
        assert d["coefficients"]["e"] == [9, 3, 1]
        assert d["coefficients"]["g"] == [9, 0, 1]
        assert d["coefficients"]["f"] == [3, 0]
        assert d["coefficients"]["postulation"] == {"e": 1, "g": 0, "f": 1}
        assert d["series"] == {
            "numerator": [1, 1, 1],
            "pole_order": 2,
            "has_negative_coefficient": False,
        }
        assert d["graded_depth"] == {
            "classification": "DEPTH_GE_DIM_MINUS_1",
            "e1": 3,
            "cm_sum": 2,
            "depth_sum": 3,
        }
        assert d["minimal_multiplicity"] == {
            "relative": False,
            "g1_relative": False,
            "classic": False,
            "g1_classic": False,
        }
        assert d["v_sequence"] == {"values": [9] + [0] * 8, "g1": 0, "g2": 1}
        assert [row["n"] for row in d["fundamental_lemma"]] == list(range(2, 9))
        assert all(row["lhs"] == row["rhs"] == 0 for row in d["fundamental_lemma"])

    def test_x3_criterion_entries(self, x3_report):
        d = as_dict(x3_report)
        assert d["criteria"][0] == {
            "name": "g1-lower-bound",
            "status": "PASS",
            "lhs": 0,
            "rhs": 0,
            "note": "g_1 >= lower length sum",
            # the last degree read: "G depth" at checked_through + 1 = r + 1
            "bound": 3,
        }
        by_name = {c["name"]: c for c in d["criteria"]}
        assert by_name["minimal-multiplicity"]["status"] == "FAIL"
        assert by_name["fiber-multiplicity-bound"]["note"] == (
            "f_0 <= e_1 - e_0 + len(R/I) + mu(I) - dim + 1"
        )

    def test_x4_statuses(self, x4_report):
        d = as_dict(x4_report)
        assert [c["status"] for c in d["criteria"]] == [
            "PASS",
            "PASS",
            "PRECONDITION_NOT_ESTABLISHED",
            "PRECONDITION_NOT_ESTABLISHED",
            "FAIL",
            "PASS",
        ]
        assert d["series"]["numerator"] == [1, 2, 2, -1]
        assert d["series"]["has_negative_coefficient"] is True
        assert d["graded_depth"]["classification"] == "LOW"

    def test_semigroup_shape(self, sg_report):
        d = as_dict(sg_report)
        assert d["input"] == {
            "ring": {"model": "semigroup", "generators": [4, 5, 6, 7]},
            "I": [4, 5, 6],
            "K": "maximal",
            "mode": "adic",
            "J": [4],
        }
        assert d["dimension"] == 1
        assert "v_sequence" not in d
        assert "fundamental_lemma" not in d
        assert d["g1_onedim"] == -1
        assert d["equivalences"] == {
            "graded_cm": False,
            "fiber_cm_and_r_le_1": False,
            "r_le_1": False,
        }

    def test_json_ready_and_round_trip(self, x3_report, sg_report):
        for report in (x3_report, sg_report):
            tree = render_tree(report)
            assert json.loads(tree) == as_dict(report)

    def test_deterministic_across_recomputation(self, x3_report):
        again = analyze(make_x3_spec())
        assert render_tree(again) == render_tree(x3_report)

    def test_deterministic_semigroup(self, sg_report):
        assert render_tree(analyze(make_sg_spec())) == render_tree(sg_report)


class TestSpecAsDict:
    def test_truncated_spec_records_terms(self):
        ring = plane_ring()
        i = ring.ideal([(2, 0), (0, 2)])
        m4 = ring.maximal_ideal() ** 4
        spec = FiltrationSpec(i, J=i, truncated_terms=(i, m4))
        d = spec_as_dict(spec)
        assert d["mode"] == "truncated"
        assert d["terms"] == [
            [[0, 2], [2, 0]],
            [[0, 4], [1, 3], [2, 2], [3, 1], [4, 0]],
        ]

    def test_whole_ring_k_and_missing_j(self):
        ring = plane_ring()
        i = ring.ideal([(3, 0), (2, 1), (0, 3)])
        spec = FiltrationSpec(i, K=ring.unit_ideal())
        d = spec_as_dict(spec)
        assert d["K"] == [[0, 0]]
        assert d["J"] is None
        assert "terms" not in d

    @pytest.mark.parametrize(
        "head, k_lines",
        [
            (
                "ring powerseries x y\nI [3,0] [2,1] [0,3]\nJ [3,0] [0,3]\n",
                ("K [1,0] [0,1]", "K [0,1] [1,0]"),
            ),
            ("ring semigroup 4 5 6 7\nI 4 5 6\nJ 4\n", ("K 4 5 6 7",)),
        ],
        ids=["plane", "semigroup"],
    )
    def test_k_listed_as_m_renders_as_maximal(self, head, k_lines):
        def renders(k_line):
            report = analyze(load_spec(head + k_line + "\n")[1])
            return render_tree(report), render_text(report)

        maximal = renders("K maximal")
        assert '"K": "maximal"' in maximal[0] and "[maximal]" in maximal[1]
        for k_line in k_lines:
            assert renders(k_line) == maximal


class TestRenderText:
    def test_x3_lines(self, x3_report):
        text = render_text(x3_report)
        assert text.endswith("\n")
        lines = text.splitlines()
        assert lines[0] == "ring            k[[x, y]]"
        assert "I               (y^3, x^2*y, x^3)" in lines
        assert "K               (y, x)  [maximal]" in lines
        assert (
            "reduction       r = 2, mu(J) = 2 (minimal), "
            "steps verified through n = 2"
        ) in lines
        assert "H    len(R/I_n)      0      7     22     46     79    121    172    232    301" in lines
        assert "e               (9, 3, 1)  exact from n = 1" in lines
        assert "g               (9, 0, 1)  exact from n = 0" in lines
        assert "v               (9, 0, 0, 0, 0, 0, 0, 0, 0)" in lines
        assert "                sums: g_1 = 0, g_2 = 1" in lines
        assert "fiber series    (1 + t + t^2) / (1-t)^2" in lines
        assert (
            "graded depth    depth >= dim - 1  "
            "(e_1 = 3, cm sum = 2, depth sum = 3)"
        ) in lines
        assert "second-difference identity (lhs = rhs for every n):" in lines
        assert any(
            line.startswith("    minimal-multiplicity      FAIL  [0 vs -1]")
            for line in lines
        )

    def test_x4_negative_series_flag(self, x4_report):
        text = render_text(x4_report)
        assert (
            "fiber series    (1 + 2*t + 2*t^2 - t^3) / (1-t)^2"
            "  [negative coefficient: fiber cone not Cohen-Macaulay]"
        ) in text
        assert "graded depth    depth < dim - 1" in text
        assert (
            "PRECONDITION_NOT_ESTABLISHED  [2 vs 2]  "
            "graded depth below dim - 1: equality holds but carries no verdict"
        ) in text

    def test_semigroup_lines(self, sg_report):
        text = render_text(sg_report)
        assert "ring            k[[t^4, t^5, t^6, t^7]]" in text
        assert "g_1 (lengths)   -1" in text
        assert "second-difference" not in text
        assert "v    " not in text
        assert (
            "minimal-multiplicity-equivalences  PASS  [0 vs 0]  "
            "all three conditions fail (r = 2)"
        ) in text
        assert (
            "min mult        K I = K J: True; g_1 = -len(R/K): True; "
            "classic: True; g_1 = -1: True"
        ) in text


class TestGoldenReports:
    """The JSON report of each packaged fixture, byte for byte as committed
    in tests/golden/<name>.json. A deliberate change to the report
    regenerates them with `fibrekit analyze src/fibrekit/fixtures/<name>.fk
    --report tests/golden/<name>.json`."""

    @pytest.mark.parametrize("name", _SELFTEST_FIXTURES)
    def test_report_is_byte_identical_to_golden(self, name):
        _, spec = load_spec(fixture_text(name))
        tree = render_tree(analyze(spec)) + "\n"
        golden = (GOLDEN / name.replace(".fk", ".json")).read_bytes()
        assert tree.encode("utf-8") == golden

    @pytest.mark.parametrize("name", _SELFTEST_FIXTURES)
    def test_schema_doc_lists_the_golden_keys(self, name):
        always, conditional = schema_doc_keys()
        assert always and conditional and not always & conditional
        keys = set(json.loads((GOLDEN / name.replace(".fk", ".json")).read_text()))
        assert keys <= always | conditional, keys - always - conditional
        assert always <= keys, always - keys


def oracle(value) -> str:
    return json.dumps(value, indent=2)


class TestRenderTreeAgainstJson:
    """render_tree's section templates against json.dumps(as_dict(report),
    indent=2) as an oracle: the report must stay byte-identical to it, in
    every conditional section and in the input of a truncated spec, and a
    value of the wrong type in any slot must raise, not render."""

    def test_fixture_reports(self, x3_report, x4_report, sg_report):
        for report in (x3_report, x4_report, sg_report):
            assert render_tree(report) == oracle(as_dict(report))

    def test_plane_corpus_reports(self, corpus):
        for inst in corpus.instances:
            for report in (inst.report_m, inst.report_r):
                assert render_tree(report) == oracle(as_dict(report))

    def test_space_corpus_reports(self):
        for gens in SPACE_CORPUS:
            report = analyze(space_corpus_spec(gens))
            assert render_tree(report) == oracle(as_dict(report))

    def test_semigroup_corpus_reports(self):
        for spec in semigroup_corpus_specs():
            report = analyze(spec)
            assert render_tree(report) == oracle(as_dict(report))

    def test_non_ascii_variable_names_are_escaped(self):
        ring = PowerSeriesRing("α", "β")
        i = ring.ideal([(2, 0), (1, 1), (0, 2)])
        report = analyze(FiltrationSpec(i, J=ring.ideal([(2, 0), (0, 2)])))
        tree = render_tree(report)
        assert tree == oracle(as_dict(report))
        assert tree.isascii() and '"\\u03b1"' in tree

    def test_truncated_report(self):
        ring = plane_ring()
        i = ring.ideal([(2, 0), (0, 2)])
        m4 = ring.maximal_ideal() ** 4
        report = analyze(FiltrationSpec(i, J=i, truncated_terms=(i, m4)))
        tree = render_tree(report)
        assert tree == oracle(as_dict(report))
        assert '"terms": [' in tree

    @pytest.mark.parametrize("make_spec", [make_x3_spec, make_sg_spec], ids=["plane", "semigroup"])
    def test_k_is_i1_given_as_generators(self, make_spec):
        i1 = make_spec().I
        report = analyze(make_spec(k=i1.ring.ideal(i1.minimal_generators())))
        assert not report.spec.k_is_maximal
        assert render_tree(report) == oracle(as_dict(report))

    @pytest.mark.parametrize(
        "value", [1.0, {1, 2}, object(), (1, 2), [0, 0.5], {"x": {3}}, {1: 2}, True]
    )
    def test_other_types_raise(self, x3_report, value):
        for slot in ("table.h", "criterion.lhs"):
            with pytest.raises(TypeError):
                render_tree(_replace_slot(x3_report, slot, value))

    @pytest.mark.parametrize(
        "slot, value",
        [
            ("reduction.r", True),
            ("lemma_row.rhs", False),
            ("criterion.bound", 2.0),
            ("criterion.note", 5),
            ("minimal_multiplicity.relative", 0),
        ],
    )
    def test_wrong_type_in_any_slot_raises(self, x3_report, slot, value):
        with pytest.raises(TypeError):
            render_tree(_replace_slot(x3_report, slot, value))

    def test_empty_lists(self, x3_report):
        report = x3_report._replace(
            criteria=(), series=x3_report.series._replace(numerator=())
        )
        tree = render_tree(report)
        assert tree == oracle(as_dict(report))
        assert '"criteria": []' in tree and '"numerator": []' in tree


def _replace_slot(report, slot: str, value):
    """report with one field of the tree replaced by value."""
    if slot == "table.h":
        return report._replace(table=report.table._replace(h=(value, *report.table.h[1:])))
    if slot.startswith("criterion."):
        first = report.criteria[0]._replace(**{slot.split(".")[1]: value})
        return report._replace(criteria=(first, *report.criteria[1:]))
    if slot == "lemma_row.rhs":
        first = report.lemma_rows[0]._replace(rhs=value)
        return report._replace(lemma_rows=(first, *report.lemma_rows[1:]))
    section, field = slot.split(".")
    return report._replace(**{section: getattr(report, section)._replace(**{field: value})})
