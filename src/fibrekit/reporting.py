"""Rendering of analysis results: aligned text for terminals, a JSON tree
for machines. The tree layout is documented in docs/report-schema.md and is
stable: tests round-trip it.

as_dict flattens a report to plain data and is the reference for the tree:
render_tree writes the same layout as text, one f-string template per
section, and must stay byte-identical to `json.dumps(as_dict(report),
indent=2)`, which the oracle tests check.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii

from .criteria import AnalysisReport
from .filtration import FiltrationSpec
from .rings import PowerSeriesRing


def describe_ring(ring) -> dict:
    if isinstance(ring, PowerSeriesRing):
        return {"model": "powerseries", "variables": list(ring.variables)}
    return {"model": "semigroup", "generators": list(ring.generators)}


def _ideal_generators(ideal) -> list:
    gens = ideal.minimal_generators()
    if isinstance(ideal.ring, PowerSeriesRing):
        return [list(g) for g in gens]
    return list(gens)


def spec_as_dict(spec: FiltrationSpec) -> dict:
    out = {
        "ring": describe_ring(spec.ring),
        "I": _ideal_generators(spec.I),
        "K": "maximal" if spec.k_is_maximal else _ideal_generators(spec.K),
        "mode": spec.mode,
    }
    out["J"] = _ideal_generators(spec.J) if spec.J is not None else None
    if spec.mode == "truncated":
        out["terms"] = [_ideal_generators(t) for t in spec.explicit]
    return out


def as_dict(report: AnalysisReport) -> dict:
    """Flatten a report to JSON-ready data: ints, strings, lists, null."""
    c = report.coefficients
    out = {
        "input": spec_as_dict(report.spec),
        "dimension": report.dim,
        "reduction": {
            "r": report.reduction.r,
            "mu": report.reduction.mu,
            "is_minimal": report.reduction.is_minimal,
            "checked_through": report.reduction.checked_through,
        },
        "table": {
            "n_max": report.table.n_max,
            "H": list(report.table.h),
            "H_K": list(report.table.hk),
            "H_F": list(report.table.hf),
        },
        "coefficients": {
            "e": list(c.e.coefficients),
            "g": list(c.g.coefficients),
            "f": list(c.f.coefficients),
            "postulation": {
                "e": c.e.postulation,
                "g": c.g.postulation,
                "f": c.f.postulation,
            },
            "certified_from": c.certified_from,
        },
        "series": {
            "numerator": list(report.series.numerator),
            "pole_order": report.series.pole_order,
            "has_negative_coefficient": report.series.has_negative,
        },
        "graded_depth": {
            "classification": report.graded_depth.classification.name,
            "e1": report.graded_depth.e1,
            "cm_sum": report.graded_depth.cm_sum,
            "depth_sum": report.graded_depth.depth_sum,
        },
        "minimal_multiplicity": {
            "relative": report.minimal_multiplicity.relative,
            "g1_relative": report.minimal_multiplicity.g1_relative,
            "classic": report.minimal_multiplicity.classic,
            "g1_classic": report.minimal_multiplicity.g1_classic,
        },
        "criteria": [
            {
                "name": cr.name,
                "status": cr.status.value,
                "lhs": cr.lhs,
                "rhs": cr.rhs,
                "note": cr.note,
                "bound": cr.bound,
            }
            for cr in report.criteria
        ],
    }
    if report.v is not None:
        out["v_sequence"] = {
            "values": list(report.v.values),
            "g1": report.v.g1,
            "g2": report.v.g2,
        }
    if report.lemma_rows:
        out["fundamental_lemma"] = [
            {"n": row.n, "lhs": row.lhs, "rhs": row.rhs} for row in report.lemma_rows
        ]
    if report.equivalences is not None:
        out["equivalences"] = {
            "graded_cm": report.equivalences.graded_cm,
            "fiber_cm_and_r_le_1": report.equivalences.fiber_cm_and_r_le_1,
            "r_le_1": report.equivalences.r_le_1,
        }
    if report.g1_onedim_value is not None:
        out["g1_onedim"] = report.g1_onedim_value
    return out


# slot types, matched exactly: a bool is not an int here
_INT = frozenset((int,))
_OPT_INT = frozenset((int, type(None)))
_BOOL = frozenset((bool,))

_JSON_BOOL = {True: "true", False: "false"}

# the indentation of a line one, two and three levels into the tree
_IN1 = "  "
_IN2 = "    "
_IN3 = "      "

# a str slot; raises TypeError on anything but a str
_str = encode_basestring_ascii


def render_tree(report: AnalysisReport) -> str:
    """The report as JSON text, byte-identical to
    `json.dumps(as_dict(report), indent=2)`, without a trailing newline.

    The layout of docs/report-schema.md is written straight from the report's
    fields, one f-string template per section, with no intermediate dict;
    as_dict is the reference it must match, and the oracle tests hold it to
    that. Each slot takes exactly the type as_dict puts there: an int slot
    an int (a bool, float or tuple there is a TypeError), a str slot a str,
    a bool slot a bool, and null only where the field is optional."""
    red = report.reduction
    table = report.table
    c = report.coefficients
    series = report.series
    gd = report.graded_depth
    mm = report.minimal_multiplicity
    _require(
        (
            report.dim, red.r, red.mu, red.checked_through, table.n_max,
            c.e.postulation, c.g.postulation, c.f.postulation,
            series.pole_order, gd.e1, gd.cm_sum, gd.depth_sum,
        ),
        _INT,
    )
    _require((red.is_minimal, series.has_negative, *mm), _BOOL)
    _require((c.certified_from,), _OPT_INT)
    out = [
        f"""{{
  "input": {_input(report.spec)},
  "dimension": {report.dim},
  "reduction": {{
    "r": {red.r},
    "mu": {red.mu},
    "is_minimal": {_JSON_BOOL[red.is_minimal]},
    "checked_through": {red.checked_through}
  }},
  "table": {{
    "n_max": {table.n_max},
    "H": {_ints(table.h, _IN2)},
    "H_K": {_ints(table.hk, _IN2)},
    "H_F": {_ints(table.hf, _IN2)}
  }},
  "coefficients": {{
    "e": {_ints(c.e.coefficients, _IN2)},
    "g": {_ints(c.g.coefficients, _IN2)},
    "f": {_ints(c.f.coefficients, _IN2)},
    "postulation": {{
      "e": {c.e.postulation},
      "g": {c.g.postulation},
      "f": {c.f.postulation}
    }},
    "certified_from": {"null" if c.certified_from is None else c.certified_from}
  }},
  "series": {{
    "numerator": {_ints(series.numerator, _IN2)},
    "pole_order": {series.pole_order},
    "has_negative_coefficient": {_JSON_BOOL[series.has_negative]}
  }},
  "graded_depth": {{
    "classification": {_str(gd.classification.name)},
    "e1": {gd.e1},
    "cm_sum": {gd.cm_sum},
    "depth_sum": {gd.depth_sum}
  }},
  "minimal_multiplicity": {{
    "relative": {_JSON_BOOL[mm.relative]},
    "g1_relative": {_JSON_BOOL[mm.g1_relative]},
    "classic": {_JSON_BOOL[mm.classic]},
    "g1_classic": {_JSON_BOOL[mm.g1_classic]}
  }},
  "criteria": {_list([_criterion(cr) for cr in report.criteria], _IN1)}"""
    ]
    add = out.append
    v = report.v
    if v is not None:
        _require((v.g1, v.g2), _INT)
        add(
            f""",
  "v_sequence": {{
    "values": {_ints(v.values, _IN2)},
    "g1": {v.g1},
    "g2": {v.g2}
  }}"""
        )
    if report.lemma_rows:
        rows = [_lemma_row(row) for row in report.lemma_rows]
        add(f""",
  "fundamental_lemma": {_list(rows, _IN1)}""")
    eq = report.equivalences
    if eq is not None:
        _require(eq, _BOOL)
        add(
            f""",
  "equivalences": {{
    "graded_cm": {_JSON_BOOL[eq.graded_cm]},
    "fiber_cm_and_r_le_1": {_JSON_BOOL[eq.fiber_cm_and_r_le_1]},
    "r_le_1": {_JSON_BOOL[eq.r_le_1]}
  }}"""
        )
    if report.g1_onedim_value is not None:
        _require((report.g1_onedim_value,), _INT)
        add(f""",
  "g1_onedim": {report.g1_onedim_value}""")
    add("\n}")
    return "".join(out)


def _input(spec: FiltrationSpec) -> str:
    """The `input` object, laid out as spec_as_dict builds it."""
    ring = spec.ring
    if isinstance(ring, PowerSeriesRing):
        ring_text = f"""{{
      "model": "powerseries",
      "variables": {_list(list(map(_str, ring.variables)), _IN3)}
    }}"""
    else:
        ring_text = f"""{{
      "model": "semigroup",
      "generators": {_ints(ring.generators, _IN3)}
    }}"""
    k_text = '"maximal"' if spec.k_is_maximal else _generators(spec.K, _IN2)
    j_text = _generators(spec.J, _IN2) if spec.J is not None else "null"
    text = f"""{{
    "ring": {ring_text},
    "I": {_generators(spec.I, _IN2)},
    "K": {k_text},
    "mode": {_str(spec.mode)},
    "J": {j_text}"""
    if spec.mode == "truncated":
        terms = [_generators(t, _IN3) for t in spec.explicit]
        text += f""",
    "terms": {_list(terms, _IN2)}"""
    return text + "\n  }"


def _criterion(cr) -> str:
    name, status, lhs, rhs, note, bound = cr
    _require((lhs, rhs, bound), _OPT_INT)
    return f"""{{
      "name": {_str(name)},
      "status": {_str(status.value)},
      "lhs": {"null" if lhs is None else lhs},
      "rhs": {"null" if rhs is None else rhs},
      "note": {_str(note)},
      "bound": {"null" if bound is None else bound}
    }}"""


def _lemma_row(row) -> str:
    _require(row, _INT)
    n, lhs, rhs = row
    return f"""{{
      "n": {n},
      "lhs": {lhs},
      "rhs": {rhs}
    }}"""


def _require(values, types: frozenset) -> None:
    """Raise TypeError unless the exact type of every value is in types."""
    if not types.issuperset(map(type, values)):
        bad = next(value for value in values if type(value) not in types)
        raise TypeError(f"cannot render a {type(bad).__name__} in this slot of a report")


def _list(texts: list, indent: str) -> str:
    """A list opened on a line indented by indent, from its rendered items."""
    if not texts:
        return "[]"
    inner = indent + "  "
    return "[\n" + inner + (",\n" + inner).join(texts) + "\n" + indent + "]"


def _ints(values, indent: str) -> str:
    """A list of ints opened on a line indented by indent."""
    if not values:
        return "[]"
    # int.__repr__ alone would pass a bool as "1" or "0"
    _require(values, _INT)
    inner = indent + "  "
    return "[\n" + inner + (",\n" + inner).join(map(int.__repr__, values)) + "\n" + indent + "]"


def _generators(ideal, indent: str) -> str:
    """The minimal generators of ideal, listed as spec_as_dict lists them."""
    gens = ideal.minimal_generators()
    if isinstance(ideal.ring, PowerSeriesRing):
        return _list([_ints(g, indent + "  ") for g in gens], indent)
    return _ints(gens, indent)


def _coeff_tuple(values) -> str:
    return "(" + ", ".join(str(v) for v in values) + ")"


def render_text(report: AnalysisReport) -> str:
    """Human-readable multi-section report."""
    spec = report.spec
    c = report.coefficients
    lines = []
    add = lines.append
    add(f"ring            {spec.ring}")
    add(f"I               {spec.I}")
    add(f"J               {spec.J if spec.J is not None else '(none)'}")
    k_label = str(spec.K)
    if spec.k_is_maximal:
        k_label += "  [maximal]"
    add(f"K               {k_label}")
    add(f"mode            {spec.mode}")
    add(f"dimension       {report.dim}")
    add("")
    red = report.reduction
    add(
        f"reduction       r = {red.r}, mu(J) = {red.mu}"
        f"{' (minimal)' if red.is_minimal else ''}, "
        f"steps verified through n = {red.checked_through}"
    )
    add("")
    add("n               " + " ".join(f"{n:>6}" for n in range(report.table.n_max + 1)))
    add("H    len(R/I_n) " + " ".join(f"{v:>6}" for v in report.table.h))
    add("H_K  len(R/KI_n)" + " ".join(f"{v:>6}" for v in report.table.hk))
    add("H_F  len(I_n/KI)" + " ".join(f"{v:>6}" for v in report.table.hf))
    add("")
    add(f"e               {_coeff_tuple(c.e.coefficients)}  exact from n = {c.e.postulation}")
    add(f"g               {_coeff_tuple(c.g.coefficients)}  exact from n = {c.g.postulation}")
    add(f"f               {_coeff_tuple(c.f.coefficients)}  exact from n = {c.f.postulation}")
    add(f"fit             certified from n = {c.certified_from}")
    if report.v is not None:
        add(f"v               {_coeff_tuple(report.v.values)}")
        add(f"                sums: g_1 = {report.v.g1}, g_2 = {report.v.g2}")
    if report.g1_onedim_value is not None:
        add(f"g_1 (lengths)   {report.g1_onedim_value}")
    add("")
    neg = "  [negative coefficient: fiber cone not Cohen-Macaulay]" if report.series.has_negative else ""
    add(f"fiber series    {report.series}{neg}")
    gd = report.graded_depth
    add(
        f"graded depth    {gd.classification.value}  "
        f"(e_1 = {gd.e1}, cm sum = {gd.cm_sum}, depth sum = {gd.depth_sum})"
    )
    mm = report.minimal_multiplicity
    add(
        "min mult        "
        f"K I = K J: {mm.relative}; g_1 = -len(R/K): {mm.g1_relative}; "
        f"classic: {mm.classic}; g_1 = -1: {mm.g1_classic}"
    )
    if report.lemma_rows:
        add("")
        add("second-difference identity (lhs = rhs for every n):")
        for row in report.lemma_rows:
            add(f"    n = {row.n:<3} lhs = {row.lhs:<6} rhs = {row.rhs}")
    add("")
    add("criteria:")
    width = max(len(cr.name) for cr in report.criteria)
    for cr in report.criteria:
        sides = ""
        if cr.lhs is not None:
            sides = f"  [{cr.lhs} vs {cr.rhs}]"
        note = f"  {cr.note}" if cr.note else ""
        add(f"    {cr.name:<{width}}  {cr.status.value}{sides}{note}")
    return "\n".join(lines) + "\n"
