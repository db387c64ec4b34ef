"""Rendering of analysis results: aligned text for terminals, a JSON tree
for machines. The tree layout is documented in docs/report-schema.md and is
stable: tests round-trip it.
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


def render_tree(report: AnalysisReport) -> str:
    """The report as JSON text, byte-identical to
    `json.dumps(as_dict(report), indent=2)`, without a trailing newline."""
    out = []
    _emit(as_dict(report), out, "\n")
    return "".join(out)


def _emit(value, out: list, newline: str) -> None:
    """Append the indent-2 JSON text of value to out; newline is a line break
    followed by the indentation of value's own line.

    Exactly the types as_dict produces are accepted: int, str, list, dict
    with str keys, bool and None. Anything else, a float or a tuple included,
    is a TypeError, so no value can render differently from json.dumps."""
    cls = type(value)
    if cls is int:
        out.append(int.__repr__(value))
    elif cls is str:
        out.append(encode_basestring_ascii(value))
    elif cls is list:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _emit(item, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif cls is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            # encode_basestring_ascii raises TypeError on a key that is not a str
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _emit(item, out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    else:
        raise TypeError(f"cannot render a {cls.__name__} in a report")


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
