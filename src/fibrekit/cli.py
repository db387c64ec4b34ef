"""Command-line front end.

Commands: analyze, coeffs, fundamental-lemma, series, reduction,
check {cm-fiber, depth-fiber, min-mult, depth-g}, selftest.

Output is buffered and printed only on success, so failure paths never
leave partial tables on stdout. Errors go to stderr with the exit codes
from errors.py: 1 computation, 2 theorem violation (bug), 3 bad input.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from importlib import resources

from .analysis import fiber_hilbert_series
from .criteria import AnalysisReport, CriterionStatus, analyze, fit_tables
from .errors import EXIT_OK, FibrekitError, InputError
from .inputfile import load_spec
from .reductions import DepthClass, reduction_number
from .reporting import render_text, render_tree

log = logging.getLogger("fibrekit")

_CHECK_CRITERION = {
    "cm-fiber": "fiber-cohen-macaulay",
    "depth-fiber": "fiber-depth",
    "min-mult": "minimal-multiplicity",
}


def _configure_logging() -> None:
    level_name = os.environ.get("FIBREKIT_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")


def _load(args):
    """Parse args.file into (document, spec, n_max); --n-max overrides the
    file's n_max."""
    doc, spec = load_spec(_read_file(args.file))
    n_max = args.n_max if args.n_max is not None else spec.n_max
    return doc, spec, n_max


def _emit(
    out: list, report: AnalysisReport | None = None, path: str | None = None
) -> None:
    sys.stdout.write("\n".join(out) + ("\n" if out else ""))
    if path and report is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render_tree(report) + "\n")


def _cmd_analyze(args) -> int:
    doc, spec, n_max = _load(args)
    report = analyze(spec, n_max=n_max)
    fmt = args.format if args.format is not None else doc.fmt
    text = render_tree(report) if fmt == "tree" else render_text(report)
    _emit([text.removesuffix("\n")], report, args.report)
    return EXIT_OK


def _fit(args):
    """fit_tables on args.file: the spec, table and coefficients, and the
    label of a fit no certificate covers ("" for a certified one)."""
    _, spec, n_max = _load(args)
    table, coefficients = fit_tables(spec, n_max)
    certified = coefficients.certified_from is not None
    label = "" if certified else f"window-validated through n = {table.n_max}, not certified"
    return spec, table, coefficients, label


def _cmd_coeffs(args) -> int:
    _, table, coefficients, label = _fit(args)
    claim = "agrees" if label else "exact"
    scope = label or f"table through n = {table.n_max}"
    out = []
    for cs in (coefficients.e, coefficients.g, coefficients.f):
        tup = "(" + ", ".join(str(x) for x in cs.coefficients) + ")"
        out.append(
            f"{cs.label.lower()} = {tup}  {claim} from n = {cs.postulation}  ({scope})"
        )
    _emit(out)
    return EXIT_OK


def _cmd_lemma(args) -> int:
    _, spec, n_max = _load(args)
    if spec.dim != 2:
        raise InputError("the second-difference identity table needs dimension 2")
    report = analyze(spec, n_max=n_max)
    rows = report.lemma_rows
    out = [f"e_0 = {report.e0}; identity rows for n = 2..{rows[-1].n}:"]
    for row in rows:
        out.append(f"  n = {row.n:<3} lhs = {row.lhs:<6} rhs = {row.rhs:<6} equal")
    _emit(out)
    return EXIT_OK


def _cmd_series(args) -> int:
    spec, table, coefficients, label = _fit(args)
    series = fiber_hilbert_series(table, spec.dim, coefficients.f)
    out = [f"fiber series: {series}" + (f"  ({label})" if label else "")]
    if series.has_negative:
        out.append("NEGATIVE COEFFICIENT: fiber cone is not Cohen-Macaulay")
    _emit(out)
    return EXIT_OK


def _cmd_reduction(args) -> int:
    _, spec = load_spec(_read_file(args.file))
    data = reduction_number(spec)
    out = [
        f"r = {data.r}",
        f"mu(J) = {data.mu}" + ("  (minimal reduction)" if data.is_minimal else ""),
        f"steps J I_n = I_(n+1) verified for {data.r} <= n <= {data.checked_through}",
    ]
    _emit(out)
    return EXIT_OK


def _cmd_check(args) -> int:
    _, spec, n_max = _load(args)
    report = analyze(spec, n_max=n_max)
    if args.target == "depth-g":
        gd = report.graded_depth
        out = [
            f"graded depth: {gd.classification.value}",
            f"e_1 = {gd.e1}, cm sum = {gd.cm_sum}, depth sum = {gd.depth_sum}",
        ]
    else:
        out = [str(report.criterion(_CHECK_CRITERION[args.target]))]
    _emit(out, report, args.report)
    return EXIT_OK


_SELFTEST_FIXTURES = ("x3_x2y_y3.fk", "x4_x3y_xy3_y4.fk", "semigroup_4567.fk")


def _selftest_checks(name: str, report: AnalysisReport) -> list:
    """Assert the externally verified facts for one embedded fixture."""
    failures = []

    def expect(cond: bool, label: str) -> None:
        if not cond:
            failures.append(label)

    if name == "x3_x2y_y3.fk":
        expect(report.e0 == 9, "e_0 = 9")
        expect(report.table.hk[1] == 10, "len(R/KI) = 10")
        expect(report.coefficients.g.coefficients == (9, 0, 1), "g = (9, 0, 1)")
        expect(report.v is not None and report.v.values[:2] == (9, 0), "v_0, v_1 = 9, 0")
        expect(all(v == 0 for v in report.v.values[2:]), "v_n = 0 for n >= 2")
        expect(report.reduction.r == 2, "r = 2")
    elif name == "x4_x3y_xy3_y4.fk":
        expect(report.coefficients.e.coefficients == (16, 6, 0), "e = (16, 6, 0)")
        expect(report.f0 == 4, "f_0 = 4")
        expect(report.g1 == 2, "g_1 = 2")
        expect(report.series.numerator == (1, 2, 2, -1), "series numerator")
        expect(report.series.has_negative, "negative coefficient flag")
        expect(
            report.graded_depth.classification is DepthClass.LOW,
            "graded depth LOW",
        )
        expect(
            report.criterion("fiber-cohen-macaulay").status
            is CriterionStatus.PRECONDITION_NOT_ESTABLISHED,
            "fiber CM gated",
        )
        expect(report.criterion("fiber-cohen-macaulay").rhs == 2, "gated equality value")
    else:
        expect(report.minimal_multiplicity.relative, "K I = K J")
        expect(report.minimal_multiplicity.classic, "classic minimal multiplicity")
        expect(report.g1 == -1, "g_1 = -1")
        expect(report.g1_onedim_value == -1, "g_1 by lengths = -1")
        expect(
            report.criterion("fiber-cohen-macaulay").status is CriterionStatus.PASS,
            "fiber cone Cohen-Macaulay",
        )
        expect(report.reduction.r == 2, "r = 2")
    return failures


def _cmd_selftest(args) -> int:
    out = []
    bad = False
    for name in _SELFTEST_FIXTURES:
        text = (
            resources.files("fibrekit").joinpath("fixtures").joinpath(name).read_text()
        )
        _, spec = load_spec(text)
        report = analyze(spec)
        failures = _selftest_checks(name, report)
        if failures:
            bad = True
            out.append(f"{name}: FAIL ({'; '.join(failures)})")
        else:
            out.append(f"{name}: ok")
    _emit(out)
    return EXIT_OK if not bad else 1


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors surface as InputError (exit 3).

    The default argparse behaviour exits with status 2, which this tool
    reserves for theorem violations, so bad command lines are rerouted
    through the normal input-error path instead.
    """

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def _int_at_least(minimum: int):
    """argparse type for an integer option, worded as in an input file."""

    def parse(text: str) -> int:
        try:
            value = int(text, 10)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {minimum}, got {value}"
            )
        return value

    return parse


_FLAGS = {
    "--n-max": {"type": _int_at_least(0), "help": "table length"},
    "--report": {"help": "write the JSON report here"},
    "--format": {"choices": ("text", "tree")},
}

# command -> (handler, help, flags); a command takes only the flags its
# handler reads, so a flag it would ignore is a usage error
_COMMANDS = {
    "analyze": (_cmd_analyze, "full report", ("--n-max", "--report", "--format")),
    "coeffs": (_cmd_coeffs, "fitted e, g, f coefficients", ("--n-max",)),
    "fundamental-lemma": (
        _cmd_lemma,
        "second-difference identity rows (dim 2)",
        ("--n-max",),
    ),
    "series": (_cmd_series, "fiber-cone Hilbert series", ("--n-max",)),
    "reduction": (_cmd_reduction, "reduction number of J", ()),
    "check": (_cmd_check, "one named criterion", ("--n-max", "--report")),
    "selftest": (_cmd_selftest, "run the embedded examples", ()),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fibrekit",
        description=(
            "Hilbert coefficients of filtrations and their fiber cones in "
            "monomial power-series and numerical-semigroup rings"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == "check":
            p.add_argument("target", choices=(*_CHECK_CRITERION, "depth-g"))
        if name != "selftest":
            p.add_argument("file", help="input description file")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = _COMMANDS[args.command][0]
        log.debug("running %s", args.command)
        return handler(args)
    except FibrekitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
