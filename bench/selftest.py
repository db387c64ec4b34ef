"""Self-test of the fibrekit benchmark.

Usage (from the repository root):

    python3 bench/selftest.py

For every workload at its default seed it runs bench/run.py twice traced
and once untraced, each with the shortest run (MIN_PASSES passes), and
fails if

* a run is not correct or raises on any input;
* a count or ratio differs between the two traced runs;
* a span the prediction table in bench/DESIGN.md says runs on a workload
  records zero calls there, or a span the table says that workload bypasses
  records any.

It prints the tracing overhead per workload: the traced time of one pass of
analyses minus the untraced one, both from the same seed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import workloads
from run import is_exact

BENCH = Path(__file__).resolve().parent
ALL = tuple(workloads.WORKLOADS)
SEMIGROUP = ("semigroup-ab", "semigroup-small")
MONOMIAL = ("plane-corpus", "space-d3")

# metric -> (workloads where it must be nonzero, workloads where it must be 0)
EXPECTED = {
    "ideals.mono.contains.calls": (MONOMIAL, SEMIGROUP),
    "ideals.mono.colength.calls": (MONOMIAL, SEMIGROUP),
    "ideals.mono.colength.route-walk": (("plane-corpus",), ("space-d3",) + SEMIGROUP),
    "ideals.mono.colength.route-ie": (("space-d3",), ("plane-corpus",) + SEMIGROUP),
    "ideals.mono.colength.route-scan": (("space-d3",), ("plane-corpus",) + SEMIGROUP),
    "ideals.mono.mul.calls": (MONOMIAL, SEMIGROUP),
    "ideals.mono.colon.calls": (("plane-corpus",), ("space-d3",) + SEMIGROUP),
    "ideals.mono.intersect.calls": (MONOMIAL, SEMIGROUP),
    "ideals.sg.mul.calls": (SEMIGROUP, MONOMIAL),
    "ideals.sg.init.calls": (SEMIGROUP, MONOMIAL),
    "ideals.sg.colength.calls": (SEMIGROUP, MONOMIAL),
    "ideals.sg.contains.calls": (SEMIGROUP, MONOMIAL),
    "ideals.sg.minimal_generators.calls": (SEMIGROUP, MONOMIAL),
    "ideals.quotient_length.calls": (ALL, ()),
    "filtration.build_table.calls": (ALL, ()),
    "analysis.fit_coefficients.calls": (ALL, ()),
    "analysis.fiber_hilbert_series.calls": (ALL, ()),
    "analysis.fundamental_lemma_rows.calls": (("plane-corpus",), ("space-d3",) + SEMIGROUP),
    "analysis.v_sequence.calls": (("plane-corpus",), ("space-d3",) + SEMIGROUP),
    "reductions.reduction_number.calls": (ALL, ()),
    "reductions.search_steps": (ALL, ()),
    "reductions.classify_graded_depth.calls": (ALL, ()),
    "reductions.valabrega_valla.calls": (("plane-corpus", "semigroup-small"), ()),
    "criteria.checks.calls": (ALL, ()),
    "criteria.analyze.calls": (ALL, ()),
    "inputfile.load_spec.calls": (ALL, ()),
    "rings.semigroup_ring.calls": (SEMIGROUP, MONOMIAL),
    "reporting.render_tree.calls": (ALL, ()),
}


def run(workload: str, trace: int) -> dict:
    cmd = [
        sys.executable,
        str(BENCH / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(workloads.DEFAULT_SEED),
        "--seconds",
        "0",
        "--trace",
        str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    failures = []
    for workload in ALL:
        traced = [run(workload, 1), run(workload, 1)]
        plain = run(workload, 0)
        for result in traced + [plain]:
            if not result["correct"] or result["failed"]:
                failures.append(f"{workload}: {result['failed']} failed analyses")
        first, second = (r["metrics"] for r in traced)
        for name, m in first.items():
            if is_exact(m["unit"]) and m["value"] != second[name]["value"]:
                failures.append(
                    f"{workload}: {name} = {m['value']} then {second[name]['value']}"
                )
        for name, (runs_on, bypassed_on) in EXPECTED.items():
            value = first[name]["value"]
            if workload in runs_on and value == 0:
                failures.append(f"{workload}: {name} is 0 but the workload should run it")
            if workload in bypassed_on and value != 0:
                failures.append(f"{workload}: {name} is {value} but the workload bypasses it")
        traced_s = first["bench.traced_pass_s"]["value"]
        inputs = len(workloads.generate(workload, workloads.DEFAULT_SEED))
        untraced_s = inputs / plain["metrics"]["analyses_per_s"]["value"]
        print(
            f"{workload:16s} traced pass {traced_s:8.3f} s, untraced {untraced_s:8.3f} s, "
            f"tracing overhead {traced_s - untraced_s:+8.3f} s "
            f"({(traced_s - untraced_s) / untraced_s:+.0%})"
        )
    for line in failures:
        print("FAIL", line)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
