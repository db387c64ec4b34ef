"""fibrekit benchmark: seeded workloads through load_spec -> analyze -> render_tree.

Usage (from the repository root):

    python3 bench/run.py --workload plane-corpus --seed 901 --seconds 30 --trace 0

Load shape: a closed loop with one caller, in one process and one thread;
the next analysis starts when the previous one has been rendered. An
analysis is `analyze(spec)` followed by `render_tree(report)`; it is checked
after the clock stops, and its spec and report are dropped before the next.

A run makes passes over the workload's inputs, at least MIN_PASSES and
more while the next pass is expected to end within `--seconds`. Each pass
loads fresh specs, so no ideal's power cache carries over from one pass to
the next. Before the first pass, and after each pass of an untraced run,
the run sets up SETUP_BLOCK times: it imports fibrekit from `src/` afresh
and loads every input. setup_s is the median of those set-ups, which are
spread over the run so that they see the same host speeds as the passes.

Every analysis is checked against the committed results in
bench/reference/<workload>.json, which hold every input of the workload's
fixed set, and against e_0, len(R/I) and r computed by the generator.

Every timing is scaled to a reference host speed: the host's speed swings
by up to 1.5 times within seconds (bench/DESIGN.md), so a fixed chunk of
pure-Python work is timed between analyses and around each set-up, and a
timing is multiplied by REFERENCE_CHUNK_S over the mean of the chunks just
before and after it. A time therefore reads as it would on a host where the
chunk takes REFERENCE_CHUNK_S.

--trace 0 prints the end-to-end metrics. Each input's analysis time is its
median over the passes; analyses_per_s is the number of inputs over the sum
of those times, and the percentiles are taken over them. --trace 1 wraps
the package's public functions (bench/tracer.py) and prints per-layer
metrics instead: counts from the first pass, which must repeat exactly in
every pass, and times as the median over passes. The last line of standard
output is one JSON object; the lines before it list the metrics for people,
with failed_ratio, which the JSON carries as `failed` / `attempted`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH / "reference"

SETUP_BLOCK = 5
MIN_PASSES = 2

# the host chunk's time at the reference speed: about its median between
# analyses on the 2-CPU container the benchmark was built on, so scaled
# times read close to that container's typical wall-clock times
REFERENCE_CHUNK_S = 0.0006
CHUNK_ITEMS = 600

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


# ---------------------------------------------------------------------------
# results and their check


def results_of(tree: dict) -> list:
    """The checked part of a report: coefficients with postulation indices,
    r, graded-depth class, every criterion with both compared integers, and
    the fiber-series numerator."""
    c = tree["coefficients"]
    return [
        c["e"],
        c["g"],
        c["f"],
        [c["postulation"][k] for k in ("e", "g", "f")],
        tree["reduction"]["r"],
        tree["graded_depth"]["classification"],
        [[cr["name"], cr["status"], cr["lhs"], cr["rhs"]] for cr in tree["criteria"]],
        tree["series"]["numerator"],
    ]


def check(inp, tree: dict, want) -> list:
    """Reasons the analysis is wrong; empty when it is right. `want` is the
    committed result, or None to check only the generator's numbers."""
    got = results_of(tree)
    problems = []
    if got[0][0] != inp.e0:
        problems.append(f"e_0 = {got[0][0]}, the parameter ideal J gives {inp.e0}")
    if tree["table"]["H"][1] != inp.colength_i:
        problems.append(f"len(R/I) = {tree['table']['H'][1]}, expected {inp.colength_i}")
    if got[4] != inp.r:
        problems.append(f"r = {got[4]}, the generator's own search gives {inp.r}")
    if want is not None and got != want:
        problems.append(f"results {got} differ from the reference {want}")
    return problems


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# per-layer metrics from the tracer's totals

SPANS = (
    ("ideals.mono.contains", "self_s"),
    ("ideals.mono.colength", "self_s"),
    ("ideals.mono.mul", "self_s"),
    ("ideals.mono.colon", "self_s"),
    ("ideals.mono.intersect", "self_s"),
    ("ideals.sg.mul", "self_s"),
    ("ideals.sg.init", "self_s"),
    ("ideals.sg.colength", "self_s"),
    ("ideals.sg.contains", "self_s"),
    ("ideals.sg.minimal_generators", "self_s"),
    ("ideals.quotient_length", "total_s"),
    ("filtration.build_table", "self_s"),
    ("analysis.fit_coefficients", "self_s"),
    ("analysis.fiber_hilbert_series", "self_s"),
    ("analysis.fundamental_lemma_rows", "total_s"),
    ("analysis.v_sequence", "total_s"),
    ("reductions.reduction_number", "total_s"),
    ("reductions.classify_graded_depth", "total_s"),
    ("reductions.valabrega_valla", "total_s"),
    ("criteria.analyze", "self_s"),
    ("inputfile.load_spec", "total_s"),
    ("rings.semigroup_ring", "self_s"),
    ("reporting.render_tree", "self_s"),
)

COUNTERS = (
    "ideals.mono.contains.pairs",
    "ideals.mono.mul.pairs",
    "ideals.mono.colength.route-walk",
    "ideals.mono.colength.route-ie",
    "ideals.mono.colength.route-scan",
    "reductions.search_steps",
)


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer, pass_analysis_s: float) -> dict:
    """Metric name -> (value, unit) for one traced pass; pass_analysis_s is
    the summed time of its analyses, comparable with an untraced pass."""
    stats, counts = tracer.stats, tracer.counts
    out = {}
    for span, time_kind in SPANS:
        calls, self_s, total_s = stats[span]
        out[f"{span}.{time_kind}"] = (self_s if time_kind == "self_s" else total_s, "s")
        out[f"{span}.calls"] = (calls, "count")
    for name in COUNTERS:
        out[name] = (counts[name], "count")
    checks = [st for span, st in stats.items() if span.startswith("criteria.check_")]
    out["criteria.checks.total_s"] = (sum(st[2] for st in checks), "s")
    out["criteria.checks.calls"] = (sum(st[0] for st in checks), "count")
    out["ideals.quotient_length.repeat_ratio"] = (
        _ratio(counts["ideals.quotient_length.repeats"], stats["ideals.quotient_length"][0]),
        "ratio",
    )
    out["filtration.fit_retries"] = (
        stats["filtration.build_table"][0] - stats["criteria.fit_tables"][0],
        "count",
    )
    out["filtration.term_cache_hit_ratio"] = (
        _ratio(counts["filtration.term_cache_hits"], counts["filtration.term_lookups"]),
        "ratio",
    )
    out["bench.traced_pass_s"] = (pass_analysis_s, "s")
    return out


def is_exact(unit: str) -> bool:
    return unit in ("count", "ratio")


# ---------------------------------------------------------------------------
# the run


def host_chunk() -> float:
    """Run a fixed piece of pure-Python work and return its duration.

    It builds a set of small tuples and scans it for componentwise-smaller
    members, the kind of work the kernel does, and needs nothing from
    fibrekit, so a change to fibrekit cannot change its cost."""
    start = time.perf_counter()
    seen = set()
    below = 0
    for i in range(CHUNK_ITEMS):
        t = (i % 7, i % 11, i % 13)
        seen.add(t)
        if i % 30 == 0:
            below += sum(1 for u in seen if u[0] <= t[0] and u[1] <= t[1])
    return time.perf_counter() - start


def scaled(elapsed: float, before: float, after: float) -> float:
    """`elapsed` at the reference speed, from the host chunks around it."""
    return elapsed * 2 * REFERENCE_CHUNK_S / (before + after)


def import_fresh():
    """Import fibrekit as a new process would, dropping any earlier copy.

    Byte code is written and reused whatever PYTHONDONTWRITEBYTECODE says, as
    for an installed package, so only the first set-up compiles."""
    sys.dont_write_bytecode = False
    for name in [n for n in sys.modules if n == "fibrekit" or n.startswith("fibrekit.")]:
        del sys.modules[name]
    return importlib.import_module("fibrekit")


def set_up(texts: list, times: list):
    """SETUP_BLOCK times: import fibrekit afresh and load_spec every input.
    Appends each scaled duration to `times` and returns the last import."""
    for _ in range(SETUP_BLOCK):
        gc.collect()
        before = host_chunk()
        start = time.perf_counter()
        fk = import_fresh()
        specs = [fk.load_spec(t)[1] for t in texts]
        elapsed = time.perf_counter() - start
        times.append(scaled(elapsed, before, host_chunk()))
        del specs
    return fk


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    inputs = workloads.generate(workload, seed)
    texts = [inp.text for inp in inputs]
    reference = load_reference(workload)
    # the high-water mark of the benchmark's own inputs and reference, so a
    # reader can see how far fibrekit raised peak_rss_mb above it
    base_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_times = []
    fk = set_up(texts, setup_times)

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()

    times = [[] for _ in inputs]  # per input, one scaled analysis time per pass
    chunks = []
    pass_layers = []
    attempted = failed = 0
    reported = 0
    start = time.perf_counter()
    passes = 0
    while True:
        gc.collect()
        if tracer is not None:
            tracer.reset()
        pass_analysis_s = 0.0
        specs = [fk.load_spec(t)[1] for t in texts]
        before = host_chunk()
        for idx, inp in enumerate(inputs):
            spec, specs[idx] = specs[idx], None
            attempted += 1
            t0 = time.perf_counter()
            try:
                tree = fk.render_tree(fk.analyze(spec))
            except Exception:
                failed += 1
                if reported < 3:
                    reported += 1
                    print(f"analysis raised on input:\n{inp.text}", file=sys.stderr)
                    traceback.print_exc()
                continue
            elapsed = time.perf_counter() - t0
            after = host_chunk()
            took = scaled(elapsed, before, after)
            chunks.append(after)
            before = after
            times[idx].append(took)
            pass_analysis_s += took
            want = reference.get(inp.text)
            if want is None:
                problems = ["no committed reference result for this input"]
            else:
                problems = check(inp, json.loads(tree), want)
            if problems:
                failed += 1
                if reported < 3:
                    reported += 1
                    print(f"wrong result on input:\n{inp.text}" + "\n".join(problems), file=sys.stderr)
        passes += 1
        if tracer is not None:
            pass_layers.append(layer_metrics(tracer, pass_analysis_s))
        else:
            fk = set_up(texts, setup_times)
        elapsed = time.perf_counter() - start
        if passes >= MIN_PASSES and elapsed * (passes + 1) / passes > seconds:
            break
    if tracer is not None:
        tracer.uninstall()

    exact = True
    if trace:
        metrics = {}
        for name, (value, unit) in pass_layers[0].items():
            values = [layers[name][0] for layers in pass_layers]
            if is_exact(unit):
                if any(v != value for v in values):
                    exact = False
                    print(f"{name} differs between passes: {values}", file=sys.stderr)
            else:
                value = statistics.median(values)
            metrics[name] = (value, unit)
    else:
        typical = [statistics.median(t) for t in times if t]
        metrics = {
            "analyses_per_s": (len(typical) / sum(typical), "1/s"),
            "analysis_p50_ms": (1000 * statistics.median(typical), "ms"),
            "analysis_p90_ms": (
                1000 * statistics.quantiles(typical, n=10, method="inclusive")[-1],
                "ms",
            ),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    print(
        f"workload {workload} seed {seed}: {passes} passes of {len(inputs)} analyses, "
        f"{len(setup_times)} set-ups; peak RSS {base_rss_mb:.2f} MB before fibrekit was imported; "
        f"host chunk median {1000 * statistics.median(chunks):.3f} ms "
        f"(times scaled to {1000 * REFERENCE_CHUNK_S:.3f} ms)"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:>14.6g} {unit}")
    print(f"  {'failed_ratio':44s} {failed / attempted:>14.6g} 1")
    return {
        "correct": failed == 0 and exact,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fibrekit" / "__init__.py").is_file():
        print(f"fibrekit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
