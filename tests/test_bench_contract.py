"""The benchmark harness looks package names up by string.

`bench/tracer.py` wraps the package's public functions and the methods in
its METHODS table, and reads `ideals.IE_GENERATOR_CAP`; `bench/run.py`
reads the spans in SPANS and `criteria.fit_tables` off the tracer. A rename
in the package breaks them without failing any other test, so this runs the
tracer and the per-layer metrics on two analyses, importing both files as
they are. The d = 3 input makes the colength hook read the generator cap.

The benchmark also checks every analysis against its committed results in
`bench/reference/`; the last test runs that check on every input of every
workload, so a change that alters a checked result fails here first, and
holds render_tree byte-identical to json.dumps(as_dict(report), indent=2)
on each of them.
"""

import json
import sys
from pathlib import Path

import pytest

import fibrekit
from conftest import fixture_text
from test_space_corpus import SPACE_CORPUS, space_corpus_spec

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


@pytest.fixture
def bench_modules(monkeypatch):
    """bench/run.py and bench/tracer.py, imported as the harness imports
    them; sys.path and sys.modules are restored afterwards."""
    monkeypatch.syspath_prepend(str(BENCH))
    names = ("run", "tracer", "workloads")
    assert not any(name in sys.modules for name in names)
    try:
        import run
        import tracer

        yield run, tracer
    finally:
        for name in names:
            sys.modules.pop(name, None)


def test_tracer_and_layer_metrics_run_on_the_package(bench_modules):
    run, tracer_module = bench_modules
    analyze = fibrekit.analyze
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        specs = [
            fibrekit.load_spec(fixture_text("x3_x2y_y3.fk"))[1],
            space_corpus_spec(SPACE_CORPUS[2]),
        ]
        for spec in specs:
            fibrekit.render_tree(fibrekit.analyze(spec))
        metrics = run.layer_metrics(tracer, 0.0)
    finally:
        tracer.uninstall()
    assert fibrekit.analyze is analyze
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in declared} <= set(metrics)
    assert metrics["criteria.analyze.calls"] == (2, "count")
    assert metrics["reporting.render_tree.calls"] == (2, "count")
    assert tracer.stats["criteria.fit_tables"][0] == 2


def test_every_workload_input_matches_its_reference(bench_modules):
    run, _ = bench_modules
    import workloads

    for name in workloads.WORKLOADS:
        reference = run.load_reference(name)
        inputs = workloads.fixed_inputs(name)
        # the reference holds each distinct input of the workload, no more
        assert {inp.text for inp in inputs} == set(reference)
        for inp in inputs:
            report = fibrekit.analyze(fibrekit.load_spec(inp.text)[1])
            text = fibrekit.render_tree(report)
            # the byte oracle of tests/test_reporting.py, on every benchmark input
            assert text == json.dumps(fibrekit.as_dict(report), indent=2), (name, inp.text)
            tree = json.loads(text)
            assert run.check(inp, tree, reference[inp.text]) == [], (name, inp.text)
