"""Regenerate bench/reference/, the committed results that run.py checks
every analysis against.

Usage (from the repository root):

    python3 bench/make_reference.py

It writes one file per workload with the results of every input in the
workload's fixed input set, which every seed runs in some order. Run it
only when a change to fibrekit is meant to change results, and review the
diff.
"""

from __future__ import annotations

import json
import sys

from run import REFERENCE_DIR, SRC, check, results_of

import workloads


def main() -> int:
    sys.path.insert(0, str(SRC))
    import fibrekit

    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        results = {}
        for inp in workloads.fixed_inputs(name):
            spec = fibrekit.load_spec(inp.text)[1]
            tree = json.loads(fibrekit.render_tree(fibrekit.analyze(spec)))
            problems = check(inp, tree, None)
            if problems:
                raise SystemExit(f"{problems} on:\n{inp.text}")
            results[inp.text] = results_of(tree)
        with open(REFERENCE_DIR / f"{name}.json", "w") as fh:
            # one input per line keeps the file small and its diffs readable
            rows = sorted(results.items())
            fh.write("{\n")
            for k, (text, got) in enumerate(rows):
                sep = "," if k + 1 < len(rows) else ""
                fh.write(f"{json.dumps(text)}: {json.dumps(got, separators=(',', ':'))}{sep}\n")
            fh.write("}\n")
        print(f"{name}: {len(results)} inputs", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
