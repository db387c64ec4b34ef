"""Outside-in span tracer for the fibrekit benchmark.

The tracer wraps public functions and methods of the already-imported
package and rebinds every name that refers to them: the defining module,
every module that did `from .x import name`, and the package namespace.
Each span accumulates its call count, self time (its duration minus the
time of the spans it called) and inclusive time; inclusive time is counted
once for recursive calls. Hooks record exact counts at the same
boundaries. Nothing is written until the caller reads the totals.

Hot leaf helpers that the kernel calls per element (contains_element,
validate_monomial, member, binomial, ...) are left unwrapped: their time
stays in the span that called them, and wrapping them would multiply the
tracing overhead.
"""

from __future__ import annotations

import collections
import functools
import math
import sys
import time

PACKAGE = "fibrekit"

MODULES = (
    "ideals",
    "filtration",
    "analysis",
    "reductions",
    "criteria",
    "inputfile",
    "reporting",
    "rings",
)

# public module-level functions left unwrapped (called per basis entry)
UNWRAPPED_FUNCTIONS = {"binomial", "basis_row"}

# (module, class, method, span name)
METHODS = (
    ("ideals", "MonomialIdeal", "__init__", "ideals.mono.init"),
    ("ideals", "MonomialIdeal", "__mul__", "ideals.mono.mul"),
    ("ideals", "MonomialIdeal", "__add__", "ideals.mono.add"),
    ("ideals", "MonomialIdeal", "__pow__", "ideals.mono.pow"),
    ("ideals", "MonomialIdeal", "intersect", "ideals.mono.intersect"),
    ("ideals", "MonomialIdeal", "colon", "ideals.mono.colon"),
    ("ideals", "MonomialIdeal", "contains", "ideals.mono.contains"),
    ("ideals", "MonomialIdeal", "colength", "ideals.mono.colength"),
    ("ideals", "SemigroupIdeal", "__init__", "ideals.sg.init"),
    ("ideals", "SemigroupIdeal", "__mul__", "ideals.sg.mul"),
    ("ideals", "SemigroupIdeal", "__add__", "ideals.sg.add"),
    ("ideals", "SemigroupIdeal", "__pow__", "ideals.sg.pow"),
    ("ideals", "SemigroupIdeal", "intersect", "ideals.sg.intersect"),
    ("ideals", "SemigroupIdeal", "colon", "ideals.sg.colon"),
    ("ideals", "SemigroupIdeal", "contains", "ideals.sg.contains"),
    ("ideals", "SemigroupIdeal", "colength", "ideals.sg.colength"),
    ("ideals", "SemigroupIdeal", "minimal_generators", "ideals.sg.minimal_generators"),
    ("filtration", "FiltrationSpec", "__init__", "filtration.spec.init"),
    ("filtration", "FiltrationSpec", "term", "filtration.spec.term"),
    ("filtration", "FiltrationSpec", "kterm", "filtration.spec.kterm"),
    ("filtration", "FiltrationSpec", "jterm", "filtration.spec.jterm"),
    ("filtration", "FiltrationSpec", "kjterm", "filtration.spec.kjterm"),
    ("inputfile", "InputDocument", "spec", "inputfile.document.spec"),
    ("rings", "PowerSeriesRing", "__init__", "rings.powerseries_ring"),
    ("rings", "SemigroupRing", "__init__", "rings.semigroup_ring"),
)

# FiltrationSpec method -> the term cache it reads
TERM_CACHES = {"term": "_terms", "kterm": "_kterms", "jterm": "_jterms", "kjterm": "_kjterms"}


class Tracer:
    """Per-span call counts and times plus named exact counters."""

    def __init__(self):
        self.stats: dict = {}  # span -> [calls, self_s, total_s]
        self.counts = collections.Counter()
        self._child = []  # per open span: time spent in its child spans
        self._depth = collections.Counter()  # span -> open calls
        self._seen_quotients: set = set()
        self._undo = []

    def reset(self):
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0]
        self.counts.clear()
        self._seen_quotients.clear()

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        child = self._child
        depth = self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            child.append(0.0)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = child.pop()
                depth[name] -= 1
                stats[0] += 1
                stats[1] += elapsed - inner
                if not depth[name]:
                    stats[2] += elapsed
                if child:
                    child[-1] += elapsed
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target of the imported package and rebind its names."""
        modules = [
            m
            for n, m in list(sys.modules.items())
            if n == PACKAGE or n.startswith(PACKAGE + ".")
        ]
        for short in MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or attr in UNWRAPPED_FUNCTIONS
                    or not callable(fn)
                    or isinstance(fn, type)
                    or getattr(fn, "__module__", None) != mod.__name__
                ):
                    continue
                before, after = self._hooks_for(f"{short}.{attr}")
                wrapped = self._wrap(f"{short}.{attr}", fn, before, after)
                for m in modules:
                    for k, v in list(vars(m).items()):
                        if v is fn:
                            setattr(m, k, wrapped)
                            self._undo.append((m, k, fn))
        for short, cls_name, meth, name in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{short}"], cls_name)
            own = cls.__dict__.get(meth)
            fn = getattr(cls, meth)
            before, after = self._hooks_for(name)
            setattr(cls, meth, self._wrap(name, fn, before, after))
            self._undo.append((cls, meth, own))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    # -- exact counters --------------------------------------------------------

    def _hooks_for(self, name):
        counts = self.counts
        depth = self._depth
        if name in ("ideals.mono.contains", "ideals.mono.mul"):
            key = name + ".pairs"

            def before(args):
                counts[key] += len(args[0].gens) * len(args[1].gens)

            return before, None
        if name == "ideals.mono.colength":
            cap_module = sys.modules[f"{PACKAGE}.ideals"]

            def after(args, result):
                if result == math.inf:
                    return
                ideal = args[0]
                if ideal.ring.dim == 2:
                    route = "walk"
                elif len(ideal.gens) <= cap_module.IE_GENERATOR_CAP:
                    route = "ie"
                else:
                    route = "scan"
                counts[f"ideals.mono.colength.route-{route}"] += 1

            return None, after
        if name == "ideals.quotient_length":
            seen = self._seen_quotients

            def before(args):
                key = (args[0], args[1])
                if key in seen:
                    counts["ideals.quotient_length.repeats"] += 1
                else:
                    seen.add(key)

            return before, None
        if name == "criteria.analyze":
            # repeats are counted within one analysis
            seen = self._seen_quotients

            def before(args):
                seen.clear()

            return before, None
        if name.startswith("filtration.spec.") and name.rsplit(".", 1)[1] in TERM_CACHES:
            method = name.rsplit(".", 1)[1]
            cache = TERM_CACHES[method]

            def before(args):
                counts["filtration.term_lookups"] += 1
                if args[1] in getattr(args[0], cache):
                    counts["filtration.term_cache_hits"] += 1
                if method == "jterm" and depth["reductions.reduction_number"]:
                    counts["reductions.search_steps"] += 1

            return before, None
        return None, None
