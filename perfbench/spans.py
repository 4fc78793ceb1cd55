"""Spans and counters for the traced benchmark run.

The traced run wraps public functions of the `orbinov` modules from
outside the package: every module attribute bound to a target function
is rebound to a wrapper in this process, and nothing under src/ is
edited.  A wrapper records a span (name, parent, start, end) or bumps a
counter.  Spans stay in memory and are written out when the run ends.

Metric names come from the span and counter names alone, so records
emitted by the program itself can later replace these wrappers without
renaming any metric.
"""

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter

# (span name, module, attribute); "Class.__init__" times construction
SPANS = [
    ("cli.main", "orbinov.cli", "main"),
    ("documents.resolve_document", "orbinov.cli", "resolve_document"),
    ("actions.quotient_complex", "orbinov.actions", "quotient_complex"),
    ("cochains.descend_cochain", "orbinov.cochains", "descend_cochain"),
    ("periods.H1Presentation", "orbinov.periods", "H1Presentation.__init__"),
    ("periods.period_homomorphism", "orbinov.periods",
     "period_homomorphism"),
    ("twisted.integralize", "orbinov.twisted", "integralize"),
    ("twisted.twisted_complex", "orbinov.twisted", "twisted_complex"),
    ("lmatrix.fraction_field_rank", "orbinov.lmatrix",
     "fraction_field_rank"),
    ("lmatrix.invariant_factors", "orbinov.lmatrix", "invariant_factors"),
    ("complexes.integer_homology", "orbinov.complexes", "integer_homology"),
    ("snf.smith_normal_form", "orbinov.snf", "smith_normal_form"),
    ("inequalities.check_inequalities", "orbinov.inequalities",
     "check_inequalities"),
    ("nerve.nerve_model", "orbinov.nerve", "nerve_model"),
    ("nerve.identity_failures", "orbinov.nerve", "identity_failures"),
    ("twisted.cyclic_cover_oracle", "orbinov.twisted", "cyclic_cover_oracle"),
]

# (counter name, module, attribute): calls counted, no span
COUNTERS = [
    ("laurent.polys_built", "orbinov.laurent", "LaurentPoly.__init__"),
    ("localized.localized_gcd.calls", "orbinov.localized", "localized_gcd"),
    ("complexes.bfs_forest.calls", "orbinov.complexes", "bfs_forest"),
]


def _lmatrix_sizes(M, *args, **kwargs):
    return (("lmatrix.cells_in", M.nrows * M.ncols),
            ("lmatrix.entries_in", len(M.entries)))


def _snf_sizes(rows, shape=None, *args, **kwargs):
    if shape is None:
        shape = (len(rows), len(rows[0]) if rows else 0)
    return (("snf.cells_in", shape[0] * shape[1]),)


# sizes of the matrices handed to a span, summed into counters
SIZES = {"lmatrix.fraction_field_rank": _lmatrix_sizes,
         "lmatrix.invariant_factors": _lmatrix_sizes,
         "snf.smith_normal_form": _snf_sizes}


class Tracer:
    """In-memory spans with parent links, and named counters."""

    def __init__(self):
        self.spans = []         # [name, parent index or -1, start, end]
        self.counts = Counter()
        self._open = []

    def span(self, name, fn, sizes=None):
        """fn wrapped so that each call records one span."""
        spans, stack, counts = self.spans, self._open, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if sizes is not None:
                for key, n in sizes(*args, **kwargs):
                    counts[key] += n
            record = [name, stack[-1] if stack else -1, perf_counter(), None]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                stack.pop()
        return traced

    def counter(self, name, fn):
        """fn wrapped so that each call bumps counter name."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def calls(self):
        return Counter(record[0] for record in self.spans)

    def self_times(self):
        """Seconds per span name, each span minus its child spans."""
        covered = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = Counter()
        for (name, _, start, end), inner in zip(self.spans, covered):
            totals[name] += end - start - inner
        return totals

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "parent", "start", "end"],
                       "spans": self.spans, "counts": self.counts},
                      handle)


def install(tracer):
    """Rebind every target in the loaded orbinov modules to a wrapper.

    Returns a function that restores the original bindings.
    """
    undo = []
    modules = [mod for name, mod in sorted(sys.modules.items())
               if name == "orbinov" or name.startswith("orbinov.")]
    targets = [(name, mod, attr, True) for name, mod, attr in SPANS]
    targets += [(name, mod, attr, False) for name, mod, attr in COUNTERS]
    for name, module, attribute, is_span in targets:
        if is_span:
            wrap = functools.partial(tracer.span, name,
                                     sizes=SIZES.get(name))
        else:
            wrap = functools.partial(tracer.counter, name)
        owner = importlib.import_module(module)
        if "." in attribute:
            cls_name, attr = attribute.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, wrap(original))
            undo.append((cls, attr, original))
            continue
        original = getattr(owner, attribute)
        wrapper = wrap(original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    undo.append((mod, key, original))

    def restore():
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)
    return restore


def layer_metrics(tracer, analyses):
    """Per-layer metrics of a traced pass over `analyses` analyses."""
    selfs, calls = tracer.self_times(), tracer.calls()
    out = {}
    for name, _, _ in SPANS:
        out[name + ".self_s"] = (selfs[name], "s")
        out[name + ".calls"] = (calls[name], "count")
    for name in ("lmatrix.cells_in", "lmatrix.entries_in", "snf.cells_in",
                 "laurent.polys_built", "localized.localized_gcd.calls"):
        out[name] = (tracer.counts[name], "count")
    out["periods.h1_per_analysis"] = (
        calls["periods.H1Presentation"] / analyses, "ratio")
    out["complexes.bfs_forest_per_analysis"] = (
        tracer.counts["complexes.bfs_forest.calls"] / analyses, "ratio")
    out["actions.quotient_per_analysis"] = (
        calls["actions.quotient_complex"] / analyses, "ratio")
    return out
