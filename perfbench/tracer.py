"""Per-layer tracing of gaglab from outside the package.

``instrument(tracer)`` wraps the public functions of the six modules and
patches every binding of them in every loaded ``gaglab`` module, because the
modules import each other's functions by name (``from .core import
check_law``).  Leaving the block restores every binding to the original
object.

The tracer keeps a stack of open spans, so a layer's self time is its span
minus the spans of the wrapped calls made inside it.  Hot calls are only
aggregated in place, as calls, total and self seconds per name; request
spans (``cli.run``) and per-lemma spans (``theorems.verify``) are also kept
in memory and written out once at the end.
"""
from __future__ import annotations

import json
import sys
from collections import Counter
from contextlib import contextmanager
from functools import update_wrapper
from time import perf_counter

LAWS = ("left-invertive", "ag-star-star", "medial", "paramedial", "associative",
        "commutative")
KINDS = ("sub", "left", "right", "two-sided", "bi", "quasi", "interior")
LEMMAS = ("l1-left-identity-collapse", "l-right-identity", "t1-union-construction",
          "l-medial", "l-paramedial", "l-one-sided-quasi", "l-rlb-one-sided-bi",
          "c-ideal-bi", "l-bi-product", "l-idem-quasi-bi", "l-ideal-interior",
          "l-interior-iff-right", "l-absorption-regular", "l-gg-bi", "c-ag-bi-regular",
          "l-bgb-regular", "l-gg-regular", "l-left-iff-right-regular",
          "t-regular-iff-idempotent-left", "l-semiprime-regular", "t-semilattice",
          "l-comm-ideals-regular", "l-idem-ideals-regular", "l-principal-left-agss")
VERDICTS = ("holds", "not-applicable", "counterexample")
MODULES = ("gaglab", "gaglab.core", "gaglab.io", "gaglab.ideals", "gaglab.theorems",
           "gaglab.search", "gaglab.cli")
_LEAF = "search.next"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.stack = []        # open spans: [name, start, child seconds, payload]
        self.layers = {}       # name -> [calls, total seconds, self seconds]
        self.counts = Counter()
        self.spans = []        # kept request and lemma spans
        self.request = 0       # id of the current cli.run request
        self.verify_depth = 0

    def begin(self, name: str, payload=None) -> None:
        self.stack.append([name, self.clock(), 0.0, payload])

    def end(self) -> tuple[float, float]:
        """Close the innermost span; returns its (start, duration)."""
        name, start, child, _ = self.stack.pop()
        dur = self.clock() - start
        rec = self.layers.get(name)
        if rec is None:
            rec = self.layers[name] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        return start, dur

    def wrap(self, func, name, after=None):
        """A traced copy of ``func``; ``name`` is a string or a function of the
        call's (args, kwargs); ``after(args, kwargs, result)`` runs on return."""
        name_of = name if callable(name) else (lambda args, kwargs: name)

        def traced(*args, **kwargs):
            self.begin(name_of(args, kwargs))
            try:
                result = func(*args, **kwargs)
            finally:
                self.end()
            if after is not None:
                after(args, kwargs, result)
            return result
        return update_wrapper(traced, func)

    def record(self, kind: str, start: float, dur: float, **fields) -> None:
        self.spans.append({"kind": kind, "request": self.request, "start": start,
                           "dur": dur, **fields})

    # -- hooks for the calls that need more than a span

    def traced_run(self, run):
        def traced(argv=None):
            self.request += 1
            self.begin("cli.run")
            try:
                code = run(argv)
            finally:
                start, dur = self.end()
            self.record("request", start, dur, argv=" ".join(argv or ()), exit_code=code)
            return code
        return update_wrapper(traced, run)

    def traced_verify(self, verify):
        def traced(*args, **kwargs):
            lemma = _arg(args, kwargs, 1, "lid").value
            self.verify_depth += 1
            self.begin("theorems.verify." + lemma)
            try:
                verdict = verify(*args, **kwargs)
            finally:
                start, dur = self.end()
                self.verify_depth -= 1
            status = verdict.status.value
            self.counts["verdict." + status] += 1
            self.record("lemma", start, dur, lemma=lemma, status=status)
            return verdict
        return update_wrapper(traced, verify)

    def traced_search(self, enumerate_structures):
        tracer = self

        class Stream:
            """The search generator with each ``next`` traced as one span."""

            def __init__(self, it, filters):
                self.it, self.filters = it, filters

            def __iter__(self):
                return self

            def __next__(self):
                tracer.begin(_LEAF, self.filters)
                try:
                    item = next(self.it)
                finally:
                    tracer.end()
                tracer.counts["emitted"] += 1
                return item

        def traced(spec):
            return Stream(enumerate_structures(spec), {f.value for f in spec.filters})
        return update_wrapper(traced, enumerate_structures)

    def leaf_hook(self, rejects):
        """Count a filter call made directly by the search generator as a leaf
        check, and as a rejection when ``rejects(args, kwargs, result, filters)``."""
        def after(args, kwargs, result):
            if self.stack and self.stack[-1][0] == _LEAF:
                self.counts["leaf_checks"] += 1
                if rejects(args, kwargs, result, self.stack[-1][3]):
                    self.counts["leaf_rejects"] += 1
        return after

    def check_law_hook(self):
        """Leaf accounting for check_law: the non-associative filter rejects when
        the law holds, the prunable ones when it fails.  A prunable rejection
        means the pruning let an invalid structure through: the soundness alarm."""
        def rejects(args, kwargs, verdict, filters):
            if _arg(args, kwargs, 1, "law").value == "associative":
                return verdict.holds
            if not verdict.holds:
                self.counts["leaf_rejects_prunable"] += 1
            return not verdict.holds
        leaf = self.leaf_hook(rejects)

        def after(args, kwargs, result):
            if self.verify_depth:
                self.counts["check_law_in_verify"] += 1
            leaf(args, kwargs, result)
        return after

    # -- results

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit)."""
        def rec(name):
            return self.layers.get(name, (0, 0.0, 0.0))

        m = {}

        def span(name):
            calls, _, self_s = rec(name)
            m[name + ".calls"] = (calls, "count")
            m[name + ".self_s"] = (self_s, "s")

        span("io.parse")
        m["core.check_law.calls"] = (sum(rec("core.check_law." + law)[0] for law in LAWS),
                                     "count")
        for law in LAWS:
            m[f"core.check_law.{law}.self_s"] = (rec("core.check_law." + law)[2], "s")
        for name in ("subset_product", "is_regular", "identities"):
            span("core." + name)
        for kind in KINDS:
            span("ideals.enumerate_ideals." + kind)
        span("ideals.is_ideal")
        m["ideals.is_semiprime.self_s"] = (rec("ideals.is_semiprime")[2], "s")
        m["ideals.build_ideal_semilattice.self_s"] = (
            rec("ideals.build_ideal_semilattice")[2], "s")
        verifies = 0
        for lemma in LEMMAS:
            calls, total_s, _ = rec("theorems.verify." + lemma)
            verifies += calls
            m[f"theorems.verify.{lemma}.total_s"] = (total_s, "s")
        m["theorems.verify.calls"] = (verifies, "count")
        for status in VERDICTS:
            m["theorems.verdict." + status.replace("-", "_")] = (
                self.counts["verdict." + status], "count")
        m["theorems.check_law_per_verify"] = (
            self.counts["check_law_in_verify"] / verifies if verifies else 0.0, "ratio")
        m["search.next.self_s"] = (rec(_LEAF)[2], "s")
        for name in ("emitted", "leaf_checks", "leaf_rejects", "leaf_rejects_prunable"):
            m["search." + name] = (self.counts[name], "count")
        span("search.canonical_form")
        canon = m["search.canonical_form.calls"][0]
        m["search.iso_keep_ratio"] = (self.counts["emitted"] / canon if canon else 0.0,
                                      "ratio")
        span("cli.run")
        return m

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


@contextmanager
def instrument(tracer: Tracer):
    """Trace every public layer function of the loaded gaglab modules."""
    core = sys.modules["gaglab.core"]
    ideals = sys.modules["gaglab.ideals"]
    search = sys.modules["gaglab.search"]
    not_regular = tracer.leaf_hook(lambda a, k, v, filters: not v)
    wrong_identity = tracer.leaf_hook(
        lambda a, k, v, filters: bool(v) != ("has-left-identity" in filters))
    law_name = lambda a, k: "core.check_law." + _arg(a, k, 1, "law").value  # noqa: E731
    kind_name = lambda a, k: "ideals.enumerate_ideals." + _arg(a, k, 1, "kind").value  # noqa: E731
    wrapped = [
        tracer.wrap(core.check_law, law_name, tracer.check_law_hook()),
        tracer.wrap(core.subset_product, "core.subset_product"),
        tracer.wrap(core.is_regular, "core.is_regular", not_regular),
        tracer.wrap(core.identities, "core.identities", wrong_identity),
        tracer.wrap(sys.modules["gaglab.io"].parse, "io.parse"),
        tracer.wrap(ideals.enumerate_ideals, kind_name),
        tracer.wrap(ideals.is_ideal, "ideals.is_ideal"),
        tracer.wrap(ideals.is_semiprime, "ideals.is_semiprime"),
        tracer.wrap(ideals.build_ideal_semilattice, "ideals.build_ideal_semilattice"),
        tracer.traced_verify(sys.modules["gaglab.theorems"].verify),
        tracer.traced_search(search.enumerate_structures),
        tracer.wrap(search.canonical_form, "search.canonical_form"),
        tracer.traced_run(sys.modules["gaglab.cli"].run),
    ]
    by_id = {id(w.__wrapped__): w for w in wrapped}
    patched = []
    try:
        for mod_name in MODULES:
            mod = sys.modules[mod_name]
            for attr, value in list(vars(mod).items()):
                w = by_id.get(id(value))
                if w is not None and w.__wrapped__ is value:
                    setattr(mod, attr, w)
                    patched.append((mod, attr, value))
        yield tracer
    finally:
        for mod, attr, value in reversed(patched):
            setattr(mod, attr, value)
