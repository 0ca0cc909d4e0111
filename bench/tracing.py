"""Span tracing of matchtop's public functions, from outside the package.

``Tracer.install()`` replaces every binding of a public function of the
traced modules -- the module attribute itself and every ``from ... import``
copy held by another matchtop module, such as ``verify.betti_reduced`` -- with
a wrapper that records one span per call: (name, start, end, parent, case).
Spans stay in memory until ``write()``; ``layer_metrics()`` turns them into
the per-layer numbers listed in ``PER_LAYER``.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time

TRACED_MODULES = ("graphs", "complexes", "homology", "manifold", "catalog",
                  "verify", "cli")

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("graphs.canonical_form.calls", "count"),
    ("graphs.canonical_form.self_s", "s"),
    ("graphs.canonical_form.new_frac", "ratio"),
    ("graphs.canonical_form.slow_share", "ratio"),
    ("graphs.maximal_matchings.calls", "count"),
    ("graphs.maximal_matchings.self_s", "s"),
    ("graphs.disjoint_union.calls", "count"),
    ("graphs.disjoint_union.self_s", "s"),
    ("complexes.matching_complex.calls", "count"),
    ("complexes.matching_complex.self_s", "s"),
    ("complexes.other.self_s", "s"),
    ("homology.betti_reduced.calls", "count"),
    ("homology.betti_reduced.self_s", "s"),
    ("homology.betti_for_facets.calls", "count"),
    ("homology.betti_for_facets.self_s", "s"),
    ("homology.betti_for_facets.distinct_frac", "ratio"),
    ("homology.p2.self_s", "s"),
    ("homology.p3.self_s", "s"),
    ("manifold.check_manifold.calls", "count"),
    ("manifold.check_manifold.self_s", "s"),
    ("manifold.boundary_complex.calls", "count"),
    ("manifold.boundary_complex.self_s", "s"),
    ("manifold.classify.calls", "count"),
    ("manifold.classify.self_s", "s"),
    ("catalog.self_s", "s"),
    ("verify.run_search.self_s", "s"),
    ("verify.connected_graph_classes.self_s", "s"),
    ("verify.graphs_examined", "count"),
    ("verify.eval_frac", "ratio"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
]


def _prime(value):
    """The integer prime of a homology ``p`` argument (int or FieldPrime)."""
    return getattr(value, "p", value)


def _canonical_result(args, kwargs, result):
    return result


def _facets_and_prime(args, kwargs, result):
    facets = args[1] if len(args) > 1 else kwargs["facet_masks"]
    p = args[2] if len(args) > 2 else kwargs["p"]
    return tuple(facets), _prime(p)


# Functions whose argument or result keys are kept, for the ratios.
KEYS = {
    "graphs.canonical_form": _canonical_result,
    "homology.betti_for_facets": _facets_and_prime,
}


class Tracer:
    """Wraps the public functions of matchtop's modules and records spans.

    A span is ``(name, start, end, parent, case, prime)``: ``parent`` is the
    index of the enclosing span (-1 for none), ``case`` the value of
    ``self.case`` when the call began, and ``prime`` the ``p`` argument of a
    homology function (None elsewhere).  A generator function gets one span
    per resumption, so the consumer's work between items is not charged to
    it; ``calls`` still counts each call once.
    """

    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.case = -1
        self.calls = {}
        self.keys = {name: set() for name in KEYS}
        self.wrappers = {}  # id(original function) -> its wrapper
        self.restore = []  # (namespace, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every public function of the traced modules at every binding
        site in matchtop's loaded modules, found by identity."""
        for short in TRACED_MODULES:
            mod = sys.modules[f"matchtop.{short}"]
            for attr, value in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == mod.__name__):
                    self.wrappers[id(value)] = self._wrap(f"{short}.{attr}", value)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "matchtop" or modname.startswith("matchtop.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = self.wrappers.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self.restore.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in reversed(self.restore):
            setattr(mod, attr, value)
        self.restore.clear()

    def _wrap(self, name, fn):
        spans, stack, calls = self.spans, self.stack, self.calls
        calls[name] = 0
        clock = time.perf_counter
        keyfn = KEYS.get(name)
        keys = self.keys.get(name)
        prime_at = None
        if name.startswith("homology."):
            params = list(inspect.signature(fn).parameters)
            if "p" in params:
                prime_at = params.index("p")
        tracer = self

        def prime_of(args, kwargs):
            if prime_at is None:
                return None
            if len(args) > prime_at:
                return _prime(args[prime_at])
            return _prime(kwargs.get("p"))

        if inspect.isgeneratorfunction(fn):
            def generator_wrapper(*args, **kwargs):
                calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    idx = len(spans)
                    spans.append(None)
                    parent = stack[-1]
                    stack.append(idx)
                    start = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        end = clock()
                        stack.pop()
                        spans[idx] = (name, start, end, parent, tracer.case, None)
                    yield item

            generator_wrapper.__wrapped__ = fn
            return generator_wrapper

        def wrapper(*args, **kwargs):
            calls[name] += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.case,
                              prime_of(args, kwargs))
            if keys is not None:
                keys.add(keyfn(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- root spans owned by the benchmark --------------------------------

    def begin(self, name):
        """Open a span for the benchmark's own code; returns its index."""
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter(), None, self.stack[-1],
                           self.case, None))
        self.stack.append(idx)
        return idx

    def end(self, idx):
        self.stack.pop()
        name, start, _, parent, case, prime = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent, case, prime)

    # -- analysis -----------------------------------------------------------

    def self_times(self):
        """Per span: its duration minus the durations of its direct children."""
        out = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def layer_metrics(self, graphs_examined=0):
        """The per-layer metrics of ``PER_LAYER`` except trace.overhead_frac."""
        selfs = self.self_times()
        by_name = {}
        by_prime = {2: 0.0, 3: 0.0}
        for span, s in zip(self.spans, selfs):
            name = span[0]
            by_name.setdefault(name, []).append(s)
            if name.startswith("homology.") and span[5] in by_prime:
                by_prime[span[5]] += s

        def calls(name):
            return self.calls.get(name, 0)

        def self_s(name):
            return sum(by_name.get(name, ()))

        def module_self_s(prefix, exclude=()):
            return sum(sum(v) for k, v in by_name.items()
                       if k.startswith(prefix) and k not in exclude)

        def frac(num, den):
            return num / den if den else 0.0

        canon = sorted(by_name.get("graphs.canonical_form", ()), reverse=True)
        slow = canon[:max(1, len(canon) // 100)] if canon else []

        # matching_complex calls made inside run_search: prefilter survivors
        inside = 0
        for i, span in enumerate(self.spans):
            if span[0] == "complexes.matching_complex":
                p = span[3]
                while p >= 0 and self.spans[p][0] != "verify.run_search":
                    p = self.spans[p][3]
                inside += p >= 0

        m = {}
        for name in ("graphs.canonical_form", "graphs.maximal_matchings",
                     "graphs.disjoint_union", "complexes.matching_complex",
                     "homology.betti_reduced", "homology.betti_for_facets",
                     "manifold.check_manifold", "manifold.boundary_complex",
                     "manifold.classify"):
            m[f"{name}.calls"] = calls(name)
            m[f"{name}.self_s"] = self_s(name)
        m["graphs.canonical_form.new_frac"] = frac(
            len(self.keys["graphs.canonical_form"]), calls("graphs.canonical_form"))
        m["graphs.canonical_form.slow_share"] = frac(sum(slow), sum(canon))
        m["complexes.other.self_s"] = module_self_s(
            "complexes.", exclude=("complexes.matching_complex",))
        m["homology.betti_for_facets.distinct_frac"] = frac(
            len(self.keys["homology.betti_for_facets"]),
            calls("homology.betti_for_facets"))
        m["homology.p2.self_s"] = by_prime[2]
        m["homology.p3.self_s"] = by_prime[3]
        m["catalog.self_s"] = module_self_s("catalog.")
        m["verify.run_search.self_s"] = self_s("verify.run_search")
        m["verify.connected_graph_classes.self_s"] = self_s(
            "verify.connected_graph_classes")
        m["verify.graphs_examined"] = graphs_examined
        m["verify.eval_frac"] = frac(inside, graphs_examined)
        m["cli.main.self_s"] = self_s("cli.main")
        return m

    def layer_self_total(self):
        """Summed self time of every wrapped-function span."""
        return sum(s for span, s in zip(self.spans, self.self_times())
                   if span[0].split(".")[0] in TRACED_MODULES)

    def write(self, path):
        """Write the spans as gzip'd JSON lines: [name, start, end, parent,
        case, prime], times in seconds on the monotonic clock."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
