"""Per-layer tracing from outside the program.

The tracer replaces public functions and methods of ``leavitt`` with
wrappers that time them as spans and bump exact counters.  Spans are
aggregated in memory as they close, by name: self time (the span minus the
time its child spans cover) and call count.  Individual spans are not
kept, because the hot layers open millions of them per pass.

A function imported into several modules (``normal_form`` is bound in
``leavitt``, ``leavitt.algebra`` and ``leavitt.cli``) is replaced in every
module that holds the same object, so no caller slips past the wrapper.

``fields`` gets no span: its scalar operations run hundreds of thousands
of times per pass and a wrapper would mostly measure itself.
"""

import functools
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    """Span and counter aggregates for one traced pass."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        # Each frame is [span name, time covered by its child spans].
        self.stack = [["", 0.0]]

    def reset(self):
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.stack[:] = [["", 0.0]]

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, after=None):
        """Wrap fn as a span; after(parent_name, args, result) adds counts."""
        stack, self_s, calls = self.stack, self.self_s, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][1] += dt
                self_s[name] += dt - frame[1]
                calls[name] += 1
            if after is not None:
                after(stack[-1][0], args, result)
            return result

        return traced

    def counter(self, name, fn, after=None):
        """Wrap fn to count its calls without opening a span."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += 1
            if after is not None:
                after(args, result)
            return result

        return counted

    # -- installation -----------------------------------------------------

    @staticmethod
    def patch_function(package, original, wrapped):
        """Rebind every module-level name under package that holds original."""
        prefix = package + "."
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == package or modname.startswith(prefix)):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)


def instrument(leavitt, tracer):
    """Install the layer spans and counters on leavitt, with leavitt.cli imported."""
    algebra = leavitt.algebra
    digraph = leavitt.digraph
    schreier = leavitt.schreier
    reps = leavitt.representations
    probes = leavitt.probes
    division = leavitt.division
    counts = tracer.counts

    def fn(module, name, span, after=None):
        original = getattr(module, name)
        tracer.patch_function("leavitt", original, tracer.span(span, original, after))

    def method(cls, name, span, after=None):
        setattr(cls, name, tracer.span(span, cls.__dict__[name], after))

    def counted(cls, name, counter, after=None):
        setattr(cls, name, tracer.counter(counter, cls.__dict__[name], after))

    # algebra
    def nf_after(parent, args, result):
        counts["algebra.normal_form.terms_in"] += len(args[0].terms)
        counts["algebra.normal_form.terms_out"] += len(result.terms)

    fn(algebra, "parse_element", "algebra.parse_element")
    method(algebra.Element, "__mul__", "algebra.mul")
    fn(algebra, "normal_form", "algebra.normal_form", nf_after)

    # digraph: all_paths calls paths_from and paths_into calls all_paths, so
    # paths are counted only where they leave the layer.
    def enum_after(parent, args, result):
        if parent != "digraph.enum":
            counts["digraph.enum.paths"] += len(result)

    for name in ("paths_from", "all_paths", "paths_into"):
        method(digraph.DiGraph, name, "digraph.enum", enum_after)

    # schreier
    def build_after(parent, args, result):
        staircase = args[0]
        counts["schreier.rows"] += len(staircase.rows)
        counts["schreier.coset"] += len(staircase.coset)

    def membership_after(args, result):
        if result == "in":
            counts["schreier.membership.in"] += 1

    method(schreier.SchreierStaircase, "__init__", "schreier.build", build_after)
    counted(schreier.SchreierStaircase, "_insert", "schreier.candidates")
    method(schreier.SchreierStaircase, "reduce", "schreier.reduce")
    counted(schreier.SchreierStaircase, "membership", "schreier.membership.calls", membership_after)
    fn(schreier, "is_open", "schreier.open")
    fn(schreier, "not_open_up_to", "schreier.open")

    # representations
    def labels_after(parent, args, result):
        counts["representations.labels.count"] += len(result)

    def verify_after(parent, args, result):
        counts["representations.verify.checked"] += result["checked"]

    for name in (
        "chen_module",
        "cohn_jacobson_module",
        "rangaswamy_module",
        "rangaswamy_module_regular",
        "rangaswamy_module_infinite",
        "mantese_module",
        "linear_example_module",
        "hilbert_module",
    ):
        fn(reps, name, "representations.build")
    method(reps.PrefixModule, "labels", "representations.labels", labels_after)
    for name in ("act_vertex", "act_arrow", "act_ghost"):
        method(reps.PrefixModule, name, "representations.act")
    fn(reps, "verify_representation", "representations.verify", verify_after)

    # probes
    def closure_after(parent, args, result):
        counts["probes.closure.dim"] += result.dim
        counts["probes.closure.overflowed"] += int(result.overflowed)

    def insert_after(args, result):
        if result[2] is not None:
            counts["probes.echelon.pivots"] += 1

    def composition_after(parent, args, result):
        step_dim, total = 0, 0
        for factor in result["factors"]:
            step_dim += factor["dim_jump"]
            total += step_dim
        counts["probes.composition.recomputed_dim"] += total - result["dim"]

    def endo_after(parent, args, result):
        counts["probes.endo.equations"] += result.equations
        counts["probes.endo.independent"] += result.independent

    def simplicity_after(parent, args, result):
        counts["probes.simplicity.samples"] += result["samples"]

    fn(probes, "span_closure", "probes.span_closure", closure_after)
    # insert calls reduce, so reduce.calls counts every reduction, those
    # made on behalf of an insert included.
    counted(probes.SpanEchelon, "insert", "probes.echelon.insert.calls", insert_after)
    counted(probes.SpanEchelon, "reduce", "probes.echelon.reduce.calls")
    method(probes.SpanEchelon, "insert", "probes.echelon")
    method(probes.SpanEchelon, "reduce", "probes.echelon")
    fn(probes, "chain_candidates", "probes.candidates")
    fn(probes, "composition_probe", "probes.composition", composition_after)
    fn(probes, "endomorphism_probe", "probes.endo", endo_after)
    fn(probes, "simplicity_probe", "probes.simplicity", simplicity_after)

    # division
    for name in ("quaternion_algebra", "field_extension", "parse_algebra"):
        fn(division, name, "division.build")
    fn(division, "is_irreducible", "division.is_irreducible")

    # cli
    fn(leavitt.cli, "main", "cli.main")
