"""The benchmark tracer binds library names; a rename must not break it."""

import json
import os
import subprocess
import sys

# A module command run once under the tracer: the graph file, then the
# arguments after it.
TRACED = """
import contextlib, io, json, sys
import leavitt, leavitt.cli
from tracer import Tracer, instrument
tracer = Tracer()
instrument(leavitt, tracer)
argv = ["module", sys.argv[2], "--graph", sys.argv[1], *sys.argv[3:]]
with contextlib.redirect_stdout(io.StringIO()):
    code = leavitt.cli.main(argv)
counts = dict(tracer.counts, **{"representations.act.calls": tracer.calls["representations.act"]})
print(json.dumps({"exit": code, "counts": counts}))
"""


# Two rose3 elements parsed, multiplied and rewritten, under the tracer.
TRACED_ALGEBRA = """
import json, sys
import leavitt, leavitt.cli
from tracer import Tracer, instrument
tracer = Tracer()
instrument(leavitt, tracer)
with open(sys.argv[1], encoding="utf-8") as handle:
    graph = leavitt.parse_graph(handle.read())
q = leavitt.parse_field("q")
x = leavitt.parse_element(graph, q, "x1.x1*.x1.x2 + 1/2 x1.x2* - 2/3 x3.x2*.x2 + 3 x2*.x2.x1.x1*")
y = leavitt.parse_element(graph, q, "x1 - 5/4 x1.x1* + x3*.x3 + 7/6 x2.x1*.x1.x2*")
z = leavitt.normal_form(x * y)
print(json.dumps({"nf": str(z), "calls": tracer.calls, "counts": tracer.counts}))
"""


def run_traced(script, graph_name, *args):
    # A subprocess keeps the tracer's patches out of this test process.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    graph = os.path.join(root, "perfbench", "data", graph_name)
    argv = [sys.executable, "-c", script, graph, *args]
    done = subprocess.run(argv, env=env, capture_output=True)
    assert done.returncode == 0, done.stderr.decode()
    return json.loads(done.stdout)


def test_tracer_instruments_the_library():
    # The exact counts pin the module probe's work: a change that bypasses
    # SpanEchelon.insert or the PrefixModule actions would hide that work
    # from the benchmark and change them.  The probe's arrow and ghost
    # operators are tabled, so act counts each distinct image computed,
    # not each time a probe reads one.  roseab has one vertex, whose
    # idempotent is the unit, so the probe lists no vertex operator: no
    # act_vertex call and no insert of a row's own image.  A row made by an
    # arrow skips every ghost, whose image e*f = δ(e,f) r(f) decides; on
    # one vertex the equations those images would give are all zero.
    # The README weighted point module example.
    argv = ["mantese", "--at", "v", "--weights", "a=1,b=1", "--probe", "endo"]
    result = run_traced(TRACED, "roseab.graph", *argv)
    assert result["exit"] == 0
    counts = result["counts"]
    assert counts["probes.echelon.insert.calls"] == 194
    assert counts["probes.echelon.reduce.calls"] == 1
    assert counts["representations.act.calls"] == 192
    assert counts["probes.endo.equations"] == 126


def test_tracer_pins_a_free_prepend_chain():
    # The Rangaswamy twist on loopfam identifies no label, so an arrow only
    # prepends: the arrow tables build no image of a label at the window's
    # top degree, 243 of the 390 images the tables would build otherwise.
    # exhausts_degree walks the 121 labels up to degree 4 without the
    # traced, sorted labels(), which only the socle search still calls, on
    # the 4 labels up to degree 1.  Every insert still reaches the echelon.
    argv = ["rangaswamy", "--period", "a", "--poly", "1,1", "--probe", "chain", "--degree", "4"]
    result = run_traced(TRACED, "loopfam.graph", *argv)
    assert result["exit"] == 0
    counts = result["counts"]
    assert counts["representations.act.calls"] == 147
    assert counts["representations.labels.count"] == 4
    assert counts["probes.echelon.insert.calls"] == 127


def test_tracer_pins_the_algebra_layer():
    # Parsing folds each word as one monomial, so the one traced product is
    # x * y; a parser that multiplied its letters as Elements would add one
    # call per dot.
    result = run_traced(TRACED_ALGEBRA, "rose3.graph")
    assert result["calls"]["algebra.parse_element"] == 2
    assert result["calls"]["algebra.mul"] == 1
    assert result["calls"]["algebra.normal_form"] == 1
    assert result["counts"]["algebra.normal_form.terms_in"] == 11
    assert result["counts"]["algebra.normal_form.terms_out"] == 13
    assert result["nf"] == (
        "-3/4 v + 3 x1 + 1/6 x3 + 13/12 x1.x2* + 3/4 x2.x2* + 3/4 x3.x3* - 1/4 x1.x2"
        " - 2/3 x3.x1 - 29/18 x3.x2.x2* - 5/6 x3.x3.x3* + x1.x2.x1 + 29/12 x1.x2.x2.x2*"
        " + 5/4 x1.x2.x3.x3*"
    )


def test_tracer_bindings_cover_every_module():
    # The tracer times these on PrefixModule only, so an override in a
    # subclass would run outside the benchmark's spans.
    from leavitt import representations

    traced = {"labels", "act_vertex", "act_arrow", "act_ghost"}
    subclasses = [
        cls
        for cls in vars(representations).values()
        if isinstance(cls, type) and issubclass(cls, representations.PrefixModule)
    ]
    assert len(subclasses) > 1
    for cls in subclasses:
        if cls is not representations.PrefixModule:
            assert not traced & set(vars(cls)), cls.__name__
