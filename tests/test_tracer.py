"""The benchmark tracer binds library names; a rename must not break it."""

import json
import os
import subprocess
import sys

# The README weighted point module example, run once under the tracer.
TRACED = """
import contextlib, io, json, sys
import leavitt, leavitt.cli
from tracer import Tracer, instrument
tracer = Tracer()
instrument(leavitt, tracer)
argv = ["module", "mantese", "--graph", sys.argv[1], "--at", "v",
        "--weights", "a=1,b=1", "--probe", "endo"]
with contextlib.redirect_stdout(io.StringIO()):
    code = leavitt.cli.main(argv)
counts = dict(tracer.counts, **{"representations.act.calls": tracer.calls["representations.act"]})
print(json.dumps({"exit": code, "counts": counts}))
"""


def test_tracer_instruments_the_library():
    # A subprocess keeps the tracer's patches out of this test process.  The
    # exact counts pin the module probe's work: a change that bypasses
    # SpanEchelon.insert or the PrefixModule actions would hide that work
    # from the benchmark and change them.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    graph = os.path.join(root, "perfbench", "data", "roseab.graph")
    done = subprocess.run([sys.executable, "-c", TRACED, graph], env=env, capture_output=True)
    assert done.returncode == 0, done.stderr.decode()
    result = json.loads(done.stdout)
    assert result["exit"] == 0
    counts = result["counts"]
    assert counts["probes.echelon.insert.calls"] == 384
    assert counts["probes.echelon.reduce.calls"] == 1
    assert counts["representations.act.calls"] == 610
    assert counts["probes.endo.equations"] == 126


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
