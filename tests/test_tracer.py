"""The benchmark tracer binds library names; a rename must not break it."""

import os
import subprocess
import sys


def test_tracer_instruments_the_library():
    # A subprocess keeps the tracer's patches out of this test process.
    code = (
        "import leavitt, leavitt.cli; from tracer import Tracer, instrument; "
        "instrument(leavitt, Tracer())"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True)
    assert done.returncode == 0, done.stderr.decode()


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
