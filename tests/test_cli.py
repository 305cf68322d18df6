"""End-to-end checks of the command line front end.

Every test drives leavitt.cli.main with an argv list and captured
streams, the same entry the console script uses.  Reports are compared
as whole blobs where the output is part of the contract and line by
line where only single facts matter.
"""

import contextlib
import io
import os
import re
import shlex
import time

import pytest

from leavitt import equals_cohn, parse_element, parse_field, parse_graph
from leavitt.cli import main

from conftest import LOOPFAM, ROSE2, ROSEAB, SINK3

FREE2 = """\
[vertices]
v
[arrows]
y1: v -> v
y2: v -> v
"""

QUAT_IDEAL = """\
# quaternion fixture, c = d = 1
a*.a* + v,
b*.b* + v,
a*.b* + b*.a*,
b*.a*.b* + a*,
a*.b*.a* + b*
"""

POINT_IDEAL = "y1* - v, y2*\n"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def rose2_file(tmp_path):
    path = tmp_path / "rose2.graph"
    path.write_text(ROSE2)
    return str(path)


@pytest.fixture
def roseab_file(tmp_path):
    path = tmp_path / "roseab.graph"
    path.write_text(ROSEAB)
    return str(path)


@pytest.fixture
def loopfam_file(tmp_path):
    path = tmp_path / "loopfam.graph"
    path.write_text(LOOPFAM)
    return str(path)


@pytest.fixture
def free2_file(tmp_path):
    path = tmp_path / "free2.graph"
    path.write_text(FREE2)
    return str(path)


def lines_of(text):
    return dict(
        line.split(": ", 1) for line in text.splitlines() if ": " in line
    )


# -- nf -------------------------------------------------------------------------------


def test_nf_summation_relation(rose2_file):
    code, out, err = run_cli(["nf", "--graph", rose2_file, "x1.x1* + x2.x2*"])
    assert (code, out, err) == (0, "v\n", "")


def test_nf_mismatched_ghost_product(rose2_file):
    code, out, _ = run_cli(["nf", "--graph", rose2_file, "x1*.x2"])
    assert (code, out) == (0, "0\n")


def test_nf_vertex_is_already_normal(rose2_file):
    code, out, _ = run_cli(["nf", "--graph", rose2_file, "v"])
    assert (code, out) == (0, "v\n")


def test_nf_kv_format(rose2_file):
    code, out, _ = run_cli(
        ["nf", "--graph", rose2_file, "--format", "kv", "x1.x1* + x2.x2*"]
    )
    assert code == 0
    assert out == "input=x1.x1* + x2.x2*\nnormal_form=v\n"


def test_nf_output_reparses_to_the_same_class(rose2_file):
    code, out, _ = run_cli(["nf", "--graph", rose2_file, "x1.x1*"])
    assert code == 0
    graph = parse_graph(ROSE2)
    field = parse_field("q")
    from leavitt import normal_form

    expected = normal_form(parse_element(graph, field, "x1.x1*"))
    assert equals_cohn(parse_element(graph, field, out.strip()), expected)


# -- schreier -------------------------------------------------------------------------


def test_schreier_quaternion_ideal(tmp_path, roseab_file):
    ideal = tmp_path / "quat.ideal"
    ideal.write_text(QUAT_IDEAL)
    code, out, _ = run_cli(
        ["schreier", "--graph", roseab_file, "--degree", "6", str(ideal)]
    )
    assert code == 0
    assert out == (
        "seed: 0\n"
        "degree: 6\n"
        "generators: 5\n"
        "stabilized: yes\n"
        "codimension: finite(4)\n"
        "co_basis: v a* b* a*.b*\n"
        "free_generators: 5\n"
        "lewin_schreier_rank: 5\n"
        "openness: not_open_up_to(6)\n"
    )


def test_schreier_point_ideal(tmp_path, free2_file):
    ideal = tmp_path / "point.ideal"
    ideal.write_text(POINT_IDEAL)
    code, out, _ = run_cli(
        ["schreier", "--graph", free2_file, "--degree", "5", str(ideal)]
    )
    assert code == 0
    report = lines_of(out)
    assert report["codimension"] == "finite(1)"
    assert report["co_basis"] == "v"
    assert report["free_generators"] == "2"
    assert report["lewin_schreier_rank"] == "2"
    assert report["openness"] == "not_open_up_to(5)"


def test_schreier_empty_ideal(tmp_path, rose2_file):
    ideal = tmp_path / "empty.ideal"
    ideal.write_text("# nothing here\n")
    code, out, _ = run_cli(
        ["schreier", "--graph", rose2_file, "--degree", "3", str(ideal)]
    )
    assert code == 0
    report = lines_of(out)
    assert report["generators"] == "0"
    assert report["stabilized"] == "no"
    assert report["codimension"] == "at_least(15)"
    assert report["openness"] == "unknown(0)"
    assert len(report["co_basis"].split()) == 15


def test_schreier_kv_format(tmp_path, free2_file):
    ideal = tmp_path / "point.ideal"
    ideal.write_text(POINT_IDEAL)
    code, out, _ = run_cli(
        [
            "schreier",
            "--graph",
            free2_file,
            "--degree",
            "5",
            "--format",
            "kv",
            str(ideal),
        ]
    )
    assert code == 0
    assert "codimension=finite(1)\n" in out
    assert "co_basis=v\n" in out
    assert all("=" in line for line in out.splitlines())


# -- module ---------------------------------------------------------------------------


def test_module_chen_verify(rose2_file):
    code, out, _ = run_cli(
        [
            "module",
            "--graph",
            rose2_file,
            "chen",
            "--word",
            "rational:x1",
            "--probe",
            "verify",
            "--degree",
            "6",
        ]
    )
    assert code == 0
    assert out == (
        "seed: 0\n"
        "construction: chen\n"
        "kind: chen\n"
        "rational: True\n"
        "word: (x1)^w\n"
        "probe: verify\n"
        "degree: 6\n"
        "labels: 64\n"
        "checked: 320\n"
        "verify: pass\n"
    )


def test_module_rangaswamy_chain(loopfam_file):
    code, out, _ = run_cli(
        [
            "module",
            "--graph",
            loopfam_file,
            "rangaswamy",
            "--period",
            "a",
            "--poly",
            "1,-1",
            "--probe",
            "chain",
            "--degree",
            "6",
        ]
    )
    assert code == 0
    report = lines_of(out)
    assert report["length"] == "2"
    assert report["strict"] == "yes"
    assert report["simple_typed_factors"] == "1"
    assert report["factor_1"].startswith("type=S_v strict=yes")


def test_module_hilbert_quaternion_endo(roseab_file):
    code, out, _ = run_cli(
        [
            "module",
            "--graph",
            roseab_file,
            "hilbert",
            "--quat",
            "1",
            "1",
            "--probe",
            "endo",
            "--degree",
            "4",
        ]
    )
    assert code == 0
    report = lines_of(out)
    assert report["dimension"] == "4"
    assert report["table_closes"] == "yes"
    assert report["unit"] == "1,0,0,0"
    # i*i = j*j = -1 and ij = -ji in the commutant table
    assert report["table_1_1"] == "-1,0,0,0"
    assert report["table_2_2"] == "-1,0,0,0"
    assert report["table_1_2"] == "0,0,0,-1"
    assert report["table_2_1"] == "0,0,0,1"


def test_module_nonlinear_endo(roseab_file):
    code, out, _ = run_cli(
        [
            "module",
            "--graph",
            roseab_file,
            "linear",
            "--twist",
            "nonlinear",
            "--probe",
            "endo",
            "--degree",
            "5",
        ]
    )
    assert code == 0
    report = lines_of(out)
    assert report["relation"] == "v - a.a - a"
    assert report["dimension"] == "2"
    # basis (unit, t) with t*t = unit - t, the golden ratio twist
    assert report["table_1_1"] == "1,-1"


def test_module_simplicity_verdict(rose2_file):
    code, out, _ = run_cli(
        [
            "module",
            "--graph",
            rose2_file,
            "chen",
            "--word",
            "rational:x1",
            "--probe",
            "simplicity",
            "--degree",
            "5",
        ]
    )
    assert code == 0
    report = lines_of(out)
    assert report["verdict"] == "witnessed_simple_up_to"
    assert report["seed"] == "0"


# -- README examples ------------------------------------------------------------------

HERE = os.path.dirname(os.path.abspath(__file__))
README = os.path.join(os.path.dirname(HERE), "README.md")
GOLDEN = os.path.join(HERE, "golden", "readme_modules.txt")
README_GRAPHS = {
    "rose2.graph": ROSE2,
    "roseab.graph": ROSEAB,
    "sink3.graph": SINK3,
    "loopfam.graph": LOOPFAM,
}


def readme_module_commands():
    """argv of every ``leavitt module`` line in the README's sh blocks."""
    with open(README, encoding="utf-8") as handle:
        blocks = re.findall(r"```sh\n(.*?)```", handle.read(), re.S)
    return [
        shlex.split(line[len("leavitt "):])
        for block in blocks
        for line in block.splitlines()
        if line.startswith("leavitt module ")
    ]


def readme_module_transcript(directory):
    """Exit code and kv report of each README module command at degree 4."""
    for name, text in README_GRAPHS.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
            handle.write(text)
    chunks = []
    for argv in readme_module_commands():
        argv = argv + ["--degree", "4", "--format", "kv"]
        code, out, err = run_cli(
            [os.path.join(directory, a) if a in README_GRAPHS else a for a in argv]
        )
        chunks.append(f"$ leavitt {shlex.join(argv)}\nexit={code}\n{out}{err}")
    return "".join(chunks)


def test_readme_module_examples_match_golden(tmp_path):
    # The golden file is the transcript the README examples are held to;
    # rewrite it with readme_module_transcript only when a report is meant
    # to change.
    assert len(readme_module_commands()) == 8
    with open(GOLDEN, encoding="utf-8") as handle:
        expected = handle.read()
    assert readme_module_transcript(str(tmp_path)) == expected


# -- failure modes --------------------------------------------------------------------


def test_usage_errors_exit_1(rose2_file):
    assert run_cli([])[0] == 1
    assert run_cli(["nf", "--graph", rose2_file, "--bogus", "v"])[0] == 1
    assert run_cli(["nf", "v"])[0] == 1  # no --graph
    code, _, err = run_cli(
        ["module", "--graph", rose2_file, "chen", "--probe", "verify"]
    )
    assert code == 1
    assert "--word" in err
    for flag, value in (("--degree", "-3"), ("--family-cap", "-1"), ("--samples", "0")):
        code, out, err = run_cli(
            ["module", "--graph", rose2_file, "chen", "--word", "rational:x1", flag, value]
        )
        assert code == 1 and not out
        assert flag in err


def test_large_prime_field(rose2_file):
    start = time.perf_counter()
    code, out, _ = run_cli(
        ["nf", "--graph", rose2_file, "--field", "gf:1000000000000000003", "x1.x1* + x2.x2*"]
    )
    assert time.perf_counter() - start < 1
    assert (code, out) == (0, "v\n")
    code, _, err = run_cli(["nf", "--graph", rose2_file, "--field", "gf:1000000000000000001", "v"])
    assert code == 2
    assert "not prime" in err


def test_parse_errors_exit_2(tmp_path, rose2_file):
    code, _, err = run_cli(["nf", "--graph", rose2_file, "x1 +* junk"])
    assert code == 2
    assert "error:" in err
    missing = str(tmp_path / "missing.graph")
    assert run_cli(["nf", "--graph", missing, "v"])[0] == 2
    bad_graph = tmp_path / "bad.graph"
    bad_graph.write_text("[arrows]\na: v -> v\n")
    assert run_cli(["nf", "--graph", str(bad_graph), "v"])[0] == 2


def test_precondition_errors_exit_3(loopfam_file):
    # only one plain loop, so no loop pair to build on
    code, _, err = run_cli(["module", "--graph", loopfam_file, "linear"])
    assert code == 3
    assert "two loops" in err


def test_reports_are_deterministic(tmp_path, roseab_file):
    ideal = tmp_path / "quat.ideal"
    ideal.write_text(QUAT_IDEAL)
    argv = ["schreier", "--graph", roseab_file, "--degree", "5", str(ideal)]
    assert run_cli(argv) == run_cli(argv)
    argv = [
        "module",
        "--graph",
        roseab_file,
        "hilbert",
        "--quat",
        "1",
        "1",
        "--probe",
        "endo",
        "--degree",
        "4",
    ]
    assert run_cli(argv) == run_cli(argv)
