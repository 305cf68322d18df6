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
import subprocess
import sys
import time

import pytest

from leavitt import equals_cohn, parse_element, parse_field, parse_graph
from leavitt.cli import build_parser, main

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


def test_schreier_ideal_names_a_family_member(tmp_path, loopfam_file):
    # the brackets of a family index are read as they are in nf
    ideal = tmp_path / "fam.ideal"
    ideal.write_text("a*.a* - v, f[1]*\n")
    code, out, err = run_cli(
        ["schreier", "--graph", loopfam_file, "--degree", "3", str(ideal)]
    )
    assert code == 0, err
    report = lines_of(out)
    assert report["generators"] == "2"
    words = report["co_basis"].split()
    assert "f[0]*" in words
    assert not any(word.endswith("f[1]*") for word in words)


# The truncated staircase can miss ideal elements that appear only by
# cancellation above the degree; a report that shows it contradicts itself.
CANCELLING_IDEAL = (
    "x1*.x1*.x1* + x2*, x1*.x1*, x1*.x1*.x2*, x2*.x1*.x2*,"
    " x1*.x2*.x2*, x2*.x2*.x2*, x1*.x2*.x1*, x2*.x2*.x1*\n"
)


def test_schreier_rank_mismatch_exits_4(tmp_path, rose2_file):
    ideal = tmp_path / "cancel.ideal"
    ideal.write_text(CANCELLING_IDEAL)
    code, out, err = run_cli(["schreier", "--graph", rose2_file, "--degree", "3", str(ideal)])
    assert (code, out) == (4, "")
    assert "8 free generators, rank 6" in err
    # one degree deeper the cancellation is seen and the report agrees
    code, out, err = run_cli(["schreier", "--graph", rose2_file, "--degree", "4", str(ideal)])
    assert code == 0, err
    report = lines_of(out)
    assert report["codimension"] == "finite(3)"
    assert report["free_generators"] == report["lewin_schreier_rank"] == "4"


def test_schreier_open_at_zero_with_a_co_basis_exits_4(tmp_path, roseab_file):
    # modulo the ideal b* = 3/4 v and b*.b* = 1/2 v, so b* times the first
    # generator is -1/4 v: the ideal holds v and has codimension 0
    ideal = tmp_path / "vertex.ideal"
    ideal.write_text("-3 v + 4 b*, v - 2 b*.b*\n")
    code, out, err = run_cli(["schreier", "--graph", roseab_file, "--degree", "5", str(ideal)])
    assert (code, out) == (4, "")
    assert "open at level 0, 24 co_basis words" in err


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


def test_a_broken_action_fails_verification_and_exits_4(roseab_file, monkeypatch):
    # b* acting by zero breaks both relations; the report lists the failures
    from leavitt import representations

    act_ghost = representations.PrefixModule.act_ghost

    def drop_b(self, arrow, label):
        return {} if arrow.name == "b" else act_ghost(self, arrow, label)

    monkeypatch.setattr(representations.ManteseModule, "act_ghost", drop_b)
    graph = parse_graph(ROSEAB)
    a, b = graph.arrow("a"), graph.arrow("b")
    space = representations.mantese_module(graph, parse_field("q"), "v", {a: 1, b: 1})
    result = representations.verify_representation(space, 2)
    assert not result["ok"]
    assert {failure[0] for failure in result["failures"]} == {"ck1", "ck2"}
    argv = ["module", "mantese", "--graph", roseab_file, "--at", "v", "--weights", "a=1,b=1"]
    code, out, _ = run_cli([*argv, "--degree", "2", "--format", "kv"])
    assert code == 4
    assert "verify=fail\nfailure_1=ck1 b b vbar\n" in out


def test_mantese_without_at_takes_the_source_of_its_weights(roseab_file):
    code, out, _ = run_cli(
        ["module", "mantese", "--graph", roseab_file, "--weights", "a=1,b=1", "--degree", "2"]
    )
    assert code == 0
    assert lines_of(out)["vertex"] == "v"


def test_hilbert_reads_scalar_images_and_reports_its_exempt_vertex(roseab_file):
    argv = ["module", "hilbert", "--graph", roseab_file, "--algebra", "ext:1,0,1"]
    code, out, _ = run_cli([*argv, "--phi", "a=x,b=2", "--degree", "2", "--format", "kv"])
    assert code == 0
    report = dict(line.split("=", 1) for line in out.splitlines())
    assert report["phi"] == "a:x,b:2"
    assert report["variant"] == "regular"
    assert report["exempt_vertices"] == "v"
    assert report["verify"] == "pass"


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


def test_module_simplicity_full_kv_report(loopfam_file):
    code, out, _ = run_cli(
        [
            "module", "--graph", loopfam_file, "rangaswamy", "--period", "a", "--poly", "1,-1",
            "--probe", "simplicity", "--degree", "4", "--format", "kv",
        ]
    )
    assert code == 0
    assert out == (
        "seed=0\n"
        "construction=rangaswamy\n"
        "delta=a\n"
        "irreducible=yes\n"
        "junctions=a:infinite_emitter\n"
        "kind=rangaswamy\n"
        "q=-1,1\n"
        "probe=simplicity\n"
        "verdict=proper_submodule\n"
        "window=4\n"
        "samples=13\n"
        "seed=0\n"
        "submodule_dim=40\n"
        "witness=-h0 + a.h0\n"
    )

def test_induced_module_and_chen_quotient_at_an_infinite_emitter(loopfam_file):
    # The Rangaswamy module of a with q = x - 1 is induced from Chen's bottom
    # layer for (a)^w at the infinite emitter v: it is not simple, and the
    # relation h0 = a.(a* h0) that Chen's quotient imposes is the witness.
    module = ["module", "--graph", loopfam_file]
    probe = ["--probe", "simplicity", "--degree", "4"]
    code, out, _ = run_cli(module + ["rangaswamy", "--period", "a", "--poly", "1,-1"] + probe)
    assert code == 0
    report = lines_of(out)
    assert report["verdict"] == "proper_submodule"
    assert report["witness"] == "-h0 + a.h0"
    code, out, _ = run_cli(module + ["chen", "--word", "rational:a"] + probe)
    assert code == 0
    assert lines_of(out)["verdict"] == "witnessed_simple_up_to"


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


def readme_printed_examples():
    """(argv, stdout) of each ``$ leavitt`` line the README prints output for."""
    with open(README, encoding="utf-8") as handle:
        blocks = re.findall(r"```sh\n(.*?)```", handle.read(), re.S)
    examples = []
    for block in blocks:
        current = None
        for line in block.splitlines():
            if line.startswith("$ leavitt "):
                current = [shlex.split(line[len("$ leavitt "):]), ""]
                examples.append(current)
            elif current is not None:
                current[1] += line + "\n"
    return examples


def readme_printed_transcript(directory):
    """Exit code and stdout of each printed README example, at its defaults."""
    files = dict(README_GRAPHS, **{"quat.ideal": QUAT_IDEAL})
    for name, text in files.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
            handle.write(text)
    chunks = []
    for argv, _ in readme_printed_examples():
        code, out, err = run_cli([os.path.join(directory, a) if a in files else a for a in argv])
        chunks.append(f"$ leavitt {shlex.join(argv)}\nexit={code}\n{out}{err}")
    return "".join(chunks)


HASH_ORDER_REPLAY = """\
import sys
from leavitt import parse_graph
import test_cli

# 2801 paths no example uses, made first, move every later path and arrow
# to other addresses, and so to other identity hashes
parse_graph("[vertices]\\nz\\n[families]\\nk[]: z -> z\\n").all_paths(4, family_cap=7)
sys.stdout.write(test_cli.readme_printed_transcript(sys.argv[1]))
sys.stdout.write(test_cli.readme_module_transcript(sys.argv[1]))
"""


def test_readme_output_does_not_depend_on_hash_order(tmp_path):
    # Paths and arrows hash by identity, so a set or dict of them iterated
    # into a report would order it by memory address.
    examples = readme_printed_examples()
    assert [argv[0] for argv, _ in examples] == ["nf", "schreier"]
    src = os.path.join(os.path.dirname(HERE), "src")
    env = dict(os.environ, PYTHONHASHSEED="2", PYTHONPATH=os.pathsep.join([src, HERE]))
    out = subprocess.run(
        [sys.executable, "-c", HASH_ORDER_REPLAY, str(tmp_path)],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = handle.read()
    printed = "".join(f"$ leavitt {shlex.join(argv)}\nexit=0\n{text}" for argv, text in examples)
    assert out == printed + golden


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


def test_subcommands_refuse_flags_they_do_not_read(tmp_path, rose2_file, roseab_file):
    for flag, value in (("--samples", "3"), ("--degree", "2"), ("--family-cap", "5"), ("--seed", "9")):
        code, out, err = run_cli(["nf", "--graph", rose2_file, flag, value, "v"])
        assert (code, out) == (1, "")
        assert flag in err
    ideal = tmp_path / "quat.ideal"
    ideal.write_text(QUAT_IDEAL)
    code, out, err = run_cli(["schreier", "--graph", roseab_file, "--samples", "3", str(ideal)])
    assert (code, out) == (1, "")
    assert "--samples" in err
    # the flags each one reads still parse, and schreier still reports its seed
    assert run_cli(["nf", "--graph", rose2_file, "--field", "gf:7", "--format", "kv", "v"])[0] == 0
    code, out, _ = run_cli(["schreier", "--graph", roseab_file, "--seed", "9", "--degree", "3", str(ideal)])
    assert code == 0
    assert lines_of(out)["seed"] == "9"


def test_an_unknown_flag_is_named_on_its_own(tmp_path, rose2_file, roseab_file):
    ideal = tmp_path / "quat.ideal"
    ideal.write_text(QUAT_IDEAL)
    chen = ["module", "--graph", rose2_file, "chen", "--word", "rational:x1"]
    for argv, named in (
        (["nf", "--graph", rose2_file, "--samples", "3", "v"], "--samples"),
        (["nf", "--graph", rose2_file, "--bogus", "v"], "--bogus"),
        (["nf", "--graph", rose2_file, "v", "extra"], "extra"),
        (["schreier", "--graph", roseab_file, "--samples", "3", str(ideal)], "--samples"),
        (chen + ["--bogus", "1"], "--bogus"),
    ):
        code, out, err = run_cli(argv)
        assert (code, out) == (1, "")
        assert err == f"error: unrecognized arguments: {named}\n"
    # a negative number is still read as the expression
    assert run_cli(["nf", "--graph", rose2_file, "-1"]) == (0, "-v\n", "")

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


@pytest.mark.parametrize(
    "poly, field",
    [("1,0,1", "gf:1000000000000000003"), ("1,0,1000000007", "q")],
)
def test_rangaswamy_irreducibility_is_fast(loopfam_file, poly, field):
    # x^2 + 1 is irreducible mod p = 10^18 + 3, as p = 3 mod 4
    start = time.perf_counter()
    code, out, _ = run_cli(
        [
            "module",
            "--graph",
            loopfam_file,
            "--field",
            field,
            "rangaswamy",
            "--period",
            "a",
            "--poly",
            poly,
            "--degree",
            "2",
        ]
    )
    assert time.perf_counter() - start < 1
    assert code == 0
    assert lines_of(out)["irreducible"] == "yes"


def test_parse_errors_exit_2(tmp_path, rose2_file):
    code, _, err = run_cli(["nf", "--graph", rose2_file, "x1 +* junk"])
    assert code == 2
    assert "error:" in err
    missing = str(tmp_path / "missing.graph")
    assert run_cli(["nf", "--graph", missing, "v"])[0] == 2
    bad_graph = tmp_path / "bad.graph"
    bad_graph.write_text("[arrows]\na: v -> v\n")
    assert run_cli(["nf", "--graph", str(bad_graph), "v"])[0] == 2


@pytest.mark.parametrize("expr", ["\u0663 f[3]", "3 f[\u0663]", "1/\u0663 a"])
def test_non_ascii_digits_exit_2(loopfam_file, expr):
    # coefficients and family indices are ASCII digits; \d would read an
    # Arabic-Indic three as 3, print 3 f[3] and exit 0
    code, out, err = run_cli(["nf", "--graph", loopfam_file, expr])
    assert (code, out) == (2, "")
    assert "error:" in err


def test_zero_denominator_in_prime_field_exits_2(rose2_file):
    # a subprocess, so that an escaping exception shows as a traceback
    code = "import sys; from leavitt.cli import main; sys.exit(main(sys.argv[1:]))"
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    argv = ["nf", "--graph", rose2_file, "--field", "gf:5", "1/5 x1"]
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True
    )
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert "1/5" in done.stderr


@pytest.mark.parametrize(
    "graph, construction, code, message",
    [
        (ROSEAB, ["rangaswamy", "--poly", "1,1"], 1, "the rangaswamy construction needs --period"),
        (ROSEAB, ["rangaswamy", "--period", "a"], 1,
         "the rangaswamy construction needs --poly like 1,-1"),
        (ROSEAB, ["mantese"], 1, "the mantese construction needs --weights like a=1,b=1"),
        (ROSEAB, ["hilbert"], 1, "the hilbert construction needs --algebra or --quat"),
        (ROSEAB, ["hilbert", "--algebra", "ext:1,0,1"], 1,
         "the hilbert construction needs --phi like y1=x,y2=1 or --quat"),
        (ROSEAB, ["linear", "--a", "a"], 1, "give both --a and --b, or neither"),
        (SINK3, ["cohn"], 1, "--at VERTEX is required on a graph with several vertices"),
        (ROSEAB, ["chen", "--word", "sturm:a"], 2,
         "unknown word kind 'sturm', expected rational or tm"),
        (ROSEAB, ["chen", "--word", "tm:a"], 2, "thue_morse words need two arrows: tm:a,b"),
        (ROSEAB, ["chen", "--word", "tm:a.b,b"], 2, "'a.b' does not name a single arrow"),
        (ROSEAB, ["mantese", "--weights", "a"], 2, "'a' is not of the form arrow=value"),
        (ROSEAB, ["cohn", "--at", "w"], 2, "unknown vertex 'w'"),
        (LOOPFAM, ["linear", "--at", "v"], 3, "vertex v carries fewer than two loops"),
        (LOOPFAM, ["hilbert", "--quat", "1", "1"], 3, "vertex v carries fewer than two loops"),
    ],
)
def test_construction_input_refusals(tmp_path, graph, construction, code, message):
    path = tmp_path / "input.graph"
    path.write_text(graph)
    argv = ["module", "--graph", str(path), *construction, "--probe", "verify"]
    assert run_cli(argv) == (code, "", f"error: {message}\n")


def test_a_polynomial_coefficient_that_does_not_parse_exits_2(roseab_file):
    argv = ["module", "--graph", roseab_file, "rangaswamy", "--period", "a", "--poly", "1,x"]
    assert run_cli(argv) == (2, "", "error: bad rational literal 'x'\n")


@pytest.mark.parametrize(
    "construction",
    [
        ["mantese", "--weights", "a=1,b=0,a=2"],
        ["hilbert", "--algebra", "ext:1,0,1", "--phi", "a=x,a=1,b=1"],
    ],
)
def test_an_arrow_given_two_values_exits_2(roseab_file, construction):
    code, out, err = run_cli(["module", "--graph", roseab_file, *construction])
    assert (code, out) == (2, "")
    assert "the arrow a is given more than one value" in err


def test_an_empty_piece_of_an_arrow_value_list_is_skipped(roseab_file):
    argv = ["module", "--graph", roseab_file, "mantese", "--probe", "endo", "--degree", "3"]
    plain = run_cli([*argv, "--weights", "a=1,b=1"])
    assert plain[0] == 0
    assert run_cli([*argv, "--weights", "a=1,,b=1, ,"]) == plain


@pytest.mark.parametrize("extra", [["--algebra", "ext:1,0,1"], ["--phi", "a=1,b=1"]])
def test_quat_with_algebra_or_phi_exits_1(roseab_file, extra):
    argv = ["module", "--graph", roseab_file, "hilbert", "--quat", "1", "1", *extra]
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "")
    assert "--quat" in err


TWO_ROSES = """\
[vertices]
v
w
[arrows]
a: v -> v
b: v -> v
c: w -> w
d: w -> w
"""


@pytest.mark.parametrize(
    "loops", [["--a", "a", "--b", "b"], ["--a", "c", "--b", "d"], ["--a", "c"]]
)
def test_linear_with_at_and_named_loops_exits_1(tmp_path, loops):
    # --at picks the loop pair at a vertex and --a/--b name one, so the
    # two together are refused rather than one of them ignored.
    graph = tmp_path / "two_roses.graph"
    graph.write_text(TWO_ROSES)
    base = ["module", "--graph", str(graph)]
    code, out, err = run_cli([*base, "--at", "w", "linear", *loops, "--probe", "verify"])
    assert (code, out) == (1, "")
    assert "--at" in err
    # either on its own builds the module at w
    at_w = run_cli([*base, "--at", "w", "linear", "--probe", "verify"])
    named = run_cli([*base, "linear", "--a", "c", "--b", "d", "--probe", "verify"])
    assert at_w == named and at_w[0] == 0
    assert "relation: w - c - c.d\n" in at_w[1]


@pytest.mark.parametrize(
    "construction",
    [
        ["rangaswamy", "--period", "e", "--poly", "1,1"],
        ["rangaswamy", "--period", "u", "--poly", "1,1"],
        ["chen", "--word", "rational:e"],
        ["chen", "--word", "rational:u"],
    ],
)
def test_a_period_that_is_no_closed_path_exits_2(tmp_path, construction):
    graph = tmp_path / "sink3.graph"
    graph.write_text(SINK3)
    code, out, err = run_cli(["module", "--graph", str(graph), *construction])
    assert (code, out) == (2, "")
    assert "is not a closed nonempty path" in err


@pytest.mark.parametrize(
    "construction, option",
    [
        (["cohn", "--weights", "a=1"], "--weights"),
        (["chen", "--word", "rational:a", "--at", "v"], "--at"),
        (["rangaswamy", "--period", "a", "--poly", "1,1", "--weights", "a=1"], "--weights"),
        (["hilbert", "--quat", "1", "1", "--word", "rational:a"], "--word"),
        (["mantese", "--weights", "a=1,b=1", "--twist", "linear"], "--twist"),
        (["linear", "--a", "a", "--b", "b", "--period", "a"], "--period"),
        (["cohn", "--a", "a"], "--a"),
    ],
)
def test_constructions_refuse_options_they_do_not_read(roseab_file, construction, option):
    code, out, err = run_cli(["module", "--graph", roseab_file, *construction])
    assert (code, out) == (1, "")
    assert f"the {construction[0]} construction does not read {option}\n" in err


@pytest.mark.parametrize("probe", ["verify", "chain", "endo"])
def test_only_the_simplicity_probe_reads_samples(rose2_file, probe):
    argv = ["module", "--graph", rose2_file, "chen", "--word", "rational:x1", "--probe", probe]
    code, out, err = run_cli([*argv, "--samples", "5"])
    assert (code, out) == (1, "")
    assert err == f"error: the {probe} probe does not read --samples\n"


def test_the_simplicity_probe_keeps_its_own_sample_default(rose2_file):
    argv = ["module", "--graph", rose2_file, "chen", "--word", "rational:x1", "--probe",
            "simplicity", "--degree", "3"]
    given = run_cli([*argv, "--samples", "12"])
    assert given == run_cli(argv) and given[0] == 0
    assert "samples: 12\n" in given[1]
    assert "samples: 5\n" in run_cli([*argv, "--samples", "5"])[1]


@pytest.mark.parametrize("name", ["2a", "é"])
def test_a_graph_naming_an_arrow_no_expression_reads_exits_2(tmp_path, name):
    # 2a would read as twice a, and é not at all, so the graph is refused
    graph = tmp_path / "bad.graph"
    graph.write_text(f"[vertices]\nv\n[arrows]\na: v -> v\n{name}: v -> v\n", encoding="utf-8")
    code, out, err = run_cli(["nf", "--graph", str(graph), "a"])
    assert (code, out) == (2, "")
    assert err == f"error: line 5: bad identifier {name!r}\n"


def test_a_signed_family_index_in_a_period_exits_2(loopfam_file):
    argv = ["module", "--graph", loopfam_file, "rangaswamy", "--poly", "1,-1", "--degree", "2"]
    assert run_cli([*argv, "--period", "f[1]"])[0] == 0
    code, out, err = run_cli([*argv, "--period", "f[+1]"])
    assert (code, out) == (2, "")
    assert "'f[+1]'" in err


def test_a_given_default_twist_is_read(roseab_file):
    argv = ["module", "--graph", roseab_file, "linear", "--a", "a", "--b", "b"]
    given = run_cli([*argv, "--twist", "linear"])
    assert given == run_cli(argv) and given[0] == 0
    assert "twist: linear\n" in given[1]


def test_the_parser_is_built_once_and_reused(rose2_file):
    # main parses every call with one parser; a call that fails on usage
    # leaves nothing behind that changes the next call's answer.
    assert build_parser() is build_parser()
    good = ["module", "--graph", rose2_file, "chen", "--word", "rational:x1", "--degree", "3"]
    alone = run_cli(good)
    assert alone[0] == 0
    assert run_cli(["module", "--graph", rose2_file, "cohn", "--word", "tm:x1,x2"])[0] == 1
    assert run_cli(["module", "--graph", rose2_file, "chen", "--degree", "-1"])[0] == 1
    assert run_cli(good) == alone


def test_precondition_errors_exit_3(loopfam_file):
    # only one plain loop, so no loop pair to build on
    code, _, err = run_cli(["module", "--graph", loopfam_file, "linear"])
    assert code == 3
    assert "two loops" in err


def test_a_module_on_a_family_member_past_the_cap_exits_3(loopfam_file):
    # Below cap 6 the chain would run as if f[5] did not exist and report
    # one factor; the refusal names the cap that covers it.
    argv = ["module", "--graph", loopfam_file, "rangaswamy", "--period", "f[5]", "--poly", "1,1"]
    argv += ["--probe", "chain", "--degree", "3"]
    code, out, err = run_cli(argv)
    assert (code, out) == (3, "")
    assert err == (
        "error: the module reads f[5], a family member that family cap 2 leaves out; "
        "a cap of 6 or more covers it\n"
    )
    code, out, _ = run_cli([*argv, "--family-cap", "6"])
    assert code == 0
    assert lines_of(out)["length"] == "2"
    chen = ["module", "--graph", loopfam_file, "chen", "--word", "rational:f[3]", "--probe", "verify"]
    code, out, err = run_cli([*chen, "--family-cap", "1"])
    assert (code, out) == (3, "")
    assert "a cap of 4 or more" in err
    code, out, _ = run_cli([*chen, "--family-cap", "4"])
    assert code == 0
    assert lines_of(out)["verify"] == "pass"
    # a Thue-Morse word reads f[3] from its second letter on
    tm = ["module", "--graph", loopfam_file, "chen", "--word", "tm:a,f[3]", "--degree"]
    assert run_cli([*tm, "0"])[0] == 0
    assert run_cli([*tm, "1"])[0] == 3


def test_endomorphism_probe_below_the_generator_degree_exits_3(roseab_file):
    argv = ["module", "mantese", "--graph", roseab_file, "--at", "v", "--weights", "a=1,b=1"]
    code, out, err = run_cli(argv + ["--probe", "endo", "--degree", "0"])
    assert code == 3
    assert out == ""
    assert "degree at least 1" in err
    code, out, _ = run_cli(argv + ["--probe", "endo", "--degree", "1"])
    assert code == 0
    assert lines_of(out)["dimension"] == "1"


def test_mantese_base_vertex_does_not_depend_on_hash_order(tmp_path):
    # e leaves u and h leaves v: without --at there is no one base vertex,
    # and the error names both, the same under every string hash seed.
    graph = tmp_path / "sink3.graph"
    graph.write_text(SINK3)
    argv = ["module", "mantese", "--graph", str(graph), "--weights", "e=1,h=1", "--probe", "verify"]
    script = "import sys\nfrom leavitt.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    src = os.path.join(os.path.dirname(HERE), "src")
    runs = [
        subprocess.run(
            [sys.executable, "-c", script, *argv],
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
            capture_output=True,
        )
        for seed in ("1", "2")
    ]
    assert [done.returncode for done in runs] == [3, 3]
    assert runs[0].stderr == runs[1].stderr
    assert runs[0].stderr.decode() == "error: the weighted arrows leave u, v; choose the base vertex with --at\n"


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
