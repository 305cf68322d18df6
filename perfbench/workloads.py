"""The three benchmark workloads.

Each workload is built once from a seed (its set-up) and then hands out
fresh job lists, one per pass.  A job is a zero-argument callable into the
public ``leavitt`` API; its return value is checked outside the timed
region.  Jobs look their functions up on the ``leavitt`` package at call
time, so the tracer's wrappers see every call.

Why these three:

* ``arith`` is the only workload where ``algebra`` does the work, and the
  three graphs cover a rewriting graph (rose3), a graph where the work is
  mostly products (sink3) and one where ``normal_form`` finds no redex
  (abfam, an infinite emitter).
* ``staircase`` is where ``schreier`` and ``digraph`` do the work.  Its
  builds (writes) and membership queries (reads) are separate jobs, so a
  change that trades one for the other shows, and its prime field sets
  GF(p) scalar work apart from the two rational workloads.
* ``modules`` is the path users take, the CLI, and spends its time in
  ``representations`` and ``probes``.  ``schreier`` and ``algebra`` do
  almost nothing here, so it is the bypass for changes to those layers.
"""

import contextlib
import io
import os
import random

import inputs

PRIME_FIELD = "gf:32003"


def _read(data_dir, name):
    with open(os.path.join(data_dir, name), "r", encoding="utf-8") as handle:
        return handle.read()


def _parse_ideal(leavitt, graph, field, text):
    """Generators of an ideal file: comma or newline separated, # comments."""
    pieces = ",".join(line.split("#", 1)[0] for line in text.splitlines()).split(",")
    return [leavitt.parse_element(graph, field, p.strip()) for p in pieces if p.strip()]


class Arith:
    """Products fed through normal_form, and parsing of printed elements."""

    name = "arith"
    # Terms per factor, by graph: sink3 is small, so nearly every pair of
    # its monomials composes and few terms already make a dense product.
    FACTOR_TERMS = {"rose3": (15, 45), "sink3": (4, 12), "abfam": (15, 45)}
    GRAPHS = tuple(FACTOR_TERMS)
    DEGREE = 5
    PRODUCTS_PER_GRAPH = 400
    PARSE_TERMS = (100, 250, 500)
    # sink3 has only 108 monomials of degree at most 5, too few to parse.
    PARSE_GRAPHS = ("rose3", "abfam")
    REWRITE_SAMPLE_EVERY = 25

    def __init__(self, leavitt, seed, data_dir):
        self.leavitt = leavitt
        self.seed = seed
        rng = random.Random(seed)
        self.field = field = leavitt.parse_field("q")
        self.items = []
        graphs = {name: leavitt.parse_graph(_read(data_dir, name + ".graph")) for name in self.GRAPHS}
        for name in self.GRAPHS:
            graph = graphs[name]
            table = inputs.paths_by_target(graph, self.DEGREE)
            chain = [
                inputs.random_element(leavitt, graph, field, rng, table, rng.randint(*self.FACTOR_TERMS[name]))
                for _ in range(self.PRODUCTS_PER_GRAPH + 1)
            ]
            self.items.extend(("product", x, y) for x, y in zip(chain, chain[1:]))
        # One parse job per size, graphs taken in turn.
        for i, terms in enumerate(self.PARSE_TERMS):
            graph = graphs[self.PARSE_GRAPHS[i % len(self.PARSE_GRAPHS)]]
            table = inputs.paths_by_target(graph, self.DEGREE)
            element = inputs.random_element(leavitt, graph, field, rng, table, terms)
            self.items.append(("parse", graph, str(element), element))

    def make_jobs(self):
        L, field = self.leavitt, self.field
        jobs = []
        for item in self.items:
            if item[0] == "product":
                _, x, y = item
                jobs.append(lambda x=x, y=y: L.normal_form(x * y))
            else:
                _, graph, text, _ = item
                jobs.append(lambda graph=graph, text=text: L.parse_element(graph, field, text))
        return jobs

    def check(self, results):
        """Per job, None when the answer checks out, else the reason."""
        L = self.leavitt
        rng = random.Random(self.seed + 1)
        verdicts = []
        for k, (item, got) in enumerate(zip(self.items, results)):
            if item[0] == "parse":
                verdicts.append(None if got == item[3] else "parse round trip differs")
                continue
            _, x, y = item
            if not L.is_normal_form(got):
                verdicts.append("result is not in normal form")
            elif got != L.normal_form(L.normal_form(x) * L.normal_form(y)):
                verdicts.append("nf(x*y) != nf(nf(x)*nf(y))")
            elif k % self.REWRITE_SAMPLE_EVERY == 0 and got != inputs.random_rewrite_normal_form(L, x * y, rng):
                verdicts.append("differs from a random-order rewrite")
            else:
                verdicts.append(None)
        return verdicts

    @staticmethod
    def same(first, later):
        return first == later


class Staircase:
    """Schreier staircases of matrix-module ideals over GF(32003)."""

    name = "staircase"
    # (graph, degree, codimension) of each random ideal.  The codimensions
    # are fixed, not drawn, so every seed asks for the same amount of work.
    IDEALS = (("rose2", 8, 4), ("rose3", 6, 3), ("rose2", 8, 6), ("rose3", 6, 5))
    MEMBERS = 60
    RANDOM_QUERIES = 60
    QUERY_TERMS = 3
    QUAT_DEGREES = (7, 8, 9)
    QUAT_COSET = ["v", "a*", "b*", "a*.b*"]
    # The README ideal is a left ideal, not the two-sided kernel onto the
    # quaternions, and its 4-dimensional quotient has scalar commutant; a
    # dense computation of the commutant of the two letter actions on the
    # quotient agrees.
    QUAT_COMMUTANT = 1

    def __init__(self, leavitt, seed, data_dir):
        self.leavitt = leavitt
        rng = random.Random(seed)
        self.field = field = leavitt.parse_field(PRIME_FIELD)
        self.ideals = []
        for name, degree, codim in self.IDEALS:
            graph = leavitt.parse_graph(_read(data_dir, name + ".graph"))
            ideal = inputs.MatrixIdeal(leavitt, graph, field, rng, codim, codim)
            words = graph.all_paths(degree)
            queries = [ideal.multiple(leavitt, rng, degree) for _ in range(self.MEMBERS)]
            queries += [
                inputs.random_ghost(leavitt, graph, field, rng, words, self.QUERY_TERMS)
                for _ in range(self.RANDOM_QUERIES)
            ]
            rng.shuffle(queries)
            self.ideals.append((graph, degree, ideal, queries))
        self.roseab = leavitt.parse_graph(_read(data_dir, "roseab.graph"))
        self.quat = _parse_ideal(leavitt, self.roseab, field, _read(data_dir, "quat.ideal"))

    def make_jobs(self):
        L, field = self.leavitt, self.field
        built = {}
        jobs = []

        def build(key, graph, gens, degree):
            built[key] = L.SchreierStaircase(graph, field, gens, degree)
            return built[key]

        for k, (graph, degree, ideal, queries) in enumerate(self.ideals):
            jobs.append(lambda k=k, g=graph, i=ideal, d=degree: build(k, g, i.generators, d))
            jobs.extend(lambda k=k, x=x: built[k].membership(x) for x in queries)
        for d in self.QUAT_DEGREES:
            key = ("quat", d)
            jobs.append(lambda key=key, d=d: build(key, self.roseab, self.quat, d))
            jobs.append(
                lambda key=key, d=d: L.not_open_up_to(self.roseab, field, built[key].membership, d)
            )
            jobs.append(lambda key=key: L.endomorphism_probe(built[key]))
        return jobs

    def check(self, results):
        L = self.leavitt
        verdicts = []
        it = iter(results)
        for graph, degree, ideal, queries in self.ideals:
            st = next(it)
            n = len(graph.plain_arrows)
            if st.codimension() != ("finite", ideal.dim):
                verdicts.append(f"codimension {st.codimension()} != finite({ideal.dim})")
            elif len(st.free_generators()) != L.lewin_schreier_rank(n, ideal.dim):
                verdicts.append("free generator count differs from the Lewin-Schreier rank")
            else:
                verdicts.append(None)
            for x in queries:
                want = "in" if ideal.member(L, x) else "out"
                got = next(it)
                verdicts.append(None if got == want else f"membership {got}, dense action says {want}")
        for d in self.QUAT_DEGREES:
            st, openness, endo = next(it), next(it), next(it)
            coset = [L.mono_str((L.Path.vertex(b.target), b)) for b in st.coset_basis()]
            if st.codimension() != ("finite", 4) or coset != self.QUAT_COSET:
                verdicts.append(f"quaternion staircase {st.codimension()} {coset}")
            else:
                verdicts.append(None)
            verdicts.append(None if openness == ("not_open_up_to", d) else f"openness {openness}")
            ok = endo.dimension == self.QUAT_COMMUTANT and endo.table_closes
            verdicts.append(None if ok else f"commutant dimension {endo.dimension}")
        return verdicts

    @staticmethod
    def same(first, later):
        def digest(result):
            if isinstance(result, (str, tuple)):
                return result
            if hasattr(result, "rows"):
                return result.rows, result.coset
            return result.dimension, result.basis

        return digest(first) == digest(later)


class Modules:
    """The README module examples and the criterion-5 chain, through the CLI."""

    name = "modules"
    # At degree 7 a pass takes about 9 s and a run holds 3-4 passes, too few
    # samples of each long job for a steady median; degree 6 gives about 12.
    DEGREE = "6"
    # (argv after "module", expected report keys)
    JOBS = (
        ("chen --graph rose2.graph --word rational:x1 --probe verify", {"verify": "pass"}),
        (
            "chen --graph rose2.graph --word tm:x1,x2 --probe simplicity",
            {"verdict": "witnessed_simple_up_to"},
        ),
        ("cohn --graph sink3.graph --at w", {"verify": "pass"}),
        (
            "rangaswamy --graph loopfam.graph --period a --poly 1,1 --probe chain",
            {"length": "2", "strict": "yes", "simple_typed_factors": "1"},
        ),
        (
            "mantese --graph roseab.graph --at v --weights a=1,b=1 --probe endo",
            {"dimension": "1", "table_closes": "yes"},
        ),
        (
            "linear --graph roseab.graph --a a --b b --twist nonlinear --probe endo",
            {"dimension": "2", "table_closes": "yes"},
        ),
        (
            "hilbert --graph roseab.graph --algebra ext:1,0,1 --phi a=x,b=1 --probe endo",
            {"dimension": "2", "table_closes": "yes"},
        ),
        ("hilbert --graph roseab.graph --quat 1 1 --probe endo", {"dimension": "4", "table_closes": "yes"}),
        (
            "rangaswamy --graph loopfam.graph --period a --poly 1,1,1 --probe chain",
            {"length": "3", "strict": "yes", "simple_typed_factors": "2"},
        ),
    )

    def __init__(self, leavitt, seed, data_dir):
        # The seed is accepted for uniformity: these inputs are fixed, and
        # the probes use the CLI's own default seed.
        self.leavitt = leavitt
        self.argvs = []
        for spec, _ in self.JOBS:
            argv = ["module"] + spec.split() + ["--format", "kv", "--degree", self.DEGREE]
            i = argv.index("--graph") + 1
            argv[i] = os.path.join(data_dir, argv[i])
            self.argvs.append(argv)

    def make_jobs(self):
        L = self.leavitt

        def run(argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = L.cli.main(argv)
            return code, out.getvalue()

        return [lambda argv=argv: run(argv) for argv in self.argvs]

    def check(self, results):
        verdicts = []
        for (_, want), (code, text) in zip(self.JOBS, results):
            report = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
            wrong = {k: report.get(k) for k, v in want.items() if report.get(k) != v}
            if code != 0:
                verdicts.append(f"exit code {code}")
            else:
                verdicts.append(f"unexpected {wrong}" if wrong else None)
        return verdicts

    @staticmethod
    def same(first, later):
        return first == later


WORKLOADS = {w.name: w for w in (Arith, Staircase, Modules)}
