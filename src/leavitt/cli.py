"""Command line front end.

Three subcommands cover the library surface: ``nf`` canonicalizes an
element expression, ``schreier`` reports the staircase of a left ideal
given by a generator file, and ``module`` builds one of the packaged
module constructions and runs a probe against it.  Every report is
deterministic for fixed inputs; the seed in effect is part of the
report whenever randomness is involved.
"""

import argparse
import functools
import sys

from .algebra import mono_str, normal_form, parse_element
from .digraph import Path, parse_graph, parse_path, periodic_word, thue_morse_word
from .division import parse_algebra, quaternion_algebra
from .errors import InvariantError, LeavittError, ParseError, PreconditionError, UsageError
from .fields import parse_field
from .probes import (
    chain_candidates,
    composition_probe,
    endomorphism_probe,
    simplicity_probe,
)
from .representations import (
    chen_module,
    cohn_jacobson_module,
    hilbert_module,
    linear_example_module,
    mantese_module,
    rangaswamy_module,
    verify_representation,
)
from .schreier import SchreierStaircase, lewin_schreier_rank, not_open_up_to


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems through our errors."""

    def error(self, message):
        raise UsageError(message)

    def parse_args(self, args=None, namespace=None):
        # argparse binds the value of an unknown flag as a positional when it
        # can, which leaves the real positional over; so name the leftover
        # flags alone, and every leftover only when none is a flag.
        args, extra = self.parse_known_args(args, namespace)
        if extra:
            flags = [word for word in extra if word.startswith("-")]
            self.error(f"unrecognized arguments: {' '.join(flags or extra)}")
        return args


def _count_from(low):
    """argparse type: an integer no smaller than low."""

    def count(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return count


class Report:
    """Ordered key-value report with two renderings.

    Text mode prints ``key: value`` lines for humans; kv mode prints
    ``key=value`` with stable keys so scripts can diff runs.
    """

    def __init__(self):
        self.pairs = []

    def add(self, key, value):
        self.pairs.append((key, str(value)))

    def emit(self, fmt, out):
        for key, value in self.pairs:
            if fmt == "kv":
                out.write(f"{key}={value}\n")
            else:
                out.write(f"{key}: {value}\n")


def _read_text(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _load_graph(args):
    if not args.graph:
        raise UsageError("--graph FILE is required for this command")
    return parse_graph(_read_text(args.graph))


def _single_arrow(graph, text):
    path = parse_path(graph, text.strip())
    if path.is_vertex or len(path) != 1:
        raise ParseError(f"{text!r} does not name a single arrow")
    return path.arrows[0]


def _default_vertex(graph, at):
    if at is not None:
        if not graph.has_vertex(at):
            raise ParseError(f"unknown vertex {at!r}")
        return at
    if len(graph.vertices) == 1:
        return graph.vertices[0]
    raise UsageError("--at VERTEX is required on a graph with several vertices")


def _parse_ideal(graph, field, text):
    """Generator list: comma or newline separated expressions, # comments."""
    chunks = [line.split("#", 1)[0] for line in text.splitlines()]
    generators = []
    for piece in ",".join(chunks).split(","):
        piece = piece.strip()
        if piece:
            generators.append(parse_element(graph, field, piece))
    return generators


def _closed_path(graph, text):
    path = parse_path(graph, text)
    if path.is_vertex or path.source != path.target:
        raise ParseError(f"{text!r} is not a closed nonempty path")
    return path


def _parse_word(graph, spec):
    if spec is None:
        raise UsageError("the chen construction needs --word")
    kind, _, rest = spec.partition(":")
    if kind == "rational":
        return periodic_word(_closed_path(graph, rest))
    if kind in ("tm", "thue_morse"):
        names = rest.split(",")
        if len(names) != 2:
            raise ParseError("thue_morse words need two arrows: tm:a,b")
        return thue_morse_word(graph, _single_arrow(graph, names[0]), _single_arrow(graph, names[1]))
    raise ParseError(f"unknown word kind {kind!r}, expected rational or tm")


def _arrow_values(graph, spec, value_of):
    """An arrow=value list, each arrow at most once, read through value_of."""
    values = {}
    for piece in spec.split(","):
        piece = piece.strip()
        if not piece:
            continue
        name, eq, value = piece.partition("=")
        if not eq:
            raise ParseError(f"{piece!r} is not of the form arrow=value")
        arrow = _single_arrow(graph, name)
        if arrow in values:
            raise ParseError(f"the arrow {arrow} is given more than one value")
        values[arrow] = value_of(value.strip())
    return values


def _parse_poly(field, spec):
    """Polynomial coefficients, highest power first, e.g. 1,-1 for x - 1."""
    if spec is None:
        raise UsageError("the rangaswamy construction needs --poly like 1,-1")
    coeffs = [field.parse(t.strip()) for t in spec.split(",")]
    coeffs.reverse()
    return coeffs


def _loop_pair(graph, at):
    """The first two loops by name at vertex at, or at the first vertex carrying two."""
    for v in sorted(graph.vertices) if at is None else [_default_vertex(graph, at)]:
        loops = sorted(
            (a for a in graph.plain_arrows if a.source == a.target == v), key=lambda a: a.name
        )
        if len(loops) >= 2:
            return loops[0], loops[1]
    if at is None:
        raise PreconditionError("the graph has no vertex with two loops")
    raise PreconditionError(f"vertex {at} carries fewer than two loops")


# The module options each construction reads.  Any other module option
# given is refused, so that a misplaced option is not silently ignored.
_MODULE_OPTIONS = {
    "chen": ("word",),
    "cohn": ("at",),
    "rangaswamy": ("period", "poly"),
    "mantese": ("at", "weights"),
    "linear": ("at", "twist", "a", "b"),
    "hilbert": ("at", "algebra", "phi", "quat"),
}


def _build_module(args, graph, field):
    kind = args.construction
    cap = args.family_cap
    read = _MODULE_OPTIONS[kind]
    for options in _MODULE_OPTIONS.values():
        for name in options:
            if name not in read and getattr(args, name) is not None:
                raise UsageError(f"the {kind} construction does not read --{name}")
    if kind == "chen":
        word = _parse_word(graph, args.word)
        return chen_module(graph, field, word, family_cap=cap)
    if kind == "cohn":
        v = _default_vertex(graph, args.at)
        return cohn_jacobson_module(graph, field, v, family_cap=cap)
    if kind == "rangaswamy":
        if args.period is None:
            raise UsageError("the rangaswamy construction needs --period")
        delta = _closed_path(graph, args.period)
        q = _parse_poly(field, args.poly)
        return rangaswamy_module(graph, field, delta, q, family_cap=cap)
    if kind == "mantese":
        if args.weights is None:
            raise UsageError("the mantese construction needs --weights like a=1,b=1")
        weights = _arrow_values(graph, args.weights, field.parse)
        sources = sorted({a.source for a in weights})
        if args.at:
            v = _default_vertex(graph, args.at)
        elif len(sources) == 1:
            v = sources[0]
        else:
            raise PreconditionError(
                f"the weighted arrows leave {', '.join(sources) or 'no vertex'}; "
                "choose the base vertex with --at"
            )
        return mantese_module(graph, field, v, weights, family_cap=cap)
    if kind == "linear":
        if args.at is not None and (args.a or args.b):
            raise UsageError("--a and --b replace --at; give one or the other")
        if args.a and args.b:
            a = _single_arrow(graph, args.a)
            b = _single_arrow(graph, args.b)
        elif args.a or args.b:
            raise UsageError("give both --a and --b, or neither")
        else:
            a, b = _loop_pair(graph, args.at)
        twist = args.twist or "linear"
        return linear_example_module(graph, field, a, b, twist=twist, family_cap=cap)
    if kind == "hilbert":
        v = _default_vertex(graph, args.at)
        if args.quat:
            if args.algebra is not None or args.phi is not None:
                raise UsageError("--quat replaces --algebra and --phi; give one or the other")
            algebra = quaternion_algebra(field, field.parse(args.quat[0]), field.parse(args.quat[1]))
            a, b = _loop_pair(graph, v)
            phi = {a: algebra.basis("i"), b: algebra.basis("j")}
        else:
            if args.algebra is None:
                raise UsageError("the hilbert construction needs --algebra or --quat")
            algebra = parse_algebra(field, args.algebra)
            if args.phi is None:
                raise UsageError("the hilbert construction needs --phi like y1=x,y2=1 or --quat")

            def value_of(token):
                if token in algebra.labels:
                    return algebra.basis(token)
                return algebra.one.scale(field.parse(token))

            phi = _arrow_values(graph, args.phi, value_of)
        return hilbert_module(graph, field, v, algebra, phi, family_cap=cap)
    raise UsageError(f"unknown construction {kind!r}")


def _emit_metadata(report, space):
    for key in sorted(space.metadata):
        value = space.metadata[key]
        if isinstance(value, dict):
            value = ",".join(f"{k}:{v}" for k, v in sorted(value.items(), key=lambda kv: str(kv[0])))
        elif isinstance(value, (list, tuple)):
            value = ",".join(str(x) for x in value)
        report.add(key, value)


def _yesno(flag):
    return "yes" if flag else "no"


def _add_values(report, values, keys):
    """Add the keys that values holds, in order: bools as yes/no, less a _str suffix."""
    for key in keys:
        if key in values:
            value = values[key]
            report.add(key.removesuffix("_str"), _yesno(value) if isinstance(value, bool) else value)


# -- subcommands ---------------------------------------------------------------------


def cmd_nf(args, out):
    graph = _load_graph(args)
    field = parse_field(args.field)
    element = parse_element(graph, field, args.expression)
    canonical = normal_form(element)
    if args.format == "kv":
        report = Report()
        report.add("input", args.expression.strip())
        report.add("normal_form", canonical)
        report.emit("kv", out)
    else:
        out.write(f"{canonical}\n")
    return 0


def cmd_schreier(args, out):
    graph = _load_graph(args)
    field = parse_field(args.field)
    generators = _parse_ideal(graph, field, _read_text(args.ideal))
    staircase = SchreierStaircase(graph, field, generators, args.degree, family_cap=args.family_cap)
    report = Report()
    report.add("seed", args.seed)
    report.add("degree", args.degree)
    report.add("generators", len(generators))
    report.add("stabilized", _yesno(staircase.stabilized))
    verdict, count = staircase.codimension()
    report.add("codimension", f"{verdict}({count})")
    basis = staircase.coset_basis()
    report.add(
        "co_basis",
        " ".join(mono_str((Path.vertex(beta.target), beta)) for beta in basis),
    )
    if staircase.stabilized and verdict == "finite":
        free = staircase.free_generators()
        report.add("free_generators", len(free))
        if len(graph.vertices) == 1 and not graph.family_names:
            rank = lewin_schreier_rank(len(graph.plain_arrows), count)
            report.add("lewin_schreier_rank", rank)
            if len(free) != rank:
                raise InvariantError(f"inconsistent report: {len(free)} free generators, rank {rank}")
    openness, level = not_open_up_to(
        graph, field, staircase.membership, args.degree, family_cap=args.family_cap
    )
    report.add("openness", f"{openness}({level})")
    if (openness, level) == ("open_at", 0) and basis:
        raise InvariantError(f"inconsistent report: open at level 0, {len(basis)} co_basis words")
    report.emit(args.format, out)
    return 0


def _probe_verify(space, args, report):
    result = verify_representation(space, args.degree)
    report.add("degree", args.degree)
    _add_values(report, result, ("labels", "checked"))
    if result["exempt"]:
        report.add("exempt_vertices", ",".join(str(v) for v in result["exempt"]))
    report.add("verify", "pass" if result["ok"] else "fail")
    for i, failure in enumerate(result["failures"][:20], start=1):
        report.add(f"failure_{i}", " ".join(str(part) for part in failure))
    return 0 if result["ok"] else 4


def _probe_simplicity(space, args, report):
    budget = {} if args.samples is None else {"samples": args.samples}
    result = simplicity_probe(space, args.degree, seed=args.seed, **budget)
    _add_values(report, result, ("verdict", "window", "samples", "seed", "dim", "submodule_dim",
                                 "witness_str", "overflowed", "family_capped"))
    return 0


def _probe_chain(space, args, report):
    candidates = chain_candidates(space)
    result = composition_probe(space, candidates, args.degree)
    _add_values(report, result, ("window", "length", "strict", "dim", "exhausts_degree",
                                 "overflowed", "family_capped"))
    for i, factor in enumerate(result["factors"], start=1):
        report.add(
            f"factor_{i}",
            f"type={factor['type']} strict={_yesno(factor['strict'])} "
            f"dim_jump={factor['dim_jump']} generator={factor['generator_str']}",
        )
    simple = sum(1 for f in result["factors"] if f["type"].startswith("S_"))
    report.add("simple_typed_factors", simple)
    return 0


def _probe_endo(space, args, report):
    result = endomorphism_probe(space, degree=args.degree)
    _add_values(report, vars(result), ("dimension", "window", "variable_degree", "equations",
                                       "independent", "table_closes", "overflowed"))
    if result.unit_coords is not None:
        report.add("unit", ",".join(str(c) for c in result.unit_coords))
    if result.table is not None:
        for (i, j) in sorted(result.table):
            cell = result.table[(i, j)]
            text = "none" if cell is None else ",".join(str(c) for c in cell)
            report.add(f"table_{i}_{j}", text)
    return 0


def cmd_module(args, out):
    if args.samples is not None and args.probe != "simplicity":
        raise UsageError(f"the {args.probe} probe does not read --samples")
    graph = _load_graph(args)
    field = parse_field(args.field)
    space = _build_module(args, graph, field)
    report = Report()
    report.add("seed", args.seed)
    report.add("construction", args.construction)
    _emit_metadata(report, space)
    report.add("probe", args.probe)
    runner = {
        "verify": _probe_verify,
        "simplicity": _probe_simplicity,
        "chain": _probe_chain,
        "endo": _probe_endo,
    }[args.probe]
    code = runner(space, args, report)
    report.emit(args.format, out)
    return code


# -- parser ---------------------------------------------------------------------------


@functools.cache
def build_parser():
    # One parser serves every call of main, since parsing leaves it unchanged.
    # Each subcommand takes only the flags it reads, so argparse refuses the rest.
    inputs = _Parser(add_help=False)
    inputs.add_argument("--graph", metavar="FILE", help="graph description file")
    inputs.add_argument("--field", default="q", help="scalar field: q or gf:P")
    inputs.add_argument("--format", choices=("text", "kv"), default="text", help="report format")
    staircase = _Parser(add_help=False, parents=[inputs])
    staircase.add_argument("--degree", type=_count_from(0), default=6, metavar="N", help="degree bound")
    staircase.add_argument("--family-cap", type=_count_from(0), default=2, metavar="N", help="arrow family truncation")
    staircase.add_argument("--seed", type=int, default=0, metavar="N", help="random seed")

    parser = _Parser(prog="leavitt", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p_nf = sub.add_parser("nf", parents=[inputs], help="normal form of an element expression")
    p_nf.add_argument("expression", help="element expression, e.g. 'x1.x1* + x2.x2*'")
    p_nf.set_defaults(fn=cmd_nf)

    p_sch = sub.add_parser("schreier", parents=[staircase], help="staircase report for a left ideal")
    p_sch.add_argument("ideal", metavar="FILE", help="generator list file")
    p_sch.set_defaults(fn=cmd_schreier)

    p_mod = sub.add_parser("module", parents=[staircase], help="build a module and run a probe")
    # no default, so that the simplicity probe's own applies and other probes can refuse it
    p_mod.add_argument("--samples", type=_count_from(1), metavar="N", help="simplicity probe sample count")
    p_mod.add_argument("construction", choices=tuple(_MODULE_OPTIONS))
    p_mod.add_argument("--probe", choices=("verify", "simplicity", "chain", "endo"), default="verify")
    p_mod.add_argument("--word", help="chen word: rational:PATH or tm:A,B")
    p_mod.add_argument("--at", metavar="VERTEX", help="base vertex")
    p_mod.add_argument("--period", metavar="PATH", help="closed path for rangaswamy")
    p_mod.add_argument("--poly", metavar="COEFFS", help="polynomial, highest power first: 1,-1")
    p_mod.add_argument("--weights", metavar="LIST", help="mantese weights: a=1,b=1")
    p_mod.add_argument("--algebra", metavar="TAG", help="division algebra: ext:c0,..,1 or quat:c,d")
    p_mod.add_argument("--phi", metavar="LIST", help="hilbert substitution: y1=x,y2=1")
    p_mod.add_argument("--quat", nargs=2, metavar=("C", "D"), help="quaternion shorthand for --algebra/--phi")
    # no default, so that a given --twist can be told from an absent one
    p_mod.add_argument("--twist", choices=("linear", "nonlinear"), help="twist for linear (default: linear)")
    p_mod.add_argument("--a", metavar="ARROW", help="first loop for linear")
    p_mod.add_argument("--b", metavar="ARROW", help="second loop for linear")
    p_mod.set_defaults(fn=cmd_module)

    return parser


def main(argv=None):
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            raise UsageError("a subcommand is required: nf, schreier, or module")
        return args.fn(args, sys.stdout)
    except LeavittError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
