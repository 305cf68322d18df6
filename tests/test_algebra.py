import random

import pytest
from hypothesis import example, given, settings, strategies as st

from leavitt import (
    Element,
    Path,
    equals_cohn,
    equals_leavitt,
    is_normal_form,
    mono_str,
    normal_form,
    parse_element,
    parse_field,
    parse_graph,
    parse_path,
)
from leavitt import algebra
from leavitt.errors import ParseError, PreconditionError

from conftest import ABFAM, ROSE3, SINK3, TWOLOOP_TAIL
from oracles import (
    cohn_product_pairwise,
    paths_by_target,
    prefix_comparable_pairs,
    random_element,
    random_rewrite_normal_form,
    word_by_letters,
)


def el(graph, field, text):
    return parse_element(graph, field, text)


# -- construction and printing ---------------------------------------------------


def test_monomial_requires_matching_targets(sink3, q):
    e = parse_path(sink3, "e")
    h = parse_path(sink3, "h")
    with pytest.raises(PreconditionError):
        Element(sink3, q, {(e, h): q.one})


def test_public_constructor_checks_targets_and_drops_zeros(sink3, gf5):
    e, g, h = (parse_path(sink3, n) for n in "egh")
    with pytest.raises(PreconditionError):
        Element(sink3, gf5, {(e, e): gf5.one, (g, h): gf5.one})
    x = Element(sink3, gf5, {(e, e): gf5.zero, (g, g): gf5.one, (h, h): gf5.of(5)})
    assert list(x.terms) == [(g, g)]
    assert Element(sink3, gf5, {(e, e): gf5.zero}).is_zero


def test_built_elements_stay_clean(rose2, sink3, q, gf5):
    # products, sums and rewrites build their results without the public
    # constructor's checks, so check what those checks would have found
    def clean(x):
        return all(c and a.target == b.target for (a, b), c in x.terms.items())

    rng = random.Random(17)
    for graph in (rose2, sink3):
        table = paths_by_target(graph, 3)
        for field in (q, gf5):
            for _ in range(20):
                x = random_element(graph, field, rng, 3, 6, table)
                y = random_element(graph, field, rng, 3, 6, table)
                built = [x * y, x + y, x - x, -x, x.scale(3), x.involution(), normal_form(x)]
                built += x.degree_components().values()
                assert all(clean(z) for z in built)


def test_mono_str_dualizes_ghost_words(roseab, q):
    ba = parse_path(roseab, "b.a")
    assert mono_str((Path.vertex("v"), ba)) == "a*.b*"
    ab = parse_path(roseab, "a.b")
    assert mono_str((ab, Path.vertex("v"))) == "a.b"
    assert mono_str((ab, ba)) == "a.b.a*.b*"


def test_kernel_keeps_the_same_field_contract(rose2, q, gf5):
    # products and normal forms encode their operands through field.native,
    # so a float or another field's scalar never slips into a result
    x1 = parse_path(rose2, "x1")
    v = Path.vertex("v")
    y = el(rose2, q, "x1* + 2 v")
    for bad in (0.5, gf5.of(2)):
        x = Element(rose2, q, {(x1, v): bad})
        with pytest.raises(TypeError):
            x * y
        with pytest.raises(TypeError):
            y * x
        with pytest.raises(TypeError):
            normal_form(x)


def test_parse_element_basics(rose2, q):
    x = el(rose2, q, "x1.x2* + 2 v - 1/3 x2")
    assert len(x.terms) == 3
    assert el(rose2, q, "0").is_zero
    assert el(rose2, q, "v - v").is_zero
    with pytest.raises(ParseError):
        el(rose2, q, "x1 +")
    with pytest.raises(ParseError):
        el(rose2, q, "zz")


def test_parse_products_fold_left(rose2, q):
    x = el(rose2, q, "x1.x1*.x1")
    assert x == el(rose2, q, "x1")
    assert el(rose2, q, "x2*.x1").is_zero
    assert el(rose2, q, "2/3 x1.x2 - x1.x2") == el(rose2, q, "x1.x2").scale(
        q.parse("-1/3")
    )


def test_parse_family_indices(roseinf, q):
    x = el(roseinf, q, "f[0].f[1]* + v")
    assert len(x.terms) == 2
    assert str(x) in ("v + f[0].f[1]*", "f[0].f[1]* + v")


def test_print_parse_round_trip_random(rose2, sink3, q, gf5):
    rng = random.Random(7)
    for graph in (rose2, sink3):
        table = paths_by_target(graph, 3)
        for field in (q, gf5):
            for _ in range(40):
                x = random_element(graph, field, rng, 3, 4, table)
                assert parse_element(graph, field, str(x)) == x
                nf = normal_form(x)
                assert parse_element(graph, field, str(nf)) == nf
    # one long sum, which the parser accumulates term by term
    table = paths_by_target(rose2, 4)
    for field in (q, gf5):
        x = random_element(rose2, field, rng, 4, 260, table)
        assert len(x.terms) >= 150
        assert parse_element(rose2, field, str(x)) == x


# -- ring structure ---------------------------------------------------------------


def test_ring_axioms_on_random_triples(rose2, sink3, roseinf, q, gf5):
    checked = 0
    for graph in (rose2, sink3, roseinf):
        table = paths_by_target(graph, 3)
        for field in (q, gf5):
            rng = random.Random(hash((graph.vertices[0], str(field))) & 0xFFFF)
            for _ in range(170):
                x = random_element(graph, field, rng, 3, 3, table)
                y = random_element(graph, field, rng, 3, 3, table)
                z = random_element(graph, field, rng, 3, 3, table)
                assert (x + y) + z == x + (y + z)
                assert x + y == y + x
                assert (x * y) * z == x * (y * z)
                assert x * (y + z) == x * y + x * z
                assert (x + y) * z == x * z + y * z
                assert x.scale(2) == x + x
                checked += 1
    assert checked >= 1000


def paths_by_target_and_length(graph):
    """Paths up to length 3, family members up to cap 2."""
    table = {}
    for p in graph.all_paths(3, family_cap=2):
        table.setdefault(p.target, {}).setdefault(len(p), []).append(p)
    return table


PRODUCT_GRAPHS = {
    name: parse_graph(text) for name, text in (("rose3", ROSE3), ("sink3", SINK3), ("abfam", ABFAM))
}
PRODUCT_PATHS = {name: paths_by_target_and_length(g) for name, g in PRODUCT_GRAPHS.items()}
PRODUCT_FIELDS = [parse_field("q"), parse_field("gf:7")]
COEFFS = ("1", "-1", "2", "3", "1/2", "-2/3", "5/4", "7/6")


@st.composite
def factor_pairs(draw):
    """Two elements over one graph and field.

    Short paths are as likely as long ones, so vertex monomials, prefix
    comparable parts and parts based at other vertices all turn up, and
    small coefficients make sums cancel.  Proper fractions give an operand
    a common denominator other than 1.
    """
    name = draw(st.sampled_from(sorted(PRODUCT_GRAPHS)))
    graph, by_target = PRODUCT_GRAPHS[name], PRODUCT_PATHS[name]
    field = draw(st.sampled_from(PRODUCT_FIELDS))

    def side(target):
        by_length = by_target[target]
        return draw(st.sampled_from(by_length[draw(st.sampled_from(sorted(by_length)))]))

    def element():
        terms = {}
        for _ in range(draw(st.integers(0, 8))):
            target = draw(st.sampled_from(sorted(by_target)))
            coeff = field.parse(draw(st.sampled_from(COEFFS)))
            terms[(side(target), side(target))] = coeff
        return Element(graph, field, terms)

    return element(), element()


def chosen(name, left, right):
    graph, field = PRODUCT_GRAPHS[name], PRODUCT_FIELDS[0]
    return parse_element(graph, field, left), parse_element(graph, field, right)


@settings(deadline=None)
@given(factor_pairs())
# vertex monomials, parts based at other vertices, products that vanish
@example(chosen("sink3", "u + v + w", "e + g.e.h + h.h* + u"))
@example(chosen("sink3", "e.g + h.h* + g.e + w", "e* + 2 h* - g.e.e*"))
@example(chosen("sink3", "h*", "e + g.e + u"))
@example(chosen("abfam", "a* + f[1]*.b* + v", "b.a + a.f[0] + a.a* + f[1].f[1]*"))
def test_indexed_product_matches_pairwise_loop(xy):
    x, y = xy
    assert list((x * y).terms.items()) == list(cohn_product_pairwise(x, y).terms.items())


@settings(deadline=None)
@given(factor_pairs(), st.integers(0, 2**16))
@example(chosen("rose3", "1/2 x1.x1* - 2/3 x2.x1.x1*", "5/4 x1 + 7/6 v"), 0)
@example(chosen("sink3", "1/2 g.g* - 2/3 e.e*", "5/4 v - 7/6 e.h.h*.e*"), 0)
def test_normal_form_matches_random_order_rewrite(xy, seed):
    x, y = xy
    for z in (x, x * y):
        assert normal_form(z) == random_rewrite_normal_form(z, random.Random(seed))


@settings(deadline=None)
@given(factor_pairs())
@example(chosen("rose3", "1/2 x1.x1* - 2/3 x2.x1.x1*", "5/4 x1 + 7/6 v"))
@example(chosen("sink3", "h*", "e + g.e + u"))
def test_products_decode_their_integers_on_first_read(xy):
    # A product keeps its integer coefficients until its terms are read;
    # what is read, compared, hashed or rewritten is the same either way.
    x, y = xy
    field = x.field
    rebuilt = Element(x.graph, field, dict(cohn_product_pairwise(x, y).terms))
    read = x * y
    assert read.terms == rebuilt.terms
    assert all(type(c) is type(field.one) and field.of(c) is c for c in read.terms.values())
    assert hash(x * y) == hash(read) == hash(rebuilt)
    assert x * y == read and rebuilt == x * y and (x * y).is_zero == rebuilt.is_zero
    assert normal_form(x * y) == normal_form(read) == normal_form(rebuilt)
    assert (x * y) * x == read * x == cohn_product_pairwise(rebuilt, x)
    assert x * (y * x) == cohn_product_pairwise(x, cohn_product_pairwise(y, x))


GAP = st.sampled_from(("", "", " ", "  ", "\t", " \n "))


@st.composite
def worded_sums(draw):
    """A graph, a field and (coefficient, word, spaced word, gaps) summands.

    Letters are vertices, arrows and family members f[0] to f[3], each
    with zero to three stars, so bare and starred vertices, double stars
    and words that vanish all turn up.  The spaced word spells the same
    letters with whitespace drawn around every '.', '*', '[' and ']', and
    the gaps go before and after the sign, after the coefficient and
    after the word.
    """
    graph = PRODUCT_GRAPHS[draw(st.sampled_from(sorted(PRODUCT_GRAPHS)))]
    field = draw(st.sampled_from(PRODUCT_FIELDS))
    names = [(name, None) for name in (*graph.vertices, *(a.name for a in graph.plain_arrows))]
    names += [(f, k) for f in graph.family_names for k in range(4)]

    def letter():
        name, index = draw(st.sampled_from(names))
        stars = draw(st.integers(0, 3))
        plain = spaced = name
        if index is not None:
            plain += f"[{index}]"
            spaced += f"{draw(GAP)}[{draw(GAP)}{index}{draw(GAP)}]"
        return plain + "*" * stars, spaced + "".join(draw(GAP) + "*" for _ in range(stars))

    def summand():
        letters = [letter() for _ in range(draw(st.integers(1, 7)))]
        word = ".".join(plain for plain, _ in letters)
        spaced = letters[0][1] + "".join(f"{draw(GAP)}.{draw(GAP)}{s}" for _, s in letters[1:])
        gaps = tuple(draw(GAP) for _ in range(4))
        return draw(st.sampled_from(COEFFS)), word, spaced, gaps

    return graph, field, [summand() for _ in range(draw(st.integers(1, 4)))]


def spelled(name, *summands, tag="q"):
    # (coefficient, word) pairs, written as " +coefficient word" summands
    summands = [(coeff, word, word, (" ", "", " ", "")) for coeff, word in summands]
    return PRODUCT_GRAPHS[name], parse_field(tag), summands


@settings(deadline=None)
@given(worded_sums())
@example(spelled("sink3", ("1", "u.e.v*.h.w"), ("2", "h.e"), ("-1", "e*.u.e")))
@example(spelled("sink3", ("1/2", "h*.g"), ("3", "g*.e*.e.g.u"), tag="gf:7"))
@example(spelled("rose3", ("1", "x1.x2.x2*.x1*.x1.x3*"), ("-2/3", "x1*.x1**.x2")))
@example(spelled("abfam", ("1", "a.f[3]*.f[3].b**"), ("5/4", "f[3]*.f[2]"), ("1", "v*.a***.v")))
@example((PRODUCT_GRAPHS["abfam"], parse_field("q"),
          [("-2", "f[1]**.a", "f \t[ 1 ] * *\n. a", ("", " ", "\t", " "))]))
def test_parser_folds_words_like_letter_by_letter_products(case):
    graph, field, summands = case
    text = ""
    expected = Element.zero(graph, field)
    for coeff, word, spaced, gaps in summands:
        assert parse_element(graph, field, spaced) == word_by_letters(graph, field, word), spaced
        sign = "-" if coeff.startswith("-") else "+"
        text += f"{gaps[0]}{sign}{gaps[1]}{coeff.lstrip('-')}{gaps[2]}{spaced}{gaps[3]}"
        expected = expected + word_by_letters(graph, field, word).scale(field.parse(coeff))
    assert parse_element(graph, field, text) == expected, text


# two loops and a family at one vertex, so that only the grammar can fail
XF = parse_graph("[vertices]\nv\n[arrows]\nx1: v -> v\nx2: v -> v\n[families]\nf[]: v -> v\n")
MALFORMED = (
    "", " ", "x1 +", "+", "+-x1", "x1 x2", "2 3", "0.5 x1", "x1..x2", "x1.2", "1/ x1",
    "x1[0/1]", "f[+1]", "f[1_0]", "x1*x2", "x1 . ", ". x1", "x1 [", "2 *", "x1 - - x2", "é",
)


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_expressions_raise_parse_error(text):
    # f alone is a family with no index, which fails before the bracket does
    with pytest.raises(ParseError, match="cannot read a term at|needs an index"):
        parse_element(XF, parse_field("q"), text)


@settings(deadline=None)
@given(st.sampled_from(sorted(PRODUCT_GRAPHS)), st.data())
def test_a_dotted_arrow_literal_reads_alike_as_path_and_element(name, data):
    # a literal that spells a path is the real part of the one monomial the
    # expression reads to; one whose arrows do not compose reads to zero
    graph = PRODUCT_GRAPHS[name]
    letters = [str(a) for a in graph.all_arrows(family_cap=3)]
    text = ".".join(data.draw(st.lists(st.sampled_from(letters), min_size=1, max_size=5)))
    element = parse_element(graph, parse_field("q"), text)
    try:
        path = parse_path(graph, text)
    except ParseError:
        assert element.is_zero, text
        return
    assert element.terms == {(path, Path.vertex(path.target)): 1}, text


def test_a_float_operand_still_raises_at_the_product(rose2, q):
    x1 = parse_path(rose2, "x1")
    v = Path.vertex("v")
    y = el(rose2, q, "x1* + 1/2 v")
    bad = Element(rose2, q, {(x1, v): 0.5})
    for left, right in ((bad, y), (y, bad), (y * y, bad), (bad, y * y)):
        with pytest.raises(TypeError):
            left * right


def test_product_composes_only_prefix_comparable_pairs(rose3, q, monkeypatch):
    # a relapse to trying every pair of monomials fails here
    rng = random.Random(5)
    table = paths_by_target(rose3, 3)
    x = random_element(rose3, q, rng, 3, 40, table)
    y = random_element(rose3, q, rng, 3, 40, table)
    calls = []
    product = algebra._mono_product

    def counted(*args):
        calls.append(args)
        return product(*args)

    monkeypatch.setattr(algebra, "_mono_product", counted)
    assert x * y == cohn_product_pairwise(x, y)
    comparable = prefix_comparable_pairs(x, y)
    assert len(calls) == comparable
    assert 0 < comparable < len(x.terms) * len(y.terms) // 4


def test_unit_is_identity(sink3, q):
    one = Element.unit(sink3, q)
    rng = random.Random(3)
    table = paths_by_target(sink3, 3)
    for _ in range(25):
        x = random_element(sink3, q, rng, 3, 4, table)
        assert one * x == x
        assert x * one == x


def test_involution_is_an_antihomomorphism(rose2, q):
    rng = random.Random(11)
    table = paths_by_target(rose2, 3)
    for _ in range(50):
        x = random_element(rose2, q, rng, 3, 3, table)
        y = random_element(rose2, q, rng, 3, 3, table)
        assert (x * y).involution() == y.involution() * x.involution()
        assert x.involution().involution() == x


def test_ghost_kills_mismatched_real(rose2, sink3, q):
    for graph in (rose2, sink3):
        arrows = graph.all_arrows(2)
        for a in arrows:
            for b in arrows:
                ghost = Element.ghost(graph, q, Path.of_arrows((a,)))
                real = Element.real(graph, q, Path.of_arrows((b,)))
                prod = ghost * real
                if a == b:
                    assert prod == Element.vertex(graph, q, a.target)
                else:
                    assert prod.is_zero


def test_summation_relation_holds_only_in_the_quotient(rose2, q):
    total = Element.zero(rose2, q)
    for a in rose2.out_arrows("v"):
        p = Path.of_arrows((a,))
        total = total + Element.real(rose2, q, p) * Element.ghost(rose2, q, p)
    one = Element.unit(rose2, q)
    assert equals_leavitt(total, one)
    assert not equals_cohn(total, one)


# -- normal forms ------------------------------------------------------------------


def test_normal_form_frozen_example(rose2, q):
    x = el(rose2, q, "x1.x1*")
    assert str(normal_form(x)) == "v - x2.x2*"
    assert normal_form(el(rose2, q, "x1.x1* + x2.x2*")) == el(rose2, q, "v")


def test_normal_form_fixes_irreducibles(rose2, q):
    for text in ("v", "x2.x2*", "x1.x2*", "x1.x2.x2*", "x2"):
        x = el(rose2, q, text)
        assert normal_form(x) == x
        assert is_normal_form(x)


def test_normal_form_is_idempotent_and_sound(rose2, sink3, q):
    rng = random.Random(23)
    for graph in (rose2, sink3):
        table = paths_by_target(graph, 3)
        for _ in range(60):
            x = random_element(graph, q, rng, 3, 4, table)
            nf = normal_form(x)
            assert is_normal_form(nf)
            assert normal_form(nf) == nf


def test_normal_form_is_multiplicative(rose2, sink3, q, gf5):
    for graph in (rose2, sink3):
        table = paths_by_target(graph, 3)
        for field in (q, gf5):
            rng = random.Random(5)
            for _ in range(60):
                x = random_element(graph, field, rng, 3, 3, table)
                y = random_element(graph, field, rng, 3, 3, table)
                assert normal_form(x * y) == normal_form(normal_form(x) * normal_form(y))


def test_normal_form_commutes_with_involution(rose2, q):
    rng = random.Random(29)
    table = paths_by_target(rose2, 3)
    for _ in range(60):
        x = random_element(rose2, q, rng, 3, 4, table)
        assert normal_form(x.involution()) == normal_form(normal_form(x).involution())


def _all_monomials(graph, degree):
    table = paths_by_target(graph, degree)
    for target in sorted(table):
        for alpha in table[target]:
            for beta in table[target]:
                if len(alpha) + len(beta) <= degree:
                    yield alpha, beta


def test_rewriting_is_confluent_exhaustively(q):
    # every monomial of total degree at most six reaches the same normal
    # form no matter the order the redexes fire in
    for text in (None, TWOLOOP_TAIL):
        graph = parse_graph(text) if text else parse_graph(
            "[vertices]\nv\n[arrows]\nx1: v -> v\nx2: v -> v\n"
        )
        for alpha, beta in _all_monomials(graph, 6):
            x = Element(graph, q, {(alpha, beta): q.one})
            want = normal_form(x)
            if normal_form(x) == x:
                continue
            for seed in (0, 1):
                got = random_rewrite_normal_form(x, random.Random(seed))
                assert got == want, f"{alpha}.{beta}* diverged at seed {seed}"


def test_random_elements_rewrite_confluently(rose2, q):
    rng = random.Random(31)
    table = paths_by_target(rose2, 3)
    for _ in range(30):
        x = random_element(rose2, q, rng, 3, 5, table)
        want = normal_form(x)
        for seed in (0, 1, 2):
            assert random_rewrite_normal_form(x, random.Random(seed)) == want


def test_equals_leavitt_separates(rose2, q):
    assert not equals_leavitt(el(rose2, q, "x1.x1*"), Element.unit(rose2, q))
    assert equals_leavitt(el(rose2, q, "x1*.x1"), el(rose2, q, "v"))
    assert not equals_leavitt(el(rose2, q, "x1"), el(rose2, q, "x2"))


def test_grading_splits_by_real_minus_ghost_degree(rose2, q):
    x = el(rose2, q, "x1 + x1.x2* + 3 v - x2.x1.x1*")
    parts = x.degree_components()
    assert sorted(parts) == [0, 1]
    assert sum(parts.values(), Element.zero(rose2, q)) == x
