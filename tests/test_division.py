import random

import pytest
from hypothesis import given, strategies as st

from leavitt import (
    StructureAlgebra,
    check_poly,
    field_extension,
    is_irreducible,
    parse_algebra,
    parse_field,
    parse_graph,
    parse_path,
    poly_eval,
    quaternion_algebra,
    reciprocal,
    represents_zero,
    substitute,
)
from leavitt.algebra import parse_element
from leavitt.errors import ParseError, PreconditionError

from oracles import gf_irreducible_brute


def test_check_poly_validates(q):
    coeffs = check_poly(q, [1, 0, 1])
    assert coeffs[-1] == q.one
    with pytest.raises(PreconditionError):
        check_poly(q, [1, 0, 2])  # not monic
    with pytest.raises(PreconditionError):
        check_poly(q, [1])  # constant
    assert check_poly(q, [1, 0, 2], monic=False)[2] == q.of(2)


def test_poly_eval(q):
    # q(x) = x^2 - x - 1 at x = 2
    assert poly_eval(q, [q.of(-1), q.of(-1), q.one], q.of(2)) == q.one


def test_reciprocal_reverses_coefficients(q):
    coeffs = [q.of(c) for c in (1, 1, 0, 2)]
    rev = reciprocal(coeffs)
    assert [c for c in rev] == [q.of(c) for c in (2, 0, 1, 1)]
    assert reciprocal(rev) == coeffs
    with pytest.raises(PreconditionError):
        reciprocal([q.zero, q.one])


@given(st.lists(st.integers(-9, 9).filter(bool), min_size=2, max_size=6))
def test_reciprocal_is_an_involution(ints):
    q = parse_field("q")
    coeffs = [q.of(c) for c in ints]
    assert reciprocal(reciprocal(coeffs)) == coeffs


def test_is_irreducible_examples(q):
    assert is_irreducible(q, [q.of(1), q.zero, q.one]) is True  # x^2 + 1
    assert is_irreducible(q, [q.of(-1), q.zero, q.one]) is False  # x^2 - 1
    assert is_irreducible(q, [q.of(-1), q.of(-1), q.one]) is True  # x^2 - x - 1
    gf2 = parse_field("gf:2")
    assert is_irreducible(gf2, [gf2.one, gf2.one, gf2.one]) is True
    assert is_irreducible(gf2, [gf2.one, gf2.zero, gf2.one]) is False
    assert is_irreducible(q, [q.of(1), q.of(-5), q.of(6)]) is False  # (2x - 1)(3x - 1)
    assert is_irreducible(q, [q.of(-2), q.zero, q.zero, q.one]) is True  # x^3 - 2
    assert is_irreducible(q, [q.of(1000000007), q.zero, q.one]) is True


def test_is_irreducible_over_q_past_degree_three(q):
    def poly(*coeffs):
        return [q.of(c) for c in coeffs]

    assert is_irreducible(q, poly(1, 1, 0, 0, 1)) is True  # x^4 + x + 1, irreducible mod 2
    assert is_irreducible(q, poly(1, 0, 0, 0, 1)) is None  # x^4 + 1, reducible mod every prime
    assert is_irreducible(q, poly(0, 1, 1)) is False  # x^2 + x, root 0
    # 735134400 (x^2 + 1): the divisor pairs pass _ROOT_SCAN_CAP
    assert is_irreducible(q, poly(735134400, 0, 735134400)) is None
    # (x - 1000003)(x^2 + 1): the root is the large divisor of a prime a0
    assert is_irreducible(q, [q.of(c) for c in (-1000003, 1, -1000003, 1)]) is False
    # past the divisor scan cap the rational root test does not run
    assert is_irreducible(q, [q.of(10**13), q.zero, q.one]) is None
    # A prime dividing the leading coefficient is skipped, since modulo it
    # the degree drops: (2x^2 + x + 1)(x^2 + x + 1) is x^3 + 1 modulo 2, to
    # which Rabin's test, handed the degree 4 coefficient list, says
    # irreducible; modulo every other prime it is reducible.
    assert is_irreducible(q, poly(1, 2, 4, 3, 2)) is None
    assert is_irreducible(q, poly(1, 1, 0, 0, 2)) is True  # 2x^4 + x + 1, irreducible mod 3
    # 2x^3 + 2x + 2: the root candidates p/q include 2/2, which is not in
    # lowest terms and is skipped; no candidate is a root
    assert is_irreducible(q, poly(2, 2, 0, 2)) is True


# degree 5 is the first where a reducible f has no factor whose degree
# divides a maximal proper divisor of its degree, so Rabin's divisibility
# test has work to do
@pytest.mark.parametrize("p, max_degree", [(2, 6), (3, 5), (5, 3)])
def test_rabin_agrees_with_brute_force(p, max_degree):
    gf = parse_field(f"gf:{p}")
    for deg in range(1, max_degree + 1):
        for code in range(p**deg):
            coeffs = [gf.of(code // p**i) for i in range(deg)] + [gf.one]
            verdict = gf_irreducible_brute(gf, coeffs)
            assert is_irreducible(gf, coeffs) is verdict, coeffs
            assert is_irreducible(gf, [c * gf.of(p - 1) for c in coeffs]) is verdict


def test_field_extension_multiplication(q):
    # Gaussian rationals: x^2 = -1
    D = field_extension(q, [q.one, q.zero, q.one])
    assert D.dim == 2
    x = D.basis("x")
    assert x * x == D.one.scale(-1)
    y = D.element({"1": q.of(2), "x": q.of(3)})
    z = y * y  # (2+3x)^2 = 4 + 12x + 9x^2 = -5 + 12x
    assert z.coord("1") == q.of(-5) and z.coord("x") == q.of(12)


def test_elements_name_only_basis_labels(q):
    D = field_extension(q, [q.one, q.zero, q.one])
    with pytest.raises(PreconditionError, match="'y'"):
        D.element({"y": q.one})
    assert D.element({"x": q.one}) == D.basis("x")


def test_field_extension_golden_ratio(q):
    # x^2 = x + 1
    D = field_extension(q, [q.of(-1), q.of(-1), q.one])
    x = D.basis("x")
    assert x * x == x + D.one


def _reduce_mod(field, poly, modulus):
    """poly mod the monic modulus, coefficient lists constant term first,
    by long division from the top, padded to deg(modulus) entries."""
    deg = len(modulus) - 1
    poly = list(poly) + [field.zero] * max(0, deg - len(poly))
    for top in range(len(poly) - 1, deg - 1, -1):
        c = poly[top]
        for i, m in enumerate(modulus):
            poly[top - deg + i] = poly[top - deg + i] - c * m
    return poly[:deg]


@pytest.mark.parametrize("tag", ["q", "gf:5"])
def test_field_extension_tables_match_polynomial_reduction(tag):
    # Every product of basis powers x^i x^j is x^(i+j) reduced mod q.
    field = parse_field(tag)
    rng = random.Random(11)
    for deg in (2, 3, 4, 5):
        for _ in range(4):
            modulus = [field.of(rng.randint(-4, 4)) for _ in range(deg)] + [field.one]
            D = field_extension(field, modulus)
            assert D.labels == ["1", "x"] + [f"x{i}" for i in range(2, deg)]
            for i in range(deg):
                for j in range(deg):
                    power = [field.zero] * (i + j) + [field.one]
                    got = D.basis(D.labels[i]) * D.basis(D.labels[j])
                    want = _reduce_mod(field, power, modulus)
                    assert [got.coord(lab) for lab in D.labels] == want, (modulus, i, j)


def test_algebra_elements_print_as_signed_sums(q, gf5):
    # the unit prints as the bare scalar, other labels as scalar and label
    D = field_extension(q, [q.one, q.zero, q.one])
    assert str(D.element({"1": q.of(2), "x": q.of(3)})) == "2 + 3 x"
    assert str(D.basis("x")) == "x"
    assert str(D.one) == "1"
    assert str(D.element({"1": q.of(-1), "x": q.parse("-1/2")})) == "-1 - 1/2 x"
    assert str(D.element({})) == "0"
    A = quaternion_algebra(gf5, 1, 1)
    assert str(A.basis("i") - A.basis("k").scale(3)) == "i + 2 k"


def test_quaternion_algebra_table(q):
    A = quaternion_algebra(q, 1, 1)
    i, j, k = A.basis("i"), A.basis("j"), A.basis("k")
    assert i * i == A.one.scale(-1)
    assert j * j == A.one.scale(-1)
    assert i * j == k
    assert j * i == -k
    assert k * k == A.one.scale(-1)
    B = quaternion_algebra(q, 2, 5)
    assert B.basis("i") * B.basis("i") == B.one.scale(-2)
    assert B.basis("j") * B.basis("j") == B.one.scale(-5)


def test_quaternion_algebra_rejects_degenerate(q):
    with pytest.raises(PreconditionError):
        quaternion_algebra(q, 0, 1)
    gf2 = parse_field("gf:2")
    with pytest.raises(PreconditionError):
        quaternion_algebra(gf2, 1, 1)


# the upper triangular 2 x 2 matrices: 1, e = E11 and n = E12
TRIANGULAR = {
    **{("1", k): {k: 1} for k in ("1", "e", "n")},
    **{(k, "1"): {k: 1} for k in ("e", "n")},
    ("e", "e"): {"e": 1},
    ("e", "n"): {"n": 1},
    ("n", "e"): {},
    ("n", "n"): {},
}


@pytest.mark.parametrize(
    "unit, changes, message",
    [
        ("u", {}, "unit label missing from basis"),
        ("1", {("n", "n"): None}, "no product for (n, n)"),
        ("1", {("1", "e"): {"e": 2}}, "unit fails on the left of e"),
        ("1", {("e", "1"): {"1": 1}}, "unit fails on the right of e"),
        # (n.e).n = 0 but n.(e.n) = n.n = e
        ("1", {("n", "n"): {"e": 1}}, "associativity fails on (n, e, n)"),
    ],
)
def test_structure_algebra_refuses_bad_tables(q, unit, changes, message):
    table = {**TRIANGULAR, **changes}
    table = {key: entry for key, entry in table.items() if entry is not None}
    assert StructureAlgebra(q, ["1", "e", "n"], "1", TRIANGULAR).dim == 3
    with pytest.raises(PreconditionError) as info:
        StructureAlgebra(q, ["1", "e", "n"], unit, table)
    assert info.value.exit_code == 3
    assert str(info.value) == message


def test_parse_algebra_tags(q):
    D = parse_algebra(q, "ext:1,0,1")
    assert D.dim == 2
    A = parse_algebra(q, "quat:1,1")
    assert A.dim == 4
    with pytest.raises(ParseError):
        parse_algebra(q, "lie:1")
    with pytest.raises(ParseError):
        parse_algebra(q, "ext:1,0,2")


def test_represents_zero_search(q):
    assert represents_zero(q, 1, 1, 20) == ("anisotropic_up_to", 20)
    verdict, witness = represents_zero(q, -1, 1, 20)
    assert verdict == "isotropic"
    x0, x1, x2, x3 = witness
    assert any(witness)
    total = q.of(x0 * x0) - q.of(x1 * x1) + q.of(x2 * x2) - q.of(x3 * x3)
    assert not total
    with pytest.raises(PreconditionError):
        represents_zero(q, 1, 1, 0)


def test_represents_zero_witness_satisfies_form(q):
    for c, d in ((-1, 1), (-4, 1), (-1, 3)):
        verdict, witness = represents_zero(q, c, d, 12)
        assert verdict == "isotropic"
        x0, x1, x2, x3 = witness
        total = (
            q.of(x0 * x0)
            + q.of(c) * q.of(x1 * x1)
            + q.of(d) * q.of(x2 * x2)
            + q.of(c * d) * q.of(x3 * x3)
        )
        assert not total


# -- ghost substitution -------------------------------------------------------------


def test_substitute_sends_letters_to_generators(roseab, q):
    A = quaternion_algebra(q, 1, 1)
    a = parse_path(roseab, "a").arrows[0]
    b = parse_path(roseab, "b").arrows[0]
    images = {a: A.basis("i"), b: A.basis("j")}
    # a*.b* is the dual of the real path b.a, so it maps to ij = k
    assert substitute(parse_element(roseab, q, "a*.b*"), images) == A.basis("k")
    assert substitute(parse_element(roseab, q, "b*.a*"), images) == -A.basis("k")
    assert substitute(parse_element(roseab, q, "v"), images) == A.one


def test_substitute_kills_the_defining_polynomial(roseab, q):
    D = field_extension(q, [q.one, q.zero, q.one])
    a = parse_path(roseab, "a").arrows[0]
    images = {a: D.basis("x")}
    # a*.a* + v maps to x^2 + 1 = 0 in the extension
    out = substitute(parse_element(roseab, q, "a*.a* + v"), images)
    assert out.is_zero


def test_substitute_requires_ghost_input(roseab, q):
    A = quaternion_algebra(q, 1, 1)
    a = parse_path(roseab, "a").arrows[0]
    with pytest.raises(PreconditionError):
        substitute(parse_element(roseab, q, "a"), {a: A.basis("i")})
    with pytest.raises(PreconditionError):
        substitute(parse_element(roseab, q, "b*"), {a: A.basis("i")})
    with pytest.raises(PreconditionError):
        substitute(parse_element(roseab, q, "0"), {})
