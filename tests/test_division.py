import pytest
from hypothesis import given, strategies as st

from leavitt import (
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
    # (x - 1000003)(x^2 + 1): the root is the large divisor of a prime a0
    assert is_irreducible(q, [q.of(c) for c in (-1000003, 1, -1000003, 1)]) is False
    # past the divisor scan cap the rational root test does not run
    assert is_irreducible(q, [q.of(10**13), q.zero, q.one]) is None


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
            assert is_irreducible(gf, [c * (p - 1) for c in coeffs]) is verdict


def test_field_extension_multiplication(q):
    # Gaussian rationals: x^2 = -1
    D = field_extension(q, [q.one, q.zero, q.one])
    assert D.dim == 2
    x = D.basis("x")
    assert x * x == D.one.scale(-1)
    y = D.element({"1": q.of(2), "x": q.of(3)})
    z = y * y  # (2+3x)^2 = 4 + 12x + 9x^2 = -5 + 12x
    assert z.coord("1") == q.of(-5) and z.coord("x") == q.of(12)


def test_field_extension_golden_ratio(q):
    # x^2 = x + 1
    D = field_extension(q, [q.of(-1), q.of(-1), q.one])
    x = D.basis("x")
    assert x * x == x + D.one


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
