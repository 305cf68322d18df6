from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from leavitt import ParseError, PrimeField, RationalField, parse_field
from leavitt.errors import PreconditionError
from leavitt.fields import _is_prime
from leavitt.linalg import SpanEchelon, encode


def test_parse_field_tags():
    assert isinstance(parse_field("q"), RationalField)
    assert isinstance(parse_field("Q"), RationalField)
    f = parse_field("gf:7")
    assert isinstance(f, PrimeField)
    assert f.characteristic == 7
    assert parse_field("gf:1000000000000000003").characteristic == 10**18 + 3


def test_parse_field_rejects_junk():
    # 101 divides 10^18 + 1; Miller-Rabin is not exact from 3317...981 up
    for bad in (
        "r",
        "gf:1",
        "gf:6",
        "gf:",
        "gf:x",
        "gf:1000000000000000001",
        "gf:3317044064679887385961981",
    ):
        with pytest.raises((ParseError, PreconditionError)):
            parse_field(bad)


def test_is_prime_agrees_with_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(20000) if _is_prime(n)] == [
        n for n in range(20000) if trial(n)
    ]


def test_rational_parse_and_of():
    q = parse_field("q")
    assert q.parse("3/4") == Fraction(3, 4)
    assert q.parse("-2") == Fraction(-2)
    assert q.of(5) == Fraction(5)
    assert q.one + q.one == Fraction(2)
    assert not q.zero


@given(st.fractions(), st.fractions())
def test_rational_field_is_exact(a, b):
    q = RationalField()
    x, y = q.of(a), q.of(b)
    assert x + y - y == x
    if y:
        assert (x * y) / y == x


def test_prime_field_parse_rejects_zero_denominators():
    gf = parse_field("gf:5")
    assert gf.parse("3/2") == gf.of(4)
    for bad in ("1/5", "1/0", "2/10"):
        with pytest.raises(ParseError):
            gf.parse(bad)


def test_prime_field_inverses():
    f = parse_field("gf:11")
    for r in range(1, 11):
        x = f.of(r)
        assert x * x.inverse() == f.one
        assert x / x == f.one


def test_prime_field_wraps():
    f = parse_field("gf:5")
    assert f.of(7) == f.of(2)
    assert f.of(-1) == f.of(4)
    assert f.of(2) + f.of(3) == f.zero
    assert str(f.of(3)) == "3"


@given(st.integers(), st.integers(), st.integers())
def test_prime_field_ring_axioms(a, b, c):
    f = PrimeField(13)
    x, y, z = f.of(a), f.of(b), f.of(c)
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x


def test_fields_compare_by_structure():
    assert parse_field("q") == parse_field("q")
    assert parse_field("gf:5") == parse_field("gf:5")
    assert parse_field("gf:5") != parse_field("gf:7")


def test_prime_field_scalars_do_not_mix_with_ints():
    gf = PrimeField(5)
    with pytest.raises(TypeError):
        gf.of(2) + 3
    with pytest.raises(TypeError):
        3 * gf.of(2)
    with pytest.raises(TypeError):
        gf.of(2) / 2
    with pytest.raises(TypeError):
        gf.of(2) - Fraction(1)


def test_prime_field_scalars_do_not_mix_moduli():
    x, y = PrimeField(5).of(2), PrimeField(7).of(2)
    for combine in (
        lambda: x + y,
        lambda: x - y,
        lambda: x * y,
        lambda: x / y,
        lambda: PrimeField(5).of(y),
    ):
        with pytest.raises(PreconditionError):
            combine()


@pytest.mark.parametrize("field", [RationalField(), PrimeField(7)])
def test_zero_and_one_are_shared_constants(field):
    zero, one = field.zero, field.one
    assert field.zero is zero and field.one is one
    ech = SpanEchelon(field, lambda k: k)
    for row in ({0: one, 1: field.of(2)}, {1: field.of(3), 2: one}, {0: one}):
        ech.insert(encode(field, row))
    assert ech.rank == 3 and not ech.reduce(encode(field, {2: field.of(4)}))[0]
    assert field.zero is zero and field.one is one
    assert zero == field.of(0) and one == field.of(1)
