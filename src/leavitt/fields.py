"""Exact scalar fields: the rationals and prime fields GF(p).

Every computation in this package runs over one of these fields.  Scalars are
exact; there is no floating point anywhere.
"""

from fractions import Fraction

from .errors import ParseError, PreconditionError


class GFScalar:
    """A residue modulo a prime p.

    Arithmetic accepts plain ints on either side and coerces them mod p.
    Equality and hashing are only defined against other GFScalar values
    with the same modulus.
    """

    __slots__ = ("residue", "p")

    def __init__(self, residue, p):
        self.residue = residue % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, GFScalar):
            if other.p != self.p:
                raise PreconditionError(f"mixed moduli {self.p} and {other.p}")
            return other
        if isinstance(other, int):
            return GFScalar(other, self.p)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GFScalar(self.residue + other.residue, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GFScalar(self.residue - other.residue, self.p)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GFScalar(other.residue - self.residue, self.p)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GFScalar(self.residue * other.residue, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __neg__(self):
        return GFScalar(-self.residue, self.p)

    def inverse(self):
        if self.residue == 0:
            raise ZeroDivisionError(f"inverse of 0 in GF({self.p})")
        return GFScalar(pow(self.residue, self.p - 2, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, GFScalar):
            return self.p == other.p and self.residue == other.residue
        return NotImplemented

    def __hash__(self):
        return hash((self.residue, self.p))

    def __bool__(self):
        return self.residue != 0

    def __repr__(self):
        return f"GFScalar({self.residue}, {self.p})"

    def __str__(self):
        return str(self.residue)


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(p):
    """Deterministic Miller-Rabin; moduli from _MR_LIMIT up are refused."""
    if p >= _MR_LIMIT:
        raise PreconditionError(f"modulus {p} is too large to certify as prime")
    if p < 2 or any(p % b == 0 for b in _MR_BASES):
        return p in _MR_BASES
    d = p - 1
    while d % 2 == 0:
        d //= 2
    for b in _MR_BASES:
        # square b^d up towards b^(p-1); a prime sees 1 at once or -1 first
        x, e = pow(b, d, p), d
        while e != p - 1 and x != 1 and x != p - 1:
            x, e = x * x % p, 2 * e
        if x != p - 1 and e != d:
            return False
    return True


class RationalField:
    """The field of rational numbers, backed by fractions.Fraction."""

    characteristic = 0
    name = "q"

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def of(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise PreconditionError(f"cannot coerce {x!r} into the rationals")

    def parse(self, text):
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {text!r}") from exc

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "RationalField()"


class PrimeField:
    """The prime field GF(p)."""

    def __init__(self, p):
        if not isinstance(p, int) or not _is_prime(p):
            raise PreconditionError(f"modulus {p!r} is not prime")
        self.p = p
        self.characteristic = p
        self.name = f"gf:{p}"

    @property
    def zero(self):
        return GFScalar(0, self.p)

    @property
    def one(self):
        return GFScalar(1, self.p)

    def of(self, x):
        if isinstance(x, GFScalar):
            if x.p != self.p:
                raise PreconditionError(f"mixed moduli {x.p} and {self.p}")
            return x
        if isinstance(x, int):
            return GFScalar(x, self.p)
        raise PreconditionError(f"cannot coerce {x!r} into GF({self.p})")

    def parse(self, text):
        text = text.strip()
        try:
            if "/" in text:
                num, den = text.split("/", 1)
                return self.of(int(num)) / self.of(int(den))
            return self.of(int(text))
        except ValueError as exc:
            raise ParseError(f"bad GF({self.p}) literal {text!r}") from exc

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


def parse_field(text):
    """Parse a field tag: "q" for the rationals, "gf:P" for a prime field."""
    text = text.strip().lower()
    if text == "q":
        return RationalField()
    if text.startswith("gf:"):
        try:
            p = int(text[3:])
        except ValueError as exc:
            raise ParseError(f"bad field tag {text!r}") from exc
        try:
            return PrimeField(p)
        except PreconditionError as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError(f"unknown field tag {text!r}, expected q or gf:P")
