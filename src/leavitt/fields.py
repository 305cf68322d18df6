"""Exact scalar fields: the rationals and prime fields GF(p).

Every computation in this package runs over one of these fields.  Scalars are
exact; there is no floating point anywhere.  A field is the only maker of its
scalars: ints and text enter through ``field.of`` and ``field.parse``.  Scalars
are never mutated, so ``field.zero`` and ``field.one`` are constants that every
caller shares.

Each field also converts between its scalars and the native values that
the library computes with inside (see leavitt.linalg): ``native(x)`` turns a
scalar of the field into a native value, ``scalar(n)`` turns one back, and
``native_inverse(n)`` inverts it.  Over GF(p) a native value is the int
residue in [0, p); over Q it is an int while integral and a Fraction
otherwise.  ``native`` keeps the same-field contract for every public entry
point: a value of any other type, a float included, raises TypeError, and
a GF scalar of another modulus raises PreconditionError.

The layers that work on field scalars rather than native values share two
helpers: add_into accumulates a scaled vector, and signed_sum prints one.
"""

from fractions import Fraction

from .errors import ParseError, PreconditionError


def _residue(x, p):
    """The residue of a GF(p) scalar; anything else is refused."""
    if x.__class__ is not GFScalar:
        raise TypeError(f"cannot combine GF({p}) with {type(x).__name__}")
    if x.p != p:
        raise PreconditionError(f"mixed moduli {p} and {x.p}")
    return x.residue


def _inverse_mod(r, p):
    if r % p == 0:
        raise ZeroDivisionError(f"inverse of 0 in GF({p})")
    return pow(r, -1, p)


class GFScalar:
    """A residue modulo a prime p, made by PrimeField.of or PrimeField.parse.

    Arithmetic, equality and hashing are only defined against other GFScalar
    values with the same modulus.  Arithmetic with an int or any other type
    raises TypeError, and arithmetic across two moduli raises
    PreconditionError.
    """

    __slots__ = ("residue", "p")

    def __init__(self, residue, p):
        self.residue = residue % p
        self.p = p

    def __add__(self, other):
        return GFScalar(self.residue + _residue(other, self.p), self.p)

    def __sub__(self, other):
        return GFScalar(self.residue - _residue(other, self.p), self.p)

    def __mul__(self, other):
        return GFScalar(self.residue * _residue(other, self.p), self.p)

    def __truediv__(self, other):
        p = self.p
        return GFScalar(self.residue * _inverse_mod(_residue(other, p), p), p)

    def __neg__(self):
        return GFScalar(-self.residue, self.p)

    def inverse(self):
        return GFScalar(_inverse_mod(self.residue, self.p), self.p)

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
    """The rationals, as fractions.Fraction; zero and one are class constants."""

    characteristic = 0
    name = "q"
    zero = Fraction(0)
    one = Fraction(1)

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

    def native(self, x):
        cls = x.__class__
        if cls is int:
            return x
        if cls is Fraction:
            return x.numerator if x.denominator == 1 else x
        raise TypeError(f"cannot use {type(x).__name__} as a rational")

    def scalar(self, n):
        return Fraction(n) if n.__class__ is int else n

    def native_inverse(self, n):
        if n == 1 or n == -1:
            return n
        return self.native(Fraction(1, n))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "RationalField()"


class PrimeField:
    """The prime field GF(p); zero and one are built once, in __init__."""

    def __init__(self, p):
        if not isinstance(p, int) or not _is_prime(p):
            raise PreconditionError(f"modulus {p!r} is not prime")
        self.p = p
        self.characteristic = p
        self.name = f"gf:{p}"
        self.zero = GFScalar(0, p)
        self.one = GFScalar(1, p)

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
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad GF({self.p}) literal {text!r}") from exc

    def native(self, x):
        return _residue(x, self.p)

    def scalar(self, n):
        return GFScalar(n, self.p)

    def native_inverse(self, n):
        return _inverse_mod(n, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


def add_into(field, acc, vec, scalar):
    """acc += scalar * vec over field scalars, dropping keys that cancel."""
    for key, coeff in vec.items():
        val = acc.get(key, field.zero) + coeff * scalar
        if val:
            acc[key] = val
        else:
            acc.pop(key, None)
    return acc


def signed_sum(terms):
    """Print (scalar, word) pairs as "w1 - 2 w2 + w3", or "0" when empty.

    A unit coefficient is left out, and a negative one becomes the sign.
    A word of None stands for the identity and prints as the bare scalar.
    """
    pieces = []
    for coeff, word in terms:
        body = str(coeff)
        neg = body.startswith("-")
        if neg:
            body = body[1:]
        if word is None:
            text = body
        elif body == "1":
            text = word
        else:
            text = f"{body} {word}"
        if pieces:
            pieces.append(f"- {text}" if neg else f"+ {text}")
        else:
            pieces.append(f"-{text}" if neg else text)
    return " ".join(pieces) or "0"


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
