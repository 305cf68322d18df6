"""Finite dimensional algebras used as coefficient targets.

Two families are built here: simple field extensions K[x]/(q) and
quaternion algebras (c, d | K).  Both are wrapped in a small structure
constant container that checks associativity and unitality up front, so a
bad multiplication table fails at construction time rather than deep
inside a staircase computation.  The checks read the structure constants
as native vectors (see leavitt.linalg) and build no element: a product
naming a label outside the basis is refused, and a constant that is not a
scalar of the field raises TypeError as linalg.encode does.
"""

from math import gcd, isqrt, lcm

from .errors import ParseError, PreconditionError
from .fields import PrimeField, add_into, signed_sum
from .linalg import add_native, decode, encode


class AlgebraElement:
    """A vector over the labeled basis of a StructureAlgebra."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra, coords):
        self.algebra = algebra
        self.coords = {k: v for k, v in coords.items() if v}

    def __add__(self, other):
        self._compatible(other)
        field = self.algebra.field
        out = add_into(field, dict(self.coords), other.coords, field.one)
        return AlgebraElement(self.algebra, out)

    def __neg__(self):
        return AlgebraElement(self.algebra, {k: -v for k, v in self.coords.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._compatible(other)
        field, table, out = self.algebra.field, self.algebra.table, {}
        for k1, v1 in self.coords.items():
            for k2, v2 in other.coords.items():
                add_into(field, out, table[(k1, k2)], v1 * v2)
        return AlgebraElement(self.algebra, out)

    def scale(self, scalar):
        scalar = self.algebra.field.of(scalar)
        return AlgebraElement(
            self.algebra, {k: v * scalar for k, v in self.coords.items()}
        )

    def _compatible(self, other):
        if self.algebra is not other.algebra:
            raise PreconditionError("elements of different algebras")

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra is other.algebra and self.coords == other.coords

    def __hash__(self):
        return hash(frozenset(self.coords.items()))

    @property
    def is_zero(self):
        return not self.coords

    def coord(self, label):
        return self.coords.get(label, self.algebra.field.zero)

    def __str__(self):
        unit = self.algebra.unit_label
        return signed_sum(
            (self.coords[label], None if label == unit else label)
            for label in self.algebra.labels
            if label in self.coords
        )


class StructureAlgebra:
    """A unital algebra given by structure constants over a labeled basis."""

    def __init__(self, field, labels, unit_label, table, name=""):
        self.field = field
        self.labels = list(labels)
        self.unit_label = unit_label
        self.name = name
        if unit_label not in self.labels:
            raise PreconditionError("unit label missing from basis")
        known = set(self.labels)
        self.table = {}
        # the structure constants as native vectors (see leavitt.linalg)
        native = {}
        for k1 in self.labels:
            for k2 in self.labels:
                entry = table.get((k1, k2))
                if entry is None:
                    raise PreconditionError(f"no product for ({k1}, {k2})")
                vec = native[(k1, k2)] = encode(field, entry)
                for k in vec:
                    if k not in known:
                        raise PreconditionError(
                            f"the product ({k1}, {k2}) names {k!r}, not a basis label"
                        )
                self.table[(k1, k2)] = decode(field, vec)
        self._check_unit(native)
        self._check_associativity(native)

    def basis(self, label):
        return AlgebraElement(self, {label: self.field.one})

    @property
    def one(self):
        return self.basis(self.unit_label)

    @property
    def dim(self):
        return len(self.labels)

    def element(self, coords):
        """Build an element from a label-to-scalar mapping."""
        for k in coords:
            if k not in self.labels:
                raise PreconditionError(f"unknown basis label {k!r}")
        return AlgebraElement(self, {k: self.field.of(v) for k, v in coords.items()})

    def _check_unit(self, native):
        unit = self.unit_label
        for k in self.labels:
            if native[(unit, k)] != {k: 1}:
                raise PreconditionError(f"unit fails on the left of {k}")
            if native[(k, unit)] != {k: 1}:
                raise PreconditionError(f"unit fails on the right of {k}")

    def _check_associativity(self, native):
        """(k1 k2) k3 = k1 (k2 k3) for every triple of basis labels, as
        sums over m of T[k1,k2][m] T[m,k3] and of T[k2,k3][m] T[k1,m]."""
        p = self.field.characteristic
        for k1 in self.labels:
            for k2 in self.labels:
                for k3 in self.labels:
                    left, right = {}, {}
                    for m, c in native[(k1, k2)].items():
                        add_native(left, native[(m, k3)], c, p)
                    for m, c in native[(k2, k3)].items():
                        add_native(right, native[(k1, m)], c, p)
                    if left != right:
                        raise PreconditionError(
                            f"associativity fails on ({k1}, {k2}, {k3})"
                        )


# -- polynomial helpers -------------------------------------------------


def check_poly(field, coeffs, monic=True):
    """Validate a coefficient list c0..cn, constant term first."""
    coeffs = [field.of(c) for c in coeffs]
    if len(coeffs) < 2:
        raise PreconditionError("polynomial must have degree at least one")
    if not coeffs[-1]:
        raise PreconditionError("leading coefficient must be nonzero")
    if monic and coeffs[-1] != field.one:
        raise PreconditionError("polynomial must be monic")
    return coeffs


def poly_eval(field, coeffs, x):
    acc = field.zero
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def reciprocal(coeffs):
    """Reverse the coefficients.  Needs nonzero ends; involutive."""
    if not coeffs[0] or not coeffs[-1]:
        raise PreconditionError("reciprocal needs nonzero constant and leading terms")
    return list(reversed(coeffs))


def represents_zero(field, c, d, bound):
    """Search integer zeros of the quaternion norm form x0²+cx1²+dx2²+cdx3².

    A nontrivial zero witnesses that the (c, d) algebra is not a division
    algebra; exhausting |x_i| ≤ bound only certifies the absence of small
    witnesses.  The meet in the middle keeps the search quadratic in the
    bound instead of quartic.
    """
    if bound < 1:
        raise PreconditionError("the search bound must be positive")
    c, d = field.of(c), field.of(d)
    halves = {}
    for x0 in range(bound + 1):
        for x1 in range(bound + 1):
            value = field.of(x0 * x0) + c * field.of(x1 * x1)
            # prefer a nontrivial representative so that value 0 paired
            # with (x2, x3) = (0, 0) still yields a usable witness
            if value not in halves or halves[value] == (0, 0):
                halves[value] = (x0, x1)
    for x2 in range(bound + 1):
        for x3 in range(bound + 1):
            value = d * field.of(x2 * x2) + c * d * field.of(x3 * x3)
            front = halves.get(-value)
            if front is None:
                continue
            witness = (front[0], front[1], x2, x3)
            if any(witness):
                return ("isotropic", witness)
    return ("anisotropic_up_to", bound)


def is_irreducible(field, coeffs):
    """True, False, or None when no exact criterion applies.

    Prime fields are decided by Rabin's test.  Over the rationals, degrees
    up to three reduce to the rational root test; higher degrees fall back
    on irreducibility modulo a small prime, which is sufficient but not
    necessary, so a miss returns None rather than a verdict.  The rational
    root test is skipped, which leaves degrees up to three at None, when
    its divisor scan would pass _ROOT_SCAN_CAP.
    """
    coeffs = check_poly(field, coeffs, monic=False)
    deg = len(coeffs) - 1
    if deg == 1:
        return True
    if field.characteristic:
        return _gf_irreducible(field, coeffs)
    ints = _integerize(coeffs)
    root = _has_rational_root(ints)
    if root:
        return False
    if deg <= 3:
        return None if root is None else True
    for p in (2, 3, 5, 7, 11, 13):
        if ints[-1] % p == 0:
            continue
        gf = PrimeField(p)
        if _gf_irreducible(gf, [gf.of(c) for c in ints]):
            return True
    return None


def _integerize(coeffs):
    d = lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (d // c.denominator) for c in coeffs]


# Bound on the rational root test's work: on isqrt(|a0|) + isqrt(|an|),
# the divisor scan, and on the number of candidate numerator/denominator
# pairs.  Past it the test answers None.
_ROOT_SCAN_CAP = 10**6


def _has_rational_root(ints):
    """True or False for an integer polynomial, None past _ROOT_SCAN_CAP."""
    a0, an = abs(ints[0]), abs(ints[-1])
    if a0 == 0:
        return True
    if isqrt(a0) + isqrt(an) > _ROOT_SCAN_CAP:
        return None
    nums, dens = _divisors(a0), _divisors(an)
    if len(nums) * len(dens) > _ROOT_SCAN_CAP:
        return None
    for q in dens:
        for p in nums:
            if gcd(p, q) != 1:
                continue
            for s in (p, -p):
                # q^deg * f(s/q), by Horner's rule on the homogenized form
                acc, q_pow = 0, 1
                for c in reversed(ints):
                    acc = acc * s + c * q_pow
                    q_pow *= q
                if acc == 0:
                    return True
    return False


def _divisors(n):
    """The positive divisors of n > 0, ascending, found in pairs up to sqrt(n)."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _gf_irreducible(field, coeffs):
    """Rabin's test (1980) on f of degree n over GF(p).

    The monic f is irreducible iff f divides x^(p^n) - x and
    gcd(x^(p^(n/q)) - x, f) = 1 for every prime q dividing n.  Each
    x^(p^i) mod f comes from the one before by modular powering by p, so
    the cost is polynomial in n and log p.
    """
    p = field.characteristic
    inv = pow(coeffs[-1].residue, p - 2, p)
    f = [c.residue * inv % p for c in coeffs]
    n = len(f) - 1
    x = [0, 1]
    frobenius = [x]  # x^(p^i) mod f
    for _ in range(n):
        frobenius.append(_poly_powmod(frobenius[-1], p, f, p))
    if frobenius[n] != x:
        return False
    for q in _prime_factors(n):
        g = _poly_sub(frobenius[n // q], x, p)
        if len(_poly_gcd(g, f, p)) != 1:
            return False
    return True


# Polynomials over GF(p) for Rabin's test: residue lists, constant term
# first, with no trailing zeros, so [] is the zero polynomial.


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _poly_sub(a, b, p):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _trim(out)


def _poly_rem(a, b, p):
    """a mod b, for b nonzero."""
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], p - 2, p)
    for k in range(len(a) - 1, db - 1, -1):
        c = a[k] * inv % p
        if c:
            for i in range(db + 1):
                a[k - db + i] = (a[k - db + i] - c * b[i]) % p
    return _trim(a[:db])


def _poly_mulmod(a, b, f, p):
    if not a or not b:
        return []
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    return _poly_rem([c % p for c in prod], f, p)


def _poly_powmod(a, e, f, p):
    out = [1]
    while e:
        if e & 1:
            out = _poly_mulmod(out, a, f, p)
        e >>= 1
        if e:
            a = _poly_mulmod(a, a, f, p)
    return out


def _poly_gcd(a, b, p):
    while b:
        a, b = b, _poly_rem(a, b, p)
    return a


def _prime_factors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# -- the two algebra families --------------------------------------------


def field_extension(field, coeffs):
    """K[x]/(q) for a monic q given by its coefficient list c0..cl=1."""
    coeffs = check_poly(field, coeffs, monic=True)
    deg = len(coeffs) - 1
    labels = ["1"] + [f"x{i}" if i > 1 else "x" for i in range(1, deg)]
    # x^0, ..., x^(2deg-2) reduced mod q as coordinate lists, each from the
    # one before: multiply by x, a shift, then reduce
    # x^deg = -(c0 + ... + c_{deg-1}x^{deg-1}).
    powers = [[field.one] + [field.zero] * (deg - 1)]
    for _ in range(2 * deg - 2):
        carry = powers[-1][-1]
        shifted = [field.zero] + powers[-1][:-1]
        powers.append([s - carry * c for s, c in zip(shifted, coeffs)] if carry else shifted)
    table = {}
    for i in range(deg):
        for j in range(deg):
            table[(labels[i], labels[j])] = {
                labels[k]: c for k, c in enumerate(powers[i + j]) if c
            }
    name = "ext(" + ",".join(str(c) for c in coeffs) + ")"
    return StructureAlgebra(field, labels, "1", table, name=name)


def quaternion_algebra(field, c, d):
    """The four dimensional algebra with i*i = -c, j*j = -d, ij = -ji = k."""
    if field.characteristic == 2:
        raise PreconditionError("quaternion algebras need characteristic not two")
    c, d = field.of(c), field.of(d)
    if not c or not d:
        raise PreconditionError("quaternion parameters must be nonzero")
    one, zero = field.one, field.zero
    labels = ["1", "i", "j", "k"]
    table = {}

    def put(k1, k2, label, scalar):
        table[(k1, k2)] = {label: scalar} if scalar else {}

    put("1", "1", "1", one)
    for u in ("i", "j", "k"):
        put("1", u, u, one)
        put(u, "1", u, one)
    put("i", "i", "1", -c)
    put("j", "j", "1", -d)
    put("k", "k", "1", -c * d)
    put("i", "j", "k", one)
    put("j", "i", "k", -one)
    put("j", "k", "i", d)
    put("k", "j", "i", -d)
    put("k", "i", "j", c)
    put("i", "k", "j", -c)
    return StructureAlgebra(field, labels, "1", table, name=f"quat({c},{d})")


def parse_algebra(field, text):
    """Parse an algebra tag: "ext:c0,c1,...,1" or "quat:c,d"."""
    text = text.strip()
    kind, _, rest = text.partition(":")
    try:
        if kind == "ext":
            coeffs = [field.parse(t) for t in rest.split(",")]
            return field_extension(field, coeffs)
        if kind == "quat":
            c, d = (field.parse(t) for t in rest.split(","))
            return quaternion_algebra(field, c, d)
    except (ValueError, PreconditionError) as exc:
        raise ParseError(f"bad algebra tag {text!r}: {exc}") from exc
    raise ParseError(f"unknown algebra kind {kind!r}, expected ext or quat")
