"""Finite dimensional algebras used as coefficient targets.

Two families are built here: simple field extensions K[x]/(q) and
quaternion algebras (c, d | K).  Both are wrapped in a small structure
constant container that checks associativity and unitality up front, so a
bad multiplication table fails at construction time rather than deep
inside a staircase computation.
"""

from .errors import ParseError, PreconditionError


class AlgebraElement:
    """A vector over the labeled basis of a StructureAlgebra."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra, coords):
        self.algebra = algebra
        self.coords = {k: v for k, v in coords.items() if v}

    def __add__(self, other):
        self._compatible(other)
        out = dict(self.coords)
        for k, v in other.coords.items():
            acc = out.get(k, self.algebra.field.zero) + v
            if acc:
                out[k] = acc
            else:
                out.pop(k, None)
        return AlgebraElement(self.algebra, out)

    def __neg__(self):
        return AlgebraElement(self.algebra, {k: -v for k, v in self.coords.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._compatible(other)
        out = {}
        for k1, v1 in self.coords.items():
            for k2, v2 in other.coords.items():
                for k3, s in self.algebra.table[(k1, k2)].items():
                    acc = out.get(k3, self.algebra.field.zero) + v1 * v2 * s
                    if acc:
                        out[k3] = acc
                    else:
                        out.pop(k3, None)
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
        if not self.coords:
            return "0"
        pieces = []
        for label in self.algebra.labels:
            if label in self.coords:
                pieces.append(f"{self.coords[label]}{label}")
        return " + ".join(pieces)


class StructureAlgebra:
    """A unital algebra given by structure constants over a labeled basis."""

    def __init__(self, field, labels, unit_label, table, name=""):
        self.field = field
        self.labels = list(labels)
        self.unit_label = unit_label
        self.name = name
        if unit_label not in self.labels:
            raise PreconditionError("unit label missing from basis")
        self.table = {}
        for k1 in self.labels:
            for k2 in self.labels:
                entry = table.get((k1, k2))
                if entry is None:
                    raise PreconditionError(f"no product for ({k1}, {k2})")
                self.table[(k1, k2)] = {k: v for k, v in entry.items() if v}
        self._check_unit()
        self._check_associativity()

    def basis(self, label):
        return AlgebraElement(self, {label: self.field.one})

    @property
    def one(self):
        return self.basis(self.unit_label)

    @property
    def dim(self):
        return len(self.labels)

    def element(self, coords):
        """Build an element from a label-to-scalar mapping or coordinate list."""
        if isinstance(coords, (list, tuple)):
            if len(coords) != len(self.labels):
                raise PreconditionError(
                    f"expected {len(self.labels)} coordinates, got {len(coords)}"
                )
            coords = dict(zip(self.labels, coords))
        return AlgebraElement(self, {k: self.field.of(v) for k, v in coords.items()})

    def _check_unit(self):
        for k in self.labels:
            if self.one * self.basis(k) != self.basis(k):
                raise PreconditionError(f"unit fails on the left of {k}")
            if self.basis(k) * self.one != self.basis(k):
                raise PreconditionError(f"unit fails on the right of {k}")

    def _check_associativity(self):
        for k1 in self.labels:
            for k2 in self.labels:
                for k3 in self.labels:
                    left = (self.basis(k1) * self.basis(k2)) * self.basis(k3)
                    right = self.basis(k1) * (self.basis(k2) * self.basis(k3))
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

    Prime fields are handled exhaustively.  Over the rationals, degrees up
    to three reduce to the rational root test; higher degrees fall back on
    irreducibility modulo a small prime, which is sufficient but not
    necessary, so a miss returns None rather than a verdict.
    """
    coeffs = check_poly(field, coeffs, monic=False)
    deg = len(coeffs) - 1
    if deg == 1:
        return True
    if field.characteristic:
        return _gf_irreducible(field, coeffs)
    ints = _integerize(coeffs)
    if deg <= 3:
        return not _has_rational_root(ints)
    if _has_rational_root(ints):
        return False
    from .fields import PrimeField

    for p in (2, 3, 5, 7, 11, 13):
        if ints[-1] % p == 0:
            continue
        gf = PrimeField(p)
        if _gf_irreducible(gf, [gf.of(c) for c in ints]):
            return True
    return None


def _integerize(coeffs):
    from fractions import Fraction

    denom = 1
    for c in coeffs:
        denom = denom * c.denominator // _gcd(denom, c.denominator)
    return [int(Fraction(c) * denom) for c in coeffs]


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _has_rational_root(ints):
    from fractions import Fraction

    a0, an = ints[0], ints[-1]
    if a0 == 0:
        return True
    for p in _divisors(abs(a0)):
        for q in _divisors(abs(an)):
            for sign in (1, -1):
                x = Fraction(sign * p, q)
                acc = Fraction(0)
                for c in reversed(ints):
                    acc = acc * x + c
                if acc == 0:
                    return True
    return False


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _gf_irreducible(field, coeffs):
    deg = len(coeffs) - 1
    p = field.characteristic
    # Roots catch all degree 2 and 3 factorizations.
    for r in range(p):
        if not poly_eval(field, coeffs, field.of(r)):
            return False
    if deg <= 3:
        return True
    # Trial division by monic polynomials up to half the degree.
    for d in range(2, deg // 2 + 1):
        for divisor in _monic_polys(field, d):
            if _poly_divides(field, divisor, coeffs):
                return False
    return True


def _monic_polys(field, deg):
    p = field.characteristic
    total = p**deg
    for code in range(total):
        coeffs = []
        c = code
        for _ in range(deg):
            coeffs.append(field.of(c % p))
            c //= p
        coeffs.append(field.one)
        yield coeffs


def _poly_divides(field, divisor, coeffs):
    rem = list(coeffs)
    dd = len(divisor) - 1
    lead = divisor[-1]
    while len(rem) - 1 >= dd:
        factor = rem[-1] / lead
        shift = len(rem) - 1 - dd
        for i, c in enumerate(divisor):
            rem[shift + i] = rem[shift + i] - factor * c
        while len(rem) > 1 and not rem[-1]:
            rem.pop()
        if len(rem) - 1 < dd:
            break
    return len(rem) == 1 and not rem[0]


# -- the two algebra families --------------------------------------------


def field_extension(field, coeffs):
    """K[x]/(q) for a monic q given by its coefficient list c0..cl=1."""
    coeffs = check_poly(field, coeffs, monic=True)
    deg = len(coeffs) - 1
    labels = ["1"] + [f"x{i}" if i > 1 else "x" for i in range(1, deg)]

    def power(i):
        # x^i reduced mod q, as a coordinate dict over labels.
        vec = {j: field.zero for j in range(deg)}
        if i < deg:
            vec[i] = field.one
            return vec
        lower = power(i - 1)
        out = {j: field.zero for j in range(deg)}
        # Multiply by x: shift, then reduce x^deg = -(c0 + ... + c_{deg-1}x^{deg-1}).
        carry = lower[deg - 1]
        for j in range(deg - 1, 0, -1):
            out[j] = lower[j - 1]
        out[0] = field.zero
        if carry:
            for j in range(deg):
                out[j] = out[j] - carry * coeffs[j]
        return out

    table = {}
    for i in range(deg):
        for j in range(deg):
            vec = power(i + j)
            table[(labels[i], labels[j])] = {
                labels[k]: vec[k] for k in range(deg) if vec[k]
            }
    name = "ext(" + ",".join(str(c) for c in coeffs) + ")"
    alg = StructureAlgebra(field, labels, "1", table, name=name)
    alg.kind = "extension"
    alg.modulus = coeffs
    return alg


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
    alg = StructureAlgebra(field, labels, "1", table, name=f"quat({c},{d})")
    alg.kind = "quaternion"
    return alg


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
