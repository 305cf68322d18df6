"""Sparse linear algebra over exact fields.

Vectors are dicts from keys to nonzero scalars.  SpanEchelon is the one
elimination kernel of the package: Schreier staircases, module spans,
annihilators and the commutant solve all run through it.

SpanEchelon computes in its field's native representation (see
leavitt.fields): int residues over GF(p), and over Q an int while a value
is integral and a Fraction otherwise; every division over Q is
Fraction(a, b).  It converts only at its boundary.  The vectors and tags
that insert, reduce and contains take are decoded with field.native, which
refuses another type (a float included) with TypeError and another modulus
with PreconditionError.  Every vector it hands back, from insert, reduce,
kernel, rows and tags, holds the field's own scalars, GFScalar or
Fraction, and never a float.

Built over ``field.codec``, as the probes of leavitt.probes build it, it
converts nothing: it takes nonzero native values and hands native ones back.
"""

from bisect import insort
from collections.abc import Mapping

from .errors import PreconditionError
from .fields import NativeCodec


def vec_add_into(field, acc, vec, scalar):
    """acc += scalar * vec, dropping keys whose coefficient cancels."""
    if not scalar:
        return acc
    for key, coeff in vec.items():
        val = acc.get(key, field.zero) + coeff * scalar
        if val:
            acc[key] = val
        else:
            acc.pop(key, None)
    return acc


def add_native(acc, vec, scalar, p):
    """acc += scalar * vec over native values, reduced mod p unless p is 0."""
    for key, coeff in vec.items():
        val = acc.get(key, 0) + coeff * scalar
        if p:
            val %= p
        if val:
            acc[key] = val
        else:
            acc.pop(key, None)


def encode(field, vec):
    """vec with its scalars made native by field.native, zeros dropped."""
    native = field.native
    return {k: n for k, v in vec.items() if (n := native(v))}


def decode(field, vec):
    """The native vec with its values made scalars of field."""
    scalar = field.scalar
    return {k: scalar(v) for k, v in vec.items()}


class _ScalarView(Mapping):
    """A read-only view of a dict of native vectors as field-scalar vectors.

    Membership, length and iteration go straight to the dict; only a value
    that is looked up is converted.
    """

    __slots__ = ("_vecs", "_field")

    def __init__(self, vecs, field):
        self._vecs = vecs
        self._field = field

    def __getitem__(self, key):
        return decode(self._field, self._vecs[key])

    def __contains__(self, key):
        return key in self._vecs

    def __len__(self):
        return len(self._vecs)

    def __iter__(self):
        return iter(self._vecs)

    def __eq__(self, other):
        # Native values are canonical in their field: compare undecoded.
        if isinstance(other, _ScalarView) and other._field == self._field:
            return self._vecs == other._vecs
        return Mapping.__eq__(self, other)


class SpanEchelon:
    """Row echelon over sparsely supported vectors.

    Rows pivot on their largest key under sort_key and are normalized to
    leading coefficient one.  sort_key must be injective on keys: two keys
    with one sort key would make the pivot order ambiguous.  A row stored
    with a tag carries a tag vector over caller chosen keys; reduce and
    insert accumulate the matching combination so that input = remainder
    + combination of raw inserts.  Rows are only top-reduced, so a row's
    tail may hold later pivots; the pivot set and the normal form that
    reduce returns do not depend on that.

    rows and tags map each pivot to its row and tag.  They are read-only
    views over the native store, so pivot membership costs no conversion.
    """

    def __init__(self, field, sort_key):
        self.field = field
        self.sort_key = sort_key
        self._p = field.characteristic
        self._raw = isinstance(field, NativeCodec)
        self._canon = (field.field if self._raw else field).native
        self._rows = {}
        self._tags = {}
        self.rows = _ScalarView(self._rows, field)
        self.tags = _ScalarView(self._tags, field)

    @property
    def rank(self):
        return len(self._rows)

    def pivots(self):
        return sorted(self._rows, key=self.sort_key)

    def _native(self, vec):
        return dict(vec) if self._raw else encode(self.field, vec)

    def _scalars(self, vec):
        return vec if self._raw else decode(self.field, vec)

    def _scaled(self, vec, c):
        """c * vec, each value reduced mod p, or made an int if integral."""
        p = self._p
        if p:
            return {k: v * c % p for k, v in vec.items()}
        canon = self._canon
        return {k: canon(v * c) for k, v in vec.items()}

    def _eliminate(self, vec, top):
        """Cancel pivots of vec, largest first, tracking the combination.

        With top set the elimination stops at the first leading key that
        is not a pivot and returns it as the third value; otherwise every
        pivot is cancelled and the third value is None.  All three values
        are native.
        """
        rows, tags, sort_key, p = self._rows, self._tags, self.sort_key, self._p
        rem = self._native(vec)
        combo = {}
        # Keys still to visit, as (sort key, key) in ascending order; a key
        # that cancelled since it was queued is skipped when it comes up.
        pending = sorted((sort_key(k), k) for k in rem if top or k in rows)
        while pending:
            hit = pending.pop()[1]
            c = rem.get(hit)
            if c is None:
                continue
            row = rows.get(hit)
            if row is None:
                return rem, combo, hit
            tag = tags.get(hit)
            if tag is not None:
                add_native(combo, tag, c, p)
            neg = -c
            for k, rc in row.items():
                old = rem.get(k)
                if old is None:
                    rem[k] = rc * neg % p if p else rc * neg
                    if top or k in rows:
                        insort(pending, (sort_key(k), k))
                else:
                    val = old + rc * neg
                    if p:
                        val %= p
                    if val:
                        rem[k] = val
                    else:
                        del rem[k]
        return rem, combo, None

    def reduce(self, vec):
        """Return (remainder, combo) with vec = remainder + combo of raw rows."""
        rem, combo, _ = self._eliminate(vec, False)
        return self._scalars(rem), self._scalars(combo)

    def insert(self, vec, tag=None):
        """Top-reduce vec and store the result if it is nonzero.

        Returns (remainder, combo, pivot); pivot is None when vec was
        already in the span, and then the remainder is empty.  Otherwise
        the remainder is only reduced down to its leading key, the new
        pivot.  tag names this raw row in later combos.
        """
        rtag = None if tag is None else self._native(tag)
        rem, combo, pivot = self._eliminate(vec, True)
        if pivot is not None:
            inv = self.field.native_inverse(rem[pivot])
            self._rows[pivot] = self._scaled(rem, inv)
            if rtag is not None or combo:
                rtag = rtag or {}
                add_native(rtag, combo, -1, self._p)
                self._tags[pivot] = self._scaled(rtag, inv)
        return self._scalars(rem), self._scalars(combo), pivot

    def contains(self, vec):
        rem, _ = self.reduce(vec)
        return not rem

    def kernel(self, keys):
        """A basis of the vectors over keys that every row sends to zero.

        Every key of every row must be one of keys, else PreconditionError.
        There is one basis vector per free key, in the order of keys: one
        at that key, zero at the other free keys.  Rows are back-substituted
        in ascending pivot order, so the value of every pivot in a row's
        tail is known before the row is solved.
        """
        keyset = set(keys)
        for pivot, row in self._rows.items():
            outside = row.keys() - keyset
            if outside:
                raise PreconditionError(
                    f"the row at pivot {pivot!r} holds {sorted(outside, key=repr)}, not in keys"
                )
        p = self._p
        # Each pivot's value as a combination of the free keys.
        value = {}
        for pivot in self.pivots():
            val = {}
            for k, c in self._rows[pivot].items():
                if k != pivot:
                    add_native(val, value.get(k, {k: 1}), -c, p)
            value[pivot] = val
        one = self.field.one
        basis = []
        for f in keys:
            if f in self._rows:
                continue
            vec = {f: one}
            for pivot, val in value.items():
                c = val.get(f)
                if c:
                    vec[pivot] = self.field.scalar(c)
            basis.append(vec)
        return basis
