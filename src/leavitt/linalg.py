"""Sparse linear algebra over exact fields, on native values.

Vectors are dicts from keys to nonzero native scalars (see leavitt.fields):
int residues in [0, p) over GF(p), and over Q an int while a value is
integral and a Fraction otherwise; every division over Q is Fraction(a, b).
SpanEchelon is the one elimination kernel of the package: Schreier
staircases, module spans, annihilators and the commutant solve all run
through it.  It takes and hands back native vectors only, its rows, tags
and kernel included, and converts nothing.

Callers convert once, at the public boundary: encode turns a vector of
field scalars into a native one and keeps the same-field contract (another
type, a float included, raises TypeError, and a scalar of another modulus
PreconditionError); decode turns a native vector back into field scalars.
"""

from bisect import insort

from .errors import PreconditionError


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


class SpanEchelon:
    """Row echelon over sparsely supported native vectors.

    Rows pivot on their largest key under sort_key and are normalized to
    leading coefficient one.  sort_key must be injective on keys: two keys
    with one sort key would make the pivot order ambiguous.  A row stored
    with a tag carries a tag vector over caller chosen keys; reduce and
    insert accumulate the matching combination so that input = remainder
    + combination of raw inserts.  Rows are only top-reduced, so a row's
    tail may hold later pivots; the pivot set and the normal form that
    reduce returns do not depend on that.

    rows and tags map each pivot to its row and tag; callers read them and
    never write them.
    """

    def __init__(self, field, sort_key):
        self.field = field
        self.sort_key = sort_key
        self._p = field.characteristic
        self.rows = {}
        self.tags = {}

    @property
    def rank(self):
        return len(self.rows)

    def pivots(self):
        return sorted(self.rows, key=self.sort_key)

    def _scaled(self, vec, c):
        """c * vec, each value reduced mod p, or made an int if integral."""
        p = self._p
        if p:
            return {k: v * c % p for k, v in vec.items()}
        canon = self.field.native
        return {k: canon(v * c) for k, v in vec.items()}

    def _eliminate(self, vec, top):
        """Cancel pivots of vec, largest first, tracking the combination.

        With top set the elimination stops at the first leading key that
        is not a pivot and returns it as the third value; otherwise every
        pivot is cancelled and the third value is None.
        """
        rows, tags, sort_key, p = self.rows, self.tags, self.sort_key, self._p
        rem = dict(vec)
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
        return rem, combo

    def insert(self, vec, tag=None):
        """Top-reduce vec and store the result if it is nonzero.

        Returns (remainder, combo, pivot); pivot is None when vec was
        already in the span, and then the remainder is empty.  Otherwise
        the remainder is only reduced down to its leading key, the new
        pivot.  tag names this raw row in later combos.

        A vector of one key that is not a pivot is its own remainder and
        becomes the row {key: 1} without elimination.
        """
        if len(vec) == 1:
            ((key, c),) = vec.items()
            if key not in self.rows:
                self.rows[key] = {key: 1}
                if tag is not None:
                    self.tags[key] = self._scaled(tag, self.field.native_inverse(c))
                return {key: c}, {}, key
        rem, combo, pivot = self._eliminate(vec, True)
        if pivot is not None:
            inv = self.field.native_inverse(rem[pivot])
            self.rows[pivot] = self._scaled(rem, inv)
            if tag is not None or combo:
                rtag = dict(tag or ())
                add_native(rtag, combo, -1, self._p)
                self.tags[pivot] = self._scaled(rtag, inv)
        return rem, combo, pivot

    def relation(self, vec, key):
        """Insert vec tagged {key: 1}; None when it adds a pivot.

        Otherwise vec lies in the span of the earlier tagged inserts, and
        the result is the native relation {key: 1} - combo over their tags,
        whose combination of the inserted vectors is zero.
        """
        _, combo, pivot = self.insert(vec, {key: 1})
        if pivot is not None:
            return None
        rel = {key: 1}
        add_native(rel, combo, -1, self._p)
        return rel

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
        for pivot, row in self.rows.items():
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
            for k, c in self.rows[pivot].items():
                if k != pivot:
                    add_native(val, value.get(k, {k: 1}), -c, p)
            value[pivot] = val
        basis = []
        for f in keys:
            if f in self.rows:
                continue
            vec = {f: 1}
            for pivot, val in value.items():
                c = val.get(f)
                if c:
                    vec[pivot] = c
            basis.append(vec)
        return basis
