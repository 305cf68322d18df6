"""Sparse linear algebra over exact fields.

Vectors are dicts from keys to nonzero scalars.  SpanEchelon is the one
elimination kernel of the package: Schreier staircases, module spans,
annihilators and the commutant solve all run through it.
"""

from bisect import insort


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
    """

    def __init__(self, field, sort_key):
        self.field = field
        self.sort_key = sort_key
        self.rows = {}
        self.tags = {}

    @property
    def rank(self):
        return len(self.rows)

    def pivots(self):
        return sorted(self.rows, key=self.sort_key)

    def _eliminate(self, vec, top):
        """Cancel pivots of vec, largest first, tracking the combination.

        With top set the elimination stops at the first leading key that
        is not a pivot and returns it as the third value; otherwise every
        pivot is cancelled and the third value is None.
        """
        rows, tags, sort_key = self.rows, self.tags, self.sort_key
        rem = {k: v for k, v in vec.items() if v}
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
                vec_add_into(self.field, combo, tag, c)
            neg = -c
            for k, rc in row.items():
                old = rem.get(k)
                if old is None:
                    rem[k] = rc * neg
                    if top or k in rows:
                        insort(pending, (sort_key(k), k))
                else:
                    val = old + rc * neg
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
        """
        rem, combo, pivot = self._eliminate(vec, True)
        if pivot is None:
            return rem, combo, None
        one = self.field.one
        inv = one / rem[pivot]
        self.rows[pivot] = {k: v * inv for k, v in rem.items()}
        if tag is not None or combo:
            rtag = dict(tag or {})
            vec_add_into(self.field, rtag, combo, -one)
            self.tags[pivot] = {k: v * inv for k, v in rtag.items()}
        return rem, combo, pivot

    def contains(self, vec):
        rem, _ = self.reduce(vec)
        return not rem

    def kernel(self, keys):
        """A basis of the vectors over keys that every row sends to zero.

        Every key of every row must be one of keys.  There is one basis
        vector per free key, in the order of keys: one at that key, zero
        at the other free keys.  Rows are back-substituted in ascending
        pivot order, so the value of every pivot in a row's tail is known
        before the row is solved.
        """
        field, one = self.field, self.field.one
        # Each pivot's value as a combination of the free keys.
        value = {}
        for pivot in self.pivots():
            val = {}
            for k, c in self.rows[pivot].items():
                if k != pivot:
                    vec_add_into(field, val, value.get(k, {k: one}), -c)
            value[pivot] = val
        basis = []
        for f in keys:
            if f in self.rows:
                continue
            vec = {f: one}
            for pivot, val in value.items():
                c = val.get(f)
                if c:
                    vec[pivot] = c
            basis.append(vec)
        return basis
