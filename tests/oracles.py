"""Independent checkers the tests compare the library against.

Everything here recomputes results from first principles with different
data structures and different pivoting or traversal orders than the
library uses, so an agreement between the two is evidence rather than
an echo.
"""

import random
from fractions import Fraction

from leavitt.algebra import Element
from leavitt.digraph import Path
from leavitt.schreier import element_to_ghost, ghost_to_element


# -- dense span membership -------------------------------------------------------


class DenseSpan:
    """Gaussian elimination over a fixed column enumeration.

    Columns are indexed by first sight and rows pivot on their smallest
    column, the opposite choices from the library's echelon, which pivots
    on the largest monomial under the staircase order.
    """

    def __init__(self, field):
        self.field = field
        self.columns = {}
        self.rows = {}

    def _col(self, key):
        if key not in self.columns:
            self.columns[key] = len(self.columns)
        return self.columns[key]

    def _reduce_cols(self, cols):
        while True:
            hit = None
            for c in cols:
                if c in self.rows and (hit is None or c < hit):
                    hit = c
            if hit is None:
                return cols
            coeff = cols.pop(hit)
            for c2, v2 in self.rows[hit].items():
                if c2 == hit:
                    continue
                acc = cols.get(c2, self.field.zero) - coeff * v2
                if acc:
                    cols[c2] = acc
                else:
                    cols.pop(c2, None)

    def insert(self, vec):
        cols = self._reduce_cols({self._col(k): c for k, c in vec.items() if c})
        if not cols:
            return False
        pivot = min(cols)
        lead = cols[pivot]
        self.rows[pivot] = {c: v / lead for c, v in cols.items()}
        return True

    def member(self, vec):
        cols = {}
        for k, c in vec.items():
            if not c:
                continue
            if k not in self.columns:
                return False
            cols[self.columns[k]] = c
        return not self._reduce_cols(cols)

    @property
    def rank(self):
        return len(self.rows)


def dense_ghost_span(graph, field, generators, degree, family_cap=2):
    """Span of the left multiples of ghost generators, up to total degree.

    Left multiplication by a ghost word appends its real path to the right
    of every key, so the multiples of a generator are its extensions by
    the paths leaving its target vertices.
    """
    span = DenseSpan(field)
    for gen in generators:
        vec = element_to_ghost(gen) if isinstance(gen, Element) else dict(gen)
        vec = {k: c for k, c in vec.items() if c}
        if not vec:
            continue
        budget = degree - max(len(beta) for beta in vec)
        if budget < 0:
            continue
        for u in graph.all_paths(budget, family_cap):
            row = {}
            for beta, coeff in vec.items():
                if beta.target != u.source:
                    continue
                key = beta if u.is_vertex else beta.concat(u)
                row[key] = row.get(key, field.zero) + coeff
            row = {k: c for k, c in row.items() if c}
            if row:
                span.insert(row)
    return span


# -- randomized rewriting --------------------------------------------------------


def _least_out_arrow(graph, v):
    return min(graph.out_arrows(v), key=lambda a: a.key)


def _is_redex(graph, mono):
    alpha, beta = mono
    if not alpha.arrows or not beta.arrows:
        return False
    g = alpha.arrows[-1]
    if beta.arrows[-1] != g:
        return False
    if graph.classify_vertex(g.source) != "regular":
        return False
    return g == _least_out_arrow(graph, g.source)


def _bump(field, terms, mono, coeff):
    acc = terms.get(mono, field.zero) + coeff
    if acc:
        terms[mono] = acc
    else:
        terms.pop(mono, None)


def random_rewrite_normal_form(element, rng, max_steps=200000):
    """Normal form by firing redexes in random order, one at a time.

    Chooses uniformly among the currently reducible monomials at each
    step, so repeated runs with different seeds exercise different
    rewrite orders than the library's stack discipline.
    """
    graph, field = element.graph, element.field
    terms = {m: c for m, c in element.terms.items() if c}
    for _ in range(max_steps):
        redexes = sorted(
            (m for m in terms if _is_redex(graph, m)),
            key=lambda m: (m[0].key, m[1].key),
        )
        if not redexes:
            return Element(graph, field, terms)
        alpha, beta = redexes[rng.randrange(len(redexes))]
        coeff = terms.pop((alpha, beta))
        g = alpha.arrows[-1]
        a0, b0 = alpha.drop_last(), beta.drop_last()
        _bump(field, terms, (a0, b0), coeff)
        for e in graph.out_arrows(g.source):
            if e != g:
                _bump(field, terms, (a0.concat(e), b0.concat(e)), -coeff)
    raise AssertionError("rewriting did not terminate within the step budget")


# -- random elements -------------------------------------------------------------


def paths_by_target(graph, degree, family_cap=2):
    table = {}
    for p in graph.all_paths(degree, family_cap):
        table.setdefault(p.target, []).append(p)
    return table


def random_scalar(field, rng, zero_ok=False):
    lo = 0 if zero_ok else 1
    num = rng.randint(lo, 5) * rng.choice((1, -1))
    if field.characteristic == 0 and rng.random() < 0.3:
        return field.of(Fraction(num, rng.randint(1, 4)))
    return field.of(num)


def random_element(graph, field, rng, degree, terms, by_target=None):
    """A random linear combination of monomials alpha.beta*."""
    if by_target is None:
        by_target = paths_by_target(graph, degree)
    out = {}
    for _ in range(terms):
        target = rng.choice(sorted(by_target))
        alpha = rng.choice(by_target[target])
        beta = rng.choice(by_target[target])
        _bump(field, out, (alpha, beta), random_scalar(field, rng))
    return Element(graph, field, out)


def random_ghost_element(graph, field, rng, degree, terms, by_target=None):
    if by_target is None:
        by_target = paths_by_target(graph, degree)
    out = {}
    for _ in range(terms):
        target = rng.choice(sorted(by_target))
        beta = rng.choice(by_target[target])
        _bump(field, out, (Path.vertex(target), beta), random_scalar(field, rng))
    return Element(graph, field, out)


# -- matrix built annihilator ideals ----------------------------------------------


def _mat_vec(field, mat, vec):
    return tuple(
        sum((row[j] * vec[j] for j in range(len(vec))), field.zero)
        for row in mat
    )


def matrix_annihilator(graph, field, rng, dim, word_bound=None):
    """A finite codimension left ideal cut out by a random matrix module.

    Each ghost letter acts on a dim dimensional column space by a random
    matrix; the ideal is the annihilator of the first basis vector.  The
    matrices are resampled until that vector is cyclic, so the codimension
    is exactly dim.  Returns the ideal generators as elements, a dense
    membership function independent of any staircase, and the matrices.
    """
    v = graph.vertices[0]
    letters = sorted(graph.out_arrows(v), key=lambda a: a.key)
    e1 = tuple(field.one if i == 0 else field.zero for i in range(dim))
    if word_bound is None:
        word_bound = dim + 1

    while True:
        mats = {
            a: [
                [field.of(rng.randint(-2, 2)) for _ in range(dim)]
                for _ in range(dim)
            ]
            for a in letters
        }
        span = DenseSpan(field)
        span.insert({i: c for i, c in enumerate(e1) if c})
        frontier = [e1]
        for _ in range(dim - 1):
            nxt = []
            for vec in frontier:
                for a in letters:
                    img = _mat_vec(field, mats[a], vec)
                    if span.insert({i: c for i, c in enumerate(img) if c}):
                        nxt.append(img)
            frontier = nxt
        if span.rank == dim:
            break

    def image(beta):
        vec = e1
        for b in beta.arrows:
            vec = _mat_vec(field, mats[b], vec)
        return vec

    # harvest a kernel relation at every word whose image is dependent on
    # the images of earlier words; tags carry the word combination
    rows = {}
    gens = []
    for beta in graph.all_paths(word_bound):
        cols = {i: c for i, c in enumerate(image(beta)) if c}
        tags = {beta: field.one}
        inserted = False
        while cols:
            piv = min(cols)
            row = rows.get(piv)
            if row is None:
                lead = cols[piv]
                rows[piv] = (
                    {c: vv / lead for c, vv in cols.items()},
                    {w: vv / lead for w, vv in tags.items()},
                )
                inserted = True
                break
            coeff = cols.pop(piv)
            rcols, rtags = row
            for c2, v2 in rcols.items():
                if c2 == piv:
                    continue
                acc = cols.get(c2, field.zero) - coeff * v2
                if acc:
                    cols[c2] = acc
                else:
                    cols.pop(c2, None)
            for w, v2 in rtags.items():
                acc = tags.get(w, field.zero) - coeff * v2
                if acc:
                    tags[w] = acc
                else:
                    tags.pop(w, None)
        if not inserted:
            gens.append(ghost_to_element(graph, field, tags))

    def member(element):
        acc = tuple(field.zero for _ in range(dim))
        for beta, coeff in element_to_ghost(element).items():
            img = image(beta)
            acc = tuple(a + coeff * b for a, b in zip(acc, img))
        return not any(acc)

    return gens, member, mats


# -- brute-force irreducibility over GF(p) -----------------------------------------


def gf_irreducible_brute(field, coeffs):
    """Irreducibility over a small GF(p) by exhaustion.

    Any root gives a linear factor; past degree three, trial division by
    every monic polynomial up to half the degree finds the rest.  The cost
    is p^(deg/2) divisions, so this is only a reference for small p.
    """
    deg = len(coeffs) - 1
    if deg == 1:
        return True
    p = field.characteristic
    for r in range(p):
        acc = field.zero
        for c in reversed(coeffs):
            acc = acc * field.of(r) + c
        if not acc:
            return False
    for d in range(2, deg // 2 + 1):
        for divisor in _monic_polys(field, d):
            if _poly_divides(field, divisor, coeffs):
                return False
    return True


def _monic_polys(field, deg):
    p = field.characteristic
    for code in range(p**deg):
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
