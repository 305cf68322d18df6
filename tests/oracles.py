"""Independent checkers the tests compare the library against.

Everything here recomputes results from first principles with different
data structures and different pivoting or traversal orders than the
library uses, so an agreement between the two is evidence rather than
an echo.
"""

import random
from fractions import Fraction
from types import SimpleNamespace

from leavitt.algebra import Element
from leavitt.digraph import Path, ghost_sort_key
from leavitt.division import AlgebraElement
from leavitt.linalg import SpanEchelon, add_native, decode, encode
from leavitt.probes import prefix_ops, staircase_ops
from leavitt.representations import substitute
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


# -- module closures ---------------------------------------------------------------


def dense_closure(space, seeds, window):
    """The DenseSpan and overflow flag of the windowed closure of seeds.

    The walk uses only the module's vector actions, vertex_apply,
    arrow_apply and ghost_apply, over the field's own scalars, and a
    DenseSpan for independence.  Each vector that raises the rank is
    walked once, by every vertex, then every arrow, then every ghost
    arrow.  An action overflows a vector when it sends one of the
    vector's labels past the window: the image is dropped and the
    closure flagged.
    """
    one = space.field.one
    arrows = space.active_arrows()
    actions = [(space.vertex_apply, v) for v in sorted(space.graph.vertices)]
    actions += [(space.arrow_apply, a) for a in arrows]
    actions += [(space.ghost_apply, a) for a in arrows]
    span = DenseSpan(space.field)
    queue = [dict(seed) for seed in seeds if span.insert(seed)]
    overflowed = False
    while queue:
        vec = queue.pop(0)
        for act, arg in actions:
            images = [act(arg, {lab: one}) for lab in vec]
            if any(space.degree(lab) > window for img in images for lab in img):
                overflowed = True
                continue
            img = act(arg, vec)
            if span.insert(img):
                queue.append(img)
    return span, overflowed


def walk_every_op(mod):
    """mod with its pruning dropped: every row walks every operator.

    Closures and the commutant solve then apply the vertices after every
    operator, the ghosts after arrows too, and the arrows to rows at the
    window's top degree, and do not lean on v.(a.x) = δ(v,s(a)) a.x or
    e*f = δ(e,f) r(f): the reference that the pruned walks are compared
    against.
    """
    mod.ops_after = lambda made_by: mod.ops
    mod.top_overflows = None
    return mod


def unpruned_ops(space, window):
    """prefix_ops, walking every operator on every row."""
    return walk_every_op(prefix_ops(space, window))


def unpruned_staircase_ops(staircase):
    """staircase_ops, walking every operator on every row."""
    return walk_every_op(staircase_ops(staircase))


def long_way(mod):
    """mod with the short ways of its walk steps taken out.

    apply adds every label's image into a fresh dict with add_native, the
    one-label rows included, and every row walks the operators that
    ops_after lists for it, arrows on rows at the window's top degree
    included.  The pruning by the relations stays.
    """
    p = mod.field.characteristic

    def apply(fn, vec):
        out = {}
        for label, coeff in vec.items():
            img = fn(label)
            if img is None:
                return None
            add_native(out, img, coeff, p)
        return out

    mod.apply = apply
    mod.top_overflows = None
    return mod


def eager_endomorphism(mod, variables):
    """The commutant solve of endomorphism_probe with every symbolic image
    built as its row is, and the report's fields as a dict.

    Each row keeps the images of every variable's label under its word
    from the start, as the rows are walked in breadth first order over
    mod.ops_after, and each dependent image gives the equations read off
    its relation.  The basis is the kernel of the equations; the table
    composes the basis images through the rows' symbolic images.
    """
    field = mod.field
    p = field.characteristic
    rows = [encode(field, mod.generator)]
    syms = [{v: {v: 1} for v in variables}]
    ech = SpanEchelon(field, mod.sort_key)
    ech.insert(rows[0], {0: 1})
    constraints = SpanEchelon(field, {v: i for i, v in enumerate(variables)}.__getitem__)
    equations, overflowed = 0, False
    queue = [(0, None)]
    while queue:
        i, made_by = queue.pop(0)
        for name, fn in mod.ops_after(made_by):
            img = mod.apply(fn, rows[i])
            if img is None:
                overflowed = True
                continue
            sym_img = None
            if syms[i] is not None:
                sym_img = {}
                for var, vec in syms[i].items():
                    out = mod.apply(fn, vec)
                    if out is None:
                        sym_img = None
                        break
                    if out:
                        sym_img[var] = out
            rel = ech.relation(img, len(rows))
            if rel is None:
                queue.append((len(rows), name))
                rows.append(img)
                syms.append(sym_img)
                continue
            syms_of = [*syms, sym_img]
            if any(syms_of[j] is None for j in rel):
                continue
            eqs = {}
            for j, c in rel.items():
                for var, vec in syms_of[j].items():
                    for lab, v in vec.items():
                        add_native(eqs.setdefault(lab, {}), {var: v}, c, p)
            for eq in eqs.values():
                if eq:
                    equations += 1
                    constraints.insert(eq)
    basis = constraints.kernel(variables)
    free_vars = [v for v in variables if v not in constraints.rows]

    def coords(vec):
        got = tuple(vec.get(f, 0) for f in free_vars)
        check = dict(vec)
        for c, b in zip(got, basis):
            add_native(check, b, -c, p)
        return None if check else tuple(map(field.scalar, got))

    table = None
    if 0 < len(basis) <= 16:
        table = {}
        for j, zj in enumerate(basis):
            rem, combo = ech.reduce(zj)
            usable = not rem and all(syms[k] is not None for k in combo)
            for i, zi in enumerate(basis):
                image = {}
                for k, c in combo.items() if usable else ():
                    for var, vec in syms[k].items():
                        add_native(image, vec, c * zi.get(var, 0), p)
                table[(i, j)] = coords(image) if usable else None
    return {
        "dimension": len(basis),
        "basis": [decode(field, z) for z in basis],
        "table": table,
        "unit_coords": coords(rows[0]),
        "equations": equations,
        "independent": constraints.rank,
        "overflowed": overflowed,
    }


def guarded_arrow_image(space, arrow, label, window):
    """An arrow table's entry for label, built the long way.

    The prepend is rewritten to its class by canonical_into, whether or not
    the module identifies a label, and dropped as None when a label of the
    class has degree above the window; a zero image is {}.
    """
    mu, slot = label
    if arrow.target != mu.source:
        return {}
    img = space.canonical_into({}, mu.prepend(arrow), slot, 1)
    if img and max(space.degree(lab) for lab in img) > window:
        return None
    return img


def sorted_exhausts_degree(space, pivots, window):
    """The last degree whose labels all lie among pivots, or window if all do.

    The labels of degree at most window are sorted by degree and scanned
    up to the first one that is not a pivot.
    """
    for lab in sorted(space.labels(window), key=space.degree):
        if lab not in pivots:
            return space.degree(lab) - 1
    return window


# -- structure algebras by their elements -------------------------------------------


def element_refusal(field, labels, unit_label, table):
    """What the unit and associativity checks of a structure algebra refuse,
    checked on products of AlgebraElement basis elements.

    table maps every pair of labels to a vector of field scalars over the
    labels.  The unit is checked on the left and then on the right of each
    label in turn, and then (k1 k2) k3 = k1 (k2 k3) on every triple in the
    order of labels.  The first failure's message is returned, or None
    when the table passes both checks.
    """
    products = SimpleNamespace(field=field, table=table)

    def basis(label):
        return AlgebraElement(products, {label: field.one})

    one = basis(unit_label)
    for k in labels:
        if one * basis(k) != basis(k):
            return f"unit fails on the left of {k}"
        if basis(k) * one != basis(k):
            return f"unit fails on the right of {k}"
    for k1 in labels:
        for k2 in labels:
            for k3 in labels:
                if (basis(k1) * basis(k2)) * basis(k3) != basis(k1) * (basis(k2) * basis(k3)):
                    return f"associativity fails on ({k1}, {k2}, {k3})"
    return None


# -- pairwise Cohn products ------------------------------------------------------


def _cohn_mono_product(a1, b1, a2, b2):
    """(a1.b1*)(a2.b2*) by comparing arrow tuples, or None when it vanishes."""
    n, m = len(b1), len(a2)
    if a2.source == b1.source and a2.arrows[:n] == b1.arrows:
        return (Path(a1.source, a2.target, a1.arrows + a2.arrows[n:]), b2)
    if b1.source == a2.source and b1.arrows[:m] == a2.arrows:
        return (a1, Path(b2.source, b1.target, b2.arrows + b1.arrows[m:]))
    return None


def cohn_product_pairwise(x, y):
    """x*y in the Cohn algebra, trying every pair of monomials in term order."""
    terms = {}
    for (a1, b1), c1 in x.terms.items():
        for (a2, b2), c2 in y.terms.items():
            mono = _cohn_mono_product(a1, b1, a2, b2)
            if mono is not None:
                _bump(x.field, terms, mono, c1 * c2)
    return Element(x.graph, x.field, terms)


def prefix_comparable_pairs(x, y):
    """How many monomial pairs of x*y compose, that is, do not vanish."""
    return sum(
        _cohn_mono_product(a1, b1, a2, b2) is not None
        for (a1, b1) in x.terms
        for (a2, b2) in y.terms
    )


# -- letter-by-letter words ------------------------------------------------------


def word_by_letters(graph, field, word):
    """The element a word spells, multiplying one letter monomial at a time.

    A vertex letter v is (v, v), a real letter e is (e, r(e)) and a ghost
    letter e* is (r(e), e); each '*' toggles the star, and vertices ignore
    it.  The running monomial is multiplied by each letter in turn, and
    once it vanishes the rest of the word is still read.
    """
    mono, dead = None, False
    for letter in word.split("."):
        name = letter.strip().rstrip("*")
        stars = letter.strip().count("*")
        index = None
        if name.endswith("]"):
            name, _, num = name[:-1].partition("[")
            index = int(num)
        if index is None and graph.has_vertex(name):
            p = Path.vertex(name)
            right = (p, p)
        else:
            arrow = graph.arrow(name, index)
            path, end = Path(arrow.source, arrow.target, [arrow]), Path.vertex(arrow.target)
            right = (end, path) if stars % 2 else (path, end)
        if not dead:
            mono = right if mono is None else _cohn_mono_product(*mono, *right)
            dead = mono is None
    return Element(graph, field, {} if dead else {mono: field.one})


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


# -- period substitution by splitting every path ------------------------------------


def split_presentation(graph, field, periods, images, degree, family_cap=2):
    """The Mantese–Rangaswamy presentation read off every path up to degree.

    Each path is split greedily into whole periods and the rest; it is kept
    when it starts at the periods' vertex and the rest is a proper head of
    a period.  A kept path with no rest is a period product, its image the
    substitution of its ghost word with each period's image on its first
    arrow and 1 on the others.  The kernel relations come from the
    products in staircase order; the excluded paths are the vertices and
    the paths that are not kept but whose last arrow cut off is; the coset
    is the kept paths whose period product is independent.  Returns
    (generators, coset, metadata) as mantese_rangaswamy_presentation does.
    """
    v = periods[0].source
    algebra = images[0].algebra
    by_first = {delta.arrows[0]: delta for delta in periods}
    arrow_images = {}
    for delta, x in zip(periods, images):
        arrow_images.update(dict.fromkeys(delta.arrows, algebra.one))
        arrow_images[delta.arrows[0]] = x
    rank = {label: i for i, label in enumerate(algebra.labels)}
    ech = SpanEchelon(field, rank.get)
    kept, independent, kernel, excluded, coset = set(), set(), [], [], []
    for p in sorted(graph.all_paths(degree, family_cap), key=ghost_sort_key):
        arrows, i = p.arrows, 0
        while i < len(arrows) and arrows[i] in by_first:
            delta = by_first[arrows[i]]
            if arrows[i : i + len(delta)] != delta.arrows:
                break
            i += len(delta)
        rest = arrows[i:]
        head = not rest or (
            rest[0] in by_first and by_first[rest[0]].arrows[: len(rest)] == rest
        )
        if p.source != v or not head:
            if p.is_vertex or p.drop_last() in kept:
                excluded.append(ghost_to_element(graph, field, {p: field.one}))
            continue
        kept.add(p)
        if not rest:
            word = ghost_to_element(graph, field, {p: field.one})
            image = substitute(word, arrow_images, algebra)
            rel = ech.relation(encode(field, image.coords), p)
            if rel is None:
                independent.add(arrows)
            else:
                kernel.append(ghost_to_element(graph, field, decode(field, rel)))
        if arrows[:i] in independent:
            coset.append(p)
    metadata = {
        "kind": "mantese_rangaswamy",
        "vertex": v,
        "periods": [str(p) for p in periods],
        "hilbert": all(len(p) == 1 for p in periods),
        "degree": degree,
        "substitution_kernel_rows": len(kernel),
        "independent_products": len(independent),
    }
    return kernel + excluded, coset, metadata
