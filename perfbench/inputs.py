"""Seeded input generators for the benchmark workloads.

Everything here depends only on the seed passed in and on the public
``leavitt`` API, so the same seed gives the same inputs on every commit.
The generators are kept apart from the test oracles on purpose: a change
to the tests must not silently change what the benchmark measures.
"""


def paths_by_target(graph, degree, family_cap=2):
    """Paths of length at most degree, grouped by target, in a fixed order."""
    table = {}
    for p in graph.all_paths(degree, family_cap):
        table.setdefault(p.target, []).append(p)
    return table


def random_scalar(field, rng):
    """A nonzero scalar; over Q sometimes a proper fraction."""
    num = rng.randint(1, 5) * rng.choice((1, -1))
    if field.characteristic:
        return field.of(rng.randrange(1, field.characteristic))
    if rng.random() < 0.3:
        return field.parse(f"{num}/{rng.randint(2, 4)}")
    return field.of(num)


def random_element(leavitt, graph, field, rng, table, terms):
    """A Cohn element with exactly ``terms`` monomials alpha.beta*."""
    targets = sorted(table)
    if terms > sum(len(paths) ** 2 for paths in table.values()):
        raise ValueError(f"the graph has fewer than {terms} monomials")
    monos = {}
    while len(monos) < terms:
        target = rng.choice(targets)
        mono = (rng.choice(table[target]), rng.choice(table[target]))
        if mono not in monos:
            monos[mono] = random_scalar(field, rng)
    return leavitt.Element(graph, field, monos)


def random_ghost(leavitt, graph, field, rng, words, terms):
    """A ghost element beta_1* c_1 + ... over distinct words."""
    picked = {}
    while len(picked) < terms:
        beta = rng.choice(words)
        if beta not in picked:
            picked[beta] = random_scalar(field, rng)
    return leavitt.ghost_to_element(graph, field, picked)


def _mat_vec(field, mat, vec):
    out = []
    for row in mat:
        acc = field.zero
        for a, b in zip(row, vec):
            acc = acc + a * b
        out.append(acc)
    return tuple(out)


class _DenseEchelon:
    """Dense column echelon with tags, independent of leavitt's kernels."""

    def __init__(self, field):
        self.field = field
        self.rows = {}

    def insert(self, vec, tag):
        """Store vec, or return the tag combination it reduces to zero with."""
        field = self.field
        vec = list(vec)
        tag = dict(tag)
        # Stored rows vanish left of their pivot, so entries already passed
        # stay zero as later rows are subtracted.
        for i in range(len(vec)):
            c = vec[i]
            if not c:
                continue
            row = self.rows.get(i)
            if row is None:
                inv = field.one / c
                self.rows[i] = ([x * inv for x in vec], {k: v * inv for k, v in tag.items()})
                return None
            rvec, rtag = row
            vec = [x - c * y for x, y in zip(vec, rvec)]
            for k, v in rtag.items():
                acc = tag.get(k, field.zero) - c * v
                if acc:
                    tag[k] = acc
                else:
                    tag.pop(k, None)
        return tag


class MatrixIdeal:
    """The annihilator of e_1 in a random cyclic matrix module over GF(p).

    Each ghost letter acts on a ``dim``-dimensional column space by a random
    matrix, resampled until e_1 is cyclic, so the left ideal has codimension
    exactly ``dim``.  Generators are the relations found at every word of
    length at most ``word_bound`` (at least ``dim``) whose image depends on
    the images of the words before it.  They are redundant on purpose, as a
    user's would be, so the staircase build discards candidate rows.
    Membership is decided densely from the matrices, with no staircase.
    """

    def __init__(self, leavitt, graph, field, rng, dim, word_bound):
        self.graph = graph
        self.field = field
        self.dim = dim
        v = graph.vertices[0]
        letters = sorted(graph.out_arrows(v), key=lambda a: a.key)
        p = field.characteristic
        e1 = tuple(field.one if i == 0 else field.zero for i in range(dim))
        words = graph.all_paths(word_bound)
        while True:
            self.mats = {
                a: [[field.of(rng.randrange(p)) for _ in range(dim)] for _ in range(dim)]
                for a in letters
            }
            ech = _DenseEchelon(field)
            images = {}
            relations = []
            for beta in words:
                if beta.is_vertex:
                    img = e1
                else:
                    img = _mat_vec(field, self.mats[beta.arrows[-1]], images[beta.drop_last()])
                images[beta] = img
                combo = ech.insert(img, {beta: field.one})
                if combo is not None:
                    relations.append(combo)
            if len(ech.rows) == dim:
                break
        self.generators = [leavitt.ghost_to_element(graph, field, rel) for rel in relations]

    def image(self, beta):
        vec = tuple(self.field.one if i == 0 else self.field.zero for i in range(self.dim))
        for b in beta.arrows:
            vec = _mat_vec(self.field, self.mats[b], vec)
        return vec

    def member(self, leavitt, element):
        acc = [self.field.zero] * self.dim
        for beta, coeff in leavitt.element_to_ghost(element).items():
            for i, x in enumerate(self.image(beta)):
                acc[i] = acc[i] + coeff * x
        return not any(acc)

    def multiple(self, leavitt, rng, degree):
        """A certified member: a random combination of ghost left multiples
        gamma* g of two generators, every word of length at most degree."""
        field = self.field
        vec = {}
        for _ in range(2):
            gen = leavitt.element_to_ghost(rng.choice(self.generators))
            room = degree - max(len(beta) for beta in gen)
            length = rng.randint(0, room)
            gamma = self.graph.vertices[0]
            word = leavitt.Path.vertex(gamma)
            for _ in range(length):
                word = word.concat(rng.choice(self.graph.out_arrows(gamma)))
            scalar = random_scalar(field, rng)
            for beta, coeff in gen.items():
                key = beta.concat(word)
                acc = vec.get(key, field.zero) + scalar * coeff
                if acc:
                    vec[key] = acc
                else:
                    vec.pop(key, None)
        return leavitt.ghost_to_element(self.graph, field, vec)


def random_rewrite_normal_form(leavitt, element, rng):
    """Leavitt normal form by firing one random redex at a time.

    A monomial alpha.beta* is a redex when both sides end in the special
    arrow g of a regular vertex; it is replaced through the summation
    relation by alpha'.beta'* minus the terms ending in the other arrows.
    The order differs from the library's stack discipline, and confluence
    makes the answer the same.
    """
    graph, field = element.graph, element.field
    terms = dict(element.terms)

    def redex(mono):
        alpha, beta = mono
        if not alpha.arrows or not beta.arrows:
            return False
        g = alpha.arrows[-1]
        return (
            beta.arrows[-1] == g
            and graph.is_regular(g.source)
            and graph.special_arrow(g.source) == g
        )

    def bump(mono, coeff):
        acc = terms.get(mono, field.zero) + coeff
        if acc:
            terms[mono] = acc
        else:
            terms.pop(mono, None)

    while True:
        redexes = sorted((m for m in terms if redex(m)), key=lambda m: (m[0].key, m[1].key))
        if not redexes:
            return leavitt.Element(graph, field, terms)
        alpha, beta = redexes[rng.randrange(len(redexes))]
        coeff = terms.pop((alpha, beta))
        g = alpha.arrows[-1]
        a0, b0 = alpha.drop_last(), beta.drop_last()
        bump((a0, b0), coeff)
        for e in graph.out_arrows(g.source):
            if e != g:
                bump((a0.concat(e), b0.concat(e)), -coeff)
