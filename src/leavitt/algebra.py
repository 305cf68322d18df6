"""Arithmetic in Cohn and Leavitt path algebras.

Elements are K-linear combinations of monomials alpha.beta* where alpha and
beta are finite paths with a common target.  Multiplication uses only the
ghost-kills-real relation, so elements live in the Cohn algebra of the
graph; normal_form additionally rewrites with the summation relation at
regular vertices and lands in the canonical Leavitt basis.

Products and normal forms compute on ints: each operand's coefficients are
encoded once, through the field's native, as integer numerators over the
lcm of their denominators over Q and as residues over GF(p).  So a float
or another field's scalar among the coefficients raises TypeError there.
A product hands its ints and denominator to normal_form, or to a further
product, as they are, and decodes them into field scalars only when its
terms are first read; normal_form decodes its result at once.  The parser
reads each word in one pass, letter by letter into the two paths of one
monomial, so reading an expression makes no products at all.
"""

import re
from fractions import Fraction
from math import lcm

from .digraph import Path, path_sort_key
from .errors import ParseError, PreconditionError
from .fields import add_into, signed_sum
from .linalg import decode


class Element:
    """A linear combination of monomials (alpha, beta) meaning alpha.beta*."""

    __slots__ = ("graph", "field", "_terms", "_native")

    def __init__(self, graph, field, terms=None):
        self.graph = graph
        self.field = field
        self._native = None
        self._terms = clean = {}
        if terms:
            for mono, coeff in terms.items():
                self._check_mono(mono)
                if coeff:
                    clean[mono] = coeff

    @staticmethod
    def _trusted(graph, field, terms, native=None):
        # An element over a terms dict the caller knows is clean: every
        # monomial's parts share a target and no coefficient is zero.  The
        # dict is kept, not copied.  A product passes terms=None and its
        # native form instead, (int terms, denominator), equally clean.
        element = object.__new__(Element)
        element.graph = graph
        element.field = field
        element._terms = terms
        element._native = native
        return element

    @property
    def terms(self):
        """The monomials and their nonzero field scalars, as a dict.

        A product computes on ints and decodes them here, on the first read.
        """
        terms = self._terms
        if terms is None:
            terms = self._terms = _scalars(self.field, *self._native)
            self._native = None
        return terms

    def _check_mono(self, mono):
        alpha, beta = mono
        if alpha.target != beta.target:
            raise PreconditionError(
                f"monomial parts {alpha} and {beta} do not share a target"
            )

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(graph, field):
        return Element(graph, field)

    @staticmethod
    def vertex(graph, field, v):
        p = Path.vertex(v)
        return Element(graph, field, {(p, p): field.one})

    @staticmethod
    def real(graph, field, path):
        return Element(graph, field, {(path, Path.vertex(path.target)): field.one})

    @staticmethod
    def ghost(graph, field, path):
        return Element(graph, field, {(Path.vertex(path.target), path): field.one})

    @staticmethod
    def unit(graph, field):
        """The sum of all vertex idempotents."""
        vertices = map(Path.vertex, graph.vertices)
        return Element(graph, field, {(p, p): field.one for p in vertices})

    # -- linear structure ----------------------------------------------

    def _compatible(self, other):
        if self.graph is not other.graph or self.field != other.field:
            raise PreconditionError("elements live over different graphs or fields")

    def __add__(self, other):
        self._compatible(other)
        terms = add_into(self.field, dict(self.terms), other.terms, self.field.one)
        return Element._trusted(self.graph, self.field, terms)

    def __neg__(self):
        return Element._trusted(
            self.graph, self.field, {m: -c for m, c in self.terms.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        scalar = self.field.of(scalar)
        if not scalar:
            return Element.zero(self.graph, self.field)
        return Element._trusted(
            self.graph, self.field, {m: c * scalar for m, c in self.terms.items()}
        )

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return (
            self.graph is other.graph
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    @property
    def is_zero(self):
        return not self.terms

    # -- multiplication -------------------------------------------------

    def __mul__(self, other):
        # (a1.b1*)(a2.b2*) survives only when b1 and a2 are prefix-comparable,
        # so the right factor's real parts go into a trie and each left term
        # meets only the right terms its ghost part can compose with, visited
        # in the right factor's term order.
        self._compatible(other)
        field = self.field
        p = field.characteristic
        left, d1 = _numerators(self)
        right, d2 = _numerators(other)
        roots = _prefix_trie(right)
        terms = {}
        for (a1, b1), n1 in left:
            for j in _comparable(roots, b1):
                (a2, b2), n2 = right[j]
                mono = _mono_product(a1, b1, a2, b2)
                acc = terms.get(mono, 0) + n1 * n2
                if p:
                    acc %= p
                if acc:
                    terms[mono] = acc
                else:
                    terms.pop(mono, None)
        return Element._trusted(self.graph, field, None, (terms, d1 * d2))

    def involution(self):
        """The K-linear anti-automorphism swapping real and ghost parts."""
        return Element._trusted(
            self.graph, self.field, {(b, a): c for (a, b), c in self.terms.items()}
        )

    # -- grading ----------------------------------------------------------

    def degree_components(self):
        """Split into homogeneous parts by len(alpha) - len(beta)."""
        parts = {}
        for (a, b), c in self.terms.items():
            d = len(a) - len(b)
            parts.setdefault(d, {})[(a, b)] = c
        return {
            d: Element._trusted(self.graph, self.field, terms)
            for d, terms in parts.items()
        }

    # -- printing ----------------------------------------------------------

    def __str__(self):
        keyed = sorted(self.terms.items(), key=lambda item: _mono_sort_key(item[0]))
        return signed_sum((coeff, mono_str(mono)) for mono, coeff in keyed)

    def __repr__(self):
        return f"Element({self})"


def _numerators(element):
    """The element's coefficients as ints over one denominator d.

    Returns the (monomial, n) pairs in term order, each coefficient being
    n / d, and d.  A product whose terms were never read returns the ints
    it was computed in.  Otherwise, over Q, d is the lcm of the
    denominators; over GF(p) the ints are residues and d is 1.
    field.native keeps the same-field contract: a float or a scalar of
    another field raises.
    """
    native = element._native
    if native is not None:
        terms, d = native
        return list(terms.items()), d
    terms = element._terms
    nums = list(map(element.field.native, terms.values()))
    d = lcm(*[n.denominator for n in nums])
    if d != 1:
        nums = [n.numerator * (d // n.denominator) for n in nums]
    return list(zip(terms, nums)), d


def _scalars(field, terms, d):
    """terms with each int n made the field scalar n / d."""
    if d == 1:
        return decode(field, terms)
    return {mono: Fraction(n, d) for mono, n in terms.items()}


def _mono_product(a1, b1, a2, b2):
    """(a1.b1*)(a2.b2*) for b1 and a2 prefix-comparable, as _comparable pairs them.

    The shorter cancels the start of the longer, whose rest joins a1 or b2.
    """
    n, m = len(b1.arrows), len(a2.arrows)
    if n <= m:
        return (Path._trusted(a1.source, a2.target, a1.arrows + a2.arrows[n:]), b2)
    return (a1, Path._trusted(b2.source, b1.target, b2.arrows + b1.arrows[m:]))


def _prefix_trie(terms):
    """Index the real parts of (mono, coeff) pairs by their arrows.

    There is one root per base vertex and one level per arrow.  A node is a
    triple (children by arrow, indices of the real parts ending here,
    indices of the real parts passing through or ending here); both index
    lists are ascending.
    """
    roots = {}
    for j, ((alpha, _), _) in enumerate(terms):
        node = roots.get(alpha.source)
        if node is None:
            node = roots[alpha.source] = ({}, [], [])
        node[2].append(j)
        for arrow in alpha.arrows:
            children = node[0]
            node = children.get(arrow)
            if node is None:
                node = children[arrow] = ({}, [], [])
            node[2].append(j)
        node[1].append(j)
    return roots


def _comparable(roots, beta):
    """Ascending indices of the real parts that are prefix-comparable with beta.

    Walking beta down the trie, the real parts ending at a node passed on
    the way are proper prefixes of beta, and those in the subtree at the
    end node extend or equal it.
    """
    node = roots.get(beta.source)
    if node is None:
        return ()
    shorter = []
    for arrow in beta.arrows:
        shorter += node[1]
        node = node[0].get(arrow)
        if node is None:
            return sorted(shorter)
    if shorter:
        return sorted(shorter + node[2])
    return node[2]


def _mono_sort_key(mono):
    alpha, beta = mono
    return (
        len(alpha) + len(beta),
        len(alpha),
        path_sort_key(alpha),
        path_sort_key(beta),
    )


def mono_str(mono):
    alpha, beta = mono
    pieces = [str(a) for a in alpha.arrows]
    pieces += [f"{a}*" for a in reversed(beta.arrows)]
    if not pieces:
        return alpha.source
    return ".".join(pieces)


# -- the Leavitt normal form ------------------------------------------------


def _redex(graph, alpha, beta):
    """The summation arrows at the vertex where (alpha, beta) reduces, if any.

    A monomial is reducible when both sides end in the special arrow of a
    common regular vertex; the arrows come special arrow first.
    """
    if not alpha.arrows or not beta.arrows:
        return None
    g = alpha.arrows[-1]
    if beta.arrows[-1] is not g:
        return None
    out = graph.summation_arrows(g.source)
    if out is None or out[0] is not g:
        return None
    return out


def normal_form(element):
    """Rewrite into the canonical Leavitt basis.

    A monomial reduces exactly when both of its sides end in the special
    arrow of a common regular vertex; the summation relation at that vertex
    trades it for one shorter monomial plus monomials ending in the other
    arrows, none of which is reducible at that spot.
    """
    graph, field = element.graph, element.field
    p = field.characteristic
    # The rewrite only adds and negates, so one denominator serves throughout.
    work, d = _numerators(element)
    out = {}
    while work:
        mono, n = work.pop()
        arrows = _redex(graph, *mono)
        if arrows is None:
            acc = out.get(mono, 0) + n
            if p:
                acc %= p
            if acc:
                out[mono] = acc
            else:
                out.pop(mono, None)
            continue
        alpha, beta = mono
        a0, b0 = alpha.drop_last(), beta.drop_last()
        work.append(((a0, b0), n))
        special = arrows[0]
        for e in arrows:
            if e is not special:
                work.append(((a0.concat(e), b0.concat(e)), -n))
    return Element._trusted(graph, field, _scalars(field, out, d))


def is_normal_form(element):
    return all(
        _redex(element.graph, a, b) is None for (a, b) in element.terms
    )


def equals_leavitt(x, y):
    """Equality in the Leavitt path algebra."""
    return normal_form(x - y).is_zero


def equals_cohn(x, y):
    """Equality in the Cohn algebra: no summation relation applied."""
    return x == y


# -- element expressions -----------------------------------------------------

_TOKEN = re.compile(
    r"(?P<num>\d+(?:/\d+)?)|(?P<id>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[\[\]\.\*\+\-])|(?P<bad>\S)"
)


def _tokenize(text):
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"bad character in expression at {text[m.start():]!r}")
        tokens.append((kind, m[0]))
    return tokens


class _ExprParser:
    """Sums of optionally signed, optionally weighted generator words.

    Grammar:  expr   := term (('+' | '-') term)*
              term   := coeff | coeff word | word
              word   := factor ('.' factor)*
              factor := id | id '[' num ']' | factor '*'
    A bare coefficient means that multiple of the identity, the sum of all
    vertex idempotents.  Words multiply in the Cohn algebra, so mixed real
    and ghost letters simplify as they are read: a word folds into one
    monomial, or vanishes.
    """

    def __init__(self, graph, field, tokens):
        self.graph = graph
        self.field = field
        # The end marker (None, None) is peeked at, and taken only by a
        # read that then fails.
        self.tokens = [*tokens, (None, None)]
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self):
        # Terms accumulate into one dict; adding Elements would copy the sum
        # and recheck every monomial at each term.
        one = self.field.one
        terms = {}
        sign = one
        if self.peek() in (("op", "+"), ("op", "-")):
            sign = -one if self.take()[1] == "-" else one
        while True:
            monos, coeff = self.term()
            add_into(self.field, terms, dict.fromkeys(monos, coeff), sign)
            if self.peek()[0] is None:
                return Element._trusted(self.graph, self.field, terms)
            kind, val = self.take()
            if kind != "op" or val not in "+-":
                raise ParseError(f"expected + or - before {val!r}")
            sign = -one if val == "-" else one

    def term(self):
        """One summand, as its monomials and the coefficient weighting them."""
        kind, val = self.peek()
        coeff = self.field.one
        if kind == "num":
            self.take()
            coeff = self.field.parse(val)
            kind, val = self.peek()
            if kind != "id":
                return Element.unit(self.graph, self.field).terms, coeff
        if kind != "id":
            raise ParseError(f"expected a generator name, found {val!r}")
        mono = self.word()
        return () if mono is None else (mono,), coeff

    def word(self):
        """The word's letters multiplied as one monomial, or None if it vanishes.

        The letters fold left to right into alpha.beta*: a real letter
        extends alpha, or, when beta is not empty, cancels beta's first
        arrow or kills the word; a ghost letter extends beta at its start;
        a vertex letter only checks the junction.  A dead word's remaining
        letters are still read.
        """
        source = end = None  # alpha's source, and the vertex alpha.beta* ends at
        alpha, ghosts = [], []  # ghosts holds beta's arrows, last first
        live = True
        while True:
            letter, starred = self.factor()
            if not live:
                pass
            elif starred is False and ghosts:
                # e*.e = r(e) and e*.f = 0
                live = ghosts.pop() is letter
                end = letter.target
            else:
                if starred is None:
                    head = tail = letter
                elif starred:
                    head, tail = letter.target, letter.source
                    ghosts.append(letter)
                else:
                    head, tail = letter.source, letter.target
                    alpha.append(letter)
                if end is None:
                    source = end = head
                live = end == head
                end = tail
            if self.peek() != ("op", "."):
                break
            self.take()
        if not live:
            return None
        target = alpha[-1].target if alpha else source
        return (
            Path._trusted(source, target, tuple(alpha)),
            Path._trusted(end, target, tuple(reversed(ghosts))),
        )

    def factor(self):
        """One letter: (vertex name, None), or (arrow, whether starred)."""
        kind, name = self.take()
        if kind != "id":
            raise ParseError(f"expected a generator name, found {name!r}")
        index = None
        if self.peek() == ("op", "["):
            self.take()
            k, num = self.take()
            if k != "num" or "/" in num:
                raise ParseError("family index must be a plain integer")
            index = int(num)
            if self.take() != ("op", "]"):
                raise ParseError("unclosed family index")
        starred = False
        while self.peek() == ("op", "*"):
            self.take()
            starred = not starred
        if index is None and self.graph.has_vertex(name):
            # Vertex idempotents are fixed by the involution, so the star
            # is accepted and ignored.
            return name, None
        try:
            return self.graph.arrow(name, index), starred
        except PreconditionError as exc:
            raise ParseError(str(exc)) from exc


def parse_element(graph, field, text):
    """Evaluate an element expression in the Cohn algebra of the graph."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty element expression")
    return _ExprParser(graph, field, tokens).parse()
