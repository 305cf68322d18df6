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
reads one summand per match of a regular expression, whose letters are the
digraph module's LETTER, and folds each word letter by letter into the two
paths of one monomial, so reading an expression makes no products at all.
"""

import re
from fractions import Fraction
from math import lcm

from .digraph import LETTER, Path, path_sort_key, read_letter
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

# A letter of a word: LETTER and a run of stars, each toggling the ghost.
_LETTER = re.compile(rf"{LETTER.pattern}((?:\s*\*)*)")
# One summand: a sign, which only the first summand may leave out, an
# optional coefficient and an optional word of letters joined by dots.
_TERM = re.compile(
    r"\s*(?P<sign>[+-]?)\s*(?P<coeff>[0-9]+(?:/[0-9]+)?)?\s*"
    rf"(?P<word>{_LETTER.pattern}(?:\s*\.\s*{_LETTER.pattern})*)?\s*"
)


def _word(letters):
    """The word's letters multiplied as one monomial, or None if it vanishes.

    letters holds (vertex name or arrow, whether starred) pairs.  They fold
    left to right into alpha.beta*: a real letter extends alpha, or, when
    beta is not empty, cancels beta's first arrow or kills the word; a ghost
    letter extends beta at its start; a vertex letter only checks the
    junction.  The caller reads every letter before the fold, so a letter
    that names nothing fails even after the word dies.
    """
    source = end = None  # alpha's source, and the vertex alpha.beta* ends at
    alpha, ghosts = [], []  # ghosts holds beta's arrows, last first
    for letter, starred in letters:
        if letter.__class__ is str:
            head = tail = letter
        elif not starred and ghosts:
            # e*.e = r(e) and e*.f = 0
            if ghosts.pop() is not letter:
                return None
            end = letter.target
            continue
        elif starred:
            head, tail = letter.target, letter.source
            ghosts.append(letter)
        else:
            head, tail = letter.source, letter.target
            alpha.append(letter)
        if end is None:
            source = head
        elif end != head:
            return None
        end = tail
    target = alpha[-1].target if alpha else source
    return (
        Path._trusted(source, target, tuple(alpha)),
        Path._trusted(end, target, tuple(reversed(ghosts))),
    )


def parse_element(graph, field, text):
    """Evaluate an element expression in the Cohn algebra of the graph.

    Grammar:  expr   := ['+' | '-'] term (('+' | '-') term)*
              term   := coeff | coeff word | word
              word   := letter ('.' letter)*
              letter := name ['[' digits ']'] '*'*
    with whitespace allowed around each sign, coefficient, '.', '*', '['
    and ']', and nowhere else.  A bare coefficient means that multiple of
    the identity, the sum of all vertex idempotents.  A vertex letter
    ignores its stars, since vertex idempotents are fixed by the
    involution.  Words multiply in the Cohn algebra, so a word folds into
    one monomial, or vanishes; every letter is read all the same.
    """
    one = field.one
    # Terms accumulate into one dict; adding Elements would copy the sum
    # and recheck every monomial at each term.
    terms = {}
    pos = 0
    while True:
        m = _TERM.match(text, pos)
        if (pos and not m["sign"]) or not (m["coeff"] or m["word"]):
            raise ParseError(f"cannot read a term at {text[pos:]!r}")
        coeff = one if m["coeff"] is None else field.parse(m["coeff"])
        if m["word"] is None:
            monos = Element.unit(graph, field).terms
        else:
            mono = _word([
                (read_letter(graph, name, index or None), stars.count("*") % 2)
                for name, index, stars in _LETTER.findall(text, *m.span("word"))
            ])
            monos = () if mono is None else (mono,)
        add_into(field, terms, dict.fromkeys(monos, coeff), -one if m["sign"] == "-" else one)
        pos = m.end()
        if pos == len(text):
            return Element._trusted(graph, field, terms)
