"""Staircase bases for left ideals of the ghost subalgebra.

The ghost subalgebra is spanned by the words beta* over finite paths beta,
vertices included.  A ghost vector is stored as a mapping from the real
path beta to its coefficient; left multiplication by a ghost arrow appends
the arrow to the stored real path.  The monomial order is length first,
then the ghost word letter by letter in product order, and echelon rows
pivot on their largest monomial.  The complement of the pivot set is the
coset basis of the quotient, and it is closed under removing final arrows,
which is what makes the free generator extraction below work.
"""

from .algebra import Element
from .digraph import Path, ghost_sort_key
from .errors import PreconditionError
from .linalg import SpanEchelon, decode, encode


def element_to_ghost(element):
    """Extract the ghost vector from a pure ghost Element."""
    vec = {}
    for (alpha, beta), coeff in element.terms.items():
        if not alpha.is_vertex:
            raise PreconditionError(f"monomial {alpha}.{beta}* is not a ghost word")
        vec[beta] = coeff
    return vec


def ghost_to_element(graph, field, vec):
    terms = {}
    for beta, coeff in vec.items():
        terms[(Path.vertex(beta.target), beta)] = coeff
    return Element(graph, field, terms)


class SchreierStaircase:
    """Echelonized truncation of a left ideal of the ghost subalgebra.

    generators may be Elements (pure ghost) or ghost vectors.  degree
    bounds the word length of every row retained.  family_cap bounds how
    many members of each arrow family participate; on graphs with families
    the truncation therefore only sees a slice of the ideal and no
    stabilization claim is made.

    The generators are encoded once into the field's native values, and
    rows is the native pivot table of the staircase (see leavitt.linalg);
    reduce, membership and free_generators take and return field scalars.
    """

    def __init__(self, graph, field, generators, degree, family_cap=2):
        self.graph = graph
        self.field = field
        self.degree = degree
        self.family_cap = family_cap
        self._generators = []
        for gen in generators:
            vec = encode(field, element_to_ghost(gen) if isinstance(gen, Element) else gen)
            if vec:
                self._generators.append(vec)
        self._echelon = SpanEchelon(field, ghost_sort_key)
        self.rows = self._echelon.rows
        self._build()
        pivots = set(self.rows)
        self.coset = [p for p in graph.all_paths(degree, family_cap) if p not in pivots]
        gen_degs = [
            max(len(beta) for beta in vec) for vec in self._generators
        ] or [0]
        basis_deg = max((len(p) for p in self.coset), default=-1)
        self.stabilized = (
            not graph.family_names and max(gen_degs) <= degree and basis_deg < degree
        )

    # -- construction ---------------------------------------------------

    def _build(self):
        for vec in self._generators:
            maxdeg = max(len(beta) for beta in vec)
            if maxdeg > self.degree:
                continue
            budget = self.degree - maxdeg
            sources = sorted({beta.target for beta in vec})
            for v in sources:
                for u in self.graph.paths_from(v, budget, self.family_cap):
                    # Distinct words stay distinct when extended by u.
                    row = {
                        beta.concat(u): coeff
                        for beta, coeff in vec.items()
                        if beta.target == u.source
                    }
                    if row:
                        self._insert(row)

    def _insert(self, row):
        self._echelon.insert(row)

    # -- reduction and membership ----------------------------------------

    def reduce(self, vec):
        """The normal form of a ghost vector against the staircase rows."""
        if isinstance(vec, Element):
            vec = element_to_ghost(vec)
        return decode(self.field, self._echelon.reduce(encode(self.field, vec))[0])

    def membership(self, vec):
        """"in" is always sound; "out" is only claimed once stabilized."""
        if isinstance(vec, Element):
            vec = element_to_ghost(vec)
        if any(len(beta) > self.degree for beta in vec):
            return "unknown"
        rem = self.reduce(vec)
        if not rem:
            return "in"
        if self.stabilized:
            return "out"
        return "unknown"

    def codimension(self):
        if self.stabilized:
            return ("finite", len(self.coset))
        return ("at_least", len(self.coset))

    def coset_basis(self):
        """The non-pivot ghost monomials, as real paths in staircase order."""
        return sorted(self.coset, key=ghost_sort_key)

    # -- free generators ----------------------------------------------------

    def free_generators(self):
        """Rows sitting at the staircase corners.

        A corner pivot is either a vertex word that the ideal contains
        outright, or an extension of a coset basis word by one arrow.  Once
        the staircase has stabilized these rows generate the ideal freely;
        their count on a rose with n petals and codimension c is
        c(n-1) + 1.
        """
        if not self.stabilized:
            raise PreconditionError("free generators need a stabilized staircase")
        basis = set(self.coset)
        corners = []
        for pivot in self.rows:
            if pivot.is_vertex or pivot.drop_last() in basis:
                corners.append(pivot)
        corners.sort(key=ghost_sort_key)
        one = self.field.one
        out = []
        for pivot in corners:
            # The normal form holds no pivot, so the generator is the pivot
            # minus it.
            rem = self.reduce({pivot: one})
            vec = {pivot: one, **{k: -c for k, c in rem.items()}}
            out.append(ghost_to_element(self.graph, self.field, vec))
        return out


def lewin_schreier_rank(n, c):
    """Free rank of a codimension c left ideal of the free algebra on n letters."""
    if n < 1 or c < 0:
        raise PreconditionError("rank formula needs n >= 1 and c >= 0")
    return c * (n - 1) + 1


def power_ideal_generators(graph, field, level, family_cap=2):
    """Left generators of the ideal of ghost words reaching depth ``level``.

    These are the ghost words of length exactly ``level`` together with the
    shorter ones whose dual word ends at a sink and therefore cannot be
    extended.  Sink vertex words themselves are the length zero case.
    """
    if level < 0:
        raise PreconditionError("level must be nonnegative")
    gens = []
    for p in graph.all_paths(level, family_cap):
        if len(p) == level or graph.is_sink(p.target):
            gens.append(ghost_to_element(graph, field, {p: field.one}))
    return gens


def is_open(graph, field, member_fn, level, family_cap=2):
    """Whether a left ideal contains the depth ``level`` power ideal.

    member_fn maps a ghost Element to "in", "out" or "unknown": a
    staircase's membership, the oracle of annihilator_member_fn, or
    chen_annihilator_membership with its word fixed.  The verdict is
    "open" only when every generator is certified in, "not_open" when some
    generator is certified out, and "unknown" otherwise.  On graphs with
    arrow families only the capped slice of generators is examined, so
    "open" is then a bounded claim.
    """
    verdicts = []
    for gen in power_ideal_generators(graph, field, level, family_cap):
        v = member_fn(gen)
        if v == "out":
            return ("not_open", gen)
        verdicts.append(v)
    if all(v == "in" for v in verdicts):
        return ("open", None)
    return ("unknown", None)


def not_open_up_to(graph, field, member_fn, level_max, family_cap=2):
    """Check is_open for every level up to level_max.

    Returns ("not_open_up_to", level_max) when every level is certified
    not open, otherwise ("unknown", first_unresolved_level) or
    ("open_at", level).
    """
    for level in range(level_max + 1):
        verdict, _ = is_open(graph, field, member_fn, level, family_cap)
        if verdict == "open":
            return ("open_at", level)
        if verdict == "unknown":
            return ("unknown", level)
    return ("not_open_up_to", level_max)
