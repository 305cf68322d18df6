"""Module constructions over Leavitt path algebras.

Every module here is presented the same way: basis labels are pairs
(mu, slot) of a finite path mu and a bottom layer slot, the element being
mu applied to the slot vector.  Real arrows prepend to mu, ghost arrows
strip the first arrow of mu, and what happens on bare slots, together with
which labels are identified away, is what distinguishes the constructions.
Vectors over the basis are plain dicts from labels to scalars.
"""

from .digraph import CycleTail, Path, ghost_sort_key
from .division import check_poly, is_irreducible
from .errors import InvariantError, PreconditionError
from .linalg import SpanEchelon, vec_add_into
from .schreier import ghost_to_element


class PrefixModule:
    """Shared machinery for the prefix-plus-slot module presentations.

    Subclasses describe their bottom layer through four hooks: slot_list
    enumerates the slots alive below a degree, slot_ghost gives the ghost
    arrow actions on bare slot vectors, excluded marks the labels that are
    identified with combinations of others, and rewrite_step performs one
    identification.  Rewrites must strictly shorten the path prefix, which
    is what makes canonicalization terminate.
    """

    def __init__(self, graph, field, family_cap=2):
        self.graph = graph
        self.field = field
        self.family_cap = family_cap
        self.metadata = {}
        self.generator_label = None
        # True when excluded() never fires, so prepending a path raises the
        # degree of every component by exactly the path length.  Probes use
        # this to turn windowed span checks into genuine certificates.
        self.free_prepend = False

    # subclass hooks -----------------------------------------------------

    def slot_list(self, max_degree):
        raise NotImplementedError

    def slot_base(self, slot):
        raise NotImplementedError

    def slot_degree(self, slot):
        return 0

    def slot_rank(self, slot):
        raise NotImplementedError

    def slot_name(self, slot):
        raise NotImplementedError

    def slot_ghost(self, arrow, slot):
        raise NotImplementedError

    def excluded(self, mu, slot):
        return False

    def rewrite_step(self, mu, slot):
        raise PreconditionError("module declares no identifications")

    # labels ---------------------------------------------------------------

    def degree(self, label):
        mu, slot = label
        return len(mu) + self.slot_degree(slot)

    def base_vertex(self, label):
        return label[0].source

    def label_sort_key(self, label):
        mu, slot = label
        return (self.degree(label), self.slot_rank(slot), len(mu), mu.key, mu.source)

    def label_str(self, label):
        mu, slot = label
        if mu.is_vertex:
            return self.slot_name(slot)
        return f"{mu}.{self.slot_name(slot)}"

    def canonical_into(self, acc, mu, slot, coeff):
        """Accumulate coeff times the class of (mu, slot) over legal labels."""
        if mu.is_vertex or not self.excluded(mu, slot):
            vec_add_into(self.field, acc, {(mu, slot): self.field.one}, coeff)
            return acc
        for mu2, slot2, scalar in self.rewrite_step(mu, slot):
            self.canonical_into(acc, mu2, slot2, coeff * scalar)
        return acc

    def labels(self, max_degree):
        """All legal labels of degree at most max_degree, sorted."""
        incoming = {}
        for a in self.graph.all_arrows(self.family_cap):
            incoming.setdefault(a.target, []).append(a)
        out = []
        for slot in self.slot_list(max_degree):
            budget = max_degree - self.slot_degree(slot)
            if budget < 0:
                continue
            frontier = [Path.vertex(self.slot_base(slot))]
            out.append((frontier[0], slot))
            for _ in range(budget):
                nxt = []
                for mu in frontier:
                    for a in incoming.get(mu.source, ()):
                        mu2 = mu.prepend(a)
                        # Identified labels and everything built on top of
                        # them are enumerated through their rewrites instead.
                        if not self.excluded(mu2, slot):
                            nxt.append(mu2)
                out.extend((mu, slot) for mu in nxt)
                frontier = nxt
        out.sort(key=self.label_sort_key)
        return out

    def generator_vector(self):
        return {self.generator_label: self.field.one}

    # actions ----------------------------------------------------------------

    def act_vertex(self, v, label):
        if self.base_vertex(label) == v:
            return {label: self.field.one}
        return {}

    def act_arrow(self, arrow, label):
        mu, slot = label
        if arrow.target != mu.source:
            return {}
        return self.canonical_into({}, mu.prepend(arrow), slot, self.field.one)

    def act_ghost(self, arrow, label):
        mu, slot = label
        if not mu.is_vertex:
            if mu.arrows[0] == arrow:
                return {(mu.drop_first(), slot): self.field.one}
            return {}
        return self.slot_ghost(arrow, slot)

    def active_arrows(self):
        return self.graph.all_arrows(self.family_cap)

    # vector level -------------------------------------------------------------

    def _apply(self, action, arg, vec):
        out = {}
        for label, coeff in vec.items():
            vec_add_into(self.field, out, action(arg, label), coeff)
        return out

    def vertex_apply(self, v, vec):
        return self._apply(self.act_vertex, v, vec)

    def arrow_apply(self, arrow, vec):
        return self._apply(self.act_arrow, arrow, vec)

    def ghost_apply(self, arrow, vec):
        return self._apply(self.act_ghost, arrow, vec)

    def act_monomial(self, alpha, beta, vec):
        """Apply alpha.beta*: the ghost word first, innermost letter first."""
        for b in beta.arrows:
            vec = self.ghost_apply(b, vec)
            if not vec:
                return {}
        if beta.is_vertex or alpha.is_vertex:
            anchor = beta.source if beta.is_vertex else alpha.target
            vec = self.vertex_apply(anchor, vec)
        for a in reversed(alpha.arrows):
            vec = self.arrow_apply(a, vec)
            if not vec:
                return {}
        return vec

    def act_element(self, element, vec):
        out = {}
        for (alpha, beta), coeff in element.terms.items():
            vec_add_into(self.field, out, self.act_monomial(alpha, beta, vec), coeff)
        return out

    def vector_str(self, vec):
        if not vec:
            return "0"
        keyed = sorted(vec.items(), key=lambda kv: self.label_sort_key(kv[0]))
        pieces = []
        for i, (label, coeff) in enumerate(keyed):
            body = str(coeff)
            sign = ""
            if body.startswith("-"):
                sign, body = "-", body[1:]
            text = self.label_str(label) if body == "1" else f"{body} {self.label_str(label)}"
            if i == 0:
                pieces.append(f"-{text}" if sign else text)
            else:
                pieces.append(f"- {text}" if sign else f"+ {text}")
        return " ".join(pieces)


# -- verification --------------------------------------------------------------


def verify_representation(space, max_degree):
    """Check the defining relations on every label up to max_degree.

    The ghost-kills-real relation is checked for every pair of active
    arrows with a common target, and the summation relation at every
    regular vertex not listed in the space's ck2_exempt metadata.  Exempt
    vertices are reported, not silently skipped.
    """
    labels = space.labels(max_degree)
    arrows = space.active_arrows()
    field = space.field
    failures = []
    checked = 0
    by_target = {}
    for a in arrows:
        by_target.setdefault(a.target, []).append(a)
    for m in labels:
        mvec = {m: field.one}
        for b in arrows:
            bm = space.arrow_apply(b, mvec)
            for a in by_target.get(b.target, ()):
                got = space.ghost_apply(a, bm)
                want = dict(mvec) if (a == b and b.target == space.base_vertex(m)) else {}
                checked += 1
                if got != want:
                    failures.append(("ck1", str(a), str(b), space.label_str(m)))
    exempt = set(space.metadata.get("ck2_exempt", ()))
    exempt_hit = []
    for v in space.graph.vertices:
        if space.graph.classify_vertex(v) != "regular":
            continue
        if v in exempt:
            exempt_hit.append(v)
            continue
        outs = space.graph.out_arrows(v)
        for m in labels:
            if space.base_vertex(m) != v:
                continue
            acc = {}
            for a in outs:
                vec_add_into(field, acc, space.arrow_apply(a, space.ghost_apply(a, {m: field.one})), field.one)
            checked += 1
            if acc != {m: field.one}:
                failures.append(("ck2", v, space.label_str(m), space.vector_str(acc)))
    return {
        "ok": not failures,
        "failures": failures,
        "exempt": exempt_hit,
        "checked": checked,
        "labels": len(labels),
    }


# -- Chen modules ---------------------------------------------------------------


class ChenModule(PrefixModule):
    """The module of infinite paths sharing a tail with a given word.

    Labels are words in normal form.  For an eventually periodic word the
    slots are the rotations of the primitive cycle; for a generator backed
    word the slots are the shift offsets into the generator, and labeling
    is faithful when the generator is registered aperiodic.
    """

    def __init__(self, graph, field, word, family_cap=2):
        super().__init__(graph, field, family_cap)
        self.word = word
        self.cycle_slots = None
        if isinstance(word.tail, CycleTail):
            c = word.tail.cycle
            m = len(c)
            self.cycle_slots = []
            for j in range(m):
                rot = Path.of_arrows(c.arrows[j:] + c.arrows[:j])
                self.cycle_slots.append(rot)
            self.generator_label = (word.prefix, ("rot", 0))
        else:
            self.tail = word.tail
            self.generator_label = (word.prefix, ("off", word.tail.offset))
        self.metadata = {
            "kind": "chen",
            "word": str(word),
            "rational": self.cycle_slots is not None,
        }

    def slot_list(self, max_degree):
        if self.cycle_slots is not None:
            return [("rot", j) for j in range(len(self.cycle_slots))]
        return [("off", k) for k in range(max_degree + 1)]

    def slot_base(self, slot):
        kind, j = slot
        if kind == "rot":
            return self.cycle_slots[j].source
        return self.tail.fn(j).source

    def slot_degree(self, slot):
        kind, j = slot
        return 0 if kind == "rot" else j

    def slot_rank(self, slot):
        return slot[1]

    def slot_name(self, slot):
        kind, j = slot
        if kind == "rot":
            return f"({self.cycle_slots[j]})^w"
        return f"{self.tail.name}@{j}" if j else self.tail.name

    def slot_ghost(self, arrow, slot):
        kind, j = slot
        if kind == "rot":
            rot = self.cycle_slots[j]
            if arrow == rot.arrows[0]:
                nxt = (j + 1) % len(self.cycle_slots)
                return {(Path.vertex(self.slot_base(("rot", nxt))), ("rot", nxt)): self.field.one}
            return {}
        if arrow == self.tail.fn(j):
            return {(Path.vertex(self.slot_base(("off", j + 1))), ("off", j + 1)): self.field.one}
        return {}

    def excluded(self, mu, slot):
        kind, j = slot
        if kind == "rot":
            return mu.arrows[-1] == self.cycle_slots[j].arrows[-1]
        return j > 0 and mu.arrows[-1] == self.tail.fn(j - 1)

    def rewrite_step(self, mu, slot):
        kind, j = slot
        if kind == "rot":
            prev = (j - 1) % len(self.cycle_slots)
            return [(mu.drop_last(), ("rot", prev), self.field.one)]
        return [(mu.drop_last(), ("off", j - 1), self.field.one)]


def chen_module(graph, field, word, family_cap=2):
    if not isinstance(word.tail, CycleTail) and not word.tail.aperiodic:
        raise PreconditionError(
            "generator backed words must be registered aperiodic for labels to be faithful"
        )
    return ChenModule(graph, field, word, family_cap)


class CohnJacobsonModule(PrefixModule):
    """The boundary module of a vertex that emits no summation relation.

    The space is spanned by the paths into the chosen sink or infinite
    emitter; every ghost arrow kills the bare vertex vector.  These are
    the simple modules that pair with the twisted cycle constructions
    below: their bare vector is annihilated by the whole ghost ideal.
    """

    def __init__(self, graph, field, v, family_cap=2):
        super().__init__(graph, field, family_cap)
        if graph.classify_vertex(v) == "regular":
            raise PreconditionError(
                f"vertex {v} is regular, so the summation relation would "
                "collapse the bare vector"
            )
        self.v = v
        self.generator_label = (Path.vertex(v), "s")
        self.free_prepend = True
        self.metadata = {
            "kind": "cohn_jacobson",
            "vertex": v,
            "variant": graph.classify_vertex(v),
        }

    def slot_list(self, max_degree):
        return ["s"]

    def slot_base(self, slot):
        return self.v

    def slot_degree(self, slot):
        return 0

    def slot_rank(self, slot):
        return 0

    def slot_name(self, slot):
        return "s"

    def slot_ghost(self, arrow, slot):
        return {}

    def excluded(self, mu, slot):
        return False

    def rewrite_step(self, mu, slot):
        raise InvariantError("no label of this module rewrites")


def cohn_jacobson_module(graph, field, v, family_cap=2):
    return CohnJacobsonModule(graph, field, v, family_cap)


# -- twisted cycle modules --------------------------------------------------------


class RangaswamyModule(PrefixModule):
    """The finite length twist of a cycle module by a polynomial.

    delta is a closed path a_1...a_n and q a monic polynomial of degree l
    with nonzero constant term.  The bottom layer carries slots h0 to
    h(nl-1); the ghost action climbs the chain at regular junctions and
    folds the top slot back through the coefficients of q.  Junctions at
    infinite emitters carry no identifications, which is where the extra
    socle layers of the infinite emitter case come from.
    """

    def __init__(self, graph, field, delta, q, family_cap=2):
        super().__init__(graph, field, family_cap)
        if delta.is_vertex or delta.source != delta.target:
            raise PreconditionError("delta must be a nonempty closed path")
        self.delta = delta
        self.q = check_poly(field, q, monic=True)
        if not self.q[0]:
            raise PreconditionError("q must have nonzero constant term")
        self.n = len(delta)
        self.l = len(self.q) - 1
        self.size = self.n * self.l
        irr = is_irreducible(field, self.q)
        if irr is False:
            raise PreconditionError("q must be irreducible")
        self.generator_label = (Path.vertex(self._base(self.size - 1)), self.size - 1)
        self.free_prepend = all(
            graph.classify_vertex(a.source) == "infinite_emitter"
            for a in delta.arrows
        )
        self.metadata = {
            "kind": "rangaswamy",
            "delta": str(delta),
            "q": [str(c) for c in self.q],
            "irreducible": "yes" if irr else "unverified",
            "junctions": {
                str(a): graph.classify_vertex(a.source) for a in delta.arrows
            },
        }

    def _chain_arrow(self, i):
        # The arrow whose prepend steps slot i down to slot i-1, indices mod n.
        return self.delta.arrows[(i - 1) % self.n]

    def _base(self, i):
        arrows = self.delta.arrows
        j = i % self.n
        return arrows[0].source if j == 0 else arrows[j - 1].target

    def slot_list(self, max_degree):
        return list(range(self.size))

    def slot_base(self, slot):
        return self._base(slot)

    def slot_rank(self, slot):
        return slot

    def slot_name(self, slot):
        return f"h{slot}"

    def slot_ghost(self, arrow, slot):
        one = self.field.one
        if slot == self.size - 1:
            if arrow == self._chain_arrow(0):
                out = {}
                for t in range(self.l):
                    label = (Path.vertex(self._base(t * self.n)), t * self.n)
                    vec_add_into(self.field, out, {label: one}, -self.q[t])
                return out
            return {}
        nxt = self._chain_arrow(slot + 1)
        if arrow == nxt and self.graph.is_regular(nxt.source):
            return {(Path.vertex(self._base(slot + 1)), slot + 1): one}
        return {}

    def excluded(self, mu, slot):
        d = self._chain_arrow(slot)
        return mu.arrows[-1] == d and self.graph.is_regular(d.source)

    def rewrite_step(self, mu, slot):
        mu2 = mu.drop_last()
        if slot >= 1:
            return [(mu2, slot - 1, self.field.one)]
        # Folding past the bottom slot inverts the constant coefficient.
        inv = self.field.one / self.q[0]
        out = [(mu2, self.size - 1, -inv)]
        for t in range(1, self.l):
            out.append((mu2, t * self.n - 1, -inv * self.q[t]))
        return out


def rangaswamy_module(graph, field, delta, q, family_cap=2):
    return RangaswamyModule(graph, field, delta, q, family_cap)


def rangaswamy_module_regular(graph, field, delta, q, family_cap=2):
    """The twist of a cycle all of whose vertices are regular."""
    bad = [a.source for a in delta.arrows if not graph.is_regular(a.source)]
    if bad:
        raise PreconditionError(
            f"cycle vertices {sorted(set(bad))} are not regular"
        )
    return RangaswamyModule(graph, field, delta, q, family_cap)


def rangaswamy_module_infinite(graph, field, delta, q, family_cap=2):
    """The twist of a cycle based at an infinite emitter."""
    if graph.classify_vertex(delta.source) != "infinite_emitter":
        raise PreconditionError(
            f"vertex {delta.source} does not emit an arrow family"
        )
    return RangaswamyModule(graph, field, delta, q, family_cap)


# -- weighted vertex modules --------------------------------------------------------


class ManteseModule(PrefixModule):
    """The cyclic module with ghost arrows acting by scalars at one vertex.

    weights assigns a scalar to arrows leaving v; arrows carrying a nonzero
    weight must be loops at v.  At a regular v the weights must cover every
    arrow leaving v and at least one must be nonzero: the summation
    relation then identifies labels ending in the largest weighted arrow.
    At an infinite emitter there is no identification and the module has a
    socle generated by the weighted sum minus the vertex.
    """

    def __init__(self, graph, field, v, weights, family_cap=2):
        super().__init__(graph, field, family_cap)
        graph.classify_vertex(v)
        self.v = v
        self.variant = graph.classify_vertex(v)
        if isinstance(weights, dict):
            weights = list(weights.items())
        self.weights = {}
        for arrow, r in weights:
            if arrow.source != v:
                raise PreconditionError(f"{arrow} does not leave {v}")
            r = field.of(r)
            if r and arrow.target != v:
                raise PreconditionError(
                    f"{arrow} carries a nonzero weight but is not a loop at {v}"
                )
            self.weights[arrow] = r
        if self.variant == "sink":
            raise PreconditionError("the base vertex must emit at least one arrow")
        if self.variant == "regular":
            missing = [a for a in graph.out_arrows(v) if a not in self.weights]
            if missing:
                raise PreconditionError(f"missing weights for {missing}")
        loops = [a for a in self.weights if a.target == v]
        if len(loops) < 2:
            raise PreconditionError("the weight tuple must cover at least two loops")
        nonzero = [a for a, r in sorted(self.weights.items(), key=lambda kv: kv[0].key) if r]
        if not nonzero:
            raise PreconditionError("at least one weight must be nonzero")
        self.wrap_arrow = nonzero[-1] if self.variant == "regular" else None
        self.generator_label = (Path.vertex(v), "m")
        self.free_prepend = self.variant == "infinite_emitter"
        self.metadata = {
            "kind": "mantese",
            "variant": self.variant,
            "vertex": v,
            "weights": {str(a): str(r) for a, r in self.weights.items()},
        }

    def slot_list(self, max_degree):
        return ["m"]

    def slot_base(self, slot):
        return self.v

    def slot_rank(self, slot):
        return 0

    def slot_name(self, slot):
        return "vbar"

    def slot_ghost(self, arrow, slot):
        r = self.weights.get(arrow)
        if r:
            return {(Path.vertex(self.v), "m"): r}
        return {}

    def excluded(self, mu, slot):
        return self.wrap_arrow is not None and mu.arrows[-1] == self.wrap_arrow

    def rewrite_step(self, mu, slot):
        mu2 = mu.drop_last()
        inv = self.field.one / self.weights[self.wrap_arrow]
        out = [(mu2, "m", inv)]
        for arrow, r in sorted(self.weights.items(), key=lambda kv: kv[0].key):
            if arrow == self.wrap_arrow or not r:
                continue
            out.append((mu2.concat(arrow), "m", -inv * r))
        return out

    def socle_generator(self):
        """The weighted sum minus the vertex; every ghost arrow kills it."""
        if self.variant != "infinite_emitter":
            raise PreconditionError("the socle generator exists at infinite emitters")
        vec = {(Path.vertex(self.v), "m"): -self.field.one}
        for arrow, r in self.weights.items():
            if r:
                vec_add_into(
                    self.field, vec, {(Path.of_arrows((arrow,)), "m"): r}, self.field.one
                )
        return vec


def mantese_module(graph, field, v, weights, family_cap=2):
    return ManteseModule(graph, field, v, weights, family_cap)


# -- the two generator example ----------------------------------------------------


class LinearExampleModule(PrefixModule):
    """The module induced from the two dimensional ghost representation.

    Built over two loops a and b at a common vertex.  The bottom layer is
    the plane spanned by vbar and w with a* mapping vbar to w, b* mapping
    w back to vbar, and a* acting on w either as the identity (linear) or
    as identity plus the step back (nonlinear).  At an infinite emitter the
    induced space is the module; at a regular vertex the summation
    relation collapses the layer and labels ending in a.b are identified
    away.
    """

    def __init__(self, graph, field, a, b, twist="linear", family_cap=2):
        super().__init__(graph, field, family_cap)
        for arrow in (a, b):
            if arrow.source != arrow.target:
                raise PreconditionError(f"{arrow} is not a loop")
        if a.source != b.source or a == b:
            raise PreconditionError("need two distinct loops at one vertex")
        if twist not in ("linear", "nonlinear"):
            raise PreconditionError(f"unknown twist {twist!r}")
        self.a, self.b = a, b
        self.v = a.source
        self.twist = twist
        self.variant = graph.classify_vertex(self.v)
        if self.variant == "regular" and set(graph.out_arrows(self.v)) != {a, b}:
            raise PreconditionError("a regular base vertex must emit exactly a and b")
        self.generator_label = (Path.vertex(self.v), "vbar")
        self.free_prepend = self.variant == "infinite_emitter"
        self.metadata = {
            "kind": "linear_example",
            "variant": self.variant,
            "twist": twist,
            "relation": self.relation_text(),
        }

    def relation_text(self):
        if self.twist == "linear":
            return f"{self.v} - {self.a} - {self.a}.{self.b}"
        return f"{self.v} - {self.a}.{self.a} - {self.a}"

    def slot_list(self, max_degree):
        if self.variant == "infinite_emitter":
            return ["vbar", "w"]
        return ["vbar"]

    def slot_base(self, slot):
        return self.v

    def slot_rank(self, slot):
        return 0 if slot == "vbar" else 1

    def slot_name(self, slot):
        return slot

    def _lab(self, slot):
        return (Path.vertex(self.v), slot)

    def slot_ghost(self, arrow, slot):
        one = self.field.one
        if self.variant == "infinite_emitter":
            if arrow == self.a:
                if slot == "vbar":
                    return {self._lab("w"): one}
                if self.twist == "linear":
                    return {self._lab("w"): one}
                return {self._lab("w"): one, self._lab("vbar"): one}
            if arrow == self.b and slot == "w" and self.twist == "linear":
                return {self._lab("vbar"): one}
            return {}
        if arrow == self.a:
            if self.twist == "linear":
                return {self._lab("vbar"): one, (Path.of_arrows((self.b,)), "vbar"): one}
            return {self._lab("vbar"): one, (Path.of_arrows((self.a,)), "vbar"): one}
        return {}

    def _tail(self):
        # the arrow whose square (nonlinear) or whose b-extension (linear)
        # closes the defining relation, fixing the excluded suffix
        return self.b if self.twist == "linear" else self.a

    def excluded(self, mu, slot):
        if self.variant == "infinite_emitter":
            return False
        return len(mu) >= 2 and mu.arrows[-2:] == (self.a, self._tail())

    def rewrite_step(self, mu, slot):
        nu = mu.drop_last().drop_last()
        one = self.field.one
        return [(nu, "vbar", one), (nu.concat(self.a), "vbar", -one)]

    def relation_vector(self):
        """The image of the defining relation applied to vbar."""
        one = self.field.one
        pa = Path.of_arrows((self.a,))
        vec = {self._lab("vbar"): one}
        vec_add_into(self.field, vec, {(pa, "vbar"): one}, -one)
        vec_add_into(self.field, vec, {(pa.concat(self._tail()), "vbar"): one}, -one)
        return vec


def linear_example_module(graph, field, a, b, twist="linear", family_cap=2):
    return LinearExampleModule(graph, field, a, b, twist, family_cap)


# -- algebra valued point modules ----------------------------------------------------


def _generated_subalgebra_dim(algebra, elements):
    """Dimension of the unital subalgebra generated by the given elements."""
    rank = {label: i for i, label in enumerate(algebra.labels)}
    ech = SpanEchelon(algebra.field, rank.get)
    ech.insert(algebra.one.coords)
    frontier = [algebra.one]
    while frontier and ech.rank < algebra.dim:
        nxt = []
        for x in frontier:
            for g in elements:
                y = x * g
                if ech.insert(y.coords)[2] is not None:
                    nxt.append(y)
        frontier = nxt
    return ech.rank


class HilbertModule(PrefixModule):
    """Paths into v tensored with a finite dimensional algebra D.

    phi sends ghost arrows at v to elements of D acting on the bottom
    layer by left multiplication.  When v is regular the summation
    relation does not hold on this induced space, only on its simple
    quotient, so the vertex is recorded under ck2_exempt and reported as
    such by verify_representation.  When v is an infinite emitter the
    space itself is the module.
    """

    def __init__(self, graph, field, v, algebra, phi, family_cap=2):
        super().__init__(graph, field, family_cap)
        if algebra.field != field:
            raise PreconditionError("algebra and module fields differ")
        self.v = v
        self.algebra = algebra
        self.phi = {}
        for arrow, value in phi.items():
            if arrow.source != v or arrow.target != v:
                raise PreconditionError(f"{arrow} is not a loop at {v}")
            self.phi[arrow] = value
        if not any(x.coords for x in self.phi.values()):
            raise PreconditionError("the substitution must be nonzero")
        variant = graph.classify_vertex(v)
        if variant == "sink":
            raise PreconditionError("the base vertex must emit at least one arrow")
        self.generator_label = (Path.vertex(v), algebra.unit_label)
        self.free_prepend = True
        images = [x for x in self.phi.values() if x.coords]
        generating = _generated_subalgebra_dim(algebra, images) == algebra.dim
        self.metadata = {
            "kind": "hilbert",
            "vertex": v,
            "algebra": algebra.name,
            "phi": {str(a): str(x) for a, x in self.phi.items()},
            "variant": variant,
            "generating": generating,
        }
        if not generating:
            self.metadata["generation_note"] = (
                "the substitution images span a proper subalgebra; the "
                "degree zero layer is larger than a single copy of the "
                "coefficient division algebra"
            )
        if variant == "regular":
            self.metadata["ck2_exempt"] = [v]
            self.metadata["note"] = (
                "induced space of a regular vertex: the summation relation "
                "holds only in the simple quotient"
            )

    def slot_list(self, max_degree):
        return list(self.algebra.labels)

    def slot_base(self, slot):
        return self.v

    def slot_rank(self, slot):
        return self.algebra.labels.index(slot)

    def slot_name(self, slot):
        return slot

    def slot_ghost(self, arrow, slot):
        value = self.phi.get(arrow)
        if value is None:
            return {}
        image = value * self.algebra.basis(slot)
        return {
            (Path.vertex(self.v), k): c for k, c in image.coords.items()
        }


def hilbert_module(graph, field, v, algebra, phi, family_cap=2):
    return HilbertModule(graph, field, v, algebra, phi, family_cap)


# -- period substitution ideals --------------------------------------------------


class LeftIdealPresentation:
    """A left ideal of the ghost subalgebra with a described complement.

    generators is a list of pure ghost Elements.  complement, when given,
    decides whether a ghost word (stored as its real path) survives into
    the quotient basis; it must agree with the generators at every degree
    at which both are examined.
    """

    def __init__(self, graph, field, generators, complement=None, metadata=None):
        self.graph = graph
        self.field = field
        self.generators = list(generators)
        self.complement = complement
        self.metadata = metadata or {}

    def coset_paths(self, max_degree, family_cap=2):
        if self.complement is None:
            raise PreconditionError("this presentation has no complement rule")
        return [
            p
            for p in self.graph.all_paths(max_degree, family_cap)
            if self.complement(p)
        ]


def _period_factor(periods_by_first, arrows, i):
    """Match one full period at position i, or None."""
    delta = periods_by_first.get(arrows[i])
    if delta is None:
        return None
    k = len(delta)
    if i + k <= len(arrows) and tuple(arrows[i : i + k]) == tuple(delta.arrows):
        return k
    return None


def _split_period_product(periods_by_first, v, path):
    """Split a path into (period product, proper head), or None.

    Periods are arrow disjoint, so the first arrow determines the only
    period that can match and the greedy scan is the only possible split.
    """
    if path.source != v:
        return None
    arrows = path.arrows
    i = 0
    while i < len(arrows):
        k = _period_factor(periods_by_first, arrows, i)
        if k is None:
            break
        i += k
    rest = arrows[i:]
    if rest:
        delta = periods_by_first.get(rest[0])
        if delta is None or len(rest) >= len(delta):
            return None
        if tuple(rest) != tuple(delta.arrows[: len(rest)]):
            return None
    nu = Path.vertex(v) if i == 0 else Path.of_arrows(arrows[:i])
    return nu, rest


def substitute(element, images, algebra=None):
    """Evaluate a purely ghost element under a ghost-arrow substitution.

    images maps arrows to algebra elements; vertex ids may also appear and
    default to the algebra unit.  A ghost word (b1...bk)* = bk*...b1* is
    evaluated with later arrows multiplying from the left, which is what
    makes the assignment a homomorphism on the dual subalgebra.
    """
    if algebra is None:
        for x in images.values():
            algebra = x.algebra
            break
        if algebra is None:
            raise PreconditionError("an empty substitution needs an explicit algebra")
    out = algebra.element({})
    for (alpha, beta), coeff in element.terms.items():
        if not alpha.is_vertex:
            raise PreconditionError(f"monomial ({alpha}, {beta}*) contains a real arrow")
        if beta.is_vertex:
            acc = images.get(beta.source, algebra.one)
        else:
            acc = algebra.one
            for arrow in beta.arrows:
                img = images.get(arrow)
                if img is None:
                    raise PreconditionError(f"no image given for {arrow}")
                acc = img * acc
        out = out + acc.scale(coeff)
    return out


def mantese_rangaswamy_presentation(
    graph, field, periods, algebra, images, degree, family_cap=2
):
    """Present the left ideal carved out by substituting periods into an algebra.

    periods is a list of pairwise arrow disjoint closed paths at one vertex
    and images assigns each period a nonzero element of the structure
    algebra.  The ideal is generated by the ghost words vanishing under the
    substitution together with every ghost path that is not a period
    product followed by a proper head; the complement rule keeps exactly
    the products whose images stay independent.  degree bounds both
    generator lists.
    """
    if not periods:
        raise PreconditionError("need at least one period")
    v = periods[0].source
    seen = set()
    periods_by_first = {}
    for delta in periods:
        if delta.is_vertex or delta.source != v or delta.target != v:
            raise PreconditionError(f"{delta} is not a closed path at {v}")
        for a in delta.arrows:
            if a in seen:
                raise PreconditionError(f"periods share the arrow {a}")
            seen.add(a)
        periods_by_first[delta.arrows[0]] = delta
    if len(images) != len(periods):
        raise PreconditionError("need exactly one image per period")
    image_of = {}
    for delta, x in zip(periods, images):
        if x.algebra is not algebra:
            raise PreconditionError("images must live in the given algebra")
        if x.is_zero:
            raise PreconditionError(f"the image of {delta} must be nonzero")
        image_of[delta.arrows[0]] = x

    def ghost_image(nu):
        """Image of nu* under the substitution, factors in product order."""
        out = algebra.one
        i = 0
        while i < len(nu.arrows):
            delta = periods_by_first[nu.arrows[i]]
            out = image_of[delta.arrows[0]] * out
            i += len(delta)
        return out

    rank = {label: i for i, label in enumerate(algebra.labels)}
    ech = SpanEchelon(field, rank.get)
    pivot_products = set()
    kernel = []
    products = [Path.vertex(v)]
    frontier = [Path.vertex(v)]
    while frontier:
        nxt = []
        for nu in frontier:
            for delta in periods:
                ext = nu.concat(delta)
                if len(ext) <= degree:
                    nxt.append(ext)
        nxt.sort(key=ghost_sort_key)
        products.extend(nxt)
        frontier = nxt
    for nu in products:
        _, combo, pivot = ech.insert(ghost_image(nu).coords, {nu: field.one})
        if pivot is not None:
            pivot_products.add(nu)
        else:
            k = {nu: field.one}
            vec_add_into(field, k, combo, -field.one)
            kernel.append(k)

    generators = [ghost_to_element(graph, field, vec) for vec in kernel]
    excluded = []
    for p in graph.all_paths(degree, family_cap):
        if _split_period_product(periods_by_first, v, p) is None:
            excluded.append(ghost_to_element(graph, field, {p: field.one}))

    def complement(path):
        split = _split_period_product(periods_by_first, v, path)
        return split is not None and split[0] in pivot_products

    return LeftIdealPresentation(
        graph,
        field,
        generators + excluded,
        complement,
        metadata={
            "kind": "mantese_rangaswamy",
            "vertex": v,
            "periods": [str(p) for p in periods],
            "hilbert": all(len(p) == 1 for p in periods),
            "degree": degree,
            "substitution_kernel_rows": len(kernel),
            "independent_products": len(pivot_products),
        },
    )
