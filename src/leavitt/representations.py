"""Module constructions over Leavitt path algebras.

Every module here is presented the same way: basis labels are pairs
(mu, slot) of a finite path mu and a bottom layer slot, the element being
mu applied to the slot vector.  Real arrows prepend to mu, ghost arrows
strip the first arrow of mu, and what the ghost arrows do to bare slots
is what distinguishes the constructions; the labels identified away
follow from it through the summation relation, which rational Chen
modules, quotients of induced modules, impose on every slot; generator
backed words keep offset hooks.  Vectors are dicts from labels to scalars.

Every public method takes and returns vectors of field scalars.  Inside,
the label level operators (act_vertex, act_arrow, act_ghost, slot_ghost,
canonical_into, rewrite_step) work on the field's native values (see
leavitt.linalg), and so do _apply, _monomial and _element, the vector
loops that the public vertex_apply, arrow_apply, ghost_apply,
act_monomial and act_element wrap with one encode and one decode.
"""

from functools import cached_property

from .digraph import CycleTail, Path, ghost_sort_key
from .division import check_poly, is_irreducible
from .errors import PreconditionError
from .fields import signed_sum
from .linalg import SpanEchelon, add_native, decode, encode
from .schreier import ghost_to_element


class PrefixModule:
    """The module induced from a representation of the ghost quiver.

    A subclass gives its bottom layer as data.  self.slots maps each slot
    to (base vertex, name, rank), and self.ghost maps (arrow, slot) to the
    image of the bare slot under that ghost arrow, a vector of field
    scalars over labels; a missing entry is the zero image.  Real arrows
    prepend freely, and the only identifications are the summation
    relation at the regular vertices not listed under the ck2_exempt
    metadata, which rules derives from the two tables.  A class that sets
    quotient imposes the relation on every slot, at infinite emitters too,
    and so presents a quotient of the induced module.  rewrite_step reads
    the rules: it gives the labels an identified label rewrites to, and
    None for a legal label.  Every rewrite replaces a label by labels
    smaller under label_sort_key, and prepending a path keeps that order,
    so canonicalization terminates.

    The label operators work on native values, so the ghost table is
    encoded once, into a cached native table, the first time it is used;
    rules, like every public vector method, holds field scalars.
    """

    quotient = False

    def __init__(self, graph, field, family_cap=2):
        self.graph = graph
        self.field = field
        self._p = field.characteristic
        self.family_cap = family_cap
        self.metadata = {}
        self.generator_label = None
        self._sort_keys = {}

    # the bottom layer -----------------------------------------------------

    def slot_list(self, max_degree):
        return list(self.slots)

    def slot_base(self, slot):
        return self.slots[slot][0]

    def slot_degree(self, slot):
        return 0

    def slot_rank(self, slot):
        return self.slots[slot][2]

    def slot_name(self, slot):
        return self.slots[slot][1]

    def slot_ghost(self, arrow, slot):
        return dict(self._ghost.get((arrow, slot), ()))

    @cached_property
    def _ghost(self):
        return {key: encode(self.field, img) for key, img in self.ghost.items()}

    def bare(self, slot):
        """The label of the bare slot vector."""
        return (Path.vertex(self.slot_base(slot)), slot)

    # identifications --------------------------------------------------------

    @cached_property
    def rules(self):
        """Each identified label with the vector it rewrites to.

        At a regular vertex u, and at every vertex of a quotient module,
        the summation relation makes every slot w based at u equal to its
        image, the sum over its ghost entries (e, w) of e applied to e* w.
        The images go into one echelon keyed by label_sort_key and tagged
        with their slots.  Each pivot label is identified with its row's
        tag, bare slots at u, minus the row's tail.  The pivot set of a
        span does not depend on the insertion order, so the rules are
        canonical.
        """
        return {label: decode(self.field, rhs) for label, rhs in self._rules.items()}

    @cached_property
    def _rules(self):
        # The rules over native values.
        exempt = set(self.metadata.get("ck2_exempt", ()))
        images = {w: {} for w in self.slots}
        for (e, w), img in self._ghost.items():
            images[w].update(((mu.prepend(e), s), c) for (mu, s), c in img.items())
        ech = SpanEchelon(self.field, self.label_sort_key)
        for u in self.graph.vertices:
            if u in exempt or not (self.quotient or self.graph.is_regular(u)):
                continue
            for w, (base, name, _) in self.slots.items():
                if base == u and ech.relation(images[w], self.bare(w)) is not None:
                    raise PreconditionError(
                        f"the slot images at vertex {u} are dependent, "
                        f"so the summation relation collapses {name}"
                    )
        rules = {}
        for pivot, row in ech.rows.items():
            # The tag holds bare slots only, and no row holds one.
            rhs = rules[pivot] = {pivot: 1, **ech.tags[pivot]}
            add_native(rhs, row, -1, self._p)
        return rules

    @cached_property
    def _suffixes(self):
        # The rules keyed by (arrows of the pivot path, slot), and the pivot
        # lengths: a label is identified when a suffix of its path is a pivot.
        # A pivot ending in another would leave two rewrites for one label
        # and normal forms that need not be independent.
        table = {(mu.arrows, slot): rhs for (mu, slot), rhs in self._rules.items()}
        for arrows, slot in table:
            if any((arrows[k:], slot) in table for k in range(1, len(arrows))):
                raise PreconditionError(
                    f"the identified label {self.label_str((Path.of_arrows(arrows), slot))} "
                    "ends in another identified label"
                )
        return table, sorted({len(mu) for mu, _ in table})

    @property
    def free_prepend(self):
        """True when no label is identified away, so prepending a path
        raises the degree of every component by exactly the path length.
        Probes use this to turn windowed span checks into certificates."""
        return not self._rules

    def rewrite_step(self, mu, slot):
        """The (path, slot, scalar) terms of one rewrite, or None if legal."""
        table, lengths = self._suffixes
        for k in lengths:
            rhs = table.get((mu.arrows[-k:], slot))
            if rhs is not None:
                nu = mu
                for _ in range(k):
                    nu = nu.drop_last()
                return [(nu if p.is_vertex else nu.concat(p), s, c) for (p, s), c in rhs.items()]
        return None

    # labels ---------------------------------------------------------------

    def degree(self, label):
        mu, slot = label
        return len(mu.arrows) + self.slot_degree(slot)

    def base_vertex(self, label):
        return label[0].source

    def label_sort_key(self, label):
        # Tabled per module: echelons ask for the same labels' keys over and over.
        key = self._sort_keys.get(label)
        if key is None:
            mu, slot = label
            key = self._sort_keys[label] = (
                self.degree(label), self.slot_rank(slot), len(mu.arrows), mu.key, mu.source
            )
        return key

    def label_str(self, label):
        mu, slot = label
        if mu.is_vertex:
            return self.slot_name(slot)
        return f"{mu}.{self.slot_name(slot)}"

    def canonical_into(self, acc, mu, slot, coeff):
        """Accumulate coeff times the class of (mu, slot) over legal labels."""
        steps = None if mu.is_vertex else self.rewrite_step(mu, slot)
        if steps is None:
            label = (mu, slot)
            val = acc.get(label, 0) + coeff
            if self._p:
                val %= self._p
            if val:
                acc[label] = val
            else:
                acc.pop(label, None)
            return acc
        for mu2, slot2, scalar in steps:
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
                        if self.rewrite_step(mu2, slot) is None:
                            nxt.append(mu2)
                out.extend((mu, slot) for mu in nxt)
                frontier = nxt
        out.sort(key=self.label_sort_key)
        return out

    def generator_vector(self):
        return {self.generator_label: self.field.one}

    # actions on labels, over native values ------------------------------------

    def act_vertex(self, v, label):
        if self.base_vertex(label) == v:
            return {label: 1}
        return {}

    def act_arrow(self, arrow, label):
        mu, slot = label
        if arrow.target != mu.source:
            return {}
        return self.canonical_into({}, mu.prepend(arrow), slot, 1)

    def act_ghost(self, arrow, label):
        mu, slot = label
        if not mu.is_vertex:
            if mu.arrows[0] == arrow:
                return {(mu.drop_first(), slot): 1}
            return {}
        return self.slot_ghost(arrow, slot)

    def active_arrows(self):
        return self.graph.all_arrows(self.family_cap)

    def read_arrows(self, degree):
        """The arrows of the generator's path and of the ghost table."""
        return [*self.generator_label[0].arrows, *(a for a, _ in self.ghost)]

    def check_family_cap(self, degree):
        """Refuse a module that reads, up to degree, a family member that
        the cap leaves out: the probes would act as if it did not exist."""
        members = (a for a in self.read_arrows(degree) if a.index is not None)
        last = max(members, key=lambda a: a.index, default=None)
        if last is not None and last.index >= self.family_cap:
            raise PreconditionError(
                f"the module reads {last}, a family member that family cap {self.family_cap} "
                f"leaves out; a cap of {last.index + 1} or more covers it"
            )

    # vectors ------------------------------------------------------------------

    def _apply(self, action, arg, vec):
        out, p = {}, self._p
        for label, coeff in vec.items():
            add_native(out, action(arg, label), coeff, p)
        return out

    def _monomial(self, alpha, beta, vec):
        """Apply alpha.beta*: the ghost word first, innermost letter first."""
        for b in beta.arrows:
            vec = self._apply(self.act_ghost, b, vec)
            if not vec:
                return {}
        if beta.is_vertex or alpha.is_vertex:
            anchor = beta.source if beta.is_vertex else alpha.target
            vec = self._apply(self.act_vertex, anchor, vec)
        for a in reversed(alpha.arrows):
            vec = self._apply(self.act_arrow, a, vec)
            if not vec:
                return {}
        return vec

    def vertex_apply(self, v, vec):
        return decode(self.field, self._apply(self.act_vertex, v, encode(self.field, vec)))

    def arrow_apply(self, arrow, vec):
        return decode(self.field, self._apply(self.act_arrow, arrow, encode(self.field, vec)))

    def ghost_apply(self, arrow, vec):
        return decode(self.field, self._apply(self.act_ghost, arrow, encode(self.field, vec)))

    def act_monomial(self, alpha, beta, vec):
        return decode(self.field, self._monomial(alpha, beta, encode(self.field, vec)))

    def _element(self, element, vec):
        out = {}
        for (alpha, beta), coeff in element.terms.items():
            add_native(out, self._monomial(alpha, beta, vec), self.field.native(coeff), self._p)
        return out

    def act_element(self, element, vec):
        return decode(self.field, self._element(element, encode(self.field, vec)))

    def vector_str(self, vec):
        keyed = sorted(vec.items(), key=lambda kv: self.label_sort_key(kv[0]))
        return signed_sum((coeff, self.label_str(label)) for label, coeff in keyed)


# -- verification --------------------------------------------------------------


def verify_representation(space, max_degree):
    """Check the defining relations on every label up to max_degree.

    The ghost-kills-real relation is checked for every pair of active
    arrows with a common target, and the summation relation at every
    regular vertex not listed in the space's ck2_exempt metadata.  Exempt
    vertices are reported, not silently skipped.
    """
    space.check_family_cap(max_degree)
    labels = space.labels(max_degree)
    arrows = space.active_arrows()
    apply, act_arrow, act_ghost = space._apply, space.act_arrow, space.act_ghost
    failures = []
    checked = 0
    by_target = {}
    for a in arrows:
        by_target.setdefault(a.target, []).append(a)
    for m in labels:
        mvec = {m: 1}
        for b in arrows:
            bm = apply(act_arrow, b, mvec)
            for a in by_target.get(b.target, ()):
                got = apply(act_ghost, a, bm)
                want = mvec if (a == b and b.target == space.base_vertex(m)) else {}
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
                add_native(acc, apply(act_arrow, a, apply(act_ghost, a, {m: 1})), 1, space._p)
            checked += 1
            if acc != {m: 1}:
                failures.append(("ck2", v, space.label_str(m), space.vector_str(decode(space.field, acc))))
    return {
        "ok": not failures,
        "failures": failures,
        "exempt": exempt_hit,
        "checked": checked,
        "labels": len(labels),
    }


# -- Chen modules ---------------------------------------------------------------


class ChenModule(PrefixModule):
    """The module of infinite paths sharing a tail with an eventually
    periodic word, Chen's simple quotient of an induced module.

    Labels are words in normal form.  The slots are the rotations of the
    primitive cycle, and the ghost of a rotation's first arrow moves it to
    the next rotation.  The module induced from that bottom layer is not
    simple where the cycle passes an infinite emitter, so the class sets
    quotient: the summation relation holds on every slot, and rules
    identifies every label ending in the letter before its rotation.
    """

    quotient = True

    def __init__(self, graph, field, word, family_cap=2):
        super().__init__(graph, field, family_cap)
        if not isinstance(word.tail, CycleTail):
            raise PreconditionError("ChenModule takes eventually periodic words; use chen_module")
        self.word = word
        c = word.tail.cycle.arrows
        n = len(c)
        self.slots = {
            ("rot", j): (c[j].source, f"({Path.of_arrows(c[j:] + c[:j])})^w", j) for j in range(n)
        }
        self.ghost = {(c[j], ("rot", j)): {self.bare(("rot", (j + 1) % n)): field.one} for j in range(n)}
        self.generator_label = (word.prefix, ("rot", 0))
        self.metadata = {"kind": "chen", "word": str(word), "rational": True}


class _GeneratorChenModule(PrefixModule):
    """The Chen module of a generator backed word.

    The slots are the shift offsets into the generator, and labeling is
    faithful when the generator is registered aperiodic.  Slot k has
    degree k, so the slots grow with the degree and no finite slot table
    fits them: the module keeps the offset hooks, and each offset
    identifies the labels ending in the letter before it.
    """

    free_prepend = False

    def __init__(self, graph, field, word, family_cap=2):
        super().__init__(graph, field, family_cap)
        self.word = word
        self.tail = word.tail
        self.generator_label = (word.prefix, ("off", word.tail.offset))
        self.metadata = {"kind": "chen", "word": str(word), "rational": False}

    @property
    def _rules(self):
        raise PreconditionError(
            "a generator backed word identifies one label per offset, without bound, "
            "so its rules are not finite"
        )

    def read_arrows(self, degree):
        return [*self.generator_label[0].arrows, *map(self.tail.fn, range(degree + 1))]

    def slot_list(self, max_degree):
        return [("off", k) for k in range(max_degree + 1)]

    def slot_base(self, slot):
        return self.tail.fn(slot[1]).source

    def slot_degree(self, slot):
        return slot[1]

    def slot_rank(self, slot):
        return slot[1]

    def slot_name(self, slot):
        return f"{self.tail.name}@{slot[1]}" if slot[1] else self.tail.name

    def slot_ghost(self, arrow, slot):
        return {self.bare(("off", slot[1] + 1)): 1} if arrow == self.tail.fn(slot[1]) else {}

    def rewrite_step(self, mu, slot):
        j = slot[1]
        if j and mu.arrows[-1] == self.tail.fn(j - 1):
            return [(mu.drop_last(), ("off", j - 1), 1)]
        return None


def chen_module(graph, field, word, family_cap=2):
    if isinstance(word.tail, CycleTail):
        return ChenModule(graph, field, word, family_cap)
    if not word.tail.aperiodic:
        raise PreconditionError(
            "generator backed words must be registered aperiodic for labels to be faithful"
        )
    return _GeneratorChenModule(graph, field, word, family_cap)


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
        self.slots = {"s": (v, "s", 0)}
        self.ghost = {}
        self.generator_label = self.bare("s")
        self.metadata = {
            "kind": "cohn_jacobson",
            "vertex": v,
            "variant": graph.classify_vertex(v),
        }


def cohn_jacobson_module(graph, field, v, family_cap=2):
    return CohnJacobsonModule(graph, field, v, family_cap)


# -- twisted cycle modules --------------------------------------------------------


class RangaswamyModule(PrefixModule):
    """The finite length twist of a cycle module by a polynomial.

    delta is a closed path a_1...a_n and q a monic polynomial of degree l
    with nonzero constant term.  The bottom layer carries slots h0 to
    h(nl-1), slot i based at the source of a_(i mod n + 1); the ghost of
    that arrow climbs from slot i to slot i+1 at regular junctions, and
    the ghost of a_n folds the top slot back through the coefficients of q.
    Junctions at infinite emitters neither climb nor identify, which is
    where the extra socle layers of the infinite emitter case come from.
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
        arrows = delta.arrows
        self.slots = {i: (arrows[i % self.n].source, f"h{i}", i) for i in range(self.size)}
        top = self.size - 1
        fold = {self.bare(t * self.n): -c for t, c in enumerate(self.q[:-1]) if c}
        self.ghost = {(arrows[-1], top): fold}
        for i in range(top):
            if graph.is_regular(arrows[i % self.n].source):
                self.ghost[(arrows[i % self.n], i)] = {self.bare(i + 1): field.one}
        self.generator_label = self.bare(top)
        self.metadata = {
            "kind": "rangaswamy",
            "delta": str(delta),
            "q": [str(c) for c in self.q],
            "irreducible": "yes" if irr else "unverified",
            "junctions": {
                str(a): graph.classify_vertex(a.source) for a in delta.arrows
            },
        }


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

    weights is a dict from arrows leaving v to scalars; arrows carrying a
    nonzero weight must be loops at v.  At a regular v the weights must
    cover every arrow leaving v and at least one must be nonzero: the
    summation relation then identifies labels ending in the largest
    weighted arrow.  At an infinite emitter there is no identification
    and the module has a socle generated by the weighted sum minus the
    vertex.
    """

    def __init__(self, graph, field, v, weights, family_cap=2):
        super().__init__(graph, field, family_cap)
        self.variant = graph.classify_vertex(v)
        self.weights = {}
        for arrow, r in weights.items():
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
        if sum(a.target == v for a in self.weights) < 2:
            raise PreconditionError("the weight tuple must cover at least two loops")
        if not any(self.weights.values()):
            raise PreconditionError("at least one weight must be nonzero")
        self.slots = {"m": (v, "vbar", 0)}
        self.generator_label = self.bare("m")
        self.ghost = {(a, "m"): {self.generator_label: r} for a, r in self.weights.items() if r}
        self.metadata = {
            "kind": "mantese",
            "variant": self.variant,
            "vertex": v,
            "weights": {str(a): str(r) for a, r in self.weights.items()},
        }

    def socle_generator(self):
        """The weighted sum minus the vertex; every ghost arrow kills it."""
        if self.variant != "infinite_emitter":
            raise PreconditionError("the socle generator exists at infinite emitters")
        vec = {self.bare("m"): -self.field.one}
        for arrow, r in self.weights.items():
            if r:
                vec[(Path.of_arrows((arrow,)), "m")] = r
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
    induced space is the module.  At a regular vertex the layer collapses
    to vbar, with a* mapping it to vbar + b.vbar (linear) or vbar + a.vbar
    (nonlinear), and the summation relation identifies labels ending in
    a.b (linear) or a.a (nonlinear).
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
        # the arrow whose b-extension (linear) or whose square (nonlinear)
        # closes the defining relation
        self.tail = b if twist == "linear" else a
        self.variant = graph.classify_vertex(self.v)
        if self.variant == "regular" and set(graph.out_arrows(self.v)) != {a, b}:
            raise PreconditionError("a regular base vertex must emit exactly a and b")
        one = field.one
        self.slots = {"vbar": (self.v, "vbar", 0)}
        vbar = self.generator_label = self.bare("vbar")
        if self.variant == "infinite_emitter":
            self.slots["w"] = (self.v, "w", 1)
            w = self.bare("w")
            self.ghost = {(a, "vbar"): {w: one}, (a, "w"): {w: one}}
            if twist == "linear":
                self.ghost[(b, "w")] = {vbar: one}
            else:
                self.ghost[(a, "w")][vbar] = one
        else:
            self.ghost = {(a, "vbar"): {vbar: one, (Path.of_arrows((self.tail,)), "vbar"): one}}
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

    def relation_vector(self):
        """The image of the defining relation applied to vbar."""
        one = self.field.one
        pa = Path.of_arrows((self.a,))
        return {
            self.bare("vbar"): one,
            (pa, "vbar"): -one,
            (pa.concat(self.tail), "vbar"): -one,
        }


def linear_example_module(graph, field, a, b, twist="linear", family_cap=2):
    return LinearExampleModule(graph, field, a, b, twist, family_cap)


# -- algebra valued point modules ----------------------------------------------------


def _generated_subalgebra_dim(algebra, elements):
    """Dimension of the unital subalgebra generated by the given elements."""
    field = algebra.field
    rank = {label: i for i, label in enumerate(algebra.labels)}
    ech = SpanEchelon(field, rank.get)
    ech.insert(encode(field, algebra.one.coords))
    frontier = [algebra.one]
    while frontier and ech.rank < algebra.dim:
        nxt = []
        for x in frontier:
            for g in elements:
                y = x * g
                if ech.insert(encode(field, y.coords))[2] is not None:
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
        self.slots = {k: (v, k, i) for i, k in enumerate(algebra.labels)}
        self.ghost = {
            (arrow, k): {(Path.vertex(v), j): c for j, c in (value * algebra.basis(k)).coords.items()}
            for arrow, value in self.phi.items()
            for k in algebra.labels
        }
        self.generator_label = self.bare(algebra.unit_label)
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


def hilbert_module(graph, field, v, algebra, phi, family_cap=2):
    return HilbertModule(graph, field, v, algebra, phi, family_cap)


# -- period substitution ideals --------------------------------------------------


class LeftIdealPresentation:
    """A left ideal of the ghost subalgebra with its coset words.

    generators is a list of pure ghost Elements.  coset lists, in
    staircase order, the ghost words (stored as their real paths) up to
    the construction degree and family cap that survive into the quotient
    basis, the coset of the staircase the generators span at that degree.
    """

    def __init__(self, graph, field, generators, coset, metadata):
        self.graph = graph
        self.field = field
        self.generators = list(generators)
        self.coset = coset
        self.metadata = metadata


def substitute(element, images, algebra=None):
    """Evaluate a purely ghost element under a ghost-arrow substitution.

    images maps arrows to algebra elements; vertex ids may also appear and
    default to the algebra unit.  The ghost word (a1...ak)* = ak*...a1*
    maps to the product with later arrows multiplying from the left, which
    is what makes the assignment a homomorphism on the dual subalgebra.
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
        acc = images.get(beta.source, algebra.one) if beta.is_vertex else algebra.one
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
    algebra: the image of a period product nu.delta is x_delta times the
    image of nu.  The words kept are the period products and each product
    followed by a proper head of a period, up to degree and under the
    family cap; periods are arrow disjoint, so each kept word splits one
    way only.  The generators are first the kernel relations, read off the
    products' images in staircase order, then the shortest excluded words:
    the other vertices and every one-arrow extension of a kept word that is
    not kept.  The coset is the kept words whose product's image is
    independent of those of the earlier products.  The work grows with the
    number of period products, not with the number of paths up to degree.
    """
    if not periods:
        raise PreconditionError("need at least one period")
    v = periods[0].source
    seen = set()
    for delta in periods:
        if delta.is_vertex or delta.source != v or delta.target != v:
            raise PreconditionError(f"{delta} is not a closed path at {v}")
        for a in delta.arrows:
            if a in seen:
                raise PreconditionError(f"periods share the arrow {a}")
            seen.add(a)
    if len(images) != len(periods):
        raise PreconditionError("need exactly one image per period")
    under_cap = set(graph.all_arrows(family_cap))
    whole = []
    heads = []
    for delta, x in zip(periods, images):
        if x.algebra is not algebra:
            raise PreconditionError("images must live in the given algebra")
        if x.is_zero:
            raise PreconditionError(f"the image of {delta} must be nonzero")
        # A period enters the products only when all its arrows are under
        # the cap; its proper heads stop at the first arrow that is not.
        under = next((i for i, a in enumerate(delta.arrows) if a not in under_cap), len(delta))
        if under == len(delta):
            whole.append((delta, x))
        stop = min(under + 1, len(delta))
        heads += [Path.of_arrows(delta.arrows[:k]) for k in range(1, stop)]

    # Breadth first: the loop also visits the products it appends.
    products = [(Path.vertex(v), algebra.one)]
    for nu, image in products:
        for delta, x in whole:
            if len(nu) + len(delta) <= degree:
                products.append((nu.concat(delta), x * image))
    products.sort(key=lambda item: ghost_sort_key(item[0]))

    rank = {label: i for i, label in enumerate(algebra.labels)}
    ech = SpanEchelon(field, rank.get)
    kernel = []
    kept = set()
    coset = []
    for nu, image in products:
        words = [nu] + [nu.concat(h) for h in heads if len(nu) + len(h) <= degree]
        kept.update(words)
        rel = ech.relation(encode(field, image.coords), nu)
        if rel is None:
            coset += words
        else:
            kernel.append(ghost_to_element(graph, field, decode(field, rel)))
    coset.sort(key=ghost_sort_key)
    # Every extension of an excluded word is excluded, so only the shortest
    # become generators.
    excluded = [Path.vertex(u) for u in graph.vertices if u != v]
    for w in kept:
        if len(w) < degree:
            extensions = map(w.concat, graph.out_arrows(w.target, family_cap))
            excluded += [p for p in extensions if p not in kept]
    excluded.sort(key=ghost_sort_key)

    return LeftIdealPresentation(
        graph,
        field,
        kernel + [ghost_to_element(graph, field, {p: field.one}) for p in excluded],
        coset,
        metadata={
            "kind": "mantese_rangaswamy",
            "vertex": v,
            "periods": [str(p) for p in periods],
            "hilbert": all(len(p) == 1 for p in periods),
            "degree": degree,
            "substitution_kernel_rows": len(kernel),
            "independent_products": len(products) - len(kernel),
        },
    )
