"""Bounded structural probes for modules.

Everything here works inside a degree window and reports what it actually
witnessed.  A probe never claims more than its window supports: spans that
hit the window boundary are flagged as overflowed, membership of a vector
in a truncated span is only trusted in the positive direction, and the
endomorphism solver returns the solution space of the equations it could
form, together with whether its multiplication table closed.

Module vectors are native inside the probes (see leavitt.linalg), as are
the label operators of the modules and the rows of Closure.echelon, a
native pivot table.  The arrow and ghost operators of a prefix module, and
the ghost operators of a staircase quotient, are tabled for the window
they were built for: each label's image is computed once, on first
request, and every later request returns the same dict, so callers read
operator images and never write them.

The probes skip work whose result is already known: a graph with one
vertex gets no vertex operator, since its idempotent is the unit (one rule,
_vertex_ops, lists them for both kinds of module); only a seed walks the
vertex operators, and no ghost walks a row made by an arrow, since the
relations put each such image in the span already (ModuleOps.ops_after);
the run of whole degrees a closure holds is read off its pivots; and a
sample closure stops walking once it holds the generator, which is all
the simplicity probe asks of it then.

Every public function and method takes and returns field scalars: vectors
are encoded once as they come in, as Closure seeds and contains
arguments, and decoded once on the way out, as witnesses, socle and
annihilator vectors, and the basis, unit_coords and table of an
EndomorphismReport.
"""

import random
from collections import deque

from .digraph import Path, ghost_sort_key
from .errors import PreconditionError
from .fields import add_into
from .linalg import SpanEchelon, add_native, decode, encode
from .schreier import SchreierStaircase, element_to_ghost


# -- op adapters --------------------------------------------------------------


class ModuleOps:
    """A module presented through label level operators.

    ops is an ordered list of (name, fn) where fn maps a basis label to a
    native vector, or to None when the image leaves the degree window; a
    name is v:u for the vertex u, a* for the ghost of the arrow a, and a
    for the arrow.  The vector may be held in a table and handed out
    again, so it is read-only to callers; tables maps the name of each
    tabled operator to its table.  Every probe below explores the closure
    of the generator, a vector of field scalars, under these operators
    inside the window.
    """

    def __init__(self, field, ops, generator, sort_key, degree_of, window, tables=None):
        self.field = field
        self.ops = ops
        self.generator = generator
        self.sort_key = sort_key
        self.degree_of = degree_of
        self.window = window
        self.tables = {} if tables is None else tables
        # the ops that rows made by a vertex or a ghost walk, and those that
        # rows made by an arrow walk
        self._after_other = [op for op in ops if not op[0].startswith("v:")]
        self._after_arrow = [op for op in self._after_other if not op[0].endswith("*")]

    def ops_after(self, made_by):
        """The (name, fn) ops to walk on a row the op named made_by made.

        A seed, made by None, walks every op.  No other row walks a vertex:
        u(v.x) = δ(u,v) v.x, v(a.x) = δ(v,s(a)) a.x and v(a*.x) = δ(v,r(a))
        a*.x are the row or zero.  A row made by an arrow walks no ghost:
        by e*f = δ(e,f) r(f), a*(a.x) is r(a).x, which the walk already
        holds as x or its image under a vertex, and b*(a.x) is zero.  Only
        seeds see ops given after the ModuleOps was built.
        """
        if made_by is None:
            return self.ops
        if made_by.startswith("v:") or made_by.endswith("*"):
            return self._after_other
        return self._after_arrow

    def apply(self, fn, vec):
        out, p = {}, self.field.characteristic
        for label, coeff in vec.items():
            img = fn(label)
            if img is None:
                return None
            add_native(out, img, coeff, p)
        return out


# The image of every label an operator kills: one dict, shared and never written.
EMPTY_IMAGE = {}


def _vertex_ops(graph, act):
    """The operator label -> act(v, label) of each vertex v, sorted by name.

    They are listed only on a graph with two or more vertices: the
    idempotent of a lone vertex is the unit, so its operator would send
    every vector to itself, and no span or equation could change.
    """
    if len(graph.vertices) < 2:
        return []
    return [(f"v:{v}", lambda label, v=v: act(v, label)) for v in sorted(graph.vertices)]


def _tabled(tables, name, act, arg, degree_of, window):
    """The op (name, fn) whose fn tables act(arg, label) in tables[name],
    storing None for an image past the window and EMPTY_IMAGE for zero."""
    table = tables[name] = {}

    def fn(lab):
        try:
            return table[lab]
        except KeyError:
            pass
        img = act(arg, lab)
        if not img:
            img = EMPTY_IMAGE
        elif max(map(degree_of, img)) > window:
            img = None
        table[lab] = img
        return img

    return name, fn


def prefix_ops(space, window):
    """Operators of a prefix module: vertices, arrows, ghost arrows.

    Each arrow and ghost operator tables its images.  The tables live as
    long as the returned ModuleOps, so every closure and solve that reuses
    it shares them.
    """
    space.check_family_cap(window)
    tables = {}
    ops = _vertex_ops(space.graph, space.act_vertex)
    arrows = space.active_arrows()
    ops += [_tabled(tables, str(a), space.act_arrow, a, space.degree, window) for a in arrows]
    ops += [_tabled(tables, f"{a}*", space.act_ghost, a, space.degree, window) for a in arrows]
    gen = space.generator_vector()
    return ModuleOps(space.field, ops, gen, space.label_sort_key, space.degree, window, tables)


def staircase_ops(staircase):
    """Operators of the quotient by a staircase ideal, a ghost side module.

    A ghost's image of a word is the normal form of the word extended by
    its arrow.  An extended word past the degree holds no pivot, so it is
    its own normal form, and the window guard drops it.
    """
    graph, field, degree = staircase.graph, staircase.field, staircase.degree
    reduce = staircase._echelon.reduce

    def ghost(a, p):
        return reduce({p.concat(a): 1})[0] if p.target == a.source else EMPTY_IMAGE

    tables = {}
    ops = _vertex_ops(graph, lambda v, p: {p: 1} if p.target == v else {})
    arrows = graph.all_arrows(staircase.family_cap)
    ops += [_tabled(tables, f"{a}*", ghost, a, len, degree) for a in arrows]
    gen = staircase.reduce({Path.vertex(v): field.one for v in graph.vertices})
    if not gen:
        raise PreconditionError("the unit maps to zero in this quotient")
    return ModuleOps(field, ops, gen, ghost_sort_key, len, degree, tables)


# -- spans ------------------------------------------------------------------------


class Closure:
    """The reachable span of some seed vectors inside a degree window.

    A closure starts empty and grows: extend inserts new seeds and walks
    the operators from the rows they add, so the rows already walked are
    never walked again.
    """

    def __init__(self, mod):
        self.mod = mod
        self.echelon = SpanEchelon(mod.field, mod.sort_key)
        self.overflowed = False

    @property
    def dim(self):
        return self.echelon.rank

    def contains(self, vec):
        return self.echelon.contains(encode(self.mod.field, vec))

    def extend(self, seeds, goal=None):
        """Add the seeds and everything the operators reach from them.

        With a nonzero goal, a vector of field scalars, the walk stops as
        soon as the span holds the goal, and then dim, overflowed and the
        span describe only the part walked so far.  When the span never
        holds the goal the walk runs to completion, as it does without one.

        Each new row is queued with the name of the operator that made it
        and walks mod.ops_after that name; a seed walks every operator.  A
        row is walked whole before the rows it makes, so the images a row
        skips are already in the span.
        """
        mod, ech = self.mod, self.echelon
        lead = None
        if goal is not None:
            goal = encode(mod.field, goal)
            # every vector of the span leads with a pivot, so the goal can
            # lie in it only once its leading label is one
            lead = max(goal, key=mod.sort_key, default=None)

        def reached():
            return lead in ech.rows and ech.contains(goal)

        queue = deque()
        for seed in seeds:
            if any(mod.degree_of(l) > mod.window for l in seed):
                raise PreconditionError("seed vector does not fit in the window")
            seed = encode(mod.field, seed)
            if ech.insert(seed)[2] is not None:
                if reached():
                    return self
                queue.append((seed, None))
        while queue:
            row, made_by = queue.popleft()
            for name, fn in mod.ops_after(made_by):
                img = mod.apply(fn, row)
                if img is None:
                    self.overflowed = True
                elif img and ech.insert(img)[2] is not None:
                    if reached():
                        return self
                    queue.append((img, name))
        return self


def span_closure(mod, seeds, goal=None):
    return Closure(mod).extend(seeds, goal)


def cyclic_submodule(space, seeds, window):
    """Closure of the seeds under the module operators, degree capped."""
    return span_closure(prefix_ops(space, window), seeds)


# -- simplicity -------------------------------------------------------------------


def _random_nonzero_scalar(field, rng):
    if field.characteristic:
        return field.of(rng.randrange(1, field.characteristic))
    return field.of(rng.choice([1, 2, 3, -1, -2, -3]))


def simplicity_probe(space, window, samples=12, seed=0):
    """Search for a proper nonzero submodule of the cyclic module.

    Random nonzero vectors of degree at most the window are tested for
    whether their closure regenerates the generator, together with every
    low degree combination killed by all ghost arrows.  A sample missing
    the generator witnesses a proper submodule when the miss is certified:
    either its closure is complete, or prepends are free and the window
    leaves room above the degrees of the sample and the generator, which
    makes the windowed span decide membership.  An uncertified miss only
    leaves the probe inconclusive.
    """
    mod = prefix_ops(space, window)
    gen = space.generator_vector()
    rng = random.Random(seed)
    labels = space.labels(window)
    family_capped = bool(space.graph.family_names)
    gen_deg = max(space.degree(lab) for lab in gen)

    candidates = []
    for _ in range(samples):
        picks = rng.sample(labels, min(len(labels), rng.randint(1, 3)))
        m = {lab: _random_nonzero_scalar(space.field, rng) for lab in picks}
        if m:
            candidates.append(m)
    candidates.extend(ghost_socle(space, min(window, gen_deg + 1)))

    tested = 0
    inconclusive = False
    for m in candidates:
        tested += 1
        # the walk stops once it reaches the generator, so dim, overflowed
        # and the span are read only from a sample that walked to the end
        sub = span_closure(mod, [m], goal=gen)
        if sub.contains(gen):
            continue
        m_deg = max(space.degree(lab) for lab in m)
        certified = (not sub.overflowed and not family_capped) or (
            space.free_prepend and window >= gen_deg + m_deg
        )
        if certified:
            return {
                "verdict": "proper_submodule",
                "witness": m,
                "witness_str": space.vector_str(m),
                "submodule_dim": sub.dim,
                "window": window,
                "samples": tested,
                "seed": seed,
            }
        inconclusive = True
    # the generator's own closure is read only by this report
    base = span_closure(mod, [gen])
    return {
        "verdict": "inconclusive" if inconclusive else "witnessed_simple_up_to",
        "window": window,
        "samples": tested,
        "seed": seed,
        "dim": base.dim,
        "overflowed": base.overflowed,
        "family_capped": family_capped,
    }


# -- composition chains --------------------------------------------------------------


def ghost_annihilated(space, vec, modulo=None):
    """Whether every active ghost arrow sends vec to zero, or into the span
    of the Closure modulo when one is given."""
    vec = encode(space.field, vec)
    for a in space.active_arrows():
        img = space._apply(space.act_ghost, a, vec)
        if img if modulo is None else not modulo.echelon.contains(img):
            return False
    return True


def socle_filter(space, vectors):
    """Combinations of the given vectors killed by every active ghost arrow.

    Returns a list of vectors, one per independent combination.
    """
    field, p = space.field, space.field.characteristic
    vectors = [encode(field, vec) for vec in vectors]
    arrows = space.active_arrows()
    arrow_rank = {a: i for i, a in enumerate(arrows)}

    def stacked_key(key):
        return (arrow_rank[key[0]], space.label_sort_key(key[1]))

    ech = SpanEchelon(field, stacked_key)
    out = []
    for i, vec in enumerate(vectors):
        stacked = {}
        for a in arrows:
            for lab, c in space._apply(space.act_ghost, a, vec).items():
                stacked[(a, lab)] = c
        rel = ech.relation(stacked, i)
        if rel is not None:
            found = {}
            for j, c in rel.items():
                add_native(found, vectors[j], c, p)
            if found:
                out.append(decode(field, found))
    return out


def ghost_socle(space, degree):
    """Vectors of degree at most ``degree`` killed by every active ghost."""
    one = space.field.one
    return socle_filter(space, [{lab: one} for lab in space.labels(degree)])


def chain_candidates(space):
    """Candidate composition chain bottom-up: socle pieces first, generator last.

    The policy is shaped by the module kind: wrap combinations and bare
    slots at infinite junctions for the polynomial quotient modules, the
    designated socle generator for the weighted ones, and the ghost image
    of the defining relation for the two arrow fixtures.
    """
    field = space.field
    gen = space.generator_vector()
    kind = space.metadata.get("kind", "")
    chain = []
    if kind == "rangaswamy":
        # bare slots at infinite junctions are listed below, so the socle
        # candidate worth prepending is the wrap combination
        socle = [k for k in ghost_socle(space, len(space.delta)) if len(k) > 1]
        chain.extend(socle[:1])
        for i in range(space.size):
            if space.graph.classify_vertex(space.slot_base(i)) == "infinite_emitter":
                chain.append({space.bare(i): field.one})
    elif kind == "mantese" and space.variant == "infinite_emitter":
        chain.append(space.socle_generator())
    elif kind == "linear_example" and space.variant == "infinite_emitter":
        relation = space.relation_vector()
        chain.append(space.ghost_apply(space.a, relation))
        chain.append(relation)
    if not chain or chain[-1] != gen:
        chain.append(gen)
    return chain


def composition_probe(space, candidates, window):
    """Verify a chain of cyclic submodules and type its factors.

    candidates are vectors m_1, ..., m_k; step i examines the closure of
    the first i of them, grown from the previous step by m_i.  A factor is
    typed S_u when the vertex u fixes m_i and every active ghost arrow
    sends m_i into the previous step, which pins the factor as the
    boundary simple at u.
    """
    cl = Closure(prefix_ops(space, window))
    p = space.field.characteristic
    factors = []
    for m in candidates:
        prev_dim = cl.dim
        strict = not cl.contains(m)
        vertex = None
        if strict and ghost_annihilated(space, m, modulo=cl):
            native = encode(space.field, m)
            for u in sorted(space.graph.vertices):
                fixed = dict(native)
                add_native(fixed, space._apply(space.act_vertex, u, native), -1, p)
                if cl.echelon.contains(fixed):
                    vertex = u
                    break
        cl.extend([m])
        factors.append(
            {
                "generator_str": space.vector_str(m),
                "strict": strict,
                "dim_jump": cl.dim - prev_dim,
                "type": "other" if vertex is None else f"S_{vertex}",
                "vertex": vertex,
            }
        )
    # Labels come sorted by degree, and each row's tail sorts below its
    # pivot, so every label up to the first one that is not a pivot lies in
    # the span, and that one does not: it ends the run of whole degrees.
    exhausted = window
    for lab in space.labels(window):
        if lab not in cl.echelon.rows:
            exhausted = space.degree(lab) - 1
            break
    return {
        "length": len(candidates),
        "strict": all(f["strict"] for f in factors),
        "factors": factors,
        "overflowed": cl.overflowed,
        "window": window,
        "family_capped": bool(space.graph.family_names),
        "exhausts_degree": exhausted,
        "dim": cl.dim,
    }


# -- endomorphisms ------------------------------------------------------------------


def _express(field, free_vars, basis, vec):
    """Coordinates of a native vec over a native basis, decoded, or None."""
    p = field.characteristic
    coords = tuple(vec.get(f, 0) for f in free_vars)
    check = {}
    for c, b in zip(coords, basis):
        add_native(check, b, c, p)
    add_native(check, vec, -1, p)
    return None if check else tuple(map(field.scalar, coords))


class EndomorphismReport:
    """Solution space of the endomorphism equations a window could form.

    basis holds the images of the generator under a basis of the solution
    space; dimension is an upper bound for the endomorphisms that move the
    generator within the variable degree.  table maps basis index pairs to
    coordinates of the composite, apply j then i, when the composite could
    be evaluated and expressed; table_closes says all of them could.
    """

    def __init__(
        self, field, free_vars, basis, dimension, unit_coords, table, table_closes,
        overflowed, equations, independent, window, variable_degree,
    ):
        self.field = field
        self.free_vars = free_vars
        self.basis = basis
        self.dimension = dimension
        self.unit_coords = unit_coords
        self.table = table
        self.table_closes = table_closes
        self.overflowed = overflowed
        self.equations = equations
        self.independent = independent
        self.window = window
        self.variable_degree = variable_degree

    def express(self, vec):
        """Coordinates of vec over the basis, or None when it is outside."""
        field = self.field
        basis = [encode(field, b) for b in self.basis]
        return _express(field, self.free_vars, basis, encode(field, vec))

    def compose(self, c1, c2):
        """Coordinates of the composite endomorphism, apply c2 then c1."""
        if self.table is None:
            return None
        out = {}
        for i, a in enumerate(c1):
            if not a:
                continue
            for j, b in enumerate(c2):
                if not b:
                    continue
                cell = self.table.get((i, j))
                if cell is None:
                    return None
                add_into(self.field, out, dict(enumerate(cell)), a * b)
        return tuple(out.get(k, self.field.zero) for k in range(self.dimension))


def endomorphism_probe(target, degree=None):
    """Upper bound the endomorphisms of a cyclic module by linear algebra.

    target is a prefix module or a SchreierStaircase.  An endomorphism is
    determined by the image z of the generator; every relation witnessed
    inside the window between reachable vectors imposes a linear
    condition on z.  The image of the generator is constrained to degree
    at most degree - 1, the variable degree, so that its whole orbit over
    the window stays observable.  The reported dimension is an upper bound
    on the endomorphisms that move the generator within the variable
    degree; that two degrees agree does not make it exact.  The
    report carries the solution space, the composition table over its
    basis, and honest flags for window overflow.  A degree that leaves the
    generator itself outside that range, so that not even the identity
    could be found, raises PreconditionError.

    As in Closure.extend, a row walks mod.ops_after the operator that made
    it.  The equations the skipped operators would give are zero on a graph
    with one vertex and repeat the vertex operators' on a larger one, so
    the report is unchanged but for a lower equations count there.
    """
    if isinstance(target, SchreierStaircase):
        degree = target.degree if degree is None else degree
        mod = staircase_ops(target)
        variables = [p for p in target.coset_basis() if len(p) < degree]
    elif degree is None:
        raise PreconditionError("an endomorphism probe needs a degree")
    else:
        mod = prefix_ops(target, degree)
        variables = target.labels(degree - 1)
    gen_deg = max(map(mod.degree_of, mod.generator))
    if degree <= gen_deg:
        raise PreconditionError(
            f"the generator has degree {gen_deg}, so an endomorphism probe "
            f"needs degree at least {gen_deg + 1}, not {degree}"
        )
    field = mod.field
    p = field.characteristic
    var_index = {v: i for i, v in enumerate(variables)}
    # Row i is the image of the generator under a word of the operators.
    # Its symbolic image, syms[i], maps each variable to the image of the
    # variable's label under that word, when it is nonzero: the word's
    # image of z is the sum of z[var] * syms[i][var].  It is None when an
    # image leaves the window.
    rows = [encode(field, mod.generator)]
    syms = [{v: {v: 1} for v in variables}]
    ech = SpanEchelon(field, mod.sort_key)
    ech.insert(rows[0], {0: 1})
    constraints = SpanEchelon(field, var_index.__getitem__)
    eq_count = 0
    overflow = False
    queue = deque([(0, None)])
    while queue:
        i, made_by = queue.popleft()
        for name, fn in mod.ops_after(made_by):
            img = mod.apply(fn, rows[i])
            if img is None:
                overflow = True
                continue
            sym_img = None if syms[i] is None else {}
            for var, vec in (syms[i] or {}).items():
                out = mod.apply(fn, vec)
                if out is None:
                    sym_img = None
                    break
                if out:
                    sym_img[var] = out
            new = len(rows)
            rel = ech.relation(img, new)
            if rel is None:
                rows.append(img)
                syms.append(sym_img)
                queue.append((new, name))
                continue
            # The sum of rel[j] * syms[j], where the image's own symbolic
            # image sits at the new index, must vanish: transposed, each
            # label it holds gives one equation over the variables.  They
            # come out roughly in label order, and inserted from the last
            # label back they leave the constraints less to eliminate.
            if sym_img is None or any(syms[j] is None for j in rel if j != new):
                continue
            total = {}
            for j, c in rel.items():
                for var, vec in (sym_img if j == new else syms[j]).items():
                    add_native(total.setdefault(var, {}), vec, c, p)
            eqs = {}
            for var, vec in total.items():
                for lab, c in vec.items():
                    eqs.setdefault(lab, {})[var] = c
            eq_count += len(eqs)
            for var_row in reversed(eqs.values()):
                constraints.insert(var_row)
    free_vars = [v for v in variables if v not in constraints.rows]
    basis = constraints.kernel(variables)
    table, closes = None, False
    if 0 < len(basis) <= 16:
        table, closes = {}, True
        for j, zj in enumerate(basis):
            rem, combo = ech.reduce(zj)
            usable = not rem and all(syms[k] is not None for k in combo)
            for i, zi in enumerate(basis):
                cell = None
                if usable:
                    # the composite sends the generator to the rows' words applied to zi
                    image = {}
                    for k, c in combo.items():
                        for var, vec in syms[k].items():
                            if var in zi:
                                add_native(image, vec, c * zi[var], p)
                    cell = _express(field, free_vars, basis, image)
                table[(i, j)] = cell
                closes = closes and cell is not None
    return EndomorphismReport(
        field, free_vars, [decode(field, z) for z in basis], len(basis),
        unit_coords=_express(field, free_vars, basis, rows[0]),
        table=table, table_closes=closes, overflowed=overflow,
        equations=eq_count, independent=constraints.rank, window=mod.window,
        variable_degree=max((mod.degree_of(v) for v in variables), default=None),
    )


# -- annihilators -------------------------------------------------------------------


def annihilator_staircase(space, vec, degree):
    """Ghost side annihilator of a module vector, echelonized by leading word.

    Walks the ghost words beta* in staircase order, reduces their images
    against the span of the earlier ones, and emits a kernel element with
    leading word beta whenever the image is dependent.  The result is the
    list of kernel ghost vectors; their leading words form the pivot set
    of the annihilator staircase at this degree.
    """
    space.check_family_cap(degree)
    field = space.field
    vec = encode(field, vec)
    ech = SpanEchelon(field, space.label_sort_key)
    kernel = []
    words = space.graph.all_paths(degree, space.family_cap)
    for beta in sorted(words, key=ghost_sort_key):
        rel = ech.relation(space._monomial(Path.vertex(beta.target), beta, vec), beta)
        if rel is not None:
            kernel.append(decode(field, rel))
    return kernel


def annihilator_member_fn(space, vec):
    """Membership oracle for the annihilator of vec: "in" or "out", exact on ghost elements."""
    vec = encode(space.field, vec)

    def member(element):
        element_to_ghost(element)  # refuses a monomial with a real arrow
        return "out" if space._element(element, vec) else "in"

    return member


def chen_annihilator_membership(word, element):
    """Decide whether a ghost element annihilates the class of word.

    In the shift module built from an infinite word the class of the word
    itself is killed exactly by the ghost monomials that are not one of its
    own prefixes: beta* fixes the class when beta reads off the start of
    the word and kills it otherwise.  The prefix monomials project onto a
    complement of the annihilator, so membership reduces to checking that
    every prefix coefficient vanishes.  Returns "in" or "out".
    """
    for beta in element_to_ghost(element):
        if beta.is_vertex:
            if beta.source == word.source:
                return "out"
        elif tuple(word.window(len(beta))) == beta.arrows:
            return "out"
    return "in"
