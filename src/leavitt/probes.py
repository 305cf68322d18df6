"""Bounded structural probes for modules.

Everything here works inside a degree window and reports what it actually
witnessed.  A probe never claims more than its window supports: spans that
hit the window boundary are flagged as overflowed, membership of a vector
in a truncated span is only trusted in the positive direction, and the
endomorphism solver returns the solution space of the equations it could
form, together with whether its multiplication table closed.
"""

import random
from collections import deque

from .digraph import Path, ghost_sort_key
from .errors import PreconditionError
from .linalg import SpanEchelon, vec_add_into
from .schreier import SchreierStaircase, element_to_ghost


# -- op adapters --------------------------------------------------------------


class ModuleOps:
    """A module presented through label level operators.

    ops is an ordered list of (name, fn) where fn maps a basis label to a
    vector, or to None when the image leaves the degree window.  The
    closure of the generator under these operators inside the window is
    what every probe below explores.
    """

    def __init__(self, field, ops, generator, sort_key, degree_of, window):
        self.field = field
        self.ops = ops
        self.generator = generator
        self.sort_key = sort_key
        self.degree_of = degree_of
        self.window = window

    def apply(self, fn, vec):
        out = {}
        for label, coeff in vec.items():
            img = fn(label)
            if img is None:
                return None
            vec_add_into(self.field, out, img, coeff)
        return out


def prefix_ops(space, window):
    """Operators of a prefix module: vertices, arrows, ghost arrows."""

    def guard(img):
        if img and max(space.degree(l) for l in img) > window:
            return None
        return img

    ops = []
    for v in sorted(space.graph.vertices):
        ops.append((f"v:{v}", lambda lab, v=v: space.act_vertex(v, lab)))
    arrows = space.active_arrows()
    for a in arrows:
        ops.append((str(a), lambda lab, a=a: guard(space.act_arrow(a, lab))))
    for a in arrows:
        ops.append((f"{a}*", lambda lab, a=a: guard(space.act_ghost(a, lab))))
    return ModuleOps(
        space.field,
        ops,
        space.generator_vector(),
        space.label_sort_key,
        space.degree,
        window,
    )


def staircase_ops(staircase):
    """Operators of the quotient by a staircase ideal, a ghost side module."""
    graph, field = staircase.graph, staircase.field

    ops = []
    for v in sorted(graph.vertices):
        ops.append(
            (
                f"v:{v}",
                lambda p, v=v: {p: field.one} if p.target == v else {},
            )
        )
    for a in graph.all_arrows(staircase.family_cap):

        def ghost(p, a=a):
            if p.target != a.source:
                return {}
            if len(p) + 1 > staircase.degree:
                return None
            return staircase.reduce({p.concat(a): field.one})

        ops.append((f"{a}*", ghost))
    gen = {}
    for v in sorted(graph.vertices):
        gen[Path.vertex(v)] = field.one
    gen = staircase.reduce(gen)
    if not gen:
        raise PreconditionError("the unit maps to zero in this quotient")
    return ModuleOps(
        field,
        ops,
        gen,
        ghost_sort_key,
        len,
        staircase.degree,
    )


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
        return self.echelon.contains(vec)

    def extend(self, seeds):
        """Add the seeds and everything the operators reach from them."""
        mod, ech = self.mod, self.echelon
        queue = deque()
        for seed in seeds:
            if any(mod.degree_of(l) > mod.window for l in seed):
                raise PreconditionError("seed vector does not fit in the window")
            if ech.insert(seed)[2] is not None:
                queue.append(dict(seed))
        while queue:
            row = queue.popleft()
            for _, fn in mod.ops:
                img = mod.apply(fn, row)
                if img is None:
                    self.overflowed = True
                elif img and ech.insert(img)[2] is not None:
                    queue.append(img)
        return self


def span_closure(mod, seeds):
    return Closure(mod).extend(seeds)


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
    base = span_closure(mod, [gen])
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
    low = [
        {lab: space.field.one}
        for lab in labels
        if space.degree(lab) <= min(window, gen_deg + 1)
    ]
    candidates.extend(vec for vec in socle_filter(space, low) if vec)

    tested = 0
    inconclusive = False
    for m in candidates:
        tested += 1
        sub = span_closure(mod, [m])
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
    """Whether every active ghost arrow sends vec into the given span."""
    for a in space.active_arrows():
        img = space.ghost_apply(a, vec)
        if modulo is not None:
            img, _ = modulo.reduce(img)
        if img:
            return False
    return True


def socle_filter(space, vectors, modulo=None):
    """Combinations of the given vectors killed by every active ghost arrow.

    Images are taken modulo an optional SpanEchelon.  Returns a list of
    vectors, one per independent combination.
    """
    field = space.field
    arrows = space.active_arrows()
    arrow_rank = {a: i for i, a in enumerate(arrows)}

    def stacked_key(key):
        return (arrow_rank[key[0]], space.label_sort_key(key[1]))

    ech = SpanEchelon(field, stacked_key)
    out = []
    for i, vec in enumerate(vectors):
        stacked = {}
        for a in arrows:
            img = space.ghost_apply(a, vec)
            if modulo is not None:
                img, _ = modulo.reduce(img)
            for lab, c in img.items():
                stacked[(a, lab)] = c
        rem, combo, piv = ech.insert(stacked, {i: field.one})
        if piv is None:
            found = {}
            vec_add_into(field, found, vec, field.one)
            for j, c in combo.items():
                vec_add_into(field, found, vectors[j], -c)
            if found:
                out.append(found)
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
                chain.append({(Path.vertex(space.slot_base(i)), i): field.one})
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
    factors = []
    for m in candidates:
        prev_dim = cl.dim
        strict = not cl.contains(m)
        vertex = None
        if strict and ghost_annihilated(space, m, modulo=cl.echelon):
            for u in sorted(space.graph.vertices):
                fixed = dict(m)
                vec_add_into(space.field, fixed, space.vertex_apply(u, m), -space.field.one)
                if cl.contains(fixed):
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
    # labels come sorted by degree, so the first one missed ends the run
    exhausted = window
    for lab in space.labels(window):
        if not cl.contains({lab: space.field.one}):
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


def _sym_apply(field, fn, sym):
    out = {}
    for lab, var_row in sym.items():
        img = fn(lab)
        if img is None:
            return None
        for lab2, c in img.items():
            acc = out.setdefault(lab2, {})
            vec_add_into(field, acc, var_row, c)
            if not acc:
                del out[lab2]
    return out


def _sym_eval(field, sym, zvec):
    out = {}
    for lab, var_row in sym.items():
        s = field.zero
        for var, c in var_row.items():
            zc = zvec.get(var)
            if zc is not None:
                s = s + c * zc
        if s:
            out[lab] = s
    return out


class EndomorphismReport:
    """Solution space of the endomorphism equations a window could form.

    basis holds the images of the generator under a basis of the solution
    space; dimension is an upper bound for the endomorphisms that move the
    generator within the variable degree.  table maps basis index pairs to
    coordinates of the composite, apply j then i, when the composite could
    be evaluated and expressed; table_closes says all of them could.
    """

    def __init__(self, field, free_vars, basis, dimension):
        self.field = field
        self.free_vars = free_vars
        self.basis = basis
        self.dimension = dimension
        self.unit_coords = None
        self.table = None
        self.table_closes = False
        self.overflowed = False
        self.equations = 0
        self.independent = 0
        self.window = None
        self.variable_degree = None

    def express(self, vec):
        """Coordinates of vec over the basis, or None when it is outside."""
        coords = tuple(vec.get(f, self.field.zero) for f in self.free_vars)
        check = {}
        for c, b in zip(coords, self.basis):
            vec_add_into(self.field, check, b, c)
        vec_add_into(self.field, check, vec, -self.field.one)
        return None if check else coords

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
                for k, c in enumerate(cell):
                    if c:
                        out[k] = out.get(k, self.field.zero) + a * b * c
        return tuple(out.get(k, self.field.zero) for k in range(self.dimension))


def endomorphism_probe(target, degree=None):
    """Upper bound the endomorphisms of a cyclic module by linear algebra.

    target is a prefix module or a SchreierStaircase.  An endomorphism is
    determined by the image z of the generator; every relation witnessed
    inside the window between reachable vectors imposes a linear
    condition on z.  The image of the generator is constrained to degree
    at most degree - 1 so that its whole orbit over the window stays
    observable, and the reported dimension is an upper bound that is
    reliable once two consecutive degrees agree.  The report carries the
    solution space, the composition table over its basis, and honest
    flags for window overflow.
    """
    if isinstance(target, SchreierStaircase):
        vdeg = (target.degree if degree is None else degree) - 1
        mod = staircase_ops(target)
        variables = [p for p in target.coset_basis() if len(p) <= vdeg]
    else:
        if degree is None:
            raise PreconditionError("an endomorphism probe needs a degree")
        mod = prefix_ops(target, degree)
        variables = target.labels(degree - 1)
    field = mod.field
    one = field.one
    var_index = {v: i for i, v in enumerate(variables)}
    rows = [dict(mod.generator)]
    syms = [{v: {v: one} for v in variables}]
    ech = SpanEchelon(field, mod.sort_key)
    ech.insert(rows[0], {0: one})
    constraints = SpanEchelon(field, var_index.__getitem__)
    eq_count = 0
    overflow = False
    queue = deque([0])
    while queue:
        i = queue.popleft()
        sym_i = syms[i]
        for _, fn in mod.ops:
            img = mod.apply(fn, rows[i])
            if img is None:
                overflow = True
                continue
            sym_img = None if sym_i is None else _sym_apply(field, fn, sym_i)
            _, combo, piv = ech.insert(img, {len(rows): one})
            if piv is not None:
                rows.append(img)
                syms.append(sym_img)
                queue.append(len(rows) - 1)
                continue
            if sym_img is None:
                continue
            if any(syms[j] is None for j in combo):
                continue
            eq = {}
            for lab, var_row in sym_img.items():
                eq[lab] = dict(var_row)
            for j, c in combo.items():
                for lab, var_row in syms[j].items():
                    acc = eq.setdefault(lab, {})
                    vec_add_into(field, acc, var_row, -c)
                    if not acc:
                        del eq[lab]
            for var_row in eq.values():
                eq_count += 1
                constraints.insert(var_row)
    free_vars = [v for v in variables if v not in constraints.rows]
    basis = constraints.kernel(variables)
    report = EndomorphismReport(field, free_vars, basis, len(basis))
    report.overflowed = overflow
    report.equations = eq_count
    report.independent = constraints.rank
    report.window = mod.window
    report.variable_degree = None if not variables else max(
        mod.degree_of(v) for v in variables
    )
    report.unit_coords = report.express(mod.generator)
    if report.dimension and report.dimension <= 16:
        table = {}
        closes = True
        for j, zj in enumerate(basis):
            rem, combo = ech.reduce(zj)
            usable = not rem and all(syms[k] is not None for k in combo)
            for i, zi in enumerate(basis):
                cell = None
                if usable:
                    image = {}
                    for k, c in combo.items():
                        vec_add_into(field, image, _sym_eval(field, syms[k], zi), c)
                    cell = report.express(image)
                table[(i, j)] = cell
                closes = closes and cell is not None
        report.table = table
        report.table_closes = closes
    return report


# -- annihilators -------------------------------------------------------------------


def _ghost_word_apply(space, beta, vec):
    """The image of a module vector under the ghost word beta*."""
    if beta.is_vertex:
        return space.vertex_apply(beta.source, vec)
    for b in beta.arrows:
        vec = space.ghost_apply(b, vec)
        if not vec:
            break
    return vec


def annihilator_staircase(space, vec, degree, family_cap=None):
    """Ghost side annihilator of a module vector, echelonized by leading word.

    Walks the ghost words beta* in staircase order, reduces their images
    against the span of the earlier ones, and emits a kernel element with
    leading word beta whenever the image is dependent.  The result is the
    list of kernel ghost vectors; their leading words form the pivot set
    of the annihilator staircase at this degree.
    """
    cap = space.family_cap if family_cap is None else family_cap
    field = space.field
    ech = SpanEchelon(field, space.label_sort_key)
    kernel = []
    for beta in sorted(space.graph.all_paths(degree, cap), key=ghost_sort_key):
        img = _ghost_word_apply(space, beta, vec)
        rem, combo, piv = ech.insert(img, {beta: field.one})
        if piv is None:
            k = {beta: field.one}
            vec_add_into(field, k, combo, -field.one)
            kernel.append(k)
    return kernel


def annihilator_member_fn(space, vec):
    """Membership oracle for the annihilator of vec, exact on ghost elements."""

    def member(element):
        ghost = element_to_ghost(element)
        acc = {}
        for beta, coeff in ghost.items():
            vec_add_into(space.field, acc, _ghost_word_apply(space, beta, vec), coeff)
        return not acc

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
    ghost = element_to_ghost(element)
    for beta, coeff in ghost.items():
        if not coeff:
            continue
        if beta.is_vertex:
            if beta.source == word.source:
                return "out"
        elif tuple(word.window(len(beta))) == beta.arrows:
            return "out"
    return "in"
