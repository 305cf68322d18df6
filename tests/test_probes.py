import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from leavitt import (
    Path,
    SchreierStaircase,
    annihilator_member_fn,
    annihilator_staircase,
    chain_candidates,
    chen_annihilator_membership,
    chen_module,
    cohn_jacobson_module,
    composition_probe,
    cyclic_submodule,
    endomorphism_probe,
    field_extension,
    ghost_annihilated,
    ghost_socle,
    hilbert_module,
    linear_example_module,
    mantese_module,
    mantese_rangaswamy_presentation,
    not_open_up_to,
    parse_element,
    parse_field,
    parse_graph,
    parse_path,
    periodic_word,
    probes,
    quaternion_algebra,
    rangaswamy_module,
    simplicity_probe,
    socle_filter,
    thue_morse_word,
)
from leavitt.errors import PreconditionError
from leavitt.linalg import SpanEchelon, add_native, decode, encode
from leavitt.probes import Closure, ModuleOps, prefix_ops, span_closure, staircase_ops

from conftest import TWOLOOP_TAIL
from oracles import (
    DenseSpan,
    dense_closure,
    eager_endomorphism,
    guarded_arrow_image,
    long_way,
    paths_by_target,
    random_ghost_element,
    sorted_exhausts_degree,
    unpruned_ops,
    unpruned_staircase_ops,
)
from test_representations import every_construction
from test_schreier import QUAT_GENS


def loops(graph, *names):
    return tuple(parse_path(graph, n).arrows[0] for n in names)


# -- echelon bookkeeping ------------------------------------------------------------


def test_span_echelon_tracks_combinations(q):
    rng = random.Random(3)
    ech = SpanEchelon(q, lambda k: k)
    raws = []
    for i in range(12):
        vec = encode(q, {
            rng.randrange(6): q.of(rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))
        })
        raws.append(dict(vec))
        rem, combo, piv = ech.insert(vec, {i: 1})
        # input = remainder + combination of earlier raw inserts
        recon = dict(rem)
        for j, c in combo.items():
            add_native(recon, raws[j], c, 0)
        assert recon == raws[i]
        if piv is None:
            assert not rem


@pytest.mark.parametrize("tag", ["q", "gf:5"])
def test_span_echelon_relation_is_the_dependency_of_an_insert(tag):
    field = parse_field(tag)
    rng = random.Random(7)
    ech = SpanEchelon(field, lambda k: k)
    raws, relations = [], 0
    for i in range(12):
        vec = encode(field, {
            rng.randrange(5): field.of(rng.randint(-4, 4)) for _ in range(rng.randint(1, 3))
        })
        raws.append(vec)
        rank = ech.rank
        rel = ech.relation(vec, i)
        if rel is None:
            assert ech.rank == rank + 1
            continue
        # the insert added no pivot, and the relation combines the raw
        # inserts, this one with coefficient 1, to zero
        relations += 1
        assert ech.rank == rank and rel[i] == 1 and max(rel) == i
        total = {}
        for j, c in rel.items():
            add_native(total, raws[j], c, field.characteristic)
        assert total == {}
    assert relations == 12 - ech.rank > 0


def test_span_echelon_reduce_is_idempotent(q):
    ech = SpanEchelon(q, lambda k: k)
    ech.insert({0: q.one, 1: q.one}, {0: q.one})
    ech.insert({1: q.one, 2: q.one}, {1: q.one})
    rem, _ = ech.reduce({0: q.one, 2: q.of(-1)})
    rem2, _ = ech.reduce(rem)
    assert rem == rem2
    assert ech.rank == 2


@st.composite
def sparse_systems(draw):
    """A field, a key count n, rows and probe vectors over keys 0..n-1, and
    a pivot order on the keys."""
    field = parse_field(draw(st.sampled_from(["q", "gf:3", "gf:7"])))
    n = draw(st.integers(1, 6))
    vectors = st.dictionaries(st.integers(0, n - 1), st.integers(-3, 3), max_size=n).map(
        lambda d: {k: field.of(c) for k, c in d.items() if field.of(c)}
    )
    rows = draw(st.lists(vectors, max_size=8))
    probes = draw(st.lists(vectors, max_size=4))
    order = draw(st.permutations(range(n)))
    return field, n, rows, probes, order


def _dot(field, row, vec):
    total = field.zero
    for k, c in row.items():
        total = total + c * vec.get(k, field.zero)
    return total


def _plus(field, a, b, scalar):
    """a + scalar * b over field scalars."""
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, field.zero) + scalar * c
    return {k: c for k, c in out.items() if c}


@given(sparse_systems())
def test_span_echelon_kernel_solves_the_system(system):
    field, n, rows, _, order = system
    ech = SpanEchelon(field, order.index)
    dense = DenseSpan(field)
    for row in rows:
        ech.insert(encode(field, row))
        dense.insert(row)
    kernel = [decode(field, z) for z in ech.kernel(list(range(n)))]
    assert ech.rank == dense.rank
    assert len(kernel) == n - ech.rank
    for z in kernel:
        assert all(not _dot(field, row, z) for row in rows)
    independent = DenseSpan(field)
    assert all(independent.insert(z) for z in kernel)


def test_span_echelon_kernel_substitutes_later_pivots(q):
    # The first row's tail holds x1, which only becomes a pivot with the
    # second row, so x2 = -x1 = x0 needs the second row substituted in.
    keys = ["x0", "x1", "x2"]
    ech = SpanEchelon(q, keys.index)
    ech.insert({"x2": q.one, "x1": q.one})
    ech.insert({"x1": q.one, "x0": q.one})
    assert ech.kernel(keys) == [{"x0": q.one, "x1": -q.one, "x2": q.one}]


@given(sparse_systems(), st.randoms(use_true_random=False))
def test_span_echelon_agrees_with_dense_span(system, rng):
    field, n, rows, probes, order = system
    shuffled = list(rows)
    rng.shuffle(shuffled)
    ech = SpanEchelon(field, order.index)
    other = SpanEchelon(field, order.index)
    dense = DenseSpan(field)
    for row in rows:
        ech.insert(encode(field, row))
        dense.insert(row)
    for row in shuffled:
        other.insert(encode(field, row))
    assert ech.rank == other.rank == dense.rank
    sums = [_plus(field, a, b, field.of(2)) for a, b in zip(rows, shuffled)]
    for vec in probes + rows + sums:
        native = encode(field, vec)
        rem, _ = ech.reduce(native)
        assert ech.contains(native) == dense.member(vec) == (not rem)
        assert not set(rem) & set(ech.rows)
        assert rem == other.reduce(native)[0]
        assert dense.member(_plus(field, vec, decode(field, rem), -field.one))


@st.composite
def one_key_runs(draw):
    """A field and a run of (vector, tagged) inserts over keys 0..5, most
    of them of one key, so that they land on new and on existing pivots."""
    field = parse_field(draw(st.sampled_from(["q", "gf:7"])))
    scalar = st.integers(-4, 4).map(field.of).filter(bool)
    one_key = st.builds(lambda k, c: {k: c}, st.integers(0, 5), scalar)
    wider = st.dictionaries(st.integers(0, 5), scalar, min_size=2, max_size=3)
    vector = st.one_of(one_key, one_key, wider)
    return field, draw(st.lists(st.tuples(vector, st.booleans()), max_size=12))


@given(one_key_runs())
def test_one_key_inserts_match_elimination(run):
    field, inserts = run
    p = field.characteristic
    tagged = SpanEchelon(field, lambda k: k)  # every insert tagged
    mixed = SpanEchelon(field, lambda k: k)  # tags as drawn
    dense = DenseSpan(field)
    raws = []
    for i, (vec, with_tag) in enumerate(inserts):
        native = encode(field, vec)
        raws.append(native)
        # the fast path returns what elimination returns, which reads but
        # does not write the echelon
        want = tagged._eliminate(native, True)
        rem, combo, pivot = tagged.insert(native, {i: 1})
        assert (rem, combo, pivot) == want
        recon = dict(rem)
        for j, c in combo.items():
            add_native(recon, raws[j], c, p)
        assert recon == native
        assert mixed.insert(native, {i: 1} if with_tag else None)[::2] == (rem, pivot)
        assert (pivot is not None) == dense.insert(vec)
        if pivot in native and len(native) == 1:
            assert tagged.rows[pivot] == {pivot: 1}
            assert tagged.tags[pivot] == {i: field.native_inverse(native[pivot])}
        assert tagged.rank == mixed.rank == dense.rank
    assert tagged.rows == mixed.rows
    for k in range(6):
        key = encode(field, {k: field.one})
        assert tagged.contains(key) == mixed.contains(key) == dense.member({k: field.one})


def handed_out(field, *vecs):
    """Whether every value of vecs is a scalar of field: a GFScalar of its
    modulus, or a Fraction over Q; never an int or a float."""
    kind = type(field.one)
    return all(type(c) is kind and field.of(c) is c for vec in vecs for c in vec.values())


def native_values(field, *vecs):
    """Whether every value of vecs is a native value of field: an int
    residue in [0, p) over GF(p), an int or a Fraction over Q; never a
    float."""
    p = field.characteristic
    if p:
        return all(type(c) is int and 0 <= c < p for vec in vecs for c in vec.values())
    return all(type(c) in (int, Fraction) for vec in vecs for c in vec.values())


@pytest.mark.parametrize("op", ["insert", "reduce", "contains", "insert tag"])
def test_span_echelon_refuses_foreign_scalars(op):
    # The kernel converts nothing; encode is where foreign scalars stop.
    gf7 = parse_field("gf:7")
    ech = SpanEchelon(gf7, lambda k: k)
    ech.insert(encode(gf7, {0: gf7.one, 1: gf7.of(3)}), encode(gf7, {"r": gf7.one}))

    def call(coeff):
        if op == "insert tag":
            return ech.insert(encode(gf7, {2: gf7.one}), encode(gf7, {"s": coeff}))
        return getattr(ech, op)(encode(gf7, {1: gf7.one, 0: coeff}))

    with pytest.raises(TypeError):
        call(2)
    with pytest.raises(PreconditionError):
        call(parse_field("gf:5").of(2))
    assert ech.rank == 1


@pytest.mark.parametrize("entry", ["staircase generators", "closure contains", "ghost_apply"])
def test_public_entry_points_refuse_foreign_scalars(roseab, entry):
    gf7 = parse_field("gf:7")
    M = mantese_module(roseab, gf7, "v", dict.fromkeys(loops(roseab, "a", "b"), gf7.one))
    cl = Closure(prefix_ops(M, 3))
    lab = M.generator_label

    def call(coeff):
        if entry == "staircase generators":
            return SchreierStaircase(roseab, gf7, [{Path.vertex("v"): coeff}], 2)
        if entry == "closure contains":
            return cl.contains({lab: coeff})
        return M.ghost_apply(loops(roseab, "a")[0], {lab: coeff})

    for coeff in (2, 0.5):
        with pytest.raises(TypeError):
            call(coeff)
    with pytest.raises(PreconditionError):
        call(parse_field("gf:5").of(2))
    assert cl.dim == 0


@given(sparse_systems())
def test_span_echelon_hands_out_field_scalars(system):
    # The kernel hands out native values, and decode makes field scalars
    # of them.
    field, n, rows, probes, order = system
    ech = SpanEchelon(field, order.index)
    for i, row in enumerate(rows):
        rem, combo, _ = ech.insert(encode(field, row), {i: 1})
        assert native_values(field, rem, combo)
        assert handed_out(field, decode(field, rem), decode(field, combo))
    for vec in probes + rows:
        reduced = ech.reduce(encode(field, vec))
        assert native_values(field, *reduced)
        assert handed_out(field, *(decode(field, v) for v in reduced))
    kernel = ech.kernel(list(range(n)))
    assert native_values(field, *kernel)
    assert handed_out(field, *(decode(field, z) for z in kernel))
    stored = [*ech.rows.values(), *ech.tags.values()]
    assert native_values(field, *stored)
    assert handed_out(field, *(decode(field, v) for v in stored))


@st.composite
def rational_rows(draw):
    """Rows over keys 0..4 with coefficients from a few drawn fractions."""
    pool = draw(st.lists(st.fractions(-9, 9, max_denominator=12), min_size=1, max_size=4))
    coeffs = st.dictionaries(st.integers(0, 4), st.sampled_from(pool), min_size=1, max_size=5)
    return draw(st.lists(coeffs, max_size=8))


@given(rational_rows())
def test_span_echelon_over_q_stores_no_floats(rows):
    q = parse_field("q")
    ech = SpanEchelon(q, lambda k: k)
    dense = DenseSpan(q)
    for i, row in enumerate(rows):
        rem, combo, _ = ech.insert(encode(q, row), {i: 1})
        dense.insert(row)
        assert native_values(q, rem, combo)
    assert ech.rank == dense.rank
    assert native_values(q, *ech.rows.values(), *ech.tags.values())
    assert all(ech.rows[p][p] == 1 for p in ech.rows)
    assert native_values(q, *ech.kernel(range(5)))
    with pytest.raises(TypeError):
        encode(q, {0: 0.5})


@pytest.mark.parametrize("tag", ["q", "gf:7"])
def test_derived_rules_hold_field_scalars(rose2, roseab, abfam, tag):
    field = parse_field(tag)
    a, b = loops(roseab, "a", "b")
    modules = (
        rangaswamy_module(rose2, field, parse_path(rose2, "x1.x2"), [field.of(2), field.zero, field.one]),
        mantese_module(roseab, field, "v", {a: field.one, b: field.of(2)}),
        chen_module(rose2, field, periodic_word(parse_path(rose2, "x1.x2"))),
        chen_module(abfam, field, periodic_word(parse_path(abfam, "b.a.a"))),
    )
    for M in modules:
        assert M.rules
        assert handed_out(field, *M.rules.values())


def test_span_echelon_kernel_refuses_rows_on_foreign_keys(q):
    ech = SpanEchelon(q, ["x0", "x1", "y"].index)
    ech.insert({"x1": q.one, "y": q.one})
    with pytest.raises(PreconditionError):
        ech.kernel(["x0", "x1"])
    assert ech.kernel(["x0", "x1", "y"]) == [{"x0": q.one}, {"x1": q.one, "y": -q.one}]


def test_span_echelon_work_on_the_quaternion_staircase(roseab, monkeypatch):
    # Pins the kernel's work on the README quaternion ideal: a change to
    # the elimination path changes these counts.  The endomorphism probe
    # lists no vertex operator on the one-vertex roseab, so it inserts no
    # row's own image, and its ghost operators table their images, so it
    # reduces each extended word once.
    calls = {"insert": 0, "reduce": 0}
    for name in calls:
        method = getattr(SpanEchelon, name)

        def counted(self, *args, _method=method, _name=name):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(SpanEchelon, name, counted)
    gf = parse_field("gf:32003")
    gens = [parse_element(roseab, gf, t) for t in QUAT_GENS]
    st = SchreierStaircase(roseab, gf, gens, 8)
    assert calls == {"insert": 507, "reduce": 0}
    assert len(st.rows) == 507 and len(st.coset) == 4
    assert not_open_up_to(roseab, gf, st.membership, 8) == ("not_open_up_to", 8)
    assert calls == {"insert": 507, "reduce": 9}
    assert endomorphism_probe(st).dimension == 1
    assert calls == {"insert": 526, "reduce": 19}


def test_kernel_and_action_work_on_the_weighted_point_module(roseab, q, monkeypatch):
    # Pins the module side as the test above pins the staircase side, on
    # the README weighted point module (mantese at v with a=1, b=1) at
    # degree 4: the label actions and the echelon calls behind its
    # commutant, the derived rules included.  Arrow and ghost images are
    # tabled, one computation per label and operator.  roseab has one
    # vertex, whose operator would be the identity, so none is listed: no
    # act_vertex call, and none of the 16 inserts of a row's own image.
    # Rows made by an arrow skip every ghost, whose images e*f = δ(e,f) r(f)
    # already decides, so half the ghost images are never asked for.
    from leavitt.representations import PrefixModule

    calls = dict.fromkeys(["insert", "reduce", "act_vertex", "act_arrow", "act_ghost"], 0)
    for name in calls:
        cls = SpanEchelon if name in ("insert", "reduce") else PrefixModule

        def counted(self, *args, _method=getattr(cls, name), _name=name):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(cls, name, counted)
    a, b = loops(roseab, "a", "b")
    report = endomorphism_probe(mantese_module(roseab, q, "v", {a: q.one, b: q.one}), 4)
    assert (report.dimension, report.table_closes, report.equations) == (1, True, 30)
    assert calls == {"insert": 50, "reduce": 1, "act_vertex": 0, "act_arrow": 32, "act_ghost": 16}


def test_walk_work_on_sink3(sink3, q, monkeypatch):
    # Pins the walks' work on the three vertices of sink3, where only
    # seeds walk the vertex operators.  The closure of the Cohn module at
    # w (window 4) makes 6 inserts: the seed, its image under w, which is
    # the seed again, and the paths h, e.h, g.e.h and e.g.e.h into w.  The
    # commutant of L / L.w at degree 3 makes 38 inserts and 19 reductions:
    # the ghost images of a word are reduced once, when they are tabled.
    calls = {"insert": 0, "reduce": 0}
    for name in calls:

        def counted(self, *args, _method=getattr(SpanEchelon, name), _name=name):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(SpanEchelon, name, counted)
    M = cohn_jacobson_module(sink3, q, "w")
    assert cyclic_submodule(M, [M.generator_vector()], 4).dim == 5
    assert calls == {"insert": 6, "reduce": 0}
    st = SchreierStaircase(sink3, q, [parse_element(sink3, q, "w")], 3)
    calls.update(insert=0, reduce=0)
    report = endomorphism_probe(st)
    assert (report.dimension, report.equations) == (6, 4)
    assert calls == {"insert": 38, "reduce": 19}


# -- closures ---------------------------------------------------------------------


def test_cyclic_submodule_of_the_generator_is_everything(rose2, q):
    # The x1 shift module is cyclic on its generator: the closure holds
    # every label of the window, 8, 16 and 32 of them at windows 3, 4, 5.
    M = chen_module(rose2, q, periodic_word(parse_path(rose2, "x1")))
    for window, labels in ((3, 8), (4, 16), (5, 32)):
        cl = cyclic_submodule(M, [M.generator_vector()], window)
        assert cl.contains(M.generator_vector())
        assert cl.dim == len(M.labels(window)) == labels
        assert all(cl.contains({lab: q.one}) for lab in M.labels(window))


def test_window_guard_drops_ghost_images_that_leave_the_window(rose2, q):
    # A ghost can raise a label's degree: on a generator backed Chen word it
    # moves a bare offset slot one offset, and one degree, further on.  So
    # the guard has to read the degrees of the image, not of the label.
    window = 3
    M = chen_module(rose2, q, thue_morse_word(rose2, *loops(rose2, "x1", "x2")))
    ops = dict(prefix_ops(M, window).ops)
    edge = (Path.vertex("v"), ("off", window))
    assert edge in M.labels(window) and M.degree(edge) == window
    letter = M.tail.fn(window)
    assert [M.degree(lab) for lab in M.act_ghost(letter, edge)] == [window + 1]
    assert ops[f"{letter}*"](edge) is None
    inner = (Path.vertex("v"), ("off", window - 1))
    assert ops[f"{M.tail.fn(window - 1)}*"](inner) == {edge: 1}


def test_closures_take_seeds_goals_and_members_by_their_class(rose2, roseab, q):
    # On the Chen module of x1.(x2)^w the label x2.(x2)^w is identified with
    # the bare slot (x2)^w, so both seeds span one closure, which holds the
    # other's label; a goal given by the identified label stops the walk at
    # once.
    x2 = parse_path(rose2, "x2")
    M = chen_module(rose2, q, periodic_word(x2, prefix=parse_path(rose2, "x1")))
    bare = M.bare(("rot", 0))
    named = (x2, ("rot", 0))
    assert M.rules == {named: {bare: q.one}}
    by_bare = cyclic_submodule(M, [{bare: q.one}], 3)
    assert cyclic_submodule(M, [{named: q.one}], 3).dim == by_bare.dim == 8
    assert by_bare.contains({named: q.one})
    assert span_closure(prefix_ops(M, 3), [{bare: q.one}], goal={named: q.one}).dim == 1
    # On a staircase quotient a word reduces by the staircase: the leading
    # word a*.a* of the quaternion ideal's first generator is -v there.
    gf7 = parse_field("gf:7")
    st = SchreierStaircase(roseab, gf7, [parse_element(roseab, gf7, t) for t in QUAT_GENS], 3)
    assert st.codimension() == ("finite", 4)
    mod = staircase_ops(st)
    lead = {parse_path(roseab, "a.a"): gf7.one}
    assert span_closure(mod, [lead]).dim == 4
    assert span_closure(mod, [mod.generator]).contains(lead)


def test_cyclic_submodule_detects_proper_pieces(abfam, q):
    a, b = loops(abfam, "a", "b")
    M = linear_example_module(abfam, q, a, b, "linear")
    rel = M.relation_vector()
    cl = cyclic_submodule(M, [rel], 5)
    assert not cl.contains(M.generator_vector())


def test_ghost_annihilated(abfam, q):
    a, b = loops(abfam, "a", "b")
    M = mantese_module(abfam, q, "v", {a: q.one, b: q.one})
    assert ghost_annihilated(M, M.socle_generator())
    assert not ghost_annihilated(M, M.generator_vector())


def test_ghost_socle_finds_the_wrap_combination(loopfam, q):
    R = rangaswamy_module(loopfam, q, parse_path(loopfam, "a"), [q.of(-1), q.one])
    kernel = ghost_socle(R, 2)
    assert kernel
    for vec in kernel:
        assert ghost_annihilated(R, vec)


# -- annihilators -----------------------------------------------------------------


def test_annihilator_staircase_matches_member_fn(rose2, q):
    M = chen_module(rose2, q, periodic_word(parse_path(rose2, "x1.x2")))
    gen = M.generator_vector()
    kernel = annihilator_staircase(M, gen, 4)
    member = annihilator_member_fn(M, gen)
    from leavitt.schreier import ghost_to_element

    for vec in kernel:
        assert member(ghost_to_element(rose2, q, vec)) == "in"
    rng = random.Random(5)
    table = paths_by_target(rose2, 3)
    pivots = {max(vec, key=lambda p: (len(p), p.key)) for vec in kernel}
    hits = 0
    for _ in range(40):
        x = random_ghost_element(rose2, q, rng, 3, 2, table)
        if member(x) == "in":
            hits += 1
    assert pivots
    assert hits > 0


def test_chen_annihilator_membership_examples(rose2, q):
    w = periodic_word(parse_path(rose2, "x1"))
    cases = [
        ("x2*", "in"),
        ("x1*", "out"),
        ("v", "out"),
        ("x1*.x1*.x1*", "out"),
        ("x2*.x1*", "in"),
        ("x1*.x2*", "in"),
        ("x1*.x1* - x2*", "out"),
    ]
    for text, want in cases:
        x = parse_element(rose2, q, text)
        assert chen_annihilator_membership(w, x) == want, text


def test_chen_annihilator_membership_matches_module_action(rose2, q):
    # the prefix rule agrees with the module annihilator on every ghost
    # monomial, and with the complement span on random combinations; the
    # module oracle is only safe on combinations when the word is
    # aperiodic, since a periodic word identifies classes of distinct
    # shift depths and lets prefix coefficients cancel
    from leavitt.algebra import Element
    from leavitt.schreier import element_to_ghost

    from oracles import DenseSpan

    words = (
        periodic_word(parse_path(rose2, "x1.x2")),
        thue_morse_word(rose2, *loops(rose2, "x1", "x2")),
    )
    for aperiodic, word in enumerate(words):
        M = chen_module(rose2, q, word)
        gen = M.generator_vector()
        member = annihilator_member_fn(M, gen)
        complement = DenseSpan(q)
        for beta in rose2.all_paths(3):
            prefix = beta.is_vertex or tuple(word.window(len(beta))) == beta.arrows
            if not prefix:
                complement.insert({beta: q.one})
            x = Element(rose2, q, {(Path.vertex(beta.target), beta): q.one})
            want = member(x)
            assert chen_annihilator_membership(word, x) == want, str(beta)
            assert complement.member({beta: q.one}) == (want == "in"), str(beta)
        table = paths_by_target(rose2, 3)
        rng = random.Random(11)
        for _ in range(60):
            x = random_ghost_element(rose2, q, rng, 3, 3, table)
            want = "in" if complement.member(element_to_ghost(x)) else "out"
            assert chen_annihilator_membership(word, x) == want
            if aperiodic:
                assert member(x) == want


# -- simplicity -------------------------------------------------------------------


def test_simplicity_probe_on_a_simple_module(rose2, q):
    M = chen_module(rose2, q, periodic_word(parse_path(rose2, "x1")))
    report = simplicity_probe(M, 4)
    assert report["verdict"] == "witnessed_simple_up_to"
    assert report["seed"] == 0


def test_simplicity_probe_finds_proper_submodule(abfam, q):
    a, b = loops(abfam, "a", "b")
    M = linear_example_module(abfam, q, a, b, "linear")
    report = simplicity_probe(M, 5)
    assert report["verdict"] == "proper_submodule"
    assert not cyclic_submodule(M, [report["witness"]], 5).contains(
        M.generator_vector()
    )


# -- composition chains --------------------------------------------------------------


def test_composition_probe_rangaswamy_linear(loopfam, q):
    R = rangaswamy_module(loopfam, q, parse_path(loopfam, "a"), [q.of(-1), q.one])
    chain = chain_candidates(R)
    report = composition_probe(R, chain, 6)
    assert report["length"] == 2
    assert report["strict"]
    types = [f["type"] for f in report["factors"]]
    assert types.count("S_v") == 1


def test_composition_probe_rangaswamy_quadratic(loopfam, q):
    R = rangaswamy_module(loopfam, q, parse_path(loopfam, "a"), [q.one, q.one, q.one])
    chain = chain_candidates(R)
    report = composition_probe(R, chain, 6)
    assert report["length"] == 3
    assert report["strict"]
    types = [f["type"] for f in report["factors"]]
    assert types.count("S_v") == 2
    assert [f["dim_jump"] for f in report["factors"]] == [364, 1093, 729]
    assert report["dim"] == 2186
    assert report["exhausts_degree"] == 6
    assert report["overflowed"]


def chain_modules(loopfam, abfam, q):
    a = parse_path(loopfam, "a")
    fa, fb = loops(abfam, "a", "b")
    return {
        "rangaswamy_linear": rangaswamy_module(loopfam, q, a, [q.of(-1), q.one]),
        "rangaswamy_quadratic": rangaswamy_module(loopfam, q, a, [q.one, q.one, q.one]),
        "abfam_linear": linear_example_module(abfam, q, fa, fb, "linear"),
        "abfam_mantese": mantese_module(abfam, q, "v", {fa: q.one, fb: q.one}),
    }


@pytest.mark.parametrize("window", [4, 5, 6])
def test_composition_steps_match_closures_built_from_scratch(loopfam, abfam, q, window):
    # each step's dimension is that of the closure of the whole prefix of
    # candidates, built in one go; the last closure holds every label of
    # degree up to exhausts_degree, and not every label of the next degree
    for name, M in chain_modules(loopfam, abfam, q).items():
        chain = chain_candidates(M)
        report = composition_probe(M, chain, window)
        mod = prefix_ops(M, window)
        total = 0
        for i, factor in enumerate(report["factors"]):
            total += factor["dim_jump"]
            full = span_closure(mod, chain[: i + 1])
            assert total == full.dim, (name, i)
        assert total == report["dim"], name

        def holds(d):
            return all(full.contains({lab: q.one}) for lab in M.labels(d))

        e = report["exhausts_degree"]
        assert e == -1 or holds(e), name
        assert e == window or not holds(e + 1), name


def test_closure_extended_twice_spans_the_joint_closure(loopfam, q):
    R = rangaswamy_module(loopfam, q, parse_path(loopfam, "a"), [q.one, q.one, q.one])
    chain = chain_candidates(R)
    mod = prefix_ops(R, 5)
    grown = Closure(mod).extend(chain[:1]).extend(chain[1:])
    joint = span_closure(mod, chain)
    assert grown.dim == joint.dim
    assert grown.overflowed == joint.overflowed
    assert all(joint.contains(row) for row in grown.echelon.rows.values())
    assert all(grown.contains(row) for row in joint.echelon.rows.values())


def field_modules(roseab, field):
    """A Mantese module and the golden twist linear module over field."""
    a, b = loops(roseab, "a", "b")
    return {
        "mantese": mantese_module(roseab, field, "v", {a: field.one, b: field.of(2)}),
        "linear_nonlinear": linear_example_module(roseab, field, a, b, "nonlinear"),
    }


@pytest.mark.parametrize("window", [3, 4])
def test_closures_match_dense_closures_over_both_fields(loopfam, abfam, roseab, sink3, q, window):
    # The dense oracle walks every vertex action; prefix_ops lists vertex
    # operators only on the three-vertex sink3, one per vertex.
    cases = list(chain_modules(loopfam, abfam, q).items())
    for tag in ("q", "gf:7"):
        cases += [(f"{name} {tag}", M) for name, M in field_modules(roseab, parse_field(tag)).items()]
    cases.append(("cohn_sink3", cohn_jacobson_module(sink3, q, "w")))
    for name, M in cases:
        seeds = chain_candidates(M)
        mod = prefix_ops(M, window)
        vertex_ops = [op for op, _ in mod.ops if op.startswith("v:")]
        if len(M.graph.vertices) > 1:
            assert vertex_ops == [f"v:{v}" for v in sorted(M.graph.vertices)], name
        else:
            assert vertex_ops == [], name
        cl = span_closure(mod, seeds)
        dense, overflowed = dense_closure(M, seeds, window)
        assert (cl.dim, cl.overflowed) == (dense.rank, overflowed), name


# -- operator tables ----------------------------------------------------------------


def tabled_modules(loopfam, abfam, roseab, field):
    """Modules over field with and without rules, overflow and families."""
    fa, fb = loops(abfam, "a", "b")
    return {
        "rangaswamy_linear": rangaswamy_module(
            loopfam, field, parse_path(loopfam, "a"), [field.of(-1), field.one]
        ),
        "chen_loopfam": chen_module(loopfam, field, periodic_word(parse_path(loopfam, "a"))),
        "abfam_linear": linear_example_module(abfam, field, fa, fb, "linear"),
        "abfam_mantese": mantese_module(abfam, field, "v", {fa: field.one, fb: field.one}),
        **field_modules(roseab, field),
    }


def with_identity(mod):
    """mod with the identity operator of the lone vertex in front of its ops."""
    ops = [("v:identity", lambda lab: {lab: 1}), *mod.ops]
    return ModuleOps(
        mod.field, ops, mod.generator, mod.sort_key, mod.degree_of, mod.window, mod.tables,
        mod.canonical,
    )


def random_seeds(M, field, rng, count, window=3):
    """count random vectors of one to three labels of degree at most window."""
    labels = M.labels(window)
    for _ in range(count):
        picks = rng.sample(labels, min(len(labels), rng.randint(1, 3)))
        yield {lab: field.of(rng.randint(1, 6)) for lab in picks}


@pytest.mark.parametrize("tag", ["q", "gf:7"])
def test_an_identity_vertex_operator_changes_no_closure(loopfam, abfam, roseab, tag, monkeypatch):
    # Every tabled module lives on a one-vertex graph, whose idempotent is
    # the unit, so prefix_ops lists no vertex operator.  Putting the
    # identity back changes no closure and no endomorphism report.
    field = parse_field(tag)
    modules = tabled_modules(loopfam, abfam, roseab, field)
    for name, M in modules.items():
        assert len(M.graph.vertices) == 1, name
        mod = prefix_ops(M, 3)
        assert not any(op.startswith("v:") for op, _ in mod.ops), name
        samples = [[seed] for seed in random_seeds(M, field, random.Random(name), 3)]
        for seeds in ([M.generator_vector()], chain_candidates(M), *samples):
            bare = span_closure(mod, seeds)
            full = span_closure(with_identity(mod), seeds)
            assert bare.echelon.pivots() == full.echelon.pivots(), name
            assert (bare.dim, bare.overflowed) == (full.dim, full.overflowed), name

    def report(M):
        r = endomorphism_probe(M, 4)
        return (r.basis, r.unit_coords, r.table, r.overflowed, r.equations, r.independent)

    bare = {name: report(M) for name, M in modules.items()}
    def identity_first(space, window, _ops=probes.prefix_ops):
        return with_identity(_ops(space, window))

    monkeypatch.setattr(probes, "prefix_ops", identity_first)
    assert bare == {name: report(M) for name, M in modules.items()}


def test_staircase_vertex_operators_only_on_several_vertices(roseab, sink3, q, monkeypatch):
    # On sink3 the vertex operators cut the endomorphisms of L / L.w down:
    # with them the probe finds 6, without them 8.  roseab lists none.
    st = SchreierStaircase(sink3, q, [parse_element(sink3, q, "w")], 3)
    assert [op for op, _ in staircase_ops(st).ops if op.startswith("v:")] == ["v:u", "v:v", "v:w"]
    report = endomorphism_probe(st)
    assert (report.dimension, report.equations) == (6, 4)

    def without_vertices(staircase, _ops=staircase_ops):
        mod = _ops(staircase)
        mod.ops = [(name, fn) for name, fn in mod.ops if not name.startswith("v:")]
        return mod

    monkeypatch.setattr(probes, "staircase_ops", without_vertices)
    assert endomorphism_probe(st).dimension == 8
    rose = SchreierStaircase(roseab, q, [parse_element(roseab, q, "a* - b*")], 3)
    assert not any(op.startswith("v:") for op, _ in staircase_ops(rose).ops)


@pytest.mark.parametrize("tag", ["q", "gf:7"])
def test_a_goal_stopped_closure_holds_its_goal_or_is_whole(loopfam, abfam, roseab, tag):
    # A walk told to stop at a goal either reached it, or ran to the end
    # and is the closure built without a goal.
    field = parse_field(tag)
    reached = missed = early = 0
    for name, M in tabled_modules(loopfam, abfam, roseab, field).items():
        mod = prefix_ops(M, 3)
        rng = random.Random(name)
        goals = [M.generator_vector(), *random_seeds(M, field, rng, 2)]
        for seed in random_seeds(M, field, rng, 6):
            for goal in goals:
                stopped = span_closure(mod, [seed], goal=goal)
                full = span_closure(mod, [seed])
                if stopped.contains(goal):
                    reached += 1
                    early += stopped.dim < full.dim
                    assert full.contains(goal) and stopped.dim <= full.dim, name
                else:
                    missed += 1
                    assert stopped.echelon.pivots() == full.echelon.pivots(), name
                    assert (stopped.dim, stopped.overflowed) == (full.dim, full.overflowed), name
    assert reached and missed and early


def test_simplicity_reports_do_not_depend_on_the_goal(loopfam, abfam, roseab, monkeypatch):
    # Sample closures stop at the generator; a probe whose closures ignore
    # the goal and always walk to the end reports the same.
    def reports():
        out = {}
        for tag in ("q", "gf:7"):
            for name, M in tabled_modules(loopfam, abfam, roseab, parse_field(tag)).items():
                for window in (3, 4):
                    out[name, tag, window] = simplicity_probe(M, window)
        return out

    honoured = reports()
    def walk_to_the_end(mod, seeds, goal=None):
        return Closure(mod).extend(seeds)

    monkeypatch.setattr(probes, "span_closure", walk_to_the_end)
    assert honoured == reports()


def test_simplicity_probe_closes_the_generator_only_for_its_report(
    loopfam, abfam, roseab, monkeypatch
):
    # Only a witnessed_simple_up_to or inconclusive report reads the
    # generator's own closure, so a proper_submodule verdict never builds
    # it; closing the generator first, before any sample, changes no report.
    goal_free = []

    def counted(mod, seeds, goal=None, _closure=probes.span_closure):
        if goal is None:
            goal_free.append(seeds)
        return _closure(mod, seeds, goal)

    monkeypatch.setattr(probes, "span_closure", counted)
    reports, verdicts = [], Counter()
    for tag in ("q", "gf:7"):
        for name, M in tabled_modules(loopfam, abfam, roseab, parse_field(tag)).items():
            for window in (3, 4):
                goal_free.clear()
                report = simplicity_probe(M, window)
                reports.append((name, M, window, report))
                verdicts[report["verdict"]] += 1
                proper = report["verdict"] == "proper_submodule"
                assert goal_free == ([] if proper else [[M.generator_vector()]]), name
    assert verdicts["proper_submodule"] and verdicts["witnessed_simple_up_to"]

    def generator_first(space, window, _ops=probes.prefix_ops):
        mod = _ops(space, window)
        span_closure(mod, [space.generator_vector()])
        return mod

    monkeypatch.setattr(probes, "prefix_ops", generator_first)
    for name, M, window, report in reports:
        assert simplicity_probe(M, window) == report, name


def test_simplicity_probe_computes_each_image_once(rose2, loopfam, abfam, roseab, q, monkeypatch):
    # The probe's closures share one ModuleOps, whose arrow and ghost
    # operators table their images: each (operator, label) pair runs the
    # label action once, however many samples reach it.  socle_filter acts
    # on labels directly, outside the tables, so its calls are not counted.
    from leavitt.representations import PrefixModule

    computed = Counter()
    counting = [True]
    for name in ("act_arrow", "act_ghost"):

        def counted(self, arrow, label, _method=getattr(PrefixModule, name), _name=name):
            if counting[0]:
                computed[(_name, arrow, label)] += 1
            return _method(self, arrow, label)

        monkeypatch.setattr(PrefixModule, name, counted)

    def uncounted(*args, _filter=probes.socle_filter):
        counting[0] = False
        try:
            return _filter(*args)
        finally:
            counting[0] = True

    monkeypatch.setattr(probes, "socle_filter", uncounted)
    cases = {"chen_rose2": chen_module(rose2, q, periodic_word(parse_path(rose2, "x1")))}
    cases.update(tabled_modules(loopfam, abfam, roseab, q))
    for name, M in cases.items():
        computed.clear()
        simplicity_probe(M, 4)
        assert computed and max(computed.values()) == 1, name


@pytest.mark.parametrize("tag", ["q", "gf:7"])
def test_reused_operators_close_like_dense_closures(loopfam, abfam, roseab, tag):
    # simplicity_probe closes many samples over one ModuleOps, so later
    # closures read images that earlier ones tabled.  Seed by seed, each
    # closure must still match a dense closure built from the public
    # vector actions: dimension, overflow flag and span.
    field = parse_field(tag)
    window = 3
    for name, M in tabled_modules(loopfam, abfam, roseab, field).items():
        mod = prefix_ops(M, window)
        for k, seed in enumerate(random_seeds(M, field, random.Random(name), 4, window)):
            cl = span_closure(mod, [seed])
            dense, overflowed = dense_closure(M, [seed], window)
            assert (cl.dim, cl.overflowed) == (dense.rank, overflowed), (name, k)
            assert all(dense.member(decode(field, row)) for row in cl.echelon.rows.values())


def test_operator_tables_hold_fresh_guarded_images(loopfam, abfam, roseab, monkeypatch):
    # Every probe hands tabled images to its callers.  Once all have run,
    # the shared empty image is still empty, and every tabled entry equals
    # a fresh image of its label under the window guard.
    built = []

    def recording(space, window, _prefix_ops=probes.prefix_ops):
        mod = _prefix_ops(space, window)
        built.append((space, mod))
        return mod

    monkeypatch.setattr(probes, "prefix_ops", recording)
    window = 4
    for tag in ("q", "gf:7"):
        for M in tabled_modules(loopfam, abfam, roseab, parse_field(tag)).values():
            simplicity_probe(M, window)
            composition_probe(M, chain_candidates(M), window)
            endomorphism_probe(M, window)
            cyclic_submodule(M, [M.generator_vector()], window)
    assert len(built) == 2 * 6 * 4  # fields, modules, probes
    assert probes.EMPTY_IMAGE == {}
    for M, mod in built:
        for a in M.active_arrows():
            for act, table in ((M.act_arrow, mod.tables[str(a)]), (M.act_ghost, mod.tables[f"{a}*"])):
                for lab, img in table.items():
                    fresh = act(a, lab)
                    if any(M.degree(l) > window for l in fresh):
                        assert img is None
                    else:
                        assert img == fresh
                        assert fresh or img is probes.EMPTY_IMAGE


@pytest.mark.parametrize("tag", ["q", "gf:7"])
@pytest.mark.parametrize("window", [3, 4, 5])
def test_arrow_tables_and_exhausts_degree_match_the_long_way(
    rose2, roseab, sink3, roseinf, loopfam, abfam, tag, window
):
    # A free prepend's table leaves a label at the top degree unbuilt, and
    # composition_probe reads exhausts_degree from the unsorted label walk;
    # on every constructor both agree with the canonical prepend under the
    # window guard and with the sorted scan of the labels.
    field = parse_field(tag)
    modules = every_construction(rose2, roseab, sink3, roseinf, loopfam, abfam, field)
    for name, M in modules.items():
        mod = prefix_ops(M, window)
        ops = dict(mod.ops)
        for lab in M.labels(window):
            for a in M.active_arrows():
                assert ops[str(a)](lab) == guarded_arrow_image(M, a, lab, window), name
        rng = random.Random(f"{name}-{window}")
        seed_sets = [chain_candidates(M), *([seed] for seed in random_seeds(M, field, rng, 3))]
        for seeds in seed_sets:
            report = composition_probe(M, seeds, window)
            rows = span_closure(mod, seeds).echelon.rows
            assert report["exhausts_degree"] == sorted_exhausts_degree(M, rows, window), name


def pruned_modules(loopfam, abfam, roseab, sink3, field):
    """tabled_modules and modules on graphs with two or three vertices."""
    tail = parse_graph(TWOLOOP_TAIL)

    def chen(graph, period):
        return chen_module(graph, field, periodic_word(parse_path(graph, period)))

    return {
        **tabled_modules(loopfam, abfam, roseab, field),
        "cohn_sink3": cohn_jacobson_module(sink3, field, "w"),
        "chen_sink3": chen(sink3, "e.g"),
        "chen_tail_a": chen(tail, "a"),
        "chen_tail_ab": chen(tail, "a.b"),
    }


@pytest.mark.parametrize("window", [2, 3, 4, 5])
@pytest.mark.parametrize("tag", ["q", "gf:7"])
def test_walks_that_skip_decided_ghosts_match_full_walks(
    loopfam, abfam, roseab, sink3, tag, window, monkeypatch
):
    # Rows made by an arrow skip every ghost, since e*f = δ(e,f) r(f)
    # decides those images, and only seeds walk the vertices.  Walks that
    # apply every operator to every row give the same spans and the same
    # commutant.  Only the count of equations may drop, and only on graphs
    # with two or more vertices, where the skipped ones repeat the vertex
    # operators' equations.
    field = parse_field(tag)
    modules = pruned_modules(loopfam, abfam, roseab, sink3, field)
    for name, M in modules.items():
        pruned, full = prefix_ops(M, window), unpruned_ops(M, window)
        arrow = str(M.active_arrows()[0])
        assert len(pruned.ops_after(arrow)) < len(full.ops_after(arrow)) == len(full.ops), name
        samples = [[seed] for seed in random_seeds(M, field, random.Random(name), 2, window)]
        for seeds in ([M.generator_vector()], chain_candidates(M), *samples):
            got, want = span_closure(pruned, seeds), span_closure(full, seeds)
            assert got.echelon.pivots() == want.echelon.pivots(), name
            assert (got.dim, got.overflowed) == (want.dim, want.overflowed), name

    def report(r):
        return (r.dimension, r.basis, r.independent, r.table, r.unit_coords, r.overflowed)

    pruned = {name: endomorphism_probe(M, window) for name, M in modules.items()}
    monkeypatch.setattr(probes, "prefix_ops", unpruned_ops)
    dropped = set()
    for name, M in modules.items():
        got, want = pruned[name], endomorphism_probe(M, window)
        assert report(got) == report(want), name
        assert got.equations <= want.equations, name
        if got.equations < want.equations:
            dropped.add(name)
    assert dropped <= {name for name, M in modules.items() if len(M.graph.vertices) > 1}
    assert "cohn_sink3" in dropped


@pytest.mark.parametrize("tag", ["q", "gf:7"])
def test_staircase_walks_that_skip_vertices_match_full_walks(sink3, tag, monkeypatch):
    # A staircase quotient has ghost and vertex operators, and only seeds
    # walk the vertices: v(a*.x) = δ(v,r(a)) a*.x is the row or zero.  On
    # the several-vertex quotients of sink3 by w and of the tail graph by
    # a*.a* - v and b* - a*, walks that apply every operator to every row
    # give the same spans and the same commutant, equations included.
    field = parse_field(tag)
    tail = parse_graph(TWOLOOP_TAIL)
    ideals = [(sink3, ["w"]), (tail, ["a*.a* - v", "b* - a*"])]
    staircases = [
        SchreierStaircase(graph, field, [parse_element(graph, field, t) for t in ideal], degree)
        for graph, ideal in ideals
        for degree in (2, 3, 4)
    ]

    def report(r):
        return (r.dimension, r.basis, r.table, r.unit_coords, r.independent, r.equations, r.overflowed)

    pruned = [report(endomorphism_probe(st)) for st in staircases]
    for st in staircases:
        mod, full = staircase_ops(st), unpruned_staircase_ops(st)
        assert len(mod.ops_after("e*" if st.graph is sink3 else "a*")) < len(full.ops)
        got, want = span_closure(mod, [mod.generator]), span_closure(full, [full.generator])
        assert got.echelon.pivots() == want.echelon.pivots()
        assert (got.dim, got.overflowed) == (want.dim, want.overflowed)
    monkeypatch.setattr(probes, "staircase_ops", unpruned_staircase_ops)
    assert [report(endomorphism_probe(st)) for st in staircases] == pruned
    assert all(r[5] for r in pruned)  # every report has equations


@pytest.mark.parametrize("tag", ["q", "gf:7"])
@pytest.mark.parametrize("window", [3, 4, 5])
def test_walk_steps_match_the_long_way(rose2, roseab, sink3, roseinf, loopfam, abfam, tag, window):
    # ModuleOps.apply hands a one-label row's tabled image on, or scales it
    # once; a one-label row at the window's top degree of a module whose
    # prepends are free walks no arrow; and the commutant solve builds a
    # row's symbolic image only when an equation or the table reads it.
    # Walks that take none of these short ways (oracles.long_way and
    # oracles.eager_endomorphism) give the same closures and the same
    # endomorphism reports on every constructor and two quotients, and a
    # walk seeded with coefficient 3 leaves every tabled image as built.
    field = parse_field(tag)
    three = field.of(3)
    for name, M in every_construction(rose2, roseab, sink3, roseinf, loopfam, abfam, field).items():
        fast, slow = prefix_ops(M, window), long_way(prefix_ops(M, window))
        rng = random.Random(f"{name}-{window}")
        samples = [[seed] for seed in random_seeds(M, field, rng, 3, window)]
        for seeds in ([M.generator_vector()], chain_candidates(M), *samples):
            got, want = span_closure(fast, seeds), span_closure(slow, seeds)
            assert got.echelon.pivots() == want.echelon.pivots(), name
            assert (got.dim, got.overflowed) == (want.dim, want.overflowed), name
        scaled = prefix_ops(M, window)
        gen3 = {lab: c * three for lab, c in M.generator_vector().items()}
        # labels sort by degree first, so the last one has the top degree
        span_closure(scaled, [gen3, {M.labels(window)[-1]: three}])
        fresh = dict(prefix_ops(M, window).ops)
        for op, table in scaled.tables.items():
            assert all(img == fresh[op](lab) for lab, img in table.items()), (name, op)
        gen_deg = max(map(M.degree, M.generator_vector()))
        if window > gen_deg:
            got = endomorphism_probe(M, window)
            want = eager_endomorphism(long_way(prefix_ops(M, window)), M.labels(window - 1))
            assert {key: getattr(got, key) for key in want} == want, name
    assert probes.EMPTY_IMAGE == {}
    quotients = [(sink3, ["w"]), (roseab, ["a*.a* - b* + v", "a*.b* - a*"])]
    for graph, ideal in quotients:
        st = SchreierStaircase(graph, field, [parse_element(graph, field, t) for t in ideal], window)
        variables = [w for w in st.coset_basis() if len(w) < window]
        got = endomorphism_probe(st)
        want = eager_endomorphism(long_way(staircase_ops(st)), variables)
        assert {key: getattr(got, key) for key in want} == want, ideal


def test_apply_hands_on_the_tabled_image_of_one_label(loopfam, q):
    # A row of one label with coefficient 1 gets the tabled image itself,
    # which callers only read; one with another coefficient, or a row of
    # two labels, gets a fresh dict, and the table keeps its image.
    M = rangaswamy_module(loopfam, q, parse_path(loopfam, "a"), [q.one, q.one])
    mod = prefix_ops(M, 3)
    fn = dict(mod.ops)["a"]
    low, high = M.labels(1)[:2]
    img = mod.apply(fn, {low: 1})
    assert img and img is mod.tables["a"][low]
    assert mod.apply(fn, {low: 3}) == {lab: 3 * c for lab, c in img.items()}
    both = mod.apply(fn, {low: 1, high: 2})
    assert both is not img and both.items() >= img.items()
    assert mod.tables["a"][low] == img == {lab: 1 for lab in img}


def test_walk_step_work_on_three_benchmark_jobs(roseab, loopfam, q, monkeypatch):
    # Pins the ModuleOps.apply calls, and the label actions behind them, of
    # the quaternion Hilbert endo at degree 6, the Rangaswamy chain of
    # x + 1 at degree 4 and the nonlinear twist's endo at degree 6.  On the
    # first two prepends are free, and a row at the window's top degree
    # walks no arrow; a symbolic image is built only when it is read, its
    # variables highest degree first, so that the first to leave the window
    # ends it.  With every arrow walked and every symbolic image built, the
    # three made 7300, 369 and 486 apply calls.  Each label action still
    # runs once per operator, the images past the window included.
    from leavitt.representations import PrefixModule

    calls = Counter()
    for cls, name in ((ModuleOps, "apply"), (PrefixModule, "act_arrow"), (PrefixModule, "act_ghost")):

        def counted(self, *args, _method=getattr(cls, name), _name=name):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(cls, name, counted)
    D = quaternion_algebra(q, 1, 1)
    a, b = loops(roseab, "a", "b")
    M = hilbert_module(roseab, q, "v", D, {a: D.basis("i"), b: D.basis("j")})
    report = endomorphism_probe(M, 6)
    assert (report.dimension, report.table_closes, report.equations, report.independent) == (
        4, True, 812, 248
    )
    assert calls == {"apply": 1664, "act_arrow": 504, "act_ghost": 504}
    calls.clear()
    M = rangaswamy_module(loopfam, q, parse_path(loopfam, "a"), [q.one, q.one])
    report = composition_probe(M, chain_candidates(M), 4)
    assert (report["dim"], report["exhausts_degree"], report["overflowed"]) == (121, 4, True)
    assert calls == {"apply": 207, "act_arrow": 120, "act_ghost": 25}
    calls.clear()
    M = linear_example_module(roseab, q, a, b, "nonlinear")
    assert not M.free_prepend
    report = endomorphism_probe(M, 6)
    assert (report.dimension, report.equations, report.independent, report.overflowed) == (
        2, 94, 46, True
    )
    assert calls == {"apply": 339, "act_arrow": 192, "act_ghost": 96}


# Modules with a proper submodule, and a window at which even the socle
# candidates alone witness one, so that every seed yields a witness.
WITNESS_CASES = {"abfam_linear": 3, "abfam_mantese": 3, "rangaswamy_linear": 4}


@settings(max_examples=24, deadline=None)
@given(
    st.sampled_from(sorted(WITNESS_CASES)),
    st.sampled_from(["q", "gf:7"]),
    st.integers(0, 12),
    st.integers(0, 2**32 - 1),
)
def test_simplicity_witnesses_lie_outside_dense_closures(
    loopfam, abfam, roseab, name, tag, samples, seed
):
    # Every proper_submodule witness is checked again, at the probe's
    # window, by a dense closure: the generator must lie outside its span.
    # The probe's sample closures all read one set of operator tables.
    M = tabled_modules(loopfam, abfam, roseab, parse_field(tag))[name]
    window = WITNESS_CASES[name]
    report = simplicity_probe(M, window, samples=samples, seed=seed)
    assert report["verdict"] == "proper_submodule"
    dense, _ = dense_closure(M, [report["witness"]], window)
    assert not dense.member(M.generator_vector())
    assert report["submodule_dim"] == dense.rank


def test_endomorphism_dimensions_agree_over_both_fields(roseab):
    for degree in (4, 5):
        dims = {}
        for tag in ("q", "gf:7"):
            modules = field_modules(roseab, parse_field(tag))
            dims[tag] = {name: endomorphism_probe(M, degree).dimension for name, M in modules.items()}
        assert dims["q"] == dims["gf:7"] == {"mantese": 1, "linear_nonlinear": 2}, degree


@pytest.mark.parametrize("tag", ["q", "gf:7"])
def test_closure_refuses_foreign_scalars(roseab, tag):
    field = parse_field(tag)
    M = field_modules(roseab, field)["mantese"]
    cl = Closure(prefix_ops(M, 4))
    lab = M.generator_label
    with pytest.raises(TypeError):
        cl.extend([{lab: 0.5}])
    with pytest.raises(TypeError):
        cl.contains({lab: 0.5})
    if field.characteristic:
        gf5 = parse_field("gf:5")
        with pytest.raises(PreconditionError):
            cl.extend([{lab: gf5.of(2)}])
        with pytest.raises(PreconditionError):
            cl.contains({lab: gf5.of(2)})
    assert cl.dim == 0
    cl.extend([M.generator_vector()])
    assert cl.dim == 16 and cl.contains(M.generator_vector())


@pytest.mark.parametrize("tag", ["q", "gf:7"])
def test_probes_hand_out_field_scalars(loopfam, abfam, roseab, tag):
    field = parse_field(tag)
    report = endomorphism_probe(field_modules(roseab, field)["linear_nonlinear"], 5)
    assert report.dimension == 2 and report.table_closes
    assert handed_out(field, *report.basis)
    cells = [report.unit_coords, *report.table.values()]
    assert handed_out(field, *(dict(enumerate(cell)) for cell in cells))
    a, b = loops(abfam, "a", "b")
    simplicity = simplicity_probe(linear_example_module(abfam, field, a, b, "linear"), 3)
    assert simplicity["verdict"] == "proper_submodule"
    assert handed_out(field, simplicity["witness"])
    R = rangaswamy_module(loopfam, field, parse_path(loopfam, "a"), [field.of(-1), field.one])
    socle = ghost_socle(R, 2)
    assert socle and handed_out(field, *socle)


@settings(max_examples=8, deadline=None)
@given(st.sampled_from(["q", "gf:5"]), st.lists(st.integers(1, 4), min_size=4, max_size=4))
def test_public_return_values_hold_field_scalars(roseab, abfam, loopfam, tag, coeffs):
    # Inside, vectors are native ints and Fractions; every public return
    # value must hold the field's own scalars again.
    field = parse_field(tag)
    w0, w1, w2, w3 = map(field.of, coeffs)
    a, b = loops(roseab, "a", "b")
    staircase = SchreierStaircase(roseab, field, [parse_element(roseab, field, t) for t in QUAT_GENS], 4)
    ghost = {parse_path(roseab, "a.b.a"): w0, parse_path(roseab, "b"): w1, Path.vertex("v"): w2}
    assert handed_out(field, staircase.reduce(ghost))
    assert handed_out(field, *(g.terms for g in staircase.free_generators()))

    M = mantese_module(roseab, field, "v", {a: w0, b: w1})
    vec = dict(zip(M.labels(2), (w0, w1, w2, w3)))
    pa, pb = parse_path(roseab, "a"), parse_path(roseab, "b.a")
    element = parse_element(roseab, field, f"{coeffs[2]} a.b* - b + v")
    outputs = [
        M.vertex_apply("v", vec),
        M.arrow_apply(a, vec),
        M.ghost_apply(b, vec),
        M.act_monomial(pa, pb, vec),
        M.act_element(element, vec),
        M.generator_vector(),
        *M.rules.values(),
        *socle_filter(M, [vec, M.ghost_apply(a, vec), {M.generator_label: w3}]),
        *annihilator_staircase(M, vec, 3),
    ]
    assert M.rules and handed_out(field, *outputs)
    R = rangaswamy_module(loopfam, field, parse_path(loopfam, "a"), [-field.one, field.one])
    assert handed_out(field, *ghost_socle(R, 2))

    for report in (endomorphism_probe(M, 4), endomorphism_probe(staircase)):
        assert report.dimension and report.table_closes
        cells = [report.unit_coords, *report.table.values()]
        assert handed_out(field, *report.basis, *(dict(enumerate(cell)) for cell in cells))
    ea, eb = loops(abfam, "a", "b")
    simplicity = simplicity_probe(linear_example_module(abfam, field, ea, eb, "linear"), 3)
    assert handed_out(field, simplicity["witness"])


def test_composition_probe_rejects_nonstrict_chain(loopfam, q):
    R = rangaswamy_module(loopfam, q, parse_path(loopfam, "a"), [q.of(-1), q.one])
    gen = R.generator_vector()
    report = composition_probe(R, [gen, gen], 5)
    assert not report["strict"]


# -- endomorphisms -----------------------------------------------------------------


def test_endomorphism_probe_simple_module_has_scalars_only(rose2, q):
    M = chen_module(rose2, q, periodic_word(parse_path(rose2, "x1")))
    report = endomorphism_probe(M, 4)
    assert report.dimension == 1
    assert report.unit_coords == (q.one,)
    assert report.table_closes


def test_endomorphism_probe_golden_twist(roseab, q):
    a, b = loops(roseab, "a", "b")
    M = linear_example_module(roseab, q, a, b, "nonlinear")
    report = endomorphism_probe(M, 5)
    assert report.dimension == 2
    # the non-identity basis endomorphism t satisfies t^2 = 1 - t, so
    # x = 1 + t solves x^2 = x + 1
    unit = report.unit_coords
    t = tuple(q.one if i == 1 else q.zero for i in range(2))
    x = tuple(u + v for u, v in zip(unit, t))
    lhs = report.compose(x, x)
    rhs = tuple(u + v for u, v in zip(x, unit))
    assert lhs == rhs


def test_endomorphism_probe_gaussian_point(roseab, q):
    a, b = loops(roseab, "a", "b")
    D = field_extension(q, [q.one, q.zero, q.one])
    M = hilbert_module(roseab, q, "v", D, {a: D.basis("x"), b: D.one})
    report = endomorphism_probe(M, 5)
    assert report.dimension == 2
    t = tuple(q.one if i == 1 else q.zero for i in range(2))
    square = report.compose(t, t)
    assert square == tuple(-c for c in report.unit_coords)


class KeptEmpty(dict):
    """An empty image that is truthy, so that a walk keeps it."""

    def __bool__(self):
        return True


@pytest.mark.parametrize("tag", ["q", "gf:7"])
def test_endomorphism_probe_drops_rows_that_cancel(roseab, tag, monkeypatch):
    # On roseab modulo a*.a* - b* + v and a*.b* - a*, the symbolic image of
    # the variable at a* under a* is a*.a* = b* - v, and under a* again it
    # is a*.b* - a*.v = a* - a* = 0.  The probe drops every empty image, so
    # it never applies an operator to one.  A probe that keeps them gives
    # the same reports: there, and on the tail graph modulo a*.a* - b*.b*,
    # where it walks the kept images on.
    field = parse_field(tag)
    tail = parse_graph(TWOLOOP_TAIL)
    gens = [parse_element(roseab, field, t) for t in ("a*.a* - b* + v", "a*.b* - a*")]
    staircases = [
        SchreierStaircase(roseab, field, gens, 2),
        SchreierStaircase(tail, field, [parse_element(tail, field, "a*.a* - b*.b*")], 4),
    ]
    apply, empty_in, cancelled = ModuleOps.apply, [], []

    def recorded(self, fn, vec, keep=False):
        out = apply(self, fn, vec)
        if vec == {}:
            empty_in.append(fn)
        elif out == {}:
            cancelled.append(vec)
            if keep:
                return KeptEmpty()
        return out

    def reports():
        names = ("dimension", "basis", "unit_coords", "table", "equations", "independent")
        return [[getattr(endomorphism_probe(st), n) for n in names] for st in staircases]

    monkeypatch.setattr(ModuleOps, "apply", recorded)
    got = reports()
    assert not empty_in
    b, v = parse_path(roseab, "b"), parse_path(roseab, "v")
    assert encode(field, {b: field.one, v: -field.one}) in cancelled
    monkeypatch.setattr(ModuleOps, "apply", lambda self, fn, vec: recorded(self, fn, vec, keep=True))
    assert reports() == got
    assert empty_in


def test_endomorphism_probe_tables_at_most_sixteen_dimensions(q):
    # The quotient by a*.a* - b*.b* on the tail graph has a commutant of 20
    # dimensions at degree 4: too many to tabulate, so nothing composes.
    tail = parse_graph(TWOLOOP_TAIL)
    st = SchreierStaircase(tail, q, [parse_element(tail, q, "a*.a* - b*.b*")], 4)
    report = endomorphism_probe(st)
    assert report.dimension == 20
    assert report.table is None and not report.table_closes
    unit = report.unit_coords
    assert unit is not None
    assert report.compose(unit, unit) is None


def test_endomorphism_probe_composes_only_through_evaluated_cells(rose2, q):
    # On the Thue-Morse Chen module at degree 4 some composites leave the
    # window: their cells are None, and so is every composite through them.
    x1, x2 = loops(rose2, "x1", "x2")
    report = endomorphism_probe(chen_module(rose2, q, thue_morse_word(rose2, x1, x2)), 4)
    assert report.table is not None and not report.table_closes
    missing = [key for key, cell in report.table.items() if cell is None]
    present = [key for key, cell in report.table.items() if cell is not None]
    assert missing and present

    def unit_vector(i):
        return tuple(q.one if k == i else q.zero for k in range(report.dimension))

    for i, j in missing:
        assert report.compose(unit_vector(i), unit_vector(j)) is None
    for i, j in present:
        assert report.compose(unit_vector(i), unit_vector(j)) == report.table[(i, j)]


def test_endomorphism_probe_on_a_staircase(roseab, q):
    # Kernel of the substitution a* -> i, b* -> j onto the quaternions.
    # The quotient is the quaternion algebra as a module over itself, so
    # its commutant is the full four-dimensional opposite algebra.
    D = quaternion_algebra(q, 1, 1)
    pres = mantese_rangaswamy_presentation(
        roseab,
        q,
        [parse_path(roseab, "a"), parse_path(roseab, "b")],
        D,
        [D.basis("i"), D.basis("j")],
        4,
    )
    st = SchreierStaircase(roseab, q, list(pres.generators), 4)
    report = endomorphism_probe(st)
    assert report.dimension == 4
    assert report.table_closes
    unit = report.unit_coords
    neg = tuple(-c for c in unit)
    x = report.express({parse_path(roseab, "a"): q.one})
    y = report.express({parse_path(roseab, "b"): q.one})
    assert report.compose(x, x) == neg
    assert report.compose(y, y) == neg
    xy = report.compose(x, y)
    assert xy == tuple(-c for c in report.compose(y, x))
    assert report.compose(xy, xy) == neg


def test_endomorphism_probe_on_a_stiffer_staircase(roseab, q):
    # The palindromic degree-3 generators carry the opposite sign from
    # the substitution kernel: a*(a*b* + b*a*) - (a*b*a* + b*) puts
    # a*a*b* - b* in the ideal while a*a* + v forces a*a*b* == -b* for
    # any commuting map, so only scalars survive.
    gens = [parse_element(roseab, q, t) for t in QUAT_GENS]
    st = SchreierStaircase(roseab, q, gens, 4)
    report = endomorphism_probe(st)
    assert report.dimension == 1
    assert report.table_closes


def test_endomorphism_probe_needs_room_for_the_generator(rose2, roseab, q):
    # The image of the generator ranges over degree at most degree - 1, so
    # a lower degree would miss even the identity and report a vacuous 0.
    x1, x2x2 = parse_path(rose2, "x1"), parse_path(rose2, "x2.x2")
    M = chen_module(rose2, q, periodic_word(x1, x2x2))
    for degree in (0, 1, 2):
        with pytest.raises(PreconditionError, match="degree at least 3"):
            endomorphism_probe(M, degree)
    assert endomorphism_probe(M, 3).dimension == 1
    # a staircase quotient is generated in degree 0
    gens = [parse_element(roseab, q, t) for t in QUAT_GENS]
    st = SchreierStaircase(roseab, q, gens, 4)
    with pytest.raises(PreconditionError, match="degree at least 1"):
        endomorphism_probe(st, 0)
    assert endomorphism_probe(st, 1).dimension == 1


def test_induced_module_at_an_infinite_emitter_has_no_more_endomorphisms(loopfam, q):
    # rangaswamy_module of x - 1 at the loop a of loopfam is induced from
    # its bottom layer and carries an extra socle layer at the infinite
    # emitter; its Chen quotient is simple.  Both commutants are scalars.
    a = parse_path(loopfam, "a")
    induced = rangaswamy_module(loopfam, q, a, [q.of(-1), q.one])
    quotient = chen_module(loopfam, q, periodic_word(a))
    for degree in (3, 4, 5):
        for M in (induced, quotient):
            report = endomorphism_probe(M, degree)
            assert report.dimension == 1, (M.metadata["kind"], degree)
            assert report.table_closes
            assert report.unit_coords == (q.one,)


def test_endomorphism_report_express(rose2, q):
    M = chen_module(rose2, q, periodic_word(parse_path(rose2, "x1")))
    report = endomorphism_probe(M, 4)
    coords = report.express(dict(report.basis[0]))
    assert coords == (q.one,)
    assert report.express({}) == (q.zero,)
