import re

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from leavitt import (
    CycleTail,
    InfiniteWord,
    Path,
    PrefixModule,
    SchreierStaircase,
    annihilator_staircase,
    chen_module,
    cohn_jacobson_module,
    cyclic_submodule,
    field_extension,
    ghost_to_element,
    hilbert_module,
    is_irreducible,
    linear_example_module,
    mantese_module,
    mantese_rangaswamy_presentation,
    mono_str,
    parse_element,
    parse_field,
    parse_graph,
    parse_path,
    periodic_word,
    quaternion_algebra,
    rangaswamy_module,
    rangaswamy_module_infinite,
    rangaswamy_module_regular,
    substitute,
    thue_morse_word,
    verify_representation,
)
from leavitt.errors import PreconditionError
from leavitt.linalg import encode

from conftest import LOOPFAM, ROSE3, SINK3, TWOLOOP_TAIL
from oracles import dense_closure, split_presentation


def loops(graph, *names):
    return tuple(parse_path(graph, n).arrows[0] for n in names)


def assert_verifies(space, degree=4):
    report = verify_representation(space, degree)
    assert report["ok"], report["failures"][:3]
    assert report["checked"] > 0
    return report


# -- chen modules -----------------------------------------------------------------


def test_chen_rational_actions(rose2, q):
    w = periodic_word(parse_path(rose2, "x1.x2"))
    M = chen_module(rose2, q, w)
    x1, x2 = loops(rose2, "x1", "x2")
    gen = M.generator_vector()
    assert M.vector_str(gen) == "(x1.x2)^w"
    # the first letter peels off, anything else kills the class
    assert M.vector_str(M.ghost_apply(x1, gen)) == "(x2.x1)^w"
    assert M.ghost_apply(x2, gen) == {}
    assert M.vector_str(M.arrow_apply(x1, gen)) == "x1.(x1.x2)^w"
    # prepending the period and stripping it returns the class
    vec = gen
    for a in (x2, x1):
        vec = M.arrow_apply(a, vec)
    for a in (x1, x2):
        vec = M.ghost_apply(a, vec)
    assert vec == gen
    assert M.metadata["rational"] is True
    assert_verifies(M, 5)


def test_chen_rational_prefix_strip_law(rose2, q):
    w = periodic_word(parse_path(rose2, "x1.x2"))
    M = chen_module(rose2, q, w)
    gen = M.generator_vector()
    for l in range(1, 9):
        vec = gen
        for b in w.window(l):
            vec = M.ghost_apply(b, vec)
        assert len(vec) == 1, f"prefix of length {l} did not shift cleanly"
        back = vec
        for a in reversed(w.window(l)):
            back = M.arrow_apply(a, back)
        assert back == gen


def test_chen_thue_morse(rose2, q):
    x1, x2 = loops(rose2, "x1", "x2")
    M = chen_module(rose2, q, thue_morse_word(rose2, x1, x2))
    assert M.metadata["rational"] is False
    gen = M.generator_vector()
    # the word starts x1 x2 x2, so x1* shifts and x2* kills
    assert M.ghost_apply(x2, gen) == {}
    shifted = M.ghost_apply(x1, gen)
    assert len(shifted) == 1
    assert M.ghost_apply(x1, shifted) == {}
    assert_verifies(M, 4)
    # each offset identifies labels, without bound, so no finite rules exist
    with pytest.raises(PreconditionError, match="without bound"):
        M.rules
    assert not M.free_prepend


def chen_word(M, label):
    """The infinite word that the Chen label (mu, slot) stands for."""
    mu, (kind, j) = label
    tail = M.word.tail
    if kind == "rot":
        c = tail.cycle.arrows
        return InfiniteWord(mu, CycleTail(Path.of_arrows(c[j:] + c[:j])))
    return InfiniteWord(mu, tail.shifted(j - tail.offset))


def build_word(graph, spec):
    kind, _, rest = spec.partition(":")
    if kind == "rational":
        return periodic_word(parse_path(graph, rest))
    return thue_morse_word(graph, *loops(graph, *rest.split(",")))


@pytest.mark.parametrize("tag", ["q", "gf:5"])
@pytest.mark.parametrize(
    "graph_name, spec, degree",
    [
        ("rose2", "rational:x1.x2", 5),
        ("rose2", "tm:x1,x2", 5),
        ("sink3", "rational:e.g", 5),
        ("loopfam", "rational:a", 5),
        ("loopfam", "tm:a,f[0]", 5),
        ("abfam", "rational:a.b", 4),
        ("abfam", "tm:a,b", 4),
    ],
)
def test_chen_actions_match_the_word_oracle(request, graph_name, spec, degree, tag):
    # Each label stands for one infinite word: real arrows prepend to it,
    # and a ghost arrow shifts it when it is the word's first letter and
    # kills it otherwise.
    graph, field = request.getfixturevalue(graph_name), parse_field(tag)
    word = build_word(graph, spec)
    M = chen_module(graph, field, word)
    words = {label: chen_word(M, label) for label in M.labels(degree)}
    assert len(set(words.values())) == len(words)
    assert words[M.generator_label] == word

    def single(vec):
        [(label, coeff)] = vec.items()
        assert coeff == field.one
        return chen_word(M, label)

    for label, w in words.items():
        vec = {label: field.one}
        for e in M.active_arrows():
            got = M.arrow_apply(e, vec)
            if e.target == w.source:
                assert single(got) == w.prepend(e)
            else:
                assert got == {}
            got = M.ghost_apply(e, vec)
            if w.arrow_at(0) == e:
                assert single(got) == w.shift(1)
            else:
                assert got == {}


def test_chen_rules_are_derived(rose2, roseinf, q):
    M = chen_module(rose2, q, periodic_word(parse_path(rose2, "x1.x2")))
    assert M.rules == {
        (parse_path(rose2, "x1"), ("rot", 1)): labeled(rose2, {("v", ("rot", 0)): q.one}),
        (parse_path(rose2, "x2"), ("rot", 0)): labeled(rose2, {("v", ("rot", 1)): q.one}),
    }
    # f[3] lies past the family cap, and its rule still holds: the image is
    # read from the slot's own ghost entries
    f3 = parse_path(roseinf, "f[3]")
    M = chen_module(roseinf, q, periodic_word(f3))
    assert M.rules == {(f3, ("rot", 0)): {M.bare(("rot", 0)): q.one}}
    assert M.vector_str(M.arrow_apply(f3.arrows[0], M.generator_vector())) == "(f[3])^w"


def test_rangaswamy_at_an_infinite_emitter_is_induced_from_chen(loopfam, q):
    # a* fixes h0, which is Chen's bottom layer for (a)^w.  Nothing is
    # identified at the infinite emitter v, so R is the induced module, and
    # Chen's module is its quotient: the map sending (mu, h0) to the normal
    # form of mu.(a)^w is a module map onto Chen's labels.
    a = parse_path(loopfam, "a")
    R = rangaswamy_module(loopfam, q, a, [q.of(-1), q.one])
    M = chen_module(loopfam, q, periodic_word(a))
    assert R.rules == {}

    def phi(vec):
        out = {}
        for (mu, _), coeff in vec.items():
            M.canonical_into(out, mu, ("rot", 0), coeff)
        return out

    actions = [(R.act_vertex, M.act_vertex, v) for v in loopfam.vertices]
    for e in R.active_arrows():
        actions += [(R.act_arrow, M.act_arrow, e), (R.act_ghost, M.act_ghost, e)]
    for label in R.labels(4):
        for act_r, act_m, arg in actions:
            assert phi(R._apply(act_r, arg, {label: 1})) == M._apply(act_m, arg, phi({label: 1}))
    induced = R.labels(5)
    image = {lab for label in induced for lab in phi({label: 1})}
    assert (len(induced), len(image)) == (364, 243)
    assert image == set(M.labels(5))
    # h0 - a.h0 spans the kernel's first layer, and its submodule misses h0
    rel = {R.bare(0): q.one, (a, 0): -q.one}
    assert phi(encode(q, rel)) == {}
    gen = R.generator_vector()
    assert not cyclic_submodule(R, [rel], 5).contains(gen)
    dense, _ = dense_closure(R, [rel], 5)
    assert dense.rank and not dense.member(gen)


# -- boundary modules --------------------------------------------------------------


def test_cohn_jacobson_at_sink(sink3, q):
    M = cohn_jacobson_module(sink3, q, "w")
    gen = M.generator_vector()
    for a in sink3.all_arrows(2):
        assert M.ghost_apply(a, gen) == {}
    h = loops(sink3, "h")[0]
    lifted = M.arrow_apply(h, gen)
    assert M.vector_str(lifted) == "h.s"
    assert M.ghost_apply(h, lifted) == gen
    assert_verifies(M, 4)


def test_a_monomial_whose_arrow_kills_the_vector_acts_by_zero(sink3, q):
    # h.h* fixes the path h into w; in e.h* the ghost h* takes h to the
    # bare vector at w, which e, an arrow into v, kills.
    M = cohn_jacobson_module(sink3, q, "w")
    e, h = parse_path(sink3, "e"), parse_path(sink3, "h")
    vec = {(h, "s"): q.one}
    assert M.act_monomial(h, h, vec) == vec
    assert M.act_monomial(e, h, vec) == {}


def test_cohn_jacobson_at_infinite_emitter(roseinf, q):
    M = cohn_jacobson_module(roseinf, q, "v")
    assert M.free_prepend
    assert_verifies(M, 3)


def test_cohn_jacobson_rejects_regular_vertex(rose2, q):
    with pytest.raises(PreconditionError):
        cohn_jacobson_module(rose2, q, "v")


# -- polynomial quotient modules ----------------------------------------------------


def test_rangaswamy_linear_polynomial(loopfam, q):
    delta = parse_path(loopfam, "a")
    M = rangaswamy_module(loopfam, q, delta, [q.of(-1), q.one])
    a = loops(loopfam, "a")[0]
    gen = M.generator_vector()
    assert M.size == 1
    assert M.free_prepend
    # q = x - 1 pins the loop dual to act as the identity on the slot
    assert M.ghost_apply(a, gen) == gen
    fam = [x for x in loopfam.all_arrows(1) if x.index is not None]
    assert M.ghost_apply(fam[0], gen) == {}
    assert_verifies(M, 4)


def test_rangaswamy_quadratic_polynomial(loopfam, q):
    delta = parse_path(loopfam, "a")
    M = rangaswamy_module(loopfam, q, delta, [q.one, q.one, q.one])
    a = loops(loopfam, "a")[0]
    assert M.size == 2
    h0 = {(Path.vertex("v"), 0): q.one}
    h1 = {(Path.vertex("v"), 1): q.one}
    # the top slot wraps through the polynomial, the bottom one is killed
    assert M.ghost_apply(a, h1) == {
        (Path.vertex("v"), 0): -q.one,
        (Path.vertex("v"), 1): -q.one,
    }
    assert M.ghost_apply(a, h0) == {}
    assert M.generator_vector() == h1
    assert_verifies(M, 4)


def test_rangaswamy_regular_junction_wraps(rose2, q):
    delta = parse_path(rose2, "x1")
    M = rangaswamy_module_regular(rose2, q, delta, [q.of(-1), q.one])
    x1 = loops(rose2, "x1")[0]
    gen = M.generator_vector()
    assert not M.free_prepend
    # prepending the period is excluded and rewrites into the wrap
    mu = Path.of_arrows((x1,))
    assert M.rewrite_step(mu, 0) is not None
    canon = M.canonical_into({}, mu, 0, q.one)
    assert canon == gen
    assert_verifies(M, 4)


def test_rangaswamy_rejects_bad_polynomials(loopfam, q):
    delta = parse_path(loopfam, "a")
    with pytest.raises(PreconditionError):
        rangaswamy_module(loopfam, q, delta, [q.zero, q.one])  # q(0) = 0
    with pytest.raises(PreconditionError):
        rangaswamy_module(loopfam, q, delta, [q.one, q.of(2)])  # not monic


def test_rangaswamy_variant_dispatch(loopfam, rose2, q):
    lin = [q.of(-1), q.one]
    assert rangaswamy_module_infinite(
        loopfam, q, parse_path(loopfam, "a"), lin
    ).metadata["junctions"] == {"a": "infinite_emitter"}
    with pytest.raises(PreconditionError):
        rangaswamy_module_infinite(rose2, q, parse_path(rose2, "x1"), lin)
    with pytest.raises(PreconditionError):
        rangaswamy_module_regular(loopfam, q, parse_path(loopfam, "a"), lin)


# -- weighted sum modules -----------------------------------------------------------


def test_mantese_infinite_emitter(abfam, q):
    a, b = loops(abfam, "a", "b")
    M = mantese_module(abfam, q, "v", {a: q.one, b: q.one})
    gen = M.generator_vector()
    assert M.free_prepend
    assert M.ghost_apply(a, gen) == gen
    assert M.ghost_apply(b, gen) == gen
    socle = M.socle_generator()
    assert M.vector_str(socle) == "-vbar + a.vbar + b.vbar"
    for arrow in M.active_arrows():
        assert M.ghost_apply(arrow, socle) == {}
    assert_verifies(M, 4)


def test_mantese_regular(roseab, q):
    a, b = loops(roseab, "a", "b")
    M = mantese_module(roseab, q, "v", {a: q.one, b: q.one})
    gen = M.generator_vector()
    assert not M.free_prepend
    assert M.ghost_apply(a, gen) == gen
    assert M.ghost_apply(b, gen) == gen
    assert_verifies(M, 4)


def test_mantese_validates_weights(roseab, abfam, q):
    a, b = loops(roseab, "a", "b")
    with pytest.raises(PreconditionError):
        mantese_module(roseab, q, "v", {a: q.one})  # regular needs all weights
    with pytest.raises(PreconditionError):
        mantese_module(roseab, q, "v", {a: q.zero, b: q.zero})
    fa, fb = loops(abfam, "a", "b")
    M = mantese_module(abfam, q, "v", {fa: q.of(2), fb: q.of(3)})
    assert M.metadata["weights"] == {"a": "2", "b": "3"}


# -- the two arrow fixtures ----------------------------------------------------------


def test_linear_fixture_regular_actions(roseab, q):
    a, b = loops(roseab, "a", "b")
    M = linear_example_module(roseab, q, a, b, "linear")
    gen = M.generator_vector()
    assert M.relation_text() == "v - a - a.b"
    assert M.vector_str(M.ghost_apply(a, gen)) == "vbar + b.vbar"
    assert M.ghost_apply(b, gen) == {}
    rel = parse_element(roseab, q, M.relation_text())
    assert M.act_element(rel, gen) == {}
    assert_verifies(M, 4)


def test_nonlinear_fixture_regular_actions(roseab, q):
    a, b = loops(roseab, "a", "b")
    M = linear_example_module(roseab, q, a, b, "nonlinear")
    gen = M.generator_vector()
    assert M.relation_text() == "v - a.a - a"
    assert M.vector_str(M.ghost_apply(a, gen)) == "vbar + a.vbar"
    assert M.ghost_apply(b, gen) == {}
    rel = parse_element(roseab, q, M.relation_text())
    assert M.act_element(rel, gen) == {}
    assert_verifies(M, 4)


def test_linear_fixture_infinite_actions(abfam, q):
    a, b = loops(abfam, "a", "b")
    for twist in ("linear", "nonlinear"):
        M = linear_example_module(abfam, q, a, b, twist)
        assert M.free_prepend
        gen = M.generator_vector()
        w = M.ghost_apply(a, gen)
        assert M.vector_str(w) == "w"
        if twist == "linear":
            assert M.ghost_apply(b, w) == gen
            assert M.vector_str(M.ghost_apply(a, w)) == "w"
        else:
            assert M.ghost_apply(b, w) == {}
            assert M.vector_str(M.ghost_apply(a, w)) == "vbar + w"
        rel = M.relation_vector()
        for arrow in M.active_arrows():
            img = M.ghost_apply(arrow, rel)
            # the relation class generates a proper submodule: ghosts may
            # move it but never reach the generator directly
            assert gen != img
        assert_verifies(M, 4)


def test_linear_fixture_requires_two_loops(rose2, q):
    x1, x2 = loops(rose2, "x1", "x2")
    M = linear_example_module(rose2, q, x1, x2, "linear")
    assert_verifies(M, 3)
    with pytest.raises(PreconditionError):
        linear_example_module(rose2, q, x1, x1, "linear")


# -- induced division algebra modules --------------------------------------------------


def test_hilbert_module_quaternion_layer(roseab, q):
    a, b = loops(roseab, "a", "b")
    A = quaternion_algebra(q, 1, 1)
    M = hilbert_module(roseab, q, "v", A, {a: A.basis("i"), b: A.basis("j")})
    assert [M.label_str(l) for l in M.labels(0)] == ["1", "i", "j", "k"]
    gen = M.generator_vector()
    assert M.vector_str(M.ghost_apply(a, gen)) == "i"
    assert M.vector_str(M.ghost_apply(b, gen)) == "j"
    # ghosts compose as operators: applying b* then a* multiplies up to ij = k
    assert M.vector_str(M.ghost_apply(a, M.ghost_apply(b, gen))) == "k"
    assert M.metadata["ck2_exempt"] == ["v"]
    report = assert_verifies(M, 4)
    assert report["exempt"] == ["v"]


def test_hilbert_module_gaussian_layer(roseab, q):
    a, b = loops(roseab, "a", "b")
    D = field_extension(q, [q.one, q.zero, q.one])
    M = hilbert_module(roseab, q, "v", D, {a: D.basis("x"), b: D.one})
    assert [M.label_str(l) for l in M.labels(0)] == ["1", "x"]
    gen = M.generator_vector()
    xvec = M.ghost_apply(a, gen)
    assert M.vector_str(xvec) == "x"
    assert M.vector_str(M.ghost_apply(a, xvec)) == "-1"
    assert M.ghost_apply(b, gen) == gen
    assert_verifies(M, 4)


def test_hilbert_module_reports_non_generating_images(roseab, q):
    a, b = loops(roseab, "a", "b")
    A = quaternion_algebra(q, 1, 1)
    M = hilbert_module(roseab, q, "v", A, {a: A.one, b: A.one})
    assert M.metadata["generating"] is False
    assert "generation_note" in M.metadata
    good = hilbert_module(roseab, q, "v", A, {a: A.basis("i"), b: A.basis("j")})
    assert good.metadata["generating"] is True
    with pytest.raises(PreconditionError):
        hilbert_module(roseab, q, "v", A, {a: A.element({}), b: A.element({})})


# -- identifications derived from the summation relation --------------------------------


def labeled(graph, vec):
    """Labels written as (path text, slot); the text may be a vertex."""
    return {(parse_path(graph, mu), slot): c for (mu, slot), c in vec.items()}


def test_rangaswamy_rules_are_derived(rose2, q):
    M = rangaswamy_module(rose2, q, parse_path(rose2, "x1"), [q.one, q.one, q.one])
    assert M.rules == {
        (parse_path(rose2, "x1"), 1): labeled(rose2, {("v", 0): q.one}),
        (parse_path(rose2, "x1"), 0): labeled(rose2, {("v", 1): -q.one, ("v", 0): -q.one}),
    }
    # the fold past the bottom slot divides by the constant coefficient
    M = rangaswamy_module(rose2, q, parse_path(rose2, "x1.x2"), [q.of(2), q.zero, q.one])
    assert M.rules == {
        (parse_path(rose2, "x1"), 1): labeled(rose2, {("v", 0): q.one}),
        (parse_path(rose2, "x2"), 2): labeled(rose2, {("v", 1): q.one}),
        (parse_path(rose2, "x1"), 3): labeled(rose2, {("v", 2): q.one}),
        (parse_path(rose2, "x2"), 0): labeled(rose2, {("v", 3): q.of(-1) / q.of(2)}),
    }


def test_mantese_rules_are_derived(roseab, q):
    a, b = loops(roseab, "a", "b")
    M = mantese_module(roseab, q, "v", {a: q.one, b: q.of(2)})
    half = q.one / q.of(2)
    assert M.rules == {
        (parse_path(roseab, "b"), "m"): labeled(roseab, {("v", "m"): half, ("a", "m"): -half}),
    }
    # the rewrite keeps the path length: it descends in the label order
    assert M.vector_str(M.arrow_apply(b, M.generator_vector())) == "1/2 vbar - 1/2 a.vbar"


def test_linear_example_rules_are_derived(roseab, q):
    a, b = loops(roseab, "a", "b")
    for twist, suffix in (("linear", "a.b"), ("nonlinear", "a.a")):
        M = linear_example_module(roseab, q, a, b, twist)
        assert M.rules == {
            (parse_path(roseab, suffix), "vbar"): labeled(
                roseab, {("v", "vbar"): q.one, ("a", "vbar"): -q.one}
            ),
        }


def test_modules_without_identifications_have_no_rules(abfam, sink3, roseab, q):
    a, b = loops(abfam, "a", "b")
    assert mantese_module(abfam, q, "v", {a: q.one, b: q.one}).rules == {}
    assert cohn_jacobson_module(sink3, q, "w").rules == {}
    A = quaternion_algebra(q, 1, 1)
    ra, rb = loops(roseab, "a", "b")
    # a regular vertex listed under ck2_exempt identifies nothing
    assert hilbert_module(roseab, q, "v", A, {ra: A.basis("i"), rb: A.basis("j")}).rules == {}


def test_dependent_slot_images_are_rejected(rose2, q):
    M = PrefixModule(rose2, q)
    M.slots = {"s": ("v", "s", 0)}
    M.ghost = {}
    with pytest.raises(PreconditionError, match="vertex v"):
        M.rules


def test_nested_identified_labels_are_rejected(rose2, q):
    # pivots of different lengths on different slots: x1.x1.t and x2.s
    x1, x2 = loops(rose2, "x1", "x2")
    M = PrefixModule(rose2, q)
    M.slots = {"s": ("v", "s", 0), "t": ("v", "t", 1)}
    M.ghost = {
        (x1, "s"): labeled(rose2, {("x1", "t"): q.one}),
        (x2, "t"): labeled(rose2, {("v", "s"): q.one}),
    }
    assert set(M.rules) == {(parse_path(rose2, "x1.x1"), "t"), (parse_path(rose2, "x2"), "s")}
    assert M.rewrite_step(parse_path(rose2, "x1"), "t") is None
    assert M.rewrite_step(parse_path(rose2, "x2.x1.x1"), "t") is not None
    # the pivot x1.x1.x1.s ends in the pivot x1.s
    M = PrefixModule(rose2, q)
    M.slots = {"s": ("v", "s", 0), "t": ("v", "t", 1)}
    M.ghost = {
        (x1, "s"): labeled(rose2, {("x1.x1", "s"): q.one}),
        (x1, "t"): labeled(rose2, {("v", "s"): q.one}),
    }
    with pytest.raises(PreconditionError, match="ends in another"):
        M.rewrite_step(parse_path(rose2, "x1"), "s")


def test_modules_on_a_family_member_past_the_cap_are_refused(loopfam, abfam, q):
    # The probes act by the family members below the cap only, so a module
    # whose generator's path or ghost table reads one at or past it would
    # be probed as if that arrow did not exist.  Each probe refuses it and
    # names the least cap that covers the member; a generator backed word
    # is checked on the letters it reads up to the degree asked.
    a, f3, f5 = loops(loopfam, "a", "f[3]", "f[5]")
    fa, f2 = loops(abfam, "a", "f[2]")
    D = field_extension(q, [q.one, q.zero, q.one])
    word = InfiniteWord(parse_path(loopfam, "f[3]"), CycleTail(parse_path(loopfam, "a")))
    builds = [
        (6, lambda cap: rangaswamy_module(loopfam, q, Path.of_arrows((f5,)), [q.one, q.one], cap)),
        (4, lambda cap: chen_module(loopfam, q, periodic_word(Path.of_arrows((f3,))), cap)),
        (4, lambda cap: chen_module(loopfam, q, word, cap)),  # in the generator's path
        (3, lambda cap: mantese_module(abfam, q, "v", {fa: q.one, f2: q.one}, cap)),
        (3, lambda cap: linear_example_module(abfam, q, fa, f2, "linear", cap)),
        (6, lambda cap: hilbert_module(loopfam, q, "v", D, {a: D.one, f5: D.basis("x")}, cap)),
    ]
    probes = (
        verify_representation,
        lambda M, degree: cyclic_submodule(M, [M.generator_vector()], degree),
        lambda M, degree: annihilator_staircase(M, M.generator_vector(), degree),
    )
    for least, build in builds:
        for probe in probes:
            with pytest.raises(PreconditionError, match=f"a cap of {least} or more covers it"):
                probe(build(least - 1), 3)
            probe(build(least), 3)
    tm = chen_module(loopfam, q, thue_morse_word(loopfam, a, f3))  # a f[3] f[3] a ...
    assert_verifies(tm, 0)
    with pytest.raises(PreconditionError, match=r"reads f\[3\], .* a cap of 4 or more"):
        verify_representation(tm, 1)
    assert_verifies(chen_module(loopfam, q, thue_morse_word(loopfam, a, f3), 4), 3)


GF7 = parse_field("gf:7")
ROSE3_GRAPH = parse_graph(ROSE3)
SINK3_GRAPH = parse_graph(SINK3)


@st.composite
def rangaswamy_inputs(draw):
    if draw(st.booleans()):
        graph = ROSE3_GRAPH
        word = draw(st.lists(st.sampled_from(["x1", "x2", "x3"]), min_size=1, max_size=2))
        delta = parse_path(graph, ".".join(word))
    else:
        graph = SINK3_GRAPH
        delta = parse_path(graph, draw(st.sampled_from(["e.g", "g.e"])))
    low = draw(st.lists(st.integers(0, 6), min_size=1, max_size=2))
    assume(low[0])
    q = [GF7.of(c) for c in low] + [GF7.one]
    assume(is_irreducible(GF7, q))
    return graph, delta, q


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(rangaswamy_inputs())
def test_random_rangaswamy_modules_verify(inputs):
    graph, delta, q = inputs
    assert_verifies(rangaswamy_module(graph, GF7, delta, q), 4)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=3, max_size=3).filter(any))
def test_random_regular_mantese_modules_verify(weights):
    arrows = loops(ROSE3_GRAPH, "x1", "x2", "x3")
    M = mantese_module(ROSE3_GRAPH, GF7, "v", dict(zip(arrows, map(GF7.of, weights))))
    assert M.rules and not M.free_prepend
    assert_verifies(M, 4)


def every_construction(rose2, roseab, sink3, roseinf, loopfam, abfam, field):
    """One module of every constructor, on one-vertex and larger graphs."""
    tail = parse_graph(TWOLOOP_TAIL)
    one, lin = field.one, [-field.one, field.one]
    x1, x2 = loops(rose2, "x1", "x2")
    a, b = loops(roseab, "a", "b")
    fa, fb = loops(abfam, "a", "b")
    ta, tb = loops(tail, "a", "b")
    D = field_extension(field, [one, field.zero, one])
    return {
        "chen_rational": chen_module(rose2, field, periodic_word(parse_path(rose2, "x1.x2"))),
        "chen_thue_morse": chen_module(rose2, field, thue_morse_word(rose2, x1, x2)),
        "chen_sink3": chen_module(sink3, field, periodic_word(parse_path(sink3, "e.g"))),
        "chen_tail": chen_module(tail, field, periodic_word(parse_path(tail, "a.b"))),
        "cohn_sink3": cohn_jacobson_module(sink3, field, "w"),
        "cohn_roseinf": cohn_jacobson_module(roseinf, field, "v"),
        "rangaswamy_regular": rangaswamy_module_regular(rose2, field, parse_path(rose2, "x1"), lin),
        "rangaswamy_infinite": rangaswamy_module_infinite(
            loopfam, field, parse_path(loopfam, "a"), lin
        ),
        "rangaswamy_tail": rangaswamy_module(tail, field, parse_path(tail, "a.b"), lin),
        "mantese_roseab": mantese_module(roseab, field, "v", {a: one, b: field.of(2)}),
        "mantese_abfam": mantese_module(abfam, field, "v", {fa: one, fb: one}),
        "mantese_tail": mantese_module(tail, field, "v", {ta: one, tb: one}),
        "linear_nonlinear": linear_example_module(roseab, field, a, b, "nonlinear"),
        "linear_abfam": linear_example_module(abfam, field, fa, fb, "linear"),
        "linear_tail": linear_example_module(tail, field, ta, tb, "linear"),
        "hilbert": hilbert_module(roseab, field, "v", D, {a: D.basis("x"), b: D.one}),
    }


@pytest.mark.parametrize("tag", ["q", "gf:7"])
def test_every_construction_satisfies_ck1_for_every_pair_of_arrows(
    rose2, roseab, sink3, roseinf, loopfam, abfam, tag
):
    # e*f = δ(e,f) r(f) on every label up to degree 4, for every pair of
    # active arrows.  verify_representation checks only the pairs with a
    # common target; the probes' walks skip a ghost after an arrow for
    # every pair, so the pairs with different targets are checked here.
    field = parse_field(tag)
    modules = every_construction(rose2, roseab, sink3, roseinf, loopfam, abfam, field)
    apart = 0
    for name, M in modules.items():
        arrows = M.active_arrows()
        for m in M.labels(4):
            vec = {m: field.one}
            for f in arrows:
                fm = M.arrow_apply(f, vec)
                for e in arrows:
                    want = M.vertex_apply(f.target, vec) if e == f else {}
                    assert M.ghost_apply(e, fm) == want, (name, str(e), str(f), M.label_str(m))
                    apart += e.target != f.target
    assert apart


# -- ideal presentations ----------------------------------------------------------------


def test_presentation_recovers_quaternion_ideal(roseab, q):
    A = quaternion_algebra(q, 1, 1)
    pa, pb = parse_path(roseab, "a"), parse_path(roseab, "b")
    P = mantese_rangaswamy_presentation(
        roseab, q, [pa, pb], A, [A.basis("i"), A.basis("j")], 4
    )
    st = SchreierStaircase(roseab, q, P.generators, 4)
    names = [mono_str((Path.vertex(p.target), p)) for p in st.coset_basis()]
    assert names == ["v", "a*", "b*", "a*.b*"]
    assert st.codimension() == ("finite", 4)
    # the presentation's coset is the staircase coset
    assert set(P.coset) == set(st.coset_basis())
    # every generator image vanishes under the substitution
    images = {pa.arrows[0]: A.basis("i"), pb.arrows[0]: A.basis("j")}
    for gen in P.generators:
        assert substitute(gen, images).is_zero


def test_presentation_gaussian_point(roseab, q):
    D = field_extension(q, [q.one, q.zero, q.one])
    pa, pb = parse_path(roseab, "a"), parse_path(roseab, "b")
    P = mantese_rangaswamy_presentation(roseab, q, [pa, pb], D, [D.basis("x"), D.one], 4)
    st = SchreierStaircase(roseab, q, P.generators, 4)
    assert st.codimension() == ("finite", 2)
    assert len(st.free_generators()) == 3


ROSEABC = parse_graph("[vertices]\nv\n[arrows]\na: v -> v\nb: v -> v\nc: v -> v\n")


def test_presentation_with_periods_longer_than_one_arrow(q):
    # A period longer than one arrow leaves proper heads (a, after the
    # period products) in the coset, and the ghost words that are no
    # period product followed by a proper head join the generators.
    ab, c = parse_path(ROSEABC, "a.b"), parse_path(ROSEABC, "c")
    A = quaternion_algebra(q, 1, 1)
    want = {4: ("at_least", 8), 5: ("finite", 8), 6: ("finite", 8)}
    for degree, codimension in want.items():
        P = mantese_rangaswamy_presentation(
            ROSEABC, q, [ab, c], A, [A.basis("i"), A.basis("j")], degree
        )
        st = SchreierStaircase(ROSEABC, q, P.generators, degree)
        assert st.codimension() == codimension, degree
        assert set(P.coset) == set(st.coset_basis())
        names = [mono_str((Path.vertex(p.target), p)) for p in st.coset_basis()]
        assert "b*.a*" in names and "a*" in names and "b*" not in names
        assert len(P.generators) > P.metadata["substitution_kernel_rows"]
    D = field_extension(q, [q.one, q.zero, q.one])
    for degree in (4, 5, 6):
        P = mantese_rangaswamy_presentation(ROSEABC, q, [ab], D, [D.basis("x")], degree)
        st = SchreierStaircase(ROSEABC, q, P.generators, degree)
        assert st.codimension() == ("finite", 4), degree
        assert set(P.coset) == set(st.coset_basis())
    # with three arrows a head must match the period, not only its first one
    abc = parse_path(ROSEABC, "a.b.c")
    P = mantese_rangaswamy_presentation(ROSEABC, q, [abc], D, [D.basis("x")], 6)
    st = SchreierStaircase(ROSEABC, q, P.generators, 6)
    assert st.codimension() == ("finite", 6)
    assert set(P.coset) == set(st.coset_basis())


def test_presentation_coset_honours_its_family_cap(loopfam, q):
    # f[2] only exists under a family cap of three, and the coset must be
    # read under the cap the presentation was built with.
    D = field_extension(q, [q.one, q.zero, q.one])
    f2 = parse_path(loopfam, "f[2]")
    P = mantese_rangaswamy_presentation(loopfam, q, [f2], D, [D.basis("x")], 3, family_cap=3)
    st = SchreierStaircase(loopfam, q, P.generators, 3, family_cap=3)
    assert set(st.coset_basis()) == {Path.vertex("v"), f2}
    assert set(P.coset) == set(st.coset_basis())


@pytest.mark.parametrize(
    "periods, degree, count",
    [(("a.b", "c"), 4, 23), (("a.b", "c"), 5, 42), (("a.b", "c"), 6, 73), (("a.b.c",), 6, 13)],
)
def test_presentation_keeps_only_the_shortest_excluded_words(q, periods, degree, count):
    # An independent classifier: a word is a period product followed by a
    # proper head exactly when its arrow names match the pattern.
    pattern = "(ab|c)*a?" if len(periods) == 2 else "(abc)*(a|ab)?"

    def excluded(path):
        return re.fullmatch(pattern, "".join(a.name for a in path.arrows)) is None

    if len(periods) == 2:
        A = quaternion_algebra(q, 1, 1)
        images = [A.basis("i"), A.basis("j")]
    else:
        A = field_extension(q, [q.one, q.zero, q.one])
        images = [A.basis("x")]
    paths = [parse_path(ROSEABC, t) for t in periods]
    P = mantese_rangaswamy_presentation(ROSEABC, q, paths, A, images, degree)
    assert len(P.generators) == count
    words = [g for g in P.generators if len(g.terms) == 1]
    kernel = [g for g in P.generators if len(g.terms) > 1]
    assert len(kernel) == P.metadata["substitution_kernel_rows"]
    for g in words:
        ((_, beta),) = g.terms
        assert excluded(beta) and not excluded(beta.drop_last()), beta
    every_excluded = [
        ghost_to_element(ROSEABC, q, {p: q.one})
        for p in ROSEABC.all_paths(degree)
        if excluded(p)
    ]
    st = SchreierStaircase(ROSEABC, q, P.generators, degree)
    full = SchreierStaircase(ROSEABC, q, kernel + every_excluded, degree)
    assert set(st.rows) == set(full.rows)
    assert st.coset_basis() == full.coset_basis()
    assert set(P.coset) == set(st.coset_basis())


# two vertices: the periods a.b and a.d.b pass through u, and d, e lie
# outside the periods a.b, c
THROUGH_U = parse_graph(
    "[vertices]\nv\nu\n[arrows]\na: v -> u\nb: u -> v\nc: v -> v\nd: u -> u\ne: u -> v\n"
)


@pytest.mark.parametrize("tag", ["q", "gf:7"])
@pytest.mark.parametrize(
    "graph, periods, algebra, images",
    [
        (ROSEABC, ("a.b", "c"), "quat", ("i", "j")),
        (ROSEABC, ("a", "b"), "quat", ("i", "j")),
        (ROSEABC, ("a.b.c",), "ext", ("x",)),
        (THROUGH_U, ("a.b", "c"), "quat", ("i", "j")),
        (THROUGH_U, ("a.d.b",), "ext", ("x",)),
        # f[1] only enters products from a cap of two, and the cap cuts
        # the heads of f[0].f[2].a after f[0]
        (parse_graph(LOOPFAM), ("a", "f[1]"), "quat", ("k", "i")),
        (parse_graph(LOOPFAM), ("f[0].f[2].a",), "ext", ("x",)),
    ],
    ids=["roseabc-ab-c", "roseabc-a-b", "roseabc-abc", "through_u-ab-c", "through_u-adb",
         "loopfam-a-f1", "loopfam-f0f2a"],
)
def test_presentation_matches_a_split_of_every_path(tag, graph, periods, algebra, images):
    # The library grows the period products and their heads; the oracle
    # splits every path up to the degree.  Generators in order, coset and
    # metadata must agree.
    field = parse_field(tag)
    if algebra == "quat":
        A = quaternion_algebra(field, field.one, field.one)
    else:
        A = field_extension(field, [field.one, field.zero, field.one])
    images = [A.basis(label) for label in images]
    paths = [parse_path(graph, t) for t in periods]
    for family_cap in (1, 2, 3):
        for degree in range(7):
            P = mantese_rangaswamy_presentation(graph, field, paths, A, images, degree, family_cap)
            generators, coset, metadata = split_presentation(
                graph, field, paths, images, degree, family_cap
            )
            case = (family_cap, degree)
            assert [str(g) for g in P.generators] == [str(g) for g in generators], case
            assert P.coset == coset, case
            assert P.metadata == metadata, case


def test_presentation_validates_periods(roseab, q):
    A = quaternion_algebra(q, 1, 1)
    pa = parse_path(roseab, "a")
    with pytest.raises(PreconditionError):
        mantese_rangaswamy_presentation(roseab, q, [pa, pa], A, [A.basis("i"), A.basis("j")], 3)
    with pytest.raises(PreconditionError):
        mantese_rangaswamy_presentation(roseab, q, [pa], A, [A.element({})], 3)
