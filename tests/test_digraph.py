import copy
import os
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, strategies as st

from leavitt import (
    ParseError,
    Path,
    classify_word,
    generator_word,
    ghost_sort_key,
    parse_graph,
    parse_path,
    path_sort_key,
    periodic_word,
    tail_equivalent,
    thue_morse_word,
)
from leavitt import digraph
from leavitt.digraph import Arrow, primitive_root
from leavitt.errors import PreconditionError

from conftest import ABFAM, ROSE2, ROSEINF, SINK3


def test_parse_graph_sections_and_comments():
    g = parse_graph(
        """
        # a rose with two petals
        [vertices]
        v
        [arrows]
        x1: v -> v
        x2: v -> v   # second petal
        """
    )
    assert list(g.vertices) == ["v"]
    assert sorted(a.name for a in g.out_arrows("v")) == ["x1", "x2"]


def test_parse_graph_rejects_dangling_arrow():
    with pytest.raises(ParseError):
        parse_graph("[vertices]\nv\n[arrows]\ne: v -> w\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("[vertices]\nv\n[edges]\ne: v -> v\n", "line 3: unknown section [edges]"),
        ("v\n[vertices]\nv\n", "line 1: content before any section"),
        ("[vertices]\nv\n[families]\nf: v -> v\n", "line 4: family name needs []"),
        ("[vertices]\nv\n[arrows]\ne: v v\n", "line 4: expected 'name: src -> dst'"),
        ("[vertices]\nv\n[arrows]\nv: v -> v\n", "line 4: identifier 'v' already in use"),
    ],
)
def test_parse_graph_refusals_name_the_line(text, message):
    with pytest.raises(ParseError) as info:
        parse_graph(text)
    assert info.value.exit_code == 2
    assert str(info.value) == message


def test_vertex_classification(sink3, roseinf, rose2):
    assert sink3.classify_vertex("w") == "sink"
    assert sink3.classify_vertex("u") == "regular"
    assert sink3.classify_vertex("v") == "regular"
    assert roseinf.classify_vertex("v") == "infinite_emitter"
    assert rose2.classify_vertex("v") == "regular"
    assert sink3.is_sink("w")


def test_special_arrow_is_least_named(rose2, sink3):
    assert rose2.special_arrow("v").name == "x1"
    assert sink3.special_arrow("v").name == "g"


def test_path_operations(rose2):
    p = parse_path(rose2, "x1.x2")
    assert (p.source, p.target, len(p)) == ("v", "v", 2)
    assert str(p.drop_last()) == "x1"
    assert str(p.drop_first()) == "x2"
    q2 = p.concat(parse_path(rose2, "x1"))
    assert str(q2) == "x1.x2.x1"
    vert = Path.vertex("v")
    assert vert.is_vertex and len(vert) == 0
    assert str(vert.concat(p)) == str(p.concat(vert)) == "x1.x2"


def test_parse_path_rejects_unknown_arrow(rose2):
    with pytest.raises(ParseError):
        parse_path(rose2, "x1.zz")


@pytest.mark.parametrize("text", ["f[+1]", "f[1_0]", "f[-0]", "v.f[1]", "f[1].v", "f[1]*", "f[1].", ""])
def test_parse_path_reads_only_letters(roseinf, text):
    with pytest.raises(ParseError):
        parse_path(roseinf, text)


def test_parse_path_reads_only_ascii_digits(roseinf):
    # \d would take every Unicode decimal digit and read f[\u0663] (an
    # Arabic-Indic three) as f[3]; a family index is ASCII digits only.
    assert str(parse_path(roseinf, "f[3]")) == "f[3]"
    for text in ("f[\u0663]", "f[1\u0663]", "f[\uff13]"):
        with pytest.raises(ParseError):
            parse_path(roseinf, text)


def test_parse_path_names_a_vertex_inside_a_dotted_path(rose2):
    with pytest.raises(ParseError, match="vertex v inside"):
        parse_path(rose2, "v.x1")
    assert parse_path(rose2, " v ") == Path.vertex("v")


def test_parse_path_allows_whitespace_around_dots_and_brackets(roseinf):
    assert str(parse_path(roseinf, " f [ 1 ] .\tf[01] ")) == "f[1].f[1]"


@pytest.mark.parametrize("name", ["2a", "é", "a-b", "a b", ""])
def test_names_follow_the_identifier_grammar(name):
    g = digraph.DiGraph()
    with pytest.raises(PreconditionError, match="bad identifier"):
        g.add_vertex(name)
    g.add_vertex("v")
    with pytest.raises(PreconditionError, match="bad identifier"):
        g.add_arrow(name, "v", "v")
    with pytest.raises(PreconditionError, match="bad identifier"):
        g.add_family(name, "v", "v")
    g.add_vertex("_v2")


def test_sort_keys_order_by_length_first(rose2):
    paths = sorted(rose2.all_paths(3), key=path_sort_key)
    lens = [len(p) for p in paths]
    assert lens == sorted(lens)
    # the ghost order compares reversed words, so x2.x1 precedes x1.x2
    a = parse_path(rose2, "x2.x1")
    b = parse_path(rose2, "x1.x2")
    assert ghost_sort_key(a) < ghost_sort_key(b)
    assert path_sort_key(b) < path_sort_key(a)


def test_all_paths_counts(rose2, sink3):
    assert len(rose2.all_paths(3)) == 1 + 2 + 4 + 8
    # sink graph: paths are constrained by the cycle shape
    names = {str(p) for p in sink3.all_paths(2)}
    assert "e.g" in names and "g.e" in names and "e.h" in names
    assert "h.e" not in names


def test_family_cap_slices_infinite_graphs():
    g = parse_graph(ROSEINF)
    assert len(g.all_paths(2, 2)) == 7
    assert len(g.all_paths(2, 3)) == 13
    arrows = g.all_arrows(4)
    assert [a.index for a in arrows] == [0, 1, 2, 3]
    assert str(arrows[0]) == "f[0]"


def test_periodic_word_shift_law(rose2):
    c = parse_path(rose2, "x1.x2")
    w = periodic_word(c)
    assert w.source == "v"
    assert [a.name for a in w.window(5)] == ["x1", "x2", "x1", "x2", "x1"]
    assert [a.name for a in w.shift(1).window(4)] == ["x2", "x1", "x2", "x1"]
    # shifting by the period returns the same word
    assert w.shift(2).window(6) == w.window(6)
    kind, cycle = classify_word(w)
    assert kind == "rational"
    assert str(cycle) == "x1.x2"


def test_periodic_word_requires_closed_path(sink3):
    with pytest.raises(PreconditionError):
        periodic_word(parse_path(sink3, "e.h"))


def test_thue_morse_is_witnessed_irrational(rose2):
    x1, x2 = sorted(rose2.out_arrows("v"), key=lambda a: a.key)
    w = thue_morse_word(rose2, x1, x2)
    names = [a.name for a in w.window(8)]
    assert names == ["x1", "x2", "x2", "x1", "x2", "x1", "x1", "x2"]
    kind, _ = classify_word(w)
    assert kind == "irrational_witnessed"
    # the shift of an aperiodic word stays tail equivalent to it
    assert tail_equivalent(w, w.shift(3))


def test_a_shifted_generator_tail_prints_its_offset(rose2):
    x1, x2 = sorted(rose2.out_arrows("v"), key=lambda a: a.key)
    w = thue_morse_word(rose2, x1, x2)
    assert str(w.shift(1)) == "tm(x1,x2)@1"
    assert str(w.shift(3)) == "tm(x1,x2)@3"


def test_paths_into_lists_the_paths_ending_at_a_vertex(sink3):
    assert [str(p) for p in sink3.paths_into("u", 2)] == ["u", "g", "e.g"]
    assert [str(p) for p in sink3.paths_into("w", 3)] == ["w", "h", "e.h", "g.e.h"]

def test_generator_word_with_prefix(rose2):
    x1, x2 = sorted(rose2.out_arrows("v"), key=lambda a: a.key)

    def bits(i):
        return x2 if i % 3 == 0 else x1

    w = generator_word("mod3", bits, "v")
    assert [a.name for a in w.window(4)] == ["x2", "x1", "x1", "x2"]
    w2 = w.prepend(x1)
    assert [a.name for a in w2.window(3)] == ["x1", "x2", "x1"]
    assert tail_equivalent(w, w2)


def test_tail_equivalence_distinguishes_words(rose2):
    wa = periodic_word(parse_path(rose2, "x1"))
    wb = periodic_word(parse_path(rose2, "x2"))
    assert not tail_equivalent(wa, wb)
    assert tail_equivalent(wa, wa.prepend(parse_path(rose2, "x2").arrows[0]))


def test_opaque_rules_leave_periodicity_and_tails_unknown(rose2):
    x1, x2 = sorted(rose2.out_arrows("v"), key=lambda a: a.key)
    const = generator_word("const", lambda i: x1, "v")
    assert classify_word(const) == (
        "unknown", "window matches period candidates [(0, 1), (1, 1), (2, 1)]"
    )
    # the Thue-Morse rule under another name, not registered aperiodic
    tm = thue_morse_word(rose2, x1, x2)
    plain = generator_word("tm-plain", tm.tail.fn, "v")
    assert classify_word(plain) == (
        "unknown", "no period within bounds, generator not registered aperiodic"
    )
    c1, c12 = (periodic_word(parse_path(rose2, text)) for text in ("x1", "x1.x2"))
    assert tail_equivalent(c1, c12) is False
    assert tail_equivalent(tm, plain) == "unknown"
    assert tail_equivalent(c1, tm) is False
    assert tail_equivalent(c1, plain) == "unknown"


# two loops at v, a loop at w, and a two-arrow cycle through both
TWO_CYCLES = parse_graph(
    "[vertices]\nv\nw\n[arrows]\na: v -> v\nb: v -> v\nc: v -> w\nd: w -> v\ne: w -> w\n"
)


def test_primitive_root_matches_brute_force():
    closed = [p for p in TWO_CYCLES.all_paths(8) if p.arrows and p.source == p.target]
    assert len(closed) == 3570
    for cycle in closed:
        arrows, n = cycle.arrows, len(cycle)
        p = min(p for p in range(1, n + 1) if n % p == 0 and arrows == arrows[:p] * (n // p))
        assert primitive_root(cycle) is Path.of_arrows(arrows[:p]), cycle
    assert str(primitive_root(parse_path(TWO_CYCLES, "c.d.c.d"))) == "c.d"
    assert str(primitive_root(parse_path(TWO_CYCLES, "d.c.d.c.d.c"))) == "d.c"
    assert str(primitive_root(parse_path(TWO_CYCLES, "a.b.a"))) == "a.b.a"
    for bad in (Path.vertex("v"), parse_path(TWO_CYCLES, "c")):
        with pytest.raises(PreconditionError):
            primitive_root(bad)


# -- paths and arrows as values -------------------------------------------------

# Both graphs have the single vertex v, so any word in their arrows is a path.
LETTERS = {
    "rose2": parse_graph(ROSE2).all_arrows(),
    "abfam": parse_graph(ABFAM).all_arrows(family_cap=3),
}


@st.composite
def words(draw):
    letters = LETTERS[draw(st.sampled_from(sorted(LETTERS)))]
    word = draw(st.lists(st.sampled_from(letters), max_size=6))
    other = draw(st.lists(st.sampled_from(letters), max_size=6))
    return tuple(word), tuple(other), draw(st.sampled_from(letters))


def _same_value(p, q):
    assert (p.source, p.target, p.arrows) == (q.source, q.target, q.arrows)
    assert p is q and p == q and hash(p) == hash(q) == object.__hash__(q)


@given(words(), st.data())
def test_path_operations_build_equal_values(ws, data):
    word, other, a = ws
    full = Path("v", "v", word)
    assert full is digraph._PATHS[("v", "v", word)]
    assert hash(full) == object.__hash__(full)
    cut = data.draw(st.integers(0, len(word)))
    head, tail = Path("v", "v", word[:cut]), Path("v", "v", word[cut:])
    built = [
        head.concat(tail),
        Path("v", "v", word + (a,)).drop_last(),
        Path("v", "v", (a,) + word).drop_first(),
    ]
    if word:
        built.append(Path("v", "v", word[1:]).prepend(word[0]))
        built.append(Path("v", "v", word[:-1]).concat(word[-1]))
        built.append(Path.of_arrows(word))
    for p in built:
        _same_value(p, full)
    # and values with different fields differ
    assert (full == Path("v", "v", other)) == (word == other)


def test_arrows_and_paths_from_separate_parses_are_equal():
    g1, g2 = parse_graph(ABFAM), parse_graph(ABFAM)
    for a1, a2 in zip(g1.all_arrows(3), g2.all_arrows(3), strict=True):
        assert a1 is a2
        assert a1 == a2 and hash(a1) == hash(a2)
        assert a1 is digraph._ARROWS[(a1.name, a1.source, a1.target, a1.index)]
        assert hash(a1) == object.__hash__(a1)
        assert a1.key == ((a1.name,) if a1.index is None else (a1.name, a1.index))
    p1, p2 = parse_path(g1, "a.f[2].b"), parse_path(g2, "a.f[2].b")
    assert p1 == p2 and hash(p1) == hash(p2) and {p1: 1}[p2] == 1
    assert parse_path(g1, "a.f[2]") != p2 and g1.arrow("f", 1) != g2.arrow("f", 2)
    assert p1 != str(p1) and g1.arrow("a") != Path.of_arrows((g1.arrow("a"),))


def test_equal_hashes_do_not_make_equal_values():
    # hash(-1) == hash(-2) in CPython, so the specs of these collide on purpose
    assert hash(("f", "v", "v", -1)) == hash(("f", "v", "v", -2))
    a, b = Arrow("f", "v", "v", -1), Arrow("f", "v", "v", -2)
    pa, pb = Path.of_arrows((a,)), Path.of_arrows((b,))
    assert a is not b and a != b and pa is not pb and pa != pb
    keyed = {a: 1, b: 2, pa: 3, pb: 4}
    assert len(keyed) == 4 and keyed[b] == 2 and keyed[pb] == 4


def test_arrows_and_paths_hash_by_identity():
    # interning makes identity hashing exact; a stored hash would be waste
    assert Arrow.__hash__ is Path.__hash__ is object.__hash__
    assert "_hash" not in Arrow.__slots__ and "_hash" not in Path.__slots__


def test_operations_move_base_points(sink3):
    e, g, h = (sink3.arrow(n) for n in "egh")
    egh = Path.of_arrows((e, g, e, h))
    _same_value(egh.drop_first(), Path.of_arrows((g, e, h)))
    _same_value(egh.drop_last(), Path.of_arrows((e, g, e)))
    _same_value(Path.of_arrows((h,)).drop_first(), Path.vertex("w"))
    _same_value(Path.of_arrows((h,)).drop_last(), Path.vertex("v"))
    _same_value(Path.vertex("v").prepend(e).concat(h), Path.of_arrows((e, h)))


def test_paths_and_arrows_are_frozen(rose2):
    p = parse_path(rose2, "x1.x2")
    with pytest.raises(FrozenInstanceError):
        p.source = "w"
    with pytest.raises(FrozenInstanceError):
        p.arrows = ()
    with pytest.raises(FrozenInstanceError):
        p.arrows[0].name = "x2"


def test_public_construction_still_validates(sink3):
    e, g, h = (sink3.arrow(n) for n in "egh")
    assert str(Path("u", "u", (e, g))) == "e.g"
    with pytest.raises(PreconditionError):
        Path("u", "w", (e, g))  # the arrows end at u
    with pytest.raises(PreconditionError):
        Path("u", "w", (e, g, h))  # g ends at u, h starts at v
    with pytest.raises(PreconditionError):
        Path.of_arrows((h, e))
    with pytest.raises(PreconditionError):
        Path.vertex("u").concat(h)
    with pytest.raises(PreconditionError):
        Path.of_arrows((e,)).prepend(e)


def test_unpickled_values_rehash_in_the_new_process():
    # pickled in another process, under another hash seed: unpickling must
    # hand back this process's interned objects, hashed by their identity
    code = (
        "import pickle, sys; from leavitt import parse_graph, parse_path; "
        "from conftest import ABFAM; "
        "sys.stdout.buffer.write(pickle.dumps(parse_path(parse_graph(ABFAM), 'a.f[2]')))"
    )
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join([src, here]))
    blob = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, check=True
    ).stdout
    p = pickle.loads(blob)
    assert p == parse_path(parse_graph(ABFAM), "a.f[2]")
    assert p is parse_path(parse_graph(ABFAM), "a.f[2]")
    assert hash(p) == object.__hash__(p)
    assert p.arrows[1] is Arrow("f", "v", "v", 2)
    assert hash(p.arrows[1]) == object.__hash__(p.arrows[1])
    assert isinstance(p.arrows[0], Arrow)
    assert p.arrows[1] is parse_graph(ABFAM).arrow("f", 2)


def test_unpickled_arrows_are_the_interned_ones(abfam):
    for a in abfam.all_arrows(3):
        assert pickle.loads(pickle.dumps(a)) is a
    assert pickle.loads(pickle.dumps(Arrow("f", "v", "v", -1))) is Arrow("f", "v", "v", -1)


# -- paths are interned -----------------------------------------------------------


@given(words(), st.data())
def test_every_construction_returns_the_interned_path(ws, data):
    word, other, a = ws
    full = Path("v", "v", word)
    cut = data.draw(st.integers(0, len(word)))
    head, tail = Path("v", "v", word[:cut]), Path("v", "v", word[cut:])
    built = [
        Path("v", "v", list(word)),
        head.concat(tail),
        Path.vertex("v").concat(full),
        Path("v", "v", word + (a,)).drop_last(),
        Path("v", "v", (a,) + word).drop_first(),
        pickle.loads(pickle.dumps(full)),
        copy.deepcopy(full),
    ]
    if word:
        built.append(Path("v", "v", word[1:]).prepend(word[0]))
        built.append(Path("v", "v", word[:-1]).concat(word[-1]))
        built.append(Path.of_arrows(list(word)))
    else:
        built.append(Path.vertex("v"))
    assert all(p is full for p in built)
    assert tail.prepend(a).drop_first() is tail
    assert (Path("v", "v", other) is full) == (other == word)


def test_unpickled_paths_from_another_process_are_the_interned_ones():
    code = (
        "import pickle, sys; from leavitt import parse_graph, parse_path; "
        "from conftest import ABFAM; g = parse_graph(ABFAM); "
        "sys.stdout.buffer.write(pickle.dumps([parse_path(g, 'a.f[2]'), parse_path(g, 'v')]))"
    )
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join([src, here]))
    blob = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, check=True
    ).stdout
    p, v = pickle.loads(blob)
    g = parse_graph(ABFAM)
    assert p is parse_path(g, "a.f[2]")
    assert v is Path.vertex("v")
    assert pickle.loads(pickle.dumps(p)) is p


def test_invalid_paths_still_raise_once_valid_ones_are_interned(sink3):
    e, g, h = (sink3.arrow(n) for n in "egh")
    assert Path("u", "u", (e, g)) is Path.of_arrows((e, g))
    assert Path("u", "w", (e, h)) is Path.of_arrows((e, h))
    for endpoints, arrows in [
        (("u", "u"), (e, h)),  # right endpoints, h ends at w
        (("u", "w"), (e, g)),  # right arrows, wrong target
        (("u", "w"), (e, g, h)),  # g ends at u, h starts at v
        (("u", "w"), ()),  # a vertex path needs source == target
    ]:
        before = len(digraph._PATHS)
        with pytest.raises(PreconditionError):
            Path(*endpoints, arrows)
        assert len(digraph._PATHS) == before


# -- ghost sort keys are tabled per interned path ------------------------------------


@given(words())
def test_ghost_sort_key_is_built_once_per_path(ws):
    word, _, _ = ws
    p = Path("v", "v", word)
    key = ghost_sort_key(p)
    assert key == (len(p.arrows), p.dual_key, p.source)
    assert ghost_sort_key(p) is key
    assert ghost_sort_key(Path("v", "v", list(word))) is key


def test_ghost_keys_are_held_for_interned_paths_only(rose2):
    paths = rose2.all_paths(3)
    for p in paths:
        ghost_sort_key(p)
    assert all(p in digraph._GHOST_KEYS for p in paths)
    assert all(
        digraph._PATHS[(p.source, p.target, p.arrows)] is p for p in digraph._GHOST_KEYS
    )
