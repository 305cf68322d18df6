import random

import pytest

from leavitt import (
    Path,
    SchreierStaircase,
    element_to_ghost,
    ghost_to_element,
    is_open,
    lewin_schreier_rank,
    mono_str,
    not_open_up_to,
    parse_element,
    power_ideal_generators,
)
from leavitt import digraph
from leavitt.errors import PreconditionError

from oracles import dense_ghost_span, paths_by_target, random_ghost_element

QUAT_GENS = (
    "a*.a* + v",
    "b*.b* + v",
    "a*.b* + b*.a*",
    "b*.a*.b* + a*",
    "a*.b*.a* + b*",
)


def ghost_name(path):
    return mono_str((Path.vertex(path.target), path))


def quat_staircase(roseab, q, degree=4):
    gens = [parse_element(roseab, q, t) for t in QUAT_GENS]
    return SchreierStaircase(roseab, q, gens, degree)


# -- ghost vector round trips --------------------------------------------------


def test_ghost_round_trip(rose2, q):
    x = parse_element(rose2, q, "x1*.x2* - 3 v + x1*")
    vec = element_to_ghost(x)
    assert ghost_to_element(rose2, q, vec) == x
    with pytest.raises(PreconditionError):
        element_to_ghost(parse_element(rose2, q, "x1"))


# -- the quaternion staircase ----------------------------------------------------


def test_quaternion_staircase_shape(roseab, q):
    st = quat_staircase(roseab, q)
    assert st.stabilized
    assert st.codimension() == ("finite", 4)
    assert [ghost_name(p) for p in st.coset_basis()] == ["v", "a*", "b*", "a*.b*"]


def test_rebuilding_a_staircase_interns_no_new_paths(roseab, q):
    # a table key that fails to dedupe equal paths would grow the table here
    first = quat_staircase(roseab, q)
    size, keyed = len(digraph._PATHS), len(digraph._GHOST_KEYS)
    again = quat_staircase(roseab, q)
    assert len(digraph._PATHS) == size
    assert len(digraph._GHOST_KEYS) == keyed
    assert all(p is r for p, r in zip(first.rows, again.rows, strict=True))
    assert all(p is r for p, r in zip(first.coset, again.coset, strict=True))


def test_quaternion_free_generators_match_rank_formula(roseab, q):
    st = quat_staircase(roseab, q)
    free = st.free_generators()
    assert len(free) == lewin_schreier_rank(2, 4) == 5
    for gen in free:
        assert st.membership(gen) == "in"


def test_quaternion_membership(roseab, q):
    st = quat_staircase(roseab, q)
    assert st.membership(parse_element(roseab, q, "a*.a* + v")) == "in"
    assert st.membership(parse_element(roseab, q, "a*.a*.a* + a*")) == "in"
    assert st.membership(parse_element(roseab, q, "a*")) == "out"
    assert st.membership(parse_element(roseab, q, "v")) == "out"
    deep = parse_element(roseab, q, "a*.a*.a*.a*.a*")
    assert st.membership(deep) == "unknown"


def test_free_generators_need_stabilization(roseab, q):
    st = SchreierStaircase(roseab, q, [], 3)
    # the zero ideal over a rose never stabilizes at a finite degree
    assert not st.stabilized
    assert st.codimension()[0] == "at_least"
    with pytest.raises(PreconditionError):
        st.free_generators()


def test_codimension_one_ideal(roseab, q):
    gens = [parse_element(roseab, q, "a* - v"), parse_element(roseab, q, "b*")]
    st = SchreierStaircase(roseab, q, gens, 5)
    assert st.stabilized
    assert st.codimension() == ("finite", 1)
    assert [ghost_name(p) for p in st.coset_basis()] == ["v"]
    assert len(st.free_generators()) == lewin_schreier_rank(2, 1) == 2
    # a*.a* reduces to v through the first generator twice
    assert st.membership(parse_element(roseab, q, "a*.a* - v")) == "in"


def test_coset_is_closed_under_prefix_drop(roseab, rose3, q):
    # a staircase coset basis is always closed under dropping the last
    # arrow of the key, the head of the dual word
    rng = random.Random(17)
    cases = [quat_staircase(roseab, q)]
    table = paths_by_target(rose3, 2)
    for _ in range(6):
        gens = [random_ghost_element(rose3, q, rng, 2, 3, table) for _ in range(3)]
        cases.append(SchreierStaircase(rose3, q, gens, 4))
    for st in cases:
        coset = set(st.coset)
        for p in coset:
            if len(p) >= 1:
                assert p.drop_last() in coset


def test_staircase_matches_dense_span(roseab, q):
    rng = random.Random(29)
    table = paths_by_target(roseab, 2)
    for trial in range(8):
        gens = [random_ghost_element(roseab, q, rng, 2, 3, table) for _ in range(2)]
        st = SchreierStaircase(roseab, q, gens, 5)
        oracle = dense_ghost_span(roseab, q, gens, 5)
        for _ in range(20):
            x = random_ghost_element(roseab, q, rng, 3, 3, table)
            want = oracle.member(element_to_ghost(x))
            got = st.membership(x)
            if want:
                assert got == "in"
            elif st.stabilized:
                assert got == "out"


# -- power ideals and openness ----------------------------------------------------


def test_power_ideal_generators_counts(rose2, sink3, q):
    assert len(power_ideal_generators(rose2, q, 0)) == 1
    assert len(power_ideal_generators(rose2, q, 2)) == 4
    assert len(power_ideal_generators(rose2, q, 3)) == 8
    # on the sink graph shorter words ending at the sink are included
    gens = power_ideal_generators(sink3, q, 2)
    texts = sorted(str(g) for g in gens)
    assert "w" in texts
    assert any("h*" in t for t in texts)


def test_power_ideal_is_open_at_its_level(rose2, q):
    gens = power_ideal_generators(rose2, q, 2)
    st = SchreierStaircase(rose2, q, gens, 5)
    verdict, _ = is_open(rose2, q, st.membership, 2)
    assert verdict == "open"
    verdict, witness = is_open(rose2, q, st.membership, 1)
    assert verdict == "not_open"
    assert st.membership(witness) == "out"


def test_power_ideal_scan_stops_at_its_level(rose2, q):
    st = SchreierStaircase(rose2, q, power_ideal_generators(rose2, q, 2), 5)
    assert st.codimension() == ("finite", 3)
    assert not_open_up_to(rose2, q, st.membership, 5) == ("open_at", 2)


def test_quaternion_ideal_is_not_open(roseab, q):
    st = quat_staircase(roseab, q, degree=4)
    assert not_open_up_to(roseab, q, st.membership, 3) == ("not_open_up_to", 3)


def test_whole_algebra_is_open(rose2, q):
    st = SchreierStaircase(rose2, q, [parse_element(rose2, q, "v")], 4)
    assert st.codimension() == ("finite", 0)
    verdict, _ = is_open(rose2, q, st.membership, 0)
    assert verdict == "open"


def test_rank_formula_validates_inputs():
    assert lewin_schreier_rank(2, 0) == 1
    assert lewin_schreier_rank(3, 2) == 5
    with pytest.raises(PreconditionError):
        lewin_schreier_rank(0, 1)
