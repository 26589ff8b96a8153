from fractions import Fraction

from hypothesis import given, settings, strategies as st

from nilgrade import matrices as mx
from nilgrade.fixtures import (
    ALL_FIXTURES,
    CORPUS_6DIM,
    FIXTURE_MAPS,
    HOLONOMY_FIXTURES,
    load_algebra,
    load_holonomy,
    load_map,
)
from nilgrade.holonomy import holonomy_is_valid
from nilgrade.liealg import LieAlgebra, is_automorphism, validate
from nilgrade.serialize import algebra_from_dict, algebra_to_dict


def test_every_fixture_validates():
    for name in ALL_FIXTURES:
        assert validate(load_algebra(name)).accepted(), name


def test_corpus_dimensions():
    for name in CORPUS_6DIM:
        assert load_algebra(name).dim <= 6
    assert load_algebra("nilp5").dim == 7
    assert load_algebra("notcohopf").dim == 7


def test_bundled_maps_are_automorphisms():
    for algebra_name, maps in FIXTURE_MAPS.items():
        algebra = load_algebra(algebra_name)
        for map_name in maps:
            assert is_automorphism(algebra, load_map(algebra_name, map_name)), (
                algebra_name,
                map_name,
            )


def test_bundled_holonomy_groups_are_valid():
    heis = load_algebra("heisenberg3")
    for name in HOLONOMY_FIXTURES:
        group = load_holonomy(name)
        assert holonomy_is_valid(heis, group), name
        assert group.dim == 3 and group.generators


def test_algebra_serialization_roundtrip():
    for name in ALL_FIXTURES:
        algebra = load_algebra(name)
        back = algebra_from_dict(algebra_to_dict(algebra))
        assert back.dim == algebra.dim
        assert back.terms == algebra.terms


@st.composite
def algebra_files(draw):
    """Algebra file data whose brackets repeat targets k, some of them
    summing to zero, and some brackets with no nonzero term left."""
    n = draw(st.integers(1, 5))
    pairs = draw(st.lists(st.sampled_from([(i, j) for j in range(1, n + 1) for i in range(1, j)] or [None]), unique=True))
    coefficient = st.sampled_from(["1", "-1", "1/2", "-1/2", "2/3", "-4", 3])
    brackets = [
        {"i": i, "j": j, "terms": [{"k": k, "c": c} for k, c in draw(st.lists(st.tuples(st.integers(1, n), coefficient), max_size=6))]}
        for i, j in (p for p in pairs if p)
    ]
    return {"dim": n, "brackets": brackets}


def dense_algebra(data):
    """The constructor's reading of an algebra file: one dense vector per
    bracket, the terms added into it."""
    n = data["dim"]
    table = {}
    for entry in data["brackets"]:
        vec = [Fraction(0)] * n
        for term in entry["terms"]:
            vec[term["k"] - 1] += Fraction(term["c"])
        table[(entry["i"] - 1, entry["j"] - 1)] = vec
    return LieAlgebra(n, table)


@settings(max_examples=200)
@given(data=algebra_files())
def test_algebra_from_dict_builds_the_constructors_table(data):
    got, want = algebra_from_dict(data), dense_algebra(data)
    assert got.dim == want.dim
    assert list(got.terms.items()) == list(want.terms.items())
    assert (got.upper, got.den, got.by_left) == (want.upper, want.den, want.by_left)
