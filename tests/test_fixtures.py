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
from nilgrade.liealg import is_automorphism, validate
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
