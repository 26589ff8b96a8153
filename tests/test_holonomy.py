import functools
import itertools
import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from nilgrade import holonomy
from nilgrade import matrices as mx
from nilgrade.cli import _load_holonomy
from nilgrade.fixtures import ALL_FIXTURES, FIXTURE_MAPS, HOLONOMY_FIXTURES, load_algebra, load_holonomy, load_map
from nilgrade.grading import Grading, find_weights, grading_from_weights, phi_p
from nilgrade.holonomy import (
    HolonomyGroup,
    check_criterion,
    close_group,
    commutes_with_all,
    holonomy_is_valid,
    preserves_grading_all,
)
from nilgrade.liealg import LieAlgebra
from nilgrade.serialize import algebra_from_dict, holonomy_payload, matrix_from_lists, matrix_to_lists
from nilgrade.specmaps import expanding_to_positive_grading
from test_liealg import unimodular

GOLDEN_HOLONOMY = Path(__file__).resolve().parent / "golden" / "holonomy"


def golden_group(name):
    with open(GOLDEN_HOLONOMY / f"{name}.json") as fh:
        return close_group(*holonomy_payload(json.load(fh)))


def heisenberg():
    return load_algebra("heisenberg3")


class TestCloseGroup:
    def test_identity_only(self):
        assert close_group([mx.identity(2)]).order == 1

    def test_minus_identity(self):
        assert close_group([-mx.identity(2)]).order == 2

    def test_rotation_order_4(self):
        rot = mx.rmat([[0, -1], [1, 0]])
        group = close_group([rot])
        assert group.order == 4
        # oracle: direct powering gives 4 distinct elements
        powers = {tuple(oracles.flat(mx.mat_pow(rot, k))) for k in range(1, 5)}
        assert len(powers) == 4

    def test_dihedral_8(self):
        rot = mx.rmat([[0, -1], [1, 0]])
        refl = oracles.diag([1, -1])
        assert close_group([rot, refl]).order == 8

    def test_generators_do_not_depend_on_the_input_order(self):
        rot = mx.rmat([[0, -1], [1, 0]])
        refl = oracles.diag([1, -1])
        g1 = close_group([rot, refl])
        g2 = close_group([refl, mx.identity(2), rot, refl])
        assert (g1.dim, g1.order) == (g2.dim, g2.order) == (2, 8)
        assert len(g1.generators) == len(g2.generators) == 2
        assert all(oracles.mat_eq(a, b) for a, b in zip(g1.generators, g2.generators))

    def test_infinite_group_capped(self):
        shear = mx.rmat([[1, 1], [0, 1]])
        with pytest.raises(ValueError, match="not finite within bound"):
            close_group([shear], cap=32)

    def test_singular_generator_rejected(self):
        with pytest.raises(ValueError):
            close_group([mx.zeros(2, 2)])

    def test_lagrange_orders_divide(self):
        for name in ("heisenberg3_sign", "heisenberg3_swap"):
            group = load_holonomy(name)
            for el in oracles.group_elements(group.generators):
                order = 1
                acc = el
                while not oracles.mat_eq(acc, mx.identity(el.shape[0])):
                    acc = acc @ el
                    order += 1
                assert group.order % order == 0

    def test_generators_are_the_first_level(self):
        rot = mx.rmat([[0, -1], [1, 0]])
        refl = oracles.diag([1, -1])
        gens = [rot, refl, rot, mx.identity(2)]
        group = close_group(gens)
        assert len(group.generators) == 2
        assert all(oracles.mat_eq(a, b) for a, b in zip(group.generators, oracles.group_elements(gens)[1:3]))
        keys = [tuple(oracles.flat(g)) for g in group.generators]
        assert sorted(keys) == keys
        assert set(keys) == {tuple(oracles.flat(rot)), tuple(oracles.flat(refl))}

    def test_identity_generator_gives_no_generators(self):
        assert close_group([mx.identity(2)]).generators == ()

    @pytest.mark.parametrize("name", ["heisenberg3", "notcohopf"])
    def test_unloaded_holonomy_is_the_trivial_group(self, name):
        algebra = load_algebra(name)
        group = _load_holonomy(None, algebra)
        assert group.dim == algebra.dim and group.order == 1 and group.generators == ()


class TestPredicates:
    def test_preserves_grading_trivial_group(self):
        g = grading_from_weights(heisenberg(), (1, 1, 2))
        group = close_group([mx.identity(3)])
        assert preserves_grading_all(group, g)

    def test_sign_group_preserves(self):
        g = grading_from_weights(heisenberg(), (1, 1, 2))
        assert preserves_grading_all(load_holonomy("heisenberg3_sign"), g)

    def test_separating_grading_not_preserved(self):
        # swap exchanges X1 and X2; a grading separating them breaks
        a = LieAlgebra(2, {})
        g = grading_from_weights(a, (1, 2))
        swap = close_group([mx.rmat([[0, 1], [1, 0]])])
        assert not preserves_grading_all(swap, g)

    def test_commutes_with_all(self):
        h = heisenberg()
        group = load_holonomy("heisenberg3_sign")
        g = grading_from_weights(h, (1, 1, 2))
        assert commutes_with_all(phi_p(h, g, 2), group)
        assert commutes_with_all(mx.identity(3), group)

    def test_diag_vs_swap_fails(self):
        a = LieAlgebra(2, {})
        swap = close_group([mx.rmat([[0, 1], [1, 0]])])
        assert not commutes_with_all(oracles.diag([2, 3]), swap)

    def test_holonomy_validation(self):
        h = heisenberg()
        assert holonomy_is_valid(h, load_holonomy("heisenberg3_sign"))
        assert not holonomy_is_valid(h, HolonomyGroup(3, (-mx.identity(3),), 2))
        # a group of the wrong size is refused, also when it has no generators
        with pytest.raises(ValueError, match="matrix dimension mismatch"):
            holonomy_is_valid(h, HolonomyGroup(2, (), 1))


class TestCheckExpinfra:
    def test_condition_2_grading(self):
        h = heisenberg()
        group = load_holonomy("heisenberg3_sign")
        g = grading_from_weights(h, (1, 1, 2))
        v = check_criterion(h, group, g, True)
        assert v.accepted() and v.condition == "expinfra-cond-2"

    def test_condition_3_matrix(self):
        h = heisenberg()
        group = load_holonomy("heisenberg3_sign")
        v = check_criterion(h, group, oracles.diag([2, 2, 4]), True)
        assert v.accepted() and v.condition == "expinfra-cond-3"

    def test_condition_3_commutation_failure_names_witness(self):
        h = heisenberg()
        group = load_holonomy("heisenberg3_swap")
        v = check_criterion(h, group, oracles.diag([2, 3, 6]), True)
        assert v.decision == "reject"
        assert "noncommuting_element" in v.certificate

    def test_non_expanding_certificate_rejected(self):
        h = heisenberg()
        group = load_holonomy("heisenberg3_sign")
        v = check_criterion(h, group, oracles.diag([1, 2, 2]), True)
        assert v.decision == "reject"

    def test_cond3_witness_yields_cond2_grading(self):
        # extraction from an accepted commuting expanding map is preserved by F
        h = heisenberg()
        for group_name in ("heisenberg3_sign", "heisenberg3_swap"):
            group = load_holonomy(group_name)
            m = oracles.diag([2, 2, 4])
            v3 = check_criterion(h, group, m, True)
            assert v3.accepted()
            g = expanding_to_positive_grading(h, m)
            v2 = check_criterion(h, group, g, True)
            assert v2.accepted() and v2.condition == "expinfra-cond-2"


class TestCheckCovinfra:
    def test_notcohopf_phi_condition_3(self):
        n = load_algebra("notcohopf")
        group = close_group([mx.identity(7)])
        v = check_criterion(n, group, load_map("notcohopf", "phi"), False)
        assert v.accepted() and v.condition == "covinfra-cond-3"
        assert v.certificate["det"] == "1024"

    def test_notcohopf_grading_condition_2(self):
        n = load_algebra("notcohopf")
        group = close_group([mx.identity(7)])
        g = grading_from_weights(n, (0, 1, 1, 1, 2, 2, 3))
        v = check_criterion(n, group, g, False)
        assert v.accepted() and v.condition == "covinfra-cond-2"

    def test_positive_grading_also_witnesses(self):
        h = heisenberg()
        group = close_group([mx.identity(3)])
        g = grading_from_weights(h, (1, 1, 2))
        assert check_criterion(h, group, g, False).accepted()

    def test_nilp5_diagonal_candidates_rejected(self):
        n5 = load_algebra("nilp5")
        group = close_group([mx.identity(7)])
        for d in ([1, 2, 2, 2, 4, 4, 8], [2] * 7):
            v = check_criterion(n5, group, oracles.diag(d), False)
            assert v.decision == "reject"

    def test_trivial_grading_rejected(self):
        a = load_algebra("abelian3")
        group = close_group([mx.identity(3)])
        g = grading_from_weights(a, (0, 0, 0))
        v = check_criterion(a, group, g, False)
        assert v.decision == "reject"


class TestEquivariantSearch:
    def test_trivial_group_reduces_to_plain_search(self):
        h = heisenberg()
        group = close_group([mx.identity(3)])
        assert find_weights(h, True, group.generators) == (1, 1, 2)

    def test_swap_symmetric_weights(self):
        h = heisenberg()
        group = load_holonomy("heisenberg3_swap")
        assert find_weights(h, True, group.generators) == (1, 1, 2)

    def test_asymmetric_constraint_changes_answer(self):
        # free 2-dim abelian with a swap: weights must be equal
        a = LieAlgebra(2, {})
        swap = close_group([mx.rmat([[0, 1], [1, 0]])])
        assert find_weights(a, True, swap.generators) == (1, 1)

    def test_nilp5_none(self):
        n5 = load_algebra("nilp5")
        group = close_group([mx.identity(7)])
        assert find_weights(n5, True, group.generators) is None
        assert find_weights(n5, False, group.generators) is None

    def test_rotation(self):
        # 90-degree rotation, a signed permutation swapping X_1 and X_2
        rot = load_map("heisenberg3", "rotation")
        h = heisenberg()
        group = close_group([rot])
        assert find_weights(h, True, group.generators) == (1, 1, 2)

    def test_non_monomial_searched(self):
        # X_1 -> X_2, X_2 -> -X_1 - X_2: the entries f_12 and f_21 tie w_1 = w_2
        h = heisenberg()
        group = load_holonomy("heisenberg3_order3")
        assert group.order == 3
        for positive in (True, False):
            w = find_weights(h, positive, group.generators)
            assert w == (1, 1, 2)
            assert preserves_grading_all(group, grading_from_weights(h, w))
        assert commutes_with_all(oracles.diag([2, 2, 4]), group)

    @pytest.mark.parametrize("shape", [4, 2])
    def test_generator_of_the_wrong_shape_raises(self, shape):
        swap = mx.rmat(oracles.identity(shape)[:, ::-1])
        with pytest.raises(ValueError, match="matrix dimension mismatch"):
            find_weights(heisenberg(), True, [swap])

    def test_result_is_preserved(self):
        h = heisenberg()
        group = load_holonomy("heisenberg3_swap")
        w = find_weights(h, True, group.generators)
        g = grading_from_weights(h, w)
        assert preserves_grading_all(group, g)

    def test_phi_p_of_preserved_grading_commutes(self):
        h = heisenberg()
        for group_name in ("heisenberg3_sign", "heisenberg3_swap"):
            group = load_holonomy(group_name)
            g = grading_from_weights(h, (1, 1, 2))
            assert preserves_grading_all(group, g)
            for p in (2, 3, 5):
                assert commutes_with_all(phi_p(h, g, p), group)


class TestRevalidation:
    """check_criterion still raises on a holonomy group that is not by
    automorphisms, at one is_automorphism call per generator."""

    def count_calls(self, monkeypatch):
        calls = []
        real = holonomy.is_automorphism
        monkeypatch.setattr(holonomy, "is_automorphism", lambda a, m: calls.append(m) or real(a, m))
        return calls

    def test_trivial_group_costs_nothing(self, monkeypatch):
        h = heisenberg()
        calls = self.count_calls(monkeypatch)
        g = grading_from_weights(h, (1, 1, 2))
        assert check_criterion(h, _load_holonomy(None, h), g, True).accepted()
        assert check_criterion(h, _load_holonomy(None, h), g, False).accepted()
        assert calls == []

    def test_one_call_per_generator(self, monkeypatch):
        h = heisenberg()
        group = golden_group("heisenberg3_order3_swap_sign")
        calls = self.count_calls(monkeypatch)
        assert check_criterion(h, group, grading_from_weights(h, (1, 1, 2)), True).accepted()
        assert group.order == 12 and len(calls) == 3

    def test_non_automorphism_still_raises(self):
        h = heisenberg()
        bad = HolonomyGroup(3, (-mx.identity(3),), 2)
        for positive in (True, False):
            with pytest.raises(ValueError, match="must be automorphisms"):
                check_criterion(h, bad, grading_from_weights(h, (1, 1, 2)), positive)


# -- the generator versions against the all-elements oracles ------------------


def signed_permutation(rng, n):
    m = oracles.zeros(n, n)
    for j, i in enumerate(rng.sample(range(n), n)):
        m[i, j] = mx.frac(rng.choice((1, -1)))
    return mx.rmat(m)


def random_case(seed):
    """1-3 seeded signed permutations: on the abelian algebra of dim 2-4
    (they generate a group of order at most 384), or on heisenberg3, where
    some of them are not automorphisms."""
    rng = random.Random(f"holonomy oracle {seed}")
    algebra = heisenberg() if seed % 4 == 3 else LieAlgebra(rng.randint(2, 4), {})
    gens = [signed_permutation(rng, algebra.dim) for _ in range(rng.randint(1, 3))]
    return algebra, gens, rng


def named_case(name):
    group = load_holonomy(name) if name in HOLONOMY_FIXTURES else golden_group(name)
    return heisenberg(), list(group.generators), random.Random(name)


def certificates(algebra, rng):
    """Expanding automorphisms with Z[X] charpoly and |det| > 1, and positive
    and non-negative non-trivial gradings, all diagonal in the basis."""
    n = algebra.dim
    if algebra.terms:  # heisenberg3: [X_1, X_2] = X_3
        maps = [oracles.diag([a, b, a * b]) for a, b in itertools.product((2, 3), repeat=2)]
        positive = [(a, b, a + b) for a, b in itertools.product((1, 2), repeat=2)]
        nonneg = [(0, 1, 1), (1, 0, 1)]
    else:
        maps = [oracles.diag([2] * n)] + [oracles.diag([rng.choice((2, 3)) for _ in range(n)]) for _ in range(3)]
        positive = [(1,) * n] + [tuple(rng.choice((1, 2)) for _ in range(n)) for _ in range(3)]
        nonneg = [tuple(rng.choice((0, 1)) for _ in range(n - 1)) + (1,) for _ in range(2)]
    return maps, [grading_from_weights(algebra, w) for w in positive], [grading_from_weights(algebra, w) for w in nonneg]


def assert_names_first_failure(v, elements, idx, key, message):
    if idx is None:
        assert v.accepted(), v.diagnostics
        return
    assert v.decision == "reject"
    assert v.certificate[key] == matrix_to_lists(elements[idx])
    assert v.diagnostics == [message.format(idx)]


CASES = [f"seed{i}" for i in range(24)] + list(HOLONOMY_FIXTURES) + ["heisenberg3_order3_swap", "heisenberg3_order3_swap_sign"]


@pytest.mark.parametrize("case", CASES)
def test_generators_decide_like_every_element(case):
    algebra, gens, rng = random_case(int(case[4:])) if case.startswith("seed") else named_case(case)
    group, elements = close_group(gens), oracles.group_elements(gens)
    valid = oracles.holonomy_is_valid_all(algebra, elements)
    assert holonomy_is_valid(algebra, group) == valid
    maps, positive, nonneg = certificates(algebra, rng)
    for m in maps:
        assert commutes_with_all(m, group) == oracles.commutes_with_every(m, elements)
    for g in positive + nonneg:
        assert preserves_grading_all(group, g) == oracles.preserves_grading_every(elements, g)

    for criterion in (True, False):
        want = oracles.equivariant_weight_search_all(algebra, elements, criterion)
        assert find_weights(algebra, criterion, group.generators) == want
        # the answer depends only on the group, not on how it is generated
        assert find_weights(algebra, criterion, elements) == want

    if not valid:
        for criterion in (True, False):
            with pytest.raises(ValueError, match="must be automorphisms"):
                check_criterion(algebra, group, maps[0], criterion)
        return
    for m in maps:
        idx = oracles.first_failing_all(elements, mx.commutes_with(m))
        for criterion in (True, False):
            v = check_criterion(algebra, group, m, criterion)
            assert_names_first_failure(v, elements, idx, "noncommuting_element", "map fails to commute with holonomy element {}")
    for g, criteria in [(g, (True, False)) for g in positive] + [(g, (False,)) for g in nonneg]:
        idx = oracles.first_failing_all(elements, lambda f: holonomy.preserved_by(g, f))
        for criterion in criteria:
            v = check_criterion(algebra, group, g, criterion)
            assert_names_first_failure(v, elements, idx, "violating_element", "holonomy element {} does not preserve the grading")


# -- the weight search against a brute force over every element ---------------


def is_monomial(m):
    return all(sum(1 for x in col if x) == 1 for col in m.T)


def conjugated_case(seed):
    """U G U^-1 on the abelian algebra of dim 2-4.  G is generated by 1-3
    seeded signed permutations that each keep a seeded split of the basis
    into contiguous blocks.  U = P T is unimodular and not monomial: T is a
    product of transvections I + c E_ij (i < j, c > 0), so some entry above
    its unit diagonal is positive, and P is a permutation.  Transvections
    within a block keep the blocks' images invariant; one across blocks
    may break that."""
    rng = random.Random(f"conjugated holonomy {seed}")
    n = rng.randint(2, 4)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    blocks = [range(a, b) for a, b in zip([0] + cuts, cuts + [n])]
    u = mx.identity(n)
    for _ in range(rng.randint(1, 3)):
        i, j = sorted(rng.sample(range(n), 2))
        t = oracles.identity(n)
        t[i, j] = mx.frac(rng.choice((1, 2)))
        u = mx.matmul(u, mx.rmat(t))
    u = mx.matmul(mx.rmat(oracles.identity(n)[:, rng.sample(range(n), n)]), u)
    assert not is_monomial(u) and abs(mx.det(u)) == 1
    u_inv = mx.inverse(u)
    gens = []
    for _ in range(rng.randint(1, 3)):
        g = oracles.zeros(n, n)
        for block in blocks:
            for j, i in zip(block, rng.sample(block, len(block))):
                g[i, j] = mx.frac(rng.choice((1, -1)))
        gens.append(mx.matmul(mx.matmul(u, mx.rmat(g)), u_inv))
    return LieAlgebra(n, {}), gens


BRUTE_FORCE_CASES = [f"seed{i}" for i in range(16)] + ["heisenberg3_order3", "heisenberg3_order3_swap", "heisenberg3_order3_swap_sign"]


@pytest.mark.parametrize("case", BRUTE_FORCE_CASES)
def test_search_matches_brute_force_over_every_element(case):
    algebra, gens = conjugated_case(int(case[4:])) if case.startswith("seed") else named_case(case)[:2]
    elements = oracles.group_elements(gens)
    for positive in (True, False):
        want = oracles.preserved_weights_brute_force(algebra, elements, positive, 3)
        assert want is not None
        assert find_weights(algebra, positive, close_group(gens).generators) == want


def test_conjugated_cases_are_informative():
    # most groups leave the monomial class, and some split the basis
    cases = [conjugated_case(int(case[4:])) for case in BRUTE_FORCE_CASES if case.startswith("seed")]
    assert sum(not all(map(is_monomial, close_group(g).generators)) for _, g in cases) >= 12
    assert sum(len(set(find_weights(a, False, close_group(g).generators))) > 1 for a, g in cases) >= 6


# -- the order and the generators against the enumeration of every element ----


def hyperoctahedral(n):
    """Generators of B_n, the signed permutations of order 2^n n!: a
    transposition, an n-cycle and one sign change."""
    eye = oracles.identity(n)
    swap = eye[:, [1, 0] + list(range(2, n))]
    cycle = eye[:, list(range(1, n)) + [0]]
    sign = eye.copy()
    sign[0, 0] = Fraction(-1)
    return [mx.rmat(m) for m in (swap, cycle, sign)]


@pytest.mark.parametrize("case", [f"seed{i}" for i in range(16)] + ["B3", "B4"])
def test_order_and_generators_match_the_enumeration(case):
    gens = conjugated_case(int(case[4:]))[1] if case.startswith("seed") else hyperoctahedral(int(case[1:]))
    group = close_group(gens)
    elements = oracles.group_elements(gens)
    assert group.order == len(elements)
    if not case.startswith("seed"):
        n = int(case[1:])
        assert group.order == 2**n * math.factorial(n)
    # the first level: the distinct non-identity generators, in key order
    k = len(set(gens) - {elements[0]})
    assert list(group.generators) == elements[1 : 1 + k]


# -- check_criterion against the two checks it replaced ------------------------


TESTS = Path(__file__).resolve().parent
GOLDEN_ALGEBRAS = sorted((TESTS / "golden" / "algebras").glob("*.json"))
CRITERION_ALGEBRAS = list(ALL_FIXTURES) + [p.stem for p in GOLDEN_ALGEBRAS]
CRITERION_GROUPS = ["trivial", *HOLONOMY_FIXTURES, *(p.stem for p in sorted(GOLDEN_HOLONOMY.glob("*.json")))]


def criterion_algebra(name):
    if name in ALL_FIXTURES:
        return load_algebra(name)
    with open(TESTS / "golden" / "algebras" / f"{name}.json") as fh:
        return algebra_from_dict(json.load(fh))


def reshaped(s, rng):
    """S U for a seeded unimodular U: the same subspace in another basis."""
    k = s.shape[1]
    if k == 1:
        return -s
    return mx.matmul(s, unimodular(k, [(rng.randrange(k), rng.randrange(k), rng.choice((-1, 1, 2))) for _ in range(2 * k)]))


def criterion_certificates(name, algebra, group, rng):
    """Gradings and maps that reach every accept and reject of both criteria.

    Gradings: those found with and without the holonomy, the same moved
    within their components and across them by unimodular matrices, one
    with a component dropped, the trivial grading and the negated found
    ones ("other").  Maps: phi_2 and phi_3 of the found gradings,
    diag(r^w) for r = 3/2 (expanding or not, never in Z[X]) and r = 1/2,
    the fixture and golden maps of the algebra, a singular map, 2 I and -I
    (automorphisms only of an abelian algebra), I (unit det) and a
    seeded unimodular map.
    """
    n = algebra.dim
    found = sorted({find_weights(algebra, positive, gens) for positive in (True, False) for gens in ((), group.generators)} - {None})
    gradings = [grading_from_weights(algebra, w) for w in found]
    certs = list(gradings)
    for g in gradings:
        certs.append(Grading(tuple((w, reshaped(s, rng)) for w, s in g.components)))
        p = unimodular(n, [(rng.randrange(n), rng.randrange(n), rng.choice((-1, 1))) for _ in range(n)])
        certs.append(Grading(tuple((w, mx.matmul(p, s)) for w, s in g.components)))
        if len(g.components) > 1:
            certs.append(Grading(g.components[1:]))
    certs += [grading_from_weights(algebra, w) for w in [(0,) * n] + [tuple(-x for x in w) for w in found]]
    for g in gradings:
        certs += [phi_p(algebra, g, 2), phi_p(algebra, g, 3)]
        certs += [oracles.diag([r**w for w in g.column_weights]) for r in (Fraction(3, 2), Fraction(1, 2))]
    certs += [load_map(name, m) for m in FIXTURE_MAPS.get(name, ())]
    certs += [matrix_from_lists(json.loads(p.read_text())) for p in sorted((TESTS / "golden" / "maps").glob(f"{name}__*.json"))]
    certs += [oracles.diag([0] + [1] * (n - 1)), oracles.diag([2] * n), -mx.identity(n), mx.identity(n)]
    certs.append(unimodular(n, [(rng.randrange(n), rng.randrange(n), 1) for _ in range(n)]))
    return certs


def outcome(check, *args):
    try:
        return check(*args).to_json()
    except ValueError as e:
        return f"ValueError: {e}"


@functools.cache
def criterion_outcomes(name):
    """(positive, oracle output, check_criterion output) for every group
    of the algebra's dimension and every certificate."""
    algebra = criterion_algebra(name)
    out = []
    for group_name in CRITERION_GROUPS:
        if group_name == "trivial":
            group = close_group([mx.identity(algebra.dim)])
        else:
            group = close_group(named_case(group_name)[1])
        rng = random.Random(f"criterion oracle {name} {group_name}")
        certs = criterion_certificates(name, algebra, group, rng) if group.dim == algebra.dim else [mx.identity(algebra.dim)]
        for positive, oracle in ((True, oracles.check_expinfra), (False, oracles.check_covinfra)):
            out += [(positive, outcome(oracle, algebra, group, c), outcome(check_criterion, algebra, group, c, positive)) for c in certs]
    return out


@pytest.mark.parametrize("name", CRITERION_ALGEBRAS)
def test_check_criterion_matches_the_two_checks(name):
    for positive, want, got in criterion_outcomes(name):
        assert got == want, (positive, want)


def test_criterion_certificates_reach_every_verdict():
    # each accept and reject of both criteria, told apart by condition and
    # first diagnostic, with the numbers in it blanked, and the refusal of
    # a group that is not by automorphisms
    seen = set()
    for name in CRITERION_ALGEBRAS:
        for positive, want, _ in criterion_outcomes(name):
            if want.startswith("ValueError"):
                seen.add((positive, want))
            else:
                v = json.loads(want)
                seen.add((v["decision"], v["condition"], re.sub(r"\d+", "#", v["diagnostics"][0])))
    for positive in (True, False):
        assert (positive, "ValueError: holonomy elements must be automorphisms of the algebra") in seen
    for kind, need in (("expinfra", "positive"), ("covinfra", "nonnegative-nontrivial")):
        grading_rejects = [
            "components do not decompose the algebra as a direct sum",
            "bracket of components (#, #) leaves the weight-# component",
            f"grading classifies as trivial, need {need}",
            f"grading classifies as other, need {need}",
            "holonomy element # does not preserve the grading",
        ]
        map_rejects = ["certificate map is not an automorphism", "map fails to commute with holonomy element #"]
        assert {("reject", f"{kind}-cond-2", d) for d in grading_rejects} <= seen
        assert {("reject", f"{kind}-cond-3", d) for d in map_rejects} <= seen
    assert {
        ("accept", "expinfra-cond-2", "positive grading preserved by all # holonomy elements"),
        ("accept", "expinfra-cond-3", "expanding automorphism commutes with the holonomy group"),
        ("reject", "expinfra-cond-2", "grading classifies as nonnegative-nontrivial, need positive"),
        ("reject", "expinfra-cond-3", "certificate map is not expanding"),
        ("accept", "covinfra-cond-2", "positive grading preserved by all # holonomy elements"),
        ("accept", "covinfra-cond-2", "nonnegative-nontrivial grading preserved by all # holonomy elements"),
        ("accept", "covinfra-cond-3", "self-cover automorphism commutes with the holonomy group"),
        ("reject", "covinfra-cond-3", "characteristic polynomial is not in Z[X]"),
        ("reject", "covinfra-cond-3", "|det| is not > #"),
    } <= seen
