import itertools
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from nilgrade import matrices as mx
from nilgrade.fixtures import ALL_FIXTURES, load_algebra, load_holonomy, load_map
from nilgrade.grading import (
    Grading,
    classify,
    find_weights,
    grading_from_weights,
    meets_criterion,
    phi_p,
    preserved_by,
    verify_grading,
    weight_solution_space,
)
from nilgrade.liealg import LieAlgebra, is_automorphism, is_derivation
import oracles
from oracles import (
    dense_table,
    from_roots,
    group_elements,
    phi_p_fraction,
    preserved_by_rank,
    verify_grading_pairwise,
)


def heisenberg():
    return load_algebra("heisenberg3")


def span(*cols):
    return mx.rmat([[c[i] for c in cols] for i in range(len(cols[0]))])


# -- exhaustive oracle -------------------------------------------------------


def exhaustive_weights(algebra: LieAlgebra, lo: int, hi: int, nontrivial_nonneg=False):
    """All integer weight vectors in [lo, hi]^n satisfying the constraints."""
    n = algebra.dim
    table = dense_table(algebra)
    out = []
    for w in itertools.product(range(lo, hi + 1), repeat=n):
        if nontrivial_nonneg and not any(x >= 1 for x in w):
            continue
        ok = True
        for (i, j), vec in table.items():
            for k in range(n):
                if vec[k] != 0 and w[i] + w[j] != w[k]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(w)
    return out


class TestVerifyGrading:
    def test_heisenberg_standard(self):
        g = Grading(((1, span([1, 0, 0], [0, 1, 0])), (2, span([0, 0, 1]))))
        assert verify_grading(heisenberg(), g).accepted()

    def test_notcohopf_weights_verify(self):
        n = load_algebra("notcohopf")
        g = grading_from_weights(n, (0, 1, 1, 1, 2, 2, 3))
        assert verify_grading(n, g).accepted()

    def test_misassigned_basis_rejected(self):
        g = Grading(((1, span([1, 0, 0], [0, 0, 1])), (2, span([0, 1, 0]))))
        v = verify_grading(heisenberg(), g)
        assert v.decision == "reject"
        assert v.condition == "not-homogeneous"
        assert v.certificate["pair"] == [1, 2]
        assert v.certificate["bracket"] == ["0", "0", "1"]

    def test_non_basis_aligned_grading_verifies(self):
        # same Heisenberg grading after mixing the generators
        g = Grading(((1, span([1, 1, 0], [1, -1, 0])), (2, span([0, 0, 1]))))
        assert verify_grading(heisenberg(), g).accepted()

    def test_not_direct_sum_rejected(self):
        g = Grading(((1, span([1, 0, 0], [0, 1, 0])), (2, span([1, 1, 0]))))
        v = verify_grading(heisenberg(), g)
        assert v.condition == "not-direct-sum"

    def test_weights_must_increase(self):
        with pytest.raises(ValueError):
            Grading(((2, span([0, 0, 1])), (1, span([1, 0, 0], [0, 1, 0]))))


def seeded_gradings(count: int, seed: int = 10):
    """(algebra, grading) pairs: fixtures x unimodular P x weights.

    The weights are a found basis-aligned grading or random.  P is built
    from column operations, between columns of equal weight only (the
    grading stays one) or between any two; a quarter of the cases drop or
    duplicate a column.
    """
    rng = random.Random(seed)
    algebras = {name: load_algebra(name) for name in ALL_FIXTURES}
    for i in range(count):
        a = algebras[ALL_FIXTURES[i % len(ALL_FIXTURES)]]
        n = a.dim
        found = find_weights(a, positive=bool(i % 2))
        ws = list(found) if found is not None and rng.random() < 0.6 else [rng.randint(-1, 3) for _ in range(n)]
        same_weight = rng.random() < 0.5
        p = oracles.identity(n)
        for _ in range(rng.randint(1, 6)):
            x, y = rng.sample(range(n), 2)
            if ws[x] == ws[y] or not same_weight:
                p[:, x] = p[:, x] + rng.choice([-2, -1, 1, 2]) * p[:, y]
        cols = list(range(n))
        edit = rng.random()
        if edit < 0.125:
            cols.remove(rng.randrange(n))
        elif edit < 0.25:
            cols.append(rng.randrange(n))
        comps = {}
        for c in cols:
            comps.setdefault(ws[c], []).append(p[:, c])
        yield a, Grading(tuple((w, mx.rmat(list(zip(*vs)))) for w, vs in sorted(comps.items())))


def test_verify_grading_matches_pairwise_oracle():
    verdicts = Counter()
    for a, g in seeded_gradings(600):
        got = verify_grading(a, g)
        assert got.to_json() == verify_grading_pairwise(a, g).to_json()
        verdicts[got.condition] += 1
    assert sum(verdicts.values()) >= 500
    assert min(verdicts[c] for c in ("grading", "not-direct-sum", "not-homogeneous")) >= 50, verdicts


class TestClassify:
    def test_positive(self):
        g = grading_from_weights(heisenberg(), (1, 1, 2))
        assert classify(heisenberg(), g) == "positive"

    def test_nonnegative_nontrivial(self):
        n = load_algebra("notcohopf")
        g = grading_from_weights(n, (0, 1, 1, 1, 2, 2, 3))
        assert classify(n, g) == "nonnegative-nontrivial"

    def test_trivial(self):
        a = load_algebra("abelian3")
        g = grading_from_weights(a, (0, 0, 0))
        assert classify(a, g) == "trivial"

    def test_other_on_negative_weight(self):
        a = load_algebra("abelian3")
        g = grading_from_weights(a, (-1, 0, 2))
        assert classify(a, g) == "other"

    def test_unverified_raises(self):
        g = Grading(((1, span([1, 0, 0], [0, 0, 1])), (2, span([0, 1, 0]))))
        with pytest.raises(ValueError):
            classify(heisenberg(), g)


@pytest.mark.parametrize(
    "label, expansion, self_cover",
    [
        ("positive", True, True),
        ("nonnegative-nontrivial", False, True),
        ("trivial", False, False),
        ("other", False, False),
    ],
)
def test_meets_criterion_truth_table(label, expansion, self_cover):
    assert meets_criterion(label, positive=True) is expansion
    assert meets_criterion(label, positive=False) is self_cover


class TestWeightSolutionSpace:
    def test_abelian_full(self):
        assert weight_solution_space(load_algebra("abelian3")).shape[1] == 3

    def test_heisenberg_two_dims(self):
        k = weight_solution_space(heisenberg())
        assert k.shape[1] == 2
        for c in range(2):
            w = k.col(c)
            assert w[0] + w[1] == w[2]

    def test_nilp5_zero(self):
        assert weight_solution_space(load_algebra("nilp5")).shape[1] == 0

    def test_diag_weights_are_derivations(self):
        for name in ALL_FIXTURES:
            algebra = load_algebra(name)
            k = weight_solution_space(algebra)
            for c in range(k.shape[1]):
                assert is_derivation(algebra, oracles.diag(list(k.col(c))))


class TestWeightSearch:
    def test_heisenberg_canonical(self):
        assert find_weights(heisenberg(), positive=True) == (1, 1, 2)

    def test_nilp5_none(self):
        n5 = load_algebra("nilp5")
        assert find_weights(n5, positive=True) is None
        assert find_weights(n5, positive=False) is None

    def test_notcohopf_expected_weights(self):
        n = load_algebra("notcohopf")
        assert find_weights(n, positive=True) is None
        assert find_weights(n, positive=False) == (0, 1, 1, 1, 2, 2, 3)

    def test_gcd_one(self):
        from math import gcd

        for name in ALL_FIXTURES:
            w = find_weights(load_algebra(name), positive=True)
            if w:
                assert gcd(*w) == 1 if len(w) > 1 else w[0] == 1

    def test_agrees_with_exhaustive_search(self):
        # feasibility matches brute force over [1, 6]^n (positive) and
        # [0, 6]^n nonzero (non-negative) on every bundled algebra
        for name in ALL_FIXTURES:
            algebra = load_algebra(name)
            pos = find_weights(algebra, positive=True)
            brute = exhaustive_weights(algebra, 1, 6)
            assert (pos is not None) == bool(brute)
            if pos is not None:
                assert pos in brute  # solver output satisfies the constraints
                assert max(pos) == min(max(w) for w in brute)  # minimal max
            nn = find_weights(algebra, positive=False)
            brute_nn = exhaustive_weights(algebra, 0, 6, nontrivial_nonneg=True)
            assert (nn is not None) == bool(brute_nn)
            if nn is not None:
                assert nn in brute_nn
                assert max(nn) == min(max(w) for w in brute_nn)

    def test_lex_minimality_at_minimal_max(self):
        for name in ("heisenberg3", "sixdim_class3", "notcohopf"):
            algebra = load_algebra(name)
            w = find_weights(algebra, positive=True) or find_weights(algebra, positive=False)
            lo = 0 if 0 in w else 1
            brute = exhaustive_weights(algebra, lo, max(w), nontrivial_nonneg=(lo == 0))
            same_max = [x for x in brute if max(x) == max(w)]
            assert w == min(same_max)


class TestGradingFromWeights:
    def test_heisenberg_components(self):
        g = grading_from_weights(heisenberg(), (1, 1, 2))
        assert g.weights == (1, 2)
        assert [s.shape[1] for _, s in g.components] == [2, 1]

    def test_notcohopf_four_components(self):
        n = load_algebra("notcohopf")
        g = grading_from_weights(n, (0, 1, 1, 1, 2, 2, 3))
        assert g.weights == (0, 1, 2, 3)
        assert [s.shape[1] for _, s in g.components] == [1, 3, 2, 1]

    def test_abelian_single_component(self):
        a = LieAlgebra(2, {})
        g = grading_from_weights(a, (5, 5))
        assert g.weights == (5,)
        assert g.components[0][1].shape == (2, 2)

    def test_constraint_violation_raises(self):
        with pytest.raises(ValueError):
            grading_from_weights(heisenberg(), (1, 1, 3))

    def test_verify_accepts_result(self):
        for name in ALL_FIXTURES:
            algebra = load_algebra(name)
            w = find_weights(algebra, positive=True)
            if w is None:
                continue
            g = grading_from_weights(algebra, w)
            assert verify_grading(algebra, g).accepted()


class TestPhiP:
    def test_heisenberg_p2(self):
        g = grading_from_weights(heisenberg(), (1, 1, 2))
        m = phi_p(heisenberg(), g, 2)
        assert oracles.mat_eq(m, oracles.diag([2, 2, 4]))
        assert mx.det(m) == 16

    def test_notcohopf_p2_det_2_to_10(self):
        n = load_algebra("notcohopf")
        g = grading_from_weights(n, (0, 1, 1, 1, 2, 2, 3))
        m = phi_p(n, g, 2)
        assert oracles.mat_eq(m, oracles.diag([1, 2, 2, 2, 4, 4, 8]))
        assert mx.det(m) == 2**10
        assert is_automorphism(n, m)

    def test_trivial_grading_gives_identity(self):
        a = load_algebra("abelian3")
        g = grading_from_weights(a, (0, 0, 0))
        m = phi_p(a, g, 3)
        assert oracles.mat_eq(m, mx.identity(3))
        assert mx.det(m) == 1

    def test_eigenvalues_and_determinant(self):
        for name in ("heisenberg5", "filiform5", "sixdim_class4"):
            algebra = load_algebra(name)
            w = find_weights(algebra, positive=True)
            g = grading_from_weights(algebra, w)
            for p in (2, 3):
                m = phi_p(algebra, g, p)
                expected = from_roots(sorted(Fraction(p) ** x for x in w))
                assert mx.charpoly(m) == expected
                assert mx.det(m) == Fraction(p) ** sum(w)

    def test_non_prime_rejected(self):
        g = grading_from_weights(heisenberg(), (1, 1, 2))
        with pytest.raises(ValueError):
            phi_p(heisenberg(), g, 6)

    def test_non_basis_aligned_grading(self):
        g = Grading(((1, span([1, 1, 0], [1, -1, 0])), (2, span([0, 0, 1]))))
        m = phi_p(heisenberg(), g, 2)
        assert oracles.mat_eq(m, oracles.diag([2, 2, 4]))  # same subspaces, same map
        assert is_automorphism(heisenberg(), m)


class TestPreservedBy:
    def test_identity_preserves(self):
        g = grading_from_weights(heisenberg(), (1, 1, 2))
        assert preserved_by(g, mx.identity(3))

    def test_phi_preserves_notcohopf_grading(self):
        n = load_algebra("notcohopf")
        g = grading_from_weights(n, (0, 1, 1, 1, 2, 2, 3))
        assert preserved_by(g, load_map("notcohopf", "phi"))

    def test_component_swap_detected(self):
        g = grading_from_weights(heisenberg(), (1, 1, 2))
        swap13 = mx.rmat([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
        assert not preserved_by(g, swap13)

    def test_singular_rejected(self):
        g = grading_from_weights(heisenberg(), (1, 1, 2))
        with pytest.raises(ValueError):
            preserved_by(g, mx.zeros(3, 3))


class TestCommutation:
    def test_phi_p_commutes_with_preserving_maps(self):
        # identity, phi_q for other primes, and the holonomy fixtures
        h = heisenberg()
        g = grading_from_weights(h, (1, 1, 2))
        maps = [mx.identity(3), phi_p(h, g, 3), phi_p(h, g, 5)]
        for group_name in ("heisenberg3_sign", "heisenberg3_swap"):
            maps.extend(group_elements(load_holonomy(group_name).generators))
        m2 = phi_p(h, g, 2)
        for psi in maps:
            if preserved_by(g, psi):
                assert oracles.mat_eq(m2 @ psi, psi @ m2)


# -- the witnesses in the grading's basis against the Fraction oracles -------


def direct_sums(count: int, seed: int):
    """The gradings of `seeded_gradings` whose components are a direct sum:
    basis-aligned ones and ones moved by a unimodular P, with any weights."""
    for a, g in seeded_gradings(count, seed):
        if verify_grading(a, g).condition != "not-direct-sum":
            yield a, g


def test_phi_p_matches_fraction_products():
    # basis-aligned and re-based gradings, negative weights included; a
    # grading that does not verify is refused by both with one message
    rng = random.Random(31)
    seen = Counter()
    a3 = load_algebra("abelian3")
    negative = [
        (a3, grading_from_weights(a3, (-3, -1, 0))),
        (a3, Grading(((-2, span([1, 1, 0])), (0, span([0, 1, 0])), (1, span([0, "1/2", 3]))))),
    ]
    for a, g in itertools.chain(seeded_gradings(300, seed=11), negative):
        p = rng.choice([2, 3, 5])
        try:
            want = phi_p_fraction(a, g, p)
        except ValueError as e:
            with pytest.raises(ValueError, match=re.escape(str(e))):
                phi_p(a, g, p)
            seen["refused"] += 1
            continue
        got = phi_p(a, g, p)
        assert got.shape == want.shape and oracles.mat_eq(got, want)
        assert all(type(e) is Fraction for e in oracles.flat(got))
        seen["aligned" if all(e in (0, 1) for e in oracles.flat(g.basis)) else "moved"] += 1
        seen["negative"] += g.weights[0] < 0
    assert min(seen.values()) >= 4 and seen["aligned"] + seen["moved"] >= 80, seen


def block_diagonal_map(g: Grading, rng: random.Random):
    """P D P^-1 for P the grading's basis and D block diagonal with random
    invertible blocks, one per component."""
    n = g.basis.shape[0]
    d = oracles.zeros(n, n)
    lo = 0
    for _, s in g.components:
        hi = lo + s.shape[1]
        while True:
            block = mx.rmat([[rng.choice([0, 1, -1, 2, Fraction(1, 2)]) for _ in range(lo, hi)] for _ in range(lo, hi)])
            if mx.det(block) != 0:
                break
        d[lo:hi, lo:hi] = oracles.dense(block)
        lo = hi
    return mx.matmul(mx.matmul(g.basis, mx.rmat(d)), mx.inverse(g.basis))


def test_preserved_by_matches_rank_test():
    # P blockdiag P^-1 preserves the grading; one entry changed mostly does
    # not; a singular map is refused by both
    rng = random.Random(47)
    seen = Counter()
    for _, g in direct_sums(300, seed=12):
        psi = block_diagonal_map(g, rng)
        assert preserved_by(g, psi) and preserved_by_rank(g, psi)
        n = psi.shape[0]
        bent = oracles.dense(psi)
        bent[rng.randrange(n), rng.randrange(n)] += rng.choice([1, -1, Fraction(1, 3)])
        bent = mx.rmat(bent)
        if mx.det(bent) == 0:
            for test in (preserved_by, preserved_by_rank):
                with pytest.raises(ValueError, match="singular map"):
                    test(g, bent)
            seen["singular"] += 1
            continue
        got = preserved_by(g, bent)
        assert got == preserved_by_rank(g, bent)
        seen[got] += 1
    assert seen[True] >= 20 and seen[False] >= 100, seen
