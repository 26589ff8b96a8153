import random
from fractions import Fraction
from math import ceil, lcm, log2, prod

import numpy as np
import pytest

from nilgrade import matrices as mx
from nilgrade.fixtures import CORPUS_6DIM, FIXTURE_MAPS, load_algebra, load_holonomy, load_map
from nilgrade.grading import classify, find_weights, grading_from_weights, phi_p, preserved_by
from nilgrade.liealg import LieAlgebra, is_automorphism
from nilgrade.polynomials import Polynomial, squarefree_part
from nilgrade.specmaps import (
    expanding_to_positive_grading,
    is_expanding,
    map_problems,
    norm_profile,
    schur_all_inside,
    selfcover_to_nonneg_grading,
    semisimple_part,
)
import oracles
from oracles import is_semisimple, is_z_charpoly, minpoly, poly_gcd
from test_cli import counted
from test_liealg import unimodular


def P(*coeffs):
    return Polynomial(coeffs)


def companion(p):
    n = p.degree
    c = oracles.zeros(n, n)
    for i in range(1, n):
        c[i, i - 1] = Fraction(1)
    for i in range(n):
        c[i, n - 1] = -p.coeffs[i]
    return mx.rmat(c)


def float_expanding_oracle(m, margin=1e-9):
    """numpy root finder; None when a root is too close to the circle."""
    coeffs = [float(c) for c in reversed(mx.charpoly(m).coeffs)]
    roots = np.roots(coeffs)
    mags = np.abs(roots)
    if np.any(np.abs(mags - 1.0) <= margin):
        return None
    return bool(np.all(mags > 1.0))


def schur_unnormalised(p):
    """The Schur-Cohn chain without making each reduced polynomial monic:
    the coefficients of its iterates grow geometrically."""
    f = p
    for _ in range(p.degree):
        a0, am = f.coeffs[0], f.coeffs[-1]
        if am * am - a0 * a0 <= 0:
            return False
        f = Polynomial((am * f - a0 * f.reciprocal()).coeffs[1:])
    return True


class TestSchurChain:
    def test_roots_inside(self):
        # (X - 1/2)(X - 1/3)
        assert schur_all_inside(P(Fraction(1, 6), Fraction(-5, 6), 1))

    def test_root_outside(self):
        assert not schur_all_inside(P(Fraction(1, 2), Fraction(-9, 4), 1))

    def test_unit_circle_root_fails(self):
        assert not schur_all_inside(P(-1, 1))  # root exactly 1
        assert not schur_all_inside(P(1, 0, 1))  # roots +-i
        assert not schur_all_inside(P(1, Fraction(-5, 2), 1))  # roots 1/2 and 2

    def test_zero_root_is_inside(self):
        assert schur_all_inside(P(0, 0, 1))  # X^2

    def test_normalised_chain_matches_the_unnormalised_one(self):
        rng = random.Random(1010)
        for _ in range(300):
            degree = rng.randint(1, 10)
            if rng.random() < 0.5:
                p = P(*[rng.randint(-9, 9) for _ in range(degree)], rng.choice([-60, -3, 1, 2, 60]))
            else:  # roots r/q with |r| <= q: inside or on the circle
                p = P(1)
                for q in (rng.randint(1, 9) for _ in range(degree)):
                    p = p * P(-rng.randint(-q, q), q)
            assert schur_all_inside(p) == schur_unnormalised(p)

    def test_phi_2_of_filiform_16_is_expanding(self):
        algebra = LieAlgebra(16, {(0, i - 1): [int(k == i) for k in range(16)] for i in range(2, 16)})
        assert is_expanding(phi_p(algebra, grading_from_weights(algebra, find_weights(algebra, positive=True)), 2))


class TestIsExpanding:
    def test_diag_2_3(self):
        assert is_expanding(oracles.diag([2, 3]))

    def test_companion_golden_like(self):
        # X^2 - 3X + 1 has the root (3 - sqrt 5)/2 < 1
        c = companion(P(1, -3, 1))
        assert float_expanding_oracle(c) is False
        assert not is_expanding(c)

    def test_notcohopf_phi_not_expanding(self):
        phi = load_map("notcohopf", "phi")
        assert not is_expanding(phi)  # eigenvalue 1

    def test_unit_circle_exact(self):
        rot = mx.rmat([[0, -1], [1, 0]])  # eigenvalues +-i
        assert not is_expanding(rot)
        assert not is_expanding(mx.rmat([[1, 1], [0, 1]]))

    def test_rational_spectra(self):
        assert is_expanding(oracles.diag([Fraction(3, 2), -2]))
        assert not is_expanding(oracles.diag([Fraction(1, 2), 3]))

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            is_expanding(mx.zeros(2, 2))

    def test_agrees_with_float_oracle(self):
        rng = random.Random(424242)
        checked = 0
        while checked < 150:
            n = rng.randint(1, 5)
            m = mx.rmat([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
            if mx.det(m) == 0:
                continue
            oracle = float_expanding_oracle(m)
            if oracle is None:
                continue
            checked += 1
            assert is_expanding(m) == oracle


def is_integer_like(m):
    """Characteristic polynomial in Z[X] and determinant +-1."""
    return is_z_charpoly(m) and abs(mx.det(m)) == 1


class TestIntegerLike:
    def test_integer_like_with_fractional_entries(self):
        m = mx.rmat([["5/2", "1/2"], ["1/2", "1/2"]])
        assert is_integer_like(m)
        assert is_z_charpoly(m)

    def test_integral_charpoly_but_det_2(self):
        m = mx.rmat([["1/2", "1/2"], ["-3/2", "5/2"]])
        assert is_z_charpoly(m)
        assert not is_integer_like(m)

    def test_identity(self):
        assert is_integer_like(mx.identity(4))

    def test_rational_charpoly_fails_both(self):
        m = oracles.diag([Fraction(1, 2), 2])
        assert not is_z_charpoly(m)
        assert not is_integer_like(m)


class TestMapProblems:
    """Condition 3 of both criteria, read off a characteristic polynomial
    and determinant."""

    @pytest.mark.parametrize(
        "m, expanding, selfcover",
        [
            (oracles.diag([2, 3]), [], []),
            (mx.rmat([[0, -1], [1, 0]]), ["certificate map is not expanding"], ["|det| is not > 1"]),
            (oracles.diag([Fraction(5, 2), 2]), [], ["characteristic polynomial is not in Z[X]"]),
            (
                oracles.diag([Fraction(1, 2), Fraction(1, 2)]),
                ["certificate map is not expanding"],
                ["characteristic polynomial is not in Z[X]", "|det| is not > 1"],
            ),
            (oracles.diag([1, 2]), ["certificate map is not expanding"], []),
        ],
    )
    def test_both_criteria(self, m, expanding, selfcover):
        chi, det = mx.charpoly(m), mx.det(m)
        assert map_problems(chi, det, True) == expanding
        assert map_problems(chi, det, False) == selfcover
        assert (not expanding) == is_expanding(m)
        assert (not selfcover) == (is_z_charpoly(m) and abs(det) > 1)


class TestSemisimplePart:
    def test_already_semisimple_fixed(self):
        m = oracles.diag([2, 3])
        assert oracles.mat_eq(semisimple_part(m), m)

    def test_unipotent_becomes_identity(self):
        m = mx.rmat([[1, 1], [0, 1]])
        assert oracles.mat_eq(semisimple_part(m), mx.identity(2))

    def test_jordan_block_2(self):
        m = mx.rmat([[2, 1], [0, 2]])
        assert oracles.mat_eq(semisimple_part(m), oracles.diag([2, 2]))

    def test_properties_on_random_matrices(self):
        rng = random.Random(99)
        hits = 0
        while hits < 15:
            n = rng.randint(2, 4)
            m = mx.rmat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            hits += 1
            s = semisimple_part(m)
            assert oracles.mat_eq(s @ m, m @ s)
            assert mx.charpoly(s) == mx.charpoly(m)
            mp = minpoly(s)
            assert poly_gcd(mp, mp.derivative()).degree == 0
            # nilpotent difference
            assert oracles.is_nilpotent(m - s)

    @pytest.mark.parametrize("kind, size", [("jordan", n) for n in range(2, 17)] + [("x2+1", e) for e in range(1, 9)])
    def test_newton_ends_within_log2_n_steps(self, monkeypatch, kind, size):
        # a unimodular conjugate of the Jordan block J_n(2) or of the
        # companion of (X^2 + 1)^e: the error of step k lies in N^(2^k) Q[M]
        if kind == "jordan":
            m = jordan_block(2, size)
        else:
            m = companion(prod([P(1, 0, 1)] * size))
        n = m.shape[0]
        rng = random.Random(f"semisimple {kind} {size}")
        u = unimodular(n, [(rng.randrange(n), rng.randrange(n), rng.choice([-2, -1, 1, 2])) for _ in range(2 * n)])
        m = mx.matmul(mx.matmul(u, m), mx.inverse(u))
        want = oracles.semisimple_part_capped(m)
        steps = counted(monkeypatch, mx, "matmul")  # one product per Newton step
        s = semisimple_part(m)
        assert steps["matmul"] <= ceil(log2(n))
        assert oracles.mat_eq(s, want)
        assert oracles.is_nilpotent(m - s)
        assert oracles.mat_eq(s @ m, m @ s)

    def test_commutes_with_commutant(self):
        m = mx.rmat([[2, 1, 0], [0, 2, 0], [0, 0, 3]])
        s = semisimple_part(m)
        # anything commuting with m must commute with s (s is a polynomial in m)
        b = mx.rmat([[5, 7, 0], [0, 5, 0], [0, 0, 9]])
        assert oracles.mat_eq(b @ m, m @ b)
        assert oracles.mat_eq(b @ s, s @ b)


def block_diag(blocks):
    n = sum(b.shape[0] for b in blocks)
    out = oracles.zeros(n, n)
    at = 0
    for b in blocks:
        k = b.shape[0]
        out[at : at + k, at : at + k] = oracles.dense(b)
        at += k
    return mx.rmat(out)


def jordan_block(lam, k):
    b = lam * oracles.identity(k)
    for i in range(k - 1):
        b[i, i + 1] = Fraction(1)
    return mx.rmat(b)


def seeded_matrices(seed, count):
    """Rational matrices of dim <= 6: Jordan blocks and companions of
    (X^2 + 1)^e, (X^2 - 2)^e on the diagonal, conjugated by a unimodular
    matrix, and small random matrices."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, 6)
        if rng.random() < 0.25:
            entries = [0, 0, 1, -1, Fraction(1, 2)]
            out.append(mx.rmat([[rng.choice(entries) for _ in range(n)] for _ in range(n)]))
            continue
        blocks, size = [], 0
        while size < n:
            if n - size >= 2 and rng.random() < 0.3:
                p = rng.choice([P(1, 0, 1), P(-2, 0, 1)])
                e = rng.randint(1, min(2, (n - size) // 2))
                blocks.append(companion(p * p) if e == 2 else companion(p))
            else:
                lam = rng.choice([-2, -1, 0, 1, 2, Fraction(1, 2)])
                blocks.append(jordan_block(lam, rng.randint(1, min(3, n - size))))
            size += blocks[-1].shape[0]
        b = block_diag(blocks)
        if n > 1:
            ops = [(rng.randrange(8), rng.randrange(8), rng.choice([-2, -1, 1, 2])) for _ in range(rng.randint(1, 6))]
            u = unimodular(n, ops)
            b = u @ b @ mx.inverse(u)
        out.append(b)
    return out


def exp_nilpotent(a):
    """exp(A) for a nilpotent A: a finite sum."""
    out = term = mx.identity(a.shape[0])
    k = 1
    while not mx.is_zero_mat(term):
        term = term @ a * Fraction(1, k)
        out = out + term
        k += 1
    return out


def seeded_nonsemisimple_automorphisms(seed):
    """(algebra, M) pairs with M an automorphism that is not semisimple.

    On ladder algebras M = C phi_p exp(D) C^-1, with D a nilpotent
    derivation that commutes with phi_p and C = exp(ad x); on abelian
    algebras, where every invertible map is an automorphism, conjugated
    Jordan blocks.
    """
    rng = random.Random(seed)
    out = []
    for algebra in (oracles.filiform(5), oracles.filiform(7), oracles.heisenberg(2), oracles.heisenberg(3)):
        n = algebra.dim
        g = grading_from_weights(algebra, find_weights(algebra, positive=True))
        for p in (2, 3):
            phi = phi_p(algebra, g, p)
            nilpotent = [d for d in oracles.derivation_matrices(algebra) if oracles.mat_eq(d @ phi, phi @ d) and oracles.is_nilpotent(d)]
            for d in rng.sample(nilpotent, min(4, len(nilpotent))):
                x = mx.rvec([rng.randint(-2, 2) for _ in range(n)])
                c = exp_nilpotent(mx.hstack([mx.rmat([[e] for e in algebra.bracket(x, mx.identity(n).col(j))]) for j in range(n)]))
                m = c @ phi @ exp_nilpotent(rng.choice([-2, -1, 1, 2]) * d) @ mx.inverse(c)
                assert is_automorphism(algebra, m) and not is_semisimple(m)
                out.append((algebra, m))
    for m in seeded_matrices(12, 60):
        if mx.det(m) != 0 and not is_semisimple(m):
            out.append((LieAlgebra(m.shape[0], {}), m))
    return out


class TestIsSemisimple:
    def test_agrees_with_squarefree_minpoly_oracle(self):
        verdicts = []
        for m in seeded_matrices(5, 80):
            mp = minpoly(m)
            want = poly_gcd(mp, mp.derivative()).degree == 0
            assert is_semisimple(m) == want
            verdicts.append(want)
        assert 20 <= sum(verdicts) <= 60  # both kinds are exercised

    def test_semisimple_part_fixes_exactly_the_semisimple_maps(self):
        for m in seeded_matrices(6, 40):
            assert oracles.mat_eq(semisimple_part(m), m) == is_semisimple(m)


class TestNormProfile:
    def test_heisenberg_diagonal(self):
        h = load_algebra("heisenberg3")
        prof = norm_profile(oracles.diag([2, 3, 6]))
        assert prof.lcm_degree == 1
        assert [str(v) for v in prof.flattened_values()] == ["2", "3", "6"]

    def test_abelian_irreducible_unit_norm(self):
        m = companion(P(-1, -1, 1))  # X^2 - X - 1, |p(0)| = 1
        prof = norm_profile(m)
        assert len(prof.entries) == 1
        assert prof.entries[0].value == 1
        assert prof.lcm_degree == 2

    def test_mixed_degrees_use_lcm_exponent(self):
        m = mx.rmat([[2, 0, 0], [0, 0, -1], [0, 1, 3]])
        # blocks: (X-2) and companion(X^2 - 3X + 1)
        prof = norm_profile(m)
        assert prof.lcm_degree == 2
        assert [(e.degree, str(e.value)) for e in prof.entries] == [(2, "1"), (1, "4")]

    def test_profile_of_the_map_is_profile_of_its_semisimple_part(self):
        # ker p(M)^e = ker p(S)^e: entry by entry, with identical subspaces
        maps = seeded_nonsemisimple_automorphisms(11)
        assert len(maps) >= 30
        for _, m in maps:
            got, want = norm_profile(m), norm_profile(semisimple_part(m))
            assert got.lcm_degree == want.lcm_degree
            assert len(got.entries) == len(want.entries)
            for a, b in zip(got.entries, want.entries):
                assert (a.factor, a.degree, a.value) == (b.factor, b.degree, b.value)
                assert oracles.mat_eq(a.subspace, b.subspace)

    def test_charpoly_and_radical_read_off_the_factors(self):
        # chi = prod p_i^(dim V_i / deg p_i) and its radical prod p_i, which
        # `norm` reads instead of computing charpoly(M) again
        for m in seeded_matrices(7, 60):
            chi = mx.charpoly(m)
            prof = norm_profile(m)
            assert prof.charpoly == chi
            assert prof.radical == squarefree_part(chi)

    def test_multiplicativity_on_brackets(self):
        # [V_i, V_j] nonzero lands in the class of value v_i * v_j
        cases = [
            ("heisenberg3", oracles.diag([2, 3, 6])),
            ("heisenberg3", oracles.diag([2, 2, 4])),
            ("notcohopf", load_map("notcohopf", "phi")),
        ]
        for name, m in cases:
            algebra = load_algebra(name)
            prof = norm_profile(m)
            entries = list(prof.entries)
            for ei in entries:
                for ej in entries:
                    for a in range(ei.subspace.shape[1]):
                        for b in range(ej.subspace.shape[1]):
                            z = algebra.bracket(ei.subspace.col(a), ej.subspace.col(b))
                            if mx.is_zero_mat(z):
                                continue
                            product_entries = [
                                e.subspace for e in entries if e.value == ei.value * ej.value
                            ]
                            assert product_entries
                            assert oracles.solve_linear(mx.hstack(product_entries), z) is not None


class TestNormProfileUnderConjugation:
    """M and U M U^-1 have the same profile up to U: the same factors,
    values and component dimensions, and U carries each component of M
    onto the matching component of U M U^-1."""

    @staticmethod
    def conjugators(n, rng):
        """An integral unimodular U and a rational P of det 2 * (units and
        powers of 3 and 5/7), so P is neither integral nor unimodular."""
        ops = [(rng.randrange(8), rng.randrange(8), rng.choice([-2, -1, 1, 2])) for _ in range(rng.randint(1, 6))]
        u = unimodular(n, ops) if n > 1 else mx.identity(1)
        scales = [2] + [rng.choice([1, -1, Fraction(1, 3), -3, Fraction(5, 7)]) for _ in range(n - 1)]
        p = mx.matmul(unimodular(n, ops[::-1]), oracles.diag(scales)) if n > 1 else oracles.diag(scales)
        assert mx.det(u) in (1, -1) and abs(mx.det(p)) != 1
        return u, p

    @staticmethod
    def assert_carried(m, u):
        conj = mx.matmul(mx.matmul(u, m), mx.inverse(u))
        want, got = norm_profile(m), norm_profile(conj)
        assert got.lcm_degree == want.lcm_degree
        assert [(e.factor, e.degree, e.value, e.subspace.shape[1]) for e in got.entries] == [
            (e.factor, e.degree, e.value, e.subspace.shape[1]) for e in want.entries
        ]
        for a, b in zip(want.entries, got.entries):
            assert oracles.col_spaces_equal(mx.matmul(u, a.subspace), b.subspace)

    @pytest.mark.parametrize("name, map_name", [(a, m) for a, ms in FIXTURE_MAPS.items() for m in ms])
    def test_fixture_maps(self, name, map_name):
        m = load_map(name, map_name)
        rng = random.Random(map_name)
        for _ in range(3):
            for u in self.conjugators(m.shape[0], rng):
                self.assert_carried(m, u)

    def test_ladder_maps(self):
        maps = [m for algebra, m in seeded_nonsemisimple_automorphisms(11) if algebra.terms]
        assert len(maps) >= 16
        rng = random.Random(13)
        for m in maps:
            for u in self.conjugators(m.shape[0], rng):
                self.assert_carried(m, u)


class TestExpandingToPositiveGrading:
    def test_heisenberg_diag224(self):
        h = load_algebra("heisenberg3")
        g = expanding_to_positive_grading(h, oracles.diag([2, 2, 4]))
        assert g.weights == (1, 2)
        assert oracles.mat_eq(g.components[0][1], mx.rmat([[1, 0], [0, 1], [0, 0]]))
        assert classify(h, g) == "positive"

    def test_round_trip_through_phi_p(self):
        h = load_algebra("heisenberg3")
        base = grading_from_weights(h, (1, 1, 2))
        g = expanding_to_positive_grading(h, phi_p(h, base, 3))
        assert g.weights == base.weights
        assert all(
            oracles.mat_eq(a[1], b[1]) for a, b in zip(g.components, base.components)
        )

    def test_abelian_two_classes(self):
        a = LieAlgebra(2, {})
        g = expanding_to_positive_grading(a, companion(P(6, -5, 1)))  # (X-2)(X-3)
        assert len(g.components) == 2
        assert g.weights == (1, 2)

    def test_preserved_by_input(self):
        h = load_algebra("heisenberg3")
        for m in (oracles.diag([2, 2, 4]), oracles.diag([2, 3, 6])):
            g = expanding_to_positive_grading(h, m)
            assert preserved_by(g, m)

    def test_non_expanding_rejected(self):
        h = load_algebra("heisenberg3")
        with pytest.raises(ValueError):
            expanding_to_positive_grading(h, oracles.diag([1, 2, 2]))

    def test_requires_automorphism(self):
        h = load_algebra("heisenberg3")
        with pytest.raises(ValueError, match="not an automorphism"):
            expanding_to_positive_grading(h, oracles.diag([2, 2, 2]))
        # expansion is decided first, as before
        with pytest.raises(ValueError, match="not expanding"):
            expanding_to_positive_grading(h, oracles.diag([1, 1, 2]))

    def test_nonsemisimple_expanding_map(self):
        # expanding with a nilpotent part: semisimple part drives the grading
        a = LieAlgebra(2, {})
        m = mx.rmat([[2, 1], [0, 2]])
        g = expanding_to_positive_grading(a, m)
        assert g.weights == (1,)
        assert preserved_by(g, m)

    def test_weight_refinement_on_fixtures(self):
        # extraction from phi_p(G, p) recovers G's basis weight function
        for name in CORPUS_6DIM:
            algebra = load_algebra(name)
            w = find_weights(algebra, positive=True)
            g = grading_from_weights(algebra, w)
            for p in (2, 3):
                extracted = expanding_to_positive_grading(algebra, phi_p(algebra, g, p))
                assert extracted.weights == g.weights
                for (wa, sa), (wb, sb) in zip(extracted.components, g.components):
                    assert wa == wb and oracles.mat_eq(sa, sb)


class TestSelfcoverToNonnegGrading:
    def test_notcohopf_expected_grading(self):
        n = load_algebra("notcohopf")
        g = selfcover_to_nonneg_grading(n, load_map("notcohopf", "phi"))
        assert g.weights == (0, 1, 2, 3)
        assert [s.shape[1] for _, s in g.components] == [1, 3, 2, 1]
        assert classify(n, g) == "nonnegative-nontrivial"

    def test_heisenberg_diag122(self):
        h = load_algebra("heisenberg3")
        g = selfcover_to_nonneg_grading(h, oracles.diag([1, 2, 2]))
        assert g.weights == (0, 1)
        assert [s.shape[1] for _, s in g.components] == [1, 2]

    def test_abelian_diag12(self):
        a = LieAlgebra(2, {})
        g = selfcover_to_nonneg_grading(a, oracles.diag([1, 2]))
        assert g.weights == (0, 1)

    def test_det_one_rejected(self):
        a = LieAlgebra(2, {})
        with pytest.raises(ValueError):
            selfcover_to_nonneg_grading(a, mx.identity(2))

    def test_non_z_charpoly_rejected(self):
        a = LieAlgebra(2, {})
        with pytest.raises(ValueError):
            selfcover_to_nonneg_grading(a, oracles.diag([Fraction(5, 2), 2]))


class TestCommutingPreservation:
    """A map that commutes with m preserves the grading extracted from m."""

    def test_self(self):
        h = load_algebra("heisenberg3")
        m = oracles.diag([2, 2, 4])
        g = expanding_to_positive_grading(h, m)
        assert preserved_by(g, m)

    def test_rotation_in_eigenplane(self):
        h = load_algebra("heisenberg3")
        m = oracles.diag([2, 2, 4])
        g = expanding_to_positive_grading(h, m)
        rot = load_map("heisenberg3", "rotation")
        assert oracles.mat_eq(m @ rot, rot @ m)
        assert preserved_by(g, rot)

    def test_identity_always(self):
        h = load_algebra("heisenberg3")
        m = oracles.diag([2, 3, 6])
        g = expanding_to_positive_grading(h, m)
        assert preserved_by(g, mx.identity(3))

    def test_noncommuting_rejected(self):
        h = load_algebra("heisenberg3")
        m = oracles.diag([2, 3, 6])
        g = expanding_to_positive_grading(h, m)
        swap = load_holonomy("heisenberg3_swap").generators[0]
        assert not oracles.mat_eq(m @ swap, swap @ m)
        assert not preserved_by(g, swap)


class TestCompositeCriterion:
    def test_three_conditions_consistent(self):
        # positive weights exist iff an expanding automorphism exists iff
        # phi_p of the found grading is expanding, on every bundled algebra
        for name in CORPUS_6DIM + ("nilp5", "notcohopf"):
            algebra = load_algebra(name)
            w = find_weights(algebra, positive=True)
            if w is None:
                # basis-aligned scope: the bundled witnesses must not expand
                if name == "notcohopf":
                    assert not is_expanding(load_map("notcohopf", "phi"))
                continue
            g = grading_from_weights(algebra, w)
            m = phi_p(algebra, g, 2)
            assert is_automorphism(algebra, m)
            assert is_expanding(m)
            back = expanding_to_positive_grading(algebra, m)
            assert classify(algebra, back) == "positive"
