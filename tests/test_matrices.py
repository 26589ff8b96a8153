import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nilgrade import matrices as mx
from nilgrade.intutil import factor_int, least_exponent
from nilgrade.matrices import IntegerLattice, hnf, hnf_membership, order_mod
from nilgrade.polynomials import Polynomial
from oracles import charpoly_fraction, col_basis_dense, eval_poly_fraction, minpoly, nullspace_dense, rref_dense


def P(*coeffs):
    return Polynomial(coeffs)


def random_int_matrix(rng, n, lo=-4, hi=4):
    return mx.rmat([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


# -- oracles ---------------------------------------------------------------


def charpoly_2x2_oracle(m):
    """X^2 - tr X + det, straight from the 2x2 formulas."""
    tr = m[0, 0] + m[1, 1]
    d = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return P(d, -tr, 1)


def det_3x3_oracle(m):
    """Leibniz expansion over the six permutations."""
    total = Fraction(0)
    for perm in itertools.permutations(range(3)):
        sign = 1
        for a in range(3):
            for b in range(a + 1, 3):
                if perm[a] > perm[b]:
                    sign = -sign
        term = Fraction(1)
        for i in range(3):
            term *= m[i, perm[i]]
        total += sign * term
    return total


def companion(p: Polynomial):
    n = p.degree
    assert p.is_monic()
    c = mx.zeros(n, n)
    for i in range(1, n):
        c[i, i - 1] = Fraction(1)
    for i in range(n):
        c[i, n - 1] = -p.coeffs[i]
    return c


class TestCharpoly:
    def test_identity(self):
        assert mx.charpoly(mx.identity(2)) == P(1, -2, 1)

    def test_half_integer_matrix_with_integral_charpoly(self):
        m = mx.rmat([["1/2", "1/2"], ["-3/2", "5/2"]])
        assert mx.charpoly(m) == P(2, -3, 1)

    def test_integer_like_matrix_against_trace_det_oracle(self):
        m = mx.rmat([["5/2", "1/2"], ["1/2", "1/2"]])
        assert charpoly_2x2_oracle(m) == P(1, -3, 1)
        assert mx.charpoly(m) == P(1, -3, 1)

    def test_random_2x2_against_oracle(self):
        rng = random.Random(11)
        for _ in range(50):
            m = random_int_matrix(rng, 2)
            assert mx.charpoly(m) == charpoly_2x2_oracle(m)

    def test_integer_matrices_give_integer_coefficients(self):
        rng = random.Random(5)
        for n in range(1, 7):
            for _ in range(10):
                m = random_int_matrix(rng, n)
                p = mx.charpoly(m)
                assert all(c.denominator == 1 for c in p.coeffs)
                assert mx.det(m) == (-1) ** n * p.coeffs[0]

    def test_companion_matrix_recovers_polynomial(self):
        p = P(2, -3, 1)
        assert mx.charpoly(companion(p)) == p


class TestDetInverse:
    def test_det_against_leibniz_oracle(self):
        rng = random.Random(13)
        for _ in range(40):
            m = random_int_matrix(rng, 3)
            assert mx.det(m) == det_3x3_oracle(m)

    def test_inverse_roundtrip(self):
        rng = random.Random(17)
        hits = 0
        while hits < 20:
            m = random_int_matrix(rng, 3)
            if mx.det(m) == 0:
                continue
            hits += 1
            assert mx.mat_eq(m @ mx.inverse(m), mx.identity(3))

    def test_singular_inverse_raises(self):
        with pytest.raises(ValueError):
            mx.inverse(mx.zeros(2, 2))


class TestKernelAndSpaces:
    def test_nullspace_annihilates(self):
        rng = random.Random(19)
        for _ in range(20):
            m = mx.rmat([[rng.randint(-3, 3) for _ in range(4)] for _ in range(2)])
            k = mx.nullspace(m)
            assert k.shape[1] == 4 - mx.rank(m)
            assert mx.is_zero_mat(m @ k) or k.shape[1] == 0

    def test_col_basis_canonical(self):
        a = mx.rmat([[1, 2], [1, 2], [0, 0]])
        b = mx.rmat([[3], [3], [0]])
        assert mx.col_spaces_equal(a, b)
        assert mx.mat_eq(mx.col_basis(a), mx.col_basis(b))

    def test_solve_none_when_inconsistent(self):
        a = mx.rmat([[1, 0], [1, 0]])
        assert mx.solve(a, mx.rvec([1, 2])) is None


class TestMinpoly:
    def test_identity(self):
        assert minpoly(mx.identity(3)) == P(-1, 1)

    def test_companion_equals_charpoly(self):
        p = P(2, -3, 1)
        assert minpoly(companion(p)) == p

    def test_diag_with_repeats(self):
        m = mx.diag([2, 2, 3])
        assert minpoly(m) == P(6, -5, 1)  # (X-2)(X-3)


class TestEvalPoly:
    def test_matches_fraction_horner(self):
        rng = random.Random(4242)
        vals = [0, 0, 1, -2, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6)]
        for _ in range(30):
            n = rng.randint(1, 5)
            m = mx.rmat([[rng.choice(vals) for _ in range(n)] for _ in range(n)])
            p = Polynomial(rng.choice(vals) for _ in range(rng.randint(0, 6)))
            got = mx.eval_poly(p, m)
            assert mx.mat_eq(got, eval_poly_fraction(p, m))
            assert all(type(e) is Fraction for e in got.flat)

    def test_mat_pow_matches_repeated_products(self):
        m = mx.rmat([[1, Fraction(1, 2)], [-3, Fraction(2, 3)]])
        want = mx.identity(2)
        for k in range(6):
            assert mx.mat_eq(mx.mat_pow(m, k), want)
            want = want @ m
        assert mx.mat_pow(m, 1) is not m
        assert mx.mat_eq(mx.mat_pow(m, -2) @ mx.mat_pow(m, 2), mx.identity(2))


class TestPrimaryDecomposition:
    def test_diagonal(self):
        comps = mx.primary_decomposition(mx.diag([1, 2]))
        assert [(str(p), s.shape[1]) for p, s in comps] == [("X - 1", 1), ("X - 2", 1)]
        assert mx.mat_eq(comps[0][1], mx.rmat([[1], [0]]))
        assert mx.mat_eq(comps[1][1], mx.rmat([[0], [1]]))

    def test_rational_eigenline_decomposition(self):
        m = mx.rmat([["1/2", "1/2"], ["-3/2", "5/2"]])
        comps = mx.primary_decomposition(m)
        # oracle: eigenlines are the kernels of (A - I) and (A - 2I)
        for (p, s), lam in zip(comps, (1, 2)):
            oracle = mx.col_basis(mx.nullspace(m - lam * mx.identity(2)))
            assert mx.mat_eq(s, oracle)

    def test_irreducible_charpoly_single_component(self):
        c = companion(P(1, 0, 1))
        comps = mx.primary_decomposition(c)
        assert len(comps) == 1
        assert comps[0][1].shape == (2, 2)

    def test_invariance_and_direct_sum(self):
        rng = random.Random(23)
        hits = 0
        while hits < 15:
            m = random_int_matrix(rng, 4, -2, 2)
            if mx.det(m) == 0:
                continue
            hits += 1
            comps = mx.primary_decomposition(m)
            stacked = mx.hstack([s for _, s in comps])
            assert stacked.shape == (4, 4)
            assert mx.det(stacked) != 0
            for _, s in comps:
                assert all(mx.solve(s, v) is not None for v in (m @ s).T)


class TestHnfMembership:
    def test_standard_lattice(self):
        z2 = IntegerLattice(mx.identity(2))
        assert hnf_membership(mx.rvec([1, 0]), z2)
        assert not hnf_membership(mx.rvec(["1/2", 0]), z2)

    def test_sheared_lattice(self):
        lat = IntegerLattice(mx.rmat([[2, 1], [0, 3]]))  # columns (2,0), (1,3)
        assert hnf_membership(mx.rvec([1, 3]), lat)
        assert not hnf_membership(mx.rvec([1, 0]), lat)

    def test_hnf_canonical_under_unimodular_column_ops(self):
        rng = random.Random(29)
        hits = 0
        while hits < 15:
            b = random_int_matrix(rng, 3, -3, 3)
            if mx.det(b) == 0:
                continue
            hits += 1
            u = mx.rmat([[1, rng.randint(-2, 2), 0], [0, 1, 0], [0, rng.randint(-2, 2), 1]])
            assert mx.mat_eq(hnf(b), hnf(b @ u))

    def test_agrees_with_bruteforce_enumeration(self):
        # members are B c (c small); near-members add half a basis column
        rng = random.Random(31)
        hits = 0
        while hits < 12:
            b = random_int_matrix(rng, 3, -3, 3)
            if mx.det(b) == 0:
                continue
            hits += 1
            lat = IntegerLattice(b)
            c = mx.rvec([rng.randint(-3, 3) for _ in range(3)])
            d = mx.rvec([rng.randint(0, 1) for _ in range(3)])
            v = b @ (c + d * Fraction(1, 2))
            expected = all(e == 0 for e in d)  # c + d/2 integral iff d = 0
            assert hnf_membership(v, lat) == expected
            assert brute_force_membership(v, b, bound=8) == expected

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hnf_membership(mx.rvec([1, 2, 3]), IntegerLattice(mx.identity(2)))


def brute_force_membership(v, basis, bound):
    n = basis.shape[0]
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=n):
        w = basis @ mx.rvec(coeffs)
        if all(a == b for a, b in zip(w, v)):
            return True
    return False


class TestOrderMod:
    def test_identity(self):
        assert order_mod(mx.identity(2), 5) == 1

    def test_rotation_mod_3(self):
        m = mx.rmat([[0, -1], [1, 0]])
        assert order_mod(m, 3) == 4
        # oracle: direct powering
        acc = m
        k = 1
        while not mx.mat_eq(
            mx.rmat([[int(e) % 3 for e in row] for row in acc]), mx.identity(2)
        ):
            acc = acc @ m
            k += 1
        assert k == 4

    def test_shear_mod_2(self):
        assert order_mod(mx.rmat([[1, 1], [0, 1]]), 2) == 2

    def test_minimality_by_scanning(self):
        rng = random.Random(37)
        hits = 0
        while hits < 15:
            m = random_int_matrix(rng, 2, -3, 3)
            modulus = rng.choice([2, 3, 5])
            from math import gcd

            if gcd(int(mx.det(m)), modulus) != 1:
                continue
            hits += 1
            k = order_mod(m, modulus)
            red = np.array([[int(e) % modulus for e in row] for row in m], dtype=object)
            acc = red
            for j in range(1, k):
                assert not mx.mat_eq(mx.rmat(acc.tolist()), mx.identity(2))
                acc = (acc @ red) % modulus

    def test_composite_modulus_matches_brute_scan(self):
        rng = random.Random(41)
        from math import gcd

        hits = 0
        while hits < 10:
            m = random_int_matrix(rng, 2, -3, 3)
            modulus = rng.choice([12, 30, 60])
            if gcd(int(mx.det(m)), modulus) != 1:
                continue
            hits += 1
            k = order_mod(m, modulus)
            red = np.array([[int(e) % modulus for e in row] for row in m], dtype=object)
            ident = np.array([[1, 0], [0, 1]], dtype=object)
            acc = red
            brute = 1
            while not (acc == ident).all():
                acc = (acc @ red) % modulus
                brute += 1
            assert k == brute

    def test_noninvertible_det_rejected(self):
        with pytest.raises(ValueError):
            order_mod(mx.rmat([[2, 0], [0, 1]]), 2)

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            order_mod(mx.rmat([["1/2", 0], [0, 1]]), 3)


# -- order by divisor descent against the former scan ------------------------


def int_mat_pow_mod(m, k, q):
    """M^k mod q by square and multiply, on Python ints."""
    n = m.shape[0]
    out = np.array([[int(i == j) for j in range(n)] for i in range(n)], dtype=object)
    base = np.array([[int(e) % q for e in row] for row in m], dtype=object)
    while k:
        if k & 1:
            out = (out @ base) % q
        base = (base @ base) % q
        k >>= 1
    return out


def is_identity_mod(m, k, q):
    return (int_mat_pow_mod(m, k, q) == np.identity(m.shape[0], dtype=object)).all()


def order_mod_by_scan(m, modulus):
    """The former order_mod: for each p^e exactly dividing the modulus,
    multiply powers mod p one at a time up to I, lift that order to p^e by
    repeated p-th powers, and take the lcm."""
    ident = np.identity(m.shape[0], dtype=object)
    order = 1
    for p, e in factor_int(modulus).items():
        base = int_mat_pow_mod(m, 1, p)
        acc, r = base, 1
        while not (acc == ident).all():
            acc, r = (acc @ base) % p, r + 1
        while not is_identity_mod(m, r, p**e):
            r *= p
        order = lcm(order, r)
    return order


class TestOrderByDescent:
    @pytest.mark.parametrize("modulus", [12, 13, 2**5, 3**3, 5**2 * 7])
    def test_matches_the_scan(self, modulus):
        rng = random.Random(modulus)
        for n in (1, 2, 3, 4):
            hits = 0
            while hits < 3:
                m = random_int_matrix(rng, n, -3, 3)
                if gcd(int(mx.det(m)), modulus) != 1:
                    continue
                hits += 1
                assert order_mod(m, modulus) == order_mod_by_scan(m, modulus)

    def test_modulus_one(self):
        assert order_mod(mx.rmat([[2, 1], [1, 1]]), 1) == 1

    def test_plastic_companion_mod_1013(self):
        # companion of x^3 - x - 1: a scan would take a million steps
        a = mx.rmat([[0, 0, 1], [1, 0, 1], [0, 1, 0]])
        order = order_mod(a, 1013)
        assert order == 1_027_183
        assert is_identity_mod(a, order, 1013)
        for q in factor_int(order):
            assert not is_identity_mod(a, order // q, 1013)


class TestLeastExponent:
    def test_subgroup(self):
        assert least_exponent(360, lambda k: k % 12 == 0) == 12
        assert least_exponent(7, lambda k: True) == 1
        assert least_exponent(2**10, lambda k: k % 2**10 == 0) == 2**10


class TestCleared:
    def test_least_denominator(self):
        scaled, d = mx.cleared(mx.rmat([["1/2", "1/3"], [1, "-5/6"]]))
        assert d == 6
        assert scaled.tolist() == [[3, 2], [6, -5]]
        assert all(type(e) is int for e in scaled.flat)

    def test_integral_input(self):
        scaled, d = mx.cleared(mx.rmat([[2, -1], [0, 7]]))
        assert d == 1
        assert scaled.tolist() == [[2, -1], [0, 7]]


# -- the sparse Gauss-Jordan against the dense row loop ----------------------


def random_rational_matrix(rng, nr, nc, zero_share=0.5):
    vals = [0] * 6 + [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7)]
    return mx.rmat([[0 if rng.random() < zero_share else rng.choice(vals) for _ in range(nc)] for _ in range(nr)])


def seeded_cases():
    rng = random.Random(2718)
    for _ in range(15):
        yield "wide", random_rational_matrix(rng, rng.randint(1, 5), rng.randint(6, 12))
        yield "tall", random_rational_matrix(rng, rng.randint(6, 12), rng.randint(1, 5))
        low = random_rational_matrix(rng, 7, 2, 0.2) @ random_rational_matrix(rng, 2, 9, 0.2)
        yield "rank-deficient", low
        m = random_rational_matrix(rng, 8, 6)
        m[[1, 4]] = Fraction(0)
        yield "zero-rows", m
        ints = np.array([[rng.randint(-3, 3) for _ in range(5)] for _ in range(6)], dtype=object)
        yield "int-valued", ints


class TestGaussJordan:
    @pytest.mark.parametrize("kind", ["wide", "tall", "rank-deficient", "zero-rows", "int-valued"])
    def test_rref_matches_dense(self, kind):
        for k, a in seeded_cases():
            if k != kind:
                continue
            red, pivots = mx.rref(a)
            want, want_pivots = rref_dense(a)
            assert pivots == want_pivots
            assert red.shape == a.shape and mx.mat_eq(red, want)
            assert all(type(e) is Fraction for e in red.flat)

    def test_rank_deficient_cases_lose_rank(self):
        assert any(len(mx.rref(a)[1]) < min(a.shape) for k, a in seeded_cases() if k == "rank-deficient")

    def test_row_order_does_not_matter(self):
        rng = random.Random(31)
        for _, a in seeded_cases():
            rows = [{c: v for c, v in enumerate(row) if v} for row in a]
            rng.shuffle(rows)
            red, pivots = mx.gauss_jordan(rows)
            want, want_pivots = rref_dense(a)
            assert pivots == want_pivots
            assert red == [{c: v for c, v in enumerate(want[r]) if v} for r in range(len(pivots))]

    def test_empty(self):
        assert mx.gauss_jordan([]) == ([], [])
        assert mx.gauss_jordan([{}, {3: Fraction(0)}]) == ([], [])
        for shape in ((0, 3), (3, 0)):
            red, pivots = mx.rref(mx.zeros(*shape))
            assert red.shape == shape and pivots == []

    def test_wrappers_match_dense(self):
        for _, a in seeded_cases():
            assert mx.mat_eq(mx.nullspace(a), nullspace_dense(a))
            assert mx.mat_eq(mx.col_basis(a), col_basis_dense(a))


def test_charpoly_matches_fraction_faddeev_leverrier():
    rng = random.Random(4242)
    for _ in range(100):
        n = rng.randint(1, 8)
        m = random_rational_matrix(rng, n, n, 0.3)
        assert mx.charpoly(m) == charpoly_fraction(m)


# -- the exact product and the commutation test in ints ----------------------

rationals = st.one_of(st.integers(-9, 9), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)))


def object_matrix(entries, nr, nc):
    """nr x nc object array of the given entries (ints and Fractions mixed)."""
    out = np.empty((nr, nc), dtype=object)
    out.flat[:] = entries
    return out


@st.composite
def matrix_pair(draw, square=False):
    n = draw(st.integers(0, 4))
    k, m = (n, n) if square else (draw(st.integers(0, 4)), draw(st.integers(0, 4)))
    zero = draw(st.sampled_from(["none", "a", "b"]))
    a = object_matrix(draw(st.lists(rationals, min_size=n * k, max_size=n * k)), n, k)
    b = object_matrix(draw(st.lists(rationals, min_size=k * m, max_size=k * m)), k, m)
    if zero != "none":
        (a if zero == "a" else b)[...] = 0
    return a, b


def rational(*rows):
    return object_matrix([Fraction(e) for row in rows for e in row], len(rows), len(rows[0]))


class TestMatmul:
    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(pair=matrix_pair())
    @example(pair=(mx.zeros(3, 0), mx.zeros(0, 2)))
    @example(pair=(mx.zeros(0, 3), mx.zeros(3, 2)))
    @example(pair=(mx.zeros(2, 3), mx.zeros(3, 0)))
    @example(pair=(rational([-1, "1/2"], ["-2/3", "5/4"]), rational(["-1/6", 3], [0, "-7/9"])))
    @example(pair=(np.array([[1, -2], [3, 4]], dtype=object), np.array([[5], [-6]], dtype=object)))
    def test_equals_fraction_product(self, pair):
        a, b = pair
        got, want = mx.matmul(a, b), a @ b
        assert got.shape == want.shape and (got == want).all()
        assert all(type(e) is Fraction for e in got.flat)

    @settings(max_examples=50, deadline=None, database=None, derandomize=True)
    @given(pair=matrix_pair(), extra=st.integers(1, 3))
    def test_shape_mismatch_raises_as_matmul_does(self, pair, extra):
        a, _ = pair
        b = mx.zeros(a.shape[1] + extra, 2)
        with pytest.raises(ValueError):
            a @ b
        with pytest.raises(ValueError):
            mx.matmul(a, b)


class TestCommutesWith:
    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(pair=matrix_pair(square=True), kind=st.sampled_from(["drawn", "polynomial", "scalar"]))
    @example(pair=(rational(["1/2", 1], [0, "-1/3"]), rational([2, 0], [0, 2])), kind="drawn")
    @example(pair=(rational(["1/2", 1], [0, "-1/3"]), rational([1, "1/5"], [0, 1])), kind="drawn")
    def test_equals_fraction_commutator_test(self, pair, kind):
        a, b = pair
        if kind == "polynomial":  # commutes with a
            b = a @ a - Fraction(3, 2) * a + mx.identity(a.shape[0])
        elif kind == "scalar":
            b = Fraction(-2, 3) * mx.identity(a.shape[0])
        assert mx.commutes_with(a)(b) == mx.mat_eq(a @ b, b @ a)

    def test_one_test_serves_a_group(self):
        m = rational(["1/2", 0], [0, 3])
        test = mx.commutes_with(m)
        verdicts = [test(f) for f in (mx.identity(2), rational([0, 1], [1, 0]), rational([-1, 0], [0, "1/7"]))]
        assert verdicts == [True, False, True]
