import itertools
import random
from fractions import Fraction
from math import gcd, lcm, prod

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nilgrade import matrices as mx
from nilgrade.intutil import factor_int, least_exponent
from nilgrade.matrices import IntegerLattice, hnf, hnf_membership, order_mod
from nilgrade.polynomials import Polynomial
import oracles
from oracles import (
    charpoly_fraction,
    col_basis_dense,
    col_spaces_equal,
    col_spaces_equal_basis,
    det_fraction,
    eval_poly_fraction,
    least_exponent_sequential,
    minpoly,
    nullspace_dense,
    primary_decomposition_fraction,
    rank,
    rref_dense,
)
from test_liealg import unimodular
from test_specmaps import block_diag, jordan_block


def P(*coeffs):
    return Polynomial(coeffs)


def kernel_of(a):
    """`matrices.kernel` on the rows of the dense matrix A."""
    return mx.kernel([{c: v for c, v in enumerate(row) if v} for row in a.rows], a.shape[1])


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
    assert oracles.is_monic(p)
    c = oracles.zeros(n, n)
    for i in range(1, n):
        c[i, i - 1] = Fraction(1)
    for i in range(n):
        c[i, n - 1] = -p.coeffs[i]
    return mx.rmat(c)


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
            assert oracles.mat_eq(m @ mx.inverse(m), mx.identity(3))

    def test_singular_inverse_raises(self):
        with pytest.raises(ValueError):
            mx.inverse(mx.zeros(2, 2))


class TestKernelAndSpaces:
    def test_nullspace_annihilates(self):
        rng = random.Random(19)
        for _ in range(20):
            m = mx.rmat([[rng.randint(-3, 3) for _ in range(4)] for _ in range(2)])
            k = kernel_of(m)
            assert k.shape[1] == 4 - rank(m)
            assert mx.is_zero_mat(m @ k) or k.shape[1] == 0

    def test_col_basis_canonical(self):
        a = mx.rmat([[1, 2], [1, 2], [0, 0]])
        b = mx.rmat([[3], [3], [0]])
        assert col_spaces_equal(a, b)
        assert oracles.mat_eq(mx.col_basis(a), mx.col_basis(b))

    def test_solve_none_when_inconsistent(self):
        a = mx.rmat([[1, 0], [1, 0]])
        assert oracles.solve_linear(a, mx.rvec([1, 2])) is None


class TestMinpoly:
    def test_identity(self):
        assert minpoly(mx.identity(3)) == P(-1, 1)

    def test_companion_equals_charpoly(self):
        p = P(2, -3, 1)
        assert minpoly(companion(p)) == p

    def test_diag_with_repeats(self):
        m = oracles.diag([2, 2, 3])
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
            assert oracles.mat_eq(got, eval_poly_fraction(p, m))
            assert all(type(e) is Fraction for e in oracles.flat(got))

    def test_mat_pow_matches_repeated_products(self):
        m = mx.rmat([[1, Fraction(1, 2)], [-3, Fraction(2, 3)]])
        want = mx.identity(2)
        for k in range(6):
            assert oracles.mat_eq(mx.mat_pow(m, k), want)
            want = want @ m
        assert mx.mat_pow(m, 1) is not m
        assert oracles.mat_eq(mx.mat_pow(m, -2) @ mx.mat_pow(m, 2), mx.identity(2))


class TestPrimaryDecomposition:
    def test_diagonal(self):
        comps = mx.primary_decomposition(oracles.diag([1, 2]))
        assert [(str(p), s.shape[1]) for p, s in comps] == [("X - 1", 1), ("X - 2", 1)]
        assert oracles.mat_eq(comps[0][1], mx.rmat([[1], [0]]))
        assert oracles.mat_eq(comps[1][1], mx.rmat([[0], [1]]))

    def test_rational_eigenline_decomposition(self):
        m = mx.rmat([["1/2", "1/2"], ["-3/2", "5/2"]])
        comps = mx.primary_decomposition(m)
        # oracle: eigenlines are the kernels of (A - I) and (A - 2I)
        for (p, s), lam in zip(comps, (1, 2)):
            oracle = mx.col_basis(kernel_of(m - lam * mx.identity(2)))
            assert oracles.mat_eq(s, oracle)

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
                assert all(oracles.solve_linear(s, v) is not None for v in (m @ s).T)


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
            assert oracles.mat_eq(hnf(b), hnf(b @ u))

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


unimodular_ops = st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), st.sampled_from([-2, -1, 1, 2])), max_size=5)


@st.composite
def rational_lattices(draw):
    """(P, P U): P = U1 D U2 / q of dim 1-4, D a nonzero integer diagonal, q
    in {1, 2, 3, 6} and U, U1, U2 unimodular, so P U spans the lattice of P."""
    n = draw(st.integers(1, 4))
    ops = (lambda: draw(unimodular_ops)) if n > 1 else list
    d = oracles.diag(draw(st.lists(st.sampled_from([1, -1, 2, 3, -4, 5]), min_size=n, max_size=n)))
    p = unimodular(n, ops()) @ d @ unimodular(n, ops()) * Fraction(1, draw(st.sampled_from([1, 2, 3, 6])))
    return p, p @ unimodular(n, ops())


class TestHnfMembershipAgainstTriangularSolve:
    """Membership through the lattice's one inverse against the triangular
    solve on the Hermite form of d P."""

    @settings(max_examples=150)
    @given(data=st.data(), lattices=rational_lattices())
    def test_members_and_shifted_non_members(self, data, lattices):
        p, rebased = lattices
        n = p.shape[0]
        z = mx.rvec(data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)))
        i, q = data.draw(st.integers(0, n - 1)), data.draw(st.sampled_from([2, 3, 6]))
        shifted = p @ z + mx.rvec([Fraction(int(j == i), q) for j in range(n)])
        for basis in (p, rebased):
            lattice = IntegerLattice(basis)
            assert hnf_membership(p @ z, lattice) and oracles.hnf_membership_triangular(p @ z, lattice)
            assert hnf_membership(shifted, lattice) == oracles.hnf_membership_triangular(shifted, lattice)
        assert hnf_membership(shifted, IntegerLattice(p)) == hnf_membership(shifted, IntegerLattice(rebased))

    def test_a_shift_can_land_in_a_finer_lattice(self):
        half = IntegerLattice(mx.rmat([["1/2", 0], [0, 1]]))
        for v, member in ((mx.rvec(["1/2", 0]), True), (mx.rvec([0, "1/2"]), False), (mx.rvec(["1/3", 0]), False)):
            assert hnf_membership(v, half) == oracles.hnf_membership_triangular(v, half) == member


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
        while not oracles.mat_eq(
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
                assert not oracles.mat_eq(mx.rmat(acc.tolist()), mx.identity(2))
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


# -- orders and least exponents against the former scan and descent ----------


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


def additive(k0):
    """least_exponent's arguments for x = 1 in the additive group Z, where
    x^k = k, and holds(k) iff k0 divides k."""
    return 1, lambda y, e: y * e, lambda y: y % k0 == 0


class TestLeastExponent:
    def test_subgroup(self):
        assert least_exponent(360, *additive(12)) == 12
        assert least_exponent(7, 1, lambda y, e: y * e, lambda y: True) == 1
        assert least_exponent(2**10, *additive(2**10)) == 2**10
        assert least_exponent(1, *additive(1)) == 1

    def test_matches_the_sequential_descent(self):
        # multiples: 1, prime powers, and products of many primes; the
        # subgroup kZ is drawn from the divisors of the multiple
        rng = random.Random(5077)
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]
        multiples = [1] + [q**e for q in primes[:6] for e in (1, 2, 5)]
        for _ in range(60):
            chosen = rng.sample(primes, rng.randint(2, len(primes)))
            multiples.append(prod(q ** rng.randint(1, 3) for q in chosen))
        for multiple in multiples:
            for _ in range(4):
                k0 = prod(q ** rng.randint(0, e) for q, e in factor_int(multiple).items())
                got = least_exponent(multiple, *additive(k0))
                assert got == k0
                assert got == least_exponent_sequential(multiple, lambda k: k % k0 == 0)

    def test_multiplicative_orders_mod_p(self):
        # x in (Z/p)^*, multiple p - 1: the least exponent is the order of x
        rng = random.Random(7919)
        for p in (3, 101, 7919, 65537, 1_000_003):
            for _ in range(5):
                x = rng.randint(1, p - 1)
                got = least_exponent(p - 1, x, lambda y, e: pow(y, e, p), lambda y: y == 1)
                assert got == least_exponent_sequential(p - 1, lambda k: pow(x, k, p) == 1)
                assert pow(x, got, p) == 1


def order_by_powering(a, modulus, cap):
    """Least k <= cap with A^k = I mod modulus, by one product per k; None past cap."""
    ident = np.identity(a.shape[0], dtype=object)
    base = np.array(a.rows, dtype=object) % modulus
    acc = base
    for k in range(1, cap + 1):
        if (acc == ident).all():
            return k
        acc = (acc @ base) % modulus
    return None


class TestOrderByBruteForce:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_powering(self, n):
        rng = random.Random(8675309 + n)
        compared = 0
        for _ in range(12):
            while True:
                modulus = rng.randint(2, 200)
                a = random_int_matrix(rng, n, -4, 4)
                if gcd(int(mx.det(a)), modulus) == 1:
                    break
            order = order_mod(a, modulus)
            brute = order_by_powering(a, modulus, 5_000)
            if brute is None:
                assert order > 5_000
                assert is_identity_mod(a, order, modulus)
                assert all(not is_identity_mod(a, order // q, modulus) for q in factor_int(order))
            else:
                compared += 1
                assert order == brute
        assert compared >= 8


class TestCleared:
    """A QMat holds its cleared form: int rows over the least denominator."""

    def test_least_denominator(self):
        q = mx.rmat([["1/2", "1/3"], [1, "-5/6"]])
        assert q.den == 6
        assert q.rows == ((3, 2), (6, -5))
        assert all(type(e) is int for row in q.rows for e in row)

    def test_integral_input(self):
        q = mx.rmat([[2, -1], [0, 7]])
        assert q.den == 1
        assert q.rows == ((2, -1), (0, 7))


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
        m = oracles.dense(random_rational_matrix(rng, 8, 6))
        m[[1, 4]] = Fraction(0)
        yield "zero-rows", mx.rmat(m)
        ints = np.array([[rng.randint(-3, 3) for _ in range(5)] for _ in range(6)], dtype=object)
        yield "int-valued", mx.rmat(ints)


class TestGaussJordan:
    @pytest.mark.parametrize("kind", ["wide", "tall", "rank-deficient", "zero-rows", "int-valued"])
    def test_rref_matches_dense(self, kind):
        for k, a in seeded_cases():
            if k != kind:
                continue
            red, pivots = mx.rref(a)
            want, want_pivots = rref_dense(a)
            assert pivots == want_pivots
            assert red.shape == a.shape and oracles.mat_eq(red, want)
            assert all(type(e) is Fraction for e in oracles.flat(red))

    def test_rank_deficient_cases_lose_rank(self):
        assert any(len(mx.rref(a)[1]) < min(a.shape) for k, a in seeded_cases() if k == "rank-deficient")

    def test_row_order_does_not_matter(self):
        rng = random.Random(31)
        for _, a in seeded_cases():
            rows = [{c: v for c, v in enumerate(row) if v} for row in a.rows]
            rng.shuffle(rows)
            red, pivots = oracles.gauss_jordan(rows)
            want, want_pivots = rref_dense(a)
            assert pivots == want_pivots
            assert red == [{c: v for c, v in enumerate(want[r]) if v} for r in range(len(pivots))]

    def test_empty(self):
        assert oracles.gauss_jordan([]) == ([], [])
        assert oracles.gauss_jordan([{}, {3: Fraction(0)}]) == ([], [])
        for shape in ((0, 3), (3, 0)):
            red, pivots = mx.rref(mx.zeros(*shape))
            assert red.shape == shape and pivots == []

    def test_wrappers_match_dense(self):
        for _, a in seeded_cases():
            assert oracles.mat_eq(kernel_of(a), nullspace_dense(a))
            assert oracles.mat_eq(mx.col_basis(a), col_basis_dense(a))


# -- the fraction-free core against the Fraction oracles ----------------------


def sparse_system(rng, nr, nc):
    """Seeded sparse rational rows: zero rows, rows repeated or scaled from
    earlier ones, a negative first entry in half the rows, and entries of
    about 30 digits."""
    big = 10**30

    def entry():
        return rng.choice(
            [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), rng.randint(-big, big), Fraction(rng.randint(-big, big), rng.randint(1, big))]
        )

    rows = []
    for _ in range(nr):
        kind = rng.random()
        if kind < 0.1:
            rows.append([Fraction(0)] * nc)
        elif kind < 0.25 and rows:
            rows.append([rng.choice([1, -2, Fraction(-1, 3)]) * x for x in rng.choice(rows)])
        else:
            row = [Fraction(entry()) if rng.random() < 0.35 else Fraction(0) for _ in range(nc)]
            lead = next((c for c, x in enumerate(row) if x), None)
            if lead is not None and rng.random() < 0.5:
                row[lead] = -abs(row[lead])
            rows.append(row)
    return mx.rmat(rows) if nr else mx.zeros(0, nc)


def sparse_systems():
    rng = random.Random(1968)
    for _ in range(40):
        yield sparse_system(rng, rng.randint(1, 9), rng.randint(1, 9))


class TestFractionFreeCore:
    def test_rref_and_kernel_match_dense_oracles(self):
        for a in sparse_systems():
            red, pivots = mx.rref(a)
            want, want_pivots = rref_dense(a)
            assert pivots == want_pivots and oracles.mat_eq(red, want)
            assert oracles.mat_eq(kernel_of(a), nullspace_dense(a))

    def test_echelon_rows_are_primitive(self):
        # content 1 and a positive lead: the int row is the one primitive
        # multiple of its RREF row
        leads = set()
        for a in sparse_systems():
            rows = [{c: v for c, v in enumerate(row) if v} for row in a.rows]
            red, pivots = oracles.gauss_jordan(rows)
            ints = mx.echelon(rows)
            assert [min(r) for r in ints] == pivots
            for r, want, p in zip(ints, red, pivots):
                assert all(type(v) is int for v in r.values())
                assert gcd(*r.values()) == 1 and r[p] > 0
                assert {c: Fraction(v, r[p]) for c, v in r.items()} == want
            leads |= {next((x for x in row if x), 0) < 0 for row in a}
        assert leads == {True, False}

    def test_sparse_kernel_columns_over_least_denominators(self):
        for a in sparse_systems():
            rows = [{c: v for c, v in enumerate(row) if v} for row in a.rows]
            cols = mx.sparse_kernel(rows, a.shape[1])
            want = nullspace_dense(a)
            assert len(cols) == want.shape[1]
            for k, (col, den) in enumerate(cols):
                assert den > 0 and gcd(den, *col.values()) == 1
                assert all(type(v) is int for v in col.values())
                assert [Fraction(col.get(c, 0), den) for c in range(a.shape[1])] == list(want[:, k])

    def test_det_and_inverse_match_forward_elimination(self):
        rng = random.Random(1968)
        singular = 0
        for _ in range(40):
            n = rng.randint(1, 7)
            a = sparse_system(rng, n, n)
            if rng.random() < 0.3:  # a permuted triangular matrix
                tri = [[x if c >= r else 0 for c, x in enumerate(row)] for r, row in enumerate(a)]
                a = mx.rmat([tri[i] for i in rng.sample(range(n), n)])
            d = mx.det(a)
            assert d == det_fraction(a)
            if d == 0:
                singular += 1
                with pytest.raises(ValueError):
                    mx.inverse(a)
            else:
                assert oracles.mat_eq(mx.matmul(mx.inverse(a), a), mx.identity(n))
        assert 0 < singular < 40

    def test_inverse_is_the_dense_inverse_in_lowest_terms(self):
        rng = random.Random(68)
        invertible = singular = 0
        while invertible < 25:
            n = rng.randint(1, 7)
            a = sparse_system(rng, n, n)
            if mx.det(a) == 0:
                singular += 1
                with pytest.raises(ValueError):
                    mx.inverse(a)
                continue
            invertible += 1
            b = mx.inverse(a)
            want = rref_dense(np.concatenate([oracles.dense(a), oracles.identity(n)], axis=1))[0][:, n:]
            assert oracles.mat_eq(b, want)
            assert b.den == lcm(*(e.denominator for e in want.flat))
            assert all(type(v) is int for row in b.rows for v in row)
        assert singular > 0

    def test_det_of_small_matrices_by_leibniz(self):
        rng = random.Random(22)
        for _ in range(30):
            a = sparse_system(rng, 3, 3)
            assert mx.det(a) == det_3x3_oracle(a)


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
    @settings(max_examples=200)
    @given(pair=matrix_pair())
    @example(pair=(mx.zeros(3, 0), mx.zeros(0, 2)))
    @example(pair=(mx.zeros(0, 3), mx.zeros(3, 2)))
    @example(pair=(mx.zeros(2, 3), mx.zeros(3, 0)))
    @example(pair=(rational([-1, "1/2"], ["-2/3", "5/4"]), rational(["-1/6", 3], [0, "-7/9"])))
    @example(pair=(np.array([[1, -2], [3, 4]], dtype=object), np.array([[5], [-6]], dtype=object)))
    def test_equals_fraction_product(self, pair):
        a, b = pair
        got, want = mx.matmul(oracles.qmat(a), oracles.qmat(b)), oracles.dense(a) @ oracles.dense(b)
        assert oracles.mat_eq(got, want)
        assert all(type(e) is Fraction for e in oracles.flat(got))

    @settings(max_examples=50)
    @given(pair=matrix_pair(), extra=st.integers(1, 3))
    def test_shape_mismatch_raises_as_matmul_does(self, pair, extra):
        a, _ = pair
        b = mx.zeros(a.shape[1] + extra, 2)
        with pytest.raises(ValueError):
            oracles.dense(a) @ oracles.dense(b)
        with pytest.raises(ValueError):
            mx.matmul(oracles.qmat(a), b)


class TestCommutesWith:
    @settings(max_examples=200)
    @given(pair=matrix_pair(square=True), kind=st.sampled_from(["drawn", "polynomial", "scalar"]))
    @example(pair=(rational(["1/2", 1], [0, "-1/3"]), rational([2, 0], [0, 2])), kind="drawn")
    @example(pair=(rational(["1/2", 1], [0, "-1/3"]), rational([1, "1/5"], [0, 1])), kind="drawn")
    def test_equals_fraction_commutator_test(self, pair, kind):
        a, b = map(oracles.dense, pair)
        if kind == "polynomial":  # commutes with a
            b = a @ a - Fraction(3, 2) * a + oracles.identity(a.shape[0])
        elif kind == "scalar":
            b = Fraction(-2, 3) * oracles.identity(a.shape[0])
        assert mx.commutes_with(oracles.qmat(a))(oracles.qmat(b)) == oracles.mat_eq(a @ b, b @ a)

    def test_one_test_serves_a_group(self):
        m = rational(["1/2", 0], [0, 3])
        test = mx.commutes_with(mx.rmat(m))
        verdicts = [test(mx.rmat(f)) for f in (mx.identity(2), rational([0, 1], [1, 0]), rational([-1, 0], [0, "1/7"]))]
        assert verdicts == [True, False, True]


# -- the norm path's int kernels against their Fraction oracles ------------


@st.composite
def jordan_conjugates(draw):
    """P B P^-1 of dim 1-8: B is block diagonal in Jordan blocks of size
    1-3 (eigenvalues from a short list, so they repeat) and companions of
    X^2 + 1, X^2 - 2, X^2 - X - 1 or their squares; P is unimodular times
    a rational diagonal."""
    n = draw(st.integers(1, 8))
    blocks, size = [], 0
    while size < n:
        room = n - size
        if room >= 2 and draw(st.booleans()):
            q = draw(st.sampled_from([P(1, 0, 1), P(-2, 0, 1), P(-1, -1, 1)]))
            blocks.append(companion(q * q if room >= 4 and draw(st.booleans()) else q))
        else:
            blocks.append(jordan_block(draw(st.sampled_from([-1, 0, 1, 2, Fraction(1, 2)])), draw(st.integers(1, min(3, room)))))
        size += blocks[-1].shape[0]
    scales = draw(st.lists(st.sampled_from([1, -1, 2, Fraction(1, 3), Fraction(-3, 2)]), min_size=n, max_size=n))
    p = oracles.diag(scales)
    if n > 1:
        ops = draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), st.sampled_from([-2, -1, 1, 2])), max_size=6))
        p = mx.matmul(unimodular(n, ops), p)
    return mx.matmul(mx.matmul(p, block_diag(blocks)), mx.inverse(p))


class TestPrimaryDecompositionInIntegers:
    @settings(max_examples=80)
    @given(m=jordan_conjugates())
    def test_matches_fraction_decomposition(self, m):
        got, want = mx.primary_decomposition(m), primary_decomposition_fraction(m)
        assert [p for p, _ in got] == [p for p, _ in want]
        assert all(oracles.mat_eq(a, b) for (_, a), (_, b) in zip(got, want))

    def test_minimal_polynomial_factor_and_scalar_map(self):
        # p(M) = 0 for the factor p: its int multiple is zero, the kernel everything
        for m in (companion(P(1, 0, 1)), 3 * mx.identity(3), mx.zeros(2, 2)):
            got = mx.primary_decomposition(m)
            assert len(got) == 1 and oracles.mat_eq(got[0][1], mx.identity(m.shape[0]))
            assert [p for p, _ in got] == [p for p, _ in primary_decomposition_fraction(m)]


@st.composite
def column_space_pairs(draw):
    """(A, B) with the same number of rows: B = A R for a drawn square R
    (the same space when R is invertible), B = A without its last column,
    or B drawn on its own."""
    n, k = draw(st.integers(1, 5)), draw(st.integers(0, 4))
    a = object_matrix(draw(st.lists(rationals, min_size=n * k, max_size=n * k)), n, k)
    kind = draw(st.sampled_from(["product", "dropped", "drawn"]))
    if kind == "product":
        r = object_matrix(draw(st.lists(rationals, min_size=k * k, max_size=k * k)), k, k)
        return a, a @ r
    if kind == "dropped":
        return a, a[:, : max(k - 1, 0)]
    kb = draw(st.integers(0, 4))
    return a, object_matrix(draw(st.lists(rationals, min_size=n * kb, max_size=n * kb)), n, kb)


class TestColumnSpacesByRank:
    @settings(max_examples=200)
    @given(pair=column_space_pairs())
    def test_matches_canonical_basis_equality(self, pair):
        a, b = pair
        assert col_spaces_equal(a, b) == col_spaces_equal_basis(a, b) == col_spaces_equal_basis(b, a)

    def test_both_answers_and_row_mismatch(self):
        a = rational([1, 0], [2, "1/2"], [0, 0])
        assert col_spaces_equal(a, a @ rational([2, 1], [0, -3]))
        assert not col_spaces_equal(a, a[:, :1])
        assert not col_spaces_equal(a, a[:2])
        assert col_spaces_equal(mx.zeros(3, 0), mx.zeros(3, 2))


# -- QMat laws against the Fraction oracles ------------------------------------


@st.composite
def qmats(draw, nr=None, nc=None, square=False):
    """A small rational QMat (dims 1-4 unless given), some of its rows zero
    or repeated so that kernels and singular matrices come up."""
    nr = draw(st.integers(1, 4)) if nr is None else nr
    nc = nr if square else draw(st.integers(1, 4)) if nc is None else nc
    rows = [draw(st.lists(rationals, min_size=nc, max_size=nc)) for _ in range(nr)]
    if nr > 1 and draw(st.booleans()):
        rows[-1] = [draw(st.sampled_from([0, 1, Fraction(-2, 3)])) * x for x in rows[0]]
    return mx.rmat(rows)


def assert_lowest_terms(q):
    assert q.den > 0 and gcd(q.den, *(x for row in q.rows for x in row)) == 1
    assert all(type(x) is int for row in q.rows for x in row)


class TestQMatLaws:
    """Each QMat kernel against its Fraction oracle, and each result in
    lowest terms over a positive denominator."""

    @settings(max_examples=150)
    @given(data=st.data())
    def test_matmul(self, data):
        a = data.draw(qmats())
        b = data.draw(qmats(nr=a.shape[1]))
        got = mx.matmul(a, b)
        assert oracles.mat_eq(got, oracles.dense(a) @ oracles.dense(b)) and got == a @ b
        assert_lowest_terms(got)
        v = data.draw(qmats(nr=1, nc=a.shape[1])).tolist()[0]
        assert oracles.mat_eq(a @ mx.rvec(v), oracles.dense(a) @ np.array(v, dtype=object))

    @settings(max_examples=150)
    @given(a=qmats(square=True))
    def test_det_and_inverse(self, a):
        d = mx.det(a)
        assert d == det_fraction(a)
        if d == 0:
            with pytest.raises(ValueError):
                mx.inverse(a)
            return
        n = a.shape[0]
        got = mx.inverse(a)
        assert oracles.mat_eq(got, rref_dense(np.concatenate([oracles.dense(a), oracles.identity(n)], axis=1))[0][:, n:])
        assert_lowest_terms(got)

    @settings(max_examples=150)
    @given(a=qmats())
    def test_rref_and_kernel(self, a):
        red, pivots = mx.rref(a)
        want, want_pivots = rref_dense(a)
        assert pivots == want_pivots and oracles.mat_eq(red, want)
        assert_lowest_terms(red)
        k = kernel_of(a)
        assert oracles.mat_eq(k, nullspace_dense(a))
        assert_lowest_terms(k)

    @settings(max_examples=100)
    @given(a=qmats(square=True), k=st.integers(-3, 6))
    def test_mat_pow(self, a, k):
        if k < 0 and mx.det(a) == 0:
            with pytest.raises(ValueError):
                mx.mat_pow(a, k)
            return
        base = oracles.dense(a) if k >= 0 else oracles.dense(mx.inverse(a))
        want = oracles.identity(a.shape[0])
        for _ in range(abs(k)):
            want = want @ base
        got = mx.mat_pow(a, k)
        assert oracles.mat_eq(got, want)
        assert_lowest_terms(got)

    @settings(max_examples=100)
    @given(a=qmats(), s=rationals)
    def test_sums_scalars_and_the_numpy_round_trip(self, a, s):
        assert mx.rmat(np.array(a)) == a
        assert mx.rmat(oracles.dense(a)) == a
        assert oracles.mat_eq(a + s * a - a.T.T, oracles.dense(a) * s)
        assert hash(mx.rmat(a.tolist())) == hash(a)
        assert_lowest_terms(s * a)

    def test_zero_and_empty_shapes(self):
        assert mx.zeros(2, 3) == mx.rmat([[0, 0, 0], [0, 0, 0]]) and mx.zeros(2, 3).den == 1
        assert mx.zeros(0, 3).T.shape == (3, 0) and mx.zeros(3, 0).T.shape == (0, 3)
        assert mx.matmul(mx.zeros(3, 0), mx.zeros(0, 2)) == mx.zeros(3, 2)
        with pytest.raises(AttributeError):
            mx.identity(2).den = 2
