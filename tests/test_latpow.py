import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from nilgrade import matrices as mx
from nilgrade.latpow import (
    ObstructionPrime,
    denominator_primes,
    obstruction_primes_pair,
    orbit_escapes_lattice,
    power_into_lattice,
)
from nilgrade.matrices import IntegerLattice, hnf_membership, order_mod
import oracles
from oracles import orbit_escapes_lattice_fraction


def lat(rows):
    return IntegerLattice(mx.rmat(rows))


class TestDenominatorPrimes:
    def test_identity(self):
        assert denominator_primes(mx.identity(3)) == ([], 1)

    def test_half_block(self):
        primes, m = denominator_primes(mx.rmat([["1/2", 0], [0, 1]]))
        assert primes == [2]
        assert m == 2  # denominators: 1/2 once in P, inverse is integral

    def test_multiple_primes(self):
        primes, m = denominator_primes(mx.rmat([["1/6", 0], [0, "1/10"]]))
        assert primes == [2, 3, 5]

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            denominator_primes(mx.zeros(2, 2))


class TestPowerIntoLattice:
    def test_integer_lattice_k1(self):
        cert = power_into_lattice(mx.rmat([[2, 1], [1, 1]]), lat([[1, 0], [0, 1]]))
        assert cert.k == 1
        assert cert.modulus == 1
        assert cert.primes == ()

    def test_spec_example_diag3(self):
        cert = power_into_lattice(mx.rmat([[3, 0], [0, 1]]), lat([["1/2", 0], [0, 1]]))
        assert cert.modulus == 2
        assert cert.k == 1
        assert oracles.is_integral(cert.conjugated_power)

    def test_obstruction_prime_2(self):
        with pytest.raises(ObstructionPrime, match="obstruction prime 2"):
            power_into_lattice(mx.rmat([[2, 0], [0, 1]]), lat([["1/2", 0], [0, 1]]))

    def test_certificate_invariants(self):
        rng = random.Random(61)
        done = 0
        while done < 25:
            a = mx.rmat([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
            d = mx.det(a)
            basis = mx.rmat(
                [
                    [Fraction(rng.randint(1, 3), rng.choice([1, 2, 3, 5])), 0],
                    [rng.randint(0, 2), Fraction(rng.randint(1, 3), rng.choice([1, 2, 5]))],
                ]
            )
            lattice = IntegerLattice(basis)
            _, m = denominator_primes(basis)
            if d == 0 or gcd(abs(int(d)), m) != 1:
                continue
            done += 1
            cert = power_into_lattice(a, lattice)
            assert cert.k <= cert.order_bound
            assert cert.order_bound == order_mod(a, m)
            # the proof's witness power conjugates integrally too
            top = mx.inverse(basis) @ mx.mat_pow(a, cert.order_bound) @ basis
            assert oracles.is_integral(top)
            # independent route: every transformed basis vector is in the lattice
            ak = mx.mat_pow(a, cert.k)
            for c in range(2):
                assert hnf_membership(ak @ basis.col(c), lattice)
            # minimality by exhaustive scan
            for j in range(1, cert.k):
                conj = mx.inverse(basis) @ mx.mat_pow(a, j) @ basis
                assert not oracles.is_integral(conj)

    def test_integer_like_succeeds_on_every_lattice(self):
        # |det| = 1 integral matrices always stabilize a power
        rng = random.Random(67)
        mats = [mx.rmat([[1, 1], [0, 1]]), mx.rmat([[2, 1], [1, 1]]), mx.rmat([[0, -1], [1, 0]])]
        for _ in range(10):
            basis = mx.rmat(
                [
                    [Fraction(1, rng.choice([2, 3, 5])), 0],
                    [rng.randint(0, 1), Fraction(rng.randint(1, 2), rng.choice([2, 3]))],
                ]
            )
            lattice = IntegerLattice(basis)
            for a in mats:
                assert abs(mx.det(a)) == 1
                cert = power_into_lattice(a, lattice)
                assert oracles.is_integral(cert.conjugated_power)

    def test_non_integer_matrix_rejected(self):
        with pytest.raises(ValueError):
            power_into_lattice(mx.rmat([["1/2", 0], [0, 1]]), lat([[1, 0], [0, 1]]))

    def test_dimension_mismatch_names_both(self):
        with pytest.raises(ValueError, match=r"shape \(3, 3\).*dimension 2"):
            power_into_lattice(mx.identity(3), lat([["1/2", 0], [0, 1]]))


def random_pair(rng, n, dens=(1, 2, 3, 5, 7, 11, 13)):
    """Integer A with entries in [-3, 3] and a lower triangular lattice basis."""
    a = mx.rmat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])

    def entry(i, j):
        if j > i:
            return 0
        return Fraction(rng.randint(1, 3) if i == j else rng.randint(0, 2), rng.choice(dens))

    return a, IntegerLattice(mx.rmat([[entry(i, j) for j in range(n)] for i in range(n)]))


def coprime_pairs(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a, lattice = random_pair(rng, rng.choice([2, 3, 4]))
        d = mx.det(a)
        if d != 0 and gcd(abs(int(d)), denominator_primes(lattice.basis)[1]) == 1:
            out.append((a, lattice))
    return out


def k_by_scan(a, lattice, limit):
    """The former search: try k = 1, 2, ... in turn, testing U A^k V = 0 mod
    d1 d2 with U = d1 P^-1 and V = d2 P integral; None past `limit`."""
    p_inv = mx.inverse(lattice.basis)
    u, d1 = np.array(p_inv.rows, dtype=object), p_inv.den
    v, d2 = np.array(lattice.basis.rows, dtype=object), lattice.basis.den
    m0 = d1 * d2
    a_int = np.array(a.rows, dtype=object)
    ak = a_int % m0
    for k in range(1, limit + 1):
        if ((u @ ak @ v) % m0 == 0).all():
            return k
        ak = (ak @ a_int) % m0
    return None


class TestDescentAgainstScan:
    def test_k_matches_the_scan(self):
        compared = 0
        for a, lattice in coprime_pairs(2026, 150):
            cert = power_into_lattice(a, lattice)
            if cert.k <= 2_000:
                compared += 1
                assert k_by_scan(a, lattice, 2_000) == cert.k
        assert compared >= 90


def max_digits(m):
    return max(len(str(abs(e.numerator))) for e in oracles.flat(m))


class TestPrintabilityBound:
    @pytest.mark.parametrize("digits", [5, 20, 100, 400])
    def test_never_refuses_a_printable_certificate(self, digits):
        refused = 0
        for a, lattice in coprime_pairs(digits, 60):
            cert = power_into_lattice(a, lattice)
            if cert.k > 5_000:
                continue
            if cert.exceeds_digits(digits):
                refused += 1
                assert max_digits(cert.conjugated_power) > digits
        assert refused > 0

    def test_refuses_a_million_steps_without_building_the_power(self):
        a = mx.rmat([[0, 0, 1], [1, 0, 1], [0, 1, 0]])  # companion of x^3 - x - 1
        cert = power_into_lattice(a, lat([["1/1013", 0, 0], [0, 1, 0], [0, 0, 1]]))
        assert cert.k == 1_027_183
        assert cert.exceeds_digits(4300)
        assert "conjugated_power" not in vars(cert)


class TestOrbitEscape:
    def test_escape_orbit_never_integral(self):
        a = mx.rmat([["1/2", "1/2"], ["-3/2", "5/2"]])
        v = orbit_escapes_lattice(a, mx.rvec([0, 1]), 64)
        assert v.accepted()
        assert v.certificate["integral_k"] == []

    def test_identity_returns_immediately(self):
        v = orbit_escapes_lattice(mx.identity(2), mx.rvec([0, 1]), 5)
        assert v.decision == "reject"
        assert v.certificate["integral_k"] == [1, 2, 3, 4, 5]

    def test_integer_like_cube(self):
        a = mx.rmat([["5/2", "1/2"], ["1/2", "1/2"]])
        v = orbit_escapes_lattice(a, mx.rvec([1, 0]), 3)
        assert v.decision == "reject"
        assert v.certificate["integral_k"] == [3]
        # A^3 = [[17, 4], [4, 1]]: the image of e1 is its first column
        assert v.certificate["first_integral_image"] == ["17", "4"]

    def test_escape_orbit_closed_form(self):
        a = mx.rmat([["1/2", "1/2"], ["-3/2", "5/2"]])
        v0 = mx.rvec([0, 1])
        x = v0
        for k in range(1, 20):
            x = a @ x
            expected = v0 + Fraction(2**k - 1, 2) * mx.rvec([1, 3])
            assert x == expected

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            orbit_escapes_lattice(mx.identity(2), mx.rvec([0, 1]), 0)


def random_orbit_case(rng, n, kind):
    """(A, v) in dim n: A integral, rational, singular or zero by `kind`,
    v zero or with entry denominators drawn from 1, 2, 3, 4, 6 and 9."""
    dens = (1,) if kind == "integral" else (1, 2, 3, 4)
    a = mx.rmat([[Fraction(rng.randint(-3, 3), rng.choice(dens)) for _ in range(n)] for _ in range(n)])
    if kind == "zero":
        a = mx.zeros(n, n)
    elif kind == "singular":
        a = oracles.dense(a)
        a[n - 1] = a[0] * rng.randint(-2, 2)
        a = mx.rmat(a)
    if rng.random() < 0.15:
        return a, mx.rvec([0] * n)
    return a, mx.rvec([Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 4, 6, 9))) for _ in range(n)])


def orbit_exit_case(rng, n, kind):
    """(A, v) in dim n for one of the orbit scan's exits: integral A with a
    composite d_v, A = M/q with q prime to det M, a scaled signed
    permutation whose d_A = 2 divides det M (periodic cycles), singular A,
    or zero A."""
    dens = (1, 2, 3, 4, 6, 8, 9, 12)
    if kind == "integral":
        a = mx.rmat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        dens = (4, 6, 8, 9, 12, 18)
    elif kind == "unit":
        q = rng.choice((2, 3, 5))
        while True:
            m = mx.rmat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            if int(mx.det(m)) % q:
                break
        a = m * Fraction(1, q)
    elif kind == "periodic":
        n = max(n, 2)  # in dim 1, d_A is prime to det M
        while True:
            scale = [rng.choice((-1, 0, 1)) for _ in range(n)]
            if -1 in scale and sum(scale) > -n:
                break
        a = oracles.zeros(n, n)
        for i, j in enumerate(rng.sample(range(n), n)):
            a[i, j] = Fraction(2) ** scale[i] * rng.choice((1, -1))
        a = mx.rmat(a)
    elif kind == "singular":
        a = oracles.dense([[Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(n)] for _ in range(n)])
        a[n - 1] = a[0] * rng.randint(-2, 2)
        a = mx.rmat(a)
    else:
        a = mx.zeros(n, n)
    return a, mx.rvec([Fraction(rng.randint(-8, 8), rng.choice(dens)) for _ in range(n)])


class TestOrbitAgainstFraction:
    """The integer scan against the Fraction loop it replaced, as verdict JSON."""

    def test_verdicts_match_the_oracle(self):
        rng = random.Random(4099)
        decisions = set()
        for trial in range(400):
            n = 1 + trial % 4
            kind = ("integral", "rational", "singular", "zero")[trial // 4 % 4]
            a, v = random_orbit_case(rng, n, kind)
            bound = rng.choice([1, 2, 5, 24])
            got = orbit_escapes_lattice(a, v, bound)
            assert got.to_json() == orbit_escapes_lattice_fraction(a, v, bound).to_json()
            decisions.add((kind, got.decision))
        assert decisions >= {(k, d) for k in ("integral", "rational", "singular") for d in ("accept", "reject")}

    @pytest.mark.parametrize(
        "a, v, bound",
        [
            ([["1/2", "1/2"], ["-3/2", "5/2"]], [0, 1], 64),
            ([["5/2", "1/2"], ["1/2", "1/2"]], [1, 0], 3),
            ([["1/2", "1/2"], ["-3/2", "5/2"]], ["1/3", "-1/2"], 1),
            ([[2, 0], [0, 3]], ["1/4", "1/9"], 4),
            ([["2/3"]], ["9/2"], 6),
            ([[0, 0], [0, 0]], ["1/2", "1/3"], 1),
            ([[1, 2], [3, 4]], [0, 0], 1),
        ],
    )
    def test_edge_cases_match_the_oracle(self, a, v, bound):
        a, v = mx.rmat(a), mx.rvec(v)
        assert orbit_escapes_lattice(a, v, bound).to_json() == orbit_escapes_lattice_fraction(a, v, bound).to_json()

    @pytest.mark.parametrize("kind", ["integral", "unit", "periodic", "singular", "zero"])
    def test_each_exit_matches_the_oracle(self, kind):
        rng = random.Random(f"orbit-exit-{kind}")
        returns = 0
        for trial in range(60):
            a, v = orbit_exit_case(rng, 1 + trial % 4, kind)
            bound = rng.randint(64, 128)
            got = orbit_escapes_lattice(a, v, bound)
            assert got.to_json() == orbit_escapes_lattice_fraction(a, v, bound).to_json()
            returns += got.decision == "reject"
        # A v = 0 for zero A; every other class both escapes and returns
        assert returns == 60 if kind == "zero" else 0 < returns < 60

    @pytest.mark.parametrize(
        "a, v, first",
        [
            # ker A^k mod 2^e grows by one step at a time, so the first
            # integral k is exactly n e = n (bit_length(d_v) - 1)
            ([[0, 2], [1, 0]], ["1/8", 0], 6),
            ([[0, 0, 2], [1, 0, 0], [0, 1, 0]], ["1/4", 0, 0], 6),
            ([[0, 0, 2], [1, 0, 0], [0, 1, 0]], ["1/32", 0, 0], 15),
            # the same chain next to a 3-part that never clears
            ([[0, 2, 0], [1, 0, 0], [0, 0, 1]], ["1/8", 0, "1/3"], None),
            # 2 divides d_A and det M: period 2, integral at every even k
            ([[0, "1/2"], [2, 0]], [0, 1], 2),
            # M/q with q prime to det M: integral while v_3 of x lasts
            ([["2/3", "1/3"], ["1/3", "1/3"]], [27, 0], 1),
            # nilpotent with a denominator: A^2 v = 0
            ([[0, "1/2"], [0, 0]], ["1/3", 1], 2),
        ],
    )
    def test_exits_at_their_sharp_steps(self, a, v, first):
        a, v = mx.rmat(a), mx.rvec(v)
        for bound in (first or 1, 64, 97):
            got = orbit_escapes_lattice(a, v, bound)
            assert got.to_json() == orbit_escapes_lattice_fraction(a, v, bound).to_json()
        assert (got.certificate["integral_k"] or [None])[0] == first

    @pytest.mark.parametrize(
        "a, v, integral_k",
        [
            # integral A: integral from k = 6 on
            ([[0, 2], [1, 0]], ["1/8", 0], range(6, 10**6 + 1)),
            # integral A, and 2 never leaves D after n (bit_length(2) - 1) steps
            ([[1, 1], [0, 1]], [0, "1/2"], []),
            # unit prime 3: A^3 v = (13, 8), then 3 stays in D
            ([["2/3", "1/3"], ["1/3", "1/3"]], [27, 0], [1, 2, 3]),
            # 3 never leaves D, though 2 divides both d_A and det M
            ([[0, "1/2", 0], [2, 0, 0], [0, 0, 1]], [0, 1, "1/3"], []),
        ],
    )
    def test_million_step_bound_settles_early(self, a, v, integral_k):
        got = orbit_escapes_lattice(mx.rmat(a), mx.rvec(v), 10**6)
        assert got.certificate["integral_k"] == list(integral_k)
        short = orbit_escapes_lattice_fraction(mx.rmat(a), mx.rvec(v), 128)
        assert short.certificate["integral_k"] == list(integral_k)[: len(short.certificate["integral_k"])]
        assert short.decision == got.decision

    def test_same_refusals(self):
        for a, v, bound in [(mx.identity(2), mx.rvec([0, 1]), 0), (mx.identity(2), mx.rvec([0, 1, 2]), 3)]:
            for f in (orbit_escapes_lattice, orbit_escapes_lattice_fraction):
                with pytest.raises(ValueError):
                    f(a, v, bound)


def random_unimodular(rng, n):
    """An integral U with det +-1: elementary row operations on I."""
    u = oracles.identity(n)
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            u[i] = u[i] + rng.choice([-2, -1, 1, 2]) * u[j]
        if rng.random() < 0.2:
            u[i] = -u[i]
    return mx.rmat(u)


class TestUnimodularChangeOfBasis:
    """An integral unimodular U carries Z^n onto itself, so conjugating A by U
    and moving L to U L changes no lattice-power answer."""

    def test_power_into_lattice_k_and_obstruction_prime(self):
        rng = random.Random(8191)
        outcomes = set()
        for _ in range(120):
            n = rng.choice([2, 3, 4])
            a, lattice = random_pair(rng, n)
            if mx.det(a) == 0:
                continue
            u = random_unimodular(rng, n)
            moved = (u @ a @ mx.inverse(u), IntegerLattice(u @ lattice.basis))
            answers = []
            for b, target in ((a, lattice), moved):
                try:
                    answers.append(("k", power_into_lattice(b, target).k))
                except ObstructionPrime as e:
                    answers.append(("prime", e.prime))
            assert answers[0] == answers[1]
            outcomes.add(answers[0][0])
        assert outcomes == {"k", "prime"}

    def test_orbit_integral_k(self):
        rng = random.Random(131071)
        returns = 0
        for trial in range(200):
            n = 1 + trial % 4
            a, v = random_orbit_case(rng, n, ("integral", "rational", "singular")[trial % 3])
            u = random_unimodular(rng, n)
            bound = rng.choice([1, 6, 24])
            before = orbit_escapes_lattice(a, v, bound).certificate["integral_k"]
            after = orbit_escapes_lattice(u @ a @ mx.inverse(u), u @ v, bound).certificate["integral_k"]
            assert before == after
            returns += bool(before)
        assert 0 < returns < 200


class TestObstructionPrimesPair:
    def test_equal_lattices_no_primes(self):
        l1 = lat([[2, 1], [0, 3]])
        assert obstruction_primes_pair(l1, l1) == []

    def test_third_lattice(self):
        assert obstruction_primes_pair(lat([[1, 0], [0, 1]]), lat([["1/3", 0], [0, 1]])) == [3]

    def test_doubled_lattice(self):
        assert obstruction_primes_pair(lat([[2, 0], [0, 1]]), lat([[1, 0], [0, 1]])) == [2]
