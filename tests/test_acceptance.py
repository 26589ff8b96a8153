"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is exact (rational arithmetic); the only bound is
the 60-second budget on the deterministic derivation check.
"""

import random
import time
from fractions import Fraction
from math import gcd

import numpy as np

from nilgrade import matrices as mx
from nilgrade.fixtures import CORPUS_6DIM, load_algebra, load_holonomy, load_map
from nilgrade.grading import (
    classify,
    find_weights,
    grading_from_weights,
    phi_p,
    preserved_by,
    verify_grading,
    weight_solution_space,
)
from nilgrade.latpow import denominator_primes, power_into_lattice
from nilgrade.liealg import is_automorphism, is_characteristically_nilpotent
from nilgrade.matrices import IntegerLattice
from nilgrade.specmaps import expanding_to_positive_grading, is_expanding
from nilgrade.liealg import induced_map

import oracles


def report(n, text):
    print(f"ACCEPTANCE {n:02d} PASS: {text}")


def test_criterion_01_notcohopf_determinant():
    algebra = load_algebra("notcohopf")
    g = grading_from_weights(algebra, (0, 1, 1, 1, 2, 2, 3))
    assert verify_grading(algebra, g).accepted()
    phi = phi_p(algebra, g, 2)
    assert oracles.mat_eq(phi, oracles.diag([1, 2, 2, 2, 4, 4, 8]))
    assert is_automorphism(algebra, phi)
    assert mx.det(phi) == 2**10
    report(1, "phi_2 of the (0,1,1,1,2,2,3) grading is diag(1,2,2,2,4,4,8), det 2^10")


def test_criterion_02_notcohopf_negative():
    algebra = load_algebra("notcohopf")
    assert find_weights(algebra, positive=True) is None
    phi = load_map("notcohopf", "phi")
    assert is_expanding(phi) is False
    report(2, "no positive basis-aligned weights; phi is not expanding")


def test_criterion_03_nilp5_characteristically_nilpotent():
    algebra = load_algebra("nilp5")
    t0 = time.monotonic()
    verdict = is_characteristically_nilpotent(algebra)
    elapsed = time.monotonic() - t0
    assert verdict.accepted()
    assert elapsed < 60.0
    for d in oracles.derivation_matrices(algebra):
        assert oracles.is_nilpotent(d)
    assert weight_solution_space(algebra).shape[1] == 0
    report(3, f"characteristically nilpotent (deterministic check in {elapsed:.2f}s);"
              " all derivations nilpotent; weight space 0")


def test_criterion_04_integer_like_cube():
    m = mx.rmat([["5/2", "1/2"], ["1/2", "1/2"]])
    cube = mx.mat_pow(m, 3)
    assert oracles.mat_eq(cube, mx.rmat([[17, 4], [4, 1]]))
    report(4, "[[5/2,1/2],[1/2,1/2]]^3 = [[17,4],[4,1]] exactly")


def test_criterion_05_escape_orbit():
    a = mx.rmat([["1/2", "1/2"], ["-3/2", "5/2"]])
    v0 = mx.rvec([0, 1])
    x = v0
    for k in range(1, 65):
        x = a @ x
        assert not all(e.denominator == 1 for e in x)
        closed_form = v0 + Fraction(2**k - 1, 2) * mx.rvec([1, 3])
        assert x == closed_form
    report(5, "A^k v stays outside Z^2 and matches v + (2^k-1)/2 * (1,3) for k = 1..64")


def _random_lattice(rng, n):
    while True:
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                if j > i:
                    row.append(Fraction(0))
                else:
                    den = rng.choice([1, 2, 3, 5])
                    row.append(Fraction(rng.randint(1, 3) if i == j else rng.randint(0, 2), den))
            rows.append(row)
        basis = mx.rmat(rows)
        if mx.det(basis) != 0:
            return IntegerLattice(basis)


def test_criterion_06_lattice_power_property():
    rng = random.Random(777)
    lattices = {2: [_random_lattice(rng, 2) for _ in range(10)],
                3: [_random_lattice(rng, 3) for _ in range(10)]}
    moduli = {2: [denominator_primes(l.basis)[1] for l in lattices[2]],
              3: [denominator_primes(l.basis)[1] for l in lattices[3]]}
    checked = 0
    while checked < 200:
        n = 2 if checked % 2 == 0 else 3
        a = mx.rmat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        d = mx.det(a)
        idx = rng.randrange(10)
        lattice, m = lattices[n][idx], moduli[n][idx]
        if d == 0 or gcd(abs(int(d)), m) != 1:
            continue
        checked += 1
        cert = power_into_lattice(a, lattice)
        assert oracles.is_integral(cert.conjugated_power)
        pinv = mx.inverse(lattice.basis)
        ak = a
        for j in range(1, min(cert.k, 201)):
            assert not oracles.is_integral(pinv @ ak @ lattice.basis)
            ak = ak @ a
        if cert.k <= 200:
            assert oracles.is_integral(pinv @ ak @ lattice.basis)
    report(6, "200 random (A, L) pairs: returned k is integral and minimal (scan to 200)")


def _commuting_companions(algebra_name, algebra, m):
    out = [mx.identity(algebra.dim)]
    if algebra_name == "heisenberg3":
        for name in ("diag224", "diag236", "diag122", "rotation"):
            psi = load_map("heisenberg3", name)
            if oracles.mat_eq(psi @ m, m @ psi):
                out.append(psi)
        for hol in ("heisenberg3_sign", "heisenberg3_swap"):
            for f in oracles.group_elements(load_holonomy(hol).generators):
                if oracles.mat_eq(f @ m, m @ f):
                    out.append(f)
    return out


def test_criterion_07_grading_round_trip():
    count = 0
    for name in CORPUS_6DIM:
        algebra = load_algebra(name)
        w = find_weights(algebra, positive=True)
        assert w is not None
        g = grading_from_weights(algebra, w)
        for p in (2, 3, 5):
            m = phi_p(algebra, g, p)
            extracted = expanding_to_positive_grading(algebra, m)
            assert verify_grading(algebra, extracted).accepted()
            assert classify(algebra, extracted) == "positive"
            assert preserved_by(extracted, m)
            for q in (2, 3, 5):
                assert preserved_by(extracted, phi_p(algebra, g, q))
            for psi in _commuting_companions(name, algebra, m):
                assert preserved_by(extracted, psi)
            count += 1
    report(7, f"round trip verified on {count} (fixture, prime) pairs")


def test_criterion_08_dimension_spot_check():
    for name in CORPUS_6DIM:
        algebra = load_algebra(name)
        assert algebra.dim <= 6
        w = find_weights(algebra, positive=True)
        assert w is not None and all(x >= 1 for x in w)
    report(8, f"all {len(CORPUS_6DIM)} algebras of dimension <= 6 admit positive weights")


def test_criterion_09_projection_compatibility():
    cases = []
    for name in ("diag224", "diag236", "diag122", "rotation"):
        cases.append(("heisenberg3", load_map("heisenberg3", name)))
    cases.append(("notcohopf", load_map("notcohopf", "phi")))
    for name in CORPUS_6DIM:
        algebra = load_algebra(name)
        w = find_weights(algebra, positive=True)
        g = grading_from_weights(algebra, w)
        cases.append((name, phi_p(algebra, g, 2)))
    for name, m in cases:
        algebra = load_algebra(name)
        assert is_expanding(m) == is_expanding(induced_map(algebra, m))
    report(9, f"is_expanding(M) == is_expanding(pi(M)) on {len(cases)} fixture automorphisms")


def test_criterion_10_schur_cohn_vs_float_oracle():
    rng = random.Random(31337)
    checked = 0
    agreements = 0
    while checked < 500:
        n = rng.randint(1, 5)
        m = mx.rmat([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        if mx.det(m) == 0:
            continue
        coeffs = [float(c) for c in reversed(mx.charpoly(m).coeffs)]
        mags = np.abs(np.roots(coeffs))
        if np.any(np.abs(mags - 1.0) <= 1e-9):
            continue
        checked += 1
        oracle = bool(np.all(mags > 1.0))
        if is_expanding(m) == oracle:
            agreements += 1
    assert agreements == 500
    report(10, "Schur-Cohn chain agrees with the float root oracle on 500/500 matrices")
