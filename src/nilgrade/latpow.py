"""Lattice-power machinery: which power of an integer matrix maps a given
lattice into itself, and which primes obstruct it.

The modulus m is deliberately the product of *all* entry denominators of
the lattice basis and its inverse (multiplicity included), following the
construction in the underlying feasibility argument verbatim, so the
emitted certificates replay it step for step; the lcm would work too but
would not match the proof text.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd as int_gcd

import numpy as np

from . import matrices as mx
from .intutil import factor_int, least_exponent
from .matrices import IntegerLattice
from .verdict import Verdict


@dataclass(frozen=True)
class LatticePowerCertificate:
    primes: tuple[int, ...]
    modulus: int
    k: int
    order_bound: int  # order of A in GL(n, Z_m): the proof's witness power
    a: np.ndarray
    basis: np.ndarray

    @cached_property
    def conjugated_power(self) -> np.ndarray:
        """P^-1 A^k P, built on first use: it has entries of ~k log10 rho(A) digits."""
        return mx.matmul(mx.matmul(mx.inverse(self.basis), mx.mat_pow(self.a, self.k)), self.basis)

    def exceeds_digits(self, digits: int) -> bool:
        """True when some entry of P^-1 A^k P provably has more than `digits` digits.

        Some entry is >= rho(A)^k / n, and rho(A)^j >= t / n for t = |tr A^j|,
        so (t / n)^(k/j) / n >= 10^digits for one j = 1, 2, 4, ... <= k suffices:
        tested as 64 j log2 of both sides, with log2 t >= bits(t) - 1,
        64 log2 n < bits(n^64) and log2 10^digits < bits(10^digits).
        """
        n, k = self.a.shape[0], self.k
        n_bits, ten_bits = (n**64).bit_length(), 64 * (10**digits).bit_length()
        power, j = mx.cleared(self.a)[0], 1
        while True:
            t = abs(np.trace(power))
            if 64 * k * (t.bit_length() - 1) >= (k + j) * n_bits + j * ten_bits:
                return True
            if 2 * j > k:
                return False
            power, j = power @ power, 2 * j


def denominator_primes(p: np.ndarray) -> tuple[list[int], int]:
    """(primes, m): m multiplies every entry denominator of P and P^-1."""
    if mx.det(p) == 0:
        raise ValueError("matrix is singular")
    m = 1
    for e in p.flat:
        m *= e.denominator
    for e in mx.inverse(p).flat:
        m *= e.denominator
    return sorted(factor_int(m)), m


def power_into_lattice(a: np.ndarray, lattice: IntegerLattice) -> LatticePowerCertificate:
    """Smallest k with A^k(L) subseteq L, certified.

    Requires A integral with det(A) nonzero and coprime to the modulus m
    built from the lattice basis; a shared prime is an obstruction and is
    reported by name.  A permutes (1/d2) Z^n / d1 Z^n, which holds L, so
    the k that work form a subgroup of Z: k is found by descent from the
    order of A mod m.  With U, V integer multiples of P^-1 and P, the
    conjugate P^-1 A^k P is integral iff U A^k V vanishes mod the scaling
    factor, which only needs A^k mod that factor.
    """
    n = lattice.dim
    if a.shape != (n, n):
        raise ValueError(f"matrix of shape {a.shape} does not act on a lattice of dimension {n}")
    a_int, den = mx.cleared(a)
    if den != 1:
        raise ValueError("integer matrix required")
    d = mx.det(a)
    if d == 0:
        raise ValueError("matrix is singular")
    primes, m = denominator_primes(lattice.basis)
    g = int_gcd(abs(int(d)), m)
    if g != 1:
        p = min(factor_int(g))
        raise ObstructionPrime(p)
    bound = mx.order_mod(a, m)
    u, d1 = mx.cleared(mx.inverse(lattice.basis))
    v, d2 = mx.cleared(lattice.basis)
    m0 = d1 * d2  # divides m, so the order bound still applies
    k = least_exponent(bound, lambda k: ((u @ mx._mat_pow_mod(a_int, k, m0) @ v) % m0 == 0).all())
    return LatticePowerCertificate(tuple(primes), m, k, bound, a.copy(), lattice.basis)


class ObstructionPrime(ValueError):
    """det(A) shares this prime with the lattice modulus."""

    def __init__(self, prime: int):
        super().__init__(f"obstruction prime {prime}")
        self.prime = prime


def orbit_escapes_lattice(a: np.ndarray, v: np.ndarray, bound: int) -> Verdict:
    """Does A^k v stay outside Z^n for every k = 1..bound?

    Accept means the whole orbit segment escapes; reject reports the
    first power that lands in the integer lattice.  The scan runs in
    integers: with M = d_A A and d_v v cleared once, A^k v = x / D for an
    integer vector x and one denominator D > 0, kept in lowest terms by one
    gcd per step, so A^k v is integral exactly when D = 1.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    n = a.shape[0]
    if a.shape != (n, n) or v.shape != (n,):
        raise ValueError("dimension mismatch")
    m, d_a = mx.cleared(a)
    x, den = mx.cleared(v)
    integral_ks = []
    first_image = None
    for k in range(1, bound + 1):
        x = m @ x
        den *= d_a
        g = int_gcd(den, *x)
        if g != 1:
            x //= g
            den //= g
        if den == 1:
            integral_ks.append(k)
            if first_image is None:
                first_image = [str(e) for e in x]
    if not integral_ks:
        return Verdict(
            "accept",
            condition="orbit-escapes",
            certificate={"bound": bound, "integral_k": []},
            diagnostics=[f"A^k v is non-integral for every k = 1..{bound}"],
        )
    return Verdict(
        "reject",
        condition="orbit-returns",
        certificate={
            "bound": bound,
            "integral_k": integral_ks,
            "first_integral_image": first_image,
        },
        diagnostics=[f"A^k v is integral first at k = {integral_ks[0]}"],
    )


def obstruction_primes_pair(l1: IntegerLattice, l2: IntegerLattice) -> list[int]:
    """Primes of the change-of-basis matrix between two lattices."""
    change = mx.matmul(mx.inverse(l1.basis), l2.basis)
    return denominator_primes(change)[0]
