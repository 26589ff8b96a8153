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
from math import gcd as int_gcd, lcm

import numpy as np

from . import matrices as mx
from .intutil import prime_divisors
from .matrices import IntegerLattice
from .verdict import Verdict


@dataclass(frozen=True)
class LatticePowerCertificate:
    primes: tuple[int, ...]
    modulus: int
    k: int
    conjugated_power: np.ndarray
    order_bound: int  # order of A in GL(n, Z_m): the proof's witness power

    def __post_init__(self):
        if not mx.is_integral(self.conjugated_power):
            raise ValueError("conjugated power must be integral")


def denominator_primes(p: np.ndarray) -> tuple[list[int], int]:
    """(primes, m): m multiplies every entry denominator of P and P^-1."""
    if mx.det(p) == 0:
        raise ValueError("matrix is singular")
    m = 1
    for e in p.flat:
        m *= e.denominator
    for e in mx.inverse(p).flat:
        m *= e.denominator
    return prime_divisors(m), m


def power_into_lattice(a: np.ndarray, lattice: IntegerLattice) -> LatticePowerCertificate:
    """Smallest k with A^k(L) subseteq L, certified.

    Requires A integral with det(A) nonzero and coprime to the modulus m
    built from the lattice basis; a shared prime is an obstruction and is
    reported by name.  The scan runs in modular arithmetic: with U, V
    integer multiples of P^-1 and P, the conjugate P^-1 A^k P is integral
    iff U A^k V vanishes mod the scaling factor, which only needs A^k mod
    that factor.
    """
    if not mx.is_integral(a):
        raise ValueError("integer matrix required")
    d = mx.det(a)
    if d == 0:
        raise ValueError("matrix is singular")
    primes, m = denominator_primes(lattice.basis)
    g = int_gcd(abs(int(d)), m)
    if g != 1:
        p = min(prime_divisors(g))
        raise ObstructionPrime(p)
    bound = mx.order_mod(a, m)
    basis = lattice.basis
    pinv = mx.inverse(basis)
    d1 = lcm(*(e.denominator for e in pinv.flat))
    d2 = lcm(*(e.denominator for e in basis.flat))
    m0 = d1 * d2  # divides m, so the order bound still applies
    u = np.array([[int(e * d1) for e in row] for row in pinv], dtype=object)
    v = np.array([[int(e * d2) for e in row] for row in basis], dtype=object)
    a_int = np.array([[int(e) for e in row] for row in a], dtype=object)
    ak_mod = a_int % m0
    for k in range(1, bound + 1):
        if ((u @ ak_mod @ v) % m0 == 0).all():
            conj = pinv @ mx.mat_pow(a, k) @ basis
            return LatticePowerCertificate(tuple(primes), m, k, conj, bound)
        ak_mod = (ak_mod @ a_int) % m0
    raise AssertionError("A^order_mod must conjugate integrally")  # pragma: no cover


class ObstructionPrime(ValueError):
    """det(A) shares this prime with the lattice modulus."""

    def __init__(self, prime: int):
        super().__init__(f"obstruction prime {prime}")
        self.prime = prime


def orbit_escapes_lattice(a: np.ndarray, v: np.ndarray, bound: int) -> Verdict:
    """Does A^k v stay outside Z^n for every k = 1..bound?

    Accept means the whole orbit segment escapes; reject reports the
    first power that lands in the integer lattice.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    n = a.shape[0]
    if a.shape != (n, n) or v.shape != (n,):
        raise ValueError("dimension mismatch")
    x = v
    integral_ks = []
    first_image = None
    for k in range(1, bound + 1):
        x = a @ x
        if all(e.denominator == 1 for e in x):
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
    change = mx.inverse(l1.basis) @ l2.basis
    return denominator_primes(change)[0]
