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
from operator import mul

from . import matrices as mx
from .intutil import factor_int, least_exponent
from .matrices import IntegerLattice, QMat
from .verdict import Verdict


@dataclass(frozen=True)
class LatticePowerCertificate:
    primes: tuple[int, ...]
    modulus: int
    k: int
    order_bound: int  # order of A in GL(n, Z_m): the proof's witness power
    a: QMat
    basis: QMat
    basis_inverse: QMat  # P^-1, the lattice's one inverse

    @cached_property
    def conjugated_power(self) -> QMat:
        """P^-1 A^k P, built on first use: it has entries of ~k log10 rho(A) digits."""
        return mx.matmul(mx.matmul(self.basis_inverse, mx.mat_pow(self.a, self.k)), self.basis)

    def exceeds_digits(self, digits: int) -> bool:
        """True when some entry of P^-1 A^k P provably has more than `digits` digits.

        Some entry is >= rho(A)^k / n, and rho(A)^j >= t / n for t = |tr A^j|,
        so (t / n)^(k/j) / n >= 10^digits for one j = 1, 2, 4, ... <= k suffices:
        tested as 64 j log2 of both sides, with log2 t >= bits(t) - 1,
        64 log2 n < bits(n^64) and log2 10^digits < bits(10^digits).
        """
        n, k = self.a.shape[0], self.k
        n_bits, ten_bits = (n**64).bit_length(), 64 * (10**digits).bit_length()
        power, j = self.a, 1
        while True:
            t = abs(sum(power.rows[i][i] for i in range(n)))
            if 64 * k * (t.bit_length() - 1) >= (k + j) * n_bits + j * ten_bits:
                return True
            if 2 * j > k:
                return False
            power, j = mx.matmul(power, power), 2 * j


def denominator_primes(p: QMat, p_inv: QMat | None = None) -> tuple[list[int], int]:
    """(primes, m): m multiplies every entry denominator of P and P^-1,
    the denominator of the entry x / d being d / gcd(x, d).

    `p_inv` is P^-1 when the caller has it already; a singular P raises
    ValueError from `mx.inverse`.
    """
    if p_inv is None:
        p_inv = mx.inverse(p)
    m = 1
    for q in (p, p_inv):
        for row in q.rows:
            for x in row:
                m *= q.den // int_gcd(x, q.den)
    return sorted(factor_int(m)), m


def power_into_lattice(a: QMat, lattice: IntegerLattice) -> LatticePowerCertificate:
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
    if a.den != 1:
        raise ValueError("integer matrix required")
    d = mx.det(a)
    if d == 0:
        raise ValueError("matrix is singular")
    p_inv = lattice.inverse
    primes, m = denominator_primes(lattice.basis, p_inv)
    g = int_gcd(abs(int(d)), m)
    if g != 1:
        p = min(factor_int(g))
        raise ObstructionPrime(p)
    bound = mx.order_mod(a, m)
    u, v = p_inv.rows, lattice.basis.rows
    m0 = p_inv.den * lattice.basis.den  # divides m, so the order bound still applies
    k = least_exponent(
        bound,
        [[x % m0 for x in row] for row in a.rows],
        lambda y, e: mx._mat_pow_mod(y, e, m0),
        lambda y: not any(map(any, mx._mat_mul_mod(mx._mat_mul_mod(u, y, m0), v, m0))),
    )
    return LatticePowerCertificate(tuple(primes), m, k, bound, a, lattice.basis, p_inv)


class ObstructionPrime(ValueError):
    """det(A) shares this prime with the lattice modulus."""

    def __init__(self, prime: int):
        super().__init__(f"obstruction prime {prime}")
        self.prime = prime


def orbit_escapes_lattice(a: QMat, v: QMat, bound: int) -> Verdict:
    """Does A^k v stay outside Z^n for every k = 1..bound?

    Accept means the whole orbit segment escapes; reject reports the
    first power that lands in the integer lattice.  The scan runs in
    integers: with M = d_A A and d_v v the int rows of A and v, A^k v =
    x / D for an integer vector x and one denominator D > 0, kept in
    lowest terms by one gcd per step, so A^k v is integral exactly when
    D = 1.

    The scan stops as soon as the rest of the orbit is decided:
    - D = 1 with d_A = 1 or x = 0: A is integral, or A^k v = 0, so every
      later A^k v is integral too.
    - p | D with p | d_A, p ∤ det M: M is in GL(n, Z_p), so it keeps the
      p-adic valuation of x while D gains p^(v_p(d_A)) a step, and p never
      leaves D.  These p are the primes of the part of d_A prime to det M.
    - p | D with p | d_v, p ∤ d_A, k >= n (bit_length(d_v) - 1): A^k v is
      p-integral iff d_v v lies in ker A^k on (Z/p^e)^n, e = v_p(d_v) <=
      bit_length(d_v) - 1, a chain in a module of length n e, so constant
      from k = n e on, and p never leaves D.
    A prime dividing both d_A and det M settles nothing (A = [[0, 1/2],
    [2, 0]] has period 2), so while D holds only such primes the scan goes
    on to `bound`.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    n = a.shape[0]
    if a.shape != (n, n) or v.shape != (n,):
        raise ValueError("dimension mismatch")
    m, d_a = a.rows, a.den
    (x,), den = v.rows, v.den
    units = 1 if d_a == 1 else _part_prime_to(d_a, int(mx.det(a) * d_a**n))
    fitting = _part_prime_to(den, d_a)
    settle = n * (den.bit_length() - 1)
    integral_ks = []
    first_image = None
    for k in range(1, bound + 1):
        x = [sum(map(mul, row, x)) for row in m]
        den *= d_a
        g = int_gcd(den, *x)
        if g != 1:
            x = [e // g for e in x]
            den //= g
        if den == 1:
            integral_ks.append(k)
            if first_image is None:
                first_image = [str(e) for e in x]
            if d_a == 1 or not any(x):
                integral_ks.extend(range(k + 1, bound + 1))
                break
        elif int_gcd(den, units) != 1 or (k >= settle and int_gcd(den, fitting) != 1):
            break
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


def _part_prime_to(a: int, b: int) -> int:
    """The largest divisor of a > 0 prime to b, without factoring (1 when b = 0)."""
    while (g := int_gcd(a, b)) != 1:
        a //= g
    return a


def obstruction_primes_pair(l1: IntegerLattice, l2: IntegerLattice) -> list[int]:
    """Primes of the change-of-basis matrix between two lattices: library
    surface that no CLI path calls, shown in `demos/02_lattice_powers.py`."""
    change = mx.matmul(l1.inverse, l2.basis)
    return denominator_primes(change)[0]
