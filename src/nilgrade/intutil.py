"""Small integer helpers: primality, factorization, least exponents.

Everything here is plain trial division: desk-scale moduli, the small
primes a factorization over Q works modulo, and the p^i - 1 (i <= n) that
bound matrix orders mod p.
"""

from __future__ import annotations


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factor_int(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError("factor_int expects a positive integer")
    out: dict[int, int] = {}
    x = n
    p = 2
    while p * p <= x:
        while x % p == 0:
            out[p] = out.get(p, 0) + 1
            x //= p
        p = 3 if p == 2 else p + 2
    if x > 1:
        out[x] = out.get(x, 0) + 1
    return out


def least_exponent(multiple: int, holds) -> int:
    """Least k >= 1 with holds(k), given holds(multiple).

    Exact when the k with holds(k) form a subgroup of Z: the least one
    divides `multiple`, and dividing out primes while holds() lasts finds it.
    """
    k = multiple
    for q in factor_int(multiple):
        while k % q == 0 and holds(k // q):
            k //= q
    return k
