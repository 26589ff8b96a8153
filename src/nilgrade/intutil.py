"""Small integer helpers: primality, factorization, least exponents.

Primality is deterministic Miller-Rabin, a proof below `PRIME_PROOF_LIMIT`
and refused above it.  Factorization is plain trial division: desk-scale
moduli, the small primes a factorization over Q works modulo, and the
p^i - 1 (i <= n) that bound matrix orders mod p.
"""

from __future__ import annotations

# Miller-Rabin to the 13 prime bases 2..41 proves primality of every n below
# this (Sorenson & Webster, Math. Comp. 86, 2017; the least strong
# pseudoprime to all 13 bases).
PRIME_PROOF_LIMIT = 3_317_044_064_679_887_385_961_981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Whether n is prime, proven; ValueError at or above `PRIME_PROOF_LIMIT`."""
    if n >= PRIME_PROOF_LIMIT:
        raise ValueError(f"cannot prove {n} prime: primality is decided only below {PRIME_PROOF_LIMIT}")
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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
