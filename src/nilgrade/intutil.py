"""Small integer helpers: rationals as ints over one denominator, and
printed from them, content division, square-and-multiply, primality,
factorization, least exponents.

`cleared` turns rationals into ints over their least denominator.  Only
the public constructors that take rationals call it (`matrices.rvec`,
`matrices.rmat`, `Polynomial(coeffs)`): matrices, polynomials and
algebras hold that int form, and every kernel reads it as it is.

`rational_strs` is the one printer of rationals held as ints over one
denominator: x/d in lowest terms, as `str(Fraction(x, d))` prints it,
with no `Fraction` built.  `serialize` prints matrices and polynomials
through it, and `QMat.__repr__` and the Jacobi residual and derivation
witness of `liealg`, which cannot import `serialize`, print through it
too.

`primitive` and `power` are the one copy of their idea for every layer
above: content division serves the Fourier-Motzkin rows, the Z[X]
remainder sequences, the Schur-Cohn chain and the primary components;
square-and-multiply serves matrix powers over Q and mod m and polynomial
powers mod (f, p).

Primality is deterministic Miller-Rabin, a proof below `PRIME_PROOF_LIMIT`
and refused above it.  Factorization is plain trial division: desk-scale
moduli, the small primes a factorization over Q works modulo, and the
p^i - 1 (i <= n) that bound matrix orders mod p.  The least exponent of a
group element is found from a known multiple N by one product tree over
the prime powers of N: each tree level raises by about log N bits of
exponent in all, and no candidate exponent is raised from scratch.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

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


def least_exponent(multiple: int, x, power, holds) -> int:
    """Least k >= 1 with holds(x^k), given holds(x^multiple).

    Exact when the k with holds(x^k) form a subgroup kZ of Z: then k
    divides N = `multiple`, and for q^e exactly dividing N the q-part of k
    is the least q^j with holds(x^(N / q^(e - j))), because that element
    passes iff k divides N / q^(e - j).  The starting elements x^(N / q^e)
    come from one product tree over the prime powers of N, and each leaf
    steps y <- y^q.  `power(y, e)` is y^e in the group.
    """

    def descend(y, leaves):
        if len(leaves) == 1:
            ((q, e),) = leaves
            k = 1
            for _ in range(e):
                if holds(y):
                    break
                y, k = power(y, q), k * q
            return k
        half = len(leaves) // 2
        left, right = leaves[:half], leaves[half:]
        return descend(power(y, prod(q**e for q, e in right)), left) * descend(
            power(y, prod(q**e for q, e in left)), right
        )

    leaves = list(factor_int(multiple).items())
    return descend(x, leaves) if leaves else 1


def frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def cleared(values) -> tuple[list[int], int]:
    """(d v as ints, d) for the least d > 0 that makes d v integral, for a
    sequence v of rationals."""
    dens = [e.denominator for e in values]
    d = lcm(*dens)
    return [e.numerator * (d // q) for e, q in zip(values, dens)], d


def rational_strs(rows, d: int) -> list[list[str]]:
    """Each entry x of the int rows as x/d in lowest terms, the "/q"
    dropped when q = 1, for one d > 0: `str(Fraction(x, d))`."""
    if d == 1:
        return [[str(x) for x in row] for row in rows]
    out = []
    for row in rows:
        strs = []
        for x in row:
            g = gcd(x, d)
            strs.append(str(x // g) if g == d else f"{x // g}/{d // g}")
        out.append(strs)
    return out


def primitive(ints) -> list[int]:
    """The ints divided by their gcd, signs kept, as a list; all zeros are
    left as they are."""
    ints = list(ints)
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def power(x, k: int, product):
    """x^k for k >= 1 under `product`, by square and multiply."""
    out = None
    while k:
        if k & 1:
            out = x if out is None else product(out, x)
        if k > 1:
            x = product(x, x)
        k >>= 1
    return out
