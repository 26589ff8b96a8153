"""Univariate polynomials over the rationals, with exact factorization.

A `Polynomial` is held as `matrices.QMat` holds a matrix: int
coefficients, ascending by degree, over one denominator in lowest terms.
Arithmetic runs on those ints and divides once, kernels are built from
ints (`Polynomial._from_ints`), and a `Fraction` is made only for a
coefficient that is read (`coeffs`).  The algorithms below run on the
primitive int multiple of a polynomial, as int coefficient lists.
Squarefree (Yun) decomposition is done in Z[X]: gcds by the primitive
remainder sequence, and every division exact in Z[X] by Gauss's lemma,
since each divisor is a primitive gcd.  The factorization hands Yun's
primitive int parts straight to Zassenhaus: factor mod a small prime
(distinct-degree, then Cantor-Zassenhaus equal-degree splitting with a
fixed seed), Hensel-lift the factors quadratically, and recombine them
by exact trial division over Z.  Polynomial time except for the
recombination, which is exponential only in the number of modular
factors that no rational factor accounts for; the result does not
depend on the prime or the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import gcd as int_gcd, isqrt, lcm
from typing import Iterable

from .intutil import cleared, frac, is_prime, power, primitive


# -- integer polynomials -----------------------------------------------


# Integer polynomials below are ascending coefficient lists without a zero
# leading coefficient ([] is 0); with m > 0 every coefficient is in [0, m).


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _add(a: list[int], b: list[int], m: int = 0) -> list[int]:
    """a + b, reduced mod m unless m = 0."""
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
    return _trim([c % m for c in out] if m else out)


def _sub(a: list[int], b: list[int], m: int = 0) -> list[int]:
    return _add(a, [-c for c in b], m)


def _mul(a: list[int], b: list[int], m: int = 0) -> list[int]:
    """a * b, reduced mod m unless m = 0."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim([c % m for c in out] if m else out)


def _derivative(a: list[int]) -> list[int]:
    return _trim([k * c for k, c in enumerate(a)][1:])


class Polynomial:
    """Immutable rational polynomial: the int coefficients `ints`,
    ascending by degree with no zero leading one, over one denominator
    `den` > 0, in lowest terms, so equal polynomials have equal ints and
    den.  `coeffs[k]`, the Fraction that multiplies X^k, is made only
    when read."""

    __slots__ = ("ints", "den")

    def __init__(self, coeffs: Iterable):
        self._store(*cleared([frac(c) for c in coeffs]))

    @classmethod
    def _from_ints(cls, ints: Iterable[int], den: int = 1) -> "Polynomial":
        """The polynomial sum ints[k] X^k / den, for an int den != 0."""
        out = cls.__new__(cls)
        out._store(ints, den)
        return out

    def _store(self, ints: Iterable[int], den: int) -> None:
        ints = _trim(list(ints))
        g = int_gcd(den, *ints) * (1 if den > 0 else -1)
        self.ints: tuple[int, ...] = tuple(c // g for c in ints)
        self.den = den // g

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.ints)

    # -- basic structure ------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.ints) - 1

    def is_zero(self) -> bool:
        return not self.ints

    def monic(self) -> "Polynomial":
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return Polynomial._from_ints(self.ints, self.ints[-1])

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.den == other.den and self.ints == other.ints

    def __hash__(self) -> int:
        return hash((self.ints, self.den))

    def __repr__(self) -> str:
        return f"Polynomial({self:s})"

    def __format__(self, spec: str) -> str:
        return str(self)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k, c in reversed(list(enumerate(self.coeffs))):
            if c == 0:
                continue
            if k == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}X" + (f"^{k}" if k > 1 else "")
            if not parts:
                parts.append(("-" if c < 0 else "") + term)
            else:
                parts.append(("- " if c < 0 else "+ ") + term)
        return " ".join(parts)

    # -- arithmetic: in ints over the product or lcm of the denominators ---

    def __neg__(self) -> "Polynomial":
        return Polynomial._from_ints([-c for c in self.ints], self.den)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        d = lcm(self.den, other.den)
        a = [c * (d // self.den) for c in self.ints]
        return Polynomial._from_ints(_add(a, [c * (d // other.den) for c in other.ints]), d)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):  # an int or a Fraction
            return Polynomial._from_ints([c * other.numerator for c in self.ints], self.den * other.denominator)
        return Polynomial._from_ints(_mul(self.ints, other.ints), self.den * other.den)

    __rmul__ = __mul__

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Quotient and remainder over Q, from the pseudo-division of the
        int coefficients: s (d_a A) = q (d_b B) + r gives
        A = (q d_b / (s d_a)) B + r / (s d_a)."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q, r, s = _pseudo_divmod(self.ints, other.ints)
        d = s * self.den
        return Polynomial._from_ints([c * other.den for c in q], d), Polynomial._from_ints(r, d)

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def divides(self, other: "Polynomial") -> bool:
        return (other % self).is_zero()

    def derivative(self) -> "Polynomial":
        return Polynomial._from_ints(_derivative(self.ints), self.den)

    def __call__(self, x: Fraction | int) -> Fraction:
        """p(x) for x = u/v, by Horner in ints: sum c_k u^k v^(deg-k) / (den v^deg)."""
        u, v = x.numerator, x.denominator
        acc = 0
        for k, c in enumerate(reversed(self.ints)):
            acc = acc * u + c * v**k
        return Fraction(acc, self.den * v ** max(self.degree, 0))

    def reciprocal(self) -> "Polynomial":
        """Coefficient reversal X^deg * p(1/X)."""
        return Polynomial._from_ints(reversed(self.ints), self.den)


ONE = Polynomial([1])
X = Polynomial([0, 1])


# -- squarefree decomposition in Z[X] ------------------------------------


def _pseudo_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int], int]:
    """(q, r, s) with s a = q b + r over Z and deg r < deg b, for an int
    s > 0 that scales the running remainder only where a quotient
    coefficient would not be an int: s = 1, and q is the exact quotient,
    when b divides a in Z[X].  The one long division for Z[X] and, on
    the int coefficients, for Q[X] (`Polynomial.__divmod__`)."""
    lc = b[-1]
    r = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    s = 1
    for k in range(len(q) - 1, -1, -1):
        t = r[k + len(b) - 1]
        if t % lc:
            g = abs(lc) // int_gcd(lc, t)
            r, q, t, s = [c * g for c in r], [c * g for c in q], t * g, s * g
        c = q[k] = t // lc
        if c:
            for j, y in enumerate(b):
                r[k + j] -= c * y
    return _trim(q), _trim(r[: len(b) - 1]), s


def _zgcd(a: list[int], b: list[int]) -> list[int]:
    """The primitive gcd in Z[X], positive leading coefficient, by the
    primitive remainder sequence: each pseudo-remainder is divided by its
    content, which keeps the coefficients as small as the gcd allows."""
    while b:
        a, b = b, primitive(_pseudo_divmod(a, b)[1])
    g = primitive(a)
    return g if not g or g[-1] > 0 else [-c for c in g]


def _yun(f: list[int]) -> list[tuple[list[int], int]]:
    """Yun's squarefree decomposition of a primitive f in Z[X]: the pairs
    (s_i, i) with f = +-prod s_i^i over the s_i of degree >= 1, each
    primitive with positive leading coefficient, squarefree, and pairwise
    coprime.  Each division is exact in Z[X] by Gauss's lemma: the divisor
    is a primitive gcd, which divides the dividend over Q."""
    df = _derivative(f)
    g = _zgcd(f, df)
    c, d = _pseudo_divmod(f, g)[0], _pseudo_divmod(df, g)[0]
    out, i = [], 1
    while len(c) > 1:
        d = _sub(d, _derivative(c))
        a = _zgcd(c, d)
        if len(a) > 1:
            out.append((a, i))
        c, d = _pseudo_divmod(c, a)[0], _pseudo_divmod(d, a)[0]
        i += 1
    return out


def squarefree_part(p: Polynomial) -> Polynomial:
    """p / gcd(p, p'), made monic: the radical of p, computed in Z[X] on
    the primitive multiple of its ints."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    f = primitive(p.ints)
    return Polynomial._from_ints(_pseudo_divmod(f, _zgcd(f, _derivative(f)))[0]).monic()


# -- factorization over Q ----------------------------------------------


def _divmod(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder mod m; the leading coefficient of b is a unit mod m."""
    inv = pow(b[-1], -1, m)
    r = [c % m for c in a]
    q = [0] * max(len(a) - len(b) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + len(b) - 1] * inv % m
        if c:
            for j, y in enumerate(b):
                r[k + j] = (r[k + j] - c * y) % m
    return _trim(q), _trim(r[: len(b) - 1])


def _monic(a: list[int], m: int) -> list[int]:
    inv = pow(a[-1], -1, m)
    return [c * inv % m for c in a]


def _gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd mod the prime p."""
    while b:
        a, b = b, _divmod(a, b, p)[1]
    return _monic(a, p)


def _bezout(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """(s, t) with s a + t b = 1 mod the prime p, for coprime a and b."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub(s0, _mul(q, s1, p), p)
        t0, t1 = t1, _sub(t0, _mul(q, t1, p), p)
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _powmod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    """a^e mod (f, p), for e >= 1."""
    return power(_divmod(a, f, p)[1], e, lambda x, y: _divmod(_mul(x, y, p), f, p)[1])


def _distinct_degree(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """(g, d) with g the product of the degree-d irreducible factors of the
    monic squarefree f mod p, for every d that has any."""
    out, h, d = [], [0, 1], 0
    while 2 * (d + 1) < len(f):
        d += 1
        h = _powmod(h, p, f, p)
        g = _gcd(f, _sub(h, [0, 1], p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _divmod(f, g, p)[0]
            h = _divmod(h, f, p)[1]
    return out + [(f, len(f) - 1)] if len(f) > 1 else out


def _equal_degree(f: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """The monic degree-d irreducible factors of f mod the odd prime p (Cantor-Zassenhaus)."""
    if len(f) - 1 == d:
        return [f]
    while True:
        a = _trim([rng.randrange(p) for _ in range(len(f) - 1)])
        g = _gcd(f, _sub(_powmod(a, (p**d - 1) // 2, f, p), [1], p), p)
        if 1 < len(g) < len(f):
            return _equal_degree(g, d, p, rng) + _equal_degree(_divmod(f, g, p)[0], d, p, rng)


def _hensel(f: list[int], us: list[list[int]], p: int, big: int) -> list[list[int]]:
    """Lift the monic factors us of f mod p to monic factors mod big = p^(2^j).

    f's leading coefficient is a unit mod p.  The factors split in two
    halves; each pair is lifted quadratically, so the modulus squares at each
    step (von zur Gathen & Gerhard, Modern Computer Algebra, alg. 15.10),
    and then each half is split the same way.
    """
    if len(us) == 1:
        return [_monic([c % big for c in f], big)]
    half = len(us) // 2
    g, h = [f[-1] % p], [1]
    for u in us[:half]:
        g = _mul(g, u, p)
    for u in us[half:]:
        h = _mul(h, u, p)
    s, t = _bezout(g, h, p)
    m = p
    while m < big:
        m *= m
        e = _sub(f, _mul(g, h, m), m)
        q, r = _divmod(_mul(s, e, m), h, m)
        g = _add(g, _add(_mul(t, e, m), _mul(q, g, m), m), m)
        h = _add(h, r, m)
        b = _sub(_add(_mul(s, g, m), _mul(t, h, m), m), [1], m)
        c, d = _divmod(_mul(s, b, m), h, m)
        s = _sub(s, d, m)
        t = _sub(t, _add(_mul(t, b, m), _mul(c, g, m), m), m)
    return _hensel(g, us[:half], p, big) + _hensel(h, us[half:], p, big)


def _lifted_product(lead: int, us: list[list[int]], big: int) -> list[int]:
    """lead * product(us) mod big, as symmetric residues."""
    out = [lead]
    for u in us:
        out = _mul(out, u, big)
    return [c - big if 2 * c > big else c for c in out]


def _recombine(f: list[int], us: list[list[int]], big: int) -> list[list[int]]:
    """The irreducible factors over Z of the primitive f, from its monic
    factors us mod big, where big is more than twice any coefficient of
    lc(f) times a monic factor over Q of f.

    Subsets of us are tried in increasing size; one is a factor iff the
    symmetric residues of lc * product(subset) and lc * product(rest)
    multiply to lc * f exactly over Z.
    """
    out, left, size = [], list(range(len(us))), 1
    while 2 * size <= len(left):
        for subset in combinations(left, size):
            g = _lifted_product(f[-1], [us[i] for i in subset], big)
            if not g[0] or (f[-1] * f[0]) % g[0]:
                continue
            h = _lifted_product(f[-1], [us[i] for i in left if i not in subset], big)
            if _mul(g, h) == [f[-1] * c for c in f]:
                left = [i for i in left if i not in subset]
                out.append(primitive(g))
                f = primitive(h)
                break
        else:
            size += 1
    return out + [f]


_PRIMES_TRIED = 5  # good primes whose modular factor counts are compared


def _zassenhaus(f: list[int]) -> list[list[int]]:
    """Irreducible factors over Z of a primitive squarefree f with f(0) != 0.

    Factors f mod the odd prime p (p not dividing lc(f), f squarefree mod
    p) with the fewest modular factors among the first few such primes,
    Hensel-lifts the factors past twice Mignotte's coefficient bound, and
    recombines them (Zassenhaus, J. Number Theory 1, 1969).
    """
    lead = f[-1]
    best: tuple | None = None
    p, tried = 3, 0
    while tried < _PRIMES_TRIED:
        if lead % p and is_prime(p):
            fp = _monic([c % p for c in f], p)
            if len(_gcd(fp, _trim([c % p for c in _derivative(fp)]), p)) == 1:
                tried += 1
                ddf = _distinct_degree(fp, p)
                count = sum((len(g) - 1) // d for g, d in ddf)
                if count == 1:
                    return [f]
                if best is None or count < best[0]:
                    best = (count, p, ddf)
        p += 2
    _, p, ddf = best
    rng = random.Random(0)
    us = [u for g, d in ddf for u in _equal_degree(g, d, p, rng)]
    bound = 2 * abs(lead) * 2 ** (len(f) - 1) * (isqrt(sum(c * c for c in f)) + 1)
    big = p
    while big <= bound:
        big *= big
    return _recombine(f, _hensel(f, us, p, big), big)


def factor_order_key(p: Polynomial) -> tuple:
    """Canonical factor order: degree, then ascending roots for linear
    factors (negated-coefficient tuple comparison in general)."""
    return (p.degree, tuple(-c for c in p.coeffs))


def factor_over_q(p: Polynomial) -> list[tuple[Polynomial, int]]:
    """Factor a nonzero rational polynomial into monic irreducibles over Q.

    Returns (factor, multiplicity) pairs in canonical factor order; the
    product of factor^multiplicity equals p up to its leading coefficient.
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    found: dict[Polynomial, int] = {}
    for sqf, mult in _yun(primitive(p.ints)):
        for irr in _factor_squarefree(sqf):
            found[irr] = found.get(irr, 0) + mult
    return sorted(found.items(), key=lambda fm: factor_order_key(fm[0]))


def _factor_squarefree(f: list[int]) -> list[Polynomial]:
    """Irreducible monic factors of a primitive squarefree f in Z[X]."""
    if f[0] == 0:  # X divides f once
        return [X] + (_factor_squarefree(f[1:]) if len(f) > 2 else [])
    return [Polynomial._from_ints(g).monic() for g in _zassenhaus(f)]
