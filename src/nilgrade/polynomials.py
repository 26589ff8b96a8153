"""Univariate polynomials over the rationals, with exact factorization.

Coefficients are `fractions.Fraction`, stored ascending by degree.  The
factorization routine is deterministic: squarefree (Yun) decomposition,
rational-root extraction, then a degree-bounded evaluate/interpolate
search (Kronecker) for the remaining factors.  Intended for the small
degrees this library meets in practice (characteristic polynomials of
desk-scale matrices); complete for any degree, comfortable up to ~12.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd, lcm
from typing import Iterable, Sequence

from .intutil import divisors


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


class Polynomial:
    """Immutable rational polynomial; `coeffs[k]` multiplies X^k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    # -- basic structure ------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return not self.is_zero() and self.leading() == 1

    def monic(self) -> "Polynomial":
        lc = self.leading()
        return Polynomial(c / lc for c in self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({self:s})"

    def __format__(self, spec: str) -> str:
        return str(self)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
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

    # -- arithmetic -----------------------------------------------------

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self.coeffs)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial(c * other for c in self.coeffs)
        if self.is_zero() or other.is_zero():
            return ZERO
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        lc = other.leading()
        if self.degree < d:
            return ZERO, self
        quo = [Fraction(0)] * (self.degree - d + 1)
        for k in range(self.degree - d, -1, -1):
            q = rem[k + d] / lc
            quo[k] = q
            if q != 0:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= q * b
        return Polynomial(quo), Polynomial(rem)

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def divides(self, other: "Polynomial") -> bool:
        return (other % self).is_zero()

    def derivative(self) -> "Polynomial":
        return Polynomial(k * c for k, c in enumerate(self.coeffs) if k > 0)

    def __call__(self, x: Fraction | int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def reciprocal(self) -> "Polynomial":
        """Coefficient reversal X^deg * p(1/X)."""
        return Polynomial(reversed(self.coeffs))


ZERO = Polynomial([])
ONE = Polynomial([1])
X = Polynomial([0, 1])


def from_roots(roots: Sequence) -> Polynomial:
    p = ONE
    for r in roots:
        p = p * Polynomial([-_frac(r), 1])
    return p


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd; gcd(0, 0) = 0."""
    while not b.is_zero():
        a, b = b, a % b
    return a if a.is_zero() else a.monic()


def poly_xgcd(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial, Polynomial]:
    """(g, u, v) with u*a + v*b = g, g the monic gcd."""
    r0, r1 = a, b
    u0, u1 = ONE, ZERO
    v0, v1 = ZERO, ONE
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if r0.is_zero():
        return ZERO, ZERO, ZERO
    lc = r0.leading()
    inv = Fraction(1) / lc
    return r0.monic(), u0 * inv, v0 * inv


def squarefree_part(p: Polynomial) -> Polynomial:
    """p / gcd(p, p'), made monic: the radical of p."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    g = poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p.monic()
    return (p // g).monic()


def squarefree_decomposition(p: Polynomial) -> list[tuple[Polynomial, int]]:
    """Yun decomposition: p = lc * prod s_i^i with the s_i squarefree, coprime."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    p = p.monic()
    if p.degree == 0:
        return []
    dp = p.derivative()
    g = poly_gcd(p, dp)
    out: list[tuple[Polynomial, int]] = []
    if g.degree == 0:
        return [(p, 1)]
    c = p // g
    d = dp // g - c.derivative()
    i = 1
    while c.degree > 0:
        a = poly_gcd(c, d)
        if a.degree > 0:
            out.append((a, i))
        c = c // a if a.degree > 0 else c
        d = (d // a if a.degree > 0 else d) - c.derivative()
        i += 1
    return out


# -- factorization over Q ----------------------------------------------


def _integer_primitive(p: Polynomial) -> list[int]:
    """Scale a nonzero rational polynomial to a primitive integer one."""
    den = lcm(*(c.denominator for c in p.coeffs))
    ints = [int(c * den) for c in p.coeffs]
    g = int_gcd(*ints)
    return [c // g for c in ints]


def _rational_roots(ints: list[int]) -> list[Fraction]:
    """All rational roots of a primitive integer polynomial (no multiplicity)."""
    lead = abs(ints[-1])
    # strip a root at zero
    roots = []
    if ints[0] == 0:
        roots.append(Fraction(0))
        while ints[0] == 0:
            ints = ints[1:]
    if len(ints) <= 1:
        return roots
    const = abs(ints[0])
    p = Polynomial(ints)
    seen = set()
    for num in divisors(const):
        for den in divisors(lead):
            if int_gcd(num, den) != 1:
                continue
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if cand in seen:
                    continue
                seen.add(cand)
                if p(cand) == 0:
                    roots.append(cand)
    return roots


def _interpolate(points: list[tuple[int, int]]) -> Polynomial:
    """Lagrange interpolation through integer points, exact."""
    acc = ZERO
    for i, (xi, yi) in enumerate(points):
        term = Polynomial([yi])
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            term = term * Polynomial([Fraction(-xj, xi - xj), Fraction(1, xi - xj)])
        acc = acc + term
    return acc


def _kronecker_factor(h: Polynomial, max_deg: int) -> Polynomial | None:
    """Search a nontrivial factor of degree 2..max_deg by interpolation.

    h must be a primitive integer polynomial without rational roots.
    Returns the first factor found scanning degrees upward (hence
    irreducible), or None.
    """
    points: list[int] = []
    x = 0
    while len(points) < max_deg + 1:
        points.append(x)
        x = -x if x > 0 else -x + 1
    values = [int(h(pt)) for pt in points]
    assert all(values), "integer root survived root extraction"
    divisor_lists = [divisors(v) for v in values]
    for e in range(2, max_deg + 1):
        xs = points[: e + 1]
        choice_lists = []
        for idx in range(e + 1):
            ds = divisor_lists[idx]
            # sign of the first value can be fixed: g and -g divide together
            choice_lists.append(ds if idx == 0 else [d for s in (1, -1) for d in (s * x0 for x0 in ds)])
        g = _kronecker_scan(h, xs, choice_lists, e)
        if g is not None:
            return g
    return None


def _kronecker_scan(h, xs, choice_lists, e) -> Polynomial | None:
    stack = [()]
    while stack:
        prefix = stack.pop()
        idx = len(prefix)
        if idx <= e:
            for d in choice_lists[idx]:
                stack.append(prefix + (d,))
            continue
        g = _interpolate(list(zip(xs, prefix)))
        if g.degree != e:
            continue
        if any(c.denominator != 1 for c in g.coeffs):
            continue
        if g.divides(h):
            return g
    return None


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
    for sqf, mult in squarefree_decomposition(p):
        for irr in _factor_squarefree(sqf):
            found[irr] = found.get(irr, 0) + mult
    return sorted(found.items(), key=lambda fm: factor_order_key(fm[0]))


def _factor_squarefree(s: Polynomial) -> list[Polynomial]:
    """Irreducible monic factors of a squarefree rational polynomial."""
    out: list[Polynomial] = []
    ints = _integer_primitive(s)
    work = Polynomial(ints)
    for r in _rational_roots(ints):
        out.append(Polynomial([-r, 1]))
        work = work // Polynomial([-r, 1])
    while work.degree > 0:
        if work.degree <= 3:
            # no rational roots left: degree 2 or 3 means irreducible
            out.append(work.monic())
            break
        prim = Polynomial(_integer_primitive(work))
        g = _kronecker_factor(prim, prim.degree // 2)
        if g is None:
            out.append(work.monic())
            break
        out.append(g.monic())
        work = work // g
    return out
