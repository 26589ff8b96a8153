"""Exact linear (in)equality solving over Q, and canonical integer points.

`solve` is the one solver for nilgrade's weight systems.  It eliminates
the equations once, with `matrices.rref` on reversed columns: pivots then
fall on the highest-index variables, so every dependent variable is a
linear function of lower-index free ones.  Rational feasibility of what
is left is decided by Fourier-Motzkin elimination with Fractions; the
systems here are tiny (one free variable per independent weight), so the
classical doubly-exponential worst case never bites.  The canonical
integer point is then found by shell enumeration: smallest possible
maximum coordinate first, lexicographically smallest within that shell,
branching on free variables only and computing the dependent ones.  The
enumeration needs no upper bound on the coordinates: a feasible system of
the supported shape has a rational point, and that point times its common
denominator is an integer point in some finite shell.  Canonical output
makes the solver reproducible across implementations.

Constraints are (coefficients, rhs) pairs: ``sum(c*x) >= rhs`` for
inequalities and ``== rhs`` for equations.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import matrices as mx

Constraint = tuple[tuple[Fraction, ...], Fraction]
# dependent variable -> (denominator d, [(free variable f, integer a_f)]):
# x = sum(a_f * x_f) / d over free variables f of lower index
Dependents = dict[int, tuple[int, list[tuple[int, int]]]]


def _normalized(coeffs, rhs) -> Constraint:
    scale = next((abs(c) for c in coeffs if c != 0), None)
    if scale is None:
        return tuple(coeffs), rhs
    return tuple(c / scale for c in coeffs), rhs / scale


def feasible(ineqs: list[Constraint], nvars: int) -> bool:
    """Rational feasibility of {every ineq holds}, by Fourier-Motzkin
    elimination with row normalization/dedup."""
    rows = {_normalized(coeffs, rhs) for coeffs, rhs in ineqs}
    for j in range(nvars):
        pos, neg, rest = [], [], set()
        for coeffs, rhs in rows:
            if coeffs[j] > 0:
                pos.append((coeffs, rhs))
            elif coeffs[j] < 0:
                neg.append((coeffs, rhs))
            else:
                rest.add((coeffs, rhs))
        for cp, bp in pos:
            for cn, bn in neg:
                lam, mu = -cn[j], cp[j]
                combo = [lam * a + mu * b for a, b in zip(cp, cn)]
                rest.add(_normalized(combo, lam * bp + mu * bn))
        rows = rest
    return all(rhs <= 0 for _, rhs in rows)


def _dependents(eqs: list[Constraint], nvars: int) -> Dependents:
    """Solve homogeneous equations for their highest-index variables."""
    red, pivots = mx.rref(mx.rmat([list(reversed(coeffs)) for coeffs, _ in eqs]))
    out: Dependents = {}
    for r, pc in enumerate(pivots):
        terms = [(nvars - 1 - c, -red[r, c]) for c in range(pc + 1, nvars) if red[r, c] != 0]
        d = lcm(*(a.denominator for _, a in terms))
        out[nvars - 1 - pc] = (d, [(f, int(a * d)) for f, a in terms])
    return out


def _substituted(row: Constraint, dependent: Dependents) -> Constraint:
    """The constraint over free variables only."""
    coeffs, rhs = row
    out = list(coeffs)
    for p, (d, terms) in dependent.items():
        if out[p] != 0:
            for f, a in terms:
                out[f] += out[p] * Fraction(a, d)
            out[p] = Fraction(0)
    return tuple(out), rhs


def solve(
    eqs: list[Constraint], ineqs: list[Constraint], lows: list[int]
) -> tuple[int, ...] | None:
    """Canonical integer x with eqs, ineqs, x >= lows and sum(x) >= 1,
    or None when no rational (hence no integer) solution exists.

    Canonical means minimal max coordinate, then lexicographically
    smallest.  Precondition, which makes every feasible system have an
    integer point: equations are homogeneous, inequality right-hand
    sides are >= 0 and lows are >= 0.
    """
    nvars = len(lows)
    if any(rhs != 0 for _, rhs in eqs) or any(rhs < 0 for _, rhs in ineqs) or min(lows) < 0:
        raise ValueError("solve needs homogeneous equations, rhs >= 0 and lows >= 0")
    dependent = _dependents(eqs, nvars)
    bounds = [((Fraction(1),) * nvars, Fraction(1))]
    for i, low in enumerate(lows):
        coeffs = [Fraction(0)] * nvars
        coeffs[i] = Fraction(1)
        bounds.append((tuple(coeffs), Fraction(low)))
    if not feasible([_substituted(row, dependent) for row in bounds + ineqs], nvars):
        return None
    return minimal_integer_point(dependent, ineqs, lows)


def minimal_integer_point(
    dependent: Dependents, ineqs: list[Constraint], lows: list[int]
) -> tuple[int, ...]:
    """Shell search behind `solve`, for a system it found feasible.

    Shells t = max(1, lows), t + 1, ... in turn; within a shell a
    depth-first search in index order branches on each free variable
    over [low, t], computes each dependent one from the free variables
    below it, and checks each inequality at its highest-index variable.
    """
    nvars = len(lows)
    checks_at: list[list[Constraint]] = [[] for _ in range(nvars)]
    for coeffs, rhs in ineqs:
        top = max((i for i, c in enumerate(coeffs) if c != 0), default=0)
        checks_at[top].append((coeffs, rhs))
    vals = [0] * nvars

    def rec(depth: int, t: int, seen_t: bool) -> tuple[int, ...] | None:
        if depth == nvars:
            return tuple(vals) if seen_t else None
        low = lows[depth]
        if depth in dependent:
            d, terms = dependent[depth]
            num = sum(a * vals[f] for f, a in terms)
            v = num // d
            values = (v,) if num % d == 0 and low <= v <= t else ()
        else:
            values = range(low, t + 1)
        for v in values:
            vals[depth] = v
            if all(
                sum(c * x for c, x in zip(coeffs, vals) if c != 0) >= rhs
                for coeffs, rhs in checks_at[depth]
            ):
                hit = rec(depth + 1, t, seen_t or v == t)
                if hit is not None:
                    return hit
        return None

    t = max(1, *lows)
    while (hit := rec(0, t, False)) is None:
        t += 1
    return hit
