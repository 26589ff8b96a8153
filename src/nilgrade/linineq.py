"""Exact linear (in)equality solving over Q, and canonical integer points.

`solve` is the one solver for nilgrade's weight systems.  Equations are
sparse rows {variable: coefficient} meaning sum(c * x) = 0, so they are
homogeneous by type; inequalities are (row, rhs) pairs meaning
sum(c * x) >= rhs.  Coefficients are ints or Fractions.  The equations
are eliminated once, by `matrices.gauss_jordan` on reversed variable
indices: pivots then fall on the highest-index variables, so every
dependent variable is a linear function of lower-index free ones.
Rational feasibility of what is left is decided by Fourier-Motzkin
elimination with Fractions; the systems here are tiny (one free variable
per independent weight), so the classical doubly-exponential worst case
never bites.  The canonical integer point is then found by shell
enumeration: smallest possible maximum coordinate first,
lexicographically smallest within that shell, branching on free
variables only and computing the dependent ones.  The enumeration needs
no upper bound on the coordinates: a feasible system of the supported
shape has a rational point, and that point times its common denominator
is an integer point in some finite shell.  Canonical output makes the
solver reproducible across implementations.
"""

from __future__ import annotations

from fractions import Fraction

from . import matrices as mx

Row = dict[int, int | Fraction]
Inequality = tuple[Row, int | Fraction]
# a dense inequality over all variables, as Fourier-Motzkin works on it
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


def _dependents(eqs: list[Row], nvars: int) -> Dependents:
    """Solve the equations for their highest-index variables."""
    red, pivots = mx.gauss_jordan({nvars - 1 - v: c for v, c in row.items()} for row in eqs)
    out: Dependents = {}
    for row, pc in zip(red, pivots):
        terms = [(nvars - 1 - c, -a) for c, a in row.items() if c != pc]
        coeffs, d = mx.cleared(mx.rvec([a for _, a in terms]))
        out[nvars - 1 - pc] = (d, [(f, c) for (f, _), c in zip(terms, coeffs.tolist())])
    return out


def _substituted(row: Row, rhs, dependent: Dependents, nvars: int) -> Constraint:
    """The inequality over free variables only, dense."""
    out = [Fraction(0)] * nvars
    for v, c in row.items():
        if v in dependent:
            d, terms = dependent[v]
            for f, a in terms:
                out[f] += Fraction(c * a, d)
        else:
            out[v] += c
    return tuple(out), Fraction(rhs)


def solve(eqs: list[Row], ineqs: list[Inequality], lows: list[int]) -> tuple[int, ...] | None:
    """Canonical integer x with eqs, ineqs, x >= lows and sum(x) >= 1,
    or None when no rational (hence no integer) solution exists.

    Canonical means minimal max coordinate, then lexicographically
    smallest.  Precondition, which makes every feasible system have an
    integer point: inequality right-hand sides are >= 0 and lows are
    >= 0 (equations are homogeneous by type).
    """
    nvars = len(lows)
    if any(rhs < 0 for _, rhs in ineqs) or min(lows) < 0:
        raise ValueError("solve needs rhs >= 0 and lows >= 0")
    dependent = _dependents(eqs, nvars)
    bounds = [(dict.fromkeys(range(nvars), 1), 1)] + [({i: 1}, low) for i, low in enumerate(lows)]
    if not feasible([_substituted(row, rhs, dependent, nvars) for row, rhs in bounds + ineqs], nvars):
        return None
    return minimal_integer_point(dependent, ineqs, lows)


def minimal_integer_point(
    dependent: Dependents, ineqs: list[Inequality], lows: list[int]
) -> tuple[int, ...]:
    """Shell search behind `solve`, for a system it found feasible.

    Shells t = max(1, lows), t + 1, ... in turn; within a shell a
    depth-first search in index order branches on each free variable
    over [low, t], computes each dependent one from the free variables
    below it, and checks each inequality at its highest-index variable.
    """
    nvars = len(lows)
    checks_at: list[list[Inequality]] = [[] for _ in range(nvars)]
    for row, rhs in ineqs:
        checks_at[max((v for v, c in row.items() if c), default=0)].append((row, rhs))
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
            if all(sum(c * vals[i] for i, c in row.items()) >= rhs for row, rhs in checks_at[depth]):
                hit = rec(depth + 1, t, seen_t or v == t)
                if hit is not None:
                    return hit
        return None

    t = max(1, *lows)
    while (hit := rec(0, t, False)) is None:
        t += 1
    return hit
