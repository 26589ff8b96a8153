"""Exact linear (in)equality solving over Q, and canonical integer points.

`solve` is the one solver for nilgrade's weight systems.  Equations are
sparse rows {variable: coefficient} meaning sum(c * x) = 0, so they are
homogeneous by type; inequalities are (row, rhs) pairs meaning
sum(c * x) >= rhs.  Coefficients and right-hand sides are ints: a
rational system is posed by its int multiples.  The equations are
eliminated once, by `matrices.echelon` on reversed variable indices:
pivots then fall on the highest-index variables, so every
dependent variable is a linear function of lower-index free ones, and
each inequality, with them substituted, is scaled to one int row.
Rational feasibility of what is left is decided by Fourier-Motzkin
elimination on int rows, each divided by its content with its sign
kept, so that positive multiples of one row meet as one row.  Its
doubly-exponential blow-up hits infeasible systems with mixed-sign rows
(12 random infeasible rows over 4 variables take seconds); the weight
systems posed today are not of that shape.  The canonical integer
point is then found by shell enumeration: smallest possible maximum
coordinate first, lexicographically smallest within that shell,
branching on free variables only and computing the dependent ones.  The enumeration needs
no upper bound on the coordinates: a feasible system of the supported
shape has a rational point, and that point times its common denominator
is an integer point in some finite shell.  Canonical output makes the
solver reproducible across implementations.
"""

from __future__ import annotations

from math import lcm

from . import matrices as mx
from .intutil import primitive

Row = dict[int, int]
Inequality = tuple[Row, int]
# a dense inequality over all variables, as `feasible` takes it
Constraint = tuple[tuple[int, ...], int]
# dependent variable -> (denominator d, [(free variable f, integer a_f)]):
# x = sum(a_f * x_f) / d over free variables f of lower index
Dependents = dict[int, tuple[int, list[tuple[int, int]]]]


def feasible(ineqs: list[Constraint], nvars: int) -> bool:
    """Rational feasibility of {every ineq holds}, by Fourier-Motzkin
    elimination.  Each inequality is one int row (coefficients, then the
    rhs), kept primitive (`intutil.primitive`, sign kept: the one
    representative of its positive multiples), so duplicates drop out of
    the row sets."""
    rows = {tuple(primitive([*coeffs, rhs])) for coeffs, rhs in ineqs}
    for j in range(nvars):
        pos, neg, rest = [], [], set()
        for row in rows:
            if row[j] > 0:
                pos.append(row)
            elif row[j] < 0:
                neg.append(row)
            else:
                rest.add(row)
        for rp in pos:
            for rn in neg:
                lam, mu = -rn[j], rp[j]
                rest.add(tuple(primitive(lam * a + mu * b for a, b in zip(rp, rn))))
        rows = rest
    return all(row[-1] <= 0 for row in rows)


def _dependents(eqs: list[Row], nvars: int) -> Dependents:
    """Solve the equations for their highest-index variables.

    A primitive echelon row R with pivot p says x_p = sum -R[f] x_f / R[p],
    and as R has content 1 its lead R[p] is already the least denominator.
    """
    out: Dependents = {}
    for row in mx.echelon({nvars - 1 - v: c for v, c in row.items()} for row in eqs):
        pc = min(row)
        out[nvars - 1 - pc] = (row[pc], [(nvars - 1 - c, -a) for c, a in row.items() if c != pc])
    return out


def _substituted(row: Row, rhs, dependent: Dependents, nvars: int) -> Constraint:
    """The inequality over free variables only, as one dense int row.

    A coefficient c on x_v = sum(a_f x_f) / d (d = 1 and a_v = 1 for a
    free v) adds c a_f L / d to x_f, for L the lcm of every such d: the
    inequality scaled by L > 0.
    """
    parts = [(c, *dependent.get(v, (1, ((v, 1),)))) for v, c in row.items()]
    scale = lcm(*(d for _, d, _ in parts))
    out = [0] * nvars
    for c, d, terms in parts:
        s = c * (scale // d)
        for f, a in terms:
            out[f] += s * a
    return tuple(out), rhs * scale


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
