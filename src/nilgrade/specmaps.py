"""Spectral criteria on automorphisms, all decided in exact arithmetic.

- expansion (every eigenvalue strictly outside the unit circle) via a
  Schur-Cohn chain on the reciprocal characteristic polynomial;
- characteristic polynomials in Z[X] (with |det| > 1: a self-cover witness);
- the semisimple part over Q by Newton iteration (Jordan-Chevalley), and
  semisimplicity as g(M) = 0 for g the radical of the characteristic
  polynomial;
- norm profiles: each primary component of a map is tagged with
  |p_i(0)|^(lcm/deg), a fixed positive power of the absolute field norm of
  its eigenvalues.  A map and its semisimple part have the same primary
  components, so the profile is taken on the map itself.  Equal-norm
  classes assemble into the positive / non-negative gradings promised by
  the expansion and self-cover criteria (`grading_from_profile`, which
  takes the profile already computed).

The splitting field itself is never constructed: a common positive power
of the norms preserves equality classes, ordering, the >1 predicate and
all multiplicative relations, which is everything the gradings need.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, lcm, log2

import numpy as np

from . import matrices as mx
from .grading import Grading, classify, preserved_by, weight_equations
from .liealg import LieAlgebra, is_automorphism
from .linineq import solve
from .polynomials import Polynomial, factor_order_key, poly_xgcd, squarefree_part


def schur_all_inside(p: Polynomial) -> bool:
    """All complex roots strictly inside the unit circle, exactly.

    One Schur-Cohn step: with a0, am the outer coefficients, the roots of
    p lie strictly inside iff am^2 - a0^2 > 0 and the reduced polynomial
    (am*p - a0*reverse(p))/z does too.  A non-positive gap anywhere means
    a root on or outside the circle (so strict stability fails), which is
    exactly what the caller wants to know.  Each reduced polynomial is made
    monic: its leading coefficient am^2 - a0^2 is positive, so scaling
    keeps every later sign, and the coefficients stay small.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    f = p
    for _ in range(p.degree):
        a0, am = f.coeffs[0], f.coeffs[-1]
        if am * am - a0 * a0 <= 0:
            return False
        g = am * f - a0 * f.reciprocal()
        assert g.coeffs[0] == 0 or g.is_zero()
        f = Polynomial(g.coeffs[1:]).monic()
    return True


def is_expanding(m: np.ndarray) -> bool:
    """Every eigenvalue of absolute value > 1 (unit-circle roots: False)."""
    p = mx.charpoly(m)
    if p.coeffs[0] == 0:
        raise ValueError("singular matrix cannot be expanding")
    return schur_all_inside(p.reciprocal())


def is_z_charpoly(m: np.ndarray) -> bool:
    return all(c.denominator == 1 for c in mx.charpoly(m).coeffs)


def semisimple_part(m: np.ndarray) -> np.ndarray:
    """Jordan-Chevalley semisimple part over Q (a polynomial in M).

    Newton iteration against the squarefree part g of the characteristic
    polynomial: S <- S - g(S) * u(S) with u an inverse of g' modulo g;
    quadratic convergence gives g(S) = 0 after ceil(log2 n) steps.
    """
    n = m.shape[0]
    g = squarefree_part(mx.charpoly(m))
    gd = g.derivative()
    _, u, _ = poly_xgcd(gd, g)
    s = m
    for _ in range(max(1, ceil(log2(max(2, n)))) + 2):
        gs = mx.eval_poly(g, s)
        if mx.is_zero_mat(gs):
            return s
        s = s - mx.matmul(gs, mx.eval_poly(u, s))
    raise RuntimeError("Newton iteration failed to converge")


def is_semisimple(m: np.ndarray) -> bool:
    """g(M) = 0 for g the squarefree part of the characteristic polynomial.

    The minimal polynomial is squarefree iff it divides g, the radical of
    the characteristic polynomial.
    """
    g = squarefree_part(mx.charpoly(m))
    return mx.is_zero_mat(mx.eval_poly(g, m))


# -- norm profiles ------------------------------------------------------------


@dataclass(frozen=True)
class NormProfileEntry:
    factor: Polynomial
    degree: int
    subspace: np.ndarray
    value: Fraction


@dataclass(frozen=True)
class NormProfile:
    entries: tuple[NormProfileEntry, ...]
    lcm_degree: int

    def flattened_values(self) -> list[Fraction]:
        out = []
        for e in self.entries:
            out.extend([e.value] * e.subspace.shape[1])
        return out


def norm_profile(m: np.ndarray) -> NormProfile:
    """Primary components tagged with a fixed positive power of the norm.

    The value on the component of the irreducible factor p_i is
    |p_i(0)|^(lcm(degrees)/deg p_i).  M and its semisimple part S have the
    same characteristic polynomial and ker p(M)^e = ker p(S)^e for each
    primary factor p^e, so the profile of M is the profile of S: the same
    canonical component bases, values and order.
    """
    primary = mx.primary_decomposition(m)
    mhat = lcm(*[p.degree for p, _ in primary])
    entries = []
    for p, sub in primary:
        value = abs(p.coeffs[0]) ** (mhat // p.degree)
        entries.append(NormProfileEntry(p, p.degree, sub, value))
    entries.sort(key=lambda e: (e.value, factor_order_key(e.factor)))
    return NormProfile(tuple(entries), mhat)


def _norm_classes(profile: NormProfile) -> list[tuple[Fraction, np.ndarray]]:
    """Merge profile entries of equal value, ascending by value."""
    classes: dict[Fraction, list[np.ndarray]] = {}
    for e in profile.entries:
        classes.setdefault(e.value, []).append(e.subspace)
    return [
        (v, mx.col_basis(mx.hstack(subs))) for v, subs in sorted(classes.items())
    ]


def _grading_from_classes(
    algebra: LieAlgebra,
    classes: list[tuple[Fraction, np.ndarray]],
    zero_for_value_one: bool,
) -> Grading:
    """Integer weights for multiplicative norm classes, canonicalized.

    The weight equations are posed on the algebra re-based on the stacked
    classes, one variable per class: w_a + w_b = w_{a*b} whenever
    [V_a, V_b] != 0.  Each nonzero structure constant there must land in
    the class of the product value (multiplicativity of the norm on
    brackets).  Weights strictly increase with the value, value-1 classes
    pin to 0 when requested, everything else is >= 1.  Feasible by
    construction (log of the values solves it over R and the system is
    rational); infeasibility would be an internal invariant violation.
    """
    values = [v for v, _ in classes]
    nvars = len(values)
    var = [a for a, (_, s) in enumerate(classes) for _ in range(s.shape[1])]
    rebased = algebra.in_basis(mx.hstack([s for _, s in classes]))
    for (x, y), terms in rebased.terms.items():
        if any(values[var[z]] != values[var[x]] * values[var[y]] for z in terms):
            raise RuntimeError("norm multiplicativity violated on brackets")
    pinned = [zero_for_value_one and v == 1 for v in values]
    eqs = weight_equations(rebased, var) + [{a: 1} for a in range(nvars) if pinned[a]]
    # strictly order-preserving renaming keeps distinct classes apart
    ineqs = [({a: 1, a - 1: -1}, 1) for a in range(1, nvars)]
    w = solve(eqs, ineqs, [0 if p else 1 for p in pinned])
    if w is None:
        raise RuntimeError("integer re-weighting infeasible; invariant violation")
    return Grading(tuple((w[a], classes[a][1]) for a in range(nvars)))


def grading_from_profile(
    algebra: LieAlgebra, m: np.ndarray, profile: NormProfile, positive: bool
) -> Grading:
    """The grading preserved by the automorphism m, read off its norm
    profile.  The caller has checked that m is an automorphism of the
    algebra.

    positive: m is expanding, so every norm value exceeds 1 and the
    grading is positive.  Otherwise m is a self-cover witness: value-1
    classes get weight 0 and the grading is non-negative and non-trivial
    (positive when no class has value 1).
    """
    classes = _norm_classes(profile)
    if positive and any(v <= 1 for v, _ in classes):
        raise RuntimeError("expanding map produced a norm value <= 1")
    g = _grading_from_classes(algebra, classes, zero_for_value_one=not positive)
    allowed = {"positive"} if positive else {"positive", "nonnegative-nontrivial"}
    label = classify(algebra, g)
    if label not in allowed:
        raise RuntimeError(f"extracted grading is {label}, not {' or '.join(sorted(allowed))}")
    if not preserved_by(g, m):
        raise RuntimeError("extracted grading is not preserved by the input map")
    return g


def expanding_to_positive_grading(algebra: LieAlgebra, m: np.ndarray) -> Grading:
    """Positive grading preserved by the expanding automorphism m."""
    if not is_expanding(m):
        raise ValueError("map is not expanding")
    if not is_automorphism(algebra, m):
        raise ValueError("matrix is not an automorphism of the algebra")
    return grading_from_profile(algebra, m, norm_profile(m), positive=True)


def selfcover_to_nonneg_grading(algebra: LieAlgebra, m: np.ndarray) -> Grading:
    """Non-negative, non-trivial grading preserved by m.

    Requires characteristic polynomial in Z[X] and |det| > 1.
    """
    if not is_automorphism(algebra, m):
        raise ValueError("matrix is not an automorphism of the algebra")
    if not is_z_charpoly(m):
        raise ValueError("characteristic polynomial is not in Z[X]")
    if abs(mx.det(m)) <= 1:
        raise ValueError("|det| > 1 required")
    return grading_from_profile(algebra, m, norm_profile(m), positive=False)
