"""Spectral criteria on automorphisms, all decided in exact arithmetic.

- expansion (every eigenvalue strictly outside the unit circle) via a
  Schur-Cohn chain on the reciprocal characteristic polynomial;
- condition 3 of the expansion and self-cover criteria as one predicate
  on a characteristic polynomial and determinant already computed
  (`map_problems`): expanding, or, with `positive` off, in Z[X] with
  |det| > 1;
- the semisimple part over Q by Newton iteration (Jordan-Chevalley), run
  until it is exact, each step through one matrix inverse;
- norm profiles: each primary component of a map is tagged with
  |p_i(0)|^(lcm/deg), a fixed positive power of the absolute field norm of
  its eigenvalues.  A map and its semisimple part have the same primary
  components, so the profile is taken on the map itself, and it gives
  back the characteristic polynomial and its squarefree part without a
  second `charpoly` (`NormProfile.charpoly`, `.radical`).  Equal-norm
  classes assemble into the positive / non-negative gradings promised by
  the expansion and self-cover criteria (`grading_from_profile`, which
  takes the profile already computed).

The norm path runs in ints up to its output: the factors come from Yun
in Z[X] and Zassenhaus, each component is the kernel of an int multiple
of p_i(M)^e_i (`matrices.primary_decomposition`), the algebra re-based
on the classes is built once, from its int table (`LieAlgebra.in_basis`),
and both the weights and the homogeneity guard read it, and the
grading's preservation is a block-diagonal test on the map in the
grading's basis (`grading.preserved_by`), which reads the inverse that
re-based the algebra: the class basis is inverted once.

The splitting field itself is never constructed: a common positive power
of the norms preserves equality classes, ordering, the >1 predicate and
all multiplicative relations, which is everything the gradings need.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod

from . import matrices as mx
from .grading import Grading, meets_criterion, preserved_by, weight_equations, weights_label
from .intutil import primitive
from .liealg import LieAlgebra, is_automorphism
from .linineq import solve
from .matrices import QMat
from .polynomials import Polynomial, factor_order_key, squarefree_part


def schur_all_inside(p: Polynomial) -> bool:
    """All complex roots strictly inside the unit circle, exactly.

    One Schur-Cohn step: with a0, am the outer coefficients of f, its roots
    lie strictly inside iff am^2 - a0^2 > 0 and the reduced polynomial
    (am*f - a0*reverse(f))/z does too; a non-positive gap anywhere means
    a root on or outside the circle.  The chain runs on one int
    coefficient list, p's `ints`, and each reduced polynomial, whose
    leading coefficient am^2 - a0^2 is positive, is divided by its
    content, which keeps every later sign and the coefficients small.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    f = p.ints
    while len(f) > 1:
        a0, am = f[0], f[-1]
        if am * am - a0 * a0 <= 0:
            return False
        f = primitive(am * x - a0 * y for x, y in zip(f[1:], f[-2::-1]))  # am f_k - a0 f_(m-k), k = 1..m
    return True


def is_expanding(m: QMat) -> bool:
    """Every eigenvalue of absolute value > 1 (unit-circle roots: False)."""
    p = mx.charpoly(m)
    if p.ints[0] == 0:
        raise ValueError("singular matrix cannot be expanding")
    return schur_all_inside(p.reciprocal())


def map_problems(chi: Polynomial, det, positive: bool) -> list[str]:
    """Why an automorphism with characteristic polynomial chi and
    determinant det != 0 fails condition 3 of the expansion (positive)
    or self-cover criterion; empty when it meets it.

    Expansion: every eigenvalue outside the unit circle, that is, every
    root of the reciprocal of chi inside it.  Self-cover: chi in Z[X]
    and |det| > 1.
    """
    if positive:
        return [] if schur_all_inside(chi.reciprocal()) else ["certificate map is not expanding"]
    problems = []
    if chi.den != 1:
        problems.append("characteristic polynomial is not in Z[X]")
    if abs(det) <= 1:
        problems.append("|det| is not > 1")
    return problems


def semisimple_part(m: QMat) -> QMat:
    """Jordan-Chevalley semisimple part over Q (a polynomial in M).

    Newton iteration against the squarefree part g of the characteristic
    polynomial: S <- S - g(S) g'(S)^-1, run until g(S) = 0.  Each S is M
    plus a nilpotent polynomial in M, so its eigenvalues are those of M,
    simple roots of g, and g'(S) is invertible.  With S the semisimple
    part and N = M - S, the error S_k - S lies in N^(2^k) Q[M], so it
    vanishes after at most ceil(log2 n) steps.
    """
    g = squarefree_part(mx.charpoly(m))
    dg = g.derivative()
    s = m
    while not mx.is_zero_mat(gs := mx.eval_poly(g, s)):
        s = s - mx.matmul(gs, mx.inverse(mx.eval_poly(dg, s)))
    return s


# -- norm profiles ------------------------------------------------------------


@dataclass(frozen=True)
class NormProfileEntry:
    factor: Polynomial
    degree: int
    subspace: QMat
    value: Fraction


@dataclass(frozen=True)
class NormProfile:
    entries: tuple[NormProfileEntry, ...]
    lcm_degree: int

    @property
    def charpoly(self) -> Polynomial:
        """The characteristic polynomial, prod p_i^(dim V_i / deg p_i)."""
        return prod(e.factor for e in self.entries for _ in range(e.subspace.shape[1] // e.degree))

    @property
    def radical(self) -> Polynomial:
        """The squarefree part of the characteristic polynomial, prod p_i."""
        return prod(e.factor for e in self.entries)

    def flattened_values(self) -> list[Fraction]:
        out = []
        for e in self.entries:
            out.extend([e.value] * e.subspace.shape[1])
        return out


def norm_profile(m: QMat) -> NormProfile:
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
        value = Fraction(abs(p.ints[0]), p.den) ** (mhat // p.degree)
        entries.append(NormProfileEntry(p, p.degree, sub, value))
    entries.sort(key=lambda e: (e.value, factor_order_key(e.factor)))
    return NormProfile(tuple(entries), mhat)


def _norm_classes(profile: NormProfile) -> list[tuple[Fraction, QMat]]:
    """Merge profile entries of equal value, ascending by value."""
    classes: dict[Fraction, list[QMat]] = {}
    for e in profile.entries:
        classes.setdefault(e.value, []).append(e.subspace)
    return [
        (v, mx.col_basis(mx.hstack(subs))) for v, subs in sorted(classes.items())
    ]


def _grading_from_classes(
    algebra: LieAlgebra, classes: list[tuple[Fraction, QMat]]
) -> tuple[Grading, LieAlgebra]:
    """Integer weights for multiplicative norm classes, canonicalized, and
    the algebra re-based on the stacked classes, which is the grading's
    basis (weights increase with the value, so the order is kept).  The
    grading is handed that basis and its one inverse, so
    `preserved_by` does not invert it again.

    The weight equations are posed on the algebra re-based on the stacked
    classes, one variable per class: w_a + w_b = w_{a*b} whenever
    [V_a, V_b] != 0.  Each nonzero structure constant there must land in
    the class of the product value (multiplicativity of the norm on
    brackets).  Weights strictly increase with the value, a value-1 class
    (which only a self-cover witness has) pins to 0, everything else is
    >= 1.  Feasible by construction (log of the values solves it over R
    and the system is rational); infeasibility would be an internal
    invariant violation.
    """
    values = [v for v, _ in classes]
    nvars = len(values)
    var = [a for a, (_, s) in enumerate(classes) for _ in range(s.shape[1])]
    basis = mx.hstack([s for _, s in classes])
    inverse = mx.inverse(basis)
    rebased = algebra.in_basis(basis, inverse)
    for (x, y), terms in rebased.upper.items():
        if any(values[var[z]] != values[var[x]] * values[var[y]] for z in terms):
            raise RuntimeError("norm multiplicativity violated on brackets")
    pinned = [v == 1 for v in values]
    eqs = weight_equations(rebased, var) + [{a: 1} for a in range(nvars) if pinned[a]]
    # strictly order-preserving renaming keeps distinct classes apart
    ineqs = [({a: 1, a - 1: -1}, 1) for a in range(1, nvars)]
    w = solve(eqs, ineqs, [0 if p else 1 for p in pinned])
    if w is None:
        raise RuntimeError("integer re-weighting infeasible; invariant violation")
    grading = Grading(tuple((w[a], classes[a][1]) for a in range(nvars)))
    vars(grading).update(basis=basis, inverse=inverse)  # its cached properties
    return grading, rebased


def grading_from_profile(
    algebra: LieAlgebra, m: QMat, profile: NormProfile, positive: bool
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
    g, rebased = _grading_from_classes(algebra, classes)
    if g.first_inhomogeneous(rebased) is not None:
        raise RuntimeError("extracted grading is not homogeneous")
    label = weights_label(g.weights)
    if not meets_criterion(label, positive):
        raise RuntimeError(f"extracted grading is {label}, which does not meet the criterion")
    if not preserved_by(g, m):
        raise RuntimeError("extracted grading is not preserved by the input map")
    return g


def expanding_to_positive_grading(algebra: LieAlgebra, m: QMat) -> Grading:
    """Positive grading preserved by the expanding automorphism m."""
    if not is_expanding(m):
        raise ValueError("map is not expanding")
    if not is_automorphism(algebra, m):
        raise ValueError("matrix is not an automorphism of the algebra")
    return grading_from_profile(algebra, m, norm_profile(m), positive=True)


def selfcover_to_nonneg_grading(algebra: LieAlgebra, m: QMat) -> Grading:
    """Non-negative, non-trivial grading preserved by m.

    Requires characteristic polynomial in Z[X] and |det| > 1.
    """
    if not is_automorphism(algebra, m):
        raise ValueError("matrix is not an automorphism of the algebra")
    profile = norm_profile(m)
    problems = map_problems(profile.charpoly, mx.det(m), positive=False)
    if problems:
        raise ValueError("; ".join(problems))
    return grading_from_profile(algebra, m, profile, positive=False)
