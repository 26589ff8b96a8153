"""Gradings of a rational nilpotent Lie algebra.

Every question here rests on one fact: one weight per basis vector is a
grading iff w_a + w_b = w_c on each nonzero structure constant c_ab^c.
`weight_equations` is the one builder of those rows, as sparse
{variable: coefficient} dicts, and `LieAlgebra.in_basis` poses them in
any basis: `verify_grading` checks a grading on the algebra re-based on
its stacked components.

A grading is read in its own basis P, the stacked components, whose
inverse it computes once (`Grading.basis`, `Grading.inverse`).  The
re-based algebra, the witness phi_p = (A diag(p^w)) B / (d d') on the
int rows A = d P and B = d' P^-1, and the preservation test (P^-1 psi P
block diagonal) all read that one inverse.

The expansion and self-cover criteria differ by one switch, `positive`:
expansion needs a positive grading, a self-cover a non-negative
non-trivial one.  `meets_criterion` says which grading label witnesses
which.  `find_weights` is the one *search*, restricted to basis-aligned
gradings (one integer weight per basis vector) and, under holonomy, to
weights equal wherever some generator has a nonzero entry f_ij; the rows
plus exact Fourier-Motzkin feasibility (`linineq.solve`) decide existence
in this class, and the canonical returned weights minimize the maximum
weight, then compare lexicographically.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import mul

from . import matrices as mx
from .intutil import is_prime
from .linineq import solve
from .liealg import LieAlgebra
from .matrices import QMat
from .verdict import Verdict

WeightSystem = tuple[int, ...]


@dataclass(frozen=True)
class Grading:
    """Finite list of (weight, subspace) components, weights ascending."""

    components: tuple[tuple[int, QMat], ...]

    def __post_init__(self):
        weights = [w for w, _ in self.components]
        if weights != sorted(weights) or len(set(weights)) != len(weights):
            raise ValueError("component weights must be strictly increasing")
        if any(s.shape[1] == 0 for _, s in self.components):
            raise ValueError("zero components must be omitted")

    @property
    def weights(self) -> tuple[int, ...]:
        return tuple(w for w, _ in self.components)

    @property
    def column_weights(self) -> list[int]:
        """The weight of each column of `basis`."""
        return [w for w, s in self.components for _ in range(s.shape[1])]

    @cached_property
    def basis(self) -> QMat:
        """P: the component bases side by side, in weight order."""
        return mx.hstack([s for _, s in self.components])

    @cached_property
    def inverse(self) -> QMat:
        """P^-1, computed once per grading.  ValueError when P is not
        square or is singular, that is, when the components are not a
        direct sum of some Q^n."""
        return mx.inverse(self.basis)

    def first_inhomogeneous(self, rebased: LieAlgebra) -> tuple[int, int, int, int] | None:
        """The least (w_a, w_b, a, b) over the nonzero brackets [X_a, X_b]
        of `rebased`, the algebra in this grading's basis, that leave the
        weight-(w_a + w_b) component; None when the grading is homogeneous."""
        ws = self.column_weights
        bad = (
            (ws[a], ws[b], a, b) for (a, b), terms in rebased.upper.items() if any(ws[c] != ws[a] + ws[b] for c in terms)
        )
        return min(bad, default=None)


def verify_grading(algebra: LieAlgebra, grading: Grading) -> Verdict:
    """Direct sum plus homogeneity [n_i, n_j] subseteq n_{i+j}.

    The stacked components are a direct sum iff they form a basis, which
    the grading's one inverse decides, and the algebra is re-based on
    them with that inverse.  Homogeneity is read off the algebra in that
    basis: each nonzero c'_ab^c needs w_c = w_a + w_b.  A failure reports
    the least failing pair by (w_a, w_b, a, b).
    """
    stacked = grading.basis
    try:
        rebased = algebra.in_basis(stacked, grading.inverse)
    except ValueError:  # not square, or singular
        return Verdict(
            "reject",
            condition="not-direct-sum",
            certificate={"total_columns": int(stacked.shape[1])},
            diagnostics=["components do not decompose the algebra as a direct sum"],
        )
    bad = grading.first_inhomogeneous(rebased)
    if bad is not None:
        wi, wj, a, b = bad
        z = algebra.bracket(stacked.col(a), stacked.col(b))
        return Verdict(
            "reject",
            condition="not-homogeneous",
            certificate={"pair": [wi, wj], "bracket": [str(e) for e in z]},
            diagnostics=[
                f"bracket of components ({wi}, {wj}) leaves the"
                f" weight-{wi + wj} component"
            ],
        )
    return Verdict(
        "accept",
        condition="grading",
        certificate={"weights": list(grading.weights)},
        diagnostics=["direct sum and homogeneity verified"],
    )


def classify(algebra: LieAlgebra, grading: Grading) -> str:
    """positive | nonnegative-nontrivial | trivial | other (ties: strongest)."""
    v = verify_grading(algebra, grading)
    if not v.accepted():
        raise ValueError(f"grading does not verify: {v.diagnostics}")
    return weights_label(grading.weights)


def weights_label(ws: tuple[int, ...]) -> str:
    """The `classify` label of a verified grading with weights ws."""
    if all(w >= 1 for w in ws):
        return "positive"
    if ws == (0,):
        return "trivial"
    if all(w >= 0 for w in ws):
        return "nonnegative-nontrivial"
    return "other"


def meets_criterion(label: str, positive: bool) -> bool:
    """Whether a grading with this label witnesses the expansion criterion
    (positive) or the self-cover criterion (not positive).  A positive
    grading is non-negative and non-trivial too."""
    return label == "positive" or (not positive and label == "nonnegative-nontrivial")


# -- basis-aligned weight systems -------------------------------------------


def weight_equations(algebra: LieAlgebra, var=None) -> list[dict[int, int]]:
    """The rows w_a + w_b - w_c = 0, one per nonzero structure constant
    c_ab^c, as sparse {variable: coefficient} dicts.

    `var` maps each basis index to its variable (default: the identity),
    so basis vectors that share a variable share a weight.
    """
    var = range(algebra.dim) if var is None else var
    rows = []
    for (a, b), terms in algebra.upper.items():
        for c in terms:
            row = Counter((var[a], var[b]))
            row[var[c]] -= 1
            rows.append({v: x for v, x in row.items() if x})
    return rows


def weight_solution_space(algebra: LieAlgebra) -> QMat:
    """Kernel basis (columns) of the weight equations."""
    return mx.kernel(weight_equations(algebra), algebra.dim)


def find_weights(algebra: LieAlgebra, positive: bool, generators=()) -> WeightSystem | None:
    """The canonical weight system with all w_i >= 1 (positive) or all
    w_i >= 0 and some w_i >= 1 (not positive) whose grading every map in
    `generators` preserves; None if there is none.  Complete for
    basis-aligned gradings.

    An invertible f preserves the basis-aligned grading with weights w iff
    w_i = w_j wherever f_ij != 0: f must send each e_j into the span of
    the basis vectors of weight w_j.  A grading preserved by the
    generators is preserved by the group they span, so the equalities cut
    out the same set as those of every element, and `solve` returns the
    canonical point of that set.
    """
    n = algebra.dim
    eqs = weight_equations(algebra)
    for f in generators:
        if f.shape != (n, n):
            raise ValueError("matrix dimension mismatch")
        eqs += [{i: 1, j: -1} for i, row in enumerate(f.rows) for j, x in enumerate(row) if i != j and x]
    return solve(eqs, [], [int(positive)] * n)


def grading_from_weights(algebra: LieAlgebra, weights) -> Grading:
    """Group basis vectors sharing a weight into components."""
    n = algebra.dim
    ws = [int(w) for w in weights]
    if len(ws) != n:
        raise ValueError("one weight per basis vector required")
    for row in weight_equations(algebra):
        if sum(c * ws[v] for v, c in row.items()):
            terms = " ".join(f"{c:+d} w_{v + 1}" for v, c in row.items())
            raise ValueError(f"weights violate the equation {terms} = 0")

    def unit_columns(w: int) -> QMat:
        idx = [i for i, wi in enumerate(ws) if wi == w]
        return QMat([[int(r == i) for i in idx] for r in range(n)], 1, (n, len(idx)))

    return Grading(tuple((w, unit_columns(w)) for w in sorted(set(ws))))


# -- the expanding morphisms phi_p ------------------------------------------


def phi_p(algebra: LieAlgebra, grading: Grading, p: int) -> QMat:
    """Automorphism scaling the weight-i component by p^i: P diag(p^w) P^-1.

    Built in ints from the rows of the grading's A = d P and B = d' P^-1
    as (A diag(p^(w - w0))) B / (d d' p^-w0), where w0 = min(0, least
    weight) keeps every power integral.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    v = verify_grading(algebra, grading)
    if not v.accepted():
        raise ValueError(f"grading does not verify: {v.diagnostics}")
    a, b = grading.basis, grading.inverse
    ws = grading.column_weights
    w0 = min(0, ws[0])  # the columns are in ascending weight order
    scales = [p ** (w - w0) for w in ws]
    scaled = [list(map(mul, row, scales)) for row in a.rows]
    return QMat(mx._product(scaled, b.rows), a.den * b.den * p**-w0, a.shape)


def preserved_by(grading: Grading, psi: QMat) -> bool:
    """True iff psi maps every component onto itself.  Precondition: the
    components are a direct sum (`verify_grading` accepts the grading).

    Decided on P^-1 psi P, psi in the grading's basis, from the grading's
    one inverse: it is block diagonal iff psi maps each component into,
    and so (psi being invertible) onto, itself.
    """
    if mx.det(psi) == 0:
        raise ValueError("singular map cannot preserve a grading")
    m = mx.matmul(mx.matmul(grading.inverse, psi), grading.basis).rows
    lo = 0
    for _, s in grading.components:
        hi = lo + s.shape[1]
        if any(any(row[lo:hi]) for row in m[:lo]) or any(any(row[lo:hi]) for row in m[hi:]):
            return False
        lo = hi
    return True
