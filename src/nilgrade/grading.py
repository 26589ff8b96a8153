"""Gradings of a rational nilpotent Lie algebra.

Every question here rests on one fact: one weight per basis vector is a
grading iff w_a + w_b = w_c on each nonzero structure constant c_ab^c.
`weight_equations` is the one builder of those rows, as sparse
{variable: coefficient} dicts, and `LieAlgebra.in_basis` poses them in
any basis: `verify_grading` checks a grading on the algebra re-based on
its stacked components.

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
from fractions import Fraction

import numpy as np

from . import matrices as mx
from .intutil import is_prime
from .linineq import solve
from .liealg import LieAlgebra
from .verdict import Verdict

WeightSystem = tuple[int, ...]


@dataclass(frozen=True)
class Grading:
    """Finite list of (weight, subspace) components, weights ascending."""

    components: tuple[tuple[int, np.ndarray], ...]

    def __post_init__(self):
        weights = [w for w, _ in self.components]
        if weights != sorted(weights) or len(set(weights)) != len(weights):
            raise ValueError("component weights must be strictly increasing")
        if any(s.shape[1] == 0 for _, s in self.components):
            raise ValueError("zero components must be omitted")

    @property
    def weights(self) -> tuple[int, ...]:
        return tuple(w for w, _ in self.components)


def verify_grading(algebra: LieAlgebra, grading: Grading) -> Verdict:
    """Direct sum plus homogeneity [n_i, n_j] subseteq n_{i+j}.

    The stacked components are a direct sum iff they form a basis, which
    the one elimination that re-bases the algebra on them decides.
    Homogeneity is read off the algebra in that basis: each nonzero
    c'_ab^c needs w_c = w_a + w_b.  A failure reports the least failing
    pair by (w_a, w_b, a, b).
    """
    stacked = mx.hstack([s for _, s in grading.components])
    try:
        rebased = algebra.in_basis(stacked)
    except ValueError:  # not square, or singular
        return Verdict(
            "reject",
            condition="not-direct-sum",
            certificate={"total_columns": int(stacked.shape[1])},
            diagnostics=["components do not decompose the algebra as a direct sum"],
        )
    ws = [w for w, s in grading.components for _ in range(s.shape[1])]
    bad = [
        (ws[a], ws[b], a, b)
        for (a, b), terms in rebased.terms.items()
        if any(ws[c] != ws[a] + ws[b] for c in terms)
    ]
    if bad:
        wi, wj, a, b = min(bad)
        z = algebra.bracket(stacked[:, a], stacked[:, b])
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
    for (a, b), terms in algebra.terms.items():
        for c in terms:
            row = Counter((var[a], var[b]))
            row[var[c]] -= 1
            rows.append({v: x for v, x in row.items() if x})
    return rows


def weight_solution_space(algebra: LieAlgebra) -> np.ndarray:
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
        eqs += [{i: 1, j: -1} for i in range(n) for j in range(n) if i != j and f[i, j]]
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
    eye = mx.identity(n)
    return Grading(
        tuple((w, eye[:, [i for i, wi in enumerate(ws) if wi == w]]) for w in sorted(set(ws)))
    )


# -- the expanding morphisms phi_p ------------------------------------------


def phi_p(algebra: LieAlgebra, grading: Grading, p: int) -> np.ndarray:
    """Automorphism scaling the weight-i component by p^i."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    v = verify_grading(algebra, grading)
    if not v.accepted():
        raise ValueError(f"grading does not verify: {v.diagnostics}")
    cols = mx.hstack([s for _, s in grading.components])
    scales = np.array(
        [Fraction(p) ** w for w, s in grading.components for _ in range(s.shape[1])], dtype=object
    )
    return mx.matmul(cols * scales, mx.inverse(cols))


def preserved_by(grading: Grading, psi: np.ndarray) -> bool:
    """True iff psi maps every component onto itself, decided in ints:
    scaling psi and a component's columns by positive ints changes no
    column space, so (d psi)(e S) is compared with e S."""
    if mx.det(psi) == 0:
        raise ValueError("singular map cannot preserve a grading")
    psi_int, _ = mx.cleared(psi)
    for _, s in grading.components:
        s_int, _ = mx.cleared(s)
        if not mx.col_spaces_equal(psi_int @ s_int, s_int):
            return False
    return True
