"""Gradings of a rational nilpotent Lie algebra.

Every question here rests on one fact: one weight per basis vector is a
grading iff w_a + w_b = w_c on each nonzero structure constant c_ab^c.
`weight_equations` is the one builder of those rows, as sparse
{variable: coefficient} dicts, and `LieAlgebra.in_basis` poses them in
any basis: `verify_grading` checks a grading on the algebra re-based on
its stacked components.  The *search* for gradings is restricted to
basis-aligned ones, one integer weight per basis vector; the rows plus
exact Fourier-Motzkin feasibility (`linineq.solve`) decide existence of
positive and non-negative gradings in this class, and the canonical
returned weights minimize the maximum weight, then compare
lexicographically.
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


def find_positive_weights(algebra: LieAlgebra) -> WeightSystem | None:
    """Weight system with all w_i >= 1, or None; complete for this class."""
    return solve(weight_equations(algebra), [], [1] * algebra.dim)


def find_nonneg_nontrivial_weights(algebra: LieAlgebra) -> WeightSystem | None:
    """Weight system with all w_i >= 0, some w_i >= 1, or None."""
    return solve(weight_equations(algebra), [], [0] * algebra.dim)


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
    """True iff psi maps every component onto itself."""
    if mx.det(psi) == 0:
        raise ValueError("singular map cannot preserve a grading")
    return all(mx.col_spaces_equal(mx.matmul(psi, s), s) for _, s in grading.components)
