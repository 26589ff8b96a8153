"""Gradings of a rational nilpotent Lie algebra.

Arbitrary gradings (any bases) are verified; the *search* for gradings is
restricted to basis-aligned ones, encoded as one integer weight per basis
vector with w_i + w_j = w_k over every nonzero structure constant.  That
linear system plus exact Fourier-Motzkin feasibility decides existence of
positive and non-negative gradings in this class, and the canonical
returned weights minimize the maximum weight, then compare
lexicographically.
"""

from __future__ import annotations

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

    def component(self, weight: int) -> np.ndarray | None:
        for w, s in self.components:
            if w == weight:
                return s
        return None


def verify_grading(algebra: LieAlgebra, grading: Grading) -> Verdict:
    """Direct sum plus homogeneity [n_i, n_j] subseteq n_{i+j}."""
    n = algebra.dim
    stacked = mx.hstack([s for _, s in grading.components])
    if stacked.shape != (n, n) or mx.det(stacked) == 0:
        return Verdict(
            "reject",
            condition="not-direct-sum",
            certificate={"total_columns": int(stacked.shape[1])},
            diagnostics=["components do not decompose the algebra as a direct sum"],
        )
    for wi, si in grading.components:
        for wj, sj in grading.components:
            if wj < wi:
                continue
            target = grading.component(wi + wj)
            for a in range(si.shape[1]):
                for b in range(sj.shape[1]):
                    if wi == wj and b <= a:
                        continue
                    z = algebra.bracket(si[:, a], sj[:, b])
                    if (z == Fraction(0)).all():
                        continue
                    if target is None or not mx.col_space_contains(target, z):
                        return Verdict(
                            "reject",
                            condition="not-homogeneous",
                            certificate={
                                "pair": [wi, wj],
                                "bracket": [str(e) for e in z],
                            },
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
    ws = grading.weights
    if all(w >= 1 for w in ws):
        return "positive"
    if ws == (0,):
        return "trivial"
    if all(w >= 0 for w in ws):
        return "nonnegative-nontrivial"
    return "other"


# -- basis-aligned weight systems -------------------------------------------


def _constraint_rows(algebra: LieAlgebra) -> list[tuple[tuple[Fraction, ...], Fraction]]:
    n = algebra.dim
    rows = []
    for (i, j), vec in algebra.table.items():
        for k in range(n):
            if vec[k] != 0:
                coeffs = [Fraction(0)] * n
                coeffs[i] += 1
                coeffs[j] += 1
                coeffs[k] -= 1
                rows.append((tuple(coeffs), Fraction(0)))
    return rows


def weight_solution_space(algebra: LieAlgebra) -> np.ndarray:
    """Kernel basis (columns) of {w_i + w_j = w_k : c_ijk != 0}."""
    rows = _constraint_rows(algebra)
    if not rows:
        return mx.identity(algebra.dim)
    return mx.nullspace(mx.rmat([list(r[0]) for r in rows]))


def find_positive_weights(algebra: LieAlgebra) -> WeightSystem | None:
    """Weight system with all w_i >= 1, or None; complete for this class."""
    return solve(_constraint_rows(algebra), [], [1] * algebra.dim)


def find_nonneg_nontrivial_weights(algebra: LieAlgebra) -> WeightSystem | None:
    """Weight system with all w_i >= 0, some w_i >= 1, or None."""
    return solve(_constraint_rows(algebra), [], [0] * algebra.dim)


def grading_from_weights(algebra: LieAlgebra, weights) -> Grading:
    """Group basis vectors sharing a weight into components."""
    n = algebra.dim
    ws = [int(w) for w in weights]
    if len(ws) != n:
        raise ValueError("one weight per basis vector required")
    for (i, j), vec in algebra.table.items():
        for k in range(n):
            if vec[k] != 0 and ws[i] + ws[j] != ws[k]:
                raise ValueError(
                    f"weights violate constraint w_{i+1} + w_{j+1} = w_{k+1}"
                )
    comps = []
    for w in sorted(set(ws)):
        idx = [i for i, wi in enumerate(ws) if wi == w]
        sub = mx.zeros(n, len(idx))
        for c, i in enumerate(idx):
            sub[i, c] = Fraction(1)
        comps.append((w, sub))
    return Grading(tuple(comps))


# -- the expanding morphisms phi_p ------------------------------------------


def phi_p(algebra: LieAlgebra, grading: Grading, p: int) -> np.ndarray:
    """Automorphism scaling the weight-i component by p^i."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    v = verify_grading(algebra, grading)
    if not v.accepted():
        raise ValueError(f"grading does not verify: {v.diagnostics}")
    cols = mx.hstack([s for _, s in grading.components])
    scales = []
    for w, s in grading.components:
        scales.extend([Fraction(p) ** w] * s.shape[1])
    return cols @ mx.diag(scales) @ mx.inverse(cols)


def preserved_by(grading: Grading, psi: np.ndarray) -> bool:
    """True iff psi maps every component onto itself."""
    if mx.det(psi) == 0:
        raise ValueError("singular map cannot preserve a grading")
    return all(mx.col_spaces_equal(psi @ s, s) for _, s in grading.components)
