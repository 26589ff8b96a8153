"""Finite holonomy data and the equivariant expansion / self-cover criteria.

A holonomy group is an explicit finite set of automorphisms.  The two
theorem-level checks accept a certificate (a grading or a commuting
automorphism) and report which condition it witnesses; the restricted
search handles monomial holonomy by adding weight equalities along the
induced basis permutations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matrices as mx
from . import specmaps
from .grading import Grading, preserved_by, verify_grading, weight_equations, weights_label
from .liealg import LieAlgebra, is_automorphism, violated_bracket
from .linineq import solve
from .serialize import grading_to_dict, matrix_to_lists
from .verdict import Verdict


@dataclass(frozen=True)
class HolonomyGroup:
    """Explicit finite matrix group, identity first, deterministic order."""

    elements: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def _key(m: np.ndarray) -> tuple:
    return tuple(m.flat)


def close_group(generators: list[np.ndarray], cap: int = 1024) -> HolonomyGroup:
    """Close under products (breadth-first, lexicographic within levels).

    A finite set of invertible matrices closed under multiplication is a
    group, so inverses come for free once the closure stabilizes; if it
    exceeds `cap` elements the group is reported as not finite within
    bound.
    """
    if not generators:
        raise ValueError("at least one generator required")
    n = generators[0].shape[0]
    gens = []
    for g in generators:
        if g.shape != (n, n):
            raise ValueError("generator dimensions disagree")
        if mx.det(g) == 0:
            raise ValueError("generators must be invertible")
        gens.append(g)
    ident = mx.identity(n)
    seen = {_key(ident)}
    ordered = [ident]
    level = [ident]
    while level:
        nxt = []
        for a in level:
            for g in gens:
                prod = mx.matmul(a, g)
                k = _key(prod)
                if k not in seen:
                    seen.add(k)
                    nxt.append(prod)
                    if len(seen) > cap:
                        raise ValueError(f"not finite within bound {cap}")
        nxt.sort(key=_key)
        ordered.extend(nxt)
        level = nxt
    return HolonomyGroup(tuple(ordered))


def holonomy_is_valid(algebra: LieAlgebra, group: HolonomyGroup) -> bool:
    return all(is_automorphism(algebra, f) for f in group)


def preserves_grading_all(group: HolonomyGroup, grading: Grading) -> bool:
    return all(preserved_by(grading, f) for f in group)


def commutes_with_all(m: np.ndarray, group: HolonomyGroup) -> bool:
    return all(map(mx.commutes_with(m), group))


def _first_failing(group: HolonomyGroup, ok) -> int | None:
    """Index of the first element f with ok(f) false, if any."""
    return next((i for i, f in enumerate(group) if not ok(f)), None)


def check_expinfra(algebra: LieAlgebra, group: HolonomyGroup, certificate) -> Verdict:
    """Expansion criterion: certificate witnesses condition 2 or 3.

    Condition 2: a verified positive grading preserved by all of F.
    Condition 3: an expanding automorphism commuting with all of F.
    """
    if not holonomy_is_valid(algebra, group):
        raise ValueError("holonomy elements must be automorphisms of the algebra")
    if isinstance(certificate, Grading):
        return _check_grading_condition(
            algebra, group, certificate, "expinfra", "positive"
        )
    if isinstance(certificate, np.ndarray):
        m = certificate
        problems = []
        if not is_automorphism(algebra, m):
            problems.append("certificate map is not an automorphism")
        elif not specmaps.is_expanding(m):
            problems.append("certificate map is not expanding")
        return _check_map_condition(
            group, m, "expinfra-cond-3", problems, {"matrix": matrix_to_lists(m)},
            "expanding automorphism commutes with the holonomy group",
        )
    raise ValueError("certificate must be a Grading or an automorphism matrix")


def check_covinfra(algebra: LieAlgebra, group: HolonomyGroup, certificate) -> Verdict:
    """Self-cover criterion: non-negative nontrivial grading, or a commuting
    automorphism with Z[X] characteristic polynomial and |det| > 1."""
    if not holonomy_is_valid(algebra, group):
        raise ValueError("holonomy elements must be automorphisms of the algebra")
    if isinstance(certificate, Grading):
        return _check_grading_condition(
            algebra, group, certificate, "covinfra", "nonnegative-nontrivial"
        )
    if isinstance(certificate, np.ndarray):
        m = certificate
        if m.shape != (algebra.dim, algebra.dim):
            raise ValueError("matrix dimension mismatch")
        det = mx.det(m)
        problems = []
        if det == 0 or violated_bracket(algebra, m) is not None:
            problems.append("certificate map is not an automorphism")
        else:
            if not specmaps.is_z_charpoly(m):
                problems.append("characteristic polynomial is not in Z[X]")
            if abs(det) <= 1:
                problems.append("|det| is not > 1")
        return _check_map_condition(
            group, m, "covinfra-cond-3", problems, {"matrix": matrix_to_lists(m), "det": str(det)},
            "self-cover automorphism commutes with the holonomy group",
        )
    raise ValueError("certificate must be a Grading or an automorphism matrix")


def _check_map_condition(group, m, cond, problems, certificate, note) -> Verdict:
    """Reject on the problems found with the map m or on the first holonomy
    element that m does not commute with; else accept with certificate."""
    if problems:
        return Verdict("reject", condition=cond, certificate={"matrix": matrix_to_lists(m)}, diagnostics=problems)
    bad = _first_failing(group, mx.commutes_with(m))
    if bad is not None:
        return Verdict(
            "reject",
            condition=cond,
            certificate={
                "matrix": matrix_to_lists(m),
                "noncommuting_element": matrix_to_lists(group.elements[bad]),
            },
            diagnostics=[f"map fails to commute with holonomy element {bad}"],
        )
    return Verdict("accept", condition=cond, certificate=certificate, diagnostics=[note])


def _check_grading_condition(algebra, group, grading, theorem, wanted) -> Verdict:
    cond = f"{theorem}-cond-2"
    v = verify_grading(algebra, grading)
    if not v.accepted():
        return Verdict(
            "reject", condition=cond, certificate=v.certificate, diagnostics=v.diagnostics
        )
    label = weights_label(grading.weights)
    labels_ok = {"positive"} if wanted == "positive" else {"positive", "nonnegative-nontrivial"}
    if label not in labels_ok:
        return Verdict(
            "reject",
            condition=cond,
            certificate=grading_to_dict(grading),
            diagnostics=[f"grading classifies as {label}, need {wanted}"],
        )
    bad = _first_failing(group, lambda f: preserved_by(grading, f))
    if bad is not None:
        return Verdict(
            "reject",
            condition=cond,
            certificate={
                "grading": grading_to_dict(grading),
                "violating_element": matrix_to_lists(group.elements[bad]),
            },
            diagnostics=[f"holonomy element {bad} does not preserve the grading"],
        )
    return Verdict(
        "accept",
        condition=cond,
        certificate=grading_to_dict(grading),
        diagnostics=[f"{label} grading preserved by all {len(group)} holonomy elements"],
    )


# -- restricted equivariant search -------------------------------------------


def monomial_permutation(m: np.ndarray) -> list[int] | None:
    """sigma with m e_j = c e_{sigma(j)} if m is monomial, else None."""
    n = m.shape[0]
    sigma = []
    for j in range(n):
        nz = [i for i in range(n) if m[i, j] != 0]
        if len(nz) != 1:
            return None
        sigma.append(nz[0])
    if sorted(sigma) != list(range(n)):
        return None
    return sigma


def equivariant_weight_search(
    algebra: LieAlgebra, group: HolonomyGroup, mode: str
) -> tuple[int, ...] | None:
    """Weight system invariant under a monomial holonomy group.

    mode is "positive" or "nonneg-nontrivial".  Non-monomial holonomy is
    outside the supported search class; supply a certificate instead.
    """
    if mode not in ("positive", "nonneg-nontrivial"):
        raise ValueError(f"unknown mode {mode!r}")
    eqs = weight_equations(algebra)
    for f in group:
        sigma = monomial_permutation(f)
        if sigma is None:
            raise ValueError("search unsupported, use certificate mode")
        eqs += [{j: 1, s: -1} for j, s in enumerate(sigma) if s != j]
    return solve(eqs, [], [1 if mode == "positive" else 0] * algebra.dim)
