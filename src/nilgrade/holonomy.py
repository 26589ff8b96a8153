"""Finite holonomy data and the equivariant expansion / self-cover criteria.

A holonomy group is a finite group F of automorphisms, held as its
generators and its order |F|.  `check_criterion` is the one
theorem-level check: it accepts a certificate (a grading or a commuting
automorphism) and reports which condition it witnesses.  The expansion
and self-cover criteria differ only by `positive`, which
`grading.meets_criterion` reads for a grading and `specmaps.map_problems`
for a map; the search for a grading that F preserves is
`grading.find_weights` on the generators of F.

Every condition is decided on the generators of F.  Being an
automorphism, preserving a grading and commuting with a map are each
closed under products, so they hold on all of F iff they hold on its
generators.  `close_group` proves F finite within the cap and finds |F|;
a rejection names the first failing generator i in key order (the
entries, row-major) as holonomy element 1 + i, the place it had after
the identity when all of F was listed breadth-first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import matrices as mx
from . import specmaps
from .grading import Grading, meets_criterion, preserved_by, verify_grading, weights_label
from .liealg import LieAlgebra, is_automorphism, violated_bracket
from .matrices import QMat
from .serialize import grading_to_dict, matrix_to_lists
from .verdict import Verdict


@dataclass(frozen=True)
class HolonomyGroup:
    """A finite group F of dim x dim matrices: its distinct non-identity
    generators, sorted by key, and its order |F|.

    `checked_on` is an algebra that the generators are known to be
    automorphisms of: `holonomy_is_valid` passes the group on it without
    testing them again.  A loader sets it after its own check, so each
    generator is tested once per query.
    """

    dim: int
    generators: tuple[QMat, ...]
    order: int
    checked_on: LieAlgebra | None = field(default=None, compare=False, repr=False)


def close_group(generators: list[QMat], cap: int = 1024) -> HolonomyGroup:
    """Close under products breadth-first, counting |F|.

    A finite set of invertible matrices closed under multiplication is a
    group, so inverses come for free once the closure stabilizes; if it
    exceeds `cap` elements the group is reported as not finite within
    bound.
    """
    if not generators:
        raise ValueError("at least one generator required")
    n = generators[0].shape[0]
    for g in generators:
        if g.shape != (n, n):
            raise ValueError("generator dimensions disagree")
        if mx.det(g) == 0:
            raise ValueError("generators must be invertible")
    ident = mx.identity(n)
    gens = tuple(sorted(set(generators) - {ident}, key=QMat.tolist))
    seen = {ident}
    level = [ident]
    while level:
        nxt = []
        for a in level:
            for g in gens:
                prod = mx.matmul(a, g)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
                    if len(seen) > cap:
                        raise ValueError(f"not finite within bound {cap}")
        level = nxt
    return HolonomyGroup(n, gens, len(seen))


def holonomy_is_valid(algebra: LieAlgebra, group: HolonomyGroup) -> bool:
    # the dim is checked too: a group of the wrong size may have no generators
    if group.dim != algebra.dim:
        raise ValueError("matrix dimension mismatch")
    return group.checked_on is algebra or all(is_automorphism(algebra, f) for f in group.generators)


def preserves_grading_all(group: HolonomyGroup, grading: Grading) -> bool:
    return all(preserved_by(grading, f) for f in group.generators)


def commutes_with_all(m: QMat, group: HolonomyGroup) -> bool:
    return all(map(mx.commutes_with(m), group.generators))


def _first_failing(group: HolonomyGroup, ok) -> int | None:
    """1 + i for the first generator i with ok false, if any: its number
    as a holonomy element, after the identity."""
    return next((1 + i for i, f in enumerate(group.generators) if not ok(f)), None)


def check_criterion(algebra: LieAlgebra, group: HolonomyGroup, certificate, positive: bool) -> Verdict:
    """The expansion (positive) or self-cover criterion: which condition
    the certificate witnesses.

    Condition 2: a verified grading preserved by all of F, positive for
    expansion, non-negative and non-trivial for a self-cover.
    Condition 3: an automorphism commuting with all of F that is
    expanding, or, for a self-cover, has its characteristic polynomial in
    Z[X] and |det| > 1 (`specmaps.map_problems`).
    """
    if not holonomy_is_valid(algebra, group):
        raise ValueError("holonomy elements must be automorphisms of the algebra")
    if isinstance(certificate, Grading):
        return _check_grading_condition(algebra, group, certificate, positive)
    if not isinstance(certificate, QMat):
        raise ValueError("certificate must be a Grading or an automorphism matrix")
    m = certificate
    if m.shape != (algebra.dim, algebra.dim):
        raise ValueError("matrix dimension mismatch")
    cond = "expinfra-cond-3" if positive else "covinfra-cond-3"
    chi = mx.charpoly(m)
    det = (-1) ** algebra.dim * chi(0)  # det M = (-1)^n chi(0)
    if det == 0 or violated_bracket(algebra, m) is not None:
        problems = ["certificate map is not an automorphism"]
    else:
        problems = specmaps.map_problems(chi, det, positive)
    cert = {"matrix": matrix_to_lists(m)}
    if problems:
        return Verdict("reject", condition=cond, certificate=cert, diagnostics=problems)
    bad = _first_failing(group, mx.commutes_with(m))
    if bad is not None:
        return Verdict(
            "reject",
            condition=cond,
            certificate={**cert, "noncommuting_element": matrix_to_lists(group.generators[bad - 1])},
            diagnostics=[f"map fails to commute with holonomy element {bad}"],
        )
    if not positive:
        cert["det"] = str(det)
    kind = "expanding" if positive else "self-cover"
    note = f"{kind} automorphism commutes with the holonomy group"
    return Verdict("accept", condition=cond, certificate=cert, diagnostics=[note])


def _check_grading_condition(algebra, group, grading, positive) -> Verdict:
    cond = "expinfra-cond-2" if positive else "covinfra-cond-2"
    v = verify_grading(algebra, grading)
    if not v.accepted():
        return Verdict(
            "reject", condition=cond, certificate=v.certificate, diagnostics=v.diagnostics
        )
    label = weights_label(grading.weights)
    if not meets_criterion(label, positive):
        need = "positive" if positive else "nonnegative-nontrivial"
        return Verdict(
            "reject",
            condition=cond,
            certificate=grading_to_dict(grading),
            diagnostics=[f"grading classifies as {label}, need {need}"],
        )
    bad = _first_failing(group, lambda f: preserved_by(grading, f))
    if bad is not None:
        return Verdict(
            "reject",
            condition=cond,
            certificate={
                "grading": grading_to_dict(grading),
                "violating_element": matrix_to_lists(group.generators[bad - 1]),
            },
            diagnostics=[f"holonomy element {bad} does not preserve the grading"],
        )
    return Verdict(
        "accept",
        condition=cond,
        certificate=grading_to_dict(grading),
        diagnostics=[f"{label} grading preserved by all {group.order} holonomy elements"],
    )
