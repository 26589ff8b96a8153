"""Command-line interface.

Every subcommand prints one Verdict as JSON on stdout (sorted keys;
`--json` switches to the compact single-line form) and exits 0 on accept,
1 on reject or unknown, 2 on I/O, parse or precondition errors.  Accept
verdicts embed a certificate that replays through the matching check.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path

import numpy as np

from . import matrices as mx
from . import specmaps
from .fixtures import fixtures_dir, resolve_algebra_path
from .grading import (
    Grading,
    classify,
    find_nonneg_nontrivial_weights,
    find_positive_weights,
    grading_from_weights,
    phi_p,
    verify_grading,
    weight_solution_space,
)
from .holonomy import (
    HolonomyGroup,
    check_covinfra,
    check_expinfra,
    close_group,
    commutes_with_all,
    equivariant_weight_search,
    holonomy_is_valid,
)
from .latpow import ObstructionPrime, orbit_escapes_lattice, power_into_lattice
from .liealg import (
    LieAlgebra,
    is_characteristically_nilpotent,
    validate,
    violated_bracket,
)
from .matrices import IntegerLattice
from .serialize import (
    algebra_from_dict,
    grading_from_dict,
    grading_to_dict,
    holonomy_payload,
    lattice_certificate_to_dict,
    matrix_from_lists,
    matrix_to_lists,
    profile_to_dict,
    vector_from_list,
    weights_from_dict,
)
from .verdict import Verdict


class CliError(Exception):
    pass


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise CliError(f"cannot open {path}")
    except json.JSONDecodeError as e:
        raise CliError(f"{path}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}")


def _load_algebra(arg: str) -> LieAlgebra:
    try:
        path = resolve_algebra_path(arg)
    except FileNotFoundError as e:
        raise CliError(str(e))
    try:
        return algebra_from_dict(_load_json(str(path)))
    except ValueError as e:
        raise CliError(f"{path}: {e}")


def _load_holonomy(arg: str | None, algebra: LieAlgebra) -> HolonomyGroup:
    if arg is None:
        return HolonomyGroup((mx.identity(algebra.dim),))
    path = Path(arg)
    if not path.exists():
        candidate = fixtures_dir() / "holonomy" / f"{arg}.json"
        if candidate.exists():
            path = candidate
        else:
            raise CliError(f"cannot open holonomy file {arg}")
    try:
        gens, cap = holonomy_payload(_load_json(str(path)))
        group = close_group(gens, cap)
    except ValueError as e:
        raise CliError(f"{path}: {e}")
    if not holonomy_is_valid(algebra, group):
        raise CliError(f"{path}: holonomy elements are not automorphisms of the algebra")
    return group


def _load_certificate(arg: str, algebra: LieAlgebra):
    """Grading, weight system or matrix, in any embedded-verdict shape."""
    data = _load_json(arg)
    try:
        return _certificate_from_data(data, algebra)
    except ValueError as e:
        raise CliError(f"{arg}: {e}")


def _certificate_from_data(data, algebra: LieAlgebra):
    if isinstance(data, list):
        return matrix_from_lists(data)
    if isinstance(data, dict):
        if "components" in data:
            return grading_from_dict(data)
        if "grading" in data:
            return _certificate_from_data(data["grading"], algebra)
        if "weights" in data:
            return grading_from_weights(algebra, weights_from_dict(data))
        if "phi_p" in data:
            return matrix_from_lists(data["phi_p"])
        if "matrix" in data:
            return matrix_from_lists(data["matrix"])
    raise ValueError("certificate must be a matrix, a grading or a weight system")


def _emit(verdict: Verdict, compact: bool) -> int:
    print(verdict.to_json(compact=compact))
    if verdict.decision == "accept":
        return 0
    return 1


def _validated(algebra: LieAlgebra, compact: bool) -> Verdict | int:
    v = validate(algebra)
    if not v.accepted():
        return _emit(v, compact)
    return v


def _weight_search(algebra: LieAlgebra, group: HolonomyGroup, mode: str):
    """Weights invariant under the holonomy (None if there are none), or
    the unknown verdict when the holonomy is outside the search class."""
    try:
        return equivariant_weight_search(algebra, group, mode)
    except ValueError:
        return Verdict(
            "unknown",
            condition="search-unsupported",
            diagnostics=[
                "equivariant search supports monomial holonomy only;"
                " provide a certificate (grading or commuting automorphism)"
            ],
        )


# -- subcommands -------------------------------------------------------------


def cmd_check(args) -> int:
    algebra = _load_algebra(args.algebra)
    v = validate(algebra)
    if not v.accepted():
        return _emit(v, args.json)
    cls = v.certificate["nilpotency_class"]
    cn_flag = is_characteristically_nilpotent(algebra).accepted()
    out = Verdict(
        "accept",
        condition="valid-nilpotent-lie-algebra",
        certificate={
            "dim": algebra.dim,
            "nilpotency_class": cls,
            "characteristically_nilpotent": cn_flag,
        },
        diagnostics=[f"nilpotency class {cls}", f"characteristically nilpotent: {cn_flag}"],
    )
    return _emit(out, args.json)


def cmd_grade(args) -> int:
    algebra = _load_algebra(args.algebra)
    pre = _validated(algebra, args.json)
    if isinstance(pre, int):
        return pre
    finder = find_positive_weights if args.mode == "positive" else find_nonneg_nontrivial_weights
    w = finder(algebra)
    if w is None:
        dim = weight_solution_space(algebra).shape[1]
        return _emit(
            Verdict(
                "reject",
                condition="basis-aligned-scope",
                certificate={"solution_space_dim": dim},
                diagnostics=[
                    f"no basis-aligned {args.mode} grading"
                    f" (weight solution space has dimension {dim});"
                    " verdict is scoped to basis-aligned gradings"
                ],
            ),
            args.json,
        )
    g = grading_from_weights(algebra, w)
    out = Verdict(
        "accept",
        condition="grading-found",
        certificate={"weights": list(w), "grading": grading_to_dict(g)},
        diagnostics=[f"weights {list(w)}", f"classification: {classify(algebra, g)}"],
    )
    return _emit(out, args.json)


def cmd_expand(args) -> int:
    algebra = _load_algebra(args.algebra)
    pre = _validated(algebra, args.json)
    if isinstance(pre, int):
        return pre
    group = _load_holonomy(args.holonomy, algebra)
    if args.certificate:
        cert = _load_certificate(args.certificate, algebra)
        return _emit(check_expinfra(algebra, group, cert), args.json)
    w = _weight_search(algebra, group, "positive")
    if isinstance(w, Verdict):
        return _emit(w, args.json)
    if w is None:
        return _emit(
            Verdict(
                "reject",
                condition="basis-aligned-scope",
                certificate={"solution_space_dim": weight_solution_space(algebra).shape[1]},
                diagnostics=["no positive basis-aligned grading (scope: basis-aligned search)"],
            ),
            args.json,
        )
    g = grading_from_weights(algebra, w)
    phi = phi_p(algebra, g, args.prime)
    k = sum(w)
    if not specmaps.is_expanding(phi):
        raise RuntimeError(f"self-check failed: phi_{args.prime} is not expanding")
    if not commutes_with_all(phi, group):
        raise RuntimeError(f"self-check failed: phi_{args.prime} does not commute with the holonomy group")
    out = Verdict(
        "accept",
        condition="expinfra-cond-2",
        certificate={
            "weights": list(w),
            "grading": grading_to_dict(g),
            "phi_p": matrix_to_lists(phi),
            "prime": args.prime,
            "det": str(mx.det(phi)),
            "det_exponent": k,
        },
        diagnostics=[
            f"positive grading with weights {list(w)}",
            f"phi_{args.prime} has det {args.prime}^{k} and is expanding",
            f"commutes with all {len(group)} holonomy elements",
        ],
    )
    return _emit(out, args.json)


def cmd_cohopf(args) -> int:
    algebra = _load_algebra(args.algebra)
    pre = _validated(algebra, args.json)
    if isinstance(pre, int):
        return pre
    group = _load_holonomy(args.holonomy, algebra)
    if args.certificate:
        cert = _load_certificate(args.certificate, algebra)
        v = check_covinfra(algebra, group, cert)
        if v.accepted():
            v.diagnostics.insert(0, "not co-Hopfian (witnessed)")
        return _emit(v, args.json)
    w = _weight_search(algebra, group, "nonneg-nontrivial")
    if isinstance(w, Verdict):
        return _emit(w, args.json)
    if w is not None:
        g = grading_from_weights(algebra, w)
        phi = phi_p(algebra, g, 2)
        out = Verdict(
            "accept",
            condition="covinfra-cond-2",
            certificate={
                "weights": list(w),
                "grading": grading_to_dict(g),
                "phi_p": matrix_to_lists(phi),
                "prime": 2,
                "det": str(mx.det(phi)),
            },
            diagnostics=[
                "not co-Hopfian (witnessed)",
                f"non-negative non-trivial grading with weights {list(w)}",
                f"self-cover morphism phi_2 has det 2^{sum(w)}",
            ],
        )
        return _emit(out, args.json)
    dim = weight_solution_space(algebra).shape[1]
    if dim == 0:
        cn = is_characteristically_nilpotent(algebra)
        if cn.accepted():
            return _emit(
                Verdict(
                    "reject",
                    condition="co-hopfian-characteristically-nilpotent",
                    certificate=cn.certificate,
                    diagnostics=[
                        "co-Hopfian: certified via characteristic nilpotency",
                        "every automorphism has determinant +-1;"
                        " no non-trivial self-cover exists",
                    ],
                ),
                args.json,
            )
    return _emit(
        Verdict(
            "reject",
            condition="no-basis-aligned-witness",
            certificate={"solution_space_dim": dim},
            diagnostics=[
                "no basis-aligned witness found;"
                " this does not certify that the group is co-Hopfian"
            ],
        ),
        args.json,
    )


def cmd_norm(args) -> int:
    algebra = _load_algebra(args.algebra)
    pre = _validated(algebra, args.json)
    if isinstance(pre, int):
        return pre
    m = matrix_from_lists(_load_json(args.matrix))
    if m.shape != (algebra.dim, algebra.dim):
        raise CliError("matrix dimension does not match the algebra")
    det = mx.det(m)
    if det == 0:
        return _emit(
            Verdict("reject", condition="not-automorphism", diagnostics=["matrix is singular"]),
            args.json,
        )
    bad = violated_bracket(algebra, m)
    if bad is not None:
        return _emit(
            Verdict(
                "reject",
                condition="not-automorphism",
                certificate={"violated_bracket": list(bad)},
                diagnostics=[f"bracket [X_{bad[0]}, X_{bad[1]}] is not preserved"],
            ),
            args.json,
        )
    notes = []
    if not specmaps.is_semisimple(m):
        notes.append("map is not semisimple; profile taken on its semisimple part")
    profile = specmaps.norm_profile(m)
    cert = {"profile": profile_to_dict(profile)}
    if specmaps.is_expanding(m):
        g = specmaps.grading_from_profile(algebra, m, profile, positive=True)
        cert["grading"] = grading_to_dict(g)
        cert["classification"] = "positive"
        notes.append("expanding: extracted a positive grading preserved by the map")
    elif specmaps.is_z_charpoly(m) and abs(det) > 1:
        g = specmaps.grading_from_profile(algebra, m, profile, positive=False)
        cert["grading"] = grading_to_dict(g)
        cert["classification"] = "nonnegative-nontrivial"
        notes.append("self-cover criteria hold: extracted a non-negative grading")
    else:
        notes.append("no grading extracted (map is neither expanding nor a self-cover witness)")
    out = Verdict("accept", condition="norm-profile", certificate=cert, diagnostics=notes)
    return _emit(out, args.json)


def cmd_latpow(args) -> int:
    data = _load_json(args.input)
    if not isinstance(data, dict) or "A" not in data:
        raise CliError('latpow input must be a JSON object with key "A"')
    try:
        a = matrix_from_lists(data["A"])
    except ValueError as e:
        raise CliError(str(e))
    if "v" in data:
        bound = args.bound if args.bound is not None else data.get("bound", 64)
        if type(bound) is not int:
            raise CliError(f'"bound" must be a positive integer, got {json.dumps(bound)}')
        v = vector_from_list(data["v"])
        return _emit(orbit_escapes_lattice(a, v, bound), args.json)
    if "lattice" not in data:
        raise CliError('latpow input needs "lattice" (or "v" for orbit mode)')
    try:
        lattice = IntegerLattice(matrix_from_lists(data["lattice"]))
    except ValueError as e:
        raise CliError(f"lattice: {e}")
    try:
        cert = power_into_lattice(a, lattice)
    except ObstructionPrime as e:
        return _emit(
            Verdict(
                "reject",
                condition="obstruction-prime",
                certificate={"prime": e.prime},
                diagnostics=[str(e)],
            ),
            args.json,
        )
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit, as before 3.10.7
    if limit and cert.exceeds_digits(limit):
        raise CliError(f"Exceeds the limit ({limit} digits) for integer string conversion: P^-1 A^{cert.k} P")
    out = Verdict(
        "accept",
        condition="lattice-power",
        certificate=lattice_certificate_to_dict(cert),
        diagnostics=[
            f"A^{cert.k} maps the lattice into itself"
            f" (proof bound: order {cert.order_bound} mod {cert.modulus})"
        ],
    )
    return _emit(out, args.json)


# -- entry point --------------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after."""
    ap = argparse.ArgumentParser(
        prog="nilgrade",
        description="exact grading / expanding-map / self-cover criteria"
        " for rational nilpotent Lie algebras",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="compact single-line JSON output")

    p = sub.add_parser("check", help="validate an algebra file")
    p.add_argument("algebra")
    common(p)

    p = sub.add_parser("grade", help="search a basis-aligned grading")
    p.add_argument("algebra")
    p.add_argument("--mode", choices=["positive", "nonneg"], default="positive")
    common(p)

    p = sub.add_parser("expand", help="expanding-map criterion")
    p.add_argument("algebra")
    p.add_argument("--prime", type=int, default=2)
    p.add_argument("--holonomy")
    p.add_argument("--certificate")
    common(p)

    p = sub.add_parser("cohopf", help="self-cover / co-Hopf criterion")
    p.add_argument("algebra")
    p.add_argument("--holonomy")
    p.add_argument("--certificate")
    common(p)

    p = sub.add_parser("norm", help="norm profile and grading extraction")
    p.add_argument("algebra")
    p.add_argument("matrix")
    common(p)

    p = sub.add_parser("latpow", help="lattice power certificate / orbit escape")
    p.add_argument("input")
    p.add_argument("--bound", type=int)
    common(p)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    from .intutil import is_prime

    try:
        if getattr(args, "prime", None) is not None and args.command == "expand":
            if not is_prime(args.prime):
                raise CliError(f"{args.prime} is not prime")
        # looked up per call, so a wrapper bound to the module attribute runs
        return globals()[f"cmd_{args.command}"](args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
