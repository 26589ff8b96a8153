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
from dataclasses import replace
from functools import cache
from pathlib import Path

from . import matrices as mx
from . import specmaps
from .fixtures import resolve_path
from .grading import find_weights, grading_from_weights, phi_p, weight_solution_space, weights_label
from .holonomy import HolonomyGroup, check_criterion, close_group, commutes_with_all, holonomy_is_valid
from .intutil import is_prime
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
    except OSError:
        raise CliError(f"cannot open {path}")
    except json.JSONDecodeError as e:
        raise CliError(f"{path}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}")


def _resolve(arg: str, kind: str = "") -> Path:
    try:
        return resolve_path(arg, kind)
    except FileNotFoundError as e:
        raise CliError(str(e))


def _read(path: str | Path, parse):
    """parse(the JSON at path), a ValueError an input error naming path."""
    data = _load_json(str(path))
    try:
        return parse(data)
    except ValueError as e:
        raise CliError(f"{path}: {e}")


def _load_algebra(arg: str) -> LieAlgebra:
    return _read(_resolve(arg), algebra_from_dict)


def _load_holonomy(arg: str | None, algebra: LieAlgebra) -> HolonomyGroup:
    if arg is None:
        return HolonomyGroup(algebra.dim, (), 1)

    def checked(data) -> HolonomyGroup:
        group = close_group(*holonomy_payload(data))
        if not holonomy_is_valid(algebra, group):
            raise ValueError("holonomy elements are not automorphisms of the algebra")
        return replace(group, checked_on=algebra)

    return _read(_resolve(arg, "holonomy"), checked)


def _load_certificate(arg: str, algebra: LieAlgebra):
    """Grading, weight system or matrix, in any embedded-verdict shape."""
    return _read(arg, lambda data: _certificate_from_data(data, algebra))


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


# -- subcommands -------------------------------------------------------------


def cmd_check(args) -> Verdict:
    algebra = _load_algebra(args.algebra)
    v = validate(algebra)
    if not v.accepted():
        return v
    cls = v.certificate["nilpotency_class"]
    cn_flag = is_characteristically_nilpotent(algebra).accepted()
    return Verdict(
        "accept",
        condition="valid-nilpotent-lie-algebra",
        certificate={
            "dim": algebra.dim,
            "nilpotency_class": cls,
            "characteristically_nilpotent": cn_flag,
        },
        diagnostics=[f"nilpotency class {cls}", f"characteristically nilpotent: {cn_flag}"],
    )


def cmd_grade(args) -> Verdict:
    algebra = _load_algebra(args.algebra)
    v = validate(algebra)
    if not v.accepted():
        return v
    w = find_weights(algebra, args.mode == "positive")
    if w is None:
        dim = weight_solution_space(algebra).shape[1]
        return Verdict(
            "reject",
            condition="basis-aligned-scope",
            certificate={"solution_space_dim": dim},
            diagnostics=[
                f"no basis-aligned {args.mode} grading"
                f" (weight solution space has dimension {dim});"
                " verdict is scoped to basis-aligned gradings"
            ],
        )
    g = grading_from_weights(algebra, w)
    return Verdict(
        "accept",
        condition="grading-found",
        certificate={"weights": list(w), "grading": grading_to_dict(g)},
        diagnostics=[f"weights {list(w)}", f"classification: {weights_label(g.weights)}"],
    )


def cmd_criterion(args) -> Verdict:
    """`expand` (the expansion criterion) and `cohopf` (the self-cover
    criterion, with `prime` 2): replay a certificate, or search a
    basis-aligned grading that the holonomy preserves and build phi_p."""
    positive = args.command == "expand"
    algebra = _load_algebra(args.algebra)
    v = validate(algebra)
    if not v.accepted():
        return v
    group = _load_holonomy(args.holonomy, algebra)
    if args.certificate:
        v = check_criterion(algebra, group, _load_certificate(args.certificate, algebra), positive)
        if v.accepted() and not positive:
            v.diagnostics.insert(0, "not co-Hopfian (witnessed)")
        return v
    w = find_weights(algebra, positive, group.generators)
    if w is None:
        dim = weight_solution_space(algebra).shape[1]
        if positive:
            return Verdict(
                "reject",
                condition="basis-aligned-scope",
                certificate={"solution_space_dim": dim},
                diagnostics=["no positive basis-aligned grading (scope: basis-aligned search)"],
            )
        if dim == 0:
            cn = is_characteristically_nilpotent(algebra)
            if cn.accepted():
                return Verdict(
                    "reject",
                    condition="co-hopfian-characteristically-nilpotent",
                    certificate=cn.certificate,
                    diagnostics=[
                        "co-Hopfian: certified via characteristic nilpotency",
                        "every automorphism has determinant +-1;"
                        " no non-trivial self-cover exists",
                    ],
                )
        return Verdict(
            "reject",
            condition="no-basis-aligned-witness",
            certificate={"solution_space_dim": dim},
            diagnostics=[
                "no basis-aligned witness found;"
                " this does not certify that the group is co-Hopfian"
            ],
        )
    g = grading_from_weights(algebra, w)
    p, k = args.prime, sum(w)
    phi = phi_p(algebra, g, p)
    if positive and not specmaps.is_expanding(phi):
        raise RuntimeError(f"self-check failed: phi_{p} is not expanding")
    if not commutes_with_all(phi, group):
        raise RuntimeError(f"self-check failed: phi_{p} does not commute with the holonomy group")
    cert = {
        "weights": list(w),
        "grading": grading_to_dict(g),
        "phi_p": matrix_to_lists(phi),
        "prime": p,
        "det": str(p**k),  # det P diag(p^w) P^-1 = p^sum(w)
    }
    if positive:
        cert["det_exponent"] = k
        notes = [
            f"positive grading with weights {list(w)}",
            f"phi_{p} has det {p}^{k} and is expanding",
            f"commutes with all {group.order} holonomy elements",
        ]
    else:
        notes = [
            "not co-Hopfian (witnessed)",
            f"non-negative non-trivial grading with weights {list(w)}",
            f"self-cover morphism phi_{p} has det {p}^{k}",
        ]
    cond = "expinfra-cond-2" if positive else "covinfra-cond-2"
    return Verdict("accept", condition=cond, certificate=cert, diagnostics=notes)


def cmd_norm(args) -> Verdict:
    algebra = _load_algebra(args.algebra)
    v = validate(algebra)
    if not v.accepted():
        return v
    m = _read(args.matrix, matrix_from_lists)
    if m.shape != (algebra.dim, algebra.dim):
        raise CliError(f"{args.matrix}: matrix dimension does not match the algebra")
    det = mx.det(m)
    if det == 0:
        return Verdict("reject", condition="not-automorphism", diagnostics=["matrix is singular"])
    bad = violated_bracket(algebra, m)
    if bad is not None:
        return Verdict(
            "reject",
            condition="not-automorphism",
            certificate={"violated_bracket": list(bad)},
            diagnostics=[f"bracket [X_{bad[0]}, X_{bad[1]}] is not preserved"],
        )
    # one charpoly: the semisimple test and both criteria read it off the profile
    profile = specmaps.norm_profile(m)
    chi = profile.charpoly
    notes = []
    if not mx.annihilates(profile.radical, m):
        notes.append("map is not semisimple; profile taken on its semisimple part")
    cert = {"profile": profile_to_dict(profile)}
    for positive, label, note in (
        (True, "positive", "expanding: extracted a positive grading preserved by the map"),
        (False, "nonnegative-nontrivial", "self-cover criteria hold: extracted a non-negative grading"),
    ):
        if not specmaps.map_problems(chi, det, positive):
            g = specmaps.grading_from_profile(algebra, m, profile, positive)
            cert["grading"] = grading_to_dict(g)
            cert["classification"] = label
            notes.append(note)
            break
    else:
        notes.append("no grading extracted (map is neither expanding nor a self-cover witness)")
    return Verdict("accept", condition="norm-profile", certificate=cert, diagnostics=notes)


def _latpow_input(data, bound: int | None) -> tuple:
    """(A, v, bound) in orbit mode, else (A, lattice, None)."""
    if not isinstance(data, dict) or "A" not in data:
        raise ValueError('latpow input must be a JSON object with key "A"')
    a = matrix_from_lists(data["A"])
    if "v" in data:
        bound = data.get("bound", 64) if bound is None else bound
        if type(bound) is not int:
            raise ValueError(f'"bound" must be a positive integer, got {json.dumps(bound)}')
        return a, vector_from_list(data["v"]), bound
    if "lattice" not in data:
        raise ValueError('latpow input needs "lattice" (or "v" for orbit mode)')
    try:
        return a, IntegerLattice(matrix_from_lists(data["lattice"])), None
    except ValueError as e:
        raise ValueError(f"lattice: {e}")


def cmd_latpow(args) -> Verdict:
    a, target, bound = _read(args.input, lambda data: _latpow_input(data, args.bound))
    if bound is not None:  # orbit mode: target is v
        return orbit_escapes_lattice(a, target, bound)
    try:
        cert = power_into_lattice(a, target)
    except ObstructionPrime as e:
        return Verdict(
            "reject",
            condition="obstruction-prime",
            certificate={"prime": e.prime},
            diagnostics=[str(e)],
        )
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit, as before 3.10.7
    if limit and cert.exceeds_digits(limit):
        raise CliError(f"Exceeds the limit ({limit} digits) for integer string conversion: P^-1 A^{cert.k} P")
    return Verdict(
        "accept",
        condition="lattice-power",
        certificate=lattice_certificate_to_dict(cert),
        diagnostics=[
            f"A^{cert.k} maps the lattice into itself"
            f" (proof bound: order {cert.order_bound} mod {cert.modulus})"
        ],
    )


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
    p.set_defaults(prime=2)
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
    try:
        if args.command == "expand" and not is_prime(args.prime):
            raise CliError(f"{args.prime} is not prime")
        # expand and cohopf share cmd_criterion; looked up per call, so a
        # wrapper bound to the module attribute runs
        name = "criterion" if args.command in ("expand", "cohopf") else args.command
        return _emit(globals()[f"cmd_{name}"](args), args.json)
    except (CliError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
