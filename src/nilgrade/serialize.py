"""JSON wire formats, and the one reader of wire rationals.

Rationals travel as "p/q" strings (the "/q" omitted when q = 1, which is
exactly `str(Fraction)`); matrices as row-major nested arrays of such
strings; algebras as {"dim": n, "brackets": [{"i", "j", "terms"}]} with
1-indexed i < j and omitted brackets zero.

A rational is read exactly as `fractions.Fraction(str)` reads it ("0.5" and
" 3 " too) or from a JSON int.  Entries move between JSON and the int rows
of a `QMat` or a `LieAlgebra` with no `Fraction` in between: each entry is
read as an int pair (numerator, denominator), a JSON int directly and the
plain form -?[0-9]+(/[0-9]+)? by `int()`, and a matrix, vector or bracket
table is made over the lcm of its denominators.  Every other form, and
every refusal, goes through `parse_fraction`.  Matrix entries and
polynomial coefficients are printed from their ints by
`intutil.rational_strs`.
"""

from __future__ import annotations

import re
from contextlib import suppress
from fractions import Fraction
from math import lcm

from .grading import Grading
from .intutil import rational_strs
from .liealg import LieAlgebra
from .matrices import QMat


def _bad(msg: str) -> ValueError:
    return ValueError(f"malformed input: {msg}")


def _array(data, what: str, of=object) -> list:
    if isinstance(data, list) and all(isinstance(x, of) for x in data):
        return data
    raise _bad(f"{what} must be a JSON array" + (" of objects" if of is dict else ""))


def parse_fraction(s) -> Fraction:
    if isinstance(s, str):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as e:
            raise _bad(f"cannot parse rational {s!r}") from e
    if type(s) is int:  # not bool, which JSON's true and false become
        return Fraction(s)
    raise _bad(f"rational entries must be strings or integers, got {type(s).__name__}")


_PLAIN_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _ratio(s) -> tuple[int, int]:
    """The entry s as (numerator, denominator > 0), not necessarily in
    lowest terms: a JSON int or a plain string by `int()`, anything else,
    and a refusal, by `parse_fraction`."""
    if type(s) is int:
        return s, 1
    plain = _PLAIN_RATIONAL.fullmatch(s) if isinstance(s, str) else None
    if plain is not None:
        with suppress(ValueError):  # past the int digit limit
            p, q = int(plain[1]), int(plain[2] or 1)
            if q:
                return p, q
    x = parse_fraction(s)
    return x.numerator, x.denominator


def _qmat(rows: list, shape: tuple[int, ...]) -> QMat:
    """The QMat of rows of (numerator, denominator) pairs, over their lcm."""
    d = lcm(*(q for row in rows for _, q in row))
    return QMat(([p * (d // q) for p, q in row] for row in rows), d, shape)


def _vector_ratios(data) -> list[tuple[int, int]]:
    if not isinstance(data, list):
        raise _bad("vector must be a JSON array")
    return [_ratio(e) for e in data]


def vector_from_list(data) -> QMat:
    ratios = _vector_ratios(data)
    return _qmat([ratios], (len(ratios),))


def matrix_to_lists(m: QMat) -> list[list[str]]:
    return rational_strs(m.rows, m.den)


def matrix_from_lists(data) -> QMat:
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise _bad("matrix must be a non-empty array of rows")
    if any(len(r) != len(data[0]) for r in data):
        raise _bad("matrix rows must have equal length")
    return _qmat([[_ratio(e) for e in row] for row in data], (len(data), len(data[0])))


# -- Lie algebras --------------------------------------------------------


def algebra_to_dict(algebra: LieAlgebra) -> dict:
    brackets = []
    for (i, j), vec in sorted(algebra.terms.items()):
        terms = [{"k": k + 1, "c": str(c)} for k, c in sorted(vec.items())]
        brackets.append({"i": i + 1, "j": j + 1, "terms": terms})
    return {"dim": algebra.dim, "brackets": brackets}


def algebra_from_dict(data) -> LieAlgebra:
    """The algebra of the file, its int table built directly: every
    constant is read as an int pair, the terms of a bracket are summed per
    target k in ints over the lcm of the file's denominators, zero sums
    dropped, and `LieAlgebra._from_ints` divides out the common factor."""
    if not isinstance(data, dict):
        raise _bad("algebra file must contain a JSON object")
    dim = data.get("dim")
    if type(dim) is not int or dim < 1:
        raise _bad('"dim" must be a positive integer')
    table: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for entry in _array(data.get("brackets", []), '"brackets"', dict):
        i, j = entry.get("i"), entry.get("j")
        if not (type(i) is int and type(j) is int and 1 <= i < j <= dim):
            raise _bad(f"bracket indices must satisfy 1 <= i < j <= dim, got ({i}, {j})")
        if (i - 1, j - 1) in table:
            raise _bad(f"duplicate bracket ({i}, {j})")
        terms = table[(i - 1, j - 1)] = []
        for term in _array(entry.get("terms", []), f"bracket ({i}, {j}) terms", dict):
            k = term.get("k")
            if not (type(k) is int and 1 <= k <= dim):
                raise _bad(f"bracket ({i}, {j}) has target index {k} out of range")
            terms.append((k - 1, *_ratio(term.get("c"))))
    den = lcm(*(q for terms in table.values() for _, _, q in terms))
    upper = {}
    for ij, terms in table.items():
        sums: dict[int, int] = {}
        for k, p, q in terms:
            sums[k] = sums.get(k, 0) + p * (den // q)
        nonzero = {k: c for k, c in sorted(sums.items()) if c}
        if nonzero:
            upper[ij] = nonzero
    return LieAlgebra._from_ints(dim, upper, den)


# -- weights and gradings --------------------------------------------------


def weights_from_dict(data) -> tuple[int, ...]:
    if not isinstance(data, dict) or "weights" not in data:
        raise _bad('expected {"weights": [...]}')
    ws = data["weights"]
    if not isinstance(ws, list) or not all(type(w) is int for w in ws):
        raise _bad("weights must be integers")
    return tuple(ws)


def grading_to_dict(grading: Grading) -> dict:
    return {
        "components": [
            {"weight": w, "basis": matrix_to_lists(s.T)}
            for w, s in grading.components
        ]
    }


def grading_from_dict(data) -> Grading:
    if not isinstance(data, dict) or "components" not in data:
        raise _bad('expected {"components": [...]}')
    comps = []
    for entry in _array(data["components"], '"components"'):
        if not isinstance(entry, dict) or "weight" not in entry or "basis" not in entry:
            raise _bad("each component needs a weight and a basis")
        w = entry["weight"]
        if type(w) is not int:
            raise _bad("component weights must be integers")
        vecs = [_vector_ratios(v) for v in _array(entry["basis"], "component basis")]
        if not vecs:
            raise _bad("component basis must be non-empty")
        if any(len(v) != len(vecs[0]) for v in vecs):
            raise _bad("component basis vectors must have equal length")
        comps.append((w, _qmat(list(zip(*vecs)), (len(vecs[0]), len(vecs)))))
    comps.sort(key=lambda ws: ws[0])
    return Grading(tuple(comps))


# -- holonomy, profiles, certificates ---------------------------------------


def holonomy_payload(data) -> tuple[list[QMat], int]:
    if not isinstance(data, dict) or "generators" not in data:
        raise _bad('expected {"generators": [...], "cap": n}')
    gens = [matrix_from_lists(g) for g in _array(data["generators"], '"generators"')]
    cap = data.get("cap", 1024)
    if type(cap) is not int or cap < 1:
        raise _bad('"cap" must be a positive integer')
    return gens, cap


def polynomial_to_list(p) -> list[str]:
    return rational_strs([p.ints], p.den)[0]


def profile_to_dict(profile) -> dict:
    return {
        "lcm_degree": profile.lcm_degree,
        "entries": [
            {
                "factor": polynomial_to_list(e.factor),
                "degree": e.degree,
                "basis": matrix_to_lists(e.subspace.T),
                "value": str(e.value),
            }
            for e in profile.entries
        ],
        "values": [str(v) for v in profile.flattened_values()],
    }


def lattice_certificate_to_dict(cert) -> dict:
    return {
        "primes": list(cert.primes),
        "modulus": cert.modulus,
        "k": cert.k,
        "conjugated_power": matrix_to_lists(cert.conjugated_power),
        "order_bound": cert.order_bound,
    }
