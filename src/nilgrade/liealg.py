"""Rational nilpotent Lie algebras given by structure constants.

The basis is fixed (and 1-indexed in the file format); internally indices
are 0-based.  Only brackets [X_i, X_j] with i < j are stored, so
antisymmetry is structural rather than validated data.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from . import matrices as mx
from .verdict import Verdict


class LieAlgebra:
    """dim plus the nonzero structure constants `terms` {(i, j): {k: c}},
    built from the bracket table {(i, j): coefficient vector}."""

    def __init__(self, dim: int, brackets: dict[tuple[int, int], "np.ndarray | list"]):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.dim = dim
        self.terms: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j), vec in brackets.items():
            if not (0 <= i < j < dim):
                raise ValueError(f"bracket index ({i}, {j}) out of range (need i < j)")
            v = mx.rvec(vec)
            if v.shape != (dim,):
                raise ValueError(f"bracket ({i}, {j}) has wrong length")
            terms = {k: c for k, c in enumerate(v) if c}
            if terms:
                self.terms[(i, j)] = terms

    def _terms(self, i: int, j: int) -> dict[int, Fraction]:
        """[X_i, X_j] as {k: c}, for any i and j."""
        if i < j:
            return self.terms.get((i, j), {})
        if i > j:
            return {k: -c for k, c in self.terms.get((j, i), {}).items()}
        return {}

    def bracket(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if x.shape != (self.dim,) or y.shape != (self.dim,):
            raise ValueError("vector dimension mismatch")
        out = [Fraction(0)] * self.dim
        for (i, j), terms in self.terms.items():
            c = x[i] * y[j] - x[j] * y[i]
            if c:
                for k, v in terms.items():
                    out[k] += c * v
        return np.array(out, dtype=object)

    def in_basis(self, p: np.ndarray) -> "LieAlgebra":
        """The same algebra in the basis of P's columns: c'_ab = P^-1 [P e_a, P e_b].

        Each bracket is summed over the nonzeros of the two columns only.
        """
        n = self.dim
        if p.shape != (n, n):
            raise ValueError("basis matrix dimension mismatch")
        p_inv = mx.inverse(p)
        cols = [{i: x for i, x in enumerate(p[:, a]) if x} for a in range(n)]
        table = {}
        for a in range(n):
            for b in range(a + 1, n):
                z: dict[int, Fraction] = {}
                for i, x in cols[a].items():
                    for j, y in cols[b].items():
                        for k, c in self._terms(i, j).items():
                            z[k] = z.get(k, 0) + x * y * c
                if any(z.values()):
                    table[(a, b)] = _apply(p_inv, z)
        return LieAlgebra(n, table)


def bracket(algebra: LieAlgebra, x, y) -> np.ndarray:
    return algebra.bracket(mx.rvec(x), mx.rvec(y))


# -- structure ------------------------------------------------------------


def derived_subalgebra(algebra: LieAlgebra) -> np.ndarray:
    """[n, n] as the canonical column basis: the RREF of the brackets."""
    return mx.from_rows(mx.gauss_jordan(algebra.terms.values())[0], algebra.dim).T


def _series_descent(algebra: LieAlgebra) -> tuple[list[np.ndarray], bool]:
    """Lower central series and whether it reaches zero (nilpotency)."""
    n = algebra.dim
    prev = [{i: Fraction(1)} for i in range(n)]
    series = [mx.identity(n)]
    while True:
        spans = []
        for a in range(n):
            for v in prev:  # [X_a, v]
                w: dict[int, Fraction] = {}
                for b, x in v.items():
                    for k, c in algebra._terms(a, b).items():
                        w[k] = w.get(k, 0) + x * c
                spans.append(w)
        nxt = mx.gauss_jordan(spans)[0]
        if not nxt:
            return series, True
        series.append(mx.from_rows(nxt, n).T)
        if len(nxt) == len(prev):
            # gamma_{i+1} subseteq gamma_i, so equal dim means stabilized
            return series, False
        prev = nxt


def lower_central_series(algebra: LieAlgebra) -> list[np.ndarray]:
    """gamma_1 = n, gamma_{i+1} = [n, gamma_i]; the nonzero terms."""
    return _series_descent(algebra)[0]


def nilpotency_class(algebra: LieAlgebra) -> int:
    series, nilpotent = _series_descent(algebra)
    if not nilpotent:
        raise ValueError("algebra is not nilpotent")
    return len(series)


def validate(algebra: LieAlgebra) -> Verdict:
    """Check Jacobi on all basis triples and nilpotency of the bracket."""
    n = algebra.dim
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                # [[X_i, X_j], X_k] + [[X_j, X_k], X_i] + [[X_k, X_i], X_j]
                res: dict[int, Fraction] = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for l, x in algebra._terms(a, b).items():
                        for m, y in algebra._terms(l, c).items():
                            res[m] = res.get(m, 0) + x * y
                if any(res.values()):
                    return Verdict(
                        "reject",
                        condition="jacobi",
                        certificate={
                            "triple": [i + 1, j + 1, k + 1],
                            "residual": [str(res.get(m, 0)) for m in range(n)],
                        },
                        diagnostics=[f"Jacobi identity fails on basis triple ({i+1},{j+1},{k+1})"],
                    )
    series, nilpotent = _series_descent(algebra)
    if not nilpotent:
        last = series[-1]
        return Verdict(
            "reject",
            condition="not-nilpotent",
            certificate={
                "stabilized_dimension": int(last.shape[1]),
                "stabilized_subspace": [[str(e) for e in last[:, c]] for c in range(last.shape[1])],
            },
            diagnostics=["lower central series stabilizes at a nonzero subspace"],
        )
    return Verdict(
        "accept",
        condition="nilpotent-lie-algebra",
        certificate={"nilpotency_class": len(series)},
        diagnostics=[f"Jacobi holds; nilpotency class {len(series)}"],
    )


# -- derivations -----------------------------------------------------------


def derivations(algebra: LieAlgebra) -> list[np.ndarray]:
    """Canonical basis of Der: solutions of D[x,y] = [Dx,y] + [x,Dy]."""
    n = algebra.dim
    rows: dict[tuple, None] = {}  # the distinct nonzero rows, in order
    for i in range(n):
        for j in range(i + 1, n):
            block: list[dict[int, Fraction]] = [{} for _ in range(n)]
            for p in range(n):
                for k, c in algebra._terms(p, j).items():
                    block[k][p * n + i] = block[k].get(p * n + i, 0) + c
                for k, c in algebra._terms(i, p).items():
                    block[k][p * n + j] = block[k].get(p * n + j, 0) + c
            for q, c in algebra._terms(i, j).items():
                for k in range(n):
                    block[k][k * n + q] = block[k].get(k * n + q, 0) - c
            rows.update(dict.fromkeys(tuple(sorted((v, c) for v, c in row.items() if c)) for row in block))
    rows.pop((), None)
    kernel = mx.kernel(map(dict, rows), n * n)
    return [kernel[:, c].reshape(n, n) for c in range(kernel.shape[1])]


def is_automorphism(algebra: LieAlgebra, m: np.ndarray) -> bool:
    n = algebra.dim
    if m.shape != (n, n):
        raise ValueError("matrix dimension mismatch")
    if mx.det(m) == 0:
        return False
    return violated_bracket(algebra, m) is None


def _apply(m: np.ndarray, v: dict[int, Fraction]) -> np.ndarray:
    """M v for v sparse ({k: c}): a sum of columns of M."""
    out = mx.rvec([0] * m.shape[0])
    for k, c in v.items():
        out = out + c * m[:, k]
    return out


def _first_mismatch(
    algebra: LieAlgebra, lhs: np.ndarray, products: list[tuple[np.ndarray, np.ndarray]]
) -> tuple[int, int] | None:
    """First basis pair i < j (1-indexed, lexicographic) where

        lhs C_ij != sum_(p<q) C_pq sum_(X, Y) (X_pi Y_qj - X_qi Y_pj),

    summed over the nonzero brackets, cleared once to the ints C = e c,
    and the int matrix pairs (X, Y) in `products`; None if every pair
    agrees.
    """
    n = algebra.dim
    i, j = np.nonzero(~np.tri(n, dtype=bool))  # the pairs i < j, lexicographic
    sides = [(x[:, i], y[:, j]) for x, y in products]
    cleared, _ = mx.cleared(np.array([c for t in algebra.terms.values() for c in t.values()], dtype=object))
    constants = iter(cleared)
    diff = np.zeros((n, len(i)), dtype=object)
    for (p, q), terms in algebra.terms.items():
        minors = sum(xi[p] * yj[q] - xi[q] * yj[p] for xi, yj in sides)
        col = p * (2 * n - p - 1) // 2 + q - p - 1  # the index of (p, q) among the pairs
        for k in terms:
            c = next(constants)
            diff[k] += c * minors
            diff[:, col] -= c * lhs[:, k]
    bad = np.flatnonzero((diff != 0).any(axis=0))
    return (int(i[bad[0]]) + 1, int(j[bad[0]]) + 1) if len(bad) else None


def violated_bracket(algebra: LieAlgebra, m: np.ndarray) -> tuple[int, int] | None:
    """First basis pair (1-indexed) where M[x,y] != [Mx,My], if any.

    Decided in ints: with A = d M and C = e c cleared once,

        d A C_ij == sum_(p<q) C_pq (A_pi A_qj - A_qi A_pj)

    is M[X_i, X_j] = [M X_i, M X_j] times d^2 e, so no Fraction is built.
    """
    if m.shape != (algebra.dim, algebra.dim):
        raise ValueError("matrix dimension mismatch")
    a, d = mx.cleared(m)
    return _first_mismatch(algebra, d * a, [(a, a)])


def is_derivation(algebra: LieAlgebra, d: np.ndarray) -> bool:
    """D[x,y] = [Dx,y] + [x,Dy] on every basis pair, decided in ints: with
    A = s D and C = e c cleared once,

        A C_ij == sum_(p<q) C_pq (A_pi I_qj - A_qi I_pj + I_pi A_qj - I_qi A_pj)

    is D[X_i, X_j] = [D X_i, X_j] + [X_i, D X_j] times s e.
    """
    if d.shape != (algebra.dim, algebra.dim):
        raise ValueError("matrix dimension mismatch")
    a, _ = mx.cleared(d)
    one = np.identity(algebra.dim, dtype=object)
    return _first_mismatch(algebra, a, [(a, one), (one, a)]) is None


# -- characteristic nilpotency ---------------------------------------------


PRE_FLAG_DRAWS = 8  # seeded witness draws tried before the flag


def is_characteristically_nilpotent(algebra: LieAlgebra) -> Verdict:
    """Decide whether every derivation is nilpotent, exactly.

    The flag W_0 = Q^n, W_{i+1} = sum_a D_a W_i over the canonical
    derivation basis D_a only shrinks.  It reaches 0 iff every derivation
    is nilpotent: then every product of n derivations vanishes; conversely
    Der, a Lie algebra of nilpotent maps, is strictly triangularisable
    (Engel).  A reject carries a non-nilpotent witness sum_a t_a D_a: a
    basis derivation or a seeded draw with t_a in [-n, n].  Some
    tr(D(t)^k), k <= n, is then a nonzero form of degree k, so by
    Schwartz-Zippel each draw is nilpotent with probability below 1/2.

    `PRE_FLAG_DRAWS` seeded draws with t_a in [-3, 3] run before the flag.
    They can only find a reject witness sooner, never change the decision.

    Everything runs in ints on den D_a, for den the least common
    denominator of the basis: scaling changes neither nilpotency nor a
    column space, so only a reject divides its witness by den.
    """
    n = algebra.dim
    ders = derivations(algebra)
    d = len(ders)
    if d == 0:
        return Verdict(
            "accept",
            condition="characteristically-nilpotent",
            certificate={"derivation_dim": 0},
            diagnostics=["derivation algebra is zero"],
        )

    scaled, den = mx.cleared(np.array(ders))

    def reject_if_not_nilpotent(t: list[int]) -> Verdict | None:
        witness = sum((c * D for c, D in zip(t, scaled) if c), np.zeros((n, n), dtype=object))
        if mx.is_nilpotent(witness):
            return None
        return Verdict(
            "reject",
            condition="non-nilpotent-derivation",
            certificate={
                "witness": [[str(Fraction(e, den)) for e in row] for row in witness],
                "combination": list(t),
            },
            diagnostics=["found a derivation with a nonzero eigenvalue"],
        )

    rng = random.Random(1729)  # fixed seed: deterministic output bytes
    for _ in range(PRE_FLAG_DRAWS):
        hit = reject_if_not_nilpotent([rng.randint(-3, 3) for _ in range(d)])
        if hit is not None:
            return hit

    flag = mx.identity(n)
    steps = 0
    while flag.shape[1] > 0:
        flag_int, _ = mx.cleared(flag)
        nxt = mx.col_basis(mx.hstack([D @ flag_int for D in scaled]))
        if nxt.shape[1] == flag.shape[1]:
            break
        flag = nxt
        steps += 1
    if flag.shape[1] == 0:
        return Verdict(
            "accept",
            condition="characteristically-nilpotent",
            certificate={"derivation_dim": d, "max_power": n},
            diagnostics=[f"the derivation flag reaches 0 in {steps} steps ({d} basis derivations)"],
        )

    basis = [[int(a == b) for b in range(d)] for a in range(d)]
    draws = [[rng.randint(-n, n) for _ in range(d)] for _ in range(64)]
    for t in basis + draws:
        hit = reject_if_not_nilpotent(t)
        if hit is not None:
            return hit
    raise RuntimeError("derivation flag stuck at a nonzero subspace but no witness found")  # pragma: no cover


# -- abelianization ----------------------------------------------------------


def abelianization(algebra: LieAlgebra) -> tuple[int, np.ndarray]:
    """Quotient by [n, n]: (quotient dim, projection matrix q x n).

    Coordinates on the quotient are the non-pivot coordinates of
    x - (derived-subalgebra correction); the derived basis is in column
    echelon form, so the correction is read off the pivot coordinates.
    """
    n = algebra.dim
    der = derived_subalgebra(algebra)
    pivots = [next(i for i in range(n) if der[i, c] != 0) for c in range(der.shape[1])]
    free = [i for i in range(n) if i not in pivots]
    q = len(free)
    proj = mx.zeros(q, n)
    for a, f in enumerate(free):
        proj[a, f] = Fraction(1)
        for b, p in enumerate(pivots):
            proj[a, p] = -der[f, b]
    return q, proj


def quotient_section(algebra: LieAlgebra) -> np.ndarray:
    """Right inverse of the abelianization projection (free-coordinate lift)."""
    n = algebra.dim
    der = derived_subalgebra(algebra)
    pivots = [next(i for i in range(n) if der[i, c] != 0) for c in range(der.shape[1])]
    free = [i for i in range(n) if i not in pivots]
    sec = mx.zeros(n, len(free))
    for a, f in enumerate(free):
        sec[f, a] = Fraction(1)
    return sec


def induced_map(algebra: LieAlgebra, m: np.ndarray) -> np.ndarray:
    """Matrix induced on n/[n,n] by an automorphism."""
    if not is_automorphism(algebra, m):
        raise ValueError("matrix is not an automorphism of the algebra")
    _, proj = abelianization(algebra)
    sec = quotient_section(algebra)
    return mx.matmul(mx.matmul(proj, m), sec)
