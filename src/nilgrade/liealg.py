"""Rational nilpotent Lie algebras given by structure constants.

The basis is fixed (and 1-indexed in the file format); internally indices
are 0-based.  Only brackets [X_i, X_j] with i < j are given, so
antisymmetry is structural rather than validated data.

The exact kernels run on Python ints: an algebra holds its structure
constants only as one int table over one denominator and one index of
it by left factor, set by one setter behind the constructor and
`_from_ints`; `terms`, the constants as Fractions, is made only when
read.  Everything reads the index, so each sum costs what the nonzero
constants it meets do, not C(n, 3) triples or n^2 pairs: Jacobi runs
over the nonzero products c_ab^l c_lc^m, the lower central series
brackets a vector only with the basis elements it meets, one bracket
kernel (`LieAlgebra._brackets`) forms [A e_i, A e_j] for `bracket`,
`in_basis` and `violated_bracket`, and one row builder
(`_derivation_rows`) poses the derivation identity for `derivations` and
`is_derivation`.  The derivation basis is returned sparse, as int
matrices over their denominators, and the characteristic-nilpotency
test (traces, the Engel flag and Cartan's criterion, with no draw) works
on it directly, and a Jacobi residual or a derivation witness is printed
from its ints (`intutil.rational_strs`).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from . import matrices as mx
from .matrices import QMat
from .intutil import rational_strs
from .verdict import Verdict


_ZERO: dict[int, int] = {}  # the empty sparse vector for lookups that miss; never written


class LieAlgebra:
    """dim plus the nonzero structure constants, held as ints C = e c over
    one denominator e = `den`, in lowest terms: one table, `upper`
    {(i, j): {k: C}} for the pairs i < j as the file gives them, and one
    index of it, `by_left`, in both orientations: by_left[i][j] is
    [X_i, X_j] (so by_left[j][i] is its negation).  Scaling every constant
    by e is the isomorphism x -> x / e, so Jacobi zeros, the lower central
    series and the derivation kernel are those of C.  `terms`, the
    rational constants, makes Fractions when read.
    """

    def __init__(self, dim: int, brackets: dict[tuple[int, int], "QMat | list"]):
        """The algebra of the bracket table {(i, j): coefficient vector}."""
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        vecs = {}
        for (i, j), vec in brackets.items():
            if not (0 <= i < j < dim):
                raise ValueError(f"bracket index ({i}, {j}) out of range (need i < j)")
            vecs[(i, j)] = v = mx.rvec(vec)
            if v.shape != (dim,):
                raise ValueError(f"bracket ({i}, {j}) has wrong length")
        den = lcm(*(v.den for v in vecs.values()))
        upper = {ij: {k: c * (den // v.den) for k, c in enumerate(v.rows[0]) if c} for ij, v in vecs.items()}
        self._store(dim, upper, den)

    @classmethod
    def _from_ints(cls, dim: int, upper: dict[tuple[int, int], dict[int, int]], den: int) -> "LieAlgebra":
        """The algebra with constants upper[(i, j)][k] / den, nonzero, i < j,
        without the constructor's parsing."""
        out = cls.__new__(cls)
        out._store(dim, upper, den)
        return out

    def _store(self, dim: int, upper: dict[tuple[int, int], dict[int, int]], den: int) -> None:
        """Set the tables from the nonzero int constants of the pairs i < j
        over den > 0, both divided by their gcd once, which leaves den the
        least denominator; a pair with no constant is left out."""
        g = gcd(den, *(c for t in upper.values() for c in t.values()))
        self.dim, self.den = dim, den // g
        self.upper = {ij: {k: c // g for k, c in t.items()} for ij, t in upper.items() if t}
        self.by_left: list[dict[int, dict[int, int]]] = [{} for _ in range(dim)]
        for (i, j), terms in self.upper.items():
            self.by_left[i][j] = terms
            self.by_left[j][i] = {k: -c for k, c in terms.items()}

    @property
    def terms(self) -> dict[tuple[int, int], dict[int, Fraction]]:
        """The rational constants {(i, j): {k: c}}, i < j, nonzero."""
        return {ij: {k: Fraction(c, self.den) for k, c in t.items()} for ij, t in self.upper.items()}

    def _brackets(self, cols):
        """(i, j, [A e_i, A e_j]_C) for the pairs i < j of the int columns
        A e_i in `cols`, in lexicographic order, each a dense int list:
        [x, y]_C = sum_(p, q) x_p y_q C_pq in the int constants C = e c,
        summed over the nonzeros x_p of A e_i and the X_q that X_p meets
        in `by_left` only.  The one bracket kernel of `bracket`, `in_basis`
        and `violated_bracket`."""
        n = self.dim
        for i, col in enumerate(cols):
            rows = [(x, self.by_left[p]) for p, x in enumerate(col) if x]
            for j in range(i + 1, len(cols)):
                y, out = cols[j], [0] * n
                for x, row in rows:
                    for q, terms in row.items():
                        if y[q]:
                            xy = x * y[q]
                            for k, c in terms.items():
                                out[k] += xy * c
                yield i, j, out

    def bracket(self, x: QMat, y: QMat) -> QMat:
        """[x, y], in ints: the kernel on A = [x | y] (the int entries of x
        and y), over the product of the three denominators."""
        if x.shape != (self.dim,) or y.shape != (self.dim,):
            raise ValueError("vector dimension mismatch")
        ((_, _, out),) = self._brackets(x.rows + y.rows)
        return QMat((out,), x.den * y.den * self.den, (self.dim,))

    def in_basis(self, p: QMat, inverse: QMat | None = None) -> "LieAlgebra":
        """The same algebra in the basis of P's columns: c'_ab = P^-1 [P e_a, P e_b].

        Runs in ints: with A = d P, B = d' P^-1 (the rows of P and of its
        inverse) and the int constants C = e c, c'_ab = B [A e_a, A e_b]_C
        / (d' e d^2), the brackets from the kernel (`_brackets`), and the
        int table goes to the new algebra as it is (`_from_ints`).
        `inverse` is P^-1 when the caller has it.
        """
        n = self.dim
        if p.shape != (n, n):
            raise ValueError("basis matrix dimension mismatch")
        b = mx.inverse(p) if inverse is None else inverse
        b_cols = b.T.rows
        table = {}
        for i, j, z in self._brackets(p.T.rows):
            out = [0] * n
            for k, c in enumerate(z):
                if c:
                    out = [o + c * v for o, v in zip(out, b_cols[k])]
            if any(out):
                table[(i, j)] = {k: o for k, o in enumerate(out) if o}
        return LieAlgebra._from_ints(n, table, b.den * self.den * p.den**2)


def bracket(algebra: LieAlgebra, x, y) -> QMat:
    return algebra.bracket(mx.rvec(x), mx.rvec(y))


# -- structure ------------------------------------------------------------


def derived_subalgebra(algebra: LieAlgebra) -> QMat:
    """[n, n] as the canonical column basis: the RREF of the brackets,
    read as the int constants C = e c, which span the same space."""
    return mx.span_basis(algebra.upper.values(), algebra.dim)


def _series_descent(algebra: LieAlgebra) -> tuple[list[list[dict[int, int]]], bool]:
    """Lower central series, each term as its primitive int echelon rows,
    and whether it reaches zero (nilpotency).

    gamma_{i+1} is spanned by the [v, X_a] for v in gamma_i's rows, and
    [v, X_a] = sum_b v_b [X_b, X_a] is zero unless X_a meets some X_b in
    the support of v, so only those a are bracketed."""
    n = algebra.dim
    prev = [{i: 1} for i in range(n)]
    series = [prev]
    while True:
        spans = []
        for v in prev:
            brackets: dict[int, dict[int, int]] = {}  # a -> [v, X_a], times e
            for b, x in v.items():
                for a, terms in algebra.by_left[b].items():
                    w = brackets.setdefault(a, {})
                    for k, c in terms.items():
                        w[k] = w.get(k, 0) + x * c
            spans += brackets.values()
        nxt = mx.echelon(spans)
        if not nxt:
            return series, True
        series.append(nxt)
        if len(nxt) == len(prev):
            # gamma_{i+1} subseteq gamma_i, so equal dim means stabilized
            return series, False
        prev = nxt


def lower_central_series(algebra: LieAlgebra) -> list[QMat]:
    """gamma_1 = n, gamma_{i+1} = [n, gamma_i]; the nonzero terms."""
    return [mx.span_basis(rows, algebra.dim) for rows in _series_descent(algebra)[0]]


def nilpotency_class(algebra: LieAlgebra) -> int:
    series, nilpotent = _series_descent(algebra)
    if not nilpotent:
        raise ValueError("algebra is not nilpotent")
    return len(series)


def validate(algebra: LieAlgebra) -> Verdict:
    """Check Jacobi on all basis triples and nilpotency of the bracket.

    The Jacobi sum of i < j < k is sum_l C_ab^l C_lc^m over its cyclic
    orders (a, b, c), in the int constants C = e c, so the residual is e^2
    times the rational one.  Only nonzero products are visited: each
    nonzero C_ab^l meets the C_lc^m in `by_left[l]`, and the product goes
    to the triple {a, b, c} when (a, b, c) is a cyclic order of it, which
    holds for one of the two orientations of (a, b).  The least triple
    with a nonzero sum fails, with that sum.
    """
    n = algebra.dim
    sums: dict[tuple[int, int, int], dict[int, int]] = {}
    for a, row in enumerate(algebra.by_left):
        for b, terms in row.items():
            for l, x in terms.items():
                for c, product in algebra.by_left[l].items():
                    if a < b < c or b < c < a or c < a < b:
                        res = sums.setdefault(tuple(sorted((a, b, c))), {})
                        for m, y in product.items():
                            res[m] = res.get(m, 0) + x * y
    failing = [t for t, res in sums.items() if any(res.values())]
    if failing:
        i, j, k = triple = min(failing)
        res, e2 = sums[triple], algebra.den**2
        return Verdict(
            "reject",
            condition="jacobi",
            certificate={
                "triple": [i + 1, j + 1, k + 1],
                "residual": rational_strs([[res.get(m, 0) for m in range(n)]], e2)[0],
            },
            diagnostics=[f"Jacobi identity fails on basis triple ({i+1},{j+1},{k+1})"],
        )
    series, nilpotent = _series_descent(algebra)
    if not nilpotent:
        last = mx.span_basis(series[-1], n)
        return Verdict(
            "reject",
            condition="not-nilpotent",
            certificate={
                "stabilized_dimension": int(last.shape[1]),
                "stabilized_subspace": [[str(e) for e in col] for col in last.T],
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


# (columns {i: {p: a}}, den): the map X_i -> sum_p a X_p / den
SparseMap = tuple[dict[int, dict[int, int]], int]


def _derivation_rows(algebra: LieAlgebra):
    """The rows of D[X_i, X_j] = [D X_i, X_j] + [X_i, D X_j], one for each
    pair i < j and component k, where unknown p n + i is the entry D[p, i]:

        sum_p D[p, i] C_pj^k + sum_p D[p, j] C_ip^k - sum_q C_ij^q D[k, q],

    posed on the int constants C = e c, e times the rational equation, so
    the kernel is the same.  Each sum runs over the constants the pair
    meets in `by_left` only (C_pj = -by_left[j][p]).  A row may be zero.
    The one derivation system of `derivations` and `is_derivation`.
    """
    n = algebra.dim
    for i, left in enumerate(algebra.by_left):
        for j in range(i + 1, n):
            block: dict[int, dict[int, int]] = {}  # component k -> its row
            for met, a, sign in ((algebra.by_left[j], i, -1), (left, j, 1)):
                for p, terms in met.items():
                    for k, c in terms.items():
                        row = block.setdefault(k, {})
                        row[p * n + a] = row.get(p * n + a, 0) + sign * c
            for q, c in left.get(j, _ZERO).items():
                for k in range(n):
                    row = block.setdefault(k, {})
                    row[k * n + q] = row.get(k * n + q, 0) - c
            yield from block.values()


def derivations(algebra: LieAlgebra) -> list[SparseMap]:
    """Canonical basis of Der, sparse: the kernel of `_derivation_rows`."""
    n = algebra.dim
    rows = dict.fromkeys(frozenset((v, c) for v, c in row.items() if c) for row in _derivation_rows(algebra))
    rows.pop(frozenset(), None)
    out = []
    for vec, den in mx.sparse_kernel(map(dict, rows), n * n):
        cols: dict[int, dict[int, int]] = {}
        for v, a in vec.items():
            cols.setdefault(v % n, {})[v // n] = a
        out.append((cols, den))
    return out


def _image(cols: dict[int, dict[int, int]], v: dict[int, int]) -> dict[int, int]:
    """A v for a sparse int map A (its columns) and a sparse int vector v."""
    out: dict[int, int] = {}
    for i, x in v.items():
        for p, a in cols.get(i, _ZERO).items():
            out[p] = out.get(p, 0) + x * a
    return out


def is_automorphism(algebra: LieAlgebra, m: QMat) -> bool:
    return violated_bracket(algebra, m) is None and mx.det(m) != 0


def violated_bracket(algebra: LieAlgebra, m: QMat) -> tuple[int, int] | None:
    """First basis pair (1-indexed) where M[x,y] != [Mx,My], if any.

    Decided in ints: with A = d M (the rows of M) and the int constants
    C = e c,

        d A C_ij == [A e_i, A e_j]_C

    is M[X_i, X_j] = [M X_i, M X_j] times d^2 e, so no Fraction is built;
    the right side is the bracket kernel's (`_brackets`).
    """
    n = algebra.dim
    if m.shape != (n, n):
        raise ValueError("matrix dimension mismatch")
    cols = m.T.rows
    for i, j, z in algebra._brackets(cols):
        lhs = [0] * n
        for k, c in algebra.upper.get((i, j), _ZERO).items():
            lhs = [o + m.den * c * v for o, v in zip(lhs, cols[k])]
        if lhs != z:
            return i + 1, j + 1
    return None


def is_derivation(algebra: LieAlgebra, d: QMat) -> bool:
    """D[x,y] = [Dx,y] + [x,Dy] on every basis pair: every row of
    `_derivation_rows` vanishes on s D, the int entries of D, read in
    row-major order as the unknowns p n + i."""
    if d.shape != (algebra.dim, algebra.dim):
        raise ValueError("matrix dimension mismatch")
    flat = [x for row in d.rows for x in row]
    return not any(sum(c * flat[v] for v, c in row.items()) for row in _derivation_rows(algebra))


# -- characteristic nilpotency ---------------------------------------------


def _trace_product(a: dict[int, dict[int, int]], b: dict[int, dict[int, int]]) -> int:
    """tr(A B) for sparse int maps A, B (their columns): sum A[p, i] B[i, p]."""
    return sum(x * b.get(p, _ZERO).get(i, 0) for i, col in a.items() for p, x in col.items())


def is_characteristically_nilpotent(algebra: LieAlgebra) -> Verdict:
    """Decide whether every derivation is nilpotent, exactly and without
    draws, over the canonical derivation basis D_a, in this order:

    1. reject with the first D_a of nonzero trace;
    2. accept when the Engel flag W_0 = Q^n, W_{i+1} = sum_a D_a W_i
       reaches 0, which it does iff every derivation is nilpotent (Engel);
    3. else reject with the first D_a that is not nilpotent;
    4. else with D_a + D_b for the first a < b with tr(D_a D_b) != 0:
       tr((D_a + D_b)^2) = 2 tr(D_a D_b), so it is not nilpotent.

    Step 4 always finds a pair: were every D_a nilpotent and every
    tr(D_a D_b) zero, the trace form of Der would vanish, so Der would be
    solvable (Cartan's criterion), hence triangular over Q-bar with
    diagonal entries linear in D (Lie's theorem), which vanish on the
    basis; every derivation would be nilpotent and the flag reach 0.

    All of it reads the sparse ints A_a = den_a D_a (scaling keeps a
    trace's sign, nilpotency and a span); only a reject's witness, e_a or
    e_a + e_b in the `combination`, is made dense and divided back.
    """
    n = algebra.dim
    ders = derivations(algebra)
    d = len(ders)  # >= 1 on a Lie algebra: ad n, or gl(n) if n is abelian
    den = lcm(*(e for _, e in ders))

    def dense(*support: int) -> list[list[int]]:  # den sum_(a in support) D_a, in ints
        m = [[0] * n for _ in range(n)]
        for a in support:
            cols, e = ders[a]
            for i, col in cols.items():
                for p, x in col.items():
                    m[p][i] += den // e * x
        return m

    def reject(*support: int) -> Verdict:
        return Verdict(
            "reject",
            condition="non-nilpotent-derivation",
            certificate={
                "witness": rational_strs(dense(*support), den),
                "combination": [int(a in support) for a in range(d)],
            },
            diagnostics=["found a derivation with a nonzero eigenvalue"],
        )

    for a, (cols, _) in enumerate(ders):
        if sum(col.get(i, 0) for i, col in cols.items()):
            return reject(a)

    flag = [{i: 1} for i in range(n)]
    steps = 0
    while flag:
        nxt = mx.echelon(_image(cols, w) for cols, _ in ders for w in flag)
        if len(nxt) == len(flag):
            break
        flag = nxt
        steps += 1
    if not flag:
        return Verdict(
            "accept",
            condition="characteristically-nilpotent",
            certificate={"derivation_dim": d, "max_power": n},
            diagnostics=[f"the derivation flag reaches 0 in {steps} steps ({d} basis derivations)"],
        )

    for a in range(d):
        if not mx.is_nilpotent_int(dense(a)):
            return reject(a)
    pairs = ((a, b) for a in range(d) for b in range(a + 1, d))
    return reject(*next((a, b) for a, b in pairs if _trace_product(ders[a][0], ders[b][0])))


# -- abelianization ----------------------------------------------------------


def _quotient(algebra: LieAlgebra) -> tuple[QMat, QMat]:
    """The projection onto n/[n, n] (q x n) and its free-coordinate
    section (n x q), from one pass over [n, n].

    Coordinates on the quotient are the non-pivot coordinates of
    x - (derived-subalgebra correction); the derived basis is in column
    echelon form, so the correction is read off the pivot coordinates.
    Both are built in ints: the projection over the derived basis's
    denominator e, with e at each free coordinate.
    """
    n = algebra.dim
    der = derived_subalgebra(algebra)
    pivots = [next(i for i, x in enumerate(col) if x) for col in der.T.rows]
    free = [i for i in range(n) if i not in pivots]
    proj = [[0] * n for _ in free]
    for a, f in enumerate(free):
        proj[a][f] = der.den
        for b, p in enumerate(pivots):
            proj[a][p] = -der.rows[f][b]
    sec = [[int(f == i) for f in free] for i in range(n)]
    return QMat(proj, der.den, (len(free), n)), QMat(sec, 1, (n, len(free)))


def abelianization(algebra: LieAlgebra) -> tuple[int, QMat]:
    """Quotient by [n, n]: (quotient dim, projection matrix q x n)."""
    proj, _ = _quotient(algebra)
    return proj.shape[0], proj


def quotient_section(algebra: LieAlgebra) -> QMat:
    """Right inverse of the abelianization projection (free-coordinate lift)."""
    return _quotient(algebra)[1]


def induced_map(algebra: LieAlgebra, m: QMat) -> QMat:
    """Matrix induced on n/[n,n] by an automorphism."""
    if not is_automorphism(algebra, m):
        raise ValueError("matrix is not an automorphism of the algebra")
    proj, sec = _quotient(algebra)
    return mx.matmul(mx.matmul(proj, m), sec)
