"""Dense reference implementations that the sparse kernels replaced.

Each function here is the earlier library code, kept as the oracle the
tests compare against: a dense Gauss-Jordan row loop on numpy object
arrays, forward elimination for the determinant, Faddeev-LeVerrier in
Fractions, the bracket that loops over the whole table, the Jacobi loop
and lower central series built on it, the dense derivation system, the
dense automorphism and derivation checks, the minimal polynomial from the
first linear dependence among the powers of a matrix, Horner's rule in
Fractions, Kronecker's factorization over Q (rational roots, then an
evaluate/interpolate search over divisors of values, exponential in the
degree), and the grading check that solves one linear system per nonzero
bracket of two component basis vectors.  The norm path's Fraction
kernels are kept the same way: Euclid's gcd and Yun's squarefree
decomposition on `Polynomial`s, the primary decomposition through p(M)
by Horner in Fractions, its power and the dense kernel and column basis,
the column-space test that compares canonical bases and the one that
compares ranks (rank A = rank B = rank [A | B]), the semisimplicity
test g(M) = 0, and Fourier-Motzkin on Fraction rows scaled by their
first coefficient, fed by the substitution of the dependent variables
that built one dense Fraction row per inequality.  They read only `LieAlgebra.dim`
and the dense table that `dense_table` builds from `LieAlgebra.terms`.
The grading witnesses are kept as they were before they read the
grading's one cleared inverse: phi_p as Fraction products with a
Fraction inverse, and the preservation test that compares the column
spaces of psi S and S by rank, component by component.  So is the int
Jacobi check on `LieAlgebra.ints` that visits all C(n, 3) basis
triples, with the lower central series that brackets every row with
every basis element.
The Fraction loop that `latpow`'s integer orbit scan replaced is kept the
same way, as is the sequential least-exponent descent that the product
tree replaced; so are lattice membership by a triangular solve on the
Hermite form, which the lattice's one inverse replaced, the long
division in Fractions, which the pseudo-division of the cleared operands
replaced, and the extended Euclid (`poly_xgcd`) that the semisimple part
no longer needs; and so is the characteristic-nilpotency test with its
Engel flag and witness sums in Fractions on the dense derivation system,
and the holonomy conditions tested on every element of F rather than on
its generators, with `group_elements`, the breadth-first closure that
once listed F in `HolonomyGroup`.  The wire readers and printer are kept
as they were before `serialize` moved entries between JSON and int rows:
one `Fraction` per entry read (`parse_fraction`), a vector, matrix or
component basis built from Fractions by `rvec` and `rmat`, bracket terms
summed in Fractions, and one `Fraction` per entry printed.  `preserved_weights_brute_force` was never library code:
it enumerates a box of weights and keeps those whose grading every
element of F preserves, without the zero-pattern rule of `find_weights`.
`derivation_matrices` is no oracle: it densifies the library's sparse
derivation basis for the tests that need matrices, and neither are
`diag`, `is_integral` and `solve_linear` (one exact solution of A x = b
by `rref`), small matrix helpers that no library code calls.  Nor are
`dense`, `zeros`, `identity`, `mat_eq` and `flat`: the library's
`QMat` is immutable, so the tests build matrices entry by entry in
mutable numpy object arrays of Fractions and compare either kind by
shape and entries.  `is_nilpotent`, `gauss_jordan` (the RREF as
Fraction rows, from `matrices.echelon`), `squarefree_decomposition`
(Yun in Z[X], made monic) and `is_monic` are library functions that only
tests called.
The expansion and self-cover checks are kept as the two functions they
were, `check_expinfra` and `check_covinfra`, each with its own map test
(`is_expanding`, and `is_z_charpoly` with |det| > 1) and the shared
`_check_map_condition`; so is `semisimple_part` with its iteration cap.

Also the ladder algebras L_n, H_{2m+1} and N_{r,c}, built from first
principles (N_{r,c} from Lie words in the free associative algebra).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import ceil, gcd, log2

import numpy as np

from nilgrade import holonomy
from nilgrade import matrices as mx
from nilgrade.intutil import cleared, factor_int, frac, is_prime, primitive
from nilgrade.grading import Grading, grading_from_weights, verify_grading, weight_equations
from nilgrade.liealg import LieAlgebra, derivations, is_automorphism, violated_bracket
from nilgrade.linineq import solve
from nilgrade.polynomials import (
    ONE,
    Polynomial,
    _yun,
    factor_order_key,
    factor_over_q,
    squarefree_part,
)
from nilgrade.serialize import _array, _bad, matrix_to_lists, parse_fraction
from nilgrade.specmaps import is_expanding
from nilgrade.verdict import Verdict


# -- matrices in tests ---------------------------------------------------------


def dense(a) -> np.ndarray:
    """A mutable numpy object array of the Fraction entries of a QMat, an
    array or nested lists, in the same shape."""
    shape = a.shape if hasattr(a, "shape") else np.shape(a)
    values = [frac(e) for e in flat(a)]
    out = np.empty(shape, dtype=object)
    out.flat[:] = values
    return out


def flat(a) -> list:
    """The entries of a QMat, an array or nested lists, row-major."""
    items = a.tolist() if hasattr(a, "tolist") else a
    if items and isinstance(items[0], list):
        return [e for row in items for e in row]
    return list(items)


def mat_eq(a, b) -> bool:
    """Equal shapes and entries, for QMats and arrays alike."""
    return tuple(a.shape) == tuple(b.shape) and flat(a) == flat(b)


def qmat(a) -> mx.QMat:
    """`matrices.rmat` of a matrix of any shape, an empty one too."""
    return mx.rmat(a) if a.shape[0] else mx.zeros(*a.shape)


def zeros(r: int, c: int) -> np.ndarray:
    out = np.empty((r, c), dtype=object)
    out[...] = Fraction(0)
    return out


def identity(n: int) -> np.ndarray:
    out = zeros(n, n)
    for i in range(n):
        out[i, i] = Fraction(1)
    return out


def diag(entries) -> mx.QMat:
    es = [frac(e) for e in entries]
    return mx.rmat([[e if i == j else 0 for j in range(len(es))] for i, e in enumerate(es)])


def is_integral(a) -> bool:
    return all(frac(e).denominator == 1 for e in flat(a))


def is_nilpotent(m) -> bool:
    """M^n = 0, by repeated squaring of the int rows of M."""
    return mx.is_nilpotent_int(mx.rmat(m).rows)


def gauss_jordan(rows):
    """The nonzero rows of the RREF of sparse rows ({column: value}), in
    pivot order and as Fractions, and their pivot columns: `matrices.echelon`
    with each primitive row divided by its lead."""
    ints = mx.echelon(rows)
    pivots = [min(r) for r in ints]
    return [{c: Fraction(v, r[p]) for c, v in r.items()} for r, p in zip(ints, pivots)], pivots


def squarefree_decomposition(p):
    """Yun decomposition: p = lc * prod s_i^i with the s_i monic,
    squarefree and coprime, computed in Z[X]."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    return [(Polynomial(s).monic(), i) for s, i in _yun(primitive(p.ints))]


def is_monic(p) -> bool:
    return not p.is_zero() and p.coeffs[-1] == 1


def solve_linear(a, b) -> mx.QMat | None:
    """One exact solution of a x = b (free variables 0), or None."""
    nr, nc = a.shape
    aug = mx.rmat([list(row) + [x] for row, x in zip(dense(a).tolist(), flat(b))]) if nr else mx.zeros(0, nc + 1)
    red, pivots = mx.rref(aug)
    if nc in pivots:
        return None
    x = [Fraction(0)] * nc
    for r, c in enumerate(pivots):
        x[c] = red[r, nc]
    return mx.rvec(x)


def rref_dense(a):
    """Reduced row echelon form (copy) and its pivot columns."""
    m = dense(a)
    nr, nc = m.shape
    pivots = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if m[i, c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        m[r] = m[r] * (Fraction(1) / m[r, c])
        for i in range(nr):
            if i != r and m[i, c] != 0:
                m[i] = m[i] - m[i, c] * m[r]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return m, pivots


def nullspace_dense(a):
    nr, nc = a.shape
    red, pivots = rref_dense(a)
    free = [c for c in range(nc) if c not in pivots]
    out = zeros(nc, len(free))
    for k, fc in enumerate(free):
        out[fc, k] = Fraction(1)
        for r, pc in enumerate(pivots):
            out[pc, k] = -red[r, fc]
    return out


def col_basis_dense(a):
    red, pivots = rref_dense(dense(a).T)
    return red[: len(pivots)].T.copy()


def det_fraction(a):
    """Forward elimination over Q: the product of the pivots, negated on
    each row swap."""
    m = [list(row) for row in a]
    n = len(m)
    out = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            out = -out
        out *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return out


def charpoly_fraction(m):
    """det(X I - M) by Faddeev-LeVerrier in Fractions."""
    n = m.shape[0]
    m = dense(m)
    coeffs_desc = [Fraction(1)]
    a = m.copy()
    c = -sum(a[i, i] for i in range(n))
    coeffs_desc.append(c)
    for k in range(2, n + 1):
        a = m @ (a + c * identity(n))
        c = -sum(a[i, i] for i in range(n)) / k
        coeffs_desc.append(c)
    return Polynomial(reversed(coeffs_desc))


def minpoly(m):
    """Monic minimal polynomial via first linear dependence of powers."""
    n = m.shape[0]
    m = dense(m)
    powers = [identity(n)]
    for k in range(1, n + 1):
        powers.append(powers[-1] @ m)
        stacked = np.stack([p.reshape(n * n) for p in powers[:k]], axis=1)
        x = solve_linear(stacked, powers[k].reshape(n * n))
        if x is not None:
            return Polynomial(list(-x) + [Fraction(1)])
    raise AssertionError("Cayley-Hamilton violated")


def eval_poly_fraction(p, m):
    """p(M) by Horner's rule in Fractions."""
    n = m.shape[0]
    m = dense(m)
    acc = zeros(n, n)
    for c in reversed(p.coeffs):
        acc = acc @ m + c * identity(n)
    return acc


def primary_decomposition_fraction(m):
    """`matrices.primary_decomposition` as p(M) by Horner in Fractions,
    raised to the multiplicity by Fraction products, and the canonical
    column basis of its kernel, both by dense Gauss-Jordan."""
    out = []
    for p, mult in factor_over_q(mx.charpoly(mx.rmat(m))):
        pm = k = eval_poly_fraction(p, m)
        for _ in range(mult - 1):
            k = k @ pm
        out.append((p, col_basis_dense(nullspace_dense(k))))
    return out


def col_spaces_equal_basis(a, b):
    """`col_spaces_equal` as equality of canonical column bases."""
    return mat_eq(col_basis_dense(a), col_basis_dense(b))


def rank(a):
    """The number of pivot rows of the RREF of A, read on the int rows of
    `mx.rmat(A)`."""
    return len(mx.echelon({c: v for c, v in enumerate(row) if v} for row in mx.rmat(a).rows))


def col_spaces_equal(a, b):
    """Whether the columns of A and of B span the same space:
    rank A = rank B = rank [A | B], with no RREF made."""
    if a.shape[0] != b.shape[0]:
        return False
    r = rank(a)
    return r == rank(b) == rank(np.concatenate([dense(a), dense(b)], axis=1))


def is_semisimple(m):
    """g(M) = 0 for g the squarefree part of the characteristic polynomial."""
    g = squarefree_part_fraction(mx.charpoly(m))
    return all(e == 0 for e in flat(eval_poly_fraction(g, m)))


# -- polynomials over Q in Fractions ----------------------------------------------


def from_roots(roots):
    p = ONE
    for r in roots:
        p = p * Polynomial([-Fraction(r), 1])
    return p


def divmod_fraction(a, b):
    """Quotient and remainder of a by b != 0 by long division in Fractions."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    d = b.degree
    lc = b.coeffs[-1]
    if a.degree < d:
        return Polynomial([]), a
    quo = [Fraction(0)] * (a.degree - d + 1)
    for k in range(a.degree - d, -1, -1):
        q = rem[k + d] / lc
        quo[k] = q
        if q != 0:
            for j, c in enumerate(b.coeffs):
                rem[k + j] -= q * c
    return Polynomial(quo), Polynomial(rem)


def poly_xgcd(a, b):
    """(g, u, v) with u*a + v*b = g, g the monic gcd (all zero for
    a = b = 0), by the extended Euclidean algorithm."""
    zero = Polynomial([])
    r0, r1 = a, b
    u0, u1 = ONE, zero
    v0, v1 = zero, ONE
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if r0.is_zero():
        return zero, zero, zero
    inv = Fraction(1) / r0.coeffs[-1]
    return r0.monic(), u0 * inv, v0 * inv


def poly_gcd(a, b):
    """Monic gcd by Euclid in Fractions; gcd(0, 0) = 0."""
    while not b.is_zero():
        a, b = b, a % b
    return a if a.is_zero() else a.monic()


def squarefree_part_fraction(p):
    """p / gcd(p, p'), made monic, in Fractions."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    g = poly_gcd(p, p.derivative())
    return p.monic() if g.degree <= 0 else (p // g).monic()


def squarefree_decomposition_fraction(p):
    """Yun's decomposition in Fractions: p = lc * prod s_i^i, s_i monic."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    p = p.monic()
    if p.degree == 0:
        return []
    dp = p.derivative()
    g = poly_gcd(p, dp)
    if g.degree == 0:
        return [(p, 1)]
    out = []
    c = p // g
    d = dp // g - c.derivative()
    i = 1
    while c.degree > 0:
        a = poly_gcd(c, d)
        if a.degree > 0:
            out.append((a, i))
            c = c // a
            d = d // a
        d = d - c.derivative()
        i += 1
    return out


# -- Kronecker's factorization over Q ------------------------------------------


def divisors(n):
    """All positive divisors of n != 0, ascending."""
    ds = [1]
    for q, e in factor_int(abs(n)).items():
        ds = [d * q**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def _rational_roots(ints):
    """All rational roots of a primitive integer polynomial (no multiplicity)."""
    roots = []
    if ints[0] == 0:
        roots.append(Fraction(0))
        while ints[0] == 0:
            ints = ints[1:]
    if len(ints) <= 1:
        return roots
    p = Polynomial(ints)
    seen = set()
    for num in divisors(ints[0]):
        for den in divisors(ints[-1]):
            if gcd(num, den) != 1:
                continue
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if cand not in seen:
                    seen.add(cand)
                    if p(cand) == 0:
                        roots.append(cand)
    return roots


def _interpolate(points):
    """Lagrange interpolation through integer points, exact."""
    acc = Polynomial([])
    for i, (xi, yi) in enumerate(points):
        term = Polynomial([yi])
        for j, (xj, _) in enumerate(points):
            if i != j:
                term = term * Polynomial([Fraction(-xj, xi - xj), Fraction(1, xi - xj)])
        acc = acc + term
    return acc


def _kronecker_factor(h, max_deg):
    """The first factor of degree 2..max_deg of a primitive integer h
    without rational roots, scanning degrees upward (so irreducible), or None."""
    points = []
    x = 0
    while len(points) < max_deg + 1:
        points.append(x)
        x = -x if x > 0 else -x + 1
    divisor_lists = [divisors(int(h(pt))) for pt in points]
    for e in range(2, max_deg + 1):
        xs = points[: e + 1]
        # the sign of the first value can be fixed: g and -g divide together
        choices = [divisor_lists[0]] + [[s * d for s in (1, -1) for d in ds] for ds in divisor_lists[1 : e + 1]]
        for values in itertools.product(*choices):
            g = _interpolate(list(zip(xs, values)))
            if g.degree == e and all(c.denominator == 1 for c in g.coeffs) and g.divides(h):
                return g
    return None


def factor_kronecker(p):
    """`factor_over_q` by Yun's squarefree decomposition, rational roots and
    Kronecker's interpolation search."""
    found = {}
    for sqf, mult in squarefree_decomposition_fraction(p):
        ints = primitive(cleared(sqf.coeffs)[0])
        work = Polynomial(ints)
        irreducibles = []
        for r in _rational_roots(ints):
            irreducibles.append(Polynomial([-r, 1]))
            work = work // Polynomial([-r, 1])
        while work.degree > 0:
            g = _kronecker_factor(Polynomial(primitive(cleared(work.coeffs)[0])), work.degree // 2) if work.degree > 3 else None
            if g is None:
                irreducibles.append(work.monic())
                break
            irreducibles.append(g.monic())
            work = work // g
        for irr in irreducibles:
            found[irr] = found.get(irr, 0) + mult
    return sorted(found.items(), key=lambda fm: factor_order_key(fm[0]))


# -- Fourier-Motzkin in Fractions ----------------------------------------------


def _normalized(coeffs, rhs):
    scale = next((abs(c) for c in coeffs if c != 0), None)
    if scale is None:
        return tuple(coeffs), rhs
    return tuple(c / scale for c in coeffs), rhs / scale


def feasible_fraction(ineqs, nvars):
    """`linineq.feasible` with each row (coefficients, rhs) in Fractions,
    divided by the absolute value of its first nonzero coefficient."""
    rows = {_normalized(tuple(map(Fraction, coeffs)), Fraction(rhs)) for coeffs, rhs in ineqs}
    for j in range(nvars):
        pos, neg, rest = [], [], set()
        for coeffs, rhs in rows:
            if coeffs[j] > 0:
                pos.append((coeffs, rhs))
            elif coeffs[j] < 0:
                neg.append((coeffs, rhs))
            else:
                rest.add((coeffs, rhs))
        for cp, bp in pos:
            for cn, bn in neg:
                lam, mu = -cn[j], cp[j]
                rest.add(_normalized([lam * a + mu * b for a, b in zip(cp, cn)], lam * bp + mu * bn))
        rows = rest
    return all(rhs <= 0 for _, rhs in rows)


def substituted_fraction(row, rhs, dependent, nvars):
    """`linineq._substituted` as one dense row of Fractions."""
    out = [Fraction(0)] * nvars
    for v, c in row.items():
        if v in dependent:
            d, terms = dependent[v]
            for f, a in terms:
                out[f] += Fraction(c * a, d)
        else:
            out[v] += c
    return tuple(out), Fraction(rhs)


# -- the wire readers and printer in Fractions ---------------------------------


def vector_from_list_fraction(data):
    if not isinstance(data, list):
        raise _bad("vector must be a JSON array")
    return mx.rvec([parse_fraction(e) for e in data])


def matrix_from_lists_fraction(data):
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise _bad("matrix must be a non-empty array of rows")
    if any(len(r) != len(data[0]) for r in data):
        raise _bad("matrix rows must have equal length")
    return mx.rmat([[parse_fraction(e) for e in row] for row in data])


def matrix_to_lists_fraction(m):
    return [[str(e) for e in row] for row in m.tolist()]


def grading_from_dict_fraction(data):
    """`serialize.grading_from_dict`, each component basis read as vectors
    of Fractions and stacked by `rmat`."""
    if not isinstance(data, dict) or "components" not in data:
        raise _bad('expected {"components": [...]}')
    comps = []
    for entry in _array(data["components"], '"components"'):
        if not isinstance(entry, dict) or "weight" not in entry or "basis" not in entry:
            raise _bad("each component needs a weight and a basis")
        w = entry["weight"]
        if type(w) is not int:
            raise _bad("component weights must be integers")
        vecs = [vector_from_list_fraction(v) for v in _array(entry["basis"], "component basis")]
        if not vecs:
            raise _bad("component basis must be non-empty")
        if any(v.shape != vecs[0].shape for v in vecs):
            raise _bad("component basis vectors must have equal length")
        comps.append((w, mx.rmat(vecs).T))
    comps.sort(key=lambda ws: ws[0])
    return Grading(tuple(comps))


def algebra_from_dict_fraction(data):
    """`serialize.algebra_from_dict` with each bracket's terms summed per
    target in Fractions, then cleared once over one denominator."""
    if not isinstance(data, dict):
        raise _bad("algebra file must contain a JSON object")
    dim = data.get("dim")
    if type(dim) is not int or dim < 1:
        raise _bad('"dim" must be a positive integer')
    table = {}
    for entry in _array(data.get("brackets", []), '"brackets"', dict):
        i, j = entry.get("i"), entry.get("j")
        if not (type(i) is int and type(j) is int and 1 <= i < j <= dim):
            raise _bad(f"bracket indices must satisfy 1 <= i < j <= dim, got ({i}, {j})")
        if (i - 1, j - 1) in table:
            raise _bad(f"duplicate bracket ({i}, {j})")
        sums = {}
        for term in _array(entry.get("terms", []), f"bracket ({i}, {j}) terms", dict):
            k = term.get("k")
            if not (type(k) is int and 1 <= k <= dim):
                raise _bad(f"bracket ({i}, {j}) has target index {k} out of range")
            sums[k - 1] = sums.get(k - 1, 0) + parse_fraction(term.get("c"))
        table[(i - 1, j - 1)] = {k: c for k, c in sorted(sums.items()) if c}
    upper = {ij: terms for ij, terms in table.items() if terms}
    flat, den = cleared([c for terms in upper.values() for c in terms.values()])
    ints = iter(flat)
    return LieAlgebra._from_ints(dim, {ij: {k: next(ints) for k in terms} for ij, terms in upper.items()}, den)


# -- Lie algebras on the dense table ----------------------------------------


def dense_table(algebra):
    """{(i, j): coefficient vector} for the nonzero brackets [X_i, X_j], i < j."""
    out = {}
    for ij, terms in algebra.terms.items():
        vec = zeros(1, algebra.dim)[0]
        for k, c in terms.items():
            vec[k] = c
        out[ij] = vec
    return out


def basis_vec(n, i):
    v = zeros(1, n)[0]
    v[i] = Fraction(1)
    return v


def bracket_basis_dense(algebra, i, j):
    if i == j:
        return zeros(1, algebra.dim)[0]
    if i < j:
        vec = zeros(1, algebra.dim)[0]
        for k, c in algebra.terms.get((i, j), {}).items():
            vec[k] = c
        return vec
    return -bracket_basis_dense(algebra, j, i)


def bracket_dense(algebra, x, y):
    out = zeros(1, algebra.dim)[0]
    for (i, j), vec in dense_table(algebra).items():
        c = x[i] * y[j] - x[j] * y[i]
        if c != 0:
            out = out + c * vec
    return out


def series_dense(algebra):
    n = algebra.dim
    series = [identity(n)]
    while True:
        prev = series[-1]
        spans = [bracket_dense(algebra, basis_vec(n, i), prev[:, c]) for i in range(n) for c in range(prev.shape[1])]
        nxt = col_basis_dense(np.stack(spans, axis=1))
        if nxt.shape[1] == 0:
            return series, True
        if nxt.shape[1] == prev.shape[1]:
            series.append(nxt)
            return series, False
        series.append(nxt)


def verify_grading_pairwise(algebra, grading) -> Verdict:
    """`grading.verify_grading` as one membership test per nonzero bracket
    of two component basis vectors, in weight order, then column order."""
    n = algebra.dim
    stacked = mx.hstack([s for _, s in grading.components])
    if stacked.shape != (n, n) or mx.det(stacked) == 0:
        return Verdict(
            "reject",
            condition="not-direct-sum",
            certificate={"total_columns": int(stacked.shape[1])},
            diagnostics=["components do not decompose the algebra as a direct sum"],
        )
    spaces = dict(grading.components)
    for wi, si in grading.components:
        for wj, sj in grading.components:
            if wj < wi:
                continue
            target = spaces.get(wi + wj)
            for a in range(si.shape[1]):
                for b in range(sj.shape[1]):
                    if wi == wj and b <= a:
                        continue
                    z = bracket_dense(algebra, si.col(a), sj.col(b))
                    if (z == Fraction(0)).all():
                        continue
                    if target is None or solve_linear(target, z) is None:
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


def series_all_pairs(algebra):
    """The lower central series as primitive int echelon rows, each term
    from the brackets of every basis element with every row of the last,
    and whether it reaches zero."""
    n = algebra.dim
    prev = [{i: 1} for i in range(n)]
    series = [prev]
    while True:
        spans = []
        for a in range(n):
            for v in prev:  # [X_a, v], times e
                w = {}
                for b, x in v.items():
                    for k, c in algebra.ints.get((a, b), {}).items():
                        w[k] = w.get(k, 0) + x * c
                if w:
                    spans.append(w)
        nxt = mx.echelon(spans)
        if not nxt:
            return series, True
        series.append(nxt)
        if len(nxt) == len(prev):
            return series, False
        prev = nxt


def validate_all_triples(algebra) -> Verdict:
    """`liealg.validate` as the int Jacobi loop over every basis triple
    i < j < k in order, then `series_all_pairs`."""
    n = algebra.dim
    ints = algebra.ints
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                res = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for l, x in ints.get((a, b), {}).items():
                        for m, y in ints.get((l, c), {}).items():
                            res[m] = res.get(m, 0) + x * y
                if any(res.values()):
                    e2 = algebra.den**2
                    return Verdict(
                        "reject",
                        condition="jacobi",
                        certificate={
                            "triple": [i + 1, j + 1, k + 1],
                            "residual": [str(Fraction(res.get(m, 0), e2)) for m in range(n)],
                        },
                        diagnostics=[f"Jacobi identity fails on basis triple ({i+1},{j+1},{k+1})"],
                    )
    series, nilpotent = series_all_pairs(algebra)
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


def validate_dense(algebra) -> Verdict:
    n = algebra.dim
    for i in range(n):
        for j in range(i + 1, n):
            cij = bracket_basis_dense(algebra, i, j)
            for k in range(j + 1, n):
                res = (
                    bracket_dense(algebra, cij, basis_vec(n, k))
                    + bracket_dense(algebra, bracket_basis_dense(algebra, j, k), basis_vec(n, i))
                    + bracket_dense(algebra, bracket_basis_dense(algebra, k, i), basis_vec(n, j))
                )
                if not (res == Fraction(0)).all():
                    return Verdict(
                        "reject",
                        condition="jacobi",
                        certificate={"triple": [i + 1, j + 1, k + 1], "residual": [str(e) for e in res]},
                        diagnostics=[f"Jacobi identity fails on basis triple ({i+1},{j+1},{k+1})"],
                    )
    series, nilpotent = series_dense(algebra)
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


def violated_bracket_dense(algebra, m):
    """First basis pair (1-indexed) where M[x,y] != [Mx,My], if any."""
    n = algebra.dim
    m = dense(m)
    for i in range(n):
        for j in range(i + 1, n):
            if not (m @ bracket_basis_dense(algebra, i, j) == bracket_dense(algebra, m[:, i], m[:, j])).all():
                return (i + 1, j + 1)
    return None


def is_derivation_dense(algebra, d):
    n = algebra.dim
    d = dense(d)
    for i in range(n):
        for j in range(i + 1, n):
            lhs = d @ bracket_basis_dense(algebra, i, j)
            rhs = bracket_dense(algebra, d[:, i], basis_vec(n, j)) + bracket_dense(algebra, basis_vec(n, i), d[:, j])
            if not (lhs == rhs).all():
                return False
    return True


def derivations_dense(algebra):
    n = algebra.dim
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            cij = bracket_basis_dense(algebra, i, j)
            block = [[Fraction(0)] * (n * n) for _ in range(n)]
            for p in range(n):
                bpj = bracket_basis_dense(algebra, p, j)
                bip = bracket_basis_dense(algebra, i, p)
                for k in range(n):
                    if bpj[k] != 0:
                        block[k][p * n + i] += bpj[k]
                    if bip[k] != 0:
                        block[k][p * n + j] += bip[k]
            for k in range(n):
                for q in range(n):
                    if cij[q] != 0:
                        block[k][k * n + q] -= cij[q]
            rows.extend(block)
    if not rows:
        return [identity(1)] if n == 1 else []
    kernel = nullspace_dense(mx.rmat(rows))
    return [kernel[:, c].reshape(n, n) for c in range(kernel.shape[1])]


def derivation_matrices(algebra):
    """`liealg.derivations`, whose basis is sparse ints, as dense Fraction
    matrices: the one place the tests densify it."""
    out = []
    for cols, den in derivations(algebra):
        d = [[0] * algebra.dim for _ in range(algebra.dim)]
        for i, col in cols.items():
            for p, a in col.items():
                d[p][i] = a
        out.append(mx.QMat(d, den))
    return out


# -- least exponents -------------------------------------------------------------


def least_exponent_sequential(multiple, holds):
    """`intutil.least_exponent` as a sequential descent on exponents: divide
    each prime q of `multiple` out of k while holds(k // q)."""
    k = multiple
    for q in factor_int(multiple):
        while k % q == 0 and holds(k // q):
            k //= q
    return k


# -- lattice membership and orbits ---------------------------------------------


def hnf_membership_triangular(v, lattice):
    """`matrices.hnf_membership` by a triangular solve: with B = d P and H
    its Hermite form, v is in the lattice iff the solution y of H y = d v
    is integral, solved in Fractions."""
    n = lattice.dim
    if v.shape != (n,):
        raise ValueError(f"vector of length {n} required, got shape {v.shape}")
    basis = lattice.basis
    h = mx.hnf(mx.QMat(basis.rows)).rows
    target = [Fraction(x * basis.den, v.den) for x in v.rows[0]]
    y = [Fraction(0)] * n
    for r in range(n):
        acc = target[r]
        for c in range(r):
            acc -= h[r][c] * y[c]
        y[r] = acc / h[r][r]
    return all(e.denominator == 1 for e in y)


def orbit_escapes_lattice_fraction(a, v, bound):
    """`latpow.orbit_escapes_lattice` by Fraction products: x = A x per step,
    integral when every entry has denominator 1."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    n = a.shape[0]
    if a.shape != (n, n) or v.shape != (n,):
        raise ValueError("dimension mismatch")
    x = v
    integral_ks = []
    first_image = None
    for k in range(1, bound + 1):
        x = a @ x
        if all(e.denominator == 1 for e in x):
            integral_ks.append(k)
            if first_image is None:
                first_image = [str(e) for e in x]
    if not integral_ks:
        return Verdict(
            "accept",
            condition="orbit-escapes",
            certificate={"bound": bound, "integral_k": []},
            diagnostics=[f"A^k v is non-integral for every k = 1..{bound}"],
        )
    return Verdict(
        "reject",
        condition="orbit-returns",
        certificate={
            "bound": bound,
            "integral_k": integral_ks,
            "first_integral_image": first_image,
        },
        diagnostics=[f"A^k v is integral first at k = {integral_ks[0]}"],
    )


# -- characteristic nilpotency ------------------------------------------------


def is_characteristically_nilpotent_fraction(algebra):
    """`liealg.is_characteristically_nilpotent` in Fractions on the dense
    derivation system: the same four steps (a basis derivation of nonzero
    trace, the Engel flag, a non-nilpotent basis derivation, a pair with
    tr(D_a D_b) != 0), with the flag products D_a W_i and the witness sums
    in Fractions."""
    n = algebra.dim
    ders = derivations_dense(algebra)
    d = len(ders)

    def reject(*support):
        return Verdict(
            "reject",
            condition="non-nilpotent-derivation",
            certificate={
                "witness": [[str(e) for e in row] for row in sum((ders[a] for a in support), zeros(n, n))],
                "combination": [int(a in support) for a in range(d)],
            },
            diagnostics=["found a derivation with a nonzero eigenvalue"],
        )

    for a in range(d):
        if ders[a].trace() != 0:
            return reject(a)

    flag = identity(n)
    steps = 0
    while flag.shape[1] > 0:
        nxt = col_basis_dense(np.concatenate([D @ flag for D in ders], axis=1))
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

    for a in range(d):
        if not is_nilpotent(ders[a]):
            return reject(a)
    for a in range(d):
        for b in range(a + 1, d):
            if (ders[a] @ ders[b]).trace() != 0:
                return reject(a, b)
    raise AssertionError("the flag stalled, but the trace form of Der vanishes")


# -- holonomy conditions on every element ------------------------------------


def group_elements(generators):
    """Every element of the group that the invertible matrices generate,
    breadth-first: the identity, then each level sorted by entries, so the
    first level is the distinct non-identity generators in key order."""
    def key(m):
        return tuple(flat(m))

    ident = mx.identity(generators[0].shape[0])
    seen = {key(ident)}
    ordered = level = [ident]
    while level:
        nxt = []
        for a in level:
            for g in generators:
                prod = mx.matmul(a, g)
                if key(prod) not in seen:
                    seen.add(key(prod))
                    nxt.append(prod)
        level = sorted(nxt, key=key)
        ordered = ordered + level
    return ordered


# -- grading witnesses in Fractions ------------------------------------------


def phi_p_fraction(algebra, grading, p):
    """P diag(p^w) P^-1 as a Fraction product with `mx.inverse`, after the
    same primality and verification refusals as `grading.phi_p`."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    v = verify_grading(algebra, grading)
    if not v.accepted():
        raise ValueError(f"grading does not verify: {v.diagnostics}")
    cols = mx.hstack([s for _, s in grading.components])
    scales = np.array(
        [Fraction(p) ** w for w, s in grading.components for _ in range(s.shape[1])], dtype=object
    )
    return mx.matmul(mx.rmat(dense(cols) * scales), mx.inverse(cols))


def preserved_by_rank(grading, psi):
    """Whether psi maps every component onto itself, by comparing the
    column spaces of (d psi)(e S) and e S by rank for each component S."""
    if mx.det(psi) == 0:
        raise ValueError("singular map cannot preserve a grading")
    psi_int = np.array(psi.rows, dtype=object)
    for _, s in grading.components:
        s_int = np.array(s.rows, dtype=object)
        if not col_spaces_equal(psi_int @ s_int, s_int):
            return False
    return True


# -- holonomy conditions on every element ------------------------------------


def holonomy_is_valid_all(algebra, elements):
    return all(is_automorphism(algebra, f) for f in elements)


def preserves_grading_every(elements, grading):
    return all(preserved_by_rank(grading, f) for f in elements)


def commutes_with_every(m, elements):
    return all(map(mx.commutes_with(m), elements))


def first_failing_all(elements, ok):
    """Index of the first element f with ok(f) false, if any."""
    return next((i for i, f in enumerate(elements) if not ok(f)), None)


def equivariant_weight_search_all(algebra, elements, positive):
    """`grading.find_weights` with the equalities w_i = w_j from the
    nonzero entries f_ij of every element of the group."""
    n = algebra.dim
    eqs = weight_equations(algebra)
    for f in elements:
        eqs += [{i: 1, j: -1} for i in range(n) for j in range(n) if i != j and f[i, j]]
    return solve(eqs, [], [int(positive)] * n)


def preserved_weights_brute_force(algebra, elements, positive, high):
    """The canonical point (least max weight, then lexicographically least,
    max >= 1) of the weights in the box [positive, high]^n that satisfy the
    weight equations and whose grading `preserved_by` accepts for every
    element of the group; None if the box has none."""
    eqs = weight_equations(algebra)
    box = itertools.product(range(int(positive), high + 1), repeat=algebra.dim)
    points = [w for w in box if max(w) >= 1 and not any(sum(c * w[v] for v, c in row.items()) for row in eqs)]
    points.sort(key=lambda w: (max(w), w))
    return next((w for w in points if all(preserved_by_rank(grading_from_weights(algebra, w), f) for f in elements)), None)


# -- the two criteria as separate checks ----------------------------------------


def is_z_charpoly(m):
    return all(c.denominator == 1 for c in mx.charpoly(m).coeffs)


def check_expinfra(algebra, group, certificate) -> Verdict:
    """Expansion criterion: certificate witnesses condition 2 or 3.

    Condition 2: a verified positive grading preserved by all of F.
    Condition 3: an expanding automorphism commuting with all of F.
    """
    if not holonomy.holonomy_is_valid(algebra, group):
        raise ValueError("holonomy elements must be automorphisms of the algebra")
    if isinstance(certificate, Grading):
        return holonomy._check_grading_condition(algebra, group, certificate, positive=True)
    if isinstance(certificate, mx.QMat):
        m = certificate
        problems = []
        if not is_automorphism(algebra, m):
            problems.append("certificate map is not an automorphism")
        elif not is_expanding(m):
            problems.append("certificate map is not expanding")
        return _check_map_condition(
            group, m, "expinfra-cond-3", problems, {"matrix": matrix_to_lists(m)},
            "expanding automorphism commutes with the holonomy group",
        )
    raise ValueError("certificate must be a Grading or an automorphism matrix")


def check_covinfra(algebra, group, certificate) -> Verdict:
    """Self-cover criterion: non-negative nontrivial grading, or a commuting
    automorphism with Z[X] characteristic polynomial and |det| > 1."""
    if not holonomy.holonomy_is_valid(algebra, group):
        raise ValueError("holonomy elements must be automorphisms of the algebra")
    if isinstance(certificate, Grading):
        return holonomy._check_grading_condition(algebra, group, certificate, positive=False)
    if isinstance(certificate, mx.QMat):
        m = certificate
        if m.shape != (algebra.dim, algebra.dim):
            raise ValueError("matrix dimension mismatch")
        det = mx.det(m)
        problems = []
        if det == 0 or violated_bracket(algebra, m) is not None:
            problems.append("certificate map is not an automorphism")
        else:
            if not is_z_charpoly(m):
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
    bad = holonomy._first_failing(group, mx.commutes_with(m))
    if bad is not None:
        return Verdict(
            "reject",
            condition=cond,
            certificate={
                "matrix": matrix_to_lists(m),
                "noncommuting_element": matrix_to_lists(group.generators[bad - 1]),
            },
            diagnostics=[f"map fails to commute with holonomy element {bad}"],
        )
    return Verdict("accept", condition=cond, certificate=certificate, diagnostics=[note])


# -- the semisimple part with an iteration cap ------------------------------------


def semisimple_part_capped(m):
    """Newton iteration for the Jordan-Chevalley semisimple part, stopped
    after ceil(log2 n) + 2 steps with a RuntimeError."""
    n = m.shape[0]
    g = squarefree_part(mx.charpoly(m))
    _, u, _ = poly_xgcd(g.derivative(), g)
    s = m
    for _ in range(max(1, ceil(log2(max(2, n)))) + 2):
        gs = mx.eval_poly(g, s)
        if mx.is_zero_mat(gs):
            return s
        s = s - mx.matmul(gs, mx.eval_poly(u, s))
    raise RuntimeError("Newton iteration failed to converge")


# -- the ladder ----------------------------------------------------------------


def filiform(n):
    """L_n: [X_1, X_i] = X_{i+1} for 2 <= i < n."""
    return LieAlgebra(n, {(0, i): basis_vec(n, i + 1) for i in range(1, n - 1)})


def heisenberg(m):
    """H_{2m+1}: [X_{2i-1}, X_{2i}] = X_{2m+1}."""
    n = 2 * m + 1
    return LieAlgebra(n, {(2 * i, 2 * i + 1): basis_vec(n, n - 1) for i in range(m)})


def _commutator(f, g):
    out = {}
    for (u, a), (v, b) in itertools.product(f.items(), g.items()):
        out[u + v] = out.get(u + v, 0) + a * b
        out[v + u] = out.get(v + u, 0) - a * b
    return {w: c for w, c in out.items() if c}


def _coordinates(columns, target):
    """Coefficients of target in the independent columns (dicts of words)."""
    words = sorted({w for col in columns for w in col} | set(target))
    a = mx.rmat([[col.get(w, 0) for col in columns] + [target.get(w, 0)] for w in words])
    red, pivots = rref_dense(a)
    assert len(columns) not in pivots, "target outside the span"
    return [red[pivots.index(c), -1] for c in range(len(columns))]


def free_nilpotent(r, c):
    """N_{r,c}: left-normed Lie words in r letters, a basis picked greedily
    degree by degree, brackets of degree > c set to 0."""
    basis, degree = [], []
    for d in range(1, c + 1):
        kept = []
        for letters in itertools.product(range(r), repeat=d):
            word = {(letters[-1],): 1}
            for x in reversed(letters[:-1]):
                word = _commutator({(x,): 1}, word)
            if word and col_basis_dense(_word_matrix(kept + [word])).shape[1] > len(kept):
                kept.append(word)
        basis += kept
        degree += [d] * len(kept)
    n = len(basis)
    table = {}
    for i, j in itertools.combinations(range(n), 2):
        d = degree[i] + degree[j]
        target = _commutator(basis[i], basis[j]) if d <= c else {}
        if target:
            idx = [k for k in range(n) if degree[k] == d]
            vec = [Fraction(0)] * n
            for k, x in zip(idx, _coordinates([basis[k] for k in idx], target)):
                vec[k] = x
            table[(i, j)] = vec
    return LieAlgebra(n, table)


def _word_matrix(columns):
    words = sorted({w for col in columns for w in col})
    return mx.rmat([[col.get(w, 0) for col in columns] for w in words])
