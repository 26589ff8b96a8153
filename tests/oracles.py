"""Dense reference implementations that the sparse kernels replaced.

Each function here is the earlier library code, kept as the oracle the
tests compare against: a dense Gauss-Jordan row loop on numpy object
arrays, Faddeev-LeVerrier in Fractions, the bracket that loops over the
whole table, the Jacobi loop and lower central series built on it, the
dense derivation system, and the minimal polynomial from the first linear
dependence among the powers of a matrix.  They read only
`LieAlgebra.dim` and `LieAlgebra.table`.

Also the ladder algebras L_n, H_{2m+1} and N_{r,c}, built from first
principles (N_{r,c} from Lie words in the free associative algebra).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from nilgrade import matrices as mx
from nilgrade.liealg import LieAlgebra
from nilgrade.polynomials import Polynomial
from nilgrade.verdict import Verdict


def rref_dense(a):
    """Reduced row echelon form (copy) and its pivot columns."""
    m = a.copy()
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
    out = mx.zeros(nc, len(free))
    for k, fc in enumerate(free):
        out[fc, k] = Fraction(1)
        for r, pc in enumerate(pivots):
            out[pc, k] = -red[r, fc]
    return out


def col_basis_dense(a):
    red, pivots = rref_dense(a.T)
    return red[: len(pivots)].T.copy()


def charpoly_fraction(m):
    """det(X I - M) by Faddeev-LeVerrier in Fractions."""
    n = m.shape[0]
    coeffs_desc = [Fraction(1)]
    a = m.copy()
    c = -mx.trace(a)
    coeffs_desc.append(c)
    for k in range(2, n + 1):
        a = m @ (a + c * mx.identity(n))
        c = -mx.trace(a) / k
        coeffs_desc.append(c)
    return Polynomial(reversed(coeffs_desc))


def minpoly(m):
    """Monic minimal polynomial via first linear dependence of powers."""
    n = m.shape[0]
    powers = [mx.identity(n)]
    for k in range(1, n + 1):
        powers.append(powers[-1] @ m)
        stacked = np.stack([p.reshape(n * n) for p in powers[:k]], axis=1)
        x = mx.solve(stacked, powers[k].reshape(n * n))
        if x is not None:
            return Polynomial(list(-x) + [Fraction(1)])
    raise AssertionError("Cayley-Hamilton violated")


# -- Lie algebras on the dense table ----------------------------------------


def basis_vec(n, i):
    v = mx.rvec([0] * n)
    v[i] = Fraction(1)
    return v


def bracket_basis_dense(algebra, i, j):
    if i == j:
        return mx.rvec([0] * algebra.dim)
    if i < j:
        vec = algebra.table.get((i, j))
        return vec.copy() if vec is not None else mx.rvec([0] * algebra.dim)
    return -bracket_basis_dense(algebra, j, i)


def bracket_dense(algebra, x, y):
    out = mx.rvec([0] * algebra.dim)
    for (i, j), vec in algebra.table.items():
        c = x[i] * y[j] - x[j] * y[i]
        if c != 0:
            out = out + c * vec
    return out


def series_dense(algebra):
    n = algebra.dim
    series = [mx.identity(n)]
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
        return [mx.identity(1)] if n == 1 else []
    kernel = nullspace_dense(mx.rmat(rows))
    return [kernel[:, c].reshape(n, n) for c in range(kernel.shape[1])]


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
