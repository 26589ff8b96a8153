"""Dense reference implementations that the sparse kernels replaced.

Each function here is the earlier library code, kept as the oracle the
tests compare against: a dense Gauss-Jordan row loop on numpy object
arrays, Faddeev-LeVerrier in Fractions, the bracket that loops over the
whole table, the Jacobi loop and lower central series built on it, the
dense derivation system, the dense automorphism and derivation checks,
the minimal polynomial from the first linear dependence among the powers
of a matrix, Horner's rule in Fractions, Kronecker's factorization over Q
(rational roots, then an evaluate/interpolate search over divisors of
values, exponential in the degree), and the grading check that solves one
linear system per nonzero bracket of two component basis vectors.  They
read only `LieAlgebra.dim` and the dense table that `dense_table` builds
from `LieAlgebra.terms`.  The Fraction loop
that `latpow`'s integer orbit scan replaced is kept the same way, and so
is the characteristic-nilpotency test with its Engel flag and witness
sums in Fractions.

Also the ladder algebras L_n, H_{2m+1} and N_{r,c}, built from first
principles (N_{r,c} from Lie words in the free associative algebra).
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd

import numpy as np

from nilgrade import matrices as mx
from nilgrade.intutil import factor_int
from nilgrade.liealg import LieAlgebra, derivations
from nilgrade.polynomials import Polynomial, _integer_primitive, factor_order_key, squarefree_decomposition
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


def eval_poly_fraction(p, m):
    """p(M) by Horner's rule in Fractions."""
    n = m.shape[0]
    acc = mx.zeros(n, n)
    for c in reversed(p.coeffs):
        acc = acc @ m + c * mx.identity(n)
    return acc


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
    for sqf, mult in squarefree_decomposition(p):
        ints = _integer_primitive(sqf)
        work = Polynomial(ints)
        irreducibles = []
        for r in _rational_roots(ints):
            irreducibles.append(Polynomial([-r, 1]))
            work = work // Polynomial([-r, 1])
        while work.degree > 0:
            g = _kronecker_factor(Polynomial(_integer_primitive(work)), work.degree // 2) if work.degree > 3 else None
            if g is None:
                irreducibles.append(work.monic())
                break
            irreducibles.append(g.monic())
            work = work // g
        for irr in irreducibles:
            found[irr] = found.get(irr, 0) + mult
    return sorted(found.items(), key=lambda fm: factor_order_key(fm[0]))


# -- Lie algebras on the dense table ----------------------------------------


def dense_table(algebra):
    """{(i, j): coefficient vector} for the nonzero brackets [X_i, X_j], i < j."""
    out = {}
    for ij, terms in algebra.terms.items():
        vec = mx.rvec([0] * algebra.dim)
        for k, c in terms.items():
            vec[k] = c
        out[ij] = vec
    return out


def basis_vec(n, i):
    v = mx.rvec([0] * n)
    v[i] = Fraction(1)
    return v


def bracket_basis_dense(algebra, i, j):
    if i == j:
        return mx.rvec([0] * algebra.dim)
    if i < j:
        vec = mx.rvec([0] * algebra.dim)
        for k, c in algebra.terms.get((i, j), {}).items():
            vec[k] = c
        return vec
    return -bracket_basis_dense(algebra, j, i)


def bracket_dense(algebra, x, y):
    out = mx.rvec([0] * algebra.dim)
    for (i, j), vec in dense_table(algebra).items():
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
                    z = bracket_dense(algebra, si[:, a], sj[:, b])
                    if (z == Fraction(0)).all():
                        continue
                    if target is None or mx.solve(target, z) is None:
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
    for i in range(n):
        for j in range(i + 1, n):
            if not (m @ bracket_basis_dense(algebra, i, j) == bracket_dense(algebra, m[:, i], m[:, j])).all():
                return (i + 1, j + 1)
    return None


def is_derivation_dense(algebra, d):
    n = algebra.dim
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
        return [mx.identity(1)] if n == 1 else []
    kernel = nullspace_dense(mx.rmat(rows))
    return [kernel[:, c].reshape(n, n) for c in range(kernel.shape[1])]


# -- lattice orbits --------------------------------------------------------------


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


def is_characteristically_nilpotent_fraction(algebra, random_trials=8):
    """`liealg.is_characteristically_nilpotent` with the witness sums and the
    Engel flag products D_a W_i in Fractions."""
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

    def reject_if_not_nilpotent(t):
        witness = sum((c * D for c, D in zip(t, ders) if c), mx.zeros(n, n))
        if mx.is_nilpotent(witness):
            return None
        return Verdict(
            "reject",
            condition="non-nilpotent-derivation",
            certificate={
                "witness": [[str(e) for e in row] for row in witness],
                "combination": list(t),
            },
            diagnostics=["found a derivation with a nonzero eigenvalue"],
        )

    rng = random.Random(1729)
    for _ in range(max(0, random_trials)):
        hit = reject_if_not_nilpotent([rng.randint(-3, 3) for _ in range(d)])
        if hit is not None:
            return hit

    flag = mx.identity(n)
    steps = 0
    while flag.shape[1] > 0:
        nxt = mx.col_basis(mx.hstack([D @ flag for D in ders]))
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
    raise RuntimeError("derivation flag stuck at a nonzero subspace but no witness found")


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
