"""Exact linear algebra over Q on numpy object arrays of Fractions.

Matrices are plain `np.ndarray` with ``dtype=object`` holding
`fractions.Fraction` entries; `+` and scalar `*` stay exact.  The one
product of such matrices is `matmul`, which runs in ints over one common
denominator, and `commutes_with` decides M F = F M in ints.  Everything
that numpy cannot do exactly on such arrays (determinants, inverses,
echelon forms, kernels) is one fraction-free Gauss-Jordan on sparse int
rows, `_reduce`, which keeps each pivot row primitive.  The dense entry
points (`rref`, `det`, `inverse`) clear their matrix once; `echelon`,
`sparse_kernel` and `inverse_cleared` hand back int rows, int kernel
columns and an int inverse to callers that need no `Fraction`, and the
others make one `Fraction` per output entry.  Subspaces are compared
where they are used: a grading reads maps in its own basis, through one
`inverse_cleared` (`grading.preserved_by`).

Polynomials in M are evaluated by Horner in ints on M cleared once
(`_poly_at`), so `eval_poly` divides once and `annihilates` divides
never.  The primary components are the kernels of int multiples of
p(M)^e, one per irreducible factor p^e of the characteristic
polynomial: `primary_decomposition` makes a `Fraction` only for the
canonical basis it returns.

Also home to the integer-lattice utilities: column-style Hermite normal
form, exact lattice membership, and matrix orders in GL(n, Z/m).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd, lcm, prod

import numpy as np

from . import intutil
from .intutil import factor_int, frac, least_exponent
from .polynomials import Polynomial, factor_over_q


def rvec(entries) -> np.ndarray:
    return np.array([frac(e) for e in entries], dtype=object)


def rmat(rows) -> np.ndarray:
    """Matrix from nested row data (ints, 'p/q' strings or Fractions)."""
    data = [[frac(e) for e in row] for row in rows]
    if data and any(len(r) != len(data[0]) for r in data):
        raise ValueError("ragged rows")
    out = np.empty((len(data), len(data[0]) if data else 0), dtype=object)
    for i, row in enumerate(data):
        for j, e in enumerate(row):
            out[i, j] = e
    return out


def zeros(r: int, c: int) -> np.ndarray:
    out = np.empty((r, c), dtype=object)
    out[...] = Fraction(0)
    return out


def identity(n: int) -> np.ndarray:
    out = zeros(n, n)
    for i in range(n):
        out[i, i] = Fraction(1)
    return out


def mat_eq(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool((a == b).all())


def is_zero_mat(a: np.ndarray) -> bool:
    return bool((a == Fraction(0)).all())


def cleared(m: np.ndarray) -> tuple[np.ndarray, int]:
    """(d M as ints in the shape of M, d) for the least d > 0 that makes d M
    integral; M is a matrix or a vector."""
    ints, d = intutil.cleared(m.ravel().tolist())
    return np.array(ints, dtype=object).reshape(m.shape), d


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A B exactly: (d_a A)(d_b B) in ints, divided once by d_a d_b.

    Raises on a shape mismatch as `@` does.
    """
    a_int, d_a = cleared(a)
    b_int, d_b = cleared(b)
    return (a_int @ b_int) * Fraction(1, d_a * d_b)


def commutes_with(m: np.ndarray) -> Callable[[np.ndarray], bool]:
    """The test F -> (M F == F M), in ints: M is cleared once, and
    (d_M M)(d_F F) and (d_F F)(d_M M) share the denominator d_M d_F."""
    m_int, _ = cleared(m)

    def test(f: np.ndarray) -> bool:
        f_int, _ = cleared(f)
        return mat_eq(m_int @ f_int, f_int @ m_int)

    return test


def trace(a: np.ndarray) -> Fraction:
    return sum((a[i, i] for i in range(a.shape[0])), Fraction(0))


def mat_pow(a: np.ndarray, k: int) -> np.ndarray:
    if k < 0:
        return mat_pow(inverse(a), -k)
    out = None
    base = a
    while k:
        if k & 1:
            out = base.copy() if out is None else matmul(out, base)
        base = matmul(base, base) if k > 1 else base
        k >>= 1
    return identity(a.shape[0]) if out is None else out


def _require_square(m: np.ndarray) -> int:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"square matrix required, got shape {m.shape}")
    return m.shape[0]


# -- elimination ---------------------------------------------------------


def _int_row(row: dict) -> dict[int, int]:
    """A sparse rational row ({column: value}) as ints, without zeros: the
    row itself when every value is an int (the common case, which builds
    no array), else its `cleared` multiple."""
    if all(type(v) is int for v in row.values()):
        return {c: v for c, v in row.items() if v}
    ints, _ = intutil.cleared(list(row.values()))
    return {c: v for c, v in zip(row, ints) if v}


def _combine(row: dict[int, int], a: int, b: int, other: dict[int, int]) -> None:
    """row <- a row - b other, in place, keeping no zero entries."""
    if a != 1:
        for c in row:
            row[c] *= a
    for c, v in other.items():
        x = row.get(c, 0) - b * v
        if x:
            row[c] = x
        else:
            row.pop(c, None)


def _make_primitive(row: dict[int, int], lead: int) -> None:
    """Divide a nonzero int row by ±gcd of its entries, signed so that the
    entry at `lead` ends positive."""
    g = int_gcd(*row.values())
    if row[lead] < 0:
        g = -g
    if g != 1:
        for c in row:
            row[c] //= g


def _reduce(rows) -> tuple[dict[int, dict[int, int]], list[tuple[int, int]]]:
    """The fraction-free Gauss-Jordan core: {pivot column: its row}, in
    the order the pivot rows arose, and for each pivot row its lead
    before it was made primitive with the factor that row was scaled by.

    Rows are sparse ({column: value}) over Q and are taken as ints; each
    pivot row is kept primitive (content 1, positive leading entry).  A
    new row r is reduced by each pivot row R whose column it meets, as
    r <- (a/g) r - (r[p]/g) R for a = R[p] and g = gcd(a, r[p]), then made
    primitive, and its lead is cleared from the earlier pivot rows the
    same way (Bareiss, Math. Comp. 22, 1968, keeps such steps in ints).
    The RREF row of pivot p is R / R[p].

    A reduced row is s (r - v) for the one v in the span of the earlier
    rows that agrees with r on their pivot columns, s the product of its
    factors a/g, so lead / s is the pivot that forward elimination over Q
    would find (`det` multiplies them).
    """
    reduced: dict[int, dict[int, int]] = {}
    leads: list[tuple[int, int]] = []
    holders: dict[int, set[int]] = {}  # column -> pivots whose rows may meet it
    for row in rows:
        r = _int_row(row)
        s = 1
        for p in [c for c in r if c in reduced]:
            other = reduced[p]
            g = int_gcd(other[p], r[p])
            a = other[p] // g
            _combine(r, a, r[p] // g, other)
            s *= a
        if not r:
            continue
        lead = min(r)
        leads.append((r[lead], s))
        _make_primitive(r, lead)
        a = r[lead]
        rest = [c for c in r if c != lead]
        for q in holders.pop(lead, ()):
            other = reduced[q]
            if lead in other:
                g = int_gcd(a, other[lead])
                _combine(other, a // g, other[lead] // g, r)
                _make_primitive(other, q)
                for c in rest:
                    holders.setdefault(c, set()).add(q)
        for c in rest:
            holders.setdefault(c, set()).add(lead)
        reduced[lead] = r
    return reduced, leads


def gauss_jordan(rows) -> tuple[list[dict[int, Fraction]], list[int]]:
    """The nonzero rows of the RREF of sparse rows ({column: value}), in
    pivot order and without zeros, and their pivot columns.

    The RREF over Q is unique, so the result does not depend on the order
    of the rows.
    """
    reduced, _ = _reduce(rows)
    pivots = sorted(reduced)
    return [{c: Fraction(v, reduced[p][p]) for c, v in reduced[p].items()} for p in pivots], pivots


def echelon(rows) -> list[dict[int, int]]:
    """The RREF of sparse rows as primitive int rows, in pivot order: for
    callers that need only the row space, with no Fraction built."""
    reduced, _ = _reduce(rows)
    return [reduced[p] for p in sorted(reduced)]


def from_rows(rows: list[dict[int, Fraction]], nc: int) -> np.ndarray:
    """Dense len(rows) x nc matrix of sparse rows ({column: value})."""
    out = zeros(len(rows), nc)
    for r, row in enumerate(rows):
        for c, v in row.items():
            out[r, c] = v
    return out


def span_basis(rows, nc: int) -> np.ndarray:
    """The canonical basis of the span of sparse rows ({column: value}) as
    the columns of an nc x rank matrix: their RREF, transposed."""
    return from_rows(gauss_jordan(rows)[0], nc).T


def _sparse_rows(a: np.ndarray) -> list[dict]:
    return [{c: v for c, v in enumerate(row) if v} for row in a.tolist()]


def _cleared_rows(a: np.ndarray) -> tuple[list[dict[int, int]], int]:
    """(the rows of d A as sparse int rows, d): the nonzero entries are
    `cleared` once, together, for the dense entry points.  Scaling every
    row by the same d > 0 keeps the row space and the RREF."""
    rows = _sparse_rows(a)
    ints, d = intutil.cleared([v for row in rows for v in row.values()])
    it = iter(ints)
    return [{c: next(it) for c in row} for row in rows], d


def rref(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form (copy) and its pivot columns."""
    rows, pivots = gauss_jordan(_cleared_rows(a)[0])
    return from_rows(rows + [{}] * (a.shape[0] - len(rows)), a.shape[1]), pivots


def det(a: np.ndarray) -> Fraction:
    """det(A) = det(d A) / d^n: the sign of the pivot permutation times the
    pivots lead / s of forward elimination, read off the core.

    Subtracting from each row a combination of the rows before it leaves
    the determinant alone and makes the matrix triangular up to the
    permutation of row i -> its pivot column.  Sparser rows go first, so
    a triangular matrix reduces without fill.
    """
    n = _require_square(a)
    rows, d = _cleared_rows(a)
    order = sorted(range(n), key=lambda i: len(rows[i]))
    reduced, leads = _reduce(rows[i] for i in order)
    if len(leads) < n:
        return Fraction(0)
    pivot = dict(zip(order, reduced))
    inversions = sum(pivot[j] > pivot[i] for i in range(n) for j in range(i))
    return Fraction((-1) ** inversions * prod(x for x, _ in leads), prod(s for _, s in leads) * d**n)


def inverse(a: np.ndarray) -> np.ndarray:
    """A^-1, from `inverse_cleared`."""
    ints, d = inverse_cleared(a)
    return ints * Fraction(1, d)


def inverse_cleared(a: np.ndarray) -> tuple[np.ndarray, int]:
    """`cleared(inverse(A))` with no Fraction built: from the primitive pivot
    rows R_i of the RREF of [d A | d I], row i of A^-1 is the right half of
    R_i over R_i[i], in lowest terms, so the least denominator of A^-1 is
    the lcm of the leads R_i[i]."""
    n = _require_square(a)
    rows, d_a = _cleared_rows(a)
    reduced, _ = _reduce({**row, n + i: d_a} for i, row in enumerate(rows))
    if sorted(reduced) != list(range(n)):
        raise ValueError("matrix is singular")
    d = lcm(*(row[i] for i, row in reduced.items()))
    out = np.zeros((n, n), dtype=object)
    for i, row in reduced.items():
        scale = d // row[i]
        for c, v in row.items():
            if c >= n:
                out[i, c - n] = v * scale
    return out, d


def sparse_kernel(rows, nc: int) -> list[tuple[dict[int, int], int]]:
    """The canonical kernel of sparse rows ({column: value}), one vector per
    free column f, each as (int entries {index: value}, least denominator).

    With R the primitive pivot rows, the vector is e_f minus R[f] / R[p]
    at each pivot p whose row meets f.
    """
    reduced, _ = _reduce(rows)
    meets: dict[int, list[int]] = {}  # column -> the pivots whose rows meet it
    for p in sorted(reduced):
        for c in reduced[p]:
            if c != p:
                meets.setdefault(c, []).append(p)
    out = []
    for f in range(nc):
        if f in reduced:
            continue
        hits = [(p, reduced[p][p], reduced[p][f]) for p in meets.get(f, ())]
        den = lcm(*(a // int_gcd(a, x) for _, a, x in hits))
        out.append(({f: den, **{p: -x * den // a for p, a, x in hits}}, den))
    return out


def kernel(rows, nc: int) -> np.ndarray:
    """`sparse_kernel` as the dense matrix of its columns."""
    cols = sparse_kernel(rows, nc)
    out = zeros(nc, len(cols))
    for k, (col, den) in enumerate(cols):
        for c, v in col.items():
            out[c, k] = Fraction(v, den)
    return out


# -- column spaces (subspaces are matrices whose columns span them) -------


def col_basis(a: np.ndarray) -> np.ndarray:
    """Canonical basis of the column space, as columns (echelon form).

    Two matrices span the same column space iff their col_basis arrays
    are identical.
    """
    return span_basis(_cleared_rows(a.T)[0], a.shape[0])


def hstack(mats: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(mats, axis=1)


# -- characteristic polynomials ------------------------------------------


def charpoly(m: np.ndarray) -> Polynomial:
    """Monic characteristic polynomial det(X I - M), Faddeev-LeVerrier.

    Runs on A = d M in ints: M_k = A (M_{k-1} + c_{k-1} I) is integral and
    tr(M_k) = -k c_k, so each division is exact; det(X I - M) is then
    sum_k c_k d^(-k) X^(n-k).
    """
    n = _require_square(m)
    a, d = cleared(m)
    coeffs_desc = [1]
    power = np.zeros((n, n), dtype=object)
    for k in range(1, n + 1):
        power = a @ (power + coeffs_desc[-1] * np.identity(n, dtype=object))
        coeffs_desc.append(-power.trace() // k)
    return Polynomial(reversed([Fraction(c, d**k) for k, c in enumerate(coeffs_desc)]))


def _poly_at(p: Polynomial, a: np.ndarray, d: int) -> tuple[np.ndarray, int]:
    """(s p(M) as ints, s) for a nonzero p and A = d M an int matrix, by
    Horner in ints on A and the cleared coefficients L c_k: the sum of
    L c_k d^(deg-k) A^k is s p(M) for s = L d^deg."""
    n = a.shape[0]
    coeffs, den = intutil.cleared(p.coeffs)
    deg = p.degree
    acc = np.zeros((n, n), dtype=object)
    for k in range(deg, -1, -1):
        if k < deg:
            acc = acc @ a
        c = coeffs[k] * d ** (deg - k)
        for i in range(n):
            acc[i, i] += c
    return acc, den * d**deg


def eval_poly(p: Polynomial, m: np.ndarray) -> np.ndarray:
    """p(M): `_poly_at` on M cleared once, divided once."""
    n = _require_square(m)
    if p.is_zero():
        return zeros(n, n)
    acc, s = _poly_at(p, *cleared(m))
    return acc * Fraction(1, s)


def annihilates(p: Polynomial, m: np.ndarray) -> bool:
    """p(M) = 0, decided on the int multiple of p(M) with no Fraction built."""
    _require_square(m)
    return p.is_zero() or is_zero_mat(_poly_at(p, *cleared(m))[0])


def is_nilpotent(m: np.ndarray) -> bool:
    """M^n = 0, by repeated squaring of an integer multiple of M (cheaper than Fractions)."""
    return is_nilpotent_int(cleared(m)[0])


def is_nilpotent_int(a: np.ndarray) -> bool:
    """A^n = 0 for an int matrix A, by repeated squaring."""
    n = _require_square(a)
    for _ in range((n - 1).bit_length()):
        a = a @ a
    return is_zero_mat(a)


def primary_decomposition(m: np.ndarray) -> list[tuple[Polynomial, np.ndarray]]:
    """Split Q^n into ker p_i(M)^{e_i} over the irreducible factors p_i.

    Components come back in the canonical factor order (degree, then
    coefficients); each subspace is a canonical column basis and is
    M-invariant.  All in ints: M is cleared once, K_i = s p_i(M) is
    `_poly_at`'s int multiple, divided by its content and raised to e_i
    by int products, and ker K_i^e_i = ker p_i(M)^e_i is the
    `sparse_kernel` of its rows, whose int columns `span_basis` reduces
    to the canonical basis; a Fraction is made only for that output.
    """
    n = _require_square(m)
    a, d = cleared(m)
    out = []
    for p, mult in factor_over_q(charpoly(m)):
        k = _poly_at(p, a, d)[0]
        k = k // (int_gcd(*k.flat) or 1)  # p(M) = 0 when p is the minimal polynomial
        power = k
        for _ in range(mult - 1):
            power = power @ k
        kernel_cols = [col for col, _ in sparse_kernel(_sparse_rows(power), n)]
        out.append((p, span_basis(kernel_cols, n)))
    return out


# -- integer lattices ------------------------------------------------------


@dataclass(frozen=True)
class IntegerLattice:
    """Z-span of the columns of an invertible rational matrix."""

    basis: np.ndarray

    def __post_init__(self):
        _require_square(self.basis)
        if det(self.basis) == 0:
            raise ValueError("lattice basis must be invertible")
        object.__setattr__(self, "basis", self.basis.copy())
        self.basis.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


def hnf(a: np.ndarray) -> np.ndarray:
    """Column-style Hermite normal form of a nonsingular integer matrix.

    Lower triangular, positive pivots, entries left of each pivot reduced
    into [0, pivot).  Unique for the column lattice, so certificates that
    embed it are byte-stable.
    """
    n = _require_square(a)
    h, d = cleared(a)
    if d != 1:
        raise ValueError("integer matrix required")
    for r in range(n):
        while True:
            cols = [c for c in range(r, n) if h[r, c] != 0]
            if not cols:
                raise ValueError("matrix is singular")
            cmin = min(cols, key=lambda c: abs(h[r, c]))
            if cmin != r:
                h[:, [r, cmin]] = h[:, [cmin, r]]
            done = True
            for c in range(r + 1, n):
                if h[r, c] != 0:
                    q = h[r, c] // h[r, r]
                    h[:, c] = h[:, c] - q * h[:, r]
                    done = done and h[r, c] == 0
            if done:
                break
        if h[r, r] < 0:
            h[:, r] = -h[:, r]
        for c in range(r):
            q = h[r, c] // h[r, r]
            if q != 0:
                h[:, c] = h[:, c] - q * h[:, r]
    return h


def hnf_membership(v: np.ndarray, lattice: IntegerLattice) -> bool:
    """Exact test for v in the Z-span of the lattice basis."""
    n = lattice.dim
    if v.shape != (n,):
        raise ValueError(f"vector of length {n} required, got shape {v.shape}")
    scaled, d = cleared(lattice.basis)
    h = hnf(scaled)
    target = [frac(e) * d for e in v]
    y = [Fraction(0)] * n
    for r in range(n):
        acc = target[r]
        for c in range(r):
            acc -= h[r, c] * y[c]
        y[r] = Fraction(acc, h[r, r])
    return all(e.denominator == 1 for e in y)


def _mat_pow_mod(base: np.ndarray, k: int, modulus: int) -> np.ndarray:
    out = np.identity(base.shape[0], dtype=object)
    b = base % modulus
    while k:
        if k & 1:
            out = (out @ b) % modulus
        b = (b @ b) % modulus if k > 1 else b
        k >>= 1
    return out


def order_mod(m: np.ndarray, modulus: int) -> int:
    """Smallest k >= 1 with M^k = I mod modulus (M integral, det invertible).

    Descends from a multiple N of the order through `least_exponent`'s
    product tree on M mod the modulus.  For p^e exactly dividing the
    modulus, the kernel of GL(n, Z/p^e) -> GL(n, F_p) has exponent
    p^(e-1); mod p the unipotent part of M dies at p^j >= n and the
    semisimple part has order dividing p^i - 1 for some i <= n (Celler &
    Leedham-Green, "Calculating the order of an invertible matrix",
    DIMACS 28, 1997).
    """
    n = _require_square(m)
    if modulus < 1:
        raise ValueError("modulus must be positive")
    a, den = cleared(m)
    if den != 1:
        raise ValueError("integer matrix required")
    d = int(det(m)) % modulus
    if int_gcd(d, modulus) != 1:
        raise ValueError(f"det {d} not invertible mod {modulus}")
    multiple = 1
    for p, e in factor_int(modulus).items():
        p_part = p ** (e - 1 + (n - 1).bit_length())  # p^(bit length of n - 1) >= n
        multiple = lcm(multiple, p_part, *(p**i - 1 for i in range(1, n + 1)))
    ident = np.identity(n, dtype=object)
    return least_exponent(
        multiple, a % modulus, lambda y, e: _mat_pow_mod(y, e, modulus), lambda y: (y == ident).all()
    )
