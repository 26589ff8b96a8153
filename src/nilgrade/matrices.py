"""Exact linear algebra over Q on numpy object arrays of Fractions.

Matrices are plain `np.ndarray` with ``dtype=object`` holding
`fractions.Fraction` entries; `+` and scalar `*` stay exact.  The one
product of such matrices is `matmul`, which runs in ints over one common
denominator, and `commutes_with` decides M F = F M in ints.  Everything
that numpy cannot do exactly on such arrays (determinants, inverses,
echelon forms, kernels) is implemented here by elimination over Q;
echelon forms and kernels by one Gauss-Jordan on sparse rows.

Also home to the integer-lattice utilities: column-style Hermite normal
form, exact lattice membership, and matrix orders in GL(n, Z/m).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd, lcm, prod

import numpy as np

from .intutil import factor_int, least_exponent
from .polynomials import Polynomial


def frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


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


def diag(entries) -> np.ndarray:
    es = [frac(e) for e in entries]
    out = zeros(len(es), len(es))
    for i, e in enumerate(es):
        out[i, i] = e
    return out


def mat_eq(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool((a == b).all())


def is_zero_mat(a: np.ndarray) -> bool:
    return bool((a == Fraction(0)).all())


def is_integral(a: np.ndarray) -> bool:
    return all(e.denominator == 1 for e in a.flat)


def cleared(m: np.ndarray) -> tuple[np.ndarray, int]:
    """(d M as ints in the shape of M, d) for the least d > 0 that makes d M
    integral; M is a matrix or a vector."""
    d = lcm(*(e.denominator for e in m.flat))
    return np.array([e.numerator * (d // e.denominator) for e in m.flat], dtype=object).reshape(m.shape), d


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


def _subtract(row: dict, f: Fraction, other: dict) -> None:
    """row -= f * other, in place, keeping no zero entries."""
    for c, v in other.items():
        x = row.get(c, 0) - f * v
        if x:
            row[c] = x
        else:
            row.pop(c, None)


def _reduce(rows) -> tuple[dict[int, dict[int, Fraction]], list[Fraction]]:
    """The Gauss-Jordan core: {pivot column: its row}, in the order the
    pivot rows arose, and the leading entry of each before it was scaled.

    Each new row is reduced by the pivot rows so far, scaled to a leading 1
    and cleared from the earlier pivot rows.
    """
    reduced: dict[int, dict[int, Fraction]] = {}  # pivot column -> its row
    leads: list[Fraction] = []
    for row in rows:
        r = {c: v for c, v in row.items() if v}
        for p in [c for c in r if c in reduced]:
            _subtract(r, r[p], reduced[p])
        if r:
            lead = min(r)
            leads.append(r[lead])
            inv = Fraction(1) / r[lead]
            r = {c: v * inv for c, v in r.items()}
            for other in reduced.values():
                if lead in other:
                    _subtract(other, other[lead], r)
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
    return [reduced[p] for p in pivots], pivots


def from_rows(rows: list[dict[int, Fraction]], nc: int) -> np.ndarray:
    """Dense len(rows) x nc matrix of sparse rows ({column: value})."""
    out = zeros(len(rows), nc)
    for r, row in enumerate(rows):
        for c, v in row.items():
            out[r, c] = v
    return out


def rref(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form (copy) and its pivot columns."""
    rows, pivots = gauss_jordan(dict(enumerate(row)) for row in a)
    return from_rows(rows + [{}] * (a.shape[0] - len(rows)), a.shape[1]), pivots


def rank(a: np.ndarray) -> int:
    return len(rref(a)[1])


def det(a: np.ndarray) -> Fraction:
    """The sign of the pivot permutation times the leading entries.

    Reducing a row by the earlier rows and clearing it from them leaves the
    determinant alone; scaling it by 1/lead divides it by lead.  The rows
    end as the permutation matrix of row i -> its pivot column.  Sparser
    rows go first, so a triangular matrix reduces without fill.
    """
    n = _require_square(a)
    rows = [{c: v for c, v in enumerate(row) if v} for row in a.tolist()]
    order = sorted(range(n), key=lambda i: len(rows[i]))
    reduced, leads = _reduce(rows[i] for i in order)
    if len(leads) < n:
        return Fraction(0)
    pivot = dict(zip(order, reduced))
    inversions = sum(pivot[j] > pivot[i] for i in range(n) for j in range(i))
    return (-1) ** inversions * prod(leads, start=Fraction(1))


def inverse(a: np.ndarray) -> np.ndarray:
    n = _require_square(a)
    aug = np.concatenate([a, identity(n)], axis=1)
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return red[:, n:]


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """One exact solution of a x = b (free variables 0), or None."""
    nr, nc = a.shape
    aug = np.concatenate([a, b.reshape(nr, 1)], axis=1)
    red, pivots = rref(aug)
    if nc in pivots:
        return None
    x = np.array([Fraction(0)] * nc, dtype=object)
    for r, c in enumerate(pivots):
        x[c] = red[r, nc]
    return x


def nullspace(a: np.ndarray) -> np.ndarray:
    """Canonical kernel basis as columns (free variable = 1 pattern)."""
    return kernel((dict(enumerate(row)) for row in a), a.shape[1])


def kernel(rows, nc: int) -> np.ndarray:
    """`nullspace` of the system whose rows are sparse ({column: value})."""
    red, pivots = gauss_jordan(rows)
    free = sorted(set(range(nc)) - set(pivots))
    out = zeros(nc, len(free))
    for k, fc in enumerate(free):
        out[fc, k] = Fraction(1)
        for row, pc in zip(red, pivots):
            out[pc, k] = -row.get(fc, Fraction(0))
    return out


# -- column spaces (subspaces are matrices whose columns span them) -------


def col_basis(a: np.ndarray) -> np.ndarray:
    """Canonical basis of the column space, as columns (echelon form).

    Two matrices span the same column space iff their col_basis arrays
    are identical, so subspace equality is array equality.
    """
    red, pivots = rref(a.T)
    return red[: len(pivots)].T.copy()


def col_spaces_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return mat_eq(col_basis(a), col_basis(b))


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
        coeffs_desc.append(-trace(power) // k)
    return Polynomial(reversed([Fraction(c, d**k) for k, c in enumerate(coeffs_desc)]))


def eval_poly(p: Polynomial, m: np.ndarray) -> np.ndarray:
    """p(M), by Horner in ints on A = d M and the cleared coefficients L c_k:
    the sum of L c_k d^(deg-k) A^k is L d^deg p(M)."""
    n = _require_square(m)
    if p.is_zero():
        return zeros(n, n)
    a, d = cleared(m)
    coeffs, den = cleared(np.array(p.coeffs, dtype=object))
    deg = p.degree
    acc = np.zeros((n, n), dtype=object)
    for k in range(deg, -1, -1):
        if k < deg:
            acc = acc @ a
        c = coeffs[k] * d ** (deg - k)
        for i in range(n):
            acc[i, i] += c
    return acc * Fraction(1, den * d**deg)


def is_nilpotent(m: np.ndarray) -> bool:
    """M^n = 0, by repeated squaring of an integer multiple of M (cheaper than Fractions)."""
    n = _require_square(m)
    power, _ = cleared(m)
    for _ in range((n - 1).bit_length()):
        power = power @ power
    return is_zero_mat(power)


def primary_decomposition(m: np.ndarray) -> list[tuple[Polynomial, np.ndarray]]:
    """Split Q^n into ker p_i(M)^{e_i} over the irreducible factors p_i.

    Components come back in the canonical factor order (degree, then
    coefficients); each subspace is a canonical column basis and is
    M-invariant.
    """
    from .polynomials import factor_over_q

    _require_square(m)
    out = []
    for p, mult in factor_over_q(charpoly(m)):
        k = mat_pow(eval_poly(p, m), mult)
        out.append((p, col_basis(nullspace(k))))
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

    Descends from a multiple N of the order.  For p^e exactly dividing the
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
    return least_exponent(multiple, lambda k: (_mat_pow_mod(a, k, modulus) == ident).all())
