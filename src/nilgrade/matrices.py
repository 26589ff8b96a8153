"""Exact linear algebra over Q on one matrix type, `QMat`.

A `QMat` is int rows over one positive denominator, in lowest terms, so
it is already the cleared form that every kernel here runs on: products,
powers, determinants, inverses, echelon forms and kernels read `rows`
and `den` and divide once, when they make their result.  Equal matrices
have equal rows and denominators, so a `QMat` is compared and hashed in
ints; a `Fraction` is made only for an entry that is read (`m[i, j]`,
`tolist()`).

Everything that needs elimination (determinants, inverses, echelon
forms, kernels) is one fraction-free Gauss-Jordan on sparse int rows,
`_reduce`, which keeps each pivot row primitive.  `echelon` and
`sparse_kernel` hand back int rows and int kernel columns to callers
that need no matrix.  Subspaces are compared where they are used: a
grading reads maps in its own basis, through its one inverse
(`grading.preserved_by`).

Polynomials in M are evaluated by Horner in ints on the rows of M
(`_poly_at`), so `eval_poly` divides once and `annihilates` divides
never.  The primary components are the kernels of int multiples of
p(M)^e, one per irreducible factor p^e of the characteristic
polynomial: `primary_decomposition` makes a `QMat` only for the
canonical basis it returns.

Also home to the integer-lattice utilities: column-style Hermite normal
form, matrix orders in GL(n, Z/m), and exact lattice membership, read
through the lattice's one inverse (`IntegerLattice.inverse`): v is in
the Z-span of P iff P^-1 v is integral.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd as int_gcd, lcm, prod
from operator import mul

from . import intutil
from .intutil import factor_int, frac, least_exponent
from .polynomials import Polynomial, factor_over_q


class QMat:
    """An exact rational matrix, or vector: the int `rows` over one
    denominator `den` > 0, with gcd(den, every entry) = 1.  Immutable and
    hashable; equal matrices have equal rows and den.

    A vector of length n has shape (n,) and one row.  `m[i, j]` (`v[i]`)
    and `tolist()` make Fractions; kernels read `rows` and `den` instead.
    `@`, `+`, `-` and a scalar `*` are exact.  A matrix is the sequence of
    its rows, each a list of Fractions, and a vector that of its entries,
    so an array library that reads nested sequences can copy one.
    """

    __slots__ = ("rows", "den", "shape")

    def __init__(self, rows, den: int = 1, shape: tuple[int, ...] | None = None):
        rows = tuple(map(tuple, rows))
        if shape is None:
            shape = (len(rows), len(rows[0]) if rows else 0)
        if any(len(r) != shape[-1] for r in rows):
            raise ValueError("ragged rows")
        if den == 0:
            raise ZeroDivisionError("QMat with denominator 0")
        g = int_gcd(den, *chain.from_iterable(rows)) * (1 if den > 0 else -1)
        if g != 1:
            rows = tuple(tuple(x // g for x in r) for r in rows)
        for name, value in (("rows", rows), ("den", den // g), ("shape", shape)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("QMat is immutable")

    # -- reading entries --------------------------------------------------

    def __getitem__(self, key) -> Fraction:
        i, j = (0, key) if len(self.shape) == 1 else key
        return Fraction(self.rows[i][j], self.den)

    def tolist(self) -> list:
        rows = [[Fraction(x, self.den) for x in row] for row in self.rows]
        return rows[0] if len(self.shape) == 1 else rows

    def __iter__(self):
        return iter(self.tolist())

    def __len__(self) -> int:
        return self.shape[0]

    def col(self, j: int) -> "QMat":
        """Column j as a vector."""
        return QMat(([row[j] for row in self.rows],), self.den, (self.shape[0],))

    @property
    def T(self) -> "QMat":
        """The transpose; a vector is its own."""
        if len(self.shape) == 1:
            return self
        nr, nc = self.shape
        return QMat(zip(*self.rows) if nr else ((),) * nc, self.den, (nc, nr))

    def __eq__(self, other) -> bool:
        if not isinstance(other, QMat):
            return NotImplemented
        return self.shape == other.shape and self.den == other.den and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.shape, self.den, self.rows))

    def __repr__(self) -> str:
        rows = intutil.rational_strs(self.rows, self.den)
        return f"QMat({rows[0] if len(self.shape) == 1 else rows})"

    # -- arithmetic ---------------------------------------------------------

    def __matmul__(self, other):
        return matmul(self, other) if isinstance(other, QMat) else NotImplemented

    def __add__(self, other):
        if not isinstance(other, QMat):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError(f"shapes {self.shape} and {other.shape} do not match")
        d = lcm(self.den, other.den)
        s, t = d // self.den, d // other.den
        return QMat(([x * s + y * t for x, y in zip(r, q)] for r, q in zip(self.rows, other.rows)), d, self.shape)

    def __neg__(self) -> "QMat":
        return -1 * self

    def __sub__(self, other):
        return self + -other if isinstance(other, QMat) else NotImplemented

    def __mul__(self, scalar):
        if isinstance(scalar, QMat):
            return NotImplemented
        s = frac(scalar)
        return QMat(([x * s.numerator for x in r] for r in self.rows), self.den * s.denominator, self.shape)

    __rmul__ = __mul__


def _data(values) -> list:
    """Nested data as lists, from `tolist()` where there is one."""
    return values.tolist() if hasattr(values, "tolist") else values


def rvec(entries) -> QMat:
    """Vector of rationals (ints, 'p/q' strings or Fractions), or of
    anything with `tolist()`."""
    ints, d = intutil.cleared([frac(e) for e in _data(entries)])
    return QMat((ints,), d, (len(ints),))


def rmat(rows) -> QMat:
    """Matrix from nested row data (ints, 'p/q' strings or Fractions), or
    from anything with `tolist()`, such as a QMat or an array."""
    if isinstance(rows, QMat):
        return rows
    data = [[frac(e) for e in row] for row in _data(rows)]
    width = len(data[0]) if data else 0
    if any(len(r) != width for r in data):
        raise ValueError("ragged rows")
    ints, d = intutil.cleared([e for row in data for e in row])
    return QMat((ints[i * width : (i + 1) * width] for i in range(len(data))), d, (len(data), width))


def zeros(r: int, c: int) -> QMat:
    return QMat(((0,) * c,) * r, 1, (r, c))


def identity(n: int) -> QMat:
    return QMat(([int(i == j) for j in range(n)] for i in range(n)), 1, (n, n))


def is_zero_mat(a: QMat) -> bool:
    return not any(map(any, a.rows))


def _product(a, b) -> list[list[int]]:
    """A B for int rows A and B, B with at least one row.  A row of A that
    is zero in half its entries or more, as rows of the diagonal and
    triangular maps the criteria test are, is the combination of the rows
    of B it meets; a denser one is dotted with each column of B."""
    cols = list(zip(*b))
    out = []
    for row in a:
        if 2 * row.count(0) >= len(row):
            acc = [0] * len(cols)
            for x, b_row in zip(row, b):
                if x:
                    acc = [u + x * v for u, v in zip(acc, b_row)]
            out.append(acc)
        else:
            out.append([sum(map(mul, row, col)) for col in cols])
    return out


def matmul(a: QMat, b: QMat) -> QMat:
    """A B exactly: the product of the int rows over d_a d_b.  B may be a
    vector, read as a column."""
    sa, sb = a.shape, b.shape
    if len(sa) != 2 or sa[1] != sb[0]:
        raise ValueError(f"shapes {sa} and {sb} do not align")
    if len(sb) == 1:
        v = b.rows[0]
        return QMat(([sum(map(mul, row, v)) for row in a.rows],), a.den * b.den, sa[:1])
    rows = _product(a.rows, b.rows) if sb[0] else [[0] * sb[1]] * sa[0]
    return QMat(rows, a.den * b.den, (sa[0], sb[1]))


def commutes_with(m: QMat) -> Callable[[QMat], bool]:
    """The test F -> (M F == F M), in ints: (d_M M)(d_F F) and
    (d_F F)(d_M M) share the denominator d_M d_F."""
    a = m.rows

    def test(f: QMat) -> bool:
        return _product(a, f.rows) == _product(f.rows, a)

    return test


def mat_pow(a: QMat, k: int) -> QMat:
    """A^k, by square and multiply on the int rows, divided once."""
    n = _require_square(a)
    if k < 0:
        return mat_pow(inverse(a), -k)
    return QMat(intutil.power(a.rows, k, _product), a.den**k, a.shape) if k else identity(n)


def _require_square(m: QMat) -> int:
    if len(m.shape) != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"square matrix required, got shape {m.shape}")
    return m.shape[0]


# -- elimination ---------------------------------------------------------


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

    Rows are sparse int rows ({column: value}), copied without their
    zeros; each pivot row is kept primitive (content 1, positive leading
    entry).  A new row r is reduced by each pivot row R whose column it
    meets, as r <- (a/g) r - (r[p]/g) R for a = R[p] and g = gcd(a, r[p]),
    then made primitive, and its lead is cleared from the earlier pivot
    rows the same way (Bareiss, Math. Comp. 22, 1968, keeps such steps in
    ints).
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
        r = {c: v for c, v in row.items() if v}
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


def echelon(rows) -> list[dict[int, int]]:
    """The RREF of sparse rows as primitive int rows, in pivot order: for
    callers that need only the row space, with no Fraction built."""
    reduced, _ = _reduce(rows)
    return [reduced[p] for p in sorted(reduced)]


def _rref_mat(reduced: dict[int, dict[int, int]], nr: int, nc: int) -> QMat:
    """The RREF of `_reduce`'s pivot rows, padded with zero rows to nr x nc:
    RREF row p is R_p / R_p[p], and as R_p is primitive the least
    denominator of the RREF is the lcm of the leads R_p[p]."""
    pivots = sorted(reduced)
    den = lcm(*(reduced[p][p] for p in pivots))
    out = [[0] * nc for _ in range(nr)]
    for r, p in enumerate(pivots):
        row, scale = reduced[p], den // reduced[p][p]
        for c, v in row.items():
            out[r][c] = v * scale
    return QMat(out, den, (nr, nc))


def span_basis(rows, nc: int) -> QMat:
    """The canonical basis of the span of sparse rows ({column: value}) as
    the columns of an nc x rank matrix: their RREF, transposed."""
    reduced, _ = _reduce(rows)
    return _rref_mat(reduced, len(reduced), nc).T


def _sparse_rows(rows) -> list[dict[int, int]]:
    """Int rows as sparse rows ({column: value}, no zeros)."""
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


def rref(a: QMat) -> tuple[QMat, list[int]]:
    """Reduced row echelon form and its pivot columns.  The rows of d A
    span the row space of A, so the core reads `a.rows` as they are."""
    reduced, _ = _reduce(_sparse_rows(a.rows))
    return _rref_mat(reduced, *a.shape), sorted(reduced)


def det(a: QMat) -> Fraction:
    """det(A) = det(d A) / d^n: the sign of the pivot permutation times the
    pivots lead / s of forward elimination, read off the core.

    Subtracting from each row a combination of the rows before it leaves
    the determinant alone and makes the matrix triangular up to the
    permutation of row i -> its pivot column.  Sparser rows go first, so
    a triangular matrix reduces without fill.
    """
    n = _require_square(a)
    rows = _sparse_rows(a.rows)
    order = sorted(range(n), key=lambda i: len(rows[i]))
    reduced, leads = _reduce(rows[i] for i in order)
    if len(leads) < n:
        return Fraction(0)
    pivot = dict(zip(order, reduced))
    inversions = sum(pivot[j] > pivot[i] for i in range(n) for j in range(i))
    return Fraction((-1) ** inversions * prod(x for x, _ in leads), prod(s for _, s in leads) * a.den**n)


def inverse(a: QMat) -> QMat:
    """A^-1, with no Fraction built: the right half of the RREF of
    [d A | d I], read off the core by `_rref_mat`."""
    n = _require_square(a)
    reduced, _ = _reduce({**row, n + i: a.den} for i, row in enumerate(_sparse_rows(a.rows)))
    if sorted(reduced) != list(range(n)):
        raise ValueError("matrix is singular")
    rref_rows = _rref_mat(reduced, n, 2 * n)
    return QMat((row[n:] for row in rref_rows.rows), rref_rows.den, (n, n))


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


def kernel(rows, nc: int) -> QMat:
    """`sparse_kernel` as the nc x k matrix of its columns."""
    cols = sparse_kernel(rows, nc)
    den = lcm(*(d for _, d in cols))
    out = [[0] * len(cols) for _ in range(nc)]
    for k, (col, d) in enumerate(cols):
        for c, v in col.items():
            out[c][k] = v * (den // d)
    return QMat(out, den, (nc, len(cols)))


# -- column spaces (subspaces are matrices whose columns span them) -------


def col_basis(a: QMat) -> QMat:
    """Canonical basis of the column space, as columns (echelon form).

    Two matrices span the same column space iff their col_basis
    matrices are equal.
    """
    return span_basis(_sparse_rows(a.T.rows), a.shape[0])


def hstack(mats: list[QMat]) -> QMat:
    """The matrices side by side, over the lcm of their denominators."""
    if not mats:
        raise ValueError("need at least one matrix")
    nr = mats[0].shape[0]
    if any(m.shape[0] != nr for m in mats):
        raise ValueError("matrices differ in their number of rows")
    den = lcm(*(m.den for m in mats))
    scaled = [[[x * (den // m.den) for x in row] for row in m.rows] if m.den != den else m.rows for m in mats]
    rows = [list(chain.from_iterable(m[i] for m in scaled)) for i in range(nr)]
    return QMat(rows, den, (nr, sum(m.shape[1] for m in mats)))


# -- characteristic polynomials ------------------------------------------


def charpoly(m: QMat) -> Polynomial:
    """Monic characteristic polynomial det(X I - M), Faddeev-LeVerrier.

    Runs on A = d M in ints: M_k = (M_{k-1} + c_{k-1} I) A is integral
    (M_{k-1} is a polynomial in A, so it commutes with A) and
    tr(M_k) = -k c_k, so each division is exact; det(X I - M) is then
    the ints c_k d^(n-k) of X^(n-k) over d^n.
    """
    n = _require_square(m)
    coeffs_desc = [1]
    power = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            power[i][i] += coeffs_desc[-1]
        power = _product(power, m.rows)
        coeffs_desc.append(-sum(power[i][i] for i in range(n)) // k)
    d = m.den
    return Polynomial._from_ints(reversed([c * d ** (n - k) for k, c in enumerate(coeffs_desc)]), d**n)


def _poly_at(p: Polynomial, m: QMat) -> tuple[list[list[int]], int]:
    """(s p(M) as int rows, s) for a nonzero p, by Horner in ints on
    A = d M and the int coefficients L c_k of p: the sum of
    L c_k d^(deg-k) A^k is s p(M) for s = L d^deg."""
    n, d = m.shape[0], m.den
    deg = p.degree
    acc = [[0] * n for _ in range(n)]
    for k in range(deg, -1, -1):
        if k < deg:
            acc = _product(acc, m.rows)
        c = p.ints[k] * d ** (deg - k)
        for i in range(n):
            acc[i][i] += c
    return acc, p.den * d**deg


def eval_poly(p: Polynomial, m: QMat) -> QMat:
    """p(M): `_poly_at`, divided once."""
    n = _require_square(m)
    if p.is_zero():
        return zeros(n, n)
    return QMat(*_poly_at(p, m), m.shape)


def annihilates(p: Polynomial, m: QMat) -> bool:
    """p(M) = 0, decided on the int multiple of p(M) with no Fraction built."""
    _require_square(m)
    return p.is_zero() or not any(map(any, _poly_at(p, m)[0]))


def is_nilpotent_int(a) -> bool:
    """A^n = 0 for the int rows of an n x n matrix A, by repeated squaring."""
    for _ in range((len(a) - 1).bit_length()):
        a = _product(a, a)
    return not any(map(any, a))


def primary_decomposition(m: QMat) -> list[tuple[Polynomial, QMat]]:
    """Split Q^n into ker p_i(M)^{e_i} over the irreducible factors p_i.

    Components come back in the canonical factor order (degree, then
    coefficients); each subspace is a canonical column basis and is
    M-invariant.  All in ints: K_i = s p_i(M) is `_poly_at`'s int
    multiple, divided by its content (`intutil.primitive`) and raised to
    e_i by `intutil.power` on int rows, and ker K_i^e_i = ker p_i(M)^e_i is the `sparse_kernel` of its rows,
    whose int columns `span_basis` reduces to the canonical basis.
    """
    n = _require_square(m)
    out = []
    for p, mult in factor_over_q(charpoly(m)):
        flat = intutil.primitive(chain.from_iterable(_poly_at(p, m)[0]))  # all zero when p is the minimal polynomial
        k = intutil.power([flat[i : i + n] for i in range(0, n * n, n)], mult, _product)
        kernel_cols = [col for col, _ in sparse_kernel(_sparse_rows(k), n)]
        out.append((p, span_basis(kernel_cols, n)))
    return out


# -- integer lattices ------------------------------------------------------


@dataclass(frozen=True)
class IntegerLattice:
    """Z-span of the columns of an invertible rational matrix P, with its
    one inverse P^-1 (`inverse`), which membership and lattice powers
    read."""

    basis: QMat

    def __post_init__(self):
        _require_square(self.basis)
        try:
            self.inverse
        except ValueError:
            raise ValueError("lattice basis must be invertible") from None

    @cached_property
    def inverse(self) -> QMat:
        """P^-1, computed once."""
        return inverse(self.basis)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


def hnf(a: QMat) -> QMat:
    """Column-style Hermite normal form of a nonsingular integer matrix.

    Lower triangular, positive pivots, entries left of each pivot reduced
    into [0, pivot).  Unique for the column lattice: two integer bases
    span the same lattice iff their Hermite forms are equal.
    """
    n = _require_square(a)
    if a.den != 1:
        raise ValueError("integer matrix required")
    h = [list(col) for col in zip(*a.rows)]  # h[c][r]: the columns

    def subtract(c: int, q: int, r: int) -> None:  # column c -= q column r
        h[c] = [x - q * y for x, y in zip(h[c], h[r])]

    for r in range(n):
        while True:
            cols = [c for c in range(r, n) if h[c][r] != 0]
            if not cols:
                raise ValueError("matrix is singular")
            cmin = min(cols, key=lambda c: abs(h[c][r]))
            h[r], h[cmin] = h[cmin], h[r]
            done = True
            for c in range(r + 1, n):
                if h[c][r] != 0:
                    subtract(c, h[c][r] // h[r][r], r)
                    done = done and h[c][r] == 0
            if done:
                break
        if h[r][r] < 0:
            h[r] = [-x for x in h[r]]
        for c in range(r):
            q = h[c][r] // h[r][r]
            if q != 0:
                subtract(c, q, r)
    return QMat(zip(*h), 1, (n, n))


def hnf_membership(v: QMat, lattice: IntegerLattice) -> bool:
    """Exact test for v in the Z-span of the lattice basis P: v = P z for
    the one z = P^-1 v, so v is in the lattice iff P^-1 v is integral."""
    n = lattice.dim
    if v.shape != (n,):
        raise ValueError(f"vector of length {n} required, got shape {v.shape}")
    return (lattice.inverse @ v).den == 1


def _mat_mul_mod(a, b, modulus: int) -> list[list[int]]:
    """A B mod the modulus for int rows A and B (B with a row).  Unrolled
    for an inner dimension of 2 to 4, the lattice-power sizes, where one
    sum(map(mul)) call per entry would cost about half as much again."""
    cols = list(zip(*b))
    k = len(b)
    if k == 2:
        return [[(r0 * c0 + r1 * c1) % modulus for c0, c1 in cols] for r0, r1 in a]
    if k == 3:
        return [[(r0 * c0 + r1 * c1 + r2 * c2) % modulus for c0, c1, c2 in cols] for r0, r1, r2 in a]
    if k == 4:
        return [[(r0 * c0 + r1 * c1 + r2 * c2 + r3 * c3) % modulus for c0, c1, c2, c3 in cols] for r0, r1, r2, r3 in a]
    return [[sum(map(mul, row, col)) % modulus for col in cols] for row in a]


def _mat_pow_mod(base, k: int, modulus: int) -> list[list[int]]:
    """B^k mod the modulus for int rows B and k >= 1."""
    reduced = [[x % modulus for x in row] for row in base]
    return intutil.power(reduced, k, lambda x, y: _mat_mul_mod(x, y, modulus))


def order_mod(m: QMat, modulus: int) -> int:
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
    if m.den != 1:
        raise ValueError("integer matrix required")
    d = int(det(m)) % modulus
    if int_gcd(d, modulus) != 1:
        raise ValueError(f"det {d} not invertible mod {modulus}")
    multiple = 1
    for p, e in factor_int(modulus).items():
        p_part = p ** (e - 1 + (n - 1).bit_length())  # p^(bit length of n - 1) >= n
        multiple = lcm(multiple, p_part, *(p**i - 1 for i in range(1, n + 1)))
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    reduced = [[x % modulus for x in row] for row in m.rows]
    return least_exponent(multiple, reduced, lambda y, e: _mat_pow_mod(y, e, modulus), lambda y: y == ident)
