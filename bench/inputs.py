"""Seeded input generators for the nilgrade benchmark.

Everything here is built from first principles, without calling nilgrade,
so the benchmark's inputs and its answer checks do not depend on the code
they measure.  Rationals are `Fraction`; a Lie algebra is
``Algebra(dim, table)`` with 0-based ``table[(i, j)] = {k: c}`` for
``i < j``, and a matrix is a list of rows.  `algebra_json` and
`matrix_json` turn them into the CLI's file formats.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

Matrix = list[list[Fraction]]


@dataclass(frozen=True)
class Algebra:
    dim: int
    table: dict  # (i, j) with i < j  ->  {k: nonzero Fraction}
    name: str = ""

    def bracket_basis(self, i: int, j: int) -> dict:
        if i == j:
            return {}
        if i < j:
            return self.table.get((i, j), {})
        return {k: -c for k, c in self.table.get((j, i), {}).items()}

    def bracket(self, x: list, y: list) -> list:
        out = [Fraction(0)] * self.dim
        for (i, j), terms in self.table.items():
            c = x[i] * y[j] - x[j] * y[i]
            if c:
                for k, v in terms.items():
                    out[k] += c * v
        return out


# -- the algebra ladder --------------------------------------------------------


def filiform(n: int) -> Algebra:
    """L_n: [X_1, X_i] = X_{i+1} for 2 <= i < n (class n-1)."""
    if n < 3:
        raise ValueError("filiform L_n needs n >= 3")
    return Algebra(n, {(0, i): {i + 1: Fraction(1)} for i in range(1, n - 1)}, f"L{n}")


def heisenberg(m: int) -> Algebra:
    """H_{2m+1}: [X_{2i-1}, X_{2i}] = X_{2m+1} (the bundled fixtures' order)."""
    n = 2 * m + 1
    return Algebra(n, {(2 * i, 2 * i + 1): {n - 1: Fraction(1)} for i in range(m)}, f"H{n}")


def abelian(n: int) -> Algebra:
    return Algebra(n, {}, f"A{n}")


def _mobius(n: int) -> int:
    out, p, x = 1, 2, n
    while p * p <= x:
        if x % p == 0:
            x //= p
            if x % p == 0:
                return 0
            out = -out
        p += 1
    return -out if x > 1 else out


def witt_dimension(r: int, c: int) -> int:
    """dim N_{r,c} = sum over d <= c of (1/d) sum_{e | d} mu(e) r^(d/e)."""
    return sum(
        sum(_mobius(e) * r ** (d // e) for e in range(1, d + 1) if d % e == 0) // d
        for d in range(1, c + 1)
    )


def hall_basis(r: int, c: int) -> list[tuple]:
    """M. Hall's basic commutators of weight <= c on r generators.

    Entries are ("x", a) for generator a or (u, v) for [b_u, b_v] with
    u > v and, when b_u = [b_x, b_y], y <= v; the list is ordered by
    weight, then by construction order.
    """
    basis: list[tuple] = [("x", a) for a in range(r)]
    weight = [1] * r
    for n in range(2, c + 1):
        for u in range(len(basis)):
            for v in range(u):
                if weight[u] + weight[v] != n:
                    continue
                if basis[u][0] != "x" and basis[u][1] > v:
                    continue
                basis.append((u, v))
                weight.append(n)
    return basis


def _lie_words(basis: list[tuple]) -> list[dict]:
    """Each basic commutator expanded in the free associative algebra."""
    words: list[dict] = []
    for entry in basis:
        if entry[0] == "x":
            words.append({(entry[1],): 1})
        else:
            words.append(_commutator(words[entry[0]], words[entry[1]]))
    return words


def _commutator(f: dict, g: dict) -> dict:
    out: dict = {}
    for a, ca in f.items():
        for b, cb in g.items():
            out[a + b] = out.get(a + b, 0) + ca * cb
            out[b + a] = out.get(b + a, 0) - ca * cb
    return {w: c for w, c in out.items() if c}


def _solve_in_span(columns: list[dict], target: dict) -> list[Fraction]:
    """Coefficients x with sum x_a * columns[a] == target, exactly."""
    words = sorted({w for col in columns for w in col} | set(target))
    rows = [[Fraction(col.get(w, 0)) for col in columns] + [Fraction(target.get(w, 0))] for w in words]
    ncols = len(columns)
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [e * inv for e in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    if any(row[ncols] for row in rows[r:]):
        raise ArithmeticError("bracket left the span of the Hall basis")
    x = [Fraction(0)] * ncols
    for row_idx, c in enumerate(pivots):
        x[c] = rows[row_idx][ncols]
    return x


def free_nilpotent(r: int, c: int) -> Algebra:
    """N_{r,c}: the free nilpotent Lie algebra of rank r and class c.

    The basis is the Hall basis; [b_i, b_j] is expanded in the free
    associative algebra and written back in the basic commutators of its
    weight (brackets of weight > c vanish).
    """
    basis = hall_basis(r, c)
    weight = []
    for entry in basis:
        weight.append(1 if entry[0] == "x" else weight[entry[0]] + weight[entry[1]])
    words = _lie_words(basis)
    by_weight: dict[int, list[int]] = {}
    for idx, w in enumerate(weight):
        by_weight.setdefault(w, []).append(idx)
    table = {}
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            w = weight[i] + weight[j]
            if w > c:
                continue
            target = _commutator(words[i], words[j])
            if not target:
                continue
            idxs = by_weight[w]
            x = _solve_in_span([words[k] for k in idxs], target)
            terms = {k: v for k, v in zip(idxs, x) if v}
            if terms:
                table[(i, j)] = terms
    return Algebra(len(basis), table, f"N{r},{c}")


def basis_weights(algebra: Algebra) -> list[int]:
    """The standard positive grading of a ladder algebra, basis-aligned.

    Found by propagating w_k = w_i + w_j from the generators (weight 1);
    for L_n the generator X_1 has weight 1 and X_2 starts the chain.
    """
    targets = {k for terms in algebra.table.values() for k in terms}
    w: list[int | None] = [1 if k not in targets else None for k in range(algebra.dim)]
    changed = True
    while changed:
        changed = False
        for (i, j), terms in algebra.table.items():
            if w[i] is not None and w[j] is not None:
                for k in terms:
                    if w[k] is None:
                        w[k] = w[i] + w[j]
                        changed = True
    if any(v is None for v in w):
        raise ValueError("no generator-propagated weights")
    return w  # type: ignore[return-value]


# -- basis changes and maps ------------------------------------------------------


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def diag(entries) -> Matrix:
    n = len(entries)
    return [[Fraction(entries[i]) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def matmul(a: Matrix, b: Matrix) -> Matrix:
    bt = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt] for row in a]


def matvec(a: Matrix, v: list) -> list:
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]


def rescaled(algebra: Algebra, scales: list[Fraction]) -> Algebra:
    """The same algebra in the basis Y_i = s_i X_i."""
    table = {}
    for (i, j), terms in algebra.table.items():
        table[(i, j)] = {k: c * scales[i] * scales[j] / scales[k] for k, c in terms.items()}
    return Algebra(algebra.dim, table, algebra.name)


def conjugate_by_scaling(m: Matrix, scales: list[Fraction]) -> Matrix:
    """Matrix of the same map in the basis Y_i = s_i X_i."""
    n = len(m)
    return [[m[i][j] * scales[j] / scales[i] for j in range(n)] for i in range(n)]


def random_scales(rng: random.Random, n: int) -> list[Fraction]:
    return [Fraction(rng.choice((1, -1, 2, -2))) for _ in range(n)]


def phi_p(weights: list[int], p: int) -> Matrix:
    return diag([Fraction(p) ** w for w in weights])


def ad(algebra: Algebra, x: list) -> Matrix:
    """Matrix of ad_x: column j is [x, e_j]."""
    n = algebra.dim
    cols = [algebra.bracket(x, [Fraction(int(k == j)) for k in range(n)]) for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def exp_nilpotent(m: Matrix) -> Matrix:
    n = len(m)
    out = identity(n)
    term = identity(n)
    for k in range(1, n + 1):
        term = [[e / k for e in row] for row in matmul(term, m)]
        if not any(e for row in term for e in row):
            break
        out = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(out, term)]
    return out


def companion(coeffs: list[int]) -> Matrix:
    """Companion matrix of the monic X^n + c_{n-1} X^{n-1} + ... + c_0."""
    n = len(coeffs)
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n):
        m[i][i - 1] = Fraction(1)
    for i in range(n):
        m[i][n - 1] = Fraction(-coeffs[i])
    return m


def is_automorphism(algebra: Algebra, m: Matrix) -> bool:
    """M[e_i, e_j] == [M e_i, M e_j] on every basis pair, and det != 0."""
    n = algebra.dim
    cols = [[m[i][j] for i in range(n)] for j in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            terms = algebra.bracket_basis(i, j)
            lhs = [sum((m[r][k] * c for k, c in terms.items()), Fraction(0)) for r in range(n)]
            if lhs != algebra.bracket(cols[i], cols[j]):
                return False
    return determinant(m) != 0


def determinant(m: Matrix) -> Fraction:
    a = [list(row) for row in m]
    n = len(a)
    d = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if a[i][c]), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            a[c], a[pr] = a[pr], a[c]
            d = -d
        d *= a[c][c]
        for i in range(c + 1, n):
            if a[i][c]:
                f = a[i][c] / a[c][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return d


def mat_pow_int(a: list[list[int]], k: int) -> list[list[int]]:
    """A^k of an integer matrix, in plain ints (no Fraction overhead)."""

    def mul(x, y):
        cols = list(zip(*y))
        return [[sum(p * q for p, q in zip(row, col)) for col in cols] for row in x]

    out = [[int(i == j) for j in range(len(a))] for i in range(len(a))]
    while k:
        if k & 1:
            out = mul(out, a)
        k >>= 1
        if k:
            a = mul(a, a)
    return out


# -- wire formats ------------------------------------------------------------------


def algebra_json(algebra: Algebra) -> dict:
    brackets = []
    for (i, j) in sorted(algebra.table):
        terms = [{"k": k + 1, "c": str(c)} for k, c in sorted(algebra.table[(i, j)].items()) if c]
        brackets.append({"i": i + 1, "j": j + 1, "terms": terms})
    return {"dim": algebra.dim, "brackets": brackets}


def algebra_from_json(data: dict) -> Algebra:
    table = {}
    for b in data.get("brackets", []):
        terms = {}
        for t in b.get("terms", []):
            terms[t["k"] - 1] = terms.get(t["k"] - 1, 0) + Fraction(t["c"])
        terms = {k: c for k, c in terms.items() if c}
        if terms:
            table[(b["i"] - 1, b["j"] - 1)] = terms
    return Algebra(data["dim"], table)


def matrix_json(m: Matrix) -> list[list[str]]:
    return [[str(e) for e in row] for row in m]


# -- lattice pairs (A, L) ----------------------------------------------------------


def factor_int(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _lcm(a: int, b: int) -> int:
    from math import gcd

    return a * b // gcd(a, b)


def int_matrix(m: Matrix) -> list[list[int]]:
    return [[int(e) for e in row] for row in m]


def mat_mul_mod(a, b, q: int):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % q for col in bt] for row in a]


def mat_pow_mod(a, k: int, q: int) -> list[list[int]]:
    """A^k mod q; in int64 while every product fits, else in Python ints."""
    n = len(a)
    if q < 1 << 26:
        out = np.identity(n, dtype=np.int64) % q
        base = np.array(a, dtype=object).astype(np.int64) % q if n else out
        while k:
            if k & 1:
                out = (out @ base) % q
            base = (base @ base) % q
            k >>= 1
        return out.tolist()
    out = [[int(i == j) % q for j in range(n)] for i in range(n)]
    base = [[e % q for e in row] for row in a]
    while k:
        if k & 1:
            out = mat_mul_mod(out, base, q)
        base = mat_mul_mod(base, base, q)
        k >>= 1
    return out


def is_identity_mod(a, q: int) -> bool:
    return all((e - int(i == j)) % q == 0 for i, row in enumerate(a) for j, e in enumerate(row))


def _descend(k: int, ok) -> int:
    """Smallest divisor of k with ok(), given ok(k) and a subgroup of valid k."""
    for q in factor_int(k):
        while k % q == 0 and ok(k // q):
            k //= q
    return k


def order_mod_prime(a: list[list[int]], p: int) -> int:
    """Order of A in GL(n, F_p), by descent from a multiple of every order."""
    n = len(a)
    bound = 1
    for i in range(1, n + 1):
        bound = _lcm(bound, p**i - 1)
    pe = 1
    while pe < n:
        pe *= p
    bound *= pe
    # the p'-part of the order, one prime power of the bound at a time
    order = 1
    for q, e in factor_int(bound).items():
        b = mat_pow_mod(a, bound // q**e, p)
        while not is_identity_mod(b, p):
            b = mat_pow_mod(b, q, p)
            order *= q
            e -= 1
            if e < 0:
                raise ArithmeticError("order bound does not annihilate A")
    return order


def order_mod(a: list[list[int]], modulus: int, prime_order=None) -> int:
    """Order of A in GL(n, Z/modulus): lift each prime's order p-adically."""
    order = 1
    for p, e in factor_int(modulus).items():
        r = prime_order(p) if prime_order else order_mod_prime(a, p)
        q = p**e
        b = mat_pow_mod(a, r, q)
        while not is_identity_mod(b, q):
            b = mat_pow_mod(b, p, q)
            r *= p
        order = _lcm(order, r)
    return order


def inverse(m: Matrix) -> Matrix:
    n = len(m)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        pr = next(i for i in range(c, n) if aug[i][c])
        aug[c], aug[pr] = aug[pr], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [e * inv for e in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


@dataclass(frozen=True)
class LatticePair:
    """A and the lattice basis P, with the facts the checks need."""

    a: Matrix
    basis: Matrix
    modulus: int  # product of every entry denominator of P and P^-1
    det: int
    _orders: dict = field(default_factory=dict, compare=False, repr=False)

    def order_mod_prime(self, p: int) -> int:
        if p not in self._orders:
            self._orders[p] = order_mod_prime(int_matrix(self.a), p)
        return self._orders[p]

    @cached_property
    def scaled(self):
        """(U, V, m0): integer d1 P^-1, d2 P and m0 = d1 d2."""
        pinv = inverse(self.basis)
        d1 = d2 = 1
        for row in pinv:
            for e in row:
                d1 = _lcm(d1, e.denominator)
        for row in self.basis:
            for e in row:
                d2 = _lcm(d2, e.denominator)
        u = [[int(e * d1) for e in row] for row in pinv]
        v = [[int(e * d2) for e in row] for row in self.basis]
        return u, v, d1 * d2

    def maps_into(self, k: int) -> bool:
        """P^-1 A^k P is integral."""
        u, v, m0 = self.scaled
        ak = mat_pow_mod(int_matrix(self.a), k, m0)
        return all(e == 0 for row in mat_mul_mod(mat_mul_mod(u, ak, m0), v, m0) for e in row)

    @cached_property
    def k(self) -> int:
        """Smallest k >= 1 with A^k L in L (the valid k form a subgroup of Z)."""
        _, _, m0 = self.scaled
        return _descend(order_mod(int_matrix(self.a), m0, self.order_mod_prime), self.maps_into)

    @cached_property
    def scan_work(self) -> int:
        """Steps a linear scan takes: the order mod each prime of the
        modulus, plus k steps of the power scan (weighted 3: each costs
        about three order steps)."""
        return sum(self.order_mod_prime(p) for p in factor_int(self.modulus)) + 3 * self.k

    @cached_property
    def conjugated_power(self) -> Matrix:
        """P^-1 A^k P, the matrix a latpow certificate prints."""
        ak = [[Fraction(e) for e in row] for row in mat_pow_int(int_matrix(self.a), self.k)]
        return matmul(matmul(inverse(self.basis), ak), self.basis)

    @cached_property
    def printable(self) -> bool:
        """Every numerator and denominator of P^-1 A^k P has at most
        CERT_DIGITS digits, so the certificate can be printed."""
        limit = 10**CERT_DIGITS
        return all(abs(e.numerator) < limit and e.denominator < limit for row in self.conjugated_power for e in row)


def lattice_modulus(basis: Matrix) -> int:
    m = 1
    for row in basis + inverse(basis):
        for e in row:
            m *= e.denominator
    return m


DENOMINATOR_PRIMES = (2, 3, 5, 7, 11, 13)
# Python refuses to turn an int of more digits into a string
# (sys.get_int_max_str_digits() in Python 3.11)
CERT_DIGITS = 4300


def random_pair(rng: random.Random, n: int) -> LatticePair:
    """A with entries in [-3, 3] and det != 0; P lower triangular, each
    entry's denominator 1 or, with probability 1/2, one of the primes."""
    while True:
        a = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        det = determinant(a)
        if det:
            break
    dens = (1,) * len(DENOMINATOR_PRIMES) + DENOMINATOR_PRIMES
    basis = [
        [
            Fraction(rng.randint(1, 3) if i == j else rng.randint(0, 2), rng.choice(dens)) if j <= i else Fraction(0)
            for j in range(n)
        ]
        for i in range(n)
    ]
    return LatticePair(a, basis, lattice_modulus(basis), int(det))


def unimodular(rng: random.Random, n: int, steps: int) -> Matrix:
    """Product of `steps` elementary integer row operations (det 1)."""
    m = identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        f = rng.choice((-1, 1))
        m[i] = [x + f * y for x, y in zip(m[i], m[j])]
    return m
