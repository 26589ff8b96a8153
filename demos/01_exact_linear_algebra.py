"""Exact rational linear algebra: the substrate everything else runs on.

Characteristic polynomials, factorization over Q, primary decomposition,
Hermite-form lattice membership and matrix orders mod m, all with
Fractions and zero rounding error.
"""

from nilgrade import matrices as mx
from nilgrade.matrices import IntegerLattice, hnf, hnf_membership, order_mod
from nilgrade.polynomials import factor_over_q


def show(m):
    return "[" + "; ".join(" ".join(str(e) for e in row) for row in m) + "]"


# A 2x2 matrix with rational entries.  Its characteristic polynomial is
# integral even though the matrix is not.
a = mx.rmat([["1/2", "1/2"], ["-3/2", "5/2"]])
p = mx.charpoly(a)
print("A =", show(a))
print("charpoly(A) =", p)

# Factor it over Q: two rational eigenvalues.
print("factors:", [(str(f), m) for f, m in factor_over_q(p)])

# Primary decomposition splits Q^2 into the two eigenlines.
for factor, subspace in mx.primary_decomposition(a):
    print(f"ker {factor}:  spanned by ({', '.join(str(e) for e in subspace.col(0))})")

# Lattice membership is decided through the (unique) column-style Hermite
# normal form of the basis.
basis = mx.rmat([[2, 1], [0, 3]])
print("\nlattice basis columns (2,0) and (1,3); HNF =", show(hnf(basis)))
lattice = IntegerLattice(basis)
for v in ([1, 3], [1, 0], [3, 3]):
    print(f"  ({v[0]},{v[1]}) in lattice?", hnf_membership(mx.rvec(v), lattice))

# Orders in GL(n, Z_m): how long until a matrix power is congruent to the
# identity.  The rotation by 90 degrees has order 4 modulo 3.
rot = mx.rmat([[0, -1], [1, 0]])
print("\norder of the quarter turn mod 3:", order_mod(rot, 3))
print("order of the shear [[1,1],[0,1]] mod 2:", order_mod(mx.rmat([[1, 1], [0, 1]]), 2))
