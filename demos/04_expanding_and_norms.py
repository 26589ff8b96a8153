"""From expanding automorphisms back to positive gradings.

Expansion (all eigenvalues outside the unit circle) is decided by an
exact Schur-Cohn chain, with no floating point.  The primary components
of an expanding automorphism, which are those of its semisimple part, are
tagged by a fixed power of the eigenvalue norms, and equal-norm layers
reassemble into a positive grading the automorphism preserves.
"""

from nilgrade import matrices as mx
from nilgrade.fixtures import load_algebra, load_map
from nilgrade.grading import classify, preserved_by
from nilgrade.specmaps import (
    expanding_to_positive_grading,
    is_expanding,
    map_problems,
    norm_profile,
    selfcover_to_nonneg_grading,
    semisimple_part,
)

# Exact unit-circle decisions: 2 and 3 expand, the golden-ratio-like
# companion matrix does not (one root is inside), and eigenvalues of
# absolute value exactly 1 never count as expanding.
print("diag(2,3) expanding:", is_expanding(mx.rmat([[2, 0], [0, 3]])))
comp = mx.rmat([[0, -1], [1, 3]])  # companion of X^2 - 3X + 1
print("companion(X^2-3X+1) expanding:", is_expanding(comp))
rot = mx.rmat([[0, -1], [1, 0]])
print("quarter turn (|eigenvalues| = 1) expanding:", is_expanding(rot))

# integer-like = integral charpoly and det +-1: of the self-cover map test
# (charpoly in Z[X] and |det| > 1), only the determinant fails
b = mx.rmat([["5/2", "1/2"], ["1/2", "1/2"]])
print("\n[[5/2,1/2],[1/2,1/2]] self-cover map test:", map_problems(mx.charpoly(b), mx.det(b), positive=False))

# The semisimple part strips nilpotent shear without touching eigenvalues
# or primary components, so a map and its semisimple part share a profile.
j = mx.rmat([[2, 1], [0, 2]])
print("semisimple part of [[2,1],[0,2]]:", [[str(e) for e in r] for r in semisimple_part(j)])
print("same norm profile:", [e.value for e in norm_profile(j).entries]
      == [e.value for e in norm_profile(semisimple_part(j)).entries])

# Norm profiles on the Heisenberg algebra: diag(2,3,6) has three layers
# whose values multiply along brackets (2 * 3 = 6).
heis = load_algebra("heisenberg3")
d236 = mx.rmat([[2, 0, 0], [0, 3, 0], [0, 0, 6]])
prof = norm_profile(d236)
print("\nnorm profile of diag(2,3,6):",
      [(str(e.factor), str(e.value)) for e in prof.entries])
g = expanding_to_positive_grading(heis, d236)
print("extracted grading weights:", g.weights, "->", classify(heis, g))
print("preserved by the map:", preserved_by(g, d236))

# The headline example: a 7-dimensional algebra with no expanding
# automorphism but a self-cover of determinant 2^10.  Its norm layers
# give the non-negative grading directly.
nc = load_algebra("notcohopf")
phi = load_map("notcohopf", "phi")
print("\nnotcohopf phi expanding:", is_expanding(phi), " det:", str(mx.det(phi)))
g2 = selfcover_to_nonneg_grading(nc, phi)
print("self-cover grading:", [(w, s.shape[1]) for w, s in g2.components],
      "->", classify(nc, g2))
