"""Gradings of nilpotent Lie algebras and the scaling automorphisms phi_p.

A basis-aligned grading is one integer weight per basis vector subject to
w_i + w_j = w_k over the nonzero structure constants.  Feasibility of
positive (or non-negative non-trivial) weights is decided exactly, and
each grading yields automorphisms scaling the weight-i layer by p^i.
"""

from nilgrade import matrices as mx
from nilgrade.fixtures import CORPUS_6DIM, load_algebra
from nilgrade.grading import (
    classify,
    find_weights,
    grading_from_weights,
    phi_p,
    weight_solution_space,
)
from nilgrade.liealg import nilpotency_class, validate

print(f"{'algebra':15s} {'dim':>3s} {'class':>5s} {'positive weights':>22s} {'non-negative':>22s}")
for name in CORPUS_6DIM + ("nilp5", "notcohopf"):
    algebra = load_algebra(name)
    assert validate(algebra).accepted()
    pos = find_weights(algebra, positive=True)
    nn = find_weights(algebra, positive=False)
    print(f"{name:15s} {algebra.dim:3d} {nilpotency_class(algebra):5d}"
          f" {str(pos):>22s} {str(nn):>22s}")

# Every dimension <= 6 algebra above has a positive grading; the two
# 7-dimensional examples behave differently.  nilp5 has weight solution
# space 0 (it is characteristically nilpotent), notcohopf only carries a
# non-negative grading, with the zero layer spanned by X1.
n5 = load_algebra("nilp5")
print("\nnilp5 weight solution space dimension:",
      weight_solution_space(n5).shape[1])

nc = load_algebra("notcohopf")
g = grading_from_weights(nc, find_weights(nc, positive=False))
print("notcohopf grading:", [(w, s.shape[1]) for w, s in g.components],
      "->", classify(nc, g))

# The grading turns into automorphisms: scale layer i by p^i.
phi = phi_p(nc, g, 2)
print("phi_2 =", [str(phi[i, i]) for i in range(7)], " det =", str(mx.det(phi)))

heis = load_algebra("heisenberg3")
gh = grading_from_weights(heis, find_weights(heis, positive=True))
print("\nHeisenberg (1,1,2) grading: phi_3 =",
      [str(phi_p(heis, gh, 3)[i, i]) for i in range(3)])
