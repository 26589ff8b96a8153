"""Holonomy-equivariant criteria and the co-Hopf question.

With a finite automorphism group F in play, expansion needs a positive
grading preserved by all of F (equivalently an expanding automorphism
commuting with F); self-covers need the non-negative analogue.  One
check, `check_criterion` with its `positive` switch, runs both on
explicit certificates, and the weight search itself is F-equivariant: it
ties w_i = w_j wherever some generator has f_ij != 0.
"""

from nilgrade import matrices as mx
from nilgrade.fixtures import load_algebra, load_holonomy, load_map
from nilgrade.grading import find_weights, grading_from_weights, phi_p
from nilgrade.holonomy import check_criterion, close_group, commutes_with_all
from nilgrade.liealg import is_characteristically_nilpotent

heis = load_algebra("heisenberg3")

# F = {1, diag(-1,-1,1)}: sign holonomy on the Heisenberg algebra.
sign = load_holonomy("heisenberg3_sign")
print("sign holonomy order:", sign.order)

g = grading_from_weights(heis, (1, 1, 2))
v = check_criterion(heis, sign, g, positive=True)
print("grading certificate:", v.decision, "via", v.condition)

m = mx.rmat([[2, 0, 0], [0, 2, 0], [0, 0, 4]])
v = check_criterion(heis, sign, m, positive=True)
print("matrix certificate:", v.decision, "via", v.condition)

# The swap holonomy permutes X1 and X2; the search adds w1 = w2 and still
# finds the symmetric grading, whose phi_p commutes with all of F.
swap = load_holonomy("heisenberg3_swap")
w = find_weights(heis, positive=True, generators=swap.generators)
print("\nswap-equivariant weights:", w)
phi = phi_p(heis, grading_from_weights(heis, w), 5)
print("phi_5 commutes with F:", commutes_with_all(phi, swap))

# The order-3 holonomy X1 -> X2 -> -X1 - X2 is not monomial; its nonzero
# entries tie w1 = w2 just the same.
order3 = load_holonomy("heisenberg3_order3")
w = find_weights(heis, positive=True, generators=order3.generators)
print("order-3-equivariant weights:", w)
phi = phi_p(heis, grading_from_weights(heis, w), 2)
print(f"phi_2 = diag({', '.join(str(phi[i, i]) for i in range(3))}) commutes with F:",
      commutes_with_all(phi, order3))

# Self-covers: the 7-dimensional notcohopf algebra is witnessed by phi
# with det 2^10; the characteristically nilpotent nilp5 can never have
# one, which certifies co-Hopficity of every full subgroup.
nc = load_algebra("notcohopf")
trivial = close_group([mx.identity(7)])
v = check_criterion(nc, trivial, load_map("notcohopf", "phi"), positive=False)
print("\nnotcohopf self-cover certificate:", v.decision, "det =", v.certificate["det"])

n5 = load_algebra("nilp5")
v = is_characteristically_nilpotent(n5)
print("nilp5 characteristically nilpotent:", v.decision,
      f"({v.certificate['derivation_dim']} basis derivations, all nilpotent)")
