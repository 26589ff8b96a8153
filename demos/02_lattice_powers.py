"""Powers of a matrix mapping one lattice into another.

An integral matrix with det +-1 and integral characteristic polynomial
eventually stabilizes any lattice; with |det| > 1 this can fail along an
entire orbit.  Both phenomena, plus the certified power search with its
obstruction primes.
"""

from nilgrade import matrices as mx
from nilgrade.latpow import (
    ObstructionPrime,
    denominator_primes,
    obstruction_primes_pair,
    orbit_escapes_lattice,
    power_into_lattice,
)
from nilgrade.matrices import IntegerLattice

# This matrix is integer-like (integral charpoly, det 1) but does not map
# Z^2 into itself; its third power does.
b = mx.rmat([["5/2", "1/2"], ["1/2", "1/2"]])
print("B =", [[str(e) for e in row] for row in b])
print("B^3 =", [[str(e) for e in row] for row in mx.mat_pow(b, 3)])
verdict = orbit_escapes_lattice(b, mx.rvec([1, 0]), 3)
print("orbit of e1 under B:", verdict.decision, verdict.certificate["integral_k"])

# With determinant 2 the same game is hopeless: the orbit of e2 never
# returns to Z^2 (closed form: v + (2^k - 1)/2 * (1,3)).
a = mx.rmat([["1/2", "1/2"], ["-3/2", "5/2"]])
verdict = orbit_escapes_lattice(a, mx.rvec([0, 1]), 64)
print("\nA with det 2: orbit escapes for all k <= 64?", verdict.decision == "accept")

# For a general lattice L the modulus m collects every denominator of the
# basis and its inverse; matrices whose determinant avoids those primes
# admit a power with A^k(L) inside L.
lattice = IntegerLattice(mx.rmat([["1/2", 0], [0, 1]]))
primes, m = denominator_primes(lattice.basis)
print(f"\nlattice with basis (1/2, 0), (0, 1): m = {m}, primes = {primes}")

cert = power_into_lattice(mx.rmat([[3, 0], [0, 1]]), lattice)
print(f"diag(3,1): k = {cert.k} works (order bound {cert.order_bound});"
      f" conjugated power integral: {cert.conjugated_power.den == 1}")

try:
    power_into_lattice(mx.rmat([[2, 0], [0, 1]]), lattice)
except ObstructionPrime as e:
    print(f"diag(2,1): {e} (det shares a prime with m)")

# The prime set comparing two lattices comes from the change of basis.
l1 = IntegerLattice(mx.identity(2))
l2 = IntegerLattice(mx.rmat([["1/3", 0], [0, 1]]))
print("\nobstruction primes between Z^2 and the 1/3-refined lattice:",
      obstruction_primes_pair(l1, l2))
