#!/usr/bin/env python3
"""The algebra engine, from generators to surviving dimensions.

For n labelled points on a punctured torus the relevant algebra has odd
generators x_i, y_i (one pair per point) and g_ij (one per pair of points),
subject to the circuit relation among the g's, the transport relations
g_ij x_i = g_ij x_j, g_ij y_i = g_ij y_j, and x_i y_i = 0.  A differential
d(g_ij) = y_i x_j - x_i y_j of bidegree (+2, -1) and a symmetric-group
action complete the picture.  This script walks through the machinery at
small n.
"""

from conftorus import (
    BidegreeSpace,
    Element,
    G,
    X,
    Y,
    differential,
    e3_dims,
    free_basis,
    normalize,
    sn_act,
    symmetrize,
)

print("Normal forms: generators anticommute and square to zero.")
m = normalize((Y(2), X(1), G(1, 2)))
print(f"  y2 * x1 * g12  normalizes to  {m}")

print("\nBidegree (p, q) counts letters and g's; each piece of the free")
print("algebra is finite dimensional:")
for (p, q) in [(1, 0), (0, 1), (2, 1)]:
    basis = free_basis(2, p, q)
    print(f"  n=2 (p,q)=({p},{q}): {[str(b) for b in basis]}")

print("\nQuotient by the relations, bidegree by bidegree:")
space = BidegreeSpace(3, 0, 2)
print(f"  n=3 (0,2): free dim {space.free_dim}, quotient dim {space.dim}")
e = Element.from_generators(G(1, 3), G(2, 3))
coords = space.reduce(e)
named = {str(space.layout.decode(m)): c for m, c in sorted(coords.items())}
print(f"  g13.g23 reduces to {named}")

print("\nThe three-term relation is the unique sign pattern stable under")
print("relabelling; a triangle of g's multiplies to zero:")
tri = Element.from_monomial(normalize((G(1, 2), G(1, 3), G(2, 3))))
print(f"  g12.g13.g23 -> {BidegreeSpace(3, 0, 3).reduce(tri)}")

print("\nThe differential kills decorated pairs in the quotient:")
d = differential(Element.from_generators(G(1, 2), X(1)))
print(f"  d(g12.x1) = {d}  (free algebra)")
print(f"  ...which reduces to {BidegreeSpace(2, 3, 0).reduce(d)}")

print("\nRelabelling acts with Koszul signs and commutes with d:")
e = Element.from_generators(G(1, 2), X(3))
print(f"  (1 2 3) . g12.x3 = {sn_act((2, 3, 1), e)}")

print("\nSumming over the group, n! times averaging, maps onto invariants:")
g12, x1x2 = Element.from_generators(G(1, 2)), Element.from_generators(X(1), X(2))
print(f"  sum of sigma.g12 at n=2: {symmetrize(g12, 2)}")
print(f"  sum of sigma.x1.x2 at n=2: {symmetrize(x1x2, 2)}")

print("\nPutting it together: invariants, then cohomology of d.")
for n in range(4):
    rep = e3_dims(n)
    nz = {k: v for k, v in sorted(rep.e3_inv.items())}
    print(f"  n={n}: surviving dims {nz} -> Betti {rep.betti}")
