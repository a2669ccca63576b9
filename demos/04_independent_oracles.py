#!/usr/bin/env python3
"""The verification structures that keep the engine honest.

Nothing here touches the torus-specific closed forms: the checks are
internal to the algebra, which is what makes agreement with the series
meaningful.
"""

from conftorus import (
    G,
    X,
    arnold_conf_betti,
    check_left_inverse,
    phi,
    psi,
    run_selftest,
)
from conftorus.gcalg import normalize
from conftorus.oracle import make_v_monomial

print("1. The genus-zero algebra (g's only, circuit relation).  Its")
print("   invariant dimensions are the Betti numbers of unordered points")
print("   on a line, a classical table:")
for n in range(2, 7):
    print(f"   n={n}: {arnold_conf_betti(n)}")

print("\n2. The disjoint-pair calculus.  V(n) has an explicit monomial")
print("   basis; phi embeds it into the main algebra:")
vm = make_v_monomial(xs=(5,), xpairs=((1, 2),), ypairs=((3, 4),))
print(f"   phi({vm}) = {phi(vm)}")

print("\n   psi classifies free monomials back; composites return home:")
print(f"   psi(g12.x1) = {psi(normalize((G(1, 2), X(1))))}")
print(f"   psi(g12.x3) = {psi(normalize((G(1, 2), X(3))))}   (bare g dies)")
for n in (2, 3, 4, 5):
    ok = check_left_inverse(n) is None
    print(f"   psi o phi = id on all of V({n}): {ok}")

print("\n3. The full identity suite at n <= 4:")
for result in run_selftest(4, include_arnold=False):
    mark = "ok " if result["passed"] else "FAIL"
    print(f"   [{mark}] {result['name']}")
