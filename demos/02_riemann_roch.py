"""
Euler characteristics without cohomology
========================================
"""

from nefq2 import BiDegree, BundleNumerics, euler_char
from nefq2.cohomology import (
    cohomology_q2,
    ext1_module_profile,
    is_weak_fano,
    projective_bundle_degree,
)

# For a bundle with numerics (rank, c1, c2), the Euler characteristic is
# a polynomial in those invariants.  On line bundles it reproduces the
# product formula (a+1)(b+1).
for a, b in ((2, 2), (1, -1), (-3, 0)):
    line = BundleNumerics(1, BiDegree(a, b), 0)
    assert euler_char(line) == cohomology_q2(BiDegree(a, b)).chi
    print(f"chi O({a},{b}) = {euler_char(line)}")

# The interesting regime: determinant (2,2).  The four characteristic
# numbers below drive everything downstream, and only c2 moves them.
print()
print("  r  c2   chi(E)  chi(E(-1,0))  chi(E(0,-1))  chi(E(-1,-1))")
for c2 in range(4, 9):
    e = BundleNumerics(3, BiDegree(2, 2), c2)
    row = (
        euler_char(e),
        euler_char(e, -1, 0),
        euler_char(e, 0, -1),
        euler_char(e, -1, -1),
    )
    print(f"  3  {c2:>2}   {row[0]:>5} {row[1]:>12} {row[2]:>13} {row[3]:>14}")

# Once c2 reaches 6 those numbers assemble into the Hom/Ext profile of
# the module over the tilting algebra.
print()
for c2 in (6, 7, 8):
    profile = ext1_module_profile(BundleNumerics(3, BiDegree(2, 2), c2))
    print(f"c2={c2}: hom {profile.hom}, ext1 {profile.ext1}")

# The projectivization is weak Fano exactly while c2 stays below the
# self-intersection of the determinant.
print()
for c2 in (7, 8):
    e = BundleNumerics(2, BiDegree(2, 2), c2)
    print(f"c2={c2}: degree {projective_bundle_degree(e)}, weak Fano {is_weak_fano(e)}")
