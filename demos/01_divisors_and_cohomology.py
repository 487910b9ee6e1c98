"""
Divisors on the smooth quadric surface
======================================

A walk through the rank-two divisor lattice: intersection numbers,
the effective cone, and line-bundle cohomology via the product
structure of the surface.
"""

from nefq2 import BiDegree
from nefq2.cohomology import cohomology_q2
from nefq2.picard import intersect, is_effective, self_intersection

# Divisor classes are pairs of ruling degrees.  The intersection form
# pairs opposite rulings: (a,b).(c,d) = ad + bc.
h = BiDegree(1, 1)
print(f"hyperplane class {h}: self-intersection {self_intersection(h)}")

f1, f2 = BiDegree(1, 0), BiDegree(0, 1)
print(f"rulings {f1}, {f2}: squares {self_intersection(f1)}, {self_intersection(f2)}, "
      f"product {intersect(f1, f2)}")

# Effectivity is coordinatewise nonnegativity, and on this surface the
# effective divisors are exactly the nef ones.
for d in (BiDegree(2, 0), BiDegree(2, -1), BiDegree(0, 0)):
    print(f"{d} effective: {is_effective(d)}")

# Cohomology of a line bundle is a product of two projective-line
# computations, so each value lands in a single degree.
print()
print(" degree      h0  h1  h2")
for d in (BiDegree(2, 2), BiDegree(1, -1), BiDegree(-3, 0), BiDegree(-2, -2), BiDegree(-3, -4)):
    v = cohomology_q2(d)
    print(f" {str(d):>8}   {v.h0:>3} {v.h1:>3} {v.h2:>3}")

# Duality against the canonical degree (-2,-2) reverses the vector.
print()
d = BiDegree(3, -2)
dual = BiDegree(-2, -2) - d
v, w = cohomology_q2(d), cohomology_q2(dual)
print(f"duality: {d} gives {v.as_tuple()}, {dual} gives {w.as_tuple()}")
