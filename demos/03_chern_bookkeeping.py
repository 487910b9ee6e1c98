"""
Exact Chern-class bookkeeping in the Grothendieck group
=======================================================

Classes are triples (rank, c1, 2*ch2) so that every operation stays in
integer arithmetic; honest bundles convert to (rank, c1, c2) and back.
"""

from nefq2 import BiDegree, BundleNumerics
from nefq2.ktheory import (
    POINT_CLASS,
    IdealResolution,
    KClass,
    TorsionDescriptor,
    TorsionKind,
    from_chern,
    ideal_sheaf_class,
    line_class,
    ses_quotient_chern,
    sum_of_lines,
    to_chern,
    torsion_class,
    twist_chern,
)

# A direct sum of lines, assembled in the group and converted.
k = sum_of_lines([(BiDegree(1, 1), 1), (BiDegree(0, 0), 2)])
print(f"sum of lines: {k} -> {to_chern(k)}")

# Twisting changes c1 and c2 together; down and up again is lossless.
e = BundleNumerics(2, BiDegree(1, 1), 1)
t = twist_chern(e, BiDegree(1, 0))
print(f"twist: {e} -> {t} -> {twist_chern(t, BiDegree(-1, 0))}")

# Quotients in a short exact sequence follow Whitney's formula.
sub = BundleNumerics(1, BiDegree(-1, -2), 0)
mid = BundleNumerics(4, BiDegree(1, 0), 0)
print(f"quotient of {mid} by {sub}: {ses_quotient_chern(sub, mid)}")

# Torsion sheaves enter as rank-zero classes.  A skyscraper carries
# 2*ch2 = 2, a curve sheaf remembers its support degree.
point = torsion_class(TorsionDescriptor(TorsionKind.POINT_SHEAF))
curve = torsion_class(TorsionDescriptor(TorsionKind.CURVE_TORSION, support=BiDegree(2, 2)))
print(f"skyscraper {point}, curve sheaf {curve}")
assert point == POINT_CLASS

# Ideal sheaves of finite subschemes: the class only sees the length.
for res in IdealResolution:
    print(f"{res.name}: {ideal_sheaf_class(res)}")
assert ideal_sheaf_class(IdealResolution.CI_11_21) == line_class(BiDegree(0, 0)) - 3 * POINT_CLASS

# Virtual classes are legal in the group but refuse to convert.
virtual = KClass(0, BiDegree(1, 0), 2)
print(f"virtual class {virtual} converts: ", end="")
try:
    to_chern(virtual)
except Exception as ex:
    print(type(ex).__name__)

# Round trip sanity on an honest bundle.
e = BundleNumerics(5, BiDegree(2, 2), 7)
assert to_chern(from_chern(e)) == e
print(f"round trip {e}: ok")
