"""
The endomorphism algebra of the four-line collection
====================================================
"""

from nefq2.quiver import COLLECTION, build_algebra, hom_ext_series, simple_module

# The collection consists of the four line bundles with degrees in
# {0,1} x {0,1}.  Morphism spaces between members are global sections
# of the degree difference, so the algebra is a triangular quiver
# algebra with commuting squares.
hom_dims = build_algebra()

print("hom dimension matrix (row maps to column):")
labels = ["O" if (g.a, g.b) == (0, 0) else f"O({g.a},{g.b})" for g in COLLECTION]
print("          " + "  ".join(f"{l:>7}" for l in labels))
for i, row in enumerate(hom_dims):
    print(f"{labels[i]:>8}  " + "  ".join(f"{n:>7}" for n in row))
print(f"total dimension: {sum(map(sum, hom_dims))}")

# Four vertices, four simple modules.  The idempotent at a vertex acts
# by picking out that slot of a composition series.
print()
for i in range(4):
    print(f"simple {i}: {simple_module(i)}")

# A bundle with determinant (2,2) and c2 >= 6 hands the algebra a module
# with sections in one slot and obstructions spread over the rest.
print()
print("  r  c2   Hom series      Ext1 series")
for c2 in (6, 7, 8):
    hom, ext1 = hom_ext_series(3, c2)
    print(f"  3  {c2:>2}   {str(hom):<14}  {ext1}")
