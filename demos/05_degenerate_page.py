"""
Reconstruction and the degenerate second page
=============================================

A module over the tilting algebra determines a complex of line bundles;
in the Grothendieck group the alternating sum must give back the class
we started from.  The page builder exposes the intermediate objects and
checks the two exactness identities on every call.
"""

from nefq2 import BiDegree, BundleNumerics
from nefq2.bondal import VARIANT_CURVE, VARIANT_STRUCTURE, e2_page, reconstruct
from nefq2.ktheory import from_chern

# Reconstruction is exact for every admissible (c2, rank) pair.
for c2 in (6, 7, 8):
    e = BundleNumerics(4, BiDegree(2, 2), c2)
    print(f"c2={c2}: reconstruct {e} -> {reconstruct(e)} "
          f"(expected {from_chern(e)})")

# The page has at most three nonzero entries.  Their identification
# depends on c2 alone, except at c2=8 where two shapes occur.
print()
configs = [
    (6, None),
    (7, None),
    (8, VARIANT_CURVE),
    (8, VARIANT_STRUCTURE),
]
for c2, variant in configs:
    page = e2_page(c2, 4, variant=variant)
    tag = f", variant {variant}" if variant else ""
    print(f"c2={c2}{tag}")
    for (p, q), entry in sorted(page.entries.items()):
        print(f"  ({p},{q}): {entry.label}")
    print(f"  residual {page.four_term_residual()}, "
          f"converges to {page.convergence_class()}")
    print(f"  surviving corner: {page.third_page_corner()}")
