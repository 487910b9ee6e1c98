"""
Sweeping the classification catalog
===================================
"""

import json

from nefq2 import BiDegree, list_cases, verify_all
from nefq2.catalog import case_to_json
from nefq2.verify import certify

# Every display in the determinant-(2,2) catalog, with its invariants.
print("case            min_rank  c2   c2 at r=min..min+3")
for case in list_cases("main22"):
    values = [certify(case).row(r).c2 for r in range(case.display.min_rank, case.display.min_rank + 4)]
    print(f"{case.id:<16} {case.display.min_rank:>7}  {case.expected_c2:>2}   {values}")

# The same machinery covers the determinant-(2,1) catalog and the two
# parametric families.
print()
for case in list_cases("quadric21"):
    print(f"{case.id}: c2={case.expected_c2}")
for b in (0, 1, 2):
    case = list_cases("halfmax", c1=BiDegree(3, 2), b=b)[0]
    print(f"{case.id} at b={b}: c2={case.expected_c2}")
for case in list_cases("nearmax", c1=BiDegree(3, 2)):
    print(f"{case.id}: c2={case.expected_c2}")

# A verification sweep recomputes everything and reports per rank.
reports = verify_all("main22", rank_max=10)
failed = [r for r in reports if not r.passed]
print()
print(f"verified {len(reports)} (case, rank) pairs, {len(failed)} failures")

# Each case serializes to a stable JSON document.
print()
print(json.dumps(case_to_json(list_cases("main22")[4]), sort_keys=True, indent=2))
