# Run the mechanized case analysis behind the order/degree-pattern
# uniqueness of S4(31), U3(27), G2(11) and U4(31), and show what each
# report contains: the forced-graph branch, the almost-simple branch, the
# candidate filter, and the group-theoretic facts taken as given.
#
# Run:  python demos/verify_uniqueness_cases.py

import json
from unittest import mock

from gkod import verifier, verify_case

for label in ("S4(31)", "U3(27)", "G2(11)", "U4(31)"):
    rep = verify_case(label)
    print(f"=== {label}: {rep.verdict} ===")
    print(f"graphs with the hypothesized degree pattern: {rep.family_size}")
    if rep.forced is not None:
        print(f"pivot {rep.pivot}: {rep.forced['count']} graph(s) carry it, "
              f"and each equals GK({label}): {rep.forced['all_equal_gk']}")
    alt = rep.alternatives
    print(f"remaining graphs: {alt['count']}, every one admits an "
          f"independent triple and an independent pair through 2: "
          f"{alt['all_vasiliev_applicable']} "
          f"(worst t = {alt['min_t']}, worst t(2) = {alt['min_t2']})")
    f = rep.filter
    print(f"candidates with {f['required']} dividing |P| and |P| dividing "
          f"|G|: {f['divisibility']}")
    if f["divisibility"] != f["survivors"]:
        print(f"  degree-lift elimination leaves: {f['survivors']}")
    print("assumed group-theoretic inputs:")
    for fact in rep.assumed_facts:
        print(f"  - {fact}")
    print()

# a negative control: let the solvable radical of U4(31) avoid only 7 and
# 19, and U3(31), of characteristic 31, survives the filter beside U4(31)
with mock.patch.dict(verifier.CASE_PI, {"U4(31)": (7, 19)}):
    rep = verify_case("U4(31)")
print("U4(31) with pi = {7, 19} ->", rep.verdict,
      "; survivors:", rep.filter["survivors"])

# reports serialize to stable JSON
print()
print(json.dumps(verify_case("S4(31)").to_json_dict(), sort_keys=True)[:200],
      "...")
