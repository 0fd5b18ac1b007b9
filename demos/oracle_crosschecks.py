# Cross-check the closed-form spectra against brute force on instances
# small enough to enumerate: matrix groups are closed under multiplication
# until they hit their known order exactly, then one element of each
# conjugacy class is powered to a scalar; alternating groups are scanned
# permutation by permutation.
#
# The heavy SP4_5 is skipped here; run it through the CLI with
# `gk oracle SP4_5 --heavy` when you have ~0.35 GB and ~15 seconds.
#
# Run:  python demos/oracle_crosschecks.py

import time

from gkod.oracle import HEAVY_TARGETS, ORACLE_TARGETS, make_field, run_target

# finite fields are built deterministically from tables: the least
# irreducible polynomial (coefficients low to high), the least primitive
# element (coefficients as base-p digits)
for p, k in ((3, 3), (2, 2)):
    F = make_field(p, k)
    print(f"F_{F.q:<3} poly {F.poly}, primitive element {F.generator}")
print()

for name in ORACLE_TARGETS:
    if name in HEAVY_TARGETS or name in ("SU4_3", "A9", "A10"):
        why = "heavy tier" if name in HEAVY_TARGETS else "slow scan"
        print(f"{name:<7} skipped here ({why}; try `gk oracle {name}`)")
        continue
    t0 = time.time()
    res = run_target(name)
    status = "agree" if res.match else "DISAGREE"
    print(f"{name:<7} enumerated {res.enumerated:>9,} elements; "
          f"oracle mu = {str(res.mu_oracle):<24} {status} "
          f"({time.time()-t0:.2f}s)")
