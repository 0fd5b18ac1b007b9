# Cross-check the closed-form spectra against brute force on instances
# small enough to enumerate: matrix groups are closed under multiplication,
# modulo their scalars, until they hit their known order exactly, then one
# element of each conjugacy class is powered to a scalar; alternating
# groups are scanned one even permutation at a time, as arrays.
#
# SU4_3 and SP4_5, the two largest closures (1.3e7 and 9.4e6 elements,
# each about 6 seconds and 0.15-0.25 GB), are skipped here for their size;
# run them through the CLI with `gk oracle SU4_3` or `gk oracle SP4_5`.
#
# Run:  python demos/oracle_crosschecks.py

import time

from gkod.oracle import ORACLE_TARGETS, make_field, run_target

# finite fields are built deterministically from tables: the least
# irreducible polynomial (coefficients low to high), the least primitive
# element (coefficients as base-p digits)
for p, k in ((3, 3), (2, 2)):
    F = make_field(p, k)
    print(f"F_{F.q:<3} poly {F.poly}, primitive element {F.generator}")
print()

for name in ORACLE_TARGETS:
    if name in ("SU4_3", "SP4_5"):
        print(f"{name:<7} skipped here (size; try `gk oracle {name}`)")
        continue
    t0 = time.time()
    res = run_target(name)
    status = "agree" if res.match else "DISAGREE"
    print(f"{name:<7} enumerated {res.enumerated:>9,} elements; "
          f"oracle mu = {str(res.mu_oracle):<24} {status} "
          f"({time.time()-t0:.2f}s)")
