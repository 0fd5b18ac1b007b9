# Enumerate the nonabelian simple groups whose prime divisors all lie
# below a bound p, with p itself occurring.  The p = 37 run reproduces the
# published 13-group list; smaller primes give the classical small sets.
#
# Run:  python demos/enumerate_simple_groups.py

import time

from gkod import enumerate_S_p, order_of, s37_reference

for p in (2, 3, 5, 7, 11, 37):
    t0 = time.time()
    groups = enumerate_S_p(p)
    names = [g.label() for g in groups]
    print(f"p = {p:>2}: {len(names):>2} group(s) in {time.time()-t0:.2f}s")
    for g in groups:
        print(f"    {g.label():<10} |S| = {order_of(g)}")

print()
match = [g.label() for g in enumerate_S_p(37)] == \
        [g.label() for g in s37_reference()]
print("p = 37 enumeration agrees with the published list:", match)

# the search space follows from p alone: Zsigmondy's theorem bounds the
# field exponents and ranks, and alternating degrees stop below the next
# prime.  Lie type is searched in characteristic up to 37, so the list is
# complete for p <= 37; at p = 997 only alternating groups are found.
t0 = time.time()
groups = enumerate_S_p(997)
print(f"p = 997: {len(groups)} group(s) in {time.time()-t0:.2f}s, "
      f"{groups[0].label()}..{groups[-1].label()}")
