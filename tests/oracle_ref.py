"""Slow reference paths for the packed-key oracle engine in gkod.oracle,
for the alternating-group spectrum in gkod.spectra, and for the arith,
catalog and graph routines that replaced a scan.

The engine computes element orders once per conjugacy class and closes
groups through row tables; these are the paths it replaced, kept to check
it: an exhaustive per-element order scan, a scalar breadth-first closure,
and order-by-exponent arithmetic on scalar matrices.  The prime-power
criterion of spectra.mu_alternating replaced a recursion over partitions,
kept here as partition_orders_alternating.

The rest are the routines replaced in arith, catalog and graph:
prime_power by trial division over a sieve, the quadratic antichain filter,
enumerate_S_p over plain bounds with no q - 1 gate and no search space
from Zsigmondy's theorem, and the lexicographically least
witness by a scan over vertex combinations.
"""

import itertools
from math import factorial, lcm

import numpy as np

from gkod.arith import is_prime, prime_factors, primes_upto
from gkod.catalog import (
    GroupId,
    _order_terms,
    _smooth_int,
    _sporadic_table,
    _valid_quiet,
    canonicalize,
)
from gkod.oracle import (
    _batch_mul,
    _bits_for,
    _member_mask,
    _pack,
    _scalar_of,
    _unpack,
    identity_matrix,
    mat_mul,
)


def exhaustive_orders_mod_center(group):
    """Order modulo the scalars of every element, scanned element by
    element: for each the least k with M^k scalar.  Returns the set of
    orders."""
    F, n = group.field, group.dim
    bits = _bits_for(F)
    center_keys = np.sort(np.concatenate([
        _pack(np.array([[[lam if i == j else 0 for j in range(n)]
                         for i in range(n)]], dtype=np.uint16), bits)
        for lam in group.center_scalars]))
    orders = set()
    M = _unpack(group.elements, n, bits)
    P = M.copy()
    k = 1
    while P.shape[0]:
        done = _member_mask(center_keys, _pack(P, bits))
        if done.any():
            orders.add(k)
            P, M = P[~done], M[~done]
        P = _batch_mul(F, P, M)
        k += 1
    return orders


def scalar_closure_keys(F, dim, gens):
    """Sorted packed keys of the closure of gens, by a breadth-first search
    on scalar matrices with mat_mul."""
    seen = {identity_matrix(dim)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mat_mul(F, x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return np.sort(_pack(np.array(sorted(seen), dtype=np.uint16), _bits_for(F)))


def matrix_power(F, M, e):
    """M^e by repeated squaring."""
    r = identity_matrix(len(M))
    b = M
    while e:
        if e & 1:
            r = mat_mul(F, r, b)
        b = mat_mul(F, b, b)
        e >>= 1
    return r


def element_order_by_exponent(F, M, exponent_multiple, center_scalars) -> int:
    """Order of M modulo the scalars via the factored-exponent path: start
    from a known multiple of the order and strip prime factors, testing
    powers by repeated squaring."""
    scal = set(center_scalars)

    def central(e):
        lam = _scalar_of(matrix_power(F, M, e))
        return lam is not None and lam in scal

    o = exponent_multiple
    if not central(o):
        raise ValueError("exponent_multiple is not a multiple of the order")
    for p in prime_factors(o):
        while o % p == 0 and central(o // p):
            o //= p
    return o


def partition_orders_alternating(n):
    """Element orders of the alternating group of degree n as the lcms of
    the partitions of n with an even number of even parts.  Exponential in
    n; practical up to about 40."""
    orders = set()

    def rec(remaining, max_part, even_parts, l):
        if remaining == 0:
            if even_parts % 2 == 0:
                orders.add(l)
            return
        for part in range(min(remaining, max_part), 0, -1):
            rec(remaining - part, part, even_parts + (part % 2 == 0), lcm(l, part))

    rec(n, n, 0, 1)
    return orders


def prime_power_trial(q):
    """(p, k) with q = p**k, or None, by trial division over the primes up
    to min(sqrt(q), 10**5) and a primality test on what is left."""
    if q < 2:
        return None
    for p in primes_upto(100_000):
        if p * p > q:
            break
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            return (p, k) if m == 1 else None
    return (q, 1) if is_prime(q) else None


def maximal_under_divisibility_quadratic(values):
    """Members of the set not properly dividing another member, ascending;
    every pair is compared."""
    vals = sorted(set(int(v) for v in values))
    if any(v < 1 for v in vals):
        raise ValueError("values must be >= 1")
    return [m for m in vals if not any(v != m and v % m == 0 for v in vals)]


def lex_least_witness_scan(g, t, force=None):
    """First independent t-set of g (containing force, if given) among the
    vertex combinations in lexicographic order."""
    for comb in itertools.combinations(g.vertices, t):
        if force is not None and force not in comb:
            continue
        if all(b not in g.adjacency[a] for a, b in itertools.combinations(comb, 2)):
            return comb
    raise AssertionError("no witness at computed independence number")


def enumerate_S_p_ungated(p, max_field_exponent=40, max_rank=24, max_alt_degree=100):
    """enumerate_S_p testing every family at every field size r^k with
    k <= max_field_exponent and rank <= max_rank, in every characteristic
    r <= p, and every alternating degree up to max_alt_degree, with no
    gate on q - 1."""
    plist = primes_upto(p)
    found = set()
    for n in range(5, max_alt_degree + 1):
        o = factorial(n) // 2
        if o % p == 0 and _smooth_int(o, plist):
            found.add(GroupId("A", n=n))
    for name, f in _sporadic_table().items():
        o = f.value()
        if o % p == 0 and _smooth_int(o, plist):
            found.add(GroupId("Spor", name=name))

    def order_if_smooth(g):
        prefix, terms, d = _order_terms(g)
        if not all(_smooth_int(t, plist) for t in terms):
            return None
        o = prefix
        for t in terms:
            o *= t
        return o // d

    dimensions = {
        "L": range(2, max_rank + 2), "U": range(3, max_rank + 2),
        "S": range(4, 2 * max_rank + 1, 2), "O": range(7, 2 * max_rank + 2, 2),
        "O+": range(8, 2 * max_rank + 1, 2), "O-": range(8, 2 * max_rank + 1, 2),
    }
    for r in plist:
        for k in range(1, max_field_exponent + 1):
            q = r**k
            for family, ns in dimensions.items():
                for n in ns:
                    g = GroupId(family, n=n, q=q)
                    if not _valid_quiet(g):
                        continue
                    o = order_if_smooth(g)
                    if o is None:
                        break
                    if o % p == 0:
                        found.add(canonicalize(g))
            for family in ("G2", "F4", "E6", "E7", "E8", "2E6", "3D4",
                           "2B2", "2G2", "2F4"):
                g = GroupId(family, q=q)
                if _valid_quiet(g):
                    o = order_if_smooth(g)
                    if o is not None and o % p == 0:
                        found.add(canonicalize(g))
    return sorted(found, key=GroupId.sort_key)
