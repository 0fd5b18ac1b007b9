"""Slow reference paths for the packed-key oracle engine in gkod.oracle
and for the alternating-group spectrum in gkod.spectra.

The engine computes element orders once per conjugacy class and closes
groups through row tables; these are the paths it replaced, kept to check
it: an exhaustive per-element order scan, a scalar breadth-first closure,
and order-by-exponent arithmetic on scalar matrices.  The prime-power
criterion of spectra.mu_alternating replaced a recursion over partitions,
kept here as partition_orders_alternating.
"""

from math import lcm

import numpy as np

from gkod.oracle import (
    _batch_mul,
    _bits_for,
    _member_mask,
    _pack,
    _scalar_of,
    _small_prime_factors,
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
    for p in _small_prime_factors(o):
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
