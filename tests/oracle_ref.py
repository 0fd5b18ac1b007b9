"""Slow reference paths for the packed-key oracle engine in gkod.oracle,
for the alternating-group spectrum in gkod.spectra, and for the arith,
catalog and graph routines that replaced a scan.

The engine builds fields from tables, closes groups through row tables
modulo their scalars, computes element orders once per conjugacy class
and scans permutations as arrays; these are the paths it replaced, kept
to check it: fields built by polynomial arithmetic (a Rabin
irreducibility test, a primitive-element test on the (q-1)/l-th powers),
scalar matrix products, a scalar breadth-first closure of the whole
linear group and its least coset keys, an exhaustive per-element order
scan on it, row tables by one batch multiply of every row value,
order-by-exponent arithmetic, the hand-coded unitary and
symplectic form checks that the one (Gram, sigma) isometry check
replaced, the conjugation map by binary search, class labels propagated
over the whole label array at once, the permutation scan
that follows every point with one gather per step, and the
per-permutation cycle loop.
The prime-power criterion of spectra.mu_alternating replaced a recursion
over partitions, kept here as partition_orders_alternating.

The rest are the routines replaced in arith, catalog, graph and verifier:
prime_power by trial division over a sieve, is_prime by the 13-base
Miller-Rabin test alone, the quadratic antichain filter, validate_group
with one branch per family in place of the dimension table,
enumerate_S_p over plain bounds with no q - 1 gate, no search space
from Zsigmondy's theorem and p tested on the whole order, and the
lexicographically least witness by a scan over vertex combinations.  factorize and the prime graph
had a plain trial division over every prime, a graph build that factors
each member of mu on its own and tests pq against every member, and
neighbour sets with a depth-first component search in place of the one
bitmask adjacency.  build_gk and enumerate_with_pattern built each graph
from an edge set, sorted and checked by the PrimeGraph constructor, before
the masks were derived from it.  Last come degree classes and the
mu-versus-closure graph equivalence, facts that only the tests check.
prime_support (with NonSmoothError) and omega_alternating are helpers
that only the tests use.
"""

import itertools
from dataclasses import dataclass
from math import factorial, lcm
from types import SimpleNamespace

import numpy as np

from gkod.arith import (
    Factorization,
    divisor_closure,
    factorize,
    is_prime,
    prime_factors,
    prime_power,
    primes_upto,
)
from gkod.catalog import (
    FAMILIES,
    GroupId,
    ParameterError,
    _sporadic_table,
    canonicalize,
    order_terms,
    sporadic_order,
    validate_group,
)
from gkod.graph import (
    CauchyConsistencyError,
    PrimeGraph,
    SuzukiDecomposition,
    build_gk,
)
from gkod.oracle import (
    _CHUNK,
    FormViolationError,
    _apply,
    _batch_mul,
    _bits_for,
    _center_tables,
    _conjugation_map,
    _inverse_transpose,
    _least_coset_key,
    _pack,
    _row_table,
    mat_det,
)
from gkod.spectra import mu_alternating
from gkod.verifier import MAX_PATTERN_VERTICES, GraphFamily


# ---------------------------------------------------------------------------
# fields by polynomial arithmetic over F_p (little-endian coefficient lists)

def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmulmod(a, b, f, p):
    if not a or not b:
        return []
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    return _pmodred(res, f, p)


def _pmodred(a, f, p):
    a = list(a)
    df = len(f) - 1
    while len(a) > df:
        c = a[-1] % p
        if c:
            shift = len(a) - 1 - df
            for i in range(df + 1):
                a[shift + i] = (a[shift + i] - c * f[i]) % p
        a.pop()
    return _ptrim(a)


def _ppowmod(a, e, f, p):
    r, b = [1], _pmodred(list(a), f, p)
    while e:
        if e & 1:
            r = _pmulmod(r, b, f, p)
        b = _pmulmod(b, b, f, p)
        e >>= 1
    return r


def _pgcd(a, b, p):
    a, b = _ptrim(list(a)), _ptrim(list(b))
    while b:
        db = len(b) - 1
        inv = pow(b[-1], p - 2, p)
        r = list(a)
        while r and len(r) - 1 >= db:
            c = r[-1] * inv % p
            if c:
                shift = len(r) - 1 - db
                for i in range(db + 1):
                    r[shift + i] = (r[shift + i] - c * b[i]) % p
            r.pop()
            _ptrim(r)
        a, b = b, r
    return a


def _poly_eq(u, v):
    n = max(len(u), len(v))
    return list(u) + [0] * (n - len(u)) == list(v) + [0] * (n - len(v))


def _is_irreducible(f, p, k):
    """Rabin's test: x^(p^k) = x mod f, and gcd(f, x^(p^(k/l)) - x) = 1
    for every prime l dividing k."""
    x = [0, 1]
    if not _poly_eq(_ppowmod(x, p**k, f, p), x):
        return False
    for ell in prime_factors(k):
        xe = _ppowmod(x, p ** (k // ell), f, p)
        diff = [(a - b) % p for a, b in
                itertools.zip_longest(xe, x, fillvalue=0)]
        if len(_pgcd(f, diff, p)) != 1:
            return False
    return True


def _find_irreducible(p, k):
    """Monic irreducible of degree k with the least low-coefficient
    encoding sum(c_i p^i)."""
    if k == 1:
        return [0, 1]
    for enc in range(p**k):
        f = [(enc // p**i) % p for i in range(k)] + [1]
        if _is_irreducible(f, p, k):
            return f
    raise ValueError("no irreducible polynomial found")


def polynomial_field(p, k):
    """The attributes gkod.oracle.Field builds from tables, computed by
    polynomial arithmetic: poly, generator (the least element whose
    ((q-1)/l)-th power is not 1 for any prime l | q - 1), _exp and _log
    over it, the add table digit by digit, mul through exp/log, and neg
    as the zero of each add row."""
    q = p**k
    poly = tuple(_find_irreducible(p, k))

    def encode(coeffs):
        return sum(c % p * p**i for i, c in enumerate(coeffs))

    def decode(a):
        return [(a // p**i) % p for i in range(k)]

    fac = prime_factors(q - 1)
    gen = next(c for c in range(1, q)
               if all(not _poly_eq(_ppowmod(_ptrim(decode(c)), (q - 1) // ell,
                                            poly, p), [1])
                      for ell in fac))
    exp = np.zeros(q - 1, dtype=np.int64)
    log = np.zeros(q, dtype=np.int64)
    cur, gp = [1], _ptrim(decode(gen))
    for i in range(q - 1):
        e = encode(cur)
        exp[i] = e
        log[e] = i
        cur = _pmulmod(cur, gp, poly, p)

    idx = np.arange(q)
    add = np.zeros((q, q), dtype=np.uint16)
    for i in range(k):
        di = (idx // p**i) % p
        add += (((di[:, None] + di[None, :]) % p) * p**i).astype(np.uint16)
    mul = np.zeros((q, q), dtype=np.uint16)
    la = log[1:q]
    mul[1:, 1:] = exp[(la[:, None] + la[None, :]) % (q - 1)]
    neg = np.argmax(add == 0, axis=1).astype(np.uint16)
    return SimpleNamespace(poly=poly, generator=gen, _exp=exp, _log=log,
                           add_table=add, mul_table=mul, neg_table=neg)


# ---------------------------------------------------------------------------
# scalar matrices (tuples of tuples of element codes) and the hand-coded
# form checks that gkod.oracle.is_isometry replaced

def identity_matrix(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(F, A, B):
    n = len(A)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            s = 0
            for k in range(n):
                s = F.add(s, F.mul(A[i][k], B[k][j]))
            row.append(s)
        out.append(tuple(row))
    return tuple(out)


def is_special_unitary(F, M):
    """M* M = I for the identity Gram form, conj entrywise, and det 1."""
    q0 = F.p ** (F.k // 2)
    n = len(M)
    for i in range(n):
        for j in range(n):
            s = 0
            for k in range(n):
                s = F.add(s, F.mul(F.pow(M[k][i], q0), M[k][j]))
            if s != (1 if i == j else 0):
                return False
    return mat_det(F, M) == 1


def _symp_pair(F, u, v):
    """u^T J v for J = [[0, I], [-I, 0]] in dimension 4."""
    jv = (v[2], v[3], F.neg(v[0]), F.neg(v[1]))
    s = 0
    for a, b in zip(u, jv):
        s = F.add(s, F.mul(a, b))
    return s


def is_symplectic4(F, M):
    cols = [tuple(M[i][j] for i in range(4)) for j in range(4)]
    want = {(0, 2): 1, (1, 3): 1, (2, 0): F.neg(1), (3, 1): F.neg(1)}
    for i in range(4):
        for j in range(4):
            if _symp_pair(F, cols[i], cols[j]) != want.get((i, j), 0):
                return False
    return mat_det(F, M) == 1


def _scalar_of(M):
    """lam if M = lam*I else None."""
    n = len(M)
    lam = M[0][0]
    for i in range(n):
        for j in range(n):
            if M[i][j] != (lam if i == j else 0):
                return None
    return lam


def element_order_mod_center(F, M, center_scalars) -> int:
    """Naive order of M modulo the scalars: iterate M, M^2, ... until a
    scalar from the given set appears."""
    scal = set(center_scalars)
    P = M
    k = 1
    while True:
        lam = _scalar_of(P)
        if lam is not None and lam in scal:
            return k
        P = mat_mul(F, P, M)
        k += 1


def exhaustive_orders_mod_center(F, matrices, center_scalars):
    """Order modulo the scalars of every matrix given, scanned element by
    element with scalar products.  Returns the set of orders."""
    return {element_order_mod_center(F, M, center_scalars) for M in matrices}


def scalar_closure(F, dim, gens):
    """Every element of the group gens generate, as sorted scalar
    matrices, by a breadth-first search with mat_mul."""
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
    return sorted(seen)


def scalars_in(matrices):
    """The lam with lam*I among the matrices, ascending."""
    return tuple(sorted(lam for M in matrices
                        if (lam := _scalar_of(M)) is not None))


def least_coset_keys(F, matrices, center_scalars):
    """Sorted distinct packed keys of the least lam*M over the scalars,
    one per coset of the scalar subgroup among the matrices."""
    keys = [_pack(np.array([[[F.mul(lam, a) for a in row] for row in M]
                            for lam in center_scalars], dtype=np.uint16),
                  _bits_for(F)).min()
            for M in matrices]
    return np.unique(np.array(keys, dtype=np.uint64))


def row_table_batch_mul(F, n, bits, h, transpose=False):
    """gkod.oracle._row_table by one _batch_mul over every row value: q^n
    rows times h, n^2 multiply lookups per row."""
    rows = np.unravel_index(np.arange(F.q ** n), (F.q,) * n)
    rows = np.stack(rows, axis=-1).astype(np.uint16)[:, None, :]
    h = np.broadcast_to(np.array(h, dtype=np.uint16), (len(rows), n, n))
    prod = _batch_mul(F, rows, h)
    if transpose:
        cols = np.zeros((prod.shape[0], n, n), dtype=np.uint16)
        cols[:, :, 0] = prod[:, 0, :]
        prod = cols
    table = np.zeros(1 << (n * bits), dtype=np.uint64)
    table[_pack(rows, bits)] = _pack(prod, bits)
    return table


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


def conjugation_map_searchsorted(group, g, scalars):
    """Index into group.elements of the coset of g^-1 x g, for every x, by
    binary search: each _CHUNK piece of conjugates is sorted, looked up in
    group.elements with searchsorted, and a key not found there raises
    FormViolationError."""
    F, n, el = group.field, group.dim, group.elements
    bits = _bits_for(F)
    right = _row_table(F, n, bits, g, transpose=True)
    left = _row_table(F, n, bits, _inverse_transpose(F, g), transpose=True)
    out = np.empty(el.size, dtype=np.int32)
    for lo in range(0, el.size, _CHUNK):
        conj = _apply(left, _apply(right, el[lo:lo + _CHUNK], n, bits, True),
                      n, bits, True)
        conj = _least_coset_key(scalars, conj, n, bits)
        order = np.argsort(conj)  # sorted queries search far faster
        conj = conj[order]
        idx = np.minimum(np.searchsorted(el, conj), el.size - 1)
        if not np.array_equal(el[idx], conj):
            raise FormViolationError(
                "a conjugate by a generator lies outside the enumerated "
                "elements")
        out[lo + order] = idx
    return out


def class_labels_whole_array(group):
    """gkod.oracle.conjugacy_classes by the propagation it replaced: each
    pass takes the minimum along every map and then jumps pointers, both
    over the whole label array at once, and compares the result with a
    copy taken before the pass."""
    scalars = _center_tables(group.field, group.dim, _bits_for(group.field),
                             group.center_scalars)
    maps = [_conjugation_map(group, g, scalars) for g in group.generators]
    label = np.arange(group.elements.size, dtype=np.int32)
    while True:
        prev = label.copy()
        for m in maps:
            np.minimum(label, label[m], out=label)
        label = label[label]
        if np.array_equal(label, prev):
            return label


def cycle_length_masks_gather(perm):
    """The distinct cycle-length masks among the rows of perm (bit t set
    iff the row has a cycle of length t), following every point at once:
    one gather over all n points of every row per step, for up to n steps,
    the first return of a point to itself giving its cycle's length."""
    rows, n = perm.shape
    start = np.arange(n * rows, dtype=np.intp).reshape(n, rows)
    image = (perm.T.astype(np.intp) * rows + start[0]).ravel()
    at = image.reshape(n, rows)
    open_ = np.ones((n, rows), dtype=bool)
    masks = np.zeros(rows, dtype=np.uint16)
    for t in range(1, n + 1):
        back = (at == start) & open_
        open_ ^= back
        masks |= back.any(axis=0).astype(np.uint16) << t
        if t < n:
            at = image.take(at)
    return np.flatnonzero(np.bincount(masks))


def cycle_length_mask_loop(perm):
    """Cycle-length mask of one permutation (bit t set iff it has a cycle
    of length t), split into cycles in Python."""
    seen = [False] * len(perm)
    mask = 0
    for i in range(len(perm)):
        length, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length:
            mask |= 1 << length
    return mask


def inversion_count(perm):
    """Pairs i < j with perm[i] > perm[j]."""
    return sum(a > b for a, b in itertools.combinations(perm, 2))


def alternating_orders_loop(n):
    """Element orders of the alternating group of degree n, one even
    permutation at a time: each permutation with an even inversion count
    is split into cycles in Python, its order the lcm of the cycle
    lengths."""
    orders = set()
    for perm in itertools.permutations(range(n)):
        if inversion_count(perm) % 2:
            continue
        mask = cycle_length_mask_loop(perm)
        orders.add(lcm(*(t for t in range(1, n + 1) if mask >> t & 1)))
    return sorted(orders)


def omega_alternating(n):
    """Full sorted set of element orders of the alternating group."""
    return mu_alternating(n).omega()


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


class NonSmoothError(ValueError):
    """Raised by prime_support on an input that is not prime_bound-smooth;
    the unfactored residual is carried for diagnostics."""

    def __init__(self, n, bound, residual):
        super().__init__(f"{n} is not {bound}-smooth (residual {residual})")
        self.n = n
        self.bound = bound
        self.residual = residual


def prime_support(n, prime_bound=37):
    """Distinct primes dividing n, ascending; n must be prime_bound-smooth."""
    f = factorize(n, prime_bound)
    if not f.is_complete:
        raise NonSmoothError(n, prime_bound, f.residual)
    return f.primes()


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


def is_prime_mr13(n):
    """Miller-Rabin to the 13 prime bases 2..41 alone: exact below psi_13,
    a strong probable-prime test above it."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def maximal_under_divisibility_quadratic(values):
    """Members of the set not properly dividing another member, ascending;
    every pair is compared."""
    vals = sorted(set(int(v) for v in values))
    if any(v < 1 for v in vals):
        raise ValueError("values must be >= 1")
    return [m for m in vals if not any(v != m and v % m == 0 for v in vals)]


def lex_least_witness_scan(g, t, force=None):
    """First independent t-set of g (containing force, if given) among the
    vertex combinations in lexicographic order, or None if there is none."""
    adj = adjacency(g)
    for comb in itertools.combinations(g.vertices, t):
        if force is not None and force not in comb:
            continue
        if all(b not in adj[a] for a, b in itertools.combinations(comb, 2)):
            return comb
    return None


def validate_group_branchy(g):
    """validate_group with a branch of its own for each family, as it was
    before the classical ranges were read off one dimension table, and a
    test of its own for each field that a family does not use."""
    def stray(field):
        return ParameterError(f"{g.family} takes no {field} "
                              f"(given {getattr(g, field)!r})")

    if g.family not in FAMILIES:
        raise ParameterError(f"unknown family {g.family!r}")
    if g.family == "A":
        if g.q is not None:
            raise stray("q")
        if g.name is not None:
            raise stray("name")
        if g.n is None or g.n < 5:
            raise ParameterError("alternating groups require degree n >= 5")
        return
    if g.family == "Spor":
        if g.n is not None:
            raise stray("n")
        if g.q is not None:
            raise stray("q")
        sporadic_order(g.name)
        return
    if g.family not in ("L", "U", "S", "O", "O+", "O-") and g.n is not None:
        raise stray("n")
    if g.name is not None:
        raise stray("name")
    pk = prime_power(g.q) if g.q else None
    if pk is None:
        raise ParameterError(f"q = {g.q} is not a prime power")
    p, k = pk
    fam, n = g.family, g.n
    if fam == "L":
        if n is None or n < 2 or (n == 2 and g.q in (2, 3)):
            raise ParameterError(f"L{n}({g.q}) is not simple")
    elif fam == "U":
        if n is None or n < 3 or (n == 3 and g.q == 2):
            raise ParameterError(f"U{n}({g.q}) is not simple")
    elif fam == "S":
        if n is None or n < 4 or n % 2 or (n == 4 and g.q == 2):
            raise ParameterError(f"S{n}({g.q}) is not simple")
    elif fam == "O":
        if n is None or n < 7 or n % 2 == 0:
            raise ParameterError(f"O{n}({g.q}) out of range (odd dimension >= 7)")
    elif fam in ("O+", "O-"):
        if n is None or n < 8 or n % 2:
            raise ParameterError(f"{fam}{n}({g.q}) out of range (even dimension >= 8)")
    elif fam == "G2":
        if g.q < 3:
            raise ParameterError("G2(2) is not simple")
    elif fam == "2B2":
        if p != 2 or k % 2 == 0 or g.q < 8:
            raise ParameterError("2B2 requires q = 2^(2m+1), m >= 1")
    elif fam == "2G2":
        if p != 3 or k % 2 == 0 or g.q < 27:
            raise ParameterError("2G2 requires q = 3^(2m+1), m >= 1")
    elif fam == "2F4":
        if p != 2 or k % 2 == 0 or g.q < 8:
            raise ParameterError("2F4 requires q = 2^(2m+1), m >= 1 (the Tits "
                                 "group is the sporadic entry 2F4(2)')")


def enumerate_S_p_ungated(p, max_field_exponent=40, max_rank=24, max_alt_degree=100):
    """enumerate_S_p testing every family at every field size r^k with
    k <= max_field_exponent and rank <= max_rank, in every characteristic
    r <= p, and every alternating degree up to max_alt_degree, with no
    gate on q - 1.  Each candidate is validated before its order is built,
    and p is tested on the whole order, so neither the enumerator's p-test
    on the order terms nor its one validation through canonicalize is
    taken on trust."""
    plist = primes_upto(p)
    found = set()
    for n in range(5, max_alt_degree + 1):
        o = factorial(n) // 2
        if o % p == 0 and factorize(o, p).is_complete:
            found.add(GroupId("A", n=n))
    for name, f in _sporadic_table().items():
        o = f.value()
        if o % p == 0 and factorize(o, p).is_complete:
            found.add(GroupId("Spor", name=name))

    def is_simple(g):
        try:
            validate_group(g)
        except ParameterError:
            return False
        return True

    def order_if_smooth(g):
        prefix, terms, d = order_terms(g.family, g.n, g.q)
        if not all(factorize(t, p).is_complete for t in terms):
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
                    if not is_simple(g):
                        continue
                    o = order_if_smooth(g)
                    if o is None:
                        break
                    if o % p == 0:
                        found.add(canonicalize(g))
            for family in ("G2", "F4", "E6", "E7", "E8", "2E6", "3D4",
                           "2B2", "2G2", "2F4"):
                g = GroupId(family, q=q)
                if is_simple(g):
                    o = order_if_smooth(g)
                    if o is not None and o % p == 0:
                        found.add(canonicalize(g))
    return sorted(found, key=GroupId.sort_key)


# ---------------------------------------------------------------------------
# factorization and prime graphs as they were before one bitmask adjacency

def factorize_trial(n, prime_bound):
    """arith.factorize by dividing n by every prime <= prime_bound in turn,
    stopping early only at n = 1."""
    pairs = []
    for p in primes_upto(prime_bound):
        if n == 1:
            break
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            pairs.append((p, e))
    return Factorization(tuple(pairs), n)


def build_gk_pq(order, mu):
    """graph.build_gk by factoring every member of mu on its own and testing
    pq against every member for each pair of the order's primes."""
    mu_vals = tuple(mu)
    vertices = order.primes()
    if not order.is_complete:
        raise ValueError("order factorization must be complete")
    support = set()
    for m in mu_vals:
        support.update(prime_factors(m))
    extra = sorted(support - set(vertices))
    if extra:
        raise CauchyConsistencyError(extra[0], "divides the spectrum but not the order")
    missing = sorted(set(vertices) - support)
    if missing:
        raise CauchyConsistencyError(missing[0], "divides the order but no element order")
    edges = [(p, q) for p, q in itertools.combinations(vertices, 2)
             if any(m % (p * q) == 0 for m in mu_vals)]
    return PrimeGraph(vertices, tuple(edges))


def build_gk_edge_set(order, mu):
    """graph.build_gk through an edge set of prime pairs, sorted and checked
    by the PrimeGraph constructor, with the masks derived from the edges."""
    vertices = order.primes()
    if not order.is_complete:
        raise ValueError("order factorization must be complete")
    edges, support, cofactors = set(), set(), []
    for m in mu:
        if m < 1:
            raise ValueError(f"spectrum members must be >= 1, got {m}")
        ps = []
        for p in vertices:
            if m % p == 0:
                ps.append(p)
                m //= p
                while m % p == 0:
                    m //= p
        if m > 1:
            cofactors.append(m)
        support.update(ps)
        edges.update(itertools.combinations(ps, 2))
    if cofactors:
        raise CauchyConsistencyError(min(prime_factors(m)[0] for m in cofactors),
                                     "divides the spectrum but not the order")
    missing = [p for p in vertices if p not in support]
    if missing:
        raise CauchyConsistencyError(missing[0], "divides the order but no element order")
    return PrimeGraph(vertices, tuple(sorted(edges)))


def enumerate_with_pattern_sets(primes, pattern):
    """verifier.enumerate_with_pattern over neighbour sets and an edge list,
    each graph sorted and checked by the PrimeGraph constructor."""
    primes = tuple(primes)
    pattern = tuple(int(d) for d in pattern)
    if len(primes) != len(pattern) or len(primes) > MAX_PATTERN_VERTICES:
        raise ValueError("need matching prime/degree lists of length <= 10")
    k = len(primes)
    if sum(pattern) % 2 or any(not 0 <= d <= k - 1 for d in pattern):
        return GraphFamily(primes, pattern, (), False)

    order = sorted(range(k), key=lambda i: (-pattern[i], primes[i]))
    remaining = list(pattern)
    adj = [set() for _ in range(k)]
    edges = []
    out = []

    def next_vertex():
        for i in order:
            if remaining[i]:
                return i
        return None

    def rec():
        v = next_vertex()
        if v is None:
            out.append(PrimeGraph(primes, tuple(sorted(
                tuple(sorted((primes[a], primes[b]))) for a, b in edges))))
            return
        need = remaining[v]
        cands = [w for w in range(k)
                 if w != v and remaining[w] and w not in adj[v]]
        if len(cands) < need:
            return
        cands.sort(key=lambda w: primes[w])
        for chosen in itertools.combinations(cands, need):
            remaining[v] = 0
            for w in chosen:
                remaining[w] -= 1
                adj[v].add(w)
                adj[w].add(v)
                edges.append((v, w))
            rec()
            for w in chosen:
                remaining[w] += 1
                adj[v].discard(w)
                adj[w].discard(v)
                edges.pop()
            remaining[v] = need

    rec()
    return GraphFamily(primes, pattern, tuple(out), True)


def adjacency(g):
    """Neighbour set of every vertex."""
    adj = {v: set() for v in g.vertices}
    for p, q in g.edges:
        adj[p].add(q)
        adj[q].add(p)
    return adj


def edge_set(g):
    return frozenset(g.edges)


def bitmasks(g):
    """Adjacency bitmasks indexed like g.vertices."""
    idx = {v: i for i, v in enumerate(g.vertices)}
    masks = [0] * len(g.vertices)
    for p, q in g.edges:
        masks[idx[p]] |= 1 << idx[q]
        masks[idx[q]] |= 1 << idx[p]
    return masks


def connected_components_dfs(g):
    """Connected vertex sets by a depth-first search over neighbour sets;
    the component holding 2 first, the rest by least prime."""
    adj = adjacency(g)
    seen = set()
    comps = []
    for v in g.vertices:
        if v in seen:
            continue
        stack, comp = [v], set()
        while stack:
            u = stack.pop()
            if u in comp:
                continue
            comp.add(u)
            stack.extend(adj[u] - comp)
        seen |= comp
        comps.append(tuple(sorted(comp)))
    comps.sort(key=lambda c: (0 if 2 in c else 1, c[0]))
    return comps


def suzuki_decomposition_dfs(g):
    """graph.suzuki_decomposition over the depth-first components and the
    neighbour sets."""
    adj = adjacency(g)
    sizes = []
    for comp in connected_components_dfs(g)[1:]:
        for a, b in itertools.combinations(comp, 2):
            if b not in adj[a]:
                return SuzukiDecomposition(False, violation=(a, b))
        sizes.append(len(comp))
    return SuzukiDecomposition(True, clique_sizes=tuple(sizes))


# ---------------------------------------------------------------------------
# graph facts that only the tests check

@dataclass(frozen=True)
class DegreeClasses:
    """Partition of vertices by degree plus two derived connectivity facts:
    the component count is at least the number of isolated vertices, and a
    vertex of full degree forces a connected graph."""

    classes: dict
    component_count: int
    isolated_bound_ok: bool
    full_degree_implies_connected: bool


def degree_classes(g):
    classes = {}
    for v in g.vertices:
        classes.setdefault(g.degree(v), []).append(v)
    classes = {d: tuple(vs) for d, vs in sorted(classes.items())}
    s = len(g.connected_components)
    isolated = len(classes.get(0, ()))
    full = classes.get(len(g.vertices) - 1, ())
    return DegreeClasses(classes, s, s >= isolated, (not full) or s == 1)


def graph_equivalent_under_closure(order, mu):
    """Edge sets from mu and from its full divisor closure coincide."""
    return build_gk(order, mu) == build_gk(order, divisor_closure(mu))
