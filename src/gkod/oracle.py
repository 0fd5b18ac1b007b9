"""Brute-force ground truth for the spectrum formulas.

Three independent mechanisms live here: finite-field arithmetic over
F_{p^k} (elements encoded as base-p digit integers, every operation a
lookup in q x q numpy tables), matrix-group closure under multiplication
certified by hitting exactly the order given by the catalog's order
terms (catalog.order_terms), and even-permutation enumeration for small
alternating groups.  Each named target (run_target) sets the spectrum it
enumerates against spectra.spectrum_of, the dispatch that every gk
command takes, so the formula side is the one gk reports.

Closure and the element-order scan run on packed uint64 keys through
numpy; a dim x dim matrix over F_q must fit in 64 bits (dim^2 *
bitlen(q-1) <= 64), which covers every target this module registers.
Products with a generator are row-table lookups on the keys.  A group G
is enumerated modulo its centre Z, the scalars of its form: each coset
of Z is one key, the least of lam*x over Z, so the arrays hold |G|/|Z|
keys.  Element orders modulo Z are class functions, so the scan labels
the conjugacy classes of G/Z and powers one representative of each, all
together, until it is a scalar matrix (every scalar in G lies in Z).
The products of each closure level, and the conjugates and class labels
of the scan, pass through numpy in _CHUNK pieces of 2^15 keys (256 KiB
per uint64 array): a piece's temporaries stay in a core's L2 cache, and
none of them has the size of the group; sorts, searches and inserts stay
whole.  Memory (tracemalloc) peaks near 22 bytes per coset in the
closure, at the insert of its largest level, and near 28 in the class
scan, while a conjugation map sorts the conjugates.  The largest
registered targets, SU_4(3) (3.27e6 cosets of 1.31e7 elements) and
Sp_4(5) (4.68e6 of 9.36e6), take about 1.0 and 1.1 s of closure and 1.2
and 1.5 s of class scan on a 2-vCPU Xeon host, and peak near 0.14 and
0.18 GB of RSS.  The permutation scan builds the block of even
permutations with first entry k from the even or odd (as k is) ones of
the other points, and walks the cycles of _CHUNK of its rows together.

Every matrix group here is the det-1 isometry group of a (Gram, sigma)
form B(u, v) = u^T gram sigma(v), sigma(x) = x^e: SL_n has no form, SU_n
the identity Gram with e = q, Sp_n the alternating Omega with e = 1;
matrix_group is the one place where a family chooses field and form.
Generators are obtained by seeded rejection sampling of such isometries
(random_isometry) rather than from transcribed literature generators;
the closure size certificate makes the construction self-checking, and
an undershoot (a proper subgroup) deterministically resamples an extra
generator.
"""

import random
from functools import lru_cache, partial
from math import lcm, prod

import numpy as np

from .arith import Record, is_prime, prime_power
from .catalog import GroupId, ParameterError, order_terms, order_value
from .spectra import SOURCE_ORACLE, Spectrum, spectrum_of

DEFAULT_SEED = 0xA11CE
TABLE_LIMIT = 1024        # largest q; every field is its q x q tables
MAX_CLOSURE = 1 << 24     # covers SU_4(3), 13,063,680 elements
MAX_RETRIES = 6
_CHUNK = 1 << 15          # keys or permutation rows per numpy pass


class FormViolationError(RuntimeError):
    """A matrix left its defining form: a sampled generator failed
    is_isometry, or the closure grew past the target order."""


class ClosureError(RuntimeError):
    """An enumeration fell short of its certified count: a closure stalled
    below its target order within the retry budget, or the permutation
    scan walked other than n!/2 even permutations."""


# ---------------------------------------------------------------------------
# fields

def _mul_table(p, digits, low):
    """q x q product table of F_p[x]/(f) on base-p codes, where digits[a]
    are the coefficients of a and low those of f below its leading x^k.
    x*v shifts the digits of v up one place and subtracts its top digit
    times low; then a*b = sum_i b_i (x^i a), one matrix product."""
    q, k = digits.shape
    xa = [digits]
    for _ in range(k - 1):
        v = xa[-1]
        xa.append((np.pad(v[:, :-1], ((0, 0), (1, 0))) - v[:, -1:] * low) % p)
    prod = digits @ np.stack(xa, axis=1)  # [a, b, j]: digit j of a*b, mod p
    return (prod % p @ p ** np.arange(k)).astype(np.uint16)


class Field:
    """F_{p^k}; elements are ints 0..q-1 encoding coefficient vectors in
    base p (little-endian), reduced modulo poly, the monic irreducible of
    degree k with the least low-coefficient encoding sum(c_i p^i).

    Everything is a table: the candidates f are tried in that order, each
    through its q x q multiplication table, and the first without zero
    divisors (f irreducible) is kept.  The least element of order q - 1,
    found by powering through the table, is the generator; exp/log over it
    give inverses and powers.  Fields are bounded by TABLE_LIMIT.
    """

    def __init__(self, p: int, k: int):
        q = p**k
        if not (1 <= k <= 6 and q <= TABLE_LIMIT):
            raise ValueError(f"field bounds exceeded: need k <= 6 and p^k <= {TABLE_LIMIT}")
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        self.p, self.k, self.q = p, k, q
        digits = np.arange(q)[:, None] // p ** np.arange(k) % p
        weights = p ** np.arange(k)
        self.add_table = ((digits[:, None, :] + digits[None, :, :]) % p
                          @ weights).astype(np.uint16)
        self.neg_table = (-digits % p @ weights).astype(np.uint16)
        for enc in range(q):
            mul = _mul_table(p, digits, digits[enc])
            if mul[1:, 1:].all():
                break
        self.poly = tuple(digits[enc].tolist()) + (1,)
        self.mul_table = mul

        for gen in range(1, q):
            exp, x = [1], gen
            while x != 1:
                exp.append(x)
                x = int(mul[x, gen])
            if len(exp) == q - 1:
                break
        self.generator = gen
        self._exp = np.array(exp, dtype=np.int64)
        self._log = np.zeros(q, dtype=np.int64)
        self._log[self._exp] = np.arange(q - 1)

    # scalar operations -----------------------------------------------------
    def add(self, a, b):
        return int(self.add_table[a, b])

    def neg(self, a):
        return int(self.neg_table[a])

    def mul(self, a, b):
        return int(self.mul_table[a, b])

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return int(self._exp[-int(self._log[a]) % (self.q - 1)])

    def pow(self, a, e):
        if a == 0:
            return 0 if e else 1
        return int(self._exp[(int(self._log[a]) * e) % (self.q - 1)])


@lru_cache(maxsize=32)
def make_field(p: int, k: int) -> Field:
    """Field descriptor for F_{p^k}; p prime, 1 <= k <= 6, p^k <= TABLE_LIMIT."""
    return Field(p, k)


# ---------------------------------------------------------------------------
# scalar matrix helpers (tuples of tuples of element codes)

def mat_det(F, A):
    if len(A) == 1:
        return A[0][0]
    det = 0
    for j, a in enumerate(A[0]):
        det = F.add(det, F.mul(a, _cofactor(F, A, 0, j)))
    return det


def _cofactor(F, A, i, j):
    """(-1)^(i+j) times the determinant of A without row i and column j."""
    minor = tuple(tuple(x for c, x in enumerate(row) if c != j)
                  for r, row in enumerate(A) if r != i)
    d = mat_det(F, minor)
    return F.neg(d) if (i + j) % 2 else d


def _nullspace(F, rows, n):
    """Basis of the joint kernel of the given linear functionals."""
    M = [list(r) for r in rows]
    piv, r = [], 0
    for c in range(n):
        pr = next((i for i in range(r, len(M)) if M[i][c]), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        inv = F.inv(M[r][c])
        M[r] = [F.mul(x, inv) for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [F.add(x, F.neg(F.mul(f, y))) for x, y in zip(M[i], M[r])]
        piv.append(c)
        r += 1
    basis = []
    for fc in (c for c in range(n) if c not in piv):
        v = [0] * n
        v[fc] = 1
        for i, c in enumerate(piv):
            v[c] = F.neg(M[i][fc])
        basis.append(v)
    return basis


def _scalar_matrix(n, lam=1):
    """lam * I_n; the identity by default."""
    return tuple(tuple(lam * (i == j) for j in range(n)) for i in range(n))


# ---------------------------------------------------------------------------
# isometries of a (Gram, sigma) form

def _form(F, gram, e, u, v):
    """B(u, v) = u^T gram sigma(v), where sigma(x) = x^e entrywise."""
    s = 0
    for a, row in zip(u, gram):
        for g, b in zip(row, v):
            if a and g and b:
                s = F.add(s, F.mul(F.mul(a, g), F.pow(b, e)))
    return s


def is_isometry(F, M, gram, e):
    """det M = 1 and B(c_i, c_j) = gram[i][j] for every pair of columns;
    with gram None, det M = 1 alone (SL_n)."""
    cols = tuple(zip(*M))
    return mat_det(F, M) == 1 and (gram is None or all(
        _form(F, gram, e, u, v) == gram[i][j]
        for i, u in enumerate(cols) for j, v in enumerate(cols)))


def random_isometry(F, n, rng, gram=None, e=1):
    """Random det-1 matrix whose columns c keep the form's Gram entries,
    B(c_i, c_j) = gram[i][j]; with gram None, a random element of SL_n.

    Column j solves B(c_i, v) = gram[i][j] over the earlier columns i, a
    system that is linear in v once sigma is applied to it (sigma^2 = 1):
    v = w / w_n for a random kernel vector w of [rows | -rhs].  A nonzero
    gram[j][j] (the hermitian case, zero off the diagonal) fixes B(v, v),
    reached by scaling v by a norm root.  The determinant, of norm 1, is
    then divided out of the last row.  A draw that fails starts over.
    """
    unit = _scalar_matrix(n)
    while True:
        cols = []
        for j in range(n):
            rows = [] if gram is None else [
                [F.pow(_form(F, gram, e, c, u), e) for u in unit]
                + [F.neg(F.pow(gram[i][j], e))] for i, c in enumerate(cols)]
            w = [0] * (n + 1)
            for b in _nullspace(F, rows, n + 1):
                cf = rng.randrange(F.q)
                w = [F.add(x, F.mul(cf, y)) for x, y in zip(w, b)]
            if not w[n]:
                break
            wi = F.inv(w[n])
            v = [F.mul(x, wi) for x in w[:n]]
            if gram is not None and gram[j][j]:
                nv = _form(F, gram, e, v, v)
                if not nv:
                    break
                # gram[j][j] / nv is fixed by sigma, so its log is a
                # multiple of e + 1 and the root is a power of the generator
                lt = int(F._log[gram[j][j]]) - int(F._log[nv])
                alpha = F.pow(F.generator, lt % (F.q - 1) // (e + 1))
                v = [F.mul(alpha, x) for x in v]
            cols.append(v)
        M = tuple(zip(*cols))
        if len(cols) == n and (d := mat_det(F, M)):
            break
    di = F.inv(d)
    M = M[:-1] + (tuple(F.mul(x, di) for x in M[-1]),)
    if not is_isometry(F, M, gram, e):
        raise FormViolationError("a sampled matrix is no isometry of its form")
    return M


# ---------------------------------------------------------------------------
# packed-key engine
#
# A dim x dim matrix packs row-major into one uint64 key, entry (0, 0) in
# the most significant field.  Right multiplication by a fixed matrix h
# acts on each row alone, so one table over the packed row values maps
# the key of x to the key of x*h in dim lookups; a table whose entries
# are laid down a column instead also transposes the product.

def _bits_for(F):
    return (F.q - 1).bit_length()

def _pack(A, bits):
    N = A.shape[0]
    flat = A.reshape(N, -1).astype(np.uint64)
    key = np.zeros(N, dtype=np.uint64)
    for i in range(flat.shape[1]):
        key = (key << np.uint64(bits)) | flat[:, i]
    return key

def _unpack(keys, n, bits):
    out = np.zeros((keys.shape[0], n * n), dtype=np.uint16)
    k = keys.copy()
    mask = np.uint64((1 << bits) - 1)
    for i in range(n * n - 1, -1, -1):
        out[:, i] = (k & mask).astype(np.uint16)
        k >>= np.uint64(bits)
    return out.reshape(-1, n, n)

def _batch_mul(F, A, B):
    """A times B pairwise, both (N,n,n)."""
    T = F.mul_table[A[:, :, :, None], B[:, None, :, :]]
    C = T[:, :, 0, :]
    for k in range(1, A.shape[2]):
        C = F.add_table[C, T[:, :, k, :]]
    return C


def _row_table(F, n, bits, h, transpose=False):
    """Entry r is the packed row r*h, for every packed row value r; with
    transpose, the key with that row as column 0 and zeros elsewhere
    (shifting it right by c*bits moves it to column c).  Values with a
    field >= q are no row and stay 0.

    By linearity r*h = sum_i r_i h_i over the rows h_i of h, so the
    products over the first i coordinates extend to i + 1 by adding
    every multiple of h_i: n add stages, one lookup per entry each."""
    h = np.array(h, dtype=np.intp)
    prod = np.zeros((1, n), dtype=np.uint16)
    rows = np.zeros(1, dtype=np.intp)
    for i in range(n):
        prod = F.add_table[prod[:, None, :], F.mul_table[:, h[i]]].reshape(-1, n)
        rows = ((rows[:, None] << bits) | np.arange(F.q)).ravel()
    table = np.zeros(1 << (n * bits), dtype=np.uint64)
    # with transpose, entry j goes to field j*n of the key: entries n*bits
    # apart, the last one n - 1 fields above the low end
    table[rows] = (_pack(prod, n * bits) << np.uint64((n - 1) * bits)
                   if transpose else _pack(prod, bits))
    return table

def _apply(table, keys, n, bits, transpose=False):
    """OR of table[row r of each key] placed back as row r; for a table
    built with transpose, placed as column r instead."""
    w = n * bits
    mask = np.uint64((1 << w) - 1)
    out = np.zeros_like(keys)
    for r in range(n):
        s = np.uint64((n - 1 - r) * w)
        idx = keys >> s
        idx &= mask
        part = table.take(idx.view(np.int64))  # an intp index skips a cast
        if transpose:
            part >>= np.uint64(r * bits)
        else:
            part <<= s
        out |= part
    return out

def _inverse_transpose(F, M):
    """(M^-1)^T: the cofactor matrix of M over det M."""
    di = F.inv(mat_det(F, M))
    return tuple(tuple(F.mul(di, _cofactor(F, M, i, j)) for j in range(len(M)))
                 for i in range(len(M)))


def form_center(F, n, gram=None, e=1):
    """The scalars lam for which lam*I is an isometry of the (gram, sigma)
    form, ascending: the centre Z of its det-1 isometry group."""
    return tuple(lam for lam in range(1, F.q)
                 if is_isometry(F, _scalar_matrix(n, lam), gram, e))


@lru_cache(maxsize=32)
def _center_tables(F, n, bits, center):
    """One row table per lam in center, multiplying by lam*I; None for 1.
    Cached: a group's closure and its class scan share one build."""
    return tuple(None if lam == 1
                 else _row_table(F, n, bits, _scalar_matrix(n, lam))
                 for lam in center)

def _least_coset_key(tables, keys, n, bits):
    """Least key among lam*x over the scalars behind tables, for every key
    x: the canonical key of the coset xZ."""
    least = None
    for t in tables:
        k = keys if t is None else _apply(t, keys, n, bits)
        least = k if least is None else np.minimum(least, k)
    return least


class MatrixGroup(Record, eq=False):
    """Fully enumerated matrix group G modulo its scalar subgroup Z: field,
    dimension, the generators that produced it, the sorted canonical keys
    of the cosets of Z (the least key in each coset), and the scalars of Z.
    """

    field: Field
    dim: int
    generators: tuple
    elements: np.ndarray
    center_scalars: tuple

    @property
    def order(self) -> int:
        """|G|, every coset counted with its |Z| elements."""
        return int(self.elements.size) * len(self.center_scalars)


def _close_once(F, dim, gens, target, center):
    """Sorted canonical keys of the cosets of the scalars center reached
    from the identity, breadth first; more than target raises.

    A level's products, each _CHUNK piece of the frontier times each
    generator, are written into one level array allocated up front and
    sorted in place.  The level's arrays are dropped before the insert
    copies the visited keys, and that copy sets the memory peak."""
    bits = _bits_for(F)
    if dim * dim * bits > 64:
        raise ValueError("matrix does not pack into 64 bits")
    tables = [_row_table(F, dim, bits, g) for g in gens]
    scalars = _center_tables(F, dim, bits, center)
    identity = _pack(np.eye(dim, dtype=np.uint16)[None], bits)
    frontier = visited = _least_coset_key(scalars, identity, dim, bits)
    while frontier.size:
        keys = np.empty((len(tables), frontier.size), dtype=np.uint64)
        for lo in range(0, frontier.size, _CHUNK):
            part = frontier[lo:lo + _CHUNK]
            for row, t in zip(keys, tables):
                row[lo:lo + _CHUNK] = _least_coset_key(
                    scalars, _apply(t, part, dim, bits), dim, bits)
        keys = keys.ravel()  # a view: the level is sorted in place
        keys.sort()
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        at = np.searchsorted(visited, keys)
        new = visited[np.minimum(at, visited.size - 1)] != keys
        frontier, at = keys[new], at[new]
        del keys, new  # before the insert, which copies visited
        visited = np.insert(visited, at, frontier)
        if visited.size > target:
            raise FormViolationError(
                f"closure reached {visited.size} > target {target} cosets; "
                "a generator violates the defining form")
    return visited


def closure(generators, target_order: int, field: Field, dim: int,
            sample, center) -> MatrixGroup:
    """Breadth-first closure of the generators under multiplication,
    modulo the scalar subgroup Z whose scalars center lists.

    Each coset of Z is one canonical key, its least, so the closure
    succeeds exactly when it reaches target_order / |Z| cosets;
    target_order may not exceed MAX_CLOSURE.  Reaching every coset
    certifies the whole group: in every group this module builds, Z lies
    in G' as well as in Z(G), hence in the Frattini subgroup (Gaschuetz),
    whose elements are never needed as generators.  On an undershoot (the
    generators span a proper subgroup) the generator sample() returns is
    added and the closure restarts, up to MAX_RETRIES times.  Growth past
    the target raises FormViolationError immediately.
    """
    if target_order > MAX_CLOSURE:
        raise ValueError(f"target order {target_order} above MAX_CLOSURE = {MAX_CLOSURE}")
    if target_order % len(center):
        raise ValueError(f"|Z| = {len(center)} does not divide {target_order}")
    cosets = target_order // len(center)
    gens = list(generators)
    for _ in range(MAX_RETRIES + 1):
        elements = _close_once(field, dim, gens, cosets, center)
        if elements.size == cosets:
            return MatrixGroup(field, dim, tuple(gens), elements, tuple(center))
        gens.append(sample())
    raise ClosureError(
        f"closure stalled at {elements.size} of {cosets} cosets after retries")


def _conjugation_map(group, g):
    """Conjugation by g^-1 on the indices of group.elements: the
    permutation that sorts the conjugates g^-1 x g of the elements x, so
    entry i is the index of the x whose conjugate is element i.

    Conjugation permutes the cosets of Z, so sorting the conjugates must
    give group.elements back; anything else raises FormViolationError.
    Conjugates and check go in _CHUNK pieces, for cache and memory alike:
    a piece's temporaries stay in L2, and only the conjugates, written
    into one array allocated up front, and their sorting permutation have
    the size of the group, 16 bytes per coset beside the elements and the
    maps already built; the conjugates are freed before the int32 copy."""
    F, n, el = group.field, group.dim, group.elements
    bits = _bits_for(F)
    scalars = _center_tables(F, n, bits, group.center_scalars)
    # x -> (x g)^T, then y^T -> ((y^T) (g^-1)^T)^T = g^-1 y
    right = _row_table(F, n, bits, g, transpose=True)
    left = _row_table(F, n, bits, _inverse_transpose(F, g), transpose=True)
    pieces = range(0, el.size, _CHUNK)
    conj = np.empty_like(el)
    for lo in pieces:
        y = _apply(left, _apply(right, el[lo:lo + _CHUNK], n, bits, True),
                   n, bits, True)
        conj[lo:lo + _CHUNK] = _least_coset_key(scalars, y, n, bits)
    order = np.argsort(conj)
    for lo in pieces:
        if not np.array_equal(conj[order[lo:lo + _CHUNK]], el[lo:lo + _CHUNK]):
            raise FormViolationError(
                "the conjugates by a generator are not the enumerated "
                "elements")
    del conj
    return order.astype(np.int32)


def conjugacy_classes(group: MatrixGroup) -> np.ndarray:
    """Class label of every element of G/Z: the index in group.elements
    of the least key in its conjugacy class.

    Conjugation by the generators' inverses generates the conjugation
    action, so the classes are the orbits of these maps.  Labels start as
    the indices; min-labels propagate along each map, and pointer jumping
    shortens the chains, until a pass changes nothing.  Both work in
    place, one _CHUNK piece at a time, for cache and memory alike: a
    piece is read while it is in L2, and no pass allocates a label-sized
    array (a whole-array take on an int32 map would first copy the map
    to intp).  Pieces written earlier in a pass feed the later ones.
    That keeps the fixed point and reaches it sooner (10 passes, not 15,
    on SU_4(3) and Sp_4(5)): every update replaces a label by a smaller
    one taken from a conjugate, so each label stays in its element's
    class and at most its index.  Labels only decrease, so a pass that
    leaves their sum unchanged changed none.  Then label[x] <= label[m[x]]
    for every x and map m; m is a permutation, so the label is constant
    on its cycles, hence on whole classes.  The least index in a class
    can carry no label but itself, so that is the class's label.
    """
    maps = [_conjugation_map(group, g) for g in group.generators]
    label = np.arange(group.elements.size, dtype=np.int32)
    pieces = [slice(lo, lo + _CHUNK) for lo in range(0, label.size, _CHUNK)]
    total = None
    while True:
        for m in maps:
            for s in pieces:
                np.minimum(label[s], label.take(m[s]), out=label[s])
        before, total = total, 0
        for s in pieces:
            label[s] = label.take(label[s])
            total += int(label[s].sum(dtype=np.int64))
        if total == before:
            return label


def spectrum_mod_center(group: MatrixGroup) -> Spectrum:
    """Element orders modulo the scalar subgroup, reduced to an antichain.

    The order is a class function, so it is computed for one element of
    each conjugacy class: all representatives are powered together, and
    each drops out at the least k with M^k a scalar matrix.  That scalar
    is in Z: form_center lists every scalar of G."""
    F, n = group.field, group.dim
    bits = _bits_for(F)
    eye = np.eye(n, dtype=np.uint16)
    label = conjugacy_classes(group)
    # a label is the index of its class's least key: its fixed points are
    # one representative per class, ascending
    M = _unpack(group.elements[np.flatnonzero(label == np.arange(label.size))],
                n, bits)
    P, k, orders = M, 1, set()
    while P.shape[0]:
        done = (P == P[:, :1, :1] * eye).all(axis=(1, 2))
        if done.any():
            orders.add(k)
            P, M = P[~done], M[~done]
        P = _batch_mul(F, P, M)
        k += 1
    return Spectrum.from_values(orders, SOURCE_ORACLE)


# ---------------------------------------------------------------------------
# alternating-group permutation scan

def _with_first(k: int, rest: np.ndarray) -> np.ndarray:
    """k, then each row of rest relabelled past k (p >= k becomes p + 1):
    from the permutations of m points, those of m + 1 that start with k."""
    block = np.empty((len(rest), rest.shape[1] + 1), dtype=np.uint8)
    block[:, 0] = k
    np.add(rest, rest >= k, out=block[:, 1:], casting="unsafe")
    return block


def _even_odd_permutations(m: int) -> tuple:
    """The even and the odd permutations of range(m), lexicographic, one
    uint8 row each.  A first entry k adds k inversions, so the even ones of
    size + 1 points put each k before the even (k even) or odd (k odd) ones
    of size points, and the odd ones the other way round."""
    even = np.zeros((1, 0), dtype=np.uint8)  # the empty permutation
    odd = even[:0]
    for size in range(m):
        pair = (even, odd)
        even, odd = (np.concatenate([_with_first(k, pair[(k + s) % 2])
                                     for k in range(size + 1)])
                     for s in (0, 1))
    return even, odd


@lru_cache(maxsize=None)
def _scan_tables(n: int):
    """Two tables over the n-bit masks s: the least point not in s (n for
    the full mask), and the mask of the cycle lengths of a walk whose cycles
    close at the steps in s, bit t set iff one of them has length t."""
    s = np.arange(1 << n)
    least = np.full(s.size, n, dtype=np.uint8)
    lengths = np.zeros(s.size, dtype=np.uint16)
    prev = np.full(s.size, -1)
    for t in reversed(range(n)):
        least[(s >> t & 1) == 0] = t
    for t in range(n):
        closes = s >> t & 1
        lengths |= (closes << (t - prev)).astype(np.uint16)
        prev = np.where(closes, t, prev)
    return least, lengths


def _cycle_length_masks(perm: np.ndarray) -> np.ndarray:
    """The distinct masks among the rows of perm, permutations of n < 16
    points, where bit t of a row's mask is set iff that permutation has a
    cycle of length t.

    Each row walks its cycles one point per step, from point 0: it follows
    the permutation until the next point is one already seen, which closes
    the cycle, and then restarts at the least unseen point.  Every point is
    visited once, so the steps at which cycles close give their lengths;
    the last point visited closes the last cycle at step n - 1.  A row's
    state is its point, its seen points and its closing steps, the last
    two as bitmasks; each step is one gather from perm."""
    rows, n = perm.shape
    least, lengths = _scan_tables(n)
    flat = perm.ravel()
    base = np.arange(0, rows * n, n)
    point = np.zeros(rows, dtype=np.uint8)
    seen = np.zeros(rows, dtype=np.uint16)
    closes = np.full(rows, 1 << (n - 1), dtype=np.uint16)
    for t in range(n - 1):
        seen |= np.left_shift(1, point, dtype=np.uint16)
        point = flat.take(base + point)
        closed = seen >> point & 1
        closes |= closed << t
        point = np.where(closed, least.take(seen), point)
    return np.flatnonzero(np.bincount(lengths.take(closes)))


def alternating_orders_bruteforce(n: int) -> list:
    """All element orders of the alternating group of degree n (5..10).

    The even permutations that start with k continue with the even
    permutations of n - 1 points for even k and the odd ones for odd k,
    relabelled past k (_even_odd_permutations); each such block is built
    in turn, and every even permutation's cycles are walked, in _CHUNK
    rows at a time, and its order is the lcm of its cycle lengths.  The
    rows walked must add up to |A_n| = n!/2 (order_value), else
    ClosureError.  Independent of the prime-power criterion in
    spectra.mu_alternating."""
    if not 5 <= n <= 10:
        raise ValueError("permutation scan supports 5 <= n <= 10")
    tails = _even_odd_permutations(n - 1)
    masks, walked = set(), 0
    for k in range(n):
        block = _with_first(k, tails[k % 2])
        walked += len(block)
        for lo in range(0, len(block), _CHUNK):
            masks.update(_cycle_length_masks(block[lo:lo + _CHUNK]).tolist())
    if walked != (want := order_value(GroupId("A", n=n))):
        raise ClosureError(f"the permutation scan walked {walked} of the "
                           f"{want} even permutations of {n} points")
    return sorted({lcm(*(t for t in range(1, n + 1) if m >> t & 1))
                   for m in masks})


def alternating_spectrum_bruteforce(n: int) -> Spectrum:
    return Spectrum.from_values(alternating_orders_bruteforce(n), SOURCE_ORACLE)


# ---------------------------------------------------------------------------
# named targets

def matrix_group(g: GroupId, seed: int = DEFAULT_SEED) -> MatrixGroup:
    """SL_n(q), SU_n(q) in GL_n(q^2) or Sp_n(q) for g = L, U or S, closed
    modulo its centre (form_center) up to prefix * prod(terms) of g's
    order_terms, so that G/Z is g.  A seeded rng draws two generators, and
    any extra one on an undershoot, by random_isometry."""
    (p, k), n, gram, e = prime_power(g.q), g.n, None, 1
    if g.family == "U":
        k, gram, e = 2 * k, _scalar_matrix(n), g.q
    F = make_field(p, k)
    if g.family == "S":
        h, m = n // 2, F.neg(1)
        gram = tuple(tuple(1 if j == i + h else m if i == j + h else 0
                           for j in range(n)) for i in range(n))
    prefix, terms, _ = order_terms(g.family, n, g.q)
    sample = partial(random_isometry, F, n, random.Random(seed), gram, e)
    return closure([sample(), sample()], prod(terms, start=prefix), F, n,
                   sample, form_center(F, n, gram, e))


def sl2_group(q: int, seed: int = DEFAULT_SEED) -> MatrixGroup:
    return matrix_group(GroupId("L", n=2, q=q), seed)


def su_group(n: int, q: int, seed: int = DEFAULT_SEED) -> MatrixGroup:
    return matrix_group(GroupId("U", n=n, q=q), seed)


class OracleResult(Record):
    target: str
    enumerated: int          # closure size, or number of even permutations
    mu_oracle: Spectrum
    mu_formula: Spectrum
    match: bool


# family -> name prefix of its matrix group
_GROUP_PREFIX = {"L": "SL", "U": "SU", "S": "SP"}

# name: the simple group G/Z(G) of the matrix group G that the target closes
_MATRIX_TARGETS = {f"{_GROUP_PREFIX[g.family]}{g.n}_{g.q}": g for g in (
    *(GroupId("L", n=2, q=q) for q in (4, 5, 7, 9, 13, 37)),
    GroupId("U", n=3, q=3), GroupId("U", n=3, q=5), GroupId("U", n=4, q=3),
    GroupId("S", n=4, q=5))}

ORACLE_TARGETS = (*sorted(_MATRIX_TARGETS), *(f"A{n}" for n in range(5, 11)))


def run_target(name: str, seed: int = DEFAULT_SEED) -> OracleResult:
    """Run one named oracle target and compare it against spectrum_of."""
    if name not in ORACLE_TARGETS:
        raise ParameterError(f"unknown oracle target {name!r} "
                             f"(known: {', '.join(ORACLE_TARGETS)})")
    if name in _MATRIX_TARGETS:
        g = _MATRIX_TARGETS[name]
        grp = matrix_group(g, seed)
        enumerated, mu_o = grp.order, spectrum_mod_center(grp)
    else:
        g = GroupId("A", n=int(name[1:]))
        enumerated, mu_o = order_value(g), alternating_spectrum_bruteforce(g.n)
    mu_f = spectrum_of(g)
    return OracleResult(name, enumerated, mu_o, mu_f, mu_o.mu == mu_f.mu)
