"""Finite simple group identification, closed-form orders, and enumeration
of the groups S with p in pi(S) and pi(S) inside {2, ..., p}.

Orders of the classical and exceptional families come from the standard
product formulas (including division by the diagonal/center gcd, so they
are orders of the *simple* groups).  Sporadic orders and the exceptional
isomorphisms between family labels live in checked-in data tables under
``gkod/data``.

The enumeration derives its finite search space from p by Zsigmondy's
theorem (ENUMERATION_FACTS), with no tunable bounds; Lie type is searched
in characteristic up to CHARACTERISTIC_BOUND, so the result is complete for
p <= CHARACTERISTIC_BOUND.
"""

import os
import re
from contextlib import suppress
from functools import cache, lru_cache
from itertools import count
from math import factorial, gcd, prod

from .arith import (
    MAX_PRIME_BOUND,
    Factorization,
    Record,
    divisors,
    factorize,
    is_prime,
    is_smooth,
    next_prime_after,
    parse_factorization,
    prime_power,
    primes_upto,
)

FAMILIES = (
    "A", "L", "U", "S", "O", "O+", "O-",
    "G2", "F4", "E6", "E7", "E8", "2E6", "3D4", "2B2", "2G2", "2F4",
    "Spor",
)
_FAMILY_INDEX = {f: i for i, f in enumerate(FAMILIES)}

# first dimension and step of the classical families (an exceptional
# family has the one dimension None); odd-dimension O starts at 7, since O3
# and O5 coincide with L2 and S4, and O+/O- at 8, since dimension 6
# coincides with L4/U4
_DIMENSIONS = {"L": (2, 1), "U": (3, 1), "S": (4, 2), "O": (7, 2),
               "O+": (8, 2), "O-": (8, 2)}
# the classical groups in range that are not simple
_NOT_SIMPLE = {("L", 2, 2), ("L", 2, 3), ("U", 3, 2), ("S", 4, 2)}
# the fields of GroupId that a family leaves unset, in field order: A has
# no q, Spor no n or q, a classical family no name, and an exceptional one
# (the default) no n and no name
_UNUSED_FIELDS = {"A": ("q", "name"), "Spor": ("n", "q"),
                  **dict.fromkeys(_DIMENSIONS, ("name",))}


class ParameterError(ValueError):
    """A request outside gkod's coverage: parameters that describe no
    simple group in the given family, or a group, fact, spectrum or case
    that gkod does not cover.  The root of every error that `gk` reports
    as exit 1; an error that signals a broken invariant is not one."""


class GroupId(Record):
    """Tagged identifier of a finite simple group.

    family is one of FAMILIES; n is the subscript (alternating degree or
    classical dimension), q the field size, name the sporadic name.
    """

    family: str
    n: int | None = None
    q: int | None = None
    name: str | None = None

    def label(self) -> str:
        if self.family == "A":
            return f"A{self.n}"
        if self.family == "Spor":
            return self.name
        if self.family in _DIMENSIONS:
            return f"{self.family}{self.n}({self.q})"
        return f"{self.family}({self.q})"

    def sort_key(self):
        return (_FAMILY_INDEX[self.family], self.n or 0, self.q or 0, self.name or "")

    def __str__(self):
        return self.label()


def parse_label(text: str) -> GroupId:
    """Inverse of GroupId.label()."""
    text = text.strip()
    if text in _sporadic_table():
        return GroupId("Spor", name=text)
    if re.fullmatch(r"A\d+", text):
        return GroupId("A", n=int(text[1:]))
    m = re.fullmatch(r"(2B2|2G2|2F4|2E6|3D4|G2|F4|E6|E7|E8)\((\d+)\)", text)
    if m:
        return GroupId(m.group(1), q=int(m.group(2)))
    m = re.fullmatch(r"(O[+-]?|[LUS])(\d+)\((\d+)\)", text)
    if m:
        return GroupId(m.group(1), n=int(m.group(2)), q=int(m.group(3)))
    raise ValueError(f"cannot parse group label {text!r}")


# ---------------------------------------------------------------------------
# embedded data tables

def _read_records(fname):
    out = []
    path = os.path.join(os.path.dirname(__file__), "data", fname)
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line and not line.startswith("#"):
                key, _, val = line.partition("|")
                out.append((key, val))
    return out


@lru_cache(maxsize=1)
def _sporadic_table() -> dict:
    return {k: parse_factorization(v) for k, v in _read_records("sporadic_orders.dat")}


@lru_cache(maxsize=1)
def _coincidence_table() -> dict:
    return {k: parse_label(v) for k, v in _read_records("coincidences.dat")}


def sporadic_order(name: str) -> Factorization:
    """Order of a sporadic group (the Tits group counts as 2F4(2)')."""
    table = _sporadic_table()
    if name not in table:
        raise ParameterError(f"unknown sporadic group {name!r}")
    return table[name]


# ---------------------------------------------------------------------------
# validation and canonical form

def validate_group(g: GroupId) -> None:
    """Raise ParameterError unless g names a finite simple group, with
    no field set that its family does not use (_UNUSED_FIELDS)."""
    if g.family not in FAMILIES:
        raise ParameterError(f"unknown family {g.family!r}")
    for field in _UNUSED_FIELDS.get(g.family, ("n", "name")):
        if getattr(g, field) is not None:
            raise ParameterError(f"{g.family} takes no {field} "
                                 f"(given {getattr(g, field)!r})")
    if g.family == "A":
        if g.n is None or g.n < 5:
            raise ParameterError("alternating groups require degree n >= 5")
        return
    if g.family == "Spor":
        sporadic_order(g.name)
        return
    pk = prime_power(g.q) if g.q else None
    if pk is None:
        raise ParameterError(f"q = {g.q} is not a prime power")
    p, k = pk
    fam, n = g.family, g.n
    if fam in _DIMENSIONS:
        first, step = _DIMENSIONS[fam]
        if (n is None or n < first or (n - first) % step
                or (fam, n, g.q) in _NOT_SIMPLE):
            if not fam.startswith("O"):
                raise ParameterError(f"{fam}{n}({g.q}) is not simple")
            parity = "odd" if first % 2 else "even"
            raise ParameterError(f"{fam}{n}({g.q}) out of range "
                                 f"({parity} dimension >= {first})")
    elif fam == "G2":
        if g.q < 3:
            raise ParameterError("G2(2) is not simple")
    elif fam in ("2B2", "2G2", "2F4"):
        r = 3 if fam == "2G2" else 2
        if p != r or k % 2 == 0 or k == 1:
            note = (" (the Tits group is the sporadic entry 2F4(2)')"
                    if fam == "2F4" else "")
            raise ParameterError(f"{fam} requires q = {r}^(2m+1), m >= 1{note}")


def canonicalize(g: GroupId) -> GroupId:
    """Canonical GroupId of the abstract group (one id per isomorphism type).

    Applies the checked-in coincidence table plus the family-level rule that
    odd-dimension orthogonal groups in characteristic 2 equal symplectic
    groups of the previous dimension.
    """
    validate_group(g)
    if g.family == "O" and g.q % 2 == 0:
        g = GroupId("S", n=g.n - 1, q=g.q)
    return _coincidence_table().get(g.label(), g)


# ---------------------------------------------------------------------------
# orders

def order_terms(fam: str, n, q: int):
    """(prefix, terms, d) with |G| = prefix * product(terms) / d for the
    Lie-type group G of family fam, dimension n (None for the exceptional
    families) and field size q; d is the order of the centre that the
    oracle's closures divide out of their target, prefix * product(terms).

    It validates nothing (O4(3) gets the terms of O3(3)): callers validate
    first, as order_value does; the tests close the non-simple SU_3(2).

    Term lists are arranged so that within one family and fixed q, every
    term of dimension n divides some term at each larger dimension; the
    enumerator exploits this to prune whole dimension ranges.
    """
    if fam == "L":
        return q ** (n * (n - 1) // 2), [q**i - 1 for i in range(2, n + 1)], gcd(n, q - 1)
    if fam == "U":
        return (q ** (n * (n - 1) // 2),
                [q**i - (-1) ** i for i in range(2, n + 1)], gcd(n, q + 1))
    if fam in ("S", "O"):
        m = (n - 1) // 2 if fam == "O" else n // 2
        return q ** (m * m), [q ** (2 * i) - 1 for i in range(1, m + 1)], gcd(2, q - 1)
    if fam in ("O+", "O-"):
        m = n // 2
        top = q**m - 1 if fam == "O+" else q**m + 1
        return (q ** (m * (m - 1)),
                [top] + [q ** (2 * i) - 1 for i in range(1, m)], gcd(4, top))
    if fam == "G2":
        return q**6, [q**6 - 1, q**2 - 1], 1
    if fam == "F4":
        return q**24, [q**12 - 1, q**8 - 1, q**6 - 1, q**2 - 1], 1
    if fam == "E6":
        return (q**36, [q**12 - 1, q**9 - 1, q**8 - 1, q**6 - 1, q**5 - 1, q**2 - 1],
                gcd(3, q - 1))
    if fam == "E7":
        return (q**63, [q**18 - 1, q**14 - 1, q**12 - 1, q**10 - 1, q**8 - 1,
                        q**6 - 1, q**2 - 1], gcd(2, q - 1))
    if fam == "E8":
        return (q**120, [q**30 - 1, q**24 - 1, q**20 - 1, q**18 - 1, q**14 - 1,
                         q**12 - 1, q**8 - 1, q**2 - 1], 1)
    if fam == "2E6":
        return (q**36, [q**12 - 1, q**9 + 1, q**8 - 1, q**6 - 1, q**5 + 1, q**2 - 1],
                gcd(3, q + 1))
    if fam == "3D4":
        return q**12, [q**8 + q**4 + 1, q**6 - 1, q**2 - 1], 1
    if fam == "2B2":
        return q**2, [q**2 + 1, q - 1], 1
    if fam == "2G2":
        return q**3, [q**3 + 1, q - 1], 1
    if fam == "2F4":
        return q**12, [q**6 + 1, q**4 - 1, q**3 + 1, q - 1], 1
    raise ParameterError(f"no order formula for family {fam!r}")


def order_value(g: GroupId) -> int:
    """|g| as an integer."""
    validate_group(g)
    if g.family == "A":
        return factorial(g.n) // 2
    if g.family == "Spor":
        return sporadic_order(g.name).value()
    prefix, terms, d = order_terms(g.family, g.n, g.q)
    return prod(terms, start=prefix) // d


def order_of(g: GroupId) -> Factorization:
    """Exact order of the simple group g, factored by trial division up to
    10**4; primes above that remain in the residual.  An invalid g raises
    ParameterError from sporadic_order or order_value."""
    if g.family == "Spor":
        return sporadic_order(g.name)
    return factorize(order_value(g), MAX_PRIME_BOUND)


# ---------------------------------------------------------------------------
# enumeration of S_p

# Lie type is searched in characteristic <= 37 only, so the enumeration is
# complete exactly for p <= 37; from p = 41 on it misses groups such as
# L2(41)
CHARACTERISTIC_BOUND = 37

ENUMERATION_FACTS = (
    "Zsigmondy's theorem (1892): for r prime and e >= 1, r^e - 1 has a prime "
    "divisor l with ord_l(r) = e, except (r, e) = (2, 1), e = 2 with r + 1 a "
    "power of 2, and (r, e) = (2, 6)",
)

def _field_exponents(r: int, plist) -> list:
    """Every f for which r^f - 1 may be p-smooth (p = plist[-1]), ascending.

    Outside the exceptions of Zsigmondy's theorem, r^f - 1 has a prime
    divisor l with ord_l(r) = f; if r^f - 1 is p-smooth then l <= p, so f
    is the order of r modulo some prime l <= p.
    """
    exps = {1, 2, 6}
    for ell in plist:
        if ell != r:
            exps.add(next(d for d in divisors(ell - 1) if pow(r, d, ell) == 1))
    return sorted(exps)


def enumerate_S_p(p: int) -> list:
    """All simple groups whose order is p-smooth and divisible by p, with Lie
    type in characteristic at most CHARACTERISTIC_BOUND, canonicalized and
    sorted by (family, parameters).

    The search space follows from p alone: alternating degrees p up to the
    next prime, field exponents from Zsigmondy's theorem (_field_exponents),
    and ranks up to the first term with a prime factor above p, which by
    Zsigmondy's theorem always occurs (q^i - 1 with q = r^f and fi >= p has
    a primitive prime divisor l = 1 mod fi, so l > p).  The result is
    complete for p <= CHARACTERISTIC_BOUND.  A Lie-type candidate with
    p-smooth order terms is in S_p when p is its characteristic or divides
    a term, and canonicalize validates it, once.  A p that is not a prime
    up to MAX_PRIME_BOUND, above which order_of cannot fully factor the
    orders found, raises ParameterError before any work.
    """
    if not (is_prime(p) and p <= MAX_PRIME_BOUND):
        raise ParameterError(f"p = {p} is not a prime up to {MAX_PRIME_BOUND}")
    plist = primes_upto(p)
    # n!/2 has exactly the primes up to n, so n in [p, next prime) is in S_p
    found = {GroupId("A", n=n) for n in range(max(5, p), next_prime_after(p))}

    for name, f in _sporadic_table().items():
        # the largest prime of |S| is p: p divides it and it is p-smooth
        if f.primes()[-1] == p:
            found.add(GroupId("Spor", name=name))

    # terms such as q^2 - 1 recur across families and ranks
    smooth = cache(lambda t: is_smooth(t, p))
    for r in primes_upto(min(p, CHARACTERISTIC_BOUND)):
        for f in _field_exponents(r, plist):
            q = r**f
            # every family's order has a term divisible by q - 1
            if not smooth(q - 1):
                continue
            for family in FAMILIES[1:-1]:  # the 16 Lie families
                dims = count(*_DIMENSIONS[family]) if family in _DIMENSIONS else (None,)
                for n in dims:
                    _, terms, _ = order_terms(family, n, q)
                    if not all(map(smooth, terms)):
                        # the non-smooth term recurs at every larger n, so
                        # stop here even if (family, n, q) is not simple
                        break
                    # p | |S| = prefix * prod(terms) / d iff p = r or p
                    # divides a term (prefix a power of r, d prime to r): d
                    # never removes the last p, as for p >= 5, p | d only
                    # for L_n, U_n with p | n, where p divides all n - 1
                    # terms and v_p(d) <= v_p(n) < n - 1, and for p <= 3 no
                    # simple group has p-smooth terms (Burnside's p^a q^b)
                    if r == p or any(t % p == 0 for t in terms):
                        with suppress(ParameterError):
                            found.add(canonicalize(GroupId(family, n=n, q=q)))
    return sorted(found, key=GroupId.sort_key)


# published contents of S_37, kept for cross-checking the enumerator; a
# mismatch must be surfaced, never silently resolved either way
PUBLISHED_S37 = (
    "L2(37)", "U3(11)", "L2(961)", "S4(31)", "2G2(27)", "U3(27)",
    "L2(1331)", "G2(11)", "U4(31)", "A37", "A38", "A39", "A40",
)


def s37_reference() -> list:
    """The published 13-member list as sorted GroupIds."""
    return sorted((parse_label(s) for s in PUBLISHED_S37), key=GroupId.sort_key)


def out_primes(g: GroupId) -> frozenset:
    """A set of primes that contains pi(Out(g)).

    For g of Lie type |Out(g)| = d f g (Gorenstein-Lyons-Solomon, CFSG
    No. 3, Table 2.5.1): d the diagonal part, which is order_terms' d, f
    the exponent of q as a power of its characteristic, and g the graph
    part, which with the twisted groups' field automorphisms adds only
    the primes 2 and 3.  So the set is {2, 3} and the primes of d f.  For
    A_n and the sporadic groups |Out| divides 4 (ATLAS), so it is {2}.
    """
    validate_group(g)
    if g.family in ("A", "Spor"):
        return frozenset({2})
    _, _, d = order_terms(g.family, g.n, g.q)
    return frozenset({2, 3, *filter(is_prime, divisors(d * prime_power(g.q)[1]))})
