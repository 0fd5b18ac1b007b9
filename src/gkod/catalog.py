"""Finite simple group identification, closed-form orders, and enumeration
of the groups S with p in pi(S) and pi(S) inside {2, ..., p}.

Orders of the classical and exceptional families come from the standard
product formulas (including division by the diagonal/center gcd, so they
are orders of the *simple* groups).  Sporadic orders and the exceptional
isomorphisms between family labels live in checked-in data tables under
``gkod/data``.
"""

import re
from dataclasses import dataclass, fields
from functools import lru_cache
from importlib.resources import files
from math import factorial, gcd

from .arith import (
    Factorization,
    factorize,
    is_prime,
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

# order factorizations are complete for any group whose primes fit below this
ORDER_FACTOR_BOUND = 10_000


class ParameterError(ValueError):
    """Parameters do not describe a simple group in the given family."""


class ScopeError(ValueError):
    """A declaratively encoded fact was queried outside its encoded scope."""


@dataclass(frozen=True)
class GroupId:
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
        if self.family in ("L", "U", "S", "O", "O+", "O-"):
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
    text = files("gkod.data").joinpath(fname).read_text(encoding="utf-8")
    for line in text.splitlines():
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
    """Raise ParameterError unless g names a finite simple group."""
    if g.family not in FAMILIES:
        raise ParameterError(f"unknown family {g.family!r}")
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
        # dimensions 3 and 5 coincide with L2 and S4; require >= 7
        if n is None or n < 7 or n % 2 == 0:
            raise ParameterError(f"O{n}({g.q}) out of range (odd dimension >= 7)")
    elif fam in ("O+", "O-"):
        # dimension 6 coincides with L4/U4; require >= 8
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

def _order_terms(g: GroupId):
    """(prefix, terms, d) with |g| = prefix * product(terms) / d.

    Term lists are arranged so that within one family and fixed q, every
    term of dimension n divides some term at each larger dimension; the
    enumerator exploits this to prune whole dimension ranges.
    """
    q, n = g.q, g.n
    fam = g.family
    if fam == "L":
        return q ** (n * (n - 1) // 2), [q**i - 1 for i in range(2, n + 1)], gcd(n, q - 1)
    if fam == "U":
        return (q ** (n * (n - 1) // 2),
                [q**i - (-1) ** i for i in range(2, n + 1)], gcd(n, q + 1))
    if fam == "S":
        m = n // 2
        return q ** (m * m), [q ** (2 * i) - 1 for i in range(1, m + 1)], gcd(2, q - 1)
    if fam == "O":
        m = (n - 1) // 2
        return q ** (m * m), [q ** (2 * i) - 1 for i in range(1, m + 1)], gcd(2, q - 1)
    if fam == "O+":
        m = n // 2
        return (q ** (m * (m - 1)),
                [q**m - 1] + [q ** (2 * i) - 1 for i in range(1, m)], gcd(4, q**m - 1))
    if fam == "O-":
        m = n // 2
        return (q ** (m * (m - 1)),
                [q**m + 1] + [q ** (2 * i) - 1 for i in range(1, m)], gcd(4, q**m + 1))
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
    prefix, terms, d = _order_terms(g)
    o = prefix
    for t in terms:
        o *= t
    return o // d


def order_of(g: GroupId) -> Factorization:
    """Exact order of the simple group g, factored by trial division up to
    10**4; primes above that remain in the residual."""
    validate_group(g)
    if g.family == "Spor":
        return sporadic_order(g.name)
    return factorize(order_value(g), ORDER_FACTOR_BOUND)


# ---------------------------------------------------------------------------
# enumeration of S_p

@dataclass(frozen=True)
class SearchCaps:
    """Bounds on the enumeration search space.  Enlarging any cap can only
    add results, never remove one."""

    max_prime: int = 37
    max_field_exponent: int = 20
    max_rank: int = 20
    max_alt_degree: int = 100

    def __post_init__(self):
        if min(self.max_prime, self.max_field_exponent,
               self.max_rank, self.max_alt_degree) < 1:
            raise ValueError("caps must be positive")

    def to_text(self) -> str:
        return (f"max_prime = {self.max_prime}\n"
                f"max_field_exponent = {self.max_field_exponent}\n"
                f"max_rank = {self.max_rank}\n"
                f"max_alt_degree = {self.max_alt_degree}\n")

    @classmethod
    def from_file(cls, path) -> "SearchCaps":
        """Caps from `key = value` lines (blank lines and # comments skipped).
        An unknown key or a non-integer value raises ValueError."""
        known = [f.name for f in fields(cls)]
        vals = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, val = (part.strip() for part in line.partition("="))
                if key not in known:
                    raise ValueError(f"line {lineno}: unknown key {key!r} "
                                     f"(known: {', '.join(known)})")
                try:
                    vals[key] = int(val)
                except ValueError:
                    raise ValueError(f"line {lineno}: {key} = {val!r} is not "
                                     "an integer") from None
        return cls(**vals)


DEFAULT_CAPS = SearchCaps()


def _dimension_range(family: str, max_rank: int) -> range:
    if family == "L":
        return range(2, max_rank + 2)
    if family == "U":
        return range(3, max_rank + 2)
    if family == "S":
        return range(4, 2 * max_rank + 1, 2)
    if family == "O":
        return range(7, 2 * max_rank + 2, 2)
    return range(8, 2 * max_rank + 1, 2)  # O+/O-


def _smooth_int(n: int, plist) -> bool:
    for p in plist:
        while n % p == 0:
            n //= p
        if n == 1:
            return True
    return n == 1


def _valid_quiet(g: GroupId) -> bool:
    try:
        validate_group(g)
        return True
    except ParameterError:
        return False


def enumerate_S_p(p: int, caps: SearchCaps = DEFAULT_CAPS) -> list:
    """All simple groups within caps whose order is p-smooth and divisible
    by p, canonicalized and sorted by (family, parameters).

    No completeness claim beyond the caps; callers should report the caps
    together with the result.
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    plist = primes_upto(p)
    found = set()

    # alternating: degrees past the next prime above p pick up a larger prime
    hi = min(next_prime_after(p) - 1, caps.max_alt_degree)
    for n in range(max(5, p), hi + 1):
        o = factorial(n) // 2
        if o % p == 0 and _smooth_int(o, plist):
            found.add(GroupId("A", n=n))

    for name, f in _sporadic_table().items():
        o = f.value()
        if o % p == 0 and _smooth_int(o, plist):
            found.add(GroupId("Spor", name=name))

    chars = [r for r in plist if r <= caps.max_prime]
    for r in chars:
        q = 1
        for _ in range(caps.max_field_exponent):
            q *= r
            # every family's order has a term divisible by q - 1
            if not _smooth_int(q - 1, plist):
                continue
            for family in ("L", "U", "S", "O", "O+", "O-"):
                for n in _dimension_range(family, caps.max_rank):
                    g = GroupId(family, n=n, q=q)
                    if not _valid_quiet(g):
                        continue
                    prefix, terms, d = _order_terms(g)
                    if not all(_smooth_int(t, plist) for t in terms):
                        break  # every larger n repeats a non-smooth divisor
                    o = prefix
                    for t in terms:
                        o *= t
                    o //= d
                    if o % p == 0:
                        found.add(canonicalize(g))
            for family in ("G2", "F4", "E6", "E7", "E8", "2E6", "3D4",
                           "2B2", "2G2", "2F4"):
                g = GroupId(family, q=q)
                if not _valid_quiet(g):
                    continue
                prefix, terms, d = _order_terms(g)
                if all(_smooth_int(t, plist) for t in terms):
                    o = prefix
                    for t in terms:
                        o *= t
                    o //= d
                    if o % p == 0:
                        found.add(canonicalize(g))
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


def out_primes_bounded(g: GroupId) -> bool:
    """Encoded fact: pi(Out(g)) is contained in {2, 3, 5}.

    Encoded scope: non-sporadic g whose order factors completely below
    10**4 with largest prime divisor in [5, 97].  Anything else raises
    ScopeError (defensive: the fact may hold more widely, but only this
    scope is vouched for).
    """
    validate_group(g)
    if g.family == "Spor":
        raise ScopeError(f"{g.label()} is outside the encoded scope (sporadic)")
    f = order_of(g)
    if not f.is_complete:
        raise ScopeError(f"order of {g.label()} not fully factored below 10^4")
    top = f.primes()[-1]
    if not 5 <= top <= 97:
        raise ScopeError(f"largest prime {top} of |{g.label()}| outside [5, 97]")
    return True
