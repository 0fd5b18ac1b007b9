"""Maximal element orders mu(S) for the group families the toolkit covers.

Closed forms cover L2(q), U3(q), U4(q) (odd q), S4(q) (characteristic not
2 or 3) and G2(q) (characteristic > 5); alternating groups go through an
arithmetic membership test on prime-power sums.  Every result is reduced
to a divisibility antichain, since the raw formula lists may contain a
divisor of another member (U4(3) is the standard example: 6 divides 12).
"""

from functools import lru_cache
from math import gcd

from .arith import (
    Record,
    divisor_closure,
    maximal_under_divisibility,
    prime_power,
    primes_upto,
    trusted,
)
from .catalog import GroupId, ParameterError, validate_group

SOURCE_FORMULA = "formula"
SOURCE_PARTITION = "partition"  # alternating groups; a stable output label
SOURCE_ORACLE = "oracle"


class UnsupportedParameterError(ParameterError):
    """The closed form does not cover this characteristic / field size."""


class SpectrumNotImplementedError(ParameterError, NotImplementedError):
    """No spectrum routine for this family."""

    def __init__(self, family: str):
        covered = ", ".join(["Alt"] + [f"{f}{n or ''}" for f, n in _CLOSED_FORMS])
        super().__init__(
            f"no spectrum implemented for family {family!r} (covered: {covered})")
        self.family = family


class Spectrum(Record):
    """Antichain of maximal element orders; omega() is its divisor closure."""

    mu: tuple
    source: str

    def __post_init__(self):
        if list(self.mu) != maximal_under_divisibility(self.mu):
            raise ValueError("mu must be a sorted divisibility antichain")

    @classmethod
    def from_values(cls, values, source: str) -> "Spectrum":
        """The antichain of maximal values, computed once (the constructor
        would recompute it to check it)."""
        return trusted(cls, mu=tuple(maximal_under_divisibility(values)),
                       source=source)

    def omega(self) -> list:
        return divisor_closure(self.mu)

    def __iter__(self):
        return iter(self.mu)

    def __str__(self):
        return "{" + ", ".join(str(m) for m in self.mu) + "}"


def _char_of(q: int, who: str) -> int:
    pk = prime_power(q)
    if pk is None:
        raise UnsupportedParameterError(f"{who}: q = {q} is not a prime power")
    return pk[0]


def mu_S4(q: int) -> Spectrum:
    """Maximal orders of the 4-dimensional projective symplectic group,
    q = p^n with p not in {2, 3}: (q^2+1)/2, (q^2-1)/2, p(q+1), p(q-1)."""
    p = _char_of(q, "S4")
    if p in (2, 3):
        raise UnsupportedParameterError(
            f"S4({q}): characteristic {p} not covered (needs p not in {{2, 3}})")
    return Spectrum.from_values(
        [(q * q + 1) // 2, (q * q - 1) // 2, p * (q + 1), p * (q - 1)],
        SOURCE_FORMULA)


def mu_U3(q: int) -> Spectrum:
    """Maximal orders of the 3-dimensional projective unitary group, odd q:
    with d = gcd(3, q+1), the antichain of (q^2-q+1)/d, (q^2-1)/d, p(q+1)/d
    and q+1."""
    p = _char_of(q, "U3")
    if p == 2:
        raise UnsupportedParameterError(f"U3({q}): needs odd q >= 3")
    d = gcd(3, q + 1)
    return Spectrum.from_values(
        [(q * q - q + 1) // d, (q * q - 1) // d, p * (q + 1) // d, q + 1],
        SOURCE_FORMULA)


def mu_G2(q: int) -> Spectrum:
    """Maximal orders of G2(q), characteristic > 5:
    p(q-1), p(q+1), q^2-1, q^2-q+1, q^2+q+1."""
    p = _char_of(q, "G2")
    if p <= 5:
        raise UnsupportedParameterError(
            f"G2({q}): characteristic {p} not covered (needs p > 5)")
    return Spectrum.from_values(
        [p * (q - 1), p * (q + 1), q * q - 1, q * q - q + 1, q * q + q + 1],
        SOURCE_FORMULA)


def mu_U4(q: int) -> Spectrum:
    """Maximal orders of the 4-dimensional projective unitary group, odd q:
    with d = gcd(4, q+1), the antichain of (q-1)(q^2+1)/d, (q^3+1)/d,
    p(q^2-1)/d, q^2-1, p(q+1), and 9 when the characteristic is 3."""
    p = _char_of(q, "U4")
    if p == 2:
        raise UnsupportedParameterError(f"U4({q}): needs odd q")
    d = gcd(4, q + 1)
    vals = [(q - 1) * (q * q + 1) // d, (q**3 + 1) // d,
            p * (q * q - 1) // d, q * q - 1, p * (q + 1)]
    if p == 3:
        vals.append(9)
    return Spectrum.from_values(vals, SOURCE_FORMULA)


def mu_L2(q: int) -> Spectrum:
    """Maximal orders of the 2-dimensional projective special linear group:
    p, (q-1)/k, (q+1)/k with k = gcd(2, q-1); q >= 4."""
    p = _char_of(q, "L2")
    if q < 4:
        raise UnsupportedParameterError(f"L2({q}) is not simple")
    k = gcd(2, q - 1)
    return Spectrum.from_values([p, (q - 1) // k, (q + 1) // k], SOURCE_FORMULA)


@lru_cache(maxsize=None)
def mu_alternating(n: int) -> Spectrum:
    """Maximal element orders of the alternating group of degree n.

    Let s(m) be the sum of the prime-power parts of m (s(1) = 0).  An odd m
    is an element order iff s(m) <= n (one cycle per prime-power part, all
    of odd length); an even m iff s(m) + 2 <= n, since the cycle carrying
    the 2-part is odd and needs a transposition beside it.  The element
    orders are enumerated depth-first over prime powers, as for Landau's
    function.  The set is divisor-closed, so m is maximal iff no m*p is an
    element order.  Degrees 5..100 are accepted; n = 100 has 17391 element
    orders, 2900 of them maximal.
    """
    if not 5 <= n <= 100:
        raise UnsupportedParameterError(f"alternating degree {n} out of [5, 100]")
    primes = primes_upto(n)
    odd = primes[1:]
    omega = set()

    def extend(i, m, used):
        omega.add(m)
        for j in range(i, len(odd)):
            p = odd[j]
            if used + p > n:
                break
            pa = p
            while used + pa <= n:
                extend(j + 1, m * pa, used + pa)
                pa *= p

    extend(0, 1, 0)
    two = 2
    while two + 2 <= n:
        extend(0, two, two + 2)
        two *= 2
    mu = sorted(m for m in omega if all(m * p not in omega for p in primes))
    return trusted(Spectrum, mu=tuple(mu), source=SOURCE_PARTITION)


# the closed form of each (family, dimension); the exceptional families
# have no dimension
_CLOSED_FORMS = {("L", 2): mu_L2, ("U", 3): mu_U3, ("U", 4): mu_U4,
                 ("S", 4): mu_S4, ("G2", None): mu_G2}


def spectrum_of(g: GroupId) -> Spectrum:
    """Dispatch to the routine matching g's family and dimension."""
    validate_group(g)
    if g.family == "A":
        return mu_alternating(g.n)
    form = _CLOSED_FORMS.get((g.family, g.n))
    if form is None:
        fam = g.family if g.n is None else f"{g.family}{g.n}"
        raise SpectrumNotImplementedError(fam)
    return form(g.q)
