"""Divisibility-lattice primitives: bounded trial division, smooth-number
tests, antichains and divisor closures.

Values are plain Python ints, so group orders of thousands of bits need no
special representation.  Every collection-returning function yields its
result sorted ascending; downstream output stays deterministic because of
this convention.
"""

from bisect import bisect_left
from functools import lru_cache
from math import gcd, isqrt, log2, prod

MAX_PRIME_BOUND = 10_000
# primes per trial-division block of factorize
_BLOCK = 24

# Miller-Rabin witnesses: the first 13 primes, exact for n below
# psi_13 = 3317044064679887385961981 (about 3.3 * 10^24); the first 12 are
# exact only below psi_12 = 318665857834031151167461, a composite they pass,
# and psi_13 = 1287836182261 * 2575672364521 passes all 13
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981


@lru_cache(maxsize=64)
def primes_upto(bound: int) -> tuple:
    """All primes <= bound, ascending (simple sieve, cached)."""
    if bound < 2:
        return ()
    sieve = bytearray([1]) * (bound + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(bound**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
    return tuple(i for i, v in enumerate(sieve) if v)


def is_prime(n: int) -> bool:
    """Primality by Miller-Rabin to the 13 prime bases 2..41, exact for
    n < psi_13 (about 3.3e24).  From psi_13 on, the Baillie-PSW test:
    Miller-Rabin to base 2 alone, then a strong Lucas test.  No composite
    is known to pass it, and on a prime of thousands of digits it takes
    about a tenth of the time of the 13 bases."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES if n < _PSI_13 else (2,):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _PSI_13 or _strong_lucas_prp(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd n > 2 with Selfridge's
    parameters (method A): D the first of 5, -7, 9, -11, ... with Jacobi
    symbol (D/n) = -1, P = 1 and Q = (1 - D)/4.

    With n + 1 = d 2^s, d odd, n passes if U_d = 0 or V_{d 2^r} = 0 mod n
    for some 0 <= r < s.  U_d and V_d come from the top bit of d down by
    U_2k = U_k V_k, V_2k = V_k^2 - 2 Q^k and, for a set bit,
    U_k+1 = (U_k + V_k)/2, V_k+1 = (D U_k + V_k)/2."""
    if isqrt(n) ** 2 == n:  # no D has (D/n) = -1
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:  # D shares a factor with n
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4

    def half(x):
        x %= n
        return (x + n if x & 1 else x) // 2

    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def next_prime_after(p: int) -> int:
    q = p + 1
    while not is_prime(q):
        q += 1
    return q


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1, k >= 2, in exact integer arithmetic.

    Newton's method started from a floating-point estimate, which is good
    to about 40 bits, so a few quadratic steps suffice.  x**k - n is convex,
    so one step from any x > 0 lands at or above the root, and from there
    the steps decrease to it.
    """
    e = max(n.bit_length() - 64, 0)
    lg = (log2(n >> e) + e) / k  # log2 of the root
    s = max(int(lg) - 52, 0)
    x = (int(2 ** (lg - s)) << s) + 1
    x = ((k - 1) * x + n // x ** (k - 1)) // k
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


@lru_cache(maxsize=1024)
def prime_power(q: int):
    """Return (p, k) with q = p**k, or None if q is not a prime power.

    A small prime p dividing q is split off directly: one up to 41, or,
    for q above 64 bits, one up to MAX_PRIME_BOUND.  Otherwise every prime
    factor exceeds the largest trial prime t, so q = r**k forces
    2**(bitlen(t) - 1) < r and k <= bits / (bitlen(t) - 1).  Only prime
    exponents k are tried, since a k-th power is also a power with each
    prime factor of k as exponent; at the first exact root the answer is
    that of the root, with the exponent multiplied by k.  Memoised, since
    one group's validation and spectrum ask for the same q.
    """
    if q < 2:
        return None
    trial = _MR_BASES if q.bit_length() <= 64 else primes_upto(MAX_PRIME_BOUND)
    for p in trial:
        if q % p == 0:
            k = 0
            while q % p == 0:
                q //= p
                k += 1
            return (p, k) if q == 1 else None
    for k in range(2, q.bit_length() // (trial[-1].bit_length() - 1) + 1):
        if not is_prime(k):
            continue
        r = _iroot(q, k)
        if r**k == q:
            root = prime_power(r)
            return None if root is None else (root[0], root[1] * k)
    return (q, 1) if is_prime(q) else None


class Record:
    """Base of gkod's immutable value classes.

    A subclass's fields are the names annotated in its body, in order; a
    class attribute of the same name is the field's default.  At class
    creation one exec makes the subclass's __init__, which sets the fields
    and then runs __post_init__ when the class has one, and __eq__ and
    __hash__, which compare and hash the tuple of fields between instances
    of the same class; a subclass declared with eq=False keeps identity
    instead.  __match_args__ lists the fields, as for a dataclass, so a
    class pattern may name them by position.  Instances refuse assignment
    and deletion, and trusted() is the one way to build one without
    __init__."""

    def __init_subclass__(cls, eq=True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = names = tuple(cls.__annotations__)
        namespace = {"_set": object.__setattr__}
        params = []
        for name in names:
            if name in vars(cls):
                namespace[f"_default_{name}"] = vars(cls)[name]
                name += f"=_default_{name}"
            params.append(name)
        lines = [f"def __init__(self, {', '.join(params)}):"]
        lines += [f"    _set(self, {name!r}, {name})" for name in names]
        if hasattr(cls, "__post_init__"):
            lines.append("    self.__post_init__()")
        if eq:
            mine = "(" + "".join(f"self.{name}, " for name in names) + ")"
            lines += ["def __eq__(self, other):",
                      "    if other.__class__ is self.__class__:",
                      f"        return {mine} == {mine.replace('self.', 'other.')}",
                      "    return NotImplemented",
                      "def __hash__(self):",
                      f"    return hash({mine})"]
        exec("\n".join(lines), namespace)
        for method in ("__init__", "__eq__", "__hash__"):
            if method in namespace:
                namespace[method].__qualname__ = f"{cls.__qualname__}.{method}"
                setattr(cls, method, namespace[method])

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def trusted(cls, **fields):
    """An instance of the Record subclass cls holding the given fields,
    without running its __init__ and so its __post_init__ checks.  For
    values a gkod routine has just built to the class invariants; outside
    data goes through cls(...), which checks them."""
    obj = object.__new__(cls)
    # as Record's __init__ does; writing obj.__dict__ would give every
    # instance a dict of its own, about 90 bytes more
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


class Factorization(Record):
    """Multiset of (prime, exponent) pairs plus an unfactored residual.

    Invariants: primes strictly increasing, exponents >= 1, and residual is
    either 1 or free of prime factors below the bound that produced it.
    ``value()`` always reconstructs the original integer exactly.
    """

    factors: tuple
    residual: int = 1

    def __post_init__(self):
        ps = [p for p, _ in self.factors]
        if ps != sorted(set(ps)):
            raise ValueError("primes must be strictly increasing")
        if bad := [p for p in ps if not is_prime(p)]:
            raise ValueError(f"{bad[0]} is not prime")
        if any(e < 1 for _, e in self.factors):
            raise ValueError("exponents must be >= 1")
        if self.residual < 1:
            raise ValueError("residual must be >= 1")

    @property
    def is_complete(self) -> bool:
        return self.residual == 1

    def value(self) -> int:
        n = self.residual
        for p, e in self.factors:
            n *= p**e
        return n

    def primes(self) -> tuple:
        """Support of the factored part, ascending."""
        return tuple(p for p, _ in self.factors)

    def exponent(self, p: int) -> int:
        for q, e in self.factors:
            if q == p:
                return e
        return 0

    def divides(self, other: "Factorization") -> bool:
        """Exact exponent-wise divisibility; both sides must be complete."""
        if not (self.is_complete and other.is_complete):
            raise ValueError("divides() needs complete factorizations")
        return all(e <= other.exponent(p) for p, e in self.factors)

    def restrict(self, primes) -> "Factorization":
        """Sub-factorization supported on the given primes (residual 1)."""
        keep = set(primes)
        return trusted(Factorization, residual=1,
                       factors=tuple(pe for pe in self.factors if pe[0] in keep))

    def __mul__(self, other: "Factorization") -> "Factorization":
        exps = dict(self.factors)
        for p, e in other.factors:
            exps[p] = exps.get(p, 0) + e
        return Factorization(
            tuple(sorted(exps.items())), self.residual * other.residual
        )

    def __str__(self):
        parts = [f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors]
        if self.residual != 1:
            parts.append(f"({self.residual})")
        return "·".join(parts) if parts else "1"


def parse_factorization(text: str) -> Factorization:
    """Inverse of ``str(Factorization)`` for complete factorizations."""
    text = text.strip()
    if text == "1":
        return Factorization(())
    pairs = []
    for token in text.split("·"):
        p, _, e = token.partition("^")
        pairs.append((int(p), int(e) if e else 1))
    return Factorization(tuple(pairs))


@lru_cache(maxsize=64)
def _prime_blocks(bound: int) -> tuple:
    """The primes <= bound in runs of _BLOCK, each with its product."""
    ps = primes_upto(bound)
    return tuple((ps[i:i + _BLOCK], prod(ps[i:i + _BLOCK]))
                 for i in range(0, len(ps), _BLOCK))


def factorize(n: int, prime_bound: int) -> Factorization:
    """Factor n by trial division over primes <= prime_bound.

    The primes go in blocks of _BLOCK consecutive ones; a block whose
    product is coprime to n is skipped, and only the primes dividing that
    gcd are divided out.  Once the next block starts at a prime p with
    p^2 > n, what is left of n has no prime factor below p, so it is 1 or
    a prime: a factor if it is <= prime_bound, the residual otherwise.

    Parameters
    ----------
    n : int
        Positive integer; 0 is a domain error.
    prime_bound : int
        Trial-division bound, 2 <= prime_bound <= 10**4.

    Returns
    -------
    Factorization
        Complete (residual 1) exactly when n is prime_bound-smooth.
    """
    if n < 1:
        raise ValueError(f"factorize needs n >= 1, got {n}")
    if not 2 <= prime_bound <= MAX_PRIME_BOUND:
        raise ValueError(f"prime_bound must be in [2, {MAX_PRIME_BOUND}]")
    pairs = []
    for block, block_product in _prime_blocks(prime_bound):
        if block[0] * block[0] > n:
            if 1 < n <= prime_bound:
                pairs.append((n, 1))
                n = 1
            break
        d = gcd(n, block_product)
        if d == 1:
            continue
        for p in block:
            if d % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                pairs.append((p, e))
    return trusted(Factorization, factors=tuple(pairs), residual=n)


@lru_cache(maxsize=64)
def _primorial(bound: int) -> int:
    return prod(primes_upto(bound))


def is_smooth(n: int, prime_bound: int) -> bool:
    """True iff every prime factor of n is <= prime_bound.

    Divides out d = gcd(n, primorial(prime_bound)) until d is 1; after the
    first step only the primes of the previous d can remain, so each later
    gcd is taken against d.  Any bound is accepted.
    """
    if n < 1:
        raise ValueError(f"is_smooth needs n >= 1, got {n}")
    d = gcd(n, _primorial(prime_bound))
    while d > 1:
        n //= d
        d = gcd(n, d)
    return n == 1


def maximal_under_divisibility(values) -> list:
    """Antichain of the values maximal under divisibility, ascending.

    An element survives iff it does not properly divide another element of
    the input set.
    """
    vals = sorted(set(int(v) for v in values))
    if vals and vals[0] < 1:
        raise ValueError("values must be >= 1")
    # a proper multiple of m is at least 2m
    return [m for m in vals
            if not any(v % m == 0 for v in vals[bisect_left(vals, 2 * m):])]


def divisors(n: int) -> list:
    """All divisors of n, ascending (unbounded trial division; meant for
    element orders, not group orders)."""
    if n < 1:
        raise ValueError("divisors needs n >= 1")
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def divisor_closure(mu) -> list:
    """All divisors of all members of mu, ascending.

    Idempotent, and maximal_under_divisibility of the result equals
    maximal_under_divisibility of the input.
    """
    out = set()
    for m in mu:
        out.update(divisors(m))
    return sorted(out)
