import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_ref import (
    NonSmoothError,
    is_prime_mr13,
    maximal_under_divisibility_quadratic,
    prime_factors,
    prime_power_trial,
    prime_support,
)

from gkod.arith import (
    Factorization,
    _iroot,
    _strong_lucas_prp,
    divisor_closure,
    divisors,
    factorize,
    is_prime,
    is_smooth,
    maximal_under_divisibility,
    next_prime_after,
    parse_factorization,
    prime_power,
    primes_upto,
)


def test_factorize_examples():
    assert factorize(481, 37).factors == ((13, 1), (37, 1))
    assert factorize(481, 37).residual == 1
    assert factorize(1, 37) == Factorization(())
    assert factorize(992, 37).factors == ((2, 5), (31, 1))


def test_factorize_rough_residual():
    f = factorize(2**3 * 41 * 43, 37)
    assert f.factors == ((2, 3),)
    assert f.residual == 41 * 43
    assert not f.is_complete
    assert f.value() == 2**3 * 41 * 43


def test_factorize_domain_errors():
    with pytest.raises(ValueError):
        factorize(0, 37)
    with pytest.raises(ValueError):
        factorize(10, 1)
    with pytest.raises(ValueError):
        factorize(10, 10**5)


def test_is_smooth_examples():
    assert is_smooth(25308, 37)
    assert not is_smooth(41, 37)
    assert is_smooth(1, 2)
    assert is_smooth(2**40 * 10007**3, 10007)  # no cap on the bound
    assert not is_smooth(2 * 10009, 10007)
    with pytest.raises(ValueError):
        is_smooth(0, 37)


def test_prime_support_examples():
    assert prime_support(481, 37) == (13, 37)
    assert prime_support(1, 37) == ()
    n = 2**5 * 3**9 * 7**2 * 13 * 19 * 37
    assert prime_support(n, 37) == (2, 3, 7, 13, 19, 37)


def test_prime_support_nonsmooth_carries_residual():
    with pytest.raises(NonSmoothError) as err:
        prime_support(4 * 41, 37)
    assert err.value.residual == 41


def test_maximal_under_divisibility_examples():
    assert maximal_under_divisibility({1, 2, 3, 6}) == [6]
    assert maximal_under_divisibility({4, 5, 6, 7, 1, 2, 3}) == [4, 5, 6, 7]
    assert maximal_under_divisibility({703, 728, 84}) == [84, 703, 728]


def test_divisor_closure_examples():
    assert divisor_closure({6}) == [1, 2, 3, 6]
    assert divisor_closure({2, 3, 5}) == [1, 2, 3, 5]
    for p in (7, 31, 37):
        assert divisor_closure({p}) == [1, p]


def test_factorization_str_and_parse():
    f = factorize(2**12 * 3**2 * 5**2 * 13 * 31**4 * 37, 37)
    assert str(f) == "2^12·3^2·5^2·13·31^4·37"
    assert parse_factorization(str(f)) == f
    assert str(Factorization(())) == "1"
    assert parse_factorization("1") == Factorization(())


def test_factorization_divides_and_mul():
    a = parse_factorization("2^2·3")
    b = parse_factorization("2^3·3·5")
    assert a.divides(b) and not b.divides(a)
    assert (a * b).value() == a.value() * b.value()
    with pytest.raises(ValueError):
        a.divides(Factorization((), residual=41))


def test_factorization_restrict():
    f = parse_factorization("2^12·3^2·5^2·13·31^4·37")
    assert str(f.restrict((13, 37))) == "13·37"
    assert f.restrict(()).value() == 1
    part = f.restrict((2, 31, 41))
    assert part == Factorization(part.factors) == Factorization(((2, 12), (31, 4)))


@pytest.mark.parametrize("factors,residual", [
    (((3, 1), (2, 1)), 1),   # primes not ascending
    (((2, 1), (2, 3)), 1),   # repeated prime
    (((2, 1), (3, 0)), 1),   # zero exponent
    (((2, 1),), 0),          # residual below 1
    (((4, 1),), 1),          # composite "prime"
    (((1, 2),), 1),          # 1 is no prime
])
def test_factorization_constructor_checks(factors, residual):
    with pytest.raises(ValueError):
        Factorization(factors, residual)


def test_parse_factorization_rejects_a_composite():
    with pytest.raises(ValueError, match="^4 is not prime$"):
        parse_factorization("4")
    with pytest.raises(ValueError, match="^9 is not prime$"):
        parse_factorization("2^3·9")


# psi_12: the least strong pseudoprime to the first 12 prime bases 2..37
PSI_12 = 318665857834031151167461


def test_is_prime_rejects_psi_12():
    assert PSI_12 == 399165290221 * 798330580441
    assert is_prime(399165290221) and is_prime(798330580441)
    assert not is_prime(PSI_12)
    assert prime_power(PSI_12) is None


# psi_13: the least strong pseudoprime to the first 13 prime bases 2..41
PSI_13 = 3317044064679887385961981


def test_is_prime_rejects_psi_13():
    assert PSI_13 == 1287836182261 * 2575672364521
    assert is_prime(1287836182261) and is_prime(2575672364521)
    assert is_prime_mr13(PSI_13)
    assert not is_prime(PSI_13)
    assert prime_power(PSI_13) is None


def test_is_prime_mersenne_primes_above_psi_13():
    assert is_prime(2**89 - 1) and is_prime(2**127 - 1)
    assert not is_prime(2**89 + 1) and not is_prime(2**127 - 3)


def test_is_prime_matches_13_base_test_above_psi_13():
    rng = random.Random(20261019)
    primes = 0
    for _ in range(3000):
        n = rng.randrange(PSI_13, 1 << rng.randint(82, 400)) | 1
        primes += is_prime(n)
        assert is_prime(n) == is_prime_mr13(n), n
    assert primes > 10


def test_strong_lucas_pseudoprimes_below_30000():
    """Every odd prime passes; the composites that pass are the strong
    Lucas pseudoprimes with Selfridge's parameters (OEIS A217255)."""
    primes = set(primes_upto(30000))
    passed = [n for n in range(3, 30000, 2)
              if _strong_lucas_prp(n) and n not in primes]
    assert passed == [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199]
    assert all(_strong_lucas_prp(p) for p in primes if p > 2)


def test_prime_helpers():
    assert primes_upto(37) == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    assert next_prime_after(37) == 41
    assert next_prime_after(5) == 7
    assert is_prime(2**31 - 1) and not is_prime(2**32 - 1)
    assert prime_power(961) == (31, 2)
    assert prime_power(1331) == (11, 3)
    assert prime_power(12) is None
    assert prime_power(37) == (37, 1)


def test_prime_power_roots_above_the_old_sieve():
    assert prime_power(100003**2) == (100003, 2)
    assert prime_power(100003**3) == (100003, 3)
    assert prime_power((2**61 - 1) ** 2) == (2**61 - 1, 2)
    assert prime_power(7 * 1000003**2) is None
    assert prime_power(2**64) == (2, 64)
    assert prime_power(6**5) is None
    assert prime_power(97**2000) == (97, 2000)
    assert prime_power(10007**500) == (10007, 500)
    assert prime_power(97**2003) == (97, 2003)
    assert prime_power((41 * 43) ** 6) is None


def test_iroot_is_the_floor_root():
    rng = random.Random(20261018)
    for _ in range(3000):
        k = rng.randint(2, 60)
        n = rng.randint(1, 1 << rng.randint(1, 600))
        r = _iroot(n, k)
        assert r**k <= n < (r + 1) ** k, (n, k)
        assert _iroot(r**k, k) == r


def test_prime_power_matches_trial_division():
    for q in range(-1, 20000):
        assert prime_power(q) == prime_power_trial(q), q


@pytest.mark.parametrize("q", [97 * 101**2000, 41 * 43**1000])
def test_prime_power_rejects_huge_composite_quickly(q):
    """A small factor of a q above 64 bits is found by trial division,
    before any root search or primality round on q."""
    t0 = time.perf_counter()
    assert prime_power(q) is None
    assert time.perf_counter() - t0 < 0.5


def test_prime_power_matches_trial_division_above_64_bits():
    rng = random.Random(20261018)
    for _ in range(300):
        r = next_prime_after(rng.randrange(41, 99_990))
        q = rng.choice([
            rng.getrandbits(rng.randint(65, 400)),
            r ** rng.randint(5, 40),
            r ** rng.randint(5, 40) * next_prime_after(rng.randrange(41, 99_990)),
            next_prime_after(rng.getrandbits(rng.randint(65, 100))),
        ])
        assert prime_power(q) == prime_power_trial(q), q


def test_prime_power_builds_no_sieve():
    primes_upto.cache_clear()
    for q in range(2, 6001):
        prime_power(q)
    assert primes_upto.cache_info().currsize == 0


def test_maximal_under_divisibility_matches_quadratic():
    rng = random.Random(20261018)
    for _ in range(300):
        top = rng.choice((30, 1000, 10**6))
        vals = [rng.randint(1, top) for _ in range(rng.randint(1, 60))]
        assert maximal_under_divisibility(vals) == \
            maximal_under_divisibility_quadratic(vals)
    with pytest.raises(ValueError):
        maximal_under_divisibility([0, 3])


# ---------------------------------------------------------------------------
# property suites

nats = st.integers(min_value=1, max_value=10**9)
small_sets = st.sets(st.integers(min_value=1, max_value=5000), min_size=1, max_size=12)


@given(nats, st.sampled_from([2, 3, 5, 7, 37, 100]))
@settings(max_examples=200)
def test_roundtrip_product(n, bound):
    f = factorize(n, bound)
    assert f.value() == n
    recon = f.residual
    for p, e in f.factors:
        assert p <= bound
        recon *= p**e
    assert recon == n


@given(nats, st.sampled_from([2, 5, 37]))
@settings(max_examples=200)
def test_smooth_iff_residual_one(n, bound):
    assert is_smooth(n, bound) == (factorize(n, bound).residual == 1)


@given(small_sets)
@settings(max_examples=100)
def test_closure_idempotent_and_antichain_identity(vals):
    closed = divisor_closure(vals)
    assert divisor_closure(closed) == closed
    mu = maximal_under_divisibility(vals)
    assert maximal_under_divisibility(closed) == mu
    # mu of an antichain is itself
    assert maximal_under_divisibility(mu) == mu


@given(st.integers(min_value=1, max_value=10**5),
       st.integers(min_value=1, max_value=10**5))
@settings(max_examples=100)
def test_support_multiplicative_on_coprimes(a, b):
    from math import gcd
    if gcd(a, b) != 1:
        a = a // gcd(a, b)
    f = factorize(a * b, 10**4)
    if not f.is_complete:
        return
    assert set(prime_support(a * b, 10**4)) == \
        set(prime_support(a, 10**4)) | set(prime_support(b, 10**4))


@given(st.integers(min_value=1, max_value=20000))
@settings(max_examples=100)
def test_divisors_all_divide(n):
    ds = divisors(n)
    assert all(n % d == 0 for d in ds)
    assert ds[0] == 1 and ds[-1] == n


def test_prime_factors_matches_bounded_factorization():
    for n in range(1, 10**4):
        assert prime_factors(n) == list(factorize(n, 10**4).primes()), n
    # a prime above the trial-division bound of factorize
    assert prime_factors(2**3 * 7 * 10007**2) == [2, 7, 10007]
    with pytest.raises(ValueError):
        prime_factors(0)
