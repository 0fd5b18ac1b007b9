import time

import pytest
from oracle_ref import (
    mu_U3_by_cases,
    mu_U4_by_cases,
    omega_alternating,
    partition_orders_alternating,
    prime_support,
)

from gkod.arith import maximal_under_divisibility, primes_upto
from gkod.catalog import ParameterError, order_of, parse_label, s37_reference
from gkod.spectra import (
    Spectrum,
    SpectrumNotImplementedError,
    UnsupportedParameterError,
    mu_G2,
    mu_L2,
    mu_S4,
    mu_U3,
    mu_U4,
    mu_alternating,
    spectrum_of,
)

# expected values: the four table rows were checked against the published
# table; the rest were evaluated independently with plain integer
# arithmetic before being frozen here
MU_CASES = [
    (mu_S4, 31, (480, 481, 930, 992)),
    (mu_S4, 5, (12, 13, 20, 30)),
    (mu_S4, 7, (24, 25, 42, 56)),
    (mu_U3, 27, (84, 703, 728)),
    (mu_U3, 3, (7, 8, 12)),
    (mu_U3, 5, (6, 7, 8, 10)),
    (mu_U3, 11, (12, 37, 40, 44)),
    (mu_G2, 11, (110, 111, 120, 132, 133)),
    (mu_G2, 7, (42, 43, 48, 56, 57)),
    (mu_G2, 13, (156, 157, 168, 182, 183)),
    (mu_U4, 31, (960, 992, 7215, 7440, 7448)),
    (mu_U4, 3, (5, 7, 8, 9, 12)),
    (mu_U4, 5, (24, 52, 60, 63)),
    (mu_L2, 7, (3, 4, 7)),
    (mu_L2, 4, (2, 3, 5)),
    (mu_L2, 37, (18, 19, 37)),
    (mu_L2, 9, (3, 4, 5)),
    (mu_L2, 961, (31, 480, 481)),
    (mu_L2, 1331, (11, 665, 666)),
]


@pytest.mark.parametrize("fn,q,expected", MU_CASES,
                         ids=[f"{f.__name__}-{q}" for f, q, _ in MU_CASES])
def test_mu_formula_values(fn, q, expected):
    s = fn(q)
    assert s.mu == expected
    assert s.source == "formula"


def test_mu_u4_antichain_reduction_absorbs_divisor():
    # at q = 3 the raw value p(q^2-1)/d = 6 divides p(q+1) = 12
    assert 6 not in mu_U4(3).mu and 12 in mu_U4(3).mu


def test_unitary_forms_match_the_forms_by_cases():
    """Listing every member and letting the antichain drop the dominated
    ones gives the spectra of the forms that dropped them by cases, at
    every odd prime power q < 2*10^5."""
    bound = 2 * 10**5
    qs = [p**k for p in primes_upto(bound)[1:]
          for k in range(1, bound.bit_length()) if p**k < bound]
    assert len(qs) == 18103
    for q in qs:
        assert mu_U3(q) == mu_U3_by_cases(q), q
        assert mu_U4(q) == mu_U4_by_cases(q), q


def test_mu_alternating_small():
    assert mu_alternating(5).mu == (2, 3, 5)
    assert mu_alternating(7).mu == (4, 5, 6, 7)
    assert mu_alternating(10).mu == (8, 9, 10, 12, 15, 21)
    assert mu_alternating(5).source == "partition"
    assert omega_alternating(5) == [1, 2, 3, 5]


def test_mu_alternating_matches_partition_reference():
    for n in range(5, 41):
        assert mu_alternating(n).mu == tuple(maximal_under_divisibility(
            partition_orders_alternating(n))), n


def test_mu_alternating_landau_100():
    # Landau's g(100) = 232792560 = 2^4 3^2 5 7 11 13 17 19: its prime-power
    # sum is 97 and it is even, so 97 + 2 <= 100 puts it in omega(A_100)
    start = time.perf_counter()
    mu = mu_alternating.__wrapped__(100)
    elapsed = time.perf_counter() - start
    assert max(mu.mu) == 232792560
    assert elapsed < 2.0


def test_unsupported_parameters():
    for fn, q in ((mu_S4, 9), (mu_S4, 4), (mu_S4, 27),
                  (mu_U3, 4), (mu_U3, 8), (mu_U4, 8),
                  (mu_G2, 27), (mu_G2, 25), (mu_L2, 3)):
        with pytest.raises(UnsupportedParameterError):
            fn(q)
    with pytest.raises(UnsupportedParameterError):
        mu_alternating(4)
    with pytest.raises(UnsupportedParameterError):
        mu_alternating(101)
    with pytest.raises(UnsupportedParameterError):
        mu_U3(12)  # not a prime power


def test_spectrum_dispatch():
    assert spectrum_of(parse_label("U4(31)")) == mu_U4(31)
    assert spectrum_of(parse_label("S4(31)")) == mu_S4(31)
    assert spectrum_of(parse_label("A38")) == mu_alternating(38)
    with pytest.raises(SpectrumNotImplementedError) as err:
        spectrum_of(parse_label("2G2(27)"))
    assert str(err.value) == ("no spectrum implemented for family '2G2' "
                              "(covered: Alt, L2, U3, U4, S4, G2)")
    with pytest.raises(SpectrumNotImplementedError) as err:
        spectrum_of(parse_label("L3(4)"))
    assert str(err.value) == ("no spectrum implemented for family 'L3' "
                              "(covered: Alt, L2, U3, U4, S4, G2)")
    # a request outside the coverage, still caught as NotImplementedError
    assert isinstance(err.value, ParameterError)
    assert isinstance(err.value, NotImplementedError)


def test_spectrum_type_enforces_antichain():
    with pytest.raises(ValueError):
        Spectrum((2, 3, 6), "formula")
    assert Spectrum.from_values([2, 3, 6], "formula").mu == (6,)
    assert Spectrum.from_values([1, 2, 3, 6], "formula").mu == (6,)
    assert Spectrum.from_values([4, 6, 9], "formula").mu == (4, 6, 9)


def test_built_spectra_pass_the_public_check():
    """from_values and mu_alternating skip the constructor's antichain
    check; what they build passes it."""
    for fn, q, expected in MU_CASES:
        mu = fn(q)
        assert mu == Spectrum(mu.mu, mu.source) == Spectrum(expected, mu.source)
    for n in range(5, 81):  # the check is quadratic: 0.3 s at n = 100 alone
        mu = mu_alternating(n)
        assert mu == Spectrum(mu.mu, mu.source)


def test_every_spectrum_is_antichain():
    for _, q, expected in MU_CASES:
        assert list(expected) == maximal_under_divisibility(expected)


def test_alternating_support_covers_all_primes_up_to_37():
    for n in (37, 38, 39, 40):
        sup = set()
        for m in mu_alternating(n):
            sup.update(prime_support(m, 37))
        assert sorted(sup) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def test_cauchy_consistency_across_catalog():
    """Support of the divisor closure of mu equals the support of |S| for
    every catalog member with an implemented spectrum."""
    for g in s37_reference():
        if g.label() == "2G2(27)":
            continue
        order = order_of(g)
        sup = set()
        for m in spectrum_of(g):
            sup.update(prime_support(m, 37))
        assert tuple(sorted(sup)) == order.primes(), g.label()
