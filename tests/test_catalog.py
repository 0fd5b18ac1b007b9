import hashlib
import itertools
import re
import time
from importlib.resources import files

import pytest
from oracle_ref import enumerate_S_p_ungated, validate_group_branchy

from gkod.arith import is_smooth, prime_power, primes_upto
from gkod.catalog import (
    FAMILIES,
    GroupId,
    ParameterError,
    _field_exponents,
    canonicalize,
    enumerate_S_p,
    order_of,
    order_value,
    out_primes,
    parse_label,
    s37_reference,
    sporadic_order,
    validate_group,
)

# independently sourced decimal orders; the data file stores factorizations,
# so agreement here cross-checks both encodings
SPORADIC_DECIMAL = {
    "M11": 7920, "M12": 95040, "M22": 443520, "M23": 10200960,
    "M24": 244823040, "J1": 175560, "J2": 604800, "J3": 50232960,
    "J4": 86775571046077562880, "Co1": 4157776806543360000,
    "Co2": 42305421312000, "Co3": 495766656000, "Fi22": 64561751654400,
    "Fi23": 4089470473293004800, "Fi24'": 1255205709190661721292800,
    "HS": 44352000, "McL": 898128000, "He": 4030387200,
    "Ru": 145926144000, "Suz": 448345497600, "ON": 460815505920,
    "HN": 273030912000000, "Ly": 51765179004000000,
    "Th": 90745943887872000, "B": 4154781481226426191177580544000000,
    "M": 808017424794512875886459904961710757005754368000000000,
    "2F4(2)'": 17971200,
}

TABLE_ORDERS = {
    "S4(31)": "2^12·3^2·5^2·13·31^4·37",
    "U3(27)": "2^5·3^9·7^2·13·19·37",
    "G2(11)": "2^6·3^3·5^2·7·11^6·19·37",
    "U4(31)": "2^16·3^2·5^2·7^2·13·19·31^6·37",
}


@pytest.mark.parametrize("label,expected", sorted(TABLE_ORDERS.items()))
def test_orders_of_verified_groups(label, expected):
    f = order_of(parse_label(label))
    assert f.is_complete
    assert str(f) == expected


def test_order_alternating_small():
    assert str(order_of(GroupId("A", n=5))) == "2^2·3·5"
    assert order_value(GroupId("A", n=5)) == 60


def test_alternating_order_recurrence():
    for n in range(6, 41):
        assert order_value(GroupId("A", n=n)) == \
            n * order_value(GroupId("A", n=n - 1))


def test_sporadic_orders_match_independent_decimals():
    assert len(SPORADIC_DECIMAL) == 27
    for name, dec in SPORADIC_DECIMAL.items():
        assert sporadic_order(name).value() == dec, name


def test_sporadic_unknown_name():
    with pytest.raises(ParameterError):
        sporadic_order("M25")


def test_data_files_bit_exact():
    data = files("gkod.data")
    digests = {
        "sporadic_orders.dat":
            "69f9dc8b08fafc73009da2bc576a61a4ba4c189440965e3532c94e0953d7e67b",
        "coincidences.dat":
            "54eebe23cfa8af2d1f47b6c42664f669e8ab5b6600f93225d86c70d516f6284f",
    }
    for fname, want in digests.items():
        raw = data.joinpath(fname).read_bytes()
        assert hashlib.sha256(raw).hexdigest() == want, fname


def test_data_file_record_format():
    raw = files("gkod.data").joinpath("sporadic_orders.dat").read_text("utf-8")
    records = [l for l in raw.splitlines() if l and not l.startswith("#")]
    assert len(records) == 27
    for line in records:
        name, _, fact = line.partition("|")
        assert name and fact
        assert sporadic_order(name).value() == SPORADIC_DECIMAL[name]


def test_validation_rejects_nonsimple_parameters():
    for bad in (GroupId("A", n=4), GroupId("L", n=2, q=2),
                GroupId("L", n=2, q=3), GroupId("L", n=2, q=6),
                GroupId("U", n=3, q=2), GroupId("S", n=4, q=2),
                GroupId("S", n=5, q=3), GroupId("G2", q=2),
                GroupId("2B2", q=4), GroupId("2B2", q=5),
                GroupId("2G2", q=9), GroupId("2G2", q=3),
                GroupId("2F4", q=2), GroupId("O", n=5, q=3),
                GroupId("O+", n=6, q=2)):
        with pytest.raises(ParameterError):
            validate_group(bad)


def test_validation_rejects_stray_fields():
    # each would otherwise name a group that a canonical id also names
    for bad, text in ((GroupId("G2", n=5, q=11), "G2 takes no n (given 5)"),
                      (GroupId("A", n=7, q=4), "A takes no q (given 4)"),
                      (GroupId("Spor", n=1, name="M11"), "Spor takes no n (given 1)"),
                      (GroupId("Spor", q=4, name="M11"), "Spor takes no q (given 4)"),
                      (GroupId("L", n=2, q=7, name="M11"),
                       "L takes no name (given 'M11')")):
        with pytest.raises(ParameterError, match=re.escape(text)):
            validate_group(bad)


def _outcome(validate, g):
    try:
        validate(g)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def test_validate_group_matches_branchy_reference():
    # every family and an unknown one, over dimensions, field sizes and
    # names on both sides of each range's edges, so that every family also
    # meets the fields it does not use: n on the exceptional families and
    # Spor, q on A and Spor, a name outside Spor
    ns = (None, -1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
    qs = (None, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 25, 27, 32, 81, 128, 243)
    for family in FAMILIES + ("X",):
        names = ("M11", "M25", None) if family == "Spor" else ("M11", None)
        for n, q, name in itertools.product(ns, qs, names):
            g = GroupId(family, n=n, q=q, name=name)
            assert _outcome(validate_group, g) == _outcome(validate_group_branchy, g), g


def test_canonicalize_coincidences():
    pairs = [("L2(4)", "A5"), ("L2(5)", "A5"), ("L2(9)", "A6"),
             ("L3(2)", "L2(7)"), ("L4(2)", "A8"), ("S4(3)", "U4(2)")]
    for alias, canon in pairs:
        assert canonicalize(parse_label(alias)).label() == canon
    # family-level rule: odd-dimension orthogonal over F_2^k is symplectic
    assert canonicalize(GroupId("O", n=7, q=2)).label() == "S6(2)"
    assert canonicalize(GroupId("O", n=7, q=3)).label() == "O7(3)"


def test_parse_label_roundtrip():
    for label in ("A37", "L2(961)", "U4(31)", "S4(31)", "O7(3)", "O+8(2)",
                  "O-8(3)", "G2(11)", "2G2(27)", "3D4(2)", "M11", "2F4(2)'"):
        assert parse_label(label).label() == label
    with pytest.raises(ValueError):
        parse_label("X9(4)")


def test_enumerate_s37_matches_published():
    got = enumerate_S_p(37)
    assert [g.label() for g in got] == [g.label() for g in s37_reference()]
    assert len(got) == 13
    for g in got:
        o = order_value(g)
        assert o % 37 == 0 and is_smooth(o, 37)


def test_enumerate_small_primes():
    assert enumerate_S_p(2) == []
    assert enumerate_S_p(3) == []
    assert [g.label() for g in enumerate_S_p(5)] == ["A5", "A6", "U4(2)"]


def test_enumerate_requires_prime():
    with pytest.raises(ValueError):
        enumerate_S_p(6)


def _brute_force_scan(p, q_max, n_max, alt_max):
    """Independent smoothness scan over order values: no term screening,
    no dimension pruning; just every (family, n, q) in the window."""
    from math import factorial
    found = set()
    for n in range(5, alt_max + 1):
        o = factorial(n) // 2
        if o % p == 0 and is_smooth(o, p):
            found.add(GroupId("A", n=n))
    for name in SPORADIC_DECIMAL:
        o = SPORADIC_DECIMAL[name]
        if o % p == 0 and is_smooth(o, p):
            found.add(GroupId("Spor", name=name))
    qs = [q for q in range(2, q_max + 1) if prime_power(q)]
    for q in qs:
        for family, ns in (("L", range(2, n_max + 1)), ("U", range(3, n_max + 1)),
                           ("S", range(4, n_max + 1, 2)), ("O", range(7, n_max + 1, 2)),
                           ("O+", range(8, n_max + 1, 2)), ("O-", range(8, n_max + 1, 2))):
            for n in ns:
                g = GroupId(family, n=n, q=q)
                try:
                    validate_group(g)
                except ParameterError:
                    continue
                o = order_value(g)
                if o % p == 0 and is_smooth(o, p):
                    found.add(canonicalize(g))
        for family in ("G2", "F4", "E6", "E7", "E8", "2E6", "3D4",
                       "2B2", "2G2", "2F4"):
            g = GroupId(family, q=q)
            try:
                validate_group(g)
            except ParameterError:
                continue
            o = order_value(g)
            if o % p == 0 and is_smooth(o, p):
                found.add(canonicalize(g))
    return sorted(found, key=GroupId.sort_key)


def test_enumerate_p5_against_brute_force():
    assert _brute_force_scan(5, 1024, 12, 6) == enumerate_S_p(5)


def test_enumerate_p37_against_brute_force():
    # q window covers every member (largest field size is L2(1331))
    brute = _brute_force_scan(37, 2048, 8, 44)
    assert brute == enumerate_S_p(37)


def test_enumerate_gate_matches_ungated_loop():
    # the derived search space and the q - 1 gate only skip candidates that
    # an exhaustive loop over plain bounds rejects
    for p in primes_upto(37):
        assert enumerate_S_p(p) == enumerate_S_p_ungated(p), p


def test_field_exponents_cover_every_smooth_exponent():
    for p in primes_upto(97):
        plist = primes_upto(p)
        for r in primes_upto(min(p, 37)):
            exps = set(_field_exponents(r, plist))
            for f in range(1, 2 * p + 1):
                if is_smooth(r**f - 1, p):
                    assert f in exps, (p, r, f)


def test_enumerate_large_prime_alternating_tail():
    start = time.perf_counter()
    labels = [g.label() for g in enumerate_S_p(997)]
    assert time.perf_counter() - start < 5
    # no prime lies in 998..1008, the degrees up to the next prime 1009
    assert {f"A{n}" for n in range(997, 1009)} <= set(labels)
    assert "A1009" not in labels


def test_order_of_rejects_invalid_groups():
    with pytest.raises(ParameterError):
        order_of(GroupId("L", n=2, q=6))
    with pytest.raises(ParameterError):
        order_of(GroupId("Spor", name="M25"))


@pytest.mark.parametrize("p", [41, 61, 97])
def test_out_primes_bounded_holds_on_ungated_s_p(p):
    """The Out primes computed from d and f stay within {2, 3, 5} on S_p
    in characteristic above 37 too, such as L2(41), L2(1681), S4(41),
    L3(47), L4(47), L3(61) and L2(97)."""
    groups = enumerate_S_p_ungated(p)
    assert any(g.family not in ("A", "Spor") and g.q % p == 0 for g in groups)
    assert [g.label() for g in groups if not out_primes(g) <= {2, 3, 5}] == []


def test_out_primes():
    """{2} for A_n and the sporadic groups, {2, 3} where d f = 1 or 3,
    and 7 enters where f = 7 or d = 7."""
    for label in ("A5", "A6", "A37", *SPORADIC_DECIMAL):
        assert out_primes(parse_label(label)) == {2}, label
    for label in ("U3(27)", "O+8(2)", "G2(11)", "L2(8)"):
        assert out_primes(parse_label(label)) == {2, 3}, label
    assert out_primes(parse_label("L2(32)")) == {2, 3, 5}
    for label in ("L2(128)", "L2(2187)", "2B2(128)", "L7(29)", "U7(13)"):
        assert 7 in out_primes(parse_label(label)), label


def test_enumerate_range_is_checked_before_any_work(monkeypatch):
    """A p that is not a prime up to 10^4 raises ParameterError before the
    enumeration starts; 9973, the largest prime in range, gets past the
    check (the full run is in CI) and 997 runs above."""
    class Started(Exception):
        pass

    def started(bound):
        raise Started

    monkeypatch.setattr("gkod.catalog.primes_upto", started)
    for p in (10007, 40009, 4, 1, 0, -5, 10**100 + 267):
        start = time.perf_counter()
        with pytest.raises(ParameterError):
            enumerate_S_p(p)
        assert time.perf_counter() - start < 0.1
    with pytest.raises(Started):
        enumerate_S_p(9973)
