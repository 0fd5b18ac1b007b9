"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured runtime.  Criteria 1-2 must finish in under a second,
criterion 3 in under a minute, criterion 4 in under ten minutes (SP4_5,
the biggest closure, included), and criterion 5's eight-vertex
enumeration in under five minutes.  All comparisons are exact."""

import itertools
import random
import time

from oracle_ref import (
    degree_classes,
    graph_equivalent_under_closure,
    omega_alternating,
    prime_support,
)

from gkod.arith import divisor_closure, maximal_under_divisibility
from gkod.catalog import enumerate_S_p, order_of, parse_label
from gkod.graph import (
    build_gk,
    components,
    degree_pattern,
    independence,
    suzuki_decomposition,
)
from gkod.oracle import alternating_orders_bruteforce
from gkod.spectra import mu_alternating, spectrum_of
from gkod.verifier import VERIFIED, enumerate_with_pattern, verify_case

TABLE = {
    "S4(31)": ("2^12·3^2·5^2·13·31^4·37", (480, 481, 930, 992),
               (3, 3, 3, 1, 3, 1)),
    "U3(27)": ("2^5·3^9·7^2·13·19·37", (84, 703, 728),
               (3, 2, 3, 2, 1, 1)),
    "G2(11)": ("2^6·3^3·5^2·7·11^6·19·37", (110, 111, 120, 132, 133),
               (3, 4, 3, 1, 3, 1, 1)),
    "U4(31)": ("2^16·3^2·5^2·7^2·13·19·31^6·37", (960, 992, 7215, 7440, 7448),
               (5, 5, 5, 2, 3, 2, 3, 3)),
}

FIG_EDGES = {
    "S4(31)": ((2, 3), (2, 5), (2, 31), (3, 5), (3, 31), (5, 31), (13, 37)),
    "U3(27)": ((2, 3), (2, 7), (2, 13), (3, 7), (7, 13), (19, 37)),
    "G2(11)": ((2, 3), (2, 5), (2, 11), (3, 5), (3, 11), (3, 37), (5, 11),
               (7, 19)),
    "U4(31)": ((2, 3), (2, 5), (2, 7), (2, 19), (2, 31), (3, 5), (3, 13),
               (3, 31), (3, 37), (5, 13), (5, 31), (5, 37), (7, 19), (13, 37)),
}

PUBLISHED_13 = ["A37", "A38", "A39", "A40", "L2(37)", "L2(961)", "L2(1331)",
                "U3(11)", "U3(27)", "U4(31)", "S4(31)", "G2(11)", "2G2(27)"]


def _report(criterion, elapsed, detail=""):
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.2f}s){' - ' if detail else ''}{detail}")


def test_criterion_1_table_reproduction():
    t0 = time.time()
    for label, (order_str, mu, pattern) in TABLE.items():
        g = parse_label(label)
        order = order_of(g)
        assert str(order) == order_str, label
        spec = spectrum_of(g)
        assert spec.mu == mu, label
        gk = build_gk(order, spec)
        assert degree_pattern(gk).degrees == pattern, label
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(1, elapsed, "orders, mu and degree patterns exact for all 4 groups")


def test_criterion_2_figure_reproduction():
    t0 = time.time()
    for label, edges in FIG_EDGES.items():
        g = parse_label(label)
        order = order_of(g)
        gk = build_gk(order, spectrum_of(g))
        assert gk.edges == edges, label
    gk = build_gk(order_of(parse_label("S4(31)")),
                  spectrum_of(parse_label("S4(31)")))
    assert len(gk.edges) == 7
    oc = components(gk, order_of(parse_label("S4(31)")))
    assert oc.components[1][0] == (13, 37)
    gk4 = build_gk(order_of(parse_label("U4(31)")),
                   spectrum_of(parse_label("U4(31)")))
    assert components(gk4, order_of(parse_label("U4(31)"))).count == 1
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(2, elapsed, "all 4 edge sets equal the published figure")


def test_criterion_3_s37_enumeration():
    t0 = time.time()
    got = [g.label() for g in enumerate_S_p(37)]
    elapsed = time.time() - t0
    assert got == PUBLISHED_13
    assert elapsed < 60.0
    _report(3, elapsed, "enumeration returns exactly the published 13 groups")


def test_criterion_4_formula_vs_oracle_standard(oracle_runner):
    t0 = time.time()
    for name in ("SL2_4", "SL2_5", "SL2_7", "SL2_9", "SL2_13", "SL2_37",
                 "SU3_3", "SU3_5", "SU4_3"):
        res = oracle_runner(name)
        assert res.match, f"{name}: {res.mu_oracle} vs {res.mu_formula}"
    for n in range(5, 10):
        assert alternating_orders_bruteforce(n) == omega_alternating(n), n
        assert mu_alternating(n).mu == tuple(maximal_under_divisibility(
            alternating_orders_bruteforce(n))), n
    elapsed = time.time() - t0
    assert elapsed < 600.0
    _report(4, elapsed, "L2(q) q in {4,5,7,9,13,37}; U3(q) q in {3,5}; U4(3); "
                        "A5..A9 full omega")


def test_criterion_4_heavy_tier(oracle_runner):
    t0 = time.time()
    sp4 = oracle_runner("SP4_5")
    assert sp4.match and sp4.enumerated == 9360000
    _report(4, time.time() - t0, "S4(5): SP4_5 matches")


def test_criterion_5_mechanized_verification():
    t0 = time.time()
    reports = {label: verify_case(label) for label in TABLE}
    for label, rep in reports.items():
        assert rep.verdict == VERIFIED, (label, rep.verdict)
        assert rep.alternatives["all_vasiliev_applicable"], label
        assert rep.filter["survivors"] == [label], label
    rep = reports["S4(31)"]
    assert rep.family_size == 13
    assert rep.forced == {"count": 1, "all_equal_gk": True}
    assert rep.alternatives["count"] == 12
    for label in ("U3(27)", "G2(11)"):
        assert reports[label].forced == {"count": 1, "all_equal_gk": True}
    t_u4 = time.time()
    fam = enumerate_with_pattern((2, 3, 5, 7, 13, 19, 31, 37),
                                 (5, 5, 5, 2, 3, 2, 3, 3))
    u4_elapsed = time.time() - t_u4
    assert len(fam) == 921 and u4_elapsed < 300.0
    elapsed = time.time() - t0
    _report(5, elapsed, "all 4 verdicts verified; forced-graph uniqueness; "
                        f"8-vertex family in {u4_elapsed:.2f}s")


def test_criterion_6_property_suites():
    t0 = time.time()
    violations = []
    catalog_graphs = []
    for g in (parse_label(s) for s in PUBLISHED_13):
        if g.label() == "2G2(27)":
            continue  # spectrum deliberately out of scope
        order = order_of(g)
        mu = spectrum_of(g)
        gk = build_gk(order, mu)
        catalog_graphs.append((g.label(), order, mu, gk))

    for label, order, mu, gk in catalog_graphs:
        # antichain invariant
        if list(mu.mu) != maximal_under_divisibility(mu.mu):
            violations.append(("antichain", label))
        # Cauchy consistency
        sup = set()
        for m in mu:
            sup.update(prime_support(m, 37))
        if tuple(sorted(sup)) != order.primes():
            violations.append(("cauchy", label))
        # handshake parity
        dp = degree_pattern(gk)
        if sum(dp.degrees) != 2 * len(gk.edges) or sum(dp.degrees) % 2:
            violations.append(("handshake", label))
        # mu-vs-omega graph equivalence
        if not graph_equivalent_under_closure(order, mu):
            violations.append(("mu-omega", label))
        # t(G) >= s(G)
        t, _ = independence(gk)
        s = components(gk, order).count
        if t < s:
            violations.append(("t>=s", label))
        # clique decomposition beyond the leading component
        if not suzuki_decomposition(gk).ok:
            violations.append(("suzuki", label))
        # s(G) >= |D0(G)| holds by construction; assert via degree_classes
        if not degree_classes(gk).isolated_bound_ok:
            violations.append(("isolated", label))

    # enumeration completeness against the full 2^15 scan on 6 vertices
    primes = (2, 3, 5, 13, 31, 37)
    rng = random.Random(0xA11CE)
    patterns = [(3, 3, 3, 1, 3, 1), (3, 2, 3, 2, 1, 1)]
    while len(patterns) < 6:
        cand = tuple(rng.randint(0, 5) for _ in range(6))
        if sum(cand) % 2 == 0:
            patterns.append(cand)
    for pattern in patterns:
        fam = enumerate_with_pattern(primes, pattern)
        pairs = list(itertools.combinations(range(6), 2))
        brute = set()
        for bits in range(1 << 15):
            deg = [0] * 6
            edges = []
            for i, (a, b) in enumerate(pairs):
                if bits >> i & 1:
                    deg[a] += 1
                    deg[b] += 1
                    edges.append((primes[a], primes[b]))
            if tuple(deg) == pattern:
                brute.add(tuple(sorted(edges)))
        if {g.edges for g in fam.graphs} != brute:
            violations.append(("enumeration", pattern))

    # randomized antichain / closure properties
    for _ in range(200):
        vals = {rng.randint(1, 4000) for _ in range(rng.randint(1, 10))}
        mu = maximal_under_divisibility(vals)
        closed = divisor_closure(vals)
        if maximal_under_divisibility(closed) != mu:
            violations.append(("closure-antichain", tuple(sorted(vals))))
        if divisor_closure(closed) != closed:
            violations.append(("closure-idempotent", tuple(sorted(vals))))

    elapsed = time.time() - t0
    assert violations == []
    _report(6, elapsed, "zero violations across catalog graphs, exhaustive "
                        "6-vertex scans and randomized suites")
