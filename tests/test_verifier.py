import itertools
import json
import random
import re
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest
from oracle_ref import enumerate_with_pattern_sets, is_threshold

from gkod import verifier
from gkod.arith import primes_upto
from gkod.catalog import (
    CHARACTERISTIC_BOUND,
    ParameterError,
    enumerate_S_p,
    order_of,
    parse_label,
)
from gkod.graph import PrimeGraph, build_gk, degree_pattern
from gkod.spectra import spectrum_of
from gkod.verifier import (
    CASE_PI,
    VERIFIED,
    candidate_filter,
    enumerate_with_pattern,
    forcing_pivot,
    vasiliev_applicable,
    verify_case,
)


def gk_of(label):
    g = parse_label(label)
    return build_gk(order_of(g), spectrum_of(g))


# ---------------------------------------------------------------------------
# degree-sequence graph enumeration

def test_single_edge_family():
    fam = enumerate_with_pattern((19, 37), (1, 1))
    assert fam.feasible and len(fam) == 1
    assert fam.graphs[0].edges == ((19, 37),)


def test_s4_31_family_counts():
    fam = enumerate_with_pattern((2, 3, 5, 13, 31, 37), (3, 3, 3, 1, 3, 1))
    assert len(fam) == 13
    pivot = [g for g in fam.graphs if g.has_edge(13, 37)]
    assert len(pivot) == 1
    assert pivot[0] == gk_of("S4(31)")


def test_u3_27_family_counts():
    fam = enumerate_with_pattern((2, 3, 7, 13, 19, 37), (3, 2, 3, 2, 1, 1))
    assert len(fam) == 17
    pivot = [g for g in fam.graphs if g.has_edge(19, 37)]
    assert len(pivot) == 1
    assert pivot[0] == gk_of("U3(27)")


def test_g2_11_family_counts():
    fam = enumerate_with_pattern((2, 3, 5, 7, 11, 19, 37), (3, 4, 3, 1, 3, 1, 1))
    assert len(fam) == 30
    pivot = [g for g in fam.graphs if g.has_edge(7, 19)]
    assert len(pivot) == 1
    assert pivot[0] == gk_of("G2(11)")


def _brute_force_family(primes, pattern):
    k = len(primes)
    pairs = list(itertools.combinations(range(k), 2))
    out = set()
    for bits in range(1 << len(pairs)):
        deg = [0] * k
        edges = []
        for i, (a, b) in enumerate(pairs):
            if bits >> i & 1:
                deg[a] += 1
                deg[b] += 1
                edges.append((primes[a], primes[b]))
        if tuple(deg) == tuple(pattern):
            out.add(tuple(sorted(edges)))
    return out


@pytest.mark.parametrize("primes,pattern", [
    ((2, 3, 5, 13, 31, 37), (3, 3, 3, 1, 3, 1)),
    ((2, 3, 7, 13, 19, 37), (3, 2, 3, 2, 1, 1)),
    ((2, 3, 5, 7, 11, 13), (2, 2, 2, 2, 2, 2)),
    ((2, 3, 5, 7, 11, 13), (1, 1, 2, 2, 3, 3)),
    ((2, 3, 5, 7, 11, 13), (0, 0, 1, 1, 5, 5)),
])
def test_enumeration_complete_against_2_15_bruteforce(primes, pattern):
    fam = enumerate_with_pattern(primes, pattern)
    brute = _brute_force_family(primes, pattern)
    assert {g.edges for g in fam.graphs} == brute
    assert len(fam.graphs) == len(brute)  # duplicate-free


# the four Table 1 families: group, primes, degree pattern, family size
TABLE1_FAMILIES = (
    ("S4(31)", (2, 3, 5, 13, 31, 37), (3, 3, 3, 1, 3, 1), 13),
    ("U3(27)", (2, 3, 7, 13, 19, 37), (3, 2, 3, 2, 1, 1), 17),
    ("G2(11)", (2, 3, 5, 7, 11, 19, 37), (3, 4, 3, 1, 3, 1, 1), 30),
    ("U4(31)", (2, 3, 5, 7, 13, 19, 31, 37), (5, 5, 5, 2, 3, 2, 3, 3), 921),
)


def test_every_member_has_requested_pattern():
    """Each graph that enumerate_with_pattern yields has exactly the
    requested degrees, and GK(S) is among them."""
    for label, primes, pattern, size in TABLE1_FAMILIES:
        fam = enumerate_with_pattern(primes, pattern)
        assert len(fam) == size, label
        for g in fam.graphs:
            assert degree_pattern(g).degrees == pattern, label
        assert gk_of(label) in fam.graphs


def test_infeasible_patterns_flagged():
    odd = enumerate_with_pattern((2, 3, 7, 13, 19, 37), (3, 2, 3, 2, 1, 0))
    assert not odd.feasible and len(odd) == 0
    toobig = enumerate_with_pattern((2, 3), (2, 2))
    assert not toobig.feasible


@pytest.mark.parametrize("pattern", [
    (1.5, 1, 0.5),                      # truncated, it would read (1, 1, 0)
    (1.0, 1, 0),
    ("1", "1", "0"),
    (1, 1, np.float64(0)),
])
def test_enumerate_with_pattern_rejects_non_integral_degrees(pattern):
    bad = next(d for d in pattern if not isinstance(d, int))
    with pytest.raises(ValueError, match=re.escape(f"degree {bad!r} ")):
        enumerate_with_pattern((2, 3, 5), pattern)


def test_enumerate_with_pattern_takes_integer_degrees():
    want = enumerate_with_pattern((2, 3, 5), (1, 1, 0))
    assert want.pattern == (1, 1, 0) and len(want) == 1
    for pattern in [(np.int64(1), np.int8(1), np.uint16(0)), (True, 1, False)]:
        got = enumerate_with_pattern((2, 3, 5), pattern)
        assert got == want
        assert all(type(d) is int for d in got.pattern)


def _same_family(primes, pattern):
    fam = enumerate_with_pattern(primes, pattern)
    ref = enumerate_with_pattern_sets(primes, pattern)
    assert (fam.primes, fam.pattern, fam.feasible) == (ref.primes, ref.pattern, ref.feasible)
    assert [(g.edges, g.masks) for g in fam.graphs] == [(g.edges, g.masks) for g in ref.graphs]
    return fam


@pytest.mark.parametrize("label,primes,pattern,size", TABLE1_FAMILIES)
def test_mask_enumeration_matches_set_enumeration_on_table1(label, primes, pattern, size):
    assert len(_same_family(primes, pattern)) == size


def test_mask_enumeration_matches_set_enumeration_on_random_sequences():
    """Same graphs in the same order as the neighbour-set backtracking.
    Degree sequences of random sparse graphs on up to 10 vertices (at
    most 6 edges, so no family is huge), plus unconstrained sequences on
    up to 6 vertices, odd sums and degrees out of range among them."""
    rng = random.Random(20261019)
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    sizes = {"feasible": 0, "empty": 0, "infeasible": 0}
    for _ in range(200):
        k = rng.randint(1, 10)
        deg = [0] * k
        pairs = list(itertools.combinations(range(k), 2))
        for a, b in rng.sample(pairs, min(len(pairs), rng.randint(0, 6))):
            deg[a] += 1
            deg[b] += 1
        fam = _same_family(primes[:k], deg)
        sizes["feasible"] += len(fam) > 0
    for _ in range(600):
        k = rng.randint(1, 6)
        deg = [rng.randint(0, k - 1) for _ in range(k)]
        if rng.random() < 0.2:
            deg[rng.randrange(k)] = rng.choice((-1, k))
        fam = _same_family(primes[:k], deg)
        sizes["empty" if fam.feasible else "infeasible"] += not fam.graphs
    assert sizes["feasible"] == 200
    assert sizes["empty"] > 50 and sizes["infeasible"] > 200


def test_enumeration_needs_ascending_primes():
    with pytest.raises(ValueError):
        enumerate_with_pattern((3, 2), (1, 1))
    with pytest.raises(ValueError):
        enumerate_with_pattern((2, 2), (1, 1))
    with pytest.raises(ValueError, match="one length"):
        enumerate_with_pattern((2, 3, 5), (1, 1))


def test_enumeration_deterministic():
    a = enumerate_with_pattern((2, 3, 5, 13, 31, 37), (3, 3, 3, 1, 3, 1))
    b = enumerate_with_pattern((2, 3, 5, 13, 31, 37), (3, 3, 3, 1, 3, 1))
    assert a.graphs == b.graphs


def test_family_members_share_edge_tuples():
    """Members of one family share each edge tuple."""
    fam = enumerate_with_pattern((2, 3, 5, 13, 31, 37), (3, 3, 3, 1, 3, 1))
    first = {}
    for g in fam.graphs:
        for e in g.edges:
            assert first.setdefault(e, e) is e


def _spectrum_members():
    """(label, GK(S)) for each member S of S_p, p <= 97, with a spectrum."""
    out = []
    for p in primes_upto(97)[2:]:
        for g in enumerate_S_p(p):
            try:
                out.append((g.label(), build_gk(order_of(g), spectrum_of(g))))
            except ParameterError:
                continue
    return out


def test_every_spectrum_member_of_s_p_is_in_its_family(monkeypatch):
    """Each family holds GK(S), and only it iff GK(S) is threshold, which
    an independent peel decides.  A5-A100 (up to 25 vertices) have
    threshold graphs, so each family is [GK(A_n)].  No search takes more
    steps than U4(31)'s 2,855, and the neighbour-set search agrees on
    every family."""
    members = _spectrum_members()
    alternating = [label for label, _ in members if label.startswith("A")]
    assert alternating == [f"A{n}" for n in range(5, 101)]
    monkeypatch.setattr(verifier, "MAX_SEARCH_STEPS", 2855)
    for label, gk in members:
        fam = _same_family(gk.vertices, degree_pattern(gk).degrees)
        assert gk in fam.graphs, label
        assert (len(fam) == 1) == is_threshold(gk), label
        if label.startswith("A"):
            assert fam.graphs == (gk,), label


def test_threshold_graphs_are_their_whole_family(monkeypatch):
    """A threshold graph, built by adding each vertex isolated or
    dominating, is the one graph of its pattern, found in at most k + 1
    steps on k vertices."""
    rng = random.Random(20261022)
    primes = primes_upto(173)
    for _ in range(150):
        k = rng.randint(2, 40)
        order = rng.sample(range(k), k)
        edges = []
        for n, v in enumerate(order):
            if rng.random() < 0.5:
                edges += [(primes[min(u, v)], primes[max(u, v)]) for u in order[:n]]
        g = PrimeGraph.from_edges(primes[:k], edges)
        assert is_threshold(g)
        monkeypatch.setattr(verifier, "MAX_SEARCH_STEPS", k + 1)
        fam = enumerate_with_pattern(g.vertices, degree_pattern(g).degrees)
        assert fam.graphs == (g,)


def test_step_bound_counts_partial_assignments(monkeypatch):
    """U4(31) takes 2,855 steps; a threshold pattern on k vertices at
    most k + 1."""
    u4 = TABLE1_FAMILIES[3][1:3]
    monkeypatch.setattr(verifier, "MAX_SEARCH_STEPS", 2855)
    assert len(enumerate_with_pattern(*u4)) == 921
    monkeypatch.setattr(verifier, "MAX_SEARCH_STEPS", 2854)
    with pytest.raises(ParameterError, match="MAX_SEARCH_STEPS = 2854"):
        enumerate_with_pattern(*u4)
    gk = gk_of("A100")
    monkeypatch.setattr(verifier, "MAX_SEARCH_STEPS", len(gk.vertices) + 1)
    assert enumerate_with_pattern(gk.vertices, degree_pattern(gk).degrees).graphs == (gk,)


@pytest.mark.parametrize("degree", [2, 3, 4])
def test_regular_patterns_on_ten_vertices_stop_at_the_bound(degree):
    """(3,)*10 has 11,180,820 labelled graphs; the search stops at
    MAX_SEARCH_STEPS instead of building them."""
    start = time.perf_counter()
    with pytest.raises(ParameterError, match="MAX_SEARCH_STEPS"):
        enumerate_with_pattern(primes_upto(29), (degree,) * 10)
    assert time.perf_counter() - start < 1.0


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_complete_pattern_needs_no_recursion():
    """A complete pattern on 300 vertices under a recursion limit that a
    search recursing once per vertex would pass."""
    primes = primes_upto(2000)[:300]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 50)
    try:
        fam = enumerate_with_pattern(primes, (299,) * 300)
    finally:
        sys.setrecursionlimit(limit)
    assert len(fam) == 1 and len(fam.graphs[0].edges) == 300 * 299 // 2


# ---------------------------------------------------------------------------
# criterion and filter

def test_vasiliev_u4_31():
    res = vasiliev_applicable(gk_of("U4(31)"))
    assert res.applicable
    assert res.t == 3 and res.t_witness == (7, 13, 31)
    assert res.t2 == 2 and res.t2_witness == (2, 13)


def test_vasiliev_complete_graph_fails():
    k3 = PrimeGraph.from_edges((2, 3, 5), [(2, 3), (2, 5), (3, 5)])
    res = vasiliev_applicable(k3)
    assert not res.applicable and res.t == 1


def test_vasiliev_requires_vertex_two():
    with pytest.raises(ParameterError):
        vasiliev_applicable(PrimeGraph.from_edges((3, 5), [(3, 5)]))


def test_s4_31_alternatives_all_applicable():
    fam = enumerate_with_pattern((2, 3, 5, 13, 31, 37), (3, 3, 3, 1, 3, 1))
    alts = [g for g in fam.graphs if not g.has_edge(13, 37)]
    assert len(alts) == 12
    for g in alts:
        res = vasiliev_applicable(g)
        assert res.applicable
        assert 13 in res.t_witness and 37 in res.t_witness


def _s37_orders():
    return {P: order_of(P) for P in enumerate_S_p(37)}


def test_candidate_filter_singletons():
    cases = [
        ((7, 13, 19, 37), "U3(27)", ["U3(27)"]),
        ((7, 19, 37), "U4(31)", ["U4(31)"]),
        ((13, 31, 37), "S4(31)", ["S4(31)"]),
        ((37,), "L2(37)", ["L2(37)"]),
    ]
    for pi, against, expected in cases:
        got = candidate_filter(order_of(parse_label(against)), pi, _s37_orders())
        assert [g.label() for g in got] == expected


def test_candidate_filter_divides_constraint_matters():
    # U3(27) satisfies the divisor 7^2*19*37 but its order does not divide
    # |U4(31)| (3^9 does not divide 3^2), so only the divides-side keeps the
    # U4(31) filter a singleton
    m = order_of(parse_label("U4(31)")).restrict((7, 19, 37))
    assert str(m) == "7^2·19·37"
    assert m.divides(order_of(parse_label("U3(27)")))
    assert not order_of(parse_label("U3(27)")).divides(
        order_of(parse_label("U4(31)")))


def test_candidate_filter_g2_11_needs_degree_lift():
    # order divisibility alone leaves two candidates; the degree-lift in
    # verify_case eliminates L2(1331)
    got = candidate_filter(order_of(parse_label("G2(11)")), (7, 19, 37),
                           _s37_orders())
    assert [g.label() for g in got] == ["L2(1331)", "G2(11)"]


def test_candidate_filter_divisor_skips_out_primes():
    """Only the primes of pi outside out_primes(P) must divide |P| to
    their full power in |S|: 2 is an Out prime of every candidate, so
    with pi = {2} nothing is required and L2(961) passes beside S4(31)."""
    order = order_of(parse_label("S4(31)"))
    got = candidate_filter(order, (2,), _s37_orders())
    assert [g.label() for g in got] == ["L2(961)", "S4(31)"]


# ---------------------------------------------------------------------------
# full cases

@pytest.mark.parametrize("label,family_size,alt_count", [
    ("S4(31)", 13, 12),
    ("U3(27)", 17, 16),
    ("G2(11)", 30, 29),
    ("U4(31)", 921, 921),
])
def test_verify_case_verified(label, family_size, alt_count):
    rep = verify_case(label)
    assert rep.verdict == VERIFIED
    assert rep.family_size == family_size
    assert rep.alternatives["count"] == alt_count
    assert rep.alternatives["all_vasiliev_applicable"]
    assert rep.alternatives["min_t"] >= 3
    assert rep.alternatives["min_t2"] >= 2
    if label == "U4(31)":
        assert rep.pivot is None and rep.forced is None
    else:
        assert rep.forced == {"count": 1, "all_equal_gk": True}
    assert rep.filter["survivors"] == [label]
    assert rep.filter["unchecked"] == []
    assert rep.assumed_facts
    assert rep.catalog_check["agrees_with_published"]


def test_verify_case_g2_11_filter_details():
    rep = verify_case("G2(11)")
    assert rep.filter["divisibility"] == ["L2(1331)", "G2(11)"]
    assert rep.filter["survivors"] == ["G2(11)"]


@pytest.mark.parametrize("label", ["S4(31)", "U3(27)", "G2(11)", "U4(31)"])
def test_out_primes_covering_pi_fails_filter(label, monkeypatch):
    """Where every prime of pi may divide |Out(P)|, no prime of |S| is
    required of a candidate, so more than S passes the filter."""
    monkeypatch.setattr("gkod.verifier.out_primes",
                        lambda P: frozenset(CASE_PI[label]))
    rep = verify_case(label)
    assert rep.verdict == "failed(filter)"
    assert label in rep.filter["divisibility"]
    assert len(rep.filter["divisibility"]) > 1


def test_verify_case_tampered_pattern_fails_enumeration(monkeypatch):
    monkeypatch.setattr("gkod.verifier.degree_pattern",
                        lambda gk: SimpleNamespace(degrees=(3, 2, 3, 2, 1, 0)))
    rep = verify_case("U3(27)")
    assert rep.verdict == "failed(enumeration)"


# the least subsets of each paper pi for which the filter leaves exactly [S]
LEAST_PI = {
    "S4(31)": {31},
    "U3(27)": {7},
    "G2(11)": {7, 37},
    "U4(31)": {7, 37},
}


@pytest.mark.parametrize("label", sorted(LEAST_PI))
def test_verdict_needs_a_least_pi(label, monkeypatch):
    """Over every nonempty subset of the paper's pi, the case verifies
    exactly when the subset contains the least set."""
    paper_pi = CASE_PI[label]
    for r in range(1, len(paper_pi) + 1):
        for pi in itertools.combinations(paper_pi, r):
            monkeypatch.setitem(CASE_PI, label, pi)
            rep = verify_case(label)
            assert (rep.verdict == VERIFIED) == (LEAST_PI[label] <= set(pi)), pi


@pytest.mark.parametrize("label,count", [
    ("S4(31)", 7), ("U3(27)", 9), ("G2(11)", 18), ("U4(31)", 21),
])
def test_pi_two_fails_filter(label, count, monkeypatch):
    """2 is an Out prime of every candidate, so a radical that avoids
    only the prime 2 requires nothing of |P|: every simple group whose
    order divides |S| passes divisibility."""
    monkeypatch.setitem(CASE_PI, label, (2,))
    rep = verify_case(label)
    assert rep.verdict == "failed(filter)"
    assert len(rep.filter["divisibility"]) == count


def test_u4_31_without_37_keeps_u3_31(monkeypatch):
    """With pi = {7, 19}, U3(31), of characteristic 31 and so outside S_37,
    passes the filter beside U4(31)."""
    monkeypatch.setitem(CASE_PI, "U4(31)", (7, 19))
    rep = verify_case("U4(31)")
    assert rep.verdict == "failed(filter)"
    assert "U3(31)" in rep.filter["survivors"]


@pytest.mark.parametrize("label", sorted(CASE_PI))
def test_case_primes_within_characteristic_bound(label):
    """The filter's catalog is complete because each prime l of |S| is at
    most CHARACTERISTIC_BOUND, up to which enumerate_S_p(l) is complete."""
    assert order_of(parse_label(label)).primes()[-1] <= CHARACTERISTIC_BOUND


def test_verify_case_unknown_group():
    with pytest.raises(ValueError):
        verify_case("L2(37)")


@pytest.mark.parametrize("label,pivot", [
    ("S4(31)", (13, 37)),
    ("U3(27)", (19, 37)),
    ("G2(11)", (7, 19)),
    ("U4(31)", None),
])
def test_derived_pivots(label, pivot):
    gk = gk_of(label)
    family = enumerate_with_pattern(gk.vertices, degree_pattern(gk).degrees)
    assert forcing_pivot(gk, family) == pivot
    assert verify_case(label).pivot == pivot


def test_forcing_pivot_needs_gk_in_family():
    gk = gk_of("U3(27)")
    without = enumerate_with_pattern(gk.vertices, (3, 3, 3, 3, 2, 2))
    assert len(without) > 0
    assert gk not in without.graphs
    assert forcing_pivot(gk, without) is None


def test_verify_case_non_forcing_pivot_fails_forced(monkeypatch):
    # 2 ~ 3 is an edge of GK(S4(31)), but 11 family members carry it
    monkeypatch.setattr("gkod.verifier.forcing_pivot", lambda gk, family: (2, 3))
    rep = verify_case("S4(31)")
    assert rep.verdict == "failed(forced)"
    assert rep.forced == {"count": 11, "all_equal_gk": False}


def test_report_json_schema_and_determinism():
    rep1 = verify_case("S4(31)").to_json_dict()
    rep2 = verify_case("S4(31)").to_json_dict()
    assert rep1 == rep2
    assert rep1["v"] == 1
    assert set(rep1) == {"v", "group", "pivot", "forced", "alternatives",
                         "filter", "catalog_check", "verdict", "assumed_facts"}
    text = json.dumps(rep1, sort_keys=True)
    assert json.loads(text) == rep1
    assert rep1["pivot"] == [13, 37]
    assert rep1["alternatives"]["count"] == 12
