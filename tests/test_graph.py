import json
import random

import pytest
from oracle_ref import (
    adjacency,
    bitmasks,
    build_gk_edge_set,
    build_gk_pq,
    connected_components_dfs,
    degree_classes,
    edge_set,
    factorize_trial,
    graph_equivalent_under_closure,
    lex_least_witness_scan,
    suzuki_decomposition_dfs,
)

from gkod.arith import (
    Factorization,
    divisor_closure,
    factorize,
    next_prime_after,
    parse_factorization,
    prime_power,
    primes_upto,
)
from gkod.catalog import (
    GroupId,
    ParameterError,
    order_of,
    order_value,
    parse_label,
    s37_reference,
)
from gkod.graph import (
    CauchyConsistencyError,
    DegreePattern,
    PrimeGraph,
    build_gk,
    components,
    degree_pattern,
    independence,
    independence_at,
    suzuki_decomposition,
    to_dot,
)
from gkod.spectra import mu_alternating, spectrum_of

# frozen from the published figure of the four prime graphs
FIG_EDGES = {
    "S4(31)": ((2, 3), (2, 5), (2, 31), (3, 5), (3, 31), (5, 31), (13, 37)),
    "U3(27)": ((2, 3), (2, 7), (2, 13), (3, 7), (7, 13), (19, 37)),
    "G2(11)": ((2, 3), (2, 5), (2, 11), (3, 5), (3, 11), (3, 37), (5, 11),
               (7, 19)),
    "U4(31)": ((2, 3), (2, 5), (2, 7), (2, 19), (2, 31), (3, 5), (3, 13),
               (3, 31), (3, 37), (5, 13), (5, 31), (5, 37), (7, 19), (13, 37)),
}

TABLE_PATTERNS = {
    "S4(31)": (3, 3, 3, 1, 3, 1),
    "U3(27)": (3, 2, 3, 2, 1, 1),
    "G2(11)": (3, 4, 3, 1, 3, 1, 1),
    "U4(31)": (5, 5, 5, 2, 3, 2, 3, 3),
}


def gk_of(label):
    g = parse_label(label)
    return build_gk(order_of(g), spectrum_of(g))


@pytest.mark.parametrize("label", sorted(FIG_EDGES))
def test_figure_edge_sets(label):
    assert gk_of(label).edges == FIG_EDGES[label]


@pytest.mark.parametrize("label", sorted(TABLE_PATTERNS))
def test_table_degree_patterns(label):
    assert degree_pattern(gk_of(label)).degrees == TABLE_PATTERNS[label]


def test_build_gk_single_prime():
    g = build_gk(Factorization(((7, 1),)), [7])
    assert g.vertices == (7,) and g.edges == ()


def test_build_gk_cauchy_violation_names_prime():
    with pytest.raises(CauchyConsistencyError) as err:
        build_gk(parse_factorization("2·3"), [2])
    assert err.value.prime == 3
    with pytest.raises(CauchyConsistencyError) as err:
        build_gk(parse_factorization("2·3"), [2, 3, 5])
    assert err.value.prime == 5


def test_build_gk_rejects_nonpositive_member():
    for m in (0, -6):
        with pytest.raises(ValueError):
            build_gk(parse_factorization("2·3"), [2, 3, m])


def test_degree_pattern_edgeless():
    g = PrimeGraph.from_edges((2, 3, 5), [])
    assert degree_pattern(g).degrees == (0, 0, 0)


def test_degree_pattern_validation():
    with pytest.raises(ValueError):
        DegreePattern((2, 3), (1, 0))  # handshake violated
    with pytest.raises(ValueError):
        DegreePattern((2, 3), (2, 2))  # degree above k-1
    with pytest.raises(ValueError):
        DegreePattern((2, 3, 5), (1, 1, 1))  # odd degree sum
    with pytest.raises(ValueError):
        DegreePattern((2, 3, 5), (3, 1, -2))  # even sum, degrees out of range


@pytest.mark.parametrize("vertices,edges", [
    ((3, 2, 5), ((2, 3),)),              # vertices not ascending
    ((2, 3, 3), ((2, 3),)),              # repeated vertex
    ((2, 3, 5), ((2, 7),)),              # edge to an unknown vertex
    ((2, 3, 5), ((2, 3), (2, 3))),       # duplicate edge
    ((2, 3, 5), ((3, 2),)),              # edge not normalized
    ((2, 3, 5), ((3, 5), (2, 3))),       # edges not sorted
])
def test_prime_graph_constructor_checks(vertices, edges):
    with pytest.raises(ValueError):
        PrimeGraph(vertices, edges)


def test_built_values_pass_the_public_checks():
    """What build_gk, degree_pattern and components build without the
    constructor checks would pass them."""
    for label in sorted(FIG_EDGES) + ["A40", "A100"]:
        g = parse_label(label)
        order = order_of(g)
        gk = build_gk(order, spectrum_of(g))
        assert gk == PrimeGraph(gk.vertices, gk.edges)
        dp = degree_pattern(gk)
        assert dp == DegreePattern(dp.primes, dp.degrees)
        for ps, m in components(gk, order).components:
            assert m == Factorization(m.factors) == factorize(m.value(), 10**4)


def test_components_s4_31():
    label = "S4(31)"
    oc = components(gk_of(label), order_of(parse_label(label)))
    assert [ps for ps, _ in oc.components] == [(2, 3, 5, 31), (13, 37)]
    assert oc.components[1][1].value() == 481


def test_components_g2_11():
    oc = components(gk_of("G2(11)"), order_of(parse_label("G2(11)")))
    assert [ps for ps, _ in oc.components] == [(2, 3, 5, 11, 37), (7, 19)]


def test_components_u4_31_connected():
    oc = components(gk_of("U4(31)"), order_of(parse_label("U4(31)")))
    assert oc.count == 1


def test_components_odd_order_convention():
    # no vertex 2: components simply ordered by least prime
    g = PrimeGraph.from_edges((3, 5, 7, 11), [(5, 11)])
    oc = components(g, parse_factorization("3·5·7·11"))
    assert [ps for ps, _ in oc.components] == [(3,), (5, 11), (7,)]


def test_components_coprime_and_product():
    for label in sorted(FIG_EDGES):
        order = order_of(parse_label(label))
        oc = components(gk_of(label), order)
        prod = Factorization(())
        for ps, m in oc.components:
            prod = prod * m
        assert prod == order
        primes_seen = [p for ps, _ in oc.components for p in ps]
        assert sorted(primes_seen) == list(order.primes())


def test_independence_examples():
    t, w = independence(gk_of("U4(31)"))
    assert (t, w) == (3, (7, 13, 31))
    t2, w2 = independence_at(gk_of("U3(27)"), 2)
    assert (t2, w2) == (2, (2, 19))
    k4 = PrimeGraph.from_edges((2, 3, 5, 7),
                               [(2, 3), (2, 5), (2, 7), (3, 5), (3, 7), (5, 7)])
    assert independence(k4) == (1, (2,))


def _witness_parity(g):
    t, w = independence(g)
    assert w == lex_least_witness_scan(g, t)
    assert lex_least_witness_scan(g, t + 1) is None
    for r in g.vertices:
        tr, wr = independence_at(g, r)
        assert wr == lex_least_witness_scan(g, tr, force=r)
        assert lex_least_witness_scan(g, tr + 1, force=r) is None


def test_witness_matches_combination_scan_on_paper_graphs():
    labels = set(FIG_EDGES) | set(TABLE_PATTERNS)
    labels |= {g.label() for g in s37_reference()
               if g.family in ("A", "L", "U", "S", "G2")}
    for label in sorted(labels):
        _witness_parity(gk_of(label))


def test_witness_matches_combination_scan_on_random_graphs():
    rng = random.Random(20261018)
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for _ in range(3000):
        vs = primes[:rng.randint(1, 12)]
        density = rng.random()
        edges = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:]
                 if rng.random() < density]
        _witness_parity(PrimeGraph.from_edges(vs, edges))


def test_independence_at_requires_vertex():
    with pytest.raises(ValueError):
        independence_at(gk_of("S4(31)"), 11)


def test_independence_at_bounded_by_independence():
    for label in sorted(FIG_EDGES):
        g = gk_of(label)
        t, _ = independence(g)
        for r in g.vertices:
            tr, wr = independence_at(g, r)
            assert tr <= t and r in wr


def test_t_at_least_component_count():
    for label in sorted(FIG_EDGES):
        g = gk_of(label)
        t, _ = independence(g)
        s = components(g, order_of(parse_label(label))).count
        assert t >= s


def test_suzuki_decomposition():
    assert suzuki_decomposition(gk_of("S4(31)")).clique_sizes == (2,)
    assert suzuki_decomposition(gk_of("G2(11)")).clique_sizes == (2,)
    assert suzuki_decomposition(gk_of("U4(31)")).clique_sizes == ()
    bad = PrimeGraph.from_edges((2, 3, 5, 7, 11), [(2, 3), (5, 7), (7, 11)])
    dec = suzuki_decomposition(bad)
    assert not dec.ok and dec.violation == (5, 11)


def test_suzuki_across_catalog():
    for g in s37_reference():
        if g.label() == "2G2(27)":
            continue
        assert suzuki_decomposition(build_gk(order_of(g), spectrum_of(g))).ok


def test_degree_classes_g2_11():
    dc = degree_classes(gk_of("G2(11)"))
    assert dc.classes == {1: (7, 19, 37), 3: (2, 5, 11), 4: (3,)}
    assert dc.isolated_bound_ok


def test_degree_classes_edgeless():
    dc = degree_classes(PrimeGraph.from_edges((2, 3), []))
    assert dc.classes == {0: (2, 3)}
    assert dc.component_count == 2 and dc.isolated_bound_ok


def test_degree_classes_u4_31():
    dc = degree_classes(gk_of("U4(31)"))
    assert dc.classes[5] == (2, 3, 5)
    assert 7 not in dc.classes  # no vertex of full degree on 8 vertices
    assert dc.component_count == 1
    assert dc.full_degree_implies_connected


def test_handshake():
    for label in sorted(FIG_EDGES):
        g = gk_of(label)
        assert sum(degree_pattern(g).degrees) == 2 * len(g.edges)


def test_to_dot():
    single = to_dot(PrimeGraph.from_edges((2,), []))
    assert single == "graph GK {\n  2;\n}\n"
    dot = to_dot(gk_of("S4(31)"))
    assert dot.count(" -- ") == 7
    assert "  19 -- 37;" in to_dot(gk_of("U3(27)"))
    assert to_dot(gk_of("U3(27)")) == to_dot(gk_of("U3(27)"))


def test_mu_vs_omega_edge_equivalence():
    for label in sorted(FIG_EDGES):
        order = order_of(parse_label(label))
        mu = spectrum_of(parse_label(label))
        assert graph_equivalent_under_closure(order, mu)


def test_mu_vs_omega_randomized():
    rng = random.Random(20260811)
    primes = (2, 3, 5, 7, 11, 13)
    for _ in range(50):
        chosen = rng.sample(primes, rng.randint(2, 6))
        mu = set()
        order = Factorization(())
        for p in chosen:
            order = order * Factorization(((p, rng.randint(1, 3)),))
        for _ in range(rng.randint(1, 5)):
            m = 1
            for p in chosen:
                if rng.random() < 0.5:
                    m *= p
            mu.add(m)
        mu.update(p for p in chosen)  # guarantee full support
        assert graph_equivalent_under_closure(order, sorted(mu))
        g1 = build_gk(order, sorted(mu))
        g2 = build_gk(order, divisor_closure(mu))
        assert g1.edges == g2.edges


def test_json_dicts():
    g = gk_of("U3(27)")
    gd = g.json_dict()
    assert gd == {"vertices": [2, 3, 7, 13, 19, 37],
                  "edges": [[2, 3], [2, 7], [2, 13], [3, 7], [7, 13], [19, 37]]}
    dp = degree_pattern(g).json_dict()
    assert dp == {"degrees": [3, 2, 3, 2, 1, 1],
                  "primes": [2, 3, 7, 13, 19, 37]}
    oc = components(g, order_of(parse_label("U3(27)"))).json_dict()
    assert oc["components"][1] == {"order": [[19, 1], [37, 1]],
                                   "primes": [19, 37]}
    json.dumps([gd, dp, oc])  # serializable


# ---------------------------------------------------------------------------
# parity with the paths that the one-factorization build and the bitmask
# adjacency replaced (tests/oracle_ref.py)

def _closed_form_groups(max_q):
    """Every L2, U3, U4, S4 and G2 group with q < max_q and a closed-form
    spectrum."""
    for family, n in (("L", 2), ("U", 3), ("U", 4), ("S", 4), ("G2", None)):
        for q in range(2, max_q):
            if not prime_power(q):
                continue
            g = GroupId(family, n=n, q=q)
            try:
                mu = spectrum_of(g)
            except ParameterError:
                continue
            yield g, mu


def test_closed_form_graphs_match_replaced_paths():
    checked = 0
    for g, mu in _closed_form_groups(2000):
        n = order_value(g)
        order = factorize(n, 10**4)
        assert order == factorize_trial(n, 10**4), g.label()
        if not order.is_complete:
            continue
        gk = build_gk(order, mu)
        assert gk == build_gk_pq(order, mu), g.label()
        assert list(gk.masks) == bitmasks(gk)
        adj = adjacency(gk)
        assert [gk.degree(v) for v in gk.vertices] == [len(adj[v]) for v in gk.vertices]
        assert list(gk.connected_components) == connected_components_dfs(gk)
        t, w = independence(gk)
        assert w == lex_least_witness_scan(gk, t), g.label()
        assert lex_least_witness_scan(gk, t + 1) is None
        t2, w2 = independence_at(gk, 2)
        assert w2 == lex_least_witness_scan(gk, t2, force=2), g.label()
        assert lex_least_witness_scan(gk, t2 + 1, force=2) is None
        assert suzuki_decomposition(gk) == suzuki_decomposition_dfs(gk), g.label()
        checked += 1
    assert checked > 900


def test_has_edge_matches_edge_set_on_random_graphs():
    rng = random.Random(20261019)
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23)
    for _ in range(300):
        vs = primes[:rng.randint(1, len(primes))]
        edges = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:]
                 if rng.random() < 0.4]
        g = PrimeGraph.from_edges(vs, edges)
        for p in primes + (1, 29):
            for q in primes + (1, 29):
                assert g.has_edge(p, q) == (tuple(sorted((p, q))) in edge_set(g))
        assert list(g.connected_components) == connected_components_dfs(g)
        assert suzuki_decomposition(g) == suzuki_decomposition_dfs(g)


def _factorize_cases(rng, bound):
    ps = primes_upto(bound)
    below = ps[-1]
    above = next_prime_after(bound)
    yield 1
    yield below
    yield above
    yield above**2
    yield below * above
    yield below**2 * above**3
    for _ in range(150):
        smooth = 1
        for _ in range(rng.randint(1, 12)):
            smooth *= rng.choice(ps) ** rng.randint(1, 4)
        yield smooth
        yield smooth * below
        yield smooth * above
        yield smooth * above**2
        yield smooth * next_prime_after(rng.randrange(bound, 50 * bound))
        yield smooth * next_prime_after(rng.randrange(bound, 50 * bound)) ** 2
        yield rng.randrange(1, 1 << rng.randint(1, 200))


@pytest.mark.parametrize("bound", [2, 3, 5, 37, 89, 97, 100, 2003, 10**4])
def test_factorize_matches_trial_division(bound):
    rng = random.Random(bound)
    for n in _factorize_cases(rng, bound):
        assert factorize(n, bound) == factorize_trial(n, bound), (n, bound)


def _cauchy_error(build, order, mu):
    with pytest.raises(CauchyConsistencyError) as err:
        build(order, mu)
    return err.value.prime, str(err.value)


@pytest.mark.parametrize("order,mu,prime", [
    ("2·3", [2 * 41, 3 * 43], 41),      # foreign primes in different members
    ("2·3", [2 * 43, 3 * 41], 41),      # the least one sits in the later member
    ("2·3", [2 * 43**2, 3 * 41 * 47], 41),
    ("2·3·5", [6], 5),                  # a prime of the order is missing
    ("2·3·5·7", [6, 7], 5),
    ("2·3", [2, 3 * 41], 41),           # foreign before missing
    ("2·3·5", [2 * 41], 41),
    ("2·3·5·7", [6], 5),                # two primes missing: the least
    ("2·3·5·7", [14], 3),
])
def test_cauchy_error_matches_pq_build(order, mu, prime):
    order = parse_factorization(order)
    got = _cauchy_error(build_gk, order, mu)
    assert got == _cauchy_error(build_gk_pq, order, mu)
    assert got == _cauchy_error(build_gk_edge_set, order, mu)
    assert got[0] == prime


def _same_graph(a, b):
    assert (a.vertices, a.edges, a.masks) == (b.vertices, b.edges, b.masks)
    assert a == b and hash(a) == hash(b)


def test_mask_build_matches_edge_set_build():
    """The mask-built graph equals the one built from a sorted, checked edge
    set, masks and hash included, on every closed-form group with q < 6000
    whose order factors below 10^4 and on A5..A100."""
    checked = 0
    for g, mu in _closed_form_groups(6000):
        order = order_of(g)
        if order.is_complete:
            _same_graph(build_gk(order, mu), build_gk_edge_set(order, mu))
            checked += 1
    assert checked > 1900
    for n in range(5, 101):
        g = GroupId("A", n=n)
        order, mu = order_of(g), mu_alternating(n)
        _same_graph(build_gk(order, mu), build_gk_edge_set(order, mu))
