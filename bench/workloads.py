"""The benchmark workloads, driven through gkod's public functions.

A workload is made of parts, and each part turns the pass's random
generator into named operations; the inputs are fixed before timing
starts.  An operation returns a raw answer, which its converter turns into
the JSON value compared with the reference after the timed pass.  Spans go
around every call into a gkod layer; with the null tracer they record
nothing.
"""

import contextlib
import hashlib
import io
import json
import random
import resource
import time
from functools import partial
from math import factorial

from gkod import arith, catalog, cli, graph, oracle, spectra, verifier
from gkod.catalog import GroupId

ORDER_FACTOR_BOUND = 10**4

# (name, builder, builder args, closed form, q); SU4_3 and SP4_5 are left
# out because one pass of either takes minutes (see README.md)
MATRIX_TARGETS = (
    ("SL2_4", oracle.sl2_group, (4,), spectra.mu_L2, 4),
    ("SL2_5", oracle.sl2_group, (5,), spectra.mu_L2, 5),
    ("SL2_7", oracle.sl2_group, (7,), spectra.mu_L2, 7),
    ("SL2_9", oracle.sl2_group, (9,), spectra.mu_L2, 9),
    ("SL2_13", oracle.sl2_group, (13,), spectra.mu_L2, 13),
    ("SL2_37", oracle.sl2_group, (37,), spectra.mu_L2, 37),
    ("SU3_3", oracle.su_group, (3, 3), spectra.mu_U3, 3),
    ("SU3_5", oracle.su_group, (3, 5), spectra.mu_U3, 5),
)
PERM_DEGREES = range(5, 10)
# up to 40: one call at n = 41..50 runs 0.15-1 s of interpreter-bound
# recursion, which host contention slowed by up to 70% for minutes at a time
ALT_DEGREES = range(5, 41)
CATALOG_PRIMES = tuple(p for p in range(5, 98) if all(p % d for d in range(2, p)))

# the four groups of Table 1 with their prime sets and degree patterns
CASES = (
    ("S4(31)", (2, 3, 5, 13, 31, 37), (3, 3, 3, 1, 3, 1)),
    ("U3(27)", (2, 3, 7, 13, 19, 37), (3, 2, 3, 2, 1, 1)),
    ("G2(11)", (2, 3, 5, 7, 11, 19, 37), (3, 4, 3, 1, 3, 1, 1)),
    ("U4(31)", (2, 3, 5, 7, 13, 19, 31, 37), (5, 5, 5, 2, 3, 2, 3, 3)),
)


def _order_of(g, tr):
    """order_of(g), split into its catalog and arith halves when traced."""
    if not tr.enabled:
        return catalog.order_of(g)
    with tr.span("catalog.order_value"):
        n = catalog.order_value(g)
    with tr.span("arith.factorize"):
        f = arith.factorize(n, ORDER_FACTOR_BOUND)
    tr.count("arith.factorize_calls")
    tr.count("arith.factorize_complete", f.is_complete)
    return f


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# oracle-xcheck

def _matrix_target(name, build, args, formula, q, seed, tr):
    rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with tr.span("oracle.closure"):
        group = build(*args, seed=seed)
    with tr.span("oracle.scan"):
        mu = oracle.spectrum_mod_center(group)
    if name == "SU3_5":
        rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        tr.count("oracle.rss_step_kb", rss1 - rss0)
    tr.count("oracle.closure_elems", group.order)
    tr.count("oracle.closure_retries", len(group.generators) - 2)
    with tr.span("spectra.closed_form"):
        mu_f = formula(q)
    return {"enumerated": group.order, "mu": list(mu.mu),
            "formula": list(mu_f.mu)}


def _perm_target(n, tr):
    with tr.span("oracle.perm_scan"):
        mu = oracle.alternating_spectrum_bruteforce(n)
    tr.count("oracle.perm_count", factorial(n))
    with tr.span("spectra.alt"):
        mu_f = spectra.mu_alternating(n)
    tr.count("spectra.alt_mu_total", len(mu_f.mu))
    return {"enumerated": factorial(n) // 2, "mu": list(mu.mu),
            "formula": list(mu_f.mu)}


def oracle_ops(rng, ref):
    ops = []
    for name, build, args, formula, q in MATRIX_TARGETS:
        seed = rng.getrandbits(32)
        ops.append((f"oracle:{name}",
                    partial(_matrix_target, name, build, args, formula, q, seed)))
    for n in PERM_DEGREES:
        ops.append((f"oracle:A{n}", partial(_perm_target, n)))
    return ops


# ---------------------------------------------------------------------------
# alt-spectra

def _alt_degree(g, tr):
    with tr.span("spectra.alt"):
        mu = spectra.mu_alternating(g.n)
    tr.count("spectra.alt_mu_total", len(mu.mu))
    order = _order_of(g, tr)
    with tr.span("graph.build"):
        gk = graph.build_gk(order, mu)
    tr.count("graph.edges_total", len(gk.edges))
    return {"mu": list(mu.mu), "order": str(order),
            "edges": [list(e) for e in gk.edges]}


def alt_ops(rng, ref):
    degrees = list(ALT_DEGREES)
    rng.shuffle(degrees)
    return [(f"A{n}", partial(_alt_degree, GroupId("A", n=n))) for n in degrees]


# ---------------------------------------------------------------------------
# catalog-cases

def _enumerate(p, tr):
    with tr.span("catalog.enumerate"):
        groups = catalog.enumerate_S_p(p)
    tr.count("catalog.enumerate_found", len(groups))
    return [g.label() for g in groups]


def _verify(label, tr):
    with tr.span("verifier.case"):
        report = verifier.verify_case(label)
    return report.to_json_dict()


def _pattern(primes, degrees, tr):
    with tr.span("verifier.pattern_enum"):
        family = verifier.enumerate_with_pattern(primes, degrees)
    tr.count("verifier.family_graphs", len(family))
    return {"feasible": family.feasible, "size": len(family),
            "digest": _digest([g.edges for g in family.graphs])}


def _table1(tr):
    out = io.StringIO()
    with tr.span("cli.table1"), contextlib.redirect_stdout(out):
        code = cli.main(["table1"])
    text = out.getvalue()
    tr.count("cli.bytes_out", len(text.encode()))
    return {"exit": code, "stdout": text}


def catalog_ops(rng, ref):
    primes = list(CATALOG_PRIMES)
    cases = list(CASES)
    rng.shuffle(primes)
    rng.shuffle(cases)
    ops = [(f"enumerate:{p}", partial(_enumerate, p)) for p in primes]
    ops += [(f"verify:{label}", partial(_verify, label)) for label, _, _ in cases]
    ops += [(f"pattern:{label}", partial(_pattern, ps, degrees))
            for label, ps, degrees in cases]
    ops.append(("table1", _table1))
    return ops


# ---------------------------------------------------------------------------
# graph-queries

def _graph_query(g, tr):
    order = _order_of(g, tr)
    with tr.span("spectra.closed_form"):
        mu = spectra.spectrum_of(g)
    with tr.span("graph.build"):
        gk = graph.build_gk(order, mu)
    tr.count("graph.edges_total", len(gk.edges))
    with tr.span("graph.stats"):
        dp = graph.degree_pattern(gk)
        comps = graph.components(gk, order)
        t = graph.independence(gk)
        t2 = graph.independence_at(gk, 2)
        dec = graph.suzuki_decomposition(gk)
    with tr.span("graph.render"):
        dot = graph.to_dot(gk)
        js = json.dumps({"group": g.label(), "graph": gk.json_dict(),
                         "degree_pattern": dp.json_dict(),
                         "order_components": comps.json_dict()},
                        sort_keys=True, indent=2)
    return dp, comps, t, t2, dec, dot, js


def _graph_answer(raw):
    dp, comps, t, t2, dec, dot, js = raw
    return _digest([list(dp.degrees), comps.json_dict(), t, t2,
                    [dec.ok, dec.clique_sizes, dec.violation], dot, js])


def graph_queries(max_q=6000):
    """The query set: every L2, U3, U4, S4 and G2 group with q < max_q that
    has a closed-form spectrum and an order factoring below 10^4."""
    qs = [q for q in range(2, max_q) if arith.prime_power(q)]
    out = []
    for family, n in (("L", 2), ("U", 3), ("U", 4), ("S", 4), ("G2", None)):
        for q in qs:
            g = GroupId(family, n=n, q=q)
            try:
                spectra.spectrum_of(g)
            except (spectra.UnsupportedParameterError, catalog.ParameterError):
                continue
            if catalog.order_of(g).is_complete:
                out.append(g)
    return out


def graph_ops(rng, ref):
    order = [GroupId(*q) for q in ref["queries"]]
    rng.shuffle(order)
    return [(g.label(), partial(_graph_query, g)) for g in order]


# ---------------------------------------------------------------------------

def _same(raw):
    return raw


# part: (operations from (rng, reference), raw answer -> JSON value)
PARTS = {
    "oracle-xcheck": (oracle_ops, _same),
    "alt-spectra": (alt_ops, _same),
    "catalog-cases": (catalog_ops, _same),
    "graph-queries": (graph_ops, _graph_answer),
}
# Two workloads of two parts each, so that a run of a fixed length holds as
# many passes as possible while every layer is still measured on one of them
WORKLOADS = {
    "oracle-alt": ("oracle-xcheck", "alt-spectra"),
    "catalog-graph": ("catalog-cases", "graph-queries"),
}


def ops(parts, rng, ref):
    """``(answer name, op(tracer), converter)`` for every part, in order."""
    return [(name, op, PARTS[part][1])
            for part in parts for name, op in PARTS[part][0](rng, ref)]


def pass_rng(workload: str, seed: int, pass_index: int) -> random.Random:
    """Input generator of one pass: the same seed gives the same inputs."""
    return random.Random(f"{workload}:{seed}:{pass_index}")


def run_ops(ops, tr):
    """Run the operations in order.

    Returns the raw answers, the exceptions raised and the seconds each
    operation took, all by answer name.  An operation that raises is
    recorded and the pass goes on; the gate counts it as a failed answer.
    """
    raw, raised, seconds = {}, {}, {}
    for name, op, _ in ops:
        t0 = time.perf_counter()
        try:
            raw[name] = op(tr)
        except Exception as exc:  # noqa: BLE001 -- reported as a failed answer
            raised[name] = f"{type(exc).__name__}: {exc}"
        seconds[name] = time.perf_counter() - t0
    return raw, raised, seconds


def answers(ops, raw):
    """The JSON values of the raw answers, for the gate."""
    return {name: convert(raw[name]) for name, _, convert in ops if name in raw}
