"""Mechanized combinatorial skeleton of the order/degree-pattern
uniqueness argument for S4(31), U3(27), G2(11) and U4(31).

For a hypothesized group G with |G| = |S| and D(G) = D(S) the verifier
enumerates every labeled graph consistent with the degree pattern, splits
on the pivot adjacency, checks the almost-simple reduction hypotheses
(t >= 3, t(2) >= 2) on every non-forced member, and applies the
order-divisibility filter over the computed catalog.  The enumeration is
bounded by its steps, MAX_SEARCH_STEPS partial assignments, not by a
vertex count: a threshold pattern, such as that of GK(A_n), has exactly
one realization (Fulkerson-Hoffman-McAndrew 1965; Hammer-Ibaraki-Simeone
1981) and is found without branching.  Each case is
configured by the primes pi its solvable radical must avoid; the rest is
derived: the pivot is the least edge of GK(S) whose presence forces a
family member to equal GK(S) (none for U4(31)), a candidate P must have
the part of |S| on pi minus out_primes(P), and the catalog is read off
pi(S).  Group theory (solvable radicals, |Out(P)|, order-component
characterizations) is not re-proved; reports list it under assumed_facts.
"""

import itertools
import operator
from functools import cache

from .arith import Factorization, Record
from .catalog import (
    GroupId,
    ParameterError,
    enumerate_S_p,
    order_of,
    out_primes,
    parse_label,
    s37_reference,
)
from .graph import (
    PrimeGraph,
    build_gk,
    degree_pattern,
    independence,
    independence_at,
)
from .spectra import spectrum_of

# partial assignments that enumerate_with_pattern may make: U4(31), the
# largest search among the members of S_p (p <= 97) with a spectrum, takes
# 2,855, and a threshold pattern on k vertices takes at most k + 1
MAX_SEARCH_STEPS = 2**16


class GraphFamily(Record):
    """All labeled graphs on the given primes realizing the degree pattern.

    feasible is False when no graph can exist for parity/range reasons; the
    enumeration is complete and duplicate-free otherwise.
    """

    primes: tuple
    pattern: tuple
    graphs: tuple
    feasible: bool

    def __len__(self):
        return len(self.graphs)


def enumerate_with_pattern(primes, pattern) -> GraphFamily:
    """Every labeled graph on the ascending primes with exactly the
    requested degree sequence.

    A depth-first search over a bitmask adjacency assigns the full
    neighborhood of one unfinished vertex at a time (vertices ordered by
    descending requested degree, then ascending prime; neighbors chosen in
    ascending prime order), which yields each graph exactly once in a
    deterministic order.  The search keeps an explicit stack of
    itertools.combinations frames, so no recursion limit applies, and each
    graph is built from its masks, its edges shared with the other members.

    Each partial assignment, the empty one included, is one step; past
    MAX_SEARCH_STEPS steps the search raises ParameterError.  A threshold
    pattern, one with a single labeled realization (Fulkerson-Hoffman-
    McAndrew 1965; Hammer-Ibaraki-Simeone 1981), takes at most k + 1 steps
    on k vertices: in a threshold graph a vertex of largest degree is
    adjacent to every vertex of nonzero degree, and what is left without
    it is threshold again, so each step has one choice.  GK(A_n) is
    threshold, as p ~ q iff w(p) + w(q) <= n with w(2) = 4 and w(p) = p
    otherwise, so A_n never branches.
    """
    primes, pattern = tuple(primes), tuple(pattern)
    if bad := [d for d in pattern if not hasattr(d, "__index__")]:
        raise ValueError(f"degree {bad[0]!r} is not an integer")
    pattern = tuple(map(operator.index, pattern))
    if len(primes) != len(pattern):
        raise ValueError("need prime and degree lists of one length")
    if list(primes) != sorted(set(primes)):
        raise ValueError("primes must be strictly increasing")
    k = len(primes)
    if sum(pattern) % 2 or any(not 0 <= d <= k - 1 for d in pattern):
        return GraphFamily(primes, pattern, (), False)

    order = sorted(range(k), key=lambda i: -pattern[i])  # stable: ties by prime
    shared = [{} for _ in primes]  # the family's edge tuples, by vertex
    remaining = list(pattern)
    masks = [0] * k
    out = []
    stack = []  # [vertex, its degree, its combinations, the applied one]
    for _ in range(MAX_SEARCH_STEPS):
        v = next((i for i in order if remaining[i]), None)
        if v is None:
            out.append(PrimeGraph._from_masks(primes, tuple(masks), shared))
        else:
            need, remaining[v] = remaining[v], 0
            cands = [w for w in range(k) if remaining[w] and not masks[v] >> w & 1]
            stack.append([v, need, itertools.combinations(cands, need), ()])
        # undo the deepest applied neighborhood and apply its successor,
        # popping each frame whose combinations are spent
        while stack:
            frame = stack[-1]
            v, need, combos, chosen = frame
            for w in chosen:
                remaining[w] += 1
                masks[w] ^= 1 << v
                masks[v] ^= 1 << w
            frame[3] = chosen = next(combos, None)
            if chosen is not None:
                for w in chosen:
                    remaining[w] -= 1
                    masks[w] |= 1 << v
                    masks[v] |= 1 << w
                break
            remaining[v] = need
            stack.pop()
        else:
            return GraphFamily(primes, pattern, tuple(out), True)
    raise ParameterError(f"degree pattern search passed MAX_SEARCH_STEPS = "
                         f"{MAX_SEARCH_STEPS} partial assignments")


class VasilievResult(Record):
    """Whether a graph satisfies t >= 3 and t(2, .) >= 2, with witnesses."""

    applicable: bool
    t: int
    t_witness: tuple
    t2: int
    t2_witness: tuple


def vasiliev_applicable(g: PrimeGraph) -> VasilievResult:
    """Hypotheses of the almost-simple reduction: an independent triple
    exists and some independent pair contains the vertex 2.  A graph
    without the vertex 2 raises ParameterError."""
    if 2 not in g.vertices:
        raise ParameterError("criterion needs the vertex 2 (even group order)")
    t, w = independence(g)
    t2, w2 = independence_at(g, 2)
    return VasilievResult(t >= 3 and t2 >= 2, t, w, t2, w2)


def candidate_filter(order: Factorization, pi, catalog) -> list:
    """Members P of catalog (a mapping from each group to its order) with
    |P| | order and order_l | |P| for each l in pi outside out_primes(P),
    sorted.  For P <= G/K <= Aut(P), |G| = order and K a pi'-group,
    |G/K|_pi = order_pi and |G/K : P| divides |Out(P)|."""
    out = [P for P, p_order in catalog.items()
           if p_order.divides(order)
           and order.restrict(set(pi) - out_primes(P)).divides(p_order)]
    return sorted(out, key=GroupId.sort_key)


def _pattern_compatible(P: GroupId, degree_bound: dict):
    """Degree-lift elimination: P <= G/K pushes every adjacency of GK(P)
    into GK(G), so each GK(P) vertex degree must fit under the hypothesized
    pattern degree.  Returns True/False, or None when gkod does not cover
    the spectrum of P (any ParameterError: cannot be checked)."""
    try:
        gk_p = build_gk(order_of(P), spectrum_of(P))
    except ParameterError:
        return None
    return all(gk_p.degree(v) <= degree_bound[v] for v in gk_p.vertices)


# ---------------------------------------------------------------------------
# case configuration (data, not logic): the primes pi that the solvable
# radical must avoid; the pivot and the required divisor are derived

CASE_PI = {
    "S4(31)": (13, 31, 37),
    "U3(27)": (7, 13, 19, 37),
    "G2(11)": (7, 19, 37),
    "U4(31)": (7, 19, 37),
}

VERIFIED = "verified"


def _assumed_facts(label: str, pi: tuple, pivot) -> tuple:
    pi_str = "{" + ", ".join(str(p) for p in pi) + "}"
    facts = [
        "almost-simple reduction: a finite group G with t(G) >= 3 and "
        "t(2, G) >= 2 admits a simple P with P <= G/K <= Aut(P), "
        "K the maximal normal solvable subgroup",
        # narrower than the filter's out_primes; the wording is pinned by
        # tests/golden and bench/ref until they are regenerated
        "outer-automorphism support: pi(Out(S)) is contained in {2, 3, 5} "
        "for every simple S whose largest order prime lies in [5, 97]",
        f"solvable-radical support: K is a {pi_str}'-group "
        "(abelian Hall subgroup / Sylow-normalizer and Frattini arguments)",
        "order lifting: element orders of P <= G/K lift to G, so every "
        "adjacency of GK(P) is an adjacency of GK(G)",
    ]
    if pivot is not None:
        facts.insert(0, f"order-component characterization: a finite group "
                        f"with the order components of {label} is "
                        f"isomorphic to {label}")
    return tuple(facts)


class CaseReport(Record):
    """Structured verdict of one mechanized case analysis."""

    group: str
    pivot: tuple | None
    family_size: int
    forced: dict | None
    alternatives: dict
    filter: dict
    catalog_check: dict
    verdict: str
    assumed_facts: tuple

    def to_json_dict(self) -> dict:
        return {
            "v": 1,
            "group": self.group,
            "pivot": list(self.pivot) if self.pivot else None,
            "forced": self.forced,
            "alternatives": self.alternatives,
            "filter": self.filter,
            "catalog_check": self.catalog_check,
            "verdict": self.verdict,
            "assumed_facts": list(self.assumed_facts),
        }


@cache
def _orders_in_S_p(ell: int) -> dict:
    """Each member of enumerate_S_p(ell), in its order, mapped to |P|."""
    return {P: order_of(P) for P in enumerate_S_p(ell)}


def forcing_pivot(gk: PrimeGraph, family: GraphFamily):
    """Least edge of gk carried by some member of the family (a family on
    gk's vertices), where every member carrying it equals gk; None when no
    edge forces gk."""
    edge_sets = [h.edges for h in family.graphs]
    if gk.edges not in edge_sets:
        return None
    return next((e for e in gk.edges
                 if not any(e in es and es != gk.edges for es in edge_sets)),
                None)


def verify_case(group) -> CaseReport:
    """Run the full mechanized case analysis for one of the four groups.

    The filter's catalog holds every simple P with |P| | |S|: the largest
    prime l of |P| is at least 5 (Burnside) and divides |S|, so P lies in
    enumerate_S_p(l), complete for l <= CHARACTERISTIC_BOUND, which bounds
    every prime of a configured |S|.  A candidate whose spectrum gkod does
    not cover is listed as unchecked, which fails the filter stage."""
    g_id = parse_label(group) if isinstance(group, str) else group
    label = g_id.label()
    if label not in CASE_PI:
        raise ParameterError(f"no case configuration for {label} "
                             f"(configured: {', '.join(sorted(CASE_PI))})")
    pi = CASE_PI[label]

    order = order_of(g_id)
    gk = build_gk(order, spectrum_of(g_id))
    pattern = degree_pattern(gk).degrees

    computed_s37 = list(_orders_in_S_p(37))
    catalog_agrees = computed_s37 == s37_reference()
    catalog_check = {
        "agrees_with_published": catalog_agrees,
        "computed": [g.label() for g in computed_s37],
    }
    if not catalog_agrees:
        # surface the discrepancy; do not silently prefer either source
        catalog_check["published"] = [g.label() for g in s37_reference()]

    family = enumerate_with_pattern(gk.vertices, pattern)
    pivot = forcing_pivot(gk, family)

    forced = None
    alternatives = list(family.graphs)
    if pivot is not None:
        e = tuple(sorted(pivot))
        members = [h for h in alternatives if h.has_edge(*e)]
        forced = {
            "count": len(members),
            "all_equal_gk": bool(members) and all(h == gk for h in members),
        }
        alternatives = [h for h in alternatives if not h.has_edge(*e)]

    results = [vasiliev_applicable(h) for h in alternatives]
    all_applicable = all(r.applicable for r in results)
    worst_t = min(results, key=lambda r: r.t, default=None)
    worst_t2 = min(results, key=lambda r: r.t2, default=None)
    alt = {
        "count": len(alternatives),
        "all_vasiliev_applicable": all_applicable,
        "min_t": worst_t.t if worst_t else None,
        "min_t2": worst_t2.t2 if worst_t2 else None,
        "witnesses": ({"t": list(worst_t.t_witness),
                       "t2": list(worst_t2.t2_witness)}
                      if worst_t else None),
    }

    catalog = {P: p_order for ell in order.primes() if ell >= 5
               for P, p_order in _orders_in_S_p(ell).items()}
    by_div = candidate_filter(order, pi, catalog)
    bound = dict(zip(gk.vertices, pattern))
    compat = {P: _pattern_compatible(P, bound) for P in by_div}
    survivors = [P for P in by_div if compat[P]]
    unchecked = [P for P in by_div if compat[P] is None]
    filt = {
        "required": str(order.restrict(pi)),
        "divisibility": [P.label() for P in by_div],
        "survivors": [P.label() for P in survivors],
        "unchecked": [P.label() for P in unchecked],
    }

    # the stages in proof order; the first that fails names the verdict
    stages = (
        ("catalog", catalog_agrees),
        ("enumeration", family.feasible and gk in family.graphs),
        ("forced", forced is None or forced["all_equal_gk"]),
        ("vasiliev", all_applicable),
        ("filter", survivors == [g_id] and not unchecked),
    )
    verdict = next((f"failed({name})" for name, ok in stages if not ok),
                   VERIFIED)

    return CaseReport(
        group=label,
        pivot=pivot,
        family_size=len(family),
        forced=forced,
        alternatives=alt,
        filter=filt,
        catalog_check=catalog_check,
        verdict=verdict,
        assumed_facts=_assumed_facts(label, pi, pivot),
    )
