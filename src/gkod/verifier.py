"""Mechanized combinatorial skeleton of the order/degree-pattern
uniqueness argument for S4(31), U3(27), G2(11) and U4(31).

For a hypothesized group G with |G| = |S| and D(G) = D(S) the verifier
enumerates every labeled graph consistent with the degree pattern, splits
on the pivot adjacency, checks the almost-simple reduction hypotheses
(t >= 3, t(2) >= 2) on every non-forced member, and applies the
order-divisibility filter over the computed catalog.  Each case is
configured by the primes pi its solvable radical must avoid; the rest is
derived: the pivot is the least edge of GK(S) whose presence forces a
family member to equal GK(S) (none for U4(31)), and the required divisor
of |P| is the pi-part of |S|.  Genuine group theory
(solvable radicals, order-component characterizations) is not re-proved;
each report lists those inputs under assumed_facts.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .arith import Factorization
from .catalog import (
    GroupId,
    ParameterError,
    ScopeError,
    enumerate_S_p,
    order_of,
    out_primes_bounded,
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
from .spectra import SpectrumNotImplementedError, spectrum_of

MAX_PATTERN_VERTICES = 10


@dataclass(frozen=True)
class GraphFamily:
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

    Backtracking over a bitmask adjacency assigns the full neighborhood of
    one unfinished vertex at a time (vertices ordered by descending
    requested degree, then ascending prime; neighbors chosen in ascending
    prime order), which yields each graph exactly once in a deterministic
    order.  Each graph is built from its masks.
    """
    primes = tuple(primes)
    pattern = tuple(int(d) for d in pattern)
    if len(primes) != len(pattern) or len(primes) > MAX_PATTERN_VERTICES:
        raise ValueError("need matching prime/degree lists of length <= 10")
    if list(primes) != sorted(set(primes)):
        raise ValueError("primes must be strictly increasing")
    k = len(primes)
    if sum(pattern) % 2 or any(not 0 <= d <= k - 1 for d in pattern):
        return GraphFamily(primes, pattern, (), False)

    order = sorted(range(k), key=lambda i: -pattern[i])  # stable: ties by prime
    remaining = list(pattern)
    masks = [0] * k
    out = []

    def rec():
        v = next((i for i in order if remaining[i]), None)
        if v is None:
            out.append(PrimeGraph._from_masks(primes, tuple(masks)))
            return
        need = remaining[v]
        cands = [w for w in range(k)
                 if w != v and remaining[w] and not masks[v] >> w & 1]
        if len(cands) < need:
            return
        remaining[v] = 0
        for chosen in itertools.combinations(cands, need):
            for w in chosen:
                remaining[w] -= 1
                masks[w] |= 1 << v
                masks[v] |= 1 << w
            rec()
            for w in chosen:
                remaining[w] += 1
                masks[w] ^= 1 << v
                masks[v] ^= 1 << w
        remaining[v] = need

    rec()
    return GraphFamily(primes, pattern, tuple(out), True)


@dataclass(frozen=True)
class VasilievResult:
    """Whether a graph satisfies t >= 3 and t(2, .) >= 2, with witnesses."""

    applicable: bool
    t: int
    t_witness: tuple
    t2: int
    t2_witness: tuple


def vasiliev_applicable(g: PrimeGraph) -> VasilievResult:
    """Hypotheses of the almost-simple reduction: an independent triple
    exists and some independent pair contains the vertex 2."""
    if 2 not in g.vertices:
        raise ScopeError("criterion needs the vertex 2 (even group order)")
    t, w = independence(g)
    t2, w2 = independence_at(g, 2)
    return VasilievResult(t >= 3 and t2 >= 2, t, w, t2, w2)


def candidate_filter(m: Factorization, g_order: Factorization, catalog) -> list:
    """Catalog members P with m | |P| and |P| | g_order, sorted."""
    out = [P for P in catalog
           if m.divides(order := order_of(P)) and order.divides(g_order)]
    return sorted(out, key=GroupId.sort_key)


def _pattern_compatible(P: GroupId, degree_bound: dict):
    """Degree-lift elimination: P <= G/K pushes every adjacency of GK(P)
    into GK(G), so each GK(P) vertex degree must fit under the hypothesized
    pattern degree.  Returns True/False, or None when no spectrum routine
    covers P (cannot be checked)."""
    try:
        gk_p = build_gk(order_of(P), spectrum_of(P))
    except SpectrumNotImplementedError:
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


@dataclass(frozen=True)
class CaseReport:
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


@lru_cache(maxsize=1)
def _catalog_s37():
    computed = enumerate_S_p(37)
    reference = s37_reference()
    agrees = computed == reference
    return computed, reference, agrees


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


def verify_case(group, pivot=None, pattern=None) -> CaseReport:
    """Run the full mechanized case analysis for one of the four groups.

    pivot defaults to forcing_pivot over the enumerated family; pattern may
    override the computed degree pattern (negative controls in tests use
    both).
    """
    g_id = parse_label(group) if isinstance(group, str) else group
    label = g_id.label()
    if label not in CASE_PI:
        raise ParameterError(f"no case configuration for {label} "
                             f"(configured: {', '.join(sorted(CASE_PI))})")
    pi = CASE_PI[label]

    order = order_of(g_id)
    gk = build_gk(order, spectrum_of(g_id))
    m_required = order.restrict(pi)
    if pattern is None:
        pattern = degree_pattern(gk).degrees
    pattern = tuple(int(d) for d in pattern)

    computed_s37, reference_s37, catalog_agrees = _catalog_s37()
    catalog_check = {
        "agrees_with_published": catalog_agrees,
        "computed": [g.label() for g in computed_s37],
    }
    if not catalog_agrees:
        # surface the discrepancy; do not silently prefer either source
        catalog_check["published"] = [g.label() for g in reference_s37]

    family = enumerate_with_pattern(gk.vertices, pattern)
    if pivot is None:
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

    by_div = candidate_filter(m_required, order, computed_s37)
    bound = dict(zip(gk.vertices, pattern))
    unchecked, survivors = [], []
    for P in by_div:
        out_primes_bounded(P)  # declarative scope check for the Out fact
        compat = _pattern_compatible(P, bound)
        if compat is None:
            unchecked.append(P)
        elif compat:
            survivors.append(P)
    filt = {
        "required": str(m_required),
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
