"""Prime graphs (Gruenberg-Kegel graphs) and the statistics built on them:
degree patterns, connected/order components, independence numbers, clique
decompositions and deterministic DOT/JSON output.

A graph is built from an order factorization plus a spectrum antichain mu;
the edge test p ~ q iff pq divides some member of mu is equivalent to
testing pq against the full divisor closure, so omega is never
materialized.
"""

import itertools
from dataclasses import dataclass
from functools import cached_property

from .arith import Factorization, divisor_closure, prime_factors


class CauchyConsistencyError(ValueError):
    """Prime support of the spectrum disagrees with the order's support."""

    def __init__(self, prime: int, where: str):
        super().__init__(f"prime {prime} {where}")
        self.prime = prime


@dataclass(frozen=True)
class PrimeGraph:
    """Vertices are primes in increasing order; edges are sorted (p, q)
    pairs with p < q.  Immutable and hashable once built."""

    vertices: tuple
    edges: tuple

    def __post_init__(self):
        if list(self.vertices) != sorted(set(self.vertices)):
            raise ValueError("vertices must be strictly increasing")
        vs = set(self.vertices)
        for p, q in self.edges:
            if p >= q:
                raise ValueError(f"edge ({p}, {q}) not normalized")
            if p not in vs or q not in vs:
                raise ValueError(f"edge ({p}, {q}) uses unknown vertex")
        if list(self.edges) != sorted(set(self.edges)):
            raise ValueError("edges must be sorted and duplicate-free")

    @classmethod
    def from_edges(cls, vertices, edges) -> "PrimeGraph":
        norm = sorted(set(tuple(sorted(e)) for e in edges))
        return cls(tuple(sorted(set(vertices))), tuple(norm))

    @cached_property
    def adjacency(self) -> dict:
        adj = {v: set() for v in self.vertices}
        for p, q in self.edges:
            adj[p].add(q)
            adj[q].add(p)
        return adj

    @cached_property
    def _edge_set(self) -> frozenset:
        return frozenset(self.edges)

    def has_edge(self, p: int, q: int) -> bool:
        return tuple(sorted((p, q))) in self._edge_set

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def json_dict(self) -> dict:
        return {"vertices": list(self.vertices),
                "edges": [list(e) for e in self.edges]}


@dataclass(frozen=True)
class DegreePattern:
    """Vertex degrees aligned with the ascending prime order."""

    primes: tuple
    degrees: tuple

    def __post_init__(self):
        k = len(self.primes)
        if len(self.degrees) != k:
            raise ValueError("length mismatch")
        if any(not 0 <= d <= k - 1 for d in self.degrees):
            raise ValueError("degree out of range for a simple graph")
        if sum(self.degrees) % 2:
            raise ValueError("degree sum must be even (handshake)")

    def json_dict(self) -> dict:
        return {"degrees": list(self.degrees), "primes": list(self.primes)}

    def __str__(self):
        return "(" + ", ".join(str(d) for d in self.degrees) + ")"


@dataclass(frozen=True)
class OrderComponents:
    """Connected components paired with the coprime parts of the order.

    components[i] = (primes_i, m_i); the component containing 2 comes first
    for even orders, the rest follow by smallest contained prime.
    """

    components: tuple

    @property
    def count(self) -> int:
        return len(self.components)

    def json_dict(self) -> dict:
        return {"components": [
            {"order": [list(pe) for pe in m.factors], "primes": list(ps)}
            for ps, m in self.components]}


def build_gk(order: Factorization, mu) -> PrimeGraph:
    """Prime graph on the primes of |G| with p ~ q iff pq divides a member
    of mu.  The spectrum's support must equal the order's support (every
    prime of |G| occurs as an element order, and orders divide |G|)."""
    mu_vals = tuple(mu)
    vertices = order.primes()
    if not order.is_complete:
        raise ValueError("order factorization must be complete")
    support = set()
    for m in mu_vals:
        support.update(prime_factors(m))
    extra = sorted(support - set(vertices))
    if extra:
        raise CauchyConsistencyError(extra[0], "divides the spectrum but not the order")
    missing = sorted(set(vertices) - support)
    if missing:
        raise CauchyConsistencyError(missing[0], "divides the order but no element order")
    edges = [(p, q) for p, q in itertools.combinations(vertices, 2)
             if any(m % (p * q) == 0 for m in mu_vals)]
    return PrimeGraph(vertices, tuple(edges))


def degree_pattern(g: PrimeGraph) -> DegreePattern:
    return DegreePattern(g.vertices, tuple(g.degree(v) for v in g.vertices))


def _connected_components(g: PrimeGraph) -> list:
    seen = set()
    comps = []
    for v in g.vertices:
        if v in seen:
            continue
        stack, comp = [v], set()
        while stack:
            u = stack.pop()
            if u in comp:
                continue
            comp.add(u)
            stack.extend(g.adjacency[u] - comp)
        seen |= comp
        comps.append(tuple(sorted(comp)))
    # even-order convention: the component holding 2 leads; otherwise the
    # components are simply ordered by smallest contained prime
    comps.sort(key=lambda c: (0 if 2 in c else 1, c[0]))
    return comps


def components(g: PrimeGraph, order: Factorization) -> OrderComponents:
    """Order components: each connected vertex set with the matching
    coprime part of the order."""
    if tuple(order.primes()) != g.vertices:
        raise ValueError("order support does not match graph vertices")
    return OrderComponents(tuple(
        (comp, order.restrict(comp)) for comp in _connected_components(g)))


def _first_max_independent(g: PrimeGraph, masks: list, chosen: int, cand: int):
    """(t, witness): the lexicographically least maximum independent set
    extending the chosen vertex mask by open vertices from cand.

    Depth-first over the open vertices in order, including each before
    skipping it, so sets of equal size are reached in lexicographic order;
    a branch ends once its chosen and open vertices cannot beat the best
    size so far, and only a set that beats it is kept.
    """
    best_size, best = 0, 0

    def search(chosen, size, cand):
        nonlocal best_size, best
        if size + cand.bit_count() <= best_size:
            return
        if not cand:
            best_size, best = size, chosen
            return
        v = cand & -cand
        cand &= ~v
        search(chosen | v, size + 1, cand & ~masks[v.bit_length() - 1])
        search(chosen, size, cand)

    search(chosen, chosen.bit_count(), cand)
    return best_size, tuple(v for i, v in enumerate(g.vertices) if best >> i & 1)


def independence(g: PrimeGraph):
    """(t, witness): exact independence number with the lexicographically
    least maximum independent set."""
    return _first_max_independent(g, _bitmasks(g), 0, (1 << len(g.vertices)) - 1)


def _bitmasks(g: PrimeGraph) -> list:
    idx = {v: i for i, v in enumerate(g.vertices)}
    masks = [0] * len(g.vertices)
    for p, q in g.edges:
        masks[idx[p]] |= 1 << idx[q]
        masks[idx[q]] |= 1 << idx[p]
    return masks


def independence_at(g: PrimeGraph, r: int):
    """(t_r, witness): largest independent set constrained to contain r."""
    if r not in g.adjacency:
        raise ValueError(f"{r} is not a vertex")
    masks = _bitmasks(g)
    ir = g.vertices.index(r)
    cand = ((1 << len(g.vertices)) - 1) & ~(1 << ir) & ~masks[ir]
    return _first_max_independent(g, masks, 1 << ir, cand)


@dataclass(frozen=True)
class SuzukiDecomposition:
    """Verdict of the clique-decomposition check: every component beyond
    the leading one must induce a complete graph."""

    ok: bool
    clique_sizes: tuple = ()
    violation: tuple = None


def suzuki_decomposition(g: PrimeGraph) -> SuzukiDecomposition:
    """Check that each connected component except the leading one is a
    clique; returns the clique sizes, or the first non-adjacent pair."""
    comps = _connected_components(g)
    sizes = []
    for comp in comps[1:]:
        for a, b in itertools.combinations(comp, 2):
            if b not in g.adjacency[a]:
                return SuzukiDecomposition(False, violation=(a, b))
        sizes.append(len(comp))
    return SuzukiDecomposition(True, clique_sizes=tuple(sizes))


@dataclass(frozen=True)
class DegreeClasses:
    """Partition of vertices by degree plus two derived connectivity facts:
    the component count is at least the number of isolated vertices, and a
    vertex of full degree forces a connected graph."""

    classes: dict
    component_count: int
    isolated_bound_ok: bool
    full_degree_implies_connected: bool


def degree_classes(g: PrimeGraph) -> DegreeClasses:
    classes = {}
    for v in g.vertices:
        classes.setdefault(g.degree(v), []).append(v)
    classes = {d: tuple(vs) for d, vs in sorted(classes.items())}
    s = len(_connected_components(g))
    isolated = len(classes.get(0, ()))
    k = len(g.vertices)
    full = classes.get(k - 1, ())
    facts_ok = s >= isolated
    full_ok = (not full) or s == 1
    if not facts_ok:
        raise AssertionError(
            "component count fell below the isolated-vertex count")
    return DegreeClasses(classes, s, facts_ok, full_ok)


def to_dot(g: PrimeGraph) -> str:
    """Deterministic DOT text: vertices ascending, then edges sorted;
    byte-stable across runs."""
    lines = ["graph GK {"]
    for v in g.vertices:
        lines.append(f"  {v};")
    for p, q in g.edges:
        lines.append(f"  {p} -- {q};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_equivalent_under_closure(order: Factorization, mu) -> bool:
    """Edge sets from mu and from its full divisor closure coincide."""
    return build_gk(order, mu) == build_gk(order, divisor_closure(mu))
