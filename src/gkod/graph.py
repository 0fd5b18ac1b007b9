"""Prime graphs (Gruenberg-Kegel graphs) and the statistics built on them:
degree patterns, connected/order components, independence numbers, clique
decompositions and deterministic DOT/JSON output.

A graph is built from a complete order factorization plus a spectrum
antichain mu.  Every member's primes come from dividing it by the order's
primes, and p ~ q iff p and q both divide one member; an edge of the full
divisor closure lies in some member of mu, so omega is never
materialized.  A graph is one bitmask adjacency: build_gk ORs each
member's prime bitset into the masks, the edge tuple is read off them,
and the degrees, components and independent sets come from them too.
PrimeGraph(vertices, edges) and PrimeGraph.from_edges are the checked
entry for outside data; the graphs gkod builds skip those checks.
"""

import itertools
from functools import cached_property

from .arith import (
    MAX_PRIME_BOUND,
    Factorization,
    Record,
    factorize,
    is_prime,
    trusted,
)


class CauchyConsistencyError(ValueError):
    """Prime support of the spectrum disagrees with the order's support:
    prime is the least prime at fault, or None if it is out of reach."""

    def __init__(self, prime: int | None, where: str):
        name = (f"prime {prime}" if prime is not None
                else f"a prime above {MAX_PRIME_BOUND}")
        super().__init__(f"{name} {where}")
        self.prime = prime


class PrimeGraph(Record):
    """Vertices are primes in increasing order; edges are sorted (p, q)
    pairs with p < q.  Immutable and hashable once built.

    The constructor checks those and that every edge joins two vertices;
    gkod's own builders go through _from_masks, which takes the bitmask
    adjacency and reads the edges off it.
    """

    vertices: tuple
    edges: tuple

    def __post_init__(self):
        if list(self.vertices) != sorted(set(self.vertices)):
            raise ValueError("vertices must be strictly increasing")
        if bad := [p for p in self.vertices if not is_prime(p)]:
            raise ValueError(f"vertex {bad[0]} is not prime")
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

    @classmethod
    def _from_masks(cls, vertices: tuple, masks: tuple) -> "PrimeGraph":
        """The graph on ascending vertices whose bit j of masks[i] is set
        iff vertices[i] ~ vertices[j] (symmetric, no loops); edges come
        out ascending in (i, j), as sorting the edge set would give."""
        edges = []
        for i, m in enumerate(masks):
            higher = m >> i + 1 << i + 1
            while higher:
                low = higher & -higher
                edges.append((vertices[i], vertices[low.bit_length() - 1]))
                higher ^= low
        return trusted(cls, vertices=vertices, edges=tuple(edges), masks=masks)

    @cached_property
    def masks(self) -> tuple:
        """Bitmask adjacency: bit j of masks[i] is set iff vertices[i] and
        vertices[j] are adjacent."""
        idx = {v: i for i, v in enumerate(self.vertices)}
        masks = [0] * len(self.vertices)
        for p, q in self.edges:
            masks[idx[p]] |= 1 << idx[q]
            masks[idx[q]] |= 1 << idx[p]
        return tuple(masks)

    @cached_property
    def connected_components(self) -> tuple:
        """Vertex sets of the connected components, each ascending, in the
        order of their least vertex; so for an even order the component
        holding 2, the least prime, leads."""
        masks, out = self.masks, []
        left = (1 << len(masks)) - 1
        while left:
            comp = frontier = left & -left
            while frontier:
                reach = 0
                while frontier:
                    low = frontier & -frontier
                    reach |= masks[low.bit_length() - 1]
                    frontier ^= low
                frontier = reach & ~comp
                comp |= frontier
            left &= ~comp
            out.append(tuple(v for i, v in enumerate(self.vertices) if comp >> i & 1))
        return tuple(out)

    def has_edge(self, p: int, q: int) -> bool:
        vs = self.vertices
        return p in vs and q in vs and bool(self.masks[vs.index(p)] >> vs.index(q) & 1)

    def degree(self, v: int) -> int:
        return self.masks[self.vertices.index(v)].bit_count()

    def json_dict(self) -> dict:
        return {"vertices": list(self.vertices),
                "edges": [list(e) for e in self.edges]}


class DegreePattern(Record):
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


class OrderComponents(Record):
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
    prime of |G| occurs as an element order, and orders divide |G|).

    Each member is divided by the order's primes, and the bitset of the
    primes it holds is ORed into the mask of each of them.  What is left
    of the members is made of primes outside the order; only when it is
    above 1 is it factored, below MAX_PRIME_BOUND, to name the least such
    prime: past the bound only a prime remainder can be named."""
    vertices = order.primes()
    if not order.is_complete:
        raise ValueError("order factorization must be complete")
    masks = [0] * len(vertices)
    support, foreign = 0, 1
    for m in mu:
        if m < 1:
            raise ValueError(f"spectrum members must be >= 1, got {m}")
        bits = 0
        for i, p in enumerate(vertices):
            if m % p == 0:
                bits |= 1 << i
                m //= p
                while m % p == 0:
                    m //= p
        foreign *= m
        support |= bits
        rest = bits
        while rest:
            low = rest & -rest
            masks[low.bit_length() - 1] |= bits ^ low
            rest ^= low
    if foreign > 1:
        rest = factorize(foreign, MAX_PRIME_BOUND)
        prime = (rest.factors[0][0] if rest.factors
                 else foreign if is_prime(foreign) else None)
        raise CauchyConsistencyError(prime, "divides the spectrum but not the order")
    if support != (1 << len(vertices)) - 1:
        missing = (~support & support + 1).bit_length() - 1
        raise CauchyConsistencyError(vertices[missing],
                                     "divides the order but no element order")
    return PrimeGraph._from_masks(vertices, tuple(masks))


def degree_pattern(g: PrimeGraph) -> DegreePattern:
    """Degrees of g's vertices; a PrimeGraph already meets the handshake
    and range checks that DegreePattern(...) makes."""
    return trusted(DegreePattern, primes=g.vertices,
                   degrees=tuple(m.bit_count() for m in g.masks))


def components(g: PrimeGraph, order: Factorization) -> OrderComponents:
    """Order components: each connected vertex set with the matching
    coprime part of the order."""
    if tuple(order.primes()) != g.vertices:
        raise ValueError("order support does not match graph vertices")
    return OrderComponents(tuple(
        (comp, order.restrict(comp)) for comp in g.connected_components))


def _first_max_independent(g: PrimeGraph, chosen: int, cand: int):
    """(t, witness): the lexicographically least maximum independent set
    extending the chosen vertex mask by open vertices from cand.

    Depth-first over the open vertices in order, including each before
    skipping it, so sets of equal size are reached in lexicographic order;
    a branch ends once its chosen and open vertices cannot beat the best
    size so far, and only a set that beats it is kept.
    """
    masks = g.masks
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
    return _first_max_independent(g, 0, (1 << len(g.vertices)) - 1)


def independence_at(g: PrimeGraph, r: int):
    """(t_r, witness): largest independent set constrained to contain r."""
    if r not in g.vertices:
        raise ValueError(f"{r} is not a vertex")
    ir = g.vertices.index(r)
    cand = ((1 << len(g.vertices)) - 1) & ~(1 << ir) & ~g.masks[ir]
    return _first_max_independent(g, 1 << ir, cand)


class SuzukiDecomposition(Record):
    """Verdict of the clique-decomposition check: every component beyond
    the leading one must induce a complete graph."""

    ok: bool
    clique_sizes: tuple = ()
    violation: tuple = None


def suzuki_decomposition(g: PrimeGraph) -> SuzukiDecomposition:
    """Check that each connected component except the leading one is a
    clique; returns the clique sizes, or the first non-adjacent pair."""
    sizes = []
    for comp in g.connected_components[1:]:
        for a, b in itertools.combinations(comp, 2):
            if not g.has_edge(a, b):
                return SuzukiDecomposition(False, violation=(a, b))
        sizes.append(len(comp))
    return SuzukiDecomposition(True, clique_sizes=tuple(sizes))


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
