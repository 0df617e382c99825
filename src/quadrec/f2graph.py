"""GF(2) edge-space machinery on prime residue graphs.

A PrimeGraph splits the complete graph on a set of eligible primes into
residue edges (Legendre symbol +1) and non-residue edges (-1).  Edge sets are
vectors over GF(2) under symmetric difference; this module computes boundary
and cycle space bases, checks their annihilator duality, and decomposes
non-residue cycles into triangles through an auxiliary prime.  The
auxiliary primes of a cycle come from one ascending, unbounded walk over V
(`auxiliary_primes`), which always finds the next one: the conditions on it
are congruence classes prime to 8 times the vertex product, and each such
class holds infinitely many primes.  Every walk reads one shared ascending
list of V-primes, which grows by doubling its bound, and one bitset per
vertex over that list marking the primes that are non-residues against the
vertex; a cycle's candidates are the AND of its vertices' bitsets.  The
state depends on nothing but the vertices, so every process builds the
same.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import combinations

from .arith import DomainError, gf2_echelon, legendre, primes_in_v, require_v_prime, v_symbol

Edge = tuple[int, int]
EdgeVector = frozenset  # of Edge


def edge(p: int, q: int) -> Edge:
    if p == q:
        raise DomainError(f"loop edge at {p}")
    return (p, q) if p < q else (q, p)


@dataclass(frozen=True)
class PrimeGraph:
    """Complete graph on eligible primes, edges partitioned by symbol."""

    vertices: tuple[int, ...]
    edges_R: frozenset
    edges_N: frozenset

    def __post_init__(self):
        if list(self.vertices) != sorted(set(self.vertices)):
            raise DomainError("vertices must be sorted and distinct")
        for p in self.vertices:
            require_v_prime(p)
        all_pairs = {edge(p, q) for p, q in combinations(self.vertices, 2)}
        if self.edges_R | self.edges_N != all_pairs or self.edges_R & self.edges_N:
            raise DomainError("edge sets must partition all vertex pairs")
        for p, q in self.edges_R:
            if v_symbol(p, q) != 1:
                raise DomainError(f"({p}/{q}) = -1, not a residue edge")
        for p, q in self.edges_N:
            if v_symbol(p, q) != -1:
                raise DomainError(f"({p}/{q}) = +1, not a non-residue edge")

    def label(self, e: Edge) -> str:
        if e in self.edges_R:
            return "R"
        if e in self.edges_N:
            return "N"
        raise DomainError(f"edge {e} is not in the graph")


def build_graph(primes) -> PrimeGraph:
    """Partition all pairs of the given eligible primes by Legendre symbol."""
    vs = sorted(primes)
    if len(set(vs)) != len(vs):
        raise DomainError("vertices must be distinct")
    res, non = set(), set()
    for p, q in combinations(vs, 2):
        (res if v_symbol(p, q) == 1 else non).add(edge(p, q))
    return PrimeGraph(tuple(vs), frozenset(res), frozenset(non))


# ---------------------------------------------------------------------------
# GF(2) linear algebra over a fixed edge order, vectors as int bitmasks

def _edge_index(edges) -> dict:
    return {e: i for i, e in enumerate(sorted(edges))}


def _to_mask(vec, index) -> int:
    m = 0
    for e in vec:
        m |= 1 << index[e]
    return m


def _from_mask(mask: int, edges_sorted) -> EdgeVector:
    return frozenset(e for i, e in enumerate(edges_sorted) if mask >> i & 1)


def _spanning_forest(vertices, edges):
    """(tree edges, non-tree edges, component count), edges taken ascending."""
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    tree, extra = [], []
    for e in sorted(edges):
        ru, rv = find(e[0]), find(e[1])
        if ru == rv:
            extra.append(e)
        else:
            parent[ru] = rv
            tree.append(e)
    components = sum(1 for v in parent if find(v) == v)
    return tree, extra, components


def _check_support(vs, es) -> None:
    vset = set(vs)
    for u, v in es:
        if u not in vset or v not in vset:
            raise DomainError(f"edge ({u},{v}) leaves the vertex set")


def boundary_space(vertices, edges) -> list[EdgeVector]:
    """A GF(2) basis of the span of the vertex stars (edges at one vertex)."""
    vs = sorted(vertices)
    es = sorted(set(edges))
    _check_support(vs, es)
    index = _edge_index(es)
    stars = []
    for v in vs:
        stars.append(_to_mask([e for e in es if v in e], index))
    basis = [m for m, _ in gf2_echelon((star, 0) for star in stars)]
    _, extra, components = _spanning_forest(vs, es)
    assert len(basis) == len(vs) - components
    assert len(basis) + len(extra) == len(es)
    return [_from_mask(m, es) for m in basis]


def cycle_space(vertices, edges) -> list[EdgeVector]:
    """Basis of the even-degree edge sets: one fundamental cycle per edge
    outside an ascending-order spanning forest."""
    vs = sorted(vertices)
    es = sorted(set(edges))
    _check_support(vs, es)
    tree, extra, _ = _spanning_forest(vs, es)
    adj = {v: [] for v in vs}
    for u, v in tree:
        adj[u].append(v)
        adj[v].append(u)
    parent_edge: dict = {}
    depth: dict = {}
    for root in vs:
        if root in depth:
            continue
        depth[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in depth:
                    depth[w] = depth[u] + 1
                    parent_edge[w] = edge(u, w)
                    queue.append(w)
    basis = []
    for u, v in extra:
        path = set()
        a, b = u, v
        while depth[a] > depth[b]:
            e = parent_edge[a]
            path.add(e)
            a = e[0] if e[1] == a else e[1]
        while depth[b] > depth[a]:
            e = parent_edge[b]
            path.add(e)
            b = e[0] if e[1] == b else e[1]
        while a != b:
            ea, eb = parent_edge[a], parent_edge[b]
            path.add(ea)
            path.add(eb)
            a = ea[0] if ea[1] == a else ea[1]
            b = eb[0] if eb[1] == b else eb[1]
        cycle = frozenset(path | {edge(u, v)})
        for vertex, deg in Counter(x for e in cycle for x in e).items():
            assert deg % 2 == 0, f"fundamental cycle has odd degree at {vertex}"
        basis.append(cycle)
    return basis


def verify_duality(vertices, edges) -> bool:
    """True when the boundary and cycle spaces annihilate each other: every
    pairing is orthogonal and the ranks add up to the edge count."""
    bnd = boundary_space(vertices, edges)
    cyc = cycle_space(vertices, edges)
    if len(bnd) + len(cyc) != len(set(edges)):
        return False
    for b in bnd:
        for c in cyc:
            if len(b & c) % 2:
                return False
    return True


def _cycle_order(cycle) -> list[int]:
    """Vertices of a simple cycle in traversal order (error if not one)."""
    edges = set(cycle)
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if any(len(nbrs) != 2 for nbrs in adj.values()) or len(edges) != len(adj):
        raise DomainError("edge set is not a single simple cycle")
    start = min(adj)
    order = [start]
    prev, cur = None, start
    while True:
        a, b = sorted(adj[cur])
        nxt = b if a == prev else a
        if nxt == start:
            break
        order.append(nxt)
        prev, cur = cur, nxt
    if len(order) != len(adj):
        raise DomainError("edge set is not a single simple cycle")
    return order


# Ascending primes of V, and per vertex p the bitset over that list of the
# primes l != p with legendre(l, p) = -1, with the list length it covers.
# Both only grow.
_v_primes: list[int] = []
_nonresidue_bits: dict[int, tuple[int, int]] = {}


def _grow_v_primes() -> None:
    bound = 2 * _v_primes[-1] if _v_primes else 64
    _v_primes.extend(primes_in_v(bound)[len(_v_primes):])


def first_v_primes(n: int) -> list[int]:
    """The n smallest primes of V."""
    while len(_v_primes) < n:
        _grow_v_primes()
    return _v_primes[:n]


def _nonresidues_against(p: int) -> int:
    bits, covered = _nonresidue_bits.get(p, (0, 0))
    for i in range(covered, len(_v_primes)):
        aux = _v_primes[i]
        if aux != p and legendre(aux, p) == -1:
            bits |= 1 << i
    _nonresidue_bits[p] = bits, len(_v_primes)
    return bits


def auxiliary_primes(vertices):
    """Yield, ascending, every prime l of V that is not a vertex and is a
    non-residue against each vertex.

    The vertices are validated once.  The candidates, l = 2 or
    l = 1 (mod 4), are the shared list of V-primes.  Each vertex p marks in
    its bitset the l with legendre(l, p) = -1, which equals v_symbol(p, l)
    on V (reciprocity for p, l = 1 mod 4, the mod-8 table at 2), and the
    walk reads the AND of the vertices' bitsets, growing the list and the
    bitsets when it runs off the end.  The walk is unbounded and each step
    ends: l = 2 qualifies exactly when every vertex is 5 mod 8, and the
    conditions on odd l (l = 1 mod 4, or 5 mod 8 when 2 is a vertex, and l
    a non-residue mod each odd vertex) pick residue classes prime to 8
    times the vertex product, which exist by the Chinese remainder theorem
    and hold infinitely many primes each by Dirichlet.
    """
    vs = sorted(set(vertices))
    for p in vs:
        require_v_prime(p)
    start = 0
    while True:
        if start == len(_v_primes):
            _grow_v_primes()
        end = len(_v_primes)
        common = (1 << end) - (1 << start)
        for p in vs:
            common &= _nonresidues_against(p)
        while common:
            low = common & -common
            yield _v_primes[low.bit_length() - 1]
            common ^= low
        start = end


def triangle_decompose(cycle, aux: int | None) -> list[EdgeVector]:
    """Write a simple non-residue cycle as a symmetric difference of
    non-residue triangles through the auxiliary prime `aux`.

    A 3-cycle is its own decomposition and `aux` is not used.  Otherwise
    `aux` must be a prime of V, not a vertex, and a non-residue against
    every vertex; `auxiliary_primes` yields exactly those, and any two of
    them give two different decompositions.
    """
    cyc = frozenset(edge(u, v) for u, v in cycle)
    order = _cycle_order(cyc)
    if len(order) < 3:
        raise DomainError("a cycle needs at least three vertices")
    for u, v in cyc:
        if v_symbol(u, v) != -1:
            raise DomainError(f"({u}/{v}) = +1; cycle must be non-residue")
    if len(order) == 3:
        return [cyc]
    if aux in order:
        raise DomainError(f"auxiliary prime {aux} is a cycle vertex")
    for p in order:
        if v_symbol(p, aux) != -1:
            raise DomainError(f"({p}/{aux}) = +1; the auxiliary prime must be "
                              "a non-residue against every cycle vertex")
    triangles = []
    k = len(order)
    for i in range(k):
        p, q = order[i], order[(i + 1) % k]
        triangles.append(frozenset({edge(p, q), edge(q, aux), edge(aux, p)}))
    acc: frozenset = frozenset()
    for t in triangles:
        acc = acc ^ t
    assert acc == cyc, "triangle symmetric difference must reproduce the cycle"
    return triangles


# ---------------------------------------------------------------------------
# line-based serialization: one edge per line, "p q R" or "p q N"

def graph_to_lines(graph: PrimeGraph) -> list[str]:
    lines = []
    for e in sorted(graph.edges_R | graph.edges_N):
        lines.append(f"{e[0]} {e[1]} {graph.label(e)}")
    return lines

