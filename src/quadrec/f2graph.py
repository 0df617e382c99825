"""GF(2) edge-space machinery on prime residue graphs.

`nonresidue_cycles` is the one walk over the non-residue graph of a set of
primes of V (an edge wherever the symbol is -1): it lists its cycles of the
given lengths.  Edge sets are vectors over GF(2) under symmetric
difference; this module computes boundary and cycle space bases, each
returned as the sorted distinct edges and one int mask per basis vector
over them (bit i is edge i), and decomposes non-residue cycles, given as
their vertex order, into triangles, given as sorted vertex triples,
through an auxiliary prime; `triangle_decompose` checks only the shape of
a cycle, and `invariants.triangle_invariant` the residue hypotheses of
each triangle.  Both bases come from `gf2_kernel`,
the one GF(2) elimination of `arith`: a vector is independent of the
earlier ones exactly when its index is the top bit of no relation.  An
edge's vertex vector is independent of the earlier edges' exactly when it
closes no cycle with them, so ascending elimination keeps the ascending
spanning forest and tags every other edge with its fundamental cycle.  The
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

from itertools import combinations

from .arith import (
    DomainError,
    gf2_kernel,
    legendre,
    primes_in_v,
    require_v_prime,
    v_symbol,
)

Edge = tuple[int, int]


def edge(p: int, q: int) -> Edge:
    if p == q:
        raise DomainError(f"loop edge at {p}")
    return (p, q) if p < q else (q, p)


def nonresidue_cycles(vertices, lengths):
    """Yield the non-residue cycles on the given primes of V whose lengths,
    each at least 3, are in `lengths`; each once, as its vertex order from
    its least vertex, with the second vertex below the last.

    Each pair of the sorted vertices has its symbol read once, by
    `v_symbol`, which refuses a repeated vertex or a prime outside V; this
    happens at the first `next`.  The cycles come by length in the order of
    `lengths`, then by least vertex, and each such group sorted by
    (sorted(c), c): its vertex subsets in combinations order, each subset's
    cycles in permutations order of the vertices after the least.  At
    length 3 that is combinations order.  Only one group is held at a time.
    """
    vs = sorted(vertices)
    nbrs = {v: set() for v in vs}
    for p, q in combinations(vs, 2):
        if v_symbol(p, q) == -1:
            nbrs[p].add(q)
            nbrs[q].add(p)

    def walk(path, k, out):
        last = path[-1]
        if len(path) == k - 1:
            # the closing vertex: a partner of both ends, above the second
            out.extend(tuple(path) + (w,) for w in nbrs[last] & nbrs[path[0]]
                       if w > path[1] and w not in path)
            return
        for w in nbrs[last]:
            if w > path[0] and w not in path:
                walk(path + [w], k, out)

    for k in lengths:
        for s in vs:
            group = []
            walk([s], k, group)
            group.sort(key=lambda c: (sorted(c), c))
            yield from group


# ---------------------------------------------------------------------------
# GF(2) linear algebra over a fixed edge order, vectors as int bitmasks

def _edges(vertices, edges) -> tuple[list[int], list[Edge]]:
    """The sorted vertices and the sorted distinct edges, each normalised by
    `edge`, so both orientations are one edge and a loop is an error."""
    vs = sorted(set(vertices))
    es = sorted({edge(u, v) for u, v in edges})
    vset = set(vs)
    for u, v in es:
        if u not in vset or v not in vset:
            raise DomainError(f"edge ({u},{v}) leaves the vertex set")
    return vs, es


def boundary_space(vertices, edges) -> tuple[list[Edge], list[int]]:
    """A GF(2) basis of the span of the vertex stars (edges at one vertex):
    the sorted distinct edges, and as masks over them the stars, in vertex
    order, that are independent of the stars before them, which are the
    stars whose index is the top bit of no relation (`gf2_kernel`)."""
    vs, es = _edges(vertices, edges)
    stars = dict.fromkeys(vs, 0)
    for i, (u, v) in enumerate(es):
        stars[u] |= 1 << i
        stars[v] |= 1 << i
    masks = list(stars.values())
    dependent = {x.bit_length() - 1 for x in gf2_kernel(masks)}
    return es, [m for i, m in enumerate(masks) if i not in dependent]


def cycle_space(vertices, edges) -> tuple[list[Edge], list[int]]:
    """Basis of the even-degree edge sets: the sorted distinct edges, and
    as masks over them one fundamental cycle per edge outside the
    ascending-order spanning forest, in ascending edge order.

    The cycles are the GF(2) relations among the edges' vertex vectors
    bit(u) | bit(v), taken ascending (`gf2_kernel`).  An edge is
    independent of the earlier edges exactly when it joins two of their
    components, so the edges kept as rows are the forest Kruskal picks in
    that order.  An edge that reduces to zero closes a cycle: its relation
    is the edge plus the forest edges whose vectors sum to its own, and the
    only such forest edges are the forest path between its ends.
    """
    vs, es = _edges(vertices, edges)
    bit = {v: 1 << k for k, v in enumerate(vs)}
    return es, gf2_kernel(bit[u] | bit[v] for u, v in es)


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


def triangle_decompose(order, aux: int) -> list[tuple[int, int, int]]:
    """Write a simple cycle as a symmetric difference of triangles through
    the auxiliary prime `aux`, each given as its sorted vertex triple.

    The cycle is its vertices in traversal order; the closing edge from the
    last vertex back to the first is implied.  Each edge (p, q) of it gives
    the triangle (p, q, aux), so a cycle of k vertices, a 3-cycle too, gives
    k triangles.  Only the shape is checked here: at least three distinct
    vertices, and an integer `aux` that is none of them.  Every pair whose
    symbol the decomposition needs, a cycle edge or a vertex with `aux`, is
    an edge of a triangle, and `invariants.triangle_invariant` checks that
    each triangle is a pairwise non-residue triple of V-primes.  For a
    non-residue cycle `auxiliary_primes` yields exactly the `aux` that
    pass, and any two of them give two different decompositions.
    """
    k = len(order)
    if k < 3 or len(set(order)) != k:
        raise DomainError("a cycle needs at least three distinct vertices")
    if not isinstance(aux, int):
        raise DomainError(f"a cycle of {k} vertices needs an integer auxiliary "
                          f"prime, got {aux!r}")
    if aux in order:
        raise DomainError(f"auxiliary prime {aux} is a cycle vertex")
    pairs = list(zip(order, order[1:] + order[:1]))
    triangles = [tuple(sorted((p, q, aux))) for p, q in pairs]
    acc: set = set()
    for a, b, c in triangles:
        acc ^= {(a, b), (b, c), (a, c)}
    assert acc == {edge(u, v) for u, v in pairs}, \
        "triangle symmetric difference must reproduce the cycle"
    return triangles
