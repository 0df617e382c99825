"""Residue graphs, GF(2) boundary/cycle spaces, triangle decomposition."""

import random
from collections import deque
from itertools import combinations, islice

import pytest

from quadrec import f2graph
from quadrec.arith import DomainError, primes_in_v, v_symbol
from quadrec.f2graph import (
    auxiliary_primes,
    boundary_space,
    cycle_space,
    edge,
    nonresidue_cycles,
    triangle_decompose,
)
from quadrec.invariants import triangle_invariant


def test_edge_normalizes():
    assert edge(29, 5) == (5, 29)
    assert edge(2, 5) == (2, 5)
    with pytest.raises(DomainError):
        edge(5, 5)


def test_nonresidue_cycles_read_the_vertices_in_sorted_order():
    vs = primes_in_v(60)
    shuffled = vs[:]
    random.Random(31).shuffle(shuffled)
    assert shuffled != vs
    cycles = list(nonresidue_cycles(vs, range(3, 6)))
    assert cycles and list(nonresidue_cycles(shuffled, range(3, 6))) == cycles
    for bad in ([5, 5], [5, 3]):
        lazy = nonresidue_cycles(bad, (3,))
        with pytest.raises(DomainError):
            next(lazy)


def edge_sets(space):
    """A space's basis masks as edge sets, bit i standing for the i-th of
    its sorted distinct edges, which are checked to be exactly that."""
    es, masks = space
    assert es == sorted(set(es)) and all(u < v for u, v in es)
    assert all(0 < m < 1 << len(es) for m in masks)
    return [frozenset(e for i, e in enumerate(es) if m >> i & 1) for m in masks]


def rank_pair(vertices, edges):
    return (len(edge_sets(boundary_space(vertices, edges))),
            len(edge_sets(cycle_space(vertices, edges))))


def test_space_ranks_on_small_graphs():
    # labels do not matter for the linear algebra, any vertex ints work
    tri = [(1, 2), (2, 3), (1, 3)]
    assert rank_pair([1, 2, 3], tri) == (2, 1)
    path = [(1, 2), (2, 3)]
    assert rank_pair([1, 2, 3], path) == (2, 0)
    square = [(1, 2), (2, 3), (3, 4), (1, 4)]
    assert rank_pair([1, 2, 3, 4], square) == (3, 1)
    assert rank_pair([1, 2], [(1, 2)]) == (1, 0)
    assert rank_pair([1, 2, 3], []) == (0, 0)
    two_triangles = [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]
    assert rank_pair([1, 2, 3, 4, 5, 6], two_triangles) == (4, 2)


def test_cycle_space_elements_have_even_degrees():
    vs = list(range(8))
    es = [e for i, e in enumerate(combinations(vs, 2)) if i % 3 != 1]
    for cyc in edge_sets(cycle_space(vs, es)):
        degree = {}
        for u, v in cyc:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        assert all(d % 2 == 0 for d in degree.values())


def test_boundary_cycle_orthogonality_random():
    rng = random.Random(5)
    for trial in range(60):
        n = rng.randint(1, 9)
        vs = list(range(n))
        es = [e for e in combinations(vs, 2) if rng.random() < 0.5]
        bnd, cyc = edge_sets(boundary_space(vs, es)), edge_sets(cycle_space(vs, es))
        assert len(bnd) + len(cyc) == len(es), (trial, es)
        assert all(len(b & c) % 2 == 0 for b in bnd for c in cyc), (trial, es)


def test_spaces_reject_stray_edges():
    with pytest.raises(DomainError):
        boundary_space([1, 2], [(1, 3)])
    with pytest.raises(DomainError):
        cycle_space([1, 2], [(1, 3)])


def test_spaces_take_either_orientation_and_reject_loops():
    # reversed edges pair with the cycle basis like normalised ones
    reversed_triangle = [(2, 1), (3, 2), (3, 1)]
    triangle = [(1, 2), (2, 3), (1, 3)]
    assert boundary_space([1, 2, 3], reversed_triangle) == boundary_space([1, 2, 3], triangle)
    assert cycle_space([1, 2, 3], reversed_triangle) == (sorted(triangle), [0b111])
    assert edge_sets(cycle_space([1, 2, 3], reversed_triangle)) == [frozenset(triangle)]
    assert all(len(b & frozenset(triangle)) == 2
               for b in edge_sets(boundary_space([1, 2, 3], reversed_triangle)))
    # both orientations of one edge are one edge, rank sum included
    assert rank_pair([1, 2], [(1, 2), (2, 1)]) == (1, 0)
    for space in (boundary_space, cycle_space):
        with pytest.raises(DomainError, match="loop edge at 1"):
            space([1, 2], [(1, 1), (1, 2)])


def forest_cycle_space(vertices, edges):
    """Fundamental cycles as cycle_space built them before it used GF(2)
    elimination: a union-find spanning forest over the ascending edges,
    then a BFS from each component's least vertex and a walk up the tree
    paths from both ends of each non-forest edge."""
    vs = sorted(vertices)
    es = sorted(set(edges))
    parent = {v: v for v in vs}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    tree, extra = [], []
    for e in es:
        ru, rv = find(e[0]), find(e[1])
        if ru == rv:
            extra.append(e)
        else:
            parent[ru] = rv
            tree.append(e)
    adj = {v: [] for v in vs}
    for u, v in tree:
        adj[u].append(v)
        adj[v].append(u)
    parent_edge, depth = {}, {}
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

    def up(x):
        e = parent_edge[x]
        return e, e[0] if e[1] == x else e[1]

    basis = []
    for u, v in extra:
        path = {(u, v)}
        a, b = u, v
        while depth[a] > depth[b]:
            e, a = up(a)
            path.add(e)
        while depth[b] > depth[a]:
            e, b = up(b)
            path.add(e)
        while a != b:
            ea, a = up(a)
            eb, b = up(b)
            path |= {ea, eb}
        basis.append(frozenset(path))
    return basis


def test_cycle_space_matches_the_forest_construction():
    rng = random.Random(8)
    disconnected = isolated = 0
    for trial in range(300):
        vs = rng.sample(range(1, 60), rng.randint(1, 14))
        density = rng.random()
        es = [edge(u, v) for u, v in combinations(vs, 2) if rng.random() < density]
        expected = forest_cycle_space(vs, es)
        assert edge_sets(cycle_space(vs, es)) == expected, (trial, vs, es)
        components = len(vs) - len(edge_sets(boundary_space(vs, es)))
        disconnected += components > 1
        isolated += any(all(v not in e for e in es) for v in vs)
    assert disconnected > 50 and isolated > 50


def find_nonresidue_cycle(length):
    """Vertex order of the first simple cycle of the given length in
    Gamma_N over the first dozen primes of V, from its least vertex."""
    ps = primes_in_v(110)
    from itertools import permutations
    for subset in combinations(ps, length):
        for perm in permutations(subset[1:]):
            if perm[0] > perm[-1]:
                continue
            order = (subset[0],) + perm
            if all(v_symbol(u, v) == -1 for u, v in cycle_edges(order)):
                return order
    raise AssertionError("no cycle found; widen the prime range")


def cycle_edges(order):
    """The edges of the cycle through `order`, the closing one included."""
    return frozenset(edge(order[i - 1], order[i]) for i in range(len(order)))


def xor_of_triangles(triples):
    """The symmetric difference of the triangles on the given vertex
    triples, each checked to be sorted and distinct."""
    acc = frozenset()
    for t in triples:
        assert len(t) == 3 and list(t) == sorted(set(t)), t
        acc ^= frozenset(edge(u, v) for u, v in combinations(t, 2))
    return acc


@pytest.mark.parametrize("length", [3, 4, 5])
def test_triangle_decompose_properties(length):
    order = find_nonresidue_cycle(length)
    aux = next(auxiliary_primes(order))
    tris = triangle_decompose(order, aux)
    assert len(tris) == length
    for tri in tris:
        for u, v in combinations(tri, 2):
            assert v_symbol(u, v) == -1
        assert aux in tri
    assert xor_of_triangles(tris) == cycle_edges(order)
    # the same cycle from another vertex or in the other direction
    for other in (order[1:] + order[:1], order[::-1]):
        assert set(triangle_decompose(other, aux)) == set(tris)


def test_triangle_decompose_of_a_residue_cycle_still_xors_back():
    order = [2, 17, 89]  # every edge residue
    assert all(v_symbol(u, v) == 1 for u, v in cycle_edges(order))
    tris = triangle_decompose(order, 5)
    assert len(tris) == 3 and all(5 in tri for tri in tris)
    assert xor_of_triangles(tris) == cycle_edges(order)


def test_auxiliary_primes_match_brute_force():
    order = find_nonresidue_cycle(4)
    expected = [aux for aux in primes_in_v(3000)
                if aux not in order and all(v_symbol(p, aux) == -1 for p in order)]
    assert len(expected) >= 5
    assert list(islice(auxiliary_primes(order), len(expected))) == expected
    tris1 = triangle_decompose(order, expected[0])
    tris2 = triangle_decompose(order, expected[1])
    assert set(tris1) != set(tris2)
    for tris in (tris1, tris2):
        assert xor_of_triangles(tris) == cycle_edges(order)


@pytest.fixture
def cold_walk(monkeypatch):
    """The shared V-prime list and the vertex bitsets, emptied."""
    monkeypatch.setattr(f2graph, "_v_primes", [])
    monkeypatch.setattr(f2graph, "_nonresidue_bits", {})


SIX_CYCLE = [2, 5, 13, 17, 29, 37]  # the vertices of a non-residue 6-cycle


def brute_force_auxiliary(vertices, n):
    found = [aux for aux in primes_in_v(20_000) if aux not in vertices
             and all(v_symbol(p, aux) == -1 for p in vertices)]
    assert len(found) >= n
    return found[:n]


def test_auxiliary_primes_extend_the_shared_list(cold_walk):
    first = list(islice(auxiliary_primes(SIX_CYCLE), 8))
    assert first == brute_force_auxiliary(SIX_CYCLE, 8)
    assert len(f2graph._v_primes) > len(primes_in_v(64))  # it ran off the first list
    assert f2graph._v_primes == primes_in_v(f2graph._v_primes[-1])


def test_auxiliary_primes_cold_and_warm_agree(cold_walk):
    cold = list(islice(auxiliary_primes(SIX_CYCLE[:4]), 8))
    list(islice(auxiliary_primes(SIX_CYCLE), 8))
    warm = list(islice(auxiliary_primes(SIX_CYCLE[:4]), 8))
    assert cold == warm == brute_force_auxiliary(SIX_CYCLE[:4], 8)


def test_auxiliary_primes_of_no_vertices_are_v(cold_walk):
    assert list(islice(auxiliary_primes([]), 5)) == [2, 5, 13, 17, 29]
    assert list(islice(auxiliary_primes([]), 500)) == primes_in_v(10_000)[:500]


def test_auxiliary_primes_skip_a_vertex_two():
    assert 2 not in islice(auxiliary_primes([2]), 50)
    assert 2 not in islice(auxiliary_primes([2, 5]), 20)
    assert next(auxiliary_primes([5, 13])) == 2  # both are 5 mod 8


def refused_triangle(order, aux, match):
    """`triangle_decompose` takes the shape, and `triangle_invariant`,
    which checks the residue hypotheses, refuses one of its triangles."""
    tris = triangle_decompose(order, aux)
    with pytest.raises(DomainError, match=match):
        for tri in tris:
            triangle_invariant(*tri)


def test_triangle_decompose_rejects_bad_input():
    refused_triangle([5, 29, 61], 2, "non-residue")  # residue edges
    # only the closing edge is residue, against an auxiliary prime that is
    # a non-residue against every vertex
    refused_triangle([2, 5, 17], next(auxiliary_primes([2, 5, 17])),
                     r"\((2/17|17/2)\) = \+1")
    for too_short in ([2, 5], [2], []):
        with pytest.raises(DomainError, match="three distinct"):
            triangle_decompose(too_short, 37)
    with pytest.raises(DomainError, match="three distinct"):
        triangle_decompose([2, 5, 13, 5], 37)  # non-residue edges, 5 twice
    refused_triangle([3, 5, 13], 37, "not a prime")  # 3 is not in V
    for order in (find_nonresidue_cycle(3), find_nonresidue_cycle(4)):
        aux = next(auxiliary_primes(order))
        with pytest.raises(DomainError, match="cycle vertex"):
            triangle_decompose(order, order[0])  # a vertex
        for not_an_int in (None, 5.0, "13"):
            with pytest.raises(DomainError, match="integer auxiliary prime"):
                triangle_decompose(order, not_an_int)
        refused_triangle(order, 3, "not a prime")  # not in V
        refused_triangle(order, aux + 1, "not a prime")
        residue = next(q for q in primes_in_v(1000) if q not in order
                       and v_symbol(order[0], q) == 1)
        refused_triangle(order, residue, "pairwise non-residue")
    for cycle in ((2, 5, 13), (2, 5, 37, 13)):  # raised before any symbol
        with pytest.raises(DomainError, match=f"{len(cycle)} vertices needs an "
                           "integer .* got None"):
            triangle_decompose(cycle, None)
    with pytest.raises(DomainError, match="not a prime"):
        next(auxiliary_primes([3, 5]))
