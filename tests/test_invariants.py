"""The quartic invariant: clauses, membership, additivity, predictions."""

import random
import re
from collections import Counter
from itertools import combinations
from math import prod

import pytest

from quadrec.arith import DomainError, primes_in_v, quartic, v_symbol
from quadrec.f2graph import cycle_space
from quadrec.invariants import (
    edge_invariant,
    general_invariant,
    odd_nonresidue_vertices,
    scholz2_predict,
    scholz_predict,
    triangle_invariant,
)
from quadrec.pell import unit_symbol


def test_edge_invariant_spot_values():
    assert edge_invariant(5, 29) == 0
    assert edge_invariant(13, 17) == 1
    assert edge_invariant(2, 17) == 1
    assert edge_invariant(2, 41) == 0
    assert edge_invariant(29, 5) == edge_invariant(5, 29)


def test_edge_invariant_domain():
    with pytest.raises(DomainError):
        edge_invariant(2, 5)  # non-residue pair
    with pytest.raises(DomainError):
        edge_invariant(3, 13)


def test_triangle_invariant_spot_values_and_symmetry():
    assert triangle_invariant(2, 5, 13) == 0
    assert triangle_invariant(2, 5, 37) == 1
    for p, q, r in ((5, 2, 13), (13, 5, 2), (2, 13, 5)):
        assert triangle_invariant(p, q, r) == 0


def test_triangle_invariant_domain():
    with pytest.raises(DomainError):
        triangle_invariant(5, 29, 2)  # (5/29) = +1
    with pytest.raises(DomainError):
        triangle_invariant(2, 2, 5)
    with pytest.raises(DomainError, match="not a prime"):
        triangle_invariant(3, 5, 13)  # 3 is not in V


def test_edge_invariant_tracks_unit_symbol():
    # the theorem itself, on a desk-sized patch
    ps = primes_in_v(60)
    for p, q in combinations(ps, 2):
        if v_symbol(p, q) != 1:
            continue
        if q == 2 or (p == 2 and q % 8 != 1):
            continue
        assert (edge_invariant(p, q) == 0) == (unit_symbol(p, q) == 1), (p, q)


def test_triangle_invariant_tracks_unit_symbol():
    ps = primes_in_v(40)
    for p, q, r in combinations(ps, 3):
        if not all(v_symbol(a, b) == -1 for a, b in ((p, q), (q, r), (r, p))):
            continue
        got = triangle_invariant(p, q, r)
        assert (got == 0) == (unit_symbol(p * q, r) == 1), (p, q, r)


def test_general_invariant_clauses():
    rep = general_invariant([(5, 29)])
    assert rep.clause == "edge" and rep.value == 0 and rep.k == 0
    rep = general_invariant([(2, 5), (5, 13), (2, 13)])
    assert rep.clause == "triangle" and rep.value == 0 and rep.k == 3
    assert rep.P == (2, 5, 13)
    assert "triangle" in str(rep)


def test_general_invariant_rejects_non_members():
    with pytest.raises(DomainError) as err:
        general_invariant([(2, 5)])
    assert "odd" in str(err.value)
    assert odd_nonresidue_vertices([(2, 5)]) == [2, 5]
    assert odd_nonresidue_vertices([(5, 29)]) == []
    with pytest.raises(DomainError):
        general_invariant([(3, 7)])


def test_general_invariant_empty_set():
    rep = general_invariant([])
    assert rep.value == 0 and rep.k == 0


def member_vectors(vertices, rng, count):
    """Random members: residue edges are free, non-residue parts come from
    the cycle space of the Gamma_N restriction."""
    pairs = list(combinations(sorted(vertices), 2))
    residue = [e for e in pairs if v_symbol(*e) == 1]
    es, masks = cycle_space(vertices, [e for e in pairs if v_symbol(*e) == -1])
    basis = [frozenset(e for i, e in enumerate(es) if m >> i & 1) for m in masks]
    out = []
    for _ in range(count):
        vec = frozenset()
        for cyc in basis:
            if rng.random() < 0.5:
                vec ^= cyc
        for e in residue:
            if rng.random() < 0.3:
                vec ^= {e}
        out.append(vec)
    return out


def test_general_invariant_is_additive():
    rng = random.Random(451)
    vecs = member_vectors(primes_in_v(45), rng, 12)
    for a in vecs:
        for b in vecs[:6]:
            va = general_invariant(a).value
            vb = general_invariant(b).value
            vab = general_invariant(a ^ b).value
            assert vab == (va + vb) % 2, (sorted(a), sorted(b))
            # the query is a GF(2) vector: an edge of both a and b cancels
            assert general_invariant([*a, *b]).value == (va + vb) % 2
    assert general_invariant([(5, 29), (29, 5)]).query == frozenset()


def slow_invariant(vec):
    """The general formula the long way: odd non-residue vertices from
    Counter degrees, else (value, clause, P, k) with each vertex's partners
    found by a scan over every edge and k counted on its own."""
    degrees = Counter()
    for u, v in vec:
        if v_symbol(u, v) == -1:
            degrees[u] += 1
            degrees[v] += 1
    odd = sorted(x for x, d in degrees.items() if d % 2)
    if odd:
        return odd
    support = sorted({x for e in vec for x in e})
    sign = 1
    for p in support:
        sign *= quartic(prod(q for e in vec if p in e for q in e if q != p), p)
    k = 0
    for u, v in vec:
        k += v_symbol(u, v) == -1
    value = 0 if sign == (-1) ** k else 1
    if len(vec) == 1 and k == 0:
        clause = "edge"
    elif len(vec) == 3 and len(support) == 3 and k == 3:
        clause = "triangle"
    else:
        clause = "general"
    return value, clause, tuple(support), k


def test_general_invariant_matches_a_slow_reference():
    rng = random.Random(16)
    ps = primes_in_v(200)[:12]
    pairs = list(combinations(ps, 2))
    residue = [e for e in pairs if v_symbol(*e) == 1]
    nonresidue = [e for e in pairs if v_symbol(*e) == -1]
    triangles = [t for t in combinations(ps, 3)
                 if all(v_symbol(u, v) == -1 for u, v in combinations(t, 2))]
    assert len(triangles) > 20
    clauses = Counter()
    for trial in range(240):
        vec = frozenset()
        for t in rng.sample(triangles, rng.randint(0, 3)):
            vec ^= frozenset(combinations(t, 2))
        for e in rng.sample(residue, rng.randint(0, 3)):
            vec ^= {e}
        # either orientation of an edge is the same edge
        query = [(v, u) if rng.getrandbits(1) else (u, v) for u, v in sorted(vec)]
        rep = general_invariant(query)
        assert rep.query == vec
        assert (rep.value, rep.clause, rep.P, rep.k) == slow_invariant(vec), (trial, sorted(vec))
        clauses[rep.clause] += 1
        # one more non-residue edge leaves the group
        bad = vec ^ {rng.choice(nonresidue)}
        odd = slow_invariant(bad)
        assert odd_nonresidue_vertices(bad) == odd and len(odd) >= 2
        with pytest.raises(DomainError, match=re.escape(f"degree at {odd}")):
            general_invariant(bad)
    assert min(clauses[c] for c in ("edge", "triangle", "general")) >= 5, clauses


def test_scholz_predictions_match_invariant_complement():
    # prediction is +1 exactly when the corresponding clause vanishes
    assert scholz_predict(5, 29) == 1
    assert scholz_predict(13, 17) == -1
    assert scholz_predict(17, 2) == -1
    assert scholz2_predict(2, 5, 13) == 1
    assert scholz2_predict(2, 5, 37) == -1
    for p, q in ((5, 29), (13, 17), (2, 17)):
        assert scholz_predict(p, q) == (1 if edge_invariant(p, q) == 0 else -1)


def test_predict_domain_errors():
    with pytest.raises(DomainError):
        scholz_predict(2, 5)
    with pytest.raises(DomainError):
        scholz_predict(5, 5)
    with pytest.raises(DomainError, match="not a prime"):
        scholz_predict(3, 13)  # 3 is not in V
    with pytest.raises(DomainError):
        scholz2_predict(5, 29, 2)
    with pytest.raises(DomainError):
        scholz2_predict(3, 5, 7)
