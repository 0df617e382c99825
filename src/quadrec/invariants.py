"""Quartic-symbol invariants of prime edge sets, and the unit-symbol
predictions they imply.

The invariant of an edge set is only defined when the non-residue part of
the set has even degree everywhere; the three evaluation clauses (single
residue edge, non-residue triangle, general formula) agree wherever they
overlap and that agreement is asserted rather than trusted.  The prediction
functions translate the two reciprocity identities into expected values for
the independently computed unit symbol.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import prod

from .arith import DomainError, Sign, quartic, v_symbol
from .f2graph import edge


class InvariantReport(namedtuple("InvariantReport", "query value clause P k")):
    """Evaluated invariant of one edge set, as `general_invariant` tallied
    it: P its sorted support, k its number of non-residue edges."""

    __slots__ = ()

    def __str__(self):
        pairs = " ".join(f"{u}-{v}" for u, v in sorted(self.query))
        return (f"value {self.value} ({self.clause} clause) "
                f"query [{pairs}] P {list(self.P)} k {self.k}")


def _tally(query) -> tuple[list[int], dict[int, int], int]:
    """One pass over the edges, reading each symbol once: the sorted
    vertices of odd non-residue degree, the product of each vertex's
    partners, and k, the number of non-residue edges."""
    odd: set[int] = set()
    partners: dict[int, int] = {}
    k = 0
    for u, v in query:
        if v_symbol(u, v) == -1:
            k += 1
            odd ^= {u, v}
        partners[u] = partners.get(u, 1) * v
        partners[v] = partners.get(v, 1) * u
    return sorted(odd), partners, k


def odd_nonresidue_vertices(query) -> list[int]:
    """Vertices with odd degree in the non-residue part of the edge set;
    empty exactly when the invariant is defined."""
    return _tally(query)[0]


def edge_invariant(p: int, q: int) -> int:
    """Invariant bit of a single residue pair: 0 iff the two quartic
    symbols multiply to +1."""
    if v_symbol(p, q) != 1:
        raise DomainError(f"({p}/{q}) = -1; single non-residue edges have "
                          "no invariant (odd degrees)")
    return 0 if quartic(p, q) * quartic(q, p) == 1 else 1


@lru_cache(maxsize=1 << 16)
def triangle_invariant(p: int, q: int, r: int) -> int:
    """Invariant bit of a pairwise non-residue triangle: 0 iff the three
    paired quartic symbols multiply to -1.  The hypotheses are checked
    here alone for the triangles of `f2graph.triangle_decompose`."""
    if len({p, q, r}) != 3:
        raise DomainError("triangle vertices must be distinct")
    for a, b in ((p, q), (q, r), (r, p)):
        if v_symbol(a, b) != -1:
            raise DomainError(f"({a}/{b}) = +1; triangle clause needs a "
                              "pairwise non-residue triple")
    product = quartic(p * q, r) * quartic(q * r, p) * quartic(r * p, q)
    return 0 if product == -1 else 1


def general_invariant(query) -> InvariantReport:
    """Evaluate the invariant of any member edge set, read as a GF(2)
    vector: an edge given twice cancels.

    The value is 0 exactly when prod over p in P of quartic(M_p, p) equals
    (-1)^k, where M_p multiplies the partners of p in the set, P is the
    support, and k counts non-residue edges.  Membership (even non-residue
    degrees) is recomputed, not trusted; it is what makes every quartic
    symbol in the product defined.
    """
    vec = set()
    for u, v in query:
        vec ^= {edge(u, v)}
    vec = frozenset(vec)
    odd, partners, k = _tally(vec)
    if odd:
        raise DomainError(f"edge set is outside the invariant group: odd "
                          f"non-residue degree at {odd}")
    support = sorted(partners)
    sign = prod(quartic(partners[p], p) for p in support)
    value = 0 if sign == (-1) ** k else 1

    if len(vec) == 1 and k == 0:
        clause = "edge"
        (u, v), = vec
        assert value == edge_invariant(u, v)
    elif len(vec) == 3 and len(support) == 3 and k == 3:
        clause = "triangle"
        assert value == triangle_invariant(*support)
    else:
        clause = "general"
    return InvariantReport(query=vec, value=value, clause=clause,
                           P=tuple(support), k=k)


def scholz_predict(p: int, q: int) -> Sign:
    """Predicted residue character of the fundamental unit of the first
    prime at the second: the product of the two quartic symbols."""
    return (-1) ** edge_invariant(p, q)


def scholz2_predict(p: int, q: int, r: int) -> Sign:
    """Predicted residue character of the fundamental unit of p*q at r,
    for a pairwise non-residue triple: minus the triple quartic product,
    which is symmetric, so the sorted triple shares the triangle memo."""
    return (-1) ** triangle_invariant(*sorted((p, q, r)))
