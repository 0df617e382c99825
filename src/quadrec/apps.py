"""Unit-product squareness checks, candidate narrowing, norm-sign
prediction, and the biquadratic unit index.

Each function computes one side of a theorem and no verdict; the sweep
evaluators in `sweeps` set the two sides against each other.  Oracles,
from continued-fraction units and exact square detection:
`theorem_sq_check`, `candm_check` and `candp_check` return the least d
over a prime set that makes a unit product times d a square in the field
of its moduli, or None, the last two with the candidate prime set P; all
three ask `_unit_product_d`.  `kuroda_q` counts the unit index.
Predictions, from residue symbols: `norm_sign_predict` a norm sign and
`kuroda_predict` a unit index.  Each function takes only what it cannot
derive and checks its hypotheses from that, raising DomainError when one
fails.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from math import gcd, prod
from operator import mul

from .arith import (
    DomainError,
    Sign,
    is_perfect_square,
    is_squarefree,
    legendre,
    prime_divisors,
    quartic,
    squarefree_kernel,
    v_symbol,
)
from .invariants import edge_invariant
from .mquad import MQElement, MQField, field_containing, find_d, is_square
from .pell import fundamental_unit


def unit_product(moduli, field: MQField) -> MQElement:
    """The product of the fundamental units of the moduli as one exact
    element of the given field.  With sqrt(m) = r/e there, the unit
    (x + y*sqrt(m))/den is (x*e + y*r)/(den*e)."""
    def embedded(m):
        unit = fundamental_unit(m)
        root = field.sqrt_radicand(m)
        vec = [unit.y * c for c in root.vec]
        vec[0] += unit.x * root.den
        return MQElement(field, vec, unit.den * root.den)

    return reduce(mul, map(embedded, moduli))


def _unit_product_d(moduli, primes) -> int | None:
    """The least squarefree d over the primes that makes d times the
    product of the units of the moduli a square in the field of the
    sqrt(m_i), or None when no such d exists (`find_d`)."""
    return find_d(unit_product(moduli, field_containing(moduli)), primes)


def theorem_sq_check(moduli) -> int | None:
    """If the moduli are distinct squarefree integers > 1 whose product is a
    perfect square, and every unit has norm -1, the product of the units
    must be a square in the field generated by the square roots of the
    primes of the moduli.  By Kummer theory (Lang, Algebra, ch. VI §8) an
    x of the field F of the sqrt(m_i) is a square in F(sqrt(p_1), ...,
    sqrt(p_t)) exactly when x*d is a square in F for some d over the p_i.
    Returns the least such d for the product, or None."""
    moduli = tuple(moduli)
    if not moduli:
        raise DomainError("need at least one modulus")
    for m in moduli:
        if m < 2 or not is_squarefree(m):
            raise DomainError(f"modulus {m} is not squarefree > 1")
        if fundamental_unit(m).norm != -1:
            raise DomainError(f"norm of eps_{m} is +1; every unit must have norm -1")
    if len(set(moduli)) != len(moduli):
        raise DomainError("moduli must be distinct")
    if not is_perfect_square(prod(moduli)):
        raise DomainError("the product of the moduli must be a perfect square")
    primes = sorted({p for m in moduli for p in prime_divisors(m)})
    assert all(p % 4 != 3 for p in primes), \
        "norm -1 already excludes primes = 3 mod 4"
    return _unit_product_d(moduli, primes)


def _require_split(m: int, n: int) -> None:
    """The hypotheses on a split m*n: m and n squarefree positive and
    coprime, and m*n > 1."""
    if not (is_squarefree(m) and is_squarefree(n)):
        raise DomainError(f"({m},{n}): both entries must be squarefree positive")
    if gcd(m, n) != 1:
        raise DomainError(f"({m},{n}): entries must be coprime")
    if m * n < 2:
        raise DomainError(f"({m},{n}): trivial product")


def _cross_nonresidues(m: int, n: int):
    """The primes p | m with (n/p) = -1, then the primes q | n with
    (m/q) = -1, lazily."""
    return (p for a, b in ((m, n), (n, m)) for p in prime_divisors(a)
            if legendre(b, p) == -1)


def candm_check(pairs) -> tuple[int | None, tuple[int, ...]]:
    """Candidate narrowing's oracle for pairs (m_i, n_i) whose units have
    norm -1 and whose moduli m_i*n_i multiply to a square: (d, P).  The
    theorem: the primes of d meet P evenly exactly when the quartic
    invariant of the XOR of the complete bipartite edge sets between the
    primes of m_i and of n_i vanishes.

    d is the least squarefree d over the primes of the moduli that makes d
    times the product of the units of m_i*n_i a square in the field of the
    sqrt(m_i*n_i), by exhaustive square tests, or None when no such d
    exists; the parity of its primes in P is the same for every d of its
    square class.  P is the sorted set of primes that are cross
    non-residues in their pairs: a prime of m_i with (n_i/p) = -1, or of
    n_i with (m_i/q) = -1.  A prime that is one in
    some pair and not in another admits no P, and is refused; so each prime
    has one status in all its pairs, an even number of them, and the XOR
    above always lies in the invariant group.
    """
    pairs = tuple((int(m), int(n)) for m, n in pairs)
    if not pairs:
        raise DomainError("need at least one (m, n) pair")
    for m, n in pairs:
        _require_split(m, n)
        if fundamental_unit(m * n).norm != -1:
            raise DomainError(f"norm of eps_{m * n} is +1; hypothesis needs -1")
    moduli = [m * n for m, n in pairs]
    total = prod(moduli)
    if not is_perfect_square(total):
        raise DomainError("the product of all m_i*n_i must be a perfect square")
    P, outside = set(), set()
    for m, n in pairs:
        cross = set(_cross_nonresidues(m, n))
        P |= cross
        outside.update(p for p in prime_divisors(m) + prime_divisors(n) if p not in cross)
    if P & outside:
        raise DomainError(f"prime {min(P & outside)} is a cross non-residue in "
                          f"one pair and not in another")
    return _unit_product_d(moduli, prime_divisors(total)), tuple(sorted(P))


def candp_check(m: int, n: int) -> tuple[int | None, tuple[int, ...]]:
    """The oracle of positive-norm candidate narrowing for a split m*n
    whose unit has norm +1, every prime of m 1 mod 4: (d, P).  d is the
    least squarefree d over the primes of m*n, and 2 when n = 3 (mod 4),
    that makes d*eps_{m*n} a square in Q(sqrt(m*n)), or None when no such d
    exists; P is the sorted set of cross non-residue primes, plus 2 when
    m = 5 (mod 8) and n = 3 (mod 4).  The theorem: the primes of d meet P
    evenly."""
    _require_split(m, n)
    for p in prime_divisors(m):
        if p % 4 != 1:
            raise DomainError(f"prime {p} | m is not 1 mod 4")
    if fundamental_unit(m * n).norm != 1:
        raise DomainError(f"norm of eps_{m * n} is -1; hypothesis needs +1")
    P = set(_cross_nonresidues(m, n))
    if m % 8 == 5 and n % 4 == 3:
        P.add(2)
    allowed = prime_divisors(2 * m * n) if n % 4 == 3 else prime_divisors(m * n)
    return _unit_product_d((m * n,), allowed), tuple(sorted(P))


def norm_sign_predict(m: int, n: int) -> Sign | None:
    """Predict norm +1 for the unit of m*n when all cross Legendre symbols
    are +1 and the paired quartic product is -1; no prediction otherwise."""
    _require_split(m, n)
    for p in prime_divisors(m) + prime_divisors(n):
        if p % 4 == 3:
            raise DomainError(f"prime divisor {p} is 3 mod 4")
    if next(_cross_nonresidues(m, n), None) is not None:
        return None
    sign = prod(quartic(n, p) for p in prime_divisors(m)) \
        * prod(quartic(m, q) for q in prime_divisors(n))
    return 1 if sign == -1 else None


class QIndex(namedtuple("QIndex", "value witness_exponents")):
    """Unit index of a real biquadratic field, with its witness subgroup."""

    __slots__ = ()

    def __new__(cls, value: int, witness_exponents: frozenset):
        group = set(witness_exponents) | {(0, 0, 0)}
        assert len(group) == value
        for a in group:
            for b in group:
                assert tuple(x ^ y for x, y in zip(a, b)) in group, \
                    "witness set must be closed under exponent addition"
        assert value in (1, 2, 4), f"unit index {value} out of range"
        return tuple.__new__(cls, (value, witness_exponents))


def kuroda_q(d1: int, d2: int) -> QIndex:
    """Unit index of Q(sqrt(d1), sqrt(d2)) over the units of its three
    quadratic subfields, of radicands d1, d2 and the squarefree kernel d3
    of d1*d2, computed by exact square tests of the seven nontrivial unit
    products.  For squarefree d1 != d2 > 1, d3 is > 1 and distinct from
    both.  Each unit, so each product, is > 1 under the embedding with
    every sqrt(g_i) > 0; minus a product is negative there and never a
    square, so only the products themselves are tested.  Product e is
    product e-without-its-lowest-unit times that unit, one multiplication
    each."""
    for d in (d1, d2):
        if d < 2 or not is_squarefree(d):
            raise DomainError(f"{d} is not squarefree > 1")
    if d1 == d2:
        raise DomainError("the two quadratic subfields must be distinct")
    ds = (d1, d2, squarefree_kernel(d1 * d2))
    field = field_containing(ds)
    units = [unit_product((d,), field) for d in ds]
    products = [None] * 8
    witnesses = set()
    for e in range(1, 8):
        low = e & -e
        unit = units[low.bit_length() - 1]
        products[e] = unit if e == low else products[e ^ low] * unit
        if is_square(products[e]) is not None:
            witnesses.add((e & 1, e >> 1 & 1, e >> 2 & 1))
    return QIndex(len(witnesses) + 1, frozenset(witnesses))


def kuroda_predict(p: int, q: int, r: int) -> int:
    """The predicted unit index of Q(sqrt(p), sqrt(qr)) for distinct primes
    with (p/q) = +1 and (q/r) = -1: 1 exactly when the unit of pqr has
    norm -1 and the edge invariant of (p, q) is 1 (the paired quartic
    product is -1), else 2.  `kuroda_q(p, q * r)` counts it."""
    if len({p, q, r}) != 3:
        raise DomainError("need three distinct primes")
    if v_symbol(p, q) != 1:
        raise DomainError(f"({p}/{q}) = -1; the example needs a residue pair")
    if v_symbol(q, r) != -1:
        raise DomainError(f"({q}/{r}) = +1; the example needs a non-residue pair")
    norm = fundamental_unit(p * q * r).norm
    return 1 if (norm == -1 and edge_invariant(p, q) == 1) else 2
