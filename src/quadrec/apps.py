"""Unit-product squareness checks, candidate narrowing, norm-sign
prediction, and the biquadratic unit index.

Every function here cross-validates a closed-form prediction against
independent exact computation (continued-fraction units on one side,
exact square detection or quartic symbols on the other).  Each function
takes only what it cannot derive and checks its hypotheses from that,
raising DomainError when one fails.  The square checks return a root or
None; None, like a consistent or parity_even that is False, is a loud
verification failure, not a soft warning.
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
from .f2graph import edge
from .invariants import edge_invariant, general_invariant
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


def theorem_sq_check(moduli) -> MQElement | None:
    """If the moduli are distinct squarefree integers > 1 whose product is a
    perfect square, and every unit has norm -1, the product of the units
    must be a square in the field generated by the square roots of the
    primes of the moduli.  Returns a square root of the product there, or
    None."""
    moduli = tuple(moduli)
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
    return is_square(unit_product(moduli, field_containing(primes)))


def positive_norm_square_check(m: int) -> MQElement | None:
    """A unit of norm +1 must be a square in the field generated by the
    square roots of its primes, widened by sqrt(2) when m = 3 mod 4.
    Returns a square root of the unit there, or None."""
    if fundamental_unit(m).norm != 1:
        raise DomainError(f"norm of eps_{m} is -1; this check needs norm +1")
    gens = set(prime_divisors(m))
    if m % 4 == 3:
        gens.add(2)
    return is_square(unit_product((m,), field_containing(sorted(gens))))


class CandmResult(namedtuple("CandmResult", "pairs P invariant d intersection")):
    """Candidate-narrowing verdict for a family of unit products."""

    __slots__ = ()

    @property
    def parity_even(self) -> bool:
        return len(self.intersection) % 2 == 0

    @property
    def consistent(self) -> bool:
        return self.parity_even == (self.invariant.value == 0)


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


def candm_check(pairs) -> CandmResult:
    """Theorem: the prime set of d meets P evenly exactly when the
    bipartite invariant sum vanishes.

    P is the set of primes that are cross non-residues in their pairs: a
    prime of m_i with (n_i/p) = -1, or of n_i with (m_i/q) = -1.  A prime
    that is one in some pair and not in another admits no P, and is
    refused.  d is pinned down by an exhaustive square search: the product
    of the units of m_i*n_i times d must be a square in the field of the
    sqrt(m_i*n_i).  The membership parity |D cap P| is invariant under the
    square-class ambiguity in d, so the verdict is well defined.
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

    query: frozenset = frozenset()
    for m, n in pairs:
        block = {edge(p, q) for p in prime_divisors(m) for q in prime_divisors(n)}
        query = query ^ block
    report = general_invariant(query)

    d = find_d(unit_product(moduli, field_containing(moduli)), prime_divisors(total))
    inter = tuple(sorted(set(prime_divisors(d)) & P))
    return CandmResult(pairs, tuple(sorted(P)), report, d, inter)


class CandpResult(namedtuple("CandpResult", "m n P d intersection")):
    """Candidate-narrowing verdict for a single positive-norm unit."""

    __slots__ = ()

    @property
    def parity_even(self) -> bool:
        return len(self.intersection) % 2 == 0


def candp_check(m: int, n: int) -> CandpResult:
    """Positive-norm analogue: P is built from the non-residue divisors
    (plus 2 in the one stated congruence case) and the theorem asserts
    |D cap P| is always even."""
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
    d = find_d(unit_product((m * n,), MQField((m * n,))), allowed)
    inter = tuple(sorted(set(prime_divisors(d)) & P))
    return CandpResult(m, n, tuple(sorted(P)), d, inter)


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


class KurodaExampleResult(namedtuple("KurodaExampleResult", "p q r formula_value computed")):
    """Agreement between the closed-form unit index and the exhaustive one."""

    __slots__ = ()

    @property
    def consistent(self) -> bool:
        return self.formula_value == self.computed.value


def kuroda_example_check(p: int, q: int, r: int) -> KurodaExampleResult:
    """For Q(sqrt(p), sqrt(qr)) with (p/q) = +1 and (q/r) = -1: the index
    is 1 exactly when the unit of pqr has norm -1 and the edge invariant of
    (p, q) is 1 (the paired quartic product is -1), else 2.  Both sides
    computed independently."""
    if len({p, q, r}) != 3:
        raise DomainError("need three distinct primes")
    if v_symbol(p, q) != 1:
        raise DomainError(f"({p}/{q}) = -1; the example needs a residue pair")
    if v_symbol(q, r) != -1:
        raise DomainError(f"({q}/{r}) = +1; the example needs a non-residue pair")
    norm = fundamental_unit(p * q * r).norm
    formula = 1 if (norm == -1 and edge_invariant(p, q) == 1) else 2
    computed = kuroda_q(p, q * r)
    return KurodaExampleResult(p, q, r, formula, computed)

