"""Unit-product squareness checks, candidate narrowing, norm-sign
prediction, and the biquadratic unit index.

Every function here cross-validates a closed-form prediction against
independent exact computation (continued-fraction units on one side,
exact square detection or quartic symbols on the other).  Hypotheses
are always recomputed; a result object with ok/consistent False is a loud
verification failure, not a soft warning.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, prod

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
from .pell import QuadUnit, fundamental_unit


def unit_element(unit: QuadUnit, field: MQField) -> MQElement:
    """The unit (x + y*sqrt(m))/den as an exact element of the given field:
    with sqrt(m) = r/e, it is (x*e + y*r)/(den*e)."""
    root = field.sqrt_radicand(unit.m)
    vec = [unit.y * c for c in root.vec]
    vec[0] += unit.x * root.den
    return MQElement(field, vec, unit.den * root.den)


class UnitFamily(namedtuple("UnitFamily", "moduli norms product_square")):
    """Several fundamental units considered together."""

    __slots__ = ()

    def __new__(cls, moduli: tuple[int, ...], norms: tuple[Sign, ...],
                product_square: bool):
        if len(moduli) != len(norms):
            raise DomainError("one norm per modulus")
        for m in moduli:
            if m < 2 or not is_squarefree(m):
                raise DomainError(f"modulus {m} is not squarefree > 1")
        if len(set(moduli)) != len(moduli):
            raise DomainError("moduli must be distinct")
        if product_square != is_perfect_square(prod(moduli)):
            raise DomainError("product_square flag contradicts the moduli")
        return tuple.__new__(cls, (moduli, norms, product_square))


def unit_family(moduli) -> UnitFamily:
    ms = tuple(moduli)
    norms = tuple(fundamental_unit(m).norm for m in ms)
    return UnitFamily(ms, norms, is_perfect_square(prod(ms)))


class SquareCheck(namedtuple("SquareCheck", "field element root")):
    """Outcome of one exact squareness verification: root is None when
    element is not a square in field."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.root is not None


def theorem_sq_check(family: UnitFamily) -> SquareCheck:
    """If every norm is -1 and the product of the moduli is a perfect
    square, the product of the units must be a square in the field
    generated by the square roots of the individual primes."""
    if any(n != -1 for n in family.norms):
        raise DomainError("every unit in the family must have norm -1")
    if not family.product_square:
        raise DomainError("the product of the moduli must be a perfect square")
    primes = sorted({p for m in family.moduli for p in prime_divisors(m)})
    assert all(p % 4 != 3 for p in primes), \
        "norm -1 already excludes primes = 3 mod 4"
    field = field_containing(primes)
    first, *rest = family.moduli
    element = unit_element(fundamental_unit(first), field)
    for m in rest:
        element = element * unit_element(fundamental_unit(m), field)
    return SquareCheck(field, element, is_square(element))


def positive_norm_square_check(m: int) -> SquareCheck:
    """A unit of norm +1 must be a square in the field generated by the
    square roots of its primes, widened by sqrt(2) when m = 3 mod 4."""
    unit = fundamental_unit(m)
    if unit.norm != 1:
        raise DomainError(f"norm of eps_{m} is -1; this check needs norm +1")
    gens = set(prime_divisors(m))
    if m % 4 == 3:
        gens.add(2)
    field = field_containing(sorted(gens))
    element = unit_element(unit, field)
    return SquareCheck(field, element, is_square(element))


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


def candm_check(pairs, P) -> CandmResult:
    """Theorem: the prime set of d meets P evenly exactly when the
    bipartite invariant sum vanishes.

    d is pinned down by an exhaustive square search: the product of the
    units of m_i*n_i times d must be a square in the field of the
    sqrt(m_i*n_i).  The membership parity |D cap P| is invariant under the
    square-class ambiguity in d, so the verdict is well defined.
    """
    pairs = tuple((int(m), int(n)) for m, n in pairs)
    P = frozenset(P)
    if not pairs:
        raise DomainError("need at least one (m, n) pair")
    for m, n in pairs:
        _require_split(m, n)
        if fundamental_unit(m * n).norm != -1:
            raise DomainError(f"norm of eps_{m * n} is +1; hypothesis needs -1")
    total = prod(m * n for m, n in pairs)
    if not is_perfect_square(total):
        raise DomainError("the product of all m_i*n_i must be a perfect square")
    for m, n in pairs:
        if P.intersection(prime_divisors(m) + prime_divisors(n)) \
                != set(_cross_nonresidues(m, n)):
            raise DomainError(f"P violates its defining condition at ({m},{n})")

    query: frozenset = frozenset()
    for m, n in pairs:
        block = {edge(p, q) for p in prime_divisors(m) for q in prime_divisors(n)}
        query = query ^ block
    report = general_invariant(query)

    field = field_containing([m * n for m, n in pairs])
    (m, n), *rest = pairs
    element = unit_element(fundamental_unit(m * n), field)
    for m, n in rest:
        element = element * unit_element(fundamental_unit(m * n), field)
    allowed = prime_divisors(total)
    d = find_d(element, allowed)
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
    field = MQField((m * n,))
    element = unit_element(fundamental_unit(m * n), field)
    d = find_d(element, allowed)
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


def kuroda_q(d1: int, d2: int, d3: int) -> QIndex:
    """Unit index of Q(sqrt(d1), sqrt(d2)) over the units of its three
    quadratic subfields, computed by exact square tests of the seven
    nontrivial unit products.  Each unit, so each product, is > 1 under the
    embedding with every sqrt(g_i) > 0; minus a product is negative there
    and never a square, so only the products themselves are tested.
    Product e is product e-without-its-lowest-unit times that unit, one
    multiplication each."""
    ds = (d1, d2, d3)
    for d in ds:
        if d < 2 or not is_squarefree(d):
            raise DomainError(f"{d} is not squarefree > 1")
    if len(set(ds)) != 3:
        raise DomainError("the three quadratic subfields must be distinct")
    if squarefree_kernel(d1 * d2) != d3:
        raise DomainError("third radicand must be the squarefree kernel of "
                          "the product of the first two")
    field = field_containing(ds)
    units = [unit_element(fundamental_unit(d), field) for d in ds]
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
    computed = kuroda_q(p, q * r, p * q * r)
    return KurodaExampleResult(p, q, r, formula, computed)

