"""Exact multiquadratic arithmetic and exact square detection."""

import random
from fractions import Fraction
from math import prod

import pytest

from quadrec.arith import DomainError, gf2_reduce, prime_divisors, squarefree_kernel
from quadrec.mquad import (
    MQElement,
    MQField,
    field_containing,
    find_d,
    is_square,
)
from quadrec.pell import fundamental_unit


F35 = MQField((3, 5))
R3, R5, R15 = F35.sqrt_radicand(3), F35.sqrt_radicand(5), F35.sqrt_radicand(15)


def test_field_construction():
    assert F35.gens == (3, 5)
    assert F35.degree == 4
    assert MQField((2, 3, 5)).degree == 8
    with pytest.raises(DomainError):
        MQField((4,))  # not squarefree
    with pytest.raises(DomainError):
        MQField((1,))
    with pytest.raises(DomainError):
        MQField((2, 2))
    with pytest.raises(DomainError):
        MQField((2, 3, 6))  # dependent: 6 = 2*3 mod squares


def test_field_containing():
    f = field_containing([6, 10])
    assert f.gens == (6, 10) and f.degree == 4
    assert f.sqrt_radicand(15) * f.sqrt_radicand(15) == f.rational(15)
    g = field_containing([8, 18])  # kernels 2 and 2
    assert g.gens == (2,) and g.degree == 2
    with pytest.raises(DomainError):
        field_containing([0])


def reference_field_gens(values):
    """field_containing's generator choice as its own reduce loop made it:
    ascending squarefree kernels > 1, each kept when its prime vector is
    independent of the kept ones."""
    vals = sorted({squarefree_kernel(v) for v in values} - {1})
    primes = sorted({p for v in vals for p in prime_divisors(v)})
    index = {p: i for i, p in enumerate(primes)}
    gens, basis = [], []
    for v in vals:
        red, _ = gf2_reduce(sum(1 << index[p] for p in prime_divisors(v)), basis)
        if red:
            basis.append((red, 0))
            gens.append(v)
    return tuple(gens)


def test_field_containing_matches_the_reduce_loop():
    # products of a few small primes times a square, so that many lists
    # hold a value dependent on the ones before it
    rng = random.Random(31)
    for _ in range(500):
        values = [prod(rng.sample((2, 3, 5, 7, 11), rng.randint(0, 3))) * rng.randint(1, 4) ** 2
                  for _ in range(rng.randint(1, 7))]
        assert field_containing(values).gens == reference_field_gens(values), values


def test_multiplication_table():
    assert R3 * R5 == R15
    assert R3 * R15 == F35.rational(3) * R5
    assert (R3 + R5) * (R3 - R5) == F35.rational(-2)
    x = R3 + R5
    assert x * x == F35.rational(8) + 2 * R15


def test_rational_arithmetic_and_division():
    half = F35.rational(Fraction(1, 2))
    assert half + half == F35.rational(1)
    assert (R3 + R5) / 2 * 2 == R3 + R5
    assert R5 / Fraction(5, 3) == Fraction(3, 5) * R5
    with pytest.raises(ZeroDivisionError):
        R3 / 0
    assert (R3 + R5) ** 2 == F35.rational(8) + 2 * R15
    assert R3 ** 0 == F35.rational(1)
    assert (1 - R3) + (R3 - 1) == F35.rational(0)


def test_conjugation_by_signs():
    x = F35.rational(2) + 3 * R3 + Fraction(1, 2) * R5
    y = x.conjugate(0b01)  # flip the sqrt(3) generator
    assert y == F35.rational(2) - 3 * R3 + Fraction(1, 2) * R5
    z = x.conjugate(0b11)
    assert z == F35.rational(2) - 3 * R3 - Fraction(1, 2) * R5


def test_is_square_root_sign_is_exact():
    # the root returned is the one positive with every sqrt(g) > 0
    assert is_square((R3 + R5) ** 2) == R3 + R5  # sqrt3 + sqrt5 > 0
    assert is_square((R5 - R3) ** 2) == R5 - R3  # sqrt5 - sqrt3 > 0
    assert is_square((-R3 - R5) ** 2) == R3 + R5  # -sqrt3 - sqrt5 < 0
    # mixed signs, decided by the norm one level down: 4 - 2*sqrt6 < 0 and
    # 5 - 2*sqrt6 > 0
    f = MQField((2, 3))
    for a, sign in ((4, -1), (5, 1)):
        x = f.rational(a) - 2 * f.sqrt_radicand(6)
        assert is_square(x * x) == sign * x


def test_is_square_rationals():
    assert is_square(F35.rational(4)) == F35.rational(2)
    assert is_square(F35.rational(Fraction(9, 16))) == F35.rational(Fraction(3, 4))
    assert is_square(F35.rational(7)) is None
    assert is_square(R5 * R5) == R5
    with pytest.raises(DomainError):
        is_square(F35.rational(0))  # zero has no square class


def test_is_square_worked_instances():
    assert is_square(F35.rational(8) + 2 * R15) == R3 + R5
    assert is_square(F35.rational(24) + 6 * R15) == F35.rational(3) + R15
    assert is_square(R5) is None
    assert is_square(F35.rational(3) + R15) is None  # negative conjugate
    assert is_square(F35.rational(-4)) is None


def test_is_square_random_round_trip():
    rng = random.Random(2024)
    fields = [MQField((2,)), F35, MQField((2, 5)), MQField((2, 3, 5))]
    for _ in range(40):
        field = rng.choice(fields)
        y = field.rational(0)
        while y.is_zero():
            y = field.element({mask: Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                               for mask in range(field.degree)})
        root = is_square(y * y)
        assert root is not None
        assert root * root == y * y


def test_is_square_random_nonsquares():
    rng = random.Random(77)
    for _ in range(25):
        y = F35.element({mask: Fraction(rng.randint(-6, 6))
                         for mask in range(F35.degree)})
        if y.is_zero():
            continue
        # 7 is not a square in Q(sqrt3, sqrt5): its square class is fresh
        assert is_square(y * y * 7) is None


@pytest.mark.parametrize("gens", [(2, 3, 5, 7, 11), (2, 3, 5, 7, 11, 13),
                                  (3, 5, 6, 7, 11, 13, 17)])
def test_is_square_big_fields(gens):
    field = MQField(gens)
    rng = random.Random(len(gens))
    y = field.element({mask: Fraction(rng.randint(-5, 5), rng.randint(1, 2))
                       for mask in range(field.degree)})
    root = is_square(y * y)
    assert root in (y, -y)
    assert is_square(y * y * 19) is None  # 19 is a fresh square class
    assert is_square(-(y * y)) is None
    assert is_square(field.rational(4)) == field.rational(2)


def test_square_class_signature():
    sig = MQField((15,)).square_class_signature
    assert sig(3) == sig(5)
    assert sig(1) == sig(15)
    assert sig(6) == sig(10)
    assert sig(2) == sig(30)
    assert sig(3) != sig(6)
    assert sig(1) != sig(3)


def test_find_d_unit_instance():
    field = MQField((15,))
    u = fundamental_unit(15)
    eps = (field.rational(u.x) + field.sqrt_radicand(15) * u.y) / u.den
    assert find_d(eps, (2, 3, 5)) == 6
    # 6 * eps15 = 24 + 6 sqrt15 = (3 + sqrt15)^2, and d is the least in class
    assert find_d(eps * 6, (2, 3, 5)) == 1


def test_find_d_trivial_class():
    x = (R3 + R5) ** 2
    assert find_d(x, (2, 3, 5)) == 1
    with pytest.raises(DomainError):
        find_d(x, (2, 3, 4))  # 4 is not prime


def test_find_d_no_candidate():
    # nothing in the allowed set fixes sqrt2-ness inside Q(sqrt3, sqrt5)
    with pytest.raises(DomainError):
        find_d(F35.rational(2), (3, 5))


def test_element_hash_and_str():
    a = F35.rational(1) + R3
    b = F35.rational(1) + R3
    assert a == b and hash(a) == hash(b)
    assert "sqrt(3)" in str(a)
    assert a != R3
