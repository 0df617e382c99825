"""Exact multiquadratic arithmetic and exact square detection."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import isqrt, prod

import pytest

from quadrec import mquad
from quadrec.arith import (
    DomainError,
    gf2_reduce,
    is_perfect_square,
    prime_divisors,
    squarefree_kernel,
)
from quadrec.mquad import (
    MQElement,
    MQField,
    _inverse,
    _mul,
    _reduced,
    _sqrt,
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


def test_products_across_field_objects():
    # an equal field built anew takes the coercion path, not the
    # same-object one, and agrees with it; a different field is refused
    twin = MQField((3, 5))
    assert twin is not F35
    assert R3 * twin.sqrt_radicand(5) == R15 == R3 * R5
    assert R3 + twin.sqrt_radicand(5) == R3 + R5
    other = MQField((3, 7))
    with pytest.raises(DomainError, match="different fields"):
        R3 * other.sqrt_radicand(7)
    with pytest.raises(DomainError, match="different fields"):
        R3 + other.sqrt_radicand(7)


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
    sig = MQField((15,)).square_class
    assert sig(3) == sig(5)
    assert sig(1) == sig(15)
    assert sig(6) == sig(10)
    assert sig(2) == sig(30)
    assert sig(3) != sig(6)
    assert sig(1) != sig(3)
    with pytest.raises(DomainError):
        sig(0)


def test_radicand_table_against_brute_force():
    # generator lists over small primes, many of them dependent, and values
    # that also carry primes outside the field, checked by perfect-square
    # tests on the plain products
    rng = random.Random(18)
    primes = (2, 3, 5, 7, 11)
    built = refused = 0
    for _ in range(400):
        gens = [prod(rng.sample(primes, rng.randint(1, 3)))
                for _ in range(rng.randint(1, 5))]
        dependent = any(is_perfect_square(prod(g for i, g in enumerate(gens) if mask >> i & 1))
                        for mask in range(1, 1 << len(gens)))
        if dependent:
            with pytest.raises(DomainError):
                MQField(gens)
            refused += 1
            continue
        field = MQField(gens)
        built += 1
        values = [prod(rng.sample(primes + (13, 17), rng.randint(0, 3))) * rng.randint(1, 3) ** 2
                  for _ in range(6)]
        for m in values:
            hits = [S for S, w in enumerate(field.weights) if is_perfect_square(m * w)]
            assert len(hits) <= 1
            if hits:
                assert field.subset_with_kernel(m) == hits[0]
            else:
                with pytest.raises(DomainError):
                    field.subset_with_kernel(m)
        sig = field.square_class
        for a, b in combinations_with_replacement(values, 2):
            same = any(is_perfect_square(a * b * w) for w in field.weights)
            ka, kb = squarefree_kernel(a), squarefree_kernel(b)
            assert (sig(ka) == sig(kb)) == same, (gens, a, b)
    assert built > 200 and refused > 50


def test_find_d_unit_instance():
    field = MQField((15,))
    u = fundamental_unit(15)
    eps = (field.rational(u.x) + field.sqrt_radicand(15) * u.y) / u.den
    assert find_d(eps, (2, 3, 5)) == 6
    # 6 * eps15 = 24 + 6 sqrt15 = (3 + sqrt15)^2, and d is the least in class
    assert find_d(eps * 6, (2, 3, 5)) == 1


def test_find_d_reads_candidate_classes_without_factorising(monkeypatch):
    field = MQField((15,))
    u = fundamental_unit(15)
    eps = (field.rational(u.x) + field.sqrt_radicand(15) * u.y) / u.den
    calls = []
    monkeypatch.setattr(mquad, "squarefree_kernel",
                        lambda n: calls.append(n) or squarefree_kernel(n))
    assert find_d(eps, (2, 3, 5, 7)) == 6
    assert calls == []


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


# The generic tower kernels with no closed-form quadratic base case, the
# reference that the base cases must match: vectors of length 2^j over the
# first j generators, w the field's weight table.

def reference_mul(x, y, w):
    out = [0] * len(x)
    ys = [(j, c) for j, c in enumerate(y) if c]
    for i, a in enumerate(x):
        if a:
            for j, c in ys:
                out[i ^ j] += a * c * w[i & j]
    return out


def reference_norm(a, b, d, w):
    return [p - d * q for p, q in zip(reference_mul(a, a, w), reference_mul(b, b, w))]


def reference_inverse(x, w):
    if len(x) == 1:
        return ([1], x[0]) if x[0] > 0 else ([-1], -x[0])
    h = len(x) >> 1
    a, b = x[:h], x[h:]
    r, e = reference_inverse(reference_norm(a, b, w[h], w), w)
    return _reduced(reference_mul(a, r, w) + [-c for c in reference_mul(b, r, w)], e)


def reference_sqrt(x, w):
    if len(x) == 1:
        n = x[0]
        s = isqrt(n) if n >= 0 else -1
        return ([s], 1) if s * s == n else None
    h = len(x) >> 1
    d = w[h]
    a, b = x[:h], x[h:]
    if not any(b):
        got = reference_sqrt(a, w)
        if got is not None:
            return got[0] + [0] * h, got[1]
        got = reference_sqrt([d * c for c in a], w)
        if got is None:
            return None
        return [0] * h + got[0], got[1] * d
    got = reference_sqrt(reference_norm(a, b, d, w), w)
    if got is None:
        return None
    rc, ec = got
    for s in (1, -1):
        got = reference_sqrt([2 * ec * (ec * p + s * q) for p, q in zip(a, rc)], w)
        if got is not None:
            break
    else:
        return None
    ru, eu = got
    inv, den = reference_inverse(ru, w)
    v = reference_mul(b, inv, w)
    scale = 2 * ec * ec * eu * eu
    return _reduced([c * den for c in ru] + [c * scale for c in v],
                    2 * ec * eu * den)


KERNEL_WEIGHTS = [MQField(gens).weights for gens in
                  ((2,), (3,), (13,), (2, 3), (5, 13), (2, 7), (2, 3, 5), (3, 7, 11))]


def kernel_cases(seed):
    """(x, w) pairs: seeded random integer vectors of length 1, 2, 4 and 8,
    as squares, generator-times-squares, negated squares, fresh-prime
    multiples of squares, squares with a zero upper half, and plain random
    vectors (nearly all non-squares)."""
    rng = random.Random(seed)
    for w in KERNEL_WEIGHTS:
        for n in (1, 2, 4, 8):
            if n > len(w):
                continue
            for _ in range(60):
                y = [rng.randint(-12, 12) for _ in range(n)]
                if not any(y):
                    continue
                y2 = reference_mul(y, y, w)
                gen = w[1 << rng.randrange(n.bit_length() - 1)] if n > 1 else 1
                # an element of the subfield one generator down
                sub = [rng.randint(-12, 12) for _ in range(n // 2)] + [0] * (n - n // 2)
                u2 = reference_mul(sub, sub, w) if any(sub) else y2
                yield y2, w
                yield [gen * c for c in y2], w
                yield [-c for c in y2], w
                yield [17 * c for c in y2], w
                yield u2, w
                yield [gen * c for c in u2], w
                yield y, w


def test_mul_and_inverse_match_the_generic_kernels():
    rng = random.Random(5)
    for x, w in kernel_cases(11):
        y = [rng.randint(-30, 30) for _ in x]
        assert _mul(x, y, w) == reference_mul(x, y, w), (x, y, w)
        assert _mul(x, x, w) == reference_mul(x, x, w), (x, w)
        assert _inverse(x, w) == reference_inverse(x, w), (x, w)


def test_sqrt_matches_the_generic_kernel_up_to_sign():
    found = missing = 0
    for x, w in kernel_cases(12):
        got, want = _sqrt(x, w), reference_sqrt(x, w)
        assert (got is None) == (want is None), (x, w)
        if got is None:
            missing += 1
            continue
        found += 1
        (r, e), (rr, ee) = got, want
        assert e > 0
        # r/e = +-rr/ee, cross-multiplied
        scaled, ref = [c * ee for c in r], [c * e for c in rr]
        assert scaled in (ref, [-c for c in ref]), (x, w)
        assert reference_mul(r, r, w) == [c * e * e for c in x], (x, w)
    assert found > 1000 and missing > 1000


def test_quadratic_sqrt_worked_cases():
    w = MQField((2,)).weights
    assert _sqrt([3, 2], w) == ([1, 1], 1)  # (1 + sqrt2)^2
    assert _sqrt([3, -2], w) == ([1, -1], 1)
    assert _sqrt([9, 0], w) == ([3, 0], 1)
    assert _sqrt([18, 0], w) == ([0, 6], 2)  # (3*sqrt2)^2
    assert _sqrt([9, 6], w) is None  # 3*(1 + sqrt2)^2: square norm, no root
    assert _sqrt([-3, 2], w) is None  # negative under both embeddings
    assert _sqrt([2, 1], w) is None  # norm 2 is not a square
    assert _sqrt([1, 1], w) is None  # norm -1
    assert _sqrt([3, 0], w) is None
    assert _sqrt([-18, 0], w) is None
