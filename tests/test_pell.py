"""Fundamental unit computation, unit symbols, cube congruences, memo."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from math import gcd, isqrt

from quadrec import pell
from quadrec.arith import (
    DomainError,
    is_squarefree,
    legendre,
    prime_divisors,
    primes_in_v,
    sqrt_2adic,
    sqrt_mod,
)
from quadrec.pell import (
    QuadUnit,
    _cf_fundamental_triple,
    check_unit_congruences,
    compute_fundamental_unit,
    fundamental_unit,
    unit_symbol,
)


def smallest_unit_by_scan(m):
    """Reference oracle: scan y upward for the least unit > 1.

    The integral scan always terminates.  A half-integer unit, when one
    exists, is smaller than the integral one, so that scan can stop at
    roughly twice the integral y.
    """
    def scan(den, y_limit):
        y = 0
        while y_limit is None or y <= y_limit:
            y += 1
            for norm in (-1, 1):  # smaller x first
                x2 = m * y * y + norm * den * den
                if x2 <= 0:
                    continue
                x = isqrt(x2)
                if x * x != x2:
                    continue
                if den == 2 and (x % 2 == 0 or y % 2 == 0):
                    continue  # reducible to the integral shape
                return (x, y, den, norm)
        return None

    best = scan(1, None)
    if m % 4 == 1:
        half = scan(2, 2 * best[1] + 2)
        if half is not None:
            # floats are plenty to separate distinct units
            if (half[0] + half[1] * m ** 0.5) / 2 < best[0] + best[1] * m ** 0.5:
                best = half
    return best


@pytest.mark.parametrize("m", [m for m in range(2, 120) if is_squarefree(m) and m > 1])
def test_fundamental_unit_matches_scan(m):
    u = fundamental_unit(m)
    assert (u.x, u.y, u.den, u.norm) == smallest_unit_by_scan(m)


def full_walk_triple(m):
    """The continued-fraction routine as it stood before the one-column walk:
    from (P0, Q0), key every state until one repeats, then multiply the full
    2x2 convergent matrix over the period that starts at the repeated state."""
    if m % 4 == 1:
        delta = m
        p_state, q_state = 1, 2
    else:
        delta = 4 * m
        p_state, q_state = 0, 2
    s = isqrt(delta)
    seen = {}
    history = []
    while (p_state, q_state) not in seen:
        seen[(p_state, q_state)] = len(history)
        a = (p_state + s) // q_state
        history.append((p_state, q_state, a))
        p_next = a * q_state - p_state
        q_next = (delta - p_next * p_next) // q_state
        p_state, q_state = p_next, q_next
    j = seen[(p_state, q_state)]
    mat_a, mat_b, mat_c, mat_d = 1, 0, 0, 1
    for _, _, a in history[j:]:
        mat_a, mat_b, mat_c, mat_d = mat_a * a + mat_b, mat_a, mat_c * a + mat_d, mat_c
    pj, qj = history[j][0], history[j][1]
    x2 = mat_c * pj + mat_d * qj
    y2 = mat_c if delta == m else 2 * mat_c
    g = gcd(gcd(x2, y2), qj)
    return x2 // g, y2 // g, qj // g


def test_one_column_walk_matches_full_walk_below_20000():
    for m in range(2, 20000):
        if is_squarefree(m):
            assert _cf_fundamental_triple(m) == full_walk_triple(m), m


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=10 ** 7))
def test_one_column_walk_matches_full_walk_up_to_ten_million(m):
    assume(is_squarefree(m))
    assert _cf_fundamental_triple(m) == full_walk_triple(m)


def test_frozen_textbook_units():
    assert fundamental_unit(2) == QuadUnit(2, 1, 1, 1, -1)
    assert fundamental_unit(3) == QuadUnit(3, 2, 1, 1, 1)
    assert fundamental_unit(5) == QuadUnit(5, 1, 1, 2, -1)
    assert fundamental_unit(13) == QuadUnit(13, 3, 1, 2, -1)
    assert fundamental_unit(15) == QuadUnit(15, 4, 1, 1, 1)
    assert fundamental_unit(65) == QuadUnit(65, 8, 1, 1, -1)
    assert fundamental_unit(221) == QuadUnit(221, 15, 1, 2, 1)
    # the classic large ones
    assert fundamental_unit(94) == QuadUnit(94, 2143295, 221064, 1, 1)
    assert fundamental_unit(106) == QuadUnit(106, 4005, 389, 1, -1)


def test_a_unit_of_norm_minus_1_has_no_prime_3_mod_4():
    # x^2 - m*y^2 = -den^2 with den 1 or 2: -1 is a square mod each odd p | m
    count = 0
    for m in range(2, 10 ** 4):
        if is_squarefree(m) and fundamental_unit(m).norm == -1:
            assert all(p % 4 != 3 for p in prime_divisors(m)), m
            count += 1
    assert count == 1244


def test_quad_unit_validates():
    with pytest.raises(DomainError):
        QuadUnit(5, 3, 1, 1, -1)  # 9 - 5 != -1
    with pytest.raises(DomainError):
        QuadUnit(8, 3, 1, 1, 1)  # not squarefree
    with pytest.raises(DomainError):
        QuadUnit(7, 8, 3, 2, 1)  # den 2 needs m = 1 (mod 4)
    with pytest.raises(DomainError):
        compute_fundamental_unit(12)
    with pytest.raises(DomainError):
        compute_fundamental_unit(1)


def test_cubed_coordinates():
    # eps_5^3 = 2 + sqrt(5), eps_13^3 = 18 + 5 sqrt(13)
    assert fundamental_unit(5).cubed_coordinates() == (2, 1)
    assert fundamental_unit(13).cubed_coordinates() == (18, 5)
    # (4 + sqrt17)^3 = 64 + 48 sqrt17 + 204 + 17 sqrt17
    assert fundamental_unit(17).cubed_coordinates() == (268, 65)


def test_unit_symbol_spot_values():
    assert unit_symbol(5, 29) == 1
    assert unit_symbol(13, 17) == -1
    assert unit_symbol(10, 13) == 1
    assert unit_symbol(17, 2) == -1
    assert unit_symbol(2, 17) == -1  # eps_2 = 1 + sqrt2, sqrt2 = 6 mod 17, (7/17) = -1


def reduce_at(unit, root, modulus):
    """eps reduced mod `modulus` at the square root `root` of m, written out
    apart from `unit_symbol`."""
    return (unit.x + unit.y * root) * pow(unit.den, -1, modulus) % modulus


@st.composite
def odd_split_pairs(draw):
    """(m, p): odd p in V and squarefree m < 10^4 split at p."""
    p = draw(st.sampled_from(primes_in_v(200)[1:]))
    m = draw(st.integers(min_value=2, max_value=9999))
    assume(is_squarefree(m) and legendre(m, p) == 1)
    return m, p


@settings(max_examples=300)
@given(odd_split_pairs())
def test_unit_symbol_root_independence(pair):
    m, p = pair
    other = p - sqrt_mod(m, p)
    assert (other * other - m) % p == 0
    assert legendre(reduce_at(fundamental_unit(m), other, p), p) == unit_symbol(m, p)


@settings(max_examples=150)
@given(st.integers(min_value=1, max_value=1249).map(lambda k: 8 * k + 1))
def test_unit_symbol_at_two_both_roots(m):
    assume(is_squarefree(m))
    other = (16 - sqrt_2adic(m, 4)) % 16
    assert (other * other - m) % 16 == 0
    # den = 1 when m = 1 (mod 8)
    assert legendre(reduce_at(fundamental_unit(m), other, 8), 2) == unit_symbol(m, 2)


def test_unit_symbol_domain():
    with pytest.raises(DomainError):
        unit_symbol(5, 7)  # 7 = 3 (mod 4)
    with pytest.raises(DomainError):
        unit_symbol(2, 5)  # (2/5) = -1, unit coordinates not p-integral
    with pytest.raises(DomainError):
        unit_symbol(5, 2)  # 5 != 1 (mod 8)


def test_unit_symbol_divides_modulus():
    with pytest.raises(DomainError):
        unit_symbol(29, 29)


@pytest.mark.parametrize("m,p", [(2, 5), (5, 13), (3, 17),  # (m/p) = -1
                                 (29, 29), (65, 13), (10, 5)])  # p | m
def test_unit_symbol_rejects_a_prime_that_does_not_split(m, p):
    with pytest.raises(DomainError, match="does not split"):
        unit_symbol(m, p)


def test_check_unit_congruences_known_good():
    # the names of the broken claims: none, for each of these m
    for m in (5, 13, 17, 29, 37, 41, 53, 61, 65, 85):
        assert check_unit_congruences(m) == (), m


def test_divisor_certificate_matches_factorisation():
    # the norm relation gives x^2 + 1 = m*y^2 for the cube, so every prime
    # of the odd number m*y is 1 mod 4; below 200 the second-largest prime
    # of m*y is at most 569
    checked = 0
    for m in range(3, 200, 2):
        if not is_squarefree(m) or fundamental_unit(m).norm != -1:
            continue
        _, y3 = fundamental_unit(m).cubed_coordinates()
        assert all(p % 4 == 1 for p in prime_divisors(m * y3)), m
        checked += 1
    assert checked > 20


def test_check_unit_congruences_domain():
    with pytest.raises(DomainError):
        check_unit_congruences(3)  # norm +1
    with pytest.raises(DomainError):
        check_unit_congruences(10)  # even
    with pytest.raises(DomainError):
        check_unit_congruences(2)


def test_fundamental_unit_fills_and_reads_the_memo(monkeypatch):
    fundamental_unit.cache_clear()
    computed = []
    compute = pell.compute_fundamental_unit
    # looked up through the module global, where a tracer can wrap it
    monkeypatch.setattr(pell, "compute_fundamental_unit",
                        lambda m: computed.append(m) or compute(m))
    u = fundamental_unit(65)
    assert fundamental_unit(65) is u and computed == [65]
    assert fundamental_unit.cache_info().currsize == 1 and u == compute(65)
