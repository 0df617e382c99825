"""Symbol and modular arithmetic tests against brute-force oracles."""

import random
from functools import reduce
from itertools import combinations
from operator import xor

import pytest

from quadrec import arith
from quadrec.arith import (
    DomainError,
    factorize,
    gf2_kernel,
    is_prime,
    is_perfect_square,
    is_squarefree,
    jacobi,
    legendre,
    prime_divisors,
    primes_in_v,
    primes_up_to,
    quartic,
    sqrt_2adic,
    sqrt_mod,
    squarefree_kernel,
    v_symbol,
)


def brute_legendre(m, p):
    # squares mod an odd prime, the definition itself
    m %= p
    if m == 0:
        raise ValueError
    return 1 if any(x * x % p == m for x in range(1, p)) else -1


def brute_quartic(m, p):
    m %= p
    return 1 if any(pow(x, 4, p) == m for x in range(1, p)) else -1


def test_legendre_matches_brute_force():
    for p in primes_up_to(80):
        if p == 2:
            continue
        for m in range(-2 * p, 2 * p):
            if m % p == 0:
                continue
            assert legendre(m, p) == brute_legendre(m, p), (m, p)


def test_legendre_at_two_mod8_table():
    for m in range(-40, 40):
        if m % 2 == 0:
            continue
        expected = 1 if m % 8 in (1, 7) else -1
        assert legendre(m, 2) == expected


def test_legendre_rejects_bad_inputs():
    with pytest.raises(DomainError):
        legendre(4, 2)  # even m has no mod-8 class in the table
    with pytest.raises(DomainError):
        legendre(5, 15)
    with pytest.raises(DomainError):
        legendre(29, 5 * 29)
    assert legendre(10, 5) == 0  # usual convention when p divides m


def test_jacobi_is_multiplicative_in_the_denominator():
    rng = random.Random(7)
    odd_primes = [p for p in primes_up_to(60) if p > 2]
    for _ in range(300):
        ps = rng.sample(odd_primes, rng.randint(1, 3))
        n = 1
        for p in ps:
            n *= p
        m = rng.randrange(1, 2 * n)
        if any(m % p == 0 for p in ps):
            continue
        want = 1
        for p in ps:
            want *= brute_legendre(m, p)
        assert jacobi(m, n) == want, (m, n)


def test_jacobi_domain():
    assert jacobi(1, 1) == 1
    assert jacobi(5, 15) == 0  # shared factor
    with pytest.raises(DomainError):
        jacobi(3, 6)
    with pytest.raises(DomainError):
        jacobi(3, -5)


def test_quartic_matches_fourth_power_search():
    for p in primes_up_to(120):
        if p % 4 != 1:
            continue
        for m in range(1, p):
            if brute_legendre(m, p) != 1:
                continue
            assert quartic(m, p) == brute_quartic(m, p), (m, p)


def test_quartic_at_two_mod16_table():
    # defined on m = +-1 (mod 8); +1 at +-1 (mod 16), -1 at +-9 (mod 16)
    for m in range(1, 70, 2):
        if m % 8 not in (1, 7):
            with pytest.raises(DomainError):
                quartic(m, 2)
            continue
        expected = 1 if m % 16 in (1, 15) else -1
        assert quartic(m, 2) == expected


def test_quartic_needs_a_residue():
    with pytest.raises(DomainError):
        quartic(2, 5)  # (2/5) = -1
    with pytest.raises(DomainError):
        quartic(5, 7)  # 7 = 3 mod 4
    with pytest.raises(DomainError):
        quartic(10, 5)


def test_v_symbol_is_symmetric():
    ps = primes_in_v(150)
    for i, p in enumerate(ps):
        for q in ps[i + 1:]:
            assert v_symbol(p, q) == v_symbol(q, p)
            assert v_symbol(p, q) in (-1, 1)


def test_v_symbol_spot_values():
    assert v_symbol(5, 29) == 1
    assert v_symbol(2, 17) == 1
    assert v_symbol(2, 5) == -1
    assert v_symbol(5, 13) == -1
    assert v_symbol(13, 17) == 1
    with pytest.raises(DomainError):
        v_symbol(3, 5)
    with pytest.raises(DomainError):
        v_symbol(5, 5)


def independent_symbol(p, q):
    """(p/q) on V without legendre: the mod-8 table when 2 is one of the
    pair, else jacobi, which reciprocity makes symmetric on V."""
    if 2 in (p, q):
        odd = p * q // 2
        return 1 if odd % 8 in (1, 7) else -1
    return jacobi(p, q)


def test_v_symbol_memo_cold_and_warm_in_both_orders():
    pairs = list(combinations(primes_in_v(500), 2))
    memo = arith._v_symbol
    memo.cache_clear()
    for p, q in pairs:
        want = independent_symbol(p, q)
        assert memo.__wrapped__(p, q) == want
        assert v_symbol(p, q) == want  # cold: a miss
        assert v_symbol(q, p) == want  # the swapped order reads the same slot
    assert memo.cache_info()[:2] == (len(pairs), len(pairs))
    for p, q in pairs:
        assert v_symbol(q, p) == v_symbol(p, q) == independent_symbol(p, q)
    assert memo.cache_info()[:2] == (3 * len(pairs), len(pairs))


@pytest.mark.parametrize("p,q", [(5, 5), (3, 5), (5, 9), (1, 65)])
def test_v_symbol_raises_on_every_call(p, q):
    arith._v_symbol.cache_clear()
    for a, b in ((p, q), (q, p), (p, q)):
        with pytest.raises(DomainError):
            v_symbol(a, b)
    assert arith._v_symbol.cache_info().currsize == 0


def test_primes_in_v_prefix():
    assert primes_in_v(75) == [2, 5, 13, 17, 29, 37, 41, 53, 61, 73]


def test_is_prime_against_sieve():
    sieve = set(primes_up_to(10000))
    for n in range(-3, 10000):
        assert is_prime(n) == (n in sieve)
    assert is_prime(2 ** 61 - 1)  # Mersenne
    assert not is_prime(2 ** 67 - 1)  # composite Mersenne (Cole)


def test_is_prime_with_four_witnesses_below_jaeschkes_bound():
    sieve = bytearray(2 * 10**5 + 1)
    for p in primes_up_to(2 * 10**5):
        sieve[p] = 1
    assert all(is_prime(n) == sieve[n] for n in range(2 * 10**5 + 1))
    # the least strong pseudoprimes to the bases 2; 2, 3; 2, 3, 5; and 2, 3, 5, 7
    for n, bases in [(2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4)]:
        assert arith._strong_probable_prime(n, arith._MR_WITNESSES[:bases])
        assert not arith._strong_probable_prime(n, arith._MR_WITNESSES[:bases + 1])
        assert not is_prime(n)
    # 3215031751 passes the four witnesses, so from it on is_prime asks all twelve
    assert arith._MR_FOUR_BELOW == 3215031751


def test_sqrt_mod_brute():
    for p in primes_up_to(200):
        if p == 2:
            continue
        for m in range(1, p):
            if brute_legendre(m, p) == -1:
                with pytest.raises(DomainError):
                    sqrt_mod(m, p)
                continue
            r = sqrt_mod(m, p)
            assert r * r % p == m
            assert 0 < r <= p - r  # canonical smaller root


def test_sqrt_mod_accepts_multiples_of_p_not():
    with pytest.raises(DomainError):
        sqrt_mod(29, 29)


def tonelli_shanks(a, p):
    """sqrt_mod's root as it stood before Atkin's formula and the memoised
    constants: Tonelli-Shanks with the non-residue search on every call
    (p = 3 (mod 4) takes a^((p+1)/4)), the smaller root returned."""
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
    else:
        q = p - 1
        s = 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        c = pow(z, q, p)
        r = pow(a, (q + 1) // 2, p)
        t = pow(a, q, p)
        while t != 1:
            t2 = t
            for i in range(1, s):
                t2 = t2 * t2 % p
                if t2 == 1:
                    break
            b = pow(c, 1 << (s - i - 1), p)
            r = r * b % p
            c = b * b % p
            t = t * c % p
            s = i
    assert r * r % p == a
    return min(r, p - r)


# p - 1 = 2^8, 2^9 * 15, 2^12 * 3, 2^13 * 5, 2^16: long Tonelli-Shanks ladders
HIGH_TWO_ADIC_PRIMES = (257, 7681, 12289, 40961, 65537)


def rejects(m, p):
    try:
        sqrt_mod(m, p)
    except DomainError:
        return True
    return False


def test_sqrt_mod_matches_tonelli_shanks():
    for p in primes_up_to(2000)[1:] + list(HIGH_TWO_ADIC_PRIMES):
        residues = {x * x % p for x in range(1, (p + 1) // 2)}
        assert len(residues) == (p - 1) // 2
        for a in residues:
            assert sqrt_mod(a, p) == tonelli_shanks(a, p), (a, p)
        assert rejects(0, p) and rejects(p, p) and rejects(-3 * p, p)
        assert all(rejects(m, p) for m in range(1, p) if m not in residues)


def test_sqrt_2adic_spot_and_properties():
    assert sqrt_2adic(17, 5) == 9
    rng = random.Random(11)
    for _ in range(200):
        k = rng.randint(3, 40)
        m = 8 * rng.randrange(0, 1 << (k - 3)) + 1
        r = sqrt_2adic(m, k)
        assert (r * r - m) % (1 << k) == 0
        assert r % 4 == 1
    with pytest.raises(DomainError):
        sqrt_2adic(3, 4)
    with pytest.raises(DomainError):
        sqrt_2adic(5, 4)


def test_factorize_round_trip():
    rng = random.Random(3)
    for _ in range(400):
        n = rng.randint(1, 10 ** 7)
        f = factorize(n)
        back = 1
        for p, e in f.items():
            assert is_prime(p)
            back *= p ** e
        assert back == n
    # a large prime cofactor is settled by is_prime, not trial division
    p = 1000000007
    assert prime_divisors(2 ** 5 * p) == (2, p)


@pytest.mark.parametrize("n", [0, -12])
def test_factorisations_refuse_an_integer_below_1(n):
    # a DomainError from each entry point, not the assert in _factorize,
    # which python -O drops: prime_divisors(0) then never returned and
    # prime_divisors(-12) gave (2,)
    for f in (prime_divisors, factorize, squarefree_kernel):
        with pytest.raises(DomainError, match="positive integer"):
            f(n)


def test_squarefree_helpers():
    assert is_squarefree(1) and is_squarefree(30) and not is_squarefree(12)
    assert not is_squarefree(0)
    assert squarefree_kernel(12) == 3
    assert squarefree_kernel(360) == 10
    assert squarefree_kernel(49) == 1
    assert is_perfect_square(0) and is_perfect_square(144)
    assert not is_perfect_square(-4) and not is_perfect_square(99)


def span_of(vectors):
    span = {0}
    for v in vectors:
        span |= {s ^ v for s in span}
    return span


def test_gf2_kernel_spans_every_relation():
    # every subset of at most 9 vectors that XORs to zero, by brute force
    rng = random.Random(26)
    for _ in range(200):
        vectors = [rng.getrandbits(rng.randint(0, 6)) for _ in range(rng.randint(0, 9))]
        relations = {x for x in range(1 << len(vectors))
                     if not reduce(xor, (v for i, v in enumerate(vectors) if x >> i & 1), 0)}
        kernel = gf2_kernel(vectors)
        assert span_of(kernel) == relations and len(relations) == 1 << len(kernel), vectors


def test_vectors_off_the_kernel_top_bits_are_a_basis():
    # the vectors whose index is the top bit of no relation are independent
    # and span what all the vectors span (the rule of boundary_space)
    rng = random.Random(27)
    for _ in range(300):
        vectors = [rng.getrandbits(rng.randint(0, 6)) for _ in range(rng.randint(0, 9))]
        dependent = {x.bit_length() - 1 for x in gf2_kernel(vectors)}
        kept = [v for i, v in enumerate(vectors) if i not in dependent]
        assert len(span_of(kept)) == 1 << len(kept), vectors
        assert span_of(kept) == span_of(vectors), vectors
