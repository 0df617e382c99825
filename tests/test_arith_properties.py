"""Property tests of the residue symbols and modular square roots."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadrec.arith import jacobi, legendre, primes_up_to, quartic, sqrt_2adic, sqrt_mod

ODD_PRIMES = primes_up_to(5000)[1:]
PRIMES_1_MOD_4 = [p for p in ODD_PRIMES if p % 4 == 1]

odd_primes = st.sampled_from(ODD_PRIMES)
integers = st.integers(min_value=-10**12, max_value=10**12)


@settings(max_examples=300)
@given(integers, odd_primes)
def test_jacobi_equals_legendre_at_odd_primes(m, p):
    assert jacobi(m, p) == legendre(m, p)


@settings(max_examples=300)
@given(odd_primes, st.integers(min_value=1, max_value=10**9))
def test_sqrt_mod_returns_the_smaller_root(p, x):
    x %= p
    if x == 0:
        x = 1
    r = sqrt_mod(x * x, p)
    assert r * r % p == x * x % p
    assert r == min(x, p - x)


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=10**30), st.integers(min_value=3, max_value=80))
def test_sqrt_2adic_round_trip(n, k):
    m = 8 * n + 1
    r = sqrt_2adic(m, k)
    assert 0 < r < 1 << k
    assert (r * r - m) % (1 << k) == 0
    assert r % 4 == 1


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=10**30), st.integers(min_value=3, max_value=80))
def test_sqrt_2adic_of_a_square(y, k):
    x = 2 * y + 1
    r = sqrt_2adic(x * x, k)
    # the roots mod 2^k are +-x and +-x + 2^(k-1); r = 1 (mod 4) fixes the
    # sign, so r agrees with that signed x below 2^(k-1)
    signed = x if x % 4 == 1 else -x
    assert (r - signed) % (1 << (k - 1)) == 0


@settings(max_examples=300)
@given(st.sampled_from(PRIMES_1_MOD_4), st.integers(min_value=1, max_value=10**9),
       st.integers(min_value=1, max_value=10**9))
def test_quartic_is_multiplicative_on_residues(p, x, y):
    a, b = x * x % p, y * y % p
    assume(a and b)
    assert quartic(a * b, p) == quartic(a, p) * quartic(b, p)


@given(st.sampled_from((1, 7, 9, 15)), st.sampled_from((1, 7, 9, 15)),
       st.integers(min_value=-10**6, max_value=10**6),
       st.integers(min_value=-10**6, max_value=10**6))
def test_quartic_at_two_is_multiplicative(ra, rb, i, j):
    a, b = ra + 16 * i, rb + 16 * j
    assert quartic(a * b, 2) == quartic(a, 2) * quartic(b, 2)
