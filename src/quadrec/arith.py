"""Exact residue symbols and modular arithmetic helpers.

Everything here is plain integer arithmetic.  The prime set V (primes p with
p % 4 != 3) is the vertex universe for the residue graphs built elsewhere;
the Legendre and quartic symbols carry the usual odd-prime definitions plus
their mod-8 / mod-16 extensions at p = 2.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

Sign = int  # always +1 or -1


class DomainError(ValueError):
    """An argument falls outside an operation's stated domain."""


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
# Deterministic Miller-Rabin witness sets: the first four primes for
# n < 3,215,031,751, the least strong pseudoprime to all of them (Jaeschke,
# Math. Comp. 61, 1993), and all twelve for n < 3.317e24 (far past anything
# the sweeps touch; larger inputs get a strong probable-prime answer).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_FOUR_BELOW = 3_215_031_751


@lru_cache(maxsize=1 << 16)
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    return _strong_probable_prime(
        n, _MR_WITNESSES[:4] if n < _MR_FOUR_BELOW else _MR_WITNESSES)


def _strong_probable_prime(n: int, witnesses) -> bool:
    """Whether the odd n > 2 passes the Miller-Rabin test to every base in
    `witnesses`."""
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(bound: int) -> list[int]:
    """Ascending primes <= bound (simple sieve)."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i in range(2, bound + 1) if sieve[i]]


def primes_in_v(bound: int) -> list[int]:
    """Ascending primes p <= bound with p % 4 != 3 (the set V)."""
    return [p for p in primes_up_to(bound) if p % 4 != 3]


def require_v_prime(p: int) -> int:
    if not is_prime(p) or p % 4 == 3:
        raise DomainError(f"{p} is not a prime with p % 4 != 3")
    return p


def legendre(m: int, p: int) -> int:
    """Legendre symbol (m/p) for prime p; 0 iff p divides m.

    At p = 2 the mod-8 convention applies: +1 for m = +-1 (mod 8), -1 for
    m = +-5 (mod 8); even m is out of domain there.
    """
    if p == 2:
        if m % 2 == 0:
            raise DomainError("(m/2) requires odd m")
        return 1 if m % 8 in (1, 7) else -1
    if p < 3 or not is_prime(p):
        raise DomainError(f"modulus {p} is not prime")
    r = pow(m % p, (p - 1) // 2, p)
    if r == 0:
        return 0
    return 1 if r == 1 else -1


def jacobi(m: int, n: int) -> int:
    """Jacobi symbol (m/n) for odd n >= 1, by the reciprocity ladder.

    Deliberately an independent route from legendre(); the two are checked
    against each other in the tests.
    """
    if n < 1 or n % 2 == 0:
        raise DomainError("jacobi modulus must be odd and positive")
    m %= n
    result = 1
    while m != 0:
        while m % 2 == 0:
            m //= 2
            if n % 8 in (3, 5):
                result = -result
        m, n = n, m
        if m % 4 == 3 and n % 4 == 3:
            result = -result
        m %= n
    return result if n == 1 else 0


def quartic(m: int, p: int) -> Sign:
    """Quartic residue symbol (m/p)_4.

    For odd p: requires p = 1 (mod 4) and (m/p) = +1, and evaluates
    m^((p-1)/4) mod p.  For p = 2: defined for m = +-1 (mod 8) as +1 when
    m = +-1 (mod 16) and -1 when m = +-9 (mod 16).
    """
    if p == 2:
        r = m % 16
        if r in (1, 15):
            return 1
        if r in (7, 9):
            return -1
        raise DomainError(f"(m/2)_4 requires m = +-1 (mod 8), got m = {m % 8} (mod 8)")
    if not is_prime(p) or p % 4 != 1:
        raise DomainError(f"(m/p)_4 requires p prime with p = 1 (mod 4), got {p}")
    if m % p == 0:
        raise DomainError("(m/p)_4 requires gcd(m, p) = 1")
    r = pow(m % p, (p - 1) // 4, p)
    if r == 1:
        return 1
    if r == p - 1:
        return -1
    raise DomainError(f"(m/p)_4 requires (m/p) = +1; {m} is not a fourth-power "
                      f"candidate mod {p}")


def v_symbol(p: int, q: int) -> int:
    """Legendre symbol between two distinct primes of V.

    Symmetric on V: for odd p, q both = 1 (mod 4) reciprocity gives
    (p/q) = (q/p), and the mod-8 table makes (2/q) = (q/2).  So the memo
    behind it is keyed on the sorted pair, and one slot serves both orders.
    """
    return _v_symbol(p, q) if p < q else _v_symbol(q, p)


@lru_cache(maxsize=1 << 11)
def _v_symbol(p: int, q: int) -> int:
    """`v_symbol` of p <= q, so 2 is never the modulus.  The triangle and
    invariant checks read the same few hundred edges over and over; the
    bound keeps the memory of a scan over tens of thousands of pairs
    (scholz) fixed.  An invalid pair is never stored, so it raises on every
    call."""
    if p == q:
        raise DomainError("v_symbol needs distinct primes")
    require_v_prime(p)
    require_v_prime(q)
    return legendre(p, q)


@lru_cache(maxsize=1 << 10)
def _tonelli_constants(p: int) -> tuple[int, int, int]:
    """(q, s, c) for Tonelli-Shanks mod an odd prime p: p - 1 = q * 2^s with
    q odd, and c = z^q for the least quadratic non-residue z."""
    q = p - 1
    s = 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    return q, s, pow(z, q, p)


def sqrt_mod(m: int, p: int) -> int:
    """The canonical square root of m mod an odd prime p (the smaller of the
    two roots).

    Atkin's formula for p = 5 (mod 8), one exponentiation after the Euler
    test, with b = (2a)^((p-5)/8) and i = 2a*b^2 (a square root of -1),
    r = a*b*(i - 1); Tonelli-Shanks otherwise, with the per-prime constants
    (the deterministic non-residue search included) memoised.  For
    p = 3 (mod 4), p - 1 = 2q with q odd: the start a^((q+1)/2) is
    a^((p+1)/4), a root already, t = a^q is 1, and the loop never runs.
    """
    if p < 3 or not is_prime(p):
        raise DomainError(f"modulus {p} is not an odd prime")
    a = m % p
    if a == 0 or pow(a, (p - 1) // 2, p) != 1:
        raise DomainError(f"{m} is not a nonzero quadratic residue mod {p}")
    if p % 8 == 5:
        b = pow(2 * a, (p - 5) // 8, p)
        r = a * b * (2 * a * b * b - 1) % p
    else:
        q, s, c = _tonelli_constants(p)
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


def sqrt_2adic(m: int, k: int) -> int:
    """The canonical 2-adic square root of m mod 2^k (k >= 3, m = 1 mod 8).

    Hensel lifting from the root 1 mod 8; the result is normalized to the
    representative of the 2-adic root with r = 1 (mod 4).
    """
    if k < 3:
        raise DomainError("precision exponent must be at least 3")
    if m % 8 != 1:
        raise DomainError(f"2-adic square roots need m = 1 (mod 8), got {m % 8}")
    r = 1
    for j in range(3, k):
        # lift a root mod 2^j to mod 2^(j+1)
        if (m - r * r) % (1 << (j + 1)) != 0:
            r += 1 << (j - 1)
    r %= 1 << k
    if r % 4 != 1:
        r = (1 << k) - r
    assert (r * r - m) % (1 << k) == 0 and r % 4 == 1
    return r


@lru_cache(maxsize=1 << 15)
def _factorize(n: int) -> tuple[tuple[int, int], ...]:
    assert n >= 1
    counts: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            n //= p
            counts[p] = counts.get(p, 0) + 1
        if p * p > n:
            break
    p = _SMALL_PRIMES[-1]
    while n > 1 and not is_prime(n):
        p += 2
        while n % p:  # a composite n has an odd prime factor below sqrt(n)
            p += 2
        while n % p == 0:
            n //= p
            counts[p] = counts.get(p, 0) + 1
    if n > 1:
        counts[n] = counts.get(n, 0) + 1
    return tuple(sorted(counts.items()))


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}.

    Trial division by small primes, then is_prime on the cofactor; a
    composite cofactor goes on with trial division by odd numbers, so a
    product of two large primes is slow.  Memoised, with a bounded memo.
    """
    if n < 1:
        raise DomainError("factorize needs a positive integer")
    return dict(_factorize(n))


def prime_divisors(n: int) -> tuple[int, ...]:
    """The ascending primes dividing n >= 1."""
    if n < 1:
        raise DomainError("prime divisors need a positive integer")
    return tuple(p for p, _ in _factorize(n))


def is_squarefree(n: int) -> bool:
    if n < 1:
        return False
    return all(e == 1 for _, e in _factorize(n))


def squarefree_kernel(n: int) -> int:
    """The largest squarefree divisor with the same square class as n."""
    if n < 1:
        raise DomainError("squarefree kernel needs a positive integer")
    k = 1
    for p, e in _factorize(n):
        if e % 2:
            k *= p
    return k


def gf2_reduce(vec: int, basis, tag: int = 0) -> tuple[int, int]:
    """Reduce the GF(2) bit vector `vec` against the (vector, tag) rows of
    `basis`, in order, each row the non-zero residue of its own reduction
    against the rows before it, as `gf2_kernel` keeps them; each row used
    is XORed in, and so is its tag into `tag`.  Returns (residue, tag);
    residue 0 means vec lies in the span, with the tags saying which
    combination of rows gives it."""
    for bvec, btag in basis:
        if vec ^ bvec < vec:
            vec ^= bvec
            tag ^= btag
    return vec, tag


def gf2_kernel(vectors) -> list[int]:
    """A basis of the GF(2) relations among `vectors`: the bit sets x whose
    vectors, vectors[i] for each bit i of x, XOR to zero.

    Each vector, tagged with its own bit 1 << i, is reduced against the
    rows kept so far; a non-zero residue is kept as a row, and a vector
    that reduces to zero is a sum of earlier ones, its tag the relation.
    One relation per dependent vector, whose bit is the highest in it, so
    they are independent, and there are as many as the corank."""
    rows: list[tuple[int, int]] = []
    kernel = []
    for i, vec in enumerate(vectors):
        vec, tag = gf2_reduce(vec, rows, 1 << i)
        if vec:
            rows.append((vec, tag))
        else:
            kernel.append(tag)
    return kernel


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n
