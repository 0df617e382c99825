"""Fundamental units of real quadratic fields and their residue symbols.

Units live in the maximal order of Q(sqrt(m)) for squarefree m > 1 and are
written (x + y*sqrt(m))/den with den in {1, 2}.  They are computed exactly
from the continued fraction of the standard quadratic irrationality at the
field discriminant.  Its first complete quotient (P_1 + sqrt(D))/Q_1 is
already reduced, so the walk starts there and stops when (P_1, Q_1)
returns.  That one minimal period yields the fundamental unit from the
bottom row of the convergent matrix alone, and the parity of the period
gives the norm sign.  fundamental_unit keeps the 1 << 14 units it used
last in an lru_cache, the one unit memo of a process.  A unit takes
microseconds to compute, so nothing persists it between runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt

from .arith import (
    DomainError,
    Sign,
    is_prime,
    is_squarefree,
    legendre,
    sqrt_2adic,
    sqrt_mod,
)


@dataclass(frozen=True)
class QuadUnit:
    """The fundamental unit (x + y*sqrt(m))/den > 1 of the maximal order."""

    m: int
    x: int
    y: int
    den: int
    norm: int

    def __post_init__(self):
        if self.m < 2 or not is_squarefree(self.m):
            raise DomainError(f"{self.m} is not squarefree > 1")
        if self.den not in (1, 2):
            raise DomainError(f"unit denominator must be 1 or 2, got {self.den}")
        if self.den == 2 and (self.m % 4 != 1 or self.x % 2 == 0 or self.y % 2 == 0):
            raise DomainError("half-integer coordinates need m = 1 (mod 4) and odd x, y")
        if self.x < 0 or self.y < 1:
            raise DomainError("fundamental unit coordinates must be nonnegative, y >= 1")
        if self.x * self.x - self.m * self.y * self.y != self.norm * self.den * self.den:
            raise DomainError("norm relation x^2 - m*y^2 = norm*den^2 violated")
        if self.norm not in (1, -1):
            raise DomainError(f"unit norm must be +-1, got {self.norm}")
        # value > 1: x + y*sqrt(m) > den
        if self.x < self.den and (self.den - self.x) ** 2 >= self.m * self.y * self.y:
            raise DomainError("not a unit greater than 1")

    def cubed_coordinates(self) -> tuple[int, int]:
        """Integer (x3, y3) with eps^3 = x3 + y3*sqrt(m).

        The cube of any unit of the maximal order lies in Z[sqrt(m)], so the
        denominator always clears.
        """
        x, y, m = self.x, self.y, self.m
        x3 = x * x * x + 3 * x * y * y * m
        y3 = 3 * x * x * y + y * y * y * m
        d3 = self.den ** 3
        assert x3 % d3 == 0 and y3 % d3 == 0
        return x3 // d3, y3 // d3

    def __str__(self):
        core = f"{self.x} + {self.y}*sqrt({self.m})"
        return f"({core})/2" if self.den == 2 else core


def _cf_fundamental_triple(m: int) -> tuple[int, int, int]:
    """(x, y, den) for the fundamental unit, from one continued-fraction period.

    Expands alpha_0 = (P0 + sqrt(D))/2 at the field discriminant D; all
    complete quotients alpha_k = (P_k + sqrt(D))/Q_k keep discriminant D.
    alpha_0 has a negative conjugate, so alpha_1 is reduced and purely
    periodic: the walk takes the first partial quotient, starts at
    (P_1, Q_1) and stops when that state returns, after one minimal period.
    The convergent matrix over the period fixes alpha_1, i.e. is the
    fundamental automorph, and the unit C*alpha_1 + D reads only its bottom
    row (C, D), so only that row is carried.
    """
    if m % 4 == 1:
        delta, p0 = m, 1
    else:
        delta, p0 = 4 * m, 0
    s = isqrt(delta)
    a = (p0 + s) // 2
    p1 = 2 * a - p0
    q1 = (delta - p1 * p1) // 2
    p_state, q_state = p1, q1
    mat_c, mat_d = 0, 1
    while True:
        a = (p_state + s) // q_state
        mat_c, mat_d = mat_c * a + mat_d, mat_c
        p_state = a * q_state - p_state
        q_state = (delta - p_state * p_state) // q_state
        if p_state == p1 and q_state == q1:
            break
    # unit = C*alpha_1 + D with alpha_1 = (p1 + sqrt(delta))/q1
    x2 = mat_c * p1 + mat_d * q1
    y2 = mat_c if delta == m else 2 * mat_c
    g = gcd(gcd(x2, y2), q1)
    return x2 // g, y2 // g, q1 // g


def compute_fundamental_unit(m: int) -> QuadUnit:
    """Continued-fraction computation, bypassing the memo."""
    if m < 2 or not is_squarefree(m):
        raise DomainError(f"fundamental units need squarefree m > 1, got {m}")
    x, y, den = _cf_fundamental_triple(m)
    norm = (x * x - m * y * y) // (den * den)
    return QuadUnit(m=m, x=x, y=y, den=den, norm=norm)


@lru_cache(maxsize=1 << 14)
def fundamental_unit(m: int) -> QuadUnit:
    """The fundamental unit of the maximal order of Q(sqrt(m)), memoized.

    A miss calls compute_fundamental_unit through this module's global,
    where a tracer can wrap it.  At 1 << 14 units thm-sq 2400 still
    computes each unit once; a larger memo only peaks higher.
    """
    return compute_fundamental_unit(m)


def unit_symbol(m: int, p: int) -> Sign:
    """The residue symbol (eps_m / p) of the fundamental unit at a split
    prime p of V.

    For odd p: reduce eps_m at the square root r = sqrt_mod(m, p) and return
    the Legendre symbol of u = (x + y*r)/den mod p.  For p = 2 (needs
    m = 1 mod 8): reduce at the 2-adic root r = sqrt_2adic(m, 4) mod 16 and
    read the mod-8 table.  The other root gives the same value, so the
    symbol is well defined: the reductions u, u' at r and -r multiply to
    N(eps) = +-1.  For odd p that holds mod p, and (-1/p) = 1 because
    p = 1 (mod 4); at 2 it holds mod 8, and (+-1/2) = 1.
    """
    unit = fundamental_unit(m)
    if p == 2:
        if m % 8 != 1:
            raise DomainError(f"(eps_m/2) needs m = 1 (mod 8), got m = {m % 8} (mod 8)")
        # m = 1 (mod 8) forces den = 1: x^2 - m*y^2 = +-4 is impossible mod 8
        assert unit.den == 1
        u = (unit.x + unit.y * sqrt_2adic(m, 4)) % 8
        assert u % 2 == 1, "exactly one of x, y is odd when x^2 - m*y^2 = +-1"
        return legendre(u, 2)
    if not is_prime(p) or p % 4 != 1:
        raise DomainError(f"unit symbols need p = 2 or p prime with p = 1 (mod 4), got {p}")
    try:
        r = sqrt_mod(m, p)  # its Euler test is the splitting test
    except DomainError:
        raise DomainError(f"{p} does not split in Q(sqrt({m}))") from None
    u = (unit.x + unit.y * r) * pow(unit.den, -1, p) % p
    assert u != 0, "a unit cannot reduce to zero at an unramified prime"
    return legendre(u, p)


@dataclass(frozen=True)
class CubeCongruenceReport:
    """Pass/fail record for three congruence facts about
    eps_m^3 = x + y*sqrt(m) when the norm is -1: x even; 4 | x exactly when
    m = 1 (mod 8); and y = 1 (mod 4)."""

    m: int
    x: int
    y: int
    x_even: bool
    x_mod4_tracks_m_mod8: bool
    y_is_1_mod4: bool

    @property
    def all_ok(self) -> bool:
        return self.x_even and self.x_mod4_tracks_m_mod8 and self.y_is_1_mod4

    def failed_claims(self) -> tuple[str, ...]:
        out = []
        if not self.x_even:
            out.append("x-even")
        if not self.x_mod4_tracks_m_mod8:
            out.append("x-mod4")
        if not self.y_is_1_mod4:
            out.append("y-mod4")
        return tuple(out)


def check_unit_congruences(m: int) -> CubeCongruenceReport:
    """Evaluate the cube congruences for odd squarefree m > 2 with norm -1."""
    if m <= 2 or m % 2 == 0 or not is_squarefree(m):
        raise DomainError(f"cube congruences need odd squarefree m > 2, got {m}")
    unit = fundamental_unit(m)
    if unit.norm != -1:
        raise DomainError(f"cube congruences need norm -1, eps_{m} has norm +1")
    x3, y3 = unit.cubed_coordinates()
    return CubeCongruenceReport(
        m=m,
        x=x3,
        y=y3,
        x_even=(x3 % 2 == 0),
        x_mod4_tracks_m_mod8=((x3 % 4 == 0) == (m % 8 == 1)),
        y_is_1_mod4=(y3 % 4 == 1),
    )
