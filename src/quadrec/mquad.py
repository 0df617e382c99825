"""Exact arithmetic in real multiquadratic fields Q(sqrt(g1), ..., sqrt(gt)).

An element is a vector of integers over the product basis
sqrt(g_S) = prod_{i in S} sqrt(g_i), S a subset of the generators, and one
positive common denominator.  Products need only the weight table
w[S] = prod_{i in S} g_i, since
sqrt(g_S) * sqrt(g_T) = w[S & T] * sqrt(g_(S ^ T)).  Everything is exact,
square detection included.

The field keeps no factorisation.  By Kummer theory the squarefree d with
sqrt(d) in the field are exactly the 2^t squarefree kernels of the
subproducts g_S, so one table radicands[S] = kernel(g_S), filled with gcds
(the kernel of a product of squarefree a, b is (a/c)*(b/c), c = gcd(a, b)),
answers every question the field is asked.  The generators are independent
exactly when the 2^t entries are distinct.  sqrt(m) lies in the field
exactly when kernel(m) is an entry, and its index is the basis mask.  a/b is
a field square exactly when kernel(a*b) is an entry, that is when the cosets
{kernel(a*r)} and {kernel(b*r)} over the entries r agree; the least member
names the coset.

is_square takes square roots by recursion through quadratic subextensions
(Bauch, Bernstein, de Valence, Lange, van Vredendaal, "Short generators
without quantum computers: the case of multiquadratics", EUROCRYPT 2017).
Write K = K'(sqrt(d)), d the last generator, and x = a + b*sqrt(d) with a, b
in K'.  If b = 0, x is a square in K exactly when a or a/d is a square in
K'.  Otherwise x = (u + v*sqrt(d))^2 forces the norm a^2 - d*b^2 =
(u^2 - d*v^2)^2 to be a square c^2 in K', and then one of (a + c)/2,
(a - c)/2 is u^2 (the other is d*v^2, never a square in K'); conversely any
u != 0 with u^2 = (a +- c)/2 gives the root u + b/(2u)*sqrt(d).  At Q an
integer square root decides.  Every step is an equivalence, so None is a
proof that x is not a square, not a search that ran out.  On the product
basis, splitting off the last generator is cutting the vector in half, so
the recursion runs on the element's own vector.

The recursion bottoms out at a quadratic field, x = a + b*sqrt(d) with a, b
integers, in closed form: c^2 = a^2 - d*b^2, ru^2 = 2*(a +- c), root
(ru^2 + 2b*sqrt(d))/(2*ru).  _mul and _inverse have the matching length-2
formulas, so the generic tower loops start at degree 4.  A product of two
elements of the same MQField object skips the operand coercion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm

from .arith import DomainError, is_prime, is_squarefree, squarefree_kernel


def _kernel_product(a: int, b: int) -> int:
    """The squarefree kernel of a*b for squarefree a and b."""
    c = gcd(a, b)
    return (a // c) * (b // c)


@dataclass(frozen=True)
class MQField:
    """A real multiquadratic field given by multiplicatively independent
    squarefree generators > 1."""

    gens: tuple[int, ...]

    def __init__(self, gens):
        object.__setattr__(self, "gens", tuple(gens))
        for d in self.gens:
            if d < 2 or not is_squarefree(d):
                raise DomainError(f"generator {d} is not squarefree > 1")
        if len(set(self.gens)) != len(self.gens):
            raise DomainError("generators must be distinct")
        if len(set(self.radicands)) != self.degree:
            raise DomainError("generators are multiplicatively dependent "
                              "(some subproduct is a perfect square)")

    @cached_property
    def degree(self) -> int:
        return 1 << len(self.gens)

    @cached_property
    def weights(self) -> tuple[int, ...]:
        """weights[S] = g_S, the product of the generators in S, so that
        sqrt(g_S)*sqrt(g_T) = weights[S & T]*sqrt(g_(S ^ T))."""
        w = [1] * self.degree
        for mask in range(1, self.degree):
            low = mask & -mask
            w[mask] = w[mask ^ low] * self.gens[low.bit_length() - 1]
        return tuple(w)

    @cached_property
    def radicands(self) -> tuple[int, ...]:
        """radicands[S] = the squarefree kernel of g_S: the squarefree d with
        sqrt(d) in the field, one per subset S (module docstring)."""
        table = [1]
        for g in self.gens:
            table += [_kernel_product(g, r) for r in table]
        return tuple(table)

    def subset_with_kernel(self, m: int) -> int:
        """The generator-subset mask S with m*g_S a perfect square, i.e.
        sqrt(m) a rational multiple of sqrt(g_S) (error if there is none)."""
        try:
            return self.radicands.index(squarefree_kernel(m))
        except ValueError:
            raise DomainError(f"sqrt({m}) does not lie in {self}") from None

    def square_class(self, k: int) -> int:
        """Canonical form of a squarefree k >= 1 modulo squares of the field:
        the least kernel of k*r over the radicands r.  Two squarefree values
        get the same class exactly when their ratio is a field square.  k is
        not factorised; the caller passes a squarefree kernel."""
        if k < 1:
            raise DomainError("square classes are defined for squarefree k >= 1")
        return min(_kernel_product(k, r) for r in self.radicands)

    def element(self, coeffs) -> "MQElement":
        """The element sum c_S*sqrt(g_S) for rational coefficients given as
        {subset mask: c_S} over the product basis."""
        qs = {mask: Fraction(c) for mask, c in dict(coeffs).items()}
        vec = [0] * self.degree
        den = lcm(*(q.denominator for q in qs.values()))
        for mask, q in qs.items():
            if not 0 <= mask < self.degree:
                raise DomainError(f"basis mask {mask} out of range for {self}")
            vec[mask] = q.numerator * (den // q.denominator)
        return MQElement(self, vec, den)

    def rational(self, value) -> "MQElement":
        """An int or Fraction as an element."""
        return MQElement(self, [value.numerator] + [0] * (self.degree - 1),
                         value.denominator)

    def sqrt_radicand(self, m: int) -> "MQElement":
        """The element sqrt(m) = (isqrt(m*g_S)/g_S)*sqrt(g_S), for m
        representable in this field."""
        mask = self.subset_with_kernel(m)
        w = self.weights[mask]
        g = isqrt(m * w)
        assert g * g == m * w
        vec = [0] * self.degree
        vec[mask] = g
        return MQElement(self, vec, w)

    def __str__(self):
        inner = ", ".join(f"sqrt({d})" for d in self.gens) or "plain rationals"
        return f"Q({inner})"


def field_containing(values) -> MQField:
    """The multiquadratic field generated by the square roots of the given
    positive values, with a deterministic (ascending, greedy-independent)
    generator choice.  Values reduce to their squarefree kernels; perfect
    squares contribute nothing.  A kernel is kept when it is not yet a
    radicand of the kept ones, so the table grows as MQField.radicands
    builds it."""
    kernels = set()
    for v in values:
        if v < 1:
            raise DomainError(f"radicand {v} is not positive")
        kernels.add(squarefree_kernel(v))
    gens, table = [], [1]
    for k in sorted(kernels):
        if k not in table:
            gens.append(k)
            table += [_kernel_product(k, r) for r in table]
    return MQField(gens)


class MQElement:
    """vec/den in an MQField: vec[S] is the integer coordinate at
    sqrt(g_S), and den > 0 shares no factor with all of vec (den = 1 at 0),
    so equal elements have equal (vec, den)."""

    __slots__ = ("field", "vec", "den")

    def __init__(self, field: MQField, vec, den: int = 1):
        if len(vec) != field.degree:
            raise DomainError(f"{len(vec)} coordinates for {field} of degree "
                              f"{field.degree}")
        if den == 0:
            raise ZeroDivisionError("element with denominator 0")
        g = gcd(den, *vec)
        if den < 0:
            g = -g
        self.field = field
        self.vec = tuple(c // g for c in vec) if g != 1 else tuple(vec)
        self.den = den // g

    def __eq__(self, other):
        if not isinstance(other, MQElement):
            return NotImplemented
        return (self.field == other.field and self.den == other.den
                and self.vec == other.vec)

    def __hash__(self):
        return hash((self.field, self.vec, self.den))

    def is_zero(self) -> bool:
        return not any(self.vec)

    def _operand(self, other) -> MQElement:
        if isinstance(other, (int, Fraction)):
            return self.field.rational(other)
        if isinstance(other, MQElement) and self.field != other.field:
            raise DomainError("elements live in different fields")
        return other

    def __add__(self, other):
        other = self._operand(other)
        if not isinstance(other, MQElement):
            return NotImplemented
        return MQElement(self.field,
                         [a * other.den + b * self.den
                          for a, b in zip(self.vec, other.vec)],
                         self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return MQElement(self.field, [-c for c in self.vec], self.den)

    def __sub__(self, other):
        other = self._operand(other)
        if not isinstance(other, MQElement):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not (isinstance(other, MQElement) and other.field is self.field):
            if isinstance(other, (int, Fraction)):
                return MQElement(self.field, [c * other.numerator for c in self.vec],
                                 self.den * other.denominator)
            other = self._operand(other)
            if not isinstance(other, MQElement):
                return NotImplemented
        return MQElement(self.field,
                         _mul(self.vec, other.vec, self.field.weights),
                         self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return MQElement(self.field, [c * other.denominator for c in self.vec],
                             self.den * other.numerator)
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative powers are not supported")
        result = self.field.rational(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self, flip_mask: int) -> "MQElement":
        """Apply the field automorphism sending sqrt(gens[i]) to
        -sqrt(gens[i]) for each i in flip_mask."""
        return MQElement(self.field,
                         [-c if (mask & flip_mask).bit_count() % 2 else c
                          for mask, c in enumerate(self.vec)],
                         self.den)

    def __str__(self):
        w = self.field.weights
        terms = [str(c) if mask == 0 else
                 f"{'' if c == 1 else '-' if c == -1 else f'{c}*'}sqrt({w[mask]})"
                 for mask, c in enumerate(self.vec) if c]
        body = " + ".join(terms).replace("+ -", "- ") or "0"
        return body if self.den == 1 else f"({body})/{self.den}"

    def __repr__(self):
        return f"<{self} in {self.field}>"


# ---------------------------------------------------------------------------
# exact square roots over the product basis
#
# A vector of length 2^j holds integer coordinates over sqrt(g_S) for S a
# subset of the first j generators; w is the field's weight table, and
# w[2^(j-1)] is the j-th generator.

def _mul(x: list[int], y: list[int], w) -> list[int]:
    if len(x) == 2:
        a, b = x
        c, e = y
        return [a * c + w[1] * b * e, a * e + b * c]
    out = [0] * len(x)
    ys = [(j, c) for j, c in enumerate(y) if c]
    for i, a in enumerate(x):
        if a:
            for j, c in ys:
                out[i ^ j] += a * c * w[i & j]
    return out


def _norm(a: list[int], b: list[int], d: int, w) -> list[int]:
    """a^2 - d*b^2, the norm of a + b*sqrt(d) down to the subfield."""
    return [p - d * q for p, q in zip(_mul(a, a, w), _mul(b, b, w))]


def _reduced(r: list[int], e: int) -> tuple[list[int], int]:
    g = gcd(e, *r)
    return [c // g for c in r], e // g


def _sign(x: list[int], w) -> int:
    """Sign of x under the embedding with every sqrt(g_i) > 0; 0 for x = 0.
    Where a and b in x = a + b*sqrt(d) differ in sign, x has the sign of a
    times the sign of a^2 - d*b^2 = x*(a - b*sqrt(d))."""
    if len(x) == 1:
        return (x[0] > 0) - (x[0] < 0)
    h = len(x) >> 1
    a, b = x[:h], x[h:]
    sa, sb = _sign(a, w), _sign(b, w)
    if sb == 0 or sa == sb:
        return sa
    if sa == 0:
        return sb
    return sa * _sign(_norm(a, b, w[h], w), w)


def _inverse(x: list[int], w) -> tuple[list[int], int]:
    """(r, e) with x*r = e > 0, for x != 0: 1/(a + b*sqrt(d)) is
    (a - b*sqrt(d)) over the norm a^2 - d*b^2, inverted one level down."""
    if len(x) == 2:
        a, b = x
        n = a * a - w[1] * b * b
        return _reduced([a, -b], n) if n > 0 else _reduced([-a, b], -n)
    if len(x) == 1:
        return ([1], x[0]) if x[0] > 0 else ([-1], -x[0])
    h = len(x) >> 1
    a, b = x[:h], x[h:]
    r, e = _inverse(_norm(a, b, w[h], w), w)
    return _reduced(_mul(a, r, w) + [-c for c in _mul(b, r, w)], e)


def _sqrt(x: list[int], w) -> tuple[list[int], int] | None:
    """(r, e) with (r/e)^2 = x and e > 0, or None when the nonzero vector x
    is not a square in its field."""
    if len(x) == 2:
        return _sqrt_quadratic(x[0], x[1], w[1])
    if len(x) == 1:
        n = x[0]
        s = isqrt(n) if n >= 0 else -1
        return ([s], 1) if s * s == n else None
    h = len(x) >> 1
    d = w[h]
    a, b = x[:h], x[h:]
    if not any(b):
        got = _sqrt(a, w)
        if got is not None:
            return got[0] + [0] * h, got[1]
        # a/d is a square iff a*d = d^2*(a/d) is; a*d = (r/e)^2 gives
        # a = (r*sqrt(d)/(e*d))^2
        got = _sqrt([d * c for c in a], w)
        if got is None:
            return None
        return [0] * h + got[0], got[1] * d
    got = _sqrt(_norm(a, b, d, w), w)
    if got is None:
        return None
    rc, ec = got
    # (a +- c)/2 with c = rc/ec, scaled by the square (2*ec)^2
    for s in (1, -1):
        got = _sqrt([2 * ec * (ec * p + s * q) for p, q in zip(a, rc)], w)
        if got is not None:
            break
    else:
        return None
    ru, eu = got
    # u = ru/(2*ec*eu), so b/(2u) = b*ec*eu/ru
    inv, den = _inverse(ru, w)
    v = _mul(b, inv, w)
    scale = 2 * ec * ec * eu * eu
    return _reduced([c * den for c in ru] + [c * scale for c in v],
                    2 * ec * eu * den)


def _sqrt_quadratic(a: int, b: int, d: int) -> tuple[list[int], int] | None:
    """_sqrt of a + b*sqrt(d) over Q in closed form.  For b != 0: the norm
    a^2 - d*b^2 must be c^2, and then u = ru/2 with ru^2 = 2*(a +- c) gives
    the root u + b/(2u)*sqrt(d) = (ru^2 + 2b*sqrt(d))/(2ru).  a + c and
    a - c are nonzero (else b = 0) and share the sign of a."""
    if not b:
        if a >= 0:
            s = isqrt(a)
            if s * s == a:
                return [s, 0], 1
        # a = (s*sqrt(d)/d)^2 with s^2 = a*d
        n = a * d
        s = isqrt(n) if n > 0 else -1
        return ([0, s], d) if s * s == n else None
    n = a * a - d * b * b
    if n < 0:
        return None
    c = isqrt(n)
    if c * c != n:
        return None
    for t in (2 * (a + c), 2 * (a - c)):
        if t > 0:
            ru = isqrt(t)
            if ru * ru == t:
                return _reduced([t, 2 * b], 2 * ru)
    return None


def is_square(x: MQElement) -> MQElement | None:
    """An exact square root of x in its field, or None if x is not a square
    there.

    The root returned is the one that is positive under the embedding with
    every sqrt(gens[i]) > 0.  The recursion of the module docstring decides
    both ways: a root is checked by exact squaring, and None follows from a
    chain of equivalences ending in an integer that is not a square, so no
    answer is ever left undecided.
    """
    if x.is_zero():
        raise DomainError("square detection needs a nonzero element")
    w = x.field.weights
    # x = vec/den is a square iff the integer vector x*den^2 = vec*den is
    got = _sqrt([c * x.den for c in x.vec], w)
    if got is None:
        return None
    r, e = got
    if _sign(r, w) < 0:
        r = [-c for c in r]
    root = MQElement(x.field, r, e * x.den)
    assert root * root == x
    return root


def find_d(x: MQElement, allowed_primes) -> int:
    """The squarefree product d of allowed_primes making x*d a square in x's
    field (d = 1 means x itself is square).

    Candidates are tested once per square class of the field (two candidates
    whose ratio is a field square succeed or fail together); exactly one
    class may pass, and its smallest member is returned.  Every candidate is
    a product of distinct primes, its own squarefree kernel, so its class
    (square_class) is read off the radicands without factorising.
    """
    primes = sorted(set(allowed_primes))
    for p in primes:
        if not is_prime(p):
            raise DomainError(f"allowed factor {p} is not prime")
    candidates = [1]
    for p in primes:
        candidates += [c * p for c in candidates]
    candidates.sort()
    square_class = x.field.square_class
    tested: set[int] = set()
    hit: int | None = None
    for d in candidates:
        sig = square_class(d)
        if sig in tested:
            continue
        tested.add(sig)
        if is_square(x * d) is not None:
            if hit is not None:
                raise AssertionError(f"two inequivalent d values pass: {hit} and {d}")
            hit = d
    if hit is None:
        raise DomainError("no squarefree product of the allowed primes makes x a square")
    return hit
