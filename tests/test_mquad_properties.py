"""Property tests of exact square detection in multiquadratic fields."""

from decimal import Decimal, localcontext
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from quadrec.mquad import field_containing, is_square

# squarefree radicands over the primes 2..13; field_containing keeps an
# independent subset of at most five of them
RADICANDS = (2, 3, 5, 6, 7, 10, 11, 13, 15, 21, 35, 39, 77, 130)
OUTSIDE_PRIMES = (17, 19, 23, 29, 31)


@st.composite
def field_elements(draw):
    field = field_containing(draw(st.lists(st.sampled_from(RADICANDS),
                                           max_size=5)))
    coeffs = draw(st.lists(
        st.fractions(min_value=-20, max_value=20, max_denominator=6),
        min_size=field.degree, max_size=field.degree))
    if not any(coeffs):
        coeffs[0] = Fraction(1)
    return field.element(dict(enumerate(coeffs)))


def identity_embedding(x) -> Decimal:
    """x with every square root taken positive, to 200 digits."""
    with localcontext() as ctx:
        ctx.prec = 200
        return sum(Decimal(c.numerator) / Decimal(c.denominator)
                   * Decimal(x.field.radicands[mask]).sqrt()
                   for mask, c in x.coeffs.items())


@settings(max_examples=60, deadline=None)
@given(field_elements())
def test_square_root_of_a_square_is_plus_or_minus_y(y):
    root = is_square(y * y)
    assert root in (y, -y)
    assert identity_embedding(root) > 0


@settings(max_examples=60, deadline=None)
@given(field_elements(), st.sampled_from(OUTSIDE_PRIMES))
def test_square_times_an_outside_prime_is_not_a_square(y, p):
    assert is_square(y * y * p) is None
