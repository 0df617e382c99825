"""Property tests of multiquadratic arithmetic and exact square detection."""

from decimal import Decimal, localcontext

from hypothesis import given, settings
from hypothesis import strategies as st

from quadrec.mquad import MQElement, field_containing, is_square

# squarefree radicands over the primes 2..13; field_containing keeps an
# independent subset of at most five of them
RADICANDS = (2, 3, 5, 6, 7, 10, 11, 13, 15, 21, 35, 39, 77, 130)
OUTSIDE_PRIMES = (17, 19, 23, 29, 31)


def elements_of(field):
    """Elements of the given field, zero included."""
    return st.builds(
        lambda vec, den: MQElement(field, vec, den),
        st.lists(st.integers(min_value=-120, max_value=120),
                 min_size=field.degree, max_size=field.degree),
        st.integers(min_value=1, max_value=6))


@st.composite
def field_elements(draw):
    """A nonzero element of a field of up to five generators."""
    field = field_containing(draw(st.lists(st.sampled_from(RADICANDS),
                                           max_size=5)))
    x = draw(elements_of(field))
    return MQElement(field, [1] + [0] * (field.degree - 1), 1) if x.is_zero() else x


def identity_embedding(x) -> Decimal:
    """x with every square root taken positive, to 200 digits, read off
    the product basis: sum vec[S]*sqrt(g_S), over den."""
    with localcontext() as ctx:
        ctx.prec = 200
        w = x.field.weights
        total = sum(Decimal(c) * Decimal(w[mask]).sqrt()
                    for mask, c in enumerate(x.vec))
        return total / Decimal(x.den)


@settings(max_examples=60, deadline=None)
@given(field_elements())
def test_square_root_of_a_square_is_plus_or_minus_y(y):
    root = is_square(y * y)
    assert root in (y, y * -1)


@settings(max_examples=60, deadline=None)
@given(field_elements(), st.sampled_from(OUTSIDE_PRIMES))
def test_square_times_an_outside_prime_is_not_a_square(y, p):
    assert is_square(y * y * p) is None


@settings(max_examples=60, deadline=None)
@given(field_elements(), st.data())
def test_ring_axioms(x, data):
    y = data.draw(elements_of(x.field))
    z = data.draw(elements_of(x.field))
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x


@settings(max_examples=60, deadline=None)
@given(field_elements(), st.integers(min_value=-10**6, max_value=10**6))
def test_int_product_is_the_product_with_that_rational(x, d):
    field = x.field
    assert x * d == x * MQElement(field, [d] + [0] * (field.degree - 1), 1)


@settings(max_examples=60, deadline=None)
@given(field_elements(), st.data())
def test_product_matches_the_identity_embedding(x, data):
    # the Decimal embedding multiplies real numbers, never the weight table
    y = data.draw(elements_of(x.field))
    with localcontext() as ctx:
        ctx.prec = 200
        expected = identity_embedding(x) * identity_embedding(y)
        got = identity_embedding(x * y)
        assert abs(got - expected) <= (abs(expected) + 1) * Decimal("1e-150")
