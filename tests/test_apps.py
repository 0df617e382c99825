"""Theorem-level checks: unit products, square certificates, d-search,
norm sign prediction, and the biquadratic unit index."""

from decimal import Decimal, localcontext

import pytest

from quadrec import apps, arith, invariants
from quadrec.arith import DomainError, is_squarefree, prime_divisors
from quadrec.apps import (
    candm_check,
    candp_check,
    kuroda_predict,
    kuroda_q,
    norm_sign_predict,
    theorem_sq_check,
    unit_product,
)
from quadrec.invariants import general_invariant
from quadrec.mquad import MQElement, MQField, field_containing, find_d, is_square
from quadrec.pell import fundamental_unit
from quadrec.sweeps import SweepConfig, _enum_kuroda, _enum_thm_sq, _squarefrees


def test_unit_element_embeds_the_unit():
    field = MQField((5,))
    eps = unit_product((5,), field)
    assert eps * 2 == MQElement(field, [1, 1], 1)
    # its norm relation transfers: eps * conj(eps) = -1, conj(eps) = (1 - sqrt5)/2
    assert eps * MQElement(field, [1, -1], 2) == MQElement(field, [-1, 0], 1)


def test_unit_element_matches_the_four_operation_chain():
    # unit_product builds one vector over the product basis; the reference
    # is the chain (x + y*sqrt(m))/den in 120-digit Decimals, and the vector
    # is read back with every square root positive.  Every term of both is
    # positive, so no digits cancel.
    count = 0
    with localcontext() as ctx:
        ctx.prec = 120
        for m in range(2, 2000):
            if not is_squarefree(m):
                continue
            unit = fundamental_unit(m)
            chain = (unit.x + unit.y * Decimal(m).sqrt()) / unit.den
            for field in (MQField((m,)), field_containing([*prime_divisors(m), 3])):
                x = unit_product((m,), field)
                w = field.weights
                got = sum(Decimal(c) * Decimal(w[mask]).sqrt()
                          for mask, c in enumerate(x.vec) if c) / x.den
                assert abs(got - chain) <= chain * Decimal("1e-100"), (m, field)
            count += 1
    assert count == 1214


def test_unit_family():
    # the family hypotheses theorem_sq_check validates, itself or through
    # candm_check at the pairs (m_i, 1): every unit has norm -1, the moduli
    # are squarefree > 1 and distinct, their product a square
    assert [fundamental_unit(m).norm for m in (5, 13, 65)] == [-1, -1, -1]
    assert theorem_sq_check((5, 13, 65)) is not None
    for moduli, message in (((5, 13, 12), r"\(12,1\): both entries must be squarefree"),
                            ((5, 13, 1), r"\(1,1\): trivial product"),
                            ((5, 5, 13), "distinct"),
                            ((2, 5, 13), "perfect square")):
        with pytest.raises(DomainError, match=message):
            theorem_sq_check(moduli)


def up_to_sign(x):
    return x, x * -1


def test_theorem_sq_family_5_13_65():
    assert theorem_sq_check((5, 13, 65)) == 1
    f = field_containing((5, 13))
    assert f.gens == (5, 13)  # the basis 1, sqrt5, sqrt13, sqrt65
    root = MQElement(f, [7, 5, 3, 1], 4)
    assert root * root == unit_product((5, 13, 65), f)
    assert is_square(unit_product((5, 13, 65), f)) in up_to_sign(root)


def test_theorem_sq_family_2_5_10():
    assert theorem_sq_check((2, 5, 10)) == 1
    f = field_containing((2, 5))
    assert f.gens == (2, 5)  # the basis 1, sqrt2, sqrt5, sqrt10
    product = MQElement(f, [13, 8, 5, 4], 2)
    assert unit_product((2, 5, 10), f) == product
    root = is_square(product)
    assert root * root == product


def test_theorem_sq_rejects_wrong_hypotheses():
    for moduli, message in (((2, 5, 13), "perfect square"),
                            ((3, 5, 15), "eps_3 is \\+1"),
                            ((), "at least one")):
        with pytest.raises(DomainError, match=message):
            theorem_sq_check(moduli)


def test_positive_norm_roots():
    # pos-norm's oracle is candp's d at the split (1, m); the unit itself is
    # a square in the field of the primes of m, with sqrt2 when m = 3 (mod 4)
    assert [candp_check(1, m)[0] for m in (3, 7, 15, 21)] == [2, 2, 6, 3]
    f15 = field_containing((2, 3, 5))
    # (sqrt6 + sqrt10)/2 over 1, sqrt2, sqrt3, sqrt6, sqrt5, sqrt10, sqrt15, sqrt30
    r15 = MQElement(f15, [0, 0, 0, 1, 0, 1, 0, 0], 2)
    assert is_square(unit_product((15,), f15)) in up_to_sign(r15)
    f3 = field_containing((2, 3))
    # (sqrt2 + sqrt6)/2 over 1, sqrt2, sqrt3, sqrt6
    r3 = MQElement(f3, [0, 1, 0, 1], 2)
    assert is_square(unit_product((3,), f3)) in up_to_sign(r3)
    f7 = field_containing((2, 7))
    # (3*sqrt2 + sqrt14)/2 over 1, sqrt2, sqrt7, sqrt14
    r7 = MQElement(f7, [0, 3, 0, 1], 2)
    assert is_square(unit_product((7,), f7)) in up_to_sign(r7)
    # m = 1 (mod 4) stays inside the odd-generator field
    assert is_square(unit_product((21,), field_containing((3, 7)))) is not None


def test_positive_norm_five_generators():
    # 1155 = 3*5*7*11 = 3 (mod 4) adds sqrt(2): a field of degree 32
    assert candp_check(1, 1155)[0] == 66
    f = field_containing((2, 3, 5, 7, 11))
    assert len(f.gens) == 5
    # (sqrt66 + sqrt70)/2
    vec = [0] * f.degree
    vec[f.subset_with_kernel(66)] = vec[f.subset_with_kernel(70)] = 1
    assert is_square(unit_product((1155,), f)) in up_to_sign(MQElement(f, vec, 2))


def test_positive_norm_domain():
    with pytest.raises(DomainError):
        candp_check(1, 5)  # norm -1
    with pytest.raises(DomainError):
        candp_check(1, 12)


def square_in_the_field_of(gens, moduli, q=1):
    """The square test the d-search replaced: q times the product of the
    units of the moduli, tested in the field of the square roots of gens."""
    return is_square(unit_product(moduli, field_containing(gens)) * q) is not None


def d_search(moduli, primes, q=1):
    """The d-search of the oracles, for q times the unit product."""
    return find_d(unit_product(moduli, field_containing(moduli)) * q, primes)


def outside_prime(gens):
    return next(p for p in arith.primes_up_to(100) if p not in gens)


def test_a_d_exists_exactly_when_the_product_is_a_square_in_the_field_of_the_primes():
    # Kummer theory: x in F is a square in F(sqrt(p_1), ..., sqrt(p_t))
    # exactly when x*d is a square in F for some d over the p_i.  Each
    # instance is tested as it is and times a prime outside both fields.
    widest = 0
    for m, ps in _squarefrees(3, 2000):
        if fundamental_unit(m).norm != 1:
            continue
        gens = sorted({*ps, 2} if m % 4 == 3 else ps)
        widest = max(widest, len(gens))
        q = outside_prime(gens)
        assert candp_check(1, m)[0] is not None
        assert square_in_the_field_of(gens, (m,))
        assert d_search((m,), gens, q) is None
        assert not square_in_the_field_of(gens, (m,), q)
    assert widest == 5
    pairs = 0
    for m1, m2 in _enum_thm_sq(SweepConfig(bound=200)):
        moduli = (m1, m2, m1 * m2)
        if any(fundamental_unit(m).norm != -1 for m in moduli):
            continue
        primes = prime_divisors(m1 * m2)
        q = outside_prime(primes)
        assert theorem_sq_check(moduli) is not None
        assert square_in_the_field_of(primes, moduli)
        assert d_search(moduli, primes, q) is None
        assert not square_in_the_field_of(primes, moduli, q)
        pairs += 1
    assert pairs == 370


def primes_of_d_in(d, P):
    return tuple(sorted(set(prime_divisors(d)) & set(P)))


def test_candm_triple_2_5_13():
    pairs = ((2, 5), (5, 13), (13, 2))
    d, P = candm_check(pairs)
    assert P == (2, 5, 13)
    assert general_invariant(pairs).value == 0
    assert d == 1
    assert primes_of_d_in(d, P) == ()  # even, as the invariant 0 says


def test_candm_triple_2_5_37():
    pairs = ((2, 5), (5, 37), (37, 2))
    d, P = candm_check(pairs)
    assert P == (2, 5, 37)
    assert general_invariant(pairs).value == 1
    assert d == 2
    assert primes_of_d_in(d, P) == (2,)  # odd, as the invariant 1 says


def test_candm_validates_inputs():
    with pytest.raises(DomainError):
        candm_check(((2, 5), (5, 13)))  # product 2*5*5*13 not square
    # a residue pair has no cross non-residue, so P is empty; its edges 5-29
    # cancel in the XOR of the pairs, leaving the empty edge set, of
    # invariant 0
    d, P = candm_check(((5, 29), (29, 5)))
    assert P == () and d == 1 and len(primes_of_d_in(d, P)) % 2 == 0
    assert general_invariant(()).value == 0
    with pytest.raises(DomainError, match="at least one"):
        candm_check(())


def test_candm_refuses_a_prime_whose_status_differs_between_pairs():
    # eps_1105 has norm -1 and the product is 1105^2, so only P can fail:
    # (221/5) = +1 but (17/5) = -1
    assert fundamental_unit(1105).norm == -1
    with pytest.raises(DomainError, match="prime 5 is a cross non-residue"):
        candm_check(((5, 221), (65, 17)))


@pytest.mark.parametrize("check", [lambda m, n: candm_check(((m, n),)),
                                   candp_check, norm_sign_predict],
                         ids=["candm", "candp", "norm-sign"])
def test_split_hypotheses_are_one_rule(check):
    for m, n, message in ((4, 5, "squarefree"), (0, 5, "squarefree"),
                          (5, 10, "coprime"), (1, 1, "trivial")):
        with pytest.raises(DomainError, match=message):
            check(m, n)


def test_candp_worked_instance():
    d, P = candp_check(5, 3)
    assert P == (2, 3, 5)
    assert d == 6
    assert primes_of_d_in(d, P) == (2, 3)  # even


def test_candp_second_instance():
    d, P = candp_check(13, 3)
    assert P == (2,)
    assert d == 3
    assert primes_of_d_in(d, P) == ()  # even


def test_candp_validates():
    with pytest.raises(DomainError):
        candp_check(3, 5)  # 3 = 3 (mod 4) divides m
    with pytest.raises(DomainError):
        candp_check(5, 5)
    with pytest.raises(DomainError):
        candp_check(5, 29)  # eps_145 has norm -1


def test_norm_sign_predictions():
    assert norm_sign_predict(13, 17) == 1
    assert fundamental_unit(13 * 17).norm == 1
    assert norm_sign_predict(5, 29) is None  # quartic product +1, no claim
    assert norm_sign_predict(2, 5) is None  # cross symbol (5/2) = -1
    for m, n in ((5, 3), (3, 5), (5, 21), (21, 5)):  # 3 = 3 (mod 4)
        with pytest.raises(DomainError, match="prime divisor 3 is 3 mod 4"):
            norm_sign_predict(m, n)
    with pytest.raises(DomainError):
        norm_sign_predict(5, 10)


def test_kuroda_q_values():
    assert kuroda_q(13, 85).value == 1
    res = kuroda_q(5, 58)
    assert res.value == 2
    assert res.witness_exponents == frozenset({(1, 1, 1)})
    with pytest.raises(DomainError, match="distinct"):
        kuroda_q(5, 5)
    for d1, d2 in ((5, 12), (1, 5)):
        with pytest.raises(DomainError, match="not squarefree > 1"):
            kuroda_q(d1, d2)


def test_kuroda_example_instances():
    assert kuroda_predict(13, 17, 5) == kuroda_q(13, 85).value == 1
    assert kuroda_predict(5, 29, 2) == kuroda_q(5, 58).value == 2
    with pytest.raises(DomainError):
        kuroda_predict(2, 5, 13)  # (2/5) = -1 breaks the first hypothesis
    with pytest.raises(DomainError, match="not a prime"):
        kuroda_predict(5, 29, 3)  # 3 is not in V


def test_kuroda_unit_products_have_no_negative_square():
    # kuroda_q tests the seven unit products and not their negatives:
    # each is > 1 under the embedding with every sqrt(g_i) > 0
    instances = list(_enum_kuroda(SweepConfig(bound=60)))
    assert len(instances) == 90
    for p, q, r in instances:
        ds = (p, q * r, p * q * r)
        field = field_containing(ds)
        units = [unit_product((d,), field) for d in ds]
        for e in range(1, 8):
            x = MQElement(field, [1] + [0] * (field.degree - 1), 1)
            for i, u in enumerate(units):
                if e >> i & 1:
                    x = x * u
            assert is_square(x * -1) is None, (p, q, r, e)


def test_oracles_read_no_quartic_symbol(monkeypatch):
    # every oracle here comes from units and square tests alone: with the
    # quartic symbol raising wherever it is bound, and no triangle invariant
    # memoised, each still returns
    def no_quartic(m, p):
        raise AssertionError(f"quartic({m}, {p}) read by an oracle")

    for module in (arith, invariants, apps):
        monkeypatch.setattr(module, "quartic", no_quartic)
    invariants.triangle_invariant.cache_clear()
    assert candm_check(((2, 5), (5, 37), (37, 2))) == (2, (2, 5, 37))
    assert candp_check(5, 3) == (6, (2, 3, 5))
    assert kuroda_q(13, 85).value == 1
    assert theorem_sq_check((5, 13, 65)) is not None
    assert candp_check(1, 3) == (2, ())


def test_field_containing_collapses_pairs():
    f = field_containing([10, 65, 26])  # pairwise products of 2, 5, 13
    assert f.degree == 4  # 26 = 10 * 65 mod squares
