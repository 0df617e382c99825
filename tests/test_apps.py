"""Theorem-level checks: unit products, square certificates, d-search,
norm sign prediction, and the biquadratic unit index."""

from decimal import Decimal, localcontext

import pytest

from quadrec.arith import DomainError, is_squarefree, prime_divisors
from quadrec.apps import (
    candm_check,
    candp_check,
    kuroda_example_check,
    kuroda_q,
    norm_sign_predict,
    positive_norm_square_check,
    theorem_sq_check,
    unit_product,
)
from quadrec.mquad import MQElement, MQField, field_containing, is_square
from quadrec.pell import fundamental_unit
from quadrec.sweeps import SweepConfig, _enum_kuroda


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
    # the family hypotheses theorem_sq_check validates: every unit has norm
    # -1, the moduli are squarefree > 1 and distinct, their product a square
    assert [fundamental_unit(m).norm for m in (5, 13, 65)] == [-1, -1, -1]
    assert theorem_sq_check((5, 13, 65)) is not None
    for moduli, message in (((5, 13, 12), "12 is not squarefree"),
                            ((5, 13, 1), "1 is not squarefree"),
                            ((5, 5, 13), "distinct"),
                            ((2, 5, 13), "perfect square")):
        with pytest.raises(DomainError, match=message):
            theorem_sq_check(moduli)


def test_theorem_sq_family_5_13_65():
    root = theorem_sq_check((5, 13, 65))
    f = root.field
    assert f.gens == (5, 13)  # the basis 1, sqrt5, sqrt13, sqrt65
    assert root == MQElement(f, [7, 5, 3, 1], 4)
    assert root * root == unit_product((5, 13, 65), f)


def test_theorem_sq_family_2_5_10():
    root = theorem_sq_check((2, 5, 10))
    f = root.field
    assert f.gens == (2, 5)  # the basis 1, sqrt2, sqrt5, sqrt10
    product = MQElement(f, [13, 8, 5, 4], 2)
    assert unit_product((2, 5, 10), f) == product
    assert root * root == product


def test_theorem_sq_rejects_wrong_hypotheses():
    for moduli, message in (((2, 5, 13), "perfect square"),
                            ((3, 5, 15), "eps_3 is \\+1")):
        with pytest.raises(DomainError, match=message):
            theorem_sq_check(moduli)


def test_positive_norm_roots():
    r15 = positive_norm_square_check(15)
    # (sqrt6 + sqrt10)/2 over 1, sqrt2, sqrt3, sqrt6, sqrt5, sqrt10, sqrt15, sqrt30
    assert r15.field.gens == (2, 3, 5)
    assert r15 == MQElement(r15.field, [0, 0, 0, 1, 0, 1, 0, 0], 2)
    r3 = positive_norm_square_check(3)
    # (sqrt2 + sqrt6)/2 over 1, sqrt2, sqrt3, sqrt6
    assert r3.field.gens == (2, 3)
    assert r3 == MQElement(r3.field, [0, 1, 0, 1], 2)
    r7 = positive_norm_square_check(7)
    # (3*sqrt2 + sqrt14)/2 over 1, sqrt2, sqrt7, sqrt14
    assert r7.field.gens == (2, 7)
    assert r7 == MQElement(r7.field, [0, 3, 0, 1], 2)
    # m = 1 (mod 4) stays inside the odd-generator field
    r21 = positive_norm_square_check(21)
    assert r21 is not None and all(g % 2 for g in r21.field.gens)


def test_positive_norm_five_generators():
    # 1155 = 3*5*7*11 = 3 (mod 4) adds sqrt(2): a field of degree 32
    root = positive_norm_square_check(1155)
    f = root.field
    assert len(f.gens) == 5
    # (sqrt66 + sqrt70)/2
    vec = [0] * f.degree
    vec[f.subset_with_kernel(66)] = vec[f.subset_with_kernel(70)] = 1
    assert root == MQElement(f, vec, 2)


def test_positive_norm_domain():
    with pytest.raises(DomainError):
        positive_norm_square_check(5)  # norm -1
    with pytest.raises(DomainError):
        positive_norm_square_check(12)


def test_candm_triple_2_5_13():
    res = candm_check(((2, 5), (5, 13), (13, 2)))
    assert res.P == (2, 5, 13)
    assert res.invariant.value == 0
    assert res.d == 1
    assert res.intersection == ()
    assert res.consistent


def test_candm_triple_2_5_37():
    res = candm_check(((2, 5), (5, 37), (37, 2)))
    assert res.P == (2, 5, 37)
    assert res.invariant.value == 1
    assert res.d == 2
    assert res.intersection == (2,)
    assert res.consistent


def test_candm_validates_inputs():
    with pytest.raises(DomainError):
        candm_check(((2, 5), (5, 13)))  # product 2*5*5*13 not square
    # a residue pair has no cross non-residue, so P is empty: the P = {5, 29}
    # that was refused here can no longer be passed
    res = candm_check(((5, 29), (29, 5)))
    assert res.P == () and res.d == 1 and res.consistent
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
    res = candp_check(5, 3)
    assert res.P == (2, 3, 5)
    assert res.d == 6
    assert res.intersection == (2, 3)
    assert res.parity_even


def test_candp_second_instance():
    res = candp_check(13, 3)
    assert res.P == (2,)
    assert res.d == 3
    assert res.intersection == ()
    assert res.parity_even


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
    res = kuroda_example_check(13, 17, 5)
    assert res.formula_value == 1 and res.computed.value == 1 and res.consistent
    res2 = kuroda_example_check(5, 29, 2)
    assert res2.formula_value == 2 and res2.computed.value == 2 and res2.consistent
    with pytest.raises(DomainError):
        kuroda_example_check(2, 5, 13)  # (2/5) = -1 breaks the first hypothesis
    with pytest.raises(DomainError, match="not a prime"):
        kuroda_example_check(5, 29, 3)  # 3 is not in V


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


def test_field_containing_collapses_pairs():
    f = field_containing([10, 65, 26])  # pairwise products of 2, 5, 13
    assert f.degree == 4  # 26 = 10 * 65 mod squares
