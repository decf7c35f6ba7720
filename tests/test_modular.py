"""Prime-power structure lemmas and prime-field factorization."""

import math
import random

import pytest

from groupca.automata import NotAlgebraicError, as_laurent, linear_ca, table_from_rule
from groupca.groups import GroupSpec
from groupca.kernels import kernel_elements, recurrence_matrix
from groupca.modular import (
    bipermutative_power,
    divisor_bound,
    factor_mod_p,
    frobenius_congruence_check,
    kernel_direct_sum_check,
    permutative_support,
)

Z2 = GroupSpec((2,))
Z4 = GroupSpec((4,))
Z8 = GroupSpec((8,))
Z9 = GroupSpec((9,))

F_mod4 = linear_ca(Z4, {0: 1, 1: 1, 2: 2})


def expand_poly_mod(coeffs, e, mod):
    """Oracle: polynomial power by repeated schoolbook convolution."""
    acc = {0: 1}
    for _ in range(e):
        out = {}
        for u, c in acc.items():
            for v, d in coeffs.items():
                out[u + v] = (out.get(u + v, 0) + c * d) % mod
        acc = {u: c for u, c in out.items() if c}
    return acc


def test_permutative_support_examples():
    sup = permutative_support(F_mod4)
    assert sup.offsets == (0, 1)
    assert (sup.p, sup.k) == (2, 2)
    assert permutative_support(linear_ca(Z4, {0: 2, 1: 2})).is_empty
    assert permutative_support(linear_ca(Z2, {0: 1, 1: 1})).offsets == (0, 1)


def test_permutative_support_rejects_composite():
    with pytest.raises(ValueError):
        permutative_support(linear_ca(GroupSpec((6,)), {0: 1, 1: 1}))


def test_bipermutative_power_mod4_example():
    Fq = bipermutative_power(F_mod4)
    assert Fq.neighborhood == (0, 2)
    assert as_laurent(Fq).coeffs == linear_ca(Z4, {0: 1, 1: 2, 2: 1}).coeffs
    assert Fq.permutativity().bipermutative
    # oracle: expand (1 + X + 2 X^2)^2 mod 4 independently
    assert expand_poly_mod({0: 1, 1: 1, 2: 2}, 2, 4) == {0: 1, 1: 2, 2: 1}


def test_bipermutative_power_already_bipermutative():
    F = linear_ca(Z2, {0: 1, 1: 1})
    assert bipermutative_power(F).coeffs == F.coeffs


def test_bipermutative_power_single_unit_offset_rejected():
    with pytest.raises(ValueError):
        bipermutative_power(linear_ca(Z9, {0: 1, 1: 3}))


def test_frobenius_congruence_examples():
    assert frobenius_congruence_check({0: 1, 1: 1}, {2: 1}, p=2, j=1)
    assert frobenius_congruence_check({0: 1, 1: 1}, {}, p=2, j=1)
    rng = random.Random(7)
    for _ in range(10):
        P1 = {u: rng.randrange(8) for u in range(rng.randint(1, 3))}
        P2 = {u: rng.randrange(8) for u in range(rng.randint(1, 3))}
        assert frobenius_congruence_check(P1, P2, p=2, j=2)


def test_frobenius_congruence_oracle_agreement():
    # the two sides really are equal as full expansions mod p^(j+1)
    p, j = 2, 1
    mod = p ** (j + 1)
    P1 = {0: 1, 1: 1}
    P2 = {2: 1}
    lhs = expand_poly_mod({0: 1, 1: 1, 2: 2}, p**j, mod)
    rhs = expand_poly_mod(P1, p**j, mod)
    assert lhs == rhs


def test_divisor_bound_values():
    assert divisor_bound(2, 1) == 1
    assert divisor_bound(2, 2) == 6
    assert divisor_bound(3, 1) == 2
    assert divisor_bound(5, 3) == (125 - 1) * (125 - 5) * (125 - 25)
    with pytest.raises(ValueError):
        divisor_bound(4, 1)


def test_factor_examples():
    assert factor_mod_p({0: 1, 1: 1}, p=2).is_irreducible
    f = factor_mod_p({0: 1, 2: 1}, p=2)
    assert f.factors == (((1, 1), 2),)
    assert factor_mod_p({0: 1, 1: 1, 2: 1}, p=2).is_irreducible


def test_factor_reassembles_input():
    rng = random.Random(3)
    for p in (2, 3, 5):
        for _ in range(15):
            deg = rng.randint(1, 6)
            coeffs = {u: rng.randrange(p) for u in range(deg)}
            coeffs[deg] = rng.randrange(1, p)
            shift = rng.randint(-2, 2)
            poly = {u + shift: c for u, c in coeffs.items() if c}
            f = factor_mod_p(poly, p=p)
            assert f.reassemble() == poly


def test_factor_multiplicity_structure():
    # (1+X)^3 (1+X+X^2) over Z/2
    a = {0: 1, 1: 1}
    poly = expand_poly_mod(a, 3, 2)
    b = {0: 1, 1: 1, 2: 1}
    prod = {}
    for u, c in poly.items():
        for v, d in b.items():
            prod[u + v] = (prod.get(u + v, 0) + c * d) % 2
    f = factor_mod_p({u: c for u, c in prod.items() if c}, p=2)
    assert set(f.factors) == {((1, 1), 3), ((1, 1, 1), 1)}


def test_factor_degree_cap():
    with pytest.raises(ValueError):
        factor_mod_p({0: 1, 9: 1}, p=2)


def test_prime_checks_reject_small_composite_and_prime_power_moduli():
    for bad in (-3, 0, 1, 4, 6):
        with pytest.raises(ValueError):
            divisor_bound(bad, 1)
        with pytest.raises(ValueError):
            factor_mod_p({0: 1, 1: 1}, p=bad)
    with pytest.raises(ValueError):
        permutative_support(linear_ca(GroupSpec((12,)), {0: 1, 1: 1}))
    with pytest.raises(ValueError):
        kernel_direct_sum_check(linear_ca(Z4, {0: 1, 1: 1}), 1)
    sup = permutative_support(linear_ca(Z8, {0: 1, 1: 2, 2: 3}))
    assert (sup.p, sup.k, sup.offsets) == (2, 3, (0, 2))
    assert divisor_bound(3, 2) == 48


def test_kernel_direct_sum_examples():
    # (1+X)(1+X+X^2) = 1+X^3 over Z/2: kernel sizes 2*4 = 8
    F = linear_ca(Z2, {0: 1, 3: 1})
    assert kernel_direct_sum_check(F, 1)
    assert len(kernel_elements(F, 1)) == 8
    # irreducible: vacuously a one-factor sum
    assert kernel_direct_sum_check(linear_ca(Z2, {0: 1, 1: 1, 2: 1}), 1)
    # (1+X)^2: the first kernel level equals the second level of 1+X
    F2 = linear_ca(Z2, {0: 1, 2: 1})
    assert kernel_direct_sum_check(F2, 1)
    assert set(kernel_elements(F2, 1)) == set(
        kernel_elements(linear_ca(Z2, {0: 1, 1: 1}), 2)
    )


def test_matrix_order_divides_bound_for_random_bipermutative():
    rng = random.Random(11)
    for _ in range(30):
        p = rng.choice((2, 3, 5))
        r = rng.randint(1, 3)
        group = GroupSpec((p,))
        coeffs = {0: rng.randrange(1, p), r: rng.randrange(1, p)}
        for u in range(1, r):
            coeffs[u] = rng.randrange(p)
        F = linear_ca(group, coeffs)
        small = F.smallest_neighborhood()
        width = small.neighborhood[1] - small.neighborhood[0]
        order = recurrence_matrix(F).matrix_order()
        assert divisor_bound(p, width) % order == 0
        p1 = math.lcm(*(x.period for x in kernel_elements(F, 1)))
        assert order % p1 == 0


@pytest.mark.parametrize("F", [
    linear_ca(Z4, {0: 3, 1: 2, 2: 1}),
    linear_ca(Z2, {0: 1, 3: 1}),
    linear_ca(GroupSpec((5,)), {-1: 1, 0: 2, 1: 1}),
    linear_ca(Z9, {0: 1, 1: 3, 2: 1}),
])
def test_additive_tables_read_as_their_linear_rule(F):
    T = table_from_rule(F.alphabet, F.neighborhood, F.local)
    sup = permutative_support(T)
    assert sup == permutative_support(F)
    assert bipermutative_power(T) == bipermutative_power(F)
    assert recurrence_matrix(T) == recurrence_matrix(F)
    p = sup.p
    assert frobenius_congruence_check(T, T, p, sup.k - 1) == frobenius_congruence_check(
        F, F, p, sup.k - 1)
    if sup.k == 1:
        assert factor_mod_p(T) == factor_mod_p(F)
        assert kernel_direct_sum_check(T, 1) and kernel_direct_sum_check(F, 1)


def test_non_additive_tables_are_refused():
    T = table_from_rule(Z2, (0, 1), lambda w: (w[0][0] * w[1][0],))
    for lemma in (permutative_support, bipermutative_power, factor_mod_p,
                  recurrence_matrix):
        with pytest.raises(NotAlgebraicError, match="table rule is not additive"):
            lemma(T)
