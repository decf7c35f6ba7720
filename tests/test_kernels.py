"""Kernel towers, shift periods, restrictions and the density criteria."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import groupca
from groupca.automata import (
    CellularAutomaton,
    _poly_divmod,
    _poly_mul,
    _poly_pow,
    as_laurent,
    letters,
    linear_ca,
    power,
    shift_ca,
    table_from_rule,
)
from groupca.configs import PeriodicConfig
from groupca.groups import (
    CapExceeded,
    GroupSpec,
    Subgroup,
    _prime_factors,
    closure_set,
    subgroup_closure,
)
from groupca.hypotheses import check_hypotheses
from groupca.kernels import (
    Condition4Result,
    CorollaryKerResult,
    FullShift,
    InfiniteKernelError,
    KernelTower,
    LinearKernelShift,
    NotAlgebraicError,
    ProductSubgroup,
    _kernel_module,
    condition4_search,
    corollary_ker_check,
    kernel_elements,
    recurrence_matrix,
    restrict,
    tower,
)
from groupca.modular import _order_of_x, _x_order, factor_mod_p

Z2 = GroupSpec((2,))
Z3 = GroupSpec((3,))
Z4 = GroupSpec((4,))
Z5 = GroupSpec((5,))


def boundary(tw, n):
    """Level n minus level n - 1 of a tower (n >= 1)."""
    lower = set(tw.level(n - 1).elements)
    return tuple(x for x in tw.level(n).elements if x not in lower)


def cfg(group, *xs):
    return PeriodicConfig(group, tuple((a,) for a in xs))


F_xor = linear_ca(Z2, {0: 1, 1: 1})
F_dist2 = linear_ca(Z2, {0: 1, 2: 1})
DUAL_F1 = linear_ca(Z2, {-1: 1, 0: 1, 1: 1})
DUAL_F2 = linear_ca(Z2, {-1: 1, 1: 1})


def brute_force_kernel(F, n, max_period):
    """Oracle: scan all periodic words up to a period bound."""
    G = power(F, n)
    found = set()
    for q in range(1, max_period + 1):
        for word in itertools.product(F.alphabet.elements(), repeat=q):
            x = PeriodicConfig(F.alphabet, word)
            if G.apply_periodic(x).is_zero:
                found.add(x)
    return found


def test_kernel_xor():
    ker = kernel_elements(F_xor, 1)
    assert set(ker) == {PeriodicConfig.zero(Z2), cfg(Z2, 1)}


def test_kernel_distance_two():
    ker = kernel_elements(F_dist2, 1)
    assert set(ker) == {
        PeriodicConfig.zero(Z2), cfg(Z2, 1), cfg(Z2, 0, 1), cfg(Z2, 1, 0)
    }


def test_kernel_dual_f1_matches_listed_elements():
    ker = kernel_elements(DUAL_F1, 1)
    assert set(ker) == {
        PeriodicConfig.zero(Z2),
        cfg(Z2, 0, 1, 1),
        cfg(Z2, 1, 1, 0),
        cfg(Z2, 1, 0, 1),
    }
    # isomorphic to the Klein four group: every element has order <= 2
    for x in ker:
        assert (x + x).is_zero


def test_kernel_matches_brute_force_oracle():
    for F, n, bound in [(F_xor, 1, 4), (F_dist2, 1, 4), (DUAL_F1, 1, 6), (DUAL_F2, 1, 4),
                        (F_xor, 3, 4), (F_dist2, 2, 4),
                        (linear_ca(Z4, {0: 1, 1: 1, 2: 2}), 2, 4)]:
        got = set(kernel_elements(F, n))
        assert got == brute_force_kernel(F, n, bound)


def test_kernel_level_zero_and_bijective():
    assert kernel_elements(F_xor, 0) == [PeriodicConfig.zero(Z2)]
    assert kernel_elements(shift_ca(Z4), 2) == [PeriodicConfig.zero(Z4)]


def test_kernel_rejects_non_algebraic():
    AND = table_from_rule(Z2, (0, 1), lambda w: (w[0][0] * w[1][0],))
    with pytest.raises(NotAlgebraicError):
        kernel_elements(AND, 1)
    affine = linear_ca(Z2, {0: 1, 1: 1}, constant=(1,))
    with pytest.raises(NotAlgebraicError):
        kernel_elements(affine, 1)


def test_kernel_table_rule_homomorphism_path():
    # the xor rule entered as a table
    T = table_from_rule(Z2, (0, 1), lambda w: ((w[0][0] + w[1][0]) % 2,))
    assert set(kernel_elements(T, 1)) == set(kernel_elements(F_xor, 1))


def test_infinite_kernel_detected():
    doubling = linear_ca(Z4, {0: 2})
    with pytest.raises(InfiniteKernelError):
        kernel_elements(doubling, 1)


def test_non_bipermutative_finite_kernel():
    # Id + s + 2s^2 over Z/4: kernel is the four constant configurations
    F = linear_ca(Z4, {0: 1, 1: 1, 2: 2})
    ker = kernel_elements(F, 1)
    assert set(ker) == {cfg(Z4, a) for a in range(4)}


def test_tower_sizes_and_periods_xor():
    tw = tower(F_xor, 2)
    assert [tw.size(n) for n in range(3)] == [1, 2, 4]
    assert tw.period(1) == 1
    assert tw.period(2) == 2


def test_tower_xor_z3():
    tw = tower(linear_ca(Z3, {0: 1, 1: 1}), 1)
    assert tw.size(1) == 3
    assert set(tw.level(1).elements) == {
        PeriodicConfig.zero(Z3), cfg(Z3, 1, 2), cfg(Z3, 2, 1)
    }
    assert tw.period(1) == 2


def test_tower_refuses_negative_depth():
    with pytest.raises(ValueError, match="depth must be >= 0"):
        tower(F_xor, -1)
    assert tower(F_xor, 0).depth == 0


def test_tower_trivial_kernel():
    tw = tower(shift_ca(Z2), 3)
    assert [tw.size(n) for n in range(4)] == [1, 1, 1, 1]


def test_tower_nesting_and_images():
    tw = tower(DUAL_F1, 2)
    for n in range(2):
        lower = set(tw.level(n).elements)
        upper = set(tw.level(n + 1).elements)
        assert lower <= upper
        # the rule maps level n+1 onto level n and boundary into boundary
        images = {DUAL_F1.apply_periodic(x) for x in upper}
        assert images == lower
    for x in boundary(tw, 2):
        y = DUAL_F1.apply_periodic(x)
        assert y in set(tw.level(1).elements)
        assert not y.is_zero


def test_size_law_bipermutative():
    for F, width in [(F_xor, 1), (DUAL_F1, 2), (linear_ca(Z3, {0: 1, 1: 1}), 1)]:
        tw = tower(F, 3)
        for n in range(4):
            assert tw.size(n) == F.alphabet.order ** (width * n)


def test_period_divisibility():
    # p_n | p_(n+1) at every level; the |A|^(s-r) bound needs n >= 1, where the
    # first-level translate picked up by one shift step is itself p_n-periodic.
    # At n = 0 the rule below fails for DUAL_F1 (p_1 = 3, |D_1| p_0 = 4).
    for F in [F_xor, F_dist2, DUAL_F1, DUAL_F2, linear_ca(Z3, {0: 1, 1: 1})]:
        small = F.smallest_neighborhood()
        width = small.neighborhood[1] - small.neighborhood[0]
        tw = tower(F, 3)
        for n in range(3):
            assert tw.period(n + 1) % tw.period(n) == 0
        for n in range(1, 3):
            assert (F.alphabet.order**width * tw.period(n)) % tw.period(n + 1) == 0
    assert tower(DUAL_F1, 1).period(1) == 3


def test_boundary_examples():
    tw = tower(F_xor, 2)
    assert boundary(tw, 1) == (cfg(Z2, 1),)
    assert len(boundary(tw, 2)) == 2
    tw_shift = tower(shift_ca(Z2), 1)
    assert boundary(tw_shift, 1) == ()


def test_dual_f2_second_level_matches_generator_description():
    tw = tower(DUAL_F2, 2)
    assert tw.size(2) == 16
    d2 = set(tw.level(2).elements)
    gens = {cfg(Z2, 0, 0, 0, 1), cfg(Z2, 0, 1, 1, 1), cfg(Z2, 0, 0, 1, 1)}
    gens |= set(tw.level(1).elements)
    # closure under shift and addition
    from groupca.groups import closure_set

    closed = closure_set(
        gens,
        add=lambda a, b: a + b,
        zero=PeriodicConfig.zero(Z2),
        operators=[lambda c: c.shift(1)],
        cap=64,
    )
    assert closed == d2


def test_restrict_full_shift_is_identity():
    tw = tower(F_xor, 2)
    assert restrict(tw, FullShift(Z2)) is tw


def test_restrict_product_subgroup():
    F = linear_ca(Z4, {0: 1, 1: 1, 2: 2})
    sigma = ProductSubgroup(Z4, 1, Subgroup(Z4, ((0,), (2,))))
    tw = restrict(tower(F, 1), sigma)
    assert set(tw.level(1).elements) == {PeriodicConfig.zero(Z4), cfg(Z4, 2)}
    # restricted level is still a subgroup
    for x in tw.level(1).elements:
        for y in tw.level(1).elements:
            assert sigma.contains(x + y)


def test_restrict_kernel_shift_keeps_level_one():
    sigma = LinearKernelShift(F_xor)
    tw = restrict(tower(F_xor, 2), sigma)
    assert set(tw.level(1).elements) == set(tower(F_xor, 1).level(1).elements)


def test_kernel_shift_over_another_alphabet_contains_nothing():
    # as for the full shift and product subgroups: a configuration over
    # another alphabet is not a member, whatever its word
    for sigma in (LinearKernelShift(F_xor), FullShift(Z2),
                  ProductSubgroup(Z2, 1, Subgroup(Z2, ((0,), (1,))))):
        assert sigma.contains(PeriodicConfig.zero(Z2))
        assert not sigma.contains(PeriodicConfig.zero(Z3))
        assert not sigma.contains(cfg(Z4, 0, 2))


def test_full_shift_restricted_level_is_the_level_itself():
    tw = tower(F_xor, 1)
    assert tw.restricted_level(1, None) is tw.level(1)
    assert tw.restricted_level(1, FullShift(Z2)) is tw.level(1)


def test_tower_grows_on_request_and_keeps_its_levels():
    tw = tower(linear_ca(Z4, {0: 1, 1: 1, 2: 2}), 1)
    assert tw.depth == 1
    assert tw.level(3) is tw.level(3)
    assert tw.depth == 3
    assert tw.coded(2) is tw.coded(2)


def test_criteria_refuse_a_restricted_tower():
    sigma = LinearKernelShift(F_xor)
    tw = restrict(tower(F_xor, 2), sigma)
    with pytest.raises(ValueError, match="unrestricted"):
        condition4_search(tw, sigma)
    with pytest.raises(ValueError, match="unrestricted"):
        corollary_ker_check(tw, sigma)
    with pytest.raises(ValueError, match="levels 0..2 only"):
        tw.level(3)


def test_subgroup_shift_over_another_alphabet_is_refused():
    sigma = FullShift(Z3)
    with pytest.raises(ValueError, match="sigma .* Z/3, not over Z/2"):
        restrict(tower(F_xor, 1), sigma)
    with pytest.raises(ValueError, match="alphabet mismatch"):
        condition4_search(F_xor, sigma)
    with pytest.raises(ValueError, match="alphabet mismatch"):
        corollary_ker_check(F_xor, sigma)


def test_condition4_xor():
    res = condition4_search(F_xor)
    assert res.found and res.m == 0


def test_condition4_distance_two_needs_deeper_boundary():
    res = condition4_search(F_dist2, m_max=3)
    assert res.found
    assert res.m is not None and 1 <= res.m <= 2


def test_condition4_trivial_kernel_vacuous():
    res = condition4_search(shift_ca(Z2))
    assert res.found and res.m == 0


def test_condition4_monotone_once_found():
    # once the criterion holds at m it holds at deeper m as well
    res = condition4_search(F_dist2, m_max=3)
    m0 = res.m
    for extra in (1, 2):
        deeper = _condition4_at_exact_level(F_dist2, m0 + extra)
        assert deeper


def _condition4_at_exact_level(F, m):
    from groupca.groups import closure_set

    lower = set(kernel_elements(F, m)) if m > 0 else {PeriodicConfig.zero(F.alphabet)}
    upper = set(kernel_elements(F, m + 1))
    d1 = set(kernel_elements(F, 1))
    bound = upper - lower
    for d in bound:
        gen = closure_set(
            [d],
            add=lambda a, b: a + b,
                zero=PeriodicConfig.zero(F.alphabet),
            operators=[lambda c: c.shift(1), F.apply_periodic],
            cap=1 << 12,
        )
        if not d1 <= gen:
            return False
    return True


def test_corollary_ker_examples():
    assert corollary_ker_check(F_xor).holds
    res = corollary_ker_check(F_dist2)
    assert not res.holds
    assert res.proper_invariant_subgroups >= 1
    # prime-order kernels over Z/p
    for a, b in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        F = linear_ca(Z3, {0: a, 1: b})
        assert corollary_ker_check(F).holds


def test_corollary_ker_dual_f1():
    res = corollary_ker_check(DUAL_F1)
    assert res.holds
    full, cap = FullShift(DUAL_F1.alphabet), 1 << 12
    assert res == _corollary_oracle(DUAL_F1, full, cap)
    assert _every_element_generates(DUAL_F1, full, cap)


def test_corollary_ker_implies_condition4():
    for F in [F_xor, DUAL_F1, linear_ca(Z3, {0: 1, 1: 1})]:
        if corollary_ker_check(F).holds:
            assert condition4_search(F).found


def test_recurrence_matrix_examples():
    rec = recurrence_matrix(F_xor)
    assert rec.matrix == ((1,),)
    assert rec.matrix_order() == 1
    rec3 = recurrence_matrix(linear_ca(Z3, {0: 1, 1: 1}))
    assert rec3.matrix == ((2,),)
    assert rec3.matrix_order() == 2


def test_recurrence_matrix_rejects_bad_inputs():
    with pytest.raises(ValueError):
        recurrence_matrix(linear_ca(Z4, {0: 1, 1: 2}))
    with pytest.raises(ValueError):
        recurrence_matrix(shift_ca(Z2))


def test_matrix_order_bounds_element_periods():
    for coeffs in [{0: 1, 1: 1, 2: 1}, {0: 2, 1: 1, 2: 3}, {0: 4, 2: 3}]:
        F = linear_ca(Z5, coeffs)
        small = F.smallest_neighborhood()
        width = small.neighborhood[1] - small.neighborhood[0]
        rec = recurrence_matrix(F)
        order = rec.matrix_order()
        bound = math.prod(5**width - 5**i for i in range(width))
        assert bound % order == 0
        for x in kernel_elements(F, 1):
            assert order % x.period == 0


def _step(rec, state):
    """One step of the recurrence on a state vector."""
    return tuple(sum(m * x for m, x in zip(row, state)) % rec.modulus for row in rec.matrix)


def _orbit_period(rec, state):
    """Period of a state under the recurrence (orbits are purely periodic
    because the matrix is invertible)."""
    cur, t = _step(rec, state), 1
    while cur != state:
        cur, t = _step(rec, cur), t + 1
    return t


def test_recurrence_orbit_period_agrees_with_configs():
    F = linear_ca(Z3, {0: 1, 1: 1})
    rec = recurrence_matrix(F)
    for x in kernel_elements(F, 1):
        state = tuple(a[0] for a in x.window(0, rec.width))[::-1]
        assert _orbit_period(rec, state) == x.period


# -- the order of x modulo P against matrix powers of the companion matrix -------


def _matrix_order_oracle(rec):
    """The companion matrix's order by plain iteration of its powers until
    the identity, kept as the oracle for the order of x modulo P."""
    n, m, a = rec.width, rec.modulus, rec.matrix
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    acc, order = a, 1
    while acc != identity:
        acc = tuple(
            tuple(sum(row[k] * a[k][j] for k in range(n)) % m for j in range(n))
            for row in acc
        )
        order += 1
    return order


def _gl_order(m, r):
    """|GL_r(Z/m)|, the count of invertible r x r matrices over Z/m: the
    product over the prime powers p^j exactly dividing m of
    p^((j-1) r^2) |GL_r(F_p)|.  A companion matrix over Z/m lies in it, so
    its order, the order of x modulo its polynomial, divides it."""
    out = 1
    for p in _prime_factors(m):
        pj = math.gcd(m, p ** m.bit_length())  # the power of p exactly dividing m
        out *= (pj // p) ** (r * r) * math.prod(p**r - p**i for i in range(r))
    return out


def _gl_primes(m, r):
    """The distinct primes of |GL_r(Z/m)|, factoring each p^i - 1 (i <= r) of
    the product on its own rather than the product's second-largest prime."""
    primes = set()
    for p in _prime_factors(m):
        if r > 1 or m % (p * p) == 0:
            primes.add(p)
        for i in range(1, r + 1):
            primes.update(_prime_factors(p**i - 1))
    return sorted(primes)


@st.composite
def _unit_constant_monics(draw):
    """Monic f over Z/m with f(0) a unit, as a coefficient tuple lowest power
    first, with m and an exponent n of 1..3, f^n of degree at most 12."""
    m = draw(st.sampled_from((2, 3, 4, 5, 6, 8, 9, 10, 12, 18, 25, 27)))
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 12 // n))
    units = [c for c in range(1, m) if math.gcd(c, m) == 1]
    middle = draw(st.lists(st.integers(0, m - 1), min_size=k - 1, max_size=k - 1))
    return (draw(st.sampled_from(units)), *middle, 1), m, n


@settings(max_examples=100, deadline=None)
@given(_unit_constant_monics())
@example(((1, 0, 1), 2, 1))  # (1 + x)^2: the p-th-root step alone
@example(((1, 1, 1, 1, 1, 1), 2, 1))  # (1 + x + x^2)^2 (1 + x): the p-th-root step and Yun's loop
@example(((1, 0, 0, 1), 3, 1))  # (1 + x)^3
@example(((1, 3, 2, 1), 27, 1))
@example(((3, 7, 4, 7, 7, 1), 10, 1))  # P of the Z/10 rule whose order is 96,844
# x^3 + 2 = (x - 1)^3 over Z/3, to the n: the power of 3 moves with n
@example(((2, 0, 0, 1), 3, 3))
@example(((1, 1, 0, 1, 1), 2, 3))  # (1 + x)^2 (1 + x + x^2) over Z/2, cubed
@example(((1, 1), 9, 3))
def test_order_of_x_matches_the_gl_multiple(case):
    # the order of x modulo f^n, against the multiple |GL_k| of f^n's degree k
    poly, m, n = case
    f = _poly_pow({u: c for u, c in enumerate(poly) if c}, n, m)
    k = max(f)
    order = _order_of_x(poly, m, n)
    assert order == _x_order(f, m, _gl_order(m, k), _gl_primes(m, k))
    assert _poly_pow({1: 1}, order, m, f) == {0: 1}
    assert all(_poly_pow({1: 1}, order // ell, m, f) != {0: 1} for ell in _prime_factors(order))


@st.composite
def _unit_ended_rules(draw):
    """Scalar rules over Z/2..Z/12, Z/25 and Z/27 of width 1-3 whose extreme
    coefficients are units."""
    m = draw(st.sampled_from(tuple(range(2, 13)) + (25, 27)))
    width = draw(st.integers(1, 3))
    units = [c for c in range(1, m) if math.gcd(c, m) == 1]
    coeffs = {0: draw(st.sampled_from(units)), width: draw(st.sampled_from(units))}
    for u in range(1, width):
        coeffs[u] = draw(st.integers(0, m - 1))
    return linear_ca(GroupSpec((m,)), coeffs)


@settings(max_examples=300, deadline=None)
@given(_unit_ended_rules())
@example(linear_ca(GroupSpec((8,)), {0: 1, 1: 1, 2: 1, 3: 1}))
@example(linear_ca(GroupSpec((27,)), {0: 1, 1: 3, 2: 2, 3: 1}))
def test_matrix_order_matches_matrix_powers_and_the_tower(F):
    rec = recurrence_matrix(F)
    order = rec.matrix_order()
    assert order == _matrix_order_oracle(rec)
    if F.alphabet.order**rec.width <= 4096:
        assert order == tower(F, 1).period(1)


def test_matrix_order_of_a_composite_modulus_rule_with_a_long_orbit():
    # matrix powers reach the identity only after 96,844 steps here
    F = linear_ca(GroupSpec((10,)), {0: 1, 1: 9, 2: 8, 3: 9, 4: 9, 5: 7})
    assert recurrence_matrix(F).matrix_order() == 96_844


# -- the density criteria against closures of PeriodicConfig sums ----------------


def _config_closure(seeds, F, operators, cap):
    return closure_set(
        seeds,
        add=lambda a, b: a + b,
        zero=PeriodicConfig.zero(F.alphabet),
        operators=operators,
        cap=cap,
    )


def _condition4_oracle(F, sigma, m_max, cap):
    """Boundary search with every subgroup closed over PeriodicConfig sums."""
    ops = [lambda c: c.shift(1), F.apply_periodic]

    def level(n):
        return {x for x in kernel_elements(F, n, cap) if sigma.contains(x)}

    d1 = level(1)
    prev = {PeriodicConfig.zero(F.alphabet)}
    for m in range(m_max + 1):
        cur = level(m + 1)
        failures = tuple(
            d for d in sorted(cur - prev, key=lambda c: (c.period, c.word))
            if not d1 <= _config_closure([d], F, ops, cap)
        )
        if not failures:
            return Condition4Result(True, m, m_max)
        prev = cur
    return Condition4Result(False, None, m_max, failures)


def _corollary_oracle(F, sigma, cap):
    """Shift-closed subgroups of the first level, grown one generator at a
    time over PeriodicConfig sums."""
    d1 = [x for x in kernel_elements(F, 1, cap) if sigma.contains(x)]
    shift = [lambda c: c.shift(1)]
    seen = {_config_closure([], F, shift, len(d1) + 1)}
    frontier = set(seen)
    while frontier:
        bigger = {
            _config_closure(list(sub) + [g], F, shift, len(d1) + 1)
            for sub in frontier for g in d1 if g not in sub
        }
        frontier = bigger - seen
        seen |= bigger
    proper = sum(1 for sub in seen if 1 < len(sub) < len(d1))
    return CorollaryKerResult(proper == 0, proper)


def _every_element_generates(F, sigma, cap):
    """Whether every nonzero element of the first level, filtered by sigma,
    generates that filtered level under the shift and the rule."""
    d1 = {x for x in kernel_elements(F, 1, cap) if sigma.contains(x)}
    ops = [lambda c: c.shift(1), F.apply_periodic]
    return all(d1 <= _config_closure([d], F, ops, cap) for d in d1 if not d.is_zero)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, CapExceeded) as exc:
        return type(exc)


Z2xZ2 = GroupSpec((2, 2))
DUAL_TABLES = [
    table_from_rule(Z2, (-1, 1), lambda w: ((w[0][0] + w[1][0] + w[2][0]) % 2,)),
    table_from_rule(Z2, (-1, 1), lambda w: ((w[0][0] + w[2][0]) % 2,)),
]


def _coefficient(group):
    """An endomorphism of the group: entry (j, i) maps Z/d_i to Z/d_j, so it
    is a multiple of d_j / gcd(d_i, d_j)."""
    d = group.moduli
    if group.rank == 1:
        return st.integers(0, d[0] - 1)

    def entry(j, i):
        g = math.gcd(d[i], d[j])
        return st.integers(0, g - 1).map(lambda c: c * (d[j] // g))

    return st.tuples(*(st.tuples(*(entry(j, i) for i in range(group.rank)))
                       for j in range(group.rank)))


@st.composite
def _linear_rules(draw, group):
    width = draw(st.integers(1, 2))
    coeffs = draw(st.lists(_coefficient(group), min_size=width + 1, max_size=width + 1))
    return linear_ca(group, dict(enumerate(coeffs)), neighborhood=(0, width))


@st.composite
def _criteria_cases(draw):
    group = draw(st.sampled_from([Z2, Z3, Z4, Z2xZ2]))
    if group == Z2 and draw(st.booleans()):
        F = draw(st.sampled_from(DUAL_TABLES))
    else:
        F = draw(_linear_rules(group))
    kind = draw(st.sampled_from(["full", "product", "kernel"]))
    if kind == "full":
        sigma = FullShift(group)
    elif kind == "product":
        t = draw(st.integers(1, 2))
        ambient = group.power(t)
        gen = tuple(draw(st.integers(0, d - 1)) for d in ambient.moduli)
        block = subgroup_closure(ambient, [gen])
        sigma = ProductSubgroup(group, t, block, draw(st.integers(0, t - 1)))
    else:
        sigma = LinearKernelShift(draw(_linear_rules(group)))
    # the third level of a width-2 rule is too large for the oracle
    width = F.neighborhood[1] - F.neighborhood[0]
    return F, sigma, draw(st.integers(0, 2 if width == 1 else 1))


@settings(max_examples=40, deadline=None)
@given(_criteria_cases())
# fails at m = 0 and m = 1, so the third level's boundary is searched
@example((linear_ca(Z4, {0: 1, 1: 1}), FullShift(Z4), 2))
# the constant 1 fails to generate but lies outside sigma
@example((F_dist2, ProductSubgroup(Z2, 2, Subgroup(Z2.power(2), ((0, 0), (0, 1)))), 0))
# first-level windows of length 1 collide, although |A|^1 = |level 1|
@example((linear_ca(Z2xZ2, {0: [[0, 0], [0, 1]], 1: [[0, 0], [0, 1]],
                            2: [[1, 0], [0, 1]]}), FullShift(Z2xZ2), 1))
def test_density_criteria_match_config_closure_oracle(case):
    F, sigma, m_max = case
    cap = 1 << 12
    cond4 = _outcome(_condition4_oracle, F, sigma, m_max, cap)
    corker = _outcome(_corollary_oracle, F, sigma, cap)
    assert _outcome(condition4_search, KernelTower(F, cap), sigma, m_max) == cond4
    assert _outcome(corollary_ker_check, KernelTower(F, cap), sigma) == corker
    if isinstance(corker, CorollaryKerResult):
        # the rule kills level 1, so an invariant subgroup is one under both
        assert corker.holds == _every_element_generates(F, sigma, cap)
    # one tower shared by both criteria, in the order `analyze` runs them
    tw = KernelTower(F, cap)
    assert _outcome(condition4_search, tw, sigma, m_max) == cond4
    assert _outcome(corollary_ker_check, tw, sigma) == corker


def test_density_criteria_small_cap_names_it():
    with pytest.raises(CapExceeded, match="cap 3"):
        condition4_search(KernelTower(F_dist2, 3))
    with pytest.raises(CapExceeded, match="cap 3"):
        corollary_ker_check(KernelTower(F_dist2, 3))


# -- the additive walk against the per-letter walk --------------------------------


def _strongly_connected_components(graph: dict) -> list[list]:
    """Tarjan's algorithm, iterative to cope with long cycles: the oracle's
    walk, kept apart from the core trimming of the fast walk."""
    index: dict = {}
    low: dict = {}
    onstack: set = set()
    stack: list = []
    components: list[list] = []
    counter = itertools.count()
    for root in graph:
        if root in index:
            continue
        index[root] = low[root] = next(counter)
        stack.append(root)
        onstack.add(root)
        work = [(root, iter(graph[root]))]
        while work:
            v, children = work[-1]
            descended = False
            for w in children:
                if w not in index:
                    index[w] = low[w] = next(counter)
                    stack.append(w)
                    onstack.add(w)
                    work.append((w, iter(graph[w])))
                    descended = True
                    break
                if w in onstack:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                components.append(comp)
    return components


def _annihilated_oracle(G, cap):
    """The de Bruijn walk that evaluated the rule on every window of every
    vertex, kept as the oracle for the additive walk."""
    G = G.smallest_neighborhood()
    alphabet = G.alphabet
    k = G.width - 1
    abc = letters(alphabet)
    if len(abc) ** k > cap:
        raise CapExceeded(f"kernel seed space |A|^{k} exceeds cap {cap}")
    zero = alphabet.zero
    if k == 0:
        if [a for a in abc if G.local((a,)) == zero] != [zero]:
            raise InfiniteKernelError("pointwise rule with nontrivial letter kernel")
        return [PeriodicConfig.zero(alphabet)]
    graph = {
        u: [u[1:] + (a,) for a in abc if G.local(u + (a,)) == zero]
        for u in itertools.product(abc, repeat=k)
    }
    out = []
    for comp in _strongly_connected_components(graph):
        members = set(comp)
        internal = {u: [v for v in graph[u] if v in members] for u in comp}
        if len(comp) == 1 and comp[0] not in internal[comp[0]]:
            continue
        if any(len(vs) != 1 for vs in internal.values()):
            raise InfiniteKernelError("branching recurrent component")
        cycle_letters = []
        v = comp[0]
        while True:
            v = internal[v][0]
            cycle_letters.append(v[-1])
            if v == comp[0]:
                break
        L = len(cycle_letters)
        base = PeriodicConfig(alphabet, tuple(cycle_letters[(i - k) % L] for i in range(L)))
        for t in range(L):
            if len(out) >= cap:
                raise CapExceeded(f"kernel element count exceeds cap {cap}")
            out.append(base.shift(t))
    out.sort(key=lambda c: (c.period, c.word))
    return out


@st.composite
def _walk_cases(draw):
    group = draw(st.sampled_from([Z2, Z3, Z4, Z9, Z2xZ2, Z2xZ4]))
    kind = draw(st.sampled_from(["linear", "table", "dual"] if group == Z2
                                else ["linear", "table"]))
    if kind == "dual":
        F = draw(st.sampled_from(DUAL_TABLES))
    else:
        F = draw(_linear_rules(group))
        if kind == "table":
            F = table_from_rule(group, F.neighborhood, F.local)
    width = F.neighborhood[1] - F.neighborhood[0]
    depth = draw(st.integers(1, 3 if width == 1 else 2))
    return F, depth, draw(st.sampled_from([1 << 3, 1 << 12]))


def _elements(fn, *args):
    try:
        return tuple(fn(*args))
    except (InfiniteKernelError, CapExceeded) as exc:
        return type(exc)


Z9 = GroupSpec((9,))
# mixed moduli: the entry from Z/2 into Z/4 must be even
Z2xZ4 = GroupSpec((2, 4))


@settings(max_examples=60, deadline=None)
@given(_walk_cases())
# a Z/9 rule whose extreme coefficients are units, and one that is not
# bipermutative
@example((linear_ca(Z9, {0: 1, 1: 4}), 3, 1 << 12))
@example((linear_ca(Z9, {0: 3, 1: 1, 2: 6}), 2, 1 << 12))
# a Z/2 x Z/4 rule mixing the two factors both ways, and its table form
@example((linear_ca(Z2xZ4, {0: [[1, 1], [2, 1]], 1: [[1, 0], [0, 3]]}), 2, 1 << 12))
@example((table_from_rule(Z2xZ4, (0, 1), linear_ca(
    Z2xZ4, {0: [[1, 1], [2, 1]], 1: [[1, 0], [0, 3]]}).local), 2, 1 << 12))
# not bipermutative: the kernel is the four constants at every level
@example((linear_ca(Z4, {0: 1, 1: 1, 2: 2}), 2, 1 << 12))
# every vertex has two successors: a branching, infinite kernel
@example((linear_ca(Z4, {0: 2, 1: 2}), 1, 1 << 12))
# a pointwise rule with a nontrivial letter kernel
@example((linear_ca(Z4, {0: 2}, neighborhood=(0, 1)), 1, 1 << 12))
def test_kernel_levels_match_the_per_letter_walk(case):
    F, depth, cap = case
    tw = KernelTower(F, cap)
    for n in range(1, depth + 1):
        want = _elements(_annihilated_oracle, power(F, n), cap)
        assert _elements(lambda: tw.level(n).elements) == want, n
        if not isinstance(want, tuple):
            break
        # the coded tables agree with the shift and the rule on configurations,
        # with codes read by `PeriodicConfig.window` and the rule applied by
        # one local evaluation per letter (`apply_periodic`)
        lvl = tw.coded(n)

        def code(x):
            return tuple(c for a in x.window(0, lvl.ell) for c in a)

        assert [lvl.code(x) for x in want] == [code(x) for x in want]
        assert lvl.shift == {code(x): code(x.shift(1)) for x in want}
        assert lvl.rule == {code(x): code(F.apply_periodic(x)) for x in want}
        # kernel-shift membership agrees with the per-letter rule too
        if F.is_linear:
            sigma = LinearKernelShift(F)
            assert [sigma.contains(x) for x in want] == [
                F.apply_periodic(x).is_zero for x in want]


@settings(max_examples=40, deadline=None)
@given(_walk_cases())
def test_kernel_levels_sorted_on_letter_indices_are_in_period_then_word_order(case):
    # a level is sorted on its elements' letter-index words, before any
    # configuration is built; `letters` order is the letters' own order, so
    # that is the (period, word) order, with each word reduced and minimal
    F, depth, cap = case
    tw = KernelTower(F, cap)
    index = {a: i for i, a in enumerate(letters(F.alphabet))}
    for n in range(1, depth + 1):
        elements = _elements(lambda: tw.level(n).elements)
        if not isinstance(elements, tuple):
            break
        assert list(elements) == sorted(elements, key=lambda c: (c.period, c.word))
        assert list(elements) == sorted(
            elements, key=lambda c: (c.period, [index[a] for a in c.word]))
        assert [PeriodicConfig(F.alphabet, x.word).word for x in elements] == [
            x.word for x in elements]
        assert len(set(elements)) == len(elements)


BIPERMUTATIVE = {
    "z3": linear_ca(Z3, {0: 1, 1: 2}),
    "dual_f1": DUAL_F1,
    "z2xz2": linear_ca(Z2xZ2, {0: [[1, 1], [1, 0]], 1: [[0, 1], [1, 1]]}),
}


def _spy_local(monkeypatch):
    """Record every window the local rule is evaluated on from here on."""
    calls = []
    local = CellularAutomaton.local

    def spy(self, window):
        calls.append(window)
        return local(self, window)

    monkeypatch.setattr(CellularAutomaton, "local", spy)
    return calls


@pytest.mark.parametrize("name", sorted(BIPERMUTATIVE))
def test_walking_a_level_evaluates_each_column_once(monkeypatch, name):
    # level n of a width-(w+1) rule walks a width-(wn+1) rule whose columns
    # are the letter maps of its matrix terms (`letter_arithmetic`), each
    # built once: the local rule is never evaluated, per vertex or per column
    F = BIPERMUTATIVE[name]
    for n in (1, 2, 3):
        tw = KernelTower(F)
        tw.level(n - 1)
        calls = _spy_local(monkeypatch)
        tw.level(n)
        monkeypatch.undo()
        assert calls == [], n


def test_coding_a_level_and_kernel_shift_membership_call_no_local_rule(monkeypatch):
    # the rule is applied once per shift orbit by the letter maps of the
    # tower's linear form, so a coded level, of a table rule too, and
    # membership in a kernel shift never evaluate the local rule
    for F in BIPERMUTATIVE.values():
        table = table_from_rule(F.alphabet, F.neighborhood, F.local)
        sigma = LinearKernelShift(F)
        for G in (F, table):
            for n in (1, 2, 3):
                tw = KernelTower(G)
                elements = tw.level(n).elements
                calls = _spy_local(monkeypatch)
                lvl = tw.coded(n)
                members = [sigma.contains(x) for x in elements]
                monkeypatch.undo()
                assert lvl.ell >= 2 or n == 1
                assert calls == [], (G, n)
                assert all(members) == (n == 1)


# -- the closed form over prime fields against enumeration --------------------


Z7 = GroupSpec((7,))
# the widest rule drawn per field: the table form of a width-k rule has
# |A|^(k+1) windows, each checked against its linear form
_MAX_CLOSED_WIDTH = {Z2: 4, Z3: 3, Z5: 3, Z7: 2}


def _unit_ended(draw, group, k):
    """A rule over Z/q of width k whose extreme coefficients are units."""
    q = group.order
    unit = st.sampled_from([c for c in range(1, q) if math.gcd(c, q) == 1])
    coeffs = [draw(unit)] + draw(st.lists(st.integers(0, q - 1), min_size=k - 1,
                                          max_size=k - 1)) + [draw(unit)]
    r = draw(st.integers(-2, 0))
    return linear_ca(group, {r + i: c for i, c in enumerate(coeffs)}, neighborhood=(r, r + k))


@st.composite
def _closed_form_cases(draw):
    group = draw(st.sampled_from(sorted(_MAX_CLOSED_WIDTH, key=lambda g: g.order)))
    F = _unit_ended(draw, group, draw(st.integers(1, _MAX_CLOSED_WIDTH[group])))
    return F, draw(st.integers(1, 3)), draw(st.integers(0, 2)), draw(st.integers(1, 300))


def _tower_values(F, N, cap):
    try:
        tw = tower(F, N, cap)
    except CapExceeded as exc:
        return type(exc)
    assert tw.depth == N
    return [tw.size(n) for n in range(N + 1)], [tw.period(n) for n in range(N + 1)]


def _closed_form_outcomes(F, N, m_max, cap):
    """The tower and both criteria of F, on new towers and on a shared one."""
    tw = KernelTower(F, cap)
    return (
        _tower_values(F, N, cap),
        _outcome(condition4_search, KernelTower(F, cap), None, m_max),
        _outcome(corollary_ker_check, KernelTower(F, cap), FullShift(F.alphabet)),
        _outcome(condition4_search, tw, None, m_max),
        _outcome(corollary_ker_check, tw, None),
    )


@settings(max_examples=40, deadline=None)
@given(_closed_form_cases())
# repeated factors: (1+x)^2 and (1+x)^4 over Z/2, (1+x)^3 over Z/3
@example((linear_ca(Z2, {0: 1, 2: 1}), 3, 2, 300))
@example((linear_ca(Z2, {-2: 1, 2: 1}), 2, 1, 300))
@example((linear_ca(Z3, {0: 1, 3: 1}), 2, 0, 300))
# distinct factors: (1+x)(1+x+x^2) over Z/2, (x+1)(x+2) over Z/5, x^2-1 over Z/7
@example((linear_ca(Z2, {0: 1, 3: 1}), 2, 2, 300))
@example((linear_ca(Z5, {-1: 2, 0: 3, 1: 1}), 2, 1, 300))
@example((linear_ca(Z7, {0: 6, 2: 1}), 2, 1, 60))
# irreducible of degree 4 over Z/2, whose x-order is 5
@example((linear_ca(Z2, {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}), 3, 2, 300))
# the cap admits level 1 only
@example((linear_ca(Z3, {0: 1, 2: 2}), 3, 2, 9))
# width 9: an irreducible factor past the degree trial division reached
@example((linear_ca(Z2, {0: 1, 1: 1, 9: 1}), 1, 0, 2**10))
def test_closed_form_matches_enumeration_of_the_table_form(case):
    import groupca.kernels as kernels

    F, N, m_max, cap = case
    T = table_from_rule(F.alphabet, F.neighborhood, F.local)
    module = KernelTower(F, cap).module
    if F.alphabet.order ** (F.width - 1) <= cap:
        assert module is not None
    # the table form is read as the linear rule, closed form included
    assert KernelTower(T, cap).module == module
    # the oracle: the table form with no closed form, so every level enumerates
    with mock.patch.object(kernels, "_kernel_module", return_value=None):
        assert KernelTower(T, cap).module is None
        enumerated = _closed_form_outcomes(T, N, m_max, cap)
    assert _closed_form_outcomes(F, N, m_max, cap) == enumerated
    assert _closed_form_outcomes(T, N, m_max, cap) == enumerated


def test_closed_form_walks_no_level(monkeypatch):
    import groupca.kernels as kernels

    walks = []
    annihilated = kernels._annihilated

    def spy(G, cap):
        walks.append(G)
        return annihilated(G, cap)

    monkeypatch.setattr(kernels, "_annihilated", spy)
    for F, m in ((F_xor, 0), (F_dist2, 1), (linear_ca(Z3, {-1: 1, 1: 1}), 0),
                 (linear_ca(Z5, {0: 1, 1: 2}), 0)):
        tw = tower(F, 2)
        assert walks == []
        res = condition4_search(F, m_max=3)
        assert res.found and res.m == m
        # one factor: repeated, (1 + x)^2, exactly when m = 1, with one proper ideal
        assert corollary_ker_check(F) == CorollaryKerResult(m == 0, m)
        hyp = check_hypotheses(F, m_max=3)
        assert hyp.p1 == tw.period(1) and hyp.condition4 == res
        assert walks == []
        # depths far beyond what enumeration reaches, under a cap that admits them
        tw = tower(F, 12, cap=10**40)
        assert tw.depth == 12
        assert tw.size(12) == F.alphabet.order ** (12 * (F.width - 1))
        assert tw.period(12) % tw.period(11) == 0
    # a failing search whose depth is past the cap raises as enumeration would,
    # at the first level over the cap, before walking any level
    with pytest.raises(CapExceeded, match=r"\|A\|\^18 exceeds cap 65536"):
        condition4_search(linear_ca(Z2, {0: 1, 3: 1}), m_max=10**9)
    assert walks == []
    # reading elements still enumerates
    assert tower(F_xor, 2).level(2).size == 4
    assert walks


def test_table_towers_walk_nothing_the_closed_form_gives(monkeypatch):
    import groupca.kernels as kernels

    walks, composed = [], []
    annihilated, compose = kernels._annihilated, kernels.compose

    def spy_walk(G, cap):
        walks.append(G)
        return annihilated(G, cap)

    def spy_compose(F, G, *args):
        composed.append((F, G))
        return compose(F, G, *args)

    monkeypatch.setattr(kernels, "_annihilated", spy_walk)
    monkeypatch.setattr(kernels, "compose", spy_compose)
    for F in (DUAL_F1, F_dist2, linear_ca(Z5, {0: 1, 1: 2})):
        T = table_from_rule(F.alphabet, F.neighborhood, F.local)
        tw = tower(T, 3)
        assert [tw.size(n) for n in range(4)] == [tower(F, 3).size(n) for n in range(4)]
        assert condition4_search(T).found
    assert walks == []
    # a Z/4 table has no closed form: its levels are walked, from powers of
    # its linear form
    F = linear_ca(Z4, {0: 1, 1: 1, 2: 2})
    want = KernelTower(F).level(3)
    walks.clear()
    composed.clear()
    T = table_from_rule(Z4, F.neighborhood, F.local)
    assert KernelTower(T).level(3) == want
    assert len(walks) == 3 and len(composed) == 2
    assert all(F.coeffs is not None and G.coeffs is not None for F, G in composed)
    # twelve levels of a width-3 table: composed as a table, F^10 had 2^21
    # entries, over the table cap, and raised CapExceeded; the closed form
    # gives them all
    T = DUAL_TABLES[0]
    tw = tower(T, 12, cap=2**30)
    assert [tw.size(n) for n in range(13)] == [4**n for n in range(13)]
    # 1+x+x^2 is irreducible with x-order 3: p_n = 3 * 2^t with 2^t >= n
    assert [tw.period(n) for n in range(13)] == [1, 3, 6, 12, 12] + [24] * 4 + [48] * 4
    assert len(walks) == 3


# -- the closed forms over Z/p^j and the annihilator search -------------------


Z8, Z9, Z25 = GroupSpec((8,)), GroupSpec((9,)), GroupSpec((25,))
# the widest unit-ended rule drawn per ring: the enumeration oracle walks the
# levels and closes subgroups of the second one
_MAX_LIFTED_WIDTH = {Z4: 2, Z8: 1, Z9: 1, Z25: 1}


@st.composite
def _lifted_cases(draw):
    group = draw(st.sampled_from(sorted(_MAX_LIFTED_WIDTH, key=lambda g: g.order)))
    F = _unit_ended(draw, group, draw(st.integers(1, _MAX_LIFTED_WIDTH[group])))
    return F, draw(st.integers(1, 3)), draw(st.integers(0, 1)), draw(st.integers(1, 1 << 12))


@settings(max_examples=40, deadline=None)
@given(_lifted_cases())
@example((linear_ca(Z4, {0: 1, 1: 1}), 3, 1, 1 << 12))
@example((linear_ca(Z9, {0: 1, 1: 1}), 3, 1, 1 << 12))
@example((linear_ca(Z8, {-1: 3, 0: 5}), 3, 0, 1 << 12))
@example((linear_ca(Z25, {0: 2, 1: 7}), 2, 1, 1 << 12))
@example((linear_ca(Z4, {0: 1, 1: 2, 2: 3}), 3, 1, 1 << 12))
def test_lifted_closed_form_matches_enumeration(case):
    import groupca.kernels as kernels

    F, N, m_max, cap = case
    module = KernelTower(F, cap).module
    assert (module is not None) == (F.alphabet.order ** (F.width - 1) <= cap)
    T = table_from_rule(F.alphabet, F.neighborhood, F.local)
    assert KernelTower(T, cap).module == module
    with mock.patch.object(kernels, "_kernel_module", return_value=None):
        enumerated = _closed_form_outcomes(F, N, m_max, cap)
    assert _closed_form_outcomes(F, N, m_max, cap) == enumerated


@st.composite
def _failing_search_cases(draw):
    F, _, m_max, _ = draw(_closed_form_cases())
    module = KernelTower(F).module
    assume(module.condition4_m is None or module.condition4_m > m_max)
    return F, m_max


@settings(max_examples=40, deadline=None)
@given(_failing_search_cases())
@example((linear_ca(Z2, {0: 1, 3: 1}), 2))
@example((linear_ca(Z2, {0: 1, 1: 1, 2: 1, 3: 1}), 0))
@example((linear_ca(Z5, {-1: 2, 0: 3, 1: 1}), 1))
def test_failing_search_by_annihilators_matches_enumeration(case):
    import groupca.kernels as kernels

    F, m_max = case
    cap = 1 << 12
    with mock.patch.object(kernels, "_kernel_module", return_value=None):
        enumerated = _outcome(condition4_search, KernelTower(F, cap), None, m_max)
    assert _outcome(condition4_search, KernelTower(F, cap), None, m_max) == enumerated


def test_failing_search_on_the_closed_form_closes_nothing(monkeypatch):
    import groupca.kernels as kernels

    cases = [(linear_ca(Z2, {0: 1, 3: 1}), 1), (linear_ca(Z2, {0: 1, 3: 1}), 2),
             (linear_ca(Z2, {0: 1, 1: 1, 2: 1, 3: 1}), 0), (linear_ca(Z3, {0: 1, 2: 2}), 1)]
    with mock.patch.object(kernels, "_kernel_module", return_value=None):
        enumerated = [condition4_search(F, m_max=m) for F, m in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("the failing search closed a subgroup")

    monkeypatch.setattr(kernels, "_CodedLevel", refuse)
    monkeypatch.setattr(kernels, "closure_set", refuse)
    assert [condition4_search(F, m_max=m) for F, m in cases] == enumerated
    assert [len(res.failures) for res in enumerated] == [14, 52, 3, 12]


def test_lifted_towers_walk_no_level(monkeypatch):
    import groupca.kernels as kernels

    walks = []
    annihilated = kernels._annihilated

    def spy(G, cap):
        walks.append(G)
        return annihilated(G, cap)

    monkeypatch.setattr(kernels, "_annihilated", spy)
    for F in (linear_ca(Z4, {0: 1, 1: 1}), linear_ca(Z8, {0: 3, 1: 1, 2: 5}),
              linear_ca(Z9, {0: 1, 1: 1}), linear_ca(Z25, {-1: 2, 0: 7, 1: 1})):
        tw = tower(F, 2, cap=10**6)
        assert [tw.size(n) for n in range(3)] == [F.alphabet.order ** (n * (F.width - 1))
                                                  for n in range(3)]
    assert walks == []
    # twelve levels deep: 1 + x over Z/9, and over prime fields with a
    # repeated factor, 1 + 2x^3 = 2(x - 1)^3 over Z/3 and
    # (1 + x)^2 (1 + x + x^2) over Z/2, where the power of p in the period
    # moves with n.  Each period is the order of x modulo P^n: x to it is 1,
    # and to each proper divisor is not
    for group, P in ((Z9, {0: 1, 1: 1}), (Z3, {0: 1, 3: 2}), (Z2, {0: 1, 1: 1, 3: 1, 4: 1})):
        q, k = group.order, max(P)
        tw = tower(linear_ca(group, P), 12, cap=10**40)
        assert walks == []
        assert [tw.size(n) for n in range(13)] == [q ** (k * n) for n in range(13)]
        for n in range(1, 13):
            mod = _poly_pow(P, n, q)
            period = tw.period(n)
            assert _poly_pow({1: 1}, period, q, mod) == {0: 1}
            assert all(_poly_pow({1: 1}, period // ell, q, mod) != {0: 1}
                       for ell in _prime_factors(period))
    # a Z/4 rule whose extreme coefficient is no unit is still walked
    assert KernelTower(linear_ca(Z4, {0: 1, 1: 1, 2: 2})).module is None


def _transforms(F, unit, j):
    """F, its reflection, sigma^j composed with F and unit * F."""
    c = {u: f.matrix[0][0] for u, f in F.coeffs.items()}
    q = F.alphabet.order
    return [F, linear_ca(F.alphabet, {-u: a for u, a in c.items()}),
            linear_ca(F.alphabet, {u + j: a for u, a in c.items()}),
            linear_ca(F.alphabet, {u: unit * a % q for u, a in c.items()})]


@st.composite
def _metamorphic_lifted_cases(draw):
    group = draw(st.sampled_from([Z4, Z8, Z9, Z25]))
    F = _unit_ended(draw, group, draw(st.integers(1, 3)))
    q = group.order
    unit = draw(st.sampled_from([c for c in range(2, q) if math.gcd(c, q) == 1]))
    return F, unit, draw(st.integers(-3, 3))


@settings(max_examples=40, deadline=None)
@given(_metamorphic_lifted_cases())
def test_lifted_towers_past_the_cap_agree_on_related_rules(case):
    values = {repr(_tower_values(G, 12, 10**40)) for G in _transforms(*case)}
    assert len(values) == 1, values


@st.composite
def _metamorphic_field_cases(draw):
    """A rule over Z/p whose P mod p has two or more distinct factors by
    construction: a drawn unit-ended g times x - a for a unit a with
    g(a) != 0, a factor g lacks.  If every unit is a root of g, then over
    Z/2 1 + x divides g and 1 + x + x^2 is the second factor; over a larger
    field g has p - 1 >= 2 linear factors already."""
    group = draw(st.sampled_from(sorted(_MAX_CLOSED_WIDTH, key=lambda g: g.order)))
    p = group.order
    g = _from_zero(_unit_ended(draw, group, draw(st.integers(1, _MAX_CLOSED_WIDTH[group] - 1))))
    free = [a for a in range(1, p) if sum(c * a**u for u, c in g.items()) % p]
    second = ({0: -draw(st.sampled_from(free)) % p, 1: 1} if free
              else {0: 1, 1: 1, 2: 1} if p == 2 else {0: p - 1, 1: 1})
    r = draw(st.integers(-2, 0))
    F = linear_ca(group, {r + u: c for u, c in _poly_mul(g, second, p).items()})
    return F, draw(st.sampled_from(range(1, p))), draw(st.integers(-3, 3))


def _failure_count(F, m_max):
    res = _outcome(condition4_search, KernelTower(F, 1 << 12), None, m_max)
    return res if isinstance(res, type) else (res.found, len(res.failures))


@settings(max_examples=30, deadline=None)
@given(_metamorphic_field_cases())
@example((linear_ca(Z2, {0: 1, 3: 1}), 1, 2))
def test_failure_counts_agree_on_related_rules(case):
    assert len(factor_mod_p(case[0]).factors) >= 2
    for m_max in (1, 2):
        counts = {_failure_count(G, m_max) for G in _transforms(*case)}
        assert len(counts) == 1, (m_max, counts)


@st.composite
def _wide_field_cases(draw):
    """A unit-ended rule over Z/2, Z/3 or Z/5 of width 9-40, past the degree-8
    trial-division oracle, with a unit and a shift for `_transforms`."""
    group = draw(st.sampled_from([Z2, Z3, Z5]))
    F = _unit_ended(draw, group, draw(st.integers(9, 40)))
    return F, draw(st.sampled_from(range(1, group.order))), draw(st.integers(-3, 3))


@settings(max_examples=30, deadline=None)
@given(_wide_field_cases())
@example((linear_ca(Z2, {0: 1, 1: 1, 31: 1}), 1, 2))  # factors of degree 3, 7 and 21
@example((linear_ca(Z3, {0: 1, 9: 2}), 2, -1))  # (x - 1)^9: one factor, multiplicity 9
def test_orders_and_factor_degrees_agree_on_related_rules(case):
    # the reflection maps P to its reciprocal polynomial, which has the same
    # x-order and factor degrees; sigma^j F and u F share P itself
    import groupca.modular as modular

    values = set()
    for G in _transforms(*case):
        for cached in (modular._parts, modular._order_of_x, modular._factors):
            cached.cache_clear()
        degrees = sorted((len(f) - 1, e) for f, e in factor_mod_p(G).factors)
        values.add((recurrence_matrix(G).matrix_order(), tuple(degrees)))
    assert len(values) == 1, values


def _poly_gcd(a, b, p):
    """The monic gcd over Z/p by Euclid's algorithm on `_poly_divmod`: the
    test-only oracle for a level restricted to a kernel shift, and for
    Rabin's irreducibility test in `test_modular`."""
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    inv = pow(a[max(a)], -1, p)
    return {u: c * inv % p for u, c in a.items()}


def _from_zero(F):
    """F's polynomial, its lowest offset moved to 0."""
    c = {u: f.matrix[0][0] for u, f in F.coeffs.items()}
    return {u - min(c): a for u, a in c.items()}


@st.composite
def _kernel_shift_cases(draw):
    group = draw(st.sampled_from([Z2, Z3, Z5]))
    F = _unit_ended(draw, group, draw(st.integers(1, 3)))
    n = draw(st.integers(1, 3))
    assume(group.order ** (n * (F.width - 1)) <= 1 << 12)
    G = _unit_ended(draw, group, draw(st.integers(1, 4)))
    return F, G, n


@settings(max_examples=40, deadline=None)
@given(_kernel_shift_cases())
@example((linear_ca(Z2, {0: 1, 3: 1}), linear_ca(Z2, {0: 1, 1: 1, 2: 1}), 2))
@example((linear_ca(Z3, {0: 1, 1: 2, 2: 1}), linear_ca(Z3, {0: 1, 1: 1}), 3))
@example((linear_ca(Z2, {0: 1, 1: 1}), linear_ca(Z2, {0: 1, 1: 1, 2: 1}), 2))
def test_a_level_inside_a_kernel_shift_is_the_kernel_of_a_gcd(case):
    # ker F^n restricted to ker G is ker gcd(P^n, G) over Z/p
    F, G, n = case
    p, cap = F.alphabet.order, 1 << 12
    g = _poly_gcd(_poly_pow(_from_zero(F), n, p), _from_zero(G), p)
    want = (set(kernel_elements(linear_ca(F.alphabet, g), 1, cap)) if max(g)
            else {PeriodicConfig.zero(F.alphabet)})
    restricted = restrict(tower(F, n, cap), LinearKernelShift(G))
    assert set(restricted.level(n).elements) == want


def _additive_oracle(F):
    """The additivity check over every pair of windows, kept as the oracle
    for the check against the linear form."""
    zero = F.alphabet.zero
    if F.table[(zero,) * F.width] != zero:
        raise NotAlgebraicError("table rule does not map the zero window to zero")
    for u in F.table:
        for v in F.table:
            s = tuple(F.alphabet.add(a, b) for a, b in zip(u, v))
            if F.table[s] != F.alphabet.add(F.table[u], F.table[v]):
                raise NotAlgebraicError(f"table rule is not additive at windows {u} + {v}")
    return F


Z2xZ4 = GroupSpec((2, 4))


def _endomorphisms(group):
    """Matrices of endomorphisms: entry (j, i) maps Z/d_i into Z/d_j."""
    d = group.moduli
    return st.tuples(*(
        st.tuples(*(st.sampled_from([m for m in range(d[j]) if m * d[i] % d[j] == 0])
                    for i in range(group.rank)))
        for j in range(group.rank)
    ))


@st.composite
def _table_forms(draw):
    group = draw(st.sampled_from([Z2, Z3, Z4, Z2xZ2, Z2xZ4]))
    widest = max(w for w in range(3) if group.order ** (w + 1) <= 64)
    w = draw(st.integers(0, widest))
    r = draw(st.integers(-1, 0))
    coeffs = draw(st.lists(_endomorphisms(group), min_size=w + 1, max_size=w + 1))
    F = linear_ca(group, {r + i: c for i, c in enumerate(coeffs)}, neighborhood=(r, r + w))
    T = table_from_rule(group, F.neighborhood, F.local)
    window = draw(st.sampled_from(sorted(T.table)))
    value = draw(st.sampled_from(letters(group)))
    return F, T, CellularAutomaton(group, T.neighborhood, table={**T.table, window: value})


def _rejects(check, F):
    try:
        check(F)
    except NotAlgebraicError:
        return True
    return False


@settings(max_examples=80, deadline=None)
@given(_table_forms())
def test_additive_tables_read_as_their_linear_rule(case):
    F, T, changed = case
    assert as_laurent(T) == as_laurent(F)
    assert _rejects(as_laurent, changed) == _rejects(_additive_oracle, changed)


def test_a_column_that_is_no_homomorphism_is_not_algebraic():
    # column 0 sends (1,0), of order 2, to (0,1), of order 4
    T = table_from_rule(Z2xZ4, (0, 1), lambda w: (w[1][0], (w[0][0] + w[1][1]) % 4))
    assert _rejects(_additive_oracle, T)
    with pytest.raises(NotAlgebraicError, match="offset 0: entry 1: not a homomorphism"):
        as_laurent(T)
    with pytest.raises(NotAlgebraicError):
        tower(T, 1)


# -- kernel-shift languages against the plain depth-first walk -------------------


def _padded_words(sigma, length, pad):
    """The middle words of the kernel solutions on a window padded by `pad`
    letters on both sides: the depth-first walk letter by letter, with the
    walks that reach one state merged, a state being the last k letters (k
    the width less one) and the middle word read so far."""
    small = sigma.automaton.smallest_neighborhood()
    k, zero = small.width - 1, sigma.alphabet.zero
    abc = letters(sigma.alphabet)
    states = {((), ())}
    for i in range(length + 2 * pad):
        middle = pad <= i < pad + length
        nxt = set()
        for tail, word in states:
            for a in abc:
                window = tail + (a,)
                if len(window) == small.width and small.local(window) != zero:
                    continue
                nxt.add((window[len(window) - k:], word + (a,) if middle else word))
        states = nxt
    return {word for _, word in states}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([Z2, Z3, Z4, Z2xZ2]).flatmap(_linear_rules), st.integers(1, 3))
@example(linear_ca(Z4, {0: 2}), 3)  # the infinite kernel of 2x: letters 0 and 2
@example(linear_ca(Z4, {0: 1, 1: 2}), 2)  # padding by one letter still admits a 2
@example(linear_ca(Z2, {-1: 1, 0: 1, 1: 1}), 3)
@example(linear_ca(Z3, {0: 1, 1: 2, 2: 1}), 3)
def test_kernel_language_matches_the_padded_depth_first_walk(F, length):
    # a word that extends |A|^k letters both ways, k the width less one,
    # walks through a repeated vertex on each side, so it lies on a
    # bi-infinite path of the core
    sigma = LinearKernelShift(F)
    k = F.smallest_neighborhood().width - 1
    words = sigma.language(length)
    assert len(words) == len(set(words))
    assert set(words) == _padded_words(sigma, length, F.alphabet.order ** k)


def test_gl_primes_are_the_primes_of_the_gl_order():
    for m, r in itertools.product(range(2, 41), range(1, 5)):
        assert _gl_primes(m, r) == _prime_factors(_gl_order(m, r)), (m, r)


def test_matrix_order_past_width_37_returns():
    # 1 + x + x^37 has irreducible factors of degrees 18 and 19 over Z/2, and
    # the order of x is found from 2^18 - 1 and 2^19 - 1; a multiple as large
    # as |GL_37(F_2)| took seconds, so run it with a timeout
    script = (
        "from groupca.automata import _poly_pow, linear_ca\n"
        "from groupca.groups import GroupSpec, _prime_factors\n"
        "from groupca.kernels import recurrence_matrix\n"
        "rec = recurrence_matrix(linear_ca(GroupSpec((2,)), {0: 1, 1: 1, 37: 1}))\n"
        "order = rec.matrix_order()\n"
        "f = dict(enumerate(-c % 2 for c in reversed(rec.matrix[0]))) | {37: 1}\n"
        "assert _poly_pow({1: 1}, order, 2, f) == {0: 1}\n"
        "assert all(_poly_pow({1: 1}, order // ell, 2, f) != {0: 1}\n"
        "           for ell in _prime_factors(order))\n"
        "print(order)\n"
    )
    src = str(Path(groupca.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == 137_438_167_041


def test_matrix_order_of_a_degree_61_irreducible_returns():
    # 1 + x + x^2 + x^5 + x^61 is irreducible over Z/2, so the order of x
    # divides the prime 2^61 - 1, which trial division would run to
    # 1.5 * 10^9 to factor; so run it with a timeout
    script = (
        "from groupca.automata import _poly_pow, linear_ca\n"
        "from groupca.groups import GroupSpec\n"
        "from groupca.kernels import recurrence_matrix\n"
        "F = linear_ca(GroupSpec((2,)), {0: 1, 1: 1, 2: 1, 5: 1, 61: 1})\n"
        "order = recurrence_matrix(F).matrix_order()\n"
        "assert _poly_pow({1: 1}, order, 2, {0: 1, 1: 1, 2: 1, 5: 1, 61: 1}) == {0: 1}\n"
        "print(order)\n"
    )
    src = str(Path(groupca.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == 2**61 - 1


def _derivations_run(calls) -> dict:
    """Run calls(); count each derivation memoized on an automaton that
    actually ran (a call of the function `_memoized` wraps), by its name and
    the automaton it ran on."""
    wrapped = (CellularAutomaton.smallest_neighborhood, CellularAutomaton.permutativity,
               as_laurent, _kernel_module)
    codes = {f.__wrapped__.__code__: f.__name__ for f in wrapped}
    runs: dict = {}
    kept = []  # each automaton stays alive, so its id names it alone

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            F = frame.f_locals[frame.f_code.co_varnames[0]]
            kept.append(F)
            key = (codes[frame.f_code], id(F))
            runs[key] = runs.get(key, 0) + 1

    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        calls()
    finally:
        sys.setprofile(before)
    return runs


@pytest.mark.parametrize("F", [
    linear_ca(Z5, {0: 2, 1: 1, 2: 3}),
    linear_ca(Z4, {-1: 3, 0: 2, 1: 1}),
    table_from_rule(Z3, (-1, 1), lambda win: ((win[0][0] + 2 * win[2][0]) % 3,)),
    linear_ca(GroupSpec((2, 2)), {0: [[1, 1], [0, 1]], 1: [[1, 0], [1, 1]]}),
], ids=["Z5_linear", "Z4_linear", "Z3_additive_table", "Z2xZ2_matrix"])
def test_one_kernel_job_derives_each_rule_structure_once(F):
    # the three towers of a kernel job and the premises share the rule's
    # smallest neighborhood, permutativity, linear form and closed form,
    # which the prime-field rules and the unit-ended Z/4 rule have
    prime_field = F.alphabet.moduli in ((3,), (5,))
    unit_ended = F.alphabet.moduli == (4,)

    def job():
        tower(F, 2)
        condition4_search(F, m_max=1)
        corollary_ker_check(F)
        check_hypotheses(F, m_max=1)
        if prime_field:
            factor_mod_p(as_laurent(F))

    runs = _derivations_run(job)
    assert runs and max(runs.values()) == 1, runs
    names = {name for name, _ in runs}
    assert {"smallest_neighborhood", "permutativity", "as_laurent", "_kernel_module"} <= names
    assert (KernelTower(F).module is not None) == (prime_field or unit_ended)
    # what is kept on the rule is its derivations, never a level, a verdict
    # or a factorization
    for G in (F, as_laurent(F)):
        kept = {key[0] for key in G.__dict__["_derived"]}
        assert kept <= {"smallest_neighborhood", "permutativity", "as_laurent", "_kernel_module"}
    # the same job again derives nothing on the rule; only the powers F^n
    # that each tower composes for its levels are new automata
    ids = {id(F), id(as_laurent(F))}
    assert not [key for key in _derivations_run(job) if key[1] in ids]


@pytest.mark.parametrize("coeffs, m, P, p", [
    ({0: 2, 1: 1, 2: 3}, 5, {0: 4, 1: 2, 2: 1}, 5),
    ({0: 1, 3: 2}, 3, {0: 2, 3: 1}, 3),  # (x - 1)^3: the p-th-root step
    ({0: 1, 1: 1}, 9, {0: 1, 1: 1}, 3),  # over Z/9, decomposed mod 3
], ids=["Z5", "Z3_cube", "Z9"])
def test_one_kernel_job_decomposes_each_polynomial_once(monkeypatch, coeffs, m, P, p):
    # the tower's periods, both criteria, matrix_order and factor_mod_p read
    # one squarefree and distinct-degree split of the monic P mod p
    import groupca.modular as modular

    for cached in (modular._parts, modular._order_of_x, modular._factors):
        cached.cache_clear()
    splits, degrees, depth = [], [], []
    squarefree, distinct = modular._squarefree_parts, modular._distinct_degree

    def spy_squarefree(f, q):
        if not depth:  # the p-th-root step recurses
            splits.append((tuple(sorted(f.items())), q))
        depth.append(f)
        try:
            return squarefree(f, q)
        finally:
            depth.pop()

    def spy_distinct(g, q):
        degrees.append((tuple(sorted(g.items())), q))
        return distinct(g, q)

    monkeypatch.setattr(modular, "_squarefree_parts", spy_squarefree)
    monkeypatch.setattr(modular, "_distinct_degree", spy_distinct)
    F = linear_ca(GroupSpec((m,)), coeffs)
    tw = tower(F, 3)
    condition4_search(F, m_max=1)
    corollary_ker_check(F)
    assert recurrence_matrix(F).matrix_order() == tw.period(1)
    if m == p:
        factor_mod_p(F)
    assert splits == [(tuple(sorted(P.items())), p)]
    assert len(degrees) == len(set(degrees)) >= 1
