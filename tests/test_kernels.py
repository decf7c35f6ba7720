"""Kernel towers, shift periods, restrictions and the density criteria."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import groupca
from groupca.automata import (
    CellularAutomaton,
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
    _gl_order,
    _gl_primes,
    _prime_factors,
    closure_set,
    subgroup_closure,
)
from groupca.kernels import (
    Condition4Result,
    CorollaryKerResult,
    FullShift,
    InfiniteKernelError,
    KernelTower,
    LinearKernelShift,
    NotAlgebraicError,
    ProductSubgroup,
    boundary,
    condition4_search,
    corollary_ker_check,
    kernel_elements,
    recurrence_matrix,
    restrict,
    tower,
)

Z2 = GroupSpec((2,))
Z3 = GroupSpec((3,))
Z4 = GroupSpec((4,))
Z5 = GroupSpec((5,))


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
    assert all(gen for _, gen in res.boundary_generates)


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
        additive_operators=True,
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
    ops = shift + [F.apply_periodic]
    gens = tuple(
        (d, set(d1) <= _config_closure([d], F, ops, cap)) for d in d1 if not d.is_zero
    )
    return CorollaryKerResult(proper == 0, proper, gens)


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
    assert _outcome(condition4_search, F, sigma, m_max, cap) == cond4
    assert _outcome(corollary_ker_check, F, sigma, cap) == corker
    # one tower shared by both criteria, in the order `analyze` runs them
    tw = KernelTower(F, cap)
    assert _outcome(condition4_search, tw, sigma, m_max, cap) == cond4
    assert _outcome(corollary_ker_check, tw, sigma, cap) == corker


def test_density_criteria_small_cap_names_it():
    with pytest.raises(CapExceeded, match="cap 3"):
        condition4_search(F_dist2, cap=3)
    with pytest.raises(CapExceeded, match="cap 3"):
        corollary_ker_check(F_dist2, cap=3)


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


@st.composite
def _closed_form_cases(draw):
    group = draw(st.sampled_from(sorted(_MAX_CLOSED_WIDTH, key=lambda g: g.order)))
    p = group.order
    k = draw(st.integers(1, _MAX_CLOSED_WIDTH[group]))
    unit = st.integers(1, p - 1)
    coeffs = [draw(unit)] + draw(st.lists(st.integers(0, p - 1), min_size=k - 1,
                                          max_size=k - 1)) + [draw(unit)]
    r = draw(st.integers(-2, 0))
    F = linear_ca(group, {r + i: c for i, c in enumerate(coeffs)}, neighborhood=(r, r + k))
    return F, draw(st.integers(1, 3)), draw(st.integers(0, 2)), draw(st.integers(1, 300))


def _tower_values(F, N, cap):
    try:
        tw = tower(F, N, cap)
    except CapExceeded as exc:
        return type(exc)
    assert tw.depth == N
    return [tw.size(n) for n in range(N + 1)], [tw.period(n) for n in range(N + 1)]


def _closed_form_outcomes(F, N, m_max, cap):
    """The tower and both criteria of F, on new towers and on shared ones."""
    tw, wide = KernelTower(F, cap), KernelTower(F, 1 << 9)
    return (
        _tower_values(F, N, cap),
        _outcome(condition4_search, F, None, m_max, cap),
        _outcome(corollary_ker_check, F, FullShift(F.alphabet), cap),
        _outcome(condition4_search, tw, None, m_max, cap),
        _outcome(corollary_ker_check, tw, None, cap),
        # towers under a larger cap than the criteria's closures
        _outcome(condition4_search, wide, None, m_max, cap),
        _outcome(corollary_ker_check, wide, None, cap),
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
    # |GL_37(F_2)| has the factor 2^37 - 1 = 223 * 616318177; trial division
    # of the whole product would run to 616318177, so run it with a timeout
    script = (
        "from groupca.automata import linear_ca\n"
        "from groupca.groups import GroupSpec, _prime_factors\n"
        "from groupca.kernels import recurrence_matrix\n"
        "from groupca.modular import _dense_pow\n"
        "rec = recurrence_matrix(linear_ca(GroupSpec((2,)), {0: 1, 1: 1, 37: 1}))\n"
        "order = rec.matrix_order()\n"
        "f = tuple(-c % 2 for c in reversed(rec.matrix[0])) + (1,)\n"
        "assert _dense_pow((0, 1), order, 2, f) == (1,)\n"
        "assert all(_dense_pow((0, 1), order // ell, 2, f) != (1,)\n"
        "           for ell in _prime_factors(order))\n"
        "print(order)\n"
    )
    src = str(Path(groupca.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == 137_438_167_041
