"""Exact cylinder probabilities, invariance, characters, Haar tests, Cesaro
averages, the counterexample bundle and hypothesis reports."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupca.automata import compose, letters, linear_ca, shift_ca, table_ca
from groupca.configs import Cylinder, PeriodicConfig
from groupca.groups import CapExceeded, Character, GroupSpec, Subgroup, subgroup_closure
from groupca.kernels import FullShift, LinearKernelShift, ProductSubgroup
from groupca.measures import (
    DEFAULT_EXPANSION_CAP,
    Bernoulli,
    HaarMeasure,
    MixtureMeasure,
    PeriodicOrbitMeasure,
    PushforwardMeasure,
    character_integral,
    cesaro_sequence,
    check_hypotheses,
    counterexample_suite,
    cylinder_prob,
    haar_test,
    invariance_check,
    sample,
    sigma_entropy_exact,
    uniform_bernoulli,
)

Z2 = GroupSpec((2,))
Z4 = GroupSpec((4,))

F_xor = linear_ca(Z2, {0: 1, 1: 1})


def w(*xs):
    return tuple((a,) for a in xs)


def test_bernoulli_cylinder_prob():
    mu = uniform_bernoulli(Z2)
    assert cylinder_prob(mu, Cylinder(0, w(0, 1))) == Fraction(1, 4)
    biased = Bernoulli(Z2, {(0,): Fraction(3, 4), (1,): Fraction(1, 4)})
    assert cylinder_prob(biased, Cylinder(2, w(0, 0, 1))) == Fraction(9, 64)


def test_bernoulli_validation():
    with pytest.raises(ValueError):
        Bernoulli(Z2, {(0,): Fraction(1, 2), (1,): Fraction(1, 4)})
    with pytest.raises(ValueError):
        Bernoulli(Z2, {(0,): Fraction(3, 2), (1,): Fraction(-1, 2)})


def test_haar_product_subgroup_probabilities():
    sigma = ProductSubgroup(Z4, 1, Subgroup(Z4, ((0,), (2,))))
    mu = HaarMeasure(sigma)
    assert cylinder_prob(mu, Cylinder(0, w(2))) == Fraction(1, 2)
    assert cylinder_prob(mu, Cylinder(0, w(1))) == 0
    assert cylinder_prob(mu, Cylinder(-3, w(0, 2, 0))) == Fraction(1, 8)


def test_haar_paired_blocks_phase():
    pair = Z2.power(2)
    diag = Subgroup(pair, ((0, 0), (1, 1)))
    x1 = ProductSubgroup(Z2, 2, diag, phase=0)
    mu = HaarMeasure(x1)
    assert cylinder_prob(mu, Cylinder(0, w(0, 0))) == Fraction(1, 2)
    assert cylinder_prob(mu, Cylinder(0, w(0, 1))) == 0
    # across a block boundary the two letters are independent
    assert cylinder_prob(mu, Cylinder(1, w(0, 0))) == Fraction(1, 4)
    assert cylinder_prob(mu, Cylinder(1, w(0, 1))) == Fraction(1, 4)


def test_haar_kernel_shift_probabilities():
    mu = HaarMeasure(LinearKernelShift(F_xor))
    # the kernel holds exactly the two constant configurations
    assert cylinder_prob(mu, Cylinder(0, w(0))) == Fraction(1, 2)
    assert cylinder_prob(mu, Cylinder(5, w(1, 1, 1))) == Fraction(1, 2)
    assert cylinder_prob(mu, Cylinder(0, w(0, 1))) == 0


def test_additivity_over_letter_refinement():
    suite = counterexample_suite()
    measures = [
        uniform_bernoulli(Z2),
        HaarMeasure(suite.x1),
        suite.mu,
        PushforwardMeasure(HaarMeasure(suite.x1), F_xor, 1),
        PeriodicOrbitMeasure.from_orbit(PeriodicConfig(Z2, w(0, 1))),
    ]
    abc = letters(Z2)
    for mu in measures:
        for ell in range(1, 5):
            for word in itertools.product(abc, repeat=ell):
                total = sum(
                    cylinder_prob(mu, Cylinder(0, word + (a,))) for a in abc
                )
                assert total == cylinder_prob(mu, Cylinder(0, word))


def test_pushforward_matches_preimage_sum():
    mu = uniform_bernoulli(Z2)
    push = PushforwardMeasure(mu, F_xor, 1)
    for word in itertools.product(letters(Z2), repeat=3):
        cyl = Cylinder(0, word)
        direct = push.cylinder_prob(cyl)
        expanded = sum(mu.cylinder_prob(c) for c in push.preimage(cyl))
        assert direct == expanded
    # a surjective rule preserves the uniform measure
    assert push.cylinder_prob(Cylinder(0, w(1, 0))) == Fraction(1, 4)


def test_periodic_orbit_measure():
    orbit = PeriodicOrbitMeasure.from_orbit(PeriodicConfig(Z2, w(0, 1)))
    assert len(orbit.configs) == 2
    assert cylinder_prob(orbit, Cylinder(0, w(0, 1, 0))) == Fraction(1, 2)
    assert cylinder_prob(orbit, Cylinder(0, w(0, 0))) == 0
    word = sample(orbit, (0, 5), seed=3)
    assert word in {w(0, 1, 0, 1, 0, 1), w(1, 0, 1, 0, 1, 0)}


def test_sampler_frequencies_match_exact():
    rng = random.Random(17)
    suite = counterexample_suite()
    cases = [
        uniform_bernoulli(Z2),
        HaarMeasure(suite.x1),
        suite.mu,
    ]
    n = 40_000
    for mu in cases:
        counts = {}
        for _ in range(n):
            word = mu.sample_word(0, 1, rng)
            counts[word] = counts.get(word, 0) + 1
        for word in itertools.product(letters(Z2), repeat=2):
            p = float(cylinder_prob(mu, Cylinder(0, word)))
            freq = counts.get(word, 0) / n
            sigma = math.sqrt(max(p * (1 - p), 1e-9) / n)
            assert abs(freq - p) < 4 * sigma + 1e-3


def test_invariance_uniform_under_surjective_rule():
    res = invariance_check(uniform_bernoulli(Z2), F_xor, f_power=1, length=6)
    assert res.invariant
    res_shift = invariance_check(uniform_bernoulli(Z2), shift=1, length=5)
    assert res_shift.invariant


def test_invariance_detects_noninvariant_measure():
    suite = counterexample_suite()
    res = invariance_check(suite.nu, shift=1, length=2)
    assert not res.invariant
    assert res.witness is not None
    assert res.max_discrepancy == Fraction(1, 4)


def test_character_integral_examples():
    mu = uniform_bernoulli(Z2)
    chi = {0: Character(Z2, (1,))}
    assert abs(character_integral(mu, chi)) < 1e-12
    assert character_integral(mu, {}) == 1
    suite = counterexample_suite()
    both = {0: Character(Z2, (1,)), 1: Character(Z2, (1,))}
    assert character_integral(suite.mu, both) == pytest.approx(0.25)


def test_haar_test_uniform_passes():
    rep = haar_test(uniform_bernoulli(Z2), FullShift(Z2), 3)
    assert rep.consistent
    assert rep.max_abs_integral < 1e-9


def test_haar_test_subshift_cases():
    sigma = ProductSubgroup(Z4, 1, Subgroup(Z4, ((0,), (2,))))
    mu = HaarMeasure(sigma)
    ok = haar_test(mu, sigma, 3)
    assert ok.consistent
    bad = haar_test(mu, FullShift(Z4), 3)
    assert not bad.consistent
    assert bad.witness is not None


def test_cesaro_sequence_biased_bernoulli():
    mu0 = Bernoulli(Z2, {(0,): Fraction(3, 4), (1,): Fraction(1, 4)})
    res = cesaro_sequence(mu0, F_xor, 32, 1)
    d = res.distances_to_uniform
    assert d[0] == Fraction(1, 4)
    # decay along doublings; strict stepwise monotonicity fails right after
    # powers of two, where the iterate briefly recovers structure
    for n in (1, 2, 4, 8, 16):
        assert d[2 * n - 1] < d[n - 1]
    assert d[-1] < d[0] / 4


def test_cesaro_uniform_is_fixed():
    res = cesaro_sequence(uniform_bernoulli(Z2), F_xor, 8, 2)
    assert all(dist == 0 for dist in res.distances_to_uniform)


def test_cesaro_point_mass_at_zero():
    zero = PeriodicOrbitMeasure.from_orbit(PeriodicConfig.zero(Z2))
    res = cesaro_sequence(zero, F_xor, 4, 1)
    for dist in res.distances_to_uniform:
        assert dist == Fraction(1, 2)


def test_counterexample_suite_checks():
    suite = counterexample_suite()
    checks = suite.verify(6)
    assert checks["sigma_image_of_x1_is_x2"]
    assert checks["sigma_preimage_of_x1_is_x2"]
    assert checks["sigma2_preimage_of_x1_is_x1"]
    assert checks["rule_image_languages_match"]
    assert checks["shifted_languages_match"]
    assert checks["mu_sigma_invariance"].invariant
    assert checks["mu_rule_invariance"].invariant
    assert not checks["nu_sigma_invariance"].invariant
    assert not checks["haar_test"].consistent


def test_suite_mu_single_letter_mass():
    suite = counterexample_suite()
    assert cylinder_prob(suite.mu, Cylinder(0, w(0))) == Fraction(5, 8)
    assert cylinder_prob(suite.mu, Cylinder(0, w(1))) == Fraction(3, 8)


def test_sigma_entropy_exact_values():
    suite = counterexample_suite()
    assert sigma_entropy_exact(uniform_bernoulli(Z2)) == pytest.approx(math.log(2))
    assert sigma_entropy_exact(HaarMeasure(suite.x1)) == pytest.approx(math.log(2) / 2)
    assert sigma_entropy_exact(suite.mu) == pytest.approx(math.log(2) / 2)
    assert sigma_entropy_exact(HaarMeasure(LinearKernelShift(F_xor))) == 0.0
    orbit = PeriodicOrbitMeasure.from_orbit(PeriodicConfig(Z2, w(0, 1)))
    assert sigma_entropy_exact(orbit) == 0.0


def test_check_hypotheses_xor_uniform():
    rep = check_hypotheses(F_xor, mu=uniform_bernoulli(Z2))
    assert rep.nontrivial and rep.bipermutative
    assert rep.k == 2 and rep.p1 == 1 and rep.k_p1 == 2
    assert rep.condition4.found and rep.condition4.m == 0
    assert rep.corollary_ker.holds
    assert rep.entropy_positive
    assert rep.all_checkable_hold
    assert len(rep.unchecked) == 2


def test_check_hypotheses_counterexample_measure():
    suite = counterexample_suite()
    rep = check_hypotheses(
        suite.automaton,
        mu=suite.mu,
        notes=(
            "the coupling subgroups are invariant for the second shift power "
            "but not for the shift itself, so the invariant-set equality "
            "premise fails for this measure",
        ),
    )
    assert rep.entropy_positive
    assert rep.condition4.found
    assert rep.notes
    assert "invariant-set equality" in rep.notes[0]


def test_check_hypotheses_trivial_rule():
    rep = check_hypotheses(shift_ca(Z2), mu="abstract")
    assert not rep.nontrivial
    assert rep.condition4 is None
    assert not rep.all_checkable_hold
    assert rep.entropy_positive is None


def test_invariance_mc_mode():
    res = invariance_check(
        uniform_bernoulli(Z2), F_xor, f_power=1, length=3,
        mode="mc", mc_samples=30_000, seed=2,
    )
    assert not res.exact
    assert res.invariant
    suite = counterexample_suite()
    res_bad = invariance_check(
        suite.nu, shift=1, length=2, mode="mc", mc_samples=30_000, seed=2
    )
    assert not res_bad.invariant
    assert res_bad.max_discrepancy > 0.2


def test_degenerate_windows_are_rejected():
    mu = uniform_bernoulli(Z2)
    with pytest.raises(ValueError, match="steps must be >= 1"):
        cesaro_sequence(mu, F_xor, 0, 1)
    with pytest.raises(ValueError, match="length must be >= 1"):
        invariance_check(mu, F_xor, f_power=1, length=0)
    with pytest.raises(ValueError, match="offset"):
        invariance_check(mu, F_xor, f_power=1, length=2, offsets=())


# -- block distributions against the preimage expansion ------------------------------

ALPHABETS = (GroupSpec((2,)), GroupSpec((3,)), GroupSpec((4,)), GroupSpec((2, 2)))


@st.composite
def coefficients(draw, group):
    """A residue on a cyclic alphabet, a 0/1 matrix on Z/2 x Z/2."""
    if group.rank == 1:
        return draw(st.integers(0, group.moduli[0] - 1))
    return [[draw(st.integers(0, 1)) for _ in range(2)] for _ in range(2)]


@st.composite
def rules(draw, group):
    """Linear, affine or table rules on a two-cell window starting at r."""
    kind = draw(st.sampled_from(("linear", "affine", "table")))
    r = draw(st.integers(-1, 1))
    abc = letters(group)
    if kind == "table":
        table = {
            window: draw(st.sampled_from(abc))
            for window in itertools.product(abc, repeat=2)
        }
        return table_ca(group, (r, r + 1), table)
    coeffs = {r: draw(coefficients(group)), r + 1: draw(coefficients(group))}
    constant = draw(st.sampled_from(abc)) if kind == "affine" else None
    return linear_ca(group, coeffs, constant=constant, neighborhood=(r, r + 1))


@st.composite
def base_measures(draw, group, mixtures=True):
    abc = letters(group)
    kinds = ["bernoulli", "product", "kernel", "orbit"] + (["mixture"] if mixtures else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "bernoulli":
        nums = draw(st.lists(st.integers(0, 3), min_size=len(abc), max_size=len(abc))
                    .filter(any))
        return Bernoulli(group, {a: Fraction(n, sum(nums)) for a, n in zip(abc, nums)})
    if kind == "product":
        pair = group.power(2)
        seeds = draw(st.lists(st.sampled_from(list(pair.elements())), min_size=1, max_size=2))
        block = subgroup_closure(pair, seeds)
        return HaarMeasure(ProductSubgroup(group, 2, block, phase=draw(st.integers(0, 1))))
    if kind == "kernel":
        unit = [[1, 1], [0, 1]] if group.rank == 2 else group.moduli[0] - 1
        return HaarMeasure(LinearKernelShift(linear_ca(group, {0: 1, 1: unit})))
    if kind == "orbit":
        # one anchored configuration: a point mass that is not shift invariant
        word = draw(st.lists(st.sampled_from(abc), min_size=1, max_size=4))
        return PeriodicOrbitMeasure((PeriodicConfig(group, tuple(word)),))
    first = draw(base_measures(group, mixtures=False))
    second = draw(base_measures(group, mixtures=False))
    c = Fraction(draw(st.integers(0, 4)), 4)
    return MixtureMeasure(((c, first), (1 - c, second)))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_block_distributions_match_preimage_oracle(data):
    group = data.draw(st.sampled_from(ALPHABETS))
    F = data.draw(rules(group))
    base = data.draw(base_measures(group))
    length = data.draw(st.integers(1, 3))
    # keep the oracle's |A|^(length + j) preimage cylinders small
    j_max = max(j for j in range(4) if group.order ** (length + j) <= 512)
    j = data.draw(st.integers(0, j_max))
    shift = data.draw(st.integers(-2, 2))
    offset = data.draw(st.integers(-2, 3))
    push = PushforwardMeasure(base, F, j, shift)
    dist = push.block_distribution(offset, length)
    assert all(p > 0 for p in dist.values())
    for word in itertools.product(letters(group), repeat=length):
        cyl = Cylinder(offset, word)
        oracle = sum((base.cylinder_prob(c) for c in push.preimage(cyl)), Fraction(0))
        assert dist.get(word, 0) == oracle


def test_nested_pushforward_is_pushforward_by_composite():
    Z3 = GroupSpec((3,))
    abc = letters(Z3)
    F = table_ca(Z3, (0, 1), {wd: ((wd[0][0] * wd[1][0] + 1) % 3,)
                               for wd in itertools.product(abc, repeat=2)})
    G = linear_ca(Z3, {-1: 1, 0: 2}, constant=(1,))
    mu = Bernoulli(Z3, {(0,): Fraction(1, 2), (1,): Fraction(1, 3), (2,): Fraction(1, 6)})
    nested = PushforwardMeasure(PushforwardMeasure(mu, F, 1, shift=1), G, 2, shift=-1)
    direct = PushforwardMeasure(mu, compose(compose(G, G), F), 1)
    for offset in (-1, 0, 2):
        assert nested.block_distribution(offset, 3) == direct.block_distribution(offset, 3)


# -- the pushforward cap ---------------------------------------------------------------

# x_0 + x_1 written as a table: surjective, so every target word of length L
# has exactly 2^j preimage words of length L + j under F^j
F_xor_table = table_ca(Z2, (0, 1), {(a, b): ((a[0] + b[0]) % 2,)
                                    for a in letters(Z2) for b in letters(Z2)})


def test_pushforward_cap_matches_preimage_expansion():
    mu = Bernoulli(Z2, {(0,): Fraction(1, 3), (1,): Fraction(2, 3)})
    cyl = Cylinder(1, w(1, 0))
    for j in range(1, 6):
        push = PushforwardMeasure(mu, F_xor_table, j, cap=8)
        if j <= 3:
            oracle = sum((mu.cylinder_prob(c) for c in push.preimage(cyl)), Fraction(0))
            assert push.cylinder_prob(cyl) == oracle
        else:
            with pytest.raises(CapExceeded, match="cap 8"):
                push.cylinder_prob(cyl)
            with pytest.raises(CapExceeded):
                push.preimage(cyl)


def test_cesaro_table_rule_on_both_sides_of_the_cap():
    mu = Bernoulli(Z2, {(0,): Fraction(1, 3), (1,): Fraction(2, 3)})
    # F^8 needs 2^8 = 256 words per target word: within a cap of 256
    table = cesaro_sequence(mu, F_xor_table, 9, 2, cap=256)
    assert table.distances_to_uniform == cesaro_sequence(mu, F_xor, 9, 2).distances_to_uniform
    with pytest.raises(CapExceeded, match="cap 256"):
        cesaro_sequence(mu, F_xor_table, 10, 2, cap=256)
    # the linear rule takes the sweep, whose cost does not grow like 2^j
    assert len(cesaro_sequence(mu, F_xor, 40, 2, cap=256).distances_to_uniform) == 40


def test_oversized_enumerations_raise_before_enumerating():
    mu = uniform_bernoulli(Z2)
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match=f"cap {DEFAULT_EXPANSION_CAP}"):
        invariance_check(mu, F_xor_table, f_power=40)
    with pytest.raises(CapExceeded, match="too large"):
        PushforwardMeasure(mu, F_xor, 1).cylinder_prob(Cylinder(0, w(*[0] * 23)))
    with pytest.raises(CapExceeded, match="too large"):
        PushforwardMeasure(mu, F_xor_table, 4).cylinder_prob(Cylinder(0, w(*[0] * 20)))
    assert time.perf_counter() - start < 5.0
