"""Exact cylinder probabilities, invariance, characters, Haar tests, Cesaro
averages, the counterexample bundle and hypothesis reports."""

import itertools
import math
import random
import time
from collections import Counter, defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupca.automata import (
    compose,
    letters,
    linear_ca,
    matrix_terms,
    power,
    shift_ca,
    table_ca,
)
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
    haar_test,
    invariance_check,
    _fractions,
    _language,
    _sweep,
    sigma_entropy_exact,
)

Z2 = GroupSpec((2,))
Z4 = GroupSpec((4,))

F_xor = linear_ca(Z2, {0: 1, 1: 1})


def w(*xs):
    return tuple((a,) for a in xs)


def test_bernoulli_cylinder_prob():
    mu = Bernoulli.uniform(Z2)
    assert mu.cylinder_prob(Cylinder(0, w(0, 1))) == Fraction(1, 4)
    biased = Bernoulli(Z2, {(0,): Fraction(3, 4), (1,): Fraction(1, 4)})
    assert biased.cylinder_prob(Cylinder(2, w(0, 0, 1))) == Fraction(9, 64)


def test_bernoulli_validation():
    with pytest.raises(ValueError):
        Bernoulli(Z2, {(0,): Fraction(1, 2), (1,): Fraction(1, 4)})
    with pytest.raises(ValueError):
        Bernoulli(Z2, {(0,): Fraction(3, 2), (1,): Fraction(-1, 2)})


def test_haar_product_subgroup_probabilities():
    sigma = ProductSubgroup(Z4, 1, Subgroup(Z4, ((0,), (2,))))
    mu = HaarMeasure(sigma)
    assert mu.cylinder_prob(Cylinder(0, w(2))) == Fraction(1, 2)
    assert mu.cylinder_prob(Cylinder(0, w(1))) == 0
    assert mu.cylinder_prob(Cylinder(-3, w(0, 2, 0))) == Fraction(1, 8)


def test_haar_cylinders_and_languages_match_the_block_distribution():
    # run weights and runs of the i.i.d. pieces against the exact sweep,
    # across block boundaries and phases
    Z3, Z2xZ2 = GroupSpec((3,)), GroupSpec((2, 2))
    for sigma in (ProductSubgroup(Z3, 2, subgroup_closure(Z3.power(2), [(1, 2)]), phase=1),
                  ProductSubgroup(Z2xZ2, 2, subgroup_closure(Z2xZ2.power(2), [(1, 0, 1, 1)])),
                  ProductSubgroup(Z2, 3, subgroup_closure(Z2.power(3), [(1, 1, 0)]), phase=2),
                  FullShift(Z3), LinearKernelShift(linear_ca(Z3, {0: 1, 1: 1, 2: 1}))):
        mu = HaarMeasure(sigma)
        for offset, length in itertools.product(range(3), range(1, 4)):
            exact = mu.block_distribution(offset, length)
            assert _language(sigma, offset, length) == set(exact)
            for word in itertools.product(letters(sigma.alphabet), repeat=length):
                assert mu.cylinder_prob(Cylinder(offset, word)) == exact.get(word, 0)


def test_haar_paired_blocks_phase():
    pair = Z2.power(2)
    diag = Subgroup(pair, ((0, 0), (1, 1)))
    x1 = ProductSubgroup(Z2, 2, diag, phase=0)
    mu = HaarMeasure(x1)
    assert mu.cylinder_prob(Cylinder(0, w(0, 0))) == Fraction(1, 2)
    assert mu.cylinder_prob(Cylinder(0, w(0, 1))) == 0
    # across a block boundary the two letters are independent
    assert mu.cylinder_prob(Cylinder(1, w(0, 0))) == Fraction(1, 4)
    assert mu.cylinder_prob(Cylinder(1, w(0, 1))) == Fraction(1, 4)


def test_haar_kernel_shift_probabilities():
    mu = HaarMeasure(LinearKernelShift(F_xor))
    # the kernel holds exactly the two constant configurations
    assert mu.cylinder_prob(Cylinder(0, w(0))) == Fraction(1, 2)
    assert mu.cylinder_prob(Cylinder(5, w(1, 1, 1))) == Fraction(1, 2)
    assert mu.cylinder_prob(Cylinder(0, w(0, 1))) == 0


def test_additivity_over_letter_refinement():
    suite = counterexample_suite()
    measures = [
        Bernoulli.uniform(Z2),
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
                    mu.cylinder_prob(Cylinder(0, word + (a,))) for a in abc
                )
                assert total == mu.cylinder_prob(Cylinder(0, word))


def test_pushforward_matches_preimage_sum():
    mu = Bernoulli.uniform(Z2)
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
    assert orbit.cylinder_prob(Cylinder(0, w(0, 1, 0))) == Fraction(1, 2)
    assert orbit.cylinder_prob(Cylinder(0, w(0, 0))) == 0
    word = orbit.sample_word(0, 5, random.Random(3))
    assert word in {w(0, 1, 0, 1, 0, 1), w(1, 0, 1, 0, 1, 0)}


def test_sampler_frequencies_match_exact():
    rng = random.Random(17)
    suite = counterexample_suite()
    cases = [
        Bernoulli.uniform(Z2),
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
            p = float(mu.cylinder_prob(Cylinder(0, word)))
            freq = counts.get(word, 0) / n
            sigma = math.sqrt(max(p * (1 - p), 1e-9) / n)
            assert abs(freq - p) < 4 * sigma + 1e-3


def test_invariance_uniform_under_surjective_rule():
    res = invariance_check(Bernoulli.uniform(Z2), F_xor, f_power=1, length=6)
    assert res.invariant
    res_shift = invariance_check(Bernoulli.uniform(Z2), shift=1, length=5)
    assert res_shift.invariant


def test_invariance_detects_noninvariant_measure():
    suite = counterexample_suite()
    res = invariance_check(suite.nu, shift=1, length=2)
    assert not res.invariant
    assert res.witness is not None
    assert res.max_discrepancy == Fraction(1, 4)


def test_character_integral_examples():
    mu = Bernoulli.uniform(Z2)
    chi = {0: Character(Z2, (1,))}
    assert abs(character_integral(mu, chi)) < 1e-12
    assert character_integral(mu, {}) == 1
    suite = counterexample_suite()
    both = {0: Character(Z2, (1,)), 1: Character(Z2, (1,))}
    assert character_integral(suite.mu, both) == pytest.approx(0.25)


def test_haar_test_uniform_passes():
    rep = haar_test(Bernoulli.uniform(Z2), FullShift(Z2), 3)
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
    res = cesaro_sequence(Bernoulli.uniform(Z2), F_xor, 8, 2)
    assert all(dist == 0 for dist in res.distances_to_uniform)


def _naive_cesaro(mu, F, steps, length):
    """Running averages and distances to uniform, one Fraction per word."""
    words = list(itertools.product(letters(mu.alphabet), repeat=length))
    running = dict.fromkeys(words, Fraction(0))
    averages, distances = [], []
    for n in range(1, steps + 1):
        for word, p in PushforwardMeasure(mu, F, n - 1).block_distribution(0, length).items():
            running[word] += p
        avg = {word: p / n for word, p in running.items()}
        averages.append(avg)
        distances.append(sum(abs(p - Fraction(1, len(words))) for p in avg.values()) / 2)
    return tuple(averages), tuple(distances)


@pytest.mark.parametrize("mu, F, steps, length", [
    (Bernoulli(Z2, {(0,): Fraction(1, 3), (1,): Fraction(2, 3)}),
     linear_ca(Z2, {0: 1, 1: 1, 2: 1}), 12, 3),
    (Bernoulli(GroupSpec((3,)), {(0,): Fraction(1, 2), (1,): Fraction(1, 3), (2,): Fraction(1, 6)}),
     linear_ca(GroupSpec((3,)), {0: 1, 1: 2}, constant=(1,)), 8, 2),
    (HaarMeasure(ProductSubgroup(Z2, 2, Subgroup(Z2.power(2), ((0, 0), (1, 1))), phase=1)),
     F_xor, 10, 3),
])
def test_cesaro_matches_a_naive_fraction_recomputation(mu, F, steps, length):
    res = cesaro_sequence(mu, F, steps, length)
    assert (res.distributions, res.distances_to_uniform) == _naive_cesaro(mu, F, steps, length)
    assert list(res.distributions[-1]) == list(itertools.product(letters(mu.alphabet),
                                                                 repeat=length))


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
    assert suite.mu.cylinder_prob(Cylinder(0, w(0))) == Fraction(5, 8)
    assert suite.mu.cylinder_prob(Cylinder(0, w(1))) == Fraction(3, 8)


def test_sigma_entropy_exact_values():
    suite = counterexample_suite()
    assert sigma_entropy_exact(Bernoulli.uniform(Z2)) == pytest.approx(math.log(2))
    assert sigma_entropy_exact(HaarMeasure(suite.x1)) == pytest.approx(math.log(2) / 2)
    assert sigma_entropy_exact(suite.mu) == pytest.approx(math.log(2) / 2)
    assert sigma_entropy_exact(HaarMeasure(LinearKernelShift(F_xor))) == 0.0
    orbit = PeriodicOrbitMeasure.from_orbit(PeriodicConfig(Z2, w(0, 1)))
    assert sigma_entropy_exact(orbit) == 0.0


def test_check_hypotheses_xor_uniform():
    rep = check_hypotheses(F_xor, mu=Bernoulli.uniform(Z2))
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


def test_check_hypotheses_records_why_criteria_are_missing():
    affine = linear_ca(Z2, {0: 1, 1: 1}, constant=(1,))
    rep = check_hypotheses(affine)
    assert rep.nontrivial
    assert rep.p1 is None and rep.condition4 is None and rep.corollary_ker is None
    assert rep.criteria_skipped == (
        "NotAlgebraicError: affine rule with nonzero constant has no kernel tower"
    )
    assert check_hypotheses(shift_ca(Z2)).criteria_skipped.startswith("trivial rule")
    assert check_hypotheses(F_xor).criteria_skipped is None


def test_invariance_mc_mode():
    res = invariance_check(
        Bernoulli.uniform(Z2), F_xor, f_power=1, length=3,
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


@pytest.mark.parametrize("d, seed, discrepancy, offset, word, threshold", [
    (2, 0, 0.01849999999999999, 2, (0, 0), 0.0385998704661039),
    (2, 1, 0.027999999999999997, 2, (1, 0), 0.03928144600189764),
    (3, 0, 0.01599999999999996, 0, (1,), 0.04268948348246907),
    (3, 1, 0.03200000000000003, 3, (1,), 0.042429800847988905),
])
def test_mc_reports_are_pinned(d, seed, discrepancy, offset, word, threshold):
    # one random stream and one witness order: the same floats, bit for bit
    G = GroupSpec((d,))
    res = invariance_check(Bernoulli.uniform(G), linear_ca(G, {0: 1, 1: 1}), f_power=1,
                           length=2, mode="mc", mc_samples=2000, seed=seed)
    assert res.max_discrepancy == discrepancy and res.threshold == threshold
    assert res.witness == Cylinder(offset, w(*word))
    assert res.cylinders_checked == 4 * (d + d * d) and res.invariant
    mu = Bernoulli(GroupSpec((3,)), {(0,): Fraction(1, 2), (1,): Fraction(1, 3),
                                     (2,): Fraction(1, 6)})
    res = invariance_check(mu, linear_ca(GroupSpec((3,)), {0: 1, 1: 2}), f_power=2, shift=1,
                           length=3, offsets=(-1, 2), mode="mc", mc_samples=1500, seed=4)
    assert (res.max_discrepancy, res.threshold) == (0.16266666666666663, 0.051636840136275376)
    assert res.witness == Cylinder(2, w(0)) and res.cylinders_checked == 78


def test_a_rule_over_another_alphabet_is_refused():
    mu = Bernoulli.uniform(GroupSpec((3,)))
    message = "alphabet mismatch: the measure is over Z/3, not over Z/2"
    with pytest.raises(ValueError, match=message):
        PushforwardMeasure(mu, F_xor, 1)
    with pytest.raises(ValueError, match=message):
        cesaro_sequence(mu, F_xor, 3, 1)
    for mode in ("exact", "mc"):
        with pytest.raises(ValueError, match=message):
            invariance_check(mu, F_xor, f_power=1, length=2, mode=mode, mc_samples=10)


def test_degenerate_windows_are_rejected():
    mu = Bernoulli.uniform(Z2)
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


@st.composite
def weighted_measures(draw, group):
    """A base measure, a pushforward of one, or a mixture of a pushforward
    with a base measure, with the depth of pushforwards under it."""
    kind = draw(st.sampled_from(("base", "pushforward", "mixture")))
    if kind == "base":
        return draw(base_measures(group)), 0
    j = draw(st.integers(0, 1))
    push = PushforwardMeasure(draw(base_measures(group, mixtures=False)), draw(rules(group)),
                              j, draw(st.integers(-1, 1)))
    if kind == "pushforward":
        return push, j
    c = Fraction(draw(st.integers(1, 3)), 4)
    return MixtureMeasure(((c, push), (1 - c, draw(base_measures(group, mixtures=False))))), j


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_block_distributions_match_preimage_oracle(data):
    group = data.draw(st.sampled_from(ALPHABETS))
    F = data.draw(rules(group))
    base, depth = data.draw(weighted_measures(group))
    length = data.draw(st.integers(1, 3))
    # keep the oracle's |A|^(length + depth + j) preimage cylinders small
    j_max = max(j for j in range(4) if j == 0 or group.order ** (length + depth + j) <= 512)
    j = data.draw(st.integers(0, j_max))
    shift = data.draw(st.integers(-2, 2))
    offset = data.draw(st.integers(-2, 3))
    push = PushforwardMeasure(base, F, j, shift)
    weights, den = push.block_weights(offset, length)
    assert type(den) is int and den > 0
    assert all(type(c) is int and c > 0 for c in weights.values())
    dist = push.block_distribution(offset, length)
    assert dist == _fractions((weights, den))
    for word in itertools.product(letters(group), repeat=length):
        assert dist.get(word, 0) == _preimage_prob(push, Cylinder(offset, word))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_exact_invariance_matches_a_per_cylinder_fraction_sup(data):
    group = data.draw(st.sampled_from(ALPHABETS[:3]))
    F = data.draw(rules(group))
    mu = data.draw(weighted_measures(group))[0]
    j, shift = data.draw(st.integers(0, 1)), data.draw(st.integers(-1, 1))
    length = data.draw(st.integers(1, 2))
    offsets = data.draw(st.lists(st.integers(-1, 2), min_size=1, max_size=3))
    res = invariance_check(mu, F if j else None, j, shift, length, offsets)
    push = PushforwardMeasure(mu, F if j else None, j, shift)
    best, witness, checked = Fraction(0), None, 0
    for ell in range(1, length + 1):
        for word in itertools.product(letters(group), repeat=ell):
            for i in offsets:
                cyl = Cylinder(i, word)
                delta = abs(push.cylinder_prob(cyl) - mu.cylinder_prob(cyl))
                checked += 1
                if delta > best:
                    best, witness = delta, cyl
    assert (res.max_discrepancy, res.witness, res.cylinders_checked) == (best, witness, checked)


def test_exact_invariance_compares_discrepancies_over_different_denominators():
    # offsets 0 and 1 of a product Haar measure have different denominators;
    # the sup 1/6 is first attained at [0]_0, and later at [00]_1 with a
    # larger numerator over a larger denominator
    half = HaarMeasure(ProductSubgroup(Z2, 2, Subgroup(Z2.power(2), ((0, 0), (1, 0)))))
    mu = MixtureMeasure(((Fraction(1, 4), half),
                         (Fraction(3, 4), Bernoulli(Z2, {(0,): Fraction(1, 3),
                                                         (1,): Fraction(2, 3)}))))
    res = invariance_check(mu, F_xor, 1, length=2, offsets=(0, 1))
    assert (res.max_discrepancy, res.witness) == (Fraction(1, 6), Cylinder(0, w(0)))


def _preimage_prob(mu, cyl):
    """A cylinder's probability by preimage expansion through every
    pushforward and by component through every mixture, down to the base
    measures' own cylinder functions."""
    if isinstance(mu, PushforwardMeasure):
        return sum((_preimage_prob(mu.base, c) for c in mu.preimage(cyl)), Fraction(0))
    if isinstance(mu, MixtureMeasure):
        return sum((c * _preimage_prob(m, cyl) for c, m in mu.components), Fraction(0))
    return mu.cylinder_prob(cyl)


def _per_position_pieces(mu, lo, hi):
    """The positions [lo, hi] cut into independent runs one piece per letter
    or block, as (first position, [(run, integer weight), ...], denominator),
    kept to feed `_sweep_oracle`."""
    if isinstance(mu, Bernoulli):
        den = math.lcm(*(w.denominator for w in mu.weights.values()))
        runs = [((a,), int(w * den)) for a, w in mu.weights.items() if w]
        return [(p, runs, den) for p in range(lo, hi + 1)]
    sig = mu.sigma
    if isinstance(sig, FullShift):
        runs = [((a,), 1) for a in letters(sig.alphabet)]
        return [(p, runs, len(runs)) for p in range(lo, hi + 1)]
    t, k = sig.grouping, sig.alphabet.rank
    pieces = []
    for n in range((lo - sig.phase) // t, (hi - sig.phase) // t + 1):
        start = n * t + sig.phase
        first, last = max(lo, start), min(hi, start + t - 1)
        runs = Counter(
            tuple(b[j * k : (j + 1) * k] for j in range(first - start, last - start + 1))
            for b in sig.block.elements
        )
        pieces.append((first, list(runs.items()), len(sig.block)))
    return pieces


def _sweep_oracle(alphabet, pieces, coeffs, constant, lo, length):
    """The sweep that moved the state once per piece, kept as the oracle for
    the sweep that moves once per kind of piece."""
    abc = letters(alphabet)
    n = len(abc)
    index = {a: i for i, a in enumerate(abc)}
    zero = index[alphabet.zero]
    plus = [[index[alphabet.add(a, b)] for b in abc] for a in abc]
    touch = defaultdict(list)  # input position -> [(output, letter map)]
    for u, f in coeffs.items():
        image = [index[f(a)] for a in abc]
        if any(x != zero for x in image):
            for t in range(length):
                touch[lo + t + u].append((t, image))
    place = [n**t for t in range(length)]
    tables = {}

    def translate(code, delta):
        return sum(plus[code // q % n][d] * q for d, q in zip(delta, place))

    start = zero if constant is None else index[constant]
    states = {start * sum(place): 1}
    den = 1
    for first, runs, run_den in pieces:
        hits = [(k, touch[p]) for k, p in enumerate(range(first, first + len(runs[0][0])))
                if p in touch]
        if not hits:
            continue
        weights = {}
        for run, weight in runs:
            delta = [zero] * length
            for k, outputs in hits:
                i = index[run[k]]
                for t, image in outputs:
                    delta[t] = plus[delta[t]][image[i]]
            delta = tuple(delta)
            weights[delta] = weights.get(delta, 0) + weight
        moves = [(delta, tables.setdefault(delta, {}), w) for delta, w in weights.items()]
        den *= run_den
        nxt = defaultdict(int)
        for s, c in states.items():
            for delta, table, weight in moves:
                s2 = table.get(s)
                if s2 is None:
                    s2 = table[s] = translate(s, delta)
                nxt[s2] += c * weight
        states = nxt
    return {
        tuple(abc[s // q % n] for q in place): Fraction(c, den) for s, c in states.items()
    }


@st.composite
def iid_bases(draw, group):
    """Bernoulli, full-shift Haar, or Haar on a product subgroup (either phase)."""
    abc = letters(group)
    kind = draw(st.sampled_from(("bernoulli", "full", "product")))
    if kind == "bernoulli":
        nums = draw(st.lists(st.integers(0, 3), min_size=len(abc), max_size=len(abc))
                    .filter(any))
        return Bernoulli(group, {a: Fraction(n, sum(nums)) for a, n in zip(abc, nums)})
    if kind == "full":
        return HaarMeasure(FullShift(group))
    pair = group.power(2)
    seeds = draw(st.lists(st.sampled_from(list(pair.elements())), min_size=1, max_size=2))
    block = subgroup_closure(pair, seeds)
    return HaarMeasure(ProductSubgroup(group, 2, block, phase=draw(st.integers(0, 1))))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_grouped_sweep_matches_the_per_piece_sweep(data):
    group = data.draw(st.sampled_from(ALPHABETS))
    width = data.draw(st.integers(2, 3))
    r = data.draw(st.integers(-1, 1))
    F = linear_ca(group, {r + u: data.draw(coefficients(group)) for u in range(width)},
                  constant=data.draw(st.none() | st.sampled_from(letters(group))),
                  neighborhood=(r, r + width - 1))
    Fj = power(F, data.draw(st.integers(1, 40)))
    base = data.draw(iid_bases(group))
    offset = data.draw(st.integers(-2, 3))
    length = data.draw(st.integers(1, 4))
    lo = offset + min(Fj.coeffs)
    hi = offset + length - 1 + max(Fj.coeffs)
    swept = _sweep(base, matrix_terms(Fj), Fj.constant, offset, length)
    assert _fractions(swept) == _sweep_oracle(group, _per_position_pieces(base, lo, hi),
                                              Fj.coeffs, Fj.constant, offset, length)


def _oracle_distribution(mu, Fj, length):
    """Block distribution on [0, length) of the image of an i.i.d. base, or of
    a mixture of them, under the composed rule Fj, by the per-piece sweep."""
    if isinstance(mu, MixtureMeasure):
        out = defaultdict(Fraction)
        for c, m in mu.components:
            for word, p in _oracle_distribution(m, Fj, length).items():
                out[word] += c * p
        return dict(out)
    lo, hi = min(Fj.coeffs), length - 1 + max(Fj.coeffs)
    return _sweep_oracle(mu.alphabet, _per_position_pieces(mu, lo, hi), Fj.coeffs,
                         Fj.constant, 0, length)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_cesaro_matches_the_composed_pushforwards_step_by_step(data):
    # Cesaro carries F^j as integer matrix terms and a constant into the sweep
    # (product Haar) or into a composed rule (a mixture); the reference is F^j
    # composed by `power`, as PushforwardMeasure composes it, pushed by the
    # per-piece sweep
    group = GroupSpec((2, 2))
    r = data.draw(st.integers(-1, 1))
    F = linear_ca(group, {r: data.draw(coefficients(group)), r + 1: data.draw(coefficients(group))},
                  constant=data.draw(st.none() | st.sampled_from(letters(group))),
                  neighborhood=(r, r + 1))
    pair = group.power(2)
    seeds = data.draw(st.lists(st.sampled_from(list(pair.elements())), min_size=1, max_size=2))
    mu = HaarMeasure(ProductSubgroup(group, 2, subgroup_closure(pair, seeds),
                                     phase=data.draw(st.integers(0, 1))))
    if data.draw(st.booleans()):
        mu = MixtureMeasure(((Fraction(1, 3), mu), (Fraction(2, 3), data.draw(iid_bases(group)))))
    steps, length = data.draw(st.integers(1, 41)), data.draw(st.integers(1, 2))
    res = cesaro_sequence(mu, F, steps, length)
    words = list(itertools.product(letters(group), repeat=length))
    running = dict.fromkeys(words, Fraction(0))
    for n in range(1, steps + 1):
        step = _oracle_distribution(mu, power(F, n - 1), length)
        assert PushforwardMeasure(mu, F, n - 1).block_distribution(0, length) == step
        for word, p in step.items():
            running[word] += p
        assert res.distributions[n - 1] == {word: p / n for word, p in running.items()}
        assert res.distances_to_uniform[n - 1] == sum(
            abs(p / n - Fraction(1, len(words))) for p in running.values()) / 2


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
    mu = Bernoulli.uniform(Z2)
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match=f"cap {DEFAULT_EXPANSION_CAP}"):
        invariance_check(mu, F_xor_table, f_power=40)
    with pytest.raises(CapExceeded, match="too large"):
        PushforwardMeasure(mu, F_xor, 1).cylinder_prob(Cylinder(0, w(*[0] * 23)))
    with pytest.raises(CapExceeded, match="too large"):
        PushforwardMeasure(mu, F_xor_table, 4).cylinder_prob(Cylinder(0, w(*[0] * 20)))
    assert time.perf_counter() - start < 5.0


def test_cap_message_names_the_composed_power():
    # an affine F^17 is composed and pushed as one step; the message names F^17
    base = HaarMeasure(LinearKernelShift(linear_ca(Z2, {0: 1, 1: 1, 2: 1})))
    message = r"pushforward by F\^17 needs 131072 words per target word"
    with pytest.raises(CapExceeded, match=message):
        PushforwardMeasure(base, F_xor, 17).block_distribution(0, 3)
    with pytest.raises(CapExceeded, match=message):
        cesaro_sequence(base, F_xor, 18, 3)
