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

from groupca import automata, hypotheses, measures
from groupca.automata import (
    compose,
    letters,
    linear_ca,
    power,
    shift_ca,
    table_ca,
)
from groupca.configs import Cylinder, PeriodicConfig
from groupca.entropy import _decode, _draw_rows
from groupca.groups import CapExceeded, Character, GroupSpec, Subgroup, subgroup_closure
from groupca.kernels import FullShift, LinearKernelShift, ProductSubgroup
from groupca.measures import (
    DEFAULT_EXPANSION_CAP,
    Bernoulli,
    CesaroResult,
    CounterexampleSuite,
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
    _independent_pieces,
    _lane,
    _phases,
    _piece_prob,
    _power_lanes,
    _restrict,
    _sweep,
    sigma_entropy_exact,
)

Z2 = GroupSpec((2,))
Z4 = GroupSpec((4,))

F_xor = linear_ca(Z2, {0: 1, 1: 1})


def w(*xs):
    return tuple((a,) for a in xs)


def drawn(mu, lo, hi, count, seed):
    """The distinct words of `count` rows drawn on [lo, hi] by the sampler."""
    abc = letters(mu.alphabet)
    return {_decode(code, hi - lo + 1, abc)
            for code in _draw_rows(mu, lo, hi, count, random.Random(seed))}


def _fractions(block):
    """Block weights (weights, den) as one Fraction per word."""
    weights, den = block
    return {word: Fraction(c, den) for word, c in weights.items()}


def block_distribution(mu, offset, length):
    """The block distribution of mu on [offset, offset + length): every word
    of positive probability and its exact probability, from `block_weights`."""
    return _fractions(mu.block_weights(offset, length))


def test_bernoulli_cylinder_prob():
    mu = Bernoulli.uniform(Z2)
    assert mu.cylinder_prob(Cylinder(0, w(0, 1))) == Fraction(1, 4)
    biased = Bernoulli(Z2, {(0,): Fraction(3, 4), (1,): Fraction(1, 4)})
    assert biased.cylinder_prob(Cylinder(2, w(0, 0, 1))) == Fraction(9, 64)


@pytest.mark.parametrize("moduli", [(d,) for d in range(2, 13)] + [(2, 2)])
def test_uniform_bernoulli_equals_the_general_constructor(moduli):
    group = GroupSpec(moduli)
    mu = Bernoulli.uniform(group)
    general = Bernoulli(group, {a: Fraction(1, group.order) for a in group.elements()})
    assert mu == general
    assert mu.weights == general.weights and list(mu.weights) == list(general.weights)
    assert mu._runs == general._runs


def test_bernoulli_validation():
    with pytest.raises(ValueError):
        Bernoulli(Z2, {(0,): Fraction(1, 2), (1,): Fraction(1, 4)})
    with pytest.raises(ValueError):
        Bernoulli(Z2, {(0,): Fraction(3, 2), (1,): Fraction(-1, 2)})


def test_bernoulli_checks_its_total_over_the_lcm_of_the_denominators():
    # 1/4 + 1/6 + 7/12 = 1 over the common denominator 12: 3 + 2 + 7
    Z3 = GroupSpec((3,))
    mu = Bernoulli(Z3, {(0,): Fraction(1, 4), (1,): Fraction(1, 6), (2,): Fraction(7, 12)})
    runs, den = mu._runs
    assert den == 12 and [c for _, c in runs] == [3, 2, 7]
    assert mu.cylinder_prob(Cylinder(0, w(2, 1))) == Fraction(7, 72)
    # 1/4 + 1/6 + 1/2 = 11/12, and a negative weight is named before the total
    with pytest.raises(ValueError, match="letter weights must sum to 1"):
        Bernoulli(Z3, {(0,): Fraction(1, 4), (1,): Fraction(1, 6), (2,): Fraction(1, 2)})
    with pytest.raises(ValueError, match=r"negative weight at \(1,\)"):
        Bernoulli(Z3, {(0,): Fraction(5, 4), (1,): Fraction(-1, 6), (2,): Fraction(-1, 12)})


def test_haar_product_subgroup_probabilities():
    sigma = ProductSubgroup(Z4, 1, Subgroup(Z4, ((0,), (2,))))
    mu = HaarMeasure(sigma)
    assert mu.cylinder_prob(Cylinder(0, w(2))) == Fraction(1, 2)
    assert mu.cylinder_prob(Cylinder(0, w(1))) == 0
    assert mu.cylinder_prob(Cylinder(-3, w(0, 2, 0))) == Fraction(1, 8)


def _language(sigma, offset, length):
    """The words of a subgroup shift on [offset, offset + length): the kernel
    shift's own language, or every concatenation of the runs of the i.i.d.
    pieces of its Haar measure."""
    if isinstance(sigma, LinearKernelShift):
        return set(sigma.language(length))
    pieces = _independent_pieces(HaarMeasure(sigma), offset, offset + length - 1)
    choices = sorted((first, [run for run, _ in runs]) for runs, _, starts in pieces
                     for first in starts)
    return {sum(word, ()) for word in itertools.product(*(c for _, c in choices))}


def test_haar_cylinders_and_languages_match_the_block_distribution():
    # run weights and runs of the i.i.d. pieces against the exact sweep,
    # across block boundaries and phases
    Z3, Z2xZ2 = GroupSpec((3,)), GroupSpec((2, 2))
    for sigma in (ProductSubgroup(Z3, 2, subgroup_closure(Z3.power(2), [(1, 2)]), phase=1),
                  ProductSubgroup(Z2xZ2, 2, subgroup_closure(Z2xZ2.power(2), [(1, 0, 1, 1)])),
                  ProductSubgroup(Z2, 3, subgroup_closure(Z2.power(3), [(1, 1, 0)]), phase=2),
                  FullShift(Z3), LinearKernelShift(linear_ca(Z3, {0: 1, 1: 1, 2: 1})),
                  LinearKernelShift(linear_ca(Z4, {0: 1, 1: 2}))):
        mu = HaarMeasure(sigma)
        for offset, length in itertools.product(range(3), range(1, 4)):
            exact = block_distribution(mu, offset, length)
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
    assert drawn(orbit, 0, 5, 50, 3) == {w(0, 1, 0, 1, 0, 1), w(1, 0, 1, 0, 1, 0)}


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
    """Distances to uniform of the running averages, one Fraction per word."""
    words = list(itertools.product(letters(mu.alphabet), repeat=length))
    running = dict.fromkeys(words, Fraction(0))
    distances = []
    for n in range(1, steps + 1):
        for word, p in block_distribution(PushforwardMeasure(mu, F, n - 1), 0, length).items():
            running[word] += p
        distances.append(sum(abs(p / n - Fraction(1, len(words))) for p in running.values()) / 2)
    return tuple(distances)


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
    assert res == CesaroResult(_naive_cesaro(mu, F, steps, length), length)


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


def test_sigma_entropy_exact_on_the_full_shift_mixtures_and_capped_pushforwards(monkeypatch):
    assert sigma_entropy_exact(HaarMeasure(FullShift(Z4))) == pytest.approx(math.log(4))
    uniform = Bernoulli.uniform(Z4)
    # 2x_0 + 2x_1 is not surjective, so its image of uniform has no closed form
    no_form = PushforwardMeasure(uniform, linear_ca(Z4, {0: 2, 1: 2}), 1)
    assert sigma_entropy_exact(no_form) is None
    half = Fraction(1, 2)
    assert sigma_entropy_exact(MixtureMeasure(((half, uniform), (half, no_form)))) is None
    # x_0 + 2x_1 is surjective but not bipermutative: uniform is read off its
    # |A|^2 = 16 windows, unless they pass the table cap
    onto = PushforwardMeasure(uniform, linear_ca(Z4, {0: 1, 1: 2}), 1)
    assert sigma_entropy_exact(onto) == pytest.approx(math.log(4))
    monkeypatch.setattr(automata, "DEFAULT_TABLE_CAP", 15)
    assert sigma_entropy_exact(onto) is None


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
    rep = check_hypotheses(suite.automaton, mu=suite.mu)
    assert rep.entropy_positive
    assert rep.condition4.found


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
    (2, 0, 0.013999999999999985, 1, (1, 0), 0.0627431795865341),
    (2, 1, 0.025000000000000022, 0, (0, 1), 0.06380347194725865),
    (3, 0, 0.03149999999999997, 2, (2,), 0.07117106761666422),
    (3, 1, 0.02100000000000002, 0, (1,), 0.07123432694246477),
], ids=["Z2-seed0", "Z2-seed1", "Z3-seed0", "Z3-seed1"])
def test_mc_reports_are_pinned(d, seed, discrepancy, offset, word, threshold):
    # one random stream and one witness order: the same floats, bit for bit
    G = GroupSpec((d,))
    res = invariance_check(Bernoulli.uniform(G), linear_ca(G, {0: 1, 1: 1}), f_power=1,
                           length=2, mode="mc", mc_samples=2000, seed=seed)
    assert res.max_discrepancy == discrepancy and res.threshold == threshold
    assert res.witness == Cylinder(offset, w(*word))
    assert res.cylinders_checked == 4 * (d + d * d) and res.invariant


def test_mc_threshold_is_the_spread_of_a_difference():
    # p and q are independent frequencies: p - q has variance
    # (p(1 - p) + q(1 - q)) / n, and the threshold's z bounds the sup over
    # every cylinder checked, so an invariant measure passes on every seed
    for d in (2, 3):
        G = GroupSpec((d,))
        F = linear_ca(G, {0: 1, 1: 1})
        for seed in range(50):
            res = invariance_check(Bernoulli.uniform(G), F, f_power=1, length=2, mode="mc",
                                   mc_samples=2000, seed=seed)
            assert res.invariant, (d, seed)
    biased = Bernoulli(Z2, {(0,): Fraction(1, 3), (1,): Fraction(2, 3)})
    for seed in range(50):
        res = invariance_check(biased, F_xor, f_power=1, length=2, mode="mc",
                               mc_samples=2000, seed=seed)
        assert not res.invariant, seed


def test_mc_threshold_bounds_the_sup_over_its_cylinders():
    # the witness of uniform Z/3 at seed 9 lies 4.02 of its standard
    # deviations out: four, the bound for one cylinder, would refute this
    # invariant measure, z for the 48 cylinders of the sup does not
    G = GroupSpec((3,))
    res = invariance_check(Bernoulli.uniform(G), linear_ca(G, {0: 1, 1: 1}), f_power=1,
                           length=2, mode="mc", mc_samples=2000, seed=9)
    z = math.sqrt(2 * math.log(2 * 48 / 1e-3))
    assert res.cylinders_checked == 48 and z == pytest.approx(4.79, abs=0.01)
    assert 4 * res.threshold / z < res.max_discrepancy <= res.threshold


def test_mc_kernel_haar_builds_its_window_law_once_per_measure(monkeypatch):
    calls = []
    language = LinearKernelShift.language
    monkeypatch.setattr(LinearKernelShift, "language",
                        lambda self, n: calls.append(n) or language(self, n))
    mu = HaarMeasure(LinearKernelShift(linear_ca(Z4, {0: 2})))
    res = invariance_check(mu, shift=1, length=4, mode="mc", mc_samples=5000, seed=0)
    assert res.invariant and len(calls) == 2  # mu and its image, not once per sample


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
    dist = _fractions((weights, den))
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
    offsets = range(max(4, _phases(mu)))
    res = invariance_check(mu, F if j else None, j, shift, length)
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
    res = invariance_check(mu, F_xor, 1, length=2)
    assert (res.max_discrepancy, res.witness) == (Fraction(1, 6), Cylinder(0, w(0)))


# the orbit words of the benchmark's measure_exact pool: (modulus, word, rule coefficients)
BENCH_ORBITS = [(2, (0, 0, 1), {0: 1, 1: 1}), (2, (0, 1, 1, 0, 1), {0: 1, 1: 1}),
                (3, (0, 1, 2, 2), {0: 1, 1: 1}), (3, (1, 0, 0), {0: 1, 1: 2})]


@pytest.mark.parametrize("d, word, coeffs", BENCH_ORBITS)
def test_orbit_cylinders_count_the_configurations_on_the_bench_words(d, word, coeffs):
    group = GroupSpec((d,))
    mu = PeriodicOrbitMeasure.from_orbit(PeriodicConfig(group, w(*word)), linear_ca(group, coeffs))
    for ell in range(1, 4):
        for cyl_word in itertools.product(letters(group), repeat=ell):
            for offset in (-1, 0, 1, 2):
                cyl = Cylinder(offset, cyl_word)
                assert mu.cylinder_prob(cyl) == _piece_prob(mu, cyl)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_orbit_cylinders_count_the_configurations(data):
    group = data.draw(st.sampled_from(ALPHABETS))
    abc = letters(group)
    words = data.draw(st.lists(st.lists(st.sampled_from(abc), min_size=1, max_size=5),
                               min_size=1, max_size=3))
    mu = PeriodicOrbitMeasure(tuple(PeriodicConfig(group, tuple(word)) for word in words))
    offset, length = data.draw(st.integers(-4, 4)), data.draw(st.integers(1, 4))
    word = data.draw(st.sampled_from(mu.configs)).window(offset, length)
    if data.draw(st.booleans()):  # a word that some configuration may not read
        word = tuple(data.draw(st.lists(st.sampled_from(abc), min_size=length, max_size=length)))
    cyl = Cylinder(offset, word)
    assert mu.cylinder_prob(cyl) == _piece_prob(mu, cyl)


# -- one window law per phase ------------------------------------------------------


def _every_offset_invariance(mu, F, j, shift, length, offsets):
    """Exact invariance as it read the laws of mu and its image at every
    offset, kept as the oracle of the sweep once per phase: (max_discrepancy,
    witness, cylinders_checked)."""
    push = PushforwardMeasure(mu, F, j, shift)
    marginals = {}
    for i in offsets:
        image, own = push.block_weights(i, length), mu.block_weights(i, length)
        for ell in range(length, 0, -1):
            image, own = _restrict(image, 0, ell), _restrict(own, 0, ell)
            marginals[i, ell] = image, own
    best, best_den, witness = 0, 1, None
    for ell in range(1, length + 1):
        words = {w for i in offsets for block, _ in marginals[i, ell] for w in block}
        for word in sorted(words):
            for i in offsets:
                (image, di), (own, do) = marginals[i, ell]
                num = abs(image.get(word, 0) * do - own.get(word, 0) * di)
                if num * best_den > best * di * do:
                    best, best_den, witness = num, di * do, Cylinder(i, word)
    checked = len(offsets) * sum(mu.alphabet.order ** ell for ell in range(1, length + 1))
    return Fraction(best, best_den), witness, checked


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_per_phase_invariance_matches_the_every_offset_oracle(data):
    # the offsets are 0..3, widened to every phase
    group = data.draw(st.sampled_from(ALPHABETS[:3]))
    F = data.draw(rules(group))
    mu = data.draw(weighted_measures(group))[0]
    j, shift = data.draw(st.integers(0, 2)), data.draw(st.integers(-2, 2))
    length = data.draw(st.integers(1, 2))
    res = invariance_check(mu, F if j else None, j, shift, length)
    every = range(max(4, _phases(mu)))
    assert ((res.max_discrepancy, res.witness, res.cylinders_checked)
            == _every_offset_invariance(mu, F if j else None, j, shift, length, every))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_the_phase_count_is_a_period_of_every_window_law(data):
    group = data.draw(st.sampled_from(ALPHABETS))
    mu = data.draw(weighted_measures(group))[0]
    t, i, length = _phases(mu), data.draw(st.integers(-3, 3)), data.draw(st.integers(1, 3))
    assert block_distribution(mu, i, length) == block_distribution(mu, i + t, length)


def test_orbit_phases_are_one_when_closed_under_the_shift_else_the_periods():
    x, y = PeriodicConfig(Z2, w(0, 0, 1)), PeriodicConfig(Z2, w(0, 1))
    assert _phases(PeriodicOrbitMeasure((x,))) == 3
    assert _phases(PeriodicOrbitMeasure((x, y))) == 6
    assert _phases(PeriodicOrbitMeasure.from_orbit(x)) == 1
    assert _phases(PeriodicOrbitMeasure.from_orbit(x, F_xor)) == 1
    paired = HaarMeasure(ProductSubgroup(Z2, 2, Subgroup(Z2.power(2), ((0, 0), (1, 1)))))
    mixed = MixtureMeasure(((Fraction(1, 2), PeriodicOrbitMeasure((x,))),
                            (Fraction(1, 2), PushforwardMeasure(paired, F_xor, 1, 1))))
    assert _phases(mixed) == 6


@pytest.mark.parametrize("mu, sweeps", [
    (Bernoulli(Z2, {(0,): Fraction(1, 3), (1,): Fraction(2, 3)}), 2),
    (HaarMeasure(ProductSubgroup(Z2, 2, Subgroup(Z2.power(2), ((0, 0), (1, 1))))), 4),
])
def test_exact_invariance_sweeps_each_side_once_per_phase(monkeypatch, mu, sweeps):
    calls = []
    monkeypatch.setattr("groupca.measures._sweep",
                        lambda *args: calls.append(args[3]) or _sweep(*args))
    res = invariance_check(mu, F_xor, 1, length=3)
    assert len(calls) == sweeps and res.cylinders_checked == 4 * (2 + 4 + 8)


def test_a_uniform_block_sweeps_once_per_side(monkeypatch):
    # the uniform block of grouping 2 is (Z/2)^2, a product of one-letter
    # blocks: its Haar measure is uniform Bernoulli, fixed by sigma itself
    uniform = HaarMeasure(ProductSubgroup(Z2, 2, Subgroup(Z2.power(2), tuple(Z2.power(2).elements()))))
    assert _phases(uniform) == 1
    calls = []
    monkeypatch.setattr("groupca.measures._sweep",
                        lambda *args: calls.append(args[3]) or _sweep(*args))
    res = invariance_check(uniform, shift=1, length=3)
    assert len(calls) == 2 and res.invariant and res.cylinders_checked == 4 * (2 + 4 + 8)


def _tiled(group, t, d, seeds):
    """Each d-letter seed placed at every d-letter chunk of a t-letter block."""
    k = group.rank
    return [(0,) * (k * i) + seed + (0,) * (k * (t - d) - k * i)
            for seed in seeds for i in range(0, t, d)]


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_product_haar_phases_are_its_least_period_dividing_the_grouping(data):
    # blocks drawn as products of d-letter blocks, with at most one more
    # generator that may break the product
    group = data.draw(st.sampled_from(ALPHABETS))
    t = data.draw(st.integers(1, 4))
    d = data.draw(st.sampled_from([d for d in range(1, t + 1) if t % d == 0]))
    seeds = data.draw(st.lists(st.sampled_from(list(group.power(d).elements())), max_size=2))
    extra = data.draw(st.lists(st.sampled_from(list(group.power(t).elements())), max_size=1))
    block = subgroup_closure(group.power(t), _tiled(group, t, d, seeds) + extra)
    sig = ProductSubgroup(group, t, block, phase=data.draw(st.integers(0, t - 1)))
    mu, phases = HaarMeasure(sig), _phases(HaarMeasure(sig))
    assert t % phases == 0 and (extra or d % phases == 0)
    for i, length in itertools.product(range(t), range(1, t + 2)):
        assert block_distribution(mu, i, length) == block_distribution(mu, i + phases, length)
    # no shorter divisor of t fixes the law of a block
    for e in range(1, phases):
        if t % e == 0:
            assert block_distribution(mu, sig.phase, t) != block_distribution(mu, sig.phase + e, t)


def _per_length_languages(suite, length):
    """The counterexample's two language checks, one support per length."""
    F = suite.automaton

    def support(mu, i, ell):
        return set(mu.block_weights(i, ell)[0])

    rule = all(support(PushforwardMeasure(HaarMeasure(x), F, 1), 0, ell)
               == support(HaarMeasure(y), 0, ell)
               for x, y in ((suite.x1, suite.x3), (suite.x2, suite.x4))
               for ell in range(1, length + 1))
    shifted = all(support(HaarMeasure(suite.x1.shifted(1)), i, ell)
                  == support(HaarMeasure(suite.x2), i, ell)
                  for i in (0, 1) for ell in range(1, length + 1))
    return rule, shifted


@pytest.mark.parametrize("length", range(1, 7))
def test_counterexample_languages_match_the_per_length_supports(length):
    suite = counterexample_suite()

    def build(x2=suite.x2, x3=suite.x3, x4=suite.x4):
        return CounterexampleSuite(suite.automaton, suite.x1, x2, x3, x4, suite.nu, suite.mu)

    swapped = build(x3=suite.x4, x4=suite.x3)
    moved = build(x2=suite.x1)
    for s in (suite, swapped, moved):
        checks = s.verify(length)
        assert ((checks["rule_image_languages_match"], checks["shifted_languages_match"])
                == _per_length_languages(s, length))
    assert _per_length_languages(suite, length) == (True, True)
    assert _per_length_languages(swapped, length)[0] is False
    # every letter is free at length 1
    assert _per_length_languages(moved, length)[1] is (length == 1)


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
    swept = _sweep(base, _lane(Fj), Fj.constant, offset, length)
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
    # Cesaro carries F^j as a lane of letter maps and a constant into the
    # sweep, a mixture component by component; the reference is F^j
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
        assert block_distribution(PushforwardMeasure(mu, F, n - 1), 0, length) == step
        for word, p in step.items():
            running[word] += p
        assert res.distances_to_uniform[n - 1] == sum(
            abs(p / n - Fraction(1, len(words))) for p in running.values()) / 2


LANE_ALPHABETS = (GroupSpec((2,)), GroupSpec((4,)), GroupSpec((6,)), GroupSpec((2, 2)))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_power_lanes_match_the_composed_matrix_terms(data):
    # the lane advanced by F once per step against F^j composed by `power`
    # (`automata._product_terms`), converted by `_lane`
    group = data.draw(st.sampled_from(LANE_ALPHABETS))
    F = data.draw(affine_rules(group))
    lanes = _power_lanes(F)
    for j in range(1, 41):
        assert next(lanes) == _lane(power(F, j))


def test_cesaro_advances_the_lane_and_composes_no_matrices(monkeypatch):
    import groupca.automata
    import groupca.measures

    assert not hasattr(groupca.measures, "_product_terms")
    F = linear_ca(Z2, {0: 1, 1: 1, 2: 1}, constant=(1,))
    steps = 9
    expected = [_lane(power(F, j)) for j in range(steps) for _ in range(2)]
    paired = HaarMeasure(ProductSubgroup(Z2, 2, Subgroup(Z2.power(2), ((0, 0), (1, 1)))))
    mu = MixtureMeasure(((Fraction(1, 3), Bernoulli(Z2, {(0,): Fraction(1, 4), (1,): Fraction(3, 4)})),
                         (Fraction(2, 3), paired)))
    products, lanes = [], []
    product_terms = groupca.automata._product_terms
    monkeypatch.setattr(groupca.automata, "_product_terms",
                        lambda *args: products.append(args) or product_terms(*args))
    monkeypatch.setattr(groupca.measures, "_sweep",
                        lambda *args: lanes.append(args[1]) or _sweep(*args))
    res = cesaro_sequence(mu, F, steps, 2)
    # one sweep per step and per component, the step's lane; F^0 is the identity
    assert products == [] and lanes == expected
    assert res.distances_to_uniform == _naive_cesaro(mu, F, steps, 2)


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
        assert block_distribution(nested, offset, 3) == block_distribution(direct, offset, 3)


# -- the pushforward cap ---------------------------------------------------------------

# x_0 + x_1 written as a table: surjective, so every target word of length L
# has exactly 2^j preimage words of length L + j under F^j
F_xor_table = table_ca(Z2, (0, 1), {(a, b): ((a[0] + b[0]) % 2,)
                                    for a in letters(Z2) for b in letters(Z2)})


def test_pushforward_cap_matches_preimage_expansion(monkeypatch):
    mu = Bernoulli(Z2, {(0,): Fraction(1, 3), (1,): Fraction(2, 3)})
    cyl = Cylinder(1, w(1, 0))
    monkeypatch.setattr(measures, "DEFAULT_EXPANSION_CAP", 8)
    for j in range(1, 6):
        push = PushforwardMeasure(mu, F_xor_table, j)
        if j <= 3:
            oracle = sum((mu.cylinder_prob(c) for c in push.preimage(cyl)), Fraction(0))
            assert push.cylinder_prob(cyl) == oracle
        else:
            with pytest.raises(CapExceeded, match="cap 8"):
                push.cylinder_prob(cyl)
            with pytest.raises(CapExceeded):
                push.preimage(cyl)


def test_cesaro_table_rule_on_both_sides_of_the_cap(monkeypatch):
    mu = Bernoulli(Z2, {(0,): Fraction(1, 3), (1,): Fraction(2, 3)})
    linear = cesaro_sequence(mu, F_xor, 9, 2).distances_to_uniform
    # F^8 needs 2^8 = 256 words per target word: within a cap of 256
    monkeypatch.setattr(measures, "DEFAULT_EXPANSION_CAP", 256)
    assert cesaro_sequence(mu, F_xor_table, 9, 2).distances_to_uniform == linear
    with pytest.raises(CapExceeded, match="cap 256"):
        cesaro_sequence(mu, F_xor_table, 10, 2)
    # the linear rule takes the sweep, whose cost does not grow like 2^j
    assert len(cesaro_sequence(mu, F_xor, 40, 2).distances_to_uniform) == 40


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
        block_distribution(PushforwardMeasure(base, F_xor, 17), 0, 3)
    with pytest.raises(CapExceeded, match=message):
        cesaro_sequence(base, F_xor, 18, 3)


# -- bases that are one piece against the widened-window loop ---------------------


def _widened_loop(base, F, j, offset, length):
    """The base's weights on the widened window pushed through F one step at
    a time by apply_window, merging equal words after each step: the path
    that served every base that is not i.i.d. under an affine rule before
    such a base became one piece of the sweep, kept as its oracle."""
    small = F.smallest_neighborhood()
    r, s = small.neighborhood
    weights, den = base.block_weights(offset + j * r, length + j * (s - r))
    for _ in range(j):
        image = defaultdict(int)
        for word, c in weights.items():
            image[small.apply_window(word)] += c
        weights = image
    return _fractions((dict(weights), den))


@st.composite
def affine_rules(draw, group):
    """Linear or affine rules of width 1 to 3: residues on a cyclic
    alphabet, 0/1 matrices on Z/2 x Z/2."""
    r, width = draw(st.integers(-1, 1)), draw(st.integers(1, 3))
    coeffs = {r + u: draw(coefficients(group)) for u in range(width)}
    constant = draw(st.none() | st.sampled_from(letters(group)))
    return linear_ca(group, coeffs, constant=constant, neighborhood=(r, r + width - 1))


@st.composite
def one_piece_bases(draw, group):
    """Kernel-shift Haar (any linear rule, so not only bipermutative ones),
    a point mass on one periodic configuration, or a nested pushforward."""
    kind = draw(st.sampled_from(("kernel", "orbit", "nested")))
    if kind == "kernel":
        rule = draw(affine_rules(group))
        return HaarMeasure(LinearKernelShift(linear_ca(group, rule.coeffs,
                                                       neighborhood=rule.neighborhood)))
    if kind == "orbit":
        word = draw(st.lists(st.sampled_from(letters(group)), min_size=1, max_size=4))
        return PeriodicOrbitMeasure((PeriodicConfig(group, tuple(word)),))
    inner = PushforwardMeasure(draw(base_measures(group, mixtures=False)),
                               draw(rules(group)), draw(st.integers(0, 1)),
                               draw(st.integers(-1, 1)))
    return PushforwardMeasure(inner, draw(rules(group)), draw(st.integers(0, 1)))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_one_piece_sweep_matches_the_widened_window_loop(data):
    group = data.draw(st.sampled_from(ALPHABETS))
    base = data.draw(one_piece_bases(group))
    F = data.draw(affine_rules(group))
    j = data.draw(st.integers(1, 2))
    offset, length = data.draw(st.integers(-2, 2)), data.draw(st.integers(1, 3))
    Fj = power(F, j)
    swept = _sweep(base, _lane(Fj), Fj.constant, offset, length)
    assert _fractions(swept) == _widened_loop(base, F, j, offset, length)
    assert block_distribution(PushforwardMeasure(base, F, j), offset, length) == _fractions(swept)


def test_kernel_haar_off_the_bipermutative_case():
    # 1 + 2x over Z/4: the kernel is {0}, so Haar measure is the point mass
    point = HaarMeasure(LinearKernelShift(linear_ca(Z4, {0: 1, 1: 2})))
    assert block_distribution(point, 0, 1) == {w(0): 1}
    assert block_distribution(point, 3, 2) == {w(0, 0): 1}
    assert drawn(point, 0, 3, 20, 1) == {w(0, 0, 0, 0)}
    assert sigma_entropy_exact(point) == 0.0
    # 2 x_0 over Z/4: the kernel is {0, 2}^Z, of shift entropy log 2
    evens = HaarMeasure(LinearKernelShift(linear_ca(Z4, {0: 2})))
    assert block_distribution(evens, 0, 2) == {w(a, b): Fraction(1, 4)
                                               for a in (0, 2) for b in (0, 2)}
    assert sigma_entropy_exact(evens) == pytest.approx(math.log(2))
    rep = check_hypotheses(linear_ca(Z4, {0: 1, 1: 1}), mu=evens)
    assert rep.entropy_positive and rep.entropy_method.startswith("exact shift entropy 0.693147")
    # a right-permutative refusal no longer stands in the way of sampling
    parity = HaarMeasure(LinearKernelShift(linear_ca(Z4, {0: 2, 1: 2})))
    words = drawn(parity, 0, 5, 200, 2)
    assert all(len({a[0] % 2 for a in word}) == 1 for word in words)
    assert {word[0][0] % 2 for word in words} == {0, 1}


def test_estimated_shift_entropy_names_its_threshold(monkeypatch):
    # a pushforward by a rule neither bipermutative nor surjective has no
    # closed form
    F = linear_ca(Z4, {0: 2, 1: 2})
    mu = PushforwardMeasure(Bernoulli.uniform(Z4), F, 1)
    assert sigma_entropy_exact(mu) is None
    monkeypatch.setattr(hypotheses, "ENTROPY_SAMPLES", 5000)
    rep = check_hypotheses(linear_ca(Z4, {0: 1, 1: 1}), mu=mu, seed=3)
    assert rep.entropy_positive
    assert rep.entropy_method.endswith("(5000 samples, seed 3; positive above 0.02 nats)")


def test_a_surjective_rule_keeps_the_uniform_measure(monkeypatch):
    # Hedlund: x_0 + 2 x_1 over Z/4 is surjective, not bipermutative, and
    # maps the uniform measure to itself, of shift entropy log 4
    import groupca.entropy

    monkeypatch.setattr(groupca.entropy, "_shift_entropy", None)  # nothing is sampled
    F = linear_ca(Z4, {0: 1, 1: 2})
    for base in (Bernoulli.uniform(Z4), HaarMeasure(FullShift(Z4))):
        mu = PushforwardMeasure(base, F, 2)
        assert sigma_entropy_exact(mu) == math.log(4)
        assert block_distribution(mu, 0, 2) == {w(a, b): Fraction(1, 16)
                                                for a in range(4) for b in range(4)}
        rep = check_hypotheses(linear_ca(Z4, {0: 1, 1: 1}), mu=mu)
        assert rep.entropy_positive
        assert rep.entropy_method == "exact shift entropy 1.386294 nats"
    # a base that is not uniform, or a rule that is not surjective, has none
    biased = Bernoulli(Z4, {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
    assert sigma_entropy_exact(PushforwardMeasure(biased, F, 1)) is None
    assert sigma_entropy_exact(PushforwardMeasure(Bernoulli.uniform(Z4),
                                                  linear_ca(Z4, {0: 2, 1: 2}), 1)) is None
