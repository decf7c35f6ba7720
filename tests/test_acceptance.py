"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria run at their stated tolerances and runtime budgets; every expected
value is either exactly reproduced structure, was computed by an
independent oracle in this file, or is pinned from an independent method
named next to it.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from groupca.automata import as_laurent, linear_ca
from groupca.class_a import dual_ca, verify_conjugacy
from groupca.cli import bundled_spec, load_ca
from groupca.configs import PeriodicConfig
from groupca.entropy import entropy_report
from groupca.groups import Character, GroupSpec, Subgroup, _gl_order, closure_set
from groupca.kernels import (
    FullShift,
    ProductSubgroup,
    condition4_search,
    corollary_ker_check,
    kernel_elements,
    recurrence_matrix,
    tower,
)
from groupca.measures import (
    Bernoulli,
    HaarMeasure,
    cesaro_sequence,
    character_integral,
    counterexample_suite,
    haar_test,
    invariance_check,
)
from groupca.modular import bipermutative_power, permutative_support

Z2 = GroupSpec((2,))
Z3 = GroupSpec((3,))
Z4 = GroupSpec((4,))
Z5 = GroupSpec((5,))
LOG2 = math.log(2)


def cfg(group, *xs):
    return PeriodicConfig(group, tuple((a,) for a in xs))


def w(*xs):
    return tuple((a,) for a in xs)


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds
        self.start = time.monotonic()

    def done(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.seconds, f"{self.name} took {elapsed:.1f}s"
        print(f"PASS {self.name} ({elapsed:.2f}s < {self.seconds}s)")


DUAL_F1 = linear_ca(Z2, {-1: 1, 0: 1, 1: 1})


def test_criterion_1_kernel_size_law():
    budget = Budget("criterion 1: kernel size law", 5)
    cases = [
        (linear_ca(Z2, {0: 1, 1: 1}), 2, 1),
        (linear_ca(Z3, {0: 1, 1: 1}), 3, 1),
        (linear_ca(Z5, {0: 1, 1: 1, 2: 1}), 5, 2),
        (DUAL_F1, 2, 2),
    ]
    for F, order, width in cases:
        tw = tower(F, 3)
        for n in range(4):
            assert tw.size(n) == order ** (width * n), (F.describe(), n)
    budget.done()


def test_criterion_2_dual_kernels_exact():
    budget = Budget("criterion 2: reference kernels exact", 5)
    F1 = load_ca(bundled_spec("classA_F1"))
    F2 = load_ca(bundled_spec("classA_F2"))
    dual1 = dual_ca(F1).automaton
    dual2 = dual_ca(F2).automaton
    d1 = set(kernel_elements(dual1, 1))
    assert d1 == {cfg(Z2, 0), cfg(Z2, 0, 1, 1), cfg(Z2, 1, 1, 0), cfg(Z2, 1, 0, 1)}
    # Klein four group: all nonzero elements have order two
    assert all((x + x).is_zero for x in d1)
    assert len({x for x in d1}) == 4
    d1_f2 = set(kernel_elements(dual2, 1))
    assert d1_f2 == {cfg(Z2, 0), cfg(Z2, 1), cfg(Z2, 0, 1), cfg(Z2, 1, 0)}
    assert all(x.period <= 2 for x in d1_f2)
    d2_f2 = set(kernel_elements(dual2, 2))
    generators = {cfg(Z2, 0, 0, 0, 1), cfg(Z2, 0, 1, 1, 1), cfg(Z2, 0, 0, 1, 1)}
    closed = closure_set(
        d1_f2 | generators,
        add=lambda a, b: a + b,
        zero=PeriodicConfig.zero(Z2),
        operators=[lambda c: c.shift(1)],
        cap=1 << 10,
    )
    assert closed == d2_f2
    budget.done()


def test_criterion_3_dual_rules_exact():
    budget = Budget("criterion 3: dual rules and conjugacy", 30)
    F1 = load_ca(bundled_spec("classA_F1"))
    F2 = load_ca(bundled_spec("classA_F2"))
    dual1 = dual_ca(F1)
    dual2 = dual_ca(F2)
    for key, value in dual1.rule_table().items():
        assert value == ((key[0][0] + key[1][0] + key[2][0]) % 2,)
    for key, value in dual2.rule_table().items():
        assert value == ((key[0][0] + key[2][0]) % 2,)
    assert dual1.automaton.permutativity().bipermutative
    assert dual2.automaton.permutativity().bipermutative
    assert verify_conjugacy(F1, dual1, depth=2, width=8).ok
    assert verify_conjugacy(F2, dual2, depth=2, width=8).ok
    budget.done()


def test_criterion_4_prime_power_lemma():
    budget = Budget("criterion 4: prime power support lemma", 1)
    F = load_ca(bundled_spec("id_sigma_2sigma2_z4"))
    sup = permutative_support(F)
    assert sup.offsets == (0, 1)
    Fq = bipermutative_power(F)
    assert Fq.neighborhood == (0, 2)
    assert Fq.permutativity().bipermutative

    # oracle: schoolbook expansion of (1 + X + 2 X^2)^2 mod 4
    def poly_mul(a, b, mod):
        out = {}
        for u, c in a.items():
            for v, d in b.items():
                out[u + v] = (out.get(u + v, 0) + c * d) % mod
        return {u: c for u, c in out.items() if c}

    base = {0: 1, 1: 1, 2: 2}
    assert poly_mul(base, base, 4) == {0: 1, 1: 2, 2: 1}
    assert as_laurent(Fq).coeffs == linear_ca(Z4, {0: 1, 1: 2, 2: 1}).coeffs
    budget.done()


def test_criterion_5_period_divisor_bound():
    budget = Budget("criterion 5: period divisor bound, 200 random rules", 60)
    rng = random.Random(20240809)
    count = 0
    while count < 200:
        p = rng.choice((2, 3, 5))
        width = rng.randint(1, 3)
        group = GroupSpec((p,))
        coeffs = {0: rng.randrange(1, p), width: rng.randrange(1, p)}
        for u in range(1, width):
            coeffs[u] = rng.randrange(p)
        F = linear_ca(group, coeffs)
        assert F.permutativity().bipermutative
        elems = kernel_elements(F, 1)
        p1 = math.lcm(*(x.period for x in elems))
        bound = _gl_order(p, width)  # |GL_width(F_p)|
        assert bound % p1 == 0, (p, width, coeffs, p1, bound)
        order = recurrence_matrix(F).matrix_order()
        for x in elems:
            assert order % x.period == 0
        count += 1
    budget.done()


def test_criterion_6_period_divisibility():
    budget = Budget("criterion 6: period divisibility on bundled rules", 10)
    for name in ("id_plus_sigma_z2", "id_sigma_2sigma2_z4", "classA_F1", "classA_F2"):
        F = load_ca(bundled_spec(name))
        small = F.smallest_neighborhood()
        width = small.neighborhood[1] - small.neighborhood[0]
        tw = tower(F, 4)
        for n in range(4):
            assert tw.period(n + 1) % tw.period(n) == 0, (name, n)
            bound = F.alphabet.order**width * tw.period(n)
            assert bound % tw.period(n + 1) == 0, (name, n)
    budget.done()


def test_criterion_7_entropy_consistency():
    budget = Budget("criterion 7: entropy estimates and bounds", 120)
    F = load_ca(bundled_spec("id_plus_sigma_z2"))
    rep = entropy_report(F, Bernoulli.uniform(Z2), samples=1_000_000, k=4, seed=0)
    assert 0.95 * LOG2 <= rep.h_f_estimate <= 1.05 * LOG2
    assert rep.h_f_formula == pytest.approx(1 * rep.h_sigma_estimate)
    assert rep.bounds.upper_ok
    # width upper bound on every bundled rule
    for name, samples in (
        ("id_plus_sigma_z2", 200_000),
        ("id_sigma_2sigma2_z4", 200_000),
        ("classA_F1", 30_000),
        ("classA_F2", 30_000),
    ):
        G = load_ca(bundled_spec(name))
        r = entropy_report(G, Bernoulli.uniform(G.alphabet), samples=samples, k=3, seed=1)
        assert r.bounds.upper_ok, name
    budget.done()


def test_criterion_7_sampled_entropy_consistency():
    # the sampled twin of criterion 7: the figures the report samples past
    # its budget, at the same seeds, counts and tolerances
    from test_entropy import sampled_figures

    from groupca.entropy import bounds_check, formula_entropy

    budget = Budget("criterion 7: sampled entropy estimates and bounds", 120)
    F = load_ca(bundled_spec("id_plus_sigma_z2"))
    h_sigma, h_f = sampled_figures(F, Bernoulli.uniform(Z2), 1_000_000, 4, 0)
    assert 0.95 * LOG2 <= h_f <= 1.05 * LOG2
    assert formula_entropy(F, h_sigma) == pytest.approx(1 * h_sigma)
    assert bounds_check(F, h_sigma, h_f).upper_ok
    for name, samples in (
        ("id_plus_sigma_z2", 200_000),
        ("id_sigma_2sigma2_z4", 200_000),
        ("classA_F1", 30_000),
        ("classA_F2", 30_000),
    ):
        G = load_ca(bundled_spec(name))
        h_sigma, h_f = sampled_figures(G, Bernoulli.uniform(G.alphabet), samples, 3, 1)
        assert bounds_check(G.smallest_neighborhood(), h_sigma, h_f).upper_ok, name
    budget.done()


def test_criterion_8_counterexample_suite():
    budget = Budget("criterion 8: invariant non-Haar mixture", 30)
    suite = counterexample_suite()
    # joint invariance, exact on all cylinders of length <= 6
    res_f = invariance_check(suite.mu, suite.automaton, f_power=1, length=6)
    res_s = invariance_check(suite.mu, shift=1, length=6)
    assert res_f.max_discrepancy == 0
    assert res_s.max_discrepancy == 0
    # the Haar factor itself is not shift invariant: exact witness
    res_nu = invariance_check(suite.nu, shift=1, length=2)
    assert res_nu.max_discrepancy > 0
    assert res_nu.witness is not None
    # a finite-support character separates the mixture from uniform
    chi = {0: Character(Z2, (1,)), 1: Character(Z2, (1,))}
    value = character_integral(suite.mu, chi)
    assert abs(value) > 0.2
    assert value.real == pytest.approx(0.25, abs=1e-12)
    # the coupling subgroup is invariant for the double shift only
    assert suite.x1.shifted(-2) == suite.x1
    assert suite.x1.shifted(-1) == suite.x2
    assert suite.x1.shifted(-1) != suite.x1
    budget.done()


def test_criterion_9_density_criteria_cross_check():
    budget = Budget("criterion 9: strictness of the subgroup criterion", 10)
    F_xor = linear_ca(Z2, {0: 1, 1: 1})
    assert corollary_ker_check(F_xor).holds
    res = condition4_search(F_xor)
    assert res.found and res.m == 0
    F_dist2 = linear_ca(Z2, {0: 1, 2: 1})
    assert not corollary_ker_check(F_dist2).holds
    res2 = condition4_search(F_dist2, m_max=2)
    assert res2.found and res2.m is not None and res2.m <= 2

    # brute-force oracle for the found level: naive worklist closure of each
    # boundary element under sums, negation, shift and the rule
    def naive_closure(seed, F):
        found = {PeriodicConfig.zero(Z2), seed}
        queue = [seed]
        while queue:
            x = queue.pop()
            new = [-x, x.shift(1), F.apply_periodic(x)]
            new.extend(x + y for y in list(found))
            for y in new:
                if y not in found:
                    found.add(y)
                    queue.append(y)
        return found

    m = res2.m
    upper = set(kernel_elements(F_dist2, m + 1))
    lower = set(kernel_elements(F_dist2, m)) if m > 0 else {PeriodicConfig.zero(Z2)}
    d1 = set(kernel_elements(F_dist2, 1))
    for d in upper - lower:
        assert d1 <= naive_closure(d, F_dist2)
    budget.done()


def test_criterion_10_haar_tests():
    budget = Budget("criterion 10: Haar tests", 10)
    rep = haar_test(Bernoulli.uniform(Z2), FullShift(Z2), 3)
    assert rep.consistent
    assert rep.max_abs_integral < 1e-9
    sigma = ProductSubgroup(Z4, 1, Subgroup(Z4, ((0,), (2,))))
    mu = HaarMeasure(sigma)
    ok = haar_test(mu, sigma, 3)
    assert ok.consistent
    bad = haar_test(mu, FullShift(Z4), 3)
    assert not bad.consistent
    assert bad.witness is not None
    budget.done()


# Distances to uniform of the Cesaro averages of Bernoulli(1/4, 3/4) under
# 1 + x + x^2 on Z/2 (64 steps, window length 3), computed independently
# through sign characters: the transform of the n-th image pulls back through
# the rule polynomial, and each character integral of the Bernoulli measure
# is a power of the weight difference.
Z2_CESARO_DISTANCES = (
    "11/32", "57/256", "11/64", "281/2048", "493/4096", "417/4096", "10237/114688",
    "21001/262144", "7579/98304", "11449/163840", "735557/11534336", "123279/2097152",
    "376175/6815744", "188171/3670016", "2008011/41943040", "24620429/536870912",
    "1552829/33554432", "8854319/201326592", "26653229/637534208",
    "26661853/671088640", "284655755/7516192768", "213493099/5905580032",
    "54655052561/1580547964928", "9153914673/274877906944", "27877111187/858993459200",
    "27886028179/893353197568", "3098957315/103079215104", "3984673349/137438953472",
    "55798015943/1992864825344", "929967069/34359738368",
    "57137191399429/2181431069507584", "116473406054425/4503599627370496",
    "41309823093427/1548112371908608", "124620959014937/4785074604081152",
    "3571416777875/140737488355328", "13892862100369/562949953421312",
    "125139039576089/5207287069147136", "125139712106521/5348024557502464",
    "41713796620979/1829587348619264", "125175749640473/5629499534213120",
    "3055586105201/140737488355328", "5965674526453/281474976710656",
    "64142967069487873/3098476543630901248", "32071620973698817/1585267068834414592",
    "3563559255904697/180143985094819840", "32072033312055569/1657324662872342528",
    "262734096939603861509/13871951543429582815232",
    "43981169740701784751/2361183241434822606848",
    "2729132604581581469/147573952589676412928",
    "133765795813516185613/7378697629483820646400",
    "44595166548667161263/2508757194024499019776",
    "133786064296761954317/7673845534663173472256",
    "133787753198162350093/7821419487252849885184",
    "44595917927432084143/2656331146614175432704",
    "133787755448743596557/8116567392432202711040",
    "133796762647998372109/8264141345021879123968",
    "44607932480683204015/2803905099203851845632",
    "133823806246733617421/8559289250201231949824",
    "267647621302445159963/17413726405581816725504",
    "4460793981577186825/295147905179352825856",
    "8363990364725453393/562625694248141324288",
    "133823845835617740055/9149585060559937601536",
    "15591608107882189168021049/1083197534374707740536733696",
    "570969298440675843446407181/39614081257132168796771975168",
)


def test_cesaro_z2_matches_character_transform():
    budget = Budget("Cesaro on Z/2, 64 steps, against the character transform", 10)
    mu = Bernoulli(Z2, {(0,): Fraction(1, 4), (1,): Fraction(3, 4)})
    res = cesaro_sequence(mu, linear_ca(Z2, {0: 1, 1: 1, 2: 1}), 64, 3)
    assert res.distances_to_uniform == tuple(Fraction(d) for d in Z2_CESARO_DISTANCES)
    budget.done()


def _assert_cesaro_decay(d):
    """Decay along doublings, and a factor 32 over the whole run; the
    distances need not fall at every single step."""
    for n in (1, 2, 4, 8, 16, 32, 64, 128):
        assert d[2 * n - 1] < d[n - 1]
    assert d[255] < d[0] / 32


def test_cesaro_convergence_z3_256_steps():
    budget = Budget("Cesaro convergence on Z/3, 256 steps", 30)
    mu = Bernoulli(Z3, {(a,): Fraction(n, 6) for a, n in enumerate((1, 2, 3))})
    res = cesaro_sequence(mu, linear_ca(Z3, {0: 1, 1: 1}), 256, 2)
    _assert_cesaro_decay(res.distances_to_uniform)
    budget.done()


def test_cesaro_convergence_z5_256_steps():
    budget = Budget("Cesaro convergence on Z/5, 256 steps", 30)
    mu = Bernoulli(Z5, {(a,): Fraction(n, 9) for a, n in enumerate((1, 2, 3, 2, 1))})
    res = cesaro_sequence(mu, linear_ca(Z5, {0: 1, 1: 1}), 256, 1)
    _assert_cesaro_decay(res.distances_to_uniform)
    budget.done()
