"""Entropy formulas, block estimators and the column process."""

import math
import random

import pytest

from groupca.automata import linear_ca, shift_ca
from groupca.entropy import (
    block_entropy_estimate,
    bounds_check,
    column_factor_samples,
    conjugacy_width,
    entropy_report,
    formula_case,
    formula_entropy,
    topological_entropy,
)
from groupca.groups import GroupSpec
from groupca.measures import Bernoulli

Z2 = GroupSpec((2,))
Z3 = GroupSpec((3,))

F_xor = linear_ca(Z2, {0: 1, 1: 1})
LOG2 = math.log(2)


def test_formula_entropy_cases():
    assert formula_entropy(F_xor, LOG2) == pytest.approx(LOG2)
    F_sym = linear_ca(Z2, {-1: 1, 0: 1, 1: 1})
    assert formula_entropy(F_sym, LOG2) == pytest.approx(2 * LOG2)
    assert formula_case(F_sym) == "straddling"
    F_left = linear_ca(Z2, {-2: 1, -1: 1})
    assert formula_entropy(F_left, LOG2) == pytest.approx(2 * LOG2)
    assert formula_entropy(F_xor, 0.0) == 0.0
    with pytest.raises(ValueError):
        formula_entropy(linear_ca(GroupSpec((4,)), {0: 1, 1: 2}), LOG2)


def test_topological_entropy():
    assert topological_entropy(F_xor) == pytest.approx(LOG2)
    F_off = linear_ca(Z2, {1: 1, 2: 1})
    assert conjugacy_width(F_off) == 2
    assert topological_entropy(F_off) == pytest.approx(2 * LOG2)
    assert topological_entropy(shift_ca(Z2, 0)) == 0.0


def test_block_entropy_degenerate_inputs():
    zeros = [((0,),) * 8] * 10
    assert block_entropy_estimate(zeros, 3) == 0.0
    alternating = [tuple(((i + j) % 2,) for j in range(8)) for i in range(2)]
    assert block_entropy_estimate(alternating, 3) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        block_entropy_estimate([((0,),)], 3)


def test_block_entropy_fair_coin():
    rng = random.Random(5)
    word = tuple((rng.randrange(2),) for _ in range(200_000))
    est = block_entropy_estimate([word], 4)
    assert abs(est - LOG2) < 0.01


def test_block_entropy_monotone_in_block_length():
    rng = random.Random(9)
    words = [tuple((rng.randrange(2),) for _ in range(10)) for _ in range(2000)]
    estimates = [block_entropy_estimate(words, k) for k in (1, 2, 3, 4)]
    for a, b in zip(estimates, estimates[1:]):
        assert b <= a + 0.02


def test_column_factor_samples_shift_is_identity_process():
    mu = Bernoulli.uniform(Z2)
    cols = column_factor_samples(shift_ca(Z2), mu, width=1, depth=3, count=50, seed=1)
    assert len(cols) == 50
    for sample in cols:
        assert len(sample) == 3
        # columns of the shift orbit are the letters of the original window
        assert all(len(letter) == 1 for letter in sample)


def test_column_factor_depth_one():
    mu = Bernoulli.uniform(Z2)
    cols = column_factor_samples(F_xor, mu, width=2, depth=1, count=10, seed=2)
    assert all(len(c) == 1 and len(c[0]) == 2 for c in cols)


def test_column_entropy_close_to_formula_small():
    mu = Bernoulli.uniform(Z2)
    cols = column_factor_samples(F_xor, mu, width=1, depth=4, count=30_000, seed=3)
    est = block_entropy_estimate(cols, 4)
    assert abs(est - LOG2) < 0.05


def test_entropy_report_fast_path_matches_formula():
    mu = Bernoulli.uniform(Z2)
    rep = entropy_report(F_xor, mu, samples=100_000, k=4, seed=0)
    assert abs(rep.h_sigma_estimate - LOG2) < 0.02
    assert abs(rep.h_f_estimate - LOG2) < 0.02
    assert rep.h_f_formula == pytest.approx(rep.h_sigma_estimate)
    assert rep.bounds.upper_ok
    assert rep.formula_case == "right"


def test_entropy_report_object_path():
    mu = Bernoulli.uniform(Z3)
    F = linear_ca(Z3, {0: 1, 1: 1})
    # table rules force the object path
    from groupca.automata import table_ca, letters
    import itertools

    table = {w: F.local(w) for w in itertools.product(letters(Z3), repeat=2)}
    T = table_ca(Z3, (0, 1), table)
    rep = entropy_report(T, mu, samples=20_000, k=3, seed=4)
    assert abs(rep.h_sigma_estimate - math.log(3)) < 0.05
    assert abs(rep.h_f_estimate - math.log(3)) < 0.08


def test_bounds_check():
    bc = bounds_check(F_xor, LOG2, LOG2)
    assert bc.upper_ok and bc.lower_ok is None
    bad = bounds_check(F_xor, LOG2, 3 * LOG2)
    assert not bad.upper_ok
    exp = bounds_check(F_xor, LOG2, LOG2, expansivity_radius=1)
    assert exp.lower_ok


def test_biased_bernoulli_entropy():
    from fractions import Fraction

    mu = Bernoulli(Z2, {(0,): Fraction(3, 4), (1,): Fraction(1, 4)})
    rep = entropy_report(F_xor, mu, samples=200_000, k=4, seed=6)
    h = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
    assert abs(rep.h_sigma_estimate - h) < 0.02
    # the rule is bipermutative, so automaton entropy tracks shift entropy
    assert abs(rep.h_f_estimate - rep.h_f_formula) < 0.05


def test_topological_equals_formula_at_uniform_entropy():
    # for neighborhoods containing 0, the conjugacy width equals the formula
    # width, so both entropies agree at full shift entropy
    for coeffs in ({0: 1, 1: 1}, {-1: 1, 0: 1, 1: 1}, {-2: 1, 0: 1}):
        F = linear_ca(Z2, coeffs)
        assert topological_entropy(F) == pytest.approx(
            formula_entropy(F, math.log(2))
        )
