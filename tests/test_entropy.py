"""Entropy formulas, block estimators and the column process."""

import collections
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupca.automata import letters, linear_ca, shift_ca, table_ca
from groupca.entropy import (
    _draw_rows,
    _pooled_rows,
    _rngs,
    _rule_on_rows,
    block_entropy_estimate,
    bounds_check,
    column_factor_samples,
    conjugacy_width,
    entropy_report,
    formula_case,
    formula_entropy,
    topological_entropy,
)
from groupca.groups import GroupSpec, Subgroup, subgroup_closure
from groupca.kernels import FullShift, LinearKernelShift, ProductSubgroup
from groupca.measures import Bernoulli, HaarMeasure, MixtureMeasure, PushforwardMeasure

Z2 = GroupSpec((2,))
Z3 = GroupSpec((3,))
Z2xZ2 = GroupSpec((2, 2))
Z2xZ4 = GroupSpec((2, 4))

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


def test_entropy_report_on_a_table_rule():
    mu = Bernoulli.uniform(Z3)
    F = linear_ca(Z3, {0: 1, 1: 1})
    # the table form of the rule moves the column process by window lookup
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


# -- the column process over letter indices ----------------------------------------


def _endomorphisms(group):
    """Matrices of endomorphisms: entry (j, i) maps Z/d_i into Z/d_j."""
    d = group.moduli
    return st.tuples(*(
        st.tuples(*(st.sampled_from([m for m in range(d[j]) if m * d[i] % d[j] == 0])
                    for i in range(group.rank)))
        for j in range(group.rank)
    ))


@st.composite
def _rules(draw):
    """Linear, affine and table rules on neighborhoods from [-2, -2] to [1, 3]."""
    group = draw(st.sampled_from([Z2, Z3, Z2xZ2, Z2xZ4]))
    r, w = draw(st.integers(-2, 1)), draw(st.integers(0, 2))
    abc = letters(group)
    if group.order ** (w + 1) <= 64 and draw(st.booleans()):
        values = draw(st.lists(st.sampled_from(abc), min_size=group.order ** (w + 1),
                               max_size=group.order ** (w + 1)))
        return table_ca(group, (r, r + w), dict(zip(itertools.product(abc, repeat=w + 1), values)))
    coeffs = {r + i: draw(_endomorphisms(group)) for i in range(w + 1)}
    constant = draw(st.sampled_from(abc)) if draw(st.booleans()) else None
    return linear_ca(group, coeffs, constant=constant, neighborhood=(r, r + w))


@settings(max_examples=150, deadline=None)
@given(_rules(), st.data())
@example(linear_ca(Z2, {-2: 1, -1: 1}), None)
@example(linear_ca(Z2xZ4, {1: [[1, 0], [2, 1]], 3: [[1, 0], [0, 3]]}, constant=(1, 2)), None)
@example(table_ca(Z3, (1, 3), {w: ((w[0][0] * w[2][0] + w[1][0]) % 3,)
                               for w in itertools.product(letters(Z3), repeat=3)}), None)
def test_rule_on_rows_equals_apply_window_row_by_row(F, data):
    abc = letters(F.alphabet)
    if data is None:
        rows = [[(i + 2 * j) % len(abc) for j in range(F.width + 4)] for i in range(len(abc))]
    else:
        length = data.draw(st.integers(F.width, F.width + 5))
        rows = data.draw(st.lists(st.lists(st.integers(0, len(abc) - 1), min_size=length,
                                           max_size=length), min_size=1, max_size=6))
    out = _rule_on_rows(F)(np.array(rows, np.min_scalar_type(len(abc) - 1)))
    expected = [[abc.index(b) for b in F.apply_window([abc[i] for i in row])] for row in rows]
    assert out.tolist() == expected


def test_uniform_letters_take_one_integers_call():
    # so uniform-Bernoulli estimates keep the draws of a plain integers call
    rows = _draw_rows(Bernoulli.uniform(Z3), -2, 2, 1000, np.random.default_rng(7))
    assert rows.dtype == np.uint8
    assert rows.tolist() == np.random.default_rng(7).integers(0, 3, size=(1000, 5)).tolist()


@pytest.mark.parametrize("count", [1, 2, 1000])
def test_run_lookup_table_keeps_the_draws_of_the_search(count):
    # den = 6 over 5 positions: the table serves 2 or more rows, the search 1
    mu = Bernoulli(Z3, {(0,): Fraction(1, 2), (1,): Fraction(1, 3), (2,): Fraction(1, 6)})
    rows = _draw_rows(mu, -2, 2, count, np.random.default_rng(3))
    draws = np.random.default_rng(3).integers(0, 6, size=(count, 5))
    assert rows.tolist() == np.searchsorted([3, 5, 6], draws, side="right").tolist()


_BLOCK = subgroup_closure(Z3.power(2), [(1, 2)])


@pytest.mark.parametrize("mu", [
    Bernoulli(Z3, {(0,): Fraction(1, 2), (1,): Fraction(1, 3), (2,): Fraction(1, 6)}),
    Bernoulli(Z2xZ2, {(0, 0): Fraction(1, 8), (0, 1): Fraction(1, 8),
                      (1, 0): Fraction(1, 4), (1, 1): Fraction(1, 2)}),
    HaarMeasure(ProductSubgroup(Z3, 2, _BLOCK, phase=1)),
    # the base's rows moved through F^2 by the rule on rows: pairs at phase 1
    PushforwardMeasure(
        HaarMeasure(ProductSubgroup(Z2, 2, Subgroup(Z2.power(2), ((0, 0), (1, 1))))),
        F_xor, 2, shift=1),
])
def test_index_sampler_matches_the_exact_block_distribution(mu):
    n = 20_000
    abc = letters(mu.alphabet)
    rows = _draw_rows(mu, 0, 2, n, _rngs(mu, 3)[0])
    seen = collections.Counter(tuple(abc[i] for i in row) for row in rows.tolist())
    exact = mu.block_distribution(0, 3)
    assert set(seen) <= set(exact)
    for word, p in exact.items():
        p = float(p)
        assert abs(seen[word] / n - p) <= 5 * math.sqrt(p * (1 - p) / n), word


def test_a_pushforward_of_a_sampled_base_keeps_the_draws_of_sample_word():
    # the kernel shift's Haar measure is drawn word by word, so the rows moved
    # by the rule on rows are the words that sample_word moves by apply_window
    push = PushforwardMeasure(HaarMeasure(LinearKernelShift(linear_ca(Z3, {0: 1, 1: 1}))),
                              linear_ca(Z3, {-1: 1, 0: 2}), 2, shift=1)
    rows = _draw_rows(push, -1, 2, 50, random.Random(4))
    rng, abc = random.Random(4), letters(Z3)
    assert rows.tolist() == [[abc.index(a) for a in push.sample_word(-1, 2, rng)]
                             for _ in range(50)]


def test_wide_blocks_count_in_memory_that_follows_the_samples():
    F = linear_ca(Z2, {0: 1, 6: 1})  # columns of 6 letters: 2^24 block codes at k = 4
    tracemalloc.start()
    try:
        entropy_report(F, Bernoulli.uniform(Z2), samples=1000, k=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_block_codes_past_64_bits_are_refused():
    F = linear_ca(Z2, {0: 1, 15: 1})  # 2^(15 * 5) block codes
    with pytest.raises(ValueError, match=r"2\^75 values pass the 64-bit limit 2\^63"):
        entropy_report(F, Bernoulli.uniform(Z2), samples=10, k=5)


def test_weights_past_64_bit_draws_are_refused():
    mu = Bernoulli(Z2, {(0,): Fraction(1, 2**64), (1,): 1 - Fraction(1, 2**64)})
    with pytest.raises(ValueError, match=r"pass the 64-bit draw limit 2\^63"):
        entropy_report(F_xor, mu, samples=10, k=1)


def _pooled_conditional_entropy(mu, t, k):
    """Exact H_k - H_(k-1) on [0, k) of (1/t) sum_(i<t) sigma^i mu, from the
    block distributions of mu at offsets 0..t-1."""
    words = collections.Counter()
    for i in range(t):
        for word, p in mu.block_distribution(i, k).items():
            words[word] += p / t
    prefixes = collections.Counter()
    for word, p in words.items():
        prefixes[word[:-1]] += p
    h = lambda dist: -sum(float(p) * math.log(p) for p in dist.values() if p)
    return h(words) - h(prefixes)


_PAIRED = HaarMeasure(ProductSubgroup(Z2, 2, Subgroup(Z2.power(2), ((0, 0), (1, 1)))))


# a pushforward or a mixture of product Haar measure keeps its phases; at phase
# 0 alone both of these read log 2 = 0.6931
@pytest.mark.parametrize("F, mu, t", [
    (F_xor, _PAIRED, 2),
    (linear_ca(Z3, {0: 1, 1: 2}), HaarMeasure(ProductSubgroup(Z3, 2, _BLOCK, phase=1)), 2),
    (F_xor, PushforwardMeasure(_PAIRED, F_xor, 1, shift=1), 2),  # exact 0.4545
    (F_xor, MixtureMeasure(((Fraction(1, 2), _PAIRED), (Fraction(1, 2), Bernoulli.uniform(Z2)))),
     2),  # exact 0.6593
])
def test_entropy_pools_the_phases_of_a_product_haar_measure(F, mu, t):
    exact = _pooled_conditional_entropy(mu, t, 3)
    rep = entropy_report(F, mu, samples=20_000, k=3, seed=5)
    assert abs(rep.h_sigma_estimate - exact) < 0.02, (rep.h_sigma_estimate, exact)
    if mu is _PAIRED:  # phase 0 alone gives log 2, the k -> oo limit log 2 / 2
        assert exact == pytest.approx(0.4774, abs=1e-4)


@pytest.mark.parametrize("mu", [
    Bernoulli(Z3, {(0,): Fraction(1, 2), (1,): Fraction(1, 3), (2,): Fraction(1, 6)}),
    HaarMeasure(FullShift(Z2xZ2)),
    HaarMeasure(ProductSubgroup(Z2, 1, Subgroup(Z2, ((0,), (1,))))),
])
def test_measures_without_phases_keep_their_draws(mu):
    pooled = _pooled_rows(mu, -1, 2, 1000, np.random.default_rng(9))
    assert pooled.tolist() == _draw_rows(mu, -1, 2, 1000, np.random.default_rng(9)).tolist()
