"""Entropy formulas, block estimators and the column process."""

import bisect
import collections
import itertools
import math
import random
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from groupca.automata import letters, linear_ca, shift_ca, table_ca
from groupca.specs import bundled_spec, load_ca
from groupca.entropy import (
    _code_entropy,
    _column_process,
    _decode,
    _digits,
    _draw_rows,
    _entropy_from_counts,
    _pooled_rows,
    _rule_on_codes,
    _shift_entropy,
    block_entropy_estimate,
    bounds_check,
    column_factor_samples,
    conjugacy_width,
    entropy_report,
    formula_case,
    formula_entropy,
    topological_entropy,
)
from groupca.groups import CapExceeded, GroupSpec, Subgroup, subgroup_closure
from groupca.kernels import FullShift, LinearKernelShift, ProductSubgroup
from groupca.configs import PeriodicConfig
from groupca.measures import (
    Bernoulli,
    HaarMeasure,
    MixtureMeasure,
    PeriodicOrbitMeasure,
    PushforwardMeasure,
    _independent_pieces,
    _phases,
    counterexample_suite,
    invariance_check,
)

Z2 = GroupSpec((2,))
Z3 = GroupSpec((3,))
Z2xZ2 = GroupSpec((2, 2))
Z2xZ4 = GroupSpec((2, 4))

F_xor = linear_ca(Z2, {0: 1, 1: 1})
LOG2 = math.log(2)


def _code(indices, n):
    """The code of a row of letter indices: read in base n, first index lowest."""
    return sum(i * n**j for j, i in enumerate(indices))


def _below(rng, size):
    """One draw uniform on range(size): (size - 1).bit_length() random bits,
    drawn again while at or above size."""
    v = rng.getrandbits((size - 1).bit_length())
    while v >= size:
        v = rng.getrandbits((size - 1).bit_length())
    return v


def sampled_figures(F, mu, samples, k, seed):
    """The (h_sigma, h_F) that `entropy_report` samples past its budget,
    whatever the budget: `_shift_entropy` draws the shift's k-letter
    windows, then the column windows of `_column_process` come from the same
    stream random.Random(seed)."""
    small = F.smallest_neighborhood()
    width = max(conjugacy_width(small), 1)
    rng = random.Random(seed)
    h_sigma = _shift_entropy(mu, samples, k, rng)
    lo, length, block = _column_process(small, width, k)
    blocks = collections.Counter()
    for x, c in collections.Counter(_pooled_rows(mu, lo, lo + length - 1, samples, rng)).items():
        blocks[block(_digits(x, length, small.alphabet.order))] += c
    return h_sigma, _code_entropy(blocks, k, small.alphabet.order**width)


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


@pytest.mark.parametrize("counts", [list(range(1, 2001)), [1] * 2000 + [5] * 300])
def test_entropy_of_counts_is_summed_to_a_few_ulps(counts):
    # against 40-digit decimal logs: thousands of terms, summed exactly
    # (math.fsum), stay within a few units in the last place
    with localcontext() as ctx:
        ctx.prec = 40
        total = Decimal(sum(counts))
        exact = -sum((Decimal(c) / total) * (Decimal(c) / total).ln() for c in counts)
        assert abs(Decimal(_entropy_from_counts(counts)) - exact) < Decimal("4e-15")


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


def test_sampled_figures_match_formula():
    # the sampled twin of the test above: same seed, count and tolerances
    h_sigma, h_f = sampled_figures(F_xor, Bernoulli.uniform(Z2), 100_000, 4, 0)
    assert abs(h_sigma - LOG2) < 0.02
    assert abs(h_f - LOG2) < 0.02
    assert formula_entropy(F_xor, h_sigma) == pytest.approx(h_sigma)
    assert bounds_check(F_xor, h_sigma, h_f).upper_ok


def _table_form(F):
    """The table rule with F's neighborhood and local rule."""
    abc = letters(F.alphabet)
    table = {w: F.local(w) for w in itertools.product(abc, repeat=F.width)}
    return table_ca(F.alphabet, F.neighborhood, table)


def test_entropy_report_on_a_table_rule():
    mu = Bernoulli.uniform(Z3)
    F = linear_ca(Z3, {0: 1, 1: 1})
    # the table form of the rule moves the column process by window lookup
    table = {w: F.local(w) for w in itertools.product(letters(Z3), repeat=2)}
    T = table_ca(Z3, (0, 1), table)
    rep = entropy_report(T, mu, samples=20_000, k=3, seed=4)
    assert abs(rep.h_sigma_estimate - math.log(3)) < 0.05
    assert abs(rep.h_f_estimate - math.log(3)) < 0.08


def test_sampled_figures_on_a_table_rule():
    # the table form of the rule moves the sampled column windows by lookup
    T = _table_form(linear_ca(Z3, {0: 1, 1: 1}))
    h_sigma, h_f = sampled_figures(T, Bernoulli.uniform(Z3), 20_000, 3, 4)
    assert abs(h_sigma - math.log(3)) < 0.05
    assert abs(h_f - math.log(3)) < 0.08


def test_bounds_check():
    bc = bounds_check(F_xor, LOG2, LOG2)
    assert bc.upper_ok and bc.upper == LOG2
    bad = bounds_check(F_xor, LOG2, 3 * LOG2)
    assert not bad.upper_ok


def test_biased_bernoulli_entropy():
    mu = Bernoulli(Z2, {(0,): Fraction(3, 4), (1,): Fraction(1, 4)})
    rep = entropy_report(F_xor, mu, samples=200_000, k=4, seed=6)
    h = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
    assert abs(rep.h_sigma_estimate - h) < 0.02
    # the rule is bipermutative, so automaton entropy tracks shift entropy
    assert abs(rep.h_f_estimate - rep.h_f_formula) < 0.05


def test_sampled_biased_bernoulli_entropy():
    mu = Bernoulli(Z2, {(0,): Fraction(3, 4), (1,): Fraction(1, 4)})
    h_sigma, h_f = sampled_figures(F_xor, mu, 200_000, 4, 6)
    h = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
    assert abs(h_sigma - h) < 0.02
    assert abs(h_f - formula_entropy(F_xor, h_sigma)) < 0.05


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
    move, n = _rule_on_codes(F), len(abc)
    out = [_decode(move(_code(row, n), len(row)), len(row) - F.width + 1, abc) for row in rows]
    assert out == [F.apply_window([abc[i] for i in row]) for row in rows]


def test_uniform_letters_take_one_integers_call():
    # 3^5 <= 1000 draws: the five letters of a row are the base-3 digits of
    # one draw below 3^5, which is the row's code
    rows = _draw_rows(Bernoulli.uniform(Z3), -2, 2, 1000, random.Random(7))
    rng = random.Random(7)
    assert rows == [_below(rng, 3**5) for _ in range(1000)]


@pytest.mark.parametrize("count", [1, 2, 1000])
def test_run_lookup_table_keeps_the_draws_of_the_search(count):
    # den = 6 over 5 positions: below 6^2 draws each position draws on its
    # own and searches the cumulative weights; at 1000 draws the positions
    # -2..0, then 1..2, share one draw below 6^3, then 6^2, read through a
    # table.  Both pick the runs a search of every base-6 digit picks.
    mu = Bernoulli(Z3, {(0,): Fraction(1, 2), (1,): Fraction(1, 3), (2,): Fraction(1, 6)})
    rows = _draw_rows(mu, -2, 2, count, random.Random(3))
    rng, letters_ = random.Random(3), [[0] * 5 for _ in range(count)]
    for chunk in ([[0], [1], [2], [3], [4]] if count < 36 else [[0, 1, 2], [3, 4]]):
        for row in letters_:
            v = _below(rng, 6 ** len(chunk))
            for p in chunk:
                v, digit = divmod(v, 6)
                row[p] = bisect.bisect_right([3, 5, 6], digit)
    assert rows == [_code(row, 3) for row in letters_]


class _Enumerate:
    """A stand-in rng whose draws count up 0, 1, 2, ..., modulo 2^bits."""

    def __init__(self):
        self.next = 0

    def getrandbits(self, bits):
        self.next += 1
        return (self.next - 1) % (1 << bits)


@pytest.mark.parametrize("mu, lo, hi", [
    (Bernoulli(Z3, {(0,): Fraction(1, 2), (1,): Fraction(1, 3), (2,): Fraction(1, 6)}), 0, 2),
    (HaarMeasure(FullShift(Z2xZ2)), -1, 1),
    # two whole blocks of grouping 2, one run law
    (HaarMeasure(ProductSubgroup(Z3, 2, subgroup_closure(Z3.power(2), [(1, 2)]))), 0, 3),
    # one piece: the window law of the kernel shift
    (HaarMeasure(LinearKernelShift(linear_ca(GroupSpec((4,)), {0: 2, 1: 2}))), 0, 2),
])
def test_one_grouped_draw_enumerated_is_the_window_law(mu, lo, hi):
    # one group of runs whose starts share one draw below den^c: each of its
    # den^c values drawn once gives every word with its exact weight
    ((runs, den, starts),) = _independent_pieces(mu, lo, hi)
    size = den ** len(starts)
    codes = collections.Counter(_draw_rows(mu, lo, hi, size, _Enumerate()))
    abc = letters(mu.alphabet)
    weights, total = mu.block_weights(lo, hi - lo + 1)
    assert {_decode(code, hi - lo + 1, abc): Fraction(c, size) for code, c in codes.items()} \
        == {word: Fraction(c, total) for word, c in weights.items()}


_BLOCK = subgroup_closure(Z3.power(2), [(1, 2)])
Z4 = GroupSpec((4,))
# 2 x_0 + 2 x_1 over Z/4 is not right permutative; its kernel holds the
# configurations of one parity throughout
_PARITY = HaarMeasure(LinearKernelShift(linear_ca(Z4, {0: 2, 1: 2})))
_SAMPLED = [
    Bernoulli(Z3, {(0,): Fraction(1, 2), (1,): Fraction(1, 3), (2,): Fraction(1, 6)}),
    Bernoulli(Z2xZ2, {(0, 0): Fraction(1, 8), (0, 1): Fraction(1, 8),
                      (1, 0): Fraction(1, 4), (1, 1): Fraction(1, 2)}),
    HaarMeasure(ProductSubgroup(Z3, 2, _BLOCK, phase=1)),
    # the base's rows moved through F^2 by the rule on rows: pairs at phase 1
    PushforwardMeasure(
        HaarMeasure(ProductSubgroup(Z2, 2, Subgroup(Z2.power(2), ((0, 0), (1, 1))))),
        F_xor, 2, shift=1),
    _PARITY,
    PeriodicOrbitMeasure.from_orbit(PeriodicConfig(Z3, ((0,), (1,), (2,), (2,)))),
    MixtureMeasure(((Fraction(1, 3), _PARITY),
                    (Fraction(2, 3), PushforwardMeasure(Bernoulli.uniform(Z4),
                                                        linear_ca(Z4, {0: 1, 1: 2}), 1)))),
    HaarMeasure(FullShift(Z2xZ2)),
    # four pushforwards of Haar on a product subgroup, by the shift and the rule
    counterexample_suite().mu,
]


@pytest.mark.parametrize("mu", _SAMPLED)
def test_index_sampler_matches_the_exact_block_distribution(mu):
    n = 20_000
    abc = letters(mu.alphabet)
    rows = _draw_rows(mu, 0, 2, n, random.Random(3))
    seen = collections.Counter(_decode(code, 3, abc) for code in rows)
    exact = mu.block_distribution(0, 3)
    assert set(seen) <= set(exact)
    for word, p in exact.items():
        p = float(p)
        assert abs(seen[word] / n - p) <= 5 * math.sqrt(p * (1 - p) / n), word


def test_a_pushforward_of_a_kernel_haar_base_moves_the_base_rows():
    # the kernel shift's Haar measure is one piece, its window law; the
    # pushforward moves the base's rows on the widened window by the rule
    base = HaarMeasure(LinearKernelShift(linear_ca(Z3, {0: 1, 1: 1})))
    G = linear_ca(Z3, {-1: 1, 0: 2})
    push = PushforwardMeasure(base, G, 2, shift=1)
    rows = _draw_rows(push, -1, 2, 50, random.Random(4))
    moved = _draw_rows(base, -2, 3, 50, random.Random(4))
    abc = letters(Z3)
    assert [_decode(code, 4, abc) for code in rows] == [
        G.apply_window(G.apply_window(_decode(code, 6, abc))) for code in moved]


def test_wide_blocks_count_in_memory_that_follows_the_samples():
    F = linear_ca(Z2, {0: 1, 6: 1})  # columns of 6 letters: 2^24 block codes at k = 4
    tracemalloc.start()
    try:
        entropy_report(F, Bernoulli.uniform(Z2), samples=1000, k=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_block_codes_past_64_bits_are_counted():
    F = linear_ca(Z2, {0: 1, 15: 1})  # 2^(15 * 5) block codes
    rep = entropy_report(F, Bernoulli.uniform(Z2), samples=10, k=5)
    # ten blocks of 75 uniform letters, and their prefixes of 60, all differ
    assert (rep.column_width, rep.h_f_estimate) == (15, 0.0)
    assert rep.h_f_formula == pytest.approx(15 * rep.h_sigma_estimate)
    # a point mass counts one block: every code the all-ones word's
    ones = PeriodicOrbitMeasure((PeriodicConfig(Z2, ((1,),)),))
    rep = entropy_report(linear_ca(Z2, {0: 1, 15: 1}, constant=(1,)), ones, samples=10, k=5)
    assert (rep.h_sigma_estimate, rep.h_f_estimate) == (0.0, 0.0)
    cols = column_factor_samples(F, ones, depth=5, count=3)
    assert cols == [(((1,),) * 15, ((0,),) * 15, ((0,),) * 15, ((0,),) * 15, ((0,),) * 15)] * 3


def test_weights_past_64_bits_are_drawn():
    # a one in 2^64 chance of the zero letter: every draw of ten is the one
    mu = Bernoulli(Z2, {(0,): Fraction(1, 2**64), (1,): 1 - Fraction(1, 2**64)})
    assert sampled_figures(F_xor, mu, 10, 1, 0) == (0.0, 0.0)
    # ten samples cover the window's two words, so the report reads the
    # exact law, whose zero letter the draws miss: about 64 log 2 / 2^64
    rep = entropy_report(F_xor, mu, samples=10, k=1)
    assert rep.method == "exact"
    assert 0 < rep.h_sigma_estimate == rep.h_f_estimate < 1e-17
    rep = entropy_report(F_xor, mu, samples=1, k=1)
    assert (rep.method, rep.h_sigma_estimate, rep.h_f_estimate) == ("sampled", 0.0, 0.0)
    # x_0 + x_1 maps all ones to all zeros
    res = invariance_check(mu, F_xor, 1, length=1, mode="mc", mc_samples=10)
    assert (res.max_discrepancy, res.invariant) == (1.0, False)


def _pooled_conditional_entropy(mu, t, k, F=None, width=1):
    """Exact H_k - H_(k-1) of (1/t) sum_(i<t) sigma^i mu, from the block
    distributions of mu at offsets i < t: of its k-letter windows on [0, k),
    or, given a rule F, of k columns of `width` letters, column c being F^c(x)
    on [0, width), each image taken by apply_window on F's own neighborhood."""
    if F is None:
        lo, length = 0, k
    else:
        r, s = F.neighborhood
        lo = min(0, (k - 1) * r)
        length = width + max(0, (k - 1) * s) - lo

    def block(x):
        if F is None:
            return x
        columns = []
        for c in range(k):
            if c:
                x = F.apply_window(x)
            columns.append(x[c * r - lo : c * r - lo + width])  # x[0] lies at lo - c r
        return tuple(columns)

    blocks = collections.Counter()
    for i in range(t):
        for word, p in mu.block_distribution(lo + i, length).items():
            blocks[block(word)] += p / t
    prefixes = collections.Counter()
    for b, p in blocks.items():
        prefixes[b[:-1]] += p
    # log p as a difference of logs of integers, which no float range bounds
    h = lambda dist: -sum(float(p) * (math.log(p.numerator) - math.log(p.denominator))
                          for p in dist.values() if p)
    return h(blocks) - h(prefixes)


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


@pytest.mark.parametrize("F, mu, t", [
    (F_xor, _PAIRED, 2),
    (linear_ca(Z3, {0: 1, 1: 2}), HaarMeasure(ProductSubgroup(Z3, 2, _BLOCK, phase=1)), 2),
    (F_xor, PushforwardMeasure(_PAIRED, F_xor, 1, shift=1), 2),
    (F_xor, MixtureMeasure(((Fraction(1, 2), _PAIRED), (Fraction(1, 2), Bernoulli.uniform(Z2)))),
     2),
])
def test_sampled_entropy_pools_the_phases_of_a_product_haar_measure(F, mu, t):
    exact = _pooled_conditional_entropy(mu, t, 3)
    h_sigma, _ = sampled_figures(F, mu, 20_000, 3, 5)
    assert abs(h_sigma - exact) < 0.02, (h_sigma, exact)


@pytest.mark.parametrize("mu", [
    Bernoulli(Z3, {(0,): Fraction(1, 2), (1,): Fraction(1, 3), (2,): Fraction(1, 6)}),
    HaarMeasure(FullShift(Z2xZ2)),
    HaarMeasure(ProductSubgroup(Z2, 1, Subgroup(Z2, ((0,), (1,))))),
    # the uniform block of grouping 2 is a product of one-letter blocks
    HaarMeasure(ProductSubgroup(Z2, 2, Subgroup(Z2.power(2), tuple(Z2.power(2).elements())))),
])
def test_measures_without_phases_keep_their_draws(mu):
    assert _pooled_rows(mu, -1, 2, 1000, random.Random(9)) == _draw_rows(mu, -1, 2, 1000,
                                                                          random.Random(9))


def test_an_anchored_orbit_pools_the_phases_of_its_period():
    # a point mass on one configuration of period 3 is fixed by sigma^3, not
    # by sigma: its draws pool the three shifts, one letter in three a 1
    mu = PeriodicOrbitMeasure((PeriodicConfig(Z2, ((0,), (0,), (1,))),))
    h = _shift_entropy(mu, 3000, 1, random.Random(0))
    assert h == pytest.approx(math.log(3) - 2 / 3 * LOG2)


# -- the exact block laws under the sample budget ---------------------------------


@st.composite
def _oracle_measures(draw, group, depth=0):
    """Bernoulli, product Haar with phases, kernel Haar and an anchored orbit
    on `group`; at depth 0 also their linear and table pushforwards and
    two-part mixtures."""
    abc = letters(group)
    kinds = ["bernoulli", "product", "kernel", "orbit"]
    kind = draw(st.sampled_from(kinds + (["linear", "table", "mixture"] if depth == 0 else [])))
    if kind == "bernoulli":
        w = draw(st.lists(st.integers(0, 3), min_size=len(abc), max_size=len(abc)))
        w[draw(st.integers(0, len(abc) - 1))] += 1  # some letter has weight
        return Bernoulli(group, {a: Fraction(x, sum(w)) for a, x in zip(abc, w)})
    if kind == "product":
        gens = draw(st.lists(st.tuples(st.sampled_from(abc), st.sampled_from(abc)), max_size=2))
        block = subgroup_closure(group.power(2), [a + b for a, b in gens])
        return HaarMeasure(ProductSubgroup(group, 2, block, phase=draw(st.integers(0, 1))))
    if kind == "kernel":
        coeffs = {0: draw(_endomorphisms(group)), 1: draw(_endomorphisms(group))}
        return HaarMeasure(LinearKernelShift(linear_ca(group, coeffs)))
    if kind == "orbit":  # one configuration, not closed under the shift
        word = draw(st.lists(st.sampled_from(abc), min_size=1, max_size=3))
        return PeriodicOrbitMeasure((PeriodicConfig(group, tuple(word)),))
    base = draw(_oracle_measures(group, depth + 1))
    if kind == "mixture":
        other = draw(_oracle_measures(group, depth + 1))
        return MixtureMeasure(((Fraction(1, 3), base), (Fraction(2, 3), other)))
    if kind == "linear":
        G = linear_ca(group, {0: draw(_endomorphisms(group)), 1: draw(_endomorphisms(group))})
    else:
        values = draw(st.lists(st.sampled_from(abc), min_size=len(abc)**2, max_size=len(abc)**2))
        G = table_ca(group, (0, 1), dict(zip(itertools.product(abc, repeat=2), values)))
    return PushforwardMeasure(base, G, draw(st.integers(1, 2)), shift=draw(st.integers(-1, 1)))


def _words(F, k):
    """The words of the larger of the report's two windows: k letters, and
    the column process's width + (k - 1)(s - r) letters around [0, width)."""
    small = F.smallest_neighborhood()
    r, s = small.neighborhood
    width = max(conjugacy_width(small), 1)
    return F.alphabet.order ** max(k, width + max(0, (k - 1) * s) - min(0, (k - 1) * r))


@settings(max_examples=60, deadline=None)
@given(_rules(), st.integers(1, 3), st.data())
@example(F_xor, 3, None)
def test_exact_figures_are_the_enumerated_block_entropies(F, k, data):
    words = _words(F, k)
    assume(words <= 256)
    if data is None:  # an anchored orbit of period 3 and product Haar at phase 1
        mu = MixtureMeasure(((Fraction(1, 2), PeriodicOrbitMeasure(
            (PeriodicConfig(Z2, ((0,), (0,), (1,))),))), (Fraction(1, 2), _PAIRED)))
        seed = 0
    else:
        mu, seed = data.draw(_oracle_measures(F.alphabet)), data.draw(st.integers(0, 3))
    rep = entropy_report(F, mu, samples=words, k=k, seed=seed)
    assert (rep.method, rep.seed, rep.sample_count) == ("exact", None, words)
    t = _phases(mu)
    assert rep.h_sigma_estimate == pytest.approx(_pooled_conditional_entropy(mu, t, k), abs=1e-12)
    assert rep.h_f_estimate == pytest.approx(
        _pooled_conditional_entropy(mu, t, k, F, rep.column_width), abs=1e-12)


@pytest.mark.parametrize("F, samples, k, figures", [
    # the bench's entropy jobs: x_0 + x_1 over Z/2 and Z/3, and classA_F1
    (linear_ca(Z2, {0: 1, 1: 1}), 200_000, 3, (LOG2, LOG2)),
    (linear_ca(Z3, {0: 1, 1: 1}), 200_000, 3, (math.log(3), math.log(3))),
    (load_ca(bundled_spec("classA_F1")), 4000, 2, (math.log(4), LOG2)),
])
def test_the_bench_entropy_jobs_read_their_closed_forms(F, samples, k, figures):
    reports = [entropy_report(F, Bernoulli.uniform(F.alphabet), samples, k, seed)
               for seed in (0, 1, 2)]
    assert reports[0] == reports[1] == reports[2]  # no seed is used
    rep = reports[0]
    assert rep.method == "exact"
    assert rep.h_sigma_estimate == pytest.approx(figures[0], abs=1e-12)
    assert rep.h_f_estimate == pytest.approx(figures[1], abs=1e-12)


_THIRDS = Bernoulli(Z2, {(0,): Fraction(1, 3), (1,): Fraction(2, 3)})


@pytest.mark.parametrize("F, k, words, parent", [
    # 2^3 words on both windows
    (F_xor, 3, 8, (0.3213343683536046, 0.35743030252727714)),
    # the shift's 2^2 words fit 15 samples; the column window's 2^4 do not
    (linear_ca(Z2, {0: 1, 2: 1}), 2, 16, (0.6730116670092563, 0.8317766166719343)),
])
def test_the_budget_edge(F, k, words, parent):
    assert _words(F, k) == words
    at = entropy_report(F, _THIRDS, samples=words, k=k, seed=2)
    assert (at.method, at.seed) == ("exact", None)
    assert at.h_sigma_estimate == pytest.approx(_pooled_conditional_entropy(_THIRDS, 1, k),
                                                abs=1e-12)
    below = entropy_report(F, _THIRDS, samples=words - 1, k=k, seed=2)
    assert (below.method, below.seed, below.sample_count) == ("sampled", 2, words - 1)
    figures = (below.h_sigma_estimate, below.h_f_estimate)
    assert figures == sampled_figures(F, _THIRDS, words - 1, k, 2)
    # the figures the sampler read before the exact path existed
    assert figures == pytest.approx(parent, abs=1e-12)


def test_a_refused_exact_law_is_sampled():
    # a table rule's pushforward enumerates 2 base words per target word,
    # over its cap of 1: the exact law is refused, so the report samples
    mu = PushforwardMeasure(Bernoulli.uniform(Z2), _table_form(F_xor), 1, cap=1)
    with pytest.raises(CapExceeded):
        mu.block_weights(0, 2)
    rep = entropy_report(F_xor, mu, samples=1000, k=2, seed=3)
    assert (rep.method, rep.seed) == ("sampled", 3)
    assert (rep.h_sigma_estimate, rep.h_f_estimate) == sampled_figures(F_xor, mu, 1000, 2, 3)


def test_exact_weights_past_the_float_range_are_read():
    # letter weights over 2^400, so three letters weigh up to 2^1200, past
    # every float; the law is fair within 2^-398
    mu = Bernoulli(Z2, {(0,): Fraction(2**399 + 1, 2**400), (1,): Fraction(2**399 - 1, 2**400)})
    rep = entropy_report(F_xor, mu, samples=8, k=3)
    assert rep.method == "exact"
    assert rep.h_sigma_estimate == pytest.approx(LOG2, abs=1e-12)
    assert rep.h_sigma_estimate == pytest.approx(_pooled_conditional_entropy(mu, 1, 3),
                                                 abs=1e-12)
    assert rep.h_f_estimate == pytest.approx(_pooled_conditional_entropy(mu, 1, 3, F_xor),
                                             abs=1e-12)
