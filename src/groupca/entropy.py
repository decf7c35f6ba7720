"""Entropy estimators for permutative automata, checked against closed forms.

Measure entropy of the automaton is estimated through the column process:
successive images of a sampled window are read off at a fixed block of
positions, turning automaton entropy into shift entropy of the column
sequence.  The closed forms for the bipermutative case live in `hypotheses`
and are imported back here.  One column process serves every rule, alphabet
and measure.  A sampled window is an integer code: its letter indices
(`letters` order) read in base |A|, its first letter lowest.  The rule moves
each distinct code once, and blocks are counted by their codes, so memory
follows the distinct codes.  Every code comes from one stream,
random.Random(seed), by exact integer draws from the measure's independent
pieces (`measures._independent_pieces`), a mixture's component per row and
a pushforward's base moved by its rule; no word is drawn one at a time.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from bisect import bisect_right
from collections import Counter
from typing import Callable, Iterable, Sequence

from .automata import CellularAutomaton, letter_arithmetic, letters
from .groups import record
from .hypotheses import (  # noqa: F401  (importable here too)
    conjugacy_width, formula_case, formula_entropy, topological_entropy)
from .measures import (
    MixtureMeasure, PushforwardMeasure, _independent_pieces, _phases, _same_alphabet)


def _entropy_from_counts(counts: Iterable[int]) -> float:
    total = 0
    acc = 0.0
    for c in counts:
        if c:
            total += c
            acc += c * math.log(c)
    if total == 0:
        raise ValueError("insufficient data: no blocks counted")
    return math.log(total) - acc / total


def block_entropy_estimate(samples: Iterable[Sequence], k: int) -> float:
    """Conditional block entropy H_k - H_(k-1) of pooled length-k windows.

    The (k-1)-block statistics are the prefix marginal of the k-block counts,
    which keeps the difference in [0, log alphabet] exactly.
    """
    if k < 1:
        raise ValueError("block length must be >= 1")
    counts: Counter = Counter()
    for word in samples:
        w = tuple(word)
        for i in range(len(w) - k + 1):
            counts[w[i : i + k]] += 1
    if not counts:
        raise ValueError("insufficient data: no window reaches the block length")
    return _conditional_entropy(counts, (lambda block: block[:-1]) if k > 1 else None)


def _conditional_entropy(counts: Counter, prefix: Callable | None) -> float:
    """H_k - H_(k-1) of counted k-blocks, the (k-1)-block statistics the
    marginal of their `prefix`es; H_1 alone when k = 1 (prefix None)."""
    h_k = _entropy_from_counts(counts.values())
    if prefix is None:
        return h_k
    marginal: Counter = Counter()
    for block, c in counts.items():
        marginal[prefix(block)] += c
    return max(0.0, h_k - _entropy_from_counts(marginal.values()))


def column_factor_samples(F: CellularAutomaton, measure, width: int | None = None,
                          depth: int = 4, count: int = 1000, seed: int = 0) -> list[tuple]:
    """Sampled column sequences (F^n(x) read at a fixed block, n < depth).

    Each returned sample is a depth-long word over the width-block column
    alphabet, from the column process that `entropy_report` counts, drawn
    from random.Random(seed) as its shift sample is drawn; each distinct
    window is decoded once, and the samples come in draw order.
    """
    small = F.smallest_neighborhood()
    if width is None:
        width = max(conjugacy_width(small), 1)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    windows, block = _column_process(small, measure, width, depth, count,
                                     random.Random(seed))
    abc = letters(small.alphabet)
    words = {}
    for x in set(windows):
        flat = _decode(block(x), width * depth, abc)
        words[x] = tuple(flat[c * width : (c + 1) * width] for c in range(depth))
    return [words[x] for x in windows]


@record
class BoundsCheck:
    upper: float
    upper_ok: bool


def bounds_check(F: CellularAutomaton, h_sigma: float, h_f: float) -> BoundsCheck:
    """The width upper bound (s - r) h_sigma on the automaton entropy, held
    up to 0.05 nats of sampling error."""
    r, s = F.smallest_neighborhood().neighborhood
    upper = (s - r) * h_sigma
    return BoundsCheck(upper, h_f <= upper + 0.05)


@record
class EntropyReport:
    h_sigma_estimate: float
    h_f_estimate: float
    h_f_formula: float | None
    formula_case: str | None
    bounds: BoundsCheck
    sample_count: int
    block_length: int
    column_width: int
    seed: int

    def as_dict(self) -> dict:
        ln2 = math.log(2)
        return {
            "h_sigma_nats": self.h_sigma_estimate,
            "h_sigma_bits": self.h_sigma_estimate / ln2,
            "h_f_estimate_nats": self.h_f_estimate,
            "h_f_formula_nats": self.h_f_formula,
            "formula_case": self.formula_case,
            "upper_bound_nats": self.bounds.upper,
            "upper_bound_ok": self.bounds.upper_ok,
            "samples": self.sample_count,
            "block_length": self.block_length,
            "column_width": self.column_width,
            "seed": self.seed,
        }


# -- the column process over integer codes -------------------------------------


def _decode(code: int, length: int, abc: Sequence) -> tuple:
    """The word of `length` letters of `abc` whose indices, read in base
    |abc| with its first letter lowest, are `code`."""
    word = []
    for _ in range(length):
        code, i = divmod(code, len(abc))
        word.append(abc[i])
    return tuple(word)


def _uniform(rng: random.Random, size: int, count: int) -> list[int]:
    """`count` independent draws uniform on range(size): (size - 1).bit_length()
    random bits each, drawn again while at or above size, the exact
    rejection of randrange; a power of 2 rejects nothing."""
    bits, out = (size - 1).bit_length(), []
    while len(out) < count:
        draws = map(rng.getrandbits, itertools.repeat(bits, count - len(out)))
        out += draws if size == 1 << bits else [v for v in draws if v < size]
    return out


def _picks(rng: random.Random, cum: list[int], values: Sequence[int],
           places: Sequence[int], count: int) -> list[int]:
    """`count` sums over `places` of values[j] * place, with j picked
    independently at each place, j with probability (cum[j] - cum[j - 1]) /
    den for den = cum[-1].  One draw uniform below den^c serves the c places,
    its base-den digits their picks: read through a table of the den^c sums
    when there are at least as many draws, else (one place) by a search of
    `cum` per draw."""
    den = cum[-1]
    size = den ** len(places)
    if size > count:
        (place,) = places
        return [values[bisect_right(cum, v)] * place for v in _uniform(rng, den, count)]
    picked = [values[bisect_right(cum, v)] for v in range(den)]
    table = [0]
    for place in places:  # digit j of a draw picks at places[j]
        table = [t + x * place for x in picked for t in table]
    return list(map(table.__getitem__, _uniform(rng, size, count)))


def _pooled_rows(measure, lo: int, hi: int, count: int, rng: random.Random) -> list[int]:
    """`_draw_rows` split evenly over the t phases of the measure
    (`measures._phases`), which sigma^t fixes and sigma need not: phase i
    reads [lo + i, hi + i], so the codes come from (1/t) sum_(i<t) sigma^i mu."""
    t = _phases(measure)
    rows: list[int] = []
    for i in range(t):
        rows += _draw_rows(measure, lo + i, hi + i, count // t + (i < count % t), rng)
    return rows


def _draw_rows(measure, lo: int, hi: int, count: int, rng: random.Random) -> list[int]:
    """`count` samples of [lo, hi] as codes (letter indices in base |A|, lo
    lowest).  Each group of runs with one run law (`measures._independent_pieces`:
    the run laws of a measure i.i.d. over letters or blocks, else one piece,
    its exact window law) draws through its cumulative integer run weights,
    c consecutive starts to one draw uniform below den^c while den^c is at
    most `count` (`_picks`).  A mixture draws each row's component, then the
    rows of each component.  A pushforward draws its base's codes on the
    widened window and moves each distinct one through the rule f_power
    times (`_rule_on_codes`).  This is the one sampler of every measure: the
    entropy estimates and mc invariance (`measures.invariance_check`) draw
    through it."""
    if isinstance(measure, PushforwardMeasure):
        F, k = measure.automaton, measure.f_power
        r, s = F.neighborhood if k else (0, 0)
        lo, hi = lo + measure.shift + k * r, hi + measure.shift + k * s
        codes = _draw_rows(measure.base, lo, hi, count, rng)
        if not k:
            return codes
        move, moved = _rule_on_codes(F), {}
        for code in set(codes):
            x = code
            for j in range(k):
                x = move(x, hi - lo + 1 - j * (F.width - 1))
            moved[code] = x
        return list(map(moved.__getitem__, codes))
    if isinstance(measure, MixtureMeasure):
        den = math.lcm(*(c.denominator for c, _ in measure.components))
        cum = list(itertools.accumulate(c.numerator * (den // c.denominator)
                                        for c, _ in measure.components))
        which = _picks(rng, cum, range(len(cum)), (1,), count)
        codes = [0] * count
        for i, (_, m) in enumerate(measure.components):
            rows = [j for j, c in enumerate(which) if c == i]
            for j, code in zip(rows, _draw_rows(m, lo, hi, len(rows), rng)):
                codes[j] = code
        return codes
    n = measure.alphabet.order
    index = letter_arithmetic(measure.alphabet, {})[0]
    codes = None
    for runs, den, starts in _independent_pieces(measure, lo, hi):
        values = [sum(index[a] * n**j for j, a in enumerate(run)) for run, _ in runs]
        cum = list(itertools.accumulate(w for _, w in runs))
        c = 1  # starts per draw: den^c table entries, no more than the draws
        while c < len(starts) and den ** (c + 1) <= count:
            c += 1
        for i in range(0, len(starts), c):
            part = _picks(rng, cum, values, [n ** (p - lo) for p in starts[i : i + c]], count)
            codes = part if codes is None else list(map(operator.add, codes, part))
    return codes


def _rule_on_codes(F: CellularAutomaton) -> Callable[[int, int], int]:
    """The rule slid over the code of a word of `length` letters, as
    apply_window slides it over the word: the image's code, F.width - 1
    letters shorter.  The local rule reads each distinct window once."""
    abc, w = letters(F.alphabet), F.width
    n = len(abc)
    index = letter_arithmetic(F.alphabet, {})[0]
    local: dict[tuple, int] = {}  # window -> the index of its image letter

    def move(code: int, length: int) -> int:
        word, out = _decode(code, length, abc), 0
        for t in range(length - w, -1, -1):
            window = word[t : t + w]
            b = local.get(window)
            if b is None:
                b = local[window] = index[F.local(window)]
            out = out * n + b
        return out

    return move


def _column_process(small: CellularAutomaton, measure, width: int, depth: int, count: int,
                    rng: random.Random) -> tuple[list[int], Callable[[int], int]]:
    """`count` codes of windows x of the measure, and the map from x to its
    block code: column n < depth, the n-th `width` letters of the block, is
    F^n(x) on [0, width).  x lies on the window that fixes every column."""
    r, s = small.neighborhood
    lo = min(0, (depth - 1) * r)
    length = width + max(0, (depth - 1) * s) - lo
    windows = _pooled_rows(measure, lo, lo + length - 1, count, rng)
    move, n = _rule_on_codes(small), small.alphabet.order
    cell = n**width

    def block(x: int) -> int:
        code, size = 0, length
        for c in range(depth):
            if c:
                x, size = move(x, size), size - small.width + 1
            code += x // n ** (c * r - lo) % cell * cell**c
        return code

    return windows, block


def _shift_entropy(measure, samples: int, k: int, rng: random.Random) -> float:
    """The h_sigma estimate: H_k - H_(k-1) of `samples` k-letter windows of
    the measure, pooled over its phases (`_pooled_rows`)."""
    return _code_entropy(Counter(_pooled_rows(measure, 0, k - 1, samples, rng)), k,
                         measure.alphabet.order)


def _code_entropy(counts: Counter, k: int, cell: int) -> float:
    """H_k - H_(k-1) of blocks of k symbols counted by code, `cell` values
    a symbol, so that a block's first k - 1 symbols are its code mod
    cell^(k - 1)."""
    prefixes = cell ** (k - 1)
    return _conditional_entropy(counts, (lambda code: code % prefixes) if k > 1 else None)


def _sampled_weights(measures: Sequence, lo: int, hi: int, count: int,
                     seed: int) -> list[tuple[dict, int]]:
    """Block weights over `count` of [lo, hi] for each measure in turn, from
    `count` codes drawn from one stream random.Random(seed); each distinct
    code is counted, then decoded to its word once."""
    rng = random.Random(seed)
    abc = letters(measures[0].alphabet)
    return [({_decode(code, hi - lo + 1, abc): c
              for code, c in Counter(_draw_rows(m, lo, hi, count, rng)).items()}, count)
            for m in measures]


def entropy_report(F: CellularAutomaton, measure, samples: int = 1_000_000, k: int = 4,
                   seed: int = 0) -> EntropyReport:
    """Estimate shift and automaton entropies and cross-check the formulas.

    Both estimates count blocks of the column process, drawn from
    random.Random(seed): the shift's from k-letter windows of the measure,
    the automaton's from k columns of `width` letters, which it counts by
    distinct window before moving each window once.  Both pool the t phases
    of a measure that sigma^t fixes and sigma need not (`_pooled_rows`).
    The width is the rule's `conjugacy_width`, at least 1.
    """
    if samples < 1 or k < 1:
        raise ValueError(f"samples and block length k must be >= 1, got {samples} and {k}")
    small = F.smallest_neighborhood()
    _same_alphabet(measure, small)
    width = max(conjugacy_width(small), 1)
    rng = random.Random(seed)
    h_sigma = _shift_entropy(measure, samples, k, rng)
    windows, block = _column_process(small, measure, width, k, samples, rng)
    blocks: Counter = Counter()
    for x, c in Counter(windows).items():
        blocks[block(x)] += c
    h_f = _code_entropy(blocks, k, small.alphabet.order**width)
    formula = small.permutativity().bipermutative and not small.is_trivial
    return EntropyReport(
        h_sigma, h_f, formula_entropy(small, h_sigma) if formula else None,
        formula_case(small) if formula else None,
        bounds_check(small, h_sigma, h_f), samples, k, width, seed,
    )
