"""Entropy of permutative automata, checked against closed forms.

Measure entropy of the automaton is read through the column process:
successive images of a window are read off at a fixed block of positions,
turning automaton entropy into shift entropy of the column sequence.  The
closed forms for the bipermutative case live in `hypotheses`, bound lazily
(`groupca._lazy`) and importable here too.  One column process serves
every rule, alphabet and measure.  A window of an exact law is its word of
letter indices (`letters` order); a drawn window is an integer code, those
indices read in base |A|, its first letter lowest, read back into its
indices once.  The rule moves each distinct window once, and blocks are
counted by their codes, so memory follows the distinct windows.

`entropy_report` reads both figures, H_k - H_(k-1) of the shift and of the
column process, from the exact block laws (`_pooled_weights`, the integer
weights of `block_weights` mixed over the phases) whenever both windows
have at most min(samples, MAX_EXACT_WORDS) words; past that budget, or
where a measure refuses its exact law (CapExceeded), it counts sampled
windows.  Every sampled code comes from one stream, random.Random(seed), by
exact integer draws from the measure's independent pieces
(`measures._independent_pieces`), a mixture's component per row and a
pushforward's base moved by its rule; no word is drawn one at a time.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from . import _lazy
from .automata import CellularAutomaton, letter_index, letters
from .groups import CapExceeded, record
from .measures import (
    MAX_EXACT_WORDS, MixtureMeasure, PushforwardMeasure, _independent_pieces, _mix, _phases,
    _same_alphabet)

hypotheses = _lazy("hypotheses")


def __getattr__(name: str):
    """The closed forms, from `hypotheses`."""
    if name in ("conjugacy_width", "formula_case", "formula_entropy", "topological_entropy"):
        return getattr(hypotheses, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _entropy_from_counts(counts: Iterable[int]) -> float:
    """-sum p log p over the frequencies p = c / total of the counts, summed
    by math.fsum.  Each p is one correctly rounded division, so exact
    integer weights past the float range (a pushforward by a high power of
    F) read as drawn counts do; a p below the float range adds under 1e-300."""
    counts = [c for c in counts if c]
    if not counts:
        raise ValueError("insufficient data: no blocks counted")
    total = sum(counts)
    return 0.0 - math.fsum(p * math.log(p) for p in (c / total for c in counts) if p)


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


def _conditional_entropy(counts: dict, prefix: Callable | None) -> float:
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
    from random.Random(seed) as its sampled windows are drawn; each distinct
    window is decoded once, and the samples come in draw order.
    """
    small = F.smallest_neighborhood()
    if width is None:
        width = max(hypotheses.conjugacy_width(small), 1)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    lo, length, block = _column_process(small, width, depth)
    windows = _pooled_rows(measure, lo, lo + length - 1, count, random.Random(seed))
    abc, n = letters(small.alphabet), small.alphabet.order
    words = {}
    for x in set(windows):
        flat = _decode(block(_digits(x, length, n)), width * depth, abc)
        words[x] = tuple(flat[c * width : (c + 1) * width] for c in range(depth))
    return [words[x] for x in windows]


@record
class BoundsCheck:
    upper: float
    upper_ok: bool


def bounds_check(F: CellularAutomaton, h_sigma: float, h_f: float) -> BoundsCheck:
    """The width upper bound (s - r) h_sigma on the automaton entropy, held
    up to 0.05 nats.  The slack is for the error of sampled figures
    (`entropy_report`'s method "sampled"); exact figures are held to it
    alike."""
    r, s = F.smallest_neighborhood().neighborhood
    upper = (s - r) * h_sigma
    return BoundsCheck(upper, h_f <= upper + 0.05)


@record
class EntropyReport:
    """`entropy_report`'s figures.  `method` is "exact" when both figures
    are H_k - H_(k-1) of exact block laws, and then `seed` is None, since
    nothing is drawn; else "sampled".  `sample_count` is the sample budget
    either way."""

    h_sigma_estimate: float
    h_f_estimate: float
    h_f_formula: float | None
    formula_case: str | None
    bounds: BoundsCheck
    sample_count: int
    block_length: int
    column_width: int
    seed: int | None
    method: str

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
            "method": self.method,
        }


# -- the column process over integer codes -------------------------------------


def _decode(code: int, length: int, abc: Sequence) -> tuple:
    """The word of `length` letters of `abc` whose indices, read in base
    |abc| with its first letter lowest, are `code` (`_digits`)."""
    return tuple(map(abc.__getitem__, _digits(code, length, len(abc))))


def _digits(code: int, length: int, n: int) -> tuple[int, ...]:
    """The `length` base-n digits of `code`, its lowest first: the letter
    indices of the word it codes."""
    out = []
    for _ in range(length):
        code, i = divmod(code, n)
        out.append(i)
    return tuple(out)


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
    index = letter_index(measure.alphabet)
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


def _rule_on_digits(F: CellularAutomaton) -> Callable[[tuple], tuple]:
    """The rule slid over a word of letter indices as apply_window slides it
    over the letters: the image's indices, F.width - 1 fewer.  The local
    rule reads each distinct window once."""
    abc, w = letters(F.alphabet), F.width
    index = letter_index(F.alphabet)
    local: dict[tuple, int] = {}  # window -> the index of its image letter

    def step(word: tuple) -> tuple:
        out = []
        for t in range(len(word) - w + 1):
            window = word[t : t + w]
            b = local.get(window)
            if b is None:
                b = local[window] = index[F.local(tuple(abc[i] for i in window))]
            out.append(b)
        return tuple(out)

    return step


def _rule_on_codes(F: CellularAutomaton) -> Callable[[int, int], int]:
    """The rule slid over the code of a word of `length` letters
    (`_rule_on_digits`): the image's code."""
    n, step = F.alphabet.order, _rule_on_digits(F)

    def move(code: int, length: int) -> int:
        out = 0
        for b in reversed(step(_digits(code, length, n))):
            out = out * n + b
        return out

    return move


def _column_process(small: CellularAutomaton, width: int,
                    depth: int) -> tuple[int, int, Callable[[tuple], int]]:
    """The window [lo, lo + length) that fixes every column, and the map
    from a window x on it, as its letter indices (`_digits` of a drawn
    code), to its block code: column n < depth, the n-th `width` letters of
    the block, is F^n(x) on [0, width).  The images are slid as indices."""
    r, s = small.neighborhood
    lo = min(0, (depth - 1) * r)
    length = width + max(0, (depth - 1) * s) - lo
    n, step = small.alphabet.order, _rule_on_digits(small)
    places = [n**j for j in range(width * depth)]  # column c, letter j: place j + c width

    def block(word: tuple) -> int:
        code = 0
        for c in range(depth):
            if c:
                word = step(word)
            start = c * r - lo  # where position 0 lies in F^c(x)
            for j, b in enumerate(word[start : start + width], c * width):
                code += b * places[j]
        return code

    return lo, length, block


def _pooled_weights(measure, lo: int, hi: int) -> dict[tuple, int]:
    """{word: integer weight} of [lo, hi] under (1/t) sum_(i<t) sigma^i mu,
    the law `_pooled_rows` draws from, each word as its letter indices
    (`letters` order), which `_column_process` reads: the block weights of
    the t phases (`measures._phases`) mixed by `measures._mix`, which share
    one memo of run laws."""
    t, laws = _phases(measure), {}
    weights, _ = _mix((Fraction(1, t), measure.block_weights(lo + i, hi - lo + 1, laws))
                      for i in range(t))
    index = letter_index(measure.alphabet).__getitem__
    return {tuple(map(index, word)): c for word, c in weights.items()}


def _shift_entropy(measure, samples: int, k: int, rng: random.Random) -> float:
    """The h_sigma estimate: H_k - H_(k-1) of `samples` k-letter windows of
    the measure, pooled over its phases (`_pooled_rows`)."""
    return _code_entropy(Counter(_pooled_rows(measure, 0, k - 1, samples, rng)), k,
                         measure.alphabet.order)


def _code_entropy(counts: dict, k: int, cell: int) -> float:
    """H_k - H_(k-1) of blocks of k symbols counted, or weighted, by code,
    `cell` values a symbol, so that a block's first k - 1 symbols are its
    code mod cell^(k - 1)."""
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
    """Shift and automaton entropies, H_k - H_(k-1) of block laws, and the
    closed forms they are checked against.

    The shift's blocks are k-letter windows of the measure, the automaton's
    k columns of `width` letters of the column process (`_column_process`),
    the width the rule's `conjugacy_width`, at least 1.  Both pool the t
    phases of a measure that sigma^t fixes and sigma need not.  `samples`
    is the budget: when both windows have at most min(samples,
    MAX_EXACT_WORDS) words, both laws are read exactly (`_pooled_weights`),
    so the figures are exact and no seed is used, and the column process
    moves each window with positive weight once, at most `samples` windows.
    Past the budget, or where the measure refuses its exact law
    (CapExceeded: a pushforward's per-target cap, or a kernel shift's word
    count on a pushforward's widened window), `samples` windows of each are drawn from random.Random(seed),
    the shift's first, and counted, the column windows by distinct window
    before each is moved once.  At the budget's edge the exact path can
    cost more than the sampler, which moves only its distinct draws.
    """
    if samples < 1 or k < 1:
        raise ValueError(f"samples and block length k must be >= 1, got {samples} and {k}")
    small = F.smallest_neighborhood()
    _same_alphabet(measure, small)
    width = max(hypotheses.conjugacy_width(small), 1)
    n = small.alphabet.order
    lo, length, block = _column_process(small, width, k)
    method = "sampled"
    if n ** max(k, length) <= min(samples, MAX_EXACT_WORDS):
        try:
            shift = _pooled_weights(measure, 0, k - 1)
            windows = _pooled_weights(measure, lo, lo + length - 1)
            method = "exact"
        except CapExceeded:
            pass
    if method == "exact":  # words of letter indices: a word's prefix is its first k - 1
        h_sigma = _conditional_entropy(shift, (lambda word: word[:-1]) if k > 1 else None)
    else:
        rng = random.Random(seed)
        h_sigma = _shift_entropy(measure, samples, k, rng)
        windows = {_digits(x, length, n): c for x, c in
                   Counter(_pooled_rows(measure, lo, lo + length - 1, samples, rng)).items()}
    blocks: Counter = Counter()
    for x, c in windows.items():
        blocks[block(x)] += c
    h_f = _code_entropy(blocks, k, n**width)
    formula = small.permutativity().bipermutative and not small.is_trivial
    return EntropyReport(
        h_sigma, h_f, hypotheses.formula_entropy(small, h_sigma) if formula else None,
        hypotheses.formula_case(small) if formula else None,
        bounds_check(small, h_sigma, h_f), samples, k, width,
        None if method == "exact" else seed, method,
    )
