"""Entropy formulas for permutative automata and empirical block estimators.

Measure entropy of the automaton is estimated through the column process:
successive images of a sampled window are read off at a fixed block of
positions, turning automaton entropy into shift entropy of the column
sequence.  Exact closed forms cover the bipermutative case.  One column
process serves every rule, alphabet and measure: numpy rows of letter
indices (`letters` order, smallest unsigned dtype) that the rule moves all
at once, with blocks counted by their distinct codes, so memory follows the
sample count.  Every row comes from one stream, np.random.default_rng(seed),
drawn from the measure's independent pieces (`measures._independent_pieces`),
a mixture's component per row and a pushforward's base moved by its rule;
no word is drawn one at a time.  numpy is imported only when a sample is
drawn.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .automata import CellularAutomaton, letter_arithmetic, letters, matrix_terms
from .measures import MixtureMeasure, PushforwardMeasure, _independent_pieces, _same_alphabet

if TYPE_CHECKING:
    import numpy as np


def _require_bipermutative(F: CellularAutomaton) -> CellularAutomaton:
    small = F.smallest_neighborhood()
    if not small.permutativity().bipermutative:
        raise ValueError("entropy formula needs a bipermutative rule")
    return small


def formula_case(F: CellularAutomaton) -> str:
    r, s = F.smallest_neighborhood().neighborhood
    if r >= 0:
        return "right"
    if s <= 0:
        return "left"
    return "straddling"


def formula_entropy(F: CellularAutomaton, h_sigma: float) -> float:
    """Closed-form automaton entropy from shift entropy, by neighborhood sign."""
    small = _require_bipermutative(F)
    r, s = small.neighborhood
    return {"right": s, "left": -r, "straddling": s - r}[formula_case(small)] * h_sigma


def conjugacy_width(F: CellularAutomaton) -> int:
    """Width of the column alphabet conjugating the automaton to a full shift."""
    r, s = F.smallest_neighborhood().neighborhood
    return max(s, 0) - min(r, 0)


def topological_entropy(F: CellularAutomaton) -> float:
    """Topological entropy of a bipermutative automaton, in nats."""
    small = _require_bipermutative(F)
    return conjugacy_width(small) * math.log(small.alphabet.order)


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
    h_k = _entropy_from_counts(counts.values())
    if k == 1:
        return h_k
    marginal: Counter = Counter()
    for block, c in counts.items():
        marginal[block[:-1]] += c
    return max(0.0, h_k - _entropy_from_counts(marginal.values()))


def column_factor_samples(F: CellularAutomaton, measure, width: int | None = None,
                          depth: int = 4, count: int = 1000, seed: int = 0) -> list[tuple]:
    """Sampled column sequences (F^n(x) read at a fixed block, n < depth).

    Each returned sample is a depth-long word over the width-block column
    alphabet, decoded from the column process that `entropy_report` counts,
    drawn as its shift sample is drawn from `seed`.
    """
    small = F.smallest_neighborhood()
    if width is None:
        width = max(conjugacy_width(small), 1)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    import numpy as np

    rows = _column_process(small, measure, width, depth, count, np.random.default_rng(seed))
    abc = letters(small.alphabet)
    return [
        tuple(tuple(abc[i] for i in row[c * width : (c + 1) * width]) for c in range(depth))
        for row in rows.tolist()
    ]


@dataclass(frozen=True)
class BoundsCheck:
    upper: float
    lower: float | None
    upper_ok: bool
    lower_ok: bool | None


def bounds_check(
    F: CellularAutomaton,
    h_sigma: float,
    h_f: float,
    expansivity_radius: int | None = None,
    tol: float = 0.05,
) -> BoundsCheck:
    """Width upper bound, and the expansive lower bound when a radius is given."""
    r, s = F.smallest_neighborhood().neighborhood
    upper = (s - r) * h_sigma
    upper_ok = h_f <= upper + tol
    lower = lower_ok = None
    if expansivity_radius is not None:
        lower = h_sigma / expansivity_radius
        lower_ok = h_f >= lower - tol
    return BoundsCheck(upper, lower, upper_ok, lower_ok)


@dataclass(frozen=True)
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
            "lower_bound_nats": self.bounds.lower,
            "lower_bound_ok": self.bounds.lower_ok,
            "samples": self.sample_count,
            "block_length": self.block_length,
            "column_width": self.column_width,
            "seed": self.seed,
        }


# -- the column process over letter indices ------------------------------------


def _phases(measure) -> int:
    """A t for which sigma^t fixes the measure: the grouping of Haar measure
    on a product subgroup, the base's for a pushforward (F commutes with
    sigma), the lcm over the components of a mixture, else 1."""
    if isinstance(measure, PushforwardMeasure):
        return _phases(measure.base)
    if isinstance(measure, MixtureMeasure):
        return math.lcm(*(_phases(m) for _, m in measure.components))
    return getattr(getattr(measure, "sigma", None), "grouping", 1)


def _pooled_rows(measure, lo: int, hi: int, count: int, rng) -> np.ndarray:
    """`_draw_rows` split evenly over the t phases of the measure (`_phases`),
    which sigma^t fixes and sigma need not: phase i reads [lo + i, hi + i], so
    the rows come from (1/t) sum_(i<t) sigma^i mu."""
    import numpy as np

    t = _phases(measure)
    parts = [_draw_rows(measure, lo + i, hi + i, count // t + (i < count % t), rng)
             for i in range(t)]
    return parts[0] if t == 1 else np.concatenate(parts)


def _draw_rows(measure, lo: int, hi: int, count: int, rng) -> np.ndarray:
    """`count` samples of [lo, hi] as rows of letter indices.  Each group of
    runs with one run law (`measures._independent_pieces`: the run laws of a
    measure i.i.d. over letters or blocks, else one piece, its exact window
    law) takes one rng.integers(0, den) call, mapped through its cumulative
    integer run weights: by a table of the run each of the den values picks
    when there are at least den draws, else by a search per draw.  A
    mixture draws each row's component with one integers call, then the
    rows of each component.  A pushforward draws its base's rows on the
    widened window and moves them through the rule f_power times
    (`_rule_on_rows`).  This is the one sampler of every measure: the
    entropy estimates and mc invariance (`measures.invariance_check`) draw
    through it."""
    import numpy as np

    if isinstance(measure, PushforwardMeasure):
        k, shift = measure.f_power, measure.shift
        r, s = measure.automaton.neighborhood if k else (0, 0)
        rows = _draw_rows(measure.base, lo + shift + k * r, hi + shift + k * s, count, rng)
        step = _rule_on_rows(measure.automaton) if k else None
        for _ in range(k):
            rows = step(rows)
        return rows
    index = letter_arithmetic(measure.alphabet, {})[0]
    out = np.empty((count, hi - lo + 1), np.min_scalar_type(len(index) - 1))
    if isinstance(measure, MixtureMeasure):
        den = math.lcm(*(c.denominator for c, _ in measure.components))
        cum = np.cumsum([c.numerator * (den // c.denominator) for c, _ in measure.components])
        which = np.searchsorted(cum, rng.integers(0, den, size=count), side="right")
        for i, (_, m) in enumerate(measure.components):
            rows = which == i
            out[rows] = _draw_rows(m, lo, hi, int(rows.sum()), rng)
        return out
    for runs, den, starts in _independent_pieces(measure, lo, hi):
        if den >= 1 << 63:
            raise ValueError(f"run weights over {den} pass the 64-bit draw limit 2^63")
        values = np.array([[index[a] for a in run] for run, _ in runs], out.dtype)
        cum = np.cumsum([w for _, w in runs])
        pick = rng.integers(0, den, size=(count, len(starts)))
        if den <= pick.size:
            table = np.searchsorted(cum, np.arange(den), side="right")
            pick = table.astype(np.min_scalar_type(len(runs) - 1))[pick]
        else:
            pick = np.searchsorted(cum, pick, side="right")
        out[:, np.add.outer(np.subtract(starts, lo), range(values.shape[1]))] = values[pick]
    return out


def _rule_on_rows(small: CellularAutomaton):
    """The rule slid over all rows of a letter-index array, each shrinking by
    the width less one as under apply_window.  Each offset maps its letters
    to a term: an affine rule adds the terms with the addition table, a
    table rule sums them into window codes and looks each window up."""
    import numpy as np

    n, w = small.alphabet.order, small.width
    dtype = np.min_scalar_type(n - 1)
    index, plus, maps = letter_arithmetic(small.alphabet, matrix_terms(small))
    lookup, add = None, np.add
    if small.table is not None:
        words = itertools.product(letters(small.alphabet), repeat=w)
        lookup = np.array([index[small.table[word]] for word in words], dtype)
        images = [(j, np.arange(n, dtype=np.int64) * n ** (w - 1 - j)) for j in range(w)]
    else:
        r, plus = small.neighborhood[0], np.array(plus, dtype)
        images = [(u - r, np.array(image, dtype)) for u, image in maps.items()]
        if small.constant is not None:  # a letter map onto the constant
            images.append((0, np.full(n, index[small.constant], dtype)))

        def add(acc: np.ndarray, term: np.ndarray) -> np.ndarray:
            return plus[acc, term]

    def apply(rows: np.ndarray) -> np.ndarray:
        m = rows.shape[1] - w + 1
        out = functools.reduce(add, (image[rows[:, j : j + m]] for j, image in images))
        return out if lookup is None else lookup[out]

    return apply


def _column_process(small: CellularAutomaton, measure, width: int, depth: int,
                    count: int, rng) -> np.ndarray:
    """Rows of `depth` columns of `width` letter indices: F^n(x) on
    [0, width) for n < depth, with x drawn on the window that fixes them."""
    import numpy as np

    r, s = small.neighborhood
    lo = min(0, (depth - 1) * r)
    cur = _pooled_rows(measure, lo, width - 1 + max(0, (depth - 1) * s), count, rng)
    step = _rule_on_rows(small)
    cols = [cur[:, -lo : width - lo]]
    for n in range(1, depth):
        cur = step(cur)
        cols.append(cur[:, n * r - lo : n * r - lo + width])
    return np.concatenate(cols, axis=1)


def _code_entropy(code: np.ndarray) -> float:
    import numpy as np

    counts = np.unique(code, return_counts=True)[1]
    return math.log(len(code)) - float((counts * np.log(counts)).sum()) / len(code)


def _rows_entropy(rows: np.ndarray, n: int, width: int) -> float:
    """H_k - H_(k-1) of rows of k symbols of `width` letter indices, one
    block per row, counted by its code."""
    import numpy as np

    code = np.zeros(len(rows), np.int64)
    for column in rows.T:
        code = code * n + column
    if rows.shape[1] == width:
        return _code_entropy(code)
    return max(0.0, _code_entropy(code) - _code_entropy(code // n**width))


def _shift_entropy(measure, samples: int, k: int, rng) -> float:
    """The h_sigma estimate: H_k - H_(k-1) of `samples` k-letter windows of
    the measure, pooled over its phases (`_pooled_rows`)."""
    rows = _pooled_rows(measure, 0, k - 1, samples, rng)
    return _rows_entropy(rows, measure.alphabet.order, 1)


def entropy_report(F: CellularAutomaton, measure, samples: int = 1_000_000, k: int = 4,
                   seed: int = 0, width: int | None = None,
                   expansivity_radius: int | None = None) -> EntropyReport:
    """Estimate shift and automaton entropies and cross-check the formulas.

    Both estimates count blocks of the column process: the shift's from
    k-letter windows of the measure, the automaton's from k columns of
    `width` letters.  Both pool the t phases of a measure that sigma^t fixes
    and sigma need not (`_pooled_rows`).  A block code must stay below
    2^63, so |A|^(width * k) >= 2^63 raises ValueError.
    """
    if samples < 1 or k < 1:
        raise ValueError(f"samples and block length k must be >= 1, got {samples} and {k}")
    small = F.smallest_neighborhood()
    _same_alphabet(measure, small)
    if width is None:
        width = max(conjugacy_width(small), 1)
    n = small.alphabet.order
    if n ** (width * k) >= 1 << 63:
        raise ValueError(f"block codes of |A|^(width * k) = {n}^{width * k} values "
                         f"pass the 64-bit limit 2^63")
    import numpy as np

    rng = np.random.default_rng(seed)
    h_sigma = _shift_entropy(measure, samples, k, rng)
    h_f = _rows_entropy(_column_process(small, measure, width, k, samples, rng), n, width)
    formula = small.permutativity().bipermutative and not small.is_trivial
    return EntropyReport(
        h_sigma, h_f, formula_entropy(small, h_sigma) if formula else None,
        formula_case(small) if formula else None,
        bounds_check(small, h_sigma, h_f, expansivity_radius), samples, k, width, seed,
    )
