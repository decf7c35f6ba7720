"""Entropy formulas for permutative automata and empirical block estimators.

Measure entropy of the automaton is estimated through the column process:
successive images of a sampled window are read off at a fixed block of
positions, turning automaton entropy into shift entropy of the column
sequence.  Exact closed forms cover the bipermutative case.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .automata import CellularAutomaton

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
    if r >= 0:
        return s * h_sigma
    if s <= 0:
        return -r * h_sigma
    return (s - r) * h_sigma


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


def column_factor_samples(
    F: CellularAutomaton,
    measure,
    width: int | None = None,
    depth: int = 4,
    count: int = 1000,
    seed: int = 0,
) -> list[tuple]:
    """Sampled column sequences (F^n(x) read at a fixed block, n < depth).

    `measure` must provide sample_word(lo, hi, rng); each returned sample is
    a depth-long word over the width-block column alphabet.
    """
    small = F.smallest_neighborhood()
    r, s = small.neighborhood
    if width is None:
        width = max(conjugacy_width(small), 1)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    lo = min(0, (depth - 1) * r)
    hi = (width - 1) + max(0, (depth - 1) * s)
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        cur = tuple(measure.sample_word(lo, hi, rng))
        if len(cur) != hi - lo + 1:
            raise ValueError("sampler returned a window of the wrong length")
        cur_lo = lo
        cols = []
        for n in range(depth):
            idx = -cur_lo
            cols.append(tuple(cur[idx : idx + width]))
            if n < depth - 1:
                cur = small.apply_window(cur)
                cur_lo -= r
        out.append(tuple(cols))
    return out


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
    h_f_estimate: float | None
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


def _encode_columns(arr: np.ndarray, base: int) -> np.ndarray:
    import numpy as np

    code = np.zeros(arr.shape[0], dtype=np.int64)
    for j in range(arr.shape[1]):
        code = code * base + arr[:, j]
    return code


def _counts_entropy(code: np.ndarray) -> float:
    import numpy as np

    counts = np.bincount(code)
    counts = counts[counts > 0]
    total = int(counts.sum())
    return math.log(total) - float((counts * np.log(counts)).sum()) / total


def _fast_column_entropy(
    F: CellularAutomaton, measure, width: int, k: int, count: int, rng
) -> float:
    """Vectorized column-process entropy for scalar linear rules on cyclic
    alphabets and array-capable samplers."""
    import numpy as np

    small = F.smallest_neighborhood()
    r, s = small.neighborhood
    d = small.alphabet.moduli[0]
    coeffs = {u: f.matrix[0][0] for u, f in small.coeffs.items()}
    lo = min(0, (k - 1) * r)
    hi = (width - 1) + max(0, (k - 1) * s)
    cur = measure.sample_array(lo, hi, count, rng).astype(np.int64)
    cur_lo = lo
    col_codes = np.zeros((count, k), dtype=np.int64)
    for n in range(k):
        idx = -cur_lo
        col_codes[:, n] = _encode_columns(cur[:, idx : idx + width], d)
        if n < k - 1:
            new_len = cur.shape[1] - (s - r)
            nxt = np.zeros((count, new_len), dtype=np.int64)
            for u, c in coeffs.items():
                nxt += c * cur[:, u - r : u - r + new_len]
            if small.constant is not None:
                nxt += small.constant[0]
            cur = nxt % d
            cur_lo -= r
    base = d**width
    h_k = _counts_entropy(_encode_columns(col_codes, base))
    if k == 1:
        return h_k
    h_km1 = _counts_entropy(_encode_columns(col_codes[:, : k - 1], base))
    return max(0.0, h_k - h_km1)


def _fast_shift_entropy(measure, k: int, d: int, count: int, rng) -> float:
    import numpy as np

    arr = measure.sample_array(0, k - 1, count, rng).astype(np.int64)
    h_k = _counts_entropy(_encode_columns(arr, d))
    if k == 1:
        return h_k
    h_km1 = _counts_entropy(_encode_columns(arr[:, : k - 1], d))
    return max(0.0, h_k - h_km1)


def entropy_report(
    F: CellularAutomaton,
    measure,
    samples: int = 1_000_000,
    k: int = 4,
    seed: int = 0,
    width: int | None = None,
    expansivity_radius: int | None = None,
) -> EntropyReport:
    """Estimate shift and automaton entropies and cross-check the formulas.

    Uses the vectorized path when the alphabet is cyclic, the rule is linear
    and the sampler supports arrays; falls back to object sampling otherwise.
    """
    if samples < 1 or k < 1:
        raise ValueError(f"samples and block length k must be >= 1, got {samples} and {k}")
    small = F.smallest_neighborhood()
    if width is None:
        width = max(conjugacy_width(small), 1)
    fast = (
        small.alphabet.rank == 1
        and small.coeffs is not None
        and hasattr(measure, "sample_array")
    )
    if fast:
        import numpy as np

        rng = np.random.default_rng(seed)
        d = small.alphabet.moduli[0]
        h_sigma = _fast_shift_entropy(measure, k, d, samples, rng)
        h_f = _fast_column_entropy(F, measure, width, k, samples, rng)
    else:
        rng = random.Random(seed)
        words = [tuple(measure.sample_word(0, k - 1, rng)) for _ in range(samples)]
        h_sigma = block_entropy_estimate(words, k)
        cols = column_factor_samples(F, measure, width, k, samples, seed + 1)
        h_f = block_entropy_estimate(cols, k)
    perm = small.permutativity()
    if perm.bipermutative and not small.is_trivial:
        case = formula_case(small)
        h_formula = formula_entropy(small, h_sigma)
    else:
        case = None
        h_formula = None
    bc = bounds_check(small, h_sigma, h_f, expansivity_radius)
    return EntropyReport(
        h_sigma_estimate=h_sigma,
        h_f_estimate=h_f,
        h_f_formula=h_formula,
        formula_case=case,
        bounds=bc,
        sample_count=samples,
        block_length=k,
        column_width=width,
        seed=seed,
    )
