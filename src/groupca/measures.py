"""Constructible shift measures with exact cylinder probabilities.

Every variant carries an exact rational cylinder function and exact block
weights (all word probabilities on a window at once, as integers over one
denominator); invariance checks, character integrals, Haar tests and Cesaro
averages read the block weights, so they are integer or integer-phase
computations, with floating point confined to final complex character
values.  Sampled invariance and entropy draw integer codes from one sampler,
`entropy._draw_rows`, which reads each variant's independent pieces.
`_phases` is the one phase count: a t for which sigma^t fixes a measure, so
its window laws at offsets i and i + t agree.  Exact invariance reads one
law per phase class of its offsets, and the entropy samples pool the t
phases.

Haar measure lives on the subgroup shifts of `shifts`, which, with
`configs` and `hypotheses`, is bound lazily (`groupca._lazy`): a Bernoulli
measure or a pushforward of one never executes it.  `entropy` imports this
module, so it is imported inside the functions that use it.
`check_hypotheses` and `HypothesisReport` live in `hypotheses` and are
importable here too.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter, defaultdict
from fractions import Fraction
from operator import getitem
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from . import _lazy
from .automata import (
    CellularAutomaton,
    matrix_terms,
    cylinder_preimage,
    is_surjective,
    letter_arithmetic,
    letters,
    linear_ca,
    power,
)
from .groups import (CapExceeded, Character, Element, GroupSpec, Subgroup, Word, _setfield,
                     record)

if TYPE_CHECKING:
    from .configs import Cylinder, PeriodicConfig
    from .shifts import ProductSubgroup, SubgroupShiftSpec

configs = _lazy("configs")
hypotheses = _lazy("hypotheses")
shifts = _lazy("shifts")

DEFAULT_EXPANSION_CAP = 1 << 16
DEFAULT_WINDOW_CAP = 10  # maximal exactly-enumerated window length
MAX_EXACT_WORDS = 1 << 22  # most words of one exactly enumerated window


def __getattr__(name: str):
    """`check_hypotheses` and `HypothesisReport`, from `hypotheses`."""
    if name in ("check_hypotheses", "HypothesisReport"):
        return getattr(hypotheses, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _same_alphabet(mu: "MeasureSpec", F: CellularAutomaton | None) -> None:
    if F is not None and F.alphabet != mu.alphabet:
        raise ValueError(
            f"alphabet mismatch: the measure is over {mu.alphabet}, not over {F.alphabet}"
        )


def _check_window(alphabet: GroupSpec, length: int,
                  cap: int | None = DEFAULT_WINDOW_CAP) -> None:
    """Refuse a window of no letter, or over `cap` letters or MAX_EXACT_WORDS words."""
    if length < 1:
        raise ValueError(f"window length must be >= 1, got {length}")
    if (cap is not None and length > cap) or alphabet.order**length > MAX_EXACT_WORDS:
        raise CapExceeded(f"window of length {length} too large for exact enumeration")


# -- block distributions ----------------------------------------------------------
#
# A block distribution maps every word of positive probability on the window
# [offset, offset + length) to its exact probability; words outside the
# support are absent.  It travels as block weights (weights, den): a
# positive integer weight per word over one denominator.

Weights = tuple[dict[Word, int], int]
Lane = Mapping[int, tuple[int, ...]]  # a rule's nonzero letter maps by offset (`_lane`)


def _iid(mu: "MeasureSpec") -> bool:
    """Bernoulli, or Haar measure on the full shift or a product subgroup:
    i.i.d. over letters or aligned blocks."""
    if isinstance(mu, Bernoulli):
        return True
    sigma = getattr(mu, "sigma", None)  # Haar measure's, so `shifts` has run
    return sigma is not None and isinstance(sigma, (shifts.FullShift, shifts.ProductSubgroup))


def _independent_pieces(mu: "MeasureSpec", lo: int, hi: int, laws: dict | None = None) -> list:
    """The positions [lo, hi] cut into independent runs and grouped by run
    law.  A measure i.i.d. over letters or blocks (`_iid`) gives its run
    laws; any other measure but a mixture, which every caller takes
    component by component, is one piece: its exact window law, with
    `laws` passed on to its block weights.

    A group is (runs, denominator, starts): the run of letters from each
    position in the range `starts` takes each value of runs = ((run, integer
    weight), ...) with probability weight / denominator.  Groups come in the
    order of their first starts: whole blocks of grouping t have stride t.
    """
    if isinstance(mu, Bernoulli):
        return [(*mu._runs, range(lo, hi + 1))]
    if not _iid(mu):
        weights, den = mu.block_weights(lo, hi - lo + 1, laws)
        return [(tuple(weights.items()), den, range(lo, lo + 1))]
    if isinstance(mu.sigma, shifts.FullShift):
        runs = tuple(((a,), 1) for a in letters(mu.alphabet))
        return [(runs, len(runs), range(lo, hi + 1))]
    return _block_pieces(mu.sigma, lo, hi)


@functools.lru_cache(maxsize=256)
def _block_pieces(sig: ProductSubgroup, lo: int, hi: int) -> tuple:
    """`_independent_pieces` of Haar measure on a product subgroup."""
    t, k = sig.grouping, sig.alphabet.rank
    cuts: dict[tuple[int, int], list[int]] = {}  # (first, last) letter of a block -> starts
    for n in range((lo - sig.phase) // t, (hi - sig.phase) // t + 1):
        start = n * t + sig.phase
        first, last = max(lo, start), min(hi, start + t - 1)
        cuts.setdefault((first - start, last - start), []).append(first)
    groups: dict[tuple, list[int]] = {}
    for (first, last), starts in cuts.items():
        groups.setdefault(_block_runs(sig.block, k, first, last), []).extend(starts)
    return tuple((runs, len(sig.block), range(s[0], s[-1] + 1, s[1] - s[0] if len(s) > 1 else 1))
                 for runs, s in groups.items())


def _piece_prob(mu: "MeasureSpec", cyl: Cylinder) -> Fraction:
    """A cylinder's probability: the product over its pieces of their run
    weights (`_independent_pieces`)."""
    p = Fraction(1)
    for runs, den, starts in _independent_pieces(mu, cyl.offset, cyl.end - 1):
        weights, k = dict(runs), len(runs[0][0])
        for i in starts:
            p *= Fraction(weights.get(cyl.word[i - cyl.offset : i - cyl.offset + k], 0), den)
    return p


@functools.lru_cache(maxsize=256)
def _block_runs(block: Subgroup, k: int, first: int, last: int) -> tuple:
    """The (run, count) law of letters first..last of the blocks, k coordinates each."""
    return tuple(Counter(
        tuple(b[j * k : (j + 1) * k] for j in range(first, last + 1)) for b in block.elements
    ).items())


def _lane(F: CellularAutomaton) -> Lane:
    """The lane of a rule with coefficients: each coefficient's letter map
    by offset (`automata.letter_arithmetic`), the zero map (every letter to
    letter 0, the zero) left out."""
    return {u: m for u, m in letter_arithmetic(F.alphabet, matrix_terms(F))[2].items() if any(m)}


def _identity_lane(alphabet: GroupSpec) -> Lane:
    """The identity rule's lane: every letter to itself at offset 0."""
    return {0: tuple(range(alphabet.order))}


def _sweep(
    base: "MeasureSpec",
    lane: Lane,
    constant: Element | None,
    lo: int,
    length: int,
    laws: dict | None = None,
) -> Weights:
    """Block weights on [lo, lo + length) of the image of a base that is not
    a mixture, cut into its independent pieces (`_independent_pieces`),
    under the affine rule y_t = sum_u m_u(x_(t+u)) + constant, whose lane
    (`_lane`) holds the letter maps m_u.

    The m_u lie in one dense array over offsets, so the
    column of a run of k letters (the maps through which it reaches each
    output) is a window of length + k - 1 of that array, and a group of
    runs counts its columns as the windows at its stride.  A run adds a
    word of deltas to the output sums, a homomorphic image of the run; so
    n runs of one column add that column's image of the run law's n-fold
    convolution on A (on the block group B for a product-Haar block).  The
    state, the law of the word of partial output sums, takes one move per
    distinct column: |A|^length * |A| for the move, and log(n) * |A|^2 for
    the power.  Weights are integers over the product of the denominators
    of the runs that reach an output.  `laws` memoizes the run laws' powers
    by (runs, n) and their images by (column, runs, n), across the sweeps
    of one call that shares it.  A base that is not i.i.d. is one piece,
    its law on the widened window.  `_check_window` refuses a window of no
    letter, and over an i.i.d. base one of over MAX_EXACT_WORDS words.
    """
    alphabet = base.alphabet
    if length < 1 or _iid(base):
        _check_window(alphabet, length, None)
    pieces = _independent_pieces(base, lo + min(lane, default=0),
                                 lo + length - 1 + max(lane, default=0), laws)
    abc = letters(alphabet)
    index, plus, _ = letter_arithmetic(alphabet, {})
    zero = index[alphabet.zero]
    vanishing = (zero,) * len(abc)  # the zero map
    first = min(starts[0] for _, _, starts in pieces)
    end = max(starts[-1] + len(runs[0][0]) for runs, _, starts in pieces)
    # dense[i] maps through offset end - 1 - lo - i: position p reaches output t
    # through dense[end - 1 - p + t], so a run of k from p sees dense[end - p - k:]
    dense = [vanishing] * (end - first + length - 1)
    for u, m in lane.items():
        dense[end - 1 - lo - u] = m
    if laws is None:
        laws = {}

    def convolve(a: dict, b: dict) -> dict:
        out: dict[tuple, int] = {}
        for e, x in b.items():
            rows = [plus[q] for q in e]
            for d, v in a.items():
                key = tuple(map(getitem, rows, d))
                out[key] = out.get(key, 0) + v * x
        return out

    def run_power(runs: tuple, n: int) -> dict:
        """The run law, over letter indices, convolved n times, halving n."""
        law = laws.get((runs, n))
        if law is None:
            if n == 1:
                law = {tuple(index[a] for a in run): weight for run, weight in runs}
            else:
                half = run_power(runs, n >> 1)
                law = convolve(half, half)
                if n & 1:
                    law = convolve(law, run_power(runs, 1))
            laws[runs, n] = law
        return law

    def image(column: tuple, runs: tuple, n: int) -> dict:
        """The law of the delta word of n runs through a column: the image of
        the run law's n-fold convolution, memoized with it in `laws`."""
        law = laws.get((column, runs, n))
        if law is None:
            k = len(column) - length + 1
            law = {}
            for run, weight in run_power(runs, n).items():
                delta = tuple(m[run[-1]] for m in column[:length])
                for j, a in enumerate(run[:-1]):
                    delta = tuple(plus[d][m[a]] for d, m in zip(delta, column[k - 1 - j :]))
                law[delta] = law.get(delta, 0) + weight
            laws[column, runs, n] = law
        return law

    # the state is the law of the word of partial sums, over letter indices
    states = {(zero if constant is None else index[constant],) * length: 1}
    den = 1
    for runs, run_den, starts in pieces:
        k, step = len(runs[0][0]), starts.step
        width, i = length + k - 1, end - starts[-1] - k  # the last run's window comes first
        columns = Counter(zip(*(dense[i + x : i + x + step * len(starts) : step]
                                for x in range(width))))
        columns.pop((vanishing,) * width, None)
        for column, copies in columns.items():
            den *= run_den ** copies
            states = convolve(states, image(column, runs, copies))
    return {tuple(abc[i] for i in s): c for s, c in states.items()}, den


def _mix(parts: Iterable[tuple[Fraction, Weights]]) -> Weights:
    """Block weights of sum_i c_i p_i, over the lcm of the c_i p_i denominators."""
    parts = [(c.numerator, c.denominator * den, weights) for c, (weights, den) in parts]
    den = math.lcm(*(d for _, d, _ in parts))
    out: defaultdict = defaultdict(int)
    for num, d, weights in parts:
        scale = num * (den // d)
        for word, c in weights.items():
            out[word] += scale * c
    return dict(out), den


def _restrict(block: Weights, start: int, length: int) -> Weights:
    """Marginal block weights on `length` letters from `start`."""
    weights, den = block
    out: defaultdict = defaultdict(int)
    for word, c in weights.items():
        out[word[start : start + length]] += c
    return dict(out), den


def _push(
    base: "MeasureSpec",
    lane: Lane,
    constant: Element | None,
    offset: int,
    length: int,
    power: int,
    laws: dict | None = None,
) -> Weights:
    """Block weights on [offset, offset + length) of `base` pushed by the
    affine rule with this lane and `constant` (`_sweep`), a mixture
    component by component.  A base that is not i.i.d. enumerates its law
    on the widened window, so its |A|^(span of the lane) words per target
    word are checked against DEFAULT_EXPANSION_CAP first, in a message
    naming F^power.
    """
    if isinstance(base, MixtureMeasure):
        return _mix((c, _push(m, lane, constant, offset, length, power, laws))
                    for c, m in base.components if c)
    if not _iid(base):
        _check_per_target(base.alphabet, max(lane, default=0) - min(lane, default=0), power)
    return _sweep(base, lane, constant, offset, length, laws)


def _check_per_target(alphabet: GroupSpec, span: int, power: int) -> None:
    if alphabet.order ** span > DEFAULT_EXPANSION_CAP:
        raise CapExceeded(f"pushforward by F^{power} needs {alphabet.order ** span} words "
                          f"per target word, over cap {DEFAULT_EXPANSION_CAP}")


# -- measure variants -----------------------------------------------------------


@record
class Bernoulli:
    """Product measure with one rational weight per letter."""

    alphabet: GroupSpec
    weights: Mapping[Element, Fraction]

    def __init__(self, alphabet: GroupSpec, weights: Mapping[Element, Fraction]) -> None:
        table = {}
        for a in alphabet.elements():
            w = Fraction(weights.get(a, 0))
            if w < 0:
                raise ValueError(f"negative weight at {a}")
            table[a] = w
        # the run law of every letter, made once: integer weights over one
        # denominator, whose sum checks the total without a Fraction sum
        den = math.lcm(*(w.denominator for w in table.values()))
        scaled = {a: w.numerator * (den // w.denominator) for a, w in table.items()}
        if sum(scaled.values()) != den:
            raise ValueError("letter weights must sum to 1")
        _setfield(self, "alphabet", alphabet)
        _setfield(self, "weights", table)
        _setfield(self, "_runs", (tuple(((a,), c) for a, c in scaled.items() if c), den))

    @classmethod
    def uniform(cls, alphabet: GroupSpec) -> "Bernoulli":
        """Every letter weighs one shared Fraction(1, |A|), and the run law
        counts each letter once over |A|."""
        abc = tuple(alphabet.elements())
        out = object.__new__(cls)
        _setfield(out, "alphabet", alphabet)
        _setfield(out, "weights", dict.fromkeys(abc, Fraction(1, len(abc))))
        _setfield(out, "_runs", (tuple(((a,), 1) for a in abc), len(abc)))
        return out

    cylinder_prob = _piece_prob

    def block_weights(self, offset: int, length: int, laws: dict | None = None) -> Weights:
        return _sweep(self, _identity_lane(self.alphabet), None, offset, length, laws)

    def describe(self) -> str:
        return f"Bernoulli on {self.alphabet}"


@record
class HaarMeasure:
    """Haar (uniform) measure on a subgroup shift."""

    sigma: SubgroupShiftSpec

    @property
    def alphabet(self) -> GroupSpec:
        return self.sigma.alphabet

    cylinder_prob = _piece_prob

    def block_weights(self, offset: int, length: int, laws: dict | None = None) -> Weights:
        """Full shift and product subgroups are i.i.d. over letters or blocks;
        a kernel shift is uniform on its words (`LinearKernelShift.language`),
        counted first: its |core| vertices of k letters have d letters each,
        so L >= k letters make |core| d^(L - k) words."""
        if _iid(self):
            return _sweep(self, _identity_lane(self.alphabet), None, offset, length, laws)
        core = self.sigma.core
        k, d = len(next(iter(core))), len(next(iter(core.values())))
        count = len(core) * d ** max(length - k, 0)
        if count > MAX_EXACT_WORDS:
            raise CapExceeded(f"{count} kernel words of length {length} exceed the cap "
                              f"MAX_EXACT_WORDS = {MAX_EXACT_WORDS}")
        words = self.sigma.language(length)
        return dict.fromkeys(words, 1), len(words)

    def describe(self) -> str:
        return f"Haar on {self.sigma.describe()}"


@record
class PushforwardMeasure:
    """Image of a base measure under automaton and shift powers.

    Probabilities come from `block_weights`: under a linear or affine rule,
    one sweep of the base's independent pieces, one move per distinct
    column of its terms, with F^j composed once per measure and a mixture
    pushed component by component; under a table rule, the base's weights
    on the widened window are pushed through the rule step by step.
    DEFAULT_EXPANSION_CAP, read at each use, bounds the widened words per
    target word wherever the base's widened window law is enumerated (every
    base under a table rule, a base that is not i.i.d. under an affine one),
    as it bounds the preimage cylinders per target word of `preimage`, so
    both raise CapExceeded at the same power of a surjective rule; the sweep
    of an i.i.d. base enumerates at most one state per target word.
    `preimage` expands cylinder preimages instead; it is kept as an
    independent reference for tests.
    """

    base: "MeasureSpec"
    automaton: CellularAutomaton | None
    f_power: int
    shift: int

    def __init__(self, base: "MeasureSpec", automaton: CellularAutomaton | None = None,
                 f_power: int = 0, shift: int = 0) -> None:
        if f_power < 0:
            raise ValueError("automaton power must be >= 0")
        if f_power > 0 and automaton is None:
            raise ValueError("automaton pushforward needs the automaton")
        _same_alphabet(base, automaton)
        _setfield(self, "base", base)
        _setfield(self, "automaton", automaton)
        _setfield(self, "f_power", f_power)
        _setfield(self, "shift", shift)

    @property
    def alphabet(self) -> GroupSpec:
        return self.base.alphabet

    def preimage(self, cyl: Cylinder) -> list[Cylinder]:
        """The inverse image of a cylinder as a disjoint cylinder union."""
        cyls = [cyl]
        for _ in range(self.f_power):
            nxt: list[Cylinder] = []
            for c in cyls:
                nxt.extend(cylinder_preimage(self.automaton, c, DEFAULT_EXPANSION_CAP))
                if len(nxt) > DEFAULT_EXPANSION_CAP:
                    raise CapExceeded("pushforward expansion exceeds cap")
            cyls = nxt
        return [c.shifted(self.shift) for c in cyls]

    cylinder_prob = _piece_prob

    @functools.cached_property
    def _step(self) -> tuple[CellularAutomaton | None, int]:
        """The rule and power each block distribution pushes through: a
        linear or affine F^j is composed once, on first use, and applied as
        one step."""
        if self.f_power > 1 and self.automaton.is_affine:
            return power(self.automaton, self.f_power), 1
        return self.automaton, self.f_power

    def block_weights(self, offset: int, length: int, laws: dict | None = None) -> Weights:
        """An affine F^j is pushed by `_push`; under a table rule, the base's
        weights on the widened window go through F step by step, merging
        equal words.  `laws` is the sweeps' memo (`_sweep`)."""
        F, j = self._step
        offset += self.shift
        if j == 0:
            return self.base.block_weights(offset, length, laws)
        if F.is_affine:
            return _push(self.base, _lane(F), F.constant, offset, length, self.f_power, laws)
        small = F.smallest_neighborhood()
        r, s = small.neighborhood
        _check_per_target(self.alphabet, j * (s - r), self.f_power)
        weights, den = self.base.block_weights(offset + j * r, length + j * (s - r), laws)
        for _ in range(j):
            image: defaultdict = defaultdict(int)
            for word, c in weights.items():
                image[small.apply_window(word)] += c
            weights = image
        return dict(weights), den

    def describe(self) -> str:
        parts = []
        if self.f_power:
            parts.append(f"F^{self.f_power}")
        if self.shift:
            parts.append(f"sigma^{self.shift}")
        head = " ".join(parts) if parts else "identity"
        return f"{head} pushforward of {self.base.describe()}"


@record
class MixtureMeasure:
    """Rational convex combination of measures on one alphabet."""

    components: tuple[tuple[Fraction, "MeasureSpec"], ...]

    def __init__(self, components: Iterable[tuple[Fraction, "MeasureSpec"]]) -> None:
        comps = tuple((Fraction(c), m) for c, m in components)
        if not comps:
            raise ValueError("empty mixture")
        if any(c < 0 for c, _ in comps):
            raise ValueError("mixture weights must be nonnegative")
        if sum(c for c, _ in comps) != 1:
            raise ValueError("mixture weights must sum to 1")
        alphabets = {m.alphabet for _, m in comps}
        if len(alphabets) != 1:
            raise ValueError("mixture components must share the alphabet")
        _setfield(self, "components", comps)

    @property
    def alphabet(self) -> GroupSpec:
        return self.components[0][1].alphabet

    def cylinder_prob(self, cyl: Cylinder) -> Fraction:
        return sum((c * m.cylinder_prob(cyl) for c, m in self.components), Fraction(0))

    def block_weights(self, offset: int, length: int, laws: dict | None = None) -> Weights:
        return _mix((c, m.block_weights(offset, length, laws))
                    for c, m in self.components if c)

    def describe(self) -> str:
        return " + ".join(f"{c}*({m.describe()})" for c, m in self.components)


@record
class PeriodicOrbitMeasure:
    """Uniform measure on a finite set of periodic configurations."""

    configs: tuple[PeriodicConfig, ...]

    def __init__(self, configs: Iterable[PeriodicConfig]) -> None:
        if not configs:
            raise ValueError("empty orbit")
        _setfield(self, "configs", tuple(sorted(
            set(configs), key=lambda c: (c.period, c.word)
        )))

    @classmethod
    def from_orbit(
        cls,
        x: PeriodicConfig,
        automaton: CellularAutomaton | None = None,
    ) -> "PeriodicOrbitMeasure":
        """Close a configuration under the shift (and optionally the rule),
        refused past 2^12 configurations."""
        seen = {x}
        queue = [x]
        while queue:
            y = queue.pop()
            images = [y.shift(1)]
            if automaton is not None:
                images.append(automaton.apply_periodic(y))
            for z in images:
                if z not in seen:
                    if len(seen) >= 1 << 12:
                        raise CapExceeded("orbit closure exceeds cap")
                    seen.add(z)
                    queue.append(z)
        return cls(tuple(seen))

    @property
    def alphabet(self) -> GroupSpec:
        return self.configs[0].alphabet

    def cylinder_prob(self, cyl: Cylinder) -> Fraction:
        hits = sum(x.window(cyl.offset, len(cyl.word)) == cyl.word for x in self.configs)
        return Fraction(hits, len(self.configs))

    def block_weights(self, offset: int, length: int, laws: dict | None = None) -> Weights:
        return dict(Counter(x.window(offset, length) for x in self.configs)), len(self.configs)

    def describe(self) -> str:
        return f"uniform on {len(self.configs)} periodic configurations"


MeasureSpec = (
    Bernoulli | HaarMeasure | PushforwardMeasure | MixtureMeasure | PeriodicOrbitMeasure
)


# -- invariance ------------------------------------------------------------------


def _phases(mu: MeasureSpec) -> int:
    """A t for which sigma^t fixes the measure, so that its window laws at
    offsets i and i + t agree: the `shift_period` of Haar measure on a
    product subgroup, the base's for a pushforward (F commutes with sigma),
    the lcm over the components of a mixture, for a periodic orbit measure 1
    when its configurations are closed under sigma (as `from_orbit` builds
    them) and else the lcm of their periods, and 1 for every other measure."""
    if isinstance(mu, PushforwardMeasure):
        return _phases(mu.base)
    if isinstance(mu, MixtureMeasure):
        return math.lcm(*(_phases(m) for _, m in mu.components))
    if isinstance(mu, PeriodicOrbitMeasure):
        points = set(mu.configs)
        if all(x.shift(1) in points for x in points):
            return 1
        return math.lcm(*(x.period for x in points))
    return getattr(getattr(mu, "sigma", None), "shift_period", 1)


@record
class InvarianceResult:
    """Largest cylinder discrepancy between a measure and its pushforward.

    Exact mode reports a rational sup over the checked cylinders; sampled
    mode reports a float together with the statistical threshold used for
    the verdict.
    """

    max_discrepancy: Fraction | float
    witness: Cylinder | None
    cylinders_checked: int
    exact: bool = True
    threshold: float | None = None

    @property
    def invariant(self) -> bool:
        if self.exact:
            return self.max_discrepancy == 0
        return self.max_discrepancy <= self.threshold


def invariance_check(
    mu: MeasureSpec,
    automaton: CellularAutomaton | None = None,
    f_power: int = 0,
    shift: int = 0,
    length: int = 4,
    mode: str = "exact",
    mc_samples: int = 50_000,
    seed: int = 0,
) -> InvarianceResult:
    """Sup over short cylinders of |mu(T^-1 [w]_i) - mu([w]_i)| for the map T
    given by automaton and shift powers; exact rationals, or empirical
    frequencies in mc mode.  The offsets are 0, 1, 2, 3, extended to 0..t-1
    when sigma^t fixes mu for a phase count t > 4 (`_phases`), so the
    verdict covers every phase.

    Exact mode reads the block weights of mu and of its image once per phase
    class i mod t of the offsets: T commutes with sigma, so sigma^t fixes
    the image too, and both laws at offset i + t are those at i.  Every
    offset of a class shares its pair of laws and their marginals.  Mc mode
    counts mc_samples rows of mu, then of its image, on the window spanning
    every offset, from random.Random(seed) (`entropy._sampled_weights`).  It
    holds when the sup is at most z standard deviations of the witness's
    difference of independent frequencies, sqrt((p(1 - p) + q(1 - q)) / n),
    and 4e-2 / sqrt(n) at least: z = max(4, sqrt(2 ln(2m / alpha))) bounds
    the Gaussian tails of all m = `cylinders_checked` cylinders at once at
    family-wise alpha = 1e-3.  Every shorter cylinder is a marginal of its
    offset's window, so exact discrepancies are integer numerators compared
    by cross-multiplication, with one Fraction for the sup.  Only the words
    in some marginal's support are walked, each at the first offset of each
    distinct law, since a later offset with the same law ties and a tie
    never moves the witness.  The witness is the first cylinder, in
    (length, word, offset) order, that attains the sup; `cylinders_checked`
    counts every cylinder of the window, |offsets| * sum_ell |A|^ell.
    """
    if f_power and automaton is None:
        raise ValueError("automaton power needs the automaton")
    _same_alphabet(mu, automaton)
    if length < 1:
        raise ValueError("cylinder length must be >= 1")
    t = _phases(mu)
    offsets = range(max(4, t))
    _check_window(mu.alphabet, length)
    push = PushforwardMeasure(mu, automaton, f_power, shift)
    if mode == "exact":
        laws: dict = {}
        windows = {i: (push.block_weights(i, length, laws), mu.block_weights(i, length, laws))
                   for i in range(t)}
    elif mode == "mc":
        if mc_samples < 1:
            raise ValueError(f"mc_samples must be >= 1 in mc mode, got {mc_samples}")
        from .entropy import _sampled_weights

        own, image = _sampled_weights((mu, push), 0, offsets[-1] + length - 1, mc_samples, seed)
        windows = {i: (_restrict(image, i, length), _restrict(own, i, length))
                   for i in offsets}
    else:
        raise ValueError(f"unknown mode {mode!r}")
    marginals = {}
    for i, (image, own) in windows.items():
        marginals[i, length] = image, own
        for ell in range(length - 1, 0, -1):  # each from the one a letter longer
            image, own = _restrict(image, 0, ell), _restrict(own, 0, ell)
            marginals[i, ell] = image, own
    checked = len(offsets) * sum(mu.alphabet.order ** ell for ell in range(1, length + 1))
    # a word outside every support has discrepancy 0 and cannot be the witness
    cylinders = ((i, word) for ell in range(1, length + 1)
                 for word in sorted({w for i in windows for block, _ in marginals[i, ell]
                                     for w in block})
                 for i in windows)
    witness = None
    if mode == "exact":
        best, best_den = 0, 1
        for i, word in cylinders:
            (image, di), (own, do) = marginals[i, len(word)]
            num = abs(image.get(word, 0) * do - own.get(word, 0) * di)
            if num * best_den > best * di * do:
                best, best_den, witness = num, di * do, configs.Cylinder(i, word)
        return InvarianceResult(Fraction(best, best_den), witness, checked)
    best_f = threshold = 0.0
    z = max(4, math.sqrt(2 * math.log(2 * checked / 1e-3)))
    for i, word in cylinders:
        (image, _), (own, _) = marginals[i, len(word)]
        p = own.get(word, 0) / mc_samples
        q = image.get(word, 0) / mc_samples
        sigma = math.sqrt((p * (1 - p) + q * (1 - q)) / mc_samples)  # of p - q
        if abs(p - q) > best_f:
            best_f = abs(p - q)
            witness = configs.Cylinder(i, word)
            threshold = z * sigma
    return InvarianceResult(best_f, witness, checked, exact=False,
                            threshold=max(threshold, 4e-2 / math.sqrt(mc_samples)))


# -- characters and the Haar criterion -------------------------------------------


def _integrate(chi: Mapping[int, Character], lo: int, block: Weights,
               abc: tuple[Element, ...]) -> complex:
    """Sum of character values weighted by block weights on the character's
    support window, words taken in lexicographic order."""
    weights, den = block
    total = complex(0)
    for word in itertools.product(abc, repeat=max(chi) - lo + 1):
        c = weights.get(word)
        if not c:
            continue
        value = complex(1)
        for pos, ch in chi.items():
            value *= ch(word[pos - lo])
        total += c / den * value  # correctly rounded, as float(Fraction(c, den))
    return total


def character_integral(mu: MeasureSpec, chi: Mapping[int, Character]) -> complex:
    """Exact integral of a finite-support character: sum of character values
    weighted by the rational block weights on the support window."""
    if not chi:
        return complex(1)
    lo, hi = min(chi), max(chi)
    _check_window(mu.alphabet, hi - lo + 1)
    return _integrate(chi, lo, mu.block_weights(lo, hi - lo + 1), letters(mu.alphabet))


def _character_trivial_on(chi: Mapping[int, Character], words: Iterable[Word],
                          lo: int) -> bool:
    for word in words:
        num = 0
        lcm = 1
        for pos, ch in chi.items():
            n, m = ch.phase(word[pos - lo])
            num = num * m + n * lcm
            lcm *= m
            num %= lcm
        if num % lcm != 0:
            return False
    return True


@record
class HaarTestReport:
    consistent: bool
    max_abs_integral: float
    witness: tuple[tuple[int, tuple[int, ...]], ...] | None
    characters_checked: int
    support_budget: int

    def __bool__(self) -> bool:
        return self.consistent


def haar_test(
    mu: MeasureSpec,
    sigma: SubgroupShiftSpec,
    support_budget: int = 3,
) -> HaarTestReport:
    """Integrate every character supported on [0, budget) that is nontrivial
    on the subgroup shift; all must vanish (to 1e-9) if mu is the Haar measure.

    One block weighting of mu on [0, budget) serves every character,
    through its marginal on the character's support window."""
    if support_budget < 1:
        raise ValueError(f"support budget must be >= 1, got {support_budget}")
    alphabet = mu.alphabet
    sigma = shifts.subgroup_shift_on(sigma, alphabet)
    _check_window(alphabet, support_budget)
    admissible = sorted(HaarMeasure(sigma).block_weights(0, support_budget)[0])
    abc = letters(alphabet)
    full = mu.block_weights(0, support_budget)
    marginals: dict[tuple[int, int], Weights] = {}
    max_abs = 0.0
    witness = None
    checked = 0
    for residues in itertools.product(alphabet.elements(), repeat=support_budget):
        if all(all(c == 0 for c in res) for res in residues):
            continue
        chi = {
            pos: Character(alphabet, res)
            for pos, res in enumerate(residues)
            if any(c != 0 for c in res)
        }
        if _character_trivial_on(chi, admissible, 0):
            continue
        checked += 1
        lo, hi = min(chi), max(chi)
        if (lo, hi) not in marginals:
            marginals[lo, hi] = _restrict(full, lo, hi - lo + 1)
        value = abs(_integrate(chi, lo, marginals[lo, hi], abc))
        if value > max_abs:
            max_abs = value
            witness = tuple((pos, chi[pos].residues) for pos in sorted(chi))
    consistent = max_abs <= 1e-9
    return HaarTestReport(
        consistent, max_abs, None if consistent else witness, checked, support_budget,
    )


# -- Cesaro iteration -------------------------------------------------------------


def _power_lanes(F: CellularAutomaton) -> Iterator[Lane]:
    """The lanes of F, F^2, F^3, ... for a rule F with coefficients, each
    from the one before: lane_j[w] = sum_u m_u o lane_(j-1)[w - u] over F's
    letter maps m_u.  Letter maps are numbered as they first appear (0 is
    the zero map, which no lane holds), and each composition m o g (m[g[a]])
    and each sum g + h (plus[g[a]][h[a]]) of numbered maps is computed once
    per generator."""
    alphabet = F.alphabet
    plus = letter_arithmetic(alphabet, {})[1]
    maps: list[tuple[int, ...]] = []
    numbers: dict[tuple[int, ...], int] = {}

    def number(m: tuple[int, ...]) -> int:
        if m not in numbers:
            numbers[m] = len(maps)
            maps.append(m)
        return numbers[m]

    number((0,) * alphabet.order)
    f = [(u, number(m)) for u, m in _lane(F).items()]
    composed: defaultdict[int, dict[int, int]] = defaultdict(dict)  # m -> {g: m o g}
    summed: defaultdict[int, dict[int, int]] = defaultdict(dict)  # h -> {g: h + g}
    lane = {u: number(m) for u, m in _identity_lane(alphabet).items()}
    while True:
        nxt: dict[int, int] = {}
        for u, m in f:
            after = composed[m]
            for v, g in lane.items():
                mg = after.get(g)
                if mg is None:
                    mg = after[g] = number(tuple(maps[m][a] for a in maps[g]))
                h = nxt.get(u + v)
                if h is not None:
                    plus_h = summed[h]
                    if mg not in plus_h:
                        plus_h[mg] = number(tuple(plus[a][b] for a, b in zip(maps[h], maps[mg])))
                    mg = plus_h[mg]
                nxt[u + v] = mg
        lane = {w: h for w, h in nxt.items() if h}
        yield {w: maps[h] for w, h in lane.items()}


@record
class CesaroResult:
    """Total-variation distances to uniform of the Cesaro averages of
    iterated pushforwards on the window [0, length)."""

    distances_to_uniform: tuple[Fraction, ...]
    length: int


def cesaro_sequence(
    mu0: MeasureSpec,
    F: CellularAutomaton,
    steps: int,
    length: int,
) -> CesaroResult:
    """Total-variation distances to the uniform block distribution on
    [0, length) of the running averages (1/n) sum_(j<n) F^j mu0 for
    n = 1..steps.

    Each F^j mu0 gives `PushforwardMeasure` block weights.  A linear or
    affine F^j is carried as its lane, advanced by F once per step
    (`_power_lanes`), and a constant, F^j of the zero
    configuration, and pushed as they are (`_push`); the sweeps share one
    memo of run-law powers.  The one running sum is kept as integer
    numerators over one denominator, so each distance is one integer sum.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    _same_alphabet(mu0, F)
    _check_window(mu0.alphabet, length)
    A = mu0.alphabet
    words = tuple(itertools.product(letters(A), repeat=length))
    running = dict.fromkeys(words, 0)  # numerators of sum_(j<n) F^j mu0 over den
    den = 1
    laws: dict = {}
    lanes = _power_lanes(F) if F.is_affine else None
    constant = A.zero  # F^j of the zero configuration, for an affine F
    distances = []
    for n in range(1, steps + 1):
        j = n - 1
        if j and lanes is not None:
            if F.constant is not None:  # F^j of the zero configuration
                constant = F.local((constant,) * F.width)
            block = _push(mu0, next(lanes), constant, 0, length, j, laws)
        else:
            block = PushforwardMeasure(mu0, F, j).block_weights(0, length, laws)
        weights, d = block
        if den % d:
            scale = math.lcm(den, d) // den
            running = {w: c * scale for w, c in running.items()}
            den *= scale
        scale = den // d
        for w, c in weights.items():
            running[w] += c * scale
        total = n * den  # the average is running / total
        # sum_w |running_w / total - 1 / |words|| / 2, over one denominator
        gap = sum(abs(c * len(words) - total) for c in running.values())
        distances.append(Fraction(gap, 2 * total * len(words)))
    return CesaroResult(tuple(distances), length)


# -- the invariance counterexample bundle ------------------------------------------


@record
class CounterexampleSuite:
    """The additive rule and the four even/odd coupling subgroups, with the
    quarter mixture of Haar images that is jointly invariant yet non-Haar."""

    automaton: CellularAutomaton
    x1: ProductSubgroup
    x2: ProductSubgroup
    x3: ProductSubgroup
    x4: ProductSubgroup
    nu: HaarMeasure
    mu: MixtureMeasure

    def verify(self, length: int = 6) -> dict[str, object]:
        if length < 1:
            raise ValueError("cylinder length must be >= 1")
        F = self.automaton
        checks: dict[str, object] = {}
        checks["sigma_image_of_x1_is_x2"] = self.x1.shifted(1) == self.x2
        checks["sigma_preimage_of_x1_is_x2"] = self.x1.shifted(-1) == self.x2
        checks["sigma2_preimage_of_x1_is_x1"] = self.x1.shifted(-2) == self.x1

        def language(mu: MeasureSpec, i: int) -> set[Word]:
            """The support at `length` from offset i.  The shorter languages
            are its prefixes, so two measures whose languages match here
            match at every length."""
            return set(mu.block_weights(i, length)[0])

        checks["rule_image_languages_match"] = all(
            language(PushforwardMeasure(HaarMeasure(x), F, 1), 0) == language(HaarMeasure(y), 0)
            for x, y in ((self.x1, self.x3), (self.x2, self.x4))
        )
        checks["shifted_languages_match"] = all(
            language(HaarMeasure(self.x1.shifted(1)), i) == language(HaarMeasure(self.x2), i)
            for i in (0, 1)
        )
        checks["mu_sigma_invariance"] = invariance_check(
            self.mu, shift=1, length=length
        )
        checks["mu_rule_invariance"] = invariance_check(
            self.mu, automaton=F, f_power=1, length=length
        )
        checks["nu_sigma_invariance"] = invariance_check(self.nu, shift=1, length=2)
        checks["haar_test"] = haar_test(self.mu, shifts.FullShift(F.alphabet), 2)
        return checks


def counterexample_suite() -> CounterexampleSuite:
    """The worked example: additive rule on bits, coupled-pair subgroups, and
    the invariant quarter mixture with a nonvanishing character."""
    Z2 = GroupSpec((2,))
    F = linear_ca(Z2, {0: 1, 1: 1})
    pair = Z2.power(2)
    diag = Subgroup(pair, ((0, 0), (1, 1)))
    zero_even = Subgroup(pair, ((0, 0), (0, 1)))
    zero_odd = Subgroup(pair, ((0, 0), (1, 0)))
    product = shifts.ProductSubgroup
    x1 = product(Z2, 2, diag, phase=0)
    x2 = product(Z2, 2, diag, phase=1)
    x3 = product(Z2, 2, zero_even, phase=0)
    x4 = product(Z2, 2, zero_odd, phase=0)
    nu = HaarMeasure(x1)
    quarter = Fraction(1, 4)
    mu = MixtureMeasure(
        (
            (quarter, nu),
            (quarter, PushforwardMeasure(nu, shift=1)),
            (quarter, PushforwardMeasure(nu, F, f_power=1)),
            (quarter, PushforwardMeasure(nu, F, f_power=1, shift=1)),
        )
    )
    return CounterexampleSuite(F, x1, x2, x3, x4, nu, mu)


# -- shift entropy ---------------------------------------------------------------


def sigma_entropy_exact(mu: MeasureSpec) -> float | None:
    """Shift entropy in nats when a closed form applies, else None.

    Mixtures use affinity of entropy over invariant components; pushforwards
    by bipermutative rules and shift powers preserve shift entropy
    (bounded-to-one block maps), and a surjective rule maps the uniform
    measure to itself (Hedlund 1969).
    """
    if isinstance(mu, Bernoulli):
        return -sum(float(w) * math.log(float(w)) for w in mu.weights.values() if w)
    if isinstance(mu, HaarMeasure):
        sig = mu.sigma
        if isinstance(sig, shifts.FullShift):
            return math.log(sig.alphabet.order)
        if isinstance(sig, shifts.ProductSubgroup):
            return math.log(len(sig.block)) / sig.grouping
        # |L_(n+1)| = d |L_n| for long words: every core vertex has the zero vertex's d letters
        return math.log(len(next(iter(sig.core.values()))))
    if isinstance(mu, PeriodicOrbitMeasure):
        return 0.0
    if isinstance(mu, MixtureMeasure):
        parts = [sigma_entropy_exact(m) for _, m in mu.components]
        if any(p is None for p in parts):
            return None
        return sum(float(c) * p for (c, _), p in zip(mu.components, parts))
    if isinstance(mu, PushforwardMeasure):
        F, A = mu.automaton, mu.alphabet
        if mu.f_power == 0 or F.permutativity().bipermutative:
            return sigma_entropy_exact(mu.base)
        base = mu.base  # uniform: Bernoulli, or Haar measure on the full shift
        if base == Bernoulli.uniform(A) or (isinstance(base, HaarMeasure)
                                            and base.sigma == shifts.FullShift(A)):
            try:
                onto = is_surjective(F)
            except CapExceeded:
                return None
            if onto.surjective and onto.decided:
                return math.log(A.order)
    return None
