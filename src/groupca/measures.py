"""Constructible shift measures with exact cylinder probabilities.

Every variant carries an exact rational cylinder function, exact block
weights (all word probabilities on a window at once, as integers over one
denominator) and a sampler; invariance checks, character integrals, Haar
tests and Cesaro averages read the block weights, so they are integer or
integer-phase computations, with floating point confined to final complex
character values.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from operator import getitem
from typing import Iterable, Mapping, Sequence

from .automata import (
    CellularAutomaton,
    compose,
    cylinder_preimage,
    letter_arithmetic,
    letters,
    linear_ca,
    power,
)
from .configs import Cylinder, PeriodicConfig, Word
from .entropy import block_entropy_estimate
from .groups import CapExceeded, Character, Element, Endomorphism, GroupSpec, Subgroup
from .kernels import (
    Condition4Result,
    CorollaryKerResult,
    FullShift,
    KernelTower,
    LinearKernelShift,
    ProductSubgroup,
    SubgroupShiftSpec,
    _unrestricted,
    condition4_search,
    corollary_ker_check,
    subgroup_shift_on,
)

DEFAULT_EXPANSION_CAP = 1 << 16
DEFAULT_WINDOW_CAP = 10  # maximal exactly-enumerated window length
MAX_EXACT_WORDS = 1 << 22  # most words of one exactly enumerated window


def _same_alphabet(mu: "MeasureSpec", F: CellularAutomaton | None) -> None:
    if F is not None and F.alphabet != mu.alphabet:
        raise ValueError(
            f"alphabet mismatch: the measure is over {mu.alphabet}, not over {F.alphabet}"
        )


def _check_window(alphabet: GroupSpec, length: int,
                  cap: int | None = DEFAULT_WINDOW_CAP) -> None:
    if (cap is not None and length > cap) or alphabet.order**length > MAX_EXACT_WORDS:
        raise CapExceeded(f"window of length {length} too large for exact enumeration")


# -- block distributions ----------------------------------------------------------
#
# A block distribution maps every word of positive probability on the window
# [offset, offset + length) to its exact probability; words outside the
# support are absent.  Inside this module it travels as block weights
# (weights, den): a positive integer weight per word over one denominator.
# `block_distribution` turns them into one Fraction per word at the edge.

Weights = tuple[dict[Word, int], int]


def _fractions(block: Weights) -> dict[Word, Fraction]:
    weights, den = block
    return {word: Fraction(c, den) for word, c in weights.items()}


def _independent_pieces(mu: "MeasureSpec", lo: int, hi: int) -> list | None:
    """The positions [lo, hi] cut into independent runs, for a measure that is
    i.i.d. over letters (Bernoulli, Haar on the full shift) or over aligned
    blocks (Haar on a product subgroup); None for any other measure.

    A piece is (first position, [(run of letters, integer weight), ...],
    denominator): the run starting at the first position takes each listed
    value with probability weight / denominator.
    """
    if isinstance(mu, Bernoulli):
        den = math.lcm(*(w.denominator for w in mu.weights.values()))
        runs = [((a,), int(w * den)) for a, w in mu.weights.items() if w]
        return [(p, runs, den) for p in range(lo, hi + 1)]
    if not isinstance(mu, HaarMeasure) or isinstance(mu.sigma, LinearKernelShift):
        return None
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


def _sweep(
    alphabet: GroupSpec,
    pieces: list,
    coeffs: Mapping[int, Endomorphism],
    constant: Element | None,
    lo: int,
    length: int,
    laws: dict | None = None,
) -> Weights:
    """Block weights on [lo, lo + length) of the image of independent pieces
    under the affine rule y_t = sum_u c_u(x_(t+u)) + constant.

    A piece adds a word of deltas to the output sums.  The law of that word
    depends only on the piece's kind: its column (which of its positions
    reach which outputs, through which letter maps), its run law and its
    denominator.  Pieces are counted per kind; each kind's delta law is built
    once and raised to its count n by repeated squaring, and the state, the
    law of the word of partial output sums, takes one move per kind.  A
    delta law and its convolution powers live in the subgroup its deltas
    generate, the image of A (of the block group B for a product-Haar
    block), so a kind costs |A|^length * |A| for its move and log(n) * |A|^2
    for its power.  Sorting the pieces into kinds reads each input position
    once.  Weights are integers over the product of the piece denominators.
    `laws` memoizes the delta laws and their powers by (kind, length, count)
    across the sweeps of one call that shares it.  A window of more than
    MAX_EXACT_WORDS possible words raises CapExceeded up front.
    """
    _check_window(alphabet, length, None)
    abc = letters(alphabet)
    index, plus, maps = letter_arithmetic(alphabet, coeffs)
    zero = index[alphabet.zero]
    vanishing = (zero,) * len(abc)  # the letter map of the zero matrix
    touch: defaultdict = defaultdict(list)  # input position -> [(output, letter map)]
    for u, image in maps.items():
        if image != vanishing:
            for t in range(length):
                touch[lo + t + u].append((t, image))
    touch = {p: tuple(outputs) for p, outputs in touch.items()}
    kinds: Counter = Counter()
    for first, runs, run_den in pieces:
        column = tuple(touch.get(p, ()) for p in range(first, first + len(runs[0][0])))
        if any(column):
            kinds[column, tuple(runs), run_den, length] += 1
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

    def law_power(kind: tuple, n: int) -> dict:
        """The kind's delta law convolved n times, halving n."""
        law = laws.get((kind, n))
        if law is None:
            if n == 1:
                column, runs = kind[:2]
                law = {}
                for run, weight in runs:
                    delta = [zero] * length
                    for letter, outputs in zip(run, column):
                        i = index[letter]
                        for t, image in outputs:
                            delta[t] = plus[delta[t]][image[i]]
                    delta = tuple(delta)
                    law[delta] = law.get(delta, 0) + weight
            else:
                half = law_power(kind, n >> 1)
                law = convolve(half, half)
                if n & 1:
                    law = convolve(law, law_power(kind, 1))
            laws[kind, n] = law
        return law

    # the state is the law of the word of partial sums, over letter indices
    states = {(zero if constant is None else index[constant],) * length: 1}
    den = 1
    for kind, copies in kinds.items():
        den *= kind[2] ** copies
        states = convolve(states, law_power(kind, copies))
    return {tuple(abc[i] for i in s): c for s, c in states.items()}, den


def _identity_sweep(mu: "MeasureSpec", offset: int, length: int,
                    laws: dict | None = None) -> Weights:
    """Block weights of an i.i.d.-letter or i.i.d.-block measure."""
    pieces = _independent_pieces(mu, offset, offset + length - 1)
    return _sweep(mu.alphabet, pieces, {0: Endomorphism.identity(mu.alphabet)}, None,
                  offset, length, laws)


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


def _image_weights(
    base: "MeasureSpec",
    F: CellularAutomaton | None,
    j: int,
    offset: int,
    length: int,
    cap: int,
    power: int,
    laws: dict | None = None,
) -> Weights:
    """Block weights on [offset, offset + length) of F^j pushing `base`.

    A linear or affine F^j comes composed, as F with j = 1
    (`PushforwardMeasure._step`).  An i.i.d.-letter or i.i.d.-block base
    under it takes one sweep, at one move per distinct input column.  A
    mixture is pushed component by component.  Any other base or rule has
    its weights on the widened window pushed through F one step at a time,
    merging equal words after each step.  `cap` bounds the widened words
    per target word, |A|^(j * (width - 1)), as it bounds the preimage
    cylinders per target word of `PushforwardMeasure.preimage`; it is
    checked before anything is enumerated, and its message names F^power,
    the power of the original rule.  `laws` is the sweeps' memo (`_sweep`).
    """
    if j == 0:
        return base.block_weights(offset, length, laws)
    if isinstance(base, MixtureMeasure):
        return _mix(
            (c, _image_weights(m, F, j, offset, length, cap, power, laws))
            for c, m in base.components if c
        )
    if j == 1 and F.is_affine:
        lo, hi = offset + min(F.coeffs), offset + length - 1 + max(F.coeffs)
        pieces = _independent_pieces(base, lo, hi)
        if pieces is not None:
            return _sweep(base.alphabet, pieces, F.coeffs, F.constant, offset, length, laws)
    small = F.smallest_neighborhood()
    r, s = small.neighborhood
    per_target = base.alphabet.order ** (j * (s - r))
    if per_target > cap:
        raise CapExceeded(
            f"pushforward by F^{power} needs {per_target} words per target word, "
            f"over cap {cap}"
        )
    weights, den = base.block_weights(offset + j * r, length + j * (s - r), laws)
    for _ in range(j):
        image: defaultdict = defaultdict(int)
        for word, c in weights.items():
            image[small.apply_window(word)] += c
        weights = image
    return dict(weights), den


# -- measure variants -----------------------------------------------------------


class _BlockWeighted:
    """A measure whose `block_weights(offset, length, laws=None)` gives its
    block weights; `block_distribution` is their one conversion to Fractions."""

    def block_distribution(self, offset: int, length: int) -> dict[Word, Fraction]:
        return _fractions(self.block_weights(offset, length))


@dataclass(frozen=True)
class Bernoulli(_BlockWeighted):
    """Product measure with one rational weight per letter."""

    alphabet: GroupSpec
    weights: Mapping[Element, Fraction]

    def __post_init__(self) -> None:
        table = {}
        for a in self.alphabet.elements():
            w = Fraction(self.weights.get(a, 0))
            if w < 0:
                raise ValueError(f"negative weight at {a}")
            table[a] = w
        if sum(table.values()) != 1:
            raise ValueError("letter weights must sum to 1")
        object.__setattr__(self, "weights", table)
        # sample_word's letters and cumulative float weights, made once
        object.__setattr__(self, "_letters", tuple(table))
        cum = list(itertools.accumulate(float(w) for w in table.values()))
        object.__setattr__(self, "_cum_weights", cum)

    @classmethod
    def uniform(cls, alphabet: GroupSpec) -> "Bernoulli":
        n = alphabet.order
        return cls(alphabet, {a: Fraction(1, n) for a in alphabet.elements()})

    def cylinder_prob(self, cyl: Cylinder) -> Fraction:
        p = Fraction(1)
        for a in cyl.word:
            p *= self.weights[a]
        return p

    def block_weights(self, offset: int, length: int, laws: dict | None = None) -> Weights:
        return _identity_sweep(self, offset, length, laws)

    def sample_word(self, lo: int, hi: int, rng: random.Random) -> Word:
        return tuple(rng.choices(self._letters, cum_weights=self._cum_weights, k=hi - lo + 1))

    def describe(self) -> str:
        return f"Bernoulli on {self.alphabet}"


@dataclass(frozen=True)
class HaarMeasure(_BlockWeighted):
    """Haar (uniform) measure on a subgroup shift."""

    sigma: SubgroupShiftSpec

    @property
    def alphabet(self) -> GroupSpec:
        return self.sigma.alphabet

    def cylinder_prob(self, cyl: Cylinder) -> Fraction:
        """A product of run weights for the full shift and product subgroups
        (i.i.d. over letters or blocks), any cylinder length; a kernel
        shift reads its block weights."""
        if isinstance(self.sigma, LinearKernelShift):
            weights, den = self.block_weights(cyl.offset, len(cyl.word))
            return Fraction(weights.get(cyl.word, 0), den)
        p = Fraction(1)
        for first, runs, den in _independent_pieces(self, cyl.offset, cyl.end - 1):
            i = first - cyl.offset
            p *= Fraction(dict(runs).get(cyl.word[i : i + len(runs[0][0])], 0), den)
        return p

    def block_weights(self, offset: int, length: int, laws: dict | None = None) -> Weights:
        """Full shift and product subgroups are i.i.d. over letters or blocks;
        a kernel shift buckets the solutions on its padded window once."""
        if not isinstance(self.sigma, LinearKernelShift):
            return _identity_sweep(self, offset, length, laws)
        counts = self.sigma.window_counts(length)
        return dict(counts), sum(counts.values())

    def sample_word(self, lo: int, hi: int, rng: random.Random) -> Word:
        sig = self.sigma
        length = hi - lo + 1
        if isinstance(sig, FullShift):
            abc = letters(self.alphabet)
            return tuple(rng.choice(abc) for _ in range(length))
        if isinstance(sig, ProductSubgroup):
            t, k = sig.grouping, self.alphabet.rank
            first = math.floor((lo - sig.phase) / t)
            last = math.floor((hi - sig.phase) / t)
            blocks = {n: rng.choice(sig.block.elements) for n in range(first, last + 1)}
            out = []
            for pos in range(lo, hi + 1):
                n = (pos - sig.phase) // t
                j = (pos - sig.phase) % t
                out.append(blocks[n][j * k : (j + 1) * k])
            return tuple(out)
        small = sig.automaton.smallest_neighborhood()
        if not small.permutativity().right:
            raise ValueError("kernel-shift sampling needs a right-permutative rule")
        k = small.width - 1
        abc = letters(self.alphabet)
        word = [rng.choice(abc) for _ in range(min(k, hi - lo + 1))]
        zero = self.alphabet.zero
        while len(word) < hi - lo + 1:
            prefix = tuple(word[-k:]) if k else ()
            nxt = [a for a in abc if small.local(prefix + (a,)) == zero]
            word.append(nxt[0] if len(nxt) == 1 else rng.choice(nxt))
        return tuple(word)

    def describe(self) -> str:
        return f"Haar on {self.sigma.describe()}"


def _language(sigma: SubgroupShiftSpec, offset: int, length: int) -> set[Word]:
    """The words of a subgroup shift on [offset, offset + length): the
    kernel-shift window words, or every concatenation of the runs of the
    i.i.d. pieces of its Haar measure."""
    if isinstance(sigma, LinearKernelShift):
        return set(sigma.window_counts(length))
    pieces = _independent_pieces(HaarMeasure(sigma), offset, offset + length - 1)
    choices = ([run for run, _ in runs] for _, runs, _ in pieces)
    return {sum(word, ()) for word in itertools.product(*choices)}


@dataclass(frozen=True)
class PushforwardMeasure(_BlockWeighted):
    """Image of a base measure under automaton and shift powers.

    Probabilities come from `block_weights`: one sweep for an i.i.d.
    base (Bernoulli, Haar on the full shift or on a product subgroup) under
    a linear or affine rule, at one move per distinct input column, with an
    affine F^j composed once per measure; component by component for a
    mixture; otherwise the base's weights on the widened window are pushed
    through the rule step by step.  `cap` bounds the widened words
    per target word, as it bounds the preimage cylinders per target word of
    `preimage`, so both raise CapExceeded at the same power of a surjective
    rule; the sweep enumerates at most one state per target word.
    `preimage` expands cylinder preimages instead; it is kept as an
    independent reference for tests.
    """

    base: "MeasureSpec"
    automaton: CellularAutomaton | None = None
    f_power: int = 0
    shift: int = 0
    cap: int = DEFAULT_EXPANSION_CAP

    def __post_init__(self) -> None:
        if self.f_power < 0:
            raise ValueError("automaton power must be >= 0")
        if self.f_power > 0 and self.automaton is None:
            raise ValueError("automaton pushforward needs the automaton")
        _same_alphabet(self.base, self.automaton)

    @property
    def alphabet(self) -> GroupSpec:
        return self.base.alphabet

    def preimage(self, cyl: Cylinder) -> list[Cylinder]:
        """The inverse image of a cylinder as a disjoint cylinder union."""
        cyls = [cyl]
        for _ in range(self.f_power):
            nxt: list[Cylinder] = []
            for c in cyls:
                nxt.extend(cylinder_preimage(self.automaton, c, self.cap))
                if len(nxt) > self.cap:
                    raise CapExceeded("pushforward expansion exceeds cap")
            cyls = nxt
        return [c.shifted(self.shift) for c in cyls]

    def cylinder_prob(self, cyl: Cylinder) -> Fraction:
        weights, den = self.block_weights(cyl.offset, len(cyl.word))
        return Fraction(weights.get(cyl.word, 0), den)

    @functools.cached_property
    def _step(self) -> tuple[CellularAutomaton | None, int]:
        """The rule and power each block distribution pushes through: a
        linear or affine F^j is composed once, on first use, and applied as
        one step."""
        if self.f_power > 1 and self.automaton.is_affine:
            return power(self.automaton, self.f_power), 1
        return self.automaton, self.f_power

    def block_weights(self, offset: int, length: int, laws: dict | None = None) -> Weights:
        return _image_weights(self.base, *self._step, offset + self.shift, length,
                              self.cap, self.f_power, laws)

    def sample_word(self, lo: int, hi: int, rng: random.Random) -> Word:
        r, s = (0, 0)
        if self.automaton is not None:
            r, s = self.automaton.neighborhood
        k = self.f_power
        word = self.base.sample_word(lo + self.shift + k * r, hi + self.shift + k * s, rng)
        for _ in range(k):
            word = self.automaton.apply_window(word)
        return word

    def describe(self) -> str:
        parts = []
        if self.f_power:
            parts.append(f"F^{self.f_power}")
        if self.shift:
            parts.append(f"sigma^{self.shift}")
        head = " ".join(parts) if parts else "identity"
        return f"{head} pushforward of {self.base.describe()}"


@dataclass(frozen=True)
class MixtureMeasure(_BlockWeighted):
    """Rational convex combination of measures on one alphabet."""

    components: tuple[tuple[Fraction, "MeasureSpec"], ...]

    def __post_init__(self) -> None:
        comps = tuple((Fraction(c), m) for c, m in self.components)
        if not comps:
            raise ValueError("empty mixture")
        if any(c < 0 for c, _ in comps):
            raise ValueError("mixture weights must be nonnegative")
        if sum(c for c, _ in comps) != 1:
            raise ValueError("mixture weights must sum to 1")
        alphabets = {m.alphabet for _, m in comps}
        if len(alphabets) != 1:
            raise ValueError("mixture components must share the alphabet")
        object.__setattr__(self, "components", comps)

    @property
    def alphabet(self) -> GroupSpec:
        return self.components[0][1].alphabet

    def cylinder_prob(self, cyl: Cylinder) -> Fraction:
        return sum((c * m.cylinder_prob(cyl) for c, m in self.components), Fraction(0))

    def block_weights(self, offset: int, length: int, laws: dict | None = None) -> Weights:
        return _mix((c, m.block_weights(offset, length, laws))
                    for c, m in self.components if c)

    def sample_word(self, lo: int, hi: int, rng: random.Random) -> Word:
        u = rng.random()
        acc = 0.0
        for c, m in self.components:
            acc += float(c)
            if u < acc:
                return m.sample_word(lo, hi, rng)
        return self.components[-1][1].sample_word(lo, hi, rng)

    def describe(self) -> str:
        return " + ".join(f"{c}*({m.describe()})" for c, m in self.components)


@dataclass(frozen=True)
class PeriodicOrbitMeasure(_BlockWeighted):
    """Uniform measure on a finite set of periodic configurations."""

    configs: tuple[PeriodicConfig, ...]

    def __post_init__(self) -> None:
        if not self.configs:
            raise ValueError("empty orbit")
        object.__setattr__(self, "configs", tuple(sorted(
            set(self.configs), key=lambda c: (c.period, c.word)
        )))

    @classmethod
    def from_orbit(
        cls,
        x: PeriodicConfig,
        automaton: CellularAutomaton | None = None,
        cap: int = 1 << 12,
    ) -> "PeriodicOrbitMeasure":
        """Close a configuration under the shift (and optionally the rule)."""
        seen = {x}
        queue = [x]
        while queue:
            y = queue.pop()
            images = [y.shift(1)]
            if automaton is not None:
                images.append(automaton.apply_periodic(y))
            for z in images:
                if z not in seen:
                    if len(seen) >= cap:
                        raise CapExceeded("orbit closure exceeds cap")
                    seen.add(z)
                    queue.append(z)
        return cls(tuple(seen))

    @property
    def alphabet(self) -> GroupSpec:
        return self.configs[0].alphabet

    def cylinder_prob(self, cyl: Cylinder) -> Fraction:
        hits = sum(1 for x in self.configs if cyl.contains_config(x))
        return Fraction(hits, len(self.configs))

    def block_weights(self, offset: int, length: int, laws: dict | None = None) -> Weights:
        return dict(Counter(x.window(offset, length) for x in self.configs)), len(self.configs)

    def sample_word(self, lo: int, hi: int, rng: random.Random) -> Word:
        x = rng.choice(self.configs)
        return x.window(lo, hi - lo + 1)

    def describe(self) -> str:
        return f"uniform on {len(self.configs)} periodic configurations"


MeasureSpec = (
    Bernoulli | HaarMeasure | PushforwardMeasure | MixtureMeasure | PeriodicOrbitMeasure
)


# -- invariance ------------------------------------------------------------------


@dataclass(frozen=True)
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
    offsets: Sequence[int] = (0, 1, 2, 3),
    cap: int = DEFAULT_EXPANSION_CAP,
    mode: str = "exact",
    mc_samples: int = 50_000,
    seed: int = 0,
) -> InvarianceResult:
    """Sup over short cylinders of |mu(T^-1 [w]_i) - mu([w]_i)| for the map T
    given by automaton and shift powers; exact rationals, or empirical
    frequencies at a four-sigma threshold in mc mode.

    Exact mode reads the block weights of mu and of its image on each
    offset's window; mc mode counts each sampled word and each sampled image
    once, on the window that spans every offset, and reads each offset's
    window as a marginal of those counts.  Every shorter cylinder is a
    marginal of its offset's window, so exact discrepancies are integer
    numerators compared by cross-multiplication, with one Fraction for the
    sup.  The witness is the first cylinder, in (length, word, offset)
    order, that attains the sup.
    """
    if f_power and automaton is None:
        raise ValueError("automaton power needs the automaton")
    _same_alphabet(mu, automaton)
    if length < 1:
        raise ValueError("cylinder length must be >= 1")
    if not offsets:
        raise ValueError("at least one cylinder offset is needed")
    _check_window(mu.alphabet, length)
    push = PushforwardMeasure(mu, automaton, f_power, shift, cap)
    if mode == "exact":
        laws: dict = {}
        windows = {i: (push.block_weights(i, length, laws), mu.block_weights(i, length, laws))
                   for i in offsets}
    elif mode == "mc":
        if mc_samples < 1:
            raise ValueError(f"mc_samples must be >= 1 in mc mode, got {mc_samples}")
        rng = random.Random(seed)
        lo, hi = min(offsets), max(offsets) + length - 1
        direct: Counter = Counter()
        mapped: Counter = Counter()
        for _ in range(mc_samples):
            direct[mu.sample_word(lo, hi, rng)] += 1
            mapped[push.sample_word(lo, hi, rng)] += 1
        windows = {i: (_restrict((mapped, mc_samples), i - lo, length),
                       _restrict((direct, mc_samples), i - lo, length)) for i in offsets}
    else:
        raise ValueError(f"unknown mode {mode!r}")
    marginals = {}
    for i, (image, own) in windows.items():
        marginals[i, length] = image, own
        for ell in range(length - 1, 0, -1):  # each from the one a letter longer
            image, own = _restrict(image, 0, ell), _restrict(own, 0, ell)
            marginals[i, ell] = image, own
    abc = letters(mu.alphabet)
    checked = len(offsets) * sum(len(abc) ** ell for ell in range(1, length + 1))
    cylinders = ((i, word) for ell in range(1, length + 1)
                 for word in itertools.product(abc, repeat=ell) for i in offsets)
    witness = None
    if mode == "exact":
        best, best_den = 0, 1
        for i, word in cylinders:
            (image, di), (own, do) = marginals[i, len(word)]
            num = abs(image.get(word, 0) * do - own.get(word, 0) * di)
            if num * best_den > best * di * do:
                best, best_den, witness = num, di * do, Cylinder(i, word)
        return InvarianceResult(Fraction(best, best_den), witness, checked)
    best_f = 0.0
    threshold = 0.0
    for i, word in cylinders:
        (image, _), (own, _) = marginals[i, len(word)]
        p = own.get(word, 0) / mc_samples
        q = image.get(word, 0) / mc_samples
        sigma = math.sqrt(max(p * (1 - p), q * (1 - q), 1e-12) / mc_samples)
        if abs(p - q) > best_f:
            best_f = abs(p - q)
            witness = Cylinder(i, word)
            threshold = 4 * sigma
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


@dataclass(frozen=True)
class HaarTestReport:
    consistent: bool
    max_abs_integral: float
    witness: tuple[tuple[int, tuple[int, ...]], ...] | None
    characters_checked: int
    support_budget: int
    tolerance: float

    def __bool__(self) -> bool:
        return self.consistent


def haar_test(
    mu: MeasureSpec,
    sigma: SubgroupShiftSpec,
    support_budget: int = 3,
    tol: float = 1e-9,
) -> HaarTestReport:
    """Integrate every character supported on [0, budget) that is nontrivial
    on the subgroup shift; all must vanish if mu is the Haar measure.

    One block weighting of mu on [0, budget) serves every character,
    through its marginal on the character's support window."""
    if support_budget < 1:
        raise ValueError(f"support budget must be >= 1, got {support_budget}")
    alphabet = mu.alphabet
    sigma = subgroup_shift_on(sigma, alphabet)
    _check_window(alphabet, support_budget)
    admissible = sorted(_language(sigma, 0, support_budget))
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
    consistent = max_abs <= tol
    return HaarTestReport(
        consistent, max_abs, None if consistent else witness, checked,
        support_budget, tol,
    )


# -- Cesaro iteration -------------------------------------------------------------


@dataclass(frozen=True)
class CesaroResult:
    """Cesaro averages of iterated pushforwards, as exact block distributions."""

    distributions: tuple[dict[Word, Fraction], ...]
    distances_to_uniform: tuple[Fraction, ...]
    length: int
    exact: bool = True


def cesaro_sequence(
    mu0: MeasureSpec,
    F: CellularAutomaton,
    steps: int,
    length: int,
    cap: int = DEFAULT_EXPANSION_CAP,
) -> CesaroResult:
    """Block distributions on [0, length) of the running averages
    (1/n) sum_(j<n) F^j mu0 for n = 1..steps, with their total-variation
    distances to the uniform block distribution.

    Each F^j mu0 gives `PushforwardMeasure` block weights.  A linear or
    affine F^j is built incrementally as F^(j-1) F, on integer matrices, and
    pushed as one step, so an i.i.d. base costs per step one composition
    (the product of the two term counts, in integer products) and one sweep
    at one move per distinct input column, on every alphabet; the sweeps
    share one memo of delta-law powers.  The running sum is kept as integer
    numerators over one denominator, so each distance is one integer sum;
    Fractions are built only for the averages reported.  `cap` is the
    pushforwards' cap.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    _same_alphabet(mu0, F)
    _check_window(mu0.alphabet, length)
    words = list(itertools.product(letters(mu0.alphabet), repeat=length))
    running = dict.fromkeys(words, 0)  # numerators of sum_(j<n) F^j mu0 over den
    den = 1
    laws: dict = {}
    Fj = None  # F^j for an affine F, composed incrementally
    averages = []
    distances = []
    for n in range(1, steps + 1):
        j = n - 1
        if j and F.is_affine:
            Fj = F if Fj is None else compose(Fj, F)
            weights, d = _image_weights(mu0, Fj, 1, 0, length, cap, j, laws)
        else:
            weights, d = _image_weights(mu0, F, j, 0, length, cap, j, laws)
        if den % d:
            scale = math.lcm(den, d) // den
            running = {w: c * scale for w, c in running.items()}
            den *= scale
        scale = den // d
        for w, c in weights.items():
            running[w] += c * scale
        total = n * den  # the average is running / total
        averages.append({w: Fraction(c, total) for w, c in running.items()})
        # sum_w |running_w / total - 1 / |words|| / 2, over one denominator
        gap = sum(abs(c * len(words) - total) for c in running.values())
        distances.append(Fraction(gap, 2 * total * len(words)))
    return CesaroResult(tuple(averages), tuple(distances), length)


# -- the invariance counterexample bundle ------------------------------------------


@dataclass(frozen=True)
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
        F = self.automaton
        checks: dict[str, object] = {}
        checks["sigma_image_of_x1_is_x2"] = self.x1.shifted(1) == self.x2
        checks["sigma_preimage_of_x1_is_x2"] = self.x1.shifted(-1) == self.x2
        checks["sigma2_preimage_of_x1_is_x1"] = self.x1.shifted(-2) == self.x1
        lang_ok = True
        for ell in range(1, length + 1):
            img = {F.apply_window(w) for w in _language(self.x1, 0, ell + 1)}
            if img != _language(self.x3, 0, ell):
                lang_ok = False
            img2 = {F.apply_window(w) for w in _language(self.x2, 0, ell + 1)}
            if img2 != _language(self.x4, 0, ell):
                lang_ok = False
        checks["rule_image_languages_match"] = lang_ok
        shifted_lang_ok = all(
            _language(self.x1.shifted(1), i, ell) == _language(self.x2, i, ell)
            for i in (0, 1)
            for ell in range(1, length + 1)
        )
        checks["shifted_languages_match"] = shifted_lang_ok
        checks["mu_sigma_invariance"] = invariance_check(
            self.mu, shift=1, length=length
        )
        checks["mu_rule_invariance"] = invariance_check(
            self.mu, automaton=F, f_power=1, length=length
        )
        checks["nu_sigma_invariance"] = invariance_check(self.nu, shift=1, length=2)
        checks["haar_test"] = haar_test(self.mu, FullShift(F.alphabet), 2)
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
    x1 = ProductSubgroup(Z2, 2, diag, phase=0)
    x2 = ProductSubgroup(Z2, 2, diag, phase=1)
    x3 = ProductSubgroup(Z2, 2, zero_even, phase=0)
    x4 = ProductSubgroup(Z2, 2, zero_odd, phase=0)
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


# -- hypothesis reports -------------------------------------------------------------


def sigma_entropy_exact(mu: MeasureSpec) -> float | None:
    """Shift entropy in nats when a closed form applies, else None.

    Mixtures use affinity of entropy over invariant components; pushforwards
    by bipermutative rules and shift powers preserve shift entropy
    (bounded-to-one block maps).
    """
    if isinstance(mu, Bernoulli):
        return -sum(float(w) * math.log(float(w)) for w in mu.weights.values() if w)
    if isinstance(mu, HaarMeasure):
        sig = mu.sigma
        if isinstance(sig, FullShift):
            return math.log(sig.alphabet.order)
        if isinstance(sig, ProductSubgroup):
            return math.log(len(sig.block)) / sig.grouping
        return 0.0  # kernel shifts are finite
    if isinstance(mu, PeriodicOrbitMeasure):
        return 0.0
    if isinstance(mu, MixtureMeasure):
        parts = [sigma_entropy_exact(m) for _, m in mu.components]
        if any(p is None for p in parts):
            return None
        return sum(float(c) * p for (c, _), p in zip(mu.components, parts))
    if isinstance(mu, PushforwardMeasure):
        base = sigma_entropy_exact(mu.base)
        if base is None:
            return None
        if mu.f_power == 0:
            return base
        if mu.automaton.permutativity().bipermutative:
            return base
        return None
    return None


@dataclass(frozen=True)
class HypothesisReport:
    """Checkable and uncheckable premises of the rigidity statement for one
    automaton, subgroup shift and measure."""

    automaton: str
    sigma: str
    measure: str
    nontrivial: bool
    bipermutative: bool
    k: int
    p1: int | None
    k_p1: int | None
    condition4: Condition4Result | None
    corollary_ker: CorollaryKerResult | None
    entropy_positive: bool | None
    entropy_method: str
    unchecked: tuple[str, ...]
    notes: tuple[str, ...] = ()
    criteria_skipped: str | None = None

    @property
    def all_checkable_hold(self) -> bool:
        return (
            self.nontrivial
            and self.bipermutative
            and self.condition4 is not None
            and self.condition4.found
            and self.entropy_positive is not False
        )


def check_hypotheses(
    F: CellularAutomaton | KernelTower,
    sigma: SubgroupShiftSpec | None = None,
    mu: MeasureSpec | str = "abstract",
    m_max: int = 4,
    entropy_samples: int = 20_000,
    seed: int = 0,
    notes: Sequence[str] = (),
) -> HypothesisReport:
    """Populate every checkable premise; ergodicity and invariant-set algebra
    equalities stay explicitly unchecked.

    F may be a kernel tower: p1 and both density criteria read its levels
    and extend it, under its own cap."""
    if m_max < 0:  # refused here: the criteria's ValueErrors become criteria_skipped
        raise ValueError(f"m_max must be >= 0, got {m_max}")
    tw = _unrestricted(F)
    F = tw.automaton
    sigma = subgroup_shift_on(sigma, F.alphabet)
    if not isinstance(mu, str):
        _same_alphabet(mu, F)
    small = F.smallest_neighborhood()
    nontrivial = not small.is_trivial
    perm = small.permutativity()
    k = F.alphabet.radical
    p1 = kp1 = None
    cond4 = corker = None
    skipped = None
    if not nontrivial:
        skipped = "trivial rule: no kernel tower to check"
    else:
        try:
            p1 = tw.restricted_level(1, sigma).period
            kp1 = k * p1
            cond4 = condition4_search(tw, sigma, m_max=m_max, cap=tw.cap)
            corker = corollary_ker_check(tw, sigma, cap=tw.cap)
        except ValueError as exc:
            skipped = f"{type(exc).__name__}: {exc}"
    entropy_positive: bool | None = None
    method = "unchecked (abstract measure)"
    if not isinstance(mu, str):
        h = sigma_entropy_exact(mu)
        if h is not None:
            entropy_positive = h > 0
            method = f"exact shift entropy {h:.6f} nats"
        else:
            rng = random.Random(seed)
            words = [mu.sample_word(0, 4, rng) for _ in range(entropy_samples)]
            est = block_entropy_estimate(words, 4)
            entropy_positive = est > 0.02
            method = f"estimated shift entropy {est:.4f} nats ({entropy_samples} samples, seed {seed})"
    unchecked = (
        "measure ergodicity for the joint rule/shift action",
        "equality of the shift-invariant sets with those of shift power "
        f"{kp1 if kp1 else 'k*p1'} (mod the measure)",
    )
    return HypothesisReport(
        automaton=F.describe(),
        sigma=sigma.describe(),
        measure=mu if isinstance(mu, str) else mu.describe(),
        nontrivial=nontrivial,
        bipermutative=perm.bipermutative,
        k=k,
        p1=p1,
        k_p1=kp1,
        condition4=cond4,
        corollary_ker=corker,
        entropy_positive=entropy_positive,
        entropy_method=method,
        unchecked=unchecked,
        notes=tuple(notes),
        criteria_skipped=skipped,
    )
