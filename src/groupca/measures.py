"""Constructible shift measures with exact cylinder probabilities.

Every variant carries an exact rational cylinder function, an exact block
distribution (all word probabilities on a window at once) and a sampler;
invariance checks, character integrals, Haar tests and Cesaro averages read
the block distributions, so they are rational or integer-phase computations,
with floating point confined to final complex character values.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .automata import (
    CellularAutomaton,
    compose,
    cylinder_preimage,
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
    LinearKernelShift,
    ProductSubgroup,
    SubgroupShiftSpec,
    condition4_search,
    corollary_ker_check,
    kernel_elements,
)

DEFAULT_EXPANSION_CAP = 1 << 16
DEFAULT_WINDOW_CAP = 10  # maximal exactly-enumerated window length
MAX_EXACT_WORDS = 1 << 22  # most words of one exactly enumerated window


def _check_window(alphabet: GroupSpec, length: int,
                  cap: int | None = DEFAULT_WINDOW_CAP) -> None:
    if (cap is not None and length > cap) or alphabet.order**length > MAX_EXACT_WORDS:
        raise CapExceeded(f"window of length {length} too large for exact enumeration")


# -- block distributions ----------------------------------------------------------
#
# A block distribution maps every word of positive probability on the window
# [offset, offset + length) to its exact probability; words outside the
# support are absent.


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
) -> dict[Word, Fraction]:
    """Block distribution on [lo, lo + length) of the image of independent
    pieces under the affine rule y_t = sum_u c_u(x_(t+u)) + constant.

    The pieces are swept once, left to right.  The state is the word of
    partial output sums, so the cost is (number of pieces) * |A|^length * |A|,
    polynomial in the rule width.  Weights stay integers over the product of
    the piece denominators, with one Fraction per final word.  A window of
    more than MAX_EXACT_WORDS possible words raises CapExceeded up front.
    """
    _check_window(alphabet, length, None)
    abc = letters(alphabet)
    n = len(abc)
    index = {a: i for i, a in enumerate(abc)}
    zero = index[alphabet.zero]
    plus = [[index[alphabet.add(a, b)] for b in abc] for a in abc]
    touch: defaultdict = defaultdict(list)  # input position -> [(output, letter map)]
    for u, f in coeffs.items():
        image = [index[f(a)] for a in abc]
        if any(x != zero for x in image):
            for t in range(length):
                touch[lo + t + u].append((t, image))
    # a state is the word of partial sums, coded in base |A| over letter
    # indices; each translation is cached per state as the sweep meets it
    place = [n**t for t in range(length)]
    tables: dict[tuple, dict[int, int]] = {}

    def translate(code: int, delta: tuple) -> int:
        return sum(plus[code // q % n][d] * q for d, q in zip(delta, place))

    start = zero if constant is None else index[constant]
    states = {start * sum(place): 1}
    den = 1
    for first, runs, run_den in pieces:
        hits = [(k, touch[p]) for k, p in enumerate(range(first, first + len(runs[0][0])))
                if p in touch]
        if not hits:
            continue
        weights: dict[tuple, int] = {}
        for run, weight in runs:
            delta = [zero] * length
            for k, outputs in hits:
                i = index[run[k]]
                for t, image in outputs:
                    delta[t] = plus[delta[t]][image[i]]
            delta = tuple(delta)
            weights[delta] = weights.get(delta, 0) + weight
        moves = [(delta, tables.setdefault(delta, {}), w) for delta, w in weights.items()]
        den *= run_den
        nxt: defaultdict = defaultdict(int)
        for s, c in states.items():
            for delta, table, weight in moves:
                s2 = table.get(s)
                if s2 is None:
                    s2 = table[s] = translate(s, delta)
                nxt[s2] += c * weight
        states = nxt
    return {
        tuple(abc[s // q % n] for q in place): Fraction(c, den) for s, c in states.items()
    }


def _identity_sweep(mu: "MeasureSpec", offset: int, length: int) -> dict[Word, Fraction]:
    """Block distribution of an i.i.d.-letter or i.i.d.-block measure."""
    pieces = _independent_pieces(mu, offset, offset + length - 1)
    return _sweep(mu.alphabet, pieces, {0: Endomorphism.identity(mu.alphabet)}, None,
                  offset, length)


def _mix(parts: Iterable[tuple[Fraction, dict[Word, Fraction]]]) -> dict[Word, Fraction]:
    out: defaultdict = defaultdict(Fraction)
    for c, dist in parts:
        for word, p in dist.items():
            out[word] += c * p
    return {word: p for word, p in out.items() if p}


def _restrict(dist: Mapping[Word, Fraction], start: int, length: int) -> dict[Word, Fraction]:
    """Marginal of a block distribution on `length` letters from `start`."""
    out: defaultdict = defaultdict(Fraction)
    for word, p in dist.items():
        out[word[start : start + length]] += p
    return dict(out)


def _image_distribution(
    base: "MeasureSpec",
    F: CellularAutomaton | None,
    j: int,
    offset: int,
    length: int,
    cap: int,
) -> dict[Word, Fraction]:
    """Block distribution on [offset, offset + length) of F^j pushing `base`.

    A linear or affine F^j is composed first and applied as one step.  An
    i.i.d.-letter or i.i.d.-block base under it takes one sweep over the
    input letters.  A mixture is pushed component by component.  Any other
    base or rule has its distribution on the widened window pushed through
    F one step at a time, merging equal words after each step.  `cap`
    bounds the widened words per target word, |A|^(j * (width - 1)), as it
    bounds the preimage cylinders per target word of
    `PushforwardMeasure.preimage`; it is checked before anything is
    enumerated.
    """
    if j == 0:
        return base.block_distribution(offset, length)
    if j > 1 and F.is_affine:
        return _image_distribution(base, power(F, j), 1, offset, length, cap)
    if isinstance(base, MixtureMeasure):
        return _mix(
            (c, _image_distribution(m, F, j, offset, length, cap))
            for c, m in base.components if c
        )
    if F.is_affine:
        lo, hi = offset + min(F.coeffs), offset + length - 1 + max(F.coeffs)
        pieces = _independent_pieces(base, lo, hi)
        if pieces is not None:
            return _sweep(base.alphabet, pieces, F.coeffs, F.constant, offset, length)
    small = F.smallest_neighborhood()
    r, s = small.neighborhood
    per_target = base.alphabet.order ** (j * (s - r))
    if per_target > cap:
        raise CapExceeded(
            f"pushforward by F^{j} needs {per_target} words per target word, "
            f"over cap {cap}"
        )
    dist = base.block_distribution(offset + j * r, length + j * (s - r))
    for _ in range(j):
        image: defaultdict = defaultdict(Fraction)
        for word, p in dist.items():
            image[small.apply_window(word)] += p
        dist = image
    return dict(dist)


# -- measure variants -----------------------------------------------------------


@dataclass(frozen=True)
class Bernoulli:
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

    @classmethod
    def uniform(cls, alphabet: GroupSpec) -> "Bernoulli":
        n = alphabet.order
        return cls(alphabet, {a: Fraction(1, n) for a in alphabet.elements()})

    def cylinder_prob(self, cyl: Cylinder) -> Fraction:
        p = Fraction(1)
        for a in cyl.word:
            p *= self.weights[a]
        return p

    def block_distribution(self, offset: int, length: int) -> dict[Word, Fraction]:
        return _identity_sweep(self, offset, length)

    def sample_word(self, lo: int, hi: int, rng: random.Random) -> Word:
        abc = letters(self.alphabet)
        ws = [float(self.weights[a]) for a in abc]
        return tuple(rng.choices(abc, weights=ws, k=hi - lo + 1))

    def sample_array(self, lo: int, hi: int, count: int, rng) -> np.ndarray:
        if self.alphabet.rank != 1:
            raise ValueError("array sampling needs a cyclic alphabet")
        d = self.alphabet.moduli[0]
        if len(set(self.weights.values())) == 1:
            return rng.integers(0, d, size=(count, hi - lo + 1))
        p = np.array([float(self.weights[(a,)]) for a in range(d)])
        p /= p.sum()
        return rng.choice(d, size=(count, hi - lo + 1), p=p)

    def describe(self) -> str:
        return f"Bernoulli on {self.alphabet}"


@dataclass(frozen=True)
class HaarMeasure:
    """Haar (uniform) measure on a subgroup shift."""

    sigma: SubgroupShiftSpec

    @property
    def alphabet(self) -> GroupSpec:
        return self.sigma.alphabet

    def cylinder_prob(self, cyl: Cylinder) -> Fraction:
        sig = self.sigma
        if isinstance(sig, FullShift):
            return Fraction(1, self.alphabet.order ** len(cyl.word))
        if isinstance(sig, ProductSubgroup):
            return self._product_prob(sig, cyl)
        return self.block_distribution(cyl.offset, len(cyl.word)).get(cyl.word, Fraction(0))

    def block_distribution(self, offset: int, length: int) -> dict[Word, Fraction]:
        """Full shift and product subgroups are i.i.d. over letters or blocks;
        a kernel shift buckets the solutions on its padded window once."""
        if not isinstance(self.sigma, LinearKernelShift):
            return _identity_sweep(self, offset, length)
        counts = self.sigma.window_counts(length)
        total = sum(counts.values())
        return {word: Fraction(c, total) for word, c in counts.items()}

    @staticmethod
    def _product_prob(sig: ProductSubgroup, cyl: Cylinder) -> Fraction:
        t, k = sig.grouping, sig.alphabet.rank
        first = math.floor((cyl.offset - sig.phase) / t)
        last = math.floor((cyl.end - 1 - sig.phase) / t)
        p = Fraction(1)
        for n in range(first, last + 1):
            constraints = {}
            for j in range(t):
                pos = n * t + sig.phase + j
                if cyl.offset <= pos < cyl.end:
                    constraints[j] = cyl.word[pos - cyl.offset]
            count = 0
            for b in sig.block.elements:
                if all(b[j * k : (j + 1) * k] == a for j, a in constraints.items()):
                    count += 1
            if count == 0:
                return Fraction(0)
            p *= Fraction(count, len(sig.block))
        return p

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

    def sample_array(self, lo: int, hi: int, count: int, rng) -> np.ndarray:
        if isinstance(self.sigma, FullShift) and self.alphabet.rank == 1:
            d = self.alphabet.moduli[0]
            return rng.integers(0, d, size=(count, hi - lo + 1))
        raise ValueError("array sampling only for full shifts on cyclic alphabets")

    def describe(self) -> str:
        return f"Haar on {self.sigma.describe()}"


def uniform_bernoulli(alphabet: GroupSpec) -> Bernoulli:
    return Bernoulli.uniform(alphabet)


@dataclass(frozen=True)
class PushforwardMeasure:
    """Image of a base measure under automaton and shift powers.

    Probabilities come from `block_distribution`: one sweep over the input
    letters for an i.i.d. base (Bernoulli, Haar on the full shift or on a
    product subgroup) under a linear or affine rule, at a cost polynomial in
    the automaton power; component by component for a mixture; otherwise the
    base's distribution on the widened window is pushed through the rule
    step by step.  `cap` bounds the widened words per target word, as it
    bounds the preimage cylinders per target word of `preimage`, so both
    raise CapExceeded at the same power of a surjective rule; the sweep
    enumerates at most one state per target word.  `preimage` expands
    cylinder preimages instead; it is kept as an independent reference for
    tests.
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
        return self.block_distribution(cyl.offset, len(cyl.word)).get(cyl.word, Fraction(0))

    def block_distribution(self, offset: int, length: int) -> dict[Word, Fraction]:
        return _image_distribution(self.base, self.automaton, self.f_power,
                                   offset + self.shift, length, self.cap)

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
class MixtureMeasure:
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

    def block_distribution(self, offset: int, length: int) -> dict[Word, Fraction]:
        return _mix((c, m.block_distribution(offset, length)) for c, m in self.components if c)

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
class PeriodicOrbitMeasure:
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

    def block_distribution(self, offset: int, length: int) -> dict[Word, Fraction]:
        counts = Counter(x.window(offset, length) for x in self.configs)
        return {word: Fraction(c, len(self.configs)) for word, c in counts.items()}

    def sample_word(self, lo: int, hi: int, rng: random.Random) -> Word:
        x = rng.choice(self.configs)
        return x.window(lo, hi - lo + 1)

    def describe(self) -> str:
        return f"uniform on {len(self.configs)} periodic configurations"


MeasureSpec = (
    Bernoulli | HaarMeasure | PushforwardMeasure | MixtureMeasure | PeriodicOrbitMeasure
)


def cylinder_prob(mu: MeasureSpec, cyl: Cylinder) -> Fraction:
    return mu.cylinder_prob(cyl)


def sample(mu: MeasureSpec, window: tuple[int, int], seed: int = 0) -> Word:
    lo, hi = window
    return mu.sample_word(lo, hi, random.Random(seed))


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

    Exact mode reads one block distribution of mu and one of its image per
    offset, and takes every shorter cylinder as a marginal of them.  The
    witness is the first cylinder, in (length, word, offset) order, that
    attains the sup.
    """
    if f_power and automaton is None:
        raise ValueError("automaton power needs the automaton")
    if length < 1:
        raise ValueError("cylinder length must be >= 1")
    if not offsets:
        raise ValueError("at least one cylinder offset is needed")
    _check_window(mu.alphabet, length)
    abc = letters(mu.alphabet)
    cylinders = [
        Cylinder(i, word)
        for ell in range(1, length + 1)
        for word in itertools.product(abc, repeat=ell)
        for i in offsets
    ]
    if mode == "exact":
        push = PushforwardMeasure(mu, automaton, f_power, shift, cap)
        marginals = {}
        for i in offsets:
            image = push.block_distribution(i, length)
            own = mu.block_distribution(i, length)
            for ell in range(1, length + 1):
                marginals[i, ell] = (_restrict(image, 0, ell), _restrict(own, 0, ell))
        best = Fraction(0)
        witness = None
        for cyl in cylinders:
            image, own = marginals[cyl.offset, cyl.length]
            delta = abs(image.get(cyl.word, 0) - own.get(cyl.word, 0))
            if delta > best:
                best = delta
                witness = cyl
        return InvarianceResult(best, witness, len(cylinders))
    if mode != "mc":
        raise ValueError(f"unknown mode {mode!r}")
    rng = random.Random(seed)
    r, s = automaton.neighborhood if automaton is not None else (0, 0)
    lo = min(c.offset for c in cylinders)
    hi = max(c.end for c in cylinders) - 1
    direct: Counter = Counter()
    mapped: Counter = Counter()
    for _ in range(mc_samples):
        word = mu.sample_word(lo, hi, rng)
        image = mu.sample_word(
            lo + shift + f_power * r, hi + shift + f_power * s, rng
        )
        for _ in range(f_power):
            image = automaton.apply_window(image)
        for cyl in cylinders:
            a, b = cyl.offset - lo, cyl.end - lo
            if word[a:b] == cyl.word:
                direct[cyl] += 1
            if image[a:b] == cyl.word:
                mapped[cyl] += 1
    best_f = 0.0
    witness = None
    threshold = 0.0
    for cyl in cylinders:
        p = direct[cyl] / mc_samples
        q = mapped[cyl] / mc_samples
        sigma = math.sqrt(max(p * (1 - p), q * (1 - q), 1e-12) / mc_samples)
        if abs(p - q) > best_f:
            best_f = abs(p - q)
            witness = cyl
            threshold = 4 * sigma
    return InvarianceResult(best_f, witness, len(cylinders), exact=False,
                            threshold=max(threshold, 4e-2 / math.sqrt(mc_samples)))


# -- characters and the Haar criterion -------------------------------------------


def _integrate(chi: Mapping[int, Character], lo: int, dist: Mapping[Word, Fraction],
               abc: tuple[Element, ...]) -> complex:
    """Sum of character values weighted by a block distribution on the
    character's support window, words taken in lexicographic order."""
    total = complex(0)
    for word in itertools.product(abc, repeat=max(chi) - lo + 1):
        p = dist.get(word)
        if not p:
            continue
        value = complex(1)
        for pos, ch in chi.items():
            value *= ch(word[pos - lo])
        total += float(p) * value
    return total


def character_integral(mu: MeasureSpec, chi: Mapping[int, Character]) -> complex:
    """Exact integral of a finite-support character: sum of character values
    weighted by the rational block distribution on the support window."""
    if not chi:
        return complex(1)
    lo, hi = min(chi), max(chi)
    _check_window(mu.alphabet, hi - lo + 1)
    return _integrate(chi, lo, mu.block_distribution(lo, hi - lo + 1), letters(mu.alphabet))


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

    One block distribution of mu on [0, budget) serves every character,
    through its marginal on the character's support window."""
    alphabet = mu.alphabet
    _check_window(alphabet, support_budget)
    admissible = sorted(sigma.admissible_words(0, support_budget))
    abc = letters(alphabet)
    full = mu.block_distribution(0, support_budget)
    marginals: dict[tuple[int, int], dict[Word, Fraction]] = {}
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

    Each F^j mu0 is a `PushforwardMeasure` block distribution.  A linear or
    affine F^j is built incrementally as F^(j-1) F and pushed as one step, so
    an i.i.d. base costs one sweep per step, polynomial in j, on every
    alphabet.  `cap` is the pushforwards' cap.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    _check_window(mu0.alphabet, length)
    words = list(itertools.product(letters(mu0.alphabet), repeat=length))
    uniform = Fraction(1, len(words))
    running = dict.fromkeys(words, Fraction(0))
    Fj = None  # F^j for an affine F, composed incrementally
    averages = []
    distances = []
    for n in range(1, steps + 1):
        j = n - 1
        if j and F.is_affine:
            Fj = F if Fj is None else compose(Fj, F)
            push = PushforwardMeasure(mu0, Fj, 1, 0, cap)
        else:
            push = PushforwardMeasure(mu0, F, j, 0, cap)
        for w, p in push.block_distribution(0, length).items():
            running[w] += p
        avg = {w: p / n for w, p in running.items()}
        averages.append(avg)
        distances.append(sum((abs(p - uniform) for p in avg.values()), Fraction(0)) / 2)
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
            img = {F.apply_window(w) for w in self.x1.admissible_words(0, ell + 1)}
            if img != self.x3.admissible_words(0, ell):
                lang_ok = False
            img2 = {F.apply_window(w) for w in self.x2.admissible_words(0, ell + 1)}
            if img2 != self.x4.admissible_words(0, ell):
                lang_ok = False
        checks["rule_image_languages_match"] = lang_ok
        shifted_lang_ok = all(
            self.x1.shifted(1).admissible_words(i, ell)
            == self.x2.admissible_words(i, ell)
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
    F: CellularAutomaton,
    sigma: SubgroupShiftSpec | None = None,
    mu: MeasureSpec | str = "abstract",
    m_max: int = 4,
    entropy_samples: int = 20_000,
    seed: int = 0,
    notes: Sequence[str] = (),
) -> HypothesisReport:
    """Populate every checkable premise; ergodicity and invariant-set algebra
    equalities stay explicitly unchecked."""
    sigma = sigma if sigma is not None else FullShift(F.alphabet)
    small = F.smallest_neighborhood()
    nontrivial = not small.is_trivial
    perm = small.permutativity()
    k = F.alphabet.radical
    p1 = kp1 = None
    cond4 = corker = None
    if nontrivial:
        try:
            elems = [x for x in kernel_elements(F, 1) if sigma.contains(x)]
            p1 = math.lcm(*(x.period for x in elems)) if elems else 1
            kp1 = k * p1
            cond4 = condition4_search(F, sigma, m_max=m_max)
            corker = corollary_ker_check(F, sigma)
        except ValueError:
            pass
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
    )
