"""Kernel towers of algebraic cellular automata and the density criteria.

The n-th level is the set of periodic configurations annihilated by the n-th
iterate.  Elements are enumerated as cycles of the overlap (de Bruijn) graph
whose edges are the zero-windows of the iterated rule: for a bipermutative
rule that graph is a permutation, and in general its core must decompose
into disjoint cycles for the kernel to be finite.  The rule is additive, so
the graph is built on letter indices from the letter map of each window
column and one table addition per vertex (`automata.letter_arithmetic`, as
in `measures` and `entropy`).  The density criteria work on a level coded by
short windows of its elements, with the shift and the rule tabulated on the
codes, the rule applied by the same letter maps.

A linear rule over a prime field Z/p, whose polynomial normalized to P(0) != 0
has degree k, has ker F^n isomorphic to Z/p[x]/(P^n) as a module over the
shift, which acts as x.  Its sizes, periods and both density criteria then
follow from the factorization of P, without enumerating a level
(`_KernelModule`).  Reading a level's elements still enumerates it.  An
additive table rule is read as the linear rule it is (`automata.as_laurent`),
so it takes the same paths.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

from .automata import CellularAutomaton, as_laurent, compose, letters
from .automata import letter_arithmetic, matrix_terms
from .automata import NotAlgebraicError  # noqa: F401  (importable from here too)
from .configs import PeriodicConfig, Word
from .groups import (
    CapExceeded,
    Element,
    GroupSpec,
    Subgroup,
    _gl_order,
    _gl_primes,
    _is_prime,
    closure_set,
    enumerate_subgroups,
)
from .modular import MAX_FACTOR_DEGREE, _dense_pow, _scalar_coeffs, _x_order, factor_mod_p

DEFAULT_KERNEL_CAP = 1 << 16
DEFAULT_M_MAX = 4


class InfiniteKernelError(ValueError):
    """The kernel has infinitely many periodic points and cannot be listed."""


def kernel_elements(
    F: CellularAutomaton, n: int, cap: int = DEFAULT_KERNEL_CAP
) -> list[PeriodicConfig]:
    """All periodic configurations annihilated by the n-th iterate of F.

    Complete whenever the kernel is finite (always, for bipermutative
    algebraic rules, with exactly |A|^((s-r)n) elements); raises
    InfiniteKernelError when the zero-window graph has branching cycles.
    The levels below n are enumerated on the way, in a `KernelTower`.
    """
    return list(KernelTower(F, cap).level(n).elements)


def _zero_windows(G: CellularAutomaton) -> list[list[int]]:
    """The de Bruijn graph of the zero-windows of the linear rule G, given on
    its smallest neighborhood of width k+1, over letter indices
    (`automata.letter_arithmetic`): for the vertex u of A^k with base-|A|
    code v (first letter most significant), the letters a in index order with
    G(u a) = 0, each an edge to (u a)[1:], the vertex with code v|A| + a
    modulo |A|^k.

    G is additive, so G(w) is the sum over positions i of the letter map of
    G's matrix term at offset r + i applied to w_i.  The sum of the first k
    columns is built for every vertex by a prefix sweep, one table addition
    per new prefix; the letters a extending a vertex are those whose last
    column cancels that sum.
    """
    r, s = G.neighborhood
    index, plus, maps = letter_arithmetic(G.alphabet, matrix_terms(G))
    zero = index[G.alphabet.zero]
    vanishing = (zero,) * len(plus)
    columns = [maps.get(u, vanishing) for u in range(r, s + 1)]
    # cancels[g]: the letters a whose last-column image is -g
    cancels: list[list[int]] = [[] for _ in plus]
    for a, image in enumerate(columns[-1]):
        cancels[plus[image].index(zero)].append(a)
    sums = [zero]
    for column in columns[:-1]:
        sums = [row[image] for row in map(plus.__getitem__, sums) for image in column]
    return [cancels[total] for total in sums]


def _core(G: CellularAutomaton) -> dict[int, list[int]]:
    """The core of the zero-window graph of the linear rule G on its
    smallest neighborhood (`_zero_windows`): the vertices left after
    dropping, until none remain, those with no successor or no predecessor
    left, each with its letters into the core.  The kernel of G is the set
    of the core's bi-infinite paths."""
    follow = _zero_windows(G)
    q, vertices = G.alphabet.order, len(follow)
    succ = [[(u * q + a) % vertices for a in nxt] for u, nxt in enumerate(follow)]
    live, kept = None, set(range(vertices))
    while kept != live:
        live = kept
        entered = {v for u in live for v in succ[u]} & live
        kept = {u for u in entered if not live.isdisjoint(succ[u])}
    return {u: [a for a, v in zip(follow[u], succ[u]) if v in live]
            for u in range(vertices) if u in live}


def _annihilated(G: CellularAutomaton, cap: int) -> list[PeriodicConfig]:
    """The periodic kernel of the linear rule G: the cycles of the core of
    its zero-window graph (`_core`).  The kernel is a group shift, so it is
    finite exactly when the core is a union of disjoint cycles.  A core
    vertex with two letters gives two kernel points that agree on a left
    half-line, so the kernel is infinite, and an infinite group shift has a
    full shift factor (Kitchens 1987): infinitely many periodic points."""
    G = G.smallest_neighborhood()
    alphabet = G.alphabet
    q, k = alphabet.order, G.width - 1
    vertices = q**k
    if vertices > cap:
        raise CapExceeded(f"kernel seed space |A|^{k} exceeds cap {cap}")
    core = _core(G)
    if any(len(nxt) != 1 for nxt in core.values()):
        raise InfiniteKernelError(
            "pointwise rule with nontrivial letter kernel: kernel is a full shift" if k == 0
            else "zero-window graph has a branching recurrent component; the kernel is infinite"
        )
    abc = letters(alphabet)
    out: list[PeriodicConfig] = []
    while core:
        u = start = next(iter(core))
        cycle_letters = []
        while True:
            (a,) = core.pop(u)
            cycle_letters.append(abc[a])
            u = (u * q + a) % vertices
            if u == start:
                break
        L = len(cycle_letters)
        # letter t of the configuration sits at absolute position k + t along
        # the walk; rotate so position 0 comes first.
        word = tuple(cycle_letters[(i - k) % L] for i in range(L))
        base = PeriodicConfig(alphabet, word)
        if base.period != L:
            raise AssertionError("primitive cycle produced a non-primitive word")
        for t in range(L):
            if len(out) >= cap:
                raise CapExceeded(f"kernel element count exceeds cap {cap}")
            out.append(base.shift(t))
    out.sort(key=lambda c: (c.period, c.word))
    return out


# -- towers -------------------------------------------------------------------


@dataclass(frozen=True)
class KernelLevel:
    elements: tuple[PeriodicConfig, ...]
    period: int

    @property
    def size(self) -> int:
        return len(self.elements)


def _level(elements: Iterable[PeriodicConfig]) -> KernelLevel:
    elements = tuple(elements)
    period = math.lcm(*(x.period for x in elements)) if elements else 1
    return KernelLevel(elements, period)


@dataclass(frozen=True)
class _KernelModule:
    """The kernel levels of a linear rule over Z/p as the modules
    Z/p[x]/(P^n), with P = prod f_i^(e_i) over monic irreducibles f_i
    (`factors`, as pairs (f_i, e_i)).
    """

    p: int
    k: int
    factors: tuple[tuple[tuple[int, ...], int], ...]

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(e for _, e in self.factors)

    @cached_property
    def order(self) -> int:
        """The x-order of P's squarefree part: the lcm of the orders of x
        modulo each f_i (Lidl & Niederreiter, Finite Fields, Thm 3.8-3.9)."""
        return math.lcm(*(_x_order(f, self.p, self.p ** (len(f) - 1) - 1)
                          for f, _ in self.factors))

    def size(self, n: int) -> int:
        return self.p ** (self.k * n)

    def levels_within(self, cap: int) -> int:
        """The deepest level n with size(n) <= cap (0 if none above 0)."""
        n = 0
        while self.size(n + 1) <= cap:
            n += 1
        return n

    def period(self, n: int) -> int:
        """The order of x modulo P^n: `order` times the least power of p
        that is at least n times the largest multiplicity."""
        if n == 0:
            return 1
        power = 1
        while power < n * max(self.multiplicities):
            power *= self.p
        return self.order * power

    @property
    def condition4_m(self) -> int | None:
        """Where the boundary search succeeds.  The subgroup d generates is
        the ideal of gcd(d, P^n), so with one factor f^e it is found at m = 0
        if e = 1 and at m = 1 otherwise; with two or more factors, the
        product of the other factors' full powers fails at every m."""
        if len(self.multiplicities) > 1:
            return None
        return 0 if self.multiplicities[0] == 1 else 1

    @property
    def proper_ideals(self) -> int:
        """Shift-invariant subgroups of level 1 other than 0 and itself: the
        ideals of Z/p[x]/(P), one per monic divisor of P."""
        return math.prod(e + 1 for e in self.multiplicities) - 2


def _kernel_module(F: CellularAutomaton, cap: int) -> _KernelModule | None:
    """The closed form of the kernel tower of the linear rule F: F over a
    prime field, with smallest-neighborhood width k in 1..MAX_FACTOR_DEGREE
    and |A|^k within cap (else level 1 is over the cap anyway).  None for
    every other rule."""
    if F.alphabet.rank != 1:
        return None
    p = F.alphabet.moduli[0]
    r, s = F.smallest_neighborhood().neighborhood
    k = s - r
    if not (1 <= k <= MAX_FACTOR_DEGREE and p**k <= cap and _is_prime(p)):
        return None
    return _KernelModule(p, k, factor_mod_p(F).factors)


class KernelTower:
    """The kernel levels ker F^n of one automaton, n = 0, 1, ...

    Level n is enumerated on its first request, from F^n composed as F^(n-1)
    then F, and kept; so is its window code for the density criteria.  F is
    composed in its linear form (`rule`), so a table rule is never composed
    as a table.  Sizes and periods come from `module` when that form has a
    closed form.  `depth` is the deepest level computed so far.  A tower
    made by `restrict` holds levels filtered by a subgroup shift (`sigma`):
    it cannot grow, and the density criteria refuse it.
    """

    def __init__(self, automaton: CellularAutomaton, cap: int = DEFAULT_KERNEL_CAP) -> None:
        self.automaton = automaton
        self.cap = cap
        self.sigma: SubgroupShiftSpec | None = None
        self._levels: list[KernelLevel] = []
        self._closed_depth = -1  # deepest level whose size `module` gave
        self._coded: dict[int, _CodedLevel] = {}
        self._power: CellularAutomaton | None = None  # F^depth, for depth >= 1

    @cached_property
    def rule(self) -> CellularAutomaton:
        """The linear form of the automaton; raises NotAlgebraicError if it
        has none."""
        return as_laurent(self.automaton)

    @cached_property
    def module(self) -> _KernelModule | None:
        """The closed form of the unrestricted levels, if the rule has one."""
        return None if self.sigma is not None else _kernel_module(self.rule, self.cap)

    @property
    def depth(self) -> int:
        return max(len(self._levels) - 1, self._closed_depth)

    def level(self, n: int) -> KernelLevel:
        if n < 0:
            raise ValueError("kernel level must be >= 0")
        while len(self._levels) <= n:
            if self.sigma is not None:
                raise ValueError(f"a restricted tower holds levels 0..{self.depth} only")
            if not self._levels:
                elements = [PeriodicConfig.zero(self.rule.alphabet)]
            else:
                Fn = self.rule if self._power is None else compose(self._power, self.rule)
                elements = _annihilated(Fn, self.cap)
                self._power = Fn
            self._levels.append(_level(elements))
        return self._levels[n]

    def _reach(self, n: int) -> _KernelModule:
        """`module`, once levels up to n pass the cap that enumerating them
        would check, in the same order and with the same error."""
        if n < 0:
            raise ValueError("kernel level must be >= 0")
        module = self.module
        for m in range(self._closed_depth + 1, n + 1):
            if module.size(m) > self.cap:
                raise CapExceeded(
                    f"kernel seed space |A|^{module.k * m} exceeds cap {self.cap}"
                )
            self._closed_depth = m
        return module

    def size(self, n: int) -> int:
        if self.module is None:
            return self.level(n).size
        return self._reach(n).size(n)

    def period(self, n: int) -> int:
        """p_n, the smallest common shift period of level n."""
        if self.module is None:
            return self.level(n).period
        return self._reach(n).period(n)

    def restricted_level(self, n: int, sigma: SubgroupShiftSpec | None) -> KernelLevel:
        """The elements of level n that lie in sigma (None: the full shift)."""
        sigma = subgroup_shift_on(sigma, self.automaton.alphabet)
        if isinstance(sigma, FullShift):
            return self.level(n)
        return _level(x for x in self.level(n).elements if sigma.contains(x))

    def coded(self, n: int) -> _CodedLevel:
        """Level n with its window code, made once."""
        if n not in self._coded:
            self._coded[n] = _CodedLevel(self.rule, self.level(n).elements)
        return self._coded[n]


def tower(F: CellularAutomaton, N: int, cap: int = DEFAULT_KERNEL_CAP) -> KernelTower:
    """Kernel tower with levels 0..N, with the structural invariants checked:
    nesting, the size law for bipermutative rules, and period divisibility.

    On the closed form, nesting holds by construction, and the periods must
    also satisfy p_n | |A|^k p_(n-1) for n >= 2."""
    if N < 0:
        raise ValueError(f"kernel tower depth must be >= 0, got {N}")
    tw = KernelTower(F, cap)
    sizes = [tw.size(n) for n in range(N + 1)]
    periods = [tw.period(n) for n in range(N + 1)]
    small = tw.rule.smallest_neighborhood()
    bipermutative = small.permutativity().bipermutative
    width = small.neighborhood[1] - small.neighborhood[0]
    prev: set[PeriodicConfig] = set()
    for n in range(N + 1):
        if tw.module is None:
            members = set(tw.level(n).elements)
            if not prev <= members:
                raise AssertionError(f"kernel level {n} does not contain level {n - 1}")
            prev = members
        if bipermutative and sizes[n] != F.alphabet.order ** (width * n):
            raise AssertionError(f"kernel level {n} violates the size law")
        if n >= 1 and periods[n] % periods[n - 1] != 0:
            raise AssertionError(f"period p_{n} not a multiple of p_{n - 1}")
        if tw.module is not None and n >= 2 and (
            F.alphabet.order**width * periods[n - 1] % periods[n] != 0
        ):
            raise AssertionError(f"period p_{n} does not divide |A|^{width} p_{n - 1}")
    return tw


def boundary(tw: KernelTower, n: int) -> tuple[PeriodicConfig, ...]:
    """Level n minus level n-1 (n >= 1)."""
    if not 1 <= n <= tw.depth:
        raise ValueError(f"boundary level {n} not in computed range 1..{tw.depth}")
    lower = set(tw.level(n - 1).elements)
    return tuple(x for x in tw.level(n).elements if x not in lower)


# -- subgroup shifts -----------------------------------------------------------


@dataclass(frozen=True)
class FullShift:
    """The whole configuration space, as a trivial subgroup-shift filter."""

    alphabet: GroupSpec

    def contains(self, x: PeriodicConfig) -> bool:
        return x.alphabet == self.alphabet

    def describe(self) -> str:
        return f"full shift over {self.alphabet}"


@dataclass(frozen=True)
class ProductSubgroup:
    """Configurations whose aligned t-blocks all lie in a fixed block subgroup.

    Membership constrains the blocks starting at positions congruent to
    `phase` modulo the grouping length.
    """

    alphabet: GroupSpec
    grouping: int
    block: Subgroup
    phase: int = 0

    def __post_init__(self) -> None:
        if self.grouping < 1:
            raise ValueError("grouping length must be >= 1")
        if self.block.ambient != self.alphabet.power(self.grouping):
            raise ValueError("block subgroup must live in the grouped alphabet")
        object.__setattr__(self, "phase", self.phase % self.grouping)

    def contains(self, x: PeriodicConfig) -> bool:
        if x.alphabet != self.alphabet:
            return False
        t = self.grouping
        span = math.lcm(x.period, t)
        for start in range(self.phase, self.phase + span, t):
            if _flat(x.window(start, t)) not in self.block:
                return False
        return True

    def shifted(self, m: int) -> "ProductSubgroup":
        """The image under the m-th shift power (blocks move back by m)."""
        return ProductSubgroup(self.alphabet, self.grouping, self.block,
                               self.phase - m)

    def describe(self) -> str:
        return (
            f"t={self.grouping} blocks from a {len(self.block)}-element subgroup"
            f" at phase {self.phase} over {self.alphabet}"
        )


@dataclass(frozen=True)
class LinearKernelShift:
    """The kernel of a linear CA, as a closed shift-invariant subgroup."""

    automaton: CellularAutomaton

    def __post_init__(self) -> None:
        if not self.automaton.is_linear:
            raise ValueError("kernel shift needs a linear rule")

    @property
    def alphabet(self) -> GroupSpec:
        return self.automaton.alphabet

    def contains(self, x: PeriodicConfig) -> bool:
        return x.alphabet == self.alphabet and set(self._rule(x.word)) == {self.alphabet.zero}

    @cached_property
    def _rule(self) -> Callable[[Word], Word]:
        return _periodic_rule(self.automaton)

    @cached_property
    def core(self) -> dict[Word, list[Element]]:
        """The core of the rule's zero-window graph (`_core`), each vertex
        word with its letters into the core.  The kernel is the set of the
        core's bi-infinite paths; it is a group, so every core vertex has as
        many letters as the zero vertex."""
        small = self.automaton.smallest_neighborhood()
        abc = letters(self.alphabet)
        words = list(itertools.product(abc, repeat=small.width - 1))
        return {words[u]: [abc[a] for a in nxt] for u, nxt in _core(small).items()}

    def language(self, length: int) -> list[Word]:
        """The words of `length` letters of the kernel, each once: the
        windows of the core's paths.  Haar measure is uniform on them, as
        on the image of the kernel under restriction to a window."""
        core = self.core
        k = len(next(iter(core)))
        words = list(core) if length >= k else list(dict.fromkeys(u[:length] for u in core))
        for _ in range(length - k):
            words = [w + (a,) for w in words for a in core[w[len(w) - k:]]]
        return words

    def describe(self) -> str:
        return f"kernel of {self.automaton.describe()}"


SubgroupShiftSpec = FullShift | ProductSubgroup | LinearKernelShift


def subgroup_shift_on(
    sigma: SubgroupShiftSpec | None, alphabet: GroupSpec
) -> SubgroupShiftSpec:
    """sigma, or the full shift when it is None, checked to live over alphabet."""
    if sigma is None:
        return FullShift(alphabet)
    if sigma.alphabet != alphabet:
        raise ValueError(
            f"alphabet mismatch: sigma is a subgroup shift over {sigma.alphabet},"
            f" not over {alphabet}"
        )
    return sigma


def restrict(tw: KernelTower, sigma: SubgroupShiftSpec) -> KernelTower:
    """Filter every computed tower level by membership in the subgroup shift.

    The result keeps tw's depth and is refused by the density criteria,
    which need unrestricted levels.
    """
    if isinstance(subgroup_shift_on(sigma, tw.automaton.alphabet), FullShift):
        return tw
    out = KernelTower(tw.automaton, tw.cap)
    out._levels = [tw.restricted_level(n, sigma) for n in range(tw.depth + 1)]
    out.sigma = sigma
    return out


# -- density criteria ----------------------------------------------------------


class _CodedLevel:
    """One unrestricted kernel level, coded by a window of its elements.

    A level is a finite subgroup closed under the shift and the rule, and
    x -> x.window(0, l) is a homomorphism.  At the smallest l where the
    windows are distinct it is an isomorphism onto its image in A^l, so
    subgroups are closed over short residue tuples, with the shift and the
    rule tabulated on the codes.  Codes are slices of the elements' repeating
    words: the shift's code of x is x's window at 1.  A level is a union of
    whole shift orbits and the rule commutes with the shift, so the rule
    (`_periodic_rule` of F's linear form) is applied once per orbit, to one
    element x, and F(shift^t x) is coded by the window of F(x) at t.
    """

    def __init__(self, F: CellularAutomaton, elements: tuple[PeriodicConfig, ...]) -> None:
        size = len(elements)
        ell = 1
        while F.alphabet.order**ell < size or len(
            {_windows(x.word, ell)[0] for x in elements}
        ) < size:
            ell += 1
        self.ell = ell
        self.group = F.alphabet.power(ell)
        self.shift: dict[Element, Element] = {}
        self.rule: dict[Element, Element] = {}
        rule = _periodic_rule(F)
        for x in elements:
            if self.code(x) not in self.rule:
                codes = _windows(x.word, ell, x.period)
                self.shift.update(zip(codes, codes[1:] + codes[:1]))
                self.rule.update(zip(codes, _windows(rule(x.word), ell, x.period)))

    def code(self, x: PeriodicConfig) -> Element:
        return _windows(x.word, self.ell)[0]

    def generated(self, seed: Element, cap: int) -> frozenset[Element]:
        """Codes of the subgroup that seed generates under shift and rule.

        Both operators are homomorphisms, so closing the generators under
        them suffices (`additive_operators`).
        """
        group = self.group
        return closure_set(
            [seed], group.add, group.zero,
            operators=[self.shift.__getitem__, self.rule.__getitem__],
            cap=cap,
            additive_operators=True,
        )

    def generates(self, target: set[Element], seeds: Iterable[Element],
                  cap: int) -> dict[Element, bool]:
        """Whether each seed generates a subgroup containing target.  Every
        shift of a seed generates the same subgroup, so a shift orbit shares
        one closure; the verdicts of the whole orbit are returned too."""
        verdicts: dict[Element, bool] = {}
        for c in seeds:
            if c not in verdicts:
                ok = target <= self.generated(c, cap)
                while c not in verdicts:
                    verdicts[c] = ok
                    c = self.shift[c]
        return verdicts


def _flat(word: Word) -> Element:
    return tuple(itertools.chain.from_iterable(word))


def _windows(word: Word, ell: int, count: int = 1) -> list[Element]:
    """The flat windows of length ell at 0, ..., count - 1 of the periodic
    configuration with this repeating word."""
    rank, span = len(word[0]), count + ell - 1
    flat = _flat((word * -(-span // len(word)))[:span])
    return [flat[t * rank:(t + ell) * rank] for t in range(count)]


def _periodic_rule(F: CellularAutomaton) -> Callable[[Word], Word]:
    """The linear rule F on periodic configurations, by repeating words: the
    word of F(x) over one period of x, summed from the letter maps of F's
    matrix terms (`automata.letter_arithmetic`) on rotations of x's word."""
    index, plus, maps = letter_arithmetic(F.alphabet, matrix_terms(F))
    abc = letters(F.alphabet)
    zero = index[F.alphabet.zero]

    def apply(word: Word) -> Word:
        x = [index[a] for a in word]
        out = [zero] * len(x)
        for u, m in maps.items():
            u %= len(x)
            out = [plus[a][m[b]] for a, b in zip(out, x[u:] + x[:u])]
        return tuple(map(abc.__getitem__, out))

    return apply


@dataclass(frozen=True)
class Condition4Result:
    """Smallest level offset m at which every fresh boundary element generates
    the first kernel level under the rule and the shift."""

    found: bool
    m: int | None
    m_max: int
    failures: tuple[PeriodicConfig, ...] = ()

    def __bool__(self) -> bool:
        return self.found


def _unrestricted(
    F: CellularAutomaton | KernelTower, cap: int = DEFAULT_KERNEL_CAP
) -> KernelTower:
    """F itself when it is a kernel tower, which must not come from
    `restrict`; otherwise a new tower of F, enumerating under cap."""
    tw = F if isinstance(F, KernelTower) else KernelTower(F, cap)
    if tw.sigma is not None:
        raise ValueError("the density criteria need unrestricted kernel levels, "
                         f"not levels restricted to {tw.sigma.describe()}")
    return tw


def condition4_search(
    F: CellularAutomaton | KernelTower,
    sigma: SubgroupShiftSpec | None = None,
    m_max: int = DEFAULT_M_MAX,
    cap: int = DEFAULT_KERNEL_CAP,
) -> Condition4Result:
    """Search m such that every d in the (m+1)-th boundary generates a
    subgroup (closed under rule and shift) containing the whole first level.

    F may be a kernel tower, whose levels are read and extended under its own
    cap; `cap` then bounds each closure only.  On a tower with a closed form
    and the full shift, a found m is read off the factorization.  Otherwise
    the search fails at every m up to m_max, and only m = m_max, where the
    failures are taken, is enumerated.  Where a closure could exceed `cap`,
    every m is enumerated as on any other tower."""
    if m_max < 0:
        raise ValueError(f"m_max must be >= 0, got {m_max}")
    tw = _unrestricted(F, cap)
    sigma = subgroup_shift_on(sigma, tw.automaton.alphabet)
    module = tw.module if isinstance(sigma, FullShift) else None
    start = 0
    if module is not None:
        m = module.condition4_m
        found = m is not None and m <= m_max
        last = m + 1 if found else m_max + 1  # the deepest level the search reads
        if min(last, module.levels_within(tw.cap)) <= module.levels_within(cap):
            tw.size(last)  # the cap checks of the levels the search reads
            if found:
                return Condition4Result(True, m, m_max)
            start = m_max
    d1 = tw.restricted_level(1, sigma).elements
    lower = set(tw.level(start).elements)
    failures: list[PeriodicConfig] = []
    for m in range(start, m_max + 1):
        lvl = tw.coded(m + 1)
        fresh = [d for d in tw.restricted_level(m + 1, sigma).elements if d not in lower]
        verdicts = lvl.generates({lvl.code(x) for x in d1},
                                 (lvl.code(d) for d in fresh), cap)
        failures = [d for d in fresh if not verdicts[lvl.code(d)]]
        if not failures:
            return Condition4Result(True, m, m_max)
        lower = set(tw.level(m + 1).elements)
    return Condition4Result(False, None, m_max, tuple(failures))


@dataclass(frozen=True)
class CorollaryKerResult:
    """Whether the first restricted kernel level has no proper nontrivial
    shift-invariant subgroup, plus per-boundary-element generation data."""

    holds: bool
    proper_invariant_subgroups: int
    boundary_generates: tuple[tuple[PeriodicConfig, bool], ...]

    def __bool__(self) -> bool:
        return self.holds


def corollary_ker_check(
    F: CellularAutomaton | KernelTower,
    sigma: SubgroupShiftSpec | None = None,
    cap: int = DEFAULT_KERNEL_CAP,
) -> CorollaryKerResult:
    """F may be a kernel tower, as in `condition4_search`.  On a tower with a
    closed form and the full shift, the invariant subgroups are counted from
    the factorization instead of enumerated."""
    tw = _unrestricted(F, cap)
    sigma = subgroup_shift_on(sigma, tw.automaton.alphabet)
    d1 = tw.restricted_level(1, sigma).elements
    lvl = tw.coded(1)
    codes = [lvl.code(x) for x in d1]
    if isinstance(sigma, FullShift) and tw.module is not None and len(d1) <= cap:
        proper = tw.module.proper_ideals
    else:
        subs = enumerate_subgroups(
            Subgroup(lvl.group, tuple(codes)), [lvl.shift.__getitem__], cap=cap
        )
        proper = sum(1 for s in subs if 1 < len(s) < len(d1))
    nonzero = [(d, c) for d, c in zip(d1, codes) if not d.is_zero]
    verdicts = lvl.generates(set(codes), (c for _, c in nonzero), cap)
    gen_data = tuple((d, verdicts[c]) for d, c in nonzero)
    return CorollaryKerResult(proper == 0, proper, gen_data)


# -- the companion recurrence ---------------------------------------------------


@dataclass(frozen=True)
class KernelRecurrence:
    """Companion matrix driving state vectors of first-level kernel elements.

    For a linear rule with invertible extreme coefficients, consecutive
    windows of width s-r satisfy a first order vector recurrence; the matrix
    order therefore bounds every element's shift period.
    """

    modulus: int
    matrix: tuple[tuple[int, ...], ...]

    @property
    def width(self) -> int:
        return len(self.matrix)

    def step(self, state: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(
            sum(m * x for m, x in zip(row, state)) % self.modulus
            for row in self.matrix
        )

    def matrix_order(self) -> int:
        """Multiplicative order of the companion matrix.

        The matrix is multiplication by x on the free module Z/m[x]/(P), for
        the monic P = x^k - sum_j matrix[0][j] x^(k-1-j) whose constant term
        is a unit, so its order is the order of x modulo P.  That order
        divides |GL_k(Z/m)|, whose prime factors `_x_order` divides out;
        they come from the factors p^i - 1 of that product, one at a time.
        """
        m, k = self.modulus, self.width
        f = tuple(-c % m for c in reversed(self.matrix[0])) + (1,)
        order = _x_order(f, m, _gl_order(m, k), _gl_primes(m, k))
        if _dense_pow((0, 1), order, m, f) != (1,):
            raise AssertionError("order reduction failed")
        return order

    def orbit_period(self, state: tuple[int, ...]) -> int:
        """Period of a state under the recurrence (orbits are purely periodic
        because the matrix is invertible)."""
        cur = self.step(state)
        t = 1
        while cur != state:
            cur = self.step(cur)
            t += 1
        return t


def recurrence_matrix(F: CellularAutomaton) -> KernelRecurrence:
    """Companion matrix of the first-level kernel recurrence.

    Needs a rule on a cyclic alphabet whose linear form (`as_laurent`) has
    invertible extreme coefficients (bipermutativity on cyclic alphabets).
    """
    small = F.smallest_neighborhood()
    scalars = _scalar_coeffs(small)
    d = small.alphabet.moduli[0]
    r, s = small.neighborhood
    w = s - r
    if w < 1:
        raise ValueError("trivial rule has no kernel recurrence")
    coeffs = [scalars.get(r + i, 0) for i in range(w + 1)]
    if math.gcd(coeffs[0], d) != 1 or math.gcd(coeffs[-1], d) != 1:
        raise ValueError("extreme coefficients must be invertible")
    inv_top = pow(coeffs[-1], -1, d)
    first_row = tuple((-coeffs[w - 1 - j] * inv_top) % d for j in range(w))
    rows = [first_row]
    for i in range(w - 1):
        rows.append(tuple(1 if j == i else 0 for j in range(w)))
    return KernelRecurrence(d, tuple(rows))
