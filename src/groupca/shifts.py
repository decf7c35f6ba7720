"""Subgroup shifts: the full shift, product subgroups and kernel shifts.

These are the shift-invariant subgroups that filter kernel levels (`kernels`)
and carry Haar measure (`measures`).  A kernel shift is read from the de
Bruijn graph of its rule's zero-windows, built on letter indices from the
letter map of each window column and one table addition per vertex
(`automata.letter_arithmetic`, as in `measures` and `entropy`); its core is
also the graph whose cycles are a kernel level.  The module needs only
`groups` and `automata`, so measures load without `kernels`.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import TYPE_CHECKING, Callable

from .automata import CellularAutomaton, letter_arithmetic, letters, matrix_terms
from .groups import Element, GroupSpec, Subgroup, Word, _setfield, record

if TYPE_CHECKING:
    from .configs import PeriodicConfig


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


def _flat(word: Word) -> Element:
    return tuple(itertools.chain.from_iterable(word))


@record
class FullShift:
    """The whole configuration space, as a trivial subgroup-shift filter."""

    alphabet: GroupSpec

    def contains(self, x: PeriodicConfig) -> bool:
        return x.alphabet == self.alphabet

    def describe(self) -> str:
        return f"full shift over {self.alphabet}"


@record
class ProductSubgroup:
    """Configurations whose aligned t-blocks all lie in a fixed block subgroup.

    Membership constrains the blocks starting at positions congruent to
    `phase` modulo the grouping length.
    """

    alphabet: GroupSpec
    grouping: int
    block: Subgroup
    phase: int

    def __init__(self, alphabet: GroupSpec, grouping: int, block: Subgroup,
                 phase: int = 0) -> None:
        if grouping < 1:
            raise ValueError("grouping length must be >= 1")
        if block.ambient != alphabet.power(grouping):
            raise ValueError("block subgroup must live in the grouped alphabet")
        _setfield(self, "alphabet", alphabet)
        _setfield(self, "grouping", grouping)
        _setfield(self, "block", block)
        _setfield(self, "phase", phase % grouping)

    def contains(self, x: PeriodicConfig) -> bool:
        if x.alphabet != self.alphabet:
            return False
        t = self.grouping
        span = math.lcm(x.period, t)
        for start in range(self.phase, self.phase + span, t):
            if _flat(x.window(start, t)) not in self.block:
                return False
        return True

    @cached_property
    def shift_period(self) -> int:
        """The least d dividing the grouping t for which the block is the
        (t/d)-fold product of its projection P onto its first d letters:
        |P|^(t/d) elements, every d-letter chunk in P.  This is then the
        product subgroup of grouping d with block P, so sigma^d fixes it and
        its Haar measure."""
        t, k, elements = self.grouping, self.alphabet.rank, self.block.elements
        for d in range(1, t):
            if t % d == 0:
                size = d * k
                head = {b[:size] for b in elements}
                if len(head) ** (t // d) == len(elements) and all(
                        b[i : i + size] in head for b in elements for i in range(size, t * k, size)):
                    return d
        return t

    def shifted(self, m: int) -> "ProductSubgroup":
        """The image under the m-th shift power (blocks move back by m)."""
        return ProductSubgroup(self.alphabet, self.grouping, self.block,
                               self.phase - m)

    def describe(self) -> str:
        return (
            f"t={self.grouping} blocks from a {len(self.block)}-element subgroup"
            f" at phase {self.phase} over {self.alphabet}"
        )


@record
class LinearKernelShift:
    """The kernel of a linear CA, as a closed shift-invariant subgroup."""

    automaton: CellularAutomaton

    def __init__(self, automaton: CellularAutomaton) -> None:
        if not automaton.is_linear:
            raise ValueError("kernel shift needs a linear rule")
        _setfield(self, "automaton", automaton)

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
