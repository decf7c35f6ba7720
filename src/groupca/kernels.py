"""Kernel towers of algebraic cellular automata and the density criteria.

The n-th level is the set of periodic configurations annihilated by the n-th
iterate.  Elements are enumerated as cycles of the overlap (de Bruijn) graph
whose edges are the zero-windows of the iterated rule: for a bipermutative
rule that graph is a permutation, and in general the recurrent part must
decompose into disjoint cycles for the kernel to be finite.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .automata import CellularAutomaton, letters, power
from .configs import PeriodicConfig, Word
from .groups import CapExceeded, Element, GroupSpec, Subgroup, closure_set

DEFAULT_KERNEL_CAP = 1 << 16
DEFAULT_M_MAX = 4


class InfiniteKernelError(ValueError):
    """The kernel has infinitely many periodic points and cannot be listed."""


class NotAlgebraicError(ValueError):
    """Kernel computations need a rule that is a group endomorphism."""


def _require_algebraic(F: CellularAutomaton) -> CellularAutomaton:
    """Return an endomorphism form of F, or raise.

    Linear rules pass through; affine rules must have zero constant; table
    rules are verified to be homomorphisms window by window.
    """
    if F.coeffs is not None:
        if F.constant is not None and F.constant != F.alphabet.zero:
            raise NotAlgebraicError(
                "affine rule with nonzero constant has no kernel tower"
            )
        return CellularAutomaton(F.alphabet, F.neighborhood, coeffs=F.coeffs)
    zero = F.alphabet.zero
    width = F.width
    zero_window = (zero,) * width
    if F.table[zero_window] != zero:
        raise NotAlgebraicError("table rule does not map the zero window to zero")
    windows = list(F.table)
    for u in windows:
        fu = F.table[u]
        for v in windows:
            s = tuple(F.alphabet.add(a, b) for a, b in zip(u, v))
            if F.table[s] != F.alphabet.add(fu, F.table[v]):
                raise NotAlgebraicError(
                    f"table rule is not additive at windows {u} + {v}"
                )
    return F


def _strongly_connected_components(graph: dict) -> list[list]:
    """Tarjan's algorithm, iterative to cope with long cycles."""
    index: dict = {}
    low: dict = {}
    onstack: set = set()
    stack: list = []
    components: list[list] = []
    counter = itertools.count()
    for root in graph:
        if root in index:
            continue
        index[root] = low[root] = next(counter)
        stack.append(root)
        onstack.add(root)
        work = [(root, iter(graph[root]))]
        while work:
            v, children = work[-1]
            descended = False
            for w in children:
                if w not in index:
                    index[w] = low[w] = next(counter)
                    stack.append(w)
                    onstack.add(w)
                    work.append((w, iter(graph[w])))
                    descended = True
                    break
                if w in onstack:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                components.append(comp)
    return components


def kernel_elements(
    F: CellularAutomaton, n: int, cap: int = DEFAULT_KERNEL_CAP
) -> list[PeriodicConfig]:
    """All periodic configurations annihilated by the n-th iterate of F.

    Complete whenever the kernel is finite (always, for bipermutative
    algebraic rules, with exactly |A|^((s-r)n) elements); raises
    InfiniteKernelError when the zero-window graph has branching cycles.
    """
    F = _require_algebraic(F)
    alphabet = F.alphabet
    if n < 0:
        raise ValueError("kernel level must be >= 0")
    if n == 0:
        return [PeriodicConfig.zero(alphabet)]
    G = power(F, n).smallest_neighborhood()
    k = G.width - 1
    abc = letters(alphabet)
    if len(abc) ** k > cap:
        raise CapExceeded(f"kernel seed space |A|^{k} exceeds cap {cap}")
    zero = alphabet.zero

    if k == 0:
        roots = [a for a in abc if G.local((a,)) == zero]
        if roots != [zero]:
            raise InfiniteKernelError(
                "pointwise rule with nontrivial letter kernel: kernel is a full shift"
            )
        return [PeriodicConfig.zero(alphabet)]

    graph: dict[Word, list[Word]] = {}
    for u in itertools.product(abc, repeat=k):
        succs = [u[1:] + (a,) for a in abc if G.local(u + (a,)) == zero]
        graph[u] = succs

    out: list[PeriodicConfig] = []
    for comp in _strongly_connected_components(graph):
        members = set(comp)
        internal = {u: [v for v in graph[u] if v in members] for u in comp}
        if len(comp) == 1:
            u = comp[0]
            if u not in internal[u]:
                continue  # transient vertex
        if any(len(vs) != 1 for vs in internal.values()):
            raise InfiniteKernelError(
                "zero-window graph has a branching recurrent component; "
                "the kernel is infinite"
            )
        start = comp[0]
        cycle_letters = []
        v = start
        while True:
            nxt = internal[v][0]
            cycle_letters.append(nxt[-1])
            v = nxt
            if v == start:
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


@dataclass(frozen=True)
class KernelTower:
    automaton: CellularAutomaton
    levels: tuple[KernelLevel, ...]

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def level(self, n: int) -> KernelLevel:
        return self.levels[n]

    def size(self, n: int) -> int:
        return self.levels[n].size

    def period(self, n: int) -> int:
        """p_n, the smallest common shift period of level n."""
        return self.levels[n].period

    def boundary(self, n: int) -> tuple[PeriodicConfig, ...]:
        return boundary(self, n)


def _common_period(elements: Iterable[PeriodicConfig]) -> int:
    return math.lcm(*(x.period for x in elements)) if elements else 1


def tower(F: CellularAutomaton, N: int, cap: int = DEFAULT_KERNEL_CAP) -> KernelTower:
    """Kernel tower with levels 0..N, with the structural invariants checked:
    nesting, the size law for bipermutative rules, and period divisibility."""
    levels = []
    for n in range(N + 1):
        elems = kernel_elements(F, n, cap)
        levels.append(KernelLevel(tuple(elems), _common_period(elems)))
    small = F.smallest_neighborhood()
    bipermutative = small.permutativity().bipermutative
    width = small.neighborhood[1] - small.neighborhood[0]
    prev: set[PeriodicConfig] = set()
    for n, lvl in enumerate(levels):
        members = set(lvl.elements)
        if not prev <= members:
            raise AssertionError(f"kernel level {n} does not contain level {n - 1}")
        if bipermutative and lvl.size != F.alphabet.order ** (width * n):
            raise AssertionError(f"kernel level {n} violates the size law")
        if n >= 1 and lvl.period % levels[n - 1].period != 0:
            raise AssertionError(f"period p_{n} not a multiple of p_{n - 1}")
        prev = members
    return KernelTower(F, tuple(levels))


def boundary(tw: KernelTower, n: int) -> tuple[PeriodicConfig, ...]:
    """Level n minus level n-1 (n >= 1)."""
    if not 1 <= n <= tw.depth:
        raise ValueError(f"boundary level {n} not in computed range 1..{tw.depth}")
    lower = set(tw.levels[n - 1].elements)
    return tuple(x for x in tw.levels[n].elements if x not in lower)


# -- subgroup shifts -----------------------------------------------------------


@dataclass(frozen=True)
class FullShift:
    """The whole configuration space, as a trivial subgroup-shift filter."""

    alphabet: GroupSpec

    def contains(self, x: PeriodicConfig) -> bool:
        return x.alphabet == self.alphabet

    def admissible_words(self, offset: int, length: int) -> set[Word]:
        return set(itertools.product(letters(self.alphabet), repeat=length))

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

    def _block_of(self, word: Word) -> Element:
        return tuple(c for letter in word for c in letter)

    def contains(self, x: PeriodicConfig) -> bool:
        if x.alphabet != self.alphabet:
            return False
        t = self.grouping
        span = math.lcm(x.period, t)
        for start in range(self.phase, self.phase + span, t):
            if self._block_of(x.window(start, t)) not in self.block:
                return False
        return True

    def admissible_words(self, offset: int, length: int) -> set[Word]:
        t = self.grouping
        first = math.floor((offset - self.phase) / t)
        last = math.floor((offset + length - 1 - self.phase) / t)
        blocks = range(first, last + 1)
        words: set[Word] = set()
        for choice in itertools.product(self.block.elements, repeat=len(blocks)):
            word = []
            for pos in range(offset, offset + length):
                b = (pos - self.phase) // t - first
                j = (pos - self.phase) % t
                k = self.alphabet.rank
                word.append(tuple(choice[b][j * k : (j + 1) * k]))
            words.add(tuple(word))
        return words

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
        return self.automaton.apply_periodic(x).is_zero

    def admissible_words(self, offset: int, length: int) -> set[Word]:
        return set(self.window_counts(length))

    def window_counts(self, length: int) -> Counter:
        """Solutions of the kernel equations on a window padded by the rule
        width on both sides, counted by their middle word of `length` letters.

        The padded window is enumerated once; the counts do not depend on the
        window's position, since the kernel is shift invariant.
        """
        small = self.automaton.smallest_neighborhood()
        pad = small.width - 1
        window = length + 2 * pad
        zero = self.alphabet.zero
        abc = letters(self.alphabet)
        counts: Counter = Counter()

        def extend(prefix: Word) -> None:
            if len(prefix) >= small.width:
                if small.local(prefix[-small.width:]) != zero:
                    return
            if len(prefix) == window:
                counts[prefix[pad : pad + length]] += 1
                return
            for a in abc:
                extend(prefix + (a,))

        extend(())
        return counts

    def describe(self) -> str:
        return f"kernel of {self.automaton.describe()}"


SubgroupShiftSpec = FullShift | ProductSubgroup | LinearKernelShift


def restrict(tw: KernelTower, sigma: SubgroupShiftSpec) -> KernelTower:
    """Filter every tower level by membership in the subgroup shift."""
    if isinstance(sigma, FullShift):
        return tw
    levels = []
    for lvl in tw.levels:
        kept = tuple(x for x in lvl.elements if sigma.contains(x))
        levels.append(KernelLevel(kept, _common_period(kept)))
    return KernelTower(tw.automaton, tuple(levels))


# -- density criteria ----------------------------------------------------------


def _generated_subgroup(
    seeds: Iterable[PeriodicConfig],
    alphabet: GroupSpec,
    operators: Sequence[Callable[[PeriodicConfig], PeriodicConfig]],
    cap: int,
) -> frozenset[PeriodicConfig]:
    # shift powers and algebraic rules are homomorphisms, so operator closure
    # of the generators suffices
    return closure_set(
        seeds,
        add=lambda a, b: a.add(b),
        neg=lambda a: a.neg(),
        zero=PeriodicConfig.zero(alphabet),
        operators=operators,
        cap=cap,
        additive_operators=True,
    )


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


def condition4_search(
    F: CellularAutomaton,
    sigma: SubgroupShiftSpec | None = None,
    m_max: int = DEFAULT_M_MAX,
    cap: int = DEFAULT_KERNEL_CAP,
) -> Condition4Result:
    """Search m such that every d in the (m+1)-th boundary generates a
    subgroup (closed under rule and shift) containing the whole first level."""
    sigma = sigma if sigma is not None else FullShift(F.alphabet)
    ops = [lambda c: c.shift(1), F.apply_periodic]

    def level(n: int) -> set[PeriodicConfig]:
        return {x for x in kernel_elements(F, n, cap) if sigma.contains(x)}

    d1 = level(1)
    prev = d1
    last_failures: tuple[PeriodicConfig, ...] = ()
    for m in range(m_max + 1):
        cur = level(m + 1) if m > 0 else d1
        if m > 0:
            bound = cur - prev
        else:
            bound = cur - {PeriodicConfig.zero(F.alphabet)}
        failures = []
        for d in sorted(bound, key=lambda c: (c.period, c.word)):
            gen = _generated_subgroup([d], F.alphabet, ops, cap)
            if not d1 <= gen:
                failures.append(d)
        if not failures:
            return Condition4Result(True, m, m_max)
        prev = cur
        last_failures = tuple(failures)
    return Condition4Result(False, None, m_max, last_failures)


def _enumerate_closed_subgroups(
    universe: Sequence[PeriodicConfig],
    alphabet: GroupSpec,
    operators: Sequence[Callable[[PeriodicConfig], PeriodicConfig]],
) -> list[frozenset[PeriodicConfig]]:
    cap = len(universe) + 1

    def close(seed: list[PeriodicConfig]) -> frozenset[PeriodicConfig]:
        return _generated_subgroup(seed, alphabet, operators, cap)

    trivial = close([])
    seen = {trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for sub in frontier:
            for g in universe:
                if g in sub:
                    continue
                bigger = close(list(sub) + [g])
                if bigger not in seen:
                    seen.add(bigger)
                    nxt.append(bigger)
        frontier = nxt
    return sorted(seen, key=len)


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
    F: CellularAutomaton,
    sigma: SubgroupShiftSpec | None = None,
    cap: int = DEFAULT_KERNEL_CAP,
) -> CorollaryKerResult:
    sigma = sigma if sigma is not None else FullShift(F.alphabet)
    d1 = [x for x in kernel_elements(F, 1, cap) if sigma.contains(x)]
    subs = _enumerate_closed_subgroups(d1, F.alphabet, [lambda c: c.shift(1)])
    proper = sum(1 for s in subs if 1 < len(s) < len(d1))
    ops = [lambda c: c.shift(1), F.apply_periodic]
    zero = PeriodicConfig.zero(F.alphabet)
    gen_data = []
    full = set(d1)
    for d in d1:
        if d == zero:
            continue
        gen = _generated_subgroup([d], F.alphabet, ops, cap)
        gen_data.append((d, full <= gen))
    return CorollaryKerResult(proper == 0, proper, tuple(gen_data))


# -- the companion recurrence ---------------------------------------------------


def _matmul(a, b, mod: int):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) % mod for j in range(n))
        for i in range(n)
    )


def _matpow(a, e: int, mod: int):
    n = len(a)
    result = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    base = a
    while e:
        if e & 1:
            result = _matmul(result, base, mod)
        base = _matmul(base, base, mod)
        e >>= 1
    return result


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _distinct_primes(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


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

    def matrix_order(self, cap: int = 10_000_000) -> int:
        """Multiplicative order of the companion matrix.

        For a prime modulus the order divides the count of invertible
        matrices, so it is found by dividing out prime factors of that bound;
        otherwise plain iteration with a cap.
        """
        n = self.width
        identity = tuple(
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
        )
        if _is_prime(self.modulus):
            p = self.modulus
            bound = math.prod(p**n - p**i for i in range(n))
            order = bound
            for ell in _distinct_primes(bound):
                while order % ell == 0 and _matpow(self.matrix, order // ell, p) == identity:
                    order //= ell
            if _matpow(self.matrix, order, p) != identity:
                raise AssertionError("order reduction failed")
            return order
        acc = self.matrix
        for t in range(1, cap + 1):
            if acc == identity:
                return t
            acc = _matmul(acc, self.matrix, self.modulus)
        raise CapExceeded(f"matrix order exceeds iteration cap {cap}")

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

    Needs a linear rule on a cyclic alphabet whose extreme coefficients are
    invertible (bipermutativity on cyclic alphabets).
    """
    small = F.smallest_neighborhood()
    if not small.is_linear:
        raise ValueError("recurrence matrix needs a linear rule")
    if small.alphabet.rank != 1:
        raise ValueError("recurrence matrix needs a cyclic alphabet")
    d = small.alphabet.moduli[0]
    r, s = small.neighborhood
    w = s - r
    if w < 1:
        raise ValueError("trivial rule has no kernel recurrence")
    coeffs = [small.coeff(r + i).matrix[0][0] for i in range(w + 1)]
    if math.gcd(coeffs[0], d) != 1 or math.gcd(coeffs[-1], d) != 1:
        raise ValueError("extreme coefficients must be invertible")
    inv_top = pow(coeffs[-1], -1, d)
    first_row = tuple((-coeffs[w - 1 - j] * inv_top) % d for j in range(w))
    rows = [first_row]
    for i in range(w - 1):
        rows.append(tuple(1 if j == i else 0 for j in range(w)))
    return KernelRecurrence(d, tuple(rows))
