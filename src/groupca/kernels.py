"""Kernel towers of algebraic cellular automata and the density criteria.

The n-th level is the set of periodic configurations annihilated by the n-th
iterate.  Elements are enumerated as cycles of the overlap (de Bruijn) graph
whose edges are the zero-windows of the iterated rule: for a bipermutative
rule that graph is a permutation, and in general its core must decompose
into disjoint cycles for the kernel to be finite.  The graph and its core
come from `shifts`, which builds them on letter indices (`shifts._core`), as
it does for a kernel shift.  The density criteria work on a level coded by
short windows of its elements, with the shift and the rule tabulated on the
codes, the rule applied by the same letter maps (`shifts._periodic_rule`).
The subgroup shifts that filter levels live in `shifts` and are importable
from here too.

A linear rule over a prime field Z/p, whose polynomial normalized to P(0) != 0
has degree k, has ker F^n isomorphic to Z/p[x]/(P^n) as a module over the
shift, which acts as x.  Its sizes, periods and both density criteria then
follow from the factorization of P, without enumerating a level
(`_KernelModule`).  Reading a level's elements still enumerates it.  An
additive table rule is read as the linear rule it is (`automata.as_laurent`),
so it takes the same paths.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import TYPE_CHECKING, Iterable

from . import _lazy
from .automata import CellularAutomaton, _poly_pow, as_laurent, compose, letters
from .automata import NotAlgebraicError  # noqa: F401  (importable from here too)
from .groups import (
    CapExceeded,
    Element,
    Subgroup,
    Word,
    _gl_order,
    _gl_primes,
    _is_prime,
    closure_set,
    enumerate_subgroups,
    record,
)
from .shifts import (  # noqa: F401  (the subgroup shifts are importable from here too)
    FullShift,
    LinearKernelShift,
    ProductSubgroup,
    SubgroupShiftSpec,
    _core,
    _flat,
    _periodic_rule,
    subgroup_shift_on,
)

if TYPE_CHECKING:
    from .configs import PeriodicConfig

# executed by the first configuration made, and by the first closed form
# or companion matrix order over a prime field
configs = _lazy("configs")
modular = _lazy("modular")

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
    periodic = configs.PeriodicConfig
    # each element keyed by its letter-index word w read in base q after a
    # leading 1, q^L + sum_i w_i q^(L-1-i): sorted keys list the elements by
    # period, then by word, since `letters` lists the letters in order
    words: dict[int, Word] = {}
    while core:
        u = start = next(iter(core))
        cycle = []
        while True:
            (a,) = core.pop(u)
            cycle.append(a)
            u = (u * q + a) % vertices
            if u == start:
                break
        L = len(cycle)
        if len(words) + L > cap:
            raise CapExceeded(f"kernel element count exceeds cap {cap}")
        # letter t of the configuration sits at absolute position k + t along
        # the walk; rotate so position 0 comes first.
        word = cycle[-k % L:] + cycle[:-k % L]
        base = tuple(map(abc.__getitem__, word))
        if periodic(alphabet, base).period != L:
            raise AssertionError("primitive cycle produced a non-primitive word")
        top, code = q**L, 0
        for a in word:
            code = code * q + a
        for t, a in enumerate(word):
            words[top + code] = base[t:] + base[:t]
            code = code * q - a * (top - 1)  # the word rotated by one letter
    unchecked = periodic._unchecked
    return [unchecked(alphabet, words[c]) for c in sorted(words)]


# -- towers -------------------------------------------------------------------


@record
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


@record
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
        return math.lcm(*(modular._x_order(dict(enumerate(f)), self.p, self.p ** (len(f) - 1) - 1)
                          for f, _ in self.factors))

    def size(self, n: int) -> int:
        return self.p ** (self.k * n)

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
    if not (k >= 1 and p**k <= cap and _is_prime(p) and k <= modular.MAX_FACTOR_DEGREE):
        return None
    return _KernelModule(p, k, modular.factor_mod_p(F).factors)


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
                elements = [configs.PeriodicConfig.zero(self.rule.alphabet)]
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

    def generates(self, target: set[Element], seeds: Iterable[Element],
                  cap: int) -> dict[Element, bool]:
        """Whether each seed generates a subgroup containing target under the
        shift and the rule, both homomorphisms (`closure_set`).  Every shift
        of a seed generates the same subgroup, so a shift orbit shares one
        closure; the verdicts of the whole orbit are returned too."""
        group, ops = self.group, [self.shift.__getitem__, self.rule.__getitem__]
        verdicts: dict[Element, bool] = {}
        for c in seeds:
            if c not in verdicts:
                ok = target <= closure_set([c], group.add, group.zero, ops, cap)
                while c not in verdicts:
                    verdicts[c] = ok
                    c = self.shift[c]
        return verdicts


def _windows(word: Word, ell: int, count: int = 1) -> list[Element]:
    """The flat windows of length ell at 0, ..., count - 1 of the periodic
    configuration with this repeating word."""
    rank, span = len(word[0]), count + ell - 1
    flat = _flat((word * -(-span // len(word)))[:span])
    return [flat[t * rank:(t + ell) * rank] for t in range(count)]


@record
class Condition4Result:
    """Smallest level offset m at which every fresh boundary element generates
    the first kernel level under the rule and the shift."""

    found: bool
    m: int | None
    m_max: int
    failures: tuple[PeriodicConfig, ...] = ()

    def __bool__(self) -> bool:
        return self.found


def _unrestricted(F: CellularAutomaton | KernelTower) -> KernelTower:
    """F itself when it is a kernel tower, which must not come from
    `restrict`; otherwise a new tower of F under the default cap."""
    tw = F if isinstance(F, KernelTower) else KernelTower(F)
    if tw.sigma is not None:
        raise ValueError("the density criteria need unrestricted kernel levels, "
                         f"not levels restricted to {tw.sigma.describe()}")
    return tw


def condition4_search(
    F: CellularAutomaton | KernelTower,
    sigma: SubgroupShiftSpec | None = None,
    m_max: int = DEFAULT_M_MAX,
) -> Condition4Result:
    """Search m such that every d in the (m+1)-th boundary generates a
    subgroup (closed under rule and shift) containing the whole first level.

    F may be a kernel tower, whose cap bounds its levels and each closure; a
    rule gets a tower under the default cap.  On a tower with a closed form
    and the full shift, a found m is read off the factorization.  Otherwise
    the search fails at every m up to m_max, and only m = m_max, where the
    failures are taken, is enumerated."""
    if m_max < 0:
        raise ValueError(f"m_max must be >= 0, got {m_max}")
    tw = _unrestricted(F)
    sigma = subgroup_shift_on(sigma, tw.automaton.alphabet)
    module = tw.module if isinstance(sigma, FullShift) else None
    start = 0
    if module is not None:
        m = module.condition4_m
        found = m is not None and m <= m_max
        tw.size(m + 1 if found else m_max + 1)  # the cap checks of the levels it reads
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
                                 (lvl.code(d) for d in fresh), tw.cap)
        failures = [d for d in fresh if not verdicts[lvl.code(d)]]
        if not failures:
            return Condition4Result(True, m, m_max)
        lower = set(tw.level(m + 1).elements)
    return Condition4Result(False, None, m_max, tuple(failures))


@record
class CorollaryKerResult:
    """Whether the first restricted kernel level has no proper nontrivial
    shift-invariant subgroup, and how many such subgroups it has.  The rule
    kills level 1, so it holds exactly when every nonzero element of the
    level generates it under the shift and the rule."""

    holds: bool
    proper_invariant_subgroups: int

    def __bool__(self) -> bool:
        return self.holds


def corollary_ker_check(
    F: CellularAutomaton | KernelTower,
    sigma: SubgroupShiftSpec | None = None,
) -> CorollaryKerResult:
    """F may be a kernel tower, as in `condition4_search`.  On a tower with a
    closed form and the full shift, the invariant subgroups are counted from
    the factorization, and no level is enumerated; otherwise the coded first
    level's shift-closed subgroups are enumerated under the tower's cap."""
    tw = _unrestricted(F)
    sigma = subgroup_shift_on(sigma, tw.automaton.alphabet)
    module = tw.module if isinstance(sigma, FullShift) else None
    if module is not None:
        tw.size(1)  # the cap checks of level 1
        proper = module.proper_ideals
    else:
        d1 = tw.restricted_level(1, sigma).elements
        lvl = tw.coded(1)
        subs = enumerate_subgroups(
            Subgroup(lvl.group, tuple(map(lvl.code, d1))), [lvl.shift.__getitem__], cap=tw.cap
        )
        proper = sum(1 for s in subs if 1 < len(s) < len(d1))
    return CorollaryKerResult(proper == 0, proper)


# -- the companion recurrence ---------------------------------------------------


@record
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

    def matrix_order(self) -> int:
        """Multiplicative order of the companion matrix.

        The matrix is multiplication by x on the free module Z/m[x]/(P), for
        the monic P = x^k - sum_j matrix[0][j] x^(k-1-j) whose constant term
        is a unit, so its order is the order of x modulo P.  That order
        divides |GL_k(Z/m)|, whose prime factors `_x_order` divides out;
        they come from the factors p^i - 1 of that product, one at a time.
        """
        m, k = self.modulus, self.width
        f = {i: -c % m for i, c in enumerate(reversed(self.matrix[0]))} | {k: 1}
        order = modular._x_order(f, m, _gl_order(m, k), _gl_primes(m, k))
        if _poly_pow({1: 1}, order, m, f) != {0: 1}:
            raise AssertionError("order reduction failed")
        return order


def recurrence_matrix(F: CellularAutomaton) -> KernelRecurrence:
    """Companion matrix of the first-level kernel recurrence.

    Needs a rule on a cyclic alphabet whose linear form (`as_laurent`) has
    invertible extreme coefficients (bipermutativity on cyclic alphabets).
    """
    small = F.smallest_neighborhood()
    scalars = modular._scalar_coeffs(small)
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
