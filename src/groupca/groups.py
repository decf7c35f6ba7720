"""Exact arithmetic for finite abelian groups presented as products of cyclic factors.

Elements are plain tuples of residues, one per cyclic factor.  Everything is
immutable and pure, so values can be shared freely across threads.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

Element = tuple[int, ...]

DEFAULT_CLOSURE_CAP = 1 << 20
DEFAULT_SUBGROUP_CAP = 4096


class CapExceeded(RuntimeError):
    """A configurable size cap was exceeded during an exhaustive computation."""


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, by trial division (n is desk scale)."""
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return factors


def _is_prime(n: int) -> bool:
    return _prime_factors(n) == [n]


def _gl_order(m: int, r: int) -> int:
    """|GL_r(Z/m)|, the count of invertible r x r matrices over Z/m: the
    product over the prime powers p^j exactly dividing m of
    p^((j-1) r^2) |GL_r(F_p)|."""
    out = 1
    for p in _prime_factors(m):
        pj = math.gcd(m, p ** m.bit_length())  # the power of p exactly dividing m
        out *= (pj // p) ** (r * r) * math.prod(p**r - p**i for i in range(r))
    return out


def _gl_primes(m: int, r: int) -> list[int]:
    """The distinct primes of |GL_r(Z/m)|, factoring each p^i - 1 (i <= r) of
    the product on its own rather than the product's second-largest prime."""
    primes = set()
    for p in _prime_factors(m):
        if r > 1 or m % (p * p) == 0:
            primes.add(p)
        for i in range(1, r + 1):
            primes.update(_prime_factors(p**i - 1))
    return sorted(primes)


@dataclass(frozen=True)
class GroupSpec:
    """A finite abelian group given in product form Z/d_1 x ... x Z/d_k."""

    moduli: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.moduli:
            raise ValueError("group needs at least one cyclic factor")
        if any(d < 2 for d in self.moduli):
            raise ValueError(f"moduli must all be >= 2, got {self.moduli}")
        object.__setattr__(self, "moduli", tuple(int(d) for d in self.moduli))

    @property
    def rank(self) -> int:
        return len(self.moduli)

    @property
    def order(self) -> int:
        return math.prod(self.moduli)

    @property
    def radical(self) -> int:
        """Product of the distinct primes dividing the group order."""
        return math.prod(_prime_factors(self.order))

    @property
    def exponent(self) -> int:
        return math.lcm(*self.moduli)

    @property
    def zero(self) -> Element:
        return (0,) * len(self.moduli)

    def element(self, residues: Iterable[int]) -> Element:
        """Reduce a residue sequence into a valid element."""
        res = tuple(int(e) % d for e, d in zip(residues, self.moduli, strict=True))
        return res

    def contains(self, x: Element) -> bool:
        return len(x) == len(self.moduli) and all(
            0 <= e < d for e, d in zip(x, self.moduli)
        )

    def add(self, x: Element, y: Element) -> Element:
        return tuple((a + b) % d for a, b, d in zip(x, y, self.moduli))

    def neg(self, x: Element) -> Element:
        return tuple((-a) % d for a, d in zip(x, self.moduli))

    def sub(self, x: Element, y: Element) -> Element:
        return tuple((a - b) % d for a, b, d in zip(x, y, self.moduli))

    def scale(self, n: int, x: Element) -> Element:
        return tuple((n * a) % d for a, d in zip(x, self.moduli))

    def elements(self) -> Iterator[Element]:
        return itertools.product(*(range(d) for d in self.moduli))

    def power(self, q: int) -> "GroupSpec":
        """The product group A^q, with factors concatenated."""
        if q < 1:
            raise ValueError("power must be >= 1")
        return GroupSpec(self.moduli * q)

    def __str__(self) -> str:
        return " x ".join(f"Z/{d}" for d in self.moduli)


@dataclass(frozen=True)
class Endomorphism:
    """A homomorphism between product groups, as an integer matrix.

    Row j, column i holds the multiplier of the map Z/d_i -> Z/d'_j.  The
    entry m must satisfy m*d_i = 0 mod d'_j, otherwise the map is not well
    defined on residues.
    """

    source: GroupSpec
    target: GroupSpec
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(
            tuple(int(m) % dj for m in row)
            for row, dj in zip(self.matrix, self.target.moduli, strict=True)
        )
        for row, dj in zip(rows, self.target.moduli):
            if len(row) != self.source.rank:
                raise ValueError("matrix shape does not match source rank")
            for m, di in zip(row, self.source.moduli):
                if (m * di) % dj != 0:
                    raise ValueError(
                        f"entry {m}: not a homomorphism Z/{di} -> Z/{dj}"
                    )
        object.__setattr__(self, "matrix", rows)

    @classmethod
    def identity(cls, group: GroupSpec) -> "Endomorphism":
        n = group.rank
        return cls(group, group, tuple(
            tuple(1 if i == j else 0 for i in range(n)) for j in range(n)
        ))

    @classmethod
    def zero_map(cls, group: GroupSpec) -> "Endomorphism":
        n = group.rank
        return cls(group, group, ((0,) * n,) * n)

    @classmethod
    def scalar(cls, group: GroupSpec, c: int) -> "Endomorphism":
        """Multiplication by c on every factor (valid on any product group)."""
        n = group.rank
        return cls(group, group, tuple(
            tuple(c if i == j else 0 for i in range(n)) for j in range(n)
        ))

    @property
    def is_square(self) -> bool:
        return self.source == self.target

    def __call__(self, x: Element) -> Element:
        if len(x) != self.source.rank:
            raise ValueError("element shape does not match endomorphism source")
        return tuple(
            sum(m * e for m, e in zip(row, x)) % dj
            for row, dj in zip(self.matrix, self.target.moduli)
        )

    def compose(self, other: "Endomorphism") -> "Endomorphism":
        """self after other."""
        if other.target != self.source:
            raise ValueError("composition shape mismatch")
        rows = tuple(
            tuple(
                sum(self.matrix[j][k] * other.matrix[k][i]
                    for k in range(self.source.rank)) % dj
                for i in range(other.source.rank)
            )
            for j, dj in enumerate(self.target.moduli)
        )
        return Endomorphism(other.source, self.target, rows)

    def __add__(self, other: "Endomorphism") -> "Endomorphism":
        if (other.source, other.target) != (self.source, self.target):
            raise ValueError("addition shape mismatch")
        rows = tuple(
            tuple((a + b) % dj for a, b in zip(ra, rb))
            for ra, rb, dj in zip(self.matrix, other.matrix, self.target.moduli)
        )
        return Endomorphism(self.source, self.target, rows)

    def __neg__(self) -> "Endomorphism":
        rows = tuple(
            tuple((-a) % dj for a in row)
            for row, dj in zip(self.matrix, self.target.moduli)
        )
        return Endomorphism(self.source, self.target, rows)

    @property
    def is_zero(self) -> bool:
        return not any(map(any, self.matrix))

    def image(self) -> frozenset[Element]:
        return frozenset(self(x) for x in self.source.elements())

    def kernel(self) -> frozenset[Element]:
        zero = self.target.zero
        return frozenset(x for x in self.source.elements() if self(x) == zero)

    def is_automorphism(self, cap: int = DEFAULT_CLOSURE_CAP) -> bool:
        """Bijectivity by exhaustive image enumeration (alphabets are tiny)."""
        if not self.is_square:
            return False
        if self.source.order > cap:
            raise CapExceeded(f"group order {self.source.order} exceeds cap {cap}")
        return len(self.image()) == self.source.order

    def inverse(self) -> "Endomorphism":
        """Inverse of an automorphism, found by solving on the standard generators."""
        if not self.is_automorphism():
            raise ValueError("endomorphism is not an automorphism")
        preimage = {self(x): x for x in self.source.elements()}
        n = self.source.rank
        cols = []
        for i in range(n):
            gen = tuple(1 if k == i else 0 for k in range(n))
            cols.append(preimage[gen])
        rows = tuple(tuple(cols[i][j] for i in range(n)) for j in range(n))
        return Endomorphism(self.target, self.source, rows)


@dataclass(frozen=True)
class Character:
    """A character of a product group, x -> exp(2 pi i sum c_j x_j / d_j).

    Phases are tracked as integers over a common denominator, so triviality
    tests are exact; only the final complex value is floating point.
    """

    group: GroupSpec
    residues: tuple[int, ...]

    def __post_init__(self) -> None:
        res = tuple(
            int(c) % d for c, d in zip(self.residues, self.group.moduli, strict=True)
        )
        object.__setattr__(self, "residues", res)

    @property
    def is_trivial(self) -> bool:
        return all(c == 0 for c in self.residues)

    def phase(self, x: Element) -> tuple[int, int]:
        """Exact phase of the value at x, as (numerator mod L, L) with L = lcm(moduli)."""
        if len(x) != self.group.rank:
            raise ValueError("element shape does not match character group")
        lcm = self.group.exponent
        num = sum(c * e * (lcm // d) for c, e, d in zip(self.residues, x, self.group.moduli))
        return num % lcm, lcm

    def __call__(self, x: Element) -> complex:
        num, lcm = self.phase(x)
        return cmath.exp(2j * cmath.pi * num / lcm)

    def is_one_at(self, x: Element) -> bool:
        return self.phase(x)[0] == 0


Operator = Callable[[Element], Element]


def closure_set(
    seeds: Iterable,
    add: Callable,
    zero,
    operators: Iterable[Callable] = (),
    cap: int = DEFAULT_CLOSURE_CAP,
    additive_operators: bool = False,
):
    """Smallest set containing zero and the seeds, closed under add, negation
    and each operator.  Generic over the element type: used both for group
    elements and for periodic configurations.

    Generators are absorbed by coset accumulation (the subgroup grows as a
    union of cosets of the previous stage, so the cost is linear in the
    result, not quadratic).  With `additive_operators` the operators are
    promised to be group homomorphisms; then it is enough to close the
    generator set under them before generating, instead of feeding every
    element back through the operators.  Negatives need no map of their own:
    they arise from the finite coset cycle.
    """
    ops = list(operators)
    members = {zero}
    order = [zero]

    def absorb(g) -> None:
        if g in members:
            return
        reps = []
        kg = g
        while kg not in members:
            reps.append(kg)
            kg = add(kg, g)
        base = list(order)
        for rep in reps:
            for x in base:
                y = add(x, rep)
                if y not in members:
                    if len(members) >= cap:
                        raise CapExceeded(f"closure exceeded cap {cap}")
                    members.add(y)
                    order.append(y)

    if additive_operators and ops:
        orbit: list = []
        seen: set = set()
        queue = list(seeds)
        while queue:
            x = queue.pop()
            if x in seen:
                continue
            if len(seen) >= cap:
                raise CapExceeded(f"operator orbit exceeded cap {cap}")
            seen.add(x)
            orbit.append(x)
            queue.extend(op(x) for op in ops)
        for g in orbit:
            absorb(g)
        return frozenset(members)

    for s in seeds:
        absorb(s)
    applied = 0
    while applied < len(order):
        pending = []
        snapshot = len(order)
        for x in order[applied:]:
            for op in ops:
                y = op(x)
                if y not in members:
                    pending.append(y)
        applied = snapshot
        for g in pending:
            absorb(g)
    return frozenset(members)


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of a product group, as an explicit sorted element list."""

    ambient: GroupSpec
    elements: tuple[Element, ...]

    def __post_init__(self) -> None:
        elems = tuple(sorted(set(self.elements)))
        if self.ambient.zero not in elems:
            raise ValueError("subgroup must contain zero")
        object.__setattr__(self, "elements", elems)

    def validate(self) -> None:
        """Check closure under addition and negation (quadratic, desk scale)."""
        members = set(self.elements)
        for x in self.elements:
            if self.ambient.neg(x) not in members:
                raise ValueError(f"not closed under negation at {x}")
            for y in self.elements:
                if self.ambient.add(x, y) not in members:
                    raise ValueError(f"not closed under addition at {x}+{y}")

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, x: Element) -> bool:
        return x in set(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def is_trivial(self) -> bool:
        return len(self.elements) == 1


def subgroup_closure(
    ambient: GroupSpec,
    seeds: Iterable[Element],
    operators: Iterable[Operator | Endomorphism] = (),
    cap: int = DEFAULT_CLOSURE_CAP,
) -> Subgroup:
    """Smallest subgroup of the ambient group containing the seeds and closed
    under every operator (endomorphisms or arbitrary element maps)."""
    if ambient.order > cap:
        raise CapExceeded(f"ambient order {ambient.order} exceeds cap {cap}")
    seeds = list(seeds)
    for s in seeds:
        if not ambient.contains(s):
            raise ValueError(f"seed {s} is not an ambient element")
    elems = closure_set(seeds, ambient.add, ambient.zero, operators, cap)
    return Subgroup(ambient, tuple(elems))


def enumerate_subgroups(
    group: GroupSpec | Subgroup,
    operators: Iterable[Operator | Endomorphism] = (),
    cap: int = DEFAULT_SUBGROUP_CAP,
) -> list[Subgroup]:
    """Complete list of subgroups (closed under the operators, if any).

    Breadth-first over generator extensions: every closed subgroup arises by
    adding its generators one at a time, so the walk is exhaustive.
    """
    if isinstance(group, Subgroup):
        ambient = group.ambient
        universe = list(group.elements)
    else:
        ambient = group
        universe = list(ambient.elements())
    if len(universe) > cap:
        raise CapExceeded(f"group order {len(universe)} exceeds cap {cap}")
    ops = list(operators)

    def close(seed: list[Element]) -> frozenset[Element]:
        return closure_set(seed, ambient.add, ambient.zero, ops, cap=len(universe) + 1)

    trivial = close([])
    seen = {trivial}
    frontier = [trivial]
    while frontier:
        new_frontier = []
        for sub in frontier:
            for g in universe:
                if g in sub:
                    continue
                bigger = close(list(sub) + [g])
                if bigger not in seen:
                    seen.add(bigger)
                    new_frontier.append(bigger)
        frontier = new_frontier
    subs = [Subgroup(ambient, tuple(s)) for s in seen]
    subs.sort(key=lambda s: (len(s.elements), s.elements))
    return subs
