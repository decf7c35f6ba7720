"""Exact arithmetic for finite abelian groups presented as products of cyclic factors.

Elements are plain tuples of residues, one per cyclic factor.  Everything is
immutable and pure, so values can be shared freely across threads.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from functools import cached_property
from typing import Callable, Iterable, Iterator

Element = tuple[int, ...]
Word = tuple[Element, ...]

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


# -- frozen records ----------------------------------------------------------

_setfield = object.__setattr__  # how a record's own __init__ stores each field


def _refuse_assignment(self, name: str, value) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r}")


def _bind(cls: type, names: tuple[str, ...], defaults: tuple, args: tuple,
          kwargs: dict) -> tuple:
    """The field values of a generic record constructor call, in field order;
    the last len(defaults) fields may be left out."""
    given = dict(zip(names, args))
    clashes = [name for name in kwargs if name not in names or name in given]
    missing = [name for name in names[:len(names) - len(defaults)]
               if name not in given and name not in kwargs]
    if len(args) > len(names) or clashes or missing:
        raise TypeError(f"{cls.__qualname__}() takes the fields {', '.join(names)}, got "
                        f"{len(args)} positional arguments and the keywords {sorted(kwargs)}")
    values = {**dict(zip(names[len(names) - len(defaults):], defaults)), **given, **kwargs}
    return tuple(values[name] for name in names)


def record(cls: type) -> type:
    """Make cls an immutable record of the fields its body annotates, in order.

    The fields live in the instance `__dict__`, where `cached_property` and
    `automata._memoized` keep derived values too; equality, hashing and repr
    read the fields alone.  `==` holds for two instances of the same class
    with equal field tuples (NotImplemented against any other class), the
    hash is the hash of the field tuple, repr is `Name(field=value, ...)`, and
    assignment and deletion raise AttributeError.

    The generic `__init__` takes each field positionally or by keyword; a
    field given a value in the class body defaults to it, and, as in a
    dataclass, no field without a default may follow one with a default.  An
    `__init__`, `__eq__`, `__hash__` or `__repr__` the class defines itself
    is kept: a constructor that validates or normalises a field is written
    out, storing each field with `_setfield`.  No code is generated, so
    making a record costs a few closures.
    """
    own = cls.__dict__
    names = tuple(own.get("__annotations__", {}))
    defaults = tuple(own[name] for name in names if name in own)
    if any(name not in own for name in names[len(names) - len(defaults):]):
        raise TypeError(f"{cls.__qualname__}: a field without a default follows one with a default")
    if len(names) == 1:
        one = operator.attrgetter(names[0])

        def values(self) -> tuple:
            return (one(self),)
    elif names:
        values = operator.attrgetter(*names)
    else:
        def values(self) -> tuple:
            return ()

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or not len(names) - len(defaults) <= len(args) <= len(names):
            args = _bind(cls, names, defaults, args, kwargs)
        elif len(args) < len(names):
            args += defaults[len(args) - len(names):]
        for name, value in zip(names, args):
            _setfield(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(values(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}" for name, value in zip(names, values(self)))
        return f"{self.__class__.__qualname__}({body})"

    for method in (__init__, __eq__, __repr__):
        if method.__name__ not in own:
            setattr(cls, method.__name__, method)
    if own.get("__hash__") is None:  # a class body defining __eq__ sets it to None
        cls.__hash__ = __hash__
    cls.__setattr__ = _refuse_assignment
    cls.__delattr__ = _refuse_deletion
    return cls


@record
class GroupSpec:
    """A finite abelian group given in product form Z/d_1 x ... x Z/d_k."""

    moduli: tuple[int, ...]

    def __init__(self, moduli: Iterable[int]) -> None:
        moduli = tuple(moduli)  # an iterator is read once, before the checks
        if not moduli:
            raise ValueError("group needs at least one cyclic factor")
        if any(d < 2 for d in moduli):
            raise ValueError(f"moduli must all be >= 2, got {moduli}")
        _setfield(self, "moduli", tuple(int(d) for d in moduli))

    # written out: groups are compared and hashed on every hot path
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.moduli == other.moduli
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.moduli,))

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

    def elements(self) -> Iterator[Element]:
        return itertools.product(*(range(d) for d in self.moduli))

    def power(self, q: int) -> "GroupSpec":
        """The product group A^q, with factors concatenated."""
        if q < 1:
            raise ValueError("power must be >= 1")
        return GroupSpec(self.moduli * q)

    def __str__(self) -> str:
        return " x ".join(f"Z/{d}" for d in self.moduli)


@record
class Endomorphism:
    """A homomorphism between product groups, as an integer matrix.

    Row j, column i holds the multiplier of the map Z/d_i -> Z/d'_j.  The
    entry m must satisfy m*d_i = 0 mod d'_j, otherwise the map is not well
    defined on residues.
    """

    source: GroupSpec
    target: GroupSpec
    matrix: tuple[tuple[int, ...], ...]

    def __init__(self, source: GroupSpec, target: GroupSpec,
                 matrix: Iterable[Iterable[int]]) -> None:
        rows = tuple(
            tuple(int(m) % dj for m in row)
            for row, dj in zip(matrix, target.moduli, strict=True)
        )
        for row, dj in zip(rows, target.moduli):
            if len(row) != source.rank:
                raise ValueError("matrix shape does not match source rank")
            for m, di in zip(row, source.moduli):
                if (m * di) % dj != 0:
                    raise ValueError(
                        f"entry {m}: not a homomorphism Z/{di} -> Z/{dj}"
                    )
        _setfield(self, "source", source)
        _setfield(self, "target", target)
        _setfield(self, "matrix", rows)

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
        """self after other.  The tests build their reference rules with it,
        with `inverse` and with negation."""
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

    def __neg__(self) -> "Endomorphism":
        """The pointwise negative (for the tests' reference rules, as `compose`)."""
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

    def is_automorphism(self) -> bool:
        """Bijectivity, refused past DEFAULT_CLOSURE_CAP elements: on a
        cyclic group Z/m multiplication by c, bijective exactly when c is a
        unit mod m; otherwise by exhaustive image enumeration."""
        if not self.is_square:
            return False
        if self.source.order > DEFAULT_CLOSURE_CAP:
            raise CapExceeded(f"group order {self.source.order} exceeds cap "
                              f"{DEFAULT_CLOSURE_CAP}")
        if self.source.rank == 1:
            return math.gcd(self.matrix[0][0], self.source.order) == 1
        return len(self.image()) == self.source.order

    def inverse(self) -> "Endomorphism":
        """Inverse of an automorphism, found by solving on the standard
        generators (for the tests' reference rules, as `compose`)."""
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


@record
class Character:
    """A character of a product group, x -> exp(2 pi i sum c_j x_j / d_j).

    Phases are tracked as integers over a common denominator, so triviality
    tests are exact; only the final complex value is floating point.
    """

    group: GroupSpec
    residues: tuple[int, ...]

    def __init__(self, group: GroupSpec, residues: Iterable[int]) -> None:
        _setfield(self, "group", group)
        _setfield(self, "residues", tuple(
            int(c) % d for c, d in zip(residues, group.moduli, strict=True)
        ))

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


Operator = Callable[[Element], Element]


def closure_set(
    seeds: Iterable,
    add: Callable,
    zero,
    operators: Iterable[Callable] = (),
    cap: int = DEFAULT_CLOSURE_CAP,
):
    """Smallest set containing zero and the seeds, closed under add, negation
    and each operator.  Generic over the element type: used both for group
    elements and for periodic configurations.

    Every operator must be a group homomorphism.  Then only the generators
    need mapping: a generator already inside the subgroup built so far is a
    sum of earlier ones, whose images are queued, so its images lie in the
    closure anyway.  Each new generator is absorbed by coset accumulation
    (the subgroup grows as a union of cosets of the previous stage, so the
    cost is linear in the result, not quadratic) and at least doubles it.
    Negatives need no map of their own: they arise from the finite coset
    cycle.  The result is refused past `cap` elements.
    """
    ops = list(operators)
    members = {zero}
    order = [zero]
    queue = list(seeds)
    while queue:
        g = queue.pop()
        if g in members:
            continue
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
        queue.extend(op(g) for op in ops)
    return frozenset(members)


@record
class Subgroup:
    """A subgroup of a product group, as an explicit sorted element list."""

    ambient: GroupSpec
    elements: tuple[Element, ...]

    def __init__(self, ambient: GroupSpec, elements: Iterable[Element]) -> None:
        elems = tuple(sorted(set(elements)))
        if ambient.zero not in elems:
            raise ValueError("subgroup must contain zero")
        _setfield(self, "ambient", ambient)
        _setfield(self, "elements", elems)

    def validate(self) -> None:
        """Check closure under addition and negation (quadratic, desk scale)."""
        members = self._members
        for x in self.elements:
            if self.ambient.neg(x) not in members:
                raise ValueError(f"not closed under negation at {x}")
            for y in self.elements:
                if self.ambient.add(x, y) not in members:
                    raise ValueError(f"not closed under addition at {x}+{y}")

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def _members(self) -> frozenset[Element]:
        """The elements as one set, built on first use and kept outside the
        fields, so equality, hashing and repr read `elements` alone."""
        return frozenset(self.elements)

    def __contains__(self, x: Element) -> bool:
        return x in self._members

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def is_trivial(self) -> bool:
        return len(self.elements) == 1


def subgroup_closure(
    ambient: GroupSpec,
    seeds: Iterable[Element],
    operators: Iterable[Operator | Endomorphism] = (),
) -> Subgroup:
    """Smallest subgroup of the ambient group containing the seeds and closed
    under every operator, each a homomorphism of the ambient group
    (`closure_set`).  An ambient group of more than DEFAULT_CLOSURE_CAP
    elements is refused."""
    if ambient.order > DEFAULT_CLOSURE_CAP:
        raise CapExceeded(f"ambient order {ambient.order} exceeds cap {DEFAULT_CLOSURE_CAP}")
    seeds = list(seeds)
    for s in seeds:
        if not ambient.contains(s):
            raise ValueError(f"seed {s} is not an ambient element")
    elems = closure_set(seeds, ambient.add, ambient.zero, operators)
    return Subgroup(ambient, tuple(elems))


def enumerate_subgroups(
    group: GroupSpec | Subgroup,
    operators: Iterable[Operator | Endomorphism] = (),
    cap: int = DEFAULT_SUBGROUP_CAP,
) -> list[Subgroup]:
    """Complete list of subgroups (closed under the operators, if any, each a
    homomorphism of the ambient group, as `closure_set` requires).

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
