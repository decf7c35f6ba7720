"""One-dimensional cellular automata on finite abelian alphabets.

Rules come in three flavors: explicit tables, linear combinations of shift
powers with endomorphism coefficients, and affine rules (linear plus a
constant letter, the shift-invariant case).
"""

from __future__ import annotations

import functools
import itertools
import math
import types
from collections import defaultdict
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from . import _lazy
from .groups import CapExceeded, Element, Endomorphism, GroupSpec, Word, _setfield, record

if TYPE_CHECKING:
    from .configs import Cylinder, PeriodicConfig

configs = _lazy("configs")  # executed by the first periodic image or preimage

DEFAULT_TABLE_CAP = 1 << 20
DEFAULT_PREIMAGE_CAP = 1 << 16


@functools.lru_cache(maxsize=None)
def letters(alphabet: GroupSpec) -> tuple[Element, ...]:
    return tuple(alphabet.elements())


def letter_arithmetic(alphabet: GroupSpec, terms: Mapping[int, tuple]) -> tuple:
    """Letter indices in `letters` order, the addition table over them
    (plus[i][j] indexes letter i + letter j) and, by offset, each matrix term
    (`matrix_terms`) as a map of letter indices.  The index (read-only) and
    the table are built once per alphabet and each letter map once per
    matrix, in bounded caches shared by every caller.  A caller that reads
    letter indices only takes `letter_index`, which builds no |A|^2 table."""
    maps = {u: _letter_map(alphabet, m) for u, m in terms.items()}
    return letter_index(alphabet), _letter_table(alphabet), maps


@functools.lru_cache(maxsize=64)
def letter_index(alphabet: GroupSpec) -> Mapping[Element, int]:
    """Each letter's index in `letters` order, read-only."""
    return types.MappingProxyType({a: i for i, a in enumerate(letters(alphabet))})


@functools.lru_cache(maxsize=64)
def _letter_table(alphabet: GroupSpec) -> tuple:
    abc, index = letters(alphabet), letter_index(alphabet)
    return tuple(tuple(index[alphabet.add(a, b)] for b in abc) for a in abc)


@functools.lru_cache(maxsize=1024)
def _letter_map(alphabet: GroupSpec, matrix: tuple) -> tuple[int, ...]:
    f = Endomorphism(alphabet, alphabet, matrix)
    index = letter_index(alphabet)
    return tuple(index[f(a)] for a in letters(alphabet))


def _coerce_endo(alphabet: GroupSpec, value) -> Endomorphism:
    if isinstance(value, Endomorphism):
        if value.source != alphabet or value.target != alphabet:
            raise ValueError("coefficient endomorphism is not on the alphabet")
        return value
    if isinstance(value, int):
        return Endomorphism.scalar(alphabet, value)
    return Endomorphism(alphabet, alphabet, tuple(tuple(row) for row in value))


def matrix_terms(F: CellularAutomaton) -> dict[int, tuple]:
    """F's coefficients as integer matrices by offset; none for a table rule."""
    return {u: f.matrix for u, f in (F.coeffs or {}).items()}


def _product_terms(group: GroupSpec, f_terms: Mapping[int, tuple],
                   g_terms: Mapping[int, tuple]) -> dict[int, tuple]:
    """Nonzero integer matrix terms, by offset, of (sum_u f_u s^u)(sum_v g_v s^v)
    for matrix terms f and g (`matrix_terms`).

    Matrix entry (j, i) of each side is an integer polynomial in the shift;
    the product's entry sums their products (`_poly_mul`) over k, and each
    surviving offset is reduced once more, row j modulo d_j."""
    rank = group.rank

    def entries(terms: Mapping[int, tuple]) -> list[list[dict[int, int]]]:
        return [[{u: m[j][i] for u, m in terms.items() if m[j][i]}
                 for i in range(rank)] for j in range(rank)]

    P, Q = entries(f_terms), entries(g_terms)
    prod = [[defaultdict(int) for _ in range(rank)] for _ in range(rank)]
    for j, i, k in itertools.product(range(rank), repeat=3):
        acc = prod[j][i]
        for w, c in _poly_mul(P[j][k], Q[k][i], group.moduli[j]).items():
            acc[w] += c
    offsets = sorted(set().union(*(e for row in prod for e in row)))
    # per offset, the tuple of reduced rows: entries by offset, zipped twice
    matrices = zip(*(zip(*([e.get(w, 0) % d for w in offsets] for e in row))
                     for row, d in zip(prod, group.moduli)))
    return {w: m for w, m in zip(offsets, matrices) if any(map(any, m))}


def _memoized(derive):
    """Memoize `derive(F, ...)`, a pure derivation from an automaton F, on F:
    in the frozen instance's `__dict__`, outside its fields (as
    `functools.cached_property` keeps a value), so `==` and `repr` ignore it
    and an automaton built from F's fields starts without it.  An error is
    not kept."""
    @functools.wraps(derive)
    def get(F, *args, **kwargs):
        memo = F.__dict__.setdefault("_derived", {})
        key = (derive.__name__, args, tuple(kwargs.items()))
        if key not in memo:
            memo[key] = derive(F, *args, **kwargs)
        return memo[key]
    return get


class Permutativity(NamedTuple):
    left: bool
    right: bool

    @property
    def bipermutative(self) -> bool:
        return self.left and self.right


@record
class CellularAutomaton:
    """A CA given by its alphabet, neighborhood interval and local rule.

    Exactly one of `table` and `coeffs` is set.  `constant`, when present,
    makes a linear rule affine; it is a single letter, interpreted as the
    shift-invariant constant configuration.

    Its smallest neighborhood, permutativity, linear form and factorization
    are derived once and kept on it (`_memoized`), so `table` and `coeffs`
    must not be mutated after construction.
    """

    alphabet: GroupSpec
    neighborhood: tuple[int, int]
    table: Mapping[Word, Element] | None
    coeffs: Mapping[int, Endomorphism] | None
    constant: Element | None

    def __init__(self, alphabet: GroupSpec, neighborhood: tuple[int, int],
                 table: Mapping[Word, Element] | None = None,
                 coeffs: Mapping[int, Endomorphism] | None = None,
                 constant: Element | None = None) -> None:
        r, s = neighborhood
        if r > s:
            raise ValueError(f"empty neighborhood [{r},{s}]")
        if (table is None) == (coeffs is None):
            raise ValueError("exactly one of table and coeffs must be given")
        if table is not None:
            if constant is not None:
                raise ValueError("constants only apply to linear rules")
            width = s - r + 1
            expected = alphabet.order ** width
            if len(table) != expected:
                raise ValueError(
                    f"table has {len(table)} entries, expected {expected}"
                )
            for w, a in table.items():
                if len(w) != width:
                    raise ValueError(f"table key {w} has wrong width")
                if not alphabet.contains(a):
                    raise ValueError(f"table value {a} outside alphabet")
        else:
            for u, f in coeffs.items():
                if not (r <= u <= s):
                    raise ValueError(f"coefficient offset {u} outside [{r},{s}]")
                if f.source != alphabet or f.target != alphabet:
                    raise ValueError("coefficient endomorphism not on alphabet")
            if constant is not None and not alphabet.contains(constant):
                raise ValueError("affine constant outside alphabet")
        _setfield(self, "alphabet", alphabet)
        _setfield(self, "neighborhood", neighborhood)
        _setfield(self, "table", table)
        _setfield(self, "coeffs", coeffs)
        _setfield(self, "constant", constant)

    # -- structure ---------------------------------------------------------

    @property
    def width(self) -> int:
        r, s = self.neighborhood
        return s - r + 1

    @property
    def is_linear(self) -> bool:
        return self.coeffs is not None and (
            self.constant is None or self.constant == self.alphabet.zero
        )

    @property
    def is_affine(self) -> bool:
        return self.coeffs is not None

    def coeff(self, u: int) -> Endomorphism:
        assert self.coeffs is not None
        return self.coeffs.get(u, Endomorphism.zero_map(self.alphabet))

    # -- evaluation --------------------------------------------------------

    def local(self, window: Word) -> Element:
        """The local rule on one window of exactly the neighborhood width."""
        if len(window) != self.width:
            raise ValueError(f"window width {len(window)}, expected {self.width}")
        if self.table is not None:
            return self.table[tuple(window)]
        r, _ = self.neighborhood
        acc = self.alphabet.zero
        for u, f in self.coeffs.items():
            acc = self.alphabet.add(acc, f(window[u - r]))
        if self.constant is not None:
            acc = self.alphabet.add(acc, self.constant)
        return acc

    def apply_window(self, word: Sequence[Element]) -> Word:
        """Slide the local rule over a finite word; output shrinks by s-r."""
        word = tuple(tuple(a) for a in word)
        if len(word) < self.width:
            raise ValueError(
                f"window of length {len(word)} too short for width {self.width}"
            )
        w = self.width
        return tuple(self.local(word[j : j + w]) for j in range(len(word) - w + 1))

    def apply_periodic(self, x: PeriodicConfig) -> PeriodicConfig:
        """Image of a periodic configuration; the period can only shrink."""
        if x.alphabet != self.alphabet:
            raise ValueError("alphabet mismatch")
        r, _ = self.neighborhood
        q = x.period
        word = tuple(self.local(x.window(i + r, self.width)) for i in range(q))
        return configs.PeriodicConfig(self.alphabet, word)

    # -- normalization -----------------------------------------------------

    @_memoized
    def smallest_neighborhood(self) -> "CellularAutomaton":
        """Equivalent CA whose rule depends on both neighborhood endpoints;
        this automaton itself when nothing trims.

        A rule depending on no coordinate at all collapses to a single-point
        neighborhood; such automata are flagged trivial.  For affine rules
        only the linear part is trimmed.
        """
        r, s = self.neighborhood
        if self.coeffs is not None:
            support = sorted(u for u, f in self.coeffs.items() if not f.is_zero)
            # every coefficient nonzero, with the outermost at the ends
            if support and (support[0], support[-1], len(support)) == (r, s, len(self.coeffs)):
                return self
            if not support:
                return CellularAutomaton(
                    self.alphabet, (0, 0),
                    coeffs={0: Endomorphism.zero_map(self.alphabet)},
                    constant=self.constant,
                )
            coeffs = {u: self.coeffs[u] for u in support}
            return CellularAutomaton(
                self.alphabet, (support[0], support[-1]), coeffs=coeffs,
                constant=self.constant,
            )
        table = self.table
        abc = letters(self.alphabet)
        while s - r >= 1:
            if _table_ignores(table, 0, abc):
                table = {w[1:]: a for w, a in table.items() if w[0] == abc[0]}
                r += 1
            elif _table_ignores(table, s - r, abc):
                table = {w[:-1]: a for w, a in table.items() if w[-1] == abc[0]}
                s -= 1
            else:
                break
        if (r, s) == self.neighborhood:
            return self
        return CellularAutomaton(self.alphabet, (r, s), table=table)

    @property
    def is_trivial(self) -> bool:
        """True when the smallest neighborhood is a single point."""
        small = self.smallest_neighborhood()
        return small.neighborhood[0] == small.neighborhood[1]

    # -- permutativity -----------------------------------------------------

    @_memoized
    def permutativity(self) -> Permutativity:
        """Left/right permutativity, decided on the smallest neighborhood.

        Linear and affine rules use the automorphism criterion on the extreme
        coefficients; tables are checked exhaustively.
        """
        small = self.smallest_neighborhood()
        r, s = small.neighborhood
        if small.coeffs is not None:
            return Permutativity(
                small.coeff(r).is_automorphism(), small.coeff(s).is_automorphism()
            )
        abc = letters(self.alphabet)
        n = len(abc)
        left = right = True
        for rest in itertools.product(abc, repeat=s - r):
            if len({small.table[(a,) + rest] for a in abc}) != n:
                left = False
                break
        for rest in itertools.product(abc, repeat=s - r):
            if len({small.table[rest + (a,)] for a in abc}) != n:
                right = False
                break
        return Permutativity(left, right)

    def describe(self) -> str:
        r, s = self.neighborhood
        if self.coeffs is not None:
            parts = []
            for u in sorted(self.coeffs):
                f = self.coeffs[u]
                if f.is_zero:
                    continue
                mat = f.matrix[0][0] if self.alphabet.rank == 1 else f.matrix
                parts.append(f"{mat}*s^{u}")
            body = " + ".join(parts) if parts else "0"
            if self.constant is not None and self.constant != self.alphabet.zero:
                body += f" + {self.constant}"
            return f"linear[{r},{s}] {body} on {self.alphabet}"
        return f"table[{r},{s}] on {self.alphabet}"


def _table_ignores(table: Mapping[Word, Element], pos: int,
                   abc: tuple[Element, ...]) -> bool:
    """True when the table output never depends on window coordinate pos."""
    for w, a in table.items():
        if w[pos] != abc[0]:
            continue
        for b in abc[1:]:
            w2 = w[:pos] + (b,) + w[pos + 1 :]
            if table[w2] != a:
                return False
    return True


# -- constructors ------------------------------------------------------------


def linear_ca(
    alphabet: GroupSpec,
    coeffs: Mapping[int, Endomorphism | int | Sequence[Sequence[int]]],
    constant: Element | None = None,
    neighborhood: tuple[int, int] | None = None,
) -> CellularAutomaton:
    """Linear or affine CA from shift-offset coefficients.

    Integer coefficients mean scalar multiplication; matrices are taken as
    endomorphisms of the product group.
    """
    endos = {int(u): _coerce_endo(alphabet, f) for u, f in coeffs.items()}
    support = sorted(u for u, f in endos.items() if not f.is_zero)
    if neighborhood is None:
        neighborhood = (support[0], support[-1]) if support else (0, 0)
    if not support:
        endos = {neighborhood[0]: Endomorphism.zero_map(alphabet)}
    else:
        endos = {u: endos[u] for u in support}
    const = alphabet.element(constant) if constant is not None else None
    if const == alphabet.zero:
        const = None
    return CellularAutomaton(alphabet, neighborhood, coeffs=endos, constant=const)


def table_ca(
    alphabet: GroupSpec,
    neighborhood: tuple[int, int],
    table: Mapping[Sequence[Element], Element],
) -> CellularAutomaton:
    clean = {
        tuple(alphabet.element(a) for a in w): alphabet.element(v)
        for w, v in table.items()
    }
    return CellularAutomaton(alphabet, tuple(neighborhood), table=clean)


def table_from_rule(
    alphabet: GroupSpec,
    neighborhood: tuple[int, int],
    rule,
) -> CellularAutomaton:
    """Materialize a callable local rule into a table CA: the table
    counterpart of `linear_ca`, with which the tests build the table form of
    a rule."""
    r, s = neighborhood
    width = s - r + 1
    abc = letters(alphabet)
    table = {w: rule(w) for w in itertools.product(abc, repeat=width)}
    return table_ca(alphabet, neighborhood, table)


def shift_ca(alphabet: GroupSpec, m: int = 1) -> CellularAutomaton:
    return linear_ca(alphabet, {m: Endomorphism.identity(alphabet)})


def identity_ca(alphabet: GroupSpec) -> CellularAutomaton:
    return shift_ca(alphabet, 0)


# -- composition --------------------------------------------------------------


def compose(F: CellularAutomaton, G: CellularAutomaton) -> CellularAutomaton:
    """The CA x -> F(G(x)); linear rules compose through their polynomials.

    DEFAULT_TABLE_CAP, read at each call, bounds the work: the composite
    table's entries, or for two rules with coefficients the product of their
    term counts."""
    cap = DEFAULT_TABLE_CAP
    if F.alphabet != G.alphabet:
        raise ValueError("alphabet mismatch")
    rF, sF = F.neighborhood
    rG, sG = G.neighborhood
    if F.coeffs is not None and G.coeffs is not None:
        if len(F.coeffs) * len(G.coeffs) > cap:
            raise CapExceeded(f"composing rules of {len(F.coeffs)} and {len(G.coeffs)} "
                              f"terms exceeds cap {cap} on their product")
        A = F.alphabet
        # F applied to the constant configuration G.constant, plus F.constant
        const = A.zero
        if G.constant is not None:
            for f in F.coeffs.values():
                const = A.add(const, f(G.constant))
        if F.constant is not None:
            const = A.add(const, F.constant)
        terms = _product_terms(A, matrix_terms(F), matrix_terms(G))
        made = {m: Endomorphism(A, A, m) for m in set(terms.values())}  # one per matrix
        coeffs = {u: made[m] for u, m in terms.items()} or {rF + rG: Endomorphism.zero_map(A)}
        return CellularAutomaton(A, (rF + rG, sF + sG), coeffs=coeffs,
                                 constant=None if const == A.zero else const)
    width = (sF - rF) + (sG - rG) + 1
    if F.alphabet.order ** width > cap:
        raise CapExceeded(f"composite table of width {width} exceeds cap")
    abc = letters(F.alphabet)
    table = {
        w: F.local(G.apply_window(w))
        for w in itertools.product(abc, repeat=width)
    }
    return CellularAutomaton(F.alphabet, (rF + rG, sF + sG), table=table)


def power(F: CellularAutomaton, n: int) -> CellularAutomaton:
    """The n-th iterate of F (n >= 0).  A rule with coefficients is squared
    through `compose`, reading n's bits from the top; a table rule is
    composed one step at a time, since squaring a table costs more than
    widening it by F.  DEFAULT_TABLE_CAP bounds each table, and for
    coefficients the products of term counts summed over the whole chain."""
    if n < 0:
        raise ValueError("negative CA power")
    if n == 0:
        return identity_ca(F.alphabet)
    result = F
    if F.coeffs is None:
        for _ in range(n - 1):
            result = compose(F, result)
        return result
    spent = 0
    for bit in bin(n)[3:]:
        for G in (result, F) if bit == "1" else (result,):
            spent += len(G.coeffs) * len(result.coeffs)
            if spent > DEFAULT_TABLE_CAP:
                raise CapExceeded(f"power {n} by squaring: a running total of {spent} "
                                  f"products of terms exceeds cap {DEFAULT_TABLE_CAP}")
            result = compose(G, result)
    return result


class NotAlgebraicError(ValueError):
    """The rule is not a group endomorphism, so it has no linear form."""


@_memoized
def as_laurent(F: CellularAutomaton) -> CellularAutomaton:
    """The linear form of F, which is its Laurent polynomial sum_u c_u s^u in
    the shift; raises NotAlgebraicError if F has none.

    A linear rule without a constant is returned as it is, so reading costs
    nothing; an affine rule must have a zero constant.  An additive table
    rule is a sum of endomorphisms c_u applied at offsets u, so each c_u is
    read off the images of the generators of A placed alone at u, and the
    table is compared with that linear rule on each of its |A|^width windows,
    once per automaton: every caller gets the same form (`_memoized`).
    """
    if F.coeffs is not None:
        if not F.is_linear:
            raise NotAlgebraicError("affine rule with nonzero constant has no kernel tower")
        if F.constant is None:
            return F
        return CellularAutomaton(F.alphabet, F.neighborhood, coeffs=F.coeffs)
    alphabet = F.alphabet
    zero = alphabet.zero
    width = F.width
    r = F.neighborhood[0]
    if F.table[(zero,) * width] != zero:
        raise NotAlgebraicError("table rule does not map the zero window to zero")
    rank = alphabet.rank
    generators = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    coeffs = {}
    for u in range(width):
        images = [F.table[(zero,) * u + (g,) + (zero,) * (width - 1 - u)]
                  for g in generators]
        try:
            coeffs[r + u] = Endomorphism(alphabet, alphabet, tuple(zip(*images)))
        except ValueError as exc:
            raise NotAlgebraicError(
                f"table rule is not additive at offset {r + u}: {exc}"
            ) from None
    linear = linear_ca(alphabet, coeffs, neighborhood=F.neighborhood)
    for window, value in F.table.items():
        if linear.local(window) != value:
            raise NotAlgebraicError(f"table rule is not additive at window {window}")
    return linear


# -- Laurent polynomials over Z/m, as dicts {offset: coefficient} ---------------


def _poly_mul(a: Mapping[int, int], b: Mapping[int, int], m: int) -> dict[int, int]:
    """The product of two polynomials over Z/m: nonzero residues by offset."""
    acc: defaultdict = defaultdict(int)
    for u, c in a.items():
        for v, d in b.items():
            acc[u + v] += c * d
    return {w: r for w, c in acc.items() if (r := c % m)}


def _poly_divmod(num: Mapping[int, int], den: Mapping[int, int],
                 m: int) -> tuple[dict[int, int], dict[int, int]]:
    """Quotient and remainder over Z/m, for a divisor whose leading (highest
    offset) coefficient is a unit mod m: the remainder's offsets lie below
    the divisor's top offset."""
    top = max(den)
    inv_lead = pow(den[top], -1, m)
    rem = dict(num)
    quot = {}
    for i in range(max(rem, default=top), top - 1, -1):
        q = rem.get(i, 0) * inv_lead % m
        if q:
            shift = i - top
            quot[shift] = q
            for v, d in den.items():
                rem[shift + v] = rem.get(shift + v, 0) - q * d
    return quot, {u: r for u, c in rem.items() if (r := c % m)}


def _poly_pow(f: Mapping[int, int], e: int, m: int,
              mod: Mapping[int, int] | None = None) -> dict[int, int]:
    """f^e over Z/m by squaring, reading e's bits from the top so that every
    product but a square is by f itself; reduced modulo `mod` (whose leading
    coefficient is a unit) when it is given."""
    def reduce(g: dict[int, int]) -> dict[int, int]:
        return g if mod is None else _poly_divmod(g, mod, m)[1]

    acc = reduce({0: 1})
    for bit in bin(e)[2:]:
        acc = reduce(_poly_mul(acc, acc, m))
        if bit == "1":
            acc = reduce(_poly_mul(acc, f, m))
    return acc


# -- surjectivity -------------------------------------------------------------


@record
class SurjectivityResult:
    """Outcome of the word-count balance check on the transition graph.

    `decided` is True when the set of count vectors closed up, which settles
    surjectivity exactly; otherwise the verdict is only 'balanced up to the
    reported depth'.
    """

    surjective: bool
    decided: bool
    depth: int
    witness: Word | None = None

    def __bool__(self) -> bool:
        return self.surjective


def is_surjective(F: CellularAutomaton) -> SurjectivityResult:
    """Balance check: every length-L word must have exactly |A|^(s-r) preimage
    words of length L+(s-r).  Counts are propagated along the overlap graph:
    states are (s-r)-letter windows, and a letter of output advances every
    count vector by one transfer step, to the depth 2(k+1)ceil(log2 |A|) + 4
    for k = s-r.  The graph's edges are the |A|^(k+1) windows, each read
    once by the local rule, so more than DEFAULT_TABLE_CAP windows raise
    CapExceeded before anything is allocated, naming the |A|^k overlap
    states when they alone pass the cap.
    """
    small = F.smallest_neighborhood()
    r, s = small.neighborhood
    k = s - r
    n = small.alphabet.order
    if n ** (k + 1) > DEFAULT_TABLE_CAP:
        size = (f"overlap graph of |A|^{k} = {n**k} states" if n**k > DEFAULT_TABLE_CAP
                else f"rule of |A|^{k + 1} = {n ** (k + 1)} windows")
        raise CapExceeded(f"surjectivity {size} exceeds cap {DEFAULT_TABLE_CAP}")
    abc = letters(small.alphabet)
    l_max = 2 * (k + 1) * max(1, math.ceil(math.log2(n))) + 4
    states = list(itertools.product(abc, repeat=k))
    index = {u: i for i, u in enumerate(states)}
    edges_by_letter: dict[Element, list[tuple[int, int]]] = {b: [] for b in abc}
    for u in states:
        for a in abc:
            full = u + (a,)
            b = small.local(full)
            edges_by_letter[b].append((index[u], index[full[1:]]))
    target = n**k
    start = (1,) * len(states)
    seen = {start}
    frontier: list[tuple[tuple[int, ...], Word]] = [(start, ())]
    depth = 0
    while frontier and depth < l_max:
        depth += 1
        next_frontier = []
        for vec, word in frontier:
            for b in abc:
                out = [0] * len(states)
                for u_i, v_i in edges_by_letter[b]:
                    out[v_i] += vec[u_i]
                total = sum(out)
                if total != target:
                    return SurjectivityResult(False, True, depth, word + (b,))
                tvec = tuple(out)
                if tvec not in seen:
                    seen.add(tvec)
                    next_frontier.append((tvec, word + (b,)))
        frontier = next_frontier
    return SurjectivityResult(True, not frontier, depth)


# -- cylinder preimages --------------------------------------------------------


def cylinder_preimage(F: CellularAutomaton, cyl: Cylinder,
                      cap: int = DEFAULT_PREIMAGE_CAP) -> list[Cylinder]:
    """F^-1 of a cylinder as a disjoint union of cylinders.

    The preimage constrains exactly the coordinates [i+r, i+|w|-1+s]; the
    returned cylinders enumerate every input word mapping onto the target.
    """
    small = F.smallest_neighborhood()
    r, s = small.neighborhood
    k = s - r
    abc = letters(small.alphabet)
    out: list[Cylinder] = []
    target = cyl.word
    cylinder = configs.Cylinder

    # depth-first extension of each seed of k letters: each new letter must
    # complete a window mapping onto the next target letter.
    def extend(prefix: Word) -> None:
        t = len(prefix) - k
        if t == len(target):
            if len(out) >= cap:
                raise CapExceeded(f"preimage cylinder count exceeds cap {cap}")
            out.append(cylinder(cyl.offset + r, prefix))
            return
        for a in abc:
            if small.local(prefix[t:] + (a,)) == target[t]:
                extend(prefix + (a,))

    for seed in itertools.product(abc, repeat=k):
        extend(seed)
    return out
