"""Structure lemmas for linear rules over prime-power cyclic alphabets.

Covers the unit-coefficient support, the bipermutative power, the Frobenius
congruence for polynomial powers, and one factorization over prime fields:
a monic P is split once into squarefree, then distinct-degree parts
(`_parts`, memoized by P and p).  The order of x modulo P^n over Z/m, which
gives every kernel shift period, reads those parts; the irreducible factors
(`_factors`), which `factor_mod_p`, the kernel closed form and the kernel
direct sum check read, split them by equal degree.
Each rule is read through its linear form (`automata.as_laurent`), so an
additive table counts as the linear rule it equals.
"""

from __future__ import annotations

import functools
import itertools
import math
from .automata import (CellularAutomaton, _poly_divmod, _poly_pow, as_laurent, linear_ca,
                       power)
from .groups import CapExceeded, GroupSpec, _is_prime, _prime_factors, record


def _scalar_coeffs(F: CellularAutomaton | dict) -> dict[int, int]:
    """Residues by offset of the linear form (`as_laurent`) of a rule on a
    cyclic alphabet, or of a dict."""
    if isinstance(F, dict):
        return dict(F)
    if F.alphabet.rank != 1:
        raise ValueError("needs a rule on a cyclic alphabet")
    return {u: f.matrix[0][0] for u, f in as_laurent(F).coeffs.items()}


@record
class PermutativeSupport:
    """Offsets whose coefficient is a unit mod p, with its extremes."""

    p: int
    k: int
    offsets: tuple[int, ...]

    @property
    def is_empty(self) -> bool:
        return not self.offsets

    @property
    def r_hat(self) -> int:
        if self.is_empty:
            raise ValueError("empty unit support")
        return self.offsets[0]

    @property
    def s_hat(self) -> int:
        if self.is_empty:
            raise ValueError("empty unit support")
        return self.offsets[-1]


def permutative_support(F: CellularAutomaton) -> PermutativeSupport:
    """Offsets of coefficients coprime with the base prime."""
    coeffs = _scalar_coeffs(F)
    d = F.alphabet.moduli[0]
    primes = _prime_factors(d)
    if len(primes) != 1:
        raise ValueError(f"modulus {d} is not a prime power")
    p = primes[0]
    k = next(k for k in itertools.count(1) if p**k == d)
    units = tuple(sorted(u for u, c in coeffs.items() if math.gcd(c, p) == 1))
    return PermutativeSupport(p, k, units)


def bipermutative_power(F: CellularAutomaton) -> CellularAutomaton:
    """F iterated p^(k-1) times, which is bipermutative with smallest
    neighborhood scaled from the unit support.  Both facts are asserted."""
    sup = permutative_support(F)
    if sup.is_empty:
        raise ValueError("no unit coefficients: no bipermutative power exists")
    if sup.r_hat >= sup.s_hat:
        raise ValueError("unit support must contain two distinct offsets")
    q = sup.p ** (sup.k - 1)
    Fq = power(as_laurent(F), q).smallest_neighborhood()
    if Fq.neighborhood != (q * sup.r_hat, q * sup.s_hat):
        raise AssertionError(
            f"power neighborhood {Fq.neighborhood} differs from "
            f"({q * sup.r_hat}, {q * sup.s_hat})"
        )
    if not Fq.permutativity().bipermutative:
        raise AssertionError("power is not bipermutative")
    return Fq


def frobenius_congruence_check(
    P1: CellularAutomaton | dict, P2: CellularAutomaton | dict, p: int, j: int
) -> bool:
    """Verify (P1 + p*P2)^(p^j) = P1^(p^j) mod p^(j+1) by exact expansion."""
    if j < 0:
        raise ValueError("power index must be >= 0")
    m, e = p ** (j + 1), p**j
    a, b = _scalar_coeffs(P1), _scalar_coeffs(P2)
    whole = {u: a.get(u, 0) + p * b.get(u, 0) for u in {*a, *b}}
    return _poly_pow(whole, e, m) == _poly_pow(a, e, m)


# -- the order of x, factorization over prime fields ----------------------------

# Miller-Rabin with the first 13 primes as bases is exact below this bound, the
# least strong pseudoprime to all of them (Sorenson & Webster, Math. Comp. 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime_mr(n: int) -> bool:
    """Whether n is prime, by Miller-Rabin to the bases `_MR_BASES`.  A base
    that refutes n proves it composite at any size; an n past `_MR_BOUND`
    that no base refutes raises CapExceeded."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        y = pow(b, d, n)
        if y == 1 or y == n - 1:
            continue
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    if n >= _MR_BOUND:
        raise CapExceeded(f"primality of {n} is past the Miller-Rabin bound {_MR_BOUND}")
    return True


def _split(n: int) -> int:
    """A proper divisor of an odd composite n, by Brent's variant of Pollard's
    rho: y -> y^2 + c from y = 2, compared with its value at the last power of
    two steps, for c = 1, 2, ... until one splits n."""
    for c in itertools.count(1):
        y, r, g = 2, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
                g = math.gcd(x - y, n)
                if g != 1:
                    break
            r *= 2
        if g != n:
            return g


def _primes_of(n: int) -> list[int]:
    """The distinct primes of n >= 1: trial division below 2^10, then what is
    left split by `_split` until `_is_prime_mr` holds of every piece.  So a
    multiple p^d - 1 with a large prime factor (2^61 - 1 is one) is answered
    in milliseconds."""
    primes, d = set(), 2
    while d < 1024 and d * d <= n:
        if n % d == 0:
            primes.add(d)
            while n % d == 0:
                n //= d
        d += 1
    pending = [n] if n > 1 else []
    while pending:
        n = pending.pop()
        if _is_prime_mr(n):
            primes.add(n)
        else:
            g = _split(n)
            pending += [g, n // g]
    return sorted(primes)


def _x_order(f: dict[int, int], m: int, bound: int,
             primes: list[int] | None = None) -> int:
    """Multiplicative order of x modulo a monic f over Z/m with f(0) a unit,
    found from `bound`, a multiple of it: p^d - 1 for a product of distinct
    irreducibles of degree d over Z/p, or e p^(j-1) over Z/p^j for e the
    order mod p, with `primes` [p].  Each of `primes` (by default those of
    `bound`, `_primes_of`) costs one full exponentiation and one raising to
    that prime per power the order keeps; with `primes` given, the order
    must share the part of `bound` prime to them."""
    order = bound
    for ell in _primes_of(bound) if primes is None else primes:
        v = 0  # strip ell from the multiple, then restore the powers x needs
        while order % ell == 0:
            order, v = order // ell, v + 1
        y = _poly_pow({1: 1}, order, m, f)
        while y != {0: 1} and v:
            y, order, v = _poly_pow(y, ell, m, f), order * ell, v - 1
    return order


def _add(a: dict[int, int], b: dict[int, int], p: int) -> dict[int, int]:
    """The sum of two polynomials over Z/p."""
    return {u: r for u in a.keys() | b.keys() if (r := (a.get(u, 0) + b.get(u, 0)) % p)}


def _gcd(a: dict[int, int], b: dict[int, int], p: int) -> dict[int, int]:
    """The monic gcd of a nonzero a and b over Z/p, by Euclid's algorithm."""
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    inv = pow(a[max(a)], -1, p)
    return {u: c * inv % p for u, c in a.items()}


def _squarefree_parts(f: dict[int, int], p: int) -> list[tuple[dict[int, int], int]]:
    """Yun's squarefree decomposition of a monic f over Z/p: pairs (a_i, i)
    of monic, squarefree, pairwise coprime a_i of degree >= 1 with f =
    prod a_i^i.  gcd(f, f') keeps each factor's multiplicity less one, except
    those divisible by p, which it keeps whole; what is left of it after the
    loop is a p-th power g(x^p) = g(x)^p, decomposed in turn (the p-th-root
    step, which is all of f when f' = 0)."""
    parts, i = [], 1
    c = _gcd(f, {u - 1: r for u, a in f.items() if (r := u * a % p)}, p)
    w = _poly_divmod(f, c, p)[0]
    while max(w):
        y = _gcd(w, c, p)
        if max(w) > max(y):
            parts.append((_poly_divmod(w, y, p)[0], i))
        c, w, i = _poly_divmod(c, y, p)[0], y, i + 1
    if max(c):
        root = {u // p: a for u, a in c.items()}
        parts += [(a, e * p) for a, e in _squarefree_parts(root, p)]
    return parts


def _distinct_degree(g: dict[int, int], p: int) -> list[tuple[dict[int, int], int]]:
    """The distinct-degree factorization of a monic squarefree g over Z/p:
    pairs (h_d, d), h_d the product of g's irreducible factors of degree d,
    which gcd(g, x^(p^d) - x) holds once the lower degrees are divided out
    (Lidl & Niederreiter, Finite Fields, Thm 3.20)."""
    parts, h, d = [], {1: 1}, 0
    while 2 * (d + 1) <= max(g):
        d += 1
        h = _poly_pow(h, p, p, g)  # x^(p^d) mod g
        t = _gcd(g, _add(h, {1: -1}, p), p)
        if max(t):
            parts.append((t, d))
            g = _poly_divmod(g, t, p)[0]
            h = _poly_divmod(h, g, p)[1]
    if max(g):
        parts.append((g, max(g)))
    return parts


def _equal_degree(h: dict[int, int], d: int, p: int) -> list[dict[int, int]]:
    """The monic irreducible factors of a monic squarefree h over Z/p, all of
    degree d, by Berlekamp's trace algorithm (Math. Comp. 24, 1970).  Modulo
    each of h's r factors the trace t = sum_(i<d) x^(j p^i) mod h lies in
    Z/p.  The trace map onto (Z/p)^r is onto and the x^j, j < deg h, span
    Z/p[x]/(h), so for r >= 2 some j in 1 .. deg h - 1 gives a t that is not
    constant, and gcd(h, t + c), for odd p after gcd(h, (t + c)^((p-1)/2) - 1),
    splits h for some c in 0 .. p - 1.  No step is random."""
    if max(h) == d:
        return [h]
    for j in range(1, max(h)):
        a = t = _poly_divmod({j: 1}, h, p)[1]
        for _ in range(d - 1):
            a = _poly_pow(a, p, p, h)
            t = _add(t, a, p)
        for c in range(p if max(t, default=0) else 0):  # a constant t splits nothing
            s = _add(t, {0: c}, p)
            for u in (_add(_poly_pow(s, (p - 1) // 2, p, h), {0: -1}, p), s):  # 0 for p = 2
                if 0 < max(g := _gcd(h, u, p)) < max(h):
                    return _equal_degree(g, d, p) + _equal_degree(_poly_divmod(h, g, p)[0], d, p)
    raise AssertionError("no trace splits h")  # unreachable, by the argument above


def _sparse(poly: tuple[int, ...]) -> dict[int, int]:
    """The nonzero entries of a coefficient tuple by power: no zero entry slows
    a reduction or folds into x^0 at a p-th root (`_squarefree_parts`)."""
    return {u: c for u, c in enumerate(poly) if c}


@functools.lru_cache(maxsize=256)
def _parts(poly: tuple[int, ...], p: int) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """The squarefree (`_squarefree_parts`), then distinct-degree
    (`_distinct_degree`) split of the monic P = sum poly[i] x^i over Z/p,
    poly reduced mod p: triples (h_d, d, i), h_d the product of P's
    irreducible factors of degree d and multiplicity i, as a coefficient
    tuple lowest power first.  Memoized by (poly, p): the orders of x and
    the factors of one P read one split."""
    return tuple((tuple(h.get(u, 0) for u in range(max(h) + 1)), d, i)
                 for part, i in _squarefree_parts(_sparse(poly), p)
                 for h, d in _distinct_degree(part, p))


@functools.lru_cache(maxsize=256)
def _order_of_x(poly: tuple[int, ...], m: int, n: int) -> int:
    """The order of x modulo P^n over Z/m, for P = sum poly[i] x^i monic with
    P(0) a unit, poly reduced mod m: the shift period of (Z/m)[x]/(P^n).  Over
    Z/p it is the lcm of x's orders mod the h_d of `_parts`, each dividing
    p^d - 1, times the least p^t >= n times the largest multiplicity (Lidl &
    Niederreiter, Finite Fields, Thm 3.8-3.9).  Over Z/p^j, x to the order e
    mod p is 1 + p(...) mod P^n, whose p^(j-1)-th power is 1, so `_x_order`
    descends from e p^(j-1) by p alone; over a composite m it is the lcm over
    the p^j exactly dividing m.  Memoized by (poly, m, n)."""
    primes = _prime_factors(m)
    if len(primes) > 1:
        return math.lcm(*(_order_of_x(tuple(c % q for c in poly), q, n)
                          for q in (math.gcd(m, p ** m.bit_length()) for p in primes)))
    p = primes[0]
    if m > p:
        e = _order_of_x(tuple(c % p for c in poly), p, n)
        return _x_order(_poly_pow(_sparse(poly), n, m), m, e * m // p, [p])
    parts, power = _parts(poly, p), 1
    while power < n * max(i for *_, i in parts):
        power *= p
    if n > 1:  # n = 1's e p^t, e prime to p and p^t dividing power: e does not move with n
        e = _order_of_x(poly, p, 1)
        return e // math.gcd(e, power) * power
    return math.lcm(*(_x_order(_sparse(h), p, p**d - 1) for h, d, _ in parts)) * power


@functools.lru_cache(maxsize=256)
def _factors(poly: tuple[int, ...], p: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The monic irreducible factors of the monic P = sum poly[i] x^i over Z/p,
    poly reduced mod p, with their multiplicities: each h_d of `_parts`
    split by `_equal_degree`, sorted by degree, then coefficients lowest
    power first.  Memoized by (poly, p)."""
    return tuple(sorted(((tuple(f.get(u, 0) for u in range(d + 1)), i)
                         for h, d, i in _parts(poly, p)
                         for f in _equal_degree(_sparse(h), d, p)),
                        key=lambda fi: (len(fi[0]), fi[0])))


@record
class Factorization:
    """Factorization of a Laurent polynomial over a prime field.

    The original polynomial equals unit * X^shift_power * prod(f^m) for the
    monic irreducible factors f, as coefficient tuples lowest power first,
    with multiplicities m.
    """

    p: int
    shift_power: int
    unit: int
    factors: tuple[tuple[tuple[int, ...], int], ...]

    def factor_automata(self, alphabet: GroupSpec) -> list[tuple[CellularAutomaton, int]]:
        """One CA per irreducible factor raised to its multiplicity."""
        return [(linear_ca(alphabet, _poly_pow(dict(enumerate(f)), m, self.p)), m)
                for f, m in self.factors]


def factor_mod_p(F: CellularAutomaton) -> Factorization:
    """Factor the linear form of a rule over Z/p into monic irreducibles of any
    degree: its polynomial is normalized to a monic P with P(0) != 0, whose
    factors `_factors` gives, memoized by P."""
    p, coeffs = F.alphabet.moduli[0], _scalar_coeffs(F)
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    coeffs = {u: c % p for u, c in coeffs.items() if c % p}
    if not coeffs:
        raise ValueError("zero polynomial")
    shift, unit = min(coeffs), coeffs[max(coeffs)]
    inv = pow(unit, -1, p)
    poly = tuple(coeffs.get(u, 0) * inv % p for u in range(shift, max(coeffs) + 1))
    return Factorization(p, shift, unit, _factors(poly, p))


def kernel_direct_sum_check(F: CellularAutomaton, n: int) -> bool:
    """Check that the n-th kernel splits as the direct sum of the kernels of
    the coprime factor powers: sizes multiply and the sum map is bijective.
    Each kernel, and the set of sums, is refused past 2^14 elements."""
    cap = 1 << 14
    from .kernels import kernel_elements  # kernels imports this module

    fact = factor_mod_p(F)  # refuses all but a linear rule over a prime field
    whole = set(kernel_elements(F, n, cap))
    pieces = [kernel_elements(G, n, cap) for G, _ in fact.factor_automata(F.alphabet)]
    if math.prod(len(piece) for piece in pieces) != len(whole):
        return False
    sums = set()
    for combo in itertools.product(*pieces):
        if len(sums) > cap:
            raise CapExceeded(f"direct sum enumeration exceeds cap {cap}")
        total = combo[0]
        for x in combo[1:]:
            total = total + x
        sums.add(total)
    return sums == whole
