"""Structure lemmas for linear rules over prime-power cyclic alphabets.

Covers the unit-coefficient support, the bipermutative power, the Frobenius
congruence for polynomial powers, the invertible-matrix period bound, the
order of x modulo a monic polynomial over Z/m that gives every kernel shift
period, and polynomial factorization over prime fields with the kernel
direct sum check.  Each rule is read through its linear form
(`automata.as_laurent`), so an additive table counts as the linear rule it
equals.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from .automata import CellularAutomaton, as_laurent, linear_ca, power
from .groups import CapExceeded, GroupSpec, _gl_order, _is_prime, _prime_factors

MAX_FACTOR_DEGREE = 8


def _scalar_coeffs(F: CellularAutomaton | dict) -> dict[int, int]:
    """Residues by offset of the linear form (`as_laurent`) of a rule on a
    cyclic alphabet, or of a dict."""
    if isinstance(F, dict):
        return dict(F)
    if F.alphabet.rank != 1:
        raise ValueError("needs a rule on a cyclic alphabet")
    return {u: f.matrix[0][0] for u, f in as_laurent(F).coeffs.items()}


@dataclass(frozen=True)
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
    """Verify (P1 + p*P2)^(p^j) = P1^(p^j) mod p^(j+1) by exact expansion.
    Both sides are first multiplied by x^(-v), v their lowest offset, which
    multiplies both powers by x^(-v p^j)."""
    if j < 0:
        raise ValueError("power index must be >= 0")
    m, e = p ** (j + 1), p**j
    a, b = _scalar_coeffs(P1), _scalar_coeffs(P2)
    low = min([*a, *b], default=0)
    whole = {u: a.get(u, 0) + p * b.get(u, 0) for u in {*a, *b}}
    return _dense_pow(_dense(whole, low, m), e, m) == _dense_pow(_dense(a, low, m), e, m)


def divisor_bound(p: int, r: int) -> int:
    """Count of invertible r x r matrices over the prime field: the universal
    divisor of first-level kernel periods."""
    if r < 1:
        raise ValueError("width must be >= 1")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _gl_order(p, r)


# -- dense polynomials over Z/m, factorization over prime fields ----------------


def _dense_trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _dense(coeffs: dict[int, int], low: int, m: int) -> tuple[int, ...]:
    """sum_u c_u x^(u - low) over Z/m, lowest power first."""
    out = [0] * (max(coeffs, default=low) - low + 1)
    for u, c in coeffs.items():
        out[u - low] = c % m
    return _dense_trim(out)


def _dense_mul(a: tuple[int, ...], b: tuple[int, ...], m: int) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] = (out[i + j] + c * d) % m
    return _dense_trim(out)


def _dense_divmod(
    num: tuple[int, ...], den: tuple[int, ...], m: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Quotient and remainder over Z/m, for a divisor whose leading
    coefficient is a unit mod m."""
    num_l = list(num)
    deg_d = len(den) - 1
    inv_lead = pow(den[-1], -1, m)
    quot = [0] * max(0, len(num) - deg_d)
    for i in range(len(num) - 1, deg_d - 1, -1):
        c = num_l[i]
        if c == 0:
            continue
        q = (c * inv_lead) % m
        quot[i - deg_d] = q
        for j, d in enumerate(den):
            num_l[i - deg_d + j] = (num_l[i - deg_d + j] - q * d) % m
    return _dense_trim(quot), _dense_trim(num_l)


def _dense_pow(
    f: tuple[int, ...], e: int, m: int, mod: tuple[int, ...] | None = None
) -> tuple[int, ...]:
    """f^e over Z/m by repeated squaring, reduced modulo `mod` (whose
    leading coefficient is a unit) when it is given."""
    def reduce(g: tuple[int, ...]) -> tuple[int, ...]:
        return g if mod is None else _dense_divmod(g, mod, m)[1]

    acc, base = reduce((1,)), reduce(f)
    while e:
        if e & 1:
            acc = reduce(_dense_mul(acc, base, m))
        base = reduce(_dense_mul(base, base, m))
        e >>= 1
    return acc


def _x_order(f: tuple[int, ...], m: int, bound: int,
             primes: list[int] | None = None) -> int:
    """Multiplicative order of x modulo a monic f over Z/m with f(0) a unit,
    found from `bound`, a multiple of it: for instance |GL_deg(f)(Z/m)|, as
    x acts invertibly on the free module Z/m[x]/(f), or p^deg(f) - 1 for an
    irreducible f over a prime field.  Each of `primes` (by default those of
    `bound`) costs one full exponentiation and one raising to that prime per
    power the order keeps."""
    order = bound
    for ell in _prime_factors(bound) if primes is None else primes:
        v = 0  # strip ell from the multiple, then restore the powers x needs
        while order % ell == 0:
            order, v = order // ell, v + 1
        y = _dense_pow((0, 1), order, m, f)
        while y != (1,) and v:
            y, order, v = _dense_pow(y, ell, m, f), order * ell, v - 1
    return order


@dataclass(frozen=True)
class Factorization:
    """Factorization of a Laurent polynomial over a prime field.

    The original polynomial equals unit * X^shift_power * prod(f^m) for the
    monic irreducible factors f with multiplicities m.
    """

    p: int
    shift_power: int
    unit: int
    factors: tuple[tuple[tuple[int, ...], int], ...]

    @property
    def is_irreducible(self) -> bool:
        return len(self.factors) == 1 and self.factors[0][1] == 1

    def reassemble(self) -> dict[int, int]:
        acc = (self.unit,)
        for f, m in self.factors:
            acc = _dense_mul(acc, _dense_pow(f, m, self.p), self.p)
        return {i + self.shift_power: c for i, c in enumerate(acc) if c}

    def factor_automata(self, alphabet: GroupSpec) -> list[tuple[CellularAutomaton, int]]:
        """One CA per irreducible factor raised to its multiplicity."""
        return [
            (linear_ca(alphabet, dict(enumerate(_dense_pow(f, m, self.p)))), m)
            for f, m in self.factors
        ]


def factor_mod_p(poly: CellularAutomaton | dict, p: int | None = None) -> Factorization:
    """Factor into monic irreducibles by trial division of increasing degree.

    Degrees are capped at 8: candidates found in increasing degree order are
    automatically irreducible because all smaller factors were removed first.
    """
    if p is None:
        if isinstance(poly, dict):
            raise ValueError("plain coefficient dicts need an explicit prime")
        p = poly.alphabet.moduli[0]
    coeffs = _scalar_coeffs(poly)
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    coeffs = {u: c % p for u, c in coeffs.items() if c % p}
    if not coeffs:
        raise ValueError("zero polynomial")
    shift = min(coeffs)
    deg = max(coeffs) - shift
    if deg > MAX_FACTOR_DEGREE:
        raise ValueError(f"degree {deg} exceeds the factorization cap {MAX_FACTOR_DEGREE}")
    rem = _dense(coeffs, shift, p)
    unit = rem[-1]
    inv = pow(unit, -1, p)
    rem = tuple((c * inv) % p for c in rem)
    factors: list[tuple[tuple[int, ...], int]] = []
    d = 1
    while len(rem) - 1 > 0:
        if 2 * d > len(rem) - 1:
            factors.append((rem, 1))
            break
        for low in itertools.product(range(p), repeat=d):
            cand = low + (1,)
            mult = 0
            while len(rem) - 1 >= d:
                quot, r = _dense_divmod(rem, cand, p)
                if r:
                    break
                rem = quot
                mult += 1
            if mult:
                factors.append((cand, mult))
            if len(rem) - 1 < 2 * d:
                break
        d += 1
    return Factorization(p, shift, unit, tuple(factors))


def kernel_direct_sum_check(F: CellularAutomaton, n: int, cap: int = 1 << 14) -> bool:
    """Check that the n-th kernel splits as the direct sum of the kernels of
    the coprime factor powers: sizes multiply and the sum map is bijective."""
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
