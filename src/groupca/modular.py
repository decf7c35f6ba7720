"""Structure lemmas for linear rules over prime-power cyclic alphabets.

Covers the unit-coefficient support, the bipermutative power, the Frobenius
congruence for polynomial powers, the order of x modulo a monic polynomial
over Z/m that gives every kernel shift period, and polynomial factorization
over prime fields with the kernel direct sum check.  Each rule is read
through its linear form (`automata.as_laurent`), so an additive table counts
as the linear rule it equals.
"""

from __future__ import annotations

import itertools
import math
from .automata import (CellularAutomaton, _memoized, _poly_divmod, _poly_pow, as_laurent,
                       linear_ca, power)
from .groups import CapExceeded, GroupSpec, _is_prime, _prime_factors, record

MAX_FACTOR_DEGREE = 8


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


def _x_order(f: dict[int, int], m: int, bound: int,
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
        y = _poly_pow({1: 1}, order, m, f)
        while y != {0: 1} and v:
            y, order, v = _poly_pow(y, ell, m, f), order * ell, v - 1
    return order


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


@_memoized
def factor_mod_p(F: CellularAutomaton) -> Factorization:
    """Factor the linear form of a rule over Z/p into monic irreducibles by
    trial division of increasing degree.

    Degrees are capped at 8: candidates found in increasing degree order are
    automatically irreducible because all smaller factors were removed first.
    The factorization is kept on the automaton (`_memoized`).
    """
    p = F.alphabet.moduli[0]
    coeffs = _scalar_coeffs(F)
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    coeffs = {u: c % p for u, c in coeffs.items() if c % p}
    if not coeffs:
        raise ValueError("zero polynomial")
    shift, top = min(coeffs), max(coeffs)
    if top - shift > MAX_FACTOR_DEGREE:
        raise ValueError(f"degree {top - shift} exceeds the factorization cap {MAX_FACTOR_DEGREE}")
    unit = coeffs[top]
    inv = pow(unit, -1, p)
    rem = {u - shift: c * inv % p for u, c in coeffs.items()}
    factors: list[tuple[tuple[int, ...], int]] = []
    d = 1
    while max(rem) > 0:
        if 2 * d > max(rem):
            factors.append((tuple(rem.get(i, 0) for i in range(max(rem) + 1)), 1))
            break
        # rem(0) != 0, so a candidate with a zero constant term cannot divide
        for low in itertools.product(range(1, p), *[range(p)] * (d - 1)):
            cand = low + (1,)
            den = dict(enumerate(cand))
            mult = 0
            while max(rem) >= d:
                quot, r = _poly_divmod(rem, den, p)
                if r:
                    break
                rem = quot
                mult += 1
            if mult:
                factors.append((cand, mult))
            if max(rem) < 2 * d:
                break
        d += 1
    return Factorization(p, shift, unit, tuple(factors))


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
