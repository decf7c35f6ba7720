"""Prime-power structure lemmas and prime-field factorization."""

import itertools
import math
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupca.automata import (NotAlgebraicError, _poly_divmod, _poly_mul, _poly_pow, as_laurent,
                              linear_ca, table_from_rule)
from groupca.groups import CapExceeded, GroupSpec, _prime_factors
from groupca.kernels import kernel_elements, recurrence_matrix
from groupca.modular import (
    _distinct_degree,
    _gcd,
    _primes_of,
    _squarefree_parts,
    bipermutative_power,
    factor_mod_p,
    frobenius_congruence_check,
    kernel_direct_sum_check,
    permutative_support,
)
from test_kernels import _gl_order, _poly_gcd

Z2 = GroupSpec((2,))
Z4 = GroupSpec((4,))
Z8 = GroupSpec((8,))
Z9 = GroupSpec((9,))

F_mod4 = linear_ca(Z4, {0: 1, 1: 1, 2: 2})


def expand_poly_mod(coeffs, e, mod):
    """Oracle: polynomial power by repeated schoolbook convolution."""
    acc = {0: 1}
    for _ in range(e):
        out = {}
        for u, c in acc.items():
            for v, d in coeffs.items():
                out[u + v] = (out.get(u + v, 0) + c * d) % mod
        acc = {u: c for u, c in out.items() if c}
    return acc


# -- dense polynomials over Z/m, lowest power first: the oracle for the
# {offset: coefficient} arithmetic in `automata`


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


@st.composite
def _polys_over(draw, m):
    """A polynomial over Z/m as a dense tuple and as a sparse dict."""
    dense = _dense_trim(draw(st.lists(st.integers(0, m - 1), max_size=7)))
    return dense, {u: c for u, c in enumerate(dense) if c}


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_polynomial_arithmetic_matches_the_dense_oracle(data):
    m = data.draw(st.integers(2, 12))
    (a, a_sparse), (b, b_sparse) = data.draw(_polys_over(m)), data.draw(_polys_over(m))
    # a divisor of degree >= 1 whose leading coefficient is a unit mod m
    low = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=5))
    lead = data.draw(st.sampled_from([c for c in range(1, m) if math.gcd(c, m) == 1]))
    f = tuple(low) + (lead,)
    f_sparse = dict(enumerate(f))
    e = data.draw(st.integers(0, 300))

    def dense(poly: dict) -> tuple[int, ...]:
        return _dense(poly, 0, m)

    assert dense(_poly_mul(a_sparse, b_sparse, m)) == _dense_mul(a, b, m)
    quot, rem = _poly_divmod(a_sparse, f_sparse, m)
    assert (dense(quot), dense(rem)) == _dense_divmod(a, f, m)
    assert all(c for c in (*quot.values(), *rem.values()))
    assert dense(_poly_pow(a_sparse, e % 20, m)) == _dense_pow(a, e % 20, m)
    assert dense(_poly_pow(a_sparse, e, m, f_sparse)) == _dense_pow(a, e, m, f)


def test_permutative_support_examples():
    sup = permutative_support(F_mod4)
    assert sup.offsets == (0, 1)
    assert (sup.p, sup.k) == (2, 2)
    assert permutative_support(linear_ca(Z4, {0: 2, 1: 2})).is_empty
    assert permutative_support(linear_ca(Z2, {0: 1, 1: 1})).offsets == (0, 1)


def test_permutative_support_rejects_composite():
    with pytest.raises(ValueError):
        permutative_support(linear_ca(GroupSpec((6,)), {0: 1, 1: 1}))


def test_bipermutative_power_mod4_example():
    Fq = bipermutative_power(F_mod4)
    assert Fq.neighborhood == (0, 2)
    assert as_laurent(Fq).coeffs == linear_ca(Z4, {0: 1, 1: 2, 2: 1}).coeffs
    assert Fq.permutativity().bipermutative
    # oracle: expand (1 + X + 2 X^2)^2 mod 4 independently
    assert expand_poly_mod({0: 1, 1: 1, 2: 2}, 2, 4) == {0: 1, 1: 2, 2: 1}


def test_bipermutative_power_already_bipermutative():
    F = linear_ca(Z2, {0: 1, 1: 1})
    assert bipermutative_power(F).coeffs == F.coeffs


def test_bipermutative_power_single_unit_offset_rejected():
    with pytest.raises(ValueError):
        bipermutative_power(linear_ca(Z9, {0: 1, 1: 3}))


def test_frobenius_congruence_examples():
    assert frobenius_congruence_check({0: 1, 1: 1}, {2: 1}, p=2, j=1)
    assert frobenius_congruence_check({0: 1, 1: 1}, {}, p=2, j=1)
    rng = random.Random(7)
    for _ in range(10):
        P1 = {u: rng.randrange(8) for u in range(rng.randint(1, 3))}
        P2 = {u: rng.randrange(8) for u in range(rng.randint(1, 3))}
        assert frobenius_congruence_check(P1, P2, p=2, j=2)


def test_frobenius_congruence_oracle_agreement():
    # the two sides really are equal as full expansions mod p^(j+1)
    p, j = 2, 1
    mod = p ** (j + 1)
    P1 = {0: 1, 1: 1}
    P2 = {2: 1}
    lhs = expand_poly_mod({0: 1, 1: 1, 2: 2}, p**j, mod)
    rhs = expand_poly_mod(P1, p**j, mod)
    assert lhs == rhs


def test_divisor_bound_values():
    # |GL_r(F_p)|, the universal divisor of first-level kernel periods
    assert _gl_order(2, 1) == 1
    assert _gl_order(2, 2) == 6
    assert _gl_order(3, 1) == 2
    assert _gl_order(5, 3) == (125 - 1) * (125 - 5) * (125 - 25)


def test_factor_examples():
    assert factor_mod_p(linear_ca(Z2, {0: 1, 1: 1})).factors == (((1, 1), 1),)
    f = factor_mod_p(linear_ca(Z2, {0: 1, 2: 1}))
    assert f.factors == (((1, 1), 2),)
    assert factor_mod_p(linear_ca(Z2, {0: 1, 1: 1, 2: 1})).factors == (((1, 1, 1), 1),)


def reassemble(f):
    """Oracle: the product unit * X^shift_power * prod(factor^multiplicity)."""
    acc = {f.shift_power: f.unit}
    for factor, m in f.factors:
        acc = _poly_mul(acc, _poly_pow(dict(enumerate(factor)), m, f.p), f.p)
    return acc


def test_factor_reassembles_input():
    rng = random.Random(3)
    for p in (2, 3, 5):
        for _ in range(15):
            deg = rng.randint(1, 6)
            coeffs = {u: rng.randrange(p) for u in range(deg)}
            coeffs[deg] = rng.randrange(1, p)
            shift = rng.randint(-2, 2)
            poly = {u + shift: c for u, c in coeffs.items() if c}
            f = factor_mod_p(linear_ca(GroupSpec((p,)), poly))
            assert reassemble(f) == poly


def test_factor_multiplicity_structure():
    # (1+X)^3 (1+X+X^2) over Z/2
    a = {0: 1, 1: 1}
    poly = expand_poly_mod(a, 3, 2)
    b = {0: 1, 1: 1, 2: 1}
    prod = {}
    for u, c in poly.items():
        for v, d in b.items():
            prod[u + v] = (prod.get(u + v, 0) + c * d) % 2
    f = factor_mod_p(linear_ca(Z2, {u: c for u, c in prod.items() if c}))
    assert set(f.factors) == {((1, 1), 3), ((1, 1, 1), 1)}


def test_factor_past_degree_8():
    # 1 + x^9 = (1 + x)(1 + x + x^2)(1 + x^3 + x^6) over Z/2: no degree is refused
    f = factor_mod_p(linear_ca(Z2, {0: 1, 9: 1}))
    assert f.factors == (((1, 1), 1), ((1, 1, 1), 1), ((1, 0, 0, 1, 0, 0, 1), 1))
    assert factor_mod_p(linear_ca(Z2, {0: 1, 1: 1, 9: 1})).factors == (
        ((1, 1) + (0,) * 7 + (1,), 1),)


@pytest.mark.parametrize("roots", [(1, 2), (500_000, 7)])
def test_factor_over_a_large_prime_field(roots):
    # (x - a)(x - b) over Z/1,000,003: the trace splits it in a few steps
    p = 1_000_003
    a, b = roots
    start = time.perf_counter()
    f = factor_mod_p(linear_ca(GroupSpec((p,)), {0: a * b % p, 1: -(a + b) % p, 2: 1}))
    assert time.perf_counter() - start < 1
    assert f.factors == tuple(sorted((((-r % p, 1), 1) for r in roots)))


def test_prime_checks_reject_small_composite_and_prime_power_moduli():
    for bad in (4, 6):
        with pytest.raises(ValueError, match="not prime"):
            factor_mod_p(linear_ca(GroupSpec((bad,)), {0: 1, 1: 1}))
    with pytest.raises(ValueError):
        permutative_support(linear_ca(GroupSpec((12,)), {0: 1, 1: 1}))
    with pytest.raises(ValueError):
        kernel_direct_sum_check(linear_ca(Z4, {0: 1, 1: 1}), 1)
    sup = permutative_support(linear_ca(Z8, {0: 1, 1: 2, 2: 3}))
    assert (sup.p, sup.k, sup.offsets) == (2, 3, (0, 2))
    assert _gl_order(3, 2) == 48


def _trial_division(f, p):
    """Oracle: the monic irreducible factors of a monic f over Z/p with f(0)
    != 0 and degree at most 8, with multiplicities, by trial division of
    increasing degree.  A candidate found in that order is irreducible,
    since every factor of smaller degree was divided out first."""
    assert max(f) <= 8 and f.get(0)
    rem, factors, d = dict(f), [], 1
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
    return tuple(factors)


def _rabin_irreducible(f, p):
    """Oracle: Rabin's test.  A monic f of degree n over Z/p is irreducible
    iff x^(p^n) = x mod f and gcd(f, x^(p^(n/q)) - x) = 1 for each prime q
    dividing n."""
    n = max(f)

    def frobenius_minus_x(e):  # x^(p^e) - x mod f
        y = {1: 1}
        for _ in range(e):
            y = _poly_pow(y, p, p, f)
        return {u: r for u in {*y, 1} if (r := (y.get(u, 0) - (u == 1)) % p)}

    return (not _poly_divmod(frobenius_minus_x(n), f, p)[1]
            and all(_poly_gcd(f, frobenius_minus_x(n // q), p) == {0: 1}
                    for q in _prime_factors(n)))


@st.composite
def _monic_unit_constant(draw, primes=(2, 3, 5), degrees=(1, 8)):
    """A monic f over Z/p, p in `primes`, of degree in the closed range
    `degrees` with f(0) != 0."""
    p = draw(st.sampled_from(primes))
    k = draw(st.integers(*degrees))
    low = draw(st.lists(st.integers(0, p - 1), min_size=k - 1, max_size=k - 1))
    poly = (draw(st.integers(1, p - 1)), *low, 1)
    return {u: c for u, c in enumerate(poly) if c}, p


@settings(max_examples=300, deadline=None)
@given(_monic_unit_constant())
@example(({0: 1, 2: 1}, 2))  # (1 + x)^2 over Z/2: f' = 0, the p-th-root step alone
@example(({0: 1, 3: 1}, 3))  # (1 + x)^3 over Z/3
@example(({0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1}, 2))  # (1 + x + x^2)^2 (1 + x) over Z/2
def test_squarefree_and_distinct_degree_parts_match_trial_division(case):
    f, p = case
    trial = _trial_division(f, p)
    parts = _squarefree_parts(f, p)
    whole = {0: 1}
    for part, i in parts:
        pieces = _distinct_degree(part, p)
        product = {0: 1}
        for h, d in pieces:
            # each h_d is the product of the trial-division factors of degree d in it
            inside = [g for g, _ in trial if not _poly_divmod(h, dict(enumerate(g)), p)[1]]
            assert inside and all(len(g) - 1 == d for g in inside)
            product = _poly_mul(product, h, p)
        assert product == part
        # Yun's multiplicity is the trial-division one of every factor in the part
        assert all(e == i for g, e in trial if not _poly_divmod(part, dict(enumerate(g)), p)[1])
        whole = _poly_mul(whole, _poly_pow(part, i, p), p)
    assert whole == f


@settings(max_examples=200, deadline=None)
@given(_monic_unit_constant(primes=(2, 3, 5, 7)))
def test_factor_matches_trial_division(case):
    f, p = case
    fact = factor_mod_p(linear_ca(GroupSpec((p,)), f))
    assert (fact.shift_power, fact.unit, fact.factors) == (0, 1, _trial_division(f, p))


@settings(max_examples=40, deadline=None)
@given(_monic_unit_constant(primes=(2, 3, 5, 7, 11), degrees=(9, 30)))
@example(({0: 1, 9: 1}, 2))
@example(({0: 1, 1: 1, 9: 1}, 2))
def test_factors_past_the_oracle_are_irreducible_and_multiply_back(case):
    f, p = case
    fact = factor_mod_p(linear_ca(GroupSpec((p,)), f))
    assert reassemble(fact) == f
    assert list(fact.factors) == sorted(set(fact.factors), key=lambda g: (len(g[0]), g[0]))
    assert all(_rabin_irreducible(dict(enumerate(g)), p) for g, _ in fact.factors)


def test_gcd_over_a_prime_field():
    # (1 + x)(1 + x + x^2) and (1 + x)^2 over Z/2 share 1 + x
    assert _gcd({0: 1, 3: 1}, {0: 1, 2: 1}, 2) == {0: 1, 1: 1}
    # coprime: 1; and a zero second argument gives the first made monic
    assert _gcd({0: 1, 1: 1, 2: 1}, {0: 1, 1: 1}, 2) == {0: 1}
    assert _gcd({0: 2, 1: 4}, {}, 5) == {0: 3, 1: 1}


def test_primes_of_large_multiples_match_trial_division():
    assert all(_primes_of(n) == _prime_factors(n) for n in range(1, 5000))
    # 2^61 - 1 is prime; 2^67 - 1 = 193707721 * 761838257287 (Cole, 1903)
    assert _primes_of(2**61 - 1) == [2**61 - 1]
    assert _primes_of(2**67 - 1) == [193_707_721, 761_838_257_287]
    assert _primes_of(3 * 1_000_003**2 * 1_000_033) == [3, 1_000_003, 1_000_033]
    # a composite past the bound Miller-Rabin is exact below is still refuted
    # and split; the Mersenne prime 2^89 - 1, past it, is refused
    primes = [1031, 1033, 1039, 1049, 1051, 1061, 1063, 1069, 1087]
    assert math.prod(primes) > 3.3e24 and _primes_of(math.prod(primes)) == primes
    with pytest.raises(CapExceeded, match="Miller-Rabin bound"):
        _primes_of(2**89 - 1)


def test_kernel_direct_sum_examples():
    # (1+X)(1+X+X^2) = 1+X^3 over Z/2: kernel sizes 2*4 = 8
    F = linear_ca(Z2, {0: 1, 3: 1})
    assert kernel_direct_sum_check(F, 1)
    assert len(kernel_elements(F, 1)) == 8
    # irreducible: vacuously a one-factor sum
    assert kernel_direct_sum_check(linear_ca(Z2, {0: 1, 1: 1, 2: 1}), 1)
    # (1+X)^2: the first kernel level equals the second level of 1+X
    F2 = linear_ca(Z2, {0: 1, 2: 1})
    assert kernel_direct_sum_check(F2, 1)
    assert set(kernel_elements(F2, 1)) == set(
        kernel_elements(linear_ca(Z2, {0: 1, 1: 1}), 2)
    )


def test_matrix_order_divides_bound_for_random_bipermutative():
    rng = random.Random(11)
    for _ in range(30):
        p = rng.choice((2, 3, 5))
        r = rng.randint(1, 3)
        group = GroupSpec((p,))
        coeffs = {0: rng.randrange(1, p), r: rng.randrange(1, p)}
        for u in range(1, r):
            coeffs[u] = rng.randrange(p)
        F = linear_ca(group, coeffs)
        small = F.smallest_neighborhood()
        width = small.neighborhood[1] - small.neighborhood[0]
        order = recurrence_matrix(F).matrix_order()
        assert _gl_order(p, width) % order == 0
        p1 = math.lcm(*(x.period for x in kernel_elements(F, 1)))
        assert order % p1 == 0


@pytest.mark.parametrize("F", [
    linear_ca(Z4, {0: 3, 1: 2, 2: 1}),
    linear_ca(Z2, {0: 1, 3: 1}),
    linear_ca(GroupSpec((5,)), {-1: 1, 0: 2, 1: 1}),
    linear_ca(Z9, {0: 1, 1: 3, 2: 1}),
])
def test_additive_tables_read_as_their_linear_rule(F):
    T = table_from_rule(F.alphabet, F.neighborhood, F.local)
    sup = permutative_support(T)
    assert sup == permutative_support(F)
    assert bipermutative_power(T) == bipermutative_power(F)
    assert recurrence_matrix(T) == recurrence_matrix(F)
    p = sup.p
    assert frobenius_congruence_check(T, T, p, sup.k - 1) == frobenius_congruence_check(
        F, F, p, sup.k - 1)
    if sup.k == 1:
        assert factor_mod_p(T) == factor_mod_p(F)
        assert kernel_direct_sum_check(T, 1) and kernel_direct_sum_check(F, 1)


def test_non_additive_tables_are_refused():
    T = table_from_rule(Z2, (0, 1), lambda w: (w[0][0] * w[1][0],))
    for lemma in (permutative_support, bipermutative_power, factor_mod_p,
                  recurrence_matrix):
        with pytest.raises(NotAlgebraicError, match="table rule is not additive"):
            lemma(T)
