"""Local rules, permutativity, composition, polynomials, surjectivity and
cylinder preimages."""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupca import automata
from groupca.automata import (
    CellularAutomaton,
    NotAlgebraicError,
    as_laurent,
    compose,
    cylinder_preimage,
    identity_ca,
    is_surjective,
    letters,
    linear_ca,
    power,
    shift_ca,
    table_ca,
    table_from_rule,
)
from groupca.configs import Cylinder, PeriodicConfig
from groupca.groups import CapExceeded, Endomorphism, GroupSpec
from groupca.modular import factor_mod_p

Z2 = GroupSpec((2,))
Z3 = GroupSpec((3,))
Z4 = GroupSpec((4,))


def w(*xs):
    return tuple((a,) for a in xs)


def cfg(group, *xs):
    return PeriodicConfig(group, w(*xs))


def table_of(F):
    """Materialize any rule as an explicit window table (oracle helper)."""
    abc = letters(F.alphabet)
    return {u: F.local(u) for u in itertools.product(abc, repeat=F.width)}


F_xor = linear_ca(Z2, {0: 1, 1: 1})
F_z4 = linear_ca(Z4, {0: 1, 1: 1, 2: 2})


def test_apply_window_examples():
    assert F_xor.apply_window(w(0, 1, 1)) == w(1, 0)
    assert F_xor.apply_window(w(0, 0, 0, 0)) == w(0, 0, 0)
    assert F_z4.apply_window(w(1, 2, 3, 0)) == w(1, 1)


def test_apply_periodic_examples():
    assert F_xor.apply_periodic(cfg(Z2, 0, 1)) == cfg(Z2, 1)
    assert F_z4.apply_periodic(PeriodicConfig.zero(Z4)) == PeriodicConfig.zero(Z4)
    F_dist2 = linear_ca(Z2, {0: 1, 2: 1})
    assert F_dist2.apply_periodic(cfg(Z2, 0, 1)) == PeriodicConfig.zero(Z2)


def test_apply_periodic_commutes_with_shift():
    for word in itertools.product((0, 1), repeat=4):
        x = cfg(Z2, *word)
        assert F_xor.apply_periodic(x.shift(1)) == F_xor.apply_periodic(x).shift(1)


def test_affine_rule_evaluation():
    F = linear_ca(Z2, {0: 1, 1: 1}, constant=(1,))
    assert F.apply_window(w(0, 0)) == w(1)
    assert F.apply_periodic(PeriodicConfig.zero(Z2)) == cfg(Z2, 1)


def test_smallest_neighborhood_drops_dummy_offsets():
    F = linear_ca(Z2, {0: 1, 1: 1, 2: 0}, neighborhood=(0, 2))
    small = F.smallest_neighborhood()
    assert small.neighborhood == (0, 1)
    # table rule that ignores its last coordinate
    G = table_from_rule(Z2, (0, 2), lambda win: win[0])
    assert G.smallest_neighborhood().neighborhood == (0, 0)
    assert G.is_trivial
    assert identity_ca(Z2).is_trivial
    assert not F_xor.is_trivial


def test_smallest_neighborhood_of_a_smallest_rule_is_itself():
    # nothing trims, so no automaton is rebuilt and re-validated
    F = linear_ca(Z4, {-1: 1, 0: 2, 1: 3})
    A = linear_ca(Z2, {0: 1, 1: 1}, constant=(1,))
    T = table_from_rule(Z2, (0, 2), lambda win: (win[0][0] * win[2][0],))
    for G in (F, A, T, identity_ca(Z2)):
        assert G.smallest_neighborhood() is G
    # a zero coefficient inside the support trims nothing
    G = linear_ca(Z2, {0: 1, 1: 0, 2: 1})
    assert G.smallest_neighborhood() is G
    # a zero coefficient kept at an end is trimmed away
    one, zero = Endomorphism.identity(Z2), Endomorphism.zero_map(Z2)
    H = CellularAutomaton(Z2, (0, 2), coeffs={0: one, 1: one, 2: zero})
    assert H.smallest_neighborhood() == linear_ca(Z2, {0: 1, 1: 1})


def test_permutativity_examples():
    assert F_xor.permutativity() == (True, True)
    F = linear_ca(Z4, {0: 1, 1: 2})
    assert F.permutativity() == (True, False)
    assert shift_ca(Z2).permutativity() == (True, True)


def test_permutativity_linear_agrees_with_table_path():
    cases = [F_xor, F_z4, linear_ca(Z3, {0: 2, 1: 1}), linear_ca(Z4, {0: 2, 1: 3})]
    for F in cases:
        small = F.smallest_neighborhood()
        T = table_ca(F.alphabet, small.neighborhood, table_of(small))
        assert T.permutativity() == F.permutativity()


def test_compose_matches_nested_application():
    G = linear_ca(Z4, {0: 3, 1: 1})
    FG = compose(F_z4, G)
    assert FG.neighborhood == (0, 3)
    for word in itertools.product(Z4.elements(), repeat=6):
        assert FG.apply_window(word) == F_z4.apply_window(G.apply_window(word))


def test_compose_table_rules():
    T = table_from_rule(Z2, (0, 1), lambda win: (win[0][0] * win[1][0],))
    TT = compose(T, T)
    for word in itertools.product(Z2.elements(), repeat=4):
        assert TT.apply_window(word) == T.apply_window(T.apply_window(word))


def test_power_frobenius():
    F2 = power(F_xor, 2)
    assert as_laurent(F2).coeffs == linear_ca(Z2, {0: 1, 2: 1}).coeffs
    assert power(F_xor, 1).coeffs == F_xor.coeffs
    assert power(F_xor, 0).apply_window(w(1, 0)) == w(1, 0)


def test_power_affine():
    F = linear_ca(Z2, {0: 1, 1: 1}, constant=(1,))
    F2 = power(F, 2)
    for word in itertools.product(Z2.elements(), repeat=4):
        assert F2.apply_window(word) == F.apply_window(F.apply_window(word))


@pytest.mark.parametrize("F", [
    linear_ca(Z4, {0: 1, 1: 2, 2: 3}),
    linear_ca(GroupSpec((2, 2)), {0: [[1, 1], [0, 1]], 1: [[0, 1], [1, 0]]}),
    linear_ca(Z3, {-1: 2, 1: 1}, constant=(2,), neighborhood=(-1, 1)),
    table_from_rule(Z2, (0, 1), lambda win: (win[0][0] * win[1][0],)),
], ids=["linear", "matrix", "affine", "table"])
def test_power_matches_iterated_application(F):
    rng = random.Random(5)
    abc = letters(F.alphabet)
    assert power(F, 0) == identity_ca(F.alphabet)
    stepped = F  # F^n composed one step at a time, the oracle for squaring
    # a table power of width 8 already has 2^8 windows; linear rules go on
    for n in range(1, 41 if F.coeffs is not None else 8):
        Fn = power(F, n)
        assert Fn == stepped
        stepped = compose(F, stepped)
        if n >= 8:
            continue
        for _ in range(5):
            word = tuple(rng.choice(abc) for _ in range(Fn.width + 2))
            image = word
            for _ in range(n):
                image = F.apply_window(image)
            assert Fn.apply_window(word) == image


def test_linear_compose_cap_names_both_term_counts():
    F = linear_ca(Z3, {0: 1, 1: 1})
    F8 = power(F, 8)  # (1 + x)^8 = (1 + x^3)^2 (1 + x)^2 over Z/3: 9 terms
    assert len(F8.coeffs) == 9
    assert compose(F8, F8, cap=81) == power(F, 16)
    with pytest.raises(CapExceeded, match="rules of 9 and 9 terms exceeds cap 80"):
        compose(F8, F8, cap=80)
    with pytest.raises(CapExceeded, match="exceeds cap 80"):
        power(F, 16, cap=80)


def test_power_cap_bounds_the_whole_squaring_chain():
    F = linear_ca(Z2, {0: 1, 1: 1})
    # (1 + x)^1023 over Z/2: at t = 2, 4, ..., 512 terms, a squaring (t * t
    # products of terms) and a product by F (2t), 351,568 in all
    assert sum(t * t + 2 * t for t in (2**i for i in range(1, 10))) == 351_568
    assert len(power(F, 1023, cap=351_568).coeffs) == 1024
    with pytest.raises(CapExceeded, match="power 1023 by squaring: a running total of "
                                          "351568 products of terms exceeds cap 351567"):
        power(F, 1023, cap=351_567)
    # each further squaring of 1,024 terms is one product of exactly the
    # default cap, 2^20: only the budget for the whole chain refuses
    for k in (1, 4, 40):
        with pytest.raises(CapExceeded, match="running total of 1400144 products of terms"):
            power(F, 1023 * 2**k)


def test_power_cap_refuses_powers_wider_than_the_cap():
    T = table_from_rule(Z2, (0, 1), lambda win: (win[0][0] * win[1][0],))
    assert power(T, 5, cap=2**6).width == 6
    for n in (6, 7, 12):
        with pytest.raises(CapExceeded, match="exceeds cap"):
            power(T, n, cap=2**6)


def test_laurent_round_trip_and_product():
    # a linear rule is its own polynomial; an additive table reads back as it
    assert as_laurent(F_xor) is F_xor
    T = table_from_rule(Z3, (-1, 1), lambda win: ((win[0][0] + win[2][0]) % 3,))
    assert as_laurent(T) == linear_ca(Z3, {-1: 1, 1: 1}, neighborhood=(-1, 1))
    # squaring the mod-4 example polynomial
    sq = compose(F_z4, F_z4)
    assert sq.coeffs == linear_ca(Z4, {0: 1, 1: 2, 2: 1}).coeffs
    assert as_laurent(power(F_z4, 2)) == sq


def test_laurent_errors_on_nonlinear():
    T = table_from_rule(Z2, (0, 1), lambda win: (win[0][0] * win[1][0],))
    with pytest.raises(NotAlgebraicError):
        as_laurent(T)
    A = linear_ca(Z2, {0: 1}, constant=(1,))
    with pytest.raises(NotAlgebraicError):
        as_laurent(A)


def test_derived_structure_is_kept_out_of_equality_repr_and_replace():
    def build():
        return linear_ca(Z2, {0: 1, 1: 1, 2: 0}, neighborhood=(-1, 2))

    F = build()
    assert F.permutativity() == (True, True) and as_laurent(F) is F and not F.is_trivial
    assert F == build() and repr(F) == repr(build())
    assert F.smallest_neighborhood().neighborhood == (0, 1)
    # a new instance built from F's fields derives its own structure
    G = CellularAutomaton(F.alphabet, F.neighborhood, coeffs={-1: Endomorphism.identity(Z2)})
    assert G.smallest_neighborhood() == linear_ca(Z2, {-1: 1})
    assert G.permutativity() == (True, True)


def test_a_refused_derivation_is_refused_again():
    T = table_from_rule(Z2, (0, 1), lambda win: (win[0][0] * win[1][0],))
    messages = []
    for _ in range(2):
        with pytest.raises(NotAlgebraicError) as exc:
            as_laurent(T)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    for F, message in ((linear_ca(Z2, {0: 1, 9: 1}), "exceeds the factorization cap"),
                       (linear_ca(Z3, {0: 3}, neighborhood=(0, 1)), "zero polynomial")):
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                factor_mod_p(F)


def count_preimages(F, word):
    """Oracle: count width-extended words mapping onto the given word."""
    small = F.smallest_neighborhood()
    k = small.width - 1
    abc = letters(F.alphabet)
    n = 0
    for v in itertools.product(abc, repeat=len(word) + k):
        if small.apply_window(v) == tuple(word):
            n += 1
    return n


def test_surjectivity_examples():
    assert is_surjective(F_xor).surjective
    assert is_surjective(F_xor).decided
    AND = table_from_rule(Z2, (0, 1), lambda win: (win[0][0] * win[1][0],))
    res = is_surjective(AND)
    assert not res.surjective
    assert res.witness is not None
    assert count_preimages(AND, res.witness) != 2  # |A|^(s-r) = 2 would be balanced
    assert is_surjective(shift_ca(Z2)).surjective
    assert is_surjective(F_z4).surjective  # surjective though not bipermutative


def test_surjectivity_refuses_overlap_graphs_over_the_cap(monkeypatch):
    # x_0 + x_2 declared on [0, 5]: the overlap graph has |A|^2 = 4 states
    # and |A|^3 = 8 edges, one window of the rule each
    F = linear_ca(Z2, {0: 1, 2: 1}, neighborhood=(0, 5))
    monkeypatch.setattr(automata, "DEFAULT_TABLE_CAP", 8)
    assert is_surjective(F).surjective
    for cap in (7, 4):
        monkeypatch.setattr(automata, "DEFAULT_TABLE_CAP", cap)
        with pytest.raises(CapExceeded, match=rf"\|A\|\^3 = 8 windows exceeds cap {cap}"):
            is_surjective(F)
    monkeypatch.setattr(automata, "DEFAULT_TABLE_CAP", 3)
    with pytest.raises(CapExceeded, match=r"\|A\|\^2 = 4 states exceeds cap 3"):
        is_surjective(F)


def test_surjectivity_counts_windows_on_a_large_prime_field():
    # |A| = 1000003 states fit the cap; their 10^12 windows do not
    F = linear_ca(GroupSpec((1000003,)), {0: 1, 1: 1})
    with pytest.raises(CapExceeded, match=r"\|A\|\^2 = 1000006000009 windows exceeds cap 1048576"):
        is_surjective(F)


def test_balance_property_for_bipermutative():
    for F in [F_xor, linear_ca(Z3, {0: 1, 1: 1}), linear_ca(Z2, {0: 1, 1: 1, 2: 1})]:
        small = F.smallest_neighborhood()
        k = small.width - 1
        n = F.alphabet.order
        for L in (1, 2, 3):
            for word in itertools.product(letters(F.alphabet), repeat=L):
                assert count_preimages(F, word) == n**k


def test_cylinder_preimage_examples():
    pre = cylinder_preimage(F_xor, Cylinder(0, w(0)))
    assert {c.word for c in pre} == {w(0, 0), w(1, 1)}
    assert all(c.offset == 0 for c in pre)
    pre2 = cylinder_preimage(F_xor, Cylinder(0, w(0, 1)))
    assert {c.word for c in pre2} == {w(0, 0, 1), w(1, 1, 0)}
    # permutativity count: |A|^(s-r) cylinders for a length-1 word
    pre3 = cylinder_preimage(power(F_z4, 1), Cylinder(2, w(3)))
    assert len(pre3) == 16  # not bipermutative: width-2 extension over Z/4
    preb = cylinder_preimage(linear_ca(Z3, {0: 1, 1: 1}), Cylinder(0, w(2)))
    assert len(preb) == 3


def test_cylinder_preimage_partition_and_offset():
    F = linear_ca(Z2, {-1: 1, 1: 1})
    cyl = Cylinder(3, w(1, 0))
    pre = cylinder_preimage(F, cyl)
    assert all(c.offset == 3 - 1 for c in pre)
    words = [c.word for c in pre]
    assert len(set(words)) == len(words)
    for c in pre:
        out = F.apply_window(c.word)
        assert out == cyl.word


@given(st.integers(0, 3), st.integers(1, 3))
@settings(max_examples=20)
def test_compose_with_shift_is_shift_of_compose(m, n):
    F = linear_ca(Z4, {0: 1, 1: 3})
    lhs = compose(shift_ca(Z4, m), power(F, n))
    rhs = compose(power(F, n), shift_ca(Z4, m))
    x = cfg(Z4, 1, 2, 0)
    assert lhs.apply_periodic(x) == rhs.apply_periodic(x)


# -- polynomial products against a naive product of endomorphisms ---------------------

Z9 = GroupSpec((9,))
Z2xZ4 = GroupSpec((2, 4))


def valid_matrices(group):
    """Every integer matrix that is an endomorphism of the group."""
    d = group.moduli
    entries = [[m for m in range(d[j]) if m * d[i] % d[j] == 0]
               for j in range(len(d)) for i in range(len(d))]
    return [tuple(zip(*[iter(e)] * len(d))) for e in itertools.product(*entries)]


def endomorphism_sum(f, g):
    """The pointwise sum of two endomorphisms of one group."""
    rows = tuple(tuple((a + b) % d for a, b in zip(ra, rb))
                 for ra, rb, d in zip(f.matrix, g.matrix, f.target.moduli))
    return Endomorphism(f.source, f.target, rows)


def naive_product(F, G):
    """The terms of the product of two linear forms, with one Endomorphism
    per product pair and per partial sum."""
    acc = {}
    for u, f in F.coeffs.items():
        for v, g in G.coeffs.items():
            fg = f.compose(g)
            acc[u + v] = endomorphism_sum(acc[u + v], fg) if u + v in acc else fg
    return acc


def compose_oracle(F, G):
    """The composition of two affine rules through `naive_product`, coerced by
    `linear_ca`."""
    terms = naive_product(F, G)
    const = None
    if G.constant is not None:
        const = F.alphabet.zero
        for f in F.coeffs.values():
            const = F.alphabet.add(const, f(G.constant))
    if F.constant is not None:
        const = F.constant if const is None else F.alphabet.add(const, F.constant)
    (rF, sF), (rG, sG) = F.neighborhood, G.neighborhood
    return linear_ca(F.alphabet, terms, constant=const, neighborhood=(rF + rG, sF + sG))


def coefficients(group):
    """Residues on a cyclic alphabet, endomorphism matrices otherwise."""
    if group.rank == 1:
        return st.integers(0, group.moduli[0] - 1)
    return st.sampled_from(valid_matrices(group))


def linear_rules(group):
    return st.builds(functools.partial(linear_ca, group),
                     st.dictionaries(st.integers(-3, 3), coefficients(group), max_size=5))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_polynomial_product_matches_the_naive_product(data):
    group = data.draw(st.sampled_from((Z4, Z9, Z2xZ4)))
    F, G = data.draw(linear_rules(group)), data.draw(linear_rules(group))
    product = compose(F, G)
    assert product == compose_oracle(F, G)
    # only a product that cancels everywhere keeps a zero coefficient
    assert all(not f.is_zero for f in product.coeffs.values()) or len(product.coeffs) == 1


def test_product_terms_that_cancel_are_absent():
    # (1 + x)(1 - x) has no x term, mod 4 and mod 9
    for group in (Z4, Z9):
        d = group.moduli[0]
        F, G = linear_ca(group, {0: 1, 1: 1}), linear_ca(group, {0: 1, 1: d - 1})
        product = compose(F, G)
        assert sorted(product.coeffs) == [0, 2] and product.neighborhood == (0, 2)
        assert product == compose_oracle(F, G)
    one, minus = ((1, 0), (0, 1)), ((1, 0), (0, 3))
    product = compose(linear_ca(Z2xZ4, {0: one, 1: one}), linear_ca(Z2xZ4, {0: one, 1: minus}))
    assert product.coeffs == {0: Endomorphism(Z2xZ4, Z2xZ4, one),
                              2: Endomorphism(Z2xZ4, Z2xZ4, minus)}
    # a product that cancels everywhere is the zero rule on the joined neighborhood
    G = linear_ca(Z4, {0: 2})
    FG = compose(G, G)
    assert FG == compose_oracle(G, G)
    assert FG.neighborhood == (0, 0) and FG.coeffs[0].is_zero


AFFINE_ALPHABETS = (Z2, Z3, Z4, GroupSpec((2, 2)))


@st.composite
def affine_rules(draw, group):
    r = draw(st.integers(-1, 1))
    width = draw(st.integers(1, 2))
    terms = {r + u: draw(coefficients(group)) for u in range(width)}
    constant = draw(st.none() | st.sampled_from(letters(group)))
    return linear_ca(group, terms, constant=constant, neighborhood=(r, r + width - 1))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_compose_of_affine_rules_matches_the_table_composition(data):
    group = data.draw(st.sampled_from(AFFINE_ALPHABETS))
    F, G = data.draw(affine_rules(group)), data.draw(affine_rules(group))
    FG = compose(F, G)
    assert FG == compose_oracle(F, G)
    as_table = compose(table_ca(group, F.neighborhood, table_of(F)),
                       table_ca(group, G.neighborhood, table_of(G)))
    assert FG.neighborhood == as_table.neighborhood
    assert table_of(FG) == as_table.table
