"""Partition analysis, inversion, dual rules and conjugacy verification."""

import itertools

import pytest

from groupca.automata import (
    as_laurent,
    letters,
    linear_ca,
    table_ca,
    table_from_rule,
)
from groupca import class_a
from groupca.class_a import (
    ConjugacyResult,
    DualCA,
    analyze_radius1,
    dual_ca,
    invert_radius1,
    verify_conjugacy,
)
from groupca.groups import CapExceeded, Endomorphism, GroupSpec
from groupca.kernels import kernel_elements
from groupca.configs import PeriodicConfig

Z2 = GroupSpec((2,))
V = GroupSpec((2, 2))  # Klein four group

F1 = linear_ca(V, {0: ((1, 1), (1, 0)), 1: ((1, 0), (0, 0))}, neighborhood=(0, 1))
F2 = linear_ca(V, {0: ((0, 1), (1, 0)), 1: ((1, 0), (0, 0))}, neighborhood=(0, 1))


def kernel(f):
    """The elements that the endomorphism f maps to zero."""
    return frozenset(x for x in f.source.elements() if f(x) == f.target.zero)


def check_linear_classA(f0, f1):
    """Oracle: Class (A) membership of the linear rule f0 + f1 sigma, by
    exhaustive image and kernel computation: f0 an automorphism, f1's image
    the image of its kernel under f0, and meeting that kernel only in 0."""
    if not f0.is_automorphism():
        return False
    im1, ker1 = f1.image(), kernel(f1)
    if im1 != frozenset(f0(x) for x in ker1):
        return False
    return im1 & ker1 == frozenset({f0.source.zero})


def test_analysis_f1():
    a = analyze_radius1(F1)
    # classes keyed by the first coordinate
    assert a.classes == (((0, 0), (0, 1)), ((1, 0), (1, 1)))
    assert a.pi_is_permutation
    assert a.left_permutative
    assert a.class_a
    assert a.quotient_size == 2


def test_analysis_f2():
    a = analyze_radius1(F2)
    assert a.class_a
    assert a.classes == (((0, 0), (0, 1)), ((1, 0), (1, 1)))


def test_analysis_shift_like_rule():
    # rule that copies its right neighbor: classes are singletons
    S = table_from_rule(V, (0, 1), lambda w: w[1])
    a = analyze_radius1(S)
    assert a.quotient_size == 4
    assert not a.left_permutative  # F(ab) ignores a
    assert not a.class_a


def test_analysis_constant_rule():
    C = table_from_rule(V, (0, 1), lambda w: (0, 0))
    a = analyze_radius1(C)
    assert a.quotient_size == 1
    assert not a.pi_is_permutation
    assert not a.invertible_r1


def test_bm_checks():
    a1 = analyze_radius1(F1)
    assert a1.invertible_r1 and a1.class_a
    a2 = analyze_radius1(F2)
    assert a2.invertible_r1 and a2.class_a
    bad = analyze_radius1(table_from_rule(V, (0, 1), lambda w: (0, 0)))
    assert not bad.invertible_r1 and not bad.class_a


def test_identity_is_invertible():
    I = linear_ca(V, {0: Endomorphism.identity(V), 1: Endomorphism.zero_map(V)},
                  neighborhood=(0, 1))
    a = analyze_radius1(I)
    assert a.invertible_r1
    inv = invert_radius1(I)
    for win in itertools.product(letters(V), repeat=2):
        assert inv.local(win) == win[0]


def test_invert_f1_matches_closed_form():
    inv = invert_radius1(F1)
    # closed form: first output coordinate y0, second y0+y1+x0
    for (x0, y0), (x1, y1) in itertools.product(letters(V), repeat=2):
        got = inv.local(((x0, y0), (x1, y1)))
        assert got == (y0, (y0 + y1 + x0) % 2)


def test_invert_f2_matches_closed_form():
    inv = invert_radius1(F2)
    for (x0, y0), (x1, y1) in itertools.product(letters(V), repeat=2):
        assert inv.local(((x0, y0), (x1, y1))) == (y0, (y1 + x0) % 2)


def _closed_form_inverse(F):
    """Oracle: f0^-1 - f0^-1 f1 f0^-1 s inverts f0 + f1 s when f1 f0^-1 f1 = 0,
    which every linear Class (A) rule meets."""
    f0, f1 = F.coeff(0), F.coeff(1)
    f0inv = f0.inverse()
    assert f1.compose(f0inv).compose(f1).is_zero
    return linear_ca(F.alphabet, {0: f0inv, 1: -(f0inv.compose(f1).compose(f0inv))},
                     neighborhood=(0, 1))


def _closed_form_dual(F):
    """Oracle: the dual of f0 + f1 s over (Z/m)^2 when f1 has the first
    coordinate as image and the second as kernel, (-u f0_12 f0_21, -u f0_11, u)
    at offsets (-1, 0, 1) with u = f1_11^-1; None for any other split."""
    m = F.alphabet.moduli[0]
    f0, f1 = F.coeff(0), F.coeff(1)
    if (f1.image() != frozenset((x, 0) for x in range(m))
            or kernel(f1) != frozenset((0, y) for y in range(m))):
        return None
    (f011, f012), (f021, _) = f0.matrix
    u = pow(f1.matrix[0][0], -1, m)
    return linear_ca(GroupSpec((m,)),
                     {-1: (-u * f012 * f021) % m, 0: (-u * f011) % m, 1: u},
                     neighborhood=(-1, 1))


def _matches_the_oracles(F) -> bool:
    """Compare the solved inverse and dual of a linear Class (A) rule with the
    closed forms; True when the dual's closed form applies."""
    inv, want_inv = invert_radius1(F), _closed_form_inverse(F)
    for win in itertools.product(letters(F.alphabet), repeat=2):
        assert inv.local(win) == want_inv.local(win), win
    dual = dual_ca(F)
    assert dual.provenance == "formula"
    for key, value in dual.rule_table().items():
        assert dual.linear_form.local(key) == value
    want = _closed_form_dual(F)
    if want is not None:
        assert dual.linear_form.coeffs == want.coeffs
    return want is not None


def _linear_class_a_rules(m):
    W = GroupSpec((m, m))
    mats = [((a, b), (c, d)) for a, b, c, d in itertools.product(range(m), repeat=4)]
    for m0, m1 in itertools.product(mats, repeat=2):
        f0, f1 = Endomorphism(W, W, m0), Endomorphism(W, W, m1)
        if check_linear_classA(f0, f1):
            yield linear_ca(W, {0: f0, 1: f1}, neighborhood=(0, 1))


def test_every_linear_class_a_rule_over_klein_four_matches_the_oracles():
    rules = list(_linear_class_a_rules(2))
    assert len(rules) == 12
    assert sum(map(_matches_the_oracles, rules)) == 2  # F2 and F1 are the aligned ones


# (f0, f1) over (Z/3)^2: three coordinate-aligned splits, three others
PINNED_Z3 = [
    (((0, 1), (1, 0)), ((1, 0), (0, 0))),
    (((1, 2), (1, 0)), ((2, 0), (0, 0))),
    (((2, 1), (2, 0)), ((1, 0), (0, 0))),
    (((0, 1), (1, 0)), ((0, 0), (0, 2))),
    (((0, 1), (1, 1)), ((1, 1), (0, 0))),
    (((0, 1), (1, 1)), ((1, 2), (2, 1))),
]


def test_pinned_linear_class_a_rules_over_z3_squared_match_the_oracles():
    W = GroupSpec((3, 3))
    rules = [linear_ca(W, {0: m0, 1: m1}, neighborhood=(0, 1)) for m0, m1 in PINNED_Z3]
    assert all(analyze_radius1(F).class_a for F in rules)
    assert [_matches_the_oracles(F) for F in rules] == [True] * 3 + [False] * 3


def test_invert_table_path_agrees_with_formula_path():
    # the table form of F1 against the closed-form oracle
    T = table_from_rule(V, (0, 1), F1.local)
    inv = invert_radius1(T)
    want = _closed_form_inverse(F1)
    for win in itertools.product(letters(V), repeat=2):
        assert inv.local(win) == want.local(win)


def test_invert_rejects_noninvertible():
    S = table_from_rule(V, (0, 1), lambda w: w[1])
    with pytest.raises(ValueError):
        invert_radius1(S)


def test_check_linear_classA_examples():
    assert check_linear_classA(F1.coeff(0), F1.coeff(1))
    assert check_linear_classA(F2.coeff(0), F2.coeff(1))
    assert not check_linear_classA(F1.coeff(0), Endomorphism.zero_map(V))


def test_check_linear_classA_equals_bm_conditions_exhaustively():
    # every linear radius-1 rule on the Klein four group
    mats = list(itertools.product(range(2), repeat=4))
    for m0, m1 in itertools.product(mats, repeat=2):
        f0 = Endomorphism(V, V, ((m0[0], m0[1]), (m0[2], m0[3])))
        f1 = Endomorphism(V, V, ((m1[0], m1[1]), (m1[2], m1[3])))
        F = linear_ca(V, {0: f0, 1: f1}, neighborhood=(0, 1))
        a = analyze_radius1(F)
        lhs = check_linear_classA(f0, f1)
        rhs = a.class_a
        assert lhs == rhs, (m0, m1)


def test_dual_f1_rule():
    dual = dual_ca(F1)
    assert dual.provenance == "formula"
    assert dual.linear_form is not None
    assert as_laurent(dual.linear_form).coeffs == linear_ca(Z2, {-1: 1, 0: 1, 1: 1}).coeffs
    # solved table agrees: alpha + beta + gamma
    for key, value in dual.rule_table().items():
        total = (key[0][0] + key[1][0] + key[2][0]) % 2
        assert value == (total,)
    assert dual.automaton.permutativity().bipermutative


def test_dual_f2_rule():
    dual = dual_ca(F2)
    assert as_laurent(dual.linear_form).coeffs == linear_ca(Z2, {-1: 1, 1: 1}).coeffs
    for key, value in dual.rule_table().items():
        assert value == ((key[0][0] + key[2][0]) % 2,)


def test_dual_rejects_non_class_a():
    S = table_from_rule(V, (0, 1), lambda w: w[1])
    with pytest.raises(ValueError):
        dual_ca(S)


def test_dual_kernel_matches_reference_sets():
    dual1 = dual_ca(F1)
    ker1 = set(kernel_elements(dual1.automaton, 1))
    mk = lambda *xs: PeriodicConfig(Z2, tuple((x,) for x in xs))
    assert ker1 == {mk(0), mk(0, 1, 1), mk(1, 1, 0), mk(1, 0, 1)}
    dual2 = dual_ca(F2)
    ker2 = set(kernel_elements(dual2.automaton, 1))
    assert ker2 == {mk(0), mk(1), mk(0, 1), mk(1, 0)}


def test_verify_conjugacy_f1_f2():
    dual1 = dual_ca(F1)
    res = verify_conjugacy(F1, dual1, depth=2, width=6)
    assert res.ok and res.windows_checked > 0
    dual2 = dual_ca(F2)
    assert verify_conjugacy(F2, dual2, depth=2, width=6).ok


def test_dual_and_conjugacy_analyse_and_invert_each_rule_once(monkeypatch):
    # the analysis and the inverse are kept on the rule (`_memoized`), so
    # dual_ca and verify_conjugacy make each once per rule; the rules are
    # built afresh, so no earlier test has made either
    made = []
    analysis, verify = class_a.ClassAAnalysis, class_a._verify_inverse
    monkeypatch.setattr(class_a, "ClassAAnalysis",
                        lambda F, *rest: made.append(("analysis", F)) or analysis(F, *rest))
    monkeypatch.setattr(class_a, "_verify_inverse",
                        lambda F, inv: made.append(("inverse", F)) or verify(F, inv))
    G1, G2 = (linear_ca(V, F.coeffs, neighborhood=F.neighborhood) for F in (F1, F2))
    dual1 = dual_ca(G1)
    assert verify_conjugacy(G1, dual1, depth=2, width=6).ok
    assert analyze_radius1(G1) is dual1.analysis
    assert made == [("analysis", G1), ("inverse", G1)]
    verify_conjugacy(G2, dual1, depth=2, width=6)  # G2's own inverse is needed
    verify_conjugacy(G2, dual_ca(G2), depth=2, width=6)
    assert made == [("analysis", G1), ("inverse", G1), ("analysis", G2), ("inverse", G2)]


def test_verify_conjugacy_mismatch_produces_witness():
    dual2 = dual_ca(F2)
    res = verify_conjugacy(F1, dual2, depth=2, width=5)
    assert not res.ok
    assert res.witness is not None


def _seed_walk(F, dual, depth, width):
    """The seed walk verify_conjugacy made before it checked each distinct
    window once, kept as the oracle for its verdict, count and witness."""
    cls = dual.analysis.class_of
    inv = invert_radius1(F)
    abc = letters(F.alphabet)
    ftab = {(a, b): F.local((a, b)) for a in abc for b in abc}
    itab = {(a, b): inv.local((a, b)) for a in abc for b in abc}
    dtab = {
        (k[0][0], k[1][0], k[2][0]): v[0]
        for k, v in dual.automaton.table.items()
    }
    checked = 0
    for seed in itertools.product(abc, repeat=width):
        rows = {0: seed}
        for n in range(1, depth + 1):
            prev = rows[n - 1]
            rows[n] = tuple(ftab[pair] for pair in zip(prev, prev[1:]))
            prev = rows[-(n - 1)]
            rows[-n] = tuple(itab[pair] for pair in zip(prev, prev[1:]))
        labels = {n: [cls[a] for a in row] for n, row in rows.items()}
        for n in range(-depth + 1, depth):
            here = labels[n]
            above = labels[n + 1]
            below = labels[n - 1]
            limit = min(len(here) - 1, len(above), len(below))
            for j in range(limit):
                checked += 1
                if dtab[below[j], here[j], above[j]] != here[j + 1]:
                    return ConjugacyResult(
                        False,
                        checked,
                        (seed, n, j, here[j + 1], dtab[below[j], here[j], above[j]]),
                    )
    return ConjugacyResult(True, checked)


def _single_entry_mutations(dual):
    """The dual with one table entry changed, for every entry and every
    other value."""
    table = dual.rule_table()
    for key, value in sorted(table.items()):
        for other in letters(dual.alphabet):
            if other != value:
                rule = table_ca(dual.alphabet, (-1, 1), {**table, key: other})
                yield DualCA(rule, dual.provenance, dual.analysis)


def test_verify_conjugacy_matches_the_seed_walk():
    duals = {"F1": dual_ca(F1), "F2": dual_ca(F2)}
    cases = [(F, dual) for F in (F1, F2) for dual in duals.values()]
    cases += [(F1, d) for d in _single_entry_mutations(duals["F1"])]
    cases += [(F2, d) for d in _single_entry_mutations(duals["F2"])]
    assert len(cases) == 4 + 16
    failures = 0
    for F, dual in cases:
        for depth in (1, 2, 3):
            for width in range(2, 8):
                got = verify_conjugacy(F, dual, depth=depth, width=width)
                assert got == _seed_walk(F, dual, depth, width), (depth, width)
                failures += not got.ok
    assert failures > 0


def test_wrong_arity_rejected():
    with pytest.raises(ValueError):
        analyze_radius1(linear_ca(Z2, {0: 1, 1: 1, 2: 1}))


def test_radius1_analysis_refuses_windows_over_the_cap(monkeypatch):
    # Z/3 has 9 windows on [0, 1]; Z/1000003 has 10^12.  Each cap gets a
    # rule of its own, since the analysis is kept on the rule it was made for
    def F():
        return linear_ca(GroupSpec((3,)), {0: 1, 1: 1})

    monkeypatch.setattr(class_a, "DEFAULT_TABLE_CAP", 9)
    assert not analyze_radius1(F()).class_a
    monkeypatch.setattr(class_a, "DEFAULT_TABLE_CAP", 8)
    with pytest.raises(CapExceeded, match=r"\|A\|\^2 = 9 windows exceeds cap 8"):
        analyze_radius1(F())
    monkeypatch.undo()
    with pytest.raises(CapExceeded, match="exceeds cap 1048576"):
        analyze_radius1(linear_ca(GroupSpec((1000003,)), {0: 1, 1: 1}))
