"""Group arithmetic, characters, closures and subgroup enumeration."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupca.groups import (
    CapExceeded,
    Character,
    Endomorphism,
    GroupSpec,
    Subgroup,
    closure_set,
    enumerate_subgroups,
    subgroup_closure,
)

Z2 = GroupSpec((2,))
Z4 = GroupSpec((4,))
Z2Z2 = GroupSpec((2, 2))

small_groups = st.sampled_from(
    [Z2, GroupSpec((3,)), Z4, Z2Z2, GroupSpec((2, 3)), GroupSpec((6,))]
)


def brute_force_subgroups(group):
    """Oracle: all subsets containing zero that are closed under + and -."""
    elems = list(group.elements())
    found = set()
    for mask in range(1 << len(elems)):
        subset = frozenset(e for i, e in enumerate(elems) if mask >> i & 1)
        if group.zero not in subset:
            continue
        if all(group.add(x, y) in subset for x in subset for y in subset) and all(
            group.neg(x) in subset for x in subset
        ):
            found.add(subset)
    return found


def test_group_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec(())
    with pytest.raises(ValueError):
        GroupSpec((1,))
    assert Z4.order == 4
    assert GroupSpec((4, 6)).radical == 6
    assert GroupSpec((8,)).radical == 2


@given(small_groups, st.data())
def test_group_laws(group, data):
    elems = list(group.elements())
    x = data.draw(st.sampled_from(elems))
    y = data.draw(st.sampled_from(elems))
    z = data.draw(st.sampled_from(elems))
    assert group.add(x, y) == group.add(y, x)
    assert group.add(group.add(x, y), z) == group.add(x, group.add(y, z))
    assert group.add(x, group.neg(x)) == group.zero
    assert group.add(x, group.zero) == x


def test_hom_apply_examples():
    double = Endomorphism.scalar(Z4, 2)
    assert double((3,)) == (2,)
    assert double((0,)) == (0,)
    swap = Endomorphism(Z2Z2, Z2Z2, ((0, 1), (1, 0)))
    assert swap((1, 0)) == (0, 1)


def test_hom_validation_rejects_non_homomorphism():
    # multiplication by 1 does not define a map Z/4 -> Z/2 factor pair here:
    # m*d_source must vanish mod d_target.
    with pytest.raises(ValueError):
        Endomorphism(GroupSpec((4,)), GroupSpec((8,)), ((1,),))
    # but Z/4 -> Z/2 reduction works (1*4 = 0 mod 2)
    Endomorphism(GroupSpec((4,)), GroupSpec((2,)), ((1,),))


@given(small_groups, st.data())
def test_hom_additivity_exhaustive(group, data):
    entries = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=group.exponent),
            min_size=group.rank * group.rank,
            max_size=group.rank * group.rank,
        )
    )
    rows = []
    k = group.rank
    ok = True
    for j in range(k):
        row = []
        for i in range(k):
            m = entries[j * k + i]
            if (m * group.moduli[i]) % group.moduli[j] != 0:
                ok = False
            row.append(m)
        rows.append(tuple(row))
    if not ok:
        return
    f = Endomorphism(group, group, tuple(rows))
    for x in group.elements():
        for y in group.elements():
            assert f(group.add(x, y)) == group.add(f(x), f(y))


def test_automorphism_examples():
    assert Endomorphism.scalar(Z4, 3).is_automorphism()
    assert not Endomorphism.scalar(Z4, 2).is_automorphism()
    assert Endomorphism.identity(Z2Z2).is_automorphism()


def test_inverse_round_trip():
    f = Endomorphism(Z2Z2, Z2Z2, ((1, 1), (1, 0)))
    g = f.inverse()
    for x in Z2Z2.elements():
        assert g(f(x)) == x
        assert f(g(x)) == x


def test_char_eval_examples():
    assert Character(Z2, (1,))((1,)) == pytest.approx(-1)
    assert Character(Z4, (1,))((0,)) == pytest.approx(1)
    assert Character(Z4, (1,))((1,)) == pytest.approx(1j)


@given(small_groups, st.data())
def test_char_multiplicative(group, data):
    elems = list(group.elements())
    chi = Character(group, data.draw(st.sampled_from(elems)))
    x = data.draw(st.sampled_from(elems))
    y = data.draw(st.sampled_from(elems))
    lhs = chi(group.add(x, y))
    rhs = chi(x) * chi(y)
    assert abs(lhs - rhs) < 1e-10
    assert abs(abs(chi(x)) - 1) < 1e-12


@given(small_groups)
@settings(max_examples=20)
def test_character_orthogonality_over_subgroups(group):
    # sum over a subgroup is its size for trivial restriction, else 0
    for sub in enumerate_subgroups(group):
        for res in group.elements():
            chi = Character(group, res)
            total = sum(chi(x) for x in sub.elements)
            trivial_on_sub = all(chi.phase(x)[0] == 0 for x in sub.elements)
            if trivial_on_sub:
                assert abs(total - len(sub)) < 1e-9
            else:
                assert abs(total) < 1e-9


def test_subgroup_closure_examples():
    s = subgroup_closure(Z4, [(2,)])
    assert s.elements == ((0,), (2,))
    # membership reads a set kept outside the fields
    assert (2,) in s and (1,) not in s
    assert s == Subgroup(Z4, ((2,), (0,))) and hash(s) == hash(Subgroup(Z4, ((0,), (2,))))
    assert repr(s) == "Subgroup(ambient=GroupSpec(moduli=(4,)), elements=((0,), (2,)))"
    assert subgroup_closure(Z4, []).elements == ((0,),)
    swap = Endomorphism(Z2Z2, Z2Z2, ((0, 1), (1, 0)))
    s = subgroup_closure(Z2Z2, [(1, 0)], operators=[swap])
    assert len(s) == 4


def test_subgroup_closure_idempotent_and_monotone():
    seeds = [(1, 0)]
    s1 = subgroup_closure(Z2Z2, seeds)
    s2 = subgroup_closure(Z2Z2, s1.elements)
    assert s1.elements == s2.elements
    bigger = subgroup_closure(Z2Z2, [(1, 0), (0, 1)])
    assert set(s1.elements) <= set(bigger.elements)


@given(small_groups)
@settings(max_examples=10, deadline=None)
def test_enumerate_subgroups_matches_brute_force(group):
    if group.order > 8:
        return
    expected = brute_force_subgroups(group)
    got = {frozenset(s.elements) for s in enumerate_subgroups(group)}
    assert got == expected


def test_enumerate_subgroups_counts():
    assert len(enumerate_subgroups(Z2)) == 2
    assert len(enumerate_subgroups(Z2Z2)) == 5
    assert len(enumerate_subgroups(Z4)) == 3


def test_enumerate_subgroups_cap():
    with pytest.raises(CapExceeded):
        enumerate_subgroups(GroupSpec((2,) * 13), cap=4096)


def test_subgroup_validate():
    Subgroup(Z4, ((0,), (2,))).validate()
    with pytest.raises(ValueError):
        Subgroup(Z4, ((0,), (1,))).validate()


def feed_back_closure(group, seeds, operators):
    """Oracle: add sums and operator images of the members until none is
    new, feeding every member back through the operators."""
    members = {group.zero, *seeds}
    while True:
        new = {group.add(x, y) for x in members for y in members}
        new |= {op(x) for x in members for op in operators}
        if new <= members:
            return frozenset(members)
        members |= new


@st.composite
def closure_inputs(draw):
    """A group of rank <= 2 with moduli <= 6, zero to two endomorphisms of
    it and one to three seeds."""
    d = tuple(draw(st.lists(st.integers(2, 6), min_size=1, max_size=2)))
    group = GroupSpec(d)
    entries = [[[m for m in range(d[j]) if m * d[i] % d[j] == 0] for i in range(len(d))]
               for j in range(len(d))]
    operators = [
        Endomorphism(group, group, tuple(tuple(draw(st.sampled_from(e)) for e in row)
                                         for row in entries))
        for _ in range(draw(st.integers(0, 2)))
    ]
    seeds = draw(st.lists(st.sampled_from(list(group.elements())), min_size=1, max_size=3))
    return group, operators, seeds


SWAP = Endomorphism(Z2Z2, Z2Z2, ((0, 1), (1, 0)))


@given(closure_inputs())
@example((Z2Z2, [SWAP], [(1, 0)]))
@example((Z2Z2, [SWAP], [(1, 1)]))
@example((Z2Z2, [SWAP], [(0, 1), (1, 0)]))
@settings(max_examples=60, deadline=None)
def test_closure_set_matches_the_feed_back_oracle(inputs):
    group, operators, seeds = inputs
    got = closure_set(seeds, group.add, group.zero, operators)
    assert got == feed_back_closure(group, seeds, operators)
