"""Periodic configurations: anchoring, shifts, sums and cylinders."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from groupca.configs import Cylinder, PeriodicConfig
from groupca.groups import GroupSpec

Z2 = GroupSpec((2,))
Z3 = GroupSpec((3,))


def cfg(group, *letters):
    return PeriodicConfig(group, tuple((a,) for a in letters))


def test_minimal_period_reduction():
    assert cfg(Z2, 0, 1, 0, 1).word == ((0,), (1,))
    assert cfg(Z2, 1, 1, 1).word == ((1,),)
    assert cfg(Z2, 0, 1, 1).period == 3


def test_anchored_equality_distinguishes_rotations():
    a = cfg(Z2, 0, 1)
    b = cfg(Z2, 1, 0)
    assert a != b
    assert a.shift(1) == b


def test_shift_examples():
    x = cfg(Z2, 0, 1)
    assert x.shift(1) == cfg(Z2, 1, 0)
    const = cfg(Z2, 1)
    assert const.shift(5) == const
    y = cfg(Z2, 0, 0, 1)
    assert y.shift(3) == y


def test_shift_composed_period_times_is_identity():
    x = cfg(Z3, 0, 1, 2, 2)
    y = x
    for _ in range(x.period):
        y = y.shift(1)
    assert y == x


@given(
    st.sampled_from([Z2, Z3, GroupSpec((2, 2))]),
    st.lists(st.integers(0, 3), min_size=1, max_size=4),
    st.integers(1, 3),
    st.integers(-9, 9),
)
def test_shift_equals_the_rotated_word(group, block, repeats, m):
    # repeating the block makes non-primitive words as well as primitive ones
    abc = list(group.elements())
    word = tuple(abc[v % len(abc)] for v in block) * repeats
    x = PeriodicConfig(group, word)
    q = len(word)
    rotated = PeriodicConfig(group, word[m % q:] + word[:m % q])
    y = x.shift(m)
    assert y == rotated
    assert hash(y) == hash(rotated)
    assert y.period == x.period


def test_add_examples():
    x = cfg(Z2, 0, 1)
    zero = PeriodicConfig.zero(Z2)
    assert x + zero == x
    ones = cfg(Z2, 1)
    assert x + ones == cfg(Z2, 1, 0)
    w = cfg(Z2, 0, 0, 1, 1)
    assert x + w == cfg(Z2, 0, 1, 1, 0)


@given(st.data())
def test_add_is_commutative_group_small(data):
    words = st.lists(st.integers(0, 1), min_size=1, max_size=4)
    x = cfg(Z2, *data.draw(words))
    y = cfg(Z2, *data.draw(words))
    z = cfg(Z2, *data.draw(words))
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x + (-x) == PeriodicConfig.zero(Z2)
    assert x + PeriodicConfig.zero(Z2) == x


def test_at_indexing_is_anchored():
    x = cfg(Z2, 0, 1, 1)
    assert [x.at(i) for i in range(-3, 4)] == [
        (0,), (1,), (1,), (0,), (1,), (1,), (0,)
    ]
    assert x.window(-1, 3) == ((1,), (0,), (1,))


def test_cylinder_membership():
    c = Cylinder(0, ((0,), (1,), (0,)))
    assert c.end == 3
    assert c.shifted(2) == Cylinder(2, c.word)
    assert Cylinder(0, ((0,),)).length == 1
    with pytest.raises(ValueError):
        Cylinder(0, ())
