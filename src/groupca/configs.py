"""Periodic biinfinite configurations and cylinder sets.

A configuration is anchored: it is the function i -> word[i mod q], so two
rotations of the same word are distinct configurations (the shift genuinely
moves points).  The least rotation is still available as an orbit key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .groups import Element, GroupSpec

Word = tuple[Element, ...]


def _minimal_word(word: Word) -> Word:
    """Shortest prefix whose repetition gives the word."""
    q = len(word)
    for p in range(1, q):
        if q % p == 0 and word[:p] * (q // p) == word:
            return word[:p]
    return word


@dataclass(frozen=True)
class PeriodicConfig:
    """A periodic point of the full group shift, stored by its repeating word."""

    alphabet: GroupSpec
    word: Word

    def __post_init__(self) -> None:
        if not self.word:
            raise ValueError("period word must be nonempty")
        word = tuple(self.alphabet.element(letter) for letter in self.word)
        object.__setattr__(self, "word", _minimal_word(word))

    @classmethod
    def _unchecked(cls, alphabet: GroupSpec, word: Word) -> "PeriodicConfig":
        """The configuration of a word already of reduced letters and minimal,
        stored without checking it again."""
        out = object.__new__(cls)
        object.__setattr__(out, "alphabet", alphabet)
        object.__setattr__(out, "word", word)
        return out

    @classmethod
    def zero(cls, alphabet: GroupSpec) -> "PeriodicConfig":
        return cls(alphabet, (alphabet.zero,))

    @classmethod
    def constant(cls, alphabet: GroupSpec, letter: Element) -> "PeriodicConfig":
        return cls(alphabet, (letter,))

    @property
    def period(self) -> int:
        return len(self.word)

    @property
    def is_zero(self) -> bool:
        return self.word == (self.alphabet.zero,)

    def at(self, i: int) -> Element:
        return self.word[i % len(self.word)]

    def window(self, start: int, length: int) -> Word:
        return tuple(self.at(i) for i in range(start, start + length))

    def shift(self, m: int = 1) -> "PeriodicConfig":
        """The image under the m-th shift power: position i reads old position i+m.

        A rotation of a reduced, minimal word is itself reduced and minimal,
        so the rotated word is stored without checking it again.
        """
        m %= len(self.word)
        if m == 0:
            return self
        return PeriodicConfig._unchecked(self.alphabet, self.word[m:] + self.word[:m])

    def __add__(self, other: "PeriodicConfig") -> "PeriodicConfig":
        if other.alphabet != self.alphabet:
            raise ValueError("alphabet mismatch")
        q = math.lcm(self.period, other.period)
        word = tuple(
            self.alphabet.add(self.at(i), other.at(i)) for i in range(q)
        )
        return PeriodicConfig(self.alphabet, word)

    def __neg__(self) -> "PeriodicConfig":
        return PeriodicConfig(self.alphabet, tuple(self.alphabet.neg(a) for a in self.word))

    def canonical_rotation(self) -> "PeriodicConfig":
        """Lexicographically least rotation; identifies the shift orbit."""
        q = len(self.word)
        best = min(self.word[m:] + self.word[:m] for m in range(q))
        return PeriodicConfig(self.alphabet, best)

    def same_orbit(self, other: "PeriodicConfig") -> bool:
        return self.canonical_rotation() == other.canonical_rotation()

    def __str__(self) -> str:
        letters = ",".join(
            str(a[0]) if len(a) == 1 else "".join(map(str, a)) for a in self.word
        )
        return f"inf({letters})inf"


def group_word(word: Sequence[Element], r: int) -> Word:
    """Regroup a word into blocks of r letters over the power alphabet."""
    if r < 1:
        raise ValueError("block size must be >= 1")
    if len(word) % r != 0:
        raise ValueError(f"word length {len(word)} not divisible by block size {r}")
    return tuple(
        tuple(c for letter in word[i : i + r] for c in letter)
        for i in range(0, len(word), r)
    )


def ungroup_word(word: Sequence[Element], alphabet: GroupSpec, r: int) -> Word:
    """Inverse of group_word: split power-alphabet letters back into r letters."""
    k = alphabet.rank
    out = []
    for block in word:
        if len(block) != k * r:
            raise ValueError("grouped letter has wrong shape")
        out.extend(tuple(block[j * k : (j + 1) * k]) for j in range(r))
    return tuple(out)


def group_blocks(x: PeriodicConfig, r: int) -> PeriodicConfig:
    """The block-grouping recoding: conjugates the r-th shift power to the shift."""
    if r < 1:
        raise ValueError("block size must be >= 1")
    q = math.lcm(x.period, r)
    expanded = x.window(0, q)
    return PeriodicConfig(x.alphabet.power(r), group_word(expanded, r))


def ungroup_blocks(x: PeriodicConfig, alphabet: GroupSpec, r: int) -> PeriodicConfig:
    if x.alphabet != alphabet.power(r):
        raise ValueError("config alphabet is not the expected power group")
    return PeriodicConfig(alphabet, ungroup_word(x.word, alphabet, r))


@dataclass(frozen=True)
class Cylinder:
    """The set of configurations matching a word starting at a coordinate."""

    offset: int
    word: Word

    def __post_init__(self) -> None:
        if not self.word:
            raise ValueError("cylinder word must be nonempty")
        object.__setattr__(self, "word", tuple(tuple(a) for a in self.word))

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def end(self) -> int:
        """One past the last constrained coordinate."""
        return self.offset + len(self.word)

    def contains_config(self, x: PeriodicConfig) -> bool:
        return all(x.at(self.offset + t) == a for t, a in enumerate(self.word))

    def shifted(self, m: int) -> "Cylinder":
        """Preimage under the m-th shift power: sigma^-m [w]_i = [w]_(i+m)."""
        return Cylinder(self.offset + m, self.word)
