"""Periodic biinfinite configurations and cylinder sets.

A configuration is anchored: it is the function i -> word[i mod q], so two
rotations of the same word are distinct configurations (the shift genuinely
moves points).
"""

from __future__ import annotations

import math
from typing import Iterable

from .groups import Element, GroupSpec, _setfield, record

Word = tuple[Element, ...]


def _minimal_word(word: Word) -> Word:
    """Shortest prefix whose repetition gives the word."""
    q = len(word)
    for p in range(1, q):
        if q % p == 0 and word[:p] * (q // p) == word:
            return word[:p]
    return word


@record
class PeriodicConfig:
    """A periodic point of the full group shift, stored by its repeating word."""

    alphabet: GroupSpec
    word: Word

    def __init__(self, alphabet: GroupSpec, word: Iterable[Iterable[int]]) -> None:
        if not word:
            raise ValueError("period word must be nonempty")
        word = tuple(alphabet.element(letter) for letter in word)
        _setfield(self, "alphabet", alphabet)
        _setfield(self, "word", _minimal_word(word))

    # written out: configurations are hashed in every kernel closure
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.alphabet, self.word) == (other.alphabet, other.word)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.alphabet, self.word))

    @classmethod
    def _unchecked(cls, alphabet: GroupSpec, word: Word) -> "PeriodicConfig":
        """The configuration of a word already of reduced letters and minimal,
        stored without checking it again."""
        out = object.__new__(cls)
        _setfield(out, "alphabet", alphabet)
        _setfield(out, "word", word)
        return out

    @classmethod
    def zero(cls, alphabet: GroupSpec) -> "PeriodicConfig":
        return cls(alphabet, (alphabet.zero,))

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

    def __str__(self) -> str:
        letters = ",".join(
            str(a[0]) if len(a) == 1 else "".join(map(str, a)) for a in self.word
        )
        return f"inf({letters})inf"


@record
class Cylinder:
    """The set of configurations matching a word starting at a coordinate."""

    offset: int
    word: Word

    def __init__(self, offset: int, word: Iterable[Iterable[int]]) -> None:
        if not word:
            raise ValueError("cylinder word must be nonempty")
        _setfield(self, "offset", offset)
        _setfield(self, "word", tuple(tuple(a) for a in word))

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def end(self) -> int:
        """One past the last constrained coordinate."""
        return self.offset + len(self.word)

    def shifted(self, m: int) -> "Cylinder":
        """Preimage under the m-th shift power: sigma^-m [w]_i = [w]_(i+m)."""
        return Cylinder(self.offset + m, self.word)
