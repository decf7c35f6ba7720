"""Independent oracles that spot-check expected.json on the smallest cases.

They share no code with `groupca`: rules are evaluated from the pool specs
with plain integer arithmetic, and every set is built by brute force.

- size law: a bipermutative rule's kernel level n has |A|^(w*n) elements;
- pushforward probabilities: summing the base weights over all input words
  that map onto each target word;
- condition 4: the boundary generation search redone with kernel levels
  found by trying every word of the level's period, and subgroups grown by a
  naive worklist closure.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from pools import local_rule, width

# Largest brute-force spaces the oracles will walk.
MAX_WORDS = 1 << 12
MAX_INPUT_WORDS = 1 << 12


def _bipermutative(spec: dict) -> bool:
    if "coeffs" not in spec:
        return False
    d = spec["moduli"][0]
    coeffs = {int(u): c for u, c in spec["coeffs"].items()}
    r, s = min(coeffs), max(coeffs)
    return r < s and math.gcd(coeffs[r], d) == 1 and math.gcd(coeffs[s], d) == 1


def check_size_law(spec: dict, answer: dict) -> str | None:
    if not _bipermutative(spec):
        return None
    order, w = spec["moduli"][0], width(spec)
    want = [order ** (w * n) for n in range(len(answer["sizes"]))]
    if answer["sizes"] != want:
        return f"size law: expected {want}, file has {answer['sizes']}"
    return None


# -- pushforward by brute force --------------------------------------------------------


def _apply(f, w: int, word: tuple) -> tuple:
    """The image word under the local rule `f` of width `w` (s - r)."""
    return tuple(f(word[i:i + w + 1]) for i in range(len(word) - w))


def pushforward_blocks(rule: dict, weights: list[Fraction], j: int, length: int) -> dict:
    """Distribution of length-`length` blocks of F^j of a Bernoulli measure."""
    d = rule["moduli"][0]
    f, w = local_rule(rule), width(rule)
    span = length + j * w
    out: dict[tuple, Fraction] = {}
    for word in itertools.product(range(d), repeat=span):
        p = Fraction(1)
        for a in word:
            p *= weights[a]
        image = word
        for _ in range(j):
            image = _apply(f, w, image)
        out[image] = out.get(image, Fraction(0)) + p
    return out


def bernoulli_discrepancy(rule: dict, weights: list[Fraction], j: int, length: int) -> Fraction:
    """max over words of length <= L of |F^j mu [w] - mu [w]| (both measures
    are shift invariant, so offsets do not matter)."""
    d = rule["moduli"][0]
    best = Fraction(0)
    for ell in range(1, length + 1):
        push = pushforward_blocks(rule, weights, j, ell)
        for word in itertools.product(range(d), repeat=ell):
            p = Fraction(1)
            for a in word:
                p *= weights[a]
            best = max(best, abs(push.get(word, Fraction(0)) - p))
    return best


def check_invariance(spec: dict, answer: dict) -> list[str] | None:
    """Spot-check Bernoulli invariance discrepancies with small input spaces."""
    measure = spec["measure"]
    if measure["type"] != "bernoulli":
        return None
    rule = spec["rule"]
    d = rule["moduli"][0]
    weights = [Fraction(w) for w in measure["weights"]]
    errors = []
    checked = False
    for j, shift, disc, _, _ in answer["invariance"]:
        if shift or d ** (spec["length"] + j * width(rule)) > MAX_INPUT_WORDS:
            continue
        checked = True
        want = bernoulli_discrepancy(rule, weights, j, spec["length"])
        if Fraction(disc) != want:
            errors.append(f"pushforward F^{j}: expected {want}, file has {disc}")
    return errors if checked else None


# -- condition 4 by naive closure --------------------------------------------------------


def kernel_words(spec: dict, n: int, period: int) -> set[tuple]:
    """Words of length `period` whose periodic extension F^n kills."""
    d = spec["moduli"][0]
    f, w = local_rule(spec), width(spec)
    out = set()
    for word in itertools.product(range(d), repeat=period):
        x = word
        for _ in range(n):
            x = _apply(f, w, x + x[:w])
        if not any(x):
            out.add(word)
    return out


def _close(generator: tuple, spec: dict) -> set[tuple]:
    """Smallest set with zero and the generator that is closed under adding
    two members, the shift and the rule (naive worklist)."""
    d = spec["moduli"][0]
    f, w = local_rule(spec), width(spec)
    zero = (0,) * len(generator)
    members = {zero}
    work = [generator]
    while work:
        x = work.pop()
        if x in members:
            continue
        members.add(x)
        for y in list(members):
            work.append(tuple((a + b) % d for a, b in zip(x, y)))
        work.append(x[1:] + x[:1])
        work.append(_apply(f, w, x + x[:w]))
    return members


def _lift(word: tuple, period: int) -> tuple:
    return tuple(word[i % len(word)] for i in range(period))


def check_condition4(spec: dict, m_max: int, answer: dict) -> str | None:
    """Redo condition4_search from the expected periods; None when the word
    space is too large for brute force."""
    d = spec["moduli"][0]
    periods = answer["periods"]
    top = m_max + 1
    if top >= len(periods) or any(d ** periods[n] > MAX_WORDS for n in range(1, top + 1)):
        return None
    levels = {n: kernel_words(spec, n, periods[n]) for n in range(1, top + 1)}
    sizes = answer["sizes"]
    for n, words in levels.items():
        if len(words) != sizes[n]:
            return f"level {n}: {len(words)} words of period {periods[n]}, file has {sizes[n]}"
    found, m_found = False, None
    for m in range(m_max + 1):
        p = periods[m + 1]
        d1 = {_lift(x, p) for x in levels[1]}
        cur = levels[m + 1]
        prev = {_lift(x, p) for x in levels[m]} if m > 0 else {(0,) * p}
        bound = [x for x in cur if x not in prev]
        if all(d1 <= _close(x, spec) for x in bound):
            found, m_found = True, m
            break
    if [found, m_found] != answer["condition4"][:2]:
        return f"condition 4: naive closure gives {[found, m_found]}, file has {answer['condition4'][:2]}"
    return None
