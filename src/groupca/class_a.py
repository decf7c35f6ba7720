"""One-sided radius-1 invertible expansive automata and their dual rules.

The local rule's dependence on its second argument partitions the alphabet;
invertibility and expansivity are combinatorial conditions on that partition,
the diagonal map and the successor sets.  For automata passing all of them
(Class (A)), the time evolution read through class labels is itself a CA on
the quotient alphabet, bipermutative on the two-sided window [-1, 1].
"""

from __future__ import annotations

import itertools
from typing import Mapping

from .automata import (DEFAULT_TABLE_CAP, CellularAutomaton, NotAlgebraicError, as_laurent,
                       letters, table_ca)
from .groups import CapExceeded, Element, GroupSpec, record


@record
class ClassAAnalysis:
    """Partition data of a one-sided radius-1 rule and the derived verdicts."""

    automaton: CellularAutomaton
    classes: tuple[tuple[Element, ...], ...]
    class_of: Mapping[Element, int]
    pi: Mapping[Element, Element]
    succ: Mapping[Element, frozenset[Element]]
    left_permutative: bool
    pi_is_permutation: bool
    succ_in_pi_class: bool
    intersections_at_most_one: bool
    succ_equals_pi_class: bool

    @property
    def invertible_r1(self) -> bool:
        """Invertible with a radius-1 inverse."""
        return self.pi_is_permutation and self.left_permutative and self.succ_in_pi_class

    @property
    def class_a(self) -> bool:
        return (
            self.invertible_r1
            and self.intersections_at_most_one
            and self.succ_equals_pi_class
        )

    @property
    def quotient_size(self) -> int:
        return len(self.classes)


def analyze_radius1(F: CellularAutomaton) -> ClassAAnalysis:
    """Exhaustive partition analysis of a one-sided rule on the window [0, 1]:
    the local rule reads each of the |A|^2 windows, refused past
    DEFAULT_TABLE_CAP before any is read."""
    if F.neighborhood != (0, 1):
        raise ValueError(f"analysis needs the neighborhood [0,1], got {F.neighborhood}")
    n = F.alphabet.order
    if n * n > DEFAULT_TABLE_CAP:
        raise CapExceeded(f"radius-1 analysis of |A|^2 = {n * n} windows "
                          f"exceeds cap {DEFAULT_TABLE_CAP}")
    abc = letters(F.alphabet)
    by_signature: dict[tuple[Element, ...], list[Element]] = {}
    for a in abc:
        sig = tuple(F.local((c, a)) for c in abc)
        by_signature.setdefault(sig, []).append(a)
    classes = tuple(sorted(tuple(sorted(block)) for block in by_signature.values()))
    class_of = {a: i for i, block in enumerate(classes) for a in block}
    pi = {a: F.local((a, a)) for a in abc}
    succ = {a: frozenset(F.local((a, x)) for x in abc) for a in abc}
    left = all(
        len({F.local((a, u)) for a in abc}) == len(abc) for u in abc
    )
    pi_perm = len(set(pi.values())) == len(abc)
    pi_class = {a: frozenset(pi[b] for b in classes[class_of[a]]) for a in abc}
    succ_in = all(succ[a] <= pi_class[a] for a in abc)
    succ_eq = all(succ[a] == pi_class[a] for a in abc)
    inter = all(
        len(set(c1) & {pi[b] for b in c2}) <= 1
        for c1 in classes
        for c2 in classes
    )
    return ClassAAnalysis(
        F, classes, class_of, pi, succ, left, pi_perm, succ_in, inter, succ_eq
    )


def _verify_inverse(F: CellularAutomaton, inv: CellularAutomaton) -> None:
    abc = letters(F.alphabet)
    for window in itertools.product(abc, repeat=3):
        mid = F.apply_window(window)
        if inv.apply_window(mid) != (window[0],):
            raise ValueError("inverse candidate fails on the forward composite")
        mid2 = inv.apply_window(window)
        if F.apply_window(mid2) != (window[0],):
            raise ValueError("inverse candidate fails on the backward composite")


def invert_radius1(F: CellularAutomaton) -> CellularAutomaton:
    """The radius-1 inverse of an invertible one-sided rule.

    The inverse table is read off all window triples, checked for
    consistency, and the round trip is verified exhaustively.
    """
    analysis = analyze_radius1(F)
    if not analysis.invertible_r1:
        raise ValueError("rule is not invertible with a radius-1 inverse")
    abc = letters(F.alphabet)
    table: dict = {}
    for a, b, c in itertools.product(abc, repeat=3):
        key = (F.local((a, b)), F.local((b, c)))
        if table.setdefault(key, a) != a:
            raise ValueError("inverse table is inconsistent: rule not invertible")
    if len(table) != len(abc) ** 2:
        raise ValueError("inverse table is incomplete: rule not invertible")
    inv = table_ca(F.alphabet, (0, 1), table)
    _verify_inverse(F, inv)
    return inv


@record
class DualCA:
    """The induced rule on class labels, acting on the two-sided window [-1,1].

    `automaton` is the solved table form on the index alphabet; `linear_form`
    is the linear rule it equals, when the table is additive; `inverse` is
    the verified radius-1 inverse of the rule it was solved from
    (`invert_radius1`), which `verify_conjugacy` reads.
    """

    automaton: CellularAutomaton
    provenance: str
    analysis: ClassAAnalysis
    inverse: CellularAutomaton
    linear_form: CellularAutomaton | None = None

    @property
    def alphabet(self) -> GroupSpec:
        return self.automaton.alphabet

    def rule_table(self) -> dict:
        return dict(self.automaton.table)


def _solve_dual_table(
    F: CellularAutomaton, inv: CellularAutomaton, analysis: ClassAAnalysis
) -> dict:
    """Read the dual rule off all letter pairs: one time-step of the orbit of
    (a b ...) determines the class above, below and at the pair, and the
    label transported one step right must be a function of those three."""
    cls = analysis.class_of
    abc = letters(F.alphabet)
    table: dict = {}
    for a, b in itertools.product(abc, repeat=2):
        alpha = (cls[inv.local((a, b))],)
        beta = (cls[a],)
        gamma = (cls[F.local((a, b))],)
        delta = (cls[b],)
        key = (alpha, beta, gamma)
        if table.setdefault(key, delta) != delta:
            raise ValueError(
                "dual rule is not single-valued: input is not in Class (A)"
            )
    n = analysis.quotient_size
    if len(table) != n**3:
        raise ValueError("dual rule is not total: input is not in Class (A)")
    return table


def dual_ca(F: CellularAutomaton) -> DualCA:
    """Dual rule of a Class (A) automaton on the quotient alphabet.

    The table is solved from the commuting orbit constraints; its linear
    form, when it has one (`as_laurent`), gives provenance "formula".
    """
    analysis = analyze_radius1(F)
    if not analysis.class_a:
        raise ValueError("dual rule needs a Class (A) automaton")
    inv = invert_radius1(F)
    table = _solve_dual_table(F, inv, analysis)
    quotient = GroupSpec((analysis.quotient_size,))
    solved = table_ca(quotient, (-1, 1), table)
    if not solved.permutativity().bipermutative:
        raise AssertionError("dual rule is not bipermutative")
    try:
        linear_form = as_laurent(solved)
    except NotAlgebraicError:
        return DualCA(solved, "solved", analysis, inv)
    return DualCA(solved, "formula", analysis, inv, linear_form)


@record
class ConjugacyResult:
    ok: bool
    windows_checked: int
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_conjugacy(
    F: CellularAutomaton,
    dual: DualCA,
    depth: int = 2,
    width: int = 6,
) -> ConjugacyResult:
    """Check the commuting square on every seed window: class labels of the
    orbit shifted one cell right must equal the dual rule applied to the
    label column, wherever both sides are determined.

    The check at row n, column j reads only seed[j .. j+|n|+1], the same way
    at every j, so the seeds of width min(width, depth+1) decide the verdict
    of every wider walk.  A pass counts the positions the full walk covers;
    a failure walks the full seeds for the first witness and the count up to
    it.  A depth below 1 or a width below 2 would check no position, so it
    is refused.  The backward rows use the inverse kept on the dual when
    the dual was solved from F, and invert F otherwise.
    """
    if depth < 1 or width < 2:
        raise ValueError(
            f"conjugacy check needs depth >= 1 and width >= 2, got depth {depth}"
            f" and width {width}"
        )
    cls = dual.analysis.class_of
    inv = dual.inverse if dual.analysis.automaton == F else invert_radius1(F)
    abc = letters(F.alphabet)
    # flat lookup tables keep the seed loop tight
    ftab = {(a, b): F.local((a, b)) for a in abc for b in abc}
    itab = {(a, b): inv.local((a, b)) for a in abc for b in abc}
    dtab = {
        (k[0][0], k[1][0], k[2][0]): v[0]
        for k, v in dual.automaton.table.items()
    }

    def walk(w: int) -> ConjugacyResult:
        checked = 0
        for seed in itertools.product(abc, repeat=w):
            rows: dict[int, tuple] = {0: seed}
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
                for j in range(w - abs(n) - 1):
                    checked += 1
                    want = dtab[below[j], here[j], above[j]]
                    if want != here[j + 1]:
                        return ConjugacyResult(False, checked, (seed, n, j, here[j + 1], want))
        return ConjugacyResult(True, checked)

    if walk(min(width, depth + 1)).ok:
        per_seed = sum(max(0, width - abs(n) - 1) for n in range(-depth + 1, depth))
        return ConjugacyResult(True, len(abc) ** width * per_seed)
    return walk(width)
