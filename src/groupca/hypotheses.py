"""The rigidity theorem's premises about an automaton, and the entropy
closed forms for bipermutative rules.

At module level it needs only `groups`, so the closed forms that `entropy`
reads execute nothing else; `shifts` is bound lazily (`groupca._lazy`) and
runs when `check_hypotheses` reads a subgroup shift.  Reporting the premises
for an abstract measure loads neither `measures` nor `entropy`, which make
these names importable there too.  `kernels` is imported inside
`check_hypotheses`, and `measures` only when a measure object is given.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from . import _lazy
from .groups import record

if TYPE_CHECKING:
    from .automata import CellularAutomaton
    from .kernels import Condition4Result, CorollaryKerResult, KernelTower
    from .measures import MeasureSpec
    from .shifts import SubgroupShiftSpec

shifts = _lazy("shifts")

ENTROPY_SAMPLES = 20_000  # windows `check_hypotheses` samples where no closed form applies


def _require_bipermutative(F: CellularAutomaton) -> CellularAutomaton:
    small = F.smallest_neighborhood()
    if not small.permutativity().bipermutative:
        raise ValueError("entropy formula needs a bipermutative rule")
    return small


def formula_case(F: CellularAutomaton) -> str:
    r, s = F.smallest_neighborhood().neighborhood
    if r >= 0:
        return "right"
    if s <= 0:
        return "left"
    return "straddling"


def formula_entropy(F: CellularAutomaton, h_sigma: float) -> float:
    """Closed-form automaton entropy from shift entropy, by neighborhood sign."""
    small = _require_bipermutative(F)
    r, s = small.neighborhood
    return {"right": s, "left": -r, "straddling": s - r}[formula_case(small)] * h_sigma


def conjugacy_width(F: CellularAutomaton) -> int:
    """Width of the column alphabet conjugating the automaton to a full shift."""
    r, s = F.smallest_neighborhood().neighborhood
    return max(s, 0) - min(r, 0)


def topological_entropy(F: CellularAutomaton) -> float:
    """Topological entropy of a bipermutative automaton, in nats."""
    small = _require_bipermutative(F)
    return conjugacy_width(small) * math.log(small.alphabet.order)


@record
class HypothesisReport:
    """Checkable and uncheckable premises of the rigidity statement for one
    automaton, subgroup shift and measure."""

    automaton: str
    sigma: str
    measure: str
    nontrivial: bool
    bipermutative: bool
    k: int
    p1: int | None
    k_p1: int | None
    condition4: Condition4Result | None
    corollary_ker: CorollaryKerResult | None
    entropy_positive: bool | None
    entropy_method: str
    unchecked: tuple[str, ...]
    criteria_skipped: str | None = None

    @property
    def premise_failed(self) -> bool:
        """A checked premise is False; a skipped criterion or an unchecked
        premise is a gap, not a failure."""
        return (not self.nontrivial or not self.bipermutative or self.entropy_positive is False
                or (self.condition4 is not None and not self.condition4.found))

    @property
    def all_checkable_hold(self) -> bool:
        return not self.premise_failed and self.condition4 is not None


def check_hypotheses(
    F: CellularAutomaton | KernelTower,
    sigma: SubgroupShiftSpec | None = None,
    mu: MeasureSpec | str = "abstract",
    m_max: int = 4,
    seed: int = 0,
) -> HypothesisReport:
    """Populate every checkable premise; ergodicity and invariant-set algebra
    equalities stay explicitly unchecked.

    F may be a kernel tower: p1 and both density criteria read its levels
    and extend it, under its own cap."""
    from .kernels import _unrestricted, condition4_search, corollary_ker_check

    if m_max < 0:  # refused here: the criteria's ValueErrors become criteria_skipped
        raise ValueError(f"m_max must be >= 0, got {m_max}")
    tw = _unrestricted(F)
    F = tw.automaton
    sigma = shifts.subgroup_shift_on(sigma, F.alphabet)
    if not isinstance(mu, str):  # a measure object: `measures` has run
        from .measures import _same_alphabet, sigma_entropy_exact

        _same_alphabet(mu, F)
    small = F.smallest_neighborhood()
    nontrivial = not small.is_trivial
    perm = small.permutativity()
    k = F.alphabet.radical
    p1 = kp1 = None
    cond4 = corker = None
    skipped = None
    if not nontrivial:
        skipped = "trivial rule: no kernel tower to check"
    else:
        try:
            p1 = (tw.period(1) if isinstance(sigma, shifts.FullShift)
                  else tw.restricted_level(1, sigma).period)
            kp1 = k * p1
            cond4 = condition4_search(tw, sigma, m_max=m_max)
            corker = corollary_ker_check(tw, sigma)
        except ValueError as exc:
            skipped = f"{type(exc).__name__}: {exc}"
    entropy_positive: bool | None = None
    method = "unchecked (abstract measure)"
    if not isinstance(mu, str):
        h = sigma_entropy_exact(mu)
        if h is not None:
            entropy_positive = h > 0
            method = f"exact shift entropy {h:.6f} nats"
        else:
            import random

            from .entropy import _shift_entropy

            est = _shift_entropy(mu, ENTROPY_SAMPLES, 4, random.Random(seed))
            entropy_positive = est > 0.02
            method = (f"estimated shift entropy {est:.4f} nats ({ENTROPY_SAMPLES} samples, "
                      f"seed {seed}; positive above 0.02 nats)")
    unchecked = (
        "measure ergodicity for the joint rule/shift action",
        "equality of the shift-invariant sets with those of shift power "
        f"{kp1 if kp1 else 'k*p1'} (mod the measure)",
    )
    return HypothesisReport(
        automaton=F.describe(),
        sigma=sigma.describe(),
        measure=mu if isinstance(mu, str) else mu.describe(),
        nontrivial=nontrivial,
        bipermutative=perm.bipermutative,
        k=k,
        p1=p1,
        k_p1=kp1,
        condition4=cond4,
        corollary_ker=corker,
        entropy_positive=entropy_positive,
        entropy_method=method,
        unchecked=unchecked,
        criteria_skipped=skipped,
    )
