"""Fixed input pools for the three workloads.

A workload is a list of slots.  Each slot names a pool of jobs of one shape
(alphabet, width, depth, kind of analysis); the seed picks one pool item per
slot draw, so every seed gives a job list of the same shape and roughly the
same cost, while the rules, weights and measures themselves vary.  Pools are
finite so that every answer can be kept in `expected.json`.

This module is plain data and arithmetic: it does not import `groupca`.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

# -- rule specs ------------------------------------------------------------------
#
# A rule spec is {"moduli": [d], "nbhd": [r, s], "coeffs": {offset: c}} for a
# linear rule on Z/d, or {"moduli": [d], "nbhd": [r, s], "table": [[window,
# value], ...]} for a table rule (windows are lists of residues).


def lin(d: int, coeffs: dict[int, int]) -> dict:
    offsets = sorted(coeffs)
    return {
        "moduli": [d],
        "nbhd": [offsets[0], offsets[-1]],
        "coeffs": {str(u): c % d for u, c in sorted(coeffs.items())},
    }


def local_rule(spec: dict):
    """The local rule as a function of a window of residues (own arithmetic)."""
    if "table" in spec:
        table = {tuple(w): v for w, v in spec["table"]}
        return lambda window: table[tuple(window)]
    d = spec["moduli"][0]
    r = spec["nbhd"][0]
    coeffs = [(int(u) - r, c) for u, c in spec["coeffs"].items()]
    return lambda window: sum(c * window[i] for i, c in coeffs) % d


def as_table(spec: dict) -> dict:
    """The table form of a linear rule spec, built letter by letter."""
    d = spec["moduli"][0]
    r, s = spec["nbhd"]
    f = local_rule(spec)
    entries = [[list(w), f(w)] for w in itertools.product(range(d), repeat=s - r + 1)]
    return {"moduli": [d], "nbhd": [r, s], "table": entries}


def width(spec: dict) -> int:
    r, s = spec["nbhd"]
    return s - r


def depth_for(order: int, w: int) -> int:
    """Kernel tower depth: the largest N with |A|^(w*N) <= 128, at least 1."""
    n = 1
    while order ** (w * (n + 1)) <= 128:
        n += 1
    return n


def m_max_for(order: int, w: int) -> int:
    """Boundary search depth: 1 while level 2 has at most 256 elements."""
    return 1 if order ** (2 * w) <= 256 else 0


# Dual rules of the two bundled Class (A) automata, on the quotient alphabet
# Z/2 and the window [-1, 1].
DUAL_F1 = {
    "moduli": [2], "nbhd": [-1, 1],
    "table": [[[0, 0, 0], 0], [[0, 0, 1], 1], [[0, 1, 0], 1], [[0, 1, 1], 0],
              [[1, 0, 0], 1], [[1, 0, 1], 0], [[1, 1, 0], 0], [[1, 1, 1], 1]],
}
DUAL_F2 = {
    "moduli": [2], "nbhd": [-1, 1],
    "table": [[[0, 0, 0], 0], [[0, 0, 1], 1], [[0, 1, 0], 0], [[0, 1, 1], 1],
              [[1, 0, 0], 1], [[1, 0, 1], 0], [[1, 1, 0], 1], [[1, 1, 1], 0]],
}

def variants(d: int, coeffs: dict[int, int]) -> list[dict]:
    """Rules with the same kernel structure as sum c_u x^u: its unit
    multiples and those of its reflection, each on two neighborhoods.  They
    share verdicts and cost, so seeds vary the rules without moving the load."""
    top = max(coeffs)
    forms = [coeffs, {top - u: c for u, c in coeffs.items()}]
    out: dict[str, dict] = {}
    for form in forms:
        for unit in (c for c in range(1, d) if math.gcd(c, d) == 1):
            for shift in (0, -1):
                spec = lin(d, {u + shift: unit * c for u, c in form.items()})
                out.setdefault(json.dumps(spec, sort_keys=True), spec)
    return list(out.values())


def table_variants(d: int, coeffs: dict[int, int]) -> list[dict]:
    return [as_table(spec) for spec in variants(d, coeffs)]


# kernel_sweep slots: (slot name, distinct draws per job list, rule pool); a
# draw count of "all" takes the whole pool.  Slots with "m1" hold rules whose
# boundary search fails at m = 0, so condition4_search walks its expensive
# m = 1 branch.  The cheap slots are drawn twice: their jobs sit around the
# median job latency, and two variants each keep that median from moving with
# the seed's picks; the three slots of 0.6 s jobs and more are drawn once.
KERNEL_SLOTS: list[tuple[str, int | str, list[dict]]] = [
    ("z2_1+x", 2, variants(2, {0: 1, 1: 1})),
    ("z2_1+x+x2", 2, variants(2, {0: 1, 1: 1, 2: 1})),
    ("z2_1+x2_m1", 2, variants(2, {0: 1, 2: 1})),
    ("z2_1+x+x3", 2, variants(2, {0: 1, 1: 1, 3: 1})),
    ("z2_(1+x)3_m1", 2, variants(2, {0: 1, 1: 1, 2: 1, 3: 1})),
    ("z2_1+x3_m1", 2, variants(2, {0: 1, 3: 1})),
    ("z3_1+x", 2, variants(3, {0: 1, 1: 1})),
    ("z3_1+x2", 2, variants(3, {0: 1, 2: 1})),
    ("z3_1+x+2x2", 2, variants(3, {0: 1, 1: 1, 2: 2})),
    ("z3_(1+x)2_m1", 1, variants(3, {0: 1, 1: 2, 2: 1})),
    ("z3_(1+2x)2_m1", 2, variants(3, {0: 1, 1: 1, 2: 1})),
    ("z5_1+x", 2, variants(5, {0: 1, 1: 1})),
    ("z5_1+2x", 2, variants(5, {0: 1, 1: 2})),
    ("z5_1+x+x2", 2, variants(5, {0: 1, 1: 1, 2: 1})),
    ("z4_1+x", 2, variants(4, {0: 1, 1: 1})),
    ("z4_1+x+2x2", 2, variants(4, {0: 1, 1: 1, 2: 2})),
    ("z9_1+x", 1, variants(9, {0: 1, 1: 1})),
    ("table_dual", 2, [DUAL_F1, DUAL_F2]),
    ("table_z3_(1+x)2_m1", 1, table_variants(3, {0: 1, 1: 2, 2: 1})),
]


# -- measures ---------------------------------------------------------------------
#
# A measure spec is {"type": "bernoulli", "moduli": [d], "weights": [num/den
# strings]} or {"type": "haar_product", "moduli": [d], "grouping": t, "block":
# [[...], ...]} or {"type": "haar_kernel", "rule": spec}, or the pushforward /
# mixture / orbit forms used by the character and orbit jobs.


def bern(d: int, nums: tuple[int, ...]) -> dict:
    """Bernoulli measure on Z/d with letter weights proportional to `nums`."""
    total = sum(nums)
    return {"type": "bernoulli", "moduli": [d],
            "weights": [str(Fraction(n, total)) for n in nums]}


Z2_WEIGHTS = [(1, 2), (1, 3), (2, 3), (3, 5), (2, 7), (5, 3)]
Z3_WEIGHTS = [(1, 1, 1), (1, 2, 3), (2, 1, 1), (3, 1, 2), (1, 1, 4), (2, 3, 2)]
Z5_WEIGHTS = [(1, 1, 1, 1, 1), (1, 2, 3, 2, 1), (2, 1, 1, 1, 1), (3, 1, 2, 1, 1)]

Z2_DIAG = [[0, 0], [1, 1]]
Z2_ZERO_EVEN = [[0, 0], [0, 1]]
Z3_DIAG = [[0, 0], [1, 1], [2, 2]]
Z3_ANTI = [[0, 0], [1, 2], [2, 1]]


def _invariance(measure: dict, rule: dict | None, checks: list[tuple[int, int]],
                length: int) -> dict:
    """Exact invariance checks of `measure` under F^j composed with the
    shift power, for each (j, shift) in `checks`."""
    return {"kind": "invariance", "measure": measure, "rule": rule,
            "checks": [list(c) for c in checks], "length": length}


def _cesaro(measure: dict, rule: dict, steps: int, length: int) -> dict:
    return {"kind": "cesaro", "measure": measure, "rule": rule,
            "steps": steps, "length": length}


def _haar_product(d: int, block: list, rule: dict) -> dict:
    measure = {"type": "haar_product", "moduli": [d], "grouping": 2, "block": block}
    return _invariance(measure, rule, [(0, 1), (1, 0)], 4)


# The slots whose jobs sit around the median job latency are drawn twice, so
# that median does not move with the seed's picks (their variants differ in
# cost by up to 1.7x).
MEASURE_SLOTS: list[tuple[str, int | str, list[dict]]] = [
    ("bern_z2", 1, [_invariance(bern(2, w), rule, [(1, 0), (2, 0), (3, 0)], 4)
                    for w in Z2_WEIGHTS for rule in variants(2, {0: 1, 1: 1})]),
    ("bern_z3", 1, [_invariance(bern(3, w), rule, [(1, 0), (2, 0)], 3)
                    for w in Z3_WEIGHTS for rule in (lin(3, {0: 1, 1: 1}), lin(3, {0: 2, 1: 1}))]),
    ("bern_z5", 1, [_invariance(bern(5, w), rule, [(1, 0)], 2)
                    for w in Z5_WEIGHTS for rule in (lin(5, {0: 1, 1: 1}), lin(5, {0: 2, 1: 3}))]),
    ("haar_product_z2", 1, [_haar_product(2, block, lin(2, {0: 1, 1: 1}))
                            for block in (Z2_DIAG, Z2_ZERO_EVEN)]),
    ("haar_product_z3", 1, [_haar_product(3, block, lin(3, {0: 1, 1: b}))
                            for block in (Z3_DIAG, Z3_ANTI) for b in (1, 2)]),
    ("haar_kernel_z3", 2, [
        _invariance({"type": "haar_kernel", "rule": lin(3, {0: a, 1: b})}, None, [(0, 1)], 3)
        for a in (1, 2) for b in (1, 2)
    ]),
    ("cesaro_z3", 2, [_cesaro(bern(3, w), lin(3, {0: 1, 1: b}), 5, 2)
                      for w in Z3_WEIGHTS[1:] for b in (1, 2)]),
    ("cesaro_z5", 2, [_cesaro(bern(5, w), lin(5, {0: 1, 1: b}), 4, 1)
                      for w in Z5_WEIGHTS[1:] for b in (1, 2, 3)]),
    ("cesaro_z2", 2, [_cesaro(bern(2, w), rule, 64, 3)
                      for w in Z2_WEIGHTS[1:] for rule in variants(2, {0: 1, 1: 1, 2: 1})]),
    ("character", 1, [
        {"kind": "character", "measure": {
            "type": "mixture", "components": [
                ["1/2", bern(d, w)],
                ["1/2", {"type": "pushforward", "base": bern(d, w),
                         "rule": lin(d, {0: 1, 1: 1}), "power": 1}],
            ]}, "budget": 2}
        for d, w in ((2, (1, 3)), (2, (2, 3)), (3, (1, 2, 3)), (3, (2, 1, 1)))
    ]),
    ("orbit", 1, [
        {"kind": "orbit", "moduli": [d], "word": word, "rule": rule, "length": 3}
        for d, word, rule in (
            (2, [0, 0, 1], lin(2, {0: 1, 1: 1})),
            (2, [0, 1, 1, 0, 1], lin(2, {0: 1, 1: 1})),
            (3, [0, 1, 2, 2], lin(3, {0: 1, 1: 1})),
            (3, [1, 0, 0], lin(3, {0: 1, 1: 2})),
        )
    ]),
    ("counterexample", 1, [{"kind": "counterexample", "length": 4}]),
]


# -- CLI session --------------------------------------------------------------------
#
# A CLI job is an argv (after `python -m groupca.cli`) whose spec-file
# arguments are written into the session directory at setup.  "files" maps a
# file name to the JSON it holds; "{dir}" in argv is the job's directory.
# Entropy jobs state the closed forms of the shift and automaton entropies of
# the uniform measure (nats) and the tolerance the estimates must meet.

BUNDLED_CA = ("id_plus_sigma_z2", "id_sigma_2sigma2_z4", "classA_F1", "classA_F2")


def ca_file(spec: dict) -> dict:
    """A rule spec in the CLI's automaton spec format."""
    rule = {"type": "linear", "coeffs": dict(spec["coeffs"])}
    return {"alphabet": {"moduli": spec["moduli"]}, "neighborhood": spec["nbhd"],
            "rule": rule}


def measure_file(spec: dict) -> dict:
    weights = [
        {"letter": [a], "num": Fraction(w).numerator, "den": Fraction(w).denominator}
        for a, w in enumerate(spec["weights"])
    ]
    return {"type": "bernoulli", "alphabet": {"moduli": spec["moduli"]},
            "weights": weights}


def _cli(argv: list[str], files: dict | None = None, **extra) -> dict:
    return {"kind": "cli", "argv": argv, "files": files or {}, **extra}


_GEN_RULES = [lin(3, {0: 1, 1: 1}), lin(3, {0: 2, 1: 1}), lin(5, {0: 1, 1: 2}),
              lin(5, {0: 3, 1: 1}), lin(2, {0: 1, 1: 1, 2: 1}), lin(3, {0: 1, 2: 1})]

CLI_SLOTS: list[tuple[str, int | str, list[dict]]] = [
    ("analyze_bundled", "all", [
        _cli(["analyze", "--ca", name, "--levels", "2"]) for name in BUNDLED_CA
    ]),
    ("analyze_generated", 1, [
        _cli(["analyze", "--ca", "{dir}/rule.json", "--levels", "2"],
             {"rule.json": ca_file(rule)})
        for rule in _GEN_RULES
    ]),
    ("kernel", 1, [
        _cli(["kernel", "--ca", "{dir}/rule.json", "--levels", str(levels)],
             {"rule.json": ca_file(rule)})
        for rule, levels in ((lin(2, {0: 1, 1: 1}), 7), (lin(3, {0: 1, 1: 2}), 4),
                             (lin(5, {0: 1, 1: 1}), 3), (lin(2, {0: 1, 2: 1}), 3))
    ] + [_cli(["kernel", "--ca", "id_plus_sigma_z2", "--levels", "6",
               "--sigma", "ledrappier_kernel_sigma"])]),
    ("dual", 1, [_cli(["dual", "--bundled-examples", "--width", "6"])]),
    ("entropy_numpy", 1, [
        _cli(["entropy", "--ca", "{dir}/rule.json", "--samples", "200000",
              "--block", "3", "--seed", str(seed)], {"rule.json": ca_file(rule)},
             closed_form=[math.log(d), math.log(d)], tol=0.01)
        for d, rule in ((2, lin(2, {0: 1, 1: 1})), (3, lin(3, {0: 1, 1: 1})))
        for seed in (0, 1)
    ]),
    ("entropy_object", 1, [
        _cli(["entropy", "--ca", "classA_F1", "--samples", "4000", "--block", "2",
              "--seed", str(seed)], closed_form=[math.log(4), math.log(2)], tol=0.05)
        for seed in (0, 1, 2)
    ]),
    ("counterexample", 1, [_cli(["measure", "counterexample", "--length", "4"])]),
    ("invariance_mc", 1, [
        _cli(["measure", "invariance", "--measure", "{dir}/mu.json", "--ca",
              "{dir}/rule.json", "--f-power", "1", "--length", "2", "--mode", "mc",
              "--mc-samples", "2000", "--seed", str(seed)],
             {"mu.json": measure_file(bern(d, (1,) * d)), "rule.json": ca_file(rule)})
        for d, rule in ((2, lin(2, {0: 1, 1: 1})), (3, lin(3, {0: 1, 1: 1})))
        for seed in (0, 1)
    ]),
    ("cesaro", 1, [
        _cli(["measure", "cesaro", "--measure", "{dir}/mu.json", "--ca",
              "{dir}/rule.json", "--steps", "4", "--length", "2"],
             {"mu.json": measure_file(bern(3, w)), "rule.json": ca_file(lin(3, {0: 1, 1: 1}))})
        for w in Z3_WEIGHTS[1:4]
    ]),
    ("hypotheses", 1, [
        _cli(["hypotheses", "--ca", "{dir}/rule.json", "--measure", "{dir}/mu.json",
              "--sigma", "ledrappier_kernel_sigma" if rule["moduli"] == [2] else "{dir}/full.json"],
             {"rule.json": ca_file(rule), "mu.json": measure_file(bern(rule["moduli"][0], w)),
              "full.json": {"type": "full", "alphabet": {"moduli": rule["moduli"]}}})
        for rule, w in ((lin(2, {0: 1, 1: 1}), (1, 3)), (lin(3, {0: 1, 1: 1}), (1, 2, 3)))
    ]),
    ("modular", 1, [
        _cli(["modular", "--ca", "{dir}/rule.json"], {"rule.json": ca_file(rule)})
        for rule in (lin(4, {0: 1, 1: 1, 2: 2}), lin(9, {0: 1, 1: 3, 2: 1}),
                     lin(5, {0: 1, 1: 2, 2: 1}), lin(4, {0: 3, 1: 2, 2: 1}))
    ] + [_cli(["modular", "--ca", "id_sigma_2sigma2_z4"])]),
    ("examples", 1, [_cli(["examples"])]),
]

WORKLOAD_SLOTS = {
    "kernel_sweep": KERNEL_SLOTS,
    "measure_exact": MEASURE_SLOTS,
    "cli_session": CLI_SLOTS,
}


def pool_key(slot: str, index: int) -> str:
    return f"{slot}/{index}"
