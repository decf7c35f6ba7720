"""`groupca hypotheses`: the rigidity premise report."""

from __future__ import annotations

from .. import _lazy
from ..specs import _load_ca_arg, _load_sigma_arg, _read_json, load_measure
from . import criteria_section, write

hypotheses = _lazy("hypotheses")


def run(args) -> int:
    F = _load_ca_arg(args.ca)
    sigma = _load_sigma_arg(args.sigma) if args.sigma else None
    mu = load_measure(_read_json(args.measure)) if args.measure else "abstract"
    rep = hypotheses.check_hypotheses(F, sigma, mu, m_max=args.m_max, seed=args.seed)
    print(f"automaton: {rep.automaton}")
    print(f"nontrivial: {rep.nontrivial}, bipermutative: {rep.bipermutative}")
    print(f"k = {rep.k}, p1 = {rep.p1}, k*p1 = {rep.k_p1}")
    report = {
        "automaton": rep.automaton,
        "sigma": rep.sigma,
        "measure": rep.measure,
        "nontrivial": rep.nontrivial,
        "bipermutative": rep.bipermutative,
        "k": rep.k,
        "p1": rep.p1,
        "k_p1": rep.k_p1,
        **criteria_section(rep),
        "entropy_positive": rep.entropy_positive,
        "entropy_method": rep.entropy_method,
        "unchecked": list(rep.unchecked),
        "all_checkable_hold": rep.all_checkable_hold,
    }
    print(f"entropy positive: {rep.entropy_positive} ({rep.entropy_method})")
    print("UNCHECKED:")
    for item in rep.unchecked:
        print(f"  - {item}")
    print(f"all checkable premises hold: {rep.all_checkable_hold}")
    write(report, args.out)
    return 1 if rep.premise_failed else 0
