"""`groupca analyze`: the full report for one automaton."""

from __future__ import annotations

from .. import _lazy
from ..specs import _load_ca_arg
from . import criteria_section, polynomial_json, radius1_form, tower_json, write

automata = _lazy("automata")
class_a = _lazy("class_a")
groups = _lazy("groups")
hypotheses = _lazy("hypotheses")
kernels = _lazy("kernels")


def run(args) -> int:
    F = _load_ca_arg(args.ca)
    small = F.smallest_neighborhood()
    perm = small.permutativity()
    surj = automata.is_surjective(F)
    report: dict = {
        "ca": F.describe(),
        "alphabet": list(F.alphabet.moduli),
        "declared_neighborhood": list(F.neighborhood),
        "smallest_neighborhood": list(small.neighborhood),
        "trivial": small.neighborhood[0] == small.neighborhood[1],
        "permutativity": {"left": perm.left, "right": perm.right},
        "surjectivity": {
            "surjective": surj.surjective,
            "decided_exactly": surj.decided,
            "depth_bound_used": surj.depth,
        },
    }
    failures = []
    print(f"automaton: {report['ca']}")
    print(f"smallest neighborhood: {small.neighborhood}, trivial: {report['trivial']}")
    print(f"permutative: left={perm.left} right={perm.right}")
    print(f"surjective: {surj.surjective} (decided exactly: {surj.decided}, depth {surj.depth})")
    if small.coeffs is not None:
        report["polynomial"] = polynomial_json(small)
    if perm.bipermutative and not report["trivial"]:
        h_top = hypotheses.topological_entropy(small)
        report["entropy"] = {
            "topological_nats": h_top,
            "formula_case": hypotheses.formula_case(small),
            "formula_at_uniform": h_top,
        }
        print(f"topological entropy: {h_top:.6f} nats ({hypotheses.formula_case(small)} case)")
    tw = None
    try:
        tw = kernels.tower(F, args.levels, cap=args.cap)
        report["kernel_tower"] = tower_json(tw, small)
        report["kernel_tower"]["parameters"] = {"levels": args.levels}
        sizes = [tw.size(n) for n in range(args.levels + 1)]
        print(f"kernel tower sizes: {sizes}, periods: {[tw.period(n) for n in range(args.levels + 1)]}")
        if perm.bipermutative:
            report["kernel_tower"]["size_law_ok"] = True  # `tower` asserts it
        if not report["kernel_tower"]["divisibility_ok"]:
            failures.append("period divisibility violated")
    except (automata.NotAlgebraicError, kernels.InfiniteKernelError,
            groups.CapExceeded) as exc:
        report["kernel_tower"] = {"error": str(exc)}
        print(f"kernel tower unavailable: {exc}")
    if tw is None:  # the criteria still read their levels under --cap
        tw = kernels.KernelTower(F, args.cap)
    hyp = hypotheses.check_hypotheses(tw, m_max=args.m_max)
    report.update(criteria_section(hyp))
    c4, ck = hyp.condition4, hyp.corollary_ker
    if ck is not None and ck.holds and not c4.found:
        failures.append("subgroup criterion holds but generation search failed")
    F = radius1_form(F)
    if F.neighborhood == (0, 1):
        analysis = class_a.analyze_radius1(F)
        section = {
            "classes": [[list(a) for a in block] for block in analysis.classes],
            "invertible_radius1": analysis.invertible_r1,
            "class_a": analysis.class_a,
        }
        print(f"one-sided radius-1 analysis: invertible={analysis.invertible_r1} "
              f"class_a={analysis.class_a}")
        if analysis.class_a:
            dual = class_a.dual_ca(F)
            conj = class_a.verify_conjugacy(F, dual, depth=2, width=args.conjugacy_width)
            section["dual_provenance"] = dual.provenance
            section["dual_bipermutative"] = dual.automaton.permutativity().bipermutative
            section["conjugacy_verified"] = conj.ok
            section["conjugacy_windows"] = conj.windows_checked
            if dual.linear_form is not None:
                section["dual_polynomial"] = polynomial_json(dual.linear_form)
            print(f"dual rule: provenance={dual.provenance}, conjugacy verified={conj.ok}")
            if not conj.ok:
                failures.append("dual conjugacy verification failed")
        report["class_a"] = section
    report["hypotheses"] = {
        "nontrivial": hyp.nontrivial,
        "bipermutative": hyp.bipermutative,
        "k": hyp.k,
        "p1": hyp.p1,
        "k_p1": hyp.k_p1,
        "unchecked": list(hyp.unchecked),
    }
    report["failures"] = failures
    write(report, args.out)
    if failures:
        print("FAILED: " + "; ".join(failures))
        return 1
    return 0
