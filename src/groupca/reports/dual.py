"""`groupca dual`: one-sided expansive analysis and the dual rule."""

from __future__ import annotations

import sys

from .. import _lazy
from ..specs import _load_ca_arg
from . import polynomial_json, radius1_form, write

class_a = _lazy("class_a")


def _word_key(word) -> str:
    return "|".join(",".join(map(str, a)) for a in word)


def run(args) -> int:
    names = []
    if args.bundled_examples:
        names = ["classA_F1", "classA_F2"]
    elif args.ca:
        names = [args.ca]
    else:
        print("dual: need --ca FILE or --bundled-examples", file=sys.stderr)
        return 2
    report = {}
    ok = True
    for name in names:
        F = radius1_form(_load_ca_arg(name))
        analysis = class_a.analyze_radius1(F)
        section: dict = {
            "classes": [[list(a) for a in block] for block in analysis.classes],
            "pi": {_word_key([a]): list(analysis.pi[a]) for a in sorted(analysis.pi)},
            "succ": {
                _word_key([a]): sorted(list(x) for x in analysis.succ[a])
                for a in sorted(analysis.succ)
            },
            "invertible_radius1": analysis.invertible_r1,
            "class_a": analysis.class_a,
        }
        print(f"== {name} ==")
        print(f"partition: {analysis.classes}")
        print(f"invertible (radius-1 inverse): {analysis.invertible_r1}")
        print(f"class (A): {analysis.class_a}")
        if analysis.class_a:
            dual = class_a.dual_ca(F)
            conj = class_a.verify_conjugacy(F, dual, depth=args.depth, width=args.width)
            section["dual_provenance"] = dual.provenance
            section["dual_table"] = {
                _word_key(k): list(v) for k, v in sorted(dual.rule_table().items())
            }
            if dual.linear_form is not None:
                poly = polynomial_json(dual.linear_form)
                section["dual_polynomial"] = poly
                print(f"dual rule polynomial (offsets -1,0,1): {poly}")
            section["dual_bipermutative"] = dual.automaton.permutativity().bipermutative
            section["conjugacy_verified"] = conj.ok
            section["conjugacy_windows_checked"] = conj.windows_checked
            print(f"dual bipermutative: {section['dual_bipermutative']}")
            print(f"conjugacy verified on width-{args.width} windows: {conj.ok}")
            ok = ok and conj.ok and section["dual_bipermutative"]
        report[name] = section
    write(report, args.out)
    return 0 if ok else 1
