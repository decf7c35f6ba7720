"""`groupca measure`: the measure diagnostics, one per sub-subcommand."""

from __future__ import annotations

from .. import _lazy
from ..specs import (_fail, _load_ca_arg, _load_letter, _load_sigma_arg, _read_json,
                     _read_json_arg, load_measure)
from . import write

configs = _lazy("configs")
groups = _lazy("groups")
measures = _lazy("measures")
shifts = _lazy("shifts")


def _frac_json(x) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def _parse_cylinder(args, alphabet) -> configs.Cylinder:
    word = _read_json_arg(args.word, "--word")
    if not isinstance(word, list) or not word:
        _fail("--word", "expected a nonempty JSON list of letters")
    letters_ = tuple(_load_letter(a, alphabet, f"--word[{i}]") for i, a in enumerate(word))
    return configs.Cylinder(args.offset, letters_)


def run(args) -> int:
    if args.measure_cmd == "counterexample":
        suite = measures.counterexample_suite()
        checks = suite.verify(args.length)
        report = {}
        ok = True
        expectations = {
            "sigma_image_of_x1_is_x2": True,
            "sigma_preimage_of_x1_is_x2": True,
            "sigma2_preimage_of_x1_is_x1": True,
            "rule_image_languages_match": True,
            "shifted_languages_match": True,
        }
        for key, expected in expectations.items():
            report[key] = checks[key]
            ok = ok and checks[key] == expected
        mu_sigma = checks["mu_sigma_invariance"]
        mu_rule = checks["mu_rule_invariance"]
        nu_sigma = checks["nu_sigma_invariance"]
        ht = checks["haar_test"]
        report["mu_sigma_discrepancy"] = _frac_json(mu_sigma.max_discrepancy)
        report["mu_rule_discrepancy"] = _frac_json(mu_rule.max_discrepancy)
        report["nu_sigma_discrepancy"] = _frac_json(nu_sigma.max_discrepancy)
        report["character_witness"] = ht.witness
        report["max_character_integral"] = ht.max_abs_integral
        ok = ok and mu_sigma.invariant and mu_rule.invariant
        ok = ok and not nu_sigma.invariant and not ht.consistent
        print(f"mixture invariant under rule and shift: "
              f"{mu_rule.invariant and mu_sigma.invariant}")
        print(f"base Haar measure shift-noninvariant witness: {nu_sigma.witness}")
        print(f"nonvanishing character: {ht.witness} (|integral| = {ht.max_abs_integral})")
        write(report, args.out)
        return 0 if ok else 1

    mu = load_measure(_read_json(args.measure))
    if args.measure_cmd == "prob":
        cyl = _parse_cylinder(args, mu.alphabet)
        p = mu.cylinder_prob(cyl)
        print(f"P([{args.word}]_{args.offset}) = {p}")
        write({"probability": _frac_json(p)}, args.out)
        return 0
    if args.measure_cmd == "invariance":
        F = _load_ca_arg(args.ca) if args.ca else None
        res = measures.invariance_check(
            mu, F, f_power=args.f_power, shift=args.shift, length=args.length,
            mode=args.mode, mc_samples=args.mc_samples, seed=args.seed,
        )
        report = {
            "max_discrepancy": _frac_json(res.max_discrepancy)
            if res.exact else res.max_discrepancy,
            "cylinders_checked": res.cylinders_checked,
            "exact": res.exact,
            "invariant": res.invariant,
            "parameters": {
                "f_power": args.f_power, "shift": args.shift, "length": args.length,
            },
        }
        sampled = ""
        if not res.exact:
            report["threshold"] = res.threshold
            sampled = f" (sampled, threshold {res.threshold})"
        if not res.invariant:
            report["witness"] = {
                "offset": res.witness.offset,
                "word": [list(a) for a in res.witness.word],
            }
            print(f"not invariant: discrepancy {res.max_discrepancy} at "
                  f"[{res.witness.word}]_{res.witness.offset}{sampled}")
        else:
            print(f"invariant on all cylinders of length <= {args.length}{sampled}")
        write(report, args.out)
        return 0 if res.invariant else 1
    if args.measure_cmd == "char":
        spec = _read_json_arg(args.character, "--character")
        if not isinstance(spec, dict):
            _fail("--character", "expected a JSON object mapping positions to residues")
        chi = {}
        for pos, res in spec.items():
            try:
                i = int(pos)
            except ValueError:
                _fail(f"--character.{pos}", "position keys must be integers")
            letter = _load_letter(res, mu.alphabet, f"--character.{pos}")
            chi[i] = groups.Character(mu.alphabet, letter)
        value = measures.character_integral(mu, chi)
        print(f"character integral = {value.real:+.9f} {value.imag:+.9f}i")
        write({"real": value.real, "imag": value.imag}, args.out)
        return 0
    if args.measure_cmd == "haar-test":
        sigma = _load_sigma_arg(args.sigma) if args.sigma else shifts.FullShift(mu.alphabet)
        rep = measures.haar_test(mu, sigma, args.budget)
        report = {
            "consistent": rep.consistent,
            "max_abs_integral": rep.max_abs_integral,
            "witness": rep.witness,
            "characters_checked": rep.characters_checked,
            "budget": rep.support_budget,
        }
        if rep.consistent:
            print(f"consistent with the Haar measure at budget {args.budget} "
                  f"(max |integral| = {rep.max_abs_integral:.2e})")
        else:
            print(f"witness character {rep.witness} with |integral| = {rep.max_abs_integral}")
        write(report, args.out)
        return 0 if rep.consistent else 1
    # the subparsers are required and fixed, so this one is "cesaro"
    F = _load_ca_arg(args.ca)
    res = measures.cesaro_sequence(mu, F, args.steps, args.length)
    report = {
        "length": res.length,
        "distances": [_frac_json(d) for d in res.distances_to_uniform],
    }
    for n, d in enumerate(res.distances_to_uniform, start=1):
        print(f"n = {n:3d}: distance to uniform = {float(d):.6f}")
    write(report, args.out)
    return 0
