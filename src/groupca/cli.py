"""Command line entry point: spec ingestion, analysis reports, bundled examples.

Exit codes: 0 all asserted checks hold, 1 a mathematical check failed (a
witness is printed), 2 usage or spec-file errors, or standard output closed
by its reader.  A subcommand's standard output is held until it returns, so
an error that ends in exit 2 leaves standard output empty.

Each groupca module is bound here lazily: `import groupca.cli` lists every
module in `sys.modules` but executes none, and a subcommand executes only
the modules it touches, so a short call does not compile the whole library.
Plain imports inside each subcommand would leave modules out of
`sys.modules`, and the benchmark's span tracer patches every traced module
it finds there right after `import groupca.cli`.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import sys
from fractions import Fraction


def _lazy(name: str):
    """The groupca submodule called name, executed on its first attribute
    access; a module already imported is returned as it is, so no second
    copy of it (and of its classes) is ever made."""
    full = f"{__package__}.{name}"
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
    return module


automata = _lazy("automata")
class_a = _lazy("class_a")
configs = _lazy("configs")
entropy = _lazy("entropy")
groups = _lazy("groups")
hypotheses = _lazy("hypotheses")
kernels = _lazy("kernels")
measures = _lazy("measures")
modular = _lazy("modular")
shifts = _lazy("shifts")

# bundled example name -> the kind of spec it holds
BUNDLED = {
    "id_plus_sigma_z2": "an automaton",
    "id_sigma_2sigma2_z4": "an automaton",
    "classA_F1": "an automaton",
    "classA_F2": "an automaton",
    "ledrappier_kernel_sigma": "a subgroup shift",
}


class SpecError(ValueError):
    """Schema violation in a spec file, carrying the offending field path."""


def _fail(path: str, message: str):
    raise SpecError(f"{path}: {message}")


def _expect_key(obj: dict, key: str, path: str):
    if not isinstance(obj, dict) or key not in obj:
        _fail(f"{path}.{key}", "missing required field")
    return obj[key]


def _is_int(obj) -> bool:
    """A JSON integer: JSON's true and false are not integers."""
    return isinstance(obj, int) and not isinstance(obj, bool)


def _expect_list(obj, path: str, what: str) -> list:
    if not isinstance(obj, list):
        _fail(path, f"expected a list of {what}")
    return obj


def _load_fraction(obj, path: str) -> Fraction:
    if _is_int(obj):
        return Fraction(obj)
    if isinstance(obj, dict) and "num" in obj and "den" in obj:
        if not all(_is_int(obj[k]) for k in ("num", "den")):
            _fail(path, "num and den must be integers")
        if obj["den"] == 0:
            _fail(path, "zero denominator")
        return Fraction(obj["num"], obj["den"])
    _fail(path, "expected an integer or {num, den}")


def _load_group(obj, path: str) -> groups.GroupSpec:
    moduli = _expect_key(obj, "moduli", path)
    if not isinstance(moduli, list) or not moduli:
        _fail(f"{path}.moduli", "expected a nonempty list of integers")
    for i, d in enumerate(moduli):
        if not _is_int(d) or d < 2:
            _fail(f"{path}.moduli[{i}]", f"modulus must be an integer >= 2, got {d!r}")
    return groups.GroupSpec(tuple(moduli))


def _load_int(obj, path: str, minimum: int | None = None) -> int:
    if not _is_int(obj):
        _fail(path, f"expected an integer, got {obj!r}")
    if minimum is not None and obj < minimum:
        _fail(path, f"expected an integer >= {minimum}, got {obj}")
    return obj


def _load_letter(obj, alphabet: groups.GroupSpec, path: str):
    if not isinstance(obj, list) or len(obj) != alphabet.rank:
        _fail(path, f"letter must list {alphabet.rank} residues")
    if not all(_is_int(e) for e in obj):
        _fail(path, "letter residues must be integers")
    return alphabet.element(obj)


def _first_listing(seen: dict, key, path: str, what: str) -> None:
    """Record the path listing key, refusing a key listed twice."""
    if key in seen:
        _fail(path, f"repeated {what}, first listed at {seen[key]}")
    seen[key] = path


def _is_int_matrix(obj, rank: int) -> bool:
    return isinstance(obj, list) and len(obj) == rank and all(
        isinstance(row, list) and len(row) == rank and all(_is_int(m) for m in row)
        for row in obj
    )


def load_ca(obj, path: str = "ca") -> automata.CellularAutomaton:
    """An automaton from its spec, or from the name of a bundled spec."""
    if isinstance(obj, str):
        obj = _bundled_of_kind(obj, path, "an automaton")
    alphabet = _load_group(_expect_key(obj, "alphabet", path), f"{path}.alphabet")
    nbhd = _expect_key(obj, "neighborhood", path)
    if not (isinstance(nbhd, list) and len(nbhd) == 2 and all(_is_int(v) for v in nbhd)):
        _fail(f"{path}.neighborhood", "expected [r, s] integers")
    r, s = nbhd
    if r > s:
        _fail(f"{path}.neighborhood", f"empty interval [{r},{s}]")
    rule = _expect_key(obj, "rule", path)
    kind = _expect_key(rule, "type", f"{path}.rule")
    if kind == "linear":
        coeffs_obj = _expect_key(rule, "coeffs", f"{path}.rule")
        if not isinstance(coeffs_obj, dict):
            _fail(f"{path}.rule.coeffs", "expected an object mapping offsets to coefficients")
        coeffs = {}
        for key, value in coeffs_obj.items():
            try:
                u = int(key)
            except ValueError:
                _fail(f"{path}.rule.coeffs.{key}", "offset keys must be integers")
            if not r <= u <= s:
                _fail(f"{path}.rule.coeffs.{key}", f"offset outside [{r},{s}]")
            if not (_is_int(value) or _is_int_matrix(value, alphabet.rank)):
                _fail(f"{path}.rule.coeffs.{key}",
                      f"expected an integer or a {alphabet.rank}x{alphabet.rank} matrix of integers")
            coeffs[u] = value
        constant = None
        if "constant" in rule:
            constant = _load_letter(rule["constant"], alphabet, f"{path}.rule.constant")
        try:
            return automata.linear_ca(alphabet, coeffs, constant=constant, neighborhood=(r, s))
        except ValueError as exc:
            _fail(f"{path}.rule", str(exc))
    if kind == "table":
        entries = _expect_list(_expect_key(rule, "entries", f"{path}.rule"),
                               f"{path}.rule.entries", "{window, value} entries")
        width = s - r + 1
        table = {}
        listed: dict = {}
        for i, entry in enumerate(entries):
            win = _expect_key(entry, "window", f"{path}.rule.entries[{i}]")
            if not isinstance(win, list) or len(win) != width:
                _fail(f"{path}.rule.entries[{i}].window", f"expected {width} letters")
            window = tuple(
                _load_letter(a, alphabet, f"{path}.rule.entries[{i}].window[{j}]")
                for j, a in enumerate(win)
            )
            _first_listing(listed, window, f"{path}.rule.entries[{i}].window", "window")
            value = _load_letter(
                _expect_key(entry, "value", f"{path}.rule.entries[{i}]"),
                alphabet, f"{path}.rule.entries[{i}].value",
            )
            table[window] = value
        expected = alphabet.order**width
        if len(table) != expected:
            missing = expected - len(table)
            _fail(f"{path}.rule.entries",
                  f"table incomplete: {missing} of {expected} windows missing")
        return automata.table_ca(alphabet, (r, s), table)
    _fail(f"{path}.rule.type", f"unknown rule type {kind!r}")


def load_sigma(obj, path: str = "sigma"):
    kind = _expect_key(obj, "type", path)
    if kind == "full":
        alphabet = _load_group(_expect_key(obj, "alphabet", path), f"{path}.alphabet")
        return shifts.FullShift(alphabet)
    if kind == "product":
        alphabet = _load_group(_expect_key(obj, "alphabet", path), f"{path}.alphabet")
        t = _load_int(_expect_key(obj, "grouping", path), f"{path}.grouping", 1)
        block_obj = _expect_list(_expect_key(obj, "block", path), f"{path}.block",
                                 "letters of the grouped alphabet")
        ambient = alphabet.power(t)
        elements = tuple(
            _load_letter(b, ambient, f"{path}.block[{i}]")
            for i, b in enumerate(block_obj)
        )
        try:
            block = groups.Subgroup(ambient, elements)
            block.validate()
        except ValueError as exc:
            _fail(f"{path}.block", str(exc))
        phase = _load_int(obj.get("phase", 0), f"{path}.phase")
        return shifts.ProductSubgroup(alphabet, t, block, phase)
    if kind == "kernel":
        ca = load_ca(_expect_key(obj, "ca", path), f"{path}.ca")
        if not ca.is_linear:
            _fail(f"{path}.ca", "kernel shifts need a linear rule")
        return shifts.LinearKernelShift(ca)
    _fail(f"{path}.type", f"unknown subgroup shift type {kind!r}")


def _load_ca_over(obj: dict, alphabet: groups.GroupSpec,
                  path: str) -> automata.CellularAutomaton | None:
    """The rule at the optional field `ca` of a measure over alphabet."""
    ca = load_ca(obj["ca"], f"{path}.ca") if "ca" in obj else None
    if ca is not None and ca.alphabet != alphabet:
        _fail(f"{path}.ca",
              f"alphabet mismatch: the measure is over {alphabet}, not over {ca.alphabet}")
    return ca


def load_measure(obj, path: str = "measure"):
    kind = _expect_key(obj, "type", path)
    if kind == "bernoulli":
        alphabet = _load_group(_expect_key(obj, "alphabet", path), f"{path}.alphabet")
        if "weights" not in obj:
            return measures.Bernoulli.uniform(alphabet)
        weights = {}
        listed: dict = {}
        entries = _expect_list(obj["weights"], f"{path}.weights", "{letter, num, den} entries")
        for i, entry in enumerate(entries):
            letter = _load_letter(
                _expect_key(entry, "letter", f"{path}.weights[{i}]"),
                alphabet, f"{path}.weights[{i}].letter",
            )
            _first_listing(listed, letter, f"{path}.weights[{i}].letter", "letter")
            weights[letter] = _load_fraction(entry, f"{path}.weights[{i}]")
        try:
            return measures.Bernoulli(alphabet, weights)
        except ValueError as exc:
            _fail(f"{path}.weights", str(exc))
    if kind == "haar":
        return measures.HaarMeasure(load_sigma(_expect_key(obj, "sigma", path), f"{path}.sigma"))
    if kind == "pushforward":
        base = load_measure(_expect_key(obj, "base", path), f"{path}.base")
        ca = _load_ca_over(obj, base.alphabet, path)
        f_power = _load_int(obj.get("f_power", 1 if ca else 0), f"{path}.f_power", 0)
        shift = _load_int(obj.get("shift", 0), f"{path}.shift")
        return measures.PushforwardMeasure(base, ca, f_power, shift)
    if kind == "mixture":
        comps = []
        entries = _expect_list(obj.get("components", []), f"{path}.components",
                               "{num, den, measure} entries")
        for i, entry in enumerate(entries):
            weight = _load_fraction(entry, f"{path}.components[{i}]")
            m = load_measure(
                _expect_key(entry, "measure", f"{path}.components[{i}]"),
                f"{path}.components[{i}].measure",
            )
            comps.append((weight, m))
        try:
            return measures.MixtureMeasure(tuple(comps))
        except ValueError as exc:
            _fail(f"{path}.components", str(exc))
    if kind == "periodic_orbit":
        alphabet = _load_group(_expect_key(obj, "alphabet", path), f"{path}.alphabet")
        word = _expect_list(_expect_key(obj, "period_word", path), f"{path}.period_word",
                            "letters")
        if not word:
            _fail(f"{path}.period_word", "period word must be nonempty")
        letters_ = tuple(
            _load_letter(a, alphabet, f"{path}.period_word[{i}]")
            for i, a in enumerate(word)
        )
        ca = _load_ca_over(obj, alphabet, path)
        orbit = configs.PeriodicConfig(alphabet, letters_)
        return measures.PeriodicOrbitMeasure.from_orbit(orbit, ca)
    _fail(f"{path}.type", f"unknown measure type {kind!r}")


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SpecError(f"{path}: file not found")
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}: invalid JSON ({exc})")


def _read_json_arg(text: str, flag: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{flag}: invalid JSON ({exc})")


def bundled_spec(name: str, path: str | None = None):
    """The bundled spec called name; path, if given, is the spec field that
    names it, for the error."""
    if name not in BUNDLED:
        message = f"unknown bundled example {name!r}; choose from {', '.join(BUNDLED)}"
        raise SpecError(f"{path}: {message}" if path else message)
    with open(os.path.join(os.path.dirname(__file__), "data", f"{name}.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def _bundled_of_kind(name: str, path: str, kind: str):
    """The bundled spec called name, refused unless it holds kind of spec."""
    if BUNDLED.get(name, kind) != kind:
        _fail(path, f"bundled example {name!r} is {BUNDLED[name]} spec, not {kind} spec")
    return bundled_spec(name, path)


def _load_ca_arg(value: str) -> automata.CellularAutomaton:
    return load_ca(value if value in BUNDLED else _read_json(value))


def _load_sigma_arg(value: str):
    if value in BUNDLED:
        return load_sigma(_bundled_of_kind(value, "sigma", "a subgroup shift"))
    return load_sigma(_read_json(value))


# -- serialization helpers -----------------------------------------------------


def _frac_json(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def _config_json(c: configs.PeriodicConfig) -> dict:
    return {"period_word": [list(a) for a in c.word], "period": c.period}


def _word_key(word) -> str:
    return "|".join(",".join(map(str, a)) for a in word)


def _polynomial_json(F: automata.CellularAutomaton) -> dict:
    """The coefficients of a linear or affine rule by offset: residues on a
    cyclic alphabet, matrices otherwise."""
    return {
        str(u): f.matrix[0][0] if F.alphabet.rank == 1 else [list(r) for r in f.matrix]
        for u, f in sorted(F.coeffs.items())
    }


def _tower_json(tw, small) -> dict:
    width = small.neighborhood[1] - small.neighborhood[0]
    order = small.alphabet.order
    levels = []
    ok = True
    for n in range(tw.depth + 1):
        lvl = {
            "n": n,
            "size": tw.size(n),
            "p_n": tw.period(n),
        }
        if tw.size(n) <= 64:
            lvl["elements"] = [_config_json(x) for x in tw.level(n).elements]
        if n >= 1:
            lvl["p_divides_next"] = tw.period(n) % tw.period(n - 1) == 0
            lvl["boundary_size"] = tw.size(n) - tw.size(n - 1)
            ok = ok and lvl["p_divides_next"]
        if n >= 2:
            bound = order**width * tw.period(n - 1)
            lvl["claim_bound_divides"] = bound % tw.period(n) == 0
            ok = ok and lvl["claim_bound_divides"]
        levels.append(lvl)
    return {"levels": levels, "divisibility_ok": ok, "width": width}


def _criteria_section(rep) -> dict:
    """Print the density-criteria verdicts of a hypothesis report and return
    its report keys: `criteria_skipped` only when a criterion is missing."""
    c4, ck = rep.condition4, rep.corollary_ker
    out: dict = {
        "condition4": None if c4 is None else {
            "found": c4.found, "m": c4.m, "m_max": c4.m_max,
        },
        "corollary_ker": None if ck is None else {
            "holds": ck.holds, "proper_invariant_subgroups": ck.proper_invariant_subgroups,
        },
    }
    if c4 is not None:
        print(f"boundary generation criterion: found={c4.found} m={c4.m}")
    if ck is not None:
        print(f"first-level subgroup criterion: {ck.holds}")
    if rep.criteria_skipped is not None:
        out["criteria_skipped"] = rep.criteria_skipped
        print(f"kernel criteria skipped: {rep.criteria_skipped}")
    return out


def _radius1_form(F: automata.CellularAutomaton) -> automata.CellularAutomaton:
    """The rule the Class (A) analysis reads: F declared on [0, 1], or else
    its smallest form when that is on [0, 1]; otherwise F as declared."""
    small = F.smallest_neighborhood()
    return small if F.neighborhood != (0, 1) and small.neighborhood == (0, 1) else F


def _print(report: dict, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")


# -- subcommands -----------------------------------------------------------------


def cmd_analyze(args) -> int:
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
        report["polynomial"] = _polynomial_json(small)
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
        report["kernel_tower"] = _tower_json(tw, small)
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
    report.update(_criteria_section(hyp))
    c4, ck = hyp.condition4, hyp.corollary_ker
    if ck is not None and ck.holds and not c4.found:
        failures.append("subgroup criterion holds but generation search failed")
    F = _radius1_form(F)
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
                section["dual_polynomial"] = _polynomial_json(dual.linear_form)
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
    _print(report, args.out)
    if failures:
        print("FAILED: " + "; ".join(failures))
        return 1
    return 0


def cmd_kernel(args) -> int:
    F = _load_ca_arg(args.ca)
    small = F.smallest_neighborhood()
    try:
        tw = kernels.tower(F, args.levels, cap=args.cap)
    except (automata.NotAlgebraicError, kernels.InfiniteKernelError,
            groups.CapExceeded) as exc:
        print(f"kernel tower unavailable: {exc}", file=sys.stderr)
        return 2
    if args.sigma:
        sigma = _load_sigma_arg(args.sigma)
        tw = kernels.restrict(tw, sigma)
    report = _tower_json(tw, small)
    report["parameters"] = {"levels": args.levels, "sigma": args.sigma}
    for lvl in report["levels"]:
        line = f"level {lvl['n']}: size {lvl['size']}, p_{lvl['n']} = {lvl['p_n']}"
        if "boundary_size" in lvl:
            line += f", boundary {lvl['boundary_size']}"
        print(line)
    print(f"divisibility verdicts hold: {report['divisibility_ok']}")
    _print(report, args.out)
    return 0 if report["divisibility_ok"] else 1


def cmd_entropy(args) -> int:
    F = _load_ca_arg(args.ca)
    mu = (load_measure(_read_json(args.measure)) if args.measure
          else measures.Bernoulli.uniform(F.alphabet))
    rep = entropy.entropy_report(F, mu, samples=args.samples, k=args.block, seed=args.seed)
    if rep.method == "exact":
        # the automaton's line keeps its name: exact at this k, H_k - H_(k-1)
        # of the columns still only approaches h_F as k grows
        k = rep.block_length
        how = f"exact H_{k} - H_{k - 1}"
        print(f"shift entropy: {rep.h_sigma_estimate:.6f} nats ({how})")
        print(f"automaton entropy estimate: {rep.h_f_estimate:.6f} nats ({how} of columns)")
    else:
        how = f"{rep.sample_count} samples, seed {rep.seed}"
        print(f"shift entropy estimate: {rep.h_sigma_estimate:.6f} nats ({how})")
        print(f"automaton entropy estimate: {rep.h_f_estimate:.6f} nats ({how})")
    if rep.h_f_formula is not None:
        print(f"closed form: {rep.h_f_formula:.6f} nats ({rep.formula_case} case)")
    print(f"upper bound ok: {rep.bounds.upper_ok}")
    _print(rep.as_dict(), args.out)
    ok = rep.bounds.upper_ok
    if rep.h_f_formula is not None:
        ok = ok and abs(rep.h_f_formula - rep.h_f_estimate) < 0.1
    return 0 if ok else 1


def cmd_modular(args) -> int:
    F = _load_ca_arg(args.ca)
    sup = modular.permutative_support(F)
    report: dict = {
        "prime": sup.p, "exponent": sup.k, "unit_offsets": list(sup.offsets),
    }
    print(f"alphabet: Z/{sup.p}^{sup.k}, unit-coefficient offsets: {list(sup.offsets)}")
    if not sup.is_empty and sup.r_hat < sup.s_hat:
        Fq = modular.bipermutative_power(F)
        q = sup.p ** (sup.k - 1)
        report["power"] = q
        report["power_neighborhood"] = list(Fq.neighborhood)
        report["power_polynomial"] = _polynomial_json(Fq)
        print(f"power {q}: neighborhood {Fq.neighborhood}, bipermutative")
    if sup.k == 1:
        fact = modular.factor_mod_p(F)
        report["factorization"] = {
            "shift_power": fact.shift_power,
            "unit": fact.unit,
            "factors": [
                {"coeffs_ascending": list(f), "multiplicity": m}
                for f, m in fact.factors
            ],
        }
        print(f"factorization over Z/{sup.p}: "
              + " * ".join(f"{list(f)}^{m}" for f, m in fact.factors))
    _print(report, args.out)
    return 0


def cmd_dual(args) -> int:
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
        F = _radius1_form(_load_ca_arg(name))
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
                poly = _polynomial_json(dual.linear_form)
                section["dual_polynomial"] = poly
                print(f"dual rule polynomial (offsets -1,0,1): {poly}")
            section["dual_bipermutative"] = dual.automaton.permutativity().bipermutative
            section["conjugacy_verified"] = conj.ok
            section["conjugacy_windows_checked"] = conj.windows_checked
            print(f"dual bipermutative: {section['dual_bipermutative']}")
            print(f"conjugacy verified on width-{args.width} windows: {conj.ok}")
            ok = ok and conj.ok and section["dual_bipermutative"]
        report[name] = section
    _print(report, args.out)
    return 0 if ok else 1


def _parse_cylinder(args, alphabet) -> configs.Cylinder:
    word = _read_json_arg(args.word, "--word")
    if not isinstance(word, list) or not word:
        _fail("--word", "expected a nonempty JSON list of letters")
    letters_ = tuple(_load_letter(a, alphabet, f"--word[{i}]") for i, a in enumerate(word))
    return configs.Cylinder(args.offset, letters_)


def cmd_measure(args) -> int:
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
        _print(report, args.out)
        return 0 if ok else 1

    mu = load_measure(_read_json(args.measure))
    if args.measure_cmd == "prob":
        cyl = _parse_cylinder(args, mu.alphabet)
        p = mu.cylinder_prob(cyl)
        print(f"P([{args.word}]_{args.offset}) = {p}")
        _print({"probability": _frac_json(p)}, args.out)
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
        _print(report, args.out)
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
        _print({"real": value.real, "imag": value.imag}, args.out)
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
        _print(report, args.out)
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
    _print(report, args.out)
    return 0


def cmd_hypotheses(args) -> int:
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
        **_criteria_section(rep),
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
    _print(report, args.out)
    return 1 if rep.premise_failed else 0


def cmd_examples(args) -> int:
    if args.dump:
        spec = bundled_spec(args.dump)
        print(json.dumps(spec, indent=2, sort_keys=True))
        return 0
    for name in BUNDLED:
        spec = bundled_spec(name)
        print(f"{name}: {spec.get('description', '')}")
    return 0


def _cap(text: str) -> int:
    """A --cap value: an integer of at least 1, refused as a usage error
    otherwise."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupca",
        description="analysis toolkit for algebraic cellular automata on "
        "finite abelian alphabets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the JSON report to this path")

    # only the subcommands that read them take --cap and --seed
    cap = dict(type=_cap, default=1 << 16, help="size cap for the kernel levels")
    seed = dict(type=int, default=0, help="seed of the sampled estimates")

    p = sub.add_parser("analyze", help="full report for one automaton")
    p.add_argument("--ca", required=True, help="spec file or bundled name")
    p.add_argument("--levels", type=int, default=2)
    p.add_argument("--m-max", type=int, default=2,
                   help="depth bound for the boundary generation search")
    p.add_argument("--conjugacy-width", type=int, default=6)
    p.add_argument("--cap", **cap)
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("kernel", help="kernel tower as JSON")
    p.add_argument("--ca", required=True)
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--sigma", help="restrict to a subgroup shift spec")
    p.add_argument("--cap", **cap)
    common(p)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("entropy", help="entropies (exact H_k - H_(k-1) under the sample "
                       "budget, else sampled) and formulas")
    p.add_argument("--ca", required=True)
    p.add_argument("--measure", help="measure spec file (default uniform)")
    p.add_argument("--samples", type=int, default=1_000_000,
                   help="sample budget: exact block laws while each window has at "
                        "most this many words (and 2^22), else this many samples")
    p.add_argument("--block", type=int, default=4, help="block length k")
    p.add_argument("--seed", **seed)
    common(p)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("modular", help="prime-power support and factorization")
    p.add_argument("--ca", required=True)
    common(p)
    p.set_defaults(func=cmd_modular)

    p = sub.add_parser("dual", help="one-sided expansive analysis and dual rule")
    p.add_argument("--ca")
    p.add_argument("--bundled-examples", action="store_true",
                   help="run the two bundled Class (A) rules")
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--width", type=int, default=8)
    common(p)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("measure", help="measure diagnostics")
    msub = p.add_subparsers(dest="measure_cmd", required=True)
    mp = msub.add_parser("prob")
    mp.add_argument("--measure", required=True)
    mp.add_argument("--offset", type=int, default=0)
    mp.add_argument("--word", required=True, help='JSON letter list, e.g. [[0],[1]]')
    common(mp)
    mp.set_defaults(func=cmd_measure)
    mp = msub.add_parser("invariance")
    mp.add_argument("--measure", required=True)
    mp.add_argument("--ca")
    mp.add_argument("--f-power", type=int, default=0)
    mp.add_argument("--shift", type=int, default=0)
    mp.add_argument("--length", type=int, default=4)
    mp.add_argument("--mode", choices=("exact", "mc"), default="exact")
    mp.add_argument("--mc-samples", type=int, default=50000)
    mp.add_argument("--seed", **seed)
    common(mp)
    mp.set_defaults(func=cmd_measure)
    mp = msub.add_parser("char")
    mp.add_argument("--measure", required=True)
    mp.add_argument("--character", required=True,
                    help='JSON map position -> residues, e.g. {"0": [1], "1": [1]}')
    common(mp)
    mp.set_defaults(func=cmd_measure)
    mp = msub.add_parser("haar-test")
    mp.add_argument("--measure", required=True)
    mp.add_argument("--sigma")
    mp.add_argument("--budget", type=int, default=3)
    common(mp)
    mp.set_defaults(func=cmd_measure)
    mp = msub.add_parser("cesaro")
    mp.add_argument("--measure", required=True)
    mp.add_argument("--ca", required=True)
    mp.add_argument("--steps", type=int, default=16)
    mp.add_argument("--length", type=int, default=1)
    common(mp)
    mp.set_defaults(func=cmd_measure)
    mp = msub.add_parser("counterexample")
    mp.add_argument("--length", type=int, default=6)
    common(mp)
    mp.set_defaults(func=cmd_measure)

    p = sub.add_parser("hypotheses", help="rigidity premise report")
    p.add_argument("--ca", required=True)
    p.add_argument("--sigma")
    p.add_argument("--measure")
    p.add_argument("--m-max", type=int, default=2,
                   help="depth bound for the boundary generation search")
    p.add_argument("--seed", **seed)
    common(p)
    p.set_defaults(func=cmd_hypotheses)

    p = sub.add_parser("examples", help="list or dump bundled spec files")
    p.add_argument("--dump", help="print one bundled spec")
    p.set_defaults(func=cmd_examples)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    held = io.StringIO()  # written only when the subcommand returns
    try:
        with contextlib.redirect_stdout(held):
            code = args.func(args)
        # line by line: an unbuffered stream may drop the tail of one large
        # write cut short by a closed pipe, where the next write raises
        sys.stdout.writelines(held.getvalue().splitlines(keepends=True))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left: the interpreter's final flush goes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    except (groups.CapExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
