"""Spec files: the JSON schema of automata, subgroup shifts and measures.

Each reader turns one spec object into a groupca object or raises
`SpecError` naming the offending field path.  An automaton or a subgroup
shift may also be named by a bundled spec (`BUNDLED`), read from the
package's `data` directory.  Every groupca module is bound lazily
(`groupca._lazy`), so reading bundled specs executes none of them, and a
spec executes only the modules its objects live in.
"""

from __future__ import annotations

import json
import os

from . import _lazy

automata = _lazy("automata")
configs = _lazy("configs")
groups = _lazy("groups")
measures = _lazy("measures")
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
    from fractions import Fraction  # only measure specs hold fractions

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
