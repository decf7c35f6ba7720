"""The report of each CLI subcommand, one module per subcommand.

`cli` imports a subcommand's module only when that subcommand runs, so a
call compiles its own report code and no other.  Each module's `run(args)`
prints the human-readable lines, writes the JSON report (`write`) and
returns the exit code.  Library modules are bound lazily (`groupca._lazy`)
and their functions are looked up at each call, so the benchmark's span
tracer, which patches them in their modules, sees every call.  Nothing here
imports `cli`, which runs as `__main__` under `python -m groupca.cli`.

This module holds what several reports share.
"""

from __future__ import annotations

import json


def write(report: dict, out: str | None) -> None:
    """The JSON report, to the path `out` when one is given."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")


def polynomial_json(F) -> dict:
    """The coefficients of a linear or affine rule by offset: residues on a
    cyclic alphabet, matrices otherwise."""
    return {
        str(u): f.matrix[0][0] if F.alphabet.rank == 1 else [list(r) for r in f.matrix]
        for u, f in sorted(F.coeffs.items())
    }


def tower_json(tw, small) -> dict:
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
            lvl["elements"] = [{"period_word": [list(a) for a in x.word], "period": x.period}
                               for x in tw.level(n).elements]
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


def criteria_section(rep) -> dict:
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


def radius1_form(F):
    """The rule the Class (A) analysis reads: F declared on [0, 1], or else
    its smallest form when that is on [0, 1]; otherwise F as declared."""
    small = F.smallest_neighborhood()
    return small if F.neighborhood != (0, 1) and small.neighborhood == (0, 1) else F
