"""`groupca modular`: prime-power support and factorization."""

from __future__ import annotations

from .. import _lazy
from ..specs import _load_ca_arg
from . import polynomial_json, write

modular = _lazy("modular")


def run(args) -> int:
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
        report["power_polynomial"] = polynomial_json(Fq)
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
    write(report, args.out)
    return 0
