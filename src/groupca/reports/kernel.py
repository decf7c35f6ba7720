"""`groupca kernel`: the kernel tower as JSON."""

from __future__ import annotations

import sys

from .. import _lazy
from ..specs import _load_ca_arg, _load_sigma_arg
from . import tower_json, write

automata = _lazy("automata")
groups = _lazy("groups")
kernels = _lazy("kernels")


def run(args) -> int:
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
    report = tower_json(tw, small)
    report["parameters"] = {"levels": args.levels, "sigma": args.sigma}
    for lvl in report["levels"]:
        line = f"level {lvl['n']}: size {lvl['size']}, p_{lvl['n']} = {lvl['p_n']}"
        if "boundary_size" in lvl:
            line += f", boundary {lvl['boundary_size']}"
        print(line)
    print(f"divisibility verdicts hold: {report['divisibility_ok']}")
    write(report, args.out)
    return 0 if report["divisibility_ok"] else 1
