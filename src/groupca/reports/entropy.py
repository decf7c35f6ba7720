"""`groupca entropy`: shift and automaton entropies against the closed form."""

from __future__ import annotations

from .. import _lazy
from ..specs import _load_ca_arg, _read_json, load_measure
from . import write

entropy = _lazy("entropy")
measures = _lazy("measures")


def run(args) -> int:
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
    write(rep.as_dict(), args.out)
    ok = rep.bounds.upper_ok
    if rep.h_f_formula is not None:
        ok = ok and abs(rep.h_f_formula - rep.h_f_estimate) < 0.1
    return 0 if ok else 1
