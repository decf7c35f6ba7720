"""Command line entry point: the parser, dispatch and exit codes.

Exit codes: 0 all asserted checks hold, 1 a mathematical check failed (a
witness is printed), 2 usage or spec-file errors, or standard output closed
by its reader.  A subcommand's standard output is held until it returns, so
an error that ends in exit 2 leaves standard output empty.

This module holds only the parser, `main` and one `cmd_*` per subcommand,
which imports that subcommand's report (`groupca.reports`) when it runs;
spec files are read by `groupca.specs`.  So a call compiles its own
subcommand's code and no other.  The groupca modules are bound here with
`groupca._lazy`; the package docstring (`groupca/__init__.py`) holds the
lazy-binding contract.  `import groupca.cli` lists every module in
`sys.modules` but executes none,
and the benchmark's span tracer patches every traced module it finds there
right after `import groupca.cli`.  No groupca module imports `cli` back.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys

from . import _lazy

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
specs = _lazy("specs")


# -- subcommands: each runs its report module ------------------------------------


def cmd_analyze(args) -> int:
    from .reports import analyze

    return analyze.run(args)


def cmd_kernel(args) -> int:
    from .reports import kernel

    return kernel.run(args)


def cmd_entropy(args) -> int:
    from .reports import entropy

    return entropy.run(args)


def cmd_modular(args) -> int:
    from .reports import modular

    return modular.run(args)


def cmd_dual(args) -> int:
    from .reports import dual

    return dual.run(args)


def cmd_measure(args) -> int:
    from .reports import measure

    return measure.run(args)


def cmd_hypotheses(args) -> int:
    from .reports import hypotheses

    return hypotheses.run(args)


def cmd_examples(args) -> int:
    if args.dump:
        spec = specs.bundled_spec(args.dump)
        print(json.dumps(spec, indent=2, sort_keys=True))
        return 0
    for name in specs.BUNDLED:
        spec = specs.bundled_spec(name)
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
    except specs.SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    except (groups.CapExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
