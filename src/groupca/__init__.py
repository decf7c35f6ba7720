"""Algebraic cellular automata on finite abelian alphabets.

Exact tools for group-valued shifts: permutativity and surjectivity checks,
kernel towers with shift periods, prime-power structure lemmas, entropy
formulas and estimators, one-sided invertible expansive automata with their
dual rules, and rational-arithmetic measure diagnostics.

`import groupca` loads no submodule.  Each public name is imported from its
home module on first use and then bound here (PEP 562), so a caller pays
only for the modules it uses: `linear_ca` loads `groups` and `automata`,
a Bernoulli measure adds `measures`, and `tower` adds `shifts` and
`kernels`.

The lazy-binding contract: a submodule that only names a sibling's classes,
or re-exports a sibling's functions, binds that sibling with `_lazy`, the
one lazy binding of the package.  The sibling is listed in `sys.modules` at
once and executed on its first attribute access, so a call that never uses
it never compiles it; `configs`, `shifts`, `hypotheses` and `modular` run
only in calls that call into them.  Names are looked up on the lazy module
when used, so a function patched in its home module is seen by every
caller, and a hot loop binds what it reads to a local before the loop.
`cli` binds every module this way.
"""

import importlib
import sys

# each public name -> the submodule that defines it
_HOME = {
    name: module
    for module, names in (
        ("groups", "CapExceeded Character Endomorphism GroupSpec Subgroup closure_set "
                   "enumerate_subgroups subgroup_closure"),
        ("configs", "Cylinder PeriodicConfig"),
        ("automata", "CellularAutomaton NotAlgebraicError Permutativity SurjectivityResult "
                     "as_laurent compose cylinder_preimage identity_ca is_surjective "
                     "linear_ca power shift_ca table_ca table_from_rule"),
        ("shifts", "FullShift LinearKernelShift ProductSubgroup SubgroupShiftSpec"),
        ("kernels", "Condition4Result CorollaryKerResult InfiniteKernelError "
                    "KernelRecurrence KernelTower condition4_search "
                    "corollary_ker_check kernel_elements recurrence_matrix restrict tower"),
        ("modular", "Factorization PermutativeSupport bipermutative_power factor_mod_p "
                    "frobenius_congruence_check kernel_direct_sum_check permutative_support"),
        ("hypotheses", "HypothesisReport check_hypotheses formula_entropy "
                       "topological_entropy"),
        ("entropy", "EntropyReport block_entropy_estimate bounds_check "
                    "column_factor_samples entropy_report"),
        ("class_a", "ClassAAnalysis DualCA analyze_radius1 dual_ca invert_radius1 "
                    "verify_conjugacy"),
        ("measures", "Bernoulli HaarMeasure MixtureMeasure PeriodicOrbitMeasure "
                     "PushforwardMeasure cesaro_sequence character_integral "
                     "counterexample_suite haar_test invariance_check"),
    )
    for name in names.split()
}

__all__ = sorted([*_HOME, "automata", "class_a", "configs", "entropy", "groups", "kernels",
                  "measures", "modular"])
__version__ = "0.1.0"


def _lazy(name: str):
    """The groupca submodule called name, executed on its first attribute
    access (`importlib.util.LazyLoader`); a module already imported, or
    already bound lazily, is returned as it is, so no second copy of it (and
    of its classes) is ever made."""
    full = f"{__name__}.{name}"
    module = sys.modules.get(full)
    if module is None:
        import importlib.util

        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
    return module


def __getattr__(name: str):
    """The public name from its home module, bound here so later lookups skip
    this hook; any other public name is tried as a submodule."""
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
        globals()[name] = value
        return value
    if not name.startswith("_"):
        try:
            return importlib.import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return list(__all__)
