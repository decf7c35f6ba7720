"""Algebraic cellular automata on finite abelian alphabets.

Exact tools for group-valued shifts: permutativity and surjectivity checks,
kernel towers with shift periods, prime-power structure lemmas, entropy
formulas and estimators, one-sided invertible expansive automata with their
dual rules, and rational-arithmetic measure diagnostics.

`import groupca` loads no submodule.  Each public name is imported from its
home module on first use and then bound here (PEP 562), so a caller pays
only for the modules it uses: `linear_ca` loads `groups`, `configs` and
`automata`, and the measures add `shifts` and `measures`.
"""

import importlib

# each public name -> the submodule that defines it
_HOME = {
    name: module
    for module, names in (
        ("groups", "CapExceeded Character Endomorphism GroupSpec Subgroup closure_set "
                   "enumerate_subgroups subgroup_closure"),
        ("configs", "Cylinder PeriodicConfig group_blocks group_word ungroup_blocks "
                    "ungroup_word"),
        ("automata", "CellularAutomaton NotAlgebraicError Permutativity SurjectivityResult "
                     "as_laurent compose cylinder_preimage identity_ca is_surjective "
                     "linear_ca power shift_ca table_ca table_from_rule with_shift"),
        ("shifts", "FullShift LinearKernelShift ProductSubgroup SubgroupShiftSpec"),
        ("kernels", "Condition4Result CorollaryKerResult InfiniteKernelError "
                    "KernelRecurrence KernelTower boundary condition4_search "
                    "corollary_ker_check kernel_elements recurrence_matrix restrict tower"),
        ("modular", "Factorization PermutativeSupport bipermutative_power divisor_bound "
                    "factor_mod_p frobenius_congruence_check kernel_direct_sum_check "
                    "permutative_support"),
        ("entropy", "EntropyReport block_entropy_estimate bounds_check "
                    "column_factor_samples entropy_report formula_entropy "
                    "topological_entropy"),
        ("class_a", "ClassAAnalysis DualCA analyze_radius1 check_linear_classA dual_ca "
                    "invert_radius1 verify_conjugacy"),
        ("measures", "Bernoulli HaarMeasure HypothesisReport MixtureMeasure "
                     "PeriodicOrbitMeasure PushforwardMeasure cesaro_sequence "
                     "character_integral check_hypotheses counterexample_suite haar_test "
                     "invariance_check"),
    )
    for name in names.split()
}

__all__ = sorted([*_HOME, "automata", "class_a", "configs", "entropy", "groups", "kernels",
                  "measures", "modular"])
__version__ = "0.1.0"


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
