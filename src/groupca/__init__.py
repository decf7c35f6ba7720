"""Algebraic cellular automata on finite abelian alphabets.

Exact tools for group-valued shifts: permutativity and surjectivity checks,
kernel towers with shift periods, prime-power structure lemmas, entropy
formulas and estimators, one-sided invertible expansive automata with their
dual rules, and rational-arithmetic measure diagnostics.
"""

from .groups import (
    CapExceeded,
    Character,
    Endomorphism,
    GroupSpec,
    Subgroup,
    closure_set,
    enumerate_subgroups,
    subgroup_closure,
)
from .configs import (
    Cylinder,
    PeriodicConfig,
    group_blocks,
    group_word,
    ungroup_blocks,
    ungroup_word,
)
from .automata import (
    CellularAutomaton,
    NotAlgebraicError,
    Permutativity,
    SurjectivityResult,
    as_laurent,
    compose,
    cylinder_preimage,
    identity_ca,
    is_surjective,
    linear_ca,
    power,
    shift_ca,
    table_ca,
    table_from_rule,
    with_shift,
)
from .kernels import (
    Condition4Result,
    CorollaryKerResult,
    FullShift,
    InfiniteKernelError,
    KernelRecurrence,
    KernelTower,
    LinearKernelShift,
    ProductSubgroup,
    SubgroupShiftSpec,
    boundary,
    condition4_search,
    corollary_ker_check,
    kernel_elements,
    recurrence_matrix,
    restrict,
    tower,
)
from .modular import (
    Factorization,
    PermutativeSupport,
    bipermutative_power,
    divisor_bound,
    factor_mod_p,
    frobenius_congruence_check,
    kernel_direct_sum_check,
    permutative_support,
)
from .entropy import (
    EntropyReport,
    block_entropy_estimate,
    bounds_check,
    column_factor_samples,
    entropy_report,
    formula_entropy,
    topological_entropy,
)
from .class_a import (
    ClassAAnalysis,
    DualCA,
    analyze_radius1,
    check_linear_classA,
    dual_ca,
    invert_radius1,
    verify_conjugacy,
)
from .measures import (
    Bernoulli,
    HaarMeasure,
    HypothesisReport,
    MixtureMeasure,
    PeriodicOrbitMeasure,
    PushforwardMeasure,
    cesaro_sequence,
    character_integral,
    check_hypotheses,
    counterexample_suite,
    haar_test,
    invariance_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
