"""The package's public names: what `groupca` exports and where each lives."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import groupca

SUBMODULES = ["automata", "class_a", "configs", "entropy", "groups", "kernels",
              "measures", "modular"]
MOVED = ["FullShift", "LinearKernelShift", "ProductSubgroup", "SubgroupShiftSpec",
         "subgroup_shift_on"]


def _fresh(script):
    src = str(Path(groupca.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_all_is_the_published_names():
    assert groupca.__all__ == [
        "Bernoulli", "CapExceeded", "CellularAutomaton", "Character", "ClassAAnalysis",
        "Condition4Result", "CorollaryKerResult", "Cylinder", "DualCA", "Endomorphism",
        "EntropyReport", "Factorization", "FullShift", "GroupSpec", "HaarMeasure",
        "HypothesisReport", "InfiniteKernelError", "KernelRecurrence", "KernelTower",
        "LinearKernelShift", "MixtureMeasure", "NotAlgebraicError", "PeriodicConfig",
        "PeriodicOrbitMeasure", "PermutativeSupport", "Permutativity", "ProductSubgroup",
        "PushforwardMeasure", "Subgroup", "SubgroupShiftSpec", "SurjectivityResult",
        "analyze_radius1", "as_laurent", "automata", "bipermutative_power",
        "block_entropy_estimate", "bounds_check", "cesaro_sequence",
        "character_integral", "check_hypotheses", "class_a",
        "closure_set", "column_factor_samples", "compose", "condition4_search", "configs",
        "corollary_ker_check", "counterexample_suite", "cylinder_preimage",
        "dual_ca", "entropy", "entropy_report", "enumerate_subgroups", "factor_mod_p",
        "formula_entropy", "frobenius_congruence_check",
        "groups", "haar_test", "identity_ca", "invariance_check", "invert_radius1",
        "is_surjective", "kernel_direct_sum_check", "kernel_elements", "kernels",
        "linear_ca", "measures", "modular", "permutative_support", "power",
        "recurrence_matrix", "restrict", "shift_ca", "subgroup_closure", "table_ca",
        "table_from_rule", "topological_entropy", "tower",
        "verify_conjugacy",
    ]
    assert sorted(dir(groupca)) == groupca.__all__


def test_each_name_is_its_home_modules_object():
    for name in groupca.__all__:
        if name in SUBMODULES:
            continue
        home = f"groupca.{groupca._HOME[name]}"
        obj = getattr(groupca, name)
        assert obj is vars(importlib.import_module(home))[name], name
        if isinstance(obj, type) or callable(obj):
            assert obj.__module__ == home, name  # the module that defines it


@pytest.mark.parametrize("name", ["kernels", "shifts", "cli"])
def test_submodule_attributes_after_a_bare_import_are_the_submodules(name):
    out = _fresh(f"import groupca, sys\n"
                 f"print(groupca.{name} is sys.modules['groupca.{name}'])\n")
    assert out.split() == ["True"]


def test_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        groupca.no_such_name
    with pytest.raises(AttributeError, match="_private_name"):
        groupca._private_name
    with pytest.raises(ImportError, match="no_such_name"):
        from groupca import no_such_name  # noqa: F401


def test_moved_shift_names_are_importable_from_kernels():
    from groupca import kernels, shifts

    for name in MOVED:
        assert getattr(kernels, name) is getattr(shifts, name), name


def test_star_import_binds_every_name():
    out = _fresh("from groupca import *\n"
                 "import groupca\n"
                 "print(*[n for n in groupca.__all__ if globals().get(n) is not"
                 " getattr(groupca, n)])\n")
    assert out.split() == []
