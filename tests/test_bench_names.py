"""Every function and method the traced benchmark run wraps still exists,
and `import groupca.cli` lists every module the tracer patches."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import groupca

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_functions_resolve():
    for module_name, attr, _, _ in _spans().FUNCTIONS:
        module = importlib.import_module(f"groupca.{module_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            # the tracer patches the method on the class that defines it
            assert callable(vars(getattr(module, cls_name)).get(meth)), attr
        else:
            assert callable(getattr(module, attr, None)), attr


def _fresh(script: str) -> None:
    src = str(Path(groupca.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# the groupca modules a fresh interpreter has executed, by full name
EXECUTED = (
    "import importlib.util, sys\n"
    "def executed():\n"
    "    return {n for n, m in sys.modules.items() if n.startswith('groupca.')\n"
    "            and type(m) is not importlib.util._LazyModule}\n"
)


def test_cli_import_lists_every_traced_module_and_executes_none():
    # the tracer reads sys.modules["groupca.<m>"] right after `import groupca.cli`
    traced = sorted({f"groupca.{m}" for m, _, _, _ in _spans().FUNCTIONS})
    _fresh(EXECUTED + (
        "import groupca, groupca.cli\n"
        f"missing = [m for m in {traced!r} if m not in sys.modules]\n"
        "assert not missing, missing\n"
        "assert executed() == {'groupca.cli'}, executed()\n"
        "assert groupca.tower is groupca.kernels.tower\n"
        "assert groupca.cli.kernels is sys.modules['groupca.kernels']\n"
    ))


def test_cli_import_keeps_a_module_already_imported():
    # a second copy of kernels would split the identity of its classes
    _fresh(EXECUTED + (
        "import groupca.kernels\n"
        "kernels = sys.modules['groupca.kernels']\n"
        "before = executed()\n"
        "import groupca.cli\n"
        "assert sys.modules['groupca.kernels'] is kernels\n"
        "assert groupca.cli.kernels is kernels\n"
        "assert executed() == before | {'groupca.cli'}, executed()\n"
        "assert groupca.cli.shifts.FullShift is kernels.FullShift\n"
    ))


def test_tracer_sees_the_hypotheses_names_the_cli_calls():
    # the tracer patches check_hypotheses and topological_entropy under their
    # old homes, `measures` and `entropy`; `cli` calls them from `hypotheses`,
    # so each must be one object across the modules for its span to be recorded
    _fresh(
        "import contextlib, importlib.util, io\n"
        "from groupca import entropy, hypotheses, measures\n"
        "assert measures.check_hypotheses is hypotheses.check_hypotheses\n"
        "assert measures.HypothesisReport is hypotheses.HypothesisReport\n"
        "assert entropy.topological_entropy is hypotheses.topological_entropy\n"
        f"spec = importlib.util.spec_from_file_location('bench_spans', {str(SPANS)!r})\n"
        "spans = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(spans)\n"
        "tracer = spans.Tracer()\n"
        "tracer.install()\n"
        "from groupca import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['analyze', '--ca', 'id_plus_sigma_z2']) == 0\n"
        "recorded = {span[0] for span in tracer.spans()}\n"
        "for name in ('measures.check_hypotheses', 'entropy.topological_entropy'):\n"
        "    assert name in recorded, (name, sorted(recorded))\n"
    )
