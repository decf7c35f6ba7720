"""Every function and method the traced benchmark run wraps still exists."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module_name, attr, _, _ in spans.FUNCTIONS:
        module = importlib.import_module(f"groupca.{module_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            # the tracer patches the method on the class that defines it
            assert callable(vars(getattr(module, cls_name)).get(meth)), attr
        else:
            assert callable(getattr(module, attr, None)), attr
