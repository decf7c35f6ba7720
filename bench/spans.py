"""Span tracing for the traced run, installed from the benchmark's own code.

Each wrapped function records a span: name, start, end, parent span and job
id.  Spans are kept in flat arrays and reduced once the run is over: a span's
self time is its duration minus the time its child spans cover.  Counters
(work done, as counts) are recorded at the same boundaries.

Layers are the modules of `groupca`.  `configs` is a leaf value type called
millions of times; it gets no span, so its cost shows in its callers' self
time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np


def _len_result(key):
    def count(tracer, name, args, kwargs, result):
        tracer.count(name, key, len(result))
    return count


def _kernel_elements(tracer, name, args, kwargs, result):
    F = args[0]
    n = args[1] if len(args) > 1 else kwargs["n"]
    tracer.count(name, "elements", len(result))
    # |A|^(w*n) de Bruijn seed states, from the rule's width and the level:
    # computed from the inputs, not observed inside the enumeration.
    w = tracer.rule_width(F)
    tracer.count("kernels", "seed_states", F.alphabet.order ** (w * n) if n else 0)
    tracer.rule_levels.add((id(F), n))
    tracer.keep.append(F)  # so no later rule reuses this id within the pass


def _bound(fn):
    sig = inspect.signature(fn)

    def arguments(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments
    return arguments


def _invariance(fn):
    arguments = _bound(fn)

    def count(tracer, name, args, kwargs, result):
        a = arguments(args, kwargs)
        tracer.count(name, "cylinders", result.cylinders_checked)
        if a["mode"] == "mc":
            tracer.count(name, "mc_samples", a["mc_samples"])
            tracer.count(name, "mc_seconds", tracer.last_duration)
    return count


def _entropy_report(fn):
    arguments = _bound(fn)

    def count(tracer, name, args, kwargs, result):
        tracer.count(name, "samples", arguments(args, kwargs)["samples"])
    return count


def _windows(tracer, name, args, kwargs, result):
    tracer.count(name, "windows", result.windows_checked)


def _pushforward(tracer, name, args, kwargs, result):
    tracer.count(name, "pushforward", 1)


# (module, attribute, span name, counter factory or None).  A counter factory
# takes the original function and returns count(tracer, name, args, kwargs,
# result); plain counters ignore the function.
FUNCTIONS = [
    ("groups", "closure_set", None, lambda fn: _len_result("members")),
    ("groups", "enumerate_subgroups", None, None),
    ("groups", "subgroup_closure", None, None),
    ("automata", "power", None, None),
    ("automata", "compose", None, None),
    ("automata", "is_surjective", None, None),
    ("automata", "cylinder_preimage", None, lambda fn: _len_result("cylinders")),
    ("kernels", "kernel_elements", None, lambda fn: _kernel_elements),
    ("kernels", "tower", None, None),
    ("kernels", "condition4_search", None, None),
    ("kernels", "corollary_ker_check", None, None),
    ("kernels", "recurrence_matrix", None, None),
    ("kernels", "restrict", None, None),
    ("kernels", "KernelRecurrence.matrix_order", "kernels.matrix_order", None),
    ("modular", "permutative_support", None, None),
    ("modular", "bipermutative_power", None, None),
    ("modular", "factor_mod_p", None, None),
    ("modular", "frobenius_congruence_check", None, None),
    ("modular", "kernel_direct_sum_check", None, None),
    ("entropy", "entropy_report", None, _entropy_report),
    ("entropy", "block_entropy_estimate", None, None),
    ("entropy", "column_factor_samples", None, None),
    ("entropy", "topological_entropy", None, None),
    ("class_a", "analyze_radius1", None, None),
    ("class_a", "invert_radius1", None, None),
    ("class_a", "dual_ca", None, None),
    ("class_a", "verify_conjugacy", None, lambda fn: _windows),
    ("measures", "Bernoulli.cylinder_prob", "measures.cylinder_prob", None),
    ("measures", "HaarMeasure.cylinder_prob", "measures.cylinder_prob", None),
    ("measures", "PushforwardMeasure.cylinder_prob", "measures.cylinder_prob",
     lambda fn: _pushforward),
    ("measures", "MixtureMeasure.cylinder_prob", "measures.cylinder_prob", None),
    ("measures", "PeriodicOrbitMeasure.cylinder_prob", "measures.cylinder_prob", None),
    ("measures", "PushforwardMeasure.preimage", "measures.preimage",
     lambda fn: _len_result("cylinders")),
    ("measures", "invariance_check", None, _invariance),
    ("measures", "cesaro_sequence", None, None),
    ("measures", "character_integral", None, None),
    ("measures", "haar_test", None, None),
    ("measures", "counterexample_suite", None, None),
    ("measures", "CounterexampleSuite.verify", "measures.counterexample", None),
    ("measures", "check_hypotheses", None, None),
    ("cli", "main", None, None),
    ("cli", "cmd_analyze", None, None),
    ("cli", "cmd_kernel", None, None),
    ("cli", "cmd_entropy", None, None),
    ("cli", "cmd_modular", None, None),
    ("cli", "cmd_dual", None, None),
    ("cli", "cmd_measure", None, None),
    ("cli", "cmd_hypotheses", None, None),
    ("cli", "cmd_examples", None, None),
]


class Tracer:
    """Span store and the patching that feeds it."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.span_job = array("i")
        self.stack: list[int] = []
        self.job = -1
        self.counters: dict[tuple[str, int], Counter] = defaultdict(Counter)
        self.rule_levels: set = set()
        self.keep: list = []
        self._widths: dict[int, int] = {}
        self.last_duration = 0.0
        self._undo: list = []

    # -- recording -------------------------------------------------------------------

    def count(self, name: str, key: str, amount) -> None:
        self.counters[name, self.job][key] += amount

    def rule_width(self, F) -> int:
        w = self._widths.get(id(F))
        if w is None:
            r, s = F.smallest_neighborhood().neighborhood
            w = self._widths[id(F)] = s - r
        return w

    def wrap(self, name: str, fn, counter):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        tracer = self
        now = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.start)
            tracer.span_name.append(name_id)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.span_job.append(tracer.job)
            tracer.end.append(0.0)
            tracer.stack.append(idx)
            tracer.start.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                t = now()
                tracer.end[idx] = t
                tracer.stack.pop()
            if counter is not None:
                tracer.last_duration = t - tracer.start[idx]
                counter(tracer, name, args, kwargs, result)
            return result

        return wrapper

    # -- patching ---------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function in each `groupca` module namespace that
        binds it, and every listed method on its class."""
        import groupca.cli  # noqa: F401  (loads every groupca module)

        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "groupca" or n.startswith("groupca."))]
        for module_name, attr, span, factory in FUNCTIONS:
            module = sys.modules[f"groupca.{module_name}"]
            span = span or f"{module_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                counter = factory(orig) if factory else None
                setattr(cls, meth, self.wrap(span, orig, counter))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(module, attr)
            counter = factory(orig) if factory else None
            wrapper = self.wrap(span, orig, counter)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        setattr(ns, key, wrapper)
                        self._undo.append((ns, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    # -- reduction -------------------------------------------------------------------

    def spans(self) -> list[list]:
        """Every span as [name, start, end, parent index, job id]."""
        return [[self.names[self.span_name[i]], self.start[i], self.end[i],
                 self.parent[i], self.span_job[i]] for i in range(len(self.start))]

    def reduce(self) -> dict:
        """Per span name and job: calls, inclusive and self seconds."""
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=np.float64, count=n)
        end = np.frombuffer(self.end, dtype=np.float64, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int64, count=n)
        names = np.frombuffer(self.span_name, dtype=np.int32, count=n)
        jobs = np.frombuffer(self.span_job, dtype=np.int32, count=n)
        dur = end - start
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        out: dict[tuple[str, int], dict] = {}
        keys = names.astype(np.int64) * (1 << 32) + jobs.astype(np.int64)
        order = np.argsort(keys, kind="stable")
        uniq, first = np.unique(keys[order], return_index=True)
        bounds = list(first) + [n]
        for i, key in enumerate(uniq):
            sel = order[bounds[i]:bounds[i + 1]]
            name = self.names[int(key >> 32)]
            job = int(key & 0xFFFFFFFF)
            if job >= 1 << 31:
                job -= 1 << 32
            out[name, job] = {
                "calls": int(sel.size),
                "seconds": float(dur[sel].sum()),
                "self_seconds": float(self_time[sel].sum()),
            }
        return out


# Which end-to-end metric each per-layer metric should move, and where:
#   groups.closure_set.*                 wall_s, job_tail_s on kernel_sweep (none on measure_exact)
#   automata.power.*, is_surjective      wall_s on kernel_sweep and cli_session
#   automata.cylinder_preimage.*         wall_s, job_tail_s on measure_exact (none on kernel_sweep)
#   kernels.kernel_elements.*, seed_states   wall_s, job_tail_s on kernel_sweep
#   kernels.kernel_elements.distinct_ratio   wall_s on cli_session (analyze recomputes levels)
#   kernels.{tower,condition4_search,corollary_ker_check,matrix_order}.self_s, modular.self_s
#                                        wall_s on kernel_sweep
#   measures.cylinder_prob.*, preimage_per_cylinder   wall_s on measure_exact
#   measures.{invariance_check,cesaro_sequence,character_integral,haar_test,counterexample}.*
#                                        wall_s, job_tail_s on measure_exact
#   measures.mc_samples_per_s            wall_s on cli_session
#   entropy.*                            wall_s, peak_rss_mb on cli_session
#   class_a.*                            wall_s, job_tail_s on cli_session
#   cli.import_s                         job_p50_s, setup_s on cli_session
#   cli.main.self_s, report_bytes, exit_code_mismatches   cli_session
def layer_metrics(tracer: Tracer, pass_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass; `pass_wall` is its wall time."""
    spans = tracer.reduce()
    by_name: dict[str, dict] = defaultdict(lambda: {"calls": 0, "seconds": 0.0,
                                                    "self_seconds": 0.0})
    for (name, _), rec in spans.items():
        agg = by_name[name]
        for key in agg:
            agg[key] += rec[key]
    counts: dict[str, Counter] = defaultdict(Counter)
    for (name, _), ctr in tracer.counters.items():
        counts[name].update(ctr)

    def calls(name):
        return by_name[name]["calls"] if name in by_name else 0

    def self_s(name):
        return by_name[name]["self_seconds"] if name in by_name else 0.0

    def seconds(name):
        return by_name[name]["seconds"] if name in by_name else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    ke_calls = calls("kernels.kernel_elements")
    inv = counts["measures.invariance_check"]
    m = {
        "groups.closure_set.calls": calls("groups.closure_set"),
        "groups.closure_set.self_s": self_s("groups.closure_set"),
        "groups.closure_set.members": counts["groups.closure_set"]["members"],
        "automata.power.calls": calls("automata.power"),
        "automata.power.self_s": self_s("automata.power"),
        "automata.is_surjective.self_s": self_s("automata.is_surjective"),
        "automata.cylinder_preimage.calls": calls("automata.cylinder_preimage"),
        "automata.cylinder_preimage.self_s": self_s("automata.cylinder_preimage"),
        "automata.cylinder_preimage.cylinders": counts["automata.cylinder_preimage"]["cylinders"],
        "kernels.kernel_elements.calls": ke_calls,
        "kernels.kernel_elements.self_s": self_s("kernels.kernel_elements"),
        "kernels.kernel_elements.elements": counts["kernels.kernel_elements"]["elements"],
        "kernels.kernel_elements.distinct_ratio": ratio(len(tracer.rule_levels), ke_calls),
        "kernels.seed_states": counts["kernels"]["seed_states"],
        "kernels.tower.self_s": self_s("kernels.tower"),
        "kernels.condition4_search.self_s": self_s("kernels.condition4_search"),
        "kernels.corollary_ker_check.self_s": self_s("kernels.corollary_ker_check"),
        "kernels.matrix_order.self_s": self_s("kernels.matrix_order"),
        "modular.self_s": sum(self_s(n) for n in by_name if n.startswith("modular.")),
        "measures.cylinder_prob.calls": calls("measures.cylinder_prob"),
        "measures.cylinder_prob.self_s": self_s("measures.cylinder_prob"),
        "measures.preimage_per_cylinder": ratio(
            counts["measures.preimage"]["cylinders"],
            counts["measures.cylinder_prob"]["pushforward"]),
        "measures.invariance_check.self_s": self_s("measures.invariance_check"),
        "measures.invariance_check.cylinders": inv["cylinders"],
        "measures.cesaro_sequence.self_s": self_s("measures.cesaro_sequence"),
        "measures.character_integral.self_s": self_s("measures.character_integral"),
        "measures.haar_test.self_s": self_s("measures.haar_test"),
        "measures.counterexample.self_s": self_s("measures.counterexample"),
        "measures.mc_samples_per_s": ratio(inv["mc_samples"], inv["mc_seconds"]),
        "entropy.entropy_report.self_s": self_s("entropy.entropy_report"),
        "entropy.samples_per_s": ratio(counts["entropy.entropy_report"]["samples"],
                                       seconds("entropy.entropy_report")),
        "entropy.object_path_calls": calls("entropy.column_factor_samples"),
        "class_a.verify_conjugacy.self_s": self_s("class_a.verify_conjugacy"),
        "class_a.dual_ca.self_s": self_s("class_a.dual_ca"),
        "class_a.windows_checked": counts["class_a.verify_conjugacy"]["windows"],
        "class_a.invert_radius1.calls": calls("class_a.invert_radius1"),
        "cli.main.self_s": self_s("cli.main"),
        "trace.spans": len(tracer.start),
        "trace.pass_wall_s": pass_wall,
    }
    return m


def records(tracer: Tracer, jobs: list[dict]) -> list[dict]:
    """One {layer, case, size, seconds, counters} record per span name and
    job, so growth with size can be read from one run."""
    out = []
    for (name, job), rec in sorted(tracer.reduce().items(), key=lambda kv: (kv[0][1], kv[0][0])):
        j = jobs[job] if 0 <= job < len(jobs) else None
        out.append({
            "layer": name,
            "case": j["key"] if j else None,
            "size": j["size"] if j else None,
            "seconds": rec["self_seconds"],
            "inclusive_seconds": rec["seconds"],
            "counters": {"calls": rec["calls"], **tracer.counters.get((name, job), {})},
        })
    return out
