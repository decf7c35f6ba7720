"""The three closed-loop workloads: job lists drawn from the seed, and the
code that runs one job and reduces its result to the checked answer.

Closed loop: one caller runs the job list in order and starts the next job
only after the previous one has finished, as a researcher's batch script does.

Why each workload, and the pairings later changes can cite by name:

- `kernel_sweep` exercises kernel towers and the density criteria
  (`kernels`, `groups.closure_set`, `automata.power`) plus the `modular`
  helpers; `measures` and `class_a` do almost no work here.  Prime-field linear
  rules are what a closed-form kernel tower (ROADMAP item 3) would serve; the
  Z/4, Z/9 and table rules bypass it, so a linear-only shortcut that slows the
  general path shows here.  The `*_m1` slots make condition4_search walk its
  expensive m = 1 branch.
  Predicted no-change pairing: `automata.cylinder_preimage.*` on kernel_sweep.
- `measure_exact` exercises `measures` and `automata.cylinder_preimage`: exact
  invariance checks under F^j with j rising, Haar measures on product and
  kernel subgroup shifts, Cesaro sequences on Z/3 and Z/5 (preimage
  expansion) and on Z/2 (character-transform path), character integrals,
  Haar tests, periodic-orbit measures and the counterexample suite.  A
  transfer DP (ROADMAP item 2) replaces the expansion; the Z/2 Cesaro jobs use
  the same layer differently, so a DP slower than the path it deletes shows.
  Predicted no-change pairings: `kernels.*` and `groups.closure_set.*` on
  measure_exact.
- `cli_session` runs `python -m groupca.cli` as one subprocess per job.  It is
  the only workload that exercises `cli`, `class_a` and `entropy`: users pay
  the import, parsing and report writing, the repeated kernel levels inside
  `analyze`, and the |A|^width seed walk of `verify_conjugacy` here (ROADMAP
  items 3 and 4).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

from pools import (
    WORKLOAD_SLOTS,
    depth_for,
    m_max_for,
    pool_key,
    width,
)

WORKLOADS = tuple(WORKLOAD_SLOTS)

# Sampled MC discrepancies must stay within this many worst-case standard
# deviations (0.5 / sqrt(samples)) of zero, the closed form for an invariant
# measure.
MC_TOL_SIGMAS = 5.0


def draw_jobs(workload: str, seed: int) -> list[dict]:
    """The job list for one seed: distinct pool picks per slot, in a seeded
    order.

    Each job is {"key", "slot", "spec"}; the key indexes expected.json.
    """
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    for slot, draws, pool in WORKLOAD_SLOTS[workload]:
        if draws == "all":
            picks = range(len(pool))
        else:
            picks = rng.sample(range(len(pool)), draws)
        for i in picks:
            jobs.append({"key": pool_key(slot, i), "slot": slot, "spec": pool[i]})
    rng.shuffle(jobs)
    return jobs


def all_pool_jobs(workload: str) -> list[dict]:
    return [
        {"key": pool_key(slot, i), "slot": slot, "spec": spec}
        for slot, _, pool in WORKLOAD_SLOTS[workload]
        for i, spec in enumerate(pool)
    ]


# -- building groupca inputs ----------------------------------------------------------


def build_rule(spec: dict):
    from groupca import GroupSpec, linear_ca, table_ca

    group = GroupSpec(tuple(spec["moduli"]))
    if "table" in spec:
        table = {tuple((a,) for a in w): (v,) for w, v in spec["table"]}
        return table_ca(group, tuple(spec["nbhd"]), table)
    coeffs = {int(u): c for u, c in spec["coeffs"].items()}
    return linear_ca(group, coeffs, neighborhood=tuple(spec["nbhd"]))


def build_measure(spec: dict):
    from groupca import (
        Bernoulli, GroupSpec, HaarMeasure, LinearKernelShift, MixtureMeasure,
        ProductSubgroup, PushforwardMeasure, Subgroup,
    )

    kind = spec["type"]
    if kind == "bernoulli":
        group = GroupSpec(tuple(spec["moduli"]))
        return Bernoulli(group, {(a,): Fraction(w) for a, w in enumerate(spec["weights"])})
    if kind == "haar_product":
        group = GroupSpec(tuple(spec["moduli"]))
        t = spec["grouping"]
        block = Subgroup(group.power(t), tuple(tuple(b) for b in spec["block"]))
        return HaarMeasure(ProductSubgroup(group, t, block))
    if kind == "haar_kernel":
        return HaarMeasure(LinearKernelShift(build_rule(spec["rule"])))
    if kind == "pushforward":
        return PushforwardMeasure(build_measure(spec["base"]), build_rule(spec["rule"]),
                                  f_power=spec["power"])
    if kind == "mixture":
        return MixtureMeasure(tuple(
            (Fraction(c), build_measure(m)) for c, m in spec["components"]
        ))
    raise ValueError(f"unknown measure spec {kind!r}")


def job_size(workload: str, job: dict) -> dict:
    """Size parameters every span of the job carries: alphabet order, width,
    depth N or power j, window length L."""
    spec = job["spec"]
    if workload == "kernel_sweep":
        order, w = spec["moduli"][0], width(spec)
        return {"order": order, "width": w, "N": depth_for(order, w),
                "m_max": m_max_for(order, w)}
    if workload == "measure_exact":
        kind = spec["kind"]
        size: dict = {"kind": kind}
        if "rule" in spec and spec["rule"]:
            size["order"] = spec["rule"]["moduli"][0]
            size["width"] = width(spec["rule"])
        if "checks" in spec:
            size["j"] = max(j for j, _ in spec["checks"])
        if "steps" in spec:
            size["j"] = spec["steps"]
        if "length" in spec:
            size["L"] = spec["length"]
        if "budget" in spec:
            size["L"] = spec["budget"]
        return size
    argv = spec["argv"]
    size = {"command": " ".join(a for a in argv[:2] if not a.startswith("-"))}
    for flag, name in (("--levels", "N"), ("--length", "L"), ("--width", "width"),
                       ("--steps", "j"), ("--samples", "samples"),
                       ("--mc-samples", "samples")):
        if flag in argv:
            size[name] = int(argv[argv.index(flag) + 1])
    return size


class Prepared:
    """Inputs of one job list, built before timing starts: groupca objects
    for the in-process workloads, spec files for cli_session."""

    def __init__(self, workload: str, jobs: list[dict], root: str, tag: str):
        self.workload = workload
        self.root = root
        self.jobs = jobs
        self.inputs: list = []
        self.session_dir = os.path.join(root, ".bench_out", f"{workload}-{tag}")
        for index, job in enumerate(self.jobs):
            job["id"] = index
            job["size"] = job_size(workload, job)
            self.inputs.append(self._prepare(job))

    def _prepare(self, job: dict):
        spec = job["spec"]
        if self.workload == "kernel_sweep":
            return build_rule(spec)
        if self.workload == "measure_exact":
            return _prepare_measure_job(spec)
        job_dir = os.path.join(self.session_dir, f"job{job['id']}")
        os.makedirs(job_dir, exist_ok=True)
        for name, content in spec["files"].items():
            with open(os.path.join(job_dir, name), "w", encoding="utf-8") as fh:
                json.dump(content, fh)
        argv = [a.replace("{dir}", job_dir) for a in spec["argv"]]
        out = None
        if argv[0] != "examples":
            out = os.path.join(job_dir, "report.json")
            argv += ["--out", out]
        return {"argv": argv, "out": out}


def _prepare_measure_job(spec: dict):
    from groupca import GroupSpec, PeriodicConfig

    kind = spec["kind"]
    if kind in ("invariance", "cesaro"):
        rule = build_rule(spec["rule"]) if spec["rule"] else None
        return (build_measure(spec["measure"]), rule)
    if kind == "character":
        return build_measure(spec["measure"])
    if kind == "orbit":
        group = GroupSpec(tuple(spec["moduli"]))
        x = PeriodicConfig(group, tuple((a,) for a in spec["word"]))
        return (x, build_rule(spec["rule"]))
    return None


# -- running one job -------------------------------------------------------------------


def _frac(x) -> str:
    return str(Fraction(x))


def _word(word) -> list:
    return [list(a) for a in word]


def run_kernel_job(F, size: dict) -> dict:
    from groupca import (
        bipermutative_power, condition4_search, corollary_ker_check, factor_mod_p,
        permutative_support, recurrence_matrix, tower,
    )

    N = size["N"]
    tw = tower(F, N)
    ans: dict = {
        "sizes": [tw.size(n) for n in range(N + 1)],
        "periods": [tw.period(n) for n in range(N + 1)],
    }
    c4 = condition4_search(F, m_max=size["m_max"])
    ans["condition4"] = [c4.found, c4.m, len(c4.failures)]
    ck = corollary_ker_check(F)
    ans["corollary_ker"] = [ck.holds, ck.proper_invariant_subgroups]
    if F.is_linear:
        small = F.smallest_neighborhood()
        r, s = small.neighborhood
        d = F.alphabet.moduli[0]
        ends = (small.coeff(r).matrix[0][0], small.coeff(s).matrix[0][0])
        if all(math.gcd(c, d) == 1 for c in ends):
            ans["matrix_order"] = recurrence_matrix(F).matrix_order()
        sup = permutative_support(F)
        ans["unit_offsets"] = list(sup.offsets)
        if not sup.is_empty and sup.r_hat < sup.s_hat:
            Fq = bipermutative_power(F)
            ans["bipermutative_power"] = [list(Fq.neighborhood), {
                str(u): f.matrix[0][0] for u, f in sorted(Fq.coeffs.items())
            }]
        if sup.k == 1:
            from groupca import as_laurent

            fact = factor_mod_p(as_laurent(F))
            ans["factors"] = [[list(f), m] for f, m in fact.factors]
    return ans


def run_measure_job(spec: dict, prepared) -> dict:
    from groupca import (
        Character, Cylinder, FullShift, PeriodicOrbitMeasure, cesaro_sequence,
        character_integral, counterexample_suite, haar_test, invariance_check,
    )

    kind = spec["kind"]
    if kind == "invariance":
        mu, F = prepared
        out = []
        for j, shift in spec["checks"]:
            res = invariance_check(mu, F if j else None, f_power=j, shift=shift,
                                   length=spec["length"])
            witness = None
            if res.witness is not None:
                witness = [res.witness.offset, _word(res.witness.word)]
            out.append([j, shift, _frac(res.max_discrepancy), witness,
                        res.cylinders_checked])
        return {"invariance": out}
    if kind == "cesaro":
        mu, F = prepared
        res = cesaro_sequence(mu, F, spec["steps"], spec["length"])
        return {"distances": [_frac(d) for d in res.distances_to_uniform]}
    if kind == "character":
        mu = prepared
        group = mu.alphabet
        one = (1,) * group.rank
        value = character_integral(mu, {0: Character(group, one), 1: Character(group, one)})
        rep = haar_test(mu, FullShift(group), spec["budget"])
        return {
            "integral": [round(value.real, 9), round(value.imag, 9)],
            "haar_test": [rep.consistent, rep.characters_checked,
                          round(rep.max_abs_integral, 9)],
        }
    if kind == "orbit":
        x, F = prepared
        mu = PeriodicOrbitMeasure.from_orbit(x, F)
        abc = [(a,) for a in range(x.alphabet.moduli[0])]
        probs = [
            _frac(mu.cylinder_prob(Cylinder(offset, word)))
            for ell in range(1, spec["length"] + 1)
            for word in itertools.product(abc, repeat=ell)
            for offset in (0, 1)
        ]
        return {"configs": len(mu.configs), "probs": probs}
    checks = counterexample_suite().verify(spec["length"])
    out = {}
    for key, value in sorted(checks.items()):
        if isinstance(value, bool):
            out[key] = value
        elif hasattr(value, "max_discrepancy"):
            out[key] = [_frac(value.max_discrepancy), value.cylinders_checked]
        else:
            out[key] = [value.consistent, value.characters_checked,
                        round(value.max_abs_integral, 9)]
    return out


def cli_answer(spec: dict, argv: list[str], code: int, stdout: str,
               report: dict | None) -> dict:
    """Exact report fields of one CLI call; sampled fields become tolerance
    verdicts against their closed form."""
    ans: dict = {"exit": code}
    cmd = argv[0] if argv[0] != "measure" else "measure " + argv[1]
    if cmd == "examples":
        ans["names"] = sorted(line.split(":")[0] for line in stdout.splitlines() if line)
        return ans
    if report is None:
        ans["report"] = None
        return ans
    if cmd == "analyze":
        tower_ = report.get("kernel_tower", {})
        ans["tower"] = [[lv["size"], lv["p_n"]] for lv in tower_.get("levels", [])]
        ans["size_law_ok"] = tower_.get("size_law_ok")
        for key in ("condition4", "corollary_ker", "permutativity", "surjectivity",
                    "failures"):
            ans[key] = report.get(key)
        ans["hypotheses"] = [report["hypotheses"]["p1"], report["hypotheses"]["k_p1"]]
        if "class_a" in report:
            section = report["class_a"]
            ans["class_a"] = [section.get(k) for k in (
                "class_a", "invertible_radius1", "dual_provenance",
                "conjugacy_verified", "conjugacy_windows")]
    elif cmd == "kernel":
        ans["tower"] = [[lv["size"], lv["p_n"]] for lv in report["levels"]]
        ans["divisibility_ok"] = report["divisibility_ok"]
    elif cmd == "dual":
        ans["dual"] = {
            name: [sec.get("dual_table"), sec.get("dual_provenance"),
                   sec.get("conjugacy_verified"), sec.get("conjugacy_windows_checked")]
            for name, sec in sorted(report.items())
        }
    elif cmd == "entropy":
        h_sigma, h_f = spec["closed_form"]
        ans["h_sigma_within_tol"] = abs(report["h_sigma_nats"] - h_sigma) <= spec["tol"]
        ans["h_f_within_tol"] = abs(report["h_f_estimate_nats"] - h_f) <= spec["tol"]
        ans["formula_case"] = report["formula_case"]
        ans["samples"] = report["samples"]
    elif cmd == "measure invariance":
        samples = int(argv[argv.index("--mc-samples") + 1])
        ans["mc_within_tol"] = report["max_discrepancy"] <= MC_TOL_SIGMAS * 0.5 / math.sqrt(samples)
        ans["invariant"] = report["invariant"]
        ans["cylinders_checked"] = report["cylinders_checked"]
    elif cmd == "measure counterexample":
        ans.update({k: v for k, v in report.items() if k != "max_character_integral"})
        ans["max_character_integral"] = round(report["max_character_integral"], 9)
    elif cmd == "hypotheses":
        for key in ("p1", "k_p1", "condition4", "corollary_ker", "entropy_positive",
                    "all_checkable_hold", "nontrivial", "bipermutative"):
            ans[key] = report.get(key)
    else:
        ans["report"] = report
    return ans


def run_cli_subprocess(root: str, prepared: dict) -> tuple[int, str, int]:
    """One CLI call as a fresh interpreter; returns exit code, stdout and the
    child's peak resident set in KiB."""
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "groupca.cli", *prepared["argv"]],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    stdout = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return proc.returncode, stdout, usage.ru_maxrss


def run_cli_inprocess(prepared: dict) -> tuple[int, str]:
    from groupca import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(prepared["argv"]))
    return code, buf.getvalue()


def read_report(prepared: dict) -> tuple[dict | None, int]:
    out = prepared["out"]
    if out is None or not os.path.exists(out):
        return None, 0
    with open(out, "rb") as fh:
        raw = fh.read()
    os.remove(out)
    return json.loads(raw), len(raw)


def canonical(answer) -> object:
    """JSON round trip, so answers compare equal to what expected.json holds."""
    return json.loads(json.dumps(answer, sort_keys=True))


def run_job(prep: Prepared, index: int, inprocess_cli: bool = False):
    """Run one job; returns its raw result and the child's peak RSS in KiB
    (0 for in-process jobs).  Only this call is timed."""
    job, inp = prep.jobs[index], prep.inputs[index]
    if prep.workload == "kernel_sweep":
        return run_kernel_job(inp, job["size"]), 0
    if prep.workload == "measure_exact":
        return run_measure_job(job["spec"], inp), 0
    if inprocess_cli:
        code, stdout = run_cli_inprocess(inp)
        return (code, stdout), 0
    code, stdout, rss = run_cli_subprocess(prep.root, inp)
    return (code, stdout), rss


def job_answer(prep: Prepared, index: int, raw) -> tuple[object, int]:
    """The checked answer of a finished job and its report size in bytes."""
    if prep.workload != "cli_session":
        return canonical(raw), 0
    job, inp = prep.jobs[index], prep.inputs[index]
    code, stdout = raw
    report, nbytes = read_report(inp)
    return canonical(cli_answer(job["spec"], job["spec"]["argv"], code, stdout, report)), nbytes
