"""groupca benchmark: three seeded, single-process, closed-loop workloads.

    python3 bench/run.py --workload kernel_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (it imports `groupca` from `src/`).
With `--trace 0` the job list is run untraced, pass after pass, for
`--seconds` seconds and the end-to-end metrics are printed; with `--trace 1`
untraced and traced passes alternate and the per-layer metrics are printed.
End-to-end times are given at a reference host speed: speed probes
(`speed.py`) run between the timed jobs and set-up interpreters, and each
time is scaled by the probe's reference duration over the mean of the probes
on either side, so the host's drift cancels and `groupca`'s own cost
remains.  The raw medians are on the detail line.
Every job's answer is checked against `expected.json`, which the oracles in
`oracles.py` spot-check.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
holds details (fail_ratio, sample counts, the tail percentile, pass counts).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import speed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# One BLAS/OpenMP thread for this process and every child it starts; jobs run
# one at a time, so at most two processes (this one and one CLI child) run.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SETUP_PROBES = 7
IMPORT_PROBES = 5
# A run makes at least MIN_PASSES passes, and its tail percentile is the
# highest listed one that has at least ten jobs beyond it in that many
# passes: fixed by the job list, so it does not flip with the host's speed.
MIN_PASSES = 4
TAIL_PERCENTILES = (90.0, 75.0, 50.0)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name == "kernels.seed_states":
        return "count_computed"
    if name.endswith(("ratio", "per_cylinder")):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def _median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(jobs_per_pass: int) -> float:
    return next(p for p in TAIL_PERCENTILES
                if jobs_per_pass * MIN_PASSES * (1 - p / 100) >= 10)


def tail(latencies: list[float], p: float) -> float:
    """Latency at percentile `p` (nearest rank)."""
    ordered = sorted(latencies)
    rank = max(1, -(-p * len(ordered) // 100))
    return ordered[int(rank) - 1]


def _fresh_python(code: list[str], env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *code], cwd=ROOT, env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median time for a fresh interpreter to import groupca and build the
    inputs, at the reference speed and raw; speed probes bracket each one."""
    argv = [os.path.join(BENCH_DIR, "run.py"), "--setup-probe", "--workload", workload,
            "--seed", str(seed)]
    times, scaled = [], []
    before = speed.probe()
    for _ in range(SETUP_PROBES):
        t = _fresh_python(argv, dict(os.environ))
        after = speed.probe()
        times.append(t)
        scaled.append(t * speed.scale(before, after))
        before = after
    return statistics.median(scaled), statistics.median(times)


def measure_cli_import() -> list[float]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return [_fresh_python(["-c", "import groupca.cli"], env) for _ in range(IMPORT_PROBES)]


class Runner:
    """Runs passes over the job list, checks every answer and keeps the
    attempted and failed counts and the per-job latencies."""

    def __init__(self, prep, expected: dict):
        self.prep = prep
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.child_rss_kib = 0
        self.mismatches: list[str] = []

    def run_pass(self, inprocess: bool, tracer=None, record: bool = True,
                 calibrate: bool = False) -> dict:
        """One pass over the job list.  The pass's wall and CPU time are the
        sums over its jobs.  With `calibrate`, speed probes run between the
        jobs (outside their time) and every job's times are scaled to the
        reference speed by the probes on either side of it; otherwise the
        times are raw."""
        from workloads import job_answer, run_job

        prep = self.prep
        walls, cpus = [], []
        probes = [speed.probe()] if calibrate else []
        report_bytes = 0
        exit_mismatches = 0
        for i, job in enumerate(prep.jobs):
            if tracer is not None:
                tracer.job = i
            r0 = resource.getrusage(resource.RUSAGE_SELF)
            c0 = resource.getrusage(resource.RUSAGE_CHILDREN)
            t0 = time.perf_counter()
            try:
                raw, rss = run_job(prep, i, inprocess)
                error = None
            except Exception:  # a failed job is counted, the loop goes on
                raw, rss, error = None, 0, traceback.format_exc()
            t1 = time.perf_counter()
            r1 = resource.getrusage(resource.RUSAGE_SELF)
            c1 = resource.getrusage(resource.RUSAGE_CHILDREN)
            if tracer is not None:
                tracer.job = -1
            walls.append(t1 - t0)
            cpus.append(sum(b - a for a, b in (
                (r0.ru_utime, r1.ru_utime), (r0.ru_stime, r1.ru_stime),
                (c0.ru_utime, c1.ru_utime), (c0.ru_stime, c1.ru_stime))))
            self.child_rss_kib = max(self.child_rss_kib, rss)
            want = self.expected.get(job["key"])
            if error is None:
                answer, nbytes = job_answer(prep, i, raw)
                report_bytes += nbytes
                ok = answer == want
                if not ok and prep.workload == "cli_session" and want is not None \
                        and answer.get("exit") != want.get("exit"):
                    exit_mismatches += 1
            else:
                answer, ok = error, False
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.mismatches) < 5:
                    self.mismatches.append(
                        f"{job['key']}: got {answer!r:.400}, expected {want!r:.400}")
            if calibrate:
                probes.append(speed.probe())
        if calibrate:
            factors = [speed.scale(a, b) for a, b in zip(probes, probes[1:])]
        else:
            factors = [1.0] * len(walls)
        scaled = [w * f for w, f in zip(walls, factors)]
        if record:
            self.latencies.extend(scaled)
        return {"wall": sum(scaled), "cpu": sum(c * f for c, f in zip(cpus, factors)),
                "raw_wall": sum(walls), "report_bytes": report_bytes,
                "exit_mismatches": exit_mismatches}


def run_untraced(runner: Runner, seconds: float) -> list[dict]:
    """Passes until the next one would overrun `seconds` (at least
    MIN_PASSES)."""
    passes: list[dict] = []
    elapsed: list[float] = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or \
            time.perf_counter() - start + _median(elapsed) <= seconds:
        t0 = time.perf_counter()
        passes.append(runner.run_pass(inprocess=False, calibrate=True))
        elapsed.append(time.perf_counter() - t0)
    return passes


def run_traced(runner: Runner, seconds: float):
    """Untraced and traced passes in turn (both in-process, so the overhead
    ratio isolates tracing), until the next pair would overrun `seconds`.
    Returns both pass lists and the last pass's tracer."""
    from spans import Tracer, layer_metrics

    plain: list[dict] = []
    traced: list[dict] = []
    tracer = None
    start = time.perf_counter()
    while not traced or (time.perf_counter() - start + _median([p["wall"] for p in plain])
                         + _median([p["wall"] for p in traced])) <= seconds:
        plain.append(runner.run_pass(True, record=False))
        tracer = Tracer()
        tracer.install()
        try:
            result = runner.run_pass(True, tracer=tracer, record=False)
        finally:
            tracer.uninstall()
        result["layers"] = layer_metrics(tracer, result["wall"])
        traced.append(result)
    return plain, traced, tracer


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import groupca and build the inputs (timed by the parent)")
    return parser.parse_args(argv)


def prepare(workload: str, seed: int):
    sys.path.insert(0, SRC)
    import groupca  # noqa: F401

    from workloads import Prepared, draw_jobs

    return Prepared(workload, draw_jobs(workload, seed), ROOT, str(seed))


def check_expected(workload: str, expected: dict) -> list[str]:
    """Oracle spot checks of the expected answers this workload relies on."""
    import oracles
    from pools import m_max_for, width
    from workloads import all_pool_jobs

    errors = []
    for job in all_pool_jobs(workload):
        spec, answer = job["spec"], expected.get(job["key"])
        if answer is None:
            errors.append(f"{job['key']}: no expected answer")
            continue
        if workload == "kernel_sweep":
            order, w = spec["moduli"][0], width(spec)
            for err in (oracles.check_size_law(spec, answer),
                        oracles.check_condition4(spec, m_max_for(order, w), answer)):
                if err:
                    errors.append(f"{job['key']}: {err}")
        elif workload == "measure_exact":
            if spec["kind"] == "invariance":
                errors.extend(f"{job['key']}: {e}" for e in
                              oracles.check_invariance(spec, answer) or [])
        elif spec["argv"][0] == "kernel" and "rule.json" in spec["files"]:
            rule = spec["files"]["rule.json"]
            as_spec = {"moduli": rule["alphabet"]["moduli"], "nbhd": rule["neighborhood"],
                       "coeffs": rule["rule"]["coeffs"]}
            err = oracles.check_size_law(as_spec, {"sizes": [s for s, _ in answer["tower"]]})
            if err:
                errors.append(f"{job['key']}: {err}")
    return errors


def main(argv=None) -> int:
    sys.path.insert(0, BENCH_DIR)
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "groupca", "__init__.py")):
        print(f"groupca sources not found under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        prepare(args.workload, args.seed)
        return 0
    speed.pin()

    setup_s, setup_raw = (0.0, 0.0) if args.trace else measure_setup(args.workload, args.seed)
    prep = prepare(args.workload, args.seed)
    with open(os.path.join(BENCH_DIR, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)[args.workload]
    runner = Runner(prep, expected)

    # Let caches and lazy imports settle: one untimed pass in-process; for
    # the subprocess session, one throwaway CLI call (the per-call import
    # stays inside every timed job, since users pay it on every call).
    if args.workload == "cli_session" and not args.trace:
        subprocess.run([sys.executable, "-m", "groupca.cli", "examples"], cwd=ROOT,
                       env={**os.environ, "PYTHONPATH": SRC}, stdout=subprocess.DEVNULL,
                       check=True)
    else:
        runner.run_pass(True, record=False)

    detail: dict = {"workload": args.workload, "seed": args.seed, "jobs": len(prep.jobs)}
    if args.trace:
        plain, traced, tracer = run_traced(runner, args.seconds)
        untraced_wall = _median([p["wall"] for p in plain])
        layer_names = list(traced[-1]["layers"])
        values = {name: _median([p["layers"][name] for p in traced]) for name in layer_names}
        imports = measure_cli_import()
        values["cli.import_s"] = _median(imports)
        values["cli.report_bytes"] = traced[-1]["report_bytes"]
        values["cli.exit_code_mismatches"] = traced[-1]["exit_mismatches"]
        values["trace.overhead_ratio"] = _median([p["wall"] for p in traced]) / untraced_wall
        metrics = {name: {"value": v, "unit": per_layer_unit(name)}
                   for name, v in values.items()}
        from spans import records

        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        trace_path = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "records": records(tracer, prep.jobs),
                       "spans": tracer.spans()}, fh)
        detail.update(untraced_passes=len(plain), traced_passes=len(traced),
                      trace_file=os.path.relpath(trace_path, ROOT))
    else:
        passes = run_untraced(runner, args.seconds)
        if args.workload == "cli_session":
            peak_kib = runner.child_rss_kib
        else:
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        tail_p = tail_percentile(len(prep.jobs))
        tail_value = tail(runner.latencies, tail_p)
        values = {
            "setup_s": setup_s,
            "wall_s": _median([p["wall"] for p in passes]),
            "cpu_s": _median([p["cpu"] for p in passes]),
            "job_p50_s": _median(runner.latencies),
            "job_tail_s": tail_value,
            "peak_rss_mb": peak_kib / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        detail.update(passes=len(passes), pass_walls=[p["wall"] for p in passes],
                      raw_setup_s=setup_raw,
                      raw_wall_s=_median([p["raw_wall"] for p in passes]),
                      job_samples=len(runner.latencies), job_tail_percentile=tail_p)

    shutil.rmtree(prep.session_dir, ignore_errors=True)
    oracle_errors = check_expected(args.workload, expected)
    detail["fail_ratio"] = runner.failed / runner.attempted
    detail["oracle_errors"] = oracle_errors
    detail["mismatches"] = runner.mismatches
    print(json.dumps({"detail": detail}))
    result = {
        "correct": runner.failed == 0 and not oracle_errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
