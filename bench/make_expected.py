"""Recompute expected.json from the groupca sources of this checkout.

    python3 bench/make_expected.py [--workload NAME]

Runs every pool job once (CLI jobs as subprocesses), stores each answer under
its pool key, prints each job's time so the pools can be kept balanced, and
runs the oracle spot checks on the new answers.  Run it only when the pools
change or a change to groupca is meant to change an answer.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
from workloads import WORKLOADS, Prepared, all_pool_jobs, job_answer, run_job  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    args = parser.parse_args()
    path = os.path.join(BENCH_DIR, "expected.json")
    expected = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            expected = json.load(fh)
    sys.path.insert(0, run.SRC)
    status = 0
    for workload in args.workload or WORKLOADS:
        prep = Prepared(workload, all_pool_jobs(workload), run.ROOT, "pool")
        answers = {}
        for i, job in enumerate(prep.jobs):
            t0 = time.perf_counter()
            raw, _ = run_job(prep, i)
            elapsed = time.perf_counter() - t0
            answers[job["key"]], _ = job_answer(prep, i, raw)
            print(f"{workload} {job['key']}: {elapsed:.3f} s", flush=True)
        shutil.rmtree(prep.session_dir, ignore_errors=True)
        expected[workload] = answers
        errors = run.check_expected(workload, answers)
        for err in errors:
            print(f"ORACLE {workload} {err}")
        status = status or bool(errors)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
