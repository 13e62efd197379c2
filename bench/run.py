"""Benchmark entry point: runs one workload and prints its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--shrink F]

Closed loop: rounds of set-up and solve, one at a time, each in a fresh
process (forked by child.py), one BLAS thread.  With --trace 0 it repeats
rounds until S seconds have passed and at least three were made, and
reports the end-to-end metrics as medians over them, times in reference
seconds (see CAL_REFERENCE_S).  With --trace 1 it runs one untraced and
one traced round and reports the per-layer metrics of the traced one
plus the tracing overhead.

Every round is checked: it must converge, give finite fields, and
leave a recovered residual on the assembled nodal system within the
workload's bound.  The last stdout line is the JSON result; the line
before it holds the environment fingerprint and every round's record.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, judge  # noqa: E402

TIME_LIMIT_S = 170.0  # the whole run, children included
# A second BLAS thread made set-up slower and burnt more CPU time on a
# 2-core machine; the solver's other work is single-threaded.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The same work ran up to 1.8 times slower from one second to the next on
# the 2-vCPU machine this was written on.  Each round times a fixed kernel
# (child.calibration_s) before the set-up, between set-up and solve, and
# after the solve, and each phase's time is reported in reference seconds:
# wall seconds times CAL_REFERENCE_S over the mean of the kernel times on
# either side of it, i.e. seconds on a machine where the kernel takes
# CAL_REFERENCE_S.  Wall seconds stay in the records.
CAL_REFERENCE_S = 0.1

END_TO_END = {
    "time_to_solution_s": "s",
    "setup_s": "s",
    "solve_s": "s",
    "peak_rss_mb": "MB",
    "iterations": "count",
    "eig_max": "1",
    "recovered_residual": "1",
}


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


class Runner:
    """Starts child processes in turn and keeps the records of their rounds."""

    def __init__(self, args, deadline: float):
        self.args = args
        self.deadline = deadline
        self.bound = WORKLOADS[args.workload].residual_bound
        self.records: list[dict] = []
        self.env_info: dict = {}
        self.env = dict(os.environ, **{v: str(BLAS_THREADS) for v in THREAD_VARS})

    def child(self, until: float = 0.0, traced: bool = False) -> list[dict]:
        """Runs one child process; returns the records of its rounds (an
        error record last when it failed)."""
        a = self.args
        cmd = [
            sys.executable, str(HERE / "child.py"), "--workload", a.workload,
            "--seed", str(a.seed), "--shrink", str(a.shrink), "--until", str(until),
        ]
        if traced:
            spans = ROOT / ".bench_out" / f"spans-{a.workload}-seed{a.seed}.json"
            cmd += ["--trace", "--spans-out", str(spans)]
        # its own session, so that a timeout kills the round it forked too
        proc = subprocess.Popen(
            cmd, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
            problem = None if proc.returncode == 0 else stderr or f"exit code {proc.returncode}"
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            stdout, _ = proc.communicate()
            problem = "timed out"
        finally:
            if proc.poll() is None:  # interrupted
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        records = []
        for line in stdout.splitlines():
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue
            if "env" in rec:
                self.env_info = rec["env"]
            else:
                records.append(rec)
        if problem or not records:
            records.append({"traced": traced, "error": problem or "no round reported"})
        for rec in records:
            rec["failure"] = judge(rec, self.bound)
        self.records += records
        return records


def normalised(r: dict, phase: str) -> float:
    """Wall seconds of one phase of a round in reference seconds."""
    before, mid, after = r["cal_s"]
    cal = 0.5 * (before + mid) if phase == "setup" else 0.5 * (mid + after)
    return r[f"{phase}_wall_s"] * CAL_REFERENCE_S / cal


def measure(runner: Runner, seconds: float, started: float) -> dict:
    runner.child(until=started + seconds)
    ok = [r for r in runner.records if r["failure"] is None]
    if not ok:
        return {}
    setup = statistics.median(normalised(r, "setup") for r in ok)
    solve = statistics.median(normalised(r, "solve") for r in ok)
    metrics = {"setup_s": setup, "solve_s": solve, "time_to_solution_s": setup + solve}
    for name in ("peak_rss_mb", "iterations", "eig_max", "recovered_residual"):
        metrics[name] = statistics.median(r[name] for r in ok)
    return {name: (metrics[name], unit) for name, unit in END_TO_END.items()}


def measure_traced(runner: Runner) -> dict:
    records = runner.child(traced=True)
    if len(records) != 2 or any(r["failure"] for r in records):
        return {}
    plain, traced = records
    metrics = {name: tuple(v) for name, v in traced["layers"].items()}

    def speed_free(r: dict) -> float:
        return normalised(r, "setup") + normalised(r, "solve")

    metrics["trace.overhead_ratio"] = (speed_free(traced) / speed_free(plain), "ratio")
    metrics["trace.span_count"] = (traced["span_count"], "count")
    return metrics


def fingerprint(runner: Runner) -> dict:
    solved = [r for r in runner.records if not r.get("error")]
    return dict(
        runner.env_info,
        blas_threads=BLAS_THREADS,
        nproc=os.cpu_count(),
        commit=git_commit(),
        workload=runner.args.workload,
        seed=runner.args.seed,
        shrink=runner.args.shrink,
        block_sha256=sorted({r["block_sha256"] for r in solved if "block_sha256" in r}),
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--shrink", type=int, default=1, help="smoke tests: coarsen the subdomain grid by this factor")
    args = ap.parse_args(argv)
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "biot_ddp").is_dir():
        print(f"no solver sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    runner = Runner(args, deadline=started + TIME_LIMIT_S)
    metrics = measure_traced(runner) if args.trace else measure(runner, args.seconds, started)
    fp = fingerprint(runner)
    for r in runner.records:
        r.pop("layers", None)
    print(json.dumps({"fingerprint": fp, "runs": runner.records}))
    if not metrics:
        print("no full solve passed its checks; nothing to report", file=sys.stderr)
        return 1

    failed = sum(r["failure"] is not None for r in runner.records)
    # the solver is deterministic: every round of a run gives the same numerics
    consistent = len({(r["iterations"], r["eig_max"]) for r in runner.records if r["failure"] is None}) == 1
    result = {
        "correct": failed == 0 and consistent,
        "attempted": len(runner.records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
