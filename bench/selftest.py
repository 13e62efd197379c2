"""Smoke test of the benchmark itself; exits non-zero on the first failure.

    python3 bench/selftest.py

Runs every workload shrunk (subdomain grid four times coarser, same H/h)
through run.py, untraced and traced, and checks that:

* the result line has exactly the keys correct, attempted, failed and
  metrics, and emits every end-to-end or per-layer metric of
  BENCHMARK.json with its unit and nothing else;
* every traced span lies inside its parent and the children of a span
  never add up to more than the span itself;
* the correctness check accepts the solver's fields and rejects a
  perturbed or non-finite solution;
* run.py fails without printing a result when the solver sources are
  missing.

Takes about 20 seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from biot_ddp import ExperimentConfig, build_pipeline, run_case  # noqa: E402
from tracing import check_nesting  # noqa: E402
from workloads import WORKLOADS, experiment_config, judge, recovered_residual  # noqa: E402

SHRINK = 4
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "7",
        "--seconds", "1", "--trace", str(trace), "--shrink", str(SHRINK),
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}")


def check_result(workload: str, trace: int, expected: dict[str, str]) -> None:
    out = run_bench(workload, trace)
    check(out.returncode == 0, f"{workload} trace={trace} exits 0 ({out.stderr.strip()[-300:]})")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    check(set(result) == RESULT_KEYS, f"{workload} trace={trace} result keys")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{workload} trace={trace} correct")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == expected, f"{workload} trace={trace} emits exactly the declared metrics and units")
    check(
        all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
        f"{workload} trace={trace} metric values are numbers",
    )
    if trace:
        spans = json.loads((ROOT / ".bench_out" / f"spans-{workload}-seed7.json").read_text())["spans"]
        check(len(spans) > 0 and check_nesting(spans) == [], f"{workload} child spans stay within their parents")


def check_correctness_gate() -> None:
    name = "tiny-subdomains"
    cfg = ExperimentConfig(**experiment_config(name, seed=7, shrink=SHRINK))
    pipe = build_pipeline(cfg)
    res = run_case(cfg, pipe)
    bound = WORKLOADS[name].residual_bound
    record = {"converged": True, "fields_finite": True, "iterations": res.iterations}

    good = recovered_residual(pipe.nodal_system, res.u, res.xi, res.p)
    check(judge(dict(record, recovered_residual=good), bound) is None, f"solver fields accepted ({good:.2e})")

    rng = np.random.default_rng(0)
    u_bad = res.u * (1.0 + 1e-3 * rng.standard_normal(res.u.size))
    bad = recovered_residual(pipe.nodal_system, u_bad, res.xi, res.p)
    check(judge(dict(record, recovered_residual=bad), bound) is not None, f"perturbed fields rejected ({bad:.2e})")
    check(judge(dict(record, fields_finite=False, recovered_residual=good), bound) is not None, "non-finite fields rejected")
    check(judge(dict(record, converged=False, recovered_residual=good), bound) is not None, "unconverged run rejected")


def check_fails_without_sources() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        out = run_bench("tiny-subdomains", 0, cwd=bare)
    check(out.returncode != 0 and '"metrics"' not in out.stdout, "fails without printing a result when src/ is missing")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "BENCHMARK.json lists the workloads of workloads.py")
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in WORKLOADS:
        check_result(workload, 0, end_to_end)
        check_result(workload, 1, per_layer)
    check_correctness_gate()
    check_fails_without_sources()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
