"""The measuring process of one run; prints one JSON record per round on
stdout.

    python3 bench/child.py --workload NAME --seed N [--until T] [--trace] [--shrink F] [--spans-out PATH]

A round goes from the configuration to the recovered nodal fields
(`build_pipeline`, then `run_case`) and checks them.  Each round runs in
its own process, forked from this one after the imports and a warm-up of
the calibration kernel, so no round sees what an earlier one built or
cached, and none pays for the imports.  Untraced rounds repeat while
the next one is expected to end before `--until` (a time.monotonic()
reading), at least MIN_ROUNDS of them; `--trace`
makes one untraced round and then one traced round.  A fixed calibration
kernel is timed before the set-up, between set-up and solve, and after
the solve of every round, so that run.py can take the machine's speed
out of the times.  run.py starts this process with the BLAS thread count
fixed in its environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg as sla  # noqa: E402
import scipy.sparse as sp  # noqa: E402
import scipy.sparse.linalg as spla  # noqa: E402

import biot_ddp  # noqa: E402
from biot_ddp import ExperimentConfig, build_pipeline, run_case  # noqa: E402
from tracing import Tracer, instrument_modules, instrument_pipeline, layer_metrics  # noqa: E402
from workloads import experiment_config, recovered_residual  # noqa: E402

MIN_ROUNDS = 3


def block_hash(nodal) -> str:
    """SHA-256 over the assembled nodal operator blocks (not the load)."""
    h = hashlib.sha256()
    for M in (nodal.A, nodal.B, nodal.C, nodal.D, nodal.E):
        M = M.tocsr()
        M.sort_indices()
        for arr in (np.asarray(M.shape), M.indptr, M.indices, M.data):
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _calibration_kernel() -> None:
    rng = np.random.default_rng(0)
    n = 90
    T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    A = (sp.kron(T, sp.eye(n)) + sp.kron(sp.eye(n), T)).tocsr()
    keep = np.sort(rng.permutation(n * n)[: n * n // 2])
    for _ in range(4):
        A[keep][:, keep].tocsc()
    lu = spla.splu(A.tocsc())
    b = rng.standard_normal(n * n)
    for _ in range(30):
        b = lu.solve(b) / 4.0
    M = rng.standard_normal((120, 120)) + 120 * np.eye(120)
    for _ in range(20):
        sla.lu_solve(sla.lu_factor(M), b[:120])
    d: dict[int, int] = {}
    for i in range(100000):
        d[i % 1000] = d.get(i % 1000, 0) + i


def calibration_s() -> float:
    """Seconds of one pass of a fixed NumPy/SciPy kernel doing the kinds of
    work the solver does: sparse assembly and slicing, sparse LU solves,
    small dense LU and a dict-heavy Python loop.  It does not call
    biot_ddp, so a change to the solver does not move it."""
    t0 = time.perf_counter()
    _calibration_kernel()
    return time.perf_counter() - t0


def blas_info() -> dict:
    out = {}
    for mod in (np, scipy):
        blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        out[mod.__name__] = f"{blas['name']} {blas['version']}"
    return out


def one_round(cfg, trace: bool, spans_out: str | None, first: bool) -> dict:
    """Set up, solve and check once, in this process.  The first round of a
    run also hashes the assembled operators."""
    tracer = Tracer() if trace else None
    setup, solve = build_pipeline, run_case
    if tracer:
        instrument_modules(tracer, biot_ddp)
        setup, solve = tracer.wrap("setup", setup), tracer.wrap("solve", solve)
    # the first pass after the fork pays for copying the pages it writes
    _calibration_kernel()
    cal_before = calibration_s()
    t0 = time.perf_counter()
    pipe = setup(cfg)
    t1 = time.perf_counter()
    cal_mid = calibration_s()
    if tracer:
        instrument_pipeline(tracer, pipe)
    t2 = time.perf_counter()
    res = solve(cfg, pipe)
    t3 = time.perf_counter()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    cal_after = calibration_s()

    fields = (res.u, res.xi, res.p)
    record = dict(
        traced=trace,
        setup_wall_s=t1 - t0,
        solve_wall_s=t3 - t2,
        cal_s=[cal_before, cal_mid, cal_after],
        peak_rss_mb=peak_kb / 1024.0,
        iterations=res.iterations,
        converged=bool(res.converged),
        eig_max=res.eig_max,
        fields_finite=all(bool(np.all(np.isfinite(f))) for f in fields),
        recovered_residual=recovered_residual(pipe.nodal_system, *fields),
        n_dofs=pipe.n_dofs,
        n_interface=res.n_interface,
    )
    if first:
        record["block_sha256"] = block_hash(pipe.nodal_system)
    if tracer:
        spans = tracer.spans
        record["layers"] = layer_metrics(spans, pipe)
        record["span_count"] = len(spans)
        if spans_out:
            out = Path(spans_out)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps({"fields": ["name", "start", "end", "parent"], "spans": spans}) + "\n")
    return record


def forked_round(cfg, trace: bool, spans_out: str | None = None, first: bool = False) -> dict:
    """Runs one_round in a forked process and waits for it to end."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the round's process
        os.close(read_end)
        try:
            record = one_round(cfg, trace, spans_out, first)
        except BaseException:
            record = {"traced": trace, "error": traceback.format_exc()}
        with os.fdopen(write_end, "w") as out:
            out.write(json.dumps(record))
        os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end) as inp:
        text = inp.read()
    _, status = os.waitpid(pid, 0)
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return {"traced": trace, "error": f"round process ended with wait status {status} and no record"}


def emit(record: dict) -> None:
    print(json.dumps(record), flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--until", type=float, default=0.0, help="time.monotonic() by which untraced rounds end")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--shrink", type=int, default=1)
    ap.add_argument("--spans-out")
    args = ap.parse_args(argv)
    emit({"env": {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
    }})
    try:
        cfg = ExperimentConfig(**experiment_config(args.workload, args.seed, args.shrink))
    except Exception:
        emit({"traced": args.trace, "error": traceback.format_exc()})
        return 0
    _calibration_kernel()  # warm-up, untimed
    if args.trace:
        emit(forked_round(cfg, False, first=True))
        emit(forked_round(cfg, True, args.spans_out))
        return 0
    rounds = 0
    while True:
        t0 = time.monotonic()
        emit(forked_round(cfg, False, first=rounds == 0))
        rounds += 1
        now = time.monotonic()
        if rounds >= MIN_ROUNDS and now + (now - t0) > args.until:
            return 0


if __name__ == "__main__":
    sys.exit(main())
