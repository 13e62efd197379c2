"""Reproducibility across BLAS kernels and thread counts.

OpenBLAS picks its kernels when a process starts, and
``OPENBLAS_CORETYPE`` forces another set for that process, so each
setting runs the same configurations in a process of its own.  The mesh
and the assembled blocks must be bitwise the same under every setting.
The solve is reproducible to a tolerance only: the reductions in PCG and
the dense products (the condensed maps, and the GEMM L_kk U_kk that forms
a Schur complement from a partial LU) round differently under other
kernels and thread counts.  The tolerance bounds the interface residual,
not each field: a field that the stopping rule leaves less accurate than
``tol`` against the direct solve agrees across settings to that accuracy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = r"""
import hashlib, json, sys
import numpy as np
import biot_ddp as bd

out = []
for kw in json.loads(sys.argv[1]):
    cfg = bd.ExperimentConfig(**kw)
    pipe = bd.build_pipeline(cfg)
    res = bd.run_case(cfg, pipe)
    h = hashlib.sha256()
    nodal = pipe.nodal_system
    for M in (nodal.A, nodal.B, nodal.C, nodal.D, nodal.E):
        M = M.tocsr()
        M.sort_indices()
        for arr in (np.asarray(M.shape), M.indptr, M.indices, M.data):
            h.update(np.ascontiguousarray(arr).tobytes())
    cls = pipe.cls
    interior = int(np.bincount(cls.u.interior.sub).max())
    out.append(dict(sha=h.hexdigest(), iterations=res.iterations, converged=res.converged,
                    residual=res.residuals[-1], lambda_interior=interior, oracle_err=res.oracle_err,
                    fields=[res.u.tolist(), res.xi.tolist(), res.p.tolist()]))
print(json.dumps(out))
"""

TOL = 1e-8
CONFIGS = [
    # λ interiors of 450 and more unknowns: the partial-LU Schur complement
    dict(nx=16, subdomains=(2, 2), nu=0.499, tol=TOL, oracle="off"),
    # dense local factors, a checkerboard in E
    dict(nx=12, subdomains=(3, 3), pattern="checkerboard", black={"E": 1e3}, nu=0.3, tol=TOL, oracle="off"),
    # LAPACK Cholesky coarse problems of 336 (torn) and 168 (pressure)
    # unknowns; u and xi are 1e-6 to 1e-5 off the direct solve at this tol
    dict(nx=32, subdomains=(8, 8), total_pressure="p0", primal="vertex-edge", tol=TOL, oracle="on"),
]
SETTINGS = {
    "1 thread": {},
    "2 threads": {"OPENBLAS_NUM_THREADS": "2"},
    "Haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "Prescott": {"OPENBLAS_CORETYPE": "Prescott"},
}


def run_setting(extra: dict) -> list[dict]:
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_CORETYPE", "OMP_NUM_THREADS")}
    env.update({"OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(SRC), **extra})
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(CONFIGS)], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def runs():
    return {name: run_setting(extra) for name, extra in SETTINGS.items()}


def test_assembled_blocks_are_bitwise_equal(runs):
    for k in range(len(CONFIGS)):
        assert len({out[k]["sha"] for out in runs.values()}) == 1


def test_recovered_fields_agree_to_the_tolerance(runs):
    ref = runs["1 thread"]
    assert ref[0]["lambda_interior"] >= 400  # above the dense factor cutoff
    for name, out in runs.items():
        for k, (got, want) in enumerate(zip(out, ref)):
            assert got["converged"], (name, k)
            # a count may move only where the stopping residual sits near tol
            if got["iterations"] != want["iterations"]:
                assert max(got["residual"], want["residual"]) > 0.1 * TOL, (name, k)
            for x, y, err in zip(got["fields"], want["fields"], want["oracle_err"] or [0.0] * 3):
                x, y = np.asarray(x), np.asarray(y)
                # measured: at most 2e-10 relative, on the checkerboard's xi,
                # where the solve reaches tol; 6.4e-7 on the p0 run's xi,
                # whose error against the direct solve is 2.1e-5
                assert np.abs(x - y).max() <= max(TOL, err) * np.abs(y).max(), (name, k)
