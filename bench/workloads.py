"""Benchmark workloads, their seeded loads, and the correctness check.

A workload fixes every operator the solver builds.  The seed changes only
the load: the acceptance suite's load (body force (0, -1), source 1)
times a scale drawn from [0.5, 2.0].  Every seed therefore assembles and
factors the same matrices, and since the problem is linear, iterations,
Ritz values and relative residuals do not depend on the seed; a change in
them is the solver's doing.  Why each workload was chosen is in NOTES.md.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict  # ExperimentConfig fields except the load
    residual_bound: float  # largest accepted ||K x - b|| / ||b|| of the recovered fields


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="flagship-p1-nx64",
            config=dict(
                nx=64, subdomains=(8, 8), total_pressure="p1", primal="vertex",
                multiplier_pc="dirichlet", E=1e6, nu=0.499, tol=1e-8,
            ),
            residual_bound=5e-4,
        ),
        Workload(
            name="tiny-subdomains",
            config=dict(
                nx=44, subdomains=(11, 11), total_pressure="p0", primal="vertex-edge",
                multiplier_pc="dirichlet", E=1e6, nu=0.499, tol=1e-8,
            ),
            residual_bound=5e-4,
        ),
        Workload(
            name="contrast-spectrum",
            config=dict(
                nx=48, subdomains=(3, 3), total_pressure="p1", primal="vertex",
                multiplier_pc="dirichlet", pattern="checkerboard", E=1.0, nu=0.49,
                black={"kappa": 1e-6}, tol=1e-10, reorthogonalize=True,
            ),
            residual_bound=5e-8,
        ),
    )
}


def seeded_load(seed: int) -> dict:
    """Body force and source for one seed (see the module docstring)."""
    scale = float(np.random.default_rng(seed).uniform(0.5, 2.0))
    return {"body_force": (0.0, -scale), "source": scale}


def shrunk(config: dict, factor: int) -> dict:
    """The same workload on a subdomain grid `factor` times coarser per axis
    (at least 2x2) with unchanged H/h, for smoke tests."""
    if factor == 1:
        return dict(config)
    gx, gy = config["subdomains"]
    ratio = config["nx"] // gx
    sub = (max(2, gx // factor), max(2, gy // factor))
    return dict(config, nx=sub[0] * ratio, subdomains=sub)


def experiment_config(name: str, seed: int, shrink: int = 1) -> dict:
    """Keyword arguments of the ExperimentConfig for one workload run."""
    return dict(shrunk(WORKLOADS[name].config, shrink), **seeded_load(seed), oracle="off")


def recovered_residual(nodal_system, u: np.ndarray, xi: np.ndarray, p: np.ndarray) -> float:
    """||K x - b|| / ||b|| of the recovered nodal fields on the assembled system."""
    x = np.concatenate([u, xi, p])
    b = nodal_system.full_rhs()
    r = nodal_system.full_matrix() @ x - b
    return float(np.linalg.norm(r) / np.linalg.norm(b))


def judge(record: dict, residual_bound: float) -> str | None:
    """Why a child record counts as failed, or None when it passed."""
    if record.get("error"):
        return record["error"].strip().splitlines()[-1]
    if not record["converged"]:
        return f"not converged after {record['iterations']} iterations"
    if not record["fields_finite"]:
        return "recovered fields are not finite"
    res = record["recovered_residual"]
    if not res <= residual_bound:
        return f"recovered residual {res:.3e} exceeds the bound {residual_bound:.1e}"
    return None
