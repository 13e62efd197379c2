"""Preconditioned conjugate gradients with spectrum estimation.

The solver records its step and correction coefficients; those feed the
standard tridiagonal (Lanczos) matrix whose eigenvalues estimate the
extreme eigenvalues of the preconditioned operator.  A full
reorthogonalization mode keeps the estimates trustworthy over many
iterations at the cost of storing the residual history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal


class SpdViolationError(RuntimeError):
    """The operator or preconditioner produced a nonpositive or non-finite
    inner product, or the residual became non-finite."""


def _kind(value: float) -> str:
    """What is wrong with an inner product that is not positive and finite."""
    return "nonpositive" if value <= 0.0 else "non-finite"


@dataclass
class PcgConfig:
    tol: float = 1e-8
    max_iter: int = 500
    reorthogonalize: bool = False
    ritz_drop_threshold: float = 0.05


@dataclass
class PcgResult:
    x: np.ndarray
    iterations: int
    converged: bool
    residuals: list[float]
    alphas: list[float]
    betas: list[float]
    ritz: np.ndarray
    eig_min: float | None
    eig_max: float | None
    valid_eig_min: float | None
    dropped_modes: int
    notes: list[str] = field(default_factory=list)


def ritz_values(alphas: list[float], betas: list[float]) -> np.ndarray:
    """Eigenvalues of the tridiagonal matrix built from the solver
    coefficients; estimates of the preconditioned operator spectrum."""
    k = len(alphas)
    if k == 0:
        return np.zeros(0)
    d = np.empty(k)
    d[0] = 1.0 / alphas[0]
    for j in range(1, k):
        d[j] = 1.0 / alphas[j] + betas[j - 1] / alphas[j - 1]
    e = np.array([np.sqrt(betas[j]) / alphas[j] for j in range(k - 1)])
    if k == 1:
        return d.copy()
    return eigvalsh_tridiagonal(d, e)


def filter_spectrum(ritz: np.ndarray, threshold: float) -> tuple[float | None, int, list[str]]:
    """Smallest trusted eigenvalue estimate.

    Leading estimates are dropped while they are smaller than the next one
    by more than the threshold ratio; such isolated tiny values usually
    belong to a physically degenerate mode rather than the bulk spectrum.
    """
    notes: list[str] = []
    vals = np.sort(ritz)
    dropped = 0
    while vals.size >= 2 and vals[0] < threshold * vals[1]:
        vals = vals[1:]
        dropped += 1
    if dropped and vals.size < 2:
        notes.append("spectrum filter left fewer than two estimates; treat the minimum as unreliable")
    return (float(vals[0]) if vals.size else None), dropped, notes


def pcg(
    apply_A: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    apply_M: Callable[[np.ndarray], np.ndarray] | None = None,
    config: PcgConfig | None = None,
) -> PcgResult:
    cfg = config or PcgConfig()
    norm0 = float(np.linalg.norm(b))
    # the identity must hand back a fresh buffer: the reorthogonalization
    # updates r and z separately and an aliased pair gets doubled corrections
    precond = apply_M if apply_M is not None else (lambda v: v.copy())

    x = np.zeros(b.size)
    r = b.copy()
    residuals = [norm0]
    alphas: list[float] = []
    betas: list[float] = []
    history: list[tuple[np.ndarray, np.ndarray, float]] = []  # (r, z, r.z) of each step, when reorthogonalizing
    # an empty or zero right-hand side is solved by x = 0, with no apply
    converged = norm0 == 0.0
    while not converged and len(alphas) < cfg.max_iter:
        it = len(alphas)  # steps taken
        z = precond(r)
        for rj, zj, rhoj in history:
            c = float(zj @ r) / rhoj
            r -= c * rj
            z -= c * zj
        rz_new = float(r @ z)
        # every guard is written so that NaN fails it
        if not 0.0 < rz_new < np.inf:
            where = f"at iteration {it}" if it else "on the initial residual"
            raise SpdViolationError(f"preconditioner produced {_kind(rz_new)} product {rz_new:.3e} {where}")
        if it:
            betas.append(rz_new / rz)
            p = z + betas[-1] * p
        else:
            p = z.copy()
        rz = rz_new
        if cfg.reorthogonalize:
            history.append((r.copy(), z.copy(), rz))
        q = apply_A(p)
        pq = float(p @ q)
        if not 0.0 < pq < np.inf:
            raise SpdViolationError(f"operator produced {_kind(pq)} curvature {pq:.3e} at iteration {it + 1}")
        alpha = rz / pq
        alphas.append(alpha)
        x += alpha * p
        r -= alpha * q
        res = float(np.linalg.norm(r))
        if not np.isfinite(res):
            raise SpdViolationError(f"residual became non-finite ({res:.3e}) at iteration {it + 1}")
        residuals.append(res)
        converged = res <= cfg.tol * norm0

    ritz = ritz_values(alphas, betas[: len(alphas) - 1])
    eig_min = float(ritz.min()) if ritz.size else None
    eig_max = float(ritz.max()) if ritz.size else None
    valid_min, dropped, notes = filter_spectrum(ritz, cfg.ritz_drop_threshold) if ritz.size else (None, 0, [])
    if not converged:
        notes.append(f"not converged after {cfg.max_iter} iterations (residual {residuals[-1]:.3e})")
    return PcgResult(
        x=x,
        iterations=len(alphas),
        converged=converged,
        residuals=residuals,
        alphas=alphas,
        betas=betas,
        ritz=ritz,
        eig_min=eig_min,
        eig_max=eig_max,
        valid_eig_min=valid_min,
        dropped_modes=dropped,
        notes=notes,
    )


def write_residual_history(result: PcgResult, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iteration,residual\n")
        for k, res in enumerate(result.residuals):
            fh.write(f"{k},{float(res)!r}\n")
