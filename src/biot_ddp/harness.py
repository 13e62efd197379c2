"""Experiment harness: configuration, pipelines, sweeps, and reporting.

A configuration fully determines one solver run.  Runs report iteration
counts and spectrum estimates; small runs also compare the decomposed
solution against a direct sparse solve of the full block system.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import time
from dataclasses import dataclass, field, fields, replace
from itertools import product

import numpy as np
import scipy.sparse.linalg as spla

from .decomposition import (
    DofClassification,
    InternalError,
    JumpOperator,
    RestrictionSet,
    ScalingWeights,
    SubdomainPartition,
    build_jump,
    build_restrictions,
    build_scalings,
    classify_dofs,
    partition,
    recover_nodal,
    transform_system,
)
from .krylov import PcgConfig, PcgResult, SpdViolationError, pcg
from .mesh_fem import (
    BlockSystem,
    BoundarySpec,
    ConfigurationError,
    FeSpaceSet,
    LoadSpec,
    MaterialDomainError,
    MaterialField,
    StructuredMesh,
    assemble_blocks,
    build_mesh,
    build_spaces,
)
from .preconditioner import BlockPreconditioner, build_preconditioner
from .reduced_system import ReducedSystem, SaddleFactor, build_reduced_system

ORACLE_AUTO_LIMIT = 5000
# the documented failures of a run: bad input, no converged solution, a bug
RUN_ERRORS = (ConfigurationError, MaterialDomainError, SpdViolationError, InternalError)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


@dataclass
class ExperimentConfig:
    nx: int = 8
    ny: int | None = None
    subdomains: tuple[int, int] = (2, 2)
    total_pressure: str = "p1"
    primal: str = "vertex"
    multiplier_pc: str = "dirichlet"
    pattern: str = "uniform"
    E: float = 1e6
    nu: float = 0.499
    alpha: float = 1.0
    kappa: float = 1.0
    black: dict[str, float] = field(default_factory=dict)
    bc: str = "neumann-left"
    body_force: tuple[float, float] = (0.0, -1.0)
    source: float = 1.0
    tol: float = 1e-8
    max_iter: int = 500
    reorthogonalize: bool = False
    ritz_drop_threshold: float = 0.05
    oracle: str = "auto"

    def validate(self) -> None:
        for name in ("nx", "ny", "max_iter"):
            value = getattr(self, name)
            if not (_is_int(value) or (name == "ny" and value is None)):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        if self.max_iter <= 0:
            raise ConfigurationError(f"max_iter must be positive, got {self.max_iter}")
        for name in ("E", "nu", "alpha", "kappa", "source", "tol", "ritz_drop_threshold"):
            if not _is_finite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be a finite real number, got {getattr(self, name)!r}")
        force = self.body_force
        if not (isinstance(force, (tuple, list)) and len(force) == 2 and all(map(_is_finite, force))):
            raise ConfigurationError(f"body_force must be two finite real numbers, got {force!r}")
        if not (isinstance(self.black, dict) and all(map(_is_finite, self.black.values()))):
            raise ConfigurationError(f"black must map material keys to finite real numbers, got {self.black!r}")
        if not isinstance(self.reorthogonalize, bool):
            raise ConfigurationError(f"reorthogonalize must be true or false, got {self.reorthogonalize!r}")
        if not (isinstance(self.subdomains, (tuple, list)) and len(self.subdomains) == 2
                and all(_is_int(k) and k > 0 for k in self.subdomains)):
            raise ConfigurationError(f"subdomains must be two positive integers, got {self.subdomains!r}")
        if self.total_pressure not in ("p1", "p0"):
            raise ConfigurationError(f"unknown total pressure space {self.total_pressure!r}")
        if self.primal not in ("vertex", "vertex-edge"):
            raise ConfigurationError(f"unknown primal variant {self.primal!r}")
        if self.multiplier_pc not in ("dirichlet", "lumped"):
            raise ConfigurationError(f"unknown multiplier preconditioner {self.multiplier_pc!r}")
        if self.pattern not in ("uniform", "checkerboard"):
            raise ConfigurationError(f"unknown material pattern {self.pattern!r}")
        if self.bc not in ("neumann-left", "dirichlet"):
            raise ConfigurationError(f"unknown boundary condition preset {self.bc!r}")
        if self.oracle not in ("auto", "on", "off"):
            raise ConfigurationError(f"unknown oracle mode {self.oracle!r}")
        if self.pattern == "uniform" and self.black:
            raise ConfigurationError("black-cell overrides require the checkerboard pattern")
        if self.tol <= 0.0:
            raise ConfigurationError(f"tolerance must be positive, got {self.tol}")

    @property
    def H_over_h(self) -> int:
        return self.nx // self.subdomains[0]

    def boundary(self) -> BoundarySpec:
        return BoundarySpec.neumann_left() if self.bc == "neumann-left" else BoundarySpec.all_dirichlet()

    def materials(self) -> MaterialField:
        if self.pattern == "uniform":
            return MaterialField.uniform(self.subdomains, E=self.E, nu=self.nu, alpha=self.alpha, kappa=self.kappa)
        return MaterialField.checkerboard(
            self.subdomains, E=self.E, nu=self.nu, alpha=self.alpha, kappa=self.kappa, black=dict(self.black)
        )

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = list(v)
            out[f.name] = v
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in cls.__dataclass_fields__.values()}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(f"unknown configuration keys: {sorted(unknown)}")
        kwargs = dict(data)
        for key in ("subdomains", "body_force"):
            if isinstance(kwargs.get(key), list):
                kwargs[key] = tuple(kwargs[key])
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as err:  # JSONDecodeError is a ValueError
            raise ConfigurationError(f"cannot read configuration file {path}: {err}") from err
        return cls.from_dict(data)


@dataclass
class Pipeline:
    """Every object built for one configuration, in build order."""

    config: ExperimentConfig
    mesh: StructuredMesh
    part: SubdomainPartition
    spaces: FeSpaceSet
    materials: MaterialField
    nodal_system: BlockSystem
    cls: DofClassification
    system: BlockSystem
    scalings: ScalingWeights
    jump: JumpOperator
    restrictions: RestrictionSet
    reduced: ReducedSystem
    preconditioner: BlockPreconditioner

    @property
    def n_dofs(self) -> int:
        return self.spaces.n_total

    def _preconditioner_classes(self) -> dict[str, list]:
        pc = self.preconditioner
        return {**{k: b.classes for k, b in (("xi", pc.xi), ("p", pc.pressure)) if b}, "lambda": pc.multiplier.classes}

    def class_factors(self) -> dict[str, list[tuple[int, SaddleFactor | None]]]:
        """Per block with unknowns ("torn", "xi", "p", "lambda"), each class's
        member count and kept factor: None for every preconditioner class,
        whose map is a matrix (the inverse dual Schur block with its primal
        coupling for xi and p, the Dirichlet Schur complement or lumped A_DD
        for λ)."""
        blocks = {"torn": self.reduced.factors.values(), **self._preconditioner_classes()}
        return {k: [(c.idx.shape[1], c.factor) for c in classes] for k, classes in blocks.items()}

    def local_factors(self) -> list[SaddleFactor]:
        """Every factor kept for the solve: one per torn congruence class."""
        return [f for classes in self.class_factors().values() for _, f in classes if f is not None]

    def condensed_blocks(self) -> dict[str, int]:
        """Bytes of the dense interface matrices of each condensed block:
        [F; Psi^T] of the torn classes, [S_dd^-1; X^T] of the xi and p BDDC
        classes, S of the λ Dirichlet classes."""
        blocks = {"torn": self.reduced.condensed, **self._preconditioner_classes()}
        out = {k: sum(c.S.nbytes for c in classes if isinstance(c.S, np.ndarray)) for k, classes in blocks.items()}
        return {k: v for k, v in out.items() if v}


@dataclass
class RunResult:
    config: ExperimentConfig
    iterations: int
    converged: bool
    eig_min: float | None
    eig_max: float | None
    valid_eig_min: float | None
    dropped_modes: int
    residuals: list[float]
    jump_norm: float | None  # None: the run failed
    n_dofs: int
    n_interface: int
    oracle_err: tuple[float, float, float] | None
    wall_s: float
    factor_nnz: int  # stored entries of every kept local factor (SaddleFactor.nnz summed)
    factor_classes: dict[str, list[list[int]]]  # per block, [members, n, nnz] of each class's factor (0, 0: none)
    condensed: list[str]  # blocks applied through dense interface matrices: "torn", "xi", "p", "lambda"
    condensed_bytes: int  # their dense maps together
    notes: list[str]
    u: np.ndarray
    xi: np.ndarray
    p: np.ndarray
    error: Exception | None = None  # what a failed sweep point raised

    @classmethod
    def failed(cls, config: ExperimentConfig, error: Exception, wall_s: float) -> RunResult:
        """The row of a run that raised ``error`` and solved nothing."""
        empty = np.zeros(0)
        return cls(
            config=config, iterations=0, converged=False, eig_min=None, eig_max=None, valid_eig_min=None,
            dropped_modes=0, residuals=[], jump_norm=None, n_dofs=0, n_interface=0, oracle_err=None,
            wall_s=wall_s, factor_nnz=0, factor_classes={}, condensed=[], condensed_bytes=0, notes=[],
            u=empty, xi=empty, p=empty, error=error,
        )

    def row(self) -> dict:
        cfg = self.config
        mat = {k: cfg.black.get(k, getattr(cfg, k)) for k in ("E", "nu", "alpha", "kappa")}
        err = self.oracle_err or (None, None, None)
        return {
            "nx": cfg.nx,
            "sub_x": cfg.subdomains[0],
            "sub_y": cfg.subdomains[1],
            "H_over_h": cfg.H_over_h,
            "elem": cfg.total_pressure,
            "primal": cfg.primal,
            "lambda_pc": cfg.multiplier_pc,
            "pattern": cfg.pattern,
            "E": mat["E"],
            "nu": mat["nu"],
            "alpha": mat["alpha"],
            "kappa": mat["kappa"],
            "bc": cfg.bc,
            "iter": self.iterations,
            "eig_min": self.eig_min,
            "valid_eig_min": self.valid_eig_min,
            "eig_max": self.eig_max,
            "oracle_err_u": err[0],
            "oracle_err_xi": err[1],
            "oracle_err_p": err[2],
            "wall_s": self.wall_s,
            "error": None if self.error is None else f"{type(self.error).__name__}: {self.error}",
        }


CSV_COLUMNS = [
    "nx", "sub_x", "sub_y", "H_over_h", "elem", "primal", "lambda_pc", "pattern",
    "E", "nu", "alpha", "kappa", "bc", "iter", "eig_min", "valid_eig_min", "eig_max",
    "oracle_err_u", "oracle_err_xi", "oracle_err_p", "wall_s", "error",
]


def build_pipeline(cfg: ExperimentConfig) -> Pipeline:
    cfg.validate()
    mesh = build_mesh(cfg.nx, cfg.subdomains, ny=cfg.ny)
    part = partition(mesh, cfg.subdomains)
    bc = cfg.boundary()
    spaces = build_spaces(mesh, cfg.total_pressure, bc)
    materials = cfg.materials()
    load = LoadSpec(body_force=cfg.body_force, source=cfg.source)
    nodal = assemble_blocks(mesh, spaces, materials, bc, load)
    cls = classify_dofs(part, spaces, cfg.primal)
    system = transform_system(nodal, cls)
    scalings = build_scalings(cls, materials)
    jump = build_jump(cls, scalings)
    restrictions = build_restrictions(cls, scalings)
    reduced = build_reduced_system(system, cls, jump)
    precond = build_preconditioner(system, cls, jump, restrictions, cfg.multiplier_pc)
    return Pipeline(
        config=cfg,
        mesh=mesh,
        part=part,
        spaces=spaces,
        materials=materials,
        nodal_system=nodal,
        cls=cls,
        system=system,
        scalings=scalings,
        jump=jump,
        restrictions=restrictions,
        reduced=reduced,
        preconditioner=precond,
    )


def oracle_solution(pipe: Pipeline) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Direct sparse solve of the assembled block system in the nodal basis."""
    sys0 = pipe.nodal_system
    x = spla.spsolve(sys0.full_matrix().tocsc(), sys0.full_rhs())
    n_u, n_xi = pipe.spaces.n_u, pipe.spaces.n_xi
    return x[:n_u], x[n_u : n_u + n_xi], x[n_u + n_xi :]


def _field_error(got: np.ndarray, want: np.ndarray) -> float:
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    diff = float(np.max(np.abs(got - want))) if want.size else 0.0
    return diff / scale if scale > 0.0 else diff


def run_case(cfg: ExperimentConfig, pipe: Pipeline | None = None) -> RunResult:
    t0 = time.perf_counter()
    pipe = pipe or build_pipeline(cfg)
    red = pipe.reduced
    pcg_cfg = PcgConfig(
        tol=cfg.tol,
        max_iter=cfg.max_iter,
        reorthogonalize=cfg.reorthogonalize,
        ritz_drop_threshold=cfg.ritz_drop_threshold,
    )
    result: PcgResult = pcg(red.apply, red.rhs(), pipe.preconditioner.apply, pcg_cfg)
    u, xi, p, jump_norm = red.recover(result.x)
    u, p = recover_nodal(pipe.cls, u, p)

    oracle_err = None
    want_oracle = cfg.oracle == "on" or (cfg.oracle == "auto" and pipe.n_dofs <= ORACLE_AUTO_LIMIT)
    if want_oracle:
        uo, xio, po = oracle_solution(pipe)
        oracle_err = (_field_error(u, uo), _field_error(xi, xio), _field_error(p, po))
    wall = time.perf_counter() - t0
    condensed = pipe.condensed_blocks()
    return RunResult(
        config=cfg,
        iterations=result.iterations,
        converged=result.converged,
        eig_min=result.eig_min,
        eig_max=result.eig_max,
        valid_eig_min=result.valid_eig_min,
        dropped_modes=result.dropped_modes,
        residuals=result.residuals,
        jump_norm=jump_norm,
        n_dofs=pipe.n_dofs,
        n_interface=red.n,
        oracle_err=oracle_err,
        wall_s=wall,
        factor_nnz=sum(f.nnz for f in pipe.local_factors()),
        factor_classes={k: [[m, f.n, f.nnz] if f else [m, 0, 0] for m, f in v]
                        for k, v in pipe.class_factors().items()},
        condensed=list(condensed),
        condensed_bytes=sum(condensed.values()),
        notes=list(result.notes),
        u=u,
        xi=xi,
        p=p,
    )


def _set_axis(cfg: ExperimentConfig, name: str, value) -> ExperimentConfig:
    if name.startswith("black."):
        black = dict(cfg.black)
        black[name.split(".", 1)[1]] = value
        return replace(cfg, black=black)
    if name == "subdomains":
        return replace(cfg, subdomains=tuple(value))
    if not hasattr(cfg, name):
        raise ConfigurationError(f"unknown sweep axis {name!r}")
    return replace(cfg, **{name: value})


def run_sweep(
    base: ExperimentConfig, axes: dict[str, list], mode: str = "product"
) -> list[RunResult]:
    """One result per point of the sweep, in order.  A point whose run
    raises one of ``RUN_ERRORS`` gives a failed row holding the error, and
    the sweep goes on."""
    if not axes:
        raise ConfigurationError("a sweep needs at least one axis")
    if len(axes) > 2:
        raise ConfigurationError("sweeps support at most two axes")
    if mode not in ("product", "zip"):
        raise ConfigurationError(f"unknown sweep mode {mode!r}")
    names = list(axes)
    if mode == "zip":
        lengths = {len(axes[n]) for n in names}
        if len(lengths) != 1:
            raise ConfigurationError("zip sweeps need axes of equal length")
        combos = list(zip(*(axes[n] for n in names)))
    else:
        combos = list(product(*(axes[n] for n in names)))
    results = []
    for combo in combos:
        cfg = base
        for name, value in zip(names, combo):
            cfg = _set_axis(cfg, name, value)
        t0 = time.perf_counter()
        try:
            results.append(run_case(cfg))
        except RUN_ERRORS as err:
            results.append(RunResult.failed(cfg, err, time.perf_counter() - t0))
    return results


def fit_polylog(h_over_h: list[float], eig_max: list[float]) -> dict:
    """Least squares fit of y against C1 + C2 (1 + log(H/h))^2."""
    if len(h_over_h) != len(eig_max) or len(h_over_h) < 2:
        raise ConfigurationError("polylog fit needs at least two matched points")
    x = np.array([(1.0 + math.log(v)) ** 2 for v in h_over_h])
    y = np.array(eig_max, dtype=float)
    Amat = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(Amat, y, rcond=None)
    pred = Amat @ coef
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return {
        "C1": float(coef[0]),
        "C2": float(coef[1]),
        "R2": r2,
        "points": [{"H_over_h": float(a), "eig_max": float(b)} for a, b in zip(h_over_h, y)],
    }


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_csv(results: list[RunResult], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(CSV_COLUMNS)
        for res in results:
            row = res.row()
            out.writerow([_format_cell(row[c]) for c in CSV_COLUMNS])


def write_json(results: list[RunResult], path: str) -> None:
    payload = []
    for res in results:
        entry = res.row()
        entry["config"] = res.config.to_dict()
        entry["converged"] = res.converged
        entry["dropped_modes"] = res.dropped_modes
        entry["jump_norm"] = res.jump_norm
        entry["n_dofs"] = res.n_dofs
        entry["n_interface"] = res.n_interface
        entry["factor_nnz"] = res.factor_nnz
        entry["factor_classes"] = res.factor_classes
        entry["condensed"] = res.condensed
        entry["condensed_bytes"] = res.condensed_bytes
        entry["notes"] = res.notes
        payload.append(entry)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
