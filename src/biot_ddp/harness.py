"""Experiment harness: configuration, pipelines, sweeps, and reporting.

A configuration fully determines one solver run.  Runs report iteration
counts and spectrum estimates; small runs also compare the decomposed
solution against a direct sparse solve of the full block system.
"""

from __future__ import annotations

import csv
import ctypes
import json
import math
import numbers
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass, field, fields, replace
from itertools import product

import numpy as np
import scipy
import scipy.sparse.linalg as spla

from .decomposition import (
    DofClassification,
    InternalError,
    ScalingWeights,
    SubdomainPartition,
    Transfer,
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
from .reduced_system import PartiallyAssembled, ReducedSystem, build_reduced_system

ORACLE_AUTO_LIMIT = 5000
# the documented failures of a run: bad input, no converged solution, a bug
RUN_ERRORS = (ConfigurationError, MaterialDomainError, SpdViolationError, InternalError)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


# the values allowed for each enumerated configuration field
CHOICES = {
    "total_pressure": ("p1", "p0"),
    "primal": ("vertex", "vertex-edge"),
    "multiplier_pc": ("dirichlet", "lumped"),
    "pattern": ("uniform", "checkerboard"),
    "bc": ("neumann-left", "dirichlet"),
    "oracle": ("auto", "on", "off"),
}


@dataclass
class ExperimentConfig:
    """One solver run.  The mesh has ``nx`` cells in x and as many cells per
    subdomain in y as in x, so ``nx // subdomains[0] * subdomains[1]`` in y."""

    nx: int = 8
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
    tol: float = PcgConfig.tol
    max_iter: int = PcgConfig.max_iter
    reorthogonalize: bool = PcgConfig.reorthogonalize
    ritz_drop_threshold: float = PcgConfig.ritz_drop_threshold
    oracle: str = "auto"

    def validate(self) -> None:
        for name in ("nx", "max_iter"):
            if not _is_int(getattr(self, name)):
                raise ConfigurationError(f"{name} must be an integer, got {getattr(self, name)!r}")
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
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ConfigurationError(f"unknown {name} {getattr(self, name)!r}, expected one of {allowed}")
        if self.pattern == "uniform" and self.black:
            raise ConfigurationError("black-cell overrides require the checkerboard pattern")
        if self.tol <= 0.0:
            raise ConfigurationError(f"tolerance must be positive, got {self.tol}")
        if not 0.0 <= self.ritz_drop_threshold < 1.0:
            raise ConfigurationError(f"ritz_drop_threshold must lie in [0, 1), got {self.ritz_drop_threshold}")

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
        if not isinstance(data, dict):
            raise ConfigurationError(f"a configuration must be an object of field values, got {type(data).__name__}")
        unknown = set(data) - {f.name for f in fields(cls)}
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
    jump: Transfer  # the multipliers'
    restrictions: dict[str, Transfer]  # by pressure-like field, "xi" and "p"
    reduced: ReducedSystem
    preconditioner: BlockPreconditioner

    @property
    def n_dofs(self) -> int:
        return self.spaces.n_total

    @property
    def blocks(self) -> dict[str, PartiallyAssembled]:
        """Every partially assembled block as the solve applies it, by its name
        in the run record: "torn" (on the interface rows; its classes share
        the torn factors) and each preconditioner block with unknowns."""
        red, pc = self.reduced, self.preconditioner
        named = (("torn", red.interface), ("xi", pc.xi), ("p", pc.pressure), ("lambda", pc.multiplier))
        return {k: b for k, b in named if b is not None}


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB (2^20 bytes)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10  # bytes on macOS, KiB elsewhere


# RunResult fields the JSON record leaves out: the arrays, and those that
# ``row()`` or the record's "config" writes in its own form
JSON_OMITS = ("residuals", "u", "xi", "p", "iterations", "oracle_err", "error", "config")


def _empty() -> np.ndarray:
    return np.zeros(0)


@dataclass
class RunResult:
    """What one run reports; the defaults are those of a run that raised
    ``error`` and solved nothing."""

    config: ExperimentConfig
    iterations: int = 0
    converged: bool = False
    eig_min: float | None = None
    eig_max: float | None = None
    valid_eig_min: float | None = None
    dropped_modes: int = 0
    residuals: list[float] = field(default_factory=list)
    jump_norm: float | None = None
    n_dofs: int = 0
    n_interface: int = 0
    oracle_err: tuple[float, float, float] | None = None
    wall_s: float = 0.0
    factor_nnz: int = 0  # stored entries of every kept local factor (SaddleFactor.nnz summed)
    # per block, [members, n, nnz] of each class's factor (0, 0: none; nnz
    # 0: a torn class solving through its source's factor)
    factor_classes: dict[str, list[list[int]]] = field(default_factory=dict)
    # blocks applied through dense interface matrices: "torn", "xi", "p", "lambda"
    condensed: list[str] = field(default_factory=list)
    condensed_bytes: int = 0  # their dense maps together
    # per block, the classes that formed their own map (``PartiallyAssembled.sources``)
    schur_sources: dict[str, int] = field(default_factory=dict)
    # per coarse problem ("torn", "p"), its unknowns and half-bandwidth
    coarse: dict[str, list[int]] = field(default_factory=dict)
    # subdomains whose local torn block holds the constant total pressure
    # only by the mass term (``reduced_system.xi_mass_only``)
    xi_mass_only: int = 0
    peak_rss_mb: float = field(default_factory=peak_rss_mb)  # of the process when the result is made
    notes: list[str] = field(default_factory=list)
    u: np.ndarray = field(default_factory=_empty)
    xi: np.ndarray = field(default_factory=_empty)
    p: np.ndarray = field(default_factory=_empty)
    error: Exception | None = None  # what a failed sweep point raised

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


CSV_COLUMNS = list(RunResult(ExperimentConfig()).row())


def build_pipeline(cfg: ExperimentConfig) -> Pipeline:
    cfg.validate()
    mesh = build_mesh(cfg.nx, cfg.subdomains)
    part = partition(mesh, cfg.subdomains)
    spaces = build_spaces(mesh, cfg.total_pressure, cfg.boundary())
    materials = cfg.materials()
    nodal = assemble_blocks(spaces, materials, LoadSpec(body_force=cfg.body_force, source=cfg.source))
    cls = classify_dofs(part, nodal, cfg.primal)
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
    return tuple(np.split(x, np.cumsum(list(pipe.spaces.n_dofs.values()))[:2]))


def _field_error(got: np.ndarray, want: np.ndarray) -> float:
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    diff = float(np.max(np.abs(got - want))) if want.size else 0.0
    return diff / scale if scale > 0.0 else diff


def blas_corename() -> str | None:
    """The CPU kernels OpenBLAS picked at load time, as NumPy's bundled
    library names them (``scipy_openblas_get_corename64_``, found through
    NumPy's own extension module); None where that symbol is not found."""
    try:
        get = ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_get_corename64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_char_p
    return get().decode()


def environment() -> dict:
    """What produced a run: the Python, NumPy and SciPy versions, NumPy's
    BLAS with the core it runs on, and the thread and core settings
    OpenBLAS reads (None if unset)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas["name"], "version": blas["version"], "corename": blas_corename()},
        **{v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_CORETYPE")},
    }


def run_case(cfg: ExperimentConfig, pipe: Pipeline | None = None) -> RunResult:
    t0 = time.perf_counter()
    pipe = pipe or build_pipeline(cfg)
    red = pipe.reduced
    pcg_cfg = PcgConfig(**{f.name: getattr(cfg, f.name) for f in fields(PcgConfig)})
    result: PcgResult = pcg(red.apply, red.rhs(), pipe.preconditioner.apply, pcg_cfg)
    u, xi, p, jump_norm = red.recover(result.x)
    u, p = recover_nodal(pipe.cls, u, p)

    oracle_err = None
    want_oracle = cfg.oracle == "on" or (cfg.oracle == "auto" and pipe.n_dofs <= ORACLE_AUTO_LIMIT)
    if want_oracle:
        uo, xio, po = oracle_solution(pipe)
        oracle_err = (_field_error(u, uo), _field_error(xi, xio), _field_error(p, po))
    wall = time.perf_counter() - t0
    blocks = pipe.blocks
    factors = {k: [[c.idx.shape[1], c.factor.n, c.factor.nnz] if c.factor else [c.idx.shape[1], 0, 0]
                   for c in b.classes] for k, b in blocks.items()}
    dense = {k: sum(c.S.nbytes for c in b.classes if isinstance(c.S, np.ndarray)) for k, b in blocks.items()}
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
        factor_nnz=sum(nnz for v in factors.values() for _, _, nnz in v),
        factor_classes=factors,
        condensed=[k for k, n in dense.items() if n],
        condensed_bytes=sum(dense.values()),
        schur_sources={k: b.sources for k, b in blocks.items()},
        # xi and λ have no primal unknowns, and their coarse problems none
        coarse={k: [blocks[k].coarse.n, blocks[k].coarse.kd] for k in ("torn", "p") if k in blocks},
        xi_mass_only=red.xi_mass_only,
        notes=list(result.notes),
        u=u,
        xi=xi,
        p=p,
    )


def _set_axis(cfg: ExperimentConfig, name: str, value) -> ExperimentConfig:
    """``cfg`` with the sweep axis ``name`` set: a configuration field other
    than ``black``, or ``black.KEY`` for one black-cell value."""
    if name.startswith("black."):
        return replace(cfg, black={**cfg.black, name.split(".", 1)[1]: value})
    if name == "black" or name not in {f.name for f in fields(cfg)}:
        raise ConfigurationError(f"unknown sweep axis {name!r}")
    return replace(cfg, **{name: tuple(value) if name == "subdomains" else value})


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
            results.append(RunResult(cfg, wall_s=time.perf_counter() - t0, error=err))
    return results


def fit_polylog(h_over_h: list[float], eig_max: list[float]) -> dict:
    """Least squares fit of y against C1 + C2 (1 + log(H/h))^2."""
    if len(h_over_h) != len(eig_max) or len(set(h_over_h)) < 2 or not all(1.0 <= v < math.inf for v in h_over_h):
        raise ConfigurationError("polylog fit needs matched points at two or more distinct H/h, each finite and >= 1")
    if not all(math.isfinite(v) for v in eig_max):
        raise ConfigurationError("polylog fit needs a finite eig_max at every point")
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
    """One record per result: its ``row()``, its config, the environment
    and every other field but ``JSON_OMITS``."""
    env = environment()
    payload = [
        {**{f.name: getattr(res, f.name) for f in fields(res) if f.name not in JSON_OMITS},
         **res.row(), "config": res.config.to_dict(), "environment": env}
        for res in results
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
