"""Block diagonal preconditioner for the reduced interface operator.

Three independent blocks, one per interface segment:

* total pressure trace: scaled sum of inverted local mass Schur
  complements, each weighted by the subdomain's ratio of first Lame
  parameter to shear modulus;
* pressure trace: balancing (BDDC) preconditioner built from local flow
  Schur complements, with broken dual values and a shared coarse primal
  block eliminated exactly;
* multipliers: scaled jumps through either the local elastic Dirichlet
  Schur complement or its lumped stiffness shortcut.

Every block factors one representative per congruence class of
subdomains and solves all members of a class as one multi-column solve.
The Dirichlet Schur complement is applied matrix-free (one interior solve
per application) or, when few classes serve many subdomains, formed once
per class as a dense matrix and applied as one product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .decomposition import (
    DofClassification,
    InternalError,
    JumpOperator,
    RestrictionSet,
)
from .mesh_fem import BlockSystem, ConfigurationError
from .reduced_system import (
    CoarseProblem,
    LocalClass,
    SaddleFactor,
    add_local_class,
    condensing_pays_back,
    congruence_classes,
    solve_partially_assembled,
)


def _dense_schur(M: sp.spmatrix, gamma: np.ndarray, inner: np.ndarray, label: str = "interior block") -> np.ndarray:
    """Boundary block minus the interior-eliminated coupling, densely."""
    Mc = M.tocsr()
    Mg = Mc[gamma]
    S = Mg[:, gamma].toarray()
    if inner.size and gamma.size:
        Mgi = Mg[:, inner].toarray()
        S -= Mgi @ SaddleFactor([(label, Mc[inner][:, inner])]).solve(Mgi.T)
    return S


@dataclass
class InterfaceBddc:
    """Balancing preconditioner on a pressure-like interface trace.

    The partially assembled Schur complement is never formed; its inverse
    is applied through local dual factorizations, one per congruence
    class, and one dense coarse solve.  With no primal unknowns it is the
    scaled sum of inverted local Schur complements.
    """

    inject_scaled: sp.csr_matrix  # assembled trace -> partially assembled
    inject_scaled_T: sp.csr_matrix
    classes: list[LocalClass]
    coarse: CoarseProblem

    def apply(self, r: np.ndarray) -> np.ndarray:
        return self.inject_scaled_T @ solve_partially_assembled(self.classes, self.coarse, self.inject_scaled @ r)


def _bddc(inject_scaled: sp.csr_matrix, n_primal: int, local: list[tuple], label: str) -> InterfaceBddc:
    """Factor one dual Schur block per congruence class.  ``local`` holds per
    subdomain: its matrix, the local positions of its interface unknowns
    (dual ones first) and of its interior ones, its dual count, and where
    its dual and primal unknowns sit in the partially assembled vector."""
    F = np.zeros((n_primal, n_primal))
    classes: list[LocalClass] = []
    for members in congruence_classes([(M, gamma, inner, np.array([nd])) for M, gamma, inner, nd, _, _ in local]):
        M, gamma, inner, nd, _, _ = local[members[0]]
        S = _dense_schur(M, gamma, inner)
        add_local_class(
            classes, F, SaddleFactor([(f"{label} block of subdomain {members[0]}", S[:nd, :nd])]),
            S[:nd, nd:], S[nd:, nd:],
            idx=np.column_stack([local[k][4] for k in members]),
            primal=np.column_stack([local[k][5] for k in members]),
        )
    return InterfaceBddc(
        inject_scaled=inject_scaled,
        inject_scaled_T=inject_scaled.T.tocsr(),
        classes=classes,
        coarse=CoarseProblem(F),
    )


def build_xi_solver(system: BlockSystem, cls: DofClassification, restrictions: RestrictionSet) -> InterfaceBddc:
    """Total pressure: no primal unknowns, local mass matrices weighted by
    the subdomain's ratio of first Lame parameter to shear modulus."""
    mats = system.materials
    local = []
    off = 0
    for s in sorted(system.local):
        lb = system.local[s]
        gamma = lb.xi_pos(cls.xi_sub_interface[s])
        ratio = float(mats.lam[s] / mats.mu[s])
        inner = lb.xi_pos(cls.xi_interior[s])
        local.append((ratio * lb.C, gamma, inner, gamma.size, off + np.arange(gamma.size), np.zeros(0, dtype=np.int64)))
        off += gamma.size
    return _bddc(restrictions.xi_break_scaled, 0, local, "total pressure")


def build_p_bddc(system: BlockSystem, cls: DofClassification, restrictions: RestrictionSet) -> InterfaceBddc:
    local = []
    off = 0
    for s in sorted(system.local):
        lb = system.local[s]
        ids = cls.p_sub_interface[s]
        is_dual = np.isin(ids, cls.p_dual)
        nd = int(np.count_nonzero(is_dual))
        gamma = lb.p_pos(np.concatenate([ids[is_dual], ids[~is_dual]]))
        pidx = np.searchsorted(cls.p_primal, ids[~is_dual])
        local.append((lb.E, gamma, lb.p_pos(cls.p_interior[s]), nd, off + np.arange(nd), pidx))
        off += nd
    return _bddc(restrictions.p_inject_scaled, cls.p_primal.size, local, "pressure")


@dataclass
class DirichletClass:
    """Congruent subdomains sharing one elastic Dirichlet block: column j
    of ``idx`` gathers member j's broken dual displacements.  A condensed
    class holds only the dense Schur complement ``S``."""

    idx: np.ndarray
    S: np.ndarray | None = None
    A_DD: sp.csr_matrix | None = None
    A_DI: sp.csr_matrix | None = None
    A_ID: sp.csr_matrix | None = None
    interior: SaddleFactor | None = None  # None for the lumped variant and a condensed class


@dataclass
class LagrangeSolver:
    """Scaled-jump preconditioner for the multiplier block."""

    jump_scaled: sp.csr_matrix
    jump_scaled_T: sp.csr_matrix
    classes: list[DirichletClass]

    def apply(self, r: np.ndarray) -> np.ndarray:
        t = self.jump_scaled_T @ r
        out = np.zeros_like(t)
        for c in self.classes:
            T = t[c.idx]
            if c.S is not None:
                H = c.S @ T
            else:
                H = c.A_DD @ T
                if c.interior is not None:
                    H -= c.A_DI @ c.interior.solve(c.A_ID @ T)
            out[c.idx] = H
        return self.jump_scaled @ out


def build_lambda_solver(
    system: BlockSystem, cls: DofClassification, jump: JumpOperator, kind: str
) -> LagrangeSolver:
    if kind not in ("dirichlet", "lumped"):
        raise ConfigurationError(f"unknown multiplier preconditioner {kind!r}")
    lay = cls.layout
    subs = sorted(system.local)
    pos = {}
    for s in subs:
        lb = system.local[s]
        pos[s] = (lb.u_pos(cls.u_sub_dual[s]), lb.u_pos(cls.u_interior[s]))
    groups = [[subs[k] for k in m] for m in congruence_classes([(system.local[s].A, *pos[s]) for s in subs])]
    # condensing solves each class's dual columns once
    condense = kind == "dirichlet" and condensing_pays_back(sum(pos[m[0]][0].size for m in groups), len(subs))
    classes = []
    for members in groups:
        iD, iI = pos[members[0]]
        idx = np.column_stack([lay.dual_offset[s] + np.arange(iD.size) for s in members])
        label = f"elastic interior block of subdomain {members[0]}"
        Ac = system.local[members[0]].A.tocsr()
        if condense:
            classes.append(DirichletClass(idx=idx, S=_dense_schur(Ac, iD, iI, label)))
            continue
        A_DI = Ac[iD][:, iI]
        interior = SaddleFactor([(label, Ac[iI][:, iI])]) if kind == "dirichlet" else None
        classes.append(DirichletClass(idx=idx, A_DD=Ac[iD][:, iD], A_DI=A_DI, A_ID=A_DI.T.tocsr(), interior=interior))
    return LagrangeSolver(jump_scaled=jump.jump_scaled, jump_scaled_T=jump.jump_scaled.T.tocsr(), classes=classes)


@dataclass
class BlockPreconditioner:
    """Concatenation of the three segment preconditioners."""

    xi: InterfaceBddc | None
    pressure: InterfaceBddc | None
    multiplier: LagrangeSolver
    segments: tuple[int, int, int]

    def apply(self, r: np.ndarray) -> np.ndarray:
        n_xi, n_p, n_lam = self.segments
        if r.size != n_xi + n_p + n_lam:
            raise InternalError("preconditioner applied to a vector of the wrong size")
        parts = []
        if n_xi:
            parts.append(self.xi.apply(r[:n_xi]))
        if n_p:
            parts.append(self.pressure.apply(r[n_xi : n_xi + n_p]))
        parts.append(self.multiplier.apply(r[n_xi + n_p :]))
        return np.concatenate(parts) if parts else np.zeros(0)


def build_preconditioner(
    system: BlockSystem,
    cls: DofClassification,
    jump: JumpOperator,
    restrictions: RestrictionSet,
    multiplier_kind: str = "dirichlet",
) -> BlockPreconditioner:
    lay = cls.layout
    n_xi = lay.xi_iface.size
    n_p = lay.p_iface.size
    xi = build_xi_solver(system, cls, restrictions) if n_xi else None
    bddc = build_p_bddc(system, cls, restrictions) if n_p else None
    lam = build_lambda_solver(system, cls, jump, multiplier_kind)
    return BlockPreconditioner(xi=xi, pressure=bddc, multiplier=lam, segments=(n_xi, n_p, lay.n_lambda))
