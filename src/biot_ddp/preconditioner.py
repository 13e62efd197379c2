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

Every block takes its congruence classes from the input key of
``mesh_fem`` (``BlockSystem.classes``), forms and factors one
representative's local block per class and solves all members of a class
as one multi-column solve.  The Dirichlet Schur complement is applied
matrix-free (one interior solve per application) or, when few classes
serve many subdomains, formed once per class as a dense matrix and
applied as one product.
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


def _bddc(
    inject_scaled: sp.csr_matrix, groups: list[np.ndarray], block, dual: dict, primal: dict, primal_dofs: np.ndarray,
    label: str,
) -> InterfaceBddc:
    """Factor one dual Schur block per class of ``groups``.  ``block(r)``
    gives representative r's matrix and the local positions of its dual,
    then primal interface unknowns and of its interior ones.  Subdomain s's
    dual dofs ``dual[s]`` take the next positions of the partially assembled
    vector, its primal dofs ``primal[s]`` their places in ``primal_dofs``."""
    off = np.cumsum([0, *(dual[s].size for s in range(len(dual)))])
    F = np.zeros((primal_dofs.size, primal_dofs.size))
    classes: list[LocalClass] = []
    for members in groups:
        r, nd = members[0], dual[members[0]].size
        S = _dense_schur(*block(r))
        add_local_class(
            classes, F, SaddleFactor([(f"{label} block of subdomain {r}", S[:nd, :nd])]),
            S[:nd, nd:], S[nd:, nd:],
            idx=np.column_stack([np.arange(off[s], off[s + 1]) for s in members]),
            primal=np.column_stack([np.searchsorted(primal_dofs, primal[s]) for s in members]),
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

    def block(r):
        lb = system.stacked.local_view(r)
        return float(mats.lam[r] / mats.mu[r]) * lb.C, lb.xi_pos(cls.xi_sub_interface[r]), lb.xi_pos(cls.xi_interior[r])

    no_primal = np.zeros(0, dtype=np.int64)
    return _bddc(restrictions.xi_break_scaled, system.classes("C"), block, cls.xi_sub_interface,
                 dict.fromkeys(cls.xi_sub_interface, no_primal), no_primal, "total pressure")


def build_p_bddc(system: BlockSystem, cls: DofClassification, restrictions: RestrictionSet) -> InterfaceBddc:
    def block(r):
        lb = system.stacked.local_view(r)
        return lb.E, lb.p_pos(np.concatenate([cls.p_sub_dual[r], cls.p_sub_primal[r]])), lb.p_pos(cls.p_interior[r])

    return _bddc(restrictions.p_inject_scaled, system.classes("E"), block, cls.p_sub_dual, cls.p_sub_primal,
                 cls.p_primal, "pressure")


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
    groups = system.classes("A")
    n_dual = np.diff(lay.dual_offset)
    # condensing solves each class's dual columns once
    condense = kind == "dirichlet" and condensing_pays_back(sum(n_dual[m[0]] for m in groups), n_dual.size)
    classes = []
    for members in groups:
        r = members[0]
        lb = system.stacked.local_view(r)
        iD, iI = lb.u_pos(cls.u_sub_dual[r]), lb.u_pos(cls.u_interior[r])
        idx = np.column_stack([np.arange(lay.dual_offset[s], lay.dual_offset[s + 1]) for s in members])
        label = f"elastic interior block of subdomain {r}"
        Ac = lb.A.tocsr()
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
