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
``mesh_fem`` (``BlockSystem.classes``) and is one ``InterfaceBddc``: a
scaled restriction, one local map per class applied to all members at
once by the kernel of ``reduced_system``, and the transposed restriction.
The maps: the inverse of a factored dual Schur block for xi and p; for λ
(no coarse problem) the dense Dirichlet Schur complement when few classes
serve many subdomains, else the same applied matrix-free (one interior
solve per application), or the lumped A_DD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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
    scaled sum of the local maps: inverted Schur complements for xi, the
    elastic Dirichlet maps for λ.
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


def _matrix_free_schur(A_DD, A_DI, A_ID, interior: SaddleFactor) -> spla.LinearOperator:
    """A_DD - A_DI A_II^{-1} A_ID, one interior solve per application."""
    def schur(T):
        return A_DD @ T - A_DI @ interior.solve(A_ID @ T)

    return spla.LinearOperator(A_DD.shape, matvec=schur, matmat=schur, dtype=float)


def build_lambda_solver(
    system: BlockSystem, cls: DofClassification, jump: JumpOperator, kind: str
) -> InterfaceBddc:
    """Scaled jumps through each class's local elastic map on its broken
    dual displacements, with no coarse problem: the dense Dirichlet Schur
    complement, the same applied matrix-free, or the lumped A_DD."""
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
        c = LocalClass(idx=idx, primal=np.zeros((0, len(members)), dtype=np.int64))
        label = f"elastic interior block of subdomain {r}"
        Ac = lb.A.tocsr()
        if condense:
            c.S = _dense_schur(Ac, iD, iI, label)
        elif kind == "lumped":
            c.S = Ac[iD][:, iD]
        else:
            A_DI = Ac[iD][:, iI]
            c.factor = SaddleFactor([(label, Ac[iI][:, iI])])
            c.S = _matrix_free_schur(Ac[iD][:, iD], A_DI, A_DI.T.tocsr(), c.factor)
        classes.append(c)
    return InterfaceBddc(jump.jump_scaled.T.tocsr(), jump.jump_scaled, classes, CoarseProblem(np.zeros((0, 0))))


@dataclass
class BlockPreconditioner:
    """Concatenation of the three segment preconditioners."""

    xi: InterfaceBddc | None
    pressure: InterfaceBddc | None
    multiplier: InterfaceBddc
    segments: tuple[int, int, int]

    def apply(self, r: np.ndarray) -> np.ndarray:
        n_xi, n_p, n_lam = self.segments
        if r.size != n_xi + n_p + n_lam:
            raise InternalError("preconditioner applied to a vector of the wrong size")
        parts = r[:n_xi], r[n_xi : n_xi + n_p], r[n_xi + n_p :]
        blocks = (self.xi, self.pressure, self.multiplier)
        return np.concatenate([b.apply(x) for b, x in zip(blocks, parts) if b is not None])


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
