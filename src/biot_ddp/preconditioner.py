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
Every map is one dense matrix, so each application is one product per
class and no triangular solve: for xi and p, [S_dd^-1; X^T], the inverse
of the dual Schur block over the primal coupling X = S_dd^-1 S_dP that
also gives the coarse matrix; for λ (no coarse problem) the dense
Dirichlet Schur complement, or the lumped A_DD.  One kernel,
``_dense_schur``, forms every Schur complement of the three blocks:
through a dense factor of the eliminated block when it is small, else
through one sparse LU of the whole block with the kept unknowns ordered
last and the eliminated ones in nested-dissection order.
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
    _DENSE_FACTOR_CUTOFF,
    CoarseProblem,
    LocalClass,
    SaddleFactor,
    primal_coupling,
    scatter_index,
    solve_partially_assembled,
    trailing_schur,
)

_ND_LEAF = 4  # lattice boxes of at most this many points are not cut further


def nested_dissection(ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
    """Nested-dissection order of points on a grid (George 1973): each box
    of points is cut by the grid line across the middle of its longer
    side, and the points on that line come after both halves.

    All boxes of one level are cut at once.  Each level appends one base-3
    digit to every point's key: 0 or 1 for the half it falls in, 2 for a
    point on the cut or in a box no longer cut.  A stable sort of the keys
    then lists each box's halves before its cut.  Grid neighbours differ by
    at most one in each coordinate, so a cut separates its halves.
    """
    pos = np.stack([ix, iy])
    n = pos.shape[1]
    at = np.arange(n)
    lo = np.repeat(pos.min(axis=1, keepdims=True), n, axis=1)
    hi = np.repeat(pos.max(axis=1, keepdims=True), n, axis=1)
    key = np.zeros(n, dtype=np.int64)
    cut = np.ones(n, dtype=bool)
    while True:
        cut &= np.prod(hi - lo + 1, axis=0) > _ND_LEAF
        if not cut.any():
            return np.argsort(key, kind="stable")
        axis = (hi[1] - lo[1] > hi[0] - lo[0]).astype(np.intp)
        mid = (lo[axis, at] + hi[axis, at]) // 2
        c = pos[axis, at]
        digit = np.where(cut & (c != mid), (c > mid).astype(np.int64), 2)
        key = 3 * key + digit
        cut &= digit != 2
        left, right = cut & (digit == 0), cut & (digit == 1)
        hi[axis[left], at[left]] = mid[left] - 1
        lo[axis[right], at[right]] = mid[right] + 1


def _dense_schur(
    M: sp.spmatrix, gamma: np.ndarray, inner: np.ndarray, lattice: tuple[np.ndarray, np.ndarray], label: str
) -> np.ndarray:
    """Boundary block minus the interior-eliminated coupling, densely:
    M_gg - M_gi M_ii^{-1} M_ig for the kept positions ``gamma`` and the
    eliminated ``inner``, whose grid coordinates are ``lattice``.

    Below the dense factor cutoff M_ii is factored densely and solved for
    the coupling columns.  At or above it, M is ordered as inner in
    nested-dissection order, then gamma, and factored once with the kept
    unknowns last (``trailing_schur``).
    """
    if not gamma.size:
        return np.zeros((0, 0))
    if inner.size >= _DENSE_FACTOR_CUTOFF:
        order = np.concatenate([inner[nested_dissection(*lattice)], gamma])
        return trailing_schur(label, M.tocsr()[order][:, order], gamma.size)
    D = M.toarray()
    S = D[np.ix_(gamma, gamma)]
    if inner.size:
        Mgi = D[np.ix_(gamma, inner)]
        S -= Mgi @ SaddleFactor(label, D[np.ix_(inner, inner)]).solve(Mgi.T)
    return S


@dataclass
class InterfaceBddc:
    """Balancing preconditioner on a pressure-like interface trace.

    The partially assembled Schur complement is never formed; its inverse
    is applied through one dense local map per congruence class, the
    inverted dual Schur block with its primal coupling, and one dense
    coarse solve.  With no primal unknowns it is the scaled sum of the
    local maps: inverted Schur complements for xi, the elastic Dirichlet
    maps for λ.
    """

    inject_scaled: sp.csr_matrix  # assembled trace -> partially assembled
    inject_scaled_T: sp.csr_matrix
    classes: list[LocalClass]
    coarse: CoarseProblem
    at: np.ndarray  # scatter_index of the classes

    def apply(self, r: np.ndarray) -> np.ndarray:
        return self.inject_scaled_T @ solve_partially_assembled(self.classes, self.coarse, self.inject_scaled @ r, self.at)


def _bddc(
    inject_scaled: sp.csr_matrix, groups: list[np.ndarray], block, dual: dict, primal: dict, primal_dofs: np.ndarray,
    label: str,
) -> InterfaceBddc:
    """One dense map per class of ``groups``: its dual Schur block is
    factored and probed, solved for the identity and for the primal
    coupling X, and dropped; X also adds the class's part of the coarse
    matrix.  ``block(r)`` gives representative r's matrix, the local
    positions of its dual, then primal interface unknowns and of its
    interior ones, and the grid coordinates of the interior ones.
    Subdomain s's dual dofs ``dual[s]`` take the next positions of the
    partially assembled vector, its primal dofs ``primal[s]`` their places
    in ``primal_dofs``."""
    off = np.cumsum([0, *(dual[s].size for s in range(len(dual)))])
    F = np.zeros((primal_dofs.size, primal_dofs.size))
    classes: list[LocalClass] = []
    for members in groups:
        r, nd = members[0], dual[members[0]].size
        S = _dense_schur(*block(r), f"{label} interior block of subdomain {r}")
        factor = SaddleFactor(f"{label} block of subdomain {r}", S[:nd, :nd])
        cols = np.column_stack([np.searchsorted(primal_dofs, primal[s]) for s in members])
        X = primal_coupling(F, factor, S[:nd, nd:], S[nd:, nd:], cols)
        classes.append(LocalClass(
            idx=np.column_stack([np.arange(off[s], off[s + 1]) for s in members]), primal=cols, X=X,
            S=np.vstack([factor.solve(np.eye(nd)), X.T]),
        ))
    return InterfaceBddc(
        inject_scaled=inject_scaled,
        inject_scaled_T=inject_scaled.T.tocsr(),
        classes=classes,
        coarse=CoarseProblem(F),
        at=scatter_index(classes),
    )


def build_xi_solver(system: BlockSystem, cls: DofClassification, restrictions: RestrictionSet) -> InterfaceBddc:
    """Total pressure: no primal unknowns, local mass matrices weighted by
    the subdomain's ratio of first Lame parameter to shear modulus."""
    mats = system.materials

    def block(r):
        lb = system.stacked.local_view(r)
        inner = lb.xi_pos(cls.xi_interior[r])
        return (float(mats.lam[r] / mats.mu[r]) * lb.C, lb.xi_pos(cls.xi_sub_interface[r]), inner,
                system.spaces.lattice("xi", lb.xidofs[inner]))

    no_primal = np.zeros(0, dtype=np.int64)
    return _bddc(restrictions.xi_break_scaled, system.classes("C"), block, cls.xi_sub_interface,
                 dict.fromkeys(cls.xi_sub_interface, no_primal), no_primal, "total pressure")


def build_p_bddc(system: BlockSystem, cls: DofClassification, restrictions: RestrictionSet) -> InterfaceBddc:
    def block(r):
        lb = system.stacked.local_view(r)
        inner = lb.p_pos(cls.p_interior[r])
        return (lb.E, lb.p_pos(np.concatenate([cls.p_sub_dual[r], cls.p_sub_primal[r]])), inner,
                system.spaces.lattice("p", lb.pdofs[inner]))

    return _bddc(restrictions.p_inject_scaled, system.classes("E"), block, cls.p_sub_dual, cls.p_sub_primal,
                 cls.p_primal, "pressure")


def build_lambda_solver(
    system: BlockSystem, cls: DofClassification, jump: JumpOperator, kind: str
) -> InterfaceBddc:
    """Scaled jumps through each class's local elastic map on its broken
    dual displacements, with no coarse problem: the dense Dirichlet Schur
    complement or the lumped A_DD."""
    if kind not in ("dirichlet", "lumped"):
        raise ConfigurationError(f"unknown multiplier preconditioner {kind!r}")
    lay = cls.layout
    classes = []
    for members in system.classes("A"):
        r = members[0]
        lb = system.stacked.local_view(r)
        iD, iI = lb.u_pos(cls.u_sub_dual[r]), lb.u_pos(cls.u_interior[r])
        Ac = lb.A.tocsr()
        if kind == "lumped":
            S = Ac[iD][:, iD]
        else:
            S = _dense_schur(Ac, iD, iI, system.spaces.lattice("u", lb.udofs[iI]),
                             f"elastic interior block of subdomain {r}")
        idx = np.column_stack([np.arange(lay.dual_offset[s], lay.dual_offset[s + 1]) for s in members])
        classes.append(LocalClass(idx=idx, primal=np.zeros((0, len(members)), dtype=np.int64), S=S))
    return InterfaceBddc(
        jump.jump_scaled.T.tocsr(), jump.jump_scaled, classes, CoarseProblem(np.zeros((0, 0))), scatter_index(classes)
    )


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
