"""Block diagonal preconditioner for the reduced interface operator.

Three independent blocks, one per interface segment:

* total pressure and pressure traces: one balancing (BDDC) construction,
  ``_bddc``, keyed by the field.  It takes the local Schur complements of
  the field's diagonal block (mass matrices weighted by the subdomain's
  ratio of first Lame parameter to shear modulus for xi, flow matrices for
  p) and eliminates broken dual values and a shared coarse primal block
  exactly.  Total pressure has no primal dofs, so its block is the scaled
  sum of the inverted local Schur complements;
* multipliers: scaled jumps through either the local elastic Dirichlet
  Schur complement or its lumped stiffness shortcut.

Every block takes its congruence classes from the input key of
``mesh_fem`` (``BlockSystem.classes``) and is one ``InterfaceBddc``: its
segment's scaled ``decomposition.Transfer``, one
``reduced_system.PartiallyAssembled`` (one local map per class, applied to
all members at once, and the coarse problem it builds), and the transfer
transposed.
Every map is one dense matrix, so each application is one product per
class and no triangular solve: for xi and p, [S_dd^-1; X^T], the inverse
of the dual Schur block over the primal coupling X = S_dd^-1 S_dP that
also gives the coarse matrix; for λ (no coarse problem) the dense
Dirichlet Schur complement, or the lumped A_DD.  One helper,
``class_schurs``, gives every class of the three blocks its Schur
complement.  A class whose sides differ from an earlier one's only where
that one has interface sides, by Dirichlet sides or, in a field without
edge averages, free ones, derives its Schur complement from that one's:
it drops the rows on its Dirichlet sides and eliminates those on its free
sides (the rules of ``reduced_system.class_sources``, ``eliminable_rows``
and ``derive_schur``, which the torn condensation shares); any other is
formed by ``_dense_schur``:
through a dense factor of the eliminated block when it is small, else
through one sparse LU of the whole block with the kept unknowns ordered
last and the eliminated ones in nested-dissection order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .decomposition import (
    PRESSURE_LIKE,
    DofClassification,
    InternalError,
    Transfer,
    broken_columns,
    split_segments,
)
from .mesh_fem import FIELD_BLOCK, BlockSystem, ConfigurationError
from .reduced_system import (
    _DENSE_FACTOR_CUTOFF,
    LocalClass,
    PartiallyAssembled,
    PatchKeys,
    SaddleFactor,
    class_sources,
    derive_schur,
    eliminable_rows,
    primal_coupling,
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


def class_schurs(
    system: BlockSystem, cls: DofClassification, fld: str, kept: tuple[int, ...], label: str,
    scale: np.ndarray | None = None,
) -> tuple[list[np.ndarray], int]:
    """The dense Schur complement of every congruence class of field
    ``fld``'s local block (``FIELD_BLOCK``), in ``BlockSystem.classes``
    order, and how many of them were formed.

    Each representative keeps its dofs of the roles ``kept``
    (``FieldSplit.role``: 1 dual, 2 primal), role by role, and eliminates
    its interior ones.  Only a class that forms its S reads its matrix, the
    representative's local block (``StackedBlocks.block``), times
    ``scale[r]`` when a scale per subdomain is given.  A class derives its
    S from the S of its source (``class_sources`` over ``fld``): it has the
    same material and change of basis, and its dofs are the source's less
    those on its Dirichlet sides, so its block is the source's restricted
    to them.  It eliminates the source's eliminated dofs and those of the
    source's kept dofs that it holds as eliminated dofs of its own, on its
    free sides (``eliminable_rows``), and keeps the rest of its own; by the
    quotient property its S is the source's with those rows eliminated and
    the source's other rows, on its Dirichlet sides, dropped
    (``derive_schur``).  A class with no source is formed by
    ``_dense_schur``.  Dofs are matched by their place in the reference
    patch (``StackedBlocks.patch``); a kept dof of r that its source c does
    not keep, or eliminated dofs that are not c's and those rows, is an
    ``InternalError`` naming r.
    """
    groups = system.classes(FIELD_BLOCK[fld])
    space, st = system.spaces.fields[fld], system.stacked
    out: list[np.ndarray] = [np.zeros((0, 0))] * len(groups)
    seen: dict[int, tuple[PatchKeys, np.ndarray]] = {}  # source class: patch keys of its kept and eliminated dofs
    for i, src in class_sources(system, cls, groups, FIELD_BLOCK[fld], (fld,)):
        r = groups[i][0]
        dofs = st.local_dofs(r, (fld,))[fld]
        role = cls.splits[fld].role[dofs]
        gamma, inner = np.concatenate([np.flatnonzero(role == k) for k in kept]), np.flatnonzero(role == 0)
        name = f"{label} interior block of subdomain {r}"
        keys = st.patch[fld][st.off[fld][r] : st.off[fld][r + 1]]
        if src is None:
            M = st.block(FIELD_BLOCK[fld], r)
            M = M if scale is None else float(scale[r]) * M
            out[i] = _dense_schur(M, gamma, inner, space.lattice(dofs[inner]), name)
            seen[i] = PatchKeys(keys[gamma]), np.sort(keys[inner])
            continue
        c = groups[src][0]
        rows, eliminated = seen[src]
        out[i], E, _ = derive_schur(name, c, out[src], rows, keys[gamma], eliminable_rows(rows, keys[inner]))
        if not np.array_equal(np.sort(np.concatenate([eliminated, rows.keys[E]])), np.sort(keys[inner])):
            raise InternalError(f"{name}: its eliminated dofs are not those of the class of subdomain {c}")
    return out, len(seen)


@dataclass(kw_only=True)
class InterfaceBddc(PartiallyAssembled):
    """Balancing preconditioner on one interface segment: the inverse
    partially assembled Schur complement between the segment's scaled
    ``Transfer`` (``inject_scaled``) and its transpose.

    The partially assembled Schur complement is never formed; its inverse
    is applied through one dense local map per congruence class, the
    inverted dual Schur block with its primal coupling, and one banded
    coarse solve.  With no primal unknowns it is the scaled sum of the
    local maps: inverted Schur complements for xi, the elastic Dirichlet
    maps for λ.  Its ``sources`` are the Schur complements ``class_schurs``
    formed; the other classes' are derived from them.
    """

    inject_scaled: sp.csr_matrix  # assembled segment -> partially assembled
    inject_scaled_T: sp.csr_matrix = field(init=False, repr=False)

    def __post_init__(self):
        super().__post_init__()
        self.inject_scaled_T = self.inject_scaled.T.tocsr()

    def apply(self, r: np.ndarray) -> np.ndarray:
        return self.inject_scaled_T @ self.solve(self.inject_scaled @ r)


def _bddc(system: BlockSystem, cls: DofClassification, fld: str, inject_scaled: sp.csr_matrix) -> InterfaceBddc:
    """The balancing preconditioner of pressure-like field ``fld``.

    Each class's local block is the field's diagonal block
    (``FIELD_BLOCK``), for xi weighted by the subdomain's ratio of first
    Lame parameter to shear modulus, with its dual, then primal interface
    dofs kept and its interior eliminated (``class_schurs``).  One dense
    map per class: its dual Schur block is factored and probed, solved for
    the identity and for the primal coupling X, and dropped; X also adds
    the class's part of the coarse matrix.  A member's dual unknowns are
    its slice of the field's broken dual layout, its primal unknowns the
    places of its slice of the broken primal rows among the primal dofs."""
    split, mats, label = cls.splits[fld], system.materials, PRESSURE_LIKE[fld]
    rows = split.primal_rows  # their coarse unknowns in broken order, and each subdomain's start
    coarse_of = np.searchsorted(split.primal, rows.dof)
    primal_offset = rows.offsets(cls.n_subdomains)
    coarse = []  # each class's primal columns and coarse contribution
    groups = system.classes(FIELD_BLOCK[fld])
    schurs, sources = class_schurs(system, cls, fld, (1, 2), label, mats.lam / mats.mu if fld == "xi" else None)
    classes: list[LocalClass] = []
    for members, S in zip(groups, schurs):
        idx, cols = broken_columns(split.dual_offset, members), coarse_of[broken_columns(primal_offset, members)]
        nd = idx.shape[0]
        factor = SaddleFactor(f"{label} block of subdomain {members[0]}", S[:nd, :nd])
        X, F = primal_coupling(factor, S[:nd, nd:], S[nd:, nd:])
        coarse.append((cols, F))
        classes.append(LocalClass(idx=idx, primal=cols, X=X, S=np.vstack([factor.solve(np.eye(nd)), X.T])))
    return InterfaceBddc.assemble(classes, split.primal.size, coarse, sources, inject_scaled=inject_scaled)


def build_xi_solver(system: BlockSystem, cls: DofClassification, restrictions: dict[str, Transfer]) -> InterfaceBddc:
    return _bddc(system, cls, "xi", restrictions["xi"].scaled)


def build_p_bddc(system: BlockSystem, cls: DofClassification, restrictions: dict[str, Transfer]) -> InterfaceBddc:
    return _bddc(system, cls, "p", restrictions["p"].scaled)


def build_lambda_solver(
    system: BlockSystem, cls: DofClassification, jump: Transfer, kind: str
) -> InterfaceBddc:
    """Scaled jumps through each class's local elastic map on its broken
    dual displacements, with no coarse problem: the dense Dirichlet Schur
    complement (``class_schurs``) or the lumped A_DD."""
    if kind not in ("dirichlet", "lumped"):
        raise ConfigurationError(f"unknown multiplier preconditioner {kind!r}")

    st, groups = system.stacked, system.classes("A")
    if kind == "dirichlet":
        schurs, sources = class_schurs(system, cls, "u", (1,), "elastic")
    else:
        dual = [np.flatnonzero(cls.u.role[st.local_dofs(m[0], ("u",))["u"]] == 1) for m in groups]
        schurs, sources = [st.block("A", m[0])[iD][:, iD] for m, iD in zip(groups, dual)], 0
    classes = [LocalClass(idx=broken_columns(cls.u.dual_offset, members),
                          primal=np.zeros((0, len(members)), dtype=np.int64), S=S)
               for members, S in zip(groups, schurs)]
    return InterfaceBddc.assemble(classes, 0, [], sources, inject_scaled=jump.scaled)


@dataclass
class BlockPreconditioner:
    """Concatenation of the three segment preconditioners."""

    xi: InterfaceBddc | None
    pressure: InterfaceBddc | None
    multiplier: InterfaceBddc
    segments: tuple[int, int, int]

    def apply(self, r: np.ndarray) -> np.ndarray:
        if r.size != sum(self.segments):
            raise InternalError("preconditioner applied to a vector of the wrong size")
        blocks = (self.xi, self.pressure, self.multiplier)
        return np.concatenate([b.apply(x) for b, x in zip(blocks, split_segments(r, self.segments)) if b is not None])


def build_preconditioner(
    system: BlockSystem,
    cls: DofClassification,
    jump: Transfer,
    restrictions: dict[str, Transfer],
    multiplier_kind: str = "dirichlet",
) -> BlockPreconditioner:
    n_xi, n_p, _ = cls.segments
    xi = build_xi_solver(system, cls, restrictions) if n_xi else None
    bddc = build_p_bddc(system, cls, restrictions) if n_p else None
    lam = build_lambda_solver(system, cls, jump, multiplier_kind)
    return BlockPreconditioner(xi=xi, pressure=bddc, multiplier=lam, segments=cls.segments)
