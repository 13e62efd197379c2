"""Structured triangulations and block assembly for the three-field
displacement / total-pressure / pressure consolidation system.

The unit square is meshed with a fixed bottom-left to top-right cell
diagonal so repeated runs produce identical matrices.  Displacements live
on a once-refined copy of the base grid (the P1-iso-P2 pairing), total
pressure is either nodal P1 on the base grid or elementwise constant, and
pressure is nodal P1 on the base grid.  Assembly keeps every subdomain's
local blocks alongside the assembled ones; the substructuring machinery
needs both.

Subdomains that touch the same sides of the square and carry the same
material are translates of one another, so assembly stores local blocks
and loads only for one representative per such congruence class, cut out
of one reference patch per material; a member reaches them through its
own dofs.  Every subdomain's local blocks and loads are bitwise equal to
its own build.  The key,
restricted to the material parameters a block depends on
(``BLOCK_PARAMS``), also decides which subdomains share a factorization of
that block (``BlockSystem.classes``).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
import scipy.sparse as sp

SIDES = ("left", "right", "bottom", "top")

# exact P1 mass matrix on a triangle, divided by the area
_MASS_LOCAL = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


class ConfigurationError(ValueError):
    """Raised when a requested discretization is inconsistent."""


class MaterialDomainError(ValueError):
    """Raised when material parameters leave the admissible range."""


class InternalError(RuntimeError):
    """Raised when a build-time self check fails."""


# ---------------------------------------------------------------------------
# meshes


@dataclass
class StructuredMesh:
    """Uniform triangulation of the unit square.

    Cells are split along the bottom-left to top-right diagonal; triangle
    2*c is the lower-right half of cell c and 2*c+1 the upper-left half.
    Node ids run x-fastest: id = iy*(nx+1) + ix, node (ix, iy) sitting at
    (ix / nx, iy / ny), or (ix / cells[0], iy / cells[1]) for a corner
    patch of a finer mesh (``_patch_spaces``).
    """

    nx: int
    ny: int
    triangles: np.ndarray  # (n_tri, 3), positively oriented
    refined_mesh: "StructuredMesh | None" = None
    cells: tuple[int, int] | None = None  # cells across the unit square; None: (nx, ny)

    @property
    def n_nodes(self) -> int:
        return (self.nx + 1) * (self.ny + 1)

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    def node_ix(self, nodes: np.ndarray) -> np.ndarray:
        return np.asarray(nodes) % (self.nx + 1)

    def node_iy(self, nodes: np.ndarray) -> np.ndarray:
        return np.asarray(nodes) // (self.nx + 1)

    def boundary_node_mask(self, sides: Iterable[str]) -> np.ndarray:
        """Boolean mask over nodes lying on any of the given sides."""
        ids = np.arange(self.n_nodes)
        ix, iy = self.node_ix(ids), self.node_iy(ids)
        mask = np.zeros(self.n_nodes, dtype=bool)
        for side in sides:
            if side == "left":
                mask |= ix == 0
            elif side == "right":
                mask |= ix == self.nx
            elif side == "bottom":
                mask |= iy == 0
            elif side == "top":
                mask |= iy == self.ny
            else:
                raise ConfigurationError(f"unknown side {side!r}")
        return mask


def subdomain_sides(grid: tuple[int, int]) -> np.ndarray:
    """Which sides of the unit square each subdomain of the grid touches:
    an (n_sub, 4) boolean table, its columns in ``SIDES`` order."""
    gx, gy = grid
    s = np.arange(gx * gy)
    sx, sy = s % gx, s // gx
    return np.column_stack([sx == 0, sx == gx - 1, sy == 0, sy == gy - 1])


def _grid_mesh(nx: int, ny: int) -> StructuredMesh:
    ix, iy = np.meshgrid(np.arange(nx), np.arange(ny))
    ix, iy = ix.ravel(), iy.ravel()
    bl = iy * (nx + 1) + ix
    br = bl + 1
    tl = bl + (nx + 1)
    tr = tl + 1
    tri = np.empty((2 * nx * ny, 3), dtype=np.int64)
    tri[0::2] = np.column_stack([bl, br, tr])  # below the diagonal
    tri[1::2] = np.column_stack([bl, tr, tl])  # above the diagonal
    return StructuredMesh(nx=nx, ny=ny, triangles=tri)


def build_mesh(nx: int, subdomain_grid: tuple[int, int]) -> StructuredMesh:
    """Base triangulation plus its uniform refinement for the displacement
    grid: ``nx`` cells in x, and in y as many cells per subdomain as in x."""
    gx, gy = subdomain_grid
    if nx < 1:
        raise ConfigurationError(f"mesh size must be positive, got nx={nx}")
    if gx < 1 or gy < 1:
        raise ConfigurationError(f"subdomain grid must be positive, got {subdomain_grid}")
    if nx % gx != 0:
        raise ConfigurationError(f"nx={nx} is not divisible by subdomain count Nx={gx}")
    ny = nx // gx * gy
    mesh = _grid_mesh(nx, ny)
    mesh.refined_mesh = _grid_mesh(2 * nx, 2 * ny)
    return mesh


def p1_geometry(mesh: StructuredMesh, triangles: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Areas and P1 shape-function gradients (b = d/dx, c = d/dy) of the
    given triangles (rows of vertex ids) of the mesh, from the integer
    offsets of their vertices on the node lattice times the cell size 1/nx
    by 1/ny: every triangle of one shape gets the same bits wherever it
    sits."""
    ix, iy = mesh.node_ix(triangles), mesh.node_iy(triangles)
    cx, cy = mesh.cells or (mesh.nx, mesh.ny)
    hx, hy = 1.0 / cx, 1.0 / cy
    cross = (ix[:, 1] - ix[:, 0]) * (iy[:, 2] - iy[:, 0]) - (iy[:, 1] - iy[:, 0]) * (ix[:, 2] - ix[:, 0])
    two_a = (cross * (hx * hy))[:, None]
    # b_k and c_k from the vertices k + 1 and k + 2
    b = (np.roll(iy, -1, axis=1) - np.roll(iy, -2, axis=1)) * hy / two_a
    c = (np.roll(ix, -2, axis=1) - np.roll(ix, -1, axis=1)) * hx / two_a
    return 0.5 * two_a[:, 0], b, c


# ---------------------------------------------------------------------------
# boundary conditions and spaces


@dataclass(frozen=True)
class BoundarySpec:
    """Zero-Dirichlet side lists for displacement and pressure.

    Total pressure never carries boundary conditions.  Homogeneous data is
    assumed throughout, so elimination is symmetric row/column dropping.
    """

    displacement_dirichlet: tuple[str, ...]
    pressure_dirichlet: tuple[str, ...]

    @staticmethod
    def neumann_left() -> "BoundarySpec":
        sides = ("right", "bottom", "top")
        return BoundarySpec(sides, sides)

    @staticmethod
    def all_dirichlet() -> "BoundarySpec":
        return BoundarySpec(SIDES, SIDES)


@dataclass
class FieldSpace:
    """One field's dof numbering: dof ``k * i + c`` is component c at node
    ``free[i]`` of ``mesh``.  ``dof_of_node`` maps a node to its first dof,
    or -1 where the node is not free."""

    mesh: StructuredMesh
    free: np.ndarray
    k: int
    dof_of_node: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.dof_of_node = np.full(self.mesh.n_nodes, -1, dtype=np.int64)
        self.dof_of_node[self.free] = self.k * np.arange(self.free.size)

    @property
    def n(self) -> int:
        return self.k * self.free.size

    def nodes(self, dofs: np.ndarray) -> np.ndarray:
        return self.free[dofs // self.k]

    def lattice(self, dofs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Grid coordinates (ix, iy) of the node of each of ``dofs``."""
        nodes = self.nodes(dofs)
        return self.mesh.node_ix(nodes), self.mesh.node_iy(nodes)

    def node_dofs(self, nodes: np.ndarray) -> np.ndarray:
        """The k dofs at each of ``nodes`` (any shape), interleaved along the
        last axis, -1 where a node is not free."""
        first = self.dof_of_node[nodes][..., None]
        d = np.where(first >= 0, first + np.arange(self.k), -1)
        return d.reshape(*d.shape[:-2], d.shape[-2] * self.k)


@dataclass
class FeSpaceSet:
    """The dof numbering of the three fields, ``fields`` "u", "xi" and "p"
    in that order (the order of the unknowns of the full system).

    Displacement: vector P1 on the refined mesh, two dofs per free node.
    Total pressure: P1 on the base mesh ("p1", every node, no boundary
    conditions) or piecewise constants ("p0": two dofs at each cell's
    lower-left node, dof t being base triangle t).  Pressure: P1 on the
    base mesh with Dirichlet nodes eliminated.
    """

    mesh: StructuredMesh
    total_pressure_variant: str
    bc: BoundarySpec
    fields: dict[str, FieldSpace]

    @property
    def n_dofs(self) -> dict[str, int]:
        return {fld: space.n for fld, space in self.fields.items()}

    @property
    def n_total(self) -> int:
        return sum(self.n_dofs.values())


def build_spaces(mesh: StructuredMesh, total_pressure_variant: str, bc: BoundarySpec) -> FeSpaceSet:
    """Free-dof numbering of the three fields under the boundary conditions
    ``bc``, which need a Dirichlet side for displacement and for pressure
    (an unknown side is rejected by ``boundary_node_mask``)."""
    for what, sides in (("displacement", bc.displacement_dirichlet), ("pressure", bc.pressure_dirichlet)):
        if not sides:
            raise ConfigurationError(f"{what} needs a nonempty Dirichlet part")
    if total_pressure_variant not in ("p1", "p0"):
        raise ConfigurationError(f"unknown total pressure variant {total_pressure_variant!r}")
    refined = mesh.refined_mesh
    if refined is None:
        raise ConfigurationError("mesh is missing its refinement; use build_mesh")
    return FeSpaceSet(mesh=mesh, total_pressure_variant=total_pressure_variant, bc=bc, fields={
        "u": FieldSpace(refined, np.flatnonzero(~refined.boundary_node_mask(bc.displacement_dirichlet)), 2),
        # p0: at each cell's lower-left node, the first vertex of both its triangles
        "xi": FieldSpace(mesh, np.arange(mesh.n_nodes), 1) if total_pressure_variant == "p1"
        else FieldSpace(mesh, mesh.triangles[0::2, 0], 2),
        "p": FieldSpace(mesh, np.flatnonzero(~mesh.boundary_node_mask(bc.pressure_dirichlet)), 1),
    })


# ---------------------------------------------------------------------------
# materials


def derive_lame(E: float, nu: float) -> tuple[float, float]:
    """Lame parameters from Young's modulus and Poisson ratio."""
    if not 0.0 < E < np.inf:
        raise MaterialDomainError(f"Young's modulus must be positive and finite, got {E}")
    if not 0.0 < nu < 0.5:
        raise MaterialDomainError(f"Poisson ratio must lie in (0, 0.5), got {nu}")
    lam = E * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    mu = E / (2.0 * (1.0 + nu))
    # a subnormal or overflowed parameter would make the mass block 1/lambda
    # blow up in assembly
    for name, v in (("first Lame parameter", lam), ("shear modulus", mu)):
        if not np.finfo(float).tiny <= v < np.inf:
            raise MaterialDomainError(f"{name} {v} from E={E}, nu={nu} is not a normal positive float")
    return lam, mu


@dataclass
class MaterialField:
    """Per-subdomain constant coefficients and the derived Lame pair."""

    grid: tuple[int, int]
    E: np.ndarray
    nu: np.ndarray
    alpha: np.ndarray
    kappa: np.ndarray
    lam: np.ndarray = field(init=False)
    mu: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        n = self.grid[0] * self.grid[1]
        for name in ("E", "nu", "alpha", "kappa"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (n,):
                raise ConfigurationError(f"{name} must have one value per subdomain")
            setattr(self, name, arr)
        if not np.all((self.kappa > 0.0) & (self.kappa < np.inf)):
            raise MaterialDomainError("hydraulic conductivity must be positive and finite")
        if not np.all((self.alpha > 0.0) & (self.alpha < np.inf)):
            raise MaterialDomainError("coupling coefficient must be positive and finite")
        pairs = [derive_lame(e, v) for e, v in zip(self.E, self.nu)]
        self.lam = np.array([p[0] for p in pairs])
        self.mu = np.array([p[1] for p in pairs])

    @staticmethod
    def uniform(grid: tuple[int, int], E: float, nu: float, alpha: float, kappa: float) -> "MaterialField":
        n = grid[0] * grid[1]
        return MaterialField(grid, np.full(n, E), np.full(n, nu), np.full(n, alpha), np.full(n, kappa))

    @staticmethod
    def checkerboard(
        grid: tuple[int, int],
        E: float,
        nu: float,
        alpha: float,
        kappa: float,
        black: dict[str, float],
    ) -> "MaterialField":
        """Checkerboard layout; subdomain (i, j) is black when i + j is even."""
        gx, gy = grid
        if gx < 2 or gy < 2:
            raise ConfigurationError("checkerboard pattern needs at least a 2x2 subdomain grid")
        unknown = set(black) - {"E", "nu", "alpha", "kappa"}
        if unknown:
            raise ConfigurationError(f"unknown black-cell overrides: {sorted(unknown)}")
        sx, sy = np.meshgrid(np.arange(gx), np.arange(gy))
        is_black = ((sx + sy) % 2 == 0).ravel()
        vals = {"E": E, "nu": nu, "alpha": alpha, "kappa": kappa}
        arrays = {}
        for name, white_val in vals.items():
            arr = np.full(gx * gy, white_val, dtype=float)
            if name in black:
                arr[is_black] = black[name]
            arrays[name] = arr
        return MaterialField(grid, arrays["E"], arrays["nu"], arrays["alpha"], arrays["kappa"])


@dataclass(frozen=True)
class LoadSpec:
    """Right-hand side data: constant body force and constant fluid source."""

    body_force: tuple[float, float] = (0.0, -1.0)
    source: float = 1.0


# ---------------------------------------------------------------------------
# assembled system


# the five blocks with the fields of their rows and columns
BLOCK_FIELDS = (("A", "u", "u"), ("B", "xi", "u"), ("C", "xi", "xi"), ("D", "p", "xi"), ("E", "p", "p"))
_BLOCK_SPACES = {name: (r, c) for name, r, c in BLOCK_FIELDS}
# the block on each field's diagonal, whose rows span the field's local dofs
FIELD_BLOCK = {r: name for name, r, c in BLOCK_FIELDS if r == c}


@dataclass
class StackedBlocks:
    """Every subdomain's local blocks, stored once per congruence class.

    Subdomain s owns positions ``off["u"][s]:off["u"][s + 1]`` of the
    stacked displacement numbering (likewise for "xi" and "p"), and
    ``dofs["u"]`` holds each subdomain's sorted global dof ids in turn.
    ``rep[s]`` is the representative of subdomain s's congruence class,
    whose local blocks and loads subdomain s shares.  Only the
    representatives' are stored: each of A..E is one block-diagonal matrix
    whose diagonal block r is representative r's local block, and ``f`` and
    ``g`` are their stacked local loads, all over the offsets ``rep_off``, in
    which the members own empty ranges.  Every member's own build equals
    them bit for bit (``assemble_blocks``).  ``patch["u"]`` holds each
    stacked displacement position's place among the reference patch's dofs
    (likewise for "xi" and "p"): dofs that lie alike in their subdomains
    share it, so it matches dofs between classes.
    """

    dofs: dict[str, np.ndarray]
    patch: dict[str, np.ndarray]
    off: dict[str, np.ndarray]
    rep_off: dict[str, np.ndarray]
    A: sp.csr_matrix
    B: sp.csr_matrix
    C: sp.csr_matrix
    D: sp.csr_matrix
    E: sp.csr_matrix
    f: np.ndarray
    g: np.ndarray
    rep: np.ndarray

    @property
    def n_sub(self) -> int:
        return self.off["u"].size - 1

    def local_dofs(self, s: int, fields: Iterable[str] = ("u", "xi", "p")) -> dict[str, np.ndarray]:
        """Subdomain s's sorted global dofs of each of ``fields``."""
        return {fld: self.dofs[fld][self.off[fld][s] : self.off[fld][s + 1]] for fld in fields}

    def block(self, name: str, s: int) -> sp.csr_matrix:
        """Subdomain s's local block ``name``, its representative's, sharing
        data with the stored matrix (``diagonal_block``)."""
        r, c = _BLOCK_SPACES[name]
        return diagonal_block(getattr(self, name), self.rep_off[r], self.rep_off[c], self.rep[s])

    def entries(self, name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every subdomain's entries of block ``name`` as (global row, global
        column, value), in subdomain and then stored order: each
        representative's stored entries, gathered once for each member."""
        r, c = _BLOCK_SPACES[name]
        M = getattr(self, name)
        off = M.indptr[self.rep_off[r]]
        owner = np.repeat(np.arange(self.n_sub), np.diff(off))
        row = np.repeat(np.arange(M.shape[0]), np.diff(M.indptr)) - self.rep_off[r][owner]
        col = M.indices - self.rep_off[c][owner]
        at = block_positions(off, self.rep)
        sub = np.repeat(np.arange(self.n_sub), np.diff(off)[self.rep])
        return self.dofs[r][self.off[r][sub] + row[at]], self.dofs[c][self.off[c][sub] + col[at]], M.data[at]


def saddle_blocks(b) -> list[list[sp.csr_matrix]]:
    """The saddle layout [[A, B^T, 0], [B, -C, D^T], [0, D, -E]] of the
    blocks A..E of ``b`` (a ``BlockSystem`` or ``StackedBlocks``), rows and
    columns by field (u, xi, p), every block CSR, so that ``sp.bmat``
    stacks them without a sort."""
    n_u, n_p = b.A.shape[0], b.E.shape[0]
    return [[b.A, b.B.T.tocsr(), sp.csr_matrix((n_u, n_p))], [b.B, -b.C, b.D.T.tocsr()],
            [sp.csr_matrix((n_p, n_u)), b.D, -b.E]]


def diagonal_block(M: sp.csr_matrix, row_off: np.ndarray, col_off: np.ndarray, s: int) -> sp.csr_matrix:
    """Diagonal block s of a block-diagonal CSR matrix, sharing its data: a
    shallow copy of M with its arrays and shape swapped for the block's
    (SciPy's constructor would copy slices of M's arrays, and check them).
    M's cached format flags hold for every block.  Offsets outside M, or an
    entry of the block's rows outside its columns, are an ``InternalError``
    naming the block: unchecked, SciPy may read past the arrays."""
    (r0, r1), (c0, c1) = row_off[s : s + 2], col_off[s : s + 2]
    if not (0 <= r0 <= r1 <= M.shape[0] and 0 <= c0 <= c1 <= M.shape[1]):
        raise InternalError(f"diagonal block {s}: offsets outside the {M.shape} matrix")
    lo, hi = M.indptr[r0], M.indptr[r1]
    view = copy.copy(M)
    view.data, view.indices, view.indptr = M.data[lo:hi], M.indices[lo:hi] - int(c0), M.indptr[r0 : r1 + 1] - lo
    if hi > lo and not 0 <= view.indices.min() <= view.indices.max() < c1 - c0:
        raise InternalError(f"diagonal block {s}: an entry of its rows lies outside its columns")
    view._shape = (int(r1 - r0), int(c1 - c0))
    return view


def block_positions(off: np.ndarray, which: np.ndarray) -> np.ndarray:
    """Positions off[w] .. off[w + 1] - 1 of each block w in ``which``, in turn."""
    sizes = np.diff(off)[which]
    return np.repeat(off[:-1][which] - (np.cumsum(sizes) - sizes), sizes) + np.arange(sizes.sum())


@dataclass
class BlockSystem:
    """Assembled saddle blocks plus retained per-subdomain contributions.

    The full operator is  [[A, B^T, 0], [B, -C, D^T], [0, D, -E]]
    acting on (displacement, total pressure, pressure), with right-hand
    side (f, 0, g).  ``stacked`` holds every subdomain's blocks
    (``StackedBlocks.block``).  A global block is summed from every
    subdomain's entries (``StackedBlocks.entries``) on first use and kept
    in ``blocks``: the direct-solve check and the diagnostics read them,
    set-up does not.  SciPy sums them: a row's entries arrive in subdomain order, but an
    unstable sort by column precedes the sum, so a few on long rows are
    added in another order.
    """

    spaces: FeSpaceSet
    materials: MaterialField
    f: np.ndarray
    g: np.ndarray
    stacked: StackedBlocks
    blocks: dict[str, sp.csr_matrix] = field(default_factory=dict, init=False, repr=False)
    _classes: dict[tuple[str, ...], list[np.ndarray]] = field(default_factory=dict, init=False, repr=False)

    def _global(self, name: str) -> sp.csr_matrix:
        if name not in self.blocks:
            r, c = _BLOCK_SPACES[name]
            size = self.spaces.n_dofs
            rows, cols, vals = self.stacked.entries(name)
            self.blocks[name] = sp.coo_matrix((vals, (rows, cols)), shape=(size[r], size[c])).tocsr()
        return self.blocks[name]

    A = property(lambda self: self._global("A"))
    B = property(lambda self: self._global("B"))
    C = property(lambda self: self._global("C"))
    D = property(lambda self: self._global("D"))
    E = property(lambda self: self._global("E"))

    def classes(self, names: str) -> list[np.ndarray]:
        """Congruence classes of the local blocks ``names`` (of "ABCDE"; none
        keys on the sides touched alone): members in ascending order, so the
        representative first, classes in ascending order of representatives.
        Formed once per key (the material parameters of ``names``); every
        later call returns the same list, which callers must not change."""
        params = tuple(sorted({p for n in names for p in BLOCK_PARAMS[n]}))
        if params not in self._classes:
            rep = class_representatives(self.materials, params)
            order = np.argsort(rep, kind="stable")
            self._classes[params] = np.split(order, np.flatnonzero(np.diff(rep[order])) + 1)
        return self._classes[params]

    def full_matrix(self) -> sp.csr_matrix:
        """The complete indefinite block matrix (used by direct-solve checks)."""
        return sp.bmat(saddle_blocks(self), format="csr")

    def full_rhs(self) -> np.ndarray:
        return np.concatenate([self.f, np.zeros(self.spaces.n_dofs["xi"]), self.g])


@dataclass
class ElementTable:
    """Element contributions to one block: (nt, a) row dofs, (nt, b) column
    dofs (-1 where constrained) and (nt, a, b) values, elements in the
    order given.  A load has no column dofs and (nt, a) values."""

    rows: np.ndarray
    cols: np.ndarray | None
    vals: np.ndarray


# the material parameters each block depends on: A on mu, C on 1/lambda, D on
# alpha/lambda, E on kappa and alpha^2/lambda (lambda, mu from E, nu), B on none
BLOCK_PARAMS = {"A": ("E", "nu"), "B": (), "C": ("E", "nu"), "D": ("E", "nu", "alpha"), "E": ("E", "nu", "alpha", "kappa")}


def element_tables(
    fields: dict[str, FieldSpace],
    p0: bool,
    tri_b: np.ndarray,
    tri_r: np.ndarray,
    materials: Iterable[tuple[float, float, float, float]],
    load: LoadSpec,
) -> list[dict[str, ElementTable]]:
    """Element tables of the blocks "A".."E" and of the loads "f" and "g"
    over the base triangles ``tri_b`` and the refined triangles ``tri_r``
    (ids; the refined ones cover the base ones) under each of ``materials``
    (lambda, mu, alpha, kappa) in turn, with the dofs of ``fields`` (p0:
    piecewise constant total pressure).  Every value is formed elementwise
    from the lattice geometry (``p1_geometry``), so an element's values do
    not depend on where it sits, and each element matrix of A, C and E is
    bitwise symmetric.  What no material enters (the geometry, the dof
    tables, the B block and the loads) is formed once and shared by every
    material's tables."""
    u, xi, p = (fields[fld] for fld in ("u", "xi", "p"))
    mesh, refined = p.mesh, u.mesh
    tb, tr = mesh.triangles[tri_b], refined.triangles[tri_r]
    area_b, b_b, c_b = p1_geometry(mesh, tb)
    area_r, b_r, c_r = p1_geometry(refined, tr)
    n_r = tr.shape[0]

    def xi_dofs(t: np.ndarray) -> np.ndarray:
        # p0: dof t % 2 at the lower-left node of the cell of triangle t,
        # the first vertex of both its triangles
        return xi.dof_of_node[mesh.triangles[t, :1]] + t[:, None] % 2 if p0 else xi.node_dofs(mesh.triangles[t])

    udof, xidof, pdof = u.node_dofs(tr), xi_dofs(tri_b), p.node_dofs(tb)
    shared: dict[str, ElementTable] = {}

    # --- divergence coupling: refined displacement x base total pressure.
    # The parent triangle of each refined one and the barycentric weights of
    # its centroid there, in integer sixths of a base cell
    qx, qy = refined.node_ix(tr).sum(axis=1), refined.node_iy(tr).sum(axis=1)
    cellx, celly = qx // 6, qy // 6
    parent = 2 * (celly * mesh.nx + cellx) + (qy - 6 * celly > qx - 6 * cellx)
    div = np.empty((n_r, 6))
    div[:, 0::2] = b_r
    div[:, 1::2] = c_r
    if p0:
        vals = -(area_r[:, None] * div)[:, None, :]
    else:
        pt = mesh.triangles[parent]
        px, py = 6 * mesh.node_ix(pt), 6 * mesh.node_iy(pt)
        two_a = (px[:, 1] - px[:, 0]) * (py[:, 2] - py[:, 0]) - (py[:, 1] - py[:, 0]) * (px[:, 2] - px[:, 0])
        # weight k from the vertices a = k + 1 and b = k + 2
        ax, ay, bx, by = np.roll(px, -1, axis=1), np.roll(py, -1, axis=1), np.roll(px, -2, axis=1), np.roll(py, -2, axis=1)
        bary = ((ay - by) * (qx[:, None] - bx) + (bx - ax) * (qy[:, None] - by)) / two_a[:, None]
        vals = -(area_r[:, None, None] * bary[:, :, None] * div[:, None, :])
    shared["B"] = ElementTable(xi_dofs(parent), udof, vals)

    # --- loads
    fx, fy = load.body_force
    fvals = np.empty((n_r, 6))
    fvals[:, 0::2] = fx * area_r[:, None] / 3.0
    fvals[:, 1::2] = fy * area_r[:, None] / 3.0
    shared["f"] = ElementTable(udof, None, fvals)
    shared["g"] = ElementTable(pdof, None, load.source * area_b[:, None] / 3.0 * np.ones((1, 3)))

    # gradient products of the elastic and pressure blocks, and the masses
    bb, cc, cb = (g[:, :, None] * h[:, None, :] for g, h in ((b_r, b_r), (c_r, c_r), (c_r, b_r)))
    grad_b = b_b[:, :, None] * b_b[:, None, :] + c_b[:, :, None] * c_b[:, None, :]
    mass = (area_b / 3.0)[:, None] if p0 else area_b[:, None, None] * _MASS_LOCAL
    out = []
    for lam, mu, alpha, kappa in materials:
        tables = dict(shared)
        # --- elastic block on the refined mesh, 2 mu eps(u):eps(v): with w =
        # area mu, the xx block is 2w b b^T + w c c^T, yy 2w c c^T + w b b^T,
        # xy w c b^T and yx its transpose; a gradient product comes before
        # its weight, so the element matrix is bitwise symmetric
        w, w2 = (area_r * mu)[:, None, None], (area_r * (2 * mu))[:, None, None]
        vals = np.empty((n_r, 3, 2, 3, 2))
        vals[:, :, 0, :, 0] = w2 * bb + w * cc
        vals[:, :, 1, :, 1] = w2 * cc + w * bb
        vals[:, :, 0, :, 1] = w * cb
        vals[:, :, 1, :, 0] = w * cb.swapaxes(1, 2)
        tables["A"] = ElementTable(udof, udof, vals.reshape(n_r, 6, 6))

        # --- total pressure mass (1/lambda) and pressure coupling (alpha/lambda)
        if p0:
            tables["C"] = ElementTable(xidof, xidof, (area_b / lam)[:, None, None])
            tables["D"] = ElementTable(pdof, xidof, (alpha / lam * mass * np.ones((1, 3)))[:, :, None])
        else:
            tables["C"] = ElementTable(xidof, xidof, mass / lam)
            tables["D"] = ElementTable(pdof, xidof, alpha / lam * mass)

        # --- pressure block: kappa stiffness + (2 alpha^2 / lambda) mass
        massE = 2.0 * (alpha * alpha) / lam * area_b[:, None, None] * _MASS_LOCAL
        tables["E"] = ElementTable(pdof, pdof, (kappa * area_b)[:, None, None] * grad_b + massE)
        out.append(tables)
    return out


def sorted_unique(x: np.ndarray) -> np.ndarray:
    """np.unique of an integer array by sorting and dropping repeats:
    np.unique hashes, several times slower at these sizes."""
    x = np.sort(x, axis=None)
    return x[np.diff(x, prepend=x[:1] - 1) != 0]


def class_representatives(materials: MaterialField, params: Iterable[str] = BLOCK_PARAMS["E"]) -> np.ndarray:
    """The representative of each subdomain's congruence class: the lowest
    numbered subdomain with the same key.

    The key holds input properties only: which sides of the unit square
    the subdomain touches (the boundary conditions are given per side) and
    its material parameters ``params`` (by default all four, assembly's).
    The mesh is uniform, H/h is one for all subdomains and the load is
    constant, so subdomains with one key are translates of one another: the
    blocks that depend on no other parameter, and the loads, are equal
    (``assemble_blocks`` cuts them all out of one patch).
    """
    key = np.column_stack([subdomain_sides(materials.grid), *(getattr(materials, p) for p in params)])
    _, first, inverse = np.unique(key, axis=0, return_index=True, return_inverse=True)
    return first[inverse.ravel()]


def _patch_spaces(spaces: FeSpaceSet, m: int) -> dict[str, FieldSpace]:
    """Every field's numbering of the m x m cells in the lower-left corner
    of the mesh, every node free, on that patch and its refinement as
    meshes of their own with the mesh's cell size: node (ix, iy) and the
    triangle order are the mesh's, only the ids are the patch's."""
    mesh = spaces.mesh
    base, refined = _grid_mesh(m, m), _grid_mesh(2 * m, 2 * m)
    base.cells, refined.cells = (mesh.nx, mesh.ny), (2 * mesh.nx, 2 * mesh.ny)
    return {fld: FieldSpace(on, np.arange(on.n_nodes), space.k) for fld, space in spaces.fields.items()
            for on in [refined if space.mesh is mesh.refined_mesh else base]}


def _origins(mesh: StructuredMesh, grid: tuple[int, int]) -> np.ndarray:
    """The lower-left node of each subdomain of the grid ``grid``."""
    gx, gy = grid
    s = np.arange(gx * gy)
    return s // gx * (mesh.ny // gy) * (mesh.nx + 1) + s % gx * (mesh.nx // gx)


def _element_order_sums(keys: np.ndarray, values: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """The distinct ``keys`` in ascending order and, for each of ``values``
    (one value per key), the sum of each key's values in input order.
    ``np.bincount`` adds in input order; SciPy's COO to CSR conversion sorts
    each row by column with an unstable sort before it adds, so a row that
    loses some of its columns may add its duplicates in another order."""
    order = np.argsort(keys)
    ordered = keys[order]
    new = np.diff(ordered, prepend=ordered[:1] - 1) != 0
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], [np.bincount(inverse, v, np.count_nonzero(new)) for v in values]


def assemble_blocks(spaces: FeSpaceSet, materials: MaterialField, load: LoadSpec | None = None) -> BlockSystem:
    """Assemble the five blocks and loads on the mesh and under the boundary
    conditions of ``spaces``, retaining subdomain contributions.

    Only each congruence class's representative is stored (see
    ``class_representatives``); every member reaches its representative's
    local blocks and loads on its own dofs.  Every subdomain's cells are a
    translate of one patch, the m x m cells in the lower-left corner,
    numbered as a mesh of its own (``_patch_spaces``), so assembly sums the
    patch's element tables once per distinct material, from one call that
    forms what no material enters once (``element_tables``), with every
    dof free and each entry's elements added in element order
    (``_element_order_sums``), and cuts each class's blocks and loads out of
    its material's patch: the patch dofs free at its representative's
    place, in the patch's row-major order, which is the order of their
    global dofs.  Summed in element order, an entry does not depend on
    which other dofs exist, so every subdomain's local blocks and loads
    equal its own build bit for bit.
    """
    if load is None:
        load = LoadSpec()
    mesh = spaces.mesh
    grid = materials.grid
    gx, gy = grid
    if mesh.nx % gx or mesh.ny % gy:
        raise ConfigurationError("mesh does not align with the material subdomain grid")
    if mesh.ny // gy != mesh.nx // gx:
        raise ConfigurationError("subdomains must contain square cell patches")
    n_sub, m = gx * gy, mesh.nx // gx
    rep = class_representatives(materials)
    is_rep = rep == np.arange(n_sub)
    reps = np.flatnonzero(is_rep)
    cls = np.searchsorted(reps, rep)  # each subdomain's class

    # the distinct materials of the classes
    mat = np.column_stack([materials.lam, materials.mu, materials.alpha, materials.kappa])[reps]
    _, first, which = np.unique(mat, axis=0, return_index=True, return_inverse=True)
    which = which.ravel()  # each class's patch
    every = _patch_spaces(spaces, m)
    tables = element_tables(every, spaces.total_pressure_variant == "p0", np.arange(every["p"].mesh.n_triangles),
                            np.arange(every["u"].mesh.n_triangles), [tuple(mat[i]) for i in first], load)

    # the patch dofs (ids of the patch numbering) of each field, and which
    # of them each class keeps: those whose node is free at its
    # representative's place
    patch = {fld: sorted_unique(tables[0][name].rows) for fld, name in FIELD_BLOCK.items()}
    free, pos, rep_off, off, dofs, place = {}, {}, {}, {}, {}, {}
    for fld, pd in patch.items():
        space = spaces.fields[fld]
        # the patch nodes' ids in the mesh, which keep the patch's order
        ix, iy = every[fld].lattice(pd)
        node, comp, shift = iy * (space.mesh.nx + 1) + ix, pd % space.k, _origins(space.mesh, grid)
        free[fld] = space.dof_of_node[node + shift[reps][:, None]] >= 0
        count = free[fld].sum(axis=1)
        rep_off[fld] = np.concatenate([[0], np.cumsum(np.where(is_rep, count[cls], 0))])
        off[fld] = np.concatenate([[0], np.cumsum(count[cls])])
        # each class's stacked position of each free patch dof
        pos[fld] = rep_off[fld][reps][:, None] + np.cumsum(free[fld], axis=1) - 1
        # a member's dofs: its class's, moved to its own place (its places in
        # the patch are kept: divmod gives them an array of their own, where
        # nonzero's would be a strided view pinning the subdomains' too)
        sub, place[fld] = np.divmod(np.flatnonzero(free[fld][cls]), pd.size)
        first_dof = space.dof_of_node[node[place[fld]] + shift[sub]]
        if np.any(first_dof < 0):
            raise InternalError("a class member lacks a free dof of its representative")
        dofs[fld] = first_dof + comp[place[fld]]

    blocks = {}
    for name, r, c in BLOCK_FIELDS:
        t = tables[0][name]
        rows, cols = np.searchsorted(patch[r], t.rows), np.searchsorted(patch[c], t.cols)
        keys = (rows[:, :, None] * patch[c].size + cols[:, None, :]).ravel()
        keys, sums = _element_order_sums(keys, [tb[name].vals.ravel() for tb in tables])
        prow, pcol = np.divmod(keys, patch[c].size)
        # every class's entries at once: class-major, then the patch's (row,
        # column) order; every patch row holds an entry, so reduceat counts
        # each row's
        keep = free[r].take(prow, axis=1) & free[c].take(pcol, axis=1)
        counts = np.add.reduceat(keep, np.searchsorted(prow, np.arange(patch[r].size)), axis=1, dtype=np.int64)
        indptr = np.concatenate([[0], np.cumsum(counts[free[r]])])
        kept = np.flatnonzero(keep)
        data = np.stack(sums)[which].ravel()[kept]
        shape = (rep_off[r][-1], rep_off[c][-1])
        blocks[name] = sp.csr_matrix((data, pos[c].take(pcol, axis=1).ravel()[kept], indptr), shape=shape)
    loads, total = {}, {}
    for name, fld in (("f", "u"), ("g", "p")):
        t = tables[0][name]
        at = np.searchsorted(patch[fld], t.rows).ravel()
        per_patch = np.stack([np.bincount(at, tb[name].vals.ravel(), patch[fld].size) for tb in tables])
        loads[name] = per_patch[which][free[fld]]
        src = block_positions(rep_off[fld], rep)
        # bincount gives integers when it has nothing to add (a field with no dofs)
        total[name] = np.bincount(dofs[fld], loads[name][src], spaces.n_dofs[fld]).astype(np.float64, copy=False)
    return BlockSystem(
        spaces=spaces,
        materials=materials,
        **total,
        stacked=StackedBlocks(dofs=dofs, patch=place, off=off, rep_off=rep_off, **blocks, **loads, rep=rep),
    )


# ---------------------------------------------------------------------------
# diagnostics


@dataclass(frozen=True)
class SaddleReport:
    trials: int
    min_ratio: float
    violations: int


_SADDLE_COEF = (3.0 - np.sqrt(5.0)) / 2.0


def check_saddle_inequalities(system: BlockSystem, trials: int = 1000, seed: int = 0) -> SaddleReport:
    """Spot-check the coupled positivity bound on random vector pairs.

    For pairs (eta, q) the quadratic form of [[C, -D^T], [-D, E]] must
    dominate (3 - sqrt(5))/2 times the decoupled form; the report carries
    the minimum observed ratio.
    """
    rng = np.random.RandomState(seed)
    C, D, E = system.C, system.D, system.E
    min_ratio = np.inf
    violations = 0
    for _ in range(trials):
        eta = rng.standard_normal(C.shape[0])
        q = rng.standard_normal(E.shape[0])
        base = eta @ (C @ eta) + q @ (E @ q)
        coupled = base - 2.0 * (q @ (D @ eta))
        ratio = coupled / (_SADDLE_COEF * base)
        min_ratio = min(min_ratio, ratio)
        if ratio < 1.0 - 1e-12:
            violations += 1
    return SaddleReport(trials=trials, min_ratio=float(min_ratio), violations=violations)
