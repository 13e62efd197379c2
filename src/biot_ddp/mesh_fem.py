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
material are translates of one another, so assembly computes and stores
local blocks and loads only for one representative per such congruence
class; a member reaches them through its own dofs.  A representative's
blocks are bitwise equal to its own build; a member's own build has the
same sparsity pattern and agrees with them to roundoff.  The key,
restricted to the material parameters a block depends on
(``BLOCK_PARAMS``), also decides which subdomains share a factorization of
that block (``BlockSystem.classes``).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import cached_property
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


# ---------------------------------------------------------------------------
# meshes


@dataclass
class StructuredMesh:
    """Uniform triangulation of the unit square.

    Cells are split along the bottom-left to top-right diagonal; triangle
    2*c is the lower-right half of cell c and 2*c+1 the upper-left half.
    Node ids run x-fastest: id = iy*(nx+1) + ix.
    """

    nx: int
    ny: int
    vertices: np.ndarray  # (n_nodes, 2)
    triangles: np.ndarray  # (n_tri, 3), positively oriented
    refined_mesh: "StructuredMesh | None" = None

    @property
    def n_nodes(self) -> int:
        return self.vertices.shape[0]

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


def _grid_mesh(nx: int, ny: int) -> StructuredMesh:
    xs = np.linspace(0.0, 1.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)
    X, Y = np.meshgrid(xs, ys)
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    ix, iy = np.meshgrid(np.arange(nx), np.arange(ny))
    ix, iy = ix.ravel(), iy.ravel()
    bl = iy * (nx + 1) + ix
    br = bl + 1
    tl = bl + (nx + 1)
    tr = tl + 1
    tri = np.empty((2 * nx * ny, 3), dtype=np.int64)
    tri[0::2] = np.column_stack([bl, br, tr])  # below the diagonal
    tri[1::2] = np.column_stack([bl, tr, tl])  # above the diagonal
    return StructuredMesh(nx=nx, ny=ny, vertices=vertices, triangles=tri)


def build_mesh(nx: int, subdomain_grid: tuple[int, int], ny: int | None = None) -> StructuredMesh:
    """Base triangulation plus its uniform refinement for the displacement grid."""
    if ny is None:
        ny = nx
    gx, gy = subdomain_grid
    if nx < 1 or ny < 1:
        raise ConfigurationError(f"mesh size must be positive, got nx={nx}, ny={ny}")
    if gx < 1 or gy < 1:
        raise ConfigurationError(f"subdomain grid must be positive, got {subdomain_grid}")
    if nx % gx != 0:
        raise ConfigurationError(f"nx={nx} is not divisible by subdomain count Nx={gx}")
    if ny % gy != 0:
        raise ConfigurationError(f"ny={ny} is not divisible by subdomain count Ny={gy}")
    if nx // gx != ny // gy:
        raise ConfigurationError("subdomains must contain square cell patches")
    mesh = _grid_mesh(nx, ny)
    mesh.refined_mesh = _grid_mesh(2 * nx, 2 * ny)
    _check_orientation(mesh)
    _check_orientation(mesh.refined_mesh)
    return mesh


def _check_orientation(mesh: StructuredMesh) -> None:
    v = mesh.vertices[mesh.triangles]
    d1 = v[:, 1] - v[:, 0]
    d2 = v[:, 2] - v[:, 0]
    areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    if not np.all(areas > 0):
        raise AssertionError("triangulation produced non-positive element areas")


def p1_geometry(mesh: StructuredMesh, triangles: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Areas and P1 shape-function gradients (b = d/dx, c = d/dy) of the
    given triangles (rows of vertex ids) of the mesh."""
    v = mesh.vertices[triangles]
    x, y = v[..., 0], v[..., 1]
    d1 = v[:, 1] - v[:, 0]
    d2 = v[:, 2] - v[:, 0]
    area = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    two_a = (2.0 * area)[:, None]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1) / two_a
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1) / two_a
    return area, b, c


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

    def check_wellposed(self) -> None:
        if not self.displacement_dirichlet:
            raise ConfigurationError("displacement needs a nonempty Dirichlet part")
        if not self.pressure_dirichlet:
            raise ConfigurationError("pressure needs a nonempty Dirichlet part")
        for side in self.displacement_dirichlet + self.pressure_dirichlet:
            if side not in SIDES:
                raise ConfigurationError(f"unknown side {side!r}")


@dataclass
class FeSpaceSet:
    """Free-dof numbering for the three fields.

    Displacement: vector P1 on the refined mesh, dofs 2k (x) and 2k+1 (y).
    Total pressure: P1 on the base mesh ("p1", one dof per node, no boundary
    conditions) or piecewise constants ("p0", one dof per base triangle).
    Pressure: P1 on the base mesh with Dirichlet nodes eliminated.
    """

    mesh: StructuredMesh
    total_pressure_variant: str
    bc: BoundarySpec
    u_free_nodes: np.ndarray
    u_dof_of_node: np.ndarray  # refined node -> x-component dof, or -1
    p_free_nodes: np.ndarray
    p_dof_of_node: np.ndarray  # base node -> dof, or -1
    n_u: int
    n_xi: int
    n_p: int

    @property
    def n_total(self) -> int:
        return self.n_u + self.n_xi + self.n_p

    def lattice(self, fld: str, dofs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Grid coordinates (ix, iy) of the node of each of ``dofs`` of field
        ``fld`` ("u", "xi" or "p"): displacement nodes on the refined grid,
        the others on the base grid, a p0 total pressure at its cell's
        corner."""
        mesh = self.mesh
        if fld == "u":
            mesh, nodes = mesh.refined_mesh, self.u_free_nodes[dofs // 2]
        elif fld == "p":
            nodes = self.p_free_nodes[dofs]
        elif self.total_pressure_variant == "p1":
            nodes = dofs
        else:
            cell = dofs // 2
            nodes = cell // mesh.nx * (mesh.nx + 1) + cell % mesh.nx
        return mesh.node_ix(nodes), mesh.node_iy(nodes)


def build_spaces(mesh: StructuredMesh, total_pressure_variant: str, bc: BoundarySpec) -> FeSpaceSet:
    if total_pressure_variant not in ("p1", "p0"):
        raise ConfigurationError(f"unknown total pressure variant {total_pressure_variant!r}")
    refined = mesh.refined_mesh
    if refined is None:
        raise ConfigurationError("mesh is missing its refinement; use build_mesh")

    u_fixed = refined.boundary_node_mask(bc.displacement_dirichlet) if bc.displacement_dirichlet else np.zeros(refined.n_nodes, bool)
    u_free = np.flatnonzero(~u_fixed)
    u_dof_of_node = np.full(refined.n_nodes, -1, dtype=np.int64)
    u_dof_of_node[u_free] = 2 * np.arange(u_free.size)

    p_fixed = mesh.boundary_node_mask(bc.pressure_dirichlet) if bc.pressure_dirichlet else np.zeros(mesh.n_nodes, bool)
    p_free = np.flatnonzero(~p_fixed)
    p_dof_of_node = np.full(mesh.n_nodes, -1, dtype=np.int64)
    p_dof_of_node[p_free] = np.arange(p_free.size)

    n_xi = mesh.n_nodes if total_pressure_variant == "p1" else mesh.n_triangles
    return FeSpaceSet(
        mesh=mesh,
        total_pressure_variant=total_pressure_variant,
        bc=bc,
        u_free_nodes=u_free,
        u_dof_of_node=u_dof_of_node,
        p_free_nodes=p_free,
        p_dof_of_node=p_dof_of_node,
        n_u=2 * u_free.size,
        n_xi=n_xi,
        n_p=p_free.size,
    )


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
    c0: np.ndarray = field(init=False)

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
        self.c0 = self.alpha**2 / self.lam

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


@dataclass
class LocalBlocks:
    """One subdomain's element contributions in a compressed local numbering.

    ``udofs``/``xidofs``/``pdofs`` are the sorted global free-dof ids with
    support on the subdomain closure; the matrices are indexed by position
    in those arrays.
    """

    udofs: np.ndarray
    xidofs: np.ndarray
    pdofs: np.ndarray
    A: sp.csr_matrix
    B: sp.csr_matrix
    C: sp.csr_matrix
    D: sp.csr_matrix
    E: sp.csr_matrix
    f: np.ndarray
    g: np.ndarray

    def u_pos(self, dofs: np.ndarray) -> np.ndarray:
        return _positions(self.udofs, dofs, "displacement")

    def xi_pos(self, dofs: np.ndarray) -> np.ndarray:
        return _positions(self.xidofs, dofs, "total pressure")

    def p_pos(self, dofs: np.ndarray) -> np.ndarray:
        return _positions(self.pdofs, dofs, "pressure")


def _positions(haystack: np.ndarray, needles: np.ndarray, what: str) -> np.ndarray:
    needles = np.asarray(needles, dtype=np.int64)
    pos = np.searchsorted(haystack, needles)
    ok = (pos < haystack.size) & (haystack[np.minimum(pos, haystack.size - 1)] == needles)
    if needles.size and not np.all(ok):
        raise KeyError(f"{what} dofs {needles[~ok][:5]} not present in this subdomain")
    return pos


# the five blocks with the fields of their rows and columns
BLOCK_FIELDS = (("A", "u", "u"), ("B", "xi", "u"), ("C", "xi", "xi"), ("D", "p", "xi"), ("E", "p", "p"))
_BLOCK_SPACES = {name: (r, c) for name, r, c in BLOCK_FIELDS}


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
    which the members own empty ranges.
    """

    dofs: dict[str, np.ndarray]
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

    def local_view(self, s: int) -> LocalBlocks:
        """Subdomain s's dofs with its representative's blocks and loads,
        sharing data with the stored arrays."""
        r = self.rep[s]
        span = {fld: slice(o[s], o[s + 1]) for fld, o in self.off.items()}
        at = {fld: slice(o[r], o[r + 1]) for fld, o in self.rep_off.items()}
        return LocalBlocks(
            udofs=self.dofs["u"][span["u"]],
            xidofs=self.dofs["xi"][span["xi"]],
            pdofs=self.dofs["p"][span["p"]],
            **{name: diagonal_block(getattr(self, name), self.rep_off[i], self.rep_off[j], r) for name, i, j in BLOCK_FIELDS},
            f=self.f[at["u"]],
            g=self.g[at["p"]],
        )

    def entries(self, name: str, rmap: np.ndarray, cmap: np.ndarray) -> tuple[np.ndarray, ...]:
        """Every subdomain's entries of block ``name`` as (sub, rmap[row],
        cmap[col], value), in subdomain and then stored order, where the row
        and the column both map (>= 0); the maps are over the stacked
        positions (offsets ``off``).  What to keep is decided on each
        representative's positions and moved onto its members by one gather,
        so a member's maps must be negative where its representative's are:
        true of maps that keep every entry, and of maps on the local index
        sets that ``_shared_index_sets`` has checked to be the members' own.
        """
        r, c = _BLOCK_SPACES[name]
        M = getattr(self, name)
        owner = np.repeat(np.arange(self.n_sub), np.diff(M.indptr[self.rep_off[r]]))
        row = np.repeat(np.arange(M.shape[0]), np.diff(M.indptr)) - self.rep_off[r][owner]
        col = M.indices - self.rep_off[c][owner]
        kept = np.flatnonzero((rmap[self.off[r][owner] + row] >= 0) & (cmap[self.off[c][owner] + col] >= 0))
        kept_off = np.searchsorted(owner[kept], np.arange(self.n_sub + 1))
        at = kept[block_positions(kept_off, self.rep)]
        sub = np.repeat(np.arange(self.n_sub), np.diff(kept_off)[self.rep])
        return sub, rmap[self.off[r][sub] + row[at]], cmap[self.off[c][sub] + col[at]], M.data[at]


def diagonal_block(M: sp.csr_matrix, row_off: np.ndarray, col_off: np.ndarray, s: int) -> sp.csr_matrix:
    """Diagonal block s of a block-diagonal CSR matrix, sharing its data: a
    shallow copy of M with its arrays and shape swapped for the block's
    (SciPy's constructor would copy slices of M's arrays, and check them).
    M's cached format flags hold for every block."""
    r0, r1 = row_off[s], row_off[s + 1]
    lo, hi = M.indptr[r0], M.indptr[r1]
    view = copy.copy(M)
    view.data, view.indices, view.indptr = M.data[lo:hi], M.indices[lo:hi] - int(col_off[s]), M.indptr[r0 : r1 + 1] - lo
    view._shape = (int(r1 - r0), int(col_off[s + 1] - col_off[s]))
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
    side (f, 0, g).  ``local`` views every subdomain's blocks in
    ``stacked``.  A global block is summed from every subdomain's entries
    (``StackedBlocks.entries``) on first use and kept in ``blocks``: the
    direct-solve check and the diagnostics read them, set-up does not.
    SciPy sums them: a row's entries arrive in subdomain order, but an
    unstable sort by column precedes the sum, so a few on long rows are
    added in another order.
    """

    spaces: FeSpaceSet
    materials: MaterialField
    bc: BoundarySpec
    load: LoadSpec
    grid: tuple[int, int]
    f: np.ndarray
    g: np.ndarray
    stacked: StackedBlocks
    blocks: dict[str, sp.csr_matrix] = field(default_factory=dict, init=False, repr=False)

    def _global(self, name: str) -> sp.csr_matrix:
        if name not in self.blocks:
            r, c = _BLOCK_SPACES[name]
            size = {"u": self.spaces.n_u, "xi": self.spaces.n_xi, "p": self.spaces.n_p}
            _, rows, cols, vals = self.stacked.entries(name, self.stacked.dofs[r], self.stacked.dofs[c])
            self.blocks[name] = sp.coo_matrix((vals, (rows, cols)), shape=(size[r], size[c])).tocsr()
        return self.blocks[name]

    A = property(lambda self: self._global("A"))
    B = property(lambda self: self._global("B"))
    C = property(lambda self: self._global("C"))
    D = property(lambda self: self._global("D"))
    E = property(lambda self: self._global("E"))

    @cached_property
    def local(self) -> dict[int, LocalBlocks]:
        return {s: self.stacked.local_view(s) for s in range(self.stacked.n_sub)}

    def classes(self, names: str) -> list[np.ndarray]:
        """Congruence classes of the local blocks ``names`` (of "ABCDE"; none
        keys on the sides touched alone): members in ascending order, so the
        representative first, classes in ascending order of representatives."""
        rep = class_representatives(self.materials, sorted({p for n in names for p in BLOCK_PARAMS[n]}))
        order = np.argsort(rep, kind="stable")
        return np.split(order, np.flatnonzero(np.diff(rep[order])) + 1)

    @property
    def n_dofs(self) -> int:
        return self.spaces.n_total

    def full_matrix(self) -> sp.csr_matrix:
        """The complete indefinite block matrix (used by direct-solve checks)."""
        return sp.bmat(
            [
                [self.A, self.B.T, None],
                [self.B, -self.C, self.D.T],
                [None, self.D, -self.E],
            ],
            format="csr",
        )

    def full_rhs(self) -> np.ndarray:
        return np.concatenate([self.f, np.zeros(self.spaces.n_xi), self.g])


def _element_subdomains(n_cells_x: int, n_cells_y: int, grid: tuple[int, int], per: int) -> np.ndarray:
    """Subdomain id per triangle for a structured mesh with `per` cells per
    subdomain along each axis."""
    gx, _ = grid
    cells = np.arange(n_cells_x * n_cells_y)
    cx = cells % n_cells_x
    cy = cells // n_cells_x
    sub = (cy // per) * gx + (cx // per)
    return np.repeat(sub, 2)


@dataclass
class ElementTable:
    """Element contributions to one block: (nt, a) row dofs, (nt, b) column
    dofs (-1 where constrained), (nt, a, b) values and each element's
    subdomain.  A load has no column dofs and (nt, a) values.  Elements
    come sorted by subdomain, stably."""

    rows: np.ndarray
    cols: np.ndarray | None
    vals: np.ndarray
    sub: np.ndarray


# the material parameters each block depends on: A on mu, C on 1/lambda, D on
# alpha/lambda, E on kappa and alpha^2/lambda (lambda, mu from E, nu), B on none
BLOCK_PARAMS = {"A": ("E", "nu"), "B": (), "C": ("E", "nu"), "D": ("E", "nu", "alpha"), "E": ("E", "nu", "alpha", "kappa")}


def element_tables(
    mesh: StructuredMesh,
    spaces: FeSpaceSet,
    materials: MaterialField,
    load: LoadSpec,
    subdomains: np.ndarray | None = None,
) -> dict[str, ElementTable]:
    """Element tables of the blocks "A".."E" and of the loads "f" and "g",
    over the elements of the given subdomains (all by default)."""
    refined = mesh.refined_mesh
    grid = materials.grid
    per = mesh.nx // grid[0]
    p0 = spaces.total_pressure_variant == "p0"

    esub_b = _element_subdomains(mesh.nx, mesh.ny, grid, per)
    esub_r = _element_subdomains(2 * mesh.nx, 2 * mesh.ny, grid, 2 * per)
    order_b, order_r = np.argsort(esub_b, kind="stable"), np.argsort(esub_r, kind="stable")
    if subdomains is not None:
        order_b = order_b[np.isin(esub_b[order_b], subdomains)]
        order_r = order_r[np.isin(esub_r[order_r], subdomains)]
    esub_b, esub_r = esub_b[order_b], esub_r[order_r]
    tri_b = mesh.triangles[order_b]
    tri_r = refined.triangles[order_r]

    area_b, b_b, c_b = p1_geometry(mesh, tri_b)
    area_r, b_r, c_r = p1_geometry(refined, tri_r)
    n_b, n_r = tri_b.shape[0], tri_r.shape[0]

    lam_b = materials.lam[esub_b]
    alpha_b = materials.alpha[esub_b]
    kappa_b = materials.kappa[esub_b]
    mu_r = materials.mu[esub_r]

    # --- dof id tables per element
    u_base = spaces.u_dof_of_node[tri_r]  # x-component dof or -1
    udof = np.empty((n_r, 6), dtype=np.int64)
    udof[:, 0::2] = u_base
    udof[:, 1::2] = np.where(u_base >= 0, u_base + 1, -1)
    xidof = order_b[:, None] if p0 else tri_b  # the triangle id (P0) or the base node ids (P1)
    pdof = spaces.p_dof_of_node[tri_b]
    tables: dict[str, ElementTable] = {}

    # --- elastic block on the refined mesh
    Bm = np.zeros((n_r, 3, 6))
    Bm[:, 0, 0::2] = b_r
    Bm[:, 1, 1::2] = c_r
    Bm[:, 2, 0::2] = c_r
    Bm[:, 2, 1::2] = b_r
    wgt = area_r[:, None] * np.stack([2 * mu_r, 2 * mu_r, mu_r], axis=1)
    tables["A"] = ElementTable(udof, udof, np.einsum("tia,ti,tib->tab", Bm, wgt, Bm), esub_r)

    # --- divergence coupling: refined displacement x base total pressure
    div = np.empty((n_r, 6))
    div[:, 0::2] = b_r
    div[:, 1::2] = c_r
    centroid = refined.vertices[tri_r].mean(axis=1)
    cellx = np.minimum((centroid[:, 0] * mesh.nx).astype(np.int64), mesh.nx - 1)
    celly = np.minimum((centroid[:, 1] * mesh.ny).astype(np.int64), mesh.ny - 1)
    locx = centroid[:, 0] * mesh.nx - cellx
    locy = centroid[:, 1] * mesh.ny - celly
    parent = 2 * (celly * mesh.nx + cellx) + (locy > locx)

    if p0:
        tables["B"] = ElementTable(parent[:, None], udof, -(area_r[:, None] * div)[:, None, :], esub_r)
    else:
        pv = mesh.vertices[mesh.triangles[parent]]  # (nt, 3, 2) parent vertices
        d1 = pv[:, 1] - pv[:, 0]
        d2 = pv[:, 2] - pv[:, 0]
        twoA = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        q = centroid
        bary = np.empty((n_r, 3))
        for k in range(3):
            pa = pv[:, (k + 1) % 3]
            pb = pv[:, (k + 2) % 3]
            bary[:, k] = ((pa[:, 1] - pb[:, 1]) * (q[:, 0] - pb[:, 0]) + (pb[:, 0] - pa[:, 0]) * (q[:, 1] - pb[:, 1])) / twoA
        vals = -(area_r[:, None, None] * bary[:, :, None] * div[:, None, :])
        tables["B"] = ElementTable(mesh.triangles[parent], udof, vals, esub_r)

    # --- total pressure mass (1/lambda) and pressure coupling (alpha/lambda)
    if p0:
        tables["C"] = ElementTable(xidof, xidof, (area_b / lam_b)[:, None, None], esub_b)
        vals = (alpha_b / lam_b)[:, None] * (area_b[:, None] / 3.0) * np.ones((1, 3))
        tables["D"] = ElementTable(pdof, xidof, vals[:, :, None], esub_b)
    else:
        mass = area_b[:, None, None] * _MASS_LOCAL
        tables["C"] = ElementTable(xidof, xidof, mass / lam_b[:, None, None], esub_b)
        tables["D"] = ElementTable(pdof, xidof, (alpha_b / lam_b)[:, None, None] * mass, esub_b)

    # --- pressure block: kappa stiffness + (2 alpha^2 / lambda) mass
    stiff = (kappa_b * area_b)[:, None, None] * (b_b[:, :, None] * b_b[:, None, :] + c_b[:, :, None] * c_b[:, None, :])
    massE = (2.0 * alpha_b**2 / lam_b)[:, None, None] * area_b[:, None, None] * _MASS_LOCAL
    tables["E"] = ElementTable(pdof, pdof, stiff + massE, esub_b)

    # --- loads
    fx, fy = load.body_force
    fvals = np.empty((n_r, 6))
    fvals[:, 0::2] = fx * area_r[:, None] / 3.0
    fvals[:, 1::2] = fy * area_r[:, None] / 3.0
    gvals = load.source * area_b[:, None] / 3.0 * np.ones((1, 3))
    tables["f"] = ElementTable(udof, None, fvals, esub_r)
    tables["g"] = ElementTable(pdof, None, gvals, esub_b)
    return tables


def sorted_unique(x: np.ndarray) -> np.ndarray:
    """np.unique of an integer array by sorting and dropping repeats:
    np.unique hashes, several times slower at these sizes."""
    x = np.sort(x, axis=None)
    return x[np.diff(x, prepend=x[:1] - 1) != 0]


def _stacked_block(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, shape: tuple[int, int]) -> sp.csr_matrix:
    """Block-diagonal CSR from element tables of stacked positions.

    Each stacked row receives the same (column, value) sequence, shifted
    by its subdomain's column offset, as a matrix built from that
    subdomain's elements alone, so duplicates are summed in the same
    order and every diagonal block equals its per-subdomain build bitwise.
    ``assemble_blocks`` builds the class representatives' blocks this way,
    and the members share them: a member's own build has the same pattern
    and agrees with them to roundoff (the element geometry of a translate).
    """
    nt, a = rows.shape
    b = cols.shape[1]
    r = np.broadcast_to(rows[:, :, None], (nt, a, b)).ravel()
    c = np.broadcast_to(cols[:, None, :], (nt, a, b)).ravel()
    keep = (r >= 0) & (c >= 0)
    return sp.coo_matrix((vals.reshape(-1)[keep], (r[keep], c[keep])), shape=shape).tocsr()


def class_representatives(materials: MaterialField, params: Iterable[str] = BLOCK_PARAMS["E"]) -> np.ndarray:
    """The representative of each subdomain's congruence class: the lowest
    numbered subdomain with the same key.

    The key holds input properties only: which sides of the unit square
    the subdomain touches (the boundary conditions are given per side) and
    its material parameters ``params`` (by default all four, assembly's).
    The mesh is uniform, H/h is one for all subdomains and the load is
    constant, so subdomains with one key are translates of one another: the
    blocks that depend on no other parameter, and the loads, agree up to the
    roundoff of their element geometry.
    """
    gx, gy = materials.grid
    s = np.arange(gx * gy)
    sx, sy = s % gx, s // gx
    key = np.column_stack([sx == 0, sx == gx - 1, sy == 0, sy == gy - 1, *(getattr(materials, p) for p in params)])
    _, first, inverse = np.unique(key, axis=0, return_index=True, return_inverse=True)
    return first[inverse.ravel()]


def _member_dofs(
    spaces: FeSpaceSet, grid: tuple[int, int], fld: str, dofs: np.ndarray, off: np.ndarray, rep: np.ndarray
) -> np.ndarray:
    """Global dof ids of one field's stacked positions (subdomain offsets
    ``off``), from ``dofs``, the dof at the same local position of the
    owning subdomain's representative.

    A member's closure is its representative's moved across the subdomain
    grid, which moves node and triangle ids by a constant; touching the
    same sides, the member has the same free dofs in the same order.
    """
    mesh = spaces.mesh
    gx = grid[0]
    per = mesh.nx // gx
    s = np.arange(rep.size)
    owner = np.repeat(s, np.diff(off))

    def move(width: int, refine: int) -> np.ndarray:
        """Id offset from the representative's origin node (or cell) on a
        grid ``width`` ids wide, per stacked position."""
        origin = ((s // gx) * width + s % gx) * refine * per
        return (origin - origin[rep])[owner]

    if fld == "u":
        dof = spaces.u_dof_of_node[spaces.u_free_nodes[dofs // 2] + move(2 * mesh.nx + 1, 2)]
        out = np.where(dof >= 0, dof + dofs % 2, -1)
    elif fld == "p":
        out = spaces.p_dof_of_node[spaces.p_free_nodes[dofs] + move(mesh.nx + 1, 1)]
    elif spaces.total_pressure_variant == "p1":
        out = dofs + move(mesh.nx + 1, 1)
    else:  # triangle ids, two per cell
        out = dofs + 2 * move(mesh.nx, 1)
    if np.any(out < 0):
        raise AssertionError(f"a class member lacks a free {fld} dof of its representative")
    return out


def assemble_blocks(
    mesh: StructuredMesh,
    spaces: FeSpaceSet,
    materials: MaterialField,
    bc: BoundarySpec,
    load: LoadSpec | None = None,
) -> BlockSystem:
    """Assemble the five blocks and loads, retaining subdomain contributions.

    Only each congruence class's representative is assembled and stored
    (see ``class_representatives``); every member reaches its
    representative's local blocks and loads on its own dofs.
    """
    bc.check_wellposed()
    if load is None:
        load = LoadSpec()
    grid = materials.grid
    gx, gy = grid
    if mesh.nx % gx or mesh.ny % gy:
        raise ConfigurationError("mesh does not align with the material subdomain grid")
    if mesh.ny // gy != mesh.nx // gx:
        raise ConfigurationError("subdomains must contain square cell patches")
    n_sub = gx * gy
    rep = class_representatives(materials)
    reps = np.flatnonzero(rep == np.arange(n_sub))
    tables = element_tables(mesh, spaces, materials, load, reps)

    # stacked numbering of the representatives: the sorted keys sub * n + dof
    # of every (subdomain, dof) pair met by the table whose rows span the
    # field; the members own empty ranges
    size = {"u": spaces.n_u, "xi": spaces.n_xi, "p": spaces.n_p}
    keys = {fld: sorted_unique((t.sub[:, None] * size[fld] + t.rows)[t.rows >= 0])
            for fld, t in (("u", tables["A"]), ("xi", tables["C"]), ("p", tables["E"]))}
    rep_off = {fld: np.searchsorted(k, np.arange(n_sub + 1) * size[fld]) for fld, k in keys.items()}
    found: dict[int, np.ndarray] = {}  # the tables share their dof arrays

    def pos(fld: str, t: ElementTable, d: np.ndarray) -> np.ndarray:
        """Stacked position of every element dof, -1 where it is constrained."""
        if id(d) not in found:
            found[id(d)] = np.where(d >= 0, np.searchsorted(keys[fld], t.sub[:, None] * size[fld] + d), -1)
        return found[id(d)]

    # every subdomain takes its representative's positions
    src = {fld: block_positions(o, rep) for fld, o in rep_off.items()}
    off = {fld: np.concatenate([[0], np.cumsum(np.diff(o)[rep])]) for fld, o in rep_off.items()}
    dofs = {fld: _member_dofs(spaces, grid, fld, keys[fld][src[fld]] % size[fld], off[fld], rep) for fld in off}
    blocks, loads, total = {}, {}, {}
    for name, r, c in BLOCK_FIELDS:
        t = tables[name]
        blocks[name] = _stacked_block(pos(r, t, t.rows), pos(c, t, t.cols), t.vals, (rep_off[r][-1], rep_off[c][-1]))
    for name, fld in (("f", "u"), ("g", "p")):
        at = pos(fld, tables[name], tables[name].rows).ravel()
        keep = at >= 0
        loads[name] = np.bincount(at[keep], weights=tables[name].vals.reshape(-1)[keep], minlength=rep_off[fld][-1])
        total[name] = np.bincount(dofs[fld], weights=loads[name][src[fld]], minlength=size[fld])
    return BlockSystem(
        spaces=spaces,
        materials=materials,
        bc=bc,
        load=load,
        grid=grid,
        **total,
        stacked=StackedBlocks(dofs=dofs, off=off, rep_off=rep_off, **blocks, **loads, rep=rep),
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


def stokes_stability_witness(system: BlockSystem) -> float:
    """Smallest nonzero generalized singular value of the divergence coupling.

    Dense diagnostic for small meshes: eigenvalues of B A^{-1} B^T against
    the total-pressure Gram block; returns the square root of the smallest
    nonzero one.  Strictly positive for a stable pairing.
    """
    A = system.A.toarray()
    B = system.B.toarray()
    C = system.C.toarray()
    S = B @ np.linalg.solve(A, B.T)
    import scipy.linalg as sla

    w = sla.eigh(S, C, eigvals_only=True)
    w = np.sort(w)
    cutoff = 1e-10 * max(w[-1], 1.0)
    nonzero = w[w > cutoff]
    if nonzero.size == 0:
        return 0.0
    return float(np.sqrt(nonzero[0]))


def dump_blocks_coo(system: BlockSystem, path: str) -> None:
    """Write all five blocks in `block row col value` text form."""
    with open(path, "w") as fh:
        for name in "ABCDE":
            m = getattr(system, name).tocoo()
            for r, c, v in zip(m.row, m.col, m.data):
                fh.write(f"{name} {r} {c} {float(v)!r}\n")
