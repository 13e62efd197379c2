"""Subdomain partitioning and interface dof classification.

Splits every field into subdomain-interior and interface unknowns.
Displacement interface dofs are further divided into primal (continuous,
kept in the coarse problem) and dual (torn, constrained by Lagrange
multipliers); pressure interface dofs get the same split for use inside
the balancing preconditioner; total pressure interface dofs stay in one
undivided continuous block.

Primal sets always contain the interior cross points of the subdomain
grid.  The "vertex-edge" variant additionally constrains one average per
subdomain edge (per displacement component, and per pressure edge) via an
explicit change of basis: the first dof of each edge carries the average
and turns primal, the remaining edge dofs become average-free duals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .mesh_fem import BlockSystem, ConfigurationError, FeSpaceSet, MaterialField, StructuredMesh


class InternalError(RuntimeError):
    """Raised when a build-time self check fails."""


# Local blocks that agree to this fraction of their largest entry count
# as equal: congruent subdomains share one factorization.
_CONGRUENCE_RTOL = 1e-13


# ---------------------------------------------------------------------------
# partition


@dataclass
class SubdomainPartition:
    """Tensor grid of rectangular subdomains aligned with the base mesh."""

    grid: tuple[int, int]
    mesh: StructuredMesh
    base_elements: dict[int, np.ndarray]
    refined_elements: dict[int, np.ndarray]
    diameters: np.ndarray

    @property
    def n_subdomains(self) -> int:
        return self.grid[0] * self.grid[1]


def _node_axis_subs(i: np.ndarray, m: int, g: int) -> np.ndarray:
    """Owning subdomain index along one axis for nodes not on an interior line."""
    return np.minimum(i // m, g - 1)


def _interface_mask(ix: np.ndarray, iy: np.ndarray, nx: int, ny: int, mx: int, my: int) -> np.ndarray:
    on_x = (ix % mx == 0) & (ix > 0) & (ix < nx)
    on_y = (iy % my == 0) & (iy > 0) & (iy < ny)
    return on_x | on_y


def _sharing_sets(mesh_nx: int, mesh_ny: int, grid: tuple[int, int]) -> tuple[np.ndarray, dict[int, tuple[int, ...]]]:
    """Owner per node (for nodes owned by one subdomain) and the sharing
    tuple for nodes on subdomain boundary lines."""
    gx, gy = grid
    mx, my = mesh_nx // gx, mesh_ny // gy
    ids = np.arange((mesh_nx + 1) * (mesh_ny + 1))
    ix = ids % (mesh_nx + 1)
    iy = ids // (mesh_nx + 1)
    shared = _interface_mask(ix, iy, mesh_nx, mesh_ny, mx, my)
    owner = (_node_axis_subs(iy, my, gy) * gx + _node_axis_subs(ix, mx, gx)).astype(np.int64)
    sharing: dict[int, tuple[int, ...]] = {}
    for n in np.flatnonzero(shared):
        i, j = int(ix[n]), int(iy[n])
        if i == 0:
            xs = (0,)
        elif i == mesh_nx:
            xs = (gx - 1,)
        elif i % mx == 0:
            xs = (i // mx - 1, i // mx)
        else:
            xs = (i // mx,)
        if j == 0:
            ys = (0,)
        elif j == mesh_ny:
            ys = (gy - 1,)
        elif j % my == 0:
            ys = (j // my - 1, j // my)
        else:
            ys = (j // my,)
        subs = tuple(sorted(sy * gx + sx for sy in ys for sx in xs))
        sharing[int(n)] = subs
    return owner, sharing


def partition(mesh: StructuredMesh, grid: tuple[int, int]) -> SubdomainPartition:
    gx, gy = grid
    if mesh.nx % gx or mesh.ny % gy:
        raise ConfigurationError(f"mesh {mesh.nx}x{mesh.ny} does not divide into a {gx}x{gy} subdomain grid")
    refined = mesh.refined_mesh
    mx, my = mesh.nx // gx, mesh.ny // gy

    def elems(m: StructuredMesh, per_x: int, per_y: int) -> dict[int, np.ndarray]:
        tri = np.arange(m.n_triangles)
        cells = tri // 2
        cx = cells % m.nx
        cy = cells // m.nx
        sub = (cy // per_y) * gx + (cx // per_x)
        order = np.argsort(sub, kind="stable")
        bounds = np.searchsorted(sub[order], np.arange(gx * gy + 1))
        return {s: np.sort(order[bounds[s] : bounds[s + 1]]) for s in range(gx * gy)}

    diam = float(np.hypot(1.0 / gx, 1.0 / gy))
    return SubdomainPartition(
        grid=grid,
        mesh=mesh,
        base_elements=elems(mesh, mx, my),
        refined_elements=elems(refined, 2 * mx, 2 * my),
        diameters=np.full(gx * gy, diam),
    )


# ---------------------------------------------------------------------------
# classification


@dataclass
class TornLayout:
    """Positions of every unknown in the torn vector

        w = (interior u | interior xi | interior p | broken dual u | primal u)

    and in the reduced interface vector  y = (xi_G | p_G | multipliers).
    """

    n_sub: int
    # w segment sizes
    n_u_int: int
    n_xi_int: int
    n_p_int: int
    n_dual_broken: int
    n_primal: int
    # per-subdomain gather indices into w for (uI, xiI, pI, uD) in that order
    r_indices: dict[int, np.ndarray]
    # w positions keyed by global dof id
    u_int_pos: np.ndarray
    xi_int_pos: np.ndarray
    p_int_pos: np.ndarray
    primal_pos: np.ndarray  # over u dofs, -1 if not primal
    dual_offset: dict[int, int]  # start of each subdomain's broken dual block
    # reduced side
    xi_iface: np.ndarray
    p_iface: np.ndarray
    n_lambda: int

    @property
    def n_w(self) -> int:
        return self.n_u_int + self.n_xi_int + self.n_p_int + self.n_dual_broken + self.n_primal

    @property
    def n_y(self) -> int:
        return self.xi_iface.size + self.p_iface.size + self.n_lambda

    @property
    def primal_slice(self) -> slice:
        start = self.n_u_int + self.n_xi_int + self.n_p_int + self.n_dual_broken
        return slice(start, start + self.n_primal)

    @property
    def dual_slice(self) -> slice:
        start = self.n_u_int + self.n_xi_int + self.n_p_int
        return slice(start, start + self.n_dual_broken)

    def xi_iface_pos(self, dofs: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.xi_iface, dofs)

    def p_iface_pos(self, dofs: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.p_iface, dofs)


@dataclass
class DofClassification:
    """Per-field interior / dual / primal / interface index sets."""

    variant: str
    grid: tuple[int, int]
    spaces: FeSpaceSet
    # displacement
    u_interior: dict[int, np.ndarray]
    u_dual: np.ndarray
    u_dual_pairs: np.ndarray  # (n_dual, 2), lower subdomain first
    u_sub_dual: dict[int, np.ndarray]
    u_primal: np.ndarray
    u_sub_primal: dict[int, np.ndarray]
    # total pressure
    xi_interior: dict[int, np.ndarray]
    xi_interface: np.ndarray
    xi_sub_interface: dict[int, np.ndarray]
    xi_sharing: dict[int, tuple[int, ...]]
    # pressure
    p_interior: dict[int, np.ndarray]
    p_dual: np.ndarray
    p_dual_pairs: np.ndarray
    p_primal: np.ndarray
    p_sub_primal: dict[int, np.ndarray]
    p_sub_interface: dict[int, np.ndarray]
    p_sharing: dict[int, tuple[int, ...]]
    # change of basis for the vertex-edge variant (None = nodal basis)
    u_transform: sp.csr_matrix | None = None
    p_transform: sp.csr_matrix | None = None
    _layout: TornLayout | None = field(default=None, repr=False)

    @property
    def n_subdomains(self) -> int:
        return self.grid[0] * self.grid[1]

    @property
    def p_interface(self) -> np.ndarray:
        return np.sort(np.concatenate([self.p_dual, self.p_primal]))

    def u_dual_pair(self, dof: int) -> tuple[int, int]:
        k = int(np.searchsorted(self.u_dual, dof))
        return tuple(self.u_dual_pairs[k])

    @property
    def layout(self) -> TornLayout:
        if self._layout is None:
            self._layout = _build_layout(self)
        return self._layout

    def to_json(self) -> str:
        def d(m: dict[int, np.ndarray]) -> dict[str, list[int]]:
            return {str(s): np.asarray(v).tolist() for s, v in sorted(m.items())}

        payload = {
            "variant": self.variant,
            "grid": list(self.grid),
            "displacement": {
                "interior": d(self.u_interior),
                "dual": self.u_dual.tolist(),
                "primal": self.u_primal.tolist(),
            },
            "total_pressure": {
                "interior": d(self.xi_interior),
                "interface": self.xi_interface.tolist(),
            },
            "pressure": {
                "interior": d(self.p_interior),
                "dual": self.p_dual.tolist(),
                "primal": self.p_primal.tolist(),
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _build_layout(cls: DofClassification) -> TornLayout:
    n_sub = cls.n_subdomains
    n_u = cls.spaces.n_u
    n_xi = cls.spaces.n_xi
    n_p = cls.spaces.n_p

    u_int_pos = np.full(n_u, -1, dtype=np.int64)
    xi_int_pos = np.full(n_xi, -1, dtype=np.int64)
    p_int_pos = np.full(n_p, -1, dtype=np.int64)
    primal_pos = np.full(n_u, -1, dtype=np.int64)

    off = 0
    u_off = {}
    for s in range(n_sub):
        ids = cls.u_interior[s]
        u_int_pos[ids] = off + np.arange(ids.size)
        u_off[s] = off
        off += ids.size
    n_u_int = off

    off = 0
    xi_off = {}
    for s in range(n_sub):
        ids = cls.xi_interior[s]
        xi_int_pos[ids] = n_u_int + off + np.arange(ids.size)
        xi_off[s] = off
        off += ids.size
    n_xi_int = off

    off = 0
    p_off = {}
    for s in range(n_sub):
        ids = cls.p_interior[s]
        p_int_pos[ids] = n_u_int + n_xi_int + off + np.arange(ids.size)
        p_off[s] = off
        off += ids.size
    n_p_int = off

    dual_offset = {}
    off = 0
    for s in range(n_sub):
        dual_offset[s] = off
        off += cls.u_sub_dual[s].size
    n_dual_broken = off
    dual_base = n_u_int + n_xi_int + n_p_int

    n_primal = cls.u_primal.size
    primal_base = dual_base + n_dual_broken
    primal_pos[cls.u_primal] = primal_base + np.arange(n_primal)

    r_indices = {}
    for s in range(n_sub):
        uI = u_int_pos[cls.u_interior[s]]
        xiI = xi_int_pos[cls.xi_interior[s]]
        pI = p_int_pos[cls.p_interior[s]]
        uD = dual_base + dual_offset[s] + np.arange(cls.u_sub_dual[s].size)
        r_indices[s] = np.concatenate([uI, xiI, pI, uD]).astype(np.int64)

    return TornLayout(
        n_sub=n_sub,
        n_u_int=n_u_int,
        n_xi_int=n_xi_int,
        n_p_int=n_p_int,
        n_dual_broken=n_dual_broken,
        n_primal=n_primal,
        r_indices=r_indices,
        u_int_pos=u_int_pos,
        xi_int_pos=xi_int_pos,
        p_int_pos=p_int_pos,
        primal_pos=primal_pos,
        dual_offset=dual_offset,
        xi_iface=cls.xi_interface,
        p_iface=cls.p_interface,
        n_lambda=cls.u_dual.size,
    )


def _edge_groups(nx: int, ny: int, grid: tuple[int, int]) -> list[tuple[tuple[int, int], np.ndarray]]:
    """Interior node runs of every subdomain edge, with the sharing pair."""
    gx, gy = grid
    mx, my = nx // gx, ny // gy
    groups = []
    for vx in range(1, gx):  # vertical edges
        ix = vx * mx
        for sy in range(gy):
            iys = np.arange(sy * my + 1, (sy + 1) * my)
            nodes = iys * (nx + 1) + ix
            pair = (sy * gx + vx - 1, sy * gx + vx)
            groups.append((pair, nodes))
    for hy in range(1, gy):  # horizontal edges
        iy = hy * my
        for sx in range(gx):
            ixs = np.arange(sx * mx + 1, (sx + 1) * mx)
            nodes = iy * (nx + 1) + ixs
            pair = ((hy - 1) * gx + sx, hy * gx + sx)
            groups.append((pair, nodes))
    return groups


def _average_basis_block(m: int) -> np.ndarray:
    """Columns: the constant vector, then e_j - 1/m (zero-average deviations)."""
    T = np.eye(m)
    T[:, 0] = 1.0
    T[:, 1:] -= 1.0 / m
    return T


def _build_transform(n: int, groups: list[np.ndarray]) -> sp.csr_matrix:
    """Identity outside the groups, the average/deviation block inside each."""
    in_group = np.zeros(n, dtype=bool)
    rows, cols, vals = [], [], []
    for g in groups:
        in_group[g] = True
        block = _average_basis_block(g.size)
        rr, cc = np.meshgrid(g, g, indexing="ij")
        rows.append(rr.ravel())
        cols.append(cc.ravel())
        vals.append(block.ravel())
    rest = np.flatnonzero(~in_group)
    rows.append(rest)
    cols.append(rest)
    vals.append(np.ones(rest.size))
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )


def classify_dofs(part: SubdomainPartition, spaces: FeSpaceSet, primal_variant: str) -> DofClassification:
    if primal_variant not in ("vertex", "vertex-edge"):
        raise ConfigurationError(f"unknown primal variant {primal_variant!r}")
    mesh = part.mesh
    refined = mesh.refined_mesh
    gx, gy = part.grid
    n_sub = gx * gy
    mx, my = mesh.nx // gx, mesh.ny // gy

    owner_r, sharing_r = _sharing_sets(refined.nx, refined.ny, part.grid)
    owner_b, sharing_b = _sharing_sets(mesh.nx, mesh.ny, part.grid)

    def is_cross_point(node: int, m: StructuredMesh, px: int, py: int) -> bool:
        # Subdomain lattice corners.  Only free nodes are classified, so
        # corners on the constrained boundary never reach this test; corners
        # on the traction boundary are genuine coarse vertices and stay
        # primal, which keeps the spectrum flat as subdomains are added.
        ix = node % (m.nx + 1)
        iy = node // (m.nx + 1)
        return ix % px == 0 and iy % py == 0

    def bucket_interior(nodes: np.ndarray, owner: np.ndarray) -> dict[int, np.ndarray]:
        order = np.argsort(owner[nodes], kind="stable")
        bounds = np.searchsorted(owner[nodes][order], np.arange(n_sub + 1))
        return {s: np.sort(nodes[order[bounds[s] : bounds[s + 1]]]) for s in range(n_sub)}

    # --- displacement -----------------------------------------------------
    ids_u = spaces.u_free_nodes
    iface_u = _interface_mask(
        ids_u % (refined.nx + 1), ids_u // (refined.nx + 1), refined.nx, refined.ny, 2 * mx, 2 * my
    )
    u_interior = {
        s: np.repeat(spaces.u_dof_of_node[nodes], 2) + np.tile([0, 1], nodes.size)
        for s, nodes in bucket_interior(ids_u[~iface_u], owner_r).items()
    }
    u_dual: list[int] = []
    u_dual_pairs: list[tuple[int, int]] = []
    u_primal: list[int] = []

    for node in ids_u[iface_u]:
        dof = int(spaces.u_dof_of_node[node])
        subs = sharing_r[int(node)]
        if is_cross_point(int(node), refined, 2 * mx, 2 * my):
            u_primal.extend((dof, dof + 1))
        else:
            if len(subs) != 2:
                raise InternalError(f"dual displacement node {node} shared by {len(subs)} subdomains")
            u_dual.extend((dof, dof + 1))
            u_dual_pairs.extend([subs, subs])

    # --- total pressure ---------------------------------------------------
    xi_interface: list[int] = []
    xi_sharing: dict[int, tuple[int, ...]] = {}
    if spaces.total_pressure_variant == "p0":
        xi_interior = {s: np.asarray(part.base_elements[s], dtype=np.int64) for s in range(n_sub)}
    else:
        ids_xi = np.arange(mesh.n_nodes)
        iface_xi = _interface_mask(ids_xi % (mesh.nx + 1), ids_xi // (mesh.nx + 1), mesh.nx, mesh.ny, mx, my)
        xi_interior = bucket_interior(ids_xi[~iface_xi], owner_b)
        for node in ids_xi[iface_xi]:
            xi_interface.append(int(node))
            xi_sharing[int(node)] = sharing_b[int(node)]

    # --- pressure ---------------------------------------------------------
    ids_p = spaces.p_free_nodes
    iface_p = _interface_mask(ids_p % (mesh.nx + 1), ids_p // (mesh.nx + 1), mesh.nx, mesh.ny, mx, my)
    p_interior = {
        s: spaces.p_dof_of_node[nodes] for s, nodes in bucket_interior(ids_p[~iface_p], owner_b).items()
    }
    p_dual: list[int] = []
    p_dual_pairs: list[tuple[int, int]] = []
    p_primal: list[int] = []
    p_sharing: dict[int, tuple[int, ...]] = {}

    for node in ids_p[iface_p]:
        dof = int(spaces.p_dof_of_node[node])
        subs = sharing_b[int(node)]
        if is_cross_point(int(node), mesh, mx, my):
            p_primal.append(dof)
            p_sharing[dof] = subs
        else:
            if len(subs) != 2:
                raise InternalError(f"dual pressure node {node} shared by {len(subs)} subdomains")
            p_dual.append(dof)
            p_dual_pairs.append(subs)
            p_sharing[dof] = subs

    u_transform = p_transform = None
    if primal_variant == "vertex-edge":
        # displacement: one average per subdomain edge per component, taken
        # over the refined-level edge interior nodes
        pair_of = {int(d): p for d, p in zip(u_dual, u_dual_pairs)}
        promoted: set[int] = set()
        u_groups = []
        for pair, nodes in _edge_groups(refined.nx, refined.ny, part.grid):
            dofs0 = spaces.u_dof_of_node[nodes]
            if np.any(dofs0 < 0):
                raise InternalError("edge interior node unexpectedly constrained")
            for comp in range(2):
                group = dofs0 + comp
                u_groups.append(group)
                # first dof now carries the edge average: promote to primal
                promoted.add(int(group[0]))
                u_primal.append(int(group[0]))
        u_dual = [d for d in u_dual if int(d) not in promoted]
        u_dual_pairs = [pair_of[int(d)] for d in u_dual]
        u_transform = _build_transform(spaces.n_u, u_groups)

        p_promoted: set[int] = set()
        ppair_of = {int(d): p for d, p in zip(p_dual, p_dual_pairs)}
        p_groups = []
        for pair, nodes in _edge_groups(mesh.nx, mesh.ny, part.grid):
            group = spaces.p_dof_of_node[nodes]
            group = group[group >= 0]
            if group.size == 0:
                continue
            p_groups.append(group)
            p_promoted.add(int(group[0]))
            p_primal.append(int(group[0]))
            p_sharing[int(group[0])] = pair
        p_dual = [d for d in p_dual if int(d) not in p_promoted]
        p_dual_pairs = [ppair_of[int(d)] for d in p_dual]
        p_transform = _build_transform(spaces.n_p, p_groups)

    # --- sort and bucket --------------------------------------------------
    u_pair_of = {int(d): p for d, p in zip(u_dual, u_dual_pairs)}
    u_dual = np.array(sorted(u_dual), dtype=np.int64)
    u_dual_pairs_arr = np.array([u_pair_of[int(d)] for d in u_dual], dtype=np.int64).reshape(-1, 2)

    u_primal_arr = np.array(sorted(u_primal), dtype=np.int64)
    p_dual_arr = np.array(sorted(p_dual), dtype=np.int64)
    p_primal_arr = np.array(sorted(p_primal), dtype=np.int64)
    p_dual_pairs_arr = np.array(
        [p_sharing[int(d)] for d in p_dual_arr] if len(p_dual_arr) else [], dtype=np.int64
    ).reshape(-1, 2)

    u_sub_dual = {s: [] for s in range(n_sub)}
    for d, pr in zip(u_dual, u_dual_pairs_arr):
        for s in pr:
            u_sub_dual[int(s)].append(int(d))
    u_sub_primal = {s: [] for s in range(n_sub)}
    # primal adjacency: vertex primal dofs touch every sharing subdomain,
    # edge averages touch the edge's pair; invert the dof map to find nodes
    node_of_udof = np.full(spaces.n_u, -1, dtype=np.int64)
    node_of_udof[spaces.u_dof_of_node[spaces.u_free_nodes]] = spaces.u_free_nodes
    node_of_udof[spaces.u_dof_of_node[spaces.u_free_nodes] + 1] = spaces.u_free_nodes

    edge_pair_u: dict[int, tuple[int, ...]] = {}
    if primal_variant == "vertex-edge":
        for pair, nodes in _edge_groups(refined.nx, refined.ny, part.grid):
            dofs0 = spaces.u_dof_of_node[nodes]
            for comp in range(2):
                edge_pair_u[int(dofs0[0] + comp)] = pair

    for dof in u_primal_arr:
        if int(dof) in edge_pair_u:
            subs = edge_pair_u[int(dof)]
        else:
            subs = sharing_r[int(node_of_udof[dof])]
        for s in subs:
            u_sub_primal[s].append(int(dof))

    p_sub_primal = {s: [] for s in range(n_sub)}
    p_sub_iface = {s: [] for s in range(n_sub)}
    for dof in p_primal_arr:
        for s in p_sharing[int(dof)]:
            p_sub_primal[s].append(int(dof))
            p_sub_iface[s].append(int(dof))
    for dof, pr in zip(p_dual_arr, p_dual_pairs_arr):
        for s in pr:
            p_sub_iface[int(s)].append(int(dof))

    xi_interface_arr = np.array(sorted(xi_interface), dtype=np.int64)
    xi_sub_iface = {s: [] for s in range(n_sub)}
    for dof in xi_interface_arr:
        for s in xi_sharing[int(dof)]:
            xi_sub_iface[s].append(int(dof))

    cls = DofClassification(
        variant=primal_variant,
        grid=part.grid,
        spaces=spaces,
        u_interior={s: np.sort(np.asarray(v, dtype=np.int64)) for s, v in u_interior.items()},
        u_dual=u_dual,
        u_dual_pairs=u_dual_pairs_arr,
        u_sub_dual={s: np.array(sorted(v), dtype=np.int64) for s, v in u_sub_dual.items()},
        u_primal=u_primal_arr,
        u_sub_primal={s: np.array(sorted(set(v)), dtype=np.int64) for s, v in u_sub_primal.items()},
        xi_interior={s: np.sort(np.asarray(v, dtype=np.int64)) for s, v in xi_interior.items()},
        xi_interface=xi_interface_arr,
        xi_sub_interface={s: np.array(sorted(v), dtype=np.int64) for s, v in xi_sub_iface.items()},
        xi_sharing=xi_sharing,
        p_interior={s: np.sort(np.asarray(v, dtype=np.int64)) for s, v in p_interior.items()},
        p_dual=p_dual_arr,
        p_dual_pairs=p_dual_pairs_arr,
        p_primal=p_primal_arr,
        p_sub_primal={s: np.array(sorted(set(v)), dtype=np.int64) for s, v in p_sub_primal.items()},
        p_sub_interface={s: np.array(sorted(set(v)), dtype=np.int64) for s, v in p_sub_iface.items()},
        p_sharing=p_sharing,
        u_transform=u_transform,
        p_transform=p_transform,
    )
    _check_floating(cls, part, spaces)
    return cls


def _check_floating(cls: DofClassification, part: SubdomainPartition, spaces: FeSpaceSet) -> None:
    """A subdomain with no Dirichlet contact needs at least two primal
    constraint locations to pin its rigid motions."""
    gx, gy = part.grid
    dsides = spaces.bc.displacement_dirichlet
    for s in range(part.n_subdomains):
        sx, sy = s % gx, s // gx
        touches = (
            (sx == 0 and "left" in dsides)
            or (sx == gx - 1 and "right" in dsides)
            or (sy == 0 and "bottom" in dsides)
            or (sy == gy - 1 and "top" in dsides)
        )
        if touches:
            continue
        # every primal dof pairs with its sibling component at the same node,
        # so distinct nodes count distinct constraint locations
        n_locations = len({int(d) // 2 for d in cls.u_sub_primal[s]})
        if n_locations < 2:
            raise ConfigurationError(
                f"subdomain {s} floats: no Dirichlet contact and only {n_locations} primal constraint location(s)"
            )


# ---------------------------------------------------------------------------
# scalings


@dataclass
class ScalingWeights:
    """Stiffness-weighted interface averages.

    Weights per interface dof sum to one exactly: the highest sharing
    subdomain's weight is computed as one minus the others.
    """

    disp: dict[int, tuple[tuple[int, ...], np.ndarray]]
    total_pressure: dict[int, tuple[tuple[int, ...], np.ndarray]]
    pressure: dict[int, tuple[tuple[int, ...], np.ndarray]]

    def weight(self, field: str, dof: int, sub: int) -> float:
        table = getattr(self, field)
        subs, w = table[int(dof)]
        return float(w[subs.index(sub)])


def _normalized(subs: tuple[int, ...], raw: np.ndarray) -> np.ndarray:
    w = raw / raw.sum()
    if len(subs) > 1:
        w[-1] = 1.0 - float(np.add.reduce(w[:-1]))
    else:
        w[0] = 1.0
    return w


def build_scalings(cls: DofClassification, materials: MaterialField) -> ScalingWeights:
    disp = {}
    for dof, pr in zip(cls.u_dual, cls.u_dual_pairs):
        subs = tuple(int(s) for s in pr)
        disp[int(dof)] = (subs, _normalized(subs, materials.mu[list(subs)].astype(float)))
    total_pressure = {}
    for dof in cls.xi_interface:
        subs = cls.xi_sharing[int(dof)]
        total_pressure[int(dof)] = (subs, _normalized(subs, 1.0 / materials.mu[list(subs)]))
    pressure = {}
    for dof, subs in sorted(cls.p_sharing.items()):
        pressure[int(dof)] = (subs, _normalized(subs, materials.kappa[list(subs)].astype(float)))
    return ScalingWeights(disp=disp, total_pressure=total_pressure, pressure=pressure)


# ---------------------------------------------------------------------------
# jump operator


@dataclass
class JumpOperator:
    """Signed jumps across the torn dual displacement copies.

    One row per dual dof; the copy owned by the lower subdomain index gets
    +1, the other -1.  The scaled variant carries each subdomain's own
    stiffness weight in place of the unit entries.
    """

    jump: sp.csr_matrix
    jump_scaled: sp.csr_matrix
    n_multipliers: int


def build_jump(cls: DofClassification, scalings: ScalingWeights) -> JumpOperator:
    layout = cls.layout
    n_lam = cls.u_dual.size
    n_broken = layout.n_dual_broken
    rows = np.repeat(np.arange(n_lam), 2)
    cols = np.empty(2 * n_lam, dtype=np.int64)
    vals = np.empty(2 * n_lam)
    svals = np.empty(2 * n_lam)
    for k, (dof, pr) in enumerate(zip(cls.u_dual, cls.u_dual_pairs)):
        i, j = int(pr[0]), int(pr[1])
        ci = layout.dual_offset[i] + int(np.searchsorted(cls.u_sub_dual[i], dof))
        cj = layout.dual_offset[j] + int(np.searchsorted(cls.u_sub_dual[j], dof))
        cols[2 * k], cols[2 * k + 1] = ci, cj
        vals[2 * k], vals[2 * k + 1] = 1.0, -1.0
        subs, w = scalings.disp[int(dof)]
        svals[2 * k] = w[subs.index(i)]
        svals[2 * k + 1] = -w[subs.index(j)]
    jump = sp.csr_matrix((vals, (rows, cols)), shape=(n_lam, n_broken))
    jump_scaled = sp.csr_matrix((svals, (rows, cols)), shape=(n_lam, n_broken))
    ident = jump @ jump_scaled.T
    if (ident - sp.identity(n_lam)).nnz != 0:
        raise InternalError("jump partition-of-unity identity failed")
    return JumpOperator(jump=jump, jump_scaled=jump_scaled, n_multipliers=n_lam)


# ---------------------------------------------------------------------------
# restrictions


@dataclass
class RestrictionSet:
    """Transfer operators between assembled, partially assembled, and broken
    interface spaces for the two pressure-like fields."""

    # total pressure: broken layout (each subdomain's interface dofs in turn)
    xi_break: sp.csr_matrix
    xi_break_scaled: sp.csr_matrix
    # pressure: partially assembled layout (broken duals by subdomain | primal)
    p_inject: sp.csr_matrix
    p_inject_scaled: sp.csr_matrix

    def averaging_xi(self) -> sp.csr_matrix:
        """Projection onto continuous vectors in the broken total-pressure space."""
        return self.xi_break @ self.xi_break_scaled.T

    def averaging_p(self) -> sp.csr_matrix:
        """Projection onto continuous vectors in the partially assembled space."""
        return self.p_inject @ self.p_inject_scaled.T


def _exact_identity(m: sp.spmatrix, n: int, what: str) -> None:
    diff = (m - sp.identity(n)).tocoo()
    if diff.nnz and np.max(np.abs(diff.data)) != 0.0:
        raise InternalError(f"{what} transfer identity failed (max error {np.max(np.abs(diff.data))})")


def build_restrictions(cls: DofClassification, scalings: ScalingWeights) -> RestrictionSet:
    layout = cls.layout
    n_sub = cls.n_subdomains
    xi_iface = layout.xi_iface
    p_iface = layout.p_iface

    xi_local = {}
    xi_local_scaled = {}
    for s in range(n_sub):
        ids = cls.xi_sub_interface[s]
        pos = layout.xi_iface_pos(ids)
        rows = np.arange(ids.size)
        ones = np.ones(ids.size)
        w = np.array([scalings.weight("total_pressure", d, s) for d in ids]) if ids.size else np.zeros(0)
        xi_local[s] = sp.csr_matrix((ones, (rows, pos)), shape=(ids.size, xi_iface.size))
        xi_local_scaled[s] = sp.csr_matrix((w, (rows, pos)), shape=(ids.size, xi_iface.size))
    xi_break = sp.vstack([xi_local[s] for s in range(n_sub)], format="csr") if n_sub else sp.csr_matrix((0, 0))
    xi_break_scaled = sp.vstack([xi_local_scaled[s] for s in range(n_sub)], format="csr")
    if xi_iface.size:
        _exact_identity(xi_break.T @ xi_break_scaled, xi_iface.size, "total pressure")

    # pressure: tilde layout rows = broken duals (by subdomain) then primal
    dual_rows = []
    dual_cols = []
    dual_w = []
    off = 0
    for s in range(n_sub):
        ids = cls.p_sub_interface[s]
        duals = ids[np.isin(ids, cls.p_dual)]
        pos = layout.p_iface_pos(duals)
        dual_rows.append(off + np.arange(duals.size))
        dual_cols.append(pos)
        dual_w.append(np.array([scalings.weight("pressure", d, s) for d in duals]))
        off += duals.size
    n_dual_broken = off
    n_primal = cls.p_primal.size
    n_tilde = n_dual_broken + n_primal
    prim_pos = layout.p_iface_pos(cls.p_primal)

    rows = np.concatenate(dual_rows + [n_dual_broken + np.arange(n_primal)]) if n_tilde else np.zeros(0, np.int64)
    colsv = np.concatenate(dual_cols + [prim_pos]) if n_tilde else np.zeros(0, np.int64)
    ones = np.ones(rows.size)
    wts = np.concatenate(dual_w + [np.ones(n_primal)]) if n_tilde else np.zeros(0)
    p_inject = sp.csr_matrix((ones, (rows, colsv)), shape=(n_tilde, p_iface.size))
    p_inject_scaled = sp.csr_matrix((wts, (rows, colsv)), shape=(n_tilde, p_iface.size))
    if p_iface.size:
        _exact_identity(p_inject.T @ p_inject_scaled, p_iface.size, "pressure")

    return RestrictionSet(
        xi_break=xi_break,
        xi_break_scaled=xi_break_scaled,
        p_inject=p_inject,
        p_inject_scaled=p_inject_scaled,
    )


# ---------------------------------------------------------------------------
# change of basis


def _blockwise(T: sp.csr_matrix, dofs: np.ndarray, off: np.ndarray) -> sp.csr_matrix:
    """Block-diagonal matrix whose block s is T restricted to the rows and
    columns of subdomain s's stacked dofs ``dofs[off[s]:off[s+1]]``."""
    n = T.shape[0]
    sub = np.repeat(np.arange(off.size - 1), np.diff(off))
    keys = sub * n + dofs  # ascending: subdomains in turn, each with its dofs sorted
    R = T.tocsr()[dofs]
    rows = np.repeat(np.arange(dofs.size), np.diff(R.indptr))
    want = sub[rows] * n + R.indices
    pos = np.minimum(np.searchsorted(keys, want), max(keys.size - 1, 0))
    ok = keys[pos] == want
    return sp.csr_matrix((R.data[ok], (rows[ok], pos[ok])), shape=(dofs.size, dofs.size))


def _drop_roundoff(M: sp.spmatrix, row_off: np.ndarray) -> sp.csr_matrix:
    """A block-diagonal matrix without the entries at or below
    _CONGRUENCE_RTOL times the largest entry of their diagonal block.

    A change of basis leaves roundoff-level fill that cancels to an exact
    zero in some subdomains and survives in congruent others; dropping it
    gives congruent subdomains one sparsity pattern again.
    """
    M = M.tocsr()
    row_sub = np.repeat(np.arange(row_off.size - 1), np.diff(row_off))
    rows = np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))
    mag = np.abs(M.data)
    scale = np.zeros(row_off.size - 1)
    np.maximum.at(scale, row_sub[rows], mag)
    keep = mag > _CONGRUENCE_RTOL * scale[row_sub[rows]]
    return sp.coo_matrix((M.data[keep], (rows[keep], M.indices[keep])), shape=M.shape).tocsr()


def transform_system(system: BlockSystem, cls: DofClassification) -> BlockSystem:
    """Re-express the assembled and local blocks in the edge-average basis.

    Returns the input unchanged for the nodal (vertex) variant.  The
    transformation touches interface dofs only, so each subdomain's local
    blocks stay local: the stacked blocks are transformed by one
    block-diagonal product each.
    """
    Tu, Tp = cls.u_transform, cls.p_transform
    if Tu is None:
        return system
    st = system.stacked
    Tu_s = _blockwise(Tu, st.dofs["u"], st.off["u"])
    Tp_s = _blockwise(Tp, st.dofs["p"], st.off["p"])
    stacked = replace(
        st,
        A=_drop_roundoff(Tu_s.T @ st.A @ Tu_s, st.off["u"]),
        B=_drop_roundoff(st.B @ Tu_s, st.off["xi"]),
        D=_drop_roundoff(Tp_s.T @ st.D, st.off["p"]),
        E=_drop_roundoff(Tp_s.T @ st.E @ Tp_s, st.off["p"]),
        f=Tu_s.T @ st.f,
        g=Tp_s.T @ st.g,
    )
    return BlockSystem(
        spaces=system.spaces,
        materials=system.materials,
        bc=system.bc,
        load=system.load,
        grid=system.grid,
        A=(Tu.T @ system.A @ Tu).tocsr(),
        B=(system.B @ Tu).tocsr(),
        C=system.C,
        D=(Tp.T @ system.D).tocsr(),
        E=(Tp.T @ system.E @ Tp).tocsr(),
        f=Tu.T @ system.f,
        g=Tp.T @ system.g,
        stacked=stacked,
    )


def recover_nodal(cls: DofClassification, u: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map edge-average-basis coefficient vectors back to nodal values."""
    if cls.u_transform is None:
        return u, p
    return cls.u_transform @ u, cls.p_transform @ p
