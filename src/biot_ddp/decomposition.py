"""Subdomain partitioning and interface dof classification.

Splits every field into subdomain-interior and interface unknowns.
Displacement interface dofs are further divided into primal (continuous,
kept in the coarse problem) and dual (torn, constrained by Lagrange
multipliers); pressure interface dofs get the same split for use inside
the balancing preconditioner; total pressure interface dofs stay in one
undivided continuous block.

Which subdomains share each dof is read off one incidence table per field:
the sorted (dof, subdomain) rows of every subdomain whose closure holds the
dof's node.  A dof with one sharer is interior to it, the others form the
interface.  The per-subdomain interface sets, the stiffness weights, the
jump and the pressure transfers are all read off these rows; each field's
broken layout is its table taken in (subdomain, dof) order.

Primal sets always contain the interior cross points of the subdomain
grid.  The "vertex-edge" variant additionally constrains one average per
subdomain edge (per displacement component, and per pressure edge) via an
explicit change of basis: the first dof of each edge carries the average
and turns primal, the remaining edge dofs become average-free duals.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .mesh_fem import (
    SIDES,
    BlockSystem,
    ConfigurationError,
    FeSpaceSet,
    MaterialField,
    StructuredMesh,
    block_positions,
    element_subdomains,
    sorted_unique,
    subdomain_sides,
)


class InternalError(RuntimeError):
    """Raised when a build-time self check fails."""


# Entries of a local block at or below this fraction of its largest entry
# are roundoff: the change of basis drops them.
_CONGRUENCE_RTOL = 1e-13


# ---------------------------------------------------------------------------
# partition


@dataclass
class SubdomainPartition:
    """Tensor grid of rectangular subdomains aligned with the base mesh."""

    grid: tuple[int, int]
    mesh: StructuredMesh
    base_elements: dict[int, np.ndarray]  # each subdomain's base triangles, ascending

    @property
    def n_subdomains(self) -> int:
        return self.grid[0] * self.grid[1]


def partition(mesh: StructuredMesh, grid: tuple[int, int]) -> SubdomainPartition:
    gx, gy = grid
    if mesh.nx % gx or mesh.ny % gy:
        raise ConfigurationError(f"mesh {mesh.nx}x{mesh.ny} does not divide into a {gx}x{gy} subdomain grid")
    sub = element_subdomains(mesh, grid)
    elems = np.split(np.argsort(sub, kind="stable"), np.cumsum(np.bincount(sub, minlength=gx * gy))[:-1])
    return SubdomainPartition(grid=grid, mesh=mesh, base_elements=dict(enumerate(elems)))


# ---------------------------------------------------------------------------
# incidence


@dataclass(frozen=True)
class Incidence:
    """Which subdomains share each dof of one field.

    One row (dof[k], sub[k]) per sharing subdomain, sorted by dof and then
    by subdomain, so a dof shared by two subdomains lists the lower first.
    """

    dof: np.ndarray
    sub: np.ndarray

    def select(self, keep: np.ndarray) -> "Incidence":
        return Incidence(self.dof[keep], self.sub[keep])

    def group(self) -> np.ndarray:
        """Index of each row's dof among the distinct dofs of the table."""
        return np.cumsum(np.diff(self.dof, prepend=-1) != 0) - 1

    def sharer_count(self) -> np.ndarray:
        """Number of subdomains sharing each row's dof."""
        group = self.group()
        return np.bincount(group)[group]

    def broken_pos(self) -> np.ndarray:
        """Position of each row in the field's broken layout: subdomains in
        turn, each with its dofs sorted."""
        pos = np.empty(self.sub.size, dtype=np.int64)
        pos[np.argsort(self.sub, kind="stable")] = np.arange(self.sub.size)
        return pos

    def by_subdomain(self, n_sub: int) -> dict[int, np.ndarray]:
        """Each subdomain's sorted dofs."""
        order = np.argsort(self.sub, kind="stable")
        bounds = np.searchsorted(self.sub[order], np.arange(n_sub + 1))
        dofs = self.dof[order]
        return {s: dofs[bounds[s] : bounds[s + 1]] for s in range(n_sub)}

    def sharers(self, dof: int) -> np.ndarray:
        lo, hi = np.searchsorted(self.dof, [dof, dof + 1])
        return self.sub[lo:hi]

    def row(self, dof: int, sub: int) -> int:
        lo = int(np.searchsorted(self.dof, dof))
        return lo + int(np.flatnonzero(self.sharers(dof) == sub)[0])


def _incidence(m: StructuredMesh, grid: tuple[int, int], nodes: np.ndarray, dofs: np.ndarray) -> Incidence:
    """Incidence of the dofs ``dofs`` sitting at the nodes ``nodes`` of ``m``.

    Along one axis, node line i of a g-subdomain grid m cells wide lies in
    subdomains (i-1)//m and i//m, clipped to the grid; a node lies in the
    cross product of its two axes' subdomains.
    """
    gx, gy = grid
    n_sub = gx * gy
    mx, my = m.nx // gx, m.ny // gy
    ix, iy = m.node_ix(nodes), m.node_iy(nodes)
    sx = np.clip([(ix - 1) // mx, ix // mx], 0, gx - 1)
    sy = np.clip([(iy - 1) // my, iy // my], 0, gy - 1)
    keys = sorted_unique(dofs * n_sub + (sy[:, None] * gx + sx[None, :]).reshape(4, -1))
    return Incidence(keys // n_sub, keys % n_sub)


def _split_interior(inc: Incidence, n_sub: int) -> tuple[dict[int, np.ndarray], Incidence]:
    """Each subdomain's interior dofs (one sharer) and the interface rows."""
    shared = inc.sharer_count() > 1
    return inc.select(~shared).by_subdomain(n_sub), inc.select(shared)


def _lattice_corners(
    m: StructuredMesh, grid: tuple[int, int], nodes: np.ndarray, dofs: np.ndarray, n: int
) -> np.ndarray:
    """Flag over a field's n dofs: the node is a corner of the subdomain lattice.

    Only free nodes are classified, so corners on the constrained boundary
    never reach this test; corners on the traction boundary are genuine
    coarse vertices and stay primal, which keeps the spectrum flat as
    subdomains are added.
    """
    gx, gy = grid
    flag = np.zeros(n, dtype=bool)
    flag[dofs] = (m.node_ix(nodes) % (m.nx // gx) == 0) & (m.node_iy(nodes) % (m.ny // gy) == 0)
    return flag


def _check_dual_pairs(iface: Incidence, corner: np.ndarray, what: str) -> None:
    """Every interface dof off the lattice corners is shared by exactly two subdomains."""
    count = iface.sharer_count()
    bad = np.flatnonzero(~corner[iface.dof] & (count != 2))
    if bad.size:
        raise InternalError(f"dual {what} dof {iface.dof[bad[0]]} shared by {count[bad[0]]} subdomains")


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
    dual_offset: np.ndarray  # start of each subdomain's broken dual block, then the end
    # reduced side
    xi_iface: np.ndarray
    p_iface: np.ndarray
    n_lambda: int

    @property
    def n_w(self) -> int:
        return self.n_u_int + self.n_xi_int + self.n_p_int + self.n_dual_broken + self.n_primal

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

    grid: tuple[int, int]
    spaces: FeSpaceSet
    # interface incidence of each field (the u table holds primal and dual dofs)
    u_incidence: Incidence
    xi_incidence: Incidence
    p_incidence: Incidence
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
    # pressure
    p_interior: dict[int, np.ndarray]
    p_dual: np.ndarray
    p_primal: np.ndarray
    p_sub_interface: dict[int, np.ndarray]
    p_sub_dual: dict[int, np.ndarray]
    p_sub_primal: dict[int, np.ndarray]
    # change of basis for the vertex-edge variant (None = nodal basis)
    u_transform: sp.csr_matrix | None = None
    p_transform: sp.csr_matrix | None = None
    _layout: TornLayout | None = field(default=None, repr=False)

    @property
    def n_subdomains(self) -> int:
        return self.grid[0] * self.grid[1]

    @property
    def p_interface(self) -> np.ndarray:
        return np.unique(self.p_incidence.dof)

    @property
    def u_dual_incidence(self) -> Incidence:
        """The rows of the dual displacement dofs: one per torn copy."""
        return Incidence(np.repeat(self.u_dual, 2), self.u_dual_pairs.ravel())

    @property
    def layout(self) -> TornLayout:
        if self._layout is None:
            self._layout = _build_layout(self)
        return self._layout


def _stack(buckets: dict[int, np.ndarray], n: int, base: int) -> tuple[np.ndarray, int]:
    """Positions base, base + 1, ... of the per-subdomain buckets laid end to
    end, as a map over the field's n dofs (-1 outside them), and the end."""
    ids = np.concatenate(list(buckets.values()))
    pos = np.full(n, -1, dtype=np.int64)
    pos[ids] = base + np.arange(ids.size)
    return pos, base + ids.size


def _build_layout(cls: DofClassification) -> TornLayout:
    n_sub = cls.n_subdomains
    spaces = cls.spaces
    u_int_pos, xi_base = _stack(cls.u_interior, spaces.n_u, 0)
    xi_int_pos, p_base = _stack(cls.xi_interior, spaces.n_xi, xi_base)
    p_int_pos, dual_base = _stack(cls.p_interior, spaces.n_p, p_base)
    dual_offset = np.concatenate([[0], np.cumsum(np.bincount(cls.u_dual_pairs.ravel(), minlength=n_sub))])
    n_dual_broken = int(dual_offset[-1])

    n_primal = cls.u_primal.size
    primal_pos = np.full(spaces.n_u, -1, dtype=np.int64)
    primal_pos[cls.u_primal] = dual_base + n_dual_broken + np.arange(n_primal)

    r_indices = {
        s: np.concatenate(
            [
                u_int_pos[cls.u_interior[s]],
                xi_int_pos[cls.xi_interior[s]],
                p_int_pos[cls.p_interior[s]],
                dual_base + np.arange(dual_offset[s], dual_offset[s + 1]),
            ]
        )
        for s in range(n_sub)
    }

    return TornLayout(
        n_sub=n_sub,
        n_u_int=xi_base,
        n_xi_int=p_base - xi_base,
        n_p_int=dual_base - p_base,
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


def _edge_groups(nx: int, ny: int, grid: tuple[int, int]) -> list[np.ndarray]:
    """Interior node runs of every subdomain edge."""
    gx, gy = grid
    mx, my = nx // gx, ny // gy
    groups = []
    for vx in range(1, gx):  # vertical edges
        ix = vx * mx
        for sy in range(gy):
            iys = np.arange(sy * my + 1, (sy + 1) * my)
            groups.append(iys * (nx + 1) + ix)
    for hy in range(1, gy):  # horizontal edges
        iy = hy * my
        for sx in range(gx):
            ixs = np.arange(sx * mx + 1, (sx + 1) * mx)
            groups.append(iy * (nx + 1) + ixs)
    return groups


def _average_basis_block(m: int) -> np.ndarray:
    """Columns: the constant vector, then e_j - 1/m (zero-average deviations)."""
    T = np.eye(m)
    T[:, 0] = 1.0
    T[:, 1:] -= 1.0 / m
    return T


def _build_transform(n: int, groups: list[np.ndarray]) -> sp.csr_matrix:
    """Identity outside the groups, the average/deviation block inside each.

    The groups of one size (at most one per edge direction) are
    stacked into a (groups, m) array and their blocks written in one pass:
    entry (i, j) of a group's block sits at row g[i], column g[j].
    """
    in_group = np.zeros(n, dtype=bool)
    rows, cols, vals = [], [], []
    sizes = np.array([g.size for g in groups], dtype=np.int64)
    for m in np.unique(sizes):
        G = np.stack([g for g, size in zip(groups, sizes) if size == m])
        in_group[G] = True
        rows.append(np.repeat(G, m, axis=1).ravel())
        cols.append(np.tile(G, (1, m)).ravel())
        vals.append(np.tile(_average_basis_block(m).ravel(), len(G)))
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
    grid = part.grid
    n_sub = part.n_subdomains

    # displacement dofs 2k and 2k+1 sit at the k-th free refined node
    u_nodes = np.repeat(spaces.u_free_nodes, 2)
    u_dofs = spaces.u_dof_of_node[u_nodes] + np.tile([0, 1], spaces.u_free_nodes.size)
    u_interior, u_iface = _split_interior(_incidence(refined, grid, u_nodes, u_dofs), n_sub)
    u_is_primal = _lattice_corners(refined, grid, u_nodes, u_dofs, spaces.n_u)
    _check_dual_pairs(u_iface, u_is_primal, "displacement")

    p_nodes = spaces.p_free_nodes
    p_dofs = spaces.p_dof_of_node[p_nodes]
    p_interior, p_iface = _split_interior(_incidence(mesh, grid, p_nodes, p_dofs), n_sub)
    p_is_primal = _lattice_corners(mesh, grid, p_nodes, p_dofs, spaces.n_p)
    _check_dual_pairs(p_iface, p_is_primal, "pressure")

    if spaces.total_pressure_variant == "p0":
        xi_interior = {s: np.asarray(part.base_elements[s], dtype=np.int64) for s in range(n_sub)}
        xi_iface = Incidence(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    else:
        nodes = np.arange(mesh.n_nodes)
        xi_interior, xi_iface = _split_interior(_incidence(mesh, grid, nodes, nodes), n_sub)

    u_transform = p_transform = None
    if primal_variant == "vertex-edge":
        # displacement: one average per subdomain edge per component, taken
        # over the refined-level edge interior nodes; pressure: one per edge
        # over its free base-level nodes.  The first dof of each edge then
        # carries the average and turns primal; its sharers are the edge's
        # pair already.
        u_edges = [spaces.u_dof_of_node[nodes] for nodes in _edge_groups(refined.nx, refined.ny, grid)]
        if any(np.any(dofs < 0) for dofs in u_edges):
            raise InternalError("edge interior node unexpectedly constrained")
        u_groups = [dofs + comp for dofs in u_edges for comp in range(2)]
        p_edges = [spaces.p_dof_of_node[nodes] for nodes in _edge_groups(mesh.nx, mesh.ny, grid)]
        p_groups = [dofs[dofs >= 0] for dofs in p_edges if np.any(dofs >= 0)]
        u_is_primal[[dofs[0] for dofs in u_groups]] = True
        p_is_primal[[dofs[0] for dofs in p_groups]] = True
        u_transform = _build_transform(spaces.n_u, u_groups)
        p_transform = _build_transform(spaces.n_p, p_groups)

    u_primal = u_iface.select(u_is_primal[u_iface.dof])
    u_dual = u_iface.select(~u_is_primal[u_iface.dof])
    p_primal = p_iface.select(p_is_primal[p_iface.dof])
    p_dual = p_iface.select(~p_is_primal[p_iface.dof])
    cls = DofClassification(
        grid=grid,
        spaces=spaces,
        u_incidence=u_iface,
        xi_incidence=xi_iface,
        p_incidence=p_iface,
        u_interior=u_interior,
        u_dual=np.unique(u_dual.dof),
        u_dual_pairs=u_dual.sub.reshape(-1, 2),
        u_sub_dual=u_dual.by_subdomain(n_sub),
        u_primal=np.unique(u_primal.dof),
        u_sub_primal=u_primal.by_subdomain(n_sub),
        xi_interior=xi_interior,
        xi_interface=np.unique(xi_iface.dof),
        xi_sub_interface=xi_iface.by_subdomain(n_sub),
        p_interior=p_interior,
        p_dual=np.unique(p_dual.dof),
        p_primal=np.unique(p_primal.dof),
        p_sub_interface=p_iface.by_subdomain(n_sub),
        p_sub_dual=p_dual.by_subdomain(n_sub),
        p_sub_primal=p_primal.by_subdomain(n_sub),
        u_transform=u_transform,
        p_transform=p_transform,
    )
    _check_floating(cls)
    return cls


def _check_floating(cls: DofClassification) -> None:
    """A subdomain with no Dirichlet contact needs at least two primal
    constraint locations to pin its rigid motions."""
    dirichlet = [side in cls.spaces.bc.displacement_dirichlet for side in SIDES]
    for s in np.flatnonzero(~subdomain_sides(cls.grid)[:, dirichlet].any(axis=1)):
        # every primal dof pairs with its sibling component at the same node,
        # so distinct nodes count distinct constraint locations
        n_locations = np.unique(cls.u_sub_primal[s] // 2).size
        if n_locations < 2:
            raise ConfigurationError(
                f"subdomain {s} floats: no Dirichlet contact and only {n_locations} primal constraint location(s)"
            )


# ---------------------------------------------------------------------------
# scalings


@dataclass
class ScalingWeights:
    """Stiffness-weighted interface averages, one weight per row of each
    field's incidence table (for displacements, the dual rows).

    Weights per interface dof sum to one exactly: the highest sharing
    subdomain's weight is computed as one minus the others.
    """

    incidence: dict[str, Incidence]
    disp: np.ndarray
    total_pressure: np.ndarray
    pressure: np.ndarray

    def weight(self, field: str, dof: int, sub: int) -> float:
        return float(getattr(self, field)[self.incidence[field].row(dof, sub)])


def _weights(inc: Incidence, coeff: np.ndarray) -> np.ndarray:
    """Each sharer's coefficient over the sum of its dof's sharers'; the
    highest sharer (its dof's last row) takes one minus the others."""
    group = inc.group()
    raw = coeff[inc.sub]
    w = raw / np.bincount(group, weights=raw)[group]
    last = np.diff(inc.dof, append=-1) != 0
    w[last] = 1.0 - np.bincount(group, weights=np.where(last, 0.0, w))[group[last]]
    return w


def build_scalings(cls: DofClassification, materials: MaterialField) -> ScalingWeights:
    mu = np.asarray(materials.mu, dtype=float)
    incidence = {"disp": cls.u_dual_incidence, "total_pressure": cls.xi_incidence, "pressure": cls.p_incidence}
    return ScalingWeights(
        incidence=incidence,
        disp=_weights(incidence["disp"], mu),
        total_pressure=_weights(incidence["total_pressure"], 1.0 / mu),
        pressure=_weights(incidence["pressure"], np.asarray(materials.kappa, dtype=float)),
    )


def _unit_and_scaled(
    unit: np.ndarray, scaled: np.ndarray, rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]
) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    return sp.csr_matrix((unit, (rows, cols)), shape=shape), sp.csr_matrix((scaled, (rows, cols)), shape=shape)


# ---------------------------------------------------------------------------
# jump operator


@dataclass
class JumpOperator:
    """Signed jumps across the torn dual displacement copies.

    One row per dual dof; the copy owned by the lower subdomain index gets
    +1, the other -1.  The scaled variant gives each copy its neighbour's
    stiffness weight, delta_j = rho_j / (rho_i + rho_j) on the copy in
    subdomain i (Klawonn and Widlund 2001), in place of the unit entries.
    """

    jump: sp.csr_matrix
    jump_scaled: sp.csr_matrix
    n_multipliers: int


def build_jump(cls: DofClassification, scalings: ScalingWeights) -> JumpOperator:
    n_lam = cls.u_dual.size
    sign = np.tile([1.0, -1.0], n_lam)
    # the rows of a dual dof's two copies are adjacent: swap their weights
    neighbour = scalings.disp.reshape(-1, 2)[:, ::-1].ravel()
    jump, jump_scaled = _unit_and_scaled(
        sign,
        sign * neighbour,
        np.repeat(np.arange(n_lam), 2),
        scalings.incidence["disp"].broken_pos(),
        (n_lam, cls.layout.n_dual_broken),
    )
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
    xi = scalings.incidence["total_pressure"]
    n_xi = layout.xi_iface.size
    xi_break, xi_break_scaled = _unit_and_scaled(
        np.ones(xi.dof.size), scalings.total_pressure, xi.broken_pos(), layout.xi_iface_pos(xi.dof), (xi.dof.size, n_xi)
    )
    if n_xi:
        _exact_identity(xi_break.T @ xi_break_scaled, n_xi, "total pressure")

    # pressure: tilde layout rows = broken duals (by subdomain) then primal
    p = scalings.incidence["pressure"]
    is_dual = np.isin(p.dof, cls.p_dual)
    duals = p.select(is_dual)
    n_primal = cls.p_primal.size
    n_tilde = duals.dof.size + n_primal
    n_p = layout.p_iface.size
    p_inject, p_inject_scaled = _unit_and_scaled(
        np.ones(n_tilde),
        np.concatenate([scalings.pressure[is_dual], np.ones(n_primal)]),
        np.concatenate([duals.broken_pos(), duals.dof.size + np.arange(n_primal)]),
        layout.p_iface_pos(np.concatenate([duals.dof, cls.p_primal])),
        (n_tilde, n_p),
    )
    if n_p:
        _exact_identity(p_inject.T @ p_inject_scaled, n_p, "pressure")

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
    makes the pattern the same whichever member of a class is transformed,
    so the representative's is every member's.
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

    The partition's subdomain grid must be the materials' (else
    ``ConfigurationError``); for the nodal (vertex) variant the input is
    returned unchanged.  The transformation touches interface dofs only, so
    each subdomain's local blocks stay local, and a class member's edges
    are its representative's moved across the grid: the stored
    representatives' blocks and loads are transformed by one block-diagonal
    product each, which every member shares.  The global blocks are summed
    from the transformed stacked blocks on first use.
    """
    if tuple(cls.grid) != tuple(system.materials.grid):
        raise ConfigurationError(f"partition grid {cls.grid} differs from the materials' grid {system.materials.grid}")
    Tu, Tp = cls.u_transform, cls.p_transform
    if Tu is None:
        return system
    st = system.stacked
    reps = np.unique(st.rep)
    Tu_s = _blockwise(Tu, st.dofs["u"][block_positions(st.off["u"], reps)], st.rep_off["u"])
    Tp_s = _blockwise(Tp, st.dofs["p"][block_positions(st.off["p"], reps)], st.rep_off["p"])
    stacked = replace(
        st,
        A=_drop_roundoff(Tu_s.T @ st.A @ Tu_s, st.rep_off["u"]),
        B=_drop_roundoff(st.B @ Tu_s, st.rep_off["xi"]),
        D=_drop_roundoff(Tp_s.T @ st.D, st.rep_off["p"]),
        E=_drop_roundoff(Tp_s.T @ st.E @ Tp_s, st.rep_off["p"]),
        f=Tu_s.T @ st.f,
        g=Tp_s.T @ st.g,
    )
    return replace(system, f=Tu.T @ system.f, g=Tp.T @ system.g, stacked=stacked)


def recover_nodal(cls: DofClassification, u: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map edge-average-basis coefficient vectors back to nodal values."""
    if cls.u_transform is None:
        return u, p
    return cls.u_transform @ u, cls.p_transform @ p
