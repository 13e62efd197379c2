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
interface.  Each field's split is one ``FieldSplit``, which keeps its
interior, interface, primal and dual rows as such tables; the torn layout,
the stiffness weights and the transfers look them up by field name ("u",
"xi" or "p").  A table's broken layout is its rows in (subdomain, dof)
order, and each subdomain's own set is a slice of it.

Every field gets one stiffness weight per interface row, and every
interface segment one ``Transfer`` from its assembled unknowns to its
broken layout, scaled by the dual rows' weights: the multipliers' is the
signed jump over the dual displacement copies, total pressure's and
pressure's take the dual rows in broken order, then the primal dofs (total
pressure has none).  One checked constructor builds all three.

Primal sets always contain the interior cross points of the subdomain
grid.  The "vertex-edge" variant additionally constrains one average per
subdomain edge (per displacement component, and per pressure edge) via an
explicit change of basis: the first dof of each edge carries the average
and turns primal, the remaining edge dofs become average-free duals.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .mesh_fem import (
    SIDES,
    BlockSystem,
    ConfigurationError,
    FeSpaceSet,
    FieldSpace,
    InternalError,
    MaterialField,
    StructuredMesh,
    block_positions,
    element_subdomains,
    sorted_unique,
    subdomain_sides,
)

# The pressure-like fields, whose interface traces share one transfer rule
# and one balancing preconditioner, with their names in messages
PRESSURE_LIKE = {"xi": "total pressure", "p": "pressure"}

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

    @property
    def n_subdomains(self) -> int:
        return self.grid[0] * self.grid[1]


def partition(mesh: StructuredMesh, grid: tuple[int, int]) -> SubdomainPartition:
    gx, gy = grid
    if mesh.nx % gx or mesh.ny % gy:
        raise ConfigurationError(f"mesh {mesh.nx}x{mesh.ny} does not divide into a {gx}x{gy} subdomain grid")
    return SubdomainPartition(grid=grid, mesh=mesh)


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

    def offsets(self, n_sub: int) -> np.ndarray:
        """Start of each subdomain's rows in the broken layout, then the end."""
        return np.concatenate([[0], np.cumsum(np.bincount(self.sub, minlength=n_sub))])


def _incidence(space: FieldSpace, grid: tuple[int, int]) -> Incidence:
    """Incidence of the dofs of ``space``, by the subdomains holding their nodes.

    Along one axis, node line i of a g-subdomain grid m cells wide lies in
    subdomains (i-1)//m and i//m, clipped to the grid: equal, or adjacent
    and ascending.  A node lies in the cross product of its two axes'
    subdomains, and its candidates (sy0, sx0), (sy0, sx1), (sy1, sx0),
    (sy1, sx1), numbered sy * gx + sx, ascend once the repeats are dropped,
    so the table comes out sorted without a sort: it is formed per node and
    then repeated for each of the node's k dofs.
    """
    gx, gy = grid
    mx, my = space.mesh.nx // gx, space.mesh.ny // gy
    ix, iy = space.lattice(np.arange(0, space.n, space.k))  # one dof per node
    sx0, sx1 = np.clip((ix - 1) // mx, 0, gx - 1), np.clip(ix // mx, 0, gx - 1)
    sy0, sy1 = np.clip((iy - 1) // my, 0, gy - 1), np.clip(iy // my, 0, gy - 1)
    cand = np.stack([sy0 * gx + sx0, sy0 * gx + sx1, sy1 * gx + sx0, sy1 * gx + sx1], axis=1)
    two_x, two_y = sx1 != sx0, sy1 != sy0
    keep = np.stack([np.ones_like(two_x), two_x, two_y, two_x & two_y], axis=1)
    shape = (ix.size, space.k, 4)  # node, component, candidate
    dof = space.k * np.arange(ix.size)[:, None, None] + np.arange(space.k)[None, :, None]
    keep = np.broadcast_to(keep[:, None, :], shape)
    return Incidence(np.broadcast_to(dof, shape)[keep], np.broadcast_to(cand[:, None, :], shape)[keep])


def _split_interior(inc: Incidence) -> tuple[Incidence, Incidence]:
    """The interior rows (one sharer) and the interface rows."""
    shared = inc.sharer_count() > 1
    return inc.select(~shared), inc.select(shared)


def _lattice_corners(space: FieldSpace, grid: tuple[int, int]) -> np.ndarray:
    """Flag over the dofs of ``space``: the node is a corner of the subdomain lattice.

    Only free nodes are classified, so corners on the constrained boundary
    never reach this test; corners on the traction boundary are genuine
    coarse vertices and stay primal, which keeps the spectrum flat as
    subdomains are added.
    """
    ix, iy = space.lattice(np.arange(space.n))
    return (ix % (space.mesh.nx // grid[0]) == 0) & (iy % (space.mesh.ny // grid[1]) == 0)


def _check_dual_pairs(iface: Incidence, corner: np.ndarray, what: str) -> None:
    """Every interface dof off the lattice corners is shared by exactly two subdomains."""
    count = iface.sharer_count()
    bad = np.flatnonzero(~corner[iface.dof] & (count != 2))
    if bad.size:
        raise InternalError(f"dual {what} dof {iface.dof[bad[0]]} shared by {count[bad[0]]} subdomains")


# ---------------------------------------------------------------------------
# classification


@dataclass
class FieldSplit:
    """One field's dofs split into each subdomain's interior and the
    interface, and the interface into primal and dual dofs.

    ``interior`` and ``rows`` are the incidence of the interior dofs and
    of the interface, ``is_primal`` a flag over the field's dofs and
    ``transform`` its change of basis for the vertex-edge variant (None:
    the nodal basis).  Every other set is read off them, once: the flags
    over the rows and of the interface over the dofs, each dof's ``role``
    (0 interior, 1 dual, 2 primal), the sorted dofs of the interface and of
    its primal and dual parts, and the rows of the primal and dual dofs; a
    subdomain's own are a slice of each.
    """

    n_sub: int
    interior: Incidence
    rows: Incidence
    is_primal: np.ndarray
    transform: sp.csr_matrix | None = None
    is_interface: np.ndarray = field(init=False)  # over the field's dofs, as ``is_primal``
    role: np.ndarray = field(init=False)  # int8 over the field's dofs: 0 interior, 1 dual, 2 primal
    row_is_primal: np.ndarray = field(init=False)  # over ``rows``
    primal_rows: Incidence = field(init=False)
    dual_rows: Incidence = field(init=False)  # of the displacement: one per torn copy, lower subdomain first
    interface: np.ndarray = field(init=False)
    primal: np.ndarray = field(init=False)
    dual: np.ndarray = field(init=False)
    dual_offset: np.ndarray = field(init=False)  # ``dual_rows.offsets(n_sub)``

    def __post_init__(self):
        self.is_interface = np.zeros(self.is_primal.size, dtype=bool)
        self.is_interface[self.rows.dof] = True
        self.role = (self.is_interface * (1 + self.is_primal)).astype(np.int8)
        self.row_is_primal = primal = self.is_primal[self.rows.dof]
        self.primal_rows, self.dual_rows = self.rows.select(primal), self.rows.select(~primal)
        rows = (self.rows, self.primal_rows, self.dual_rows)
        self.interface, self.primal, self.dual = (sorted_unique(r.dof) for r in rows)
        self.dual_offset = self.dual_rows.offsets(self.n_sub)

    def interface_pos(self, dofs: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.interface, dofs)


@dataclass
class TornLayout:
    """Positions of every unknown in the torn vector

        w = (interior u | interior xi | interior p | broken dual u | primal u)

    with every part but the primal one in its field's broken layout.
    """

    int_pos: dict[str, np.ndarray]  # w position of each field's interior dofs, -1 elsewhere
    primal_pos: np.ndarray  # over u dofs, -1 if not primal
    dual_slice: slice
    primal_slice: slice

    @property
    def n_w(self) -> int:
        return self.primal_slice.stop


@dataclass
class DofClassification:
    """The interior / interface / primal / dual split of each field."""

    grid: tuple[int, int]
    spaces: FeSpaceSet
    u: FieldSplit
    xi: FieldSplit  # every interface dof dual: total pressure has no primal dofs
    p: FieldSplit

    @property
    def n_subdomains(self) -> int:
        return self.grid[0] * self.grid[1]

    @property
    def splits(self) -> dict[str, FieldSplit]:
        return {"u": self.u, "xi": self.xi, "p": self.p}

    @property
    def segments(self) -> tuple[int, int, int]:
        """Sizes of the interface vector's parts: the interface total
        pressure, the interface pressure, one multiplier per dual
        displacement dof."""
        return self.xi.interface.size, self.p.interface.size, self.u.dual.size

    @cached_property
    def layout(self) -> TornLayout:
        return _build_layout(self)


def split_segments(y: np.ndarray, segments: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The xi, p and multiplier parts of an interface vector."""
    n_xi, n_p, _ = segments
    return y[:n_xi], y[n_xi : n_xi + n_p], y[n_xi + n_p :]


def broken_columns(offsets: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Each member's positions in a broken layout whose subdomains start at
    ``offsets``, a column per member; congruent members have equally many."""
    return offsets[members] + np.arange(offsets[members[0] + 1] - offsets[members[0]])[:, None]


def _build_layout(cls: DofClassification) -> TornLayout:
    int_pos, base = {}, 0
    for fld, split in cls.splits.items():
        int_pos[fld] = pos = np.full(cls.spaces.n_dofs[fld], -1, dtype=np.int64)
        pos[split.interior.dof] = base + split.interior.broken_pos()
        base += split.interior.dof.size
    dual_slice = slice(base, base + cls.u.dual_rows.dof.size)
    primal_slice = slice(dual_slice.stop, dual_slice.stop + cls.u.primal.size)
    primal_pos = np.full(cls.spaces.n_dofs["u"], -1, dtype=np.int64)
    primal_pos[cls.u.primal] = np.arange(primal_slice.start, primal_slice.stop)
    return TornLayout(int_pos=int_pos, primal_pos=primal_pos, dual_slice=dual_slice, primal_slice=primal_slice)


def _edge_groups(nx: int, ny: int, grid: tuple[int, int]) -> list[np.ndarray]:
    """Interior nodes of every subdomain edge, one (edges, m - 1) array per
    edge length m: the vertical edges' rows, then the horizontal edges',
    each direction bottom to top and left to right.  Square subdomains, as
    ``build_mesh`` makes them, give one array; at H/h = 1 it has no
    columns.
    """
    gx, gy = grid
    mx, my = nx // gx, ny // gy
    vx, sy, t = np.ix_(np.arange(1, gx), np.arange(gy), np.arange(1, my))
    vertical = ((sy * my + t) * (nx + 1) + vx * mx).reshape((gx - 1) * gy, my - 1)
    hy, sx, t = np.ix_(np.arange(1, gy), np.arange(gx), np.arange(1, mx))
    horizontal = (hy * my * (nx + 1) + sx * mx + t).reshape((gy - 1) * gx, mx - 1)
    return [np.concatenate([vertical, horizontal])] if mx == my else [vertical, horizontal]


def _average_basis_block(m: int) -> np.ndarray:
    """Columns: the constant vector, then e_j - 1/m (zero-average deviations)."""
    T = np.eye(m)
    T[:, 0] = 1.0
    T[:, 1:] -= 1.0 / m
    return T


def _build_transform(n: int, groups: list[np.ndarray]) -> sp.csr_matrix:
    """Identity outside the groups, the average/deviation block inside each.

    ``groups`` holds (groups, m) arrays of disjoint dof groups, one array
    per group size m; each array's blocks are written in one pass: entry
    (i, j) of a group's block sits at row g[i], column g[j].
    """
    in_group = np.zeros(n, dtype=bool)
    rows, cols, vals = [], [], []
    for G in groups:
        m = G.shape[1]
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
    grid = part.grid
    n_sub = part.n_subdomains
    splits = {}
    for fld in ("u", "p"):  # the fields with primal dofs
        space = spaces.fields[fld]
        interior, rows = _split_interior(_incidence(space, grid))
        is_primal = _lattice_corners(space, grid)
        _check_dual_pairs(rows, is_primal, fld)
        transform = None
        if primal_variant == "vertex-edge":
            # one average per subdomain edge and component, over the edge's
            # interior nodes (refined-level ones for the displacement): the
            # first dof of each edge then carries the average and turns
            # primal; its sharers are the edge's pair already.  A group is
            # one edge's dofs of one component, edge-major
            edges = [space.dof_of_node[e] for e in _edge_groups(space.mesh.nx, space.mesh.ny, grid) if e.shape[1]]
            if any(np.any(e < 0) for e in edges):
                raise InternalError(f"{fld} edge interior node unexpectedly constrained")
            groups = [(e[:, None, :] + np.arange(space.k)[:, None]).reshape(-1, e.shape[1]) for e in edges]
            for G in groups:
                is_primal[G[:, 0]] = True
            transform = _build_transform(space.n, groups)
        splits[fld] = FieldSplit(n_sub, interior, rows, is_primal, transform)

    if spaces.total_pressure_variant == "p0":  # a P0 dof is its base triangle, interior to its subdomain
        interior = Incidence(np.arange(spaces.n_dofs["xi"]), element_subdomains(part.mesh, grid))
        rows = Incidence(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    else:
        interior, rows = _split_interior(_incidence(spaces.fields["xi"], grid))
    splits["xi"] = FieldSplit(n_sub, interior, rows, np.zeros(spaces.n_dofs["xi"], dtype=bool))
    cls = DofClassification(grid=grid, spaces=spaces, **splits)
    _check_floating(cls)
    return cls


def _check_floating(cls: DofClassification) -> None:
    """A subdomain with no Dirichlet contact needs at least two primal
    constraint locations to pin its rigid motions."""
    space, rows = cls.spaces.fields["u"], cls.u.primal_rows
    n_nodes = space.mesh.n_nodes
    # each subdomain's distinct primal nodes, counted in one pass
    located = sorted_unique(rows.sub * n_nodes + space.nodes(rows.dof))
    n_locations = np.bincount(located // n_nodes, minlength=cls.n_subdomains)
    dirichlet = [side in cls.spaces.bc.displacement_dirichlet for side in SIDES]
    floating = ~subdomain_sides(cls.grid)[:, dirichlet].any(axis=1)
    bad = np.flatnonzero(floating & (n_locations < 2))
    if bad.size:
        raise ConfigurationError(
            f"subdomain {bad[0]} floats: no Dirichlet contact and only {n_locations[bad[0]]} primal constraint location(s)"
        )


# ---------------------------------------------------------------------------
# scalings


@dataclass
class ScalingWeights:
    """Stiffness-weighted interface averages, one weight per interface row
    of each field's split (``FieldSplit.rows``), keyed by the field ("u",
    "xi" or "p").

    Weights per interface dof sum to one exactly: the highest sharing
    subdomain's weight is computed as one minus the others.
    """

    cls: DofClassification
    weights: dict[str, np.ndarray]

    def dual(self, fld: str) -> np.ndarray:
        """The weights of the field's dual rows."""
        return self.weights[fld][~self.cls.splits[fld].row_is_primal]


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
    coeff = {"u": mu, "xi": 1.0 / mu, "p": np.asarray(materials.kappa, dtype=float)}
    return ScalingWeights(cls, {fld: _weights(split.rows, coeff[fld]) for fld, split in cls.splits.items()})


# ---------------------------------------------------------------------------
# transfers


class Transfer(NamedTuple):
    """One interface segment's map from its assembled unknowns (columns) to
    its broken layout (rows), with unit entries and with the stiffness
    weights; ``unit.T @ scaled`` is exactly I.

    The multipliers' rows are the broken dual displacement copies: ``unit``
    is the signed jump B^T, +1 on the copy of the lower subdomain and -1 on
    the other, and ``scaled`` is B_D^T, which gives each copy its
    neighbour's weight, delta_j = rho_j / (rho_i + rho_j) on the copy in
    subdomain i (Klawonn and Widlund 2001).  A pressure-like field's rows
    are its broken dual rows, then its primal dofs: a dual row takes its
    weight, a primal dof 1 (Li and Widlund 2006).
    """

    unit: sp.csr_matrix
    scaled: sp.csr_matrix


def _transfer(
    what: str, rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int], unit: np.ndarray, scaled: np.ndarray
) -> Transfer:
    """The transfer of segment ``what`` with entries ``unit`` and ``scaled``
    at (rows, cols).  Checked: unit.T @ scaled is exactly I."""
    t = Transfer(*(sp.csr_matrix((v, (rows, cols)), shape=shape) for v in (unit, scaled)))
    diff = (t.unit.T @ t.scaled - sp.identity(shape[1])).tocoo()
    if diff.nnz and np.max(np.abs(diff.data)) != 0.0:
        raise InternalError(f"{what} transfer identity failed (max error {np.max(np.abs(diff.data))})")
    return t


def build_jump(cls: DofClassification, scalings: ScalingWeights) -> Transfer:
    """The multipliers' transfer: one column per dual displacement dof."""
    duals = cls.u.dual_rows
    sign = np.tile([1.0, -1.0], cls.u.dual.size)
    # the rows of a dual dof's two copies are adjacent: swap their weights
    neighbour = scalings.dual("u").reshape(-1, 2)[:, ::-1].ravel()
    shape = (duals.dof.size, cls.u.dual.size)
    return _transfer("multiplier", duals.broken_pos(), duals.group(), shape, sign, sign * neighbour)


def build_restrictions(cls: DofClassification, scalings: ScalingWeights) -> dict[str, Transfer]:
    """The transfer of each pressure-like field, keyed by "xi" and "p"."""
    out = {}
    for fld, what in PRESSURE_LIKE.items():
        split = cls.splits[fld]
        duals, primal = split.dual_rows, split.primal
        n_dual = duals.dof.size
        out[fld] = _transfer(
            what,
            np.concatenate([duals.broken_pos(), n_dual + np.arange(primal.size)]),
            split.interface_pos(np.concatenate([duals.dof, primal])),
            (n_dual + primal.size, split.interface.size),
            np.ones(n_dual + primal.size),
            np.concatenate([scalings.dual(fld), np.ones(primal.size)]),
        )
    return out


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
    Tu, Tp = cls.u.transform, cls.p.transform
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
    if cls.u.transform is None:
        return u, p
    return cls.u.transform @ u, cls.p.transform @ p
