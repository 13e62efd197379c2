"""Subdomain partitioning and interface dof classification.

Splits every field into subdomain-interior and interface unknowns.
Displacement interface dofs are further divided into primal (continuous,
kept in the coarse problem) and dual (torn, constrained by Lagrange
multipliers); pressure interface dofs get the same split for use inside
the balancing preconditioner; total pressure interface dofs stay in one
undivided continuous block.

Which subdomains share each dof is read off assembly's stacked dofs
(``StackedBlocks.dofs``), one incidence table per field: a (dof,
subdomain) row per stacked position, so the rows come in the field's
broken layout, subdomains in turn, each with its dofs sorted.  A dof with
one sharer is interior to it, the others form the interface.  Each field's
split is one ``FieldSplit``, which keeps its interior, interface, primal
and dual rows as such tables, each subdomain's own set a slice of them;
the torn layout, the stiffness weights and the transfers look them up by
field name ("u", "xi" or "p").

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
    sorted_unique,
    subdomain_sides,
)

# The pressure-like fields, whose interface traces share one transfer rule
# and one balancing preconditioner, with their names in messages
PRESSURE_LIKE = {"xi": "total pressure", "p": "pressure"}


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

    One row (dof[k], sub[k]) per sharing subdomain, in the field's broken
    layout: subdomains in turn, each with its dofs sorted, so a dof's
    sharers come in ascending order.
    """

    dof: np.ndarray
    sub: np.ndarray

    def select(self, keep: np.ndarray) -> "Incidence":
        return Incidence(self.dof[keep], self.sub[keep])

    def sharer_count(self) -> np.ndarray:
        """Number of subdomains sharing each row's dof."""
        return np.bincount(self.dof)[self.dof]

    def offsets(self, n_sub: int) -> np.ndarray:
        """Start of each subdomain's rows in the broken layout, then the end."""
        return np.concatenate([[0], np.cumsum(np.bincount(self.sub, minlength=n_sub))])


def _split_interior(inc: Incidence) -> tuple[Incidence, Incidence]:
    """The interior rows (one sharer) and the interface rows."""
    shared = inc.sharer_count() > 1
    return inc.select(~shared), inc.select(shared)


def _lattice_corners(space: FieldSpace, grid: tuple[int, int]) -> np.ndarray:
    """Flag over the dofs of ``space``: the node is a corner of the subdomain
    lattice, one flag per free node repeated over its k components.

    Only free nodes are classified, so corners on the constrained boundary
    never reach this test; corners on the traction boundary are genuine
    coarse vertices and stay primal, which keeps the spectrum flat as
    subdomains are added.
    """
    m = space.mesh
    corner = (m.node_ix(space.free) % (m.nx // grid[0]) == 0) & (m.node_iy(space.free) % (m.ny // grid[1]) == 0)
    return np.repeat(corner, space.k)


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
    dual_rows: Incidence = field(init=False)  # of the displacement: one per torn copy, in broken order
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
        pos[split.interior.dof] = base + np.arange(split.interior.dof.size)
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


def classify_dofs(part: SubdomainPartition, system: BlockSystem, primal_variant: str) -> DofClassification:
    """Split every field of the assembled ``system`` by its stacked dofs.

    The partition's subdomain grid must be the materials' (else
    ``ConfigurationError``): assembly stacked the dofs on that grid."""
    if primal_variant not in ("vertex", "vertex-edge"):
        raise ConfigurationError(f"unknown primal variant {primal_variant!r}")
    grid, spaces, st = part.grid, system.spaces, system.stacked
    if tuple(grid) != tuple(system.materials.grid):
        raise ConfigurationError(f"partition grid {grid} differs from the materials' grid {system.materials.grid}")
    n_sub = part.n_subdomains
    splits = {}
    for fld, space in spaces.fields.items():
        sub = np.repeat(np.arange(n_sub), np.diff(st.off[fld]))
        interior, rows = _split_interior(Incidence(st.dofs[fld], sub))
        if fld == "xi":  # total pressure has no primal dofs
            splits[fld] = FieldSplit(n_sub, interior, rows, np.zeros(space.n, dtype=bool))
            continue
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
    """Each sharer's coefficient over the sum of its dof's sharers', added
    in ascending subdomain order (the rows'); the highest sharer takes one
    minus the others."""
    dof, raw = inc.dof, coeff[inc.sub]
    w = raw / np.bincount(dof, weights=raw)[dof]
    top = np.zeros(dof.max(initial=-1) + 1, dtype=inc.sub.dtype)
    np.maximum.at(top, dof, inc.sub)
    last = inc.sub == top[dof]
    w[last] = 1.0 - np.bincount(dof, weights=np.where(last, 0.0, w))[dof[last]]
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
    n = duals.dof.size
    pair = np.argsort(duals.dof, kind="stable").reshape(-1, 2)  # each dual dof's copies, the lower subdomain's first
    sign = np.ones(n)
    sign[pair[:, 1]] = -1.0
    neighbour = np.empty(n)
    neighbour[pair] = scalings.dual("u")[pair[:, ::-1]]  # each copy takes the other's weight
    cols = np.searchsorted(cls.u.dual, duals.dof)
    return _transfer("multiplier", np.arange(n), cols, (n, cls.u.dual.size), sign, sign * neighbour)


def build_restrictions(cls: DofClassification, scalings: ScalingWeights) -> dict[str, Transfer]:
    """The transfer of each pressure-like field, keyed by "xi" and "p"."""
    out = {}
    for fld, what in PRESSURE_LIKE.items():
        split = cls.splits[fld]
        duals, primal = split.dual_rows, split.primal
        n_dual = duals.dof.size
        out[fld] = _transfer(
            what,
            np.arange(n_dual + primal.size),
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


def transform_system(system: BlockSystem, cls: DofClassification) -> BlockSystem:
    """Re-express the assembled and local blocks in the edge-average basis.

    ``cls`` is classified from ``system`` (``classify_dofs``, which checks
    their grids); for the nodal (vertex) variant the input is returned
    unchanged.  The transformation touches interface dofs only, so each
    subdomain's local blocks stay local, and a class member's edges
    are its representative's moved across the grid: the stored
    representatives' blocks and loads are transformed by one block-diagonal
    product each, which every member shares.  The products are kept as they
    come, roundoff-level fill included, so a member's own T_s^T M_s T_s is
    its stored tile bit for bit, pattern included.  The global blocks are
    summed from the transformed stacked blocks on first use.
    """
    Tu, Tp = cls.u.transform, cls.p.transform
    if Tu is None:
        return system
    st = system.stacked
    reps = np.unique(st.rep)
    Tu_s = _blockwise(Tu, st.dofs["u"][block_positions(st.off["u"], reps)], st.rep_off["u"])
    Tp_s = _blockwise(Tp, st.dofs["p"][block_positions(st.off["p"], reps)], st.rep_off["p"])
    stacked = replace(
        st,
        A=(Tu_s.T @ st.A @ Tu_s).tocsr(),
        B=st.B @ Tu_s,
        D=(Tp_s.T @ st.D).tocsr(),
        E=(Tp_s.T @ st.E @ Tp_s).tocsr(),
        f=Tu_s.T @ st.f,
        g=Tp_s.T @ st.g,
    )
    return replace(system, f=Tu.T @ system.f, g=Tp.T @ system.g, stacked=stacked)


def recover_nodal(cls: DofClassification, u: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map edge-average-basis coefficient vectors back to nodal values."""
    if cls.u.transform is None:
        return u, p
    return cls.u.transform @ u, cls.p.transform @ p
