"""Shared oracles for the test suite.

Dense reconstructions of matrix-free operators, assembled interface Schur
complements, and generalized spectra of preconditioned blocks.  Everything
here goes through an independent route (dense factorizations, explicit
column probing) so the solver modules are checked against something they
do not share code with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from biot_ddp import reduced_system
from biot_ddp.decomposition import _CONGRUENCE_RTOL
from biot_ddp.mesh_fem import (
    BLOCK_FIELDS,
    FIELD_BLOCK,
    LoadSpec,
    assemble_blocks,
    block_positions,
    build_mesh,
    build_spaces,
    element_subdomains,
    element_tables,
)


@dataclass
class LocalBlocks:
    """One subdomain's sorted dofs of each field with its representative's
    local blocks and loads (``local_view``), indexed by position in the
    dofs."""

    dofs: dict[str, np.ndarray]
    A: sp.csr_matrix
    B: sp.csr_matrix
    C: sp.csr_matrix
    D: sp.csr_matrix
    E: sp.csr_matrix
    f: np.ndarray
    g: np.ndarray

    def pos(self, fld: str, dofs: np.ndarray) -> np.ndarray:
        """Local positions of field ``fld``'s global ``dofs``."""
        have, dofs = self.dofs[fld], np.asarray(dofs, dtype=np.int64)
        pos = np.searchsorted(have, dofs)
        assert np.array_equal(have[np.minimum(pos, have.size - 1)], dofs), f"{fld} dofs not in this subdomain"
        return pos


def local_view(st, s: int) -> LocalBlocks:
    """Subdomain s's ``LocalBlocks`` in the stacked blocks ``st``, sharing
    data with the stored arrays."""
    f, g = (load[o[st.rep[s]] : o[st.rep[s] + 1]] for load, o in ((st.f, st.rep_off["u"]), (st.g, st.rep_off["p"])))
    return LocalBlocks(st.local_dofs(s), *(st.block(name, s) for name in "ABCDE"), f, g)


def local_index_sets(cls, dofs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The local positions of a subdomain's interior, interface, dual and
    primal dofs of each field of ``dofs`` (its sorted dofs), keyed by the
    field and "I", "G", "D" or "P" ("uI", "xiG", ...), read off the roles of
    its own dofs (``FieldSplit.role``)."""
    sets = {}
    for fld, d in dofs.items():
        role = cls.splits[fld].role[d]
        for name, flag in (("I", role == 0), ("G", role > 0), ("D", role == 1), ("P", role == 2)):
            sets[fld + name] = np.flatnonzero(flag)
    return sets


def torn_columns(system, cls) -> dict[str, np.ndarray]:
    """The torn column of every stacked local unknown, -1 where there is
    none, by field: interior dofs by the layout's ``int_pos``, primal
    displacements by ``primal_pos``, and the dual displacement copies in
    stacked order, which is the broken copies' order."""
    lay, st = cls.layout, system.stacked
    cols = {fld: pos[st.dofs[fld]] for fld, pos in lay.int_pos.items()}
    u = st.dofs["u"]
    dual = np.flatnonzero(cls.u.role[u] == 1)
    cols["u"] = np.where(lay.primal_pos[u] >= 0, lay.primal_pos[u], cols["u"])
    cols["u"][dual] = lay.dual_slice.start + np.arange(dual.size)
    return cols


def local_blocks(system) -> dict[int, LocalBlocks]:
    """Every subdomain's ``local_view``, by subdomain."""
    return {s: local_view(system.stacked, s) for s in range(system.stacked.n_sub)}


def sharers(inc, dof: int) -> np.ndarray:
    """The subdomains sharing ``dof`` in the incidence table ``inc``, ascending."""
    return inc.sub[inc.dof == dof]


def weight(sc, fld: str, dof: int, sub: int) -> float:
    """Subdomain ``sub``'s scaling weight of field ``fld``'s interface dof ``dof``."""
    rows = sc.cls.splits[fld].rows
    return float(sc.weights[fld][np.flatnonzero((rows.dof == dof) & (rows.sub == sub))[0]])


def by_subdomain(rows, n_sub: int) -> dict[int, np.ndarray]:
    """Each of the ``n_sub`` subdomains' sorted dofs among the incidence
    rows ``rows``: the sets the solver reads as slices of a broken layout."""
    return {s: np.sort(rows.dof[rows.sub == s]) for s in range(n_sub)}


def broken_offsets(rows, n_sub: int) -> np.ndarray:
    """Start of each subdomain's sets of ``by_subdomain`` laid end to end,
    then the end."""
    return np.cumsum([0] + [d.size for d in by_subdomain(rows, n_sub).values()])


def splu_schur(M, gamma: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """M_gg - M_gi M_ii^-1 M_ig through SciPy's default sparse LU of M_ii."""
    M = sp.csr_matrix(M)
    S = M[gamma][:, gamma].toarray()
    if inner.size and gamma.size:
        S -= M[gamma][:, inner] @ spla.splu(M[inner][:, inner].tocsc()).solve(M[inner][:, gamma].toarray())
    return S


def reference_incidence(space, grid: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The (dof, subdomain) rows of every subdomain holding each dof's node
    of ``space``, sorted: each dof's four candidate subdomains, the cross
    product of its two axes', keyed dof-major and sorted, repeats dropped."""
    gx, gy = grid
    n_sub = gx * gy
    mx, my = space.mesh.nx // gx, space.mesh.ny // gy
    dofs = np.arange(space.n)
    ix, iy = space.lattice(dofs)
    sx = np.clip([(ix - 1) // mx, ix // mx], 0, gx - 1)
    sy = np.clip([(iy - 1) // my, iy // my], 0, gy - 1)
    keys = np.unique(dofs * n_sub + (sy[:, None] * gx + sx[None, :]).reshape(4, -1))
    return keys // n_sub, keys % n_sub


def reference_edge_groups(nx: int, ny: int, grid: tuple[int, int]) -> list[np.ndarray]:
    """Interior node runs of every subdomain edge, one edge at a time: the
    vertical edges, then the horizontal ones."""
    gx, gy = grid
    mx, my = nx // gx, ny // gy
    groups = []
    for vx in range(1, gx):
        for sy in range(gy):
            groups.append(np.arange(sy * my + 1, (sy + 1) * my) * (nx + 1) + vx * mx)
    for hy in range(1, gy):
        for sx in range(gx):
            groups.append(hy * my * (nx + 1) + np.arange(sx * mx + 1, (sx + 1) * mx))
    return groups


def reference_edge_averages(space, grid: tuple[int, int]) -> list[np.ndarray]:
    """The dof groups of the edge averages of ``space``, one edge and then
    one component at a time; a group's first dof carries its average."""
    edges = [space.dof_of_node[e] for e in reference_edge_groups(space.mesh.nx, space.mesh.ny, grid) if e.size]
    return [e + c for e in edges for c in range(space.k)]


def record_probes(monkeypatch) -> list:
    """Shapes of the right-hand sides every residual probe solves from now
    on, appended as the probes run."""
    shapes = []
    probe = reduced_system._probe

    def recording(K, solve):
        def solve_and_record(b):
            shapes.append(b.shape)
            return solve(b)

        return probe(K, solve_and_record)

    monkeypatch.setattr(reduced_system, "_probe", recording)
    return shapes


def record_torn_columns(monkeypatch, torn) -> list[tuple[int, int]]:
    """(class, columns) of every call of a torn class's factor solve from
    now on, in call order.  A borrowed solve reaches its source's factor
    past this wrapper, so each call counts for its own class."""
    calls = []
    for i, c in enumerate(torn.classes):
        def solve(b, i=i, solve=c.factor.solve):
            calls.append((i, 1 if b.ndim == 1 else b.shape[1]))
            return solve(b)

        monkeypatch.setattr(c.factor, "solve", solve)
    return calls


def dense_from_apply(apply, n: int) -> np.ndarray:
    """Probe a linear operator column by column."""
    out = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        out[:, j] = apply(e)
    return out


def preconditioned_spectrum(apply_minv, S: np.ndarray) -> np.ndarray:
    """Eigenvalues of M^-1 S via the symmetric pencil L^T S L, L L^T = M^-1."""
    n = S.shape[0]
    if n == 0:
        return np.zeros(0)
    Minv = dense_from_apply(apply_minv, n)
    Minv = 0.5 * (Minv + Minv.T)
    L = np.linalg.cholesky(Minv)
    return np.linalg.eigvalsh(L.T @ S @ L)


def assembled_pressure_schur(pipe) -> np.ndarray:
    """Schur complement of the pressure stiffness block on its interface.

    Interior pressure dofs never couple across subdomains, so eliminating
    them from the assembled block equals assembling the per-subdomain
    Schur complements.
    """
    cls = pipe.cls
    gamma = cls.p.interface
    inner = np.concatenate(list(by_subdomain(cls.p.interior, cls.n_subdomains).values()))
    return splu_schur(pipe.system.E, gamma, np.sort(inner))


def assembled_total_pressure_schur(pipe) -> np.ndarray:
    """Sum of stiffness-weighted local mass Schur complements on the
    shared total pressure dofs."""
    cls = pipe.cls
    mats = pipe.materials
    n_gamma = len(cls.xi.interface)
    S = np.zeros((n_gamma, n_gamma))
    interface, interior = (by_subdomain(r, cls.n_subdomains) for r in (cls.xi.rows, cls.xi.interior))
    for s, lb in local_blocks(pipe.system).items():
        gamma = lb.pos("xi", interface[s])
        inner = lb.pos("xi", interior[s])
        S_loc = splu_schur(lb.C, gamma, inner)
        rows = cls.xi.interface_pos(interface[s])
        S[np.ix_(rows, rows)] += mats.lam[s] / mats.mu[s] * S_loc
    return S


def sliced_bmat_saddle(lb, sets: dict, trace: bool) -> sp.csr_matrix:
    """A subdomain's local saddle block as once built: the five blocks put
    together by bmat, then sliced to (uI, xiI, pI, uD, uP), and with
    ``trace`` (xiG, pG) after them, by fancy indexing."""
    K = sp.bmat([[lb.A, lb.B.T, None], [lb.B, -lb.C, lb.D.T], [None, lb.D, -lb.E]], format="csr")
    n_u, n_xi = lb.A.shape[0], lb.C.shape[0]
    at = [sets["uI"], n_u + sets["xiI"], n_u + n_xi + sets["pI"], sets["uD"], sets["uP"]]
    at = np.concatenate(at + ([n_u + sets["xiG"], n_u + n_xi + sets["pG"]] if trace else []))
    return K[at][:, at].sorted_indices()


def schur_inputs(system, cls, fld: str, r: int):
    """Subdomain r's local block of field ``fld`` as the preconditioner's
    Schur complements take it (total pressure's times lambda / mu), its
    local dofs, and the local positions of the dofs they keep (dual, then
    primal; the elastic block only dual) and of the interior ones."""
    lb = local_view(system.stacked, r)
    sets = local_index_sets(cls, {fld: lb.dofs[fld]})
    M = getattr(lb, FIELD_BLOCK[fld])
    if fld == "xi":
        M = float(system.materials.lam[r] / system.materials.mu[r]) * M
    kept = sets["uD"] if fld == "u" else np.concatenate([sets[fld + "D"], sets[fld + "P"]])
    return M, lb.dofs[fld], kept, sets[fld + "I"]


def interface_coupling(red) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """B_C (interface rows x torn columns) and C_hat of the reduced system
    ``red``, from the nodal blocks, independently of the class cuts: B_C
    subdomain by subdomain from each one's own local blocks and index sets,
    in the order that sums duplicates as the solver's global build does,
    and C_hat as the interface slices of the global C, D and E."""
    system, cls, lay = red.system, red.cls, red.layout
    n_xi, n_p, n_lam = red.segments
    rows, cols, vals = [], [], []
    n_sub = cls.n_subdomains
    interior = {fld: by_subdomain(split.interior, n_sub) for fld, split in cls.splits.items()}
    interface = {fld: by_subdomain(cls.splits[fld].rows, n_sub) for fld in ("xi", "p")}
    primal, dual_offset = by_subdomain(cls.u.primal_rows, n_sub), broken_offsets(cls.u.dual_rows, n_sub)
    for s, lb in local_blocks(system).items():
        sets = local_index_sets(cls, lb.dofs)
        y = {"xi": np.full(lb.dofs["xi"].size, -1), "p": np.full(lb.dofs["p"].size, -1)}
        y["xi"][sets["xiG"]] = cls.xi.interface_pos(interface["xi"][s])
        y["p"][sets["pG"]] = n_xi + cls.p.interface_pos(interface["p"][s])
        w = {"u": np.full(lb.dofs["u"].size, -1), "xi": np.full(lb.dofs["xi"].size, -1), "p": np.full(lb.dofs["p"].size, -1)}
        w["u"][sets["uI"]] = lay.int_pos["u"][interior["u"][s]]
        w["u"][sets["uD"]] = lay.dual_slice.start + np.arange(dual_offset[s], dual_offset[s + 1])
        w["u"][sets["uP"]] = lay.primal_pos[primal[s]]
        w["xi"][sets["xiI"]] = lay.int_pos["xi"][interior["xi"][s]]
        w["p"][sets["pI"]] = lay.int_pos["p"][interior["p"][s]]
        for name, r, c, sign, transposed in (("B", y["xi"], w["u"], 1, False), ("C", y["xi"], w["xi"], -1, False),
                                             ("D", w["p"], y["xi"], 1, True), ("D", y["p"], w["xi"], 1, False),
                                             ("E", y["p"], w["p"], -1, False)):
            M = getattr(lb, name).tocoo()
            keep = (r[M.row] >= 0) & (c[M.col] >= 0)
            a, b = r[M.row[keep]], c[M.col[keep]]
            rows.append(b if transposed else a)
            cols.append(a if transposed else b)
            vals.append(sign * M.data[keep])
    J = red.jump.unit.T.tocoo()
    rows.append(n_xi + n_p + J.row)
    cols.append(lay.dual_slice.start + J.col)
    vals.append(J.data)
    B_C = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(red.n, lay.n_w))
    xiG, pG = cls.xi.interface, cls.p.interface
    C, D, E = (M.tocsr() for M in (system.C, system.D, system.E))
    C_hat = sp.bmat([[C[xiG][:, xiG], -D[pG][:, xiG].T, None], [-D[pG][:, xiG], E[pG][:, pG], None],
                     [None, None, sp.csr_matrix((n_lam, n_lam))]], format="csr")
    return B_C, C_hat


def is_condensed(red) -> bool:
    """Whether the pay-back rule condensed the interface classes of the
    reduced system ``red`` into dense maps."""
    return all(isinstance(c.S, np.ndarray) for c in red.interface.classes)


def local_solve_apply(red, v: np.ndarray) -> np.ndarray:
    """The reduced operator B_C K^-1 B_C^T v + C_hat v through the local
    factors, with B_C and C_hat from ``interface_coupling``."""
    B_C, C_hat = interface_coupling(red)
    return B_C @ red.apply_torn_inverse(B_C.T @ v) + C_hat @ v


def torn_matrix_reference(red) -> sp.csr_matrix:
    """The full torn saddle system, built subdomain by subdomain: each
    one's own sliced saddle block (``sliced_bmat_saddle``) at its torn
    columns, the blocks laid end to end in COO and summed by SciPy."""
    lay, cls, blocks, cols = red.layout, red.cls, [], []
    for s, lb in local_blocks(red.system).items():
        sets = local_index_sets(cls, lb.dofs)
        blocks.append(sliced_bmat_saddle(lb, sets, False))
        cols += [pos[lb.dofs[fld][sets[fld + "I"]]] for fld, pos in lay.int_pos.items()]
        cols += [lay.dual_slice.start + np.arange(*cls.u.dual_offset[s : s + 2]), lay.primal_pos[lb.dofs["u"][sets["uP"]]]]
    K, g = sp.block_diag(blocks, format="coo"), np.concatenate(cols)
    At = sp.csr_matrix((K.data, (g[K.row], g[K.col])), shape=(lay.n_w, lay.n_w))
    B_C, C_hat = interface_coupling(red)
    return sp.bmat([[At, B_C.T], [B_C, -C_hat]], format="csr")


def torn_matrix_from_class_cut(red) -> sp.csr_matrix:
    """The full torn saddle system from one ``ClassSaddles.sparse(SADDLE,
    SADDLE)`` cut: every subdomain's block is its class's, placed at its
    torn columns (``torn_columns``) by the class
    saddle order (a stable sort of ``ClassSaddles.owner`` and ``role``)."""
    st, lay, SADDLE = red.system.stacked, red.layout, reduced_system.SADDLE
    saddles = reduced_system.ClassSaddles(red.system, red.cls, red.jump)
    M, off, _ = saddles.sparse(SADDLE, SADDLE)
    # each stacked position's place in its class's saddle order, whose
    # first roles are SADDLE's
    order = np.argsort(saddles.owner * len(reduced_system.ROLES) + saddles.role, kind="stable")
    sizes = saddles.counts.sum(axis=1)
    place = np.empty_like(order)
    place[order] = np.arange(order.size) - (np.cumsum(sizes) - sizes)[saddles.owner[order]]
    # each subdomain's class, and where its unknowns start, in turn
    klass = np.searchsorted(saddles.reps, st.rep)
    n_k = np.diff(off)[klass]
    first = np.cumsum(n_k) - n_k
    # the torn column of each subdomain's unknowns in saddle order: a
    # member's dofs play its representative's roles, at its places; the
    # stacked positions are the fields' in turn
    g = np.empty(n_k.sum(), dtype=np.int64)
    base = 0
    for fld, col in torn_columns(red.system, red.cls).items():
        at = base + block_positions(st.rep_off[fld], st.rep)
        keep = saddles.role[at] < SADDLE.stop
        sub = np.repeat(np.arange(st.n_sub), np.diff(st.off[fld]))
        g[(first[sub] + place[at])[keep]] = col[keep]
        base += st.rep_off[fld][-1]
    # each subdomain's entries in its class's stored order
    nnz = np.diff(M.indptr[off])
    e = block_positions(M.indptr[off], klass)
    shift = np.repeat(first - off[klass], nnz[klass])
    row = np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))[e] + shift
    At = sp.csr_matrix((M.data[e], (g[row], g[M.indices[e] + shift])), shape=(lay.n_w, lay.n_w))
    B_C, C_hat = interface_coupling(red)
    return sp.bmat([[At, B_C.T], [B_C, -C_hat]], format="csr")


def dense_torn_solution(red) -> np.ndarray:
    """Interface unknowns from one sparse solve of the full torn saddle
    system, bypassing the reduction entirely."""
    K = torn_matrix_reference(red).tocsc()
    x = sp.linalg.spsolve(K, np.concatenate([red.f_w, red.h]))
    return x[red.layout.n_w :]


def torn_solve_per_member(torn, b: np.ndarray) -> np.ndarray:
    """The partially assembled torn solve of ``b`` with every class's factor
    solving all its members' columns, shared or not: local solves, primal
    right-hand side, coarse solve and back-substitution, each member's
    result added at its torn positions one by one."""
    n_local = b.size - torn.coarse.n
    t_P = b[n_local:].copy()
    local = [c.factor.solve(b[c.idx]) for c in torn.classes]
    for c, Z in zip(torn.classes, local):
        np.subtract.at(t_P, c.primal, c.A_Pr @ Z)
    x_P = torn.coarse.solve(t_P)
    x = np.zeros(b.size)
    for c, Z in zip(torn.classes, local):
        np.add.at(x, c.idx, Z - c.X @ x_P[c.primal])
    x[n_local:] = x_P
    return x


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    diff = float(np.max(np.abs(np.asarray(got) - np.asarray(want)))) if want.size else 0.0
    return diff / scale if scale > 0.0 else diff


def dense_coarse(n: int, parts) -> np.ndarray:
    """The dense coarse matrix of ``parts`` (each class's primal columns and
    its contribution), summed class by class with np.add.at."""
    S = np.zeros((n, n))
    for primal, S_c in parts:
        np.add.at(S, (primal[:, None, :], primal[None, :, :]), S_c[:, :, None])
    return S


def band_to_dense(band: np.ndarray) -> np.ndarray:
    """The dense matrix whose lower bands, of it and of its transpose, are
    the pair ``band`` (``reduced_system.coarse_band``)."""
    _, w, n = band.shape
    S = np.zeros((n, n))
    for d in range(w):
        j = np.arange(n - d)
        S[j + d, j] = band[0, d, : n - d]
        S[j, j + d] = band[1, d, : n - d]
    return S


def dense_generalized_eigs(G: np.ndarray, Minv: np.ndarray) -> np.ndarray:
    """Spectrum of M^-1 G from dense symmetric pencils."""
    Minv = 0.5 * (Minv + Minv.T)
    L = np.linalg.cholesky(Minv)
    return np.linalg.eigvalsh(L.T @ (0.5 * (G + G.T)) @ L)


def random_spd(n: int, cond: float, rng: np.random.Generator) -> np.ndarray:
    """Random SPD matrix with prescribed condition number."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = np.geomspace(1.0, cond, n)
    return (Q * vals) @ Q.T


def per_subdomain_assembly(mesh, spaces, materials, load) -> dict:
    """Reference for the stacked assembly: each subdomain assembled on its
    own, from the element tables of its own triangles and material with
    its own boundary conditions.

    Every subdomain's entries are summed in element order (``np.add.at``
    adds in input order) into its own CSR blocks; each global block re-sums
    the local ones in ascending subdomain order through SciPy, as
    ``BlockSystem`` does; the loads are accumulated with np.add.at.
    Returns name -> (list of local matrices or loads, global one) for
    "A".."E", "f" and "g", and field -> list of local dof sets for "u",
    "xi" and "p".
    """
    grid = materials.grid
    n_sub = grid[0] * grid[1]
    esub_b, esub_r = element_subdomains(mesh, grid), element_subdomains(mesh.refined_mesh, grid)
    p0 = spaces.total_pressure_variant == "p0"
    tables = [
        element_tables(
            spaces.fields, p0, np.flatnonzero(esub_b == s), np.flatnonzero(esub_r == s),
            [(materials.lam[s], materials.mu[s], materials.alpha[s], materials.kappa[s])], load,
        )[0]
        for s in range(n_sub)
    ]

    def dof_set(t):
        d = t.rows.ravel()
        return np.unique(d[d >= 0])

    sets = {fld: [dof_set(t[name]) for t in tables] for fld, name in (("u", "A"), ("xi", "C"), ("p", "E"))}
    size = spaces.n_dofs
    out: dict = dict(sets)
    for name, r, c in BLOCK_FIELDS:
        local, grows, gcols, gvals = [], [], [], []
        for s in range(n_sub):
            t = tables[s][name]
            a, b = t.rows.shape[1], t.cols.shape[1]
            rows = np.repeat(t.rows, b, axis=1).ravel()
            cols = np.tile(t.cols, (1, a)).ravel()
            keep = (rows >= 0) & (cols >= 0)
            r_set, c_set = sets[r][s], sets[c][s]
            lr = np.searchsorted(r_set, rows[keep])
            lc = np.searchsorted(c_set, cols[keep])
            keys, inverse = np.unique(lr * c_set.size + lc, return_inverse=True)
            summed = np.zeros(keys.size)
            np.add.at(summed, inverse, t.vals.ravel()[keep])
            kr, kc = np.divmod(keys, c_set.size)
            indptr = np.concatenate([[0], np.cumsum(np.bincount(kr, minlength=r_set.size))])
            m = sp.csr_matrix((summed, kc, indptr), shape=(r_set.size, c_set.size))
            local.append(m)
            grows.append(r_set[kr])
            gcols.append(c_set[kc])
            gvals.append(summed)
        g = sp.coo_matrix(
            (np.concatenate(gvals), (np.concatenate(grows), np.concatenate(gcols))), shape=(size[r], size[c])
        ).tocsr()
        out[name] = (local, g)
    for name, fld in (("f", "u"), ("g", "p")):
        local = []
        total = np.zeros(size[fld])
        for s in range(n_sub):
            t = tables[s][name]
            d, v = t.rows.ravel(), t.vals.ravel()
            keep = d >= 0
            f_s = np.zeros(sets[fld][s].size)
            np.add.at(f_s, np.searchsorted(sets[fld][s], d[keep]), v[keep])
            np.add.at(total, sets[fld][s], f_s)
            local.append(f_s)
        out[name] = (local, total)
    return out


def numeric_classes(parts: list[list]) -> list[list[int]]:
    """Positions in ``parts`` grouped by comparing the stored local data: the
    oracle for the input key that decides the classes (BlockSystem.classes).

    Each entry holds one subdomain's local data: sparse matrices and
    integer index arrays.  Two entries fall in one class when all shapes,
    sparsity patterns (indptr, indices) and index arrays are equal and
    every matrix agrees with the class's first member to within
    _CONGRUENCE_RTOL times that matrix's own largest entry.
    """
    firsts: list[list[tuple[np.ndarray, float]]] = []  # values and tolerance of each first member
    classes: list[list[int]] = []
    by_pattern: dict[tuple, list[int]] = {}
    for k, items in enumerate(parts):
        pattern: list = []
        values: list[np.ndarray] = []
        for item in items:
            if sp.issparse(item):
                pattern += [item.shape, item.indptr.tobytes(), item.indices.tobytes()]
                values.append(item.data)
            else:
                pattern.append(item.tobytes())
        candidates = by_pattern.setdefault(tuple(pattern), [])
        for c in candidates:
            if all(v.size == 0 or np.max(np.abs(v - f)) <= tol for v, (f, tol) in zip(values, firsts[c])):
                classes[c].append(k)
                break
        else:
            candidates.append(len(classes))
            firsts.append([(v, _CONGRUENCE_RTOL * np.max(np.abs(v), initial=0.0)) for v in values])
            classes.append([k])
    return classes


# grids whose congruence classes have several members, with their class count
MULTI_MEMBER_GRIDS = {
    "5x5 p1 neumann-left": (dict(nx=20, subdomains=(5, 5), total_pressure="p1", bc="neumann-left"), 9),
    "5x5 p1 dirichlet": (dict(nx=20, subdomains=(5, 5), total_pressure="p1", bc="dirichlet"), 9),
    "5x5 p0 neumann-left": (dict(nx=20, subdomains=(5, 5), total_pressure="p0", bc="neumann-left"), 9),
    "5x5 p0 dirichlet": (dict(nx=20, subdomains=(5, 5), total_pressure="p0", bc="dirichlet"), 9),
    "24x12 on 4x2": (dict(nx=24, subdomains=(4, 2)), 6),
    "E checkerboard": (dict(nx=20, subdomains=(5, 5), pattern="checkerboard", black={"E": 1e3}), 14),
    # at the default E the elastic entries dwarf the flow ones: the key
    # must still tell these apart
    "alpha checkerboard": (dict(nx=16, subdomains=(4, 4), pattern="checkerboard", black={"alpha": 1e-2}), 14),
    "small kappa checkerboard": (
        dict(nx=16, subdomains=(4, 4), pattern="checkerboard", kappa=1e-8, black={"kappa": 1e-9}),
        14,
    ),
    "nu checkerboard": (dict(nx=16, subdomains=(4, 4), pattern="checkerboard", black={"nu": 0.45}), 14),
}


def assert_stored_once(system) -> None:
    """Each congruence class's local blocks and loads are stored once: the
    stored arrays hold the representatives' entries alone, and every
    member's view shares its representative's data."""
    st, local = system.stacked, local_blocks(system)
    reps = np.unique(st.rep)
    for name in "ABCDE":
        assert getattr(st, name).nnz == sum(getattr(local[r], name).nnz for r in reps), name
    for name in "fg":
        assert getattr(st, name).size == sum(getattr(local[r], name).size for r in reps), name
    for s, lb in local.items():
        for name in "ABCDEfg":
            got, want = getattr(lb, name), getattr(local[st.rep[s]], name)
            if sp.issparse(got):
                got, want = got.data, want.data
            assert np.shares_memory(got, want), (s, name)


def assemble_with_reference(cfg):
    """The stacked assembly of a configuration and its per-subdomain
    reference: (mesh, spaces, system, reference)."""
    mesh = build_mesh(cfg.nx, cfg.subdomains)
    spaces = build_spaces(mesh, cfg.total_pressure, cfg.boundary())
    mats = cfg.materials()
    system = assemble_blocks(spaces, mats, LoadSpec())
    return mesh, spaces, system, per_subdomain_assembly(mesh, spaces, mats, LoadSpec())


def stokes_stability_witness(system) -> float:
    """Smallest nonzero generalized singular value of the divergence coupling.

    Dense diagnostic for small meshes: eigenvalues of B A^{-1} B^T against
    the total-pressure Gram block; returns the square root of the smallest
    nonzero one.  Strictly positive for a stable pairing.
    """
    A = system.A.toarray()
    B = system.B.toarray()
    C = system.C.toarray()
    S = B @ np.linalg.solve(A, B.T)
    w = np.sort(sla.eigh(S, C, eigvals_only=True))
    nonzero = w[w > 1e-10 * max(w[-1], 1.0)]
    return float(np.sqrt(nonzero[0])) if nonzero.size else 0.0


def dump_blocks_coo(system, path: str) -> None:
    """Write all five blocks in `block row col value` text form."""
    with open(path, "w") as fh:
        for name in "ABCDE":
            m = getattr(system, name).tocoo()
            for r, c, v in zip(m.row, m.col, m.data):
                fh.write(f"{name} {r} {c} {float(v)!r}\n")
