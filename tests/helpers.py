"""Shared oracles for the test suite.

Dense reconstructions of matrix-free operators, assembled interface Schur
complements, and generalized spectra of preconditioned blocks.  Everything
here goes through an independent route (dense factorizations, explicit
column probing) so the solver modules are checked against something they
do not share code with.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from biot_ddp import reduced_system
from biot_ddp.decomposition import _CONGRUENCE_RTOL
from biot_ddp.mesh_fem import BLOCK_FIELDS, LoadSpec, assemble_blocks, build_mesh, build_spaces, element_tables


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
    inner = np.concatenate([cls.p.interior[s] for s in range(cls.n_subdomains)])
    return splu_schur(pipe.system.E, gamma, np.sort(inner))


def assembled_total_pressure_schur(pipe) -> np.ndarray:
    """Sum of stiffness-weighted local mass Schur complements on the
    shared total pressure dofs."""
    cls = pipe.cls
    mats = pipe.materials
    n_gamma = len(cls.xi.interface)
    S = np.zeros((n_gamma, n_gamma))
    for s in range(cls.n_subdomains):
        lb = pipe.system.local[s]
        gamma = lb.pos("xi", np.asarray(cls.xi.sub_interface[s], dtype=np.int64))
        inner = lb.pos("xi", np.asarray(cls.xi.interior[s], dtype=np.int64))
        S_loc = splu_schur(lb.C, gamma, inner)
        rows = cls.xi.interface_pos(np.asarray(cls.xi.sub_interface[s], dtype=np.int64))
        weight = mats.lam[s] / mats.mu[s]
        S[np.ix_(rows, rows)] += weight * S_loc
    return S


def dense_torn_solution(red) -> np.ndarray:
    """Interface unknowns from one sparse solve of the full torn saddle
    system, bypassing the reduction entirely."""
    K = red.torn_matrix().tocsc()
    rhs = red.torn_rhs()
    x = sp.linalg.spsolve(K, rhs)
    return x[red.layout.n_w :]


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
    """Reference for the stacked assembly: the per-subdomain algorithm it
    replaced, run on the same element tables.

    Every subdomain's entries, in element order, go through their own
    COO->CSR conversion; each global block re-sums the local ones in
    ascending subdomain order; the loads are accumulated with np.add.at.
    Returns name -> (list of local matrices or loads, global one) for
    "A".."E", "f" and "g", and field -> list of local dof sets for "u",
    "xi" and "p".
    """
    tables = element_tables(spaces, materials, load)
    n_sub = materials.grid[0] * materials.grid[1]

    def dof_sets(t):
        sets = []
        for s in range(n_sub):
            d = t.rows[t.sub == s].ravel()
            sets.append(np.unique(d[d >= 0]))
        return sets

    sets = {"u": dof_sets(tables["A"]), "xi": dof_sets(tables["C"]), "p": dof_sets(tables["E"])}
    size = spaces.n_dofs
    out: dict = dict(sets)
    for name, r, c in BLOCK_FIELDS:
        t = tables[name]
        a, b = t.rows.shape[1], t.cols.shape[1]
        rows = np.repeat(t.rows, b, axis=1).ravel()
        cols = np.tile(t.cols, (1, a)).ravel()
        vals = t.vals.ravel()
        subs = np.repeat(t.sub, a * b)
        keep = (rows >= 0) & (cols >= 0)
        rows, cols, vals, subs = rows[keep], cols[keep], vals[keep], subs[keep]
        order = np.argsort(subs, kind="stable")
        rows, cols, vals, subs = rows[order], cols[order], vals[order], subs[order]
        bounds = np.searchsorted(subs, np.arange(n_sub + 1))
        local, grows, gcols, gvals = [], [], [], []
        for s in range(n_sub):
            lo, hi = bounds[s], bounds[s + 1]
            r_set, c_set = sets[r][s], sets[c][s]
            lr = np.searchsorted(r_set, rows[lo:hi])
            lc = np.searchsorted(c_set, cols[lo:hi])
            m = sp.coo_matrix((vals[lo:hi], (lr, lc)), shape=(r_set.size, c_set.size)).tocsr()
            m.sum_duplicates()
            local.append(m)
            mc = m.tocoo()
            grows.append(r_set[mc.row])
            gcols.append(c_set[mc.col])
            gvals.append(mc.data)
        g = sp.coo_matrix(
            (np.concatenate(gvals), (np.concatenate(grows), np.concatenate(gcols))), shape=(size[r], size[c])
        ).tocsr()
        out[name] = (local, g)
    for name, fld in (("f", "u"), ("g", "p")):
        t = tables[name]
        local = []
        total = np.zeros(size[fld])
        for s in range(n_sub):
            d = t.rows[t.sub == s].ravel()
            v = t.vals[t.sub == s].ravel()
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
    st = system.stacked
    reps = np.unique(st.rep)
    for name in "ABCDE":
        assert getattr(st, name).nnz == sum(getattr(system.local[r], name).nnz for r in reps), name
    for name in "fg":
        assert getattr(st, name).size == sum(getattr(system.local[r], name).size for r in reps), name
    for s, lb in system.local.items():
        for name in "ABCDEfg":
            got, want = getattr(lb, name), getattr(system.local[st.rep[s]], name)
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
