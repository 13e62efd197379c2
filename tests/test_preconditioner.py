"""Segment solvers of the block preconditioner.

Each segment is checked against a dense reconstruction: the scaled local
mass Schur sum and the pressure interface Schur complement pin the spectra
of their solvers from below at one, and the multiplier segment is compared
entry by entry with an explicitly assembled broken Schur complement.
"""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import biot_ddp as bd
from biot_ddp import preconditioner
from biot_ddp.preconditioner import _dense_schur, build_lambda_solver, build_p_bddc, nested_dissection
from biot_ddp.reduced_system import _DENSE_FACTOR_CUTOFF, CoarseProblem
from helpers import (
    assembled_pressure_schur,
    assembled_total_pressure_schur,
    dense_from_apply,
    preconditioned_spectrum,
    rel_err,
    splu_schur,
)


def build(**kw):
    params = dict(
        nx=8, subdomains=(2, 2), E=1.0, nu=0.3, alpha=0.9, kappa=1.0
    )
    params.update(kw)
    return bd.build_pipeline(bd.ExperimentConfig(**params))


def broken_dual_offsets(cls):
    sizes = [len(cls.u_sub_dual[s]) for s in range(cls.n_subdomains)]
    return np.cumsum([0] + sizes)


def broken_elastic_schur(pipe, lumped=False):
    """Block diagonal dual-space elastic Schur complement, one dense
    elimination per subdomain (primal dofs excluded)."""
    cls = pipe.cls
    offsets = broken_dual_offsets(cls)
    n = offsets[-1]
    H = np.zeros((n, n))
    for s in range(cls.n_subdomains):
        lb = pipe.system.local[s]
        dual = lb.u_pos(np.asarray(cls.u_sub_dual[s], dtype=np.int64))
        sl = slice(offsets[s], offsets[s + 1])
        if lumped:
            H[sl, sl] = lb.A.toarray()[np.ix_(dual, dual)]
        else:
            inner = lb.u_pos(np.asarray(cls.u_interior[s], dtype=np.int64))
            H[sl, sl] = splu_schur(lb.A, dual, inner)
    return H


class TestTotalPressureSolver:
    def test_spectrum_bounded_below_by_one(self):
        pipe = build()
        S = assembled_total_pressure_schur(pipe)
        eigs = preconditioned_spectrum(pipe.preconditioner.xi.apply, S)
        assert eigs.min() > 1.0 - 1e-8
        assert eigs.max() < 4.0

    def test_spectrum_with_material_contrast(self):
        pipe = build(pattern="checkerboard", black={"E": 1e4})
        S = assembled_total_pressure_schur(pipe)
        eigs = preconditioned_spectrum(pipe.preconditioner.xi.apply, S)
        assert eigs.min() > 1.0 - 1e-8

    def test_piecewise_constant_variant_has_empty_segment(self):
        pipe = build(total_pressure="p0")
        pre = pipe.preconditioner
        assert pre.segments[0] == 0
        assert pre.xi is None
        out = pre.apply(np.ones(sum(pre.segments)))
        assert out.shape == (sum(pre.segments),)


class TestPressureBddc:
    def test_spectrum_bounded_below_by_one(self):
        pipe = build()
        S = assembled_pressure_schur(pipe)
        eigs = preconditioned_spectrum(pipe.preconditioner.pressure.apply, S)
        assert eigs.min() > 1.0 - 1e-8

    def test_spectrum_with_permeability_contrast(self):
        pipe = build(pattern="checkerboard", black={"kappa": 1e-5})
        S = assembled_pressure_schur(pipe)
        eigs = preconditioned_spectrum(pipe.preconditioner.pressure.apply, S)
        assert eigs.min() > 1.0 - 1e-8

    def test_inverse_is_spd(self):
        pipe = build()
        n = pipe.preconditioner.segments[1]
        M = dense_from_apply(pipe.preconditioner.pressure.apply, n)
        assert np.abs(M - M.T).max() < 1e-12 * np.abs(M).max()
        assert np.linalg.eigvalsh(0.5 * (M + M.T)).min() > 0.0


class TestLagrangeSolver:
    def test_dirichlet_matches_dense_schur(self):
        pipe = build(pattern="checkerboard", black={"E": 100.0})
        H = broken_elastic_schur(pipe)
        Bd = pipe.jump.jump_scaled.toarray()
        M_ref = Bd @ H @ Bd.T
        M = dense_from_apply(pipe.preconditioner.multiplier.apply, M_ref.shape[0])
        assert rel_err(M, M_ref) < 1e-12

    def test_lumped_matches_dual_block(self):
        pipe = build(multiplier_pc="lumped")
        H = broken_elastic_schur(pipe, lumped=True)
        Bd = pipe.jump.jump_scaled.toarray()
        M_ref = Bd @ H @ Bd.T
        M = dense_from_apply(pipe.preconditioner.multiplier.apply, M_ref.shape[0])
        assert rel_err(M, M_ref) < 1e-12

    def test_multiplier_segment_is_spd(self):
        pipe = build()
        n = pipe.preconditioner.segments[2]
        M = dense_from_apply(pipe.preconditioner.multiplier.apply, n)
        assert np.abs(M - M.T).max() < 1e-12 * np.abs(M).max()
        assert np.linalg.eigvalsh(0.5 * (M + M.T)).min() > 0.0

    def test_unknown_kind_rejected(self):
        pipe = build()
        with pytest.raises(bd.ConfigurationError):
            build_lambda_solver(
                pipe.system, pipe.cls, pipe.jump, "robin"
            )


def numpy_schur(M, gamma, inner):
    """Dense Schur complement by numpy alone, sharing no factor code."""
    D = M.toarray()
    S = D[np.ix_(gamma, gamma)]
    if inner.size:
        S = S - D[np.ix_(gamma, inner)] @ np.linalg.solve(D[np.ix_(inner, inner)], D[np.ix_(inner, gamma)])
    return S


class TestClassBatchedBlocks:
    """Each block, applied class by class, against an operator assembled
    densely subdomain by subdomain."""

    @pytest.mark.parametrize("variant", ["p1", "p0"])
    @pytest.mark.parametrize("primal", ["vertex", "vertex-edge"])
    def test_blocks_match_per_subdomain_dense_reference(self, variant, primal):
        pipe = build(nx=16, subdomains=(4, 4), total_pressure=variant, primal=primal)
        cls, pre = pipe.cls, pipe.preconditioner
        local = [(s, pipe.system.local[s]) for s in range(cls.n_subdomains)]

        if variant == "p1":
            R = pipe.restrictions.xi_break_scaled.toarray()
            blocks = []
            for s, lb in local:
                gamma = lb.xi_pos(cls.xi_sub_interface[s])
                ratio = pipe.materials.lam[s] / pipe.materials.mu[s]
                blocks.append(np.linalg.inv(ratio * numpy_schur(lb.C, gamma, lb.xi_pos(cls.xi_interior[s]))))
            ref = R.T @ sla.block_diag(*blocks) @ R
            assert rel_err(dense_from_apply(pre.xi.apply, R.shape[1]), ref) < 1e-12
        else:
            assert pre.xi is None

        # pressure: partially assembled Schur complement on (broken duals | primal)
        R = pipe.restrictions.p_inject_scaled.toarray()
        n_dual = R.shape[0] - cls.p_primal.size
        S = np.zeros((R.shape[0], R.shape[0]))
        off = 0
        for s, lb in local:
            ids = cls.p_sub_interface[s]
            is_dual = np.isin(ids, cls.p_dual)
            t = np.empty(ids.size, dtype=np.int64)
            t[is_dual] = off + np.arange(np.count_nonzero(is_dual))
            t[~is_dual] = n_dual + np.searchsorted(cls.p_primal, ids[~is_dual])
            off += np.count_nonzero(is_dual)
            S[np.ix_(t, t)] += numpy_schur(lb.E, lb.p_pos(ids), lb.p_pos(cls.p_interior[s]))
        ref = R.T @ np.linalg.solve(S, R)
        assert rel_err(dense_from_apply(pre.pressure.apply, R.shape[1]), ref) < 1e-12

        # multipliers: scaled jumps through the broken Dirichlet Schur complements
        H = sla.block_diag(*[
            numpy_schur(lb.A, lb.u_pos(cls.u_sub_dual[s]), lb.u_pos(cls.u_interior[s])) for s, lb in local
        ])
        Bd = pipe.jump.jump_scaled.toarray()
        ref = Bd @ H @ Bd.T
        assert rel_err(dense_from_apply(pre.multiplier.apply, ref.shape[0]), ref) < 1e-12


def lu_solve_bddc(pipe, kind):
    """The BDDC apply through one LU solve per subdomain and application:
    each dual Schur block factored by LAPACK from SciPy's default sparse LU
    Schur complement (splu_schur), the coarse matrix summed from the same."""
    cls = pipe.cls
    bddc = pipe.preconditioner.xi if kind == "xi" else pipe.preconditioner.pressure
    n_primal = cls.p_primal.size if kind == "p" else 0
    F = np.zeros((n_primal, n_primal))
    subs = []
    for s in range(cls.n_subdomains):
        lb = pipe.system.local[s]
        if kind == "xi":
            M = pipe.materials.lam[s] / pipe.materials.mu[s] * lb.C
            gamma, inner = lb.xi_pos(cls.xi_sub_interface[s]), lb.xi_pos(cls.xi_interior[s])
            nd, cols = gamma.size, np.zeros(0, dtype=np.int64)
        else:
            dual, primal = cls.p_sub_dual[s], cls.p_sub_primal[s]
            M, gamma, inner = lb.E, lb.p_pos(np.concatenate([dual, primal])), lb.p_pos(cls.p_interior[s])
            nd, cols = dual.size, np.searchsorted(cls.p_primal, primal)
        S = splu_schur(M, gamma, inner)
        lu = sla.lu_factor(S[:nd, :nd])
        A_rP = S[:nd, nd:]
        X = sla.lu_solve(lu, A_rP)
        F[np.ix_(cols, cols)] += S[nd:, nd:] - A_rP.T @ X
        subs.append((nd, lu, A_rP, X, cols))

    def apply(r):
        b = bddc.inject_scaled @ r
        t_P, local, off = b[b.size - n_primal :].copy(), [], 0
        for nd, lu, A_rP, X, cols in subs:
            z = sla.lu_solve(lu, b[off : off + nd])
            t_P[cols] -= A_rP.T @ z
            local.append(z)
            off += nd
        x_P = np.linalg.solve(F, t_P) if n_primal else t_P
        x = [z - X @ x_P[cols] for z, (_, _, _, X, cols) in zip(local, subs)]
        return bddc.inject_scaled_T @ np.concatenate([*x, x_P])

    return apply


class TestDenseBddcMaps:
    """The xi and p BDDC classes keep [S_dd^-1; X^T] as their map and no
    factor, so each application is one product per class."""

    @pytest.mark.parametrize("kw", [
        dict(nx=16, subdomains=(4, 4)),
        dict(nx=16, subdomains=(4, 4), primal="vertex-edge"),
        dict(nx=16, subdomains=(4, 4), pattern="checkerboard", black={"kappa": 1e-5}),
        dict(nx=44, subdomains=(2, 2)),  # the interiors take the sparse Schur kernel
    ])
    @pytest.mark.parametrize("kind", ["xi", "p"])
    def test_apply_matches_lu_solves(self, kw, kind):
        pipe = build(**kw)
        bddc = pipe.preconditioner.xi if kind == "xi" else pipe.preconditioner.pressure
        assert all(c.factor is None and isinstance(c.S, np.ndarray) for c in bddc.classes)
        assert (bddc.coarse.n > 0) == (kind == "p")
        ref = lu_solve_bddc(pipe, kind)
        rng = np.random.default_rng(4)
        for _ in range(3):
            r = rng.standard_normal(bddc.inject_scaled.shape[1])
            want = ref(r)
            assert np.linalg.norm(bddc.apply(r) - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("primal", ["vertex", "vertex-edge"])
    def test_coarse_matrix_is_that_of_the_factored_dual_blocks(self, monkeypatch, primal):
        # bitwise: A_PP - A_rP^T X, X from a LAPACK LU solve of the dual
        # block, summed class by class into the coarse matrix
        schur, coarse = [], []

        def kept_schur(*args):
            schur.append(_dense_schur(*args))
            return schur[-1]

        def kept_coarse(F):
            coarse.append(F.copy())
            return CoarseProblem(F)

        monkeypatch.setattr(preconditioner, "_dense_schur", kept_schur)
        monkeypatch.setattr(preconditioner, "CoarseProblem", kept_coarse)
        pipe = build(nx=20, subdomains=(5, 5), primal=primal, pattern="checkerboard", black={"E": 1e3})
        pc = pipe.preconditioner
        classes = pc.xi.classes + pc.pressure.classes
        assert len(schur) == len(classes) + len(pc.multiplier.classes)
        F = np.zeros_like(coarse[1])
        for S, c in zip(schur[len(pc.xi.classes) :], pc.pressure.classes):
            nd = c.idx.shape[0]
            A_rP = S[:nd, nd:]
            X = sla.lu_solve(sla.lu_factor(S[:nd, :nd]), A_rP)
            assert np.array_equal(c.X, X)
            np.add.at(F, (c.primal[:, None, :], c.primal[None, :, :]), (S[nd:, nd:] - A_rP.T @ X)[:, :, None])
        assert coarse[0].shape == (0, 0) and F.size and np.array_equal(coarse[1], F)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning", "ignore::scipy.linalg.LinAlgWarning")
    def test_singular_dual_block_rejected(self, monkeypatch):
        def singular(M, gamma, inner, lattice, label):
            S = _dense_schur(M, gamma, inner, lattice, label)
            if label == "pressure interior block of subdomain 3":
                S[0, :] = S[:, 0] = 0.0  # a dual row and column
            return S

        pipe = build()
        monkeypatch.setattr(preconditioner, "_dense_schur", singular)
        with pytest.raises(bd.ConfigurationError, match="^pressure block of subdomain 3: local solve failed"):
            build_p_bddc(pipe.system, pipe.cls, pipe.restrictions)


class TestBlockApply:
    def test_apply_is_block_diagonal(self):
        pipe = build()
        pre = pipe.preconditioner
        n_xi, n_p, n_lam = pre.segments
        rng = np.random.default_rng(11)
        r = rng.standard_normal(n_xi + n_p + n_lam)
        out = pre.apply(r)
        np.testing.assert_allclose(out[:n_xi], pre.xi.apply(r[:n_xi]), atol=1e-14)
        np.testing.assert_allclose(
            out[n_xi : n_xi + n_p], pre.pressure.apply(r[n_xi : n_xi + n_p]), atol=1e-14
        )
        np.testing.assert_allclose(
            out[n_xi + n_p :], pre.multiplier.apply(r[n_xi + n_p :]), atol=1e-14
        )

    def test_apply_is_spd(self):
        pipe = build()
        n = sum(pipe.preconditioner.segments)
        M = dense_from_apply(pipe.preconditioner.apply, n)
        assert np.abs(M - M.T).max() < 1e-11 * np.abs(M).max()
        assert np.linalg.eigvalsh(0.5 * (M + M.T)).min() > 0.0

    def test_wrong_length_rejected(self):
        pipe = build()
        with pytest.raises(bd.InternalError):
            pipe.preconditioner.apply(np.zeros(3))


class TestSchurKernel:
    """The sparse branch of ``_dense_schur``: one LU of the whole block with
    the eliminated unknowns first, in nested-dissection order, and the kept
    ones last."""

    @staticmethod
    def blocks(case):
        """(M, gamma, inner, lattice) of one representative."""
        if case.startswith("lambda"):
            # 3x3 at H/h=16: corner, edge and centre classes
            pipe = build(nx=48, subdomains=(3, 3))
            r = {"lambda corner": 0, "lambda edge": 1, "lambda centre": 4}[case]
            lb, cls = pipe.system.local[r], pipe.cls
            inner = lb.u_pos(cls.u_interior[r])
            return lb.A, lb.u_pos(cls.u_sub_dual[r]), inner, pipe.system.spaces.lattice("u", lb.udofs[inner])
        # 2x2 at H/h=22: the xi and p interiors cross the cutoff
        pipe = build(nx=44, subdomains=(2, 2))
        lb, cls, r = pipe.system.local[0], pipe.cls, 0
        if case == "xi":
            inner = lb.xi_pos(cls.xi_interior[r])
            return lb.C, lb.xi_pos(cls.xi_sub_interface[r]), inner, pipe.system.spaces.lattice("xi", lb.xidofs[inner])
        inner = lb.p_pos(cls.p_interior[r])
        gamma = lb.p_pos(np.concatenate([cls.p_sub_dual[r], cls.p_sub_primal[r]]))
        return lb.E, gamma, inner, pipe.system.spaces.lattice("p", lb.pdofs[inner])

    @pytest.mark.parametrize("case", ["lambda corner", "lambda edge", "lambda centre", "xi", "p"])
    def test_matches_the_splu_schur_complement(self, case):
        M, gamma, inner, lattice = self.blocks(case)
        assert inner.size >= _DENSE_FACTOR_CUTOFF
        # the order is a permutation of the eliminated positions
        assert np.array_equal(np.sort(nested_dissection(*lattice)), np.arange(inner.size))
        ref = splu_schur(M, gamma, inner)
        S = _dense_schur(M, gamma, inner, lattice, "test block")
        assert np.abs(S - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_order_cuts_boxes_after_their_halves(self):
        # 5x3 points: the middle column is cut last, then each half's
        # middle row; the rest (boxes of at most 4 points) in input order
        ix, iy = np.meshgrid(np.arange(5), np.arange(3))
        order = nested_dissection(ix.ravel(), iy.ravel())
        pts = [(int(ix.ravel()[k]), int(iy.ravel()[k])) for k in order]
        assert pts[-3:] == [(2, 0), (2, 1), (2, 2)]
        left = pts[:6]
        assert sorted(left) == sorted((x, y) for x in (0, 1) for y in range(3))
        assert left[-2:] == [(0, 1), (1, 1)]

    @staticmethod
    def neumann_laplacian(m):
        T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m)).tolil()
        T[0, 0] = T[m - 1, m - 1] = 1.0
        return (sp.kron(T, sp.identity(m)) + sp.kron(sp.identity(m), T)).tocsr()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("kind, why", [
        ("neumann island", r"local solve failed its residual probe \(.*\)"),
        ("zero row and column", "sparse LU met an exactly zero pivot"),
        ("column coupled only to kept rows", "sparse LU met an exactly zero pivot in the eliminated block"),
    ])
    def test_singular_eliminated_block_rejected(self, kind, why):
        # 441 eliminated grid points above the cutoff, 21 kept unknowns
        # coupled to the top row of the grid
        m, k = 21, 21
        n = m * m
        C = sp.csr_matrix((np.full(k, -0.5), (np.arange(n - m, n), np.arange(k))), shape=(n, k))
        L = self.neumann_laplacian(m)  # constants in the null space
        if kind != "neumann island":
            L = (L + 0.1 * sp.identity(n)).tolil()
            L[7, :] = 0.0
            L[:, 7] = 0.0
            if kind == "column coupled only to kept rows":
                C = C.tolil()
                C[7, 0] = -0.5
        M = sp.bmat([[L, C], [C.T, 4.0 * sp.identity(k)]], format="csr")
        M.eliminate_zeros()
        ix, iy = np.arange(n) % m, np.arange(n) // m
        label = "elastic interior block of subdomain 4"
        with pytest.raises(bd.ConfigurationError, match=f"^{label}: {why};"):
            _dense_schur(M, np.arange(n, n + k), np.arange(n), (ix, iy), label)
