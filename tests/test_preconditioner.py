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
from biot_ddp import preconditioner, reduced_system
from biot_ddp.preconditioner import _dense_schur, build_lambda_solver, build_p_bddc, class_schurs, nested_dissection
from biot_ddp.reduced_system import _DENSE_FACTOR_CUTOFF, CoarseProblem, coarse_band
from helpers import (
    MULTI_MEMBER_GRIDS,
    assembled_pressure_schur,
    assembled_total_pressure_schur,
    band_to_dense,
    dense_coarse,
    dense_from_apply,
    preconditioned_spectrum,
    record_probes,
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
    sizes = [len(cls.u.sub_dual[s]) for s in range(cls.n_subdomains)]
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
        dual = lb.pos("u", np.asarray(cls.u.sub_dual[s], dtype=np.int64))
        sl = slice(offsets[s], offsets[s + 1])
        if lumped:
            H[sl, sl] = lb.A.toarray()[np.ix_(dual, dual)]
        else:
            inner = lb.pos("u", np.asarray(cls.u.interior[s], dtype=np.int64))
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

    @pytest.mark.parametrize(
        "total_pressure, nx, grid, iterations",
        [("p1", 8, 4, 12), ("p1", 4, 2, 10), ("p0", 8, 4, 7), ("p0", 4, 2, 6)],
    )
    def test_all_primal_interface(self, total_pressure, nx, grid, iterations):
        # at H/h = 2 with edge averages every pressure interface dof is
        # primal: the block has no local unknowns, and its coarse solution
        # must not be truncated to integers on the way out
        cfg = bd.ExperimentConfig(nx=nx, subdomains=(grid, grid), total_pressure=total_pressure,
                                  primal="vertex-edge", E=1.0, nu=0.3, alpha=0.9, kappa=1.0)
        pipe = bd.build_pipeline(cfg)
        block = pipe.preconditioner.pressure
        assert all(c.idx.size == 0 for c in block.classes)
        M = dense_from_apply(block.apply, block.coarse.n)
        assert np.linalg.eigvalsh(0.5 * (M + M.T)).min() > 0.0
        res = bd.run_case(cfg, pipe)
        assert res.converged and res.iterations == iterations
        assert max(res.oracle_err) < 2e-8


class TestLagrangeSolver:
    def test_dirichlet_matches_dense_schur(self):
        pipe = build(pattern="checkerboard", black={"E": 100.0})
        H = broken_elastic_schur(pipe)
        Bd = pipe.jump.scaled.T.toarray()
        M_ref = Bd @ H @ Bd.T
        M = dense_from_apply(pipe.preconditioner.multiplier.apply, M_ref.shape[0])
        assert rel_err(M, M_ref) < 1e-12

    def test_lumped_matches_dual_block(self):
        pipe = build(multiplier_pc="lumped")
        H = broken_elastic_schur(pipe, lumped=True)
        Bd = pipe.jump.scaled.T.toarray()
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
            R = pipe.restrictions["xi"].scaled.toarray()
            blocks = []
            for s, lb in local:
                gamma = lb.pos("xi", cls.xi.sub_interface[s])
                ratio = pipe.materials.lam[s] / pipe.materials.mu[s]
                blocks.append(np.linalg.inv(ratio * numpy_schur(lb.C, gamma, lb.pos("xi", cls.xi.interior[s]))))
            ref = R.T @ sla.block_diag(*blocks) @ R
            assert rel_err(dense_from_apply(pre.xi.apply, R.shape[1]), ref) < 1e-12
        else:
            assert pre.xi is None

        # pressure: partially assembled Schur complement on (broken duals | primal)
        R = pipe.restrictions["p"].scaled.toarray()
        n_dual = R.shape[0] - cls.p.primal.size
        S = np.zeros((R.shape[0], R.shape[0]))
        off = 0
        for s, lb in local:
            ids = cls.p.sub_interface[s]
            is_dual = np.isin(ids, cls.p.dual)
            t = np.empty(ids.size, dtype=np.int64)
            t[is_dual] = off + np.arange(np.count_nonzero(is_dual))
            t[~is_dual] = n_dual + np.searchsorted(cls.p.primal, ids[~is_dual])
            off += np.count_nonzero(is_dual)
            S[np.ix_(t, t)] += numpy_schur(lb.E, lb.pos("p", ids), lb.pos("p", cls.p.interior[s]))
        ref = R.T @ np.linalg.solve(S, R)
        assert rel_err(dense_from_apply(pre.pressure.apply, R.shape[1]), ref) < 1e-12

        # multipliers: scaled jumps through the broken Dirichlet Schur complements
        H = sla.block_diag(*[
            numpy_schur(lb.A, lb.pos("u", cls.u.sub_dual[s]), lb.pos("u", cls.u.interior[s])) for s, lb in local
        ])
        Bd = pipe.jump.scaled.T.toarray()
        ref = Bd @ H @ Bd.T
        assert rel_err(dense_from_apply(pre.multiplier.apply, ref.shape[0]), ref) < 1e-12


def lu_solve_bddc(pipe, kind):
    """The BDDC apply through one LU solve per subdomain and application:
    each dual Schur block factored by LAPACK from SciPy's default sparse LU
    Schur complement (splu_schur), the coarse matrix summed from the same."""
    cls = pipe.cls
    bddc = pipe.preconditioner.xi if kind == "xi" else pipe.preconditioner.pressure
    n_primal = cls.p.primal.size if kind == "p" else 0
    F = np.zeros((n_primal, n_primal))
    subs = []
    for s in range(cls.n_subdomains):
        lb = pipe.system.local[s]
        if kind == "xi":
            M = pipe.materials.lam[s] / pipe.materials.mu[s] * lb.C
            gamma, inner = lb.pos("xi", cls.xi.sub_interface[s]), lb.pos("xi", cls.xi.interior[s])
            nd, cols = gamma.size, np.zeros(0, dtype=np.int64)
        else:
            dual, primal = cls.p.sub_dual[s], cls.p.sub_primal[s]
            M, gamma, inner = lb.E, lb.pos("p", np.concatenate([dual, primal])), lb.pos("p", cls.p.interior[s])
            nd, cols = dual.size, np.searchsorted(cls.p.primal, primal)
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
        # block, summed class by class into the coarse matrix; the coarse
        # problems are built torn, xi, p, λ
        schur, coarse = [], []

        def kept_schurs(*args):
            schur.append(class_schurs(*args)[0])
            return schur[-1], len(schur[-1])

        def kept_coarse(n, parts):
            coarse.append(coarse_band(n, parts))
            return CoarseProblem(n, parts)

        monkeypatch.setattr(preconditioner, "class_schurs", kept_schurs)
        monkeypatch.setattr(reduced_system, "CoarseProblem", kept_coarse)
        pipe = build(nx=20, subdomains=(5, 5), primal=primal, pattern="checkerboard", black={"E": 1e3})
        pc = pipe.preconditioner
        assert [len(S) for S in schur] == [len(b.classes) for b in (pc.xi, pc.pressure, pc.multiplier)]
        parts = []
        for S, c in zip(schur[1], pc.pressure.classes):
            nd = c.idx.shape[0]
            A_rP = S[:nd, nd:]
            X = sla.lu_solve(sla.lu_factor(S[:nd, :nd]), A_rP)
            assert np.array_equal(c.X, X)
            parts.append((c.primal, S[nd:, nd:] - A_rP.T @ X))
        F = dense_coarse(pc.pressure.coarse.n, parts)
        assert coarse[1].shape == (2, 1, 0) and F.size and np.array_equal(band_to_dense(coarse[2]), F)
        assert pc.pressure.coarse.kd == coarse[2].shape[1] - 1 < F.shape[0] - 1

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


class TestSharedSchur:
    """A class whose sides differ from an earlier one's only by Dirichlet
    sides takes its Schur complement as a principal submatrix of that
    one's (``class_schurs``)."""

    @staticmethod
    def schurs(monkeypatch, **kw):
        """The pipeline, and per block ("xi", "p", "lambda") the field, the
        ``block`` function and the Schur complements of its classes."""
        seen = []

        def kept(system, fld, block, label):
            out = class_schurs(system, fld, block, label)
            seen.append((fld, block, out[0]))
            return out

        monkeypatch.setattr(preconditioner, "class_schurs", kept)
        pipe = bd.build_pipeline(bd.ExperimentConfig(oracle="off", **kw))
        return pipe, dict(zip(["xi", "p", "lambda"][3 - len(seen):], seen))

    @pytest.mark.parametrize("primal", ["vertex", "vertex-edge"])
    @pytest.mark.parametrize("case", list(MULTI_MEMBER_GRIDS))
    def test_derived_match_their_own_schur(self, monkeypatch, case, primal):
        pipe, seen = self.schurs(monkeypatch, primal=primal, **MULTI_MEMBER_GRIDS[case][0])
        pc = pipe.preconditioner
        assert pc.multiplier.sources < len(pc.multiplier.classes)  # something is shared
        for key, (fld, block, schurs) in seen.items():
            groups = pipe.system.classes({"u": "A", "xi": "C", "p": "E"}[fld])
            assert len(schurs) == len(groups)
            for members, S in zip(groups, schurs):
                M, dofs, gamma, inner = block(members[0])
                own = _dense_schur(M, gamma, inner, pipe.system.spaces.fields[fld].lattice(dofs[inner]), "own")
                assert S.shape == own.shape
                assert np.abs(S - own).max() <= 1e-13 * np.abs(own).max(), (key, members[0])

    @pytest.mark.parametrize("kw, want", [
        (dict(nx=16, subdomains=(4, 4)), 2),  # the interior and the free left edge
        (dict(nx=16, subdomains=(4, 4), bc="dirichlet"), 1),
        (dict(nx=8, subdomains=(2, 2)), 4),  # no class has a side of another's kind
    ])
    def test_lambda_source_counts(self, kw, want):
        pipe = build(**kw)
        pc = pipe.preconditioner
        assert pc.multiplier.sources == want
        assert pc.xi.sources == len(pc.xi.classes)  # total pressure has no Dirichlet side
        assert bd.run_case(pipe.config, pipe).schur_sources == {  # none of these grids condenses the torn block
            "torn": 0, "xi": len(pc.xi.classes), "p": pc.pressure.sources, "lambda": want}

    @pytest.mark.parametrize("change, why", [
        ("kept", "a kept dof is not kept by the class of subdomain 5"),
        ("eliminated", "its eliminated dofs are not those of the class of subdomain 5"),
    ])
    def test_mismatched_dofs_rejected(self, change, why):
        # subdomain 1 (bottom edge) shares the interior class's S (subdomain 5)
        pipe = build(nx=16, subdomains=(4, 4))
        system, cls = pipe.system, pipe.cls

        def block(r):
            lb = system.stacked.local_view(r)
            iD, iI, iP = (lb.pos("u", d[r]) for d in (cls.u.sub_dual, cls.u.interior, cls.u.sub_primal))
            if r == 1 and change == "kept":
                iD = np.concatenate([iD, iP])  # its primal corners are not kept at the interior class
            if r == 1 and change == "eliminated":
                iI = iI[1:]
            return lb.A.tocsr(), lb.dofs["u"], iD, iI

        with pytest.raises(bd.InternalError, match=f"^elastic interior block of subdomain 1: {why}$"):
            class_schurs(system, "u", block, "elastic")


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
            inner = lb.pos("u", cls.u.interior[r])
            return lb.A, lb.pos("u", cls.u.sub_dual[r]), inner, pipe.system.spaces.fields["u"].lattice(lb.dofs["u"][inner])
        # 2x2 at H/h=22: the xi and p interiors cross the cutoff
        pipe = build(nx=44, subdomains=(2, 2))
        lb, cls, r = pipe.system.local[0], pipe.cls, 0
        if case == "xi":
            inner = lb.pos("xi", cls.xi.interior[r])
            return lb.C, lb.pos("xi", cls.xi.sub_interface[r]), inner, pipe.system.spaces.fields["xi"].lattice(lb.dofs["xi"][inner])
        inner = lb.pos("p", cls.p.interior[r])
        gamma = lb.pos("p", np.concatenate([cls.p.sub_dual[r], cls.p.sub_primal[r]]))
        return lb.E, gamma, inner, pipe.system.spaces.fields["p"].lattice(lb.dofs["p"][inner])

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

    @classmethod
    def singular_eliminated_block(cls, kind):
        """A rejection fixture's saddle block, its kept and eliminated
        unknowns and its lattice: 441 eliminated grid points above the
        cutoff, then 21 kept unknowns coupled to the top row of the grid."""
        m, k = 21, 21
        n = m * m
        C = sp.csr_matrix((np.full(k, -0.5), (np.arange(n - m, n), np.arange(k))), shape=(n, k))
        L = cls.neumann_laplacian(m)  # constants in the null space
        if kind != "neumann island":
            L = (L + 0.1 * sp.identity(n)).tolil()
            L[7, :] = 0.0
            L[:, 7] = 0.0
            if kind == "column coupled only to kept rows":
                C = C.tolil()
                C[7, 0] = -0.5
        M = sp.bmat([[L, C], [C.T, 4.0 * sp.identity(k)]], format="csr")
        M.eliminate_zeros()
        return M, np.arange(n, n + k), np.arange(n), (np.arange(n) % m, np.arange(n) // m)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("kind, why", [
        ("neumann island", r"local solve failed its residual probe \(.*\)"),
        ("zero row and column", "sparse LU met an exactly zero pivot"),
        ("column coupled only to kept rows", "sparse LU met an exactly zero pivot in the eliminated block"),
    ])
    def test_singular_eliminated_block_rejected(self, kind, why):
        label = "elastic interior block of subdomain 4"
        with pytest.raises(bd.ConfigurationError, match=f"^{label}: {why};"):
            _dense_schur(*self.singular_eliminated_block(kind), label)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_neumann_island_rejected_by_one_probe_column(self, monkeypatch):
        M, gamma, inner, lattice = self.singular_eliminated_block("neumann island")
        shapes = record_probes(monkeypatch)
        label = "elastic interior block of subdomain 4"
        with pytest.raises(bd.ConfigurationError, match=f"^{label}: local solve failed its residual probe"):
            _dense_schur(M, gamma, inner, lattice, label)
        assert shapes == [(M.shape[0],)]
