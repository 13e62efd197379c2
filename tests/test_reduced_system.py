"""Torn saddle assembly and the reduced interface operator.

The reduced operator is matrix free, so every check here rebuilds it by an
independent route: the sparse torn matrix (reassembled from local blocks),
dense elimination of the torn unknowns, or explicit column probing.
"""

import itertools

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import biot_ddp as bd
from biot_ddp import reduced_system
from biot_ddp.reduced_system import (
    CoarseProblem,
    SaddleFactor,
    _local_index_sets,
    _local_saddle,
    coarse_band,
    primal_coupling,
)
from helpers import (
    MULTI_MEMBER_GRIDS,
    band_to_dense,
    dense_coarse,
    dense_from_apply,
    dense_torn_solution,
    numeric_classes,
    record_probes,
    rel_err,
)


def build(variant="p1", primal="vertex", pattern="uniform", **kw):
    cfg = bd.ExperimentConfig(
        nx=8,
        subdomains=(2, 2),
        total_pressure=variant,
        primal=primal,
        pattern=pattern,
        E=kw.pop("E", 1.0),
        nu=kw.pop("nu", 0.3),
        alpha=kw.pop("alpha", 0.9),
        kappa=kw.pop("kappa", 1.0),
        **kw,
    )
    return bd.build_pipeline(cfg)


class TestOperator:
    def test_symmetric_positive_definite(self):
        for variant in ("p1", "p0"):
            for primal in ("vertex", "vertex-edge"):
                red = build(variant, primal).reduced
                G = red.dense_operator()
                scale = np.abs(G).max()
                assert np.abs(G - G.T).max() < 1e-11 * scale
                assert np.linalg.eigvalsh(0.5 * (G + G.T)).min() > 0.0

    def test_matches_torn_elimination(self):
        # rebuild G = B_C A~^-1 B_C^T + C_hat from the sparse torn matrix,
        # a code path that shares nothing with apply()
        red = build(pattern="checkerboard", black={"E": 1e3}).reduced
        n_w = red.layout.n_w
        K = red.torn_matrix().toarray()
        A_t = K[:n_w, :n_w]
        B_C = red.B_C.toarray()
        G_ref = B_C @ np.linalg.solve(A_t, B_C.T) + red.C_hat.toarray()
        G = dense_from_apply(red.apply, red.n)
        assert rel_err(G, G_ref) < 1e-9

    @pytest.mark.parametrize("primal", ["vertex", "vertex-edge"])
    @pytest.mark.parametrize("case", list(MULTI_MEMBER_GRIDS))
    def test_torn_blocks_match_fields(self, case, primal):
        pipe = bd.build_pipeline(bd.ExperimentConfig(primal=primal, oracle="off", **MULTI_MEMBER_GRIDS[case][0]))
        red, system, cls = pipe.reduced, pipe.system, pipe.cls
        lay = red.layout
        n_xi, n_p, n_lam = red.segments
        # B_C rebuilt subdomain by subdomain from each one's own local blocks
        # and index sets, in the order that sums duplicates as B_C does
        rows, cols, vals = [], [], []
        for s, lb in system.local.items():
            sets = _local_index_sets(cls, s, lb)
            y = {"xi": np.full(lb.dofs["xi"].size, -1), "p": np.full(lb.dofs["p"].size, -1)}
            y["xi"][sets["xiG"]] = cls.xi.interface_pos(cls.xi.sub_interface[s])
            y["p"][sets["pG"]] = n_xi + cls.p.interface_pos(cls.p.sub_interface[s])
            w = {"u": np.full(lb.dofs["u"].size, -1), "xi": np.full(lb.dofs["xi"].size, -1), "p": np.full(lb.dofs["p"].size, -1)}
            w["u"][sets["uI"]] = lay.int_pos["u"][cls.u.interior[s]]
            w["u"][sets["uD"]] = lay.dual_slice.start + np.arange(lay.dual_offset[s], lay.dual_offset[s + 1])
            w["u"][sets["uP"]] = lay.primal_pos[cls.u.sub_primal[s]]
            w["xi"][sets["xiI"]] = lay.int_pos["xi"][cls.xi.interior[s]]
            w["p"][sets["pI"]] = lay.int_pos["p"][cls.p.interior[s]]
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
        B_C = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=red.B_C.shape)
        # C_hat: the interface slices of the global C, D and E
        xiG, pG = cls.xi.interface, cls.p.interface
        C, D, E = (M.tocsr() for M in (system.C, system.D, system.E))
        C_hat = sp.bmat([[C[xiG][:, xiG], -D[pG][:, xiG].T, None], [-D[pG][:, xiG], E[pG][:, pG], None],
                         [None, None, sp.csr_matrix((n_lam, n_lam))]], format="csr")
        for got, want in ((red.B_C, B_C), (red.C_hat, C_hat)):
            assert got.has_canonical_format and want.has_canonical_format
            for attr in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(got, attr), getattr(want, attr))

    def test_torn_matrix_symmetric_as_assembled(self):
        K = build().reduced.torn_matrix()
        assert (K - K.T).count_nonzero() == 0

    @pytest.mark.parametrize("case", list(MULTI_MEMBER_GRIDS))
    def test_factored_blocks_symmetric_to_roundoff(self, case):
        # SaddleFactor factors these in symmetric mode; on the larger grids
        # a few entries are summed in another order on either side of the
        # diagonal, so symmetry holds to roundoff, not bitwise
        pipe = bd.build_pipeline(bd.ExperimentConfig(oracle="off", **MULTI_MEMBER_GRIDS[case][0]))
        st = pipe.system.stacked
        blocks = [getattr(pipe.system.local[r], name) for r in np.unique(st.rep) for name in "ACE"]
        for M in [*blocks, pipe.reduced.torn_matrix()]:
            M = M.tocsr()
            assert abs(M - M.T).max() <= 1e-15 * abs(M).max()

    @pytest.mark.parametrize(
        "nx, grid, variant, primal, bc",
        [
            (16, 2, "p1", "vertex", "neumann-left"),
            (16, 2, "p1", "vertex", "dirichlet"),
            (16, 2, "p0", "vertex", "neumann-left"),
            (16, 2, "p0", "vertex", "dirichlet"),
            (24, 3, "p1", "vertex-edge", "neumann-left"),
        ],
    )
    def test_symmetric_to_roundoff_near_incompressible(self, nx, grid, variant, primal, bc):
        # local blocks above the dense cutoff: the symmetric sparse factor
        # keeps the operator symmetric to the last bits (partial pivoting
        # left 2e-15 to 5e-15 here)
        cfg = bd.ExperimentConfig(
            nx=nx, subdomains=(grid, grid), total_pressure=variant, primal=primal, bc=bc, nu=0.4999
        )
        G = bd.build_pipeline(cfg).reduced.dense_operator()
        assert np.linalg.norm(G - G.T) <= 1e-15 * np.linalg.norm(G)

    def test_segments_reference_case(self):
        red = build().reduced
        assert red.segments == (17, 14, 56)
        assert red.n == 87

    def test_split_roundtrip(self):
        red = build().reduced
        y = np.arange(float(red.n))
        xi, p, lam = red.split(y)
        assert (xi.size, p.size, lam.size) == red.segments
        np.testing.assert_array_equal(np.concatenate([xi, p, lam]), y)


class TestTornInverse:
    def test_solves_torn_stiffness(self):
        red = build(pattern="checkerboard", black={"E": 1e4, "kappa": 1e-2}).reduced
        n_w = red.layout.n_w
        A_t = red.torn_matrix().tocsr()[:n_w, :n_w]
        rng = np.random.default_rng(7)
        b = rng.standard_normal(n_w)
        x = red.apply_torn_inverse(b)
        res = np.linalg.norm(A_t @ x - b) / np.linalg.norm(b)
        assert res < 1e-9

    def test_rhs_matches_dense_elimination(self):
        red = build().reduced
        n_w = red.layout.n_w
        A_t = red.torn_matrix().toarray()[:n_w, :n_w]
        want = red.B_C.toarray() @ np.linalg.solve(A_t, red.f_w) - red.h
        assert rel_err(red.rhs(), want) < 1e-10


class TestSolveAndRecover:
    def test_reduction_consistent_with_monolithic_solve(self):
        red = build().reduced
        y = dense_torn_solution(red)
        assert rel_err(red.apply(y), red.rhs()) < 1e-8

    def test_recover_has_continuous_traces(self):
        red = build(pattern="checkerboard", black={"E": 100.0}).reduced
        G = red.dense_operator()
        y = np.linalg.solve(G, red.rhs())
        u, xi, p, jump_norm = red.recover(y)
        assert jump_norm < 1e-9
        assert u.size == red.cls.u.dual.size + sum(
            len(v) for v in red.cls.u.interior.values()
        ) + red.cls.u.primal.size

    def test_recovered_fields_solve_nodal_system(self):
        pipe = build()
        red = pipe.reduced
        y = np.linalg.solve(red.dense_operator(), red.rhs())
        u, xi, p, _ = red.recover(y)
        sys_ = pipe.nodal_system
        x = np.concatenate([u, xi, p])
        rhs = sys_.full_rhs()
        r = sys_.full_matrix() @ x - rhs
        assert np.linalg.norm(r) / np.linalg.norm(rhs) < 1e-8


class TestLocalFactors:
    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_block_rejected(self):
        # a matrix with a nullspace fails the residual probe
        K = sp.csr_matrix(np.ones((6, 6)))
        with pytest.raises(bd.ConfigurationError):
            SaddleFactor("test block", K)

    def test_wellposed_block_accepted(self):
        rng = np.random.default_rng(2)
        Q = rng.standard_normal((8, 8))
        K = sp.csr_matrix(Q @ Q.T + 8 * np.eye(8))
        fac = SaddleFactor("test block", K)
        b = rng.standard_normal(8)
        assert np.linalg.norm(K @ fac.solve(b) - b) < 1e-10

    @pytest.mark.parametrize("n", [50, 450])  # dense and sparse paths
    def test_multi_column_solve_matches_columns(self, n):
        rng = np.random.default_rng(4)
        K = sp.random(n, n, density=0.02, random_state=4) + sp.identity(n) * 4.0
        fac = SaddleFactor("test block", K.tocsr())
        B = rng.standard_normal((n, 3))
        X = fac.solve(B)
        for j in range(3):
            np.testing.assert_allclose(X[:, j], fac.solve(B[:, j]), rtol=1e-12, atol=1e-14)
        assert np.linalg.norm(K @ X - B) < 1e-10 * np.linalg.norm(B)

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_class_probe_names_the_class(self):
        # one block shared by a class of 36, probed with one random column
        rng = np.random.default_rng(2)
        Q = rng.standard_normal((8, 8))
        K = sp.csr_matrix(Q @ Q.T + 8 * np.eye(8))
        fac = SaddleFactor("subdomain 9 (class of 36)", K)
        b = rng.standard_normal((8, 36))
        assert np.linalg.norm(K @ fac.solve(b) - b) < 1e-10 * np.linalg.norm(b)
        with pytest.raises(bd.ConfigurationError, match=r"^subdomain 9 \(class of 36\): local solve failed"):
            SaddleFactor("subdomain 9 (class of 36)", sp.csr_matrix(np.ones((8, 8))))

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("kind, why", [
        ("singular", "local solve failed its residual probe"),
        ("zero pivot", "sparse LU met an exactly zero pivot"),
        ("inf", "local solve failed its residual probe"),
        ("nan", "local solve failed its residual probe"),
    ])
    def test_one_column_probe_rejects_every_fixture(self, monkeypatch, kind, why):
        # the rejection fixtures above, each through a class's label: the
        # one probe column rejects them with the same message
        if kind == "singular":
            K = sp.csr_matrix(np.ones((6, 6)))
        elif kind == "zero pivot":
            K = self.tridiagonal(500, 2.0)
            K[0, 0] = K[499, 499] = 1.0
            K = K.tocsr()
        else:
            K = 4.0 * np.eye(8)
            K[2, 5] = {"inf": np.inf, "nan": np.nan}[kind]
        shapes = record_probes(monkeypatch)
        with pytest.raises(bd.ConfigurationError, match=rf"^subdomain 9 \(class of 36\): {why}"):
            SaddleFactor("subdomain 9 (class of 36)", K)
        assert all(shape == (K.shape[0],) for shape in shapes)
        assert bool(shapes) == (kind != "zero pivot")  # a zero pivot is met before the probe

    @staticmethod
    def tridiagonal(n, diag):
        return sp.diags([-1.0, diag, -1.0], [-1, 0, 1], shape=(n, n)).tolil()

    @pytest.mark.parametrize("kind", ["neumann laplacian", "zero row and column"])
    def test_exactly_singular_sparse_block_rejected(self, kind):
        n = 500  # above the dense cutoff
        if kind == "neumann laplacian":  # constants in the null space
            K = self.tridiagonal(n, 2.0)
            K[0, 0] = K[n - 1, n - 1] = 1.0
        else:  # zero diagonal entry with nothing else in its row and column
            K = self.tridiagonal(n, 4.0)
            K[7, :] = 0.0
            K[:, 7] = 0.0
        K = K.tocsr()
        K.eliminate_zeros()
        with pytest.raises(bd.ConfigurationError, match="^test block: sparse LU met an exactly zero pivot"):
            SaddleFactor("test block", K)

    def test_zero_diagonal_entry_of_a_regular_sparse_block_accepted(self):
        n = 500
        K = self.tridiagonal(n, 4.0)
        K[7, 7] = 0.0
        K = K.tocsr()
        K.eliminate_zeros()
        fac = SaddleFactor("test block", K)
        b = np.random.default_rng(6).standard_normal(n)
        assert np.linalg.norm(K @ fac.solve(b) - b) < 1e-12 * np.linalg.norm(b)

    @pytest.mark.parametrize("m", [7, 22])  # 49 unknowns: dense; 484: sparse
    def test_nnz_counts_stored_factor_entries(self, m):
        T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
        K = (sp.kron(T, sp.identity(m)) + sp.kron(sp.identity(m), T)).tocsr()
        fac = SaddleFactor("test block", K)
        n = m * m
        if n < 400:
            assert fac.nnz == n * n
        else:
            assert K.nnz <= fac.nnz < n * n // 4

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_dense_block_rejected_by_the_probe(self, value):
        K = 4.0 * np.eye(8)
        K[2, 5] = value
        with pytest.raises(bd.ConfigurationError, match=r"^pressure block of subdomain 4: local solve failed its residual probe"):
            SaddleFactor("pressure block of subdomain 4", K)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_dense_solve_is_bitwise_lu_solve(self, sparse):
        # the LAPACK LU that scipy.linalg wraps, with the checks left out
        rng = np.random.default_rng(11)
        K = rng.standard_normal((60, 60)) + 8.0 * np.eye(60)
        fac = SaddleFactor("test block", sp.csr_matrix(K) if sparse else K)
        lu = sla.lu_factor(K)
        for b in (rng.standard_normal(60), rng.standard_normal((60, 5))):
            x = fac.solve(b)
            assert x.shape == b.shape
            assert x.tobytes() == sla.lu_solve(lu, b).tobytes()

    def test_empty_block(self):
        fac = SaddleFactor("empty", sp.csr_matrix((0, 0)))
        assert fac.solve(np.zeros(0)).size == 0
        assert fac.nnz == 0


class TestRefinementNearIncompressibleLimit:
    """Diagonal pivots lose about log10(lambda/mu) digits of a local solve.
    A sparse factor that fails its probe takes one step of iterative
    refinement with the same factor, so the fill stays as it is."""

    @staticmethod
    def run(nu, E):
        cfg = bd.ExperimentConfig(nx=16, subdomains=(2, 2), total_pressure="p0", nu=nu, E=E)
        pipe = bd.build_pipeline(cfg)
        return pipe, bd.run_case(cfg, pipe)

    @pytest.mark.parametrize("E, iterations", [(1.0, 14), (1e6, 9)])
    @pytest.mark.parametrize("nu", [0.499999999, 0.4999999999])
    def test_refined_factor_passes_the_probe(self, nu, E, iterations):
        pipe, res = self.run(nu, E)
        assert res.converged and res.iterations == iterations
        assert res.factor_nnz == 157_192  # as at nu = 0.49999999, unrefined
        refined = [c.factor for c in pipe.reduced.torn.classes if c.factor._refine is not None]
        assert refined and all(f._sparse is not None for f in refined)
        rng = np.random.default_rng(3)
        for f in refined:  # the probe's measure, on a right-hand side of its own
            K = f._refine
            b = K @ rng.standard_normal(f.n)
            raw = np.linalg.norm(K @ f._sparse.solve(b) - b)
            once = np.linalg.norm(K @ f.solve(b) - b)
            assert once < 1e-10 * np.linalg.norm(b) and once < 1e-3 * raw

    def test_no_refinement_where_the_factor_passes(self):
        pipe, res = self.run(0.49999999, 1.0)
        assert res.converged and res.iterations == 14
        assert res.factor_nnz == 157_192
        assert all(c.factor._refine is None for c in pipe.reduced.torn.classes)


class TestCongruenceClasses:
    """Subdomains with one input key (sides touched, material) share one
    factor; everything else gets its own."""

    @staticmethod
    def reduced(nx, sub, **kw):
        return bd.build_pipeline(
            bd.ExperimentConfig(nx=nx, subdomains=sub, E=1.0, nu=0.3, alpha=0.9, kappa=1.0, **kw)
        ).reduced

    def test_uniform_grid_shares_nine_factors(self):
        # interior, four edge and four corner classes
        red = self.reduced(32, (8, 8))
        classes = list(red.factors.values())
        assert len(classes) == 9
        assert len({id(c.factor) for c in classes}) == 9
        assert sorted(c.idx.shape[1] for c in classes) == [1, 1, 1, 1, 6, 6, 6, 6, 36]

    def test_checkerboard_factors_every_subdomain(self):
        red = self.reduced(12, (3, 3), pattern="checkerboard", black={"E": 1e3})
        assert len(red.factors) == 9
        assert all(c.idx.shape[1] == 1 for c in red.factors.values())

    def test_perturbed_material_leaves_its_class(self, monkeypatch):
        # the key is taken from the inputs: a relative change of 1e-10 in one
        # interior subdomain's E gives it a class of its own
        E = np.ones(16)
        E[5] *= 1.0 + 1e-10
        mats = bd.MaterialField((4, 4), E, np.full(16, 0.3), np.ones(16), np.ones(16))
        monkeypatch.setattr(bd.ExperimentConfig, "materials", lambda self: mats)
        red = self.reduced(16, (4, 4))
        assert len(red.factors) == 10
        alone = [c for c in red.factors.values() if c.idx.shape[1] == 1 and np.array_equal(
            c.idx[:, 0], red.layout.r_indices[5])]
        assert len(alone) == 1
        n_w = red.layout.n_w
        A_t = red.torn_matrix().tocsc()[:n_w, :n_w]
        b = np.random.default_rng(5).standard_normal(n_w)
        assert rel_err(red.apply_torn_inverse(b), sp.linalg.spsolve(A_t, b)) < 1e-10

    @pytest.mark.parametrize(
        "fld, name, change",
        [("u", "uD", "dropped"), ("u", "uD", "foreign"), ("p", "pD", "foreign")],
    )
    def test_member_with_other_dual_set_is_rejected(self, monkeypatch, fld, name, change):
        # subdomains 5 and 6 are interior, 6 a member of 5's class: a member
        # is solved on its representative's local positions, which must hold
        # its own classified dofs
        pipe = bd.build_pipeline(bd.ExperimentConfig(nx=16, subdomains=(4, 4), E=1.0, nu=0.3))
        sets = pipe.cls.splits[fld].sub_dual
        monkeypatch.setitem(sets, 6, sets[6][:-1] if change == "dropped" else sets[5])
        with pytest.raises(bd.InternalError, match=f"subdomain 6: {name} dofs"):
            bd.build_reduced_system(pipe.system, pipe.cls, pipe.jump)

    @pytest.mark.parametrize("kw", [dict(black={"alpha": 1e-2}), dict(kappa=1e-8, black={"kappa": 1e-9})])
    def test_flow_only_contrast_splits_classes(self, kw):
        # at the default E the elastic entries dwarf the flow ones, yet a
        # jump in alpha or in a small kappa alone must split the classes
        red = bd.build_pipeline(bd.ExperimentConfig(nx=16, subdomains=(4, 4), pattern="checkerboard", **kw)).reduced
        assert len(red.factors) == 14  # 4 corner, 8 edge, 2 interior classes
        lay = red.layout
        A_t = red.torn_matrix().tocsr()[: lay.n_w, : lay.n_w]
        b = np.random.default_rng(5).standard_normal(lay.n_w)
        r = A_t @ red.apply_torn_inverse(b) - b
        rows = lay.int_pos["p"][lay.int_pos["p"] >= 0]  # the u rows would hide a wrong flow block
        assert np.linalg.norm(r[rows]) < 1e-10 * np.linalg.norm(b[rows])

    @pytest.mark.parametrize("variant", ["p1", "p0"])
    @pytest.mark.parametrize("primal", ["vertex", "vertex-edge"])
    def test_batched_torn_solve_matches_direct(self, variant, primal):
        red = self.reduced(16, (4, 4), total_pressure=variant, primal=primal)
        n_w = red.layout.n_w
        A_t = red.torn_matrix().tocsc()[:n_w, :n_w]
        b = np.random.default_rng(5).standard_normal(n_w)
        assert rel_err(red.apply_torn_inverse(b), sp.linalg.spsolve(A_t, b)) < 1e-10


    @pytest.mark.parametrize("variant", ["p1", "p0"])
    @pytest.mark.parametrize("grid", [5, 6])
    def test_vertex_edge_grid_shares_nine_classes(self, variant, grid):
        # the change of basis leaves roundoff fill that must not split
        # congruent subdomains, neither their saddle nor their λ blocks
        pipe = bd.build_pipeline(bd.ExperimentConfig(
            nx=4 * grid, subdomains=(grid, grid), total_pressure=variant, primal="vertex-edge",
            E=1.0, nu=0.3, alpha=0.9, kappa=1.0))
        red = pipe.reduced
        assert len(red.factors) == 9
        assert len(pipe.preconditioner.multiplier.classes) == 9
        n_w = red.layout.n_w
        A_t = red.torn_matrix().tocsc()[:n_w, :n_w]
        b = np.random.default_rng(5).standard_normal(n_w)
        assert rel_err(red.apply_torn_inverse(b), sp.linalg.spsolve(A_t, b)) < 1e-10


def _saddle_blocks(M: sp.csr_matrix, sets: dict) -> list[sp.csr_matrix]:
    """A, B, C, D and E of a local saddle block on (uI, xiI, pI, uD, uP)."""
    a, b, c = sets["uI"].size, sets["xiI"].size, sets["pI"].size
    u = np.r_[0:a, a + b + c : M.shape[0]]
    xi, p = np.arange(a, a + b), np.arange(a + b, a + b + c)
    return [M[r][:, k] for r, k in ((u, u), (xi, u), (xi, xi), (p, xi), (p, p))]


def _sliced_bmat_saddle(lb, sets: dict, trace: bool) -> sp.csr_matrix:
    """The local saddle block as once built: the five blocks put together by
    bmat, then sliced to (uI, xiI, pI, uD, uP), and with ``trace`` (xiG,
    pG) after them, by fancy indexing."""
    K = sp.bmat([[lb.A, lb.B.T, None], [lb.B, -lb.C, lb.D.T], [None, lb.D, -lb.E]], format="csr")
    n_u, n_xi = lb.A.shape[0], lb.C.shape[0]
    at = [sets["uI"], n_u + sets["xiI"], n_u + n_xi + sets["pI"], sets["uD"], sets["uP"]]
    at = np.concatenate(at + ([n_u + sets["xiG"], n_u + n_xi + sets["pG"]] if trace else []))
    return K[at][:, at].sorted_indices()


@pytest.mark.parametrize("primal", ["vertex", "vertex-edge"])
@pytest.mark.parametrize("case", list(MULTI_MEMBER_GRIDS))
def test_local_saddle_is_bitwise_the_sliced_bmat(case, primal):
    kw, _ = MULTI_MEMBER_GRIDS[case]
    pipe = bd.build_pipeline(bd.ExperimentConfig(primal=primal, oracle="off", **kw))
    for (s, lb), trace in itertools.product(pipe.system.local.items(), (False, True)):
        sets = _local_index_sets(pipe.cls, s, lb)
        K, ref = _local_saddle(lb, sets, trace), _sliced_bmat_saddle(lb, sets, trace)
        assert K.shape == ref.shape and K.has_sorted_indices
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(K, part), getattr(ref, part)), (s, part)
        assert np.array_equal(np.signbit(K.data), np.signbit(ref.data)), s


class TestClassKey:
    """One input key decides the classes of every block; comparing the
    stored local blocks, each at its own scale, must find the same ones."""

    # the λ and xi blocks depend on E and nu alone
    ELASTIC_CLASSES = {"alpha checkerboard": 9, "small kappa checkerboard": 9}

    @pytest.mark.parametrize("primal", ["vertex", "vertex-edge"])
    @pytest.mark.parametrize("case", list(MULTI_MEMBER_GRIDS))
    def test_key_matches_the_stored_blocks(self, case, primal):
        kw, n_classes = MULTI_MEMBER_GRIDS[case]
        pipe = bd.build_pipeline(bd.ExperimentConfig(primal=primal, oracle="off", **kw))
        system, cls, mats = pipe.system, pipe.cls, pipe.system.materials
        lbs = [system.local[s] for s in range(system.stacked.n_sub)]
        ix = [_local_index_sets(cls, s, lb) for s, lb in enumerate(lbs)]
        saddles = [_local_saddle(lb, sets) for lb, sets in zip(lbs, ix)]
        p_gamma = []
        for s, lb in enumerate(lbs):
            ids = cls.p.sub_interface[s]
            dual = np.isin(ids, cls.p.dual)
            p_gamma.append((lb.pos("p", np.concatenate([ids[dual], ids[~dual]])), np.array([dual.sum()])))
        numeric = {
            "ABCDE": [[*sets.values(), *_saddle_blocks(M, sets)] for sets, M in zip(ix, saddles)],
            "A": [[lb.A, sets["uD"], sets["uI"]] for lb, sets in zip(lbs, ix)],
            "C": [[mats.lam[s] / mats.mu[s] * lbs[s].C, sets["xiG"], sets["xiI"]] for s, sets in enumerate(ix)],
            "E": [[lbs[s].E, *p_gamma[s], sets["pI"]] for s, sets in enumerate(ix)],
        }
        n_elastic = self.ELASTIC_CLASSES.get(case, n_classes)
        counts = {"ABCDE": n_classes, "A": n_elastic, "C": n_elastic, "E": n_classes}
        pc = pipe.preconditioner
        built = {"ABCDE": list(pipe.reduced.factors.values()), "A": pc.multiplier.classes,
                 "C": pc.xi.classes if pc.xi else None, "E": pc.pressure.classes}
        for names, parts in numeric.items():
            if built[names] is None:  # p0: no total pressure trace, so no xi block
                continue
            key = [m.tolist() for m in system.classes(names)]
            assert numeric_classes(parts) == key, names
            assert len(key) == counts[names], names
            assert [c.idx.shape[1] for c in built[names]] == [len(m) for m in key], names


def whole(S: np.ndarray) -> tuple[int, list]:
    """The coarse problem arguments of the dense S as one class of one
    member holding every unknown: its band is the whole matrix."""
    return S.shape[0], [(np.arange(S.shape[0])[:, None], S)]


def chain(n: int, width: int, rng) -> list:
    """Classes of overlapping SPD blocks along the diagonal: class k's one
    member holds unknowns k .. k + width - 1."""
    parts = []
    for k in range(n - width + 1):
        Q = rng.standard_normal((width, width))
        parts.append((np.arange(k, k + width)[:, None], Q @ Q.T + width * np.eye(width)))
    return parts


class TestCoarseProblem:
    def test_asymmetric_input_rejected(self):
        S = np.array([[2.0, 1.0], [0.0, 2.0]])
        with pytest.raises(bd.InternalError):
            CoarseProblem(*whole(S))

    def test_asymmetric_band_entry_rejected(self):
        # one more member adds to entry (7, 5) alone, on the second
        # subdiagonal of a chain of 4 x 4 blocks (kd = 3), more than the
        # tolerance
        parts = chain(12, 4, np.random.default_rng(5))
        assert CoarseProblem(12, parts).kd == 3
        tol = 1e-6 * np.abs(dense_coarse(12, parts)).max()
        parts.append((np.array([[5], [7]]), np.array([[0.0, 0.0], [2 * tol, 0.0]])))
        with pytest.raises(bd.InternalError, match="^coarse matrix asymmetry"):
            CoarseProblem(12, parts)

    def test_solves_spd_system(self):
        rng = np.random.default_rng(3)
        Q = rng.standard_normal((5, 5))
        S = Q @ Q.T + 5 * np.eye(5)
        coarse = CoarseProblem(*whole(S))
        assert (coarse.n, coarse.kd) == (5, 4)
        b = rng.standard_normal(5)
        np.testing.assert_allclose(S @ coarse.solve(b), b, atol=1e-10)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, value):
        # NaN passes the asymmetry test (NaN > tol is False)
        S = 4.0 * np.eye(6)
        S[1, 3] = S[3, 1] = value
        with pytest.raises(bd.InternalError, match="non-finite"):
            CoarseProblem(*whole(S))

    def test_indefinite_input_rejected(self):
        with pytest.raises(bd.ConfigurationError, match="not positive definite"):
            CoarseProblem(*whole(np.diag([2.0, 1.0, -1.0])))

    def test_empty(self):
        coarse = CoarseProblem(0, [])
        assert (coarse.n, coarse.kd) == (0, 0)
        assert coarse.solve(np.zeros(0)).shape == (0,)

    def test_solve_is_bitwise_cho_solve(self):
        # the LAPACK banded Cholesky that scipy.linalg wraps, of the
        # symmetrized band, with the checks left out
        rng = np.random.default_rng(12)
        parts = chain(40, 6, rng)
        parts = [(p, S + 1e-12 * rng.standard_normal(S.shape)) for p, S in parts]  # roundoff asymmetry
        coarse = CoarseProblem(40, parts)
        band = coarse_band(40, parts)
        assert coarse.kd == 5 and band.shape == (2, 6, 40)
        cho = sla.cholesky_banded(0.5 * (band[1] + band[0]), lower=True)
        for b in (rng.standard_normal(40), rng.standard_normal((40, 3))):
            x = coarse.solve(b)
            assert x.shape == b.shape
            assert x.tobytes() == sla.cho_solve_banded((cho, True), b).tobytes()

    def test_widest_coupling_sets_kd(self):
        # neighbour pairs along the diagonal and one member that couples
        # unknowns 3 and 14 alone: kd = 11, and the band solve agrees with
        # a dense Cholesky solve
        rng = np.random.default_rng(8)
        parts = chain(20, 2, rng) + [(np.array([[3], [14]]), np.array([[1.0, 0.5], [0.5, 1.0]]))]
        coarse = CoarseProblem(20, parts)
        assert (coarse.n, coarse.kd) == (20, 11)
        S = dense_coarse(20, parts)
        assert np.array_equal(band_to_dense(coarse_band(20, parts)), S)
        b = rng.standard_normal((20, 2))
        want = sla.cho_solve(sla.cho_factor(S), b)
        assert rel_err(coarse.solve(b), want) <= 1e-12

    def test_class_without_primal_dofs(self):
        # the pressure coarse problem of a grid (built after the torn and
        # the xi one), with a class of three members and no primal unknowns
        # added among its classes: its band and kd are the grid's own
        parts = []

        def kept(n, p):
            parts.append((n, p))
            return CoarseProblem(n, p)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reduced_system, "CoarseProblem", kept)
            bd.build_pipeline(bd.ExperimentConfig(nx=8, subdomains=(4, 4), primal="vertex-edge", oracle="off"))
        n, grid = parts[2]
        assert n > 0 and all(p.size for p, _ in grid)
        with_empty = grid[:1] + [(np.zeros((0, 3), dtype=np.int64), np.zeros((0, 0)))] + grid[1:]
        band = coarse_band(n, with_empty)
        assert band.tobytes() == coarse_band(n, grid).tobytes()
        assert np.array_equal(band_to_dense(band), dense_coarse(n, grid))
        assert CoarseProblem(n, with_empty).kd == CoarseProblem(n, grid).kd > 0

    @pytest.mark.parametrize("primal", ["vertex", "vertex-edge"])
    def test_torn_coarse_matrix_is_the_dense_assembly(self, monkeypatch, primal):
        # bitwise: every class's A_PP - A_rP^T X, X from its factor's solve
        # of A_rP, summed with np.add.at, against the band
        calls, bands = [], []

        def kept_coupling(factor, A_rP, A_PP):
            calls.append((factor, A_rP, A_PP))
            return primal_coupling(factor, A_rP, A_PP)

        def kept_band(n, parts):
            bands.append(coarse_band(n, parts))
            return bands[-1]

        monkeypatch.setattr(reduced_system, "primal_coupling", kept_coupling)
        monkeypatch.setattr(reduced_system, "coarse_band", kept_band)
        pipe = bd.build_pipeline(bd.ExperimentConfig(
            nx=20, subdomains=(5, 5), primal=primal, pattern="checkerboard", black={"E": 1e3}, oracle="off"))
        red = pipe.reduced
        classes = list(red.factors.values())
        assert len(calls) == len(classes) and len(bands) == 4  # torn, xi, p, λ: the torn one first
        parts = []
        for (factor, A_rP, A_PP), c in zip(calls, classes):
            X = factor.solve(A_rP)
            assert np.array_equal(c.X, X)
            parts.append((c.primal, A_PP - A_rP.T @ X))
        S = dense_coarse(red.coarse.n, parts)
        assert np.array_equal(band_to_dense(bands[0]), S)
        kd = bands[0].shape[1] - 1
        assert red.coarse.kd == kd < red.coarse.n - 1
        assert not np.any(np.tril(S, -kd - 1)) and not np.any(np.triu(S, kd + 1))


def _log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda t: 10.0**t)


_MATERIAL = st.fixed_dictionaries(
    dict(
        E=_log_uniform(1.0, 1e9),
        # nu = 0 lies outside the material domain; the grid keeps the draws
        # off subnormal ratios, whose first Lame parameter underflows
        nu=st.integers(1, 49999).map(lambda k: k * 1e-5),
        alpha=_log_uniform(1e-10, 1.0),
        kappa=_log_uniform(1e-10, 1e2),
    )
)


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(
    material=_MATERIAL,
    black=st.none() | _MATERIAL,
    variant=st.sampled_from(["p1", "p0"]),
    primal=st.sampled_from(["vertex", "vertex-edge"]),
    multiplier_pc=st.sampled_from(["dirichlet", "lumped"]),
    bc=st.sampled_from(["neumann-left", "dirichlet"]),
)
def test_extreme_materials_build_converge_and_stay_symmetric(material, black, variant, primal, multiplier_pc, bc):
    """The torn saddle blocks of these runs are sparse (n > 400).  No
    oracle agreement is asserted: at these extremes a run can converge and
    still differ from the direct solve (uniform E=4e7, nu=0.4997,
    alpha=4e-10, kappa=4.6e-4, p1, Dirichlet: 3 iterations, displacement
    11.6 off).  Convergence holds for these draws, not for every
    checkerboard: a jump in E of 1e7 or more can take over 500 iterations."""
    cfg = bd.ExperimentConfig(
        nx=16, subdomains=(2, 2), total_pressure=variant, primal=primal, multiplier_pc=multiplier_pc, bc=bc,
        pattern="uniform" if black is None else "checkerboard", black=black or {}, oracle="off", **material,
    )
    pipe = bd.build_pipeline(cfg)
    assert bd.run_case(cfg, pipe).converged
    G = pipe.reduced.dense_operator()
    # roundoff of a few hundred accumulated solves, times the growth of
    # diagonal pivots on a quasi-definite block, about lam/mu = 2 nu / (1 - 2 nu)
    # (5e4 at nu = 0.49999)
    lam_over_mu = float(np.max(pipe.materials.lam / pipe.materials.mu))
    assert np.linalg.norm(G - G.T) <= 1e-14 * (1.0 + lam_over_mu) * np.linalg.norm(G)
