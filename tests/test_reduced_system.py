"""Torn saddle assembly and the reduced interface operator.

The reduced operator is matrix free, so every check here rebuilds it by an
independent route: the sparse torn matrix (reassembled from local blocks),
dense elimination of the torn unknowns, or explicit column probing.
"""

import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import biot_ddp as bd
from biot_ddp import reduced_system
from biot_ddp.mesh_fem import diagonal_block
from biot_ddp.reduced_system import (
    LOCAL,
    SADDLE,
    ClassSaddles,
    CoarseProblem,
    PatchKeys,
    SaddleFactor,
    coarse_band,
    derive_schur,
    eliminable_rows,
    primal_coupling,
)
from helpers import (
    MULTI_MEMBER_GRIDS,
    band_to_dense,
    broken_offsets,
    by_subdomain,
    dense_coarse,
    dense_from_apply,
    dense_torn_solution,
    interface_coupling,
    is_condensed,
    local_blocks,
    local_index_sets,
    local_view,
    numeric_classes,
    record_probes,
    record_torn_columns,
    rel_err,
    sliced_bmat_saddle,
    torn_matrix_from_class_cut,
    torn_matrix_reference,
    torn_solve_per_member,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from workloads import WORKLOADS, experiment_config  # noqa: E402


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
                G = dense_from_apply(red.apply, red.n)
                scale = np.abs(G).max()
                assert np.abs(G - G.T).max() < 1e-11 * scale
                assert np.linalg.eigvalsh(0.5 * (G + G.T)).min() > 0.0

    def test_matches_torn_elimination(self):
        # rebuild G = B_C A~^-1 B_C^T + C_hat from the sparse torn matrix,
        # a code path that shares nothing with apply()
        red = build(pattern="checkerboard", black={"E": 1e3}).reduced
        n_w = red.layout.n_w
        K = torn_matrix_reference(red).toarray()
        A_t = K[:n_w, :n_w]
        B_C, C_hat = (M.toarray() for M in interface_coupling(red))
        G_ref = B_C @ np.linalg.solve(A_t, B_C.T) + C_hat
        G = dense_from_apply(red.apply, red.n)
        assert rel_err(G, G_ref) < 1e-9

    @staticmethod
    def reduced(case, primal, monkeypatch, condense):
        # the pay-back rule overridden: every case built with and without
        # condensing
        monkeypatch.setattr(reduced_system, "_PAYBACK_APPLIES", 10**9 if condense else -1)
        red = bd.build_pipeline(bd.ExperimentConfig(primal=primal, oracle="off", **MULTI_MEMBER_GRIDS[case][0])).reduced
        assert is_condensed(red) == condense
        return red

    @pytest.mark.parametrize("condense", [True, False])
    @pytest.mark.parametrize("primal", ["vertex", "vertex-edge"])
    @pytest.mark.parametrize("case", list(MULTI_MEMBER_GRIDS))
    def test_class_cuts_scatter_to_the_interface_blocks(self, case, primal, condense, monkeypatch):
        # every run keeps each class's B_0, B_0P and D_c on its interface
        # class: scattered to every member's torn columns and interface
        # rows, subdomain by subdomain, B_0 and B_0P are B_C bitwise and
        # -sum D_c is C_hat to roundoff
        red = self.reduced(case, primal, monkeypatch, condense)
        B_C, C_hat = interface_coupling(red)
        start = red.layout.primal_slice.start
        groups = red.system.classes("ABCDE")
        blocks = ClassSaddles(red.system, red.cls, red.jump).blocks()
        member = {s: (i, j) for i, g in enumerate(groups) for j, s in enumerate(g)}
        b_rows, b_cols, b_vals, d_rows, d_cols, d_vals = ([] for _ in range(6))
        for s in range(red.cls.n_subdomains):
            i, j = member[s]
            b, t, c = blocks[i], red.torn.classes[i], red.interface.classes[i]
            rows = c.idx[:, j]
            # the run keeps the class's B_0, its transpose, B_0P and D_c
            assert c.factor is t.factor
            assert_bitwise(c.cut.B0, b.B0, (s, "B0"))
            assert np.array_equal(c.cut.B0_T.toarray(), b.B0.T.toarray()) and np.array_equal(c.cut.B0P, b.B0P)
            assert np.array_equal(c.cut.D, b.D)
            for M, cols in ((b.B0.tocoo(), t.idx[:, j]), (sp.coo_matrix(b.B0P), start + t.primal[:, j])):
                b_rows.append(rows[M.row])
                b_cols.append(cols[M.col])
                b_vals.append(M.data)
            M = sp.coo_matrix(b.D)
            d_rows.append(rows[M.row])
            d_cols.append(rows[M.col])
            d_vals.append(-M.data)
        got = sp.csr_matrix((np.concatenate(b_vals), (np.concatenate(b_rows), np.concatenate(b_cols))), shape=B_C.shape)
        for M in (got, B_C):
            M.eliminate_zeros()
        for attr in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(got, attr), getattr(B_C, attr))
        got = sp.csr_matrix((np.concatenate(d_vals), (np.concatenate(d_rows), np.concatenate(d_cols))),
                            shape=C_hat.shape)
        assert abs(got - C_hat).max() <= 1e-15 * abs(C_hat).max()

    @pytest.mark.parametrize("nx, grid, condense", [(24, 6, True), (48, 3, False)])
    def test_condensed_build_holds_no_global_interface_matrix(self, nx, grid, condense):
        # 6x6 subdomains at H/h = 4, condensed, and 3x3 at H/h = 16, not:
        # either way its classes hold B_C's parts
        red = bd.build_pipeline(bd.ExperimentConfig(nx=nx, subdomains=(grid, grid), oracle="off")).reduced
        assert is_condensed(red) == condense and len(red.interface.classes) == 9
        assert all(c.cut is not None for c in red.interface.classes)
        n_w = red.layout.n_w
        for name, v in vars(red).items():
            assert not (sp.issparse(v) and (red.n in v.shape or n_w in v.shape)), name
        # nor a global block of the system: set-up reads the stored ones
        assert red.system.blocks == {}
        # and B_C is applied class by class, as rebuilt from the nodal blocks
        B_C, _ = interface_coupling(red)
        rng = np.random.default_rng(2)
        w, y = rng.standard_normal(n_w), rng.standard_normal(red.n)
        assert rel_err(red.couple(w), B_C @ w) < 1e-14
        assert rel_err(red.couple_T(y), B_C.T @ y) < 1e-14

    def test_torn_matrix_symmetric_as_assembled(self):
        K = torn_matrix_reference(build().reduced)
        assert (K - K.T).count_nonzero() == 0

    @pytest.mark.parametrize("case", list(MULTI_MEMBER_GRIDS))
    def test_factored_blocks_symmetric_to_roundoff(self, case):
        # SaddleFactor factors these in symmetric mode; on the larger grids
        # a few entries are summed in another order on either side of the
        # diagonal, so symmetry holds to roundoff, not bitwise
        pipe = bd.build_pipeline(bd.ExperimentConfig(oracle="off", **MULTI_MEMBER_GRIDS[case][0]))
        st = pipe.system.stacked
        blocks = [getattr(local_view(pipe.system.stacked, r), name) for r in np.unique(st.rep) for name in "ACE"]
        for M in [*blocks, torn_matrix_reference(pipe.reduced)]:
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
        red = bd.build_pipeline(cfg).reduced
        G = dense_from_apply(red.apply, red.n)
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
        A_t = torn_matrix_reference(red).tocsr()[:n_w, :n_w]
        rng = np.random.default_rng(7)
        b = rng.standard_normal(n_w)
        x = red.apply_torn_inverse(b)
        res = np.linalg.norm(A_t @ x - b) / np.linalg.norm(b)
        assert res < 1e-9

    def test_rhs_matches_dense_elimination(self):
        red = build().reduced
        n_w = red.layout.n_w
        A_t = torn_matrix_reference(red).toarray()[:n_w, :n_w]
        want = interface_coupling(red)[0].toarray() @ np.linalg.solve(A_t, red.f_w) - red.h
        assert rel_err(red.rhs(), want) < 1e-10


class TestSolveAndRecover:
    def test_reduction_consistent_with_monolithic_solve(self):
        red = build().reduced
        y = dense_torn_solution(red)
        assert rel_err(red.apply(y), red.rhs()) < 1e-8

    def test_recover_has_continuous_traces(self):
        red = build(pattern="checkerboard", black={"E": 100.0}).reduced
        G = dense_from_apply(red.apply, red.n)
        y = np.linalg.solve(G, red.rhs())
        u, xi, p, jump_norm = red.recover(y)
        assert jump_norm < 1e-9
        assert u.size == red.cls.u.dual.size + sum(
            len(v) for v in by_subdomain(red.cls.u.interior, red.cls.n_subdomains).values()
        ) + red.cls.u.primal.size

    def test_recovered_fields_solve_nodal_system(self):
        pipe = build()
        red = pipe.reduced
        y = np.linalg.solve(dense_from_apply(red.apply, red.n), red.rhs())
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


class TestDeriveSchur:
    """One rule derives a class's Schur complement from its source's: the
    matched unknowns kept, the unmatched eliminable ones eliminated, the
    rest dropped, with the source's keys sorted once."""

    @staticmethod
    def source(n=9):
        """A seeded SPD S on unknowns with keys 10, 20, ..., in shuffled order."""
        rng = np.random.default_rng(21)
        Q = rng.standard_normal((n, n))
        return Q @ Q.T + n * np.eye(n), 10 * (1 + rng.permutation(n))

    def test_eliminated_unknowns_give_the_schur_complement(self):
        S, kept = self.source()
        want = kept[[4, 0, 7]]
        eliminable = np.isin(np.arange(kept.size), [1, 2, 4, 5])
        got, E, lu = derive_schur("class", 3, S, PatchKeys(kept), want, eliminable)
        assert np.array_equal(E, [1, 2, 5])  # 4 is kept
        k = [4, 0, 7]
        ref = S[np.ix_(k, k)] - S[np.ix_(k, E)] @ np.linalg.solve(S[np.ix_(E, E)], S[np.ix_(E, k)])
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        # the LU of S[E, E], for a class's borrowed solve
        b = np.arange(3.0)
        x = sla.lu_solve(lu, b)
        assert np.linalg.norm(S[np.ix_(E, E)] @ x - b) <= 1e-12 * np.linalg.norm(b)

    @pytest.mark.parametrize("eliminable", [False, "matched only"])
    def test_nothing_eliminable_gives_the_principal_submatrix(self, eliminable):
        S, kept = self.source()
        k = [8, 3, 5]
        if eliminable == "matched only":
            eliminable = np.isin(np.arange(kept.size), k)
        got, E, lu = derive_schur("class", 3, S, PatchKeys(kept), kept[k], eliminable)
        assert E.size == 0 and lu is None and got.tobytes() == S[np.ix_(k, k)].tobytes()

    @pytest.mark.parametrize("kept", ["missing", "empty"])
    def test_missing_key_rejected(self, kept):
        S, keys = self.source()
        want = np.array([keys[2], 15])  # 15 is no key
        if kept == "empty":
            S, keys, want = S[:0, :0], keys[:0], keys[:1]
        every = np.ones(keys.size, dtype=bool)
        with pytest.raises(bd.InternalError, match="^class: a kept unknown is not kept by the class of subdomain 3$"):
            derive_schur("class", 3, S, PatchKeys(keys), want, every)
        assert derive_schur("class", 3, S, PatchKeys(keys), want[:0], False)[0].shape == (0, 0)

    def test_patch_keys_find_each_key_or_none(self):
        keys = PatchKeys(np.array([40, 10, 30, 20]))
        assert keys.find(np.array([30, 40, 15, 50, 10, 5])).tolist() == [2, 0, -1, -1, 1, -1]
        assert PatchKeys(np.zeros(0, dtype=np.int64)).find(np.array([1, 2])).tolist() == [-1, -1]

    def test_eliminable_rows_fix_multiplier_copies_the_class_lacks(self):
        # rows 10 and 20 are trace rows, 30 and 40 multiplier rows keyed as
        # their copies: the class holds 10 and the copy 30 as local unknowns
        rows = PatchKeys(np.array([10, 20, 30, 40]))
        fixes = np.array([False, False, True, True])
        local = np.array([30, 10, 99])
        assert eliminable_rows(rows, local, fixes).tolist() == [True, False, False, True]
        assert eliminable_rows(rows, local).tolist() == [True, False, True, False]

    def test_singular_eliminated_block_rejected(self):
        S, kept = self.source()
        S[6, :] = S[:, 6] = 0.0  # an eliminated unknown coupled to nothing
        with pytest.raises(bd.InternalError, match="^class: the unknowns it eliminates are singular in the class of"):
            derive_schur("class", 3, S, PatchKeys(kept), kept[[0, 1]], np.arange(kept.size) > 4)


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
        # subdomain 5's torn positions, for (uI, xiI, pI, uD) in that order
        lay, cls = red.layout, red.cls
        off = broken_offsets(cls.u.dual_rows, 16)
        own = np.concatenate([*(pos[by_subdomain(cls.splits[fld].interior, 16)[5]] for fld, pos in lay.int_pos.items()),
                              lay.dual_slice.start + np.arange(off[5], off[6])])
        alone = [c for c in red.factors.values() if c.idx.shape[1] == 1 and np.array_equal(c.idx[:, 0], own)]
        assert len(alone) == 1
        n_w = red.layout.n_w
        A_t = torn_matrix_reference(red).tocsc()[:n_w, :n_w]
        b = np.random.default_rng(5).standard_normal(n_w)
        assert rel_err(red.apply_torn_inverse(b), sp.linalg.spsolve(A_t, b)) < 1e-10

    @pytest.mark.parametrize(
        "fld, change",
        [("u", "dual turned primal"), ("u", "interior turned interface"), ("p", "dual turned primal")],
    )
    def test_member_with_other_dual_set_is_rejected(self, monkeypatch, fld, change):
        # subdomains 5 and 6 are interior, 6 a member of 5's class: a member
        # is solved on its representative's local positions, which must hold
        # its own classified dofs; the highest dual or interior dof of 6
        # (shared with 10 at most) changes its role, in a copy of the
        # field's roles
        pipe = bd.build_pipeline(bd.ExperimentConfig(nx=16, subdomains=(4, 4), E=1.0, nu=0.3))
        split = pipe.cls.splits[fld]
        dof = by_subdomain(split.dual_rows if change == "dual turned primal" else split.interior, 16)[6][-1]
        role = split.role.copy()
        assert role[dof] == (1 if change == "dual turned primal" else 0)
        role[dof] += 1
        monkeypatch.setattr(split, "role", role)
        with pytest.raises(bd.InternalError, match=f"subdomain 6: {fld} dofs"):
            bd.build_reduced_system(pipe.system, pipe.cls, pipe.jump)

    @pytest.mark.parametrize("sub", [0, 6])
    def test_unclassified_displacement_dof_is_rejected(self, monkeypatch, sub):
        # one interior displacement dof of a representative (0) or of a
        # member (6, in 5's class) left without a torn column, in a copy of
        # the layout's interior positions
        pipe = bd.build_pipeline(bd.ExperimentConfig(nx=16, subdomains=(4, 4), E=1.0, nu=0.3))
        lay = pipe.cls.layout
        dof = by_subdomain(pipe.cls.u.interior, 16)[sub][0]
        pos = lay.int_pos["u"].copy()
        assert pos[dof] >= 0
        pos[dof] = -1
        monkeypatch.setitem(lay.int_pos, "u", pos)
        with pytest.raises(bd.InternalError, match=f"subdomain {sub}: unclassified displacement dofs"):
            bd.build_reduced_system(pipe.system, pipe.cls, pipe.jump)

    @pytest.mark.parametrize("kw", [dict(black={"alpha": 1e-2}), dict(kappa=1e-8, black={"kappa": 1e-9})])
    def test_flow_only_contrast_splits_classes(self, kw):
        # at the default E the elastic entries dwarf the flow ones, yet a
        # jump in alpha or in a small kappa alone must split the classes
        red = bd.build_pipeline(bd.ExperimentConfig(nx=16, subdomains=(4, 4), pattern="checkerboard", **kw)).reduced
        assert len(red.factors) == 14  # 4 corner, 8 edge, 2 interior classes
        lay = red.layout
        A_t = torn_matrix_reference(red).tocsr()[: lay.n_w, : lay.n_w]
        b = np.random.default_rng(5).standard_normal(lay.n_w)
        r = A_t @ red.apply_torn_inverse(b) - b
        rows = lay.int_pos["p"][lay.int_pos["p"] >= 0]  # the u rows would hide a wrong flow block
        assert np.linalg.norm(r[rows]) < 1e-10 * np.linalg.norm(b[rows])

    @pytest.mark.parametrize("variant", ["p1", "p0"])
    @pytest.mark.parametrize("primal", ["vertex", "vertex-edge"])
    def test_batched_torn_solve_matches_direct(self, variant, primal):
        red = self.reduced(16, (4, 4), total_pressure=variant, primal=primal)
        n_w = red.layout.n_w
        A_t = torn_matrix_reference(red).tocsc()[:n_w, :n_w]
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
        A_t = torn_matrix_reference(red).tocsc()[:n_w, :n_w]
        b = np.random.default_rng(5).standard_normal(n_w)
        assert rel_err(red.apply_torn_inverse(b), sp.linalg.spsolve(A_t, b)) < 1e-10


class TestSharedLoads:
    """Every member of a torn class carries its representative's loads, so
    the torn solve of the right-hand side solves one column per class
    (``PartiallyAssembled.solve``).  The reference solves every member's
    column (``torn_solve_per_member``).  Solutions are compared on the
    interface rows, which the reduction reads (B_C): the interior entries of
    a near-incompressible torn solution carry its local blocks' conditioning,
    and one column and several solve differently at roundoff (up to 9e-9
    relative there on 24x12 at nu = 0.499)."""

    @staticmethod
    def reduced(case, primal="vertex"):
        return bd.build_pipeline(bd.ExperimentConfig(primal=primal, oracle="off", **MULTI_MEMBER_GRIDS[case][0])).reduced

    @pytest.mark.parametrize("primal", ["vertex", "vertex-edge"])
    @pytest.mark.parametrize("case", list(MULTI_MEMBER_GRIDS))
    def test_members_share_their_class_load(self, case, primal, monkeypatch):
        red = self.reduced(case, primal)
        classes = red.torn.classes
        assert any(c.idx.shape[1] > 1 for c in classes)
        for c in classes:
            Y = red.f_w[c.idx]
            assert np.array_equal(Y, np.repeat(Y[:, :1], Y.shape[1], axis=1))
        want = interface_coupling(red)[0] @ torn_solve_per_member(red.torn, red.f_w) - red.h
        calls = record_torn_columns(monkeypatch, red.torn)
        assert rel_err(red.rhs(), want) < 1e-12
        assert calls == [(i, 1) for i in range(len(classes))]

    @pytest.mark.parametrize("case", list(MULTI_MEMBER_GRIDS))
    def test_unequal_member_loads_solve_every_column(self, case, monkeypatch):
        # one entry of the second member of the largest class, its largest
        # load, moved by a relative 1e-3: that class solves all its columns
        red = self.reduced(case)
        classes = red.torn.classes
        big = max(range(len(classes)), key=lambda i: classes[i].idx.shape[1])
        idx = classes[big].idx
        f = red.f_w.copy()
        f[idx[np.argmax(np.abs(f[idx[:, 1]])), 1]] *= 1.0 + 1e-3
        B_C = interface_coupling(red)[0]
        want, shared = (B_C @ torn_solve_per_member(red.torn, b) for b in (f, red.f_w))
        assert rel_err(want, shared) > 1e-6  # the change shows where the reduction reads it
        calls = record_torn_columns(monkeypatch, red.torn)
        assert rel_err(B_C @ red.torn.solve(f), want) < 1e-12
        assert calls == [(i, idx.shape[1] if i == big else 1) for i in range(len(classes))]


class TestMassOnlyTotalPressure:
    """Subdomains whose K_rr holds the constant total pressure only through
    the mass term (``reduced_system.xi_mass_only``): with p0 total pressure
    and edge averages, every class whose sides the primal constraints all
    close, i.e. with no free side."""

    @pytest.mark.parametrize("kw, flagged", [
        (dict(nx=12, subdomains=(3, 3), total_pressure="p0", primal="vertex-edge"), 6),  # free left side
        (dict(nx=12, subdomains=(3, 3), total_pressure="p0", primal="vertex-edge", bc="dirichlet"), 9),
        # the tiny-subdomains workload's grid: the eleven on the free side are not
        (dict(nx=44, subdomains=(11, 11), total_pressure="p0", primal="vertex-edge"), 110),
        (dict(nx=12, subdomains=(3, 3), total_pressure="p0", primal="vertex", bc="dirichlet"), 0),
        (dict(nx=12, subdomains=(3, 3), total_pressure="p1", primal="vertex-edge", bc="dirichlet"), 0),
        (dict(nx=12, subdomains=(3, 3), total_pressure="p1", primal="vertex"), 0),
    ])
    def test_flagged_subdomain_count(self, kw, flagged, tmp_path):
        cfg = bd.ExperimentConfig(oracle="off", **kw)
        pipe = bd.build_pipeline(cfg)
        assert pipe.reduced.xi_mass_only == flagged
        path = tmp_path / "out.json"
        bd.write_json([bd.run_case(cfg, pipe)], str(path))
        assert json.loads(path.read_text())[0]["xi_mass_only"] == flagged

    def test_vanishing_is_relative_to_the_coupling(self):
        # a symmetric K_rr on (uI, xiI): the displacement row of K 1 over xiI
        # sums its B^T entries, which cancel to roundoff, or leave a third of
        # their magnitudes once one xi unknown is scaled by a half
        counts = np.array([1, 2, 0, 0])
        closed = sp.csr_matrix(np.array([[4.0, 0.1 + 0.2, -0.3], [0.1 + 0.2, -1.0, 0.0], [-0.3, 0.0, -1.0]]))
        assert reduced_system.xi_mass_only(closed, counts)
        half = sp.diags([1.0, 1.0, 0.5])
        assert not reduced_system.xi_mass_only((half @ closed @ half).tocsr(), counts)
        assert not reduced_system.xi_mass_only(closed, np.array([3, 0, 0, 0]))  # no interior total pressure


def _saddle_blocks(M: sp.csr_matrix, sets: dict) -> list[sp.csr_matrix]:
    """A, B, C, D and E of a local saddle block on (uI, xiI, pI, uD, uP)."""
    a, b, c = sets["uI"].size, sets["xiI"].size, sets["pI"].size
    u = np.r_[0:a, a + b + c : M.shape[0]]
    xi, p = np.arange(a, a + b), np.arange(a + b, a + b + c)
    return [M[r][:, k] for r, k in ((u, u), (xi, u), (xi, xi), (p, xi), (p, p))]


def assert_bitwise(got, want, at) -> None:
    """Equal shapes, and equal arrays with equal sign bits (a sparse
    matrix's indptr, sorted indices and data)."""
    assert got.shape == want.shape, at
    if sp.issparse(want):
        assert got.has_sorted_indices, at
        for part in ("indptr", "indices"):
            assert np.array_equal(getattr(got, part), getattr(want, part)), (at, part)
        got, want = got.data, want.data
    assert np.array_equal(got, want), at
    assert np.array_equal(np.signbit(got), np.signbit(want)), at


@pytest.mark.parametrize("primal", ["vertex", "vertex-edge"])
@pytest.mark.parametrize("case", list(MULTI_MEMBER_GRIDS))
def test_local_saddle_is_bitwise_the_sliced_bmat(case, primal):
    # every subdomain's saddle block, its class's cut out of the stacked
    # blocks (trace rows after the primal ones or none), is its own
    # sliced bmat
    kw, _ = MULTI_MEMBER_GRIDS[case]
    pipe = bd.build_pipeline(bd.ExperimentConfig(primal=primal, oracle="off", **kw))
    saddles = ClassSaddles(pipe.system, pipe.cls, pipe.jump)
    assert saddles.reps.tolist() == [m[0] for m in pipe.system.classes("ABCDE")]
    klass = np.searchsorted(saddles.reps, pipe.system.stacked.rep)
    for trace in (False, True):
        M, off, _ = saddles.sparse(*[slice(0, 7) if trace else SADDLE] * 2)
        for s, lb in local_blocks(pipe.system).items():
            ref = sliced_bmat_saddle(lb, local_index_sets(pipe.cls, lb.dofs), trace)
            assert_bitwise(diagonal_block(M, off, off, klass[s]), ref, (s, trace))


@pytest.mark.parametrize("primal", ["vertex", "vertex-edge"])
@pytest.mark.parametrize("case", list(MULTI_MEMBER_GRIDS))
def test_class_blocks_are_slices_of_the_sliced_bmat(case, primal):
    # K_rr, A_rP, A_PP, B_0 (trace rows and signed jump), B_0P and D_c of
    # each torn class are the slices of its representative's sliced bmat
    # that set-up once cut, and the signed jump's rows as it once stacked
    # them, bordered in the same bmat
    kw, _ = MULTI_MEMBER_GRIDS[case]
    pipe = bd.build_pipeline(bd.ExperimentConfig(primal=primal, oracle="off", **kw))
    cls, st, unit = pipe.cls, pipe.system.stacked, pipe.jump.unit
    saddles = ClassSaddles(pipe.system, cls, pipe.jump)
    for r, b in zip(saddles.reps, saddles.blocks(), strict=True):
        lb = local_view(st, r)
        sets = local_index_sets(cls, lb.dofs)
        ref = sliced_bmat_saddle(lb, sets, True)
        n_D = sets["uD"].size
        n_r = sum(sets[k].size for k in ("uI", "xiI", "pI")) + n_D
        n_k = n_r + sets["uP"].size
        sign = sp.csr_matrix((unit.data[cls.u.dual_offset[r] : cls.u.dual_offset[r + 1]],
                              (np.arange(n_D), n_r - n_D + np.arange(n_D))), shape=(n_D, n_r))
        want = dict(K=ref[:n_r, :n_r], A_rP=ref[:n_r, n_r:n_k].toarray(), A_PP=ref[n_r:n_k, n_r:n_k].toarray(),
                    B0=sp.vstack([ref[n_k:, :n_r], sign], format="csr"),
                    B0P=np.vstack([ref[n_k:, n_r:n_k].toarray(), np.zeros((n_D, n_k - n_r))]),
                    D=ref[n_k:, n_k:].toarray())
        for name, w in want.items():
            assert_bitwise(getattr(b, name), w, (r, name))


@pytest.mark.parametrize("kw", [
    # the tiny-subdomains benchmark workload
    dict(nx=44, subdomains=(11, 11), total_pressure="p0", primal="vertex-edge", E=1e6, nu=0.499),
    *(dict(nx=24, subdomains=(6, 6), total_pressure=elem, primal=primal, bc=bc)
      for elem, primal, bc in itertools.product(("p1", "p0"), ("vertex", "vertex-edge"), ("neumann-left", "dirichlet"))),
], ids=lambda kw: "-".join(str(v) for v in kw.values()))
def test_torn_matrix_is_bitwise_the_per_subdomain_build(kw):
    # every class's block from one sparse(SADDLE, SADDLE) cut, placed by the
    # class saddle order at the torn columns the build reads, against each
    # subdomain's own sliced bmat block
    red = bd.build_pipeline(bd.ExperimentConfig(oracle="off", **kw)).reduced
    assert_bitwise(torn_matrix_from_class_cut(red), torn_matrix_reference(red), "torn matrix")


def own_columns(red, s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Subdomain s's torn columns (uI, xiI, pI, uD), primal unknowns and
    interface rows (xiG, pG, then the λ row of each dual copy), from its
    own local index sets through the layout."""
    cls, lay, (n_xi, n_p, _) = red.cls, red.layout, red.segments
    dofs = red.system.stacked.local_dofs(s)
    sets = local_index_sets(cls, dofs)
    at = {n: dofs[n[:-1]][sets[n]] for n in sets}
    copies = np.arange(*cls.u.dual_offset[s : s + 2])
    J = red.jump.unit.tocsr()
    assert np.all(np.diff(J.indptr) == 1)  # one multiplier per broken copy
    torn = [lay.int_pos["u"][at["uI"]], lay.int_pos["xi"][at["xiI"]], lay.int_pos["p"][at["pI"]],
            lay.dual_slice.start + copies]
    rows = [cls.xi.interface_pos(at["xiG"]), n_xi + cls.p.interface_pos(at["pG"]), n_xi + n_p + J.indices[copies]]
    return np.concatenate(torn), lay.primal_pos[at["uP"]] - lay.primal_slice.start, np.concatenate(rows)


@pytest.mark.parametrize("kw", [
    *(experiment_config(name, 7) for name in WORKLOADS),
    *(dict(primal=primal, oracle="off", **kw) for kw, _ in MULTI_MEMBER_GRIDS.values()
      for primal in ("vertex", "vertex-edge")),
], ids=[*WORKLOADS, *(f"{case}-{primal}" for case in MULTI_MEMBER_GRIDS for primal in ("vertex", "vertex-edge"))])
def test_class_index_layout_is_each_members_own(kw):
    # every torn and interface class gathers, for each member, the columns
    # that member's own index sets give through the layout, as C-ordered
    # int64 arrays (an F-ordered gather moves the numbers at roundoff)
    red = bd.build_pipeline(bd.ExperimentConfig(**kw)).reduced
    groups = red.system.classes("ABCDE")
    for k, (members, c, i) in enumerate(zip(groups, red.torn.classes, red.interface.classes, strict=True)):
        for a in (c.idx, c.primal, i.idx, i.primal):
            assert a.dtype == np.int64 and a.flags.c_contiguous, k
        for j, s in enumerate(members):
            torn, primal, rows = own_columns(red, s)
            assert np.array_equal(c.idx[:, j], torn), (k, s)
            assert np.array_equal(c.primal[:, j], primal) and np.array_equal(i.primal[:, j], primal), (k, s)
            assert np.array_equal(i.idx[:, j], rows), (k, s)


@pytest.mark.parametrize("shift", [-1, 1])
def test_diagonal_block_rejects_shifted_offsets(shift):
    # one inner offset of the classes' K_rr cut shifted by one moves a row
    # and a column between two neighbouring blocks: each then has an entry
    # outside its columns, which SciPy would read past the block's arrays
    pipe = bd.build_pipeline(bd.ExperimentConfig(nx=20, subdomains=(5, 5), total_pressure="p1", primal="vertex"))
    K, off, _ = ClassSaddles(pipe.system, pipe.cls, pipe.jump).sparse(LOCAL, LOCAL)
    assert off.size == 10
    for k in range(1, off.size - 1):
        bad = off.copy()
        bad[k] += shift
        for c in (k - 1, k):
            with pytest.raises(bd.InternalError, match=f"diagonal block {c}: an entry of its rows lies outside"):
                diagonal_block(K, bad, bad, c)
    bad = off.copy()
    bad[-1] += shift
    with pytest.raises(bd.InternalError, match=f"diagonal block {off.size - 2}: "):
        diagonal_block(K, bad, bad, off.size - 2)


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
        lbs = list(local_blocks(system).values())
        ix = [local_index_sets(cls, lb.dofs) for lb in lbs]
        saddles = [sliced_bmat_saddle(lb, sets, False) for lb, sets in zip(lbs, ix)]
        p_gamma = []
        interface = by_subdomain(cls.p.rows, len(lbs))
        for s, lb in enumerate(lbs):
            ids = interface[s]
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
        # the classes are factored in visit order (class_sources): each
        # call is matched to its class by its factor
        calls = {id(factor): (factor, A_rP, A_PP) for factor, A_rP, A_PP in calls}
        parts = []
        for c in classes:
            factor, A_rP, A_PP = calls[id(c.factor)]
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
    G = dense_from_apply(pipe.reduced.apply, pipe.reduced.n)
    # roundoff of a few hundred accumulated solves, times the growth of
    # diagonal pivots on a quasi-definite block, about lam/mu = 2 nu / (1 - 2 nu)
    # (5e4 at nu = 0.49999)
    lam_over_mu = float(np.max(pipe.materials.lam / pipe.materials.mu))
    assert np.linalg.norm(G - G.T) <= 1e-14 * (1.0 + lam_over_mu) * np.linalg.norm(G)
