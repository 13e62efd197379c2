"""Segment solvers of the block preconditioner.

Each segment is checked against a dense reconstruction: the scaled local
mass Schur sum and the pressure interface Schur complement pin the spectra
of their solvers from below at one, and the multiplier segment is compared
entry by entry with an explicitly assembled broken Schur complement.
"""

import numpy as np
import pytest
import scipy.linalg as sla

import biot_ddp as bd
from biot_ddp.preconditioner import _dense_schur, build_lambda_solver
from helpers import (
    assembled_pressure_schur,
    assembled_total_pressure_schur,
    dense_from_apply,
    preconditioned_spectrum,
    rel_err,
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
            H[sl, sl] = _dense_schur(lb.A, dual, inner)
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
