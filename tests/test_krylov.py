"""Conjugate gradient solver and Ritz spectrum estimation."""

import numpy as np
import pytest

import biot_ddp as bd
from biot_ddp.krylov import PcgConfig, filter_spectrum, pcg, write_residual_history
from helpers import random_spd


class TestPcg:
    def test_matches_dense_solve(self):
        rng = np.random.default_rng(42)
        A = random_spd(40, 1e3, rng)
        b = rng.standard_normal(40)
        res = pcg(lambda v: A @ v, b, config=PcgConfig(tol=1e-12, max_iter=200))
        assert res.converged
        x_ref = np.linalg.solve(A, b)
        assert np.linalg.norm(res.x - x_ref) / np.linalg.norm(x_ref) < 1e-8

    def test_exact_preconditioner_converges_immediately(self):
        rng = np.random.default_rng(1)
        A = random_spd(30, 1e4, rng)
        Ainv = np.linalg.inv(A)
        b = rng.standard_normal(30)
        res = pcg(lambda v: A @ v, b, apply_M=lambda v: Ainv @ v)
        assert res.iterations <= 2
        assert res.eig_max == pytest.approx(1.0, rel=1e-8)

    def test_residual_history_is_monotone_enough(self):
        rng = np.random.default_rng(3)
        A = random_spd(25, 100.0, rng)
        b = rng.standard_normal(25)
        res = pcg(lambda v: A @ v, b, config=PcgConfig(tol=1e-10))
        assert res.residuals[0] == pytest.approx(np.linalg.norm(b))
        assert res.residuals[-1] <= 1e-10 * np.linalg.norm(b)
        assert len(res.residuals) == res.iterations + 1

    def test_ritz_values_match_spectrum(self):
        # a full-length reorthogonalized run reproduces the eigenvalues of
        # a small diagonal operator
        vals = np.array([0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 9.0])
        A = np.diag(vals)
        rng = np.random.default_rng(4)
        b = rng.standard_normal(vals.size)
        res = pcg(
            lambda v: A @ v,
            b,
            config=PcgConfig(tol=1e-15, max_iter=vals.size, reorthogonalize=True),
        )
        assert res.ritz.size == vals.size
        np.testing.assert_allclose(np.sort(res.ritz), vals, rtol=1e-6)

    def test_zero_rhs_short_circuits(self):
        res = pcg(lambda v: v, np.zeros(10))
        assert res.converged and res.iterations == 0
        assert res.eig_min is None and res.condition_estimate is None
        np.testing.assert_array_equal(res.x, np.zeros(10))

    def test_indefinite_operator_rejected(self):
        b = np.ones(5)
        with pytest.raises(bd.SpdViolationError):
            pcg(lambda v: -v, b)

    def test_indefinite_preconditioner_rejected(self):
        b = np.ones(5)
        with pytest.raises(bd.SpdViolationError):
            pcg(lambda v: v, b, apply_M=lambda v: -v)

    @staticmethod
    def turns_bad(apply, value, from_call):
        """``apply`` until call ``from_call``, then vectors of ``value``."""
        calls = []

        def f(v):
            calls.append(1)
            return np.full_like(v, value) if len(calls) >= from_call else apply(v)

        return f

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_operator_rejected_at_once(self, value):
        # NaN fails no `<= 0` test: without a finite check the run goes on to
        # max_iter and ends in the Ritz eigensolver
        rng = np.random.default_rng(9)
        A = random_spd(40, 1e6, rng)
        op = self.turns_bad(lambda v: A @ v, value, 3)
        with pytest.raises(bd.SpdViolationError, match=r"^operator produced non-finite curvature .* at iteration 3$"):
            pcg(op, rng.standard_normal(40), config=PcgConfig(tol=1e-14, max_iter=500))

    @pytest.mark.parametrize("from_call, where", [(1, "on the initial residual"), (3, "at iteration 2")])
    def test_non_finite_preconditioner_rejected_at_once(self, from_call, where):
        rng = np.random.default_rng(10)
        A = random_spd(40, 1e6, rng)
        pc = self.turns_bad(lambda v: v.copy(), np.nan, from_call)
        with pytest.raises(bd.SpdViolationError, match=f"non-finite.* {where}$"):
            pcg(lambda v: A @ v, rng.standard_normal(40), apply_M=pc, config=PcgConfig(tol=1e-14))

    def test_iteration_cap_reported(self):
        rng = np.random.default_rng(5)
        A = random_spd(50, 1e8, rng)
        b = rng.standard_normal(50)
        res = pcg(lambda v: A @ v, b, config=PcgConfig(tol=1e-14, max_iter=3))
        assert not res.converged
        assert res.iterations == 3
        assert any("not converged" in n for n in res.notes)

    def test_reorthogonalized_run_still_solves(self):
        rng = np.random.default_rng(6)
        A = random_spd(35, 1e5, rng)
        b = rng.standard_normal(35)
        cfg = PcgConfig(tol=1e-12, max_iter=200, reorthogonalize=True)
        res = pcg(lambda v: A @ v, b, config=cfg)
        assert res.converged
        x_ref = np.linalg.solve(A, b)
        assert np.linalg.norm(res.x - x_ref) / np.linalg.norm(x_ref) < 1e-8

    def test_condition_estimate(self):
        rng = np.random.default_rng(7)
        A = random_spd(20, 50.0, rng)
        b = rng.standard_normal(20)
        res = pcg(lambda v: A @ v, b, config=PcgConfig(tol=1e-12))
        assert res.condition_estimate == pytest.approx(res.eig_max / res.valid_eig_min)


class TestFilterSpectrum:
    def test_isolated_small_value_dropped(self):
        val, dropped, notes = filter_spectrum(np.array([1e-6, 0.5, 1.0]), 0.05)
        assert val == 0.5 and dropped == 1 and notes == []

    def test_clustered_spectrum_untouched(self):
        val, dropped, _ = filter_spectrum(np.array([0.3, 0.5, 1.0]), 0.05)
        assert val == 0.3 and dropped == 0

    def test_cascade_leaves_warning(self):
        val, dropped, notes = filter_spectrum(np.array([1e-8, 1e-4, 1.0]), 0.05)
        assert val == 1.0 and dropped == 2
        assert any("fewer than two" in n for n in notes)

    def test_single_value_kept(self):
        val, dropped, _ = filter_spectrum(np.array([2.0]), 0.05)
        assert val == 2.0 and dropped == 0

    def test_empty_input(self):
        val, dropped, _ = filter_spectrum(np.zeros(0), 0.05)
        assert val is None and dropped == 0


class TestResidualHistory:
    def test_round_trips_through_csv(self, tmp_path):
        rng = np.random.default_rng(8)
        A = random_spd(10, 10.0, rng)
        res = pcg(lambda v: A @ v, rng.standard_normal(10))
        path = tmp_path / "residuals.csv"
        write_residual_history(res, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,residual"
        assert len(lines) == len(res.residuals) + 1
        for k, line in enumerate(lines[1:]):
            it, val = line.split(",")
            assert int(it) == k
            assert float(val) == res.residuals[k]
