"""Experiment configuration, runs, sweeps, fits, reports, and the CLI."""

import csv
import json
import math

import numpy as np
import pytest

import biot_ddp as bd
from biot_ddp.cli import main
from biot_ddp.harness import CSV_COLUMNS, write_csv, write_json


def small_cfg(**kw):
    params = dict(nx=8, subdomains=(2, 2), E=1.0, nu=0.3, alpha=0.9, kappa=1.0)
    params.update(kw)
    return bd.ExperimentConfig(**params)


class TestConfig:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("total_pressure", "q2"),
            ("primal", "corner"),
            ("multiplier_pc", "robin"),
            ("pattern", "stripes"),
            ("bc", "periodic"),
            ("oracle", "maybe"),
        ],
    )
    def test_enum_fields_validated(self, field, value):
        with pytest.raises(bd.ConfigurationError):
            small_cfg(**{field: value}).validate()

    def test_black_requires_checkerboard(self):
        with pytest.raises(bd.ConfigurationError):
            small_cfg(black={"E": 10.0}).validate()

    def test_indivisible_grid_rejected_at_build(self):
        with pytest.raises(bd.ConfigurationError):
            bd.build_pipeline(small_cfg(nx=10, subdomains=(4, 4)))

    def test_h_ratio(self):
        assert small_cfg(nx=48, subdomains=(4, 4)).H_over_h == 12

    def test_dict_roundtrip(self):
        cfg = small_cfg(pattern="checkerboard", black={"kappa": 1e-5})
        back = bd.ExperimentConfig.from_dict(cfg.to_dict())
        assert back == cfg
        assert isinstance(back.subdomains, tuple)

    def test_unknown_key_rejected(self):
        with pytest.raises(bd.ConfigurationError):
            bd.ExperimentConfig.from_dict({"nx": 8, "mesh_size": 4})

    def test_from_json(self, tmp_path):
        cfg = small_cfg(tol=1e-9)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert bd.ExperimentConfig.from_json(str(path)) == cfg


class TestRunCase:
    def test_small_run_matches_oracle(self):
        res = bd.run_case(small_cfg())
        assert res.converged
        assert res.oracle_err is not None
        assert max(res.oracle_err) < 1e-7
        assert res.jump_norm < 1e-8

    def test_runs_are_deterministic(self):
        r1 = bd.run_case(small_cfg())
        r2 = bd.run_case(small_cfg())
        row1, row2 = r1.row(), r2.row()
        row1.pop("wall_s"), row2.pop("wall_s")
        assert row1 == row2
        np.testing.assert_array_equal(r1.u, r2.u)

    def test_oracle_modes(self):
        assert bd.run_case(small_cfg(oracle="off")).oracle_err is None
        assert bd.run_case(small_cfg(oracle="on")).oracle_err is not None

    def test_row_reports_black_cell_values(self):
        cfg = small_cfg(pattern="checkerboard", black={"E": 123.0})
        row = bd.run_case(cfg).row()
        assert row["E"] == 123.0
        assert row["nu"] == cfg.nu

    def test_unconverged_run_reported(self):
        res = bd.run_case(small_cfg(max_iter=2))
        assert not res.converged
        assert any("not converged" in n for n in res.notes)

    def test_single_subdomain_solves_directly(self):
        res = bd.run_case(bd.ExperimentConfig(nx=4, subdomains=(1, 1), E=1.0, nu=0.3))
        assert res.converged and res.iterations == 0
        assert res.n_interface == 0
        assert max(res.oracle_err) < 1e-10


class TestSweep:
    def test_product_mode(self):
        results = bd.run_sweep(
            small_cfg(), {"alpha": [0.5, 1.0], "kappa": [1.0, 2.0]}
        )
        combos = [(r.config.alpha, r.config.kappa) for r in results]
        assert combos == [(0.5, 1.0), (0.5, 2.0), (1.0, 1.0), (1.0, 2.0)]

    def test_zip_mode(self):
        results = bd.run_sweep(
            small_cfg(), {"alpha": [0.5, 1.0], "kappa": [1.0, 2.0]}, mode="zip"
        )
        combos = [(r.config.alpha, r.config.kappa) for r in results]
        assert combos == [(0.5, 1.0), (1.0, 2.0)]

    def test_zip_length_mismatch_rejected(self):
        with pytest.raises(bd.ConfigurationError):
            bd.run_sweep(small_cfg(), {"alpha": [0.5], "kappa": [1.0, 2.0]}, mode="zip")

    def test_black_axis(self):
        base = small_cfg(pattern="checkerboard")
        results = bd.run_sweep(base, {"black.kappa": [1e-1, 1e-3]})
        assert [r.config.black["kappa"] for r in results] == [1e-1, 1e-3]

    def test_failed_point_keeps_its_neighbours(self):
        results = bd.run_sweep(small_cfg(), {"kappa": [1.0, 0.0, 2.0]})
        assert [r.config.kappa for r in results] == [1.0, 0.0, 2.0]
        first, failed, last = results
        assert first.converged and last.converged and first.error is None and last.error is None
        assert isinstance(failed.error, bd.MaterialDomainError) and not failed.converged
        assert failed.row()["error"].startswith("MaterialDomainError: ")

    def test_axis_limits(self):
        with pytest.raises(bd.ConfigurationError):
            bd.run_sweep(small_cfg(), {})
        with pytest.raises(bd.ConfigurationError):
            bd.run_sweep(small_cfg(), {"alpha": [1], "kappa": [1], "nu": [0.3]})
        with pytest.raises(bd.ConfigurationError):
            bd.run_sweep(small_cfg(), {"porosity": [0.1]})


class TestFit:
    def test_exact_model_recovered(self):
        ratios = [2.0, 4.0, 8.0, 16.0]
        y = [0.3 + 0.7 * (1.0 + math.log(r)) ** 2 for r in ratios]
        fit = bd.fit_polylog(ratios, y)
        assert fit["C1"] == pytest.approx(0.3, abs=1e-10)
        assert fit["C2"] == pytest.approx(0.7, abs=1e-10)
        assert fit["R2"] == pytest.approx(1.0)

    def test_constant_data(self):
        fit = bd.fit_polylog([2.0, 4.0, 8.0], [5.0, 5.0, 5.0])
        assert fit["R2"] == 1.0
        assert fit["C2"] == pytest.approx(0.0, abs=1e-12)

    def test_input_validation(self):
        with pytest.raises(bd.ConfigurationError):
            bd.fit_polylog([2.0], [1.0])
        with pytest.raises(bd.ConfigurationError):
            bd.fit_polylog([2.0, 4.0], [1.0])


class TestReports:
    def test_csv_layout_and_float_fidelity(self, tmp_path):
        res = bd.run_case(small_cfg())
        path = tmp_path / "out.csv"
        write_csv([res], str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0].split(",") == CSV_COLUMNS
        cells = dict(zip(CSV_COLUMNS, lines[1].split(",")))
        assert float(cells["eig_min"]) == res.eig_min
        assert int(cells["iter"]) == res.iterations
        assert cells["elem"] == "p1"

    def test_csv_blank_for_missing_oracle(self, tmp_path):
        res = bd.run_case(small_cfg(oracle="off"))
        path = tmp_path / "out.csv"
        write_csv([res], str(path))
        cells = dict(zip(CSV_COLUMNS, path.read_text().strip().splitlines()[1].split(",")))
        assert cells["oracle_err_u"] == ""

    def test_json_report(self, tmp_path):
        res = bd.run_case(small_cfg())
        path = tmp_path / "out.json"
        write_json([res], str(path))
        payload = json.loads(path.read_text())
        assert len(payload) == 1
        entry = payload[0]
        assert entry["converged"] is True
        assert entry["config"]["nx"] == 8
        assert entry["n_interface"] == res.n_interface


class TestFactorSize:
    def test_factor_nnz_sums_every_kept_factor(self, tmp_path):
        # 16x16 on 2x2: sparse saddle factors; the xi, p and λ classes keep
        # no factor, only their dense maps
        cfg = small_cfg(nx=16, oracle="off")
        pipe = bd.build_pipeline(cfg)
        res = bd.run_case(cfg, pipe)
        pc = pipe.preconditioner
        assert all(c.factor is None for c in pc.xi.classes + pc.pressure.classes + pc.multiplier.classes)
        factors = [c.factor for c in pipe.reduced.factors.values()]
        assert pipe.local_factors() == factors
        assert res.factor_nnz == sum(f.nnz for f in factors)
        assert all(f.nnz < f.n**2 for f in factors)  # sparse
        path = tmp_path / "out.json"
        write_json([res], str(path))
        assert json.loads(path.read_text())[0]["factor_nnz"] == res.factor_nnz

    @pytest.mark.parametrize("kw", [dict(nx=16, subdomains=(4, 4)), dict(nx=32, subdomains=(8, 8)),
                                    dict(nx=32, subdomains=(8, 8), multiplier_pc="lumped")])
    def test_factor_classes_add_up(self, tmp_path, kw):
        # the preconditioner classes keep no factor: the xi, p and λ
        # Dirichlet blocks are condensed, and a lumped λ block's sparse
        # A_DD is no condensed matrix
        cfg = small_cfg(oracle="off", **kw)
        res = bd.run_case(cfg)
        assert sorted(res.factor_classes) == ["lambda", "p", "torn", "xi"]
        n_sub = kw["subdomains"][0] * kw["subdomains"][1]
        for classes in res.factor_classes.values():
            assert sum(m for m, _, _ in classes) == n_sub
        assert sum(nnz for classes in res.factor_classes.values() for _, _, nnz in classes) == res.factor_nnz
        lumped = kw.get("multiplier_pc") == "lumped"
        assert ("lambda" in res.condensed) == (not lumped)
        for block in ("xi", "p", "lambda"):
            assert all(entry[1:] == [0, 0] for entry in res.factor_classes[block])
        if lumped:
            # the torn maps take 287,472 bytes, the xi and p maps 16,336
            assert res.iterations == 41 and res.condensed == ["torn", "xi", "p"] and res.condensed_bytes == 303_808
        path = tmp_path / "out.json"
        write_json([res], str(path))
        assert json.loads(path.read_text())[0]["factor_classes"] == res.factor_classes


class TestCli:
    BASE = ["--nx", "8", "--sub", "2x2", "--E", "1", "--nu", "0.3"]

    def test_run_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        hist = tmp_path / "res.csv"
        code = main(["run", *self.BASE, "--out", str(out), "--residuals", str(hist)])
        assert code == 0
        assert "iter=" in capsys.readouterr().out
        assert out.read_text().startswith(",".join(CSV_COLUMNS))
        assert hist.read_text().startswith("iteration,residual")

    def test_run_config_file_with_override(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_cfg().to_dict()))
        code = main(["run", "--config", str(cfg_path), "--nx", "12"])
        assert code == 0
        assert "nx=12" in capsys.readouterr().out

    def test_run_reports_nonconvergence(self, tmp_path, capsys):
        code = main(["run", *self.BASE, "--max-iter", "2"])
        assert code == 1
        assert "NOT CONVERGED" in capsys.readouterr().out

    def test_run_rejects_bad_black_key(self, capsys):
        code = main(["run", *self.BASE, "--pattern", "checkerboard", "--black", "rho=1"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["run", "--nu", "0.5"], ["sweep", "--axis", "kappa=0"]],
        ids=["run-nu", "sweep-kappa"],
    )
    def test_material_error_exits_2(self, argv, capsys):
        base = ["--nx", "8", "--sub", "2x2", "--E", "1"]
        code = main([argv[0], *base, *argv[1:]])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "arg", [["--kappa", "nan"], ["--E", "inf"], ["--alpha", "nan"], ["--tol", "-1"]],
        ids=["kappa-nan", "E-inf", "alpha-nan", "tol-negative"],
    )
    def test_non_finite_or_negative_input_exits_2(self, arg, capsys):
        code = main(["run", "--nx", "8", *arg])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    # configuration files whose values have the wrong type
    TYPED_CONFIGS = {
        "config-nx": {"nx": "abc"}, "config-E": {"E": "x"}, "config-tol": {"tol": "1e-8"},
        "config-max-iter": {"max_iter": "5"}, "config-black": {"pattern": "checkerboard", "black": {"E": "x"}},
        "config-nx-bool": {"nx": True}, "config-body-force": {"body_force": 1},
        "config-reorthogonalize": {"reorthogonalize": "yes"}, "config-subdomains-int": {"subdomains": 4},
        # out of range or not finite (Python's JSON reader takes NaN and Infinity)
        "config-max-iter-negative": {"max_iter": -3}, "config-max-iter-zero": {"max_iter": 0},
        "config-source-nan": {"source": math.nan}, "config-source-inf": {"source": math.inf},
        "config-body-force-nan": {"body_force": [math.nan, 0.0]},
        "config-body-force-inf": {"body_force": [0.0, -math.inf]},
        "config-ritz-drop-nan": {"ritz_drop_threshold": math.nan},
        "config-ritz-drop-inf": {"ritz_drop_threshold": math.inf},
    }

    @pytest.mark.parametrize(
        "argv",
        [["sweep", "--axis", "nx=abc"], ["sweep", "--axis", "nu=x"], ["sweep", "--axis", "subdomains=4"],
         ["fit", "--ratios", "a,b"], ["run", "--config", "missing.json"], ["run", "--config", "malformed.json"],
         ["run", "--config", "pair.json"], *(["run", "--config", f"{name}.json"] for name in TYPED_CONFIGS)],
        ids=["axis-int", "axis-float", "axis-pair", "fit-ratios", "config-missing", "config-malformed", "config-pair",
             *TYPED_CONFIGS],
    )
    def test_unparsable_input_exits_2(self, argv, tmp_path, capsys):
        (tmp_path / "malformed.json").write_text('{"nx": 8,')
        (tmp_path / "pair.json").write_text('{"subdomains": "2x2"}')
        for name, data in self.TYPED_CONFIGS.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(data))
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        assert main([*argv, "--nx", "8", "--E", "1", "--nu", "0.3"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_subnormal_poisson_ratio_exits_2(self, capsys):
        # lambda would underflow to a subnormal and the mass block 1/lambda overflow
        code = main(["run", "--nx", "8", "--nu", "5e-324"])
        assert code == 2
        assert "not a normal positive float" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "error, code",
        [(bd.SpdViolationError("preconditioned residual norm is negative"), 1), (bd.InternalError("bad index"), 3)],
        ids=["spd-violation", "internal"],
    )
    def test_solver_failure_exit_codes(self, monkeypatch, capsys, error, code):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(bd.cli, "run_case", fail)
        assert main(["run", *self.BASE]) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and str(error) in err[0]

    def test_sweep_json_output(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = main(
            [
                "sweep", *self.BASE,
                "--axis", "alpha=0.5,1.0",
                "--out", str(out), "--format", "json",
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert [e["alpha"] for e in payload] == [0.5, 1.0]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_writes_every_row_and_exits_with_the_first_failure(self, tmp_path, capsys, fmt):
        out = tmp_path / f"sweep.{fmt}"
        code = main(["sweep", *self.BASE, "--axis", "kappa=1,0,2", "--out", str(out), "--format", fmt])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        if fmt == "json":
            rows = json.loads(out.read_text(), parse_constant=lambda c: pytest.fail(f"{c} is not JSON"))
        else:
            with open(out, newline="") as fh:
                rows = list(csv.DictReader(fh))
        assert [float(r["kappa"]) for r in rows] == [1.0, 0.0, 2.0]
        assert [bool(r["error"]) for r in rows] == [False, True, False]
        assert rows[1]["error"].startswith("MaterialDomainError: ")

    def test_sweep_zip_black_axis(self, capsys):
        code = main(
            [
                "sweep", *self.BASE,
                "--pattern", "checkerboard",
                "--axis", "black.E=10,100",
                "--axis", "black.kappa=0.1,0.01",
                "--zip",
            ]
        )
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("nx=")]
        assert len(lines) == 2

    def test_fit_without_converged_ratios_prints_no_fit(self, capsys):
        code = main(["fit", *self.BASE, "--max-iter", "2", "--ratios", "2,4"])
        out = capsys.readouterr().out
        assert code == 1
        assert "eig_max ~" not in out and "no fit" in out
        points = [line for line in out.splitlines() if line.startswith("nx=")]
        assert len(points) == 2 and all(line.endswith(" (NOT CONVERGED)") for line in points)

    def test_sweep_marks_only_unconverged_points(self, capsys):
        code = main(["sweep", *self.BASE, "--axis", "max_iter=2,50"])
        points = [line for line in capsys.readouterr().out.splitlines() if line.startswith("nx=")]
        assert code == 1
        assert [line.endswith(" (NOT CONVERGED)") for line in points] == [True, False]

    def test_fit_goes_on_past_a_failed_ratio(self, tmp_path, capsys):
        # ratio 0 gives an empty mesh: its row fails, the other two are fitted
        out = tmp_path / "fit.json"
        code = main(["fit", *self.BASE, "--ratios", "2,0,4", "--out", str(out)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 2
        assert [line.endswith("failed") for line in lines if line.startswith("nx=")] == [False, True, False]
        assert any(line.startswith("eig_max ~") for line in lines)
        assert [p["H_over_h"] for p in json.loads(out.read_text())["points"]] == [2.0, 4.0]

    def test_fit_subcommand(self, tmp_path, capsys):
        out = tmp_path / "fit.json"
        code = main(["fit", *self.BASE, "--ratios", "2,4", "--out", str(out)])
        assert code == 0
        fit = json.loads(out.read_text())
        assert set(fit) >= {"C1", "C2", "R2", "points"}
        assert "R2=" in capsys.readouterr().out
