"""Experiment configuration, runs, sweeps, fits, reports, and the CLI."""

import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import biot_ddp as bd
from biot_ddp.cli import _config_from_args, _parse_axis, build_parser, main
from biot_ddp.harness import CHOICES, CSV_COLUMNS, write_csv, write_json

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from workloads import experiment_config  # noqa: E402


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

    FLAGS = {"total_pressure": "--elem", "primal": "--primal", "multiplier_pc": "--lambda-pc",
             "pattern": "--pattern", "bc": "--bc", "oracle": "--oracle"}

    @pytest.mark.parametrize("field,value", [(f, v) for f, values in CHOICES.items() for v in values])
    def test_every_choice_passes_validate_and_the_cli(self, field, value):
        small_cfg(**{field: value}).validate()
        args = build_parser().parse_args(["run", self.FLAGS[field], value])
        assert getattr(_config_from_args(args), field) == value
        assert _parse_axis(f"{field}={value}") == (field, [value])

    AXES = {"reorthogonalize=true,false": [True, False], "reorthogonalize=False,TRUE": [False, True]}

    @pytest.mark.parametrize("text", list(AXES))
    def test_axis_values_parse(self, text):
        assert _parse_axis(text) == (text.split("=")[0], self.AXES[text])

    def test_cli_offers_no_other_choice(self):
        assert set(self.FLAGS) == set(CHOICES)
        for flag in self.FLAGS.values():
            with pytest.raises(SystemExit):
                build_parser().parse_args(["run", flag, "none-of-these"])

    def test_ny_follows_the_subdomain_grid(self):
        pipe = bd.build_pipeline(small_cfg(nx=24, subdomains=(4, 2)))
        assert (pipe.mesh.nx, pipe.mesh.ny) == (24, 12)
        assert "ny" not in small_cfg().to_dict()

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

    @pytest.mark.parametrize("data", [5, None, "abc", [["nx", 8]]], ids=["number", "null", "string", "list"])
    def test_non_object_rejected(self, data):
        with pytest.raises(bd.ConfigurationError, match="^a configuration must be an object of field values, got "):
            bd.ExperimentConfig.from_dict(data)

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
        # a property, a method and the black-cell dict are no configuration fields to sweep
        for name in ("H_over_h", "to_dict", "black"):
            with pytest.raises(bd.ConfigurationError, match=f"^unknown sweep axis '{name}'$"):
                bd.run_sweep(small_cfg(pattern="checkerboard"), {name: [1]})


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
        with pytest.raises(bd.ConfigurationError):
            bd.fit_polylog([2.0, 2.0], [1.0, 2.0])
        for low in (0.0, -1.0, 0.5):  # below one, and where log fails
            with pytest.raises(bd.ConfigurationError):
                bd.fit_polylog([low, 2.0], [1.0, 2.0])
        for bad in (math.nan, math.inf):  # an eig_max that is not finite
            with pytest.raises(bd.ConfigurationError):
                bd.fit_polylog([2.0, 4.0], [bad, 1.0])


class TestReports:
    def test_csv_layout_and_float_fidelity(self, tmp_path):
        res = bd.run_case(small_cfg())
        path = tmp_path / "out.csv"
        write_csv([res], str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0].split(",") == CSV_COLUMNS == [
            "nx", "sub_x", "sub_y", "H_over_h", "elem", "primal", "lambda_pc", "pattern",
            "E", "nu", "alpha", "kappa", "bc", "iter", "eig_min", "valid_eig_min", "eig_max",
            "oracle_err_u", "oracle_err_xi", "oracle_err_p", "wall_s", "error",
        ]
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

    # the record's keys: CSV_COLUMNS and these
    RECORD_KEYS = {"coarse", "condensed", "condensed_bytes", "config", "converged", "dropped_modes", "environment",
                   "factor_classes", "factor_nnz", "jump_norm", "n_dofs", "n_interface", "notes", "peak_rss_mb",
                   "schur_sources", "xi_mass_only"}

    def test_json_keys_of_a_run_and_of_a_failed_point(self, tmp_path):
        results = bd.run_sweep(small_cfg(), {"kappa": [1.0, 0.0]})
        path = tmp_path / "out.json"
        write_json(results, str(path))
        run, failed = json.loads(path.read_text())
        for entry in (run, failed):
            assert set(entry) == set(CSV_COLUMNS) | self.RECORD_KEYS
            assert set(entry["config"]) == {f.name for f in dataclasses.fields(bd.ExperimentConfig)}
        assert "ny" not in run["config"]
        assert failed["error"].startswith("MaterialDomainError: ") and failed["iter"] == 0
        assert failed["jump_norm"] is None and failed["factor_classes"] == {} and failed["peak_rss_mb"] > 0.0

    def test_new_result_field_reaches_the_record(self, tmp_path):
        # write_json follows RunResult's fields: a new one needs no edit there
        extended = dataclasses.make_dataclass("Extended", [("stage_s", float, 0.0)], bases=(bd.RunResult,))
        path = tmp_path / "out.json"
        write_json([extended(small_cfg(), stage_s=1.5)], str(path))
        assert json.loads(path.read_text())[0]["stage_s"] == 1.5


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
        assert [c.factor for b in pipe.blocks.values() for c in b.classes if c.factor is not None] == factors
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


    def test_record_has_sources_peak_rss_and_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_CORETYPE", "Haswell")  # read, not applied: OpenBLAS is loaded
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        cfg = small_cfg(nx=16, subdomains=(4, 4), oracle="off")
        res = bd.run_case(cfg)
        assert res.schur_sources == {"torn": 0, "xi": 1, "p": 1, "lambda": 1}  # the torn block is not condensed
        assert 0.0 < res.peak_rss_mb < 1e5
        path = tmp_path / "out.json"
        write_json([res], str(path))
        entry = json.loads(path.read_text())[0]
        assert entry["schur_sources"] == res.schur_sources and entry["peak_rss_mb"] == res.peak_rss_mb
        env = entry["environment"]
        assert env["numpy"] == np.__version__ and env["python"].count(".") == 2
        assert env["blas"]["name"] and env["blas"]["version"]
        assert env["blas"]["corename"] == bd.harness.blas_corename()
        if env["blas"]["name"] == "scipy-openblas":  # NumPy's bundled OpenBLAS names its core
            assert env["blas"]["corename"]
        assert env["OPENBLAS_CORETYPE"] == "Haswell" and env["OMP_NUM_THREADS"] is None
        assert set(env) == {"python", "numpy", "scipy", "blas", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                            "OPENBLAS_CORETYPE"}


    def test_record_has_coarse_sizes(self, tmp_path):
        # 4x4 subdomains with edge averages, left side free: 12 vertices
        # (9 inside, 3 on the left side) and 24 edges, each one pressure
        # and two displacement unknowns.  Pressure numbers them row by row:
        # a line of vertices holds 4 vertices and 4 edge starts, the line
        # above it 3 vertical edge starts, so a subdomain spans 13 of them
        # and its displacement unknowns, two per node, 27.
        res = bd.run_case(small_cfg(nx=16, subdomains=(4, 4), primal="vertex-edge", oracle="off"))
        assert res.coarse == {"torn": [72, 27], "p": [36, 13]}
        path = tmp_path / "out.json"
        write_json([res], str(path))
        assert json.loads(path.read_text())[0]["coarse"] == res.coarse

    # per run: condensed, schur_sources, coarse, factor_nnz, condensed_bytes
    RECORD_PINS = {
        # the interior class is every block's one source: only its torn factor is kept
        "flagship-p1-nx64": (["torn", "xi", "p", "lambda"], {"torn": 1, "xi": 1, "p": 1, "lambda": 1},
                             {"torn": [112, 19], "p": [56, 9]}, 41_686, 1_758_336),
        "tiny-subdomains": (["torn", "p", "lambda"], {"torn": 2, "p": 2, "lambda": 2},
                            {"torn": [660, 69], "p": [330, 34]}, 71_833, 251_312),
        "contrast-spectrum": (["xi", "p", "lambda"], {"torn": 0, "xi": 1, "p": 5, "lambda": 1},
                              {"torn": [12, 9], "p": [6, 4]}, 2_710_052, 2_364_944),
        # one subdomain: no interface, so a condensed torn block of no bytes
        # and no xi or p block
        "nx4-1x1": ([], {"torn": 1, "lambda": 1}, {"torn": [0, 0]}, 22_201, 0),
    }

    @pytest.mark.parametrize("case", list(RECORD_PINS))
    def test_record_of_the_partially_assembled_blocks(self, case):
        # the condensed and the uncondensed torn block, a run without xi
        # (p0) and one without interface, each read off Pipeline.blocks
        condensed, sources, coarse, factor_nnz, condensed_bytes = self.RECORD_PINS[case]
        kw = dict(nx=4, subdomains=(1, 1), oracle="off") if case == "nx4-1x1" else experiment_config(case, 7)
        res = bd.run_case(bd.ExperimentConfig(**kw))
        assert res.converged
        assert res.condensed == condensed and res.schur_sources == sources and res.coarse == coarse
        assert res.factor_nnz == factor_nnz and res.condensed_bytes == condensed_bytes
        assert list(res.factor_classes) == list(sources)
        n_sub = res.config.subdomains[0] * res.config.subdomains[1]
        assert all(sum(m for m, _, _ in classes) == n_sub for classes in res.factor_classes.values())
        assert sum(nnz for _, _, nnz in res.factor_classes["torn"]) == factor_nnz

    def test_corename_none_without_the_symbol(self, monkeypatch):
        def no_library(path):
            raise OSError(f"{path}: cannot open shared object file")

        monkeypatch.setattr(bd.harness.ctypes, "CDLL", no_library)
        assert bd.harness.blas_corename() is None
        assert bd.harness.environment()["blas"]["corename"] is None


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

    def test_reorthogonalize_flag_overrides_the_file(self, tmp_path):
        parser = build_parser()
        for in_file, flag, want in ((True, "--no-reorthogonalize", False), (False, "--reorthogonalize", True)):
            cfg_path = tmp_path / f"{in_file}.json"
            cfg_path.write_text(json.dumps({"reorthogonalize": in_file}))
            assert _config_from_args(parser.parse_args(["run", "--config", str(cfg_path)])).reorthogonalize is in_file
            assert _config_from_args(parser.parse_args(["run", "--config", str(cfg_path), flag])).reorthogonalize is want

    def test_run_reports_nonconvergence(self, tmp_path, capsys):
        code = main(["run", *self.BASE, "--max-iter", "2"])
        assert code == 1
        assert "NOT CONVERGED" in capsys.readouterr().out

    def test_run_with_black_override_matches_run_case(self, capsys):
        code = main(["run", *self.BASE, "--pattern", "checkerboard", "--black", "E=1e3"])
        assert code == 0
        res = bd.run_case(bd.ExperimentConfig(nx=8, subdomains=(2, 2), E=1.0, nu=0.3, pattern="checkerboard",
                                              black={"E": 1e3}))
        # the last digit of eig_max depends on the BLAS kernels and threads
        assert res.iterations == 17 and res.eig_max == pytest.approx(1.8952437816148953, rel=1e-12)
        out = capsys.readouterr().out
        assert f"iter={res.iterations} " in out and f"eig_max={res.eig_max!r} " in out

    def test_run_rejects_bad_black_key(self, capsys):
        code = main(["run", *self.BASE, "--pattern", "checkerboard", "--black", "rho=1"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["run", "--nu", "0.5"], ["sweep", "--axis", "kappa=0"], ["run", "--E", "0"], ["run", "--alpha", "0"],
         ["run", "--pattern", "checkerboard", "--sub", "1x2", "--black", "E=2"]],
        ids=["run-nu", "sweep-kappa", "run-E-zero", "run-alpha-zero", "run-checkerboard-1x2"],
    )
    def test_material_error_exits_2(self, argv, capsys):
        base = ["--nx", "8", "--sub", "2x2", "--E", "1"]
        code = main([argv[0], *base, *argv[1:]])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "arg", [["--kappa", "nan"], ["--E", "inf"], ["--alpha", "nan"], ["--tol", "-1"], ["--ritz-threshold", "2"]],
        ids=["kappa-nan", "E-inf", "alpha-nan", "tol-negative", "ritz-threshold-2"],
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
        "config-ritz-drop-negative": {"ritz_drop_threshold": -0.1},
        "config-ritz-drop-one": {"ritz_drop_threshold": 1.0},
    }

    @pytest.mark.parametrize(
        "argv",
        [["sweep", "--axis", "nx=abc"], ["sweep", "--axis", "nu=x"], ["sweep", "--axis", "subdomains=4"],
         ["sweep", "--axis", "reorthogonalize=1,0"], ["fit", "--ratios", "a,b"], ["run", "--config", "missing.json"], ["run", "--config", "malformed.json"],
         ["run", "--config", "pair.json"], *(["run", "--config", f"{name}.json"] for name in TYPED_CONFIGS),
         # JSON that is no object
         ["run", "--config", "number.json"], ["run", "--config", "null.json"], ["run", "--config", "string.json"],
         # names that are no configuration field, or the black-cell dict itself
         ["sweep", "--axis", "H_over_h=2,4"], ["sweep", "--axis", "to_dict=1"],
         ["sweep", "--pattern", "checkerboard", "--axis", "black=1"],
         # a black-cell override or an axis without "="
         ["run", "--black", "E"], ["sweep", "--axis", "nx"]],
        ids=["axis-int", "axis-float", "axis-pair", "axis-bool", "fit-ratios", "config-missing", "config-malformed", "config-pair",
             *TYPED_CONFIGS, "config-number", "config-null", "config-string", "axis-property", "axis-method", "axis-black",
             "black-no-value", "axis-no-values"],
    )
    def test_unparsable_input_exits_2(self, argv, tmp_path, capsys):
        (tmp_path / "malformed.json").write_text('{"nx": 8,')
        (tmp_path / "pair.json").write_text('{"subdomains": "2x2"}')
        for name, text in (("number", "5"), ("null", "null"), ("string", '"abc"')):
            (tmp_path / f"{name}.json").write_text(text)
        for name, data in self.TYPED_CONFIGS.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(data))
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        assert main([*argv, "--nx", "8", "--E", "1", "--nu", "0.3"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [["run", "--out", "x.csv"], ["run", "--format", "json", "--out", "x.json"],
         ["run", "--residuals", "r.csv"], ["sweep", "--axis", "nx=4", "--out", "x.csv"],
         ["fit", "--ratios", "2,4", "--out", "f.json"]],
        ids=["run-csv", "run-json", "run-residuals", "sweep", "fit"],
    )
    def test_unwritable_output_exits_2(self, argv, tmp_path, capsys):
        # every output path lies in a directory that does not exist
        missing = tmp_path / "missing"
        argv = [str(missing / a) if a.endswith((".csv", ".json")) else a for a in argv]
        assert main([*argv, "--nx", "4", "--sub", "2x2", "--E", "1", "--nu", "0.3"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot write {missing}")

    def test_ny_is_no_input(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"nx": 8, "ny": 8}))
        assert main(["run", "--config", str(path)]) == 2
        assert "unknown configuration keys: ['ny']" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exit_:
            main(["run", *self.BASE, "--ny", "8"])
        assert exit_.value.code == 2
        assert main(["sweep", *self.BASE, "--axis", "ny=4,8"]) == 2
        assert "unknown sweep axis 'ny'" in capsys.readouterr().err

    @pytest.mark.parametrize("axes, name", [
        (["nu=0.3", "nu=0.4"], "nu"),
        (["black.E=10", "black.E=100"], "black.E"),
    ], ids=["nu", "black.E"])
    def test_repeated_sweep_axis_exits_2(self, capsys, axes, name):
        # a repeated axis would silently replace the first: nothing runs
        argv = ["sweep", *self.BASE, "--pattern", "checkerboard"]
        for axis in axes:
            argv += ["--axis", axis]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"error: sweep axis '{name}' given more than once"]

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

    def test_failed_member_check_exits_3(self, monkeypatch, capsys):
        # every subdomain put in subdomain 0's class: the members on the
        # clamped sides lack free dofs at its free ones on the traction side
        monkeypatch.setattr(bd.mesh_fem, "class_representatives", lambda materials, *a: np.zeros(4, dtype=np.int64))
        assert main(["run", *self.BASE]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: internal inconsistency, please report: a class member lacks a free dof of its representative"]

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

    def test_fit_of_one_distinct_ratio_exits_2(self, capsys):
        code = main(["fit", *self.BASE, "--ratios", "2,2"])
        out, err = capsys.readouterr()
        assert code == 2
        assert "eig_max ~" not in out
        assert len(err.splitlines()) == 1 and err.startswith("error:")

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
