"""End-to-end acceptance runs for the decomposed solver.

Every test prints exactly one PASS/FAIL summary line on the real stdout,
so the gate results stay visible in captured logs.  The flagship
large-grid comparison is report-only: its targets come from an external
reference whose mesh and load conventions are not fully pinned down, so
deviations are printed with a discretization fingerprint while only
convergence is enforced.
"""

import itertools
import time

import numpy as np
import pytest

import biot_ddp as bd
from helpers import (
    assembled_pressure_schur,
    assembled_total_pressure_schur,
    dense_from_apply,
    dense_generalized_eigs,
    preconditioned_spectrum,
    weight,
)


@pytest.fixture
def report(request):
    """One visible PASS/FAIL line per gate, bypassing output capture."""
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def _report(ok: bool, name: str, detail: str, extra: list[str] | None = None) -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
        with capman.global_and_fixture_disabled():
            print(line, flush=True)
            for item in extra or []:
                print(f"    {item}", flush=True)
        assert ok, line

    return _report


def test_every_variant_matches_the_direct_solve(report):
    t0 = time.perf_counter()
    worst = 0.0
    n_dofs = 0
    for elem, primal, pc, pattern in itertools.product(
        ("p1", "p0"), ("vertex", "vertex-edge"), ("dirichlet", "lumped"),
        ("uniform", "checkerboard"),
    ):
        cfg = bd.ExperimentConfig(
            nx=12, subdomains=(3, 3), total_pressure=elem, primal=primal,
            multiplier_pc=pc, pattern=pattern, E=1.0, nu=0.3, alpha=1.0, kappa=1.0,
            black={"E": 1e3, "kappa": 1e-3} if pattern == "checkerboard" else {},
            tol=1e-10, oracle="on",
        )
        res = bd.run_case(cfg)
        assert res.converged, (elem, primal, pc, pattern)
        worst = max(worst, max(res.oracle_err))
        n_dofs = max(n_dofs, res.n_dofs)
    wall = time.perf_counter() - t0
    ok = worst <= 1e-7 and n_dofs <= 5000 and wall < 60.0
    report(
        ok,
        "oracle equivalence",
        f"16/16 space-coarse-multiplier-material combinations within 1e-7 "
        f"of the direct solve (worst {worst:.2e}, {n_dofs} dofs, {wall:.1f}s)",
    )


def test_reduced_operator_is_symmetric_positive_definite(report):
    pipe = bd.build_pipeline(
        bd.ExperimentConfig(nx=8, subdomains=(2, 2), E=1.0, nu=0.3, alpha=1.0, kappa=1.0)
    )
    G = dense_from_apply(pipe.reduced.apply, pipe.reduced.n)
    asym = float(np.abs(G - G.T).max())
    eigs = np.linalg.eigvalsh(0.5 * (G + G.T))
    ok = asym <= 1e-10 and eigs.min() > 0.0
    report(
        ok,
        "interface operator SPD",
        f"probed {G.shape[0]}x{G.shape[0]} operator: asymmetry {asym:.2e} <= 1e-10, "
        f"eigenvalues in [{eigs.min():.4f}, {eigs.max():.4f}] all positive",
    )


def test_iterations_flat_as_subdomains_are_added(report):
    # enriched coarse space at a fixed subdomain aspect: the iteration count
    # must not grow with the number of subdomains
    t0 = time.perf_counter()
    iters, emins = [], []
    for g in (2, 3, 4):
        res = bd.run_case(
            bd.ExperimentConfig(
                nx=4 * g, subdomains=(g, g), total_pressure="p0",
                primal="vertex-edge", E=1e6, nu=0.499, oracle="off",
            )
        )
        assert res.converged
        iters.append(res.iterations)
        emins.append(res.eig_min)
    extra = []
    for primal in ("vertex", "vertex-edge"):
        trail = [
            bd.run_case(
                bd.ExperimentConfig(
                    nx=4 * g, subdomains=(g, g), total_pressure="p1",
                    primal=primal, E=1e6, nu=0.499, oracle="off",
                )
            ).iterations
            for g in (2, 3, 4)
        ]
        extra.append(f"p1/{primal} iterations for reference: {trail}")
    wall = time.perf_counter() - t0
    spread = (max(emins) - min(emins)) / min(emins)
    ok = spread < 0.10 and max(iters) - min(iters) <= 2 and wall < 120.0
    report(
        ok,
        "subdomain scalability",
        f"2x2/3x3/4x4 at H/h=4: iterations {iters} (spread {max(iters)-min(iters)} <= 2), "
        f"eig_min spread {100*spread:.1f}% < 10%, {wall:.1f}s",
        extra,
    )


def test_weak_scaling_reported(report):
    # report only: the growth under vertex constraints is a known gap
    # (README); every run must converge
    t0 = time.perf_counter()
    lines = []
    all_converged = True
    for elem, primal in itertools.product(("p1", "p0"), ("vertex", "vertex-edge")):
        cells = []
        for g in (2, 4, 8, 16):
            res = bd.run_case(
                bd.ExperimentConfig(
                    nx=4 * g, subdomains=(g, g), total_pressure=elem,
                    primal=primal, E=1e6, nu=0.499, oracle="off",
                )
            )
            all_converged &= res.converged
            cells.append(f"{g}x{g} {res.iterations} / {res.eig_max:.2f}")
        lines.append(f"{elem}/{primal}: " + ", ".join(cells))
    report(
        all_converged,
        "weak scaling (report only)",
        f"iterations / eig_max at H/h=4, nu=0.499; convergence enforced, {time.perf_counter() - t0:.1f}s",
        lines,
    )


def test_spectrum_grows_polylog_in_subdomain_size(report):
    t0 = time.perf_counter()
    ratios, emax, emin = [], [], []
    for hh in (2, 4, 8, 16):
        res = bd.run_case(
            bd.ExperimentConfig(
                nx=3 * hh, subdomains=(3, 3), E=1.0, nu=0.3, alpha=1.0, kappa=1.0,
                tol=1e-12, reorthogonalize=True, oracle="off",
            )
        )
        assert res.converged
        ratios.append(float(hh))
        emax.append(res.eig_max)
        emin.append(res.eig_min)
    fit = bd.fit_polylog(ratios, emax)
    mid = 0.5 * (max(emin) + min(emin))
    band = (max(emin) - min(emin)) / (2.0 * mid)
    wall = time.perf_counter() - t0
    ok = fit["R2"] >= 0.9 and band <= 0.15 and wall < 300.0
    report(
        ok,
        "polylog growth",
        f"H/h in (2,4,8,16): eig_max ~ {fit['C1']:.3f} + {fit['C2']:.3f}(1+log(H/h))^2 "
        f"with R2={fit['R2']:.4f} >= 0.9, eig_min band +-{100*band:.1f}% <= 15%, {wall:.1f}s",
    )


FLAGSHIP_TARGETS = {
    # reference values for the flagship 192-cell 16x16 configuration;
    # matching them is desirable, convergence is the requirement
    "p1": {"iter": 28, "eig_min": 0.1999, "eig_max": 4.0134},
    "p0": {"iter": 22, "eig_min": 0.2911, "eig_max": 3.6703},
}


def test_flagship_grid_reported_against_reference_targets(report):
    lines = []
    all_converged = True
    for elem, target in FLAGSHIP_TARGETS.items():
        cfg = bd.ExperimentConfig(
            nx=192, subdomains=(16, 16), total_pressure=elem, primal="vertex",
            E=1e6, nu=0.499, oracle="off",
        )
        res = bd.run_case(cfg)
        all_converged &= res.converged
        it_dev = abs(res.iterations - target["iter"]) / target["iter"]
        lo_dev = abs(res.eig_min - target["eig_min"])
        hi_dev = abs(res.eig_max - target["eig_max"]) / target["eig_max"]
        marks = (
            "in" if it_dev <= 0.20 else "OUT",
            "in" if lo_dev <= 0.05 else "OUT",
            "in" if hi_dev <= 0.25 else "OUT",
        )
        lines.append(
            f"{elem}/vertex: iter {res.iterations} vs {target['iter']} "
            f"({100*it_dev:.0f}% dev, {marks[0]} band +-20%); "
            f"eig_min {res.eig_min:.4f} vs {target['eig_min']} "
            f"({lo_dev:.4f} dev, {marks[1]} band +-0.05); "
            f"eig_max {res.eig_max:.4f} vs {target['eig_max']} "
            f"({100*hi_dev:.0f}% dev, {marks[2]} band +-25%)"
        )
        lines.append(
            f"  fingerprint: {cfg.nx}x{cfg.nx} cells, {cfg.subdomains[0]}x{cfg.subdomains[1]} "
            f"subdomains, H/h={cfg.H_over_h}, elem={elem}, bc={cfg.bc}, "
            f"load=(gravity {cfg.body_force}, source {cfg.source}), tol={cfg.tol}, "
            f"{res.n_dofs} dofs, {res.n_interface} interface unknowns"
        )
    report(
        all_converged,
        "flagship benchmark (report only)",
        "targets compared below; deviations logged, convergence enforced",
        lines,
    )


def test_insensitive_to_coupling_and_permeability_jumps(report):
    base = dict(
        nx=32, subdomains=(4, 4), E=1.0, nu=0.49, pattern="checkerboard", oracle="off"
    )
    alpha_runs = [
        bd.run_case(bd.ExperimentConfig(**base, black={"alpha": a}))
        for a in (1e-2, 1e-6, 1e-10)
    ]
    a_iters = [r.iterations for r in alpha_runs]
    lo = [r.eig_min for r in alpha_runs]
    hi = [r.eig_max for r in alpha_runs]
    eig_dev = max(max(lo) - min(lo), max(hi) - min(hi))
    uniform = bd.run_case(
        bd.ExperimentConfig(nx=32, subdomains=(4, 4), E=1.0, nu=0.49, oracle="off")
    )
    kappa_iters = [
        bd.run_case(bd.ExperimentConfig(**base, black={"kappa": k})).iterations
        for k in (1e-1, 1e-5, 1e-9)
    ]
    ok = (
        max(a_iters) - min(a_iters) <= 1
        and eig_dev <= 1e-3
        and max(kappa_iters) <= 1.5 * uniform.iterations
    )
    report(
        ok,
        "coefficient jump robustness",
        f"alpha 1e-2..1e-10: iterations {a_iters} (within +-1), eigenvalue drift "
        f"{eig_dev:.1e} <= 1e-3; kappa 1e-1..1e-9: iterations {kappa_iters} vs "
        f"uniform {uniform.iterations} (<= 1.5x)",
    )


def test_bounded_under_stiffness_jumps(report):
    # a checkerboard of softer black cells, E contrast 1e1..1e4; the jump
    # scaling gives each broken copy its neighbour's weight, without which
    # the 1e3 contrast took 422 iterations at nu=0.499
    factor = {0.3: 1.5, 0.499: 4.0}
    lines, ok = [], True
    for nu, limit in factor.items():
        base = dict(nx=12, subdomains=(3, 3), E=1e6, nu=nu, oracle="off")
        uniform = bd.run_case(bd.ExperimentConfig(**base))
        runs = [
            bd.run_case(bd.ExperimentConfig(**base, pattern="checkerboard", black={"E": 1e6 / c}))
            for c in (1e1, 1e2, 1e3, 1e4)
        ]
        iters = [r.iterations for r in runs]
        ok = ok and uniform.converged and all(r.converged for r in runs)
        ok = ok and max(iters) <= limit * uniform.iterations
        lines.append(
            f"nu={nu}: iterations {iters} vs uniform {uniform.iterations} (<= {limit}x), "
            f"eig_max {max(r.eig_max for r in runs):.3f}"
        )
    report(ok, "stiffness jump robustness", "E contrast 1e1..1e4 on 3x3 at H/h=4; " + "; ".join(lines))


def test_incompressible_limit_detected_and_filtered(report):
    raws, valids, iters, dropped = [], [], [], []
    for nu in (0.49, 0.4999, 0.49999):
        res = bd.run_case(
            bd.ExperimentConfig(
                nx=48, subdomains=(4, 4), bc="dirichlet", E=1e6, nu=nu,
                tol=1e-10, reorthogonalize=True, ritz_drop_threshold=0.2,
                oracle="off",
            )
        )
        assert res.converged
        raws.append(res.eig_min)
        valids.append(res.valid_eig_min)
        iters.append(res.iterations)
        dropped.append(res.dropped_modes)
    decreasing = raws[0] > raws[1] > raws[2]
    band = max(abs(v - valids[0]) / valids[0] for v in valids)
    growth = max(iters) - iters[0]
    ok = decreasing and band <= 0.20 and growth <= 15
    report(
        ok,
        "incompressible limit",
        f"nu 0.49/0.4999/0.49999: raw minimum {raws[0]:.2e}/{raws[1]:.2e}/{raws[2]:.2e} "
        f"strictly decreasing, filtered minimum {valids[0]:.4f}/{valids[1]:.4f}/{valids[2]:.4f} "
        f"within +-20% of first ({100*band:.1f}%), iterations {iters} grow by {growth} <= 15, "
        f"modes dropped {dropped}",
    )


def test_operator_identities_and_subsystem_bounds(report):
    # saddle inequality on random vectors
    mesh = bd.build_mesh(8, (2, 2))
    bc = bd.BoundarySpec.neumann_left()
    mats = bd.MaterialField.uniform((2, 2), E=2.0, nu=0.25, alpha=0.7, kappa=3.0)
    min_ratio = None
    violations = 0
    for variant in ("p1", "p0"):
        spaces = bd.build_spaces(mesh, variant, bc)
        system = bd.assemble_blocks(spaces, mats, bd.LoadSpec())
        rep = bd.check_saddle_inequalities(system, trials=1000, seed=11)
        violations += rep.violations
        min_ratio = rep.min_ratio if min_ratio is None else min(min_ratio, rep.min_ratio)

    # transfer identities on a contrasted pipeline
    pipe = bd.build_pipeline(
        bd.ExperimentConfig(
            nx=8, subdomains=(2, 2), E=1.0, nu=0.3, alpha=1.0, kappa=1.0,
            pattern="checkerboard", black={"E": 1e3, "kappa": 1e-2},
        )
    )
    cls, sc, jump, rs = pipe.cls, pipe.scalings, pipe.jump, pipe.restrictions
    pou_exact = all(
        sum(weight(sc, "u", int(d), int(s)) for s in pr) == 1.0
        for d, pr in zip(cls.u.dual, cls.u.dual_rows.sub.reshape(-1, 2))
    )
    bbd = float(
        np.abs((jump.unit.T @ jump.scaled).toarray() - np.eye(jump.unit.T.shape[0])).max()
    )
    rng = np.random.default_rng(0)
    xg = rng.standard_normal(cls.xi.interface.size)
    pg = rng.standard_normal(cls.p.interface.size)
    transfer = max(
        float(np.abs(rs["xi"].scaled.T @ (rs["xi"].unit @ xg) - xg).max()),
        float(np.abs(rs["p"].scaled.T @ (rs["p"].unit @ pg) - pg).max()),
    )

    # Ritz extremes against the dense preconditioned spectrum
    res = bd.run_case(
        bd.ExperimentConfig(
            nx=8, subdomains=(2, 2), E=1.0, nu=0.3, alpha=1.0, kappa=1.0,
            tol=1e-13, reorthogonalize=True,
        ),
        pipe=None,
    )
    ref_pipe = bd.build_pipeline(
        bd.ExperimentConfig(nx=8, subdomains=(2, 2), E=1.0, nu=0.3, alpha=1.0, kappa=1.0)
    )
    G = dense_from_apply(ref_pipe.reduced.apply, ref_pipe.reduced.n)
    Minv = dense_from_apply(ref_pipe.preconditioner.apply, ref_pipe.reduced.n)
    dense = dense_generalized_eigs(G, Minv)
    ritz_dev = max(
        abs(res.eig_min - dense.min()) / dense.min(),
        abs(res.eig_max - dense.max()) / dense.max(),
    )

    # scaled subsystem solvers sit above one half of their Schur complements
    xi_eigs = preconditioned_spectrum(
        ref_pipe.preconditioner.xi.apply, assembled_total_pressure_schur(ref_pipe)
    )
    p_eigs = preconditioned_spectrum(
        ref_pipe.preconditioner.pressure.apply, assembled_pressure_schur(ref_pipe)
    )
    sub_min = min(xi_eigs.min(), p_eigs.min())

    ok = (
        min_ratio >= 1.0
        and violations == 0
        and pou_exact
        and bbd == 0.0
        and transfer <= 1e-13
        and ritz_dev <= 1e-4
        and sub_min >= 0.5
    )
    report(
        ok,
        "identities and bounds",
        f"saddle inequality min ratio {min_ratio:.3f} >= 1 on 2000 vectors; "
        f"interface weights sum to one bitwise; jump pseudo-inverse identity "
        f"max dev {bbd:.1e}; break/average round trip {transfer:.1e} <= 1e-13; "
        f"Ritz extremes within {ritz_dev:.1e} of the dense spectrum (<= 1e-4); "
        f"subsystem spectra >= {sub_min:.3f} (bound 0.5)",
    )
