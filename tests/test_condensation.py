"""Condensed application of the reduced operator and of the λ Dirichlet block.

When few congruence classes serve many subdomains, each torn class is
condensed once onto its members' interface rows (F = B_0 K_rr^-1 B_0^T,
Psi = B_0 X), and every application is a few dense products.  Each λ
Dirichlet class is always condensed into its dense Schur complement.
These tests check the condensed applications against the local-solve
path they replace and against references built here, the assumption that
lets one representative stand for its class (every member's coupling
equals its representative's), the pay-back rule that decides when to
condense the torn block, and that a traced condensed run makes its local
solves only in the right-hand side and the recovery.
"""

import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import biot_ddp as bd
from biot_ddp.decomposition import _CONGRUENCE_RTOL

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from tracing import MODULE_CALLS, Tracer, instrument_modules, instrument_pipeline, layer_metrics  # noqa: E402
from workloads import experiment_config  # noqa: E402

VARIANTS = list(
    itertools.product(("p1", "p0"), ("vertex", "vertex-edge"), ("neumann-left", "dirichlet"), (False, True))
)


def condensed_pipeline(elem, primal, bc, checkerboard):
    """6x6 subdomains at H/h=4, a grid on which both blocks condense; the
    checkerboard differs only in alpha, which splits the classes."""
    extra = dict(pattern="checkerboard", black={"alpha": 1e-2}) if checkerboard else {}
    pipe = bd.build_pipeline(
        bd.ExperimentConfig(nx=24, subdomains=(6, 6), total_pressure=elem, primal=primal, bc=bc, **extra)
    )
    assert pipe.reduced.condensed, "the pay-back rule should condense the torn block here"
    assert all(isinstance(c.S, np.ndarray) for c in pipe.preconditioner.multiplier.classes)
    return pipe


def local_solve_apply(red, v):
    """The operator through the local factors, as applied when not condensed."""
    return red.B_C @ red.apply_torn_inverse(red.B_C_T @ v) + red.C_hat @ v


@pytest.mark.parametrize("elem, primal, bc, checkerboard", VARIANTS)
def test_condensed_apply_matches_local_solves(elem, primal, bc, checkerboard):
    red = condensed_pipeline(elem, primal, bc, checkerboard).reduced
    assert len(red.condensed) == len(red.factors) == (14 if checkerboard else 9)
    V = np.random.default_rng(7).standard_normal((red.n, 3))
    for v in V.T:
        ref = local_solve_apply(red, v)
        assert np.linalg.norm(red.apply(v) - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("elem, primal, bc, checkerboard", VARIANTS)
def test_every_member_couples_like_its_representative(elem, primal, bc, checkerboard):
    red = condensed_pipeline(elem, primal, bc, checkerboard).reduced
    B_C = red.B_C.tocsc()
    for c, cc in zip(red.factors.values(), red.condensed):
        assert cc.idx.shape[1] == c.idx.shape[1]
        cols = [B_C[:, c.idx[:, j]].tocsr() for j in range(c.idx.shape[1])]
        B0 = cols[0][cc.idx[:, 0]].toarray()
        np.testing.assert_allclose(cc.X, B0 @ c.X, rtol=0, atol=1e-12 * np.abs(cc.X).max(initial=1.0))
        for j, Bj in enumerate(cols):
            on_rows = Bj[cc.idx[:, j]]
            assert on_rows.nnz == Bj.nnz  # no coupling outside the member's rows
            assert np.abs(on_rows.toarray() - B0).max() <= _CONGRUENCE_RTOL * np.abs(B0).max()


def dirichlet_apply(pipe, s, T):
    """Subdomain s's elastic Dirichlet Schur complement applied matrix-free,
    A_DD T - A_DI A_II^-1 A_ID T, with SciPy's default sparse LU."""
    lb, cls = pipe.system.local[s], pipe.cls
    iD, iI = lb.u_pos(cls.u_sub_dual[s]), lb.u_pos(cls.u_interior[s])
    A = lb.A.tocsr()
    return A[iD][:, iD] @ T - A[iD][:, iI] @ spla.splu(A[iI][:, iI].tocsc()).solve(A[iI][:, iD] @ T)


@pytest.mark.parametrize("elem, primal", [("p1", "vertex"), ("p0", "vertex-edge")])
def test_dense_dirichlet_blocks_match_matrix_free_apply(elem, primal):
    pipe = condensed_pipeline(elem, primal, "neumann-left", True)
    lay = pipe.cls.layout
    rng = np.random.default_rng(3)
    for c in pipe.preconditioner.multiplier.classes:
        for j in range(c.idx.shape[1]):
            s = int(np.searchsorted(lay.dual_offset, c.idx[0, j], side="right") - 1)
            T = rng.standard_normal((c.idx.shape[0], 2))
            ref = dirichlet_apply(pipe, s, T)
            assert np.linalg.norm(c.S @ T - ref) <= 1e-12 * np.linalg.norm(ref)
    # and the whole block: scaled jumps through every subdomain's map
    J = pipe.jump.jump_scaled
    r = rng.standard_normal(lay.n_lambda)
    x = J.T @ r
    y = np.concatenate([dirichlet_apply(pipe, s, x[lay.dual_offset[s] : lay.dual_offset[s + 1]])
                        for s in range(lay.n_sub)])
    ref = J @ y
    assert np.linalg.norm(pipe.preconditioner.multiplier.apply(r) - ref) <= 1e-13 * np.linalg.norm(ref)


def test_payback_rule_keeps_large_classes_sparse():
    # 3x3 at H/h=16: nine torn classes of one member each, whose
    # condensation would solve far more columns than the iterations save;
    # the λ Dirichlet block is condensed all the same
    pipe = bd.build_pipeline(bd.ExperimentConfig(nx=48, subdomains=(3, 3), E=1.0, nu=0.3))
    red = pipe.reduced
    assert red.condensed == []
    assert all(isinstance(c.S, np.ndarray) and c.factor is None for c in pipe.preconditioner.multiplier.classes)
    v = np.random.default_rng(1).standard_normal(red.n)
    assert np.array_equal(red.apply(v), local_solve_apply(red, v))
    # 8x8 at H/h=8: nine classes serve 64 subdomains
    pipe = bd.build_pipeline(bd.ExperimentConfig(nx=64, subdomains=(8, 8)))
    assert len(pipe.reduced.condensed) == 9
    assert all(isinstance(c.S, np.ndarray) and c.factor is None for c in pipe.preconditioner.multiplier.classes)


def test_traced_condensed_run_solves_locally_only_in_rhs_and_recover(monkeypatch):
    for module, calls in MODULE_CALLS.items():
        mod = getattr(bd, module)
        for attr in calls:  # put the originals back after the test
            monkeypatch.setattr(mod, attr, getattr(mod, attr))
    tracer = Tracer()
    instrument_modules(tracer, bd)
    cfg = bd.ExperimentConfig(**experiment_config("flagship-p1-nx64", 1))
    pipe = bd.build_pipeline(cfg)
    assert pipe.reduced.condensed
    instrument_pipeline(tracer, pipe)
    assert bd.run_case(cfg, pipe).converged

    spans = tracer.spans
    for name, _, _, parent in spans:
        if name != "reduced_system.local_solve":
            continue
        chain = []
        while parent >= 0:
            chain.append(spans[parent][0])
            parent = spans[parent][3]
        assert "reduced_system.torn_solve" in chain
        assert {"reduced_system.rhs", "reduced_system.recover"} & set(chain)
        assert "reduced_system.apply" not in chain
    metrics = layer_metrics(spans, pipe)
    assert metrics["reduced_system.factor_count"] == (9, "count")
    assert metrics["reduced_system.local_solve_count"] == (2 * 9, "count")  # one solve each in rhs and recover
    assert metrics["reduced_system.apply_count"][0] > 18


def test_run_record_lists_condensed_blocks(tmp_path):
    cfg = bd.ExperimentConfig(nx=24, subdomains=(6, 6), oracle="off")
    pipe = bd.build_pipeline(cfg)
    res = bd.run_case(cfg, pipe)
    assert res.condensed == ["torn", "xi", "p", "lambda"]
    red, pc = pipe.reduced, pipe.preconditioner
    blocks = (red.condensed, pc.xi.classes, pc.pressure.classes, pc.multiplier.classes)
    want = sum(c.S.nbytes for classes in blocks for c in classes)
    assert res.condensed_bytes == want > 0
    # the preconditioner factors are dropped once condensed, the torn ones kept
    assert all(c.factor is None for classes in blocks[1:] for c in classes)
    assert res.factor_nnz == sum(c.factor.nnz for c in red.factors.values())
    path = tmp_path / "out.json"
    bd.write_json([res], str(path))
    entry = json.loads(path.read_text())[0]
    assert entry["condensed"] == ["torn", "xi", "p", "lambda"] and entry["condensed_bytes"] == want
    assert "condensed" not in res.row()
