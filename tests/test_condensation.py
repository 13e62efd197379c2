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
from biot_ddp import reduced_system
from biot_ddp.decomposition import _CONGRUENCE_RTOL
from helpers import broken_offsets, by_subdomain

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
    assert pipe.reduced.condensed is not None, "the pay-back rule should condense the torn block here"
    assert all(isinstance(c.S, np.ndarray) for c in pipe.preconditioner.multiplier.classes)
    return pipe


def local_solve_apply(red, v):
    """The operator through the local factors, as applied when not condensed."""
    return red.B_C @ red.apply_torn_inverse(red.B_C_T @ v) + red.C_hat @ v


@pytest.mark.parametrize("elem, primal, bc, checkerboard", VARIANTS)
def test_condensed_apply_matches_local_solves(elem, primal, bc, checkerboard):
    red = condensed_pipeline(elem, primal, bc, checkerboard).reduced
    assert len(red.condensed.classes) == len(red.factors) == (14 if checkerboard else 9)
    V = np.random.default_rng(7).standard_normal((red.n, 3))
    for v in V.T:
        ref = local_solve_apply(red, v)
        assert np.linalg.norm(red.apply(v) - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("elem, primal, bc, checkerboard", VARIANTS)
def test_every_member_couples_like_its_representative(elem, primal, bc, checkerboard):
    red = condensed_pipeline(elem, primal, bc, checkerboard).reduced
    B_C = red.B_C.tocsc()
    for c, cc in zip(red.factors.values(), red.condensed.classes):
        assert cc.idx.shape[1] == c.idx.shape[1]
        cols = [B_C[:, c.idx[:, j]].tocsr() for j in range(c.idx.shape[1])]
        B0 = cols[0][cc.idx[:, 0]].toarray()
        np.testing.assert_allclose(cc.X, B0 @ c.X, rtol=0, atol=1e-12 * np.abs(cc.X).max(initial=1.0))
        for j, Bj in enumerate(cols):
            on_rows = Bj[cc.idx[:, j]]
            assert on_rows.nnz == Bj.nnz  # no coupling outside the member's rows
            assert np.abs(on_rows.toarray() - B0).max() <= _CONGRUENCE_RTOL * np.abs(B0).max()


@pytest.mark.parametrize("elem, primal, bc, checkerboard", VARIANTS)
def test_derived_torn_maps_match_their_own(elem, primal, bc, checkerboard):
    # only the source classes solve for F; each other class derives it from
    # its source's by a dense Schur step, and must find its own
    red = condensed_pipeline(elem, primal, bc, checkerboard).reduced
    assert 0 < red.condensed.sources < len(red.condensed.classes)
    B_C = red.B_C.tocsc()
    for c, cc in zip(red.factors.values(), red.condensed.classes):
        B0 = B_C[:, c.idx[:, 0]][cc.idx[:, 0]]
        own = B0 @ c.factor.solve(B0.T.toarray())
        F = cc.S[: cc.idx.shape[0]]
        assert F.shape == own.shape
        assert np.abs(F - own).max() <= 1e-13 * np.abs(own).max()


def flagship_like():
    return bd.ExperimentConfig(nx=24, subdomains=(6, 6), E=1e6, nu=0.499, oracle="off")


def test_flagship_like_grid_derives_seven_of_nine_torn_maps():
    pipe = bd.build_pipeline(flagship_like())
    groups = pipe.system.classes("ABCDE")
    visits = reduced_system.class_sources(pipe.system, groups, "ABCDE", ("u", "p"))
    # the interior class and the free left edge solve; every other class
    # differs from one of them only by Dirichlet sides
    assert sorted(groups[i][0] for i, src in visits if src is None) == [6, 7]
    assert sorted(groups[src][0] for _, src in visits if src is not None) == [6, 6, 7, 7, 7, 7, 7]
    assert pipe.reduced.condensed.sources == 2 and len(pipe.reduced.condensed.classes) == 9
    assert pipe.blocks["torn"].sources == 2


@pytest.mark.parametrize("nx, elem, bc", [(3, "p1", "neumann-left"), (4, "p0", "dirichlet"), (6, "p1", "neumann-left")])
def test_edge_averages_at_one_cell_per_subdomain(monkeypatch, nx, elem, bc):
    # at H/h = 1 the edge average is an edge's only interior displacement
    # node, so a derived class that is Dirichlet where its source is not
    # eliminates no row; condensed and local-solve runs must agree
    cfg = bd.ExperimentConfig(nx=nx, subdomains=(nx, nx), total_pressure=elem, primal="vertex-edge", bc=bc,
                              E=1.0, nu=0.3)
    condensed = bd.run_case(cfg)
    monkeypatch.setattr(reduced_system, "_PAYBACK_APPLIES", -1)
    pipe = bd.build_pipeline(cfg)
    assert pipe.reduced.condensed is None
    local = bd.run_case(cfg, pipe)
    assert condensed.converged and local.converged
    assert condensed.iterations == local.iterations
    assert max(condensed.oracle_err) < 1e-7 and max(local.oracle_err) < 1e-7


@pytest.mark.parametrize("change, why", [
    ("kept", "a kept unknown is not kept by the class of subdomain 7"),
    ("eliminated", "its eliminated rows do not match the class of subdomain 7"),
])
def test_unmatched_torn_rows_rejected(monkeypatch, change, why):
    # subdomain 1 (the bottom edge, a class of 4) derives from the interior
    # class of subdomain 7
    derive_schur = reduced_system.derive_schur

    def changed(name, src, S, kept, want, eliminable):
        if name.startswith("subdomain 1 "):
            want = np.concatenate([[-3], want[1:]]) if change == "kept" else want[1:]
        return derive_schur(name, src, S, kept, want, eliminable)

    monkeypatch.setattr(reduced_system, "derive_schur", changed)
    with pytest.raises(bd.InternalError, match=rf"^subdomain 1 \(class of 4\): {why}$"):
        bd.build_pipeline(flagship_like())


def dirichlet_apply(pipe, s, T):
    """Subdomain s's elastic Dirichlet Schur complement applied matrix-free,
    A_DD T - A_DI A_II^-1 A_ID T, with SciPy's default sparse LU."""
    lb, cls = pipe.system.local[s], pipe.cls
    iD, iI = (lb.pos("u", by_subdomain(r, cls.n_subdomains)[s]) for r in (cls.u.dual_rows, cls.u.interior))
    A = lb.A.tocsr()
    return A[iD][:, iD] @ T - A[iD][:, iI] @ spla.splu(A[iI][:, iI].tocsc()).solve(A[iI][:, iD] @ T)


@pytest.mark.parametrize("elem, primal", [("p1", "vertex"), ("p0", "vertex-edge")])
def test_dense_dirichlet_blocks_match_matrix_free_apply(elem, primal):
    pipe = condensed_pipeline(elem, primal, "neumann-left", True)
    n_sub = pipe.cls.n_subdomains
    dual_offset = broken_offsets(pipe.cls.u.dual_rows, n_sub)
    rng = np.random.default_rng(3)
    for c in pipe.preconditioner.multiplier.classes:
        for j in range(c.idx.shape[1]):
            s = int(np.searchsorted(dual_offset, c.idx[0, j], side="right") - 1)
            T = rng.standard_normal((c.idx.shape[0], 2))
            ref = dirichlet_apply(pipe, s, T)
            assert np.linalg.norm(c.S @ T - ref) <= 1e-12 * np.linalg.norm(ref)
    # and the whole block: scaled jumps through every subdomain's map
    J = pipe.jump.scaled.T
    r = rng.standard_normal(pipe.cls.u.dual.size)
    x = J.T @ r
    y = np.concatenate([dirichlet_apply(pipe, s, x[dual_offset[s] : dual_offset[s + 1]])
                        for s in range(n_sub)])
    ref = J @ y
    assert np.linalg.norm(pipe.preconditioner.multiplier.apply(r) - ref) <= 1e-13 * np.linalg.norm(ref)


def test_payback_rule_keeps_large_classes_sparse():
    # 3x3 at H/h=16: nine torn classes of one member each, whose
    # condensation would solve far more columns than the iterations save;
    # the λ Dirichlet block is condensed all the same
    pipe = bd.build_pipeline(bd.ExperimentConfig(nx=48, subdomains=(3, 3), E=1.0, nu=0.3))
    red = pipe.reduced
    assert red.condensed is None
    assert all(isinstance(c.S, np.ndarray) and c.factor is None for c in pipe.preconditioner.multiplier.classes)
    v = np.random.default_rng(1).standard_normal(red.n)
    assert np.array_equal(red.apply(v), local_solve_apply(red, v))
    # 8x8 at H/h=8: nine classes serve 64 subdomains
    pipe = bd.build_pipeline(bd.ExperimentConfig(nx=64, subdomains=(8, 8)))
    assert len(pipe.reduced.condensed.classes) == 9
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
    assert pipe.reduced.condensed is not None
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
    blocks = (red.condensed.classes, pc.xi.classes, pc.pressure.classes, pc.multiplier.classes)
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
