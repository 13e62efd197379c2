"""Condensed application of the reduced operator and of the λ Dirichlet block.

When few congruence classes serve many subdomains, each torn class is
condensed once onto its members' interface rows (F = B_0 K_rr^-1 B_0^T,
Psi = B_0 X), and every application is a few dense products.  Each λ
Dirichlet class is always condensed into its dense Schur complement.
These tests check the condensed applications, and the same maps applied
through the torn factors, against the local-solve path and against
references built here, the assumption that
lets one representative stand for its class (every member's coupling
equals its representative's), the pay-back rule that decides when to
condense the torn block, and that a traced condensed run makes its local
solves only in the right-hand side and the recovery.  A derived torn class
solves through its source's factor: its block is the source's bordered
block restricted, its solves match a factor of its own, one that fails the
probe factors its own block, and a run that is not condensed borrows
nothing.  A class whose free side stands where its source has an
interface side, which only a field without edge averages allows, derives
its torn map, its borrowed solve and its xi, p and λ Schur complements
across that side, and each must match its own.
"""

import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import biot_ddp as bd
from biot_ddp import preconditioner, reduced_system
from biot_ddp.mesh_fem import FIELD_BLOCK
from helpers import (
    broken_offsets, by_subdomain, interface_coupling, is_condensed, local_index_sets, local_solve_apply, local_view,
    record_torn_columns, schur_inputs, sliced_bmat_saddle,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from tracing import MODULE_CALLS, Tracer, instrument_modules, instrument_pipeline, layer_metrics  # noqa: E402
from workloads import experiment_config  # noqa: E402

VARIANTS = list(
    itertools.product(("p1", "p0"), ("vertex", "vertex-edge"), ("neumann-left", "dirichlet"), (False, True))
)


def condensed_pipeline(elem, primal, bc, checkerboard, condense=True):
    """6x6 subdomains at H/h=4, a grid on which both blocks condense; the
    checkerboard differs only in alpha, which splits the classes.  With
    ``condense`` False the caller has forced the torn block not to
    (``_PAYBACK_APPLIES`` = -1)."""
    extra = dict(pattern="checkerboard", black={"alpha": 1e-2}) if checkerboard else {}
    pipe = bd.build_pipeline(
        bd.ExperimentConfig(nx=24, subdomains=(6, 6), total_pressure=elem, primal=primal, bc=bc, **extra)
    )
    assert is_condensed(pipe.reduced) == condense, "the pay-back rule should condense the torn block here"
    assert all(isinstance(c.S, np.ndarray) for c in pipe.preconditioner.multiplier.classes)
    return pipe


@pytest.mark.parametrize("condense", [True, False])
@pytest.mark.parametrize("elem, primal, bc, checkerboard", VARIANTS)
def test_condensed_apply_matches_local_solves(monkeypatch, elem, primal, bc, checkerboard, condense):
    # forced not to condense, each class applies the same map through its
    # torn factor
    if not condense:
        monkeypatch.setattr(reduced_system, "_PAYBACK_APPLIES", -1)
    red = condensed_pipeline(elem, primal, bc, checkerboard, condense).reduced
    assert len(red.interface.classes) == len(red.factors) == (14 if checkerboard else 9)
    V = np.random.default_rng(7).standard_normal((red.n, 3))
    for v in V.T:
        ref = local_solve_apply(red, v)
        assert np.linalg.norm(red.apply(v) - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("elem, primal, bc, checkerboard", VARIANTS)
def test_every_member_couples_like_its_representative(elem, primal, bc, checkerboard):
    pipe = condensed_pipeline(elem, primal, bc, checkerboard)
    red = pipe.reduced
    B_C = interface_coupling(red)[0].tocsc()
    for g, c, cc in zip(pipe.system.classes("ABCDE"), red.factors.values(), red.interface.classes):
        assert cc.idx.shape[1] == c.idx.shape[1]
        cols = [B_C[:, c.idx[:, j]].tocsr() for j in range(c.idx.shape[1])]
        B0 = cols[0][cc.idx[:, 0]].toarray()
        # the representative's own trace rows over its primal unknowns (B_C
        # sums its neighbours' there), zero on the λ rows
        M, sets, _ = own_saddle(pipe, g[0])
        n_G, n_r = sets["xiG"].size + sets["pG"].size, c.idx.shape[0]
        B0P = np.zeros((B0.shape[0], c.primal.shape[0]))
        B0P[:n_G] = M[-n_G:, n_r : n_r + c.primal.shape[0]].toarray()
        np.testing.assert_allclose(cc.X, B0 @ c.X - B0P, rtol=0, atol=1e-12 * np.abs(cc.X).max(initial=1.0))
        for j, Bj in enumerate(cols):
            on_rows = Bj[cc.idx[:, j]]
            assert on_rows.nnz == Bj.nnz  # no coupling outside the member's rows
            assert np.array_equal(on_rows.toarray(), B0)


@pytest.mark.parametrize("elem, primal, bc, checkerboard", VARIANTS)
def test_derived_torn_maps_match_their_own(elem, primal, bc, checkerboard):
    # only the source classes solve for F; each other class derives its map
    # from its source's by a dense Schur step, and must find its own F - D_c
    pipe = condensed_pipeline(elem, primal, bc, checkerboard)
    red = pipe.reduced
    assert 0 < red.interface.sources < len(red.interface.classes)
    B_C = interface_coupling(red)[0].tocsc()
    for g, c, cc in zip(pipe.system.classes("ABCDE"), red.factors.values(), red.interface.classes):
        B0 = B_C[:, c.idx[:, 0]][cc.idx[:, 0]]
        own = B0 @ c.factor.solve(B0.T.toarray()) - trace_block(pipe, g[0], B0.shape[0])
        F = cc.S[: cc.idx.shape[0]]
        assert F.shape == own.shape
        assert np.abs(F - own).max() <= 1e-13 * np.abs(own).max()


def derived_classes(pipe, names="ABCDE", fields=("u", "p")):
    """(class index, its source's) of every class of the local blocks
    ``names`` that derives its map; by default the torn ones."""
    groups = pipe.system.classes(names)
    visits = reduced_system.class_sources(pipe.system, pipe.cls, groups, names, fields)
    return [(i, src) for i, src in visits if src is not None]


def across_free_sides(pipe, names="ABCDE", fields=("u", "p")):
    """The derived classes of ``derived_classes`` with a free side where
    their source has an interface side."""
    groups = pipe.system.classes(names)
    kinds = reduced_system._side_kinds(pipe.system, fields)[[g[0] for g in groups]]
    return [(i, src) for i, src in derived_classes(pipe, names, fields)
            if np.any((kinds[i] == "free") & (kinds[src] == "interface"))]


def trace_block(pipe, s, n):
    """Subdomain s's trace block D_c, bordered by zero λ rows and columns
    to n x n: the trace terms a condensed map holds, F - D_c."""
    M, sets, _ = own_saddle(pipe, s)
    n_G = sets["xiG"].size + sets["pG"].size
    D = np.zeros((n, n))
    D[:n_G, :n_G] = M[-n_G:, -n_G:].toarray()
    return D


def own_saddle(pipe, s):
    """Subdomain s's saddle block with its trace rows last, its local sets
    and the (field, patch key) of each of its local unknowns and trace rows."""
    lb = local_view(pipe.system.stacked, s)
    sets = local_index_sets(pipe.cls, lb.dofs)
    spaces, grid = pipe.system.spaces.fields, pipe.system.materials.grid
    keys = [(n[:-1], int(k)) for n in ("uI", "xiI", "pI", "uD", "xiG", "pG")
            for k in spaces[n[:-1]].patch_keys(grid, s, lb.dofs[n[:-1]][sets[n]])]
    return sliced_bmat_saddle(lb, sets, True), sets, keys


BORROWING = [pytest.param(w, None, id=w) for w in ("flagship-p1-nx64", "tiny-subdomains")] + [
    pytest.param(elem, (primal, bc), id=f"{elem}-{primal}-{bc}")
    for elem, primal, bc in itertools.product(("p1", "p0"), ("vertex", "vertex-edge"), ("neumann-left", "dirichlet"))
]


@pytest.mark.parametrize("case, grid", BORROWING)
def test_borrowed_solves_are_exact(case, grid):
    # a derived class's K_rr is its source's bordered block [[K_c, B_0^T],
    # [B_0, D_c]] restricted to the matching unknowns, so solving through
    # the source's factor gives its own factor's solution
    if grid is None:
        pipe = bd.build_pipeline(bd.ExperimentConfig(**experiment_config(case, 7)))
    else:
        pipe = condensed_pipeline(case, *grid, False)
    red = pipe.reduced
    torn, groups, B_C = red.torn.classes, pipe.system.classes("ABCDE"), interface_coupling(red)[0].tocsc()
    derived = derived_classes(pipe)
    assert derived and all(isinstance(torn[i].factor, reduced_system.BorrowedFactor) for i, _ in derived)
    rng = np.random.default_rng(11)
    for i, src in derived:
        M, _, keys = own_saddle(pipe, groups[src][0])
        n_c = torn[src].idx.shape[0]
        B0 = B_C[:, torn[src].idx[:, 0]][red.interface.classes[src].idx[:, 0]].toarray()
        D = trace_block(pipe, groups[src][0], B0.shape[0])
        bordered = np.block([[M[:n_c, :n_c].toarray(), B0.T], [B0, D]])
        # its unknowns, then its trace rows, which come first among B_0's
        place = {k: j for j, k in enumerate(keys)}
        M_r, sets_r, keys_r = own_saddle(pipe, groups[i][0])
        n_r, n_k = torn[i].idx.shape[0], M_r.shape[0] - sets_r["xiG"].size - sets_r["pG"].size
        at = [place[k] for k in keys_r[:n_r]]
        K = M_r[:n_r, :n_r].toarray()
        assert np.abs(K - bordered[np.ix_(at, at)]).max() <= 1e-14 * np.abs(K).max()

        f, own = torn[i].factor, reduced_system.SaddleFactor("own", M_r[:n_r, :n_r])
        b = rng.standard_normal((n_r, 3))
        want = own.solve(b)
        assert np.linalg.norm(f.solve(b) - want) <= 1e-6 * np.linalg.norm(want)
        A_rP, A_PP = M_r[:n_r, n_r:n_k].toarray(), M_r[n_r:n_k, n_r:n_k].toarray()
        X, S_PP = reduced_system.primal_coupling(own, A_rP, A_PP)
        got = reduced_system.primal_coupling(f, A_rP, A_PP)
        assert np.array_equal(torn[i].X, got[0])
        assert np.linalg.norm(got[0] - X) <= 1e-6 * np.linalg.norm(X)
        assert np.linalg.norm(got[1] - S_PP) <= 1e-6 * np.linalg.norm(S_PP)


def flagship_like():
    return bd.ExperimentConfig(nx=24, subdomains=(6, 6), E=1e6, nu=0.499, oracle="off")


def free_side_pipeline(case):
    """A 6x6 grid at H/h = 4 without edge averages and with the free left
    side, p1 or p0, or the flagship-like grid: every block derives across
    that side."""
    if case == "flagship-like":
        return bd.build_pipeline(flagship_like())
    return condensed_pipeline(case, "vertex", "neumann-left", False)


FREE_SIDES = ["p1", "p0", "flagship-like"]


@pytest.mark.parametrize("case", FREE_SIDES)
def test_torn_classes_derived_across_free_sides_match_their_own(case):
    # the left edge and corners hold the interior class's interface rows
    # there as local unknowns and eliminate them; their maps and borrowed
    # solves must be those of a factor of their own block
    pipe = free_side_pipeline(case)
    red = pipe.reduced
    assert {k: b.sources for k, b in pipe.blocks.items()} == dict.fromkeys(pipe.blocks, 1)
    torn, groups, B_C = red.torn.classes, pipe.system.classes("ABCDE"), interface_coupling(red)[0].tocsc()
    crossing = across_free_sides(pipe)
    assert sorted(groups[i][0] for i, _ in crossing) == [0, 6, 30]
    rng = np.random.default_rng(5)
    for i, _ in crossing:
        c, cc = torn[i], red.interface.classes[i]
        M, _, _ = own_saddle(pipe, groups[i][0])
        n_r = c.idx.shape[0]
        own = reduced_system.SaddleFactor("own", M[:n_r, :n_r])
        B0 = B_C[:, c.idx[:, 0]][cc.idx[:, 0]]
        F = B0 @ own.solve(B0.T.toarray()) - trace_block(pipe, groups[i][0], B0.shape[0])
        assert cc.S[: cc.idx.shape[0]].shape == F.shape
        assert np.abs(cc.S[: cc.idx.shape[0]] - F).max() <= 1e-13 * np.abs(F).max()
        assert isinstance(c.factor, reduced_system.BorrowedFactor)
        b = rng.standard_normal((n_r, 3))
        want = own.solve(b)
        assert np.linalg.norm(c.factor.solve(b) - want) <= 1e-6 * np.linalg.norm(want)


@pytest.mark.parametrize("case", FREE_SIDES)
def test_preconditioner_classes_derived_across_free_sides_match_their_own(monkeypatch, case):
    # the xi, p and λ Schur complements of the classes with free sides
    # eliminate the interior class's kept dofs there
    seen, class_schurs = {}, preconditioner.class_schurs

    def kept(system, cls, fld, *args):
        out = class_schurs(system, cls, fld, *args)
        seen[fld] = out[0]
        return out

    monkeypatch.setattr(preconditioner, "class_schurs", kept)
    pipe = free_side_pipeline(case)
    assert sorted(seen) == (["p", "u"] if case == "p0" else ["p", "u", "xi"])
    for fld, schurs in seen.items():
        groups = pipe.system.classes(FIELD_BLOCK[fld])
        crossing = across_free_sides(pipe, FIELD_BLOCK[fld], (fld,))
        # total pressure has no Dirichlet side: every side on the boundary is free
        assert sorted(groups[i][0] for i, _ in crossing) == ([0, 1, 5, 6, 11, 30, 31, 35] if fld == "xi" else [0, 6, 30])
        for i, _ in crossing:
            M, dofs, gamma, inner = schur_inputs(pipe.system, pipe.cls, fld, groups[i][0])
            own = preconditioner._dense_schur(M, gamma, inner, pipe.system.spaces.fields[fld].lattice(dofs[inner]), "own")
            assert schurs[i].shape == own.shape
            assert np.abs(schurs[i] - own).max() <= 1e-13 * np.abs(own).max(), (fld, i)


@pytest.mark.parametrize("case", ["p1", "p0", "tiny-subdomains"])
def test_edge_averages_never_derive_across_free_sides(case):
    # an edge average on the source's interface side has no counterpart
    # on a free side: the free left edge forms its own maps
    if case == "tiny-subdomains":
        pipe = bd.build_pipeline(bd.ExperimentConfig(**experiment_config(case, 7)))
    else:
        pipe = condensed_pipeline(case, "vertex-edge", "neumann-left", False)
    for names, fields in (("ABCDE", ("u", "p")), ("A", ("u",)), ("E", ("p",))):
        assert derived_classes(pipe, names, fields)  # across Dirichlet sides
        assert across_free_sides(pipe, names, fields) == []
    assert pipe.blocks["torn"].sources == pipe.blocks["lambda"].sources == pipe.blocks["p"].sources == 2
    # total pressure has no edge averages
    if case == "p1":
        assert len(across_free_sides(pipe, "C", ("xi",))) == 8 and pipe.blocks["xi"].sources == 1


def test_borrowed_solve_failing_its_probe_factors_its_own_block(monkeypatch):
    cfg = flagship_like()
    pipe = bd.build_pipeline(cfg)
    base = bd.run_case(cfg, pipe)
    solve, failed = reduced_system.BorrowedFactor.solve, []

    def inaccurate(self, b):  # the first borrowed solve is off by 1e-6
        failed[:] = failed or [self]
        return solve(self, b) * (1 + 1e-6 * (self is failed[0]))

    monkeypatch.setattr(reduced_system.BorrowedFactor, "solve", inaccurate)
    fell_back = bd.build_pipeline(cfg)
    torn = fell_back.reduced.torn.classes
    derived = dict(derived_classes(fell_back))
    first = next(iter(derived))  # the first class built that borrows
    own = [i for i, c in enumerate(torn) if isinstance(c.factor, reduced_system.SaddleFactor)]
    assert own == sorted({first} | set(range(len(torn))) - set(derived)) and len(own) == 2
    assert torn[first].factor.nnz > 0
    res = bd.run_case(cfg, fell_back)
    assert res.converged and res.iterations == base.iterations
    X = pipe.reduced.torn.classes[first].X
    assert np.linalg.norm(torn[first].X - X) <= 1e-6 * np.linalg.norm(X)


UNCONDENSED = {
    "flagship-p1-nx64-4x4": (experiment_config("flagship-p1-nx64", 7, shrink=2), 381_384),
    "contrast-spectrum": (experiment_config("contrast-spectrum", 7), 2_710_052),
    # TestRefinementNearIncompressibleLimit's run: refined sparse factors
    "p0-2x2-nu0.4999999999": (dict(nx=16, subdomains=(2, 2), total_pressure="p0", nu=0.4999999999, E=1.0), 157_192),
}


@pytest.mark.parametrize("case", list(UNCONDENSED))
def test_uncondensed_runs_factor_every_class(case):
    # the torn block is not condensed, nothing is borrowed, and every class
    # keeps the factor of its own block
    kw, factor_nnz = UNCONDENSED[case]
    cfg = bd.ExperimentConfig(**kw)
    pipe = bd.build_pipeline(cfg)
    assert not is_condensed(pipe.reduced)
    assert all(type(c.factor) is reduced_system.SaddleFactor for c in pipe.reduced.torn.classes)
    res = bd.run_case(cfg, pipe)
    assert res.converged and res.factor_nnz == factor_nnz
    assert all(n * nnz for _, n, nnz in res.factor_classes["torn"])


def test_flagship_like_grid_derives_eight_of_nine_torn_maps():
    pipe = bd.build_pipeline(flagship_like())
    groups = pipe.system.classes("ABCDE")
    visits = reduced_system.class_sources(pipe.system, pipe.cls, groups, "ABCDE", ("u", "p"))
    # the interior class solves, and is visited first; every other class
    # differs from it only by Dirichlet sides and the free left side
    assert visits[0] == (4, None) and groups[4][0] == 7
    assert [src for _, src in visits[1:]] == [4] * 8
    assert sorted(groups[i][0] for i, _ in across_free_sides(pipe)) == [0, 6, 30]
    assert pipe.reduced.interface.sources == 1 and len(pipe.reduced.interface.classes) == 9
    assert pipe.blocks["torn"].sources == 1


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
    assert not is_condensed(pipe.reduced)
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
        if name.startswith("subdomain 1 ") and change == "kept":
            want = np.concatenate([[-3], want[1:]])
        if name.startswith("subdomain 1 ") and change == "eliminated":
            eliminable = eliminable | (kept.keys % 3 == 2)  # the p rows of its Dirichlet side, which it lacks
        return derive_schur(name, src, S, kept, want, eliminable)

    monkeypatch.setattr(reduced_system, "derive_schur", changed)
    with pytest.raises(bd.InternalError, match=rf"^subdomain 1 \(class of 4\): {why}$"):
        bd.build_pipeline(flagship_like())


def test_local_unknown_the_source_lacks_rejected(monkeypatch):
    # subdomain 1's class borrows the factor of subdomain 7's, as above
    class Shifted(reduced_system.BorrowedFactor):
        def __init__(self, name, src, solve, kept, W, B0_T, keys, E, lu):
            if name.startswith("subdomain 1 "):
                keys = np.concatenate([[-3], keys[1:]])
            super().__init__(name, src, solve, kept, W, B0_T, keys, E, lu)

    monkeypatch.setattr(reduced_system, "BorrowedFactor", Shifted)
    with pytest.raises(bd.InternalError,
                       match=r"^subdomain 1 \(class of 4\): a local unknown is not one of the class of subdomain 7$"):
        bd.build_pipeline(flagship_like())


def dirichlet_apply(pipe, s, T):
    """Subdomain s's elastic Dirichlet Schur complement applied matrix-free,
    A_DD T - A_DI A_II^-1 A_ID T, with SciPy's default sparse LU."""
    lb, cls = local_view(pipe.system.stacked, s), pipe.cls
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
    assert not is_condensed(red)
    assert all(isinstance(c.S, np.ndarray) and c.factor is None for c in pipe.preconditioner.multiplier.classes)
    # the classes' maps add up what the local-solve oracle sums globally
    v = np.random.default_rng(1).standard_normal(red.n)
    ref = local_solve_apply(red, v)
    assert np.linalg.norm(red.apply(v) - ref) <= 1e-13 * np.linalg.norm(ref)
    # 8x8 at H/h=8: nine classes serve 64 subdomains
    pipe = bd.build_pipeline(bd.ExperimentConfig(nx=64, subdomains=(8, 8)))
    assert len(pipe.reduced.interface.classes) == 9
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
    assert is_condensed(pipe.reduced)
    instrument_pipeline(tracer, pipe)
    calls = record_torn_columns(monkeypatch, pipe.reduced.torn)  # in the order of the local solve spans
    assert bd.run_case(cfg, pipe).converged

    spans = tracer.spans
    solved = {"reduced_system.rhs": 0, "reduced_system.recover": 0}
    local_solves = [k for k, span in enumerate(spans) if span[0] == "reduced_system.local_solve"]
    assert len(local_solves) == len(calls)
    for k, (_, n) in zip(local_solves, calls):
        chain = []
        parent = spans[k][3]
        while parent >= 0:
            chain.append(spans[parent][0])
            parent = spans[parent][3]
        assert "reduced_system.torn_solve" in chain
        (phase,) = set(solved) & set(chain)
        solved[phase] += n
        assert "reduced_system.apply" not in chain
    # the right-hand side solves each class's shared load once; the
    # recovery solves every subdomain's own column
    assert solved == {"reduced_system.rhs": 9, "reduced_system.recover": 64}
    metrics = layer_metrics(spans, pipe)
    # only the interior class factors; the other eight borrow its solves
    assert metrics["reduced_system.factor_count"] == (1, "count")
    assert metrics["reduced_system.local_solve_count"] == (2 * 9, "count")  # one solve each in rhs and recover
    assert metrics["reduced_system.apply_count"][0] > 18


def test_run_record_lists_condensed_blocks(tmp_path):
    cfg = bd.ExperimentConfig(nx=24, subdomains=(6, 6), oracle="off")
    pipe = bd.build_pipeline(cfg)
    res = bd.run_case(cfg, pipe)
    assert res.condensed == ["torn", "xi", "p", "lambda"]
    red, pc = pipe.reduced, pipe.preconditioner
    blocks = (red.interface.classes, pc.xi.classes, pc.pressure.classes, pc.multiplier.classes)
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
