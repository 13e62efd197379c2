"""Mesh, space, and block assembly tests.

The quadrature oracles are hand-derived for the structured right-triangle
mesh: an interior scalar hat function has Dirichlet energy 4 and consistent
mass h^2/2, and the corresponding vector hat in either component has strain
energy 3 (so 6 mu after the material weight).  The mass of the whole domain
is 1, which pins the scaled total pressure mass block exactly.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

import biot_ddp as bd
from biot_ddp import mesh_fem
from biot_ddp.mesh_fem import (
    BLOCK_PARAMS, SIDES, LoadSpec, _grid_mesh, class_representatives, p1_geometry, subdomain_sides,
)
from biot_ddp.reduced_system import ClassSaddles
from helpers import (
    MULTI_MEMBER_GRIDS,
    assemble_with_reference,
    assert_stored_once,
    dump_blocks_coo,
    element_subdomains,
    local_blocks,
    local_view,
    patch_keys,
    per_subdomain_assembly,
    stokes_stability_witness,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from workloads import WORKLOADS, experiment_config  # noqa: E402


def small_system(variant="p1", bc=None, grid=(2, 2), nx=8, **mat):
    mesh = bd.build_mesh(nx, grid)
    bc = bc or bd.BoundarySpec.neumann_left()
    params = {"E": 2.0, "nu": 0.25, "alpha": 0.7, "kappa": 3.0}
    params.update(mat)
    mats = bd.MaterialField.uniform(grid, **params)
    spaces = bd.build_spaces(mesh, variant, bc)
    system = bd.assemble_blocks(spaces, mats, LoadSpec())
    return mesh, spaces, mats, system


class TestMesh:
    def test_counts(self):
        mesh = bd.build_mesh(8, (2, 2))
        assert mesh.n_nodes == 81
        assert mesh.n_triangles == 128
        assert mesh.refined_mesh.n_nodes == 289

    def test_lattice_covers_unit_square(self):
        mesh = bd.build_mesh(4, (2, 2))
        ids = np.arange(mesh.n_nodes)
        assert mesh.n_nodes == 25
        assert mesh.node_ix(ids).min() == mesh.node_iy(ids).min() == 0
        assert mesh.node_ix(ids).max() == mesh.nx and mesh.node_iy(ids).max() == mesh.ny

    def test_indivisible_grid_rejected(self):
        with pytest.raises(bd.ConfigurationError):
            bd.build_mesh(8, (3, 2))

    def test_rectangular_cells_allowed_with_square_patches(self):
        mesh = bd.build_mesh(6, (3, 2))  # 2 cells per subdomain in x, so in y too
        assert mesh.nx == 6 and mesh.ny == 4

    @pytest.mark.parametrize("nx, ny", [(1, 1), (4, 4), (1, 3), (6, 4), (5, 2)])
    def test_grid_mesh_triangles_positively_oriented(self, nx, ny):
        # the orientation holds by construction, so it is checked here
        # rather than on every mesh built
        mesh = _grid_mesh(nx, ny)
        area, _, _ = p1_geometry(mesh, mesh.triangles)
        assert mesh.n_triangles == 2 * nx * ny
        np.testing.assert_allclose(area, 0.5 / (nx * ny), rtol=1e-12)

    # ny: the cells in y that build_mesh derives, None for as many as in x
    @pytest.mark.parametrize("nx, grid, ny", [(1, (1, 1), None), (8, (2, 2), None), (6, (3, 2), 4)])
    def test_refined_mesh_positively_oriented(self, nx, grid, ny):
        mesh = bd.build_mesh(nx, grid)
        assert mesh.ny == (ny or nx)
        for m in (mesh, mesh.refined_mesh):
            area, _, _ = p1_geometry(m, m.triangles)
            assert np.all(area > 0) and np.isclose(area.sum(), 1.0, rtol=1e-12)
        assert mesh.refined_mesh.nx == 2 * mesh.nx and mesh.refined_mesh.ny == 2 * mesh.ny

    def test_boundary_mask(self):
        mesh = bd.build_mesh(4, (2, 2))
        mask = mesh.boundary_node_mask(("left",))
        assert mask.sum() == 5
        assert np.all(mesh.node_ix(np.where(mask)[0]) == 0)


class TestSpaces:
    def test_dof_counts_neumann_left(self):
        _, spaces, _, _ = small_system("p1")
        assert spaces.n_dofs["u"] == 480
        assert spaces.n_dofs["xi"] == 81
        assert spaces.n_dofs["p"] == 56
        assert spaces.n_total == 617

    def test_p0_total_pressure_per_triangle(self):
        _, spaces, _, _ = small_system("p0")
        assert spaces.n_dofs["xi"] == 128

    def test_all_dirichlet_removes_boundary(self):
        _, spaces, _, _ = small_system("p1", bc=bd.BoundarySpec.all_dirichlet())
        assert spaces.n_dofs["u"] == 2 * 15 * 15
        assert spaces.n_dofs["p"] == 7 * 7
        assert spaces.n_dofs["xi"] == 81

    @pytest.mark.parametrize("variant", ["p1", "p0"])
    @pytest.mark.parametrize("bc", [bd.BoundarySpec.neumann_left(), bd.BoundarySpec.all_dirichlet()],
                             ids=["neumann-left", "dirichlet"])
    def test_each_space_numbers_its_free_nodes(self, variant, bc):
        # dof k * i + c is component c at node free[i]; a 12x8 mesh tells x from y
        mesh = bd.build_mesh(12, (3, 2))
        spaces = bd.build_spaces(mesh, variant, bc)
        assert list(spaces.fields) == ["u", "xi", "p"]
        for fld, space in spaces.fields.items():
            d = np.arange(space.n)
            assert np.array_equal(space.node_dofs(space.free).ravel(), d), fld
            assert np.array_equal(space.dof_of_node[space.free[d // space.k]] + d % space.k, d), fld
            assert np.all(np.delete(space.dof_of_node, space.free) == -1), fld
        xi = spaces.fields["xi"]
        if variant == "p0":
            # a p0 dof is the base triangle of the same id, which starts at its cell's lower-left node
            assert xi.n == mesh.n_triangles
            assert np.array_equal(mesh.triangles[:, 0], xi.free[np.arange(xi.n) // 2])
        else:
            assert xi.n == mesh.n_nodes

    def test_unknown_variant_rejected(self):
        mesh = bd.build_mesh(4, (2, 2))
        with pytest.raises(bd.ConfigurationError):
            bd.build_spaces(mesh, "p2", bd.BoundarySpec.neumann_left())

    @pytest.mark.parametrize("bc, why", [
        (bd.BoundarySpec((), SIDES), "displacement needs a nonempty Dirichlet part"),
        (bd.BoundarySpec(SIDES, ()), "pressure needs a nonempty Dirichlet part"),
        (bd.BoundarySpec(("left", "front"), SIDES), "unknown side 'front'"),
    ])
    def test_ill_posed_boundary_conditions_rejected(self, bc, why):
        mesh = bd.build_mesh(4, (2, 2))
        with pytest.raises(bd.ConfigurationError, match=f"^{why}$"):
            bd.build_spaces(mesh, "p1", bc)


class TestMaterials:
    def test_lame_conversion(self):
        lam, mu = bd.derive_lame(2.0, 0.25)
        assert lam == pytest.approx(0.8)
        assert mu == pytest.approx(0.8)

    def test_lame_near_incompressible(self):
        lam, _ = bd.derive_lame(1e6, 0.499)
        assert lam == pytest.approx(1.66444e8, rel=1e-4)

    def test_checkerboard_layout(self):
        mats = bd.MaterialField.checkerboard(
            (2, 2), E=1.0, nu=0.3, alpha=1.0, kappa=1.0, black={"E": 10.0}
        )
        # cells (0,0) and (1,1) are black, subdomain index is i + j * gx
        assert mats.E[0] == 10.0 and mats.E[3] == 10.0
        assert mats.E[1] == 1.0 and mats.E[2] == 1.0

    def test_incompressible_rejected(self):
        with pytest.raises(bd.MaterialDomainError):
            bd.MaterialField.uniform((2, 2), E=1.0, nu=0.5, alpha=1.0, kappa=1.0)


class TestAssembly:
    def test_full_matrix_symmetric(self):
        _, _, _, system = small_system("p1")
        M = system.full_matrix()
        assert abs(M - M.T).max() < 1e-12

    def test_total_pressure_mass_integrates_domain(self):
        for variant in ("p1", "p0"):
            _, spaces, mats, system = small_system(variant)
            one = np.ones(spaces.n_dofs["xi"])
            assert one @ (system.C @ one) * mats.lam[0] == pytest.approx(1.0, abs=1e-12)

    def test_pressure_hat_energy(self):
        _, spaces, mats, system = small_system("p1")
        h = 1.0 / 8
        lam = mats.lam[0]
        dof = spaces.fields["p"].dof_of_node[3 + 3 * 9]
        e = np.zeros(spaces.n_dofs["p"])
        e[dof] = 1.0
        want = 3.0 * 4.0 + (2 * 0.7**2 / lam) * h**2 / 2
        assert e @ (system.E @ e) == pytest.approx(want, rel=1e-13)

    def test_displacement_hat_energy(self):
        _, spaces, mats, system = small_system("p1")
        dof = spaces.fields["u"].dof_of_node[5 + 5 * 17]
        for comp in (0, 1):
            e = np.zeros(spaces.n_dofs["u"])
            e[dof + comp] = 1.0
            assert e @ (system.A @ e) == pytest.approx(6 * mats.mu[0], rel=1e-13)

    def test_coupling_is_scaled_mass(self):
        # same space and quadrature for p and xi, so the coupling block is
        # alpha times the mass rows at the free pressure nodes
        _, spaces, _, system = small_system("p1")
        rows = system.C.tocsr()[spaces.fields["p"].free, :]
        assert abs(system.D - 0.7 * rows).max() < 1e-15

    def test_divergence_pairing_sign(self):
        # -int div(phi e1) x dx = +int phi = h^2 on the refined mesh
        mesh, spaces, _, system = small_system("p1")
        v = np.zeros(spaces.n_dofs["u"])
        v[spaces.fields["u"].dof_of_node[5 + 5 * 17]] = 1.0
        xi = mesh.node_ix(np.arange(mesh.n_nodes)) / mesh.nx  # the x coordinate
        assert xi @ (system.B @ v) == pytest.approx((1.0 / 16) ** 2, rel=1e-12)

    def test_subassembly_matches_global(self):
        rng = np.random.default_rng(7)
        for variant in ("p1", "p0"):
            _, spaces, _, system = small_system(variant)
            u = rng.standard_normal(spaces.n_dofs["u"])
            xi = rng.standard_normal(spaces.n_dofs["xi"])
            p = rng.standard_normal(spaces.n_dofs["p"])
            totals = np.zeros(5)
            for lb in local_blocks(system).values():
                ul, xil, pl = u[lb.dofs["u"]], xi[lb.dofs["xi"]], p[lb.dofs["p"]]
                totals += (
                    ul @ (lb.A @ ul),
                    xil @ (lb.B @ ul),
                    xil @ (lb.C @ xil),
                    pl @ (lb.D @ xil),
                    pl @ (lb.E @ pl),
                )
            np.testing.assert_allclose(
                totals,
                [u @ (system.A @ u), xi @ (system.B @ u), xi @ (system.C @ xi),
                 p @ (system.D @ xi), p @ (system.E @ p)],
                rtol=1e-10,
            )

    def test_rhs_subassembly(self):
        _, spaces, _, system = small_system("p1")
        f = np.zeros(spaces.n_dofs["u"])
        g = np.zeros(spaces.n_dofs["p"])
        for lb in local_blocks(system).values():
            np.add.at(f, lb.dofs["u"], lb.f)
            np.add.at(g, lb.dofs["p"], lb.g)
        np.testing.assert_allclose(f, system.f, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(g, system.g, rtol=1e-12, atol=1e-15)

    def test_gravity_load_entries(self):
        # an interior hat integrates to h^2, so the y-load there is -h^2
        _, spaces, _, system = small_system("p1")
        dof = spaces.fields["u"].dof_of_node[5 + 5 * 17]
        assert system.f[dof] == 0.0
        assert system.f[dof + 1] == pytest.approx(-1.0 / 256, rel=1e-13)
        assert system.f[1::2].sum() == pytest.approx(-930.0 / 1024.0, rel=1e-12)
        assert system.f[0::2].sum() == pytest.approx(0.0, abs=1e-14)

    def test_source_load_entries(self):
        _, spaces, _, system = small_system("p1")
        dof = spaces.fields["p"].dof_of_node[3 + 3 * 9]
        assert system.g[dof] == pytest.approx(1.0 / 64, rel=1e-13)

    @pytest.mark.parametrize("nx", [1, 2])
    def test_loads_are_float_without_free_dofs(self, nx):
        # one cell under Dirichlet conditions leaves no free pressure dof
        _, spaces, _, system = small_system("p1", bc=bd.BoundarySpec.all_dirichlet(), grid=(1, 1), nx=nx)
        assert (spaces.n_dofs["p"] == 0) == (nx == 1)
        for load in (system.f, system.g, system.stacked.f, system.stacked.g):
            assert load.dtype == np.float64


class TestStackedAssembly:
    """The stacked block-diagonal assembly reproduces the per-subdomain
    assembly it replaced bit for bit: global blocks, local blocks, loads."""

    @staticmethod
    def assert_same_csr(got, want):
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr
        assert got.shape == want.shape

    @pytest.mark.parametrize("variant", ["p1", "p0"])
    @pytest.mark.parametrize("bc", ["neumann-left", "dirichlet"])
    @pytest.mark.parametrize("pattern", ["uniform", "checkerboard"])
    def test_bitwise_equal_to_per_subdomain_assembly(self, variant, bc, pattern):
        black = {"E": 1e3, "kappa": 1e-4} if pattern == "checkerboard" else {}
        cfg = bd.ExperimentConfig(nx=12, subdomains=(3, 3), total_pressure=variant, bc=bc, pattern=pattern, black=black)
        mesh = bd.build_mesh(cfg.nx, cfg.subdomains)
        spaces = bd.build_spaces(mesh, variant, cfg.boundary())
        mats = cfg.materials()
        system = bd.assemble_blocks(spaces, mats, LoadSpec())
        ref = per_subdomain_assembly(mesh, spaces, mats, LoadSpec())
        for name in "ABCDE":
            local, glob = ref[name]
            self.assert_same_csr(getattr(system, name), glob)
            for s, lb in local_blocks(system).items():
                self.assert_same_csr(getattr(lb, name), local[s])
        for name in "fg":
            local, glob = ref[name]
            assert np.array_equal(getattr(system, name), glob)
            for s, lb in local_blocks(system).items():
                assert np.array_equal(getattr(lb, name), local[s])
        for s, lb in local_blocks(system).items():
            for fld, dofs in lb.dofs.items():
                assert np.array_equal(dofs, ref[fld][s])

    def test_local_blocks_share_the_stacked_data(self):
        _, _, _, system = small_system("p1")
        for name in "ABCDE":
            stacked = getattr(system.stacked, name)
            for lb in local_blocks(system).values():
                assert np.shares_memory(getattr(lb, name).data, stacked.data)


class TestPerClassAssembly:
    """Assembly builds and stores each congruence class's representative
    once, and the members share it.  Checked against every subdomain's own
    build: the direct-solve oracle solves the same shared blocks, so only
    this comparison catches a class key that joins subdomains which differ."""

    @pytest.mark.parametrize("case", list(MULTI_MEMBER_GRIDS))
    def test_tiles_match_each_subdomains_own_build(self, case):
        kw, n_classes = MULTI_MEMBER_GRIDS[case]
        _, _, system, ref = assemble_with_reference(bd.ExperimentConfig(**kw))
        rep = system.stacked.rep
        assert np.unique(rep).size == n_classes
        assert np.unique(rep).size < rep.size
        assert_stored_once(system)
        for s, lb in local_blocks(system).items():
            for fld, dofs in lb.dofs.items():
                assert np.array_equal(dofs, ref[fld][s])
            for name in "ABCDEfg":
                got, want, tiled = getattr(lb, name), ref[name][0][s], getattr(local_view(system.stacked, rep[s]), name)
                if name in "ABCDE":
                    assert got.shape == want.shape
                    assert np.array_equal(got.indptr, want.indptr) and np.array_equal(got.indices, want.indices)
                    got, want, tiled = got.data, want.data, tiled.data
                assert np.array_equal(got, tiled)
                assert np.array_equal(got, want), (s, name)

    @pytest.mark.parametrize("kw", [
        *(pytest.param(kw, id=case) for case, (kw, _) in MULTI_MEMBER_GRIDS.items()),
        *(pytest.param(experiment_config(name, 7), id=name) for name in WORKLOADS),
    ])
    def test_patch_positions_are_the_lattice_keys(self, kw):
        # two stacked positions of one field, of any subdomains, share a
        # place in the reference patch exactly when their dofs lie alike in
        # their subdomains: same node relative to its lower-left node, same
        # component
        cfg = bd.ExperimentConfig(**kw)
        spaces = bd.build_spaces(bd.build_mesh(cfg.nx, cfg.subdomains), cfg.total_pressure, cfg.boundary())
        st = bd.assemble_blocks(spaces, cfg.materials()).stacked
        for fld, space in spaces.fields.items():
            place = st.patch[fld]
            assert place.shape == st.dofs[fld].shape and place.dtype.kind == "i", fld
            sub = np.repeat(np.arange(st.n_sub), np.diff(st.off[fld]))
            key = patch_keys(space, cfg.subdomains, sub, st.dofs[fld])
            pairs = np.unique(np.column_stack([place, key]), axis=0)
            assert len(pairs) == np.unique(place).size == np.unique(key).size, fld

    @pytest.mark.parametrize("case", list(MULTI_MEMBER_GRIDS))
    def test_local_blocks_are_bitwise_symmetric(self, case):
        # SaddleFactor factors A, C, E and every vertex run's K_rr in
        # symmetric mode: symmetric element matrices summed in element order
        # make them symmetric to the bit
        pipe = bd.build_pipeline(bd.ExperimentConfig(oracle="off", **MULTI_MEMBER_GRIDS[case][0]))
        for name in "ACE":
            M = getattr(pipe.system.stacked, name)
            assert (M != M.T).nnz == 0, name
        saddles = ClassSaddles(pipe.system, pipe.cls, pipe.jump)
        for r, b in zip(saddles.reps, saddles.blocks(), strict=True):
            assert (b.K != b.K.T).nnz == 0, r

    def test_subdomain_sides(self):
        # left, right, bottom, top of each subdomain of a 3x2 grid, x fastest
        got = subdomain_sides((3, 2)).astype(int).tolist()
        assert got == [[1, 0, 1, 0], [0, 0, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1], [0, 0, 0, 1], [0, 1, 0, 1]]
        assert subdomain_sides((1, 1)).all()

    def test_class_key(self):
        # interior, edge and corner subdomains on a 4x4 grid; a material
        # change on one subdomain gives it a class of its own
        mats = bd.MaterialField.uniform((4, 4), E=1.0, nu=0.3, alpha=1.0, kappa=1.0)
        rep = class_representatives(mats)
        assert rep.tolist() == [0, 1, 1, 3, 4, 5, 5, 7, 4, 5, 5, 7, 12, 13, 13, 15]
        mats.kappa[10] = 2.0
        assert class_representatives(mats)[10] == 10


    def test_classes_formed_once_per_key(self, monkeypatch):
        # the E checkerboard's elastic blocks (keyed on E and nu) and flow
        # blocks (all four parameters) have classes of their own, and B's
        # (no parameter) are the sides' alone
        system = bd.build_pipeline(bd.ExperimentConfig(oracle="off", **MULTI_MEMBER_GRIDS["E checkerboard"][0])).system
        names = ("ABCDE", "A", "C", "E", "B", "D", "ABCDE", "C")
        want = {n: dataclasses.replace(system).classes(n) for n in names}  # each from a system of its own
        calls = []

        def counted(materials, params):
            calls.append(tuple(params))
            return class_representatives(materials, params)

        monkeypatch.setattr(mesh_fem, "class_representatives", counted)
        fresh = dataclasses.replace(system)
        for _ in range(3):
            for n in names:
                got = fresh.classes(n)
                assert [g.tolist() for g in got] == [g.tolist() for g in want[n]], n
                assert got is fresh.classes(n)
        keys = {tuple(sorted({p for b in n for p in BLOCK_PARAMS[b]})) for n in names}
        assert sorted(calls) == sorted(keys)
        assert len(keys) == 4  # ABCDE and E, A and C, B, D


class TestPatchAssembly:
    """Every subdomain's cells are a translate of one patch: assembly
    evaluates element tables on one patch per distinct material and cuts
    each class's blocks and loads out of it."""

    CASES = {
        "p1 neumann-left": dict(nx=12, subdomains=(3, 3)),
        "p1 dirichlet": dict(nx=12, subdomains=(3, 3), bc="dirichlet"),
        "p0 neumann-left": dict(nx=12, subdomains=(3, 3), total_pressure="p0"),
        "p0 dirichlet": dict(nx=12, subdomains=(3, 3), total_pressure="p0", bc="dirichlet"),
        "checkerboard": dict(nx=12, subdomains=(3, 3), pattern="checkerboard", black={"E": 1e3, "kappa": 1e-4}),
        "rectangular cells": dict(nx=24, subdomains=(4, 2)),
        "one cell per subdomain": dict(nx=3, subdomains=(3, 3), bc="dirichlet"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_classes_are_the_patch_restricted(self, case):
        # the patch (subdomain 0's cells, every node free) summed in element
        # order by np.add.at, then cut to each representative's dofs moved
        # back to subdomain 0's place
        cfg = bd.ExperimentConfig(**self.CASES[case])
        mesh = bd.build_mesh(cfg.nx, cfg.subdomains)
        spaces = bd.build_spaces(mesh, cfg.total_pressure, cfg.boundary())
        mats = cfg.materials()
        st = bd.assemble_blocks(spaces, mats, LoadSpec()).stacked
        gx = cfg.subdomains[0]
        every = {fld: mesh_fem.FieldSpace(s.mesh, np.arange(s.mesh.n_nodes), s.k) for fld, s in spaces.fields.items()}
        tri_b, tri_r = (np.flatnonzero(element_subdomains(m, cfg.subdomains) == 0) for m in (mesh, mesh.refined_mesh))
        for r in np.unique(st.rep):
            tables = mesh_fem.element_tables(every, cfg.total_pressure == "p0", tri_b, tri_r,
                                             [(mats.lam[r], mats.mu[r], mats.alpha[r], mats.kappa[r])], LoadSpec())[0]
            lb = local_view(st, r)
            patch, at = {}, {}
            for fld, name in (("u", "A"), ("xi", "C"), ("p", "E")):
                space, d = spaces.fields[fld], lb.dofs[fld]
                patch[fld] = np.unique(tables[name].rows)
                ix, iy = space.lattice(d)
                side = space.mesh.nx // gx
                node = (iy - r // gx * side) * (space.mesh.nx + 1) + ix - r % gx * side
                at[fld] = np.searchsorted(patch[fld], space.k * node + d % space.k)
                assert np.array_equal(patch[fld][at[fld]], space.k * node + d % space.k), fld
            for name, rf, cf in mesh_fem.BLOCK_FIELDS:
                t = tables[name]
                rows = np.broadcast_to(np.searchsorted(patch[rf], t.rows)[:, :, None], t.vals.shape)
                cols = np.broadcast_to(np.searchsorted(patch[cf], t.cols)[:, None, :], t.vals.shape)
                full, met = np.zeros((patch[rf].size, patch[cf].size)), np.zeros((patch[rf].size, patch[cf].size), bool)
                np.add.at(full, (rows.ravel(), cols.ravel()), t.vals.ravel())
                met[rows.ravel(), cols.ravel()] = True
                cut = np.ix_(at[rf], at[cf])
                got = getattr(lb, name)
                stored = np.zeros(got.shape, bool)
                stored[np.repeat(np.arange(got.shape[0]), np.diff(got.indptr)), got.indices] = True
                assert np.array_equal(stored, met[cut]) and got.nnz == stored.sum(), (r, name)
                assert np.array_equal(got.toarray(), full[cut]), (r, name)
            for name, fld in (("f", "u"), ("g", "p")):
                full = np.zeros(patch[fld].size)
                np.add.at(full, np.searchsorted(patch[fld], tables[name].rows).ravel(), tables[name].vals.ravel())
                assert np.array_equal(getattr(lb, name), full[at[fld]]), (r, name)

    @pytest.mark.parametrize("pattern, patches", [("uniform", 1), ("checkerboard", 2)])
    def test_element_tables_once_per_material(self, monkeypatch, pattern, patches):
        # nine classes on either grid; the black subdomains' kappa makes a
        # second material, and each material's patch is 4x4 cells, all in
        # one call that shares what no material enters
        evaluated = []

        def counted(*args):
            tables = element_tables(*args)
            evaluated.append([(t["E"].vals.shape[0], t["A"].vals.shape[0]) for t in tables])
            assert all(t[k] is tables[0][k] for t in tables for k in "Bfg")
            return tables

        element_tables = mesh_fem.element_tables
        monkeypatch.setattr(mesh_fem, "element_tables", counted)
        cfg = bd.ExperimentConfig(nx=12, subdomains=(3, 3), pattern=pattern, black={"kappa": 1e-6})
        spaces = bd.build_spaces(bd.build_mesh(cfg.nx, cfg.subdomains), "p1", cfg.boundary())
        system = bd.assemble_blocks(spaces, cfg.materials(), LoadSpec())
        assert np.unique(system.stacked.rep).size == 9
        assert evaluated == [[(2 * 4 * 4, 2 * 8 * 8)] * patches]


class TestStability:
    def test_saddle_inequality_holds(self):
        for variant in ("p1", "p0"):
            _, _, _, system = small_system(variant)
            report = bd.check_saddle_inequalities(system, trials=200, seed=3)
            assert report.violations == 0
            assert report.min_ratio >= 1.0

    def test_stokes_witness_positive(self):
        _, _, _, system = small_system("p1")
        assert stokes_stability_witness(system) > 0.05


def test_dump_blocks_roundtrip(tmp_path):
    _, _, _, system = small_system("p1")
    path = tmp_path / "blocks.txt"
    dump_blocks_coo(system, str(path))
    lines = path.read_text().splitlines()
    assert {ln.split()[0] for ln in lines} == set("ABCDE")
    name, r, c, v = lines[0].split()
    assert name == "A" and float(v) == system.A.tocsr()[int(r), int(c)]
