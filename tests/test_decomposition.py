"""Partitioning, dof classification, scalings, jump, and restrictions.

The reference case is the 8-cell unit square cut into 2x2 subdomains with
the traction boundary on the left: there the interface cross carries two
coarse vertices (the center and the left edge midpoint), which pins every
count below.
"""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import biot_ddp as bd
from biot_ddp.decomposition import (
    FieldSplit,
    _average_basis_block,
    _build_transform,
    _check_floating,
    _drop_roundoff,
    _edge_groups,
    _incidence,
    _lattice_corners,
)
from biot_ddp.mesh_fem import FIELD_BLOCK, element_subdomains
from helpers import (
    MULTI_MEMBER_GRIDS,
    assemble_with_reference,
    assert_stored_once,
    broken_offsets,
    by_subdomain,
    local_blocks,
    local_view,
    reference_edge_averages,
    reference_edge_groups,
    reference_incidence,
    sharers,
    weight,
)


# grids with H/h of one and two, a non-square one and single rows and columns
REFERENCE_GRIDS = pytest.mark.parametrize(
    "nx, grid", [(4, (4, 4)), (8, (4, 4)), (24, (4, 2)), (12, (1, 3)), (12, (3, 1))],
    ids=["4x4-H/h=1", "4x4-H/h=2", "24x12-on-4x2", "1x3", "3x1"],
)


def classify(nx=8, grid=(2, 2), variant="p1", primal="vertex", bc=None):
    mesh = bd.build_mesh(nx, grid)
    part = bd.partition(mesh, grid)
    bc = bc or bd.BoundarySpec.neumann_left()
    spaces = bd.build_spaces(mesh, variant, bc)
    return part, spaces, bd.classify_dofs(part, spaces, primal)


class TestPartition:
    # a p0 total pressure dof is its base triangle, interior to its subdomain
    def test_element_counts(self):
        part, _, cls = classify(variant="p0")
        mesh = part.mesh
        assert part.n_subdomains == 4
        assert sorted(len(v) for v in by_subdomain(cls.xi.interior, 4).values()) == [32] * 4
        assert sorted(np.bincount(element_subdomains(mesh.refined_mesh, part.grid))) == [128] * 4

    def test_elements_partition_the_mesh(self):
        part, _, cls = classify(12, (3, 3), "p0")
        mesh = part.mesh
        all_base = np.sort(np.concatenate(list(by_subdomain(cls.xi.interior, 9).values())))
        np.testing.assert_array_equal(all_base, np.arange(mesh.triangles.shape[0]))
        np.testing.assert_array_equal(cls.xi.interior.sub, element_subdomains(mesh, part.grid)[cls.xi.interior.dof])


class TestClassification:
    def test_reference_counts(self):
        _, _, cls = classify()
        assert sorted(len(v) for v in by_subdomain(cls.u.interior, 4).values()) == [98, 98, 112, 112]
        assert cls.u.dual.size == 56
        assert cls.u.primal.size == 4
        assert cls.xi.interface.size == 17
        assert cls.p.dual.size == 12
        assert cls.p.primal.size == 2
        lay = cls.layout
        assert (lay.n_w, cls.u.dual.size) == (642, 56)

    def test_classification_partitions_dofs(self):
        for variant in ("p1", "p0"):
            for primal in ("vertex", "vertex-edge"):
                _, spaces, cls = classify(12, (3, 3), variant, primal)
                interior = {fld: list(by_subdomain(split.interior, cls.n_subdomains).values())
                            for fld, split in cls.splits.items()}
                u_all = np.concatenate(interior["u"] + [cls.u.dual, cls.u.primal])
                assert np.unique(u_all).size == u_all.size == spaces.n_dofs["u"]
                xi_all = np.concatenate(interior["xi"] + [cls.xi.interface])
                assert np.unique(xi_all).size == xi_all.size == spaces.n_dofs["xi"]
                p_all = np.concatenate(interior["p"] + [cls.p.dual, cls.p.primal])
                assert np.unique(p_all).size == p_all.size == spaces.n_dofs["p"]

    @pytest.mark.parametrize("variant", ["p1", "p0"])
    @pytest.mark.parametrize("primal", ["vertex", "vertex-edge"])
    @pytest.mark.parametrize("bc", [bd.BoundarySpec.neumann_left(), bd.BoundarySpec.all_dirichlet()],
                             ids=["neumann-left", "dirichlet"])
    def test_local_dofs_are_the_split(self, variant, primal, bc):
        # every field's local dofs of a subdomain are exactly its interior
        # and interface dofs, the displacement's its interior, dual and
        # primal ones, each once
        _, spaces, cls = classify(24, (4, 2), variant, primal, bc)
        system = bd.assemble_blocks(spaces, bd.MaterialField.uniform((4, 2), E=1.0, nu=0.3, alpha=1.0, kappa=1.0))
        parts = {fld: (split.dual_rows, split.primal_rows) if fld == "u" else (split.rows,)
                 for fld, split in cls.splits.items()}
        sets = {fld: [by_subdomain(r, cls.n_subdomains) for r in (split.interior, *parts[fld])]
                for fld, split in cls.splits.items()}
        for s in range(cls.n_subdomains):
            lb = local_view(system.stacked, s)
            for fld in cls.splits:
                got = np.sort(np.concatenate([d[s] for d in sets[fld]]))
                np.testing.assert_array_equal(got, lb.dofs[fld])

    @pytest.mark.parametrize("variant", ["p1", "p0"])
    @pytest.mark.parametrize("primal", ["vertex", "vertex-edge"])
    @pytest.mark.parametrize("bc", [bd.BoundarySpec.neumann_left(), bd.BoundarySpec.all_dirichlet()],
                             ids=["neumann-left", "dirichlet"])
    def test_role_codes_the_flags(self, variant, primal, bc):
        # every dof's role is 0 interior, 1 dual or 2 primal by its
        # interface and primal flags, and codes the sorted dual, primal and
        # interface dofs; total pressure has no primal dofs
        _, spaces, cls = classify(24, (4, 2), variant, primal, bc)
        for fld, split in cls.splits.items():
            assert split.role.dtype == np.int8 and split.role.shape == (spaces.n_dofs[fld],), fld
            want = np.where(split.is_interface, np.where(split.is_primal, 2, 1), 0)
            np.testing.assert_array_equal(split.role, want, err_msg=fld)
            for got, dofs in ((split.role == 1, split.dual), (split.role == 2, split.primal),
                              (split.role > 0, split.interface)):
                np.testing.assert_array_equal(np.flatnonzero(got), dofs, err_msg=fld)
        assert np.all(cls.xi.role < 2)
        if variant == "p0":  # every p0 total pressure dof is interior
            assert not cls.xi.role.any()

    def test_dual_lists_sorted_and_paired(self):
        _, _, cls = classify(12, (3, 3))
        assert np.all(np.diff(cls.u.dual) > 0)
        pairs = cls.u.dual_rows.sub.reshape(-1, 2)
        assert np.all(pairs[:, 0] < pairs[:, 1])

    def test_p0_total_pressure_has_no_interface(self):
        _, _, cls = classify(variant="p0")
        assert cls.xi.interface.size == 0
        assert sorted(len(v) for v in by_subdomain(cls.xi.interior, 4).values()) == [32] * 4

    def test_traction_boundary_cross_point_is_primal(self):
        # the left edge midpoint of the 2x2 split sits on the traction
        # boundary; it is shared by two subdomains and must be coarse
        _, spaces, cls = classify()
        node = 8 * 17  # refined-mesh node at (0, 0.5)
        dof = spaces.fields["u"].dof_of_node[node]
        assert dof in cls.u.primal and dof + 1 in cls.u.primal

    def test_all_dirichlet_leaves_center_only(self):
        _, _, cls = classify(bc=bd.BoundarySpec.all_dirichlet())
        assert cls.u.primal.size == 2
        assert cls.p.primal.size == 1

    def test_vertex_edge_counts(self):
        _, _, cls = classify(primal="vertex-edge")
        assert cls.u.primal.size == 12  # 2 vertices + 4 edges x 2 components
        assert cls.p.primal.size == 6
        assert cls.u.transform is not None and cls.p.transform is not None

    def test_vertex_only_needs_no_transform(self):
        _, _, cls = classify(primal="vertex")
        assert cls.u.transform is None and cls.p.transform is None

    def test_edge_average_transform_invertible(self):
        _, spaces, cls = classify(primal="vertex-edge")
        T = cls.u.transform.toarray()
        assert T.shape == (spaces.n_dofs["u"], spaces.n_dofs["u"])
        assert abs(np.linalg.det(T)) > 1e-12

    def test_edge_average_column_structure(self):
        # each edge group has one all-ones column (the average) and
        # zero-mean columns for the remaining local dofs
        _, _, cls = classify(primal="vertex-edge")
        T = cls.p.transform.toarray()
        multi = np.where((T != 0).sum(axis=0) > 1)[0]
        assert multi.size == 12  # 4 edges x (1 average + 2 deviations)
        n_avg = 0
        for c in multi:
            col = T[:, c]
            if np.all(col[col != 0] == 1.0):
                n_avg += 1
            else:
                assert col.sum() == pytest.approx(0.0, abs=1e-14)
        assert n_avg == 4

    @staticmethod
    def per_group_transform(n, groups):
        """Reference: the transform written one edge group at a time."""
        in_group = np.zeros(n, dtype=bool)
        rows, cols, vals = [], [], []
        for g in groups:
            in_group[g] = True
            rr, cc = np.meshgrid(g, g, indexing="ij")
            rows.append(rr.ravel())
            cols.append(cc.ravel())
            vals.append(_average_basis_block(g.size).ravel())
        rest = np.flatnonzero(~in_group)
        rows.append(rest)
        cols.append(rest)
        vals.append(np.ones(rest.size))
        return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n))

    @staticmethod
    def assert_bitwise_equal(T, ref):
        for a, b in ((T.indptr, ref.indptr), (T.indices, ref.indices), (T.data, ref.data)):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("variant", ["p1", "p0"])
    @pytest.mark.parametrize("bc", [bd.BoundarySpec.neumann_left(), bd.BoundarySpec.all_dirichlet()])
    def test_transform_matches_per_group_build(self, variant, bc):
        part, spaces, cls = classify(nx=12, grid=(3, 3), variant=variant, primal="vertex-edge", bc=bc)
        mesh, refined = part.mesh, part.mesh.refined_mesh
        u_edges = [spaces.fields["u"].dof_of_node[nodes] for nodes in reference_edge_groups(refined.nx, refined.ny, part.grid)]
        u_groups = [dofs + comp for dofs in u_edges for comp in range(2)]
        p_edges = [spaces.fields["p"].dof_of_node[nodes] for nodes in reference_edge_groups(mesh.nx, mesh.ny, part.grid)]
        p_groups = [dofs[dofs >= 0] for dofs in p_edges if np.any(dofs >= 0)]
        self.assert_bitwise_equal(cls.u.transform, self.per_group_transform(spaces.n_dofs["u"], u_groups))
        self.assert_bitwise_equal(cls.p.transform, self.per_group_transform(spaces.n_dofs["p"], p_groups))

    def test_transform_of_mixed_group_sizes_matches_per_group_build(self):
        # groups of two sizes, interleaved as in a field with two edge lengths
        groups = [np.array([3, 4, 5]), np.array([10, 11]), np.array([0, 1, 2]), np.array([20, 21])]
        stacked = [np.stack(groups[0::2]), np.stack(groups[1::2])]  # one (groups, m) array per size
        self.assert_bitwise_equal(_build_transform(25, stacked), self.per_group_transform(25, groups))

    @staticmethod
    def assert_incidence_is_reference(inc, space, grid):
        for got, want in zip((inc.dof, inc.sub), reference_incidence(space, grid)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    @REFERENCE_GRIDS
    @pytest.mark.parametrize("variant", ["p1", "p0"])
    @pytest.mark.parametrize("bc", [bd.BoundarySpec.neumann_left(), bd.BoundarySpec.all_dirichlet()], ids=["neumann-left", "dirichlet"])
    @pytest.mark.parametrize("primal", ["vertex", "vertex-edge"])
    def test_classification_matches_per_edge_reference(self, nx, grid, variant, bc, primal):
        # the incidence against the sorted one, the edge averages against
        # the groups formed one edge and one component at a time
        part, spaces, cls = classify(nx, grid, variant, primal, bc)
        for fld, split in cls.splits.items():
            space = spaces.fields[fld]
            if fld == "xi" and variant == "p0":
                assert split.rows.dof.size == 0
                continue
            self.assert_incidence_is_reference(_incidence(space, grid), space, grid)
            if fld == "xi":
                continue
            is_primal = _lattice_corners(space, grid)
            if primal == "vertex":
                assert split.transform is None
            else:
                groups = reference_edge_averages(space, grid)
                is_primal[[g[0] for g in groups]] = True
                self.assert_bitwise_equal(split.transform, self.per_group_transform(space.n, groups))
            np.testing.assert_array_equal(split.is_primal, is_primal)

    @REFERENCE_GRIDS
    @pytest.mark.parametrize("variant", ["p1", "p0"])
    @pytest.mark.parametrize("bc", ["neumann-left", "dirichlet"])
    @pytest.mark.parametrize("primal", ["vertex", "vertex-edge"])
    def test_broken_offsets_match_the_per_subdomain_reference(self, nx, grid, variant, bc, primal):
        # every per-subdomain set is read as a slice of its field's broken
        # layout: the dual offsets, the torn interior positions and each
        # preconditioner class's columns against the sets laid end to end
        cfg = bd.ExperimentConfig(nx=nx, subdomains=grid, total_pressure=variant, primal=primal, bc=bc, oracle="off")
        pipe = bd.build_pipeline(cfg)
        cls, pc, n_sub = pipe.cls, pipe.preconditioner, pipe.cls.n_subdomains
        base = 0
        for fld, split in cls.splits.items():
            np.testing.assert_array_equal(split.dual_offset, broken_offsets(split.dual_rows, n_sub))
            interior = np.concatenate(list(by_subdomain(split.interior, n_sub).values()))
            want = np.full(pipe.spaces.n_dofs[fld], -1)
            want[interior] = base + np.arange(interior.size)
            np.testing.assert_array_equal(cls.layout.int_pos[fld], want)
            base += interior.size
        for fld, block in (("xi", pc.xi), ("p", pc.pressure), ("u", pc.multiplier)):
            if block is None:  # p0: no total pressure trace
                continue
            split = cls.splits[fld]
            offsets, primal = broken_offsets(split.dual_rows, n_sub), by_subdomain(split.primal_rows, n_sub)
            for members, c in zip(pipe.system.classes(FIELD_BLOCK[fld]), block.classes, strict=True):
                for j, s in enumerate(members):
                    np.testing.assert_array_equal(c.idx[:, j], np.arange(offsets[s], offsets[s + 1]))
                    # the multipliers' block has no coarse problem
                    want = [] if fld == "u" else np.searchsorted(split.primal, primal[s])
                    np.testing.assert_array_equal(c.primal[:, j], want)

    @settings(max_examples=40, deadline=None)
    @given(
        gx=st.integers(1, 5), gy=st.integers(1, 5), m=st.integers(1, 4),
        fld=st.sampled_from(["u", "xi", "p"]), dirichlet=st.booleans(),
    )
    def test_incidence_is_the_sorted_reference(self, gx, gy, m, fld, dirichlet):
        bc = bd.BoundarySpec.all_dirichlet() if dirichlet else bd.BoundarySpec.neumann_left()
        spaces = bd.build_spaces(bd.build_mesh(gx * m, (gx, gy)), "p1", bc)
        self.assert_incidence_is_reference(_incidence(spaces.fields[fld], (gx, gy)), spaces.fields[fld], (gx, gy))

    @pytest.mark.parametrize("nx, ny, grid", [(8, 8, (4, 4)), (4, 4, (4, 4)), (24, 12, (4, 2)), (12, 36, (1, 3)), (8, 4, (2, 2)), (8, 8, (4, 2))])
    def test_edge_groups_are_the_per_edge_runs(self, nx, ny, grid):
        # square subdomains give one array, others one per direction
        arrays = _edge_groups(nx, ny, grid)
        assert len(arrays) == (1 if nx // grid[0] == ny // grid[1] else 2)
        rows = [row for nodes in arrays for row in nodes]
        want = reference_edge_groups(nx, ny, grid)
        assert len(rows) == len(want)
        for got, ref in zip(rows, want):
            np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("primal_nodes, floating, n_locations", [
        ((), 0, 0), ((40,), 0, 1), ((36, 13), 2, 1), ((36, 40), None, None),
    ])
    def test_floating_check_names_the_lowest_subdomain(self, primal_nodes, floating, n_locations):
        # 2x2 subdomains clamped on the right only: 0 and 2 float.  The
        # displacement is primal (both components) at the chosen nodes of
        # the 8x8 refined mesh: the centre 40, the left midpoint 36 (in 0
        # and 2) and 13, on the vertical interface below the centre (in 0
        # and 1)
        bc = bd.BoundarySpec(("right",), ("right",))
        _, spaces, cls = classify(nx=4, bc=bc)
        space = spaces.fields["u"]
        is_primal = np.zeros(space.n, dtype=bool)
        is_primal[space.node_dofs(np.array(primal_nodes, dtype=np.int64))] = True
        chosen = dataclasses.replace(cls, u=FieldSplit(cls.n_subdomains, cls.u.interior, cls.u.rows, is_primal))
        if floating is None:
            _check_floating(chosen)
            return
        why = f"^subdomain {floating} floats: no Dirichlet contact and only {n_locations} primal constraint location"
        with pytest.raises(bd.ConfigurationError, match=why):
            _check_floating(chosen)

    @pytest.mark.parametrize("bc", [bd.BoundarySpec.neumann_left(), bd.BoundarySpec.all_dirichlet()])
    def test_incidence_matches_element_partition(self, bc):
        # a dof's sharers are the subdomains whose elements touch its node;
        # the non-square mesh and grid put interface lines, outer boundary
        # lines and traction corners at different positions along each axis
        mesh = bd.build_mesh(24, (4, 2))
        part = bd.partition(mesh, (4, 2))
        spaces = bd.build_spaces(mesh, "p1", bc)
        cls = bd.classify_dofs(part, spaces, "vertex")
        refined = mesh.refined_mesh

        def expected(m, elements, dofs_of_node):
            rows = set()
            for s, elems in elements.items():
                for node in np.unique(m.triangles[elems]):
                    rows.update((int(d), s) for d in dofs_of_node(node))
            rows = np.array(sorted(rows), dtype=np.int64)
            dof, count = np.unique(rows[:, 0], return_counts=True)
            return rows[np.isin(rows[:, 0], dof[count > 1])]

        def u_dofs(node):
            d = spaces.fields["u"].dof_of_node[node]
            return [d, d + 1] if d >= 0 else []

        def p_dofs(node):
            d = spaces.fields["p"].dof_of_node[node]
            return [d] if d >= 0 else []

        base = {s: np.flatnonzero(element_subdomains(mesh, part.grid) == s) for s in range(8)}
        for inc, want in (
            (cls.u.rows, expected(refined, {s: np.flatnonzero(element_subdomains(refined, part.grid) == s) for s in range(8)}, u_dofs)),
            (cls.xi.rows, expected(mesh, base, lambda node: [node])),
            (cls.p.rows, expected(mesh, base, p_dofs)),
        ):
            np.testing.assert_array_equal(np.column_stack([inc.dof, inc.sub]), want)

    def test_unknown_primal_variant_rejected(self):
        part, spaces, _ = classify()
        with pytest.raises(bd.ConfigurationError):
            bd.classify_dofs(part, spaces, "corner")


class TestScalings:
    @pytest.mark.parametrize("variant", ["p1", "p0"])
    @pytest.mark.parametrize("primal", ["vertex", "vertex-edge"])
    def test_partition_of_unity_exact(self, variant, primal):
        mats = bd.MaterialField.checkerboard(
            (3, 3), E=1.0, nu=0.3, alpha=1.0, kappa=1.0,
            black={"E": 1e4, "kappa": 1e-3},
        )
        _, _, cls = classify(12, (3, 3), variant, primal)
        sc = bd.build_scalings(cls, mats)
        for dof, pair in zip(cls.u.dual, cls.u.dual_rows.sub.reshape(-1, 2)):
            total = sum(weight(sc, "u", int(dof), int(s)) for s in pair)
            assert total == 1.0  # exact by construction, not approx
        for dof in cls.xi.interface:
            subs = sharers(cls.xi.rows, int(dof))
            assert sum(weight(sc, "xi", int(dof), int(s)) for s in subs) == 1.0
        for dof in np.concatenate([cls.p.dual, cls.p.primal]):
            subs = sharers(cls.p.rows, int(dof))
            assert sum(weight(sc, "p", int(dof), int(s)) for s in subs) == 1.0
        for dof in cls.u.primal:
            subs = sharers(cls.u.rows, int(dof))
            assert sum(weight(sc, "u", int(dof), int(s)) for s in subs) == 1.0

    def test_weights_follow_material_contrast(self):
        # displacement weights scale with mu, total pressure with 1/mu,
        # pressure with kappa
        mats = bd.MaterialField.checkerboard(
            (2, 2), E=1.0, nu=0.3, alpha=1.0, kappa=1.0,
            black={"E": 99.0, "kappa": 4.0},
        )
        _, _, cls = classify()
        sc = bd.build_scalings(cls, mats)
        dof = int(cls.u.dual[0])
        s0, s1 = cls.u.dual_rows.sub.reshape(-1, 2)[0]
        ratio = weight(sc, "u", dof, s0) / weight(sc, "u", dof, s1)
        assert ratio == pytest.approx(mats.mu[s0] / mats.mu[s1])
        xd = int(cls.xi.interface[0])
        t0, t1 = sharers(cls.xi.rows, xd)[:2]
        ratio = weight(sc, "xi", xd, t0) / weight(sc, "xi", xd, t1)
        assert ratio == pytest.approx(mats.mu[t1] / mats.mu[t0])
        pd = int(cls.p.dual[0])
        q0, q1 = sharers(cls.p.rows, pd)[:2]
        ratio = weight(sc, "p", pd, q0) / weight(sc, "p", pd, q1)
        assert ratio == pytest.approx(mats.kappa[q0] / mats.kappa[q1])


class TestJump:
    @staticmethod
    def build(grid=(2, 2), nx=8, black=None):
        mats = (
            bd.MaterialField.checkerboard(grid, E=1.0, nu=0.3, alpha=1.0, kappa=1.0, black=black)
            if black
            else bd.MaterialField.uniform(grid, E=1.0, nu=0.3, alpha=1.0, kappa=1.0)
        )
        _, _, cls = classify(nx, grid)
        sc = bd.build_scalings(cls, mats)
        return cls, bd.build_jump(cls, sc)

    def test_rows_are_signed_pairs(self):
        cls, jump = self.build()
        B = jump.unit.T.tocsr()
        assert jump.unit.T.shape[0] == cls.u.dual.size
        for k in range(B.shape[0]):
            row = B.getrow(k)
            assert row.nnz == 2
            assert sorted(row.data) == [-1.0, 1.0]

    def test_scaled_jump_identity_exact(self):
        _, jump = self.build(black={"E": 1e3})
        prod = (jump.unit.T @ jump.scaled).toarray()
        np.testing.assert_array_equal(prod, np.eye(jump.unit.T.shape[0]))

    def test_jump_annihilates_continuous_traces(self):
        cls, jump = self.build()
        B = jump.unit.T.tocsr()
        rng = np.random.default_rng(0)
        w = np.zeros(B.shape[1])
        for k in range(B.shape[0]):
            w[B.getrow(k).indices] = rng.standard_normal()
        assert np.max(np.abs(B @ w)) == 0.0


TRANSFER_CASES = [
    pytest.param(variant, primal, bc, id=f"{variant}-{primal}-{bc}")
    for variant in ("p1", "p0") for primal in ("vertex", "vertex-edge") for bc in ("neumann-left", "dirichlet")
]


class TestRestrictions:
    """The one transfer rule of the pressure-like fields, on a 3x3
    checkerboard: each field with interface dofs maps its assembled
    interface to its broken dual rows, subdomain by subdomain, then to its
    primal dofs (total pressure has none)."""

    @staticmethod
    def build(variant, primal, bc):
        mats = bd.MaterialField.checkerboard(
            (3, 3), E=1.0, nu=0.3, alpha=1.0, kappa=1.0, black={"E": 50.0, "kappa": 1e-3},
        )
        bc = bd.BoundarySpec.neumann_left() if bc == "neumann-left" else bd.BoundarySpec.all_dirichlet()
        _, _, cls = classify(12, (3, 3), variant, primal, bc)
        sc = bd.build_scalings(cls, mats)
        rs = bd.build_restrictions(cls, sc)
        assert set(rs) == {"xi", "p"}
        return cls, sc, [(fld, rs[fld]) for fld in ("xi", "p") if cls.splits[fld].interface.size]

    @pytest.mark.parametrize("variant, primal, bc", TRANSFER_CASES)
    def test_averaging_operators_are_projections(self, variant, primal, bc):
        _, _, transfers = self.build(variant, primal, bc)
        assert [fld for fld, _ in transfers] == (["xi", "p"] if variant == "p1" else ["p"])
        for _, t in transfers:
            P = (t.unit @ t.scaled.T).toarray()
            np.testing.assert_allclose(P @ P, P, atol=1e-14)

    @pytest.mark.parametrize("variant, primal, bc", TRANSFER_CASES)
    def test_break_then_average_is_identity(self, variant, primal, bc):
        cls, _, transfers = self.build(variant, primal, bc)
        rng = np.random.default_rng(1)
        for fld, t in transfers:
            xg = rng.standard_normal(cls.splits[fld].interface.size)
            err = t.scaled.T @ (t.unit @ xg) - xg
            assert np.max(np.abs(err)) < 1e-14
            diff = (t.unit.T @ t.scaled - sp.identity(xg.size)).tocoo()
            assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0  # exactly I

    @pytest.mark.parametrize("variant, primal, bc", TRANSFER_CASES)
    def test_rows_carry_weights_then_ones(self, variant, primal, bc):
        cls, sc, transfers = self.build(variant, primal, bc)
        for fld, t in transfers:
            split = cls.splits[fld]
            # dual rows subdomain by subdomain, then the primal dofs
            duals = by_subdomain(split.dual_rows, cls.n_subdomains)
            want = [(int(d), weight(sc, fld, int(d), s)) for s, dofs in duals.items() for d in dofs]
            want += [(int(d), 1.0) for d in split.primal]
            assert t.unit.shape == t.scaled.shape == (len(want), split.interface.size)
            for k, (dof, w) in enumerate(want):
                col = [int(split.interface_pos(dof))]
                assert t.unit.getrow(k).indices.tolist() == t.scaled.getrow(k).indices.tolist() == col
                assert t.unit.getrow(k).data.tolist() == [1.0]
                assert t.scaled.getrow(k).data.tolist() == [w]
            if fld == "xi":
                assert split.primal.size == 0


class TestTransferCheck:
    """One checked constructor builds the three transfers: a dual weight
    that breaks the partition of unity fails its segment's identity."""

    @pytest.mark.parametrize("fld, what", [("u", "multiplier"), ("xi", "total pressure"), ("p", "pressure")])
    def test_perturbed_weight_names_the_segment(self, fld, what):
        cls, sc, _ = TestRestrictions.build("p1", "vertex", "neumann-left")
        weights = sc.weights[fld].copy()
        weights[np.flatnonzero(~cls.splits[fld].row_is_primal)[0]] += 0.25
        bad = bd.ScalingWeights(cls, {**sc.weights, fld: weights})
        build = bd.build_jump if fld == "u" else bd.build_restrictions
        with pytest.raises(bd.InternalError, match=f"^{what} transfer identity failed"):
            build(cls, bad)


class TestTransformSystem:
    @staticmethod
    def assemble(primal):
        mesh = bd.build_mesh(8, (2, 2))
        bc = bd.BoundarySpec.neumann_left()
        mats = bd.MaterialField.uniform((2, 2), E=1.0, nu=0.3, alpha=1.0, kappa=1.0)
        spaces = bd.build_spaces(mesh, "p1", bc)
        system = bd.assemble_blocks(spaces, mats, bd.LoadSpec())
        part = bd.partition(mesh, (2, 2))
        cls = bd.classify_dofs(part, spaces, primal)
        return system, cls

    def test_vertex_variant_untouched(self):
        system, cls = self.assemble("vertex")
        assert bd.transform_system(system, cls) is system

    @pytest.mark.parametrize("primal", ["vertex", "vertex-edge"])
    @pytest.mark.parametrize("part_grid, mat_grid", [((2, 2), (4, 4)), ((4, 4), (2, 2))])
    def test_partition_grid_must_be_the_materials(self, primal, part_grid, mat_grid):
        mesh = bd.build_mesh(32, (4, 4))
        spaces = bd.build_spaces(mesh, "p1", bd.BoundarySpec.neumann_left())
        mats = bd.MaterialField.uniform(mat_grid, E=1.0, nu=0.3, alpha=1.0, kappa=1.0)
        system = bd.assemble_blocks(spaces, mats)
        cls = bd.classify_dofs(bd.partition(mesh, part_grid), spaces, primal)
        with pytest.raises(bd.ConfigurationError, match="differs from"):
            bd.transform_system(system, cls)

    def test_edge_average_congruence(self):
        system, cls = self.assemble("vertex-edge")
        out = bd.transform_system(system, cls)
        Tu = cls.u.transform.toarray()
        Tp = cls.p.transform.toarray()
        np.testing.assert_allclose(
            out.A.toarray(), Tu.T @ system.A.toarray() @ Tu, atol=1e-12
        )
        np.testing.assert_allclose(
            out.E.toarray(), Tp.T @ system.E.toarray() @ Tp, atol=1e-12
        )
        np.testing.assert_allclose(
            out.B.toarray(), system.B.toarray() @ Tu, atol=1e-12
        )

    def test_local_blocks_transform_congruently(self):
        system, cls = self.assemble("vertex-edge")
        out = bd.transform_system(system, cls)
        for s, lb in local_blocks(system).items():
            Tu = cls.u.transform[np.ix_(lb.dofs["u"], lb.dofs["u"])].toarray()
            Tp = cls.p.transform[np.ix_(lb.dofs["p"], lb.dofs["p"])].toarray()
            new = local_view(out.stacked, s)
            pairs = [
                (new.A, Tu.T @ lb.A.toarray() @ Tu),
                (new.B, lb.B.toarray() @ Tu),
                (new.C, lb.C.toarray()),
                (new.D, Tp.T @ lb.D.toarray()),
                (new.E, Tp.T @ lb.E.toarray() @ Tp),
                (new.f, Tu.T @ lb.f),
                (new.g, Tp.T @ lb.g),
            ]
            for got, want in pairs:
                got = got.toarray() if hasattr(got, "toarray") else got
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("case", list(MULTI_MEMBER_GRIDS))
    def test_tiles_match_each_members_own_transform(self, case):
        # only the representatives are transformed; every member must read
        # what its own T_s^T M_s T_s (roundoff fill dropped) gives, bit for bit
        kw, _ = MULTI_MEMBER_GRIDS[case]
        cfg = bd.ExperimentConfig(primal="vertex-edge", **kw)
        mesh, spaces, system, ref = assemble_with_reference(cfg)
        cls = bd.classify_dofs(bd.partition(mesh, cfg.subdomains), spaces, "vertex-edge")
        out = bd.transform_system(system, cls)
        assert_stored_once(out)
        for s, lb in local_blocks(out).items():
            Tu = cls.u.transform[lb.dofs["u"]][:, lb.dofs["u"]]
            Tp = cls.p.transform[lb.dofs["p"]][:, lb.dofs["p"]]
            A, B, C, D, E = (ref[name][0][s] for name in "ABCDE")
            own = dict(A=Tu.T @ A @ Tu, B=B @ Tu, C=C, D=Tp.T @ D, E=Tp.T @ E @ Tp)
            for name, want in own.items():
                want = _drop_roundoff(want, np.array([0, want.shape[0]]))
                got = getattr(lb, name)
                assert np.array_equal(got.indptr, want.indptr) and np.array_equal(got.indices, want.indices)
                assert np.array_equal(got.data, want.data), (s, name)
            for got, want in ((lb.f, Tu.T @ ref["f"][0][s]), (lb.g, Tp.T @ ref["g"][0][s])):
                assert np.array_equal(got, want), s

    def test_recover_nodal_applies_transform(self):
        _, cls = self.assemble("vertex-edge")
        rng = np.random.default_rng(5)
        ut = rng.standard_normal(cls.u.transform.shape[1])
        pt = rng.standard_normal(cls.p.transform.shape[1])
        ur, pr = bd.recover_nodal(cls, ut, pt)
        np.testing.assert_allclose(ur, cls.u.transform @ ut, atol=1e-14)
        np.testing.assert_allclose(pr, cls.p.transform @ pt, atol=1e-14)

    def test_recover_nodal_identity_for_vertex(self):
        _, cls = self.assemble("vertex")
        u = np.arange(4.0)
        ur, pr = bd.recover_nodal(cls, u, u + 1)
        np.testing.assert_array_equal(ur, u)
        np.testing.assert_array_equal(pr, u + 1)
