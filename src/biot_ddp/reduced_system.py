"""Reduction of the torn block system to an interface problem.

Displacement unknowns are duplicated along subdomain boundaries (dual
copies) and constrained by signed jump multipliers, while coarse primal
displacement dofs stay continuous.  Eliminating all subdomain-local
unknowns and the primal coarse solve leaves a symmetric positive definite
operator on the continuous total pressure trace, the continuous pressure
trace, and the multipliers.  That operator is only ever applied
matrix-free: local saddle solves plus one banded coarse solve per
application.  Subdomains with one assembly key (the sides of the square
touched and the material; the interior, edge and corner subdomains of a
uniform grid) form one congruence class, whose local blocks are stored
once, as the representative's: only its saddle block is built and
factored, and the members are reached through their index maps.
When few classes serve many subdomains, each class is also condensed once
onto its members' interface rows into one dense map, and no local solve
runs per application.  Only a source class solves for its map; a class
whose sides differ from a source's only where it has Dirichlet sides
(``class_sources``, the rule the preconditioner's Schur complements
share) derives its map from the source's by one small dense Schur step,
since a Schur complement of a Schur complement is a Schur complement
(``_condense``).  The torn inverse, the condensed operator and each
preconditioner block are one ``PartiallyAssembled``: classes of one type,
``LocalClass``, each applied to all its members at once, and the one
``CoarseProblem`` that couples them, which it builds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .decomposition import DofClassification, InternalError, TornLayout, Transfer, split_segments
from .mesh_fem import BLOCK_PARAMS, SIDES, BlockSystem, ConfigurationError, subdomain_sides

_DENSE_FACTOR_CUTOFF = 400
_PAYBACK_APPLIES = 32
_PROBE_TOL = 1e-8  # largest relative residual of a local solve's probe

# LAPACK's dense LU and banded Cholesky kernels, called directly: each
# matrix is checked once, where it is factored, and no solve scans the
# factor again
_getrf, _getrs, _pbtrf, _pbtrs = sla.get_lapack_funcs(("getrf", "getrs", "pbtrf", "pbtrs"), dtype=np.float64)


def _rejected(name: str, why: str) -> ConfigurationError:
    return ConfigurationError(
        f"{name}: {why}; the block is singular or near singular, typically an unconstrained subdomain"
    )


class SaddleFactor:
    """LU factorization of one symmetric local block, solving for a whole
    matrix of right-hand sides at once.

    ``label`` names the block in a rejection.  Uses dense LAPACK below a
    size cutoff (or for dense input) and sparse LU above it.

    Every block factored here is symmetric: the torn saddle blocks
    [[A, B^T, 0], [B, -C, D^T], [0, D, -E]] are quasi-definite (A positive
    definite once the primal dofs are removed, the flow block negative
    definite), the elastic and flow interior blocks positive definite.
    The sparse path therefore orders rows and columns by one symmetric
    permutation (minimum degree on A^T + A) and takes the diagonal
    pivots: a symmetric quasi-definite matrix has an LDL^T factorization
    under every symmetric permutation (Vanderbei 1995), and its accuracy
    rests on how well conditioned the two definite parts are against the
    coupling (Gill, Saunders and Shinnerl 1996).  Here that ratio is about
    lambda/mu: a total-pressure pivot taken before its displacement
    neighbours adds the lambda div-div penalty to the elastic block, and
    about log10(lambda/mu) digits of the solve are lost as nu nears 1/2.
    A zero diagonal entry still gets an off-diagonal pivot from SuperLU.
    Against the column ordering and partial pivoting of the default this
    cuts the fill by about a third and leaves the factor, and so the
    interface operator, symmetric to roundoff.

    The guard is a random solve probe of one column (``_probe``), which
    rejects silently singular blocks (a floating subdomain without enough
    primal constraints, for instance); an exactly singular dense block (a
    zero pivot of ``getrf``) and a block with a non-finite entry are
    rejected the same way, since their solves are not finite.  Either
    raises ``ConfigurationError`` naming the block.  The probe is the one
    check: a dense solve is one ``getrs`` call on the factor that passed
    it, with no scan of the factor or of the right-hand side.  When a
    sparse factor fails the probe, which the lost digits do near the
    incompressible limit, it keeps the factored block and solves with one
    step of iterative refinement against it from then on; the block is
    probed again and rejected only if it still fails.

    ``nnz`` is the factor's size: n^2 for a dense factor, the entries
    SuperLU stores for L and U (supernodes included) for a sparse one.
    """

    def __init__(self, label: str, K):
        self.n = K.shape[0]
        self.nnz = 0
        self._dense = self._sparse = self._refine = None
        if self.n == 0:
            return
        if self.n < _DENSE_FACTOR_CUTOFF or not sp.issparse(K):
            # a fresh Fortran-ordered copy, factored in place
            A = K.toarray(order="F") if sp.issparse(K) else np.array(K, dtype=np.float64, order="F")
            self._dense = _getrf(A, overwrite_a=True)[:2]
            self.nnz = self.n * self.n
        else:
            try:
                self._sparse = spla.splu(
                    K.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options=dict(SymmetricMode=True)
                )
            except RuntimeError as err:  # SuperLU met a zero pivot column
                raise _rejected(label, "sparse LU met an exactly zero pivot") from err
            self.nnz = self._sparse.nnz
        rel = _probe(K, self.solve)
        if self._sparse is not None and rel > _PROBE_TOL:
            self._refine = K
            rel = _probe(K, self.solve)
        if rel > _PROBE_TOL:
            raise _rejected(label, f"local solve failed its residual probe ({rel:.2e})")

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solution for a vector or an (n, k) matrix of right-hand sides."""
        if b.size == 0:
            return np.zeros_like(b)
        if self._dense is not None:
            return _getrs(*self._dense, b)[0]
        z = self._sparse.solve(b)
        if self._refine is not None:
            z += self._sparse.solve(b - self._refine @ z)
        return z


def _probe(K, solve) -> float:
    """Relative residual of ``solve`` on the seeded random right-hand side
    K x; inf where it is not finite.

    One column serves a block however many subdomains share it: the
    members of a class share one factor of one matrix, so further columns
    drawn from the same seeded distribution would test the same matrix
    again, not the members.
    """
    b = K @ np.random.default_rng(12345).standard_normal(K.shape[0])
    e = np.linalg.norm(K @ solve(b) - b) / (np.linalg.norm(b) or 1.0)
    return float(e) if np.isfinite(e) else np.inf


def trailing_schur(label: str, K: sp.spmatrix, k: int) -> np.ndarray:
    """The dense Schur complement K_kk - K_ke K_ee^{-1} K_ek of the last k
    unknowns of the symmetric sparse K, from one LU of K in the given order.

    SuperLU factors K as ``SaddleFactor`` does, with diagonal pivots and
    symmetric mode, but keeps the order (any fill-reducing order of the
    eliminated unknowns is the caller's).  As long as its elimination-tree
    postorder and its pivots leave the last k unknowns in place, the
    trailing blocks of the factors satisfy L_kk U_kk = S: SuperLU forms S
    while it factors, in dense supernodes, and only the trailing k columns
    of L and U are multiplied.  A postorder that moves them is a fault of
    the order (``InternalError``).  A pivot row that moves them was taken
    because a column had nothing left on and below the diagonal but in
    kept rows: the eliminated block is exactly singular.  That, an exactly
    zero pivot, and a factor that fails the probe of ``SaddleFactor`` are
    rejected with ``ConfigurationError`` naming ``label``.  The factor is
    not kept.
    """
    n = K.shape[0]
    try:
        lu = spla.splu(K.tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    except RuntimeError as err:  # SuperLU met a zero pivot column
        raise _rejected(label, "sparse LU met an exactly zero pivot") from err
    tail = np.arange(n - k, n)
    if not np.array_equal(lu.perm_c[tail], tail):
        raise InternalError(f"{label}: the sparse LU moved the kept unknowns from the end of its order")
    if not np.array_equal(lu.perm_r[tail], tail):
        raise _rejected(label, "sparse LU met an exactly zero pivot in the eliminated block")
    rel = _probe(K, lu.solve)
    if rel > _PROBE_TOL:
        raise _rejected(label, f"local solve failed its residual probe ({rel:.2e})")
    L, U = lu.L, lu.U
    return L[n - k :, n - k :].toarray() @ U[n - k :, n - k :].toarray()


def coarse_band(n: int, parts: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """The n x n primal Schur complement S in LAPACK's lower band storage,
    as the pair [S, S^T]: entry (j + d, j) of each at [d, j], for d up to
    the half-bandwidth kd.  Each part is a class's primal columns (one
    per member, as ``LocalClass.primal``) and its contribution A_PP -
    A_rP^T X, added at every member's primal unknowns; kd is the widest
    spread of one member's primal unknowns.  Every entry sums its addends
    in the order ``np.add.at`` takes them over the dense matrix, class by
    class, so it is bitwise that dense assembly's entry.  Each half is
    Fortran-ordered, as LAPACK takes it."""
    kd = max((int(np.ptp(p, axis=0).max()) for p, _ in parts if p.size), default=0)
    pos, val = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    for primal, S in parts:
        i, j = np.broadcast_arrays(primal[:, None, :], primal[None, :, :])
        # S's band holds the entries on and below the diagonal, S^T's those
        # above it, each in the column of the lower index
        pos.append((((i < j) * n + np.minimum(i, j)) * (kd + 1) + np.abs(i - j)).ravel())
        val.append(np.broadcast_to(S[:, :, None], i.shape).ravel())
    # bincount adds in input order, as np.add.at (and gives integers when
    # nothing is added)
    flat = np.bincount(np.concatenate(pos), np.concatenate(val), minlength=2 * n * (kd + 1))
    band = flat.astype(np.float64, copy=False).reshape(2, n, kd + 1).transpose(0, 2, 1)
    band[1, 0] = band[0, 0]  # the shared diagonal
    return band


class CoarseProblem:
    """Banded Cholesky of a primal Schur complement, in the natural primal
    order.

    The matrix couples only primal unknowns of one subdomain, and the
    primal unknowns are numbered as their dofs, node by node along the
    grid lines.  A subdomain's primal unknowns lie on its boundary, between
    two neighbouring lines of subdomain vertices, so the half-bandwidth kd
    is about one such line's primal unknowns while n counts every line's:
    69 against 660 on 11 x 11 subdomains with edge averages, 99 against
    1440 on 16 x 16.  A reverse Cuthill-McKee order widens the band there
    (to 115 and 177).  The factor costs about n kd^2 flops and each solve
    4 n kd, against n^3 / 3 and 2 n^2 dense.

    The matrix is assembled here straight into band storage from the
    classes' ``parts`` (``coarse_band``) and checked once: a non-finite
    entry or an asymmetry beyond roundoff is a fault of the build
    (``InternalError``), a matrix that is not positive definite a primal
    constraint set that does not control every subdomain
    (``ConfigurationError``).  The band of (S + S^T) / 2 is factored by
    ``pbtrf``, and every solve is one ``pbtrs`` call on the factor, which
    runs once or more per operator and preconditioner application.
    """

    def __init__(self, n: int, parts: list[tuple[np.ndarray, np.ndarray]]):
        self.n = n
        band = coarse_band(n, parts)
        self.kd = band.shape[1] - 1
        self._cho = None
        if n == 0:
            return
        S, T = band  # the lower bands of S and of S^T
        D = S - T
        asym = float(np.abs(D, out=D).max())
        # a non-finite entry leaves S - S^T non-finite at its position
        if not np.isfinite(asym):
            raise InternalError("coarse matrix has non-finite entries")
        scale = max(float(band.max()), -float(band.min())) or 1.0
        # Roundoff from hundreds of accumulated subdomain solves; anything
        # beyond this hints at an indexing bug rather than floating point.
        if asym > 1e-6 * scale:
            raise InternalError(f"coarse matrix asymmetry {asym:.2e} exceeds tolerance")
        # D takes the band of (S + S^T) / 2, Fortran-ordered as S and T,
        # and is factored in place
        np.add(T, S, out=D)
        D *= 0.5
        self._cho, info = _pbtrf(D, lower=1, overwrite_ab=1)
        if info > 0:
            raise ConfigurationError(
                "coarse problem is not positive definite; "
                "the primal constraint set does not control every subdomain's null space"
            )

    def solve(self, b: np.ndarray) -> np.ndarray:
        if self.n == 0:
            return np.zeros_like(b)
        return _pbtrs(self._cho, b, lower=1)[0]


@dataclass
class LocalClass:
    """Congruent subdomains sharing one local map, applied to all members at
    once.

    Column j of ``idx`` gathers member j's local unknowns from the vector
    being solved for (members may share rows; their results add up), column
    j of ``primal`` its primal unknowns from the coarse segment at the end
    of that vector.  The map is the matrix ``S``, whose rows past ``idx``'s
    give the primal right-hand side: [F; Psi^T] of a condensed torn class,
    [S_dd^{-1}; X^T] of a BDDC class, the Dirichlet map of a λ class.  Only
    the torn classes keep a ``factor`` instead, with the primal right-hand
    side ``A_Pr`` times its solution (a condensed torn class keeps it too).
    """

    idx: np.ndarray  # (n, members)
    primal: np.ndarray  # (n_primal_local, members)
    X: np.ndarray | None = None  # primal coupling factor^{-1} A_rP (or Psi), for the back-substitution
    factor: SaddleFactor | None = None
    A_Pr: np.ndarray | None = None  # primal-local coupling A_rP^T, dense
    S: np.ndarray | sp.spmatrix | None = None

    def apply(self, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Local solution and primal right-hand side of gathered ``Y``."""
        if self.S is None:
            Z = self.factor.solve(Y)  # looked up per call: tracing patches it
            return Z, self.A_Pr @ Z
        Z = self.S @ Y
        return Z[: self.idx.shape[0]], Z[self.idx.shape[0] :]


def primal_coupling(factor: SaddleFactor, A_rP: np.ndarray, A_PP: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X = factor^{-1} A_rP and the primal Schur contribution A_PP - A_rP^T X
    that each member adds to the coarse matrix (``CoarseProblem``)."""
    X = factor.solve(A_rP)
    return X, A_PP - A_rP.T @ X


@dataclass
class PartiallyAssembled:
    """A partially assembled system (Li and Widlund 2006): subdomain blocks,
    one class per congruence class, coupled only through the primal
    unknowns stored in the last ``coarse.n`` entries.  ``at`` is where the
    members' unknowns lie, ``sources`` how many classes formed their own map
    (the others derive it: ``_condense``, ``preconditioner.class_schurs``).
    """

    classes: list[LocalClass]
    coarse: CoarseProblem
    sources: int = 0
    at: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.at = np.concatenate([np.zeros(0, dtype=np.int64), *(c.idx.ravel() for c in self.classes)])

    @classmethod
    def assemble(cls, classes: list[LocalClass], n_primal: int, parts: list, sources: int = 0, **more):
        """The block of ``classes`` with the coarse problem on ``n_primal``
        unknowns assembled from ``parts`` (``CoarseProblem``)."""
        return cls(classes, CoarseProblem(n_primal, parts), sources, **more)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Each class gathers its members' unknowns, applies its local map and
        takes its primal right-hand side; one coarse solve; each class
        back-substitutes, and the results are added up onto ``at``."""
        n_local = b.size - self.coarse.n
        t_P = np.array(b[n_local:], copy=True)
        local = []
        for c in self.classes:
            Z, R = c.apply(b[c.idx])
            local.append(Z)
            if c.primal.size:
                t_P -= np.bincount(c.primal.ravel(), R.ravel(), minlength=t_P.size)
        x_P = self.coarse.solve(t_P)  # looked up per call: tracing patches it
        z = np.concatenate([(Z - c.X @ x_P[c.primal] if c.primal.size else Z).ravel()
                            for c, Z in zip(self.classes, local)])
        # without local unknowns bincount gets nothing to add and gives integers
        x = np.bincount(self.at, z, minlength=b.size).astype(np.float64, copy=False)
        x[n_local:] = x_P
        return x


def _side_kinds(system: BlockSystem, fields: tuple[str, ...]) -> np.ndarray:
    """Kind of each side of every subdomain (in ``SIDES`` order) for each
    of ``fields`` in turn: "interface" inside the square, else "dirichlet"
    or "free" by the field's boundary conditions (total pressure has none)."""
    bc = system.spaces.bc
    dirichlet = {"u": bc.displacement_dirichlet, "p": bc.pressure_dirichlet}
    outer = [np.where([side in dirichlet.get(f, ()) for side in SIDES], "dirichlet", "free") for f in fields]
    return np.where(np.tile(subdomain_sides(system.materials.grid), len(fields)), np.hstack(outer), "interface")


def _match(kept: np.ndarray, want: np.ndarray) -> np.ndarray | None:
    """The index in ``kept`` of each of ``want``, or None if one is missing."""
    order = np.argsort(kept)
    at = np.searchsorted(kept, want, sorter=order)
    if np.any(at >= kept.size):
        return None
    m = order[at]
    return m if np.array_equal(kept[m], want) else None


def class_sources(
    system: BlockSystem, groups: list[np.ndarray], names: str, fields: tuple[str, ...]
) -> list[tuple[int, int | None]]:
    """The order in which to form the maps of the congruence classes
    ``groups`` of the local blocks ``names``, each with its source: the
    class whose map it derives from, or None where it forms its own.

    Classes are visited with the fewest Dirichlet sides first (stable).
    Class r derives from the first earlier class c that forms its own,
    has r's material key (the ``BLOCK_PARAMS`` of ``names``) and, on each
    side and for each of ``fields``, r's kind or a Dirichlet side of r.
    Then r's unknowns are c's with those on its Dirichlet sides fixed or
    dropped, with the same material and the same change of basis.
    """
    params = sorted({p for n in names for p in BLOCK_PARAMS[n]})
    kinds = _side_kinds(system, fields)[[g[0] for g in groups]]
    material = [tuple(getattr(system.materials, p)[g[0]] for p in params) for g in groups]
    visits: list[tuple[int, int | None]] = []
    for i in sorted(range(len(groups)), key=lambda i: np.count_nonzero(kinds[i] == "dirichlet")):
        src = next((c for c, own in visits if own is None and material[c] == material[i] and np.all(
            (kinds[i] == kinds[c]) | (kinds[i] == "dirichlet"))), None)
        visits.append((i, src))
    return visits


def _row_keys(system: BlockSystem, cls: DofClassification, reps: list[int]) -> list[np.ndarray]:
    """Patch key (``FieldSpace.patch_keys``) of each interface row of each
    subdomain in ``reps``: its xi_G and p_G dofs, then the λ row of each
    dual copy, keyed by that copy, with the field (0, 1, 2) as the lowest
    digit."""
    parts = []
    for code, (fld, dofs) in enumerate((("xi", cls.xi.sub_interface), ("p", cls.p.sub_interface),
                                         ("u", cls.u.sub_dual))):
        sizes = [dofs[s].size for s in reps]
        keys = system.spaces.fields[fld].patch_keys(system.materials.grid, np.repeat(reps, sizes),
                                                    np.concatenate([dofs[s] for s in reps]))
        parts.append(np.split(3 * keys + code, np.cumsum(sizes)[:-1]))
    return [np.concatenate(p) for p in zip(*parts)]


def _condense(
    system: BlockSystem, cls: DofClassification, torn: PartiallyAssembled, members: list[np.ndarray],
    ymap: list[np.ndarray], D: list[np.ndarray], B_C_T: sp.csr_matrix,
) -> PartiallyAssembled:
    """The torn block with each class condensed onto its members' interface
    rows ``ymap``, on the torn coarse problem; its ``sources`` are the
    classes that did so by their own solve.  With B_0 the representative's
    coupling on those rows, the map is [F; Psi^T] with F = B_0 K_rr^{-1}
    B_0^T and the primal coupling Psi = B_0 X.

    Only a source class (``class_sources`` over u and p) solves for F.  On
    its rows Y_c, S_c = D_c - F_c is the Schur complement of its local
    saddle block [[K_rr, B_0^T], [B_0, D_c]], where ``D`` is the class's
    own saddle-signed C, D and E among its xi_G and p_G rows (zero on the
    λ rows).  A class r that derives from c keeps the rows k of c that
    match its own by patch key; it drops c's other p rows (p is Dirichlet
    there, by the side rule) and eliminates the rest, E: the xi rows on
    its Dirichlet sides, interior in r, and the λ row of each dual copy it
    fixes, which fixes that copy.  By the quotient property of Schur
    complements (Crabtree-Haynsworth), D_r - F_r = S_c[k, k] - S_c[k, E]
    S_c[E, E]^{-1} S_c[E, k]: one small dense LU and no sparse solve.  E
    may be empty: at H/h = 1 with edge averages an edge's one interior
    displacement node carries the average and is primal, so a side that is
    Dirichlet in r holds no dual copy and no interior xi row, and r only
    drops rows of c.  A
    row of r that c lacks, or an eliminated set that does not account for
    r's local unknowns, is an ``InternalError`` naming r's class.
    """
    classes, reps = torn.classes, [m[0] for m in members]
    keys = _row_keys(system, cls, reps)
    out: list[LocalClass] = [None] * len(classes)
    schur: dict[int, np.ndarray] = {}  # S_c of each source class
    at = np.full(B_C_T.shape[1], -1, dtype=np.int64)  # interface row -> position among a class's rows
    for i, src in class_sources(system, members, "ABCDE", ("u", "p")):
        c, r, n_G = classes[i], reps[i], D[i].shape[0]
        # the representative's columns of B_C couple to its rows alone
        Bt = B_C_T[c.idx[:, 0]]
        at[ymap[r]] = np.arange(ymap[r].size)
        rows = at[Bt.indices]
        at[ymap[r]] = -1
        if np.any(rows < 0):
            raise InternalError(f"subdomain {r}: its local unknowns couple to another subdomain's interface rows")
        B0 = sp.csr_matrix((Bt.data, rows, Bt.indptr), shape=(Bt.shape[0], ymap[r].size)).T
        if src is None:
            F = B0 @ c.factor.solve(B0.T.toarray())
            schur[i] = S = -F
            S[:n_G, :n_G] += D[i]
        else:
            name = f"subdomain {r} (class of {len(members[i])})"
            k = _match(keys[src], keys[i])
            if k is None:
                raise InternalError(f"{name}: an interface row is not a row of the class of subdomain {reps[src]}")
            rest = np.ones(keys[src].size, dtype=bool)
            rest[k] = False
            E = np.flatnonzero(rest & (keys[src] % 3 != 1))
            grown = c.idx.shape[0] - classes[src].idx.shape[0]  # r's eliminated xi rows less its fixed copies
            if grown != E.size - 2 * np.count_nonzero(keys[src][E] % 3 == 2):
                raise InternalError(f"{name}: its eliminated rows do not match the class of subdomain {reps[src]}")
            order = np.concatenate([k, E])
            S = schur[src][np.ix_(order, order)]
            F = -S[: k.size, : k.size]
            if E.size:
                lu, piv, info = _getrf(S[k.size :, k.size :])
                if info > 0:
                    raise InternalError(f"{name}: the rows it eliminates are singular in the class of subdomain {reps[src]}")
                F += S[: k.size, k.size :] @ _getrs(lu, piv, S[k.size :, : k.size])[0]
            F[:n_G, :n_G] += D[i]
        M = np.vstack([F, (B0 @ c.X).T])
        out[i] = LocalClass(idx=np.column_stack([ymap[s] for s in members[i]]), primal=c.primal,
                            X=M[F.shape[0] :].T, factor=c.factor, S=M)
    return PartiallyAssembled(out, torn.coarse, len(schur))


@dataclass
class ReducedSystem:
    """Matrix-free interface operator with everything needed to apply it,
    build its right-hand side, and recover the three fields."""

    system: BlockSystem
    cls: DofClassification
    jump: Transfer  # the multipliers': ``unit`` is B^T, over the broken dual copies
    B_C: sp.csr_matrix  # interface rows x torn columns
    B_C_T: sp.csr_matrix
    C_hat: sp.csr_matrix  # positive semidefinite interface coupling
    f_w: np.ndarray
    h: np.ndarray
    torn: PartiallyAssembled  # one class per congruence class of local saddle blocks
    condensed: PartiallyAssembled | None = None  # the torn block on the interface rows; None: apply by local solves
    B_P: sp.csr_matrix = field(init=False, repr=False)  # primal columns of B_C
    B_P_T: sp.csr_matrix = field(init=False, repr=False)

    def __post_init__(self):
        self.B_P_T = self.B_C_T[self.layout.primal_slice]
        self.B_P = self.B_P_T.T.tocsr()

    @property
    def factors(self) -> dict[int, LocalClass]:  # the torn classes, each keeping its factor
        return dict(enumerate(self.torn.classes))

    @property
    def coarse(self) -> CoarseProblem:  # shared by the condensed operator
        return self.torn.coarse

    @property
    def layout(self) -> TornLayout:
        return self.cls.layout

    @property
    def n(self) -> int:
        return self.B_C.shape[0]

    @property
    def segments(self) -> tuple[int, int, int]:
        return self.cls.segments

    def split(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return split_segments(y, self.segments)

    # -- torn operator ----------------------------------------------------

    def apply_torn_inverse(self, b: np.ndarray) -> np.ndarray:
        """Solve the partially assembled torn block via local factorizations
        and the coarse problem."""
        return self.torn.solve(b)

    def apply(self, y: np.ndarray) -> np.ndarray:
        """One application of the reduced interface operator.

        Condensed: G y = C_hat y + B_P x_P + sum_c scatter(F_c Y_c - Psi_c
        x_P[primal_c]), with Y_c = y[idx_c] and x_P = S_PP^{-1} (B_P^T y -
        sum_c gather(Psi_c^T Y_c)), solving [y; B_P^T y] through the classes;
        otherwise B_C K^{-1} B_C^T y + C_hat y through the local factors.
        """
        if self.condensed is None:
            return self.B_C @ self.apply_torn_inverse(self.B_C_T @ y) + self.C_hat @ y
        x = self.condensed.solve(np.concatenate([y, self.B_P_T @ y]))
        return self.C_hat @ y + self.B_P @ x[self.n :] + x[: self.n]

    def rhs(self) -> np.ndarray:
        return self.B_C @ self.apply_torn_inverse(self.f_w) - self.h

    # -- diagnostics ------------------------------------------------------

    def dense_operator(self) -> np.ndarray:
        """The reduced operator assembled column by column (small runs only)."""
        n = self.n
        G = np.empty((n, n))
        e = np.zeros(n)
        for k in range(n):
            e[k] = 1.0
            G[:, k] = self.apply(e)
            e[k] = 0.0
        return G

    def torn_matrix(self) -> sp.csr_matrix:
        """The full torn saddle system (diagnostic; built sparse from every
        subdomain's local saddle block)."""
        lay = self.layout
        local = self.system.local.items()
        K = sp.block_diag([_local_saddle(lb, _local_index_sets(self.cls, s, lb)) for s, lb in local], format="coo")
        primal = self.cls.u.sub_primal
        g = np.concatenate([np.concatenate([lay.r_indices[s], lay.primal_pos[primal[s]]]) for s in range(lay.n_sub)])
        At = sp.csr_matrix((K.data, (g[K.row], g[K.col])), shape=(lay.n_w, lay.n_w))
        return sp.bmat([[At, self.B_C.T], [self.B_C, -self.C_hat]], format="csr")

    def torn_rhs(self) -> np.ndarray:
        return np.concatenate([self.f_w, self.h])

    # -- recovery ---------------------------------------------------------

    def recover(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """Fields (u, xi, p) in the assembled numbering plus the residual
        jump norm across dual copies.  Coefficients stay in whatever basis
        the system was assembled in; callers undo any change of basis."""
        lay = self.layout
        cls = self.cls
        w = self.apply_torn_inverse(self.f_w - self.B_C_T @ y)
        x = {fld: np.zeros(n) for fld, n in self.system.spaces.n_dofs.items()}
        for fld, pos in lay.int_pos.items():
            x[fld][pos >= 0] = w[pos[pos >= 0]]
        u, xi, p = x["u"], x["xi"], x["p"]
        u[cls.u.primal] = w[lay.primal_slice]
        dual = w[lay.dual_slice]
        B_T = self.jump.unit
        jump_norm = float(np.linalg.norm(B_T.T @ dual)) if dual.size else 0.0
        u[cls.u.dual] = abs(B_T).T @ dual / 2  # the mean of each dual dof's two copies
        xi[cls.xi.interface], p[cls.p.interface], _ = self.split(y)
        return u, xi, p, jump_norm


# the local index sets of a subdomain: field and ``FieldSplit`` attribute
_INDEX_SETS = {
    "uI": ("u", "interior"), "uD": ("u", "sub_dual"), "uP": ("u", "sub_primal"),
    "xiI": ("xi", "interior"), "xiG": ("xi", "sub_interface"),
    "pI": ("p", "interior"), "pG": ("p", "sub_interface"), "pD": ("p", "sub_dual"), "pP": ("p", "sub_primal"),
}


def _local_index_sets(cls: DofClassification, s: int, lb) -> dict[str, np.ndarray]:
    return {name: lb.pos(fld, getattr(cls.splits[fld], attr)[s]) for name, (fld, attr) in _INDEX_SETS.items()}


def _shared_index_sets(system: BlockSystem, cls: DofClassification, sets: dict[int, dict]) -> list[dict]:
    """Every subdomain's local index sets: those in ``sets`` of its
    representative on the sides touched alone, a key every class refines.
    A member's stacked dofs at those positions must be its own classified
    dofs (one gather per set), or ``InternalError`` names it."""
    st = system.stacked
    rep = np.empty(st.n_sub, dtype=np.int64)
    for members in system.classes(""):
        rep[members] = members[0]
    for name, (fld, attr) in _INDEX_SETS.items():
        want = [getattr(cls.splits[fld], attr)[s] for s in range(st.n_sub)]
        size = np.array([w.size for w in want])
        wrong = np.flatnonzero(size != size[rep])
        if not wrong.size:
            at = np.concatenate([st.off[fld][s] + sets[r][name] for s, r in enumerate(rep)])
            wrong = np.repeat(np.arange(st.n_sub), size)[st.dofs[fld][at] != np.concatenate(want)]
        if wrong.size:
            s = wrong[0]
            raise InternalError(f"subdomain {s}: {name} dofs not at the local positions of its representative {rep[s]}")
    return [sets[r] for r in rep]


def _local_saddle(lb, sets: dict[str, np.ndarray], trace: bool = False) -> sp.csr_matrix:
    """A subdomain's saddle block [[A, B^T, 0], [B, -C, D^T], [0, D, -E]]
    on (uI, xiI, pI, uD, uP): K_rr first, the primal rows and columns last,
    and with ``trace`` its interface rows and columns (xiG, pG) after them.
    Each block's entries are moved to their rows and columns there, or
    dropped, by one lookup in the inverse of that order.  No two blocks
    share an entry, so every value is the block's own.  Its column indices
    are sorted, so a product sums each row in column order whatever the
    local numbering."""
    n_u, n_xi = lb.A.shape[0], lb.C.shape[0]
    parts = [sets["uI"], n_u + sets["xiI"], n_u + n_xi + sets["pI"], sets["uD"], sets["uP"]]
    if trace:
        parts += [n_u + sets["xiG"], n_u + n_xi + sets["pG"]]
    at = np.concatenate(parts)
    pos = np.full(n_u + n_xi + lb.E.shape[0], -1, dtype=np.int64)
    pos[at] = np.arange(at.size)
    parts = []
    # each block at its row and column offsets, with its sign; an
    # off-diagonal block also stands transposed above the diagonal
    for M, r0, c0, sign in ((lb.A, 0, 0, 1.0), (lb.B, n_u, 0, 1.0), (lb.C, n_u, n_u, -1.0),
                            (lb.D, n_u + n_xi, n_u, 1.0), (lb.E, n_u + n_xi, n_u + n_xi, -1.0)):
        c = M.tocoo()
        i, j = pos[r0 + c.row], pos[c0 + c.col]
        keep = (i >= 0) & (j >= 0)
        i, j, v = i[keep], j[keep], sign * c.data[keep]
        parts += [(i, j, v), (j, i, v)] if r0 != c0 else [(i, j, v)]
    i, j, v = (np.concatenate(p) for p in zip(*parts))
    # COO to CSR sums duplicates, which sorts the column indices
    return sp.csr_matrix((v, (i, j)), shape=(at.size, at.size))


def build_reduced_system(system: BlockSystem, cls: DofClassification, jump: Transfer) -> ReducedSystem:
    lay = cls.layout
    st = system.stacked
    n_xi_g, n_p_g, n_lam = cls.segments
    n_y = n_xi_g + n_p_g + n_lam

    # the members of an assembly class share their representative's blocks
    class_members = system.classes("ABCDE")
    views = {m[0]: st.local_view(m[0]) for m in class_members}
    ix = _shared_index_sets(system, cls, {r: _local_index_sets(cls, r, lb) for r, lb in views.items()})
    # condensing pays back within a run unless the columns solved once to
    # condense every class are more than _PAYBACK_APPLIES times the columns
    # one application solves without it, one per subdomain
    condense = sum(ix[m[0]][k].size for m in class_members for k in ("xiG", "pG", "uD")) <= _PAYBACK_APPLIES * lay.n_sub
    classes: list[LocalClass] = []
    coarse = []  # each class's primal columns and coarse contribution
    D = []  # each condensed class's saddle block on its interface trace
    for members in class_members:
        sets = ix[members[0]]
        M = _local_saddle(views[members[0]], sets, trace=condense)
        n_k = M.shape[0] - (sets["xiG"].size + sets["pG"].size if condense else 0)
        n_r = n_k - sets["uP"].size
        factor = SaddleFactor(f"subdomain {members[0]} (class of {len(members)})", M[:n_r, :n_r])
        A_rP = M[:n_r, n_r:n_k].toarray()
        primal = np.column_stack([np.searchsorted(cls.u.primal, cls.u.sub_primal[s]) for s in members])
        X, S_PP = primal_coupling(factor, A_rP, M[n_r:n_k, n_r:n_k].toarray())
        coarse.append((primal, S_PP))
        classes.append(LocalClass(
            idx=np.column_stack([lay.r_indices[s] for s in members]), primal=primal, X=X,
            factor=factor, A_Pr=np.ascontiguousarray(A_rP.T),
        ))
        D.append(M[n_k:, n_k:].toarray())

    # torn column of every subdomain's stacked local unknown and interface
    # row of every stacked trace dof, -1 where there is none
    wcol = {fld: pos[st.dofs[fld]] for fld, pos in lay.int_pos.items()}
    primal = lay.primal_pos[st.dofs["u"]]
    wcol["u"] = np.where(primal >= 0, primal, wcol["u"])
    yrow = {fld: np.full(st.off[fld][-1], -1, dtype=np.int64) for fld in ("xi", "p")}
    # multiplier row of every broken dual copy: B^T has one entry per copy
    Jc = jump.unit.tocoo()
    lam_row = np.empty(lay.dual_offset[-1], dtype=np.int64)
    lam_row[Jc.row] = n_xi_g + n_p_g + Jc.col
    ymap = []  # interface rows each subdomain's local unknowns couple to
    for s, sets in enumerate(ix):
        wcol["u"][st.off["u"][s] + sets["uD"]] = lay.dual_slice.start + lay.dual_offset[s] + np.arange(sets["uD"].size)
        xi_rows = cls.xi.interface_pos(cls.xi.sub_interface[s])
        p_rows = n_xi_g + cls.p.interface_pos(cls.p.sub_interface[s])
        yrow["xi"][st.off["xi"][s] + sets["xiG"]] = xi_rows
        yrow["p"][st.off["p"][s] + sets["pG"]] = p_rows
        ymap.append(np.concatenate([xi_rows, p_rows, lam_row[lay.dual_offset[s] : lay.dual_offset[s + 1]]]))
    if np.any(wcol["u"] < 0):
        s = np.searchsorted(st.off["u"], np.argmax(wcol["u"] < 0), side="right") - 1
        raise InternalError(f"subdomain {s}: unclassified displacement dofs in local block")

    # interface rows of the coupling, one part per block (D twice: its
    # transpose couples xi_G to interior p), in the order of a subdomain
    # by subdomain build so that duplicates are summed in that order
    rows_bc, cols_bc, vals_bc, order = [], [], [], []
    parts = (("B", yrow["xi"], wcol["u"]), ("C", yrow["xi"], wcol["xi"]), ("D", wcol["p"], yrow["xi"]),
             ("D", yrow["p"], wcol["xi"]), ("E", yrow["p"], wcol["p"]))
    for kind, (name, rmap, cmap) in enumerate(parts):
        sub, a, b, v = st.entries(name, rmap, cmap)
        transposed = kind == 2
        rows_bc.append(b if transposed else a)
        cols_bc.append(a if transposed else b)
        vals_bc.append(-v if name in "CE" else v)
        order.append(sub * len(parts) + kind)
    order = np.argsort(np.concatenate(order), kind="stable")
    # multiplier rows attach the jump B to the broken dual segment
    rows_bc = [np.concatenate(rows_bc)[order], n_xi_g + n_p_g + Jc.col]
    cols_bc = [np.concatenate(cols_bc)[order], lay.dual_slice.start + Jc.row]
    vals_bc = [np.concatenate(vals_bc)[order], Jc.data]
    B_C = sp.csr_matrix(
        (np.concatenate(vals_bc), (np.concatenate(rows_bc), np.concatenate(cols_bc))), shape=(n_y, lay.n_w)
    )

    # C_hat: the interface rows of C, D and E whole, then their interface
    # columns; SciPy's unstable sort by column sees the rows of the global
    # blocks, so C_hat is bitwise their interface slice
    def iface_rows(name: str, r: str, c: str) -> sp.csr_matrix:
        _, i, j, v = st.entries(name, yrow[r], st.dofs[c])
        return sp.csr_matrix((v, (i, j)), shape=(n_y, system.spaces.n_dofs[c]))[:, cls.splits[c].interface]

    C_GG = iface_rows("C", "xi", "xi")[:n_xi_g]
    D_GG = iface_rows("D", "p", "xi")[n_xi_g : n_xi_g + n_p_g]
    E_GG = iface_rows("E", "p", "p")[n_xi_g : n_xi_g + n_p_g]
    zero = sp.csr_matrix((n_lam, n_lam))
    C_hat = sp.bmat([[C_GG, -D_GG.T, None], [-D_GG, E_GG, None], [None, None, zero]], format="csr")

    f_w = np.zeros(lay.n_w)
    for fld, load in (("u", system.f), ("p", system.g)):
        mask = lay.int_pos[fld] >= 0
        f_w[lay.int_pos[fld][mask]] = load[mask]
    f_w[lay.primal_slice] = system.f[cls.u.primal]
    f_w[lay.dual_slice] = st.f[np.concatenate([st.rep_off["u"][r] + sets["uD"] for r, sets in zip(st.rep, ix)])]

    h = np.zeros(n_y)
    h[n_xi_g : n_xi_g + n_p_g] = system.g[cls.p.interface]

    B_C_T = B_C.T.tocsr()
    torn = PartiallyAssembled.assemble(classes, cls.u.primal.size, coarse)
    return ReducedSystem(
        system=system,
        cls=cls,
        jump=jump,
        B_C=B_C,
        B_C_T=B_C_T,
        C_hat=C_hat,
        f_w=f_w,
        h=h,
        torn=torn,
        condensed=_condense(system, cls, torn, class_members, ymap, D, B_C_T) if condense else None,
    )
