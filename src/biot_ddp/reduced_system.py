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
factored, and the members are reached through their index maps.  The
parts of every class's saddle block that set-up reads (K_rr, its primal
couplings, its trace rows bordered by the signed jump, and its trace
block) are cut out of one stacked saddle matrix of the stored blocks, all
classes at once (``ClassSaddles``): one sort of each row's class and role
(its dof's ``FieldSplit.role``) gives every class's saddle order, and each
part is one sparse matrix, whose diagonal blocks the classes view (or copy
out dense, for the dense parts).
The interface operator is the partially assembled Schur complement of
those bordered blocks: each torn class is also an interface class on its
members' interface rows, sharing its factor, and its trace cut holds the
trace terms, so no global interface matrix is built.  When few classes
serve many subdomains, each interface class is condensed once into one
dense map, in the same pass, and no local solve runs per application;
otherwise it applies the same map through the torn factor.  Only a
source class solves for its map; a class whose sides differ from a
source's only where the source has interface sides, by Dirichlet sides or,
without edge averages, free ones (``class_sources``), derives its map from
the source's by one small dense Schur step, since a Schur complement of a
Schur complement is a Schur complement (``derive_schur``, which the
preconditioner's Schur complements share), and solves through the
source's factor, bordered by the rows that step eliminates
(``BorrowedFactor``): a condensed run factors only its source classes, on
a uniform grid without edge averages the interior one.
The torn inverse, the interface operator and each preconditioner block are
one ``PartiallyAssembled``: classes of one type, ``LocalClass``, each
applied to all its members at once, and the one ``CoarseProblem`` that
couples them, which it builds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .decomposition import DofClassification, InternalError, TornLayout, Transfer, split_segments
from .mesh_fem import (
    BLOCK_PARAMS, SIDES, BlockSystem, ConfigurationError, block_positions, class_representatives, diagonal_block,
    saddle_blocks, subdomain_sides,
)

_DENSE_FACTOR_CUTOFF = 400
_PAYBACK_APPLIES = 32
_PROBE_TOL = 1e-8  # largest relative residual of a local solve's probe
# largest relative size of the local B^T 1 over interior total pressure
# that counts as vanishing: roundoff gives about 4e-16, a subdomain whose
# constraints leave a flux free about 0.5
_VANISH_TOL = 1e-10

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

    The guard is a random solve probe of one column (``_probe``): the solve
    must give back a seeded K x to ``_PROBE_TOL``.  It rejects a factor
    whose solves are inaccurate, an exactly singular dense block (a zero
    pivot of ``getrf``) and a block with a non-finite entry, whose solves
    are not finite, with ``ConfigurationError`` naming the block.  It does
    not reject every singular block: K x lies in K's range, so a singular
    block whose LU meets a roundoff pivot rather than a zero one passes
    (the pure-Neumann Laplacian does).  A floating subdomain is rejected
    before any factor (``decomposition._check_floating``).  The probe is
    the one check: a dense solve is one ``getrs`` call on the factor that
    passed it, with no scan of the factor or of the right-hand side.  When a
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


class PatchKeys:
    """The patch keys of a source class's unknowns or rows, sorted once, so
    that every class derived from it finds its own keys among them without
    another sort."""

    def __init__(self, keys: np.ndarray):
        self.keys = keys
        self._sorter = np.argsort(keys)

    def find(self, want: np.ndarray) -> np.ndarray:
        """The position of each of ``want`` among the keys, -1 where it is none."""
        if not self.keys.size:
            return np.full(want.shape, -1, dtype=np.int64)
        at = self._sorter[np.searchsorted(self.keys, want, sorter=self._sorter).clip(max=self.keys.size - 1)]
        return np.where(self.keys[at] == want, at, -1)


class BorrowedFactor:
    """The local solve of a condensed torn class r that derives its map from
    the source class c (``derive_schur``), through c's factor: r factors
    nothing of its own.

    r's K_rr is the principal submatrix of c's bordered saddle block
    [[K_c, B_0^T], [B_0, D_c]] on c's local unknowns less the dual copies
    that r fixes, and on c's trace rows that r holds as local unknowns (xi
    and p rows on r's free sides, xi rows on its Dirichlet sides).  The λ
    rows of the copies r fixes, on its Dirichlet sides, and those trace
    rows are the rows E that ``derive_schur`` eliminates, so

        z = K_c^{-1} b_c,  t = S_EE^{-1} (g_E - B_E z),  x = z - W_E t,

    with b placed at c's unknowns in b_c and at E's trace rows in g_E (zero
    at the λ rows), W_E the columns E of W = K_c^{-1} B_0^T, which c solves
    for its own map, and S_EE factored once by ``derive_schur`` (``lu``).
    r's solution is x at c's unknowns and t at E's trace rows.  The
    unknowns are matched by patch key: r's ``keys`` are found among
    ``kept``, c's unknowns and then its trace rows (xi, then p).  An
    unknown of r that c lacks, or places that do not cover c's unknowns and
    E once each (the fixed copies and the λ rows cover their own), is an
    ``InternalError`` naming r.

    ``solve`` is c's as it was when this was built, so a wrapper put on
    c's later sees only c's own calls.  ``nnz`` is 0: nothing is factored.
    """

    nnz = 0

    def __init__(self, name: str, src: int, solve, kept: PatchKeys, W: np.ndarray, B0_T: np.ndarray,
                 keys: np.ndarray, E: np.ndarray, lu: tuple[np.ndarray, np.ndarray] | None):
        n_c, n_G = W.shape[0], kept.keys.size - W.shape[0]
        at = kept.find(keys)
        if np.any(at < 0):
            raise InternalError(f"{name}: a local unknown is not one of the class of subdomain {src}")
        own = at < n_c
        # the place in E of each trace row, E.size for one not eliminated;
        # the other rows of E are λ rows, after the trace rows
        trace = E < n_G
        place = np.full(n_G, E.size)
        place[E[trace]] = np.flatnonzero(trace)
        e, lam = place[at[~own] - n_c], np.flatnonzero(~trace)
        # every unknown of c and every row of E once: r's unknowns, then the
        # copies the λ rows fix and the λ rows themselves (the last rows of
        # B_0, each on its copy among the last unknowns)
        fixed = n_c - B0_T.shape[1] + E[lam]
        hit = np.bincount(np.concatenate([at[own], fixed, n_c + e, n_c + lam]), minlength=n_c + E.size)
        if hit.size != n_c + E.size or np.any(hit != 1):
            raise InternalError(f"{name}: its eliminated rows do not match the class of subdomain {src}")
        self.n = keys.size
        self._solve, self._lu = solve, lu
        # b read at c's unknowns, and set to zero at the fixed copies
        self._embed = np.zeros(n_c, dtype=np.int64)
        self._embed[at[own]] = np.flatnonzero(own)
        self._fixed = fixed
        # g_E at the trace rows of E, which come first in E
        self._g = np.zeros(np.count_nonzero(trace), dtype=np.int64)
        self._g[e] = np.flatnonzero(~own)
        # the solution read off x at c's unknowns, then t at E
        self._take = at.copy()
        self._take[~own] = n_c + e
        B_E = B0_T[:, E].T
        self._cols = np.flatnonzero(B_E.any(axis=0))
        self._B_E = -B_E[:, self._cols]  # negated, on the columns it touches
        self._W_E = W[:, E]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solution for a vector or an (n, k) matrix of right-hand sides."""
        if b.size == 0:
            return np.zeros_like(b)
        # ndarray.take gathers rows several times faster than indexing
        B = b.reshape(self.n, -1)
        b_c = B.take(self._embed, axis=0)
        b_c[self._fixed] = 0.0
        x = self._solve(b_c)
        if self._lu is None:
            return x.take(self._take, axis=0).reshape(b.shape)
        g = self._B_E @ x.take(self._cols, axis=0)
        g[: self._g.size] += B.take(self._g, axis=0)
        t = _getrs(*self._lu, g, overwrite_b=True)[0]
        x -= self._W_E @ t
        return np.concatenate([x, t]).take(self._take, axis=0).reshape(b.shape)


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


class TraceCut(NamedTuple):
    """A torn class's trace rows on its members' interface rows (xi_G, p_G,
    then the λ row of each dual copy): B_0 over its local unknowns (the
    signed jump on its dual copies), its transpose, B_0P over its primal
    displacements (dense) and the trace block D_c (dense, on the xi_G and
    p_G rows)."""

    B0: sp.csr_matrix
    B0_T: sp.csr_matrix  # CSR: SciPy multiplies a CSC matrix several times slower
    B0P: np.ndarray
    D: np.ndarray


@dataclass
class LocalClass:
    """Congruent subdomains sharing one local map, applied to all members at
    once.

    Column j of ``idx`` gathers member j's local unknowns from the vector
    being solved for (members may share rows; their results add up), column
    j of ``primal`` its primal unknowns from the coarse segment at the end
    of that vector.  The map is the matrix ``S``, whose rows past ``idx``'s
    give the primal right-hand side: [F - D_c; (Psi - B_0P)^T] of a
    condensed interface class (F = B_0 K_rr^{-1} B_0^T), [S_dd^{-1}; X^T] of
    a BDDC class, the Dirichlet map of a λ class.  Without ``S`` a class
    applies its map through its ``factor``: a torn class's is K_rr^{-1}, with
    the primal right-hand side ``A_Pr`` times its solution; an interface
    class's, from its ``cut``, is F - [D_c; 0] on its trace rows, with the
    primal right-hand side X^T Y.  The interface classes share the torn
    classes' factors, and keep them when condensed.
    """

    idx: np.ndarray  # (n, members)
    primal: np.ndarray  # (n_primal_local, members)
    X: np.ndarray | None = None  # primal coupling factor^{-1} A_rP (or Psi - B_0P), for the back-substitution
    factor: SaddleFactor | BorrowedFactor | None = None
    A_Pr: np.ndarray | None = None  # primal-local coupling A_rP^T, dense
    S: np.ndarray | sp.spmatrix | None = None
    cut: TraceCut | None = None  # an interface class's

    def apply(self, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Local solution and primal right-hand side of gathered ``Y``."""
        if self.S is not None:
            Z = self.S @ Y
            return Z[: self.idx.shape[0]], Z[self.idx.shape[0] :]
        if self.cut is None:
            Z = self.factor.solve(Y)  # looked up per call: tracing patches it
            return Z, self.A_Pr @ Z
        B0, B0_T, _, D = self.cut
        Z = B0 @ self.factor.solve(B0_T @ Y)
        Z[: D.shape[0]] -= D @ Y[: D.shape[0]]
        return Z, self.X.T @ Y


def xi_mass_only(K: sp.csr_matrix, counts: np.ndarray) -> bool:
    """Whether the torn block K_rr (``counts`` of its rows in each of
    ``ROLES``) holds its interior total pressure's constant mode only
    through the mass term: whether the displacement rows of K_rr 1, with 1
    on every interior total pressure unknown, vanish against those of
    |K_rr| 1 (``_VANISH_TOL``).  They are the local B^T 1, the divergence
    of every local displacement integrated over the subdomain, which is
    zero when the primal constraints fix the flux through every side (p0
    total pressure, which has no interface dofs, with edge averages); the
    block is then as ill conditioned as lambda / mu.  K_rr holds B and B^T
    as the same stored entries, so the sums are taken down the displacement
    columns of its contiguous interior total pressure rows."""
    n_uI, n_xi, n_pI = counts[:3]
    at = slice(K.indptr[n_uI], K.indptr[n_uI + n_xi])
    col, val = K.indices[at], K.data[at]
    u = (col < n_uI) | (col >= n_uI + n_xi + n_pI)
    # false without interior total pressure or displacement unknowns
    return bool(np.abs(np.bincount(col[u], val[u])).max(initial=0.0)
                < _VANISH_TOL * np.bincount(col[u], np.abs(val[u])).max(initial=0.0))


def primal_coupling(
    factor: SaddleFactor | BorrowedFactor, A_rP: np.ndarray, A_PP: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
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
    (the others derive it: ``derive_schur``).
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
        back-substitutes, and the results are added up onto ``at``.

        A class that solves through a factor and gathers the same column,
        bit for bit, for every member (a load its members share, as every
        class's part of the torn right-hand side) solves that column once
        and repeats its solution and primal right-hand side across the
        members; the back-substitution stays per member."""
        n_local = b.size - self.coarse.n
        t_P = np.array(b[n_local:], copy=True)
        local = []
        for c in self.classes:
            Y = b[c.idx]
            if c.S is None and Y.shape[1] > 1 and (Y == Y[:, :1]).all():
                Z, R = (np.repeat(M, Y.shape[1], axis=1) for M in c.apply(Y[:, :1]))
            else:
                Z, R = c.apply(Y)
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


def class_sources(
    system: BlockSystem, cls: DofClassification, groups: list[np.ndarray], names: str, fields: tuple[str, ...]
) -> list[tuple[int, int | None]]:
    """The order in which to form the maps of the congruence classes
    ``groups`` of the local blocks ``names``, each with its source: the
    class whose map it derives from, or None where it forms its own.

    Classes are visited with the fewest sides that are not interface sides
    first (stable), so the interior class of each material comes first.
    Class r derives from the first earlier class c that forms its own, has
    r's material key (the ``BLOCK_PARAMS`` of ``names``) and, on each side
    and for each of ``fields``, r's kind, or an interface side where r's is
    Dirichlet or, in a field without edge averages (``FieldSplit.transform``
    None), free.  Then r's unknowns are c's with those on its Dirichlet
    sides fixed or dropped and those on its free sides, which c shares with
    a neighbour, held as r's own local unknowns, with the same material and
    the same change of basis.  An edge average has no counterpart on a free
    side, so a field with edge averages never derives across one.
    """
    params = sorted({p for n in names for p in BLOCK_PARAMS[n]})
    kinds = _side_kinds(system, fields)[[g[0] for g in groups]]
    shared = kinds == "interface"
    # per side and field: may this side of a class stand where its source has an interface
    crosses = (kinds == "dirichlet") | np.repeat([cls.splits[f].transform is None for f in fields], len(SIDES))
    material = [tuple(getattr(system.materials, p)[g[0]] for p in params) for g in groups]
    visits: list[tuple[int, int | None]] = []
    for i in sorted(range(len(groups)), key=lambda i: np.count_nonzero(~shared[i])):
        src = next((c for c, own in visits if own is None and material[c] == material[i] and np.all(
            (kinds[i] == kinds[c]) | shared[c] & crosses[i])), None)
        visits.append((i, src))
    return visits


def eliminable_rows(rows: PatchKeys, local: np.ndarray, fixes: np.ndarray | bool = False) -> np.ndarray:
    """Which of a source class's Schur rows (``rows``) a class derived from
    it eliminates where it does not keep them (``derive_schur``): the rows
    whose unknown the class holds among its ``local`` unknowns (patch keys),
    interior to it where the source shares it.  A row flagged in ``fixes``
    (a multiplier row, keyed as its dual copy) is the other way round: the
    class eliminates it where it lacks that copy, which the row then fixes
    to zero, and drops it where it holds the copy as its own.  Every other
    row is dropped."""
    held = np.zeros(rows.keys.size, dtype=bool)
    at = rows.find(local)
    held[at[at >= 0]] = True
    return held != fixes


def derive_schur(
    name: str, src: int, S: np.ndarray, kept: PatchKeys, want: np.ndarray, eliminable: np.ndarray | bool
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray] | None]:
    """The Schur complement of class ``name`` derived from S, the class of
    subdomain ``src``'s on the unknowns with patch keys ``kept``, the
    source's unknowns E it eliminates, and the LU of S[E, E] (``getrf``'s
    factor and pivots; None with E empty): each of the class's keys
    ``want`` is matched to a source unknown k, the unmatched ones that
    ``eliminable`` flags (False: none; the rule is ``eliminable_rows``) are
    E, and the rest are dropped.  By the quotient property of Schur
    complements (Crabtree-Haynsworth) it is S[k, k] - S[k, E] S[E, E]^{-1}
    S[E, k], from that one dense LU; with E empty, the principal submatrix
    S[k, k].  The source's keys are sorted once (``PatchKeys``), however
    many classes derive from it.  A wanted key the source lacks, or an
    exactly singular S[E, E], is an ``InternalError`` naming the class.
    """
    k = kept.find(want)
    if np.any(k < 0):
        raise InternalError(f"{name}: a kept unknown is not kept by the class of subdomain {src}")
    flags = np.zeros(kept.keys.size, dtype=bool) | eliminable
    flags[k] = False
    E = np.flatnonzero(flags)
    order = np.concatenate([k, E])
    T = S[np.ix_(order, order)]
    if not E.size:
        return T, E, None
    a, piv, info = _getrf(T[k.size :, k.size :])
    if info > 0:
        raise InternalError(f"{name}: the unknowns it eliminates are singular in the class of subdomain {src}")
    # a fresh array, not a view of T: a λ class keeps it as its map
    return T[: k.size, : k.size] - T[: k.size, k.size :] @ _getrs(a, piv, T[k.size :, : k.size])[0], E, (a, piv)


@dataclass
class ReducedSystem:
    """Matrix-free interface operator with everything needed to apply it,
    build its right-hand side, and recover the three fields.

    B_C couples the torn unknowns to the interface rows (xi_G, p_G, then the
    λ row of each dual copy), and C_hat is the interface block.  Neither is
    built: each interface class keeps its part of B_C, its B_0 and B_0P,
    read at its members' torn and interface rows, and its part of C_hat,
    -D_c (``TraceCut``).
    """

    system: BlockSystem
    cls: DofClassification
    jump: Transfer  # the multipliers': ``unit`` is B^T, over the broken dual copies
    f_w: np.ndarray
    h: np.ndarray
    torn: PartiallyAssembled  # one class per congruence class of local saddle blocks
    interface: PartiallyAssembled  # the torn block on the interface rows, a class per torn class
    xi_mass_only: int = 0  # subdomains whose K_rr holds the constant total pressure only by its mass term

    def __post_init__(self):
        # B_C^T y's torn positions: each class's local unknowns, then its primal ones
        start = self.layout.primal_slice.start
        self._w_at = np.concatenate([np.concatenate([c.idx.ravel(), start + c.primal.ravel()])
                                     for c in self.torn.classes])
        # recovery's scatters: each field's interior dofs from their torn
        # positions, and every dual copy (the rows of B^T, in order) to its dof
        self._interior = {fld: (np.flatnonzero(pos >= 0), pos[pos >= 0]) for fld, pos in self.layout.int_pos.items()}
        J = self.jump.unit.tocoo()
        self._copies = J.row, J.col, J.data

    @property
    def factors(self) -> dict[int, LocalClass]:  # the torn classes, each keeping or borrowing a factor
        return dict(enumerate(self.torn.classes))

    @property
    def coarse(self) -> CoarseProblem:  # shared by the interface operator
        return self.torn.coarse

    @property
    def layout(self) -> TornLayout:
        return self.cls.layout

    @property
    def n(self) -> int:
        return sum(self.segments)

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

    def couple(self, w: np.ndarray) -> np.ndarray:
        """B_C w: each member's B_0 times its local unknowns plus B_0P times
        its primal ones, added up at its interface rows."""
        w_P = w[self.layout.primal_slice]
        parts = [(i.cut.B0 @ w[c.idx] + i.cut.B0P @ w_P[c.primal]).ravel()
                 for c, i in zip(self.torn.classes, self.interface.classes)]
        return np.bincount(self.interface.at, np.concatenate(parts), minlength=self.n)

    def couple_T(self, y: np.ndarray) -> np.ndarray:
        """B_C^T y, class by class as ``couple``."""
        parts = []
        for i in self.interface.classes:
            Y = y[i.idx]
            parts += [(i.cut.B0_T @ Y).ravel(), (i.cut.B0P.T @ Y).ravel()]
        return np.bincount(self._w_at, np.concatenate(parts), minlength=self.layout.n_w)

    def apply(self, y: np.ndarray) -> np.ndarray:
        """One application of the reduced interface operator
        G = B_C K^{-1} B_C^T + C_hat, the partially assembled Schur
        complement of the classes' bordered blocks alone.

        Each interface class's map is [F_c - D_c; (Psi_c - B_0P)^T], with
        F_c = B_0 K_rr^{-1} B_0^T and Psi_c = B_0 K_rr^{-1} A_rP, so G y =
        sum_c scatter((F_c - D_c) Y_c - (Psi_c - B_0P) x_P[primal_c]), with
        Y_c = y[idx_c] and x_P = -S_PP^{-1} sum_c gather((Psi_c - B_0P)^T
        Y_c): one ``interface.solve`` of [y; 0].  A condensed class holds
        its map dense, any other applies it through its torn factor.
        """
        return self.interface.solve(np.concatenate([y, np.zeros(self.coarse.n)]))[: self.n]

    def rhs(self) -> np.ndarray:
        """B_C K^{-1} f_w - h.  The members of a class carry its
        representative's loads (``StackedBlocks``), so every class gathers
        one column, repeated, from f_w, and the torn solve solves it once
        per class (``PartiallyAssembled.solve``); B_C is applied class by
        class (``couple``)."""
        return self.couple(self.apply_torn_inverse(self.f_w)) - self.h

    # -- recovery ---------------------------------------------------------

    def recover(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """Fields (u, xi, p) in the assembled numbering plus the residual
        jump norm across dual copies.  Coefficients stay in whatever basis
        the system was assembled in; callers undo any change of basis."""
        lay = self.layout
        cls = self.cls
        w = self.apply_torn_inverse(self.f_w - self.couple_T(y))
        x = {fld: np.zeros(n) for fld, n in self.system.spaces.n_dofs.items()}
        for fld, (dofs, pos) in self._interior.items():
            x[fld][dofs] = w[pos]
        u, xi, p = x["u"], x["xi"], x["p"]
        u[cls.u.primal] = w[lay.primal_slice]
        copy, dof, sign = self._copies
        at = w[lay.dual_slice][copy]
        n_dual = self.jump.unit.shape[1]
        # each dual dof's copies added in their order, as B @ w_D adds them
        jump_norm = float(np.linalg.norm(np.bincount(dof, sign * at, n_dual))) if at.size else 0.0
        u[cls.u.dual] = np.bincount(dof, at, n_dual) / 2  # the mean of each dual dof's two copies
        xi[cls.xi.interface], p[cls.p.interface], _ = self.split(y)
        return u, xi, p, jump_norm


# The roles of a torn class's saddle rows and columns, in their order: its
# local unknowns (K_rr: interior displacement, total pressure and pressure,
# then the dual displacement copies), its primal displacements, its trace
# rows (xi_G, p_G) and the multiplier row of each dual copy; within a role,
# in the order of the class's sorted local dofs.  The slices are runs of roles.
ROLES = ("uI", "xiI", "pI", "uD", "uP", "xiG", "pG", "lam")
LOCAL, PRIMAL, TRACE, SADDLE, INTERFACE = slice(0, 4), slice(4, 5), slice(5, 7), slice(0, 5), slice(5, 8)
# each field's role above by its dof's ``FieldSplit.role`` (interior, dual, primal)
_SADDLE_ROLE = {"u": np.array([0, 3, 4], dtype=np.int8), "xi": np.array([1, 5, 5], dtype=np.int8),
                "p": np.array([2, 6, 6], dtype=np.int8)}
# the parts of every subdomain's stacked positions: u, xi, p, then the λ rows
# on a second copy of u; and each role's part
_PARTS, _PART = ("u", "xi", "p", "u"), np.array([0, 1, 2, 0, 0, 1, 2, 3])


@dataclass
class SaddleBlocks:
    """One torn class's parts of its saddle block: K_rr, the couplings
    A_rP and A_PP of its primal displacements, B_0 (its trace rows over
    K_rr's columns, then the signed jump of its dual copies), B_0P (the same
    rows over its primal displacements, dense) and its trace block D_c."""

    K: sp.csr_matrix
    A_rP: np.ndarray
    A_PP: np.ndarray
    B0: sp.csr_matrix
    B0P: np.ndarray
    D: np.ndarray


class ClassSaddles:
    """The local saddle blocks [[A, B^T, 0], [B, -C, D^T], [0, D, -E]] of
    every torn class, cut out of one stacked saddle matrix, and where each
    class's rows lie in the reduced problem.

    The torn classes are the assembly classes, whose representatives'
    blocks are the stored ones (``StackedBlocks``), so ``saddle_blocks`` of
    the stored blocks is one block-diagonal matrix over the
    representatives' stacked displacement, total pressure and pressure
    positions in turn, which the same ``sp.bmat`` borders by each dual
    copy's λ row and column, with the sign of the multipliers' ``jump`` at
    the copy.  Each position has its class (``owner``) and its role
    (``ROLES``, by its dof's ``FieldSplit.role``); one stable sort by class
    and role gives every class's saddle order, and ``counts[c, k]`` is how
    many rows of role k class c has.  The classes are ``condensed`` when
    that pays back within a run.  ``sparse`` takes a run of row roles and a
    run of column roles of every class at once, in saddle order; ``blocks``
    gives the parts that set-up factors and condenses, the dense ones as
    their diagonal blocks' ``toarray``.  Every value is a stored entry's own.

    A member is read at its representative's local positions, so every
    subdomain's dofs must play, position by position, the roles of its
    representative's on the sides touched alone, a key every class refines.
    One table over every subdomain's stacked positions (``_PARTS``) holds
    each one's column in the reduced problem: a local or primal unknown's
    torn column, a trace dof's interface row, a dual copy's λ row.  A
    subdomain whose roles differ, or a displacement dof without a column,
    is an ``InternalError`` naming the subdomain.  ``columns`` reads the
    table at a run of a class's roles for each member, ``keys`` gives the
    same rows' patch keys.
    """

    def __init__(self, system: BlockSystem, cls: DofClassification, jump: Transfer):
        st, lay = system.stacked, cls.layout
        roles = {fld: split.role[st.dofs[fld]] for fld, split in cls.splits.items()}
        rep = class_representatives(system.materials, ())
        for fld, role in roles.items():
            wrong = np.flatnonzero(role != role[block_positions(st.off[fld], rep)])
            if wrong.size:
                s = np.searchsorted(st.off[fld], wrong[0], side="right") - 1
                raise InternalError(
                    f"subdomain {s}: {fld} dofs not at the local positions of its representative {rep[s]}")
        self.reps = np.flatnonzero(st.rep == np.arange(st.n_sub))
        at = {fld: block_positions(st.off[fld], self.reps) for fld in roles}  # the representatives' positions
        owner = {fld: np.repeat(np.arange(self.reps.size), np.diff(st.rep_off[fld])[self.reps]) for fld in roles}
        self.role = np.concatenate([_SADDLE_ROLE[fld][role[at[fld]]] for fld, role in roles.items()])
        # condensing pays back unless the columns solved once to condense
        # every class (its trace rows and dual copies) are more than
        # _PAYBACK_APPLIES times those one application solves without it,
        # one per subdomain
        n_cols = np.count_nonzero(np.isin(self.role, [ROLES.index(k) for k in ("xiG", "pG", "uD")]))
        self.condensed = bool(n_cols <= _PAYBACK_APPLIES * st.n_sub)
        dual = np.flatnonzero(self.role == ROLES.index("uD"))  # among the displacements, which come first
        sign = jump.unit.data[block_positions(cls.u.dual_offset, self.reps)]
        J = sp.csr_matrix((sign, (np.arange(dual.size), dual)), shape=(dual.size, st.A.shape[1]))
        # every block CSR, zero ones too, so that sp.bmat stacks without a sort
        zero = [sp.csr_matrix((n, dual.size)) for n in (st.C.shape[0], st.E.shape[0], dual.size)]
        blocks = [row + [side] for row, side in zip(saddle_blocks(st), [J.T.tocsr(), *zero])]
        blocks.append([J, zero[0].T.tocsr(), zero[1].T.tocsr(), zero[2]])
        self.owner = np.concatenate([*owner.values(), owner["u"][dual]])
        self.role = np.concatenate([self.role, np.full(dual.size, ROLES.index("lam"), dtype=np.int8)])
        # 3 k + 0, 1 or 2 (u, xi, p) for each position's place k in the patch; a λ row's is its copy's
        keys = [3 * st.patch[fld][at[fld]] + code for code, fld in enumerate(roles)]
        self._keys = np.concatenate([*keys, keys[0][dual]])
        self._M = sp.bmat(blocks, format="csr")
        # every class's saddle order and role counts
        key = self.owner * len(ROLES) + self.role
        self._order = np.argsort(key, kind="stable")
        self._sorted = self.role[self._order]
        self.counts = np.bincount(key, minlength=self.reps.size * len(ROLES)).reshape(-1, len(ROLES))
        # the column table; the copies are the broken ones, in order
        u, (n_xi_g, n_p_g, _), copies = st.dofs["u"], cls.segments, np.flatnonzero(roles["u"] == 1)
        col = [np.where(lay.primal_pos[u] >= 0, lay.primal_pos[u], lay.int_pos["u"][u])]
        col[0][copies] = lay.dual_slice.start + np.arange(copies.size)
        if np.any(col[0] < 0):
            s = np.searchsorted(st.off["u"], np.argmax(col[0] < 0), side="right") - 1
            raise InternalError(f"subdomain {s}: unclassified displacement dofs in local block")
        col += [np.where(roles[fld] > 0, row + cls.splits[fld].interface_pos(d), lay.int_pos[fld][d])
                for fld, row, d in (("xi", 0, st.dofs["xi"]), ("p", n_xi_g, st.dofs["p"]))]
        col.append(np.full(u.size, -1, dtype=np.int64))
        Jc = jump.unit.tocoo()  # B^T: one entry per broken copy
        col[3][copies[Jc.row]] = n_xi_g + n_p_g + Jc.col
        self._col = np.concatenate(col)
        # each saddle position's place in the table, whose parts start at base
        base = np.cumsum([0, *(c.size for c in col[:3])])
        self._at = np.concatenate([*(at[fld] + b for fld, b in zip(roles, base)), at["u"][dual] + base[3]])
        self._off = np.array([st.off[fld] for fld in _PARTS])

    def _rows(self, run: slice, c: int) -> np.ndarray:
        """Class c's positions of the roles ``run``, in its saddle order."""
        start = self.counts.ravel()[: c * len(ROLES) + run.start].sum()
        return self._order[start : start + self.counts[c, run].sum()]

    def columns(self, run: slice, c: int, members: np.ndarray) -> np.ndarray:
        """The column of each of class c's rows of the roles ``run``, in
        saddle order, one column per member of ``members``: a member's rows
        are its representative's, shifted to its own positions."""
        rows = self._rows(run, c)
        shift = self._off[:, members] - self._off[:, self.reps[c], None]
        # a gather along shift's first axis is C-ordered, and so is the result
        return self._col[self._at[rows][:, None] + shift[_PART[self.role[rows]]]]

    def keys(self, run: slice, c: int) -> np.ndarray:
        """The patch keys of class c's representative's rows of the roles
        ``run``, in saddle order, each 3 k + 0, 1 or 2 (u, xi, p) for its
        dof's key k; a λ row takes its dual copy's key."""
        return self._keys[self._rows(run, c)]

    def sparse(self, rows: slice, cols: slice) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
        """The block-diagonal CSR matrix whose block c is class c's rows of
        the roles ``rows`` and columns of the roles ``cols`` in its saddle
        order, with the blocks' row and column offsets
        (``mesh_fem.diagonal_block``).  Its column indices are sorted, as a
        product sums each row in column order."""
        r, c = (self._order[(self._sorted >= run.start) & (self._sorted < run.stop)] for run in (rows, cols))
        M = self._M[r][:, c]
        M.sort_indices()
        return M, *(np.concatenate([[0], np.cumsum(self.counts[:, run].sum(axis=1))]) for run in (rows, cols))

    def blocks(self) -> list[SaddleBlocks]:
        """Every class's ``SaddleBlocks``."""
        (K, off, _), (AP, rows, cols) = self.sparse(LOCAL, LOCAL), self.sparse(SADDLE, PRIMAL)
        (B0, b_rows, b_cols), (B0P, _, p_off), (D, d_off, _) = (
            self.sparse(INTERFACE, LOCAL), self.sparse(INTERFACE, PRIMAL), self.sparse(TRACE, TRACE))
        parts = []
        for c, n_r in enumerate(np.diff(off)):
            # [A_rP; A_PP]: the primal columns of the rows of K_rr and of the primal rows
            A = diagonal_block(AP, rows, cols, c).toarray()
            parts.append(SaddleBlocks(
                K=diagonal_block(K, off, off, c), A_rP=A[:n_r], A_PP=A[n_r:], B0=diagonal_block(B0, b_rows, b_cols, c),
                B0P=diagonal_block(B0P, b_rows, p_off, c).toarray(), D=diagonal_block(D, d_off, d_off, c).toarray()))
        return parts


def build_reduced_system(system: BlockSystem, cls: DofClassification, jump: Transfer) -> ReducedSystem:
    """The reduced system, its torn and interface classes built, and
    condensed when that pays back, in one pass over the classes
    (``class_sources`` over u and p), each from its parts of the saddle
    blocks and its members' columns and keys (``ClassSaddles``).

    An interface class's map is [-S_c; (Psi - B_0P)^T] on its members'
    interface rows (xi_G, p_G, then the λ row of each dual copy), where B_0
    is the saddle block's trace rows over the class's signed jump (one +-1
    per dual copy, on its last local unknowns), B_0P the trace rows over its
    primal displacements, Psi = B_0 X, and S_c = D_c - B_0 K_rr^{-1} B_0^T,
    with D_c the saddle block's trace block, the Schur complement of
    [[K_rr, B_0^T], [B_0, D_c]]: the classes' maps hold the whole operator,
    trace terms included, and no global interface matrix is built.  Without
    condensing every class factors its own K_rr and applies S_c through it.
    Condensed, only a source class solves for S_c.  A class r that derives
    from c keeps c's rows that match its own and eliminates or drops the
    rest (``eliminable_rows``, ``derive_schur``):
    it eliminates the trace rows whose dof it holds as a local unknown (xi
    and p rows on its free sides, xi rows on its Dirichlet sides) and the λ
    row of each dual copy it lacks, which the row fixes (on its Dirichlet
    sides); it drops the p rows on its Dirichlet sides and the λ rows whose
    copy is interior to it (on its free sides).  The eliminated rows may be
    none: at H/h = 1 with edge averages a Dirichlet side of r holds no dual
    copy and no interior xi row.  r then factors nothing: its local solve is
    c's, bordered by those rows (``BorrowedFactor``, from c's W = K_rr^{-1}
    B_0^T and the LU of the eliminated block that ``derive_schur`` forms),
    unless that solve fails the probe, when r factors its own K_rr.  Local
    unknowns of r that the eliminated rows and c's do not account for are
    an ``InternalError`` naming r's class.
    """
    lay = cls.layout
    st = system.stacked
    n_xi_g, n_p_g, _ = cls.segments
    # the members of an assembly class share their representative's blocks
    class_members = system.classes("ABCDE")
    saddles = ClassSaddles(system, cls, jump)
    condense = saddles.condensed
    blocks = saddles.blocks()
    # each class and its primal columns and coarse contribution, stored at
    # its index so that the coarse matrix sums them in class order
    classes, coarse, interface = ([None] * len(class_members) for _ in range(3))
    # of each source class: S_c, its row keys, and what a class derived
    # from it borrows (``BorrowedFactor``): its solve, the keys of its
    # unknowns and trace rows, W = K_rr^{-1} B_0^T and B_0^T
    schur = {}
    mass_only = 0
    for i, src in class_sources(system, cls, class_members, "ABCDE", ("u", "p")):
        members, b = class_members[i], blocks[i]
        mass_only += len(members) * xi_mass_only(b.K, saddles.counts[i])
        name = f"subdomain {members[0]} (class of {len(members)})"
        factor = None
        if condense:
            keys, unknowns = saddles.keys(INTERFACE, i), saddles.keys(LOCAL, i)
        if condense and src is not None:
            c = class_members[src][0]
            S_c, rows, solve_c, unknowns_c, W_c, B0_T_c = schur[src]
            # the λ rows (u, code 0) fix their copies
            S, E, lu = derive_schur(name, c, S_c, rows, keys, eliminable_rows(rows, unknowns, rows.keys % 3 == 0))
            factor = BorrowedFactor(name, c, solve_c, unknowns_c, W_c, B0_T_c, unknowns, E, lu)
            if _probe(b.K, factor.solve) > _PROBE_TOL:
                factor = None
        if factor is None:
            factor = SaddleFactor(name, b.K)
        primal = saddles.columns(PRIMAL, i, members) - lay.primal_slice.start
        X, S_PP = primal_coupling(factor, b.A_rP, b.A_PP)
        coarse[i] = (primal, S_PP)
        classes[i] = LocalClass(idx=saddles.columns(LOCAL, i, members), primal=primal, X=X,
                                factor=factor, A_Pr=np.ascontiguousarray(b.A_rP.T))
        cut = TraceCut(b.B0, b.B0.T.tocsr(), b.B0P, b.D)
        X, Y = b.B0 @ X - b.B0P, None  # Psi - B_0P, and the map when condensed
        if condense:
            if src is None:
                n_G = b.D.shape[0]
                B0_T = b.B0.T.toarray()  # Fortran-ordered, as LAPACK and SuperLU take it
                W = factor.solve(B0_T)
                S = -(b.B0 @ W)
                S[:n_G, :n_G] += b.D
                # its own unknowns, then its trace rows, which a derived class may hold
                schur[i] = S, PatchKeys(keys), factor.solve, PatchKeys(np.concatenate([unknowns, keys[:n_G]])), W, B0_T
            Y = np.vstack([-S, X.T])
            X = Y[S.shape[0] :].T
        interface[i] = LocalClass(idx=saddles.columns(INTERFACE, i, members), primal=primal, X=X,
                                  factor=factor, S=Y, cut=cut)

    f_w = np.zeros(lay.n_w)
    for fld, load in (("u", system.f), ("p", system.g)):
        mask = lay.int_pos[fld] >= 0
        f_w[lay.int_pos[fld][mask]] = load[mask]
    f_w[lay.primal_slice] = system.f[cls.u.primal]
    dual = np.flatnonzero(cls.u.role[st.dofs["u"]] == 1)  # the broken copies in order
    sub = np.searchsorted(st.off["u"], dual, side="right") - 1
    f_w[lay.dual_slice] = st.f[st.rep_off["u"][st.rep[sub]] + dual - st.off["u"][sub]]

    h = np.zeros(sum(cls.segments))
    h[n_xi_g : n_xi_g + n_p_g] = system.g[cls.p.interface]

    torn = PartiallyAssembled.assemble(classes, cls.u.primal.size, coarse)
    return ReducedSystem(system=system, cls=cls, jump=jump, f_w=f_w, h=h, torn=torn,
                         interface=PartiallyAssembled(interface, torn.coarse, len(schur)), xi_mass_only=mass_only)
