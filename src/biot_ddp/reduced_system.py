"""Reduction of the torn block system to an interface problem.

Displacement unknowns are duplicated along subdomain boundaries (dual
copies) and constrained by signed jump multipliers, while coarse primal
displacement dofs stay continuous.  Eliminating all subdomain-local
unknowns and the primal coarse solve leaves a symmetric positive definite
operator on the continuous total pressure trace, the continuous pressure
trace, and the multipliers.  That operator is only ever applied
matrix-free: local saddle solves plus one dense coarse solve per
application.  Subdomains with one assembly key (the sides of the square
touched and the material; the interior, edge and corner subdomains of a
uniform grid) form one congruence class, whose local blocks are stored
once, as the representative's: only its saddle block is built and
factored, and the members are reached through their index maps.
When few classes serve many subdomains, each class is also condensed once
onto its members' interface rows into one dense map, and no local solve
runs per application.  Every class-wise apply, here and in the
preconditioner, is one kernel over one class type, which treats all
members of a class at once: ``solve_partially_assembled`` over
``LocalClass``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .decomposition import DofClassification, InternalError, JumpOperator, TornLayout
from .mesh_fem import BlockSystem, ConfigurationError

_DENSE_FACTOR_CUTOFF = 400
_PAYBACK_APPLIES = 32
_PROBE_TOL = 1e-8  # largest relative residual of a local solve's probe

# LAPACK's dense LU and Cholesky kernels, called directly: each matrix is
# checked once, where it is factored, and no solve scans the factor again
_getrf, _getrs, _potrf, _potrs = sla.get_lapack_funcs(("getrf", "getrs", "potrf", "potrs"), dtype=np.float64)


def _rejected(name: str, why: str) -> ConfigurationError:
    return ConfigurationError(
        f"{name}: {why}; the block is singular or near singular, typically an unconstrained subdomain"
    )


class SaddleFactor:
    """LU factorization of one symmetric local block, solving for a whole
    matrix of right-hand sides at once.

    ``label`` names the block in a rejection; ``probes`` is the number of
    random columns of its probe, one per member of the class that shares
    the block.  Uses dense LAPACK below a size cutoff (or for dense input)
    and sparse LU above it.

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

    The guard is a random solve probe, one sparse (or dense) product for
    all its columns, which rejects silently singular blocks (a floating
    subdomain without enough primal constraints, for instance); an exactly
    singular dense block (a zero pivot of ``getrf``) and a block with a
    non-finite entry are rejected the same way, since their solves are not
    finite.  Either raises ``ConfigurationError`` naming the block.  The
    probe is the one check: a dense solve is one ``getrs`` call on the
    factor that passed it, with no scan of the factor or of the right-hand
    side.  When a sparse factor fails the probe, which the lost digits do
    near the incompressible limit, it keeps the factored block and solves
    with one step of iterative refinement against it from then on; the
    block is probed again and rejected only if it still fails.

    ``nnz`` is the factor's size: n^2 for a dense factor, the entries
    SuperLU stores for L and U (supernodes included) for a sparse one.
    """

    def __init__(self, label: str, K, probes: int = 1):
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
        rel = _probe(K, self.solve, probes)
        if self._sparse is not None and rel > _PROBE_TOL:
            self._refine = K
            rel = _probe(K, self.solve, probes)
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


def _probe(K, solve, probes: int) -> float:
    """Largest relative residual of ``solve`` on the seeded random right-hand
    sides K x, x with ``probes`` columns; inf where it is not finite."""
    b = K @ np.random.default_rng(12345).standard_normal((K.shape[0], probes))
    scale = np.linalg.norm(b, axis=0)
    scale[scale == 0.0] = 1.0
    e = np.linalg.norm(K @ solve(b) - b, axis=0) / scale
    return float(np.max(np.where(np.isfinite(e), e, np.inf)))


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
    rel = _probe(K, lu.solve, 1)
    if rel > _PROBE_TOL:
        raise _rejected(label, f"local solve failed its residual probe ({rel:.2e})")
    L, U = lu.L, lu.U
    return L[n - k :, n - k :].toarray() @ U[n - k :, n - k :].toarray()


class CoarseProblem:
    """Dense Cholesky of a primal Schur complement.

    The matrix is checked once, here: a non-finite entry or an asymmetry
    beyond roundoff is a fault of the build (``InternalError``), a matrix
    that is not positive definite a primal constraint set that does not
    control every subdomain (``ConfigurationError``).  Every solve is then
    one ``potrs`` call on the factor, which runs once or more per operator
    and preconditioner application.
    """

    def __init__(self, S: np.ndarray):
        self.n = S.shape[0]
        if self.n == 0:
            self._cho = None
            return
        # one transpose copy and one scratch array, no other temporaries:
        # each fresh n x n array costs about as much as a pass over it
        T = S.T.copy()
        D = S - T
        asym = float(np.abs(D, out=D).max())
        # a non-finite entry leaves S - S^T non-finite at its position
        if not np.isfinite(asym):
            raise InternalError("coarse matrix has non-finite entries")
        del D  # not held through the factorization
        scale = max(float(S.max()), -float(S.min())) or 1.0
        # Roundoff from hundreds of accumulated subdomain solves; anything
        # beyond this hints at an indexing bug rather than floating point.
        if asym > 1e-6 * scale:
            raise InternalError(f"coarse matrix asymmetry {asym:.2e} exceeds tolerance")
        T += S
        T *= 0.5
        # T is now exactly symmetric, so its transpose is the same matrix in
        # Fortran order and is factored in place
        self._cho, info = _potrf(T.T, overwrite_a=True, clean=False)
        if info > 0:
            raise ConfigurationError(
                "coarse problem is not positive definite; "
                "the primal constraint set does not control every subdomain's null space"
            )

    def solve(self, b: np.ndarray) -> np.ndarray:
        if self.n == 0:
            return np.zeros_like(b)
        return _potrs(self._cho, b)[0]


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
    side ``A_Pr`` times its solution.
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


def primal_coupling(
    S: np.ndarray, factor: SaddleFactor, A_rP: np.ndarray, A_PP: np.ndarray, primal: np.ndarray
) -> np.ndarray:
    """X = factor^{-1} A_rP, after adding the members' primal Schur
    contributions A_PP - A_rP^T X to the coarse matrix S at their primal
    unknowns (the columns of ``primal``)."""
    X = factor.solve(A_rP)
    np.add.at(S, (primal[:, None, :], primal[None, :, :]), (A_PP - A_rP.T @ X)[:, :, None])
    return X


def scatter_index(classes) -> np.ndarray:
    """Every class's member unknowns in turn, where ``solve_partially_assembled``
    adds up the local results: built once per class list."""
    return np.concatenate([np.zeros(0, dtype=np.int64), *(c.idx.ravel() for c in classes)])


def solve_partially_assembled(classes, coarse: CoarseProblem, b: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Solve a partially assembled system: subdomain blocks coupled only
    through the primal unknowns stored in the last coarse.n entries.

    Each class gathers its members' unknowns, applies its local map and
    takes its primal right-hand side; one dense coarse solve (none without
    primal unknowns); each class back-substitutes and all results are
    scattered back by accumulation onto ``at``, the classes' scatter_index.
    """
    n_local = b.size - coarse.n
    t_P = np.array(b[n_local:], copy=True)
    local = []
    for c in classes:
        Z, R = c.apply(b[c.idx])
        local.append(Z)
        if c.primal.size:
            t_P -= np.bincount(c.primal.ravel(), R.ravel(), minlength=t_P.size)
    x_P = coarse.solve(t_P)
    z = np.concatenate([(Z - c.X @ x_P[c.primal] if c.primal.size else Z).ravel() for c, Z in zip(classes, local)])
    x = np.bincount(at, z, minlength=b.size)
    x[n_local:] = x_P
    return x


def _condense(
    classes: list[LocalClass], members: list[list[int]], ymap: list[np.ndarray], B_C_T: sp.csr_matrix, n_sub: int
) -> list[LocalClass]:
    """Each torn class condensed onto its members' interface rows ``ymap``,
    or none when condensing would not pay back within a run: when the
    columns solved once to condense all classes are more than
    _PAYBACK_APPLIES times the columns one application solves without it,
    one per subdomain.  With B_0 the representative's coupling on those
    rows, the map is [F; Psi^T] with F = B_0 K_rr^{-1} B_0^T and the primal
    coupling Psi = B_0 X."""
    if sum(ymap[m[0]].size for m in members) > _PAYBACK_APPLIES * n_sub:
        return []
    out = []
    for c, m in zip(classes, members):
        B0 = B_C_T[c.idx[:, 0]][:, ymap[m[0]]].T.tocsr()
        S = np.vstack([B0 @ c.factor.solve(B0.T.toarray()), (B0 @ c.X).T])
        out.append(LocalClass(idx=np.column_stack([ymap[s] for s in m]), primal=c.primal, X=S[B0.shape[0] :].T, S=S))
    return out


@dataclass
class ReducedSystem:
    """Matrix-free interface operator with everything needed to apply it,
    build its right-hand side, and recover the three fields."""

    system: BlockSystem
    cls: DofClassification
    jump: JumpOperator
    B_C: sp.csr_matrix  # interface rows x torn columns
    B_C_T: sp.csr_matrix
    C_hat: sp.csr_matrix  # positive semidefinite interface coupling
    f_w: np.ndarray
    h: np.ndarray
    factors: dict[int, LocalClass]  # one per congruence class of local saddle blocks
    coarse: CoarseProblem
    condensed: list[LocalClass] = field(default_factory=list)  # empty: apply by local solves
    B_P: sp.csr_matrix = field(init=False, repr=False)  # primal columns of B_C
    B_P_T: sp.csr_matrix = field(init=False, repr=False)
    torn_at: np.ndarray = field(init=False, repr=False)  # scatter_index of the factors
    condensed_at: np.ndarray = field(init=False, repr=False)  # and of the condensed classes

    def __post_init__(self):
        self.B_P_T = self.B_C_T[self.layout.primal_slice]
        self.B_P = self.B_P_T.T.tocsr()
        self.torn_at = scatter_index(self.factors.values())
        self.condensed_at = scatter_index(self.condensed)

    @property
    def layout(self) -> TornLayout:
        return self.cls.layout

    @property
    def n(self) -> int:
        return self.B_C.shape[0]

    @property
    def segments(self) -> tuple[int, int, int]:
        lay = self.layout
        return lay.xi_iface.size, lay.p_iface.size, lay.n_lambda

    def split(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n_xi, n_p, _ = self.segments
        return y[:n_xi], y[n_xi : n_xi + n_p], y[n_xi + n_p :]

    # -- torn operator ----------------------------------------------------

    def apply_torn_inverse(self, b: np.ndarray) -> np.ndarray:
        """Solve the partially assembled torn block via local factorizations
        and the coarse problem."""
        return solve_partially_assembled(self.factors.values(), self.coarse, b, self.torn_at)

    def apply(self, y: np.ndarray) -> np.ndarray:
        """One application of the reduced interface operator.

        Condensed: G y = C_hat y + B_P x_P + sum_c scatter(F_c Y_c - Psi_c
        x_P[primal_c]), with Y_c = y[idx_c] and x_P = S_PP^{-1} (B_P^T y -
        sum_c gather(Psi_c^T Y_c)), solving [y; B_P^T y] through the classes;
        otherwise B_C K^{-1} B_C^T y + C_hat y through the local factors.
        """
        if not self.condensed:
            return self.B_C @ self.apply_torn_inverse(self.B_C_T @ y) + self.C_hat @ y
        x = solve_partially_assembled(self.condensed, self.coarse, np.concatenate([y, self.B_P_T @ y]), self.condensed_at)
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
        primal = self.cls.u_sub_primal
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
        spaces = self.system.spaces
        w = self.apply_torn_inverse(self.f_w - self.B_C_T @ y)
        y_xi, y_p, _ = self.split(y)

        u = np.zeros(spaces.n_u)
        mask = lay.u_int_pos >= 0
        u[mask] = w[lay.u_int_pos[mask]]
        u[cls.u_primal] = w[lay.primal_slice]
        dual = w[lay.dual_slice]
        jump_norm = float(np.linalg.norm(self.jump.jump @ dual)) if dual.size else 0.0
        # each jump row holds the broken positions of one dual dof's two copies
        copies = dual[self.jump.jump.indices.reshape(-1, 2)]
        u[cls.u_dual] = (copies[:, 0] + copies[:, 1]) / 2

        xi = np.zeros(spaces.n_xi)
        mask = lay.xi_int_pos >= 0
        xi[mask] = w[lay.xi_int_pos[mask]]
        xi[lay.xi_iface] = y_xi

        p = np.zeros(spaces.n_p)
        mask = lay.p_int_pos >= 0
        p[mask] = w[lay.p_int_pos[mask]]
        p[lay.p_iface] = y_p
        return u, xi, p, jump_norm


# the local index sets of a subdomain: field and classification attribute
_INDEX_SETS = {
    "uI": ("u", "u_interior"), "uD": ("u", "u_sub_dual"), "uP": ("u", "u_sub_primal"),
    "xiI": ("xi", "xi_interior"), "xiG": ("xi", "xi_sub_interface"),
    "pI": ("p", "p_interior"), "pG": ("p", "p_sub_interface"), "pD": ("p", "p_sub_dual"), "pP": ("p", "p_sub_primal"),
}


def _local_index_sets(cls: DofClassification, s: int, lb) -> dict[str, np.ndarray]:
    return {name: getattr(lb, f"{fld}_pos")(getattr(cls, attr)[s]) for name, (fld, attr) in _INDEX_SETS.items()}


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
        want = [getattr(cls, attr)[s] for s in range(st.n_sub)]
        size = np.array([w.size for w in want])
        wrong = np.flatnonzero(size != size[rep])
        if not wrong.size:
            at = np.concatenate([st.off[fld][s] + sets[r][name] for s, r in enumerate(rep)])
            wrong = np.repeat(np.arange(st.n_sub), size)[st.dofs[fld][at] != np.concatenate(want)]
        if wrong.size:
            s = wrong[0]
            raise InternalError(f"subdomain {s}: {name} dofs not at the local positions of its representative {rep[s]}")
    return [sets[r] for r in rep]


def _local_saddle(lb, sets: dict[str, np.ndarray]) -> sp.csr_matrix:
    """A subdomain's saddle block [[A, B^T, 0], [B, -C, D^T], [0, D, -E]]
    on (uI, xiI, pI, uD, uP): K_rr first, the primal rows and columns last.
    Each block's entries are moved to their rows and columns there, or
    dropped, by one lookup in the inverse of that order.  Its column
    indices are sorted, so a product sums each row in column order whatever
    the local numbering."""
    n_u, n_xi = lb.A.shape[0], lb.C.shape[0]
    at = np.concatenate([sets["uI"], n_u + sets["xiI"], n_u + n_xi + sets["pI"], sets["uD"], sets["uP"]])
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


def build_reduced_system(system: BlockSystem, cls: DofClassification, jump: JumpOperator) -> ReducedSystem:
    lay = cls.layout
    st = system.stacked
    n_xi_g = lay.xi_iface.size
    n_p_g = lay.p_iface.size
    n_y = n_xi_g + n_p_g + lay.n_lambda

    # the members of an assembly class share their representative's blocks
    class_members = system.classes("ABCDE")
    views = {m[0]: st.local_view(m[0]) for m in class_members}
    ix = _shared_index_sets(system, cls, {r: _local_index_sets(cls, r, lb) for r, lb in views.items()})
    S_PP = np.zeros((cls.u_primal.size, cls.u_primal.size))
    classes: list[LocalClass] = []
    for members in class_members:
        M = _local_saddle(views[members[0]], ix[members[0]])
        n_r = M.shape[0] - ix[members[0]]["uP"].size
        factor = SaddleFactor(f"subdomain {members[0]} (class of {len(members)})", M[:n_r, :n_r], len(members))
        A_rP = M[:n_r, n_r:].toarray()
        primal = np.column_stack([np.searchsorted(cls.u_primal, cls.u_sub_primal[s]) for s in members])
        classes.append(LocalClass(
            idx=np.column_stack([lay.r_indices[s] for s in members]), primal=primal,
            X=primal_coupling(S_PP, factor, A_rP, M[n_r:, n_r:].toarray(), primal),
            factor=factor, A_Pr=np.ascontiguousarray(A_rP.T),
        ))

    # torn column of every subdomain's stacked local unknown and interface
    # row of every stacked trace dof, -1 where there is none
    ud = st.dofs["u"]
    wcol = {
        "u": np.where(lay.primal_pos[ud] >= 0, lay.primal_pos[ud], lay.u_int_pos[ud]),
        "xi": lay.xi_int_pos[st.dofs["xi"]],
        "p": lay.p_int_pos[st.dofs["p"]],
    }
    yrow = {fld: np.full(st.off[fld][-1], -1, dtype=np.int64) for fld in ("xi", "p")}
    # multiplier row of every broken dual copy: each lies in one jump row
    Jc = jump.jump.tocoo()
    lam_row = np.empty(lay.n_dual_broken, dtype=np.int64)
    lam_row[Jc.col] = n_xi_g + n_p_g + Jc.row
    ymap = []  # interface rows each subdomain's local unknowns couple to
    for s, sets in enumerate(ix):
        wcol["u"][st.off["u"][s] + sets["uD"]] = lay.dual_slice.start + lay.dual_offset[s] + np.arange(sets["uD"].size)
        xi_rows = lay.xi_iface_pos(cls.xi_sub_interface[s])
        p_rows = n_xi_g + lay.p_iface_pos(cls.p_sub_interface[s])
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
    # multiplier rows attach the jump operator to the broken dual segment
    rows_bc = [np.concatenate(rows_bc)[order], n_xi_g + n_p_g + Jc.row]
    cols_bc = [np.concatenate(cols_bc)[order], lay.dual_slice.start + Jc.col]
    vals_bc = [np.concatenate(vals_bc)[order], Jc.data]
    B_C = sp.csr_matrix(
        (np.concatenate(vals_bc), (np.concatenate(rows_bc), np.concatenate(cols_bc))), shape=(n_y, lay.n_w)
    )

    # C_hat: the interface rows of C, D and E whole, then their interface
    # columns; SciPy's unstable sort by column sees the rows of the global
    # blocks, so C_hat is bitwise their interface slice
    n_cols = {"xi": system.spaces.n_xi, "p": system.spaces.n_p}

    def iface_rows(name: str, r: str, c: str, cols: np.ndarray) -> sp.csr_matrix:
        _, i, j, v = st.entries(name, yrow[r], st.dofs[c])
        return sp.csr_matrix((v, (i, j)), shape=(n_y, n_cols[c]))[:, cols]

    xiG, pG = cls.xi_interface, lay.p_iface
    C_GG = iface_rows("C", "xi", "xi", xiG)[:n_xi_g]
    D_GG = iface_rows("D", "p", "xi", xiG)[n_xi_g : n_xi_g + n_p_g]
    E_GG = iface_rows("E", "p", "p", pG)[n_xi_g : n_xi_g + n_p_g]
    zero = sp.csr_matrix((lay.n_lambda, lay.n_lambda))
    C_hat = sp.bmat([[C_GG, -D_GG.T, None], [-D_GG, E_GG, None], [None, None, zero]], format="csr")

    f_w = np.zeros(lay.n_w)
    mask = lay.u_int_pos >= 0
    f_w[lay.u_int_pos[mask]] = system.f[mask]
    maskp = lay.p_int_pos >= 0
    f_w[lay.p_int_pos[maskp]] = system.g[maskp]
    f_w[lay.primal_slice] = system.f[cls.u_primal]
    f_w[lay.dual_slice] = st.f[np.concatenate([st.rep_off["u"][r] + sets["uD"] for r, sets in zip(st.rep, ix)])]

    h = np.zeros(n_y)
    h[n_xi_g : n_xi_g + n_p_g] = system.g[pG]

    B_C_T = B_C.T.tocsr()
    return ReducedSystem(
        system=system,
        cls=cls,
        jump=jump,
        B_C=B_C,
        B_C_T=B_C_T,
        C_hat=C_hat,
        f_w=f_w,
        h=h,
        factors=dict(enumerate(classes)),
        coarse=CoarseProblem(S_PP),
        condensed=_condense(classes, class_members, ymap, B_C_T, lay.n_sub),
    )
