"""Controllability certificates for (J H, B) pairs.

Four routes to the same verdict, with very different conditioning:

* reachability (Kalman) matrix rank via singular values: the workhorse,
  but the matrix [B, (JH)B, ..., (JH)^{n-1}B] squares up condition
  numbers block by block and becomes numerically rank deficient for
  moderate n even on exactly controllable systems;
* the orthogonal controllability staircase: the rank of the same
  reachability space, read from an orthonormal block Krylov basis
  instead of from powers of JH, so it does not saturate with n;
* all order-n minors of that matrix: exponential in count, intended as
  a small-instance oracle only; they are evaluated in bounded stacked
  chunks, and no value depends on the chunk size;
* the eigenvector (PBH) test on the pencil [JH - lam I, B]: an absolute
  margin per eigenvalue, well conditioned, kept as an independent
  certificate precisely because the first one saturates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import AnySystem, Dims, PHSystem, PHTSystem, ScalarField, system_matrix, validate_ph
from .errors import CombinatorialBlowup, EigenFailure, SvdFailure

DEFAULT_MINOR_CAP = 200_000
DEFAULT_MINOR_REL_TOL = 1e-10
DEFAULT_PBH_TOL = 1e-8
# matrix entries per stacked determinant call in minors_order_n
_MINOR_CHUNK_ENTRIES = 1 << 14


@dataclass(frozen=True, eq=False)
class KalmanMatrix:
    """Reachability matrix [B, (JH)B, ..., (JH)^{n-1}B], shape n x nm."""

    K: np.ndarray
    dims: Dims


@dataclass(frozen=True)
class RankReport:
    """Numerical rank evidence: singular values, the tolerance actually
    used, and the resulting verdict."""

    rank: int
    singular_values: tuple[float, ...]
    tol_used: float
    controllable: bool


@dataclass(frozen=True)
class StaircaseReport:
    """Rank of the reachability space from the orthogonal staircase, the
    threshold actually used, and the margin: the smallest singular value
    accepted into the basis (0.0 when none was)."""

    rank: int
    tol_used: float
    margin: float
    controllable: bool


@dataclass(frozen=True, eq=False)
class MinorSet:
    """All order-n minors of a reachability matrix, in lexicographic
    order of the chosen column subsets."""

    values: np.ndarray
    q: int
    dims: Dims
    spectral_norm: float

    def controllable(self, rel_tol: float = DEFAULT_MINOR_REL_TOL) -> bool:
        """Some minor resolvably nonzero.

        The tolerance scales with ||K||_2^n to match the degree-n
        homogeneity of determinants; with rel_tol = 0 this is the exact
        criterion |minor| > 0.  A negative or NaN rel_tol is refused.
        """
        if not rel_tol >= 0:  # NaN would call every system uncontrollable
            raise ValueError(f"rel_tol must be nonnegative, got {rel_tol}")
        tol = rel_tol * self.spectral_norm ** self.dims.n
        return bool(np.any(np.abs(self.values) > tol))


def krylov_blocks(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """[B, AB, ..., A^{n-1}B] over a stack: A (..., n, n), B (..., n, m)
    give (..., n, nm).  Block j is A times block j-1; powers of A are
    never formed explicitly.  An overflow is left in K as Inf or NaN,
    for singular_values to refuse."""
    n, m = B.shape[-2:]
    K = np.empty(B.shape[:-1] + (n * m,), dtype=np.result_type(A, B))
    block = B
    K[..., :m] = block
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, n):
            block = A @ block
            K[..., j * m:(j + 1) * m] = block
    return K


def kalman_matrix(sys: AnySystem) -> KalmanMatrix:
    """Build the reachability matrix of (JH, B) by krylov_blocks."""
    K = krylov_blocks(system_matrix(sys), sys.B)
    K.setflags(write=False)
    return KalmanMatrix(K, sys.dims)


def resolve_rel_tol(dims: Dims, rel_tol: float | None = None) -> float:
    """The relative rank threshold: rel_tol, by default eps * max(n, nm)."""
    if rel_tol is None:
        rel_tol = float(np.finfo(np.float64).eps) * max(dims.n, dims.n * dims.m)
    if not rel_tol > 0:  # also NaN, which would count no singular value
        raise ValueError(f"rel_tol must be positive, got {rel_tol}")
    return rel_tol


def singular_values(K: np.ndarray) -> np.ndarray:
    """Singular values of a reachability matrix, or of each in a stack
    (..., n, nm), in descending order.  Non-finite entries (an overflow
    in the Krylov recurrence) raise SvdFailure before LAPACK runs, so a
    NaN singular value never reads as a rank deficiency."""
    if not np.isfinite(K).all():
        raise SvdFailure("the reachability matrix has non-finite entries "
                         "(overflow in the Krylov recurrence)")
    try:
        return np.linalg.svd(K, compute_uv=False)
    except np.linalg.LinAlgError as e:
        raise SvdFailure(f"SVD of the reachability matrix failed: {e}") from e


def threshold_rank(sv: np.ndarray, rel_tol: float):
    """The rank rule over a stack (..., k) of descending singular values:
    the count strictly above tol_used = rel_tol * sigma_max (1e-300 when
    sigma_max = 0), and tol_used."""
    sigma_max = sv[..., :1]
    tol_used = rel_tol * sigma_max
    tol_used[~(sigma_max > 0.0)] = 1e-300
    return (sv > tol_used).sum(axis=-1), tol_used[..., 0]


def rank_svd(kal: KalmanMatrix, rel_tol: float | None = None) -> RankReport:
    """Numerical rank of the reachability matrix from its singular values.

    rank counts singular values strictly above tol_used = rel_tol * sigma_max,
    with rel_tol defaulting to eps * max(n, nm); an absolute floor of 1e-300
    applies when sigma_max = 0.  Controllable means rank = n.
    """
    rel_tol = resolve_rel_tol(kal.dims, rel_tol)
    sv = singular_values(kal.K)
    rank, tol_used = threshold_rank(sv, rel_tol)
    return RankReport(
        rank=int(rank),
        singular_values=tuple(sv.tolist()),
        tol_used=float(tol_used),
        controllable=bool(rank == kal.dims.n),
    )


def staircase_rank(sys: AnySystem) -> StaircaseReport:
    """Reachability rank by the orthogonal controllability staircase.

    Block Arnoldi on JH started from B (Paige 1981; Van Dooren 1981):
    each new block is orthogonalised twice against the basis built so
    far, and its rank is the number of its singular values above
    DEFAULT_PBH_TOL * (||JH||_2 + ||B||_2), the pbh_check threshold.  The
    left singular vectors of the accepted part extend the basis, and JH
    times them is the next block.  Rank is decided on orthonormal data, never
    on Krylov powers; the loop stops when a block adds nothing or the
    basis spans the state space.  Controllable means rank = n.
    """
    A = system_matrix(sys)
    n = sys.dims.n
    threshold = DEFAULT_PBH_TOL * float(np.linalg.norm(A, 2) + np.linalg.norm(sys.B, 2))
    basis = np.zeros((n, 0), dtype=A.dtype)
    block = sys.B
    margin = math.inf
    while basis.shape[1] < n:
        for _ in range(2):
            block = block - basis @ (basis.conj().T @ block)
        try:
            U, sv, _ = np.linalg.svd(block, full_matrices=False)
        except np.linalg.LinAlgError as e:
            raise SvdFailure(f"SVD of a staircase block failed: {e}") from e
        r = int(np.count_nonzero(sv > threshold))
        if r == 0:
            break
        margin = min(margin, float(sv[r - 1]))
        basis = np.hstack([basis, U[:, :r]])
        block = A @ U[:, :r]
    rank = basis.shape[1]
    return StaircaseReport(
        rank=rank,
        tol_used=threshold,
        margin=margin if rank else 0.0,
        controllable=(rank == n),
    )


def minors_order_n(kal: KalmanMatrix, cap: int = DEFAULT_MINOR_CAP) -> MinorSet:
    """All order-n minors of the reachability matrix.

    Column subsets are enumerated in lexicographic order and each
    determinant is computed by LU with partial pivoting.  The count
    q = C(nm, n) grows combinatorially, so enumeration refuses beyond
    the cap before any determinant is taken.  The determinants are
    evaluated in stacked chunks of at most _MINOR_CHUNK_ENTRIES matrix
    entries, which bounds memory; LAPACK factors each matrix of a stack
    on its own, so no value depends on the chunk size.  A matrix with
    non-finite entries raises SvdFailure before any determinant.
    """
    n, m = kal.dims.n, kal.dims.m
    q = math.comb(n * m, n)
    if q > cap:
        raise CombinatorialBlowup(q, cap)
    K = kal.K
    spectral_norm = float(singular_values(K)[0])  # refuses an overflowed K
    values = np.empty(q, dtype=K.dtype)
    step = max(1, _MINOR_CHUNK_ENTRIES // (n * n))
    subsets = itertools.combinations(range(n * m), n)
    for start in range(0, q, step):
        c = min(step, q - start)
        cols = np.fromiter(itertools.chain.from_iterable(itertools.islice(subsets, c)),
                           dtype=np.intp, count=c * n).reshape(c, n)
        # K[:, cols] is (n, c, n); matrix i of the stack is K[:, cols[i]]
        values[start:start + c] = np.linalg.det(np.moveaxis(K[:, cols], 0, 1))
    return MinorSet(values=values, q=q, dims=kal.dims, spectral_norm=spectral_norm)


def pencil_smin(A: np.ndarray, B: np.ndarray, eye: np.ndarray, lam) -> float:
    """sigma_min([A - lam I, B]), the PBH pencil at lam.  eye is the
    identity of A's order, built once by the caller; lam keeps its type,
    so the pencil keeps the dtype the caller's lam gives it."""
    try:
        return float(np.linalg.svd(np.hstack([A - lam * eye, B]), compute_uv=False)[-1])
    except np.linalg.LinAlgError as e:
        raise SvdFailure(f"SVD of the PBH pencil failed: {e}") from e


def pbh_check(sys: AnySystem, tol: float = DEFAULT_PBH_TOL) -> bool:
    """Eigenvector test: every eigenvalue of JH must be reachable.

    True iff sigma_min([JH - lam I, B]) > tol * (||JH||_2 + ||B||_2) for
    every eigenvalue lam.  The default tol sits far above eigensolver
    forward error and far below the margins of generic systems.  tol = 0
    asks only sigma_min > 0; a negative or NaN tol is refused.
    """
    if not tol >= 0:  # NaN would call every system uncontrollable
        raise ValueError(f"tol must be nonnegative, got {tol}")
    A = system_matrix(sys)
    B = sys.B
    try:
        lams = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as e:
        raise EigenFailure(f"eigenvalue computation failed: {e}") from e
    threshold = tol * float(np.linalg.norm(A, 2) + np.linalg.norm(B, 2))
    eye = np.eye(sys.dims.n)
    return all(pencil_smin(A, B, eye, lam) > threshold for lam in lams)


def canonical_witness(n: int, m: int) -> PHSystem:
    """Explicitly controllable system: skew shift J, H = I, B = [e1, 0].

    J carries +1 on the subdiagonal and -1 on the superdiagonal (J = 0
    for n = 1).  The Krylov vectors J^j e1 then run through a triangular
    basis, so the reachability matrix has full row rank for every
    n >= 1, m >= 1.
    """
    dims = Dims(n, m)
    J = np.zeros((n, n))
    idx = np.arange(n - 1)
    J[idx + 1, idx] = 1.0
    J[idx, idx + 1] = -1.0
    H = np.eye(n)
    B = np.zeros((n, m))
    B[0, 0] = 1.0
    return validate_ph(PHTSystem(dims, ScalarField.REAL, J, H, B))
