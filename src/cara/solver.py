"""Iterative Lie-algebra weighted least squares over the confidence graph.

Each iteration linearizes the consistency residuals
``log(R_j^T @ r_ij @ R_i)`` around the current estimates and solves the
weighted normal equations. The residuals are swept in unit quaternions,
held as (2, M) complex pairs (:func:`cara.kernels.quat_residuals`): the
edge rotations are converted once per graph
(:attr:`cara.graph.EdgeStream.quaternions`), or read from a ``--stream``
store that spooled them, and the N vertex rotations once per sweep. A
robust kernel's weights are computed in that sweep, chunk by chunk, and
kept for the step's factor. Each chunk's weighted residuals are added into
the running right-hand side by scipy's compiled product with the chunk's
signed incidence matrix, edge by edge in order, so the rhs has the same
bits for any chunk size. Because every weight block is a scalar times
the identity, the 3N x 3N system factors into a weighted graph Laplacian
acting on three right-hand-side columns. The gauge is fixed by deleting
the anchor (root) vertex's row and column, so that vertex keeps its
initial rotation. The pattern is built once per solve from the edge
arrays (:class:`_LaplacianPattern`); each weight setting only writes the
weights into it and factorizes it as a band by LAPACK's Cholesky, in
vertex order where the pattern is dense (``DENSE_FILL``) and in reverse
Cuthill-McKee order where it is sparse, or by SuperLU where that band is
too wide (``BAND_FILL``), as a camera that sees most others makes it.

:func:`cao_solve` and :func:`irls_solve` run one loop over the edges of
an :class:`EdgeStream`, swept in fixed-size chunks; ``--stream`` runs it on
a memory-mapped one, so both paths give bit-identical estimates.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import _sparsetools, csgraph

from . import kernels, so3
from .errors import DegenerateWeightsError, InvalidArgumentError, NotConnectedError
from .graph import CHUNK_RECORDS, EdgeStream, components
from .tree_init import _pick_root

KERNEL_KINDS = ("confidence", "l2", "l_half", "cauchy", "geman_mcclure")

# Clamp for the l_half IRLS weight x^(-3/2) at zero residual.
L_HALF_EPS = 1e-5
# Weight floor applied when IRLS re-weighting disconnects the graph.
WEIGHT_FLOOR = 1e-6
# Laplacians with 2 * kept edges + kept vertices >= DENSE_FILL * nk^2 keep
# their vertex order, and their band is the whole upper triangle. The rule
# is checked first, so a dense pattern costs no ordering.
DENSE_FILL = 0.25
# A sparser Laplacian, its vertices in reverse Cuthill-McKee order, is
# factored by banded Cholesky when its (u + 1) x nk band holds at most
# BAND_FILL times its kept edges plus kept vertices, else by SuperLU. A
# camera that sees most others stretches the band to about nk, where the
# band costs O(nk^2) bytes and O(nk^3) flops and SuperLU's fill-reducing
# order keeps the factor sparse.
BAND_FILL = 32
# A solve stops once its largest residual angle (rad) is below this.
RESIDUAL_TOLERANCE = 1e-10
# IRLS stops once its robust objective changes by at most this fraction.
IRLS_REL_TOL = 1e-8


@dataclass(frozen=True)
class SolveConfig:
    """Solver settings: the iteration caps of the confidence solve and of
    IRLS. The tolerances are module constants."""

    max_iterations: int = 3
    irls_max_iterations: int = 20

    def __post_init__(self):
        # A cap the loop's count never equals (2.5, NaN) would never stop it.
        for name in ("max_iterations", "irls_max_iterations"):
            try:
                cap = operator.index(getattr(self, name))
            except TypeError:
                raise InvalidArgumentError(f"{name} must be an integer") from None
            if cap < 1:
                raise InvalidArgumentError(f"{name} must be >= 1")


@dataclass
class RobustKernel:
    kind: str = "confidence"
    alpha: float = math.radians(5.0)

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise InvalidArgumentError(f"unknown kernel kind {self.kind!r}")
        if self.kind in ("cauchy", "geman_mcclure") and not 0.0 < self.alpha < math.inf:
            raise InvalidArgumentError("alpha must be positive and finite for this kernel")

    def weights(self, x: np.ndarray) -> np.ndarray:
        """IRLS weights psi(x)/x for residual angles x."""
        if self.kind == "l2":
            return np.ones_like(x)
        if self.kind == "cauchy":
            return 1.0 / (1.0 + (x / self.alpha) ** 2)
        if self.kind == "geman_mcclure":
            a2 = self.alpha ** 2
            return a2 / (a2 + x ** 2) ** 2
        if self.kind == "l_half":
            return np.maximum(x, L_HALF_EPS) ** -1.5
        raise InvalidArgumentError("confidence kernel has fixed weights c_ij")

    def rho(self, x: np.ndarray) -> np.ndarray:
        """Robust cost per residual angle."""
        if self.kind == "l2":
            return 0.5 * x ** 2
        if self.kind == "cauchy":
            return 0.5 * self.alpha ** 2 * np.log1p((x / self.alpha) ** 2)
        if self.kind == "geman_mcclure":
            return x ** 2 / (2.0 * (self.alpha ** 2 + x ** 2))
        if self.kind == "l_half":
            return np.sqrt(np.abs(x))
        raise InvalidArgumentError("confidence kernel cost is c * x^2")


@dataclass
class SolveReport:
    rotations: np.ndarray              # (N, 3, 3)
    loss_history: list[float]
    max_residual_history: list[float]
    iterations_run: int
    anchor_vertex: int
    diagnostics: list[str] = field(default_factory=list)
    stop_reason: str = ""  # residual_tolerance | relative_tolerance | iteration_cap


def cal_loss(g: EdgeStream, rotations: np.ndarray) -> float:
    """Confidence-weighted sum of squared residual angles, swept over the
    stream's quaternion pairs, so any EdgeStream will do; the expression of
    a solve's ``loss_history``, so a solve's first entry has the same bits."""
    rotations = np.asarray(rotations, dtype=float)
    if rotations.shape != (g.n_vertices, 3, 3):
        raise InvalidArgumentError(
            f"expected {g.n_vertices} rotations, got shape {rotations.shape}")
    q = kernels.batch_quat(rotations)
    theta = kernels.quat_residuals(q[:, g.ii], q[:, g.jj], g.quaternions)[1]
    return float(g.confidences @ theta ** 2)


def _check_connectivity(n, ii, jj, conf=None):
    """Raise NotConnectedError for a disconnected graph and, given
    confidences, DegenerateWeightsError when its positive-confidence
    edges leave it disconnected. A connected positive-confidence subgraph
    proves the whole graph connected, so that search runs first and the
    full graph is searched only when it splits."""
    if conf is not None:
        positive = conf > 0
        split = len(components(n, ii[positive], jj[positive]))
        if split == 1:
            return
    comps = components(n, ii, jj)
    if len(comps) > 1:
        raise NotConnectedError(comps)
    if conf is not None:
        raise DegenerateWeightsError(
            f"positive-confidence subgraph splits into {split} components; "
            "the weighted normal equations are singular")


class _LaplacianPattern:
    """Pattern of the anchored weighted Laplacian of one edge set, built
    once per solve: the anchor vertex's row and column are deleted.

    Kept edges avoid the anchor and count only in their other end's
    degree; ``order`` lists the kept vertices in the matrix's row order.
    ``upper`` holds each kept edge's flat slot, and the slice ``diag`` the
    diagonal's, in the zeroed Fortran-ordered (u + 1) x nk upper band that
    :meth:`factor` fills and factors in place: a dense pattern (see
    ``DENSE_FILL``) keeps the vertex order with u = nk - 1, and a sparse
    one takes reverse Cuthill-McKee order. A band too wide for
    ``BAND_FILL`` keeps the vertex order, and SuperLU's CSC ``matrix``
    instead, whose data hold each kept edge's (lo, hi) at ``upper``, its
    (hi, lo) at ``lower`` and the diagonal at ``diag``. It only lays out
    pairs that keep the :class:`EdgeStream` rules: distinct, no loops.
    """

    def __init__(self, n, ii, jj, anchor):
        self.n, self.ii, self.jj = n, ii, jj
        keep = np.delete(np.arange(n), anchor)
        pos = np.full(n, -1, dtype=np.int32)
        pos[keep] = np.arange(len(keep), dtype=np.int32)
        lo, hi = pos[np.minimum(ii, jj)], pos[np.maximum(ii, jj)]
        self.kept = np.flatnonzero((lo >= 0) & (hi >= 0))
        lo, hi = lo[self.kept], hi[self.kept]
        m, nk = len(lo), len(keep)
        self.order, self.matrix = keep, None
        if 2 * m + nk >= DENSE_FILL * nk * nk:
            u = max(nk - 1, 0)  # a one-vertex graph keeps no vertex
        else:
            adjacency = sp.csr_matrix(
                (np.ones(2 * m, dtype=np.int8),
                 (np.concatenate([lo, hi]), np.concatenate([hi, lo]))), shape=(nk, nk))
            rcm = csgraph.reverse_cuthill_mckee(adjacency, symmetric_mode=True)
            del adjacency
            rank = np.empty(nk, dtype=np.int32)
            rank[rcm] = np.arange(nk, dtype=np.int32)
            u = int(np.max(np.abs(rank[lo] - rank[hi]), initial=0))
            if (u + 1) * nk > BAND_FILL * (m + nk):
                # Each entry's index lands in its own slot of the CSC data.
                diag = np.arange(nk, dtype=np.int32)
                self.matrix = sp.csc_matrix(
                    (np.arange(2 * m + nk, dtype=float),
                     (np.concatenate([lo, hi, diag]), np.concatenate([hi, lo, diag]))),
                    shape=(nk, nk))
                slots = np.empty(2 * m + nk, dtype=np.int32)
                slots[self.matrix.data.astype(np.intp)] = np.arange(2 * m + nk, dtype=np.int32)
                self.upper, self.lower, self.diag = slots[:m], slots[m:2 * m], slots[2 * m:]
                return
            self.order = keep[rcm]
            lo, hi = rank[lo], rank[hi]
            lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        # (i, j) with i <= j sits at row u + i - j of column j.
        self.upper = (u + lo) + hi.astype(np.intp) * u
        self.diag = slice(u, None, u + 1)
        self.shape = (u + 1, nk)

    def factor(self, w):
        """Factorized solve for the Laplacian weighted by ``w``. The solve
        returns zeros in the anchor's row."""
        n, order = self.n, self.order
        deg = np.bincount(self.ii, w, minlength=n) + np.bincount(self.jj, w, minlength=n)
        try:
            if self.matrix is not None:
                data, off = self.matrix.data, -w[self.kept]
                data[self.upper] = off
                data[self.lower] = off
                data[self.diag] = deg[order]
                lu = spla.splu(self.matrix)
                pivots = np.abs(lu.U.diagonal())
                solve_kept = lu.solve
            else:
                flat = np.zeros(self.shape[0] * self.shape[1])
                flat[self.upper] = -w[self.kept]
                flat[self.diag] = deg[order]
                band = la.cholesky_banded(flat.reshape(self.shape, order="F"),
                                          overwrite_ab=True, check_finite=False)
                pivots = band[-1] ** 2
                solve_kept = partial(la.cho_solve_banded, (band, False),
                                     check_finite=False)
        except (la.LinAlgError, RuntimeError) as exc:
            raise DegenerateWeightsError(f"normal equations are singular: {exc}") from exc
        # The pivots scale with the weights, so the test is relative to the
        # largest. A one-vertex graph keeps no vertex and has no pivot.
        if np.min(pivots, initial=np.inf) < 1e-14 * np.max(w, initial=0.0):
            raise DegenerateWeightsError("normal equations are numerically singular")

        def solve(rhs_full):
            delta = np.zeros((n, 3))
            delta[order] = solve_kept(rhs_full[order])
            return delta

        return solve


def _residual_pass(stream: EdgeStream, rotations, weights):
    """One sweep over the edges: accumulated rhs B^T W db, per-edge
    residual norms and the per-edge weights, ``CHUNK_RECORDS`` edges at a
    time. The edges' quaternion pairs are the stream's own, and the N
    vertex rotations are converted to pairs once per sweep. ``weights`` is
    a per-edge array, returned as given, or a function mapping a chunk's
    residual norms to that chunk's weights, which are collected.

    Each chunk's terms go into the running rhs through scipy's compiled
    CSC product with the chunk's signed incidence: column e holds edge e's
    ends, (ii[e], -1) and (jj[e], +1), and the product walks the columns in
    order, adding each edge's -w*res and +w*res into its ends' rows. So
    each vertex's terms are summed in edge order from the running total,
    whatever the chunking. The +-1 coefficients make each product exact,
    with or without FMA, so the sums are bit-identical to an in-order
    scatter. The product does not bound-check: the rows must keep the
    :class:`EdgeStream` rules, ids in [0, n) and confidences finite.
    """
    n, m = stream.n_vertices, len(stream.ii)
    rhs = np.zeros((n, 3))
    norms = np.zeros(m)
    per_edge = np.empty_like(norms) if callable(weights) else weights
    width = min(m, CHUNK_RECORDS)
    indptr = np.arange(0, 2 * width + 1, 2, dtype=np.intp)
    sign = np.tile([-1.0, 1.0], width)
    ends = np.empty(2 * width, dtype=np.intp)
    wres = np.empty((width, 3))
    vertex_pairs = kernels.batch_quat(rotations)
    for start in range(0, m, CHUNK_RECORDS):
        chunk = slice(start, start + CHUNK_RECORDS)
        ii, jj = stream.ii[chunk], stream.jj[chunk]
        # qi is gathered once conj(qj) qij is formed and qj is freed.
        res, norms[chunk] = kernels.residual_log(
            kernels.conj_product(vertex_pairs.take(jj, axis=1),
                                 stream.quaternions[:, chunk]),
            vertex_pairs.take(ii, axis=1))
        if callable(weights):
            per_edge[chunk] = weights(norms[chunk])
        k = len(ii)
        ends[:2 * k:2], ends[1:2 * k:2] = ii, jj
        np.multiply(res, per_edge[chunk], out=wres[:k].T)
        # The one scipy product that adds into an output it is given; the
        # public csc @ x would need identity columns to carry the rhs.
        # rhs.ravel() is a view only because rhs is C-contiguous.
        _sparsetools.csc_matvecs(n, k, 3, indptr[:k + 1], ends[:2 * k],
                                 sign[:2 * k], wres[:k].ravel(), rhs.ravel())
    return rhs, norms, per_edge


def _solve(stream: EdgeStream, initial_rotations, kernel: RobustKernel | None,
           config: SolveConfig) -> SolveReport:
    """The one solve loop. ``kernel=None`` weights the edges by their fixed
    confidences and factors once; a robust kernel re-weights them from each
    sweep's residual angles and refills the pattern at every step."""
    n, ii, jj, conf = stream.n_vertices, stream.ii, stream.jj, stream.confidences
    _check_connectivity(n, ii, jj, conf if kernel is None else None)
    # The readers' rule, on a copy, so that no report aliases the caller's array.
    R = so3.as_rotations(np.array(initial_rotations, dtype=float))
    if len(R) != n:
        raise InvalidArgumentError(f"expected {n} initial rotations, got {R.shape}")
    anchor = _pick_root(n, ii, jj, conf)
    laplacian = _LaplacianPattern(n, ii, jj, anchor)
    if kernel is None:
        # Only the factor lives through the sweeps: holding the pattern too
        # raised the --stream peak by a quarter.
        weights, cap = conf, config.max_iterations
        solve, laplacian = laplacian.factor(conf), None
    else:
        weights, cap = kernel.weights, config.irls_max_iterations
    loss_history: list[float] = []
    max_residual_history: list[float] = []
    diagnostics: list[str] = []
    iterations_run = 0
    while True:
        # One sweep gives the norms, the weights and the weighted rhs.
        rhs, norms, w = _residual_pass(stream, R, weights)
        loss_history.append(float(conf @ norms ** 2) if kernel is None
                            else float(np.sum(kernel.rho(norms))))
        max_residual_history.append(float(norms.max()) if len(norms) else 0.0)
        converged = kernel is not None and len(loss_history) > 1 and (
            abs(loss_history[-2] - loss_history[-1])
            <= IRLS_REL_TOL * max(abs(loss_history[-2]), 1e-30))
        stop_reason = ("residual_tolerance"
                       if max_residual_history[-1] < RESIDUAL_TOLERANCE
                       else "relative_tolerance" if converged
                       else "iteration_cap" if iterations_run == cap else "")
        if stop_reason:
            break
        if kernel is not None:
            if not (w > 0).all() and len(components(n, ii[w > 0], jj[w > 0])) > 1:
                w = np.maximum(w, WEIGHT_FLOOR)
                diagnostics.append(
                    "re-weighting disconnected the graph; weights floored at "
                    f"{WEIGHT_FLOOR}")
                rhs = _residual_pass(stream, R, w)[0]
            solve = laplacian.factor(w)
        R = R @ kernels.batch_exp(solve(rhs))
        del rhs, norms  # the next sweep makes its own
        if kernel is not None:
            del w, solve  # refilled at every step: not held through the sweep
        iterations_run += 1
    return SolveReport(R, loss_history, max_residual_history, iterations_run,
                       anchor, diagnostics, stop_reason)


def cao_solve(stream: EdgeStream, initial_rotations,
              config: SolveConfig | None = None) -> SolveReport:
    """Confidence-weighted optimization (fixed weights c_ij) over any
    :class:`EdgeStream`: a parsed graph, or the memory-mapped edges of a
    ``--stream`` file. Memory O(N + |E|) beyond the stream's quaternion pairs."""
    return _solve(stream, initial_rotations, None, config or SolveConfig())


def irls_solve(stream: EdgeStream, initial_rotations,
               kernel: RobustKernel | None = None,
               config: SolveConfig | None = None) -> SolveReport:
    """Iteratively re-weighted least squares under a robust kernel, over
    any :class:`EdgeStream` as :func:`cao_solve`.

    ``kind="confidence"`` degenerates to :func:`cao_solve`. Otherwise
    each outer iteration re-derives per-edge weights from the current
    residual angles and takes one weighted least-squares step; it stops
    when the relative change of the robust objective falls below
    ``IRLS_REL_TOL`` or after ``irls_max_iterations`` steps.
    """
    kernel = kernel or RobustKernel()
    if kernel.kind == "confidence":
        return cao_solve(stream, initial_rotations, config)
    return _solve(stream, initial_rotations, kernel, config or SolveConfig())
