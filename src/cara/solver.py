"""Iterative Lie-algebra weighted least squares over the confidence graph.

Each iteration linearizes the consistency residuals
``log(R_j^T @ r_ij @ R_i)`` around the current estimates and solves the
weighted normal equations. The residuals are swept in the (2, M) complex
quaternion pairs of :func:`cara.kernels.quat_residuals`, converted once
per graph or spooled by ``--stream``, a chunk at a time; a robust kernel's
weights come from the same sweep (:func:`_residual_pass`). Every weight
block is a scalar times the identity, so the 3N x 3N system is a weighted
graph Laplacian on three right-hand-side columns, whose anchor (root)
vertex's row and column are deleted to fix the gauge. Its pattern is laid
out once per solve (:class:`_LaplacianPattern`) and factored by LAPACK's
banded Cholesky, fixed weights once and a robust kernel's at every step: a
dense pattern in vertex order, a sparse one in reverse Cuthill-McKee order
bordered by the few cameras that see most others (George and Liu's
bordered ordering), whose Schur complement is factored as a full band.

:func:`cao_solve` and :func:`irls_solve` run one loop over the edges of an
:class:`EdgeStream`; ``--stream`` runs it on a memory-mapped one, so both
paths give bit-identical estimates.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.linalg as la
from scipy.sparse import _sparsetools, csgraph

from . import kernels, so3
from .errors import DegenerateWeightsError, InvalidArgumentError, NotConnectedError
from .graph import (CHUNK_RECORDS, EdgeStream, component_count, components, csr,
                    vertex_sums)
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


def _start(n, rotations) -> np.ndarray:
    """The one start check: n vertex rotations by the readers' rule, on a
    copy, so that no report aliases the caller's array. The shape is
    checked first, so a start of the wrong length fails before any O(N)
    work."""
    R = np.array(rotations, dtype=float)
    if R.shape != (n, 3, 3):
        raise InvalidArgumentError(f"expected {n} rotations, got shape {R.shape}")
    return so3.as_rotations(R)


def cal_loss(g: EdgeStream, rotations: np.ndarray) -> float:
    """Confidence-weighted sum of squared residual angles over any
    EdgeStream: a confidence solve's own first sweep (:func:`_residual_pass`)
    from the same start check (:func:`_start`), so its value has the bits
    of the solve's ``loss_history[0]`` and the sweep's memory, one chunk's
    buffers past its O(N + M) outputs."""
    conf = g.confidences
    return float(conf @ _residual_pass(g, _start(g.n_vertices, rotations), conf)[1] ** 2)


def _check_connectivity(n, ii, jj, conf=None):
    """Raise NotConnectedError for a disconnected graph and, given
    confidences, DegenerateWeightsError when its positive-confidence
    edges leave it disconnected. A connected positive-confidence subgraph
    proves the whole graph connected, so that count runs first and the
    full graph is counted only when it splits; components are listed
    only for the error."""
    if conf is not None:
        positive = conf > 0
        split = component_count(n, ii[positive], jj[positive])
        if split == 1:
            return
    if component_count(n, ii, jj) > 1:
        raise NotConnectedError(components(n, ii, jj))
    if conf is not None:
        raise DegenerateWeightsError(
            f"positive-confidence subgraph splits into {split} components; "
            "the weighted normal equations are singular")


def _rcm(nk, lo, hi):
    """RCM rank of each of nk vertices, band u of (lo, hi) in it, degrees."""
    # Rows by hi first: where the pairs rise, each row's columns do.
    adjacency = csr(nk, np.concatenate([hi, lo]), np.concatenate([lo, hi]),
                    np.ones(2 * len(lo), dtype=np.int8))
    rcm = csgraph.reverse_cuthill_mckee(adjacency, symmetric_mode=True)
    degree = np.diff(adjacency.indptr)
    del adjacency
    rank = np.empty(nk, dtype=np.int32)
    rank[rcm] = np.arange(nk, dtype=np.int32)
    return rank, int(np.max(np.abs(rank[lo] - rank[hi]), initial=0)), degree


def _bordered_order(nk, lo, hi):
    """Rank of each of nk vertices, band u and border h of the edges
    (lo, hi): the rest in RCM order, then the h of highest degree. While
    the band is wider than its vertices' mean degree, h = 1, 2, 4, ... is
    tried and kept while the predicted flops fall; until one is kept, a
    rise is passed over while the next vertex spans the band (a second hub)."""
    rank, u, degree = _rcm(nk, lo, hi)
    top = np.argsort(-degree, kind="stable")
    h, k, edges, cost = 0, 1, len(lo), nk * (u + 1) ** 2
    while k < nk and u > 2 * edges / (nk - h):
        rest = np.bincount(top[:k], minlength=nk) == 0
        inner = rest[lo] & rest[hi]
        sub = np.cumsum(rest, dtype=np.int32) - 1
        sub_rank, sub_u, _ = _rcm(nk - k, sub[lo[inner]], sub[hi[inner]])
        # The band's factor and its k solves, the Schur product and factor.
        flops = (nk - k) * (sub_u + 1) * (sub_u + 1 + 4 * k) + 2 * k * k * (nk - k) + k ** 3 / 3
        if flops < cost:
            h, u, edges, cost = k, sub_u, np.count_nonzero(inner), flops
            rank[rest], rank[top[:k]] = sub_rank, np.arange(nk - k, nk, dtype=np.int32)
        elif h or degree[top[k]] < sub_u:
            break
        k *= 2
    return rank, u, h


class _LaplacianPattern:
    """Pattern of the anchored weighted Laplacian of one edge set, built
    once per solve: the anchor vertex's row and column are deleted.

    Kept edges avoid the anchor and count only in their other end's
    degree; ``order`` lists the kept vertices in the matrix's row order:
    their own where the pattern is dense (``DENSE_FILL``), else that of
    :func:`_bordered_order`, whose last ``border`` rows, h of them, are
    dense. ``slots`` holds each edge's flat slot, and ``diag`` the
    diagonal's, in the zeroed array that :meth:`factor` fills: the
    Fortran-ordered (u + 1) x nr upper band of the rest (``shape``), then
    the nk x h upper border columns. An edge at the anchor has the first
    diagonal slot, which the degrees overwrite, so every edge's weight is
    written without a gather. Edges keep the :class:`EdgeStream` rules."""

    def __init__(self, n, ii, jj, anchor):
        self.n, self.ii, self.jj = n, ii, jj
        keep = np.delete(np.arange(n), anchor)
        pos = np.full(n, -1, dtype=np.int32)
        pos[keep] = np.arange(len(keep), dtype=np.int32)
        lo, hi = pos[np.minimum(ii, jj)], pos[np.maximum(ii, jj)]
        kept = (lo >= 0) & (hi >= 0)
        lo, hi = lo[kept], hi[kept]
        m, nk = len(lo), len(keep)
        u, h = max(nk - 1, 0), 0  # a one-vertex graph keeps no vertex
        if 2 * m + nk < DENSE_FILL * nk * nk:
            rank, u, h = _bordered_order(nk, lo, hi)
            keep[rank] = keep.copy()  # row rank[i] holds kept vertex i
            lo, hi = rank[lo], rank[hi]
            lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        self.order, self.border, self.shape = keep, h, (u + 1, nk - h)
        # (i, j) with i <= j sits at row u + i - j of column j of the band,
        # or at row i of border column j; the first diagonal slot is u.
        self.slots = np.full(len(ii), u, dtype=np.intp)
        self.slots[kept] = (u + lo) + hi.astype(np.intp) * u
        self.diag, self.size = slice(u, None, u + 1), (u + 1) * (nk - h)
        if h:
            side = hi >= nk - h
            self.slots[np.flatnonzero(kept)[side]] = (
                self.size + lo[side] + (hi[side] - (nk - h)).astype(np.intp) * nk)
            self.diag = np.r_[u:self.size:u + 1, self.size + nk - h:self.size + nk * h:nk + 1]
            self.size += nk * h

    def factor(self, w):
        """Factorized solve for the Laplacian weighted by ``w``, zero in the
        anchor's row; a border's products are einsum's, which no BLAS splits."""
        n, order, h, (rows, nr) = self.n, self.order, self.border, self.shape
        deg = vertex_sums(n, self.ii, w)
        deg += vertex_sums(n, self.jj, w)
        flat = np.zeros(self.size)
        flat[self.slots] = -w
        flat[self.diag] = deg[order]
        try:
            band = la.cholesky_banded(flat[:rows * nr].reshape(self.shape, order="F"),
                                      overwrite_ab=True, check_finite=False)
            pivots = band[-1] ** 2
            solve_kept = solve_band = partial(la.cho_solve_banded, (band, False),
                                              check_finite=False)
            if h:
                side, corner = np.split(flat[rows * nr:].reshape(nr + h, h, order="F"), [nr])
                schur = corner - np.einsum("ia,ib->ab", side, solve_band(side))
                i, j = np.triu_indices(h)
                band = np.zeros((h, h))
                band[h - 1 + i - j, j] = schur[i, j]
                band = la.cholesky_banded(band, overwrite_ab=True, check_finite=False)
                pivots = np.concatenate([pivots, band[-1] ** 2])
                solve_border = partial(la.cho_solve_banded, (band, False), check_finite=False)

                def solve_kept(r):
                    tail = solve_border(r[nr:] - np.einsum("ia,ib->ab", side, solve_band(r[:nr])))
                    return np.concatenate(
                        [solve_band(r[:nr] - np.einsum("ia,ab->ib", side, tail)), tail])
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
    vertex rotations are converted once per sweep to the C-ordered table
    of :func:`cara.kernels.vertex_table`, whose gathers read only the
    columns they take, so a sweep is O(M) at any N. ``weights`` is
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
    norms = np.empty(m)  # the chunks write every entry
    per_edge = np.empty_like(norms) if callable(weights) else weights
    width = min(m, CHUNK_RECORDS)
    indptr = np.arange(0, 2 * width + 1, 2, dtype=np.intp)
    sign = np.empty(2 * width)
    sign[::2], sign[1::2] = -1.0, 1.0
    ends = np.empty(2 * width, dtype=np.intp)
    wres = np.empty((width, 3))
    table = kernels.vertex_table(rotations)
    for start in range(0, m, CHUNK_RECORDS):
        chunk = slice(start, start + CHUNK_RECORDS)
        ii, jj = stream.ii[chunk], stream.jj[chunk]
        # qi is gathered once conj(qj) qij is formed and qj is freed.
        res, norms[chunk] = kernels.residual_log(
            kernels.conj_product(table[:2].take(jj, axis=1), stream.quaternions[:, chunk]),
            table[1:].take(ii, axis=1)[::-1])
        if callable(weights):
            per_edge[chunk] = weights(norms[chunk])
        k = len(ii)
        ends[:2 * k:2], ends[1:2 * k:2] = ii, jj
        np.multiply(res, per_edge[chunk], out=wres[:k].T)
        del res  # not held through the next chunk's kernels
        # The one scipy product that adds into an output it is given; the
        # public csc @ x would need identity columns to carry the rhs.
        # rhs.ravel() is a view only because rhs is C-contiguous.
        _sparsetools.csc_matvecs(n, k, 3, indptr[:k + 1], ends[:2 * k],
                                 sign[:2 * k], wres[:k].ravel(), rhs.ravel())
    return rhs, norms, per_edge


def _solve(stream: EdgeStream, initial_rotations, kernel: RobustKernel | None,
           config: SolveConfig) -> SolveReport:
    """The one solve loop. Fixed weights, the confidences for
    ``kernel=None`` and the ones of l2, are factored once; any other
    kernel re-weights the edges from each sweep's residual angles and
    refills the pattern at every step."""
    n, ii, jj, conf = stream.n_vertices, stream.ii, stream.jj, stream.confidences
    R = _start(n, initial_rotations)
    _check_connectivity(n, ii, jj, conf if kernel is None else None)
    anchor = _pick_root(n, ii, jj, conf)
    laplacian = _LaplacianPattern(n, ii, jj, anchor)
    if kernel is None:
        weights, cap = conf, config.max_iterations
    else:
        # l2's psi(x)/x is identically 1: its weights are fixed too.
        weights = np.ones(len(ii)) if kernel.kind == "l2" else kernel.weights
        cap = config.irls_max_iterations
    if not callable(weights):
        # Only the factor lives through the sweeps: holding the pattern too
        # raised the --stream peak by a quarter.
        solve, laplacian = laplacian.factor(weights), None
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
        if callable(weights):
            positive = w > 0
            if not positive.all() and component_count(n, ii[positive], jj[positive]) > 1:
                w = np.maximum(w, WEIGHT_FLOOR)
                diagnostics.append(
                    "re-weighting disconnected the graph; weights floored at "
                    f"{WEIGHT_FLOOR}")
                rhs = _residual_pass(stream, R, w)[0]
            del positive
            solve = laplacian.factor(w)
        R = R @ kernels.batch_exp(solve(rhs))
        del rhs, norms, w  # the next sweep makes its own
        if callable(weights):
            del solve  # refilled at every step: not held through the sweep
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
