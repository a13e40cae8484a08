"""Synthetic confidence-graph generator.

Stands in for a learned front-end: ground-truth rotations are drawn
uniformly on SO(3), relative rotations are perturbed (inliers) or
replaced with uniform random rotations (outliers), and confidences come
from a pluggable model. Everything is deterministic under the seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import graph as graphmod
from . import so3
from .errors import GenerationError, GraphParseError, InvalidArgumentError
from .graph import EdgeStream, EpipolarConfidenceGraph

TOPOLOGIES = ("complete", "erdos", "chain_window")
CONFIDENCE_MODELS = ("oracle", "informative", "constant", "adversarial")

ERDOS_MAX_RETRIES = 100


@dataclass(frozen=True)
class SyntheticSceneSpec:
    n: int
    topology: str = "complete"
    erdos_p: float = 0.5
    chain_window: int = 1
    noise_sigma: float = 0.0              # radians
    outlier_edge_fraction: float = 0.0
    confidence_model: str = "oracle"
    oracle_eps: float = 0.01
    informative_scale: float = math.radians(10.0)
    informative_jitter: float = 0.05
    constant_confidence: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise InvalidArgumentError("need at least 2 cameras")
        if self.topology not in TOPOLOGIES:
            raise InvalidArgumentError(f"unknown topology {self.topology!r}")
        if self.confidence_model not in CONFIDENCE_MODELS:
            raise InvalidArgumentError(
                f"unknown confidence model {self.confidence_model!r}")
        if not 0.0 <= self.outlier_edge_fraction <= 1.0:
            raise InvalidArgumentError("outlier_edge_fraction must be in [0, 1]")
        if not 0.0 <= self.noise_sigma < math.inf:
            raise InvalidArgumentError("noise_sigma must be finite and nonnegative")
        if not 0.0 <= self.constant_confidence <= 1.0:
            raise InvalidArgumentError("constant_confidence must be in [0, 1]")
        if self.topology == "chain_window" and self.chain_window < 1:
            raise InvalidArgumentError("chain_window must be >= 1")
        if self.topology == "erdos" and not 0.0 < self.erdos_p <= 1.0:
            raise InvalidArgumentError("erdos_p must be in (0, 1]")
        if self.seed < 0:
            raise InvalidArgumentError("seed must be >= 0")


@dataclass(frozen=True, eq=False)
class SyntheticScene:
    graph: EpipolarConfidenceGraph
    edge_labels: np.ndarray           # bool per edge, True = inlier
    true_edge_errors: np.ndarray      # radians per edge
    spec: SyntheticSceneSpec


def _topology_pairs(spec: SyntheticSceneSpec, rng) -> list[tuple[int, int]]:
    n = spec.n
    if spec.topology == "complete":
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    if spec.topology == "chain_window":
        return [(i, j) for i in range(n)
                for j in range(i + 1, min(i + spec.chain_window, n - 1) + 1)]
    # erdos: re-draw until connected
    for _ in range(ERDOS_MAX_RETRIES):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < spec.erdos_p]
        ends = np.array(pairs, dtype=np.intp).reshape(-1, 2)
        if len(graphmod.components(n, ends[:, 0], ends[:, 1])) == 1:
            return pairs
    raise GenerationError(
        f"erdos(p={spec.erdos_p}) stayed disconnected after "
        f"{ERDOS_MAX_RETRIES} attempts")


def _confidences(spec: SyntheticSceneSpec, inlier: np.ndarray,
                 errors: np.ndarray, rng) -> np.ndarray:
    m = len(errors)
    if spec.confidence_model == "oracle":
        return np.where(inlier, 1.0, spec.oracle_eps)
    if spec.confidence_model == "informative":
        base = np.exp(-errors ** 2 / (2.0 * spec.informative_scale ** 2))
        jitter = rng.uniform(-spec.informative_jitter, spec.informative_jitter, m)
        return np.clip(base + jitter, 0.0, 1.0)
    if spec.confidence_model == "constant":
        return np.full(m, spec.constant_confidence)
    return rng.uniform(0.0, 1.0, m)  # adversarial


def generate(spec: SyntheticSceneSpec) -> SyntheticScene:
    """Build a scene: ground truth, noisy/outlier edges, confidences."""
    rng = np.random.default_rng(spec.seed)
    gt = [so3.random_rotation(rng) for _ in range(spec.n)]
    pairs = _topology_pairs(spec, rng)
    m = len(pairs)
    if m == 0:
        raise GenerationError("topology produced no edges")

    n_outliers = int(round(spec.outlier_edge_fraction * m))
    inlier = np.ones(m, dtype=bool)
    inlier[rng.permutation(m)[:n_outliers]] = False

    rotations = np.empty((m, 3, 3))
    errors = np.empty(m)
    for k, (i, j) in enumerate(pairs):
        true_rel = gt[j] @ gt[i].T
        if inlier[k]:
            rotations[k] = so3.perturb(true_rel, spec.noise_sigma, rng)
        else:
            rotations[k] = so3.random_rotation(rng)
        errors[k] = so3.riemannian_distance(rotations[k], true_rel)

    conf = _confidences(spec, inlier, errors, rng)
    ends = np.array(pairs, dtype=np.intp)
    g = graphmod.build(spec.n, EdgeStream(spec.n, ends[:, 0], ends[:, 1], conf, rotations),
                       ground_truth=gt)
    return SyntheticScene(g, inlier, errors, spec)


def corrupt_with_outlier_vertices(scene: SyntheticScene, k: int,
                                  seed: int) -> SyntheticScene:
    """Append k vertices whose every incident edge is an outlier.

    New vertices are connected to every other vertex (original and
    appended); all their relative rotations are uniform random, and
    confidences follow the scene's confidence model with the actual
    errors.
    """
    if k < 0:
        raise InvalidArgumentError("k must be nonnegative")
    if k == 0:
        return scene
    rng = np.random.default_rng(seed)
    spec = scene.spec
    n_old = scene.graph.n_vertices
    n_new = n_old + k
    gt = list(scene.graph.ground_truth) + [so3.random_rotation(rng) for _ in range(k)]

    new_pairs = [(i, v) for v in range(n_old, n_new) for i in range(n_old)]
    new_pairs += [(a, b) for a in range(n_old, n_new) for b in range(a + 1, n_new)]
    new_pairs.sort()
    rotations = np.stack([so3.random_rotation(rng) for _ in new_pairs])
    errors = np.array([so3.riemannian_distance(rotations[t], gt[j] @ gt[i].T)
                       for t, (i, j) in enumerate(new_pairs)])
    inlier = np.zeros(len(new_pairs), dtype=bool)
    conf = _confidences(spec, inlier, errors, rng)

    ii, jj, old_rots, old_conf = scene.graph.edge_arrays()
    ends = np.array(new_pairs, dtype=np.intp)
    edges = EdgeStream(n_new, np.concatenate([ii, ends[:, 0]]),
                       np.concatenate([jj, ends[:, 1]]), np.concatenate([old_conf, conf]),
                       np.concatenate([old_rots, rotations]))
    g = graphmod.build(n_new, edges, ground_truth=gt)
    return SyntheticScene(
        g,
        np.concatenate([scene.edge_labels, inlier]),
        np.concatenate([scene.true_edge_errors, errors]),
        replace(spec, n=n_new),
    )


def confidence_error_table(scene: SyntheticScene, n_bins: int):
    """Bin edges by confidence into equal intervals over [0, 1].

    Returns a list of (mean_error, median_error, count) per bin; empty
    bins carry count 0 and NaN statistics.
    """
    if n_bins < 1:
        raise InvalidArgumentError("n_bins must be >= 1")
    conf = scene.graph.edge_arrays()[3]
    idx = np.minimum((conf * n_bins).astype(int), n_bins - 1)
    rows = []
    for b in range(n_bins):
        errs = scene.true_edge_errors[idx == b]
        if len(errs) == 0:
            rows.append((math.nan, math.nan, 0))
        else:
            rows.append((float(np.mean(errs)), float(np.median(errs)), len(errs)))
    return rows


def serialize_labels(scene: SyntheticScene) -> str:
    """Sidecar label file: LABEL <i> <j> <inlier|outlier> <true_error_rad>."""
    lines = []
    for i, j, lab, err in zip(scene.graph.ii.tolist(), scene.graph.jj.tolist(),
                              scene.edge_labels, scene.true_edge_errors):
        word = "inlier" if lab else "outlier"
        lines.append(f"LABEL {i} {j} {word} {err:.17g}")
    return "\n".join(lines) + "\n"


def parse_labels(text: str):
    """Parse a label sidecar into ({(i, j): is_inlier}, {(i, j): error})."""
    labels: dict[tuple[int, int], bool] = {}
    errors: dict[tuple[int, int], float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] != "LABEL" or len(parts) != 5:
            raise GraphParseError(lineno, "expected LABEL <i> <j> <kind> <error>")
        try:
            i, j = int(parts[1]), int(parts[2])
            err = float(parts[4])
        except ValueError as exc:
            raise GraphParseError(lineno, str(exc)) from exc
        if parts[3] not in ("inlier", "outlier"):
            raise GraphParseError(lineno, f"unknown label kind {parts[3]!r}")
        labels[(i, j)] = parts[3] == "inlier"
        errors[(i, j)] = err
    return labels, errors
