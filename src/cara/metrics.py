"""Gauge alignment and rotation-error statistics.

Estimates are only defined up to one global rotation, so all statistics
first solve the chordal alignment problem

    S* = argmin_{S in SO(3)} sum_i || S - R_i^T Rhat_i ||_F^2

(closed form: project the summed matrix onto SO(3)) and then measure
per-camera angles between R_i S* and Rhat_i.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import InvalidArgumentError
from .so3 import project_to_so3

DEFAULT_THRESHOLDS_DEG = (3.0, 5.0, 10.0)


@dataclass(frozen=True, eq=False)
class AlignedErrorStats:
    per_camera_errors: np.ndarray       # radians, each in [0, pi]
    mean: float                         # radians
    median: float                       # radians
    accuracy: dict[float, float]        # threshold in degrees -> fraction
    gauge: np.ndarray                   # the aligning rotation S*


def _check_pair(estimates, ground_truth):
    est = np.asarray(estimates, dtype=float)
    gt = np.asarray(ground_truth, dtype=float)
    if est.ndim != 3 or est.shape[1:] != (3, 3) or est.shape[0] == 0:
        raise InvalidArgumentError(f"estimates must be (N, 3, 3), got {est.shape}")
    if gt.shape != est.shape:
        raise InvalidArgumentError(
            f"shape mismatch: estimates {est.shape} vs ground truth {gt.shape}")
    return est, gt


def align(estimates, ground_truth) -> np.ndarray:
    """Gauge rotation S* minimizing the summed chordal distance."""
    est, gt = _check_pair(estimates, ground_truth)
    acc = np.einsum("nji,njk->ik", est, gt)  # sum of R_i^T Rhat_i
    return project_to_so3(acc)


def error_stats(estimates, ground_truth,
                thresholds_deg=DEFAULT_THRESHOLDS_DEG) -> AlignedErrorStats:
    """Aligned per-camera errors plus mean / median / accuracy summaries."""
    est, gt = _check_pair(estimates, ground_truth)
    gauge = align(est, gt)
    aligned = est @ gauge
    # Angle of gt^T @ aligned per camera. Computed through batch_log,
    # whose 2 atan2(|v|, |w|) of the unit quaternion agrees with
    # arccos((trace - 1) / 2) but stays accurate near zero angle, where
    # arccos loses half the significant digits, and near pi.
    rel = np.transpose(gt, (0, 2, 1)) @ aligned
    errors = np.linalg.norm(kernels.batch_log(rel), axis=1)
    errors_deg = np.degrees(errors)
    accuracy = {float(t): float(np.mean(errors_deg <= t)) for t in thresholds_deg}
    return AlignedErrorStats(
        per_camera_errors=errors,
        mean=float(np.mean(errors)),
        median=float(np.median(errors)),
        accuracy=accuracy,
        gauge=gauge,
    )


def alignment_loss(estimates, ground_truth) -> float:
    """Mean Frobenius distance between aligned estimates and ground truth."""
    est, gt = _check_pair(estimates, ground_truth)
    gauge = align(est, gt)
    diff = est @ gauge - gt
    return float(np.mean(np.linalg.norm(diff, axis=(1, 2))))
