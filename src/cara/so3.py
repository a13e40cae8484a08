"""Single-rotation SO(3)/so(3) helpers: validation, exp/log, distances.

Rotations are plain (3, 3) float64 numpy arrays; tangent vectors are (3,)
arrays in axis-angle form (the norm is the rotation angle in radians).
``exp_map`` and ``log_map`` are one-row calls into :mod:`cara.kernels`.

Euler convention used throughout: intrinsic Z(yaw) * Y(pitch) * X(roll).
"""
from __future__ import annotations

import math

import numpy as np

from . import kernels
from .errors import DegenerateInputError, InvalidArgumentError

# Construction tolerance: inputs orthonormal within this are re-projected,
# anything worse is rejected.
ROTATION_TOL = 1e-6

_EYE = np.eye(3)[:, :, None]
# Index i -> i + 1 (mod 3), to take the components of a cross product.
_ROLL = np.array([1, 2, 0])


def is_rotation(m: np.ndarray) -> bool:
    """True if m is orthonormal with determinant +1 within 1e-9."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3) or not np.all(np.isfinite(m)):
        return False
    return (np.linalg.norm(m.T @ m - np.eye(3)) <= 1e-9
            and abs(np.linalg.det(m) - 1.0) <= 1e-9)


def as_rotation(m: np.ndarray) -> np.ndarray:
    """Validate m as a rotation, re-projecting deviations <= ROTATION_TOL.

    Raises InvalidArgumentError if the deviation from orthonormality
    exceeds ROTATION_TOL (this tolerates file-format rounding without
    accepting arbitrary matrices).
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise InvalidArgumentError(f"expected a 3x3 matrix, got shape {m.shape}")
    return as_rotations(m[None])[0]


def as_rotations(ms: np.ndarray) -> np.ndarray:
    """:func:`as_rotation` over an (M, 3, 3) stack in one vectorized pass.

    A matrix is rejected if it has a non-finite entry, deviates from
    orthonormality by more than ROTATION_TOL, or has a negative
    determinant; the InvalidArgumentError carries the first rejected row as
    ``index``. Only rows deviating by more than 1e-12 are re-projected (into
    a copy).
    """
    ms = np.asarray(ms, dtype=float)
    if ms.ndim != 3 or ms.shape[1:] != (3, 3):
        raise InvalidArgumentError(f"expected an (M, 3, 3) stack, got shape {ms.shape}")
    if not len(ms):  # every reader block validates its edges and vertices, often none
        return ms
    with np.errstate(invalid="ignore", over="ignore"):
        # ||M^T M - I||_F from the column dot products, and det M as
        # c0 . (c1 x c2); c[a, i] is entry i of column a of every matrix.
        c = ms.transpose(2, 1, 0).copy()
        d = np.einsum("aik,bik->abk", c, c) - _EYE
        deviation = np.sqrt(np.einsum("abk,abk->k", d, d))
        r1, r2 = c[1:, _ROLL], c[1:, _ROLL[_ROLL]]
        det = np.einsum("ik,ik->k", c[0], r1[0] * r2[1] - r2[0] * r1[1])
        bad = ~(deviation <= ROTATION_TOL) | (det < 0)
    if bad.any():
        k = int(np.argmax(bad))
        if not np.all(np.isfinite(ms[k])):
            raise InvalidArgumentError(
                "rotation matrix contains non-finite entries", index=k)
        raise InvalidArgumentError(
            f"matrix is not a rotation (orthonormality deviation {deviation[k]:.3e})",
            index=k)
    fix = deviation > 1e-12
    if fix.any():
        ms = ms.copy()
        ms[fix] = [project_to_so3(m) for m in ms[fix]]
    return ms


def exp_map(v: np.ndarray) -> np.ndarray:
    """Axis-angle vector to rotation matrix (Rodrigues formula)."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,) or not np.all(np.isfinite(v)):
        raise InvalidArgumentError("tangent vector must be a finite 3-vector")
    return kernels.batch_exp(v[None])[0]


def matrix_from_quat(q: np.ndarray) -> np.ndarray:
    """Rotation matrices from unit quaternions (w, x, y, z), (..., 4) -> (..., 3, 3)."""
    w, x, y, z = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    m = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])
    return np.ascontiguousarray(np.moveaxis(m, (0, 1), (-2, -1)))


def log_map(R: np.ndarray) -> np.ndarray:
    """Rotation matrix to canonical axis-angle vector (norm in [0, pi]).

    Validates R, then calls ``kernels.batch_log``, which takes the angle
    2 atan2(|v|, |w|) of R's unit quaternion (w, v). At exactly pi either
    antipodal axis may be returned.
    """
    return kernels.batch_log(as_rotation(R)[None])[0]


def riemannian_distance(X: np.ndarray, Y: np.ndarray) -> float:
    """Geodesic angle between two rotations: ||log(X Y^T)||."""
    return float(np.linalg.norm(log_map(np.asarray(X) @ np.asarray(Y).T)))


def rotation_angle(R: np.ndarray) -> float:
    """Rotation angle of R in [0, pi]."""
    return float(np.linalg.norm(log_map(R)))


def euler_to_rotation(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Rotation matrix from Euler angles, R = Rz(yaw) @ Ry(pitch) @ Rx(roll)."""
    for name, a in (("roll", roll), ("pitch", pitch), ("yaw", yaw)):
        if not math.isfinite(a):
            raise InvalidArgumentError(f"{name} must be finite")
    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cy, sy = math.cos(yaw), math.sin(yaw)
    return np.array([
        [cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr],
        [sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr],
        [-sp, cp * sr, cp * cr],
    ])


def rotation_to_euler(R: np.ndarray) -> tuple[float, float, float]:
    """Euler angles (roll, pitch, yaw) under the Z*Y*X convention.

    Angles are reduced to [0, 2pi). At gimbal lock (|cos(pitch)| ~ 0 the
    decomposition is ambiguous) the roll = 0 representative is returned.
    """
    R = as_rotation(R)
    cp = math.hypot(R[0, 0], R[1, 0])
    pitch = math.atan2(-R[2, 0], cp)
    if cp < 1e-9:
        roll = 0.0
        yaw = math.atan2(-R[0, 1], R[1, 1])
    else:
        roll = math.atan2(R[2, 1], R[2, 2])
        yaw = math.atan2(R[1, 0], R[0, 0])
    two_pi = 2.0 * math.pi
    return roll % two_pi, pitch % two_pi, yaw % two_pi


def distribution_expectation(probs: np.ndarray) -> float:
    """Linear expectation of a discrete angle distribution over [0, 2pi).

    Bin k of B carries the angle 2*pi*k/B, k = 0..B-1. This is a plain
    (non-circular) expectation, so mass split across the 0/2pi wrap
    averages toward pi; callers wanting a circular mean must handle the
    wrap themselves.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1 or probs.size < 2:
        raise InvalidArgumentError("distribution needs at least 2 bins")
    if np.any(probs < 0) or not np.all(np.isfinite(probs)):
        raise InvalidArgumentError("probabilities must be finite and nonnegative")
    if abs(float(probs.sum()) - 1.0) > 1e-6:
        raise InvalidArgumentError(
            f"probabilities sum to {probs.sum():.9f}, expected 1")
    b = probs.size
    centers = 2.0 * math.pi * np.arange(b) / b
    return float(probs @ centers)


def random_rotation(rng: np.random.Generator | int) -> np.ndarray:
    """Uniform random rotation via a normalized Gaussian quaternion."""
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    q = rng.standard_normal(4)
    return matrix_from_quat(q / np.linalg.norm(q))


def perturb(R: np.ndarray, sigma: float,
            rng: np.random.Generator | int) -> np.ndarray:
    """R composed with a random rotation exp(n), n ~ N(0, sigma^2 I)."""
    if not 0.0 <= sigma < math.inf:
        raise InvalidArgumentError("sigma must be finite and nonnegative")
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    n = sigma * rng.standard_normal(3)
    if sigma == 0:
        return np.asarray(R, dtype=float)
    return np.asarray(R, dtype=float) @ exp_map(n)


def project_to_so3(M: np.ndarray) -> np.ndarray:
    """Nearest rotation to M in Frobenius norm (SVD with det correction)."""
    M = np.asarray(M, dtype=float)
    if M.shape != (3, 3) or not np.all(np.isfinite(M)):
        raise InvalidArgumentError("expected a finite 3x3 matrix")
    U, s, Vt = np.linalg.svd(M)
    if s[1] < 1e-12:
        raise DegenerateInputError(
            "matrix is (numerically) rank-deficient; projection is not unique")
    d = np.sign(np.linalg.det(U @ Vt))
    if d == 0:
        raise DegenerateInputError("degenerate singular vectors")
    R = U @ np.diag([1.0, 1.0, d]) @ Vt
    return R
