"""Scalar SO(3)/so(3) primitives.

Rotations are plain (3, 3) float64 numpy arrays; tangent vectors are (3,)
arrays in axis-angle form (the norm is the rotation angle in radians).
Batched versions of the hot operations live in :mod:`cara.kernels`.

Euler convention used throughout: intrinsic Z(yaw) * Y(pitch) * X(roll).
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateInputError, InvalidArgumentError

# Construction tolerance: inputs orthonormal within this are re-projected,
# anything worse is rejected.
ROTATION_TOL = 1e-6

_SMALL_ANGLE = 1e-6
_EYE = np.eye(3)


def skew(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix K such that K @ w == cross(v, w)."""
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def is_rotation(m: np.ndarray, tol: float = 1e-9) -> bool:
    """True if m is orthonormal with determinant +1 within tol."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3) or not np.all(np.isfinite(m)):
        return False
    return (np.linalg.norm(m.T @ m - np.eye(3)) <= tol
            and abs(np.linalg.det(m) - 1.0) <= tol)


def as_rotation(m: np.ndarray, tol: float = ROTATION_TOL) -> np.ndarray:
    """Validate m as a rotation, re-projecting small (<= tol) deviations.

    Raises InvalidArgumentError if the deviation from orthonormality
    exceeds tol (this tolerates file-format rounding without accepting
    arbitrary matrices).
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise InvalidArgumentError(f"expected a 3x3 matrix, got shape {m.shape}")
    return as_rotations(m[None], tol)[0]


def as_rotations(ms: np.ndarray, tol: float = ROTATION_TOL) -> np.ndarray:
    """:func:`as_rotation` over an (M, 3, 3) stack in one vectorized pass.

    A matrix is rejected if it has a non-finite entry, deviates from
    orthonormality by more than tol, or has a negative determinant; the
    InvalidArgumentError carries the first rejected row as ``index``. Only
    rows deviating by more than 1e-12 are re-projected (into a copy).
    """
    ms = np.asarray(ms, dtype=float)
    if ms.ndim != 3 or ms.shape[1:] != (3, 3):
        raise InvalidArgumentError(f"expected an (M, 3, 3) stack, got shape {ms.shape}")
    with np.errstate(invalid="ignore", over="ignore"):
        d = ms.transpose(0, 2, 1) @ ms - _EYE
        deviation = np.sqrt(np.einsum("kij,kij->k", d, d))
        bad = ~(deviation <= tol) | (np.linalg.det(ms) < 0)
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
    theta2 = float(v @ v)
    theta = math.sqrt(theta2)
    if theta < _SMALL_ANGLE:
        # Taylor: sin(t)/t ~ 1 - t^2/6, (1-cos t)/t^2 ~ 1/2 - t^2/24
        a = 1.0 - theta2 / 6.0
        b = 0.5 - theta2 / 24.0
    else:
        a = math.sin(theta) / theta
        b = (1.0 - math.cos(theta)) / theta2
    K = skew(v)
    return np.eye(3) + a * K + b * (K @ K)


def quat_from_matrix(R: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z) with w >= 0 from a rotation matrix.

    Shepperd's method: branch on the largest of trace and diagonal
    entries, which avoids cancellation for any rotation angle.
    """
    t = R[0, 0] + R[1, 1] + R[2, 2]
    if t >= max(R[0, 0], R[1, 1], R[2, 2]):
        r = math.sqrt(1.0 + t)
        s = 0.5 / r
        q = np.array([0.5 * r,
                      (R[2, 1] - R[1, 2]) * s,
                      (R[0, 2] - R[2, 0]) * s,
                      (R[1, 0] - R[0, 1]) * s])
    elif R[0, 0] >= max(R[1, 1], R[2, 2]):
        r = math.sqrt(1.0 - t + 2.0 * R[0, 0])
        s = 0.5 / r
        q = np.array([(R[2, 1] - R[1, 2]) * s,
                      0.5 * r,
                      (R[0, 1] + R[1, 0]) * s,
                      (R[0, 2] + R[2, 0]) * s])
    elif R[1, 1] >= R[2, 2]:
        r = math.sqrt(1.0 - t + 2.0 * R[1, 1])
        s = 0.5 / r
        q = np.array([(R[0, 2] - R[2, 0]) * s,
                      (R[0, 1] + R[1, 0]) * s,
                      0.5 * r,
                      (R[1, 2] + R[2, 1]) * s])
    else:
        r = math.sqrt(1.0 - t + 2.0 * R[2, 2])
        s = 0.5 / r
        q = np.array([(R[1, 0] - R[0, 1]) * s,
                      (R[0, 2] + R[2, 0]) * s,
                      (R[1, 2] + R[2, 1]) * s,
                      0.5 * r])
    q /= np.linalg.norm(q)
    if q[0] < 0:
        q = -q
    return q


def matrix_from_quat(q: np.ndarray) -> np.ndarray:
    """Rotation matrix from a unit quaternion (w, x, y, z)."""
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def log_map(R: np.ndarray) -> np.ndarray:
    """Rotation matrix to canonical axis-angle vector (norm in [0, pi]).

    Goes through the quaternion, which stays well-conditioned near angle
    pi where trace-based formulas lose precision. At exactly pi either
    antipodal axis may be returned.
    """
    R = as_rotation(R)
    w, x, y, z = quat_from_matrix(R)
    n = math.sqrt(x * x + y * y + z * z)
    angle = 2.0 * math.atan2(n, w)
    if n < _SMALL_ANGLE:
        # angle/sin(angle/2) ~ 2 + angle^2/12 for small angles
        scale = 2.0 + angle * angle / 12.0
    else:
        scale = angle / n
    return scale * np.array([x, y, z])


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
    q /= np.linalg.norm(q)
    return matrix_from_quat(q)


def perturb(R: np.ndarray, sigma: float,
            rng: np.random.Generator | int) -> np.ndarray:
    """R composed with a random rotation exp(n), n ~ N(0, sigma^2 I)."""
    if sigma < 0:
        raise InvalidArgumentError("sigma must be nonnegative")
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
