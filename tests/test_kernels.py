import hashlib

import numpy as np
import pytest
from scipy.spatial.transform import Rotation as ScipyRotation

from cara import kernels, so3


def random_batch(m, seed, max_angle=np.pi - 1e-3):
    rng = np.random.default_rng(seed)
    vs = rng.standard_normal((m, 3))
    norms = np.linalg.norm(vs, axis=1, keepdims=True)
    scale = rng.uniform(0, max_angle, (m, 1))
    return vs / norms * scale


def batch_quat(Rs):
    """(M, 3, 3) rotations -> (M, 4) unit quaternions (w,x,y,z), w >= 0, by
    Shepperd's branch per row: the reference for kernels.batch_quat and,
    through log_from_quat, for batch_log on products of rotations."""
    Rs = np.ascontiguousarray(Rs, dtype=np.float64)
    d0, d1, d2 = Rs[:, 0, 0], Rs[:, 1, 1], Rs[:, 2, 2]
    t = d0 + d1 + d2
    case = np.argmax(np.stack([t, d0, d1, d2], axis=1), axis=1)
    q = np.empty((Rs.shape[0], 4))
    for c in range(4):
        idx = np.nonzero(case == c)[0]
        R = Rs[idx]
        if c == 0:
            r = np.sqrt(1.0 + t[idx])
            s = 0.5 / r
            q[idx, 0] = 0.5 * r
            q[idx, 1] = (R[:, 2, 1] - R[:, 1, 2]) * s
            q[idx, 2] = (R[:, 0, 2] - R[:, 2, 0]) * s
            q[idx, 3] = (R[:, 1, 0] - R[:, 0, 1]) * s
        else:
            i = c - 1
            j = (i + 1) % 3
            k = (i + 2) % 3
            r = np.sqrt(1.0 - t[idx] + 2.0 * R[:, i, i])
            s = 0.5 / r
            q[idx, 0] = (R[:, k, j] - R[:, j, k]) * s
            q[idx, 1 + i] = 0.5 * r
            q[idx, 1 + j] = (R[:, j, i] + R[:, i, j]) * s
            q[idx, 1 + k] = (R[:, k, i] + R[:, i, k]) * s
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    q[q[:, 0] < 0] *= -1.0
    return q


def log_from_quat(q):
    """(M, 4) unit quaternions (w >= 0) -> (M, 3) axis-angle vectors."""
    n = np.linalg.norm(q[:, 1:], axis=1)
    angle = 2.0 * np.arctan2(n, q[:, 0])
    small = n < 1e-6
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(small, 2.0 + angle * angle / 12.0,
                         angle / np.where(small, 1.0, n))
    return scale[:, None] * q[:, 1:]


def test_batch_exp_matches_scalar():
    vs = random_batch(500, 0)
    np.testing.assert_allclose(kernels.batch_exp(vs), ScipyRotation.from_rotvec(vs).as_matrix(),
                               rtol=0, atol=1e-14)


def test_batch_log_matches_scipy():
    vs = random_batch(500, 1)
    Rs = ScipyRotation.from_rotvec(vs).as_matrix()
    out = kernels.batch_log(Rs)
    np.testing.assert_allclose(out, vs, atol=1e-9)
    # Angles up to pi - 1e-3.
    np.testing.assert_allclose(out, ScipyRotation.from_matrix(Rs).as_rotvec(),
                               rtol=0, atol=1e-12)


def test_batch_log_near_pi():
    rng = np.random.default_rng(2)
    axes = rng.standard_normal((200, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    vs = axes * (np.pi - 1e-5)
    Rs = ScipyRotation.from_rotvec(vs).as_matrix()
    np.testing.assert_allclose(kernels.batch_log(Rs), vs, atol=1e-7)


def _batch_exp_identity_first(vs):
    # Rodrigues with the identity copied out first and a·K + b·K² added
    # to it: the reference that batch_exp must reproduce bit for bit.
    m = vs.shape[0]
    theta2 = np.einsum("ij,ij->i", vs, vs)
    theta = np.sqrt(theta2)
    small = theta < 1e-6
    with np.errstate(invalid="ignore", divide="ignore"):
        a = np.where(small, 1.0 - theta2 / 6.0, np.sin(theta) / theta)
        b = np.where(small, 0.5 - theta2 / 24.0,
                     (1.0 - np.cos(theta)) / np.where(small, 1.0, theta2))
    K = np.zeros((m, 3, 3))
    K[:, 0, 1], K[:, 0, 2], K[:, 1, 2] = -vs[:, 2], vs[:, 1], -vs[:, 0]
    K[:, 1, 0], K[:, 2, 0], K[:, 2, 1] = vs[:, 2], -vs[:, 1], vs[:, 0]
    out = np.broadcast_to(np.eye(3), (m, 3, 3)).copy()
    out += a[:, None, None] * K + b[:, None, None] * (K @ K)
    return out


@pytest.mark.parametrize("m", [1, 4096, 20_000])
def test_batch_exp_bit_identical_to_identity_first(m):
    # Zero, tiny (series branch) and large angles; signbit tells -0.0 apart.
    rng = np.random.default_rng(m)
    vs = rng.standard_normal((m, 3)) * rng.choice([0.0, 1e-9, 1e-7, 1.0, 3.0], (m, 1))
    got, want = kernels.batch_exp(vs), _batch_exp_identity_first(vs)
    assert got.tobytes() == want.tobytes()
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def test_batch_log_across_switch_and_tiny_angles():
    # Angles of 2.5-2.9 rad around trace -0.8 (theta ~2.69), tiny angles,
    # zero, and angles within 1e-9 of pi, where a matrix's skew part no
    # longer carries the axis; batch_log has no branch for any of them.
    rng = np.random.default_rng(5)
    axes = rng.standard_normal((500, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = np.concatenate([rng.uniform(2.5, 2.9, 200), np.logspace(-12, -5, 190),
                             np.zeros(10), np.pi - np.logspace(-9, -3, 100)])
    Rs = ScipyRotation.from_rotvec(axes * angles[:, None]).as_matrix()
    out = kernels.batch_log(Rs)
    np.testing.assert_allclose(out, ScipyRotation.from_matrix(Rs).as_rotvec(),
                               rtol=0, atol=1e-14)


def test_batch_log_matches_quaternion_on_products():
    # Products of rotations, as in edge_residuals, are orthogonal only to
    # ~1e-15; batch_log must still agree with the per-row Shepperd reference.
    rng = np.random.default_rng(6)
    Ri, Rj, Rij = (ScipyRotation.random(5000, random_state=rng).as_matrix()
                   for _ in range(3))
    P = np.transpose(Rj, (0, 2, 1)) @ Rij @ Ri
    quat = log_from_quat(batch_quat(P))
    np.testing.assert_allclose(kernels.batch_log(P), quat, rtol=0, atol=1e-13)


def test_batch_log_near_pi_products_match_scipy():
    # Products of rotations with tr < -0.8 (theta above ~2.69), some within
    # 1e-9 of pi, where a matrix's skew part no longer carries the axis.
    rng = np.random.default_rng(7)
    axes = rng.standard_normal((3000, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = np.concatenate([rng.uniform(2.7, np.pi, 2000),
                             np.pi - np.logspace(-9, -4, 1000)])
    A = ScipyRotation.random(3000, random_state=rng).as_matrix()
    far = ScipyRotation.from_rotvec(axes * angles[:, None]).as_matrix()
    P = np.transpose(A, (0, 2, 1)) @ far @ A
    assert (np.trace(P, axis1=1, axis2=2) < -0.8).all()
    np.testing.assert_allclose(kernels.batch_log(P), ScipyRotation.from_matrix(P).as_rotvec(),
                               rtol=0, atol=1e-13)


def test_edge_residuals_past_switch_keep_their_angle():
    # 3 rad, past trace -0.8 (theta ~2.69), where a matrix's skew part
    # loses the axis.
    rng = np.random.default_rng(8)
    Ri, Rj = (ScipyRotation.random(200, random_state=rng).as_matrix() for _ in range(2))
    Rij = Rj @ ScipyRotation.from_rotvec([[0.0, 0.0, 3.0]] * 200).as_matrix() \
        @ np.transpose(Ri, (0, 2, 1))
    res = kernels.edge_residuals(Ri, Rj, Rij)
    np.testing.assert_allclose(np.linalg.norm(res, axis=1), 3.0, rtol=0, atol=1e-13)


def _wxyz(pairs):
    """(2, M) complex quaternion pairs -> (M, 4) floats (w, x, y, z)."""
    return np.ascontiguousarray(pairs.T).view(float)


def _pairs(wxyz):
    """(M, 4) floats (w, x, y, z) -> (2, M) complex quaternion pairs."""
    return np.ascontiguousarray(wxyz).view(complex).T


def _same_sign(q, ref):
    """q (M, 4) flipped row by row to the sign of ref (M, 4)."""
    return q * np.where(np.einsum("ij,ij->i", q, ref) < 0, -1.0, 1.0)[:, None]


def _axis_angles(rng, angles):
    axes = rng.standard_normal((len(angles), 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    return axes * np.asarray(angles)[:, None]


def test_batch_quat_matches_per_case_reference_and_scipy():
    # Every Shepperd case wins somewhere: small angles take w, angles near
    # pi the largest of x, y, z, and exact half turns about the axes have
    # w = 0.
    rng = np.random.default_rng(11)
    vs = np.concatenate([
        random_batch(2000, 11, max_angle=np.pi),
        _axis_angles(rng, np.pi - np.logspace(-9, -1, 300)),
        _axis_angles(rng, np.logspace(-12, -6, 100)),
        np.pi * np.eye(3), np.zeros((1, 3))])
    Rs = ScipyRotation.from_rotvec(vs).as_matrix()
    pairs = kernels.batch_quat(Rs)
    assert pairs.shape == (2, len(vs)) and pairs.dtype == complex
    q = _wxyz(pairs)
    ref = batch_quat(Rs)
    np.testing.assert_allclose(_same_sign(q, ref), ref, rtol=0, atol=1e-13)
    scipy_wxyz = np.roll(ScipyRotation.from_matrix(Rs).as_quat(), 1, axis=1)
    np.testing.assert_allclose(_same_sign(q, scipy_wxyz), scipy_wxyz, rtol=0, atol=1e-13)


def test_batch_quat_is_row_by_row():
    # The solver converts edges per chunk and --stream per scan chunk; both
    # must give the same bits whatever the chunking.
    Rs = ScipyRotation.random(1000, random_state=12).as_matrix()
    whole = kernels.batch_quat(Rs)
    parts = np.concatenate([kernels.batch_quat(Rs[a:b]) for a, b in
                            ((0, 1), (1, 8), (8, 500), (500, 1000))], axis=1)
    assert parts.tobytes() == whole.tobytes()


def _residual_inputs(rng, angles):
    """(Ri, Rj, Rij) whose residuals log(Rj^T Rij Ri) have the given angles."""
    m = len(angles)
    Ri, Rj = (ScipyRotation.random(m, random_state=rng).as_matrix() for _ in range(2))
    Rij = Rj @ ScipyRotation.from_rotvec(_axis_angles(rng, angles)).as_matrix() \
        @ np.transpose(Ri, (0, 2, 1))
    return Ri, Rj, Rij


@pytest.mark.parametrize("angles", [
    np.logspace(-12, -6, 200),
    np.pi - np.logspace(-9, -4, 200),
    np.random.default_rng(13).uniform(0, np.pi, 200),
], ids=["tiny", "near_pi", "uniform"])
def test_quat_residuals_match_scipy(angles):
    Ri, Rj, Rij = _residual_inputs(np.random.default_rng(14), angles)
    expected = ScipyRotation.from_matrix(np.transpose(Rj, (0, 2, 1)) @ Rij @ Ri).as_rotvec()
    res, theta = kernels.quat_residuals(*(kernels.batch_quat(R) for R in (Ri, Rj, Rij)))
    assert res.shape == (3, len(angles)) and theta.shape == (len(angles),)
    np.testing.assert_allclose(res.T, expected, rtol=0, atol=1e-13)
    np.testing.assert_allclose(theta, np.linalg.norm(expected, axis=1), rtol=0, atol=1e-13)
    np.testing.assert_allclose(kernels.edge_residuals(Ri, Rj, Rij), expected, rtol=0, atol=1e-13)


def test_quat_residuals_at_exactly_pi():
    # w is exactly 0: theta is exactly pi, and the vector is pi times the
    # axis, of either sign.
    rng = np.random.default_rng(15)
    axes = _axis_angles(rng, np.ones(100))
    half_turns = np.column_stack([np.zeros(100), axes])
    identity = _pairs(np.tile([1.0, 0.0, 0.0, 0.0], (100, 1)))
    res, theta = kernels.quat_residuals(_pairs(half_turns), identity, identity)
    assert (theta == np.pi).all()
    expected = ScipyRotation.from_quat(np.roll(half_turns, -1, axis=1)).as_rotvec()
    gap = np.minimum(np.abs(res.T - expected).max(axis=1), np.abs(res.T + expected).max(axis=1))
    np.testing.assert_allclose(gap, 0.0, rtol=0, atol=1e-13)


def test_quat_residuals_same_for_either_quaternion_sign():
    rng = np.random.default_rng(16)
    angles = np.concatenate([np.logspace(-12, -6, 100), np.pi - np.logspace(-9, -4, 100),
                             rng.uniform(0, np.pi, 300)])
    quats = [kernels.batch_quat(R) for R in _residual_inputs(rng, angles)]
    res, theta = kernels.quat_residuals(*quats)
    for _ in range(3):
        flipped = [q * rng.choice([-1.0, 1.0], len(angles)) for q in quats]
        res_f, theta_f = kernels.quat_residuals(*flipped)
        np.testing.assert_array_equal(res_f, res)
        np.testing.assert_array_equal(theta_f, theta)


def test_edge_residuals_definition():
    rng = np.random.default_rng(3)
    m = 100
    Ri = np.stack([so3.random_rotation(rng) for _ in range(m)])
    Rj = np.stack([so3.random_rotation(rng) for _ in range(m)])
    Rij = np.stack([so3.random_rotation(rng) for _ in range(m)])
    expected = ScipyRotation.from_matrix(np.transpose(Rj, (0, 2, 1)) @ Rij @ Ri).as_rotvec()
    np.testing.assert_allclose(kernels.edge_residuals(Ri, Rj, Rij), expected, rtol=0, atol=1e-12)


def test_empty_batch():
    assert kernels.batch_exp(np.zeros((0, 3))).shape == (0, 3, 3)
    assert kernels.batch_log(np.zeros((0, 3, 3))).shape == (0, 3)
    empty = kernels.batch_quat(np.zeros((0, 3, 3)))
    assert empty.shape == (2, 0) and empty.dtype == complex
    res, theta = kernels.quat_residuals(empty, empty, empty)
    assert res.shape == (3, 0) and theta.shape == (0,)
    assert kernels.edge_residuals(*3 * [np.zeros((0, 3, 3))]).shape == (0, 3)


def test_edge_residuals_bypasses_public_batch_log(monkeypatch):
    # A wrapper on kernels.batch_log (the benchmark's row counter) must see
    # only outside callers, not every residual evaluation.
    calls = []
    monkeypatch.setattr(kernels, "batch_log", lambda Rs: calls.append(Rs))
    R = np.broadcast_to(np.eye(3), (4, 3, 3))
    np.testing.assert_array_equal(kernels.edge_residuals(R, R, R), np.zeros((4, 3)))
    assert calls == []


def golden_stacks(m):
    """Seeded (M, 3) axis-angle vectors, half uniform in [0, pi) and half at
    fixed angles (0, below and above the series cut-off, 1e-3, 0.5, 2,
    within 1e-7 of pi and pi), and scipy's (M, 3, 3) matrices of them with
    every 16th nudged off orthonormality by ~1e-9, which as_rotations
    re-projects."""
    rng = np.random.default_rng(m)
    vs = rng.standard_normal((m, 3))
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    scales = np.array([0.0, 1e-9, 3e-7, 1e-3, 0.5, 2.0, np.pi - 1e-7, np.pi])
    angles = np.where(rng.random(m) < 0.5, rng.uniform(0.0, np.pi, m),
                      scales[rng.integers(0, len(scales), m)])
    vs *= angles[:, None]
    Rs = ScipyRotation.from_rotvec(vs).as_matrix()
    Rs[::16] += 1e-9 * rng.standard_normal(Rs[::16].shape)
    return vs, Rs


def _sha256(a):
    a = np.ascontiguousarray(a)
    return hashlib.sha256(repr((a.dtype.str, a.shape)).encode() + a.tobytes()).hexdigest()


# sha256 of what each function returns on golden_stacks(M), recorded before
# the kernels were rewritten with fewer numpy calls per call: a rewrite
# that moves one bit fails here.
GOLDEN_SHA256 = {
    1: {"batch_quat": "b24c55469fe69816ca1044080e01878d047ea828927e71bf8fd3cdd22fb6fc52",
        "batch_log": "cb5f5d1a944fe2147ec01971790584d369877494087406866846da765b84a51e",
        "batch_exp": "7cb60066317a6bdc21eef8f2bd395676971464417b5aca4d86711a04bbcb0b72",
        "as_rotations": "bff00f73e4e8c3b6be12a4381324307dbf4262581ed8cf39d1591474eaf0667a"},
    200: {"batch_quat": "f91127e42cef56ccf297e8c83f192300dce5a8fe1dd252279fcd095d7b789c3d",
          "batch_log": "5bd5ac6738cc767e1e6deb3985e226f19147b13aeb69f46521e3f0574462cfda",
          "batch_exp": "456ad3bc00635b2e7ea030fddfb5f8e73eb72d588849e6cd7a590d54cfbd697c",
          "as_rotations": "2a2a5dde66f1d524fc91646c5cb6d7082aa292a5abf04e5eeb1b36be23e2e8f5"},
    4096: {"batch_quat": "173884dcb67d4a3c660d1750ce6650cff91b43a27fdf3f9359b061f00d5aedc6",
           "batch_log": "4d289c71f3a4c0acd1c35aa0904cda428eb8a01ef88be30e1a577f0f35a734ed",
           "batch_exp": "cdd2bf4a1b130d8f772ee8e1c6f4f571c54bb108c8570a8b87932572ee346af4",
           "as_rotations": "3e76464eb8d27a8df53faa607d1668b77d21f23481390bdefa3cbd80ce033853"},
    19_900: {"batch_quat": "8132891f1bbd2410ba26f43604f2e491241a12da061392b2f4c9c4d2902b8870",
             "batch_log": "c6a1d470d0965c72262092cecd68248650b21835ac1f7381dd57c12811f23442",
             "batch_exp": "f203fb2eb8133ce5297292e5c98c40f6560ef6d340bb5ba16afdf971501c0adf",
             "as_rotations": "5d6ec4eeaf180d16f798f8a1e66a68fd0915140672c643d40e13255b6b496347"},
}


@pytest.mark.parametrize("m", sorted(GOLDEN_SHA256))
def test_kernels_keep_their_golden_bits(m):
    vs, Rs = golden_stacks(m)
    got = {"batch_quat": _sha256(kernels.batch_quat(Rs)),
           "batch_log": _sha256(kernels.batch_log(Rs)),
           "batch_exp": _sha256(kernels.batch_exp(vs)),
           "as_rotations": _sha256(so3.as_rotations(Rs))}
    assert got == GOLDEN_SHA256[m]
