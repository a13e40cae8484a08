import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation as ScipyRotation

from cara import so3
from cara.errors import DegenerateInputError, InvalidArgumentError

ROT_Z_90 = np.array([[0.0, -1.0, 0.0],
                     [1.0, 0.0, 0.0],
                     [0.0, 0.0, 1.0]])


def random_rotations(n, seed):
    rng = np.random.default_rng(seed)
    return [so3.random_rotation(rng) for _ in range(n)]


class TestExpMap:
    def test_zero_is_identity(self):
        assert np.array_equal(so3.exp_map(np.zeros(3)), np.eye(3))

    def test_z_quarter_turn(self):
        np.testing.assert_allclose(so3.exp_map([0, 0, math.pi / 2]), ROT_Z_90,
                                   atol=1e-15)

    def test_roundtrip_1000_samples(self):
        # log(exp(v)) = v for canonical v with norm < pi
        rng = np.random.default_rng(42)
        for _ in range(1000):
            v = rng.standard_normal(3)
            norm = np.linalg.norm(v)
            if norm >= math.pi:
                v *= (math.pi - 1e-3) / norm
            np.testing.assert_allclose(so3.log_map(so3.exp_map(v)), v, atol=1e-9)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidArgumentError):
            so3.exp_map([np.nan, 0, 0])
        with pytest.raises(InvalidArgumentError):
            so3.exp_map([np.inf, 0, 0])


class TestLogMap:
    def test_identity(self):
        assert np.array_equal(so3.log_map(np.eye(3)), np.zeros(3))

    def test_z_quarter_turn(self):
        np.testing.assert_allclose(so3.log_map(ROT_Z_90), [0, 0, math.pi / 2],
                                   atol=1e-15)

    def test_near_pi_matches_scipy_oracle(self):
        # independent quaternion-based oracle at angle pi - 1e-4
        rng = np.random.default_rng(7)
        for _ in range(50):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            v = (math.pi - 1e-4) * axis
            R = ScipyRotation.from_rotvec(v).as_matrix()
            oracle = ScipyRotation.from_matrix(R).as_rotvec()
            np.testing.assert_allclose(so3.log_map(R), oracle, atol=1e-7)

    def test_exp_log_roundtrip_on_matrices(self):
        for R in random_rotations(200, 11):
            np.testing.assert_allclose(so3.exp_map(so3.log_map(R)), R, atol=1e-9)

    def test_invalid_matrix_rejected(self):
        with pytest.raises(InvalidArgumentError):
            so3.log_map(np.eye(3) * 1.5)
        with pytest.raises(InvalidArgumentError):
            so3.log_map(np.eye(3) + 1e-3)

    def test_small_deviation_reprojected(self):
        R = ROT_Z_90 + 1e-8
        v = so3.log_map(R)  # should not raise
        assert np.linalg.norm(v) <= math.pi


class TestRiemannianDistance:
    def test_identity_zero(self):
        assert so3.riemannian_distance(np.eye(3), np.eye(3)) == 0.0

    @pytest.mark.parametrize("theta", [-3.0, -0.5, 0.1, 1.0, math.pi - 0.01])
    def test_z_rotation_angle(self, theta):
        R = so3.exp_map([0, 0, theta])
        assert so3.riemannian_distance(R, np.eye(3)) == pytest.approx(abs(theta),
                                                                      abs=1e-12)

    def test_bi_invariance_1000_samples(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            X, Y, Z = (so3.random_rotation(rng) for _ in range(3))
            d = so3.riemannian_distance(X, Y)
            assert so3.riemannian_distance(Z @ X, Z @ Y) == pytest.approx(d, abs=1e-9)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            X, Y, Z = (so3.random_rotation(rng) for _ in range(3))
            assert so3.riemannian_distance(X, Y) == pytest.approx(
                so3.riemannian_distance(Y, X), abs=1e-12)
            assert (so3.riemannian_distance(X, Z)
                    <= so3.riemannian_distance(X, Y)
                    + so3.riemannian_distance(Y, Z) + 1e-9)

    def test_rotation_angle_identity(self):
        for R in random_rotations(100, 8):
            expected = np.linalg.norm(ScipyRotation.from_matrix(R).as_rotvec())
            assert so3.rotation_angle(R) == pytest.approx(expected, abs=1e-9)


class TestEuler:
    def test_zero_identity(self):
        np.testing.assert_allclose(so3.euler_to_rotation(0, 0, 0), np.eye(3))

    def test_yaw_only(self):
        np.testing.assert_allclose(so3.euler_to_rotation(0, 0, math.pi / 2),
                                   ROT_Z_90, atol=1e-15)

    def test_matches_scipy_zyx(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            r, p, y = rng.uniform(-math.pi, math.pi, 3)
            expected = ScipyRotation.from_euler("ZYX", [y, p, r]).as_matrix()
            np.testing.assert_allclose(so3.euler_to_rotation(r, p, y), expected,
                                       atol=1e-12)

    def test_identity_decomposition(self):
        assert so3.rotation_to_euler(np.eye(3)) == (0.0, 0.0, 0.0)

    def test_roll_only(self):
        r, p, y = so3.rotation_to_euler(so3.euler_to_rotation(0.3, 0, 0))
        assert (r, p, y) == pytest.approx((0.3, 0.0, 0.0), abs=1e-12)

    def test_roundtrip_away_from_gimbal_lock(self):
        rng = np.random.default_rng(9)
        two_pi = 2 * math.pi
        count = 0
        while count < 200:
            roll, yaw = rng.uniform(0, two_pi, 2)
            pitch = rng.uniform(-math.pi / 2, math.pi / 2) % two_pi
            if abs(math.cos(pitch)) < 1e-3:
                continue
            count += 1
            out = so3.rotation_to_euler(so3.euler_to_rotation(roll, pitch, yaw))
            for given, got in zip((roll, pitch, yaw), out):
                delta = (given - got) % two_pi
                assert min(delta, two_pi - delta) < 1e-9

    def test_gimbal_lock_roll_zero(self):
        R = so3.euler_to_rotation(0.4, math.pi / 2, 1.1)
        roll, pitch, yaw = so3.rotation_to_euler(R)
        assert roll == 0.0
        # representative must still reproduce the matrix
        np.testing.assert_allclose(so3.euler_to_rotation(roll, pitch, yaw), R,
                                   atol=1e-9)


class TestDistributionExpectation:
    def test_one_hot(self):
        b = 360
        for k in (0, 1, 37, 359):
            probs = np.zeros(b)
            probs[k] = 1.0
            assert so3.distribution_expectation(probs) == pytest.approx(
                2 * math.pi * k / b, abs=1e-15)

    def test_two_bin_midpoint(self):
        probs = np.zeros(360)
        probs[10] = probs[11] = 0.5
        expected = 0.5 * (2 * math.pi * 10 / 360 + 2 * math.pi * 11 / 360)
        assert so3.distribution_expectation(probs) == pytest.approx(expected)

    def test_uniform_direct_sum_oracle(self):
        b = 360
        probs = np.full(b, 1.0 / b)
        oracle = sum(2 * math.pi * k / b for k in range(b)) / b
        assert so3.distribution_expectation(probs) == pytest.approx(oracle,
                                                                    abs=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(4)
        p = rng.random(36)
        p /= p.sum()
        q = rng.random(36)
        q /= q.sum()
        mix = 0.3 * p + 0.7 * q
        assert so3.distribution_expectation(mix) == pytest.approx(
            0.3 * so3.distribution_expectation(p)
            + 0.7 * so3.distribution_expectation(q))

    def test_bad_sum_rejected(self):
        with pytest.raises(InvalidArgumentError):
            so3.distribution_expectation(np.full(10, 0.2))

    def test_too_few_bins(self):
        with pytest.raises(InvalidArgumentError):
            so3.distribution_expectation(np.array([1.0]))


class TestRandomRotationAndPerturb:
    def test_valid_and_deterministic(self):
        a = so3.random_rotation(123)
        b = so3.random_rotation(123)
        assert np.array_equal(a, b)
        assert so3.is_rotation(a)

    def test_perturb_zero_sigma(self):
        R = so3.random_rotation(1)
        assert np.array_equal(so3.perturb(R, 0.0, 2), R)

    def test_perturb_negative_sigma(self):
        with pytest.raises(InvalidArgumentError):
            so3.perturb(np.eye(3), -0.1, 0)
        for sigma in (math.nan, math.inf):
            with pytest.raises(InvalidArgumentError, match="sigma must be finite"):
                so3.perturb(np.eye(3), sigma, 0)

    def test_perturb_mean_distance_monte_carlo(self):
        # E||n|| for n ~ N(0, sigma^2 I_3) is sigma * 2 * sqrt(2/pi)
        sigma = 0.05
        rng = np.random.default_rng(77)
        R = so3.random_rotation(rng)
        dists = [so3.riemannian_distance(so3.perturb(R, sigma, rng), R)
                 for _ in range(10_000)]
        expected = sigma * 2.0 * math.sqrt(2.0 / math.pi)
        assert np.mean(dists) == pytest.approx(expected, rel=0.05)


class TestProjectToSO3:
    def test_fixed_point_on_rotations(self):
        for R in random_rotations(20, 13):
            np.testing.assert_allclose(so3.project_to_so3(R), R, atol=1e-12)

    def test_scale_invariance(self):
        R = so3.random_rotation(2)
        np.testing.assert_allclose(so3.project_to_so3(1.7 * R), R, atol=1e-12)

    def test_rank_deficient_rejected(self):
        M = np.outer([1.0, 2.0, 3.0], [1.0, 0.0, 0.0])
        with pytest.raises(DegenerateInputError):
            so3.project_to_so3(M)

    def test_grid_oracle_20_cases(self):
        # nearest-rotation objective vs brute force over sampled rotations
        rng = np.random.default_rng(21)
        grid = ScipyRotation.random(200_000, random_state=3).as_matrix()
        for _ in range(20):
            M = rng.standard_normal((3, 3))
            R = so3.project_to_so3(M)
            best = np.linalg.norm(grid - M, axis=(1, 2)).min()
            assert np.linalg.norm(R - M) <= best + 1e-3
