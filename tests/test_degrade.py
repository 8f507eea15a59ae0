"""Seeded noise synthesis and blur kernels."""

import numpy as np
import pytest

from vtvrestore import (
    ConfigError,
    DegradationOp,
    NoiseSpec,
    apply_degradation,
    gaussian_noise,
    half_symbol,
    motion_blur_kernel,
    psnr,
)


class TestGaussianNoise:
    def test_zero_sigma_returns_unchanged_copy(self):
        u = np.full((5, 5), 9.0)
        out = gaussian_noise(u, NoiseSpec(sigma=0.0, seed=1))
        assert np.array_equal(out, u)
        assert out is not u

    def test_fixed_seed_is_bit_identical(self):
        u = np.zeros((32, 32))
        a = gaussian_noise(u, NoiseSpec(sigma=25.5, seed=123))
        b = gaussian_noise(u, NoiseSpec(sigma=25.5, seed=123))
        assert np.array_equal(a, b)
        assert np.array_equal(a, gaussian_noise(u, NoiseSpec(sigma=25.5, seed=np.int64(123))))
        c = gaussian_noise(u, NoiseSpec(sigma=25.5, seed=124))
        assert not np.array_equal(a, c)

    def test_sample_moments(self):
        field = gaussian_noise(np.zeros((1000, 1000)), NoiseSpec(sigma=25.5, seed=5))
        assert abs(field.std() - 25.5) / 25.5 < 0.005
        assert abs(field.mean()) < 0.2

    def test_noisy_psnr_near_twenty(self, phantom256):
        # sigma 25.5 on a 255 peak puts the analytic PSNR at exactly 20 dB
        for seed in (0, 1, 2):
            noisy = gaussian_noise(phantom256, NoiseSpec(sigma=25.5, seed=seed))
            assert abs(psnr(phantom256, noisy) - 20.0) < 0.15

    @pytest.mark.parametrize("sigma", [-1.0, "1", None], ids=["negative", "str", "None"])
    def test_negative_sigma_rejected(self, sigma):
        with pytest.raises(ConfigError):
            NoiseSpec(sigma=sigma)

    @pytest.mark.parametrize(
        "seed", [-1, "3", 1.5, True], ids=["negative", "str", "float", "bool"]
    )
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            NoiseSpec(sigma=1.0, seed=seed)


class TestMotionBlurKernel:
    def test_length_one_is_identity(self):
        assert np.array_equal(motion_blur_kernel(1), np.array([[1.0]]))

    def test_length_nine(self):
        k = motion_blur_kernel(9)
        assert k.shape == (1, 9)
        np.testing.assert_allclose(k, 1.0 / 9.0)
        assert abs(k.sum() - 1.0) < 1e-15

    def test_blurring_a_constant_is_identity(self):
        u = np.full((8, 8), 77.0)
        out = DegradationOp.blur(motion_blur_kernel(9)).apply(u)
        np.testing.assert_allclose(out, 77.0, atol=1e-12)

    def test_unit_dc_gain(self):
        sym = half_symbol(motion_blur_kernel(9), (16, 16))
        assert abs(sym[0, 0] - 1.0) < 1e-14
        assert np.max(np.abs(sym)) <= 1.0 + 1e-12
        gram = DegradationOp.blur(motion_blur_kernel(9)).gram_symbol((16, 16))
        assert abs(gram[0, 0] - 1.0) < 1e-14
        assert np.max(gram) <= 1.0 + 1e-12

    @pytest.mark.parametrize(
        "length", [8, 0, 3.0, "3", True], ids=["even", "zero", "float", "str", "bool"]
    )
    def test_even_length_rejected(self, length):
        with pytest.raises(ConfigError):
            motion_blur_kernel(length)


class TestApplyDegradation:
    def test_identity_and_zero_noise(self):
        rng = np.random.default_rng(0)
        u = rng.uniform(0, 255, (8, 8))
        out = apply_degradation(u, DegradationOp.identity(), NoiseSpec(0.0, 0))
        assert np.array_equal(out, u)

    def test_blur_of_impulse_is_psf_row(self):
        u = np.zeros((8, 16))
        u[0, 0] = 1.0
        out = apply_degradation(u, DegradationOp.blur(motion_blur_kernel(9)), NoiseSpec(0.0, 0))
        row = np.zeros(16)
        row[np.arange(-4, 5) % 16] = 1.0 / 9.0
        assert np.max(np.abs(out[0] - row)) < 1e-15
        assert np.max(np.abs(out[1:])) == 0.0

    def test_blurry_psnr_band(self, phantom256):
        # 1x9 motion blur plus sigma-5 noise should land in the low-to-mid
        # twenties on a natural-looking test image
        op = DegradationOp.blur(motion_blur_kernel(9))
        degraded = apply_degradation(phantom256, op, NoiseSpec(5.0, seed=7))
        value = psnr(phantom256, degraded)
        assert 21.0 <= value <= 27.0
