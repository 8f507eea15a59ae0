"""Circular convolution, operator symbols, diagonal solves and PSNR."""

import math

import numpy as np
import pytest

from vtvrestore import (
    DimensionMismatchError,
    SingularSymbolError,
    conv_adjoint,
    conv_circular,
    half_spectrum,
    kernel_symbol,
    psnr,
    solve_diagonal,
)
from vtvrestore.image import identity_symbol

from conftest import conv_brute_force


def embed_at_origin(k, shape):
    """Kernel embedded circularly with its center tap at index (0, 0)."""
    h, w = shape
    ry, rx = (k.shape[0] - 1) // 2, (k.shape[1] - 1) // 2
    grid = np.zeros(shape)
    for p in range(-ry, ry + 1):
        for q in range(-rx, rx + 1):
            grid[p % h, q % w] += k[p + ry, q + rx]
    return grid


class TestConvCircular:
    def test_impulse_reproduces_kernel(self):
        k = np.arange(9, dtype=float).reshape(3, 3)
        f = np.zeros((6, 7))
        f[0, 0] = 1.0
        assert np.array_equal(conv_circular(f, k), embed_at_origin(k, (6, 7)))

    def test_constant_times_tap_sum(self):
        rng = np.random.default_rng(1)
        k = rng.standard_normal((3, 3))
        out = conv_circular(np.full((5, 5), 3.0), k)
        np.testing.assert_allclose(out, 3.0 * k.sum(), atol=1e-12)

    def test_matches_brute_force(self, bank):
        rng = np.random.default_rng(2)
        f = rng.uniform(0, 255, (8, 8))
        got = conv_circular(f, bank.kernels[0])
        want = conv_brute_force(f, bank.kernels[0])
        assert np.max(np.abs(got - want)) < 1e-12

    def test_kernel_larger_than_image(self):
        rng = np.random.default_rng(3)
        f = rng.standard_normal((2, 2))
        k = rng.standard_normal((5, 5))
        got = conv_circular(f, k)
        want = conv_brute_force(f, k)
        assert np.max(np.abs(got - want)) < 1e-12
        assert np.isfinite(got).all()

    def test_linearity(self):
        rng = np.random.default_rng(4)
        u = rng.standard_normal((6, 6))
        v = rng.standard_normal((6, 6))
        k = rng.standard_normal((3, 3))
        lhs = conv_circular(2.5 * u - 1.25 * v, k)
        rhs = 2.5 * conv_circular(u, k) - 1.25 * conv_circular(v, k)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_even_kernel_rejected(self):
        with pytest.raises(DimensionMismatchError):
            conv_circular(np.zeros((4, 4)), np.zeros((2, 3)))


class TestConvAdjoint:
    def test_symmetric_kernel_self_adjoint(self, bank):
        # K_1 is centrally symmetric, so adjoint == forward.
        rng = np.random.default_rng(5)
        f = rng.standard_normal((7, 9))
        np.testing.assert_array_equal(
            conv_adjoint(f, bank.kernels[0]), conv_circular(f, bank.kernels[0])
        )

    def test_dot_product_identity(self):
        rng = np.random.default_rng(6)
        u = rng.standard_normal((8, 8))
        v = rng.standard_normal((8, 8))
        k = rng.standard_normal((3, 3))
        lhs = float(np.sum(conv_circular(u, k) * v))
        rhs = float(np.sum(u * conv_adjoint(v, k)))
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))

    def test_impulse_gives_point_reflected_kernel(self, bank):
        k = bank.kernels[4]  # outer product of the antisymmetric filter
        f = np.zeros((8, 8))
        f[0, 0] = 1.0
        got = conv_adjoint(f, k)
        assert np.array_equal(got, embed_at_origin(np.flip(k), (8, 8)))

    def test_double_flip_is_identity(self):
        # the adjoint of the point-reflected kernel is the forward convolution
        rng = np.random.default_rng(7)
        k = rng.standard_normal((5, 3))
        f = rng.standard_normal((9, 8))
        assert np.array_equal(conv_adjoint(f, np.flip(k)), conv_circular(f, k))


class TestKernelSymbol:
    def test_identity_kernel_all_ones(self):
        sym = kernel_symbol(np.array([[1.0]]), (6, 5))
        assert np.array_equal(sym, np.ones((6, 5), dtype=complex))
        assert np.array_equal(identity_symbol((6, 5)), np.ones((6, 5), complex))

    def test_dc_bin_is_tap_sum(self, bank):
        for k in bank.kernels:
            sym = kernel_symbol(k, (12, 10))
            assert abs(sym[0, 0] - k.sum()) < 1e-14
        assert abs(kernel_symbol(bank.kernels[0], (7, 7))[0, 0] - 1.0) < 1e-14

    def test_symbol_path_matches_spatial(self):
        rng = np.random.default_rng(8)
        f = rng.uniform(0, 255, (16, 16))
        k = rng.standard_normal((3, 3))
        sym = kernel_symbol(k, f.shape)
        via_fft = np.real(np.fft.ifft2(np.fft.fft2(f) * sym))
        assert np.max(np.abs(via_fft - conv_circular(f, k))) < 1e-10

    def test_adjoint_symbol_is_conjugate(self):
        rng = np.random.default_rng(9)
        k = rng.standard_normal((3, 5))
        sym = kernel_symbol(k, (11, 13))
        adj = kernel_symbol(np.flip(k), (11, 13))
        assert np.max(np.abs(adj - np.conj(sym))) < 1e-12


class TestSolveDiagonal:
    def test_identity_symbol_returns_numerator(self):
        rng = np.random.default_rng(10)
        f = rng.standard_normal((9, 9))
        out = solve_diagonal(f, half_spectrum(np.ones((9, 9))))
        assert np.max(np.abs(out - f)) < 1e-12

    def test_round_trip_through_lowpass(self, bank):
        # K_1's symbol is nonzero on odd-sized grids (its 1-D factors only
        # vanish at the Nyquist frequency of even sizes).
        rng = np.random.default_rng(11)
        u = rng.uniform(0, 255, (9, 7))
        k = bank.kernels[0]
        sym = kernel_symbol(k, u.shape)
        u_rec = solve_diagonal(conv_circular(u, k), half_spectrum(sym))
        assert np.max(np.abs(u_rec - u)) < 1e-8 * 255
        # residual check through the spatial operator
        resid = conv_circular(u_rec, k) - conv_circular(u, k)
        rel = np.linalg.norm(resid) / np.linalg.norm(conv_circular(u, k))
        assert rel <= 1e-8

    def test_dc_algebra_for_constants(self):
        sym = np.full((4, 4), 1.0 + 0j)
        sym[0, 0] = 2.5
        out = solve_diagonal(np.full((4, 4), 5.0), half_spectrum(sym))
        np.testing.assert_allclose(out, 2.0, atol=1e-12)

    def test_singular_symbol_raises(self, bank):
        # On even grids K_1's symbol vanishes at Nyquist.
        sym = kernel_symbol(bank.kernels[0], (8, 8))
        with pytest.raises(SingularSymbolError):
            solve_diagonal(np.ones((8, 8)), half_spectrum(sym))

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            solve_diagonal(np.ones((4, 4)), np.ones((4, 5)))


class TestAdjointProperty:
    def test_randomized_dot_products(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            h, w = rng.integers(4, 33, size=2)
            r = int(rng.integers(0, 3))
            u = rng.standard_normal((h, w))
            v = rng.standard_normal((h, w))
            k = rng.standard_normal((2 * r + 1, 2 * r + 1))
            lhs = float(np.sum(conv_circular(u, k) * v))
            rhs = float(np.sum(u * conv_adjoint(v, k)))
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


class TestPsnr:
    def test_unit_mse(self):
        ref = np.zeros((16, 16))
        test = np.ones((16, 16))
        assert abs(psnr(ref, test) - 10 * math.log10(255.0**2)) < 1e-12
        assert abs(psnr(ref, test) - 48.1308) < 1e-3

    def test_identical_images_give_inf(self):
        u = np.full((8, 8), 42.0)
        assert psnr(u, u.copy()) == math.inf

    def test_uniform_error_of_one_tenth_peak(self):
        ref = np.full((16, 16), 100.0)
        assert abs(psnr(ref, ref + 25.5) - 20.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            psnr(np.zeros((4, 4)), np.zeros((4, 5)))
