"""Gradient/adjoint pair, TV seminorms and the shrinkage prox."""

import tracemalloc

import numpy as np
import pytest

from vtvrestore import (
    NonFiniteError,
    NotRealError,
    conv_circular,
    grad,
    grad_adjoint,
    shrink,
    shrink_iso,
    vtv,
)

from conftest import FORWARD_DIFF_X, FORWARD_DIFF_Y


class TestGrad:
    def test_constant_image_zero_field(self):
        p = grad(np.full((5, 7), 3.5))
        assert np.array_equal(p, np.zeros((2, 5, 7)))

    def test_row_with_periodic_wrap(self):
        u = np.array([[0.0, 1.0, 2.0, 3.0]])
        p = grad(u)
        assert np.array_equal(p[0], np.array([[1.0, 1.0, 1.0, -3.0]]))
        assert np.array_equal(p[1], np.zeros((1, 4)))

    def test_matches_convolution_kernels(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal((9, 11))
        p = grad(u)
        assert np.max(np.abs(p[0] - conv_circular(u, FORWARD_DIFF_X))) < 1e-12
        assert np.max(np.abs(p[1] - conv_circular(u, FORWARD_DIFF_Y))) < 1e-12

    def test_channel_stack_passthrough(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal((3, 6, 6))
        p = grad(u)
        assert p.shape == (3, 2, 6, 6)
        for i in range(3):
            assert np.array_equal(p[i], grad(u[i]))


class TestGradAdjoint:
    def test_zero_field(self):
        assert np.array_equal(grad_adjoint(np.zeros((2, 4, 4))), np.zeros((4, 4)))

    def test_dot_product_identity(self):
        rng = np.random.default_rng(2)
        u = rng.standard_normal((8, 8))
        p = rng.standard_normal((2, 8, 8))
        lhs = float(np.sum(grad(u) * p))
        rhs = float(np.sum(u * grad_adjoint(p)))
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))

    def test_composition_is_negative_laplacian_stencil(self):
        f = np.zeros((6, 6))
        f[2, 3] = 1.0
        out = grad_adjoint(grad(f))
        want = conv_circular(f, np.array([[0, -1, 0], [-1, 4, -1], [0, -1, 0]], dtype=float))
        assert np.max(np.abs(out - want)) < 1e-12
        assert out[2, 3] == 4.0
        assert out[1, 3] == out[3, 3] == out[2, 2] == out[2, 4] == -1.0

    def test_composition_on_random_images(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal((12, 10))
        want = conv_circular(u, np.array([[0, -1, 0], [-1, 4, -1], [0, -1, 0]], dtype=float))
        assert np.max(np.abs(grad_adjoint(grad(u)) - want)) < 1e-12


class TestSeminorms:
    """The per-channel TV, seen through :func:`vtv` on one-channel stacks."""

    def test_zero_field(self):
        assert vtv(np.zeros((1, 2, 4, 4))) == 0.0
        assert vtv(np.zeros((1, 2, 4, 4)), isotropic=True) == 0.0

    def test_single_entry(self):
        p = np.zeros((1, 2, 4, 4))
        p[0, 0, 1, 2] = 3.0
        assert vtv(p) == 3.0
        assert vtv(p, isotropic=True) == 3.0

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(4)
        p = rng.standard_normal((2, 8, 8))
        direct = sum(abs(x) for x in p.ravel())
        assert abs(vtv(p[None]) - direct) < 1e-12 * (1 + direct)
        direct_iso = np.sqrt(p[0] ** 2 + p[1] ** 2).sum()
        assert abs(vtv(p[None], isotropic=True) - direct_iso) < 1e-12 * (1 + direct_iso)

    @pytest.mark.parametrize(
        ("bad", "error"),
        [
            ([1.0, 2.0], ValueError),
            (["a", "b", "c"], NotRealError),
            ([1j, 1, 1], NotRealError),
            ([[1.0], [2.0, 3.0], [4.0]], NotRealError),
            ([np.nan, 1.0, 1.0], NonFiniteError),
            ([1.0, -np.inf, 1.0], NonFiniteError),
        ],
        ids=["count", "strings", "complex", "ragged", "nan", "inf"],
    )
    def test_vtv_weights(self, bad, error):
        rng = np.random.default_rng(5)
        p = rng.standard_normal((3, 2, 6, 6))
        w = np.array([2.0, 0.5, 1.25])
        direct = sum(w[i] * np.abs(p[i]).sum() for i in range(3))
        assert abs(vtv(p, weights=w) - direct) < 1e-10
        assert abs(vtv(p) - np.abs(p).sum()) < 1e-10
        with pytest.raises(error):
            vtv(p, weights=bad)

    def test_float32_stack_is_summed_in_float64_without_a_copy(self):
        rng = np.random.default_rng(7)
        p = rng.standard_normal((9, 2, 128, 128)).astype(np.float32)
        w = rng.uniform(0.5, 2.0, 9)
        wide = p.astype(np.float64)
        # |x| is exact in float32, so the anisotropic sums are those of float64
        assert vtv(p, weights=w) == vtv(wide, weights=w)
        iso = vtv(p, weights=w, isotropic=True)
        assert abs(iso - vtv(wide, weights=w, isotropic=True)) <= 1e-6 * iso
        tracemalloc.start()
        try:
            vtv(p, weights=w, isotropic=True)
            vtv(p, weights=w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one channel's temporaries; a float64 copy would be 2 * p.nbytes
        assert peak < p.nbytes // 2, peak

    def test_tv_of_grad_vanishes_only_for_constants(self):
        assert vtv(grad(np.full((6, 6), 2.0))[None]) == 0.0
        rng = np.random.default_rng(6)
        u = rng.standard_normal((6, 6))
        u[0, 0] += 1.0  # definitely not constant
        assert vtv(grad(u)[None]) > 0.0


class TestShrink:
    # values and thresholds that are not real numbers
    @pytest.mark.parametrize(
        ("value", "threshold"),
        [(np.ones(3, complex), 1.0), ("abc", 1.0), (np.ones(3), "x"), (np.ones(3), 1j)],
        ids=["complex-value", "string-value", "string-threshold", "complex-threshold"],
    )
    def test_scalar_algebra(self, value, threshold):
        assert shrink(np.array(3.0), 1.0) == 2.0
        assert shrink(np.array(-3.0), 1.0) == -2.0
        assert shrink(np.array(0.5), 1.0) == 0.0
        assert shrink(np.array(0.0), 1.0) == 0.0
        assert shrink(3, np.float32(1.0)).shape == ()  # 0-D values of any real type
        with pytest.raises(NotRealError):
            shrink(value, threshold)

    def test_zero_threshold_is_identity(self):
        rng = np.random.default_rng(7)
        v = rng.standard_normal((4, 4))
        assert np.array_equal(shrink(v, 0.0), v)

    def test_grid_search_oracle(self):
        rng = np.random.default_rng(8)
        grid = np.arange(-4.0, 4.0001, 1e-4)
        for _ in range(200):
            v = float(rng.uniform(-3, 3))
            t = float(rng.uniform(0, 2))
            best = grid[np.argmin(t * np.abs(grid) + 0.5 * (grid - v) ** 2)]
            assert abs(float(shrink(np.array(v), t)) - best) <= 2e-4

    def test_nonexpansive(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6))
        t = 0.7
        assert np.linalg.norm(shrink(a, t) - shrink(b, t)) <= np.linalg.norm(a - b) + 1e-12

    def test_sign_and_magnitude_bounds(self):
        rng = np.random.default_rng(10)
        v = rng.standard_normal((5, 5))
        out = shrink(v, 0.3)
        nonzero = out != 0
        assert np.all(np.sign(out[nonzero]) == np.sign(v[nonzero]))
        assert np.all(np.abs(out) <= np.abs(v) + 1e-15)

    def test_per_channel_thresholds_broadcast(self):
        rng = np.random.default_rng(11)
        v = rng.standard_normal((3, 2, 4, 4))
        t = np.array([0.1, 0.5, 1.0]).reshape(3, 1, 1, 1)
        out = shrink(v, t)
        for i in range(3):
            assert np.array_equal(out[i], shrink(v[i], float(t[i, 0, 0, 0])))


class TestShrinkIso:
    def test_out_argument_matches_returning_form(self):
        rng = np.random.default_rng(12)
        v = rng.standard_normal((3, 2, 5, 4))
        v[0, 0, 0, 0] = 0.0
        t = np.array([0.1, 0.5, 1.0]).reshape(3, 1, 1)
        out = np.full_like(v, np.nan)
        assert shrink_iso(v, t, out=out) is out
        assert np.array_equal(out, shrink_iso(v, t))

    def test_shrinks_vector_magnitude(self):
        p = np.zeros((2, 1, 1))
        p[0, 0, 0], p[1, 0, 0] = 3.0, 4.0  # magnitude 5
        out = shrink_iso(p, 1.0)
        mag = np.hypot(out[0, 0, 0], out[1, 0, 0])
        assert abs(mag - 4.0) < 1e-12
        # direction preserved
        assert abs(out[0, 0, 0] / out[1, 0, 0] - 3.0 / 4.0) < 1e-12

    def test_zero_vector_stays_zero(self):
        assert np.array_equal(shrink_iso(np.zeros((2, 3, 3)), 0.5), np.zeros((2, 3, 3)))

    # thresholds that are not real numbers
    @pytest.mark.parametrize(
        "bad",
        [1j, "x", [[0.1], [0.5, 1.0], [1.0]], np.ones((3, 1, 1), np.complex64)],
        ids=["complex", "string", "ragged", "complex-array"],
    )
    def test_float32_field_is_shrunk_in_float32(self, bad):
        rng = np.random.default_rng(13)
        v = rng.standard_normal((3, 2, 5, 4))
        t = np.array([0.1, 0.5, 1.0]).reshape(3, 1, 1)
        narrow = shrink_iso(v.astype(np.float32), t.astype(np.float32))
        assert narrow.dtype == np.float32
        assert np.max(np.abs(narrow - shrink_iso(v, t))) <= 1e-6
        # a threshold of another type is cast to the field's dtype
        assert np.array_equal(shrink_iso(v.astype(np.float32), t), narrow)
        assert np.array_equal(shrink_iso(v, t.tolist()), shrink_iso(v, t))
        for field in (v, v.astype(np.float32)):
            with pytest.raises(NotRealError):
                shrink_iso(field, bad)

    def test_below_threshold_clipped(self):
        p = np.full((2, 2, 2), 0.1)
        assert np.array_equal(shrink_iso(p, 5.0), np.zeros_like(p))
