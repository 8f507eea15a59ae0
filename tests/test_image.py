"""Circular convolution, operator symbols, diagonal solves and PSNR."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vtvrestore import (
    DegradationOp,
    DimensionMismatchError,
    FilterBank,
    NoiseSpec,
    NonFiniteError,
    SingularSymbolError,
    SolverConfig,
    SplitBregman,
    VTVError,
    analyze,
    apply_degradation,
    bspline_bank,
    conv_adjoint,
    conv_circular,
    energy,
    gaussian_noise,
    grad,
    grad_adjoint,
    half_symbol,
    kernel_symbol,
    motion_blur_kernel,
    psnr,
    shrink_iso,
    solve,
    solve_diagonal,
    synthesize_adjoint,
    vtv,
    write_pgm,
)
from vtvrestore.frames import Sweep
from vtvrestore.image import as_image, as_stack, nonsingular

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


def conv_by_dict_fold(f, k):
    """Circular convolution with the kernel folded onto the grid tap by tap.

    Each tap is added, in row-major order, onto its wrapped shift in a dict,
    and the shifts are rolled in the order the dict first met them: the sum
    :func:`conv_circular` must reproduce bit for bit.
    """
    h, w = f.shape[-2:]
    ry, rx = (k.shape[0] - 1) // 2, (k.shape[1] - 1) // 2
    taps = {}
    for p, row in enumerate(k.tolist(), start=-ry):
        for q, tap in enumerate(row, start=-rx):
            taps[p % h, q % w] = taps.get((p % h, q % w), 0.0) + tap
    out = np.zeros_like(f)
    for shift, tap in taps.items():
        if tap != 0.0:
            out += tap * np.roll(f, shift, axis=(-2, -1))
    return out


def cancelling_kernel():
    """A 5x7 kernel with a zero tap whose columns 0, 3 and 6, which share
    a cell on a 3-wide grid, sum to exactly zero in every row."""
    k = np.random.default_rng(36).standard_normal((5, 7))
    k[1, 2] = 0.0
    k[:, 6] = -(k[:, 0] + k[:, 3])
    return k


class TestConvCircular:
    @pytest.mark.parametrize(
        ("shape", "kernel"),
        [
            ((16, 16), motion_blur_kernel(100001)),
            ((3, 4), np.random.default_rng(31).standard_normal((7, 9))),
            ((1, 1), np.random.default_rng(32).standard_normal((5, 3))),
            ((2, 3), cancelling_kernel()),
        ],
        ids=["blur100001-16x16", "7x9-on-3x4", "5x3-on-1x1", "cancelling-5x7-on-2x3"],
    )
    def test_a_kernel_larger_than_the_grid_is_folded_onto_it(self, monkeypatch, shape, kernel):
        f = np.random.default_rng(33).uniform(0, 255, shape)
        rolls = []
        roll = np.roll
        monkeypatch.setattr(np, "roll", lambda *args, **kw: rolls.append(1) or roll(*args, **kw))
        got = conv_circular(f, kernel)
        monkeypatch.undo()
        # one roll per distinct wrapped shift: 16 for the long blur
        assert len(rolls) <= min(kernel.shape[0], shape[0]) * min(kernel.shape[1], shape[1])
        assert got.tobytes() == conv_by_dict_fold(f, kernel).tobytes()
        symbol = kernel_symbol(kernel, shape)
        assert symbol.tobytes() == np.fft.fft2(embed_at_origin(kernel, shape)).tobytes()
        want = np.real(np.fft.ifft2(np.fft.fft2(f) * symbol))
        assert np.max(np.abs(got - want)) <= 1e-10 * np.sum(np.abs(kernel)) * 255

    @pytest.mark.parametrize("shape", [(5, 7), (9, 9), (33, 20)])
    def test_a_kernel_that_fits_the_grid_is_summed_tap_by_tap(self, shape):
        rng = np.random.default_rng(34)
        f = rng.uniform(0, 255, shape)
        k = rng.standard_normal((5, 7))
        k[1, 2] = 0.0
        ry, rx = 2, 3
        want = np.zeros_like(f)
        for p in range(-ry, ry + 1):
            for q in range(-rx, rx + 1):
                if k[p + ry, q + rx] != 0.0:
                    want += k[p + ry, q + rx] * np.roll(f, (p, q), axis=(-2, -1))
        assert np.array_equal(conv_circular(f, k), want)

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


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "build",
    [
        lambda k: FilterBank([k]),
        DegradationOp.blur,
        lambda k: conv_circular(np.ones((4, 4)), k),
        lambda k: kernel_symbol(k, (4, 4)),
        lambda k: half_symbol(k, (4, 4)),
    ],
    ids=["bank", "blur", "conv", "symbol", "half-symbol"],
)
def test_a_kernel_with_a_non_finite_tap_is_rejected(build, value):
    k = np.full((3, 5), 0.1)
    k[2, 1] = value
    with pytest.raises(NonFiniteError, match="kernel contains NaN or Inf"):
        build(k)


@pytest.mark.parametrize("image", [np.ones(5), np.float64(1.0)], ids=["1-D", "0-D"])
@pytest.mark.parametrize(
    "call",
    [
        lambda u: conv_circular(u, np.ones((1, 3))),
        lambda u: conv_adjoint(u, np.ones((1, 3))),
        lambda u: DegradationOp.blur(np.ones((1, 3))).apply(u),
        lambda u: analyze(u, bspline_bank()),
        grad,
    ],
    ids=["conv", "adjoint", "blur", "analyze", "grad"],
)
def test_an_image_with_fewer_than_two_axes_is_a_dimension_mismatch(call, image):
    with pytest.raises(DimensionMismatchError, match=r"\(\.\.\., h, w\)"):
        call(image)


@pytest.mark.parametrize("shape", [(2, 3, 4, 5), (0, 4), (4, 0)])
def test_stacks_and_empty_grids_are_convolved(shape):
    f = np.arange(float(np.prod(shape))).reshape(shape)
    k = np.random.default_rng(35).standard_normal((3, 5))
    got = conv_circular(f, k)
    assert got.shape == shape
    for index in np.ndindex(shape[:-2]):
        assert got[index].tobytes() == conv_circular(f[index], k).tobytes()


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
        assert np.array_equal(half_symbol(np.array([[1.0]]), (6, 5)), np.ones((6, 3), complex))

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
        out = solve_diagonal(f, np.ones((9, 5)), np.empty((9, 5), dtype=complex))
        assert np.max(np.abs(out - f)) < 1e-12

    def test_round_trip_through_lowpass(self, bank):
        # K_1's symbol is nonzero on odd-sized grids (its 1-D factors only
        # vanish at the Nyquist frequency of even sizes).
        rng = np.random.default_rng(11)
        u = rng.uniform(0, 255, (9, 7))
        k = bank.kernels[0]
        half = nonsingular(half_symbol(k, u.shape))
        u_rec = solve_diagonal(conv_circular(u, k), 1 / half, np.empty(half.shape, dtype=complex))
        assert np.max(np.abs(u_rec - u)) < 1e-8 * 255
        # residual check through the spatial operator
        resid = conv_circular(u_rec, k) - conv_circular(u, k)
        rel = np.linalg.norm(resid) / np.linalg.norm(conv_circular(u, k))
        assert rel <= 1e-8

    def test_dc_algebra_for_constants(self):
        sym = np.full((4, 4), 1.0 + 0j)
        sym[0, 0] = 2.5
        out = solve_diagonal(np.full((4, 4), 5.0), 1 / sym[:, :3], np.empty((4, 3), dtype=complex))
        np.testing.assert_allclose(out, 2.0, atol=1e-12)

    def test_singular_symbol_raises(self, bank):
        # On even grids K_1's symbol vanishes at Nyquist.
        with pytest.raises(SingularSymbolError):
            nonsingular(half_symbol(bank.kernels[0], (8, 8)))

    def test_a_nan_bin_is_singular(self):
        # NaN compares false to the floor, so the check must not pass it
        with pytest.raises(SingularSymbolError):
            nonsingular(np.array([[np.nan, 1.0]]))

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            solve_diagonal(np.ones((4, 4)), np.ones((4, 5)), np.empty((4, 5), dtype=complex))
        with pytest.raises(DimensionMismatchError, match="empty"):
            solve_diagonal(np.ones((0, 4)), np.ones((0, 3)), np.empty((0, 3), dtype=complex))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (37, 500), (16, 12), (15, 13)])
    def test_in_place_solve_is_irfft2_bit_for_bit(self, shape):
        # the same transforms as irfft2(rfft2(num) / half), run in one buffer
        rng = np.random.default_rng(14)
        num = rng.standard_normal(shape)
        half = rng.uniform(0.5, 2.0, (shape[0], shape[1] // 2 + 1))
        spectrum = np.empty(half.shape, dtype=complex)
        got = solve_diagonal(num, 1 / half, spectrum)
        want = np.fft.irfft2(np.fft.rfft2(num) / half, s=shape)
        assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()


    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (15, 13), (16, 12), (37, 500)])
    def test_a_solve_split_over_a_sweeps_workers_is_the_one_worker_solve(self, bank, shape):
        # the passes run over row and column ranges on threads of their own;
        # every 1-D transform is the same however the passes are split
        rng = np.random.default_rng(16)
        num = rng.standard_normal(shape)
        inverse = 1 / rng.uniform(0.5, 2.0, (shape[0], shape[1] // 2 + 1))
        want = solve_diagonal(num, inverse, np.empty(inverse.shape, dtype=complex))
        for workers in (1, 2, 3):
            # a grid of 5 row blocks, 3 in the first phase: up to 3 workers
            with Sweep(bank.frame_gradient, (37, 1024), workers=workers) as sweep:
                assert sweep.workers == workers
                out = np.empty(shape)
                spectrum = np.empty(inverse.shape, dtype=complex)
                got = solve_diagonal(num, inverse, spectrum, out, sweep.split)
            assert got is out
            assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes(), workers


    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("row", [0, 36, 30], ids=["first-row", "last-row", "second-range"])
    @pytest.mark.parametrize(
        "entries",
        [(np.nan,), (np.inf,), (-np.inf,), (1e308, 1e308)],
        ids=["nan", "inf", "minus-inf", "overflowing-sum"],
    )
    def test_a_non_finite_row_raises_before_out_is_written(self, bank, entries, row, workers):
        # a row's DC bin is its sum, so the check after the rfft pass sees a
        # NaN or Inf anywhere in the row, or a sum that overflows; with two
        # workers rows 18-36 are the second range
        rng = np.random.default_rng(17)
        num = rng.standard_normal((37, 500))
        num[row, 123 : 123 + len(entries)] = entries
        inverse = 1 / rng.uniform(0.5, 2.0, (37, 251))
        out = np.full(num.shape, 7.5)
        with Sweep(bank.frame_gradient, (37, 1024), workers=workers) as sweep:
            assert sweep.workers == workers
            with pytest.raises(NonFiniteError, match="iterate contains NaN or Inf"):
                solve_diagonal(num, inverse, np.empty(inverse.shape, complex), out, sweep.split)
        assert (out == 7.5).all()


class TestHalfSymbol:
    @pytest.mark.parametrize(
        "shape", [(1, 1), (1, 9), (9, 1), (37, 500), (12, 10), (12, 11), (5, 3), (2, 2)]
    )
    def test_is_the_kernel_symbol_half_bit_for_bit(self, bank, shape):
        rng = np.random.default_rng(15)
        kernels = [
            np.array([[1.0]]),
            rng.standard_normal((5, 3)),
            bank.frame_gradient.normal_kernel(np.arange(1.0, 10.0)),
            motion_blur_kernel(9),  # longer than the 1-, 2-, 3- and 5-wide grids
            motion_blur_kernel(9).T,
        ]
        for k in kernels:
            got = half_symbol(k, shape)
            want = kernel_symbol(k, shape)[:, : shape[1] // 2 + 1]
            assert got.shape == want.shape
            assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes(), k.shape

    def test_rejects_an_empty_grid(self):
        with pytest.raises(DimensionMismatchError):
            half_symbol(np.array([[1.0]]), (0, 4))


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

    def test_squared_error_past_the_float_range_gives_minus_inf(self):
        assert psnr(np.zeros((4, 4)), np.full((4, 4), 1e300)) == -math.inf

    def test_uniform_error_of_one_tenth_peak(self):
        ref = np.full((16, 16), 100.0)
        assert abs(psnr(ref, ref + 25.5) - 20.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            psnr(np.zeros((4, 4)), np.zeros((4, 5)))


# -- the input contract: every name that takes one image checks it with
# image.as_image

_BANK = bspline_bank()
_CFG = SolverConfig.head_rest(9, 2.0, 1.5, 12.0, 4.5, max_iter=2)
_BLUR = DegradationOp.blur(motion_blur_kernel(3))
_NOISE = NoiseSpec(sigma=2.0, seed=3)


def _stepped(f):
    sb = SplitBregman(f, DegradationOp.identity(), _BANK, _CFG)
    sb.step()
    return sb.u


def _written(x, path):
    write_pgm(path, x)
    data = path.read_bytes()
    path.unlink()
    return data


#: ``call(x, partner, path)`` for each name that takes one image ``x``;
#: ``partner`` is a float64 image of ``x``'s shape where ``x`` is 2-D, and
#: ``path`` a file name that does not exist.
_IMAGE_CALLS = {
    "solve": lambda x, p, path: solve(x, DegradationOp.identity(), _BANK, _CFG).u,
    "SplitBregman": lambda x, p, path: _stepped(x),
    "energy-u": lambda x, p, path: energy(x, p, _BLUR, _BANK, _CFG),
    "energy-f": lambda x, p, path: energy(p, x, _BLUR, _BANK, _CFG),
    "psnr-ref": lambda x, p, path: psnr(x, p),
    "psnr-test": lambda x, p, path: psnr(p, x),
    "FrameGradient.apply": lambda x, p, path: _BANK.frame_gradient.apply(x),
    "gaussian_noise": lambda x, p, path: gaussian_noise(x, _NOISE),
    "apply_degradation": lambda x, p, path: apply_degradation(x, _BLUR, _NOISE),
    "write_pgm": lambda x, p, path: _written(x, path),
    "FilterBank": lambda x, p, path: FilterBank([x]).kernels[0],
}


_KERNEL = np.random.default_rng(36).standard_normal((3, 5))


def _solve_half(x, shape):
    """:func:`solve_diagonal` of ``x`` by a half symbol of 2 on an ``shape`` grid."""
    half = (shape[0], shape[1] // 2 + 1)
    return solve_diagonal(x, np.full(half, 0.5), np.empty(half, dtype=complex))


#: ``(leading, call(x, shape))`` for each name that takes a stack or a
#: gradient field ``x``: a valid ``x`` has shape ``leading + (h, w)``, and
#: ``shape`` is its ``(h, w)`` where it has one.
_STACK_CALLS = {
    "conv_circular": ((2,), lambda x, shape: conv_circular(x, _KERNEL)),
    "conv_adjoint": ((2,), lambda x, shape: conv_adjoint(x, _KERNEL)),
    "analyze": ((), lambda x, shape: analyze(x, _BANK)),
    "grad": ((3,), lambda x, shape: grad(x)),
    "synthesize_adjoint": ((_BANK.m,), lambda x, shape: synthesize_adjoint(x, _BANK)),
    "solve_diagonal": ((), _solve_half),
    "DegradationOp.identity().apply": ((2,), lambda x, shape: DegradationOp.identity().apply(x)),
    "grad_adjoint": ((3, 2), lambda x, shape: grad_adjoint(x)),
    "FrameGradient.adjoint": ((_BANK.m, 2), lambda x, shape: _BANK.frame_gradient.adjoint(x)),
    "vtv": ((3, 2), lambda x, shape: vtv(x, weights=[1.0, 0.5, 2.0])),
    "vtv-iso": ((3, 2), lambda x, shape: vtv(x, isotropic=True)),
    "shrink_iso": ((2, 2), lambda x, shape: shrink_iso(x, 1.5)),
}
#: The names that take a gradient field, ``(..., 2, h, w)``.
_FIELD_CALLS = ["grad_adjoint", "FrameGradient.adjoint", "vtv", "vtv-iso", "shrink_iso"]


def _partner(x):
    """A float64 image of ``x``'s shape where that is a non-empty 2-D one."""
    shape = x.shape if isinstance(x, np.ndarray) and x.ndim == 2 and x.size else (3, 4)
    return np.arange(float(np.prod(shape))).reshape(shape) % 7 * 30.0


_FINITE = st.floats(-1e4, 1e4)


def _float_arrays(shapes):
    return hnp.arrays(np.float64, shapes, elements=_FINITE)


@st.composite
def _real_images(draw):
    """A real, finite, non-empty 2-D image in one of the forms a caller passes."""
    h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    form = draw(st.sampled_from([np.bool_, np.int8, np.uint16, np.float32, np.float64, list]))
    if form is list:
        row = st.lists(st.integers(-1000, 1000) | _FINITE, min_size=w, max_size=w)
        return draw(st.lists(row, min_size=h, max_size=h))
    dtype = np.dtype(form)
    elements = st.floats(-1e4, 1e4, width=8 * dtype.itemsize) if dtype.kind == "f" else None
    return draw(hnp.arrays(form, (h, w), elements=elements))


_RAGGED_LISTS = st.lists(st.lists(_FINITE, max_size=4), min_size=2, max_size=4).filter(
    lambda rows: len({len(r) for r in rows}) > 1
)


@st.composite
def _non_finite_images(draw):
    a = draw(_float_arrays(st.tuples(st.integers(1, 4), st.integers(1, 4))))
    row, col = draw(st.integers(0, a.shape[0] - 1)), draw(st.integers(0, a.shape[1] - 1))
    a[row, col] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return a


_MALFORMED_IMAGES = st.one_of(
    _float_arrays(st.just(())),
    _float_arrays(st.tuples(st.integers(0, 5))),
    _float_arrays(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))),
    _float_arrays(st.tuples(st.just(0), st.integers(0, 4))),
    _float_arrays(st.tuples(st.integers(1, 4), st.just(0))),
    hnp.arrays(np.complex128, (2, 3), elements=st.complex_numbers(max_magnitude=1e4)),
    _float_arrays(st.just((2, 3))).map(lambda a: a.astype(object)),
    st.text(max_size=6),
    _RAGGED_LISTS,
    _non_finite_images(),
)

_CONTRACT_FUZZ = settings(
    max_examples=60, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.mark.parametrize("name", list(_IMAGE_CALLS))
@_CONTRACT_FUZZ
@given(x=_MALFORMED_IMAGES)
@example(x=np.float64(1.0))
@example(x=np.ones(5))
@example(x=np.ones((2, 3, 4)))
@example(x=np.ones((0, 4)))
@example(x=np.ones((4, 0)))
@example(x=np.ones((2, 2), dtype=complex))
@example(x=np.ones((2, 2), dtype=object))
@example(x="abc")
@example(x=[[1.0, 2.0], [3.0]])
@example(x=np.array([[1.0, np.nan]]))
def test_a_malformed_image_is_a_vtv_error(tmp_path, name, x):
    with pytest.raises(VTVError):
        _IMAGE_CALLS[name](x, _partner(x), tmp_path / "image.pgm")
    assert list(tmp_path.iterdir()) == []


def _outcome(call, x, partner, path):
    """The bits of ``call``'s result, or the type of the VTVError it raised."""
    try:
        result = np.asarray(call(x, partner, path))
    except VTVError as exc:
        return type(exc)
    return result.dtype, result.shape, result.tobytes()


@pytest.mark.parametrize("name", list(_IMAGE_CALLS))
@_CONTRACT_FUZZ
@given(x=_real_images())
@example(x=[[1, 2.5], [-3, 4]])
@example(x=np.array([[True, False, True]]))
def test_a_real_image_gives_the_result_of_its_float64_copy(tmp_path, name, x):
    f = np.asarray(x, dtype=np.float64)
    assert as_image(f) is f
    call, partner, path = _IMAGE_CALLS[name], _partner(f), tmp_path / "image.pgm"
    assert _outcome(call, x, partner, path) == _outcome(call, f, partner, path)


# -- the stack and field contract: every name that takes a stack of images
# or a gradient field converts it with image.as_stack

_SOME_SHAPES = st.lists(st.integers(1, 3), min_size=2, max_size=4).map(tuple)

_MALFORMED_STACKS = st.one_of(
    _float_arrays(st.just(())),
    _float_arrays(st.tuples(st.integers(0, 5))),
    hnp.arrays(np.complex128, _SOME_SHAPES, elements=st.complex_numbers(max_magnitude=1e4)),
    _float_arrays(_SOME_SHAPES).map(lambda a: a.astype(object)),
    st.text(max_size=6),
    _RAGGED_LISTS,
    _RAGGED_LISTS.map(lambda rows: [rows, rows]),
)

#: Arrays that are stacks but not fields: 2-D, or three components on axis -3.
_MALFORMED_FIELDS = st.one_of(
    _float_arrays(st.tuples(st.integers(1, 4), st.integers(1, 4))),
    _float_arrays(_SOME_SHAPES.map(lambda shape: shape[:-2] + (3,) + shape[-2:])),
)


def _malformed_call(name, x):
    call = _STACK_CALLS[name][1]
    shape = x.shape[-2:] if isinstance(x, np.ndarray) and x.ndim >= 2 else (3, 4)
    with pytest.raises(VTVError):
        call(x, shape)


@pytest.mark.parametrize("name", list(_STACK_CALLS))
@_CONTRACT_FUZZ
@given(x=_MALFORMED_STACKS)
@example(x=np.float64(1.0))
@example(x=np.ones(5))
@example(x=np.ones((2, 2, 4, 4), dtype=complex))
@example(x=np.ones((2, 2, 4, 4), dtype=object))
@example(x="abc")
@example(x=[[1.0, 2.0], [3.0]])
def test_a_malformed_stack_is_a_vtv_error(name, x):
    _malformed_call(name, x)


@pytest.mark.parametrize("name", _FIELD_CALLS)
@_CONTRACT_FUZZ
@given(x=_MALFORMED_FIELDS)
@example(x=np.ones((4, 4)))
@example(x=np.ones((9, 3, 4, 4)))
def test_a_malformed_field_is_a_vtv_error(name, x):
    _malformed_call(name, x)


@st.composite
def _real_stacks(draw, leading):
    """A real, finite ``leading + (h, w)`` stack in one of the forms a caller passes."""
    shape = leading + (draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    form = draw(st.sampled_from([np.bool_, np.int8, np.uint16, np.float64, list]))
    if form is list:
        values = st.integers(-1000, 1000) | _FINITE
        return draw(hnp.arrays(object, shape, elements=values)).tolist()
    return draw(hnp.arrays(form, shape, elements=_FINITE if form is np.float64 else None))


def _result(call, x, shape):
    """The dtype, shape and bits of ``call``'s result."""
    result = np.asarray(call(x, shape))
    return result.dtype, result.shape, result.tobytes()


@pytest.mark.parametrize("name", list(_STACK_CALLS))
@_CONTRACT_FUZZ
@given(data=st.data())
def test_a_real_stack_gives_the_result_of_its_float64_copy(name, data):
    leading, call = _STACK_CALLS[name]
    x = data.draw(_real_stacks(leading), label="x")
    f = np.asarray(x, dtype=np.float64)
    assert as_stack(f) is f
    assert DegradationOp.identity().adjoint(f) is f
    assert _result(call, x, f.shape[-2:]) == _result(call, f, f.shape[-2:])
