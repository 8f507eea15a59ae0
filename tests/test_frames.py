"""Filter bank construction, tight-frame identities and the frame adjoint."""

import math
import sys
import threading
import unittest.mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vtvrestore import (
    ChannelMismatchError,
    DimensionMismatchError,
    FilterBank,
    NotRealError,
    analyze,
    bspline_bank,
    conv_adjoint,
    grad,
    grad_adjoint,
    identity_bank,
    kernel_symbol,
    solve_diagonal,
    synthesize_adjoint,
    verify_uep,
)
from vtvrestore import frames

from conftest import FORWARD_DIFF_X, FORWARD_DIFF_Y, conv_brute_force


class TestBsplineBank:
    def test_lowpass_kernel_taps(self, bank):
        expected = np.array([[1, 2, 1], [2, 4, 2], [1, 2, 1]]) / 16.0
        assert np.max(np.abs(bank.kernels[0] - expected)) < 1e-15
        assert abs(bank.kernels[0].sum() - 1.0) < 1e-15

    def test_fifth_kernel_taps(self, bank):
        # outer product of the antisymmetric filter with itself
        expected = np.array([[1, 0, -1], [0, 0, 0], [-1, 0, 1]]) * (2.0 / 16.0)
        assert np.max(np.abs(bank.kernels[4] - expected)) < 1e-15

    def test_detail_kernels_kill_constants(self, bank):
        for k in bank.kernels[1:]:
            assert abs(k.sum()) < 1e-15

    def test_channel_count_and_roles(self, bank):
        # channel 1 is the lowpass (unit tap sum); the detail kernels sum to
        # zero (test_detail_kernels_kill_constants)
        assert bank.m == 9
        assert abs(bank.kernels[0].sum() - 1.0) < 1e-15
        assert all(k.shape == (3, 3) for k in bank.kernels)

    def test_outer_product_indexing(self, bank):
        h = [
            np.array([1.0, 2.0, 1.0]) / 4.0,
            np.array([1.0, 0.0, -1.0]) * (np.sqrt(2.0) / 4.0),
            np.array([-1.0, 2.0, -1.0]) / 4.0,
        ]
        for i in range(3):
            for j in range(3):
                n = 3 * i + j
                assert np.array_equal(bank.kernels[n], np.outer(h[i], h[j]))


class TestAnalyze:
    def test_constant_image(self, bank):
        stack = analyze(np.full((6, 6), 7.0), bank)
        np.testing.assert_allclose(stack[0], 7.0, atol=1e-12)
        assert np.max(np.abs(stack[1:])) < 1e-12

    def test_impulse_gives_embedded_kernels(self, bank):
        f = np.zeros((8, 8))
        f[0, 0] = 1.0
        stack = analyze(f, bank)
        for channel, k in zip(stack, bank.kernels):
            want = conv_brute_force(f, k)
            assert np.array_equal(channel, want)

    def test_matches_brute_force_per_channel(self, bank):
        rng = np.random.default_rng(0)
        u = rng.uniform(0, 255, (16, 16))
        stack = analyze(u, bank)
        for channel, k in zip(stack, bank.kernels):
            assert np.max(np.abs(channel - conv_brute_force(u, k))) < 1e-12

    def test_linearity(self, bank):
        rng = np.random.default_rng(1)
        u = rng.standard_normal((8, 8))
        v = rng.standard_normal((8, 8))
        lhs = analyze(1.5 * u - 0.5 * v, bank)
        rhs = 1.5 * analyze(u, bank) - 0.5 * analyze(v, bank)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestSynthesizeAdjoint:
    def test_perfect_reconstruction(self, bank):
        rng = np.random.default_rng(2)
        for _ in range(10):
            h, w = rng.integers(4, 33, size=2)
            u = rng.uniform(0, 255, (h, w))
            rec = synthesize_adjoint(analyze(u, bank), bank)
            assert np.max(np.abs(rec - u)) < 1e-12 * 255

    def test_single_channel_contribution(self, bank):
        rng = np.random.default_rng(3)
        g = np.zeros((9, 6, 6))
        g[4] = rng.standard_normal((6, 6))
        out = synthesize_adjoint(g, bank)
        assert np.array_equal(out, conv_adjoint(g[4], bank.kernels[4]))

    def test_adjoint_dot_identity(self, bank):
        rng = np.random.default_rng(4)
        u = rng.standard_normal((8, 8))
        g = rng.standard_normal((9, 8, 8))
        lhs = float(np.sum(analyze(u, bank) * g))
        rhs = float(np.sum(u * synthesize_adjoint(g, bank)))
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))

    def test_energy_identity(self, bank):
        rng = np.random.default_rng(5)
        u = rng.uniform(0, 255, (16, 16))
        assert abs(np.linalg.norm(analyze(u, bank)) - np.linalg.norm(u)) < 1e-10 * np.linalg.norm(u)

    def test_channel_mismatch(self, bank):
        with pytest.raises(ChannelMismatchError):
            synthesize_adjoint(np.zeros((3, 4, 4)), bank)


class TestVerifyUep:
    def test_bspline_bank_is_tight(self, bank):
        assert verify_uep(bank, 16, 16) < 1e-12

    def test_identity_bank_deviation_is_zero(self):
        assert verify_uep(identity_bank(), 16, 16) == 0.0

    def test_perturbed_bank_deviation(self, bank):
        # scaling channel c by 2 changes sum |K_i|^2 by 3 |K_c|^2; compute the
        # expected deviation with an independent DFT of the embedded kernel
        perturbed = FilterBank((bank.kernels[0] * 2.0,) + bank.kernels[1:])
        k = bank.kernels[0]
        grid = np.zeros((16, 16))
        for p in (-1, 0, 1):
            for q in (-1, 0, 1):
                grid[p % 16, q % 16] = k[p + 1, q + 1]
        expected = 3.0 * np.max(np.abs(np.fft.fft2(grid)) ** 2)
        got = verify_uep(perturbed, 16, 16)
        assert got > 0
        assert abs(got - expected) < 1e-12


class TestFilterBank:
    def test_constructor_validation(self):
        with pytest.raises(ChannelMismatchError):
            FilterBank([])
        with pytest.raises(ChannelMismatchError):
            FilterBank(())
        with pytest.raises(DimensionMismatchError):
            FilterBank([np.ones((2, 3))])
        bank = FilterBank([[[1, 2, 1]]])
        assert isinstance(bank.kernels, tuple)
        assert bank.kernels[0].dtype == np.float64

    def test_banks_compare_and_hash_by_identity(self):
        first, second = bspline_bank(), bspline_bank()
        assert first == first
        assert first != second
        assert len({first, second, first}) == 2


def random_bank():
    rng = np.random.default_rng(21)
    return FilterBank([rng.standard_normal((5, 5)) for _ in range(3)])


def mixed_bank():
    # kernels of two shapes, neither square: the stencil's impulse grid and
    # pads differ per axis, and its span of offsets has zero columns
    rng = np.random.default_rng(30)
    return FilterBank([rng.standard_normal((3, 7)), rng.standard_normal((5, 1))])


BANKS = {
    "bspline": bspline_bank,
    "identity": identity_bank,
    "mixed3x7_5x1": mixed_bank,
    "random5x5": random_bank,
}
# odd, even, 1xN, Nx1, 2x2 and 1x1 (smaller than the kernels, so offsets
# wrap onto each other); a height that is not a multiple of the block rows;
# a width beyond the block budget, which forces one-row blocks
GRIDS = [
    (7, 9), (8, 6), (1, 11), (10, 1), (2, 2),
    (1, 1), (37, 500), (3, frames.BLOCK_PIXELS + 3),
]


def reference_apply(u, bank):
    return grad(analyze(u, bank))


def reference_adjoint(p, bank, weights):
    return sum(
        g * conv_adjoint(grad_adjoint(p[i]), k)
        for i, (g, k) in enumerate(zip(weights, bank.kernels))
    )


@pytest.mark.parametrize("shape", GRIDS)
@pytest.mark.parametrize("bank_name", sorted(BANKS))
class TestFrameGradient:
    def test_apply_matches_grad_of_analyze(self, bank_name, shape):
        bank = BANKS[bank_name]()
        u = np.random.default_rng(22).standard_normal(shape)
        got = bank.frame_gradient.apply(u)
        assert got.shape == (bank.m, 2) + shape
        assert np.max(np.abs(got - reference_apply(u, bank))) <= 1e-12

    def test_weighted_adjoint_matches_reference(self, bank_name, shape):
        bank = BANKS[bank_name]()
        rng = np.random.default_rng(23)
        p = rng.standard_normal((bank.m, 2) + shape)
        gamma = rng.uniform(0.5, 3.0, bank.m)
        got = swept_adjoint(bank.frame_gradient, p, gamma, 1)
        assert np.max(np.abs(got - reference_adjoint(p, bank, gamma))) <= 1e-12

    def test_dot_product_identity(self, bank_name, shape):
        bank = BANKS[bank_name]()
        rng = np.random.default_rng(24)
        u = rng.standard_normal(shape)
        p = rng.standard_normal((bank.m, 2) + shape)
        stencil = bank.frame_gradient
        lhs = float(np.sum(stencil.apply(u) * p))
        rhs = float(np.sum(u * stencil.adjoint(p)))
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))

    def test_preallocated_buffers_give_the_same_result(self, bank_name, shape):
        # the block buffers are reused from block to block; a result must
        # not depend on what an earlier block or call left behind
        bank = BANKS[bank_name]()
        rng = np.random.default_rng(25)
        u = rng.standard_normal(shape)
        p = rng.standard_normal((bank.m, 2) + shape)
        stencil = bank.frame_gradient
        assert np.array_equal(stencil.apply(u), stencil.apply(u))
        assert np.array_equal(stencil.adjoint(p), stencil.adjoint(p))


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (3, 5), (20, 17)])
@pytest.mark.parametrize("bank_name", sorted(BANKS))
def test_normal_kernel_symbol_is_the_per_channel_product(bank_name, shape):
    bank = BANKS[bank_name]()
    weights = np.random.default_rng(27).uniform(0.5, 3.0, bank.m)
    kernel = bank.frame_gradient.normal_kernel(weights)
    assert bank_name != "bspline" or kernel.shape == (7, 7)
    laplace = sum(np.abs(kernel_symbol(d, shape)) ** 2 for d in (FORWARD_DIFF_X, FORWARD_DIFF_Y))
    frame = sum(g * np.abs(kernel_symbol(k, shape)) ** 2 for g, k in zip(weights, bank.kernels))
    # relative to the kernel's l1 norm, which bounds its symbol on every
    # grid (on 1x1 the expected symbol is exactly zero)
    err = np.max(np.abs(kernel_symbol(kernel, shape) - laplace * frame))
    assert err <= 1e-12 * np.sum(np.abs(kernel))


@pytest.mark.parametrize(
    ("call", "error"),
    [
        (lambda stencil: frames.Sweep(stencil, (4, 4, 4)), DimensionMismatchError),
        (
            lambda stencil: frames.Sweep(stencil, (4, 4)).run(lambda *_: None, np.zeros((4, 5))),
            DimensionMismatchError,
        ),
        (
            lambda stencil: frames.Sweep(stencil, (4, 4)).run(
                lambda *_: None, np.ones((4, 4), complex)
            ),
            NotRealError,
        ),
        (lambda stencil: stencil.adjoint(np.zeros((stencil.m, 3, 4, 4))), ChannelMismatchError),
        (lambda stencil: stencil.adjoint(np.zeros((stencil.m, 2, 0, 3))), DimensionMismatchError),
    ],
    ids=[
        "sweep-3-d-grid", "run-other-shape", "run-complex",
        "adjoint-three-components", "adjoint-empty-grid",
    ],
)
def test_a_misshapen_argument_is_rejected(bank, call, error):
    with pytest.raises(error):
        call(bank.frame_gradient)


def test_bspline_stencil_has_fifteen_offsets(bank):
    stencil = bank.frame_gradient
    assert stencil.taps.shape == (18, 15)
    assert bank.frame_gradient is stencil  # built once per bank
    # constants map to exact zeros
    assert not np.any(stencil.apply(np.full((6, 5), 37.3)))


@pytest.mark.parametrize("shape", [(20, 17), (33, 7), (9, 1), (1, 9)])
@pytest.mark.parametrize("block_rows", [1, 2, 5, None])
def test_every_block_size_gives_the_same_stencil(monkeypatch, bank, shape, block_rows):
    h, w = shape
    monkeypatch.setattr(frames, "BLOCK_PIXELS", (block_rows or h) * w)
    rng = np.random.default_rng(26)
    u = rng.standard_normal(shape)
    p = rng.standard_normal((bank.m, 2) + shape)
    gamma = rng.uniform(0.5, 3.0, bank.m)
    stencil = bank.frame_gradient
    expected = reference_apply(u, bank)
    assert np.max(np.abs(stencil.apply(u) - expected)) <= 1e-12
    # each block arrives in a buffer the next block reuses
    pieces = frames.Sweep(stencil, shape).run(lambda rows, g, add: (rows, g.copy()), u)
    assert [rows.start for rows, _ in pieces] == list(range(0, h, block_rows or h))
    assert np.max(np.abs(np.concatenate([g for _, g in pieces], axis=2) - expected)) <= 1e-12
    got = swept_adjoint(stencil, p, gamma, 1)
    assert np.max(np.abs(got - reference_adjoint(p, bank, gamma))) <= 1e-12


def test_a_sweeps_planes_and_block_output_are_stored_row_by_row(bank):
    # a worker's shifted planes are (rows, p * q, w) and its block output
    # (rows, m, 2, w), so each row's operand and result of the per-row
    # matrix products are contiguous; the body gets the (m, 2, n, w) view
    stencil = bank.frame_gradient
    (top, bottom), (left, right) = stencil._pad
    planes = (top + bottom + 1) * (left + right + 1)
    u = np.random.default_rng(7).uniform(0, 255, (70, 300))  # blocks of 27, 27, 16 rows
    with frames.Sweep(stencil, u.shape, workers=2) as sweep:
        assert sweep.workers == 2
        for scratch in sweep._scratch:
            assert scratch[0].shape == (27, planes, 300) and scratch[0].flags.c_contiguous
            assert scratch[1].shape == (27, bank.m, 2, 300) and scratch[1].flags.c_contiguous
        blocks = [s[1] for s in sweep._scratch]
        views = sweep.run(
            lambda rows, g, add: (
                g.shape == (bank.m, 2, rows.stop - rows.start, 300)
                and g.transpose(2, 0, 1, 3).flags.c_contiguous
                and any(np.shares_memory(g, block) for block in blocks)
            ),
            u,
        )
    assert views == [True, True, True]


# (37, 1024) runs on two workers
@pytest.mark.parametrize("shape", [(40, 33), (9, 1), (37, 1024)])
def test_float32_block_buffers_give_the_stencil_in_single_precision(bank, shape):
    rng = np.random.default_rng(27)
    u = 255 * rng.random(shape)
    stencil = bank.frame_gradient
    expected = reference_apply(u, bank)
    gamma = rng.uniform(0.5, 3.0, bank.m)
    sweep = frames.Sweep(stencil, shape, gamma, np.float32, workers=2)
    assert sweep.workers == (2 if shape == (37, 1024) else 1)
    for _ in range(2):  # the same buffers serve every sweep
        pieces = sweep.run(lambda rows, g, add: g.copy(), u)
        assert all(g.dtype == np.float32 for g in pieces)
        got = np.concatenate(pieces, axis=2)
        assert np.max(np.abs(got - expected)) <= 1e-5 * 255
    # the float32 adjoint, summed in float32, adds into a float64 image
    p = rng.standard_normal((bank.m, 2) + shape)
    sweep.run(lambda rows, g, add: add(p[:, :, rows].astype(np.float32)))
    got = sweep.total
    assert got.dtype == np.float64
    assert np.max(np.abs(got - reference_adjoint(p, bank, gamma))) <= 1e-5
    sweep.close()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_one_sweep_over_two_images_gives_each_its_own_stencil(bank, dtype, workers):
    # the padded copy of u is filled by every run, pads and first pixel
    # included: a run must not see the image of the run before it
    shape = (37, 1024)
    rng = np.random.default_rng(29)
    images = [255 * rng.random(shape), rng.standard_normal(shape) - 40]
    stencil = bank.frame_gradient
    with frames.Sweep(stencil, shape, dtype=dtype, workers=workers) as sweep:
        assert sweep.workers == workers
        for u in images + images:
            got = np.concatenate(sweep.run(lambda rows, g, add: g.copy(), u), axis=2)
            alone = frames.Sweep(stencil, shape, dtype=dtype).run(
                lambda rows, g, add: g.copy(), u
            )
            assert np.array_equal(got, np.concatenate(alone, axis=2))
            bound = 1e-12 if dtype == np.float64 else 1e-5
            assert np.max(np.abs(got - reference_apply(u, bank))) <= bound * np.abs(u).max()


@pytest.mark.parametrize("workers", [1, 2])
def test_each_run_of_a_sweep_is_one_whole_sum(bank, workers):
    # run zeroes the accumulator before its first block and folds its pads
    # after the last, so a run never adds onto the sum of the run before
    shape = (37, 1024)
    rng = np.random.default_rng(31)
    p = rng.standard_normal((bank.m, 2) + shape)
    gamma = rng.uniform(0.5, 3.0, bank.m)
    stencil = bank.frame_gradient
    fresh = swept_adjoint(stencil, p, gamma, 1)
    with frames.Sweep(stencil, shape, gamma, workers=workers) as sweep:
        assert sweep.workers == workers
        total = sweep.total
        for _ in range(2):
            sweep.run(lambda rows, g, add: add(p[:, :, rows]))
            assert sweep.total is total and np.array_equal(total, fresh)
        sweep.run(lambda rows, g, add: None, rng.standard_normal(shape))
        assert not total.any()  # a run that adds nothing sums to zero


# With 3-row blocks, a (160, 48) grid's half spectrum reaches into the first
# worker's zero-bordered planes at single; a (48, 160) grid's, and either at
# double, ends before them.
@pytest.mark.parametrize("shape", [(160, 48), (48, 160)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_spectrum_overwritten_between_runs_changes_no_result(monkeypatch, bank, dtype, shape):
    monkeypatch.setattr(frames, "BLOCK_PIXELS", 3 * shape[1])
    rng = np.random.default_rng(37)
    u = 255 * rng.random(shape)
    p = rng.standard_normal((bank.m, 2) + shape).astype(dtype)
    gamma = rng.uniform(0.5, 3.0, bank.m)
    stencil = bank.frame_gradient
    private = frames.Sweep(stencil, shape, gamma, dtype, workers=2)
    shared = frames.Sweep(stencil, shape, gamma, dtype, workers=2)
    assert shared.workers == 2 and shared.spectrum.shape == (shape[0], shape[1] // 2 + 1)
    assert np.shares_memory(shared.spectrum, shared._padded)
    overlaps = any(np.shares_memory(shared.spectrum, s[2]) for s in shared._scratch)
    assert overlaps == (dtype == np.float32 and shape == (160, 48))

    def forward_and_back(rows, g, add):
        add(g)
        return g.copy()

    def back(rows, g, add):
        add(p[:, :, rows])

    def bits(results):
        return [None if a is None else a.tobytes() for a in results]

    with shared, private:
        for body, image in [(forward_and_back, u), (back, None)] * 2:
            shared.spectrum.view(np.uint8).fill(0xFF)  # NaN in either dtype
            assert bits(shared.run(body, image)) == bits(private.run(body, image))
            assert shared.total.tobytes() == private.total.tobytes()


# one block; 5 blocks of 8 rows and one of 5; and 2-row blocks, shorter
# than the pads of the B-spline (3 rows), 5x5 and mixed banks (5) but not
# the identity's (1)
WORKER_GRIDS = [(1, 1), (7, 5), (37, 1024), (6, 4096)]


def swept_apply(stencil, u, workers):
    """``stencil.apply(u)``, its blocks run on ``workers`` threads."""
    out = np.empty((stencil.m, 2) + u.shape)

    def copy(rows, g, add):
        out[:, :, rows] = g

    with frames.Sweep(stencil, u.shape, workers=workers) as sweep:
        sweep.run(copy, u)
    return out


def swept_adjoint(stencil, p, weights, workers):
    """The ``weights``-weighted ``stencil.adjoint(p)`` (weights one for None),
    its blocks run on ``workers`` threads."""
    with frames.Sweep(stencil, p.shape[2:], weights, workers=workers) as sweep:
        sweep.run(lambda rows, g, add: add(p[:, :, rows]))
    return sweep.total


def meeting(starts):
    """A body whose blocks starting at the rows ``starts`` wait for each other,
    so that each runs on a thread of its own; it returns its thread's name."""
    barrier = threading.Barrier(len(starts), timeout=10)

    def body(rows, g, add):
        if rows.start in starts:
            barrier.wait()
        return threading.current_thread().name

    return body


@pytest.mark.parametrize("shape", WORKER_GRIDS)
@pytest.mark.parametrize("bank_name", sorted(BANKS))
def test_every_worker_count_gives_the_same_stencil(bank_name, shape):
    bank = BANKS[bank_name]()
    stencil = bank.frame_gradient
    rng = np.random.default_rng(28)
    u = rng.standard_normal(shape)
    p = rng.standard_normal((bank.m, 2) + shape)
    gamma = rng.uniform(0.5, 3.0, bank.m)
    applied = [swept_apply(stencil, u, workers) for workers in (1, 2, 3)]
    adjoints = [swept_adjoint(stencil, p, gamma, workers) for workers in (1, 2, 3)]
    assert np.array_equal(applied[0], stencil.apply(u))
    assert np.array_equal(swept_adjoint(stencil, p, None, 1), stencil.adjoint(p))
    assert all(np.array_equal(a, applied[0]) for a in applied[1:])
    assert all(np.array_equal(a, adjoints[0]) for a in adjoints[1:])
    assert np.max(np.abs(applied[0] - reference_apply(u, bank))) <= 1e-12
    assert np.max(np.abs(adjoints[0] - reference_adjoint(p, bank, gamma))) <= 1e-12


@pytest.mark.parametrize(
    ("bank_name", "shape", "threads"),
    [
        ("bspline", (1, 1), 1),
        ("bspline", (7, 5), 1),
        ("bspline", (37, 1024), 3),  # 3 of the 5 blocks in the first phase
        ("bspline", (6, 4096), 1),  # 2-row blocks, 3 rows of pads
        ("identity", (6, 4096), 2),  # 2-row blocks, 1 row of pads
        ("random5x5", (37, 1024), 3),  # 8-row blocks, 5 rows of pads
    ],
)
def test_workers_are_capped_by_the_blocks_of_a_phase(bank_name, shape, threads):
    assert frames.Sweep(BANKS[bank_name]().frame_gradient, shape, workers=3).workers == threads
    assert frames.Sweep(BANKS[bank_name]().frame_gradient, shape).workers == 1


def test_blocks_of_a_phase_run_on_threads_of_their_own(bank):
    baseline = threading.active_count()
    with frames.Sweep(bank.frame_gradient, (37, 1024), workers=3) as sweep:
        for _ in range(2):  # the two threads wait from one run to the next
            # blocks 2 and 4, rows 16 and 32 on, share phase one with block 0
            names = sweep.run(meeting({16, 32}))
            assert threading.active_count() == baseline + 2
    main = threading.current_thread().name
    # phase one: blocks 0, 2 and 4, block 0 in this thread; phase two: 1 and 3
    assert names[0] == names[1] == main
    assert len({names[0], names[2], names[4]}) == 3
    assert names[3] in {names[2], names[4]}
    assert threading.active_count() == baseline


def test_more_workers_than_cores_lose_no_update(bank, monkeypatch):
    # 3-row blocks, as short as the pads allow, so that neighbouring blocks of
    # one phase write rows next to each other; a lost or doubled update of
    # the shared accumulator would change the sum
    shape = (200, 64)
    monkeypatch.setattr(frames, "BLOCK_PIXELS", 3 * shape[1])
    rng = np.random.default_rng(35)
    p = rng.standard_normal((bank.m, 2) + shape)
    gamma = rng.uniform(0.5, 3.0, bank.m)
    stencil = bank.frame_gradient
    expected = swept_adjoint(stencil, p, gamma, 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert np.array_equal(swept_adjoint(stencil, p, gamma, 8), expected)
    finally:
        sys.setswitchinterval(interval)


def test_more_workers_than_cores_split_a_solve_as_one_thread_does(bank, monkeypatch):
    # eight ranges of 25 rows or of 4 and 5 columns write their parts of the
    # shared spectrum and image side by side
    shape = (200, 64)
    monkeypatch.setattr(frames, "BLOCK_PIXELS", 3 * shape[1])
    rng = np.random.default_rng(36)
    num = rng.standard_normal(shape)
    inverse = 1 / rng.uniform(0.5, 2.0, (shape[0], shape[1] // 2 + 1))
    expected = solve_diagonal(num, inverse, np.empty(inverse.shape, dtype=complex))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with frames.Sweep(bank.frame_gradient, shape, workers=8) as sweep:
            assert sweep.workers == 8
            for _ in range(5):
                spectrum = np.empty(inverse.shape, dtype=complex)
                got = solve_diagonal(num, inverse, spectrum, None, sweep.split)
                assert np.array_equal(got, expected)
    finally:
        sys.setswitchinterval(interval)


def test_the_threads_of_a_collected_sweep_end(bank):
    before = set(threading.enumerate())
    sweep = frames.Sweep(bank.frame_gradient, (37, 1024), workers=3)
    sweep.run(meeting({16, 32}))
    started = set(threading.enumerate()) - before
    assert len(started) == 2
    del sweep
    for thread in started:
        thread.join(timeout=10)
        assert not thread.is_alive()


def test_a_body_runs_under_the_callers_error_state_on_every_thread(bank):
    sweep = frames.Sweep(bank.frame_gradient, (37, 1024), workers=3)

    def overflow(rows, g, add):
        return float(np.float64(1e300) * np.float64(1e300))

    with np.errstate(over="ignore"):
        assert sweep.run(overflow) == [math.inf] * 5
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        sweep.run(overflow)


@pytest.mark.parametrize("kind", [ValueError, MemoryError])
def test_a_failure_on_a_worker_thread_is_raised_by_run(bank, kind):
    sweep = frames.Sweep(bank.frame_gradient, (37, 1024), workers=3)
    baseline = threading.active_count()
    failed = []

    def body(rows, g, add):
        if threading.current_thread() is not threading.main_thread():
            failed.append(rows.start)
            raise kind("failed on a worker")

    with pytest.raises(kind, match="failed on a worker"):
        sweep.run(body)
    assert sorted(failed) == [16, 32]  # blocks 2 and 4; phase two never starts
    assert threading.active_count() == baseline


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 5, 37])
def test_split_runs_one_contiguous_range_per_worker(bank, workers, n):
    ranges = []
    with frames.Sweep(bank.frame_gradient, (37, 1024), workers=workers) as sweep:
        assert sweep.workers == workers
        sweep.split(lambda start, stop: ranges.append((start, stop, threading.current_thread())), n)
    ranges.sort(key=lambda r: r[0])
    bounds = [start for start, _, _ in ranges] + [n]
    assert len(ranges) == min(workers, n)
    assert [stop for _, stop, _ in ranges] == bounds[1:] and bounds[0] == 0
    sizes = [stop - start for start, stop, _ in ranges]
    assert sizes == [] or min(sizes) >= max(sizes) - 1 >= 0
    # the first range runs in the calling thread, the others on the pool
    on_caller = [t is threading.current_thread() for *_, t in ranges]
    assert on_caller == [j == 0 for j in range(len(ranges))]


def test_split_runs_each_range_under_the_callers_error_state(bank):
    bufsize = np.getbufsize()
    seen = {}

    def overflow_on_a_worker(start, stop):
        seen[start] = (np.geterr()["over"], np.getbufsize())
        if threading.current_thread() is not threading.main_thread():
            return float(np.float64(1e300) * np.float64(1e300))

    with frames.Sweep(bank.frame_gradient, (37, 1024), workers=3) as sweep:
        with np.errstate(over="ignore"):
            sweep.split(overflow_on_a_worker, 3)
        assert seen == {j: ("ignore", frames._SUM_BUFFER) for j in range(3)}
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            sweep.split(overflow_on_a_worker, 3)
        assert seen == {j: ("raise", frames._SUM_BUFFER) for j in range(3)}
    assert np.getbufsize() == bufsize  # the calling thread's own is back


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    h=st.integers(1, 40),
    w=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    bank_name=st.sampled_from(sorted(BANKS)),
    workers=st.integers(1, 3),
)
@example(h=1, w=29, seed=0, bank_name="bspline", workers=1)
@example(h=31, w=1, seed=0, bank_name="bspline", workers=1)
@example(h=40, w=7, seed=0, bank_name="bspline", workers=3)
def test_adjointness_and_uep_on_random_sizes(h, w, seed, bank_name, workers):
    bank = BANKS[bank_name]()
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((h, w))
    p = rng.standard_normal((bank.m, 2, h, w))
    stencil = bank.frame_gradient
    # blocks of 5 rows, at least the pads of every bank here, so that
    # more than one worker runs on grids of more than 10 rows
    with unittest.mock.patch.object(frames, "BLOCK_PIXELS", 5 * w):
        du = swept_apply(stencil, u, workers)
        adjoint = swept_adjoint(stencil, p, None, workers)
    lhs = float(np.sum(du * p))
    rhs = float(np.sum(u * adjoint))
    assert abs(lhs - rhs) <= 1e-12 * (1 + np.linalg.norm(du) * np.linalg.norm(p))
    if bank_name in ("bspline", "identity"):  # the random banks are not tight frames
        assert verify_uep(bank, w, h) < 1e-12
        assert np.max(np.abs(synthesize_adjoint(analyze(u, bank), bank) - u)) < 1e-12
