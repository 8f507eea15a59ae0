"""Split Bregman solver: exactness of the updates, the loop contract and
the classical-TV reduction."""

import dataclasses
import functools
import multiprocessing
import threading
import tracemalloc

import numpy as np
import pytest

from vtvrestore import (
    ANISO,
    DOUBLE,
    FULL13,
    ISO,
    REDUCED17,
    SINGLE,
    ConfigError,
    DegradationOp,
    DimensionMismatchError,
    NoiseSpec,
    NonFiniteError,
    SingularSymbolError,
    SolverConfig,
    SplitBregman,
    analyze,
    conv_adjoint,
    conv_circular,
    energy,
    gaussian_noise,
    grad,
    grad_adjoint,
    identity_bank,
    kernel_symbol,
    motion_blur_kernel,
    psnr,
    solve,
    vtv,
    write_trace_csv,
)
from vtvrestore import cli, frames
from vtvrestore.selftest import rof_iterates
from vtvrestore.solver import SINGLE_BOUND

from vtvrestore.diffops import FORWARD_DIFF_X, FORWARD_DIFF_Y

from conftest import kkt_residual, make_phantom, smoothed_tv_minimizer


def denoise_cfg(**kw):
    kw.setdefault("u_update", REDUCED17)
    return SolverConfig.head_rest(9, 2.0, 1.5, 12.0, 4.5, **kw)


class TestSolverConfig:
    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            SolverConfig(lam=(1.0, 1.0), gamma=(1.0,))

    def test_sign_constraints(self):
        with pytest.raises(ConfigError):
            SolverConfig(lam=(-1.0,), gamma=(1.0,))
        with pytest.raises(ConfigError):
            SolverConfig(lam=(1.0,), gamma=(0.0,))
        with pytest.raises(ConfigError):
            SolverConfig(lam=(1.0,), gamma=(1.0,), tol=0.0)
        with pytest.raises(ConfigError):
            SolverConfig(lam=(1.0,), gamma=(1.0,), max_iter=0)

    def test_variant_names(self):
        with pytest.raises(ConfigError):
            SolverConfig(lam=(1.0,), gamma=(1.0,), u_update="fancy")
        with pytest.raises(ConfigError):
            SolverConfig(lam=(1.0,), gamma=(1.0,), shrinkage="huber")

    @pytest.mark.parametrize("workers", [0, -1, 2.0, "2", True])
    def test_workers_must_be_a_positive_integer(self, workers):
        with pytest.raises(ConfigError, match="workers"):
            SolverConfig(lam=(1.0,), gamma=(1.0,), workers=workers)

    @pytest.mark.parametrize("max_iter", [-1, 2.5, 2.0, "2", True])
    def test_max_iter_must_be_a_positive_integer(self, max_iter):
        with pytest.raises(ConfigError, match="max_iter"):
            SolverConfig(lam=(1.0,), gamma=(1.0,), max_iter=max_iter)

    def test_head_rest_builder(self):
        cfg = SolverConfig.head_rest(4, 2.0, 1.5, 12.0, 4.5)
        assert cfg.lam == (2.0, 1.5, 1.5, 1.5)
        assert cfg.gamma == (12.0, 4.5, 4.5, 4.5)

    def test_reduced_needs_uniform_tail(self, bank):
        cfg = SolverConfig(
            lam=(1.0,) * 9, gamma=(2.0,) + (1.0,) * 7 + (1.5,), u_update=REDUCED17
        )
        with pytest.raises(ConfigError):
            SplitBregman(np.zeros((8, 8)), DegradationOp.identity(), bank, cfg)
        # full13 accepts arbitrary gamma vectors
        cfg_full = SolverConfig(
            lam=(1.0,) * 9, gamma=(2.0,) + (1.0,) * 7 + (1.5,), u_update=FULL13
        )
        SplitBregman(np.zeros((8, 8)), DegradationOp.identity(), bank, cfg_full)


class TestDegradationOp:
    def test_identity(self):
        op = DegradationOp.identity()
        u = np.arange(16.0).reshape(4, 4)
        assert np.array_equal(op.apply(u), u)
        assert np.array_equal(op.adjoint(u), u)
        assert op.gram_symbol((4, 4)) == 1.0

    def test_blur_symbol_matches_kernel_symbol(self):
        psf = motion_blur_kernel(9)
        op = DegradationOp.blur(psf)
        gram = op.gram_symbol((16, 12))
        assert np.array_equal(gram, np.abs(kernel_symbol(psf, (16, 12))[:, :7]) ** 2)

    def test_blur_adjoint_dot_product(self):
        rng = np.random.default_rng(0)
        op = DegradationOp.blur(motion_blur_kernel(5))
        u = rng.standard_normal((8, 8))
        v = rng.standard_normal((8, 8))
        lhs = float(np.sum(op.apply(u) * v))
        rhs = float(np.sum(u * op.adjoint(v)))
        assert abs(lhs - rhs) < 1e-12 * (1 + abs(lhs))


class TestEnergy:
    def test_constant_fixed_point_is_zero(self, bank):
        f = np.full((8, 8), 50.0)
        assert energy(f, f, DegradationOp.identity(), bank, denoise_cfg()) < 1e-18

    def test_zero_lambda_leaves_fidelity(self, bank):
        rng = np.random.default_rng(1)
        u = rng.uniform(0, 255, (8, 8))
        f = rng.uniform(0, 255, (8, 8))
        cfg = SolverConfig(lam=(0.0,) * 9, gamma=(1.0,) * 9)
        got = energy(u, f, DegradationOp.identity(), bank, cfg)
        assert abs(got - 0.5 * np.sum((u - f) ** 2)) < 1e-10

    def test_compositional_oracle(self, bank):
        rng = np.random.default_rng(2)
        u = rng.uniform(0, 255, (8, 8))
        f = rng.uniform(0, 255, (8, 8))
        op = DegradationOp.blur(motion_blur_kernel(3))
        cfg = denoise_cfg()
        expected = 0.5 * np.sum((op.apply(u) - f) ** 2)
        for lam_i, k in zip(cfg.lam, bank.kernels):
            expected += lam_i * np.abs(grad(conv_circular(u, k))).sum()
        got = energy(u, f, op, bank, cfg)
        assert abs(got - expected) <= 1e-10 * (1 + expected)

    def test_dimension_mismatch(self, bank):
        with pytest.raises(DimensionMismatchError):
            energy(np.zeros((4, 4)), np.zeros((4, 5)), DegradationOp.identity(), bank, denoise_cfg())

    @pytest.mark.parametrize("shrinkage", [ANISO, ISO])
    def test_sum_over_row_blocks(self, bank, monkeypatch, shrinkage):
        rng = np.random.default_rng(3)
        u = rng.uniform(0, 255, (13, 10))
        f = rng.uniform(0, 255, (13, 10))
        cfg = denoise_cfg(shrinkage=shrinkage)
        expected = 0.5 * np.sum((u - f) ** 2) + vtv(
            grad(analyze(u, bank)), weights=cfg.lam, isotropic=shrinkage == ISO
        )
        monkeypatch.setattr(frames, "BLOCK_PIXELS", 30)  # blocks of 3 rows
        got = energy(u, f, DegradationOp.identity(), bank, cfg)
        assert abs(got - expected) <= 1e-12 * expected


ONE_CHANNEL = SolverConfig(lam=(1.0,), gamma=(1.0,))


@pytest.mark.parametrize(
    ("f", "cfg", "error"),
    [
        (np.zeros(8), denoise_cfg(), DimensionMismatchError),
        (np.zeros((8, 8)), ONE_CHANNEL, ConfigError),
    ],
    ids=["1-d", "channels"],
)
def test_split_bregman_rejects_a_problem_of_the_wrong_shape(bank, f, cfg, error):
    with pytest.raises(error):
        SplitBregman(f, DegradationOp.identity(), bank, cfg)


def test_energy_rejects_a_config_of_the_wrong_channel_count(bank):
    with pytest.raises(ConfigError, match="channels"):
        energy(np.zeros((4, 4)), np.zeros((4, 4)), DegradationOp.identity(), bank, ONE_CHANNEL)


@pytest.mark.parametrize("shrinkage", [ANISO, ISO])
def test_step_and_energy_allocate_no_feature_stack(bank, shrinkage):
    # the state is one (m, 2, h, w) stack; an iteration and an energy
    # evaluation each stay below the size of one more
    rng = np.random.default_rng(4)
    f = rng.uniform(0, 255, (256, 256))
    cfg = denoise_cfg(shrinkage=shrinkage)
    sb = SplitBregman(f, DegradationOp.identity(), bank, cfg)
    sb.step()
    stack_bytes = sb.b.nbytes
    tracemalloc.start()
    try:
        sb.step()
        step_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        energy(sb.u, f, DegradationOp.identity(), bank, cfg)
        energy_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert step_peak < stack_bytes and energy_peak < stack_bytes, (step_peak, energy_peak)


def test_split_bregman_keeps_only_its_state(bank):
    # construction builds the whole solve, and nothing else outlives it: the
    # (m, 2, h, w) stack b, the complex spectrum buffer, the half-spectrum
    # denominator, the iterate pair and the sweep's accumulator, padded
    # image, per-worker scratch and taps.  f is read in place, u starts as
    # f, A*f is f for the identity, the numerator is a view of the
    # accumulator and no operator symbol outlives the construction; the
    # threads wait for the first step.
    f = np.random.default_rng(5).uniform(0, 255, (256, 256))
    op = DegradationOp.identity()
    bank.frame_gradient  # built once per bank, not per solve
    np.fft  # numpy imports its FFT module on first use, once per process
    baseline = threading.active_count()
    for workers in (1, 2):
        tracemalloc.start()
        try:
            sb = SplitBregman(f, op, bank, denoise_cfg(workers=workers))
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        sweep = sb._sweep
        assert sweep.workers == workers and threading.active_count() == baseline
        state = [sb.b, sb._spectrum, sb._denominator, *sb._iterates]
        state += [sweep._acc, sweep._padded, sweep._taps, sweep._weighted]
        state += [a for s in sweep._scratch for a in s]
        expected = sum(a.nbytes for a in state)
        assert expected <= kept <= expected + 16 * 1024, (workers, kept, expected)
        assert sb.u is sb.f and np.shares_memory(sb.f, f)
        assert np.shares_memory(sb.numerator, sweep._acc)
        assert not np.shares_memory(sb.numerator, f)
        assert np.array_equal(sb.numerator, f)  # A*f, for the identity


@pytest.mark.parametrize(
    ("precision", "workers"),
    [
        pytest.param(DOUBLE, 1, id="double"),
        pytest.param(SINGLE, 1, id="single"),
        pytest.param(DOUBLE, 2, id="double-2-workers"),
        pytest.param(SINGLE, 2, id="single-2-workers"),
    ],
)
def test_warm_step_allocates_less_than_one_image(bank, precision, workers):
    # u_new is written into the one of the two iterate arrays that is not u,
    # the FFT solve and u_new - u run in the spectrum buffer and the sweep
    # made at construction is reused, so every step, the first included,
    # allocates only small temporaries: less than a boolean image.  With two
    # workers, the first step starts the second worker's thread, which then
    # waits between steps.
    import concurrent.futures  # noqa: F401  (a sweep pool's first import is not a step's cost)

    f = np.random.default_rng(6).uniform(0, 255, (512, 512))
    observed = f.copy()
    cfg = denoise_cfg(precision=precision, workers=workers)
    sb = SplitBregman(f, DegradationOp.identity(), bank, cfg)
    for _ in range(4):
        tracemalloc.start()
        try:
            sb.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < f.nbytes // 8, (peak, f.nbytes // 8)
        assert np.array_equal(f, observed)  # no step writes into f
    sb.close()


def test_recycled_iterate_gives_the_same_iterates_as_fresh_ones(bank):
    # step() writes u_new into the iterate before last; stepping by hand with
    # a fresh array each time must give the same iterates bit for bit, and an
    # array a caller passed to advance() is never written into
    rng = np.random.default_rng(20)
    f = rng.uniform(0, 255, (24, 20))
    stepped = SplitBregman(f, DegradationOp.identity(), bank, denoise_cfg(tol=1e-30))
    by_hand = SplitBregman(f, DegradationOp.identity(), bank, denoise_cfg(tol=1e-30))
    for _ in range(6):
        rel = stepped.step()
        u_new = by_hand.u_update()
        assert by_hand.advance(u_new) == rel
        assert np.array_equal(stepped.u, u_new)
    passed = stepped.u_update()
    kept = passed.copy()
    stepped.advance(passed)
    for _ in range(3):
        stepped.step()
    assert np.array_equal(passed, kept)


# 1x1; 7x5 and 40x40, each one block; 33x1024, an odd number of blocks
# (four of 8 rows and one of 1); and 6x4096, whose 2-row blocks are shorter
# than the B-spline pads (3 rows), so one worker runs
WORKER_GRIDS = {(1, 1): 1, (7, 5): 1, (40, 40): 1, (33, 1024): 3, (6, 4096): 1}


@pytest.mark.parametrize("precision", [DOUBLE, SINGLE])
@pytest.mark.parametrize("shrinkage", [ANISO, ISO])
@pytest.mark.parametrize("blur", [None, 3], ids=["identity", "blur3"])
@pytest.mark.parametrize("shape", list(WORKER_GRIDS), ids="{0[0]}x{0[1]}".format)
def test_every_worker_count_gives_the_same_iterates(bank, shape, blur, shrinkage, precision):
    f = np.random.default_rng(29).uniform(0, 255, shape)
    op = DegradationOp.identity() if blur is None else DegradationOp.blur(motion_blur_kernel(blur))
    runs = []
    for workers in (1, 2, 3):
        cfg = denoise_cfg(
            shrinkage=shrinkage, precision=precision, tol=1e-30, max_iter=4,
            record_trace=True, workers=workers,
        )
        sb = SplitBregman(f, op, bank, cfg)
        for _ in range(4):
            sb.step()
        runs.append((solve(f, op, bank, cfg), sb))
    (first, sb_first), *others = runs
    for result, sb in others:
        assert np.array_equal(result.u, first.u)
        assert result.trace == first.trace
        assert result.energy_trace == first.energy_trace
        assert np.array_equal(sb.b, sb_first.b)
        assert np.array_equal(sb.numerator, sb_first.numerator)
    assert [result.threads for result, _ in runs] == [min(n, WORKER_GRIDS[shape]) for n in (1, 2, 3)]


# 4 blocks of 16 rows: two per phase, so the second worker runs
THREADED_GRID = (64, 512)


@pytest.mark.parametrize("kind", [RuntimeError, MemoryError])
def test_a_failure_on_a_sweep_thread_is_raised_and_leaves_no_thread(bank, monkeypatch, kind):
    f = np.random.default_rng(30).uniform(0, 255, THREADED_GRID)
    op, cfg = DegradationOp.identity(), denoise_cfg(workers=2)
    baseline = threading.active_count()
    sb = SplitBregman(f, op, bank, cfg)
    sb.step()
    forward = frames.Sweep._forward
    failed = []

    def failing(self, scratch, u, rows):
        if threading.current_thread() is not threading.main_thread():
            failed.append(rows.start)
            raise kind("no block for this thread")
        return forward(self, scratch, u, rows)

    monkeypatch.setattr(frames.Sweep, "_forward", failing)
    with pytest.raises(kind, match="no block for this thread"):
        sb.step()
    assert threading.active_count() == baseline
    with pytest.raises(kind, match="no block for this thread"):
        solve(f, op, bank, cfg)
    assert threading.active_count() == baseline
    assert failed == [32, 32]  # block 2, the second of the first phase of each sweep


def test_sweep_threads_live_from_the_first_step_to_close(bank):
    f = np.random.default_rng(32).uniform(0, 255, THREADED_GRID)
    op, cfg = DegradationOp.identity(), denoise_cfg(workers=2, tol=1e-30, max_iter=3)
    baseline = threading.active_count()
    sb = SplitBregman(f, op, bank, cfg)
    assert threading.active_count() == baseline
    for _ in range(2):
        sb.step()
        assert threading.active_count() == baseline + 1
    sb.close()
    assert threading.active_count() == baseline
    sb.step()  # starts them again
    assert threading.active_count() == baseline + 1
    sb.close()
    assert solve(f, op, bank, cfg).threads == 2
    assert threading.active_count() == baseline


# Python 3.12+ warns that forking a process with threads may deadlock the child
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)
def test_a_forked_child_steps_a_solve_whose_parent_started_its_threads(bank):
    # the child inherits the parent's pool but none of its threads, so the
    # sweep must start a pool of its own there rather than wait on the
    # parent's; the child's step gives the parent's next iterate bit for bit
    f = np.random.default_rng(33).uniform(0, 255, THREADED_GRID)
    sb = SplitBregman(f, DegradationOp.identity(), bank, denoise_cfg(workers=2, tol=1e-30))
    sb.step()
    context = multiprocessing.get_context("fork")
    reader, writer = context.Pipe(duplex=False)

    def child():
        try:
            sb.step()
            writer.send(("u", sb.u))
        except BaseException as exc:
            writer.send(("error", repr(exc)))

    process = context.Process(target=child)
    process.start()
    try:
        # read before join, with a timeout, so that a child that hangs fails
        assert reader.poll(60), "the forked child did not finish its step"
        kind, value = reader.recv()
    finally:
        process.kill()
        process.join(10)
    assert kind == "u", value
    sb.step()
    sb.close()
    assert np.array_equal(value, sb.u)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_divergent_iterate_on_two_sweep_threads_keeps_the_state(bank, value):
    f = np.random.default_rng(31).uniform(0, 255, THREADED_GRID)
    sb = SplitBregman(f, DegradationOp.identity(), bank, denoise_cfg(workers=2))
    sb.step()
    u_new = sb.u_update()
    u_new[4, 5] = value
    b, numerator, u = sb.b.copy(), sb.numerator.copy(), sb.u.copy()
    with pytest.raises(NonFiniteError, match="iterate contains NaN or Inf"):
        sb.advance(u_new)
    assert np.array_equal(sb.b, b) and np.array_equal(sb.u, u)
    assert np.array_equal(sb.numerator, numerator)
    assert solve(f, DegradationOp.identity(), bank, denoise_cfg(workers=2)).threads == 2


class TestUUpdate:
    def test_kkt_residual_on_fresh_state(self, bank):
        rng = np.random.default_rng(3)
        f = rng.uniform(0, 255, (16, 16))
        cfg = SolverConfig.head_rest(9, 0.2, 0.2, 8.0, 4.0, u_update=FULL13)
        sb = SplitBregman(f, DegradationOp.identity(), bank, cfg)
        u1 = sb.u_update()
        assert kkt_residual(sb, u1) <= 1e-8

    @pytest.mark.parametrize("variant", [FULL13, REDUCED17])
    @pytest.mark.parametrize("blur", [None, 9], ids=["identity", "blur9"])
    def test_kkt_residual_of_every_variant_and_operator(self, bank, variant, blur):
        rng = np.random.default_rng(18)
        f = rng.uniform(0, 255, (16, 16))
        op = DegradationOp.identity() if blur is None else DegradationOp.blur(motion_blur_kernel(blur))
        sb = SplitBregman(f, op, bank, denoise_cfg(u_update=variant))
        for _ in range(4):
            u_new = sb.u_update()
            assert kkt_residual(sb, u_new) <= 1e-8
            sb.advance(u_new)

    def test_dc_fixed_point_for_constant_observation(self, bank):
        f = np.full((12, 12), 80.0)
        for variant in (FULL13, REDUCED17):
            sb = SplitBregman(
                f, DegradationOp.identity(), bank, denoise_cfg(u_update=variant)
            )
            u1 = sb.u_update()
            assert np.max(np.abs(u1 - 80.0)) < 1e-10

    def test_rof_single_step_matches_classical_formula(self):
        rng = np.random.default_rng(4)
        f = rng.uniform(0, 255, (12, 10))
        lam, gamma = 15.0, 5.0
        cfg = SolverConfig(lam=(lam,), gamma=(gamma,), u_update=FULL13)
        sb = SplitBregman(f, DegradationOp.identity(), identity_bank(), cfg)
        h, w = f.shape
        wy = (2 - 2 * np.cos(2 * np.pi * np.arange(h) / h))[:, None]
        wx = (2 - 2 * np.cos(2 * np.pi * np.arange(w) / w))[None, :]
        expected = np.real(np.fft.ifft2(np.fft.fft2(f) / (1.0 + gamma * (wy + wx))))
        assert np.max(np.abs(sb.u_update() - expected)) < 1e-10

    def test_variants_identical_for_uniform_gamma(self, bank):
        rng = np.random.default_rng(5)
        f = rng.uniform(0, 255, (16, 16)) + 25.5 * rng.standard_normal((16, 16))
        lam = (2.0,) + (1.5,) * 8
        gamma = (4.5,) * 9
        solvers = [
            SplitBregman(
                f,
                DegradationOp.identity(),
                bank,
                SolverConfig(lam=lam, gamma=gamma, u_update=v, tol=1e-30),
            )
            for v in (FULL13, REDUCED17)
        ]
        for _ in range(20):
            us = [sb.u_update() for sb in solvers]
            assert np.max(np.abs(us[0] - us[1])) <= 1e-10
            for sb, u_new in zip(solvers, us):
                sb.advance(u_new)

    def test_reduced_kkt_checks_its_own_operator(self, bank):
        rng = np.random.default_rng(6)
        f = rng.uniform(0, 255, (16, 16))
        sb = SplitBregman(f, DegradationOp.identity(), bank, denoise_cfg())
        for _ in range(4):
            u_new = sb.u_update()
            assert kkt_residual(sb, u_new) <= 1e-8
            sb.advance(u_new)

    def test_both_variants_converge_with_distinguished_gamma(self, bank):
        # gamma_1 != gamma_rest makes the two u-updates genuinely different,
        # yet both drive convergent runs
        rng = np.random.default_rng(14)
        f = rng.uniform(0, 255, (64, 64)) + 25.5 * rng.standard_normal((64, 64))
        first = {}
        for variant in (FULL13, REDUCED17):
            cfg = denoise_cfg(u_update=variant)
            sb = SplitBregman(f, DegradationOp.identity(), bank, cfg)
            first[variant] = sb.u_update()
            res = solve(f, DegradationOp.identity(), bank, cfg)
            assert res.converged and res.trace[-1] <= cfg.tol
        assert np.max(np.abs(first[FULL13] - first[REDUCED17])) > 1e-6

    def test_d_update_components_are_exact_prox_minimizers(self, bank):
        # sample split components from a live run and re-derive each with a
        # grid search over the 1-D prox objective
        rng = np.random.default_rng(15)
        f = rng.uniform(0, 255, (12, 12))
        cfg = denoise_cfg()
        sb = SplitBregman(f, DegradationOp.identity(), bank, cfg)
        sb.step()
        b_prev = sb.b.copy()
        u_new = sb.u_update()
        v = grad(np.stack([conv_circular(u_new, k) for k in bank.kernels])) + b_prev
        sb.advance(u_new)
        d = v - sb.b  # b_new = v - d
        for _ in range(8):
            i = int(rng.integers(0, bank.m))
            c = int(rng.integers(0, 2))
            r = int(rng.integers(0, 12))
            s = int(rng.integers(0, 12))
            target = v[i, c, r, s]
            t = cfg.lam[i] / cfg.gamma[i]
            lo = -abs(target) - 1.0
            grid = np.arange(lo, abs(target) + 1.0001, 1e-4)
            best = grid[np.argmin(t * np.abs(grid) + 0.5 * (grid - target) ** 2)]
            assert abs(d[i, c, r, s] - best) <= 2e-4


class TestSolve:
    def test_constant_clean_input_is_fixed_point(self, bank):
        f = np.full((16, 16), 128.0)
        res = solve(f, DegradationOp.identity(), bank, denoise_cfg())
        assert res.converged
        assert res.iterations <= 2
        assert np.max(np.abs(res.u - f)) < 1e-8

    def test_deterministic_bit_identical(self, bank):
        rng = np.random.default_rng(7)
        f = rng.uniform(0, 255, (24, 24))
        cfg = denoise_cfg(record_trace=True)
        a = solve(f, DegradationOp.identity(), bank, cfg)
        b = solve(f, DegradationOp.identity(), bank, cfg)
        assert np.array_equal(a.u, b.u)
        assert a.trace == b.trace
        assert a.energy_trace == b.energy_trace

    def test_nonfinite_input_raises(self, bank):
        f = np.full((8, 8), 10.0)
        f[3, 3] = np.inf
        with pytest.raises(NonFiniteError):
            solve(f, DegradationOp.identity(), bank, denoise_cfg())

    @pytest.mark.parametrize("case", ["step-nan-numerator", "advance-nan", "advance-inf"])
    def test_divergent_iterate_raises_and_keeps_the_state(self, bank, case):
        rng = np.random.default_rng(9)
        f = rng.uniform(0, 255, (12, 12))
        sb = SplitBregman(f, DegradationOp.identity(), bank, denoise_cfg())
        sb.step()
        if case == "step-nan-numerator":
            sb.numerator[4, 5] = np.nan
            run = sb.step
        else:
            u_new = sb.u_update()
            u_new[4, 5] = np.nan if case == "advance-nan" else np.inf
            run = functools.partial(sb.advance, u_new)
        b, numerator, u = sb.b.copy(), sb.numerator.copy(), sb.u.copy()
        with pytest.raises(NonFiniteError, match="iterate contains NaN or Inf"):
            run()
        assert np.array_equal(sb.b, b) and np.array_equal(sb.u, u)
        assert np.array_equal(sb.numerator, numerator, equal_nan=True)

    def test_trace_contract(self, bank):
        rng = np.random.default_rng(8)
        f = rng.uniform(0, 255, (16, 16))
        res = solve(f, DegradationOp.identity(), bank, denoise_cfg(record_trace=True))
        assert len(res.trace) == res.iterations
        assert len(res.energy_trace) == res.iterations
        assert res.converged == (res.trace[-1] <= 5e-4)
        # exhaust the cap: tiny tolerance cannot be reached in two iterations
        res2 = solve(
            f, DegradationOp.identity(), bank, denoise_cfg(tol=1e-14, max_iter=2)
        )
        assert res2.iterations == 2 and not res2.converged
        res3 = solve(f, DegradationOp.identity(), bank, denoise_cfg())
        assert res3.energy_trace == []

    def test_singular_denominator_propagates(self):
        # a zero-DC observation operator with no lowpass regularization makes
        # the DC bin of the denominator vanish
        psf = np.array([[0.5, 0.0, -0.5]])
        cfg = SolverConfig(lam=(1.0,), gamma=(1.0,), u_update=REDUCED17)
        with pytest.raises(SingularSymbolError):
            solve(np.ones((8, 8)), DegradationOp.blur(psf), identity_bank(), cfg)

    def test_iso_shrinkage_variant_converges(self, bank):
        rng = np.random.default_rng(9)
        f = rng.uniform(0, 255, (16, 16))
        res = solve(
            f,
            DegradationOp.identity(),
            bank,
            denoise_cfg(shrinkage="iso", record_trace=True),
        )
        assert np.isfinite(res.u).all()
        assert res.converged

    def test_rof_reduction_iterates_match_oracle(self):
        rng = np.random.default_rng(10)
        f = np.clip(100 + 40 * rng.standard_normal((16, 16)), 0, 255)
        lam, gamma = 15.0, 5.0
        oracle = rof_iterates(f, lam, gamma, 15)
        cfg = SolverConfig(lam=(lam,), gamma=(gamma,), u_update=FULL13, tol=1e-30)
        sb = SplitBregman(f, DegradationOp.identity(), identity_bank(), cfg)
        for expected in oracle:
            got = sb.u_update()
            assert np.max(np.abs(got - expected)) <= 1e-10
            sb.advance(got)

    def test_small_instance_energy_matches_smoothed_oracle(self):
        base = np.full((8, 8), 100.0)
        base[3:, 2:6] = 160.0
        f = gaussian_noise(base, NoiseSpec(sigma=20.0, seed=11))
        lam, gamma = 12.0, 6.0
        cfg = SolverConfig(
            lam=(lam,), gamma=(gamma,), u_update=FULL13, tol=1e-12, max_iter=6000
        )
        res = solve(f, DegradationOp.identity(), identity_bank(), cfg)
        u_oracle = smoothed_tv_minimizer(f, lam)

        def exact_tv_energy(u):
            gx = np.roll(u, -1, axis=1) - u
            gy = np.roll(u, -1, axis=0) - u
            return lam * (np.abs(gx).sum() + np.abs(gy).sum()) + 0.5 * np.sum((u - f) ** 2)

        e_sb = exact_tv_energy(res.u)
        e_gd = exact_tv_energy(u_oracle)
        assert abs(e_sb - e_gd) / e_gd <= 0.01

    def test_deblur_round_trip_recovers_clean_when_noiseless(self, bank):
        # mild blur, zero noise, nearly-zero regularization on a cartoon
        # image: the exact-KKT variant restores it almost perfectly
        clean = np.full((32, 32), 90.0)
        clean[8:20, 6:26] = 180.0
        clean[22:30, 12:18] = 40.0
        op = DegradationOp.blur(motion_blur_kernel(3))
        blurred = op.apply(clean)
        cfg = SolverConfig.head_rest(
            9, 0.01, 0.005, 0.4, 0.1, u_update=FULL13, tol=1e-8, max_iter=500
        )
        res = solve(blurred, op, bank, cfg)
        assert psnr(clean, res.u) > 55.0


def test_full13_denoise_defaults_land_at_the_gamma_free_minimiser(bank):
    # for full13 the u-update solves the exact normal equations, so gamma
    # sets only how fast split Bregman converges, not where it converges to
    defaults = cli.TASK_DEFAULTS[("denoise", FULL13)]
    f = gaussian_noise(make_phantom(64), NoiseSpec(sigma=defaults["sigma"], seed=2))
    op = DegradationOp.identity()

    def run(gamma1, gamma_rest, tol):
        cfg = SolverConfig.head_rest(
            9, defaults["lambda1"], defaults["lambda_rest"], gamma1, gamma_rest,
            u_update=FULL13, tol=tol, max_iter=2000,
        )
        res = solve(f, op, bank, cfg)
        assert res.converged
        return res.u

    def distance(u, v):
        return np.linalg.norm(u - v) / np.linalg.norm(v)

    minimiser = run(2.0, 1.0, 1e-9)
    assert distance(run(8.0, 4.0, 1e-9), minimiser) < 1e-6
    at_defaults = run(defaults["gamma1"], defaults["gamma_rest"], defaults["tol"])
    assert distance(at_defaults, minimiser) < 1e-3


def reference_split_bregman(f, op, bank, cfg, n_iter):
    """The split Bregman loop written out from the roll-based primitives.

    Shrinkage, denominators and the FFT solve are inline, so nothing is
    shared with the solver's fused stencil.  Returns ``(u, rel)`` per
    iteration and stops early, like :func:`solve`, once ``rel <= cfg.tol``.
    """
    shape = f.shape
    gamma = np.asarray(cfg.gamma)
    thresholds = np.asarray(cfg.lam) / gamma
    laplace = sum(np.abs(kernel_symbol(k, shape)) ** 2 for k in (FORWARD_DIFF_X, FORWARD_DIFF_Y))
    gram = 1.0 if op.psf is None else np.abs(kernel_symbol(op.psf, shape)) ** 2
    if cfg.u_update == FULL13:
        frame = sum(g * np.abs(kernel_symbol(k, shape)) ** 2 for g, k in zip(gamma, bank.kernels))
        denom = gram + laplace * frame
    else:
        denom = gram + gamma[0] * laplace
    atf = op.adjoint(f)
    u = f.copy()
    d = np.zeros((bank.m, 2) + shape)
    b = np.zeros_like(d)
    steps = []
    for _ in range(n_iter):
        num = atf.copy()
        for i, k in enumerate(bank.kernels):
            num += gamma[i] * conv_adjoint(grad_adjoint(d[i] - b[i]), k)
        u_new = np.real(np.fft.ifft2(np.fft.fft2(num) / denom))
        v = grad(analyze(u_new, bank)) + b
        if cfg.shrinkage == ANISO:
            t = thresholds[:, None, None, None]
            d = np.sign(v) * np.maximum(np.abs(v) - t, 0.0)
        else:
            mag = np.sqrt((v * v).sum(axis=1))
            scale = np.maximum(mag - thresholds[:, None, None], 0.0) / np.where(mag > 0, mag, 1.0)
            d = v * scale[:, None]
        b = v - d
        rel = np.linalg.norm(u_new - u) / max(np.linalg.norm(u), 1e-12)
        u = u_new
        steps.append((u, rel))
        if rel <= cfg.tol:
            break
    return steps


class TestFusedTrajectory:
    @pytest.mark.parametrize("shrinkage", [ANISO, ISO])
    @pytest.mark.parametrize("variant", [FULL13, REDUCED17])
    def test_matches_reference_loop(self, bank, variant, shrinkage):
        rng = np.random.default_rng(16)
        f = rng.uniform(0, 255, (20, 17)) + 25.5 * rng.standard_normal((20, 17))
        op = DegradationOp.blur(motion_blur_kernel(3))
        cfg = denoise_cfg(u_update=variant, shrinkage=shrinkage, tol=1e-30)
        sb = SplitBregman(f, op, bank, cfg)
        for expected, expected_rel in reference_split_bregman(f, op, bank, cfg, 15):
            num_before, b_before = sb.numerator.copy(), sb.b.copy()
            first = sb.u_update()
            second = sb.u_update()
            # a fresh array each call; b and the numerator untouched
            assert not np.shares_memory(first, second)
            assert not any(np.shares_memory(first, a) for a in (sb.u, sb.numerator, sb.b))
            assert np.array_equal(first, second)
            assert np.array_equal(sb.numerator, num_before)
            assert np.array_equal(sb.b, b_before)
            assert np.max(np.abs(first - expected)) <= 1e-10
            assert abs(sb.advance(first) - expected_rel) <= 1e-10

    @pytest.mark.parametrize("shrinkage", [ANISO, ISO])
    @pytest.mark.parametrize("variant", [FULL13, REDUCED17])
    def test_solve_takes_the_reference_iteration_count(self, bank, variant, shrinkage):
        rng = np.random.default_rng(17)
        f = rng.uniform(0, 255, (24, 24)) + 25.5 * rng.standard_normal((24, 24))
        op = DegradationOp.identity()
        cfg = denoise_cfg(u_update=variant, shrinkage=shrinkage, tol=1e-3, max_iter=150)
        steps = reference_split_bregman(f, op, bank, cfg, cfg.max_iter)
        res = solve(f, op, bank, cfg)
        assert res.iterations == len(steps) < cfg.max_iter
        assert np.max(np.abs(res.u - steps[-1][0])) <= 1e-10

    @pytest.mark.parametrize("shrinkage", [ANISO, ISO])
    @pytest.mark.parametrize("blur", [None, 3], ids=["identity", "blur3"])
    def test_energy_trace_is_energy_of_every_iterate(self, bank, monkeypatch, blur, shrinkage):
        # the trace's TV part is summed inside the sweep; it must be the same
        # float energy() computes from the iterate, block for block
        monkeypatch.setattr(frames, "BLOCK_PIXELS", 60)  # blocks of 3 rows
        rng = np.random.default_rng(19)
        f = rng.uniform(0, 255, (20, 17)) + 25.5 * rng.standard_normal((20, 17))
        op = DegradationOp.identity() if blur is None else DegradationOp.blur(motion_blur_kernel(blur))
        cfg = denoise_cfg(shrinkage=shrinkage, tol=1e-30, max_iter=12, record_trace=True)
        res = solve(f, op, bank, cfg)
        sb = SplitBregman(f, op, bank, cfg)
        for expected in res.energy_trace:
            sb.step()
            assert energy(sb.u, f, op, bank, cfg) == expected
        assert len(res.energy_trace) == 12


class TestTraceCsv:
    def test_format_and_precision(self, bank, tmp_path):
        rng = np.random.default_rng(13)
        f = rng.uniform(0, 255, (16, 16))
        res = solve(f, DegradationOp.identity(), bank, denoise_cfg(record_trace=True))
        path = tmp_path / "trace.csv"
        write_trace_csv(path, res)
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,rel_err,energy"
        assert len(lines) == 1 + res.iterations
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert float(first[1]) == res.trace[0]  # 17 significant digits round-trip
        assert float(first[2]) == res.energy_trace[0]

    def test_trace_without_energies_is_refused(self, bank, tmp_path):
        f = np.full((8, 8), 1.0)
        res = solve(f, DegradationOp.identity(), bank, denoise_cfg())
        with pytest.raises(ValueError):
            write_trace_csv(tmp_path / "trace.csv", res)
        assert list(tmp_path.iterdir()) == []


def cli_default_problem(variant, blur, size=64, seed=4, **kw):
    """``(f, op, cfg)``: the CLI's defaults for denoise (no blur) or deblur."""
    task = "denoise" if blur is None else "deblur"
    defaults = cli.TASK_DEFAULTS[(task, variant)]
    op = DegradationOp.identity() if blur is None else DegradationOp.blur(motion_blur_kernel(blur))
    f = gaussian_noise(op.apply(make_phantom(size)), NoiseSpec(sigma=defaults["sigma"], seed=seed))
    cfg = SolverConfig.head_rest(
        9, defaults["lambda1"], defaults["lambda_rest"], defaults["gamma1"],
        defaults["gamma_rest"], tol=defaults["tol"], u_update=variant, **kw,
    )
    return f, op, cfg


class TestSinglePrecision:
    """A float32 splitting state next to the float64 one.

    Stated tolerances, each a few times the largest value measured over 20
    seeds of these 64x64 problems (all eight combinations): ``max |du|`` is
    below 1e-4 grey levels (measured 2.4e-5), the trace energies agree to a
    relative 1e-6 (6.0e-8) and ``rel_err`` to a relative 1e-3 (5.0e-5).
    """

    @pytest.mark.parametrize("blur", [None, 9], ids=["identity", "blur9"])
    @pytest.mark.parametrize("shrinkage", [ANISO, ISO])
    @pytest.mark.parametrize("variant", [FULL13, REDUCED17])
    def test_cli_defaults_take_the_same_iterations_as_double(self, bank, variant, shrinkage, blur):
        f, op, cfg = cli_default_problem(variant, blur, shrinkage=shrinkage, record_trace=True)
        double = solve(f, op, bank, cfg)
        cfg.precision = SINGLE
        single = solve(f, op, bank, cfg)
        assert (double.precision, single.precision) == (DOUBLE, SINGLE)
        assert single.converged and single.iterations == double.iterations
        assert single.u.dtype == np.float64
        assert np.max(np.abs(single.u - double.u)) < 1e-4
        assert np.allclose(single.energy_trace, double.energy_trace, rtol=1e-6, atol=0)
        assert np.allclose(single.trace, double.trace, rtol=1e-3, atol=0)

    def test_state_is_float32_with_half_the_bytes(self, bank):
        f, op, cfg = cli_default_problem(REDUCED17, 9)
        double = SplitBregman(f, op, bank, cfg)
        single = SplitBregman(f, op, bank, dataclasses.replace(cfg, precision=SINGLE))
        assert single.precision == SINGLE and double.precision == DOUBLE
        assert single.b.dtype == np.float32 and double.b.dtype == np.float64
        assert 2 * single.b.nbytes == double.b.nbytes
        single.step()
        assert single.b.dtype == np.float32
        assert single.u.dtype == single.numerator.dtype == np.float64

    def test_unknown_precision_is_a_config_error(self):
        with pytest.raises(ConfigError):
            SolverConfig(lam=(1.0,), gamma=(1.0,), precision="half")

    def test_observation_past_the_bound_runs_at_double(self, bank):
        f, op, cfg = cli_default_problem(REDUCED17, None, precision=SINGLE)
        res = solve(f * 1e298, op, bank, dataclasses.replace(cfg, max_iter=2))
        assert res.precision == DOUBLE
        assert np.isfinite(res.u).all()

    def test_gamma_past_the_bound_runs_at_double(self, bank):
        f, op, cfg = cli_default_problem(FULL13, None, precision=SINGLE)
        gamma = 2 * SINGLE_BOUND / np.abs(bank.frame_gradient.taps).max()
        cfg = SolverConfig.head_rest(9, 0.2, 0.2, gamma, gamma, u_update=FULL13, precision=SINGLE)
        sb = SplitBregman(f, op, bank, cfg)
        assert sb.precision == DOUBLE and sb.b.dtype == np.float64
        sb.step()

    def test_observation_just_inside_the_bound_stays_single_and_finite(self, bank):
        f, op, cfg = cli_default_problem(REDUCED17, 9, precision=SINGLE)
        scaled = f * (0.5 * SINGLE_BOUND / np.abs(f).max())
        sb = SplitBregman(scaled, op, bank, cfg)
        assert sb.precision == SINGLE
        for _ in range(5):
            assert np.isfinite(sb.step())
        assert np.isfinite(sb.b).all()

    @pytest.mark.parametrize("near", ["tap", "threshold", "all"])
    def test_values_just_inside_the_bound_stay_single_and_finite_on_two_workers(self, bank, near):
        # at 0.99 of the bound, a gamma-weighted tap, a threshold or these
        # and the observation stay single, and every float32 value of the
        # solve, the adjoint's sums included, stays finite on both threads
        f, op, cfg = cli_default_problem(REDUCED17, 9, size=256, precision=SINGLE, workers=2)
        edge = 0.99 * SINGLE_BOUND
        lam, gamma = np.array(cfg.lam), np.array(cfg.gamma)
        if near == "all":
            f = f * (edge / np.abs(f).max())
        if near in ("tap", "all"):
            gamma *= edge / (gamma.max() * np.abs(bank.frame_gradient.taps).max())
        if near in ("threshold", "all"):
            lam *= edge / (lam / gamma).max()
        sb = SplitBregman(f, op, bank, dataclasses.replace(cfg, lam=lam, gamma=gamma))
        assert sb.precision == SINGLE and sb._sweep.workers == 2
        try:
            for _ in range(5):
                assert np.isfinite(sb.step())
        finally:
            sb.close()
        assert np.isfinite(sb.b).all() and np.isfinite(sb.u).all()

    def test_the_float32_adjoint_of_a_field_at_the_bound_is_finite(self, bank):
        # the worst case of SINGLE_BOUND's margin: gamma-weighted taps and a
        # field of d - b both at 0.99 of the bound, so that each of a block's
        # 16 planes sums 18 products near 1e30 and the float32 sum adds 16
        # planes, on two sweep threads
        stencil = bank.frame_gradient
        edge = 0.99 * SINGLE_BOUND
        gamma = np.full(bank.m, edge / np.abs(stencil.taps).max())
        shape = (37, 1024)
        signs = np.random.default_rng(36).choice([-1.0, 1.0], (bank.m, 2) + shape)
        field = (edge * signs).astype(np.float32)
        with frames.Sweep(stencil, shape, gamma, np.float32, workers=2) as sweep:
            assert sweep.workers == 2
            sweep.run(lambda rows, g, add: add(field[:, :, rows]))
        got = sweep.fold()
        expected = stencil.adjoint(gamma[:, None, None, None] * field.astype(np.float64))
        assert np.isfinite(got).all()
        assert np.max(np.abs(got - expected)) <= 1e-5 * np.abs(expected).max()
