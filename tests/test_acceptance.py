"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
Criteria 8-11 use the deterministic stand-in phantom from conftest with
fixed seeds; the deblurring runs use the corrected working-strength
parameter mapping that is also the CLI's deblur default.
"""

import time

import numpy as np
import pytest

from vtvrestore import (
    DOUBLE,
    FULL13,
    REDUCED17,
    DegradationOp,
    NoiseSpec,
    SolverConfig,
    SplitBregman,
    analyze,
    conv_adjoint,
    conv_circular,
    gaussian_noise,
    grad,
    grad_adjoint,
    identity_bank,
    motion_blur_kernel,
    psnr,
    quantize,
    shrink,
    solve,
    synthesize_adjoint,
    verify_uep,
)
from vtvrestore.selftest import rof_iterates

from conftest import kkt_residual, make_phantom, smoothed_tv_minimizer

DENOISE_SIGMA = 25.5
DENOISE_SEED = 7
DEBLUR_SIGMA = 5.0
DEBLUR_SEED = 7

#: Working restoration parameter sets (the CLI defaults for each task).
DENOISE_REDUCED = dict(lam=(2.0, 1.5), gamma=(12.0, 4.5), tol=5e-4)
DEBLUR_REDUCED = dict(lam=(1.02, 0.51), gamma=(0.4, 0.1), tol=5e-4)
DEBLUR_FULL = dict(lam=(1.53, 1.02), gamma=(0.4, 0.1), tol=5e-4)


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def head_rest_cfg(params, variant, **kw):
    return SolverConfig.head_rest(
        9, params["lam"][0], params["lam"][1], params["gamma"][0],
        params["gamma"][1], tol=params["tol"], u_update=variant, **kw,
    )


@pytest.fixture(scope="module")
def noisy(phantom256):
    return gaussian_noise(phantom256, NoiseSpec(DENOISE_SIGMA, DENOISE_SEED))


@pytest.fixture(scope="module")
def denoise_result(bank, noisy):
    cfg = head_rest_cfg(DENOISE_REDUCED, REDUCED17, record_trace=True)
    start = time.perf_counter()
    res = solve(noisy, DegradationOp.identity(), bank, cfg)
    res.seconds = time.perf_counter() - start
    return res


@pytest.fixture(scope="module")
def blurry(phantom256):
    op = DegradationOp.blur(motion_blur_kernel(9))
    return gaussian_noise(op.apply(phantom256), NoiseSpec(DEBLUR_SIGMA, DEBLUR_SEED))


@pytest.fixture(scope="module")
def deblur_results(bank, blurry):
    op = DegradationOp.blur(motion_blur_kernel(9))
    out = {}
    for variant, params in ((REDUCED17, DEBLUR_REDUCED), (FULL13, DEBLUR_FULL)):
        cfg = head_rest_cfg(params, variant, record_trace=True)
        start = time.perf_counter()
        res = solve(blurry, op, bank, cfg)
        res.seconds = time.perf_counter() - start
        out[variant] = res
    return out


def test_criterion_1_uep_identity(bank):
    start = time.perf_counter()
    devs = {n: verify_uep(bank, n, n) for n in (16, 64, 256)}
    elapsed = time.perf_counter() - start
    worst = max(devs.values())
    report(
        1,
        worst < 1e-12 and elapsed < 1.0,
        f"UEP deviation {worst:.3e} at sizes 16/64/256 in {elapsed:.3f} s",
    )


def test_criterion_2_adjoint_correctness(bank):
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        h, w = rng.integers(4, 33, size=2)
        u = rng.standard_normal((h, w))
        v = rng.standard_normal((h, w))
        k = rng.standard_normal((3, 3))
        lhs = float(np.sum(conv_circular(u, k) * v))
        rhs = float(np.sum(u * conv_adjoint(v, k)))
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    for _ in range(100):
        h, w = rng.integers(4, 33, size=2)
        u = rng.standard_normal((h, w))
        g = rng.standard_normal((bank.m, h, w))
        lhs = float(np.sum(analyze(u, bank) * g))
        rhs = float(np.sum(u * synthesize_adjoint(g, bank)))
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    for _ in range(100):
        h, w = rng.integers(4, 33, size=2)
        u = rng.standard_normal((h, w))
        p = rng.standard_normal((2, h, w))
        lhs = float(np.sum(grad(u) * p))
        rhs = float(np.sum(u * grad_adjoint(p)))
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    elapsed = time.perf_counter() - start
    report(
        2,
        worst <= 1e-10 and elapsed < 5.0,
        f"300 adjoint dot tests, worst rel err {worst:.3e} in {elapsed:.2f} s",
    )


def test_criterion_3_perfect_reconstruction(bank):
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        h, w = rng.integers(4, 65, size=2)
        u = rng.uniform(0.0, 1.0, (h, w))
        rec = synthesize_adjoint(analyze(u, bank), bank)
        worst = max(worst, float(np.max(np.abs(rec - u))))
    report(3, worst < 1e-12, f"50 reconstructions, max abs diff {worst:.3e}")


def test_criterion_4_prox_exactness():
    rng = np.random.default_rng(4)
    grid = np.arange(-4.0, 4.0001, 1e-4)
    worst = 0.0
    for _ in range(1000):
        v = float(rng.uniform(-3, 3))
        t = float(rng.uniform(0, 2))
        best = grid[np.argmin(t * np.abs(grid) + 0.5 * (grid - v) ** 2)]
        worst = max(worst, abs(float(shrink(np.array(v), t)) - best))
    report(4, worst <= 2e-4, f"1000 shrink cases vs grid search, worst {worst:.3e}")


def test_criterion_5_u_update_exactness(bank, phantom256):
    f = gaussian_noise(phantom256[:64, :64], NoiseSpec(DENOISE_SIGMA, 11))
    cfg = SolverConfig.head_rest(9, 0.2, 0.2, 8.0, 4.0, tol=1e-4, u_update=FULL13)
    sb = SplitBregman(f, DegradationOp.identity(), bank, cfg)
    worst = 0.0
    for _ in range(30):
        u_new = sb.u_update()
        worst = max(worst, kkt_residual(sb, u_new))
        rel = sb.advance(u_new)
        if rel <= cfg.tol:
            break
    report(5, worst <= 1e-8, f"KKT residual over a 64x64 denoising run: {worst:.3e}")


def test_criterion_6_rof_reduction():
    rng = np.random.default_rng(6)
    f = np.clip(100.0 + 40.0 * rng.standard_normal((32, 32)), 0, 255)
    lam, gamma = 15.0, 5.0
    oracle = rof_iterates(f, lam, gamma, 30)
    cfg = SolverConfig(lam=(lam,), gamma=(gamma,), u_update=FULL13, tol=1e-30, precision=DOUBLE)
    sb = SplitBregman(f, DegradationOp.identity(), identity_bank(), cfg)
    worst = 0.0
    for expected in oracle:
        got = sb.u_update()
        worst = max(worst, float(np.max(np.abs(got - expected))))
        sb.advance(got)

    base = np.full((8, 8), 100.0)
    base[3:, 2:6] = 160.0
    f8 = gaussian_noise(base, NoiseSpec(20.0, 12))
    lam8 = 12.0
    cfg8 = SolverConfig(
        lam=(lam8,), gamma=(6.0,), u_update=FULL13, tol=1e-12, max_iter=6000, precision=DOUBLE
    )
    res = solve(f8, DegradationOp.identity(), identity_bank(), cfg8)
    u_oracle = smoothed_tv_minimizer(f8, lam8)

    def exact_energy(u):
        gx = np.roll(u, -1, axis=1) - u
        gy = np.roll(u, -1, axis=0) - u
        return lam8 * (np.abs(gx).sum() + np.abs(gy).sum()) + 0.5 * np.sum((u - f8) ** 2)

    rel_gap = abs(exact_energy(res.u) - exact_energy(u_oracle)) / exact_energy(u_oracle)
    report(
        6,
        worst <= 1e-10 and rel_gap <= 0.01,
        f"32x32 iterate match {worst:.3e}; 8x8 energy gap {rel_gap:.3e} vs smoothed-TV oracle",
    )


def test_criterion_7_variant_equivalence(bank, phantom256):
    f = gaussian_noise(phantom256[:64, :64], NoiseSpec(DENOISE_SIGMA, 13))
    solvers = [
        SplitBregman(
            f,
            DegradationOp.identity(),
            bank,
            SolverConfig.head_rest(9, 2.0, 1.5, 4.5, 4.5, tol=1e-30, u_update=v),
        )
        for v in (FULL13, REDUCED17)
    ]
    worst = 0.0
    for _ in range(25):
        us = [sb.u_update() for sb in solvers]
        worst = max(worst, float(np.max(np.abs(us[0] - us[1]))))
        for sb, u_new in zip(solvers, us):
            sb.advance(u_new)
    report(7, worst <= 1e-10, f"uniform-gamma iterate gap over 25 iterations: {worst:.3e}")


def test_criterion_8_denoising_corridor(phantom256, noisy, denoise_result):
    noisy_psnr = psnr(phantom256, noisy)
    restored_psnr = psnr(phantom256, denoise_result.u)
    gain = restored_psnr - noisy_psnr
    ok = (
        abs(noisy_psnr - 20.0) <= 0.2
        and gain >= 6.0
        and denoise_result.converged
        and denoise_result.iterations <= 200
        and denoise_result.trace[-1] <= 5e-4
        and denoise_result.seconds <= 60.0
    )
    report(
        8,
        ok,
        f"noisy {noisy_psnr:.2f} dB, restored {restored_psnr:.2f} dB "
        f"(gain {gain:.2f}), {denoise_result.iterations} iters, "
        f"{denoise_result.seconds:.1f} s",
    )


def test_criterion_9_deblurring_corridor(phantom256, blurry, deblur_results):
    blurry_psnr = psnr(phantom256, blurry)
    reduced = deblur_results[REDUCED17]
    full = deblur_results[FULL13]
    psnr_reduced = psnr(phantom256, reduced.u)
    psnr_full = psnr(phantom256, full.u)
    gain = psnr_reduced - blurry_psnr
    gap = abs(psnr_full - psnr_reduced)
    ok = (
        gain >= 2.0
        and gap < 1.0
        and reduced.converged
        and full.converged
        and reduced.seconds <= 60.0
        and full.seconds <= 60.0
    )
    report(
        9,
        ok,
        f"blurry {blurry_psnr:.2f} dB, reduced17 {psnr_reduced:.2f} "
        f"(gain {gain:.2f}), full13 {psnr_full:.2f} (variant gap {gap:.2f} dB), "
        f"{reduced.seconds + full.seconds:.1f} s total",
    )


def test_criterion_10_trace_behavior(denoise_result, deblur_results):
    worst_ratio = 0.0
    for res in (denoise_result, *deblur_results.values()):
        trace = res.trace
        for j in range(3, len(trace)):
            worst_ratio = max(worst_ratio, trace[j] / trace[j - 1])
        assert trace[-1] <= 5e-4
    report(
        10,
        worst_ratio <= 1.10,
        f"worst consecutive rel-err ratio after burn-in: {worst_ratio:.3f}",
    )


def test_criterion_11_determinism(bank, phantom256, noisy, denoise_result):
    noisy_again = gaussian_noise(phantom256, NoiseSpec(DENOISE_SIGMA, DENOISE_SEED))
    cfg = head_rest_cfg(DENOISE_REDUCED, REDUCED17, record_trace=True)
    rerun = solve(noisy_again, DegradationOp.identity(), bank, cfg)
    ok = (
        np.array_equal(noisy_again, noisy)
        and np.array_equal(rerun.u, denoise_result.u)
        and rerun.trace == denoise_result.trace
        and rerun.energy_trace == denoise_result.energy_trace
    )
    report(11, ok, "repeated run is bit-identical (noise field, iterates, traces)")


#: The paper's claim, checked on an input neither model was tuned on: each
#: model runs at the fixed ``lambda`` it scored best at on the 192x192 (seed
#: 3) and 160x160 (seed 5) phantoms (ROADMAP item 6), near its minimiser,
#: where ``gamma`` (10 for TV, the CLI's ``full13`` denoise defaults for VTV)
#: only sets how fast it gets there.
CLAIM_SIZE = 128
CLAIM_SEED = 7
CLAIM_TOL = 1e-5


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="plain TV wins on the 128x128 phantom, seed 7, sigma 25.5: "
    "TV at lambda 20 scores 30.37 dB, VTV full13 at (6, 4.5) 29.27 dB",
)
def test_vtv_beats_tv_at_each_models_best_fixed_lambda(bank):
    clean = make_phantom(CLAIM_SIZE)
    noisy = gaussian_noise(clean, NoiseSpec(DENOISE_SIGMA, CLAIM_SEED))
    tv_cfg = SolverConfig(lam=(20.0,), gamma=(10.0,), tol=CLAIM_TOL, max_iter=3000)
    vtv_cfg = SolverConfig.head_rest(
        bank.m, 6.0, 4.5, 0.5, 0.25, tol=CLAIM_TOL, max_iter=3000, u_update=FULL13
    )
    tv = solve(noisy, DegradationOp.identity(), identity_bank(), tv_cfg)
    vtv = solve(noisy, DegradationOp.identity(), bank, vtv_cfg)
    assert tv.converged and vtv.converged
    tv_db, vtv_db = psnr(clean, tv.u), psnr(clean, vtv.u)
    report("VTV > TV", vtv_db > tv_db, f"VTV {vtv_db:.2f} dB against TV {tv_db:.2f} dB")


#: The width of the left and right border bands of a boundary check.
BORDER = 12


def reflect_blur(clean, kernel):
    """``clean`` blurred with reflected borders, as a camera sees a scene that
    goes on past the frame: the circular blur of a reflect-padded copy,
    cropped back to ``clean``'s grid."""
    ph, pw = (n // 2 for n in kernel.shape)
    padded = np.pad(clean, ((ph, ph), (pw, pw)), mode="reflect")
    h, w = clean.shape
    return DegradationOp.blur(kernel).apply(padded)[ph : ph + h, pw : pw + w]


@pytest.fixture(scope="module")
def ramped(phantom256):
    """The phantom at 0.7 plus a 70-level horizontal ramp, so that its left
    and right edges differ and a circular blur wraps across a false edge."""
    return 0.7 * phantom256 + np.linspace(0.0, 70.0, phantom256.shape[1])


@pytest.fixture(scope="module")
def reflect_deblur(bank, ramped):
    """PSNR of the CLI's reduced17 deblur of reflect-boundary data: the
    left/right border bands and the interior, each against ``ramped``."""
    kernel = motion_blur_kernel(9)
    observed = gaussian_noise(reflect_blur(ramped, kernel), NoiseSpec(DEBLUR_SIGMA, DEBLUR_SEED))
    result = solve(observed, DegradationOp.blur(kernel), bank,
                   head_rest_cfg(DEBLUR_REDUCED, REDUCED17))
    assert result.converged
    restored = quantize(result.u).astype(np.float64)
    band = np.r_[:BORDER, -BORDER:0]
    inner = slice(BORDER, -BORDER)
    return psnr(ramped[:, band], restored[:, band]), psnr(ramped[:, inner], restored[:, inner])


def test_reflect_blur_differs_from_the_circular_blur_only_at_the_border(ramped):
    kernel = motion_blur_kernel(9)
    gap = np.abs(reflect_blur(ramped, kernel) - DegradationOp.blur(kernel).apply(ramped))
    assert gap[:, 4:-4].max() < 1e-9
    assert gap[:, :4].min() > 1.0 and gap[:, -4:].min() > 1.0


def test_reflect_boundary_deblur_interior_meets_the_corridor(reflect_deblur):
    _, inner_db = reflect_deblur
    report("9 (reflect-boundary interior)", inner_db >= 29.0, f"interior {inner_db:.2f} dB")


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the solver's blur is circular, so on reflect-boundary data the "
    "12-column border bands of a 256x256 deblur score 24.0 dB against 30.6 dB "
    "inside (ROADMAP item 9)",
)
def test_reflect_boundary_deblur_border_scores_within_one_db_of_the_interior(reflect_deblur):
    band_db, inner_db = reflect_deblur
    report("border", band_db >= inner_db - 1.0,
           f"border bands {band_db:.2f} dB against {inner_db:.2f} dB inside")
