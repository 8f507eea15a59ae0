"""Built-in invariant checks behind ``vtv-restore selftest``.

Each check recomputes its expectation through an independent path (dot
products, grid search, the classical TV split Bregman loop of
:func:`rof_iterates`) rather than trusting the code under test.
"""

from __future__ import annotations

import numpy as np

from .diffops import grad, grad_adjoint, shrink
from .frames import FilterBank, analyze, bspline_bank, identity_bank, synthesize_adjoint, verify_uep
from .image import conv_adjoint, conv_circular
from .solver import FULL13, DegradationOp, SolverConfig, SplitBregman


def _check_uep(bank: FilterBank):
    dev = max(verify_uep(bank, n, n) for n in (4, 16, 64))
    return dev < 1e-12, f"max deviation {dev:.3e}"


def _trial_sizes(rng, count):
    """Random grid sizes, always touching the 4x4 boundary case first."""
    yield 4, 4
    for _ in range(count - 1):
        h, w = rng.integers(4, 33, size=2)
        yield int(h), int(w)


def _check_adjoint(rng, channels, forward, adjoint, draw=tuple):
    """Dot-product test ``<A u, g> == <u, A* g>`` on random grid sizes.

    ``g`` has shape ``(*channels, h, w)``.  ``draw()`` is called once per
    trial, after ``u`` and ``g`` are drawn, for extra arguments that both
    ``forward`` and ``adjoint`` take (a random kernel, say).
    """
    worst = 0.0
    for h, w in _trial_sizes(rng, 25):
        u = rng.standard_normal((h, w))
        g = rng.standard_normal((*channels, h, w))
        extra = draw()
        lhs = float(np.sum(forward(u, *extra) * g))
        rhs = float(np.sum(u * adjoint(g, *extra)))
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    return worst <= 1e-10, f"worst relative error {worst:.3e}"


def _check_prox(rng):
    grid = np.arange(-4.0, 4.0001, 1e-4)
    worst = 0.0
    for _ in range(100):
        v = float(rng.uniform(-3, 3))
        t = float(rng.uniform(0, 2))
        best = grid[np.argmin(t * np.abs(grid) + 0.5 * (grid - v) ** 2)]
        worst = max(worst, abs(float(shrink(np.array(v), t)) - best))
    return worst <= 2e-4, f"worst deviation from grid search {worst:.3e}"


def rof_iterates(f, lam, gamma, n_iter) -> list:
    """Classical single-channel TV split Bregman: its first ``n_iter`` iterates.

    Coded independently, with analytic difference symbols and inline updates.
    """
    f = np.asarray(f, dtype=np.float64)
    h, w = f.shape
    wy = (2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(h) / h))[:, None]
    wx = (2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(w) / w))[None, :]
    denom = 1.0 + gamma * (wy + wx)
    dx = np.zeros_like(f)
    dy = np.zeros_like(f)
    bx = np.zeros_like(f)
    by = np.zeros_like(f)
    steps = []
    for _ in range(n_iter):
        tx, ty = dx - bx, dy - by
        rhs = f + gamma * (
            (np.roll(tx, 1, axis=1) - tx) + (np.roll(ty, 1, axis=0) - ty)
        )
        u = np.real(np.fft.ifft2(np.fft.fft2(rhs) / denom))
        gx = np.roll(u, -1, axis=1) - u
        gy = np.roll(u, -1, axis=0) - u
        vx, vy = gx + bx, gy + by
        dx = np.sign(vx) * np.maximum(np.abs(vx) - lam / gamma, 0.0)
        dy = np.sign(vy) * np.maximum(np.abs(vy) - lam / gamma, 0.0)
        bx, by = vx - dx, vy - dy
        steps.append(u.copy())
    return steps


def _check_rof_reduction(rng):
    """Solver with a single identity kernel vs :func:`rof_iterates`."""
    f = np.clip(100.0 + 40.0 * rng.standard_normal((16, 16)), 0, 255)
    lam, gamma, n_iter = 15.0, 5.0, 12
    oracle = rof_iterates(f, lam, gamma, n_iter)
    cfg = SolverConfig(lam=(lam,), gamma=(gamma,), u_update=FULL13, tol=1e-30)
    sb = SplitBregman(f, DegradationOp.identity(), identity_bank(), cfg)
    worst = 0.0
    for expected in oracle:
        worst = max(worst, float(np.max(np.abs(sb.u_update() - expected))))
        sb.advance(expected)  # keep both loops on the identical trajectory
    return worst <= 1e-10, f"worst per-iterate deviation {worst:.3e}"


def run_selftest(perturb_bank: bool = False) -> bool:
    """Run all checks, print one PASS/FAIL line each, return overall success.

    ``perturb_bank`` doubles the first kernel, a negative control that must
    make the tight-frame check fail.
    """
    bank = bspline_bank()
    if perturb_bank:
        kernels = (bank.kernels[0] * 2.0,) + bank.kernels[1:]
        bank = FilterBank(kernels)
    rng = np.random.default_rng(20240915)

    checks = [
        ("uep-identity", lambda: _check_uep(bank)),
        ("adjoint-conv", lambda: _check_adjoint(
            rng, (), conv_circular, conv_adjoint, draw=lambda: (rng.standard_normal((3, 3)),)
        )),
        ("adjoint-frame", lambda: _check_adjoint(
            rng, (bank.m,), lambda u: analyze(u, bank), lambda g: synthesize_adjoint(g, bank)
        )),
        ("adjoint-grad", lambda: _check_adjoint(rng, (2,), grad, grad_adjoint)),
        ("prox-oracle", lambda: _check_prox(rng)),
        ("rof-reduction", lambda: _check_rof_reduction(rng)),
        # the fused stencil the solver iterates with
        ("adjoint-stencil", lambda: _check_adjoint(
            rng, (bank.m, 2), bank.frame_gradient.apply, bank.frame_gradient.adjoint
        )),
    ]
    all_ok = True
    for name, fn in checks:
        ok, detail = fn()
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'} {name} ({detail})")
    return all_ok
