"""Command-line harness: degradation synthesis, restoration runs, metrics.

Exit codes: 0 success, 1 usage or I/O error, 2 the solver hit the iteration
cap without converging, 3 a selftest check failed.  In a batch, an image
that fails gets its own error line, the other images still run and print
their rows, and the exit code is 1.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from multiprocessing import Pool
from pathlib import Path

import numpy as np

from . import __version__
from .degrade import RNG_DESCRIPTION, NoiseSpec, apply_degradation, motion_blur_kernel
from .errors import ConfigError, VTVError
from .fileio import quantize, read_image, write_pgm, write_trace_csv
from .frames import analyze, bspline_bank
from .image import psnr
from .selftest import run_selftest
from .solver import ANISO, FULL13, ISO, REDUCED17, DegradationOp, SolverConfig, solve

#: Restoration defaults per (task, variant); flags and config files override.
TASK_DEFAULTS = {
    ("denoise", "reduced17"): {
        "lambda1": 2.0, "lambda_rest": 1.5, "gamma1": 12.0, "gamma_rest": 4.5, "tol": 5e-4,
    },
    ("denoise", "full13"): {
        "lambda1": 0.2, "lambda_rest": 0.2, "gamma1": 8.0, "gamma_rest": 4.0, "tol": 1e-4,
    },
    ("deblur", "reduced17"): {
        "lambda1": 1.02, "lambda_rest": 0.51, "gamma1": 0.4, "gamma_rest": 0.1, "tol": 5e-4,
    },
    ("deblur", "full13"): {
        "lambda1": 1.53, "lambda_rest": 1.02, "gamma1": 0.4, "gamma_rest": 0.1, "tol": 5e-4,
    },
}

_SIGMA_DEFAULT = {"denoise": 25.5, "deblur": 5.0}

_SETTING_KEYS = (
    "input", "ref", "out", "variant", "lambda1", "lambda_rest", "gamma1",
    "gamma_rest", "tol", "max_iter", "sigma", "blur_len", "seed", "trace",
    "dump_features", "jobs", "shrinkage",
)


#: Numeric settings and their types; config-file values are checked against them.
_NUMERIC_KEYS = {
    "lambda1": float, "lambda_rest": float, "gamma1": float, "gamma_rest": float,
    "tol": float, "sigma": float, "max_iter": int, "blur_len": int, "seed": int,
    "jobs": int,
}


#: Settings with a fixed set of values; the flags offer the same choices.
_CHOICE_KEYS = {"variant": (FULL13, REDUCED17), "shrinkage": (ANISO, ISO)}


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit code 1)."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vtv-restore", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="task", required=True)

    for task in ("denoise", "deblur"):
        p = sub.add_parser(task, help=f"synthesize a degraded image and {task} it")
        p.add_argument("--input", nargs="+", help="clean source image path(s) (.pgm/.png)")
        p.add_argument("--ref", help="PSNR reference (defaults to the input image)")
        p.add_argument("--out", help="output directory (created if absent; default ./out)")
        p.add_argument("--variant", choices=_CHOICE_KEYS["variant"])
        p.add_argument("--lambda1", type=float, help="TV weight of the lowpass channel")
        p.add_argument("--lambda-rest", type=float, dest="lambda_rest",
                       help="TV weight of the detail channels")
        p.add_argument("--gamma1", type=float, help="splitting penalty, lowpass channel")
        p.add_argument("--gamma-rest", type=float, dest="gamma_rest",
                       help="splitting penalty, detail channels")
        p.add_argument("--tol", type=float, help="relative-change stopping tolerance")
        p.add_argument("--max-iter", type=int, dest="max_iter")
        p.add_argument("--sigma", type=float, help="noise standard deviation")
        p.add_argument("--blur-len", type=int, dest="blur_len",
                       help="odd motion-blur length in pixels (deblur only; default 9)")
        p.add_argument("--seed", type=int, help="noise seed (batch images get seed+index)")
        p.add_argument("--trace", action="store_true", default=None,
                       help="record energy and write a per-iteration CSV")
        p.add_argument("--dump-features", action="store_true", default=None,
                       dest="dump_features", help="write per-channel feature images")
        p.add_argument("--shrinkage", choices=_CHOICE_KEYS["shrinkage"])
        p.add_argument("--config", help="JSON file with the same keys as the flags")
        p.add_argument("--jobs", type=int, help="parallel workers for batch inputs")

    p = sub.add_parser("selftest", help="run built-in invariant checks")
    p.add_argument("--perturb-bank", action="store_true", dest="perturb_bank",
                   help="negative control: break the tight frame on purpose")
    return parser


def _resolve_settings(task: str, args: argparse.Namespace) -> dict:
    """Merge defaults, an optional config file and explicit flags (flags win)."""
    file_cfg = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except UnicodeDecodeError:
            raise ConfigError(f"config file {args.config} is not UTF-8 text") from None
        if not isinstance(file_cfg, dict):
            raise ConfigError("a config file must hold one JSON object")
        unknown = set(file_cfg) - set(_SETTING_KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        file_cfg = {k: v for k, v in file_cfg.items() if v is not None}
        _check_file_values(file_cfg)

    variant = args.variant or file_cfg.get("variant") or "reduced17"
    settings = {
        "variant": variant,
        "out": "out",
        "max_iter": 200,
        "seed": 0,
        "sigma": _SIGMA_DEFAULT[task],
        "blur_len": 9,
        "trace": False,
        "dump_features": False,
        "jobs": 1,
        "shrinkage": "aniso",
        "ref": None,
        "input": None,
    }
    settings.update(TASK_DEFAULTS[(task, variant)])
    settings.update(file_cfg)
    for key in _SETTING_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value

    for key, kind in _NUMERIC_KEYS.items():
        settings[key] = _number(key, settings[key], kind)
    if settings["jobs"] < 1:
        raise ConfigError(f"jobs must be >= 1, got {settings['jobs']}")
    if not settings["input"]:
        raise ConfigError("--input is required (flag or config file)")
    if isinstance(settings["input"], str):
        settings["input"] = [settings["input"]]
    if settings["ref"] and len(settings["input"]) > 1:
        raise ConfigError("--ref only combines with a single --input")
    stems = [Path(p).stem for p in settings["input"]]
    if len(set(stems)) != len(stems):
        raise ConfigError("batch inputs need distinct file stems (outputs would collide)")
    for path in settings["input"]:
        if not Path(path).is_file():
            raise ConfigError(f"input image not found: {path}")
    if settings["ref"] and not Path(settings["ref"]).is_file():
        raise ConfigError(f"reference image not found: {settings['ref']}")
    return settings


def _check_file_values(file_cfg: dict) -> None:
    """Reject config-file values that the matching flag could not produce.

    Numbers are checked after merging, by :func:`_number`.
    """
    for key, choices in _CHOICE_KEYS.items():
        if key in file_cfg and file_cfg[key] not in choices:
            raise ConfigError(f"{key} must be one of {list(choices)}, got {file_cfg[key]!r}")
    for key in ("ref", "out"):
        if key in file_cfg and not isinstance(file_cfg[key], str):
            raise ConfigError(f"{key} must be a string, got {file_cfg[key]!r}")
    paths = file_cfg.get("input", [])
    if not isinstance(paths, str) and not (
        isinstance(paths, list) and all(isinstance(p, str) for p in paths)
    ):
        raise ConfigError(f"input must be a string or a list of strings, got {paths!r}")
    for key in ("trace", "dump_features"):
        if key in file_cfg and not isinstance(file_cfg[key], bool):
            raise ConfigError(f"{key} must be true or false, got {file_cfg[key]!r}")


def _number(key: str, value, kind):
    """``value`` as ``kind`` (float or int), or a ConfigError naming ``key``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return kind(value)


def _json_metric(x: float):
    return x if math.isfinite(x) else "inf"


def _dump_features(out_dir: Path, stem: str, u: np.ndarray) -> list:
    """Per-channel feature images, affinely rescaled to [0, 255]."""
    paths = []
    feats = analyze(u, bspline_bank())
    for i, channel in enumerate(feats, start=1):
        lo, hi = float(channel.min()), float(channel.max())
        scaled = (channel - lo) * (255.0 / (hi - lo)) if hi > lo else np.zeros_like(channel)
        path = out_dir / f"{stem}_feature_{i:02d}.pgm"
        write_pgm(path, scaled)
        paths.append(str(path))
    return paths


def _process_one(job: dict) -> dict:
    """Degrade, restore and write all artifacts for one input image."""
    task = job["task"]
    settings = job["settings"]
    out_dir = Path(settings["out"])
    stem = Path(job["input"]).stem

    clean = read_image(job["input"])
    ref = read_image(settings["ref"]) if settings["ref"] else clean
    bank = bspline_bank()

    if task == "deblur":
        op = DegradationOp.blur(motion_blur_kernel(settings["blur_len"]))
    else:
        op = DegradationOp.identity()
    noise = NoiseSpec(sigma=settings["sigma"], seed=job["seed"])
    degraded = apply_degradation(clean, op, noise)

    cfg = SolverConfig.head_rest(
        bank.m,
        settings["lambda1"], settings["lambda_rest"],
        settings["gamma1"], settings["gamma_rest"],
        tol=settings["tol"],
        max_iter=settings["max_iter"],
        u_update=settings["variant"],
        shrinkage=settings["shrinkage"],
        record_trace=bool(settings["trace"]),
    )
    start = time.perf_counter()
    result = solve(degraded, op, bank, cfg)
    seconds = time.perf_counter() - start

    degraded_path = out_dir / f"{stem}_degraded.pgm"
    restored_path = out_dir / f"{stem}_restored.pgm"
    write_pgm(degraded_path, degraded)
    write_pgm(restored_path, result.u)
    outputs = {"degraded": str(degraded_path), "restored": str(restored_path)}
    if settings["trace"]:
        trace_path = out_dir / f"{stem}_trace.csv"
        write_trace_csv(trace_path, result)
        outputs["trace"] = str(trace_path)
    if settings["dump_features"]:
        outputs["features"] = _dump_features(out_dir, stem, result.u)

    # The degraded metric is taken on the float field, the restored one on
    # the exported (quantized) artifact the tool actually delivers.
    psnr_noisy = psnr(ref, degraded)
    psnr_restored = psnr(ref, quantize(result.u).astype(np.float64))

    metadata = {
        "task": task,
        "input": job["input"],
        "ref": settings["ref"] or job["input"],
        "variant": settings["variant"],
        "lam": list(cfg.lam),
        "gamma": list(cfg.gamma),
        "tol": cfg.tol,
        "max_iter": cfg.max_iter,
        "shrinkage": cfg.shrinkage,
        "sigma": settings["sigma"],
        "blur_len": settings["blur_len"] if task == "deblur" else None,
        "seed": job["seed"],
        "rng": RNG_DESCRIPTION,
        "library_version": __version__,
        "outputs": outputs,
        "metrics": {
            "psnr_noisy": _json_metric(psnr_noisy),
            "psnr_restored": _json_metric(psnr_restored),
            "iterations": result.iterations,
            "seconds": seconds,
            "converged": result.converged,
        },
    }
    meta_path = out_dir / f"{stem}_run.json"
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(metadata, fh, indent=1)

    return {
        "image": stem,
        "psnr_noisy": psnr_noisy,
        "psnr_restored": psnr_restored,
        "iterations": result.iterations,
        "seconds": seconds,
        "converged": result.converged,
    }


def _process_isolated(job: dict) -> dict:
    """:func:`_process_one`, with an input or I/O failure returned as
    ``{"input", "error"}`` so that it does not lose the other images' rows."""
    try:
        return _process_one(job)
    except (VTVError, OSError) as exc:
        return {"input": job["input"], "error": str(exc)}


def _run_restoration(task: str, args: argparse.Namespace) -> int:
    settings = _resolve_settings(task, args)
    out_dir = Path(settings["out"])
    out_dir.mkdir(parents=True, exist_ok=True)

    jobs = [
        {"task": task, "settings": settings, "input": path,
         "seed": settings["seed"] + i}
        for i, path in enumerate(settings["input"])
    ]
    workers = settings["jobs"]
    if workers > 1 and len(jobs) > 1:
        with Pool(processes=min(workers, len(jobs))) as pool:
            results = pool.map(_process_isolated, jobs)
    else:
        results = [_process_isolated(job) for job in jobs]
    rows = [r for r in results if "error" not in r]
    failures = [r for r in results if "error" in r]
    for failure in failures:
        print(f"vtv-restore: error: {failure['input']}: {failure['error']}", file=sys.stderr)

    print("image,psnr_noisy,psnr_restored,iters,seconds")
    for row in rows:
        noisy = "inf" if math.isinf(row["psnr_noisy"]) else f"{row['psnr_noisy']:.4f}"
        restored = "inf" if math.isinf(row["psnr_restored"]) else f"{row['psnr_restored']:.4f}"
        print(f"{row['image']},{noisy},{restored},{row['iterations']},{row['seconds']:.3f}")
    if failures:
        return 1
    return 0 if all(row["converged"] for row in rows) else 2


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.task == "selftest":
            return 0 if run_selftest(perturb_bank=args.perturb_bank) else 3
        return _run_restoration(args.task, args)
    except (VTVError, OSError, json.JSONDecodeError) as exc:
        print(f"vtv-restore: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
