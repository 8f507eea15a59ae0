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
from pathlib import Path

import numpy as np

from . import __version__
from .degrade import RNG_DESCRIPTION, NoiseSpec, apply_degradation, motion_blur_kernel
from .errors import ConfigError, DimensionMismatchError, VTVError
from .fileio import atomic_open, quantize, read_image, write_pgm, write_trace_csv
from .frames import analyze, bspline_bank
from .image import psnr
from .solver import ANISO, FULL13, ISO, REDUCED17, SINGLE, DegradationOp, SolverConfig, solve

#: Restoration defaults per (task, variant); flags and config files override.
TASK_DEFAULTS = {
    ("denoise", "reduced17"): {
        "lambda1": 2.0, "lambda_rest": 1.5, "gamma1": 12.0, "gamma_rest": 4.5, "tol": 5e-4,
        "sigma": 25.5,
    },
    ("denoise", "full13"): {
        "lambda1": 0.2, "lambda_rest": 0.2, "gamma1": 0.5, "gamma_rest": 0.25, "tol": 1e-4,
        "sigma": 25.5,
    },
    ("deblur", "reduced17"): {
        "lambda1": 1.02, "lambda_rest": 0.51, "gamma1": 0.4, "gamma_rest": 0.1, "tol": 5e-4,
        "sigma": 5.0,
    },
    ("deblur", "full13"): {
        "lambda1": 1.53, "lambda_rest": 1.02, "gamma1": 0.4, "gamma_rest": 0.1, "tol": 5e-4,
        "sigma": 5.0,
    },
}

#: Every restoration setting: key -> (kind, default, help).  A kind is a type
#: or a tuple of choices; ``list`` means one or more paths.  Each key is a
#: config-file key and the flag ``--<key with dashes>``.  A ``None`` default
#: is either unset or comes from :data:`TASK_DEFAULTS`.
SETTINGS = {
    "input": (list, None, "clean source image path(s) (.pgm/.png)"),
    "ref": (str, None, "PSNR reference (defaults to the input image)"),
    "out": (str, "out", "output directory (created if absent; default ./out)"),
    "variant": ((FULL13, REDUCED17), REDUCED17, "u-update variant (default reduced17)"),
    "lambda1": (float, None, "TV weight of the lowpass channel"),
    "lambda_rest": (float, None, "TV weight of the detail channels"),
    "gamma1": (float, None, "splitting penalty, lowpass channel"),
    "gamma_rest": (float, None, "splitting penalty, detail channels"),
    "tol": (float, None, "relative-change stopping tolerance"),
    "max_iter": (int, 200, "iteration cap (default 200)"),
    "sigma": (float, None, "noise standard deviation"),
    "blur_len": (int, 9, "odd motion-blur length in pixels (deblur only; default 9)"),
    "seed": (int, 0, "noise seed (batch images get seed+index)"),
    "trace": (bool, False, "record energy and write a per-iteration CSV"),
    "dump_features": (bool, False, "write per-channel feature images"),
    "shrinkage": ((ANISO, ISO), ANISO, "shrinkage flavor (default aniso)"),
    "jobs": (int, 1, "parallel workers for batch inputs"),
}

#: The JSON values a setting of each scalar kind accepts, and their name.
_JSON_KINDS = {
    str: (str, "a string"), bool: (bool, "true or false"),
    float: ((int, float), "a number"), int: (int, "an integer"),
}


#: The failures reported as one error line with exit code 1, for the whole
#: run and for each image of a batch; anything else is a bug.
_REPORTED = (VTVError, OSError, MemoryError)


def _error_text(exc: BaseException) -> str:
    """The message of a :data:`_REPORTED` failure; a bare ``MemoryError()``
    has none."""
    return str(exc) or "out of memory"


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
        for key, (kind, _, help_text) in SETTINGS.items():
            if kind is bool:
                spec = {"action": "store_true", "default": None}
            elif kind is list:
                spec = {"nargs": "+"}
            elif isinstance(kind, tuple):
                spec = {"choices": kind}
            else:
                spec = {"type": kind}
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=help_text, **spec)
        p.add_argument("--config", help="JSON file with the same keys as the flags")

    p = sub.add_parser("selftest", help="run built-in invariant checks")
    p.add_argument("--perturb-bank", action="store_true", dest="perturb_bank",
                   help="negative control: break the tight frame on purpose")
    return parser


def _check(key: str, value):
    """A config-file ``value`` as setting ``key`` takes it, or a ConfigError.

    The value must be one the setting's flag could produce: argparse builds
    each flag from the same :data:`SETTINGS` kind.
    """
    kind = SETTINGS[key][0]
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"{key} must be one of {list(kind)}, got {value!r}")
        return value
    if kind is list:
        paths = [value] if isinstance(value, str) else value
        if not (isinstance(paths, list) and all(isinstance(p, str) for p in paths)):
            raise ConfigError(f"{key} must be a string or a list of strings, got {value!r}")
        return paths
    accepted, description = _JSON_KINDS[kind]
    # JSON true/false are Python ints too, so only a bool setting takes them
    if not isinstance(value, accepted) or isinstance(value, bool) != (kind is bool):
        raise ConfigError(f"{key} must be {description}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:
        raise ConfigError(f"{key} is out of range, got a {len(str(value))}-digit integer") from None


def _read_config(path: str) -> dict:
    """The settings a JSON config file sets, each checked by :func:`_check`.

    ``null`` leaves a setting unset.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            values = json.load(fh)
    except UnicodeDecodeError:
        raise ConfigError(f"config file {path} is not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # an integer past Python's digit limit, or nesting past the recursion limit
        raise ConfigError(f"config file {path} cannot be read: {exc}") from None
    if not isinstance(values, dict):
        raise ConfigError("a config file must hold one JSON object")
    unknown = set(values) - set(SETTINGS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return {key: _check(key, value) for key, value in values.items() if value is not None}


def _resolve_settings(task: str, args: argparse.Namespace) -> dict:
    """Merge the table's defaults, :data:`TASK_DEFAULTS`, an optional config
    file and explicit flags; a later source wins."""
    chosen = _read_config(args.config) if args.config else {}
    chosen.update((key, getattr(args, key)) for key in SETTINGS if getattr(args, key) is not None)
    settings = {key: default for key, (_, default, _) in SETTINGS.items()}
    settings.update(TASK_DEFAULTS[(task, chosen.get("variant", settings["variant"]))])
    settings.update(chosen)

    if settings["jobs"] < 1:
        raise ConfigError(f"jobs must be >= 1, got {settings['jobs']}")
    if not settings["input"]:
        raise ConfigError("--input is required (flag or config file)")
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


def _json_metric(x):
    return x if math.isfinite(x) else str(x)


def _dump_features(out_dir: Path, stem: str, u: np.ndarray, bank) -> list:
    """Per-channel feature images, affinely rescaled to [0, 255]."""
    paths = []
    feats = analyze(u, bank)
    for i, channel in enumerate(feats, start=1):
        lo, hi = float(channel.min()), float(channel.max())
        scaled = (channel - lo) * (255.0 / (hi - lo)) if hi > lo else np.zeros_like(channel)
        path = out_dir / f"{stem}_feature_{i:02d}.pgm"
        write_pgm(path, scaled)
        paths.append(str(path))
    return paths


def _process_one(job: dict) -> dict:
    """Degrade, restore and write all artifacts for one input image.

    ``job`` holds the run's objects (``task``, ``settings``, ``bank``,
    ``op``, ``cfg``) and the image's ``input`` path and ``noise``.
    """
    task, settings, bank, cfg = job["task"], job["settings"], job["bank"], job["cfg"]
    op, noise = job["op"], job["noise"]
    out_dir = Path(settings["out"])
    stem = Path(job["input"]).stem

    clean = read_image(job["input"])
    ref = read_image(settings["ref"]) if settings["ref"] else clean
    if ref.shape != clean.shape:
        raise DimensionMismatchError(
            f"reference {settings['ref']} is {ref.shape[1]}x{ref.shape[0]}, "
            f"the input is {clean.shape[1]}x{clean.shape[0]}"
        )
    degraded = apply_degradation(clean, op, noise)
    # The readers give 8-bit intensities, so the uint8 raster holds the
    # reference exactly; the float image is not kept through the solve.
    ref = ref.astype(np.uint8)
    del clean

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
        outputs["features"] = _dump_features(out_dir, stem, result.u, bank)

    # The degraded metric is taken on the float field, the restored one on
    # the exported (quantized) artifact the tool actually delivers.
    metrics = {
        "psnr_noisy": psnr(ref, degraded),
        "psnr_restored": psnr(ref, quantize(result.u).astype(np.float64)),
        "iterations": result.iterations,
        "seconds": seconds,
        "converged": result.converged,
    }
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
        "precision": result.precision,
        "sigma": noise.sigma,
        "blur_len": settings["blur_len"] if task == "deblur" else None,
        "seed": noise.seed,
        "rng": RNG_DESCRIPTION,
        "library_version": __version__,
        "outputs": outputs,
        "metrics": {key: _json_metric(value) for key, value in metrics.items()},
    }
    meta_path = out_dir / f"{stem}_run.json"
    with atomic_open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(metadata, fh, indent=1)

    return {"image": stem, **metrics}


def _process_isolated(job: dict) -> dict:
    """:func:`_process_one`, with a reported failure (:data:`_REPORTED`)
    returned as ``{"input", "error"}`` so that it does not lose the other
    images' rows."""
    try:
        return _process_one(job)
    except _REPORTED as exc:
        return {"input": job["input"], "error": _error_text(exc)}


def _run_restoration(task: str, args: argparse.Namespace) -> int:
    settings = _resolve_settings(task, args)
    # The run's solver objects are built before any output exists, so a
    # setting they reject is reported once per run, not once per image.
    bank = bspline_bank()
    if task == "deblur":
        op = DegradationOp.blur(motion_blur_kernel(settings["blur_len"]))
    else:
        op = DegradationOp.identity()
    cfg = SolverConfig.head_rest(
        bank.m,
        settings["lambda1"], settings["lambda_rest"],
        settings["gamma1"], settings["gamma_rest"],
        tol=settings["tol"],
        max_iter=settings["max_iter"],
        u_update=settings["variant"],
        shrinkage=settings["shrinkage"],
        record_trace=settings["trace"],
        # float32 splitting state: iteration counts and PSNRs as at double
        # (README, "Precision"); a solve past the float32 bound runs at double
        precision=SINGLE,
    )
    run = {"task": task, "settings": settings, "bank": bank, "op": op, "cfg": cfg}
    jobs = [
        dict(run, input=path, noise=NoiseSpec(sigma=settings["sigma"], seed=settings["seed"] + i))
        for i, path in enumerate(settings["input"])
    ]
    Path(settings["out"]).mkdir(parents=True, exist_ok=True)

    workers = settings["jobs"]
    if workers > 1 and len(jobs) > 1:
        from multiprocessing import Pool

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
        print(
            f"{row['image']},{row['psnr_noisy']:.4f},{row['psnr_restored']:.4f},"
            f"{row['iterations']},{row['seconds']:.3f}"
        )
    if failures:
        return 1
    return 0 if all(row["converged"] for row in rows) else 2


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.task == "selftest":
            from .selftest import run_selftest

            return 0 if run_selftest(perturb_bank=args.perturb_bank) else 3
        return _run_restoration(args.task, args)
    except _REPORTED as exc:
        print(f"vtv-restore: error: {_error_text(exc)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
