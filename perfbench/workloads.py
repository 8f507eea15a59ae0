"""Workload table, input generation and output checks shared by every pass.

All inputs are the repository's own ``make_phantom`` test image (from
``tests/conftest.py``) at a fixed size, in its eight rotations and
transposes.  The benchmark seed only becomes the CLI's ``--seed``, so the
same seed always gives the same noise and therefore the same outputs.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import platform
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PHANTOM_SOURCE = ROOT / "tests" / "conftest.py"
WORK = Path(__file__).resolve().parent / "_work"

#: Every child process and the traced in-process run use one BLAS/OpenMP thread.
ONE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

CSV_HEADER = "image,psnr_noisy,psnr_restored,iters,seconds"
FEATURE_CHANNELS = 9


@dataclass(frozen=True)
class Workload:
    """One fixed CLI invocation shape.

    ``psnr_floor`` is the lowest acceptable ``psnr_restored`` of any image;
    it sits about 0.3 dB under the lowest value measured over 20 seeds.
    """

    name: str
    task: str
    variant: str
    size: int
    images: int
    flags: tuple
    jobs: int
    psnr_floor: float

    @property
    def megapixels(self) -> float:
        return self.images * self.size * self.size / 1e6

    def cli_args(self, inputs, out_dir, seed: int, jobs: int) -> list:
        args = [self.task, "--input", *map(str, inputs), "--out", str(out_dir),
                "--seed", str(seed), "--variant", self.variant, *self.flags]
        if jobs > 1:
            args += ["--jobs", str(jobs)]
        return args


# Why each workload exists:
# - denoise-1024: every (9,2,h,w) stack is 151 MB, far beyond the caches, so
#   an iteration is bandwidth- and allocation-bound and the solver loop is
#   ~95% of wall time.  Preallocation, in-place shrink and a separable
#   analyze show here, and so does peak RSS per pixel.
# - full13-256: 100 short iterations on a 9.4 MB stack, so numpy call
#   overhead and temporaries dominate.  The only workload that builds the
#   full13 denominator; iteration-count changes to full13 show here and
#   should not move the two reduced17 workloads.
# - batch-deblur-trace: 8 small images through a 2-worker pool with a blur
#   operator, energy per iteration (--trace) and 12 artifacts per image, so
#   per-image fixed costs and the second analyze inside energy are a large
#   share here and close to zero elsewhere.
WORKLOADS = {w.name: w for w in (
    Workload("denoise-1024", "denoise", "reduced17", 1024, 1, (), 1, 31.5),
    Workload("full13-256", "denoise", "full13", 256, 1, (), 1, 20.3),
    Workload("batch-deblur-trace", "deblur", "reduced17", 256, 8,
             ("--trace", "--dump-features"), 2, 27.9),
)}


def check_checkout() -> str | None:
    """Return why the program cannot be benchmarked here, or None."""
    for needed in (SRC / "vtvrestore" / "__init__.py", PHANTOM_SOURCE):
        if not needed.is_file():
            return f"missing {needed.relative_to(ROOT)}; run from a full checkout"
    return None


def import_program():
    """Put the checkout's ``src`` first on the path and return the package."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import vtvrestore

    if Path(vtvrestore.__file__).resolve().parent != SRC / "vtvrestore":
        raise RuntimeError(f"imported vtvrestore from {vtvrestore.__file__}, not {SRC}")
    return vtvrestore


def child_env() -> dict:
    env = dict(os.environ)
    env.update(ONE_THREAD)
    env["PYTHONPATH"] = str(SRC)
    return env


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def make_inputs(wl: Workload, dest: Path) -> list:
    """Write the workload's clean input PGMs into ``dest`` and return their paths."""
    import numpy as np

    vtv = import_program()
    spec = importlib.util.spec_from_file_location("_phantom_source", PHANTOM_SOURCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    phantom = module.make_phantom(wl.size)
    variants = [np.rot90(phantom, k) for k in range(4)]
    variants += [np.rot90(phantom.T, k) for k in range(4)]
    dest.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, image in enumerate(variants[: wl.images]):
        path = dest / f"phantom{wl.size}_{i}.pgm"
        vtv.write_pgm(path, image)
        paths.append(path)
    return paths


def environment() -> dict:
    """The numerical environment every result is recorded with."""
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fft": "numpy pocketfft" if hasattr(np.fft, "_pocketfft") else "numpy.fft",
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads": ONE_THREAD,
    }


def parse_rows(stdout: str) -> list:
    """The CLI's metrics rows, or an empty list if the header is absent."""
    lines = [ln for ln in stdout.splitlines() if ln]
    if CSV_HEADER not in lines:
        return []
    rows = []
    for line in lines[lines.index(CSV_HEADER) + 1:]:
        image, _noisy, restored, iters, seconds = line.split(",")
        rows.append({"image": image, "psnr_restored": float(restored),
                     "iters": int(iters), "seconds": float(seconds)})
    return rows


def check_outputs(wl: Workload, code: int, rows: list, inputs: list, out_dir: Path):
    """Check one invocation's exit code, rows and artifacts.

    Returns ``(problems, digests)``: a list of what is wrong (empty when the
    invocation passed) and the sha256 of each restored PGM by image stem.
    """
    problems = []
    digests = {}
    if code != 0:
        problems.append(f"exit code {code}")
    stems = [Path(p).stem for p in inputs]
    if [r["image"] for r in rows] != stems:
        problems.append(f"rows {[r['image'] for r in rows]} != inputs {stems}")
    for row in rows:
        stem = row["image"]
        if not row["psnr_restored"] >= wl.psnr_floor:
            problems.append(f"{stem}: psnr_restored {row['psnr_restored']} < floor {wl.psnr_floor}")
        expected = [f"{stem}_degraded.pgm", f"{stem}_restored.pgm", f"{stem}_run.json"]
        if "--trace" in wl.flags:
            expected.append(f"{stem}_trace.csv")
        if "--dump-features" in wl.flags:
            expected += [f"{stem}_feature_{i:02d}.pgm" for i in range(1, FEATURE_CHANNELS + 1)]
        missing = [name for name in expected if not (out_dir / name).is_file()]
        if missing:
            problems.append(f"{stem}: missing {missing}")
            continue
        with open(out_dir / f"{stem}_run.json", encoding="utf-8") as fh:
            metrics = json.load(fh)["metrics"]
        if metrics["converged"] is not True or metrics["iterations"] != row["iters"]:
            problems.append(f"{stem}: run.json metrics {metrics} disagree with row {row}")
        if "--trace" in wl.flags:
            with open(out_dir / f"{stem}_trace.csv", encoding="ascii") as fh:
                trace_rows = sum(1 for _ in fh) - 1
            if trace_rows != row["iters"]:
                problems.append(f"{stem}: trace has {trace_rows} rows, expected {row['iters']}")
        digests[stem] = sha256(out_dir / f"{stem}_restored.pgm")
    return problems, digests


def artifact_bytes(path: Path) -> int:
    """Bytes of the image and trace artifacts in ``path``.

    ``*_run.json`` is left out: it records the solve time, so its size
    changes from run to run.
    """
    return sum(p.stat().st_size for p in path.iterdir()
               if p.is_file() and not p.name.endswith("_run.json"))

