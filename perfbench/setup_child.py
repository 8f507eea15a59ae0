"""Fresh-interpreter set-up probe, started by ``run.py`` once per sample.

Imports the package, reads one clean image, degrades it and builds its
``SplitBregman`` exactly as the CLI would, using only the public API, then
prints one JSON line: ``ready``, the ``time.monotonic()`` reading at that
point (the parent subtracts its own reading taken just before the spawn),
and with ``--cold-step`` the time of the first ``step()`` in this process.

    PYTHONPATH=src python3 perfbench/setup_child.py --task denoise \
        --variant reduced17 --input img.pgm --seed 0 [--cold-step]
"""

import argparse
import json
import time

import vtvrestore as vtv
from vtvrestore.cli import TASK_DEFAULTS

# The CLI's documented degradation defaults (README, "Default parameters").
SIGMA = {"denoise": 25.5, "deblur": 5.0}
BLUR_LEN = 9


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--task", choices=sorted(SIGMA), required=True)
    parser.add_argument("--variant", required=True)
    parser.add_argument("--input", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cold-step", action="store_true")
    args = parser.parse_args()

    clean = vtv.read_image(args.input)
    if args.task == "deblur":
        op = vtv.DegradationOp.blur(vtv.motion_blur_kernel(BLUR_LEN))
    else:
        op = vtv.DegradationOp.identity()
    degraded = vtv.apply_degradation(clean, op, vtv.NoiseSpec(SIGMA[args.task], args.seed))
    defaults = TASK_DEFAULTS[(args.task, args.variant)]
    bank = vtv.bspline_bank()
    cfg = vtv.SolverConfig.head_rest(
        bank.m, defaults["lambda1"], defaults["lambda_rest"],
        defaults["gamma1"], defaults["gamma_rest"],
        tol=defaults["tol"], u_update=args.variant,
    )
    sb = vtv.SplitBregman(degraded, op, bank, cfg)
    report = {"ready": time.monotonic()}
    if args.cold_step:
        start = time.perf_counter()
        sb.step()
        report["cold_step_ms"] = (time.perf_counter() - start) * 1e3
    print(json.dumps(report))


if __name__ == "__main__":
    main()
