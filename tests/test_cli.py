"""End-to-end CLI runs: exit codes, outputs, metadata, determinism."""

import argparse
import io
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vtvrestore import SolveResult, SolverConfig, cli, frames, write_pgm
from vtvrestore.cli import SETTINGS, build_parser, main

from conftest import make_phantom

SRC = Path(__file__).resolve().parent.parent / "src"
#: A 32x32 ramp from 0 to 255.
RAMP = np.add.outer(np.arange(32.0), np.arange(32.0)) * (255.0 / 62.0)

#: A ``python -c`` program: ``main`` on ``sys.argv[2:]``, with an image
#: worker that kills itself by ``SIGKILL`` on the image ``sys.argv[1]``, as
#: the kernel's out-of-memory killer would.
KILLED_WORKER_RUN = """
import os, signal, sys
from vtvrestore import cli
process_one = cli._process_one
def process_or_die(job):
    if job["input"] == sys.argv[1]:
        os.kill(os.getpid(), signal.SIGKILL)
    return process_one(job)
cli._process_one = process_or_die
sys.exit(cli.main(sys.argv[2:]))
"""


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def parse_metrics(stdout):
    lines = [ln for ln in stdout.splitlines() if ln]
    assert lines[0] == "image,psnr_noisy,psnr_restored,iters,seconds"
    rows = []
    for line in lines[1:]:
        image, noisy, restored, iters, seconds = line.split(",")
        rows.append(
            {
                "image": image,
                "psnr_noisy": float(noisy),
                "psnr_restored": float(restored),
                "iters": int(iters),
                "seconds": float(seconds),
            }
        )
    return rows


@pytest.fixture(scope="module")
def phantom_pgm(tmp_path_factory):
    path = tmp_path_factory.mktemp("images") / "phantom.pgm"
    write_pgm(path, make_phantom(256))
    return str(path)


@pytest.fixture(scope="module")
def small_pgm(tmp_path_factory):
    path = tmp_path_factory.mktemp("images") / "small.pgm"
    write_pgm(path, make_phantom(64))
    return str(path)


@pytest.fixture(scope="module")
def denoise_run(phantom_pgm, tmp_path_factory):
    out = tmp_path_factory.mktemp("dn")
    code, stdout = run_cli(
        "denoise", "--input", phantom_pgm, "--out", str(out), "--seed", "7", "--trace"
    )
    return code, parse_metrics(stdout)[0], out


@pytest.fixture(scope="module")
def variant_psnrs(phantom_pgm, tmp_path_factory):
    results = {}
    for variant in ("reduced17", "full13"):
        out = tmp_path_factory.mktemp(variant)
        code, stdout = run_cli(
            "deblur", "--input", phantom_pgm, "--out", str(out),
            "--seed", "7", "--variant", variant,
        )
        assert code == 0
        results[variant] = parse_metrics(stdout)[0]["psnr_restored"]
    return results


class TestSelftest:
    def test_passes_on_fresh_build(self):
        code, out = run_cli("selftest")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 7
        assert all(line.startswith("PASS") for line in lines)

    def test_perturbed_bank_negative_control(self):
        code, out = run_cli("selftest", "--perturb-bank")
        assert code == 3
        assert any(line.startswith("FAIL uep-identity") for line in out.splitlines())


class TestDenoise:
    def test_default_run_meets_gain_corridor(self, denoise_run):
        code, row, out = denoise_run
        assert code == 0
        assert abs(row["psnr_noisy"] - 20.0) < 0.2
        assert row["psnr_restored"] - row["psnr_noisy"] >= 6.0
        assert row["iters"] <= 200
        for suffix in ("degraded.pgm", "restored.pgm", "trace.csv", "run.json"):
            assert (out / f"phantom_{suffix}").is_file()

    def test_metadata_contents(self, denoise_run):
        _, row, out = denoise_run
        meta = json.loads((out / "phantom_run.json").read_text())
        assert meta["task"] == "denoise"
        assert meta["variant"] == "reduced17"
        assert meta["lam"] == [2.0] + [1.5] * 8
        assert meta["gamma"] == [12.0] + [4.5] * 8
        assert meta["seed"] == 7
        assert meta["rng"] == "numpy-pcg64-standard-normal"
        assert meta["library_version"]
        assert meta["metrics"]["converged"] is True
        assert meta["metrics"]["iterations"] == row["iters"]
        assert meta["precision"] == "single"
        # 256x256 is below the grain: one sweep worker on any machine
        assert meta["metrics"]["threads"] == 1

    def test_run_json_records_the_solve_cpu_time(self, denoise_run):
        _, _, out = denoise_run
        cpu = json.loads((out / "phantom_run.json").read_text())["metrics"]["cpu_seconds"]
        assert isinstance(cpu, float) and math.isfinite(cpu) and cpu >= 0

    def test_trace_csv_well_formed(self, denoise_run):
        _, row, out = denoise_run
        lines = (out / "phantom_trace.csv").read_text().splitlines()
        assert lines[0] == "iter,rel_err,energy"
        assert len(lines) == 1 + row["iters"]
        rels = [float(line.split(",")[1]) for line in lines[1:]]
        assert rels[-1] <= 5e-4

    def test_clean_constant_input_gives_inf_marker(self, tmp_path):
        const = tmp_path / "const.pgm"
        write_pgm(const, np.full((32, 32), 128.0))
        code, stdout = run_cli(
            "denoise", "--input", str(const), "--out", str(tmp_path / "o"),
            "--sigma", "0",
        )
        assert code == 0
        line = stdout.splitlines()[1]
        image, noisy, restored, iters, _ = line.split(",")
        assert noisy == "inf" and restored == "inf"
        assert int(iters) <= 2
        meta = json.loads((tmp_path / "o" / "const_run.json").read_text())
        assert meta["metrics"]["psnr_restored"] == "inf"

    def test_noise_past_the_float_range_gives_minus_inf_marker(self, small_pgm, tmp_path, capsys):
        code, stdout = run_cli(
            "denoise", "--input", small_pgm, "--out", str(tmp_path), "--sigma", "1e300",
            "--max-iter", "2",
        )
        assert code == 2
        assert stdout.splitlines()[1].split(",")[1] == "-inf"
        meta = json.loads((tmp_path / "small_run.json").read_text())
        assert meta["metrics"]["psnr_noisy"] == "-inf"
        assert meta["precision"] == "double"  # past the float32 bound
        assert capsys.readouterr().err == ""

    def test_noise_past_the_float_range_on_two_sweep_threads(
        self, small_pgm, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(frames, "BLOCK_PIXELS", 4 * 64)  # 16 blocks of 4 rows
        monkeypatch.setattr(cli, "SWEEP_GRAIN", 64 * 64)  # the 64x64 image is not below it
        code, stdout = run_cli(
            "denoise", "--input", small_pgm, "--out", str(tmp_path), "--sigma", "1e300",
            "--max-iter", "2", "--trace",
        )
        assert code == 2
        assert stdout.splitlines()[1].split(",")[1] == "-inf"
        meta = json.loads((tmp_path / "small_run.json").read_text())
        assert (meta["precision"], meta["metrics"]["threads"]) == ("double", 2)
        rows = [line.split(",") for line in (tmp_path / "small_trace.csv").read_text().splitlines()[1:]]
        assert [energy for _, _, energy in rows] == ["inf", "inf"]
        assert capsys.readouterr().err == ""

    def test_threshold_past_the_float_range_runs_at_double(self, small_pgm, tmp_path, capsys):
        # lambda / gamma overflows to an inf threshold, which zeroes every split
        code, _ = run_cli(
            "denoise", "--input", small_pgm, "--out", str(tmp_path),
            "--lambda1", "1e300", "--gamma1", "1e-300", "--max-iter", "3",
        )
        assert code == 0
        assert json.loads((tmp_path / "small_run.json").read_text())["precision"] == "double"
        assert capsys.readouterr().err == ""

    def test_traced_noise_past_the_float_range_gives_finite_changes(self, small_pgm, tmp_path):
        # the squares of u overflow; rel_err is rescaled, the energy is inf
        code, _ = run_cli(
            "denoise", "--input", small_pgm, "--out", str(tmp_path), "--sigma", "1e300",
            "--max-iter", "2", "--trace",
        )
        assert code == 2
        rows = [line.split(",") for line in (tmp_path / "small_trace.csv").read_text().splitlines()[1:]]
        assert [math.isfinite(float(rel)) for _, rel, _ in rows] == [True, True]
        assert [energy for _, _, energy in rows] == ["inf", "inf"]

    def test_full13_variant_converges(self, phantom_pgm, tmp_path):
        code, stdout = run_cli(
            "denoise", "--input", phantom_pgm, "--out", str(tmp_path),
            "--variant", "full13", "--seed", "7",
        )
        assert code == 0
        row = parse_metrics(stdout)[0]
        assert row["iters"] <= 20

    def test_determinism_bit_identical_outputs(self, small_pgm, tmp_path):
        args = ("denoise", "--input", small_pgm, "--seed", "3", "--trace")
        code1, _ = run_cli(*args, "--out", str(tmp_path / "a"))
        code2, _ = run_cli(*args, "--out", str(tmp_path / "b"))
        assert code1 == code2 == 0
        for name in ("small_restored.pgm", "small_degraded.pgm", "small_trace.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_nonconvergence_exit_code(self, small_pgm, tmp_path):
        code, _ = run_cli(
            "denoise", "--input", small_pgm, "--out", str(tmp_path),
            "--max-iter", "1", "--seed", "0",
        )
        assert code == 2

    def test_dump_features_writes_nine_channels(self, small_pgm, tmp_path):
        code, _ = run_cli(
            "denoise", "--input", small_pgm, "--out", str(tmp_path),
            "--dump-features", "--seed", "0",
        )
        assert code == 0
        files = sorted(tmp_path.glob("small_feature_*.pgm"))
        assert len(files) == 9

    def test_batch_jobs_with_per_image_seeds(self, small_pgm, tmp_path):
        other = tmp_path / "copy.pgm"
        other.write_bytes(Path(small_pgm).read_bytes())
        code, stdout = run_cli(
            "denoise", "--input", small_pgm, str(other),
            "--out", str(tmp_path / "o"), "--jobs", "2", "--seed", "10",
        )
        assert code == 0
        assert len(parse_metrics(stdout)) == 2
        meta_a = json.loads((tmp_path / "o" / "small_run.json").read_text())
        meta_b = json.loads((tmp_path / "o" / "copy_run.json").read_text())
        assert meta_a["seed"] == 10 and meta_b["seed"] == 11


class TestDeblur:
    def test_identity_degradation_with_benign_weights_is_a_no_op(
        self, small_pgm, tmp_path
    ):
        # near-zero TV weights and a uniform splitting penalty leave an
        # undegraded image essentially untouched
        code, stdout = run_cli(
            "deblur", "--input", small_pgm, "--out", str(tmp_path),
            "--blur-len", "1", "--sigma", "0",
            "--lambda1", "0.004", "--lambda-rest", "0.002",
            "--gamma1", "0.4", "--gamma-rest", "0.4",
        )
        assert code == 0
        row = parse_metrics(stdout)[0]
        assert math.isinf(row["psnr_noisy"])  # degraded == input exactly
        assert math.isinf(row["psnr_restored"]) or row["psnr_restored"] >= 60.0

    @pytest.mark.xfail(
        strict=True,
        reason="the working-strength deblur defaults regularize on purpose; "
        "only near-zero TV weights would leave an undegraded image "
        "untouched, and those cannot meet the deblurring gain corridor",
    )
    def test_identity_degradation_with_default_weights_is_a_no_op(
        self, small_pgm, tmp_path
    ):
        code, stdout = run_cli(
            "deblur", "--input", small_pgm, "--out", str(tmp_path),
            "--blur-len", "1", "--sigma", "0",
        )
        assert code == 0
        row = parse_metrics(stdout)[0]
        assert math.isinf(row["psnr_restored"]) or row["psnr_restored"] >= 60.0

    def test_default_run_meets_gain_corridor(self, phantom_pgm, tmp_path):
        code, stdout = run_cli(
            "deblur", "--input", phantom_pgm, "--out", str(tmp_path), "--seed", "7"
        )
        assert code == 0
        row = parse_metrics(stdout)[0]
        assert row["psnr_restored"] - row["psnr_noisy"] >= 2.0

    def test_variants_agree_within_one_db(self, variant_psnrs):
        assert abs(variant_psnrs["full13"] - variant_psnrs["reduced17"]) < 1.0

    @pytest.mark.xfail(
        strict=True,
        reason="half-decibel parity between the variants would need a "
        "lambda-weighted u-update; with the exact normal equations they "
        "solve measurably different problems (~0.7 dB apart here)",
    )
    def test_variants_agree_within_half_db(self, variant_psnrs):
        assert abs(variant_psnrs["full13"] - variant_psnrs["reduced17"]) < 0.5


class TestInputVariants:
    def test_explicit_ref_and_iso_shrinkage(self, tmp_path):
        img = make_phantom(64)
        scene = tmp_path / "scene.pgm"
        ref = tmp_path / "scene_ref.pgm"
        write_pgm(scene, img)
        write_pgm(ref, img)
        code, stdout = run_cli(
            "denoise", "--input", str(scene), "--ref", str(ref),
            "--out", str(tmp_path / "o"), "--seed", "2", "--shrinkage", "iso",
        )
        assert code == 0
        row = parse_metrics(stdout)[0]
        assert row["image"] == "scene"
        assert row["psnr_restored"] > row["psnr_noisy"]
        meta = json.loads((tmp_path / "o" / "scene_run.json").read_text())
        assert meta["ref"] == str(ref)
        assert meta["shrinkage"] == "iso"


@pytest.fixture(scope="module")
def fuzz_dirs(tmp_path_factory):
    """A 16x16 input image and an output directory, shared by the examples."""
    image = tmp_path_factory.mktemp("images") / "tiny.pgm"
    write_pgm(image, make_phantom(16))
    return str(image), tmp_path_factory.mktemp("fuzz")


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=4,
)


def _setting_values(kind):
    """JSON values a setting of ``kind`` could take, edge cases included."""
    if kind is float:
        return st.floats() | st.integers() | st.floats(0, 50)
    if kind is int:
        return st.integers() | st.integers(-2, 20)
    if kind is bool:
        return st.booleans()
    if isinstance(kind, tuple):
        return st.sampled_from(kind)
    return st.text(max_size=4)


class TestConfigAndErrors:
    def test_config_file_supplies_values_and_flags_win(self, small_pgm, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sigma": 0.0, "max_iter": 150, "seed": 9}))
        code, _ = run_cli(
            "denoise", "--input", small_pgm, "--out", str(tmp_path / "o"),
            "--config", str(cfg_path), "--max-iter", "137",
        )
        assert code == 0
        meta = json.loads((tmp_path / "o" / "small_run.json").read_text())
        assert meta["sigma"] == 0.0  # from the config file
        assert meta["max_iter"] == 137  # flag wins over the file
        assert meta["seed"] == 9

    def test_unknown_config_key_is_an_error(self, small_pgm, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sigmas": 1.0}))
        code, _ = run_cli(
            "denoise", "--input", small_pgm, "--out", str(tmp_path),
            "--config", str(cfg_path),
        )
        assert code == 1

    def test_missing_input_is_usage_error(self, tmp_path):
        code, _ = run_cli("denoise", "--out", str(tmp_path))
        assert code == 1
        code, _ = run_cli("denoise", "--input", str(tmp_path / "nope.pgm"))
        assert code == 1

    def test_even_blur_length_is_config_error(self, small_pgm, tmp_path):
        code, _ = run_cli(
            "deblur", "--input", small_pgm, "--out", str(tmp_path), "--blur-len", "8"
        )
        assert code == 1

    def test_ref_with_multiple_inputs_rejected(self, small_pgm, tmp_path):
        other = tmp_path / "c.pgm"
        other.write_bytes(Path(small_pgm).read_bytes())
        code, _ = run_cli(
            "denoise", "--input", small_pgm, str(other), "--ref", small_pgm,
            "--out", str(tmp_path),
        )
        assert code == 1


    def assert_one_line_error(self, capsys, code):
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("vtv-restore: error: ") and err.count("\n") == 1
        return err

    def test_ref_of_another_shape_fails_before_the_solve(self, small_pgm, tmp_path, capsys):
        ref = tmp_path / "r32.pgm"
        write_pgm(ref, make_phantom(32))
        out = tmp_path / "o"
        code, _ = run_cli("denoise", "--input", small_pgm, "--ref", str(ref), "--out", str(out))
        err = self.assert_one_line_error(capsys, code)
        assert "r32.pgm is 32x32, the input is 64x64" in err
        assert list(out.iterdir()) == []

    def test_non_numeric_pgm_header_is_an_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\nabc 4\n255\n" + bytes(16))
        code, _ = run_cli("denoise", "--input", str(bad), "--out", str(tmp_path / "o"))
        self.assert_one_line_error(capsys, code)

    @pytest.mark.parametrize(
        "jobs, name, header",
        [
            (jobs, "bad.pgm", header)
            for header in (b"P5\nabc 4\n255\n", b"P5\n" + b"1" * 5000 + b" 4\n255\n")
            for jobs in ("1", "2")
        ]
        + [
            ("1", "bad.pgm", b"P5\n0 0\n255\n"),
            ("1", "bad.pgm", b"P5\n4 4\n65535\n" + bytes(32)),
            ("1", "bad.png", b"\x89PNG\r\n\x1a\n"),
        ],
        ids=[
            "1", "2", "1-5000-digit-width", "2-5000-digit-width", "1-0x0", "1-maxval-65535",
            "1-png",
        ],
    )
    def test_bad_image_in_a_batch_keeps_the_other_rows(
        self, small_pgm, tmp_path, capsys, jobs, name, header
    ):
        bad = tmp_path / name
        bad.write_bytes(header)
        out = tmp_path / "o"
        code, stdout = run_cli(
            "denoise", "--input", small_pgm, str(bad), "--out", str(out), "--jobs", jobs
        )
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith(f"vtv-restore: error: {bad}: ")
        assert [row["image"] for row in parse_metrics(stdout)] == ["small"]
        artifacts = ("restored.pgm", "degraded.pgm", "run.json")
        assert all((out / f"small_{kind}").is_file() for kind in artifacts)
        assert not (out / "bad_restored.pgm").exists()

    def test_image_that_runs_out_of_memory_keeps_the_other_rows(
        self, small_pgm, tmp_path, capsys, monkeypatch
    ):
        other = tmp_path / "other.pgm"
        other.write_bytes(Path(small_pgm).read_bytes())
        solve = cli.solve
        calls = []

        def solve_or_run_out(*args):
            calls.append(None)
            if len(calls) == 2:
                raise MemoryError()
            return solve(*args)

        monkeypatch.setattr(cli, "solve", solve_or_run_out)
        out = tmp_path / "o"
        code, stdout = run_cli(
            "denoise", "--input", small_pgm, str(other), "--out", str(out), "--max-iter", "3",
            "--jobs", "1",
        )
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert err == [f"vtv-restore: error: {other}: out of memory"]
        assert [row["image"] for row in parse_metrics(stdout)] == ["small"]
        assert (out / "small_restored.pgm").is_file() and (out / "small_degraded.pgm").is_file()
        assert not (out / "other_restored.pgm").exists()

    def test_a_failed_noise_generator_import_is_one_error_line_before_any_output(
        self, small_pgm, tmp_path, capsys, monkeypatch
    ):
        # as in a fresh interpreter under a small RLIMIT_AS: numpy.random is
        # not loaded yet, and loading it fails
        class Refuse:
            def find_spec(self, name, path=None, target=None):
                if name == "numpy.random":
                    raise ImportError("failed to map segment from shared object")

        np.random  # loaded, so that the patches below take it away and put it back
        monkeypatch.delitem(sys.modules, "numpy.random")
        monkeypatch.delattr(np, "random")
        monkeypatch.setattr(sys, "meta_path", [Refuse(), *sys.meta_path])
        out = tmp_path / "o"
        code, stdout = run_cli("denoise", "--input", small_pgm, "--out", str(out))
        assert "failed to map segment" in self.assert_one_line_error(capsys, code)
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_a_file_size_limit_ends_in_one_line_per_image(self, tmp_path, jobs):
        resource = pytest.importorskip("resource")
        # the 256x256 image's files fit under the limit, the 512x512 PGM does not
        small, big = tmp_path / "small.pgm", tmp_path / "big.pgm"
        write_pgm(small, make_phantom(256))
        write_pgm(big, make_phantom(512))
        out = tmp_path / "o"
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
                   PYTHONDONTWRITEBYTECODE="1")
        child = subprocess.run(
            [sys.executable, "-c", "import sys; from vtvrestore.cli import main; sys.exit(main())",
             "denoise", "--input", str(small), str(big), "--out", str(out),
             "--max-iter", "2", "--jobs", jobs],
            capture_output=True, text=True, env=env, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (100_000, 100_000)),
        )
        assert child.returncode == 1
        assert child.stderr.splitlines() == [f"vtv-restore: error: {big}: [Errno 27] File too large"]
        assert [row["image"] for row in parse_metrics(child.stdout)] == ["small"]
        # no temporary or partial file of either image is left
        assert sorted(p.name for p in out.iterdir()) == [
            "small_degraded.pgm", "small_restored.pgm", "small_run.json",
        ]

    @pytest.mark.skipif(
        multiprocessing.get_all_start_methods()[0] != "fork",
        reason="the patched worker reaches the pool only by fork",
    )
    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="multiprocessing.Pool waits forever for the task of a worker "
        "killed by a signal (ROADMAP item 3)",
    )
    def test_a_killed_image_worker_keeps_the_other_rows(self, tmp_path):
        images = [tmp_path / f"{name}.pgm" for name in "abcd"]
        for k, path in enumerate(images):
            write_pgm(path, make_phantom(32) + k)
        argv = ["denoise", "--input", *map(str, images), "--out", str(tmp_path / "o"),
                "--jobs", "2", "--max-iter", "3"]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        child = subprocess.Popen(
            [sys.executable, "-c", KILLED_WORKER_RUN, str(images[1]), *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
            start_new_session=True,
        )
        try:
            stdout, stderr = child.communicate(timeout=5)
        except subprocess.TimeoutExpired:
            # the child leads its own process group, pool workers included
            os.killpg(child.pid, signal.SIGKILL)
            stdout, stderr = child.communicate()
        assert child.returncode == 1
        err = stderr.splitlines()
        assert len(err) == 1 and err[0].startswith(f"vtv-restore: error: {images[1]}: ")
        assert [row["image"] for row in parse_metrics(stdout)] == ["a", "c", "d"]

    def test_non_numeric_config_value_is_an_error(self, small_pgm, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"tol": "x"}))
        code, _ = run_cli(
            "denoise", "--input", small_pgm, "--out", str(tmp_path / "o"),
            "--config", str(cfg_path),
        )
        self.assert_one_line_error(capsys, code)

    @pytest.mark.parametrize(
        "config",
        [
            {"variant": "fancy"},
            {"shrinkage": "huber"},
            {"ref": 7},
            {"out": 5},
            {"input": 5},
            {"input": ["a.pgm", 5]},
            {"trace": "no"},
            {"dump_features": 1},
            {"max_iter": 20.0},
            {"sigma": 10**400},
            [{"sigma": 1.0}],
        ],
        ids=[
            "variant", "shrinkage", "ref", "out", "input-number", "input-list",
            "trace", "dump_features", "max_iter-float", "sigma-beyond-float", "not-an-object",
        ],
    )
    def test_config_value_of_the_wrong_kind_is_an_error(self, small_pgm, tmp_path, capsys, config):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "o"
        flags = [] if "input" in config else ["--input", small_pgm]
        code, _ = run_cli("denoise", *flags, "--out", str(out), "--config", str(cfg_path))
        self.assert_one_line_error(capsys, code)
        assert not out.exists()

    @pytest.mark.parametrize("case", ["unknown-flag", "variant", "missing-ref", "same-stem"])
    def test_bad_run_is_one_error_line_before_any_output(self, small_pgm, tmp_path, capsys, case):
        twin = tmp_path / "twin" / Path(small_pgm).name
        twin.parent.mkdir()
        twin.write_bytes(Path(small_pgm).read_bytes())
        flags, problem = {
            "unknown-flag": (["--bogus"], "unrecognized arguments: --bogus"),
            "variant": (["--variant", "fancy"], "invalid choice: 'fancy'"),
            "missing-ref": (["--ref", str(tmp_path / "nope.pgm")], "reference image not found"),
            "same-stem": ([str(twin)], "distinct file stems"),
        }[case]
        out = tmp_path / "o"
        code, _ = run_cli("denoise", "--input", small_pgm, *flags, "--out", str(out))
        assert problem in self.assert_one_line_error(capsys, code)
        assert not out.exists()

    def test_config_file_that_is_not_utf8_is_an_error(self, small_pgm, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(b"\xff\xfe")
        code, _ = run_cli(
            "denoise", "--input", small_pgm, "--out", str(tmp_path / "o"),
            "--config", str(cfg_path),
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"vtv-restore: error: config file {cfg_path} is not UTF-8 text\n"

    def test_zero_jobs_is_an_error(self, small_pgm, tmp_path, capsys):
        code, _ = run_cli(
            "denoise", "--input", small_pgm, "--out", str(tmp_path / "o"), "--jobs", "0"
        )
        self.assert_one_line_error(capsys, code)

    def test_blur_length_too_large_to_allocate_is_an_error(self, small_pgm, tmp_path, capsys):
        out = tmp_path / "o"
        # too large for memory, then past numpy's dimension limit
        for length in ("10000000000001", "10000000000000000000001"):
            code, _ = run_cli(
                "deblur", "--input", small_pgm, "--out", str(out), "--blur-len", length
            )
            self.assert_one_line_error(capsys, code)
            assert not out.exists()

    def test_config_file_that_is_not_json_is_an_error(self, small_pgm, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        out = tmp_path / "o"
        for body, problem in [
            ('{"tol": ', "is not valid JSON"),
            # past the parser's recursion limit, past Python's integer digit limit
            ("[" * 100000, "cannot be read"),
            ('{"tol": ' + "1" * 5000 + "}", "cannot be read"),
        ]:
            cfg_path.write_text(body)
            code, _ = run_cli(
                "denoise", "--input", small_pgm, "--out", str(out), "--config", str(cfg_path),
            )
            err = self.assert_one_line_error(capsys, code)
            assert err.startswith(f"vtv-restore: error: config file {cfg_path} {problem}: ")
            assert not out.exists()

    @pytest.mark.parametrize("length", ["33", "1000001"])
    def test_a_blur_longer_than_the_image_is_wide_is_an_error(
        self, tmp_path, capsys, length
    ):
        image, other = tmp_path / "ramp.pgm", tmp_path / "wide.pgm"
        write_pgm(image, RAMP)
        write_pgm(other, np.zeros((4, 64)))
        out = tmp_path / "o"
        code, stdout = run_cli(
            "deblur", "--input", str(other), str(image), "--out", str(out), "--blur-len", length
        )
        # the first input the blur does not fit is named
        narrow, width = (image, 32) if int(length) <= 64 else (other, 64)
        err = self.assert_one_line_error(capsys, code)
        assert err == (
            f"vtv-restore: error: blur length {length} is longer than {narrow} is wide ({width})\n"
        )
        assert stdout == ""
        assert not out.exists()
        # a blur as long as the image is wide fits it
        code, stdout = run_cli(
            "deblur", "--input", str(image), "--out", str(out), "--blur-len", "31",
            "--max-iter", "2",
        )
        assert code in (0, 2) and [row["image"] for row in parse_metrics(stdout)] == ["ramp"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize(
        "flags",
        [
            ("denoise", "--sigma", "1e300", "--shrinkage", "iso", "--max-iter", "2"),
            ("denoise", "--sigma", "1e306", "--max-iter", "5"),
            ("denoise", "--sigma", "1e307", "--max-iter", "5"),
            ("denoise", "--sigma", "1e306", "--shrinkage", "iso", "--max-iter", "5"),
            ("deblur", "--variant", "full13", "--sigma", "1e306", "--max-iter", "5"),
            ("deblur", "--sigma", "1e307", "--max-iter", "5"),
            ("denoise", "--sigma", "1e308", "--max-iter", "5"),
        ],
        ids=[
            "denoise-1e300-iso", "denoise-1e306", "denoise-1e307", "denoise-1e306-iso",
            "deblur-full13-1e306", "deblur-1e307", "denoise-1e308",
        ],
    )
    def test_a_solve_past_the_float_range_ends_in_one_line_per_image(
        self, tmp_path, capsys, flags, jobs
    ):
        # the ramp's noise or solve passes the float range; a one-row image
        # as wide as the blur (one pixel for denoise) sums too few values to
        # pass it, and finishes
        ramp, good = tmp_path / "ramp.pgm", tmp_path / "good.pgm"
        write_pgm(ramp, RAMP)
        write_pgm(good, np.full((1, 9 if flags[0] == "deblur" else 1), 100.0))
        code, stdout = run_cli(
            *flags, "--input", str(good), str(ramp), "--out", str(tmp_path / "o"), "--jobs", jobs
        )
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith(f"vtv-restore: error: {ramp}: ")
        assert "NaN or Inf" in err[0]
        assert [row["image"] for row in parse_metrics(stdout)] == ["good"]

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_is_an_error(self, small_pgm, tmp_path, capsys, source):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": -1}))
        flags = ["--seed", "-1"] if source == "flag" else ["--config", str(cfg_path)]
        out = tmp_path / "o"
        code, _ = run_cli("denoise", "--input", small_pgm, "--out", str(out), *flags)
        assert "seed" in self.assert_one_line_error(capsys, code)
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [["--sigma", "-1"], ["--max-iter", "0"], ["--lambda1", "-1"], ["--gamma1", "0"]],
        ids=["sigma", "max_iter", "lambda1", "gamma1"],
    )
    def test_setting_the_library_rejects_is_reported_once(
        self, small_pgm, tmp_path, capsys, flags
    ):
        other = tmp_path / "other.pgm"
        other.write_bytes(Path(small_pgm).read_bytes())
        out = tmp_path / "o"
        code, stdout = run_cli(
            "deblur", "--input", small_pgm, str(other), "--out", str(out), *flags
        )
        self.assert_one_line_error(capsys, code)
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, config",
        [
            (["--sigma", "nan"], None),
            (["--lambda1", "inf"], None),
            (["--gamma-rest", "nan"], None),
            ([], '{"gamma1": Infinity}'),
            (["--tol", "inf"], None),
            ([], '{"tol": 1e999}'),
        ],
        ids=[
            "sigma-nan", "lambda1-inf", "gamma_rest-nan", "config-gamma1-infinity",
            "tol-inf", "config-tol-1e999",
        ],
    )
    def test_non_finite_setting_is_an_error(self, small_pgm, tmp_path, capsys, flags, config):
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(config)
            flags = ["--config", str(path)]
        out = tmp_path / "o"
        code, stdout = run_cli("denoise", "--input", small_pgm, "--out", str(out), *flags)
        self.assert_one_line_error(capsys, code)
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("task", ["denoise", "deblur"])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(config=st.fixed_dictionaries({}, optional={
        key: _json_values | _setting_values(kind) for key, (kind, _, _) in SETTINGS.items()
    }))
    @example(config={"sigma": 10**400})  # past the float range
    @example(config={"sigma": 1e300})  # noise whose squared error overflows
    # solves that pass the float range: in the isotropic shrink, in the FFT
    # solve, and in the noise itself
    @example(config={"sigma": 1e300, "shrinkage": "iso"})
    @example(config={"sigma": 1e307, "variant": "full13"})
    @example(config={"sigma": 1.7e308})
    @example(config={"blur_len": 17})  # one tap longer than the image is wide
    def test_fuzzed_config_gives_a_result_or_error_lines(self, fuzz_dirs, task, config):
        # the path flags win over the config, so no fuzzed path is read or written
        image, out = fuzz_dirs
        cfg_path = out / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        err = io.StringIO()
        with redirect_stderr(err):
            code, _ = run_cli(
                task, "--input", image, "--ref", image, "--out", str(out),
                "--max-iter", "2", "--config", str(cfg_path),
            )
        assert code in (0, 1, 2)
        assert all(line.startswith("vtv-restore: error: ") for line in err.getvalue().splitlines())

    def test_every_setting_is_one_flag_with_its_key_as_dest(self):
        subparsers = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        expected = {"--" + key.replace("_", "-"): key for key in SETTINGS}
        expected.update({"--config": "config", "-h": "help", "--help": "help"})
        for task in ("denoise", "deblur"):
            actions = subparsers.choices[task]._actions
            assert {opt: a.dest for a in actions for opt in a.option_strings} == expected


@pytest.mark.parametrize(
    ("env", "processes", "workers"),
    [
        ({}, 1, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1, 4),
        ({"OMP_NUM_THREADS": "1"}, 2, 2),
        ({"OPENBLAS_NUM_THREADS": "1"}, 8, 1),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "4"}, 1, 1),
        # OpenBLAS reads OMP_NUM_THREADS only without a positive OPENBLAS_NUM_THREADS
        ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 1, 1),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 1, 4),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 1, 4),
        ({"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "1"}, 2, 2),
    ],
)
def test_sweep_threads_share_the_cpus_only_over_a_one_thread_blas(
    monkeypatch, env, processes, workers
):
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(key, raising=False)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert cli._sweep_workers(processes, cli.SWEEP_GRAIN) == workers
    assert cli._sweep_workers(processes, 1024 * 1024) == workers
    # an image below the grain, 256x256 among them, solves on one thread
    assert cli._sweep_workers(processes, cli.SWEEP_GRAIN - 1) == 1
    assert cli._sweep_workers(processes, 256 * 256) == 1


@pytest.mark.parametrize(("task", "variant"), list(cli.TASK_DEFAULTS))
def test_the_cli_solves_with_the_library_defaults(small_pgm, tmp_path, monkeypatch, task, variant):
    # only the table's weights and tol are the CLI's own; workers is the one
    # field it derives from the machine, and every other field is the library's
    solved = []

    def record(f, op, bank, cfg):
        solved.append(cfg)
        return SolveResult(u=f, iterations=1, converged=True)

    monkeypatch.setattr(cli, "solve", record)
    code, _ = run_cli(task, "--input", small_pgm, "--out", str(tmp_path), "--variant", variant)
    (cfg,) = solved
    d = cli.TASK_DEFAULTS[(task, variant)]
    assert code == 0 and cfg == SolverConfig.head_rest(
        9, d["lambda1"], d["lambda_rest"], d["gamma1"], d["gamma_rest"],
        tol=d["tol"], u_update=variant, workers=cfg.workers,
    )


class TestCrossVariantParityLimits:
    """PSNR parity across u-update variants is out of reach at the stock
    full13 denoising weights: matching results would require a
    lambda-weighted u-update numerator, which the exact normal equations
    rule out.  Kept as strict xfails so any behavior change shows up.
    """

    @pytest.mark.xfail(
        strict=True,
        reason="the stock full13 denoise weights are ~10x too small to "
        "match the reduced17 result under the exact u-update",
    )
    def test_full13_denoise_lands_within_one_db_of_reduced17(
        self, denoise_run, phantom_pgm, tmp_path
    ):
        _, reduced_row, _ = denoise_run
        code, stdout = run_cli(
            "denoise", "--input", phantom_pgm, "--out", str(tmp_path),
            "--variant", "full13", "--seed", "7",
        )
        assert code == 0
        full_row = parse_metrics(stdout)[0]
        assert abs(full_row["psnr_restored"] - reduced_row["psnr_restored"]) < 1.0
