"""End-to-end CLI runs: exit codes, outputs, metadata, determinism."""

import argparse
import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vtvrestore import cli, frames, quantize, write_pgm
from vtvrestore.cli import SETTINGS, build_parser, main

from conftest import make_phantom


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
        # the 256x256 grid has 8 row blocks, 4 a phase
        assert meta["metrics"]["threads"] == min(cli._sweep_workers(1), 4)

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
    def test_png_input_with_explicit_ref_and_iso_shrinkage(self, tmp_path):
        pil_image = pytest.importorskip("PIL.Image")
        img = make_phantom(64)
        png = tmp_path / "scene.png"
        ref = tmp_path / "scene_ref.pgm"
        pil_image.fromarray(quantize(img)).save(png)
        write_pgm(ref, img)
        code, stdout = run_cli(
            "denoise", "--input", str(png), "--ref", str(ref),
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
        "jobs, header",
        [
            (jobs, header)
            for header in (b"P5\nabc 4\n255\n", b"P5\n" + b"1" * 5000 + b" 4\n255\n")
            for jobs in ("1", "2")
        ]
        + [("1", b"P5\n0 0\n255\n"), ("1", b"P5\n4 4\n65535\n" + bytes(32))],
        ids=["1", "2", "1-5000-digit-width", "2-5000-digit-width", "1-0x0", "1-maxval-65535"],
    )
    def test_bad_image_in_a_batch_keeps_the_other_rows(
        self, small_pgm, tmp_path, capsys, jobs, header
    ):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(header)
        out = tmp_path / "o"
        code, stdout = run_cli(
            "denoise", "--input", small_pgm, str(bad), "--out", str(out), "--jobs", jobs
        )
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith(f"vtv-restore: error: {bad}: ")
        assert [row["image"] for row in parse_metrics(stdout)] == ["small"]
        assert (out / "small_restored.pgm").is_file()
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

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(config=st.fixed_dictionaries({}, optional={
        key: _json_values | _setting_values(kind) for key, (kind, _, _) in SETTINGS.items()
    }))
    @example(config={"sigma": 10**400})  # past the float range
    @example(config={"sigma": 1e300})  # noise whose squared error overflows
    def test_fuzzed_config_gives_a_result_or_error_lines(self, fuzz_dirs, config):
        # the path flags win over the config, so no fuzzed path is read or written
        image, out = fuzz_dirs
        cfg_path = out / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        err = io.StringIO()
        with redirect_stderr(err):
            code, _ = run_cli(
                "denoise", "--input", image, "--ref", image, "--out", str(out),
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
    assert cli._sweep_workers(processes) == workers


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
