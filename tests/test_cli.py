import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keypose import cli
from keypose.codec import encode_gaussian
from keypose.geometry import PlaneSize, Point
from keypose.raster import ImageGrid, read_grid_text, write_grid_text, write_pgm


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "keypose", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def _field(line: str, key: str) -> float:
    """The number after ``key=`` in a printed stats line."""
    return float(line.split(f"{key}=")[1].split()[0])


def run_cli_strict(*args):
    """``run_cli`` with every ``RuntimeWarning`` turned into an error."""
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "keypose", *args],
                          capture_output=True, text=True)


class TestTransformCommand:
    def test_crop_matrix_and_point(self):
        out = run_cli("transform", "--op", "crop", "--roi", "100,50,40,60", "--point", "80,20")
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        assert payload["matrix"] == [[1.0, 0.0, -80.0], [0.0, 1.0, -20.0], [0.0, 0.0, 1.0]]
        assert payload["point"] == [0.0, 0.0]

    def test_rotate_takes_degrees(self):
        out = run_cli("transform", "--op", "rotate", "--angle", "90", "--center", "0,0",
                      "--point", "1,0")
        payload = json.loads(out.stdout)
        assert abs(payload["point"][0]) < 1e-12
        assert abs(payload["point"][1] - 1.0) < 1e-12

    def test_invert_flag(self):
        out = run_cli("transform", "--op", "flip", "--width", "10", "--invert")
        payload = json.loads(out.stdout)
        assert payload["matrix"][0] == [-1.0, 0.0, 10.0]

    def test_missing_op_args_is_usage_error(self):
        out = run_cli("transform", "--op", "crop")
        assert out.returncode == 2
        assert "roi" in out.stderr

    def test_wrong_value_count_names_the_shape(self):
        out = run_cli("transform", "--op", "resize", "--src", "1,2,3", "--dst", "4,5")
        assert out.returncode == 2
        assert out.stderr == "error: expected W,H, got '1,2,3'\n"

    def test_point_error_surfaces(self):
        out = run_cli("transform", "--op", "rotate", "--angle", "10", "--center", "nan,1")
        assert out.returncode == 2
        assert out.stderr.startswith("error: point coordinates must be finite")

    def test_infinite_angle_is_usage_error(self, capsys):
        assert cli.main(["transform", "--op", "rotate", "--angle", "inf", "--center", "0,0"]) == 2
        assert capsys.readouterr() == ("", "error: rotation angle must be finite, got inf\n")

    def test_unknown_flag_is_usage_error(self):
        out = run_cli("transform", "--op", "flip", "--width", "10", "--frobnicate")
        assert out.returncode == 2


class TestWarpCommand:
    def test_flip_pgm_columns(self, tmp_path):
        grid = ImageGrid.from_array(np.arange(12, dtype=float).reshape(3, 4))
        src = tmp_path / "in.pgm"
        dst = tmp_path / "out.pgm"
        write_pgm(src, grid)
        out = run_cli("warp", "--image", str(src), "--out", str(dst), "--op", "flip")
        assert out.returncode == 0
        from keypose.raster import read_pgm

        assert np.array_equal(read_pgm(dst).data, grid.data[:, ::-1, :])

    @pytest.mark.parametrize("maxval,dtype", [(255, np.uint8), (65535, ">u2")])
    def test_flip_pgm_keeps_the_input_maxval(self, tmp_path, maxval, dtype):
        vals = np.array([[0, 1000, 40000], [65535, 300, 7]]) % (maxval + 1)
        head = f"P5\n3 2\n{maxval}\n".encode()
        src, dst = tmp_path / "in.pgm", tmp_path / "out.pgm"
        src.write_bytes(head + vals.astype(dtype).tobytes())
        out = run_cli("warp", "--image", str(src), "--out", str(dst), "--op", "flip")
        assert out.returncode == 0
        assert dst.read_bytes() == head + vals[:, ::-1].astype(dtype).tobytes()

    def test_resize_grid_text(self, tmp_path):
        xs = np.arange(3, dtype=float)
        grid = ImageGrid.from_array(np.tile(xs, (3, 1)))
        src = tmp_path / "in.grid"
        dst = tmp_path / "out.grid"
        write_grid_text(src, grid)
        out = run_cli(
            "warp", "--image", str(src), "--out", str(dst), "--op", "resize",
            "--dst-size", "5x5",
        )
        assert out.returncode == 0
        resized = read_grid_text(dst)
        assert resized.size.width_px == 5
        expected = np.tile(np.arange(5, dtype=float) / 2.0, (5, 1))
        assert np.max(np.abs(resized.data[:, :, 0] - expected)) < 1e-12


    @pytest.mark.parametrize("exc,message", [
        (MemoryError("Unable to allocate 74.5 GiB for an array"),
         "Unable to allocate 74.5 GiB for an array"),
        (MemoryError(), "MemoryError"),
    ])
    def test_out_of_memory_is_one_error_line(self, tmp_path, capsys, monkeypatch, exc, message):
        src = tmp_path / "g.grid"
        write_grid_text(src, ImageGrid.from_array(np.zeros((3, 3))))

        def no_memory(*args):
            raise exc

        monkeypatch.setattr(cli, "warp", no_memory)
        assert cli.main(["warp", "--image", str(src), "--out", str(tmp_path / "o.grid"),
                         "--op", "resize", "--dst-size", "100000x100000"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

_MISSING_FLAGS = [
    (["transform", "--op", "crop"], "--op crop requires --roi"),
    (["transform", "--op", "resize", "--dst", "4,5"], "--op resize requires --src"),
    (["transform", "--op", "resize", "--src", "4,5"], "--op resize requires --dst"),
    (["transform", "--op", "rotate", "--center", "0,0"], "--op rotate requires --angle (degrees)"),
    (["transform", "--op", "rotate", "--angle", "30"], "--op rotate requires --center"),
    (["transform", "--op", "flip"], "--op flip requires --width"),
    (["warp", "--op", "crop"], "--op crop requires --roi"),
    (["warp", "--op", "rotate", "--center", "1,1"], "--op rotate requires --angle (degrees)"),
]


def _with_image(argv, tmp_path):
    """``argv`` with a 3x3 grid as its ``--image`` and an ``--out`` path, for ``warp``."""
    if argv[0] != "warp":
        return argv
    src = tmp_path / "in.grid"
    write_grid_text(src, ImageGrid.from_array(np.arange(9, dtype=float).reshape(3, 3)))
    return [*argv, "--image", str(src), "--out", str(tmp_path / "out.grid")]


class TestElementaryBuilder:
    @pytest.mark.parametrize("argv,message", _MISSING_FLAGS)
    def test_a_missing_flag_is_named(self, tmp_path, capsys, argv, message):
        assert cli.main(_with_image(argv, tmp_path)) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_a_malformed_flag_is_named_before_a_later_missing_one(self, capsys):
        assert cli.main(["transform", "--op", "resize", "--src", "1,2,3"]) == 2
        assert capsys.readouterr().err == "error: expected W,H, got '1,2,3'\n"

    @pytest.mark.parametrize("argv", [
        ["transform", "--op", "flip", "--width", "10", "--center", "nan,1"],
        ["transform", "--op", "crop", "--roi", "1,1,2,2", "--src", "x", "--angle", "nan"],
        ["warp", "--op", "flip", "--roi", "x"],
        ["warp", "--op", "resize", "--roi", "x", "--center", "y"],
    ])
    def test_a_flag_the_op_does_not_read_is_not_parsed(self, tmp_path, capsys, argv):
        assert cli.main(_with_image(argv, tmp_path)) == 0
        assert capsys.readouterr().err == ""

    def test_warp_rotates_about_the_grid_center_by_default(self, tmp_path, capsys):
        argv = _with_image(["warp", "--op", "rotate", "--angle", "30"], tmp_path)
        assert cli.main(argv) == 0
        default = (tmp_path / "out.grid").read_bytes()
        assert cli.main([*argv, "--center", "1,1"]) == 0  # a 3x3 grid spans 2x2 units
        assert (tmp_path / "out.grid").read_bytes() == default
        assert cli.main([*argv, "--center", "0,0"]) == 0
        assert (tmp_path / "out.grid").read_bytes() != default


class TestCodecCommands:
    def test_encode_decode_ccrf_round_trip(self, tmp_path):
        path = tmp_path / "t.grid"
        out = run_cli("encode", "--codec", "ccrf", "--keypoint", "5.3,7.8",
                      "--size", "48x64", "--out", str(path))
        assert out.returncode == 0
        decoded = run_cli("decode", "--codec", "ccrf", "--heatmap", str(path))
        payload = json.loads(decoded.stdout)
        assert abs(payload["x"] - 5.3) < 1e-9
        assert abs(payload["y"] - 7.8) < 1e-9

    def test_encode_decode_gaussian_dark(self, tmp_path):
        path = tmp_path / "g.grid"
        run_cli("encode", "--codec", "cf", "--keypoint", "20.37,31.82",
                "--size", "48x64", "--out", str(path))
        payload = json.loads(run_cli("decode", "--codec", "cf", "--heatmap", str(path)).stdout)
        assert abs(payload["x"] - 20.37) < 1e-3
        assert abs(payload["y"] - 31.82) < 1e-3
        assert payload["degenerate"] is False

    def test_encode_tiny_sigma_without_warnings(self, tmp_path):
        # 2*sigma^2 is subnormal: exponents off the keypoint overflow to -inf.
        path = tmp_path / "spike.grid"
        out = run_cli_strict("encode", "--codec", "cf", "--keypoint", "1,1", "--size", "4x4",
                             "--sigma", "1e-160", "--out", str(path))
        assert (out.returncode, out.stderr) == (0, "")
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0
        assert np.array_equal(read_grid_text(path).data[:, :, 0], expected)

    def test_encode_sigma_whose_square_underflows_is_usage_error(self, tmp_path):
        out = run_cli_strict("encode", "--codec", "cf", "--keypoint", "1,1", "--size", "4x4",
                             "--sigma", "1e-320", "--out", str(tmp_path / "g.grid"))
        assert out.returncode == 2
        assert out.stderr == "error: sigma is too small: 2*sigma^2 underflows to 0, got 1e-320\n"

    @pytest.mark.parametrize("command", ["decode", "warp"])
    def test_bad_grid_header_names_the_file(self, tmp_path, command):
        path = tmp_path / "bad.grid"
        path.write_text("2.5 2 1\n1 2 3 4 5\n")
        argv = {"decode": ("decode", "--codec", "cf", "--heatmap", str(path)),
                "warp": ("warp", "--image", str(path), "--out", str(tmp_path / "o.grid"),
                         "--op", "flip")}[command]
        out = run_cli(*argv)
        assert out.returncode == 2
        assert out.stderr.startswith(f"error: {path}: bad grid header")

    @pytest.mark.parametrize("name,body,message", [
        ("value.grid", "2 2 1\n1 2 x 4\n", "could not convert string to float: 'x'"),
        ("nan.grid", "2 2 1\n1 2 nan 4\n", "grid values must be finite"),
        ("tiny.grid", "2 1 1\n1 2\n", "plane must be at least 2x2 pixels, got 1x2"),
        ("width.pgm", "P2\nabc 2\n255\n1 2 3 4\n",
         "invalid literal for int() with base 10: b'abc'"),
        ("sample.pgm", "P2\n2 2\n255\n1 2 x 4\n", "invalid literal for int() with base 10: b'x'"),
        ("tiny.pgm", "P2\n1 2\n255\n1 2\n", "plane must be at least 2x2 pixels, got 1x2"),
    ], ids=["grid-value", "grid-nan", "grid-size", "pgm-width", "pgm-sample", "pgm-size"])
    def test_parse_errors_name_the_file(self, tmp_path, name, body, message):
        path = tmp_path / name
        path.write_text(body)
        commands = [("warp", "--image", str(path), "--out", str(tmp_path / "o.grid"),
                     "--op", "flip")]
        if name.endswith(".grid"):
            commands.append(("decode", "--codec", "cf", "--heatmap", str(path)))
        for argv in commands:
            out = run_cli(*argv)
            assert out.returncode == 2
            assert out.stderr == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("body,message", [
        (b"P2\n2 2\n255\n-7 2 3 4\n", "sample -7 is outside 0..255"),
        (b"P2\n2 2\n3\n1 300 2 3\n", "sample 300 is outside 0..3"),
        (b"P5\n2 2\n100\n" + bytes([1, 2, 200, 4]), "sample 200 is outside 0..100"),
    ], ids=["p2-negative", "p2-above-maxval", "p5-above-maxval"])
    def test_pgm_samples_outside_maxval_are_refused(self, tmp_path, body, message):
        path = tmp_path / "bad.pgm"
        path.write_bytes(body)
        out = run_cli("warp", "--image", str(path), "--out", str(tmp_path / "o.pgm"),
                      "--op", "flip")
        assert out.returncode == 2
        assert out.stderr == f"error: {path}: {message}\n"
        assert not (tmp_path / "o.pgm").exists()

    @pytest.mark.parametrize("body,message", [
        (b"P5\n2 2\n255\n" + bytes(6), "expected 4 bytes of pixel data, got 6"),
        (b"P5\n2 2\n255\n" + bytes(3), "expected 4 bytes of pixel data, got 3"),
        (b"P5\n2 2\n65535\n" + bytes(9), "expected 8 bytes of pixel data, got 9"),
    ], ids=["trailing", "truncated", "sixteen-bit-trailing"])
    def test_p5_pixel_data_must_fill_the_raster_exactly(self, tmp_path, body, message):
        path = tmp_path / "bad.pgm"
        path.write_bytes(body)
        out = run_cli("warp", "--image", str(path), "--out", str(tmp_path / "o.pgm"),
                      "--op", "flip")
        assert out.returncode == 2
        assert out.stderr == f"error: {path}: {message}\n"
        assert not (tmp_path / "o.pgm").exists()

    @pytest.mark.parametrize("body,message", [
        (b"P5\n4", "truncated PGM header"),
        (b"P6\n2 2\n255\n" + bytes(12), "not a PGM file (magic b'P6')"),
        (b"P2\n2 2\n0\n0 0 0 0\n", "bad maxval 0"),
    ], ids=["truncated", "p6", "maxval-0"])
    def test_bad_pgm_header_is_refused(self, tmp_path, capsys, body, message):
        path = tmp_path / "bad.pgm"
        path.write_bytes(body)
        out = tmp_path / "o.pgm"
        assert cli.main(["warp", "--image", str(path), "--out", str(out), "--op", "flip"]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("codec,flag", [("ccrf", "--sigma"), ("cf", "--radius")])
    def test_encode_refuses_the_width_its_codec_does_not_read(self, tmp_path, capsys, codec,
                                                              flag):
        out = tmp_path / "t.grid"
        argv = ["encode", "--codec", codec, flag, "3", "--keypoint", "5.3,7.8", "--size", "16x16",
                "--out", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {flag} does not apply to the {codec} codec\n")
        assert not out.exists()

    def test_encode_cf_without_sigma_takes_the_encoder_default(self, tmp_path):
        def encoded(name, *flags):
            path = tmp_path / name
            argv = ["encode", "--codec", "cf", "--keypoint", "5.3,7.8", "--size", "16x12",
                    "--out", str(path), *flags]
            assert cli.main(argv) == 0
            return path.read_bytes()

        write_grid_text(tmp_path / "direct.grid",
                        encode_gaussian(Point(5.3, 7.8), PlaneSize(16, 12)).c)
        assert encoded("default.grid") == (tmp_path / "direct.grid").read_bytes()
        assert encoded("default.grid") == encoded("two.grid", "--sigma", "2")

    def test_decode_has_no_radius_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["decode", "--codec", "ccrf", "--heatmap", "t.grid", "--radius", "3"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith("error: unrecognized arguments: --radius 3\n")

    def test_decode_biased_quarter(self, tmp_path):
        path = tmp_path / "q.grid"
        run_cli("encode", "--codec", "cf", "--keypoint", "20.3,31.0",
                "--size", "48x64", "--out", str(path))
        payload = json.loads(
            run_cli("decode", "--codec", "cf-biased", "--heatmap", str(path)).stdout
        )
        assert payload["x"] == 20.25


@pytest.mark.parametrize("entry", ["warp", "simulate", "encode", "config"])
@pytest.mark.parametrize("size,message", [
    ("1x5", "plane must be at least 2x2 pixels, got 1x5"),
    ("4x5x", "expected WIDTHxHEIGHT pixels, got '4x5x'"),
], ids=["too-small", "malformed"])
def test_plane_size_errors_give_the_real_reason(tmp_path, capsys, entry, size, message):
    grid = tmp_path / "g.grid"
    write_grid_text(grid, ImageGrid.from_array(np.zeros((3, 4))))
    cfg = tmp_path / "p.cfg"
    cfg.write_text(f"convention=pixel_count\ninput_px={size}\noutput_px=48x64\n")
    argv = {
        "warp": ["warp", "--image", str(grid), "--out", str(tmp_path / "o.grid"),
                 "--op", "flip", "--dst-size", size],
        "simulate": ["simulate", "--seed", "1", "-n", "10", "--input", size],
        "encode": ["encode", "--codec", "cf", "--keypoint", "1,1", "--size", size,
                   "--out", str(tmp_path / "e.grid")],
        "config": ["simulate", "--seed", "1", "-n", "10", "--config", str(cfg)],
    }[entry]
    prefix = "config key input_px: " if entry == "config" else ""
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {prefix}{message}\n"


class TestSimulateCommand:
    def test_seed_is_required(self):
        out = run_cli("simulate", "-n", "100")
        assert out.returncode == 2

    def test_compensation_without_flip_is_usage_error(self):
        out = run_cli("simulate", "--seed", "1", "-n", "100", "--snoop")
        assert out.returncode == 2
        assert "flip" in out.stderr.lower()

    def test_ec_without_snoop_is_usage_error(self):
        out = run_cli("simulate", "--seed", "1", "-n", "100", "--ft", "--ec")
        assert out.returncode == 2

    def test_ec_without_snoop_names_both_flags(self, capsys):
        assert cli.main(["simulate", "--seed", "1", "-n", "10", "--ft", "--ec"]) == 2
        assert capsys.readouterr() == ("", "error: --ec only refines --snoop; pass both\n")

    def test_coco_document_that_is_not_an_object_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "ann.json"
        path.write_text("[]")
        assert cli.main(["simulate", "--seed", "1", "-n", "10", "--coco", str(path)]) == 2
        assert capsys.readouterr() == (
            "", f"error: {path}: expected an object with 'images' and 'annotations'\n")

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, jobs):
        out = run_cli("simulate", "--seed", "1", "-n", "10", "--jobs", jobs)
        assert out.returncode == 2
        assert out.stderr == f"error: need at least one job, got jobs={jobs}\n"

    def test_roi_error_surfaces(self):
        out = run_cli("simulate", "--seed", "1", "-n", "10", "--roi", "1,1,0,0")
        assert out.returncode == 2
        assert out.stderr.startswith("error: roi extents must be positive")

    def test_an_overflowing_source_error_sum_is_one_error_line(self):
        out = run_cli("simulate", "--seed", "1", "-n", "2000", "--roi", "1e308,1,1e308,1",
                      "--codec", "cf-biased")
        assert out.returncode == 2
        assert out.stderr == (
            "error: source-plane error sum overflows a float: crop box too large\n")

    @pytest.mark.parametrize("flags,box", [
        (["--roi", "1.7e308,1,1.7e308,1", "--codec", "cf-biased"],
         "cx=1.7e+308, cy=1.0, w=1.7e+308, h=1.0"),
        (["--mode", "heatmap", "--codec", "cf", "--rno", "--roi=1.7e308,0,1.7e308,1e-300"],
         "cx=1.7e+308, cy=0.0, w=1.7e+308, h=1e-300"),
    ])
    def test_a_box_past_the_largest_float_is_one_error_line(self, flags, box):
        out = run_cli_strict("simulate", "--seed", "1", "-n", "10", *flags)
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == f"error: crop box Roi({box}) maps a corner past the largest float\n"

    def test_a_box_below_the_float_spacing_prints_no_closed_form(self, capsys):
        # Every keypoint rounds to the box centre, so the run cannot meet the
        # quarter law's 0.125; the resolution guard withholds it.
        argv = ["simulate", "--seed", "1", "-n", "10000", "--roi", "1,1,1e-300,1e-300",
                "--codec", "cf-biased"]
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and "mean|ex|=0.250000" in lines[0]

    def test_biased_flip_run_reports_known_mean(self, tmp_path):
        report = tmp_path / "stats.csv"
        out = run_cli(
            "simulate", "--seed", "3", "-n", "2000", "--no-ucst", "--ft",
            "--codec", "argmax", "--report", str(report),
        )
        assert out.returncode == 0
        body = report.read_text().splitlines()
        assert len(body) == 2
        row = body[1].split(",")
        assert abs(float(row[2]) - 0.375) < 1e-9

    @pytest.mark.parametrize("radius,mode,closed", [
        ("0.8", "heatmap", False), ("1.02", "heatmap", True), ("0.8", "analytic", True),
    ])
    def test_closed_form_is_printed_only_where_it_holds_for_the_mode(
        self, tmp_path, capsys, radius, mode, closed
    ):
        # Averaged disc maps 0.75 apart meet the coordinate closed form only
        # when the discs always share a node (r > 1.0078); the coordinate
        # oracle always does.
        path = tmp_path / "F.cfg"
        path.write_text("convention=pixel_count\ninput_px=192x256\noutput_px=48x64\n"
                        f"flip_test=true\ncodec=ccrf\ncombine=average_heatmaps\nradius={radius}\n")
        argv = ["simulate", "--config", str(path), "--seed", "3", "-n", "4000", "--mode", mode]
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        if radius == "0.8" and mode == "heatmap":
            assert "mean|ex|=0.488643" in lines[0]
        assert lines[1:] == (["closed-form: mean|ex|=0.375000 var|ex|=0.000000"] if closed else [])

    @pytest.mark.parametrize("flags,closed", [
        (["--codec", "cf"], "mean|ex|=0.500000 var|ex|=0.000000"),
        (["--codec", "cf", "--ec"], "mean|ex|=0.375000 var|ex|=0.000000"),
        (["--codec", "cf-biased"], "mean|ex|=0.500000 var|ex|=0.020833"),
        (["--mode", "heatmap", "--codec", "cf"], None),
    ])
    def test_unit_length_snoop_closed_form_moves_the_aligned_ensemble_one_node(
        self, capsys, flags, closed
    ):
        # Unit-length branches coincide, so snoop leaves them one node apart:
        # half a node off, and rendered Gaussians a node apart have no closed form.
        argv = ["simulate", "--seed", "1", "-n", "2000", "--ucst", "--ft", "--snoop", *flags]
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == ([f"closed-form: {closed}"] if closed else [])

    @pytest.mark.parametrize("flag", ["--aspect", "--padding"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    def test_non_finite_or_zero_crop_fixing_is_a_usage_error_naming_it(
        self, tmp_path, capsys, flag, value
    ):
        doc = {"images": [{"id": 1, "width": 640, "height": 480}],
               "annotations": [{"id": 1, "image_id": 1, "bbox": [100.0, 80.0, 120.0, 160.0],
                                "keypoints": [160, 160, 2]}]}
        ann = tmp_path / "ann.json"
        ann.write_text(json.dumps(doc))
        argv = ["simulate", "--seed", "1", "-n", "20", "--coco", str(ann), flag, value]
        assert cli.main(argv) == 2
        field = {"--aspect": "target_aspect", "--padding": "padding"}[flag]
        shown = {"nan": "nan", "inf": "inf", "0": "0.0"}[value]
        message = f"error: {field} must be finite and positive, got {shown}\n"
        assert capsys.readouterr().err == message

    def test_config_file_input(self, tmp_path):
        cfg_path = tmp_path / "p.cfg"
        cfg_path.write_text(
            "convention=pixel_count\ninput_px=192x256\noutput_px=48x64\n"
            "flip_test=true\ncodec=argmax\n"
        )
        out = run_cli("simulate", "--seed", "3", "-n", "500", "--config", str(cfg_path))
        assert out.returncode == 0
        assert "mean|ex|=0.375" in out.stdout

    def test_output_flag_rederives_a_radius_the_config_file_leaves_unset(self, tmp_path):
        plain = tmp_path / "plain.cfg"
        plain.write_text("convention=unit_length\ninput_px=192x256\noutput_px=48x64\n"
                         "codec=ccrf\n")
        pinned = tmp_path / "pinned.cfg"
        pinned.write_text(plain.read_text() + "radius=3.0\n")

        def radius(*argv):
            args = cli.build_parser().parse_args(["simulate", "--seed", "1", *argv])
            return cli._config_from_args(args).radius

        assert radius("--codec", "ccrf", "--output", "96x128") == 6.0
        assert radius("--config", str(plain), "--output", "96x128") == 6.0
        assert radius("--config", str(plain)) == 3.0
        assert radius("--config", str(pinned), "--output", "96x128") == 3.0
        assert radius("--config", str(plain), "--output", "96x128", "--radius", "4") == 4.0

    def test_config_file_combine_survives_the_codec_flag(self, tmp_path):
        # Naming the file's own codec again must not reset the file's
        # combine to the codec default (coordinate averaging: 0.375).
        path = tmp_path / "f.cfg"
        path.write_text("convention=pixel_count\ninput_px=192x256\noutput_px=48x64\n"
                        "flip_test=true\ncodec=ccrf\ncombine=average_heatmaps\nradius=0.8\n")
        argv = ("simulate", "--seed", "3", "-n", "4000", "--mode", "heatmap",
                "--config", str(path))
        plain, flagged = run_cli(*argv), run_cli(*argv, "--codec", "ccrf")
        assert "mean|ex|=0.488643" in plain.stdout
        assert flagged.returncode == 0
        assert flagged.stdout == plain.stdout

    def test_config_file_needs_to_be_valid_only_with_the_flags(self, tmp_path):
        path = tmp_path / "rno.cfg"
        path.write_text("convention=unit_length\ninput_px=192x256\noutput_px=48x64\n"
                        "codec=ccrf\nrno=true\n")
        argv = ("simulate", "--seed", "1", "-n", "200", "--config", str(path))
        assert "rno cannot be used with the ccrf codec" in run_cli(*argv).stderr
        out = run_cli(*argv, "--codec", "cf")
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("unit_length+cf+rno+s4 ")

    @pytest.mark.parametrize("config", [False, True], ids=["flags", "file"])
    def test_one_config_is_built(self, tmp_path, monkeypatch, config):
        path = tmp_path / "p.cfg"
        path.write_text("convention=pixel_count\ninput_px=192x256\noutput_px=48x64\n")
        built = []
        check = cli.PipelineConfig.__post_init__

        def counted(cfg):
            built.append(cfg)
            check(cfg)

        monkeypatch.setattr(cli.PipelineConfig, "__post_init__", counted)
        argv = ["simulate", "--seed", "1", "--ft", "--codec", "cf", "--output", "96x128"]
        args = cli.build_parser().parse_args(argv + (["--config", str(path)] if config else []))
        assert [cli._config_from_args(args)] == built

    @pytest.mark.parametrize("flags,message", [
        (("--sigma", "nan", "--codec", "cf"), "sigma must be finite and positive, got nan"),
        (("--sigma", "nan", "--codec", "cf", "--mode", "heatmap"),
         "sigma must be finite and positive, got nan"),
        (("--radius", "nan", "--mode", "heatmap"), "radius must be finite and positive, got nan"),
        (("--margin", "nan"), "margin must be finite, got nan"),
        (("--sigma", "inf", "--codec", "cf"), "sigma must be finite and positive, got inf"),
    ], ids=["sigma-analytic", "sigma-heatmap", "radius", "margin", "sigma-inf"])
    def test_non_finite_values_are_usage_errors(self, flags, message):
        out = run_cli("simulate", "--seed", "1", "-n", "200", *flags)
        assert out.returncode == 2
        assert out.stderr == f"error: {message}\n"

    def test_sigma_whose_square_underflows_is_usage_error(self):
        out = run_cli_strict("simulate", "--seed", "1", "-n", "20", "--sigma", "1e-320",
                             "--mode", "heatmap", "--codec", "cf")
        assert out.returncode == 2
        assert out.stderr == "error: sigma is too small: 2*sigma^2 underflows to 0, got 1e-320\n"

    def test_tiny_sigma_heatmap_run_has_no_warnings_and_no_closed_form(self):
        out = run_cli_strict("simulate", "--seed", "1", "-n", "20", "--sigma", "1e-160",
                             "--mode", "heatmap", "--codec", "cf")
        assert (out.returncode, out.stderr) == (0, "")
        assert "degenerate=20" in out.stdout
        assert "closed-form" not in out.stdout

    @pytest.mark.parametrize("sigma,closed", [("999.999", True), ("999.99999999", False)])
    def test_newton_closed_form_ends_short_of_the_rounding_window(self, capsys, sigma, closed):
        argv = ["simulate", "--seed", "1", "-n", "4000", "--sigma", sigma, "--margin", "3",
                "--mode", "heatmap", "--codec", "cf"]
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert ("degenerate=0" in lines[0]) is closed
        assert lines[1:] == (["closed-form: mean|ex|=0.000000 var|ex|=0.000000"] if closed else [])

    def test_config_file_with_nan_sigma_is_refused(self, tmp_path):
        path = tmp_path / "nan.cfg"
        path.write_text("convention=unit_length\ninput_px=192x256\noutput_px=48x64\n"
                        "codec=cf\nsigma=nan\n")
        out = run_cli("simulate", "--seed", "1", "-n", "200", "--config", str(path))
        assert out.returncode == 2
        assert out.stderr == "error: sigma must be finite and positive, got nan\n"

    def test_config_file_with_a_repeated_key_is_refused(self, tmp_path):
        path = tmp_path / "twice.cfg"
        path.write_text("convention=unit_length\ninput_px=192x256\noutput_px=48x64\n"
                        "convention=pixel_count\n")
        out = run_cli("simulate", "--seed", "1", "-n", "200", "--config", str(path))
        assert out.returncode == 2
        assert out.stderr == "error: config line 4: duplicate key 'convention'\n"

    def test_config_file_that_is_not_ascii_is_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"convention=unit_length\ninput_px=192x256\noutput_px=48x64\n# \xff\n")
        out = run_cli("simulate", "--seed", "7", "-n", "10", "--config", str(path))
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == (f"error: {path}: 'ascii' codec can't decode byte 0xff in "
                              "position 58: ordinal not in range(128)\n")

    def test_byte_identical_reports_for_same_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("simulate", "--seed", "11", "-n", "3000", "--no-ucst", "--ft",
                "--codec", "cf-biased", "--mode", "analytic")
        assert run_cli(*args, "--report", str(a)).returncode == 0
        assert run_cli(*args, "--report", str(b)).returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_a_non_ascii_label_reaches_the_csv_report(self, tmp_path, capsys):
        report = tmp_path / "r.csv"
        assert cli.main(["simulate", "--seed", "1", "-n", "10", "--label", "bias-\u00e9",
                         "--report", str(report)]) == 0
        assert capsys.readouterr().err == ""
        with open(report, newline="", encoding="utf-8") as fh:
            assert [row["label"] for row in csv.DictReader(fh)] == ["bias-\u00e9"]

    def test_a_label_that_is_not_utf8_is_refused_before_any_trial(self, tmp_path):
        # No stats line: the refusal comes before the run, and no report is opened.
        report = tmp_path / "r.csv"
        out = subprocess.run([sys.executable, "-m", "keypose", "simulate", "--seed", "1", "-n",
                              "10", "--label", b"bias\xff", "--report", str(report)],
                             capture_output=True, text=True)
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == "error: --label is not valid UTF-8 text\n"
        assert not report.exists()

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_a_closed_stdout_ends_quietly_with_the_sigpipe_status(self, unbuffered):
        # The reader closes before the command prints: a buffered stdout fails
        # at its flush, an unbuffered one at the first print.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env.update({"PYTHONUNBUFFERED": "1"} if unbuffered else {})
        proc = subprocess.Popen([sys.executable, "-m", "keypose", "simulate", "--seed", "7",
                                 "-n", "100"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=env)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (141, b"")

    def test_coco_sampler_smoke(self, tmp_path):
        doc = {
            "images": [{"id": 1, "width": 640, "height": 480}],
            "annotations": [
                {
                    "id": 1,
                    "image_id": 1,
                    "bbox": [100.0, 80.0, 120.0, 160.0],
                    "keypoints": [160, 160, 2, 130, 200, 1],
                }
            ],
        }
        ann = tmp_path / "ann.json"
        ann.write_text(json.dumps(doc))
        out = run_cli("simulate", "--seed", "2", "-n", "200", "--coco", str(ann),
                      "--codec", "ccrf")
        assert out.returncode == 0

    def test_coco_run_prints_the_closed_form(self, tmp_path, capsys):
        doc = {"images": [{"id": 1, "width": 640, "height": 480}],
               "annotations": [{"id": 1, "image_id": 1, "bbox": [100.0, 80.0, 120.0, 160.0],
                                "keypoints": [160, 160, 2, 130, 200, 1]}]}
        ann = tmp_path / "ann.json"
        ann.write_text(json.dumps(doc))
        argv = ["simulate", "--seed", "2", "-n", "200", "--coco", str(ann),
                "--no-ucst", "--ft", "--codec", "cf"]
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == ["closed-form: mean|ex|=0.375000 var|ex|=0.000000"]

    def test_coco_run_prints_no_quarter_law_closed_form(self, tmp_path, capsys):
        # Integer keypoints sit at a few fixed places in their node cells, so
        # the quarter-shift decoder's law for a uniform sampler does not hold.
        rng = random.Random(3)
        annotations = [{"id": i + 1, "image_id": 1, "bbox": [100, 50, 192, 256],
                        "keypoints": [v for _ in range(17)
                                      for v in (rng.randint(120, 272), rng.randint(70, 286), 2)]}
                       for i in range(20)]
        ann = tmp_path / "ann.json"
        ann.write_text(json.dumps({"images": [{"id": 1, "width": 640, "height": 480}],
                                   "annotations": annotations}))
        argv = ["simulate", "--seed", "1", "-n", "20000", "--coco", str(ann), "--padding", "1.0",
                "--codec", "cf-biased"]
        assert cli.main(argv) == 0
        (stats,) = capsys.readouterr().out.splitlines()
        n, mean, var = (_field(stats, key) for key in ("n", "mean|ex|", "var|ex|"))
        assert mean - 0.125 > 5 * math.sqrt(var / n)

    @pytest.mark.parametrize("flags", [[], ["--ft", "--snoop", "--no-ucst"]], ids=["one", "snoop"])
    def test_quarter_closed_form_holds_on_a_range_of_partial_nodes(self, capsys, flags):
        # The sampled range, 47 - 2 * 20.6 = 5.8 nodes, is not whole, so the
        # law per node cell misses the run by 18 and 14 SEM.
        argv = ["simulate", "--seed", "1", "-n", "200000", "--codec", "cf-biased",
                "--margin", "20.6", *flags]
        assert cli.main(argv) == 0
        stats, closed = capsys.readouterr().out.splitlines()
        n, mean, var = (_field(stats, key) for key in ("n", "mean|ex|", "var|ex|"))
        assert abs(mean - _field(closed, "mean|ex|")) < 5 * math.sqrt(var / n)

    def test_coco_unknown_image_id_is_usage_error(self, tmp_path):
        doc = {
            "images": [{"id": 1, "width": 640, "height": 480}],
            "annotations": [
                {"id": 7, "image_id": 2, "bbox": [100.0, 80.0, 120.0, 160.0],
                 "keypoints": [160, 160, 2]}
            ],
        }
        ann = tmp_path / "ann.json"
        ann.write_text(json.dumps(doc))
        out = run_cli("simulate", "--seed", "2", "-n", "20", "--coco", str(ann))
        assert out.returncode == 2
        assert out.stderr.startswith("error: ")
        assert "unknown image id 2" in out.stderr
        assert "Traceback" not in out.stderr


    def test_coco_every_trial_skipped_is_usage_error(self, tmp_path):
        # The only labeled keypoint lies far outside its padded crop box.
        doc = {
            "images": [{"id": 1, "width": 640, "height": 480}],
            "annotations": [
                {"id": 1, "image_id": 1, "bbox": [100.0, 80.0, 120.0, 160.0],
                 "keypoints": [600, 10, 2]}
            ],
        }
        ann = tmp_path / "ann.json"
        ann.write_text(json.dumps(doc))
        out = run_cli("simulate", "--seed", "1", "-n", "50", "--coco", str(ann))
        assert out.returncode == 2
        assert out.stderr.startswith("error: ")
        assert "every trial was skipped" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("field,value,shown", [
        ("keypoints", [160, 160, math.inf], "cannot convert float infinity to integer"),
        ("keypoints", [160, 160, None], "int() argument must be"),
        ("keypoints", [None, 160, 2], "float() argument must be"),
        ("bbox", [math.nan, 80.0, 120.0, 160.0], "bbox must be finite, got [nan, 80.0"),
    ], ids=["inf-visibility", "null-visibility", "null-coordinate", "nan-bbox"])
    def test_coco_bad_annotation_value_is_usage_error_naming_it(
        self, tmp_path, capsys, field, value, shown
    ):
        ann = {"id": 7, "image_id": 1, "bbox": [100.0, 80.0, 120.0, 160.0],
               "keypoints": [160, 160, 2]}
        ann[field] = value
        path = tmp_path / "ann.json"
        path.write_text(json.dumps({"images": [{"id": 1, "width": 640, "height": 480}],
                                    "annotations": [ann]}))
        assert cli.main(["simulate", "--seed", "1", "-n", "20", "--coco", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: annotation 7: {shown}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("visibility", [-1, 7, 0.5, 1e300, 10 ** 400],
                             ids=["-1", "7", "0.5", "1e300", "10**400"])
    def test_coco_visibility_outside_0_1_2_is_usage_error(self, tmp_path, capsys, visibility):
        ann = {"id": 7, "image_id": 1, "bbox": [100.0, 80.0, 120.0, 160.0],
               "keypoints": [160, 160, 2, 130, 200, visibility]}
        path = tmp_path / "ann.json"
        path.write_text(json.dumps({"images": [{"id": 1, "width": 640, "height": 480}],
                                    "annotations": [ann]}))
        assert cli.main(["simulate", "--seed", "1", "-n", "10", "--coco", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: annotation 7: keypoint visibility must be 0, 1 or 2, got {visibility}\n")

    def test_coco_infinite_coordinate_names_the_first_bad_keypoint(self, tmp_path, capsys):
        ann = {"id": 7, "image_id": 1, "bbox": [100.0, 80.0, 120.0, 160.0],
               "keypoints": [160, 160, 2, 130, math.inf, 1, -math.inf, 5, 2]}
        path = tmp_path / "ann.json"
        path.write_text(json.dumps({"images": [{"id": 1, "width": 640, "height": 480}],
                                    "annotations": [ann]}))
        assert "Infinity" in path.read_text()
        assert cli.main(["simulate", "--seed", "1", "-n", "20", "--coco", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: annotation 7: point coordinates must be finite, got (130.0, inf)\n")

    def test_coco_without_a_labeled_keypoint_is_usage_error(self, tmp_path, capsys):
        anns = [{"id": i, "image_id": 1, "bbox": [100.0, 80.0, 120.0, 160.0],
                 "keypoints": [160, 160, 0, 130, 200, 0]} for i in (1, 2)]
        path = tmp_path / "ann.json"
        path.write_text(json.dumps({"images": [{"id": 1, "width": 640, "height": 480}],
                                    "annotations": anns}))
        assert cli.main(["simulate", "--seed", "1", "-n", "20", "--coco", str(path)]) == 2
        assert capsys.readouterr().err == "error: no visible keypoints to sample from\n"

    @pytest.mark.parametrize("edit,shown", [
        (lambda d: d.update(annotations=[5]), "annotation #0: expected an object, got int"),
        (lambda d: d.update(annotations={"a": 1}), "annotations: expected an array"),
        (lambda d: d["annotations"][0].update(keypoints=5), "annotation 7: object of type"),
        (lambda d: d["annotations"][0].update(image_id=[1]), "annotation 7: unhashable type"),
        (lambda d: d["annotations"][0].pop("image_id"), "annotation 7: missing field 'image_id'"),
        (lambda d: d.update(images=5), "images: expected an array of records, got int"),
        (lambda d: d.update(images=[5]), "image #0: expected an object, got int"),
        (lambda d: d["images"][0].update(width="abc"), "image 1: invalid literal for int()"),
        (lambda d: d["images"][0].update(width=1), "image 1: plane must be at least 2x2"),
    ], ids=["annotation-int", "annotations-object", "keypoints-int", "image-id-list",
            "image-id-missing", "images-int", "image-int", "width-text", "width-one"])
    def test_coco_malformed_record_is_usage_error_naming_it(self, tmp_path, edit, shown):
        doc = {"images": [{"id": 1, "width": 640, "height": 480}],
               "annotations": [{"id": 7, "image_id": 1, "bbox": [100.0, 80.0, 120.0, 160.0],
                                "keypoints": [160, 160, 2]}]}
        edit(doc)
        path = tmp_path / "ann.json"
        path.write_text(json.dumps(doc))
        out = run_cli("simulate", "--seed", "1", "-n", "20", "--coco", str(path))
        assert out.returncode == 2
        assert out.stderr.startswith(f"error: {shown}")
        assert out.stderr.count("\n") == 1
        assert "Traceback" not in out.stderr
        assert out.stdout == ""

    @pytest.mark.parametrize("flags,shown", [
        (["--coco", "{coco}", "--padding", "1e-320"],
         "crop box Roi(cx=160.0, cy=160.0, w=1.199987e-318, h=1.59998e-318) maps to transform "
         "entries that are not finite"),
        (["--roi", "1,1,1e-320,1"],
         "crop box Roi(cx=1.0, cy=1.0, w=1e-320, h=1.0) maps to transform entries that are "
         "not finite"),
        (["--coco", "{coco}", "--aspect", "1e-320"],
         "crop box Roi(cx=160.0, cy=160.0, w=150.0, h=inf) has a field that is not finite"),
    ], ids=["coco-padding", "roi", "coco-aspect"])
    def test_a_refused_crop_box_is_named_on_one_error_line(self, tmp_path, capsys, flags, shown):
        path = tmp_path / "ann.json"
        path.write_text(json.dumps({
            "images": [{"id": 1, "width": 640, "height": 480}],
            "annotations": [{"id": 7, "image_id": 1, "bbox": [100.0, 80.0, 120.0, 160.0],
                             "keypoints": [160, 160, 2]}]}))
        argv = [a.replace("{coco}", str(path)) for a in flags]
        assert cli.main(["simulate", "--seed", "1", "-n", "10", *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {shown}\n")

    @pytest.mark.parametrize("body", [
        pytest.param(b'{"images": [], "annotations": [{"keypoints": [' + b"9" * 5001 + b"]}]}",
                     marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                              reason="no integer digit limit")),
        b'{"images": [], "annotations": [], "\xff": 1}',
    ], ids=["5001-digit-integer", "not-utf8"])
    def test_an_unreadable_annotation_file_is_one_error_line_naming_it(self, tmp_path, capsys,
                                                                        body):
        path = tmp_path / "ann.json"
        path.write_bytes(body)
        assert cli.main(["simulate", "--seed", "1", "-n", "10", "--coco", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {path}: unreadable JSON: ")
        assert err.count("\n") == 1

    def test_coco_singular_crop_box_under_rno_is_usage_error(self, tmp_path, capsys):
        # The decode plane -> source map inverts source -> input, whose
        # determinant underflows for a 1e200 box.
        doc = {"images": [{"id": 1, "width": 640, "height": 480}],
               "annotations": [{"id": 1, "image_id": 1, "bbox": [0.0, 0.0, 1e200, 1e200],
                                "keypoints": [160, 160, 2]}]}
        path = tmp_path / "ann.json"
        path.write_text(json.dumps(doc))
        argv = ["simulate", "--seed", "1", "-n", "20", "--coco", str(path), "--rno",
                "--codec", "cf"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            "error: crop box Roi(cx=5e+199, cy=5e+199, w=1.2499999999999999e+200, "
            "h=1.6666666666666667e+200) maps to a singular transform (det=0.0)\n")

    @pytest.mark.parametrize("flags", [("--roi", "170,160,120,160"), ("--margin", "5")],
                             ids=["roi", "margin"])
    def test_coco_refuses_uniform_sampler_flags(self, tmp_path, flags):
        # The crop boxes come from the annotations, so --roi and --margin
        # would be ignored; they are refused instead.
        doc = {
            "images": [{"id": 1, "width": 640, "height": 480}],
            "annotations": [
                {"id": 1, "image_id": 1, "bbox": [100.0, 80.0, 120.0, 160.0],
                 "keypoints": [160, 160, 2]}
            ],
        }
        ann = tmp_path / "ann.json"
        ann.write_text(json.dumps(doc))
        out = run_cli("simulate", "--seed", "1", "-n", "50", "--coco", str(ann), *flags)
        assert out.returncode == 2
        assert out.stderr.startswith("error: ")
        assert "--roi and --margin do not apply to --coco" in out.stderr
        assert out.stdout == ""

    @pytest.mark.parametrize("flags", [("--aspect", "2"), ("--padding", "1.5")],
                             ids=["aspect", "padding"])
    def test_coco_crop_flags_need_coco(self, flags):
        # The default sampler's crop box is fixed, so --aspect and --padding
        # would be ignored; they are refused instead.
        out = run_cli("simulate", "--seed", "1", "-n", "10", *flags)
        assert out.returncode == 2
        assert out.stderr == ("error: --aspect and --padding apply only to --coco, which "
                              "fixes crop boxes from the annotations\n")
        assert out.stdout == ""

    @pytest.mark.parametrize("flags,message", [
        (("--sigma", "2", "--codec", "ccrf"), "--sigma does not apply to the ccrf codec"),
        (("--radius", "2", "--codec", "cf"), "--radius does not apply to the cf codec"),
        (("--radius", "2", "--config", "{cfg}"), "--radius does not apply to the cf-biased codec"),
    ], ids=["sigma-ccrf", "radius-cf", "radius-config-codec"])
    def test_width_flag_its_codec_does_not_read_is_usage_error(
        self, tmp_path, capsys, flags, message
    ):
        path = tmp_path / "biased.cfg"
        path.write_text("convention=unit_length\ninput_px=192x256\noutput_px=48x64\n"
                        "codec=cf_biased\n")
        argv = [a.replace("{cfg}", str(path)) for a in flags]
        assert cli.main(["simulate", "--seed", "1", "-n", "10", *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_config_file_width_keys_are_not_refused(self, tmp_path, capsys):
        path = tmp_path / "ccrf.cfg"
        path.write_text("convention=unit_length\ninput_px=192x256\noutput_px=48x64\n"
                        "codec=ccrf\nsigma=3.0\n")
        assert cli.main(["simulate", "--seed", "1", "-n", "10", "--config", str(path)]) == 0
        assert capsys.readouterr().err == ""


class TestVerifyCommand:
    def test_verify_passes_and_prints_lines(self):
        out = run_cli("verify")
        assert out.returncode == 0
        lines = [l for l in out.stdout.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) >= 10
        assert all(l.startswith("PASS") for l in lines)

    def test_default_seed_stdout_is_pinned(self):
        out = run_cli("verify")
        assert out.returncode == 0
        lines = "".join(f"PASS  {name}  ({tail})\n" for name, tail in VERIFY_CHECKS)
        assert out.stdout == lines + "11/11 checks passed\n"

    def test_failing_check_prints_detail_and_exits_1(self, monkeypatch, capsys):
        real = cli.decode_ccrf

        def off_by_a_micron(target):
            d = real(target)
            return dataclasses.replace(d, k=Point(d.k.x + 1e-6, d.k.y))

        monkeypatch.setattr(cli, "decode_ccrf", off_by_a_micron)
        assert cli.main(["verify"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[6] == "FAIL  disc codec round trip is exact  (max=1.00e-06, bound 1e-12)"
        assert [l[:6] for l in lines[:11]] == ["PASS  "] * 6 + ["FAIL  "] + ["PASS  "] * 4
        assert lines[11] == "10/11 checks passed"

    def test_a_monte_carlo_mean_off_its_closed_form_fails(self, monkeypatch, capsys):
        # 1e-4 is inside the quarter row's 5 SEM (0.00256), but the remedy
        # runs have no sampling noise, so 5 SEM + 1e-9 leaves them 1e-9.
        real = cli.monte_carlo

        def off(*args, **kwargs):
            stats = real(*args, **kwargs)
            return dataclasses.replace(stats, mean_abs_x=stats.mean_abs_x + 1e-4)

        monkeypatch.setattr(cli, "monte_carlo", off)
        assert cli.main(["verify"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[3] == ("FAIL  flip remedy none: mean |x error| = 0.375  "
                            "(got 0.375100, bound 1e-09)")
        assert [l[:6] for l in lines[:11]] == ["PASS  "] * 3 + ["FAIL  "] * 3 + ["PASS  "] * 5
        assert lines[11] == "8/11 checks passed"

    def test_a_newton_decode_off_by_a_nanometre_fails(self, monkeypatch, capsys):
        real = cli.decode_dark

        def off(plane):
            d = real(plane)
            return dataclasses.replace(d, k=Point(d.k.x + 1e-9, d.k.y))

        monkeypatch.setattr(cli, "decode_dark", off)
        assert cli.main(["verify"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[7] == ("FAIL  one-step Newton decode recovers exact peaks  "
                            "(max=1.00e-09, bound 1e-12)")
        assert [l[:6] for l in lines[:11]] == ["PASS  "] * 7 + ["FAIL  "] + ["PASS  "] * 3
        assert lines[11] == "10/11 checks passed"


# Each check's name and its measured value and bound at the default seed.
VERIFY_CHECKS = (
    ("round trip to source is the identity", "max=3.41e-13, bound 1e-09"),
    ("flip ensemble aligns (unit-length ratios)", "max=1.42e-14, bound 1e-09"),
    ("pixel-count flip offset equals (1-s)/s", "max=0.00e+00, bound 1e-09"),
    ("flip remedy none: mean |x error| = 0.375", "got 0.375000, bound 1e-09"),
    ("flip remedy snoop: mean |x error| = 0.125", "got 0.125000, bound 1e-09"),
    ("flip remedy snoop_plus_ec: mean |x error| = 0.0", "got 0.000000, bound 1e-09"),
    ("disc codec round trip is exact", "max=0.00e+00, bound 1e-12"),
    ("one-step Newton decode recovers exact peaks", "max=8.88e-16, bound 1e-12"),
    ("quarter-shift decoder: mean |error| = 1/8", "got 0.124559, bound 0.00256"),
    ("quarter-shift decoder: var |error| = 1/192", "got 0.005230, bound 0.000521"),
    ("closed-form table matches its constants", "max=1.73e-17, bound 1e-12"),
)


class TestAblateCommand:
    def test_topdown_grid_rows(self, tmp_path):
        report = tmp_path / "grid.csv"
        out = run_cli("ablate", "--preset", "topdown", "--seed", "4", "-n", "400",
                      "--report", str(report))
        assert out.returncode == 0
        rows = report.read_text().splitlines()
        assert len(rows) == 10  # header + rows A..I
        labels = [r.split(",")[0] for r in rows[1:]]
        assert labels[0].startswith("A:")
        assert labels[-1].startswith("I:")

    @pytest.mark.parametrize("preset", ["topdown", "bottomup"])
    def test_heatmap_report_is_the_same_for_any_worker_count(self, tmp_path, capsys, preset):
        # Two chunks per row, so two workers split every row.
        reports = []
        for jobs in ("1", "2"):
            reports.append(tmp_path / f"jobs{jobs}.csv")
            assert cli.main(["ablate", "--preset", preset, "--mode", "heatmap", "--seed", "6",
                             "-n", "4200", "--jobs", jobs, "--report", str(reports[-1])]) == 0
        assert reports[0].read_bytes() == reports[1].read_bytes()

    @pytest.mark.parametrize("argv,rows", [(["ablate", "--preset", "topdown"], 9),
                                           (["simulate", "--label", "row"], 1)])
    def test_rows_run_through_the_module_monte_carlo(self, monkeypatch, capsys, argv, rows):
        # Row timers replace ``cli.monte_carlo`` after import; every row must reach
        # the replacement, and print the stats it returns.
        real, seen = cli.monte_carlo, []

        def recorded(*args, **kwargs):
            seen.append(kwargs["label"])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "monte_carlo", recorded)
        assert cli.main([*argv, "--seed", "3", "-n", "50"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(seen) == rows
        assert [line.split("  ")[0] for line in lines if "  n=50  " in line] == seen

    def test_bottomup_grid_rows(self, tmp_path):
        report = tmp_path / "grid.csv"
        out = run_cli("ablate", "--preset", "bottomup", "--seed", "4", "-n", "200",
                      "--mode", "heatmap", "--report", str(report))
        assert out.returncode == 0
        rows = report.read_text().splitlines()
        assert len(rows) == 11  # header + rows A..J


# ``ablate --seed 3 -n 5000`` stdout, two chunks per row.  Refactors of the
# engine must leave these bytes alone; the topdown rows print the same in
# both oracle modes at this seed.
ABLATE_STDOUT = {
    ("topdown", "analytic"): """\
A:pixel_count+cf_biased+s4  n=5000  mean|ex|=0.125978  mean|ey|=0.124238  var|ex|=0.005219  mean|ex_src|=0.251956  skipped=0 failed=0 degenerate=0
B:unit_length+cf_biased+s4  n=5000  mean|ex|=0.125978  mean|ey|=0.124238  var|ex|=0.005219  mean|ex_src|=0.257317  skipped=0 failed=0 degenerate=0
C:pixel_count+cf_biased+ft+s4  n=5000  mean|ex|=0.377252  mean|ey|=0.124238  var|ex|=0.021021  mean|ex_src|=0.754504  skipped=0 failed=0 degenerate=0
D:unit_length+cf_biased+ft+s4  n=5000  mean|ex|=0.125978  mean|ey|=0.124238  var|ex|=0.005219  mean|ex_src|=0.257317  skipped=0 failed=0 degenerate=0
E:pixel_count+cf_biased+ft+snoop+s4  n=5000  mean|ex|=0.155970  mean|ey|=0.124238  var|ex|=0.011760  mean|ex_src|=0.311939  skipped=0 failed=0 degenerate=0
F:pixel_count+cf_biased+ft+snoop_plus_ec+s4  n=5000  mean|ex|=0.125822  mean|ey|=0.124238  var|ex|=0.005192  mean|ex_src|=0.251644  skipped=0 failed=0 degenerate=0
G:pixel_count+ccrf+ft+s4  n=5000  mean|ex|=0.375000  mean|ey|=0.000000  var|ex|=0.000000  mean|ex_src|=0.750000  skipped=0 failed=0 degenerate=0
H:unit_length+ccrf+ft+s4  n=5000  mean|ex|=0.000000  mean|ey|=0.000000  var|ex|=0.000000  mean|ex_src|=0.000000  skipped=0 failed=0 degenerate=0
I:unit_length+cf+ft+s4  n=5000  mean|ex|=0.000000  mean|ey|=0.000000  var|ex|=0.000000  mean|ex_src|=0.000000  skipped=0 failed=0 degenerate=0
""",
    ("bottomup", "analytic"): """\
A:pixel_count+cf_biased+ft+rno+s4  n=5000  mean|ex|=0.375110  mean|ey|=0.031363  var|ex|=0.001283  mean|ex_src|=0.750220  skipped=0 failed=0 degenerate=0
B:unit_length+cf_biased+ft+s4  n=5000  mean|ex|=0.124689  mean|ey|=0.123726  var|ex|=0.005100  mean|ex_src|=0.257423  skipped=0 failed=0 degenerate=0
C:unit_length+cf+ft+s4  n=5000  mean|ex|=0.000000  mean|ey|=0.000000  var|ex|=0.000000  mean|ex_src|=0.000000  skipped=0 failed=0 degenerate=0
D:unit_length+cf+ft+rno+s4  n=5000  mean|ex|=0.000000  mean|ey|=0.000000  var|ex|=0.000000  mean|ex_src|=0.000000  skipped=0 failed=0 degenerate=0
E:pixel_count+cf_biased+ft+s2  n=5000  mean|ex|=0.248218  mean|ey|=0.124238  var|ex|=0.020862  mean|ex_src|=0.248218  skipped=0 failed=0 degenerate=0
F:pixel_count+cf_biased+ft+rno+s2  n=5000  mean|ex|=0.250268  mean|ey|=0.062405  var|ex|=0.005168  mean|ex_src|=0.250268  skipped=0 failed=0 degenerate=0
G:pixel_count+cf+ft+rno+s2  n=5000  mean|ex|=0.250000  mean|ey|=0.000000  var|ex|=0.000000  mean|ex_src|=0.250000  skipped=0 failed=0 degenerate=0
H:unit_length+cf_biased+ft+s2  n=5000  mean|ex|=0.124723  mean|ey|=0.124238  var|ex|=0.005168  mean|ex_src|=0.126703  skipped=0 failed=0 degenerate=0
I:unit_length+cf+ft+s2  n=5000  mean|ex|=0.000000  mean|ey|=0.000000  var|ex|=0.000000  mean|ex_src|=0.000000  skipped=0 failed=0 degenerate=0
J:unit_length+cf+ft+rno+s2  n=5000  mean|ex|=0.000000  mean|ey|=0.000000  var|ex|=0.000000  mean|ex_src|=0.000000  skipped=0 failed=0 degenerate=0
""",
    ("bottomup", "heatmap"): """\
A:pixel_count+cf_biased+ft+rno+s4  n=5000  mean|ex|=0.380670  mean|ey|=0.197236  var|ex|=0.052906  mean|ex_src|=0.761341  skipped=0 failed=0 degenerate=0
B:unit_length+cf_biased+ft+s4  n=5000  mean|ex|=0.124689  mean|ey|=0.123726  var|ex|=0.005100  mean|ex_src|=0.257423  skipped=0 failed=0 degenerate=0
C:unit_length+cf+ft+s4  n=5000  mean|ex|=0.000000  mean|ey|=0.000000  var|ex|=0.000000  mean|ex_src|=0.000000  skipped=0 failed=0 degenerate=0
D:unit_length+cf+ft+rno+s4  n=5000  mean|ex|=0.158081  mean|ey|=0.157666  var|ex|=0.007675  mean|ex_src|=0.326361  skipped=0 failed=0 degenerate=0
E:pixel_count+cf_biased+ft+s2  n=5000  mean|ex|=0.248218  mean|ey|=0.124238  var|ex|=0.020862  mean|ex_src|=0.248218  skipped=0 failed=0 degenerate=0
F:pixel_count+cf_biased+ft+rno+s2  n=5000  mean|ex|=0.264057  mean|ey|=0.155570  var|ex|=0.028993  mean|ex_src|=0.264057  skipped=0 failed=0 degenerate=0
G:pixel_count+cf+ft+rno+s2  n=5000  mean|ex|=0.248691  mean|ey|=0.126588  var|ex|=0.021797  mean|ex_src|=0.248691  skipped=0 failed=0 degenerate=0
H:unit_length+cf_biased+ft+s2  n=5000  mean|ex|=0.124723  mean|ey|=0.124238  var|ex|=0.005168  mean|ex_src|=0.126703  skipped=0 failed=0 degenerate=0
I:unit_length+cf+ft+s2  n=5000  mean|ex|=0.000000  mean|ey|=0.000000  var|ex|=0.000000  mean|ex_src|=0.000000  skipped=0 failed=0 degenerate=0
J:unit_length+cf+ft+rno+s2  n=5000  mean|ex|=0.054877  mean|ey|=0.055091  var|ex|=0.002068  mean|ex_src|=0.055749  skipped=0 failed=0 degenerate=0
""",
}
ABLATE_STDOUT["topdown", "heatmap"] = ABLATE_STDOUT["topdown", "analytic"]


@pytest.mark.parametrize("preset,mode", [(p, m) for p in ("topdown", "bottomup")
                                         for m in ("analytic", "heatmap")])
def test_ablate_stdout_is_pinned(capsys, preset, mode):
    assert cli.main(["ablate", "--preset", preset, "--mode", mode, "--seed", "3",
                     "-n", "5000"]) == 0
    assert capsys.readouterr().out == ABLATE_STDOUT[preset, mode]


_SEED_ARGV = {
    "simulate": ["simulate", "-n", "20"],
    "ablate": ["ablate", "--preset", "bottomup", "-n", "20"],
    "verify": ["verify"],
}


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
@pytest.mark.parametrize("command", list(_SEED_ARGV))
def test_seed_outside_64_bits_is_usage_error(capsys, command, seed):
    # The generators reduce seeds mod 2**64, so 2**64 would repeat seed 0
    # and -1 would repeat 2**64 - 1.
    assert cli.main([*_SEED_ARGV[command], "--seed", seed]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: seed must be in 0..2**64-1, got {seed}\n")


@pytest.mark.parametrize("command", list(_SEED_ARGV))
def test_largest_64_bit_seed_still_runs(capsys, command):
    assert cli.main([*_SEED_ARGV[command], "--seed", str((1 << 64) - 1)]) == 0
    assert "error" not in capsys.readouterr().err


# Crop-box fields at the float range's edges: zeros, subnormals, tiny and huge
# values, near the largest float, and the non-finite ones.
_ROI_FIELDS = ("0", "-0", "1e-320", "-1e-320", "1e-300", "1", "-5", "1e300", "1.7e308",
               "-1.7e308", "nan", "inf", "-inf")


@settings(max_examples=400, derandomize=True, deadline=None)
@given(roi=st.lists(st.sampled_from(_ROI_FIELDS), min_size=4, max_size=4),
       codec=st.sampled_from(cli._CODEC_FLAGS), mode=st.sampled_from(["analytic", "heatmap"]),
       rno=st.booleans(), ft=st.booleans(), n=st.integers(1, 50))
def test_any_crop_box_runs_or_is_one_usage_error(roi, codec, mode, rno, ft, n):
    argv = ["simulate", "--seed", "1", "-n", str(n), "--jobs", "1", "--codec", codec,
            "--mode", mode, f"--roi={','.join(roi)}", "--rno" if rno else "--no-rno",
            "--ft" if ft else "--no-ft"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
    assert code in (0, 2)
    assert err.getvalue().count("error:") <= 1
