import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from keypose import cli
from keypose.geometry import Point
from keypose.raster import ImageGrid, read_grid_text, write_grid_text, write_pgm


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "keypose", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


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

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, jobs):
        out = run_cli("simulate", "--seed", "1", "-n", "10", "--jobs", jobs)
        assert out.returncode == 2
        assert out.stderr == f"error: need at least one job, got jobs={jobs}\n"

    def test_roi_error_surfaces(self):
        out = run_cli("simulate", "--seed", "1", "-n", "10", "--roi", "1,1,0,0")
        assert out.returncode == 2
        assert out.stderr.startswith("error: roi extents must be positive")

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

    def test_config_file_with_nan_sigma_is_refused(self, tmp_path):
        path = tmp_path / "nan.cfg"
        path.write_text("convention=unit_length\ninput_px=192x256\noutput_px=48x64\n"
                        "codec=cf\nsigma=nan\n")
        out = run_cli("simulate", "--seed", "1", "-n", "200", "--config", str(path))
        assert out.returncode == 2
        assert out.stderr == "error: sigma must be finite and positive, got nan\n"

    def test_byte_identical_reports_for_same_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("simulate", "--seed", "11", "-n", "3000", "--no-ucst", "--ft",
                "--codec", "cf-biased", "--mode", "analytic")
        assert run_cli(*args, "--report", str(a)).returncode == 0
        assert run_cli(*args, "--report", str(b)).returncode == 0
        assert a.read_bytes() == b.read_bytes()

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
        assert capsys.readouterr().err == "error: transform is singular (det=0.0)\n"

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
        assert out.stdout == "".join(f"PASS  {name}\n" for name in VERIFY_CHECKS) + (
            "11/11 checks passed\n"
        )

    def test_failing_check_prints_detail_and_exits_1(self, monkeypatch, capsys):
        real = cli.decode_ccrf

        def off_by_a_micron(target):
            d = real(target)
            return dataclasses.replace(d, k=Point(d.k.x + 1e-6, d.k.y))

        monkeypatch.setattr(cli, "decode_ccrf", off_by_a_micron)
        assert cli.main(["verify"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[6] == "FAIL  disc codec round trip is exact  (max=1.00e-06)"
        assert [l[:6] for l in lines[:11]] == ["PASS  "] * 6 + ["FAIL  "] + ["PASS  "] * 4
        assert lines[11] == "10/11 checks passed"


VERIFY_CHECKS = (
    "round trip to source is the identity",
    "flip ensemble aligns (unit-length ratios)",
    "pixel-count flip offset equals (1-s)/s",
    "flip remedy none: mean |x error| = 0.375",
    "flip remedy snoop: mean |x error| = 0.125",
    "flip remedy snoop_plus_ec: mean |x error| = 0.0",
    "disc codec round trip is exact",
    "one-step Newton decode recovers exact peaks",
    "quarter-shift decoder: mean |error| = 1/8",
    "quarter-shift decoder: var |error| = 1/192",
    "closed-form table matches its constants",
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

    def test_bottomup_grid_rows(self, tmp_path):
        report = tmp_path / "grid.csv"
        out = run_cli("ablate", "--preset", "bottomup", "--seed", "4", "-n", "200",
                      "--mode", "heatmap", "--report", str(report))
        assert out.returncode == 0
        rows = report.read_text().splitlines()
        assert len(rows) == 11  # header + rows A..J
