import json
import subprocess
import sys

import numpy as np

from keypose.raster import ImageGrid, read_grid_text, write_grid_text, write_pgm


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "keypose", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


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

    def test_decode_biased_quarter(self, tmp_path):
        path = tmp_path / "q.grid"
        run_cli("encode", "--codec", "cf", "--keypoint", "20.3,31.0",
                "--size", "48x64", "--out", str(path))
        payload = json.loads(
            run_cli("decode", "--codec", "cf-biased", "--heatmap", str(path)).stdout
        )
        assert payload["x"] == 20.25


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

    def test_config_file_input(self, tmp_path):
        cfg_path = tmp_path / "p.cfg"
        cfg_path.write_text(
            "convention=pixel_count\ninput_px=192x256\noutput_px=48x64\n"
            "flip_test=true\ncodec=argmax\n"
        )
        out = run_cli("simulate", "--seed", "3", "-n", "500", "--config", str(cfg_path))
        assert out.returncode == 0
        assert "mean|ex|=0.375" in out.stdout

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


class TestVerifyCommand:
    def test_verify_passes_and_prints_lines(self):
        out = run_cli("verify")
        assert out.returncode == 0
        lines = [l for l in out.stdout.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) >= 10
        assert all(l.startswith("PASS") for l in lines)


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

    def test_bottomup_grid_rows(self, tmp_path):
        report = tmp_path / "grid.csv"
        out = run_cli("ablate", "--preset", "bottomup", "--seed", "4", "-n", "200",
                      "--mode", "heatmap", "--report", str(report))
        assert out.returncode == 0
        rows = report.read_text().splitlines()
        assert len(rows) == 11  # header + rows A..J
