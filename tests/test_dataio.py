import csv
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keypose.biaslab import ErrorStats
from keypose.dataio import (
    AnnotationFormatError,
    MissingImageError,
    bbox_to_roi,
    crop_boxes,
    load_coco_keypoints,
    write_report,
)


def coco_doc():
    return {
        "info": {"description": "fixture"},
        "images": [
            {"id": 1, "width": 640, "height": 480, "file_name": "a.jpg"},
            {"id": 2, "width": 320, "height": 240, "file_name": "b.jpg"},
        ],
        "annotations": [
            {
                "id": 10,
                "image_id": 1,
                "bbox": [100.0, 80.0, 120.0, 160.0],
                "keypoints": [160, 160, 2, 130, 200, 1, 0, 0, 0],
                "extra_field": "ignored",
            },
            {
                "id": 11,
                "image_id": 2,
                "bbox": [10.0, 10.0, 50.0, 60.0],
                "keypoints": [20, 20, 2, 30, 40, 2, 35, 45, 1],
            },
            {
                "id": 12,
                "image_id": 1,
                "bbox": [5.0, 5.0, 10.0, 10.0],
                "keypoints": [0, 0, 0, 0, 0, 0, 0, 0, 0],
            },
        ],
    }


def stats_row(label="cfg", mean=0.123456789123):
    return ErrorStats(
        label=label,
        n_trials=1000,
        mean_abs_x=mean,
        mean_abs_y=mean / 2.0,
        var_abs_x=1.0 / 192.0,
        var_abs_y=2.0 / 192.0,
        mean_abs_x_source=mean * 2.0,
        n_skipped=1,
        n_decode_failed=2,
        n_degenerate=3,
    )


class TestLoadCoco:
    def test_joins_images_and_skips_unlabeled(self, tmp_path):
        path = tmp_path / "ann.json"
        path.write_text(json.dumps(coco_doc()))
        result = load_coco_keypoints(path)
        assert result.skipped == 1
        assert len(result.instances) == 2
        first = result.instances[0]
        assert first.image_size.width_px == 640
        assert first.bbox == (100.0, 80.0, 120.0, 160.0)
        assert len(first.keypoints) == 3
        assert first.keypoints[0][0].x == 160.0
        assert first.keypoints[0][1] == 2
        assert first.keypoints[2][1] == 0

    def test_malformed_json_reports_byte_offset(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"images": [}, "annotations": []}')
        with pytest.raises(AnnotationFormatError) as excinfo:
            load_coco_keypoints(path)
        assert "byte offset 12" in str(excinfo.value)

    def test_missing_image_names_annotation(self, tmp_path):
        doc = coco_doc()
        doc["annotations"][1]["image_id"] = 999
        path = tmp_path / "ref.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MissingImageError) as excinfo:
            load_coco_keypoints(path)
        assert "annotation 11" in str(excinfo.value)
        assert "999" in str(excinfo.value)

    def test_inconsistent_joint_count_rejected(self, tmp_path):
        doc = coco_doc()
        doc["annotations"][1]["keypoints"] = [1, 2, 2]
        path = tmp_path / "jc.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(AnnotationFormatError):
            load_coco_keypoints(path)

    def test_missing_arrays_rejected(self, tmp_path):
        path = tmp_path / "na.json"
        path.write_text("{}")
        with pytest.raises(AnnotationFormatError):
            load_coco_keypoints(path)

    @pytest.mark.parametrize("field,index,value", [
        ("keypoints", 0, math.inf), ("keypoints", 1, math.nan), ("bbox", 2, math.inf)])
    def test_non_finite_coordinates_name_the_annotation(self, tmp_path, field, index, value):
        doc = coco_doc()
        doc["annotations"][1][field][index] = value
        path = tmp_path / "nf.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(AnnotationFormatError, match=r"^annotation 11: .* must be finite"):
            load_coco_keypoints(path)

    @pytest.mark.parametrize("field,value,reason", [
        ("width", "abc", "invalid literal for int()"),
        ("height", 1, "plane must be at least 2x2 pixels, got 320x1"),
        ("width", None, "int() argument must be"),
    ])
    def test_bad_image_record_names_the_image(self, tmp_path, field, value, reason):
        doc = coco_doc()
        doc["images"][1][field] = value
        path = tmp_path / "img.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(AnnotationFormatError) as excinfo:
            load_coco_keypoints(path)
        assert str(excinfo.value).startswith(f"image 2: {reason}")

    def test_record_without_id_is_named_by_position(self, tmp_path):
        doc = coco_doc()
        del doc["images"][1]["id"]
        path = tmp_path / "noid.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(AnnotationFormatError, match=r"^image #1: missing field 'id'$"):
            load_coco_keypoints(path)

    def test_missing_bbox_rejected(self, tmp_path):
        doc = coco_doc()
        del doc["annotations"][0]["bbox"]
        path = tmp_path / "nb.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(AnnotationFormatError) as excinfo:
            load_coco_keypoints(path)
        assert "annotation 10" in str(excinfo.value)


class TestBboxToRoi:
    def test_square_box_aspect_one_padding_one_is_unchanged(self):
        roi = bbox_to_roi((10.0, 20.0, 50.0, 50.0), target_aspect=1.0, padding=1.0)
        assert (roi.cx, roi.cy, roi.w, roi.h) == (35.0, 45.0, 50.0, 50.0)

    def test_wide_box_grows_height(self):
        # Aspect fixing arithmetic: w/h = 1 > 0.75, so h becomes 100/0.75.
        roi = bbox_to_roi((0.0, 0.0, 100.0, 100.0), target_aspect=0.75, padding=1.0)
        assert (roi.cx, roi.cy) == (50.0, 50.0)
        assert roi.w == 100.0
        assert roi.h == pytest.approx(133.3333333333, abs=1e-9)

    def test_tall_box_grows_width(self):
        roi = bbox_to_roi((0.0, 0.0, 30.0, 100.0), target_aspect=0.75, padding=1.0)
        assert roi.w == 75.0
        assert roi.h == 100.0

    def test_padding_scales_both_extents_center_fixed(self):
        base = bbox_to_roi((0.0, 0.0, 100.0, 100.0), target_aspect=0.75, padding=1.0)
        padded = bbox_to_roi((0.0, 0.0, 100.0, 100.0), target_aspect=0.75, padding=1.25)
        assert (padded.cx, padded.cy) == (base.cx, base.cy)
        assert padded.w == pytest.approx(base.w * 1.25)
        assert padded.h == pytest.approx(base.h * 1.25)

    @given(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        st.floats(min_value=0.01, max_value=1e3, allow_nan=False),
        st.floats(min_value=0.01, max_value=1e3, allow_nan=False),
        st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_extents_always_positive(self, x, y, w, h, aspect):
        roi = bbox_to_roi((x, y, w, h), target_aspect=aspect, padding=1.25)
        assert roi.w > 0
        assert roi.h > 0


class TestCropBoxes:
    @given(
        st.lists(st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4),
                           st.floats(1e-3, 1e4), st.floats(1e-3, 1e4)), min_size=1, max_size=8),
        st.floats(0.1, 10.0),
        st.floats(0.5, 3.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_bbox_to_roi_box_by_box(self, bboxes, aspect, padding):
        columns = crop_boxes(bboxes, aspect, padding)
        for j, bbox in enumerate(bboxes):
            roi = bbox_to_roi(bbox, aspect, padding)
            for field, column in zip((roi.cx, roi.cy, roi.w, roi.h), columns):
                assert column[j] == field
                assert math.copysign(1.0, column[j]) == math.copysign(1.0, field)

    def test_names_the_first_box_with_a_non_positive_extent(self):
        with pytest.raises(ValueError, match=r"^bbox extents must be positive, got w=0.0, h=5.0$"):
            crop_boxes([(0.0, 0.0, 3.0, 4.0), (0.0, 0.0, 0.0, 5.0), (0.0, 0.0, -1.0, 1.0)], 1.0)


class TestWriteReport:
    def test_csv_round_trips_to_nine_significant_digits(self, tmp_path):
        rows = [stats_row("a", 0.123456789123), stats_row("b", 3.14159265358979e-07)]
        path = tmp_path / "report.csv"
        write_report(rows, "csv", path)
        with open(path, newline="") as fh:
            parsed = list(csv.DictReader(fh))
        assert [p["label"] for p in parsed] == ["a", "b"]
        for original, row in zip(rows, parsed):
            for name in ("mean_abs_x", "mean_abs_y", "var_abs_x", "mean_abs_x_source"):
                reparsed = float(row[name])
                reference = getattr(original, name)
                assert abs(reparsed - reference) <= abs(reference) * 1e-8
        assert [p["n_trials"] for p in parsed] == ["1000", "1000"]

    def test_csv_column_order_is_declaration_order(self, tmp_path):
        path = tmp_path / "cols.csv"
        write_report([stats_row()], "csv", path)
        header = path.read_text().splitlines()[0]
        assert header == (
            "label,n_trials,mean_abs_x,mean_abs_y,var_abs_x,var_abs_y,"
            "mean_abs_x_source,n_skipped,n_decode_failed,n_degenerate"
        )

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "report.json"
        write_report([stats_row()], "json", path)
        payload = json.loads(path.read_text())
        assert payload[0]["label"] == "cfg"
        assert payload[0]["n_degenerate"] == 3
        assert abs(payload[0]["mean_abs_x"] - 0.123456789123) < 1e-9

    def test_unknown_format_and_empty_input_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_report([stats_row()], "xml", tmp_path / "x")
        with pytest.raises(ValueError):
            write_report([], "csv", tmp_path / "y")

    def test_unwritable_path_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            write_report([stats_row()], "csv", tmp_path / "no_dir" / "report.csv")
