"""Tests of the benchmark's own checks.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import json
import math
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from calibrate import Calibrator  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, synthetic_coco  # noqa: E402

HEADER = ("label,n_trials,mean_abs_x,mean_abs_y,var_abs_x,var_abs_y,"
          "mean_abs_x_source,n_skipped,n_decode_failed,n_degenerate\n")


def row(mean, var, n=10000, label="C"):
    return {"label": label, "n_trials": n, "mean_abs_x": mean, "var_abs_x": var,
            "n_skipped": 0, "n_decode_failed": 0}


def test_gate_rejects_row_shifted_by_a_few_sem():
    var, n = 0.020964, 10000
    sem = math.sqrt(var / n)
    ref = {"expect": 0.375, "sem": 0.0}
    assert checks.check_row(row(0.375 + 2.0 * sem, var, n), ref)[0]
    assert not checks.check_row(row(0.375 + 6.0 * sem, var, n), ref)[0]
    assert not checks.check_row(row(0.375 - 6.0 * sem, var, n), ref)[0]


def test_gate_widens_for_the_reference_sem():
    var, n = 0.0013, 200
    sem = math.sqrt(var / n)
    shifted = row(0.3746 + 6.0 * sem, var, n)
    assert not checks.check_row(shifted, {"expect": 0.3746, "sem": 0.0})[0]
    assert checks.check_row(shifted, {"expect": 0.3746, "sem": 2.0 * sem})[0]


def test_gate_accepts_exact_zero_rows():
    # topdown rows H and I: |error| ~ 1e-15 with SEM ~ 3e-17, far above a
    # pure z-score limit but well inside the absolute floor.
    exact = row(1.14529875e-15, 3.20555748e-30, n=5824, label="H")
    assert checks.check_row(exact, {"expect": 0.0, "sem": 0.0})[0]
    assert not checks.check_row(row(1e-6, 1e-30), {"expect": 0.0, "sem": 0.0})[0]


def test_gate_fails_rows_without_reference():
    assert not checks.check_row(row(0.125, 0.005), None)[0]


def test_report_parsing_counts_attempted_trials():
    data = (HEADER + "A,9990,0.125,0.125,0.0052,0.0052,0.25,7,3,1\n").encode("ascii")
    (parsed,) = checks.parse_report(data)
    assert parsed["n_trials"] == 9990 and parsed["mean_abs_x"] == 0.125
    assert checks.attempted(parsed) == 10000


def test_changed_report_digest_is_flagged(tmp_path):
    store = tmp_path / "digests.json"
    a = checks.digest([(HEADER + "A,1,0.125,0,0,0,0,0,0,0\n").encode()])
    b = checks.digest([(HEADER + "A,1,0.125000001,0,0,0,0,0,0,0\n").encode()])
    assert a != b
    assert checks.record_digest(store, "grid:7:src", a) is None
    assert checks.record_digest(store, "grid:7:src", a) is None
    assert checks.record_digest(store, "grid:7:src", b) == a
    assert checks.record_digest(store, "grid:8:src", b) is None


def test_reference_covers_every_row_group():
    reference = checks.load_reference()
    groups = {key.rsplit("/", 1)[0] for key in reference}
    assert groups == {c.group for w in WORKLOADS.values() for c in w.commands}
    assert all(entry["sem"] >= 0.0 for entry in reference.values())


def test_synthetic_coco_is_seeded_and_skips_a_few_percent():
    doc, facts = synthetic_coco(3, instances=200)
    again, _ = synthetic_coco(3, instances=200)
    other, _ = synthetic_coco(4, instances=200)
    assert json.dumps(doc) == json.dumps(again) != json.dumps(other)
    assert facts["instances"] == len(doc["annotations"]) == 200
    assert 0.01 < facts["expected_skip_share"] < 0.06
    visibility = {v for a in doc["annotations"] for v in a["keypoints"][2::3]}
    assert visibility == {0, 1, 2}


def test_tracer_reports_a_removed_boundary_as_absent():
    def substream(seed, index):
        return seed + index

    biaslab = types.SimpleNamespace(substream=substream)
    tracer = Tracer({"biaslab": biaslab})
    with tracer:
        assert biaslab.substream(1, 2) == 3
    assert biaslab.substream is substream
    snap = tracer.snapshot()
    assert snap["biaslab.prng_calls"] == 1 and snap["biaslab.prng_s"] >= 0.0
    assert "codec.render_s" not in snap and "biaslab.trials" not in snap


def test_calibrated_call_returns_its_result_and_a_positive_slowness():
    calib = Calibrator()
    result, wall, slowness = calib.timed(sum, [1, 2, 3])
    assert result == 6 and wall >= 0.0 and slowness > 0.0
    assert len(calib.factors) == 2


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
