"""Annotation ingestion and report emission.

Reads COCO-style keypoint annotation JSON (the ``images`` and
``annotations`` arrays only; unknown fields are ignored) so simulations can
run over realistic box and keypoint distributions, and writes aggregated
error statistics as CSV or JSON.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .geometry import PlaneSize, Point, Roi

__all__ = [
    "AnnotationFormatError",
    "Instance",
    "LoadResult",
    "MissingImageError",
    "bbox_to_roi",
    "crop_boxes",
    "load_coco_keypoints",
    "write_report",
]


class AnnotationFormatError(ValueError):
    """The annotation file is not parseable as COCO-style keypoint JSON."""


class MissingImageError(LookupError):
    """An annotation references an image id absent from the file."""


@dataclass(frozen=True)
class Instance:
    """One annotated person: image size, bounding box and keypoints.

    ``bbox`` is ``(x, y, w, h)`` with a top-left anchor, in source units.
    Each keypoint pairs a position with a visibility flag: 0 not labeled,
    1 labeled but occluded, 2 labeled and visible.
    """

    image_size: PlaneSize
    bbox: tuple[float, float, float, float]
    keypoints: tuple[tuple[Point, int], ...]


@dataclass(frozen=True)
class LoadResult:
    instances: tuple[Instance, ...]
    skipped: int


@contextmanager
def _record(kind: str, pos: int, record):
    """Read one ``kind`` record, yielding its name: ``kind`` and its ``id``,
    or ``#pos``, its place in the array, when it has none.  Any conversion
    error becomes an :class:`AnnotationFormatError` that names the record."""
    if not isinstance(record, dict):
        got = type(record).__name__
        raise AnnotationFormatError(f"{kind} #{pos}: expected an object, got {got}")
    name = f"{kind} {record['id']}" if "id" in record else f"{kind} #{pos}"
    try:
        yield name
    except KeyError as exc:
        raise AnnotationFormatError(f"{name}: missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise AnnotationFormatError(f"{name}: {exc}") from exc


def load_coco_keypoints(path) -> LoadResult:
    """Load keypoint instances, joining annotations to image dimensions;
    annotations without a labeled keypoint are dropped and counted in
    ``skipped``.  Bad input raises :class:`AnnotationFormatError` (for an
    unknown image id, :class:`MissingImageError`) that names the JSON byte
    offset or the record."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        msg = f"{path}: invalid JSON at byte offset {exc.pos}: {exc.msg}"
        raise AnnotationFormatError(msg) from exc
    if not isinstance(doc, dict):
        raise AnnotationFormatError(f"{path}: expected an object with 'images' and 'annotations'")
    for key in ("images", "annotations"):
        if not isinstance(doc.get(key), list):
            got = type(doc[key]).__name__ if key in doc else "nothing"
            raise AnnotationFormatError(f"{key}: expected an array of records, got {got}")

    sizes: dict[int, PlaneSize] = {}
    for pos, img in enumerate(doc["images"]):
        with _record("image", pos, img):
            sizes[img["id"]] = PlaneSize(int(img["width"]), int(img["height"]))

    joint_count, instances, skipped = None, [], 0
    for pos, ann in enumerate(doc["annotations"]):
        with _record("annotation", pos, ann) as name:
            if (size := sizes.get(ann["image_id"])) is None:
                raise MissingImageError(f"{name} references unknown image id {ann['image_id']}")
            flat = ann.get("keypoints", [])
            if len(flat) % 3 != 0:
                raise ValueError(f"keypoint list length {len(flat)} is not a multiple of 3")
            n_joints = len(flat) // 3
            if joint_count not in (None, n_joints):
                raise ValueError(f"{n_joints} joints, expected {joint_count}")
            joint_count = n_joints
            kps = tuple((Point(flat[i], flat[i + 1]), int(flat[i + 2]))
                        for i in range(0, 3 * n_joints, 3))
            if not any(v > 0 for _, v in kps):
                skipped += 1
                continue
            if len(ann.get("bbox", ())) != 4:
                raise ValueError("carries no 4-element bbox")
            x, y, w, h = (float(v) for v in ann["bbox"])
            if not all(map(math.isfinite, (x, y, w, h))):
                raise ValueError(f"bbox must be finite, got {[x, y, w, h]}")
            if w <= 0 or h <= 0:
                raise ValueError(f"bbox extents must be positive, got w={w}, h={h}")
        instances.append(Instance(image_size=size, bbox=(x, y, w, h), keypoints=kps))
    return LoadResult(instances=tuple(instances), skipped=skipped)


def crop_boxes(bboxes, target_aspect: float, padding: float = 1.25):
    """Fix top-left boxes ``(N, 4)`` to ``(cx, cy, w, h)`` crop arrays with the
    requested width/height ratio: each center stays put, the relatively
    shorter side grows to match ``target_aspect``, then both sides scale by
    ``padding``.  Overflowing fields are left for the :class:`Roi` checks."""
    x, y, w, h = np.array(bboxes, dtype=np.float64).reshape(-1, 4).T
    if np.any(bad := (w <= 0) | (h <= 0)):
        raise ValueError(f"bbox extents must be positive, got w={w[bad][0]}, h={h[bad][0]}")
    for name, value in (("target_aspect", target_aspect), ("padding", padding)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value}")
    with np.errstate(over="ignore", invalid="ignore"):
        narrow = w / h < target_aspect
        return (x + 0.5 * w, y + 0.5 * h,
                np.where(narrow, h * target_aspect, w) * padding,
                np.where(narrow, h, w / target_aspect) * padding)


def bbox_to_roi(bbox, target_aspect: float, padding: float = 1.25) -> Roi:
    """:func:`crop_boxes` for one top-left ``(x, y, w, h)`` box, as a :class:`Roi`."""
    return Roi(*(float(v[0]) for v in crop_boxes([bbox], target_aspect, padding)))


def _format_value(value):
    if isinstance(value, float):
        return format(value, ".9g")
    return value


def write_report(stats, fmt: str, path) -> None:
    """Write error statistics rows as ``csv`` or ``json``.

    Columns follow the field order of the stats records; floats are emitted
    with 9 significant digits, which round-trips through reparsing.
    """
    rows = list(stats)
    if not rows:
        raise ValueError("nothing to report")
    columns = [f.name for f in dataclasses.fields(rows[0])]
    if fmt == "csv":
        with open(path, "w", encoding="ascii", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_format_value(getattr(row, name)) for name in columns])
    elif fmt == "json":
        payload = []
        for row in rows:
            entry = {}
            for name in columns:
                value = getattr(row, name)
                entry[name] = float(format(value, ".9g")) if isinstance(value, float) else value
            payload.append(entry)
        with open(path, "w", encoding="ascii") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    else:
        raise ValueError(f"unknown report format {fmt!r} (expected 'csv' or 'json')")
