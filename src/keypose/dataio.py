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
from dataclasses import dataclass

from .geometry import PlaneSize, Point, Roi

__all__ = [
    "AnnotationFormatError",
    "Instance",
    "LoadResult",
    "MissingImageError",
    "bbox_to_roi",
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


def load_coco_keypoints(path) -> LoadResult:
    """Load keypoint instances, joining annotations to image dimensions.

    Annotations without a single labeled keypoint are dropped and counted in
    ``skipped``.  Malformed JSON raises :class:`AnnotationFormatError` with
    the byte offset; an annotation naming an unknown image id raises
    :class:`MissingImageError`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise AnnotationFormatError(
            f"{path}: invalid JSON at byte offset {exc.pos}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict) or "images" not in doc or "annotations" not in doc:
        raise AnnotationFormatError(f"{path}: expected 'images' and 'annotations' arrays")

    sizes: dict[int, PlaneSize] = {}
    for img in doc["images"]:
        try:
            sizes[img["id"]] = PlaneSize(int(img["width"]), int(img["height"]))
        except (KeyError, TypeError) as exc:
            raise AnnotationFormatError(f"image record missing field: {exc}") from exc

    joint_count: int | None = None
    instances: list[Instance] = []
    skipped = 0
    for ann in doc["annotations"]:
        ann_id = ann.get("id", "<missing id>")
        try:
            image_id = ann["image_id"]
        except KeyError as exc:
            raise AnnotationFormatError(
                f"annotation {ann_id} is missing 'image_id'"
            ) from exc
        if image_id not in sizes:
            raise MissingImageError(
                f"annotation {ann_id} references unknown image id {image_id}"
            )
        flat = ann.get("keypoints", [])
        if len(flat) % 3 != 0:
            raise AnnotationFormatError(
                f"annotation {ann_id}: keypoint list length {len(flat)} is not a multiple of 3"
            )
        n_joints = len(flat) // 3
        if joint_count is None:
            joint_count = n_joints
        elif n_joints != joint_count:
            raise AnnotationFormatError(
                f"annotation {ann_id}: {n_joints} joints, expected {joint_count}"
            )
        kps = tuple(
            (Point(float(flat[3 * i]), float(flat[3 * i + 1])), int(flat[3 * i + 2]))
            for i in range(n_joints)
        )
        if not any(v > 0 for _, v in kps):
            skipped += 1
            continue
        if "bbox" not in ann or len(ann["bbox"]) != 4:
            raise AnnotationFormatError(f"annotation {ann_id} carries no 4-element bbox")
        x, y, w, h = (float(v) for v in ann["bbox"])
        if w <= 0 or h <= 0:
            raise AnnotationFormatError(
                f"annotation {ann_id}: bbox extents must be positive, got w={w}, h={h}"
            )
        instances.append(Instance(image_size=sizes[image_id], bbox=(x, y, w, h), keypoints=kps))
    return LoadResult(instances=tuple(instances), skipped=skipped)


def bbox_to_roi(
    bbox: tuple[float, float, float, float], target_aspect: float, padding: float = 1.25
) -> Roi:
    """Fix a top-left box to a crop region with the requested width/height
    ratio: the center stays put, the relatively shorter side grows to match
    ``target_aspect``, then both sides scale by ``padding``."""
    x, y, w, h = (float(v) for v in bbox)
    if w <= 0 or h <= 0:
        raise ValueError(f"bbox extents must be positive, got w={w}, h={h}")
    for name, value in (("target_aspect", target_aspect), ("padding", padding)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value}")
    cx, cy = x + 0.5 * w, y + 0.5 * h
    if w / h < target_aspect:
        w = h * target_aspect
    else:
        h = w / target_aspect
    return Roi(cx=cx, cy=cy, w=w * padding, h=h * padding)


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
