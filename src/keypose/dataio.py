"""Annotation ingestion and report emission.

Reads COCO-style keypoint annotation JSON (the ``images`` and
``annotations`` arrays only; unknown fields are ignored) so simulations can
run over realistic box and keypoint distributions, and writes aggregated
error statistics as CSV or JSON.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .geometry import PlaneSize, Roi

__all__ = [
    "AnnotationFormatError",
    "Annotations",
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


@dataclass(frozen=True, eq=False)
class Instance:
    """One annotated person: image size, bounding box and keypoints.

    ``bbox`` is ``(x, y, w, h)`` with a top-left anchor, in source units.
    ``keypoints`` is a ``(J, 3)`` float array of COCO's ``x, y, visibility``
    rows; visibility 0 is not labeled, 1 labeled but occluded, 2 labeled and
    visible.  An instance of :class:`Annotations` holds a read-only view of
    its rows.  Instances compare by identity.
    """

    image_size: PlaneSize
    bbox: tuple[float, float, float, float]
    keypoints: np.ndarray


class Annotations(Sequence):
    """A set of instances as columns, read as a sequence of :class:`Instance`.

    ``keypoints`` is one read-only ``(K, 3)`` array of every instance's rows
    in order, ``owner`` the ``(K,)`` index of each row's instance, ``bboxes``
    the ``(N, 4)`` top-left boxes and ``sizes`` the ``N`` image sizes.
    Indexing builds an instance once, its keypoints a view of its rows.
    """

    def __init__(self, sizes, bboxes, keypoints, owner) -> None:
        self.sizes = tuple(sizes)
        self.bboxes = np.array(bboxes, dtype=np.float64).reshape(-1, 4)
        self.keypoints = np.array(keypoints, dtype=np.float64).reshape(-1, 3)
        self.owner = np.array(owner, dtype=np.intp)
        for a in (self.bboxes, self.keypoints, self.owner):
            a.flags.writeable = False
        self._cuts = np.searchsorted(self.owner, np.arange(len(self.sizes) + 1)).tolist()
        self._made: dict[int, Instance] = {}

    @classmethod
    def of(cls, instances) -> "Annotations":
        """``instances`` itself if columnar, else its instances as columns
        (joint counts may differ)."""
        if isinstance(instances, cls):
            return instances
        kps = [inst.keypoints for inst in instances]
        return cls([inst.image_size for inst in instances], [inst.bbox for inst in instances],
                   np.concatenate([np.empty((0, 3)), *kps]),
                   np.repeat(np.arange(len(kps)), [len(k) for k in kps]))

    def __len__(self) -> int:
        return len(self.sizes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(len(self))[i])
        if (i := range(len(self))[i]) not in self._made:  # a tuple's IndexError and negatives
            lo, hi = self._cuts[i:i + 2]
            self._made[i] = Instance(self.sizes[i], tuple(self.bboxes[i].tolist()),
                                     self.keypoints[lo:hi])
        return self._made[i]


@dataclass(frozen=True)
class LoadResult:
    """The labeled annotations of a file, and how many were ``skipped``."""

    instances: Annotations
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
    except ValueError as exc:  # bad UTF-8, or an integer past Python's digit limit
        raise AnnotationFormatError(f"{path}: unreadable JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise AnnotationFormatError(f"{path}: expected an object with 'images' and 'annotations'")
    for key in ("images", "annotations"):
        if not isinstance(doc.get(key), list):
            got = type(doc[key]).__name__ if key in doc else "nothing"
            raise AnnotationFormatError(f"{key}: expected an array of records, got {got}")

    sizes: dict[int, PlaneSize] = {}
    for pos, img in enumerate(doc["images"]):
        with _record("image", pos, img):
            w, h = img["width"], img["height"]
            if any(isinstance(v, float) and not v.is_integer() for v in (w, h)):
                raise ValueError("pixel counts must be integers")
            sizes[img["id"]] = PlaneSize(int(w), int(h))

    # One pass over the records, each checked in full before the next; the
    # labeled ones' values gather into lists that become columns at the end.
    joint_count, skipped, images, bboxes, values = None, 0, [], [], []
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
            row = [f(v) for f, v in zip((float, float, int) * n_joints, flat)]
            xs, ys, vis = row[0::3], row[1::3], row[2::3]
            # A finite sum has finite terms, so only a sum that is not needs the search.
            if not math.isfinite(sum(xs) + sum(ys)) and (bad := [
                    (x, y) for x, y in zip(xs, ys) if not (math.isfinite(x) and math.isfinite(y))]):
                raise ValueError("point coordinates must be finite, got ({}, {})".format(*bad[0]))
            # int() keeps a float's whole part, so a value must also equal its raw one.
            if not {*flat[2::3]} <= {0, 1, 2} and (bad := [
                    v for v, k in zip(flat[2::3], vis) if k not in (0, 1, 2) or k != float(v)]):
                raise ValueError(f"keypoint visibility must be 0, 1 or 2, got {bad[0]}")
            if not any(vis):
                skipped += 1
                continue
            if len(ann.get("bbox", ())) != 4:
                raise ValueError("carries no 4-element bbox")
            x, y, w, h = (float(v) for v in ann["bbox"])
            if not all(map(math.isfinite, (x, y, w, h))):
                raise ValueError(f"bbox must be finite, got {[x, y, w, h]}")
            if w <= 0 or h <= 0:
                raise ValueError(f"bbox extents must be positive, got w={w}, h={h}")
        images.append(size)
        bboxes.append((x, y, w, h))
        values += row
    owner = np.repeat(np.arange(len(images)), joint_count or 0)
    return LoadResult(Annotations(images, bboxes, values, owner), skipped)


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
    with 9 significant digits, which round-trips through reparsing.  CSV is
    UTF-8; JSON escapes any character past ASCII.  Every row is encoded
    before the file is opened, so a row that cannot be leaves ``path`` as it was.
    """
    rows = list(stats)
    if not rows:
        raise ValueError("nothing to report")
    columns = [f.name for f in dataclasses.fields(rows[0])]
    if fmt == "csv":
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_value(getattr(row, name)) for name in columns])
        data = text.getvalue().encode("utf-8")
    elif fmt == "json":
        payload = []
        for row in rows:
            entry = {}
            for name in columns:
                value = getattr(row, name)
                entry[name] = float(format(value, ".9g")) if isinstance(value, float) else value
            payload.append(entry)
        data = (json.dumps(payload, indent=2) + "\n").encode("ascii")
    else:
        raise ValueError(f"unknown report format {fmt!r} (expected 'csv' or 'json')")
    with open(path, "wb") as fh:
        fh.write(data)
