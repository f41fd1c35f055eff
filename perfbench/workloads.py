"""The benchmark's workloads and the seeded synthetic COCO generator.

Each workload is a fixed list of ``keypose`` commands.  The benchmark seed
becomes the ``--seed`` of every command and the seed of the generated
annotations, so a seed fixes every input.  Trial counts are per preset row
and do not depend on the run length, so report bytes (and their digest)
depend only on the seed.

Why these four (layer shares from a traced run at the seed commit):

* ``analytic_grid``: the scalar trial engine alone (PRNG, sampler, engine
  self time); ``codec`` and ``raster`` are never called.  A batch engine
  shows here; a render or warp change must show nothing.
* ``heatmap_topdown``: codec render and decode dominate; no rno rows, so
  ``raster.warp`` is never called.
* ``heatmap_bottomup``: ``raster.warp`` under ``pipeline.rno_upsample``
  dominates (five rno rows); the only 128x128 maps.
* ``coco_analytic``: per-trial crop-box transforms (``pipeline`` and
  ``geometry``) dominate; the only workload that loads annotations through
  ``dataio`` and skips trials.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# Crop box fixing used by the coco commands; the generator needs the same
# values to place keypoints outside the padded crop on purpose.
COCO_ASPECT = 0.75  # the default 192x256 input plane
COCO_PADDING = 1.25
COCO_INSTANCES = 600
COCO_JOINTS = 17
COCO_OUTSIDE_SHARE = 0.03  # labeled keypoints placed outside the padded crop
COCO_UNLABELED_SHARE = 0.04  # annotations with no labeled keypoint at all


@dataclass(frozen=True)
class Command:
    """One ``keypose`` invocation; ``group`` prefixes its row keys."""

    group: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    trials: int  # ``-n`` of every command: trials per row
    commands: tuple[Command, ...]
    uses_coco: bool = False


def _ablate(preset: str, mode: str) -> Command:
    return Command(f"{preset}/{mode}", ("ablate", "--preset", preset, "--mode", mode))


def _coco(label: str, *flags: str) -> Command:
    return Command(
        "coco/analytic",
        ("simulate", "--coco", "{coco}", "--mode", "analytic",
         "--aspect", str(COCO_ASPECT), "--padding", str(COCO_PADDING),
         "--label", label, *flags),
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("analytic_grid", 10000,
                 (_ablate("topdown", "analytic"), _ablate("bottomup", "analytic"))),
        Workload("heatmap_topdown", 1500, (_ablate("topdown", "heatmap"),)),
        Workload("heatmap_bottomup", 150, (_ablate("bottomup", "heatmap"),)),
        # Both configurations have a closed form that holds for every trial
        # (a constant 3/8 flip offset; an exact round trip), so the rows are
        # gated exactly whatever the annotation distribution.
        Workload("coco_analytic", 6000,
                 (_coco("biased", "--no-ucst", "--ft", "--codec", "cf"),
                  _coco("unbiased", "--ucst", "--ft", "--codec", "ccrf")),
                 uses_coco=True),
    )
}


def command_argv(cmd: Command, trials: int, seed: int, report: Path, coco: Path | None) -> list[str]:
    argv = [a.replace("{coco}", str(coco)) for a in cmd.argv]
    return argv + ["-n", str(trials), "--seed", str(seed), "--jobs", "1",
                   "--report", str(report), "--format", "csv"]


# ---------------------------------------------------------------------------
# Synthetic COCO-style annotations
# ---------------------------------------------------------------------------


def _padded_crop(bx: float, by: float, bw: float, bh: float) -> tuple[float, float, float, float]:
    """Center and extents of the aspect-fixed, padded crop of a box."""
    cx, cy = bx + 0.5 * bw, by + 0.5 * bh
    if bw / bh < COCO_ASPECT:
        bw = bh * COCO_ASPECT
    else:
        bh = bw / COCO_ASPECT
    return cx, cy, bw * COCO_PADDING, bh * COCO_PADDING


def synthetic_coco(seed: int, instances: int = COCO_INSTANCES) -> tuple[dict, dict]:
    """A COCO-style keypoint document drawn from ``seed``.

    Returns ``(document, facts)``.  ``facts`` holds the instance count and
    the share of labeled keypoints placed outside their padded crop, which
    is the skip share a run should observe.
    """
    rng = random.Random(seed)
    images, annotations = [], []
    labeled = outside = 0
    while len(annotations) < instances:
        width, height = rng.choice(((640, 480), (480, 640), (640, 427), (500, 375)))
        image_id = len(images) + 1
        images.append({"id": image_id, "width": width, "height": height})
        for _ in range(rng.randint(1, 3)):
            bw = rng.uniform(0.15, 0.6) * width
            bh = rng.uniform(0.3, 0.95) * height
            bx = rng.uniform(0.0, width - bw)
            by = rng.uniform(0.0, height - bh)
            flat = [0.0] * (3 * COCO_JOINTS)
            if rng.random() >= COCO_UNLABELED_SHARE:
                cx, cy, cw, ch = _padded_crop(bx, by, bw, bh)
                for j in range(COCO_JOINTS):
                    v = rng.choices((0, 1, 2), weights=(0.15, 0.15, 0.70))[0]
                    if v == 0:
                        continue
                    if rng.random() < COCO_OUTSIDE_SHARE:
                        # Past a crop edge along one axis, in source units.
                        sign = rng.choice((-1.0, 1.0))
                        if rng.random() < 0.5:
                            x, y = cx + sign * rng.uniform(0.55, 0.8) * cw, cy
                        else:
                            x, y = cx, cy + sign * rng.uniform(0.55, 0.8) * ch
                        outside += 1
                    else:
                        x = bx + rng.uniform(0.05, 0.95) * bw
                        y = by + rng.uniform(0.05, 0.95) * bh
                    labeled += 1
                    flat[3 * j: 3 * j + 3] = [round(x, 2), round(y, 2), v]
            annotations.append({
                "id": len(annotations) + 1,
                "image_id": image_id,
                "bbox": [round(bx, 2), round(by, 2), round(bw, 2), round(bh, 2)],
                "num_keypoints": sum(1 for k in flat[2::3] if k > 0),
                "keypoints": flat,
            })
            if len(annotations) == instances:
                break
    doc = {"images": images, "annotations": annotations}
    facts = {
        "instances": len(annotations),
        "unlabeled_instances": sum(1 for a in annotations if a["num_keypoints"] == 0),
        "labeled_keypoints": labeled,
        "expected_skip_share": outside / labeled,
    }
    return doc, facts


def write_coco(path: Path, seed: int) -> dict:
    doc, facts = synthetic_coco(seed)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return facts
