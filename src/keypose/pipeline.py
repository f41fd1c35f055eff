"""Composite transforms between source, network-input and network-output planes.

The source image, the network input and the network output are three
coordinate systems.  Training and testing move data between them by
composing the elementary transforms from :mod:`keypose.geometry`; this
module builds those compositions under either of two measurement
conventions:

* ``UNIT_LENGTH`` builds resize ratios from plane extents in unit lengths
  (``width_px - 1``).  The full test chain and the flip-ensemble chain are
  then exact identities: predictions from flipped inputs align with the
  originals to machine precision.
* ``PIXEL_COUNT`` builds resize ratios from raw pixel counts, the habit of
  many production systems.  The test chain source->input->output->source is
  still an identity, but flipping is not: flips physically reverse sample
  order (a unit-length mirror) while the resize assumes pixel-count extents,
  leaving an x offset of ``(1 - s) / s`` between the flipped-back and the
  original prediction, where ``s`` is the input/output stride factor.

:class:`Compensation` carries the post-hoc remedies used in the wild for
that offset: ``SNOOP`` shifts the flipped-back result one node in +x before
averaging (leaving a ``1/(2s)`` residual), and ``SNOOP_PLUS_EC`` subtracts
the residual as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .codec import _check_radius, _check_sigma, default_ccrf_radius
from .geometry import (
    PlaneSize,
    Point,
    Roi,
    Transform2D,
    _compose,
    _crop,
    _resize,
    _transform,
    _translate,
    apply_point,
    compose,
    invert,
    t_flip,
    t_rotate,
)
from .raster import ImageGrid, _named, warp

__all__ = [
    "Codec",
    "Combine",
    "Compensation",
    "Convention",
    "PipelineConfig",
    "config_from_text",
    "config_to_text",
    "flip_combine",
    "input_to_output",
    "load_config",
    "output_to_source",
    "parse_size",
    "rno_upsample",
    "save_config",
    "swap_flip_pairs",
    "test_transform",
    "train_transform",
]


class Convention(Enum):
    """How plane extents are measured when building resize ratios."""

    UNIT_LENGTH = "unit_length"
    PIXEL_COUNT = "pixel_count"


class Compensation(Enum):
    """Flip-ensemble remedies applied before/after averaging."""

    NONE = "none"
    SNOOP = "snoop"
    SNOOP_PLUS_EC = "snoop_plus_ec"


class Codec(Enum):
    """Keypoint format used by the simulated network."""

    CCRF = "ccrf"
    CF = "cf"
    CF_BIASED_DECODE = "cf_biased"
    ARGMAX_ONLY = "argmax"


class Combine(Enum):
    """How the original and flipped-back predictions are merged."""

    AVERAGE_COORDS = "average_coords"
    AVERAGE_HEATMAPS = "average_heatmaps"


@dataclass(frozen=True)
class PipelineConfig:
    """Every knob of a simulated train/test pipeline.

    ``combine`` and ``radius`` may be left ``None`` to take their
    codec-dependent defaults (coordinate averaging for the disc format,
    heatmap averaging otherwise; disc radius 1/16 of the output pixel
    width).  ``stride`` is derived, never stored, so it cannot disagree
    with the plane sizes.
    """

    convention: Convention
    input: PlaneSize
    output: PlaneSize
    flip_test: bool = False
    compensation: Compensation = Compensation.NONE
    codec: Codec = Codec.CCRF
    combine: Combine | None = None
    rno: bool = False
    flip_pairs: tuple[tuple[int, int], ...] = ()
    sigma: float = 2.0
    radius: float | None = None

    def __post_init__(self) -> None:
        if self.compensation is not Compensation.NONE and not self.flip_test:
            raise ValueError("compensation is only meaningful with flip_test enabled")
        _check_sigma(self.sigma)
        # Offset maps average exactly at coordinate level; classification maps
        # are averaged element-wise before a single decode.
        default = Combine.AVERAGE_COORDS if self.codec is Codec.CCRF else Combine.AVERAGE_HEATMAPS
        combine = self.combine if self.combine is not None else default
        object.__setattr__(self, "combine", combine)
        radius = self.radius if self.radius is not None else default_ccrf_radius(self.output)
        _check_radius(radius)
        object.__setattr__(self, "radius", float(radius))
        if self.rno and self.codec is Codec.CCRF:
            raise ValueError("rno cannot be used with the ccrf codec: its offset "
                             "channels are displacement values bound to the output grid")
        if self.rno and self.flip_test and combine is Combine.AVERAGE_COORDS:
            raise ValueError("rno with flip testing requires combine=average_heatmaps")
        pairs = tuple((int(a), int(b)) for a, b in self.flip_pairs)
        object.__setattr__(self, "flip_pairs", pairs)

    @property
    def stride(self) -> float:
        """Input/output resolution ratio ``s``, from pixel counts."""
        return self.input.width_px / self.output.width_px


def _extents(size: PlaneSize, convention: Convention) -> tuple[float, float]:
    if convention is Convention.UNIT_LENGTH:
        return size.width_units, size.height_units
    return float(size.width_px), float(size.height_px)


def _source_to_input(cfg: PipelineConfig, cx, cy, w, h):
    """Coefficients of :func:`test_transform` for crop boxes ``(cx, cy, w,
    h)``, floats or ``(R,)`` arrays: crop, then resize to the input extents."""
    in_w, in_h = _extents(cfg.input, cfg.convention)
    return _compose(_resize(w, h, in_w, in_h), _crop(cx, cy, w, h))


def _output_to_source(cfg: PipelineConfig, cx, cy, w, h):
    """Coefficients of :func:`output_to_source` for crop boxes, as
    :func:`_source_to_input` takes them."""
    out_w, out_h = _extents(cfg.output, cfg.convention)
    return _compose(_translate(cx - 0.5 * w, cy - 0.5 * h), _resize(out_w, out_h, w, h))


def train_transform(roi: Roi, theta: float, flipped: bool, cfg: PipelineConfig) -> Transform2D:
    """Source -> network-input transform used in training.

    Composition, right to left: crop to the roi, resize the roi extents to
    the input extents (per convention), optionally rotate about the input
    center, optionally mirror.  Flips and the rotation center act on the
    physical sample grid and therefore always use unit-length extents; only
    the resize ratio follows the configured convention.
    """
    t = _transform(_source_to_input(cfg, roi.cx, roi.cy, roi.w, roi.h))
    if theta != 0.0:
        center = Point(0.5 * cfg.input.width_units, 0.5 * cfg.input.height_units)
        t = compose(t_rotate(theta, center), t)
    if flipped:
        t = compose(t_flip(cfg.input.width_units), t)
    return t


def test_transform(roi: Roi, cfg: PipelineConfig) -> Transform2D:
    """Source -> network-input transform used at test time (no augmentation)."""
    return train_transform(roi, 0.0, False, cfg)


def _input_to_output(cfg: PipelineConfig):
    """Coefficients of :func:`input_to_output`."""
    return _resize(*_extents(cfg.input, cfg.convention), *_extents(cfg.output, cfg.convention))


def input_to_output(cfg: PipelineConfig) -> Transform2D:
    """Network-input -> network-output resize, per convention."""
    return _transform(_input_to_output(cfg))


def output_to_source(roi: Roi, cfg: PipelineConfig) -> Transform2D:
    """Network-output -> source transform: resize back to roi extents, then
    translate the origin back to the roi's top-left corner."""
    return _transform(_output_to_source(cfg, roi.cx, roi.cy, roi.w, roi.h))


def flip_combine(k_o: Point, k_o_flip: Point, cfg: PipelineConfig) -> Point:
    """Merge an original prediction with one from the flipped input.

    ``k_o_flip`` is still in the flipped output frame; it is mirrored back
    with a unit-length flip of the output plane, optionally shifted one node
    in +x (``SNOOP``), averaged with ``k_o``, then optionally corrected by
    the ``1/(2s)`` residual (``SNOOP_PLUS_EC``).
    """
    if not cfg.flip_test:
        raise ValueError("flip_combine requires flip_test enabled")
    back = apply_point(t_flip(cfg.output.width_units), k_o_flip)
    if cfg.compensation is not Compensation.NONE:
        back = Point(back.x + 1.0, back.y)
    avg = Point(0.5 * (k_o.x + back.x), 0.5 * (k_o.y + back.y))
    if cfg.compensation is Compensation.SNOOP_PLUS_EC:
        avg = Point(avg.x - 1.0 / (2.0 * cfg.stride), avg.y)
    return avg


def rno_upsample(h: ImageGrid, cfg: PipelineConfig) -> ImageGrid:
    """Resize a network-output map up to input resolution before decoding.

    The warp inverts the input->output resize under the configured
    convention.  This costs one interpolation pass and bends the map's
    value distribution, which is why it is exposed as an explicit toggle.
    """
    return warp(h, invert(input_to_output(cfg)), cfg.input)


def swap_flip_pairs(points: list[Point], pairs: tuple[tuple[int, int], ...]) -> list[Point]:
    """Exchange the listed index pairs (left/right joints under mirroring)."""
    out = list(points)
    for a, b in pairs:
        out[a], out[b] = out[b], out[a]
    return out


# ---------------------------------------------------------------------------
# Flat key=value config files
# ---------------------------------------------------------------------------


def config_to_text(cfg: PipelineConfig) -> str:
    lines = [
        f"convention={cfg.convention.value}",
        f"input_px={cfg.input.width_px}x{cfg.input.height_px}",
        f"output_px={cfg.output.width_px}x{cfg.output.height_px}",
        f"flip_test={'true' if cfg.flip_test else 'false'}",
        f"compensation={cfg.compensation.value}",
        f"codec={cfg.codec.value}",
        f"combine={cfg.combine.value}",
        f"rno={'true' if cfg.rno else 'false'}",
        f"sigma={cfg.sigma!r}",
        f"radius={cfg.radius!r}",
        f"flip_pairs={','.join(f'{a}:{b}' for a, b in cfg.flip_pairs)}",
    ]
    return "\n".join(lines) + "\n"


def parse_size(text: str) -> PlaneSize:
    """Parse ``WIDTHxHEIGHT`` pixel counts, as in ``input_px=192x256``."""
    try:
        w, h = (int(v) for v in text.lower().split("x"))
    except ValueError as exc:
        raise ValueError(f"expected WIDTHxHEIGHT pixels, got {text!r}") from exc
    return PlaneSize(w, h)


def config_from_text(text: str, **overrides) -> PipelineConfig:
    """Build a config from flat ``key=value`` text.  ``overrides`` are fields
    that replace the text's before anything is built, so a ``combine`` or
    ``radius`` that neither sets follows the final codec and output plane."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        if (key := key.strip()) in values:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        values[key] = value.strip()

    def as_bool(text: str) -> bool:
        if text.lower() not in ("true", "false"):
            raise ValueError(f"expected true/false, got {text!r}")
        return text.lower() == "true"

    def as_pairs(text: str) -> tuple[tuple[int, int], ...]:
        items = (item.split(":") for item in text.split(",")) if text else ()
        return tuple((int(a), int(b)) for a, b in items)

    # Keys left out take the PipelineConfig defaults.
    parsers = {
        "convention": Convention, "input_px": parse_size, "output_px": parse_size,
        "flip_test": as_bool, "compensation": Compensation, "codec": Codec,
        "combine": Combine, "rno": as_bool, "sigma": float, "radius": float,
        "flip_pairs": as_pairs,
    }
    unknown = set(values) - set(parsers)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    missing = {"convention", "input_px", "output_px"} - set(values)
    if missing:
        raise ValueError(f"missing config keys: {sorted(missing)}")
    fields = {}
    for key, value in values.items():
        try:
            fields[key.removesuffix("_px")] = parsers[key](value)
        except ValueError as exc:
            raise ValueError(f"config key {key}: {exc}") from exc
    return PipelineConfig(**{**fields, **overrides})


def save_config(path, cfg: PipelineConfig) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(config_to_text(cfg))


def load_config(path, **overrides) -> PipelineConfig:
    """The config in the file at ``path``; ``overrides`` as in :func:`config_from_text`.
    A file that is not ASCII text is refused with its path."""
    with open(path, "r", encoding="ascii") as fh, _named(path):
        text = fh.read()
    return config_from_text(text, **overrides)
