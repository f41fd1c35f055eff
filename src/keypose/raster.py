"""Discrete sampling of continuous image planes.

An :class:`ImageGrid` is a sampling of the plane at the integer nodes
``0..width_px-1`` x ``0..height_px-1``.  :func:`warp` resamples a grid under
a transform by inverse mapping: each destination node is backtracked through
the inverse transform and read from the source by bilinear interpolation.
Interpolation loss is irreversible, so pipelines should warp as few times as
possible; this module never resamples implicitly.

The source plane is finite, so backtracked positions can land outside it.
:class:`BorderPolicy` decides what such reads return; the rest of the
library defaults to ``ZERO_FILL``.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import PlaneSize, Point, Transform2D, _apply, _coeffs, invert

__all__ = [
    "BorderPolicy",
    "ImageGrid",
    "bilinear_sample",
    "flip_heatmap",
    "read_grid_text",
    "read_pgm",
    "warp",
    "write_grid_text",
    "write_pgm",
]


class BorderPolicy(Enum):
    """What a sample read outside the source extent returns."""

    ZERO_FILL = "zero_fill"
    CLAMP_TO_EDGE = "clamp_to_edge"


@dataclass(frozen=True, eq=False)
class ImageGrid:
    """A finite, immutable sampling of the image plane.

    ``data`` is ``(height_px, width_px, channels)`` float64, row-major.
    A 2D array is accepted and treated as single-channel.
    """

    size: PlaneSize
    data: np.ndarray

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim == 2:
            data = data[:, :, None]
        if data.ndim != 3:
            raise ValueError(f"grid data must be 2D or 3D, got ndim={data.ndim}")
        expected = (self.size.height_px, self.size.width_px)
        if data.shape[:2] != expected:
            raise ValueError(
                f"grid data shape {data.shape[:2]} does not match plane {expected}"
            )
        if data.shape[2] < 1:
            raise ValueError("grid must have at least one channel")
        if not np.all(np.isfinite(data)):
            raise ValueError("grid values must be finite")
        data = data.copy()
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @property
    def channels(self) -> int:
        return int(self.data.shape[2])

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "ImageGrid":
        arr = np.asarray(arr, dtype=np.float64)
        h, w = arr.shape[:2]
        return cls(PlaneSize(w, h), arr)


# Positions are clipped to +-2**53 before the integer cast so that the cast
# cannot overflow.  Every float64 of that magnitude is an integer and lies
# far outside any grid, so the clip changes no clipped index and no weight.
_Q_LIMIT = float(2**53)


def _axis_taps(
    q: np.ndarray, n: int, policy: BorderPolicy
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Bilinear taps along one axis of length ``n`` at float positions ``q``.

    Returns ``((i0, w0), (i1, w1))``: the node below and the node above each
    position, as indices clipped to ``0..n-1`` and weights ``1 - d`` and
    ``d``.  Under ``ZERO_FILL`` a tap whose node lies outside ``0..n-1``
    gets weight zero.
    """
    q = np.clip(q, -_Q_LIMIT, _Q_LIMIT)
    f = np.floor(q)
    w1 = q - f
    w0 = 1.0 - w1
    i0 = f.astype(np.int64)
    i1 = i0 + 1
    if policy is BorderPolicy.ZERO_FILL:
        w0 = w0 * ((i0 >= 0) & (i0 < n))
        w1 = w1 * ((i1 >= 0) & (i1 < n))
    return (np.clip(i0, 0, n - 1), w0), (np.clip(i1, 0, n - 1), w1)


def _tap_sum(read, xtaps, ytaps):
    """The bilinear tap sum of ``_axis_taps``' ``xtaps`` and ``ytaps``
    (broadcast against each other); ``read(yi, xi)`` returns the node values
    at index arrays shaped like the taps.  It owns the order of the four
    terms, so that all of its callers agree bit for bit."""
    (x0, wx0), (x1, wx1) = xtaps
    (y0, wy0), (y1, wy1) = ytaps
    return (
        (wx0 * wy0) * read(y0, x0)
        + (wx1 * wy0) * read(y0, x1)
        + (wx0 * wy1) * read(y1, x0)
        + (wx1 * wy1) * read(y1, x1)
    )


def _bilinear_many(
    data: np.ndarray, xq: np.ndarray, yq: np.ndarray, policy: BorderPolicy
) -> np.ndarray:
    """Sample ``data`` (H, W, C) at float positions, (N,) -> (N, C), (H', W') -> (H', W', C)."""
    h, w = data.shape[:2]
    planes = np.moveaxis(data, 2, 0)
    out = _tap_sum(lambda yi, xi: planes[:, yi, xi], _axis_taps(xq, w, policy),
                   _axis_taps(yq, h, policy))
    return np.moveaxis(out, 0, -1)


def bilinear_sample(
    grid: ImageGrid, p: Point, policy: BorderPolicy = BorderPolicy.ZERO_FILL
) -> np.ndarray:
    """Bilinearly interpolate ``grid`` at ``p``; returns one value per channel.

    The result is a convex combination of the up-to-four surrounding nodes,
    so positions that land exactly on an in-bounds node return the stored
    value unchanged.
    """
    return _bilinear_many(
        grid.data, np.array([p.x], dtype=np.float64), np.array([p.y], dtype=np.float64), policy
    )[0]


def warp(
    src: ImageGrid,
    t: Transform2D,
    dst_size: PlaneSize,
    policy: BorderPolicy = BorderPolicy.ZERO_FILL,
) -> ImageGrid:
    """Resample ``src`` under ``t`` onto a destination plane of ``dst_size``.

    Every destination node ``p`` receives the source value at
    ``invert(t) . p``.  Raises :class:`~keypose.geometry.SingularTransformError`
    for non-invertible ``t``.
    """
    xs = np.arange(dst_size.width_px, dtype=np.float64)
    ys = np.arange(dst_size.height_px, dtype=np.float64)[:, None]
    sx, sy = _apply(_coeffs(invert(t)), xs, ys)
    return ImageGrid(dst_size, _bilinear_many(src.data, sx, sy, policy))


def flip_heatmap(grid: ImageGrid) -> ImageGrid:
    """Reverse column order in every channel; applying it twice is a no-op."""
    return ImageGrid(grid.size, grid.data[:, ::-1, :])


# ---------------------------------------------------------------------------
# File formats: plain PGM for single-channel images, and a whitespace text
# format ("rows cols channels" header) that holds float heatmaps losslessly.
# ---------------------------------------------------------------------------


def write_pgm(path, grid: ImageGrid, maxval: int = 255, raw: bool = True) -> None:
    """Write a single-channel grid as PGM (P5 when ``raw``, else P2).

    Values are rounded to the nearest integer and clipped to ``[0, maxval]``.
    """
    if grid.channels != 1:
        raise ValueError(f"PGM holds one channel, grid has {grid.channels}")
    if not (0 < maxval < 65536):
        raise ValueError(f"maxval must be in 1..65535, got {maxval}")
    vals = np.clip(np.rint(grid.data[:, :, 0]), 0, maxval).astype(np.uint32)
    header = f"{'P5' if raw else 'P2'}\n{grid.size.width_px} {grid.size.height_px}\n{maxval}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if raw:
            dtype = ">u2" if maxval > 255 else np.uint8
            fh.write(vals.astype(dtype).tobytes())
        else:
            lines = [" ".join(str(v) for v in row) for row in vals]
            fh.write(("\n".join(lines) + "\n").encode("ascii"))


def _pgm_tokens(buf: bytes):
    """``(offset, token)`` pairs of the whitespace-separated ASCII tokens,
    skipping '#' comments; lazy, so P5 pixel bytes are never tokenized."""
    return ((m.start(), m[0]) for m in re.finditer(rb"#[^\n]*|[^ \t\r\n#]+", buf)
            if m[0][:1] != b"#")


@contextmanager
def _named(path):
    """Prefix every ``ValueError`` raised while parsing ``path`` with it."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def read_pgm(path) -> ImageGrid:
    """Read a P2 or P5 PGM file into a single-channel float grid."""
    return _read_pgm(path)[0]


def _read_pgm(path) -> tuple[ImageGrid, int]:
    """:func:`read_pgm`'s grid and the file's maxval."""
    with open(path, "rb") as fh, _named(path):
        buf = fh.read()
        tokens = _pgm_tokens(buf)
        try:
            _, magic = next(tokens)
            _, w_tok = next(tokens)
            _, h_tok = next(tokens)
            pos_maxval, maxval_tok = next(tokens)
        except StopIteration:
            raise ValueError("truncated PGM header") from None
        if magic not in (b"P2", b"P5"):
            raise ValueError(f"not a PGM file (magic {magic!r})")
        w, h, maxval = int(w_tok), int(h_tok), int(maxval_tok)
        if maxval <= 0 or maxval > 65535:
            raise ValueError(f"bad maxval {maxval}")
        plane = PlaneSize(w, h)
        if magic == b"P5":
            # Binary data starts after the single whitespace byte that ends
            # the maxval token.
            data_start = pos_maxval + len(maxval_tok) + 1
            dtype = np.dtype(">u2") if maxval > 255 else np.dtype(np.uint8)
            need, size = w * h * dtype.itemsize, len(buf[data_start:])
            if size != need:
                raise ValueError(f"expected {need} bytes of pixel data, got {size}")
            vals = np.frombuffer(buf, dtype, offset=data_start).astype(np.float64)
        else:
            vals = np.array([float(int(tok)) for _, tok in tokens], dtype=np.float64)
            if vals.size != w * h:
                raise ValueError(f"expected {w * h} samples, got {vals.size}")
        if np.any(bad := (vals < 0) | (vals > maxval)):
            raise ValueError(f"sample {vals[bad][0]:g} is outside 0..{maxval}")
        return ImageGrid(plane, vals.reshape(h, w)), maxval


def write_grid_text(path, grid: ImageGrid) -> None:
    """Write a grid as text: a "rows cols channels" header, then values.

    Values are row-major with the channel index fastest, printed with enough
    digits to round-trip float64 exactly.
    """
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{grid.size.height_px} {grid.size.width_px} {grid.channels}\n")
        for row in grid.data:
            fh.write(" ".join(format(v, ".17g") for v in row.ravel()))
            fh.write("\n")


def read_grid_text(path) -> ImageGrid:
    """Read a grid written by :func:`write_grid_text`."""
    with open(path, "r", encoding="ascii") as fh, _named(path):
        parts = fh.read().split()
        if len(parts) < 3:
            raise ValueError("missing grid header")
        try:
            rows, cols, channels = (int(p) for p in parts[:3])
        except ValueError:
            raise ValueError(f"bad grid header {' '.join(parts[:3])!r}") from None
        vals = np.array([float(p) for p in parts[3:]], dtype=np.float64)
        if vals.size != rows * cols * channels:
            raise ValueError(f"expected {rows * cols * channels} values, got {vals.size}")
        return ImageGrid(PlaneSize(cols, rows), vals.reshape(rows, cols, channels))
