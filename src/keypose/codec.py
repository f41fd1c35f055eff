"""Keypoint format transformations: coordinates to heatmaps and back.

Two encoder families are provided.  The disc-plus-offsets format
(:func:`encode_ccrf`) stores a binary classification disc together with
per-node sub-pixel offsets; decoding it recovers the keypoint exactly, so
the round trip introduces no error at all.  The plain Gaussian format
(:func:`encode_gaussian`) stores only a classification map; recovering
sub-pixel position from it needs a refinement step, and the choice of that
step is exactly where precision is won or lost:

* :func:`decode_dark` takes one Newton step toward the mode using first and
  second log-space derivatives at the peak node.  For an exactly rendered
  Gaussian the log map is quadratic, central differences are exact, and the
  step lands on the true center.
* :func:`decode_biased_quarter` nudges the peak node by a fixed 0.25 in the
  uphill direction per axis.  The recovered coordinate is quantized to the
  +-0.25 lattice around grid nodes, which costs 1/8 unit length of expected
  error per axis (variance 1/192) for uniformly placed keypoints.
* :func:`decode_argmax` keeps the bare peak node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import PlaneSize, Point
from .raster import ImageGrid

__all__ = [
    "CcrfTarget",
    "DecodeResult",
    "GaussianTarget",
    "NoDetectionError",
    "OutOfBoundsError",
    "decode_argmax",
    "decode_biased_quarter",
    "decode_ccrf",
    "decode_dark",
    "default_ccrf_radius",
    "encode_ccrf",
    "encode_gaussian",
    "loss_ccrf",
    "loss_mse",
    "nearest_node",
]

# Hessian determinants below this are treated as singular by decode_dark.
_HESSIAN_EPS = 1e-12


class OutOfBoundsError(ValueError):
    """A keypoint to encode lies outside the target plane."""


class NoDetectionError(ValueError):
    """A classification map contains no response to decode."""


@dataclass(frozen=True, eq=False)
class CcrfTarget:
    """Disc-plus-offsets encoding of one keypoint.

    ``c`` is 1 on nodes strictly inside the disc of ``radius`` around the
    keypoint and 0 elsewhere; wherever ``c`` is 1, ``x_off``/``y_off`` hold
    the exact node-to-keypoint displacement.  Outside the disc the offsets
    are stored as 0 and are masked out of the loss by ``c``.
    """

    c: ImageGrid
    x_off: ImageGrid
    y_off: ImageGrid
    radius: float

    def __post_init__(self) -> None:
        _check_radius(self.radius)
        if not (self.c.size == self.x_off.size == self.y_off.size):
            raise ValueError("c, x_off and y_off must share one plane size")


@dataclass(frozen=True, eq=False)
class GaussianTarget:
    """Gaussian-valued classification encoding of one keypoint.

    Every node holds ``exp(-d^2 / (2 sigma^2))`` for its distance ``d`` to
    the keypoint, evaluated over the full map with no truncation window, so
    the map is also usable as an exact oracle.  The peak value 1 appears
    only when the keypoint sits exactly on a node.
    """

    c: ImageGrid
    sigma: float

    def __post_init__(self) -> None:
        _check_sigma(self.sigma)


@dataclass(frozen=True)
class DecodeResult:
    """A decoded keypoint: sub-pixel position plus the peak node it came from.

    ``degenerate`` is set when a refinement step could not run (flat or
    border peak, non-concave curvature) and the decoder fell back to the
    bare peak node.
    """

    k: Point
    argmax: tuple[int, int]
    degenerate: bool = False


def _check_sigma(sigma: float) -> None:
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be finite and positive, got {sigma}")
    if 2.0 * sigma * sigma == 0.0:
        raise ValueError(f"sigma is too small: 2*sigma^2 underflows to 0, got {sigma}")


def _check_radius(radius: float) -> None:
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be finite and positive, got {radius}")


def _check_in_plane(k: Point, dims: PlaneSize) -> None:
    if not (0.0 <= k.x <= dims.width_units and 0.0 <= k.y <= dims.height_units):
        raise OutOfBoundsError(
            f"keypoint ({k.x}, {k.y}) outside plane "
            f"[0, {dims.width_units}] x [0, {dims.height_units}]"
        )


def _ccrf_arrays(width_px: int, height_px: int, m: float, n: float, radius: float):
    xs = np.arange(width_px, dtype=np.float64)
    ys = np.arange(height_px, dtype=np.float64)
    d2 = (xs - m) ** 2 + ((ys - n) ** 2)[:, None]
    c = (d2 < radius * radius).astype(np.float64)
    x_off = (m - xs) * c
    y_off = ((n - ys)[:, None] * np.ones(width_px)) * c
    return c, x_off, y_off


def _gaussian_array(width_px: int, height_px: int, m: float, n: float, sigma: float):
    xs = np.arange(width_px, dtype=np.float64)
    ys = np.arange(height_px, dtype=np.float64)
    d2 = (xs - m) ** 2 + ((ys - n) ** 2)[:, None]
    with np.errstate(over="ignore"):  # an exponent of -inf gives the exact 0
        return np.exp(-d2 / (2.0 * sigma * sigma))


def encode_ccrf(k: Point, dims: PlaneSize, radius: float) -> CcrfTarget:
    """Encode ``k`` as a classification disc plus exact offset maps.

    Raises :class:`OutOfBoundsError` if ``k`` is outside the plane.
    """
    _check_radius(radius)
    _check_in_plane(k, dims)
    c, x_off, y_off = _ccrf_arrays(dims.width_px, dims.height_px, k.x, k.y, radius)
    return CcrfTarget(
        c=ImageGrid(dims, c),
        x_off=ImageGrid(dims, x_off),
        y_off=ImageGrid(dims, y_off),
        radius=float(radius),
    )


def encode_gaussian(k: Point, dims: PlaneSize, sigma: float = 2.0) -> GaussianTarget:
    """Encode ``k`` as an untruncated Gaussian classification map."""
    _check_sigma(sigma)
    _check_in_plane(k, dims)
    c = _gaussian_array(dims.width_px, dims.height_px, k.x, k.y, sigma)
    return GaussianTarget(c=ImageGrid(dims, c), sigma=float(sigma))


def _argmax_xy(c: np.ndarray) -> tuple[int, int]:
    """Peak node of a 2D map; ties go to the first node in row-major order."""
    flat = int(np.argmax(c))
    iy, ix = divmod(flat, c.shape[1])
    return ix, iy


def decode_ccrf(t: CcrfTarget) -> DecodeResult:
    """Recover the keypoint from a disc-plus-offsets prediction.

    The peak node of ``c`` (first in row-major order on ties) is refined by
    the offsets stored there.  On exact encodings the result equals the
    encoded keypoint, whatever its sub-pixel position.

    Raises :class:`NoDetectionError` when ``c`` is identically zero.
    """
    c = t.c.data[:, :, 0]
    if not np.any(c):
        raise NoDetectionError("classification map is identically zero")
    ix, iy = _argmax_xy(c)
    return DecodeResult(
        k=Point(ix + t.x_off.data[iy, ix, 0], iy + t.y_off.data[iy, ix, 0]),
        argmax=(ix, iy),
    )


def decode_argmax(c: ImageGrid) -> DecodeResult:
    """Return the bare peak node, with no sub-pixel refinement."""
    ix, iy = _argmax_xy(c.data[:, :, 0])
    return DecodeResult(k=Point(float(ix), float(iy)), argmax=(ix, iy))


def _dark_offset(c: np.ndarray, ix: int, iy: int) -> tuple[float, float, bool]:
    """One Newton step toward the mode in log space; (dx, dy, degenerate)."""
    h, w = c.shape
    if ix < 1 or ix > w - 2 or iy < 1 or iy > h - 2:
        return 0.0, 0.0, True
    window = c[iy - 1 : iy + 2, ix - 1 : ix + 2]
    if np.any(window <= 0.0):
        return 0.0, 0.0, True
    log_w = np.log(window)
    gx = (log_w[1, 2] - log_w[1, 0]) / 2.0
    gy = (log_w[2, 1] - log_w[0, 1]) / 2.0
    hxx = log_w[1, 2] - 2.0 * log_w[1, 1] + log_w[1, 0]
    hyy = log_w[2, 1] - 2.0 * log_w[1, 1] + log_w[0, 1]
    hxy = (log_w[2, 2] - log_w[2, 0] - log_w[0, 2] + log_w[0, 0]) / 4.0
    det = hxx * hyy - hxy * hxy
    if abs(det) < _HESSIAN_EPS or hxx >= 0.0 or det <= 0.0:
        return 0.0, 0.0, True
    # Solve -H^-1 g for the 2x2 symmetric Hessian.
    dx = -(hyy * gx - hxy * gy) / det
    dy = -(hxx * gy - hxy * gx) / det
    return dx, dy, False


def decode_dark(c: ImageGrid) -> DecodeResult:
    """Refine the peak node by one log-space Newton step toward the mode.

    Derivatives are central differences of ``log c`` on the 3x3 window
    around the peak, which makes the step exact for exactly rendered
    Gaussian maps.  If the peak sits on the border, the window contains
    non-positive values, or the Hessian is near-singular or not negative
    definite, the decoder falls back to the peak node and flags the result
    ``degenerate``.
    """
    arr = c.data[:, :, 0]
    ix, iy = _argmax_xy(arr)
    dx, dy, degenerate = _dark_offset(arr, ix, iy)
    return DecodeResult(k=Point(ix + dx, iy + dy), argmax=(ix, iy), degenerate=degenerate)


def _quarter_offset(c: np.ndarray, ix: int, iy: int) -> tuple[float, float]:
    """Fixed quarter-node nudge in the uphill direction per axis.

    The derivative sign comes from a central difference, one-sided at the
    borders (clamping the neighbor index; every plane is at least 2 nodes
    wide); a zero difference counts as positive.
    """
    h, w = c.shape
    diff_x = c[iy, min(ix + 1, w - 1)] - c[iy, max(ix - 1, 0)]
    diff_y = c[min(iy + 1, h - 1), ix] - c[max(iy - 1, 0), ix]
    return (0.25 if diff_x >= 0.0 else -0.25), (0.25 if diff_y >= 0.0 else -0.25)


def decode_biased_quarter(c: ImageGrid) -> DecodeResult:
    """Peak node plus a fixed 0.25 shift toward the larger neighbor, per axis."""
    arr = c.data[:, :, 0]
    ix, iy = _argmax_xy(arr)
    dx, dy = _quarter_offset(arr, ix, iy)
    return DecodeResult(k=Point(ix + dx, iy + dy), argmax=(ix, iy))


def _l2(a: np.ndarray) -> float:
    return float(np.sqrt(np.sum(a * a)))


def loss_ccrf(pred: CcrfTarget, target: CcrfTarget) -> float:
    """Training loss of the disc-plus-offsets format.

    L2 norm of the classification residual, plus L2 norms of the offset
    residuals masked by the target disc: offsets only matter where the
    classification label is true.  Zero exactly when the prediction matches
    the target on ``c`` everywhere and on the offsets inside the disc.
    """
    if pred.c.size != target.c.size:
        raise ValueError(
            f"prediction plane {pred.c.size} does not match target {target.c.size}"
        )
    mask = target.c.data
    return (
        _l2(pred.c.data - target.c.data)
        + _l2(mask * (pred.x_off.data - target.x_off.data))
        + _l2(mask * (pred.y_off.data - target.y_off.data))
    )


def loss_mse(pred: ImageGrid, target: ImageGrid) -> float:
    """L2 norm of the residual between two maps of the same shape."""
    if pred.size != target.size or pred.channels != target.channels:
        raise ValueError("prediction and target dimensions do not match")
    return _l2(pred.data - target.data)


def default_ccrf_radius(dims: PlaneSize) -> float:
    """Standard disc radius for a given map: 1/16 of the pixel width."""
    return 0.0625 * dims.width_px


def nearest_node(k: Point) -> tuple[int, int]:
    """Grid node closest to ``k``; exact halves round down, matching the
    row-major tie rule of :func:`decode_argmax` on symmetric peaks."""
    return math.ceil(k.x - 0.5), math.ceil(k.y - 0.5)
