"""Homogeneous 2D coordinate transforms over continuous image planes.

Conventions
-----------
Points live in a continuous plane whose origin sits on the top-left pixel
sample; x grows rightward, y grows downward.  Distances are measured in unit
lengths, the spacing between adjacent pixel samples.  A grid that is ``wp``
pixels wide therefore spans ``wp - 1`` unit lengths, and :class:`PlaneSize`
carries both numbers so they never get conflated: resize ratios built from
the wrong one silently shift every coordinate that passes through them.

Transforms are 3x3 homogeneous matrices acting on column vectors
``(x, y, 1)``.  Composition is right-to-left: ``compose(a, b)`` applies
``b`` first.

The arithmetic is written once, on a transform's top two rows as six
coefficients ``(a, b, c, d, e, f)``: ``(x, y) -> (a*x + b*y + c, d*x + e*y + f)``.
The private ``_compose``, ``_invert`` and ``_apply`` take six floats or six
``(R,)`` arrays and use one fixed operation order (not numpy's ``@``, whose
order is the BLAS library's), so a batch equals its one-row calls bit for
bit; the public functions are those one-row calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PlaneSize",
    "Point",
    "Roi",
    "SingularTransformError",
    "Transform2D",
    "apply_point",
    "compose",
    "identity",
    "invert",
    "t_crop",
    "t_flip",
    "t_resize",
    "t_rotate",
]

# Inverses are refused below this determinant magnitude; transforms in this
# library have scales well above it.
_SINGULAR_EPS = 1e-12


class SingularTransformError(ValueError):
    """The transform has no inverse (upper-left 2x2 block is singular)."""


@dataclass(frozen=True)
class PlaneSize:
    """Extent of a sampled image plane.

    ``width_px``/``height_px`` count sample points; ``width_units`` and
    ``height_units`` measure the spanned distance in unit lengths and are
    always exactly one less.  Single-pixel axes are rejected because they
    span zero distance and make every resize ratio degenerate.
    """

    width_px: int
    height_px: int

    def __post_init__(self) -> None:
        if self.width_px != int(self.width_px) or self.height_px != int(self.height_px):
            raise ValueError("pixel counts must be integers")
        object.__setattr__(self, "width_px", int(self.width_px))
        object.__setattr__(self, "height_px", int(self.height_px))
        if self.width_px < 2 or self.height_px < 2:
            raise ValueError(
                f"plane must be at least 2x2 pixels, got {self.width_px}x{self.height_px}"
            )

    @property
    def width_units(self) -> float:
        return float(self.width_px - 1)

    @property
    def height_units(self) -> float:
        return float(self.height_px - 1)


@dataclass(frozen=True)
class Point:
    """A location in a continuous plane, in unit lengths."""

    x: float
    y: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"point coordinates must be finite, got ({self.x}, {self.y})")


@dataclass(frozen=True)
class Roi:
    """A region of interest: center ``(cx, cy)`` plus extents ``(w, h)``."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self) -> None:
        for name in ("cx", "cy", "w", "h"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not all(math.isfinite(v) for v in (self.cx, self.cy, self.w, self.h)):
            raise ValueError("roi fields must be finite")
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"roi extents must be positive, got w={self.w}, h={self.h}")


@dataclass(frozen=True, eq=False)
class Transform2D:
    """A 3x3 homogeneous matrix whose bottom row is exactly ``(0, 0, 1)``.

    The bottom-row invariant is enforced here, at construction, so that
    downstream multiplies never need to re-normalize.
    """

    m: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.m, dtype=np.float64)
        if m.shape != (3, 3):
            raise ValueError(f"transform matrix must be 3x3, got shape {m.shape}")
        if m[2, 0] != 0.0 or m[2, 1] != 0.0 or m[2, 2] != 1.0:
            raise ValueError("bottom row must be exactly (0, 0, 1)")
        if not np.all(np.isfinite(m[:2])):
            raise ValueError("transform entries must be finite")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "m", m)

    def __matmul__(self, other: "Transform2D") -> "Transform2D":
        return compose(self, other)

    def __call__(self, p: Point) -> Point:
        return apply_point(self, p)


def _coeffs(t: Transform2D) -> tuple[float, ...]:
    return tuple(t.m[:2].ravel().tolist())


def _transform(p) -> Transform2D:
    a, b, c, d, e, f = p
    return Transform2D(np.array([[a, b, c], [d, e, f], [0.0, 0.0, 1.0]]))


def _translate(tx, ty):
    return 1.0, 0.0, tx, 0.0, 1.0, ty


def _crop(cx, cy, w, h):
    """:func:`t_crop` for center-format boxes ``(cx, cy, w, h)``."""
    return _translate(-cx + 0.5 * w, -cy + 0.5 * h)


def _resize(src_w, src_h, dst_w, dst_h):
    """:func:`t_resize`, without its extent check."""
    return dst_w / src_w, 0.0, 0.0, 0.0, dst_h / src_h, 0.0


def _compose(p, q):
    """``q`` first, then ``p``."""
    a, b, c, d, e, f = p
    qa, qb, qc, qd, qe, qf = q
    return (a * qa + b * qd, a * qb + b * qe, a * qc + b * qf + c,
            d * qa + e * qd, d * qb + e * qe, d * qc + e * qf + f)


def _invert(p):
    """The inverse in closed form; raises :class:`SingularTransformError`
    naming the determinant of the first transform that has no inverse."""
    a, b, c, d, e, f = p
    det = a * e - b * d
    bad = ~np.isfinite(det) | (np.abs(det) < _SINGULAR_EPS)
    if np.any(bad):
        raise SingularTransformError(f"transform is singular (det={np.extract(bad, det)[0]})")
    ia, ib, ic, ie = e / det, -b / det, -d / det, a / det
    return ia, ib, -(ia * c + ib * f), ic, ie, -(ic * c + ie * f)


def _apply(p, x, y):
    a, b, c, d, e, f = p
    return a * x + b * y + c, d * x + e * y + f


def identity() -> Transform2D:
    """The transform that maps every point to itself."""
    return Transform2D(np.eye(3))


def t_crop(roi: Roi) -> Transform2D:
    """Move the origin to the top-left corner of ``roi``.

    The corner of a center-format roi sits at ``(cx - w/2, cy - h/2)``, so
    the result is a pure translation by ``(-cx + w/2, -cy + h/2)``.
    """
    return _transform(_crop(roi.cx, roi.cy, roi.w, roi.h))


def t_resize(src_w: float, src_h: float, dst_w: float, dst_h: float) -> Transform2D:
    """Rescale a plane of extent ``(src_w, src_h)`` to ``(dst_w, dst_h)``.

    Only the unit length changes: the four corner samples of source and
    destination stay aligned when extents are measured in unit lengths.
    All four extents must be positive.
    """
    if src_w <= 0 or src_h <= 0 or dst_w <= 0 or dst_h <= 0:
        raise ValueError(
            f"resize extents must be positive, got ({src_w}, {src_h}) -> ({dst_w}, {dst_h})"
        )
    return _transform(_resize(src_w, src_h, dst_w, dst_h))


def t_rotate(theta: float, center: Point) -> Transform2D:
    """Rotate by ``theta`` radians about ``center``, which stays fixed."""
    if not math.isfinite(theta):
        raise ValueError(f"rotation angle must be finite, got {theta}")
    c, s = math.cos(theta), math.sin(theta)
    bx, by = center.x, center.y
    return _transform((c, -s, -bx * c + by * s + bx, s, c, -bx * s - by * c + by))


def t_flip(width: float) -> Transform2D:
    """Mirror horizontally about ``x = width / 2``.

    ``width`` is the plane extent in unit lengths; node ``x`` maps to
    ``width - x``, so flipping a grid twice is the identity.
    """
    if width <= 0:
        raise ValueError(f"flip width must be positive, got {width}")
    return _transform((-1.0, 0.0, float(width), 0.0, 1.0, 0.0))


def compose(outer: Transform2D, inner: Transform2D) -> Transform2D:
    """The transform applying ``inner`` first, then ``outer``."""
    return _transform(_compose(_coeffs(outer), _coeffs(inner)))


def invert(t: Transform2D) -> Transform2D:
    """The inverse transform, computed in closed form for affine matrices.

    Raises
    ------
    SingularTransformError
        If the upper-left 2x2 block has (near-)zero determinant.
    """
    return _transform(_invert(_coeffs(t)))


def apply_point(t: Transform2D, p: Point) -> Point:
    """Apply ``t`` to a point (homogeneous multiply, last coordinate 1)."""
    return Point(*_apply(_coeffs(t), p.x, p.y))
