"""Ideal-network oracle and Monte Carlo / closed-form error engines.

Under a perfect-learning assumption the network is replaceable by an oracle
that returns exactly its training target for any input.  Every residual
error in a simulated pipeline is then a property of the data processing
alone, which makes desk-scale measurement of those errors possible.

Both oracle modes share one trial flow: map the ground truth to the input
plane (skipping keypoints outside it), render the original and the flipped
input's prediction, combine them (average the decoded coordinates, or
mirror the flipped map back, optionally shift it one node and average the
maps), apply the residual correction, decode, and map the result to the
output and source planes.  The modes differ only in how a map is
represented:

* ``ANALYTIC_SHIFT`` mode keeps a map as its peak coordinates.
  Classification-map averaging is modeled by its single-peak approximation
  (the averaged map's peak sits at the midpoint of the two branch peaks),
  decoding is exact for the unbiased codecs, and the quarter-shift decoder
  applies its closed-form quantization law.
* ``FULL_HEATMAP`` mode decodes the configured encoder's real heatmaps,
  flipped, shifted and averaged, with the real decoders' rules, so it also
  captures what the coordinate-level approximation leaves out.  A map is
  kept as its branch keypoints; only the node values a decoder reads are
  computed, each equal to the 2-D map's bit for bit (over 20 times faster
  than rendering whole maps on the top-down presets; ``BENCH_11.json``).

Trials run in fixed-size chunks, each as one pass over numpy arrays; the
rendered-heatmap step takes a chunk's live trials in blocks.  Each trial's
randomness derives only from the run seed and the trial index (a
splitmix-style generator).  A bound sampler lists its crop boxes and each
trial names one of them; a run computes their coefficients in one array
pass before its first chunk.  Skipped and failed trials are status masks,
not exceptions.  Each chunk's error sums are exact (``math.fsum``) and its
variance partial is a two-pass sum of squared deviations; chunks merge in
index order, so results are identical for any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .codec import _HESSIAN_EPS, NoDetectionError, encode_ccrf, encode_gaussian
from .dataio import crop_boxes
from .geometry import _SINGULAR_EPS, Point, Roi, SingularTransformError, apply_point, invert
from .pipeline import (
    Codec,
    Combine,
    Compensation,
    Convention,
    PipelineConfig,
    _extents,
    input_to_output,
    output_to_source,
)
from .raster import BorderPolicy, _bilinear

# Unused here; kept importable because perfbench/tracer.py wraps these names.
from .codec import _argmax_xy, _ccrf_arrays, _dark_offset, _gaussian_array  # noqa: F401
from .codec import _quarter_offset  # noqa: F401
from .pipeline import rno_upsample, test_transform  # noqa: F401

__all__ = [
    "CocoKeypointSampler",
    "ErrorStats",
    "OracleMode",
    "SkipTrial",
    "SplitMix64",
    "TrialRecord",
    "UniformKeypointSampler",
    "analytic_errors",
    "default_roi",
    "describe_config",
    "ideal_network",
    "monte_carlo",
    "run_trial",
    "substream",
]


class OracleMode(Enum):
    """Fidelity level of the simulated network output."""

    ANALYTIC_SHIFT = "analytic"
    FULL_HEATMAP = "heatmap"


class SkipTrial(Exception):
    """A trial's keypoint left the simulated planes; skip and count it."""


# ---------------------------------------------------------------------------
# Deterministic randomness: splitmix-style 64-bit generator.  The scalar
# generator is the specification; ``_uniforms`` draws whole chunks with
# wrapping uint64 arithmetic and equals it bit for bit.
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z):
    """The splitmix finalizer, on a Python int or a uint64 array."""
    z = z & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Splitmix-style PRNG: the state advances by the 64-bit golden-ratio
    constant and each output is a finalizer hash of the state.

    Chosen because the whole algorithm fits in a paragraph, making runs
    reproducible across implementations at the statistics level.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def uniform(self) -> float:
        """A float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))


def substream(seed: int, index: int) -> SplitMix64:
    """Independent generator for one trial, derived only from (seed, index)."""
    return SplitMix64(_mix64((seed + (index + 1) * _GOLDEN) & _MASK64))


def _uniforms(seed: int, start: int, stop: int, k: int) -> np.ndarray:
    """The first ``k`` uniforms of ``substream(seed, i)`` for every trial
    ``i`` in ``[start, stop)``, as a ``(stop - start, k)`` array."""
    index = np.arange(start + 1, stop + 1, dtype=np.uint64)
    state = _mix64((seed & _MASK64) + index * _GOLDEN)
    steps = np.arange(1, k + 1, dtype=np.uint64) * _GOLDEN
    bits = _mix64(state[:, None] + steps) >> 11
    return bits.astype(np.float64) * (1.0 / (1 << 53))


# ---------------------------------------------------------------------------
# Keypoint samplers
# ---------------------------------------------------------------------------


def default_roi(cfg: PipelineConfig) -> Roi:
    """A source-image crop box matching the input aspect ratio."""
    bw = cfg.input.width_px / 2.0
    bh = cfg.input.height_px / 2.0
    return Roi(cx=bw, cy=bh, w=bw, h=bh)


@dataclass(frozen=True)
class UniformKeypointSampler:
    """Ground truth uniform over the output plane, inset by a margin.

    The margin keeps encoded peaks away from the borders so that border
    handling never contaminates the statistics; ``None`` resolves to the
    disc radius for the disc codec and three sigma otherwise.
    """

    roi: Roi
    margin: float | None = None

    def bind(self, cfg: PipelineConfig) -> "_BoundUniform":
        if self.margin is not None:
            margin = float(self.margin)
        elif cfg.codec is Codec.CCRF:
            margin = float(cfg.radius)
        else:
            margin = 3.0 * cfg.sigma
        if not math.isfinite(margin):
            raise ValueError(f"margin must be finite, got {margin}")
        wo, ho = cfg.output.width_units, cfg.output.height_units
        if 2.0 * margin >= min(wo, ho):
            raise ValueError(
                f"margin {margin} leaves no interior on a "
                f"{cfg.output.width_px}x{cfg.output.height_px} output plane"
            )
        return _BoundUniform(self.roi, cfg, margin)


class _Bound:
    """A sampler bound to a configuration.  ``sample`` maps a block of
    uniforms, ``k`` per trial, to columns of its ``(4, R)`` crop ``boxes``
    and source-plane ground truth; ``draw`` is the same code for one trial."""

    __slots__ = ("boxes",)
    k = 1
    rois = property(lambda self: tuple(Roi(*c) for c in self.boxes.T.tolist()))

    def draw(self, rng: SplitMix64) -> tuple[int, float, float]:
        idx, gx, gy = self.sample(np.array([[rng.uniform() for _ in range(self.k)]]))
        return int(idx[0]), float(gx[0]), float(gy[0])


class _BoundUniform(_Bound):
    __slots__ = ("_o2s", "_margin", "_rx", "_ry")
    k = 2

    def __init__(self, roi: Roi, cfg: PipelineConfig, margin: float) -> None:
        self.boxes = np.array([[roi.cx], [roi.cy], [roi.w], [roi.h]])
        self._o2s = _aff(output_to_source(roi, cfg))
        self._margin = margin
        self._rx = cfg.output.width_units - 2.0 * margin
        self._ry = cfg.output.height_units - 2.0 * margin

    def sample(self, u: np.ndarray):
        kx = self._margin + u[:, 0] * self._rx
        ky = self._margin + u[:, 1] * self._ry
        return (np.zeros(len(u), dtype=np.intp), *_ap(self._o2s, kx, ky))


@dataclass(frozen=True)
class CocoKeypointSampler:
    """Ground truth drawn from annotated instances.

    Each trial picks one (instance, visible keypoint) pair uniformly; the
    crop box comes from the instance bounding box via aspect fixing and
    padding.  Keypoints that leave the simulated planes are skipped and
    counted, as real crops do clip annotations.
    """

    instances: tuple
    target_aspect: float | None = None
    padding: float = 1.25

    def bind(self, cfg: PipelineConfig) -> "_BoundCoco":
        aspect = self.target_aspect
        if aspect is None:
            aspect = cfg.input.width_px / cfg.input.height_px
        idx, xs, ys = [], [], []
        for i, inst in enumerate(self.instances):
            for point, visibility in inst.keypoints:
                if visibility > 0:
                    idx.append(i)
                    xs.append(point.x)
                    ys.append(point.y)
        if not idx:
            raise ValueError("no visible keypoints to sample from")
        boxes = crop_boxes([inst.bbox for inst in self.instances], aspect, self.padding)
        return _BoundCoco(np.array(boxes), np.array(idx), np.array(xs), np.array(ys))


class _BoundCoco(_Bound):
    __slots__ = ("_idx", "_x", "_y")

    def __init__(self, boxes: np.ndarray, idx: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> None:
        self.boxes = boxes
        self._idx, self._x, self._y = idx, xs, ys

    def sample(self, u: np.ndarray):
        pick = (u[:, 0] * len(self._x)).astype(np.intp)
        return self._idx[pick], self._x[pick], self._y[pick]


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorStats:
    """Aggregate absolute errors of one simulated configuration.

    ``mean_abs_x``/``mean_abs_y`` and their variances are in output-plane
    units against the true output-space keypoint; ``mean_abs_x_source`` is
    in source units against the ground truth.  ``n_trials`` counts the
    trials that contributed; skipped and failed trials are reported
    separately and excluded from the statistics.
    """

    label: str
    n_trials: int
    mean_abs_x: float
    mean_abs_y: float
    var_abs_x: float
    var_abs_y: float
    mean_abs_x_source: float
    n_skipped: int
    n_decode_failed: int
    n_degenerate: int

    def __post_init__(self) -> None:
        if self.n_trials <= 0:
            raise ValueError("stats need at least one contributing trial")
        if self.var_abs_x < 0 or self.var_abs_y < 0:
            raise ValueError("variances cannot be negative")

    # Standard errors of the means; derived, so reports and fields omit them.
    @property
    def sem_abs_x(self) -> float:
        return math.sqrt(self.var_abs_x / self.n_trials)

    @property
    def sem_abs_y(self) -> float:
        return math.sqrt(self.var_abs_y / self.n_trials)


@dataclass(frozen=True)
class TrialRecord:
    """One simulated prediction with its ground truth and configuration;
    ``degenerate`` flags a decode that fell back to the peak node."""

    gt_source: Point
    pred_source: Point
    pred_output: Point
    config: PipelineConfig
    degenerate: bool = False


def describe_config(cfg: PipelineConfig) -> str:
    parts = [cfg.convention.value, cfg.codec.value]
    if cfg.flip_test:
        parts.append("ft")
    if cfg.compensation is not Compensation.NONE:
        parts.append(cfg.compensation.value)
    if cfg.rno:
        parts.append("rno")
    parts.append(f"s{cfg.stride:g}")
    return "+".join(parts)


# ---------------------------------------------------------------------------
# Trial engine.  It runs a batch of trials element-wise on arrays; affine
# transforms are carried as flat 6-tuples of coefficients, either floats
# shared by the batch or one array entry per trial.
# ---------------------------------------------------------------------------

_OK, _SKIPPED, _FAILED = 0, 1, 2


def _aff(t) -> tuple[float, ...]:
    return tuple(t.m[:2].ravel().tolist())


def _ap(a, x, y):
    return a[0] * x + a[1] * y + a[2], a[3] * x + a[4] * y + a[5]


def _quarter_law(v: np.ndarray) -> np.ndarray:
    """Coordinate recovered by the quarter-shift decoder from an exact
    single-peak map centered at ``v``."""
    fl = np.floor(v)
    return np.where(v - fl < 0.5, fl + 0.25, fl + 0.75)


class _PeakMaps:
    """Coordinate-level oracle: a map is its single peak ``(x, y)`` in the
    output plane, so two maps average to the midpoint of their peaks.
    Decoding is exact except for the quarter-shift decoder, which applies
    its quantization law; ``up`` maps output to input plane for rno.  Every
    operation is element-wise, so a map may hold a whole batch of peaks, and
    no peak is ever skipped or fails to decode."""

    __slots__ = ("wo", "up", "quarter")

    def __init__(self, cfg: PipelineConfig, up=None) -> None:
        self.wo = cfg.output.width_units
        self.up = up
        self.quarter = cfg.codec is Codec.CF_BIASED_DECODE

    @staticmethod
    def covers(kx, ky):
        return True

    @staticmethod
    def render(kx, ky):
        return kx, ky

    def flip_back(self, p):
        return self.wo - p[0], p[1]

    @staticmethod
    def shift(p):
        return p[0] + 1.0, p[1]

    @staticmethod
    def average(a, b):
        return 0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1])

    def decode(self, p):
        x, y = p
        if self.up is not None:
            x, y = _ap(self.up, x, y)
        if self.quarter:
            return _quarter_law(x), _quarter_law(y), False, False
        return x, y, False, False


_BLOCK = 256  # live trials per block of rendered maps
_CF_MIN_SIGMA = math.sqrt(4.5 / (2.0 * 1022 * math.log(2.0)))  # see analytic_errors


def _newton_offsets(window: np.ndarray):
    """``codec._dark_offset`` on stacked 3x3 windows ``(B, 3, 3)`` around
    peak nodes: one log-space Newton step, ``(dx, dy, degenerate)`` arrays,
    with its formulas and degenerate rules; the caller flags border peaks."""
    degenerate = np.any(window <= 0.0, axis=(1, 2))
    log_w = np.log(np.where(degenerate[:, None, None], 1.0, window))
    gx = (log_w[:, 1, 2] - log_w[:, 1, 0]) / 2.0
    gy = (log_w[:, 2, 1] - log_w[:, 0, 1]) / 2.0
    hxx = log_w[:, 1, 2] - 2.0 * log_w[:, 1, 1] + log_w[:, 1, 0]
    hyy = log_w[:, 2, 1] - 2.0 * log_w[:, 1, 1] + log_w[:, 0, 1]
    hxy = (log_w[:, 2, 2] - log_w[:, 2, 0] - log_w[:, 0, 2] + log_w[:, 0, 0]) / 4.0
    det = hxx * hyy - hxy * hxy
    degenerate |= (np.abs(det) < _HESSIAN_EPS) | (hxx >= 0.0) | (det <= 0.0)
    det = np.where(degenerate, 1.0, det)
    dx = np.where(degenerate, 0.0, -(hyy * gx - hxy * gy) / det)
    dy = np.where(degenerate, 0.0, -(hxx * gy - hxy * gx) / det)
    return dx, dy, degenerate


class _AxisMaps:
    """Rendered-heatmap oracle for a block of trials.  A map is a tuple of
    branch terms ``(m, n, mirrored, shift)``: the encoder's map of keypoints
    ``(m, n)``, one per trial, optionally mirrored back and moved ``shift``
    nodes in +x (zeros move in); two terms average.  Node values are
    computed where a decoder reads them, with the encoder's formulas; under
    rno they are read through ``raster._bilinear``, the tap sum that
    ``rno_upsample``'s warp uses, so they equal the 2-D map's bit for bit."""

    def __init__(self, cfg: PipelineConfig) -> None:
        self.cfg = cfg
        self.ccrf = cfg.codec is Codec.CCRF
        self.w, self.h = cfg.output.width_px, cfg.output.height_px
        self.k = 2.0 * cfg.sigma * cfg.sigma
        self.plane = cfg.input if cfg.rno else cfg.output  # the decode plane
        self.axes = None
        if cfg.rno:  # input node -> output position, per axis, as in rno_upsample's warp
            inv = invert(invert(input_to_output(cfg))).m
            self.axes = ((inv[0, 0], inv[0, 2]), (inv[1, 1], inv[1, 2]))

    def covers(self, kx: np.ndarray, ky: np.ndarray) -> np.ndarray:
        out = self.cfg.output
        return (0.0 <= kx) & (kx <= out.width_units) & (0.0 <= ky) & (ky <= out.height_units)

    @staticmethod
    def render(kx, ky):
        return ((kx, ky, False, 0),)

    @staticmethod
    def flip_back(terms):
        return tuple((m, n, not mirrored, shift) for m, n, mirrored, shift in terms)

    @staticmethod
    def shift(terms):
        return tuple((m, n, mirrored, shift + 1) for m, n, mirrored, shift in terms)

    @staticmethod
    def average(a, b):
        return a + b

    def _at(self, terms, x, y):
        """The map's channels at output-plane columns ``x`` (B, k) and rows
        ``y`` (B, l), as ``(B, l, k)`` arrays."""
        values = []
        for m, n, mirrored, shift in terms:
            # The branch's own columns, at infinity where zeros moved in.
            xs = x - shift
            own = self.w - 1 - xs if mirrored else xs
            n = n[:, None]
            d2 = (np.where(xs >= 0, (own - m[:, None]) ** 2, np.inf)[:, None, :]
                  + ((y - n) ** 2)[:, :, None])
            if not self.ccrf:
                # A tiny sigma overflows this to -inf (exp: exact 0); _Engine.run allows it.
                values.append((np.exp(-d2 / self.k),))
                continue
            c = (d2 < self.cfg.radius * self.cfg.radius).astype(np.float64)
            x_off = (m[:, None] - own)[:, None, :] * c
            values.append((c, -x_off if mirrored else x_off, (n - y)[:, :, None] * c))
        return values[0] if len(values) == 1 else tuple(
            0.5 * (a + b) for a, b in zip(*values))

    def _values(self, terms, x, y):
        """The first channel in the decode plane at columns ``x`` and rows
        ``y``; under rno, read through the taps in ``rno_upsample``'s order."""
        if self.axes is None:
            return self._at(terms, x, y)[0]
        (sx, ox), (sy, oy) = self.axes
        return _bilinear(lambda yi, xi: self._at(terms, xi[:, 0], yi[:, :, 0])[0],
                         sx * x[:, None, :] + ox, sy * y[:, :, None] + oy,
                         self.w, self.h, BorderPolicy.ZERO_FILL)

    def _box(self, lo, hi, axis):
        """Decode-plane nodes ``(B, k)`` from the output node at or below
        ``lo`` to the one at or above ``hi`` (under rno, from the input node
        at or below the first to the one at or above the last); clipped, so
        repeats come last."""
        n = (self.plane.width_px, self.plane.height_px)[axis]
        lo, hi = np.floor(lo), np.ceil(hi)
        if self.axes is not None:
            scale, offset = self.axes[axis]
            lo, hi = np.floor((lo - offset) / scale), np.ceil((hi - offset) / scale)
        lo, hi = (np.clip(v, 0, n - 1).astype(np.intp) for v in (lo, hi))
        return np.minimum(lo[:, None] + np.arange(np.max(hi - lo, initial=0) + 1), n - 1)

    def decode(self, terms):
        """``(x, y, degenerate, failed)`` arrays; a disc map with no
        response fails.  The peak is the first maximum in row-major order
        in a box: a disc map is zero outside its discs, and a Gaussian map
        rises toward its keypoints along each axis (both branches share
        their rows), so its peak lies between the nodes at or beyond them."""
        reach = self.cfg.radius if self.ccrf else 0.0
        xs = [(self.w - 1 - m if mirrored else m) + shift for m, _, mirrored, shift in terms]
        ys = [t[1] for t in terms]
        x, y = (self._box(np.minimum.reduce(c) - reach, np.maximum.reduce(c) + reach, axis)
                for axis, c in enumerate((xs, ys)))
        v = self._values(terms, x, y)
        top = v.max(axis=(1, 2))
        w, h = self.plane.width_px, self.plane.height_px
        order = np.where(v == top[:, None, None], y[:, :, None] * w + x[:, None, :], h * w)
        # An all-zero map peaks at its first node.
        iy, ix = np.divmod(np.where(top > 0.0, order.min(axis=(1, 2)), 0), w)
        none = np.zeros(len(ix), dtype=bool)
        if self.ccrf:
            _, x_off, y_off = self._at(terms, ix[:, None], iy[:, None])
            return ix + x_off[:, 0, 0], iy + y_off[:, 0, 0], none, top == 0.0
        if self.cfg.codec is Codec.ARGMAX_ONLY:
            return ix.astype(np.float64), iy.astype(np.float64), none, none
        # The 3x3 window around the peak, neighbours clamped at the borders.
        window = self._values(terms, np.clip(ix[:, None] + (-1, 0, 1), 0, w - 1),
                              np.clip(iy[:, None] + (-1, 0, 1), 0, h - 1))
        if self.cfg.codec is Codec.CF_BIASED_DECODE:
            # As _quarter_offset: a zero central difference counts as uphill.
            dx = np.where(window[:, 1, 2] - window[:, 1, 0] >= 0.0, 0.25, -0.25)
            dy = np.where(window[:, 2, 1] - window[:, 0, 1] >= 0.0, 0.25, -0.25)
            return ix + dx, iy + dy, none, none
        dx, dy, degenerate = _newton_offsets(window)
        border = (ix < 1) | (ix > w - 2) | (iy < 1) | (iy > h - 2)
        return (ix + np.where(border, 0.0, dx), iy + np.where(border, 0.0, dy),
                degenerate | border, none)


class _Engine:
    """The test pass of one configuration, for a batch of trials.

    The oracle mode only picks the map representation; the flow is the
    same for both.  Predictions are decoded in the decode plane: the input
    plane when the output is upsampled first (rno), else the output plane.
    Everything runs element-wise on the batch; rendered maps take the live
    trials in blocks of ``_BLOCK``, which bounds the node values they hold.
    """

    def __init__(self, cfg: PipelineConfig, mode: OracleMode) -> None:
        self.cfg = cfg
        i2o_t = input_to_output(cfg)
        self.i2o = _aff(i2o_t)
        self.w_i = cfg.input.width_units
        self.h_i = cfg.input.height_units
        # Decode plane -> output plane; None when they coincide.
        self.dp2o = self.i2o if cfg.rno else None
        self.batched = mode is OracleMode.ANALYTIC_SHIFT
        up = _aff(invert(i2o_t)) if cfg.rno and self.batched else None
        self.maps = _PeakMaps(cfg, up) if self.batched else _AxisMaps(cfg)
        # Decoded coordinates combine as peaks in the output plane: the
        # config rejects coordinate averaging together with rno.
        self.peaks = _PeakMaps(cfg)
        self.snoop = cfg.compensation is not Compensation.NONE
        self.average_coords = cfg.combine is Combine.AVERAGE_COORDS
        # The 1/(2s) residual correction of the flip ensemble, in
        # decode-plane units.
        self.ec = 0.0
        if cfg.flip_test and cfg.compensation is Compensation.SNOOP_PLUS_EC:
            self.ec = 1.0 / (2.0 * cfg.stride) / (self.i2o[0] if cfg.rno else 1.0)

    def contexts(self, boxes: np.ndarray) -> np.ndarray:
        """Crop-box coefficients as a ``(12, R)`` array, one column per
        ``(cx, cy, w, h)`` column of ``boxes``: source -> input, then decode
        plane -> source; bit-equal to ``test_transform``, then ``invert``
        (rno) or ``output_to_source``, with their IEEE operations and checks."""
        cx, cy, w, h = boxes
        if not np.all(np.isfinite(boxes)):
            raise ValueError("roi fields must be finite")
        if np.any(bad := (w <= 0) | (h <= 0)):
            raise ValueError(f"roi extents must be positive, got w={w[bad][0]}, h={h[bad][0]}")
        in_w, in_h = _extents(self.cfg.input, self.cfg.convention)
        with np.errstate(all="ignore"):
            # compose(t_resize, t_crop); + 0.0 is what its exact zero terms add
            a, b, d, e = in_w / w, 0.0 * w, 0.0 * w, in_h / h
            c, f = a * (-cx + 0.5 * w) + 0.0, e * (-cy + 0.5 * h) + 0.0
            det = a * e - b * d
            if self.cfg.rno:  # geometry.invert
                ia, ib, ic, ie = e / det, -b / det, -d / det, a / det
                back = (ia, ib, -(ia * c + ib * f), ic, ie, -(ic * c + ie * f))
            else:  # output_to_source: compose(translate back, t_resize)
                out_w, out_h = _extents(self.cfg.output, self.cfg.convention)
                back = (w / out_w, b, cx - 0.5 * w + 0.0, d, h / out_h, cy - 0.5 * h + 0.0)
            table = np.array((a, b, c, d, e, f, *back))
        finite = np.isfinite(table)
        if np.all(finite[:6]) and self.cfg.rno:  # as invert, after the forward entries
            if np.any(bad := ~np.isfinite(det) | (np.abs(det) < _SINGULAR_EPS)):
                raise SingularTransformError(f"transform is singular (det={det[bad][0]})")
        if not np.all(finite):
            raise ValueError("transform entries must be finite")
        return table

    def _combine(self, ops, a, b):
        """Mirror ``b`` back, shift it one node in +x when compensating, and
        average it with ``a``."""
        back = ops.flip_back(b)
        if self.snoop:
            back = ops.shift(back)
        return ops.average(a, back)

    def _predict(self, ko, kof):
        """Render, combine and decode; returns (x, y, degenerate, failed)."""
        maps = self.maps
        m = maps.render(*ko)
        if kof is None:
            return maps.decode(m)
        m_flip = maps.render(*kof)
        if self.average_coords:
            x1, y1, deg1, failed1 = maps.decode(m)
            x2, y2, deg2, failed2 = maps.decode(m_flip)
            x, y = self._combine(self.peaks, (x1, y1), (x2, y2))
            return x, y, deg1 | deg2, failed1 | failed2
        return maps.decode(self._combine(maps, m, m_flip))

    def run(self, ctx: np.ndarray, gx: np.ndarray, gy: np.ndarray):
        """Simulate a batch of trials with crop-box coefficients ``ctx``,
        one column per trial or one shared by all.

        Returns ``(status, ok, (pox, poy), (psx, psy), (kox, koy), deg)``:
        ``status`` per trial, ``ok`` the indices of the ``_OK`` trials, and
        their arrays in that order (``deg`` is ``False`` for peak maps).
        """
        kix, kiy = _ap(ctx[:6], gx, gy)
        ko = _ap(self.i2o, kix, kiy)
        kof = _ap(self.i2o, self.w_i - kix, kiy) if self.cfg.flip_test else None
        live = (0.0 <= kix) & (kix <= self.w_i) & (0.0 <= kiy) & (kiy <= self.h_i)
        live &= self.maps.covers(*ko) & (kof is None or self.maps.covers(*kof))
        ok = np.flatnonzero(live)
        ko = ko[0][ok], ko[1][ok]
        kof = None if kof is None else (kof[0][ok], kof[1][ok])
        if self.batched:
            x, y, deg, failed = self._predict(ko, kof)
        else:
            # Always at least one block, so that an empty chunk keeps its shapes.
            k = np.array(ko if kof is None else (*ko, *kof))
            with np.errstate(over="ignore"):  # a tiny sigma's exponents, in _AxisMaps._at
                blocks = [self._predict(b[:2], None if kof is None else b[2:])
                          for b in np.split(k, range(_BLOCK, len(ok), _BLOCK), axis=1)]
            x, y, deg, failed = (np.concatenate(part) for part in zip(*blocks))
        status = np.full(len(gx), _SKIPPED)
        status[ok] = np.where(failed, _FAILED, _OK)
        if np.any(failed):
            keep = ~failed
            ok, x, y, deg, ko = ok[keep], x[keep], y[keep], deg[keep], (ko[0][keep], ko[1][keep])
        if self.ec:
            x = x - self.ec
        po = (x, y) if self.dp2o is None else _ap(self.dp2o, x, y)
        ps = _ap(ctx[6:, ok] if ctx.shape[1] > 1 else ctx[6:], x, y)
        return status, ok, po, ps, ko, deg


# ---------------------------------------------------------------------------
# Public oracle and single-trial entry points
# ---------------------------------------------------------------------------


def ideal_network(k_i: Point, cfg: PipelineConfig, mode: OracleMode = OracleMode.FULL_HEATMAP):
    """What a zero-loss network returns for an input-plane keypoint.

    ``ANALYTIC_SHIFT`` returns the output-plane keypoint itself;
    ``FULL_HEATMAP`` returns it rendered through the configured encoder.
    Raises :class:`SkipTrial` when the keypoint leaves the simulated planes.
    """
    if not (0.0 <= k_i.x <= cfg.input.width_units and 0.0 <= k_i.y <= cfg.input.height_units):
        raise SkipTrial
    k_o = apply_point(input_to_output(cfg), k_i)
    if mode is OracleMode.ANALYTIC_SHIFT:
        return k_o
    if not (0.0 <= k_o.x <= cfg.output.width_units and 0.0 <= k_o.y <= cfg.output.height_units):
        raise SkipTrial
    if cfg.codec is Codec.CCRF:
        return encode_ccrf(k_o, cfg.output, cfg.radius)
    return encode_gaussian(k_o, cfg.output, cfg.sigma)


def run_trial(gt_source: Point, roi: Roi, cfg: PipelineConfig, mode: OracleMode) -> TrialRecord:
    """Simulate one full test pass for one ground-truth keypoint.

    Raises :class:`SkipTrial` if the keypoint leaves the simulated planes
    and :class:`~keypose.codec.NoDetectionError` on decode failure.
    """
    engine = _Engine(cfg, mode)
    box = np.array([[roi.cx], [roi.cy], [roi.w], [roi.h]])
    status, _, po, ps, _, deg = engine.run(engine.contexts(box), np.array([gt_source.x]),
                                           np.array([gt_source.y]))
    if status[0] == _SKIPPED:
        raise SkipTrial
    if status[0] == _FAILED:
        raise NoDetectionError("classification map is identically zero")
    pred_source, pred_output = Point(ps[0][0], ps[1][0]), Point(po[0][0], po[1][0])
    return TrialRecord(gt_source, pred_source, pred_output, cfg, bool(np.any(deg)))


# ---------------------------------------------------------------------------
# Monte Carlo harness
# ---------------------------------------------------------------------------

_CHUNK = 4096


def _moments(values: np.ndarray) -> tuple[int, float, float]:
    """``(n, sum, M2)`` of ``values``: an exact fsum, and the fsum of squared
    deviations from the mean in a second pass."""
    total = math.fsum(memoryview(values))
    dev = values - total / max(len(values), 1)
    return len(values), total, math.fsum(memoryview(dev * dev))


def _merge_m2(parts) -> float:
    """M2 of the union of ``(n, sum, M2)`` partials, merged in the given
    order with the update of Chan, Golub and LeVeque (1979)."""
    n, mean, m2 = 0, 0.0, 0.0
    for nb, total, m2b in parts:
        if nb == 0:
            continue
        delta = total / nb - mean
        merged = n + nb
        m2 += m2b + delta * delta * (n * nb / merged)
        mean += delta * (nb / merged)
        n = merged
    return m2


def _run_chunk(engine, bound, ctx, seed, start, stop):
    """Trials ``[start, stop)`` as one batch; returns the chunk's counts and
    ``(n, sum, M2)`` partials of the x and y errors and the source error sum.
    ``ctx`` is the run's crop-box table, one column per box of ``bound``."""
    roi_idx, gx, gy = bound.sample(_uniforms(seed, start, stop, bound.k))
    status, ok, (pox, poy), (psx, _), (kox, koy), deg = engine.run(
        ctx if ctx.shape[1] == 1 else ctx[:, roi_idx], gx, gy
    )
    return (np.bincount(status, minlength=3).tolist(), int(np.count_nonzero(deg)),
            _moments(np.abs(pox - kox)), _moments(np.abs(poy - koy)),
            math.fsum(memoryview(np.abs(psx - gx[ok]))))


def monte_carlo(
    cfg: PipelineConfig,
    mode: OracleMode,
    n: int,
    seed: int,
    sampler=None,
    *,
    label: str | None = None,
    jobs: int = 1,
) -> ErrorStats:
    """Aggregate ``n`` simulated trials into :class:`ErrorStats`.

    Reproducible: the result depends only on the arguments.  Trials derive
    their randomness from ``(seed, trial index)`` and partial sums are
    merged per fixed-size chunk in index order, so any ``jobs`` value
    produces the identical result.
    """
    if n < 1:
        raise ValueError(f"need at least one trial, got n={n}")
    if jobs < 1:
        raise ValueError(f"need at least one job, got jobs={jobs}")
    if sampler is None:
        sampler = UniformKeypointSampler(default_roi(cfg))

    bound = sampler.bind(cfg)
    engine = _Engine(cfg, mode)
    ctx = engine.contexts(bound.boxes)
    chunks = [
        (engine, bound, ctx, seed, start, min(start + _CHUNK, n))
        for start in range(0, n, _CHUNK)
    ]
    if jobs > 1 and len(chunks) > 1:
        import multiprocessing

        with multiprocessing.Pool(processes=min(jobs, len(chunks))) as pool:
            partials = pool.starmap(_run_chunk, chunks)
    else:
        partials = [_run_chunk(*chunk) for chunk in chunks]

    counts, degenerate, xs, ys, sources = zip(*partials)
    used, skipped, failed = (sum(c) for c in zip(*counts))
    if used == 0:
        raise ValueError("every trial was skipped or failed; nothing to aggregate")
    var_x, var_y = (
        _merge_m2(parts) / (used - 1) if used > 1 else 0.0 for parts in (xs, ys)
    )
    return ErrorStats(
        label=label if label is not None else describe_config(cfg),
        n_trials=used,
        mean_abs_x=math.fsum(total for _, total, _ in xs) / used,
        mean_abs_y=math.fsum(total for _, total, _ in ys) / used,
        var_abs_x=var_x,
        var_abs_y=var_y,
        mean_abs_x_source=math.fsum(sources) / used,
        n_skipped=skipped,
        n_decode_failed=failed,
        n_degenerate=sum(degenerate),
    )


# ---------------------------------------------------------------------------
# Closed-form expectations
# ---------------------------------------------------------------------------


def _quarter_stats(shift: float) -> tuple[float, float]:
    """Mean and variance of |error| for the quarter-shift decoder applied to
    a single-peak map whose center is offset by ``shift`` (|shift| <= 0.5)
    from a uniformly positioned keypoint."""
    t = abs(shift)
    b1, b2 = 0.5 - t, 1.0 - t

    def seg(lo: float, hi: float, a: float) -> tuple[float, float]:
        def f_abs(u: float) -> float:
            return (u - a) * abs(u - a) / 2.0

        def f_sq(u: float) -> float:
            return (u - a) ** 3 / 3.0

        return f_abs(hi) - f_abs(lo), f_sq(hi) - f_sq(lo)

    e1, q1 = seg(0.0, b1, 0.25)
    e2, q2 = seg(b1, b2, 0.75)
    e3, q3 = seg(b2, 1.0, 1.25)
    mean = e1 + e2 + e3
    var = (q1 + q2 + q3) - mean * mean
    return mean, var


def analytic_errors(
    cfg: PipelineConfig, roi: Roi | None = None, mode: OracleMode = OracleMode.ANALYTIC_SHIFT
) -> dict:
    """Closed-form expected |x error| for configurations with known analysis,
    under the oracle ``mode``.

    Returns a dict with ``mean_abs_x``, ``var_abs_x`` and
    ``mean_abs_x_source``; entries are ``None`` when the configuration falls
    outside the analyzed cases (and the source entry also when no ``roi``
    supplies a crop width).  Rendered disc maps that are averaged decode to
    the midpoint of the two branch keypoints, ``d`` apart, only when the
    discs share a node wherever they fall: ``r^2 > (0.5 + d/2)^2 + 0.25``.
    Rendered Gaussian maps decode to their keypoints only when no two maps
    apart are averaged and the 3x3 window, whose corner can be ``d^2 = 4.5``
    out, holds normal floats: ``sigma >= sqrt(4.5 / (2 * 1022 ln 2))``.
    """
    na = {"mean_abs_x": None, "var_abs_x": None, "mean_abs_x_source": None}
    if cfg.rno:
        return dict(na)

    # ``half`` is half the x distance between the averaged branches.
    shift = half = 0.0
    if cfg.flip_test and cfg.convention is Convention.PIXEL_COUNT:
        s = cfg.stride
        if cfg.compensation is Compensation.NONE:
            shift = half = (1.0 - s) / (2.0 * s)
        else:
            half = 1.0 / (2.0 * s)
            if cfg.compensation is Compensation.SNOOP:
                shift = half
    apart = cfg.combine is Combine.AVERAGE_HEATMAPS and half != 0.0
    if mode is OracleMode.FULL_HEATMAP and (
            cfg.codec is Codec.CCRF and apart and cfg.radius ** 2 <= (0.5 + abs(half)) ** 2 + 0.25
            or cfg.codec is Codec.CF and (apart or cfg.sigma < _CF_MIN_SIGMA)):
        return dict(na)

    if cfg.codec is Codec.CF_BIASED_DECODE:
        if cfg.flip_test and cfg.combine is not Combine.AVERAGE_HEATMAPS:
            return dict(na)
        if abs(shift) > 0.5:
            return dict(na)
        mean, var = _quarter_stats(shift)
    else:
        mean, var = abs(shift), 0.0

    unit = cfg.convention is Convention.UNIT_LENGTH
    out_w = cfg.output.width_units if unit else float(cfg.output.width_px)
    mean_source = mean * roi.w / out_w if roi is not None else None
    return {"mean_abs_x": mean, "var_abs_x": var, "mean_abs_x_source": mean_source}
