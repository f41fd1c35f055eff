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
output and source planes.  Both keep a map as its branch keypoints, so the
flip ensemble is written once; they differ only in how a map is decoded:

* ``ANALYTIC_SHIFT`` mode decodes a map to the midpoint of its keypoints,
  the single-peak approximation of classification-map averaging; decoding
  is exact for the unbiased codecs, and the quarter-shift decoder applies
  its closed-form quantization law.
* ``FULL_HEATMAP`` mode decodes the configured encoder's real heatmaps,
  flipped, shifted and averaged, with the real decoders' rules, so it also
  captures what the coordinate-level approximation leaves out.  Only the
  node values a decoder reads are computed, each equal to the 2-D map's bit
  for bit (over 20 times faster than whole maps; ``BENCH_11.json``); rno reads
  use per-run tap tables and one box of output nodes (``BENCH_24.json``).

Trials run in fixed-size chunks, each as one pass over numpy arrays; a peak search
reads blocks of ``_NODES`` node values, or of a disc's row and column distances.
Each trial's randomness derives only from the run seed and the trial index (a
splitmix-style generator); a process keeps its last 8 chunks' uniforms, so the
rows of a grid that share a seed and ``n`` draw each chunk once.  A bound
sampler lists its crop boxes and each trial names one of them; a run computes
their coefficients in one array pass before its first chunk.  Skipped and
failed trials are counts, not exceptions.  Each chunk's error sums are
exact: limb-split sums equal to ``math.fsum`` bit for bit, at array speed
(``_fsum``; ``BENCH_22.json``).  Its variance partial is a two-pass sum of
squared deviations; chunks merge in index order, so results are identical for
any worker count.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from enum import Enum
from types import SimpleNamespace

import numpy as np

from .codec import _HESSIAN_EPS, NoDetectionError, encode_ccrf, encode_gaussian
from .dataio import Annotations, crop_boxes
from .geometry import _SINGULAR_EPS, Point, Roi, SingularTransformError, _invert
from .geometry import apply_point
from .pipeline import (
    Codec,
    Combine,
    Compensation,
    Convention,
    PipelineConfig,
    _extents,
    _input_to_output,
    _output_to_source,
    _source_to_input,
    input_to_output,
)
from .raster import BorderPolicy, _axis_taps, _tap_sum

# Unused here; kept importable because perfbench/tracer.py wraps these names.
from .codec import _argmax_xy, _ccrf_arrays, _dark_offset, _gaussian_array  # noqa: F401
from .codec import _quarter_offset  # noqa: F401
from .geometry import invert  # noqa: F401
from .pipeline import output_to_source, rno_upsample, test_transform  # noqa: F401

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
    """The splitmix finalizer of a 64-bit Python int, or in place on a uint64
    array (whose arithmetic wraps, so the masks only bound an int)."""
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> shift
        z *= factor
        z &= _MASK64
    z ^= z >> 31
    return z


def _check_seed(seed: int) -> None:
    """Refuse a seed the 64-bit generators would silently reduce."""
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be in 0..2**64-1, got {seed}")


class SplitMix64:
    """Splitmix-style PRNG: the state advances by the 64-bit golden-ratio
    constant and each output is a finalizer hash of the state.

    Chosen because the whole algorithm fits in a paragraph, making runs
    reproducible across implementations at the statistics level.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        _check_seed(seed)
        self._state = seed

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def uniform(self) -> float:
        """A float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))


def substream(seed: int, index: int) -> SplitMix64:
    """Independent generator for one trial, derived only from (seed, index)."""
    _check_seed(seed)
    if not 0 <= index < _MASK64:  # index + 1 must not wrap
        raise ValueError(f"index must be in 0..2**64-2, got {index}")
    return SplitMix64(_mix64((seed + (index + 1) * _GOLDEN) & _MASK64))


@functools.lru_cache(maxsize=8)  # 8 chunks of 4,096 trials: 512 KiB at k = 2
def _uniforms(seed: int, start: int, stop: int, k: int) -> np.ndarray:
    """The first ``k`` uniforms of ``substream(seed, i)`` for every trial
    ``i`` in ``[start, stop)``, as a read-only ``(stop - start, k)`` array,
    memoised: the rows of an ablation grid draw the same chunks."""
    state = _mix64(np.arange(start + 1, stop + 1, dtype=np.uint64) * _GOLDEN + seed)
    bits = _mix64(state + np.arange(1, k + 1, dtype=np.uint64)[:, None] * _GOLDEN)
    bits >>= 11
    u = bits.T.astype(np.float64)  # (k, n) draws, so each column is contiguous
    u *= 1.0 / (1 << 53)
    u.flags.writeable = False
    return u


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
        self._o2s = _axes(_output_to_source(cfg, roi.cx, roi.cy, roi.w, roi.h))
        self._margin = margin
        self._rx = cfg.output.width_units - 2.0 * margin
        self._ry = cfg.output.height_units - 2.0 * margin

    def sample(self, u: np.ndarray):
        kx = self._margin + u[:, 0] * self._rx
        ky = self._margin + u[:, 1] * self._ry
        return (np.zeros(len(u), dtype=np.intp), *_apply_axes(self._o2s, kx, ky))


@dataclass(frozen=True)
class CocoKeypointSampler:
    """Ground truth drawn from annotated instances.

    Each trial picks one (instance, visible keypoint) pair uniformly; the
    crop box comes from the instance bounding box via aspect fixing and
    padding.  Keypoints that leave the simulated planes are skipped and
    counted, as real crops do clip annotations.  ``instances`` are kept as
    :class:`~keypose.dataio.Annotations`, so binding reads only its columns.
    """

    instances: Annotations
    target_aspect: float | None = None
    padding: float = 1.25

    def __post_init__(self) -> None:
        object.__setattr__(self, "instances", Annotations.of(self.instances))

    def bind(self, cfg: PipelineConfig) -> "_BoundCoco":
        aspect = self.target_aspect
        if aspect is None:
            aspect = cfg.input.width_px / cfg.input.height_px
        kps = self.instances.keypoints
        if not (visible := kps[:, 2] > 0).any():
            raise ValueError("no visible keypoints to sample from")
        boxes = crop_boxes(self.instances.bboxes, aspect, self.padding)
        return _BoundCoco(np.array(boxes), self.instances.owner[visible],
                          kps[:, 0][visible], kps[:, 1][visible])


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
# Trial engine.  It runs a batch of trials element-wise on arrays.  Its affine
# chains are axis-aligned and built by geometry's routines; it keeps ``(a, c, e, f)``
# of each crop-box chain, as floats shared by the batch or one array entry per
# trial, and ``(a, e)`` of each resize, a scale about node 0 under both conventions.
# ---------------------------------------------------------------------------

def _axes(p):
    """A chain's ``(a, c, e, f)``: dropping its zero ``b`` and ``d`` moves at most a zero's sign."""
    a, _, c, _, e, f = p
    return a, c, e, f


def _apply_axes(p, x, y):
    return p[0] * x + p[1], p[2] * y + p[3]


def _quarter_law(v: np.ndarray) -> np.ndarray:
    """Coordinate recovered by the quarter-shift decoder from an exact
    single-peak map centered at ``v``."""
    fl = np.floor(v)
    return fl + np.where(v - fl < 0.5, 0.25, 0.75)


class _Maps:
    """A map is a tuple of branch terms ``(m, n, mirrored, shift)``: the
    encoder's map of keypoints ``(m, n)``, one per trial, optionally mirrored
    back and moved ``shift`` nodes in +x (zeros move in); two terms average.
    Only the engine writes terms (``_Engine._terms``), so the flip ensemble
    is written once; each oracle mode reads them here and defines only
    ``covers`` (which keypoints a map holds) and ``decode``."""

    def __init__(self, cfg: PipelineConfig) -> None:
        self.cfg = cfg
        self.w, self.h = cfg.output.width_px, cfg.output.height_px
        self.plane = cfg.input if cfg.rno else cfg.output  # the decode plane

    def keypoints(self, terms):
        """The terms' output-plane keypoints, as lists of x and of y arrays (a zero
        shift is not added: ``x + 0`` would copy the array)."""
        return ([x + shift if shift else x for m, _, mirrored, shift in terms
                 for x in (self.w - 1 - m if mirrored else m,)], [n for _, n, _, _ in terms])

    def midpoint(self, terms):
        (x, *xs), (y, *ys) = self.keypoints(terms)  # branches may share y: 0.5 * (y + y) is y
        return (0.5 * (x + xs[0]), y if ys[0] is y else 0.5 * (y + ys[0])) if xs else (x, y)


class _PeakMaps(_Maps):
    """Coordinate-level oracle: a map decodes to the midpoint of its terms'
    keypoints (single-peak averaging), exactly except for the quarter-shift
    decoder's quantization law; under rno, ``up`` takes the midpoint to the
    input plane first.  Every operation is element-wise over a batch of
    peaks, and no peak is ever skipped or fails to decode."""

    def __init__(self, cfg: PipelineConfig) -> None:
        super().__init__(cfg)
        self.up = _invert(_input_to_output(cfg))[::4] if cfg.rno else None
        self.quarter = cfg.codec is Codec.CF_BIASED_DECODE

    @staticmethod
    def covers(kx, ky):
        return True

    def decode(self, terms):
        x, y = self.midpoint(terms)
        if self.up is not None:
            x, y = self.up[0] * x, self.up[1] * y
        if self.quarter:
            return _quarter_law(x), _quarter_law(y), False, False
        return x, y, False, False


_NODES = 1 << 15  # node values per block of rendered-map boxes (see ROADMAP)


def _min_sigma(d2: float) -> float:
    """The least sigma whose Gaussian node ``d2`` (squared) out is normal."""
    return math.sqrt(d2 / (2.0 * 1022 * math.log(2.0)))


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


class _AxisMaps(_Maps):
    """Rendered-heatmap oracle.  Node values are computed where a decoder reads
    them, with the encoder's formulas; under rno, from each trial's output nodes
    under the warp's taps (per-axis tables built once), read once in one box and
    summed by ``raster._tap_sum`` as ``rno_upsample`` sums them: all equal the 2-D
    map's bit for bit.  Peaks are found in blocks of ``_NODES`` box nodes, or disc distances."""

    def __init__(self, cfg: PipelineConfig) -> None:
        super().__init__(cfg)
        self.ccrf = cfg.codec is Codec.CCRF
        self.k = 2.0 * cfg.sigma * cfg.sigma
        if cfg.rno:  # input node -> output position, as in rno_upsample's warp, and its taps
            self.axes = _invert(_invert(_input_to_output(cfg)))[::4]
            nodes = (cfg.input.width_px, cfg.input.height_px)
            self.taps = [_axis_taps(a * np.arange(n), m, BorderPolicy.ZERO_FILL)
                         for a, n, m in zip(self.axes, nodes, (self.w, self.h))]

    def covers(self, kx: np.ndarray, ky: np.ndarray) -> np.ndarray:
        out = self.cfg.output
        return (0.0 <= kx) & (kx <= out.width_units) & (0.0 <= ky) & (ky <= out.height_units)

    def _cols(self, m, x, mirrored, shift):
        """A branch's own columns at output-plane columns ``x`` (B, k), and their
        squared distances to its keypoints ``m``, infinite where zeros moved in."""
        own = self.w - 1 + shift - x if mirrored else x - shift
        d2 = (own - m[:, None]) ** 2
        return own, np.where(x >= shift, d2, np.inf) if shift else d2  # x is never negative

    def _at(self, terms, x, y, offsets=False):
        """The map's first channel at output-plane columns ``x`` (B, k) and
        rows ``y`` (B, l), with ``offsets`` also the disc's offset channels,
        as ``(B, l, k)`` arrays."""
        values = []
        for m, n, mirrored, shift in terms:
            own, dx2 = self._cols(m, x, mirrored, shift)
            d2 = dx2[:, None, :] + ((y - n[:, None]) ** 2)[:, :, None]
            if self.ccrf:
                c = (d2 < self.cfg.radius * self.cfg.radius).astype(np.float64)
            else:  # a tiny sigma overflows d2 / -k to -inf (exp: exact 0); decode allows it
                c = d2 / -self.k  # a new float array: d2 may hold integers
                np.exp(c, out=c)
            if not offsets:
                values.append((c,))
                continue
            x_off = (m[:, None] - own)[:, None, :] * c
            values.append((c, -x_off if mirrored else x_off, (n[:, None] - y)[:, :, None] * c))
        return values[0] if len(values) == 1 else tuple(
            np.multiply(s := a + b, 0.5, out=s) for a, b in zip(*values))

    def _disc_peak(self, terms, x, y):
        """The first node in row-major order of box columns ``x`` (B, k) and rows ``y``
        (B, l) where a disc map peaks (else node 0): a row holds a node of a level (in a
        disc; averaged: in either, then both) iff ``fl(min dx**2 + dy**2) < r*r``."""
        r2, trial, ix, iy = self.cfg.radius * self.cfg.radius, np.arange(len(x)), 0, 0
        dx2 = [self._cols(m, x, mirrored, shift)[1] for m, _, mirrored, shift in terms]
        dy2 = (y - terms[0][1][:, None]) ** 2  # both branches share their rows
        for d in dx2 if len(dx2) == 1 else (np.minimum(*dx2), np.maximum(*dx2)):
            rows = d.min(axis=1)[:, None] + dy2 < r2  # exact: fl(a + c) rises with a
            j = rows.argmax(axis=1)
            i, hit = (d + dy2[trial, j, None] < r2).argmax(axis=1), rows[trial, j]
            ix, iy = np.where(hit, x[trial, i], ix), np.where(hit, y[trial, j], iy)
        return ix, iy

    def _box_peak(self, terms, x, y):
        """The first node in row-major order of box columns ``x`` (B, k) and
        rows ``y`` (B, l) where the map peaks; an all-zero map peaks at node 0."""
        v = self._values(terms, x, y)
        _, ny, nx = v.shape
        iy, ix = np.divmod(v.reshape(-1, ny * nx).argmax(axis=1), nx)
        trial = np.arange(len(v))
        top = v[trial, iy, ix] > 0.0
        return np.where(top, x[trial, ix], 0), np.where(top, y[trial, iy], 0)

    def _values(self, terms, x, y):
        """The first channel in the decode plane at columns ``x`` and rows ``y``,
        ascending per trial; under rno, ``rno_upsample``'s tap sum on a box of
        output nodes per trial, from its first low to its last high tap."""
        if not self.cfg.rno:
            return self._at(terms, x, y)[0]
        xt = [(i[x[:, None]], wt[x[:, None]]) for i, wt in self.taps[0]]  # (B, 1, k)
        yt = [(i[y[..., None]], wt[y[..., None]]) for i, wt in self.taps[1]]  # (B, l, 1)
        x0, y0 = xt[0][0][:, 0, :1], yt[0][0][:, :1, 0]  # each trial's first low taps
        box = self._at(terms, *(lo + np.arange(np.max(hi - lo, initial=0) + 1) for lo, hi in
                                ((x0, xt[1][0][:, 0, -1:]), (y0, yt[1][0][:, -1:, 0]))))[0]
        _, l, k = box.shape  # tap (yi, xi) of trial t is box entry (t, yi - y0[t], xi - x0[t])
        rows = (l * np.arange(len(box))[:, None, None] - y0[:, None]) * k
        xt, yt = [(xi - x0[:, None], wt) for xi, wt in xt], [(rows + yi * k, wt) for yi, wt in yt]
        return _tap_sum(lambda yi, xi: box.take(yi + xi), xt, yt)

    def _span(self, lo, hi, axis):
        """Per trial, the output node at or below ``lo`` and the one at or above
        ``hi`` (under rno, the input nodes at or beyond those), clipped."""
        n = (self.plane.width_px, self.plane.height_px)[axis]
        lo, hi = np.floor(lo), np.ceil(hi)
        if self.cfg.rno:
            lo, hi = np.floor(lo / self.axes[axis]), np.ceil(hi / self.axes[axis])
        return tuple(np.minimum(np.maximum(v, 0), n - 1).astype(np.intp) for v in (lo, hi))

    @staticmethod
    def _box(lo, hi, n):
        """Nodes ``lo`` to ``hi`` per trial as ``(B, k)`` rows, padded to the
        widest with the nodes after ``hi``, clipped, so repeats come last."""
        return np.minimum(lo[:, None] + np.arange(np.max(hi - lo, initial=0) + 1), n - 1)

    @np.errstate(over="ignore")  # a tiny sigma's exponents, in _at
    def decode(self, terms):
        """``(x, y, degenerate, failed)`` arrays; a disc map with no
        response fails.  The peak is the first maximum in row-major order
        in a box: a disc map is zero outside its discs, and a Gaussian map
        rises toward its keypoints along each axis (both branches share
        their rows), so its peak lies between the nodes at or beyond them.
        Box rows and columns ascend, clipped repeats last: ``_box_peak`` or
        ``_disc_peak`` finds it."""
        reach = self.cfg.radius if self.ccrf else 0.0
        xs, (y, *_) = self.keypoints(terms)  # both branches share their rows
        x0, x1 = self._span(np.minimum(xs[0], xs[-1]) - reach, np.maximum(xs[0], xs[-1]) + reach, 0)
        y0, y1 = self._span(y - reach, y + reach, 1)
        w, h = self.plane.width_px, self.plane.height_px
        none = np.zeros(len(x0), dtype=bool)
        k, l = (int(np.max(hi - lo, initial=0)) + 1 for lo, hi in ((x0, x1), (y0, y1)))
        step, peaks = max(1, _NODES // (k + l if self.ccrf else k * l)), []
        for i in range(0, max(len(x0), 1), step):  # an empty chunk keeps its shapes
            b = slice(i, i + step)
            x, y = self._box(x0[b], x1[b], w), self._box(y0[b], y1[b], h)
            block = [(m[b], n[b], *rest) for m, n, *rest in terms]
            peaks.append((self._disc_peak if self.ccrf else self._box_peak)(block, x, y))
        ix, iy = peaks[0] if len(peaks) == 1 else (np.concatenate(p) for p in zip(*peaks))
        if self.ccrf:
            c, x_off, y_off = self._at(terms, ix[:, None], iy[:, None], offsets=True)
            return ix + x_off[:, 0, 0], iy + y_off[:, 0, 0], none, c[:, 0, 0] == 0.0
        if self.cfg.codec is Codec.ARGMAX_ONLY:
            return ix.astype(np.float64), iy.astype(np.float64), none, none
        # The 3x3 window around the peak, neighbours clamped at the borders.
        window = self._values(terms, np.minimum(np.maximum(ix[:, None] + (-1, 0, 1), 0), w - 1),
                              np.minimum(np.maximum(iy[:, None] + (-1, 0, 1), 0), h - 1))
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

    The engine alone writes the flip ensemble's terms (``_terms``); the
    oracle mode picks the map class that decodes them in the decode plane:
    the input plane when the output is upsampled first (rno), else the output plane.
    Everything runs element-wise on the batch, one call per map class and chunk.
    """

    def __init__(self, cfg: PipelineConfig, mode: OracleMode) -> None:
        self.cfg = cfg
        self.i2o = _input_to_output(cfg)[::4]  # the resize's two scales, about node 0
        self.w_i = cfg.input.width_units
        self.h_i = cfg.input.height_units
        self.maps = (_PeakMaps if mode is OracleMode.ANALYTIC_SHIFT else _AxisMaps)(cfg)
        self.snoop = cfg.compensation is not Compensation.NONE
        self.average_coords = cfg.combine is Combine.AVERAGE_COORDS
        # The 1/(2s) residual correction of the flip ensemble, in
        # decode-plane units.
        self.ec = 0.0
        if cfg.compensation is Compensation.SNOOP_PLUS_EC:
            self.ec = 1.0 / (2.0 * cfg.stride) / (self.i2o[0] if cfg.rno else 1.0)

    def contexts(self, boxes: np.ndarray) -> np.ndarray:
        """Crop-box coefficients as an ``(8, R)`` array, one column per ``(cx, cy, w, h)``
        column of ``boxes``: ``(a, c, e, f)`` of source -> input, then of decode plane ->
        source.  The same routines and checks, in the same order, as ``test_transform``,
        then ``invert`` (rno) or ``output_to_source``; then a box's corners and the decode
        plane's far corner (its origin maps to the back chain's checked translation) must
        map to finite points.  Each refusal names the first box that fails its check."""

        def refuse(ok, why, error=ValueError):
            if not ok.all():  # ``ok`` holds one column, or one value, per box
                j = int(np.argmin(np.reshape(ok, (-1, boxes.shape[1])).all(axis=0)))
                box = "Roi(cx={}, cy={}, w={}, h={})".format(*boxes[:, j].tolist())
                raise error(f"crop box {box} {why(j) if callable(why) else why}")

        cx, cy, w, h = boxes
        refuse(np.isfinite(boxes), "has a field that is not finite")
        refuse((w > 0) & (h > 0), "has an extent that is not positive")
        box = boxes[:, 0].tolist() if boxes.shape[1] == 1 else boxes  # one box: floats, faster
        with np.errstate(all="ignore"):
            forward = _source_to_input(self.cfg, *box)
            refuse(np.isfinite(forward), "maps to transform entries that are not finite")
            if self.cfg.rno:
                det = forward[0] * forward[4]  # _invert's a*e - b*d: b and d are +0.0
                refuse(np.isfinite(det) & (np.abs(det) >= _SINGULAR_EPS),
                       lambda j: f"maps to a singular transform (det={np.ravel(det)[j]})",
                       SingularTransformError)
            back = _invert(forward) if self.cfg.rno else _output_to_source(self.cfg, *box)
            forward, back = _axes(forward), _axes(back)
            table = np.array((*forward, *back), dtype=np.float64).reshape(8, -1)
            refuse(np.isfinite(table), "maps to transform entries that are not finite")
            (x, y, bw, bh), plane = box, self.maps.plane
            corners = np.array((*_apply_axes(forward, x - 0.5 * bw, y - 0.5 * bh),
                                *_apply_axes(forward, x + 0.5 * bw, y + 0.5 * bh),
                                *_apply_axes(back, plane.width_units, plane.height_units)))
            refuse(np.isfinite(corners), "maps a corner past the largest float")
            return table

    def _terms(self, a, b=None):
        """The map of keypoints ``a``; with ``b``, the flip ensemble: ``b``'s map
        mirrored back, shifted one node in +x when compensating, averaged with ``a``'s."""
        one = (*a, False, 0)
        return (one,) if b is None else (one, (*b, True, int(self.snoop)))

    def _predict(self, ko, kof):
        """Render, combine and decode; returns (x, y, degenerate, failed)."""
        maps = self.maps
        if kof is None:
            return maps.decode(self._terms(ko))
        if self.average_coords:
            # Decoded points combine as maps in the output plane (never with rno).
            x1, y1, deg1, failed1 = maps.decode(self._terms(ko))
            x2, y2, deg2, failed2 = maps.decode(self._terms(kof))
            x, y = maps.midpoint(self._terms((x1, y1), (x2, y2)))
            return x, y, deg1 | deg2, failed1 | failed2
        return maps.decode(self._terms(ko, kof))

    def run(self, ctx: np.ndarray, gx: np.ndarray, gy: np.ndarray):
        """Simulate a batch of trials with crop-box coefficients ``ctx``, one
        column per trial or one shared by all (as eight floats, fastest).

        Returns ``(ok, lost, (pox, poy), (psx, psy), (kox, koy), deg)``: ``ok``
        the indices of the trials that decoded, or ``None`` when every trial did;
        ``lost`` the indices of the live trials whose decode failed (empty unless
        one did); then the decoded trials' arrays, in index order (``deg`` is
        ``False`` for peak maps).  A trial in neither was skipped.
        """
        kix, kiy = _apply_axes(ctx[:4], gx, gy)
        ko = self.i2o[0] * kix, self.i2o[1] * kiy
        # A resize: the flip moves x only, and the y rows are one array.
        kof = (self.i2o[0] * (self.w_i - kix), ko[1]) if self.cfg.flip_test else None
        live = (0.0 <= kix) & (kix <= self.w_i) & (0.0 <= kiy) & (kiy <= self.h_i)
        covers = self.maps.covers(*ko) & (kof is None or self.maps.covers(*kof))
        if covers is not True:  # peak maps cover every keypoint
            live &= covers
        ok = None if live.all() else np.flatnonzero(live)  # None: every trial, no gather
        if ok is not None:
            ko = ko[0][ok], ko[1][ok]
            kof = None if kof is None else (kof[0][ok], ko[1])
        x, y, deg, failed = self._predict(ko, kof)
        lost = np.flatnonzero(failed)  # positions among the live trials
        if len(lost):
            keep, idx = ~failed, np.arange(len(gx)) if ok is None else ok
            ok, lost, x, y, deg = idx[keep], idx[lost], x[keep], y[keep], deg[keep]
            ko = ko[0][keep], ko[1][keep]
        if self.ec:
            x = x - self.ec
        po = (self.i2o[0] * x, self.i2o[1] * y) if self.cfg.rno else (x, y)  # decode -> output
        shared = np.shape(ctx)[1:] in ((), (1,))  # else one column per trial
        ps = _apply_axes(ctx[4:] if shared or ok is None else ctx[4:, ok], x, y)
        return ok, lost, po, ps, ko, deg


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
    ok, lost, po, ps, _, deg = engine.run(engine.contexts(box), np.array([gt_source.x]),
                                          np.array([gt_source.y]))
    if ok is not None:  # the trial did not decode
        raise NoDetectionError("classification map is identically zero") if len(lost) else SkipTrial
    pred_source, pred_output = Point(ps[0][0], ps[1][0]), Point(po[0][0], po[1][0])
    return TrialRecord(gt_source, pred_source, pred_output, cfg, bool(np.any(deg)))


# ---------------------------------------------------------------------------
# Monte Carlo harness
# ---------------------------------------------------------------------------

_CHUNK = 4096
_LIMB = 41  # bits per limb of _fsum; a column of 2**(53 - _LIMB) limbs sums exactly
# Top exponents _fsum splits: a limb column sums below 2**1024, and the last c is normal.
_LOW_TOP, _HIGH_TOP = 2 * _LIMB - 1074, 1023 - (53 - _LIMB)
_SHORT = 768  # shorter arrays sum faster in math.fsum (crossover ~700 on a 2-vCPU Xeon)


def _fsum(values: np.ndarray) -> float:
    """``math.fsum(values)`` bit for bit, at array speed, for a float64 array
    of non-negative values; arrays shorter than ``_SHORT`` go to fsum itself.

    Two limbs, each rounded to the grid ``2**(e - _LIMB * k)`` below the top
    value's binade as ``(r + c) - c`` (Rump, Ogita and Oishi, SIAM J. Sci.
    Comput. 2008), are peeled off every value; both steps are exact, and so
    is each limb column's float sum for up to ``2**(53 - _LIMB)`` values.
    The limb totals and the non-zero, signed remainders then sum exactly to
    the array's sum, which fsum rounds correctly, as it does the array
    itself (Neal, arXiv 1505.05571; Demmel and Hida, SIAM J. Sci. Comput. 2003).
    """
    if not _SHORT <= len(values) <= 1 << (53 - _LIMB):
        return math.fsum(memoryview(values))
    top = float(values.max())
    if top == 0.0:  # every value is a zero
        return 0.0
    e = math.frexp(top)[1]  # top < 2**e
    if not (math.isfinite(top) and _LOW_TOP <= e <= _HIGH_TOP):
        return math.fsum(memoryview(values))
    parts, r = [], values
    for s in (e - _LIMB, e - 2 * _LIMB):
        c = math.ldexp(1.5, s + 52)  # r + c rounds r to the grid 2**s
        q = r + c
        q -= c  # r on the grid
        parts.append(float(q.sum()))
        r = np.subtract(r, q, out=q)  # a new array: never the caller's
    return math.fsum(parts + r[r != 0].tolist())


def _moments(values: np.ndarray) -> tuple[int, float, float]:
    """``(n, sum, M2)`` of ``values``: an exact sum, and the exact sum of
    squared deviations from the mean in a second pass, both by ``_fsum``."""
    total = _fsum(values)
    dev = values - total / max(len(values), 1)
    return len(values), total, _fsum(np.multiply(dev, dev, out=dev))


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
    ok, lost, (pox, poy), (psx, _), (kox, koy), deg = engine.run(
        ctx[:, 0].tolist() if ctx.shape[1] == 1 else ctx[:, roi_idx], gx, gy
    )
    used = len(gx) if ok is None else len(ok)
    dx, dy, ds = pox - kox, poy - koy, psx - (gx if ok is None else gx[ok])
    return ([used, len(gx) - used - len(lost), len(lost)], int(np.count_nonzero(deg)),
            _moments(np.abs(dx, out=dx)), _moments(np.abs(dy, out=dy)), _fsum(np.abs(ds, out=ds)))


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
    produces the identical result.  ``seed`` must lie in ``0..2**64-1``.
    """
    if n < 1:
        raise ValueError(f"need at least one trial, got n={n}")
    if jobs < 1:
        raise ValueError(f"need at least one job, got jobs={jobs}")
    _check_seed(seed)
    if sampler is None:
        sampler = UniformKeypointSampler(default_roi(cfg))

    bound = sampler.bind(cfg)
    engine = _Engine(cfg, mode)
    ctx = engine.contexts(bound.boxes)
    chunks = [
        (engine, bound, ctx, seed, start, min(start + _CHUNK, n))
        for start in range(0, n, _CHUNK)
    ]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(jobs, len(chunks), cpus or 1)
    try:  # only source-plane errors, in crop-box units, can sum past the largest float
        if workers > 1:
            import multiprocessing

            with multiprocessing.Pool(processes=workers) as pool:
                partials = pool.starmap(_run_chunk, chunks)
        else:
            partials = [_run_chunk(*chunk) for chunk in chunks]
        counts, degenerate, xs, ys, sources = zip(*partials)
        source = math.fsum(sources)
    except OverflowError:
        raise ValueError("source-plane error sum overflows a float: crop box too large") from None
    used, skipped, failed = (sum(c) for c in zip(*counts))
    if used == 0:
        raise ValueError("every trial was skipped or failed; nothing to aggregate")
    var_x, var_y = (_merge_m2(parts) / (used - 1) if used > 1 else 0.0 for parts in (xs, ys))
    return ErrorStats(
        label=label if label is not None else describe_config(cfg),
        n_trials=used,
        mean_abs_x=math.fsum(total for _, total, _ in xs) / used,
        mean_abs_y=math.fsum(total for _, total, _ in ys) / used,
        var_abs_x=var_x,
        var_abs_y=var_y,
        mean_abs_x_source=source / used,
        n_skipped=skipped,
        n_decode_failed=failed,
        n_degenerate=sum(degenerate),
    )


# ---------------------------------------------------------------------------
# Closed-form expectations
# ---------------------------------------------------------------------------


def _piecewise_moments(lo: float, hi: float, grids, decoded) -> tuple[float, float]:
    """Mean and variance of ``|decoded(x) - x|`` for ``x`` uniform on ``[lo, hi]``,
    where ``decoded`` is constant between the points ``origin + k * step`` of
    its ``grids`` (a superset of its jumps is harmless): the error has slope
    -1 on each piece, so the piece integrates exactly."""
    cuts = [o + g * np.arange(math.floor((lo - o) / g), math.ceil((hi - o) / g) + 1)
            for o, g in grids]
    edges = np.unique(np.clip(np.concatenate(([lo, hi], *cuts)), lo, hi))
    d = decoded(0.5 * (edges[:-1] + edges[1:]))
    p, q = d - edges[:-1], d - edges[1:]
    mean = math.fsum(p * np.abs(p) - q * np.abs(q)) / (2.0 * (hi - lo))
    return mean, math.fsum(p * p * p - q * q * q) / (3.0 * (hi - lo)) - mean * mean


# name: test of cfg ``c`` and run facts ``g`` (``g.half`` is |half|), tried in this
# order; ``sampler`` goes first, as ``border`` reads a uniform sampler's margin.
# The first two apply in both oracle modes, the rest in heatmap mode only.
_GUARDS = {
    "sampler": lambda c, g: not g.uniform and (g.quarter or g.heatmap),
    # Keypoints round to the float spacing at the box's farthest source coordinate,
    # ``g.spacing`` output nodes, which moves a closed form by a few times that.
    "resolution": lambda c, g: g.spacing > 1e-7,
    "rno": lambda c, g: c.rno,
    "border": lambda c, g: c.codec is not Codec.CCRF and g.margin < 0.5 + 2.0 * g.half + g.snoop,
    "disc-overlap": lambda c, g: c.codec is Codec.CCRF and g.apart
        and c.radius ** 2 <= (0.5 + g.half) ** 2 + 0.25,
    "two-gaussians": lambda c, g: c.codec is Codec.CF and g.apart,
    "window": lambda c, g: c.codec is Codec.CF and c.sigma < _min_sigma(4.5),
    # The log node values carry ~1.1e-16 of rounding, so near sigma = 1000 the
    # determinant is known only to ~1e-9 relative: stop that far short of it.
    "newton": lambda c, g: c.codec is Codec.CF and c.sigma >= (1.0 - 1e-9) * _HESSIAN_EPS ** -0.25,
    "quarter-window":
        lambda c, g: g.quarter and c.sigma < _min_sigma((1.5 + 2.0 * g.half) ** 2 + 0.25),
    "quarter-two-peaks": lambda c, g: g.quarter and g.apart and g.half >= 0.5 and g.half > c.sigma,
    "argmax": lambda c, g: c.codec is Codec.ARGMAX_ONLY,
}


def analytic_errors(
    cfg: PipelineConfig, sampler=None, mode: OracleMode = OracleMode.ANALYTIC_SHIFT
) -> dict:
    """Closed-form expected |x error| of a run of ``cfg`` under the oracle
    ``mode`` that draws from ``sampler`` (``monte_carlo``'s default if ``None``).

    Returns ``mean_abs_x``, ``var_abs_x``, ``mean_abs_x_source`` (``None`` for
    many crop boxes) and ``refused``: ``None``, or the name of the first of
    ``_GUARDS`` that refuses the run, and then every value is ``None``.
    Mirrored back, a flipped branch lands ``(1 - s)/s`` nodes from the
    original under pixel-count ratios and on it under unit-length ones, and
    snoop moves it one node more; the averaged map is ``half`` that distance
    off the keypoint, less ``1/(2s)`` under snoop+ec, for any sampled law.
    The quarter-shift decoder's steps are integrated exactly (README)."""
    sampler = UniformKeypointSampler(default_roi(cfg)) if sampler is None else sampler
    uniform = isinstance(sampler, UniformKeypointSampler)
    margin = sampler.bind(cfg)._margin if uniform else None
    s, snoop = cfg.stride, cfg.compensation is not Compensation.NONE
    gap = 1.0 - s if cfg.convention is Convention.PIXEL_COUNT else 0.0
    half = (gap + (s if snoop else 0.0)) / (2.0 * s) if cfg.flip_test else 0.0
    ec = 1.0 / (2.0 * s) if cfg.compensation is Compensation.SNOOP_PLUS_EC else 0.0
    quarter = cfg.codec is Codec.CF_BIASED_DECODE
    (ew, eh), r = _extents(cfg.output, cfg.convention), sampler.roi if uniform else None
    far = max(abs(r.cx) + 0.5 * r.w, abs(r.cy) + 0.5 * r.h) if uniform else 0.0
    g = SimpleNamespace(uniform=uniform, margin=margin, half=abs(half), snoop=snoop,
                        quarter=quarter, heatmap=mode is OracleMode.FULL_HEATMAP,
                        apart=cfg.combine is Combine.AVERAGE_HEATMAPS and half != 0.0,
                        spacing=math.ulp(far) * max(ew / r.w, eh / r.h) if uniform else 0.0)
    for name, test in _GUARDS.items():
        if (g.heatmap or name in ("sampler", "resolution")) and test(cfg, g):
            return dict(mean_abs_x=None, var_abs_x=None, mean_abs_x_source=None, refused=name)
    mean, var = abs(half - ec), 0.0
    if quarter:  # x from the margin to where its input x leaves the input plane
        w, a = cfg.output.width_units, _input_to_output(cfg)[0]
        reach = a * cfg.input.width_units
        lo, hi = max(margin, 0.0), min(w - margin, reach)
        if cfg.flip_test and cfg.combine is Combine.AVERAGE_COORDS:  # Q(reach - x), mirrored
            mean, var = _piecewise_moments(lo, hi, ((0.0, 0.5), (reach, 0.5)), lambda x: 0.5 * (
                _quarter_law(x) + w + snoop - _quarter_law(reach - x)) - ec)
        else:  # a: the decode plane's node spacing, in output units
            a = a if cfg.rno else 1.0
            mean, var = _piecewise_moments(lo, hi, ((-half, 0.5 * a),),
                                           lambda x: a * _quarter_law((x + half) / a) - ec)
    source = mean * r.w / ew if uniform else None
    return {"mean_abs_x": mean, "var_abs_x": var, "mean_abs_x_source": source, "refused": None}
