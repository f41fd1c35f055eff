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
* ``FULL_HEATMAP`` mode renders real heatmaps through the configured
  encoder, averages/shifts/flips them as arrays and runs the real decoders,
  so it also captures what the coordinate-level approximation leaves out.

Trials are reproducible: each trial's randomness derives only from the run
seed and the trial index (a splitmix-style generator), and aggregation uses
compensated summation over fixed-size chunks, so results are identical for
any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .codec import (
    NoDetectionError,
    _argmax_xy,
    _ccrf_arrays,
    _dark_offset,
    _gaussian_array,
    _quarter_offset,
    encode_ccrf,
    encode_gaussian,
)
from .geometry import Point, Roi, Transform2D, apply_point, invert
from .pipeline import (
    Codec,
    Combine,
    Compensation,
    Convention,
    PipelineConfig,
    input_to_output,
    output_to_source,
    rno_upsample,
    test_transform,
)
from .raster import ImageGrid

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
# Deterministic randomness: splitmix-style 64-bit generator.
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z &= _MASK64
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
        wo, ho = cfg.output.width_units, cfg.output.height_units
        if 2.0 * margin >= min(wo, ho):
            raise ValueError(
                f"margin {margin} leaves no interior on a "
                f"{cfg.output.width_px}x{cfg.output.height_px} output plane"
            )
        return _BoundUniform(self.roi, cfg, margin)


class _BoundUniform:
    __slots__ = ("fixed_roi", "_o2s", "_mx", "_my", "_rx", "_ry")

    def __init__(self, roi: Roi, cfg: PipelineConfig, margin: float) -> None:
        self.fixed_roi = roi
        self._o2s = _aff(output_to_source(roi, cfg))
        wo, ho = cfg.output.width_units, cfg.output.height_units
        self._mx = margin
        self._my = margin
        self._rx = wo - 2.0 * margin
        self._ry = ho - 2.0 * margin

    def draw(self, rng: SplitMix64) -> tuple[Roi, float, float]:
        kx = self._mx + rng.uniform() * self._rx
        ky = self._my + rng.uniform() * self._ry
        gx, gy = _ap(self._o2s, kx, ky)
        return self.fixed_roi, gx, gy


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
        from .dataio import bbox_to_roi

        aspect = self.target_aspect
        if aspect is None:
            aspect = cfg.input.width_px / cfg.input.height_px
        entries = []
        for inst in self.instances:
            roi = bbox_to_roi(inst.bbox, aspect, self.padding)
            for point, visibility in inst.keypoints:
                if visibility > 0:
                    entries.append((roi, point.x, point.y))
        if not entries:
            raise ValueError("no visible keypoints to sample from")
        return _BoundCoco(tuple(entries))


class _BoundCoco:
    __slots__ = ("fixed_roi", "_entries")

    def __init__(self, entries: tuple) -> None:
        self.fixed_roi = None
        self._entries = entries

    def draw(self, rng: SplitMix64) -> tuple[Roi, float, float]:
        idx = int(rng.uniform() * len(self._entries))
        return self._entries[idx]


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


@dataclass(frozen=True)
class TrialRecord:
    """One simulated prediction with its ground truth and configuration."""

    gt_source: Point
    pred_source: Point
    pred_output: Point
    config: PipelineConfig


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
# Trial engine.  Affine transforms are carried as flat 6-tuples in the hot
# path; the matrices come from the pipeline module and are built once per
# crop box.
# ---------------------------------------------------------------------------


def _aff(t: Transform2D) -> tuple[float, float, float, float, float, float]:
    m = t.m
    return (
        float(m[0, 0]), float(m[0, 1]), float(m[0, 2]),
        float(m[1, 0]), float(m[1, 1]), float(m[1, 2]),
    )


def _ap(a, x: float, y: float) -> tuple[float, float]:
    return a[0] * x + a[1] * y + a[2], a[3] * x + a[4] * y + a[5]


def _quarter_law(v: float) -> float:
    """Coordinate recovered by the quarter-shift decoder from an exact
    single-peak map centered at ``v``."""
    fl = math.floor(v)
    return fl + 0.25 if v - fl < 0.5 else fl + 0.75


class _PeakMaps:
    """Coordinate-level oracle: a map is its single peak ``(x, y)`` in the
    output plane, so two maps average to the midpoint of their peaks.
    Decoding is exact except for the quarter-shift decoder, which applies
    its quantization law; ``up`` maps output to input plane for rno."""

    __slots__ = ("wo", "up", "quarter")

    def __init__(self, cfg: PipelineConfig, up=None) -> None:
        self.wo = cfg.output.width_units
        self.up = up
        self.quarter = cfg.codec is Codec.CF_BIASED_DECODE

    @staticmethod
    def render(kx: float, ky: float):
        return kx, ky

    def flip_back(self, p):
        return self.wo - p[0], p[1]

    @staticmethod
    def shift(p):
        return p[0] + 1.0, p[1]

    @staticmethod
    def average(a, b):
        return 0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1])

    def decode(self, p) -> tuple[float, float, bool]:
        x, y = p
        if self.up is not None:
            x, y = _ap(self.up, x, y)
        if self.quarter:
            return _quarter_law(x), _quarter_law(y), False
        return x, y, False


def _shift_right(arr: np.ndarray) -> np.ndarray:
    out = np.zeros_like(arr)
    out[:, 1:] = arr[:, :-1]
    return out


class _ArrayMaps:
    """Rendered-heatmap oracle: a map is the configured encoder's array, or
    the ``(c, x_off, y_off)`` arrays of the disc codec, decoded by the real
    decoders."""

    __slots__ = ("cfg", "ccrf")

    def __init__(self, cfg: PipelineConfig) -> None:
        self.cfg = cfg
        self.ccrf = cfg.codec is Codec.CCRF

    def render(self, kx: float, ky: float):
        out = self.cfg.output
        if not (0.0 <= kx <= out.width_units and 0.0 <= ky <= out.height_units):
            raise SkipTrial
        if self.ccrf:
            return _ccrf_arrays(out.width_px, out.height_px, kx, ky, self.cfg.radius)
        return _gaussian_array(out.width_px, out.height_px, kx, ky, self.cfg.sigma)

    def flip_back(self, arrs):
        if self.ccrf:
            c, x_off, y_off = arrs
            return c[:, ::-1], -x_off[:, ::-1], y_off[:, ::-1]
        return arrs[:, ::-1]

    def shift(self, arrs):
        if self.ccrf:
            return tuple(_shift_right(a) for a in arrs)
        return _shift_right(arrs)

    def average(self, a, b):
        if self.ccrf:
            return tuple(0.5 * (x + y) for x, y in zip(a, b))
        return 0.5 * (a + b)

    def decode(self, arrs) -> tuple[float, float, bool]:
        cfg = self.cfg
        if self.ccrf:
            c, x_off, y_off = arrs
            if not np.any(c):
                raise NoDetectionError("classification map is identically zero")
            ix, iy = _argmax_xy(c)
            return ix + x_off[iy, ix], iy + y_off[iy, ix], False
        if cfg.rno:
            arrs = rno_upsample(ImageGrid(cfg.output, arrs), cfg).data[:, :, 0]
        ix, iy = _argmax_xy(arrs)
        if cfg.codec is Codec.CF:
            dx, dy, deg = _dark_offset(arrs, ix, iy)
            return ix + dx, iy + dy, deg
        if cfg.codec is Codec.CF_BIASED_DECODE:
            dx, dy = _quarter_offset(arrs, ix, iy)
            return ix + dx, iy + dy, False
        return float(ix), float(iy), False


class _Engine:
    """The test pass of one configuration, trial by trial.

    The oracle mode only picks the map representation; the flow is the
    same for both.  Predictions are decoded in the decode plane: the input
    plane when the output is upsampled first (rno), else the output plane.
    """

    def __init__(self, cfg: PipelineConfig, mode: OracleMode) -> None:
        self.cfg = cfg
        i2o_t = input_to_output(cfg)
        self.i2o = _aff(i2o_t)
        self.w_i = cfg.input.width_units
        self.h_i = cfg.input.height_units
        # Decode plane -> output plane; None when they coincide.
        self.dp2o = self.i2o if cfg.rno else None
        if mode is OracleMode.ANALYTIC_SHIFT:
            self.maps = _PeakMaps(cfg, _aff(invert(i2o_t)) if cfg.rno else None)
        else:
            self.maps = _ArrayMaps(cfg)
        # Decoded coordinates combine as peaks in the output plane: the
        # config rejects coordinate averaging together with rno.
        self.peaks = _PeakMaps(cfg)
        self.snoop = cfg.compensation is not Compensation.NONE
        self.average_coords = cfg.combine is Combine.AVERAGE_COORDS
        # The 1/(2s) residual correction, in decode-plane units.
        self.ec = None
        if cfg.compensation is Compensation.SNOOP_PLUS_EC:
            ec = 1.0 / (2.0 * cfg.stride)
            self.ec = ec / self.i2o[0] if cfg.rno else ec

    def context(self, roi: Roi):
        """The per-crop-box transforms: source -> input, decode plane -> source."""
        s2i_t = test_transform(roi, self.cfg)
        if self.cfg.rno:
            return _aff(s2i_t), _aff(invert(s2i_t))
        return _aff(s2i_t), _aff(output_to_source(roi, self.cfg))

    def _combine(self, ops, a, b):
        """Mirror ``b`` back, shift it one node in +x when compensating, and
        average it with ``a``."""
        back = ops.flip_back(b)
        if self.snoop:
            back = ops.shift(back)
        return ops.average(a, back)

    def run(self, ctx, gx: float, gy: float):
        """Simulate one trial; returns (pox, poy, psx, psy, kox, koy, deg)."""
        s2i, dp2s = ctx
        kix, kiy = _ap(s2i, gx, gy)
        if not (0.0 <= kix <= self.w_i and 0.0 <= kiy <= self.h_i):
            raise SkipTrial
        kox, koy = _ap(self.i2o, kix, kiy)
        maps = self.maps
        m = maps.render(kox, koy)
        if not self.cfg.flip_test:
            x, y, deg = maps.decode(m)
        else:
            kofx, kofy = _ap(self.i2o, self.w_i - kix, kiy)
            m_flip = maps.render(kofx, kofy)
            if self.average_coords:
                x1, y1, deg1 = maps.decode(m)
                x2, y2, deg2 = maps.decode(m_flip)
                x, y = self._combine(self.peaks, (x1, y1), (x2, y2))
                deg = deg1 or deg2
            else:
                x, y, deg = maps.decode(self._combine(maps, m, m_flip))
            if self.ec is not None:
                x -= self.ec
        pox, poy = (x, y) if self.dp2o is None else _ap(self.dp2o, x, y)
        psx, psy = _ap(dp2s, x, y)
        return pox, poy, psx, psy, kox, koy, deg


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
    ctx = engine.context(roi)
    pox, poy, psx, psy, _, _, _ = engine.run(ctx, gt_source.x, gt_source.y)
    return TrialRecord(
        gt_source=gt_source,
        pred_source=Point(psx, psy),
        pred_output=Point(pox, poy),
        config=cfg,
    )


# ---------------------------------------------------------------------------
# Monte Carlo harness
# ---------------------------------------------------------------------------

_CHUNK = 4096


class _Kahan:
    __slots__ = ("total", "_c")

    def __init__(self) -> None:
        self.total = 0.0
        self._c = 0.0

    def add(self, x: float) -> None:
        y = x - self._c
        t = self.total + y
        self._c = (t - self.total) - y
        self.total = t


class _Partial:
    __slots__ = ("n", "ax", "ax2", "ay", "ay2", "asx", "skipped", "failed", "degenerate")

    def __init__(self) -> None:
        self.n = 0
        self.ax = _Kahan()
        self.ax2 = _Kahan()
        self.ay = _Kahan()
        self.ay2 = _Kahan()
        self.asx = _Kahan()
        self.skipped = 0
        self.failed = 0
        self.degenerate = 0

    def sums(self):
        return (
            self.n,
            self.ax.total, self.ax2.total, self.ay.total, self.ay2.total, self.asx.total,
            self.skipped, self.failed, self.degenerate,
        )


def _run_chunk(cfg, mode, sampler, seed, start, stop):
    engine = _Engine(cfg, mode)
    bound = sampler.bind(cfg)
    fixed = engine.context(bound.fixed_roi) if bound.fixed_roi is not None else None
    part = _Partial()
    for i in range(start, stop):
        rng = substream(seed, i)
        roi, gx, gy = bound.draw(rng)
        ctx = fixed if fixed is not None else engine.context(roi)
        try:
            pox, poy, psx, _, kox, koy, deg = engine.run(ctx, gx, gy)
        except SkipTrial:
            part.skipped += 1
            continue
        except NoDetectionError:
            part.failed += 1
            continue
        ex = abs(pox - kox)
        ey = abs(poy - koy)
        part.n += 1
        part.ax.add(ex)
        part.ax2.add(ex * ex)
        part.ay.add(ey)
        part.ay2.add(ey * ey)
        part.asx.add(abs(psx - gx))
        if deg:
            part.degenerate += 1
    return part.sums()


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
    if sampler is None:
        sampler = UniformKeypointSampler(default_roi(cfg))

    chunks = [
        (cfg, mode, sampler, seed, start, min(start + _CHUNK, n))
        for start in range(0, n, _CHUNK)
    ]
    if jobs > 1 and len(chunks) > 1:
        import multiprocessing

        with multiprocessing.Pool(processes=min(jobs, len(chunks))) as pool:
            partials = pool.starmap(_run_chunk, chunks)
    else:
        partials = [_run_chunk(*chunk) for chunk in chunks]

    used = 0
    skipped = failed = degenerate = 0
    totals = [_Kahan() for _ in range(5)]
    for part in partials:
        pn, sax, sax2, say, say2, sasx, psk, pfl, pdg = part
        used += pn
        skipped += psk
        failed += pfl
        degenerate += pdg
        for acc, value in zip(totals, (sax, sax2, say, say2, sasx)):
            acc.add(value)
    if used == 0:
        raise ValueError("every trial was skipped or failed; nothing to aggregate")

    sax, sax2, say, say2, sasx = (acc.total for acc in totals)
    mean_x = sax / used
    mean_y = say / used
    if used > 1:
        var_x = max(0.0, (sax2 - used * mean_x * mean_x) / (used - 1))
        var_y = max(0.0, (say2 - used * mean_y * mean_y) / (used - 1))
    else:
        var_x = var_y = 0.0
    return ErrorStats(
        label=label if label is not None else describe_config(cfg),
        n_trials=used,
        mean_abs_x=mean_x,
        mean_abs_y=mean_y,
        var_abs_x=var_x,
        var_abs_y=var_y,
        mean_abs_x_source=sasx / used,
        n_skipped=skipped,
        n_decode_failed=failed,
        n_degenerate=degenerate,
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


def analytic_errors(cfg: PipelineConfig, roi: Roi | None = None) -> dict:
    """Closed-form expected |x error| for configurations with known analysis.

    Returns a dict with ``mean_abs_x``, ``var_abs_x`` and
    ``mean_abs_x_source``; entries are ``None`` when the configuration falls
    outside the analyzed cases (and the source entry also when no ``roi``
    supplies a crop width).
    """
    na = {"mean_abs_x": None, "var_abs_x": None, "mean_abs_x_source": None}
    if cfg.rno:
        return dict(na)

    shift = 0.0
    if cfg.flip_test and cfg.convention is Convention.PIXEL_COUNT:
        s = cfg.stride
        if cfg.compensation is Compensation.NONE:
            shift = (1.0 - s) / (2.0 * s)
        elif cfg.compensation is Compensation.SNOOP:
            shift = 1.0 / (2.0 * s)
        else:
            shift = 0.0

    if cfg.codec is Codec.CF_BIASED_DECODE:
        if cfg.flip_test and cfg.combine is not Combine.AVERAGE_HEATMAPS:
            return dict(na)
        if abs(shift) > 0.5:
            return dict(na)
        mean, var = _quarter_stats(shift)
    else:
        mean, var = abs(shift), 0.0

    out_w = (
        cfg.output.width_units
        if cfg.convention is Convention.UNIT_LENGTH
        else float(cfg.output.width_px)
    )
    mean_source = mean * roi.w / out_w if roi is not None else None
    return {"mean_abs_x": mean, "var_abs_x": var, "mean_abs_x_source": mean_source}
