"""Command-line front end.

Subcommands: ``transform`` (build/apply one elementary transform),
``warp`` (resample an image file), ``encode``/``decode`` (keypoint/heatmap
codecs), ``simulate`` (Monte Carlo error measurement of one pipeline
configuration), ``verify`` (identity and closed-form checks), ``ablate``
(preset configuration grids).

Exit codes: 0 success, 1 verification failure, 2 usage error, 141 (128 +
SIGPIPE) when the reader of stdout closes early.  Angles are taken in degrees
here and converted at the boundary; the library itself works in radians.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction as F

import numpy as np

from . import biaslab, dataio
from .biaslab import (
    CocoKeypointSampler,
    OracleMode,
    UniformKeypointSampler,
    analytic_errors,
    default_roi,
    monte_carlo,
)
from .codec import (
    decode_argmax,
    decode_biased_quarter,
    decode_ccrf,
    decode_dark,
    encode_ccrf,
    encode_gaussian,
    CcrfTarget,
    default_ccrf_radius,
)
from .geometry import (
    PlaneSize,
    Point,
    Roi,
    apply_point,
    compose,
    invert,
    t_crop,
    t_flip,
    t_resize,
    t_rotate,
)
from .pipeline import (
    Codec,
    Combine,
    Compensation,
    Convention,
    PipelineConfig,
    input_to_output,
    load_config,
    output_to_source,
    parse_size,
    test_transform,
)
from .raster import (
    BorderPolicy,
    ImageGrid,
    _read_pgm,
    read_grid_text,
    warp,
    write_grid_text,
    write_pgm,
)


class UsageError(Exception):
    """Inconsistent flags; reported on stderr with exit code 2."""


def _floats(text: str, names: str) -> list[float]:
    """Parse comma-separated floats, one per comma-separated name in ``names``."""
    values = text.split(",")
    try:
        if len(values) != len(names.split(",")):
            raise ValueError
        return [float(v) for v in values]
    except ValueError as exc:
        raise UsageError(f"expected {names}, got {text!r}") from exc


_CODEC_FLAGS = tuple(c.value.replace("_", "-") for c in Codec)

_BORDER_FLAGS = {"zero": BorderPolicy.ZERO_FILL, "clamp": BorderPolicy.CLAMP_TO_EDGE}


def _refuse_unread_width(args, codec: Codec) -> None:
    """Refuse ``--sigma`` for the disc codec and ``--radius`` for the others."""
    unused = "sigma" if codec is Codec.CCRF else "radius"
    if getattr(args, unused) is not None:
        raise UsageError(f"--{unused} does not apply to the {codec.value.replace('_', '-')} codec")


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------


def _elementary(args, **given):
    """The ``--op`` transform.  Each value comes from ``given``, or else from
    the flag the op reads, parsed only then; a missing one names its flag."""

    def value(name, names=None, flag=None):
        if name in given:
            return given[name]
        text = getattr(args, name)
        if text is None:
            raise UsageError(f"--op {args.op} requires {flag or '--' + name}")
        return _floats(text, names) if names else text

    if args.op == "crop":
        return t_crop(Roi(*value("roi", "CX,CY,W,H")))
    if args.op == "resize":
        return t_resize(*value("src", "W,H"), *value("dst", "W,H"))
    if args.op == "rotate":
        angle = math.radians(value("angle", flag="--angle (degrees)"))
        return t_rotate(angle, Point(*value("center", "X,Y")))
    return t_flip(value("width"))


def cmd_transform(args) -> int:
    t = _elementary(args)
    if args.invert:
        t = invert(t)
    payload = {"matrix": t.m.tolist()}
    if args.point is not None:
        p = apply_point(t, Point(*_floats(args.point, "X,Y")))
        payload["point"] = [p.x, p.y]
    print(json.dumps(payload))
    return 0


# ---------------------------------------------------------------------------
# warp
# ---------------------------------------------------------------------------


def _read_image(path: str) -> tuple[ImageGrid, int]:
    """The grid and the maxval a PGM written from it keeps: the input's own
    for a PGM, 255 for a text grid."""
    if path.endswith(".pgm"):
        return _read_pgm(path)
    return read_grid_text(path), 255


def _write_image(path: str, grid: ImageGrid, maxval: int) -> None:
    if path.endswith(".pgm"):
        write_pgm(path, grid, maxval)
    else:
        write_grid_text(path, grid)


def cmd_warp(args) -> int:
    src, maxval = _read_image(args.image)
    dst_size = parse_size(args.dst_size) if args.dst_size else src.size
    w, h = src.size.width_units, src.size.height_units
    center = {} if args.center is not None else {"center": (0.5 * w, 0.5 * h)}
    t = _elementary(args, src=(w, h), dst=(dst_size.width_units, dst_size.height_units),
                    width=w, **center)
    out = warp(src, t, dst_size, _BORDER_FLAGS[args.border])
    _write_image(args.out, out, maxval)
    print(json.dumps({"written": args.out, "size": [dst_size.width_px, dst_size.height_px]}))
    return 0


# ---------------------------------------------------------------------------
# encode / decode
# ---------------------------------------------------------------------------


def cmd_encode(args) -> int:
    dims = parse_size(args.size)
    k = Point(*_floats(args.keypoint, "X,Y"))
    codec = Codec(args.codec.replace("-", "_"))
    _refuse_unread_width(args, codec)
    if codec is Codec.CCRF:
        radius = args.radius if args.radius is not None else default_ccrf_radius(dims)
        target = encode_ccrf(k, dims, radius)
        stacked = np.dstack([g.data[:, :, 0] for g in (target.c, target.x_off, target.y_off)])
        write_grid_text(args.out, ImageGrid(dims, stacked))
    else:
        sigma = {} if args.sigma is None else {"sigma": args.sigma}
        target = encode_gaussian(k, dims, **sigma)
        write_grid_text(args.out, target.c)
    print(json.dumps({"written": args.out, "codec": args.codec}))
    return 0


def cmd_decode(args) -> int:
    grid = read_grid_text(args.heatmap)
    codec = Codec(args.codec.replace("-", "_"))
    if codec is Codec.CCRF:
        if grid.channels != 3:
            raise UsageError(
                f"ccrf decoding needs a 3-channel grid (c, x_off, y_off), got {grid.channels}"
            )
        target = CcrfTarget(
            c=ImageGrid(grid.size, grid.data[:, :, 0]),
            x_off=ImageGrid(grid.size, grid.data[:, :, 1]),
            y_off=ImageGrid(grid.size, grid.data[:, :, 2]),
            radius=default_ccrf_radius(grid.size),
        )
        result = decode_ccrf(target)
    else:
        plane = ImageGrid(grid.size, grid.data[:, :, 0])
        decoder = {
            Codec.CF: decode_dark,
            Codec.CF_BIASED_DECODE: decode_biased_quarter,
            Codec.ARGMAX_ONLY: decode_argmax,
        }[codec]
        result = decoder(plane)
    print(json.dumps({"x": result.k.x, "y": result.k.y, "argmax": list(result.argmax),
                      "degenerate": result.degenerate}))
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _topdown(convention: Convention, **fields) -> PipelineConfig:
    """A configuration on the 192x256 input and 48x64 output planes, unless
    ``fields`` name other planes."""
    planes = {"input": PlaneSize(192, 256), "output": PlaneSize(48, 64)}
    return PipelineConfig(convention=convention, **{**planes, **fields})


def _config_from_args(args) -> PipelineConfig:
    """One config from the ``--config`` file's keys, or the unit-length
    top-down planes, with every given flag in place of its field."""
    flags = {
        "convention": (args.ucst,
                       lambda v: Convention.UNIT_LENGTH if v else Convention.PIXEL_COUNT),
        "input": (args.input, parse_size),
        "output": (args.output, parse_size),
        "flip_test": (args.ft, bool),
        "codec": (args.codec, lambda v: Codec(v.replace("-", "_"))),
        "combine": (args.combine, lambda v: Combine(v.replace("-", "_"))),
        "rno": (args.rno, bool),
        "sigma": (args.sigma, float),
        "radius": (args.radius, float),
    }
    fields = {name: parse(value) for name, (value, parse) in flags.items() if value is not None}
    if args.snoop is not None or args.ec is not None:
        if args.ec and not args.snoop:
            raise UsageError("--ec only refines --snoop; pass both")
        comp = Compensation.SNOOP_PLUS_EC if args.ec else Compensation.SNOOP
        fields["compensation"] = comp if args.snoop else Compensation.NONE
    if args.config:
        return load_config(args.config, **fields)
    return _topdown(**{"convention": Convention.UNIT_LENGTH, **fields})


def _sampler_from_args(args, cfg: PipelineConfig):
    if args.coco:
        if args.roi is not None or args.margin is not None:
            raise UsageError("--roi and --margin do not apply to --coco, whose crop boxes "
                             "come from the annotations")
        loaded = dataio.load_coco_keypoints(args.coco)
        padding = {} if args.padding is None else {"padding": args.padding}
        return CocoKeypointSampler(instances=loaded.instances, target_aspect=args.aspect,
                                   **padding)
    if args.aspect is not None or args.padding is not None:
        raise UsageError("--aspect and --padding apply only to --coco, which fixes crop "
                         "boxes from the annotations")
    roi = Roi(*_floats(args.roi, "CX,CY,W,H")) if args.roi else default_roi(cfg)
    return UniformKeypointSampler(roi, margin=args.margin)


def _print_stats(stats) -> None:
    print("{label}  n={n_trials}  mean|ex|={mean_abs_x:.6f}  mean|ey|={mean_abs_y:.6f}  "
          "var|ex|={var_abs_x:.6f}  mean|ex_src|={mean_abs_x_source:.6f}  "
          "skipped={n_skipped} failed={n_decode_failed} degenerate={n_degenerate}"
          .format(**stats.__dict__))


def _run_rows(args, rows, sampler=None) -> list:
    """Run each ``(label, cfg)`` row under ``--mode``, ``-n``, ``--seed`` and
    ``--jobs``, through this module's ``monte_carlo`` as it stands at the call,
    print its stats line as it ends, and return the stats."""
    done = []
    for label, cfg in rows:
        done.append(monte_carlo(cfg, OracleMode(args.mode), args.trials, args.seed, sampler,
                                label=label, jobs=args.jobs))
        _print_stats(done[-1])
    return done


def cmd_simulate(args) -> int:
    try:  # reports hold labels as UTF-8
        (args.label or "").encode("utf-8")
    except UnicodeEncodeError:
        raise UsageError("--label is not valid UTF-8 text") from None
    cfg = _config_from_args(args)
    _refuse_unread_width(args, cfg.codec)
    sampler = _sampler_from_args(args, cfg)
    rows = _run_rows(args, [(args.label, cfg)], sampler)
    closed = analytic_errors(cfg, sampler, OracleMode(args.mode))
    if closed["mean_abs_x"] is not None:
        print(
            f"closed-form: mean|ex|={closed['mean_abs_x']:.6f} "
            f"var|ex|={closed['var_abs_x']:.6f}"
        )
    if args.report:
        dataio.write_report(rows, args.format, args.report)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _random_planes(rng, convention: Convention) -> PipelineConfig:
    return PipelineConfig(
        convention=convention,
        input=PlaneSize(int(rng.integers(16, 512)), int(rng.integers(16, 512))),
        output=PlaneSize(int(rng.integers(8, 128)), int(rng.integers(8, 128))),
    )


def _flip_chain(cfg: PipelineConfig, i2o):
    """Flip the input plane, map it to the output plane and flip it back."""
    return compose(t_flip(cfg.output.width_units), compose(i2o, t_flip(cfg.input.width_units)))


def _max_codec_error(rng, round_trip, xs, ys) -> float:
    """Largest coordinate error of ``round_trip`` over 2000 keypoints drawn
    uniformly from the box ``xs`` by ``ys``."""
    worst = 0.0
    for _ in range(2000):
        k = Point(float(rng.uniform(*xs)), float(rng.uniform(*ys)))
        d = round_trip(k)
        worst = max(worst, abs(d.k.x - k.x), abs(d.k.y - k.y))
    return worst


def _verify_checks(seed: int):
    """Yield one ``(name, value, expected, tolerance, detail)`` row per check.

    A check passes iff ``abs(value - expected) < tolerance``; ``detail``
    formats ``value`` for its line.  Each bound follows one rule: 1e-9 for the
    float transform chains, 1e-12 for codec and closed-form identities, 5 SEM
    + 1e-9 for a Monte Carlo mean, and 1/1920 for the one Monte Carlo variance,
    since a run keeps no standard error for a variance.
    """
    rng = np.random.default_rng(seed)
    unit, pixel = Convention.UNIT_LENGTH, Convention.PIXEL_COUNT
    analytic, heatmap = OracleMode.ANALYTIC_SHIFT, OracleMode.FULL_HEATMAP
    none, snoop, ec = Compensation.NONE, Compensation.SNOOP, Compensation.SNOOP_PLUS_EC
    # The laws checked, each stated once: (cfg, mode, mean |x error|, its variance,
    # whether a 20,000-trial run also checks it).
    laws = [
        (_preset(pixel, True, none, Codec.ARGMAX_ONLY), analytic, F(3, 8), 0, True),
        (_preset(pixel, True, snoop, Codec.ARGMAX_ONLY), analytic, F(1, 8), 0, True),
        (_preset(pixel, True, ec, Codec.ARGMAX_ONLY), analytic, F(0), 0, True),
        (_preset(unit), heatmap, F(1, 8), F(1, 192), True),
        (_preset(pixel, True, snoop), analytic, F(5, 32), F(37, 3072), False),
        (_preset(pixel, True, none), analytic, F(3, 8), F(1, 48), False),
        (_preset(unit, True, snoop), analytic, F(1, 2), F(1, 48), False),
        (_preset(unit, True, ec), analytic, F(3, 8), F(1, 48), False),
    ]

    def runs(mode):
        """Each law of ``mode`` that runs, with its stats, closed form and mean's bound."""
        for cfg, law_mode, mean, var, run in laws:
            if run and law_mode is mode:
                stats = monte_carlo(cfg, mode, 20000, seed)
                yield cfg, mean, var, stats, analytic_errors(cfg, mode=mode), \
                    5.0 * stats.sem_abs_x + 1e-9

    # Round trip through source -> input -> output -> source.
    worst = 0.0
    for convention in (unit, pixel):
        for _ in range(500):
            cfg = _random_planes(rng, convention)
            roi = Roi(*(float(rng.uniform(*r)) for r in [(-200, 800)] * 2 + [(5, 500)] * 2))
            chain = compose(output_to_source(roi, cfg),
                            compose(input_to_output(cfg), test_transform(roi, cfg)))
            p = Point(float(rng.uniform(-300, 900)), float(rng.uniform(-300, 900)))
            q = apply_point(chain, p)
            worst = max(worst, abs(q.x - p.x), abs(q.y - p.y))
    yield "round trip to source is the identity", worst, 0.0, 1e-9, "max={:.2e}"

    # Flipped and original predictions align under unit-length ratios ...
    worst = 0.0
    for _ in range(1000):
        cfg = _random_planes(rng, unit)
        i2o = input_to_output(cfg)
        p = Point(float(rng.uniform(0, cfg.input.width_units)), 0.0)
        worst = max(worst, abs(apply_point(_flip_chain(cfg, i2o), p).x - apply_point(i2o, p).x))
    yield "flip ensemble aligns (unit-length ratios)", worst, 0.0, 1e-9, "max={:.2e}"

    # ... and pixel-count ratios leave the known x offset.
    worst = 0.0
    for _ in range(200):
        wop = int(rng.integers(8, 128))
        cfg = PipelineConfig(convention=pixel,
                             input=PlaneSize(4 * wop, 4 * int(rng.integers(8, 128))),
                             output=PlaneSize(wop, int(rng.integers(8, 128))))
        i2o = input_to_output(cfg)
        offset = compose(_flip_chain(cfg, i2o), invert(i2o)).m[0, 2]
        worst = max(worst, abs(offset - (1.0 - cfg.stride) / cfg.stride))
    yield "pixel-count flip offset equals (1-s)/s", worst, 0.0, 1e-9, "max={:.2e}"

    # Monte Carlo means for the remedies, at coordinate level.
    for cfg, mean, _, stats, closed, bound in runs(analytic):
        name = f"flip remedy {cfg.compensation.value}: mean |x error| = {float(mean)}"
        yield name, stats.mean_abs_x, closed["mean_abs_x"], bound, "got {:.6f}"

    # Codec identities.
    dims = PlaneSize(48, 64)
    worst = _max_codec_error(rng, lambda k: decode_ccrf(encode_ccrf(k, dims, 3.0)), (0, 47),
                             (0, 63))
    yield "disc codec round trip is exact", worst, 0.0, 1e-12, "max={:.2e}"
    worst = _max_codec_error(rng, lambda k: decode_dark(encode_gaussian(k, dims, 2.0).c), (6, 41),
                             (6, 57))
    yield "one-step Newton decode recovers exact peaks", worst, 0.0, 1e-12, "max={:.2e}"

    # Quarter-shift decoder statistics on rendered maps.
    for _, mean, var, stats, closed, bound in runs(heatmap):
        name, got = "quarter-shift decoder:", "got {:.6f}"
        yield f"{name} mean |error| = {mean}", stats.mean_abs_x, closed["mean_abs_x"], bound, got
        yield f"{name} var |error| = {var}", stats.var_abs_x, closed["var_abs_x"], 1 / 1920, got

    # Every law's closed form equals its constants (np.max keeps a NaN).
    gaps = []
    for cfg, mode, mean, var, _ in laws:
        closed = analytic_errors(cfg, mode=mode)
        gaps += [abs(closed["mean_abs_x"] - mean), abs(closed["var_abs_x"] - var)]
    yield "closed-form table matches its constants", float(np.max(gaps)), 0.0, 1e-12, "max={:.2e}"


def cmd_verify(args) -> int:
    biaslab._check_seed(args.seed)
    passed = []
    for name, value, expected, tolerance, detail in _verify_checks(args.seed):
        passed.append(abs(value - expected) < tolerance)
        tail = f"({detail.format(value)}, bound {tolerance:.3g})"
        print(f"{'PASS' if passed[-1] else 'FAIL'}  {name}  {tail}")
    print(f"{sum(passed)}/{len(passed)} checks passed")
    return 0 if all(passed) else 1


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------


def _preset(conv, ft=False, comp=Compensation.NONE, codec=Codec.CF_BIASED_DECODE):
    return _topdown(conv, flip_test=ft, compensation=comp, codec=codec)


def _topdown_presets() -> list[tuple[str, PipelineConfig]]:
    unit, pixel, cfg = Convention.UNIT_LENGTH, Convention.PIXEL_COUNT, _preset
    return [
        ("A", cfg(pixel)),
        ("B", cfg(unit)),
        ("C", cfg(pixel, ft=True)),
        ("D", cfg(unit, ft=True)),
        ("E", cfg(pixel, ft=True, comp=Compensation.SNOOP)),
        ("F", cfg(pixel, ft=True, comp=Compensation.SNOOP_PLUS_EC)),
        ("G", cfg(pixel, ft=True, codec=Codec.CCRF)),
        ("H", cfg(unit, ft=True, codec=Codec.CCRF)),
        ("I", cfg(unit, ft=True, codec=Codec.CF)),
    ]


def _bottomup_presets() -> list[tuple[str, PipelineConfig]]:
    unit, pixel = Convention.UNIT_LENGTH, Convention.PIXEL_COUNT
    i = PlaneSize(128, 128)
    lo, hi = PlaneSize(32, 32), PlaneSize(64, 64)

    def cfg(conv, out, codec=Codec.CF_BIASED_DECODE, rno=False):
        return PipelineConfig(
            convention=conv, input=i, output=out, flip_test=True, codec=codec, rno=rno
        )

    return [
        ("A", cfg(pixel, lo, rno=True)),
        ("B", cfg(unit, lo)),
        ("C", cfg(unit, lo, codec=Codec.CF)),
        ("D", cfg(unit, lo, codec=Codec.CF, rno=True)),
        ("E", cfg(pixel, hi)),
        ("F", cfg(pixel, hi, rno=True)),
        ("G", cfg(pixel, hi, codec=Codec.CF, rno=True)),
        ("H", cfg(unit, hi)),
        ("I", cfg(unit, hi, codec=Codec.CF)),
        ("J", cfg(unit, hi, codec=Codec.CF, rno=True)),
    ]


def cmd_ablate(args) -> int:
    presets = _topdown_presets() if args.preset == "topdown" else _bottomup_presets()
    rows = _run_rows(args, [(f"{i}:{biaslab.describe_config(cfg)}", cfg) for i, cfg in presets])
    if args.report:
        dataio.write_report(rows, args.format, args.report)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_simulate_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--seed", type=int, required=True, help="PRNG seed (required)")
    sp.add_argument("-n", "--trials", type=int, default=10000, help="number of trials")
    sp.add_argument("--mode", choices=("analytic", "heatmap"), default="analytic",
                    help="coordinate-level or rendered-heatmap oracle")
    sp.add_argument("--jobs", type=int, default=1, help="worker process cap")
    sp.add_argument("--report", help="write stats to this path")
    sp.add_argument("--format", choices=("csv", "json"), default="csv",
                    help="report format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="keypose",
        description="Coordinate transforms, keypoint codecs and pipeline bias measurement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("transform", help="build one elementary transform, print it as JSON")
    sp.add_argument("--op", choices=("crop", "resize", "rotate", "flip"), required=True)
    sp.add_argument("--roi", help="CX,CY,W,H for crop")
    sp.add_argument("--src", help="W,H source extents (unit lengths) for resize")
    sp.add_argument("--dst", help="W,H destination extents (unit lengths) for resize")
    sp.add_argument("--angle", type=float, help="rotation angle in degrees")
    sp.add_argument("--center", help="X,Y rotation center")
    sp.add_argument("--width", type=float, help="plane extent (unit lengths) for flip")
    sp.add_argument("--point", help="X,Y point to push through the transform")
    sp.add_argument("--invert", action="store_true", help="invert before printing/applying")
    sp.set_defaults(func=cmd_transform)

    sp = sub.add_parser("warp", help="resample an image or heatmap file")
    sp.add_argument("--image", required=True, help="input .pgm or textual grid file")
    sp.add_argument("--out", required=True, help="output path (.pgm or textual grid)")
    sp.add_argument("--op", choices=("crop", "resize", "rotate", "flip"), required=True)
    sp.add_argument("--roi", help="CX,CY,W,H for crop")
    sp.add_argument("--angle", type=float, help="rotation angle in degrees")
    sp.add_argument("--center", help="X,Y rotation center (defaults to the grid center)")
    sp.add_argument("--dst-size", help="WIDTHxHEIGHT pixels of the output grid")
    sp.add_argument("--border", choices=tuple(_BORDER_FLAGS), default="zero",
                    help="out-of-bounds sampling policy")
    sp.set_defaults(func=cmd_warp)

    sp = sub.add_parser("encode", help="encode a keypoint into a heatmap file")
    sp.add_argument("--codec", choices=("ccrf", "cf"), required=True)
    sp.add_argument("--keypoint", required=True, help="X,Y in output-plane units")
    sp.add_argument("--size", required=True, help="WIDTHxHEIGHT pixels of the map")
    sp.add_argument("--radius", type=float, help="disc radius (default width_px/16)")
    sp.add_argument("--sigma", type=float, help="gaussian sigma")
    sp.add_argument("--out", required=True, help="output textual grid path")
    sp.set_defaults(func=cmd_encode)

    sp = sub.add_parser("decode", help="decode a heatmap file back to a keypoint")
    sp.add_argument("--codec", choices=_CODEC_FLAGS, required=True)
    sp.add_argument("--heatmap", required=True, help="textual grid path")
    sp.set_defaults(func=cmd_decode)

    sp = sub.add_parser("simulate", help="Monte Carlo error measurement of one configuration")
    sp.add_argument("--config", help="flat key=value pipeline config file")
    sp.add_argument("--ucst", action=argparse.BooleanOptionalAction, default=None,
                    help="unit-length resize ratios (off = pixel-count ratios)")
    sp.add_argument("--ft", action=argparse.BooleanOptionalAction, default=None,
                    help="flip ensembling at test time")
    sp.add_argument("--snoop", action=argparse.BooleanOptionalAction, default=None,
                    help="shift the flipped-back result one node in +x")
    sp.add_argument("--ec", action=argparse.BooleanOptionalAction, default=None,
                    help="also subtract the 1/(2s) residual")
    sp.add_argument("--rno", action=argparse.BooleanOptionalAction, default=None,
                    help="upsample the network output before decoding")
    sp.add_argument("--codec", choices=_CODEC_FLAGS, default=None)
    sp.add_argument("--combine", choices=("average-coords", "average-heatmaps"), default=None)
    sp.add_argument("--input", help="input plane WIDTHxHEIGHT pixels")
    sp.add_argument("--output", help="output plane WIDTHxHEIGHT pixels")
    sp.add_argument("--sigma", type=float, default=None)
    sp.add_argument("--radius", type=float, default=None)
    sp.add_argument("--roi", help="CX,CY,W,H source crop box")
    sp.add_argument("--margin", type=float, default=None,
                    help="keypoint margin from output borders, in output units")
    sp.add_argument("--coco", help="sample ground truth from this annotation JSON")
    sp.add_argument("--aspect", type=float, default=None, help="crop aspect for --coco")
    sp.add_argument("--padding", type=float, default=None, help="crop padding for --coco")
    sp.add_argument("--label", default=None, help="row label in reports")
    _add_simulate_flags(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("verify", help="run the identity and closed-form check suite")
    sp.add_argument("--seed", type=int, default=20240001, help="PRNG seed")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("ablate", help="run a preset configuration grid")
    sp.add_argument("--preset", choices=("topdown", "bottomup"), required=True)
    _add_simulate_flags(sp)
    sp.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed reader fails here, not at exit
        return code
    except BrokenPipeError:
        # End quietly, as SIGPIPE would; stdout goes to devnull so the flush at exit succeeds.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (UsageError, ValueError, OSError, MemoryError, dataio.MissingImageError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
