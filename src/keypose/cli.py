"""Command-line front end.

Subcommands: ``transform`` (build/apply one elementary transform),
``warp`` (resample an image file), ``encode``/``decode`` (keypoint/heatmap
codecs), ``simulate`` (Monte Carlo error measurement of one pipeline
configuration), ``verify`` (identity and closed-form checks), ``ablate``
(preset configuration grids).

Exit codes: 0 success, 1 verification failure, 2 usage error.  Angles are
taken in degrees here and converted at the boundary; the library itself
works in radians.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

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
    config_from_text,
    input_to_output,
    output_to_source,
    parse_size,
    test_transform,
)
from .raster import (
    BorderPolicy,
    ImageGrid,
    read_grid_text,
    read_pgm,
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


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------


def cmd_transform(args) -> int:
    if args.op == "crop":
        if args.roi is None:
            raise UsageError("--op crop requires --roi")
        t = t_crop(Roi(*_floats(args.roi, "CX,CY,W,H")))
    elif args.op == "resize":
        if args.src is None or args.dst is None:
            raise UsageError("--op resize requires --src and --dst extents")
        t = t_resize(*_floats(args.src, "W,H"), *_floats(args.dst, "W,H"))
    elif args.op == "rotate":
        if args.angle is None or args.center is None:
            raise UsageError("--op rotate requires --angle (degrees) and --center")
        t = t_rotate(math.radians(args.angle), Point(*_floats(args.center, "X,Y")))
    elif args.op == "flip":
        if args.width is None:
            raise UsageError("--op flip requires --width")
        t = t_flip(args.width)
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown op {args.op!r}")
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


def _read_image(path: str) -> ImageGrid:
    if path.endswith(".pgm"):
        return read_pgm(path)
    return read_grid_text(path)


def _write_image(path: str, grid: ImageGrid) -> None:
    if path.endswith(".pgm"):
        write_pgm(path, grid)
    else:
        write_grid_text(path, grid)


def cmd_warp(args) -> int:
    src = _read_image(args.image)
    dst_size = parse_size(args.dst_size) if args.dst_size else src.size
    if args.op == "flip":
        t = t_flip(src.size.width_units)
    elif args.op == "rotate":
        if args.angle is None:
            raise UsageError("--op rotate requires --angle (degrees)")
        center = (
            Point(*_floats(args.center, "X,Y"))
            if args.center is not None
            else Point(0.5 * src.size.width_units, 0.5 * src.size.height_units)
        )
        t = t_rotate(math.radians(args.angle), center)
    elif args.op == "resize":
        t = t_resize(
            src.size.width_units, src.size.height_units,
            dst_size.width_units, dst_size.height_units,
        )
    elif args.op == "crop":
        if args.roi is None:
            raise UsageError("--op crop requires --roi")
        t = t_crop(Roi(*_floats(args.roi, "CX,CY,W,H")))
    else:  # pragma: no cover
        raise UsageError(f"unknown op {args.op!r}")
    out = warp(src, t, dst_size, _BORDER_FLAGS[args.border])
    _write_image(args.out, out)
    print(json.dumps({"written": args.out, "size": [dst_size.width_px, dst_size.height_px]}))
    return 0


# ---------------------------------------------------------------------------
# encode / decode
# ---------------------------------------------------------------------------


def cmd_encode(args) -> int:
    dims = parse_size(args.size)
    k = Point(*_floats(args.keypoint, "X,Y"))
    codec = Codec(args.codec.replace("-", "_"))
    if codec is Codec.CCRF:
        radius = args.radius if args.radius is not None else default_ccrf_radius(dims)
        target = encode_ccrf(k, dims, radius)
        stacked = np.dstack([g.data[:, :, 0] for g in (target.c, target.x_off, target.y_off)])
        write_grid_text(args.out, ImageGrid(dims, stacked))
    else:
        target = encode_gaussian(k, dims, args.sigma)
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
            radius=args.radius if args.radius is not None else default_ccrf_radius(grid.size),
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
        return config_from_text(Path(args.config).read_text(encoding="ascii"), **fields)
    return _topdown(**{"convention": Convention.UNIT_LENGTH, **fields})


def _sampler_from_args(args, cfg: PipelineConfig):
    if args.coco:
        if args.roi is not None or args.margin is not None:
            raise UsageError("--roi and --margin do not apply to --coco, whose crop boxes "
                             "come from the annotations")
        loaded = dataio.load_coco_keypoints(args.coco)
        return CocoKeypointSampler(
            instances=loaded.instances,
            target_aspect=args.aspect,
            padding=args.padding,
        )
    roi = Roi(*_floats(args.roi, "CX,CY,W,H")) if args.roi else default_roi(cfg)
    return UniformKeypointSampler(roi, margin=args.margin)


_STATS_LINE = (
    "{label}  n={n_trials}  mean|ex|={mean_abs_x:.6f}  mean|ey|={mean_abs_y:.6f}  "
    "var|ex|={var_abs_x:.6f}  mean|ex_src|={mean_abs_x_source:.6f}  "
    "skipped={n_skipped} failed={n_decode_failed} degenerate={n_degenerate}"
)


def _print_stats(stats) -> None:
    print(_STATS_LINE.format(**stats.__dict__))


def cmd_simulate(args) -> int:
    cfg = _config_from_args(args)
    sampler = _sampler_from_args(args, cfg)
    mode = OracleMode(args.mode)
    stats = monte_carlo(
        cfg, mode, args.trials, args.seed, sampler, label=args.label, jobs=args.jobs
    )
    _print_stats(stats)
    closed = analytic_errors(cfg, sampler.roi if hasattr(sampler, "roi") else None, mode)
    if closed["mean_abs_x"] is not None:
        print(
            f"closed-form: mean|ex|={closed['mean_abs_x']:.6f} "
            f"var|ex|={closed['var_abs_x']:.6f}"
        )
    if args.report:
        dataio.write_report([stats], args.format, args.report)
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
    formats ``value`` for the FAIL line.
    """
    rng = np.random.default_rng(seed)
    unit, pixel = Convention.UNIT_LENGTH, Convention.PIXEL_COUNT

    # Round trip through source -> input -> output -> source.
    worst = 0.0
    for convention in (unit, pixel):
        for _ in range(500):
            cfg = _random_planes(rng, convention)
            roi = Roi(
                cx=float(rng.uniform(-200, 800)),
                cy=float(rng.uniform(-200, 800)),
                w=float(rng.uniform(5, 500)),
                h=float(rng.uniform(5, 500)),
            )
            chain = compose(
                output_to_source(roi, cfg), compose(input_to_output(cfg), test_transform(roi, cfg))
            )
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
        cfg = PipelineConfig(
            convention=pixel,
            input=PlaneSize(4 * wop, 4 * int(rng.integers(8, 128))),
            output=PlaneSize(wop, int(rng.integers(8, 128))),
        )
        i2o = input_to_output(cfg)
        offset = compose(_flip_chain(cfg, i2o), invert(i2o)).m[0, 2]
        worst = max(worst, abs(offset - (1.0 - cfg.stride) / cfg.stride))
    yield "pixel-count flip offset equals (1-s)/s", worst, 0.0, 1e-9, "max={:.2e}"

    # Monte Carlo means for the remedies, at coordinate level.
    for comp, expect in (
        (Compensation.NONE, 0.375),
        (Compensation.SNOOP, 0.125),
        (Compensation.SNOOP_PLUS_EC, 0.0),
    ):
        cfg = _topdown(pixel, flip_test=True, compensation=comp, codec=Codec.ARGMAX_ONLY)
        mean = monte_carlo(cfg, OracleMode.ANALYTIC_SHIFT, 20000, seed).mean_abs_x
        name = f"flip remedy {comp.value}: mean |x error| = {expect}"
        yield name, mean, expect, 1e-3, "got {:.6f}"

    # Codec identities.
    dims = PlaneSize(48, 64)
    worst = _max_codec_error(
        rng, lambda k: decode_ccrf(encode_ccrf(k, dims, 3.0)), (0, 47), (0, 63)
    )
    yield "disc codec round trip is exact", worst, 0.0, 1e-12, "max={:.2e}"
    worst = _max_codec_error(
        rng, lambda k: decode_dark(encode_gaussian(k, dims, 2.0).c), (6, 41), (6, 57)
    )
    yield "one-step Newton decode recovers exact peaks", worst, 0.0, 1e-3, "max={:.2e}"

    # Quarter-shift decoder statistics on rendered maps.
    cfg = _topdown(unit, codec=Codec.CF_BIASED_DECODE)
    stats = monte_carlo(cfg, OracleMode.FULL_HEATMAP, 20000, seed)
    name = "quarter-shift decoder:"
    yield f"{name} mean |error| = 1/8", stats.mean_abs_x, 0.125, 5e-3, "got {:.6f}"
    yield f"{name} var |error| = 1/192", stats.var_abs_x, 1.0 / 192.0, 1.0 / 1920.0, "got {:.6f}"

    # Closed forms match their fixed constants (np.max keeps a NaN).
    errors = []
    for comp, mean, var in (
        (Compensation.SNOOP, 5.0 / 32.0, 37.0 / 3072.0),
        (Compensation.NONE, 3.0 / 8.0, 1.0 / 48.0),
    ):
        cfg = _topdown(pixel, flip_test=True, compensation=comp, codec=Codec.CF_BIASED_DECODE)
        closed = analytic_errors(cfg)
        errors += [abs(closed["mean_abs_x"] - mean), abs(closed["var_abs_x"] - var)]
    yield "closed-form table matches its constants", float(np.max(errors)), 0.0, 1e-12, ""


def cmd_verify(args) -> int:
    passed = total = 0
    for name, value, expected, tolerance, detail in _verify_checks(args.seed):
        ok = abs(value - expected) < tolerance
        tail = f"  ({detail.format(value)})" if detail and not ok else ""
        print(f"{'PASS' if ok else 'FAIL'}  {name}{tail}")
        passed += ok
        total += 1
    print(f"{passed}/{total} checks passed")
    return 0 if passed == total else 1


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------


def _topdown_presets() -> list[tuple[str, PipelineConfig]]:
    unit, pixel = Convention.UNIT_LENGTH, Convention.PIXEL_COUNT

    def cfg(conv, ft=False, comp=Compensation.NONE, codec=Codec.CF_BIASED_DECODE):
        return _topdown(conv, flip_test=ft, compensation=comp, codec=codec)

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
    mode = OracleMode(args.mode)
    rows = []
    for row_id, cfg in presets:
        stats = monte_carlo(
            cfg,
            mode,
            args.trials,
            args.seed,
            label=f"{row_id}:{biaslab.describe_config(cfg)}",
            jobs=args.jobs,
        )
        rows.append(stats)
        _print_stats(stats)
    if args.report:
        dataio.write_report(rows, args.format, args.report)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_simulate_flags(sp: argparse.ArgumentParser, require_seed: bool) -> None:
    sp.add_argument("--seed", type=int, required=require_seed, help="PRNG seed (required)")
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
    sp.add_argument("--sigma", type=float, default=2.0, help="gaussian sigma")
    sp.add_argument("--out", required=True, help="output textual grid path")
    sp.set_defaults(func=cmd_encode)

    sp = sub.add_parser("decode", help="decode a heatmap file back to a keypoint")
    sp.add_argument("--codec", choices=_CODEC_FLAGS, required=True)
    sp.add_argument("--heatmap", required=True, help="textual grid path")
    sp.add_argument("--radius", type=float, help="disc radius metadata for ccrf")
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
    sp.add_argument("--padding", type=float, default=1.25, help="crop padding for --coco")
    sp.add_argument("--label", default=None, help="row label in reports")
    _add_simulate_flags(sp, require_seed=True)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("verify", help="run the identity and closed-form check suite")
    sp.add_argument("--seed", type=int, default=20240001, help="PRNG seed")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("ablate", help="run a preset configuration grid")
    sp.add_argument("--preset", choices=("topdown", "bottomup"), required=True)
    _add_simulate_flags(sp, require_seed=True)
    sp.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError, OSError, dataio.MissingImageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
