import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from keypose import biaslab
from keypose.biaslab import (
    CocoKeypointSampler,
    ErrorStats,
    OracleMode,
    SkipTrial,
    SplitMix64,
    UniformKeypointSampler,
    analytic_errors,
    default_roi,
    ideal_network,
    monte_carlo,
    run_trial,
    substream,
)
from keypose.cli import _bottomup_presets, _print_stats, _topdown_presets
from keypose.codec import (
    CcrfTarget,
    GaussianTarget,
    NoDetectionError,
    OutOfBoundsError,
    decode_argmax,
    decode_biased_quarter,
    decode_ccrf,
    decode_dark,
    encode_ccrf,
    encode_gaussian,
)
from keypose.dataio import Instance, write_report
from keypose.geometry import (
    PlaneSize,
    Point,
    Roi,
    SingularTransformError,
    apply_point,
    invert,
    t_flip,
)
from keypose.pipeline import (
    Codec,
    Combine,
    Compensation,
    Convention,
    PipelineConfig,
    flip_combine,
    input_to_output,
    output_to_source,
    rno_upsample,
)
from keypose.pipeline import test_transform as source_to_input
from keypose.raster import ImageGrid, flip_heatmap

IN_SIZE = PlaneSize(192, 256)
OUT_SIZE = PlaneSize(48, 64)


# Two crop boxes; the keypoint at (400, 90) lies outside its padded crop,
# so the coco sampler also skips trials.
COCO_INSTANCES = (
    Instance(
        image_size=PlaneSize(640, 480),
        bbox=(100.0, 80.0, 120.0, 160.0),
        keypoints=((Point(160.0, 160.0), 2), (Point(130.0, 200.0), 1), (Point(400.0, 90.0), 2)),
    ),
    Instance(
        image_size=PlaneSize(640, 480),
        bbox=(300.0, 40.0, 90.0, 200.0),
        keypoints=((Point(330.5, 100.25), 2), (Point(371.0, 220.0), 2), (Point(0.0, 0.0), 0)),
    ),
)


def make_cfg(convention=Convention.UNIT_LENGTH, **kwargs) -> PipelineConfig:
    return PipelineConfig(convention=convention, input=IN_SIZE, output=OUT_SIZE, **kwargs)


def quarter_error_oracle(shift: float, n: int = 400_000) -> tuple[float, float]:
    """Numeric-quadrature oracle for the quarter-shift decoder error when the
    decoded map's center is offset by ``shift`` from the keypoint."""
    u = (np.arange(n) + 0.5) / n
    center = u + shift
    frac = center - np.floor(center)
    decoded = np.where(frac < 0.5, np.floor(center) + 0.25, np.floor(center) + 0.75)
    err = np.abs(decoded - u)
    return float(np.mean(err)), float(np.mean(err**2) - np.mean(err) ** 2)


class TestSplitMix:
    def test_deterministic_sequence(self):
        a = SplitMix64(123)
        b = SplitMix64(123)
        assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]

    def test_uniform_in_unit_interval(self):
        rng = SplitMix64(7)
        values = [rng.uniform() for _ in range(10_000)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert abs(np.mean(values) - 0.5) < 0.02

    def test_substreams_differ_and_are_reproducible(self):
        s0 = substream(42, 0).uniform()
        s1 = substream(42, 1).uniform()
        assert s0 != s1
        assert substream(42, 0).uniform() == s0

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, -1, 2**63, 2**64 + 5])
    def test_batch_draw_equals_substreams(self, seed, k):
        # The chunk engine draws with uint64 arrays; substream is the spec.
        for start, stop in ((0, 5), (biaslab._CHUNK - 7, biaslab._CHUNK + 9)):
            expected = [
                [rng.uniform() for _ in range(k)]
                for rng in (substream(seed, i) for i in range(start, stop))
            ]
            assert np.array_equal(biaslab._uniforms(seed, start, stop, k), np.array(expected))


class TestIdealNetwork:
    def test_analytic_returns_output_point(self):
        cfg = make_cfg()
        k_i = Point(95.5, 127.5)
        k_o = ideal_network(k_i, cfg, OracleMode.ANALYTIC_SHIFT)
        assert k_o.x == pytest.approx(95.5 * 47.0 / 191.0, abs=1e-12)

    def test_heatmap_renders_configured_codec(self):
        cfg = make_cfg(codec=Codec.CCRF)
        assert isinstance(ideal_network(Point(95.5, 127.5), cfg), CcrfTarget)
        cfg = make_cfg(codec=Codec.CF)
        assert isinstance(ideal_network(Point(95.5, 127.5), cfg), GaussianTarget)

    def test_out_of_plane_signals_skip(self):
        cfg = make_cfg()
        with pytest.raises(SkipTrial):
            ideal_network(Point(-1.0, 5.0), cfg, OracleMode.ANALYTIC_SHIFT)


class TestRunTrial:
    def test_record_round_trips_exactly_when_unbiased(self):
        cfg = make_cfg(codec=Codec.CCRF, flip_test=True)
        roi = default_roi(cfg)
        gt = Point(roi.cx + 3.7, roi.cy - 5.1)
        rec = run_trial(gt, roi, cfg, OracleMode.FULL_HEATMAP)
        assert rec.pred_source.x == pytest.approx(gt.x, abs=1e-9)
        assert rec.pred_source.y == pytest.approx(gt.y, abs=1e-9)
        assert rec.config == cfg

    @pytest.mark.parametrize("convention", list(Convention))
    @pytest.mark.parametrize("comp", list(Compensation))
    @pytest.mark.parametrize(
        "codec,mode",
        [
            (Codec.ARGMAX_ONLY, OracleMode.ANALYTIC_SHIFT),
            (Codec.CCRF, OracleMode.ANALYTIC_SHIFT),
            (Codec.CCRF, OracleMode.FULL_HEATMAP),
        ],
    )
    def test_engine_matches_flip_combine(self, convention, comp, codec, mode):
        # With decoders that add no quantization, the engine's flip ensemble
        # must equal the point-level statement of the remedies.
        cfg = make_cfg(convention=convention, flip_test=True, compensation=comp, codec=codec)
        roi = default_roi(cfg)
        i2o = input_to_output(cfg)
        flip_in = t_flip(cfg.input.width_units)
        for gt in (Point(roi.cx + 3.7, roi.cy - 5.1), Point(roi.cx - 20.25, roi.cy + 41.5)):
            k_i = apply_point(source_to_input(roi, cfg), gt)
            k_o = apply_point(i2o, k_i)
            k_o_flip = apply_point(i2o, apply_point(flip_in, k_i))
            expected = flip_combine(k_o, k_o_flip, cfg)
            got = run_trial(gt, roi, cfg, mode).pred_output
            assert got.x == pytest.approx(expected.x, abs=1e-12)
            assert got.y == pytest.approx(expected.y, abs=1e-12)

    def test_gt_outside_roi_skips(self):
        cfg = make_cfg()
        roi = default_roi(cfg)
        with pytest.raises(SkipTrial):
            run_trial(Point(roi.cx + roi.w, roi.cy), roi, cfg, OracleMode.ANALYTIC_SHIFT)

    @pytest.mark.parametrize("dx,dy", [(-1.0, 0.0), (0.0, -1.0), (0.0, 1.0)],
                             ids=["left", "top", "bottom"])
    @pytest.mark.parametrize("mode", list(OracleMode))
    def test_gt_past_other_edges_skips(self, dx, dy, mode):
        cfg = make_cfg()
        roi = default_roi(cfg)
        with pytest.raises(SkipTrial):
            run_trial(Point(roi.cx + dx * roi.w, roi.cy + dy * roi.h), roi, cfg, mode)


class TestDeterminism:
    def test_same_arguments_same_stats(self):
        cfg = make_cfg(
            convention=Convention.PIXEL_COUNT,
            flip_test=True,
            compensation=Compensation.SNOOP,
            codec=Codec.CF_BIASED_DECODE,
        )
        a = monte_carlo(cfg, OracleMode.ANALYTIC_SHIFT, 5000, 9)
        b = monte_carlo(cfg, OracleMode.ANALYTIC_SHIFT, 5000, 9)
        assert a == b

    @pytest.mark.parametrize(
        "mode,cfg,sampler,n",
        [
            (OracleMode.ANALYTIC_SHIFT, make_cfg(flip_test=True, codec=Codec.CF), None, 9000),
            (
                OracleMode.FULL_HEATMAP,
                PipelineConfig(
                    convention=Convention.PIXEL_COUNT,
                    input=PlaneSize(32, 32),
                    output=PlaneSize(16, 16),
                    flip_test=True,
                    codec=Codec.CF,
                    rno=True,
                ),
                None,
                4500,  # two chunks
            ),
            (
                OracleMode.ANALYTIC_SHIFT,
                make_cfg(convention=Convention.PIXEL_COUNT, flip_test=True, codec=Codec.CF),
                CocoKeypointSampler(instances=COCO_INSTANCES),
                9000,
            ),
        ],
        ids=["analytic", "heatmap-rno", "coco"],
    )
    def test_worker_count_does_not_change_results(self, mode, cfg, sampler, n):
        one = monte_carlo(cfg, mode, n, 11, sampler, jobs=1)
        three = monte_carlo(cfg, mode, n, 11, sampler, jobs=3)
        assert one == three

    def test_different_seed_changes_draws(self):
        cfg = make_cfg(codec=Codec.CF_BIASED_DECODE)
        a = monte_carlo(cfg, OracleMode.ANALYTIC_SHIFT, 2000, 1)
        b = monte_carlo(cfg, OracleMode.ANALYTIC_SHIFT, 2000, 2)
        assert a.mean_abs_x != b.mean_abs_x


class TestUnbiasedConfigurations:
    @pytest.mark.parametrize("mode", [OracleMode.ANALYTIC_SHIFT, OracleMode.FULL_HEATMAP])
    def test_unit_ccrf_flip_recovers_exactly(self, mode):
        cfg = make_cfg(codec=Codec.CCRF, flip_test=True)
        n = 3000 if mode is OracleMode.ANALYTIC_SHIFT else 800
        stats = monte_carlo(cfg, mode, n, 17)
        assert stats.mean_abs_x < 1e-9
        assert stats.mean_abs_y < 1e-9
        assert stats.mean_abs_x_source < 1e-9
        assert stats.n_skipped == 0
        assert stats.n_decode_failed == 0

    def test_pixel_count_without_flip_is_still_unbiased(self):
        cfg = make_cfg(convention=Convention.PIXEL_COUNT, codec=Codec.CCRF)
        stats = monte_carlo(cfg, OracleMode.FULL_HEATMAP, 500, 19)
        assert stats.mean_abs_x < 1e-9

    @pytest.mark.parametrize(
        "comp,expected",
        [
            (Compensation.NONE, 0.375),
            (Compensation.SNOOP, 0.125),
            (Compensation.SNOOP_PLUS_EC, 0.0),
        ],
    )
    def test_ccrf_heatmap_averaging_matches_coordinate_algebra(self, comp, expected):
        # Averaged disc maps decode to the midpoint of the branch keypoints
        # wherever the discs overlap, so the non-default combine reproduces
        # the coordinate-level error exactly.
        cfg = make_cfg(
            convention=Convention.PIXEL_COUNT,
            flip_test=True,
            compensation=comp,
            codec=Codec.CCRF,
            combine=Combine.AVERAGE_HEATMAPS,
        )
        stats = monte_carlo(cfg, OracleMode.FULL_HEATMAP, 400, 77)
        assert stats.mean_abs_x == pytest.approx(expected, abs=1e-9)


class TestBiasedConfigurations:
    def test_flip_without_compensation_pixel_count(self):
        cfg = make_cfg(
            convention=Convention.PIXEL_COUNT, flip_test=True, codec=Codec.ARGMAX_ONLY
        )
        stats = monte_carlo(cfg, OracleMode.ANALYTIC_SHIFT, 4000, 23)
        assert stats.mean_abs_x == pytest.approx(0.375, abs=1e-9)
        assert stats.var_abs_x == pytest.approx(0.0, abs=1e-18)

    def test_snoop_residual_and_extra_compensation(self):
        base = dict(
            convention=Convention.PIXEL_COUNT, flip_test=True, codec=Codec.ARGMAX_ONLY
        )
        snoop = monte_carlo(
            make_cfg(compensation=Compensation.SNOOP, **base),
            OracleMode.ANALYTIC_SHIFT, 4000, 29,
        )
        assert snoop.mean_abs_x == pytest.approx(0.125, abs=1e-9)
        ec = monte_carlo(
            make_cfg(compensation=Compensation.SNOOP_PLUS_EC, **base),
            OracleMode.ANALYTIC_SHIFT, 4000, 29,
        )
        assert ec.mean_abs_x < 1e-9

    def test_quarter_decode_statistics_against_quadrature_oracle(self):
        mean_o, var_o = quarter_error_oracle(0.0)
        assert mean_o == pytest.approx(1.0 / 8.0, abs=1e-6)
        assert var_o == pytest.approx(1.0 / 192.0, abs=1e-6)
        cfg = make_cfg(codec=Codec.CF_BIASED_DECODE)
        stats = monte_carlo(cfg, OracleMode.FULL_HEATMAP, 30_000, 31)
        assert stats.mean_abs_x == pytest.approx(mean_o, abs=0.005)
        assert stats.var_abs_x == pytest.approx(var_o, abs=0.001)

    def test_joint_with_snoop_matches_closed_form(self):
        cfg = make_cfg(
            convention=Convention.PIXEL_COUNT,
            flip_test=True,
            compensation=Compensation.SNOOP,
            codec=Codec.CF_BIASED_DECODE,
        )
        mean_o, var_o = quarter_error_oracle(1.0 / 8.0)
        assert mean_o == pytest.approx(5.0 / 32.0, abs=1e-6)
        assert var_o == pytest.approx(37.0 / 3072.0, abs=1e-6)
        stats = monte_carlo(cfg, OracleMode.ANALYTIC_SHIFT, 100_000, 37)
        assert stats.mean_abs_x == pytest.approx(5.0 / 32.0, abs=1e-3)
        assert stats.var_abs_x == pytest.approx(37.0 / 3072.0, abs=1e-3)

    def test_joint_without_snoop_matches_closed_form(self):
        cfg = make_cfg(
            convention=Convention.PIXEL_COUNT,
            flip_test=True,
            codec=Codec.CF_BIASED_DECODE,
        )
        mean_o, var_o = quarter_error_oracle(-3.0 / 8.0)
        assert mean_o == pytest.approx(3.0 / 8.0, abs=1e-6)
        assert var_o == pytest.approx(1.0 / 48.0, abs=1e-6)
        stats = monte_carlo(cfg, OracleMode.ANALYTIC_SHIFT, 100_000, 41)
        assert stats.mean_abs_x == pytest.approx(3.0 / 8.0, abs=1e-3)
        assert stats.var_abs_x == pytest.approx(1.0 / 48.0, abs=1e-3)

    def test_analytic_and_heatmap_modes_agree_for_quarter_decode(self):
        cfg = make_cfg(
            convention=Convention.PIXEL_COUNT,
            flip_test=True,
            compensation=Compensation.SNOOP,
            codec=Codec.CF_BIASED_DECODE,
        )
        analytic = monte_carlo(cfg, OracleMode.ANALYTIC_SHIFT, 20_000, 43)
        heatmap = monte_carlo(cfg, OracleMode.FULL_HEATMAP, 20_000, 43)
        assert abs(analytic.mean_abs_x - heatmap.mean_abs_x) < 0.02

    def test_resolution_doubling_halves_source_error(self):
        roi = Roi(128.0, 128.0, 96.0, 128.0)
        base = dict(
            convention=Convention.PIXEL_COUNT,
            flip_test=True,
            compensation=Compensation.SNOOP,
            codec=Codec.CF,
        )
        lo = PipelineConfig(input=PlaneSize(192, 256), output=PlaneSize(48, 64), **base)
        hi = PipelineConfig(input=PlaneSize(384, 512), output=PlaneSize(96, 128), **base)
        s_lo = monte_carlo(lo, OracleMode.ANALYTIC_SHIFT, 4000, 47, UniformKeypointSampler(roi))
        s_hi = monte_carlo(hi, OracleMode.ANALYTIC_SHIFT, 4000, 47, UniformKeypointSampler(roi))
        assert s_lo.mean_abs_x_source == pytest.approx(roi.w / (2.0 * 192.0), abs=1e-9)
        assert s_lo.mean_abs_x_source / s_hi.mean_abs_x_source == pytest.approx(2.0, abs=1e-9)


class TestAnalyticErrorTable:
    def test_identity_codec_rows(self):
        roi = Roi(100.0, 100.0, 96.0, 128.0)
        cfg = make_cfg(convention=Convention.PIXEL_COUNT, flip_test=True, codec=Codec.CF)
        table = analytic_errors(cfg, roi)
        assert table["mean_abs_x"] == pytest.approx(0.375)
        assert table["var_abs_x"] == 0.0
        assert table["mean_abs_x_source"] == pytest.approx(0.375 * 96.0 / 48.0)

        snoop = make_cfg(
            convention=Convention.PIXEL_COUNT,
            flip_test=True,
            compensation=Compensation.SNOOP,
            codec=Codec.CF,
        )
        table = analytic_errors(snoop, roi)
        assert table["mean_abs_x"] == pytest.approx(0.125)
        assert table["mean_abs_x_source"] == pytest.approx(96.0 / (2.0 * 192.0))

    def test_quarter_decode_rows_match_constants(self):
        plain = analytic_errors(make_cfg(codec=Codec.CF_BIASED_DECODE))
        assert plain["mean_abs_x"] == pytest.approx(1.0 / 8.0)
        assert plain["var_abs_x"] == pytest.approx(1.0 / 192.0)

        snoop = analytic_errors(
            make_cfg(
                convention=Convention.PIXEL_COUNT,
                flip_test=True,
                compensation=Compensation.SNOOP,
                codec=Codec.CF_BIASED_DECODE,
            )
        )
        assert snoop["mean_abs_x"] == pytest.approx(5.0 / 32.0)
        assert snoop["var_abs_x"] == pytest.approx(37.0 / 3072.0)

        none = analytic_errors(
            make_cfg(
                convention=Convention.PIXEL_COUNT,
                flip_test=True,
                codec=Codec.CF_BIASED_DECODE,
            )
        )
        assert none["mean_abs_x"] == pytest.approx(3.0 / 8.0)
        assert none["var_abs_x"] == pytest.approx(1.0 / 48.0)

    @pytest.mark.parametrize("radius,exact",
                             [(0.8, False), (0.99, False), (1.02, True), (3.0, True)])
    def test_averaged_disc_maps_have_a_closed_form_only_where_the_discs_share_a_node(
        self, radius, exact
    ):
        # The branches are 0.75 apart, so the discs share a node wherever they
        # fall iff r^2 > 0.875^2 + 0.25, i.e. r > 1.0078; elsewhere a map
        # can peak in one disc only, away from the midpoint.
        cfg = make_cfg(convention=Convention.PIXEL_COUNT, flip_test=True, codec=Codec.CCRF,
                       combine=Combine.AVERAGE_HEATMAPS, radius=radius)
        rendered = monte_carlo(cfg, OracleMode.FULL_HEATMAP, 4000, 3).mean_abs_x
        closed = analytic_errors(cfg, mode=OracleMode.FULL_HEATMAP)["mean_abs_x"]
        assert analytic_errors(cfg)["mean_abs_x"] == pytest.approx(0.375)
        if exact:
            assert closed == pytest.approx(0.375)
            assert rendered == pytest.approx(0.375, abs=1e-12)
        else:
            assert closed is None
            assert rendered > 0.375 + 1e-4

    @pytest.mark.parametrize("combine,sigma,exact", [
        (Combine.AVERAGE_HEATMAPS, 0.5, False), (Combine.AVERAGE_HEATMAPS, 2.0, False),
        (Combine.AVERAGE_COORDS, 0.5, True), (Combine.AVERAGE_COORDS, 2.0, True)])
    def test_gaussian_maps_have_a_closed_form_only_where_no_two_apart_are_averaged(
        self, combine, sigma, exact
    ):
        # A Newton step on the average of two Gaussians 0.75 apart does not
        # land on their midpoint; averaging the decoded coordinates does.
        cfg = make_cfg(convention=Convention.PIXEL_COUNT, flip_test=True, codec=Codec.CF,
                       combine=combine, sigma=sigma)
        rendered = monte_carlo(cfg, OracleMode.FULL_HEATMAP, 4000, 3)
        closed = analytic_errors(cfg, mode=OracleMode.FULL_HEATMAP)
        if exact:
            assert (closed["mean_abs_x"], closed["var_abs_x"]) == (0.375, 0.0)
            assert rendered.mean_abs_x == pytest.approx(0.375, abs=1e-12)
            assert rendered.var_abs_x < 1e-20
        else:
            assert closed["mean_abs_x"] is None
            assert rendered.var_abs_x > 1e-12

    @pytest.mark.parametrize("sigma,exact", [(0.05, False), (0.0565, True), (0.5, True)])
    def test_gaussian_maps_have_a_closed_form_only_while_the_window_holds_normal_floats(
        self, sigma, exact
    ):
        # The 3x3 window corner, d^2 = 4.5 from the keypoint, is subnormal
        # or zero below sigma = sqrt(4.5 / (2 * 1022 ln 2)) ~ 0.05636.
        cfg = make_cfg(codec=Codec.CF, sigma=sigma)
        sampler = UniformKeypointSampler(default_roi(cfg), margin=3.0)
        rendered = monte_carlo(cfg, OracleMode.FULL_HEATMAP, 4000, 1, sampler)
        closed = analytic_errors(cfg, mode=OracleMode.FULL_HEATMAP)["mean_abs_x"]
        if exact:
            assert closed == 0.0
            assert rendered.mean_abs_x < 1e-12
        else:
            assert closed is None
            assert rendered.n_degenerate > 0 and rendered.mean_abs_x > 0.01

    def test_gaussian_closed_form_ends_where_the_window_corner_leaves_the_normal_range(self):
        bound = math.sqrt(4.5 / (2.0 * 1022 * math.log(2.0)))
        assert math.exp(-4.5 / (2.0 * bound * bound)) == pytest.approx(2.0 ** -1022)
        for sigma, closed in ((bound, 0.0), (math.nextafter(bound, 0.0), None)):
            cfg = make_cfg(codec=Codec.CF, sigma=sigma)
            assert analytic_errors(cfg, mode=OracleMode.FULL_HEATMAP)["mean_abs_x"] == closed

    def test_unanalyzed_configurations_marked_unavailable(self):
        rno = analytic_errors(make_cfg(codec=Codec.CF, rno=True))
        assert rno["mean_abs_x"] is None
        coords = analytic_errors(
            make_cfg(
                convention=Convention.PIXEL_COUNT,
                flip_test=True,
                codec=Codec.CF_BIASED_DECODE,
                combine=Combine.AVERAGE_COORDS,
            )
        )
        assert coords["mean_abs_x"] is None


class TestFailureAccounting:
    def test_tiny_disc_radius_counts_decode_failures(self):
        # A disc smaller than the node spacing misses every node for most
        # sub-pixel keypoints; those trials must be excluded and counted.
        cfg = make_cfg(codec=Codec.CCRF, radius=0.3)
        sampler = UniformKeypointSampler(default_roi(cfg), margin=2.0)
        stats = monte_carlo(cfg, OracleMode.FULL_HEATMAP, 400, 53, sampler)
        assert stats.n_decode_failed > 0
        assert stats.n_trials + stats.n_decode_failed + stats.n_skipped == 400
        assert stats.mean_abs_x < 1e-9  # surviving trials decode exactly

    def test_default_sampler_produces_no_failures(self):
        for codec in (Codec.CCRF, Codec.CF, Codec.CF_BIASED_DECODE):
            cfg = make_cfg(codec=codec, flip_test=True)
            stats = monte_carlo(cfg, OracleMode.FULL_HEATMAP, 300, 59)
            assert stats.n_skipped == 0
            assert stats.n_decode_failed == 0

    def test_flipped_branch_off_the_output_plane_skips_rendered_maps_only(self):
        # Pixel-count 192x256 -> 48x64 maps input x to output x/4, so the
        # flip of input x = 0 lands at output 191/4 = 47.75, past the
        # plane's 47 units.  Peaks need no plane; rendered maps do.
        cfg = make_cfg(convention=Convention.PIXEL_COUNT, flip_test=True, codec=Codec.CF)
        roi = default_roi(cfg)
        i2o, s2i = input_to_output(cfg), source_to_input(roi, cfg)
        assert apply_point(i2o, Point(cfg.input.width_units, 0.0)).x == 47.75
        gt = apply_point(invert(s2i), Point(0.0, 100.0))
        assert run_trial(gt, roi, cfg, OracleMode.ANALYTIC_SHIFT).pred_output.x == -0.375
        with pytest.raises(SkipTrial):
            run_trial(gt, roi, cfg, OracleMode.FULL_HEATMAP)

        # Over the whole output plane, exactly the trials whose flipped
        # branch leaves it are skipped, and none counts as a decode failure.
        n, seed = 2000, 71
        sampler = UniformKeypointSampler(roi, margin=0.0)
        bound = sampler.bind(cfg)
        off_plane = 0
        for i in range(n):
            _, gx, gy = bound.draw(substream(seed, i))
            k_i = apply_point(s2i, Point(gx, gy))
            off_plane += apply_point(i2o, Point(cfg.input.width_units - k_i.x, k_i.y)).x > 47.0
        assert off_plane > 0
        analytic = monte_carlo(cfg, OracleMode.ANALYTIC_SHIFT, n, seed, sampler)
        heatmap = monte_carlo(cfg, OracleMode.FULL_HEATMAP, n, seed, sampler)
        assert (analytic.n_skipped, analytic.n_decode_failed) == (0, 0)
        assert (heatmap.n_skipped, heatmap.n_decode_failed) == (off_plane, 0)

    def test_rno_degrades_dark_decode(self):
        # Bilinear upsampling bends the map's value distribution, so the
        # curvature-based refinement loses its exactness.
        plain = monte_carlo(make_cfg(codec=Codec.CF), OracleMode.FULL_HEATMAP, 100, 61)
        upsampled = monte_carlo(
            make_cfg(codec=Codec.CF, rno=True), OracleMode.FULL_HEATMAP, 100, 61
        )
        assert plain.mean_abs_x < 1e-6
        assert upsampled.mean_abs_x > 0.05


class TestCocoSampler:
    def test_draws_visible_keypoints_from_instances(self):
        image = PlaneSize(640, 480)
        instances = (
            Instance(
                image_size=image,
                bbox=(100.0, 80.0, 120.0, 160.0),
                keypoints=(
                    (Point(160.0, 160.0), 2),
                    (Point(130.0, 200.0), 1),
                    (Point(0.0, 0.0), 0),
                ),
            ),
        )
        cfg = make_cfg(codec=Codec.CCRF)
        sampler = CocoKeypointSampler(instances=instances, padding=1.25)
        stats = monte_carlo(cfg, OracleMode.ANALYTIC_SHIFT, 500, 67, sampler)
        assert stats.n_trials + stats.n_skipped == 500
        assert stats.mean_abs_x < 1e-9

    def test_one_crop_box_per_instance(self):
        bound = CocoKeypointSampler(instances=COCO_INSTANCES).bind(make_cfg())
        assert len(bound.rois) == len(COCO_INSTANCES)
        draws = {bound.draw(substream(5, i)) for i in range(200)}
        assert {idx for idx, _, _ in draws} == {0, 1}
        # Instance 1's invisible keypoint at (0, 0) is never drawn.
        assert {(x, y) for idx, x, y in draws if idx == 1} == {(330.5, 100.25), (371.0, 220.0)}

    def test_draw_follows_the_sampling_law(self):
        # One uniform per trial picks entry int(u * E) of the visible
        # (instance, keypoint) pairs in annotation order.
        entries = [(i, p.x, p.y) for i, inst in enumerate(COCO_INSTANCES)
                   for p, visibility in inst.keypoints if visibility > 0]
        bound = CocoKeypointSampler(instances=COCO_INSTANCES).bind(make_cfg())
        for i in range(300):
            u = substream(8, i).uniform()
            assert bound.draw(substream(8, i)) == entries[int(u * len(entries))]

    @pytest.mark.parametrize("rno", [False, True])
    def test_crop_box_context_built_once_per_run(self, monkeypatch, rno):
        # The crop-box table is one array pass per run, shared by both
        # chunks; no box goes through a Roi or the pipeline transform chain.
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(biaslab._Engine, "contexts",
                            counting("contexts", biaslab._Engine.contexts))
        for name in ("test_transform", "output_to_source", "Roi"):
            monkeypatch.setattr(biaslab, name, counting(name, getattr(biaslab, name)))
        cfg = make_cfg(convention=Convention.PIXEL_COUNT, flip_test=True, codec=Codec.CF, rno=rno)
        sampler = CocoKeypointSampler(instances=COCO_INSTANCES)
        stats = monte_carlo(cfg, OracleMode.ANALYTIC_SHIFT, 4500, 11, sampler)  # two chunks
        assert calls == ["contexts"]
        monkeypatch.undo()
        assert stats == monte_carlo(cfg, OracleMode.ANALYTIC_SHIFT, 4500, 11, sampler)

    def test_no_visible_keypoints_rejected(self):
        inst = Instance(
            image_size=PlaneSize(64, 64),
            bbox=(10.0, 10.0, 20.0, 20.0),
            keypoints=((Point(15.0, 15.0), 0),),
        )
        cfg = make_cfg()
        with pytest.raises(ValueError):
            CocoKeypointSampler(instances=(inst,)).bind(cfg)


def test_uniform_sampler_follows_the_sampling_law():
    # Two uniforms per trial place the keypoint on the output plane inset by
    # the margin; it is then mapped to the source plane.
    cfg = make_cfg(convention=Convention.PIXEL_COUNT)
    roi = Roi(100.0, 90.0, 96.0, 128.0)
    bound = UniformKeypointSampler(roi, margin=2.5).bind(cfg)
    o2s = output_to_source(roi, cfg)
    for i in range(300):
        rng = substream(9, i)
        kx = 2.5 + rng.uniform() * (cfg.output.width_units - 5.0)
        ky = 2.5 + rng.uniform() * (cfg.output.height_units - 5.0)
        gt = apply_point(o2s, Point(kx, ky))
        assert bound.draw(substream(9, i)) == (0, gt.x, gt.y)


@pytest.mark.parametrize("margin", [float("nan"), float("inf"), float("-inf")])
def test_uniform_sampler_refuses_a_non_finite_margin(margin):
    cfg = make_cfg()
    with pytest.raises(ValueError, match=f"margin must be finite, got {margin}"):
        UniformKeypointSampler(default_roi(cfg), margin=margin).bind(cfg)


def _scalar_monte_carlo(cfg, mode, n, seed, sampler):
    """Specification of ``monte_carlo``: trial by trial through ``substream``,
    ``draw`` and ``run_trial``, aggregated with fsum."""
    bound = sampler.bind(cfg)
    i2o = input_to_output(cfg)
    ex, ey, esx = [], [], []
    skipped = failed = degenerate = 0
    for i in range(n):
        idx, gx, gy = bound.draw(substream(seed, i))
        roi, gt = bound.rois[idx], Point(gx, gy)
        try:
            rec = run_trial(gt, roi, cfg, mode)
        except SkipTrial:
            skipped += 1
            continue
        except NoDetectionError:
            failed += 1
            continue
        k_o = apply_point(i2o, apply_point(source_to_input(roi, cfg), gt))
        ex.append(abs(rec.pred_output.x - k_o.x))
        ey.append(abs(rec.pred_output.y - k_o.y))
        esx.append(abs(rec.pred_source.x - gx))
        degenerate += rec.degenerate
    used = len(ex)
    return {
        "counts": (used, skipped, failed, degenerate),
        "means": (math.fsum(ex) / used, math.fsum(ey) / used, math.fsum(esx) / used),
        "vars": (np.var(ex, ddof=1), np.var(ey, ddof=1)),
    }


def _preset_cases():
    for preset, rows in (("topdown", _topdown_presets()), ("bottomup", _bottomup_presets())):
        for row_id, cfg in rows:
            yield pytest.param(cfg, OracleMode.ANALYTIC_SHIFT, 300, None,
                               id=f"{preset}-{row_id}-analytic")
            yield pytest.param(cfg, OracleMode.FULL_HEATMAP, 24 if preset == "topdown" else 6,
                               None, id=f"{preset}-{row_id}-heatmap")
    quarter = make_cfg(convention=Convention.PIXEL_COUNT, flip_test=True,
                       compensation=Compensation.SNOOP, codec=Codec.CF_BIASED_DECODE)
    yield pytest.param(quarter, OracleMode.ANALYTIC_SHIFT, biaslab._CHUNK + 300, None,
                       id="two-chunks")
    coco = make_cfg(convention=Convention.PIXEL_COUNT, flip_test=True, codec=Codec.CF)
    sampler = CocoKeypointSampler(instances=COCO_INSTANCES)
    yield pytest.param(coco, OracleMode.ANALYTIC_SHIFT, 400, sampler, id="coco-analytic")
    yield pytest.param(coco, OracleMode.FULL_HEATMAP, 60, sampler, id="coco-heatmap")
    tiny = make_cfg(codec=Codec.CCRF, radius=0.3)  # decode failures
    yield pytest.param(tiny, OracleMode.FULL_HEATMAP, 60,
                       UniformKeypointSampler(default_roi(tiny), margin=2.0), id="tiny-disc")
    border = make_cfg(codec=Codec.CF, flip_test=True)  # peaks on the border: degenerate
    yield pytest.param(border, OracleMode.FULL_HEATMAP, 60,
                       UniformKeypointSampler(default_roi(border), margin=0.0), id="border")


class TestBatchEngine:
    @pytest.mark.parametrize("cfg,mode,n,sampler", _preset_cases())
    def test_matches_scalar_trials(self, cfg, mode, n, sampler):
        sampler = sampler or UniformKeypointSampler(default_roi(cfg))
        stats = monte_carlo(cfg, mode, n, 901, sampler)
        spec = _scalar_monte_carlo(cfg, mode, n, 901, sampler)
        assert (stats.n_trials, stats.n_skipped, stats.n_decode_failed,
                stats.n_degenerate) == spec["counts"]
        means = (stats.mean_abs_x, stats.mean_abs_y, stats.mean_abs_x_source)
        assert means == pytest.approx(spec["means"], abs=1e-12)
        assert (stats.var_abs_x, stats.var_abs_y) == pytest.approx(spec["vars"], abs=1e-12)

    def test_differential_cases_reach_every_outcome(self):
        # Guards the case list above: skips, failures and degenerate decodes
        # all occur somewhere in it.
        coco = monte_carlo(make_cfg(flip_test=True, codec=Codec.CF), OracleMode.ANALYTIC_SHIFT,
                           400, 901, CocoKeypointSampler(instances=COCO_INSTANCES))
        tiny = make_cfg(codec=Codec.CCRF, radius=0.3)
        failed = monte_carlo(tiny, OracleMode.FULL_HEATMAP, 60, 901,
                             UniformKeypointSampler(default_roi(tiny), margin=2.0))
        border = make_cfg(codec=Codec.CF, flip_test=True)
        degenerate = monte_carlo(border, OracleMode.FULL_HEATMAP, 60, 901,
                                 UniformKeypointSampler(default_roi(border), margin=0.0))
        assert coco.n_skipped > 0
        assert failed.n_decode_failed > 0
        assert degenerate.n_degenerate > 0


def _chain_table(cfg, boxes):
    """The crop-box table through the scalar chain: a Roi for every box,
    then each box's ``test_transform`` and ``invert`` (rno) or
    ``output_to_source``."""
    rois = [Roi(*column) for column in boxes.T.tolist()]
    columns = []
    for roi in rois:
        s2i = source_to_input(roi, cfg)
        dp2s = invert(s2i) if cfg.rno else output_to_source(roi, cfg)
        columns.append(np.concatenate((s2i.m[:2].ravel(), dp2s.m[:2].ravel())))
    return np.array(columns).T


@st.composite
def _crop_box_arrays(draw):
    """``(4, R)`` boxes; some centers put a crop corner exactly at 0, or are
    -0, so that signed zeros occur in the table."""
    columns = []
    for _ in range(draw(st.integers(1, 6))):
        w, h = (draw(st.floats(1e-3, 1e4)) for _ in range(2))
        cx, cy = (draw(st.one_of(st.floats(-1e4, 1e4), st.just(0.5 * extent), st.just(-0.0)))
                  for extent in (w, h))
        columns.append((cx, cy, w, h))
    return np.array(columns).T


class TestCropBoxTable:
    @settings(max_examples=300, deadline=None)
    @given(boxes=_crop_box_arrays(), convention=st.sampled_from(Convention), rno=st.booleans())
    def test_equals_the_scalar_chain_bit_for_bit(self, boxes, convention, rno):
        cfg = make_cfg(convention=convention, codec=Codec.CF, rno=rno)
        got = biaslab._Engine(cfg, OracleMode.ANALYTIC_SHIFT).contexts(boxes)
        want = _chain_table(cfg, boxes)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("rno", [False, True])
    @pytest.mark.parametrize("columns", [
        [(100.0, 100.0, 1e200, 1e200)],  # singular under rno (det=0.0)
        [(100.0, 100.0, 1e9, 1e9)],  # singular under rno (tiny det)
        [(50.0, 50.0, 10.0, 10.0), (math.nan, 0.0, 10.0, 10.0)],
        [(math.inf, 0.0, 10.0, 10.0)],
        [(50.0, 50.0, 10.0, 10.0), (0.0, 0.0, 0.0, 10.0)],
        [(50.0, 50.0, 10.0, 10.0), (0.0, 0.0, 1e-320, 10.0)],  # scale overflows
        [(-1.7e308, 0.0, 1.7e308, 10.0)],  # translation overflows
        [(0.0, 0.0, 1e-320, 10.0), (math.nan, 0.0, 10.0, 10.0)],  # roi checks come first
        [(0.0, 0.0, 1e-320, 10.0), (0.0, 0.0, 1e200, 1e200)],
        [(50.0, 50.0, 10.0, 10.0), (0.0, 0.0, 1e9, 1e9), (0.0, 0.0, 1e200, 1e200)],
        [(0.0, 0.0, 0.0, 10.0), (0.0, 0.0, -1.0, 10.0)],
    ])
    def test_rejects_a_box_as_the_scalar_chain_does(self, rno, columns):
        # Each check runs in the chain's order and names the first box that
        # fails it, so a box that fails alone gets the chain's error.
        cfg = make_cfg(codec=Codec.CF, rno=rno)
        boxes = np.array(columns).T
        try:
            want = _chain_table(cfg, boxes)
        except ValueError as exc:
            with pytest.raises(type(exc)) as got:
                biaslab._Engine(cfg, OracleMode.ANALYTIC_SHIFT).contexts(boxes)
            assert type(got.value) is type(exc)
            assert str(got.value) == str(exc)
        else:
            got = biaslab._Engine(cfg, OracleMode.ANALYTIC_SHIFT).contexts(boxes)
            assert np.array_equal(got, want)

    def test_singular_box_message_under_rno(self):
        cfg = make_cfg(codec=Codec.CF, rno=True)
        boxes = np.array([[100.0], [100.0], [1e200], [1e200]])
        with pytest.raises(SingularTransformError, match=r"^transform is singular \(det=0\.0\)$"):
            biaslab._Engine(cfg, OracleMode.ANALYTIC_SHIFT).contexts(boxes)


def _shift_one_node(grid: ImageGrid) -> ImageGrid:
    """Move every column one node in +x; column 0 becomes zero."""
    data = np.zeros_like(grid.data)
    data[:, 1:] = grid.data[:, :-1]
    return ImageGrid(grid.size, data)


def _chain_2d(k_i: Point, cfg: PipelineConfig) -> tuple[Point, bool]:
    """Output-plane prediction and degenerate flag of one test pass, built
    from the public 2-D codec functions alone.

    Raises :class:`OutOfBoundsError` when a branch's keypoint leaves the
    output plane and :class:`NoDetectionError` when a disc map is empty.
    """
    i2o = input_to_output(cfg)
    ccrf = cfg.codec is Codec.CCRF
    keypoints = [apply_point(i2o, k_i)]
    if cfg.flip_test:
        keypoints.append(apply_point(i2o, Point(cfg.input.width_units - k_i.x, k_i.y)))
    if ccrf:
        targets = (encode_ccrf(k, cfg.output, cfg.radius) for k in keypoints)
        maps = [(t.c, t.x_off, t.y_off) for t in targets]
    else:
        maps = [(encode_gaussian(k, cfg.output, cfg.sigma).c,) for k in keypoints]

    def decode(grids):
        if ccrf:
            return decode_ccrf(CcrfTarget(*grids, radius=cfg.radius))
        decoder = {Codec.CF: decode_dark, Codec.CF_BIASED_DECODE: decode_biased_quarter,
                   Codec.ARGMAX_ONLY: decode_argmax}[cfg.codec]
        return decoder(rno_upsample(grids[0], cfg) if cfg.rno else grids[0])

    if not cfg.flip_test:
        result = decode(maps[0])
        k, degenerate = result.k, result.degenerate
    elif cfg.combine is Combine.AVERAGE_COORDS:
        a, b = decode(maps[0]), decode(maps[1])
        k, degenerate = flip_combine(a.k, b.k, cfg), a.degenerate or b.degenerate
    else:
        back = [flip_heatmap(g) for g in maps[1]]
        if ccrf:
            back[1] = ImageGrid(cfg.output, -back[1].data)
        if cfg.compensation is not Compensation.NONE:
            back = [_shift_one_node(g) for g in back]
        averaged = [ImageGrid(g.size, 0.5 * (g.data + h.data)) for g, h in zip(maps[0], back)]
        result = decode(averaged)
        k, degenerate = result.k, result.degenerate
        if cfg.compensation is Compensation.SNOOP_PLUS_EC:
            # 1/(2s) output units, in the units of the decode plane.
            scale = i2o.m[0, 0] if cfg.rno else 1.0
            k = Point(k.x - 1.0 / (2.0 * cfg.stride) / scale, k.y)
    return (apply_point(i2o, k) if cfg.rno else k), degenerate


def _oracle_cases():
    for preset, rows in (("topdown", _topdown_presets()), ("bottomup", _bottomup_presets())):
        for row_id, cfg in rows:
            yield pytest.param(cfg, None, set(), id=f"{preset}-{row_id}")
    snoop = make_cfg(convention=Convention.PIXEL_COUNT, flip_test=True, codec=Codec.CCRF,
                     compensation=Compensation.SNOOP, combine=Combine.AVERAGE_HEATMAPS)
    yield pytest.param(snoop, None, set(), id="ccrf-average-heatmaps-snoop")
    yield pytest.param(make_cfg(codec=Codec.CCRF, radius=0.3), 2.0, {"failed"}, id="tiny-disc")
    border = make_cfg(convention=Convention.PIXEL_COUNT, flip_test=True, codec=Codec.CF)
    yield pytest.param(border, 0.0, {"skipped", "degenerate"}, id="margin-0")


@pytest.mark.parametrize("cfg,margin,reaches", _oracle_cases())
def test_rendered_oracle_equals_the_public_2d_chain(cfg, margin, reaches):
    # The batch engine's heatmap step (private array helpers) against the
    # reference chain: encode, mirror, shift, average, upsample, decode,
    # correct.  Equality is exact, skips included.
    roi = default_roi(cfg)
    bound = UniformKeypointSampler(roi, margin).bind(cfg)
    s2i = source_to_input(roi, cfg)
    seen = set()
    for i in range(40):
        _, gx, gy = bound.draw(substream(911, i))
        gt = Point(gx, gy)
        try:
            rec = run_trial(gt, roi, cfg, OracleMode.FULL_HEATMAP)
            got = (rec.pred_output, rec.degenerate)
        except SkipTrial:
            got = "skipped"
        except NoDetectionError:
            got = "failed"
        try:
            expected = _chain_2d(apply_point(s2i, gt), cfg)
        except OutOfBoundsError:
            expected = "skipped"
        except NoDetectionError:
            expected = "failed"
        assert got == expected, (i, gt)
        if isinstance(got, str):
            seen.add(got)
        elif got[1]:
            seen.add("degenerate")
    assert reaches <= seen


def _engine_outcomes(cfg, bound, gx, gy):
    """Per trial of one engine pass: "skipped", "failed" or the output-plane
    prediction with its degenerate flag."""
    engine = biaslab._Engine(cfg, OracleMode.FULL_HEATMAP)
    status, ok, (pox, poy), _, _, deg = engine.run(engine.contexts(bound.boxes), gx, gy)
    outcomes = ["skipped" if s == biaslab._SKIPPED else "failed" for s in status]
    for j, i in enumerate(ok):
        outcomes[i] = (Point(pox[j], poy[j]), bool(deg[j]))
    return outcomes


def _chain_outcomes(cfg, roi, gx, gy):
    s2i = source_to_input(roi, cfg)
    outcomes = []
    for x, y in zip(gx, gy):
        k_i = apply_point(s2i, Point(x, y))
        try:
            ideal_network(k_i, cfg, OracleMode.ANALYTIC_SHIFT)  # skips off the input plane
            outcomes.append(_chain_2d(k_i, cfg))
        except (SkipTrial, OutOfBoundsError):
            outcomes.append("skipped")
        except NoDetectionError:
            outcomes.append("failed")
    return outcomes


@st.composite
def _oracle_configs(draw):
    codec = draw(st.sampled_from(Codec))
    flip = draw(st.booleans())
    rno = codec is not Codec.CCRF and draw(st.booleans())
    size = st.builds(PlaneSize, st.integers(2, 96), st.integers(2, 96))
    return PipelineConfig(
        convention=draw(st.sampled_from(Convention)),
        input=draw(size),
        output=draw(size),
        flip_test=flip,
        compensation=draw(st.sampled_from(Compensation)) if flip else Compensation.NONE,
        codec=codec,
        combine=Combine.AVERAGE_HEATMAPS if rno and flip else draw(st.sampled_from(Combine)),
        rno=rno,
        sigma=draw(st.floats(0.05, 6.0)),
        radius=draw(st.floats(0.3, 5.0)),
    )


@given(cfg=_oracle_configs(), margin=st.one_of(st.none(), st.just(0.0), st.floats(0.0, 0.49)),
       seed=st.integers(0, 2**32))
@settings(max_examples=80, deadline=None)
def test_rendered_oracle_equals_the_public_2d_chain_on_drawn_configs(cfg, margin, seed):
    # A float margin is a share of the largest one the output plane allows.
    if margin:
        margin *= min(cfg.output.width_units, cfg.output.height_units)
    roi = default_roi(cfg)
    try:
        bound = UniformKeypointSampler(roi, margin).bind(cfg)
    except ValueError:  # the default margin leaves no interior
        assume(False)
    _, gx, gy = bound.sample(biaslab._uniforms(seed, 0, 24, bound.k))
    assert _engine_outcomes(cfg, bound, gx, gy) == _chain_outcomes(cfg, roi, gx, gy)


_RNO_CF = PipelineConfig(convention=Convention.PIXEL_COUNT, input=PlaneSize(40, 36),
                         output=PlaneSize(20, 18), flip_test=True,
                         compensation=Compensation.SNOOP, codec=Codec.CF, rno=True)


@pytest.mark.parametrize("n", [0, 1, biaslab._BLOCK + 1, 2 * biaslab._BLOCK + 37],
                         ids=["no-live-trial", "one-trial", "block-of-one", "three-blocks"])
def test_rendered_oracle_blocks(n):
    # Every trial of a chunk goes through its block, whatever the block
    # count; a chunk whose trials all leave the planes has an empty block.
    roi = default_roi(_RNO_CF)
    bound = UniformKeypointSampler(roi, 1.0).bind(_RNO_CF)
    _, gx, gy = bound.sample(biaslab._uniforms(5, 0, n or 3, bound.k))
    if n == 0:
        gx = gx + 10.0 * roi.w
    outcomes = _engine_outcomes(_RNO_CF, bound, gx, gy)
    assert outcomes == _chain_outcomes(_RNO_CF, roi, gx, gy)
    assert (outcomes.count("skipped") == len(gx)) == (n == 0)


@pytest.mark.parametrize("codec", [Codec.CF, Codec.CF_BIASED_DECODE, Codec.ARGMAX_ONLY])
def test_near_tied_upsampled_peak_is_resolved_on_exact_values(codec):
    # With a tiny sigma, the snoop shift puts the flipped-back spike one node
    # from the original, so two nodes of the averaged map, and the input
    # columns upsampled between them, tie up to rounding.  For this trial
    # an argmax of the map's column profile gives input column 111, the
    # 2-D map's first maximum is in column 112.
    cfg = PipelineConfig(convention=Convention.UNIT_LENGTH, input=PlaneSize(140, 114),
                         output=PlaneSize(70, 60), flip_test=True,
                         compensation=Compensation.SNOOP, codec=codec, rno=True,
                         sigma=0.0526700197076838)
    roi = default_roi(cfg)
    bound = UniformKeypointSampler(roi, 0.0).bind(cfg)
    _, gx, gy = bound.sample(biaslab._uniforms(31, 175, 176, bound.k))
    assert _engine_outcomes(cfg, bound, gx, gy) == _chain_outcomes(cfg, roi, gx, gy)


@pytest.mark.parametrize("codec", [Codec.ARGMAX_ONLY, Codec.CF_BIASED_DECODE])
@pytest.mark.parametrize("flipped", [False, True], ids=["one-map", "mirrored-pair"])
def test_ties_go_to_the_first_node_in_row_major_order(codec, flipped):
    # A keypoint on a cell centre is equally far from four nodes; so is the
    # average of maps at x = 10.25 and, mirrored back, 10.75.
    cfg = make_cfg(codec=codec)
    maps = biaslab._AxisMaps(cfg)
    decoder = decode_argmax if codec is Codec.ARGMAX_ONLY else decode_biased_quarter
    if flipped:
        mirrored_x = cfg.output.width_units - 10.75
        terms = maps.average(maps.render(np.array([10.25]), np.array([20.5])),
                             maps.flip_back(maps.render(np.array([mirrored_x]), np.array([20.5]))))
        a, b = (encode_gaussian(Point(x, 20.5), OUT_SIZE, cfg.sigma).c
                for x in (10.25, mirrored_x))
        reference = decoder(ImageGrid(OUT_SIZE, 0.5 * (a.data + flip_heatmap(b).data)))
    else:
        terms = maps.render(np.array([10.5]), np.array([20.5]))
        reference = decoder(encode_gaussian(Point(10.5, 20.5), OUT_SIZE, cfg.sigma).c)
    x, y, _, _ = maps.decode(terms)
    assert reference.argmax == (10, 20)
    assert (x[0], y[0]) == (reference.k.x, reference.k.y)


class TestChunkMoments:
    @staticmethod
    def _exact_var(values) -> float:
        exact = [Fraction(v) for v in values]
        mean = sum(exact) / len(exact)
        return float(sum((v - mean) ** 2 for v in exact) / (len(exact) - 1))

    def test_merge_is_exact_at_large_offsets(self):
        # Errors of 1e8 with a spread of 1e-4: the sum-of-squares formula
        # (sum x^2 - n mean^2) / (n - 1) loses every digit here.
        values = 1e8 + np.random.default_rng(3).random(10_000) * 1e-4
        parts = [
            biaslab._moments(values[s:s + biaslab._CHUNK])
            for s in range(0, len(values), biaslab._CHUNK)
        ]
        assert [p[0] for p in parts] == [4096, 4096, 1808]
        exact = self._exact_var(values)
        merged = biaslab._merge_m2(parts) / (len(values) - 1)
        assert merged == pytest.approx(exact, rel=1e-9)
        n, mean = len(values), math.fsum(values) / len(values)
        naive = (math.fsum(values * values) - n * mean * mean) / (n - 1)
        assert abs(naive - exact) >= 0.5 * exact  # it cancels to 0 or worse

    def test_merge_skips_empty_chunks(self):
        values = np.array([1e8, 1e8 + 2e-8, 1e8 + 4e-8, 1e8 + 6e-8])
        parts = [biaslab._moments(values[:1]), biaslab._moments(values[:0]),
                 biaslab._moments(values[1:])]
        assert parts[1] == (0, 0.0, 0.0)
        assert biaslab._merge_m2(parts) / 3 == pytest.approx(self._exact_var(values), rel=1e-9)

    def test_constant_errors_have_zero_variance(self):
        parts = [biaslab._moments(np.full(n, 0.375)) for n in (4096, 7)]
        assert biaslab._merge_m2(parts) == 0.0


class TestErrorStats:
    def test_standard_errors_stay_out_of_reports(self, tmp_path, capsys):
        stats = monte_carlo(make_cfg(codec=Codec.CF_BIASED_DECODE), OracleMode.ANALYTIC_SHIFT,
                            3000, 5)

        def emit(tag):
            for fmt in ("csv", "json"):
                write_report([stats], fmt, tmp_path / f"{tag}.{fmt}")
            _print_stats(stats)
            return [(tmp_path / f"{tag}.{fmt}").read_bytes() for fmt in ("csv", "json")]

        before = emit("before")
        printed_before = capsys.readouterr().out
        assert stats.sem_abs_x == math.sqrt(stats.var_abs_x / stats.n_trials)
        assert stats.sem_abs_y == math.sqrt(stats.var_abs_y / stats.n_trials)
        assert stats.sem_abs_x == pytest.approx(math.sqrt(1.0 / 192.0 / 3000), rel=0.05)
        assert emit("after") == before
        assert capsys.readouterr().out == printed_before
        assert not {"sem_abs_x", "sem_abs_y"} & {f.name for f in dataclasses.fields(stats)}

    def test_requires_positive_trials(self):
        with pytest.raises(ValueError):
            ErrorStats(
                label="x", n_trials=0, mean_abs_x=0.0, mean_abs_y=0.0,
                var_abs_x=0.0, var_abs_y=0.0, mean_abs_x_source=0.0,
                n_skipped=0, n_decode_failed=0, n_degenerate=0,
            )
