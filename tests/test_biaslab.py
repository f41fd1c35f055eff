import dataclasses
import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

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
    describe_config,
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
from keypose.dataio import Annotations, Instance, load_coco_keypoints, write_report
from keypose.geometry import (
    PlaneSize,
    Point,
    Roi,
    SingularTransformError,
    _coeffs,
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
        keypoints=np.array([[160.0, 160.0, 2], [130.0, 200.0, 1], [400.0, 90.0, 2]]),
    ),
    Instance(
        image_size=PlaneSize(640, 480),
        bbox=(300.0, 40.0, 90.0, 200.0),
        keypoints=np.array([[330.5, 100.25, 2], [371.0, 220.0, 2], [0.0, 0.0, 0]]),
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
    @pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1])
    def test_batch_draw_equals_substreams(self, seed, k):
        # The chunk engine draws with uint64 arrays; substream is the spec.
        for start, stop in ((0, 5), (biaslab._CHUNK - 7, biaslab._CHUNK + 9)):
            expected = [
                [rng.uniform() for _ in range(k)]
                for rng in (substream(seed, i) for i in range(start, stop))
            ]
            assert np.array_equal(biaslab._uniforms(seed, start, stop, k), np.array(expected))

    @pytest.mark.parametrize("index", [-1, 2**64 - 1, 2**64])
    def test_index_outside_the_trial_range_is_refused(self, index):
        # index + 1 is reduced mod 2**64: 2**64 - 1 would draw what -1 draws,
        # and 2**64 what 0 draws.
        with pytest.raises(ValueError, match=r"index must be in 0\.\.2\*\*64-2"):
            substream(0, index)
        assert substream(0, 2**64 - 2).uniform() != substream(0, 0).uniform()


class TestUniformsMemo:
    """``_uniforms`` is memoised per process; a hit must change nothing."""

    ROWS = [  # (mode, cfg, sampler): k = 2 and k = 1, both oracle modes
        (OracleMode.ANALYTIC_SHIFT, make_cfg(flip_test=True, codec=Codec.CF), None),
        (OracleMode.ANALYTIC_SHIFT, make_cfg(codec=Codec.CF_BIASED_DECODE), None),
        (OracleMode.FULL_HEATMAP, make_cfg(flip_test=True, codec=Codec.CF), None),
        (OracleMode.ANALYTIC_SHIFT, make_cfg(convention=Convention.PIXEL_COUNT, flip_test=True),
         CocoKeypointSampler(instances=COCO_INSTANCES)),
    ]

    def test_a_drawn_array_is_read_only(self):
        biaslab._uniforms.cache_clear()
        u = biaslab._uniforms(3, 0, 8, 2)
        assert not u.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            u[0, 0] = 0.5
        assert biaslab._uniforms(3, 0, 8, 2) is u

    def test_rows_with_one_seed_and_n_draw_each_chunk_once(self):
        biaslab._uniforms.cache_clear()
        n = 2 * biaslab._CHUNK + 100  # three chunks
        for mode, cfg, sampler in self.ROWS[:3]:
            monte_carlo(cfg, mode, n, 5, sampler)
        info = biaslab._uniforms.cache_info()
        assert (info.misses, info.hits) == (3, 6)

    def test_every_stat_equals_a_run_with_the_memo_cleared(self):
        n = biaslab._CHUNK + 500
        warm = []
        for mode, cfg, sampler in self.ROWS:
            monte_carlo(cfg, mode, n, 9, sampler)
            warm.append(_stats_bits(monte_carlo(cfg, mode, n, 9, sampler)))
        cold = []
        for mode, cfg, sampler in self.ROWS:
            biaslab._uniforms.cache_clear()
            cold.append(_stats_bits(monte_carlo(cfg, mode, n, 9, sampler)))
        assert warm == cold

    def test_a_run_longer_than_the_bound_gets_no_reuse_and_the_same_stats(self):
        cfg, bound = make_cfg(codec=Codec.CF_BIASED_DECODE), biaslab._uniforms.cache_info().maxsize
        assert bound >= 8  # ablate's default -n and verify's 20,000 trials fit
        n = (bound + 2) * biaslab._CHUNK
        biaslab._uniforms.cache_clear()
        first = monte_carlo(cfg, OracleMode.ANALYTIC_SHIFT, n, 4)
        second = monte_carlo(cfg, OracleMode.ANALYTIC_SHIFT, n, 4)
        info = biaslab._uniforms.cache_info()
        assert first == second
        assert (info.hits, info.misses) == (0, 2 * (bound + 2))
        assert info.currsize <= info.maxsize

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_two_workers_equal_one(self, warm):
        n = 3 * biaslab._CHUNK
        for mode, cfg, sampler in self.ROWS:
            biaslab._uniforms.cache_clear()
            if warm:  # forked workers inherit the drawn chunks
                monte_carlo(cfg, mode, n, 13, sampler)
            two = monte_carlo(cfg, mode, n, 13, sampler, jobs=2)
            biaslab._uniforms.cache_clear()
            assert _stats_bits(two) == _stats_bits(monte_carlo(cfg, mode, n, 13, sampler))


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


@st.composite
def _point_algebra_ensembles(draw):
    """``(cfg, mode)`` whose flip ensemble is point algebra: the exact
    decoders of the coordinate oracle, and rendered disc maps whose decoded
    coordinates are averaged; no rno, and no averaged rendered maps."""
    mode = draw(st.sampled_from(OracleMode))
    analytic = mode is OracleMode.ANALYTIC_SHIFT
    exact = (Codec.ARGMAX_ONLY, Codec.CF, Codec.CCRF)
    codec = draw(st.sampled_from(exact)) if analytic else Codec.CCRF
    return PipelineConfig(
        convention=draw(st.sampled_from(Convention)),
        input=draw(st.builds(PlaneSize, st.integers(2, 192), st.integers(2, 192))),
        output=draw(st.builds(PlaneSize, st.integers(12, 96), st.integers(12, 96))),
        flip_test=True,
        compensation=draw(st.sampled_from(Compensation)),
        codec=codec,
        combine=draw(st.sampled_from(Combine)) if analytic else Combine.AVERAGE_COORDS,
        sigma=draw(st.floats(0.05, 1.5)),
        radius=draw(st.floats(0.3, 5.0)),
    ), mode


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

    @given(case=_point_algebra_ensembles(), seed=st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_engine_flip_ensemble_equals_flip_combine_bit_for_bit(self, case, seed):
        cfg, mode = case
        roi = default_roi(cfg)
        bound = UniformKeypointSampler(roi).bind(cfg)
        _, gx, gy = bound.sample(biaslab._uniforms(seed, 0, 8, bound.k))
        s2i, i2o = source_to_input(roi, cfg), input_to_output(cfg)
        flip_in = t_flip(cfg.input.width_units)
        for gt in map(Point, gx, gy):
            try:
                got = run_trial(gt, roi, cfg, mode).pred_output
            except (SkipTrial, NoDetectionError):
                continue
            k_i = apply_point(s2i, gt)
            k_o, k_o_flip = apply_point(i2o, k_i), apply_point(i2o, apply_point(flip_in, k_i))
            assert got == flip_combine(k_o, k_o_flip, cfg)

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

    @pytest.mark.parametrize("affinity,cpu_count,workers", [
        ({0, 1}, 64, [2]), ({0}, 64, []), (None, 3, [3]), (None, None, [])])
    def test_worker_count_is_capped_at_the_usable_cpus(
        self, monkeypatch, affinity, cpu_count, workers
    ):
        # A stand-in pool records its size and runs the chunks in this
        # process, so no worker starts; five chunks ask for 500 workers.
        import multiprocessing

        class InProcessPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def starmap(self, fn, tasks):
                return [fn(*task) for task in tasks]

        sizes = []
        monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        cfg = make_cfg(flip_test=True, codec=Codec.CF_BIASED_DECODE)
        n = 4 * biaslab._CHUNK + 1
        capped = monte_carlo(cfg, OracleMode.ANALYTIC_SHIFT, n, 11, jobs=500)
        assert sizes == workers
        assert capped == monte_carlo(cfg, OracleMode.ANALYTIC_SHIFT, n, 11)

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
        table = analytic_errors(cfg, UniformKeypointSampler(roi))
        assert table["mean_abs_x"] == pytest.approx(0.375)
        assert table["var_abs_x"] == 0.0
        assert table["mean_abs_x_source"] == pytest.approx(0.375 * 96.0 / 48.0)

        snoop = make_cfg(
            convention=Convention.PIXEL_COUNT,
            flip_test=True,
            compensation=Compensation.SNOOP,
            codec=Codec.CF,
        )
        table = analytic_errors(snoop, UniformKeypointSampler(roi))
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
        closed = analytic_errors(cfg, mode=OracleMode.FULL_HEATMAP)
        assert analytic_errors(cfg)["mean_abs_x"] == pytest.approx(0.375)
        if exact:
            assert closed["mean_abs_x"] == pytest.approx(0.375)
            assert rendered == pytest.approx(0.375, abs=1e-12)
        else:
            assert closed["mean_abs_x"] is None and closed["refused"] == "disc-overlap"
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
            assert closed["mean_abs_x"] is None and closed["refused"] == "two-gaussians"
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
        closed = analytic_errors(cfg, sampler, OracleMode.FULL_HEATMAP)
        if exact:
            assert closed["mean_abs_x"] == 0.0
            assert rendered.mean_abs_x < 1e-12
        else:
            assert closed["mean_abs_x"] is None and closed["refused"] == "window"
            assert rendered.n_degenerate > 0 and rendered.mean_abs_x > 0.01

    def test_gaussian_closed_form_ends_where_the_window_corner_leaves_the_normal_range(self):
        bound = math.sqrt(4.5 / (2.0 * 1022 * math.log(2.0)))
        assert math.exp(-4.5 / (2.0 * bound * bound)) == pytest.approx(2.0 ** -1022)
        below = math.nextafter(bound, 0.0)
        for sigma, closed, refused in ((bound, 0.0, None), (below, None, "window")):
            cfg = make_cfg(codec=Codec.CF, sigma=sigma)
            sampler = UniformKeypointSampler(default_roi(cfg), margin=3.0)
            table = analytic_errors(cfg, sampler, OracleMode.FULL_HEATMAP)
            assert (table["mean_abs_x"], table["refused"]) == (closed, refused)

    @pytest.mark.parametrize("flip", [False, True])
    @pytest.mark.parametrize("sigma,exact", [(999.9, True), (1000.0, False), (1100.0, False)])
    def test_gaussian_closed_form_ends_where_the_newton_step_falls_back(self, sigma, exact, flip):
        # One Gaussian's log-space Hessian determinant is 1/sigma^4; the
        # decode keeps the peak node once it drops below _HESSIAN_EPS = 1e-12.
        kw = dict(convention=Convention.PIXEL_COUNT, flip_test=True,
                  combine=Combine.AVERAGE_COORDS) if flip else {}
        cfg = make_cfg(codec=Codec.CF, sigma=sigma, **kw)
        sampler = UniformKeypointSampler(default_roi(cfg), margin=3.0)
        rendered = monte_carlo(cfg, OracleMode.FULL_HEATMAP, 4000, 1, sampler)
        closed = analytic_errors(cfg, sampler, OracleMode.FULL_HEATMAP)
        mean = 0.375 if flip else 0.0
        assert analytic_errors(cfg, sampler)["mean_abs_x"] == mean
        if exact:
            assert closed["mean_abs_x"] == mean and rendered.n_degenerate == 0
            assert rendered.mean_abs_x == pytest.approx(mean, abs=1e-9)
        else:
            assert closed["mean_abs_x"] is None and closed["refused"] == "newton"
            assert rendered.n_degenerate > 0 and abs(rendered.mean_abs_x - mean) > 1e-3

    @pytest.mark.parametrize("planes", ["topdown", "bottomup"])
    @pytest.mark.parametrize("sigma,exact", [(999.999, True), (999.99999999, False)])
    def test_gaussian_closed_form_stops_short_of_the_newton_bound_by_its_rounding(
        self, sigma, exact, planes
    ):
        # Near sigma = 1000 the determinant 1/sigma^4 is known only to ~1e-9
        # relative, so 1e-11 below the bound some trials already fall back.
        kw = (dict(input=PlaneSize(128, 128), output=PlaneSize(64, 64), flip_test=True,
                   combine=Combine.AVERAGE_COORDS) if planes == "bottomup" else {})
        cfg = dataclasses.replace(make_cfg(Convention.PIXEL_COUNT, codec=Codec.CF, sigma=sigma),
                                  **kw)
        sampler = UniformKeypointSampler(default_roi(cfg), margin=3.0)
        rendered = monte_carlo(cfg, OracleMode.FULL_HEATMAP, 4000, 1, sampler)
        table = analytic_errors(cfg, sampler, OracleMode.FULL_HEATMAP)
        closed = table["mean_abs_x"]
        if exact:
            assert closed == analytic_errors(cfg, sampler)["mean_abs_x"]
            assert rendered.n_degenerate == 0
            assert rendered.mean_abs_x == pytest.approx(closed, abs=1e-9)
        else:
            assert closed is None and table["refused"] == "newton"
            assert rendered.n_degenerate > 0

    _QUARTER_ROWS = {
        # flags, closed-form mean and variance, and the squared distance of
        # the farthest neighbour the nudge compares: (1.5 + 2|half|)^2 + 0.25
        "one-map": ({}, 1.0 / 8.0, 1.0 / 192.0, 2.5),
        "averaged": (dict(convention=Convention.PIXEL_COUNT, flip_test=True),
                     3.0 / 8.0, 1.0 / 48.0, 2.25 ** 2 + 0.25),
        "averaged-snoop": (dict(convention=Convention.PIXEL_COUNT, flip_test=True,
                                compensation=Compensation.SNOOP),
                           5.0 / 32.0, 37.0 / 3072.0, 1.75 ** 2 + 0.25),
    }

    def _quarter_run(self, flags, sigma):
        cfg = make_cfg(codec=Codec.CF_BIASED_DECODE, sigma=sigma, **flags)
        sampler = UniformKeypointSampler(default_roi(cfg), margin=3.0)
        rendered = monte_carlo(cfg, OracleMode.FULL_HEATMAP, 4000, 1, sampler)
        return rendered, analytic_errors(cfg, sampler, OracleMode.FULL_HEATMAP)

    @pytest.mark.parametrize("row", ["one-map", "averaged-snoop"])
    def test_quarter_decoder_has_no_closed_form_where_its_neighbours_underflow(self, row):
        # At sigma 0.02 both neighbours the nudge compares can underflow to
        # 0, and the tie counts as uphill, so the rendered map misses the law.
        flags, mean, _, _ = self._QUARTER_ROWS[row]
        rendered, closed = self._quarter_run(flags, 0.02)
        assert closed == {"mean_abs_x": None, "var_abs_x": None, "mean_abs_x_source": None,
                          "refused": "quarter-window"}
        assert rendered.mean_abs_x - mean > 20 * rendered.sem_abs_x

    @pytest.mark.parametrize("row", list(_QUARTER_ROWS))
    def test_quarter_decoder_closed_form_is_unchanged_at_the_presets_sigma(self, row):
        flags, mean, var, _ = self._QUARTER_ROWS[row]
        rendered, closed = self._quarter_run(flags, 2.0)
        assert (closed["mean_abs_x"], closed["var_abs_x"]) == pytest.approx((mean, var))
        assert abs(rendered.mean_abs_x - mean) < 5 * rendered.sem_abs_x

    @pytest.mark.parametrize("row", list(_QUARTER_ROWS))
    def test_quarter_closed_form_ends_where_the_farthest_compared_node_is_subnormal(self, row):
        flags, mean, _, d2 = self._QUARTER_ROWS[row]
        bound = math.sqrt(d2 / (2.0 * 1022 * math.log(2.0)))
        rendered, closed = self._quarter_run(flags, bound)
        assert closed["mean_abs_x"] == pytest.approx(mean)
        assert abs(rendered.mean_abs_x - mean) < 5 * rendered.sem_abs_x
        cfg = make_cfg(codec=Codec.CF_BIASED_DECODE, sigma=math.nextafter(bound, 0.0), **flags)
        sampler = UniformKeypointSampler(default_roi(cfg), margin=3.0)
        refused = analytic_errors(cfg, sampler, OracleMode.FULL_HEATMAP)
        assert refused["mean_abs_x"] is None and refused["refused"] == "quarter-window"
        assert analytic_errors(cfg, sampler)["mean_abs_x"] == pytest.approx(mean)

    @pytest.mark.parametrize("flip", [False, True])
    def test_rendered_argmax_has_no_closed_form(self, flip):
        # The rendered argmax snaps to a node; the coordinate oracle's
        # argmax is the exact peak, so only analytic mode has a closed form.
        kw = dict(convention=Convention.PIXEL_COUNT, flip_test=True) if flip else {}
        cfg = make_cfg(codec=Codec.ARGMAX_ONLY, sigma=0.5, **kw)
        sampler = UniformKeypointSampler(default_roi(cfg), margin=3.0)
        rendered = monte_carlo(cfg, OracleMode.FULL_HEATMAP, 4000, 1, sampler)
        closed = analytic_errors(cfg, mode=OracleMode.FULL_HEATMAP)
        assert closed == {"mean_abs_x": None, "var_abs_x": None, "mean_abs_x_source": None,
                          "refused": "argmax"}
        assert analytic_errors(cfg)["var_abs_x"] == 0.0
        assert rendered.mean_abs_x > 0.2 and rendered.var_abs_x > 0.01

    @pytest.mark.parametrize("codec", [Codec.CF, Codec.CF_BIASED_DECODE, Codec.ARGMAX_ONLY])
    def test_rendered_rno_maps_have_no_closed_form(self, codec):
        # The bilinear upsample adds its own bias to rendered maps; the
        # coordinate oracle's rno rows are integrated like any other.
        cfg = make_cfg(codec=codec, rno=True)
        closed = analytic_errors(cfg, mode=OracleMode.FULL_HEATMAP)
        assert closed["mean_abs_x"] is None and closed["refused"] == "rno"
        assert analytic_errors(cfg)["mean_abs_x"] is not None

    # Two averaged quarter-decoded Gaussians, their midpoint `half` off each
    # keypoint: 0.375 (pixel-count flip) and 0.5 (unit-length snoop) at sigma
    # 0.1, and 1 (60x40 -> 120x80 under snoop+ec), one peak only from sigma 1 on.
    _TWO_PEAKS = {
        "half-0.375": (dict(convention=Convention.PIXEL_COUNT, flip_test=True), 0.1, True),
        "half-0.5": (dict(flip_test=True, compensation=Compensation.SNOOP), 0.1, False),
        "half-1-sigma-0.5": (dict(convention=Convention.PIXEL_COUNT, flip_test=True,
                                  compensation=Compensation.SNOOP_PLUS_EC,
                                  input=PlaneSize(60, 40), output=PlaneSize(120, 80)), 0.5, False),
        "half-1-sigma-1": (dict(convention=Convention.PIXEL_COUNT, flip_test=True,
                                compensation=Compensation.SNOOP_PLUS_EC,
                                input=PlaneSize(60, 40), output=PlaneSize(120, 80)), 1.0, True),
    }

    @pytest.mark.parametrize("row", list(_TWO_PEAKS))
    def test_averaged_quarter_maps_have_a_closed_form_only_while_they_have_one_peak(self, row):
        flags, sigma, exact = self._TWO_PEAKS[row]
        cfg = dataclasses.replace(make_cfg(codec=Codec.CF_BIASED_DECODE, sigma=sigma), **flags)
        sampler = UniformKeypointSampler(default_roi(cfg), margin=4.37)
        rendered = monte_carlo(cfg, OracleMode.FULL_HEATMAP, 20_000, 3, sampler)
        closed = analytic_errors(cfg, sampler, OracleMode.FULL_HEATMAP)
        law = analytic_errors(cfg, sampler)["mean_abs_x"]
        if exact:
            assert closed["mean_abs_x"] == law
            assert abs(rendered.mean_abs_x - law) < 5 * rendered.sem_abs_x
        else:
            assert closed["mean_abs_x"] is None and closed["refused"] == "quarter-two-peaks"
            assert abs(rendered.mean_abs_x - law) > 10 * rendered.sem_abs_x

    @pytest.mark.parametrize("codec", [Codec.CF, Codec.CF_BIASED_DECODE])
    @pytest.mark.parametrize("margin", [0.3, 0.49, 0.51])
    def test_gaussian_closed_form_needs_peaks_off_the_border_nodes(self, codec, margin):
        # One map (half 0): a keypoint within 1/2 of the border peaks on its
        # node, where Newton falls back and the quarter nudge's clamped
        # neighbour points the wrong way.  0.3 is sigma 0.1's default margin.
        cfg = make_cfg(codec=codec, sigma=0.1)
        sampler = UniformKeypointSampler(default_roi(cfg), margin=margin)
        rendered = monte_carlo(cfg, OracleMode.FULL_HEATMAP, 20_000, 3, sampler)
        table = analytic_errors(cfg, sampler, OracleMode.FULL_HEATMAP)
        closed = table["mean_abs_x"]
        law = analytic_errors(cfg, sampler)["mean_abs_x"]
        exact = margin > 0.5
        if exact:
            assert closed == law
            assert abs(rendered.mean_abs_x - law) < 5 * rendered.sem_abs_x + 1e-12
        else:
            assert closed is None and table["refused"] == "border"
        if margin == 0.3:
            assert abs(rendered.mean_abs_x - law) > 5 * rendered.sem_abs_x
        if codec is Codec.CF:
            assert (rendered.n_degenerate == 0) is exact

    def test_a_coco_sampler_keeps_only_the_rows_that_hold_for_any_law(self):
        sampler = CocoKeypointSampler(instances=COCO_INSTANCES)
        for codec in Codec:
            cfg = make_cfg(convention=Convention.PIXEL_COUNT, flip_test=True, codec=codec)
            closed = analytic_errors(cfg, sampler)
            quarter = codec is Codec.CF_BIASED_DECODE
            assert closed["mean_abs_x"] == (None if quarter else pytest.approx(0.375))
            assert closed["mean_abs_x_source"] is None
            assert closed["refused"] == ("sampler" if quarter else None)
            rendered = analytic_errors(cfg, sampler, OracleMode.FULL_HEATMAP)
            assert rendered["mean_abs_x"] is None and rendered["refused"] == "sampler"

    # For each guard, a run that it alone refuses: 192x256 -> 48x64 unit-length
    # planes in heatmap mode unless stated, as (config fields, margin).
    _ALONE = {
        "sampler": (dict(codec=Codec.CF_BIASED_DECODE), None),  # COCO sampler, analytic mode
        "resolution": (dict(codec=Codec.CF_BIASED_DECODE), None),  # a 1e-300 box at (1, 1)
        "rno": (dict(codec=Codec.CF, rno=True), None),
        "border": (dict(codec=Codec.CF, sigma=0.1), 0.3),
        "disc-overlap": (dict(flip_test=True, compensation=Compensation.SNOOP, codec=Codec.CCRF,
                              combine=Combine.AVERAGE_HEATMAPS, radius=0.8), 0.8),
        "two-gaussians": (dict(flip_test=True, compensation=Compensation.SNOOP, codec=Codec.CF,
                               combine=Combine.AVERAGE_HEATMAPS, sigma=0.06), 2.6),
        "window": (dict(codec=Codec.CF, sigma=0.04), 1.0),
        "newton": (dict(codec=Codec.CF, sigma=1000.0), 1.0),
        "quarter-window": (dict(codec=Codec.CF_BIASED_DECODE, sigma=0.04), 1.0),
        "quarter-two-peaks": (dict(convention=Convention.PIXEL_COUNT, input=PlaneSize(60, 40),
                                   output=PlaneSize(120, 80), flip_test=True,
                                   compensation=Compensation.SNOOP, codec=Codec.CF_BIASED_DECODE,
                                   combine=Combine.AVERAGE_HEATMAPS, sigma=0.5), 6.0),
        "argmax": (dict(codec=Codec.ARGMAX_ONLY, sigma=0.5), 3.0),
    }

    @pytest.mark.parametrize("name", list(_ALONE))
    def test_each_guard_alone_refuses_its_run(self, name, monkeypatch):
        flags, margin = self._ALONE[name]
        cfg = PipelineConfig(**{"convention": Convention.UNIT_LENGTH, "input": IN_SIZE,
                                "output": OUT_SIZE, **flags})
        mode = OracleMode.ANALYTIC_SHIFT if name == "sampler" else OracleMode.FULL_HEATMAP
        roi = Roi(1.0, 1.0, 1e-300, 1e-300) if name == "resolution" else default_roi(cfg)
        sampler = (CocoKeypointSampler(instances=COCO_INSTANCES) if name == "sampler"
                   else UniformKeypointSampler(roi, margin))
        assert analytic_errors(cfg, sampler, mode) == {
            "mean_abs_x": None, "var_abs_x": None, "mean_abs_x_source": None, "refused": name}
        if name != "sampler":  # no other guard reads an analytic run
            monkeypatch.delitem(biaslab._GUARDS, name)
            assert analytic_errors(cfg, sampler, mode)["refused"] is None

    @pytest.mark.parametrize("mode", list(OracleMode))
    def test_resolution_refuses_a_box_whose_float_spacing_exceeds_its_fraction(self, mode):
        # At cx = cy = 1 the source spacing is 2**-52; a w x w box maps it to
        # 2**-52 * 63 / w nodes on the 48x64 unit-length plane: 1.4e-7 at
        # w = 1e-7 and 7e-8 at w = 2e-7, either side of the guard's 1e-7.
        cfg = make_cfg(codec=Codec.CF_BIASED_DECODE)
        refused = {w: analytic_errors(cfg, UniformKeypointSampler(Roi(1.0, 1.0, w, w)), mode)[
            "refused"] for w in (1e-300, 1e-7, 2e-7)}
        assert refused == {1e-300: "resolution", 1e-7: "resolution", 2e-7: None}

    def test_a_box_just_above_the_float_spacing_meets_its_closed_form(self):
        # The run that the closed form at 7e-8 nodes of spacing must predict.
        cfg = make_cfg(codec=Codec.CF_BIASED_DECODE)
        sampler = UniformKeypointSampler(Roi(1.0, 1.0, 2e-7, 2e-7))
        stats = monte_carlo(cfg, OracleMode.ANALYTIC_SHIFT, 20000, 5, sampler)
        closed = analytic_errors(cfg, sampler)
        assert abs(stats.mean_abs_x - closed["mean_abs_x"]) < 5 * stats.sem_abs_x

    def test_the_readme_guard_table_lists_the_guards_in_order(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        head = "| guard | refuses when | why |\n"
        assert readme.count(head) == 1
        rows = readme.split(head)[1].split("\n\n")[0]
        names = re.findall(r"^\| `([a-z-]+)` \|", rows, flags=re.MULTILINE)
        assert names == list(biaslab._GUARDS)


def _guard_grid():
    """Every (cfg, sampler, mode) of a grid that reaches each closed-form
    guard: three plane pairs, both conventions, each flip remedy and combine,
    every codec at radii and sigmas on both sides of each bound, rno, five
    margins and a COCO sampler, in both oracle modes."""
    planes = ((IN_SIZE, OUT_SIZE), (PlaneSize(128, 128), PlaneSize(64, 64)),
              (PlaneSize(60, 40), PlaneSize(120, 80)))
    flips = [(False, Compensation.NONE, Combine.AVERAGE_COORDS)] + [
        (True, comp, combine) for comp in Compensation for combine in Combine]
    shapes = [(Codec.CCRF, dict(radius=r)) for r in (0.8, 1.02, 3.0)] + [
        (codec, dict(sigma=s)) for codec in (Codec.CF, Codec.CF_BIASED_DECODE, Codec.ARGMAX_ONLY)
        for s in (0.04, 0.05, 0.06, 0.5, 1.3, 2.0, 999.999, 1000.0)]
    coco = CocoKeypointSampler(instances=COCO_INSTANCES)
    for (inp, out), convention, (flip, comp, combine), (codec, shape), rno in itertools.product(
            planes, Convention, flips, shapes, (False, True)):
        if rno and (codec is Codec.CCRF or flip and combine is Combine.AVERAGE_COORDS):
            continue  # PipelineConfig refuses these
        cfg = PipelineConfig(convention, inp, out, flip_test=flip, compensation=comp,
                             codec=codec, combine=combine, rno=rno, **shape)
        samplers = [UniformKeypointSampler(default_roi(cfg), margin)
                    for margin in (None, 0.3, 1.0, 2.6, 6.0)] + [coco]
        for sampler, mode in itertools.product(samplers, OracleMode):
            yield cfg, sampler, mode


def _guard_grid_digest():
    """Row count and sha256 of the guard grid's closed forms: every value's
    float.hex, every None, and every margin the sampler refuses."""
    digest, rows = hashlib.sha256(), 0
    for cfg, sampler, mode in _guard_grid():
        try:
            closed = analytic_errors(cfg, sampler, mode)
            line = " ".join("None" if closed[k] is None else float.hex(closed[k])
                            for k in ("mean_abs_x", "var_abs_x", "mean_abs_x_source"))
        except ValueError:
            line = "ValueError"
        digest.update(line.encode() + b"\n")
        rows += 1
    return rows, digest.hexdigest()


_GUARD_GRID_PIN = (20_520, "9c941a05fe84ab580168185dc2c7bdf0ec9543933983c061711968d295c5e8db")


def test_analytic_errors_are_pinned_over_the_guard_grid():
    assert _guard_grid_digest() == _GUARD_GRID_PIN


@pytest.mark.parametrize("level", ["baseline", "below-avx512"])
def test_guard_grid_pin_holds_at_lower_numpy_dispatch_levels(level):
    # numpy picks its SIMD kernels by CPU level, and some differ in the last
    # bit; a process can only lower its level, so each runs in a subprocess.
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__ as features
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__ as features
    if level == "below-avx512":
        first = next((i for i, name in enumerate(features)
                      if name.startswith("AVX512") or name == "X86_V4"), len(features))
        features = features[first:]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from test_biaslab import _guard_grid_digest; print(_guard_grid_digest())")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(features),
               PYTHONWARNINGS=os.environ.get("PYTHONWARNINGS", "") + ",always::ImportWarning")
    out = subprocess.run([sys.executable, "-c", code, str(Path(__file__).parent)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert "NPY_DISABLE_CPU_FEATURES" not in out.stderr  # numpy warns on names it does not dispatch
    assert out.stdout == f"{_GUARD_GRID_PIN}\n"


_DIFFERENTIAL_PLANES = {"192x256-48x64": (PlaneSize(192, 256), PlaneSize(48, 64), 20.6),
                        "128x128-64x64": (PlaneSize(128, 128), PlaneSize(64, 64), 9.35)}


@pytest.mark.parametrize("mode", list(OracleMode))
@pytest.mark.parametrize("planes", list(_DIFFERENTIAL_PLANES))
def test_monte_carlo_lies_within_five_sems_of_every_closed_form(planes, mode):
    # Every row with a closed form, in both conventions, without and with
    # each flip remedy and rno, at the default margin (a whole number of
    # nodes) and at one that is not; the unit-length snoop rows move the
    # flipped branch one node off an aligned ensemble.
    flips = [(False, Compensation.NONE)] + [(True, comp) for comp in Compensation]
    n = 4000 if mode is OracleMode.ANALYTIC_SHIFT else 1000
    *sizes, odd = _DIFFERENTIAL_PLANES[planes]
    rows = misses = 0
    for convention, (flip, comp), codec, combine, rno, margin in itertools.product(
            Convention, flips, Codec, Combine, (False, True), (None, odd)):
        if rno and (codec is Codec.CCRF or flip and combine is Combine.AVERAGE_COORDS):
            continue  # PipelineConfig refuses these
        cfg = PipelineConfig(convention, *sizes, flip_test=flip, compensation=comp,
                             codec=codec, combine=combine, rno=rno)
        sampler = UniformKeypointSampler(default_roi(cfg), margin)
        closed = analytic_errors(cfg, sampler, mode)["mean_abs_x"]
        if closed is None:
            continue
        stats = monte_carlo(cfg, mode, n, 11, sampler)
        rows += 1
        if abs(stats.mean_abs_x - closed) > 5 * stats.sem_abs_x + 1e-9:
            misses += 1
            print(f"{describe_config(cfg)} {combine.value} margin {margin}: "
                  f"closed {closed:.6f}, measured {stats.mean_abs_x:.6f} "
                  f"(SEM {stats.sem_abs_x:.2e})")
    assert rows > 30 and misses == 0


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


@st.composite
def _coco_documents(draw):
    """Small COCO documents: one joint count, mixed visibilities (some
    annotations wholly unlabeled), values as numbers or numeric strings."""
    def maybe_text(values):
        return st.one_of(values, values.map(repr))

    coordinate = maybe_text(st.one_of(st.integers(-1000, 1000), st.floats(-1e4, 1e4)))
    flag = maybe_text(st.sampled_from((0, 0, 1, 2)))
    joints = draw(st.integers(1, 4))
    annotations = [{"id": i, "image_id": 1, "bbox": [10.0, 20.0, 30.0, 40.0],
                    "keypoints": draw(st.lists(st.tuples(coordinate, coordinate, flag),
                                               min_size=joints, max_size=joints)
                                      .map(lambda kps: [v for kp in kps for v in kp]))}
                   for i in range(draw(st.integers(0, 5)))]
    return {"images": [{"id": 1, "width": 640, "height": 480}], "annotations": annotations}


class TestCocoSampler:
    @settings(max_examples=150, deadline=None)
    @given(doc=_coco_documents())
    def test_bind_entries_are_the_visible_keypoints_in_annotation_order(
        self, tmp_path_factory, doc
    ):
        path = tmp_path_factory.mktemp("coco") / "ann.json"
        path.write_text(json.dumps(doc))
        labeled = [a["keypoints"] for a in doc["annotations"]
                   if any(int(v) > 0 for v in a["keypoints"][2::3])]
        spec = [(i, float(x), float(y)) for i, flat in enumerate(labeled)
                for x, y, v in zip(flat[0::3], flat[1::3], flat[2::3]) if int(v) > 0]
        sampler = CocoKeypointSampler(load_coco_keypoints(path).instances)
        if not spec:
            with pytest.raises(ValueError, match="^no visible keypoints to sample from$"):
                sampler.bind(make_cfg())
            return
        # Entry k is drawn by any u in [k/E, (k+1)/E); the last u below 1 picks the last.
        u = np.append((np.arange(len(spec)) + 0.5) / len(spec), np.nextafter(1.0, 0.0))
        idx, xs, ys = sampler.bind(make_cfg()).sample(u[:, None])
        assert list(zip(idx.tolist(), xs.tolist(), ys.tolist())) == spec + spec[-1:]

    def test_draws_visible_keypoints_from_instances(self):
        image = PlaneSize(640, 480)
        instances = (
            Instance(
                image_size=image,
                bbox=(100.0, 80.0, 120.0, 160.0),
                keypoints=np.array([
                    [160.0, 160.0, 2],
                    [130.0, 200.0, 1],
                    [0.0, 0.0, 0],
                ]),
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
        entries = [(i, x, y) for i, inst in enumerate(COCO_INSTANCES)
                   for x, y, visibility in inst.keypoints.tolist() if visibility > 0]
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

    @pytest.mark.parametrize("mode", list(OracleMode))
    def test_a_loaded_document_runs_as_its_hand_built_instances(self, tmp_path, mode):
        # The same records loaded as columns and hand-built as Instances give
        # equal stats.  A ragged hand-built set runs as its document, whose
        # instances are padded with unlabeled rows to one joint count.
        many = _many_box_instances()
        ragged = tuple(Instance(inst.image_size, inst.bbox, inst.keypoints[:1 + i % 4])
                       for i, inst in enumerate(many))
        for instances in (many, ragged):
            doc = {"images": [{"id": 1, "width": 800, "height": 600}],
                   "annotations": [
                       {"id": i, "image_id": 1, "bbox": list(inst.bbox),
                        "keypoints": [*inst.keypoints.ravel().tolist(),
                                      *[0.0] * (12 - inst.keypoints.size)]}
                       for i, inst in enumerate(instances)]}
            path = tmp_path / "ann.json"
            path.write_text(json.dumps(doc))
            cfg = make_cfg(convention=Convention.PIXEL_COUNT, flip_test=True, codec=Codec.CF)
            loaded = monte_carlo(cfg, mode, 3000, 5,
                                 CocoKeypointSampler(load_coco_keypoints(path).instances, 0.8))
            built = monte_carlo(cfg, mode, 3000, 5, CocoKeypointSampler(instances, 0.8))
            assert loaded.n_skipped > 0
            assert loaded == built

    def test_bind_reads_no_instance(self, monkeypatch, tmp_path):
        # Hand-built instances become columns when the sampler is built; a
        # run then reads only the columns, never an Instance.
        path = tmp_path / "ann.json"
        path.write_text(json.dumps({
            "images": [{"id": 1, "width": 640, "height": 480}],
            "annotations": [{"id": i, "image_id": 1, "bbox": list(inst.bbox),
                             "keypoints": inst.keypoints.ravel().tolist()}
                            for i, inst in enumerate(COCO_INSTANCES)]}))
        samplers = (CocoKeypointSampler(instances=COCO_INSTANCES),
                    CocoKeypointSampler(load_coco_keypoints(path).instances))
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("__getitem__", "__iter__", "of"):
            monkeypatch.setattr(Annotations, name, counting(name, getattr(Annotations, name)))
        monkeypatch.setattr(biaslab._Engine, "contexts",
                            counting("contexts", biaslab._Engine.contexts))
        cfg = make_cfg(convention=Convention.PIXEL_COUNT, flip_test=True, codec=Codec.CF)
        stats = [monte_carlo(cfg, OracleMode.ANALYTIC_SHIFT, 4500, 11, s) for s in samplers]
        assert calls == ["contexts", "contexts"]
        assert stats[0] == stats[1]

    def test_no_visible_keypoints_rejected(self):
        inst = Instance(
            image_size=PlaneSize(64, 64),
            bbox=(10.0, 10.0, 20.0, 20.0),
            keypoints=np.array([[15.0, 15.0, 0]]),
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


def _chunk_cases():
    coco = make_cfg(Convention.PIXEL_COUNT, flip_test=True, codec=Codec.CF)
    yield pytest.param(coco, OracleMode.ANALYTIC_SHIFT, CocoKeypointSampler(COCO_INSTANCES),
                       "skipped", id="coco-skips")
    narrow = make_cfg(Convention.PIXEL_COUNT, codec=Codec.CCRF, radius=0.45, flip_test=True)
    yield pytest.param(narrow, OracleMode.FULL_HEATMAP, None, "failed", id="narrow-disc-fails")
    yield pytest.param(make_cfg(flip_test=True, codec=Codec.CF), OracleMode.ANALYTIC_SHIFT, None,
                       None, id="all-live")


@pytest.mark.parametrize("cfg,mode,sampler,reaches", _chunk_cases())
def test_chunk_counts_equal_run_trial_outcomes(cfg, mode, sampler, reaches):
    # A chunk reports counts, and the engine the indices of its decoded and
    # failed trials (none when every trial decoded); both must classify each
    # trial as run_trial does, one by one.
    n, seed = 500, 901
    bound = (sampler or UniformKeypointSampler(default_roi(cfg))).bind(cfg)
    expected = []
    for i in range(n):
        idx, gx, gy = bound.draw(substream(seed, i))
        try:
            run_trial(Point(gx, gy), bound.rois[idx], cfg, mode)
            expected.append("used")
        except SkipTrial:
            expected.append("skipped")
        except NoDetectionError:
            expected.append("failed")
    engine = biaslab._Engine(cfg, mode)
    ctx = engine.contexts(bound.boxes)
    counts = biaslab._run_chunk(engine, bound, ctx, seed, 0, n)[0]
    assert counts == [expected.count(k) for k in ("used", "skipped", "failed")]
    roi_idx, gx, gy = bound.sample(biaslab._uniforms(seed, 0, n, bound.k))
    ok, lost, *_ = engine.run(ctx[:, roi_idx], gx, gy)
    outcomes = ["skipped"] * n
    for i in lost:
        outcomes[i] = "failed"
    for i in range(n) if ok is None else ok:
        outcomes[i] = "used"
    assert outcomes == expected
    assert (ok is None) == (reaches is None)
    assert reaches is None or reaches in expected


def _axes(t):
    """``(a, c, e, f)`` of ``t``, whose ``b`` and ``d`` must be zeros: dropping
    them is exact only then."""
    a, b, c, d, e, f = _coeffs(t)
    assert b == 0.0 and d == 0.0
    return a, c, e, f


def _chain_table(cfg, boxes):
    """The crop-box table through the scalar chain: a Roi for every box,
    then each box's ``test_transform`` and ``invert`` (rno) or
    ``output_to_source``, per axis."""
    rois = [Roi(*column) for column in boxes.T.tolist()]
    columns = []
    for roi in rois:
        s2i = source_to_input(roi, cfg)
        dp2s = invert(s2i) if cfg.rno else output_to_source(roi, cfg)
        columns.append(_axes(s2i) + _axes(dp2s))
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


# Crop boxes the table refuses, or whose table overflows.
_BAD_BOXES = [
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
]


# The scalar chain's message for a box, and the crop-box table's words for it.
_TABLE_WORDS = [
    (r"^roi fields must be finite$", "has a field that is not finite"),
    (r"^roi extents must be positive, got .*$", "has an extent that is not positive"),
    (r"^transform entries must be finite$", "maps to transform entries that are not finite"),
    (r"^transform is singular (\(det=.*\))$", r"maps to a singular transform \1"),
]


def _chain_error(cfg, column):
    """The scalar chain's error type and message for one box, or None."""
    try:
        _chain_table(cfg, np.array([column]).T)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


# Boxes whose coefficients are finite and invertible but whose far corners
# are not finite.
_HUGE_BOXES = [(1.7e308, 0.0, 1.7e308, 1e-300), (0.0, 1.7e308, 1e-300, 1.7e308)]


class TestCropBoxTable:
    @pytest.mark.parametrize("rno", [False, True])
    @pytest.mark.parametrize("huge", _HUGE_BOXES)
    def test_a_box_whose_corner_passes_the_largest_float_is_refused(self, rno, huge):
        engine = biaslab._Engine(make_cfg(codec=Codec.CF, rno=rno), OracleMode.FULL_HEATMAP)
        message = f"crop box {Roi(*huge)} maps a corner past the largest float"
        for columns in ([huge], [(50.0, 50.0, 10.0, 10.0), huge, (1.7e308, 0.0, 1e308, 1e-300)]):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                engine.contexts(np.array(columns).T)

    @pytest.mark.parametrize("mode", list(OracleMode))
    def test_a_run_on_a_box_past_the_largest_float_is_refused_before_any_trial(self, mode):
        sampler = UniformKeypointSampler(Roi(1.7e308, 1.0, 1.7e308, 1.0))
        with pytest.raises(ValueError, match="maps a corner past the largest float"):
            monte_carlo(make_cfg(codec=Codec.CF_BIASED_DECODE), mode, 10, 1, sampler)

    @settings(max_examples=300, deadline=None)
    @given(boxes=_crop_box_arrays(), convention=st.sampled_from(Convention), rno=st.booleans())
    def test_equals_the_scalar_chain_bit_for_bit(self, boxes, convention, rno):
        cfg = make_cfg(convention=convention, codec=Codec.CF, rno=rno)
        got = biaslab._Engine(cfg, OracleMode.ANALYTIC_SHIFT).contexts(boxes)
        want = _chain_table(cfg, boxes)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @settings(max_examples=200, deadline=None)
    @given(boxes=_crop_box_arrays(), convention=st.sampled_from(Convention), rno=st.booleans())
    def test_one_box_on_floats_equals_the_array_path(self, boxes, convention, rno):
        # One box goes through the routines on floats, more through arrays.
        engine = biaslab._Engine(make_cfg(convention=convention, codec=Codec.CF, rno=rno),
                                 OracleMode.ANALYTIC_SHIFT)
        one = engine.contexts(boxes[:, :1])
        two = engine.contexts(boxes[:, [0, 0]])
        assert one.shape == (8, 1)
        assert np.array_equal(one[:, 0], two[:, 0])
        assert np.array_equal(np.signbit(one[:, 0]), np.signbit(two[:, 0]))

    @pytest.mark.parametrize("rno", [False, True])
    @pytest.mark.parametrize("columns", [c for c in _BAD_BOXES if len(c) == 1])
    def test_one_box_on_floats_is_checked_as_the_array_path(self, rno, columns):
        engine = biaslab._Engine(make_cfg(codec=Codec.CF, rno=rno), OracleMode.ANALYTIC_SHIFT)
        boxes = np.array(columns).T
        try:
            two = engine.contexts(boxes[:, [0, 0]])
        except ValueError as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                engine.contexts(boxes)
        else:
            assert np.array_equal(engine.contexts(boxes)[:, 0], two[:, 0])

    @pytest.mark.parametrize("rno", [False, True])
    @pytest.mark.parametrize("columns", _BAD_BOXES)
    def test_rejects_a_box_as_the_scalar_chain_does(self, rno, columns):
        # Each check runs in the chain's order and names the first box that
        # fails it: the first box whose chain, alone, fails as the whole does.
        cfg = make_cfg(codec=Codec.CF, rno=rno)
        boxes = np.array(columns).T
        try:
            want = _chain_table(cfg, boxes)
        except ValueError as exc:
            with pytest.raises(type(exc)) as got:
                biaslab._Engine(cfg, OracleMode.ANALYTIC_SHIFT).contexts(boxes)
            assert type(got.value) is type(exc)
            box = next(column for column in boxes.T.tolist()
                       if _chain_error(cfg, column) == (type(exc), str(exc)))
            words = next(re.sub(chain, table, str(exc)) for chain, table in _TABLE_WORDS
                         if re.match(chain, str(exc)))
            assert str(got.value) == "crop box Roi(cx={}, cy={}, w={}, h={}) {}".format(*box, words)
        else:
            got = biaslab._Engine(cfg, OracleMode.ANALYTIC_SHIFT).contexts(boxes)
            assert np.array_equal(got, want)

    def test_singular_box_message_under_rno(self):
        cfg = make_cfg(codec=Codec.CF, rno=True)
        boxes = np.array([[100.0], [100.0], [1e200], [1e200]])
        message = r"^crop box Roi\(cx=100\.0, cy=100\.0, w=1e\+200, h=1e\+200\) maps to a singular transform \(det=0\.0\)$"  # noqa: E501
        with pytest.raises(SingularTransformError, match=message):
            biaslab._Engine(cfg, OracleMode.ANALYTIC_SHIFT).contexts(boxes)


def _many_box_instances():
    """40 seeded instances, four keypoints each, some outside the padded crop."""
    rng = SplitMix64(16)
    instances = []
    for _ in range(40):
        x, y = 600 * rng.uniform(), 400 * rng.uniform()
        w, h = 20 + 180 * rng.uniform(), 20 + 260 * rng.uniform()
        keypoints = np.array([(x + (1.6 * rng.uniform() - 0.3) * w,
                               y + (1.6 * rng.uniform() - 0.3) * h, 2) for _ in range(4)])
        instances.append(Instance(PlaneSize(800, 600), (x, y, w, h), keypoints))
    return tuple(instances)


# ``ErrorStats`` of 3,000 trials at seed 16, floats as ``float.hex``:
# (n_trials, n_skipped, n_decode_failed, n_degenerate, mean_abs_x, mean_abs_y,
# var_abs_x, var_abs_y, mean_abs_x_source).  Reports print 6 or 9 digits, so
# only these catch a moved last bit in the crop-box coefficients.
_CROP_BOX_PIN = {
    ("coco", "analytic", "unit_length"): (2423, 577, 0, 0, "0x1.c7c9784bd325bp-4", "0x1.003be0ec321bcp-3", "0x1.31e1c086a6a41p-8", "0x1.44a8049bd9caap-8", "0x1.bae5957d87db7p-2"),  # noqa: E501
    ("coco", "analytic", "pixel_count"): (2403, 597, 0, 0, "0x1.88e1cd201b1d6p-2", "0x1.0c17f9305ed65p-3", "0x1.617ced8ae5071p-6", "0x1.359aa5bbc6189p-8", "0x1.725054bd01a93p+0"),  # noqa: E501
    ("coco", "analytic-rno", "unit_length"): (2423, 577, 0, 0, "0x1.f7b16bcc40f30p-6", "0x1.07addb3590e39p-5", "0x1.36e526c769485p-12", "0x1.79112f8d083a6p-12", "0x1.db90dd39af73dp-4"),  # noqa: E501
    ("coco", "analytic-rno", "pixel_count"): (2403, 597, 0, 0, "0x1.8276a0e9fca57p-2", "0x1.f503d90b2be2ap-6", "0x1.54c776676a8eap-10", "0x1.926827c2e64b4p-12", "0x1.68a4c4744f515p+0"),  # noqa: E501
    ("coco", "heatmap-rno", "unit_length"): (2423, 577, 0, 0, "0x1.5690f24020288p-3", "0x1.4bbc9b9289ab9p-3", "0x1.1a1a0937d928ep-7", "0x1.49e3917f6d374p-7", "0x1.463872e2d1b1cp-1"),  # noqa: E501
    ("coco", "heatmap-rno", "pixel_count"): (2290, 710, 0, 0, "0x1.8181e54c5e46fp-2", "0x1.9396b81b8c669p-3", "0x1.9c2ce5b7f85a0p-5", "0x1.28dd88214c8bdp-6", "0x1.6d21859b3eb2bp+0"),  # noqa: E501
    ("roi", "analytic", "unit_length"): (3000, 0, 0, 0, "0x1.00e95a099d6e0p-3", "0x1.f644816b86ce3p-4", "0x1.5404978b8a3c8p-8", "0x1.563878144640bp-8", "0x1.2d3011dc6df08p-3"),  # noqa: E501
    ("roi", "analytic", "pixel_count"): (3000, 0, 0, 0, "0x1.7a599abe1013ep-2", "0x1.f644816b86ccdp-4", "0x1.4fc7a41d82f8ep-6", "0x1.5638781446405p-8", "0x1.b250755d604a2p-2"),  # noqa: E501
    ("roi", "analytic-rno", "unit_length"): (3000, 0, 0, 0, "0x1.f4e43f3a76167p-6", "0x1.f1cc15b6d233fp-6", "0x1.4ec67b9febdaap-12", "0x1.4b62992afb58fp-12", "0x1.259b942d6f2abp-5"),  # noqa: E501
    ("roi", "analytic-rno", "pixel_count"): (3000, 0, 0, 0, "0x1.8027164e1b001p-2", "0x1.01a0c0f31742dp-5", "0x1.5a3ce778bcc83p-10", "0x1.5730c9993c8eep-12", "0x1.b8f9ab34533a6p-2"),  # noqa: E501
    ("roi", "heatmap-rno", "unit_length"): (3000, 0, 0, 0, "0x1.49d1e2a4a7950p-3", "0x1.4668c0003cdb2p-3", "0x1.4b392cf9cfc95p-7", "0x1.3252c32eb4b09p-7", "0x1.82a941ce1a862p-3"),  # noqa: E501
    ("roi", "heatmap-rno", "pixel_count"): (3000, 0, 0, 0, "0x1.81092dd47faa1p-2", "0x1.8e3ecf1cd1b42p-3", "0x1.af07b17db0358p-5", "0x1.1c72a91da6bbep-6", "0x1.b9fd341365b7dp-2"),  # noqa: E501
}


def _coefficient_configs():
    planes = ((IN_SIZE, OUT_SIZE), (PlaneSize(128, 128), PlaneSize(32, 32)),
              (PlaneSize(60, 40), PlaneSize(120, 80)), (PlaneSize(37, 23), PlaneSize(11, 7)))
    for (inp, out), convention in itertools.product(planes, Convention):
        yield PipelineConfig(convention, inp, out, codec=Codec.CF, rno=True)


@pytest.mark.parametrize("cfg", _coefficient_configs())
def test_run_coefficients_equal_their_transform_forms(cfg):
    # A run builds its coefficients from floats; each equals, sign bits
    # included, the validated Transform2D chain it stands for.
    def bits(p):
        return [float.hex(v) for v in p]

    # A resize keeps only its two scales: its offsets are zeros, so dropping
    # them moves at most a zero's sign.
    i2o = input_to_output(cfg)
    for scales, chain in ((biaslab._Engine(cfg, OracleMode.ANALYTIC_SHIFT).i2o, i2o),
                          (biaslab._PeakMaps(cfg).up, invert(i2o)),
                          (biaslab._AxisMaps(cfg).axes, invert(invert(i2o)))):
        a, c, e, f = _axes(chain)  # m[0, 0], m[0, 2], m[1, 1], m[1, 2]
        assert bits(scales) == bits((a, e))
        assert c == 0.0 and f == 0.0
    for roi in (default_roi(cfg), Roi(101.3, 77.7, 55.1, 73.9), Roi(20.0, 5.0, 40.0, 10.0)):
        bound = UniformKeypointSampler(roi, 0.0).bind(cfg)
        assert bits(bound._o2s) == bits(_axes(output_to_source(roi, cfg)))


def _run_pin_grid():
    """Both ablate presets in both oracle modes (analytic at 5,000 trials, a
    full chunk and a partial one; heatmap at 300), and a narrow-disc row whose
    decodes fail, under the default sampler and under a many-box COCO sampler
    that skips trials."""
    narrow = make_cfg(Convention.PIXEL_COUNT, codec=Codec.CCRF, radius=0.45, flip_test=True)
    presets = _topdown_presets() + _bottomup_presets()
    for sampler in (None, CocoKeypointSampler(_many_box_instances())):
        for mode, n in ((OracleMode.ANALYTIC_SHIFT, 5000), (OracleMode.FULL_HEATMAP, 300)):
            for _, cfg in presets:
                yield cfg, mode, n, sampler
        yield narrow, OracleMode.FULL_HEATMAP, 5000, sampler


def test_monte_carlo_reports_are_pinned_over_a_run_grid():
    # Every ErrorStats field of every run, floats as float.hex, so a moved
    # last bit anywhere in the trial engine changes the digest.
    digest, rows = hashlib.sha256(), 0
    for cfg, mode, n, sampler in _run_pin_grid():
        s = monte_carlo(cfg, mode, n, 5, sampler)
        digest.update(" ".join(v.hex() if isinstance(v, float) else str(v)
                               for v in dataclasses.astuple(s)).encode() + b"\n")
        rows += 1
    assert rows == 78
    assert digest.hexdigest() == (
        "babb85abb82a2170d42d2b44ad701672d33fd2b92c5edde66c138d4c90ffdace")


def test_crop_box_path_stats_are_pinned_to_the_last_bit():
    # A many-box COCO sampler (with skips) and a uniform sampler in an
    # unaligned roi, through output_to_source (analytic) and invert (rno).
    # The quarter decoder only compares node values, so the heatmap rows
    # do not hang on the last bits of exp.
    samplers = {"coco": CocoKeypointSampler(_many_box_instances()),
                "roi": UniformKeypointSampler(Roi(101.3, 77.7, 55.1, 73.9))}
    modes = {"analytic": (OracleMode.ANALYTIC_SHIFT, False),
             "analytic-rno": (OracleMode.ANALYTIC_SHIFT, True),
             "heatmap-rno": (OracleMode.FULL_HEATMAP, True)}
    got = {}
    for (sampler, mode, convention) in _CROP_BOX_PIN:
        oracle, rno = modes[mode]
        cfg = make_cfg(convention=Convention(convention), flip_test=True,
                       codec=Codec.CF_BIASED_DECODE, rno=rno)
        s = monte_carlo(cfg, oracle, 3000, 16, samplers[sampler], jobs=1)
        got[sampler, mode, convention] = (
            s.n_trials, s.n_skipped, s.n_decode_failed, s.n_degenerate,
            *(v.hex() for v in (s.mean_abs_x, s.mean_abs_y, s.var_abs_x, s.var_abs_y,
                                s.mean_abs_x_source)))
    assert got == _CROP_BOX_PIN


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
    yield pytest.param(snoop, 0.0, {"skipped"}, id="ccrf-average-heatmaps-snoop-margin-0")
    wide = make_cfg(flip_test=True, codec=Codec.CCRF, combine=Combine.AVERAGE_HEATMAPS, radius=20.0)
    yield pytest.param(wide, None, set(), id="wide-disc")
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
    ok, lost, (pox, poy), _, _, deg = engine.run(engine.contexts(bound.boxes), gx, gy)
    outcomes = ["skipped"] * len(gx)
    for i in lost:
        outcomes[i] = "failed"
    for j, i in enumerate(range(len(gx)) if ok is None else ok):
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


def _spy_blocks(monkeypatch):
    """Spy on the blocks the peak search reads (``_AxisMaps._box`` builds a
    block's columns, then its rows); returns a function that lists the
    ``(trials, columns, rows)`` of each block since its last call."""
    box, calls = biaslab._AxisMaps._box, []

    def spy(lo, hi, n):
        calls.append(nodes := box(lo, hi, n))
        return nodes

    def blocks():  # the blocks since the last call
        got = [(len(x), x.shape[1], y.shape[1]) for x, y in zip(calls[::2], calls[1::2])]
        calls.clear()
        return got

    monkeypatch.setattr(biaslab._AxisMaps, "_box", staticmethod(spy))
    return blocks


@pytest.mark.parametrize("n,sizes", [(0, [0]), (1, [1]), (3, [2, 1]), (7, [2, 2, 2, 1])],
                         ids=["no-live-trial", "one-trial", "two-blocks", "four-blocks"])
def test_rendered_oracle_blocks(n, sizes, monkeypatch):
    # Every trial of a chunk goes through its block, whatever the block
    # count; a chunk whose trials all leave the planes has an empty block.
    # With room for two of the chunk's widest boxes, blocks hold two trials.
    roi = default_roi(_RNO_CF)
    bound = UniformKeypointSampler(roi, 1.0).bind(_RNO_CF)
    _, gx, gy = bound.sample(biaslab._uniforms(5, 0, n or 3, bound.k))
    if n == 0:
        gx = gx + 10.0 * roi.w
    blocks = _spy_blocks(monkeypatch)
    monkeypatch.setattr(biaslab, "_NODES", 1 << 40)
    whole = _engine_outcomes(_RNO_CF, bound, gx, gy)
    (_, cols, rows), = blocks()
    monkeypatch.setattr(biaslab, "_NODES", 2 * cols * rows)
    outcomes = _engine_outcomes(_RNO_CF, bound, gx, gy)
    assert [b for b, _, _ in blocks()] == sizes
    assert outcomes == whole == _chain_outcomes(_RNO_CF, roi, gx, gy)
    assert (outcomes.count("skipped") == len(gx)) == (n == 0)


def _partition_configs():
    planes = {"input": PlaneSize(40, 36), "output": PlaneSize(20, 18), "flip_test": True,
              "compensation": Compensation.SNOOP}
    for codec in Codec:
        for rno, combine in ((False, Combine.AVERAGE_COORDS), (False, Combine.AVERAGE_HEATMAPS),
                             (True, Combine.AVERAGE_HEATMAPS)):
            if rno and codec is Codec.CCRF:
                continue  # PipelineConfig refuses it
            cfg = PipelineConfig(convention=Convention.PIXEL_COUNT, codec=codec, rno=rno,
                                 combine=combine, radius=2.5, **planes)
            yield pytest.param(cfg, id=f"{codec.value}-{combine.value}{'-rno' * rno}")


@pytest.mark.parametrize("cfg", _partition_configs())
def test_block_partition_changes_no_result(cfg, monkeypatch):
    # One trial per block, a few boxes per block, and one block per chunk
    # read the same node values with the same peak rule.
    blocks = _spy_blocks(monkeypatch)
    stats, trials = [], []
    for nodes in (1, 200, 1 << 40):
        monkeypatch.setattr(biaslab, "_NODES", nodes)
        stats.append(monte_carlo(cfg, OracleMode.FULL_HEATMAP, 300, 13))
        trials.append({b for b, _, _ in blocks()})
    assert stats[0] == stats[1] == stats[2]
    live = stats[0].n_trials + stats[0].n_decode_failed
    assert trials[0] == {1} and 1 < max(trials[1]) < live and trials[2] == {live}


@pytest.mark.parametrize("row", ["G", "H"])
def test_disc_rows_read_blocks_bounded_by_nodes(row, monkeypatch):
    # A disc block holds its trials' distance rows, (columns + rows) values per
    # trial and map term, so it takes _NODES // (columns + rows) trials; small
    # blocks leave the topdown disc rows' bits as pinned.
    blocks = _spy_blocks(monkeypatch)
    monkeypatch.setattr(biaslab, "_NODES", 64)
    got = _heatmap_ablate_stats([("topdown", row)], jobs=1)
    sizes = blocks()
    assert got == {("topdown", row): _HEATMAP_ABLATE_PIN["topdown", row]}
    assert len(sizes) > 100 and all(t <= max(1, 64 // (k + l)) for t, k, l in sizes)


# float.hex pins of the wide-disc runs below (fields as in _CROP_BOX_PIN),
# recorded while disc maps were still decoded from blocks of node boxes.
_WIDE_DISC_PIN = {
    "average_coords": (2000, 0, 0, 0, "0x1.77ef9db22d0e5p-47", "0x0.0p+0", "0x1.1ac4312a0f2e7p-93", "0x0.0p+0", "0x1.5a9fbe76c8b44p-47"),  # noqa: E501
    "average_heatmaps": (2000, 0, 0, 0, "0x1.000000000003ep-1", "0x0.0p+0", "0x1.71bb19ff3b4b3p-94", "0x0.0p+0", "0x1.0101010101003p-1"),  # noqa: E501
}


@pytest.mark.parametrize("combine", list(_WIDE_DISC_PIN))
def test_a_disc_decode_reads_one_node_per_trial(combine, monkeypatch):
    # Wide discs: a trial's box holds up to 122 x 122 nodes.  The peak comes
    # from per-axis distances, so no node-value pass runs (``_values``) and
    # ``_at`` reads one node per trial, for the peak's offsets; a return to
    # (B, rows, cols) boxes fails here.
    at, reads = biaslab._AxisMaps._at, []

    def spy_at(self, terms, x, y, offsets=False):
        values = at(self, terms, x, y, offsets)
        reads.append((offsets, *(v.shape[1:] for v in values)))
        return values

    def no_values(self, *args):
        raise AssertionError("a disc decode read a node box")

    monkeypatch.setattr(biaslab._AxisMaps, "_at", spy_at)
    monkeypatch.setattr(biaslab._AxisMaps, "_values", no_values)
    heatmaps = combine == "average_heatmaps"
    cfg = PipelineConfig(convention=Convention.UNIT_LENGTH, input=PlaneSize(512, 512),
                         output=PlaneSize(256, 256), flip_test=True, codec=Codec.CCRF,
                         radius=60.0, combine=Combine(combine),
                         compensation=Compensation.SNOOP if heatmaps else Compensation.NONE)
    s = monte_carlo(cfg, OracleMode.FULL_HEATMAP, 2000, 1)
    assert reads == [(True, (1, 1), (1, 1), (1, 1))] * (1 if heatmaps else 2)  # one chunk
    assert (s.n_trials, s.n_skipped, s.n_decode_failed, s.n_degenerate,
            *(v.hex() for v in (s.mean_abs_x, s.mean_abs_y, s.var_abs_x, s.var_abs_y,
                                s.mean_abs_x_source))) == _WIDE_DISC_PIN[combine]


def _disc_reference(plane, radius, terms, t):
    """``decode_ccrf`` of trial ``t``'s 2-D disc map (each term encoded,
    mirrored and shifted as the term says, two terms averaged), or "failed";
    and the map's largest value."""
    maps = []
    for m, n, mirrored, shift in terms:
        target = encode_ccrf(Point(m[t], n[t]), plane, radius)
        grids = [target.c, target.x_off, target.y_off]
        if mirrored:
            grids = [flip_heatmap(g) for g in grids]
            grids[1] = ImageGrid(plane, -grids[1].data)
        maps.append([_shift_one_node(g) for g in grids] if shift else grids)
    if len(maps) == 2:
        maps = [[ImageGrid(plane, 0.5 * (g.data + h.data)) for g, h in zip(*maps)]]
    top = float(maps[0][0].data.max())
    try:
        return decode_ccrf(CcrfTarget(*maps[0], radius=radius)), top
    except NoDetectionError:
        return "failed", top


@pytest.mark.parametrize("radius,tops", [(1.0, {0.0, 0.5, 1.0}), (2.0, {0.5, 1.0}),
                                         (2.5, {0.5, 1.0})])
def test_disc_decode_equals_the_2d_map_on_ties_and_edges(radius, tops, monkeypatch):
    # Keypoints on integer and half-integer nodes put nodes exactly on the
    # circle; pairs far apart share no node (the map peaks at 0.5); a
    # mirrored, shifted map meets the zero column, and at radius 1 with its
    # keypoint a node past the plane it holds no node (the decode fails).
    at, peaks = biaslab._AxisMaps._at, []

    def spy_at(self, terms, x, y, offsets=False):
        peaks.append((x[:, 0], y[:, 0]))  # the decode's one read: the peak's offsets
        return at(self, terms, x, y, offsets)

    monkeypatch.setattr(biaslab._AxisMaps, "_at", spy_at)
    plane = PlaneSize(12, 10)
    maps = biaslab._AxisMaps(PipelineConfig(convention=Convention.PIXEL_COUNT, output=plane,
                                            input=PlaneSize(24, 20), codec=Codec.CCRF,
                                            radius=radius))
    xs, ys = (0.0, 0.5, 1.0, 5.0, 5.5, 10.5, 11.0), (0.0, 0.5, 4.0, 8.5, 9.0)
    m, n = (np.array(v) for v in zip(*itertools.product(xs, ys)))
    a, b, nn = (np.array(v) for v in zip(*itertools.product(xs, xs, ys)))
    seen = set()
    for terms in ([(m, n, False, 0)], [(m, n, True, 0)], [(m, n, True, 1)],
                  [(a, nn, False, 0), (b, nn, True, 0)], [(a, nn, False, 0), (b, nn, True, 1)]):
        peaks.clear()
        x, y, degenerate, failed = maps.decode(terms)
        (ix, iy), = peaks
        assert not degenerate.any()
        for t in range(len(x)):
            reference, top = _disc_reference(plane, radius, terms, t)
            seen.add(top)
            assert failed[t] == (reference == "failed"), t
            if not failed[t]:
                assert (ix[t], iy[t]) == reference.argmax, t
                assert (x[t], y[t]) == (reference.k.x, reference.k.y), t
    assert seen == tops


@st.composite
def _rno_node_reads(draw):
    """An rno configuration, the terms of a chunk of 0 to 4 trials (one map,
    or a mirrored pair, shifted or not) and ascending decode-plane columns
    and rows per trial, edges and clipped repeats included."""
    wo, ho = draw(st.integers(2, 96)), draw(st.integers(2, 96))
    wi, hi = (draw(st.integers(max(2, n // 2), min(4 * n, 200))) for n in (wo, ho))
    cfg = PipelineConfig(convention=draw(st.sampled_from(Convention)), input=PlaneSize(wi, hi),
                         output=PlaneSize(wo, ho), codec=Codec.CF, rno=True,
                         sigma=draw(st.sampled_from((0.05, 0.4, 1.0, 2.0, 7.5))))
    trials, pair = draw(st.integers(0, 4)), draw(st.booleans())

    def keypoints(extent):
        edges = st.sampled_from((0.0, extent))
        return np.array(draw(st.lists(edges | st.floats(0.0, extent), min_size=trials,
                                      max_size=trials)))

    def nodes(n):
        k, edges = draw(st.integers(1, 5)), st.sampled_from((0, n - 1))
        return np.array([sorted(draw(st.lists(edges | st.integers(0, n - 1), min_size=k,
                                              max_size=k))) for _ in range(trials)],
                        dtype=np.intp).reshape(trials, k)

    terms = [(keypoints(wo - 1), keypoints(ho - 1), False, 0)]
    if pair:
        terms.append((keypoints(wo - 1), keypoints(ho - 1), True, draw(st.integers(0, 1))))
    return cfg, terms, nodes(wi), nodes(hi)


def _rendered_rno_map(cfg, terms, t):
    """``rno_upsample`` of trial ``t``'s 2-D map: each term encoded, mirrored
    and shifted as the term says, two terms averaged."""
    maps = []
    for m, n, mirrored, shift in terms:
        grid = encode_gaussian(Point(m[t], n[t]), cfg.output, cfg.sigma).c
        grid = flip_heatmap(grid) if mirrored else grid
        maps.append(_shift_one_node(grid).data if shift else grid.data)
    data = maps[0] if len(maps) == 1 else 0.5 * (maps[0] + maps[1])
    return rno_upsample(ImageGrid(cfg.output, data), cfg).data[:, :, 0]


@settings(max_examples=150, deadline=None)
@given(case=_rno_node_reads())
def test_rno_node_values_equal_the_upsampled_map_bit_for_bit(case):
    # Every requested node, not only the decoded peak: a wrong value off the
    # peak leaves most decodes unchanged.
    cfg, terms, x, y = case
    with np.errstate(over="ignore"):  # the smallest sigma's exponents, as decode allows
        got = biaslab._AxisMaps(cfg)._values(terms, x, y)
    assert got.shape == (len(x), y.shape[1], x.shape[1])
    for t in range(len(x)):
        want = _rendered_rno_map(cfg, terms, t)[np.ix_(y[t], x[t])]
        assert got[t].tobytes() == want.tobytes(), t


def test_rno_values_read_the_output_nodes_once(monkeypatch):
    # One node-value pass per read under rno, whatever the box or window,
    # so a return to a pass per bilinear tap fails here.
    at, values, reads = biaslab._AxisMaps._at, biaslab._AxisMaps._values, []

    def spy_values(self, *args):
        reads.append(0)
        return values(self, *args)

    def spy_at(self, *args, **kwargs):
        reads[-1] += 1
        return at(self, *args, **kwargs)

    monkeypatch.setattr(biaslab._AxisMaps, "_values", spy_values)
    monkeypatch.setattr(biaslab._AxisMaps, "_at", spy_at)
    monkeypatch.setattr(biaslab, "_NODES", 200)  # several blocks
    monte_carlo(_RNO_CF, OracleMode.FULL_HEATMAP, 300, 3)
    assert len(reads) > 2 and set(reads) == {1}


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
    engine = biaslab._Engine(cfg, OracleMode.FULL_HEATMAP)
    decoder = decode_argmax if codec is Codec.ARGMAX_ONLY else decode_biased_quarter
    if flipped:
        mirrored_x = cfg.output.width_units - 10.75
        terms = engine._terms((np.array([10.25]), np.array([20.5])),
                              (np.array([mirrored_x]), np.array([20.5])))
        a, b = (encode_gaussian(Point(x, 20.5), OUT_SIZE, cfg.sigma).c
                for x in (10.25, mirrored_x))
        reference = decoder(ImageGrid(OUT_SIZE, 0.5 * (a.data + flip_heatmap(b).data)))
    else:
        terms = engine._terms((np.array([10.5]), np.array([20.5])))
        reference = decoder(encode_gaussian(Point(10.5, 20.5), OUT_SIZE, cfg.sigma).c)
    x, y, _, _ = engine.maps.decode(terms)
    assert reference.argmax == (10, 20)
    assert (x[0], y[0]) == (reference.k.x, reference.k.y)


# float.hex of (mean_abs_x, var_abs_x, mean_abs_x_source) for the bottom-up
# rno rows at seed 11: the ablate pins show 6 decimals, too few to see a
# last-bit change in the decode-plane maps.
_RNO_ROW_BITS = {
    ("analytic", "A"): ("0x1.7c01dd5dc2d1dp-2", "0x1.5ca2b6399e46fp-10", "0x1.7c01dd5dc2d1dp-1"),
    ("analytic", "D"): ("0x1.049ba5e353f7dp-50", "0x1.0e9466644c741p-99", "0x1.76c8b43958106p-49"),
    ("analytic", "F"): ("0x1.ff1286a32a3f6p-3", "0x1.5470a145680a0p-8", "0x1.ff1286a32a3f6p-3"),
    ("analytic", "G"): ("0x1.0000000000000p-2", "0x0.0p+0", "0x1.0000000000000p-2"),
    ("analytic", "J"): ("0x1.e2d0e56041893p-50", "0x1.e3976889cd8aep-98", "0x1.ac083126e978dp-49"),
    ("heatmap", "A"): ("0x1.af2b6287576e3p-2", "0x1.8f75ebd96b770p-5", "0x1.af2b6287576e3p-1"),
    ("heatmap", "D"): ("0x1.63ef2b372db90p-3", "0x1.9b55055319be1p-8", "0x1.6f6a7f30b354bp-2"),
    ("heatmap", "F"): ("0x1.2b4111fd46d7ep-2", "0x1.add5da0a1b641p-6", "0x1.2b4111fd46d7ep-2"),
    ("heatmap", "G"): ("0x1.1d192ec52ed02p-2", "0x1.39eec011261c7p-6", "0x1.1d192ec52ed02p-2"),
    ("heatmap", "J"): ("0x1.dece731e2c0abp-5", "0x1.27dd25e97efe3p-9", "0x1.e668136bdb6efp-5"),
}


@pytest.mark.parametrize("mode,row", list(_RNO_ROW_BITS), ids="-".join)
def test_rno_rows_are_pinned_to_the_bit(mode, row):
    stats = monte_carlo(dict(_bottomup_presets())[row], OracleMode(mode),
                        500 if mode == "analytic" else 60, 11)
    bits = (stats.mean_abs_x.hex(), stats.var_abs_x.hex(), stats.mean_abs_x_source.hex())
    assert bits == _RNO_ROW_BITS[mode, row]


# Every heatmap ablate row at seed 7, topdown at ``-n 5000`` (chunks of 4,096
# and 904) and bottomup at ``-n 300``, recorded while rendered maps were still
# decoded in blocks of a fixed trial count.
_HEATMAP_ABLATE_PIN = {
    ("topdown", "A"): (5000, 0, 0, 0, "0x1.004c9d9bb32e0p-3", "0x1.f78f1b842b09cp-4", "0x1.58fcf9fd72066p-8", "0x1.516be694a8841p-8", "0x1.004c9d9bb32e0p-2"),  # noqa: E501
    ("topdown", "B"): (5000, 0, 0, 0, "0x1.004c9d9bb32dfp-3", "0x1.f78f1b842b0a1p-4", "0x1.58fcf9fd7205cp-8", "0x1.516be694a8833p-8", "0x1.05c0a0f6295fep-2"),  # noqa: E501
    ("topdown", "C"): (5000, 0, 0, 0, "0x1.80f4a0701083ep-2", "0x1.f78f1b842b09cp-4", "0x1.530ddac8dc38cp-6", "0x1.516be694a8841p-8", "0x1.80f4a0701083ep-1"),  # noqa: E501
    ("topdown", "D"): (5000, 0, 0, 0, "0x1.004c9d9bb32dfp-3", "0x1.f78f1b842b0a1p-4", "0x1.58fcf9fd7205cp-8", "0x1.516be694a8833p-8", "0x1.05c0a0f6295fep-2"),  # noqa: E501
    ("topdown", "E"): (5000, 0, 0, 0, "0x1.3e62fd10f46dbp-3", "0x1.f78f1b842b09cp-4", "0x1.867b202c5105dp-7", "0x1.516be694a8841p-8", "0x1.3e62fd10f46dbp-2"),  # noqa: E501
    ("topdown", "F"): (5000, 0, 0, 0, "0x1.ff2c6aa2b05d0p-4", "0x1.f78f1b842b09cp-4", "0x1.4f5f697575132p-8", "0x1.516be694a8841p-8", "0x1.ff2c6aa2b05d0p-3"),  # noqa: E501
    ("topdown", "G"): (5000, 0, 0, 0, "0x1.8000000000000p-2", "0x0.0p+0", "0x1.3aa2bf03a2cc2p-103", "0x0.0p+0", "0x1.8000000000000p-1"),  # noqa: E501
    ("topdown", "H"): (5000, 0, 0, 0, "0x1.52339c0ebedfap-50", "0x0.0p+0", "0x1.0cb73f4e51e8fp-98", "0x0.0p+0", "0x1.c3afb7e90ff97p-48"),  # noqa: E501
    ("topdown", "I"): (5000, 0, 0, 0, "0x1.a7ef9db22d0e5p-51", "0x1.3a92a30553261p-60", "0x1.064d08518f3a1p-99", "0x1.3a42170dc4e7fp-110", "0x1.a5460aa64c2f8p-48"),  # noqa: E501
    ("bottomup", "A"): (300, 0, 0, 0, "0x1.962da27a3d44cp-2", "0x1.90317af5f9fd1p-3", "0x1.adfd201ef5236p-5", "0x1.1a9edb73e1898p-6", "0x1.962da27a3d44cp-1"),  # noqa: E501
    ("bottomup", "B"): (300, 0, 0, 0, "0x1.028a8e8d3671ap-3", "0x1.f381e16cea89fp-4", "0x1.51d0e8c418e09p-8", "0x1.5d53c176e785ep-8", "0x1.0ae19b687a43ap-2"),  # noqa: E501
    ("bottomup", "C"): (300, 0, 0, 0, "0x1.bbbbbbbbbbbbcp-52", "0x1.b4e81b4e81b4fp-59", "0x1.5cc0ed7303b5cp-101", "0x1.b4e81b4e81b4fp-109", "0x1.7777777777777p-50"),  # noqa: E501
    ("bottomup", "D"): (300, 0, 0, 0, "0x1.4554d9860ee73p-3", "0x1.3f6e9ff154620p-3", "0x1.fa767ecd301f9p-8", "0x1.dac4acbce6acfp-8", "0x1.4fd3752f8b40ep-2"),  # noqa: E501
    ("bottomup", "E"): (300, 0, 0, 0, "0x1.029bd14242926p-2", "0x1.0d35b9dfe2b31p-3", "0x1.4fe157716caa4p-6", "0x1.62029413d33d3p-8", "0x1.029bd14242926p-2"),  # noqa: E501
    ("bottomup", "F"): (300, 0, 0, 0, "0x1.0ffc812bec877p-2", "0x1.54e915e158937p-3", "0x1.dbb1693a27bcdp-6", "0x1.9fe505927ecd9p-7", "0x1.0ffc812bec877p-2"),  # noqa: E501
    ("bottomup", "G"): (300, 0, 0, 0, "0x1.03d724f57dd4fp-2", "0x1.0c804a65a0483p-3", "0x1.5061c9a43b5dfp-6", "0x1.75ab3b30a502fp-8", "0x1.03d724f57dd4dp-2"),  # noqa: E501
    ("bottomup", "H"): (300, 0, 0, 0, "0x1.03fef51b33275p-3", "0x1.0d35b9dfe2b3bp-3", "0x1.5c58d2a575c98p-8", "0x1.62029413d33b6p-8", "0x1.081f72e6ce611p-3"),  # noqa: E501
    ("bottomup", "I"): (300, 0, 0, 0, "0x1.e4b17e4b17e4bp-52", "0x0.0p+0", "0x1.2fc38ab0e07b2p-100", "0x0.0p+0", "0x1.0da740da740dap-49"),  # noqa: E501
    ("bottomup", "J"): (300, 0, 0, 0, "0x1.b3f2ae8538065p-5", "0x1.c73b30d2ae476p-5", "0x1.ff06abe246e5cp-10", "0x1.1bd93b5267fbcp-9", "0x1.bade2721befe8p-5"),  # noqa: E501
}


def _stats_bits(s):
    """An ablate row's counts and the ``float.hex`` of its five float fields."""
    return (s.n_trials, s.n_skipped, s.n_decode_failed, s.n_degenerate,
            *(v.hex() for v in (s.mean_abs_x, s.mean_abs_y, s.var_abs_x, s.var_abs_y,
                                s.mean_abs_x_source)))


def _heatmap_ablate_stats(keys, jobs):
    presets = {"topdown": dict(_topdown_presets()), "bottomup": dict(_bottomup_presets())}
    got = {}
    for preset, row in keys:
        s = monte_carlo(presets[preset][row], OracleMode.FULL_HEATMAP,
                        5000 if preset == "topdown" else 300, 7, jobs=jobs)
        got[preset, row] = _stats_bits(s)
    return got


@pytest.mark.parametrize("jobs", [1, 2])
def test_heatmap_ablate_rows_are_pinned_to_the_last_bit(jobs):
    assert _heatmap_ablate_stats(_HEATMAP_ABLATE_PIN, jobs) == _HEATMAP_ABLATE_PIN


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


def _same_float(got: float, want: float) -> bool:
    """Equal with ``==`` and in the sign bit, or both NaN."""
    if math.isnan(want):
        return math.isnan(got)
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


class TestExactSum:
    """``_fsum`` against ``math.fsum``, bit for bit."""

    @staticmethod
    def _check(values):
        # Zeros leave the sum alone; padded to _SHORT, a short array takes
        # the limb split too.
        values = np.asarray(values, dtype=np.float64)
        want = math.fsum(memoryview(values))
        for v in (values, np.concatenate([values, np.zeros(biaslab._SHORT)])):
            got = biaslab._fsum(v)
            assert _same_float(got, want), (len(v), got, want)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e300), max_size=64))
    def test_short_lists_of_values_up_to_1e300(self, values):
        self._check(values)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 1 << (53 - biaslab._LIMB)), seed=st.integers(0, 2**32 - 1),
           lo=st.integers(-1074, 996), span=st.integers(0, 2070), zeros=st.floats(0.0, 1.0))
    def test_long_arrays_of_wide_binade_spans(self, n, seed, lo, span, zeros):
        # Mantissas of 1 to 53 bits below 2**top for tops across `span`
        # binades from 2**lo (at most 2**996, about 7e299), and a share of
        # exact zeros: the remainder tail and subnormals run.
        rng = np.random.default_rng(seed)
        bits = rng.integers(1, 54, n)
        mantissa = np.floor(np.ldexp(rng.random(n), bits))
        top = np.minimum(rng.integers(lo, lo + span + 1, n), 996)
        values = np.ldexp(mantissa, top - bits)
        values[rng.random(n) < zeros] = 0.0
        self._check(values)

    @pytest.mark.parametrize("values", [
        [], [0.0], [0.0] * 4096, [5e-324], [1.0], [1e300], [0.1] * 3,
        [5e-324] * 4096, [2.2250738585072014e-308, 5e-324, 1e-310],
        [1.0, 1e-30, 2.0**-1074], [1e300, 1.0, 5e-324], [2.0**41 - 1.0, 0.5, 2.0**-83],
        [1.0, 2.0**-53, 2.0**-120],  # only the remainder tail breaks the rounding tie
    ], ids=lambda v: f"{len(v)}x{v[0] if v else 'empty'}")
    def test_edge_arrays(self, values):
        self._check(values)

    @pytest.mark.parametrize("values", [[math.inf], [1.0, math.inf, 2.0], [math.nan],
                                        [0.5, math.nan, math.inf]], ids=repr)
    def test_non_finite_values(self, values):
        self._check(values)

    def test_a_sum_past_the_largest_float_overflows_as_fsum_does(self):
        values = np.full(3, 1.7e308)
        with pytest.raises(OverflowError):
            math.fsum(memoryview(values))
        with pytest.raises(OverflowError):
            biaslab._fsum(values)

    @pytest.mark.parametrize("e", [biaslab._LOW_TOP - 1, biaslab._LOW_TOP,
                                   biaslab._HIGH_TOP, biaslab._HIGH_TOP + 1])
    def test_tops_on_each_side_of_the_limb_window(self, monkeypatch, e):
        # Every value just below 2**e rounds up to 2**e in the first limb, so
        # at the upper limit a chunk's limb column must still sum below
        # 2**1024; at the lower limit the second limb's grid reaches 2**-1074.
        below = math.ldexp(1.0 - 2.0**-53, e)
        rng, n = np.random.default_rng(e & 0xFFFF), biaslab._CHUNK - 1
        spread = np.ldexp(rng.random(n), rng.integers(e - 120, e, n))  # signed remainders
        fsum, seen = math.fsum, []
        monkeypatch.setattr(biaslab.math, "fsum", lambda v: seen.append(type(v)) or fsum(v))
        for values in (np.full(biaslab._CHUNK, below), np.concatenate(([below], spread))):
            try:
                want = fsum(memoryview(values))
            except OverflowError:
                want = OverflowError
            try:
                got = biaslab._fsum(values)
            except OverflowError:
                got = OverflowError
            assert got == want, (e, got, want)
        inside = biaslab._LOW_TOP <= e <= biaslab._HIGH_TOP
        assert seen == [list if inside else memoryview] * 2

    def test_the_limb_path_covers_a_chunk_and_falls_back_past_it(self, monkeypatch):
        # A chunk larger than one exact limb column would send every chunk
        # to the slow fallback and still pass every equality test above.
        assert biaslab._SHORT <= biaslab._CHUNK <= 1 << (53 - biaslab._LIMB)
        fsum, seen = math.fsum, []
        monkeypatch.setattr(biaslab.math, "fsum", lambda v: seen.append(v) or fsum(v))
        values = np.random.default_rng(5).random(biaslab._CHUNK + 1)
        lengths = (biaslab._SHORT - 1, biaslab._SHORT, biaslab._CHUNK, biaslab._CHUNK + 1)
        for n in lengths:
            assert biaslab._fsum(values[:n]) == fsum(memoryview(values[:n]))
        assert [type(v) for v in seen] == [memoryview, list, list, memoryview]
        assert [len(v) for v in seen[::3]] == [lengths[0], lengths[3]]


# Every analytic ablate row at ``-n 10000`` (chunks of 4,096, 4,096 and
# 1,808), recorded while the chunk sums were still ``math.fsum``.
_ANALYTIC_ABLATE_PIN = {
    ("topdown", 3, "A"): (10000, 0, 0, 0, "0x1.027adefdaac81p-3", "0x1.ffc88736fd7e4p-4", "0x1.52e5c4bbbf327p-8", "0x1.5a042aa80c340p-8", "0x1.027adefdaac81p-2"),  # noqa: E501
    ("topdown", 3, "B"): (10000, 0, 0, 0, "0x1.027adefdaac7ep-3", "0x1.ffc88736fd7dfp-4", "0x1.52e5c4bbbf320p-8", "0x1.5a042aa80c336p-8", "0x1.07fac30df5393p-2"),  # noqa: E501
    ("topdown", 3, "C"): (10000, 0, 0, 0, "0x1.7fdd869acb971p-2", "0x1.ffc88736fd7e4p-4", "0x1.596240ffe971ep-6", "0x1.5a042aa80c340p-8", "0x1.7fdd869acb971p-1"),  # noqa: E501
    ("topdown", 3, "D"): (10000, 0, 0, 0, "0x1.027adefdaac7ep-3", "0x1.ffc88736fd7dfp-4", "0x1.52e5c4bbbf320p-8", "0x1.5a042aa80c336p-8", "0x1.07fac30df5393p-2"),  # noqa: E501
    ("topdown", 3, "E"): (10000, 0, 0, 0, "0x1.4286eccef3c5bp-3", "0x1.ffc88736fd7e4p-4", "0x1.872160eea0611p-7", "0x1.5a042aa80c340p-8", "0x1.4286eccef3c5bp-2"),  # noqa: E501
    ("topdown", 3, "F"): (10000, 0, 0, 0, "0x1.01f7e082f05a9p-3", "0x1.ffc88736fd7e4p-4", "0x1.55a02bf8d71fbp-8", "0x1.5a042aa80c340p-8", "0x1.01f7e082f05a9p-2"),  # noqa: E501
    ("topdown", 3, "G"): (10000, 0, 0, 0, "0x1.8000000000000p-2", "0x0.0p+0", "0x1.66d871ace4e31p-103", "0x0.0p+0", "0x1.8000000000000p-1"),  # noqa: E501
    ("topdown", 3, "H"): (10000, 0, 0, 0, "0x1.52b367a0f9097p-50", "0x0.0p+0", "0x1.0adf533d2f4bfp-98", "0x0.0p+0", "0x1.c858793dd97f6p-48"),  # noqa: E501
    ("topdown", 3, "I"): (10000, 0, 0, 0, "0x1.405532617c1bep-50", "0x0.0p+0", "0x1.e9aafecd65ad3p-99", "0x0.0p+0", "0x1.c58793dd97f63p-48"),  # noqa: E501
    ("topdown", 7, "A"): (10000, 0, 0, 0, "0x1.fecdffcbaaf5bp-4", "0x1.ffe06c3c60019p-4", "0x1.5a751ad3cd3e5p-8", "0x1.5586f9d6e663bp-8", "0x1.fecdffcbaaf5bp-3"),  # noqa: E501
    ("topdown", 7, "B"): (10000, 0, 0, 0, "0x1.fecdffcbaaf56p-4", "0x1.ffe06c3c6001ap-4", "0x1.5a751ad3cd3dep-8", "0x1.5586f9d6e6630p-8", "0x1.04d6209393368p-2"),  # noqa: E501
    ("topdown", 7, "C"): (10000, 0, 0, 0, "0x1.80f889e56a7a8p-2", "0x1.ffe06c3c60019p-4", "0x1.55c92703f0dbap-6", "0x1.5586f9d6e663bp-8", "0x1.80f889e56a7a8p-1"),  # noqa: E501
    ("topdown", 7, "D"): (10000, 0, 0, 0, "0x1.fecdffcbaaf56p-4", "0x1.ffe06c3c6001ap-4", "0x1.5a751ad3cd3dep-8", "0x1.5586f9d6e6630p-8", "0x1.04d6209393368p-2"),  # noqa: E501
    ("topdown", 7, "E"): (10000, 0, 0, 0, "0x1.3e85267dcb132p-3", "0x1.ffe06c3c60019p-4", "0x1.8b30058143e6ap-7", "0x1.5586f9d6e663bp-8", "0x1.3e85267dcb132p-2"),  # noqa: E501
    ("topdown", 7, "F"): (10000, 0, 0, 0, "0x1.00fbec9db6736p-3", "0x1.ffe06c3c60019p-4", "0x1.4f3601536c498p-8", "0x1.5586f9d6e663bp-8", "0x1.00fbec9db6736p-2"),  # noqa: E501
    ("topdown", 7, "G"): (10000, 0, 0, 0, "0x1.8000000000000p-2", "0x0.0p+0", "0x1.488834a38c957p-103", "0x0.0p+0", "0x1.8000000000000p-1"),  # noqa: E501
    ("topdown", 7, "H"): (10000, 0, 0, 0, "0x1.4ac083126e979p-50", "0x0.0p+0", "0x1.07a921ac6b3d7p-98", "0x0.0p+0", "0x1.beecbfb15b574p-48"),  # noqa: E501
    ("topdown", 7, "I"): (10000, 0, 0, 0, "0x1.3e76c8b439581p-50", "0x0.0p+0", "0x1.e19e32384d982p-99", "0x0.0p+0", "0x1.c7525460aa64cp-48"),  # noqa: E501
    ("bottomup", 3, "A"): (10000, 0, 0, 0, "0x1.7feb09da2e7b7p-2", "0x1.ffb489d066a81p-6", "0x1.54ede8d68a80fp-10", "0x1.54658f557bd9ep-12", "0x1.7feb09da2e7b7p-1"),  # noqa: E501
    ("bottomup", 3, "B"): (10000, 0, 0, 0, "0x1.0059f799fad56p-3", "0x1.faf265be8f3f9p-4", "0x1.510c83e013e16p-8", "0x1.532a39bf3d6e8p-8", "0x1.089eef128f4ffp-2"),  # noqa: E501
    ("bottomup", 3, "C"): (10000, 0, 0, 0, "0x1.256d5cfaacd9fp-50", "0x0.0p+0", "0x1.0880d9b61dc2ep-99", "0x0.0p+0", "0x1.0432ca57a786cp-49"),  # noqa: E501
    ("bottomup", 3, "D"): (10000, 0, 0, 0, "0x1.06c8b43958106p-50", "0x1.76c8b43958106p-52", "0x1.0f9e05a6a7bf0p-99", "0x1.0b18e06072247p-100", "0x1.6305532617c1cp-49"),  # noqa: E501
    ("bottomup", 3, "E"): (10000, 0, 0, 0, "0x1.00118c92b4796p-2", "0x1.ffc88736fd7e4p-4", "0x1.55f5fd3a55c1fp-6", "0x1.5a042aa80c340p-8", "0x1.00118c92b4796p-2"),  # noqa: E501
    ("bottomup", 3, "F"): (10000, 0, 0, 0, "0x1.00e343aa0d5b8p-2", "0x1.0286fd2cbb483p-4", "0x1.5579a37296d11p-8", "0x1.53a4a80abee33p-10", "0x1.00e343aa0d5b8p-2"),  # noqa: E501
    ("bottomup", 3, "G"): (10000, 0, 0, 0, "0x1.0000000000000p-2", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p-2"),  # noqa: E501
    ("bottomup", 3, "H"): (10000, 0, 0, 0, "0x1.ff721f70d2298p-4", "0x1.ffc88736fd7e1p-4", "0x1.5585f1332db71p-8", "0x1.5a042aa80c338p-8", "0x1.03c8307a525e4p-3"),  # noqa: E501
    ("bottomup", 3, "I"): (10000, 0, 0, 0, "0x1.a87fcb923a29cp-50", "0x0.0p+0", "0x1.94af645cabb85p-98", "0x0.0p+0", "0x1.78d4fdf3b645ap-49"),  # noqa: E501
    ("bottomup", 3, "J"): (10000, 0, 0, 0, "0x1.d0624dd2f1aa0p-50", "0x1.ddcc63f141206p-52", "0x1.befecf9ed1185p-98", "0x1.7c491f7fb1f91p-99", "0x1.cf9096bb98c7ep-49"),  # noqa: E501
    ("bottomup", 7, "A"): (10000, 0, 0, 0, "0x1.7f70dc7103446p-2", "0x1.fb005f74189ddp-6", "0x1.5aa487cad1513p-10", "0x1.5953fdd23b501p-12", "0x1.7f70dc7103446p-1"),  # noqa: E501
    ("bottomup", 7, "B"): (10000, 0, 0, 0, "0x1.fe884acd79610p-4", "0x1.013633cf4bb42p-3", "0x1.5b1c7da7e89bfp-8", "0x1.5044cba685580p-8", "0x1.0780269b997c6p-2"),  # noqa: E501
    ("bottomup", 7, "C"): (10000, 0, 0, 0, "0x1.258793dd97f63p-50", "0x0.0p+0", "0x1.02e1a15cf9e0dp-99", "0x0.0p+0", "0x1.0bfb15b573eabp-49"),  # noqa: E501
    ("bottomup", 7, "D"): (10000, 0, 0, 0, "0x1.03f7ced916873p-50", "0x1.6474538ef34d7p-52", "0x1.07f854de91fa4p-99", "0x1.02d2b2a0b70b1p-100", "0x1.657a786c22681p-49"),  # noqa: E501
    ("bottomup", 7, "E"): (10000, 0, 0, 0, "0x1.0004845b0c432p-2", "0x1.ffe06c3c60019p-4", "0x1.5a4a3f6ae4445p-6", "0x1.5586f9d6e663bp-8", "0x1.0004845b0c432p-2"),  # noqa: E501
    ("bottomup", 7, "F"): (10000, 0, 0, 0, "0x1.ffe1b661b7dbep-3", "0x1.00ff0f4fa93d0p-4", "0x1.59cc58d114d90p-8", "0x1.4e05180e9678bp-10", "0x1.ffe1b661b7dbep-3"),  # noqa: E501
    ("bottomup", 7, "G"): (10000, 0, 0, 0, "0x1.0000000000000p-2", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p-2"),  # noqa: E501
    ("bottomup", 7, "H"): (10000, 0, 0, 0, "0x1.fc2f80f113520p-4", "0x1.ffe06c3c60019p-4", "0x1.59bdd9fe5dce8p-8", "0x1.5586f9d6e6626p-8", "0x1.0220417e83b7ep-3"),  # noqa: E501
    ("bottomup", 7, "I"): (10000, 0, 0, 0, "0x1.a91d14e3bcd36p-50", "0x0.0p+0", "0x1.99452cdfe3d21p-98", "0x0.0p+0", "0x1.7487fcb923a2ap-49"),  # noqa: E501
    ("bottomup", 7, "J"): (10000, 0, 0, 0, "0x1.cebedfa43fe5dp-50", "0x1.0068db8bac711p-51", "0x1.c3868ec3d97edp-98", "0x1.8da21ebaf9213p-99", "0x1.cd013a92a3055p-49"),  # noqa: E501
}


def _analytic_ablate_stats(keys, jobs):
    presets = {"topdown": dict(_topdown_presets()), "bottomup": dict(_bottomup_presets())}
    got = {}
    for preset, seed, row in keys:
        s = monte_carlo(presets[preset][row], OracleMode.ANALYTIC_SHIFT, 10000, seed, jobs=jobs)
        got[preset, seed, row] = _stats_bits(s)
    return got


def test_analytic_ablate_rows_are_pinned_to_the_last_bit():
    assert _analytic_ablate_stats(_ANALYTIC_ABLATE_PIN, jobs=1) == _ANALYTIC_ABLATE_PIN


def test_analytic_ablate_pin_holds_for_two_workers():
    keys = [key for key in _ANALYTIC_ABLATE_PIN if key[:2] == ("bottomup", 7)]
    assert _analytic_ablate_stats(keys, jobs=2) == {k: _ANALYTIC_ABLATE_PIN[k] for k in keys}


def test_seed_outside_64_bits_is_refused():
    # Reduced mod 2**64, these would draw what 2**64 - 1, 0 and 5 draw.
    cfg = make_cfg()
    for seed in (-1, 1 << 64, 2**64 + 5):
        for run in (lambda s: monte_carlo(cfg, OracleMode.ANALYTIC_SHIFT, 10, s),
                    SplitMix64, lambda s: substream(s, 5)):
            with pytest.raises(ValueError, match=r"seed must be in 0\.\.2\*\*64-1"):
                run(seed)
    assert monte_carlo(cfg, OracleMode.ANALYTIC_SHIFT, 10, (1 << 64) - 1).n_trials == 10


_OVERFLOW = "source-plane error sum overflows a float: crop box too large"


def test_a_chunk_whose_source_error_sum_overflows_is_refused():
    # One chunk of 2,000 trials, each source error near 1e308 wide.
    sampler = UniformKeypointSampler(Roi(1e308, 1.0, 1e308, 1.0))
    with pytest.raises(ValueError, match=_OVERFLOW):
        monte_carlo(make_cfg(codec=Codec.CF_BIASED_DECODE), OracleMode.ANALYTIC_SHIFT, 2000, 1,
                    sampler)


@pytest.mark.parametrize("jobs", [1, 2])
def test_chunk_sums_whose_total_overflows_are_refused(jobs):
    # Each 4,096-trial chunk sums to a finite ~1e308; two of them overflow.
    cfg, sampler = make_cfg(codec=Codec.CF_BIASED_DECODE), UniformKeypointSampler(
        Roi(1e307, 1.0, 1e307, 1.0))
    one = monte_carlo(cfg, OracleMode.ANALYTIC_SHIFT, 4096, 1, sampler)
    assert math.isfinite(one.mean_abs_x_source * one.n_trials)
    with pytest.raises(ValueError, match=_OVERFLOW):
        monte_carlo(cfg, OracleMode.ANALYTIC_SHIFT, 8192, 1, sampler, jobs=jobs)


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

    @pytest.mark.parametrize("field", ["var_abs_x", "var_abs_y"])
    def test_refuses_a_negative_variance(self, field):
        fields = dict(label="x", n_trials=1, mean_abs_x=0.0, mean_abs_y=0.0, var_abs_x=0.0,
                      var_abs_y=0.0, mean_abs_x_source=0.0, n_skipped=0, n_decode_failed=0,
                      n_degenerate=0)
        with pytest.raises(ValueError, match=r"^variances cannot be negative$"):
            ErrorStats(**{**fields, field: -1e-300})
