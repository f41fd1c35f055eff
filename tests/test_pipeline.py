import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keypose.codec import encode_gaussian
from keypose.geometry import (
    PlaneSize,
    Point,
    Roi,
    apply_point,
    compose,
    invert,
    t_flip,
)
from keypose.pipeline import (
    Codec,
    Combine,
    Compensation,
    Convention,
    PipelineConfig,
    config_from_text,
    config_to_text,
    flip_combine,
    input_to_output,
    load_config,
    output_to_source,
    rno_upsample,
    save_config,
    swap_flip_pairs,
    train_transform,
)
from keypose.pipeline import test_transform as source_to_input

IN_SIZE = PlaneSize(192, 256)
OUT_SIZE = PlaneSize(48, 64)


def make_cfg(convention=Convention.UNIT_LENGTH, **kwargs) -> PipelineConfig:
    return PipelineConfig(convention=convention, input=IN_SIZE, output=OUT_SIZE, **kwargs)


def random_roi(rng) -> Roi:
    return Roi(
        cx=float(rng.uniform(-200, 800)),
        cy=float(rng.uniform(-200, 800)),
        w=float(rng.uniform(5, 500)),
        h=float(rng.uniform(5, 500)),
    )


def random_sizes(rng) -> tuple[PlaneSize, PlaneSize]:
    return (
        PlaneSize(int(rng.integers(16, 512)), int(rng.integers(16, 512))),
        PlaneSize(int(rng.integers(8, 128)), int(rng.integers(8, 128))),
    )


class TestConfig:
    def test_stride_derived_from_pixel_counts(self):
        assert make_cfg().stride == 4.0

    def test_compensation_requires_flip(self):
        with pytest.raises(ValueError):
            make_cfg(compensation=Compensation.SNOOP)

    def test_default_combine_per_codec(self):
        assert make_cfg(codec=Codec.CCRF).combine is Combine.AVERAGE_COORDS
        assert make_cfg(codec=Codec.CF).combine is Combine.AVERAGE_HEATMAPS
        assert make_cfg(codec=Codec.CF_BIASED_DECODE).combine is Combine.AVERAGE_HEATMAPS

    def test_default_radius_tracks_output_width(self):
        assert make_cfg().radius == 3.0
        cfg = PipelineConfig(Convention.UNIT_LENGTH, PlaneSize(384, 512), PlaneSize(96, 128))
        assert cfg.radius == 6.0

    def test_rno_restrictions(self):
        with pytest.raises(ValueError):
            make_cfg(codec=Codec.CCRF, rno=True)
        with pytest.raises(ValueError):
            make_cfg(codec=Codec.CF, rno=True, flip_test=True, combine=Combine.AVERAGE_COORDS)

    def test_config_text_round_trip(self):
        cfg = make_cfg(
            convention=Convention.PIXEL_COUNT,
            flip_test=True,
            compensation=Compensation.SNOOP_PLUS_EC,
            codec=Codec.CF_BIASED_DECODE,
            sigma=1.75,
            radius=2.5,
            flip_pairs=((1, 2), (3, 4)),
        )
        assert config_from_text(config_to_text(cfg)) == cfg

    def test_config_file_round_trip(self, tmp_path):
        cfg = make_cfg(flip_test=True, codec=Codec.CF)
        path = tmp_path / "pipeline.cfg"
        save_config(path, cfg)
        assert load_config(path) == cfg

    def test_config_file_passes_overrides_through(self, tmp_path):
        path = tmp_path / "pipeline.cfg"
        save_config(path, make_cfg(codec=Codec.CF))
        assert load_config(path, sigma=1.5) == config_from_text(path.read_text(), sigma=1.5)

    def test_config_file_that_is_not_ascii_is_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"convention=unit_length\n# caf\xc3\xa9\ninput_px=8x8\noutput_px=4x4\n")
        with pytest.raises(ValueError) as excinfo:
            load_config(path)
        assert str(excinfo.value) == (f"{path}: 'ascii' codec can't decode byte 0xc3 in "
                                      "position 28: ordinal not in range(128)")

    def test_comment_and_blank_lines_are_skipped(self):
        text = "# planes\n\nconvention=unit_length\n   \ninput_px=8x8\n  # note\noutput_px=4x4\n"
        expected = PipelineConfig(convention=Convention.UNIT_LENGTH, input=PlaneSize(8, 8),
                                  output=PlaneSize(4, 4))
        assert config_from_text(text) == expected

    @pytest.mark.parametrize("text,message", [
        ("convention=unit_length\ninput_px=8x8\noutput_px=4x4\nflip_test\n",
         "config line 4: expected key=value, got 'flip_test'"),
        ("convention=unit_length\ninput_px=8x8\noutput_px=4x4\nflip_test=yes\n",
         "config key flip_test: expected true/false, got 'yes'"),
        ("convention=unit_length\n", "missing config keys: ['input_px', 'output_px']"),
    ], ids=["no-equals-sign", "not-a-boolean", "missing-keys"])
    def test_malformed_text_is_refused_with_its_reason(self, text, message):
        with pytest.raises(ValueError) as excinfo:
            config_from_text(text)
        assert str(excinfo.value) == message

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            config_from_text("convention=unit_length\ninput_px=8x8\noutput_px=4x4\nbogus=1\n")

    @pytest.mark.parametrize("field", ["sigma", "radius"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_non_finite_or_non_positive_widths_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
            make_cfg(**{field: value})

    def test_config_text_with_nan_sigma_rejected(self):
        text = "convention=unit_length\ninput_px=8x8\noutput_px=4x4\ncodec=cf\nsigma=nan\n"
        with pytest.raises(ValueError, match="sigma must be finite and positive, got nan"):
            config_from_text(text)

    def test_sigma_whose_square_underflows_rejected(self):
        with pytest.raises(ValueError, match="sigma is too small: .* got 1e-320"):
            make_cfg(sigma=1e-320)

    def test_overrides_apply_before_the_config_is_built(self):
        text = "convention=unit_length\ninput_px=192x256\noutput_px=48x64\ncodec=ccrf\n"
        # Valid only together with the override: rno refuses the disc codec.
        with pytest.raises(ValueError, match="rno cannot be used with the ccrf codec"):
            config_from_text(text + "rno=true\n")
        cfg = config_from_text(text + "rno=true\n", codec=Codec.CF)
        assert (cfg.codec, cfg.rno) == (Codec.CF, True)
        # Fields neither sets follow the final codec and output plane ...
        cfg = config_from_text(text, codec=Codec.CF, output=PlaneSize(96, 128))
        assert (cfg.combine, cfg.radius) == (Combine.AVERAGE_HEATMAPS, 6.0)
        # ... and fields the text sets survive overrides of others.
        pinned = text + "combine=average_heatmaps\nradius=0.8\n"
        cfg = config_from_text(pinned, codec=Codec.CCRF, output=PlaneSize(96, 128))
        assert (cfg.combine, cfg.radius) == (Combine.AVERAGE_HEATMAPS, 0.8)
        # Overrides replace the text's own values.
        assert config_from_text(pinned, radius=2.0).radius == 2.0


class TestTrainTransform:
    def test_full_plane_roi_same_size_is_identity(self):
        # Unit-length convention, crop box covering the whole source plane,
        # input plane equal to the source plane: nothing moves.
        cfg = make_cfg()
        w, h = cfg.input.width_units, cfg.input.height_units
        roi = Roi(cx=0.5 * w, cy=0.5 * h, w=w, h=h)
        t = train_transform(roi, 0.0, False, cfg)
        assert np.allclose(t.m, np.eye(3), atol=1e-12)

    def test_resize_factor_unit_vs_pixel(self):
        roi = Roi(100.0, 100.0, 96.0, 128.0)
        unit = train_transform(roi, 0.0, False, make_cfg())
        assert unit.m[0, 0] == 191.0 / 96.0
        pixel = train_transform(roi, 0.0, False, make_cfg(convention=Convention.PIXEL_COUNT))
        assert pixel.m[0, 0] == 192.0 / 96.0

    def test_factor_order_flip_rot_resize_crop(self):
        rng = np.random.default_rng(21)
        cfg = make_cfg()
        roi = random_roi(rng)
        theta = 0.3
        t = train_transform(roi, theta, True, cfg)
        from keypose.geometry import t_crop, t_resize, t_rotate

        center = Point(0.5 * cfg.input.width_units, 0.5 * cfg.input.height_units)
        explicit = compose(
            t_flip(cfg.input.width_units),
            compose(
                t_rotate(theta, center),
                compose(
                    t_resize(roi.w, roi.h, cfg.input.width_units, cfg.input.height_units),
                    t_crop(roi),
                ),
            ),
        )
        assert np.allclose(t.m, explicit.m, atol=1e-12)

    def test_test_transform_has_no_flip_or_rotation(self):
        rng = np.random.default_rng(22)
        roi = random_roi(rng)
        cfg = make_cfg()
        assert np.array_equal(
            source_to_input(roi, cfg).m, train_transform(roi, 0.0, False, cfg).m
        )


class TestChains:
    def test_input_to_output_scales(self):
        assert input_to_output(make_cfg()).m[0, 0] == 47.0 / 191.0
        assert input_to_output(make_cfg(convention=Convention.PIXEL_COUNT)).m[0, 0] == 0.25

    @pytest.mark.parametrize("convention", [Convention.UNIT_LENGTH, Convention.PIXEL_COUNT])
    def test_round_trip_chain_is_identity(self, convention):
        rng = np.random.default_rng(23)
        worst = 0.0
        for _ in range(1000):
            in_size, out_size = random_sizes(rng)
            cfg = PipelineConfig(convention=convention, input=in_size, output=out_size)
            roi = random_roi(rng)
            chain = compose(
                output_to_source(roi, cfg),
                compose(input_to_output(cfg), source_to_input(roi, cfg)),
            )
            p = Point(float(rng.uniform(-300, 900)), float(rng.uniform(-300, 900)))
            q = apply_point(chain, p)
            worst = max(worst, abs(q.x - p.x), abs(q.y - p.y))
        assert worst < 1e-9

    def test_flip_alignment_unit_length(self):
        rng = np.random.default_rng(24)
        worst = 0.0
        for _ in range(1000):
            in_size, out_size = random_sizes(rng)
            cfg = PipelineConfig(Convention.UNIT_LENGTH, in_size, out_size)
            i2o = input_to_output(cfg)
            chain = compose(
                t_flip(out_size.width_units), compose(i2o, t_flip(in_size.width_units))
            )
            worst = max(worst, float(np.max(np.abs(chain.m - i2o.m))))
        assert worst < 1e-9

    def test_flip_defect_pixel_count(self):
        rng = np.random.default_rng(25)
        for _ in range(300):
            in_size, out_size = random_sizes(rng)
            cfg = PipelineConfig(Convention.PIXEL_COUNT, in_size, out_size)
            s = cfg.stride
            i2o = input_to_output(cfg)
            chain = compose(
                t_flip(out_size.width_units), compose(i2o, t_flip(in_size.width_units))
            )
            defect = compose(chain, invert(i2o))
            assert defect.m[0, 2] == pytest.approx((1.0 - s) / s, abs=1e-12)
            assert defect.m[1, 2] == pytest.approx(0.0, abs=1e-12)

    def test_residual_maps_to_source_as_crop_over_twice_input(self):
        # Pushing the 1/(2s) output-space residual through the back
        # transform's linear part must give roi.w / (2 * input_px) exactly.
        cfg = make_cfg(convention=Convention.PIXEL_COUNT)
        roi = Roi(100.0, 120.0, 96.0, 128.0)
        back = output_to_source(roi, cfg)
        residual = 1.0 / (2.0 * cfg.stride)
        mapped = back.m[0, 0] * residual
        assert mapped == roi.w / (2.0 * cfg.input.width_px)

    def test_source_error_without_compensation(self):
        cfg = make_cfg(convention=Convention.PIXEL_COUNT)
        roi = Roi(100.0, 120.0, 96.0, 128.0)
        back = output_to_source(roi, cfg)
        s = cfg.stride
        mapped = back.m[0, 0] * (s - 1.0) / (2.0 * s)
        assert mapped == pytest.approx(roi.w * (s - 1.0) / (2.0 * cfg.input.width_px), abs=1e-15)


class TestFlipCombine:
    def ideal_pair(self, cfg, k_i: Point) -> tuple[Point, Point]:
        i2o = input_to_output(cfg)
        k_o = apply_point(i2o, k_i)
        k_o_flip = apply_point(i2o, apply_point(t_flip(cfg.input.width_units), k_i))
        return k_o, k_o_flip

    def test_unit_length_combined_equals_original(self):
        cfg = make_cfg(flip_test=True)
        k_o, k_o_flip = self.ideal_pair(cfg, Point(30.0, 40.0))
        merged = flip_combine(k_o, k_o_flip, cfg)
        assert merged.x == pytest.approx(k_o.x, abs=1e-12)
        assert merged.y == pytest.approx(k_o.y, abs=1e-12)

    def test_pixel_count_error_cases(self):
        for comp, expected in (
            (Compensation.NONE, 0.375),
            (Compensation.SNOOP, 0.125),
            (Compensation.SNOOP_PLUS_EC, 0.0),
        ):
            cfg = make_cfg(
                convention=Convention.PIXEL_COUNT, flip_test=True, compensation=comp
            )
            k_o, k_o_flip = self.ideal_pair(cfg, Point(30.0, 40.0))
            merged = flip_combine(k_o, k_o_flip, cfg)
            assert abs(merged.x - k_o.x) == pytest.approx(expected, abs=1e-12)
            assert merged.y == pytest.approx(k_o.y, abs=1e-12)

    def test_requires_flip_test(self):
        with pytest.raises(ValueError):
            flip_combine(Point(0, 0), Point(0, 0), make_cfg())


class TestRnoUpsample:
    def test_output_has_input_resolution_and_peak_moves_with_scale(self):
        cfg = make_cfg(codec=Codec.CF)
        k = Point(20.0, 24.0)
        heatmap = encode_gaussian(k, cfg.output, cfg.sigma).c
        up = rno_upsample(heatmap, cfg)
        assert up.size == cfg.input
        iy, ix = np.unravel_index(np.argmax(up.data[:, :, 0]), up.data.shape[:2])
        scale = cfg.input.width_units / cfg.output.width_units
        assert ix == pytest.approx(k.x * scale, abs=1.0)
        assert iy == pytest.approx(k.y * scale, abs=1.0)


class TestSwapFlipPairs:
    @given(st.lists(st.integers(min_value=0, max_value=10), min_size=6, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_involution(self, xs):
        points = [Point(float(v), 0.0) for v in xs]
        pairs = ((0, 1), (2, 5))
        once = swap_flip_pairs(points, pairs)
        twice = swap_flip_pairs(once, pairs)
        assert twice == points

    def test_listed_pairs_exchanged(self):
        points = [Point(float(i), 0.0) for i in range(4)]
        swapped = swap_flip_pairs(points, ((1, 3),))
        assert [p.x for p in swapped] == [0.0, 3.0, 2.0, 1.0]
