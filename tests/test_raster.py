import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keypose.cli import _bottomup_presets
from keypose.codec import encode_gaussian
from keypose.geometry import (
    PlaneSize,
    Point,
    SingularTransformError,
    Transform2D,
    apply_point,
    identity,
    invert,
    t_flip,
    t_resize,
)
from keypose.pipeline import input_to_output, rno_upsample
from keypose.raster import (
    BorderPolicy,
    ImageGrid,
    _bilinear_many,
    _pgm_tokens,
    bilinear_sample,
    flip_heatmap,
    read_grid_text,
    read_pgm,
    warp,
    write_grid_text,
    write_pgm,
)


def linear_field(width_px: int, height_px: int, a: float, b: float, c: float) -> ImageGrid:
    xs = np.arange(width_px, dtype=np.float64)
    ys = np.arange(height_px, dtype=np.float64)
    return ImageGrid.from_array(a + b * xs[None, :] + c * ys[:, None])


def inverse_mapping_reference(
    src: ImageGrid, t: Transform2D, dst_size: PlaneSize, policy: BorderPolicy
) -> np.ndarray:
    """The general warp: backtrack every destination node and sample it."""
    inv = invert(t).m
    gx, gy = np.meshgrid(
        np.arange(dst_size.width_px, dtype=np.float64),
        np.arange(dst_size.height_px, dtype=np.float64),
    )
    sx = inv[0, 0] * gx + inv[0, 1] * gy + inv[0, 2]
    sy = inv[1, 0] * gx + inv[1, 1] * gy + inv[1, 2]
    flat = _bilinear_many(src.data, sx.ravel(), sy.ravel(), policy)
    return flat.reshape(dst_size.height_px, dst_size.width_px, src.channels)


def assert_bitwise_equal(a: np.ndarray, b: np.ndarray) -> None:
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


class TestImageGrid:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ImageGrid(PlaneSize(4, 3), np.zeros((4, 4)))

    def test_nonfinite_rejected(self):
        data = np.zeros((3, 3))
        data[1, 1] = np.nan
        with pytest.raises(ValueError):
            ImageGrid(PlaneSize(3, 3), data)

    def test_data_read_only(self):
        grid = ImageGrid.from_array(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            grid.data[0, 0, 0] = 1.0


class TestBilinearSample:
    def test_integer_position_returns_stored_value(self):
        rng = np.random.default_rng(0)
        grid = ImageGrid.from_array(rng.uniform(0, 10, size=(5, 7)))
        assert bilinear_sample(grid, Point(2.0, 3.0))[0] == grid.data[3, 2, 0]

    def test_midpoint_of_linear_ramp(self):
        grid = ImageGrid.from_array(np.array([[10.0, 20.0], [10.0, 20.0]]))
        assert bilinear_sample(grid, Point(0.5, 0.0))[0] == 15.0

    def test_fully_outside_zero_fill(self):
        grid = ImageGrid.from_array(np.full((3, 3), 9.0))
        assert bilinear_sample(grid, Point(-1.0, -1.0))[0] == 0.0

    def test_fully_outside_clamp(self):
        grid = ImageGrid.from_array(np.arange(9, dtype=float).reshape(3, 3))
        v = bilinear_sample(grid, Point(-5.0, -5.0), BorderPolicy.CLAMP_TO_EDGE)
        assert v[0] == grid.data[0, 0, 0]

    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=2, max_value=6),
        st.floats(min_value=0.0, max_value=4.99, allow_nan=False),
        st.floats(min_value=0.0, max_value=4.99, allow_nan=False),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_convex_combination_of_support(self, w, h, fx, fy, seed):
        rng = np.random.default_rng(seed)
        grid = ImageGrid.from_array(rng.uniform(-5, 5, size=(h, w)))
        # Keep the full 2x2 support in bounds so the bound is tight.
        x = min(fx, w - 1.001)
        y = min(fy, h - 1.001)
        x0, y0 = int(np.floor(x)), int(np.floor(y))
        support = grid.data[y0 : y0 + 2, x0 : x0 + 2, 0]
        v = bilinear_sample(grid, Point(x, y))[0]
        assert support.min() - 1e-12 <= v <= support.max() + 1e-12


class TestFarPositions:
    # On a 3x4 ramp, row 1 holds 4, 5, 6, 7: the left edge reads 4 and the
    # right edge 7.  Positions at or beyond 2**63 once overflowed the integer
    # cast and read the left edge whatever their sign.
    @pytest.mark.parametrize("policy", list(BorderPolicy))
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_far_positions_read_the_near_edge(self, sign, policy):
        grid = ImageGrid.from_array(np.arange(12, dtype=float).reshape(3, 4))
        clamp = policy is BorderPolicy.CLAMP_TO_EDGE
        col = 3 if sign > 0 else 0
        for x in (sign * 1e19, sign * 2.0**63, sign * 1e300):
            v = bilinear_sample(grid, Point(x, 1.0), policy)[0]
            assert v == (grid.data[1, col, 0] if clamp else 0.0)
        # An axis-aligned warp: every destination node backtracks to
        # x = sign * 1e19.
        far = Transform2D([[1.0, 0.0, -sign * 1e19], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        out = warp(grid, far, grid.size, policy).data[:, :, 0]
        expected = np.repeat(grid.data[:, col : col + 1, 0], 4, axis=1)
        assert np.array_equal(out, expected if clamp else np.zeros_like(out))


class TestWarp:
    def test_identity_is_bit_exact(self):
        rng = np.random.default_rng(1)
        grid = ImageGrid.from_array(rng.uniform(0, 100, size=(6, 9, 2)))
        out = warp(grid, identity(), grid.size)
        assert np.array_equal(out.data, grid.data)

    def test_flip_reverses_columns_exactly(self):
        rng = np.random.default_rng(2)
        grid = ImageGrid.from_array(rng.uniform(0, 100, size=(4, 7)))
        out = warp(grid, t_flip(grid.size.width_units), grid.size)
        assert np.array_equal(out.data, grid.data[:, ::-1, :])

    def test_integer_translation_is_exact_permutation(self):
        rng = np.random.default_rng(3)
        grid = ImageGrid.from_array(rng.uniform(0, 100, size=(6, 6)))
        shift = Transform2D([[1.0, 0.0, 2.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
        out = warp(grid, shift, grid.size, BorderPolicy.ZERO_FILL)
        assert np.array_equal(out.data[1:, 2:, 0], grid.data[:-1, :-2, 0])
        assert np.all(out.data[:1, :, 0] == 0.0)
        assert np.all(out.data[:, :2, 0] == 0.0)

    def test_quarter_turn_about_center_is_exact_permutation(self):
        # Exact quarter-turn matrix about the center of a square grid:
        # entries are integers, so every node maps to a node.
        rng = np.random.default_rng(4)
        n = 7
        grid = ImageGrid.from_array(rng.uniform(0, 100, size=(n, n)))
        w = float(n - 1)
        quarter = Transform2D([[0.0, -1.0, w], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        out = warp(grid, quarter, grid.size)
        assert np.array_equal(out.data[:, :, 0], np.rot90(grid.data[:, :, 0], k=-1))

    def test_ramp_upscale_matches_closed_form(self):
        # f(x, y) = x on a 3x3-pixel grid, resized (unit-length extents
        # 2 -> 4) onto 5x5 pixels.  Oracle: destination node (x, y) reads
        # the source at (x/2, y/2), where the field evaluates to x/2.
        src = linear_field(3, 3, 0.0, 1.0, 0.0)
        t = t_resize(2.0, 2.0, 4.0, 4.0)
        out = warp(src, t, PlaneSize(5, 5))
        expected = np.arange(5, dtype=float)[None, :] / 2.0
        assert np.max(np.abs(out.data[:, :, 0] - expected)) < 1e-12

    def test_linear_field_exact_under_affine_with_inbounds_support(self):
        # Bilinear interpolation reproduces linear fields exactly, so a warp
        # whose backtracked nodes stay in bounds equals the transformed field.
        a, b, c = 3.0, 0.7, -0.4
        src = linear_field(21, 17, a, b, c)
        # Build the backtracking map first so its range is in bounds by
        # construction, then warp with its inverse.
        back_map = Transform2D([[1.2, 0.1, 3.0], [0.05, 1.1, 2.0], [0.0, 0.0, 1.0]])
        t = invert(back_map)
        inv = invert(t).m
        out = warp(src, t, PlaneSize(12, 12))
        xs, ys = np.meshgrid(np.arange(12, dtype=float), np.arange(12, dtype=float))
        sx = inv[0, 0] * xs + inv[0, 1] * ys + inv[0, 2]
        sy = inv[1, 0] * xs + inv[1, 1] * ys + inv[1, 2]
        assert sx.min() >= 0 and sx.max() <= 20 and sy.min() >= 0 and sy.max() <= 16
        expected = a + b * sx + c * sy
        assert np.max(np.abs(out.data[:, :, 0] - expected)) < 1e-9

    def test_double_warp_identity_on_interior_for_linear_fields(self):
        src = linear_field(15, 15, 1.0, 0.5, 0.25)
        t = Transform2D([[1.0, 0.0, 0.3], [0.0, 1.0, -0.2], [0.0, 0.0, 1.0]])
        there = warp(src, t, src.size)
        back = warp(there, invert(t), src.size)
        interior = (slice(2, -2), slice(2, -2), 0)
        assert np.max(np.abs(back.data[interior] - src.data[interior])) < 1e-9

    def test_singular_transform_raises(self):
        grid = ImageGrid.from_array(np.zeros((3, 3)))
        t = Transform2D([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(SingularTransformError):
            warp(grid, t, grid.size)


class TestSeparableWarp:
    """Axis-aligned warps must equal the inverse-mapping reference bit for
    bit, signed zeros included."""

    @given(
        st.integers(min_value=2, max_value=9),
        st.integers(min_value=2, max_value=9),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=2, max_value=14),
        st.integers(min_value=2, max_value=14),
        st.sampled_from([-1.0, 1.0]),
        st.sampled_from([-1.0, 1.0]),
        st.one_of(st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]),
                  st.floats(min_value=0.05, max_value=8.0)),
        st.one_of(st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]),
                  st.floats(min_value=0.05, max_value=8.0)),
        st.floats(min_value=-20.0, max_value=20.0),
        st.floats(min_value=-20.0, max_value=20.0),
        st.sampled_from(list(BorderPolicy)),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_general_path(
        self, w, h, channels, dw, dh, sgx, sgy, kx, ky, tx, ty, policy, seed
    ):
        rng = np.random.default_rng(seed)
        data = rng.uniform(-5.0, 5.0, size=(h, w, channels))
        data[rng.random(data.shape) < 0.2] = 0.0
        data[rng.random(data.shape) < 0.2] = -0.0
        src = ImageGrid.from_array(data)
        t = Transform2D([[sgx * kx, 0.0, tx], [0.0, sgy * ky, ty], [0.0, 0.0, 1.0]])
        inv = invert(t).m
        assert inv[0, 1] == 0.0 and inv[1, 0] == 0.0
        dst = PlaneSize(dw, dh)
        out = warp(src, t, dst, policy)
        assert_bitwise_equal(out.data, inverse_mapping_reference(src, t, dst, policy))

    @pytest.mark.parametrize(
        "row", [row for row, cfg in _bottomup_presets() if cfg.rno]
    )
    def test_rno_rows_match_general_path(self, row):
        cfg = dict(_bottomup_presets())[row]
        out = cfg.output
        k = Point(0.37 * out.width_units, 0.61 * out.height_units)
        k_flip = apply_point(t_flip(out.width_units), k)
        a = encode_gaussian(k, out, cfg.sigma).c.data
        b = encode_gaussian(k_flip, out, cfg.sigma).c.data[:, ::-1]
        avg = ImageGrid(out, 0.5 * (a + b))
        up = rno_upsample(avg, cfg)
        ref = inverse_mapping_reference(
            avg, invert(input_to_output(cfg)), cfg.input, BorderPolicy.ZERO_FILL
        )
        assert_bitwise_equal(up.data, ref)


class TestFlipHeatmap:
    def test_columns_reversed_and_involution(self):
        rng = np.random.default_rng(5)
        grid = ImageGrid.from_array(rng.uniform(0, 1, size=(3, 5, 2)))
        flipped = flip_heatmap(grid)
        assert np.array_equal(flipped.data, grid.data[:, ::-1, :])
        assert np.array_equal(flip_heatmap(flipped).data, grid.data)


def scanned_pgm_tokens(buf):
    """PGM tokens by a byte-at-a-time scan: whitespace is space, tab, CR
    and LF; a '#' outside a token starts a comment that runs to the LF."""
    i, n = 0, len(buf)
    while i < n:
        ch = buf[i : i + 1]
        if ch in b" \t\r\n":
            i += 1
        elif ch == b"#":
            while i < n and buf[i : i + 1] != b"\n":
                i += 1
        else:
            j = i
            while j < n and buf[j : j + 1] not in b" \t\r\n#":
                j += 1
            yield i, buf[i:j]
            i = j


class TestFileFormats:
    def test_pgm_roundtrip_raw_and_ascii(self, tmp_path):
        rng = np.random.default_rng(6)
        grid = ImageGrid.from_array(rng.integers(0, 256, size=(5, 4)).astype(float))
        for raw in (True, False):
            path = tmp_path / f"img_{raw}.pgm"
            write_pgm(path, grid, raw=raw)
            back = read_pgm(path)
            assert back.size == grid.size
            assert np.array_equal(back.data, grid.data)

    def test_pgm_sixteen_bit(self, tmp_path):
        grid = ImageGrid.from_array(np.array([[0.0, 300.0], [65535.0, 12.0]]))
        path = tmp_path / "deep.pgm"
        write_pgm(path, grid, maxval=65535)
        assert np.array_equal(read_pgm(path).data, grid.data)

    def test_pgm_raw_width_spelling_maxval(self, tmp_path):
        # The width token "255" must not be mistaken for the maxval token
        # when locating the binary pixel data.
        rng = np.random.default_rng(8)
        grid = ImageGrid.from_array(rng.integers(0, 256, size=(3, 255)).astype(float))
        path = tmp_path / "wide.pgm"
        write_pgm(path, grid, maxval=255)
        assert np.array_equal(read_pgm(path).data, grid.data)

    def test_pgm_comments_skipped(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P2\n# a comment\n2 2\n255\n1 2\n3 4\n")
        grid = read_pgm(path)
        assert np.array_equal(grid.data[:, :, 0], [[1.0, 2.0], [3.0, 4.0]])

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.sampled_from([b" ", b"\t", b"\r", b"\n", b"#", b"0", b"7", b"P",
                                     b"\x00", b"\x0b", b"\xff"]), max_size=40).map(b"".join))
    def test_pgm_tokens_match_the_byte_scanner(self, buf):
        assert list(_pgm_tokens(buf)) == list(scanned_pgm_tokens(buf))

    def test_grid_text_roundtrip_is_lossless(self, tmp_path):
        rng = np.random.default_rng(7)
        grid = ImageGrid.from_array(rng.standard_normal((4, 6, 3)) * 1e-7)
        path = tmp_path / "map.grid"
        write_grid_text(path, grid)
        back = read_grid_text(path)
        assert back.channels == 3
        assert np.array_equal(back.data, grid.data)

    def test_grid_text_header_order_is_rows_cols_channels(self, tmp_path):
        grid = ImageGrid.from_array(np.zeros((2, 5, 1)))
        path = tmp_path / "hdr.grid"
        write_grid_text(path, grid)
        assert path.read_text().splitlines()[0] == "2 5 1"

    @pytest.mark.parametrize("header", ["2.5 2 1", "2 x 1", "2 2 1e3"])
    def test_grid_text_bad_header_names_the_file(self, tmp_path, header):
        path = tmp_path / "bad.grid"
        path.write_text(f"{header}\n1 2 3 4\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: bad grid header")):
            read_grid_text(path)
