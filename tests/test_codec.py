import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keypose.biaslab import _newton_offsets
from keypose.codec import (
    CcrfTarget,
    GaussianTarget,
    NoDetectionError,
    OutOfBoundsError,
    _dark_offset,
    _quarter_offset,
    decode_argmax,
    decode_biased_quarter,
    decode_ccrf,
    decode_dark,
    default_ccrf_radius,
    encode_ccrf,
    encode_gaussian,
    loss_ccrf,
    loss_mse,
    nearest_node,
)
from keypose.geometry import PlaneSize, Point
from keypose.raster import ImageGrid

DIMS = PlaneSize(48, 64)
_ROW, _COL = np.mgrid[-1:2, -1:2]  # a 3x3 window's node offsets from its centre


@st.composite
def _windows(draw):
    """A 3x3 window: any mix of positive, zero and negative entries; a flat
    window; a sampled Gaussian, whose Newton step is taken; or ``exp`` of any
    quadratic in the node offsets, such as a saddle or a log-linear window,
    whose Hessian is mostly refused."""
    entry = (st.sampled_from((0.0, -0.0, -1.0, 1.0, 5e-324)) | st.floats(-2.0, 2.0)
             | st.floats(1e-300, 1e300))
    kind = draw(st.sampled_from(("mix", "flat", "gaussian", "quadratic")))
    if kind == "mix":
        return np.reshape(draw(st.lists(entry, min_size=9, max_size=9)), (3, 3))
    if kind == "flat":
        return np.full((3, 3), draw(entry))
    coefficient = st.sampled_from((0.0, -1.0)) | st.floats(-2.0, 2.0)
    curvature = st.floats(-2.0, -0.05) if kind == "gaussian" else coefficient
    coupling = st.floats(-0.1, 0.1) if kind == "gaussian" else coefficient
    a, b, c = draw(curvature), draw(curvature), draw(coupling)
    gx, gy = draw(coefficient), draw(coefficient)
    return np.exp(a * _COL**2 + b * _ROW**2 + c * _ROW * _COL + gx * _COL + gy * _ROW)


def brute_force_quadratic_max(gx, gy, hxx, hxy, hyy):
    """Independent oracle: maximize g.d + d'Hd/2 by nested grid search.

    Each level searches increments around the running center and shifts the
    gradient there, which is exact for a quadratic and keeps the evaluation
    free of cancellation as the span shrinks.
    """
    cx = cy = 0.0
    span = 1.5
    for _ in range(11):
        lgx = gx + hxx * cx + hxy * cy
        lgy = gy + hxy * cx + hyy * cy
        deltas = np.linspace(-span, span, 41)
        best = (0.0, 0.0, 0.0)
        for dx in deltas:
            for dy in deltas:
                v = lgx * dx + lgy * dy + 0.5 * (
                    hxx * dx * dx + 2 * hxy * dx * dy + hyy * dy * dy
                )
                if v > best[0]:
                    best = (v, dx, dy)
        cx += best[1]
        cy += best[2]
        span /= 10.0
    return cx, cy


class TestEncodeCcrf:
    def test_keypoint_on_node(self):
        t = encode_ccrf(Point(5.0, 5.0), DIMS, 3.0)
        assert t.c.data[5, 5, 0] == 1.0
        assert t.x_off.data[5, 5, 0] == 0.0
        assert t.y_off.data[5, 5, 0] == 0.0

    def test_subpixel_keypoint_near_node(self):
        # Node (5, 8) sits at squared distance 0.3^2 + 0.2^2 = 0.13 < 9 from
        # the keypoint, so it is positive and stores the exact residual.
        m, n = 5.3, 7.8
        t = encode_ccrf(Point(m, n), DIMS, 3.0)
        assert t.c.data[8, 5, 0] == 1.0
        assert t.x_off.data[8, 5, 0] == m - 5.0
        assert t.y_off.data[8, 5, 0] == n - 8.0
        assert t.x_off.data[8, 5, 0] == pytest.approx(0.3, abs=1e-12)
        assert t.y_off.data[8, 5, 0] == pytest.approx(-0.2, abs=1e-12)

    def test_disc_membership_is_strict_and_offsets_masked(self):
        m, n, r = 10.0, 10.0, 3.0
        t = encode_ccrf(Point(m, n), DIMS, r)
        xs = np.arange(48.0)
        ys = np.arange(64.0)
        d2 = (xs[None, :] - m) ** 2 + (ys[:, None] - n) ** 2
        assert np.array_equal(t.c.data[:, :, 0], (d2 < r * r).astype(float))
        assert t.c.data[13, 10, 0] == 0.0  # distance exactly r: outside
        assert np.all(t.x_off.data[t.c.data == 0.0] == 0.0)
        assert np.all(t.y_off.data[t.c.data == 0.0] == 0.0)

    def test_default_radius_is_sixteenth_of_width(self):
        assert default_ccrf_radius(DIMS) == 3.0
        assert default_ccrf_radius(PlaneSize(96, 128)) == 6.0

    def test_out_of_plane_rejected(self):
        with pytest.raises(OutOfBoundsError):
            encode_ccrf(Point(47.5, 10.0), DIMS, 3.0)
        with pytest.raises(OutOfBoundsError):
            encode_ccrf(Point(10.0, -0.1), DIMS, 3.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0])
    def test_non_finite_or_non_positive_radius_rejected(self, value):
        with pytest.raises(ValueError, match="radius must be finite and positive"):
            encode_ccrf(Point(5.0, 5.0), DIMS, value)


    def test_channels_of_different_sizes_rejected(self):
        t = encode_ccrf(Point(5.0, 5.0), DIMS, 3.0)
        small = ImageGrid.from_array(np.zeros((8, 8)))
        with pytest.raises(ValueError, match=r"^c, x_off and y_off must share one plane size$"):
            CcrfTarget(c=t.c, x_off=small, y_off=t.y_off, radius=3.0)


class TestDecodeCcrf:
    def test_single_positive_node_with_offsets(self):
        c = np.zeros((64, 48))
        xoff = np.zeros((64, 48))
        yoff = np.zeros((64, 48))
        c[4, 3] = 1.0
        xoff[4, 3] = 0.25
        yoff[4, 3] = -0.5
        t = CcrfTarget(
            c=ImageGrid(DIMS, c),
            x_off=ImageGrid(DIMS, xoff),
            y_off=ImageGrid(DIMS, yoff),
            radius=3.0,
        )
        r = decode_ccrf(t)
        assert r.k == Point(3.25, 3.5)
        assert r.argmax == (3, 4)

    def test_all_zero_raises(self):
        zero = ImageGrid(DIMS, np.zeros((64, 48)))
        t = CcrfTarget(c=zero, x_off=zero, y_off=zero, radius=3.0)
        with pytest.raises(NoDetectionError):
            decode_ccrf(t)

    def test_round_trip_exact_over_10k_random_keypoints(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(10_000):
            k = Point(rng.uniform(0.0, 47.0), rng.uniform(0.0, 63.0))
            r = decode_ccrf(encode_ccrf(k, DIMS, 3.0))
            worst = max(worst, abs(r.k.x - k.x), abs(r.k.y - k.y))
        assert worst < 1e-12

    @given(
        st.floats(min_value=0.0, max_value=47.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=63.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, x, y):
        k = Point(x, y)
        r = decode_ccrf(encode_ccrf(k, DIMS, 3.0))
        assert abs(r.k.x - k.x) < 1e-12
        assert abs(r.k.y - k.y) < 1e-12


class TestEncodeGaussian:
    def test_values_match_closed_form_everywhere(self):
        m, n, sigma = 20.31, 33.72, 2.0
        t = encode_gaussian(Point(m, n), DIMS, sigma)
        xs = np.arange(48.0)
        ys = np.arange(64.0)
        expected = np.exp(-((xs[None, :] - m) ** 2 + (ys[:, None] - n) ** 2) / (2 * sigma**2))
        assert np.array_equal(t.c.data[:, :, 0], expected)

    def test_peak_value_one_only_on_nodes(self):
        on_node = encode_gaussian(Point(7.0, 9.0), DIMS, 2.0)
        assert on_node.c.data.max() == 1.0
        off_node = encode_gaussian(Point(7.4, 9.0), DIMS, 2.0)
        assert off_node.c.data.max() < 1.0

    def test_out_of_plane_rejected(self):
        with pytest.raises(OutOfBoundsError):
            encode_gaussian(Point(-1.0, 5.0), DIMS, 2.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0])
    def test_non_finite_or_non_positive_sigma_rejected(self, value):
        with pytest.raises(ValueError, match="sigma must be finite and positive"):
            encode_gaussian(Point(5.0, 5.0), DIMS, value)

    def test_sigma_whose_square_underflows_rejected(self):
        with pytest.raises(ValueError, match="sigma is too small: 2\\*sigma\\^2 underflows"):
            encode_gaussian(Point(5.0, 5.0), DIMS, 1e-320)
        with pytest.raises(ValueError, match="sigma is too small"):
            GaussianTarget(c=ImageGrid.from_array(np.zeros((2, 2))), sigma=1e-320)

    def test_tiny_sigma_gives_an_exact_spike_without_warnings(self):
        # 2*sigma^2 is subnormal, so every exponent but the keypoint node's
        # overflows to -inf, whose exp is the exact 0.
        c = encode_gaussian(Point(1.0, 1.0), PlaneSize(4, 4), 1e-160).c.data[:, :, 0]
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0
        assert np.array_equal(c, expected)


class TestDecodeArgmax:
    def test_returns_nearest_node_of_gaussian(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            k = Point(rng.uniform(1.0, 46.0), rng.uniform(1.0, 62.0))
            r = decode_argmax(encode_gaussian(k, DIMS, 2.0).c)
            assert r.argmax == nearest_node(k)
            assert r.k == Point(float(r.argmax[0]), float(r.argmax[1]))

    def test_tie_broken_to_first_row_major(self):
        grid = ImageGrid(DIMS, np.ones((64, 48)))
        r = decode_argmax(grid)
        assert r.argmax == (0, 0)


class TestDecodeDark:
    def test_recovers_exact_gaussian_center(self):
        r = decode_dark(encode_gaussian(Point(5.37, 8.21), DIMS, 2.0).c)
        assert r.k.x == pytest.approx(5.37, abs=1e-9)
        assert r.k.y == pytest.approx(8.21, abs=1e-9)
        assert not r.degenerate

    def test_keypoint_on_node_recovered_exactly(self):
        r = decode_dark(encode_gaussian(Point(9.0, 11.0), DIMS, 2.0).c)
        assert r.k == Point(9.0, 11.0)

    def test_10k_random_keypoints_within_1e_3(self):
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(10_000):
            k = Point(rng.uniform(6.0, 41.0), rng.uniform(6.0, 57.0))
            r = decode_dark(encode_gaussian(k, DIMS, 2.0).c)
            assert not r.degenerate
            worst = max(worst, abs(r.k.x - k.x), abs(r.k.y - k.y))
        assert worst < 1e-3

    def test_flat_map_falls_back_degenerate(self):
        r = decode_dark(ImageGrid(DIMS, np.full((64, 48), 0.5)))
        assert r.degenerate
        assert r.k == Point(0.0, 0.0)

    @pytest.mark.parametrize("background,centre", [
        (0.5, [[0.5, 0.0, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 0.5]]),
        (0.01, [[0.99, 0.6, 0.001], [0.6, 1.0, 0.6], [0.001, 0.6, 0.99]]),
    ], ids=["non-positive-window-value", "refused-hessian"])
    def test_interior_peak_falls_back_degenerate(self, background, centre):
        # The peak is inside the map, so these fallbacks come after the border check;
        # the engine's batched Newton step must give the same triple, bit for bit.
        c = np.full((5, 5), background)
        c[1:4, 1:4] = centre
        r = decode_dark(ImageGrid(PlaneSize(5, 5), c))
        assert (r.k, r.argmax, r.degenerate) == (Point(2.0, 2.0), (2, 2), True)
        dx, dy, degenerate = _dark_offset(c, 2, 2)
        assert (dx.hex(), dy.hex(), degenerate) == ("0x0.0p+0", "0x0.0p+0", True)
        bdx, bdy, bdegenerate = _newton_offsets(c[1:4, 1:4, None])
        assert (float(bdx[0]).hex(), float(bdy[0]).hex(), bool(bdegenerate[0])) == (
            dx.hex(), dy.hex(), degenerate)

    @settings(max_examples=300, deadline=None)
    @given(windows=st.lists(_windows(), min_size=1, max_size=6))
    def test_batched_newton_step_equals_the_scalar_one_on_drawn_windows(self, windows):
        # Every trial of a (3, 3, B) stack takes _dark_offset's step or its
        # fallback, bit for bit, whatever the other trials' windows hold.
        dx, dy, degenerate = _newton_offsets(np.stack(windows, axis=-1))
        for t, window in enumerate(windows):
            want_dx, want_dy, want_degenerate = _dark_offset(window, 1, 1)
            assert (float(dx[t]).hex(), float(dy[t]).hex(), bool(degenerate[t])) == (
                float(want_dx).hex(), float(want_dy).hex(), want_degenerate), t

    def test_border_peak_falls_back(self):
        c = np.zeros((64, 48))
        c[0, 0] = 1.0
        r = decode_dark(ImageGrid(DIMS, c))
        assert r.degenerate

    def test_newton_step_matches_brute_force_quadratic_max(self):
        # The one-step refinement must equal the maximizer of the quadratic
        # fitted from the same log-space stencil; the oracle maximizes that
        # quadratic by nested grid search, independent of linear algebra.
        rng = np.random.default_rng(14)
        for _ in range(20):
            k = Point(rng.uniform(10.0, 38.0), rng.uniform(10.0, 54.0))
            c = encode_gaussian(k, DIMS, 2.0).c.data[:, :, 0]
            iy, ix = np.unravel_index(np.argmax(c), c.shape)
            log_w = np.log(c[iy - 1 : iy + 2, ix - 1 : ix + 2])
            gx = (log_w[1, 2] - log_w[1, 0]) / 2.0
            gy = (log_w[2, 1] - log_w[0, 1]) / 2.0
            hxx = log_w[1, 2] - 2 * log_w[1, 1] + log_w[1, 0]
            hyy = log_w[2, 1] - 2 * log_w[1, 1] + log_w[0, 1]
            hxy = (log_w[2, 2] - log_w[2, 0] - log_w[0, 2] + log_w[0, 0]) / 4.0
            ox, oy = brute_force_quadratic_max(gx, gy, hxx, hxy, hyy)
            r = decode_dark(ImageGrid(DIMS, c))
            assert r.k.x - ix == pytest.approx(ox, abs=1e-9)
            assert r.k.y - iy == pytest.approx(oy, abs=1e-9)


def three_branch_quarter_offset(c, ix, iy):
    """The quarter nudge with its border cases spelled out: a central
    difference inside, a one-sided one on each border node."""
    h, w = c.shape
    if ix == 0:
        diff_x = c[iy, 1] - c[iy, 0]
    elif ix == w - 1:
        diff_x = c[iy, ix] - c[iy, ix - 1]
    else:
        diff_x = c[iy, ix + 1] - c[iy, ix - 1]
    if iy == 0:
        diff_y = c[1, ix] - c[0, ix]
    elif iy == h - 1:
        diff_y = c[iy, ix] - c[iy - 1, ix]
    else:
        diff_y = c[iy + 1, ix] - c[iy - 1, ix]
    return (0.25 if diff_x >= 0.0 else -0.25), (0.25 if diff_y >= 0.0 else -0.25)


class TestDecodeBiasedQuarter:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 9), st.integers(2, 9), st.data())
    def test_offset_matches_the_three_branch_rule_at_every_node(self, w, h, data):
        # Three integer levels make ties and zero differences common.
        levels = data.draw(st.lists(st.integers(-1, 1), min_size=w * h, max_size=w * h))
        c = np.array(levels, dtype=np.float64).reshape(h, w)
        for iy in range(h):
            for ix in range(w):
                assert _quarter_offset(c, ix, iy) == three_branch_quarter_offset(c, ix, iy)
        r = decode_biased_quarter(ImageGrid.from_array(c))
        dx, dy = three_branch_quarter_offset(c, *r.argmax)
        assert (r.k.x, r.k.y) == (r.argmax[0] + dx, r.argmax[1] + dy)

    def test_low_fraction_shifts_up_from_floor(self):
        r = decode_biased_quarter(encode_gaussian(Point(10.3, 20.0), DIMS, 2.0).c)
        assert r.k.x == 10.25
        assert r.k.y == 20.25  # zero derivative counts as positive

    def test_high_fraction_shifts_down_from_ceil(self):
        r = decode_biased_quarter(encode_gaussian(Point(10.7, 20.4), DIMS, 2.0).c)
        assert r.k.x == 10.75
        assert r.k.y == 20.25

    def test_expected_error_and_variance_for_uniform_keypoints(self):
        # Derived oracle, by quadrature: the decoded x is floor(m)+0.25 when
        # frac(m) < 0.5 and ceil(m)-0.25 otherwise, so |error| = |u - 0.25|
        # on [0, 0.5) and |0.75 - u| on [0.5, 1).  Dense Riemann integration
        # reproduces the frozen constants 1/8 and 1/192.
        u = (np.arange(200_000) + 0.5) / 200_000
        err = np.where(u < 0.5, np.abs(u - 0.25), np.abs(0.75 - u))
        assert np.mean(err) == pytest.approx(1.0 / 8.0, abs=1e-9)
        assert np.mean(err**2) - np.mean(err) ** 2 == pytest.approx(1.0 / 192.0, abs=1e-9)

        rng = np.random.default_rng(15)
        dims = PlaneSize(16, 16)
        n = 100_000
        errors = np.empty(n)
        for i in range(n):
            m = 6.0 + rng.uniform(0.0, 3.0)
            r = decode_biased_quarter(encode_gaussian(Point(m, 8.0), dims, 2.0).c)
            errors[i] = abs(r.k.x - m)
        se = math.sqrt(1.0 / 192.0 / n)
        assert abs(np.mean(errors) - 0.125) < 3.0 * se
        assert abs(np.var(errors, ddof=1) - 1.0 / 192.0) < 0.1 / 192.0


class TestLosses:
    def test_loss_ccrf_zero_iff_matching(self):
        k = Point(12.2, 17.9)
        a = encode_ccrf(k, DIMS, 3.0)
        assert loss_ccrf(a, a) == 0.0
        b = encode_ccrf(Point(12.2, 18.9), DIMS, 3.0)
        assert loss_ccrf(b, a) > 0.0

    def test_loss_ccrf_masks_offsets_outside_disc(self):
        target = encode_ccrf(Point(12.0, 17.0), DIMS, 3.0)
        noisy_off = target.x_off.data[:, :, 0] + (1.0 - target.c.data[:, :, 0])
        pred = CcrfTarget(
            c=target.c,
            x_off=ImageGrid(DIMS, noisy_off),
            y_off=target.y_off,
            radius=target.radius,
        )
        assert loss_ccrf(pred, target) == 0.0

    def test_loss_mse_is_l2_norm(self):
        a = ImageGrid.from_array(np.zeros((3, 3)))
        b = ImageGrid.from_array(np.full((3, 3), 2.0))
        assert loss_mse(a, a) == 0.0
        assert loss_mse(a, b) == pytest.approx(6.0)  # sqrt(9 * 4)

    def test_dimension_mismatch_rejected(self):
        a = ImageGrid.from_array(np.zeros((3, 3)))
        b = ImageGrid.from_array(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            loss_mse(a, b)
        ta = encode_ccrf(Point(5.0, 5.0), DIMS, 3.0)
        tb = encode_ccrf(Point(5.0, 5.0), PlaneSize(32, 32), 2.0)
        with pytest.raises(ValueError):
            loss_ccrf(ta, tb)
