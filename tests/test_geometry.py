import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keypose import geometry
from keypose.geometry import (
    PlaneSize,
    Point,
    Roi,
    SingularTransformError,
    Transform2D,
    apply_point,
    compose,
    identity,
    invert,
    t_crop,
    t_flip,
    t_resize,
    t_rotate,
)

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
positive = st.floats(min_value=0.5, max_value=1e3, allow_nan=False)
angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
entries = st.one_of(finite, st.sampled_from([0.0, -0.0, 1.0, -1.0]))


def random_transform(rng) -> Transform2D:
    """A random invertible transform built from the elementary constructors."""
    t = t_crop(
        Roi(rng.uniform(-100, 100), rng.uniform(-100, 100), rng.uniform(1, 200), rng.uniform(1, 200))
    )
    t = compose(t_resize(rng.uniform(1, 50), rng.uniform(1, 50), rng.uniform(1, 50), rng.uniform(1, 50)), t)
    t = compose(t_rotate(rng.uniform(-math.pi, math.pi), Point(rng.uniform(-50, 50), rng.uniform(-50, 50))), t)
    if rng.uniform() < 0.5:
        t = compose(t_flip(rng.uniform(1, 100)), t)
    return t


class TestPlaneSize:
    def test_unit_extent_is_one_less_than_pixel_count(self):
        size = PlaneSize(192, 256)
        assert size.width_units == 191.0
        assert size.height_units == 255.0

    @pytest.mark.parametrize("w,h", [(1, 5), (5, 1), (0, 0), (-3, 4)])
    def test_degenerate_planes_rejected(self, w, h):
        with pytest.raises(ValueError):
            PlaneSize(w, h)


class TestRoi:
    @pytest.mark.parametrize("w,h", [(0, 1), (1, 0), (-2, 3)])
    def test_nonpositive_extents_rejected(self, w, h):
        with pytest.raises(ValueError):
            Roi(0, 0, w, h)


class TestTransformType:
    def test_bottom_row_enforced(self):
        with pytest.raises(ValueError):
            Transform2D([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
        with pytest.raises(ValueError):
            Transform2D([[1, 0, 0], [0, 1, 0], [1e-30, 0, 1]])

    def test_shape_enforced(self):
        with pytest.raises(ValueError, match=r"^transform matrix must be 3x3, got shape \(2, 3\)$"):
            Transform2D([[1, 0, 0], [0, 1, 0]])

    def test_matrix_is_read_only(self):
        t = identity()
        with pytest.raises(ValueError):
            t.m[0, 0] = 2.0


class TestCrop:
    def test_origin_already_on_corner_gives_zero_translation(self):
        roi = Roi(cx=20.0, cy=30.0, w=40.0, h=60.0)  # corner at (0, 0)
        t = t_crop(roi)
        assert t.m[0, 2] == 0.0
        assert t.m[1, 2] == 0.0

    def test_translation_by_direct_substitution(self):
        # Oracle: -cx + w/2 = -100 + 20 = -80, -cy + h/2 = -50 + 30 = -20.
        t = t_crop(Roi(100, 50, 40, 60))
        assert t.m[0, 2] == -80.0
        assert t.m[1, 2] == -20.0

    @given(finite, finite, positive, positive)
    def test_roi_top_left_maps_to_origin(self, cx, cy, w, h):
        roi = Roi(cx, cy, w, h)
        p = apply_point(t_crop(roi), Point(cx - 0.5 * w, cy - 0.5 * h))
        assert p.x == pytest.approx(0.0, abs=1e-9)
        assert p.y == pytest.approx(0.0, abs=1e-9)


class TestResize:
    def test_same_extents_is_identity(self):
        assert np.array_equal(t_resize(10, 10, 10, 10).m, np.eye(3))

    def test_unit_length_ratio_for_192_to_48_pixels(self):
        # Unit-length extents are pixel counts minus one: 47/191, not 1/4.
        t = t_resize(191.0, 255.0, 47.0, 63.0)
        assert t.m[0, 0] == 47.0 / 191.0
        assert t.m[1, 1] == 63.0 / 255.0

    def test_pixel_count_ratio_is_the_coarser_quarter(self):
        t = t_resize(192.0, 256.0, 48.0, 64.0)
        assert t.m[0, 0] == 0.25

    @pytest.mark.parametrize("bad", [(0, 1, 1, 1), (1, -2, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)])
    def test_nonpositive_extent_rejected(self, bad):
        with pytest.raises(ValueError):
            t_resize(*bad)


class TestRotate:
    def test_zero_angle_is_identity(self):
        t = t_rotate(0.0, Point(5.0, 7.0))
        assert np.allclose(t.m, np.eye(3), atol=0.0)

    def test_quarter_turn_about_origin(self):
        p = apply_point(t_rotate(math.pi / 2.0, Point(0.0, 0.0)), Point(1.0, 0.0))
        assert p.x == pytest.approx(0.0, abs=1e-12)
        assert p.y == pytest.approx(1.0, abs=1e-12)

    @given(angles, finite, finite)
    def test_center_is_a_fixed_point(self, theta, cx, cy):
        c = Point(cx, cy)
        p = apply_point(t_rotate(theta, c), c)
        assert p.x == pytest.approx(cx, abs=1e-9)
        assert p.y == pytest.approx(cy, abs=1e-9)


class TestFlip:
    def test_direct_substitution(self):
        assert apply_point(t_flip(10.0), Point(3.0, 4.0)) == Point(7.0, 4.0)

    @given(positive)
    def test_involution(self, w):
        assert np.allclose(compose(t_flip(w), t_flip(w)).m, np.eye(3), atol=1e-12)

    @given(positive, finite)
    def test_mirror_axis_is_fixed(self, w, y):
        p = apply_point(t_flip(w), Point(w / 2.0, y))
        assert p.x == pytest.approx(w / 2.0, abs=1e-9)
        assert p.y == y

    def test_nonpositive_width_rejected(self):
        with pytest.raises(ValueError):
            t_flip(0.0)


class TestComposeInvert:
    def test_compose_with_identity(self):
        rng = np.random.default_rng(3)
        t = random_transform(rng)
        assert np.array_equal(compose(t, identity()).m, t.m)

    def test_compose_matches_sequential_application(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            a, b = random_transform(rng), random_transform(rng)
            p = Point(rng.uniform(-100, 100), rng.uniform(-100, 100))
            lhs = apply_point(compose(a, b), p)
            rhs = apply_point(a, apply_point(b, p))
            assert lhs.x == pytest.approx(rhs.x, abs=1e-8)
            assert lhs.y == pytest.approx(rhs.y, abs=1e-8)

    def test_invert_round_trip_1000_random(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(1000):
            t = random_transform(rng)
            residual = compose(t, invert(t)).m - np.eye(3)
            worst = max(worst, float(np.max(np.abs(residual))))
        assert worst < 1e-9

    def test_compose_associative(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            a, b, c = (random_transform(rng) for _ in range(3))
            lhs = compose(compose(a, b), c).m
            rhs = compose(a, compose(b, c)).m
            assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_singular_raises(self):
        t = Transform2D([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(SingularTransformError):
            invert(t)

    def test_matmul_and_call_sugar(self):
        t = t_flip(10.0)
        assert np.array_equal((t @ t).m, np.eye(3))
        assert t(Point(3.0, 4.0)) == Point(7.0, 4.0)


class TestBiasedFlipDefect:
    def test_x_translation_is_one_minus_s_over_s(self):
        # Pixel-count resize between unit-length flips leaves exactly this
        # residual translation; exact in binary for power-of-two strides.
        for wip, wop in ((192, 48), (256, 64), (512, 128)):
            s = wip / wop
            resize_pixel = t_resize(float(wip), 256.0, float(wop), 64.0)
            chain = compose(t_flip(wop - 1.0), compose(resize_pixel, t_flip(wip - 1.0)))
            defect = compose(chain, invert(resize_pixel))
            assert defect.m[0, 2] == (1.0 - s) / s
            assert defect.m[0, 0] == pytest.approx(1.0, abs=1e-15)
            assert defect.m[1, 2] == 0.0

    def test_x_translation_random_sizes(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            wip = int(rng.integers(16, 1024))
            wop = int(rng.integers(4, wip))
            s = wip / wop
            resize_pixel = t_resize(float(wip), 100.0, float(wop), 100.0)
            chain = compose(t_flip(wop - 1.0), compose(resize_pixel, t_flip(wip - 1.0)))
            defect = compose(chain, invert(resize_pixel))
            assert defect.m[0, 2] == pytest.approx((1.0 - s) / s, abs=1e-12)


@st.composite
def general_transforms(draw) -> Transform2D:
    """A rotation, a shear, a mirror or six drawn entries, optionally after a
    translation; entries include signed zeros."""
    kind = draw(st.sampled_from(("rotate", "shear", "flip", "entries")))
    if kind == "rotate":
        t = t_rotate(draw(angles), Point(draw(finite), draw(finite)))
    elif kind == "shear":
        t = Transform2D([[1.0, draw(entries), 0.0], [draw(entries), 1.0, 0.0], [0.0, 0.0, 1.0]])
    elif kind == "flip":
        t = t_flip(draw(positive))
    else:
        t = Transform2D([[draw(entries) for _ in range(3)] for _ in range(2)] + [[0.0, 0.0, 1.0]])
    if draw(st.booleans()):
        t = compose(t, Transform2D([[1.0, 0.0, draw(entries)], [0.0, 1.0, draw(entries)],
                                    [0.0, 0.0, 1.0]]))
    return t


def _columns(ts):
    """The coefficients of transforms ``ts`` as six ``(R,)`` arrays."""
    return tuple(np.array([t.m[i, j] for t in ts]) for i in range(2) for j in range(3))


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestCoefficientForms:
    """The array forms equal their one-row calls, the public functions."""

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(general_transforms(), general_transforms(), entries, entries),
                         min_size=1, max_size=6))
    def test_array_forms_equal_the_public_functions_bit_for_bit(self, rows):
        outer, inner, xs, ys = zip(*rows)
        want = np.array([compose(a, b).m[:2].ravel() for a, b in zip(outer, inner)]).T
        assert_same_bits(geometry._compose(_columns(outer), _columns(inner)), want)
        points = [apply_point(t, Point(x, y)) for t, x, y in zip(outer, xs, ys)]
        got = geometry._apply(_columns(outer), np.array(xs), np.array(ys))
        assert_same_bits(got, [[p.x for p in points], [p.y for p in points]])
        try:
            want = np.array([invert(t).m[:2].ravel() for t in outer]).T
        except SingularTransformError as exc:
            with pytest.raises(SingularTransformError) as got:
                geometry._invert(_columns(outer))
            assert str(got.value) == str(exc)
        else:
            assert_same_bits(geometry._invert(_columns(outer)), want)

    @settings(max_examples=200, deadline=None)
    @given(ts=st.lists(general_transforms(), max_size=4),
           scales=st.lists(st.sampled_from([0.0, -0.0, 1e-7, -3e-7, 9.9e-7]), min_size=1,
                           max_size=3),
           data=st.data())
    def test_a_singular_batch_names_its_first_bad_determinant(self, ts, scales, data):
        batch = list(ts)
        for u in scales:
            at = data.draw(st.integers(0, len(batch)))
            batch.insert(at, Transform2D([[u, 0.0, 1.0], [0.0, 0.5 * u, 2.0], [0.0, 0.0, 1.0]]))
        for t in batch:
            try:
                invert(t)
            except SingularTransformError as exc:
                message = str(exc)
                break
        with pytest.raises(SingularTransformError) as got:
            geometry._invert(_columns(batch))
        assert str(got.value) == message
