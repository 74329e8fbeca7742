import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facepipe.depthmap import (
    DepthMap,
    EmptyRenderError,
    RenderParams,
    bilinear_weights,
    export_pgm,
    load_pgm,
    median_filter,
    normalize,
    pgm_bytes,
    read_pgm,
    render_depth,
    render_pipeline,
    resize,
)
from facepipe.embedding import ExternalBackend, feature_hash, write_feature_file
from facepipe.pointcloud import PointCloud


def splat_oracle(points, radius, size):
    """Direct per-point accumulation with explicit corner arithmetic."""
    scale = size / radius
    wsum = np.zeros((size, size))
    zsum = np.zeros((size, size))
    for x, y, z in points:
        u = scale * x + size / 2.0
        v = -scale * y + size / 2.0
        if not (0 <= u <= size - 1 and 0 <= v <= size - 1):
            continue
        u0 = min(int(np.floor(u)), size - 2)
        v0 = min(int(np.floor(v)), size - 2)
        fu, fv = u - u0, v - v0
        for du, dv, w in (
            (0, 0, (1 - fu) * (1 - fv)),
            (1, 0, fu * (1 - fv)),
            (0, 1, (1 - fu) * fv),
            (1, 1, fu * fv),
        ):
            wsum[v0 + dv, u0 + du] += w
            zsum[v0 + dv, u0 + du] += w * z
    valid = wsum > 0
    depth = np.zeros((size, size))
    depth[valid] = zsum[valid] / wsum[valid]
    return depth, valid


def median_oracle(dmap, kernel):
    """Per-window sort over valid neighbors only."""
    pad = kernel // 2
    out = np.zeros_like(dmap.depth)
    h, w = dmap.depth.shape
    for r in range(h):
        for c in range(w):
            if not dmap.valid[r, c]:
                continue
            vals = []
            for dr in range(-pad, pad + 1):
                for dc in range(-pad, pad + 1):
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < h and 0 <= cc < w and dmap.valid[rr, cc]:
                        vals.append(dmap.depth[rr, cc])
            vals.sort()
            n = len(vals)
            mid = n // 2
            out[r, c] = vals[mid] if n % 2 else 0.5 * (vals[mid - 1] + vals[mid])
    return out


def median_reference(dmap, kernel=3):
    """The np.nanmedian filter median_filter replaced: NaN pads the border and
    stands in for invalid pixels."""
    pad = kernel // 2
    padded = np.full(
        (dmap.height + 2 * pad, dmap.width + 2 * pad), np.nan, dtype=np.float64
    )
    padded[pad:-pad, pad:-pad] = np.where(dmap.valid, dmap.depth, np.nan)
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kernel, kernel))
    windows = windows.reshape(dmap.height, dmap.width, -1)
    depth = np.zeros((dmap.height, dmap.width))
    depth[dmap.valid] = np.nanmedian(windows[dmap.valid], axis=1)
    return DepthMap(depth, dmap.valid)


def resize_reference(dmap, target):
    """The np.ix_ bilinear resize that resize replaced: each corner gathered whole."""
    if target == dmap.height and target == dmap.width:
        return dmap
    src_y = np.arange(target) * (dmap.height - 1) / (target - 1)
    src_x = np.arange(target) * (dmap.width - 1) / (target - 1)
    y0 = np.minimum(src_y.astype(np.intp), dmap.height - 2)
    x0 = np.minimum(src_x.astype(np.intp), dmap.width - 2)
    fy = (src_y - y0)[:, None]
    fx = (src_x - x0)[None, :]

    def sample(grid):
        g00 = grid[np.ix_(y0, x0)]
        g01 = grid[np.ix_(y0, x0 + 1)]
        g10 = grid[np.ix_(y0 + 1, x0)]
        g11 = grid[np.ix_(y0 + 1, x0 + 1)]
        return (
            g00 * (1 - fy) * (1 - fx)
            + g01 * (1 - fy) * fx
            + g10 * fy * (1 - fx)
            + g11 * fy * fx
        )

    depth = sample(dmap.depth)
    valid = sample(dmap.valid.astype(np.float64)) >= 0.5
    return DepthMap(np.where(valid, depth, 0.0), valid)


# Few distinct values, so windows hold ties, and both signed zeros.
_tied_depths = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-300, 7.0])
_depths = st.one_of(_tied_depths, st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))


@st.composite
def depth_maps(draw, min_size=1, max_size=14):
    """Maps with random masks: windows with even valid counts, single valid pixels, ties."""
    height = draw(st.integers(min_size, max_size))
    width = draw(st.integers(min_size, max_size))
    cells = height * width
    values = np.array(draw(st.lists(_depths, min_size=cells, max_size=cells)))
    density = draw(st.sampled_from([0.1, 0.5, 0.9, 1.0]))
    valid = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(size=cells) < density
    depth = np.where(valid, values, 0.0)
    return DepthMap(depth.reshape(height, width), valid.reshape(height, width))


class TestRenderDepth:
    def test_single_point_integer_landing(self):
        cloud = PointCloud([[10.0, 0.0, 30.0]])
        m = render_depth(cloud, RenderParams(100.0, 200))
        assert m.valid.sum() == 1
        assert m.valid[100, 120]
        assert m.depth[100, 120] == 30.0

    def test_coincident_points_average(self):
        cloud = PointCloud([[10.0, 0.0, 10.0], [10.0, 0.0, 30.0]])
        m = render_depth(cloud, RenderParams(100.0, 200))
        assert m.depth[100, 120] == 20.0

    def test_half_integer_splat_matches_oracle(self):
        # (u, v) = (100.5, 100.5): four neighbors at weight 0.25 each
        cloud = PointCloud([[0.25, -0.25, 40.0]])
        m = render_depth(cloud, RenderParams(100.0, 200))
        depth, valid = splat_oracle(cloud.points, 100.0, 200)
        assert valid.sum() == 4
        np.testing.assert_array_equal(m.valid, valid)
        np.testing.assert_allclose(m.depth, depth, atol=1e-12)

    def test_random_cloud_matches_oracle(self):
        rng = np.random.default_rng(8)
        pts = np.column_stack(
            [rng.uniform(-45, 45, 300), rng.uniform(-45, 45, 300), rng.uniform(0, 80, 300)]
        )
        m = render_depth(PointCloud(pts), RenderParams(100.0, 200))
        depth, valid = splat_oracle(pts, 100.0, 200)
        np.testing.assert_array_equal(m.valid, valid)
        np.testing.assert_allclose(m.depth, depth, atol=1e-9)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(9)
        u = rng.uniform(0, 199, 500)
        v = rng.uniform(0, 199, 500)
        _, _, w = bilinear_weights(u, v, 200)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)

    def test_points_outside_canvas_discarded(self):
        cloud = PointCloud([[10.0, 0.0, 30.0], [60.0, 0.0, 99.0]])  # u=220: off canvas
        m = render_depth(cloud, RenderParams(100.0, 200))
        assert m.valid.sum() == 1

    def test_all_points_outside_raises(self):
        with pytest.raises(EmptyRenderError):
            render_depth(PointCloud([[500.0, 0, 0]]), RenderParams(100.0, 200))

    def test_translation_covariance(self):
        # shift by k * (r / size) mm = k pixels; values chosen binary-exact
        rng = np.random.default_rng(10)
        pts = np.column_stack(
            [
                rng.integers(-160, 160, 200) * 0.25,
                rng.integers(-160, 160, 200) * 0.25,
                rng.uniform(10, 50, 200),
            ]
        )
        k = 6
        shifted = pts + np.array([k * 0.5, 0.0, 0.0])
        a = render_depth(PointCloud(pts), RenderParams(100.0, 200))
        b = render_depth(PointCloud(shifted), RenderParams(100.0, 200))
        overlap_a = a.valid[:, : 200 - k]
        overlap_b = b.valid[:, k:]
        np.testing.assert_array_equal(overlap_a, overlap_b)
        np.testing.assert_array_equal(
            a.depth[:, : 200 - k][overlap_a], b.depth[:, k:][overlap_b]
        )

    def test_sums_equal_add_at_reference(self):
        """Bitwise equal to accumulating with np.add.at, kept here as the reference."""
        rng = np.random.default_rng(12)
        pts = np.column_stack(
            [rng.uniform(-50, 50, 20000), rng.uniform(-50, 50, 20000), rng.uniform(0, 80, 20000)]
        )
        size, radius = 16, 50.0  # about 20 points per pixel, so addition order shows
        m = render_depth(PointCloud(pts), RenderParams(radius, size))

        u = size / radius * pts[:, 0] + size / 2.0
        v = -size / radius * pts[:, 1] + size / 2.0
        inside = (u >= 0) & (u <= size - 1) & (v >= 0) & (v <= size - 1)
        rows, cols, weights = bilinear_weights(u[inside], v[inside], size)
        weight_sum = np.zeros((size, size))
        value_sum = np.zeros((size, size))
        flat = rows.ravel() * size + cols.ravel()
        np.add.at(weight_sum.ravel(), flat, weights.ravel())
        np.add.at(value_sum.ravel(), flat, (weights * pts[inside, 2][:, None]).ravel())
        valid = weight_sum > 0
        depth = np.zeros((size, size))
        depth[valid] = value_sum[valid] / weight_sum[valid]
        assert valid.sum() == size * size
        np.testing.assert_array_equal(m.valid, valid)
        assert m.depth.tobytes() == depth.tobytes()

    def test_bit_deterministic(self):
        rng = np.random.default_rng(11)
        pts = np.column_stack(
            [rng.uniform(-49, 49, 400), rng.uniform(-49, 49, 400), rng.uniform(0, 80, 400)]
        )
        a = render_depth(PointCloud(pts), RenderParams(100.0, 200))
        b = render_depth(PointCloud(pts.copy()), RenderParams(100.0, 200))
        assert np.array_equal(a.depth, b.depth)
        assert np.array_equal(a.valid, b.valid)


class TestMedianFilter:
    def test_spike_removed(self):
        depth = np.zeros((7, 7))
        depth[3, 3] = 100.0
        m = median_filter(DepthMap(depth, np.ones((7, 7), bool)))
        assert m.depth[3, 3] == 0.0

    def test_constant_unchanged(self):
        m = DepthMap(np.full((5, 5), 42.0), np.ones((5, 5), bool))
        np.testing.assert_array_equal(median_filter(m).depth, m.depth)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(12)
        depth = rng.uniform(0, 100, (10, 10))
        valid = rng.uniform(size=(10, 10)) > 0.25
        depth[~valid] = 0.0
        m = DepthMap(depth, valid)
        got = median_filter(m)
        np.testing.assert_array_equal(got.depth, median_oracle(m, 3))
        np.testing.assert_array_equal(got.valid, valid)

    def test_kernel_5_matches_oracle(self):
        rng = np.random.default_rng(13)
        depth = rng.uniform(0, 50, (9, 9))
        m = DepthMap(depth, np.ones((9, 9), bool))
        np.testing.assert_array_equal(median_filter(m, 5).depth, median_oracle(m, 5))

    def test_invalid_regions_raise_no_warning(self):
        # windows around invalid centers are all-NaN; none may warn
        depth = np.zeros((12, 12))
        valid = np.zeros((12, 12), bool)
        valid[2:5, 2:5] = True
        valid[9, 9] = True
        depth[valid] = np.arange(1.0, 11.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = median_filter(DepthMap(depth, valid))
        assert [str(w.message) for w in caught] == []
        assert out.depth[9, 9] == 10.0
        assert not out.depth[~valid].any()

    def test_rejects_even_kernel(self):
        m = DepthMap(np.zeros((4, 4)), np.ones((4, 4), bool))
        with pytest.raises(ValueError):
            median_filter(m, 4)

    @given(dmap=depth_maps(), kernel=st.sampled_from([3, 5, 7]))
    @settings(max_examples=300, deadline=None)
    def test_matches_nanmedian_reference(self, dmap, kernel):
        # equal in value: a window whose median is zero may pick either signed zero
        got = median_filter(dmap, kernel)
        assert np.array_equal(got.depth, median_reference(dmap, kernel).depth)
        np.testing.assert_array_equal(got.valid, dmap.valid)

    def test_even_count_takes_mean_of_middle_pair(self):
        # center (0, 0) sees four valid pixels, 1, 2, 4 and 8: median (2 + 4) / 2
        depth = np.array([[1.0, 2.0, 0.0], [4.0, 8.0, 0.0]])
        m = median_filter(DepthMap(depth, depth != 0))
        assert m.depth[0, 0] == 3.0
        assert m.depth[1, 1] == 3.0


class TestNormalize:
    def test_linear_stretch(self):
        depth = np.array([[10.0, 20.0, 30.0]])
        m = normalize(DepthMap(depth, np.ones((1, 3), bool)))
        np.testing.assert_allclose(m.depth, [[0.0, 127.5, 255.0]])

    def test_constant_maps_to_128(self):
        m = normalize(DepthMap(np.full((3, 3), 7.0), np.ones((3, 3), bool)))
        np.testing.assert_array_equal(m.depth, np.full((3, 3), 128.0))

    def test_monotone_order_preserved(self):
        rng = np.random.default_rng(14)
        depth = rng.uniform(-30, 90, (8, 8))
        m = normalize(DepthMap(depth, np.ones((8, 8), bool)))
        order_in = np.argsort(depth.ravel(), kind="stable")
        order_out = np.argsort(m.depth.ravel(), kind="stable")
        np.testing.assert_array_equal(order_in, order_out)

    def test_idempotent(self):
        rng = np.random.default_rng(15)
        depth = rng.uniform(0, 300, (6, 6))
        valid = rng.uniform(size=(6, 6)) > 0.3
        depth[~valid] = 0.0
        once = normalize(DepthMap(depth, valid))
        twice = normalize(once)
        assert np.array_equal(once.depth, twice.depth)

    def test_fixed_window(self):
        depth = np.array([[50.0, 100.0]])
        m = normalize(DepthMap(depth, np.ones((1, 2), bool)), window=(0.0, 255.0))
        np.testing.assert_allclose(m.depth, [[50.0, 100.0]])

    def test_invalid_pixels_stay_zero(self):
        depth = np.array([[5.0, 0.0], [9.0, 13.0]])
        valid = np.array([[True, False], [True, True]])
        m = normalize(DepthMap(depth, valid))
        assert m.depth[0, 1] == 0.0


class TestResize:
    def test_same_size_identity(self):
        rng = np.random.default_rng(16)
        m = DepthMap(rng.uniform(0, 9, (5, 5)), np.ones((5, 5), bool))
        out = resize(m, 5)
        np.testing.assert_array_equal(out.depth, m.depth)

    def test_2x2_to_3x3_align_corners(self):
        m = DepthMap(np.array([[0.0, 0.0], [100.0, 100.0]]), np.ones((2, 2), bool))
        out = resize(m, 3)
        np.testing.assert_allclose(out.depth[1], [50.0, 50.0, 50.0])
        np.testing.assert_allclose(out.depth[0], [0.0, 0.0, 0.0])
        np.testing.assert_allclose(out.depth[2], [100.0, 100.0, 100.0])

    def test_constant_stays_constant(self):
        m = DepthMap(np.full((4, 4), 3.25), np.ones((4, 4), bool))
        out = resize(m, 11)
        np.testing.assert_allclose(out.depth, 3.25)

    @given(dmap=depth_maps(min_size=2), target=st.integers(2, 30))
    @settings(max_examples=300, deadline=None)
    def test_bitwise_equal_to_ix_reference(self, dmap, target):
        got, want = resize(dmap, target), resize_reference(dmap, target)
        np.testing.assert_array_equal(got.depth.view(np.uint64), want.depth.view(np.uint64))
        np.testing.assert_array_equal(got.valid, want.valid)


class TestRenderPipeline:
    @given(seed=st.integers(0, 2**32 - 1), window=st.sampled_from([None, (0.0, 8.0)]))
    @settings(max_examples=60, deadline=None)
    def test_signed_zeros_never_reach_pgm_bytes(self, seed, window):
        """Bytes equal the reference chain's when some depths are exactly +0 or -0."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        pts = np.column_stack(
            [rng.uniform(-20, 20, n), rng.uniform(-20, 20, n), rng.uniform(0, 8, n)]
        )
        pts[0, :2] = 0.0  # the canvas centre, so the render is never empty
        pts[rng.uniform(size=n) < 0.4, 2] = 0.0
        pts[rng.uniform(size=n) < 0.3, 2] = -0.0
        params = RenderParams(25.0, 24, 40, int(rng.choice([3, 5])), window)
        want = render_depth(PointCloud(pts), params)
        want = median_reference(want, params.median_kernel)
        want = resize_reference(normalize(want, window), params.final_size)
        assert pgm_bytes(render_pipeline(PointCloud(pts), params)) == pgm_bytes(want)


class TestPgm:
    def test_max_value(self, tmp_path):
        m = DepthMap(np.array([[255.0]]), np.ones((1, 1), bool))
        data = pgm_bytes(m)
        assert data.endswith(b"\xff\xff")

    def test_round_trip_within_quantization(self, tmp_path):
        rng = np.random.default_rng(17)
        depth = rng.uniform(0, 255, (9, 9))
        valid = rng.uniform(size=(9, 9)) > 0.2
        depth[~valid] = 0.0
        m = DepthMap(depth, valid)
        path = tmp_path / "m.pgm"
        export_pgm(m, path)
        back = load_pgm(path)
        assert np.abs(back.depth - m.depth).max() <= 0.5 / 257.0 + 1e-12

    def test_rejects_unnormalized(self):
        m = DepthMap(np.array([[300.0]]), np.ones((1, 1), bool))
        with pytest.raises(ValueError, match="normalized"):
            pgm_bytes(m)

    def test_deterministic_bytes(self):
        rng = np.random.default_rng(18)
        depth = rng.uniform(0, 255, (5, 5))
        m = DepthMap(depth, np.ones((5, 5), bool))
        assert pgm_bytes(m) == pgm_bytes(DepthMap(depth.copy(), np.ones((5, 5), bool)))

    def test_every_16_bit_value(self, tmp_path):
        values = np.arange(65536, dtype=">u2").reshape(256, 256)
        data = b"P5\n256 256\n65535\n" + values.tobytes()
        path = tmp_path / "all.pgm"
        path.write_bytes(data)
        dmap = load_pgm(path)
        # reference: the decode load_pgm used before it read through read_pgm
        grid = values.astype(np.float64) / 257.0
        np.testing.assert_array_equal(dmap.valid, grid > 0)
        assert dmap.depth.tobytes() == np.where(grid > 0, grid, 0.0).tobytes()
        assert pgm_bytes(dmap) == data
        assert read_pgm(path)[1] == data
        assert check_file_entry(path, tmp_path) is not None

    @pytest.mark.parametrize("size", [b"-1 -1", b"0 4", b"4 0", b"-2 3"])
    def test_rejects_non_positive_size(self, tmp_path, size):
        path = tmp_path / "neg.pgm"
        path.write_bytes(b"P5\n" + size + b"\n65535\n" + b"\x00" * 32)
        with pytest.raises(ValueError, match="malformed PGM header") as info:
            load_pgm(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize(
        "header",
        [
            b"P5\n# written by hand\n2 2\n65535\n",
            b"P5 2 2 65535\n",
            b"P5 2 2 65535 ",
            b"P5\t2\r\n2#size\n#\n065535\r",
            b"P5\n2 2\n65535#comment\n",
        ],
        ids=["comment-line", "one-line", "one-line-space", "mixed-space", "comment-after-maxval"],
    )
    def test_netpbm_headers(self, tmp_path, header):
        body = bytes(range(1, 9))
        path = tmp_path / "m.pgm"
        path.write_bytes(header + body + b"tail")
        canonical = b"P5\n2 2\n65535\n" + body
        assert read_pgm(path)[1] == canonical
        assert pgm_bytes(load_pgm(path)) == canonical
        assert check_file_entry(path, tmp_path) is not None

    @pytest.mark.parametrize(
        "header",
        [
            b"P5\n+2 2\n65535\n",
            b"P5\n1_0 0_1\n65535\n",
            b"P5\n2 2\n+65535\n",
            b"P5\n2 2\n65_535\n",
            b"P5\n2 2\n65535",
            b"P52 2 65535\n",
            b"P5\n2 2\n#65535\n",
            b"P5\n2.0 2\n65535\n",
        ],
        ids=["plus", "underscores", "plus-maxval", "underscore-maxval", "no-raster-space",
             "no-magic-space", "comment-for-maxval", "decimal"],
    )
    def test_rejects_non_netpbm_tokens(self, tmp_path, header):
        path = tmp_path / "bad.pgm"
        path.write_bytes(header + b"\x01" * 40)
        with pytest.raises(ValueError, match="malformed PGM header") as info:
            load_pgm(path)
        assert str(path) in str(info.value)
        check_file_entry(path, tmp_path)

    def test_raster_starts_after_one_whitespace_byte(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n1 1\n65535 \n\x01")
        assert read_pgm(path)[0].tolist() == [[ord("\n") * 256 + 1]]

    @given(
        shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip_bit_exact(self, tmp_path_factory, shape, data):
        # valid depths k/257 (k = 1..65535) and 0 on invalid pixels: exactly
        # the maps load_pgm produces, so export and reload change no bit
        codes = np.array(
            data.draw(st.lists(st.integers(0, 65535), min_size=shape[0] * shape[1],
                               max_size=shape[0] * shape[1])),
        ).reshape(shape)
        dmap = DepthMap(codes / 257.0, codes != 0)
        path = tmp_path_factory.mktemp("pgm") / "m.pgm"
        export_pgm(dmap, path)
        back = load_pgm(path)
        assert back.depth.tobytes() == dmap.depth.tobytes()
        assert back.valid.tobytes() == dmap.valid.tobytes()


def check_file_entry(path, feature_dir):
    """feature_hash(path) is sha256(pgm_bytes(load_pgm(path))), and the
    external backend looks `path` up under that key; a file load_pgm
    rejects, both reject with load_pgm's message.

    Returns the loaded map, or None when load_pgm rejects the file.
    """
    backend = ExternalBackend(feature_dir)
    try:
        dmap = load_pgm(path)
    except ValueError as exc:
        for entry in (feature_hash, backend.embed):
            with pytest.raises(ValueError) as info:
                entry(path)
            assert str(info.value) == str(exc)
        return None
    digest = hashlib.sha256(pgm_bytes(dmap)).hexdigest()
    assert feature_hash(path) == digest
    stored = np.arange(3.0)
    write_feature_file(stored, feature_dir / f"{digest}.fvec")
    np.testing.assert_array_equal(backend.embed(path), stored)
    return dmap


_pgm_tokens = st.one_of(
    st.integers(-3, 6).map(lambda v: str(v).encode()),
    st.integers(-(10**30), 10**30).map(lambda v: str(v).encode()),
    st.sampled_from([b"", b"65535", b"255", b"1.5", b"0x10", b" 3", b"\xff", b"2 2"]),
    st.binary(max_size=4),
)
_pgm_spaces = st.sampled_from([b"", b" ", b"  ", b"\t", b" \t", b"\x0b", b"\r"])
_pgm_maxvals = st.sampled_from(
    [b"65535", b"065535", b"0065535", b"+65535", b"65_535", b"\t65535", b"\t65535 ", b"65535 0"]
)
# the spellings netpbm reads as maxval 65535 with the raster after one newline
_pgm_good_maxvals = st.sampled_from([b"65535", b"065535", b"0065535", b"\t65535"])


class TestPgmFuzz:
    @given(
        magic=st.sampled_from([b"P5", b"P2", b"", b"P5 "]),
        width=_pgm_tokens,
        height=_pgm_tokens,
        sep=st.one_of(st.just(b" "), _pgm_spaces),
        maxval=st.one_of(st.just(b"65535"), _pgm_maxvals, _pgm_tokens),
        body=st.binary(max_size=80),
    )
    @settings(max_examples=400, deadline=None)
    def test_header_errors_name_the_file(
        self, tmp_path_factory, magic, width, height, sep, maxval, body
    ):
        folder = tmp_path_factory.mktemp("pgm")
        path = folder / "fuzz.pgm"
        path.write_bytes(magic + b"\n" + width + sep + height + b"\n" + maxval + b"\n" + body)
        try:
            load_pgm(path)
        except ValueError as exc:
            assert str(path) in str(exc)
        dmap = check_file_entry(path, folder)
        if dmap is not None:
            assert dmap.width >= 1 and dmap.height >= 1
            # the raster follows at least the shortest header, "P5 1 1 65535 "
            assert 2 * dmap.width * dmap.height <= len(path.read_bytes()) - 13

    @given(
        shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
        lead=_pgm_spaces,
        sep=_pgm_spaces.filter(bool),
        trail=_pgm_spaces,
        maxval=_pgm_good_maxvals,
        extra=st.binary(max_size=9),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_accepted_file_keys_as_its_map(
        self, tmp_path_factory, shape, lead, sep, trail, maxval, extra, data
    ):
        height, width = shape
        values = np.array(
            data.draw(st.lists(st.integers(0, 65535), min_size=width * height,
                               max_size=width * height)),
            dtype=">u2",
        )
        header = b"%s%d%s%d%s" % (lead, width, sep, height, trail)
        folder = tmp_path_factory.mktemp("pgm")
        path = folder / "spaced.pgm"
        path.write_bytes(b"P5\n" + header + b"\n" + maxval + b"\n" + values.tobytes() + extra)
        dmap = check_file_entry(path, folder)
        assert dmap is not None
        canonical = b"P5\n%d %d\n65535\n" % (width, height) + values.tobytes()
        assert pgm_bytes(dmap) == read_pgm(path)[1] == canonical
