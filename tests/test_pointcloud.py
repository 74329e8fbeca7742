import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import facepipe
from facepipe.pointcloud import (
    EmptyCropError,
    NeighborIndex,
    PlyParseError,
    PointCloud,
    RigidTransform,
    WarmNeighbors,
    _lengths,
    apply_transform,
    crop_sphere,
    load_ply,
    rotation_zyx,
    save_ply,
)


angles = st.tuples(*[st.floats(-180.0, 180.0)] * 3)
shifts = st.tuples(*[st.floats(-100.0, 100.0)] * 3)
rigid_transforms = st.builds(
    lambda a, t: RigidTransform(rotation_zyx(*a), np.array(t)), angles, shifts
)


def euler_angles_zyx(rotation):
    """Reference inverse of rotation_zyx: angles in degrees (theta_x, theta_y, theta_z),
    valid away from the gimbal-lock pitch of +/-90 degrees."""
    r = np.asarray(rotation, dtype=np.float64)
    theta_y = np.arcsin(np.clip(-r[2, 0], -1.0, 1.0))
    theta_x = np.arctan2(r[2, 1], r[2, 2])
    theta_z = np.arctan2(r[1, 0], r[0, 0])
    return np.rad2deg(np.array([theta_x, theta_y, theta_z]))


def inverse(t):
    """Reference inverse of a rigid transform: rotation transposed, translation undone."""
    rt = t.rotation.T
    return RigidTransform(rt, -rt @ t.translation)


def brute_force_nearest(points, query):
    """Independent oracle: exhaustive argmin over squared distances."""
    sq = np.sum((points - query) ** 2, axis=1)
    return int(np.argmin(sq))


def shuffled_grid_ties():
    """A shuffled 4x4x4 integer grid, and queries that tie: each cube centre is
    equidistant from 8 grid points, each edge midpoint from 2; all distances are exact."""
    grid = np.stack(np.meshgrid(*[np.arange(4.0)] * 3, indexing="ij"), axis=-1)
    pts = np.random.default_rng(5).permutation(grid.reshape(-1, 3))
    corners = grid[:3, :3, :3].reshape(-1, 3)
    offsets = [(0.5, 0.5, 0.5), (0.5, 0.0, 0.0), (0.0, 0.5, 0.0), (0.0, 0.0, 0.5)]
    return pts, np.concatenate([corners + offset for offset in offsets])


class TestPointCloud:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            PointCloud(np.array([[0.0, 0.0, np.nan]]))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((4, 2)))

    def test_points_read_only(self):
        cloud = PointCloud(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            cloud.points[0, 0] = 1.0


class TestRigidTransform:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3) * 2.0, np.zeros(3))

    def test_rejects_reflection(self):
        with pytest.raises(ValueError):
            RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    def test_identity_apply(self):
        cloud = PointCloud(np.arange(12.0).reshape(4, 3))
        out = apply_transform(cloud, RigidTransform.identity())
        np.testing.assert_array_equal(out.points, cloud.points)

    def test_inverse_composition(self):
        rng = np.random.default_rng(7)
        t = RigidTransform(rotation_zyx(9.0, -4.0, 17.0), rng.uniform(-5, 5, 3))
        cloud = PointCloud(rng.uniform(-50, 50, (40, 3)), {"nose_tip": [1.0, 2, 3]})
        back = apply_transform(apply_transform(cloud, t), inverse(t))
        assert np.abs(back.points - cloud.points).max() < 1e-9
        assert np.abs(back.landmarks["nose_tip"] - [1, 2, 3]).max() < 1e-9

    def test_yaw_90_on_unit_x(self):
        # Hand evaluation of Ry(90): [[0,0,1],[0,1,0],[-1,0,0]] maps (1,0,0) -> (0,0,-1).
        t = RigidTransform(rotation_zyx(0.0, 90.0, 0.0), np.zeros(3))
        out = t.apply(np.array([[1.0, 0.0, 0.0]]))[0]
        np.testing.assert_allclose(out, [0.0, 0.0, -1.0], atol=1e-12)

    def test_rigidity_preserves_pairwise_distances(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-100, 100, (30, 3))
        t = RigidTransform(rotation_zyx(*rng.uniform(-40, 40, 3)), rng.uniform(-20, 20, 3))
        moved = t.apply(pts)
        d0 = np.linalg.norm(pts[:, None] - pts[None], axis=-1)
        d1 = np.linalg.norm(moved[:, None] - moved[None], axis=-1)
        mask = d0 > 0
        assert np.abs(d1[mask] / d0[mask] - 1.0).max() < 1e-6

    @given(rigid_transforms, rigid_transforms)
    @settings(max_examples=60, deadline=None)
    def test_compose_inverse_identities(self, a, b):
        pts = np.random.default_rng(0).uniform(-50, 50, (10, 3))
        ident = a.compose(inverse(a))
        np.testing.assert_allclose(ident.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(ident.translation, np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(a.compose(b).apply(pts), a.apply(b.apply(pts)), atol=1e-9)
        lhs = inverse(a.compose(b))
        rhs = inverse(b).compose(inverse(a))
        np.testing.assert_allclose(lhs.rotation, rhs.rotation, atol=1e-12)
        np.testing.assert_allclose(lhs.translation, rhs.translation, atol=1e-9)

    @given(st.integers(0, 2**32 - 1), st.integers(3, 40), rigid_transforms)
    @settings(max_examples=60, deadline=None)
    def test_procrustes_recovers_motion(self, seed, n, truth):
        pts = np.random.default_rng(seed).uniform(-50, 50, (n, 3))
        # non-collinear: the centered points span at least a plane
        assume(np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)[1] > 1.0)
        est = RigidTransform.procrustes(pts, truth.apply(pts))
        assert np.linalg.det(est.rotation) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(est.rotation, truth.rotation, atol=1e-9)
        np.testing.assert_allclose(est.translation, truth.translation, atol=1e-8)

    @given(st.integers(0, 2**32 - 1), st.integers(3, 40))
    @settings(max_examples=60, deadline=None)
    def test_procrustes_never_reflects(self, seed, n):
        rng = np.random.default_rng(seed)
        source = rng.normal(size=(n, 3))
        for target in (rng.normal(size=(n, 3)), source * [1.0, 1.0, -1.0]):
            est = RigidTransform.procrustes(source, target)
            assert np.linalg.det(est.rotation) == pytest.approx(1.0, abs=1e-12)

    def test_euler_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            angles = rng.uniform(-10, 10, 3)
            rec = euler_angles_zyx(rotation_zyx(*angles))
            np.testing.assert_allclose(rec, angles, atol=1e-9)


class TestCropSphere:
    def test_boundary_inclusive(self):
        center = np.array([1.0, 2.0, 3.0])
        offsets = np.array([[99.0, 0, 0], [100.0, 0, 0], [101.0, 0, 0]])
        cloud = PointCloud(center + offsets)
        out = crop_sphere(cloud, center, 100.0)
        assert len(out) == 2
        np.testing.assert_array_equal(out.points, cloud.points[:2])

    def test_huge_radius_keeps_all(self):
        cloud = PointCloud(np.random.default_rng(0).uniform(-50, 50, (20, 3)))
        out = crop_sphere(cloud, [0, 0, 0], 1e12)
        np.testing.assert_array_equal(out.points, cloud.points)

    def test_empty_crop_raises(self):
        cloud = PointCloud(np.zeros((5, 3)))
        with pytest.raises(EmptyCropError):
            crop_sphere(cloud, [1000.0, 0, 0], 1.0)

    def test_subset_and_idempotent(self):
        rng = np.random.default_rng(5)
        cloud = PointCloud(rng.uniform(-120, 120, (200, 3)))
        once = crop_sphere(cloud, [0, 0, 0], 80.0)
        twice = crop_sphere(once, [0, 0, 0], 80.0)
        assert {tuple(p) for p in once.points} <= {tuple(p) for p in cloud.points}
        np.testing.assert_array_equal(once.points, twice.points)


def query_one(index, q):
    """query_many on the single row q; the index it finds."""
    return int(index.query_many(np.reshape(q, (1, 3)))[1][0])


class TestNeighborIndex:
    def test_scipy_spatial_loads_with_the_first_index(self):
        # a fresh interpreter: importing the package and its command line
        # leaves scipy.spatial unloaded; building an index loads it
        code = (
            "import sys\n"
            "import facepipe, facepipe.cli\n"
            "before = 'scipy.spatial' in sys.modules\n"
            "facepipe.NeighborIndex([[0.0, 0.0, 0.0]])\n"
            "print(before, 'scipy.spatial' in sys.modules)\n"
        )
        src = str(Path(facepipe.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert run.stdout.split() == ["False", "True"]

    def test_query_stored_point(self):
        pts = np.array([[0.0, 0, 0], [5, 0, 0], [0, 5, 0]])
        idx = NeighborIndex(pts)
        assert query_one(idx, [5.0, 0, 0]) == 1

    def test_tie_prefers_lowest_index(self):
        pts = np.array([[1.0, 0, 0], [-1.0, 0, 0]])
        idx = NeighborIndex(pts)
        assert query_one(idx, [0.0, 0, 0]) == 0
        # and regardless of insertion order
        idx2 = NeighborIndex(pts[::-1].copy())
        assert query_one(idx2, [0.0, 0, 0]) == 0
        grid, queries = shuffled_grid_ties()
        idx3 = NeighborIndex(grid)
        expected = [brute_force_nearest(grid, q) for q in queries]
        assert [query_one(idx3, q) for q in queries] == expected

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(42)
        pts = rng.uniform(-10, 10, (1000, 3))
        idx = NeighborIndex(pts)
        queries = rng.uniform(-12, 12, (100, 3))
        for q in queries:
            assert query_one(idx, q) == brute_force_nearest(pts, q)

    def test_query_many_matches_single(self):
        # each row is settled on its own, so a batch may carry extra rows
        # (transfer_expression appends the landmarks) without changing any
        rng = np.random.default_rng(1)
        pts = rng.uniform(-1, 1, (200, 3))
        grid, ties = shuffled_grid_ties()
        for stored, queries in ((pts, rng.uniform(-1, 1, (50, 3))), (grid, ties)):
            idx = NeighborIndex(stored)
            dist, many = idx.query_many(queries)
            for q, d, i in zip(queries, dist, many):
                d1, i1 = idx.query_many(q.reshape(1, 3))
                assert (d1[0].tobytes(), int(i1[0])) == (d.tobytes(), int(i))

    def test_query_many_tie_rule(self):
        pts = np.array([[1.0, 0, 0], [-1.0, 0, 0], [3.0, 0, 0]])
        idx = NeighborIndex(pts)
        _, got = idx.query_many(np.array([[0.0, 0, 0], [2.0, 0, 0]]))
        np.testing.assert_array_equal(got, [0, 0])
        grid, queries = shuffled_grid_ties()
        _, got = NeighborIndex(grid).query_many(queries)
        np.testing.assert_array_equal(got, [brute_force_nearest(grid, q) for q in queries])


def same_answer(got, want):
    """Two (distances, indices) answers are equal, distances bit for bit."""
    return (np.array_equal(got[0].view(np.uint64), want[0].view(np.uint64))
            and np.array_equal(got[1], want[1]))


# stored points: an integer grid (exact ties), duplicates, one point, or floats
stored_sets = st.sampled_from(["grid", "duplicates", "one", "floats"])
# one step of a row sequence: a random move of this size, a snap back onto
# half-integers, or new rows in a new count
moves = st.sampled_from([0.0, 1e-12, 1e-6, 1e-3, 0.3, 5.0, "snap", "resize"])


class TestWarmNeighbors:
    @given(stored=stored_sets, steps=st.lists(moves, min_size=1, max_size=12),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_every_answer_equals_a_fresh_query(self, stored, steps, seed):
        rng = np.random.default_rng(seed)
        if stored == "grid":
            pts = rng.permutation(np.stack(np.meshgrid(*[np.arange(3.0)] * 3), -1).reshape(-1, 3))
        elif stored == "duplicates":
            base = rng.integers(-2, 3, (12, 3)).astype(float)
            pts = np.vstack([base, base[rng.integers(0, 12, 6)]])
        elif stored == "one":
            pts = rng.normal(size=(1, 3))
        else:
            pts = rng.normal(size=(60, 3))
        index = NeighborIndex(pts)
        warm = WarmNeighbors(index)
        # rows on half-integers: tied between grid points
        rows = rng.integers(-1, 4, (int(rng.integers(1, 30)), 3)) * 0.5
        assert same_answer(warm.query_many(rows), index.query_many(rows))
        for step in steps:
            if step == "resize":
                rows = rng.integers(-1, 4, (int(rng.integers(1, 30)), 3)) * 0.5
            elif step == "snap":  # back onto exact ties
                rows = np.round(rows * 2.0) / 2.0
            else:
                rows = rows + rng.normal(size=rows.shape) * step
            assert same_answer(warm.query_many(rows), index.query_many(rows))

    def test_distance_summed_as_the_tree_sums_it(self):
        from scipy.spatial import cKDTree

        rng = np.random.default_rng(11)
        for scale in (1e-3, 1.0, 50.0, 1e4):
            stored = rng.normal(size=(2000, 3)) * scale
            rows = rng.normal(size=(100_000, 3)) * scale
            dist, idx = cKDTree(stored).query(rows)
            mine = _lengths(rows - stored[idx])
            np.testing.assert_array_equal(mine.view(np.uint64), dist.view(np.uint64))

    def test_unmoved_rows_query_no_row(self):
        rng = np.random.default_rng(4)
        index = NeighborIndex(rng.normal(size=(500, 3)))
        rows = rng.normal(size=(200, 3))
        tree_rows = []  # rows each call sends to the k-d tree
        nearest_two = index._nearest_two
        index._nearest_two = lambda pts: tree_rows.append(len(pts)) or nearest_two(pts)
        warm = WarmNeighbors(index)
        first = warm.query_many(rows)
        assert same_answer(warm.query_many(rows.copy()), first)
        assert tree_rows == [200]
        # a small move keeps most rows off the tree, a new row count sends all
        warm.query_many(rows + 1e-4)
        assert tree_rows[-1] < 20
        warm.query_many(rows[:150])
        assert tree_rows[-1] == 150

    def test_rows_are_copied(self):
        # the caller may move its array in place; the move from 1 to 5.5 still counts
        index = NeighborIndex(np.array([[0.0, 0, 0], [10.0, 0, 0]]))
        warm = WarmNeighbors(index)
        rows = np.array([[1.0, 0, 0]])
        warm.query_many(rows)
        rows += [4.5, 0, 0]
        assert warm.query_many(rows)[1].tolist() == [1]


class TestPlyIO:
    def test_minimal_ascii(self, tmp_path):
        f = tmp_path / "one.ply"
        f.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0 0 0\n"
        )
        cloud = load_ply(f)
        assert len(cloud) == 1
        np.testing.assert_array_equal(cloud.points[0], [0.0, 0.0, 0.0])

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        cloud = PointCloud(rng.standard_normal((57, 3)) * 73.0)
        f = tmp_path / "c.ply"
        save_ply(cloud, f)
        first = load_ply(f)
        save_ply(first, tmp_path / "c2.ply")
        second = load_ply(tmp_path / "c2.ply")
        assert np.array_equal(first.points, second.points)
        # float32-representable inputs survive one round trip exactly
        f32 = PointCloud(cloud.points.astype(np.float32).astype(np.float64))
        save_ply(f32, tmp_path / "c3.ply")
        assert np.array_equal(load_ply(tmp_path / "c3.ply").points, f32.points)

    def test_round_trip_preserves_order_and_landmarks(self, tmp_path):
        cloud = PointCloud(
            [[3.0, 2, 1], [0, 0, 0], [-1, -2, -3]], {"nose_tip": [1.0, 2.0, 3.0]}
        )
        f = tmp_path / "o.ply"
        save_ply(cloud, f)
        back = load_ply(f)
        np.testing.assert_array_equal(back.points, cloud.points)
        np.testing.assert_array_equal(back.landmarks["nose_tip"], [1, 2, 3])

    def test_header_declares_vertex_count(self, tmp_path):
        cloud = PointCloud(np.zeros((2, 3)))
        f = tmp_path / "two.ply"
        save_ply(cloud, f)
        assert b"\nelement vertex 2\n" in f.read_bytes()

    def test_writes_binary_float32(self, tmp_path):
        pts = np.array([[1.5, -2.25, 3.0], [0.1, 8.0, -1.0 / 3.0], [7.0, 0.0, -0.0]])
        f = tmp_path / "bin.ply"
        save_ply(PointCloud(pts), f)
        header, sep, body = f.read_bytes().partition(b"end_header\n")
        assert sep and header.split(b"\n")[1] == b"format binary_little_endian 1.0"
        assert len(body) == 12 * len(pts)
        assert body == pts.astype("<f4").tobytes()

    def test_resave_without_landmarks_drops_stale_sidecar(self, tmp_path):
        f = tmp_path / "s.ply"
        save_ply(PointCloud(np.zeros((1, 3)), {"nose_tip": [9.0, 9.0, 9.0]}), f)
        assert load_ply(f).landmarks
        save_ply(PointCloud(np.ones((1, 3))), f)
        assert load_ply(f).landmarks == {}
        assert not (tmp_path / "s.landmarks.json").exists()

    def test_truncated_ascii_body(self, tmp_path):
        f = tmp_path / "bad.ply"
        rows = "\n".join("0 0 0" for _ in range(9))
        f.write_text(
            "ply\nformat ascii 1.0\nelement vertex 10\n"
            "property float x\nproperty float y\nproperty float z\n"
            f"end_header\n{rows}\n"
        )
        with pytest.raises(PlyParseError, match="truncated"):
            load_ply(f)

    def test_zero_vertices(self, tmp_path):
        f = tmp_path / "zero.ply"
        f.write_text(
            "ply\nformat ascii 1.0\nelement vertex 0\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n"
        )
        with pytest.raises(PlyParseError, match="zero"):
            load_ply(f)

    def test_malformed_header(self, tmp_path):
        f = tmp_path / "no_magic.ply"
        f.write_text("plop\nend_header\n")
        with pytest.raises(PlyParseError, match="line 1"):
            load_ply(f)

    @pytest.mark.parametrize(
        "props",
        [
            [("float", "x"), ("float", "y"), ("float", "z"), ("uchar", "quality")],
            [("double", "x"), ("double", "y"), ("double", "z")],
            [("short", "flags"), ("int", "id"), ("float", "x"), ("float", "y"), ("float", "z")],
        ],
        ids=["float", "double", "int-before-x"],
    )
    def test_binary_little_endian(self, tmp_path, props):
        codes = {"uchar": "B", "short": "h", "int": "i", "float": "f", "double": "d"}
        extra = {"quality": 7, "flags": -3, "id": 70000}
        pts = np.array([[1.5, -2.25, 3.0], [0.1, 8.0, -1.0 / 3.0]])
        rec = "<" + "".join(codes[t] for t, _ in props)
        header = (
            "ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
            + "".join(f"property {t} {name}\n" for t, name in props)
            + "end_header\n"
        ).encode()
        body = b""
        for p in pts:
            coords = dict(zip("xyz", p))
            body += struct.pack(rec, *[coords.get(name, extra.get(name)) for _, name in props])
        f = tmp_path / "bin.ply"
        f.write_bytes(header + body)
        cloud = load_ply(f)
        width = np.float64 if props[0][0] == "double" else np.float32
        np.testing.assert_array_equal(cloud.points, pts.astype(width).astype(np.float64))

    def test_binary_truncated(self, tmp_path):
        header = (
            "ply\nformat binary_little_endian 1.0\nelement vertex 3\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n"
        ).encode()
        f = tmp_path / "short.ply"
        f.write_bytes(header + b"\x00" * 20)  # needs 36
        with pytest.raises(PlyParseError, match="byte"):
            load_ply(f)

    def test_unknown_ascii_properties_ignored(self, tmp_path):
        f = tmp_path / "extra.ply"
        f.write_text(
            "ply\nformat ascii 1.0\ncomment made by hand\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property float confidence\nend_header\n1 2 3 0.5\n"
        )
        np.testing.assert_array_equal(load_ply(f).points[0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("0 0 0 1\n1 2 3\n", "vertex row has 3 values, expected 4 (line 13)"),
            ("0 0 0 1\n1 x 2 1\n", "non-numeric coordinate (line 13)"),
            ("0 x 0 1\n1 2 3\n", "non-numeric coordinate (line 12)"),
        ],
        ids=["short-row", "non-numeric", "first-bad-row-wins"],
    )
    def test_bad_ascii_vertex_row(self, tmp_path, rows, message):
        # the face element comes first, so vertex rows start one line later
        f = tmp_path / "row.ply"
        f.write_text(
            "ply\nformat ascii 1.0\nelement face 1\n"
            "property list uchar int vertex_indices\nelement vertex 2\n"
            "property float x\nproperty float y\nproperty float z\n"
            f"property uchar quality\nend_header\n3 0 1 2\n{rows}"
        )
        with pytest.raises(PlyParseError, match=re.escape(message)):
            load_ply(f)

    @pytest.mark.parametrize("fmt", ["ascii", "binary_little_endian"])
    @pytest.mark.parametrize("list_first", [True, False], ids=["list-first", "list-last"])
    def test_vertex_list_property_rejected(self, tmp_path, fmt, list_first):
        xyz = ["property float x", "property float y", "property float z"]
        tags = ["property list uchar int tags"]
        props = tags + xyz if list_first else xyz + tags
        header = "\n".join(["ply", f"format {fmt} 1.0", "element vertex 1", *props, "end_header\n"])
        if fmt == "ascii":
            body = b"2 7 8 1.0 2.0 3.0\n" if list_first else b"1.0 2.0 3.0 2 7 8\n"
        elif list_first:
            body = struct.pack("<Bii3f", 2, 7, 8, 1.0, 2.0, 3.0)
        else:
            body = struct.pack("<3fBii", 1.0, 2.0, 3.0, 2, 7, 8)
        f = tmp_path / "tags.ply"
        f.write_bytes(header.encode() + body)
        with pytest.raises(PlyParseError, match="list properties on vertices are unsupported"):
            load_ply(f)

    def test_face_list_property_loads(self, tmp_path):
        f = tmp_path / "faces.ply"
        f.write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\n"
            "property float x\nproperty float y\nproperty float z\n"
            "element face 1\nproperty list uchar int vertex_indices\nend_header\n"
            "0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"
        )
        np.testing.assert_array_equal(load_ply(f).points, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])

    def test_bare_property_line(self, tmp_path):
        f = tmp_path / "bare.ply"
        f.write_text("ply\nformat ascii 1.0\nelement vertex 1\nproperty\nend_header\n")
        with pytest.raises(PlyParseError, match="line 4"):
            load_ply(f)

    @pytest.mark.parametrize("value", ["nan", "inf", "1e39"])
    def test_non_finite_ascii_coordinate(self, tmp_path, value):
        f = tmp_path / "nan.ply"
        f.write_text(
            "ply\nformat ascii 1.0\nelement vertex 2\n"
            "property float x\nproperty float y\nproperty float z\n"
            f"end_header\n0 0 0\n1 {value} 2\n"
        )
        with pytest.raises(PlyParseError, match="non-finite.*line 9"):
            load_ply(f)

    def test_non_finite_binary_coordinate(self, tmp_path):
        header = (
            "ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n"
        ).encode()
        f = tmp_path / "nan.ply"
        f.write_bytes(header + struct.pack("<6f", 0, 0, 0, 1, float("nan"), 2))
        with pytest.raises(PlyParseError, match=f"non-finite.*byte {len(header) + 12}"):
            load_ply(f)

    def test_write_to_unwritable_path(self, tmp_path):
        cloud = PointCloud(np.zeros((1, 3)))
        with pytest.raises(OSError):
            save_ply(cloud, tmp_path / "missing_dir" / "x.ply")


_ASCII_PLY = (
    b"ply\nformat ascii 1.0\ncomment hand made\nelement vertex 3\n"
    b"property float x\nproperty float y\nproperty double z\nproperty uchar q\n"
    b"element face 1\nproperty list uchar int vertex_indices\nend_header\n"
    b"0 1.5 -2 7\n3 4 5 1\n-6.25 7 8e3 0\n3 0 1 2\n"
)
_BINARY_PLY = (
    b"ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
    b"property short s\nproperty float x\nproperty float y\nproperty float z\n"
    b"end_header\n" + struct.pack("<hfff", -3, 1.5, -2.0, 3.0) * 2
)
_PLY_HEADER = [
    "format ascii 1.0", "element vertex 2",
    "property float x", "property float y", "property float z",
]
# header and body words, so that garbled files stay close to valid ones
_PLY_WORDS = [
    "ascii", "binary_little_endian", "binary_big_endian", "1.0", "vertex", "face",
    "list", "float", "double", "uchar", "int", "x", "y", "z", "end_header",
    "0", "1", "2", "-1", "99999999999999999999", "1.5", "nan", "inf", "1e39", "\t", "\xff",
]
_ply_lines = st.builds(
    lambda head, words: " ".join([head, *words]),
    st.sampled_from(["format", "element", "property", "comment", "ply", ""]),
    st.lists(st.sampled_from(_PLY_WORDS), max_size=4),
)
_body_lines = st.lists(st.sampled_from(_PLY_WORDS[15:]), max_size=5).map(" ".join)


def _load_only_parse_errors(tmp_dir, data: bytes):
    """load_ply either returns a finite cloud or raises PlyParseError."""
    f = tmp_dir / "fuzz.ply"
    f.write_bytes(data)
    try:
        cloud = load_ply(f)
    except PlyParseError as exc:
        assert str(f) in str(exc)
        return
    assert len(cloud) >= 1 and np.isfinite(cloud.points).all()


class TestPlyFuzz:
    @given(
        base=st.sampled_from([_ASCII_PLY, _BINARY_PLY]),
        cut=st.integers(0, len(_ASCII_PLY)),
        edits=st.lists(st.tuples(st.integers(0, 300), st.binary(max_size=4)), max_size=4),
    )
    @settings(max_examples=300, deadline=None)
    def test_mutated_files(self, tmp_path_factory, base, cut, edits):
        data = bytearray(base[:cut] if cut < len(base) else base)
        for pos, chunk in edits:
            pos = min(pos, len(data))
            data[pos:pos + len(chunk)] = chunk
        _load_only_parse_errors(tmp_path_factory.mktemp("ply"), bytes(data))

    @given(
        edits=st.lists(
            st.tuples(st.integers(0, len(_PLY_HEADER)), st.booleans(), _ply_lines),
            max_size=4,
        ),
        body=st.lists(_body_lines, max_size=4),
    )
    @settings(max_examples=300, deadline=None)
    def test_garbled_headers(self, tmp_path_factory, edits, body):
        header = list(_PLY_HEADER)
        for pos, replace, line in edits:
            header[pos:pos + replace] = [line]
        text = "\n".join(["ply", *header, "end_header", *body]) + "\n"
        data = text.encode("utf-8", errors="surrogateescape")
        _load_only_parse_errors(tmp_path_factory.mktemp("ply"), data)


finite_f64 = st.floats(-1e38, 1e38, allow_nan=False)


class TestPlyRoundTrip:
    @given(
        points=st.lists(
            st.tuples(*[st.one_of(finite_f64, st.floats(width=32, allow_nan=False,
                                                      allow_infinity=False))] * 3),
            min_size=1, max_size=20,
        ),
        landmarks=st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3),
            max_size=3,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_save_load_is_float32_exact(self, tmp_path_factory, points, landmarks):
        cloud = PointCloud(np.array(points, dtype=np.float64), landmarks)
        f = tmp_path_factory.mktemp("rt") / "c.ply"
        save_ply(cloud, f)
        back = load_ply(f)
        expected = cloud.points.astype(np.float32).astype(np.float64)
        assert back.points.tobytes() == expected.tobytes()
        assert sorted(back.landmarks) == sorted(cloud.landmarks)
        for name, p in cloud.landmarks.items():
            assert back.landmarks[name].tobytes() == p.tobytes()

    @given(
        points=st.lists(
            st.tuples(*[st.floats(width=32, allow_nan=False, allow_infinity=False)] * 3),
            min_size=1, max_size=20,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_ascii_decimals_load_as_binary(self, tmp_path_factory, points):
        """Shortest float32 decimals and float64 reprs of float32 values both
        load bit-identical to the binary file of the same values."""
        pts = np.array(points, dtype=np.float32).astype(np.float64)
        d = tmp_path_factory.mktemp("dec")
        save_ply(PointCloud(pts), d / "bin.ply")
        expected = load_ply(d / "bin.ply").points.tobytes()
        header = (
            f"ply\nformat ascii 1.0\nelement vertex {len(pts)}\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n"
        )

        def shortest(v):
            return np.format_float_positional(np.float32(v), unique=True, trim="0")

        for name, fmt in (("f32.ply", shortest), ("f64.ply", repr)):
            body = "".join(" ".join(fmt(v) for v in p) + "\n" for p in pts.tolist())
            (d / name).write_text(header + body)
            assert load_ply(d / name).points.tobytes() == expected, name
