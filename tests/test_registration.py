import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from facepipe.morphable import make_toy_model
from facepipe.pointcloud import (
    EmptyCropError,
    NeighborIndex,
    PointCloud,
    RigidTransform,
    apply_transform,
    crop_sphere,
    rotation_zyx,
)
from facepipe.registration import (
    IcpParams,
    IcpResult,
    NoseDetectionError,
    _accept_mask,
    detect_nose_tip,
    preprocess_with_result,
    rigid_icp,
)


@pytest.fixture(scope="module")
def toy():
    return make_toy_model(n_vertices=1500, ks=5, ke=8, seed=7)


@pytest.fixture(scope="module")
def reference(toy):
    return toy.mean_cloud()


@pytest.fixture(scope="module")
def index(reference):
    return NeighborIndex(reference.points)


@pytest.fixture(scope="module")
def reference_nose(reference):
    return detect_nose_tip(reference)


def rotation_angle_deg(r):
    return np.degrees(np.arccos(np.clip((np.trace(r) - 1) / 2, -1.0, 1.0)))


def icp_reference(source, reference, init, params):
    """rigid_icp with a fresh `query_many` for every correspondence search."""
    total = init
    moved = init.apply(source.points)
    floor = reference.sampling_resolution
    history = []
    converged = False
    for _ in range(params.max_iterations):
        dist, idx = reference.query_many(moved)
        keep = _accept_mask(dist, params.rejection_multiplier, floor)
        history.append(float(dist[keep].mean()))
        step = RigidTransform.procrustes(moved[keep], reference.points[idx[keep]])
        moved = step.apply(moved)
        total = step.compose(total)
        if len(history) > 1 and abs(history[-2] - history[-1]) < params.convergence_eps:
            converged = True
            break
    dist, _ = reference.query_many(moved)
    keep = _accept_mask(dist, params.rejection_multiplier, floor)
    rmse = float(np.sqrt(np.mean(dist[keep] ** 2)))
    return IcpResult(total, rmse, len(history), converged, tuple(history))


class TestAcceptMask:
    # The mask keeps at least one pair whenever there is one, so ICP never
    # rejects every correspondence and preprocess has no ICP failure.
    @given(
        dist=st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, allow_nan=False, allow_infinity=False)),
            min_size=1,
        ),
        multiplier=st.floats(1.0, exclude_min=True, allow_nan=False, allow_infinity=False),
        floor=st.floats(0.0, allow_nan=False, allow_infinity=False),
    )
    @example(dist=[0.0, 0.0, 0.0], multiplier=6.0, floor=0.0)  # all zero
    @example(dist=[0.0, 0.0, 3.0, 4.0], multiplier=6.0, floor=0.0)  # half zero
    def test_keeps_a_pair(self, dist, multiplier, floor):
        dist = np.array(dist)
        with np.errstate(over="ignore"):  # a median of two huge distances is inf, and keeps all
            keep = _accept_mask(dist, multiplier, floor)
            assert keep.any()
            np.testing.assert_array_equal(keep, accept_mask_two_branch(dist, multiplier, floor))


def accept_mask_two_branch(dist, multiplier, floor):
    """`_accept_mask` as it was with its own branch for a zero scale."""
    scale = max(float(np.median(dist)), floor)
    if scale == 0.0:
        return dist == 0.0
    return dist <= multiplier * scale


class TestDetectNoseTip:
    def test_landmark_passthrough(self):
        cloud = PointCloud(np.zeros((1, 3)), {"nose_tip": [1.0, 2.0, 3.0]})
        np.testing.assert_array_equal(detect_nose_tip(cloud), [1.0, 2.0, 3.0])

    def test_toy_face_heuristic(self, toy):
        bare = PointCloud(toy.mean)  # no landmark: forces the heuristic
        estimate = detect_nose_tip(bare)
        truth = toy.mean[toy.nose_index]
        assert np.linalg.norm(estimate - truth) < 10.0

    def test_heuristic_survives_moderate_pose(self, toy):
        t = RigidTransform(rotation_zyx(8.0, -6.0, 4.0), np.array([5.0, -3.0, 7.0]))
        moved = apply_transform(PointCloud(toy.mean), t)
        estimate = detect_nose_tip(moved)
        truth = t.apply(toy.mean[toy.nose_index].reshape(1, 3))[0]
        assert np.linalg.norm(estimate - truth) < 10.0

    def test_depth_sign_turned_toward_the_nose(self, toy):
        # The face mirrored through the origin has bit for bit the same
        # covariance, so the same depth axis: only the bulge test can turn
        # the depth sign toward its nose, which now points the other way.
        face = detect_nose_tip(PointCloud(toy.mean))
        mirrored = detect_nose_tip(PointCloud(-toy.mean))
        np.testing.assert_array_equal(mirrored, -face)
        assert np.linalg.norm(mirrored + toy.mean[toy.nose_index]) < 10.0

    def test_planar_cloud_fails(self):
        rng = np.random.default_rng(0)
        pts = np.column_stack([rng.uniform(-50, 50, (500, 2)), np.zeros(500)])
        with pytest.raises(NoseDetectionError):
            detect_nose_tip(PointCloud(pts))

    def test_small_cloud_without_landmark_fails(self):
        with pytest.raises(NoseDetectionError):
            detect_nose_tip(PointCloud(np.random.default_rng(1).normal(size=(50, 3))))

    def test_empty_central_band_fails(self):
        # two columns at x = -30 and x = +30 mm: no point within the central 40% of x
        rng = np.random.default_rng(4)
        x = np.repeat([-30.0, 30.0], 100)
        pts = np.column_stack([x, rng.uniform(-100, 100, 200), rng.normal(0, 3, 200)])
        with pytest.raises(NoseDetectionError) as info:
            detect_nose_tip(PointCloud(pts))
        assert str(info.value) == "no points in the central horizontal band"


class TestIcpParams:
    @pytest.mark.parametrize(
        "name, value",
        [
            ("max_iterations", float("nan")),
            ("convergence_eps", float("nan")),
            ("convergence_eps", float("inf")),
            ("rejection_multiplier", float("nan")),
            ("rejection_multiplier", float("inf")),
        ],
    )
    def test_rejects_nan_and_infinity(self, name, value):
        with pytest.raises(ValueError, match=name):
            IcpParams(**{name: value})


class TestRigidIcp:
    def test_identity_when_source_equals_reference(self, reference, index):
        result = rigid_icp(reference, index)
        assert result.rmse < 1e-9
        # arccos loses ~1e-6 deg of precision near the identity
        assert rotation_angle_deg(result.transform.rotation) < 1e-5
        assert np.linalg.norm(result.transform.translation) < 1e-9
        assert result.converged

    def test_recovers_known_transform(self, reference, index):
        t = RigidTransform(rotation_zyx(0.0, 5.0, 0.0), np.array([3.0, 0.0, 0.0]))
        source = apply_transform(reference, t)
        result = rigid_icp(source, index)
        assert result.rmse < 1e-6
        err = result.transform.compose(t)
        assert rotation_angle_deg(err.rotation) < 1e-4
        assert np.linalg.norm(err.translation) < 1e-4

    def test_monte_carlo_recovery(self, reference, index):
        rng = np.random.default_rng(2024)
        good = 0
        for _ in range(100):
            t = RigidTransform(
                rotation_zyx(*rng.uniform(-10, 10, 3)), rng.uniform(-10, 10, 3)
            )
            source = apply_transform(reference, t)
            result = rigid_icp(source, index)
            err = result.transform.compose(t)
            if (
                result.rmse < 0.5
                and rotation_angle_deg(err.rotation) < 0.1
                and np.linalg.norm(err.translation) < 0.1
            ):
                good += 1
        assert good >= 95

    def test_mean_distance_non_increasing(self, reference, index):
        t = RigidTransform(rotation_zyx(6.0, -4.0, 8.0), np.array([4.0, -2.0, 6.0]))
        source = apply_transform(reference, t)
        result = rigid_icp(source, index)
        hist = np.array(result.mean_distance_history)
        assert (np.diff(hist) <= 1e-12).all()

    def test_equals_fresh_queries_every_iteration(self, reference, index):
        # the warm-started correspondences change no bit of the result
        rng = np.random.default_rng(31)
        for k in range(12):
            t = RigidTransform(rotation_zyx(*rng.uniform(-12, 12, 3)), rng.uniform(-10, 10, 3))
            source = PointCloud(t.apply(reference.points[rng.permutation(len(reference))[:900]]))
            # noisy rows, and integer rows that tie between reference points
            points = source.points + rng.normal(size=source.points.shape) * 0.2
            if k % 3 == 2:
                points = np.round(points)
            source = PointCloud(points)
            params = IcpParams(max_iterations=k % 4) if k % 4 else IcpParams()
            got = rigid_icp(source, index, params=params)
            want = icp_reference(source, index, RigidTransform.identity(), params)
            assert got.transform.rotation.tobytes() == want.transform.rotation.tobytes()
            assert got.transform.translation.tobytes() == want.transform.translation.tobytes()
            assert got.mean_distance_history == want.mean_distance_history
            assert (got.rmse, got.iterations_used, got.converged) == (
                want.rmse, want.iterations_used, want.converged)

    def test_iteration_cap_respected(self, reference, index):
        params = IcpParams(max_iterations=3, convergence_eps=1e-12)
        t = RigidTransform(rotation_zyx(9.0, 9.0, 9.0), np.array([8.0, 8.0, 8.0]))
        source = apply_transform(reference, t)
        result = rigid_icp(source, index, params=params)
        assert result.iterations_used <= 3

    def test_empty_source_rejected(self):
        # the one source that would keep no pair cannot be built; a crop is never empty
        with pytest.raises(ValueError, match=re.escape("(n, 3) with n >= 1, got (0, 3)")):
            PointCloud(np.zeros((0, 3)))


class TestPreprocess:
    def test_reference_maps_to_cropped_reference(self, reference, index, reference_nose):
        out, _ = preprocess_with_result(reference, index, reference_nose)
        expected = crop_sphere(reference, reference_nose, 100.0)
        assert len(out) == len(expected)
        rmse = np.sqrt(np.mean(np.sum((out.points - expected.points) ** 2, axis=1)))
        assert rmse < 1e-9

    def test_recovers_pitch_and_offset(self, reference, index, reference_nose):
        t = RigidTransform(rotation_zyx(8.0, 0.0, 0.0), np.array([5.0, 0.0, 0.0]))
        moved = apply_transform(reference, t)
        out, _ = preprocess_with_result(moved, index, reference_nose)
        dist, _ = index.query_many(out.points)
        assert np.sqrt(np.mean(dist**2)) < 0.5

    def test_idempotent_within_tolerance(self, reference, index, reference_nose):
        t = RigidTransform(rotation_zyx(-5.0, 3.0, 2.0), np.array([2.0, 4.0, -3.0]))
        moved = apply_transform(reference, t)
        once, _ = preprocess_with_result(moved, index, reference_nose)
        twice, _ = preprocess_with_result(once, index, reference_nose)
        dist, _ = NeighborIndex(once.points).query_many(twice.points)
        assert np.sqrt(np.mean(dist**2)) < 0.1

    def test_error_names_failing_stage(self, index, reference_nose):
        rng = np.random.default_rng(3)
        flat = np.column_stack([rng.uniform(-50, 50, (400, 2)), np.zeros(400)])
        with pytest.raises(NoseDetectionError, match="degenerate"):
            preprocess_with_result(PointCloud(flat), index, reference_nose)

    def test_crop_failure_names_stage(self, index, reference_nose):
        # landmark far from every point: nose detection passes, crop is empty
        rng = np.random.default_rng(4)
        cloud = PointCloud(
            rng.uniform(-40, 40, (200, 3)), {"nose_tip": [5000.0, 0.0, 0.0]}
        )
        with pytest.raises(EmptyCropError, match="no points within"):
            preprocess_with_result(cloud, index, reference_nose)
