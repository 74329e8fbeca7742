import numpy as np
import pytest

from facepipe.augmentation import AugmentPlan, apply_patches, augment_subject, random_rigid
from facepipe.depthmap import DepthMap
from facepipe.morphable import (
    ModelParams,
    displacement_field,
    fit,
    make_toy_model,
    nearest_vertices,
    random_expression,
    synthesize,
    transfer_expression,
)
from facepipe.pointcloud import NeighborIndex

from helpers import euler_angles_zyx


@pytest.fixture(scope="module")
def toy():
    return make_toy_model(n_vertices=600, ks=4, ke=6, seed=11)


class TestAugmentPlan:
    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("angle_bound", float("nan"), "bounds"),
            ("angle_bound", float("inf"), "bounds"),
            ("translation_bound", float("nan"), "bounds"),
            ("translation_bound", float("inf"), "bounds"),
            ("patch_count", float("nan"), "counts"),
        ],
    )
    def test_rejects_nan_and_infinity(self, name, value, message):
        with pytest.raises(ValueError, match=message):
            AugmentPlan(**{name: value})


class TestRandomRigid:
    def test_within_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            t = random_rigid(rng, 10.0, 10.0)
            assert abs(np.linalg.det(t.rotation) - 1.0) < 1e-9
            angles = euler_angles_zyx(t.rotation)
            assert np.abs(angles).max() < 10.0
            assert np.abs(t.translation).max() < 10.0

    def test_tiny_bound_near_identity(self):
        t = random_rigid(np.random.default_rng(1), 1e-12, 1e-12)
        np.testing.assert_allclose(t.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(t.translation, 0.0, atol=1e-12)

    def test_seed_reproducible_and_euler_round_trip(self):
        a = random_rigid(np.random.default_rng(7), 10.0, 10.0)
        b = random_rigid(np.random.default_rng(7), 10.0, 10.0)
        assert np.array_equal(a.rotation, b.rotation)
        assert np.array_equal(a.translation, b.translation)
        # angles drawn first: x, y, z; matrix must reproduce them
        drawn = np.random.default_rng(7).uniform(-10.0, 10.0, 3)
        np.testing.assert_allclose(euler_angles_zyx(a.rotation), drawn, atol=1e-9)


class TestApplyPatches:
    @staticmethod
    def _map(h=64, w=64):
        rng = np.random.default_rng(3)
        return DepthMap(rng.uniform(1, 200, (h, w)), np.ones((h, w), bool))

    def test_zero_count_unchanged(self):
        m = self._map()
        out = apply_patches(m, np.random.default_rng(0), count=0, size=18)
        assert np.array_equal(out.depth, m.depth)
        assert np.array_equal(out.valid, m.valid)

    def test_default_invalidation_bounds(self):
        m = self._map(224, 224)
        out = apply_patches(m, np.random.default_rng(4), count=8, size=18)
        newly_invalid = m.valid & ~out.valid
        assert 324 <= newly_invalid.sum() <= 8 * 324

    def test_deterministic_positions(self):
        m = self._map()
        a = apply_patches(m, np.random.default_rng(5), count=4, size=10)
        b = apply_patches(m, np.random.default_rng(5), count=4, size=10)
        assert np.array_equal(a.valid, b.valid)
        assert np.array_equal(a.depth, b.depth)

    def test_changes_confined_to_patches(self):
        m = self._map()
        out = apply_patches(m, np.random.default_rng(6), count=3, size=12)
        changed = out.depth != m.depth
        assert not (changed & out.valid).any()
        assert (out.depth[~out.valid] == 0.0).all()

    def test_patch_too_large(self):
        m = self._map(16, 16)
        with pytest.raises(ValueError):
            apply_patches(m, np.random.default_rng(7), count=1, size=18)

    @pytest.mark.parametrize("count, size", [(-1, 3), (1, -3)])
    def test_negative_count_or_size(self, count, size):
        m = DepthMap(np.ones((10, 10)), np.ones((10, 10), bool))
        with pytest.raises(ValueError, match="non-negative"):
            apply_patches(m, np.random.default_rng(11), count, size)

    def test_zero_size_unchanged(self):
        m = self._map()
        out = apply_patches(m, np.random.default_rng(12), count=3, size=0)
        assert out.depth.tobytes() == m.depth.tobytes()
        assert out.valid.tobytes() == m.valid.tobytes()


class TestAugmentSubject:
    def test_output_count(self, toy):
        scan = synthesize(toy, ModelParams(np.zeros(4), np.zeros(6)))
        plan = AugmentPlan(expressions_per_subject=5, poses_per_scan=3, seed=1)
        expressions, poses = augment_subject(scan, toy, plan)
        assert (len(expressions), len(poses)) == (5, 3)

    def test_zero_plan_empty(self, toy):
        scan = synthesize(toy, ModelParams(np.zeros(4), np.zeros(6)))
        plan = AugmentPlan(expressions_per_subject=0, poses_per_scan=0, seed=1)
        assert augment_subject(scan, toy, plan) == ([], [])

    def test_expression_outputs_preserve_point_count(self, toy):
        scan = synthesize(toy, ModelParams(np.full(4, 0.2), np.zeros(6)))
        plan = AugmentPlan(expressions_per_subject=4, poses_per_scan=2, seed=2)
        expressions, poses = augment_subject(scan, toy, plan)
        assert (len(expressions), len(poses)) == (4, 2)
        for cloud in expressions + poses:
            assert len(cloud) == len(scan)

    def test_deterministic_given_seed(self, toy):
        scan = synthesize(toy, ModelParams(np.full(4, -0.1), np.zeros(6)))
        plan = AugmentPlan(expressions_per_subject=3, poses_per_scan=2, seed=9)
        a = augment_subject(scan, toy, plan)
        b = augment_subject(scan, toy, plan)
        assert [len(kind) for kind in a] == [len(kind) for kind in b]
        for kind_a, kind_b in zip(a, b):
            for ca, cb in zip(kind_a, kind_b):
                assert np.array_equal(ca.points, cb.points)

    def test_one_neighbor_lookup_per_subject(self, toy, monkeypatch):
        """The expression count adds no neighbour queries, and each variant is
        bitwise the one a fresh nearest_vertices lookup per expression gives."""
        scan = synthesize(toy, ModelParams(np.full(4, 0.1), np.zeros(6)))
        calls = []
        query_many = NeighborIndex.query_many
        monkeypatch.setattr(
            NeighborIndex, "query_many", lambda self, q: calls.append(1) or query_many(self, q)
        )
        counts = []
        for expressions in (1, 4):
            calls.clear()
            plan = AugmentPlan(expressions_per_subject=expressions, poses_per_scan=0, seed=4)
            out, poses = augment_subject(scan, toy, plan)
            assert (len(out), poses) == (expressions, [])
            counts.append(len(calls))
        assert counts[0] == counts[1]
        rng = np.random.default_rng(4)
        fitted = fit(toy, scan)
        for cloud in out:
            field = displacement_field(fitted, random_expression(rng, toy.ke), toy)
            assert cloud.points.tobytes() == transfer_expression(
                scan, fitted, field, nearest_vertices(scan, fitted)
            ).points.tobytes()

    def test_expressions_actually_deform(self, toy):
        scan = synthesize(toy, ModelParams(np.zeros(4), np.zeros(6)))
        plan = AugmentPlan(expressions_per_subject=3, poses_per_scan=0, seed=3)
        expressions, poses = augment_subject(scan, toy, plan)
        assert (len(expressions), poses) == (3, [])
        for cloud in expressions:
            rms = np.sqrt(np.mean(np.sum((cloud.points - scan.points) ** 2, axis=1)))
            assert rms > 0.1
