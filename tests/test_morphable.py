import numpy as np
import pytest

from facepipe.morphable import (
    DisplacementField,
    FitError,
    ModelParams,
    displacement_field,
    fit,
    load_model,
    make_toy_model,
    nearest_vertices,
    random_expression,
    save_model,
    synthesize,
    transfer_expression,
)
from facepipe.pointcloud import (
    NeighborIndex,
    PointCloud,
    RigidTransform,
    apply_transform,
    rotation_zyx,
)


@pytest.fixture(scope="module")
def toy():
    return make_toy_model(n_vertices=600, ks=5, ke=8, seed=42)


def dense_synthesis_oracle(model, alpha, beta):
    """Independent evaluation: accumulate one basis column at a time."""
    flat = model.mean.reshape(-1).copy()
    for k, a in enumerate(alpha):
        flat = flat + a * model.shape_basis[:, k]
    for k, b in enumerate(beta):
        flat = flat + b * model.expr_basis[:, k]
    return flat.reshape(-1, 3)


def rotation_angle_deg(r):
    return np.degrees(np.arccos(np.clip((np.trace(r) - 1) / 2, -1.0, 1.0)))


class TestSynthesize:
    def test_zero_coefficients_give_mean(self, toy):
        out = synthesize(toy, ModelParams(np.zeros(5), np.zeros(8)))
        np.testing.assert_array_equal(out.points, toy.mean)

    def test_unit_alpha_adds_first_column(self, toy):
        e1 = np.zeros(5)
        e1[0] = 1.0
        out = synthesize(toy, ModelParams(e1, np.zeros(8)))
        expected = toy.mean + toy.shape_basis[:, 0].reshape(-1, 3)
        np.testing.assert_allclose(out.points, expected, atol=1e-12)

    def test_matches_dense_oracle(self, toy):
        rng = np.random.default_rng(0)
        for _ in range(10):
            alpha = rng.normal(size=5)
            beta = rng.uniform(-0.05, 0.05, size=8)
            got = synthesize(toy, ModelParams(alpha, beta)).points
            want = dense_synthesis_oracle(toy, alpha, beta)
            assert np.abs(got - want).max() < 1e-10

    def test_linearity(self, toy):
        rng = np.random.default_rng(1)
        a1, a2 = rng.normal(size=(2, 5))
        b1, b2 = rng.uniform(-0.05, 0.05, (2, 8))
        lhs = synthesize(toy, ModelParams(a1 + a2, b1 + b2)).points - toy.mean
        rhs = (
            synthesize(toy, ModelParams(a1, b1)).points
            - toy.mean
            + synthesize(toy, ModelParams(a2, b2)).points
            - toy.mean
        )
        assert np.abs(lhs - rhs).max() < 1e-9

    def test_dimension_mismatch(self, toy):
        with pytest.raises(ValueError):
            synthesize(toy, ModelParams(np.zeros(4), np.zeros(8)))


class TestToyModel:
    def test_deterministic_per_seed(self):
        a = make_toy_model(200, 3, 4, seed=5)
        b = make_toy_model(200, 3, 4, seed=5)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.shape_basis, b.shape_basis)
        assert np.array_equal(a.expr_basis, b.expr_basis)
        assert a.nose_index == b.nose_index

    def test_bases_column_orthogonal(self, toy):
        for basis in (toy.shape_basis, toy.expr_basis):
            norms = np.linalg.norm(basis, axis=0)
            gram = (basis / norms).T @ (basis / norms)
            off = gram - np.diag(np.diag(gram))
            assert np.abs(off).max() < 1e-8

    def test_nose_is_depth_maximum(self, toy):
        cloud = synthesize(toy, ModelParams(np.zeros(5), np.zeros(8)))
        assert int(np.argmax(cloud.points[:, 2])) == toy.nose_index

    def test_rejects_tiny_model(self):
        with pytest.raises(ValueError):
            make_toy_model(10, 2, 2, seed=0)


class TestModelFile:
    def test_round_trip(self, toy, tmp_path):
        path = tmp_path / "toy.mlmm"
        save_model(toy, path)
        back = load_model(path)
        assert np.array_equal(back.mean, toy.mean)
        assert np.array_equal(back.shape_basis, toy.shape_basis)
        assert np.array_equal(back.expr_basis, toy.expr_basis)
        assert back.nose_index == toy.nose_index

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.mlmm"
        path.write_bytes(b"NOPE!" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_model(path)

    def test_truncated(self, toy, tmp_path):
        path = tmp_path / "cut.mlmm"
        save_model(toy, path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(ValueError, match="bytes"):
            load_model(path)


class TestRandomExpression:
    def test_within_strict_bound_and_nonzero(self):
        for seed in range(20):
            beta = random_expression(np.random.default_rng(seed))
            assert beta.shape == (29,)
            assert np.abs(beta).max() < 0.05
            assert np.count_nonzero(beta) >= 1

    def test_deterministic(self):
        a = random_expression(np.random.default_rng(99))
        b = random_expression(np.random.default_rng(99))
        assert np.array_equal(a, b)

    def test_monte_carlo_distribution(self):
        rng = np.random.default_rng(7)
        counts = set()
        peak = 0.0
        for _ in range(10_000):
            beta = random_expression(rng)
            counts.add(int(np.count_nonzero(beta)))
            peak = max(peak, float(np.abs(beta).max()))
        assert peak < 0.05
        assert counts == set(range(1, 30))


class TestFit:
    def test_self_consistency(self, toy):
        rng = np.random.default_rng(2)
        alpha = rng.normal(size=5) * 0.8
        beta = random_expression(rng, ke=8)
        scan = synthesize(toy, ModelParams(alpha, beta))
        result = fit(toy, scan)
        recon = np.sqrt(np.mean(np.sum((result.fitted_points.points - scan.points) ** 2, axis=1)))
        assert recon < 1e-3
        assert result.residual_rmse < 1e-3
        assert result.converged

    def test_mean_scan_keeps_alpha_small(self, toy):
        scan = PointCloud(toy.mean)
        result = fit(toy, scan)
        assert result.residual_rmse < 1e-6
        assert np.linalg.norm(result.params.alpha) < 1e-6

    def test_recovers_known_pose(self, toy):
        rng = np.random.default_rng(3)
        alpha = rng.normal(size=5) * 0.5
        scan = synthesize(toy, ModelParams(alpha, np.zeros(8)))
        t = RigidTransform(rotation_zyx(0.0, 5.0, 0.0), np.zeros(3))
        moved = apply_transform(scan, t)
        result = fit(toy, moved)
        err = rotation_angle_deg(result.pose.rotation @ t.rotation.T)
        assert err < 0.2
        assert result.residual_rmse < 1e-2

    def test_equals_fresh_queries_every_iteration(self, toy, monkeypatch):
        # an index answers query_many afresh: the warm-started fit must equal it bitwise
        import facepipe.morphable

        rng = np.random.default_rng(8)
        scans = []
        for _ in range(3):
            scan = synthesize(toy, ModelParams(rng.normal(size=5), random_expression(rng, ke=8)))
            t = RigidTransform(rotation_zyx(*rng.uniform(-3, 3, 3)), rng.uniform(-2, 2, 3))
            noise = rng.normal(size=scan.points.shape) * 0.3
            scans.append(PointCloud(t.apply(scan.points) + noise))
        warm = [fit(toy, scan) for scan in scans]
        monkeypatch.setattr(facepipe.morphable, "WarmNeighbors", lambda index: index)
        for got, scan in zip(warm, scans):
            want = fit(toy, scan)
            for a, b in ((got.params.alpha, want.params.alpha), (got.params.beta, want.params.beta),
                         (got.pose.rotation, want.pose.rotation),
                         (got.pose.translation, want.pose.translation),
                         (got.fitted_points.points, want.fitted_points.points)):
                assert a.tobytes() == b.tobytes()
            assert (got.residual_rmse, got.converged, got.iterations_used) == (
                want.residual_rmse, want.converged, want.iterations_used)

    def test_too_few_points(self, toy):
        with pytest.raises(FitError):
            fit(toy, PointCloud(toy.mean[:10]))


class TestDisplacementField:
    def test_same_beta_gives_zero_field(self, toy):
        scan = synthesize(toy, ModelParams(np.zeros(5), np.zeros(8)))
        fitted = fit(toy, scan)
        field = displacement_field(fitted, fitted.params.beta, toy)
        np.testing.assert_array_equal(field.vectors, np.zeros_like(field.vectors))

    def test_matches_subtraction_oracle(self, toy):
        rng = np.random.default_rng(4)
        scan = synthesize(toy, ModelParams(rng.normal(size=5) * 0.5, np.zeros(8)))
        fitted = fit(toy, scan)
        target = random_expression(rng, ke=8)
        field = displacement_field(fitted, target, toy)
        deformed = fitted.pose.apply(
            synthesize(toy, ModelParams(fitted.params.alpha, target)).points
        )
        oracle = deformed - fitted.fitted_points.points
        np.testing.assert_allclose(field.vectors, oracle, atol=1e-12)

    def test_constant_offset_gives_constant_field(self, toy):
        base = synthesize(toy, ModelParams(np.zeros(5), np.zeros(8))).points
        field = DisplacementField((base + [1.0, 2.0, 3.0]) - base)
        np.testing.assert_allclose(field.vectors, np.tile([1.0, 2.0, 3.0], (len(base), 1)))


@pytest.fixture(scope="module")
def fitted(toy):
    scan = synthesize(toy, ModelParams(np.full(5, 0.3), np.zeros(8)))
    return scan, fit(toy, scan)


class TestTransferExpression:

    def test_zero_field_is_identity(self, toy, fitted):
        scan, result = fitted
        field = DisplacementField(np.zeros((toy.n_vertices, 3)))
        out = transfer_expression(scan, result, field, nearest_vertices(scan, result))
        assert np.array_equal(out.points, scan.points)

    def test_identity_invariant_with_fitted_beta(self, toy, fitted):
        scan, result = fitted
        field = displacement_field(result, result.params.beta, toy)
        out = transfer_expression(scan, result, field, nearest_vertices(scan, result))
        assert np.array_equal(out.points, scan.points)

    def test_coincident_points_land_on_deformed_model(self, toy, fitted):
        _, result = fitted
        rng = np.random.default_rng(5)
        target = random_expression(rng, ke=8)
        field = displacement_field(result, target, toy)
        probe = PointCloud(result.fitted_points.points[:50].copy())
        out = transfer_expression(probe, result, field, nearest_vertices(probe, result))
        deformed = result.fitted_points.points[:50] + field.vectors[:50]
        np.testing.assert_allclose(out.points, deformed, atol=1e-12)

    def test_matches_exhaustive_oracle(self, toy, fitted):
        scan, result = fitted
        rng = np.random.default_rng(6)
        jitter = PointCloud(scan.points + rng.normal(scale=0.5, size=scan.points.shape))
        target = random_expression(rng, ke=8)
        field = displacement_field(result, target, toy)
        out = transfer_expression(jitter, result, field, nearest_vertices(jitter, result))
        omega = result.fitted_points.points
        expected = np.empty_like(jitter.points)
        for i, p in enumerate(jitter.points):
            j = int(np.argmin(np.sum((omega - p) ** 2, axis=1)))
            expected[i] = p + field.vectors[j]
        np.testing.assert_array_equal(out.points, expected)

    @pytest.mark.parametrize("names", [("nose_tip", "chin", "left_eye"), ()],
                             ids=["landmarks", "none"])
    def test_landmarks_bitwise_equal_to_per_landmark_form(self, toy, fitted, names):
        scan, result = fitted
        rng = np.random.default_rng(7)
        picks = rng.choice(len(scan), size=len(names), replace=False)
        # landmarks on and near scan points: some coincide with a scan row
        landmarks = {
            name: scan.points[i] + (0.0 if k == 0 else rng.normal(scale=2.0, size=3))
            for k, (name, i) in enumerate(zip(names, picks))
        }
        cloud = PointCloud(scan.points, landmarks)
        field = displacement_field(result, random_expression(rng, ke=8), toy)
        out = transfer_expression(cloud, result, field, nearest_vertices(cloud, result))
        # reference: the scan points in one query, then one query per landmark
        index = NeighborIndex(result.fitted_points.points)
        expected = scan.points + field.vectors[index.query_many(scan.points)[1]]
        assert out.points.tobytes() == expected.tobytes()
        assert list(out.landmarks) == list(names)
        for name, p in landmarks.items():
            j = index.query_many(p.reshape(1, 3))[1][0]
            assert out.landmarks[name].tobytes() == (p + field.vectors[j]).tobytes()

    def test_preserves_count_and_order(self, toy, fitted):
        scan, result = fitted
        field = DisplacementField(np.zeros((toy.n_vertices, 3)))
        out = transfer_expression(scan, result, field, nearest_vertices(scan, result))
        assert len(out) == len(scan)
        assert np.array_equal(out.points, scan.points)
