import re
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from facepipe import morphable
from facepipe.morphable import (
    FitConfig,
    FitError,
    FitResult,
    ModelParams,
    MorphableModel,
    ToyModelConfig,
    _rotate_basis,
    _solve_ridge,
    displacement_field,
    fit,
    load_model,
    make_toy_model,
    nearest_vertices,
    random_expression,
    save_model,
    synthesize,
    toy_mean_cloud,
    transfer_expression,
)
from facepipe.pointcloud import (
    NeighborIndex,
    PointCloud,
    RigidTransform,
    WarmNeighbors,
    apply_transform,
    rotation_zyx,
)

from helpers import rotation_angle_deg


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

    @pytest.mark.parametrize("args", [(10, 2, 2, 0), (50, 0, 2, 0), (50, 2, 0, 0), (50, 2, 2, -1)])
    def test_mean_cloud_shares_the_argument_check(self, args):
        message = re.escape(f"need n_vertices >= 50, ks, ke >= 1, seed >= 0; got {args}")
        for build in (make_toy_model, lambda *a: toy_mean_cloud(ToyModelConfig(*a))):
            with pytest.raises(ValueError, match=f"^{message}$"):
                build(*args)

    @given(st.integers(50, 2500), st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_mean_cloud_is_the_models_mean_cloud(self, n, ks, ke, seed):
        # the mean's draws come before the bases', so skipping the bases changes no bit
        want = make_toy_model(n, ks, ke, seed).mean_cloud()
        got = toy_mean_cloud(ToyModelConfig(n, ks, ke, seed))
        assert got.points.tobytes() == want.points.tobytes()
        assert list(got.landmarks) == ["nose_tip"]
        assert got.landmarks["nose_tip"].tobytes() == want.landmarks["nose_tip"].tobytes()

    @given(st.integers(50, 1500), st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32))
    @example(1200, 10, 29, 0)  # c7's model
    @example(2000, 10, 29, 0)  # the default model
    @settings(max_examples=25, deadline=None)
    def test_bases_equal_the_broadcast_reference(self, n, ks, ke, seed):
        # the reference builds each field on an (n, 6, 3) broadcast, and each
        # basis on its own before stacking them: the model must not change a bit
        def broadcast_fields(rng, verts, k):
            raw = np.empty((3 * len(verts), k))
            for j in range(k):
                centers = verts[rng.integers(0, len(verts), size=6)]
                amplitudes = rng.normal(size=(6, 3))
                sigma = rng.uniform(18.0, 40.0)
                sq = np.sum((verts[:, None, :] - centers[None, :, :]) ** 2, axis=2)
                weights = np.exp(-sq / (2 * sigma**2))
                raw[:, j] = (weights @ amplitudes).reshape(-1)
            return raw

        def reference_fields(rng, verts, k):
            assert k == ks + ke
            return np.hstack([broadcast_fields(rng, verts, ks), broadcast_fields(rng, verts, ke)])

        got = make_toy_model(n, ks, ke, seed)
        with mock.patch.object(morphable, "_smooth_random_fields", reference_fields):
            want = make_toy_model(n, ks, ke, seed)
        for name in ("mean", "shape_basis", "expr_basis"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert got.nose_index == want.nose_index


class TestMorphableModel:
    @staticmethod
    def fields(**change):
        rng = np.random.default_rng(3)
        fields = {"mean": rng.normal(size=(4, 3)), "shape_basis": rng.normal(size=(12, 2)),
                  "expr_basis": rng.normal(size=(12, 3)), "nose_index": 0}
        fields.update(change)
        return fields

    def test_valid_fields_build(self):
        assert MorphableModel(**self.fields()).n_vertices == 4

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"mean": np.full((4, 3), np.nan)}, "mean has non-finite"),
            ({"mean": np.diag([np.inf, 1.0, 1.0, 1.0])[:, :3]}, "mean has non-finite"),
            ({"shape_basis": np.full((12, 2), np.nan)}, "shape basis has zero or non-finite"),
            ({"expr_basis": np.zeros((12, 3))}, "expression basis has zero or non-finite"),
            ({"shape_basis": np.ones((9, 2))}, "row counts"),
            ({"nose_index": 4}, "nose_index"),
        ],
        ids=["nan-mean", "inf-mean", "nan-shape-basis", "zero-expression-column",
             "short-basis", "nose-index"],
    )
    def test_rejects_invalid_fields(self, change, message):
        with pytest.raises(ValueError, match=message):
            MorphableModel(**self.fields(**change))


class TestFitConfig:
    @pytest.mark.parametrize(
        "name, value",
        [
            ("max_outer", 0),
            ("max_outer", -1),
            ("max_outer", float("nan")),
            ("convergence_eps", -1.0),
            ("convergence_eps", 0.0),
            ("convergence_eps", float("nan")),
            ("convergence_eps", float("inf")),
            ("ridge", -1.0),
            ("ridge", float("-inf")),
            ("ridge", float("inf")),
            ("ridge", float("nan")),
        ],
    )
    def test_rejects_out_of_range(self, name, value):
        with pytest.raises(ValueError, match=name):
            FitConfig(**{name: value})

    def test_unregularized_fit_accepted(self):
        assert FitConfig(ridge=0.0).ridge == 0.0


class TestModelFile:
    def test_round_trip(self, toy, tmp_path):
        path = tmp_path / "toy.mlmm"
        save_model(toy, path)
        back = load_model(path)
        assert np.array_equal(back.mean, toy.mean)
        assert np.array_equal(back.shape_basis, toy.shape_basis)
        assert np.array_equal(back.expr_basis, toy.expr_basis)
        assert back.nose_index == toy.nose_index

    def test_file_matches_the_readme_layout(self, toy, tmp_path):
        """README's MLMM1 layout, built field by field in explicit little-endian
        formats, so the bytes do not depend on the host's byte order."""
        path = tmp_path / "toy.mlmm"
        save_model(toy, path)
        n = toy.n_vertices
        expected = [b"MLMM1", struct.pack("<QQQ", n, toy.ks, toy.ke),
                    struct.pack(f"<{3 * n}d", *toy.mean.reshape(-1))]
        for basis in (toy.shape_basis, toy.expr_basis):  # column-major: column after column
            expected.append(struct.pack(f"<{basis.size}d", *basis.T.reshape(-1)))
        expected.append(struct.pack("<q", toy.nose_index))
        assert path.read_bytes() == b"".join(expected)

    def test_non_finite_mean_rejected_at_load(self, toy, tmp_path):
        # the mean is the first array after the 29-byte header
        path = tmp_path / "nan.mlmm"
        save_model(toy, path)
        raw = bytearray(path.read_bytes())
        raw[29:37] = np.float64(np.nan).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError) as info:
            load_model(path)
        assert str(info.value).startswith(f"{path}: model mean has non-finite coordinates")

    def test_nose_index_out_of_range_rejected_at_load(self, toy, tmp_path):
        # the nose index is the file's last 8 bytes
        path = tmp_path / "nose.mlmm"
        save_model(toy, path)
        path.write_bytes(path.read_bytes()[:-8] + struct.pack("<q", 10**6))
        with pytest.raises(ValueError) as info:
            load_model(path)
        assert str(info.value).startswith(f"{path}: nose_index out of range")

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

    def test_truncated_header_names_the_file(self, tmp_path):
        path = tmp_path / "cut.mlmm"
        path.write_bytes(b"MLMM1" + b"\x00" * 10)
        with pytest.raises(ValueError) as info:
            load_model(path)
        assert str(info.value).startswith(f"{path}: truncated header")


class TestRandomExpression:
    def test_within_strict_bound_and_nonzero(self):
        for seed in range(20):
            beta = random_expression(np.random.default_rng(seed), 29)
            assert beta.shape == (29,)
            assert np.abs(beta).max() < 0.05
            assert np.count_nonzero(beta) >= 1

    def test_deterministic(self):
        a = random_expression(np.random.default_rng(99), 29)
        b = random_expression(np.random.default_rng(99), 29)
        assert np.array_equal(a, b)

    def test_monte_carlo_distribution(self):
        rng = np.random.default_rng(7)
        counts = set()
        peak = 0.0
        for _ in range(10_000):
            beta = random_expression(rng, 29)
            counts.add(int(np.count_nonzero(beta)))
            peak = max(peak, float(np.abs(beta).max()))
        assert peak < 0.05
        assert counts == set(range(1, 30))


def fit_two_phase(model, scan, config):
    """`fit` written as an update loop followed by a separate measuring tail."""
    nearest = WarmNeighbors(NeighborIndex(scan.points))
    alpha = np.zeros(model.ks)
    beta = np.zeros(model.ke)
    pose = RigidTransform.identity()
    mean_flat = model.mean.reshape(-1)
    prev_rmse = None
    converged = False
    iterations = 0
    for _ in range(config.max_outer):
        iterations += 1
        shape_flat = mean_flat + model.shape_basis @ alpha + model.expr_basis @ beta
        model_pts = shape_flat.reshape(-1, 3)
        posed = pose.apply(model_pts)
        dist, idx = nearest.query_many(posed)
        targets = scan.points[idx]
        rmse = float(np.sqrt(np.mean(dist**2)))
        if prev_rmse is not None and abs(prev_rmse - rmse) < config.convergence_eps:
            converged = True
            break
        prev_rmse = rmse

        pose = RigidTransform.procrustes(model_pts, targets)
        rot = pose.rotation

        rhs = (targets - pose.apply((mean_flat + model.expr_basis @ beta).reshape(-1, 3))).reshape(-1)
        alpha = _solve_ridge(_rotate_basis(rot, model.shape_basis), rhs, config.ridge)

        rhs = (targets - pose.apply((mean_flat + model.shape_basis @ alpha).reshape(-1, 3))).reshape(-1)
        beta = _solve_ridge(_rotate_basis(rot, model.expr_basis), rhs, config.ridge)

    params = ModelParams(alpha, beta)
    fitted_pts = pose.apply(synthesize(model, params).points)
    dist, _ = nearest.query_many(fitted_pts)
    return FitResult(params, pose, PointCloud(fitted_pts), float(np.sqrt(np.mean(dist**2))),
                     converged, iterations)


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

    @staticmethod
    def _noisy_scans(toy):
        rng = np.random.default_rng(8)
        scans = []
        for _ in range(3):
            scan = synthesize(toy, ModelParams(rng.normal(size=5), random_expression(rng, ke=8)))
            t = RigidTransform(rotation_zyx(*rng.uniform(-3, 3, 3)), rng.uniform(-2, 2, 3))
            noise = rng.normal(size=scan.points.shape) * 0.3
            scans.append(PointCloud(t.apply(scan.points) + noise))
        return scans

    @staticmethod
    def _assert_bitwise_equal(got, want):
        for a, b in ((got.params.alpha, want.params.alpha), (got.params.beta, want.params.beta),
                     (got.pose.rotation, want.pose.rotation),
                     (got.pose.translation, want.pose.translation),
                     (got.fitted_points.points, want.fitted_points.points)):
            assert a.tobytes() == b.tobytes()
        assert (got.residual_rmse, got.converged, got.iterations_used) == (
            want.residual_rmse, want.converged, want.iterations_used)

    def test_equals_fresh_queries_every_iteration(self, toy, monkeypatch):
        # an index answers query_many afresh: the warm-started fit must equal it bitwise
        import facepipe.morphable

        scans = self._noisy_scans(toy)
        warm = [fit(toy, scan) for scan in scans]
        monkeypatch.setattr(facepipe.morphable, "WarmNeighbors", lambda index: index)
        for got, scan in zip(warm, scans):
            self._assert_bitwise_equal(got, fit(toy, scan))

    @pytest.mark.parametrize(
        "config", [FitConfig(max_outer=1), FitConfig(max_outer=2), FitConfig(max_outer=6), FitConfig()],
        ids=["one-update", "two-updates", "six-updates", "default"])
    def test_equals_two_phase_fit(self, toy, config):
        # the loop's last, measuring pass gives the result the separate tail gave;
        # the second scan would converge on a seventh pass, which six updates stop short of
        for scan in self._noisy_scans(toy):
            self._assert_bitwise_equal(fit(toy, scan, config), fit_two_phase(toy, scan, config))

    def test_too_few_points(self, toy):
        with pytest.raises(FitError):
            fit(toy, PointCloud(toy.mean[:10]))

    def test_singular_normal_equations(self):
        # with no ridge, two equal expression columns make the beta system singular
        toy = make_toy_model(300, 3, 4, seed=2)
        expr = toy.expr_basis.copy()
        expr[:, 1] = expr[:, 0]
        twin = MorphableModel(toy.mean, toy.shape_basis, expr, toy.nose_index)
        with pytest.raises(FitError) as info:
            fit(twin, toy.mean_cloud(), FitConfig(ridge=0.0))
        assert str(info.value).startswith("singular regularized normal equations: ")


class TestDisplacementField:
    def test_same_beta_gives_zero_field(self, toy):
        scan = synthesize(toy, ModelParams(np.zeros(5), np.zeros(8)))
        fitted = fit(toy, scan)
        field = displacement_field(fitted, fitted.params.beta, toy)
        np.testing.assert_array_equal(field, np.zeros_like(field))

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
        np.testing.assert_allclose(field, oracle, atol=1e-12)

    @pytest.mark.parametrize("length", [7, 9])
    def test_wrong_beta_length_rejected(self, toy, fitted, length):
        # synthesize holds the rule: coefficient lengths must match the bases
        with pytest.raises(ValueError, match=f"coefficient lengths 5/{length} do not match bases 5/8"):
            displacement_field(fitted[1], np.zeros(length), toy)


@pytest.fixture(scope="module")
def fitted(toy):
    scan = synthesize(toy, ModelParams(np.full(5, 0.3), np.zeros(8)))
    return scan, fit(toy, scan)


class TestTransferExpression:

    def test_zero_field_is_identity(self, toy, fitted):
        scan, result = fitted
        field = np.zeros((toy.n_vertices, 3))
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
        deformed = result.fitted_points.points[:50] + field[:50]
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
            expected[i] = p + field[j]
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
        expected = scan.points + field[index.query_many(scan.points)[1]]
        assert out.points.tobytes() == expected.tobytes()
        assert list(out.landmarks) == list(names)
        for name, p in landmarks.items():
            j = index.query_many(p.reshape(1, 3))[1][0]
            assert out.landmarks[name].tobytes() == (p + field[j]).tobytes()

    @pytest.mark.parametrize("rows, value, message", [
        (7, 0.0, "offsets length does not match fitted vertex count"),
        (None, np.nan, "points contain NaN or Inf coordinates"),
    ], ids=["wrong-length", "non-finite"])
    def test_bad_offsets_rejected(self, toy, fitted, rows, value, message):
        scan, result = fitted
        offsets = np.full((rows or toy.n_vertices, 3), value)
        with pytest.raises(ValueError, match=message):
            transfer_expression(scan, result, offsets, nearest_vertices(scan, result))

    def test_preserves_count_and_order(self, toy, fitted):
        scan, result = fitted
        field = np.zeros((toy.n_vertices, 3))
        out = transfer_expression(scan, result, field, nearest_vertices(scan, result))
        assert len(out) == len(scan)
        assert np.array_equal(out.points, scan.points)
