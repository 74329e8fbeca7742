import dataclasses
import functools
import hashlib
import json
import os
import struct
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from facepipe import embedding
from facepipe.depthmap import DepthMap, export_pgm, load_pgm, pgm_bytes
from facepipe.embedding import (
    ExternalBackend,
    _back_map,
    _row_products,
    FeatureFormatError,
    FeatureLookupError,
    PcaModel,
    baseline_train,
    pca_fit,
    pca_fit_variance,
    pca_transform,
    read_feature_file,
    sqrt_normalize,
    write_feature_file,
)

from helpers import run_python, write_raw_feature_file


def eigensolver_oracle(x):
    """Dense covariance eigendecomposition, no Gram shortcut."""
    xc = x - x.mean(axis=0)
    cov = xc.T @ xc / (x.shape[0] - 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    return evals[order], evecs[:, order]


def fit_copy(features, k):
    """`pca_fit` of a private float64 copy: `features` may be a list or shared."""
    return pca_fit(np.array(features, dtype=np.float64), k)


def fit_variance_copy(features, variance_target, cap):
    """`pca_fit_variance` of a private float64 copy."""
    return pca_fit_variance(np.array(features, dtype=np.float64), variance_target, cap)


def transform_raw(model, values):
    """`pca_transform` of rows not yet centred: of `values - model.mean`."""
    return pca_transform(model, np.asarray(values, dtype=np.float64) - model.mean)


def random_maps(rng, n, size=224):
    maps = []
    for _ in range(n):
        depth = rng.uniform(0, 255, (size, size))
        maps.append(DepthMap(depth, np.ones((size, size), bool)))
    return maps


def masked_maps(rng, n, size):
    """Random maps with about a fifth of their pixels invalid."""
    maps = []
    for dmap in random_maps(rng, n, size=size):
        valid = rng.uniform(size=(size, size)) > 0.2
        maps.append(DepthMap(np.where(valid, dmap.depth, 0.0), valid))
    return maps


def write_pgms(folder, maps):
    """Export each map to its own PGM in `folder`; returns the paths in order."""
    paths = []
    for i, dmap in enumerate(maps):
        paths.append(folder / f"m{i:03d}.pgm")
        export_pgm(dmap, paths[-1])
    return paths


class TestSqrtNormalize:
    def test_perfect_squares(self):
        np.testing.assert_array_equal(sqrt_normalize([4.0, 9.0, 16.0]), [2.0, 3.0, 4.0])

    def test_zeros(self):
        np.testing.assert_array_equal(sqrt_normalize(np.zeros(5)), np.zeros(5))

    def test_signed(self):
        np.testing.assert_array_equal(sqrt_normalize([-4.0]), [-2.0])

    def test_preserves_magnitude_order(self):
        rng = np.random.default_rng(0)
        v = rng.uniform(-50, 50, 300)
        out = sqrt_normalize(v)
        order = np.argsort(np.abs(v), kind="stable")
        assert (np.diff(np.abs(out)[order]) >= 0).all()
        assert np.array_equal(np.sign(out), np.sign(v))


class TestPcaFit:
    def test_line_y_equals_x(self):
        rng = np.random.default_rng(1)
        t = rng.normal(size=40)
        pts = np.column_stack([t, t]) + [3.0, -1.0]
        model = pca_fit(pts, 1)
        np.testing.assert_allclose(np.abs(model.components[0]), [1, 1] / np.sqrt(2), atol=1e-12)

    def test_k_equals_count_minus_one(self):
        pts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
        model = pca_fit(pts, 2)
        assert model.components.shape == (2, 3)
        gram = model.components @ model.components.T
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-12)

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(20, 8)) @ np.diag(rng.uniform(0.5, 3, 8))
        model = fit_copy(x, 5)
        evals, evecs = eigensolver_oracle(x)
        np.testing.assert_allclose(model.explained_variance, evals[:5], atol=1e-8)
        for i in range(5):
            dot = abs(model.components[i] @ evecs[:, i])
            assert abs(dot - 1.0) < 1e-8

    def test_gram_route_matches_covariance_route(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(10, 40))  # n < d: Gram path
        model = fit_copy(x, 6)
        evals, evecs = eigensolver_oracle(x)
        np.testing.assert_allclose(model.explained_variance, evals[:6], atol=1e-8)
        for i in range(6):
            assert abs(abs(model.components[i] @ evecs[:, i]) - 1.0) < 1e-8

    def test_total_variance_bound(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(15, 6))
        total = ((x - x.mean(0)) ** 2).sum() / (len(x) - 1)
        model = fit_copy(x, 5)
        assert model.explained_variance.sum() <= total + 1e-9
        full = fit_copy(x, 5 if 5 == min(6, 14) else min(6, 14))
        assert full.explained_variance.sum() <= total + 1e-9

    @pytest.mark.parametrize("shape", [(12, 40), (40, 6)], ids=["gram", "covariance"])
    def test_top_k_rows_bitwise_equal_to_full_fit(self, shape):
        x = np.random.default_rng(8).normal(size=shape)
        full = fit_copy(x, min(shape[0] - 1, shape[1]))
        for k in (1, 3, full.k):
            top = fit_copy(x, k)
            assert top.components.tobytes() == full.components[:k].tobytes()
            assert top.explained_variance.tobytes() == full.explained_variance[:k].tobytes()
            capped = fit_variance_copy(x, 1.0, cap=k)
            assert capped.components.tobytes() == top.components.tobytes()

    def test_gram_fit_peak_memory(self):
        # The (k, d) components are the one large array a Gram fit allocates; a
        # back-map that left them a view would have the record copy them.
        n, d, k = 40, 20000, 39
        x = np.random.default_rng(19).normal(size=(n, d))
        tracemalloc.start()
        try:
            pca_fit(x, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * k * d * 8

    @pytest.mark.parametrize("shape", [(12, 40), (40, 6)], ids=["gram", "covariance"])
    def test_fit_centres_the_input_in_place(self, shape):
        original = np.random.default_rng(10).normal(size=shape) + 4.0
        for fit in (lambda x: pca_fit(x, 3), lambda x: pca_fit_variance(x, 0.9, cap=5)):
            x = original.copy()
            model = fit(x)
            assert x.tobytes() == (original - model.mean).tobytes()

    @pytest.mark.parametrize("kind", ["list", "float32", "read-only"])
    def test_input_it_cannot_centre_is_rejected_unchanged(self, kind):
        x = np.random.default_rng(11).normal(size=(6, 4)) + 4.0
        if kind == "list":
            x = x.tolist()
        elif kind == "float32":
            x = x.astype(np.float32)
        else:
            x.setflags(write=False)
        before = np.array(x)
        for fit in (lambda: pca_fit(x, 2), lambda: pca_fit_variance(x, 0.9, cap=3)):
            with pytest.raises(ValueError if kind == "read-only" else TypeError):
                fit()
            assert np.array(x).tobytes() == before.tobytes()

    @pytest.mark.parametrize("shape", [(1, 4), (3, 0)], ids=["one-row", "zero-width"])
    def test_too_few_values_rejected(self, shape):
        for fit in (lambda x: pca_fit(x, 1), lambda x: pca_fit_variance(x, 0.9, cap=2)):
            with pytest.raises(ValueError, match="need at least two feature vectors"):
                fit(np.empty(shape))

    @pytest.mark.parametrize("cap", [0, -3])
    def test_cap_below_one(self, cap):
        with pytest.raises(ValueError, match=f"cap must be at least 1, got {cap}"):
            pca_fit_variance(np.random.default_rng(12).normal(size=(6, 4)), 0.9, cap)

    def test_k_above_numerical_rank(self):
        x = np.repeat(np.random.default_rng(9).normal(size=(4, 10)), 3, axis=0)
        with pytest.raises(ValueError, match="numerical rank 3"):
            pca_fit(x, 5)

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            pca_fit(np.random.default_rng(5).normal(size=(4, 10)), 4)

    def test_degenerate_input(self):
        with pytest.raises(ValueError, match="degenerate"):
            pca_fit(np.ones((5, 3)), 1)

    def test_variance_target_selection(self):
        rng = np.random.default_rng(6)
        base = rng.normal(size=(30, 5)) @ np.diag([10.0, 5.0, 1.0, 0.1, 0.01])
        model = fit_variance_copy(base, 0.95, cap=10)
        cum = np.cumsum(model.explained_variance)
        evals, _ = eigensolver_oracle(base)
        assert cum[-1] / evals.sum() >= 0.95
        smaller = fit_variance_copy(base, 0.95, cap=model.k - 1)
        assert smaller.k == model.k - 1


class TestChecks:
    """Each check of a PCA model, a fit's target, a feature file or a feature directory."""

    @pytest.mark.parametrize(
        "mean, components, variance, message",
        [
            (np.zeros(3), np.eye(2), [2.0, 1.0], "components must be (k, d) matching the mean"),
            (np.zeros(2), np.zeros(2), [1.0], "components must be (k, d) matching the mean"),
            (np.zeros(2), np.eye(2), [1.0], "one variance per component required"),
            (np.zeros(2), np.eye(2), [1.0, 2.0], "explained_variance must be non-increasing and >= 0"),
            (np.zeros(2), np.eye(2), [1.0, -1.0], "explained_variance must be non-increasing and >= 0"),
        ],
        ids=["width", "1-d", "variance-count", "increasing", "negative"],
    )
    def test_pca_model_checks(self, mean, components, variance, message):
        with pytest.raises(ValueError) as info:
            PcaModel(mean, components, variance)
        assert str(info.value) == message

    @pytest.mark.parametrize("target", [0.0, -0.5, 1.5, float("nan")])
    def test_variance_target_outside_range(self, target):
        x = np.random.default_rng(13).normal(size=(6, 4))
        before = x.copy()
        with pytest.raises(ValueError) as info:
            pca_fit_variance(x, target, 2)
        assert str(info.value) == "variance_target must be in (0, 1]"
        assert x.tobytes() == before.tobytes()  # rejected before any row is centred

    @pytest.mark.parametrize(
        "data, message",
        [(b"FVEC2" + struct.pack("<Q", 1) + bytes(8), "bad magic, expected b'FVEC1'"),
         (b"FVEC1\x01\x00\x00", "truncated header")],
        ids=["magic", "short-header"],
    )
    def test_feature_file_header(self, tmp_path, data, message):
        path = tmp_path / "x.fvec"
        path.write_bytes(data)
        with pytest.raises(FeatureFormatError) as info:
            read_feature_file(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("kind", ["absent", "file"])
    def test_external_backend_needs_a_directory(self, tmp_path, kind):
        directory = tmp_path / "features"
        if kind == "file":
            directory.write_bytes(b"")
        with pytest.raises(FileNotFoundError) as info:
            ExternalBackend(directory)
        assert str(info.value) == f"feature directory {directory} does not exist"


class TestPcaTransform:
    @pytest.fixture()
    def model(self):
        rng = np.random.default_rng(7)
        return pca_fit(rng.normal(size=(25, 9)), 4)

    def test_mean_maps_to_zero(self, model):
        np.testing.assert_allclose(transform_raw(model, model.mean), 0.0, atol=1e-12)

    def test_component_maps_to_unit_vector(self, model):
        for i in range(model.k):
            out = transform_raw(model, model.mean + model.components[i])
            expected = np.zeros(model.k)
            expected[i] = 1.0
            np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_reconstruction_residual_orthogonal_to_span(self, model):
        rng = np.random.default_rng(8)
        v = rng.normal(size=9)
        coded = transform_raw(model, v)
        recon = model.mean + coded @ model.components
        residual = v - recon
        np.testing.assert_allclose(model.components @ residual, 0.0, atol=1e-10)

    def test_training_set_centered(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(18, 6)) + 5.0
        model = fit_copy(x, 3)
        coded = transform_raw(model, x)
        np.testing.assert_allclose(coded.mean(axis=0), 0.0, atol=1e-8)

    def test_dimension_mismatch(self, model):
        with pytest.raises(ValueError):
            pca_transform(model, np.zeros(5))


ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1"}
BLAS_FACTS = """
import hashlib, json, tempfile
from pathlib import Path
import numpy as np
from facepipe import embedding
from facepipe.morphable import make_toy_model, save_model
sha = lambda raw: hashlib.sha256(raw).hexdigest()
x = np.random.default_rng(7).integers(0, 65536, (300, 4096)) / 257
model = embedding.pca_fit(x, 20)
facts = {"fit": sha(model.components.tobytes() + model.explained_variance.tobytes()),
         "blocked": {}, "models": {}}
blocked = embedding._back_map
for d in (4096, 4100):
    x = np.random.default_rng(d).integers(0, 65536, (300, d)) / 257
    new = embedding.pca_fit(x.copy(), 20).components
    embedding._back_map = lambda v, xc: embedding._row_products(v, xc.T)
    facts["blocked"][d] = new.tobytes() == embedding.pca_fit(x, 20).components.tobytes()
    embedding._back_map = blocked
with tempfile.TemporaryDirectory() as tmp:
    for args in [(2000, 10, 29, 0), (1200, 10, 29, 0), (57, 3, 5, 9)]:  # tools/identity.py's
        save_model(make_toy_model(*args), Path(tmp, "model"))
        facts["models"]["-".join(map(str, args))] = sha(Path(tmp, "model").read_bytes())
"""
ROW_PRODUCTS_RERUN = f"""
import contextlib, io, pytest
with contextlib.redirect_stdout(io.StringIO()) as report:
    status = pytest.main(["-q", {f'{Path(__file__).resolve()}::TestRowProducts'!r}])
facts["row_products"] = [int(status), report.getvalue()]
"""


def blas_facts(override: dict) -> dict:
    """Every BLAS-dependent fact the bit contracts read, from one new process per distinct
    environment `override`: README's seeded 300 x 4096 fit digest, the blocked back-map against
    one call at d = 4096 and 4100, the toy models' `save_model` digests by their arguments, and
    at `ONE_THREAD` the status and report of `TestRowProducts` run there."""
    return _blas_facts(frozenset(override.items()))


@functools.cache
def _blas_facts(override: frozenset) -> dict:
    rerun = ROW_PRODUCTS_RERUN if dict(override) == ONE_THREAD else ""
    return json.loads(run_python(f"{BLAS_FACTS}{rerun}print(json.dumps(facts))", **dict(override)))


def numpy_blas() -> dict:
    """numpy's build record of its BLAS, empty where numpy does not give one."""
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return {}


def runs_openblas_with(*features: str) -> bool:
    """numpy's BLAS is OpenBLAS, and the CPU has every named instruction set."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return False
    return ("openblas" in numpy_blas().get("name", "")
            and all(__cpu_features__.get(f) for f in features))


README_BLAS = "0.3.31.188.0"  # the scipy-openblas build whose kernel digests README gives
needs_haswell_and_sandybridge = pytest.mark.skipif(
    not runs_openblas_with("AVX", "AVX2", "FMA3"), reason="needs OpenBLAS and a CPU with AVX2 and FMA3")


def skip_unless_readme_blas(kernel: str, threads: str, features: tuple) -> None:
    """Skips unless README's scipy-openblas can run `kernel` (its CPU `features`) at `threads`."""
    if numpy_blas().get("version") != README_BLAS:
        pytest.skip(f"README's digests are of scipy-openblas {README_BLAS}")
    if not runs_openblas_with(*features):
        pytest.skip(f"the CPU lacks the {kernel} kernel's instructions")
    if (os.cpu_count() or 1) < int(threads):
        pytest.skip(f"needs {threads} cores for {threads} BLAS threads")


class TestPcaBitwise:
    """The in-place fit and the row-wise projection that evaluate uses, bit for bit."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 12), d=st.integers(1, 40),
           m=st.integers(2, 30))
    @settings(max_examples=200, deadline=None)
    def test_batch_rows_equal_rows_alone(self, seed, n, d, m):
        rng = np.random.default_rng(seed)
        model = pca_fit(rng.normal(size=(m, d)), 1 + seed % min(d, m - 1))
        values = rng.normal(size=(n, d))
        batch = pca_transform(model, values)
        assert batch.shape == (n, model.k)
        for row, coded in zip(values, batch):
            assert pca_transform(model, row.copy()).tobytes() == coded.tobytes()
        # a 1-D input is a batch of one
        vector = rng.normal(size=d)
        assert pca_transform(model, vector).tobytes() == pca_transform(model, vector[None])[0].tobytes()

    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(2, 24), extra=st.integers(0, 8),
           d=st.integers(1, 40), target=st.floats(0.05, 1.0), cap=st.integers(1, 30))
    @settings(max_examples=200, deadline=None)
    def test_owned_variance_fit_on_leading_rows(self, seed, rows, extra, d, target, cap):
        x = np.random.default_rng(seed).normal(size=(rows + extra, d)) + 3.0
        reference = fit_variance_copy(x[:rows], target, cap)
        owned = x.copy()
        model = pca_fit_variance(owned[:rows], target, cap)  # a view: centred in place
        assert model.mean.tobytes() == reference.mean.tobytes()
        assert model.components.tobytes() == reference.components.tobytes()
        assert model.explained_variance.tobytes() == reference.explained_variance.tobytes()
        assert owned[:rows].tobytes() == (x[:rows] - model.mean).tobytes()
        assert owned[rows:].tobytes() == x[rows:].tobytes()

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores for two BLAS threads")
    @pytest.mark.xfail(
        reason="the Gram product's summation order depends on the BLAS thread count "
        "(ROADMAP: byte identity at any BLAS thread count)",
        raises=AssertionError,
        strict=True,
    )
    def test_fit_bits_independent_of_blas_threads(self):
        # c7's training matrix is 300 x 50176; 300 x 4096 shows the same split
        assert blas_facts(ONE_THREAD)["fit"] == blas_facts({"OPENBLAS_NUM_THREADS": "2"})["fit"]

    @needs_haswell_and_sandybridge
    @pytest.mark.xfail(
        reason="OpenBLAS kernels round the Gram product differently; README names the "
        "kernel with the digests (ROADMAP: output bits across BLAS kernels)",
        raises=AssertionError,
        strict=True,
    )
    def test_fit_bits_independent_of_blas_kernel(self):
        # README: 92f884ec... with Haswell, 959dd9c7... with Sandybridge
        assert (blas_facts({"OPENBLAS_CORETYPE": "Haswell"})["fit"]
                == blas_facts({"OPENBLAS_CORETYPE": "Sandybridge"})["fit"])

    @pytest.mark.parametrize("kernel, threads, digest, features", [
        ("SkylakeX", "2", "64d5c7b76ce234c0db4199e05326e994902802a10d3b55d159328ceee4da9b80",
         ("AVX512_SKX",)),
        ("SkylakeX", "1", "1c2e266ec8671f2073bf9b43f661ff4e09edf1fa22f560ff3710dfb72ffc5f03",
         ("AVX512_SKX",)),
        ("Haswell", "2", "92f884ecf8dddca15c5c37ef4d2f3830a40241ed5fb7031a10b7af9af5617a67",
         ("AVX", "AVX2", "FMA3")),
        ("Sandybridge", "2", "959dd9c7350c19bf60a02d384d4ebd5b1970846259f8b5ffbea3f9fd28774a7e",
         ("AVX",)),
    ], ids=["SkylakeX-2-threads", "SkylakeX-1-thread", "Haswell", "Sandybridge"])
    def test_readme_fit_digests(self, kernel, threads, digest, features):
        skip_unless_readme_blas(kernel, threads, features)
        assert blas_facts({"OPENBLAS_CORETYPE": kernel, "OPENBLAS_NUM_THREADS": threads})["fit"] == digest

    @pytest.mark.parametrize("threads, default_model", [
        ("2", "121d7dee4f11f38ddc9ff534c7842cc9351247af5bb30b3fa2937bc9b2c3be2a"),
        ("1", "766a1a4f7437a495ecacd7cd64309db414d2fa46130b6c8495b838b8e776186a"),
    ], ids=["SkylakeX-2-threads", "SkylakeX-1-thread"])
    def test_toy_model_digests(self, threads, default_model):
        # the default model's bits follow the BLAS thread count; c7's and the small one's do not
        skip_unless_readme_blas("SkylakeX", threads, ("AVX512_SKX",))
        models = blas_facts({"OPENBLAS_CORETYPE": "SkylakeX", "OPENBLAS_NUM_THREADS": threads})["models"]
        assert models == {
            "2000-10-29-0": default_model,
            "1200-10-29-0": "8725e394afff9332b050ef5c43db6d7b07773b02173c01db5dd1eb9a1fb08e58",
            "57-3-5-9": "058fcafafd7f0fee3bdc7502e37a018d8f547a4b8f4fa9cd9651712650c206bc",
        }

    @pytest.mark.parametrize("override", [
        {"OPENBLAS_NUM_THREADS": "1"},
        {"OPENBLAS_NUM_THREADS": "2"},
        {"OPENBLAS_NUM_THREADS": "4"},
        pytest.param({"OPENBLAS_CORETYPE": "Haswell"}, marks=needs_haswell_and_sandybridge),
        pytest.param({"OPENBLAS_CORETYPE": "Sandybridge"}, marks=needs_haswell_and_sandybridge),
    ], ids=["1-thread", "2-threads", "4-threads", "Haswell", "Sandybridge"])
    def test_blocked_back_map_fits_the_bytes_of_one_call(self, override):
        # d = 4096 takes the blocked back-map at 1, 2 and 4 BLAS threads; d = 4100 at 1 thread
        # only, where OpenBLAS's own split of one call would give other bits than the blocks'.
        if not runs_openblas_with():
            pytest.skip("numpy's BLAS is not OpenBLAS")
        assert blas_facts(override)["blocked"] == {"4096": True, "4100": True}

    def test_row_products_at_one_blas_thread(self):
        status, report = blas_facts(ONE_THREAD)["row_products"]
        assert status == 0, report


def back_map_loop(xc, evecs, k):
    """The Gram back-map one component at a time: xc.T @ v, then unit length."""
    comps = np.empty((k, xc.shape[1]))
    for i in range(k):
        vec = xc.T @ evecs[:, i]
        comps[i] = vec / np.linalg.norm(vec)
    return comps


class TestRowProducts:
    """`_row_products` against each form it replaced, bit for bit; its result owns its memory."""

    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 40), g=st.integers(1, 120),
           d=st.integers(1, 600))
    @example(seed=0, p=1, g=1, d=1)
    @example(seed=1, p=1, g=466, d=420)
    @example(seed=2, p=40, g=1, d=4096)
    @example(seed=3, p=30, g=466, d=420)
    @settings(max_examples=100, deadline=None)
    def test_gallery_scoring(self, seed, p, g, d):
        rng = np.random.default_rng(seed)
        probes, features = rng.normal(size=(p, d)), rng.normal(size=(g, d))
        products = _row_products(probes, features)
        assert products.base is None
        assert products.tobytes() == np.matmul(features, probes[:, :, None])[:, :, 0].tobytes()

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), extra=st.integers(0, 900),
           short=st.integers(1, 39))
    @example(seed=0, n=2, extra=0, short=1)
    @example(seed=1, n=40, extra=0, short=39)
    @example(seed=2, n=300, extra=3796, short=1)
    @settings(max_examples=100, deadline=None)
    def test_back_map_and_projection(self, seed, n, extra, short):
        rng = np.random.default_rng(seed)
        d, k = n + extra, max(n - short, 1)  # short = 1 gives k = n - 1
        xc = rng.normal(size=(n, d)) + 3.0
        xc -= xc.mean(axis=0)
        evals, evecs = np.linalg.eigh(xc @ xc.T / (n - 1))
        evecs = evecs[:, np.argsort(evals)[::-1]]
        comps = _row_products(evecs[:, :k].T, xc.T)
        assert comps.base is None
        for row in comps:
            row /= np.linalg.norm(row)
        assert comps.tobytes() == back_map_loop(xc, evecs, k).tobytes()
        coded = _row_products(xc, comps)
        assert coded.base is None
        assert coded.tobytes() == np.matmul(xc[..., None, :], comps.T)[..., 0, :].tobytes()
        lone = _row_products(xc[-1], comps)
        assert lone.shape == (k,) and lone.base is None
        assert lone.tobytes() == np.matmul(xc[-1][..., None, :], comps.T)[..., 0, :].tobytes()

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), d=st.integers(1, 1100),
           k=st.integers(1, 40))
    @example(seed=0, n=5, d=100, k=4)  # below one block
    @example(seed=1, n=7, d=700, k=6)  # between multiples of a block
    @example(seed=2, n=9, d=1001, k=8)  # d not a multiple of 8: one call at two BLAS threads
    @example(seed=3, n=300, d=50176, k=8)
    @example(seed=4, n=330, d=50176, k=8)
    @example(seed=5, n=466, d=4096, k=8)
    @example(seed=6, n=300, d=4098, k=8)
    @example(seed=7, n=120, d=50625, k=8)
    @settings(max_examples=100, deadline=None)
    def test_blocked_back_map(self, seed, n, d, k):
        rng = np.random.default_rng(seed)
        xc = rng.normal(size=(n, d))
        vectors = rng.normal(size=(n, n))[:, : min(k, n)].T  # leading columns, as `_pca` passes
        mapped = _back_map(vectors, xc)
        assert mapped.base is None
        assert mapped.tobytes() == _row_products(vectors, xc.T).tobytes()


class TestBackMapThreads:
    """A fit leaves OpenBLAS's thread count as it found it, and runs without the count's setter."""

    @pytest.fixture
    def thread_count(self):
        """Sets the count for one test; gives back its getter and restores the count after."""
        if embedding._openblas_threads() is None:
            pytest.skip("numpy's BLAS is not OpenBLAS")
        get, put = embedding._openblas_threads()
        found = get()

        def set_count(threads):
            put(threads)
            return get

        yield set_count
        put(found)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_fit_restores_the_count(self, thread_count, threads):
        get = thread_count(threads)
        pca_fit(np.random.default_rng(threads).normal(size=(5, 4096)), 2)
        assert get() == threads

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failed_span_restores_the_count(self, thread_count, monkeypatch, threads):
        get = thread_count(threads)
        monkeypatch.setattr(embedding, "_BLOCK", 0)  # each span's range(lo, hi, 0) raises
        with pytest.raises(ValueError, match="must not be zero"):
            pca_fit(np.random.default_rng(threads).normal(size=(5, 4096)), 2)
        assert get() == threads

    def test_concurrent_fits_restore_the_count(self, thread_count, monkeypatch):
        # a fit that started while another held the count at 1 would find 1, and restore 1
        thread_count(2)
        get, put = embedding._openblas_threads()
        found = []

        def get_and_record():
            found.append(get())
            return found[-1]

        monkeypatch.setattr(embedding, "_openblas_threads", lambda: (get_and_record, put))
        x = np.random.default_rng(0).normal(size=(6, 4096))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                fits = [pool.submit(fit_copy, x, 2) for _ in range(128)]
                for fit in fits:
                    assert fit.result(timeout=60).k == 2
        finally:
            sys.setswitchinterval(interval)
        assert found == [2] * 128 and get() == 2

    @pytest.mark.parametrize("d", [4096, 4100])
    def test_no_setter_fits_in_one_call(self, monkeypatch, d):
        x = np.random.default_rng(d).normal(size=(6, d))
        expected = fit_copy(x, 3)
        monkeypatch.setattr(embedding, "_openblas_threads", lambda: None)
        monkeypatch.setattr(embedding, "_BLOCK", 0)  # a blocked back-map would raise
        model = fit_copy(x, 3)
        assert model.components.tobytes() == expected.components.tobytes()
        assert model.explained_variance.tobytes() == expected.explained_variance.tobytes()


class TestBaselineBackend:
    def test_projection_residual_orthogonal(self, tmp_path):
        rng = np.random.default_rng(10)
        maps = random_maps(rng, 9, size=16)
        files = write_pgms(tmp_path, maps)
        backend = baseline_train(files, d=4, map_size=16)
        emb = backend.embed(files[0])
        assert emb.shape == (4,)

    def test_identical_maps_identical_embeddings(self, tmp_path):
        rng = np.random.default_rng(11)
        maps = random_maps(rng, 6, size=16)
        files = write_pgms(tmp_path, maps)
        backend = baseline_train(files, d=3, map_size=16)
        twin = tmp_path / "twin.pgm"
        export_pgm(DepthMap(maps[2].depth.copy(), maps[2].valid.copy()), twin)
        assert np.array_equal(backend.embed(files[2]), backend.embed(twin))

    def test_d1_separates_distinct_maps(self, tmp_path):
        rng = np.random.default_rng(12)
        maps = random_maps(rng, 3, size=16)
        files = write_pgms(tmp_path, maps)
        backend = baseline_train(files, d=1, map_size=16)
        assert backend.embed(files[0]) != backend.embed(files[1])

    def test_is_a_frozen_record(self, tmp_path):
        rng = np.random.default_rng(21)
        backend = baseline_train(write_pgms(tmp_path, random_maps(rng, 4, size=16)), d=2, map_size=16)
        with pytest.raises(dataclasses.FrozenInstanceError):
            backend.map_size = 8
        assert backend.map_size == 16

    def test_insufficient_samples(self, tmp_path):
        rng = np.random.default_rng(13)
        files = write_pgms(tmp_path, random_maps(rng, 4, size=16))
        with pytest.raises(ValueError, match="need at least 5 training maps for d=4, got 4"):
            baseline_train(files, d=4, map_size=16)

    @pytest.mark.parametrize("shape", [(8, 8), (8, 32)], ids=["smaller", "same-pixel-count"])
    def test_map_size_mismatch_names_the_file(self, tmp_path, shape):
        rng = np.random.default_rng(14)
        files = write_pgms(tmp_path, random_maps(rng, 5, size=16))
        odd = DepthMap(rng.uniform(0, 255, shape), np.ones(shape, bool))
        export_pgm(odd, files[3])
        with pytest.raises(ValueError, match=f"expected 16x16 map, got {shape[0]}x{shape[1]}") as info:
            baseline_train(files, d=2, map_size=16)
        assert str(info.value).startswith(f"{files[3]}: ")

    def test_embed_names_the_file_on_a_size_error(self, tmp_path):
        rng = np.random.default_rng(19)
        backend = baseline_train(write_pgms(tmp_path, random_maps(rng, 4, size=16)), d=2, map_size=16)
        odd = DepthMap(rng.uniform(0, 255, (8, 32)), np.ones((8, 32), bool))
        export_pgm(odd, tmp_path / "odd.pgm")
        with pytest.raises(ValueError) as from_file:
            backend.embed(tmp_path / "odd.pgm")
        assert str(from_file.value) == f"{tmp_path / 'odd.pgm'}: expected 16x16 map, got 8x32"

    def test_embed_bitwise_equal_to_transform_of_loaded_map(self, tmp_path):
        files = write_pgms(tmp_path, masked_maps(np.random.default_rng(20), 8, size=16))
        backend = baseline_train(files, d=4, map_size=16)
        for f in files:
            reference = transform_raw(backend.model, load_pgm(f).depth.ravel())
            assert backend.embed(f).tobytes() == reference.tobytes()

    def test_unreadable_file_keeps_the_pgm_error(self, tmp_path):
        rng = np.random.default_rng(15)
        files = write_pgms(tmp_path, random_maps(rng, 5, size=16))
        files[1].write_bytes(b"P2\n16 16\n255\n")
        with pytest.raises(ValueError, match="not a binary PGM") as info:
            baseline_train(files, d=2, map_size=16)
        assert str(files[1]) in str(info.value)

    def test_k_out_of_range(self, tmp_path):
        rng = np.random.default_rng(16)
        files = write_pgms(tmp_path, random_maps(rng, 5, size=16))
        with pytest.raises(ValueError, match="k=0 out of range"):
            baseline_train(files, d=0, map_size=16)

    @pytest.mark.parametrize(("count", "size", "ks"), [(9, 8, (1, 4, 8)), (30, 4, (1, 7, 16))],
                             ids=["gram", "covariance"])
    def test_bitwise_equal_to_stacked_fit(self, tmp_path, count, size, ks):
        files = write_pgms(tmp_path, masked_maps(np.random.default_rng(17), count, size))
        for k in ks:
            model = baseline_train(files, d=k, map_size=size).model
            reference = pca_fit(np.stack([load_pgm(f).depth.ravel() for f in files]), k)
            assert model.mean.tobytes() == reference.mean.tobytes()
            assert model.components.tobytes() == reference.components.tobytes()
            assert model.explained_variance.tobytes() == reference.explained_variance.tobytes()

    def test_training_peak_memory(self, tmp_path):
        # One owned (n, s*s) matrix plus the k components; a decoded map
        # list, a stacked copy or a centred copy would each add n*s*s*8.
        n, size, k = 60, 64, 16
        files = write_pgms(tmp_path, random_maps(np.random.default_rng(18), n, size=size))
        tracemalloc.start()
        try:
            baseline_train(files, d=k, map_size=size)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (n + k) * size * size * 8


class TestExternalBackend:
    @staticmethod
    def _normalized_pgm(rng, path, size=16):
        """Export a random normalized map to `path`; returns the path and its key."""
        dmap = DepthMap(rng.uniform(0, 255, (size, size)), np.ones((size, size), bool))
        export_pgm(dmap, path)
        return path, hashlib.sha256(pgm_bytes(dmap)).hexdigest()

    def test_lookup_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        pgm, digest = self._normalized_pgm(rng, tmp_path / "m.pgm")
        stored = rng.normal(size=4096)
        write_feature_file(stored, tmp_path / f"{digest}.fvec")
        backend = ExternalBackend(tmp_path)
        np.testing.assert_array_equal(backend.embed(pgm), stored)

    def test_missing_hash_names_it(self, tmp_path):
        rng = np.random.default_rng(15)
        pgm, digest = self._normalized_pgm(rng, tmp_path / "m.pgm")
        backend = ExternalBackend(tmp_path)
        with pytest.raises(FeatureLookupError) as info:
            backend.embed(pgm)
        assert str(info.value) == f"{pgm}: no feature file for map hash {digest}"

    def test_missing_feature_is_read_not_stat(self, tmp_path, monkeypatch):
        # the lookup opens the feature file itself: no stat before the read,
        # and the FileNotFoundError behind a missing one is not chained
        rng = np.random.default_rng(19)
        pgm, digest = self._normalized_pgm(rng, tmp_path / "m.pgm")
        backend = ExternalBackend(tmp_path)
        checked, exists = [], Path.exists

        def recorded(path, *args, **kwargs):
            checked.append(path)
            return exists(path, *args, **kwargs)

        monkeypatch.setattr(Path, "exists", recorded)
        with pytest.raises(FeatureLookupError) as info:
            backend.embed(pgm)
        monkeypatch.undo()
        assert checked == []
        assert str(info.value) == f"{pgm}: no feature file for map hash {digest}"
        assert info.value.__cause__ is None and info.value.__suppress_context__

    def test_corrupt_length(self, tmp_path):
        rng = np.random.default_rng(16)
        pgm, digest = self._normalized_pgm(rng, tmp_path / "m.pgm")
        path = tmp_path / f"{digest}.fvec"
        write_feature_file(rng.normal(size=8), path)
        path.write_bytes(path.read_bytes()[:-8])
        backend = ExternalBackend(tmp_path)
        with pytest.raises(FeatureFormatError, match="expected 77 bytes for 8 values, found 69"):
            backend.embed(pgm)

    def test_feature_file_round_trip(self, tmp_path):
        values = np.random.default_rng(17).normal(size=33)
        write_feature_file(values, tmp_path / "x.fvec")
        np.testing.assert_array_equal(read_feature_file(tmp_path / "x.fvec"), values)

    def test_feature_file_read_is_a_read_only_view(self, tmp_path):
        values = np.concatenate([[-0.0, 5e-324, -1.5, np.finfo(float).max],
                                 np.random.default_rng(23).normal(size=29)])
        write_feature_file(values, tmp_path / "x.fvec")
        back = read_feature_file(tmp_path / "x.fvec")
        assert back.tobytes() == values.astype("<f8").tobytes()
        assert not back.flags.owndata and not back.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            back[0] = 1.0

    def test_feature_file_with_no_values(self, tmp_path):
        write_raw_feature_file(np.empty(0), tmp_path / "x.fvec")
        with pytest.raises(FeatureFormatError) as info:
            read_feature_file(tmp_path / "x.fvec")
        assert str(info.value) == f"{tmp_path / 'x.fvec'}: no feature values"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_feature_file_non_finite_value(self, tmp_path, bad):
        values = np.random.default_rng(19).normal(size=33)
        values[20] = bad
        write_raw_feature_file(values, tmp_path / "x.fvec")
        with pytest.raises(FeatureFormatError) as info:
            read_feature_file(tmp_path / "x.fvec")
        assert str(info.value) == f"{tmp_path / 'x.fvec'}: non-finite feature value"

    @pytest.mark.parametrize("values, message", [
        (np.empty(0), "no feature values"),
        (np.array([1.0, np.nan]), "non-finite feature value"),
        (np.array([[np.inf], [0.5]]), "non-finite feature value"),
        (np.array([0.5, -np.inf]), "non-finite feature value"),
    ], ids=["empty", "nan", "inf", "-inf"])
    def test_writer_rejects_what_the_reader_rejects(self, tmp_path, values, message):
        # the same error as the read, raised before any file, temporary included, is made
        with pytest.raises(FeatureFormatError) as info:
            write_feature_file(values, tmp_path / "x.fvec")
        assert str(info.value) == f"{tmp_path / 'x.fvec'}: {message}"
        assert list(tmp_path.iterdir()) == []
