import dataclasses
import hashlib
import json
import logging
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from facepipe.cli import (
    PipelineConfig,
    _write_csv,
    _write_json,
    cmd_augment,
    cmd_evaluate,
    cmd_preprocess,
    cmd_render,
    load_config,
    main,
)
from facepipe.depthmap import DepthMap, export_pgm
from facepipe.embedding import write_feature_file
from facepipe.morphable import ModelParams, make_toy_model, save_model, synthesize
from facepipe.pointcloud import (
    PointCloud,
    RigidTransform,
    apply_transform,
    load_ply,
    rotation_zyx,
    save_ply,
)

TOY = {"n_vertices": 800, "ks": 5, "ke": 8, "seed": 21}


@pytest.fixture(scope="module")
def toy():
    return make_toy_model(**TOY)


@pytest.fixture()
def config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "seed": 77,
        "toy_model": TOY,
        "embedding": {"dimension": 3},
    }))
    return load_config(path)


def write_raw_scans(toy, directory, n_subjects=4, scans_each=2):
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(100)
    for s in range(n_subjects):
        alpha = rng.normal(size=toy.ks)
        alpha *= 2.0 / np.linalg.norm(alpha)
        neutral = synthesize(toy, ModelParams(alpha, np.zeros(toy.ke)))
        for k in range(scans_each):
            jig = RigidTransform(
                rotation_zyx(*rng.uniform(-8, 8, 3)), rng.uniform(-8, 8, 3)
            )
            save_ply(apply_transform(neutral, jig), directory / f"s{s:02d}_{chr(97 + k)}.ply")


class TestConfig:
    def test_defaults(self):
        cfg = load_config()
        assert cfg.seed == 0
        assert cfg.render.output_size == 200
        assert cfg.render.final_size == 224
        assert cfg.augment.expressions_per_subject == 25
        assert cfg.embedding.backend == "baseline"
        assert cfg.matching.pca_mode == "union"

    def test_augment_seed_inherits_master(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 5}))
        assert load_config(path).augment.seed == 5

    def test_seed_override(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 5}))
        cfg = load_config(path, {"seed": 9})
        assert cfg.seed == 9
        assert cfg.augment.seed == 9

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"sead": 5}))
        with pytest.raises(ValueError, match="sead"):
            load_config(path)

    def test_unknown_nested_key_names_its_section(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"render": {"output_size": 64, "blur": 2}}))
        with pytest.raises(ValueError, match=r"config\.render.*blur"):
            load_config(path)

    @pytest.mark.parametrize(
        "document, message",
        [
            ({"embedding": {"backend": "nope"}}, "unknown embedding backend 'nope'"),
            ({"embedding": {"backend": "external"}},
             "external backend requires embedding.feature_dir"),
            ({"matching": {"pca_mode": "bogus"}}, "unknown pca_mode 'bogus'"),
            ({"render": 5}, "config.render must be an object"),
            ({"render": None}, "config.render must be an object"),
            ({"augment": 5}, "config.augment must be an object"),
            ({"seed": None}, "config.seed must be int, got null"),
            ({"augment": {}, "seed": None}, "config.seed must be int, got null"),
            ({"augment": {"seed": None}, "seed": None}, "config.seed must be int, got null"),
            ({"augment": {"poses_per_scan": 2.5}},
             "config.augment.poses_per_scan must be int, got 2.5"),
            ({"toy_model": {"seed": "3"}}, 'config.toy_model.seed must be int, got "3"'),
            ({"render": {"fixed_depth_range": [0]}},
             "config.render.fixed_depth_range must be tuple[float, float] | None, got [0]"),
            ({"icp": {"max_iterations": True}},
             "config.icp.max_iterations must be int, got true"),
            ({"render": {"median_kernel": 4}}, "median_kernel must be odd and >= 3"),
            ({"render": {"median_kernel": 1}}, "median_kernel must be odd and >= 3"),
            ({"render": {"final_size": 1}}, "final_size must be >= 2"),
            ({"embedding": {"dimension": 0}}, "embedding.dimension must be >= 1"),
            ({"embedding": {"pca_variance_target": 1.5}},
             "embedding.pca_variance_target must be in (0, 1]"),
            ({"embedding": {"pca_variance_target": 0}},
             "embedding.pca_variance_target must be in (0, 1]"),
            ({"render": {"fixed_depth_range": [100, 0]}},
             "fixed_depth_range must be finite with low < high, got [100.0, 0.0]"),
            ({"render": {"fixed_depth_range": [5, 5]}},
             "fixed_depth_range must be finite with low < high, got [5.0, 5.0]"),
            ({"render": {"fixed_depth_range": [0, float("inf")]}},
             "fixed_depth_range must be finite with low < high, got [0.0, inf]"),
            ({"render": {"fixed_depth_range": [float("nan"), 100]}},
             "fixed_depth_range must be finite with low < high, got [nan, 100.0]"),
        ],
        ids=[
            "backend", "feature_dir", "pca_mode", "render-int", "render-null", "augment-int",
            "seed-null", "seed-null-after-augment", "seed-null-after-augment-seed-null",
            "count-float", "seed-string", "range-short", "iterations-bool", "kernel-even",
            "kernel-one", "final-size-one", "dimension-zero", "variance-above-one",
            "variance-zero", "range-reversed", "range-empty", "range-infinite", "range-nan",
        ],
    )
    def test_bad_value_rejected_before_any_work(self, toy, tmp_path, document, message):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"toy_model": TOY, **document}))
        with pytest.raises(ValueError, match=re.escape(message)):
            load_config(path)
        write_raw_scans(toy, tmp_path / "raw", n_subjects=1, scans_each=1)
        out = tmp_path / "pp"
        assert main(["preprocess", str(tmp_path / "raw"), str(out), "--config", str(path)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("text", ["[1]", "5", "null"], ids=["list", "number", "null"])
    def test_top_level_must_be_an_object(self, tmp_path, text):
        path = tmp_path / "c.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="^config must be an object$"):
            load_config(path, {"seed": 9})

    def test_resolved_config_round_trip(self, tmp_path):
        data = {
            "seed": 3,
            "reference_model_path": "ref.ply",
            "morphable_model_path": "model.mlmm",
            "toy_model": {"n_vertices": 900, "ks": 4, "ke": 6, "seed": 2},
            "icp": {"max_iterations": 40, "convergence_eps": 1e-3, "rejection_multiplier": 4.0},
            "fit": {"max_outer": 7, "convergence_eps": 1e-3, "ridge": 0.5},
            "render": {"crop_radius": 90.0, "output_size": 64, "final_size": 96,
                       "median_kernel": 5, "fixed_depth_range": [-10, 80]},
            "augment": {"expressions_per_subject": 2, "poses_per_scan": 3,
                        "patch_variants_per_scan": 1, "angle_bound": 5.0,
                        "translation_bound": 4.0, "patch_count": 2, "patch_size": 6,
                        "seed": 11},
            "embedding": {"backend": "external", "dimension": 8, "pca_variance_target": 0.9,
                          "train_dir": "train", "feature_dir": "feats"},
            "matching": {"pca_mode": "gallery"},
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data))
        cfg = load_config(path)
        assert cfg.render.fixed_depth_range == (-10.0, 80.0)
        assert all(type(v) is float for v in cfg.render.fixed_depth_range)
        defaults = PipelineConfig()
        for f in dataclasses.fields(PipelineConfig):
            assert getattr(cfg, f.name) != getattr(defaults, f.name), f.name

        resolved = tmp_path / "config.resolved.json"
        resolved.write_text(json.dumps(dataclasses.asdict(cfg)))
        assert json.loads(resolved.read_text())["render"]["fixed_depth_range"] == [-10.0, 80.0]
        assert load_config(resolved) == cfg


class TestPreprocess:
    def test_single_scan(self, toy, config, tmp_path):
        raw = tmp_path / "raw"
        write_raw_scans(toy, raw, n_subjects=1, scans_each=1)
        out = tmp_path / "pp"
        assert cmd_preprocess(raw, out, config) == 0
        assert (out / "s00_a.ply").exists()
        assert (out / "config.resolved.json").exists()

    def test_empty_directory(self, config, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(FileNotFoundError, match="no inputs"):
            cmd_preprocess(empty, tmp_path / "out", config)

    def test_reference_preprocesses_to_itself(self, toy, config, tmp_path):
        raw = tmp_path / "raw"
        raw.mkdir()
        save_ply(toy.mean_cloud(), raw / "ref_0.ply")
        out = tmp_path / "pp"
        assert cmd_preprocess(raw, out, config) == 0
        aligned = load_ply(out / "ref_0.ply")
        from facepipe.pointcloud import NeighborIndex

        dist, _ = NeighborIndex(toy.mean).query_many(aligned.points)
        assert np.sqrt(np.mean(dist**2)) < 0.1


class TestAugment:
    def test_default_counts(self, toy, config, tmp_path):
        pp = tmp_path / "pp"
        write_raw_scans(toy, tmp_path / "raw", n_subjects=2, scans_each=2)
        assert cmd_preprocess(tmp_path / "raw", pp, config) == 0
        out = tmp_path / "aug"
        assert cmd_augment(pp, out, config) == 0
        outputs = sorted(out.glob("*.ply"))
        # 2 subjects x 25 expressions + 4 scans x 10 poses
        assert len(outputs) == 90
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest) == 90
        kinds = {v["kind"] for v in manifest.values()}
        assert kinds == {"expression", "pose"}

    def test_zeroed_plan(self, toy, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({
            "toy_model": TOY,
            "augment": {"expressions_per_subject": 0, "poses_per_scan": 0},
        }))
        config = load_config(cfg_path)
        pp = tmp_path / "pp"
        write_raw_scans(toy, tmp_path / "raw", n_subjects=1, scans_each=1)
        assert cmd_preprocess(tmp_path / "raw", pp, config) == 0
        out = tmp_path / "aug"
        assert cmd_augment(pp, out, config) == 0
        assert json.loads((out / "manifest.json").read_text()) == {}

    def test_expressions_go_to_first_scan_by_stem(self, toy, tmp_path):
        # a path sort puts "s00_a-1.ply" before "s00_a.ply"; the subject's first scan is s00_a
        config = load_config(overrides={
            "toy_model": TOY,
            "augment": {"expressions_per_subject": 1, "poses_per_scan": 0},
        })
        raw = tmp_path / "raw"
        write_raw_scans(toy, raw, n_subjects=1, scans_each=2)
        for f in raw.glob("s00_b*"):
            f.rename(raw / f.name.replace("s00_b", "s00_a-1"))
        pp = tmp_path / "pp"
        assert cmd_preprocess(raw, pp, config) == 0
        out = tmp_path / "aug"
        assert cmd_augment(pp, out, config) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest) == ["s00_a_expr00.ply"]
        assert manifest["s00_a_expr00.ply"]["source"] == "s00_a.ply"

    def test_rerun_bit_identical(self, toy, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({
            "seed": 3,
            "toy_model": TOY,
            "augment": {"expressions_per_subject": 2, "poses_per_scan": 2},
        }))
        config = load_config(cfg_path)
        pp = tmp_path / "pp"
        write_raw_scans(toy, tmp_path / "raw", n_subjects=1, scans_each=1)
        assert cmd_preprocess(tmp_path / "raw", pp, config) == 0
        out1, out2 = tmp_path / "a1", tmp_path / "a2"
        assert cmd_augment(pp, out1, config) == 0
        assert cmd_augment(pp, out2, config) == 0
        assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()
        for f1 in sorted(out1.glob("*.ply")):
            assert f1.read_bytes() == (out2 / f1.name).read_bytes()


class TestRender:
    @pytest.fixture()
    def aligned_dir(self, toy, config, tmp_path):
        write_raw_scans(toy, tmp_path / "raw", n_subjects=1, scans_each=1)
        pp = tmp_path / "pp"
        assert cmd_preprocess(tmp_path / "raw", pp, config) == 0
        return pp

    def test_single_map(self, aligned_dir, config, tmp_path):
        out = tmp_path / "maps"
        assert cmd_render(aligned_dir, out, config) == 0
        assert sorted(p.name for p in out.glob("*.pgm")) == ["s00_a.pgm"]

    def test_patches_add_variants(self, aligned_dir, config, tmp_path):
        out = tmp_path / "maps"
        assert cmd_render(aligned_dir, out, config, patches=True) == 0
        assert len(list(out.glob("*.pgm"))) == 1 + config.augment.patch_variants_per_scan

    def test_patches_seeded_from_augment_seed(self, aligned_dir, tmp_path):
        outputs = []
        for master in (1, 2):
            config = load_config(overrides={
                "seed": master, "toy_model": TOY, "augment": {"seed": 7},
            })
            out = tmp_path / f"m{master}"
            assert cmd_render(aligned_dir, out, config, patches=True) == 0
            outputs.append({f.name: f.read_bytes() for f in sorted(out.glob("*.pgm"))})
        assert len(outputs[0]) == 1 + PipelineConfig().augment.patch_variants_per_scan
        assert outputs[0] == outputs[1]

    def test_rerun_bit_identical(self, aligned_dir, config, tmp_path):
        out1, out2 = tmp_path / "m1", tmp_path / "m2"
        assert cmd_render(aligned_dir, out1, config, patches=True) == 0
        assert cmd_render(aligned_dir, out2, config, patches=True) == 0
        for f1 in sorted(out1.glob("*.pgm")):
            assert f1.read_bytes() == (out2 / f1.name).read_bytes()


class TestEvaluate:
    @pytest.fixture()
    def rendered(self, toy, config, tmp_path):
        write_raw_scans(toy, tmp_path / "raw", n_subjects=4, scans_each=1)
        pp = tmp_path / "pp"
        assert cmd_preprocess(tmp_path / "raw", pp, config) == 0
        maps = tmp_path / "maps"
        assert cmd_render(pp, maps, config) == 0
        return maps

    def test_self_match_rank1(self, rendered, config, tmp_path):
        report = tmp_path / "report"
        assert cmd_evaluate(rendered, rendered, config, report) == 0
        summary = json.loads((report / "summary.json").read_text())
        assert summary["rank1_accuracy"] == 1.0
        assert summary["gallery_size"] == 4
        cmc_rows = (report / "cmc.csv").read_text().strip().splitlines()
        assert cmc_rows[0] == "rank,accuracy"
        assert len(cmc_rows) == 1 + 4
        assert (report / "roc.csv").exists()

    def test_cmc_has_one_row_per_gallery_identity(self, rendered, config, tmp_path):
        gallery = tmp_path / "gallery"
        gallery.mkdir()
        for pgm in rendered.glob("*.pgm"):
            (gallery / pgm.name).write_bytes(pgm.read_bytes())
        (gallery / "s00_b.pgm").write_bytes((rendered / "s00_a.pgm").read_bytes())
        report = tmp_path / "report"
        assert cmd_evaluate(gallery, rendered, config, report) == 0
        summary = json.loads((report / "summary.json").read_text())
        assert summary["gallery_size"] == 5
        cmc_rows = (report / "cmc.csv").read_text().strip().splitlines()
        assert [row.split(",")[0] for row in cmc_rows] == ["rank", "1", "2", "3", "4"]
        assert cmc_rows[-1] == "4,1.0"

    def test_absent_subject_names_probe(self, rendered, config, tmp_path):
        probe_dir = tmp_path / "probes"
        probe_dir.mkdir()
        src = next(rendered.glob("*.pgm"))
        (probe_dir / "s99_x.pgm").write_bytes(src.read_bytes())
        from facepipe.matching import MatchAccountingError

        with pytest.raises(MatchAccountingError, match="s99_x"):
            cmd_evaluate(rendered, probe_dir, config, tmp_path / "r")

    def test_deterministic_report(self, rendered, config, tmp_path):
        r1, r2 = tmp_path / "r1", tmp_path / "r2"
        assert cmd_evaluate(rendered, rendered, config, r1) == 0
        assert cmd_evaluate(rendered, rendered, config, r2) == 0
        for name in ("summary.json", "cmc.csv", "roc.csv"):
            assert (r1 / name).read_bytes() == (r2 / name).read_bytes()

    @staticmethod
    def _external(rendered, tmp_path, skip=()):
        """Config of the external backend over one random feature file per map."""
        feature_dir = tmp_path / "features"
        feature_dir.mkdir()
        rng = np.random.default_rng(0)
        for pgm in sorted(rendered.glob("*.pgm")):
            values = rng.normal(size=64)
            if pgm.stem not in skip:
                digest = hashlib.sha256(pgm.read_bytes()).hexdigest()  # sha256sum of the file
                write_feature_file(values, feature_dir / f"{digest}.fvec")
        cfg_path = tmp_path / "ext.json"
        cfg_path.write_text(json.dumps({
            "toy_model": TOY,
            "embedding": {"backend": "external", "feature_dir": str(feature_dir)},
        }))
        return load_config(cfg_path)

    def test_external_backend_feature_directory(self, rendered, tmp_path):
        ext_config = self._external(rendered, tmp_path)
        report = tmp_path / "ext_report"
        assert cmd_evaluate(rendered, rendered, ext_config, report) == 0
        summary = json.loads((report / "summary.json").read_text())
        assert summary["backend"] == "external"
        assert summary["rank1_accuracy"] == 1.0

    @pytest.mark.parametrize("backend", ["baseline", "external"])
    def test_backend_decodes_no_map(self, rendered, config, tmp_path, monkeypatch, backend):
        import facepipe.depthmap

        if backend == "external":
            config = self._external(rendered, tmp_path)
        expected = tmp_path / "expected"
        assert cmd_evaluate(rendered, rendered, config, expected) == 0

        def refuse(path):
            raise AssertionError(f"load_pgm({path}) in evaluate")

        original = facepipe.depthmap.load_pgm
        bindings = [
            (mod, key)
            for name, mod in list(sys.modules.items())
            if name == "facepipe" or name.startswith("facepipe.")
            for key, value in list(vars(mod).items())
            if value is original
        ]
        assert (facepipe.depthmap, "load_pgm") in bindings
        for mod, key in bindings:
            monkeypatch.setattr(mod, key, refuse)
        report = tmp_path / "report"
        assert cmd_evaluate(rendered, rendered, config, report) == 0
        for name in ("summary.json", "cmc.csv", "roc.csv"):
            assert (report / name).read_bytes() == (expected / name).read_bytes()

    def test_wrong_size_probe_names_the_file(self, rendered, config, tmp_path):
        from facepipe.depthmap import DepthMap, export_pgm

        probe_dir = tmp_path / "probes"
        probe_dir.mkdir()
        odd = probe_dir / "s01_a.pgm"
        export_pgm(DepthMap(np.full((8, 8), 100.0), np.ones((8, 8), bool)), odd)
        with pytest.raises(ValueError, match="expected 224x224 map, got 8x8") as info:
            cmd_evaluate(rendered, probe_dir, config, tmp_path / "r")
        assert str(info.value).startswith(f"{odd}: ")

    def test_external_backend_missing_feature(self, rendered, tmp_path):
        from facepipe.embedding import FeatureLookupError

        ext_config = self._external(rendered, tmp_path, skip={"s02_a"})
        with pytest.raises(FeatureLookupError, match=r"s02_a\.pgm: no feature file") as info:
            cmd_evaluate(rendered, rendered, ext_config, tmp_path / "r")
        assert str(info.value).startswith(str(rendered / "s02_a.pgm"))

    @pytest.mark.parametrize("mode", ["union", "gallery"])
    def test_external_evaluate_peak_memory(self, tmp_path, mode):
        # One owned (N, D) feature matrix plus the PCA model: a list of rows,
        # a stacked copy, a copy of the fit rows or a centred batch would each
        # add up to N*D*8 bytes. Shaped like FRGC: one gallery and three probe
        # maps per identity, wide features.
        ids, probes_each, dim = 8, 3, 4096
        gallery, probes, features = (tmp_path / d for d in ("gallery", "probes", "features"))
        for folder in (gallery, probes, features):
            folder.mkdir()
        rng = np.random.default_rng(31)
        for s in range(ids):
            for k in range(1 + probes_each):
                pgm = (gallery if k == 0 else probes) / f"s{s:02d}_{k}.pgm"
                export_pgm(DepthMap(rng.uniform(0, 255, (8, 8)), np.ones((8, 8), bool)), pgm)
                digest = hashlib.sha256(pgm.read_bytes()).hexdigest()
                write_feature_file(rng.uniform(0, 1, dim), features / f"{digest}.fvec")
        cfg_path = tmp_path / "ext.json"
        cfg_path.write_text(json.dumps({
            "embedding": {"backend": "external", "feature_dir": str(features)},
            "matching": {"pca_mode": mode},
        }))
        config = load_config(cfg_path)
        tracemalloc.start()
        try:
            assert cmd_evaluate(gallery, probes, config, tmp_path / "report") == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * ids * (1 + probes_each) * dim * 8


class TestWholeFiles:
    """Each output file appears whole or not at all, with a plain write's permissions."""

    @staticmethod
    def _cloud(landmarks):
        points = np.random.default_rng(3).normal(size=(40, 3))
        return PointCloud(points, {"nose_tip": points[0]} if landmarks else {})

    # name: (writes a file under `directory`, the name of the file it is made to fail on)
    WRITERS = {
        "ply": (lambda d: save_ply(TestWholeFiles._cloud(False), d / "x.ply"), "x.ply"),
        "sidecar": (lambda d: save_ply(TestWholeFiles._cloud(True), d / "x.ply"),
                    "x.landmarks.json"),
        "pgm": (lambda d: export_pgm(DepthMap(np.full((6, 6), 9.0), np.ones((6, 6), bool)),
                                     d / "x.pgm"), "x.pgm"),
        "json": (lambda d: _write_json(d / "x.json", {"a": list(range(100))}), "x.json"),
        "csv": (lambda d: _write_csv(d / "x.csv", ["i"], ([i] for i in range(100))), "x.csv"),
        "features": (lambda d: write_feature_file(np.arange(100.0), d / "x.fvec"), "x.fvec"),
        "model": (lambda d: save_model(make_toy_model(n_vertices=50, ks=1, ke=1), d / "x.mlmm"),
                  "x.mlmm"),
    }

    @staticmethod
    def _fail_writes_to(monkeypatch, name):
        """A full disk for files that will be `name`: each write stores half its data, then raises."""
        import builtins

        import facepipe.pointcloud

        class HalfWriter:
            def __init__(self, fh):
                self._fh = fh

            def write(self, data):
                self._fh.write(data[: len(data) // 2])
                self._fh.flush()
                raise OSError(28, "No space left on device")

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self._fh.__exit__(*exc)

        def failing_open(path, *args, **kwargs):
            fh = builtins.open(path, *args, **kwargs)
            return HalfWriter(fh) if Path(path).name.startswith(f".{name}.") else fh

        monkeypatch.setattr(facepipe.pointcloud, "open", failing_open, raising=False)

    @pytest.mark.parametrize("kind", list(WRITERS))
    @pytest.mark.parametrize("older", [False, True], ids=["new", "older"])
    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch, kind, older):
        write, name = self.WRITERS[kind]
        if older:
            (tmp_path / name).write_bytes(b"older contents\n")
        before = {f.name for f in tmp_path.iterdir()}
        self._fail_writes_to(monkeypatch, name)
        with pytest.raises(OSError, match="No space left"):
            write(tmp_path)
        if older:
            assert (tmp_path / name).read_bytes() == b"older contents\n"
        else:
            assert not (tmp_path / name).exists()
        # no temporary is left behind, and a failed sidecar takes its new PLY with it
        assert {f.name for f in tmp_path.iterdir()} - before == set()

    @pytest.mark.parametrize(
        "kind, failing", [("sidecar", "x.ply"), ("sidecar", "x.landmarks.json"), ("ply", "x.ply")]
    )
    def test_failed_write_keeps_the_older_pair(self, tmp_path, monkeypatch, kind, failing):
        write, _ = self.WRITERS[kind]
        pair = {"x.ply": b"older cloud\n", "x.landmarks.json": b"older landmarks\n"}
        for name, contents in pair.items():
            (tmp_path / name).write_bytes(contents)
        self._fail_writes_to(monkeypatch, failing)
        with pytest.raises(OSError, match="No space left"):
            write(tmp_path)
        assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == pair

    @pytest.mark.parametrize("kind", list(WRITERS))
    def test_failed_create_names_the_file(self, tmp_path, kind):
        write, name = self.WRITERS[kind]
        missing = tmp_path / "missing"
        with pytest.raises(FileNotFoundError) as caught:
            write(missing)
        # a cloud is created before its sidecar
        first = missing / ("x.ply" if kind == "sidecar" else name)
        assert caught.value.filename == str(first)
        assert str(first) in str(caught.value) and ".tmp" not in str(caught.value)

    @pytest.mark.parametrize("kind", list(WRITERS))
    def test_written_file_has_plain_write_permissions(self, tmp_path, kind):
        write, name = self.WRITERS[kind]
        write(tmp_path)
        (tmp_path / "plain").write_bytes(b"")
        assert (tmp_path / name).stat().st_mode == (tmp_path / "plain").stat().st_mode
        assert not [f.name for f in tmp_path.iterdir() if f.name.startswith(".")]


class TestPerItemFailure:
    """One bad scan among good ones: it alone fails, by file name, and the rest is written.

    The bad scan `s00z_a` sorts between the good ones and is the first scan
    of its own subject, so the per-item lines must come in file order.
    """

    @staticmethod
    def _setup(command, toy, config, tmp_path):
        raw = tmp_path / "raw"
        write_raw_scans(toy, raw, n_subjects=2, scans_each=1)
        if command == "preprocess":
            # too few points for the heuristic, and no landmark to fall back on
            bad = PointCloud(np.random.default_rng(0).normal(size=(50, 3)))
            save_ply(bad, raw / "s00z_a.ply")
            return raw
        pp = tmp_path / "pp"
        assert cmd_preprocess(raw, pp, config) == 0
        if command == "augment":
            # the first scan of its subject is fitted, and 20 points are too few
            bad = PointCloud(load_ply(pp / "s00_a.ply").points[:20])
        else:
            bad = PointCloud(load_ply(pp / "s00_a.ply").points + [1e4, 0.0, 0.0])
        save_ply(bad, pp / "s00z_a.ply")
        return pp

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "command, error, good_outputs",
        [
            ("preprocess", "PreprocessError", ["{s}.ply"]),
            ("augment", "FitError", ["{s}_expr00.ply", "{s}_pose00.ply"]),
            ("render", "EmptyRenderError", ["{s}.pgm"]),
        ],
        ids=["preprocess", "augment", "render"],
    )
    def test_bad_scan_fails_alone(
        self, toy, tmp_path, caplog, command, error, good_outputs, workers
    ):
        config = load_config(overrides={
            "toy_model": TOY,
            "augment": {"expressions_per_subject": 1, "poses_per_scan": 1},
        })
        run = {"preprocess": cmd_preprocess, "augment": cmd_augment, "render": cmd_render}[command]
        source = self._setup(command, toy, config, tmp_path)
        out = tmp_path / "out"
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="facepipe"):
            assert run(source, out, config, workers=workers) == 1
        lines = [r.getMessage() for r in caplog.records]
        failed = [line for line in lines if line.startswith("FAILED")]
        assert len(failed) == 1
        assert failed[0].startswith(f"FAILED s00z_a.ply: {error}: "), failed[0]
        per_item = [line.split(" ")[1] for line in lines if line.startswith((command, "FAILED"))]
        assert per_item == ["s00_a.ply:", "s00z_a.ply:", "s01_a.ply:"]
        expected = sorted(o.format(s=s) for s in ("s00_a", "s01_a") for o in good_outputs)
        written = sorted(p.name for p in out.iterdir() if p.suffix in (".ply", ".pgm"))
        assert written == expected
        assert (out / "config.resolved.json").exists()
        if command == "augment":
            assert sorted(json.loads((out / "manifest.json").read_text())) == expected


class TestMain:
    def test_preprocess_and_exit_codes(self, toy, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"toy_model": TOY}))
        write_raw_scans(toy, tmp_path / "raw", n_subjects=1, scans_each=1)
        rc = main([
            "preprocess", str(tmp_path / "raw"), str(tmp_path / "pp"),
            "--config", str(cfg), "--workers", "2",
        ])
        assert rc == 0
        assert (tmp_path / "pp" / "s00_a.ply").exists()

    def test_empty_input_nonzero_exit(self, tmp_path):
        (tmp_path / "empty").mkdir()
        rc = main(["preprocess", str(tmp_path / "empty"), str(tmp_path / "out")])
        assert rc == 1

    def test_reference_without_nose_fails_once_before_any_work(self, toy, tmp_path, caplog):
        rng = np.random.default_rng(3)
        flat = np.column_stack([rng.uniform(-50, 50, (400, 2)), np.zeros(400)])
        flat_ply = tmp_path / "flat.ply"
        save_ply(PointCloud(flat), flat_ply)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"toy_model": TOY, "reference_model_path": str(flat_ply)}))
        write_raw_scans(toy, tmp_path / "raw", n_subjects=3, scans_each=1)
        out = tmp_path / "pp"
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="facepipe"):
            rc = main(["preprocess", str(tmp_path / "raw"), str(out), "--config", str(cfg)])
        assert rc == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1
        assert "nose detection (reference)" in errors[0]
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected(self, tmp_path, workers):
        (tmp_path / "raw").mkdir()
        with pytest.raises(SystemExit) as info:
            main(["preprocess", str(tmp_path / "raw"), str(tmp_path / "pp"), "--workers", workers])
        assert info.value.code == 2
        assert not (tmp_path / "pp").exists()

    def test_seed_flag_changes_augment_outputs(self, toy, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "toy_model": TOY,
            "augment": {"expressions_per_subject": 0, "poses_per_scan": 1},
        }))
        write_raw_scans(toy, tmp_path / "raw", n_subjects=1, scans_each=1)
        assert main([
            "preprocess", str(tmp_path / "raw"), str(tmp_path / "pp"),
            "--config", str(cfg),
        ]) == 0
        assert main([
            "augment", str(tmp_path / "pp"), str(tmp_path / "a1"),
            "--config", str(cfg), "--seed", "1",
        ]) == 0
        assert main([
            "augment", str(tmp_path / "pp"), str(tmp_path / "a2"),
            "--config", str(cfg), "--seed", "2",
        ]) == 0
        f1 = (tmp_path / "a1" / "s00_a_pose00.ply").read_bytes()
        f2 = (tmp_path / "a2" / "s00_a_pose00.ply").read_bytes()
        assert f1 != f2
