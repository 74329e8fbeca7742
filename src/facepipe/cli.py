"""Pipeline orchestration and command-line entry point.

Train side: preprocess -> augment -> render (-> export / embed).
Test side: preprocess -> render -> embed -> sqrt normalize -> PCA -> match.

Scans are PLY files named <subject>_<scan>.ply; the subject label is the
stem up to the first underscore. Every command reads one JSON config,
writes its resolved copy next to the outputs, and logs one line per item
to stderr, in file order. Exit status is 0 only if every item succeeded.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import logging
import os
import sys
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from facepipe.augmentation import AugmentPlan, apply_patches, augment_subject
from facepipe.depthmap import RenderParams, export_pgm, render_pipeline
from facepipe.embedding import (
    ExternalBackend,
    baseline_train,
    pca_fit_variance,
    pca_transform,
    sqrt_normalize,
)
from facepipe.matching import Gallery, MatchAccountingError, cmc, roc
from facepipe.morphable import FitConfig, MorphableModel, load_model, make_toy_model
from facepipe.pointcloud import NeighborIndex, PointCloud, load_ply, save_ply
from facepipe.registration import IcpParams, NoseDetectionError, PreprocessError
from facepipe.registration import detect_nose_tip, preprocess_with_result

__all__ = [
    "PipelineConfig",
    "load_config",
    "cmd_preprocess",
    "cmd_augment",
    "cmd_render",
    "cmd_evaluate",
    "main",
]

log = logging.getLogger("facepipe")


@dataclass(frozen=True)
class ToyModelConfig:
    n_vertices: int = 2000
    ks: int = 10
    ke: int = 29
    seed: int = 0


@dataclass(frozen=True)
class EmbeddingConfig:
    backend: str = "baseline"  # "baseline" | "external"
    dimension: int = 256
    pca_variance_target: float = 0.95
    train_dir: str | None = None
    feature_dir: str | None = None

    def __post_init__(self):
        if self.backend not in ("baseline", "external"):
            raise ValueError(f"unknown embedding backend {self.backend!r}")
        if self.backend == "external" and self.feature_dir is None:
            raise ValueError("external backend requires embedding.feature_dir")
        if self.dimension < 1:
            raise ValueError("embedding.dimension must be >= 1")
        if not 0 < self.pca_variance_target <= 1:
            raise ValueError("embedding.pca_variance_target must be in (0, 1]")


@dataclass(frozen=True)
class MatchingConfig:
    pca_mode: str = "union"  # "union" | "gallery"

    def __post_init__(self):
        if self.pca_mode not in ("union", "gallery"):
            raise ValueError(f"unknown pca_mode {self.pca_mode!r}")


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 0
    reference_model_path: str | None = None
    morphable_model_path: str | None = None
    toy_model: ToyModelConfig = field(default_factory=ToyModelConfig)
    icp: IcpParams = field(default_factory=IcpParams)
    fit: FitConfig = field(default_factory=FitConfig)
    render: RenderParams = field(default_factory=RenderParams)
    augment: AugmentPlan = field(default_factory=AugmentPlan)
    embedding: EmbeddingConfig = field(default_factory=EmbeddingConfig)
    matching: MatchingConfig = field(default_factory=MatchingConfig)

    def load_morphable(self) -> MorphableModel:
        if self.morphable_model_path is not None:
            return load_model(self.morphable_model_path)
        t = self.toy_model
        return make_toy_model(t.n_vertices, t.ks, t.ke, t.seed)

    def load_reference(self) -> PointCloud:
        if self.reference_model_path is not None:
            return load_ply(self.reference_model_path)
        return self.load_morphable().mean_cloud()


def _fits(value, hint) -> bool:
    """Whether a JSON value fits a config field's type hint; a bool is not a number."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:  # a fixed-length tuple arrives as a JSON list
        fixed = isinstance(value, (list, tuple)) and len(value) == len(args)
        return fixed and all(map(_fits, value, args))
    if args:  # X | None
        return any(_fits(value, a) for a in args)
    kinds = (int, float) if hint is float else hint
    return isinstance(value, kinds) and not isinstance(value, bool)


def _build(cls, data: dict, where: str):
    """Instantiate a config dataclass; sections recurse, other values must fit their hints."""
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be an object")
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(f"unknown config keys in {where}: {sorted(unknown)}")
    types = typing.get_type_hints(cls)
    kwargs = {}
    # plain values first, so a section inheriting one cannot report its error
    sections_last = sorted(data, key=lambda name: dataclasses.is_dataclass(types[name]))
    for name in sections_last:
        hint, value = types[name], data[name]
        if dataclasses.is_dataclass(hint):
            value = _build(hint, value, f"{where}.{name}")
        elif not _fits(value, hint):
            got = json.dumps(value, default=repr)
            raise ValueError(f"{where}.{name} must be {getattr(hint, '__name__', hint)}, got {got}")
        kwargs[name] = value
    return cls(**kwargs)


def load_config(path=None, overrides: dict | None = None) -> PipelineConfig:
    """Config from JSON with defaults; `overrides` wins over the file."""
    data = {}
    if path is not None:
        data = json.loads(Path(path).read_text())
    if isinstance(data, dict):  # anything else is rejected by _build
        data.update((k, v) for k, v in (overrides or {}).items() if v is not None)
        # an unset or null augment seed inherits the master seed
        aug = data.setdefault("augment", {})
        if isinstance(aug, dict) and aug.get("seed") is None:
            aug["seed"] = data.get("seed", 0)
    return _build(PipelineConfig, data, "config")


def _write_json(path: Path, value) -> None:
    path.write_text(json.dumps(value, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _inputs(directory, suffix: str) -> list[Path]:
    """The directory's files with this suffix, sorted by stem (the subject label's source)."""
    files = sorted(Path(directory).glob(f"*{suffix}"), key=lambda f: f.stem)
    if not files:
        raise FileNotFoundError(f"no inputs: no {suffix} files in {directory}")
    return files


def _subject_of(stem: str) -> str:
    return stem.split("_")[0]


def _derived_seed(*parts) -> int:
    """Stable 63-bit seed from a master seed plus string/int context."""
    text = ":".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def _each_scan(files, output_dir, config: PipelineConfig, workers: int, one) -> int:
    """Run one(path, output_dir) on every listed scan; returns the number that failed.

    `one` returns the scan's summary line. Every scan's line, or its failure,
    is logged here in file order; a failing scan does not stop the others.
    The resolved config is written once every scan has run.
    """
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)

    def guarded(path: Path) -> tuple[bool, str]:
        try:
            return True, one(path, output_dir)
        except Exception as exc:  # per-item isolation; commands keep going
            return False, f"{type(exc).__name__}: {exc}"

    failures = 0
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for path, (ok, line) in zip(files, pool.map(guarded, files)):
            if ok:
                log.info("%s", line)
            else:
                failures += 1
                log.error("FAILED %s: %s", path.name, line)
    _write_json(output_dir / "config.resolved.json", dataclasses.asdict(config))
    return failures


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_preprocess(input_dir, output_dir, config: PipelineConfig, workers: int = 1) -> int:
    """Align and crop every scan; returns the number of failed scans."""
    reference = config.load_reference()
    try:
        reference_nose = detect_nose_tip(reference)
    except NoseDetectionError as exc:
        raise PreprocessError(f"nose detection (reference): {exc}") from exc
    index = NeighborIndex(reference.points)

    def one(path: Path, out: Path) -> str:
        aligned, icp = preprocess_with_result(
            load_ply(path), index, reference_nose, config.icp, config.render.crop_radius
        )
        save_ply(aligned, out / path.name)
        note = "" if icp.converged else " (no convergence)"
        return (f"preprocess {path.name}: rmse {icp.rmse:.4f} mm, "
                f"{icp.iterations_used} iterations{note}")

    return _each_scan(_inputs(input_dir, ".ply"), output_dir, config, workers, one)


def cmd_augment(input_dir, output_dir, config: PipelineConfig, workers: int = 1) -> int:
    """Expression variants for each subject's first scan, pose variants for all.

    Writes a manifest mapping every output file to its provenance.
    """
    model = config.load_morphable()
    plan = config.augment
    files = _inputs(input_dir, ".ply")
    # a scan's position among its subject's scans, in file order
    subject_scans: dict[str, list[Path]] = {}
    for path in files:
        subject_scans.setdefault(_subject_of(path.stem), []).append(path)
    positions = {path: k for scans in subject_scans.values() for k, path in enumerate(scans)}
    manifest: dict[str, dict] = {}

    def one(path: Path, out: Path) -> str:
        subject = _subject_of(path.stem)
        scan_pos = positions[path]
        expressions = plan.expressions_per_subject if scan_pos == 0 else 0
        seed = _derived_seed(plan.seed, subject, scan_pos)
        local_plan = dataclasses.replace(
            plan, expressions_per_subject=expressions, seed=seed
        )
        clouds = augment_subject(load_ply(path), model, local_plan, config.fit)
        for k, cloud in enumerate(clouds):
            kind = "expression" if k < expressions else "pose"
            counter = k if k < expressions else k - expressions
            name = f"{path.stem}_{'expr' if kind == 'expression' else 'pose'}{counter:02d}.ply"
            save_ply(cloud, out / name)
            manifest[name] = {
                "source": path.name,
                "subject": subject,
                "kind": kind,
                "index": counter,
                "seed": seed,
            }
        return f"augment {path.name}: {len(clouds)} outputs"

    failures = _each_scan(files, output_dir, config, workers, one)
    _write_json(Path(output_dir) / "manifest.json", manifest)
    return failures


def cmd_render(
    input_dir, output_dir, config: PipelineConfig, patches: bool = False, workers: int = 1
) -> int:
    """Render every aligned PLY to a normalized 16-bit PGM (optionally patched)."""
    plan = config.augment

    def one(path: Path, out: Path) -> str:
        dmap = render_pipeline(load_ply(path), config.render)
        export_pgm(dmap, out / f"{path.stem}.pgm")
        variants = plan.patch_variants_per_scan if patches else 0
        if variants:
            rng = np.random.default_rng(_derived_seed(plan.seed, "patches", path.stem))
            for k in range(variants):
                patched = apply_patches(dmap, rng, plan.patch_count, plan.patch_size)
                export_pgm(patched, out / f"{path.stem}_patch{k:02d}.pgm")
        return f"render {path.name}: {1 + variants} maps"

    return _each_scan(_inputs(input_dir, ".ply"), output_dir, config, workers, one)


def _make_backend(config: PipelineConfig, gallery_files: list[Path]):
    emb = config.embedding
    if emb.backend == "external":
        return ExternalBackend(emb.feature_dir)
    train_files = _inputs(emb.train_dir, ".pgm") if emb.train_dir else gallery_files
    return baseline_train(train_files, emb.dimension, config.render.final_size)


def cmd_evaluate(gallery_dir, probe_dir, config: PipelineConfig, report_dir) -> int:
    """Embed, normalize, project, and match probes against the gallery.

    Writes cmc.csv, roc.csv, and summary.json under report_dir.
    """
    report_dir = Path(report_dir)
    report_dir.mkdir(parents=True, exist_ok=True)
    gallery_files = _inputs(gallery_dir, ".pgm")
    probe_files = _inputs(probe_dir, ".pgm")

    gallery_ids = [_subject_of(f.stem) for f in gallery_files]
    true_ids = [_subject_of(f.stem) for f in probe_files]
    enrolled = set(gallery_ids)
    missing = sorted(f.stem for f, sid in zip(probe_files, true_ids) if sid not in enrolled)
    if missing:
        raise MatchAccountingError(f"probe subjects absent from gallery: {', '.join(missing)}")
    mode = config.matching.pca_mode

    backend = _make_backend(config, gallery_files)
    # one sqrt-normalized feature row per map, gallery then probes; no map is kept
    feats = np.stack([sqrt_normalize(backend.embed(f)) for f in gallery_files + probe_files])
    gallery_feats, probe_feats = feats[: len(gallery_files)], feats[len(gallery_files) :]
    fit = gallery_feats if mode == "gallery" else feats
    pca = pca_fit_variance(fit, config.embedding.pca_variance_target, max(1, len(gallery_ids) - 1))

    gallery = Gallery(zip(gallery_ids, pca_transform(pca, gallery_feats)))
    scores = gallery.identity_distances(pca_transform(pca, probe_feats))
    for f, row, best in zip(probe_files, scores.values, scores.values.argmin(axis=1)):
        log.info("probe %s: rank-1 %s (distance %.6f)", f.stem, scores.subjects[best], row[best])

    curve = cmc(scores, true_ids)
    own = scores.own(true_ids)  # genuine: own identity; impostor: each other one
    roc_curve = roc(scores.values[own], scores.values[~own])

    cmc_rows = ((r, repr(float(acc))) for r, acc in enumerate(curve, start=1))
    _write_csv(report_dir / "cmc.csv", ["rank", "accuracy"], cmc_rows)
    roc_rows = ((repr(float(far)), repr(float(vr))) for far, vr in roc_curve)
    _write_csv(report_dir / "roc.csv", ["far", "vr"], roc_rows)
    summary = {
        "gallery_size": len(gallery),
        "probe_count": len(probe_files),
        "rank1_accuracy": float(curve[0]),
        "rank2_accuracy": float(curve[min(1, len(curve) - 1)]),
        "pca_components": pca.k,
        "pca_mode": mode,
        "backend": config.embedding.backend,
    }
    _write_json(report_dir / "summary.json", summary)
    _write_json(report_dir / "config.resolved.json", dataclasses.asdict(config))
    log.info(
        "evaluate: rank-1 %.4f rank-2 %.4f over %d probes",
        summary["rank1_accuracy"], summary["rank2_accuracy"], len(probe_files),
    )
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="facepipe", description="3D face identification pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, default=None, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument(
            "--workers", type=int, default=os.cpu_count() or 1,
            help="parallel workers, at least 1 (default: number of processors)",
        )

    p = sub.add_parser("preprocess", help="align and crop raw scans")
    p.add_argument("input_dir", type=Path)
    p.add_argument("output_dir", type=Path)
    common(p)

    p = sub.add_parser("augment", help="generate expression and pose variants")
    p.add_argument("input_dir", type=Path)
    p.add_argument("output_dir", type=Path)
    common(p)

    p = sub.add_parser("render", help="render aligned scans to depth-map PGMs")
    p.add_argument("input_dir", type=Path)
    p.add_argument("output_dir", type=Path)
    p.add_argument("--patches", action="store_true", help="also write patched variants")
    common(p)

    p = sub.add_parser("evaluate", help="match probe maps against a gallery")
    p.add_argument("gallery_dir", type=Path)
    p.add_argument("probe_dir", type=Path)
    p.add_argument("report_dir", type=Path)
    common(p)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = _parser()
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error(f"argument --workers: must be at least 1, got {args.workers}")
    try:
        overrides = {"seed": args.seed} if args.seed is not None else None
        config = load_config(args.config, overrides)
        if args.command == "preprocess":
            failures = cmd_preprocess(args.input_dir, args.output_dir, config, args.workers)
        elif args.command == "augment":
            failures = cmd_augment(args.input_dir, args.output_dir, config, args.workers)
        elif args.command == "render":
            failures = cmd_render(
                args.input_dir, args.output_dir, config, args.patches, args.workers
            )
        else:
            failures = cmd_evaluate(args.gallery_dir, args.probe_dir, config, args.report_dir)
    except Exception as exc:
        log.error("%s", exc)
        return 1
    if failures:
        log.error("%d item(s) failed", failures)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
