"""The benchmark workloads: inputs, config and command sequence of each.

Command arguments use two placeholders: `{in}` is the generated input
directory, shared by every repetition of a run, and `{out}` is the
repetition's own output directory. Every command runs with `--workers 1`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from perfbench import inputs

C7_TOY = {"n_vertices": 1200, "ks": 10, "ke": 29, "seed": 0}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable[[Path, int], None]  # (input dir, seed)
    config: dict  # facepipe config, placeholders allowed in string values
    commands: list[tuple[str, list[str]]]  # (label, argv without --config/--workers)
    scored: str  # label of the evaluate whose probes and accuracy are reported
    probes: int  # probe count that evaluate must score
    # Lowest rank-1 of the scored evaluate that passes the checks. Rank-1 is
    # fixed for a seed, but varies between seeds; each floor sits below every
    # seed measured on the source the benchmark was written against (README).
    rank1_floor: float
    criterion_7: bool = False  # also hold self rank-1 = 1.0, as the acceptance suite does


def _sub(value, inp: Path, out: Path):
    if isinstance(value, str):
        return value.replace("{in}", str(inp)).replace("{out}", str(out))
    if isinstance(value, dict):
        return {k: _sub(v, inp, out) for k, v in value.items()}
    if isinstance(value, list):
        return [_sub(v, inp, out) for v in value]
    return value


def resolve(workload: Workload, seed: int, inp: Path, out: Path) -> tuple[dict, list]:
    """Config and argv lists with placeholders filled in for one repetition."""
    config = _sub({"seed": seed, **workload.config}, inp, out)
    commands = [
        (label, _sub(argv, inp, out) + ["--config", str(out / "config.json"), "--workers", "1"])
        for label, argv in workload.commands
    ]
    return config, commands


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="c7",
            why="criterion-7 shape: PLY I/O, ICP and model fit dominate; depth maps are 40 px",
            generate=lambda d, seed: inputs.raw_scans(d, seed, C7_TOY, n_ids=20, probes_each=5),
            config={
                "toy_model": C7_TOY,
                "fit": {"max_outer": 60},
                "render": {"output_size": 40, "fixed_depth_range": [0.0, 100.0]},
                "augment": {"expressions_per_subject": 10, "poses_per_scan": 5},
                "embedding": {"dimension": 256, "train_dir": "{out}/train_maps"},
            },
            commands=[
                ("preprocess-gallery", ["preprocess", "{in}/raw_gallery", "{out}/pp_gallery"]),
                ("preprocess-probes", ["preprocess", "{in}/raw_probes", "{out}/pp_probes"]),
                ("augment", ["augment", "{out}/pp_gallery", "{out}/aug"]),
                ("render-train", ["render", "{out}/aug", "{out}/train_maps"]),
                ("render-gallery", ["render", "{out}/pp_gallery", "{out}/gallery_maps"]),
                ("render-probes", ["render", "{out}/pp_probes", "{out}/probe_maps"]),
                ("evaluate-self", ["evaluate", "{out}/gallery_maps", "{out}/gallery_maps", "{out}/report_self"]),
                ("evaluate-perturbed", ["evaluate", "{out}/gallery_maps", "{out}/probe_maps", "{out}/report_perturbed"]),
            ],
            scored="evaluate-perturbed",
            probes=100,
            rank1_floor=0.7,
            criterion_7=True,
        ),
        Workload(
            name="paper-maps",
            why="paper-default 200 px renders of aligned clouds: splat, median filter, patches, PGM writes, PCA training",
            generate=lambda d, seed: inputs.aligned_clouds(d, seed, n_ids=30, probes_each=2, n_train=30),
            config={
                "augment": {"patch_variants_per_scan": 10},
                "embedding": {"train_dir": "{out}/train_maps"},
            },
            commands=[
                ("render-train", ["render", "{in}/train_clouds", "{out}/train_maps", "--patches"]),
                ("render-gallery", ["render", "{in}/gallery_clouds", "{out}/gallery_maps"]),
                ("render-probes", ["render", "{in}/probe_clouds", "{out}/probe_maps"]),
                ("evaluate", ["evaluate", "{out}/gallery_maps", "{out}/probe_maps", "{out}/report"]),
            ],
            scored="evaluate",
            probes=60,
            rank1_floor=0.8,
        ),
        Workload(
            name="frgc-match",
            why="FRGC v2 size identification, 466 ids x 4096-d external features: PGM reads, hashing, matching",
            generate=lambda d, seed: inputs.feature_maps(
                d, seed, n_ids=466, probes_each=3, dim=4096, noise=3.5
            ),
            config={
                "embedding": {"backend": "external", "feature_dir": "{in}/features"},
                "matching": {"pca_mode": "gallery"},
            },
            commands=[
                ("evaluate", ["evaluate", "{in}/gallery_maps", "{in}/probe_maps", "{out}/report"]),
            ],
            scored="evaluate",
            probes=1398,
            rank1_floor=0.85,
        ),
    ]
}
