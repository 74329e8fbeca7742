"""Dataset enlargement: random expressions, rigid jitter, and occlusion patches."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from facepipe.depthmap import DepthMap
from facepipe.morphable import (
    FitConfig,
    MorphableModel,
    displacement_field,
    fit,
    nearest_vertices,
    random_expression,
    transfer_expression,
)
from facepipe.pointcloud import PointCloud, RigidTransform, apply_transform, rotation_zyx

__all__ = ["AugmentPlan", "random_rigid", "apply_patches", "augment_subject"]


@dataclass(frozen=True)
class AugmentPlan:
    expressions_per_subject: int = 25
    poses_per_scan: int = 10
    patch_variants_per_scan: int = 10
    angle_bound: float = 10.0  # degrees
    translation_bound: float = 10.0  # mm
    patch_count: int = 8
    patch_size: int = 18  # pixels
    seed: int = 0

    def __post_init__(self):
        counts = (
            self.expressions_per_subject,
            self.poses_per_scan,
            self.patch_variants_per_scan,
            self.patch_count,
            self.patch_size,
        )
        if any(c < 0 for c in counts):
            raise ValueError("counts must be non-negative")
        if self.angle_bound <= 0 or self.translation_bound <= 0:
            raise ValueError("bounds must be positive")


def random_rigid(
    rng: np.random.Generator, angle_bound: float = 10.0, translation_bound: float = 10.0
) -> RigidTransform:
    """Rotation Rz(t3)Ry(t2)Rx(t1) and translation with uniform bounded draws."""
    theta = rng.uniform(-angle_bound, angle_bound, 3)
    translation = rng.uniform(-translation_bound, translation_bound, 3)
    return RigidTransform(rotation_zyx(*theta), translation)


def apply_patches(
    dmap: DepthMap, rng: np.random.Generator, count: int = 8, size: int = 18
) -> DepthMap:
    """Blank out `count` random size x size squares (depth 0, invalid).

    Squares lie fully inside the canvas and may overlap; this simulates
    hard occlusions such as hair or hands.
    """
    if size > min(dmap.height, dmap.width):
        raise ValueError("patch size exceeds map dimensions")
    depth = dmap.depth.copy()
    valid = dmap.valid.copy()
    for _ in range(count):
        top = int(rng.integers(0, dmap.height - size + 1))
        left = int(rng.integers(0, dmap.width - size + 1))
        depth[top : top + size, left : left + size] = 0.0
        valid[top : top + size, left : left + size] = False
    return DepthMap(depth, valid)


def augment_subject(
    scan: PointCloud,
    model: MorphableModel,
    plan: AugmentPlan,
    fit_config: FitConfig = FitConfig(),
) -> list[PointCloud]:
    """Expression-transferred variants of one preprocessed scan, plus rigid jigs.

    The model is fitted and its nearest vertices looked up once; each expression
    draw is transferred through its displacement field. Pose variants rigidly
    perturb the original scan. All randomness flows from plan.seed.
    """
    rng = np.random.default_rng(plan.seed)
    out: list[PointCloud] = []
    if plan.expressions_per_subject > 0:
        fitted = fit(model, scan, fit_config)
        nearest = nearest_vertices(scan, fitted)
        for _ in range(plan.expressions_per_subject):
            beta = random_expression(rng, model.ke)
            field = displacement_field(fitted, beta, model)
            out.append(transfer_expression(scan, fitted, field, nearest))
    for _ in range(plan.poses_per_scan):
        out.append(apply_transform(scan, random_rigid(rng, plan.angle_bound, plan.translation_bound)))
    return out
