"""Nose-tip detection and rigid-ICP alignment of scans to a reference face."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from facepipe.pointcloud import (
    NeighborIndex,
    PointCloud,
    RigidTransform,
    WarmNeighbors,
    apply_transform,
    crop_sphere,
)

__all__ = [
    "IcpParams",
    "IcpResult",
    "NoseDetectionError",
    "IcpDivergenceError",
    "PreprocessError",
    "detect_nose_tip",
    "rigid_icp",
    "preprocess_with_result",
]


class NoseDetectionError(RuntimeError):
    """Heuristic nose-tip detection failed; supply a 'nose_tip' landmark."""


class IcpDivergenceError(RuntimeError):
    """Every correspondence was rejected; the clouds do not overlap."""


class PreprocessError(RuntimeError):
    """A preprocessing stage failed; message names the stage."""


@dataclass(frozen=True)
class IcpParams:
    max_iterations: int = 100
    convergence_eps: float = 1e-4  # mm change in mean correspondence distance
    # Drop pairs beyond multiplier x max(median distance, reference sampling
    # resolution). Values below ~5 cut the informative tail of legitimate
    # correspondences under 10-degree misalignments and stall convergence.
    rejection_multiplier: float = 6.0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.convergence_eps <= 0:
            raise ValueError("convergence_eps must be positive")
        if self.rejection_multiplier <= 1:
            raise ValueError("rejection_multiplier must be > 1")


@dataclass(frozen=True)
class IcpResult:
    transform: RigidTransform  # source frame -> reference frame
    rmse: float
    iterations_used: int
    converged: bool
    mean_distance_history: tuple[float, ...] = ()


def detect_nose_tip(cloud: PointCloud) -> np.ndarray:
    """Nose-tip position; an annotated landmark wins over the heuristic.

    Heuristic: orient by the principal axes of the point covariance
    (smallest-variance axis is depth), resolve the depth sign toward the
    protruding side, and take the deepest point inside the central 40%
    band of the horizontal extent.
    """
    if "nose_tip" in cloud.landmarks:
        return cloud.landmarks["nose_tip"].copy()
    if len(cloud) < 100:
        raise NoseDetectionError(
            f"cloud has only {len(cloud)} points and no 'nose_tip' landmark"
        )

    pts = cloud.points
    centered = pts - pts.mean(axis=0)
    # eigh returns ascending eigenvalues: axes[0]=depth, axes[2]=vertical
    evals, axes = np.linalg.eigh(np.cov(centered.T))
    depth = centered @ axes[:, 0]
    horiz = centered @ axes[:, 1]

    depth_span = depth.max() - depth.min()
    if depth_span < 1e-9 or evals[0] < 1e-18:
        raise NoseDetectionError(
            "cloud is degenerate (flat); supply a 'nose_tip' landmark"
        )

    # The face bulges toward the sensor: central points sit farther out
    # along the depth axis than peripheral ones. Use that to fix the sign.
    radius_sq = horiz**2 + (centered @ axes[:, 2]) ** 2
    inner = radius_sq <= np.median(radius_sq)
    bulge = depth[inner].mean() - depth[~inner].mean()
    if bulge < 0:
        depth = -depth

    lo, hi = horiz.min(), horiz.max()
    center, half_band = (lo + hi) / 2.0, 0.2 * (hi - lo)
    in_band = np.abs(horiz - center) <= half_band
    if not in_band.any():
        raise NoseDetectionError("no points in the central horizontal band")
    candidates = np.flatnonzero(in_band)
    return pts[candidates[np.argmax(depth[candidates])]].copy()


def rigid_icp(
    source: PointCloud,
    reference: NeighborIndex,
    init: RigidTransform = RigidTransform.identity(),
    params: IcpParams = IcpParams(),
) -> IcpResult:
    """Iterative closest point with median-based outlier rejection.

    Alternates nearest-neighbor correspondence against the indexed
    reference points, rejection of pairs beyond rejection_multiplier x the
    median distance (floored at the reference sampling resolution), and a
    closed-form SVD update. Returns the total source-to-reference transform
    including the initial guess.
    """
    total = init
    moved = init.apply(source.points)
    nearest = WarmNeighbors(reference)
    floor = reference.sampling_resolution
    history: list[float] = []  # mean accepted distance, one per iteration
    converged = False

    for _ in range(params.max_iterations):
        dist, idx = nearest.query_many(moved)
        keep = _accept_mask(dist, params.rejection_multiplier, floor)
        if not keep.any():
            raise IcpDivergenceError("all correspondences rejected")
        history.append(float(dist[keep].mean()))

        step = RigidTransform.procrustes(moved[keep], reference.points[idx[keep]])
        moved = step.apply(moved)
        total = step.compose(total)

        if len(history) > 1 and abs(history[-2] - history[-1]) < params.convergence_eps:
            converged = True
            break

    dist, _ = nearest.query_many(moved)
    keep = _accept_mask(dist, params.rejection_multiplier, floor)
    rmse = float(np.sqrt(np.mean(dist[keep] ** 2))) if keep.any() else float("inf")
    return IcpResult(total, rmse, len(history), converged, tuple(history))


def _accept_mask(dist: np.ndarray, multiplier: float, floor: float) -> np.ndarray:
    # The resolution floor keeps distances at sampling scale from being
    # treated as outliers once the median has collapsed near zero.
    scale = max(float(np.median(dist)), floor)
    if scale == 0.0:
        return dist == 0.0
    return dist <= multiplier * scale


def preprocess_with_result(
    cloud: PointCloud,
    reference: NeighborIndex,
    reference_nose: np.ndarray,
    params: IcpParams = IcpParams(),
    crop_radius: float = 100.0,
) -> tuple[PointCloud, IcpResult]:
    """Nose-crop a scan and align it rigidly to the reference face.

    The reference comes prepared once for many scans: its neighbor index
    and its nose tip (`detect_nose_tip`). Pipeline: detect the scan's nose
    tip, keep the sphere of crop_radius (mm) around it, translate the nose
    onto the reference nose, refine with ICP, and return the aligned crop
    together with the ICP result.
    """
    try:
        nose = detect_nose_tip(cloud)
    except NoseDetectionError as exc:
        raise PreprocessError(f"nose detection: {exc}") from exc

    try:
        cropped = crop_sphere(cloud, nose, crop_radius)
    except ValueError as exc:
        raise PreprocessError(f"crop: {exc}") from exc

    init = RigidTransform(np.eye(3), reference_nose - nose)
    try:
        result = rigid_icp(cropped, reference, init, params)
    except IcpDivergenceError as exc:
        raise PreprocessError(f"icp: {exc}") from exc
    return apply_transform(cropped, result.transform), result
