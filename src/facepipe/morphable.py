"""Multilinear face shape model: synthesis, fitting, and expression transfer.

A face is mean + shape_basis @ alpha + expr_basis @ beta. Fitting recovers
(alpha, beta) and a rigid pose from a raw scan; expression transfer moves a
target expression from the model onto the scan through a per-vertex
displacement field, so the scan keeps its own fine surface detail.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from facepipe.pointcloud import (
    NeighborIndex,
    PointCloud,
    RigidTransform,
    WarmNeighbors,
    _set_read_only,
    _whole_file,
)

__all__ = [
    "MorphableModel",
    "ModelParams",
    "FitConfig",
    "ToyModelConfig",
    "FitResult",
    "FitError",
    "synthesize",
    "fit",
    "random_expression",
    "displacement_field",
    "nearest_vertices",
    "transfer_expression",
    "make_toy_model",
    "toy_mean_cloud",
    "save_model",
    "load_model",
]

EXPRESSION_BOUND = 0.05  # strict |beta_i| bound for generated expressions

_MAGIC = b"MLMM1"


class FitError(RuntimeError):
    """Model fitting could not produce a usable solution."""


@dataclass(frozen=True)
class MorphableModel:
    """Mean shape (n,3) mm plus shape/expression bases of shape (3n, k).

    Basis columns are orthogonal with norms chosen so coefficients of order
    one (shape) or a few hundredths (expression) give millimeter-scale
    surface changes. nose_index marks the mean shape's nose-tip vertex.
    """

    mean: np.ndarray
    shape_basis: np.ndarray
    expr_basis: np.ndarray
    nose_index: int

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        n = mean.shape[0]
        ps = np.asarray(self.shape_basis, dtype=np.float64)
        pe = np.asarray(self.expr_basis, dtype=np.float64)
        if mean.shape != (n, 3) or ps.shape[0] != 3 * n or pe.shape[0] != 3 * n:
            raise ValueError("basis row counts must equal 3 * vertex count")
        if not np.isfinite(mean).all():
            raise ValueError("model mean has non-finite coordinates")
        for name, b in (("shape", ps), ("expression", pe)):
            norms = np.linalg.norm(b, axis=0)
            if not np.isfinite(b).all() or (norms == 0).any():
                raise ValueError(f"{name} basis has zero or non-finite columns")
        if not 0 <= self.nose_index < n:
            raise ValueError("nose_index out of range")
        _set_read_only(self, mean=mean, shape_basis=ps, expr_basis=pe)

    @property
    def n_vertices(self) -> int:
        return self.mean.shape[0]

    @property
    def ks(self) -> int:
        return self.shape_basis.shape[1]

    @property
    def ke(self) -> int:
        return self.expr_basis.shape[1]

    def mean_cloud(self) -> PointCloud:
        """Mean shape as a point cloud with its nose-tip landmark set."""
        return PointCloud(self.mean, {"nose_tip": self.mean[self.nose_index]})


@dataclass(frozen=True)
class ModelParams:
    """Shape and expression coefficient vectors."""

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        alpha, beta = (np.asarray(v, dtype=np.float64).reshape(-1) for v in (self.alpha, self.beta))
        _set_read_only(self, alpha=alpha, beta=beta)


@dataclass(frozen=True)
class FitConfig:
    max_outer: int = 20
    convergence_eps: float = 1e-4  # mm change in correspondence rmse
    ridge: float = 1e-3  # penalty weight relative to the per-row data term

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not self.max_outer >= 1:
            raise ValueError("max_outer must be >= 1")
        if not 0 < self.convergence_eps < np.inf:
            raise ValueError("convergence_eps must be positive and finite")
        if not 0 <= self.ridge < np.inf:
            raise ValueError("ridge must be >= 0 and finite")


@dataclass(frozen=True)
class ToyModelConfig:
    """Arguments of `make_toy_model`, checked here: the `toy_model` config section."""

    n_vertices: int = 2000
    ks: int = 10
    ke: int = 29
    seed: int = 0

    def __post_init__(self):
        n_vertices, ks, ke, seed = self.n_vertices, self.ks, self.ke, self.seed
        if n_vertices < 50 or ks < 1 or ke < 1 or seed < 0:
            raise ValueError(f"need n_vertices >= 50, ks, ke >= 1, seed >= 0; got {n_vertices, ks, ke, seed}")


@dataclass(frozen=True)
class FitResult:
    params: ModelParams
    pose: RigidTransform  # model frame -> scan frame
    fitted_points: PointCloud  # model vertices posed into scan coordinates
    residual_rmse: float
    converged: bool
    iterations_used: int


def synthesize(model: MorphableModel, params: ModelParams) -> PointCloud:
    """Evaluate mean + shape_basis @ alpha + expr_basis @ beta as an (n,3) cloud."""
    if params.alpha.shape != (model.ks,) or params.beta.shape != (model.ke,):
        raise ValueError(
            f"coefficient lengths {params.alpha.shape[0]}/{params.beta.shape[0]} "
            f"do not match bases {model.ks}/{model.ke}"
        )
    flat = model.mean.reshape(-1) + model.shape_basis @ params.alpha + model.expr_basis @ params.beta
    return PointCloud(flat.reshape(-1, 3))


def _rotate_basis(rotation: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Apply one rotation to every per-vertex 3-row block of a (3n, k) basis."""
    n3, k = basis.shape
    blocks = basis.reshape(n3 // 3, 3, k)
    return np.einsum("ab,nbk->nak", rotation, blocks).reshape(n3, k)


def _solve_ridge(a: np.ndarray, b: np.ndarray, ridge: float) -> np.ndarray:
    # Minimizes ||a x - b||^2 + ridge * ||x||^2.
    lhs = a.T @ a + ridge * np.eye(a.shape[1])
    rhs = a.T @ b
    try:
        x = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise FitError(f"singular regularized normal equations: {exc}") from exc
    if not np.isfinite(x).all():
        raise FitError("regularized solve produced non-finite coefficients")
    return x


def fit(model: MorphableModel, scan: PointCloud, config: FitConfig = FitConfig()) -> FitResult:
    """Alternate nearest correspondences, rigid pose, and ridge solves for alpha, beta.

    The scan must already be cropped and roughly aligned; pose starts at
    identity and absorbs the residual misalignment. The fitted points and
    residual come from one last correspondence pass after the final update.
    """
    if len(scan) < model.n_vertices / 10:
        raise FitError(
            f"scan has {len(scan)} points; need at least {model.n_vertices // 10}"
        )
    nearest = WarmNeighbors(NeighborIndex(scan.points))
    alpha = np.zeros(model.ks)
    beta = np.zeros(model.ke)
    pose = RigidTransform.identity()
    mean_flat = model.mean.reshape(-1)
    shape = model.shape_basis @ alpha
    expr = model.expr_basis @ beta

    prev_rmse = None
    converged = False
    for updates in range(config.max_outer + 1):
        model_pts = (mean_flat + shape + expr).reshape(-1, 3)
        posed = pose.apply(model_pts)
        dist, idx = nearest.query_many(posed)
        rmse = float(np.sqrt(np.mean(dist**2)))
        if updates == config.max_outer:
            break
        if prev_rmse is not None and abs(prev_rmse - rmse) < config.convergence_eps:
            converged = True
            break
        prev_rmse = rmse

        targets = scan.points[idx]
        pose = RigidTransform.procrustes(model_pts, targets)

        # alpha solve: targets ~ R @ (mean + Ps a + Pe b) + t
        rhs = (targets - pose.apply((mean_flat + expr).reshape(-1, 3))).reshape(-1)
        alpha = _solve_ridge(_rotate_basis(pose.rotation, model.shape_basis), rhs, config.ridge)
        shape = model.shape_basis @ alpha

        rhs = (targets - pose.apply((mean_flat + shape).reshape(-1, 3))).reshape(-1)
        beta = _solve_ridge(_rotate_basis(pose.rotation, model.expr_basis), rhs, config.ridge)
        expr = model.expr_basis @ beta

    iterations = updates + 1 if converged else updates
    return FitResult(ModelParams(alpha, beta), pose, PointCloud(posed), rmse, converged, iterations)


def random_expression(rng: np.random.Generator, ke: int) -> np.ndarray:
    """Coefficients with a random active subset, each strictly inside (-0.05, 0.05)."""
    k = int(rng.integers(1, ke + 1))
    active = rng.choice(ke, size=k, replace=False)
    beta = np.zeros(ke)
    for i in active:
        value = 0.0
        while value == 0.0 or abs(value) >= EXPRESSION_BOUND:
            value = float(rng.uniform(-EXPRESSION_BOUND, EXPRESSION_BOUND))
        beta[i] = value
    return beta


def displacement_field(
    fitted: FitResult, target_beta: np.ndarray, model: MorphableModel
) -> np.ndarray:
    """(n, 3) offsets, in scan coordinates, from each fitted vertex to its re-expressed position."""
    deformed = fitted.pose.apply(
        synthesize(model, ModelParams(fitted.params.alpha, target_beta)).points
    )
    return deformed - fitted.fitted_points.points


def nearest_vertices(scan: PointCloud, fitted: FitResult) -> np.ndarray:
    """Index of the fitted vertex nearest each scan point, then each landmark."""
    points = np.vstack([scan.points, *scan.landmarks.values()])
    return NeighborIndex(fitted.fitted_points.points).query_many(points)[1]


def transfer_expression(
    scan: PointCloud, fitted: FitResult, offsets: np.ndarray, nearest: np.ndarray
) -> PointCloud:
    """Move each scan point and landmark (an extra row) by its nearest fitted vertex's row of
    `offsets`; `nearest` is `nearest_vertices(scan, fitted)`, shared by a fit's expressions."""
    if len(offsets) != len(fitted.fitted_points):
        raise ValueError("offsets length does not match fitted vertex count")
    points = np.vstack([scan.points, *scan.landmarks.values()])
    moved = points + offsets[nearest]
    return PointCloud(moved[: len(scan)], dict(zip(scan.landmarks, moved[len(scan) :])))


# ---------------------------------------------------------------------------
# Toy model: a deterministic, license-free face-like shell used in every
# test; its mean shape is the default reference surface. Real basis files
# convert to the same on-disk format offline.
# ---------------------------------------------------------------------------


def _smooth_random_fields(rng: np.random.Generator, verts: np.ndarray, k: int) -> np.ndarray:
    """(3n, k) matrix of smooth random deformation fields (not yet orthogonal).

    Distances to each field's six centres are summed x, y, then z on
    contiguous (6, n) planes, and the weights go back to a C-ordered (n, 6)
    array: the bits of an (n, 6, 3) broadcast, not three elements at a time.
    """
    n = len(verts)
    planes = np.ascontiguousarray(verts.T)
    raw = np.empty((3 * n, k))
    for j in range(k):
        centers = verts[rng.integers(0, n, size=6)]
        amplitudes = rng.normal(size=(6, 3))
        sigma = rng.uniform(18.0, 40.0)
        dx, dy, dz = (plane - c[:, None] for plane, c in zip(planes, centers.T))
        sq = (dx * dx + dy * dy) + dz * dz
        weights = np.ascontiguousarray(np.exp(-sq / (2 * sigma**2)).T)
        raw[:, j] = (weights @ amplitudes).reshape(-1)
    return raw


def _toy_mean(config: ToyModelConfig) -> tuple[np.ndarray, int, np.random.Generator]:
    """The toy model generator's first draws: the (n, 3) mean shape, its
    nose-tip vertex index and the generator, from which the bases draw next."""
    n_vertices = config.n_vertices
    rng = np.random.default_rng(config.seed)

    i = np.arange(n_vertices)
    radius = np.sqrt((i + 0.5) / n_vertices)
    theta = i * np.pi * (3.0 - np.sqrt(5.0))
    # Sized so every point lies within 100 mm of the nose tip (the whole
    # face survives the facial-region crop, as with real scans) while
    # staying clearly elliptical: a near-circular dome leaves in-plane
    # rotation unconstrained and traps rigid alignment.
    half_w, half_h = 52.0, 68.0
    x = half_w * radius * np.cos(theta)
    y = half_h * radius * np.sin(theta)
    # Jitter the spiral layout: a perfect golden-angle lattice is nearly
    # self-similar under rotation, which also creates sliding minima that
    # irregular real scans do not exhibit.
    spacing = np.sqrt(np.pi * half_w * half_h / n_vertices)
    x = x + rng.uniform(-1.0, 1.0, n_vertices) * spacing * 0.4
    y = y + rng.uniform(-1.0, 1.0, n_vertices) * spacing * 0.4
    dome = 45.0 * np.sqrt(np.clip(1.0 - (x / half_w) ** 2 - (y / half_h) ** 2, 0.0, None))
    nose = 22.0 * np.exp(-(x**2 + (y + 5.0) ** 2) / (2 * 11.0**2))
    z = dome + nose
    return np.column_stack([x, y, z]), int(np.argmax(z)), rng


def toy_mean_cloud(config: ToyModelConfig) -> PointCloud:
    """`make_toy_model(**asdict(config)).mean_cloud()`, built without the bases."""
    mean, nose_index, _ = _toy_mean(config)
    return PointCloud(mean, {"nose_tip": mean[nose_index]})


def make_toy_model(
    n_vertices: int = ToyModelConfig.n_vertices, ks: int = ToyModelConfig.ks,
    ke: int = ToyModelConfig.ke, seed: int = ToyModelConfig.seed,
) -> MorphableModel:
    """Procedural face-like model: elliptic dome shell with a nose bump.

    Vertices follow a sunflower layout over the face ellipse for even
    coverage; bases are smooth random fields, column-orthogonalized, with
    norms calibrated so typical coefficients deform the surface by a few
    millimeters. Deterministic per seed.
    """
    mean, nose_index, rng = _toy_mean(ToyModelConfig(n_vertices, ks, ke, seed))

    # Column norms: identity coefficients ~N(0,1) give ~4 mm rms surface
    # change; expression coefficients bounded by 0.05 stay subtle at
    # ~1.2 mm rms, well below identity separation.
    shape_norm = 4.0 * np.sqrt(n_vertices / ks)
    typical_beta = np.sqrt((ke + 1) / 2.0 * EXPRESSION_BOUND**2 / 3.0)
    expr_norm = 1.2 * np.sqrt(n_vertices) / typical_beta

    # Remove infinitesimal rigid motions (a translation along, then a rotation
    # about, each axis: they belong to the pose, not the shape) from the
    # deformation fields, then orthogonalize the two bases jointly so shape and
    # expression subspaces do not overlap (as with decorrelated statistical bases).
    centered, eye = mean - mean.mean(axis=0), np.eye(3)
    rigid = np.column_stack([np.tile(eye, (n_vertices, 1)), np.cross(eye[:, None], centered).reshape(3, -1).T])
    rigid_q, _ = np.linalg.qr(rigid)

    # the shape fields draw first, then the expression fields, in one pass
    raw = _smooth_random_fields(rng, mean, ks + ke)
    raw -= rigid_q @ (rigid_q.T @ raw)
    q, _ = np.linalg.qr(raw)
    return MorphableModel(mean, q[:, :ks] * shape_norm, q[:, ks:] * expr_norm, nose_index)


def save_model(model: MorphableModel, path) -> None:
    """Write the binary model file (magic, counts, float64 arrays, nose index)."""
    n, ks, ke = model.n_vertices, model.ks, model.ke
    with _whole_file(path) as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<QQQ", n, ks, ke))
        fh.write(model.mean.reshape(-1).astype("<f8").tobytes())
        fh.write(model.shape_basis.astype("<f8").tobytes(order="F"))
        fh.write(model.expr_basis.astype("<f8").tobytes(order="F"))
        fh.write(struct.pack("<q", model.nose_index))


def load_model(path) -> MorphableModel:
    path = Path(path)
    raw = path.read_bytes()
    if raw[:5] != _MAGIC:
        raise ValueError(f"{path}: bad magic, expected {_MAGIC!r}")
    offset = 5 + 24
    if len(raw) < offset:
        raise ValueError(f"{path}: truncated header, expected {offset} bytes, found {len(raw)}")
    n, ks, ke = struct.unpack_from("<QQQ", raw, 5)
    counts = [3 * n, 3 * n * ks, 3 * n * ke]
    need = offset + 8 * sum(counts) + 8
    if len(raw) != need:
        raise ValueError(f"{path}: expected {need} bytes, found {len(raw)}")
    arrays = []
    for count in counts:
        arrays.append(np.frombuffer(raw, dtype="<f8", count=count, offset=offset))
        offset += 8 * count
    (nose_index,) = struct.unpack_from("<q", raw, offset)
    try:
        return MorphableModel(
            arrays[0].reshape(n, 3),
            arrays[1].reshape((3 * n, ks), order="F"),
            arrays[2].reshape((3 * n, ke), order="F"),
            int(nose_index),
        )
    except ValueError as exc:  # a model check failed: name the file
        raise ValueError(f"{path}: {exc}") from None
