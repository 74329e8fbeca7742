"""Seeded input generators for the benchmark workloads.

The generators call only the model functions `make_toy_model`, `synthesize`
and `random_expression`; the rigid jitter and every file writer (PLY,
landmark sidecar, PGM, FVEC) live here and follow the formats in the README.
A change to the program's own writers or fitting code therefore cannot
change the bytes the benchmark feeds in; the run prints their SHA-256.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from facepipe.morphable import ModelParams, make_toy_model, random_expression, synthesize

# Identity coefficients: norm drawn from this range, and no two enrolled
# identities closer than MIN_IDENTITY_GAP, as in the acceptance suite, so
# the gallery holds distinct people rather than near-twins.
IDENTITY_NORM = (2.2, 2.9)
MIN_IDENTITY_GAP = 2.0


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------


def write_ply(points: np.ndarray, path: Path, nose_tip: np.ndarray | None = None) -> None:
    """ASCII PLY with float32 x, y, z; optional `nose_tip` landmark sidecar.

    Each coordinate is narrowed to float32 and printed as the shortest
    decimal of that value, so a reader that narrows again recovers it exactly.
    """
    pts = np.asarray(points, dtype=np.float32).astype(np.float64)
    header = (
        "ply\nformat ascii 1.0\n"
        f"element vertex {len(pts)}\n"
        "property float x\nproperty float y\nproperty float z\nend_header\n"
    )
    body = "\n".join(f"{x!r} {y!r} {z!r}" for x, y, z in pts.tolist())
    path.write_text(header + body + "\n")
    if nose_tip is not None:
        sidecar = path.with_name(path.stem + ".landmarks.json")
        sidecar.write_text(json.dumps({"nose_tip": [float(v) for v in nose_tip]}))


def pgm_file_bytes(values: np.ndarray) -> bytes:
    """16-bit big-endian binary PGM (P5, maxval 65535) of a uint16 grid."""
    height, width = values.shape
    header = f"P5\n{width} {height}\n65535\n".encode("ascii")
    return header + np.asarray(values, dtype=">u2").tobytes()


def write_fvec(values: np.ndarray, path: Path) -> None:
    """FVEC1 feature file: magic, little-endian uint64 count, float64 values."""
    values = np.asarray(values, dtype="<f8").reshape(-1)
    path.write_bytes(b"FVEC1" + np.uint64(len(values)).astype("<u8").tobytes() + values.tobytes())


# ---------------------------------------------------------------------------
# Shapes
# ---------------------------------------------------------------------------


def rotation(degrees: np.ndarray) -> np.ndarray:
    """Rz @ Ry @ Rx for angles (x, y, z) in degrees."""
    ax, ay, az = np.deg2rad(degrees)
    cx, sx, cy, sy, cz, sz = np.cos(ax), np.sin(ax), np.cos(ay), np.sin(ay), np.cos(az), np.sin(az)
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return rz @ ry @ rx


def jitter(rng: np.random.Generator, points: np.ndarray, nose: np.ndarray, bound: float):
    """Random rigid motion: each angle within +-bound degrees, each shift within +-bound mm."""
    rot = rotation(rng.uniform(-bound, bound, 3))
    shift = rng.uniform(-bound, bound, 3)
    return points @ rot.T + shift, rot @ nose + shift


def identities(rng: np.random.Generator, count: int, ks: int) -> list[np.ndarray]:
    alphas = np.empty((0, ks))
    while len(alphas) < count:
        alpha = rng.normal(size=ks)
        alpha *= rng.uniform(*IDENTITY_NORM) / np.linalg.norm(alpha)
        if not len(alphas) or np.linalg.norm(alphas - alpha, axis=1).min() >= MIN_IDENTITY_GAP:
            alphas = np.vstack([alphas, alpha])
    return list(alphas)


def face(model, alpha: np.ndarray, beta: np.ndarray | None = None) -> np.ndarray:
    if beta is None:
        beta = np.zeros(model.ke)
    return synthesize(model, ModelParams(alpha, beta)).points


# ---------------------------------------------------------------------------
# Workload inputs
# ---------------------------------------------------------------------------


def raw_scans(out: Path, seed: int, toy: dict, n_ids: int, probes_each: int) -> None:
    """Criterion-7 raw scans: one neutral gallery scan and several expressive,
    pose-jittered probe scans per identity, each with a nose-tip sidecar."""
    model = make_toy_model(**toy)
    rng = np.random.default_rng(seed)
    gallery, probes = out / "raw_gallery", out / "raw_probes"
    gallery.mkdir(parents=True)
    probes.mkdir(parents=True)
    for i, alpha in enumerate(identities(rng, n_ids, model.ks)):
        pts = face(model, alpha)
        pts, nose = jitter(rng, pts, pts[model.nose_index], 8.0)
        write_ply(pts, gallery / f"id{i:03d}_a.ply", nose)
        for p in range(probes_each):
            pts = face(model, alpha, random_expression(rng, model.ke))
            pts, nose = jitter(rng, pts, pts[model.nose_index], 10.0)
            write_ply(pts, probes / f"id{i:03d}_p{p}.ply", nose)


def aligned_clouds(out: Path, seed: int, n_ids: int, probes_each: int, n_train: int) -> None:
    """Clouds already in the model frame: expressive training clouds, one
    neutral gallery cloud and expressive probe clouds per identity."""
    model = make_toy_model()
    rng = np.random.default_rng(seed)
    dirs = {name: out / name for name in ("train_clouds", "gallery_clouds", "probe_clouds")}
    for d in dirs.values():
        d.mkdir(parents=True)
    alphas = identities(rng, n_ids, model.ks)
    for i, alpha in enumerate(alphas):
        write_ply(face(model, alpha), dirs["gallery_clouds"] / f"id{i:03d}_a.ply")
        for p in range(probes_each):
            beta = random_expression(rng, model.ke)
            write_ply(face(model, alpha, beta), dirs["probe_clouds"] / f"id{i:03d}_p{p}.ply")
    for k in range(n_train):
        beta = random_expression(rng, model.ke)
        alpha = alphas[k % n_ids]
        write_ply(face(model, alpha, beta), dirs["train_clouds"] / f"id{k % n_ids:03d}_t{k:03d}.ply")


def _depth_pgm(points: np.ndarray, cells: int, size: int) -> np.ndarray:
    """Nearest-cell z-buffer of a face on a cells x cells grid, scaled up to
    size x size and quantized to 1..65535 (0 where no point landed)."""
    span = 140.0  # mm across the canvas, centred on the face
    u = np.clip(((points[:, 0] / span + 0.5) * cells).astype(int), 0, cells - 1)
    v = np.clip(((0.5 - points[:, 1] / span) * cells).astype(int), 0, cells - 1)
    z = np.full(cells * cells, -np.inf)
    np.maximum.at(z, v * cells + u, points[:, 2])
    hit = np.isfinite(z)
    q = np.zeros(cells * cells, dtype=np.uint16)
    q[hit] = 1 + np.rint(np.clip(z[hit], 0.0, 100.0) * 655.0).astype(np.uint16)
    block = size // cells
    return np.kron(q.reshape(cells, cells), np.ones((block, block), dtype=np.uint16))


def feature_maps(
    out: Path, seed: int, n_ids: int, probes_each: int, dim: int, noise: float,
    size: int = 224, cells: int = 56,
) -> None:
    """Gallery and probe PGMs plus one FVEC per map, named by the SHA-256 of
    the PGM bytes. Features are a per-identity vector plus per-map noise."""
    model = make_toy_model()
    rng = np.random.default_rng(seed)
    dirs = {name: out / name for name in ("gallery_maps", "probe_maps", "features")}
    for d in dirs.values():
        d.mkdir(parents=True)

    def emit(points, identity, path):
        data = pgm_file_bytes(_depth_pgm(points, cells, size))
        path.write_bytes(data)
        feat = identity + noise * rng.normal(size=dim)
        write_fvec(feat, dirs["features"] / f"{hashlib.sha256(data).hexdigest()}.fvec")

    for i in range(n_ids):
        # only the map bytes matter here, so identities need no minimum gap
        alpha = rng.normal(size=model.ks)
        identity = rng.normal(size=dim)
        emit(face(model, alpha), identity, dirs["gallery_maps"] / f"id{i:03d}_a.pgm")
        for p in range(probes_each):
            pts = face(model, alpha, random_expression(rng, model.ke))
            emit(pts, identity, dirs["probe_maps"] / f"id{i:03d}_p{p}.pgm")
