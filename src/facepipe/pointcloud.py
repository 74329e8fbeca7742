"""Core 3D point-set type, PLY I/O, rigid transforms, and neighbor queries."""

from __future__ import annotations

import json
import os
import secrets
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "PointCloud",
    "RigidTransform",
    "NeighborIndex",
    "WarmNeighbors",
    "PlyParseError",
    "EmptyCropError",
    "load_ply",
    "save_ply",
    "apply_transform",
    "crop_sphere",
    "rotation_zyx",
]

# Orthonormality / unit-determinant tolerance for rotation matrices.
_ROTATION_TOL = 1e-6


class PlyParseError(ValueError):
    """Malformed PLY file; message carries the offending line or byte offset."""


class EmptyCropError(ValueError):
    """Spherical crop retained no points (typically a bad nose-tip estimate)."""


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must have shape (n, 3), got {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("points contain NaN or Inf coordinates")
    return pts


@dataclass(frozen=True)
class PointCloud:
    """Unordered set of 3D points in millimeters, with optional named landmarks.

    Arrays are read-only after construction; operations return new clouds.
    """

    points: np.ndarray
    landmarks: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        pts = _as_points(self.points)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        lms = {}
        for name, p in self.landmarks.items():
            p = np.asarray(p, dtype=np.float64).reshape(3)
            if not np.isfinite(p).all():
                raise ValueError(f"landmark {name!r} has non-finite coordinates")
            p.setflags(write=False)
            lms[name] = p
        object.__setattr__(self, "landmarks", lms)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class RigidTransform:
    """Rotation (3x3) plus translation (mm); maps p to rotation @ p + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if np.abs(r.T @ r - np.eye(3)).max() > _ROTATION_TOL:
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > _ROTATION_TOL:
            raise ValueError("rotation determinant is not +1")
        r.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def procrustes(cls, source: np.ndarray, target: np.ndarray) -> "RigidTransform":
        """Least-squares rigid transform mapping source points onto target points.

        Closed-form SVD solve (Umeyama 1991) with the reflection case
        folded into a proper rotation.
        """
        mu_s = source.mean(axis=0)
        mu_t = target.mean(axis=0)
        h = (source - mu_s).T @ (target - mu_t)
        u, _, vt = np.linalg.svd(h)
        d = np.sign(np.linalg.det(vt.T @ u.T))
        rot = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
        return cls(rot, mu_t - rot @ mu_s)

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.rotation.T + self.translation

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """Transform equivalent to applying `other` first, then `self`."""
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )


def rotation_zyx(theta_x: float, theta_y: float, theta_z: float) -> np.ndarray:
    """Rotation matrix Rz(theta_z) @ Ry(theta_y) @ Rx(theta_x), angles in degrees.

    Right-handed, y-up convention shared by the whole pipeline.
    """
    theta_x, theta_y, theta_z = np.deg2rad([theta_x, theta_y, theta_z])
    cx, sx = np.cos(theta_x), np.sin(theta_x)
    cy, sy = np.cos(theta_y), np.sin(theta_y)
    cz, sz = np.cos(theta_z), np.sin(theta_z)
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return rz @ ry @ rx


class NeighborIndex:
    """Read-only nearest-neighbor index over a fixed point list.

    Exact ties are broken toward the lowest point index, matching a
    linear argmin scan over squared distances.
    """

    def __init__(self, points: np.ndarray):
        self._points = _as_points(points)
        if len(self._points) == 0:
            raise ValueError("cannot index an empty point list")
        # imported here, so that only the commands that build an index pay for it
        from scipy.spatial import cKDTree

        self._tree = cKDTree(self._points)
        self._resolution = None

    @property
    def points(self) -> np.ndarray:
        return self._points

    @property
    def sampling_resolution(self) -> float:
        """Median distance from each stored point to its nearest other point."""
        if self._resolution is None:
            if len(self._points) < 2:
                self._resolution = 0.0
            else:
                dist, _ = self._tree.query(self._points, k=2)
                self._resolution = float(np.median(dist[:, 1]))
        return self._resolution

    def query_many(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Nearest stored point of each row, settled row by row; (distances, indices)."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return self._nearest_two(pts)[:2]

    def _nearest_two(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """query_many's answer, and each row's distance to its second-nearest stored point."""
        # with one stored point the second neighbour is at infinity, so never tied
        dist, idx = self._tree.query(pts, k=2)
        best_d, best_i = dist[:, 0].copy(), idx[:, 0].astype(np.intp)
        for row in np.flatnonzero(dist[:, 0] == dist[:, 1]):
            p = pts[row]
            # Inflate slightly so kd-tree rounding cannot exclude a tied point.
            candidates = self._tree.query_ball_point(p, best_d[row] * (1.0 + 1e-9))
            candidates = np.sort(np.asarray(candidates, dtype=np.intp))
            sq = np.sum((self._points[candidates] - p) ** 2, axis=1)
            best_i[row] = candidates[np.argmin(sq)]
        return best_d, best_i, dist[:, 1]


def _lengths(v: np.ndarray) -> np.ndarray:
    """Euclidean length of each row of an (n, 3) array, summed in cKDTree's order."""
    return np.sqrt((v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1]) + v[:, 2] * v[:, 2])


class WarmNeighbors:
    """`index.query_many` for rows that move by small steps between calls.

    Each answer equals `index.query_many(points)` bit for bit, but a row asks
    the tree only when a bound cannot prove that its last nearest point is
    still its unique nearest. The bound is the triangle inequality: a row
    whose second-nearest stored point was at distance L at its last tree
    query, and which has moved a total of D since, is farther than L - D from
    every stored point but its nearest. If its distance d to that point is
    below L - D, with a relative margin far above rounding, nothing ties it,
    so the tree and the tie rule would return exactly that point and d; d is
    summed as cKDTree sums it. Every other row, and every row after the row
    count changes, goes through the tree. The state belongs to one sequence
    of calls: make one per loop, never share one between threads.
    """

    # relative slack on L; the rounding in d, D and L adds up to about 1e-16 of L
    # per call, so the bound stays sound for millions of calls
    _MARGIN = 1e-9

    def __init__(self, index: NeighborIndex):
        self._index = index
        self._rows = None  # the rows of the last call

    def query_many(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Nearest stored point of each row; (distances, indices) as `index.query_many`."""
        pts = np.array(np.atleast_2d(points), dtype=np.float64)
        if self._rows is not None and self._rows.shape == pts.shape:
            self._moved += _lengths(pts - self._rows)
            dist = _lengths(pts - self._index.points[self._nearest])
            fresh = np.flatnonzero(~(dist + self._moved < self._bound))
        else:
            n = len(pts)
            dist, self._nearest = np.empty(n), np.empty(n, dtype=np.intp)
            self._bound, self._moved = np.empty(n), np.empty(n)
            fresh = np.arange(n)
        if fresh.size:
            dist[fresh], self._nearest[fresh], second = self._index._nearest_two(pts[fresh])
            self._bound[fresh] = second * (1.0 - self._MARGIN)
            self._moved[fresh] = 0.0
        self._rows = pts
        return dist, self._nearest.copy()


def apply_transform(cloud: PointCloud, transform: RigidTransform) -> PointCloud:
    """Rigidly move every point and landmark: p -> R @ p + t."""
    return PointCloud(
        transform.apply(cloud.points),
        {name: transform.apply(p.reshape(1, 3))[0] for name, p in cloud.landmarks.items()},
    )


def crop_sphere(cloud: PointCloud, center, radius: float) -> PointCloud:
    """Keep points with ||p - center|| <= radius (boundary inclusive), order preserved."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    center = np.asarray(center, dtype=np.float64).reshape(3)
    keep = np.linalg.norm(cloud.points - center, axis=1) <= radius
    if not keep.any():
        raise EmptyCropError(
            f"no points within {radius} mm of {center.tolist()}; "
            "check the nose-tip estimate"
        )
    return PointCloud(cloud.points[keep], dict(cloud.landmarks))


# ---------------------------------------------------------------------------
# PLY I/O. Reads ASCII and binary_little_endian, writes binary_little_endian
# float32; vertex x/y/z properties required, unknown scalar vertex
# properties ignored, vertex list properties rejected. Landmarks travel in a
# JSON sidecar ("<stem>.landmarks.json") so the PLY itself stays standard.
# ---------------------------------------------------------------------------

# PLY scalar type name -> little-endian numpy dtype.
_PLY_DTYPES = {
    "char": "<i1", "int8": "<i1", "uchar": "<u1", "uint8": "<u1",
    "short": "<i2", "int16": "<i2", "ushort": "<u2", "uint16": "<u2",
    "int": "<i4", "int32": "<i4", "uint": "<u4", "uint32": "<u4",
    "float": "<f4", "float32": "<f4", "double": "<f8", "float64": "<f8",
}


@contextmanager
def _whole_file(path, mode: str = "wb", **open_args):
    """Open a file that appears at `path` whole or not at all.

    The writes go to a new temporary in the same directory, which replaces
    `path` when the block ends cleanly and is removed when it raises. It is
    created as `open(path, mode)` creates a file, so with the same permissions.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        fh = open(tmp, mode.replace("w", "x"), **open_args)
    except OSError as exc:  # name the file asked for, not the temporary
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _landmark_sidecar(path: Path) -> Path:
    return path.with_name(path.stem + ".landmarks.json")


def load_ply(path) -> PointCloud:
    """Read an ASCII or binary_little_endian PLY with float x,y,z vertex properties."""
    path = Path(path)
    raw = path.read_bytes()

    # --- header ---
    lines = []
    offset = 0
    line_no = 0
    while True:
        end = raw.find(b"\n", offset)
        if end < 0:
            raise PlyParseError(f"{path}: header not terminated (line {line_no + 1})")
        line = raw[offset:end].rstrip(b"\r").decode("ascii", errors="replace")
        offset = end + 1
        line_no += 1
        lines.append(line)
        if line == "end_header":
            break
        if line_no > 500:
            raise PlyParseError(f"{path}: runaway header (line {line_no})")
    if not lines or lines[0] != "ply":
        raise PlyParseError(f"{path}: missing 'ply' magic (line 1)")

    fmt = None
    elements = []  # (name, count, [(prop_type, prop_name) or ("list", ...)])
    for i, line in enumerate(lines[1:-1], start=2):
        tok = line.split()
        if not tok or tok[0] == "comment":
            continue
        if tok[0] == "format":
            if len(tok) < 2 or tok[1] not in ("ascii", "binary_little_endian"):
                raise PlyParseError(f"{path}: unsupported format {line!r} (line {i})")
            fmt = tok[1]
        elif tok[0] == "element":
            if len(tok) != 3 or not tok[2].isdigit():
                raise PlyParseError(f"{path}: bad element declaration {line!r} (line {i})")
            elements.append((tok[1], int(tok[2]), []))
        elif tok[0] == "property":
            if not elements:
                raise PlyParseError(f"{path}: property before any element (line {i})")
            if tok[1:2] == ["list"]:
                elements[-1][2].append(("list",) + tuple(tok[2:]))
            elif len(tok) == 3 and tok[1] in _PLY_DTYPES:
                elements[-1][2].append((tok[1], tok[2]))
            else:
                raise PlyParseError(f"{path}: bad property {line!r} (line {i})")
    if fmt is None:
        raise PlyParseError(f"{path}: header has no format line")

    vert_pos = next((k for k, e in enumerate(elements) if e[0] == "vertex"), None)
    if vert_pos is None:
        raise PlyParseError(f"{path}: no vertex element in header")
    _, n_vertices, props = elements[vert_pos]
    if n_vertices == 0:
        raise PlyParseError(f"{path}: vertex element declares zero vertices")
    if any(p[0] == "list" for p in props):
        raise PlyParseError(f"{path}: list properties on vertices are unsupported")
    prop_names = [p[1] for p in props]
    try:
        xyz_cols = [prop_names.index(c) for c in ("x", "y", "z")]
    except ValueError:
        raise PlyParseError(f"{path}: vertex element lacks x/y/z properties") from None

    if fmt == "ascii":
        body = raw[offset:].decode("ascii", errors="replace").splitlines()
        # one line per entry; skip elements declared before vertex
        skip = sum(e[1] for e in elements[:vert_pos])
        data_lines = [l for l in body if l.strip()]
        if len(data_lines) < skip + n_vertices:
            bad_line = line_no + len(data_lines) + 1
            raise PlyParseError(
                f"{path}: truncated body, expected {skip + n_vertices} data lines, "
                f"got {len(data_lines)} (line {bad_line})"
            )
        rows = [l.split() for l in data_lines[skip:skip + n_vertices]]
        try:
            values = [float(tok[c]) for tok in rows for c in xyz_cols]
        except (ValueError, IndexError):
            values = None
        if values is None or min(map(len, rows)) < len(props):
            # Only after a failed pass: find the first bad row, in file order.
            for r, tok in enumerate(rows):
                where = f"(line {line_no + skip + r + 1})"
                if len(tok) < len(props):
                    raise PlyParseError(
                        f"{path}: vertex row has {len(tok)} values, expected "
                        f"{len(props)} {where}"
                    )
                try:
                    [float(tok[c]) for c in xyz_cols]
                except ValueError:
                    raise PlyParseError(f"{path}: non-numeric coordinate {where}") from None
        pts = np.array(values, dtype=np.float64).reshape(n_vertices, 3)
        # Narrow each "property float" column so it holds exact float32 values
        # in memory; past float32 range it reads as inf, rejected below.
        narrow = [props[c][0] in ("float", "float32") for c in xyz_cols]
        with np.errstate(over="ignore"):
            pts[:, narrow] = pts[:, narrow].astype(np.float32)
    else:
        if vert_pos != 0:
            raise PlyParseError(
                f"{path}: binary files must declare the vertex element first"
            )
        # packed record; fields are named by position since names may repeat
        record = np.dtype([(f"f{k}", _PLY_DTYPES[p[0]]) for k, p in enumerate(props)])
        need = record.itemsize * n_vertices
        if len(raw) - offset < need:
            raise PlyParseError(
                f"{path}: truncated body, need {need} bytes of vertex data, "
                f"have {len(raw) - offset} (byte {offset})"
            )
        rows = np.frombuffer(raw, dtype=record, count=n_vertices, offset=offset)
        pts = np.column_stack([rows[f"f{c}"] for c in xyz_cols]).astype(np.float64)
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if bad.size:
        where = (
            f"line {line_no + skip + bad[0] + 1}" if fmt == "ascii"
            else f"byte {offset + bad[0] * record.itemsize}"
        )
        raise PlyParseError(f"{path}: non-finite coordinate ({where})")

    landmarks = {}
    sidecar = _landmark_sidecar(path)
    if sidecar.exists():
        landmarks = {k: np.asarray(v, dtype=np.float64)
                     for k, v in json.loads(sidecar.read_text()).items()}
    return PointCloud(pts, landmarks)


def save_ply(cloud: PointCloud, path) -> None:
    """Write a binary little-endian PLY (float32 x,y,z) and its landmark sidecar."""
    path = Path(path)
    header = (
        "ply\nformat binary_little_endian 1.0\n"
        f"element vertex {len(cloud)}\n"
        "property float x\nproperty float y\nproperty float z\nend_header\n"
    )
    sidecar = _landmark_sidecar(path)
    # the sidecar is settled while the new cloud is still a temporary, so a
    # failure on either leaves the older pair as it was
    with _whole_file(path) as fh:
        fh.write(header.encode("ascii"))
        fh.write(cloud.points.astype("<f4"))
        if cloud.landmarks:
            payload = {k: [float(x) for x in v] for k, v in sorted(cloud.landmarks.items())}
            with _whole_file(sidecar, "w") as side:
                side.write(json.dumps(payload, sort_keys=True, indent=1))
        else:  # a stale sidecar would hand its landmarks to this cloud
            sidecar.unlink(missing_ok=True)
