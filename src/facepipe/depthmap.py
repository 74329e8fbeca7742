"""Orthographic depth-map rendering, filtering, normalization, and PGM export."""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from facepipe.pointcloud import PointCloud

__all__ = [
    "DepthMap",
    "RenderParams",
    "EmptyRenderError",
    "bilinear_weights",
    "render_depth",
    "render_pipeline",
    "median_filter",
    "normalize",
    "resize",
    "export_pgm",
    "pgm_bytes",
    "read_pgm",
    "pgm_depth",
    "load_pgm",
]


class EmptyRenderError(ValueError):
    """No point of the cloud projected onto the canvas."""


def bilinear_weights(u: np.ndarray, v: np.ndarray, size: int):
    """Corner pixels and weights for continuous positions inside the canvas.

    Returns (rows, cols, weights), each (n, 4), corner order
    top-left, top-right, bottom-left, bottom-right; weights sum to 1.
    """
    # Anchor at size-2 so u == size-1 still addresses an in-canvas 2x2 block.
    u0 = np.minimum(np.floor(u).astype(np.intp), size - 2)
    v0 = np.minimum(np.floor(v).astype(np.intp), size - 2)
    fu = u - u0
    fv = v - v0
    weights = np.stack(
        [(1 - fu) * (1 - fv), fu * (1 - fv), (1 - fu) * fv, fu * fv], axis=1
    )
    cols = np.stack([u0, u0 + 1, u0, u0 + 1], axis=1)
    rows = np.stack([v0, v0, v0 + 1, v0 + 1], axis=1)
    return rows, cols, weights


@dataclass(frozen=True)
class DepthMap:
    """Grid of depth values (mm, or 0..255 after normalize) with a validity mask.

    depth and valid are (height, width) arrays; pixels that received no
    splat contribution are invalid and carry depth 0.
    """

    depth: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        depth = np.asarray(self.depth, dtype=np.float64)
        valid = np.asarray(self.valid, dtype=bool)
        if depth.ndim != 2 or depth.shape != valid.shape:
            raise ValueError("depth and valid must be matching 2-D arrays")
        if depth.shape[0] < 1 or depth.shape[1] < 1:
            raise ValueError("map must have positive size")
        if not np.isfinite(depth[valid]).all():
            raise ValueError("valid pixels must be finite")
        if np.any(depth[~valid] != 0.0):
            raise ValueError("invalid pixels must carry depth 0")
        depth.setflags(write=False)
        valid.setflags(write=False)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "valid", valid)

    @property
    def height(self) -> int:
        return self.depth.shape[0]

    @property
    def width(self) -> int:
        return self.depth.shape[1]


@dataclass(frozen=True)
class RenderParams:
    crop_radius: float = 100.0  # mm; also sets the pixels-per-mm scale
    output_size: int = 200
    final_size: int = 224
    median_kernel: int = 3
    fixed_depth_range: tuple[float, float] | None = None  # None: per-image min/max

    def __post_init__(self):
        if self.crop_radius <= 0:
            raise ValueError("crop_radius must be positive")
        if self.output_size < 2:
            raise ValueError("output_size must be >= 2")
        if self.final_size < 2:
            raise ValueError("final_size must be >= 2")
        if self.median_kernel < 3 or self.median_kernel % 2 == 0:
            raise ValueError("median_kernel must be odd and >= 3")
        if self.fixed_depth_range is not None:
            lo, hi = map(float, self.fixed_depth_range)
            if not (np.isfinite([lo, hi]).all() and lo < hi):
                raise ValueError(f"fixed_depth_range must be finite with low < high, got {[lo, hi]}")
            object.__setattr__(self, "fixed_depth_range", (lo, hi))


def render_depth(cloud: PointCloud, params: RenderParams = RenderParams()) -> DepthMap:
    """Orthographic splat of (x, y, z) points onto a square depth image.

    A point maps to the continuous pixel (u, v) = (s*x + W/2, -s*y + H/2)
    with s = output_size / crop_radius; its z value is spread over the four
    surrounding pixels with bilinear weights and each pixel stores the
    weighted mean of its contributions. Points projecting outside the
    canvas are discarded; accumulation follows cloud order.
    """
    size = params.output_size
    scale = size / params.crop_radius
    u = scale * cloud.points[:, 0] + size / 2.0
    v = -scale * cloud.points[:, 1] + size / 2.0
    z = cloud.points[:, 2]

    inside = (u >= 0) & (u <= size - 1) & (v >= 0) & (v <= size - 1)
    if not inside.any():
        raise EmptyRenderError("no point projects onto the canvas")
    u, v, z = u[inside], v[inside], z[inside]
    rows, cols, weights = bilinear_weights(u, v, size)

    flat = rows.ravel() * size + cols.ravel()  # per point, its 4 corners in order
    weight_sum = np.bincount(flat, weights.ravel(), size * size).reshape(size, size)
    value_sum = np.bincount(flat, (weights * z[:, None]).ravel(), size * size).reshape(size, size)

    valid = weight_sum > 0
    depth = np.divide(value_sum, weight_sum, out=np.zeros((size, size)), where=valid)
    return DepthMap(depth, valid)


def median_filter(dmap: DepthMap, kernel: int = 3) -> DepthMap:
    """Replace each valid pixel by the median of the valid pixels in its window.

    Invalid neighbors are excluded; the validity mask is unchanged. An even
    count of valid pixels takes the mean of the middle two, as np.nanmedian.
    """
    if kernel < 3 or kernel % 2 == 0:
        raise ValueError("kernel must be odd and >= 3")
    pad = kernel // 2
    width = dmap.width + 2 * pad
    # +inf on the border and on invalid pixels sorts after every valid depth.
    padded = np.full((dmap.height + 2 * pad, width), np.inf)
    np.copyto(padded[pad:-pad, pad:-pad], dmap.depth, where=dmap.valid)
    # one row per valid center: the values of its window, sorted
    span = np.arange(-pad, pad + 1)
    offsets = (span[:, None] * width + span).ravel()
    windows = padded.ravel()[np.flatnonzero(np.pad(dmap.valid, pad))[:, None] + offsets]
    windows.sort(axis=1)
    count = np.count_nonzero(windows < np.inf, axis=1)  # >= 1: the center is valid
    flat, start = windows.ravel(), np.arange(0, windows.size, kernel * kernel)
    depth = np.zeros((dmap.height, dmap.width))
    depth[dmap.valid] = (flat[start + (count - 1) // 2] + flat[start + count // 2]) / 2
    return DepthMap(depth, dmap.valid)


def normalize(dmap: DepthMap, window: tuple[float, float] | None = None) -> DepthMap:
    """Linearly rescale valid depths to 0..255; invalid pixels stay 0.

    By default the window is the per-image min/max; pass an explicit
    (lo, hi) window for cross-image comparability. A degenerate window
    maps everything to 128.
    """
    if not dmap.valid.any():
        raise ValueError("cannot normalize a map with no valid pixels")
    if window is None:
        lo, hi = float(dmap.depth[dmap.valid].min()), float(dmap.depth[dmap.valid].max())
    else:
        lo, hi = float(window[0]), float(window[1])
    if hi <= lo:
        depth = np.where(dmap.valid, 128.0, 0.0)
    else:
        scaled = (dmap.depth - lo) * (255.0 / (hi - lo))
        depth = np.where(dmap.valid, np.clip(scaled, 0.0, 255.0), 0.0)
    return DepthMap(depth, dmap.valid)


def resize(dmap: DepthMap, target: int) -> DepthMap:
    """Bilinear resample to target x target under the align-corners convention."""
    if target < 2:
        raise ValueError("target must be >= 2")
    if target == dmap.height and target == dmap.width:
        return dmap

    src_y = np.arange(target) * (dmap.height - 1) / (target - 1)
    src_x = np.arange(target) * (dmap.width - 1) / (target - 1)
    y0 = np.minimum(src_y.astype(np.intp), dmap.height - 2)
    x0 = np.minimum(src_x.astype(np.intp), dmap.width - 2)
    fy = (src_y - y0)[:, None]
    fx = src_x - x0
    gy, gx = 1 - fy, 1 - fx

    def sample(grid):
        # g00*(1-fy)*(1-fx) + g01*(1-fy)*fx + g10*fy*(1-fx) + g11*fy*fx in this
        # order; rows are weighted before their columns are gathered.
        top = grid[y0] * gy
        bot = grid[y0 + 1] * fy
        out = top[:, x0] * gx
        out += top[:, x0 + 1] * fx
        out += bot[:, x0] * gx
        out += bot[:, x0 + 1] * fx
        return out

    valid = sample(dmap.valid) >= 0.5  # a bool grid weights as 0.0 and 1.0
    return DepthMap(np.where(valid, sample(dmap.depth), 0.0), valid)


def render_pipeline(cloud: PointCloud, params: RenderParams = RenderParams()) -> DepthMap:
    """Render, median-filter, normalize, and resize one aligned cloud."""
    dmap = render_depth(cloud, params)
    dmap = median_filter(dmap, params.median_kernel)
    dmap = normalize(dmap, params.fixed_depth_range)
    return resize(dmap, params.final_size)


def pgm_bytes(dmap: DepthMap) -> bytes:
    """Serialize as a 16-bit big-endian binary PGM; values are round(depth*257).

    The map must be normalized (depths within 0..255).
    """
    # tolerance absorbs one-ulp overshoot from bilinear resampling
    if dmap.depth.min() < -1e-6 or dmap.depth.max() > 255.0 + 1e-6:
        raise ValueError("map is not normalized to 0..255; call normalize() first")
    values = np.rint(np.clip(dmap.depth, 0.0, 255.0) * 257.0).astype(">u2")
    return _pgm_header(dmap.width, dmap.height) + values.tobytes()


def _pgm_header(width: int, height: int) -> bytes:
    """The canonical header `pgm_bytes` writes and `read_pgm` rebuilds."""
    return f"P5\n{width} {height}\n65535\n".encode("ascii")


def export_pgm(dmap: DepthMap, path) -> None:
    Path(path).write_bytes(pgm_bytes(dmap))


# Netpbm header: "P5", then width, height and maxval as ASCII-digit tokens.
# Whitespace and "#" comments (to the end of the line) separate the tokens;
# exactly one whitespace byte, or one comment with its line end, follows maxval.
_PGM_SEP = rb"(?:[ \t\n\r\x0b\x0c]|#[^\r\n]*[\r\n])"
_PGM_HEADER = re.compile(
    rb"P5%s+([0-9]+)%s+([0-9]+)%s+([0-9]+)%s" % ((_PGM_SEP,) * 4)
)


def read_pgm(path) -> tuple[np.ndarray, bytes]:
    """Parse a 16-bit binary PGM into its (height, width) values and canonical bytes.

    The canonical bytes are the header rebuilt as `P5\\n{w} {h}\\n65535\\n`
    followed by the first 2*w*h body bytes, which is exactly what
    `pgm_bytes` writes; the values are a big-endian uint16 view of them.
    """
    raw = Path(path).read_bytes()
    if raw[:2] != b"P5":
        raise ValueError(f"{path}: not a binary PGM")
    header = _PGM_HEADER.match(raw)
    if header is None:
        raise ValueError(f"{path}: malformed PGM header")
    try:
        width, height, maxval = (int(token) for token in header.groups())
    except ValueError:  # a token longer than int() converts
        raise ValueError(f"{path}: malformed PGM header") from None
    if width <= 0 or height <= 0:
        raise ValueError(f"{path}: malformed PGM header")
    if maxval != 65535:
        raise ValueError(f"{path}: expected 16-bit PGM, maxval {maxval}")
    count = width * height
    body = header.end()
    if len(raw) - body < 2 * count:
        raise ValueError(f"{path}: truncated PGM body")
    canonical = _pgm_header(width, height)
    data = canonical + raw[body : body + 2 * count]
    values = np.frombuffer(data, dtype=">u2", count=count, offset=len(canonical))
    return values.reshape(height, width), data


def pgm_depth(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Decode PGM values to 0..255 depths (value / 257), into `out` if given."""
    return np.divide(values, 257.0, out=out)


def load_pgm(path) -> DepthMap:
    """Read a 16-bit binary PGM back into a 0..255-scaled map.

    Zero-valued pixels are treated as invalid, matching the export of
    normalized maps where invalid pixels carry 0.
    """
    depth = pgm_depth(read_pgm(path)[0])
    return DepthMap(depth, depth != 0)
