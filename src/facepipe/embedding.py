"""Feature extraction behind a pluggable backend, plus feature post-processing.

A backend maps a normalized 224x224 depth map to a fixed-dimension vector.
The built-in baseline projects flattened maps onto an eigen-depth-map basis;
the external backend reads precomputed vectors keyed by the SHA-256 of the
exported PGM bytes, which is the interchange point for any offline feature
extractor. Both backends embed a PGM file (`embed(path)`) from one `read_pgm`
and build no `DepthMap`: the baseline decodes the values into its feature
row, as training does; the external one hashes the header and the values in
place and returns the stored feature as it is read.
Post-processing follows the matching chain: signed square root, then PCA.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from facepipe.depthmap import _PGM_SCALE, _pgm_header, read_pgm
from facepipe.pointcloud import _set_read_only, _whole_file

__all__ = [
    "PcaModel",
    "BaselineBackend",
    "ExternalBackend",
    "FeatureLookupError",
    "FeatureFormatError",
    "sqrt_normalize",
    "pca_fit",
    "pca_fit_variance",
    "pca_transform",
    "baseline_train",
    "write_feature_file",
    "read_feature_file",
    "feature_hash",
]

_FVEC_MAGIC = b"FVEC1"
_BLOCK = 256  # back-map columns per gemv: an (n, 256) float64 copy stays in L2 for n in the hundreds
_BLAS_THREADS = threading.Lock()


class FeatureLookupError(LookupError):
    """No stored feature for the requested map hash."""


class FeatureFormatError(ValueError):
    """Feature file is malformed (bad magic or length, no values, or a non-finite value)."""


def sqrt_normalize(values: np.ndarray) -> np.ndarray:
    """Signed element-wise square root: x -> sign(x) * sqrt(|x|).

    Agrees with the plain square root on the non-negative features most
    extractors emit, and stays odd-symmetric for signed baselines.
    """
    values = np.asarray(values, dtype=np.float64)
    return np.sign(values) * np.sqrt(np.abs(values))


@dataclass(frozen=True)
class PcaModel:
    """Mean, orthonormal component rows, and per-component variance."""

    mean: np.ndarray
    components: np.ndarray  # (k, d), rows orthonormal
    explained_variance: np.ndarray  # (k,), non-increasing

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64).reshape(-1)
        comps = np.asarray(self.components, dtype=np.float64)
        var = np.asarray(self.explained_variance, dtype=np.float64).reshape(-1)
        if comps.ndim != 2 or comps.shape[1] != mean.shape[0]:
            raise ValueError("components must be (k, d) matching the mean")
        if var.shape[0] != comps.shape[0]:
            raise ValueError("one variance per component required")
        if np.any(np.diff(var) > 1e-12) or np.any(var < -1e-12):
            raise ValueError("explained_variance must be non-increasing and >= 0")
        _set_read_only(self, mean=mean, components=comps, explained_variance=var)

    @property
    def k(self) -> int:
        return self.components.shape[0]


def _row_products(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """`rows @ matrix.T` (a lone 1-D row gives a vector) into a new array of its own.

    One matrix-vector product per row, so each row's result is bitwise what that
    row gets alone: one gemm over the batch would sum in another order and change the bits.
    """
    out = np.empty(rows.shape[:-1] + matrix.shape[:1])
    np.matmul(rows[..., None, :], matrix.T, out=out[..., None, :])
    return out


@functools.cache
def _openblas_threads():
    """numpy's OpenBLAS thread-count getter and setter, or None under another BLAS."""
    try:
        with open("/proc/self/maps") as fh:
            lib = ctypes.CDLL(next(ln.split()[-1] for ln in fh if "libscipy_openblas64_" in ln))
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (OSError, StopIteration, AttributeError):
        return None
    get.argtypes, get.restype, put.argtypes, put.restype = [], ctypes.c_int, [ctypes.c_int], None
    return get, put


def _back_map(vectors: np.ndarray, xc: np.ndarray) -> np.ndarray:
    """`_row_products(vectors, xc.T)`, the same bytes, a contiguous copy of `_BLOCK` columns at
    a time, over T column spans on T threads (T: OpenBLAS's thread count, 1 meanwhile). OpenBLAS
    sums each part's last rows mod 4 in another order: blocks keep the bits if T = 1 or 4T | d."""
    blas, (n, d) = _openblas_threads(), xc.shape
    with _BLAS_THREADS:
        if blas is None or (threads := blas[0]()) > 1 and d % (4 * threads):
            return _row_products(vectors, xc.T)
        out, ends = np.empty((vectors.shape[0], d)), range(0, d + 1, d // threads)
        def span(lo: int, hi: int) -> None:  # block by block, each copied contiguous first
            buffer = np.empty(n * _BLOCK)
            for a in range(lo, hi, _BLOCK):
                block = buffer[: n * min(_BLOCK, hi - a)].reshape(n, -1)
                np.copyto(block, xc[:, a : a + block.shape[1]])
                np.matmul(vectors[:, None, :], block, out=out[:, None, a : a + block.shape[1]])
        blas[1](1)
        try:
            with ThreadPoolExecutor(max(threads - 1, 1)) as pool:
                spans = pool.map(span, ends[1:-1], ends[2:])
                span(0, ends[1])
                list(spans)  # a span's error raises here
        finally:
            blas[1](threads)
    return out


def _pca(xc: np.ndarray, pick_k) -> PcaModel:
    """Top-k principal axes, k = pick_k(eigenvalues up to numerical rank, desc).

    `xc` has passed `_owned_shape` and is centred in place. Uses the
    Gram-matrix route when there are fewer samples than dimensions, which
    keeps flattened-image PCA tractable. Only the k kept components are
    mapped back to feature space and sign-fixed.
    """
    n, d = xc.shape
    mean = xc.mean(axis=0)
    xc -= mean  # in place: the same bits as a centred copy
    gram = n <= d
    evals, evecs = np.linalg.eigh((xc @ xc.T if gram else xc.T @ xc) / (n - 1))
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    tol = max(evals[0], 0.0) * 1e-12
    rank = int(np.sum(evals > tol))
    if rank == 0:
        raise ValueError("degenerate input: all feature vectors identical")
    evals = evals[:rank]  # each above tol >= 0
    k = pick_k(evals)
    if k > rank:
        raise ValueError(f"k={k} exceeds the numerical rank {rank} of the sample")
    # Each Gram eigenvector v maps back to feature space as xc.T @ v, then to unit length.
    comps = _back_map(evecs[:, :k].T, xc) if gram else evecs[:, :k].T.copy()

    # Deterministic sign: largest-magnitude entry of each component positive.
    for row in comps:
        if gram:
            row /= np.linalg.norm(row)
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1
    return PcaModel(mean, comps, evals[:k])


def _owned_shape(x) -> tuple[int, int]:
    """Shape of a fit's input, once it is a writable float64 matrix of two or more non-empty rows."""
    if not isinstance(x, np.ndarray) or x.dtype != np.float64:
        got = getattr(x, "dtype", type(x).__name__)
        raise TypeError(f"PCA fits centre a float64 ndarray in place, got {got}")
    if not x.flags.writeable:
        raise ValueError("PCA fits centre their input in place, got a read-only array")
    if x.ndim != 2 or x.shape[0] < 2 or x.shape[1] < 1:
        raise ValueError("need at least two feature vectors, each of one or more values")
    return x.shape


def pca_fit(x: np.ndarray, k: int) -> PcaModel:
    """Top-k principal axes, deterministic signs, of a float64 (n, d) `x` it centres in place."""
    n, d = _owned_shape(x)
    if k < 1 or k > min(d, n - 1):
        raise ValueError(f"k={k} out of range for {n} samples of dimension {d}")
    return _pca(x, lambda evals: k)


def pca_fit_variance(x: np.ndarray, variance_target: float, cap: int) -> PcaModel:
    """Smallest k whose cumulative explained variance reaches the target.

    k is additionally capped (typically at gallery size - 1) and by the
    sample's numerical rank. Centres `x` in place, as `pca_fit` does.
    """
    if not 0 < variance_target <= 1:
        raise ValueError("variance_target must be in (0, 1]")
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    _owned_shape(x)

    def pick_k(evals):
        cum = np.cumsum(evals) / evals.sum()
        return min(int(np.searchsorted(cum, variance_target)) + 1, cap, len(evals))

    return _pca(x, pick_k)


def pca_transform(model: PcaModel, centred: np.ndarray) -> np.ndarray:
    """Rows already centred on `model.mean` onto the component rows, each row on its own."""
    centred = np.asarray(centred, dtype=np.float64)
    d = model.mean.shape[0]
    if centred.shape[-1] != d:
        raise ValueError(f"dimension {centred.shape[-1]} does not match model dimension {d}")
    return _row_products(centred, model.components)


@dataclass(frozen=True)
class BaselineBackend:
    """Eigen-depth-map embedder: flattens maps and projects onto a PCA basis."""

    model: PcaModel
    map_size: int

    def embed(self, path) -> np.ndarray:
        """Features of a PGM file, decoded straight to the feature row."""
        row = _map_row(path, self.map_size)
        row -= self.model.mean  # a fresh row: the same bits as row - mean
        return pca_transform(self.model, row)


def _map_row(path, size: int, out: np.ndarray | None = None) -> np.ndarray:
    """The flattened 0..255 depths of a size x size PGM, into `out` if given."""
    values = read_pgm(path)
    if values.shape != (size, size):
        h, w = values.shape
        raise ValueError(f"{path}: expected {size}x{size} map, got {h}x{w}")
    return np.divide(values.reshape(-1), _PGM_SCALE, out=out)


def baseline_train(files, d: int, map_size: int) -> BaselineBackend:
    """Fit the eigen-depth-map basis on the maps of the training PGM files.

    Each file is decoded straight into its row of one (n, map_size**2)
    matrix, which the PCA then centres in place; no map is kept.
    """
    files = list(files)
    if len(files) < d + 1:
        raise ValueError(f"need at least {d + 1} training maps for d={d}, got {len(files)}")
    flat = np.empty((len(files), map_size * map_size))
    for row, path in zip(flat, files):
        _map_row(path, map_size, out=row)
    return BaselineBackend(pca_fit(flat, d), map_size)


def feature_hash(path) -> str:
    """Lowercase hex SHA-256 of a PGM's canonical bytes; of a whole `export_pgm` file."""
    values = read_pgm(path)  # hashed in place: the view's buffer is the file's body bytes
    digest = hashlib.sha256(_pgm_header(values.shape[1], values.shape[0]))
    digest.update(values)
    return digest.hexdigest()


def _feature_values(values: np.ndarray, path) -> np.ndarray:
    """`values`, if a feature file may hold them: at least one, each finite."""
    if values.size == 0:
        raise FeatureFormatError(f"{path}: no feature values")
    if not np.isfinite(values).all():
        raise FeatureFormatError(f"{path}: non-finite feature value")
    return values


def write_feature_file(values: np.ndarray, path) -> None:
    values = _feature_values(np.asarray(values, dtype=np.float64).reshape(-1), path)
    with _whole_file(path) as fh:
        fh.write(_FVEC_MAGIC)
        fh.write(struct.pack("<Q", values.shape[0]))
        fh.write(values.astype("<f8").tobytes())


def read_feature_file(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:5] != _FVEC_MAGIC:
        raise FeatureFormatError(f"{path}: bad magic, expected {_FVEC_MAGIC!r}")
    if len(raw) < 13:
        raise FeatureFormatError(f"{path}: truncated header")
    (count,) = struct.unpack_from("<Q", raw, 5)
    if len(raw) != 13 + 8 * count:
        raise FeatureFormatError(
            f"{path}: expected {13 + 8 * count} bytes for {count} values, "
            f"found {len(raw)}"
        )
    return _feature_values(np.frombuffer(raw, dtype="<f8", count=count, offset=13), path)


@dataclass(frozen=True)
class ExternalBackend:
    """Feature lookup from a directory of <sha256>.fvec files."""

    directory: Path

    def __post_init__(self):
        object.__setattr__(self, "directory", Path(self.directory))
        if not self.directory.is_dir():
            raise FileNotFoundError(f"feature directory {self.directory} does not exist")

    def embed(self, path) -> np.ndarray:
        """Features of a PGM file, keyed on `feature_hash(path)`; no map is decoded."""
        digest = feature_hash(path)
        try:
            return read_feature_file(self.directory / f"{digest}.fvec")
        except FileNotFoundError:
            raise FeatureLookupError(f"{path}: no feature file for map hash {digest}") from None
