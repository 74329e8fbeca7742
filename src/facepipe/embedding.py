"""Feature extraction behind a pluggable backend, plus feature post-processing.

A backend maps a normalized 224x224 depth map to a fixed-dimension vector.
The built-in baseline projects flattened maps onto an eigen-depth-map basis;
the external backend reads precomputed vectors keyed by the SHA-256 of the
exported PGM bytes, which is the interchange point for any offline feature
extractor. Both backends embed a PGM file (`embed(path)`) without building
a `DepthMap`: the baseline decodes it straight into its feature row, as
training does; the external one hashes its canonical bytes and takes its
dimension from the first feature looked up.
Post-processing follows the matching chain: signed square root, then PCA.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from facepipe.depthmap import pgm_depth, read_pgm
from facepipe.pointcloud import _whole_file

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


class FeatureLookupError(KeyError):
    """No stored feature for the requested map hash."""

    def __str__(self):  # KeyError's own __str__ would quote the message
        return Exception.__str__(self)


class FeatureFormatError(ValueError):
    """Feature file is malformed (bad magic or length)."""


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
        for arr in (mean, comps, var):
            arr.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "explained_variance", var)

    @property
    def k(self) -> int:
        return self.components.shape[0]


def _pca(x: np.ndarray, pick_k) -> PcaModel:
    """Top-k principal axes, k = pick_k(eigenvalues up to numerical rank, desc).

    `x` is a float64 matrix the caller owns; it is centred in place. Uses
    the Gram-matrix route when there are fewer samples than dimensions,
    which keeps flattened-image PCA tractable. Only the k kept components
    are mapped back to feature space and sign-fixed.
    """
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need at least two feature vectors")
    n, d = x.shape
    mean = x.mean(axis=0)
    xc = x
    xc -= mean  # in place: the same bits as x - mean
    gram = n <= d
    evals, evecs = np.linalg.eigh((xc @ xc.T if gram else xc.T @ xc) / (n - 1))
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    tol = max(evals[0], 0.0) * 1e-12
    rank = int(np.sum(evals > tol))
    if rank == 0:
        raise ValueError("degenerate input: all feature vectors identical")
    evals = np.maximum(evals[:rank], 0.0)
    k = pick_k(evals)
    if k > rank:
        raise ValueError(f"k={k} exceeds the numerical rank {rank} of the sample")
    if gram:
        # Map each Gram eigenvector back to feature space: xc.T @ v.
        comps = np.empty((k, d))
        for i in range(k):
            vec = xc.T @ evecs[:, i]
            comps[i] = vec / np.linalg.norm(vec)
    else:
        comps = evecs[:, :k].T.copy()

    # Deterministic sign: largest-magnitude entry of each component positive.
    for row in comps:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1
    return PcaModel(mean, comps, evals[:k])


def pca_fit(features, k: int) -> PcaModel:
    """Top-k principal axes of the sample covariance, deterministic signs."""
    return _pca_k(np.array(features, dtype=np.float64), k)


def _pca_k(x: np.ndarray, k: int) -> PcaModel:
    """`pca_fit` on a matrix the caller owns; `x` is centred in place."""
    n, d = x.shape
    if k < 1 or k > min(d, n - 1):
        raise ValueError(f"k={k} out of range for {n} samples of dimension {d}")
    return _pca(x, lambda evals: k)


def pca_fit_variance(features, variance_target: float, cap: int) -> PcaModel:
    """Smallest k whose cumulative explained variance reaches the target.

    k is additionally capped (typically at gallery size - 1) and by the
    sample's numerical rank.
    """
    return _pca_variance(np.array(features, dtype=np.float64), variance_target, cap)


def _pca_variance(x: np.ndarray, variance_target: float, cap: int) -> PcaModel:
    """`pca_fit_variance` on a matrix the caller owns; `x` is centred in place."""
    if not 0 < variance_target <= 1:
        raise ValueError("variance_target must be in (0, 1]")

    def pick_k(evals):
        cum = np.cumsum(evals) / evals.sum()
        return max(1, min(int(np.searchsorted(cum, variance_target)) + 1, cap, len(evals)))

    return _pca(x, pick_k)


def pca_transform(model: PcaModel, values: np.ndarray) -> np.ndarray:
    """Project (v - mean) onto the component rows; each row of a batch alone."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape[-1] != model.mean.shape[0]:
        raise ValueError(
            f"dimension {values.shape[-1]} does not match model dimension "
            f"{model.mean.shape[0]}"
        )
    return _project(model, values - model.mean)


def _project(model: PcaModel, centred: np.ndarray) -> np.ndarray:
    """Centred rows onto the component rows: one matrix-vector product per row.

    One gemm over the batch would sum in another order and change the bits.
    """
    return np.matmul(centred[..., None, :], model.components.T)[..., 0, :]


class BaselineBackend:
    """Eigen-depth-map embedder: flattens maps and projects onto a PCA basis."""

    def __init__(self, model: PcaModel, map_size: int):
        self._model = model
        self._map_size = map_size

    @property
    def model(self) -> PcaModel:
        return self._model

    def embed(self, path) -> np.ndarray:
        """Features of a PGM file, decoded straight to the feature row."""
        return pca_transform(self._model, _map_row(path, self._map_size))


def _map_row(path, size: int, out: np.ndarray | None = None) -> np.ndarray:
    """The flattened 0..255 depths of a size x size PGM, into `out` if given."""
    values, _ = read_pgm(path)
    if values.shape != (size, size):
        h, w = values.shape
        raise ValueError(f"{path}: expected {size}x{size} map, got {h}x{w}")
    return pgm_depth(values.reshape(-1), out=out)


def baseline_train(files, d: int, map_size: int = 224) -> BaselineBackend:
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
    return BaselineBackend(_pca_k(flat, d), map_size)


def feature_hash(path) -> str:
    """Lowercase hex SHA-256 of a PGM's canonical bytes; of a whole `export_pgm` file."""
    return hashlib.sha256(read_pgm(path)[1]).hexdigest()


def write_feature_file(values: np.ndarray, path) -> None:
    values = np.asarray(values, dtype=np.float64).reshape(-1)
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
    return np.frombuffer(raw, dtype="<f8", count=count, offset=13).copy()


class ExternalBackend:
    """Feature lookup from a directory of <sha256>.fvec files."""

    def __init__(self, directory):
        self._dir = Path(directory)
        if not self._dir.is_dir():
            raise FileNotFoundError(f"feature directory {self._dir} does not exist")
        self._dimension = None  # set by the first lookup

    @property
    def dimension(self) -> int | None:
        return self._dimension

    def embed(self, path) -> np.ndarray:
        """Features of a PGM file, keyed on `feature_hash(path)`; no map is decoded."""
        digest = feature_hash(path)
        feature = self._dir / f"{digest}.fvec"
        if not feature.exists():
            raise FeatureLookupError(f"{path}: no feature file for map hash {digest}")
        values = read_feature_file(feature)
        if self._dimension is None:
            self._dimension = values.shape[0]
        elif values.shape[0] != self._dimension:
            raise FeatureFormatError(
                f"{feature}: dimension {values.shape[0]} != backend dimension "
                f"{self._dimension}"
            )
        return values
