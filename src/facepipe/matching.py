"""Cosine-distance identification against a gallery, plus CMC/ROC metrics."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from facepipe.embedding import _row_products

__all__ = [
    "Gallery",
    "IdentityDistances",
    "ZeroNormError",
    "MatchAccountingError",
    "identify",
    "cmc",
    "roc",
]


class ZeroNormError(ValueError):
    """Cosine distance is undefined for a zero-norm feature vector."""


class MatchAccountingError(ValueError):
    """A probe's true identity is missing from the gallery."""


class IdentityDistances(NamedTuple):
    """values[p, s]: probe p's distance to its nearest gallery entry of subjects[s]."""

    subjects: tuple[str, ...]  # in order of first appearance in the gallery
    values: np.ndarray  # (P, S)

    def own(self, true_ids) -> np.ndarray:
        """(P, S) mask of each probe's own identity; an absent one raises, by name."""
        absent = sorted(set(true_ids) - set(self.subjects))
        if absent:
            raise MatchAccountingError(f"true id {absent[0]!r} absent from gallery")
        return np.array(self.subjects) == np.array(true_ids)[:, None]


class Gallery:
    """Enrolled (subject_id, feature) pairs; immutable after construction."""

    def __init__(self, entries):
        entries = list(entries)
        if not entries:
            raise ValueError("gallery needs at least one entry")
        self.subject_ids = tuple(str(sid) for sid, _ in entries)
        feats = np.stack([np.asarray(f, dtype=np.float64).reshape(-1) for _, f in entries])
        norms = np.linalg.norm(feats, axis=1)
        if np.any(norms == 0):
            raise ZeroNormError("gallery contains a zero-norm feature")
        feats.setflags(write=False)
        self.features = feats
        self._norms = norms

    def distances(self, probes: np.ndarray) -> np.ndarray:
        """(P, G) cosine distances of a (P, d) batch of probes, in gallery order."""
        probes = np.asarray(probes, dtype=np.float64)
        d = self.features.shape[1]
        if probes.ndim != 2 or probes.shape[1] != d:
            raise ValueError(f"probes {probes.shape}, not (P, {d}): {d} is the gallery dimension")
        norms = np.sqrt(np.matmul(probes[:, None, :], probes[:, :, None])[:, 0, 0])
        if np.any(norms == 0):
            raise ZeroNormError("probe feature has zero norm")
        sims = _row_products(probes, self.features) / np.outer(norms, self._norms)
        return 1.0 - np.clip(sims, -1.0, 1.0)

    def identity_distances(self, probes: np.ndarray) -> IdentityDistances:
        """Per-identity minimum of distances() for a (P, d) batch of probes."""
        dist = self.distances(probes)
        subjects = tuple(dict.fromkeys(self.subject_ids))
        owner = np.array(self.subject_ids)
        values = np.column_stack([dist[:, owner == sid].min(axis=1) for sid in subjects])
        return IdentityDistances(subjects, values)


def identify(probe: np.ndarray, gallery: Gallery) -> list[tuple[str, float]]:
    """All gallery entries sorted by ascending distance; ties keep gallery order."""
    dist = gallery.distances(np.asarray(probe)[None])[0]
    order = np.argsort(dist, kind="stable")
    return [(gallery.subject_ids[i], float(dist[i])) for i in order]


def cmc(scores: IdentityDistances, true_ids) -> np.ndarray:
    """curve[r-1] = fraction of probes whose true identity ranks within r.

    Ranks count identities, not gallery entries, and identities at equal
    distance keep their order; the curve has one entry per identity.
    """
    own = scores.own(list(true_ids))
    if own.shape[0] == 0:
        raise ValueError("need at least one probe")
    # a probe's rank: the identities nearer than its own, plus those as near that come first
    column = own.argmax(axis=1)[:, None]
    distance = np.take_along_axis(scores.values, column, axis=1)
    ahead = scores.values < distance
    ahead |= (scores.values == distance) & (np.arange(own.shape[1]) < column)
    ranks = np.count_nonzero(ahead, axis=1)
    return np.cumsum(np.bincount(ranks, minlength=own.shape[1])) / own.shape[0]


def roc(genuine, impostor) -> np.ndarray:
    """(FAR, VR) pairs over an even 1000-threshold sweep of the pooled score range.

    VR is the fraction of genuine distances at or below the threshold, FAR
    the same fraction of impostor distances; both are non-decreasing along
    the sweep.
    """
    genuine = np.asarray(genuine, dtype=np.float64).reshape(-1)
    impostor = np.asarray(impostor, dtype=np.float64).reshape(-1)
    if genuine.size == 0 or impostor.size == 0:
        raise ValueError("need both genuine and impostor distances")
    pooled_min = min(genuine.min(), impostor.min())
    pooled_max = max(genuine.max(), impostor.max())
    grid = np.linspace(pooled_min, pooled_max, 1000)
    vr = np.searchsorted(np.sort(genuine), grid, side="right") / genuine.size
    far = np.searchsorted(np.sort(impostor), grid, side="right") / impostor.size
    return np.column_stack([far, vr])
