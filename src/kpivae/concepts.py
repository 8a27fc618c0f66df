"""Concept extraction: cluster per-element KPI mean profiles with k-means.

Each cluster centroid, affinely rescaled from [0, 1] into [-1, 1], later
serves as the prior mean of one latent dimension per KPI.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import (
    N_KPIS, NormStats, Records, group_means, normalize, read_artifact, write_artifact, write_csv
)
from .errors import ConfigError, ParseError, ValidationError

CONCEPTS_TAG = "kpivae-concepts-v3"
QUALITY_HEADER = ["cluster", "size", "variance"]

LLOYD_MAX_ITER = 100
LLOYD_TOL = 1e-9


@dataclass
class ConceptModel:
    centroids: np.ndarray  # (k, 5) in normalized profile space, [0, 1]
    assignment: dict[str, int]

    @property
    def k(self) -> int:
        return len(self.centroids)

    @property
    def prior_means(self) -> np.ndarray:
        """(k, 5) concept-dim prior means: the affine map 2c - 1 of the
        centroids from [0, 1] to [-1, 1]."""
        return 2.0 * self.centroids - 1.0


def element_profiles(train: Records, stats: NormStats) -> tuple[list[str], np.ndarray]:
    """Sorted element ids and the (M, 5) mean of each element's normalized KPIs."""
    if not len(train):
        raise ValidationError("cannot build profiles from an empty dataset")
    ids, element = np.unique(np.asarray(train.element_ids, dtype=object), return_inverse=True)
    return ids.tolist(), group_means(element, normalize(train.kpis, stats), len(ids))


def _inertia(points: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> float:
    return float(((points - centroids[labels]) ** 2).sum())


def _assign(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # squared Euclidean; np.argmin breaks ties toward the lowest index
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)


def kmeans_pp_seed(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centroids proportionally to D^2."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = points[first]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # all remaining points coincide with a chosen centroid
            centroids[j] = points[int(rng.integers(n))]
        else:
            probs = d2 / total
            centroids[j] = points[int(rng.choice(n, p=probs))]
        d2 = np.minimum(d2, ((points - centroids[j]) ** 2).sum(axis=1))
    return centroids


def lloyd(points: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd iteration until an assignment fixpoint, a centroid shift below
    LLOYD_TOL, or LLOYD_MAX_ITER rounds.

    Empty clusters are re-seeded to the point farthest from its assigned
    centroid. Returns (centroids, labels).
    """
    k = centroids.shape[0]
    centroids = centroids.copy()
    labels = _assign(points, centroids)
    for _ in range(LLOYD_MAX_ITER):
        empties = np.flatnonzero(np.bincount(labels, minlength=k) == 0)
        with np.errstate(invalid="ignore"):  # an empty cluster's mean is 0/0, re-seeded below
            new_centroids = group_means(labels, points, k)
        if empties.size:
            d2 = ((points - new_centroids[labels]) ** 2).sum(axis=1)
            new_centroids[empties] = points[np.argsort(-d2, kind="stable")[: empties.size]]
        shift = float(np.abs(new_centroids - centroids).max())
        centroids = new_centroids
        new_labels = _assign(points, centroids)
        converged = (new_labels == labels).all() and not empties.size
        labels = new_labels
        if converged or shift < LLOYD_TOL:
            break
    return centroids, labels


def kmeans_fit(profiles: tuple[list[str], np.ndarray], k: int, seed: int = 0) -> ConceptModel:
    """Fit k-means on (element ids, profiles) (k-means++ seeding, Lloyd iteration)."""
    ids, points = profiles
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if k < 1:
        raise ValidationError("k must be >= 1")
    if k > len(ids):
        raise ValidationError(f"k={k} exceeds the number of profiles ({len(ids)})")
    points = np.asarray(points, dtype=np.float64)
    rng = np.random.default_rng(seed)
    centroids = kmeans_pp_seed(points, k, rng)
    centroids, labels = lloyd(points, centroids)
    return ConceptModel(centroids, dict(zip(ids, labels.tolist())))


def inertia(model: ConceptModel, profiles: tuple[list[str], np.ndarray]) -> float:
    """Sum of squared distances of the profiles to their nearest centroid;
    for the profiles it was fitted on, the inertia `lloyd` ended at."""
    points = np.asarray(profiles[1], dtype=np.float64)
    return _inertia(points, model.centroids, _assign(points, model.centroids))


def assign_concept(profiles: np.ndarray, model: ConceptModel) -> np.ndarray:
    """Index of the nearest centroid of each (M, 5) profile row; ties break
    toward the lowest index."""
    return _assign(np.asarray(profiles, dtype=np.float64), model.centroids)


def cluster_quality(
    model: ConceptModel, profiles: tuple[list[str], np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Size and variance (mean squared distance to the centroid, 0.0 when
    empty) of each cluster, indexed by cluster id, for elbow-style k picks."""
    points = np.asarray(profiles[1], dtype=np.float64)
    labels = _assign(points, model.centroids)
    sizes = np.bincount(labels, minlength=model.k)
    variances = np.zeros(model.k)
    for j in np.flatnonzero(sizes):
        # one mean per cluster; np.bincount's sums would move the last bits
        variances[j] = ((points[labels == j] - model.centroids[j]) ** 2).sum(axis=1).mean()
    return sizes, variances


def save_concept_model(model: ConceptModel, path) -> None:
    rows = [["centroid", j, *model.centroids[j]] for j in range(model.k)]
    rows += [["assign", eid, model.assignment[eid]] for eid in sorted(model.assignment)]
    write_artifact(path, CONCEPTS_TAG, rows)


def load_concept_model(path) -> ConceptModel:
    kinds = {
        "centroid": (
            int, float, N_KPIS,
            lambda v: not 0.0 <= min(v) <= max(v) <= 1.0 and "centroid values must lie in [0, 1]",
        ),
        "assign": (str, int, 1, None),
    }
    rows = read_artifact(path, CONCEPTS_TAG, kinds)
    k = len(rows["centroid"])
    if not k:
        raise ParseError("a concept model needs at least one centroid row")
    for j, (line_no, _) in rows["centroid"].items():
        if not 0 <= j < k:
            raise ParseError(f"centroid {j} outside 0..{k - 1} ({k} centroid rows)", line_no)
    for line_no, (j,) in rows["assign"].values():
        if not 0 <= j < k:
            raise ParseError(f"cluster assignment {j} outside 0..{k - 1}", line_no)
    centroids = np.array([rows["centroid"][j][1] for j in range(k)])
    return ConceptModel(centroids, {eid: j for eid, (_, (j,)) in rows["assign"].items()})


def save_quality(sizes: np.ndarray, variances: np.ndarray, path) -> None:
    write_csv(path, QUALITY_HEADER, (np.arange(len(sizes)), sizes, variances))
